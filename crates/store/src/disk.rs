//! Page file manager.
//!
//! Presents a flat array of [`PAGE_SIZE`] pages addressed by [`PageId`].
//! All file access goes through the [`Vfs`] seam — this
//! module performs no `std::fs` I/O of its own — so the same manager runs
//! on a real disk, in memory, or under the fault injector (the paper's
//! prototype similarly supported more than one backing store).

use crate::error::Result;
use crate::page::{PageId, PAGE_SIZE};
use crate::sync::Mutex;
use crate::vfs::{MemVfs, StdVfs, Vfs, VfsFile};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// Allocates, reads, writes, and syncs fixed-size pages.
pub struct DiskManager {
    file: Arc<dyn VfsFile>,
    page_count: AtomicU32,
    /// Serializes allocations (extend + counter update must be atomic
    /// with respect to other allocators).
    alloc: Mutex<()>,
}

impl DiskManager {
    /// A manager backed by heap memory. Contents are lost on drop.
    pub fn in_memory() -> Self {
        Self::open_with_vfs(&MemVfs::new(), Path::new("pages.mem"))
            .expect("in-memory page file cannot fail to open")
    }

    /// Open (or create) a page file at `path` on the real filesystem.
    pub fn open(path: &Path) -> Result<Self> {
        Self::open_with_vfs(&StdVfs, path)
    }

    /// Open (or create) a page file at `path` through an explicit VFS.
    /// An existing file's length must be a whole number of pages.
    pub fn open_with_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Self> {
        let file = vfs.open(path)?;
        let len = file.len()?;
        if len % PAGE_SIZE as u64 != 0 {
            return Err(crate::error::StoreError::Corrupt(format!(
                "page file length {len} is not a multiple of {PAGE_SIZE}"
            )));
        }
        Ok(DiskManager {
            file,
            page_count: AtomicU32::new((len / PAGE_SIZE as u64) as u32),
            alloc: Mutex::new(()),
        })
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire)
    }

    /// Extend the file by one zeroed page and return its id. The extend
    /// is a single `truncate` (zero-extension) — no page-sized zero
    /// buffer is written, so allocation cost is O(1) in VFS write calls.
    pub fn allocate(&self) -> Result<PageId> {
        let _a = self.alloc.lock();
        let id = self.page_count.load(Ordering::Acquire);
        self.file.truncate((u64::from(id) + 1) * PAGE_SIZE as u64)?;
        self.page_count.store(id + 1, Ordering::Release);
        Ok(PageId(id))
    }

    /// Shrink the file to its first `count` pages.
    pub fn truncate_pages(&self, count: u32) -> Result<()> {
        let _a = self.alloc.lock();
        self.file.truncate(u64::from(count) * PAGE_SIZE as u64)?;
        self.page_count.store(count, Ordering::Release);
        Ok(())
    }

    /// Read page `id` into `buf`.
    pub fn read_page(&self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        debug_assert!(id.0 < self.page_count(), "read of unallocated page {id:?}");
        self.file
            .read_at(u64::from(id.0) * PAGE_SIZE as u64, &mut buf[..])
    }

    /// Write `buf` to page `id`.
    pub fn write_page(&self, id: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        debug_assert!(id.0 < self.page_count(), "write of unallocated page {id:?}");
        self.file
            .write_at(u64::from(id.0) * PAGE_SIZE as u64, &buf[..])
    }

    /// Flush written pages to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.file.sync()
    }
}

#[cfg(test)]
#[allow(
    clippy::disallowed_methods,
    reason = "the tests exercise the real-disk page file on host scratch files"
)]
mod tests {
    use super::*;
    use crate::vfs::FaultVfs;

    fn exercise(dm: &DiskManager) {
        assert_eq!(dm.page_count(), 0);
        let p0 = dm.allocate().unwrap();
        let p1 = dm.allocate().unwrap();
        assert_eq!((p0, p1), (PageId(0), PageId(1)));
        assert_eq!(dm.page_count(), 2);

        let mut w = [0u8; PAGE_SIZE];
        w[0] = 0xAB;
        w[PAGE_SIZE - 1] = 0xCD;
        dm.write_page(p1, &w).unwrap();

        let mut r = [0u8; PAGE_SIZE];
        dm.read_page(p1, &mut r).unwrap();
        assert_eq!(r[0], 0xAB);
        assert_eq!(r[PAGE_SIZE - 1], 0xCD);

        dm.read_page(p0, &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0), "fresh page is zeroed");
        dm.sync().unwrap();
    }

    #[test]
    fn memory_backend() {
        exercise(&DiskManager::in_memory());
    }

    #[test]
    fn file_backend_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("ptstore-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.db");
        let _ = std::fs::remove_file(&path);
        {
            let dm = DiskManager::open(&path).unwrap();
            exercise(&dm);
        }
        // Reopen: page count and contents persist.
        let dm = DiskManager::open(&path).unwrap();
        assert_eq!(dm.page_count(), 2);
        let mut r = [0u8; PAGE_SIZE];
        dm.read_page(PageId(1), &mut r).unwrap();
        assert_eq!(r[0], 0xAB);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rejects_ragged_file() {
        let dir = std::env::temp_dir().join(format!("ptstore-ragged-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ragged.db");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(DiskManager::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn allocate_issues_o1_write_calls() {
        // Regression: allocation used to write a PAGE_SIZE zero buffer
        // per page. Through the counting FaultVfs, 1k allocations must
        // issue zero write calls (the zero-extension is a truncate).
        let fv = FaultVfs::new(Arc::new(MemVfs::new()));
        let dm = DiskManager::open_with_vfs(&fv, Path::new("alloc.db")).unwrap();
        for _ in 0..1000 {
            dm.allocate().unwrap();
        }
        let s = fv.op_stats();
        assert_eq!(s.writes, 0, "allocation must not write zero pages");
        assert_eq!(s.bytes_written, 0);
        assert_eq!(dm.page_count(), 1000);
        // The extended region really reads back as zeroes.
        let mut r = [0u8; PAGE_SIZE];
        dm.read_page(PageId(999), &mut r).unwrap();
        assert!(r.iter().all(|&b| b == 0));
    }

    #[test]
    fn faulted_write_surfaces_typed_error() {
        let fv = FaultVfs::new(Arc::new(MemVfs::new()));
        fv.arm(crate::vfs::FaultRule {
            trigger: crate::vfs::FaultTrigger::NthWrite(0),
            kind: crate::vfs::FaultKind::Error(std::io::ErrorKind::StorageFull),
            once: true,
        });
        let dm = DiskManager::open_with_vfs(&fv, Path::new("f.db")).unwrap();
        let p = dm.allocate().unwrap();
        let buf = [7u8; PAGE_SIZE];
        let err = dm.write_page(p, &buf).unwrap_err();
        assert!(!err.is_transient(), "ENOSPC is fatal");
        dm.write_page(p, &buf).unwrap();
    }
}
