//! Virtual file system: the single seam between the storage engine and
//! the bytes it persists.
//!
//! [`DiskManager`](crate::disk::DiskManager) and the
//! [`Wal`](crate::wal::Wal) perform every file operation through
//! [`Vfs`]/[`VfsFile`] instead of `std::fs`, so the same engine code runs
//! against a real disk ([`StdVfs`]), a heap buffer ([`MemVfs`]), or a
//! deterministic fault injector ([`FaultVfs`]) that can produce short
//! writes, torn writes, `ENOSPC`, fsync failures, and hard crashes at a
//! chosen operation — the substrate for the fault-matrix and
//! kill-and-resume test suites (see `docs/FAULTS.md`).
//!
//! # Fsync-gate semantics
//!
//! [`FaultVfs`] models the operating system's page cache: writes land in
//! an in-memory image and become visible to subsequent reads immediately,
//! but only [`VfsFile::sync`] copies the image down to the inner
//! (durable) VFS. A simulated crash discards everything that never
//! reached the inner layer — exactly the guarantee window a real
//! buffered-I/O system has between `write(2)` and `fsync(2)`.

use crate::error::{Result, StoreError};
use crate::sync::Mutex;
use std::collections::HashMap;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// An open file: positional reads and writes plus durability control.
///
/// Implementations are internally synchronized; callers may share one
/// handle across threads.
pub trait VfsFile: Send + Sync {
    /// Read exactly `buf.len()` bytes starting at `offset`. Reading past
    /// the end of the file is an error (`UnexpectedEof`).
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()>;

    /// Write all of `buf` at `offset`, zero-extending the file if the
    /// write starts or ends beyond its current length.
    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()>;

    /// Flush previously written data to stable storage.
    fn sync(&self) -> Result<()>;

    /// Shrink or zero-extend the file to exactly `len` bytes.
    fn truncate(&self, len: u64) -> Result<()>;

    /// Current file length in bytes.
    fn len(&self) -> Result<u64>;

    /// True if the file is currently empty.
    fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// A file namespace: opens (creating if absent) files by path.
pub trait Vfs: Send + Sync {
    /// Open `path` for reading and writing, creating it if it does not
    /// exist. Existing contents are preserved.
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>>;
}

// ---------------------------------------------------------------------------
// StdVfs — the real filesystem
// ---------------------------------------------------------------------------

/// The production VFS: plain `std::fs` files.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

struct StdFile {
    path: PathBuf,
    file: Mutex<std::fs::File>,
}

impl StdFile {
    fn ctx(&self, e: std::io::Error) -> StoreError {
        StoreError::io_at(&self.path, e)
    }
}

impl Vfs for StdVfs {
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| StoreError::io_at(path, e))?;
        Ok(Arc::new(StdFile {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        }))
    }
}

impl VfsFile for StdFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(offset)).map_err(|e| self.ctx(e))?;
        f.read_exact(buf).map_err(|e| self.ctx(e))
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let mut f = self.file.lock();
        f.seek(SeekFrom::Start(offset)).map_err(|e| self.ctx(e))?;
        f.write_all(buf).map_err(|e| self.ctx(e))
    }

    fn sync(&self) -> Result<()> {
        self.file.lock().sync_data().map_err(|e| self.ctx(e))
    }

    fn truncate(&self, len: u64) -> Result<()> {
        self.file.lock().set_len(len).map_err(|e| self.ctx(e))
    }

    fn len(&self) -> Result<u64> {
        Ok(self.file.lock().metadata().map_err(|e| self.ctx(e))?.len())
    }
}

// ---------------------------------------------------------------------------
// MemVfs — heap-backed files
// ---------------------------------------------------------------------------

/// A heap-backed VFS. Files are keyed by path and shared between opens,
/// so "reopening" a path observes whatever an earlier handle persisted —
/// the property crash-simulation tests rely on. Cloning the `MemVfs`
/// shares the namespace; contents vanish when the last clone drops.
#[derive(Clone, Default)]
pub struct MemVfs {
    files: Arc<Mutex<HashMap<PathBuf, Arc<MemFile>>>>,
}

impl MemVfs {
    /// An empty in-memory namespace.
    pub fn new() -> Self {
        Self::default()
    }
}

#[derive(Default)]
struct MemFile {
    data: Mutex<Vec<u8>>,
}

impl Vfs for MemVfs {
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>> {
        let mut files = self.files.lock();
        let file = files.entry(path.to_path_buf()).or_default();
        Ok(Arc::clone(file) as Arc<dyn VfsFile>)
    }
}

fn eof_err(offset: u64, want: usize, have: usize) -> StoreError {
    StoreError::Io(std::io::Error::new(
        std::io::ErrorKind::UnexpectedEof,
        format!("read of {want} bytes at offset {offset} past end of {have}-byte file"),
    ))
}

impl VfsFile for MemFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        let data = self.data.lock();
        let start = offset as usize;
        let end = start.checked_add(buf.len());
        match end {
            Some(end) if end <= data.len() => {
                buf.copy_from_slice(&data[start..end]);
                Ok(())
            }
            _ => Err(eof_err(offset, buf.len(), data.len())),
        }
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        let mut data = self.data.lock();
        let start = offset as usize;
        let end = start + buf.len();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[start..end].copy_from_slice(buf);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }

    fn truncate(&self, len: u64) -> Result<()> {
        self.data.lock().resize(len as usize, 0);
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        Ok(self.data.lock().len() as u64)
    }
}

// ---------------------------------------------------------------------------
// FaultVfs — deterministic fault injection
// ---------------------------------------------------------------------------

/// What an armed [`FaultRule`] does when its trigger fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail the operation with this `std::io::ErrorKind` and no side
    /// effect. `Interrupted`/`TimedOut`/`WouldBlock` model transient
    /// faults (the retry policy handles them); anything else is fatal.
    Error(std::io::ErrorKind),
    /// Apply only the first `keep` bytes of the write (a short/torn
    /// write), then fail with `WriteZero`. With a page-sized buffer and
    /// `keep < PAGE_SIZE` this is a torn page write.
    ShortWrite {
        /// Bytes of the buffer that reach the file image.
        keep: usize,
    },
    /// During `sync`, flush only the first `keep` bytes of the image to
    /// the durable layer, then crash. Pair with
    /// [`FaultTrigger::NthSync`] to produce a genuinely torn *durable*
    /// state (fsync reported failure and the process died).
    TornSync {
        /// Bytes of the in-memory image that become durable.
        keep: usize,
    },
    /// Hard crash: this and every later operation fails, and data that
    /// was never synced to the inner VFS is lost (fsync-gate semantics).
    Crash,
}

/// When a [`FaultRule`] fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// The N-th operation of any kind (0-based; reads, writes, syncs,
    /// and truncates all advance the counter).
    OpIndex(u64),
    /// The N-th write (0-based).
    NthWrite(u64),
    /// The N-th sync (0-based).
    NthSync(u64),
    /// Every write once cumulative bytes written exceed this budget —
    /// the moral equivalent of `ENOSPC` on a full disk.
    WriteBytesExceed(u64),
}

/// One armed fault: a trigger plus the failure it injects.
#[derive(Debug, Clone, Copy)]
pub struct FaultRule {
    /// When the fault fires.
    pub trigger: FaultTrigger,
    /// What happens when it fires.
    pub kind: FaultKind,
    /// Fire at most once (`true`) or on every trigger match (`false`).
    pub once: bool,
}

/// Operation counters observed by a [`FaultVfs`]; also the measurement
/// device for I/O-pattern regression tests (e.g. "allocation issues O(1)
/// write calls").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VfsOpStats {
    /// `read_at` calls.
    pub reads: u64,
    /// `write_at` calls.
    pub writes: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// `truncate` calls.
    pub truncates: u64,
    /// Total bytes passed to `write_at`.
    pub bytes_written: u64,
}

struct RuleSlot {
    rule: FaultRule,
    fired: bool,
}

#[derive(Default)]
struct FaultState {
    ops: AtomicU64,
    reads: AtomicU64,
    writes: AtomicU64,
    syncs: AtomicU64,
    truncates: AtomicU64,
    bytes_written: AtomicU64,
    injected: AtomicU64,
    crashed: AtomicBool,
    rules: Mutex<Vec<RuleSlot>>,
}

#[derive(Clone, Copy)]
enum OpClass {
    Read,
    Write,
    Sync,
    Truncate,
}

impl FaultState {
    /// Record one operation and return the fault to inject, if any.
    fn step(&self, class: OpClass, write_len: usize) -> Option<FaultKind> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let (class_idx, written) = match class {
            OpClass::Read => (self.reads.fetch_add(1, Ordering::SeqCst), 0),
            OpClass::Write => (
                self.writes.fetch_add(1, Ordering::SeqCst),
                self.bytes_written
                    .fetch_add(write_len as u64, Ordering::SeqCst)
                    + write_len as u64,
            ),
            OpClass::Sync => (self.syncs.fetch_add(1, Ordering::SeqCst), 0),
            OpClass::Truncate => (self.truncates.fetch_add(1, Ordering::SeqCst), 0),
        };
        let mut rules = self.rules.lock();
        for slot in rules.iter_mut() {
            if slot.fired && slot.rule.once {
                continue;
            }
            let hit = match (slot.rule.trigger, class) {
                (FaultTrigger::OpIndex(n), _) => op == n,
                (FaultTrigger::NthWrite(n), OpClass::Write) => class_idx == n,
                (FaultTrigger::NthSync(n), OpClass::Sync) => class_idx == n,
                (FaultTrigger::WriteBytesExceed(budget), OpClass::Write) => written > budget,
                _ => false,
            };
            if hit {
                slot.fired = true;
                self.injected.fetch_add(1, Ordering::SeqCst);
                return Some(slot.rule.kind);
            }
        }
        None
    }
}

/// A deterministic fault-injecting VFS layered over any inner VFS.
///
/// Writes buffer in an in-memory image per file (visible to reads
/// immediately); `sync` flushes the image to the inner VFS. See the
/// module docs for the fsync-gate model. Cloning shares the injector
/// state, so one handle can arm faults while the engine holds another.
///
/// Each path should be opened through a given `FaultVfs` at most once
/// per simulated process lifetime; re-opening after [`FaultVfs::crash`]
/// (or [`FaultVfs::clear_crash`]) builds a fresh image from the inner
/// VFS, which is exactly a process restart.
#[derive(Clone)]
pub struct FaultVfs {
    inner: Arc<dyn Vfs>,
    state: Arc<FaultState>,
}

impl FaultVfs {
    /// Wrap `inner` with no faults armed.
    pub fn new(inner: Arc<dyn Vfs>) -> Self {
        FaultVfs {
            inner,
            state: Arc::new(FaultState::default()),
        }
    }

    /// Wrap `inner` with `rules` armed.
    pub fn with_rules(inner: Arc<dyn Vfs>, rules: Vec<FaultRule>) -> Self {
        let vfs = Self::new(inner);
        for r in rules {
            vfs.arm(r);
        }
        vfs
    }

    /// Arm one more fault rule.
    pub fn arm(&self, rule: FaultRule) {
        self.state
            .rules
            .lock()
            .push(RuleSlot { rule, fired: false });
    }

    /// Disarm every rule (already-injected faults stay injected).
    pub fn clear_rules(&self) {
        self.state.rules.lock().clear();
    }

    /// Trigger a hard crash now, independent of any rule.
    pub fn crash(&self) {
        self.state.crashed.store(true, Ordering::SeqCst);
    }

    /// True once a crash fault has fired (or [`FaultVfs::crash`] ran).
    pub fn crashed(&self) -> bool {
        self.state.crashed.load(Ordering::SeqCst)
    }

    /// Simulate a process restart: clear the crashed flag so new opens
    /// succeed. Handles opened before the crash keep failing; reopen
    /// them to read the surviving (synced) state from the inner VFS.
    pub fn clear_crash(&self) {
        self.state.crashed.store(false, Ordering::SeqCst);
    }

    /// Number of faults injected so far.
    pub fn injected_faults(&self) -> u64 {
        self.state.injected.load(Ordering::SeqCst)
    }

    /// Operation counters since construction.
    pub fn op_stats(&self) -> VfsOpStats {
        VfsOpStats {
            reads: self.state.reads.load(Ordering::SeqCst),
            writes: self.state.writes.load(Ordering::SeqCst),
            syncs: self.state.syncs.load(Ordering::SeqCst),
            truncates: self.state.truncates.load(Ordering::SeqCst),
            bytes_written: self.state.bytes_written.load(Ordering::SeqCst),
        }
    }
}

/// Build a deterministic pseudo-random schedule of `count` rules, all of
/// kind `kind`, at operation indexes below `max_op`. Uses a fixed LCG so
/// the same seed always yields the same schedule — no wall clock, no
/// global RNG (see `docs/FAULTS.md` on determinism).
pub fn seeded_schedule(seed: u64, count: usize, max_op: u64, kind: FaultKind) -> Vec<FaultRule> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut rules = Vec::with_capacity(count);
    for _ in 0..count {
        // Numerical Recipes LCG constants; period 2^64.
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        rules.push(FaultRule {
            trigger: FaultTrigger::OpIndex((x >> 16) % max_op.max(1)),
            kind,
            once: true,
        });
    }
    rules
}

fn crash_err() -> StoreError {
    StoreError::Io(std::io::Error::other("simulated crash (FaultVfs)"))
}

fn injected_err(kind: std::io::ErrorKind, what: &str) -> StoreError {
    StoreError::Io(std::io::Error::new(
        kind,
        format!("injected fault during {what} (FaultVfs)"),
    ))
}

struct FaultFile {
    inner: Arc<dyn VfsFile>,
    /// The simulated page cache: what the running process observes.
    image: Mutex<Vec<u8>>,
    state: Arc<FaultState>,
}

impl Vfs for FaultVfs {
    fn open(&self, path: &Path) -> Result<Arc<dyn VfsFile>> {
        if self.state.crashed.load(Ordering::SeqCst) {
            return Err(crash_err());
        }
        let inner = self.inner.open(path)?;
        let len = inner.len()?;
        let mut image = vec![0u8; len as usize];
        if len > 0 {
            inner.read_at(0, &mut image)?;
        }
        Ok(Arc::new(FaultFile {
            inner,
            image: Mutex::new(image),
            state: Arc::clone(&self.state),
        }))
    }
}

impl FaultFile {
    fn check_crashed(&self) -> Result<()> {
        if self.state.crashed.load(Ordering::SeqCst) {
            return Err(crash_err());
        }
        Ok(())
    }

    fn inject(&self, kind: FaultKind, what: &str) -> StoreError {
        match kind {
            FaultKind::Error(k) => injected_err(k, what),
            FaultKind::ShortWrite { .. } => injected_err(std::io::ErrorKind::WriteZero, what),
            FaultKind::Crash | FaultKind::TornSync { .. } => {
                self.state.crashed.store(true, Ordering::SeqCst);
                crash_err()
            }
        }
    }
}

impl VfsFile for FaultFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<()> {
        self.check_crashed()?;
        if let Some(kind) = self.state.step(OpClass::Read, 0) {
            return Err(self.inject(kind, "read"));
        }
        let image = self.image.lock();
        let start = offset as usize;
        match start.checked_add(buf.len()) {
            Some(end) if end <= image.len() => {
                buf.copy_from_slice(&image[start..end]);
                Ok(())
            }
            _ => Err(eof_err(offset, buf.len(), image.len())),
        }
    }

    fn write_at(&self, offset: u64, buf: &[u8]) -> Result<()> {
        self.check_crashed()?;
        let fault = self.state.step(OpClass::Write, buf.len());
        let apply = match fault {
            None => buf.len(),
            Some(FaultKind::ShortWrite { keep }) => keep.min(buf.len()),
            Some(_) => 0,
        };
        if apply > 0 {
            let mut image = self.image.lock();
            let start = offset as usize;
            let end = start + apply;
            if image.len() < end {
                image.resize(end, 0);
            }
            image[start..end].copy_from_slice(&buf[..apply]);
        }
        match fault {
            None => Ok(()),
            Some(kind) => Err(self.inject(kind, "write")),
        }
    }

    fn sync(&self) -> Result<()> {
        self.check_crashed()?;
        let fault = self.state.step(OpClass::Sync, 0);
        let image = self.image.lock();
        match fault {
            None => {
                // Flush the whole image: the durable file becomes an
                // exact copy of what the process has written so far.
                self.inner.write_at(0, &image)?;
                self.inner.truncate(image.len() as u64)?;
                self.inner.sync()
            }
            Some(FaultKind::TornSync { keep }) => {
                // Part of the image reaches stable storage, then the
                // process dies: the durable prefix is new, the durable
                // tail (if longer) is stale — a torn durable state.
                let keep = keep.min(image.len());
                self.inner.write_at(0, &image[..keep])?;
                self.inner.sync()?;
                Err(self.inject(FaultKind::TornSync { keep }, "sync"))
            }
            Some(kind) => Err(self.inject(kind, "sync")),
        }
    }

    fn truncate(&self, len: u64) -> Result<()> {
        self.check_crashed()?;
        if let Some(kind) = self.state.step(OpClass::Truncate, 0) {
            return Err(self.inject(kind, "truncate"));
        }
        self.image.lock().resize(len as usize, 0);
        Ok(())
    }

    fn len(&self) -> Result<u64> {
        self.check_crashed()?;
        Ok(self.image.lock().len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_file() -> (MemVfs, Arc<dyn VfsFile>) {
        let vfs = MemVfs::new();
        let f = vfs.open(Path::new("t.bin")).unwrap();
        (vfs, f)
    }

    #[test]
    fn mem_vfs_roundtrip_and_shared_namespace() {
        let (vfs, f) = mem_file();
        f.write_at(0, b"hello").unwrap();
        f.write_at(8, b"world").unwrap();
        assert_eq!(f.len().unwrap(), 13);
        let mut buf = [0u8; 5];
        f.read_at(8, &mut buf).unwrap();
        assert_eq!(&buf, b"world");
        // The gap is zero-filled.
        let mut gap = [9u8; 3];
        f.read_at(5, &mut gap).unwrap();
        assert_eq!(gap, [0, 0, 0]);
        // Reopening the same path sees the same bytes.
        let again = vfs.open(Path::new("t.bin")).unwrap();
        assert_eq!(again.len().unwrap(), 13);
        // Reads past EOF fail.
        let mut big = [0u8; 20];
        assert!(f.read_at(0, &mut big).is_err());
    }

    #[test]
    fn mem_vfs_truncate_extends_and_shrinks() {
        let (_vfs, f) = mem_file();
        f.write_at(0, b"abc").unwrap();
        f.truncate(10).unwrap();
        assert_eq!(f.len().unwrap(), 10);
        let mut buf = [1u8; 7];
        f.read_at(3, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 7]);
        f.truncate(1).unwrap();
        assert_eq!(f.len().unwrap(), 1);
    }

    #[test]
    fn std_vfs_preserves_error_kind_and_path() {
        let dir = std::env::temp_dir().join(format!("ptvfs-std-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("real.bin");
        let vfs = StdVfs;
        let f = vfs.open(&path).unwrap();
        f.write_at(0, b"data").unwrap();
        f.sync().unwrap();
        let mut buf = [0u8; 10];
        let err = f.read_at(0, &mut buf).unwrap_err();
        match err {
            StoreError::Io(e) => {
                assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof);
                assert!(e.to_string().contains("real.bin"), "{e}");
            }
            other => panic!("expected Io, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_vfs_fsync_gate_drops_unsynced_data() {
        let inner = MemVfs::new();
        let fv = FaultVfs::new(Arc::new(inner.clone()));
        let f = fv.open(Path::new("w.bin")).unwrap();
        f.write_at(0, b"synced").unwrap();
        f.sync().unwrap();
        f.write_at(6, b"+lost").unwrap();
        // Visible to the running process...
        assert_eq!(f.len().unwrap(), 11);
        fv.crash();
        assert!(f.read_at(0, &mut [0u8; 1]).is_err(), "post-crash ops fail");
        // ...but after the crash only the synced prefix survives.
        let durable = inner.open(Path::new("w.bin")).unwrap();
        assert_eq!(durable.len().unwrap(), 6);
        let mut buf = [0u8; 6];
        durable.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"synced");
    }

    #[test]
    fn fault_vfs_short_write_applies_prefix_then_fails() {
        let fv = FaultVfs::new(Arc::new(MemVfs::new()));
        fv.arm(FaultRule {
            trigger: FaultTrigger::NthWrite(1),
            kind: FaultKind::ShortWrite { keep: 3 },
            once: true,
        });
        let f = fv.open(Path::new("s.bin")).unwrap();
        f.write_at(0, b"aaaa").unwrap();
        let err = f.write_at(4, b"bbbb").unwrap_err();
        assert!(matches!(err, StoreError::Io(ref e)
            if e.kind() == std::io::ErrorKind::WriteZero));
        // The torn prefix landed; the file is 7 bytes, not 8.
        assert_eq!(f.len().unwrap(), 7);
        // Next write succeeds (rule was once-only).
        f.write_at(4, b"bbbb").unwrap();
        assert_eq!(fv.injected_faults(), 1);
    }

    #[test]
    fn fault_vfs_enospc_budget() {
        let fv = FaultVfs::new(Arc::new(MemVfs::new()));
        fv.arm(FaultRule {
            trigger: FaultTrigger::WriteBytesExceed(10),
            kind: FaultKind::Error(std::io::ErrorKind::StorageFull),
            once: false,
        });
        let f = fv.open(Path::new("e.bin")).unwrap();
        f.write_at(0, &[0u8; 8]).unwrap();
        let err = f.write_at(8, &[0u8; 8]).unwrap_err();
        assert!(matches!(err, StoreError::Io(ref e)
            if e.kind() == std::io::ErrorKind::StorageFull));
        // Still failing: the disk stays full.
        assert!(f.write_at(8, &[0u8; 8]).is_err());
    }

    #[test]
    fn fault_vfs_torn_sync_leaves_partial_durable_state() {
        let inner = MemVfs::new();
        let fv = FaultVfs::new(Arc::new(inner.clone()));
        fv.arm(FaultRule {
            trigger: FaultTrigger::NthSync(0),
            kind: FaultKind::TornSync { keep: 4 },
            once: true,
        });
        let f = fv.open(Path::new("t.bin")).unwrap();
        f.write_at(0, b"12345678").unwrap();
        assert!(f.sync().is_err());
        assert!(fv.crashed());
        let durable = inner.open(Path::new("t.bin")).unwrap();
        assert_eq!(durable.len().unwrap(), 4, "only the torn prefix is durable");
    }

    #[test]
    fn fault_vfs_crash_at_op_then_restart() {
        let inner = MemVfs::new();
        let fv = FaultVfs::new(Arc::new(inner.clone()));
        fv.arm(FaultRule {
            trigger: FaultTrigger::OpIndex(2),
            kind: FaultKind::Crash,
            once: true,
        });
        let f = fv.open(Path::new("c.bin")).unwrap();
        f.write_at(0, b"a").unwrap(); // op 0
        f.sync().unwrap(); // op 1
        assert!(f.write_at(1, b"b").is_err()); // op 2: crash
        assert!(fv.crashed());
        assert!(fv.open(Path::new("c.bin")).is_err(), "no opens while down");
        // Restart: the image is rebuilt from the durable layer.
        fv.clear_crash();
        let f2 = fv.open(Path::new("c.bin")).unwrap();
        assert_eq!(f2.len().unwrap(), 1);
    }

    #[test]
    fn fault_vfs_counts_ops() {
        let fv = FaultVfs::new(Arc::new(MemVfs::new()));
        let f = fv.open(Path::new("n.bin")).unwrap();
        f.write_at(0, &[0u8; 16]).unwrap();
        f.write_at(16, &[0u8; 4]).unwrap();
        f.sync().unwrap();
        f.truncate(8).unwrap();
        let mut buf = [0u8; 8];
        f.read_at(0, &mut buf).unwrap();
        let s = fv.op_stats();
        assert_eq!(
            (s.writes, s.syncs, s.truncates, s.reads, s.bytes_written),
            (2, 1, 1, 1, 20)
        );
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let a = seeded_schedule(7, 5, 100, FaultKind::Crash);
        let b = seeded_schedule(7, 5, 100, FaultKind::Crash);
        let idx = |rules: &[FaultRule]| -> Vec<u64> {
            rules
                .iter()
                .map(|r| match r.trigger {
                    FaultTrigger::OpIndex(n) => n,
                    _ => unreachable!(),
                })
                .collect()
        };
        assert_eq!(idx(&a), idx(&b));
        assert!(idx(&a).iter().all(|&n| n < 100));
        let c = seeded_schedule(8, 5, 100, FaultKind::Crash);
        assert_ne!(idx(&a), idx(&c), "different seeds differ");
    }
}
