//! Buffer pool: a fixed set of in-memory frames caching disk pages, with
//! clock (second-chance) eviction and write-back of dirty pages.
//!
//! Access is closure-scoped: [`BufferPool::with_page`] /
//! [`BufferPool::with_page_mut`] pin the frame for the duration of the
//! closure only, so pins are short-lived and the pool cannot be exhausted
//! by leaked guards. Frame data is guarded by a [`crate::sync::RwLock`], so
//! concurrent readers of the same hot page proceed in parallel — the
//! property concurrent queries (e.g. `pt serve` clients) rely on.
//!
//! A `with_page`/`with_page_mut` closure must not pin another page. The
//! closure holds its frame's data lock, and pinning takes the pool latch
//! and possibly a second frame: the reverse of a miss's latch → frame
//! order ([`crate::sync::Level`]), so two such threads could deadlock.
//! Debug builds panic on the nested pin.
//!
//! # The pool latch
//!
//! The page table, the per-frame mapping state and the clock hand sit
//! behind one mutex, the pool latch; any page can use any frame. The latch
//! is held only to look a page up or to remap a frame, never while a
//! caller's closure runs. Latch acquisition first `try_lock`s and counts a
//! failure as `buffer_pool.contended` before blocking, so `pt stats` shows
//! whether the latch is ever a queue.
//!
//! Consistency protocol (all mapping changes happen under the latch):
//! * On miss, a victim frame with pin-count 0 is chosen by the clock hand.
//! * The victim's dirty page is written back *while still holding the
//!   latch*, so no other thread can re-fetch the old page from disk and
//!   observe stale bytes.
//! * The new mapping is published and the frame's data lock is acquired
//!   before the latch is released; late-arriving readers of the new page
//!   block on the data lock until the load completes.
//! * When every frame is momentarily pinned, the sweep yields and retries
//!   a bounded number of times before reporting
//!   [`StoreError::PoolExhausted`] — scoped pins are short, so transient
//!   all-pinned states resolve in a few scheduler quanta.

// Panic-freedom: this file is on the request path or the engine core,
// so its non-test code returns typed errors instead of panicking.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::disk::DiskManager;
use crate::error::{Result, StoreError};
use crate::page::{PageId, PAGE_SIZE};
use crate::sync::{Level, Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// How many times a miss re-sweeps a fully pinned pool (yielding between
/// attempts) before giving up with [`StoreError::PoolExhausted`].
const SWEEP_RETRIES: usize = 256;

/// The pool's cache counters, readable at any time.
#[derive(Debug, Default)]
struct PoolStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    contended: AtomicU64,
}

/// A point-in-time copy of the pool's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStatsSnapshot {
    /// Page requests served from a cached frame.
    pub hits: u64,
    /// Page requests that had to read from disk.
    pub misses: u64,
    /// Frames whose previous page was displaced to load another.
    pub evictions: u64,
    /// Dirty pages written back to disk (eviction or flush).
    pub writebacks: u64,
    /// Pool-latch acquisitions that had to block behind another thread.
    pub contended: u64,
}

impl PoolStatsSnapshot {
    /// Fraction of page requests served from cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    data: RwLock<Box<[u8; PAGE_SIZE]>>,
    pin: AtomicU32,
    referenced: AtomicU32, // clock reference bit (0/1)
}

struct FrameInfo {
    page: Option<PageId>,
    dirty: bool,
}

/// Everything the pool latch guards.
struct PoolState {
    /// page → index into `frames`.
    page_table: HashMap<PageId, usize>,
    info: Vec<FrameInfo>,
    hand: usize,
}

/// Called immediately before a dirty page is written back to disk, so the
/// owner can enforce the write-ahead rule (force the WAL first).
pub type WritebackHook = Box<dyn Fn() -> Result<()> + Send + Sync>;

/// Write guard over a frame's page bytes.
type FrameGuard<'a> = RwLockWriteGuard<'a, Box<[u8; PAGE_SIZE]>>;

/// The buffer pool. Cheap to share via `Arc`.
pub struct BufferPool {
    disk: Arc<DiskManager>,
    frames: Vec<Frame>,
    state: Mutex<PoolState>,
    stats: PoolStats,
    writeback_hook: OnceLock<WritebackHook>,
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`.
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let frames = (0..capacity)
            .map(|_| Frame {
                data: RwLock::new(Level::PoolFrame, Box::new([0u8; PAGE_SIZE])),
                pin: AtomicU32::new(0),
                referenced: AtomicU32::new(0),
            })
            .collect();
        let info = (0..capacity)
            .map(|_| FrameInfo {
                page: None,
                dirty: false,
            })
            .collect();
        BufferPool {
            disk,
            frames,
            state: Mutex::new(
                Level::PoolLatch,
                PoolState {
                    page_table: HashMap::with_capacity(capacity),
                    info,
                    hand: 0,
                },
            ),
            stats: PoolStats::default(),
            writeback_hook: OnceLock::new(),
        }
    }

    /// Install a hook run before any dirty page is written back (eviction
    /// or flush). The [`crate::db::Database`] uses this to force the WAL,
    /// preserving the write-ahead invariant. A pool has one hook: a
    /// second call leaves the first in place.
    pub fn set_writeback_hook(&self, hook: WritebackHook) {
        let installed = self.writeback_hook.set(hook).is_ok();
        debug_assert!(installed, "writeback hook installed twice");
    }

    fn run_writeback_hook(&self) -> Result<()> {
        if let Some(h) = self.writeback_hook.get() {
            h()?;
        }
        Ok(())
    }

    /// The disk manager backing this pool.
    pub fn disk(&self) -> &DiskManager {
        &self.disk
    }

    /// Allocate a fresh zeroed page on disk (not yet cached).
    pub fn allocate_page(&self) -> Result<PageId> {
        self.disk.allocate()
    }

    /// The frame at index `idx`. Single chokepoint for frame addressing:
    /// every caller passes an index below `info.len()`, which `new` made
    /// equal to the frame count.
    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "idx < info.len() == frames.len() by pool construction"
    )]
    fn frame(&self, idx: usize) -> &Frame {
        &self.frames[idx]
    }

    /// Run `f` with read access to page `id`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8; PAGE_SIZE]) -> R) -> Result<R> {
        let (idx, preloaded) = self.acquire(id, false)?;
        let frame = self.frame(idx);
        let result = if let Some(guard) = preloaded {
            // We loaded the page ourselves and hold the write lock; use it.
            f(&guard)
        } else {
            let guard = frame.data.read();
            f(&guard)
        };
        frame.pin.fetch_sub(1, Ordering::Release);
        Ok(result)
    }

    /// Run `f` with exclusive write access to page `id`; the frame is
    /// marked dirty.
    pub fn with_page_mut<R>(
        &self,
        id: PageId,
        f: impl FnOnce(&mut [u8; PAGE_SIZE]) -> R,
    ) -> Result<R> {
        let (idx, preloaded) = self.acquire(id, true)?;
        let frame = self.frame(idx);
        let result = if let Some(mut guard) = preloaded {
            f(&mut guard)
        } else {
            let mut guard = frame.data.write();
            f(&mut guard)
        };
        frame.pin.fetch_sub(1, Ordering::Release);
        Ok(result)
    }

    /// Take the pool latch, counting contention when it was not
    /// immediately available.
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        match self.state.try_lock() {
            Some(g) => g,
            None => {
                self.stats.contended.fetch_add(1, Ordering::Relaxed);
                self.state.lock()
            }
        }
    }

    /// Pin page `id` into a frame. Returns the frame index plus, on a
    /// miss, the still-held write guard containing freshly loaded bytes.
    fn acquire(&self, id: PageId, write_intent: bool) -> Result<(usize, Option<FrameGuard<'_>>)> {
        let mut missed = false;
        let mut attempts = 0usize;
        loop {
            let mut state = self.lock_state();
            if let Some(&idx) = state.page_table.get(&id) {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                let frame = self.frame(idx);
                frame.pin.fetch_add(1, Ordering::Acquire);
                frame.referenced.store(1, Ordering::Relaxed);
                if write_intent {
                    if let Some(info) = state.info.get_mut(idx) {
                        info.dirty = true;
                    }
                }
                return Ok((idx, None));
            }
            if !missed {
                // Count the miss once even if the sweep below has to retry.
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                missed = true;
            }
            // Clock sweep for an unpinned, unreferenced victim.
            let cap = state.info.len();
            let mut victim = None;
            for _ in 0..2 * cap {
                let idx = state.hand;
                state.hand = (state.hand + 1) % cap;
                let frame = self.frame(idx);
                if frame.pin.load(Ordering::Acquire) != 0 {
                    continue;
                }
                if frame.referenced.swap(0, Ordering::Relaxed) == 1 {
                    continue; // second chance
                }
                victim = Some(idx);
                break;
            }
            let Some(idx) = victim else {
                // Every frame is pinned or referenced right now. Pins are
                // closure-scoped (released without taking the latch), so
                // drop the latch, yield, and retry; only a persistent
                // all-pinned state is an error.
                drop(state);
                attempts += 1;
                if attempts > SWEEP_RETRIES {
                    return Err(StoreError::PoolExhausted);
                }
                std::thread::yield_now();
                continue;
            };
            // Write back the victim's dirty page before the mapping
            // changes; re-fetches of it block on the latch we hold.
            let victim_info = state.info.get(idx).map(|i| (i.page, i.dirty));
            if let Some((Some(old), dirty)) = victim_info {
                if dirty {
                    self.run_writeback_hook()?;
                    let guard = self.frame(idx).data.read();
                    self.disk.write_page(old, &guard)?;
                    self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                }
                state.page_table.remove(&old);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // Load before publishing the mapping. If the read fails (e.g.
            // a transient I/O error), the pool must look exactly as if
            // this acquire never happened: the frame stays unmapped and a
            // later retry reloads from disk. Publishing first would hand
            // concurrent readers a frame still holding the evicted
            // victim's stale bytes. The data lock cannot block here — the
            // frame is unpinned and unmapped, and every other pin/flush
            // path takes frame locks only under the latch we already
            // hold.
            let mut guard = self.frame(idx).data.write();
            if let Err(e) = self.disk.read_page(id, &mut guard) {
                if let Some(info) = state.info.get_mut(idx) {
                    info.page = None;
                    info.dirty = false;
                }
                return Err(e);
            }
            state.page_table.insert(id, idx);
            if let Some(info) = state.info.get_mut(idx) {
                info.page = Some(id);
                info.dirty = write_intent;
            }
            let frame = self.frame(idx);
            frame.pin.fetch_add(1, Ordering::Acquire);
            frame.referenced.store(1, Ordering::Relaxed);
            drop(state);
            return Ok((idx, Some(guard)));
        }
    }

    /// Write all dirty frames back to disk and sync.
    pub fn flush_all(&self) -> Result<()> {
        self.run_writeback_hook()?;
        let mut state = self.lock_state();
        for idx in 0..state.info.len() {
            let dirty_page = state
                .info
                .get(idx)
                .and_then(|i| i.dirty.then_some(i.page).flatten());
            if let Some(page) = dirty_page {
                let guard = self.frame(idx).data.read();
                self.disk.write_page(page, &guard)?;
                drop(guard);
                if let Some(info) = state.info.get_mut(idx) {
                    info.dirty = false;
                }
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(state);
        self.disk.sync()
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> PoolStatsSnapshot {
        PoolStatsSnapshot {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
            contended: self.stats.contended.load(Ordering::Relaxed),
        }
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{PageMut, PageRef, PageType};

    fn pool(frames: usize) -> BufferPool {
        BufferPool::new(Arc::new(DiskManager::in_memory()), frames)
    }

    #[test]
    fn write_then_read_through_cache() {
        let p = pool(4);
        let id = p.allocate_page().unwrap();
        p.with_page_mut(id, |buf| {
            PageMut::new(&mut buf[..]).format(PageType::Heap);
            PageMut::new(&mut buf[..]).insert(b"cached").unwrap();
        })
        .unwrap();
        let rec = p
            .with_page(id, |buf| PageRef::new(&buf[..]).get(0).map(<[u8]>::to_vec))
            .unwrap();
        assert_eq!(rec.unwrap(), b"cached");
        let s = p.stats();
        assert_eq!(s.misses, 1, "second access hits the cache");
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let p = pool(2);
        let ids: Vec<_> = (0..5).map(|_| p.allocate_page().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |buf| {
                buf[0] = i as u8 + 1;
            })
            .unwrap();
        }
        // All five pages cycled through two frames; early pages must have
        // been written back and re-readable.
        for (i, &id) in ids.iter().enumerate() {
            let b = p.with_page(id, |buf| buf[0]).unwrap();
            assert_eq!(b, i as u8 + 1);
        }
        assert!(p.stats().evictions >= 3);
        assert!(p.stats().writebacks >= 3);
    }

    #[test]
    fn flush_all_persists_to_disk() {
        let disk = Arc::new(DiskManager::in_memory());
        let p = BufferPool::new(Arc::clone(&disk), 4);
        let id = p.allocate_page().unwrap();
        p.with_page_mut(id, |buf| buf[7] = 99).unwrap();
        p.flush_all().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        disk.read_page(id, &mut raw).unwrap();
        assert_eq!(raw[7], 99);
    }

    #[test]
    fn pool_exhaustion_is_impossible_with_scoped_pins() {
        // Scoped access releases pins, so even a 1-frame pool serves many
        // pages sequentially.
        let p = pool(1);
        let ids: Vec<_> = (0..10).map(|_| p.allocate_page().unwrap()).collect();
        for &id in &ids {
            p.with_page_mut(id, |buf| buf[0] = id.0 as u8).unwrap();
        }
        for &id in &ids {
            assert_eq!(p.with_page(id, |b| b[0]).unwrap(), id.0 as u8);
        }
    }

    #[test]
    fn pages_equal_mod_8_are_resident_at_once() {
        // Three pages loaded one after another, then all re-read without a
        // miss: all three are resident at once. Their ids are equal mod 8,
        // so no partition of the frames by page id may confine them: any
        // page can use any frame.
        let p = pool(16);
        let ids: Vec<_> = (0..17).map(|_| p.allocate_page().unwrap()).collect();
        let [a, b, c] = [ids[0], ids[8], ids[16]];
        assert_eq!([a.0, b.0, c.0], [0, 8, 16]);
        for id in [a, b, c] {
            p.with_page_mut(id, |buf| buf[0] = id.0 as u8 + 1).unwrap();
        }
        let misses = p.stats().misses;
        let seen = [a, b, c].map(|id| p.with_page(id, |buf| buf[0]).unwrap());
        assert_eq!(seen, [1, 9, 17]);
        assert_eq!(p.stats().misses, misses, "all three stayed resident");
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let p = Arc::new(pool(8));
        let id = p.allocate_page().unwrap();
        p.with_page_mut(id, |buf| buf[0] = 0).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let p = Arc::clone(&p);
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if t % 2 == 0 {
                            p.with_page_mut(id, |buf| {
                                // Increment a little-endian counter in place.
                                let v = u32::from_le_bytes(buf[0..4].try_into().unwrap());
                                buf[0..4].copy_from_slice(&(v + 1).to_le_bytes());
                            })
                            .unwrap();
                        } else {
                            p.with_page(id, |buf| buf[0]).unwrap();
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let v = p
            .with_page(id, |buf| u32::from_le_bytes(buf[0..4].try_into().unwrap()))
            .unwrap();
        assert_eq!(v, 4 * 200, "writes are exclusive, no lost updates");
    }

    #[test]
    fn concurrent_access_across_many_pages_with_small_pool() {
        // Thrash a 2-frame pool from 4 threads over 16 pages; every page
        // must retain exactly its own writes.
        let p = Arc::new(pool(2));
        let ids: Vec<_> = (0..16).map(|_| p.allocate_page().unwrap()).collect();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let p = Arc::clone(&p);
                let ids = ids.clone();
                std::thread::spawn(move || {
                    for round in 0..50u32 {
                        for (i, &id) in ids.iter().enumerate() {
                            if i % 4 == t {
                                p.with_page_mut(id, |buf| {
                                    buf[0..4].copy_from_slice(&round.to_le_bytes());
                                    buf[4] = i as u8;
                                })
                                .unwrap();
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for (i, &id) in ids.iter().enumerate() {
            let (round, tag) = p
                .with_page(id, |buf| {
                    (u32::from_le_bytes(buf[0..4].try_into().unwrap()), buf[4])
                })
                .unwrap();
            assert_eq!(round, 49);
            assert_eq!(tag, i as u8);
        }
    }

    #[test]
    fn failed_read_leaves_pool_unpoisoned() {
        use crate::vfs::{FaultKind, FaultRule, FaultTrigger, FaultVfs, MemVfs, Vfs};
        use std::io::ErrorKind;
        use std::path::Path;

        let fault = FaultVfs::new(Arc::new(MemVfs::new()) as Arc<dyn Vfs>);
        let disk = Arc::new(DiskManager::open_with_vfs(&fault, Path::new("p.db")).unwrap());
        let p = BufferPool::new(disk, 2);
        // Three distinct pages so reloading the first is a guaranteed miss.
        let ids: Vec<_> = (0..3).map(|_| p.allocate_page().unwrap()).collect();
        for (i, &id) in ids.iter().enumerate() {
            p.with_page_mut(id, |buf| buf[0] = i as u8 + 1).unwrap();
        }
        p.flush_all().unwrap();

        // The next read faults; the acquire must fail cleanly...
        let s = fault.op_stats();
        fault.arm(FaultRule {
            trigger: FaultTrigger::OpIndex(s.reads + s.writes + s.syncs + s.truncates),
            kind: FaultKind::Error(ErrorKind::Interrupted),
            once: true,
        });
        let err = p.with_page(ids[0], |buf| buf[0]).unwrap_err();
        assert!(err.is_transient(), "got {err}");

        // ...without publishing a mapping to a frame holding the evicted
        // victim's stale bytes: the retry reloads from disk and sees the
        // page's real contents, and the failed acquire leaked no pin (a
        // 2-frame pool with dangling pins could not cycle 3 pages again).
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.with_page(id, |buf| buf[0]).unwrap(), i as u8 + 1);
        }
    }
}
