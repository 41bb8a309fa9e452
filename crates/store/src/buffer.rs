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
//! # Sharding
//!
//! The page table and eviction state are partitioned into N independent
//! shards, each guarding its own slice of the frame array with its own
//! mutex and clock hand. A page's shard is a pure function of its id
//! (`page_id % N`), so all mapping changes for a given page serialize on
//! one shard while accesses to other pages proceed through other shards —
//! concurrent readers no longer funnel through a single pool-wide mutex.
//! Sequential page ids stripe round-robin across shards, which keeps
//! table scans balanced. Each shard additionally counts how often its
//! mutex was contended (a `try_lock` failed and the caller had to block),
//! surfaced as `pool.shard.*` metrics in `pt stats`.
//!
//! Consistency protocol (all mapping changes for a page happen under its
//! shard's mutex):
//! * On miss, a victim frame with pin-count 0 is chosen by the shard's
//!   clock hand from the shard's own frames.
//! * The victim's dirty page is written back *while still holding the
//!   shard mutex*; the victim necessarily belongs to the same shard, so no
//!   other thread can re-fetch the old page from disk and observe stale
//!   bytes.
//! * The new mapping is published and the frame's data lock is acquired
//!   before the shard mutex is released; late-arriving readers of the new
//!   page block on the data lock until the load completes.
//! * When every frame of a shard is momentarily pinned, the sweep yields
//!   and retries a bounded number of times before reporting
//!   [`StoreError::PoolExhausted`] — scoped pins are short, so transient
//!   all-pinned states resolve in a few scheduler quanta.

use crate::disk::DiskManager;
use crate::error::{Result, StoreError};
use crate::page::{PageId, PAGE_SIZE};
use crate::sync::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Default upper bound on the number of shards; tiny pools get one shard
/// per frame instead.
pub const DEFAULT_POOL_SHARDS: usize = 8;

/// How many times a miss re-sweeps a fully pinned shard (yielding between
/// attempts) before giving up with [`StoreError::PoolExhausted`].
const SWEEP_RETRIES: usize = 256;

/// Cache-hit statistics for one shard, readable at any time.
#[derive(Debug, Default)]
struct ShardStats {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    contended: AtomicU64,
}

/// A point-in-time copy of the whole pool's counters (sum over shards).
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
    /// Shard-mutex acquisitions that had to block behind another thread.
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

/// A point-in-time copy of one shard's counters (`pool.shard.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolShardSnapshot {
    /// Shard index (pages map to `page_id % shard_count`).
    pub shard: usize,
    /// Frames owned by this shard.
    pub frames: usize,
    /// Page requests served from a cached frame.
    pub hits: u64,
    /// Page requests that had to read from disk.
    pub misses: u64,
    /// Frames whose previous page was displaced to load another.
    pub evictions: u64,
    /// Dirty pages written back to disk (eviction or flush).
    pub writebacks: u64,
    /// Mutex acquisitions that had to block behind another thread.
    pub contended: u64,
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

struct ShardState {
    /// page → index into the shard's `frames` slice (shard-local).
    page_table: HashMap<PageId, usize>,
    info: Vec<FrameInfo>,
    hand: usize,
}

struct Shard {
    /// First frame (global index) owned by this shard.
    base: usize,
    state: Mutex<ShardState>,
    stats: ShardStats,
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
    shards: Vec<Shard>,
    writeback_hook: Mutex<Option<WritebackHook>>,
}

impl BufferPool {
    /// Create a pool of `capacity` frames over `disk`, with the default
    /// shard count (`min(capacity, DEFAULT_POOL_SHARDS)`).
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> Self {
        Self::with_shards(disk, capacity, 0)
    }

    /// Create a pool of `capacity` frames split into `shards` independent
    /// shards (0 = auto). The shard count is clamped so every shard owns
    /// at least one frame.
    pub fn with_shards(disk: Arc<DiskManager>, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        let n = if shards == 0 {
            DEFAULT_POOL_SHARDS
        } else {
            shards
        }
        .min(capacity)
        .max(1);
        let frames = (0..capacity)
            .map(|_| Frame {
                data: RwLock::new(Box::new([0u8; PAGE_SIZE])),
                pin: AtomicU32::new(0),
                referenced: AtomicU32::new(0),
            })
            .collect();
        // Frames are split contiguously: shard i owns `capacity / n`
        // frames plus one of the remainder.
        let mut shard_vec = Vec::with_capacity(n);
        let mut base = 0usize;
        for i in 0..n {
            let len = capacity / n + usize::from(i < capacity % n);
            shard_vec.push(Shard {
                base,
                state: Mutex::new(ShardState {
                    page_table: HashMap::with_capacity(len),
                    info: (0..len)
                        .map(|_| FrameInfo {
                            page: None,
                            dirty: false,
                        })
                        .collect(),
                    hand: 0,
                }),
                stats: ShardStats::default(),
            });
            base += len;
        }
        debug_assert_eq!(base, capacity);
        BufferPool {
            disk,
            frames,
            shards: shard_vec,
            writeback_hook: Mutex::new(None),
        }
    }

    /// Install a hook run before any dirty page is written back (eviction
    /// or flush). The [`crate::db::Database`] uses this to force the WAL,
    /// preserving the write-ahead invariant.
    pub fn set_writeback_hook(&self, hook: WritebackHook) {
        *self.writeback_hook.lock() = Some(hook);
    }

    fn run_writeback_hook(&self) -> Result<()> {
        if let Some(h) = self.writeback_hook.lock().as_ref() {
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

    /// The shard a page maps to.
    #[inline]
    fn shard_of(&self, id: PageId) -> &Shard {
        // ptlint: allow(panic) -- modulo keeps the index in range; with_shards guarantees >= 1 shard
        &self.shards[id.0 as usize % self.shards.len()]
    }

    /// The frame at global index `idx`. Single chokepoint for frame
    /// addressing: every caller computes `shard.base + local` with
    /// `local` below the shard's capacity, which `with_shards` sized the
    /// frame vector to cover exactly.
    #[inline]
    fn frame(&self, idx: usize) -> &Frame {
        // ptlint: allow(panic) -- shard.base + local < frames.len() by pool construction
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

    /// Lock a shard's state, counting contention when the lock was not
    /// immediately available.
    fn lock_shard<'a>(&self, shard: &'a Shard) -> MutexGuard<'a, ShardState> {
        match shard.state.try_lock() {
            Some(g) => g,
            None => {
                shard.stats.contended.fetch_add(1, Ordering::Relaxed);
                shard.state.lock()
            }
        }
    }

    /// Pin page `id` into a frame. Returns the global frame index plus, on
    /// a miss, the still-held write guard containing freshly loaded bytes.
    fn acquire(&self, id: PageId, write_intent: bool) -> Result<(usize, Option<FrameGuard<'_>>)> {
        let shard = self.shard_of(id);
        let mut missed = false;
        let mut attempts = 0usize;
        loop {
            let mut state = self.lock_shard(shard);
            if let Some(&local) = state.page_table.get(&id) {
                let idx = shard.base + local;
                shard.stats.hits.fetch_add(1, Ordering::Relaxed);
                let frame = self.frame(idx);
                frame.pin.fetch_add(1, Ordering::Acquire);
                frame.referenced.store(1, Ordering::Relaxed);
                if write_intent {
                    if let Some(info) = state.info.get_mut(local) {
                        info.dirty = true;
                    }
                }
                return Ok((idx, None));
            }
            if !missed {
                // Count the miss once even if the sweep below has to retry.
                shard.stats.misses.fetch_add(1, Ordering::Relaxed);
                missed = true;
            }
            // Clock sweep over the shard's frames for an unpinned,
            // unreferenced victim.
            let cap = state.info.len();
            let mut victim = None;
            for _ in 0..2 * cap {
                let local = state.hand;
                state.hand = (state.hand + 1) % cap;
                let frame = self.frame(shard.base + local);
                if frame.pin.load(Ordering::Acquire) != 0 {
                    continue;
                }
                if frame.referenced.swap(0, Ordering::Relaxed) == 1 {
                    continue; // second chance
                }
                victim = Some(local);
                break;
            }
            let Some(local) = victim else {
                // Every frame of this shard is pinned or referenced right
                // now. Pins are closure-scoped (released without taking
                // the shard mutex), so drop the lock, yield, and retry;
                // only a persistent all-pinned state is an error.
                drop(state);
                attempts += 1;
                if attempts > SWEEP_RETRIES {
                    return Err(StoreError::PoolExhausted);
                }
                std::thread::yield_now();
                continue;
            };
            let idx = shard.base + local;
            // Write back the victim's dirty page before the mapping
            // changes. The victim belongs to this shard, so re-fetches of
            // it block on the shard mutex we hold.
            let victim_info = state.info.get(local).map(|i| (i.page, i.dirty));
            if let Some((Some(old), dirty)) = victim_info {
                if dirty {
                    self.run_writeback_hook()?;
                    let guard = self.frame(idx).data.read();
                    self.disk.write_page(old, &guard)?;
                    shard.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                }
                state.page_table.remove(&old);
                shard.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
            // Load before publishing the mapping. If the read fails (e.g.
            // a transient I/O error), the pool must look exactly as if
            // this acquire never happened: the frame stays unmapped and a
            // later retry reloads from disk. Publishing first would hand
            // concurrent readers a frame still holding the evicted
            // victim's stale bytes. The data lock cannot block here — the
            // frame is unpinned and unmapped, and every other pin/flush
            // path takes frame locks only under the shard mutex we
            // already hold.
            let mut guard = self.frame(idx).data.write();
            if let Err(e) = self.disk.read_page(id, &mut guard) {
                if let Some(info) = state.info.get_mut(local) {
                    info.page = None;
                    info.dirty = false;
                }
                return Err(e);
            }
            state.page_table.insert(id, local);
            if let Some(info) = state.info.get_mut(local) {
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

    /// Write all dirty frames back to disk and sync. Shards are flushed
    /// one at a time; at most one shard mutex is held at any moment.
    pub fn flush_all(&self) -> Result<()> {
        self.run_writeback_hook()?;
        for shard in &self.shards {
            let mut state = self.lock_shard(shard);
            for local in 0..state.info.len() {
                let dirty_page = state
                    .info
                    .get(local)
                    .and_then(|i| i.dirty.then_some(i.page).flatten());
                if let Some(page) = dirty_page {
                    let guard = self.frame(shard.base + local).data.read();
                    self.disk.write_page(page, &guard)?;
                    drop(guard);
                    if let Some(info) = state.info.get_mut(local) {
                        info.dirty = false;
                    }
                    shard.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.disk.sync()
    }

    /// Snapshot of hit/miss/eviction counters, summed across shards.
    pub fn stats(&self) -> PoolStatsSnapshot {
        let mut s = PoolStatsSnapshot {
            hits: 0,
            misses: 0,
            evictions: 0,
            writebacks: 0,
            contended: 0,
        };
        for shard in &self.shards {
            s.hits += shard.stats.hits.load(Ordering::Relaxed);
            s.misses += shard.stats.misses.load(Ordering::Relaxed);
            s.evictions += shard.stats.evictions.load(Ordering::Relaxed);
            s.writebacks += shard.stats.writebacks.load(Ordering::Relaxed);
            s.contended += shard.stats.contended.load(Ordering::Relaxed);
        }
        s
    }

    /// Per-shard counters (`pool.shard.*`), in shard order.
    pub fn shard_stats(&self) -> Vec<PoolShardSnapshot> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| PoolShardSnapshot {
                shard: i,
                frames: shard.state.lock().info.len(),
                hits: shard.stats.hits.load(Ordering::Relaxed),
                misses: shard.stats.misses.load(Ordering::Relaxed),
                evictions: shard.stats.evictions.load(Ordering::Relaxed),
                writebacks: shard.stats.writebacks.load(Ordering::Relaxed),
                contended: shard.stats.contended.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Number of frames.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Number of shards the page table is partitioned into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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
        assert_eq!(p.shard_count(), 1, "one frame cannot be split further");
        let ids: Vec<_> = (0..10).map(|_| p.allocate_page().unwrap()).collect();
        for &id in &ids {
            p.with_page_mut(id, |buf| buf[0] = id.0 as u8).unwrap();
        }
        for &id in &ids {
            assert_eq!(p.with_page(id, |b| b[0]).unwrap(), id.0 as u8);
        }
    }

    #[test]
    fn shard_counts_clamp_to_capacity() {
        assert_eq!(pool(1).shard_count(), 1);
        assert_eq!(pool(3).shard_count(), 3);
        assert_eq!(pool(4096).shard_count(), DEFAULT_POOL_SHARDS);
        let p = BufferPool::with_shards(Arc::new(DiskManager::in_memory()), 64, 16);
        assert_eq!(p.shard_count(), 16);
        // Every frame is owned by exactly one shard.
        let frames: usize = p.shard_stats().iter().map(|s| s.frames).sum();
        assert_eq!(frames, 64);
    }

    #[test]
    fn shard_stats_attribute_traffic_to_the_right_shard() {
        // 4 frames → 4 one-frame shards; page ids stripe round-robin, so
        // page 0 and page 4 both land on shard 0 and fight over its frame.
        let p = pool(4);
        assert_eq!(p.shard_count(), 4);
        let ids: Vec<_> = (0..8).map(|_| p.allocate_page().unwrap()).collect();
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap();
        }
        let shards = p.shard_stats();
        for s in &shards {
            assert_eq!(s.misses, 2, "two pages per shard, both cold: {s:?}");
            assert_eq!(s.evictions, 1, "the second displaced the first: {s:?}");
        }
        // Re-reading the resident page of shard 0 (page 4) is a hit there
        // and touches no other shard.
        p.with_page(ids[4], |_| ()).unwrap();
        let after = p.shard_stats();
        assert_eq!(after[0].hits, shards[0].hits + 1);
        for i in 1..4 {
            assert_eq!(after[i].hits, shards[i].hits);
        }
        // The aggregate view matches the per-shard sum.
        let agg = p.stats();
        assert_eq!(agg.hits, after.iter().map(|s| s.hits).sum::<u64>());
        assert_eq!(agg.misses, after.iter().map(|s| s.misses).sum::<u64>());
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
