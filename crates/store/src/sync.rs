//! The workspace's lock types: [`Mutex`] and [`RwLock`] over `std::sync`,
//! each constructed with the [`Level`] it holds in the one global lock
//! order, with `lock()`/`read()`/`write()` returning the guard directly.
//! `perftrack` (core) and `perftrack-server` import them from here;
//! clippy's `disallowed-types` (`clippy.toml`) keeps `std::sync::Mutex`
//! and `std::sync::RwLock` out of the engine crates, so no lock skips
//! its level.
//!
//! # Lock order
//!
//! [`Level`]'s variants are every lock in the workspace, in acquisition
//! order: a thread may take a lock only while every lock it holds has a
//! lower level. Two threads that both obey that rule cannot deadlock on
//! these locks. No level is re-entrant: taking a second lock of a level
//! the thread already holds (a second frame, a second read of the same
//! catalog) breaks the rule too.
//!
//! Debug builds check the rule at every acquisition. A thread-local list
//! holds the levels the thread currently holds; `lock`, `try_lock`,
//! `read` and `write` panic, naming both levels, before they would block
//! on a lock whose level is not above every held one. Each guard removes
//! its own entry when it drops, in any order and during unwinding.
//! Release builds keep no level and no list: the locks and guards are
//! the size of their `std` counterparts (a `const` assertion below pins
//! it), so the code the benchmark runs is unchanged.
//!
//! # Poison policy
//!
//! A poisoned lock is **recovered** (`PoisonError::into_inner`), never
//! propagated. `std` poisons a lock when a thread panics while holding
//! it, and every later `lock()` then returns an error; unwrapping that
//! error turns one panicking request into a panic in every later request
//! on the same lock, until the server's worker pool is gone. Recovery is
//! sound here because no invariant of the engine rests on a lock having
//! been released normally: pages and the catalog are made consistent by
//! the WAL (a failed write flips the store to degraded mode and recovery
//! replays a committed prefix on reopen), the structures under the pool
//! and WAL locks are updated by steps that each leave them valid, and
//! the clippy panic-freedom header (`#![deny(..)]` in `buffer.rs` and
//! `wal.rs`) keeps panicking calls out of the code that runs under the
//! pool and WAL locks.

#![expect(
    clippy::disallowed_types,
    reason = "this file wraps the std locks; every other lock in the engine crates is one of its types"
)]

use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};

/// Declares [`Level`] and [`Level::ALL`] from one list, so the two
/// cannot drift apart.
macro_rules! levels {
    ($($(#[doc = $doc:literal])* $name:ident,)*) => {
        /// A lock's place in the global acquisition order, lowest first.
        /// `docs/ANALYSIS.md` lists the same variants in the same order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
        pub enum Level {
            $($(#[doc = $doc])* $name,)*
        }

        impl Level {
            /// Every level, in acquisition order.
            pub const ALL: &'static [Level] = &[$(Level::$name),*];
        }
    };
}

levels! {
    /// The database's read/write gate (`Database::writer`): a txn, DDL
    /// and maintenance hold the write side, a `Database::read` guard and
    /// `verify` the read side.
    Writer,
    /// Core's name → id cache (`PTDataStore::cache`).
    NameCache,
    /// Core's resource-type registry (`PTDataStore::registry`).
    TypeRegistry,
    /// Core's per-table id allocator (`PTDataStore::ids`).
    IdGen,
    /// The table and index catalog (`Database::catalog`).
    Catalog,
    /// The index id → B+tree map (`Database::indexes`).
    Indexes,
    /// One index's B+tree (a value of `Database::indexes`); one at a time.
    IndexTree,
    /// Per-table mutation counters since open (`Database::mutations`).
    Mutations,
    /// Per-table mutation counts at the last ANALYZE (`Database::stats_epoch`).
    StatsEpoch,
    /// The buffer pool latch (`BufferPool::state`): page table, clock hand.
    PoolLatch,
    /// One frame's page bytes (`Frame::data`), held while a `with_page`
    /// closure runs; one at a time.
    PoolFrame,
    /// The page file's allocator (`DiskManager::alloc`).
    DiskAlloc,
    /// The write-ahead log's buffer, file handle and LSNs (`Wal::inner`).
    Wal,
    /// The fault injector's armed rules (`FaultState::rules`).
    FaultRules,
    /// The fault injector's per-file page-cache image (`FaultFile::image`).
    FaultImage,
    /// One file's bytes or handle (`StdFile::file`, `MemFile::data`).
    FileData,
    /// An in-memory file namespace (`MemVfs::files`).
    MemVfsFiles,
    /// A chaos injector's armed rules (`ChaosInjector::rules`); never nests.
    TransportRules,
}

/// The lock-order check: real in debug builds.
#[cfg(debug_assertions)]
mod order {
    use super::Level;
    use std::cell::RefCell;

    thread_local! {
        /// The levels this thread holds, lowest first.
        static HELD: RefCell<Vec<Level>> = const { RefCell::new(Vec::new()) };
    }

    /// A lock's level, kept for the check.
    #[derive(Debug)]
    pub(super) struct Rank(Level);

    impl Rank {
        pub(super) const fn new(level: Level) -> Self {
            Rank(level)
        }

        /// Record that this thread is about to take the lock; panics if
        /// that breaks the order. Called before blocking.
        pub(super) fn enter(&self) -> Held {
            let level = self.0;
            // A thread-local destructor taking a lock after `HELD` is gone
            // goes unchecked.
            let _ = HELD.try_with(|h| {
                let mut held = h.borrow_mut();
                if let Some(&top) = held.last() {
                    assert!(
                        level > top,
                        "lock order violation: taking {level:?} while holding {top:?}"
                    );
                }
                held.push(level);
            });
            Held(level)
        }
    }

    /// This thread's entry for one held lock; dropping it removes it.
    pub(super) struct Held(Level);

    impl Drop for Held {
        fn drop(&mut self) {
            let _ = HELD.try_with(|h| h.borrow_mut().retain(|&l| l != self.0));
        }
    }

    /// The levels this thread holds right now.
    #[cfg(test)]
    pub(super) fn held() -> Vec<Level> {
        HELD.with_borrow(Clone::clone)
    }
}

/// The lock-order check: nothing in release builds.
#[cfg(not(debug_assertions))]
mod order {
    use super::Level;

    #[derive(Debug)]
    pub(super) struct Rank;

    impl Rank {
        pub(super) const fn new(_: Level) -> Self {
            Rank
        }

        #[inline(always)]
        pub(super) fn enter(&self) -> Held {
            Held
        }
    }

    pub(super) struct Held;
}

use order::{Held, Rank};

/// Mutual exclusion lock that recovers from poisoning.
#[derive(Debug)]
pub struct Mutex<T> {
    lock: sync::Mutex<T>,
    rank: Rank,
}

/// Exclusive access to a [`Mutex`]'s value; unlocks on drop.
pub struct MutexGuard<'a, T> {
    guard: sync::MutexGuard<'a, T>,
    _held: Held,
}

impl<T> Mutex<T> {
    /// A new, unlocked mutex at `level` holding `value`.
    pub const fn new(level: Level, value: T) -> Self {
        Mutex {
            lock: sync::Mutex::new(value),
            rank: Rank::new(level),
        }
    }

    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let held = self.rank.enter();
        let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { guard, _held: held }
    }

    /// The guard if the lock is free right now, `None` if it is held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let held = self.rank.enter();
        let guard = match self.lock.try_lock() {
            Ok(g) => g,
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { guard, _held: held })
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Reader-writer lock that recovers from poisoning.
#[derive(Debug)]
pub struct RwLock<T> {
    lock: sync::RwLock<T>,
    rank: Rank,
}

/// Shared access to an [`RwLock`]'s value.
pub struct RwLockReadGuard<'a, T> {
    guard: sync::RwLockReadGuard<'a, T>,
    _held: Held,
}

/// Exclusive access to an [`RwLock`]'s value.
pub struct RwLockWriteGuard<'a, T> {
    guard: sync::RwLockWriteGuard<'a, T>,
    _held: Held,
}

impl<T> RwLock<T> {
    /// A new, unlocked lock at `level` holding `value`.
    pub const fn new(level: Level, value: T) -> Self {
        RwLock {
            lock: sync::RwLock::new(value),
            rank: Rank::new(level),
        }
    }

    /// Block until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let held = self.rank.enter();
        let guard = self.lock.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { guard, _held: held }
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let held = self.rank.enter();
        let guard = self.lock.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard { guard, _held: held }
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

// Release builds carry nothing beyond the std types.
#[cfg(not(debug_assertions))]
const _: () = {
    use sync::{MutexGuard as M, RwLockReadGuard as R, RwLockWriteGuard as W};
    const fn same<A, B>() -> bool {
        std::mem::size_of::<A>() == std::mem::size_of::<B>()
    }
    type P = [u8; 4096];
    assert!(same::<Mutex<P>, sync::Mutex<P>>());
    assert!(same::<RwLock<P>, sync::RwLock<P>>());
    assert!(same::<MutexGuard<'static, P>, M<'static, P>>());
    assert!(same::<RwLockReadGuard<'static, P>, R<'static, P>>());
    assert!(same::<RwLockWriteGuard<'static, P>, W<'static, P>>());
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_under_a_lock_does_not_poison_later_callers() {
        let m = Arc::new(Mutex::new(Level::PoolLatch, 1));
        let rw = Arc::new(RwLock::new(Level::Wal, 1));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let r = std::thread::spawn(move || {
            let _g = m2.lock();
            let _w = rw2.write();
            panic!("poison both");
        })
        .join();
        assert!(r.is_err());
        *m.lock() += 1;
        assert_eq!(*m.try_lock().expect("free"), 2);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 2);
    }

    #[test]
    fn try_lock_reports_a_held_lock() {
        let m = Mutex::new(Level::PoolLatch, ());
        let g = m.lock();
        // Another thread: on this one a second take of the level is an
        // order violation.
        std::thread::scope(|s| {
            assert!(s.spawn(|| m.try_lock().is_none()).join().unwrap());
        });
        drop(g);
        assert!(m.try_lock().is_some());
    }

    /// Run `f`, which must panic on taking `taking` while holding
    /// `holding` and release every guard as it unwinds.
    #[cfg(debug_assertions)]
    fn assert_violation(taking: Level, holding: Level, f: impl FnOnce()) {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        let want = format!("lock order violation: taking {taking:?} while holding {holding:?}");
        assert_eq!(msg, want);
        assert!(order::held().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_reversed_pair_panics_and_names_both_levels() {
        let latch = Mutex::new(Level::PoolLatch, ());
        let wal = RwLock::new(Level::Wal, ());
        let catalog = Mutex::new(Level::Catalog, ());
        // The declared order is fine...
        drop((catalog.lock(), latch.lock(), wal.read()));
        // ...its reverse is not, for either kind of lock.
        assert_violation(Level::PoolLatch, Level::Wal, || {
            let _w = wal.write();
            let _l = latch.lock();
        });
        assert_violation(Level::Catalog, Level::PoolLatch, || {
            let _l = latch.lock();
            let _c = catalog.lock();
        });
        // Taking a level twice is a violation too.
        assert_violation(Level::Wal, Level::Wal, || {
            let _a = wal.read();
            let _b = wal.read();
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    fn an_out_of_order_try_lock_panics_the_same_way() {
        // A `with_page` closure pinning another page: frame, then latch.
        let frame = Mutex::new(Level::PoolFrame, ());
        let latch = Mutex::new(Level::PoolLatch, ());
        assert_violation(Level::PoolLatch, Level::PoolFrame, || {
            let _f = frame.lock();
            let _l = latch.try_lock();
        });
        // The failed attempt left the latch free.
        assert!(latch.try_lock().is_some());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn out_of_order_drops_and_unwinding_leave_nothing_held() {
        let a = Mutex::new(Level::Writer, ());
        let b = RwLock::new(Level::Catalog, ());
        let c = Mutex::new(Level::PoolLatch, ());
        let (ga, gb, gc) = (a.lock(), b.read(), c.lock());
        assert_eq!(
            order::held(),
            [Level::Writer, Level::Catalog, Level::PoolLatch]
        );
        drop(gb);
        assert_eq!(order::held(), [Level::Writer, Level::PoolLatch]);
        drop(ga);
        assert_eq!(order::held(), [Level::PoolLatch]);
        drop(gc);
        assert!(order::held().is_empty());

        let r = std::panic::catch_unwind(|| {
            let _ga = a.lock();
            let _gb = b.write();
            panic!("unwind with two guards");
        });
        assert!(r.is_err());
        assert!(order::held().is_empty());
        // Both locks are free again for the declared order.
        drop((a.lock(), b.write(), c.lock()));
    }

    #[test]
    fn the_analysis_doc_lists_every_level_in_order() {
        const DOC: &str = include_str!("../../../docs/ANALYSIS.md");
        // The first column of the lock-order table: "| `Level` | ...".
        let section = DOC
            .split("## Lock order")
            .nth(1)
            .expect("docs/ANALYSIS.md has a `## Lock order` section");
        let listed: Vec<&str> = section
            .lines()
            .take_while(|l| !l.starts_with("## "))
            .filter_map(|l| l.strip_prefix("| `"))
            .filter_map(|l| l.split('`').next())
            .collect();
        let levels: Vec<String> = Level::ALL.iter().map(|l| format!("{l:?}")).collect();
        assert_eq!(listed, levels);
    }
}
