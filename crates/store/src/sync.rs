//! The workspace's lock types: [`Mutex`] and [`RwLock`] over `std::sync`,
//! with `lock()`/`read()`/`write()` returning the guard directly.
//! `perftrack` (core) and `perftrack-server` import them from here;
//! nothing else in the workspace names a `std::sync` lock.
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
//!
//! These are types, not call-site idiom, on purpose: `ptlint`'s
//! lock-order pass binds a guard for `let g = x.lock();` and treats a
//! longer chain as a temporary, so `x.lock().unwrap_or_else(..)` at each
//! call site would hide the lock from `tools/lock-order.toml`.

use std::sync::{self, PoisonError, TryLockError};

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// Mutual exclusion lock that recovers from poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// A new, unlocked mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Block until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The guard if the lock is free right now, `None` if it is held.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// Reader-writer lock that recovers from poisoning.
#[derive(Debug)]
pub struct RwLock<T>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new, unlocked lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Block until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Block until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_panic_under_a_lock_does_not_poison_later_callers() {
        let m = Arc::new(Mutex::new(1));
        let rw = Arc::new(RwLock::new(1));
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
        let m = Mutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }
}
