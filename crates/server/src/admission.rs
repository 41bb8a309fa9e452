//! Opcode-cost admission control for the server request path.
//!
//! PR 4 gave the server a bounded accept queue with a flat busy-reject.
//! That treats a `Ping` and a deep `Fsck` as the same unit of work, so
//! under load the cheap ops that keep sessions alive are shed at the
//! same rate as table scans. This module replaces the flat reject with
//! a cost-aware controller:
//!
//! * Every [`crate::proto::Request`] carries a static cost
//!   ([`crate::proto::Request::cost`]). The controller tracks the total
//!   cost of in-flight requests against a configurable capacity.
//! * **Expensive** ops (cost ≥ [`crate::proto::EXPENSIVE_COST`]:
//!   export, compare, fsck) are never queued and may only start while
//!   the server retains headroom — they are shed first when load
//!   rises, with a typed `Overloaded { retry_after_ms }` response.
//! * **Cheap** ops may briefly wait in a bounded admission queue for
//!   capacity to free up, so short bursts ride through without any
//!   client-visible error.
//!
//! The controller is deliberately deterministic: retry-after hints are
//! computed from queue occupancy, not wall-clock sampling, so tests can
//! assert exact shedding behaviour.

use perftrack_store::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on the retry-after hint handed to shedding clients.
const RETRY_AFTER_CAP_MS: u32 = 5_000;

/// Tuning knobs for [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Total cost units that may execute concurrently.
    pub capacity: u32,
    /// Maximum number of cheap requests allowed to wait for capacity.
    pub queue_depth: usize,
    /// Longest a cheap request may wait in the admission queue before
    /// being shed. A client-propagated deadline shorter than this caps
    /// the wait further.
    pub max_queue_wait: Duration,
    /// Base unit for the deterministic retry-after hint; the hint grows
    /// linearly with queue occupancy.
    pub retry_base_ms: u32,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            capacity: 64,
            queue_depth: 32,
            max_queue_wait: Duration::from_millis(250),
            retry_base_ms: 100,
        }
    }
}

/// Outcome of [`AdmissionController::admit`].
#[derive(Debug)]
pub enum AdmissionDecision {
    /// The request may execute; drop the permit when it finishes.
    Admitted(AdmissionPermit),
    /// The request was shed; the client should back off for at least
    /// `retry_after_ms` before retrying.
    Shed {
        /// Deterministic backoff hint in milliseconds.
        retry_after_ms: u32,
    },
}

struct State {
    /// Summed cost of currently executing requests.
    in_flight: u32,
    /// Number of cheap requests parked in the admission queue.
    waiting: u32,
}

/// Cost-aware admission gate shared by all connection handlers.
pub struct AdmissionController {
    cfg: AdmissionConfig,
    state: Mutex<State>,
    freed: Condvar,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController")
            .field("cfg", &self.cfg)
            .field("in_flight_cost", &self.in_flight_cost())
            .field("queued", &self.queued())
            .finish()
    }
}

impl AdmissionController {
    /// Create a controller with the given knobs (capacity is clamped to
    /// at least 1 so a zero-capacity config cannot wedge the server).
    pub fn new(mut cfg: AdmissionConfig) -> Arc<Self> {
        cfg.capacity = cfg.capacity.max(1);
        Arc::new(AdmissionController {
            cfg,
            state: Mutex::new(State {
                in_flight: 0,
                waiting: 0,
            }),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        })
    }

    /// Expensive ops may only start while total in-flight cost stays
    /// under this limit, reserving headroom for cheap ops. An idle
    /// server admits anything, so a single op costlier than the limit
    /// can still run.
    fn expensive_limit(&self) -> u32 {
        self.cfg.capacity - self.cfg.capacity / 4
    }

    fn retry_after(&self, st: &State) -> u32 {
        self.cfg
            .retry_base_ms
            .saturating_mul(1 + st.waiting)
            .min(RETRY_AFTER_CAP_MS)
    }

    /// Ask to run a request of the given cost. `expensive` requests are
    /// shed immediately when headroom is exhausted; cheap requests may
    /// wait up to `max_wait` (the caller passes the smaller of the
    /// configured queue wait and any client deadline budget).
    pub fn admit(
        self: &Arc<Self>,
        cost: u32,
        expensive: bool,
        max_wait: Duration,
    ) -> AdmissionDecision {
        let mut st = self.state.lock();
        if self.fits(&st, cost, expensive) {
            st.in_flight += cost;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return AdmissionDecision::Admitted(self.permit(cost));
        }
        if expensive || st.waiting as usize >= self.cfg.queue_depth {
            let retry_after_ms = self.retry_after(&st);
            self.shed.fetch_add(1, Ordering::Relaxed);
            return AdmissionDecision::Shed { retry_after_ms };
        }
        st.waiting += 1;
        let deadline = Instant::now() + max_wait;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                st.waiting -= 1;
                let retry_after_ms = self.retry_after(&st);
                self.shed.fetch_add(1, Ordering::Relaxed);
                return AdmissionDecision::Shed { retry_after_ms };
            }
            st = self.freed.wait_timeout(st, remaining);
            if self.fits(&st, cost, false) {
                st.waiting -= 1;
                st.in_flight += cost;
                self.admitted.fetch_add(1, Ordering::Relaxed);
                return AdmissionDecision::Admitted(self.permit(cost));
            }
        }
    }

    fn fits(&self, st: &State, cost: u32, expensive: bool) -> bool {
        // Liveness: an idle server admits anything, whatever the cost —
        // otherwise a single op costlier than the configured capacity
        // could never run at all.
        if st.in_flight == 0 {
            return true;
        }
        if expensive {
            st.in_flight.saturating_add(cost) <= self.expensive_limit()
        } else {
            st.in_flight.saturating_add(cost) <= self.cfg.capacity
        }
    }

    fn permit(self: &Arc<Self>, cost: u32) -> AdmissionPermit {
        AdmissionPermit {
            controller: Arc::clone(self),
            cost,
        }
    }

    fn release(&self, cost: u32) {
        let mut st = self.state.lock();
        st.in_flight = st.in_flight.saturating_sub(cost);
        drop(st);
        self.freed.notify_all();
    }

    /// Requests admitted since startup.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests shed since startup (headroom exhausted, queue full, or
    /// queue wait expired).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Cheap requests currently parked in the admission queue.
    pub fn queued(&self) -> u64 {
        self.state.lock().waiting as u64
    }

    /// Summed cost of requests currently executing.
    pub fn in_flight_cost(&self) -> u64 {
        self.state.lock().in_flight as u64
    }
}

/// RAII guard for admitted requests; dropping it returns the request's
/// cost to the pool and wakes queued waiters.
#[derive(Debug)]
pub struct AdmissionPermit {
    controller: Arc<AdmissionController>,
    cost: u32,
}

impl Drop for AdmissionPermit {
    fn drop(&mut self) {
        self.controller.release(self.cost);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(capacity: u32, queue_depth: usize, wait_ms: u64) -> AdmissionConfig {
        AdmissionConfig {
            capacity,
            queue_depth,
            max_queue_wait: Duration::from_millis(wait_ms),
            retry_base_ms: 100,
        }
    }

    #[test]
    fn idle_server_admits_anything() {
        let ctl = AdmissionController::new(cfg(8, 4, 10));
        // Cost far above capacity still runs when nothing else is in
        // flight — liveness for one-shot expensive ops.
        match ctl.admit(64, true, Duration::ZERO) {
            AdmissionDecision::Admitted(p) => drop(p),
            other => panic!("expected admit, got {other:?}"),
        }
        assert_eq!(ctl.in_flight_cost(), 0);
        assert_eq!(ctl.admitted(), 1);
    }

    #[test]
    fn idle_server_admits_cheap_ops_costlier_than_capacity() {
        // A tiny --capacity must not starve loads: cost 16 > capacity 8
        // still runs when nothing else is in flight.
        let ctl = AdmissionController::new(cfg(8, 4, 10));
        match ctl.admit(16, false, Duration::ZERO) {
            AdmissionDecision::Admitted(p) => drop(p),
            other => panic!("expected admit, got {other:?}"),
        }
        assert_eq!(ctl.admitted(), 1);
        assert_eq!(ctl.shed(), 0);
    }

    #[test]
    fn expensive_sheds_before_cheap() {
        let ctl = AdmissionController::new(cfg(64, 4, 10));
        // Fill most of the capacity with cheap work.
        let _held: Vec<_> = (0..10)
            .map(|_| match ctl.admit(4, false, Duration::ZERO) {
                AdmissionDecision::Admitted(p) => p,
                other => panic!("cheap shed unexpectedly: {other:?}"),
            })
            .collect();
        assert_eq!(ctl.in_flight_cost(), 40);
        // 40 + 32 > 48 (expensive limit): expensive is shed...
        match ctl.admit(32, true, Duration::ZERO) {
            AdmissionDecision::Shed { retry_after_ms } => assert!(retry_after_ms > 0),
            other => panic!("expected shed, got {other:?}"),
        }
        // ...while cheap ops keep landing in the reserved headroom.
        match ctl.admit(4, false, Duration::ZERO) {
            AdmissionDecision::Admitted(p) => drop(p),
            other => panic!("expected admit, got {other:?}"),
        }
        assert_eq!(ctl.shed(), 1);
    }

    #[test]
    fn full_queue_sheds_with_growing_retry_hint() {
        let ctl = AdmissionController::new(cfg(4, 0, 0));
        let _hold = match ctl.admit(4, false, Duration::ZERO) {
            AdmissionDecision::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        // queue_depth 0: the next cheap request sheds immediately.
        match ctl.admit(4, false, Duration::from_millis(50)) {
            AdmissionDecision::Shed { retry_after_ms } => assert_eq!(retry_after_ms, 100),
            other => panic!("expected shed, got {other:?}"),
        }
    }

    #[test]
    fn queued_request_admitted_when_capacity_frees() {
        let ctl = AdmissionController::new(cfg(4, 4, 2_000));
        let hold = match ctl.admit(4, false, Duration::ZERO) {
            AdmissionDecision::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || {
            matches!(
                ctl2.admit(4, false, Duration::from_secs(2)),
                AdmissionDecision::Admitted(_)
            )
        });
        // Give the waiter time to park, then free capacity.
        while ctl.queued() == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(hold);
        assert!(waiter.join().unwrap());
        assert_eq!(ctl.admitted(), 2);
        assert_eq!(ctl.shed(), 0);
    }

    #[test]
    fn queue_wait_expiry_sheds() {
        let ctl = AdmissionController::new(cfg(4, 4, 10));
        let _hold = match ctl.admit(4, false, Duration::ZERO) {
            AdmissionDecision::Admitted(p) => p,
            other => panic!("{other:?}"),
        };
        match ctl.admit(4, false, Duration::from_millis(20)) {
            AdmissionDecision::Shed { retry_after_ms } => assert!(retry_after_ms >= 100),
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(ctl.queued(), 0);
        assert_eq!(ctl.shed(), 1);
    }

    #[test]
    fn a_worker_panicking_under_the_state_lock_does_not_stop_admission() {
        let ctl = AdmissionController::new(cfg(8, 4, 10));
        let ctl2 = Arc::clone(&ctl);
        let panicked = std::thread::spawn(move || {
            let _st = ctl2.state.lock();
            panic!("worker dies holding the admission state");
        })
        .join();
        assert!(panicked.is_err());
        // With a propagated poison every call below would panic in turn.
        let hold = match ctl.admit(8, false, Duration::ZERO) {
            AdmissionDecision::Admitted(p) => p,
            other => panic!("expected admit, got {other:?}"),
        };
        // The queued path goes through the condvar wait as well.
        match ctl.admit(4, false, Duration::from_millis(5)) {
            AdmissionDecision::Shed { .. } => {}
            other => panic!("expected shed, got {other:?}"),
        }
        drop(hold);
        assert_eq!((ctl.in_flight_cost(), ctl.queued()), (0, 0));
    }
}
