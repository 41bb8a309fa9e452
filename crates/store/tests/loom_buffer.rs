//! Model checking for the buffer pool's pin/evict protocol and the
//! metrics counters.
//!
//! The container this repo builds in has no network access, so the
//! `loom` crate cannot be pulled in; this file instead carries a small
//! self-contained model checker in the same spirit: threads are modeled
//! as programs of atomic steps, and a DFS explores **every**
//! interleaving, asserting safety invariants in every reachable state
//! and flagging deadlocks (states where nobody can move).
//!
//! The modeled protocol is `buffer::BufferPool`'s, step for step; the
//! pool has one latch over its page table and clock hand, exactly as
//! modeled here:
//!
//! 1. acquire the pool latch;
//! 2. choose a frame — a free one, or evict an **unpinned** victim;
//! 3. if the victim is dirty, sync the WAL **before** writing it back
//!    (write-ahead rule);
//! 4. publish the new page→frame mapping, pin it, release the latch;
//! 5. use the page latch-free (the mapping must stay stable while
//!    pinned);
//! 6. unpin.
//!
//! Checked invariants: no two frames hold the same page; a pinned
//! frame's mapping never changes under a concurrent thread; dirty pages
//! are written back only after their WAL records are synced; the
//! protocol never deadlocks. Two deliberately broken protocol variants
//! (eviction ignoring pins, write-back skipping the WAL sync) prove the
//! harness actually detects violations.
//!
//! CI runs this once normally and once with `RUSTFLAGS="--cfg loom"`,
//! which switches to a larger configuration (more threads than frames,
//! forcing eviction under contention).

#![allow(
    unknown_lints,
    reason = "toolchains that predate check-cfg do not know `unexpected_cfgs`"
)]
#![allow(
    unexpected_cfgs,
    reason = "`--cfg loom` selects the larger model-checking configuration"
)]

use std::collections::HashSet;

// --------------------------------------------------------------------------
// Model state
// --------------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Frame {
    page: Option<u32>,
    pins: u8,
    dirty: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Pc {
    /// Wants the latch.
    Start,
    /// Holds the latch; must choose a frame.
    Choose,
    /// Holds the latch; victim chosen, WAL not yet synced.
    SyncWal,
    /// Holds the latch; victim clean or synced, must write back.
    Writeback,
    /// Holds the latch; frame empty, must publish the mapping.
    Publish,
    /// Latch released; page pinned, thread is reading through the frame.
    Using,
    /// Must unpin.
    Unpin,
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct Thread {
    pc: Pc,
    /// The page this thread wants to pin.
    want: u32,
    /// The frame chosen in `Choose` (valid from then on).
    frame: usize,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct State {
    /// Which thread holds the pool latch.
    latch: Option<usize>,
    frames: Vec<Frame>,
    /// Pages whose WAL records have been synced (write-ahead rule).
    wal_synced: Vec<bool>,
    threads: Vec<Thread>,
}

/// Protocol variants: the correct one, and two deliberately broken ones
/// used to prove the checker detects violations.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Protocol {
    Correct,
    /// Eviction ignores pin counts.
    EvictPinned,
    /// Write-back skips the WAL sync.
    SkipWalSync,
}

fn initial(n_threads: usize, n_frames: usize, pages: &[u32]) -> State {
    // Every frame starts dirty with an unsynced page on it, so any
    // eviction must take the SyncWal → Writeback path.
    let frames: Vec<Frame> = (0..n_frames)
        .map(|i| Frame {
            page: Some(i as u32 + 100),
            pins: 0,
            dirty: true,
        })
        .collect();
    State {
        latch: None,
        frames,
        wal_synced: vec![false; 200],
        threads: (0..n_threads)
            .map(|i| Thread {
                pc: Pc::Start,
                want: pages[i % pages.len()],
                frame: 0,
            })
            .collect(),
    }
}

// --------------------------------------------------------------------------
// Transition function
// --------------------------------------------------------------------------

/// All successor states for thread `t` taking one atomic step, or an
/// invariant violation. A thread with no successors is blocked.
fn step(s: &State, t: usize, proto: Protocol) -> Result<Vec<State>, String> {
    let th = s.threads[t].clone();
    let mut out = Vec::new();
    match th.pc {
        Pc::Start => {
            if s.latch.is_none() {
                let mut n = s.clone();
                n.latch = Some(t);
                n.threads[t].pc = Pc::Choose;
                out.push(n);
            }
        }
        Pc::Choose => {
            // Already resident? Pin it directly.
            if let Some(f) = s.frames.iter().position(|fr| fr.page == Some(th.want)) {
                let mut n = s.clone();
                n.frames[f].pins += 1;
                n.latch = None;
                n.threads[t].frame = f;
                n.threads[t].pc = Pc::Using;
                out.push(n);
            } else {
                // Choose every eligible victim (exhaustive over policy).
                for (f, fr) in s.frames.iter().enumerate() {
                    let evictable =
                        fr.page.is_none() || fr.pins == 0 || proto == Protocol::EvictPinned;
                    if !evictable {
                        continue;
                    }
                    let mut n = s.clone();
                    n.threads[t].frame = f;
                    n.threads[t].pc = match (fr.page, fr.dirty, proto) {
                        (None, _, _) => Pc::Publish,
                        (Some(_), true, Protocol::SkipWalSync) => Pc::Writeback,
                        (Some(_), true, _) => Pc::SyncWal,
                        (Some(_), false, _) => Pc::Writeback,
                    };
                    out.push(n);
                }
            }
        }
        Pc::SyncWal => {
            let page = s.frames[th.frame].page.expect("victim has a page");
            let mut n = s.clone();
            n.wal_synced[page as usize] = true;
            n.threads[t].pc = Pc::Writeback;
            out.push(n);
        }
        Pc::Writeback => {
            let fr = &s.frames[th.frame];
            if let Some(page) = fr.page {
                // THE write-ahead invariant: a dirty page may reach disk
                // only after its log records.
                if fr.dirty && !s.wal_synced[page as usize] {
                    return Err(format!(
                        "write-ahead violated: page {page} written back dirty \
                         before its WAL records were synced"
                    ));
                }
            }
            let mut n = s.clone();
            n.frames[th.frame].page = None;
            n.frames[th.frame].dirty = false;
            n.threads[t].pc = Pc::Publish;
            out.push(n);
        }
        Pc::Publish => {
            let mut n = s.clone();
            n.frames[th.frame] = Frame {
                page: Some(th.want),
                pins: 1,
                dirty: false,
            };
            n.latch = None;
            n.threads[t].pc = Pc::Using;
            out.push(n);
        }
        Pc::Using => {
            // Latch-free read through the pin: the mapping must have
            // stayed exactly what this thread published/pinned.
            let fr = &s.frames[th.frame];
            if fr.page != Some(th.want) || fr.pins == 0 {
                return Err(format!(
                    "pinned mapping unstable: thread {t} pinned page {} in frame {} \
                     but found {:?} (pins={})",
                    th.want, th.frame, fr.page, fr.pins
                ));
            }
            let mut n = s.clone();
            n.threads[t].pc = Pc::Unpin;
            out.push(n);
        }
        Pc::Unpin => {
            let mut n = s.clone();
            // Saturating: in the deliberately broken variants a stolen
            // frame's pin count can already be zero, and the interesting
            // diagnostic is the mapping-instability error, not an
            // arithmetic panic inside the harness.
            n.frames[th.frame].pins = n.frames[th.frame].pins.saturating_sub(1);
            n.threads[t].pc = Pc::Done;
            out.push(n);
        }
        Pc::Done => {}
    }
    Ok(out)
}

/// State-wide invariants, checked in every reachable state.
fn check_state(s: &State) -> Result<(), String> {
    let mut seen = HashSet::new();
    for fr in &s.frames {
        if let Some(p) = fr.page {
            if !seen.insert(p) {
                return Err(format!("page {p} resident in two frames"));
            }
        }
    }
    if let Some(holder) = s.latch {
        if s.threads[holder].pc == Pc::Done {
            return Err(format!("thread {holder} finished while holding the latch"));
        }
    }
    Ok(())
}

/// Exhaustive DFS over all interleavings. Returns the number of distinct
/// states explored, or the first invariant violation / deadlock.
fn explore(init: State, proto: Protocol) -> Result<usize, String> {
    let mut seen: HashSet<State> = HashSet::new();
    let mut stack = vec![init];
    while let Some(s) = stack.pop() {
        if !seen.insert(s.clone()) {
            continue;
        }
        check_state(&s)?;
        let mut any_enabled = false;
        let mut all_done = true;
        for t in 0..s.threads.len() {
            if s.threads[t].pc != Pc::Done {
                all_done = false;
            }
            let succ = step(&s, t, proto)?;
            if !succ.is_empty() {
                any_enabled = true;
                stack.extend(succ);
            }
        }
        if !any_enabled && !all_done {
            return Err(format!("deadlock: no thread can move in {s:?}"));
        }
    }
    Ok(seen.len())
}

// Base configuration: 2 threads contending over 2 frames. Under
// `--cfg loom` CI widens to 3 threads on 2 frames (guaranteed eviction
// pressure) — a noticeably larger but still exhaustive state space.
#[cfg(not(loom))]
const N_THREADS: usize = 2;
#[cfg(loom)]
const N_THREADS: usize = 3;
const N_FRAMES: usize = 2;

#[test]
fn pin_evict_protocol_holds_under_all_interleavings() {
    // Distinct pages: maximal eviction churn.
    let pages: Vec<u32> = (0..N_THREADS as u32).collect();
    let states = explore(initial(N_THREADS, N_FRAMES, &pages), Protocol::Correct).unwrap();
    assert!(states > 20, "suspiciously small state space: {states}");

    // Shared page: pin-count interplay (two threads pin the same frame).
    let states = explore(initial(N_THREADS, N_FRAMES, &[7]), Protocol::Correct).unwrap();
    assert!(states > 10, "suspiciously small state space: {states}");
}

#[test]
fn harness_detects_eviction_of_pinned_frames() {
    // With >1 distinct page and eviction ignoring pins, some interleaving
    // steals a pinned thread's frame; the checker must find it.
    let pages: Vec<u32> = (0..N_THREADS.max(2) as u32).collect();
    let err = explore(initial(N_THREADS.max(2), 1, &pages), Protocol::EvictPinned)
        .expect_err("broken protocol must be caught");
    assert!(err.contains("pinned mapping unstable"), "{err}");
}

#[test]
fn harness_detects_writeback_before_wal_sync() {
    let pages: Vec<u32> = (0..N_THREADS as u32).collect();
    let err = explore(initial(N_THREADS, N_FRAMES, &pages), Protocol::SkipWalSync)
        .expect_err("broken protocol must be caught");
    assert!(err.contains("write-ahead violated"), "{err}");
}

// --------------------------------------------------------------------------
// Metrics counters: atomic RMW vs torn load/store
// --------------------------------------------------------------------------

/// Model a counter incremented by N threads. `atomic` models
/// `fetch_add` (one step); `!atomic` models `load; store` (two steps,
/// the racy version). Returns every reachable final value.
fn counter_finals(n_threads: usize, atomic: bool) -> HashSet<u32> {
    // pc: 0 = start, 1 = loaded (staged value), 2 = done.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct CState {
        counter: u32,
        pcs: Vec<(u8, u32)>,
    }
    let mut finals = HashSet::new();
    let mut seen = HashSet::new();
    let mut stack = vec![CState {
        counter: 0,
        pcs: vec![(0, 0); n_threads],
    }];
    while let Some(s) = stack.pop() {
        if !seen.insert(s.clone()) {
            continue;
        }
        if s.pcs.iter().all(|&(pc, _)| pc == 2) {
            finals.insert(s.counter);
            continue;
        }
        for t in 0..n_threads {
            let (pc, staged) = s.pcs[t];
            match (pc, atomic) {
                (0, true) => {
                    let mut n = s.clone();
                    n.counter += 1;
                    n.pcs[t] = (2, 0);
                    stack.push(n);
                }
                (0, false) => {
                    let mut n = s.clone();
                    n.pcs[t] = (1, s.counter);
                    stack.push(n);
                }
                (1, _) => {
                    let mut n = s.clone();
                    n.counter = staged + 1;
                    n.pcs[t] = (2, 0);
                    stack.push(n);
                }
                _ => {}
            }
        }
    }
    finals
}

#[test]
fn metrics_counter_model_atomic_rmw_never_loses_updates() {
    let finals = counter_finals(3, true);
    assert_eq!(finals.into_iter().collect::<Vec<_>>(), vec![3]);
}

#[test]
fn metrics_counter_model_torn_increment_loses_updates() {
    // The torn (load; store) version reaches final values below the
    // increment count — exactly the bug `AtomicU64::fetch_add` in
    // `metrics.rs` exists to prevent. The checker sees every outcome.
    let finals = counter_finals(3, false);
    assert!(finals.contains(&3), "sequential schedule must exist");
    assert!(
        finals.iter().any(|&v| v < 3),
        "expected a lost-update interleaving: {finals:?}"
    );
}
