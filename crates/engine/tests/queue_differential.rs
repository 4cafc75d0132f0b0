//! Differential test: the slab-backed two-tier [`EventQueue`] must be
//! observably indistinguishable from the pre-slab binary-heap queue
//! ([`legacy::LegacyEventQueue`], this test's own module — the library
//! exports one queue) under any interleaving of schedules, cancels, and
//! pops.
//!
//! One `SimRng`-generated script (≥100k ops) drives both implementations
//! in lockstep. After every operation the test asserts identical `len()`,
//! `is_empty()`, `dispatched()`, `peak_len()`, `scheduled()`, `now()` and
//! `peek_time()`; every pop must yield the identical `(time, payload)`; and
//! every cancel must return the identical verdict. Because the payload is
//! the op index, agreement on pop payloads proves the *total order*
//! matches — including the tie-break by schedule sequence that all
//! experiment reproducibility rests on.
//!
//! The time jitter decides which tier of the shipped queue a script
//! exercises: up to 1 ms stays inside one epoch and so inside its heap;
//! 5 s spreads events over the parked ring and just past its horizon;
//! 200 s parks nearly everything in the overflow map.

mod legacy;

use legacy::{LegacyEventId, LegacyEventQueue};
use td_engine::{EventId, EventQueue, SimDuration, SimRng};

/// Handles for the same logical event in both queues.
#[derive(Clone, Copy)]
struct Pair {
    new: EventId,
    old: LegacyEventId,
}

fn lockstep(seed: u64, ops: u64, time_jitter: u64) {
    let mut nq: EventQueue<u64> = EventQueue::new();
    let mut oq: LegacyEventQueue<u64> = LegacyEventQueue::new();
    // Events believed pending (may contain already-fired ids; both queues
    // must agree on rejecting those cancels too).
    let mut handles: Vec<Pair> = Vec::new();
    let mut rng = SimRng::new(seed);
    let mut pops = 0u64;
    let mut cancels_accepted = 0u64;
    for step in 0..ops {
        match rng.next_below(8) {
            // Schedule at a jittered future instant; small jitter ranges
            // force heavy (time) ties so the seq tie-break is exercised.
            0..=2 => {
                let at = nq.now() + SimDuration::from_nanos(rng.next_below(time_jitter));
                handles.push(Pair {
                    new: nq.schedule_at(at, step),
                    old: oq.schedule_at(at, step),
                });
            }
            // Same, via the relative-time API.
            3 => {
                let d = SimDuration::from_nanos(rng.next_below(time_jitter));
                handles.push(Pair {
                    new: nq.schedule_in(d, step),
                    old: oq.schedule_in(d, step),
                });
            }
            // Cancel a (possibly stale) handle — verdicts must match.
            4..=5 if !handles.is_empty() => {
                let k = rng.next_below(handles.len() as u64) as usize;
                let h = handles[k];
                let verdict = nq.cancel(h.new);
                assert_eq!(
                    verdict,
                    oq.cancel(h.old),
                    "cancel verdicts diverged at step {step}"
                );
                if verdict {
                    cancels_accepted += 1;
                    handles.swap_remove(k);
                }
            }
            // Pop — the heart of the test: identical (time, payload).
            _ => {
                let got = nq.pop();
                assert_eq!(got, oq.pop(), "pop diverged at step {step}");
                if got.is_some() {
                    pops += 1;
                }
            }
        }
        assert_eq!(nq.len(), oq.len(), "len diverged at step {step}");
        assert_eq!(
            nq.is_empty(),
            oq.is_empty(),
            "is_empty diverged at step {step}"
        );
        assert_eq!(nq.now(), oq.now(), "clock diverged at step {step}");
        assert_eq!(
            nq.dispatched(),
            oq.dispatched(),
            "dispatched diverged at step {step}"
        );
        assert_eq!(
            nq.scheduled(),
            oq.scheduled(),
            "scheduled diverged at step {step}"
        );
        assert_eq!(
            nq.peak_len(),
            oq.peak_len(),
            "peak_len diverged at step {step}"
        );
        assert_eq!(
            nq.peek_time(),
            oq.peek_time(),
            "peek_time diverged at step {step}"
        );
    }
    // Drain both to the end: the full residual order must agree too.
    loop {
        let got = nq.pop();
        assert_eq!(got, oq.pop(), "drain diverged");
        if got.is_none() {
            break;
        }
        pops += 1;
    }
    assert_eq!(nq.dispatched(), oq.dispatched());
    assert_eq!(pops + cancels_accepted, nq.scheduled(), "events leaked");
    // Sanity: the script actually exercised the interesting paths.
    assert!(pops > ops / 10, "script popped too little to be meaningful");
    assert!(cancels_accepted > ops / 20, "script barely cancelled");
}

#[test]
fn new_queue_matches_legacy_on_100k_op_script() {
    // Dense time ties (jitter 50 ns): the seq tie-break does the ordering.
    lockstep(0xD1FF, 100_000, 50);
}

#[test]
fn new_queue_matches_legacy_on_sparse_times() {
    // Sparse times: ordering dominated by the time key, deep heaps.
    lockstep(0x5EED, 60_000, 1_000_000);
}

#[test]
fn new_queue_matches_legacy_across_seeds() {
    for seed in 1..=8u64 {
        lockstep(seed, 15_000, 200);
    }
}

#[test]
fn new_queue_matches_legacy_across_the_ring() {
    // Jitter of 5 s: most events park, in the ring and just past its
    // horizon, and reach the heap a bucket at a time.
    lockstep(0x71E5, 100_000, 5_000_000_000);
}

#[test]
fn new_queue_matches_legacy_in_the_overflow_map() {
    // Jitter of 200 s: nearly every event parks past the ring's horizon
    // and migrates into the ring as the clock approaches.
    lockstep(0x0F10, 100_000, 200_000_000_000);
}
