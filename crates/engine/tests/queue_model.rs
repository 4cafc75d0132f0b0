//! Model-based property test for the event queue.
//!
//! Replays randomized interleavings of schedule / cancel / pop / bounded-run
//! / drain operations against a reference model (a sorted map keyed by
//! `(time, key, seq)`) and checks every observable: pop order, clock,
//! length, cancellation results, and the `pending()` / `pending_entries()`
//! / `drain_pending()` views.
//!
//! Schedule offsets are drawn from four classes sized against the queue's
//! two tiers — zero, inside one 2²¹ ns epoch, tens of epochs out (the
//! parked ring), and seconds to minutes out (past the ring's horizon, in
//! the overflow map) — so scripts park events, cancel them where they are
//! parked, and run the clock across many epochs at a time. The sizes are
//! the test's own: if the queue's private constants move, only which tier
//! a class lands in changes, never what the model expects.
//!
//! Cases are generated from the engine's own [`SimRng`] with fixed seeds,
//! so the suite is deterministic, dependency-free, and reproducible by
//! case number.

use std::collections::BTreeMap;
use td_engine::{EventId, EventQueue, SimDuration, SimRng, SimTime};

const EPOCH_NS: u64 = 1 << 21;

#[derive(Clone, Debug)]
enum Op {
    /// Schedule at now + offset with a tie key.
    Schedule(u64, u64),
    /// Cancel the k-th id ever issued (mod issued count), live or stale.
    Cancel(usize),
    Pop,
    /// Pop everything strictly before now + span, then move the clock there.
    RunBefore(u64),
    /// Move the clock forward by up to `span` without popping.
    Advance(u64),
    /// Compare `pending()` and `pending_entries()` with the model.
    Inspect,
    /// `drain_pending()`, compare, and re-schedule what came out.
    Drain,
}

fn offset(rng: &mut SimRng) -> u64 {
    match rng.next_below(4) {
        0 => 0,
        1 => rng.next_below(EPOCH_NS),
        2 => rng.next_range(10, 90) * EPOCH_NS + rng.next_below(EPOCH_NS),
        _ => rng.next_range(5_000, 300_000) * 1_000_000,
    }
}

/// A random operation script, 1..400 ops long.
fn script(rng: &mut SimRng) -> Vec<Op> {
    let len = rng.next_range(1, 399) as usize;
    (0..len)
        .map(|_| match rng.next_below(16) {
            // Keys from a tiny range: same-time events tie on key often.
            0..=5 => Op::Schedule(offset(rng), rng.next_below(3)),
            6..=8 => Op::Cancel(rng.next_below(256) as usize),
            9..=11 => Op::Pop,
            12 => Op::RunBefore(offset(rng)),
            13 => Op::Advance(offset(rng)),
            14 => Op::Inspect,
            _ if rng.chance(0.25) => Op::Drain,
            _ => Op::Inspect,
        })
        .collect()
}

type Key = (SimTime, u64, u64);

struct Harness {
    case: u64,
    q: EventQueue<u64>,
    /// `(at, key, seq) -> (payload, handle)` of everything pending.
    model: BTreeMap<Key, (u64, EventId)>,
    /// Every handle ever issued with the model key it was issued for.
    issued: Vec<(EventId, Key)>,
    now: SimTime,
    seq: u64,
}

impl Harness {
    fn schedule(&mut self, at: SimTime, key: u64, payload: u64) {
        let id = self.q.schedule_keyed(at, key, payload);
        let k = (at, key, self.seq);
        self.seq += 1;
        self.model.insert(k, (payload, id));
        self.issued.push((id, k));
    }

    /// Pop once and compare with the model's first entry.
    fn pop_checked(&mut self, got: Option<(SimTime, u64)>) {
        let case = self.case;
        match (self.model.pop_first(), got) {
            (None, None) => {}
            (Some(((at, ..), (payload, id))), Some((t, e))) => {
                assert_eq!((t, e), (at, payload), "case {case}: pop");
                assert!(self.q.has_fired(id), "case {case}: popped id not retired");
                self.now = at;
            }
            (exp, got) => panic!("case {case}: model {exp:?} vs queue {got:?}"),
        }
    }

    fn apply(&mut self, op: Op) {
        let case = self.case;
        match op {
            Op::Schedule(off, key) => {
                let at = self.now + SimDuration::from_nanos(off);
                self.schedule(at, key, self.seq);
            }
            Op::Cancel(k) => {
                if self.issued.is_empty() {
                    return;
                }
                let (id, key) = self.issued[k % self.issued.len()];
                // Live iff the model still holds that key under that handle
                // (a drained-and-rescheduled event has a new one).
                let expected = self.model.get(&key).is_some_and(|&(_, live)| live == id);
                assert_eq!(
                    self.q.cancel(id),
                    expected,
                    "case {case}: cancel of {key:?}"
                );
                if expected {
                    self.model.remove(&key);
                }
                assert!(!self.q.cancel(id), "case {case}: double cancel accepted");
            }
            Op::Pop => {
                let got = self.q.pop();
                self.pop_checked(got);
            }
            Op::RunBefore(span) => {
                let bound = self.now + SimDuration::from_nanos(span);
                while let Some(got) = self.q.pop_before(bound) {
                    assert!(got.0 < bound, "case {case}: pop_before crossed its bound");
                    self.pop_checked(Some(got));
                }
                let next = self.model.keys().next().map(|k| k.0);
                assert!(
                    next.is_none_or(|t| t >= bound),
                    "case {case}: event left behind"
                );
                self.q.advance_clock(bound);
                self.now = bound;
            }
            Op::Advance(span) => {
                // Never past a pending event: that would put it in the past.
                let mut t = self.now + SimDuration::from_nanos(span);
                if let Some(&(first, ..)) = self.model.keys().next() {
                    t = t.min(first);
                }
                self.q.advance_clock(t);
                self.now = t;
            }
            Op::Inspect => {
                let want: Vec<_> = (self.model.iter())
                    .map(|(&(at, key, _), &(payload, id))| (at, key, id, payload))
                    .collect();
                let entries: Vec<_> = (self.q.pending_entries().into_iter())
                    .map(|(at, key, id, &e)| (at, key, id, e))
                    .collect();
                assert_eq!(entries, want, "case {case}: pending_entries()");
                let view: Vec<_> = (self.q.pending().into_iter())
                    .map(|(at, key, &e)| (at, key, e))
                    .collect();
                let want: Vec<_> = want
                    .into_iter()
                    .map(|(at, key, _, e)| (at, key, e))
                    .collect();
                assert_eq!(view, want, "case {case}: pending()");
            }
            Op::Drain => {
                let want: Vec<_> = std::mem::take(&mut self.model)
                    .into_iter()
                    .map(|((at, key, _), (payload, _))| (at, key, payload))
                    .collect();
                let drained = self.q.drain_pending();
                assert_eq!(drained, want, "case {case}: drain_pending()");
                assert!(self.q.is_empty() && self.q.peek_time().is_none());
                // Every old handle is stale now; the events come back under
                // new ones, as a shard re-schedules the events it owns.
                for (at, key, payload) in drained {
                    self.schedule(at, key, payload);
                }
            }
        }
        assert_eq!(self.q.now(), self.now, "case {case}: clock");
        assert_eq!(self.q.len(), self.model.len(), "case {case}: live length");
        assert_eq!(self.q.is_empty(), self.model.is_empty());
        assert_eq!(
            self.q.peek_time(),
            self.model.keys().next().map(|k| k.0),
            "case {case}: peek_time"
        );
    }
}

fn check_script(case: u64, script: Vec<Op>) {
    let mut h = Harness {
        case,
        q: EventQueue::new(),
        model: BTreeMap::new(),
        issued: Vec::new(),
        now: SimTime::ZERO,
        seq: 0,
    };
    for op in script {
        h.apply(op);
    }
    // Drain: remaining events come out in exact model order.
    while !h.model.is_empty() {
        h.apply(Op::Pop);
    }
    assert!(h.q.pop().is_none(), "case {case}: queue longer than model");
    assert_eq!(h.q.scheduled(), h.seq);
}

#[test]
fn queue_matches_reference_model() {
    for case in 0..1024u64 {
        let mut rng = SimRng::new(0x51EE_D000 + case);
        check_script(case, script(&mut rng));
    }
}
