//! The per-thread meter: every count a run reports about itself.
//!
//! A [`Meter`] is a small value — one slot per [`Counter`] (summed when
//! meters merge), one per [`Gauge`] (maxed), and a capped list of notes
//! (rendered invariant-auditor reports). Each thread owns one; simulation
//! code ticks it with [`add`], [`peak`] and [`note`] without threading a
//! handle through every scenario builder. A harness meters a piece of work
//! with [`scoped`] and, when the work ran on another thread, folds the
//! result into its own thread's meter with [`absorb`]:
//!
//! ```
//! use td_engine::meter::{self, Counter, Gauge};
//! use td_engine::{EventQueue, SimTime};
//!
//! let ((), m) = meter::scoped(|| {
//!     let mut q = EventQueue::new();
//!     q.schedule_at(SimTime::from_secs(1), "tick");
//!     q.pop();
//! });
//! assert_eq!(m.count(Counter::EventsScheduled), 1);
//! assert_eq!(m.count(Counter::EventsDispatched), 1);
//! assert_eq!(m.gauge(Gauge::PeakQueueDepth), 1);
//! ```
//!
//! The enums name counters of the layers above (snapshots, the auditor, the
//! model checker): a name, not a dependency, and what makes the next
//! counter one variant instead of one more thread-local module.
//!
//! Hot-path cost: the event queue does not touch thread-local storage per
//! operation. It accumulates plain-field deltas and folds them in with one
//! crate-internal `flush` per pop (and one on queue drop, covering events
//! scheduled but never dispatched). The numbers live in const-initialised
//! `Cell`s with no destructor, so that flush is one TLS address and three
//! stores; the notes, which own heap memory, sit in a thread-local of
//! their own that only [`note`], [`scoped`] and [`absorb`] reach. Nothing
//! here influences simulation behaviour, so determinism is untouched.

use std::cell::{Cell, RefCell};

/// Monotone counts; merging two meters adds them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// Events scheduled into any [`crate::EventQueue`].
    EventsScheduled,
    /// Events popped (dispatched) from any queue.
    EventsDispatched,
    /// Worlds serialized (watchdog post-mortems included).
    SnapshotsTaken,
    /// Worlds deserialized successfully.
    SnapshotsRestored,
    /// Invariant-auditor violations, including those past the note cap.
    AuditViolations,
    /// Model-checker segments executed.
    McVisited,
    /// Model-checker children cut because their state was already seen.
    McDeduped,
    /// Model-checker children cut by an exploration budget.
    McPruned,
    /// Model-checker counterexamples found.
    McCounterexamples,
}

/// High-water marks; merging two meters keeps the larger.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Gauge {
    /// Largest live pending-event set any queue held.
    PeakQueueDepth,
    /// Deepest model-checker decision path.
    McMaxDepth,
}

// Slots per kind: one past the last variant of each enum.
const COUNTERS: usize = Counter::McCounterexamples as usize + 1;
const GAUGES: usize = Gauge::McMaxDepth as usize + 1;

/// A meter keeps the first this-many notes (the counters keep rising).
pub const MAX_NOTES: usize = 32;

/// What one thread, task or batch of tasks accumulated.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Meter {
    counters: [u64; COUNTERS],
    gauges: [u64; GAUGES],
    notes: Vec<String>,
}

impl Meter {
    /// The value of one counter.
    pub fn count(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The value of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// The notes kept (at most [`MAX_NOTES`]), in the order they merged in.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }
}

struct Numbers {
    counters: [Cell<u64>; COUNTERS],
    gauges: [Cell<u64>; GAUGES],
}

thread_local! {
    static NUMBERS: Numbers = const {
        Numbers {
            counters: [const { Cell::new(0) }; COUNTERS],
            gauges: [const { Cell::new(0) }; GAUGES],
        }
    };
    static NOTES: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

fn bump(cell: &Cell<u64>, n: u64) {
    cell.set(cell.get() + n);
}

fn raise(cell: &Cell<u64>, v: u64) {
    cell.set(cell.get().max(v));
}

/// Add `n` to one of this thread's counters.
pub fn add(c: Counter, n: u64) {
    NUMBERS.with(|t| bump(&t.counters[c as usize], n));
}

/// Raise one of this thread's gauges to at least `v`.
pub fn peak(g: Gauge, v: u64) {
    NUMBERS.with(|t| raise(&t.gauges[g as usize], v));
}

/// Append a note to this thread's meter; dropped once [`MAX_NOTES`] are
/// held (count what the notes describe with a [`Counter`]).
pub fn note(text: String) {
    NOTES.with_borrow_mut(|held| {
        if held.len() < MAX_NOTES {
            held.push(text);
        }
    });
}

/// Fold a batch of queue activity into this thread's meter: `scheduled`
/// schedules, `dispatched` pops, and a queue whose peak live depth so far
/// is `peak_depth`.
pub(crate) fn flush(scheduled: u64, dispatched: u64, peak_depth: usize) {
    NUMBERS.with(|t| {
        bump(&t.counters[Counter::EventsScheduled as usize], scheduled);
        bump(&t.counters[Counter::EventsDispatched as usize], dispatched);
        raise(&t.gauges[Gauge::PeakQueueDepth as usize], peak_depth as u64);
    });
}

/// Take this thread's meter, leaving it zero.
fn take() -> Meter {
    NUMBERS.with(|t| Meter {
        counters: std::array::from_fn(|i| t.counters[i].take()),
        gauges: std::array::from_fn(|i| t.gauges[i].take()),
        notes: NOTES.take(),
    })
}

/// Run `f` against a fresh meter and hand back what it accumulated; the
/// meter this thread held before is back in place afterwards, untouched
/// by `f`. Meter whole queue lifetimes (build, run and drop the world
/// inside `f`): a queue flushes its last schedules when it drops.
///
/// If `f` unwinds, the outer meter is restored with `f`'s partial counts
/// folded in rather than lost.
pub fn scoped<R>(f: impl FnOnce() -> R) -> (R, Meter) {
    struct Outer(Meter);
    impl Drop for Outer {
        fn drop(&mut self) {
            absorb(std::mem::take(&mut self.0));
        }
    }
    let outer = Outer(take());
    let r = f();
    let inner = take();
    drop(outer);
    (r, inner)
}

/// Fold a meter — typically one [`scoped`] returned on another thread —
/// into this thread's: counters add, gauges max, notes append up to the
/// cap. Harnesses absorb joined work in item order, so a task's totals
/// (and the order of its notes) do not depend on which thread ran what.
pub fn absorb(m: Meter) {
    NUMBERS.with(|t| {
        for (cell, n) in t.counters.iter().zip(m.counters) {
            bump(cell, n);
        }
        for (cell, v) in t.gauges.iter().zip(m.gauges) {
            raise(cell, v);
        }
    });
    NOTES.with_borrow_mut(|held| {
        let room = MAX_NOTES - held.len();
        held.extend(m.notes.into_iter().take(room));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_gauges_max_notes_cap() {
        let ((), m) = scoped(|| {
            add(Counter::SnapshotsTaken, 2);
            add(Counter::SnapshotsTaken, 1);
            peak(Gauge::McMaxDepth, 3);
            peak(Gauge::McMaxDepth, 1);
            for i in 0..MAX_NOTES + 10 {
                note(format!("n{i}"));
            }
        });
        assert_eq!(m.count(Counter::SnapshotsTaken), 3);
        assert_eq!(m.count(Counter::SnapshotsRestored), 0);
        assert_eq!(m.gauge(Gauge::McMaxDepth), 3, "a gauge is a running max");
        assert_eq!(m.notes().len(), MAX_NOTES);
        assert_eq!(m.notes()[MAX_NOTES - 1], format!("n{}", MAX_NOTES - 1));
    }

    #[test]
    fn scoped_isolates_and_restores_the_outer_meter() {
        let ((), outer) = scoped(|| {
            add(Counter::McVisited, 5);
            note("outer".into());
            let ((), inner) = scoped(|| {
                add(Counter::McVisited, 2);
                peak(Gauge::PeakQueueDepth, 9);
                note("inner".into());
            });
            assert_eq!(inner.count(Counter::McVisited), 2);
            assert_eq!(inner.notes(), ["inner"]);
            // Nothing of the inner scope leaked into the outer one …
            add(Counter::McVisited, 1);
            // … until it is absorbed, after the outer's own counts.
            absorb(inner);
        });
        assert_eq!(outer.count(Counter::McVisited), 8);
        assert_eq!(outer.gauge(Gauge::PeakQueueDepth), 9);
        assert_eq!(outer.notes(), ["outer", "inner"]);
    }

    #[test]
    fn scoped_keeps_partial_counts_when_the_work_unwinds() {
        let ((), m) = scoped(|| {
            add(Counter::AuditViolations, 1);
            let r = std::panic::catch_unwind(|| {
                scoped(|| {
                    add(Counter::AuditViolations, 2);
                    panic!("work failed");
                })
            });
            assert!(r.is_err());
        });
        assert_eq!(m.count(Counter::AuditViolations), 3);
    }

    #[test]
    fn absorb_from_another_thread_matches_running_here() {
        let work = || {
            add(Counter::EventsDispatched, 7);
            peak(Gauge::PeakQueueDepth, 4);
            note("seen".into());
        };
        let ((), here) = scoped(work);
        let ((), merged) = scoped(|| {
            let ((), m) = std::thread::scope(|s| s.spawn(|| scoped(work)).join().unwrap());
            absorb(m);
        });
        assert_eq!(here, merged);
    }

    #[test]
    fn queue_flushes_on_pop_and_on_drop() {
        let (mut q, m) = scoped(|| {
            let mut q = crate::EventQueue::new();
            q.schedule_at(crate::SimTime::from_secs(1), ());
            q.schedule_at(crate::SimTime::from_secs(2), ());
            q.pop();
            q
        });
        // One pop flushed both pending schedules and the dispatch.
        assert_eq!(m.count(Counter::EventsScheduled), 2);
        assert_eq!(m.count(Counter::EventsDispatched), 1);
        assert_eq!(m.gauge(Gauge::PeakQueueDepth), 2);
        // The undispatched remainder is flushed when the queue drops.
        let ((), m) = scoped(move || {
            q.schedule_at(crate::SimTime::from_secs(3), ());
        });
        assert_eq!(m.count(Counter::EventsScheduled), 1);
        assert_eq!(m.count(Counter::EventsDispatched), 0);
    }
}
