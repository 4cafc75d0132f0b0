//! Intra-experiment parallelism: replicate sweeps on the runner's shared
//! job budget.
//!
//! PR 1 parallelized *across* experiments; a single sweep-style experiment
//! (a mode census over ten start phases, the fig45 buffer sweep, the
//! rtt-spread A/B cells) still ran one replicate at a time on one thread.
//! This module adds the second level:
//!
//! * [`JobBudget`] — the process-wide pool of job slots shared between the
//!   cross-experiment scheduler and in-experiment sweeps. The split is
//!   two-level and work-stealing-free: `run_batch` workers each *own* one
//!   slot while they execute experiments; whatever `--jobs` budget is left
//!   over (fewer tasks than jobs, or workers that ran out of tasks and
//!   retired) stays in the pool, and sweeps *borrow* those idle slots to
//!   drain their replicate queues. Nothing ever migrates a replicate
//!   between sweeps, so there is no stealing and no cross-sweep contention
//!   beyond one atomic.
//! * [`parallel_map`] — run one closure over N items on the caller plus
//!   however many borrowed helper threads the budget grants, collecting
//!   results **by item index**. Output is identical — byte for byte —
//!   whether zero or N−1 helpers were granted, because item order, seeds,
//!   and per-item work never depend on scheduling; only wall clock does.
//! * [`ReplicateSweep`] — the (seed, replicate) fan-out abstraction on top
//!   of `parallel_map`: explicit seed lists (the mode census) or seeds
//!   derived with the runner's [`derive_seed`] discipline (decorrelated
//!   replicates of a canonical run).
//!
//! Per-replicate results are reduced worker-side (workers return small
//! stats, dropping multi-MB `Trace`s before they cross threads) and merged
//! with a deterministic fold in replicate order by the caller.
//!
//! The thread's [`td_engine::meter`] stays exact: each item runs under a
//! meter scope of its own, on whichever thread, and what it metered is
//! absorbed into the calling thread's meter in item order after the
//! join, so an experiment's `timings.json` row reports the same counters
//! (and the same auditor notes, in the same order) whether its sweeps ran
//! on one thread or eight.

use crate::runner::derive_seed;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use td_engine::meter::{self, Meter};

/// Sentinel for a [`JobBudget`] that was never configured (library/test
/// use outside `run_batch`): sweeps then self-limit to a small default
/// fan-out instead of accounting against a pool.
const UNCONFIGURED: usize = usize::MAX;

/// Helper cap per sweep when no budget was configured. Keeps `cargo test`
/// (which runs many experiment tests concurrently already) from spawning
/// cores² threads while still letting standalone sweeps overlap their
/// replicates.
const UNCONFIGURED_HELPER_CAP: usize = 4;

/// The process-wide pool of job slots shared by the experiment runner and
/// in-experiment replicate sweeps.
///
/// `run_batch` calls [`JobBudget::configure`] with the `--jobs` value,
/// then acquires one slot per worker it spawns; each worker releases its
/// slot when it retires. Sweeps borrow from what remains via
/// [`JobBudget::acquire_up_to`] and return the slots when done. The
/// accounting is purely a concurrency-level policy: granting fewer or more
/// slots can never change any result, only the wall clock, so races
/// between concurrent `configure` calls (e.g. parallel tests running
/// `run_batch`) are benign.
pub struct JobBudget {
    /// Slots currently available for borrowing.
    available: AtomicUsize,
    /// Total slots configured (clamps release; `UNCONFIGURED` until the
    /// first `configure`).
    total: AtomicUsize,
}

impl JobBudget {
    const fn new() -> Self {
        JobBudget {
            available: AtomicUsize::new(0),
            total: AtomicUsize::new(UNCONFIGURED),
        }
    }

    /// Set the pool to exactly `slots` available out of `slots` total.
    pub fn configure(&self, slots: usize) {
        self.total.store(slots, Ordering::SeqCst);
        self.available.store(slots, Ordering::SeqCst);
    }

    /// Borrow up to `want` slots; returns how many were granted (possibly
    /// zero — callers must degrade to sequential, never block).
    pub fn acquire_up_to(&self, want: usize) -> usize {
        if want == 0 {
            return 0;
        }
        if self.total.load(Ordering::SeqCst) == UNCONFIGURED {
            // No policy installed: self-limit rather than account.
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            return want
                .min(cores.saturating_sub(1))
                .min(UNCONFIGURED_HELPER_CAP);
        }
        let mut cur = self.available.load(Ordering::SeqCst);
        loop {
            let take = cur.min(want);
            if take == 0 {
                return 0;
            }
            match self.available.compare_exchange(
                cur,
                cur - take,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => return take,
                Err(now) => cur = now,
            }
        }
    }

    /// Return `n` borrowed slots. Clamped to the configured total so a
    /// mid-flight `configure` from a concurrent batch cannot inflate the
    /// pool; a no-op while unconfigured (those grants are unaccounted).
    pub fn release(&self, n: usize) {
        let total = self.total.load(Ordering::SeqCst);
        if total == UNCONFIGURED || n == 0 {
            return;
        }
        let mut cur = self.available.load(Ordering::SeqCst);
        loop {
            let next = cur.saturating_add(n).min(total);
            match self
                .available
                .compare_exchange(cur, next, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => return,
                Err(now) => cur = now,
            }
        }
    }

    /// Slots currently available for borrowing (observability/tests).
    pub fn available(&self) -> usize {
        match self.available.load(Ordering::SeqCst) {
            _ if self.total.load(Ordering::SeqCst) == UNCONFIGURED => 0,
            n => n,
        }
    }
}

/// The process-wide budget instance.
pub fn budget() -> &'static JobBudget {
    static BUDGET: JobBudget = JobBudget::new();
    &BUDGET
}

/// Returns borrowed slots on drop, so a panicking replicate (unwound
/// through [`std::thread::scope`]) cannot leak budget.
struct BudgetLease {
    slots: usize,
}

impl Drop for BudgetLease {
    fn drop(&mut self) {
        budget().release(self.slots);
    }
}

/// Run `f` over every item, on the calling thread plus up to `len - 1`
/// borrowed helper threads, and collect the results **in item order**.
///
/// Determinism contract: `f(i, &items[i])` must depend only on its
/// arguments (plus immutable captures), never on which thread runs it or
/// in what order items complete. Under that contract the returned vector
/// is identical for any number of granted helpers — the helpers are pure
/// wall-clock.
///
/// Each item is metered in isolation and absorbed into the caller's
/// thread-local meter in item order, so callers (e.g. the experiment
/// runner) see the same totals as a sequential run. Worker closures
/// should return reduced, `Send` stats — not whole `World`s — so
/// multi-MB traces die on the thread that made them.
///
/// A panic in `f` propagates to the caller (after all threads join and
/// the budget lease is returned), where the runner's per-task
/// `catch_unwind` turns it into a failed experiment.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let lease = BudgetLease {
        slots: budget().acquire_up_to(n - 1),
    };
    if lease.slots == 0 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Propagate the caller's wall-clock deadline (if a serving layer
    // armed one) into the helpers, so an over-budget sweep aborts on
    // every thread promptly instead of only when the caller's own items
    // poll. Note `std::thread::scope` re-raises a helper panic with a
    // generic payload, so deadline classification upstream must rely on
    // `deadline::expired()`, not on the payload alone.
    let deadline = td_net::deadline::get();
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<(R, Meter)>> = (0..n).map(|_| OnceLock::new()).collect();
    // Caller and helpers drain one queue, each item under a meter of its
    // own — the caller's items too, so what is absorbed below is in item
    // order no matter which thread ran what.
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            return;
        }
        let _ = slots[i].set(meter::scoped(|| f(i, &items[i])));
    };

    std::thread::scope(|scope| {
        for _ in 0..lease.slots {
            scope.spawn(|| {
                let _deadline_guard = deadline.map(td_net::deadline::arm_until);
                drain();
            });
        }
        drain();
    });
    drop(lease);

    slots
        .into_iter()
        .map(|s| {
            let (r, metered) = s.into_inner().expect("every item ran");
            meter::absorb(metered);
            r
        })
        .collect()
}

/// A scenario fanned out over N seeded replicates.
///
/// The seeds are fixed at construction — either an explicit list (the
/// §4.3.3 mode census enumerates start phases `seed0..seed0+10`) or
/// derived from a master seed with the runner's [`derive_seed`]
/// discipline (replicate `i` gets `derive_seed(master, id, i)`), so the
/// fan-out is a pure function of `(id, master_seed, replicate)` and never
/// of scheduling. [`ReplicateSweep::run`] executes the replicates via
/// [`parallel_map`] and returns per-replicate results in replicate order,
/// ready for a deterministic fold.
pub struct ReplicateSweep {
    id: &'static str,
    seeds: Vec<u64>,
}

impl ReplicateSweep {
    /// A sweep over an explicit seed list.
    pub fn explicit(id: &'static str, seeds: Vec<u64>) -> Self {
        ReplicateSweep { id, seeds }
    }

    /// A sweep over `n` decorrelated replicates of `master_seed`:
    /// replicate `i` runs with `derive_seed(master_seed, id, i + 1)`
    /// (replicate index 0 is reserved for the canonical run, which the
    /// caller typically executes itself with `master_seed` verbatim).
    pub fn derived(id: &'static str, master_seed: u64, n: usize) -> Self {
        ReplicateSweep {
            id,
            seeds: (0..n)
                .map(|i| derive_seed(master_seed, id, i as u64 + 1))
                .collect(),
        }
    }

    /// The replicate seeds, in replicate order.
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Run `f(seed, replicate_idx)` for every replicate (in parallel when
    /// the budget grants slots) and return the results in replicate
    /// order.
    pub fn run<R: Send + Sync>(&self, f: impl Fn(u64, usize) -> R + Sync) -> Vec<R> {
        parallel_map(&self.seeds, |i, &seed| f(seed, i))
    }

    /// The experiment id the seeds were derived under.
    pub fn id(&self) -> &'static str {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_item_order() {
        let items: Vec<u64> = (0..37).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_tiny_inputs() {
        let empty: [u8; 0] = [];
        assert!(parallel_map(&empty, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[5u8], |i, &x| (i, x)), vec![(0, 5)]);
    }

    #[test]
    fn budget_accounting_is_bounded() {
        let b = JobBudget::new();
        assert_eq!(b.available(), 0, "unconfigured reports zero");
        b.configure(3);
        assert_eq!(b.available(), 3);
        assert_eq!(b.acquire_up_to(2), 2);
        assert_eq!(b.acquire_up_to(5), 1, "grants what is left");
        assert_eq!(b.acquire_up_to(1), 0, "empty pool grants nothing");
        b.release(2);
        assert_eq!(b.available(), 2);
        b.release(100);
        assert_eq!(b.available(), 3, "release clamps at the configured total");
    }

    #[test]
    fn unconfigured_budget_self_limits() {
        let b = JobBudget::new();
        let granted = b.acquire_up_to(64);
        assert!(granted <= UNCONFIGURED_HELPER_CAP);
        b.release(granted); // must be a no-op, not a panic
        assert_eq!(b.available(), 0);
    }

    /// Every counter, every gauge and the notes survive the join: item
    /// `k` ticks each of them by an amount only it uses, and the 39 items
    /// together overflow the note cap, so a delta lost, doubled, or
    /// absorbed out of item order changes the merged meter.
    #[test]
    fn telemetry_totals_match_sequential() {
        use td_engine::meter::{Counter, Gauge};
        use td_engine::{EventQueue, SimTime};
        let work = |k: u64| {
            let mut q = EventQueue::new();
            for i in 0..=k {
                q.schedule_at(SimTime::from_secs(i), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum += e;
            }
            meter::add(Counter::SnapshotsTaken, k);
            meter::add(Counter::SnapshotsRestored, k * k);
            meter::add(Counter::McVisited, k + 1);
            meter::add(Counter::McDeduped, k + 2);
            meter::add(Counter::McPruned, k + 3);
            meter::add(Counter::McCounterexamples, k + 4);
            meter::peak(Gauge::McMaxDepth, k % 7);
            td_net::audit::inject_violation_for_test(&format!("item {k}"));
            sum
        };
        let items: Vec<u64> = (1..40).collect();

        let (seq, m_seq) = meter::scoped(|| items.iter().map(|&k| work(k)).collect::<Vec<u64>>());
        let (par, m_par) = meter::scoped(|| parallel_map(&items, |_, &k| work(k)));

        assert_eq!(seq, par);
        assert_eq!(m_seq, m_par);
        assert_eq!(m_seq.count(Counter::AuditViolations), 39);
        assert_eq!(m_seq.notes().len(), meter::MAX_NOTES);
        assert!(m_seq.notes()[0].ends_with("item 1"));
        assert_eq!(m_seq.gauge(Gauge::PeakQueueDepth), 40);
        assert_eq!(m_seq.gauge(Gauge::McMaxDepth), 6);
    }

    #[test]
    fn replicate_sweep_seeds_are_pure_and_ordered() {
        let a = ReplicateSweep::derived("fig67", 7, 4);
        let b = ReplicateSweep::derived("fig67", 7, 4);
        assert_eq!(a.seeds(), b.seeds());
        assert_eq!(a.seeds().len(), 4);
        // Replicates are decorrelated from each other and from the master.
        let mut uniq: Vec<u64> = a.seeds().to_vec();
        uniq.push(7);
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 5);
        // And a different experiment id derives a different stream.
        assert_ne!(a.seeds(), ReplicateSweep::derived("fig45", 7, 4).seeds());

        let ex = ReplicateSweep::explicit("tbl-modes", vec![3, 1, 2]);
        let got = ex.run(|seed, i| (i, seed));
        assert_eq!(got, vec![(0, 3), (1, 1), (2, 2)], "replicate order kept");
    }

    #[test]
    fn parallel_map_propagates_panics_without_leaking_budget() {
        let b = budget();
        b.configure(2);
        let items: Vec<u32> = (0..8).collect();
        let r = std::panic::catch_unwind(|| {
            parallel_map(&items, |_, &x| {
                if x == 3 {
                    panic!("replicate {x} exploded");
                }
                x
            })
        });
        assert!(r.is_err());
        assert_eq!(b.available(), 2, "lease returned on unwind");
    }
}
