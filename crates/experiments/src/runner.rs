//! Parallel experiment harness.
//!
//! `td-repro` used to execute registry entries strictly sequentially; this
//! module runs them across a scoped-thread worker pool (`--jobs N`) while
//! preserving the property the whole repository is built on: **bit-identical
//! results from a seed**. Three ingredients make that safe:
//!
//! 1. Every experiment owns its own `World` (and therefore its own
//!    `EventQueue` and `SimRng`) — there is no shared mutable simulation
//!    state between registry entries.
//! 2. Each experiment's seed is a pure function of
//!    `(master_seed, experiment_id, replicate)` — the master seed itself
//!    for the canonical replicate 0, [`derive_seed`] for the rest — never
//!    of thread scheduling, pool size, or completion order. `--jobs 1`
//!    and `--jobs 32` therefore produce byte-identical reports.
//! 3. Results are collected by task index, not completion order, so
//!    downstream output is ordered like the registry regardless of which
//!    worker finishes first.
//!
//! Parallelism is **two-level**: `--jobs` is one global budget
//! ([`crate::sweep::JobBudget`]). Each worker here owns one slot while it
//! executes experiments; whatever is left over — fewer tasks than jobs, or
//! workers that ran out of tasks and retired — stays available, and
//! in-experiment replicate sweeps ([`crate::sweep`]) borrow those idle
//! slots to run their replicates concurrently. The split is
//! work-stealing-free: slots move only through the budget's two atomics,
//! never tasks between queues, and granting a sweep more or fewer slots
//! can only change the wall clock, never a byte of output.
//!
//! The pool is also fault-isolated: every task runs through
//! [`crate::cell::compute`], `td-serve`'s executor too, so one panicking
//! scenario becomes one failed [`ExperimentResult`] (panic message
//! preserved in `timings.json`) instead of a poisoned batch.
//!
//! Finally, the pool is the observability hook: each task is metered with
//! wall-clock time and one [`td_engine::meter`] scope (events scheduled /
//! dispatched, peak pending-event depth, auditor violations, snapshot and
//! model-check counters), and the whole run can be serialized as a
//! `timings.json` report — the trajectory file the benchmarking roadmap
//! hangs off.

use crate::cell::{self, Limits, Outcome};
use crate::journal::Journal;
use crate::registry::{Entry, Profile};
use crate::report::Report;
use crate::sweep;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;
use td_analysis::RunningStats;
use td_engine::json::escape;
use td_engine::meter::{Counter, Gauge, Meter};
use td_engine::{fnv1a, fnv1a_continue};
use td_net::audit::Tally;

/// Derive the seed for one `(experiment, replicate)` cell from the run's
/// master seed.
///
/// The experiment id and the replicate index are folded with FNV-1a and
/// mixed with the master seed through a SplitMix64 finalizer, so every
/// `(master_seed, id, replicate)` triple gets an independent,
/// platform-stable seed. Changing the pool size, the registry order, the
/// set of experiments run, or the replicate count cannot perturb any
/// other cell's stream.
///
/// Replicate 0 deliberately does *not* go through this derivation (see
/// [`run_batch`]): the canonical report must match a direct
/// `entry.run(master_seed, profile)` call — several experiments reproduce
/// seed-sensitive phenomena (e.g. the fig45 synchronization bands) that
/// the paper demonstrates at the canonical seed. Derivation decorrelates
/// the *additional* replicates, which would otherwise all rerun the same
/// stream. The chaos drill derives its per-cell seeds with the same
/// function.
pub fn derive_seed(master_seed: u64, experiment_id: &str, replicate: u64) -> u64 {
    let h = fnv1a_continue(fnv1a(experiment_id.as_bytes()), &replicate.to_le_bytes());
    // SplitMix64 finalizer over the combined words.
    let mut z = master_seed
        .rotate_left(32)
        .wrapping_add(h)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How the pool should execute a batch.
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// The global job budget: worker threads here plus borrowed slots for
    /// in-experiment replicate sweeps (clamped to at least 1).
    pub jobs: usize,
    /// Run profile handed to every entry.
    pub profile: Profile,
    /// Master seed. Replicate 0 receives it verbatim; replicate `r > 0`
    /// runs with `derive_seed(master_seed, id, r)`.
    pub master_seed: u64,
    /// Replicates per experiment. Replicate 0 is the canonical run whose
    /// report is printed; all replicates contribute pass/fail counts.
    pub replicates: u64,
    /// Emit a live per-completion progress line on stderr.
    pub progress: bool,
    /// Cooperative interrupt flag (SIGINT/SIGTERM). When it reads
    /// `true`, workers finish their in-flight task — so every completed
    /// cell still reaches the sweep's store — but claim no new ones, and
    /// the batch reports [`BatchResult::interrupted`].
    pub interrupt: Option<&'static AtomicBool>,
}

impl RunnerConfig {
    /// Default config: all available cores, quick profile, seed 1.
    pub fn new() -> Self {
        RunnerConfig {
            jobs: default_jobs(),
            profile: Profile::Quick,
            master_seed: 1,
            replicates: 1,
            progress: false,
            interrupt: None,
        }
    }
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Wall-clock and engine counters for one executed experiment (all zero
/// for a cell replayed from a sweep's store).
#[derive(Clone, Copy, Debug, Default)]
pub struct Timing {
    /// Wall-clock seconds spent inside the experiment runner.
    pub wall_s: f64,
    /// Events scheduled across every queue the experiment built.
    pub events_scheduled: u64,
    /// Events dispatched across every queue the experiment built.
    pub events_dispatched: u64,
    /// Largest pending-event set any of its queues ever held.
    pub peak_queue_depth: usize,
    /// Peak-RSS high-water mark (`VmHWM`, KiB) sampled when the cell
    /// finished. The watermark is reset (see [`reset_peak_rss`]) before
    /// each cell, so on supporting kernels this is a genuine *per-cell*
    /// peak; where the reset is unavailable
    /// [`Timing::peak_rss_is_process_max`] is set and the value degrades
    /// to the process-lifetime maximum (every cell finishing after the
    /// largest-footprint one inherits its peak). Workers running in
    /// parallel share one watermark either way, so per-cell readings are
    /// exact at `--jobs 1` and upper bounds otherwise. 0 where
    /// `/proc/self/status` is unavailable.
    pub peak_rss_kib: u64,
    /// True when the pre-cell watermark reset failed (non-Linux, or a
    /// kernel without `CONFIG_PROC_PAGE_MONITOR`): `peak_rss_kib` is
    /// then the process-lifetime high-water mark, not this cell's.
    pub peak_rss_is_process_max: bool,
}

/// The process's peak resident-set size in KiB: `VmHWM` from
/// `/proc/self/status` on Linux, 0 elsewhere.
pub fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Reset the kernel's peak-RSS watermark to the *current* RSS by writing
/// `5` to `/proc/self/clear_refs`, so the next [`peak_rss_kib`] reading
/// measures only what happened after this call. Returns `false` where
/// the kernel doesn't support it (the watermark then stays a
/// process-lifetime maximum and callers must flag the reading as such).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// One executed (experiment, replicate) cell.
pub struct ExperimentResult {
    /// Registry id.
    pub id: &'static str,
    /// Replicate index (0-based).
    pub replicate: u64,
    /// The seed the experiment actually ran with.
    pub seed: u64,
    /// The experiment's report. For a panicked task this is a synthetic
    /// report whose single failing row carries the panic message, so it
    /// counts against `all_ok` like any other mismatch.
    pub report: Report,
    /// The panic message, if the experiment panicked instead of
    /// completing (also serialized into `timings.json`).
    pub panic: Option<String>,
    /// Wall clock, peak RSS and the meter's event counters.
    pub timing: Timing,
    /// Invariant-auditor tally for this task: every violation any world
    /// recorded while the task ran, read from [`ExperimentResult::meter`]
    /// and surfaced through `timings.json`.
    pub audit: Tally,
    /// Everything the task metered, sweep helpers and shard workers
    /// included. `timings.json` reads the snapshot counters (watchdog
    /// post-mortems included) and the per-row and batch-level `mc` blocks
    /// from here; zero for a replayed cell, whose stored file carries
    /// only its report.
    pub meter: Meter,
    /// True if this cell was replayed from a sweep's store instead of
    /// executed (`--resume`).
    pub replayed: bool,
}

/// A completed batch: per-task results in deterministic (registry ×
/// replicate) order, plus batch-level metadata for `timings.json`.
pub struct BatchResult {
    /// Results ordered by `(entry index, replicate)`.
    pub results: Vec<ExperimentResult>,
    /// Job budget used (workers + sweep slots).
    pub jobs: usize,
    /// Profile used.
    pub profile: Profile,
    /// Master seed of replicate 0.
    pub master_seed: u64,
    /// Wall-clock seconds for the whole batch.
    pub total_wall_s: f64,
    /// True if a cooperative interrupt (SIGINT/SIGTERM) stopped the
    /// batch before every task ran; `results` then holds only the
    /// completed cells.
    pub interrupted: bool,
    /// Cells replayed from the sweep's store instead of executed
    /// (`--resume`).
    pub journal_replayed: u64,
}

impl BatchResult {
    /// Results of replicate 0, in registry order (the printable reports).
    pub fn primary(&self) -> impl Iterator<Item = &ExperimentResult> {
        self.results.iter().filter(|r| r.replicate == 0)
    }

    /// `(passes, replicates)` for one experiment id.
    pub fn pass_count(&self, id: &str) -> (u64, u64) {
        let mut passes = 0;
        let mut total = 0;
        for r in self.results.iter().filter(|r| r.id == id) {
            total += 1;
            if r.report.all_ok() {
                passes += 1;
            }
        }
        (passes, total)
    }

    /// True if every checked row of every replicate passed (a panicked
    /// task is a failed row, so it makes this false without having
    /// aborted the batch).
    pub fn all_ok(&self) -> bool {
        self.results.iter().all(|r| r.report.all_ok())
    }

    /// Tasks that panicked, as `(id, replicate, message)`.
    pub fn panics(&self) -> Vec<(&'static str, u64, &str)> {
        self.results
            .iter()
            .filter_map(|r| r.panic.as_deref().map(|m| (r.id, r.replicate, m)))
            .collect()
    }

    /// Per-experiment wall-clock summary across its replicates, in
    /// registry order: `(id, stats)`. Replicate timings are folded in
    /// replicate order with the mergeable [`RunningStats`], the same
    /// deterministic reduction the sweeps use.
    pub fn wall_s_by_id(&self) -> Vec<(&'static str, RunningStats)> {
        let mut out: Vec<(&'static str, RunningStats)> = Vec::new();
        for r in &self.results {
            match out.last_mut() {
                Some((id, stats)) if *id == r.id => {
                    *stats = stats.merge(&RunningStats::from_slice(&[r.timing.wall_s]));
                }
                _ => out.push((r.id, RunningStats::from_slice(&[r.timing.wall_s]))),
            }
        }
        out
    }

    /// Serialize the batch as a `timings.json` document.
    pub fn timings_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"master_seed\": {},\n", self.master_seed));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!(
            "  \"profile\": \"{}\",\n",
            match self.profile {
                Profile::Quick => "quick",
                Profile::Full => "full",
            }
        ));
        out.push_str(&format!("  \"total_wall_s\": {:.6},\n", self.total_wall_s));
        let events: u64 = self
            .results
            .iter()
            .map(|r| r.timing.events_dispatched)
            .sum();
        out.push_str(&format!("  \"total_events_dispatched\": {events},\n"));
        out.push_str(&format!("  \"panicked\": {},\n", self.panics().len()));
        let audit_total: u64 = self.results.iter().map(|r| r.audit.total).sum();
        out.push_str(&format!("  \"audit_violations\": {audit_total},\n"));
        out.push_str(&format!("  \"interrupted\": {},\n", self.interrupted));
        out.push_str(&format!(
            "  \"journal_replayed\": {},\n",
            self.journal_replayed
        ));
        let sum = |c: Counter| -> u64 { self.results.iter().map(|r| r.meter.count(c)).sum() };
        let snap_taken = sum(Counter::SnapshotsTaken);
        let snap_restored = sum(Counter::SnapshotsRestored);
        out.push_str(&format!("  \"snapshots_taken\": {snap_taken},\n"));
        out.push_str(&format!("  \"snapshots_restored\": {snap_restored},\n"));
        // Batch-level model-checking block: exploration counters summed
        // across every cell (depth as the maximum), so CI can pin the
        // whole batch's coverage with one lookup.
        let mc_depth = self
            .results
            .iter()
            .map(|r| r.meter.gauge(Gauge::McMaxDepth))
            .max()
            .unwrap_or(0);
        out.push_str(&format!("  \"mc\": {},\n", mc_block(sum, mc_depth)));
        out.push_str("  \"experiments\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            let t = &r.timing;
            let panic = match &r.panic {
                Some(msg) => format!("\"{}\"", escape(msg)),
                None => "null".into(),
            };
            let audit = json_string_array(&r.audit.reports);
            let diagnostics = json_string_array(&r.report.diagnostics);
            let metrics = r
                .report
                .metrics
                .iter()
                .map(|(name, value)| format!("\"{}\": {value}", escape(name)))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "    {{\"id\": \"{}\", \"replicate\": {}, \"seed\": {}, \"ok\": {}, \
                 \"panic\": {panic}, \
                 \"wall_s\": {:.6}, \"events_scheduled\": {}, \"events_dispatched\": {}, \
                 \"peak_queue_depth\": {}, \"peak_rss_kib\": {}, \
                 \"peak_rss_is_process_max\": {}, \
                 \"audit_violations\": {}, \"audit\": {audit}, \
                 \"snapshots_taken\": {}, \"snapshots_restored\": {}, \
                 \"mc\": {}, \
                 \"replayed\": {}, \
                 \"metrics\": {{{metrics}}}, \"diagnostics\": {diagnostics}}}{}\n",
                r.id,
                r.replicate,
                r.seed,
                r.report.all_ok(),
                t.wall_s,
                t.events_scheduled,
                t.events_dispatched,
                t.peak_queue_depth,
                t.peak_rss_kib,
                t.peak_rss_is_process_max,
                r.audit.total,
                r.meter.count(Counter::SnapshotsTaken),
                r.meter.count(Counter::SnapshotsRestored),
                mc_block(|c| r.meter.count(c), r.meter.gauge(Gauge::McMaxDepth)),
                r.replayed,
                if i + 1 == self.results.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"wall_s_by_id\": [\n");
        let by_id = self.wall_s_by_id();
        for (i, (id, s)) in by_id.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": \"{id}\", \"replicates\": {}, \"mean_s\": {:.6}, \
                 \"min_s\": {:.6}, \"max_s\": {:.6}}}{}\n",
                s.count(),
                s.mean(),
                s.min().unwrap_or(0.0),
                s.max().unwrap_or(0.0),
                if i + 1 == by_id.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The `mc` object of a `timings.json` row or batch.
fn mc_block(count: impl Fn(Counter) -> u64, max_depth: u64) -> String {
    format!(
        "{{\"states_visited\": {}, \"states_deduped\": {}, \"states_pruned\": {}, \
         \"max_depth\": {max_depth}, \"counterexamples\": {}}}",
        count(Counter::McVisited),
        count(Counter::McDeduped),
        count(Counter::McPruned),
        count(Counter::McCounterexamples)
    )
}

/// Render a slice of strings as a JSON array literal.
fn json_string_array(items: &[String]) -> String {
    let body = items
        .iter()
        .map(|s| format!("\"{}\"", escape(s)))
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{body}]")
}

/// The synthetic report of a panicked task: one failing row carrying the
/// panic message, so every downstream consumer (`all_ok`, pass counts,
/// exit codes, summaries) treats the panic as a mismatch instead of
/// needing a special case.
fn panic_report(entry: &Entry, seed: u64, msg: &str) -> Report {
    let mut rep = Report::new(
        entry.id,
        entry.about,
        &format!("seed {seed} — experiment PANICKED before producing a report"),
    );
    rep.check(
        "experiment completed without panicking",
        "runs to completion",
        format!("panicked: {msg}"),
        false,
    );
    rep
}

/// Execute `entries × replicates` on a scoped-thread worker pool.
///
/// Tasks are claimed from a shared counter; results land in their task's
/// slot, so the returned order (and every report in it) is independent of
/// scheduling. Worker threads run experiments to completion — an
/// experiment is never split across threads (its replicate sweeps may
/// *borrow* idle job slots, but each sweep item is metered and merged
/// back deterministically), which is what lets the thread-local
/// [`td_engine::meter`] meter it.
///
/// Fault isolation: each task runs through [`cell::compute`]. A panicking
/// experiment yields a failed [`ExperimentResult`] (message in
/// [`ExperimentResult::panic`] and `timings.json`) and the rest of the
/// batch keeps running; `run_batch` itself always returns a full
/// `BatchResult` with one entry per task.
pub fn run_batch(entries: &[Entry], cfg: &RunnerConfig) -> BatchResult {
    run_batch_resumable(entries, cfg, None)
}

/// [`run_batch`] with crash resilience: a worker that claims a task
/// first looks its cell up in `journal`'s store — a hit replays instead
/// of running — and stores every cell it runs the moment it finishes
/// (durably, before the slot is even published).
///
/// A cell's key is its `(id, profile, seed)`, and every seed is a pure
/// function of `(master_seed, id, replicate)`, so a resumed batch's
/// reports are byte-identical to an uninterrupted run's. A fresh sweep
/// starts from an empty store ([`Journal::create`]), so it never
/// replays a stale cell.
pub fn run_batch_resumable(
    entries: &[Entry],
    cfg: &RunnerConfig,
    journal: Option<&Journal>,
) -> BatchResult {
    let replicates = cfg.replicates.max(1);
    let n_tasks = entries.len() * replicates as usize;
    let budget = cfg.jobs.max(1);
    let workers = budget.min(n_tasks.max(1));
    let started = Instant::now();

    // Two-level split: the whole `--jobs` budget goes into the shared
    // pool, then each worker checks one slot out for as long as it lives.
    // The surplus (jobs > tasks) is immediately borrowable by replicate
    // sweeps inside the experiments; each worker's own slot returns to
    // the pool when it retires, so late-finishing experiments' sweeps
    // inherit the idle capacity.
    sweep::budget().configure(budget);
    let owned = sweep::budget().acquire_up_to(workers);

    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<OnceLock<ExperimentResult>> = (0..n_tasks).map(|_| OnceLock::new()).collect();

    let interrupted = || {
        cfg.interrupt
            .is_some_and(|flag| flag.load(Ordering::SeqCst))
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                loop {
                    // Cooperative interrupt: finish nothing new once the
                    // flag is up; in-flight tasks already past this check
                    // run to completion and reach the store.
                    if interrupted() {
                        break;
                    }
                    let task = next.fetch_add(1, Ordering::Relaxed);
                    if task >= n_tasks {
                        break;
                    }
                    // Task layout: entry-major, replicate-minor.
                    let entry = &entries[task / replicates as usize];
                    let replicate = (task % replicates as usize) as u64;
                    // Replicate 0 is the canonical run: same seed, same report
                    // as a direct sequential `entry.run(master_seed, profile)`.
                    // Extra replicates get decorrelated derived seeds.
                    let seed = if replicate == 0 {
                        cfg.master_seed
                    } else {
                        derive_seed(cfg.master_seed, entry.id, replicate)
                    };
                    if let Some(stored) = journal.and_then(|j| j.replay(entry.id, replicate, seed)) {
                        let fresh = slots[task].set(stored).is_ok();
                        debug_assert!(fresh, "task {task} claimed twice");
                        continue;
                    }

                    let rss_reset = reset_peak_rss();
                    let run = cell::compute(entry, seed, cfg.profile, Limits::default());
                    let (report, panic) = match run.outcome {
                        Outcome::Ok(report) => (report, None),
                        Outcome::Deadline(msg) | Outcome::Panic(msg) => {
                            (panic_report(entry, seed, &msg), Some(msg))
                        }
                    };
                    let result = ExperimentResult {
                        id: entry.id,
                        replicate,
                        seed,
                        report,
                        panic,
                        timing: Timing {
                            wall_s: run.wall_s,
                            events_scheduled: run.meter.count(Counter::EventsScheduled),
                            events_dispatched: run.meter.count(Counter::EventsDispatched),
                            peak_queue_depth: run.meter.gauge(Gauge::PeakQueueDepth) as usize,
                            peak_rss_kib: peak_rss_kib(),
                            peak_rss_is_process_max: !rss_reset,
                        },
                        audit: Tally::of(&run.meter),
                        meter: run.meter,
                        replayed: false,
                    };
                    // Store before publishing the slot: after `record`
                    // returns, the cell is durable (fsynced). A store I/O
                    // error is reported but doesn't fail the run — the
                    // cell just isn't resumable.
                    if let Some(Err(e)) = journal.map(|j| j.record(&result)) {
                        eprintln!(
                            "warning: cannot store {} replicate {}: {e}",
                            result.id, result.replicate
                        );
                    }
                    if cfg.progress {
                        let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                        let status = if result.panic.is_some() {
                            "PANIC"
                        } else if result.report.all_ok() {
                            "ok"
                        } else {
                            "MISMATCH"
                        };
                        eprintln!(
                            "[{finished}/{n_tasks}] {} (seed {seed}): {status} in {:.1}s, {} events, peak queue {}",
                            entry.id,
                            result.timing.wall_s,
                            result.timing.events_dispatched,
                            result.timing.peak_queue_depth
                        );
                    }
                    let stored = slots[task].set(result).is_ok();
                    debug_assert!(stored, "task {task} claimed twice");
                }
                // Retired: hand this worker's slot to in-flight sweeps.
                sweep::budget().release(1);
            });
        }
    });
    // Workers released their own slots as they retired; `owned` tracks
    // what this function checked out, and the clamp in `release` keeps
    // the arithmetic honest even if a concurrent batch reconfigured the
    // pool mid-run.
    sweep::budget().release(owned.saturating_sub(workers));

    // An interrupted batch leaves unclaimed slots empty; only completed
    // cells are returned, still in deterministic task order.
    let results: Vec<ExperimentResult> = slots.into_iter().filter_map(|s| s.into_inner()).collect();
    let interrupted = interrupted() || results.len() < n_tasks;
    let journal_replayed = results.iter().filter(|r| r.replayed).count() as u64;
    BatchResult {
        results,
        jobs: budget,
        profile: cfg.profile,
        master_seed: cfg.master_seed,
        total_wall_s: started.elapsed().as_secs_f64(),
        interrupted,
        journal_replayed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::find;

    #[test]
    fn derive_seed_is_stable_and_separating() {
        assert_eq!(derive_seed(1, "fig2", 1), derive_seed(1, "fig2", 1));
        assert_ne!(derive_seed(1, "fig2", 1), derive_seed(2, "fig2", 1));
        assert_ne!(derive_seed(1, "fig2", 1), derive_seed(1, "fig3", 1));
        assert_ne!(derive_seed(1, "fig2", 1), derive_seed(1, "fig2", 2));
        // Id, master, and replicate must not be interchangeable by
        // concatenation-style collisions: nearby cells stay distinct.
        let mut seen = std::collections::HashSet::new();
        for master in 0..20u64 {
            for id in ["fig2", "fig3", "fig45", "modes"] {
                for replicate in 1..4u64 {
                    assert!(seen.insert(derive_seed(master, id, replicate)), "collision");
                }
            }
        }
    }

    #[test]
    fn batch_results_are_registry_ordered() {
        let entries = vec![find("short-flows").unwrap(), find("fig8").unwrap()];
        let cfg = RunnerConfig {
            jobs: 2,
            replicates: 2,
            ..RunnerConfig::new()
        };
        let batch = run_batch(&entries, &cfg);
        let order: Vec<_> = batch.results.iter().map(|r| (r.id, r.replicate)).collect();
        assert_eq!(
            order,
            vec![
                ("short-flows", 0),
                ("short-flows", 1),
                ("fig8", 0),
                ("fig8", 1)
            ]
        );
        assert_eq!(batch.primary().count(), 2);
        let (passes, total) = batch.pass_count("fig8");
        assert_eq!(total, 2);
        assert!(passes <= 2);
        // Replicate timing aggregates fold in registry order.
        let by_id = batch.wall_s_by_id();
        assert_eq!(by_id.len(), 2);
        assert_eq!(by_id[0].0, "short-flows");
        assert_eq!(by_id[0].1.count(), 2);
        assert_eq!(by_id[1].0, "fig8");
    }

    #[test]
    fn timings_json_is_well_formed() {
        let entries = vec![find("short-flows").unwrap()];
        let batch = run_batch(
            &entries,
            &RunnerConfig {
                jobs: 1,
                ..RunnerConfig::new()
            },
        );
        let json = batch.timings_json();
        for key in [
            "\"master_seed\"",
            "\"jobs\"",
            "\"profile\": \"quick\"",
            "\"total_wall_s\"",
            "\"panicked\": 0",
            "\"experiments\"",
            "\"id\": \"short-flows\"",
            "\"panic\": null",
            "\"events_dispatched\"",
            "\"peak_queue_depth\"",
            "\"wall_s_by_id\"",
            "\"mean_s\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Counters must be live, not zero: the experiment really ran.
        let r = &batch.results[0];
        assert!(r.timing.events_dispatched > 0);
        assert!(r.timing.peak_queue_depth > 0);
        assert!(r.timing.events_scheduled >= r.timing.events_dispatched);
        assert!(json.matches("{\"id\"").count() == 1 || json.contains("{\"id\": "));
    }

    /// The pre-cell watermark reset makes `peak_rss_kib` per-cell: a
    /// small cell running after a large one must record its own (much
    /// lower) peak, not inherit the large cell's. On kernels without
    /// `clear_refs` support the flag marks the reading process-max and
    /// the drop can't be asserted.
    #[test]
    fn peak_rss_is_per_cell_after_reset() {
        fn touch(mib: usize) -> u64 {
            // One big allocation, touched page by page so it is resident;
            // sized past the malloc mmap threshold so dropping it really
            // returns the pages to the kernel.
            let mut buf = vec![0u8; mib << 20];
            for i in (0..buf.len()).step_by(4096) {
                buf[i] = 1;
            }
            u64::from(buf[buf.len() / 2])
        }
        let entries = vec![
            Entry::new("rss-large", "allocates 128 MiB (test fixture)", |_, _| {
                let live = touch(128);
                Report::new("rss-large", "large", &format!("touched {live}"))
            }),
            Entry::new("rss-small", "allocates 1 MiB (test fixture)", |_, _| {
                let live = touch(1);
                Report::new("rss-small", "small", &format!("touched {live}"))
            }),
        ];
        // jobs = 1: one worker, strictly large-then-small, one watermark.
        let batch = run_batch(
            &entries,
            &RunnerConfig {
                jobs: 1,
                ..RunnerConfig::new()
            },
        );
        let large = &batch.results[0].timing;
        let small = &batch.results[1].timing;
        if large.peak_rss_is_process_max || small.peak_rss_is_process_max {
            eprintln!("kernel lacks clear_refs peak-RSS reset; skipping drop assertion");
            return;
        }
        assert!(
            large.peak_rss_kib >= 128 * 1024,
            "large cell peak {} KiB below its own allocation",
            large.peak_rss_kib
        );
        assert!(
            small.peak_rss_kib + 64 * 1024 <= large.peak_rss_kib,
            "small cell ({} KiB) inherited the large cell's watermark ({} KiB)",
            small.peak_rss_kib,
            large.peak_rss_kib
        );
    }

    #[test]
    fn panicking_task_fails_without_aborting_the_batch() {
        let entries = vec![
            find("short-flows").unwrap(),
            Entry::new(
                "panic-probe",
                "deliberately panics (test fixture)",
                |seed, _| panic!("injected failure at seed {seed}"),
            ),
            find("fig8").unwrap(),
        ];
        let batch = run_batch(
            &entries,
            &RunnerConfig {
                jobs: 2,
                master_seed: 7,
                ..RunnerConfig::new()
            },
        );
        assert_eq!(batch.results.len(), 3, "all tasks produced results");
        let probe = &batch.results[1];
        assert_eq!(probe.id, "panic-probe");
        assert!(!probe.report.all_ok(), "panic counts as failure");
        assert_eq!(probe.panic.as_deref(), Some("injected failure at seed 7"));
        assert!(batch.results[0].report.all_ok() && batch.results[0].panic.is_none());
        assert!(batch.results[2].report.all_ok() && batch.results[2].panic.is_none());
        assert!(!batch.all_ok());
        assert_eq!(
            batch.panics(),
            vec![("panic-probe", 0, "injected failure at seed 7")]
        );
        // The panic message survives into timings.json, escaped.
        let json = batch.timings_json();
        assert!(json.contains("\"panicked\": 1"));
        assert!(json.contains("\"panic\": \"injected failure at seed 7\""));
    }

    #[test]
    fn preset_interrupt_flag_stops_before_any_work() {
        static FLAG: AtomicBool = AtomicBool::new(true);
        let entries = vec![find("short-flows").unwrap()];
        let cfg = RunnerConfig {
            jobs: 1,
            interrupt: Some(&FLAG),
            ..RunnerConfig::new()
        };
        let batch = run_batch(&entries, &cfg);
        assert!(batch.interrupted);
        assert!(batch.results.is_empty(), "no task should have been claimed");
        assert!(batch.timings_json().contains("\"interrupted\": true"));
    }

    /// A second pass over a sweep's store replays every cell, byte for
    /// byte, and runs none.
    #[test]
    fn stored_cells_replay_byte_identically() {
        use crate::journal::{Journal, JournalHeader};
        let dir = std::env::temp_dir().join(format!(
            "td-runner-replay-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let entries = vec![find("short-flows").unwrap(), find("fig8").unwrap()];
        let cfg = RunnerConfig {
            jobs: 2,
            master_seed: 7,
            replicates: 2,
            ..RunnerConfig::new()
        };
        let header = JournalHeader {
            master_seed: cfg.master_seed,
            profile: cfg.profile,
            replicates: cfg.replicates,
            ids: entries.iter().map(|e| e.id.to_owned()).collect(),
        };
        let journal = Journal::create(&dir, &header).unwrap();
        let first = run_batch_resumable(&entries, &cfg, Some(&journal));
        assert!(!first.interrupted);
        assert_eq!(first.journal_replayed, 0);

        let (journal, got_header) = Journal::open(&dir).unwrap();
        assert_eq!(got_header, header);
        let second = run_batch_resumable(&entries, &cfg, Some(&journal));
        assert_eq!(second.journal_replayed, 4);
        assert_eq!(first.results.len(), second.results.len());
        for (a, b) in first.results.iter().zip(&second.results) {
            assert_eq!((a.id, a.replicate, a.seed), (b.id, b.replicate, b.seed));
            assert_eq!(a.report.to_string(), b.report.to_string());
            assert_eq!(a.report.csvs, b.report.csvs);
            assert_eq!(a.report.blobs, b.report.blobs);
            assert!(!a.replayed && b.replayed);
            assert_eq!(b.timing.events_dispatched, 0, "replays carry no timing");
        }
        assert!(second.timings_json().contains("\"journal_replayed\": 4"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
