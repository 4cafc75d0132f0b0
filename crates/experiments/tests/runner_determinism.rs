//! The parallel harness must not be able to change results: for the same
//! master seed, `--jobs N` output is byte-identical to `--jobs 1`.

use td_experiments::registry::{find, registry};
use td_experiments::runner::{run_batch, RunnerConfig};

/// Full observable surface of a report: rendered text, markdown, CSV and
/// blob bytes.
fn rendered(batch: &td_experiments::runner::BatchResult) -> Vec<(String, Vec<u8>)> {
    batch
        .results
        .iter()
        .map(|r| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(r.report.to_string().as_bytes());
            bytes.extend_from_slice(r.report.markdown_table().as_bytes());
            for (name, csv) in &r.report.csvs {
                bytes.extend_from_slice(name.as_bytes());
                bytes.extend_from_slice(csv.as_bytes());
            }
            for (name, blob) in &r.report.blobs {
                bytes.extend_from_slice(name.as_bytes());
                bytes.extend_from_slice(blob);
            }
            (format!("{}#{}", r.id, r.replicate), bytes)
        })
        .collect()
}

/// FNV-1a over `id ‖ bytes` of every rendered result, in batch order —
/// the workspace's stable hash, so a golden value pins output bytes, not
/// formatting luck.
fn batch_digest(batch: &td_experiments::runner::BatchResult) -> u64 {
    rendered(batch)
        .iter()
        .fold(td_engine::fnv1a(&[]), |h, (id, bytes)| {
            td_engine::fnv1a_continue(td_engine::fnv1a_continue(h, id.as_bytes()), bytes)
        })
}

#[test]
fn parallel_run_is_byte_identical_to_sequential() {
    let entries = || vec![find("fig8").unwrap(), find("short-flows").unwrap()];
    let base = RunnerConfig {
        master_seed: 7,
        replicates: 1,
        ..RunnerConfig::new()
    };
    let seq = run_batch(&entries(), &RunnerConfig { jobs: 1, ..base });
    let par = run_batch(&entries(), &RunnerConfig { jobs: 4, ..base });

    assert_eq!(seq.results.len(), par.results.len());
    for ((id_a, bytes_a), (id_b, bytes_b)) in rendered(&seq).iter().zip(rendered(&par).iter()) {
        assert_eq!(id_a, id_b, "result order depends on pool size");
        assert_eq!(
            bytes_a, bytes_b,
            "{id_a}: parallel report differs from sequential"
        );
    }
    // Seeds and simulated work must match too, not just the rendering.
    for (a, b) in seq.results.iter().zip(&par.results) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.timing.events_dispatched, b.timing.events_dispatched);
        assert_eq!(a.timing.peak_queue_depth, b.timing.peak_queue_depth);
    }
}

/// The two-level split (workers + borrowed replicate-sweep slots) must be
/// invisible in the output: multi-replicate batches are byte-identical
/// across job budgets, including budgets larger than the task count
/// (where the surplus is what in-experiment sweeps borrow).
#[test]
fn replicated_runs_are_byte_identical_across_job_budgets() {
    let entries = || vec![find("short-flows").unwrap()];
    let base = RunnerConfig {
        master_seed: 7,
        replicates: 3,
        ..RunnerConfig::new()
    };
    let seq = run_batch(&entries(), &RunnerConfig { jobs: 1, ..base });
    let par = run_batch(&entries(), &RunnerConfig { jobs: 8, ..base });

    let (a, b) = (rendered(&seq), rendered(&par));
    assert_eq!(a, b, "replicate output depends on the job budget");
    // Replicate seeds are pure functions of (master, id, replicate):
    // replicate 0 is the master verbatim, the rest are derived and
    // distinct.
    assert_eq!(seq.results[0].seed, 7);
    let mut seeds: Vec<u64> = seq.results.iter().map(|r| r.seed).collect();
    let n = seeds.len();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), n, "replicate seeds must not collide");
}

/// Cross-version regression pin: the hash below was recorded from the
/// pre-slab `EventQueue` (`BinaryHeap` + lazy cancellation). Any engine
/// change that perturbs event ordering — and therefore any experiment
/// byte — flips this hash. If it fails, the queue changed observable
/// simulation behaviour; that is a bug, not a baseline to re-record.
///
/// Since the fault subsystem landed, `Scenario::run` installs a
/// `FaultPlan::NONE` on both bottleneck channels of every experiment, so
/// this pin also asserts that a compiled-in-but-disabled fault plan (and
/// the always-on invariant auditor) is byte-invisible.
#[test]
fn experiment_output_bytes_match_golden_hash() {
    let entries = vec![find("fig8").unwrap(), find("short-flows").unwrap()];
    let batch = run_batch(
        &entries,
        &RunnerConfig {
            jobs: 2,
            master_seed: 7,
            replicates: 1,
            ..RunnerConfig::new()
        },
    );
    let h = batch_digest(&batch);
    assert_eq!(
        h, GOLDEN_OUTPUT_HASH,
        "experiment output bytes diverged from the pre-change engine \
         (got {h:#018x})"
    );
}

/// FNV-1a of the rendered fig8 + short-flows batch (seed 7, quick profile),
/// recorded against the pre-slab binary-heap event queue.
const GOLDEN_OUTPUT_HASH: u64 = 0xb4f1_f25c_be23_ce63;

/// Registry-wide pin: the golden hash above covers two entries; this one
/// covers every visible entry, so a change to the analysis path of any
/// figure (queue / cwnd / drops / clustering / utilization) shows up as a
/// flipped digest instead of a silently different table.
#[test]
fn whole_registry_output_bytes_match_digest() {
    let entries = registry();
    assert_eq!(entries.len(), 23, "visible registry size changed");
    let batch = run_batch(
        &entries,
        &RunnerConfig {
            jobs: 1,
            master_seed: 7,
            replicates: 1,
            ..RunnerConfig::new()
        },
    );
    let h = batch_digest(&batch);
    assert_eq!(
        h, REGISTRY_OUTPUT_DIGEST,
        "quick-profile registry output diverged (got {h:#018x})"
    );
}

/// FNV-1a of all 23 visible registry entries rendered at seed 7, quick
/// profile, `jobs = 1`; re-recorded when every world moved queue-discipline
/// draws onto per-channel streams and `PoissonSource` onto a stream of its
/// own, which changed `crosstraffic`, `abl-red` and `abl-discipline` and
/// no other entry.
const REGISTRY_OUTPUT_DIGEST: u64 = 0x0c24_1752_308f_efc1;

/// The `experiments[*]` rows of `timings.json` with the wall-clock and RSS
/// keys cut out: what is left — event, audit, snapshot and model-check
/// counters, report metrics, diagnostics — is a pure function of the seed.
fn masked_timing_rows(batch: &td_experiments::runner::BatchResult) -> String {
    let json = batch.timings_json();
    let rows = json
        .split_once("\"experiments\": [\n")
        .and_then(|(_, rest)| rest.split_once("  ],\n"))
        .expect("timings.json has an experiments array")
        .0;
    let mut out = String::new();
    for row in rows.lines() {
        let mut row = row.to_owned();
        for key in ["wall_s", "peak_rss_kib", "peak_rss_is_process_max"] {
            let needle = format!("\"{key}\": ");
            let start = row.find(&needle).expect("masked key present");
            let len = row[start..].find(", ").expect("a key follows") + 2;
            row.replace_range(start..start + len, "");
        }
        out.push_str(&row);
        out.push('\n');
    }
    out
}

/// Counter pin: every number a cell's meters put into `timings.json` —
/// events scheduled / dispatched, peak queue depth, audit violations,
/// snapshots taken / restored, the `mc` block — must not depend on which
/// thread ran which sweep item. `jobs = 8` leaves surplus slots, so
/// `parallel_map` helpers really run and their deltas really merge;
/// `modes` fans out replicates, `chaos` snapshots post-mortems, hidden
/// `mc_fig45` explores with snapshot / restore.
#[test]
fn timings_counters_match_digest_at_any_job_count() {
    let entries = || -> Vec<_> {
        ["fig45", "modes", "chaos", "mc_fig45"]
            .iter()
            .map(|id| find(id).unwrap())
            .collect()
    };
    let base = RunnerConfig {
        master_seed: 1,
        replicates: 1,
        ..RunnerConfig::new()
    };
    let seq = masked_timing_rows(&run_batch(&entries(), &RunnerConfig { jobs: 1, ..base }));
    let par = masked_timing_rows(&run_batch(&entries(), &RunnerConfig { jobs: 8, ..base }));
    assert_eq!(seq, par, "timings.json counters depend on the job budget");
    let h = td_engine::fnv1a(seq.as_bytes());
    assert_eq!(
        h, TIMINGS_COUNTERS_DIGEST,
        "timings.json counters diverged (got {h:#018x}):\n{seq}"
    );
}

/// FNV-1a of the masked `timings.json` rows of fig45 + modes + chaos +
/// mc_fig45 (seed 1, quick profile). Re-recorded when `modes` stopped
/// simulating its first in-phase seed a second time for the drop
/// pattern: its row fell from 1 954 925 to 1 866 283 events dispatched
/// and from 2 083 666 to 1 989 282 scheduled; every other counter, and
/// every report byte, is unchanged.
const TIMINGS_COUNTERS_DIGEST: u64 = 0xf065_d1fe_f9b6_3741;

/// The robustness instrumentation must observe, never perturb: the same
/// scenario run with and without the watchdog (which threads every event
/// through stall accounting and the auditor's delivery counter) produces
/// the identical trace, event for event.
#[test]
fn watchdog_instrumentation_is_byte_invisible() {
    use td_engine::SimDuration;
    use td_experiments::scenario::{ConnSpec, Scenario};

    let mut sc = Scenario::paper(1, 20, SimDuration::from_millis(10), Some(20))
        .with_fwd(1, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    sc.warmup = SimDuration::from_secs(2);
    let plain = sc.run();
    sc.watchdog = Some(td_net::WatchdogConfig::default());
    let watched = sc.run();
    assert_eq!(
        plain.world.events_dispatched(),
        watched.world.events_dispatched(),
        "watchdog changed the event stream"
    );
    let bytes = |run: &td_experiments::scenario::Run| format!("{:?}", run.world.trace().records());
    assert_eq!(
        bytes(&plain),
        bytes(&watched),
        "watchdog changed the recorded trace"
    );
    assert!(watched.outcome.is_some());
    assert_eq!(plain.world.audit().total_violations(), 0);
}
