//! Robustness plumbing, end to end: a forced invariant violation and a
//! forced stall must each surface as structured data in `timings.json` —
//! never as a panic, a hang, or a silently green batch.

use std::any::Any;
use td_engine::{Rate, SimDuration, SimTime};
use td_experiments::registry::{Entry, Profile};
use td_experiments::runner::{run_batch, RunnerConfig};
use td_experiments::Report;
use td_net::{
    Ctx, DisciplineKind, Endpoint, EndpointProgress, Packet, RunOutcome, WatchdogConfig, World,
};

fn one_job() -> RunnerConfig {
    RunnerConfig {
        jobs: 1,
        profile: Profile::Quick,
        master_seed: 1,
        replicates: 1,
        progress: false,
        interrupt: None,
    }
}

/// An experiment whose run trips the auditor (via the test-only hook —
/// real violations require a broken simulator).
fn violating(_seed: u64, _profile: Profile) -> Report {
    td_net::audit::inject_violation_for_test("forced by chaos_robustness");
    Report::new(
        "force-violation",
        "forced audit violation",
        "test-only hook",
    )
}

#[test]
fn forced_violation_surfaces_in_timings_json() {
    let entries = [Entry::new(
        "force-violation",
        "trips the invariant auditor on purpose",
        violating,
    )];
    let batch = run_batch(&entries, &one_job());
    let json = batch.timings_json();
    assert!(
        json.contains("\"audit_violations\": 1"),
        "violation count missing from timings.json:\n{json}"
    );
    assert!(
        json.contains("forced by chaos_robustness"),
        "violation detail missing from timings.json:\n{json}"
    );
}

/// Claims unfinished work but never schedules an event, so the queue
/// drains immediately: a textbook deadlock for the watchdog.
struct Wedged;
impl Endpoint for Wedged {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn progress(&self) -> EndpointProgress {
        EndpointProgress {
            finished: Some(false),
            detail: "wedged on purpose".to_owned(),
        }
    }
}

/// Where the watchdog drops post-mortem snapshots; CI uploads this
/// directory as an artifact after the forced-stall test runs.
fn post_mortem_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("postmortem")
}

/// Two hosts, one wedged connection: the minimal world that deadlocks.
/// Built identically on every call so a post-mortem snapshot from one
/// instance restores onto a fresh "twin" instance.
fn wedged_world() -> World {
    let mut w = World::new(1);
    let h0 = w.add_host("H0", SimDuration::from_micros(100));
    let h1 = w.add_host("H1", SimDuration::from_micros(100));
    for (a, b) in [(h0, h1), (h1, h0)] {
        w.add_channel(
            a,
            b,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
    }
    let ep = w.attach(h0, h1, td_net::ConnId(0), Box::new(Wedged));
    w.start_at(ep, SimTime::ZERO);
    w
}

/// An experiment whose world stalls; the watchdog verdict goes into the
/// report's diagnostics instead of hanging or panicking, and the stalled
/// world is dumped as a post-mortem snapshot.
fn stalling(_seed: u64, _profile: Profile) -> Report {
    let mut w = wedged_world();
    let outcome = w.run_until_quiescent(
        SimTime::ZERO + SimDuration::from_secs(10),
        &WatchdogConfig {
            post_mortem_dir: Some(post_mortem_dir()),
            ..WatchdogConfig::default()
        },
    );
    let mut rep = Report::new("force-stall", "forced stall", "wedged endpoint");
    match &outcome {
        RunOutcome::Stalled(stall) => rep.diagnostic(stall.render()),
        other => rep.diagnostic(format!("expected a stall, got {other:?}")),
    }
    rep.check(
        "stall detected",
        "watchdog reports a deadlock",
        format!("{}", outcome.is_stalled()),
        outcome.is_stalled(),
    );
    rep
}

#[test]
fn forced_stall_surfaces_in_timings_json() {
    let entries = [Entry::new(
        "force-stall",
        "wedges an endpoint on purpose",
        stalling,
    )];
    let batch = run_batch(&entries, &one_job());
    assert!(batch.all_ok(), "stall verdict missing from the report");
    let json = batch.timings_json();
    assert!(
        json.contains("stall: deadlock"),
        "stall report missing from timings.json:\n{json}"
    );
    assert!(
        json.contains("wedged on purpose"),
        "stuck-connection detail missing from timings.json:\n{json}"
    );
    // The stalled world was dumped as a post-mortem snapshot: the file
    // exists on disk (CI uploads the directory as an artifact), the
    // stall report names it, and the snapshot counter saw the dump.
    assert!(
        json.contains("post-mortem snapshot:"),
        "stall report doesn't name the post-mortem file:\n{json}"
    );
    let dumps: Vec<_> = std::fs::read_dir(post_mortem_dir())
        .expect("post-mortem dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".tdsnap"))
        .collect();
    assert!(!dumps.is_empty(), "no .tdsnap post-mortem file written");
    assert!(
        batch.results[0]
            .meter
            .count(td_engine::meter::Counter::SnapshotsTaken)
            >= 1,
        "post-mortem snapshot not counted in the cell's meter"
    );
    assert!(json.contains("\"snapshots_taken\""));
    // The dump is a loadable snapshot, not just bytes on disk.
    let loaded = td_net::Snapshot::read_from_file(&dumps[0].path());
    assert!(loaded.is_ok(), "post-mortem snapshot unreadable");
}

/// A post-mortem dump is not merely loadable — restoring it onto a
/// structurally identical twin world reproduces the dumped state
/// byte-for-byte, so the post-mortem loop (dump at stall, restore
/// offline, inspect) is lossless. Uses its own dump directory so the
/// other stall test's artifacts can't mask a missing file.
#[test]
fn post_mortem_snapshot_round_trips_onto_twin() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("postmortem-roundtrip");
    let _ = std::fs::remove_dir_all(&dir);
    let mut w = wedged_world();
    let outcome = w.run_until_quiescent(
        SimTime::ZERO + SimDuration::from_secs(10),
        &WatchdogConfig {
            post_mortem_dir: Some(dir.clone()),
            ..WatchdogConfig::default()
        },
    );
    assert!(outcome.is_stalled(), "wedged world failed to stall");
    let dump = std::fs::read_dir(&dir)
        .expect("post-mortem dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "tdsnap"))
        .expect("watchdog wrote a .tdsnap dump");
    let bytes = std::fs::read(&dump).unwrap();
    let snap = td_net::Snapshot::read_from_file(&dump).unwrap();
    let mut twin = wedged_world();
    twin.restore(&snap).expect("restore onto structural twin");
    assert_eq!(
        twin.snapshot().as_bytes(),
        &bytes[..],
        "restored twin re-snapshots to different bytes than the dump"
    );
}
