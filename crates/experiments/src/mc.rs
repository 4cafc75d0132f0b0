//! Bounded model checking of the fig45 scenario (`mc_fig45`,
//! `td-repro mc`).
//!
//! [`td_net::mc`] provides the generic explorer: snapshot at a decision
//! point, try every fault placement, restore for the siblings, dedup
//! convergent states by canonical hash, and audit every segment. This
//! module aims it at the paper's most dynamics-rich scenario — the 1+1
//! two-way fig45 run — by answering the scenario-specific questions:
//!
//! * **Where to branch.** A probe run (streamed analysis, no trace)
//!   locates the first congestion epoch after warm-up with
//!   [`detect_epochs`]; the decision grid spans one epoch cycle — from
//!   that epoch's first loss to the next epoch's onset (capped) — which
//!   is exactly the window where the paper's out-of-phase machinery
//!   (double loss, roles alternating, square-wave ACK compression) is in
//!   flight and most worth perturbing.
//! * **What to branch on.** Outages and forced single drops on the two
//!   bottleneck channels, the only contended resources in the dumbbell.
//! * **What must hold.** Zero audit violations and zero stalls on every
//!   explored path; the exploration counters themselves are a pure
//!   function of `(seed, params)` and are pinned in tests and CI.
//!
//! The seeded-violation mode inverts the game to prove the detector
//! works end to end: a prelude installs an impossible window bound after
//! the run-in, every first-level branch then trips the `window-bound`
//! invariant, and each counterexample's `TDMC` schedule replays — via
//! [`replay_fig45`] or `td-repro mc --replay` — to the identical
//! violation record.

use crate::fig45;
use crate::registry::Profile;
use crate::report::Report;
use std::path::PathBuf;
use td_analysis::epochs::detect_epochs;
use td_engine::{SimDuration, SimTime};
use td_net::mc::{self, McConfig, McSchedule, McStats, ReplayOutcome};
use td_net::{ChannelId, ConnId, WatchdogConfig, World};

/// Probe run length (simulated seconds) used to locate the congestion
/// epoch. Also the nominal duration the explorer's world is built with;
/// the world's structure does not depend on it.
const PROBE_SECS: u64 = 200;

/// Safety margin the horizon extends past the last grid point, so the
/// final segment observes the consequences of a decision made late in
/// the epoch.
const HORIZON_MARGIN: SimDuration = SimDuration::from_secs(5);

/// Cap on the explored window: keeps one segment's re-execution cost
/// bounded even if the probe finds a single late epoch.
const MAX_WINDOW: SimDuration = SimDuration::from_secs(40);

/// Scenario-specific exploration parameters.
#[derive(Clone, Debug)]
pub struct McParams {
    /// World seed (the probe, the exploration, and any replay share it).
    pub seed: u64,
    /// Number of decision points spread across the epoch window.
    pub grid_points: usize,
    /// Outage length branched at every decision point.
    pub outage: SimDuration,
    /// Also branch on one forced packet drop per bottleneck channel.
    pub enable_drops: bool,
    /// Depth budget: at most this many non-skip decisions per path.
    pub max_decisions: usize,
    /// State budget: at most this many segment executions.
    pub max_states: u64,
    /// Seed a deliberate window-bound violation after the run-in
    /// (acceptance harness for the counterexample pipeline).
    pub seeded_violation: bool,
    /// Where counterexample artifacts (`cex-<i>.tdmc` / `.tdsnap`) go.
    pub artifact_dir: Option<PathBuf>,
}

impl McParams {
    /// CI-sized exploration: 4 decision points, one fault per path.
    pub fn quick(seed: u64) -> Self {
        McParams {
            seed,
            grid_points: 4,
            outage: SimDuration::from_secs(2),
            enable_drops: true,
            max_decisions: 1,
            max_states: 512,
            seeded_violation: false,
            artifact_dir: None,
        }
    }

    /// Deeper sweep: 5 decision points, up to two faults per path.
    pub fn full(seed: u64) -> Self {
        McParams {
            grid_points: 5,
            max_decisions: 2,
            max_states: 2048,
            ..Self::quick(seed)
        }
    }

    /// The parameter set a registry profile maps to.
    pub fn for_profile(seed: u64, profile: Profile) -> Self {
        match profile {
            Profile::Quick => Self::quick(seed),
            Profile::Full => Self::full(seed),
        }
    }
}

/// One finished exploration: the counters plus the window it searched.
#[derive(Debug)]
pub struct McRun {
    /// Explorer counters and counterexamples.
    pub stats: McStats,
    /// The decision grid used.
    pub grid: Vec<SimTime>,
    /// The exploration horizon.
    pub horizon: SimTime,
}

/// Build the fig45 world the explorer (and any replay) runs on: same
/// topology, connections, and seed-derived start jitter as the figure
/// reproduction, trace recording off (the canonical state hash excludes
/// the trace, and branches would otherwise accumulate dead records).
/// Returns the world plus the two bottleneck channel ids.
pub fn build_fig45_world(seed: u64) -> (World, ChannelId, ChannelId) {
    let mut sc = fig45::scenario(seed, PROBE_SECS, 20);
    sc.record_trace = false;
    let run = sc.build();
    (run.world, run.bottleneck_12, run.bottleneck_21)
}

/// The seeded-violation prelude: an impossible bound on the forward
/// connection's window, so every subsequent cwnd sample trips the
/// `window-bound` invariant. Exploration and replay must apply the
/// identical prelude (see [`McSchedule::seeded_violation`]).
fn seeded_prelude(w: &mut World) {
    w.set_window_bound(ConnId(0), 1.0);
}

/// Probe the scenario for its first congestion epoch after warm-up and
/// return the exploration window `[start, end)`.
fn probe_window(seed: u64) -> (SimTime, SimTime) {
    let run = fig45::scenario(seed, PROBE_SECS, 20).trace_free().run();
    let drops = run.drops();
    let epochs = detect_epochs(&drops, SimDuration::from_secs(4));
    let (i, epoch) = epochs
        .iter()
        .enumerate()
        .find(|(_, e)| e.t_start >= run.t0)
        .expect("mc: probe found no congestion epoch inside the measurement window");
    // One epoch cycle: this epoch's onset up to the next epoch's onset
    // (the loss -> recovery -> next loss arc), capped to bound the cost
    // of re-executing a segment.
    let cycle_end = match epochs.get(i + 1) {
        Some(next) => next.t_start,
        None => epoch.t_end + SimDuration::from_secs(20),
    };
    let end = cycle_end.min(epoch.t_start + MAX_WINDOW);
    (epoch.t_start, end)
}

/// The [`McConfig`] a parameter set expands to over window
/// `[start, end)` on channels `b12` / `b21`.
fn config_for(
    p: &McParams,
    start: SimTime,
    end: SimTime,
    b12: ChannelId,
    b21: ChannelId,
) -> McConfig {
    let span_ns = end.since(start).as_nanos();
    let g = p.grid_points.max(1) as u64;
    let grid = (0..g)
        .map(|i| start + SimDuration::from_nanos(span_ns * i / g))
        .collect();
    McConfig {
        grid,
        horizon: end + HORIZON_MARGIN,
        channels: vec![b12, b21],
        outage_durations: vec![p.outage],
        enable_drops: p.enable_drops,
        max_decisions: p.max_decisions,
        max_states: p.max_states,
        watchdog: WatchdogConfig::default(),
        artifact_dir: p.artifact_dir.clone(),
        seeded_violation: p.seeded_violation,
    }
}

/// Probe for the epoch window, then explore the bounded fault space of
/// the fig45 scenario under `p`.
pub fn explore_fig45(p: &McParams) -> McRun {
    let (start, end) = probe_window(p.seed);
    let (mut world, b12, b21) = build_fig45_world(p.seed);
    let cfg = config_for(p, start, end, b12, b21);
    let stats = if p.seeded_violation {
        mc::explore_with_prelude(&mut world, &cfg, seeded_prelude)
    } else {
        mc::explore(&mut world, &cfg)
    };
    McRun {
        stats,
        grid: cfg.grid,
        horizon: cfg.horizon,
    }
}

/// Re-execute one `TDMC` schedule on a freshly built fig45 world (same
/// seed, same run-in, seeded prelude reapplied if the schedule was
/// explored under one). Determinism makes a counterexample schedule
/// reproduce its violation record exactly.
pub fn replay_fig45(sched: &McSchedule) -> ReplayOutcome {
    let (mut world, _, _) = build_fig45_world(sched.seed);
    let watchdog = WatchdogConfig::default();
    if sched.seeded_violation {
        mc::replay(&mut world, sched, &watchdog, seeded_prelude)
    } else {
        mc::replay(&mut world, sched, &watchdog, |_| {})
    }
}

/// The `mc_fig45` registry experiment: explore, then re-explore on a
/// fresh world and demand byte-identical counters.
pub fn report(seed: u64, profile: Profile) -> Report {
    let p = McParams::for_profile(seed, profile);
    let a = explore_fig45(&p);
    let b = explore_fig45(&p);
    let mut rep = Report::new(
        "mc_fig45",
        "Bounded model checking: fault placements across one fig45 congestion epoch",
        &format!(
            "seed {seed}, {} grid points in [{:.1} s, {:.1} s], outage {:.0} ms, \
             <= {} decision(s)/path, budget {} states",
            a.grid.len(),
            a.grid.first().map_or(0.0, |t| t.as_secs_f64()),
            a.horizon.as_secs_f64(),
            p.outage.as_secs_f64() * 1000.0,
            p.max_decisions,
            p.max_states
        ),
    );
    let s = &a.stats;
    rep.check(
        "counterexamples",
        "0 (audit invariants + watchdog hold on every explored path)",
        format!("{}", s.counterexamples.len()),
        s.counterexamples.is_empty(),
    );
    rep.check(
        "exploration coverage",
        "every branch within budget executed",
        format!(
            "{} states visited, {} deduped, {} pruned, max depth {}",
            s.states_visited, s.states_deduped, s.states_pruned, s.max_depth
        ),
        s.states_visited > 0 && s.max_depth as usize == p.max_decisions,
    );
    let twin_equal = s.states_visited == b.stats.states_visited
        && s.states_deduped == b.stats.states_deduped
        && s.states_pruned == b.stats.states_pruned
        && s.max_depth == b.stats.max_depth;
    rep.check(
        "deterministic re-exploration",
        "identical counters from a fresh world",
        format!(
            "{}/{}/{}/{} vs {}/{}/{}/{}",
            s.states_visited,
            s.states_deduped,
            s.states_pruned,
            s.max_depth,
            b.stats.states_visited,
            b.stats.states_deduped,
            b.stats.states_pruned,
            b.stats.max_depth
        ),
        twin_equal,
    );
    for cex in &s.counterexamples {
        let path: Vec<String> = cex
            .schedule
            .decisions
            .iter()
            .map(|&(gi, d)| format!("@{gi} {}", d.render()))
            .collect();
        rep.diagnostic(format!(
            "counterexample: [{}] violations: {:?} stall: {:?}",
            path.join(", "),
            cex.violations,
            cex.stall
        ));
    }
    rep.metric("mc_states_visited", s.states_visited as f64);
    rep.metric("mc_states_deduped", s.states_deduped as f64);
    rep.metric("mc_states_pruned", s.states_pruned as f64);
    rep.metric("mc_max_depth", s.max_depth as f64);
    rep.metric("mc_counterexamples", s.counterexamples.len() as f64);
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_finds_a_window_and_config_expands() {
        let (start, end) = probe_window(1);
        assert!(end > start);
        assert!(end.since(start) <= MAX_WINDOW);
        let p = McParams::quick(1);
        let cfg = config_for(&p, start, end, ChannelId(4), ChannelId(5));
        assert_eq!(cfg.grid.len(), 4);
        assert!(cfg.grid.windows(2).all(|w| w[0] < w[1]));
        assert!(cfg.horizon > *cfg.grid.last().unwrap());
    }

    #[test]
    fn profiles_differ_in_depth() {
        assert_eq!(McParams::for_profile(1, Profile::Quick).max_decisions, 1);
        assert_eq!(McParams::for_profile(1, Profile::Full).max_decisions, 2);
    }
}
