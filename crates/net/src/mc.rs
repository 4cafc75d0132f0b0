//! Bounded model checking: systematic exploration of fault placements
//! over snapshot state hashes.
//!
//! The simulator is a deterministic transition system: a [`World`]'s
//! mutable state plus a decision (inject an outage, force a drop, or do
//! nothing) at a decision point fully determines the next state. This
//! module explores that system bounded-exhaustively instead of sampling
//! one timeline per seed:
//!
//! * **Decision points** lie on a configured time grid (typically spanning
//!   one congestion epoch of the scenario under test). At each grid point
//!   the explorer branches over a [`Decision`] set derived from
//!   [`McConfig`]: skip, an outage of each candidate duration on each
//!   candidate channel, and optionally a single forced packet drop per
//!   channel.
//! * **Branching** snapshots the world at the decision point, explores one
//!   child to the next grid point, then [`World::restore`]s the snapshot
//!   to try the siblings — a depth-first search with an explicit frame
//!   stack, so the wall-clock cost of a branch is one segment re-execution,
//!   never a rebuild from t = 0.
//! * **Deduplication** hashes the canonical snapshot encoding with
//!   [`World::state_hash`] (streamed, trace-excluded): two paths that
//!   converge on identical mutable state evolve identically, so the
//!   subtree is explored once.
//! * **Checking**: every segment runs under
//!   [`World::run_until_quiescent`], so the PR 4 audit invariants and the
//!   stall watchdog are live on every path. A violation or stall becomes a
//!   [`Counterexample`]: the decision schedule (a `TDMC` v1 file) plus the
//!   pre-violation snapshot, replayable with [`replay`] (or
//!   `td-repro mc --replay`).
//!
//! Everything is deterministic — child order is fixed, the dedup set is
//! only tested for membership, and no wall-clock or thread state leaks in
//! — so visited/deduped/pruned counts are byte-reproducible and pinned in
//! tests and CI.

use crate::watchdog::{RunOutcome, WatchdogConfig};
use crate::world::{ChannelId, Snapshot, World};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use td_engine::meter::{self, Counter, Gauge};
use td_engine::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter};

/// One branch choice at a grid point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// No fault at this decision point.
    Skip,
    /// Take the channel down for `duration` starting at the grid point.
    Outage {
        /// Channel the outage hits.
        ch: ChannelId,
        /// Outage length (the window is `[grid point, grid point + duration)`).
        duration: SimDuration,
    },
    /// Force the next transmission completing on the channel to drop.
    Drop {
        /// Channel the drop hits.
        ch: ChannelId,
    },
}

impl Decision {
    /// Stable codec tag (TDMC v1).
    fn tag(self) -> u8 {
        match self {
            Decision::Skip => 0,
            Decision::Outage { .. } => 1,
            Decision::Drop { .. } => 2,
        }
    }

    /// One-line rendering for logs and reports.
    pub fn render(self) -> String {
        match self {
            Decision::Skip => "skip".into(),
            Decision::Outage { ch, duration } => {
                format!("outage ch{} {:.3}s", ch.0, duration.as_secs_f64())
            }
            Decision::Drop { ch } => format!("drop ch{}", ch.0),
        }
    }
}

/// Exploration bounds and branch vocabulary.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Decision instants, strictly increasing. The explorer runs the world
    /// to `grid[0]`, branches, runs each child to `grid[1]`, and so on;
    /// after the last grid point every path runs to `horizon`.
    pub grid: Vec<SimTime>,
    /// End of the final segment (must lie beyond the last grid point).
    pub horizon: SimTime,
    /// Channels eligible for decisions, in branch order.
    pub channels: Vec<ChannelId>,
    /// Candidate outage lengths, in branch order.
    pub outage_durations: Vec<SimDuration>,
    /// Also branch on one forced packet drop per channel.
    pub enable_drops: bool,
    /// Depth budget: at most this many non-skip decisions per path.
    /// Children beyond the budget are counted as pruned, not explored.
    pub max_decisions: usize,
    /// State budget: at most this many segment executions in total.
    /// Hitting it prunes the remaining frontier.
    pub max_states: u64,
    /// Watchdog policy for every segment (stall detection on every path).
    pub watchdog: WatchdogConfig,
    /// Where to write counterexample artifacts (`cex-<i>.tdmc` +
    /// `cex-<i>.tdsnap`); `None` keeps them in memory only.
    pub artifact_dir: Option<PathBuf>,
    /// Set when the exploration runs under a seeded-violation prelude
    /// ([`explore_with_prelude`]): recorded in every counterexample
    /// schedule so a replay driver knows to reapply the same prelude.
    pub seeded_violation: bool,
}

impl McConfig {
    /// Panic on a configuration the explorer cannot interpret: an empty or
    /// unsorted grid, a horizon inside the grid, or an empty branch
    /// vocabulary.
    fn validate(&self) {
        assert!(!self.grid.is_empty(), "mc: empty decision grid");
        for w in self.grid.windows(2) {
            assert!(
                w[0] < w[1],
                "mc: decision grid not strictly increasing at {:?} -> {:?}",
                w[0],
                w[1]
            );
        }
        let last = *self.grid.last().unwrap();
        assert!(
            self.horizon > last,
            "mc: horizon {:?} must lie beyond the last grid point {:?}",
            self.horizon,
            last
        );
        assert!(
            !self.channels.is_empty() && (!self.outage_durations.is_empty() || self.enable_drops),
            "mc: no decisions to branch over (no channels, or no durations and drops disabled)"
        );
    }

    /// The full child list at a decision point, in fixed branch order:
    /// skip first, then outages (channel-major), then drops.
    fn children(&self) -> Vec<Decision> {
        let mut kids = vec![Decision::Skip];
        for &ch in &self.channels {
            for &duration in &self.outage_durations {
                kids.push(Decision::Outage { ch, duration });
            }
        }
        if self.enable_drops {
            for &ch in &self.channels {
                kids.push(Decision::Drop { ch });
            }
        }
        kids
    }
}

/// A decision schedule — one root-to-leaf path of the exploration tree —
/// as written to / read from a `TDMC` v1 file.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct McSchedule {
    /// World seed the schedule was explored under.
    pub seed: u64,
    /// The decision grid of the exploration.
    pub grid: Vec<SimTime>,
    /// The exploration horizon.
    pub horizon: SimTime,
    /// True if the driver seeded a deliberate violation after the run-in
    /// (acceptance harness); replay must reapply the same prelude.
    pub seeded_violation: bool,
    /// `(grid index, decision)` pairs, one per grid point traversed, in
    /// grid order. Skips are stored explicitly so the path length states
    /// how far the run got.
    pub decisions: Vec<(u32, Decision)>,
}

impl McSchedule {
    /// File magic: "TDMC".
    pub const MAGIC: &'static [u8; 4] = b"TDMC";
    /// Current schedule format version.
    pub const VERSION: u32 = 1;

    /// Encode to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_header(Self::MAGIC, Self::VERSION);
        w.write_u64(self.seed);
        w.write_u64(self.grid.len() as u64);
        for &t in &self.grid {
            w.write_time(t);
        }
        w.write_time(self.horizon);
        w.write_bool(self.seeded_violation);
        w.write_u64(self.decisions.len() as u64);
        for &(gi, d) in &self.decisions {
            w.write_u32(gi);
            w.write_u8(d.tag());
            match d {
                Decision::Skip => {}
                Decision::Outage { ch, duration } => {
                    w.write_u32(ch.0);
                    w.write_dur(duration);
                }
                Decision::Drop { ch } => w.write_u32(ch.0),
            }
        }
        w.into_bytes()
    }

    /// Decode, refusing unknown versions.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.expect_header(Self::MAGIC, Self::VERSION..=Self::VERSION)?;
        let seed = r.read_u64()?;
        let n_grid = r.read_len()?;
        let mut grid = Vec::with_capacity(n_grid);
        for _ in 0..n_grid {
            grid.push(r.read_time()?);
        }
        let horizon = r.read_time()?;
        let seeded_violation = r.read_bool()?;
        let n_dec = r.read_len()?;
        let mut decisions = Vec::with_capacity(n_dec);
        for _ in 0..n_dec {
            let gi = r.read_u32()?;
            let d = match r.read_u8()? {
                0 => Decision::Skip,
                1 => {
                    let ch = ChannelId(r.read_u32()?);
                    let duration = r.read_dur()?;
                    Decision::Outage { ch, duration }
                }
                2 => Decision::Drop {
                    ch: ChannelId(r.read_u32()?),
                },
                k => return Err(SnapError::Corrupt(format!("unknown decision tag {k}"))),
            };
            decisions.push((gi, d));
        }
        r.finish()?;
        Ok(McSchedule {
            seed,
            grid,
            horizon,
            seeded_violation,
            decisions,
        })
    }

    /// Write atomically (temp file + rename), like snapshot files.
    pub fn write_to_file(&self, path: &Path) -> std::io::Result<()> {
        td_engine::write_atomic(path, &self.to_bytes())
    }

    /// Read and decode a schedule file.
    pub fn read_from_file(path: &Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes).map_err(|e| std::io::Error::other(e.to_string()))
    }
}

/// A path that broke an invariant or stalled, with everything needed to
/// reproduce it.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The decision path from the root to the offending segment.
    pub schedule: McSchedule,
    /// Rendered audit violations new in the offending segment.
    pub violations: Vec<String>,
    /// Rendered stall report, if the watchdog fired on the segment.
    pub stall: Option<String>,
    /// Where the schedule file was written (if an artifact dir was set).
    pub schedule_path: Option<PathBuf>,
    /// Where the pre-violation snapshot was written (ditto).
    pub snapshot_path: Option<PathBuf>,
}

/// Exploration result: deterministic counters plus any counterexamples.
#[derive(Clone, Debug, Default)]
pub struct McStats {
    /// Segments executed (one per explored transition).
    pub states_visited: u64,
    /// Branch states whose hash was already in the visited set.
    pub states_deduped: u64,
    /// Children cut off by the depth or state budget, never executed.
    pub states_pruned: u64,
    /// Deepest non-skip decision count on any explored path.
    pub max_depth: u64,
    /// Violating or stalled paths found.
    pub counterexamples: Vec<Counterexample>,
}

/// One DFS frame: a branch state and how much of its child list is done.
struct Frame {
    snap: Snapshot,
    gi: usize,
    used: usize,
    path: Vec<(u32, Decision)>,
    next_child: usize,
}

/// Explore the bounded fault space of `world` (freshly built, at t = 0).
/// See the module docs for the search structure. The world is left in the
/// state of the last segment executed — callers wanting to reuse it must
/// snapshot before calling.
pub fn explore(world: &mut World, cfg: &McConfig) -> McStats {
    explore_with_prelude(world, cfg, |_| {})
}

/// [`explore`] with a hook invoked once after the run-in to `grid[0]`,
/// before the root snapshot. The acceptance harness uses this to seed a
/// deliberate invariant violation; replaying a counterexample must apply
/// the same prelude (see [`McSchedule::seeded_violation`]).
pub fn explore_with_prelude(
    world: &mut World,
    cfg: &McConfig,
    prelude: impl FnOnce(&mut World),
) -> McStats {
    cfg.validate();
    let mut stats = McStats::default();
    let children = cfg.children();

    // Run-in: the segment before the first decision point is common to
    // every path, so it executes once, outside the DFS.
    world.run_until(cfg.grid[0]);
    prelude(world);

    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(world.state_hash());
    let mut stack = vec![Frame {
        snap: world.snapshot(),
        gi: 0,
        used: 0,
        path: Vec::new(),
        next_child: 0,
    }];

    while !stack.is_empty() {
        if stats.states_visited >= cfg.max_states {
            // Budget exhausted: everything still on the frontier is pruned.
            for f in &stack {
                let kids = if f.used >= cfg.max_decisions {
                    1
                } else {
                    children.len()
                };
                stats.states_pruned += kids.saturating_sub(f.next_child) as u64;
            }
            stack.clear();
            break;
        }
        let top = stack.last_mut().expect("non-empty stack");
        // Depth budget: a frame out of decisions only expands its skip
        // child; the rest of the vocabulary is pruned (counted once, when
        // the frame's first child is requested).
        let n_kids = if top.used >= cfg.max_decisions {
            if top.next_child == 0 {
                stats.states_pruned += (children.len() - 1) as u64;
            }
            1
        } else {
            children.len()
        };
        if top.next_child >= n_kids {
            stack.pop();
            continue;
        }
        let decision = children[top.next_child];
        top.next_child += 1;
        let (gi, used) = (top.gi, top.used);

        // Re-enter the branch state; the restore resets the audit to the
        // snapshot's counts, so the segment's baseline is read afterwards.
        let top = stack.last().expect("non-empty stack");
        world
            .restore(&top.snap)
            .expect("restore of an explorer-taken snapshot cannot mismatch");
        let baseline_total = world.audit().total_violations();
        let baseline_recorded = world.audit().violations().len();
        let t = cfg.grid[gi];
        match decision {
            Decision::Skip => {}
            Decision::Outage { ch, duration } => world.inject_outage(ch, t, t + duration),
            Decision::Drop { ch } => world.force_drops(ch, 1),
        }
        let seg_end = cfg.grid.get(gi + 1).copied().unwrap_or(cfg.horizon);
        let outcome = world.run_until_quiescent(seg_end, &cfg.watchdog);
        stats.states_visited += 1;
        let depth = used + usize::from(decision != Decision::Skip);
        stats.max_depth = stats.max_depth.max(depth as u64);

        let new_violations = world.audit().total_violations() - baseline_total;
        let stalled = outcome.is_stalled();
        if new_violations > 0 || stalled {
            let mut path = top.path.clone();
            path.push((gi as u32, decision));
            let cex = build_counterexample(
                world,
                cfg,
                path,
                baseline_recorded,
                &outcome,
                &top.snap,
                stats.counterexamples.len(),
            );
            stats.counterexamples.push(cex);
            continue; // never recurse below a broken state
        }
        if gi + 1 < cfg.grid.len() {
            if !seen.insert(world.state_hash()) {
                stats.states_deduped += 1;
                continue;
            }
            let mut path = top.path.clone();
            path.push((gi as u32, decision));
            let snap = world.snapshot();
            stack.push(Frame {
                snap,
                gi: gi + 1,
                used: depth,
                path,
                next_child: 0,
            });
        }
    }
    meter::add(Counter::McVisited, stats.states_visited);
    meter::add(Counter::McDeduped, stats.states_deduped);
    meter::add(Counter::McPruned, stats.states_pruned);
    meter::add(
        Counter::McCounterexamples,
        stats.counterexamples.len() as u64,
    );
    meter::peak(Gauge::McMaxDepth, stats.max_depth);
    stats
}

/// Assemble (and, if configured, write out) one counterexample.
fn build_counterexample(
    world: &World,
    cfg: &McConfig,
    path: Vec<(u32, Decision)>,
    baseline_recorded: usize,
    outcome: &RunOutcome,
    pre_snap: &Snapshot,
    index: usize,
) -> Counterexample {
    let schedule = McSchedule {
        seed: world.seed(),
        grid: cfg.grid.clone(),
        horizon: cfg.horizon,
        seeded_violation: cfg.seeded_violation,
        decisions: path,
    };
    let violations: Vec<String> = world.audit().violations()[baseline_recorded..]
        .iter()
        .map(|v| v.render())
        .collect();
    let stall = outcome.stall().map(|s| s.render());
    let (mut schedule_path, mut snapshot_path) = (None, None);
    if let Some(dir) = &cfg.artifact_dir {
        if std::fs::create_dir_all(dir).is_ok() {
            let sp = dir.join(format!("cex-{index}.tdmc"));
            if schedule.write_to_file(&sp).is_ok() {
                schedule_path = Some(sp);
            }
            let np = dir.join(format!("cex-{index}.tdsnap"));
            if pre_snap.write_to_file(&np).is_ok() {
                snapshot_path = Some(np);
            }
        }
    }
    Counterexample {
        schedule,
        violations,
        stall,
        schedule_path,
        snapshot_path,
    }
}

/// What a [`replay`] observed.
#[derive(Clone, Debug, Default)]
pub struct ReplayOutcome {
    /// Rendered audit violations new after the run-in — for a faithful
    /// replay of a violating schedule, identical to the counterexample's
    /// violation record.
    pub violations: Vec<String>,
    /// Rendered stall report, if the watchdog fired.
    pub stall: Option<String>,
}

/// Re-execute one decision schedule on a freshly built `world` (t = 0,
/// same `(config, seed)` as the exploration): run to `grid[0]`, apply
/// `prelude` (the seeded-violation hook — pass a no-op unless
/// [`McSchedule::seeded_violation`] is set), then walk the schedule's
/// decisions segment by segment under the same watchdog policy the
/// explorer used. Determinism makes this reproduce the counterexample's
/// violation record exactly.
pub fn replay(
    world: &mut World,
    sched: &McSchedule,
    watchdog: &WatchdogConfig,
    prelude: impl FnOnce(&mut World),
) -> ReplayOutcome {
    assert_eq!(
        world.seed(),
        sched.seed,
        "mc replay: schedule was explored under seed {}, world built with {}",
        sched.seed,
        world.seed()
    );
    assert!(!sched.grid.is_empty(), "mc replay: schedule has no grid");
    world.run_until(sched.grid[0]);
    prelude(world);
    let baseline_recorded = world.audit().violations().len();
    let mut stall = None;
    for &(gi, decision) in &sched.decisions {
        let gi = gi as usize;
        let t = sched.grid[gi];
        match decision {
            Decision::Skip => {}
            Decision::Outage { ch, duration } => world.inject_outage(ch, t, t + duration),
            Decision::Drop { ch } => world.force_drops(ch, 1),
        }
        let seg_end = sched.grid.get(gi + 1).copied().unwrap_or(sched.horizon);
        let outcome = world.run_until_quiescent(seg_end, watchdog);
        if let Some(s) = outcome.stall() {
            stall = Some(s.render());
            break;
        }
    }
    let violations = world.audit().violations()[baseline_recorded..]
        .iter()
        .map(|v| v.render())
        .collect();
    ReplayOutcome { violations, stall }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::DisciplineKind;
    use crate::fault::FaultModel;
    use crate::packet::{ConnId, Packet, PacketKind};
    use crate::trace::ProtoEvent;
    use crate::world::{Ctx, Endpoint};
    use std::any::Any;
    use td_engine::Rate;

    /// Sends `n` data packets back to back; counts ACKs, emitting a cwnd
    /// sample per ACK so the window-bound invariant has observations.
    struct Blaster {
        n: u64,
        sent: u64,
        acks: u64,
    }
    impl Endpoint for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            while self.sent < self.n {
                self.sent += 1;
                ctx.send(PacketKind::Data, self.sent, 500, false);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            if pkt.is_ack() {
                self.acks += 1;
                ctx.emit(ProtoEvent::Cwnd {
                    cwnd: 64.0,
                    ssthresh: 32.0,
                });
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
    struct Acker;
    impl Endpoint for Acker {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            if pkt.is_data() {
                ctx.send(PacketKind::Ack, pkt.seq, 50, false);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn build_world() -> (World, ChannelId, ChannelId) {
        let mut w = World::new(11);
        w.trace_mut().set_enabled(false);
        let a = w.add_host("A", SimDuration::from_micros(100));
        let b = w.add_host("B", SimDuration::from_micros(100));
        let c_ab = w.add_channel(
            a,
            b,
            Rate::from_kbps(500),
            SimDuration::from_millis(10),
            Some(20),
            DisciplineKind::DropTail.build(),
            FaultModel::NONE,
        );
        let c_ba = w.add_channel(
            b,
            a,
            Rate::from_kbps(500),
            SimDuration::from_millis(10),
            Some(20),
            DisciplineKind::DropTail.build(),
            FaultModel::NONE,
        );
        let src = w.attach(
            a,
            b,
            ConnId(0),
            Box::new(Blaster {
                n: 20,
                sent: 0,
                acks: 0,
            }),
        );
        let _snk = w.attach(b, a, ConnId(0), Box::new(Acker));
        w.start_at(src, SimTime::ZERO);
        (w, c_ab, c_ba)
    }

    fn small_cfg(c_ab: ChannelId, c_ba: ChannelId) -> McConfig {
        McConfig {
            grid: vec![
                SimTime::from_millis(20),
                SimTime::from_millis(60),
                SimTime::from_millis(100),
            ],
            horizon: SimTime::from_secs(2),
            channels: vec![c_ab, c_ba],
            outage_durations: vec![SimDuration::from_millis(30)],
            enable_drops: true,
            max_decisions: 1,
            max_states: 10_000,
            watchdog: WatchdogConfig::default(),
            artifact_dir: None,
            seeded_violation: false,
        }
    }

    #[test]
    fn exploration_is_deterministic_and_violation_free() {
        let run = || {
            let (mut w, c_ab, c_ba) = build_world();
            explore(&mut w, &small_cfg(c_ab, c_ba))
        };
        let a = run();
        let b = run();
        assert!(a.counterexamples.is_empty(), "clean scenario, clean tree");
        assert!(a.states_visited > 0);
        assert_eq!(a.states_visited, b.states_visited);
        assert_eq!(a.states_deduped, b.states_deduped);
        assert_eq!(a.states_pruned, b.states_pruned);
        assert_eq!(a.max_depth, b.max_depth);
        assert_eq!(a.max_depth, 1, "depth budget of one decision");
    }

    #[test]
    fn depth_budget_prunes_and_dedup_fires() {
        let (mut w, c_ab, c_ba) = build_world();
        let cfg = small_cfg(c_ab, c_ba);
        let stats = explore(&mut w, &cfg);
        // Paths that spent their one decision meet frames whose remaining
        // vocabulary (4 non-skip children) is pruned.
        assert!(stats.states_pruned > 0, "depth budget must prune");
        // Late drops / outages on the reverse channel after the traffic
        // has drained converge on the all-idle state: dedup must fire.
        assert!(stats.states_deduped > 0, "idle convergence must dedup");
    }

    #[test]
    fn state_budget_prunes_frontier() {
        let (mut w, c_ab, c_ba) = build_world();
        let mut cfg = small_cfg(c_ab, c_ba);
        cfg.max_states = 3;
        let stats = explore(&mut w, &cfg);
        assert_eq!(stats.states_visited, 3);
        assert!(stats.states_pruned > 0, "cut frontier counts as pruned");
    }

    #[test]
    fn schedule_codec_roundtrips() {
        let sched = McSchedule {
            seed: 99,
            grid: vec![SimTime::from_millis(20), SimTime::from_millis(60)],
            horizon: SimTime::from_secs(2),
            seeded_violation: true,
            decisions: vec![
                (0, Decision::Skip),
                (
                    1,
                    Decision::Outage {
                        ch: ChannelId(1),
                        duration: SimDuration::from_millis(30),
                    },
                ),
                (1, Decision::Drop { ch: ChannelId(0) }),
            ],
        };
        let back = McSchedule::from_bytes(&sched.to_bytes()).unwrap();
        assert_eq!(back, sched);
        let mut bad = sched.to_bytes();
        bad[4] = 0xFF; // version byte
        assert!(McSchedule::from_bytes(&bad).is_err());
    }

    #[test]
    fn seeded_violation_yields_replayable_counterexample() {
        let dir = std::env::temp_dir().join("td-mc-cex-test");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut w, c_ab, c_ba) = build_world();
        let mut cfg = small_cfg(c_ab, c_ba);
        cfg.artifact_dir = Some(dir.clone());
        cfg.seeded_violation = true;
        // The prelude registers an impossible window bound; every cwnd
        // sample the Blaster emits afterwards (64.0 per ACK) trips the
        // WindowBound invariant in the very first segment of every child,
        // so each first-level branch is a counterexample and nothing
        // recurses deeper.
        let prelude = |w: &mut World| w.set_window_bound(ConnId(0), 1.0);
        let stats = explore_with_prelude(&mut w, &cfg, prelude);
        assert_eq!(
            stats.counterexamples.len(),
            cfg.children().len(),
            "every first-level child must violate"
        );
        let cex = &stats.counterexamples[0];
        assert!(!cex.violations.is_empty());
        assert!(cex.schedule_path.as_ref().is_some_and(|p| p.exists()));
        assert!(cex.snapshot_path.as_ref().is_some_and(|p| p.exists()));
        // `cex-<i>.tdmc` and `cex-<i>.tdsnap` share a stem and a directory
        // and are written back to back: both must decode, and neither
        // write may leave its staging file behind.
        for cex in &stats.counterexamples {
            McSchedule::read_from_file(cex.schedule_path.as_ref().unwrap()).unwrap();
            Snapshot::read_from_file(cex.snapshot_path.as_ref().unwrap()).unwrap();
        }
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(litter.is_empty(), "staging files left behind: {litter:?}");
        // Replay the schedule on a twin with the same prelude: identical
        // violation record.
        let sched = McSchedule::read_from_file(cex.schedule_path.as_ref().unwrap()).unwrap();
        assert!(
            sched.seeded_violation,
            "schedule must record the prelude requirement"
        );
        let (mut twin, _, _) = build_world();
        let out = replay(&mut twin, &sched, &cfg.watchdog, prelude);
        assert_eq!(out.violations, cex.violations);
        assert_eq!(out.stall, cex.stall);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_grid_is_rejected() {
        let (mut w, c_ab, c_ba) = build_world();
        let mut cfg = small_cfg(c_ab, c_ba);
        cfg.grid = vec![SimTime::from_millis(60), SimTime::from_millis(20)];
        let _ = explore(&mut w, &cfg);
    }

    #[test]
    fn meter_mirrors_exploration() {
        let (stats, m) = meter::scoped(|| {
            let (mut w, c_ab, c_ba) = build_world();
            explore(&mut w, &small_cfg(c_ab, c_ba))
        });
        assert_eq!(m.count(Counter::McVisited), stats.states_visited);
        assert_eq!(m.count(Counter::McDeduped), stats.states_deduped);
        assert_eq!(m.count(Counter::McPruned), stats.states_pruned);
        assert_eq!(m.gauge(Gauge::McMaxDepth), stats.max_depth);
        assert_eq!(m.count(Counter::McCounterexamples), 0);
    }
}
