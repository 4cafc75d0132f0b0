//! Cluster-chain scale-out of the §5 four-switch topology (`scale`).
//!
//! The paper's generality check (§5 / \[19\]) ran four switches and 50
//! connections. This experiment grows that unit into a *chain of
//! clusters*: each cluster is the full four-switch topology with its own
//! 1–3-hop traffic pattern, and consecutive clusters are joined by a
//! long-haul trunk whose propagation delay — a prime 10 000 007 ns, so it
//! can never alias the paper's round 10 ms intra-cluster delays — is what
//! the shard partitioner cuts. A slice of connections crosses each
//! long-haul trunk, so the cut carries real two-way TCP traffic rather
//! than being decorative.
//!
//! The full profile runs 10 000+ connections; the quick profile is a
//! two-cluster miniature. Both honor the process-wide
//! [`crate::shards`] setting (`--shards N` on `td-repro` / `td-sim`) and
//! produce **byte-identical reports for every shard count** — the CI
//! determinism job diffs `--shards 2` against serial output. Every
//! rendered row is a pure function of `(seed, profile)`: audit counters,
//! trace-derived series, and an FNV-1a hash over the canonical trace
//! encoding. Wall-clock, shard count, and core count appear nowhere.

use std::cell::RefCell;
use std::sync::Arc;

use crate::registry::Profile;
use crate::report::Report;
use crate::scenario::DATA_SERVICE;
use td_analysis::{compression, StreamAnalyzer, StreamMetrics, StreamSpec};
use td_core::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use td_engine::{fnv1a, fnv1a_continue, Rate, SimDuration, SimRng, SimTime};
use td_net::{ChannelId, ConnId, DisciplineKind, LinkSpec, NodeId, ShardedWorld, World};

/// Propagation delay of the long-haul trunks joining clusters: prime, so
/// no event-time arithmetic can alias it onto the 10 ms paper delays,
/// and large, so it is always the delay class the partitioner cuts.
pub const LONG_HAUL_DELAY: SimDuration = SimDuration::from_nanos(10_000_007);

/// Topology and traffic dimensions of one scale run.
#[derive(Clone, Copy)]
pub struct ScaleParams {
    /// Number of four-switch clusters in the chain.
    pub clusters: usize,
    /// Intra-cluster connections per cluster (1–3 hop paths, as in §5).
    pub conns_per_cluster: u32,
    /// Connections crossing each long-haul trunk (two-way: alternating
    /// directions).
    pub inter_conns: u32,
    /// Simulated duration, seconds.
    pub duration_s: u64,
    /// Whether to record the packet trace (off at full scale: the trace
    /// would dwarf the simulation itself).
    pub trace: bool,
}

impl ScaleParams {
    /// Dimensions for the given profile. Full: 64 clusters × 156
    /// intra-cluster plus 63 × 4 inter-cluster connections = 10 236 —
    /// past the 10k mark.
    pub fn for_profile(p: Profile) -> ScaleParams {
        match p {
            Profile::Quick => ScaleParams {
                clusters: 2,
                conns_per_cluster: 24,
                inter_conns: 4,
                duration_s: 30,
                trace: true,
            },
            Profile::Full => ScaleParams {
                clusters: 64,
                conns_per_cluster: 156,
                inter_conns: 4,
                duration_s: 60,
                trace: false,
            },
        }
    }

    /// Total connection count.
    pub fn total_conns(&self) -> u64 {
        self.clusters as u64 * u64::from(self.conns_per_cluster)
            + (self.clusters as u64 - 1) * u64::from(self.inter_conns)
    }

    /// Dimensions of the 100k-connection rung (ROADMAP item 1): a
    /// 640-cluster chain, 102 396 connections, trace off, audit on,
    /// streaming metrics only. The quick profile is the 1 s CI smoke run
    /// under the pinned RSS budget (see EXPERIMENTS.md).
    pub fn rung_100k(p: Profile) -> ScaleParams {
        ScaleParams {
            clusters: 640,
            conns_per_cluster: 156,
            inter_conns: 4,
            duration_s: match p {
                Profile::Quick => 1,
                Profile::Full => 5,
            },
            trace: false,
        }
    }

    /// Dimensions of the 1M-connection rung: a 6400-cluster chain,
    /// 6400 × 156 + 6399 × 4 = 1 023 996 connections. Only viable with
    /// the compressed routing tables — a dense per-switch map at this
    /// scale would cost tens of GiB before the first packet moves. Trace
    /// off, streaming metrics only, same shape as [`ScaleParams::rung_100k`].
    pub fn rung_1m(p: Profile) -> ScaleParams {
        ScaleParams {
            clusters: 6400,
            conns_per_cluster: 156,
            inter_conns: 4,
            duration_s: match p {
                Profile::Quick => 1,
                Profile::Full => 5,
            },
            trace: false,
        }
    }
}

/// Channel ids the report reads, captured while building.
pub struct ScaleMap {
    /// Middle intra-cluster trunk of cluster 0, forward direction.
    pub probe_trunk: ChannelId,
    /// First long-haul trunk (cluster 0 → 1), forward direction
    /// (`None` for a single-cluster chain).
    pub long_haul: Option<ChannelId>,
}

/// Build the cluster chain into `w` and attach all connections. Pure
/// function of `(seed, params)` — called once per shard replica by
/// [`ShardedWorld::build`], so it must stay deterministic.
///
/// Every connection is attached before any start is scheduled. Each
/// start time is drawn from the jitter stream as its connection is
/// attached, and the starts are then scheduled in connection order, so
/// the events and their sequence numbers are those of a build that
/// scheduled each start right after its attach. What the order changes
/// is the heap, and only for a chain rebuilt on a process's main thread
/// after the previous one was dropped. There, under glibc's defaults,
/// dropping the world leaves small chunks in the allocator's per-thread
/// cache above the endpoint boxes, so the heap is not trimmed below them
/// and the rebuild reuses the boxes' pages instead of faulting fresh
/// ones in: a 100k rebuild took 12 800 minor faults fewer and half the
/// time. Builds on spawned threads, which is every build `td-repro` and
/// `td-serve` make, measured the same in either order (DESIGN.md §S3,
/// "Construction").
pub fn build_chain(w: &mut World, seed: u64, p: &ScaleParams) -> ScaleMap {
    let host_link = LinkSpec::paper_host_link();
    let trunk = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(30));
    let long_haul = LinkSpec {
        rate: Rate::from_kbps(200),
        delay: LONG_HAUL_DELAY,
        capacity: Some(50),
        discipline: DisciplineKind::DropTail,
    };

    let mut hosts: Vec<[NodeId; 4]> = Vec::with_capacity(p.clusters);
    let mut probe_trunk = None;
    let mut long_haul_ch = None;
    let mut prev_tail: Option<NodeId> = None;
    for c in 0..p.clusters {
        let mut sw = [NodeId(0); 4];
        let mut hs = [NodeId(0); 4];
        for j in 0..4 {
            sw[j] = w.add_switch(&format!("c{c}s{j}"));
            hs[j] = w.add_host(&format!("c{c}h{j}"), SimDuration::from_micros(100));
            host_link.add_between(w, hs[j], sw[j]);
        }
        for j in 0..3 {
            let (right, _) = trunk.add_between(w, sw[j], sw[j + 1]);
            if c == 0 && j == 1 {
                probe_trunk = Some(right);
            }
        }
        if let Some(tail) = prev_tail {
            let (right, _) = long_haul.add_between(w, tail, sw[0]);
            if long_haul_ch.is_none() {
                long_haul_ch = Some(right);
            }
        }
        prev_tail = Some(sw[3]);
        hosts.push(hs);
    }
    w.compute_routes();
    // The chain is fully connected by construction; fail loudly at build
    // time if a wiring regression ever partitions it.
    w.validate_routes();

    // Traffic. Start times are jittered from a seed-derived stream that is
    // independent of the world RNG, so attachment stays shard-invariant.
    // Each start is drawn where its connection is attached and scheduled
    // after the last attach, in connection order (see the doc comment).
    let mut rng = SimRng::new(seed).derive(0x5CA1_E000);
    let (scfg, rcfg) = (
        Arc::new(SenderConfig::paper()),
        Arc::new(ReceiverConfig::paper()),
    );
    let mut starts = Vec::with_capacity(p.total_conns() as usize);
    let mut attach_pair = |w: &mut World, src: NodeId, dst: NodeId, rng: &mut SimRng| {
        let conn = ConnId(starts.len() as u32);
        let s = w.attach(src, dst, conn, TcpSender::boxed(Arc::clone(&scfg)));
        w.attach(dst, src, conn, TcpReceiver::boxed(Arc::clone(&rcfg)));
        starts.push((s, SimTime::from_nanos(rng.next_below(1_000_000_000))));
    };
    for (c, hs) in hosts.iter().enumerate() {
        for i in 0..p.conns_per_cluster {
            let hops = 1 + (i as usize % 3);
            let start = rng.next_below((4 - hops) as u64) as usize;
            let (src, dst) = if i % 2 == 0 {
                (hs[start], hs[start + hops])
            } else {
                (hs[start + hops], hs[start])
            };
            attach_pair(w, src, dst, &mut rng);
        }
        if c + 1 < p.clusters {
            for i in 0..p.inter_conns {
                // Tail host of this cluster ↔ head host of the next, in
                // alternating directions: two-way traffic over the cut.
                let (src, dst) = if i % 2 == 0 {
                    (hs[3], hosts_head(&hosts, c + 1, p))
                } else {
                    (hosts_head(&hosts, c + 1, p), hs[3])
                };
                attach_pair(w, src, dst, &mut rng);
            }
        }
    }
    for (ep, at) in starts {
        w.start_at(ep, at);
    }

    ScaleMap {
        probe_trunk: probe_trunk.expect("cluster 0 has a middle trunk"),
        long_haul: long_haul_ch,
    }
}

/// Head host of cluster `c + 1`. The `hosts` vec is filled cluster by
/// cluster, but host *node ids* are assigned during construction, so the
/// next cluster's entry already exists by the time inter-cluster
/// connections are attached — guarded here for clarity.
fn hosts_head(hosts: &[[NodeId; 4]], next: usize, p: &ScaleParams) -> NodeId {
    debug_assert!(next < p.clusters);
    hosts[next][0]
}

/// The measurements the report reads: the probe trunk's queue series and
/// the first long-haul trunk's utilization. Canonical ties, so per-shard
/// observers fold same-instant records in merged-trace order.
fn chain_spec(map: &ScaleMap, t0: SimTime, t1: SimTime) -> StreamSpec {
    let spec = StreamSpec::new().queue(map.probe_trunk).canonical_ties();
    match map.long_haul {
        Some(lh) => spec.utilization(lh, t0, t1),
        None => spec,
    }
}

/// Build and run the chain at the process-wide shard count with one
/// [`StreamAnalyzer`] riding each shard, returning the finished sharded
/// world, the probe channel map, the measurement window and the merged
/// metrics. This is what lets the trace-off profiles measure the
/// probe-trunk fluctuation and long-haul utilization without storing a
/// single trace record.
pub fn run_chain(
    seed: u64,
    p: &ScaleParams,
) -> (ShardedWorld, ScaleMap, SimTime, SimTime, StreamMetrics) {
    run_chain_observing(seed, p, chain_spec)
}

/// [`run_chain`] with the observers' spec chosen by the caller.
fn run_chain_observing(
    seed: u64,
    p: &ScaleParams,
    spec_of: impl Fn(&ScaleMap, SimTime, SimTime) -> StreamSpec,
) -> (ShardedWorld, ScaleMap, SimTime, SimTime, StreamMetrics) {
    let map_cell: RefCell<Option<ScaleMap>> = RefCell::new(None);
    let mut sw = ShardedWorld::build(seed, crate::shards(), |w| {
        let m = build_chain(w, seed, p);
        map_cell.borrow_mut().get_or_insert(m);
    });
    sw.set_trace_enabled(p.trace);
    let map = map_cell.into_inner().expect("builder ran at least once");
    let t1 = SimTime::from_secs(p.duration_s);
    let t0 = SimTime::from_secs(p.duration_s / 5);
    let spec = spec_of(&map, t0, t1);
    sw.add_observers(|_| Box::new(StreamAnalyzer::new(&spec)));
    sw.run_until(t1);
    let parts = sw
        .take_observers()
        .into_iter()
        .map(|o| {
            *o.into_any()
                .downcast::<StreamAnalyzer>()
                .expect("scale observers are StreamAnalyzers")
        })
        .collect();
    let metrics = StreamAnalyzer::merge(parts).finish();
    (sw, map, t0, t1, metrics)
}

/// Run and evaluate the scale experiment.
pub fn report(seed: u64, profile: Profile) -> Report {
    let p = ScaleParams::for_profile(profile);
    report_params(
        seed,
        &p,
        "tbl-scale",
        "Cluster chain of §5 four-switch units (sharded executor)",
    )
}

/// The 100k-connection rung: [`ScaleParams::rung_100k`] rendered under
/// its own id. Hidden from `--all` (it is a resource-budget drill, not a
/// paper claim) but addressable via `td-repro --only scale100k`.
pub fn report_100k(seed: u64, profile: Profile) -> Report {
    let p = ScaleParams::rung_100k(profile);
    report_params(
        seed,
        &p,
        "scale100k",
        "100k-connection rung: 640-cluster chain, trace off, streaming metrics",
    )
}

/// The 1M-connection rung: [`ScaleParams::rung_1m`] rendered under its
/// own id. Hidden from `--all` like `scale100k`; addressable via
/// `td-repro --only scale1m`. This is the rung the compressed routing
/// tables exist for — its CI job runs under a hard `ulimit -v`.
pub fn report_1m(seed: u64, profile: Profile) -> Report {
    let p = ScaleParams::rung_1m(profile);
    report_params(
        seed,
        &p,
        "scale1m",
        "1M-connection rung: 6400-cluster chain, trace off, streaming metrics",
    )
}

fn report_params(seed: u64, p: &ScaleParams, id: &str, title: &str) -> Report {
    let (sw, map, t0, t1, metrics) = run_chain(seed, p);
    let mut rep = Report::new(
        id,
        title,
        &format!(
            "seed {seed}, {} clusters, {} connections, {} s simulated",
            p.clusters,
            p.total_conns(),
            p.duration_s
        ),
    );

    let audit = sw.audit();
    rep.check(
        "packets delivered",
        "traffic flows at scale",
        format!("{}", audit.delivered()),
        audit.delivered() > 0,
    );
    rep.check(
        "invariant violations",
        "0",
        format!("{}", audit.total_violations()),
        audit.total_violations() == 0,
    );
    rep.info("packets injected", "-", format!("{}", audit.injected()));
    rep.info("packets dropped", "-", format!("{}", audit.dropped()));
    rep.info(
        "events dispatched",
        "-",
        format!("{}", sw.events_dispatched()),
    );
    rep.metric("connections", p.total_conns() as f64);
    rep.metric("delivered", audit.delivered() as f64);
    rep.metric("dropped", audit.dropped() as f64);

    // Route-memory accounting, reported on the resource-budget rungs
    // (scale100k / scale1m) where CI gates the compression ratio. Both
    // figures come from shard replica 0, so they are shard-invariant and
    // the rows survive the serial-vs-sharded determinism diff.
    if id.starts_with("scale") {
        let compressed = sw.route_table_bytes();
        let dense = sw.dense_route_bytes();
        rep.info(
            "route table bytes (compressed / dense)",
            "-",
            format!(
                "{compressed} / {dense} ({:.0}x)",
                dense as f64 / compressed.max(1) as f64
            ),
        );
        rep.metric("route_table_bytes", compressed as f64);
        rep.metric("route_table_dense_bytes", dense as f64);
    }

    // §5's signature phenomenon survives inside a cluster — measured
    // online, so the check runs on trace-off profiles too.
    let fl = compression::queue_fluctuation(metrics.queue(map.probe_trunk), t0, t1, DATA_SERVICE);
    // Connections start with up to 1 s of jitter, so sub-5 s smoke runs
    // (the 100k CI rung) haven't reached steady-state dynamics yet:
    // report the number without passing judgement on it.
    if p.duration_s >= 5 {
        rep.check(
            "cluster-0 middle-trunk queue fluctuation",
            "rapid fluctuations (ACK compression, §5)",
            format!("{fl:.0} packets per service time"),
            fl >= 3.0,
        );
    } else {
        rep.info(
            "cluster-0 middle-trunk queue fluctuation",
            "-",
            format!("{fl:.0} packets per service time (window too short to judge)"),
        );
    }
    if let Some(lh) = map.long_haul {
        let u = metrics.utilization(lh);
        rep.check(
            "first long-haul trunk utilization",
            "cut carries real traffic",
            format!("{u:.3}"),
            u > 0.05,
        );
    }
    if p.trace {
        // Golden hash over the canonical trace encoding: equal for every
        // shard count, pinned by the shard-determinism CI job.
        let h = sw.trace().records().iter().fold(fnv1a(&[]), |h, r| {
            fnv1a_continue(h, &r.t.as_nanos().to_le_bytes())
        });
        rep.info("merged trace FNV-1a (times)", "-", format!("{h:#018x}"));
    } else {
        rep.diagnostic(format!(
            "trace disabled at {} connections; audit counters and streamed \
             metrics above are the deterministic surface",
            p.total_conns()
        ));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_net::TraceEvent;

    /// The quick-profile report must not depend on the shard count —
    /// this is the in-process version of the CI determinism diff.
    #[test]
    fn quick_report_is_shard_invariant() {
        crate::set_shards(1);
        let serial = report(5, Profile::Quick);
        crate::set_shards(2);
        let sharded = report(5, Profile::Quick);
        crate::set_shards(1);
        assert_eq!(serial.to_string(), sharded.to_string());
        assert_eq!(serial.markdown_table(), sharded.markdown_table());
        assert!(serial.all_ok(), "scale quick checks failed: {serial}");
    }

    /// Merged per-shard observers must equal a replay of the merged
    /// trace (trace on, both feeds live), at more than one shard count —
    /// this is where canonical-ties buffering earns its keep. Deliveries
    /// are per host and sojourns per channel, so the spec names keys in
    /// both clusters and the merge has to take each from the shard that
    /// owns it.
    #[test]
    fn merged_shard_observers_match_replay_of_merged_trace() {
        let p = ScaleParams::for_profile(Profile::Quick);
        assert!(p.trace, "quick profile records the trace");
        // A receiving endpoint in the first and in the last cluster, read
        // off a reference run's trace: (sink host, connection, source host).
        let (sw, ..) = run_chain(7, &p);
        let sinks = sw.trace().records().iter().filter_map(|r| match r.ev {
            TraceEvent::Deliver { node, pkt } if pkt.is_data() => Some((node, pkt.conn, pkt.src)),
            _ => None,
        });
        let first = sinks.clone().min_by_key(|k| k.0).expect("data flowed");
        let last = sinks.max_by_key(|k| k.0).expect("data flowed");
        assert_ne!(first.0, last.0);
        let bin = SimDuration::from_secs(1);
        let spec_of = |map: &ScaleMap, t0, t1| {
            let lh = map.long_haul.expect("two clusters have a long haul");
            let mut spec = chain_spec(map, t0, t1)
                .drops()
                .sojourns(map.probe_trunk, t0, t1)
                .sojourns(lh, t0, t1);
            for (sink, conn, source) in [first, last] {
                spec = spec
                    .deliveries(sink, conn, false)
                    .deliveries(source, conn, true)
                    .delivered(sink, conn, t0, t1)
                    .goodput(sink, conn, t0, t1, bin);
            }
            spec
        };
        for shards in [1, 2] {
            crate::set_shards(shards);
            let (sw, map, t0, t1, observed) = run_chain_observing(7, &p, spec_of);
            crate::set_shards(1);
            let replayed = StreamAnalyzer::replay(&spec_of(&map, t0, t1), sw.trace());
            assert_eq!(
                observed.queue(map.probe_trunk),
                replayed.queue(map.probe_trunk),
                "probe-trunk queue series diverged at {shards} shard(s)"
            );
            let lh = map.long_haul.expect("two clusters have a long haul");
            assert_eq!(
                observed.utilization(lh).to_bits(),
                replayed.utilization(lh).to_bits(),
                "long-haul utilization diverged at {shards} shard(s)"
            );
            assert_eq!(
                observed.data_drop_fraction().map(f64::to_bits),
                replayed.data_drop_fraction().map(f64::to_bits),
                "drop attribution diverged at {shards} shard(s)"
            );
            for ch in [map.probe_trunk, lh] {
                assert!(!observed.sojourns(ch).is_empty());
                assert_eq!(
                    observed.sojourns(ch),
                    replayed.sojourns(ch),
                    "sojourns at {ch:?} diverged at {shards} shard(s)"
                );
            }
            for (sink, conn, source) in [first, last] {
                let at = format!("{conn:?} at {shards} shard(s)");
                assert!(!observed.deliveries(source, conn, true).is_empty());
                assert_eq!(
                    observed.deliveries(sink, conn, false),
                    replayed.deliveries(sink, conn, false),
                    "data deliveries diverged for {at}"
                );
                assert_eq!(
                    observed.deliveries(source, conn, true),
                    replayed.deliveries(source, conn, true),
                    "ACK deliveries diverged for {at}"
                );
                assert_eq!(
                    observed.delivered(sink, conn),
                    replayed.delivered(sink, conn),
                    "delivery count diverged for {at}"
                );
                assert_eq!(
                    observed.goodput(sink, conn),
                    replayed.goodput(sink, conn),
                    "goodput diverged for {at}"
                );
            }
        }
    }
}
