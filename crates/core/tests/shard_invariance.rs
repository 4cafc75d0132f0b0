//! Shard-count invariance with the real TCP machines.
//!
//! The in-crate `td-net` tests prove the sharded executor deterministic
//! with synthetic endpoints; this suite re-proves it with `TcpSender` /
//! `TcpReceiver` — the endpoints that actually serialize live
//! [`td_net::TimerHandle`]s (the armed RTO), so a mid-flight snapshot
//! exercises the timer-handle ↔ pending-event-index translation that the
//! shard-count-invariant `TDSW` format depends on. Two more cases drive
//! open-loop `PoissonSource`s, the one endpoint that draws randomness:
//! each carries its own stream, saved in its snapshot row.

use td_core::{Blackhole, PoissonSource, ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};
use td_engine::{fnv1a, Rate, SimDuration, SimRng, SimTime};
use td_net::{ConnId, DisciplineKind, NodeId, ShardedWorld, World};

/// A congested two-switch trunk: host/switch cluster per side, 20-packet
/// drop-tail queues, a 200 Kbit/s trunk whose two directions take
/// `delays_ms`. Returns the two hosts.
fn trunk(w: &mut World, delays_ms: [u64; 2]) -> (NodeId, NodeId) {
    let h = SimDuration::from_micros(100);
    let a = w.add_host("A", h);
    let sa = w.add_switch("SA");
    let b = w.add_host("B", h);
    let sb = w.add_switch("SB");
    for (x, y) in [(a, sa), (b, sb)] {
        for (src, dst) in [(x, y), (y, x)] {
            w.add_channel(
                src,
                dst,
                Rate::from_kbps(1000),
                SimDuration::from_micros(100),
                Some(20),
                DisciplineKind::DropTail.build(),
            );
        }
    }
    for ((src, dst), ms) in [(sa, sb), (sb, sa)].into_iter().zip(delays_ms) {
        w.add_channel(
            src,
            dst,
            Rate::from_kbps(200),
            SimDuration::from_millis(ms),
            Some(20),
            DisciplineKind::DropTail.build(),
        );
    }
    w.compute_routes();
    (a, b)
}

/// Paper-style TCP both ways between the trunk's hosts.
fn tcp_both_ways(w: &mut World, a: NodeId, b: NodeId) {
    let s0 = w.attach(a, b, ConnId(0), TcpSender::boxed(SenderConfig::paper()));
    w.attach(b, a, ConnId(0), TcpReceiver::boxed(ReceiverConfig::paper()));
    let s1 = w.attach(b, a, ConnId(1), TcpSender::boxed(SenderConfig::paper()));
    w.attach(a, b, ConnId(1), TcpReceiver::boxed(ReceiverConfig::paper()));
    w.start_at(s0, SimTime::from_millis(1));
    w.start_at(s1, SimTime::from_millis(7));
}

/// Two-way traffic over the congested trunk. The small trunk rate forces
/// queue growth, drops, retransmissions, and live RTO timers — the full
/// state surface of the protocol.
fn two_way_trunk(w: &mut World) {
    let (a, b) = trunk(w, [5, 5]);
    tcp_both_ways(w, a, b);
}

/// `two_way_trunk` with per-direction trunk delays (5 ms vs 50 ms). The
/// cut is asymmetric, so each shard's safe horizon depends on reading the
/// lookahead matrix in the right orientation — its incoming column, not
/// its outgoing row. Regression for the transposed-lookahead bug, which
/// symmetric duplex trunks cannot see.
fn asymmetric_two_way_trunk(w: &mut World) {
    let (a, b) = trunk(w, [5, 50]);
    tcp_both_ways(w, a, b);
}

/// The trunk with one open-loop `PoissonSource` → `Blackhole` per
/// direction, each source on its own stream, loading the trunk past its
/// 50 packet/s so its queues fill and drop.
fn poisson_trunk(w: &mut World) {
    let (a, b) = trunk(w, [5, 5]);
    let streams = SimRng::new(93);
    let p0 = w.attach(
        a,
        b,
        ConnId(0),
        PoissonSource::boxed(60.0, 500, streams.derive(1)),
    );
    w.attach(b, a, ConnId(0), Blackhole::boxed());
    let p1 = w.attach(
        b,
        a,
        ConnId(1),
        PoissonSource::boxed(60.0, 500, streams.derive(2)),
    );
    w.attach(a, b, ConnId(1), Blackhole::boxed());
    w.start_at(p0, SimTime::from_millis(1));
    w.start_at(p1, SimTime::from_millis(7));
}

#[test]
fn tcp_asymmetric_trunk_is_shard_invariant() {
    let t_end = SimTime::from_millis(1500);
    let mut base = ShardedWorld::build(92, 1, asymmetric_two_way_trunk);
    base.run_until(t_end);
    let base_snap = base.snapshot();
    assert!(base.audit().delivered() > 100, "workload barely ran");
    for shards in [2, 4] {
        let mut other = ShardedWorld::build(92, shards, asymmetric_two_way_trunk);
        other.run_until(t_end);
        assert_eq!(
            base.trace().records(),
            other.trace().records(),
            "TCP trace differs at {shards} shards over an asymmetric cut"
        );
        assert_eq!(
            base_snap.as_bytes(),
            other.snapshot().as_bytes(),
            "TCP snapshot differs at {shards} shards over an asymmetric cut"
        );
    }
}

#[test]
fn tcp_two_way_traffic_is_shard_invariant() {
    let t_end = SimTime::from_millis(1500);
    let mut base = ShardedWorld::build(91, 1, two_way_trunk);
    base.run_until(t_end);
    let base_snap = base.snapshot();
    assert!(base.audit().delivered() > 100, "workload barely ran");
    assert_eq!(base.audit().total_violations(), 0);
    for shards in [2, 4] {
        let mut other = ShardedWorld::build(91, shards, two_way_trunk);
        other.run_until(t_end);
        assert_eq!(
            base.trace().records(),
            other.trace().records(),
            "TCP trace differs at {shards} shards"
        );
        assert_eq!(
            base_snap.as_bytes(),
            other.snapshot().as_bytes(),
            "TCP snapshot differs at {shards} shards"
        );
    }
}

#[test]
fn tcp_snapshot_resumes_across_shard_counts() {
    // Snapshot mid-flight — with cwnd open, queues loaded, and RTO timers
    // armed — then resume at a different shard count and compare against
    // the uninterrupted run.
    let t_mid = SimTime::from_millis(700);
    let t_end = SimTime::from_millis(1500);
    let mut origin = ShardedWorld::build(91, 2, two_way_trunk);
    origin.run_until(t_mid);
    let mid = origin.snapshot();
    origin.run_until(t_end);
    let straight = origin.snapshot();
    for shards in [1, 4] {
        let mut resumed = ShardedWorld::build(91, shards, two_way_trunk);
        resumed.restore(&mid).expect("mid-flight restore");
        resumed.run_until(t_end);
        assert_eq!(
            straight.as_bytes(),
            resumed.snapshot().as_bytes(),
            "resume at {shards} shards diverged"
        );
    }
}

/// Sources that carry their own streams draw the same gaps whichever
/// shard runs them. Record comparisons use `assert!`: a diverged trace
/// would print thousands of records.
#[test]
fn poisson_sources_are_shard_invariant() {
    let t_end = SimTime::from_millis(1000);
    let mut base = ShardedWorld::build(93, 1, poisson_trunk);
    base.run_until(t_end);
    let base_snap = base.snapshot();
    assert!(base.audit().delivered() > 80, "workload barely ran");
    for shards in [2, 4] {
        let mut other = ShardedWorld::build(93, shards, poisson_trunk);
        other.run_until(t_end);
        assert!(
            base.trace().records() == other.trace().records(),
            "Poisson trace differs at {shards} shards"
        );
        assert!(
            base_snap.as_bytes() == other.snapshot().as_bytes(),
            "Poisson snapshot differs at {shards} shards"
        );
    }
}

/// A source's stream rides in its snapshot row, so a mid-run TDSW
/// snapshot resumes to the uninterrupted run's bytes.
#[test]
fn poisson_snapshot_resumes_to_the_same_bytes() {
    let t_mid = SimTime::from_millis(500);
    let t_end = SimTime::from_millis(1000);
    let mut origin = ShardedWorld::build(93, 1, poisson_trunk);
    origin.run_until(t_mid);
    let mid = origin.snapshot();
    origin.run_until(t_end);
    let straight = origin.snapshot();
    let mut resumed = ShardedWorld::build(93, 1, poisson_trunk);
    resumed.restore(&mid).expect("mid-run restore");
    resumed.run_until(t_end);
    assert!(
        straight.as_bytes() == resumed.snapshot().as_bytes(),
        "resume from a mid-run snapshot diverged"
    );
}

/// Absolute TDSW bytes of the two-way trunk at one shard, mid-run and at
/// the end, as FNV-1a. The tests above compare shard counts with each
/// other, so a layout slip made the same way at every count would pass
/// them; this pin does not move unless the TDSW layout or the run does.
#[test]
fn tdsw_bytes_are_pinned() {
    let mut sw = ShardedWorld::build(91, 1, two_way_trunk);
    sw.run_until(SimTime::from_millis(700));
    let mid = fnv1a(sw.snapshot().as_bytes());
    sw.run_until(SimTime::from_millis(1500));
    let end = fnv1a(sw.snapshot().as_bytes());
    assert_eq!(
        (mid, end),
        (0x04dc_466e_5ea4_ae7e, 0x33e0_9ead_1c31_ad37),
        "TDSW bytes moved: got (mid {mid:#018x}, end {end:#018x})"
    );
}
