//! Topology builders.
//!
//! Two topologies cover every configuration in the paper:
//!
//! * [`dumbbell`] — Figure 1: `Host-1 — Switch-1 ══ Switch-2 — Host-2`,
//!   with the inter-switch link as the bottleneck. Used by every experiment
//!   in §3.1 and §4.
//! * [`chain`] — the four-switch topology of Zhang & Clark \[19\] revisited
//!   in §5: `K` switches in a row, one host per switch, traffic crossing
//!   1..K−1 bottleneck hops.

use crate::discipline::DisciplineKind;
use crate::packet::NodeId;
use crate::world::{ChannelId, World};
use td_engine::{Rate, SimDuration};

/// Parameters of one duplex link (both directions identical).
#[derive(Clone, Copy, Debug)]
pub struct LinkSpec {
    /// Bandwidth of each direction.
    pub rate: Rate,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Buffer capacity in packets at each sending side
    /// (`None` = unbounded).
    pub capacity: Option<u32>,
    /// Queue discipline at each sending side.
    pub discipline: DisciplineKind,
}

impl LinkSpec {
    /// The paper's bottleneck link: 50 Kbit/s, propagation `delay`, buffer
    /// of `capacity` packets, FIFO drop-tail, error-free (§2.2).
    pub fn paper_bottleneck(delay: SimDuration, capacity: Option<u32>) -> Self {
        LinkSpec {
            rate: Rate::from_kbps(50),
            delay,
            capacity,
            discipline: DisciplineKind::DropTail,
        }
    }

    /// The paper's host–switch link: 10 Mbit/s, 0.1 ms propagation,
    /// effectively unbounded buffer (never binding at these speeds).
    pub fn paper_host_link() -> Self {
        LinkSpec {
            rate: Rate::from_mbps(10),
            delay: SimDuration::from_micros(100),
            capacity: None,
            discipline: DisciplineKind::DropTail,
        }
    }

    /// Add this link between `a` and `b` as a pair of simplex channels.
    /// Returns `(a→b, b→a)`.
    pub fn add_between(&self, w: &mut World, a: NodeId, b: NodeId) -> (ChannelId, ChannelId) {
        let ab = w.add_channel(
            a,
            b,
            self.rate,
            self.delay,
            self.capacity,
            self.discipline.build(),
        );
        let ba = w.add_channel(
            b,
            a,
            self.rate,
            self.delay,
            self.capacity,
            self.discipline.build(),
        );
        (ab, ba)
    }
}

/// The paper's Figure 1 network, fully wired and routed.
pub struct Dumbbell {
    /// The world, ready for endpoint attachment.
    pub world: World,
    /// Host-1 (left).
    pub host1: NodeId,
    /// Host-2 (right).
    pub host2: NodeId,
    /// Switch-1 (left).
    pub switch1: NodeId,
    /// Switch-2 (right).
    pub switch2: NodeId,
    /// Bottleneck channel Switch-1 → Switch-2. Its buffer is "queue 1" in
    /// the paper's figures (data from Host-1, ACKs from connection 2).
    pub bottleneck_12: ChannelId,
    /// Bottleneck channel Switch-2 → Switch-1 ("queue 2").
    pub bottleneck_21: ChannelId,
}

/// Build the Figure 1 dumbbell.
///
/// * `seed` — world RNG seed.
/// * `bottleneck` — the inter-switch link (50 Kbit/s in the paper, with
///   τ ∈ {0.01 s, 1 s} and a 20/30/60/120-packet or unbounded buffer).
/// * `host_link` — both host–switch links (10 Mbit/s, 0.1 ms in the paper).
/// * `host_proc_delay` — per-packet host processing time (0.1 ms).
pub fn dumbbell(
    seed: u64,
    bottleneck: LinkSpec,
    host_link: LinkSpec,
    host_proc_delay: SimDuration,
) -> Dumbbell {
    let mut w = World::new(seed);
    let host1 = w.add_host("Host-1", host_proc_delay);
    let host2 = w.add_host("Host-2", host_proc_delay);
    let switch1 = w.add_switch("Switch-1");
    let switch2 = w.add_switch("Switch-2");
    host_link.add_between(&mut w, host1, switch1);
    host_link.add_between(&mut w, host2, switch2);
    let (bottleneck_12, bottleneck_21) = bottleneck.add_between(&mut w, switch1, switch2);
    w.compute_routes();
    w.validate_routes();
    Dumbbell {
        world: w,
        host1,
        host2,
        switch1,
        switch2,
        bottleneck_12,
        bottleneck_21,
    }
}

/// A chain of switches, one host each (the \[19\] §5 topology generalized).
pub struct Chain {
    /// The world, ready for endpoint attachment.
    pub world: World,
    /// `hosts[i]` hangs off `switches[i]`.
    pub hosts: Vec<NodeId>,
    /// The switch backbone, left to right.
    pub switches: Vec<NodeId>,
    /// `trunk_right[i]` is the bottleneck channel `switches[i] →
    /// switches[i+1]`.
    pub trunk_right: Vec<ChannelId>,
    /// `trunk_left[i]` is the bottleneck channel `switches[i+1] →
    /// switches[i]`.
    pub trunk_left: Vec<ChannelId>,
}

/// Build a chain of `n_switches` switches (≥ 2), each with one attached
/// host. Inter-switch links use `trunk`; host links use `host_link`.
pub fn chain(
    seed: u64,
    n_switches: usize,
    trunk: LinkSpec,
    host_link: LinkSpec,
    host_proc_delay: SimDuration,
) -> Chain {
    assert!(n_switches >= 2, "a chain needs at least two switches");
    let mut w = World::new(seed);
    let mut hosts = Vec::with_capacity(n_switches);
    let mut switches = Vec::with_capacity(n_switches);
    for i in 0..n_switches {
        hosts.push(w.add_host(&format!("Host-{}", i + 1), host_proc_delay));
        switches.push(w.add_switch(&format!("Switch-{}", i + 1)));
    }
    for i in 0..n_switches {
        host_link.add_between(&mut w, hosts[i], switches[i]);
    }
    let mut trunk_right = Vec::new();
    let mut trunk_left = Vec::new();
    for i in 0..n_switches - 1 {
        let (r, l) = trunk.add_between(&mut w, switches[i], switches[i + 1]);
        trunk_right.push(r);
        trunk_left.push(l);
    }
    w.compute_routes();
    w.validate_routes();
    Chain {
        world: w,
        hosts,
        switches,
        trunk_right,
        trunk_left,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{ConnId, Packet, PacketKind};
    use crate::world::{Ctx, Endpoint};
    use std::any::Any;
    use td_engine::SimTime;

    struct OneShot;
    impl Endpoint for OneShot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(PacketKind::Data, 1, 500, false);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
    struct Sink {
        got: u64,
    }
    impl Endpoint for Sink {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            assert!(pkt.is_data());
            self.got += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
    impl OneShot {
        fn boxed() -> Box<dyn Endpoint> {
            Box::new(OneShot)
        }
    }

    #[test]
    fn dumbbell_is_wired_and_routed() {
        let spec = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(20));
        let mut d = dumbbell(
            1,
            spec,
            LinkSpec::paper_host_link(),
            SimDuration::from_micros(100),
        );
        let src = d
            .world
            .attach(d.host1, d.host2, ConnId(0), OneShot::boxed());
        let snk = d
            .world
            .attach(d.host2, d.host1, ConnId(0), Box::new(Sink { got: 0 }));
        d.world.start_at(src, SimTime::ZERO);
        d.world.run_to_completion();
        let sink = d
            .world
            .endpoint(snk)
            .unwrap()
            .as_any()
            .downcast_ref::<Sink>()
            .unwrap();
        assert_eq!(sink.got, 1);
        // The data packet crossed the 1→2 bottleneck, not 2→1.
        assert_eq!(d.world.channel_stats(d.bottleneck_12).tx_packets, 1);
        assert_eq!(d.world.channel_stats(d.bottleneck_21).tx_packets, 0);
    }

    #[test]
    fn dumbbell_latency_matches_hand_computation() {
        // host uplink: 500B @10Mbps = 400 us, +0.1 ms prop
        // bottleneck:  500B @50Kbps = 80 ms, +10 ms prop
        // downlink:    400 us, +0.1 ms prop; host processing 0.1 ms.
        let spec = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(20));
        let mut d = dumbbell(
            1,
            spec,
            LinkSpec::paper_host_link(),
            SimDuration::from_micros(100),
        );
        let src = d
            .world
            .attach(d.host1, d.host2, ConnId(0), OneShot::boxed());
        let _ = d
            .world
            .attach(d.host2, d.host1, ConnId(0), Box::new(Sink { got: 0 }));
        d.world.start_at(src, SimTime::ZERO);
        d.world.run_to_completion();
        let expected = 400 + 100 + 80_000 + 10_000 + 400 + 100 + 100; // microseconds
        assert_eq!(d.world.now(), SimTime::from_micros(expected));
    }

    #[test]
    fn chain_routes_across_multiple_hops() {
        let trunk = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(30));
        let mut c = chain(
            1,
            4,
            trunk,
            LinkSpec::paper_host_link(),
            SimDuration::from_micros(100),
        );
        // Host-1 → Host-4: three trunk hops.
        let src = c
            .world
            .attach(c.hosts[0], c.hosts[3], ConnId(0), OneShot::boxed());
        let snk = c
            .world
            .attach(c.hosts[3], c.hosts[0], ConnId(0), Box::new(Sink { got: 0 }));
        c.world.start_at(src, SimTime::ZERO);
        c.world.run_to_completion();
        let sink = c
            .world
            .endpoint(snk)
            .unwrap()
            .as_any()
            .downcast_ref::<Sink>()
            .unwrap();
        assert_eq!(sink.got, 1);
        for i in 0..3 {
            assert_eq!(c.world.channel_stats(c.trunk_right[i]).tx_packets, 1);
            assert_eq!(c.world.channel_stats(c.trunk_left[i]).tx_packets, 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn chain_rejects_single_switch() {
        let trunk = LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(30));
        let _ = chain(
            1,
            1,
            trunk,
            LinkSpec::paper_host_link(),
            SimDuration::from_micros(100),
        );
    }
}

#[cfg(test)]
mod routing_tests {
    use super::*;
    use crate::packet::{ConnId, Packet, PacketKind};
    use crate::world::{Ctx, Endpoint, World};
    use std::any::Any;
    use td_engine::SimTime;

    struct Shot;
    impl Endpoint for Shot {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.send(PacketKind::Data, 1, 100, false);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }
    struct Count {
        got: u64,
    }
    impl Endpoint for Count {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.got += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _t: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Star: one central switch, four hosts; all-pairs reachability.
    #[test]
    fn star_topology_routes_all_pairs() {
        let mut w = World::new(1);
        let hub = w.add_switch("hub");
        let hosts: Vec<_> = (0..4)
            .map(|i| w.add_host(&format!("h{i}"), SimDuration::from_micros(10)))
            .collect();
        for &h in &hosts {
            LinkSpec::paper_host_link().add_between(&mut w, h, hub);
        }
        w.compute_routes();
        let mut conn = 0u32;
        let mut sinks = Vec::new();
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let c = ConnId(conn);
                conn += 1;
                let s = w.attach(a, b, c, Box::new(Shot));
                sinks.push(w.attach(b, a, c, Box::new(Count { got: 0 })));
                w.start_at(s, SimTime::ZERO);
            }
        }
        w.run_to_completion();
        for snk in sinks {
            let c = w
                .endpoint(snk)
                .unwrap()
                .as_any()
                .downcast_ref::<Count>()
                .unwrap();
            assert_eq!(c.got, 1);
        }
    }

    /// Long chain: traffic crosses every trunk exactly once per direction.
    #[test]
    fn long_chain_end_to_end() {
        let trunk = LinkSpec::paper_bottleneck(SimDuration::from_millis(1), Some(30));
        let mut c = chain(
            1,
            6,
            trunk,
            LinkSpec::paper_host_link(),
            SimDuration::from_micros(10),
        );
        let n = c.hosts.len();
        let s = c
            .world
            .attach(c.hosts[0], c.hosts[n - 1], ConnId(0), Box::new(Shot));
        let snk = c.world.attach(
            c.hosts[n - 1],
            c.hosts[0],
            ConnId(0),
            Box::new(Count { got: 0 }),
        );
        c.world.start_at(s, SimTime::ZERO);
        c.world.run_to_completion();
        let got = c
            .world
            .endpoint(snk)
            .unwrap()
            .as_any()
            .downcast_ref::<Count>()
            .unwrap()
            .got;
        assert_eq!(got, 1);
        for t in &c.trunk_right {
            assert_eq!(c.world.channel_stats(*t).tx_packets, 1);
        }
        for t in &c.trunk_left {
            assert_eq!(c.world.channel_stats(*t).tx_packets, 0);
        }
    }

    /// Routes are shortest-path: in a chain, a middle-to-middle flow never
    /// touches the outer trunks.
    #[test]
    fn shortest_path_stays_local() {
        let trunk = LinkSpec::paper_bottleneck(SimDuration::from_millis(1), Some(30));
        let mut c = chain(
            1,
            5,
            trunk,
            LinkSpec::paper_host_link(),
            SimDuration::from_micros(10),
        );
        let s = c
            .world
            .attach(c.hosts[1], c.hosts[2], ConnId(0), Box::new(Shot));
        c.world.attach(
            c.hosts[2],
            c.hosts[1],
            ConnId(0),
            Box::new(Count { got: 0 }),
        );
        c.world.start_at(s, SimTime::ZERO);
        c.world.run_to_completion();
        assert_eq!(c.world.channel_stats(c.trunk_right[1]).tx_packets, 1);
        assert_eq!(c.world.channel_stats(c.trunk_right[0]).tx_packets, 0);
        assert_eq!(c.world.channel_stats(c.trunk_right[2]).tx_packets, 0);
        assert_eq!(c.world.channel_stats(c.trunk_right[3]).tx_packets, 0);
    }
}
