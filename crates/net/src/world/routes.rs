//! Routing install and validation: static next-hop tables on switches,
//! filled by [`World::compute_routes`] or [`World::set_route`] and checked
//! by [`World::validate_routes`]. The table format itself is
//! [`crate::route`]'s; a packet's per-hop lookup stays in `arrival`.

use super::*;
use crate::route::Run;

impl World {
    /// Install a static route: packets for destination host `dst` arriving
    /// at switch `sw` leave on channel `ch`. The channel must originate at
    /// `sw`: a route onto another node's link would silently teleport
    /// packets and surface only as baffling conservation noise, so it is
    /// rejected at install time.
    pub fn set_route(&mut self, sw: NodeId, dst: NodeId, ch: ChannelId) {
        let src = self.channels.row(ch.0 as usize).src;
        assert!(
            src == sw,
            "set_route: channel {} leaves node {} ({}), not switch {} ({}) — \
             a switch can only route onto its own outgoing channels",
            ch.0,
            src.0,
            self.nodes[src.0 as usize].name,
            sw.0,
            self.nodes[sw.0 as usize].name,
        );
        match &mut self.nodes[sw.0 as usize].kind {
            NodeKind::Switch { table } => table.insert(dst, ch),
            NodeKind::Host { .. } => panic!("set_route on a host"),
        }
    }

    /// Ascending node ids of every host.
    pub(super) fn host_ids(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&n| self.hosts.is_host(n as usize))
            .collect()
    }

    /// Compute shortest-path routes from every switch to every host
    /// (hop-count metric, ties broken by ascending channel id), replacing
    /// whatever routes the switches held.
    ///
    /// One BFS per destination host, in ascending id order, over switches
    /// only. Incoming channels are flat CSR arrays holding only
    /// switch-sourced channels, ascending channel id per node. The root
    /// host scans its incoming channels; each popped switch scans its own.
    /// A host is never pushed: hosts do not forward (`arrival` delivers
    /// every packet that reaches one to its endpoint), so a path through
    /// another host is no path. For single-homed hosts — one uplink, and
    /// downlinks only from that uplink's switch — this is exactly the
    /// host-inclusive BFS: such a host is only ever discovered through its
    /// own switch, which is then already seen, so it discovers nothing.
    ///
    /// Each switch keeps one open run `(start, end, ch)` in a dense array
    /// over the switch list, updated the moment the BFS reaches it: the
    /// run widens to the new destination when the channel matches and the
    /// switch also routed the immediately preceding host (so no host id in
    /// the widened gap was skipped), and is closed into the switch's table
    /// otherwise. Afterwards each fully covering table elides its majority
    /// channel into a default route (see the `route` module).
    pub fn compute_routes(&mut self) {
        // Dense ids: switches first, then hosts, each in node-id order.
        let n = self.nodes.len();
        let host_ids = self.host_ids();
        let n_sw = (n - host_ids.len()) as u32;
        let (mut next_sw, mut next_host) = (0, n_sw);
        let dense: Vec<u32> = (0..n)
            .map(|ni| {
                let next = if self.hosts.is_host(ni) {
                    &mut next_host
                } else {
                    &mut next_sw
                };
                *next += 1;
                *next - 1
            })
            .collect();
        // Switch-sourced incoming channels as CSR over dense ids: node
        // `v`'s entries are `in_adj[in_off[v]..in_off[v + 1]]`, each a
        // `(source switch, channel)`, filled in channel-id order.
        let from_switch = |src: NodeId| !self.hosts.is_host(src.0 as usize);
        let mut in_off = vec![0u32; n + 1];
        for ci in 0..self.channels.len() {
            let row = self.channels.row(ci);
            if from_switch(row.src) {
                in_off[dense[row.dst.0 as usize] as usize + 1] += 1;
            }
        }
        for v in 0..n {
            in_off[v + 1] += in_off[v];
        }
        let mut cursor = in_off.clone();
        let mut in_adj = vec![(0u32, ChannelId(0)); in_off[n] as usize];
        for ci in 0..self.channels.len() {
            let row = self.channels.row(ci);
            if from_switch(row.src) {
                let c = &mut cursor[dense[row.dst.0 as usize] as usize];
                in_adj[*c as usize] = (dense[row.src.0 as usize], ChannelId(ci as u32));
                *c += 1;
            }
        }
        let mut tables: Vec<&mut RouteTable> = self
            .nodes
            .iter_mut()
            .filter_map(|node| match &mut node.kind {
                NodeKind::Switch { table } => {
                    table.clear();
                    Some(table)
                }
                NodeKind::Host { .. } => None,
            })
            .collect();
        debug_assert_eq!(tables.len(), n_sw as usize);
        // A switch's open run ends at `dst` exactly when this BFS has
        // reached it, so the runs double as the visited marks.
        const NO_RUN: Run = Run {
            start: u32::MAX,
            end: u32::MAX,
            ch: ChannelId(u32::MAX),
        };
        let mut open = vec![NO_RUN; n_sw as usize];
        let mut frontier: Vec<u32> = Vec::with_capacity(n_sw as usize);
        let mut prev_host: Option<u32> = None;
        for &dst in &host_ids {
            frontier.clear();
            let (mut v, mut head) = (dense[dst as usize] as usize, 0);
            loop {
                for &(s, ch) in &in_adj[in_off[v] as usize..in_off[v + 1] as usize] {
                    let run = &mut open[s as usize];
                    if run.end == dst {
                        continue;
                    }
                    frontier.push(s);
                    if run.ch == ch && Some(run.end) == prev_host {
                        run.end = dst;
                    } else {
                        if run.ch != NO_RUN.ch {
                            tables[s as usize].push_run(*run);
                        }
                        *run = Run {
                            start: dst,
                            end: dst,
                            ch,
                        };
                    }
                }
                let Some(&u) = frontier.get(head) else {
                    break;
                };
                head += 1;
                v = u as usize;
            }
            prev_host = Some(dst);
        }
        for (table, run) in tables.into_iter().zip(open) {
            if run.ch != NO_RUN.ch {
                table.push_run(run);
            }
            table.elide_default(&host_ids);
            table.shrink();
        }
    }

    /// Every (switch, destination host) pair with no installed route, as
    /// `(switch, host)` node-id pairs in ascending order. Empty when the
    /// routing tables are complete.
    pub fn missing_routes(&self) -> Vec<(NodeId, NodeId)> {
        let host_ids = self.host_ids();
        let mut missing = Vec::new();
        for (ni, node) in self.nodes.iter().enumerate() {
            if let NodeKind::Switch { table } = &node.kind {
                // Complete tables (the common case) are skipped by a run
                // count, not a per-host probe.
                if table.covered_hosts(&host_ids) == host_ids.len() {
                    continue;
                }
                for h in table.missing_hosts(&host_ids) {
                    missing.push((NodeId(ni as u32), NodeId(h)));
                }
            }
        }
        missing
    }

    /// Post-[`World::compute_routes`] reachability validation: panics
    /// listing **every** (switch, destination) pair that has no route, so
    /// a partitioned or mis-wired topology fails loudly at build time
    /// instead of mid-run at the first undeliverable packet. Builders
    /// whose topologies are fully connected by construction call this;
    /// deliberately partial worlds (one-way cuts) simply don't.
    pub fn validate_routes(&self) {
        let missing = self.missing_routes();
        if missing.is_empty() {
            return;
        }
        let mut msg = format!("{} unreachable (switch, destination) pairs:", missing.len());
        for (sw, dst) in &missing {
            msg.push_str(&format!(
                "\n  switch {} ({}) has no route to host {} ({})",
                sw.0, self.nodes[sw.0 as usize].name, dst.0, self.nodes[dst.0 as usize].name
            ));
        }
        panic!("{msg}");
    }

    /// Next-hop channel installed at switch `sw` for destination `dst`
    /// (`None` for a host node or a missing route). Inspection surface
    /// for route-equivalence tests and diagnostics.
    pub fn route_lookup(&self, sw: NodeId, dst: NodeId) -> Option<ChannelId> {
        match &self.nodes[sw.0 as usize].kind {
            NodeKind::Switch { table } => table.lookup(dst),
            NodeKind::Host { .. } => None,
        }
    }

    /// Heap bytes held by all switch routing tables (the compressed
    /// representation actually resident).
    pub fn route_table_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Switch { table } => table.heap_bytes() as u64,
                NodeKind::Host { .. } => 0,
            })
            .sum()
    }

    /// Bytes the legacy dense representation — one `(NodeId, ChannelId)`
    /// entry per resolved (switch, host) route — would need for the same
    /// tables, at 8 bytes per entry. This is the *floor* of any dense
    /// map (a real `HashMap` adds control bytes and load-factor slack),
    /// so compression ratios reported against it are conservative.
    pub fn dense_route_bytes(&self) -> u64 {
        let host_ids = self.host_ids();
        self.nodes
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Switch { table } => table.covered_hosts(&host_ids) as u64 * 8,
                NodeKind::Host { .. } => 0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::DisciplineKind;
    use crate::world::tests::{Acker, Blaster};

    #[test]
    fn dumbbell_routing_delivers_through_switches() {
        // H0 - S0 - S1 - H1.
        let mut w = World::new(1);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        let s0 = w.add_switch("S0");
        let s1 = w.add_switch("S1");
        let fast = Rate::from_mbps(10);
        let slow = Rate::from_kbps(50);
        let us = SimDuration::from_micros(100);
        let ms10 = SimDuration::from_millis(10);
        for (a, b, r, d) in [
            (h0, s0, fast, us),
            (s0, h0, fast, us),
            (s0, s1, slow, ms10),
            (s1, s0, slow, ms10),
            (s1, h1, fast, us),
            (h1, s1, fast, us),
        ] {
            w.add_channel(
                a,
                b,
                r,
                d,
                None,
                DisciplineKind::DropTail.build(),
                FaultModel::NONE,
            );
        }
        w.compute_routes();
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 3,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let snk = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
        let acker = w
            .endpoint(snk)
            .unwrap()
            .as_any()
            .downcast_ref::<Acker>()
            .unwrap();
        assert_eq!(acker.data_seen, 3);
        let blaster = w
            .endpoint(src)
            .unwrap()
            .as_any()
            .downcast_ref::<Blaster>()
            .unwrap();
        assert_eq!(blaster.acks_seen, 3);
    }

    /// A manual route must leave on one of the switch's own outgoing
    /// channels; wiring it onto another node's link is rejected at
    /// install time, not discovered as conservation noise mid-run.
    #[test]
    #[should_panic(expected = "a switch can only route onto its own outgoing channels")]
    fn set_route_rejects_foreign_channel() {
        let mut w = World::new(1);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        let s0 = w.add_switch("S0");
        let s1 = w.add_switch("S1");
        let spec = (
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None::<u32>,
        );
        for (a, b) in [(h0, s0), (s0, s1), (s1, h1)] {
            w.add_channel(
                a,
                b,
                spec.0,
                spec.1,
                spec.2,
                DisciplineKind::DropTail.build(),
                FaultModel::NONE,
            );
        }
        // Channel 2 leaves s1, not s0.
        w.set_route(s0, h1, ChannelId(2));
    }

    /// `validate_routes` must list *every* unreachable (switch,
    /// destination) pair at build time, not just the first.
    #[test]
    fn validate_routes_reports_all_missing_pairs() {
        // Switch s has channels to a only; b and c are send-only hosts
        // (their uplinks exist, the return channels don't).
        let mut w = World::new(1);
        let a = w.add_host("A", SimDuration::from_micros(100));
        let b = w.add_host("B", SimDuration::from_micros(100));
        let c = w.add_host("C", SimDuration::from_micros(100));
        let s = w.add_switch("S");
        let link = |w: &mut World, x, y| {
            w.add_channel(
                x,
                y,
                Rate::from_kbps(50),
                SimDuration::from_millis(10),
                None,
                DisciplineKind::DropTail.build(),
                FaultModel::NONE,
            )
        };
        link(&mut w, a, s);
        link(&mut w, s, a);
        link(&mut w, b, s);
        link(&mut w, c, s);
        w.compute_routes();
        let missing = w.missing_routes();
        assert_eq!(missing, vec![(s, b), (s, c)]);
        let msg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.validate_routes()))
            .expect_err("incomplete routes must fail validation");
        let msg = msg.downcast_ref::<String>().unwrap();
        assert!(msg.contains("2 unreachable"), "{msg}");
        assert!(
            msg.contains("host 1 (B)") && msg.contains("host 2 (C)"),
            "{msg}"
        );
    }

    /// Complete tables validate silently, and lookups agree with what
    /// the BFS installed.
    #[test]
    fn validate_routes_accepts_complete_tables() {
        let mut w = World::new(1);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        let s0 = w.add_switch("S0");
        let link = |w: &mut World, x, y| {
            w.add_channel(
                x,
                y,
                Rate::from_kbps(50),
                SimDuration::from_millis(10),
                None,
                DisciplineKind::DropTail.build(),
                FaultModel::NONE,
            )
        };
        link(&mut w, h0, s0);
        let s0h0 = link(&mut w, s0, h0);
        link(&mut w, h1, s0);
        let s0h1 = link(&mut w, s0, h1);
        w.compute_routes();
        w.validate_routes();
        assert!(w.missing_routes().is_empty());
        assert_eq!(w.route_lookup(s0, h0), Some(s0h0));
        assert_eq!(w.route_lookup(s0, h1), Some(s0h1));
        assert!(w.route_table_bytes() < w.dense_route_bytes() || w.route_table_bytes() == 0);
    }

    /// Hosts do not forward, so the route builder never routes through
    /// one. H's uplink goes to S2 and an extra channel S1 → H reaches it:
    /// S1 must reach D (on S2) over switches, or not at all — a packet
    /// routed S1 → H would reach a host with no endpoint for it.
    #[test]
    fn routes_never_transit_a_host() {
        let build = |with_switch_path: bool| {
            let mut w = World::new(1);
            let s1 = w.add_switch("S1");
            let s2 = w.add_switch("S2");
            let s3 = w.add_switch("S3");
            let h = w.add_host("H", SimDuration::from_micros(100));
            let d = w.add_host("D", SimDuration::from_micros(100));
            let link = |w: &mut World, x, y| {
                w.add_channel(
                    x,
                    y,
                    Rate::from_kbps(50),
                    SimDuration::from_millis(10),
                    None,
                    DisciplineKind::DropTail.build(),
                    FaultModel::NONE,
                )
            };
            link(&mut w, h, s2);
            link(&mut w, s2, h);
            link(&mut w, s1, h); // the extra channel into H
            link(&mut w, d, s2);
            link(&mut w, s2, d);
            link(&mut w, s2, s1);
            let s1s3 = with_switch_path.then(|| {
                let s1s3 = link(&mut w, s1, s3);
                link(&mut w, s3, s2);
                link(&mut w, s2, s3);
                s1s3
            });
            w.compute_routes();
            (w, s1, d, s1s3)
        };
        let (w, s1, d, s1s3) = build(true);
        assert_eq!(w.route_lookup(s1, d), s1s3);
        w.validate_routes();

        let (w, s1, d, _) = build(false);
        assert_eq!(w.route_lookup(s1, d), None);
        let msg = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| w.validate_routes()))
            .expect_err("no switch path: validation must fail at build time");
        let msg = msg.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains("switch 0 (S1) has no route to host 4 (D)"),
            "{msg}"
        );
    }

    /// A run widens across an id gap only when the switch routed every
    /// host in it: S reaches H1, H3 and H7 over one channel but not H5,
    /// so its table keeps two runs and H5 stays unrouted.
    #[test]
    fn runs_bridge_only_hostless_gaps() {
        let mut w = World::new(1);
        let s = w.add_switch("S");
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        let b = w.add_switch("B");
        let h3 = w.add_host("H3", SimDuration::from_micros(100));
        let c = w.add_switch("C");
        let h5 = w.add_host("H5", SimDuration::from_micros(100));
        let _ = w.add_switch("X");
        let h7 = w.add_host("H7", SimDuration::from_micros(100));
        let link = |w: &mut World, x, y| {
            w.add_channel(
                x,
                y,
                Rate::from_kbps(50),
                SimDuration::from_millis(10),
                None,
                DisciplineKind::DropTail.build(),
                FaultModel::NONE,
            )
        };
        let sb = link(&mut w, s, b);
        for h in [h1, h3, h7] {
            link(&mut w, h, b);
            link(&mut w, b, h);
        }
        link(&mut w, h5, c);
        link(&mut w, c, h5);
        w.compute_routes();
        for (dst, want) in [(h1, Some(sb)), (b, Some(sb)), (h3, Some(sb))] {
            assert_eq!(w.route_lookup(s, dst), want, "inside the first run");
        }
        assert_eq!(w.route_lookup(s, h5), None, "skipped host: no bridge");
        assert_eq!(w.route_lookup(s, h7), Some(sb));
        match &w.nodes[s.0 as usize].kind {
            NodeKind::Switch { table } => assert_eq!(table.run_count(), 2),
            NodeKind::Host { .. } => unreachable!(),
        }
    }
}
