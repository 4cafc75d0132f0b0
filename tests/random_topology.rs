//! Conservation and reachability on randomized topologies.
//!
//! The paper's configurations are dumbbells and chains; the substrate
//! must be correct on *any* connected graph. Generate random trees of
//! switches with hosts hanging off random switches, wire random TCP
//! connections across them, and assert the global laws. Topologies come
//! from the engine's deterministic [`SimRng`] with a fixed seed per case.

use std::collections::HashMap;
use tahoe_dynamics::engine::{Rate, SimDuration, SimRng, SimTime};
use tahoe_dynamics::net::{ConnId, DisciplineKind, NodeId, PacketId, TraceEvent, World};
use tahoe_dynamics::tcp::{ReceiverConfig, SenderConfig, TcpReceiver, TcpSender};

const CASES: u64 = 24;

#[derive(Debug, Clone)]
struct Topo {
    seed: u64,
    n_switches: usize,
    /// parent[i] for switch i ≥ 1: attaches to switch parent[i] < i
    /// (yields a random tree).
    parents: Vec<usize>,
    /// host i hangs off switches[host_at[i]].
    host_at: Vec<usize>,
    /// connections as (src_host, dst_host) index pairs.
    flows: Vec<(usize, usize)>,
    secs: u64,
}

fn topo(rng: &mut SimRng) -> Topo {
    let n_switches = rng.next_range(2, 5) as usize;
    let seed = rng.next_range(1, 9999);
    let parents = (0..n_switches - 1)
        .map(|i| rng.next_below(i as u64 + 1) as usize)
        .collect();
    let n_hosts = rng.next_range(2, 5) as usize;
    let host_at = (0..n_hosts)
        .map(|_| rng.next_below(n_switches as u64) as usize)
        .collect();
    let n_flows = rng.next_range(1, 4) as usize;
    let flows = (0..n_flows)
        .map(|_| {
            (
                rng.next_below(n_hosts as u64) as usize,
                rng.next_below(n_hosts as u64) as usize,
            )
        })
        .collect();
    Topo {
        seed,
        n_switches,
        parents,
        host_at,
        flows,
        secs: rng.next_range(20, 49),
    }
}

fn build(t: &Topo) -> (World, Vec<(ConnId, tahoe_dynamics::net::EndpointId)>) {
    let mut w = World::new(t.seed);
    let switches: Vec<NodeId> = (0..t.n_switches)
        .map(|i| w.add_switch(&format!("s{i}")))
        .collect();
    let hosts: Vec<NodeId> = t
        .host_at
        .iter()
        .enumerate()
        .map(|(i, _)| w.add_host(&format!("h{i}"), SimDuration::from_micros(100)))
        .collect();
    let link = |w: &mut World, a: NodeId, b: NodeId, slow: bool| {
        let rate = if slow {
            Rate::from_kbps(50)
        } else {
            Rate::from_mbps(10)
        };
        for (x, y) in [(a, b), (b, a)] {
            w.add_channel(
                x,
                y,
                rate,
                SimDuration::from_millis(5),
                Some(15),
                DisciplineKind::DropTail.build(),
            );
        }
    };
    // Tree of switches (slow trunks → congestion happens).
    for (i, &p) in t.parents.iter().enumerate() {
        link(&mut w, switches[i + 1], switches[p], true);
    }
    for (i, &at) in t.host_at.iter().enumerate() {
        link(&mut w, hosts[i], switches[at], false);
    }
    w.compute_routes();

    let mut eps = Vec::new();
    for (k, &(a, b)) in t.flows.iter().enumerate() {
        if a == b {
            continue; // self-flows are meaningless
        }
        let conn = ConnId(k as u32);
        let s = w.attach(
            hosts[a],
            hosts[b],
            conn,
            TcpSender::boxed(SenderConfig::paper()),
        );
        let r = w.attach(
            hosts[b],
            hosts[a],
            conn,
            TcpReceiver::boxed(ReceiverConfig::paper()),
        );
        w.start_at(s, SimTime::from_millis(k as u64 * 113));
        eps.push((conn, r));
    }
    (w, eps)
}

#[test]
fn random_tree_topologies_conserve_and_deliver() {
    for case in 0..CASES {
        let mut rng = SimRng::new(0x7090_1091 + case);
        let t = topo(&mut rng);
        let (mut w, receivers) = build(&t);
        if receivers.is_empty() {
            continue; // all flows were self-flows
        }
        w.run_until(SimTime::from_secs(t.secs));

        // Packet conservation across the whole graph.
        let mut state: HashMap<PacketId, u8> = HashMap::new();
        for r in w.trace().records() {
            match r.ev {
                TraceEvent::Send { pkt, .. } => {
                    assert!(state.insert(pkt.id, 0).is_none(), "case {case}");
                }
                TraceEvent::Drop { pkt, .. } => {
                    assert_eq!(state.insert(pkt.id, 1), Some(0), "case {case}");
                }
                TraceEvent::Deliver { pkt, .. } => {
                    assert_eq!(state.insert(pkt.id, 2), Some(0), "case {case}");
                }
                _ => {}
            }
        }

        // Every connection delivered a contiguous stream and made progress.
        for &(conn, rep) in &receivers {
            let rx = w
                .endpoint(rep)
                .unwrap()
                .as_any()
                .downcast_ref::<TcpReceiver>()
                .unwrap();
            assert_eq!(rx.cumulative_ack(), rx.stats().delivered, "case {case}");
            assert!(
                rx.stats().delivered > 0,
                "case {case}: {conn:?} delivered nothing in {} s on {t:?}",
                t.secs
            );
        }

        // No channel buffer ever exceeded its 15-packet capacity.
        for r in w.trace().records() {
            if let TraceEvent::Enqueue { qlen_after, .. } = r.ev {
                assert!(qlen_after <= 15, "case {case}");
            }
        }
    }
}
