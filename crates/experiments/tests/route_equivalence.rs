//! Route-equivalence property test: the compressed run-length routing
//! tables must resolve exactly the same next-hop as a reference dense
//! map built by an independent BFS over the public topology surface —
//! for every (switch, host) pair, on every topology family the repo
//! ships (dumbbell, chain, star, scale cluster chains) and on seeded
//! random switch graphs (meshes with cycles and equal-cost ties,
//! parallel channels, one-way switch links, single-neighbour switches,
//! unreachable parts). Every host is single-homed — one uplink, and
//! downlinks only from that uplink's switch — which is the class of
//! topology on which the reference's host-inclusive BFS and the
//! switches-only builder must agree.
//!
//! The regression pins that make this a safe refactor live elsewhere
//! and are unchanged by the compression work: the golden output hash
//! (`runner_determinism.rs`), the serial-vs-sharded report diff
//! (`scale::tests::quick_report_is_shard_invariant` and the CI
//! determinism job), and the TDSW snapshot round-trip
//! (`snapshot_roundtrip.rs`).

use std::collections::HashMap;

use td_engine::{Rate, SimDuration, SimRng};
use td_experiments::scale::{build_chain, ScaleParams};
use td_net::{ChannelId, DisciplineKind, LinkSpec, NodeId, World};

/// Reference next-hop map: per-destination BFS from scratch over the
/// public channel list, dense `(switch, host) → channel` entries. Same
/// tie-break contract as `World::compute_routes` (hop count, then the
/// neighbour the destination's BFS dequeued first, then the lowest
/// channel into it), but none of its code or data structures.
fn reference_routes(w: &World) -> HashMap<(NodeId, NodeId), ChannelId> {
    let n = w.node_count();
    let mut incoming: Vec<Vec<(NodeId, ChannelId)>> = vec![Vec::new(); n];
    for ch in w.channel_ids() {
        let (src, dst) = w.channel_nodes(ch);
        incoming[dst.0 as usize].push((src, ch));
    }
    for adj in &mut incoming {
        adj.sort_by_key(|&(_, ch)| ch.0);
    }
    let mut routes = HashMap::new();
    for h in 0..n as u32 {
        let dst = NodeId(h);
        if w.is_switch(dst) {
            continue;
        }
        let mut seen = vec![false; n];
        let mut via = vec![ChannelId(0); n];
        let mut frontier = std::collections::VecDeque::new();
        seen[h as usize] = true;
        frontier.push_back(dst);
        while let Some(u) = frontier.pop_front() {
            for &(src, ch) in &incoming[u.0 as usize] {
                if !seen[src.0 as usize] {
                    seen[src.0 as usize] = true;
                    via[src.0 as usize] = ch;
                    frontier.push_back(src);
                }
            }
        }
        for s in 0..n as u32 {
            let sw = NodeId(s);
            if w.is_switch(sw) && seen[s as usize] {
                routes.insert((sw, dst), via[s as usize]);
            }
        }
    }
    routes
}

/// Every (switch, host) pair must resolve identically through the
/// compressed table and the reference map — including pairs the
/// reference says are unreachable (both sides `None`).
fn assert_equivalent(w: &World, label: &str) {
    let reference = reference_routes(w);
    let mut pairs = 0u64;
    for s in 0..w.node_count() as u32 {
        let sw = NodeId(s);
        if !w.is_switch(sw) {
            continue;
        }
        for h in 0..w.node_count() as u32 {
            let host = NodeId(h);
            if w.is_switch(host) {
                continue;
            }
            pairs += 1;
            assert_eq!(
                w.route_lookup(sw, host),
                reference.get(&(sw, host)).copied(),
                "{label}: next-hop mismatch at switch {} ({}) → host {} ({})",
                sw.0,
                w.node_name(sw),
                host.0,
                w.node_name(host),
            );
        }
    }
    assert!(pairs > 0, "{label}: no (switch, host) pairs checked");
}

#[test]
fn dumbbell_matches_reference() {
    let d = td_net::dumbbell(
        1,
        LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(20)),
        LinkSpec::paper_host_link(),
        SimDuration::from_micros(100),
    );
    assert_equivalent(&d.world, "dumbbell");
}

#[test]
fn chains_match_reference() {
    for n_switches in [2, 4, 9] {
        let c = td_net::chain(
            1,
            n_switches,
            LinkSpec::paper_bottleneck(SimDuration::from_millis(10), Some(30)),
            LinkSpec::paper_host_link(),
            SimDuration::from_micros(100),
        );
        assert_equivalent(&c.world, &format!("chain-{n_switches}"));
    }
}

#[test]
fn star_matches_reference() {
    let mut w = World::new(1);
    let hub = w.add_switch("hub");
    for i in 0..6 {
        let h = w.add_host(&format!("h{i}"), SimDuration::from_micros(10));
        LinkSpec::paper_host_link().add_between(&mut w, h, hub);
    }
    w.compute_routes();
    w.validate_routes();
    assert_equivalent(&w, "star");
}

#[test]
fn scale_cluster_chain_matches_reference() {
    for clusters in [1, 2, 5] {
        let p = ScaleParams {
            clusters,
            conns_per_cluster: 2,
            inter_conns: 2,
            duration_s: 1,
            trace: false,
        };
        let mut w = World::new(9);
        build_chain(&mut w, 9, &p);
        assert_equivalent(&w, &format!("scale-{clusters}-clusters"));
    }
}

/// Shape knobs of one random topology family.
#[derive(Clone, Copy)]
struct Family {
    name: &'static str,
    /// Extra duplex switch links beyond the spanning tree (cycles and
    /// equal-cost ties).
    extra_links: usize,
    /// Chance that a switch link is doubled by a parallel duplex pair.
    parallel: f64,
    /// Chance that a switch link is one-way only (direction random).
    one_way: f64,
    /// Pendant switches hung off a random switch by one duplex link.
    leaves: usize,
    /// Independent components the switches are split into (no link
    /// between them).
    components: usize,
    /// Chance that a host gets no downlink (unreachable as a
    /// destination) or no uplink at all.
    detached: f64,
}

/// A seeded random world in `family`. Node ids interleave hosts and
/// switches in random order, and channels are added in shuffled order,
/// so both the id-gap rule of the run builder and the channel-id
/// tie-break see arbitrary layouts.
fn random_world(seed: u64, f: Family) -> World {
    let mut rng = SimRng::new(seed).derive(0x0A7E_5EED);
    let n_sw = 3 + rng.next_below(14) as usize;
    let n_host = 2 + rng.next_below(14) as usize;
    let mut w = World::new(seed);
    let mut kinds: Vec<bool> = (0..n_sw + f.leaves)
        .map(|_| true)
        .chain((0..n_host).map(|_| false))
        .collect();
    shuffle(&mut kinds, &mut rng);
    let (mut sws, mut hosts) = (Vec::new(), Vec::new());
    for (i, &is_sw) in kinds.iter().enumerate() {
        if is_sw {
            sws.push(w.add_switch(&format!("s{i}")));
        } else {
            hosts.push(w.add_host(&format!("h{i}"), SimDuration::from_micros(10)));
        }
    }
    let (core, pendants) = sws.split_at(n_sw);
    // Each core switch belongs to one component; links stay inside it.
    let comp: Vec<usize> = (0..n_sw).map(|i| i % f.components.max(1)).collect();
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    let link = |a: NodeId, b: NodeId, rng: &mut SimRng, edges: &mut Vec<(NodeId, NodeId)>| {
        let copies = if rng.chance(f.parallel) { 2 } else { 1 };
        for _ in 0..copies {
            if rng.chance(f.one_way) {
                edges.push(if rng.chance(0.5) { (a, b) } else { (b, a) });
            } else {
                edges.push((a, b));
                edges.push((b, a));
            }
        }
    };
    // Spanning tree per component, then random extra links inside one.
    for i in 1..n_sw {
        let peers: Vec<usize> = (0..i).filter(|&j| comp[j] == comp[i]).collect();
        if !peers.is_empty() {
            let j = peers[rng.next_below(peers.len() as u64) as usize];
            link(core[i], core[j], &mut rng, &mut edges);
        }
    }
    for _ in 0..f.extra_links {
        let (i, j) = (
            rng.next_below(n_sw as u64) as usize,
            rng.next_below(n_sw as u64) as usize,
        );
        if i != j && comp[i] == comp[j] {
            link(core[i], core[j], &mut rng, &mut edges);
        }
    }
    for &p in pendants {
        let j = rng.next_below(n_sw as u64) as usize;
        edges.push((p, core[j]));
        edges.push((core[j], p));
    }
    // Single-homed hosts on any switch, pendants included: one uplink,
    // one or two downlinks from the same switch.
    for &h in &hosts {
        let s = sws[rng.next_below(sws.len() as u64) as usize];
        if rng.chance(f.detached) {
            if rng.chance(0.5) {
                edges.push((h, s)); // sends, but nothing delivers to it
            }
            continue;
        }
        edges.push((h, s));
        for _ in 0..1 + rng.next_below(2) {
            edges.push((s, h));
        }
    }
    shuffle(&mut edges, &mut rng);
    for (a, b) in edges {
        w.add_channel(
            a,
            b,
            Rate::from_mbps(10),
            SimDuration::from_micros(100),
            None,
            DisciplineKind::DropTail.build(),
        );
    }
    w.compute_routes();
    w
}

fn shuffle<T>(v: &mut [T], rng: &mut SimRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
}

const FAMILIES: [Family; 5] = [
    Family {
        name: "mesh",
        extra_links: 12,
        parallel: 0.0,
        one_way: 0.0,
        leaves: 0,
        components: 1,
        detached: 0.0,
    },
    Family {
        name: "parallel",
        extra_links: 6,
        parallel: 0.5,
        one_way: 0.0,
        leaves: 0,
        components: 1,
        detached: 0.0,
    },
    Family {
        name: "one-way",
        extra_links: 10,
        parallel: 0.2,
        one_way: 0.4,
        leaves: 0,
        components: 1,
        detached: 0.0,
    },
    Family {
        name: "leaves",
        extra_links: 2,
        parallel: 0.1,
        one_way: 0.0,
        leaves: 6,
        components: 1,
        detached: 0.0,
    },
    Family {
        name: "unreachable",
        extra_links: 6,
        parallel: 0.1,
        one_way: 0.2,
        leaves: 2,
        components: 3,
        detached: 0.25,
    },
];

#[test]
fn random_topologies_match_reference() {
    for f in FAMILIES {
        let mut partial = 0;
        for seed in 1..=60u64 {
            let w = random_world(seed, f);
            assert_equivalent(&w, &format!("{}-seed-{seed}", f.name));
            partial += usize::from(!w.missing_routes().is_empty());
        }
        if f.components > 1 {
            assert!(partial > 0, "{}: no world left a route missing", f.name);
        }
    }
}
