//! Deterministic topology partitioner for the sharded executor.
//!
//! The conservative-lookahead protocol in [`crate::shard`] lets a shard run
//! ahead of its neighbours by the *minimum propagation delay of the channels
//! crossing the cut*, so the quality of a partition is the size of its
//! smallest cut-channel delay. Two rules follow:
//!
//! 1. A zero-delay channel must never be cut: it would give zero lookahead
//!    and the shards could never safely advance past each other.
//! 2. Among positive delays, cut only the *largest* delay classes needed to
//!    get enough pieces — in the paper's topologies the long-haul trunks
//!    dwarf the host access links, so cutting at the trunks yields both a
//!    balanced partition and a generous horizon.
//!
//! The algorithm welds nodes joined by "short" channels into atoms with a
//! union-find, lowering the cuttable-delay bar one distinct delay class at
//! a time until at least `shards` atoms exist (or only zero-delay welds
//! remain), then packs atoms onto shards greedily, heaviest first, with the
//! attached-endpoint count as the load estimate. Every step breaks ties on
//! the smallest node id, so the assignment is a pure function of the
//! topology — the same on every run, machine, and thread count.

use crate::world::World;
use td_engine::SimDuration;

/// Plain union-find over node indices.
struct Dsu(Vec<u32>);

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu((0..n as u32).collect())
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.0[root as usize] != root {
            root = self.0[root as usize];
        }
        // Path compression.
        let mut cur = x;
        while self.0[cur as usize] != root {
            let next = self.0[cur as usize];
            self.0[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Union by *smaller root id* so representatives are deterministic.
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.0[hi as usize] = lo;
        }
    }
}

/// Assign every node of `world`'s topology to a shard in `0..shards`.
///
/// Guarantees: the returned vector has one entry per node; every channel
/// whose endpoints land on different shards has a strictly positive delay;
/// the assignment is deterministic. When the topology cannot be split into
/// `shards` pieces without cutting a zero-delay channel, fewer shards are
/// used (the extras simply stay empty, which the executor tolerates).
pub(crate) fn partition(world: &World, shards: u32) -> Vec<u32> {
    let n = world.node_count();
    if shards <= 1 || n == 0 {
        return vec![0; n];
    }

    let edges: Vec<(u32, u32, SimDuration)> = world
        .channel_ids()
        .into_iter()
        .map(|ch| {
            let (src, dst) = world.channel_nodes(ch);
            (src.0, dst.0, world.channel_delay(ch))
        })
        .collect();

    // Distinct positive delay classes, largest first. `classes[k]` is the
    // cutoff when the top `k + 1` classes are cuttable: channels with
    // delay < classes[k] are welded.
    let mut classes: Vec<SimDuration> = edges
        .iter()
        .map(|&(_, _, d)| d)
        .filter(|&d| d > SimDuration::ZERO)
        .collect();
    classes.sort_unstable_by(|a, b| b.cmp(a));
    classes.dedup();

    let mut dsu = Dsu::new(n);
    if classes.is_empty() {
        // Every channel has zero delay: nothing is cuttable.
        for &(a, b, _) in &edges {
            dsu.union(a, b);
        }
    } else {
        for k in 0..classes.len() {
            let cutoff = classes[k];
            let mut trial = Dsu::new(n);
            for &(a, b, d) in &edges {
                if d < cutoff {
                    trial.union(a, b);
                }
            }
            let atoms = (0..n as u32).filter(|&i| trial.find(i) == i).count();
            if atoms >= shards as usize || k == classes.len() - 1 {
                dsu = trial;
                break;
            }
        }
    }

    // Collect atoms in order of their (deterministic, minimal) root id and
    // weigh each by how many protocol endpoints live on it — the best
    // proxy we have for event load.
    let mut ep_load = vec![0u64; n];
    for i in 0..world.endpoint_count() {
        ep_load[world.ep_host(i).0 as usize] += 1;
    }
    let mut atoms: Vec<(u32, u64)> = Vec::new(); // (root, weight)
    for i in 0..n as u32 {
        if dsu.find(i) == i {
            atoms.push((i, 1));
        }
    }
    for i in 0..n as u32 {
        let root = dsu.find(i);
        let slot = atoms
            .iter_mut()
            .find(|(r, _)| *r == root)
            .expect("every node has a root atom");
        slot.1 += ep_load[i as usize];
    }

    // Heaviest atoms first; ties broken by root id. Greedily place each on
    // the lightest shard, lowest index winning ties.
    atoms.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut shard_load = vec![0u64; shards as usize];
    let mut root_shard = vec![0u32; n];
    for (root, weight) in atoms {
        let target = (0..shards as usize)
            .min_by_key(|&s| (shard_load[s], s))
            .expect("at least one shard");
        shard_load[target] += weight;
        root_shard[root as usize] = target as u32;
    }

    (0..n as u32)
        .map(|i| root_shard[dsu.find(i) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DisciplineKind;
    use td_engine::{Rate, SimDuration};

    fn link(w: &mut World, a: crate::NodeId, b: crate::NodeId, delay_us: u64) {
        for (s, d) in [(a, b), (b, a)] {
            w.add_channel(
                s,
                d,
                Rate::from_kbps(1000),
                SimDuration::from_micros(delay_us),
                Some(20),
                DisciplineKind::DropTail.build(),
            );
        }
    }

    /// Two clusters joined by one long trunk: the trunk is the only cut.
    fn two_cluster_world() -> World {
        let mut w = World::new(7);
        let h = SimDuration::from_micros(100);
        let a0 = w.add_host("a0", h);
        let s0 = w.add_switch("s0");
        let a1 = w.add_host("a1", h);
        let b0 = w.add_host("b0", h);
        let s1 = w.add_switch("s1");
        let b1 = w.add_host("b1", h);
        link(&mut w, a0, s0, 10);
        link(&mut w, a1, s0, 10);
        link(&mut w, b0, s1, 10);
        link(&mut w, b1, s1, 10);
        link(&mut w, s0, s1, 10_000); // trunk
        w
    }

    #[test]
    fn single_shard_is_all_zero() {
        let w = two_cluster_world();
        assert_eq!(partition(&w, 1), vec![0; 6]);
    }

    #[test]
    fn trunk_is_the_cut() {
        let w = two_cluster_world();
        let p = partition(&w, 2);
        // Each cluster stays whole...
        assert_eq!(p[0], p[1]); // a0 with s0
        assert_eq!(p[0], p[2]); // a1 with s0
        assert_eq!(p[3], p[4]); // b0 with s1
        assert_eq!(p[3], p[5]); // b1 with s1
                                // ...and the two clusters land on different shards.
        assert_ne!(p[0], p[3]);
    }

    #[test]
    fn partition_is_deterministic() {
        let w = two_cluster_world();
        let w2 = two_cluster_world();
        assert_eq!(partition(&w, 4), partition(&w2, 4));
    }

    #[test]
    fn zero_delay_edges_are_never_cut() {
        let mut w = World::new(3);
        let a = w.add_host("a", SimDuration::ZERO);
        let b = w.add_switch("b");
        let c = w.add_switch("c");
        link(&mut w, a, b, 0); // must stay welded
        link(&mut w, b, c, 500);
        let p = partition(&w, 2);
        assert_eq!(p[0], p[1], "zero-delay edge was cut");
        assert_ne!(p[1], p[2]);
    }

    #[test]
    fn unsplittable_topology_collapses_to_one_shard() {
        let mut w = World::new(3);
        let a = w.add_host("a", SimDuration::ZERO);
        let b = w.add_switch("b");
        link(&mut w, a, b, 0);
        let p = partition(&w, 4);
        assert_eq!(p[0], p[1]);
    }
}
