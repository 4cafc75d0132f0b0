//! Routing install and validation: static next-hop tables on switches,
//! filled by [`World::compute_routes`] or [`World::set_route`] and checked
//! by [`World::validate_routes`]. The table format itself is
//! [`crate::route`]'s; a packet's per-hop lookup stays in `arrival`.

use super::*;
use crate::route::Run;

/// "No channel" and "not reached" in the route builder's `u32` arrays.
const NONE: u32 = u32::MAX;
/// A group BFS's seed switch, whose channel is its own into each host.
const SEED: u32 = u32::MAX - 1;

/// A set of destinations one block's switches route alike.
#[derive(Clone, Copy)]
enum Source {
    /// The hosts of a group, seeded at their feeders.
    Group(u32),
    /// The hosts beyond a directed bridge, seeded at its near end:
    /// `2b` leaves block `b`'s parent into `b`, `2b + 1` leaves `b`.
    Exit(u32),
}

/// The route builder's working arrays, kept per thread between calls so
/// that a thread building many small worlds (a registry pass builds
/// hundreds) allocates nothing but their tables.
#[derive(Default)]
struct Scratch {
    host_ids: Vec<u32>,
    sw_node: Vec<u32>,
    dense: Vec<u32>,
    cursor: Vec<u32>,
    in_off: Vec<u32>,
    in_adj: Vec<(u32, u32)>,
    mark: Vec<u32>,
    n_feed: Vec<u32>,
    adj_off: Vec<u32>,
    adj: Vec<(u32, u32, bool)>,
    disc: Vec<u32>,
    low: Vec<u32>,
    block: Vec<u32>,
    loc: Vec<u32>,
    members: Vec<u32>,
    blk_off: Vec<u32>,
    unclosed: Vec<u32>,
    dfs: Vec<(u32, u32, u32, u32, u32)>,
    exit_from: Vec<u32>,
    exit_ch: Vec<u32>,
    exit_iv: Vec<(u32, u32)>,
    host_grp: Vec<u32>,
    grp_rep: Vec<u32>,
    iv_off: Vec<u32>,
    iv: Vec<(u32, u32)>,
    src_off: Vec<u32>,
    sources: Vec<Source>,
    res_off: Vec<usize>,
    res: Vec<u32>,
    queue: Vec<u32>,
    union: Vec<(u32, u32)>,
    segs: Vec<(u32, u32, u32)>,
    runs: Vec<Run>,
    per_ch: Vec<u32>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<Scratch> = std::cell::RefCell::default();
}

/// `v` holding `len` copies of `x`, in the allocation it already has.
fn refill<T: Copy>(v: &mut Vec<T>, len: usize, x: T) -> &mut Vec<T> {
    v.clear();
    v.resize(len, x);
    v
}

/// Counts at `off[1..]` into CSR offsets.
fn prefix_sum(off: &mut [u32]) {
    for i in 1..off.len() {
        off[i] += off[i - 1];
    }
}

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

    /// Compute shortest-path routes from every switch to every host,
    /// replacing whatever routes the switches held. Paths run over
    /// switches only: hosts do not forward (`arrival` delivers every
    /// packet that reaches one to its endpoint), so a path through another
    /// host is no path.
    ///
    /// The tables are those of one BFS per destination host over reversed
    /// switch channels, seeded by every switch with a channel into the
    /// host (first channel first), each popped switch scanning its
    /// incoming channels in ascending channel id. A switch therefore
    /// routes by hop count, then toward the neighbour that BFS dequeued
    /// first, then over the lowest channel into that neighbour. For
    /// single-homed hosts — one uplink, and downlinks only from that
    /// uplink's switch — this is exactly the host-inclusive BFS: such a
    /// host is only ever discovered through its own switch, which is then
    /// already seen, so it discovers nothing.
    ///
    /// The builder gets those tables without a BFS per destination:
    ///
    /// 1. It cuts the undirected switch skeleton at its bridges (an
    ///    iterative Tarjan lowlink); what lies between bridges is a
    ///    *block*. Virtual edges join each host's feeders (the switches
    ///    with a channel into it) and are never cut, so the feeders share
    ///    a block and the blocks, bridges between them, form a forest.
    /// 2. A destination's BFS enters a block other than its own through
    ///    one bridge end only, so inside the block its dequeue order, and
    ///    with it every tie-break, is that of a BFS seeded there. One
    ///    block-local BFS runs per *group* of hosts (hosts fed by one
    ///    switch alone share a group; a multi-homed host is its own) and
    ///    one per exit bridge `x→y`, seeded at `x`.
    /// 3. Each directed bridge `x→y` gets, once, the host-rank intervals
    ///    beyond it that `x` reaches through `y`: a bottom-up and then a
    ///    top-down pass over the forest of blocks.
    /// 4. A switch routes a group's hosts by that group's BFS (a seed over
    ///    its own lowest channel into the host) and the hosts beyond an
    ///    exit bridge `x→y` by the BFS seeded at `x` (at `x` itself, the
    ///    lowest channel `x→y`).
    ///
    /// Each switch takes its block's host intervals in ascending rank into
    /// runs, widened when the channel matches and the run ends at the
    /// preceding host (so no host id in the widened gap was skipped), and
    /// installs them; a fully covering table elides its majority channel
    /// into a default route (see the `route` module). On a tree of
    /// switches every block is one switch and the build is linear in
    /// switches, channels and runs; a meshy block costs a BFS per host
    /// group inside it.
    pub fn compute_routes(&mut self) {
        SCRATCH.with_borrow_mut(|scratch| self.compute_routes_in(scratch));
    }

    /// [`World::compute_routes`] over the thread's working arrays.
    fn compute_routes_in(&mut self, scratch: &mut Scratch) {
        let Scratch {
            host_ids,
            sw_node,
            dense,
            cursor,
            in_off,
            in_adj,
            mark,
            n_feed,
            adj_off,
            adj,
            disc,
            low,
            block,
            loc,
            members,
            blk_off,
            unclosed,
            dfs,
            exit_from,
            exit_ch,
            exit_iv,
            host_grp,
            grp_rep,
            iv_off,
            iv,
            src_off,
            sources,
            res_off,
            res,
            queue,
            union,
            segs,
            runs,
            per_ch,
        } = scratch;
        // Dense ids: switches first, then hosts by rank, each in node-id
        // order; `sw_node` and `host_ids` map them back to node ids.
        let n = self.nodes.len();
        host_ids.clear();
        host_ids.extend((0..n as u32).filter(|&v| self.hosts.is_host(v as usize)));
        let n_sw = n - host_ids.len();
        sw_node.clear();
        let mut next_host = n_sw as u32;
        for (ni, d) in refill(dense, n, 0).iter_mut().enumerate() {
            if self.hosts.is_host(ni) {
                *d = next_host;
                next_host += 1;
            } else {
                *d = sw_node.len() as u32;
                sw_node.push(ni as u32);
            }
        }
        // Switch-sourced incoming channels as CSR over dense ids: node
        // `v`'s entries are `in_adj[in_off[v]..in_off[v + 1]]`, each a
        // `(source switch, channel)`, filled in channel-id order.
        let from_switch = |src: NodeId| !self.hosts.is_host(src.0 as usize);
        refill(in_off, n + 1, 0);
        for ci in 0..self.channels.len() {
            let row = self.channels.row(ci);
            if from_switch(row.src) {
                in_off[dense[row.dst.0 as usize] as usize + 1] += 1;
            }
        }
        prefix_sum(in_off);
        refill(in_adj, in_off[n] as usize, (0, 0));
        cursor.clone_from(in_off);
        for ci in 0..self.channels.len() {
            let row = self.channels.row(ci);
            if from_switch(row.src) {
                let c = &mut cursor[dense[row.dst.0 as usize] as usize];
                in_adj[*c as usize] = (dense[row.src.0 as usize], ci as u32);
                *c += 1;
            }
        }
        // A host's feeders: its entries with each switch kept at its first
        // (lowest) channel, compacted in place to the first `n_feed` slots.
        refill(mark, n_sw, NONE);
        for (r, len) in refill(n_feed, host_ids.len(), 0).iter_mut().enumerate() {
            let at = in_off[n_sw + r] as usize;
            for i in at..in_off[n_sw + r + 1] as usize {
                let (s, ch) = in_adj[i];
                if mark[s as usize] != r as u32 {
                    mark[s as usize] = r as u32;
                    in_adj[at + *len as usize] = (s, ch);
                    *len += 1;
                }
            }
        }
        let feeders = |r: usize| &in_adj[in_off[n_sw + r] as usize..][..n_feed[r] as usize];
        let incoming = |s: usize| &in_adj[in_off[s] as usize..in_off[s + 1] as usize];

        // The undirected skeleton: every channel between two switches at
        // both ends, as `(other end, channel, leaves here)`, then a virtual
        // edge, numbered from `n_ch` up, between consecutive feeders of
        // each host.
        let n_ch = self.channels.len() as u32;
        refill(adj_off, n_sw + 1, 0);
        for d in 0..n_sw {
            for &(s, _) in incoming(d) {
                if s as usize != d {
                    adj_off[s as usize + 1] += 1;
                    adj_off[d + 1] += 1;
                }
            }
        }
        for r in 0..host_ids.len() {
            for w in feeders(r).windows(2) {
                adj_off[w[0].0 as usize + 1] += 1;
                adj_off[w[1].0 as usize + 1] += 1;
            }
        }
        prefix_sum(adj_off);
        refill(adj, adj_off[n_sw] as usize, (0, 0, false));
        cursor.clone_from(adj_off);
        let mut put = |x: u32, entry: (u32, u32, bool)| {
            let c = &mut cursor[x as usize];
            adj[*c as usize] = entry;
            *c += 1;
        };
        for d in 0..n_sw as u32 {
            for &(s, ch) in incoming(d as usize) {
                if s != d {
                    put(d, (s, ch, false));
                    put(s, (d, ch, true));
                }
            }
        }
        let mut virtual_id = n_ch;
        for r in 0..host_ids.len() {
            for w in feeders(r).windows(2) {
                put(w[0].0, (w[1].0, virtual_id, false));
                put(w[1].0, (w[0].0, virtual_id, false));
                virtual_id += 1;
            }
        }

        // Blocks by Tarjan's lowlink, without recursion. All channels
        // between two switches count as one edge, and a virtual edge is
        // never cut. A block closes when the DFS leaves its first switch
        // over a bridge, or ends at its root, so children close before
        // parents: a block's id is lower than its parent's. Directed bridge
        // `2b` leaves the parent block into block `b`, `2b + 1` the other
        // way; `exit_from` holds its near end and `exit_ch` its lowest
        // channel (`NONE` when none runs that way, or `b` is a root).
        refill(disc, n_sw, NONE);
        refill(low, n_sw, 0);
        refill(block, n_sw, NONE);
        refill(loc, n_sw, 0);
        members.clear();
        refill(blk_off, 1, 0);
        exit_from.clear();
        exit_ch.clear();
        let mut time = 0;
        for root in 0..n_sw as u32 {
            if disc[root as usize] != NONE {
                continue;
            }
            // (switch, DFS parent, edge from it, adjacency cursor, its
            // place among the unclosed switches)
            dfs.push((root, NONE, NONE, adj_off[root as usize], 0));
            disc[root as usize] = time;
            low[root as usize] = time;
            time += 1;
            unclosed.push(root);
            while let Some(top) = dfs.last_mut() {
                let (v, p, via, at) = (top.0, top.1, top.2, top.4 as usize);
                if top.3 < adj_off[v as usize + 1] {
                    let (w, id, _) = adj[top.3 as usize];
                    top.3 += 1;
                    if id == via || (w == p && id < n_ch && via < n_ch) {
                        continue;
                    }
                    if disc[w as usize] == NONE {
                        dfs.push((w, v, id, adj_off[w as usize], unclosed.len() as u32));
                        disc[w as usize] = time;
                        low[w as usize] = time;
                        time += 1;
                        unclosed.push(w);
                    } else {
                        low[v as usize] = low[v as usize].min(disc[w as usize]);
                    }
                    continue;
                }
                dfs.pop();
                if p != NONE {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                let bridge = p != NONE && low[v as usize] > disc[p as usize] && via < n_ch;
                if p != NONE && !bridge {
                    continue;
                }
                for (i, &s) in unclosed[at..].iter().enumerate() {
                    block[s as usize] = blk_off.len() as u32 - 1;
                    loc[s as usize] = i as u32;
                }
                members.extend(unclosed.drain(at..));
                blk_off.push(members.len() as u32);
                let (mut down, mut up) = (NONE, NONE);
                if bridge {
                    let span = adj_off[v as usize] as usize..adj_off[v as usize + 1] as usize;
                    for &(w, ch, leaves) in &adj[span] {
                        if w == p && ch < n_ch {
                            let lowest = if leaves { &mut up } else { &mut down };
                            *lowest = (*lowest).min(ch);
                        }
                    }
                }
                exit_from.extend([p, v]);
                exit_ch.extend([down, up]);
            }
        }
        let n_blk = blk_off.len() - 1;

        // Host groups, and each group's hosts as rank intervals: group `g`'s
        // are `iv[iv_off[g]..iv_off[g + 1]]`.
        let alone = refill(mark, n_sw, NONE); // the group a switch feeds alone
        grp_rep.clear(); // a host whose feeders seed the group
        for (r, grp) in refill(host_grp, host_ids.len(), NONE)
            .iter_mut()
            .enumerate()
        {
            let f = feeders(r);
            if f.is_empty() {
                continue;
            }
            *grp = if f.len() == 1 {
                alone[f[0].0 as usize]
            } else {
                NONE
            };
            if *grp == NONE {
                *grp = grp_rep.len() as u32;
                grp_rep.push(r as u32);
                if f.len() == 1 {
                    alone[f[0].0 as usize] = *grp;
                }
            }
        }
        let n_grp = grp_rep.len();
        refill(iv_off, n_grp + 1, 0);
        let last = refill(cursor, n_grp, NONE);
        for (r, &g) in host_grp.iter().enumerate() {
            if g != NONE {
                let last = &mut last[g as usize];
                if *last == NONE || *last + 1 != r as u32 {
                    iv_off[g as usize + 1] += 1;
                }
                *last = r as u32;
            }
        }
        prefix_sum(iv_off);
        refill(iv, iv_off[n_grp] as usize, (0, 0));
        cursor.clone_from(iv_off);
        for (r, &g) in host_grp.iter().enumerate() {
            if g != NONE {
                let (c, r) = (&mut cursor[g as usize], r as u32);
                if *c > iv_off[g as usize] && iv[*c as usize - 1].1 + 1 == r {
                    iv[*c as usize - 1].1 = r;
                } else {
                    iv[*c as usize] = (r, r);
                    *c += 1;
                }
            }
        }

        // Each block's sources: its groups and its exit bridges.
        let grp_block = |g: usize| block[feeders(grp_rep[g] as usize)[0].0 as usize] as usize;
        let exit_block = |d: usize| block[exit_from[d] as usize] as usize;
        let exits = || (0..2 * n_blk).filter(|&d| exit_ch[d] != NONE);
        refill(src_off, n_blk + 1, 0);
        for g in 0..n_grp {
            src_off[grp_block(g) + 1] += 1;
        }
        for d in exits() {
            src_off[exit_block(d) + 1] += 1;
        }
        prefix_sum(src_off);
        refill(sources, src_off[n_blk] as usize, Source::Group(0));
        cursor.clone_from(src_off);
        let mut put = |b: usize, src: Source| {
            sources[cursor[b] as usize] = src;
            cursor[b] += 1;
        };
        for g in 0..n_grp {
            put(grp_block(g), Source::Group(g as u32));
        }
        for d in exits() {
            put(exit_block(d), Source::Exit(d as u32));
        }

        // One block-local BFS per source: `res[res_off[b] + k * m + loc[s]]`
        // is the next hop of switch `s` under block `b`'s `k`th source
        // (`m` switches), `SEED` at a group's feeders, `NONE` if unreached.
        refill(res_off, n_blk + 1, 0);
        for b in 0..n_blk {
            let (srcs, m) = (src_off[b + 1] - src_off[b], blk_off[b + 1] - blk_off[b]);
            res_off[b + 1] = res_off[b] + srcs as usize * m as usize;
        }
        refill(res, res_off[n_blk], NONE);
        for b in 0..n_blk {
            let m = (blk_off[b + 1] - blk_off[b]) as usize;
            let srcs = &sources[src_off[b] as usize..src_off[b + 1] as usize];
            for (k, &src) in srcs.iter().enumerate() {
                let row = &mut res[res_off[b] + k * m..][..m];
                queue.clear();
                match src {
                    Source::Group(g) => {
                        for &(f, _) in feeders(grp_rep[g as usize] as usize) {
                            row[loc[f as usize] as usize] = SEED;
                            queue.push(f);
                        }
                    }
                    Source::Exit(d) => {
                        let x = exit_from[d as usize];
                        row[loc[x as usize] as usize] = exit_ch[d as usize];
                        queue.push(x);
                    }
                }
                let mut head = 0;
                while let Some(&u) = queue.get(head) {
                    head += 1;
                    for &(s, ch) in incoming(u as usize) {
                        if block[s as usize] == b as u32 {
                            let via = &mut row[loc[s as usize] as usize];
                            if *via == NONE {
                                *via = ch;
                                queue.push(s);
                            }
                        }
                    }
                }
            }
        }

        // The hosts beyond each directed bridge that its near end reaches:
        // the union of the far block's sources (less the way back) whose
        // BFS reached the far end. Bottom-up for bridges into a child
        // block, whose sets lie in the child's subtree; then top-down for
        // bridges into a parent, whose sets use the parent's own.
        let span = |src: Source, exit_iv: &[(u32, u32)]| match src {
            Source::Group(g) => (iv_off[g as usize], iv_off[g as usize + 1]),
            Source::Exit(d) => exit_iv[d as usize],
        };
        refill(exit_iv, 2 * n_blk, (0, 0));
        let down = (0..n_blk).map(|b| 2 * b);
        for d in down.chain((0..n_blk).rev().map(|b| 2 * b + 1)) {
            if exit_ch[d] == NONE {
                continue;
            }
            let entry = exit_from[d ^ 1];
            let b = block[entry as usize] as usize;
            let m = (blk_off[b + 1] - blk_off[b]) as usize;
            union.clear();
            let srcs = &sources[src_off[b] as usize..src_off[b + 1] as usize];
            for (k, &src) in srcs.iter().enumerate() {
                let back = matches!(src, Source::Exit(e) if e as usize == d ^ 1);
                if !back && res[res_off[b] + k * m + loc[entry as usize] as usize] != NONE {
                    let (lo, hi) = span(src, exit_iv);
                    union.extend_from_slice(&iv[lo as usize..hi as usize]);
                }
            }
            union.sort_unstable();
            let start = iv.len();
            for &(lo, hi) in union.iter() {
                let end = iv.len();
                if end > start && iv[end - 1].1 + 1 == lo {
                    iv[end - 1].1 = hi;
                } else {
                    iv.push((lo, hi));
                }
            }
            exit_iv[d] = (start as u32, iv.len() as u32);
        }

        refill(per_ch, n_ch as usize, 0);
        // Each switch takes its block's source intervals in ascending host
        // rank into runs over ranks: a run widens when the channel matches
        // and it ends at the preceding host (so no host id in the widened
        // gap was skipped).
        for b in 0..n_blk {
            let mem = &members[blk_off[b] as usize..blk_off[b + 1] as usize];
            let srcs = &sources[src_off[b] as usize..src_off[b + 1] as usize];
            segs.clear();
            for (k, &src) in srcs.iter().enumerate() {
                let (lo, hi) = span(src, exit_iv);
                segs.extend(
                    iv[lo as usize..hi as usize]
                        .iter()
                        .map(|&(a, z)| (a, z, k as u32)),
                );
            }
            segs.sort_unstable();
            for (li, &s) in mem.iter().enumerate() {
                runs.clear();
                let mut extend = |start: u32, end: u32, ch: u32| match runs.last_mut() {
                    Some(run) if run.ch.0 == ch && run.end + 1 == start => run.end = end,
                    _ => runs.push(Run {
                        start,
                        end,
                        ch: ChannelId(ch),
                    }),
                };
                for &(lo, hi, k) in segs.iter() {
                    match res[res_off[b] + k as usize * mem.len() + li] {
                        NONE => {}
                        SEED => {
                            for r in lo..=hi {
                                let f = feeders(r as usize).iter().find(|f| f.0 == s);
                                extend(r, r, f.expect("a seed feeds its group").1);
                            }
                        }
                        ch => extend(lo, hi, ch),
                    }
                }
                let node = &mut self.nodes[sw_node[s as usize] as usize];
                let NodeKind::Switch { table } = &mut node.kind else {
                    unreachable!("dense switch ids map to switches");
                };
                table.install(runs, host_ids, per_ch);
            }
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
            w.add_channel(a, b, r, d, None, DisciplineKind::DropTail.build());
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

    /// Equal-cost ties go to the neighbour the destination's BFS dequeued
    /// first, not to the lowest channel out of the switch: S reaches T in
    /// two hops through X (S→X is channel 0) or Y (S→Y is channel 1), and
    /// Y reached T on the lower channel (Y→T is 2, X→T is 3), so D's BFS
    /// dequeues Y before X and S routes via Y.
    #[test]
    fn equal_cost_ties_follow_bfs_dequeue_order() {
        let mut w = World::new(1);
        let s = w.add_switch("S");
        let x = w.add_switch("X");
        let y = w.add_switch("Y");
        let t = w.add_switch("T");
        let d = w.add_host("D", SimDuration::from_micros(100));
        let link = |w: &mut World, a, b| {
            w.add_channel(
                a,
                b,
                Rate::from_kbps(50),
                SimDuration::from_millis(10),
                None,
                DisciplineKind::DropTail.build(),
            )
        };
        let sx = link(&mut w, s, x);
        let sy = link(&mut w, s, y);
        assert_eq!((sx, sy), (ChannelId(0), ChannelId(1)));
        assert_eq!(link(&mut w, y, t), ChannelId(2));
        assert_eq!(link(&mut w, x, t), ChannelId(3));
        for (a, b) in [(x, s), (y, s), (t, y), (t, x), (d, t), (t, d)] {
            link(&mut w, a, b);
        }
        w.compute_routes();
        w.validate_routes();
        assert_eq!(w.route_lookup(s, d), Some(sy));
    }

    /// The per-destination BFS the block builder replaced, restated over
    /// the public channel surface as the differential test's reference:
    /// `[switch][host]` next hops by node id. Each destination's BFS is
    /// seeded by every switch with a channel into it, first channel
    /// first; each popped switch scans its incoming switch-sourced
    /// channels in channel-id order; hosts are never pushed.
    fn per_destination_routes(w: &World) -> Vec<Vec<Option<ChannelId>>> {
        let n = w.node_count();
        let mut incoming: Vec<Vec<(NodeId, ChannelId)>> = vec![Vec::new(); n];
        for ch in w.channel_ids() {
            let (src, dst) = w.channel_nodes(ch);
            if w.is_switch(src) {
                incoming[dst.0 as usize].push((src, ch));
            }
        }
        let mut routes = vec![vec![None; n]; n];
        for h in (0..n).filter(|&h| !w.is_switch(NodeId(h as u32))) {
            let mut frontier = vec![];
            let mut v = h;
            loop {
                for &(s, ch) in &incoming[v] {
                    let via = &mut routes[s.0 as usize][h];
                    if via.is_none() {
                        *via = Some(ch);
                        frontier.push(s.0 as usize);
                    }
                }
                if frontier.is_empty() {
                    break;
                }
                v = frontier.remove(0);
            }
        }
        routes
    }

    /// A seeded random world for the differential test: a forest of
    /// switches (so most links are bridges) plus 0–5 extra links, each
    /// link duplex, one-way, or doubled by a parallel copy; now and then a
    /// switch loops back to itself. Most hosts hang off one switch; some
    /// are multi-homed on two or three random switches (so across blocks,
    /// and across trees), some have no downlink at all. Node ids
    /// interleave hosts and switches and channels arrive in shuffled
    /// order.
    fn bridged_world(seed: u64) -> World {
        let mut rng = SimRng::new(seed).derive(0x0B41_D6E5);
        let n_sw = 1 + rng.next_below(20) as usize;
        let n_host = 1 + rng.next_below(14) as usize;
        let mut kinds: Vec<bool> = (0..n_sw).map(|_| true).collect();
        kinds.extend((0..n_host).map(|_| false));
        shuffle(&mut kinds, &mut rng);
        let mut w = World::new(seed);
        let (mut sws, mut hosts) = (Vec::new(), Vec::new());
        for (i, &is_sw) in kinds.iter().enumerate() {
            if is_sw {
                sws.push(w.add_switch(&format!("s{i}")));
            } else {
                hosts.push(w.add_host(&format!("h{i}"), SimDuration::from_micros(10)));
            }
        }
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        let link = |a, b, rng: &mut SimRng, edges: &mut Vec<_>| {
            let pairs: &[(NodeId, NodeId)] = match rng.next_below(6) {
                0 => &[(a, b)],
                1 => &[(b, a)],
                2 => &[(a, b), (a, b)],
                3 => &[(a, b), (b, a), (b, a), (a, b)],
                _ => &[(a, b), (b, a)],
            };
            edges.extend_from_slice(pairs);
        };
        for i in 1..n_sw {
            if !rng.chance(0.15) {
                let j = rng.next_below(i as u64) as usize;
                link(sws[i], sws[j], &mut rng, &mut edges);
            }
        }
        for _ in 0..rng.next_below(6) {
            let i = rng.next_below(n_sw as u64) as usize;
            let j = rng.next_below(n_sw as u64) as usize;
            if i != j {
                link(sws[i], sws[j], &mut rng, &mut edges);
            } else if rng.chance(0.5) {
                edges.push((sws[i], sws[i]));
            }
        }
        for &h in &hosts {
            let pick = |rng: &mut SimRng| sws[rng.next_below(n_sw as u64) as usize];
            if rng.chance(0.9) {
                edges.push((h, pick(&mut rng)));
            }
            let feeders = match rng.next_below(10) {
                0 => 0,
                1 | 2 => 2 + rng.next_below(2),
                _ => 1,
            };
            for _ in 0..feeders {
                let s = pick(&mut rng);
                for _ in 0..1 + rng.next_below(2) {
                    edges.push((s, h));
                }
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

    /// The builder against [`per_destination_routes`] on 2 500 seeded
    /// bridged worlds: every (switch, host) lookup, and the table bytes of
    /// the maximal runs the reference's next hops imply, elided and
    /// shrunk the same way.
    #[test]
    fn bridged_worlds_match_per_destination_bfs() {
        let (mut partial, mut multi_homed) = (0, 0);
        for seed in 1..=2500u64 {
            let w = bridged_world(seed);
            let want = per_destination_routes(&w);
            let host_ids = w.host_ids();
            let mut bytes = 0;
            for s in (0..w.node_count() as u32).filter(|&s| w.is_switch(NodeId(s))) {
                let mut ranked: Vec<Run> = Vec::new();
                for (rank, &h) in host_ids.iter().enumerate() {
                    let via = want[s as usize][h as usize];
                    assert_eq!(
                        w.route_lookup(NodeId(s), NodeId(h)),
                        via,
                        "seed {seed}: switch {s} → host {h}"
                    );
                    let (Some(ch), rank) = (via, rank as u32) else {
                        continue;
                    };
                    match ranked.last_mut() {
                        Some(run) if run.ch == ch && run.end + 1 == rank => run.end = rank,
                        _ => ranked.push(Run {
                            start: rank,
                            end: rank,
                            ch,
                        }),
                    }
                }
                let mut table = RouteTable::new();
                table.install(&ranked, &host_ids, &mut vec![0; w.channel_count()]);
                bytes += table.heap_bytes() as u64;
            }
            assert_eq!(w.route_table_bytes(), bytes, "seed {seed}: table bytes");
            partial += usize::from(!w.missing_routes().is_empty());
            multi_homed += usize::from(host_ids.iter().any(|&h| {
                let feeders = w.channel_ids().into_iter().map(|c| w.channel_nodes(c));
                let mut feeders: Vec<_> = feeders
                    .filter(|&(a, b)| b.0 == h && w.is_switch(a))
                    .map(|(a, _)| a)
                    .collect();
                feeders.sort();
                feeders.dedup();
                feeders.len() > 1
            }));
        }
        assert!(
            partial > 500 && multi_homed > 500,
            "{partial} / {multi_homed}"
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
