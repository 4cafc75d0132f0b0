//! Sharded parallel execution of a [`World`] — conservative-lookahead PDES.
//!
//! [`ShardedWorld`] splits the topology graph across worker threads. Each
//! shard owns a subset of the nodes (and every channel whose *sender* sits
//! on an owned node), runs its own event heap independently, and exchanges
//! cross-shard packet deliveries through bounded per-shard inboxes. There
//! is no global barrier: a shard runs ahead as far as its **horizon** — the
//! earliest instant any neighbour could still send it a packet — allows.
//!
//! ## Protocol (Chandy–Misra–Bryant with shared-memory null messages)
//!
//! Every shard `i` publishes a monotone lower bound `lb[i]` on the
//! timestamp of any event it will ever dispatch again:
//!
//! ```text
//! lb[i]      = min(next pending local event, horizon[i])
//! horizon[i] = min over shards j of ( lb[j] + d[j][i] )
//! ```
//!
//! where `d[j][i]` is the smallest propagation delay over cut channels from
//! shard `j` into shard `i`. A packet crossing `j → i` is *sent* at a
//! `TxComplete` dispatched at some `t ≥ lb[j]` and *arrives* no earlier
//! than `t + d[j][i]`, so shard `i` may safely dispatch everything strictly
//! before `horizon[i]`. All cut delays are strictly positive (the
//! `partition` module never cuts a zero-delay channel), so the
//! bounds rise monotonically and the fixpoint iteration cannot deadlock.
//! Termination: the run is over when every `lb` has passed `t_end` and no
//! exported delivery is still in flight.
//!
//! ## Determinism contract
//!
//! Sharded runs are **byte-identical for every shard count**, including
//! `--shards 1`. Three mechanisms carry the proof:
//!
//! * every shard world runs in *canonical mode* (`World::set_canonical`):
//!   same-instant events are dispatched in content-key order, packet ids
//!   are per-endpoint, and discipline randomness comes from per-channel
//!   streams, so a shard's local evolution never depends on which other
//!   events exist elsewhere;
//! * the merged trace is re-sorted by `(time, causal rank, canonical
//!   encoding)` — see `causal_rank` for why same-instant records need a
//!   pipeline-order tie-break — and the
//!   merged audit by `(time, invariant, detail)`, removing the residual
//!   cross-shard interleaving freedom;
//! * snapshots use a shard-count-invariant layout ([`ShardSnapshot`],
//!   magic `TDSW`): global-id row order, globally sorted pending events,
//!   and timer handles translated to pending-event indices.
//!
//! One obligation falls on workloads: endpoints driven under a sharded
//! world must not draw from [`crate::Ctx::rng`] (the world-shared stream),
//! because its draw order depends on the partition. The TCP machines in
//! `td-core` never do; the datagram blaster does and is therefore
//! serial-only.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::SeqCst};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use td_engine::meter::{self, Meter};
use td_engine::{SimTime, SnapError, SnapReader, SnapWriter};

use crate::audit::Audit;
use crate::packet::{NodeId, Packet};
use crate::partition::partition;
use crate::trace::{canonical_trace_cmp, Trace, TraceObserver, TraceRecord};
use crate::world::{
    load_event, load_trace_record, save_trace_record, set_timer_load_xlat, set_timer_save_xlat,
    ChannelId, ChannelStats, Endpoint, EndpointId, World,
};

/// How long a worker sleeps waiting for neighbour progress before
/// re-checking on its own (belt-and-braces against a missed wakeup).
const WAIT_SLICE: Duration = Duration::from_millis(50);

/// One pending event while assembling a snapshot: `(time, canonical key,
/// encoded blob, owning shard, raw queue id)`. The first three fields are
/// the global sort key; the last two let endpoint timer handles be
/// rewritten as indices into the sorted list.
type PendingBlob = (SimTime, u64, Vec<u8>, usize, (u32, u64));

/// State shared by all shard workers for one `run_until` call.
struct Shared {
    /// `lb[i]`: monotone lower bound (nanoseconds) on any future event of
    /// shard `i`. Raised with `fetch_max`, never lowered.
    lbs: Vec<AtomicU64>,
    /// Cross-shard deliveries addressed to shard `i`.
    inboxes: Vec<Mutex<Vec<(SimTime, ChannelId, Packet)>>>,
    /// Deliveries pushed to an inbox but not yet drained. Incremented
    /// *before* the push and decremented *after* the inject, so the
    /// termination check can never observe "all idle" while a delivery is
    /// still in flight.
    inflight: AtomicI64,
    /// Set exactly once, when some worker observes global completion.
    done: AtomicBool,
    /// Progress epoch: bumped under the lock whenever any worker drains,
    /// sends, dispatches, or raises its bound. Idle workers sleep on it.
    epoch: Mutex<u64>,
    wake: Condvar,
}

impl Shared {
    fn bump(&self) {
        let mut e = self.epoch.lock().expect("epoch lock");
        *e = e.wrapping_add(1);
        drop(e);
        self.wake.notify_all();
    }
}

/// A topology sharded across worker threads, runnable in parallel with
/// byte-identical results for any shard count. See the module docs for the
/// protocol and the determinism contract.
pub struct ShardedWorld {
    worlds: Vec<World>,
    node_shard: Vec<u32>,
    /// `lookahead[j][i]`: min delay (ns) over cut channels `j → i`.
    lookahead: Vec<Vec<u64>>,
    /// Owning shard of each channel's *receiver* (delivery target).
    ch_dst_shard: Vec<u32>,
    seed: u64,
    now: SimTime,
    /// Merged, canonically ordered trace of everything run so far.
    trace: Trace,
    /// Audit state carried in from a restored snapshot (zero otherwise);
    /// the merged view is `base_audit ⊕ per-shard deltas`.
    base_audit: Audit,
    /// Latest merged audit view.
    audit: Audit,
}

impl ShardedWorld {
    /// Build the world `shards` times via `build_fn` (once per shard, so
    /// global node/channel/endpoint ids align), partition the topology,
    /// and keep each shard's slice of the initial event population.
    ///
    /// `build_fn` must be deterministic: every invocation has to produce
    /// the same topology and endpoint set. All worlds run in canonical
    /// mode — including the single-shard case, so `shards == 1` produces
    /// the same bytes as any other count.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`, if `build_fn` is non-deterministic
    /// (replicas are cross-checked by component counts plus a structural
    /// digest over wiring, rates, delays, routes, fault plans, endpoint
    /// placement and start times — see `World::structure_digest` for the
    /// one blind spot, discipline parameters), or if the partition would
    /// cut a zero-delay channel (the partitioner never does; this guards
    /// direct misuse).
    pub fn build(seed: u64, shards: u32, build_fn: impl Fn(&mut World)) -> ShardedWorld {
        assert!(shards >= 1, "need at least one shard");
        let mut worlds = Vec::with_capacity(shards as usize);
        for _ in 0..shards {
            let mut w = World::new(seed);
            w.set_canonical();
            build_fn(&mut w);
            worlds.push(w);
        }
        let (n_nodes, n_channels, n_eps) = (
            worlds[0].node_count(),
            worlds[0].channel_count(),
            worlds[0].endpoint_count(),
        );
        // Counts catch gross divergence cheaply and give a better message;
        // the structural digest then catches builders that keep the counts
        // but vary wiring, rates, delays, routes, fault plans, endpoint
        // placement, or start times between replicas.
        // Replica 0 is the reference: only the others are compared against
        // it, and a single-shard world has nothing to compare.
        let digest = (shards > 1).then(|| worlds[0].structure_digest());
        for w in &worlds[1..] {
            assert!(
                w.node_count() == n_nodes
                    && w.channel_count() == n_channels
                    && w.endpoint_count() == n_eps,
                "world builder is non-deterministic: shard replicas disagree on topology size"
            );
            assert!(
                Some(w.structure_digest()) == digest,
                "world builder is non-deterministic: shard replicas disagree on structure \
                 (same component counts, different configuration)"
            );
        }

        let node_shard = partition(&worlds[0], shards);
        let mut lookahead = vec![vec![u64::MAX; shards as usize]; shards as usize];
        let mut ch_dst_shard = Vec::with_capacity(n_channels);
        for ch in worlds[0].channel_ids() {
            let (src, dst) = worlds[0].channel_nodes(ch);
            let (sj, si) = (
                node_shard[src.0 as usize] as usize,
                node_shard[dst.0 as usize] as usize,
            );
            ch_dst_shard.push(si as u32);
            if sj != si {
                let d = worlds[0].channel_delay(ch).as_nanos();
                assert!(
                    d > 0,
                    "partition cut zero-delay channel {:?}: no lookahead possible",
                    ch
                );
                if d < lookahead[sj][si] {
                    lookahead[sj][si] = d;
                }
            }
        }

        for (s, w) in worlds.iter_mut().enumerate() {
            let remote: Vec<bool> = node_shard.iter().map(|&ns| ns != s as u32).collect();
            w.set_remote_nodes(remote);
            w.retain_owned_events(&node_shard, s as u32);
        }

        ShardedWorld {
            worlds,
            node_shard,
            lookahead,
            ch_dst_shard,
            seed,
            now: SimTime::ZERO,
            trace: Trace::new(),
            base_audit: Audit::default(),
            audit: Audit::default(),
        }
    }

    /// Number of shards (worker threads used by [`ShardedWorld::run_until`]).
    pub fn shard_count(&self) -> u32 {
        self.worlds.len() as u32
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.node_shard[node.0 as usize]
    }

    /// The world seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Current simulated time (the `t_end` of the last run).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Enable or disable packet tracing on every shard.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
        for w in &mut self.worlds {
            w.trace_mut().set_enabled(enabled);
        }
    }

    /// The merged trace: all shards' records in canonical
    /// `(time, encoding)` order.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Register one streaming observer per shard. The factory is called
    /// once per shard world; each observer sees only its own shard's
    /// emissions (in that shard's dispatch order) and travels with the
    /// world into the worker thread. Recover them with
    /// [`ShardedWorld::take_observers`] and merge — every channel,
    /// endpoint, and connection lives wholly on one shard, so per-key
    /// streaming state partitions cleanly across the returned set.
    pub fn add_observers(&mut self, mut make: impl FnMut(u32) -> Box<dyn TraceObserver>) {
        for (i, w) in self.worlds.iter_mut().enumerate() {
            w.add_observer(make(i as u32));
        }
    }

    /// Remove and return all observers, in shard order (each shard's
    /// observers are contiguous, in registration order).
    pub fn take_observers(&mut self) -> Vec<Box<dyn TraceObserver>> {
        self.worlds
            .iter_mut()
            .flat_map(|w| w.take_observers())
            .collect()
    }

    /// The merged audit across all shards (violations canonically ordered,
    /// conservation checked on the summed counters).
    pub fn audit(&self) -> &Audit {
        &self.audit
    }

    /// Lifetime statistics of a channel, read from its owning shard.
    pub fn channel_stats(&self, ch: ChannelId) -> ChannelStats {
        self.owner_of_channel(ch).channel_stats(ch)
    }

    /// Busy fraction of a channel since time zero, from its owning shard.
    pub fn utilization(&self, ch: ChannelId) -> f64 {
        self.owner_of_channel(ch).utilization(ch)
    }

    /// Total events dispatched, summed over shards.
    pub fn events_dispatched(&self) -> u64 {
        self.worlds.iter().map(|w| w.events_dispatched()).sum()
    }

    /// Heap bytes held by one replica's compressed routing tables. Every
    /// shard replicates the full topology, so this is per-replica (and
    /// therefore shard-count-invariant), not a process total.
    pub fn route_table_bytes(&self) -> u64 {
        self.worlds[0].route_table_bytes()
    }

    /// Bytes the legacy dense next-hop map would need per replica (see
    /// [`World::dense_route_bytes`]) — the baseline for compression
    /// ratios.
    pub fn dense_route_bytes(&self) -> u64 {
        self.worlds[0].dense_route_bytes()
    }

    /// Borrow an endpoint (from its owning shard — replicas on other
    /// shards never run and hold stale initial state).
    pub fn endpoint(&self, ep: EndpointId) -> Option<&dyn Endpoint> {
        self.owner_of_ep(ep.0 as usize).endpoint(ep)
    }

    fn owner_of_channel(&self, ch: ChannelId) -> &World {
        let (src, _) = self.worlds[0].channel_nodes(ch);
        &self.worlds[self.node_shard[src.0 as usize] as usize]
    }

    fn owner_of_ep(&self, i: usize) -> &World {
        let host = self.worlds[0].ep_host(i);
        &self.worlds[self.node_shard[host.0 as usize] as usize]
    }

    fn ep_owner_shard(&self, i: usize) -> usize {
        let host = self.worlds[0].ep_host(i);
        self.node_shard[host.0 as usize] as usize
    }

    /// Run every shard forward to `t_end` (inclusive), in parallel when
    /// more than one shard exists, then fold the shards' traces and audit
    /// state into the canonical merged views.
    ///
    /// # Panics
    ///
    /// Panics if `t_end == SimTime::MAX`: the inclusive run bound needs
    /// `t_end + 1` to be representable, and saturating instead would
    /// silently exclude events at exactly `t_end`.
    pub fn run_until(&mut self, t_end: SimTime) {
        assert!(
            t_end < SimTime::MAX,
            "run bound must be below SimTime::MAX for the inclusive +1 bound to be representable"
        );
        let bound = SimTime::from_nanos(t_end.as_nanos() + 1);
        if self.worlds.len() == 1 {
            self.worlds[0].run_before(bound);
        } else {
            self.run_parallel(t_end);
        }
        for w in &mut self.worlds {
            w.advance_clock(t_end);
        }
        self.now = t_end;
        self.merge_outputs(t_end);
    }

    fn run_parallel(&mut self, t_end: SimTime) {
        let n = self.worlds.len();
        let t_end_n = t_end.as_nanos();
        let shared = Shared {
            lbs: (0..n).map(|_| AtomicU64::new(0)).collect(),
            inboxes: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            inflight: AtomicI64::new(0),
            done: AtomicBool::new(false),
            epoch: Mutex::new(0),
            wake: Condvar::new(),
        };
        // Each worker needs its *incoming* delays — column `i` of the
        // lookahead matrix (`lookahead[j][i]` = min cut delay `j → i`),
        // not row `i`, which holds the delays *out of* `i`. The two
        // coincide only for symmetric cuts; per-direction delay
        // differences or simplex cut channels make them differ, and
        // handing a shard its row would let it run past events a
        // neighbour can still deliver.
        let d_in_cols: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| self.lookahead[j][i]).collect())
            .collect();
        let d_in_cols = &d_in_cols;
        let ch_dst_shard = &self.ch_dst_shard;

        let worlds = std::mem::take(&mut self.worlds);
        let results: Vec<(World, Meter)> = std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = worlds
                .into_iter()
                .enumerate()
                .map(|(i, mut w)| {
                    scope.spawn(move || {
                        // The meter is thread-local: ship what this
                        // shard accumulated back to the orchestrator.
                        meter::scoped(|| {
                            run_shard(i, &mut w, shared, &d_in_cols[i], ch_dst_shard, t_end_n);
                            w
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard worker panicked"))
                .collect()
        });

        for (w, metered) in results {
            meter::absorb(metered);
            self.worlds.push(w);
        }
    }

    /// Fold the shards' run products into the canonical merged views:
    /// traces re-sorted by `(time, encoding)`, audits summed and their
    /// violation records re-sorted, conservation re-checked globally.
    fn merge_outputs(&mut self, t_end: SimTime) {
        let mut batch: Vec<TraceRecord> = Vec::new();
        for w in &mut self.worlds {
            batch.extend_from_slice(w.trace().records());
            w.trace_mut().clear();
        }
        // Each run_until produces records strictly later than the last, so
        // a sorted batch appends in globally sorted order. Ties at the
        // same instant sort by causal rank and then in encoded-content
        // order — both pure functions of the record, so the merged order
        // cannot depend on the shard count. `canonical_trace_cmp` is a
        // field-wise mirror of the old sort key `(t, causal_rank(ev),
        // SnapWriter encoding bytes)`: same total order, but without
        // encoding every record into a fresh `Vec<u8>` just to compare.
        batch.sort_by(canonical_trace_cmp);
        let mut records = self.trace.records().to_vec();
        records.extend(batch);
        self.trace.set_records(records);

        let mut merged = self.base_audit.clone();
        for w in &self.worlds {
            merged.merge_from(w.audit());
        }
        merged.finalize_merge();
        merged.check_merged_conservation(t_end);
        self.audit = merged;
    }
}

/// One shard's worker loop. `d_in[j]` is the minimum delay over cut
/// channels *from shard `j` into this shard* (the horizon formula's
/// `d[j][i]` for fixed `i`), `u64::MAX` when `j` has no channel into us.
///
/// See the module docs for the protocol; the
/// ordering subtlety worth restating: the horizon is computed from the
/// neighbour bounds **before** draining the inbox. Reading the bounds
/// first means any delivery that the freshly read bounds already account
/// for is visible in the inbox by the time we drain it (the sender pushes
/// before raising its bound), so we can never run past an undrained
/// delivery.
fn run_shard(
    i: usize,
    world: &mut World,
    shared: &Shared,
    d_in: &[u64],
    ch_dst_shard: &[u32],
    t_end_n: u64,
) {
    let n = shared.lbs.len();
    loop {
        if shared.done.load(SeqCst) {
            break;
        }
        let epoch_start = *shared.epoch.lock().expect("epoch lock");

        // 1. Safe horizon from the neighbours' published bounds.
        let mut horizon = u64::MAX;
        for (j, &d) in d_in.iter().enumerate().take(n) {
            if j != i && d != u64::MAX {
                horizon = horizon.min(shared.lbs[j].load(SeqCst).saturating_add(d));
            }
        }

        // 2. Drain deliveries other shards exported to us.
        let msgs = std::mem::take(&mut *shared.inboxes[i].lock().expect("inbox lock"));
        let drained = msgs.len();
        for (at, ch, pkt) in msgs {
            world.inject_arrival(at, ch, pkt);
        }
        if drained > 0 {
            shared.inflight.fetch_sub(drained as i64, SeqCst);
        }

        // 3. Dispatch everything provably safe.
        let before = world.events_dispatched();
        let bound = horizon.min(t_end_n.saturating_add(1));
        world.run_before(SimTime::from_nanos(bound));
        let ran = world.events_dispatched() != before;

        // 4. Export deliveries to their receiving shards. Count them as
        // in-flight *before* they become visible, so the termination
        // check cannot miss them.
        let out = world.take_outbox();
        let sent = out.len();
        for (at, ch, pkt) in out {
            let dest = ch_dst_shard[ch.0 as usize] as usize;
            shared.inflight.fetch_add(1, SeqCst);
            shared.inboxes[dest]
                .lock()
                .expect("inbox lock")
                .push((at, ch, pkt));
        }

        // 5. Publish our new bound (monotone).
        let next_local = world
            .next_event_time()
            .map(|t| t.as_nanos())
            .unwrap_or(u64::MAX);
        let lb = next_local.min(horizon);
        let prev = shared.lbs[i].fetch_max(lb, SeqCst);
        let progressed = drained > 0 || sent > 0 || ran || lb > prev;

        // 6. Global completion: every bound past t_end and nothing in
        // flight. The in-flight counter is incremented before a delivery
        // is visible and a sender's bound only rises after the push, so
        // "all bounds high + zero in flight" proves no delivery at or
        // before t_end can still appear.
        let all_past_end = (0..n).all(|j| shared.lbs[j].load(SeqCst) > t_end_n);
        if all_past_end && shared.inflight.load(SeqCst) == 0 {
            shared.done.store(true, SeqCst);
            shared.bump();
            break;
        }

        if progressed {
            shared.bump();
        } else {
            let guard = shared.epoch.lock().expect("epoch lock");
            if *guard == epoch_start && !shared.done.load(SeqCst) {
                // Missed-wakeup-safe: progress bumps the epoch under this
                // lock, so an unchanged epoch means nothing happened since
                // we sampled it. The timeout is a pure backstop.
                let _ = shared
                    .wake
                    .wait_timeout(guard, WAIT_SLICE)
                    .expect("epoch lock");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-count-invariant snapshots
// ---------------------------------------------------------------------------

/// Magic for sharded-world snapshots (`TDSN` is the serial format).
const SHARD_MAGIC: &[u8; 4] = b"TDSW";
const SHARD_VERSION: u32 = 1;

/// A serialized [`ShardedWorld`]: one canonical byte string per simulation
/// state, *independent of the shard count* that produced it or will
/// consume it — save at `--shards 4`, restore at `--shards 2`.
///
/// Layout (all rows in global-id order, pending events globally sorted by
/// `(time, canonical key, encoding)`, timer handles translated to indices
/// into that sorted pending list):
///
/// ```text
/// "TDSW" v1 | seed | node/channel/endpoint counts | now
/// | per-endpoint packet-id counters
/// | pending events (count, then time + encoded event)
/// | merged trace | merged audit
/// | host rows | channel rows | endpoint rows
/// ```
pub struct ShardSnapshot {
    bytes: Vec<u8>,
}

impl ShardSnapshot {
    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Adopt raw bytes, validating the header and the structural counts
    /// against the byte budget so corrupt input fails fast with a
    /// [`SnapError`] instead of a panic or an absurd allocation.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<ShardSnapshot, SnapError> {
        let mut r = SnapReader::new(&bytes);
        let version = r.expect_header(SHARD_MAGIC)?;
        if version != SHARD_VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        let _seed = r.read_u64()?;
        let n_nodes = r.read_u32()? as usize;
        let n_channels = r.read_u32()? as usize;
        let n_endpoints = r.read_u32()? as usize;
        if n_nodes
            .saturating_add(n_channels)
            .saturating_add(n_endpoints)
            > r.remaining()
        {
            return Err(SnapError::Corrupt(
                "snapshot counts exceed the bytes that could encode them".into(),
            ));
        }
        Ok(ShardSnapshot { bytes })
    }

    /// Write the snapshot to `path` atomically (temp file in the same
    /// directory, then rename), so a crash mid-write never leaves a torn
    /// snapshot under the final name.
    pub fn write_to_file(&self, path: &Path) -> std::io::Result<()> {
        td_engine::write_atomic(path, &self.bytes)
    }

    /// Read and validate a snapshot from `path`.
    pub fn read_from_file(path: &Path) -> std::io::Result<ShardSnapshot> {
        let bytes = std::fs::read(path)?;
        ShardSnapshot::from_bytes(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

impl ShardedWorld {
    /// Serialize the full simulation state into the shard-count-invariant
    /// [`ShardSnapshot`] format.
    pub fn snapshot(&self) -> ShardSnapshot {
        let n = self.worlds.len();
        let w0 = &self.worlds[0];
        let mut w = SnapWriter::with_header(SHARD_MAGIC, SHARD_VERSION);
        w.write_u64(self.seed);
        w.write_u32(w0.node_count() as u32);
        w.write_u32(w0.channel_count() as u32);
        w.write_u32(w0.endpoint_count() as u32);
        w.write_time(self.now);

        for i in 0..w0.endpoint_count() {
            w.write_u64(self.owner_of_ep(i).ep_packet_ctr(i));
        }

        // Pending events, sorted into the global canonical order. The
        // per-shard queue ids are remembered so endpoint timer handles can
        // be rewritten as indices into this very list.
        let mut pend: Vec<PendingBlob> = Vec::new();
        for (s, world) in self.worlds.iter().enumerate() {
            for (at, key, id, blob) in world.pending_event_blobs() {
                pend.push((at, key, blob, s, id.into_raw()));
            }
        }
        pend.sort_by(|a, b| (a.0, a.1, &a.2).cmp(&(b.0, b.1, &b.2)));
        w.write_u64(pend.len() as u64);
        for (at, _, blob, _, _) in &pend {
            w.write_time(*at);
            w.write_bytes(blob);
        }
        let mut xlats: Vec<HashMap<(u32, u64), u64>> = vec![HashMap::new(); n];
        for (gi, (_, _, _, s, raw)) in pend.iter().enumerate() {
            xlats[*s].insert(*raw, gi as u64);
        }

        w.write_bool(self.trace.is_enabled());
        w.write_u64(self.trace.len() as u64);
        for rec in self.trace.records() {
            save_trace_record(rec, &mut w);
        }
        self.audit.save_state(&mut w);

        for ni in 0..w0.node_count() {
            if w0.is_host_node(ni) {
                self.worlds[self.node_shard[ni] as usize].save_host_row(ni, &mut w);
            }
        }
        for ch in w0.channel_ids() {
            self.owner_of_channel(ch)
                .save_channel_row(ch.0 as usize, &mut w);
        }

        // Endpoint rows serialize timer handles through the thread-local
        // translation table of their owning shard.
        let mut installed: Option<usize> = None;
        for i in 0..w0.endpoint_count() {
            let s = self.ep_owner_shard(i);
            if installed != Some(s) {
                set_timer_save_xlat(Some(xlats[s].clone()));
                installed = Some(s);
            }
            self.worlds[s].save_endpoint_row(i, &mut w);
        }
        set_timer_save_xlat(None);

        ShardSnapshot {
            bytes: w.into_bytes(),
        }
    }

    /// Restore a [`ShardSnapshot`] into this world. The receiver must be
    /// **freshly built** (same seed and builder as the producer; any shard
    /// count) and never run: restore rewinds nothing. On error the world
    /// is partially mutated — rebuild before retrying.
    pub fn restore(&mut self, snap: &ShardSnapshot) -> Result<(), SnapError> {
        if self.now != SimTime::ZERO || self.events_dispatched() != 0 {
            return Err(SnapError::Mismatch(
                "sharded restore target must be freshly built, not already run".into(),
            ));
        }
        let mut r = SnapReader::new(&snap.bytes);
        let version = r.expect_header(SHARD_MAGIC)?;
        if version != SHARD_VERSION {
            return Err(SnapError::UnsupportedVersion(version));
        }
        if r.read_u64()? != self.seed {
            return Err(SnapError::Mismatch(
                "snapshot seed differs from world seed".into(),
            ));
        }
        let w0_counts = (
            self.worlds[0].node_count() as u32,
            self.worlds[0].channel_count() as u32,
            self.worlds[0].endpoint_count() as u32,
        );
        let counts = (r.read_u32()?, r.read_u32()?, r.read_u32()?);
        if counts != w0_counts {
            return Err(SnapError::Mismatch(
                "snapshot topology counts differ from the built world".into(),
            ));
        }
        let now = r.read_time()?;

        let mut ep_ctrs = Vec::with_capacity(counts.2 as usize);
        for _ in 0..counts.2 {
            ep_ctrs.push(r.read_u64()?);
        }

        // Replace every shard's initial event population with the
        // snapshot's pending set, routed to its owning shard.
        for w in &mut self.worlds {
            w.clear_pending();
        }
        let n_pend = r.read_len()?;
        let mut load_xlats: Vec<HashMap<u64, (u32, u64)>> = vec![HashMap::new(); self.worlds.len()];
        for gi in 0..n_pend {
            let at = r.read_time()?;
            let blob = r.read_bytes()?;
            let ev = {
                let mut er = SnapReader::new(blob);
                let ev = load_event(&mut er)?;
                er.finish()?;
                ev
            };
            let owner = self.worlds[0].event_shard(&self.node_shard, &ev) as usize;
            let id = self.worlds[owner].schedule_event_blob(at, blob)?;
            load_xlats[owner].insert(gi as u64, id.into_raw());
        }

        let trace_enabled = r.read_bool()?;
        let n_recs = r.read_len()?;
        let mut records = Vec::with_capacity(n_recs);
        for _ in 0..n_recs {
            records.push(load_trace_record(&mut r)?);
        }
        self.trace.set_enabled(trace_enabled);
        self.trace.set_records(records);
        for w in &mut self.worlds {
            w.trace_mut().set_enabled(trace_enabled);
        }

        let mut restored_audit = Audit::default();
        restored_audit.load_state(&mut r)?;
        self.base_audit = restored_audit.clone();
        self.audit = restored_audit;

        for ni in 0..counts.0 as usize {
            if self.worlds[0].is_host_node(ni) {
                let s = self.node_shard[ni] as usize;
                self.worlds[s].load_host_row(ni, &mut r)?;
            }
        }
        for ci in 0..counts.1 as usize {
            let (src, _) = self.worlds[0].channel_nodes(ChannelId(ci as u32));
            let s = self.node_shard[src.0 as usize] as usize;
            self.worlds[s].load_channel_row(ci, &mut r)?;
        }

        let mut installed: Option<usize> = None;
        let res = (0..counts.2 as usize).try_for_each(|i| {
            let s = self.ep_owner_shard(i);
            if installed != Some(s) {
                set_timer_load_xlat(Some(load_xlats[s].clone()));
                installed = Some(s);
            }
            self.worlds[s].load_endpoint_row(i, &mut r)
        });
        set_timer_load_xlat(None);
        res?;
        r.finish()?;

        for (i, ctr) in ep_ctrs.iter().enumerate() {
            let s = self.ep_owner_shard(i);
            self.worlds[s].set_ep_packet_ctr(i, *ctr);
        }
        for w in &mut self.worlds {
            w.advance_clock(now);
        }
        self.now = now;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Ctx;
    use crate::{
        ConnId, DisciplineKind, FaultModel, FaultPlan, GilbertElliott, Outage, PacketKind,
        ReorderJitter,
    };
    use std::any::Any;
    use td_engine::{Rate, SimDuration};

    /// Sends a data packet at start and on every ACK; a periodic timer
    /// keeps it alive through loss. Never touches `Ctx::rng`.
    struct Chatter {
        sent: u64,
        acked: u64,
    }

    impl Chatter {
        fn boxed() -> Box<dyn Endpoint> {
            Box::new(Chatter { sent: 0, acked: 0 })
        }
    }

    impl Endpoint for Chatter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.sent += 1;
            ctx.send(PacketKind::Data, self.sent, 500, false);
            ctx.set_timer(SimDuration::from_millis(40), 1);
        }
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            if pkt.is_ack() {
                self.acked += 1;
                self.sent += 1;
                ctx.send(PacketKind::Data, self.sent, 500, false);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            self.sent += 1;
            ctx.send(PacketKind::Data, self.sent, 500, true);
            ctx.set_timer(SimDuration::from_millis(40), 1);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn save_state(&self, w: &mut SnapWriter) {
            w.write_u64(self.sent);
            w.write_u64(self.acked);
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.sent = r.read_u64()?;
            self.acked = r.read_u64()?;
            Ok(())
        }
    }

    /// Acknowledges every data packet.
    struct Acker;

    impl Endpoint for Acker {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            if !pkt.is_ack() {
                ctx.send(PacketKind::Ack, pkt.seq, 40, false);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Two host/switch clusters joined by a slow trunk; two cross-cluster
    /// connections and one intra-cluster connection. With `faulty`, the
    /// trunk gets a live composite fault plan (burst + loss + dup +
    /// jitter + a scheduled outage) and a Random Drop queue, exercising
    /// the per-channel RNG streams across the cut.
    fn two_clusters(faulty: bool) -> impl Fn(&mut World) {
        move |w: &mut World| {
            let h = SimDuration::from_micros(100);
            let a0 = w.add_host("a0", h);
            let a1 = w.add_host("a1", h);
            let s0 = w.add_switch("s0");
            let b0 = w.add_host("b0", h);
            let b1 = w.add_host("b1", h);
            let s1 = w.add_switch("s1");
            for (x, y) in [(a0, s0), (a1, s0), (b0, s1), (b1, s1)] {
                for (src, dst) in [(x, y), (y, x)] {
                    w.add_channel(
                        src,
                        dst,
                        Rate::from_kbps(1000),
                        SimDuration::from_micros(100),
                        Some(20),
                        DisciplineKind::DropTail.build(),
                        FaultModel::NONE,
                    );
                }
            }
            let trunk_disc = if faulty {
                DisciplineKind::RandomDrop
            } else {
                DisciplineKind::DropTail
            };
            let mut trunks = Vec::new();
            for (src, dst) in [(s0, s1), (s1, s0)] {
                trunks.push(w.add_channel(
                    src,
                    dst,
                    Rate::from_kbps(400),
                    SimDuration::from_millis(5),
                    Some(10),
                    trunk_disc.build(),
                    FaultModel::NONE,
                ));
            }
            if faulty {
                let plan = FaultPlan {
                    model: FaultModel::lossy(0.05),
                    burst: Some(GilbertElliott::new(0.02, 0.3, 0.5).expect("valid burst")),
                    dup_prob: 0.04,
                    jitter: Some(ReorderJitter {
                        prob: 0.1,
                        max_extra: SimDuration::from_micros(800),
                    }),
                    outages: vec![Outage {
                        down: SimTime::from_millis(120),
                        up: SimTime::from_millis(140),
                    }],
                };
                for &t in &trunks {
                    w.set_fault_plan(t, plan.clone()).expect("valid plan");
                }
            }
            w.compute_routes();
            let c0 = w.attach(a0, b0, ConnId(0), Chatter::boxed());
            w.attach(b0, a0, ConnId(0), Box::new(Acker));
            let c1 = w.attach(b1, a1, ConnId(1), Chatter::boxed());
            w.attach(a1, b1, ConnId(1), Box::new(Acker));
            let c2 = w.attach(a1, a0, ConnId(2), Chatter::boxed());
            w.attach(a0, a1, ConnId(2), Box::new(Acker));
            w.start_at(c0, SimTime::from_millis(1));
            w.start_at(c1, SimTime::from_millis(2));
            w.start_at(c2, SimTime::from_millis(3));
        }
    }

    /// Swallows every packet and never sends, so it needs no return route.
    struct Sink {
        got: u64,
    }

    impl Endpoint for Sink {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.got += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn save_state(&self, w: &mut SnapWriter) {
            w.write_u64(self.got);
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.got = r.read_u64()?;
            Ok(())
        }
    }

    /// Like `two_clusters`, but the trunk's two directions have very
    /// different delays (5 ms out, 50 ms back), making the cut — and the
    /// lookahead matrix — asymmetric: the b-side shard may run only 5 ms
    /// past the a-side's bound while the reverse direction allows 50 ms.
    /// Regression for the transposed-lookahead bug, where each worker was
    /// handed its outgoing row instead of its incoming column and the
    /// b-side shard ran 45 ms further than the a-side could cover.
    fn asymmetric_clusters(w: &mut World) {
        let h = SimDuration::from_micros(100);
        let a0 = w.add_host("a0", h);
        let a1 = w.add_host("a1", h);
        let s0 = w.add_switch("s0");
        let b0 = w.add_host("b0", h);
        let b1 = w.add_host("b1", h);
        let s1 = w.add_switch("s1");
        for (x, y) in [(a0, s0), (a1, s0), (b0, s1), (b1, s1)] {
            for (src, dst) in [(x, y), (y, x)] {
                w.add_channel(
                    src,
                    dst,
                    Rate::from_kbps(1000),
                    SimDuration::from_micros(100),
                    Some(20),
                    DisciplineKind::DropTail.build(),
                    FaultModel::NONE,
                );
            }
        }
        for (src, dst, ms) in [(s0, s1, 5), (s1, s0, 50)] {
            w.add_channel(
                src,
                dst,
                Rate::from_kbps(400),
                SimDuration::from_millis(ms),
                Some(10),
                DisciplineKind::DropTail.build(),
                FaultModel::NONE,
            );
        }
        w.compute_routes();
        let c0 = w.attach(a0, b0, ConnId(0), Chatter::boxed());
        w.attach(b0, a0, ConnId(0), Box::new(Acker));
        let c1 = w.attach(b1, a1, ConnId(1), Chatter::boxed());
        w.attach(a1, b1, ConnId(1), Box::new(Acker));
        w.start_at(c0, SimTime::from_millis(1));
        w.start_at(c1, SimTime::from_millis(2));
    }

    /// One-way traffic over a *simplex* trunk: the cut has channels in one
    /// direction only, so the receiving shard is bounded by the sender's
    /// clock while the sender is unbounded by the receiver. Regression for
    /// the transposed-lookahead bug, where the receiving shard read its
    /// (empty) outgoing direction, saw no constraint, ran straight to the
    /// end bound, and the first cross-shard delivery landed in its past.
    fn simplex_cut(w: &mut World) {
        let h = SimDuration::from_micros(100);
        let a0 = w.add_host("a0", h);
        let s0 = w.add_switch("s0");
        let b0 = w.add_host("b0", h);
        let s1 = w.add_switch("s1");
        for (x, y) in [(a0, s0), (b0, s1)] {
            for (src, dst) in [(x, y), (y, x)] {
                w.add_channel(
                    src,
                    dst,
                    Rate::from_kbps(1000),
                    SimDuration::from_micros(100),
                    Some(20),
                    DisciplineKind::DropTail.build(),
                    FaultModel::NONE,
                );
            }
        }
        // The trunk exists s0 → s1 only.
        w.add_channel(
            s0,
            s1,
            Rate::from_kbps(400),
            SimDuration::from_millis(5),
            Some(10),
            DisciplineKind::DropTail.build(),
            FaultModel::NONE,
        );
        w.compute_routes();
        let c0 = w.attach(a0, b0, ConnId(0), Chatter::boxed());
        w.attach(b0, a0, ConnId(0), Box::new(Sink { got: 0 }));
        w.start_at(c0, SimTime::from_millis(1));
    }

    fn run_at(shards: u32, faulty: bool, t_end: SimTime) -> ShardedWorld {
        let mut sw = ShardedWorld::build(0xC0FFEE, shards, two_clusters(faulty));
        sw.run_until(t_end);
        sw
    }

    #[test]
    fn shard_counts_are_byte_identical() {
        let t = SimTime::from_millis(300);
        let base = run_at(1, false, t);
        let base_snap = base.snapshot();
        assert!(
            base.trace().len() > 100,
            "workload too quiet to prove anything"
        );
        assert!(base.audit().delivered() > 0);
        for n in [2, 3, 4] {
            let other = run_at(n, false, t);
            assert_eq!(
                base.trace().records(),
                other.trace().records(),
                "merged trace differs at {n} shards"
            );
            assert_eq!(
                base_snap.as_bytes(),
                other.snapshot().as_bytes(),
                "snapshot bytes differ at {n} shards"
            );
            assert_eq!(base.audit().injected(), other.audit().injected());
            assert_eq!(base.audit().delivered(), other.audit().delivered());
            assert_eq!(base.audit().dropped(), other.audit().dropped());
        }
    }

    #[test]
    fn asymmetric_trunk_delays_are_shard_invariant() {
        let t = SimTime::from_millis(300);
        let mut base = ShardedWorld::build(0xA5, 1, asymmetric_clusters);
        base.run_until(t);
        assert!(base.audit().delivered() > 0, "nothing crossed the trunk");
        let base_snap = base.snapshot();
        for n in [2, 4] {
            let mut other = ShardedWorld::build(0xA5, n, asymmetric_clusters);
            other.run_until(t);
            assert_eq!(
                base.trace().records(),
                other.trace().records(),
                "merged trace differs at {n} shards over an asymmetric cut"
            );
            assert_eq!(
                base_snap.as_bytes(),
                other.snapshot().as_bytes(),
                "snapshot bytes differ at {n} shards over an asymmetric cut"
            );
        }
    }

    #[test]
    fn simplex_cut_is_shard_invariant() {
        let t = SimTime::from_millis(300);
        let mut base = ShardedWorld::build(0x51, 1, simplex_cut);
        base.run_until(t);
        assert!(
            base.audit().delivered() > 0,
            "one-way traffic never crossed the trunk"
        );
        let base_snap = base.snapshot();
        for n in [2, 4] {
            let mut other = ShardedWorld::build(0x51, n, simplex_cut);
            other.run_until(t);
            assert_eq!(
                base.trace().records(),
                other.trace().records(),
                "merged trace differs at {n} shards over a simplex cut"
            );
            assert_eq!(
                base_snap.as_bytes(),
                other.snapshot().as_bytes(),
                "snapshot bytes differ at {n} shards over a simplex cut"
            );
        }
    }

    #[test]
    #[should_panic(expected = "below SimTime::MAX")]
    fn run_until_rejects_unrepresentable_bound() {
        let mut sw = ShardedWorld::build(1, 1, two_clusters(false));
        sw.run_until(SimTime::MAX);
    }

    #[test]
    #[should_panic(expected = "disagree on structure")]
    fn build_rejects_same_size_nondeterministic_builders() {
        // Counts match across replicas; only a channel delay varies — the
        // structural digest has to catch it.
        let calls = std::cell::Cell::new(0u64);
        let _ = ShardedWorld::build(1, 2, |w: &mut World| {
            let n = calls.get();
            calls.set(n + 1);
            let h = SimDuration::from_micros(100);
            let a = w.add_host("a", h);
            let s = w.add_switch("s");
            for (src, dst) in [(a, s), (s, a)] {
                w.add_channel(
                    src,
                    dst,
                    Rate::from_kbps(1000),
                    SimDuration::from_micros(100 + n),
                    Some(20),
                    DisciplineKind::DropTail.build(),
                    FaultModel::NONE,
                );
            }
        });
    }

    #[test]
    fn chaos_shard_invariance_with_live_fault_plans() {
        let t = SimTime::from_millis(300);
        let base = run_at(1, true, t);
        let base_snap = base.snapshot();
        assert!(
            base.audit().dropped() > 0,
            "fault plans never fired; the chaos case is vacuous"
        );
        for n in [2, 4] {
            let other = run_at(n, true, t);
            assert_eq!(
                base.trace().records(),
                other.trace().records(),
                "merged trace differs at {n} shards under faults"
            );
            assert_eq!(
                base_snap.as_bytes(),
                other.snapshot().as_bytes(),
                "snapshot bytes differ at {n} shards under faults"
            );
        }
    }

    #[test]
    fn snapshot_restores_across_shard_counts() {
        let t1 = SimTime::from_millis(150);
        let t2 = SimTime::from_millis(300);
        let mut origin = ShardedWorld::build(0xC0FFEE, 2, two_clusters(true));
        origin.run_until(t1);
        // Through a file, as a checkpointing caller would: the write is
        // tmp + rename, so nothing but the snapshot is left in the
        // directory.
        let dir = std::env::temp_dir().join(format!("td-shard-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.tdsw");
        origin.snapshot().write_to_file(&path).unwrap();
        let mid = ShardSnapshot::read_from_file(&path).unwrap();
        assert_eq!(mid.as_bytes(), origin.snapshot().as_bytes());
        let left: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left, ["mid.tdsw"], "staging file left beside the snapshot");
        let _ = std::fs::remove_dir_all(&dir);
        origin.run_until(t2);
        let straight = origin.snapshot();
        for n in [1, 2, 4] {
            let mut resumed = ShardedWorld::build(0xC0FFEE, n, two_clusters(true));
            resumed.restore(&mid).expect("restore succeeds");
            assert_eq!(resumed.now(), t1);
            resumed.run_until(t2);
            assert_eq!(
                straight.as_bytes(),
                resumed.snapshot().as_bytes(),
                "resume at {n} shards diverged from the straight run"
            );
        }
    }

    #[test]
    fn restore_rejects_run_worlds_and_foreign_snapshots() {
        let mut a = ShardedWorld::build(1, 1, two_clusters(false));
        a.run_until(SimTime::from_millis(10));
        let snap = a.snapshot();
        // Already-run target.
        assert!(matches!(a.restore(&snap), Err(SnapError::Mismatch(_))));
        // Wrong seed.
        let mut b = ShardedWorld::build(2, 1, two_clusters(false));
        assert!(matches!(b.restore(&snap), Err(SnapError::Mismatch(_))));
    }

    #[test]
    fn shard_snapshot_from_bytes_rejects_corrupt_input() {
        let mut sw = ShardedWorld::build(9, 2, two_clusters(false));
        sw.run_until(SimTime::from_millis(20));
        let good = sw.snapshot().as_bytes().to_vec();
        assert!(ShardSnapshot::from_bytes(good.clone()).is_ok());
        // Truncation anywhere must surface as a structured error — at
        // `from_bytes` when the header can see it, at `restore` otherwise
        // — and must never panic.
        for cut in [0, 3, 7, 12, 20, good.len() / 2, good.len() - 1] {
            match ShardSnapshot::from_bytes(good[..cut].to_vec()) {
                Err(_) => {}
                Ok(snap) => {
                    let mut fresh = ShardedWorld::build(9, 2, two_clusters(false));
                    assert!(
                        fresh.restore(&snap).is_err(),
                        "truncation at {cut} restored cleanly"
                    );
                }
            }
        }
        // Oversized structural counts must fail fast, not allocate wildly.
        let mut huge = good.clone();
        huge[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ShardSnapshot::from_bytes(huge).is_err());
        // Bad magic.
        let mut bad = good;
        bad[0..4].copy_from_slice(b"XXXX");
        assert!(matches!(
            ShardSnapshot::from_bytes(bad),
            Err(SnapError::BadMagic)
        ));
    }
}
