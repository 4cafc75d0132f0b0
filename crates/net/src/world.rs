//! The simulation world: nodes, channels, endpoints, and the event loop.
//!
//! A [`World`] owns everything. Components never hold references to each
//! other; they interact only by scheduling events, which keeps the
//! borrow-checker story trivial (no `Rc<RefCell>` webs) and the execution
//! order total. Protocol endpoints are `Box<dyn Endpoint>` values attached
//! to hosts; when one must run, it is temporarily moved out of the world so
//! it can receive `&mut self` alongside a [`Ctx`] over the rest of the
//! world. Endpoint callbacks never recurse into other endpoints — all
//! inter-endpoint communication rides packets through the event queue.
//!
//! A packet pays a few lookups at every hop, and each is an index, never
//! a hash or a virtual call:
//!
//! * its channel is one hot row ([`crate::arena`]): rate, delay,
//!   capacity, in-service slot, stats and the discipline, which is a
//!   closed enum ([`Discipline`]) with the drop-tail FIFO inline — the
//!   fault plan, private RNG and injected-outage overlay stay cold
//!   columns beside the rows;
//! * a switch's next hop comes from its compressed route table;
//! * at a host, the endpoint comes from one world-level connection table
//!   indexed by [`ConnId`], whose entry lists the connection's (at most
//!   two) endpoints with their hosts;
//! * the auditor's per-connection ACK marks and window bounds are dense
//!   tables indexed the same way ([`crate::audit`]).
//!
//! Profiled on the 640-cluster chain (seed 1, one `td-bench pass`, 9 134
//! samples at 5 kHz), their former shapes cost 10.5 % (the boxed
//! discipline), 6.7 % (a per-call view over 11 parallel channel columns),
//! 5.8 % (a SipHash map per host, keyed by connection) and 1.5 % (the
//! auditor's SipHash maps) of the pass.
//!
//! ## Life of a packet
//!
//! 1. An endpoint calls [`Ctx::send`] → `Send` trace record → the packet is
//!    offered to the host's uplink channel queue.
//! 2. Channel buffer accounting: if the buffer (waiting + in-service) is at
//!    capacity, the discipline picks a victim (`Drop` record); otherwise
//!    `Enqueue`.
//! 3. When the channel's transmitter is free it dequeues the next packet
//!    (`TxStart`) and schedules `TxComplete` one serialization time later.
//! 4. `TxComplete` (`TxEnd` record): the packet leaves the buffer; fault
//!    injection decides whether it survives; if so an `Arrival` at the far
//!    end is scheduled one propagation delay later. The packet waits in
//!    the world's flight arena meanwhile and the event carries its index,
//!    so every event is 16 bytes and the queue moves no packet bytes.
//! 5. `Arrival` at a switch re-enters step 2 on the routed output channel;
//!    at a host it joins the serial processing queue and is handed to the
//!    endpoint (`Deliver` record) after the per-packet processing delay.
//!
//! ## Tie rule
//!
//! Every world stamps packet ids from per-endpoint counters and draws
//! queue-discipline randomness from each channel's private stream, so
//! neither depends on how events from elsewhere interleave. The one
//! difference between a serial and a sharded world is how same-instant
//! events are ordered, fixed at construction: [`World::new`] breaks ties
//! FIFO (every event carries key 0, the order it was scheduled in), while
//! the replicas a [`crate::ShardedWorld`] builds order them by a
//! content-derived FNV-1a key, which makes the observable execution a
//! function of the topology alone, independent of how it is partitioned
//! across shards. The rule decides paper results: content keys flip cells
//! of the §4.3.3 zero-length-ACK conjecture, so serial worlds keep FIFO.
//!
//! ## Where each decision lives
//!
//! This file is the per-packet core: [`World`] and [`Ctx`], the world's
//! construction, and an event's path through `dispatch`, `offer`,
//! `maybe_start_tx`, `tx_complete`, `arrival` and `host_process`. Each
//! other decision has a child module, which sees the same private fields:
//!
//! * `snapshot` — the codec of TDSN ([`Snapshot`]), the parts of TDSW it
//!   shares, and [`World::state_hash`];
//! * `routes` — routing install and validation;
//! * `run` — the run loops and the watchdog's verdicts.
//!
//! The trace-record codec belongs to [`crate::TraceRecord`], beside
//! [`crate::canonical_trace_cmp`], which mirrors its byte order.

use crate::arena::{ChannelArena, ChannelRow, HostArena};
use crate::audit::Audit;
use crate::discipline::{Discipline, Victim};
use crate::fault::{FaultError, FaultKind, FaultOutcome, FaultPlan, Outage};
use crate::packet::{ConnId, NodeId, Packet, PacketId, PacketKind, CONN_ID_CAP};
use crate::route::RouteTable;
use crate::trace::{DropReason, ProtoEvent, Trace, TraceEvent, TraceObserver};
use crate::watchdog::EndpointProgress;
use std::any::Any;
use td_engine::{
    EventId, EventQueue, Rate, SimDuration, SimRng, SimTime, SnapError, SnapReader, SnapWriter,
};

mod routes;
mod run;
mod snapshot;

pub use snapshot::Snapshot;
pub(crate) use snapshot::{
    check_header, read_pending, read_tail, write_pending, write_tail, PendingBlob,
};

/// Base label for deriving each channel's private RNG stream — its fault
/// and queue-discipline draws — from the world seed
/// (`derive(FAULT_STREAM ^ channel_id)`).
const FAULT_STREAM: u64 = 0xFA17_57F3_A400_0000;

/// Identifies one simplex channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub u32);

/// Identifies an attached protocol endpoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EndpointId(pub u32);

/// Handle to a pending endpoint timer, used to cancel it.
#[derive(Clone, Copy, Debug)]
pub struct TimerHandle(EventId);

/// Online per-channel counters, maintained regardless of trace recording.
#[derive(Clone, Copy, Default, Debug)]
pub struct ChannelStats {
    /// Total time the transmitter spent serializing packets.
    pub busy: SimDuration,
    /// Packets fully serialized.
    pub tx_packets: u64,
    /// Bytes fully serialized.
    pub tx_bytes: u64,
    /// Packets discarded at the buffer (any reason).
    pub drops: u64,
    /// Packets accepted into the buffer.
    pub enqueued: u64,
}

/// A protocol endpoint: the transport-layer state machine living on a host.
///
/// `td-core` implements TCP senders and receivers against this trait. The
/// contract: an endpoint may only interact with the world through the
/// [`Ctx`] it is handed, and every callback runs to completion before any
/// other event fires. Endpoints are `Send` so a sharded run can move each
/// shard's world onto its worker thread; they still never run concurrently
/// with anything that shares their state.
pub trait Endpoint: Send {
    /// Called once, at the endpoint's scheduled start time.
    fn on_start(&mut self, ctx: &mut Ctx<'_>);

    /// A packet addressed to this endpoint's connection was delivered
    /// (after host processing delay).
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet);

    /// A timer set via [`Ctx::set_timer`] expired. `token` is the value
    /// given at arming time; endpoints use it to distinguish timer kinds.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64);

    /// Downcast support so experiments can extract protocol state
    /// (e.g. final statistics) after a run.
    fn as_any(&self) -> &dyn Any;

    /// Self-reported progress for stall attribution (see
    /// [`crate::World::run_until_quiescent`]). The default — `finished:
    /// None` — opts the endpoint out: an infinite source or a pure
    /// receiver has no defined notion of "done".
    fn progress(&self) -> EndpointProgress {
        EndpointProgress::default()
    }

    /// Serialize the endpoint's mutable protocol state (snapshot
    /// support). [`crate::World::snapshot`] wraps each endpoint in a
    /// length-prefixed section, so `save_state` and `load_state` must
    /// consume symmetrically — any asymmetry fails loudly at the
    /// endpoint's own boundary. The default writes nothing, which is
    /// correct only for stateless endpoints; real protocols override
    /// both hooks.
    fn save_state(&self, w: &mut SnapWriter) {
        let _ = w;
    }

    /// Restore state written by [`Endpoint::save_state`] onto a freshly
    /// built endpoint of the same configuration.
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let _ = r;
        Ok(())
    }
}

enum NodeKind {
    Host {
        uplink: Option<ChannelId>,
    },
    Switch {
        /// Compressed next-hop table (see [`crate::route`]): sorted
        /// destination-id runs plus an optional default route, replacing
        /// the O(hosts) dense map that dominated memory at scale.
        table: RouteTable,
    },
}

struct Node {
    name: String,
    kind: NodeKind,
}

struct EpMeta {
    host: NodeId,
    peer: NodeId,
    conn: ConnId,
}

/// One connection's endpoints as `(host, endpoint)` pairs, in attach
/// order; a vacant slot holds [`NO_ENDPOINT`].
type ConnEntry = [(NodeId, EndpointId); 2];

const NO_ENDPOINT: (NodeId, EndpointId) = (NodeId(u32::MAX), EndpointId(u32::MAX));

#[derive(Debug)]
pub(crate) enum Event {
    TxComplete(ChannelId),
    /// A packet reaches the far end of `ch`. It waits in the world's
    /// flight arena, at index `flight`, until the event fires.
    Arrival {
        ch: ChannelId,
        flight: u32,
    },
    HostProcess(NodeId),
    Timer {
        ep: EndpointId,
        token: u64,
    },
    Start(EndpointId),
    /// A scheduled link outage ends: restart the transmitter if work is
    /// queued. Also keeps the event queue non-empty for the whole outage,
    /// so a down link is never mistaken for quiescence.
    LinkUp(ChannelId),
}

// The queue moves an event on every schedule and pop: a field that grows
// it past 16 bytes (a `Packet` is 56) must be a deliberate decision.
const _: () = assert!(std::mem::size_of::<Event>() <= 16);
const _: () = assert!(std::mem::size_of::<Option<Event>>() <= 16);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Content-derived tie key of sharded replicas: a function of *what*
/// the event is (kind, component ids, packet identity — an `Arrival`'s
/// packet read from `flight`), never of when or where it was scheduled.
/// Two distinct events simultaneous at the same instant get distinct keys
/// (up to FNV collisions); the one same-key case — a fault-duplicated
/// packet's two identical `Arrival`s — commutes, so the residual FIFO
/// tie-break is unobservable.
fn canonical_key(ev: &Event, flight: &[Packet]) -> u64 {
    let h = FNV_OFFSET;
    match ev {
        Event::TxComplete(ch) => fnv(fnv(h, 0), u64::from(ch.0)),
        Event::Arrival { ch, flight: i } => {
            fnv(fnv(fnv(h, 1), u64::from(ch.0)), flight[*i as usize].id.0)
        }
        Event::HostProcess(node) => fnv(fnv(h, 2), u64::from(node.0)),
        Event::Timer { ep, token } => fnv(fnv(fnv(h, 3), u64::from(ep.0)), *token),
        Event::Start(ep) => fnv(fnv(h, 4), u64::from(ep.0)),
        Event::LinkUp(ch) => fnv(fnv(h, 5), u64::from(ch.0)),
    }
}

/// The simulation: topology, endpoints, clock, trace.
pub struct World {
    queue: EventQueue<Event>,
    nodes: Vec<Node>,
    hosts: HostArena,
    channels: ChannelArena,
    endpoints: Vec<Option<Box<dyn Endpoint>>>,
    ep_meta: Vec<EpMeta>,
    /// The connection table, indexed by `ConnId`: a delivery at a host
    /// takes the endpoint whose host matches. See [`World::attach`].
    conns: Vec<ConnEntry>,
    trace: Trace,
    seed: u64,
    audit: Audit,
    /// Content-keyed ties (sharded replicas) instead of FIFO ties; see
    /// the module docs. Fixed at construction.
    canonical: bool,
    /// Packet-id counters, one per endpoint.
    ep_packet_ctr: Vec<u64>,
    /// Sharded runs: `remote_node[n]` marks nodes owned by another shard.
    /// Empty (the default) means every node is local.
    remote_node: Vec<bool>,
    /// Sharded runs: cross-shard deliveries buffered for the executor,
    /// as `(arrival time, channel, packet)`.
    outbox: Vec<(SimTime, ChannelId, Packet)>,
    /// Packets between transmission and arrival, one per pending
    /// `Arrival`, which names its cell. Cells are reused via `flight_free`.
    flight: Vec<Packet>,
    /// Vacant `flight` cells, reused LIFO.
    flight_free: Vec<u32>,
    /// Streaming observers fed at every trace-emission site, **even when
    /// trace recording is disabled** — the trace-free analysis path.
    /// Not part of snapshots: observers are analysis state, not
    /// simulation state.
    observers: Vec<Box<dyn TraceObserver>>,
}

impl World {
    /// An empty world with the given RNG seed, breaking same-instant
    /// ties FIFO.
    pub fn new(seed: u64) -> Self {
        World {
            queue: EventQueue::new(),
            nodes: Vec::new(),
            hosts: HostArena::new(),
            channels: ChannelArena::new(),
            endpoints: Vec::new(),
            ep_meta: Vec::new(),
            conns: Vec::new(),
            trace: Trace::new(),
            seed,
            audit: Audit::default(),
            canonical: false,
            ep_packet_ctr: Vec::new(),
            remote_node: Vec::new(),
            outbox: Vec::new(),
            flight: Vec::new(),
            flight_free: Vec::new(),
            observers: Vec::new(),
        }
    }

    /// An empty world that orders same-instant events by content key: the
    /// shard replicas [`crate::ShardedWorld::build`] creates.
    pub(crate) fn with_content_ties(seed: u64) -> Self {
        World {
            canonical: true,
            ..World::new(seed)
        }
    }

    /// Record one trace event: feed every registered observer, then append
    /// to the trace (a no-op there when recording is disabled). The single
    /// funnel for all emission sites, so observers see exactly the record
    /// stream the trace would hold, in emission order.
    #[inline]
    fn record(&mut self, t: SimTime, ev: TraceEvent) {
        for obs in &mut self.observers {
            obs.on_record(t, &ev);
        }
        self.trace.push(t, ev);
    }

    /// Register a streaming observer. Observers are fed at every
    /// trace-emission site even when trace recording is disabled, which is
    /// what makes trace-free analysis possible; they ride along for the
    /// rest of the run (or until [`World::take_observers`]).
    pub fn add_observer(&mut self, obs: Box<dyn TraceObserver>) {
        self.observers.push(obs);
    }

    /// Remove and return all registered observers, in registration order.
    /// Call after the run to finalize streaming analyses (downcast via
    /// [`TraceObserver::into_any`]).
    pub fn take_observers(&mut self) -> Vec<Box<dyn TraceObserver>> {
        std::mem::take(&mut self.observers)
    }

    // -- construction -------------------------------------------------------

    /// Add a host with the given per-packet receive processing delay
    /// (0.1 ms in the paper).
    pub fn add_host(&mut self, name: &str, proc_delay: SimDuration) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.to_owned(),
            kind: NodeKind::Host { uplink: None },
        });
        self.hosts.push_host(proc_delay);
        id
    }

    /// Add a switch (zero forwarding delay; routes filled by
    /// [`World::compute_routes`] or [`World::set_route`]).
    pub fn add_switch(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name: name.to_owned(),
            kind: NodeKind::Switch {
                table: RouteTable::new(),
            },
        });
        self.hosts.push_switch();
        id
    }

    /// Add one simplex channel `src → dst`. `capacity` bounds buffer
    /// occupancy in packets (`None` = unbounded, the infinite buffers of
    /// the fixed-window runs). The channel starts error-free
    /// ([`FaultPlan::NONE`]); [`World::set_fault_plan`] installs faults.
    pub fn add_channel(
        &mut self,
        src: NodeId,
        dst: NodeId,
        rate: Rate,
        delay: SimDuration,
        capacity: Option<u32>,
        discipline: Discipline,
    ) -> ChannelId {
        assert!(
            capacity.is_none_or(|c| c >= 1),
            "a channel needs at least one buffer slot to transmit"
        );
        let id = ChannelId(self.channels.len() as u32);
        let rng = SimRng::new(self.seed).derive(FAULT_STREAM ^ u64::from(id.0));
        let row = ChannelRow::new(src, dst, rate, delay, capacity, discipline);
        self.channels.push(row, FaultPlan::NONE, rng);
        if let NodeKind::Host { uplink } = &mut self.nodes[src.0 as usize].kind {
            assert!(
                uplink.is_none(),
                "host {} already has an uplink; hosts are single-homed",
                self.nodes[src.0 as usize].name
            );
            *uplink = Some(id);
        }
        id
    }

    /// Install a fault plan on a channel, replacing its current one (every
    /// channel starts with [`FaultPlan::NONE`]). Validates the plan and
    /// schedules a `LinkUp` wake-up for each finite outage end, so queued
    /// packets resume transmission the instant the link heals (and a
    /// mid-outage world is never mistaken for a drained one). Call before
    /// running; outages whose `down` is already in the past are rejected
    /// by the event queue's not-in-past assertion.
    pub fn set_fault_plan(&mut self, ch: ChannelId, plan: FaultPlan) -> Result<(), FaultError> {
        plan.validate()?;
        for outage in &plan.outages {
            if outage.up < SimTime::MAX {
                self.schedule_event(outage.up, Event::LinkUp(ch));
            }
        }
        *self.channels.fault_mut(ch.0 as usize) = plan;
        Ok(())
    }

    /// Dynamically inject a link outage `[down, up)` on top of whatever
    /// static [`FaultPlan`] the channel carries. This is the model
    /// checker's branch primitive: unlike `set_fault_plan` it may be
    /// called mid-run (between events), the injected windows live in a
    /// separate overlay that the snapshot codec captures per channel (so
    /// restoring a branch snapshot reconstructs its decisions), and
    /// overlapping injections are benign — the link is down under the
    /// union of all windows. A `LinkUp` wake-up is scheduled at `up`.
    ///
    /// Semantic difference from static plans: packets whose arrival was
    /// already scheduled before the injection are not retroactively cut;
    /// only transmissions finishing after the call see the outage.
    pub fn inject_outage(&mut self, ch: ChannelId, down: SimTime, up: SimTime) {
        assert!(down < up, "inject_outage: empty window [{down:?}, {up:?})");
        if up < SimTime::MAX {
            self.schedule_event(up, Event::LinkUp(ch));
        }
        self.channels
            .injected_outages_mut(ch.0 as usize)
            .push(Outage { down, up });
    }

    /// Force the next `n` transmissions completing on `ch` to be dropped
    /// (the model checker's per-packet drop choice). Deterministic and
    /// RNG-free: a forced drop consumes no randomness, so the channel's
    /// private stream stays aligned with the undropped sibling branch up
    /// to the decision point. The counter is part of the snapshot's v3
    /// channel row, so branch snapshots carry pending forced drops.
    pub fn force_drops(&mut self, ch: ChannelId, n: u32) {
        self.channels.row_mut(ch.0 as usize).forced_drops += n;
    }

    /// Enable DECbit-style congestion marking on a channel: packets whose
    /// acceptance pushes buffer occupancy above `threshold` get their CE
    /// bit set (see [`crate::Packet::ce`]).
    pub fn set_mark_threshold(&mut self, ch: ChannelId, threshold: Option<u32>) {
        self.channels.row_mut(ch.0 as usize).mark_threshold = threshold;
    }

    /// Attach a protocol endpoint to `host`, speaking connection `conn`
    /// with the endpoint on `peer`. Returns its id; schedule it with
    /// [`World::start_at`].
    ///
    /// # Panics
    /// If `host` is a switch, if `conn` already has two endpoints or
    /// already has one on `host`, or if `conn` is 2²⁴ or above:
    /// connection ids index a table, so keep them dense.
    pub fn attach(
        &mut self,
        host: NodeId,
        peer: NodeId,
        conn: ConnId,
        ep: Box<dyn Endpoint>,
    ) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        if let NodeKind::Switch { .. } = self.nodes[host.0 as usize].kind {
            panic!("attach endpoint to a switch");
        }
        let entry = *self.conn_entry(conn);
        if entry.iter().any(|&(h, _)| h == host) {
            let name = &self.nodes[host.0 as usize].name;
            panic!("host {name} already has an endpoint for {conn:?}");
        }
        let slot = (entry.iter().position(|&s| s == NO_ENDPOINT))
            .unwrap_or_else(|| panic!("{conn:?} already has two endpoints"));
        self.conns[conn.0 as usize][slot] = (host, id);
        self.endpoints.push(Some(ep));
        self.ep_meta.push(EpMeta { host, peer, conn });
        self.ep_packet_ctr.push(0);
        id
    }

    /// Connection `conn`'s entry in the connection table, growing the
    /// table to reach it.
    ///
    /// # Panics
    /// If `conn` is at or above the id cap, 2²⁴.
    fn conn_entry(&mut self, conn: ConnId) -> &mut ConnEntry {
        assert!(
            conn.0 < CONN_ID_CAP,
            "{conn:?} is at or above the connection id cap 2^24"
        );
        let c = conn.0 as usize;
        if c >= self.conns.len() {
            self.conns.resize(c + 1, [NO_ENDPOINT; 2]);
        }
        &mut self.conns[c]
    }

    /// Connection ids this world knows lie below this bound (attached
    /// endpoints and registered window bounds alike).
    pub(crate) fn conn_id_bound(&self) -> usize {
        self.conns.len()
    }

    /// Schedule an endpoint's `on_start` at absolute time `t`.
    pub fn start_at(&mut self, ep: EndpointId, t: SimTime) {
        self.schedule_event(t, Event::Start(ep));
    }

    /// Tie key of `ev` under this world's tie rule: content-derived for
    /// shard replicas, 0 (FIFO ties) otherwise.
    fn tie_key(&self, ev: &Event) -> u64 {
        if self.canonical {
            canonical_key(ev, &self.flight)
        } else {
            0
        }
    }

    /// Schedule an event under the tie key of this world's mode.
    fn schedule_event(&mut self, at: SimTime, ev: Event) -> EventId {
        let key = self.tie_key(&ev);
        self.queue.schedule_keyed(at, key, ev)
    }

    /// Put an in-flight packet in the flight arena; returns its cell.
    fn stash(&mut self, pkt: Packet) -> u32 {
        match self.flight_free.pop() {
            Some(i) => {
                self.flight[i as usize] = pkt;
                i
            }
            None => {
                self.flight.push(pkt);
                (self.flight.len() - 1) as u32
            }
        }
    }

    /// Take a packet back out of the flight arena, freeing its cell.
    fn unstash(&mut self, i: u32) -> Packet {
        self.flight_free.push(i);
        self.flight[i as usize]
    }

    /// Schedule `pkt`'s arrival over `ch` at `at`.
    fn schedule_arrival(&mut self, at: SimTime, ch: ChannelId, pkt: Packet) {
        let flight = self.stash(pkt);
        self.schedule_event(at, Event::Arrival { ch, flight });
    }

    // -- inspection ---------------------------------------------------------

    /// The run's invariant auditor (counters and recorded violations).
    pub fn audit(&self) -> &Audit {
        &self.audit
    }

    /// The seed this world was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Register a connection's cwnd upper bound (its sender's `maxwnd`)
    /// with the auditor, enabling the `cwnd ≤ maxwnd` check.
    ///
    /// # Panics
    /// If `conn` is at or above the connection id cap (see
    /// [`World::attach`]).
    pub fn set_window_bound(&mut self, conn: ConnId, maxwnd: f64) {
        // A bounded connection is one this world knows, endpoints or not:
        // restore accepts the ids `conn_id_bound` covers.
        self.conn_entry(conn);
        self.audit.set_window_bound(conn, maxwnd);
    }

    /// The run's trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable trace access (enable/disable/clear).
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// Pre-allocate trace storage for `records` further records, so a long
    /// run appends without reallocation. Scenario builders size this from
    /// event-count calibrations (see `td-experiments`); callers with
    /// a measured run can pass a prior run's `trace().len()` directly.
    pub fn reserve_trace(&mut self, records: usize) {
        self.trace.reserve(records);
    }

    /// Online counters for a channel.
    pub fn channel_stats(&self, ch: ChannelId) -> ChannelStats {
        self.channels.row(ch.0 as usize).stats
    }

    /// Fraction of `[SimTime::ZERO, now]` the channel's transmitter was
    /// busy. (For windowed utilization use `td-analysis` over the trace.)
    pub fn utilization(&self, ch: ChannelId) -> f64 {
        let now = self.now();
        if now == SimTime::ZERO {
            return 0.0;
        }
        let row = self.channels.row(ch.0 as usize);
        let mut busy = row.stats.busy;
        // Count the in-progress transmission up to `now`.
        if let Some((_, started)) = row.in_service {
            busy += now.saturating_since(started);
        }
        busy.as_secs_f64() / now.as_secs_f64()
    }

    /// The endpoint object, for downcasting to its concrete type after a
    /// run (`None` if the id is out of range).
    pub fn endpoint(&self, ep: EndpointId) -> Option<&dyn Endpoint> {
        self.endpoints.get(ep.0 as usize).and_then(|e| e.as_deref())
    }

    /// Node name (diagnostics).
    pub fn node_name(&self, n: NodeId) -> &str {
        &self.nodes[n.0 as usize].name
    }

    /// Ids of all channels, in creation order.
    pub fn channel_ids(&self) -> Vec<ChannelId> {
        (0..self.channels.len() as u32).map(ChannelId).collect()
    }

    /// Endpoints of a channel as `(src, dst)`.
    pub fn channel_nodes(&self, ch: ChannelId) -> (NodeId, NodeId) {
        let row = self.channels.row(ch.0 as usize);
        (row.src, row.dst)
    }

    /// Propagation delay of a channel.
    pub fn channel_delay(&self, ch: ChannelId) -> SimDuration {
        self.channels.row(ch.0 as usize).delay
    }

    // -- shard support (crate-internal; see `crate::shard`) -----------------

    /// Number of nodes added so far; node ids are dense in
    /// `0..node_count()`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Whether `n` is a switch (as opposed to a host). Together with
    /// [`World::node_count`], [`World::channel_ids`] and
    /// [`World::route_lookup`] this lets external tests rebuild a
    /// reference routing table and cross-check the compressed one.
    pub fn is_switch(&self, n: NodeId) -> bool {
        matches!(self.nodes[n.0 as usize].kind, NodeKind::Switch { .. })
    }

    pub(crate) fn channel_count(&self) -> usize {
        self.channels.len()
    }

    pub(crate) fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// FNV-1a digest of the built configuration: per-node kind, name and
    /// processing delay; per-channel src/dst/rate/delay/capacity/mark
    /// threshold, discipline kind and fault plan; switch routing tables;
    /// per-endpoint (host, peer, conn); and the initial pending-event
    /// population. [`crate::ShardedWorld::build`] compares this across
    /// shard replicas to reject builders that vary wiring, delays, routes
    /// or start times while keeping the component counts equal. Mutable
    /// run state is excluded; a discipline is hashed by name and, for
    /// RED, by its four parameters.
    pub(crate) fn structure_digest(&self) -> u64 {
        fn fold_bytes(mut h: u64, b: &[u8]) -> u64 {
            h = fnv(h, b.len() as u64);
            for &x in b {
                h = fnv(h, u64::from(x));
            }
            h
        }
        fn fold_opt_u32(h: u64, v: Option<u32>) -> u64 {
            match v {
                None => fnv(h, u64::MAX),
                Some(x) => fnv(fnv(h, 1), u64::from(x)),
            }
        }
        let mut h = FNV_OFFSET;
        // Routing tables are hashed through their *semantic* form — the
        // canonical host segments — so two replicas whose tables resolve
        // identically over every host cross-check equal regardless of run
        // decomposition or default-route elision.
        let host_ids = self.host_ids();
        for (ni, node) in self.nodes.iter().enumerate() {
            h = fnv(h, self.hosts.is_host(ni) as u64);
            h = fnv(h, self.hosts.proc_delay(ni).as_nanos());
            h = fold_bytes(h, node.name.as_bytes());
            if let NodeKind::Switch { table } = &node.kind {
                for (first, last, c) in table.canonical_host_segments(&host_ids) {
                    h = fnv(fnv(fnv(h, u64::from(first)), u64::from(last)), u64::from(c));
                }
            }
        }
        for ci in 0..self.channels.len() {
            let row = self.channels.row(ci);
            h = fnv(h, u64::from(row.src.0));
            h = fnv(h, u64::from(row.dst.0));
            h = fnv(h, row.rate.bits_per_sec());
            h = fnv(h, row.delay.as_nanos());
            h = fold_opt_u32(h, row.capacity);
            h = fold_opt_u32(h, row.mark_threshold);
            h = fold_bytes(h, row.discipline.name().as_bytes());
            for p in row.discipline.params().into_iter().flatten() {
                h = fnv(h, p.to_bits());
            }
            let fp = self.channels.fault(ci);
            h = fnv(h, fp.drop_prob.to_bits());
            h = fnv(h, fp.dup_prob.to_bits());
            h = match &fp.burst {
                None => fnv(h, 0),
                Some(b) => fnv(
                    fnv(fnv(fnv(h, 1), b.p_enter.to_bits()), b.p_exit.to_bits()),
                    b.loss_bad.to_bits(),
                ),
            };
            h = match &fp.jitter {
                None => fnv(h, 0),
                Some(j) => fnv(fnv(fnv(h, 1), j.prob.to_bits()), j.max_extra.as_nanos()),
            };
            h = fnv(h, fp.outages.len() as u64);
            for o in &fp.outages {
                h = fnv(fnv(h, o.down.as_nanos()), o.up.as_nanos());
            }
        }
        for meta in &self.ep_meta {
            h = fnv(h, u64::from(meta.host.0));
            h = fnv(h, u64::from(meta.peer.0));
            h = fnv(h, u64::from(meta.conn.0));
        }
        for (at, key, _, blob) in self.pending_event_blobs() {
            h = fnv(fnv(h, at.as_nanos()), key);
            h = fold_bytes(h, &blob);
        }
        h
    }

    pub(crate) fn ep_host(&self, i: usize) -> NodeId {
        self.ep_meta[i].host
    }

    pub(crate) fn ep_packet_ctr(&self, i: usize) -> u64 {
        self.ep_packet_ctr[i]
    }

    pub(crate) fn set_ep_packet_ctr(&mut self, i: usize, v: u64) {
        self.ep_packet_ctr[i] = v;
    }

    /// Mark the nodes owned by other shards. Deliveries whose destination
    /// is remote divert to the outbox instead of the local queue, and the
    /// auditor switches to distributed mode (per-shard conservation is
    /// meaningless once packets cross shard borders; the executor checks
    /// the merged counters instead).
    pub(crate) fn set_remote_nodes(&mut self, remote: Vec<bool>) {
        assert_eq!(remote.len(), self.nodes.len());
        self.remote_node = remote;
        self.set_distributed_audit();
    }

    /// Leave conservation to the sharded executor's merged counters (see
    /// `Audit::set_distributed`).
    pub(crate) fn set_distributed_audit(&mut self) {
        self.audit.set_distributed();
    }

    /// The shard that must execute `ev`: the shard owning the node whose
    /// state the event mutates first.
    pub(crate) fn event_shard(&self, node_shard: &[u32], ev: &Event) -> u32 {
        let node = match ev {
            // Transmitter-side events live with the channel, i.e. its src.
            Event::TxComplete(ch) | Event::LinkUp(ch) => self.channels.row(ch.0 as usize).src,
            Event::Arrival { ch, .. } => self.channels.row(ch.0 as usize).dst,
            Event::HostProcess(node) => *node,
            Event::Timer { ep, .. } | Event::Start(ep) => self.ep_meta[ep.0 as usize].host,
        };
        node_shard[node.0 as usize]
    }

    /// Drain every pending event and re-schedule only those this shard
    /// owns. Each shard builds the *full* world so global ids align, then
    /// keeps its slice of the initial event population.
    pub(crate) fn retain_owned_events(&mut self, node_shard: &[u32], my_shard: u32) {
        for (at, key, ev) in self.queue.drain_pending() {
            if self.event_shard(node_shard, &ev) == my_shard {
                self.queue.schedule_keyed(at, key, ev);
            } else if let Event::Arrival { flight, .. } = ev {
                self.unstash(flight);
            }
        }
    }

    /// Take the buffered cross-shard deliveries.
    pub(crate) fn take_outbox(&mut self) -> Vec<(SimTime, ChannelId, Packet)> {
        std::mem::take(&mut self.outbox)
    }

    /// Accept a delivery exported by another shard (the arrival side of a
    /// cut channel). `at` is never in this shard's past: the sender's
    /// horizon protocol guarantees `at ≥ lb_sender + delay ≥ now`.
    pub(crate) fn inject_arrival(&mut self, at: SimTime, ch: ChannelId, pkt: Packet) {
        self.schedule_arrival(at, ch, pkt);
    }

    // -- internals ----------------------------------------------------------

    fn dispatch(&mut self, t: SimTime, ev: Event) {
        // Wall-clock budget poll for request-serving workers; a no-op
        // unless the current thread armed a deadline (see `deadline`).
        crate::deadline::tick(t, self.queue.dispatched());
        match ev {
            Event::TxComplete(ch) => self.tx_complete(t, ch),
            Event::Arrival { ch, flight } => {
                let pkt = self.unstash(flight);
                self.arrival(t, ch, pkt)
            }
            Event::HostProcess(node) => self.host_process(t, node),
            Event::Timer { ep, token } => self.with_endpoint(ep, |e, ctx| e.on_timer(ctx, token)),
            Event::Start(ep) => self.with_endpoint(ep, |e, ctx| e.on_start(ctx)),
            Event::LinkUp(ch) => self.maybe_start_tx(t, ch),
        }
    }

    /// Offer a packet to a channel's buffer, applying capacity + discipline.
    fn offer(&mut self, t: SimTime, ch_id: ChannelId, mut pkt: Packet) {
        let ch = self.channels.get_mut(ch_id.0 as usize);
        let row = ch.row;
        let occupancy = row.occupancy();
        let capacity = row.capacity;
        // Queue-discipline randomness comes from the channel's private
        // stream: the draw sequence depends only on the traffic through
        // this channel, not on how events elsewhere interleave with it.
        let rng = ch.rng;
        // Active queue management (RED) may discard before the buffer is
        // physically full.
        if !row.discipline.admit(&pkt, occupancy, rng) {
            row.stats.drops += 1;
            self.audit.on_drop();
            self.record(
                t,
                TraceEvent::Drop {
                    ch: ch_id,
                    pkt,
                    reason: DropReason::EarlyDrop,
                    qlen: occupancy,
                },
            );
            return;
        }
        // DECbit marking: decided on the occupancy the packet would create.
        if row.mark_threshold.is_some_and(|k| occupancy + 1 > k) {
            pkt.ce = true;
        }
        if capacity.is_some_and(|cap| occupancy >= cap) {
            match row.discipline.select_victim(&pkt, rng) {
                Victim::Arriving => {
                    row.stats.drops += 1;
                    self.audit.on_drop();
                    self.record(
                        t,
                        TraceEvent::Drop {
                            ch: ch_id,
                            pkt,
                            reason: DropReason::BufferFull,
                            qlen: occupancy,
                        },
                    );
                    return;
                }
                Victim::Queued(victim) => {
                    row.stats.drops += 1;
                    row.discipline.enqueue(pkt);
                    row.stats.enqueued += 1;
                    self.audit.on_drop();
                    self.audit.on_enqueue(t, ch_id, occupancy, capacity);
                    self.record(
                        t,
                        TraceEvent::Drop {
                            ch: ch_id,
                            pkt: victim,
                            reason: DropReason::BufferFull,
                            qlen: occupancy,
                        },
                    );
                    self.record(
                        t,
                        TraceEvent::Enqueue {
                            ch: ch_id,
                            pkt,
                            qlen_after: occupancy,
                        },
                    );
                }
            }
        } else {
            row.discipline.enqueue(pkt);
            row.stats.enqueued += 1;
            self.audit.on_enqueue(t, ch_id, occupancy + 1, capacity);
            self.record(
                t,
                TraceEvent::Enqueue {
                    ch: ch_id,
                    pkt,
                    qlen_after: occupancy + 1,
                },
            );
        }
        self.maybe_start_tx(t, ch_id);
    }

    fn maybe_start_tx(&mut self, t: SimTime, ch_id: ChannelId) {
        let started = {
            let ch = self.channels.get_mut(ch_id.0 as usize);
            // A downed link (static plan or injected overlay) refuses new
            // transmissions; the LinkUp event scheduled by `set_fault_plan`
            // / `inject_outage` restarts it.
            if ch.row.in_service.is_some() || ch.link_down(t) {
                None
            } else if let Some(pkt) = ch.row.discipline.dequeue() {
                ch.row.in_service = Some((pkt, t));
                Some((pkt, ch.row.rate.transmission_time(pkt.size)))
            } else {
                None
            }
        };
        if let Some((pkt, tx_time)) = started {
            self.record(t, TraceEvent::TxStart { ch: ch_id, pkt });
            self.schedule_event(t + tx_time, Event::TxComplete(ch_id));
        }
    }

    fn tx_complete(&mut self, t: SimTime, ch_id: ChannelId) {
        let (pkt, qlen_after, delay, outcome) = {
            let ch = self.channels.get_mut(ch_id.0 as usize);
            let row = ch.row;
            let (pkt, started) = row.in_service.take().expect("TxComplete without tx");
            row.stats.busy += t.since(started);
            row.stats.tx_packets += 1;
            row.stats.tx_bytes += pkt.size as u64;
            let qlen_after = row.occupancy();
            // A pending forced drop (model-checker branch decision) wins
            // outright and consumes no randomness — the channel's private
            // stream stays aligned with the sibling branch that delivered.
            let outcome = if row.forced_drops > 0 {
                row.forced_drops -= 1;
                FaultOutcome::Dropped(FaultKind::Dropped)
            } else {
                // Fault decisions draw only from the channel's private
                // stream, never from the world's shared RNG.
                let mut outcome = ch.fault.decide(t, row.delay, ch.rng);
                // An injected outage cuts surviving transmissions the same
                // way a static outage window does.
                if let FaultOutcome::Deliver { extra_delay, .. } = outcome {
                    let arrival = t + row.delay + extra_delay;
                    if ch.injected_outages.iter().any(|o| o.cuts(t, arrival)) {
                        outcome = FaultOutcome::Dropped(FaultKind::LinkDown);
                    }
                }
                outcome
            };
            (pkt, qlen_after, row.delay, outcome)
        };
        self.record(
            t,
            TraceEvent::TxEnd {
                ch: ch_id,
                pkt,
                qlen_after,
            },
        );
        match outcome {
            FaultOutcome::Dropped(kind) => {
                self.audit.on_drop();
                let reason = match kind {
                    FaultKind::LinkDown => DropReason::LinkDown,
                    FaultKind::Dropped => DropReason::Fault,
                };
                self.record(
                    t,
                    TraceEvent::Drop {
                        ch: ch_id,
                        pkt,
                        reason,
                        qlen: qlen_after,
                    },
                );
            }
            FaultOutcome::Deliver {
                extra_delay,
                duplicate,
            } => {
                let arrival = t + delay + extra_delay;
                self.deliver_or_export(arrival, ch_id, pkt);
                if duplicate {
                    // The copy is a new packet from the network's point of
                    // view: conservation counts it as injected.
                    self.audit.on_inject();
                    self.deliver_or_export(arrival, ch_id, pkt);
                }
            }
        }
        self.maybe_start_tx(t, ch_id);
    }

    /// Route a surviving transmission to its arrival: the local queue, or
    /// — when the channel's destination belongs to another shard — the
    /// outbox for the executor to forward.
    fn deliver_or_export(&mut self, arrival: SimTime, ch_id: ChannelId, pkt: Packet) {
        let dst = self.channels.row(ch_id.0 as usize).dst;
        if self
            .remote_node
            .get(dst.0 as usize)
            .copied()
            .unwrap_or(false)
        {
            self.outbox.push((arrival, ch_id, pkt));
        } else {
            self.schedule_arrival(arrival, ch_id, pkt);
        }
    }

    fn arrival(&mut self, t: SimTime, ch_id: ChannelId, pkt: Packet) {
        let node_id = self.channels.row(ch_id.0 as usize).dst;
        let ni = node_id.0 as usize;
        if self.hosts.is_host(ni) {
            debug_assert_eq!(pkt.dst, node_id, "packet delivered to wrong host");
            self.hosts.proc_queue_mut(ni).push_back(pkt);
            if !self.hosts.proc_busy(ni) {
                self.hosts.set_proc_busy(ni, true);
                let d = self.hosts.proc_delay(ni);
                self.schedule_event(t + d, Event::HostProcess(node_id));
            }
        } else {
            let out = match &self.nodes[ni].kind {
                NodeKind::Switch { table } => table.lookup(pkt.dst),
                NodeKind::Host { .. } => unreachable!("host row disagrees with node kind"),
            };
            match out {
                Some(out) => self.offer(t, out, pkt),
                None => panic!(
                    "switch {} has no route to node {}",
                    self.nodes[ni].name, pkt.dst.0
                ),
            }
        }
    }

    fn host_process(&mut self, t: SimTime, node_id: NodeId) {
        let ni = node_id.0 as usize;
        let pkt = self
            .hosts
            .proc_queue_mut(ni)
            .pop_front()
            .expect("HostProcess with empty queue");
        if self.hosts.proc_queue(ni).is_empty() {
            self.hosts.set_proc_busy(ni, false);
        } else {
            let due = t + self.hosts.proc_delay(ni);
            self.schedule_event(due, Event::HostProcess(node_id));
        }
        self.audit.on_deliver(t);
        self.record(t, TraceEvent::Deliver { node: node_id, pkt });
        let ep = (self.conns.get(pkt.conn.0 as usize))
            .and_then(|entry| entry.iter().find(|&&(h, _)| h == node_id))
            .map(|&(_, ep)| ep)
            .unwrap_or_else(|| {
                panic!(
                    "host {} has no endpoint for {:?}",
                    self.nodes[ni].name, pkt.conn
                )
            });
        self.with_endpoint(ep, |e, ctx| e.on_packet(ctx, pkt));
    }

    /// Temporarily remove the endpoint so it can be called with `&mut self`
    /// alongside a mutable context over the rest of the world.
    fn with_endpoint<F>(&mut self, ep: EndpointId, f: F)
    where
        F: FnOnce(&mut dyn Endpoint, &mut Ctx<'_>),
    {
        let mut boxed = self.endpoints[ep.0 as usize]
            .take()
            .expect("endpoint re-entered");
        {
            let mut ctx = Ctx { world: self, ep };
            f(boxed.as_mut(), &mut ctx);
        }
        self.endpoints[ep.0 as usize] = Some(boxed);
    }
}

/// The world as seen from inside an endpoint callback.
///
/// Everything an endpoint may do — learn the time, send packets, arm and
/// cancel timers, draw randomness, annotate the trace — goes through this
/// context, so a transport implementation is testable against a scripted
/// world and cannot reach into another endpoint's state.
pub struct Ctx<'a> {
    world: &'a mut World,
    ep: EndpointId,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.queue.now()
    }

    /// This endpoint's connection.
    pub fn conn(&self) -> ConnId {
        self.world.ep_meta[self.ep.0 as usize].conn
    }

    /// The host this endpoint lives on.
    pub fn host(&self) -> NodeId {
        self.world.ep_meta[self.ep.0 as usize].host
    }

    /// The host of the connection's other endpoint.
    pub fn peer(&self) -> NodeId {
        self.world.ep_meta[self.ep.0 as usize].peer
    }

    /// Build and transmit a packet to the peer. Returns its id.
    /// The CE bit starts clear; receivers echoing congestion marks use
    /// [`Ctx::send_marked`].
    pub fn send(&mut self, kind: PacketKind, seq: u64, size: u32, retx: bool) -> PacketId {
        self.send_marked(kind, seq, size, retx, false)
    }

    /// Like [`Ctx::send`], with an explicit initial CE bit (used by DECbit
    /// receivers to echo congestion marks back to the sender).
    pub fn send_marked(
        &mut self,
        kind: PacketKind,
        seq: u64,
        size: u32,
        retx: bool,
        ce: bool,
    ) -> PacketId {
        self.send_full(kind, seq, 0, size, retx, ce)
    }

    /// Fully explicit send: data packets on duplex connections carry a
    /// piggybacked cumulative `ack`.
    pub fn send_full(
        &mut self,
        kind: PacketKind,
        seq: u64,
        ack: u64,
        size: u32,
        retx: bool,
        ce: bool,
    ) -> PacketId {
        let t = self.now();
        // The id names (endpoint, nth send), the same on any sharding.
        let ctr = &mut self.world.ep_packet_ctr[self.ep.0 as usize];
        let id = PacketId(((u64::from(self.ep.0) + 1) << 40) | *ctr);
        *ctr += 1;
        let meta = &self.world.ep_meta[self.ep.0 as usize];
        let pkt = Packet {
            id,
            conn: meta.conn,
            kind,
            seq,
            ack,
            size,
            src: meta.host,
            dst: meta.peer,
            sent_at: t,
            retx,
            ce,
        };
        let host = meta.host;
        self.world.audit.on_inject();
        if pkt.is_ack() {
            // Cumulative ACKs ride the seq field (pure ACKs) — audited for
            // monotonicity.
            self.world.audit.on_ack_send(t, pkt.conn, host, pkt.seq);
        }
        let uplink = match &self.world.nodes[host.0 as usize].kind {
            NodeKind::Host { uplink } => uplink.unwrap_or_else(|| {
                panic!(
                    "host {} has no uplink channel",
                    self.world.nodes[host.0 as usize].name
                )
            }),
            NodeKind::Switch { .. } => unreachable!("endpoints live on hosts"),
        };
        self.world.record(t, TraceEvent::Send { node: host, pkt });
        self.world.offer(t, uplink, pkt);
        id
    }

    /// Arm a timer that calls [`Endpoint::on_timer`] with `token` after
    /// `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        let at = self.world.queue.now() + delay;
        let id = self
            .world
            .schedule_event(at, Event::Timer { ep: self.ep, token });
        TimerHandle(id)
    }

    /// Cancel a timer. Returns `true` if it had not yet fired.
    pub fn cancel_timer(&mut self, h: TimerHandle) -> bool {
        self.world.queue.cancel(h.0)
    }

    /// Record a protocol annotation in the trace.
    pub fn emit(&mut self, ev: ProtoEvent) {
        let meta = &self.world.ep_meta[self.ep.0 as usize];
        let (conn, node) = (meta.conn, meta.host);
        let t = self.now();
        if let ProtoEvent::Cwnd { cwnd, ssthresh } = ev {
            self.world.audit.on_cwnd(t, conn, cwnd, ssthresh);
        }
        self.world.record(t, TraceEvent::Proto { conn, node, ev });
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::DisciplineKind;

    /// Sends `n` data packets back-to-back at start; counts ACKs received.
    pub(super) struct Blaster {
        pub(super) n: u64,
        pub(super) acks_seen: u64,
        pub(super) data_size: u32,
    }

    impl Endpoint for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for seq in 1..=self.n {
                ctx.send(PacketKind::Data, seq, self.data_size, false);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            assert!(pkt.is_ack());
            self.acks_seen += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// ACKs every data packet.
    pub(super) struct Acker {
        pub(super) data_seen: u64,
    }

    impl Endpoint for Acker {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
            assert!(pkt.is_data());
            self.data_seen += 1;
            ctx.send(PacketKind::Ack, pkt.seq, 50, false);
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Two hosts, one duplex link: H0 <-> H1, no switches.
    pub(super) fn direct_world(
        rate: Rate,
        delay: SimDuration,
        capacity: Option<u32>,
    ) -> (World, NodeId, NodeId, ChannelId, ChannelId) {
        let mut w = World::new(7);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        let c01 = w.add_channel(
            h0,
            h1,
            rate,
            delay,
            capacity,
            DisciplineKind::DropTail.build(),
        );
        let c10 = w.add_channel(
            h1,
            h0,
            rate,
            delay,
            capacity,
            DisciplineKind::DropTail.build(),
        );
        (w, h0, h1, c01, c10)
    }

    /// Five 500 B packets over a clean 50 Kbps / 10 ms link.
    pub(super) fn blaster_world() -> (World, EndpointId, ChannelId) {
        let (mut w, h0, h1, c01, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), None);
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 5,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let snk = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        (w, snk, c01)
    }

    pub(super) fn data_seen(w: &World, snk: EndpointId) -> u64 {
        w.endpoint(snk)
            .unwrap()
            .as_any()
            .downcast_ref::<Acker>()
            .unwrap()
            .data_seen
    }

    #[test]
    fn single_packet_end_to_end_latency() {
        // 500 B at 50 Kbps = 80 ms tx; 10 ms prop; 0.1 ms host processing.
        let (mut w, h0, h1, _c01, _c10) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), None);
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 1,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let _snk = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
        // Data delivered at 80 ms + 10 ms + 0.1 ms = 90.1 ms; ACK (50 B = 8 ms)
        // back at 90.1 + 8 + 10 + 0.1 = 108.2 ms. Final event is ACK delivery.
        assert_eq!(w.now(), SimTime::from_micros(108_200));
        let blaster = w
            .endpoint(src)
            .unwrap()
            .as_any()
            .downcast_ref::<Blaster>()
            .unwrap();
        assert_eq!(blaster.acks_seen, 1);
    }

    #[test]
    fn burst_serializes_back_to_back() {
        let (mut w, h0, h1, c01, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), None);
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 5,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let _snk = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
        let st = w.channel_stats(c01);
        assert_eq!(st.tx_packets, 5);
        assert_eq!(st.tx_bytes, 2500);
        // Five 80 ms transmissions back to back.
        assert_eq!(st.busy, SimDuration::from_millis(400));
        assert_eq!(st.drops, 0);
    }

    #[test]
    fn full_buffer_drop_tail_drops_arrivals() {
        // Capacity 3 (waiting + in service); burst of 10 → 7 dropped.
        let (mut w, h0, h1, c01, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), Some(3));
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 10,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let snk = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
        let st = w.channel_stats(c01);
        assert_eq!(st.drops, 7);
        assert_eq!(st.tx_packets, 3);
        let acker = w
            .endpoint(snk)
            .unwrap()
            .as_any()
            .downcast_ref::<Acker>()
            .unwrap();
        assert_eq!(acker.data_seen, 3);
        // Dropped seqs are the tail of the burst: 4..=10 (first 3 accepted).
        let dropped: Vec<u64> = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::Drop { pkt, .. } => Some(pkt.seq),
                _ => None,
            })
            .collect();
        assert_eq!(dropped, vec![4, 5, 6, 7, 8, 9, 10]);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let (mut w, h0, h1, c01, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), Some(4));
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 20,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let _ = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
        for r in w.trace().records() {
            if let TraceEvent::Enqueue { ch, qlen_after, .. } = r.ev {
                if ch == c01 {
                    assert!(qlen_after <= 4, "occupancy {qlen_after} exceeded capacity");
                }
            }
        }
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed| {
            let (mut w, h0, h1, _, _) =
                direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), Some(5));
            let _ = seed; // direct_world fixes the seed; vary workload only
            let src = w.attach(
                h0,
                h1,
                ConnId(0),
                Box::new(Blaster {
                    n: 12,
                    acks_seen: 0,
                    data_size: 500,
                }),
            );
            let _ = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
            w.start_at(src, SimTime::ZERO);
            w.run_to_completion();
            (w.now(), w.events_dispatched(), w.trace().len())
        };
        assert_eq!(run(1), run(1));
    }

    #[test]
    fn host_processing_is_serial() {
        // Two packets arrive (nearly) simultaneously; deliveries must be
        // spaced by the processing delay.
        let (mut w, h0, h1, _, _) = direct_world(Rate::from_mbps(10), SimDuration::ZERO, None);
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 2,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let _ = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
        let delivers: Vec<SimTime> = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::Deliver { node, pkt } if node == h1 && pkt.is_data() => Some(r.t),
                _ => None,
            })
            .collect();
        assert_eq!(delivers.len(), 2);
        // Arrivals at 400 us and 800 us (tx times); processing 100 us each →
        // deliveries at 500 us and 900 us (second arrival waits for nothing:
        // it arrives at 800, processing starts then, done 900).
        assert_eq!(delivers[0], SimTime::from_micros(500));
        assert_eq!(delivers[1], SimTime::from_micros(900));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerBox {
            fired: Vec<u64>,
        }
        impl Endpoint for TimerBox {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(1), 1);
                let dead = ctx.set_timer(SimDuration::from_secs(2), 2);
                ctx.set_timer(SimDuration::from_secs(3), 3);
                assert!(ctx.cancel_timer(dead));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let (mut w, h0, h1, _, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), None);
        let ep = w.attach(h0, h1, ConnId(0), Box::new(TimerBox { fired: vec![] }));
        w.start_at(ep, SimTime::ZERO);
        w.run_to_completion();
        let tb = w
            .endpoint(ep)
            .unwrap()
            .as_any()
            .downcast_ref::<TimerBox>()
            .unwrap();
        assert_eq!(tb.fired, vec![1, 3]);
    }

    #[test]
    fn fault_injection_drops_everything_at_p1() {
        let mut w = World::new(3);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        let c01 = w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
        w.set_fault_plan(c01, FaultPlan::lossy(1.0)).unwrap();
        w.add_channel(
            h1,
            h0,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 5,
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
        assert_eq!(acker.data_seen, 0, "perfectly lossy channel delivered data");
        let faults = w
            .trace()
            .records()
            .iter()
            .filter(|r| {
                matches!(
                    r.ev,
                    TraceEvent::Drop {
                        reason: DropReason::Fault,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(faults, 5);
    }

    #[test]
    fn utilization_of_saturated_channel_is_one() {
        let (mut w, h0, h1, c01, _) = direct_world(Rate::from_kbps(50), SimDuration::ZERO, None);
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 10,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let _ = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        w.run_until(SimTime::from_millis(800)); // exactly 10 * 80 ms
        let u = w.utilization(c01);
        assert!(u > 0.99, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut w = World::new(1);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        let s0 = w.add_switch("S0");
        w.add_channel(
            h0,
            s0,
            Rate::from_mbps(10),
            SimDuration::from_micros(100),
            None,
            DisciplineKind::DropTail.build(),
        );
        // no route installed on s0, no channel to h1
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 1,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
    }

    #[test]
    fn zero_size_packets_serialize_instantly() {
        let (mut w, h0, h1, c01, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), None);
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 3,
                acks_seen: 0,
                data_size: 0,
            }),
        );
        let _ = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
        assert_eq!(w.channel_stats(c01).busy, SimDuration::ZERO);
        assert_eq!(w.channel_stats(c01).tx_packets, 3);
    }

    /// The connection table has two slots per connection, and delivery
    /// picks the one whose host matches: a third endpoint has no slot.
    #[test]
    #[should_panic(expected = "ConnId(0) already has two endpoints")]
    fn attach_rejects_a_third_endpoint_on_one_connection() {
        let mut w = World::new(1);
        let hosts: Vec<NodeId> = (0..3)
            .map(|i| w.add_host(&format!("H{i}"), SimDuration::ZERO))
            .collect();
        for &h in &hosts {
            w.attach(h, hosts[0], ConnId(0), Box::new(Acker { data_seen: 0 }));
        }
    }

    /// Two endpoints of one connection on one host could not be told
    /// apart by delivery.
    #[test]
    #[should_panic(expected = "host H0 already has an endpoint for ConnId(3)")]
    fn attach_rejects_a_second_endpoint_on_one_host() {
        let (mut w, h0, h1, _, _) = direct_world(Rate::from_kbps(50), SimDuration::ZERO, None);
        w.attach(h0, h1, ConnId(3), Box::new(Acker { data_seen: 0 }));
        w.attach(h0, h1, ConnId(3), Box::new(Acker { data_seen: 0 }));
    }

    /// Connection ids index tables: one at the cap is refused before it
    /// can size them.
    #[test]
    #[should_panic(expected = "ConnId(16777216) is at or above the connection id cap")]
    fn attach_rejects_a_conn_id_at_the_cap() {
        let (mut w, h0, h1, _, _) = direct_world(Rate::from_kbps(50), SimDuration::ZERO, None);
        w.attach(
            h0,
            h1,
            ConnId(CONN_ID_CAP),
            Box::new(Acker { data_seen: 0 }),
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{direct_world, Acker, Blaster};
    use super::*;
    use crate::discipline::DisciplineKind;
    use crate::fault::Outage;
    use crate::trace::TraceRecord;

    /// 50 Kbps, 500 B data → 80 ms serialization, 10 ms propagation,
    /// 0.1 ms host processing.
    fn outage_world(outages: Vec<Outage>) -> (World, EndpointId, EndpointId, ChannelId) {
        let (mut w, h0, h1, c01, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), None);
        w.set_fault_plan(c01, FaultPlan::with_outages(outages))
            .unwrap();
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 5,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let snk = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        (w, src, snk, c01)
    }

    #[test]
    fn outage_cuts_in_flight_refuses_new_and_recovers() {
        // Packet 1: tx 0–80 ms, would arrive 90 ms. Outage [85 ms, 300 ms):
        // cut in flight. Packet 2: tx 80–160 ms, finishes into a down link:
        // dropped. Packets 3–5 wait for LinkUp at 300 ms, then flow.
        let (mut w, _src, snk, c01) = outage_world(vec![Outage {
            down: SimTime::from_millis(85),
            up: SimTime::from_millis(300),
        }]);
        w.run_to_completion();
        let acker = w
            .endpoint(snk)
            .unwrap()
            .as_any()
            .downcast_ref::<Acker>()
            .unwrap();
        assert_eq!(acker.data_seen, 3, "packets 3-5 survive the outage");
        let link_down_drops: Vec<u64> = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::Drop {
                    reason: DropReason::LinkDown,
                    pkt,
                    ..
                } => Some(pkt.seq),
                _ => None,
            })
            .collect();
        assert_eq!(link_down_drops, vec![1, 2]);
        // No transmission starts while the link is down.
        for r in w.trace().records() {
            if let TraceEvent::TxStart { ch, .. } = r.ev {
                if ch == c01 {
                    assert!(
                        r.t < SimTime::from_millis(160) || r.t >= SimTime::from_millis(300),
                        "TxStart at {:?} during the outage",
                        r.t
                    );
                }
            }
        }
        // First post-outage delivery: tx 300-380 ms + 10 ms + 0.1 ms.
        let first_recovered = w
            .trace()
            .records()
            .iter()
            .find_map(|r| match r.ev {
                TraceEvent::Deliver { pkt, .. } if pkt.is_data() => Some(r.t),
                _ => None,
            })
            .unwrap();
        assert_eq!(first_recovered, SimTime::from_micros(390_100));
        assert_eq!(w.audit().total_violations(), 0);
    }

    #[test]
    fn outage_only_plan_run_is_byte_identical_to_manual_schedule() {
        // Outages draw no randomness: two identical runs produce identical
        // traces even though the plan is active.
        let run = || {
            let (mut w, _, _, _) = outage_world(vec![Outage {
                down: SimTime::from_millis(85),
                up: SimTime::from_millis(300),
            }]);
            w.run_to_completion();
            w.trace().records().to_vec()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn duplication_delivers_copies_and_conserves() {
        let (mut w, h0, h1, c01, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), None);
        let plan = FaultPlan {
            dup_prob: 1.0,
            ..FaultPlan::NONE
        };
        w.set_fault_plan(c01, plan).unwrap();
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
        assert_eq!(acker.data_seen, 6, "every data packet arrives twice");
        // 3 sends + 3 duplicates + 6 ACKs injected; all delivered.
        assert_eq!(w.audit().injected(), 12);
        assert_eq!(w.audit().delivered(), 12);
        assert_eq!(w.audit().total_violations(), 0);
    }

    #[test]
    fn reorder_jitter_is_bounded() {
        let (mut w, h0, h1, c01, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), None);
        let max_extra = SimDuration::from_millis(5);
        let plan = FaultPlan {
            jitter: Some(crate::fault::ReorderJitter {
                prob: 1.0,
                max_extra,
            }),
            ..FaultPlan::NONE
        };
        w.set_fault_plan(c01, plan).unwrap();
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Blaster {
                n: 10,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let _ = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
        // Serialization (80 ms) dwarfs the jitter bound (5 ms), so each
        // delivery is its own packet's: t = tx_end + 10 ms prop + jitter
        // + 0.1 ms processing.
        let base = SimDuration::from_millis(10) + SimDuration::from_micros(100);
        let mut saw_nonzero = false;
        let mut n = 0u64;
        for r in w.trace().records() {
            if let TraceEvent::Deliver { pkt, .. } = r.ev {
                if pkt.is_data() {
                    n += 1;
                    let tx_end = SimTime::ZERO + SimDuration::from_millis(80) * n;
                    let extra = r.t.since(tx_end + base);
                    assert!(extra < max_extra, "jitter {extra:?} out of bounds");
                    saw_nonzero |= !extra.is_zero();
                }
            }
        }
        assert_eq!(n, 10);
        assert!(saw_nonzero, "jitter at prob 1.0 must actually delay");
        assert_eq!(w.audit().total_violations(), 0);
    }

    /// Connection id tagged on every trace record that carries one.
    fn record_conn(ev: &TraceEvent) -> Option<ConnId> {
        match ev {
            TraceEvent::Send { pkt, .. }
            | TraceEvent::Enqueue { pkt, .. }
            | TraceEvent::Drop { pkt, .. }
            | TraceEvent::TxStart { pkt, .. }
            | TraceEvent::TxEnd { pkt, .. }
            | TraceEvent::Deliver { pkt, .. } => Some(pkt.conn),
            TraceEvent::Proto { conn, .. } => Some(*conn),
        }
    }

    /// Counts deliveries without responding, so the faulty path injects no
    /// packets of its own and the global packet-id sequence stays fixed.
    struct Sink {
        seen: u64,
    }
    impl Endpoint for Sink {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
            self.seen += 1;
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Two disjoint host pairs in one world. Pair A (conn 0) takes the
    /// fault plan under test; pair B (conn 1) runs a Random Drop queue
    /// that draws victims from its own channel's stream. If A's fault
    /// draws leaked onto any other stream, B's victim choices would shift.
    fn two_pair_trace(plan: FaultPlan) -> (Vec<TraceRecord>, usize) {
        let mut w = World::new(11);
        let rate = Rate::from_kbps(50);
        let delay = SimDuration::from_millis(10);
        let proc = SimDuration::from_micros(100);
        let a0 = w.add_host("A0", proc);
        let a1 = w.add_host("A1", proc);
        let b0 = w.add_host("B0", proc);
        let b1 = w.add_host("B1", proc);
        let ca = w.add_channel(a0, a1, rate, delay, None, DisciplineKind::DropTail.build());
        w.add_channel(a1, a0, rate, delay, None, DisciplineKind::DropTail.build());
        w.add_channel(
            b0,
            b1,
            rate,
            delay,
            Some(2),
            DisciplineKind::RandomDrop.build(),
        );
        w.add_channel(b1, b0, rate, delay, None, DisciplineKind::DropTail.build());
        w.set_fault_plan(ca, plan).unwrap();
        let sa = w.attach(
            a0,
            a1,
            ConnId(0),
            Box::new(Blaster {
                n: 8,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let _ = w.attach(a1, a0, ConnId(0), Box::new(Sink { seen: 0 }));
        let sb = w.attach(
            b0,
            b1,
            ConnId(1),
            Box::new(Blaster {
                n: 8,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let _ = w.attach(b1, b0, ConnId(1), Box::new(Acker { data_seen: 0 }));
        w.start_at(sa, SimTime::ZERO);
        w.start_at(sb, SimTime::ZERO);
        w.run_to_completion();
        let b_records: Vec<TraceRecord> = w
            .trace()
            .records()
            .iter()
            .filter(|r| record_conn(&r.ev) == Some(ConnId(1)))
            .copied()
            .collect();
        let a_fault_drops = w
            .trace()
            .records()
            .iter()
            .filter(|r| {
                matches!(
                    r.ev,
                    TraceEvent::Drop {
                        reason: DropReason::Fault,
                        ..
                    }
                ) && record_conn(&r.ev) == Some(ConnId(0))
            })
            .count();
        (b_records, a_fault_drops)
    }

    #[test]
    fn faults_on_one_channel_leave_other_paths_byte_identical() {
        let (clean_b, clean_drops) = two_pair_trace(FaultPlan::NONE);
        let lossy = FaultPlan::lossy(0.5);
        let (faulty_b, faulty_drops) = two_pair_trace(lossy);
        assert_eq!(clean_drops, 0);
        assert!(faulty_drops > 0, "the lossy plan must actually drop");
        assert_eq!(
            clean_b, faulty_b,
            "path B's packet trace shifted when path A became lossy"
        );
    }

    #[test]
    fn set_fault_plan_rejects_invalid_plans() {
        let (mut w, _, _, c01, _) =
            direct_world(Rate::from_kbps(50), SimDuration::from_millis(10), None);
        let bad = FaultPlan {
            dup_prob: 1.5,
            ..FaultPlan::NONE
        };
        assert!(w.set_fault_plan(c01, bad).is_err());
        for p in [1.5, f64::NAN, f64::INFINITY] {
            let bad = FaultPlan {
                drop_prob: p,
                ..FaultPlan::NONE
            };
            let err = w.set_fault_plan(c01, bad).unwrap_err().to_string();
            assert!(err.contains("drop_prob"), "drop_prob = {p}: {err}");
        }
        // Built as a struct literal: `with_outages` itself panics on
        // malformed schedules, and here we want the fallible path.
        let overlapping = FaultPlan {
            outages: vec![
                Outage {
                    down: SimTime::from_secs(1),
                    up: SimTime::from_secs(5),
                },
                Outage {
                    down: SimTime::from_secs(3),
                    up: SimTime::from_secs(7),
                },
            ],
            ..FaultPlan::NONE
        };
        assert!(w.set_fault_plan(c01, overlapping).is_err());
    }
}

#[cfg(test)]
mod mc_primitive_tests {
    use super::tests::{blaster_world, data_seen};
    use super::*;
    use crate::trace::TraceEvent;

    #[test]
    fn injected_outage_matches_static_outage_semantics() {
        // Same window as `outage_cuts_in_flight_refuses_new_and_recovers`,
        // but injected dynamically before the run instead of installed as
        // a static plan: packets 1 (cut in flight) and 2 (finishes into
        // the downed link) die, packets 3-5 flow after LinkUp at 300 ms.
        let (mut w, snk, c01) = blaster_world();
        w.inject_outage(c01, SimTime::from_millis(85), SimTime::from_millis(300));
        w.run_to_completion();
        assert_eq!(data_seen(&w, snk), 3, "packets 3-5 survive the outage");
        let link_down_drops: Vec<u64> = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::Drop {
                    reason: DropReason::LinkDown,
                    pkt,
                    ..
                } => Some(pkt.seq),
                _ => None,
            })
            .collect();
        assert_eq!(link_down_drops, vec![1, 2]);
        for r in w.trace().records() {
            if let TraceEvent::TxStart { ch, .. } = r.ev {
                if ch == c01 {
                    assert!(
                        r.t < SimTime::from_millis(160) || r.t >= SimTime::from_millis(300),
                        "TxStart at {:?} during the injected outage",
                        r.t
                    );
                }
            }
        }
        assert_eq!(w.audit().total_violations(), 0);
    }

    #[test]
    fn forced_drops_consume_exactly_n_and_no_randomness() {
        let (mut clean, clean_snk, _) = blaster_world();
        clean.run_to_completion();
        let (mut w, snk, c01) = blaster_world();
        w.force_drops(c01, 2);
        w.run_to_completion();
        assert_eq!(data_seen(&w, snk), 3, "exactly two packets forced down");
        let fault_drops: Vec<u64> = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::Drop {
                    reason: DropReason::Fault,
                    pkt,
                    ..
                } => Some(pkt.seq),
                _ => None,
            })
            .collect();
        assert_eq!(fault_drops, vec![1, 2], "the *next* two transmissions die");
        // RNG-free: both worlds end with identical channel streams (the
        // forced path never draws).
        assert_eq!(data_seen(&clean, clean_snk), 5);
        assert_eq!(
            clean.channels.rng(c01.0 as usize),
            w.channels.rng(c01.0 as usize)
        );
        assert_eq!(w.audit().total_violations(), 0);
    }
}
