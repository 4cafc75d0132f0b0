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
//! Hot per-channel and per-host state lives in struct-of-arrays arenas
//! (see [`crate::arena`]): `Copy` configuration columns stay densely
//! packed, and the world borrows one channel as a [`ChannelMut`] view
//! while independently touching its own trace, audit, and queue fields.
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
//!    end is scheduled one propagation delay later.
//! 5. `Arrival` at a switch re-enters step 2 on the routed output channel;
//!    at a host it joins the serial processing queue and is handed to the
//!    endpoint (`Deliver` record) after the per-packet processing delay.
//!
//! ## Canonical mode
//!
//! A world built for sharded execution (see [`crate::shard`]) runs in
//! *canonical* mode: simultaneous events are ordered by a content-derived
//! FNV-1a key instead of scheduling order, packet ids are drawn from
//! per-endpoint counters instead of a global one, and queue-discipline
//! randomness comes from each channel's private stream instead of the
//! world's shared one. All three make the observable execution a function
//! of the topology alone, independent of how it is partitioned across
//! shards. Serial worlds (the default) are bit-for-bit unchanged: every
//! event carries key 0 and ties fall back to FIFO scheduling order.
//!
//! ## Snapshots
//!
//! TDSN ([`Snapshot`]), TDSW ([`crate::ShardSnapshot`]) and
//! [`World::state_hash`] write pending events one way — pop order, each as
//! due time plus encoded event — and a held [`TimerHandle`] as its event's
//! index in that list. Restore rebuilds the queue with
//! [`EventQueue::from_pending`], so no byte depends on slot-reuse history.

use crate::arena::{ChannelArena, HostArena};
use crate::audit::Audit;
use crate::discipline::{Discipline, Victim};
use crate::fault::{FaultError, FaultKind, FaultModel, FaultOutcome, FaultPlan, Outage};
use crate::packet::{ConnId, NodeId, Packet, PacketId, PacketKind};
use crate::route::RouteTable;
use crate::trace::{
    DropReason, LossKind, ProtoEvent, Trace, TraceEvent, TraceObserver, TraceRecord,
};
use crate::watchdog::{
    EndpointProgress, RunOutcome, StallKind, StallReport, StuckConn, WatchdogConfig,
};
use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::thread::LocalKey;
use td_engine::meter::{self, Counter};
use td_engine::{
    EventId, EventQueue, Rate, SimDuration, SimRng, SimTime, SnapError, SnapReader, SnapWriter,
};

/// Base label for deriving each channel's private fault RNG stream from
/// the world seed (`derive(FAULT_STREAM ^ channel_id)`).
const FAULT_STREAM: u64 = 0xFA17_57F3_A400_0000;

/// Identifies one simplex channel.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ChannelId(pub u32);

/// Identifies an attached protocol endpoint.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EndpointId(pub u32);

thread_local! {
    /// While a snapshot writes endpoint rows: each pending event's id → its
    /// index in the pending list written beside them.
    pub(crate) static HANDLE_INDEX: RefCell<Option<HashMap<EventId, u64>>> =
        const { RefCell::new(None) };
    /// While a restore reads endpoint rows: pending index → the event's id
    /// in the rebuilt queue (`None` where another shard's queue holds it).
    pub(crate) static HANDLE_IDS: RefCell<Option<Vec<Option<EventId>>>> =
        const { RefCell::new(None) };
}

/// Run `f` with `table` installed in `slot` for this thread (one of the
/// handle translations above), then hand the table back.
pub(crate) fn with_table<T: Default, R>(
    slot: &'static LocalKey<RefCell<Option<T>>>,
    table: &mut T,
    f: impl FnOnce() -> R,
) -> R {
    slot.set(Some(std::mem::take(table)));
    let out = f();
    *table = slot.take().unwrap_or_default();
    out
}

/// How a snapshot writes a handle whose timer is no longer pending.
const STALE_HANDLE: (u32, u64) = (u32::MAX, u64::MAX);

/// Handle to a pending endpoint timer, used to cancel it.
#[derive(Clone, Copy, Debug)]
pub struct TimerHandle(EventId);

impl TimerHandle {
    /// A handle that is stale by construction (out of any slab's range):
    /// `cancel` on it reports "already fired", exactly like a handle whose
    /// slot generation has moved on.
    fn stale() -> TimerHandle {
        TimerHandle(EventId::from_raw(STALE_HANDLE.0, STALE_HANDLE.1))
    }

    /// Serialize the handle (snapshot support for endpoints holding armed
    /// timers) as `(index, 0)`, its event's index in the pending list the
    /// snapshot writes — or, for a timer that has fired or been cancelled,
    /// as the stale marker `(u32::MAX, u64::MAX)`.
    ///
    /// # Panics
    /// Outside a world snapshot, where there is no pending list to index.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let index = HANDLE_INDEX.with_borrow(|index| {
            let index = index
                .as_ref()
                .expect("timer handle saved outside a world snapshot");
            index.get(&self.0).copied()
        });
        let (idx, tag) = index.map_or(STALE_HANDLE, |i| (i as u32, 0));
        w.write_u32(idx);
        w.write_u64(tag);
    }

    /// Deserialize a handle written by [`TimerHandle::save_state`] as the
    /// restored event's new id. An index with no pending event behind it —
    /// past the list, or held by another shard — is
    /// [`SnapError::Corrupt`]: restored as stale, it would be a timer that
    /// silently never fires.
    ///
    /// # Panics
    /// Outside a world restore.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<TimerHandle, SnapError> {
        let raw = (r.read_u32()?, r.read_u64()?);
        if raw == STALE_HANDLE {
            return Ok(TimerHandle::stale());
        }
        let id = HANDLE_IDS.with_borrow(|ids| {
            let ids = ids
                .as_ref()
                .expect("timer handle loaded outside a world restore");
            match raw {
                (idx, 0) => ids.get(idx as usize).copied().flatten(),
                _ => None,
            }
        });
        id.map(TimerHandle).ok_or_else(|| {
            SnapError::Corrupt(format!("timer handle {raw:?} names no pending event"))
        })
    }
}

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
        endpoints: HashMap<ConnId, EndpointId>,
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

#[derive(Debug)]
pub(crate) enum Event {
    TxComplete(ChannelId),
    Arrival {
        ch: ChannelId,
        pkt: Packet,
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// Content-derived ordering key for canonical mode: a function of *what*
/// the event is (kind, component ids, packet identity), never of when or
/// where it was scheduled. Two distinct events simultaneous at the same
/// instant get distinct keys (up to FNV collisions); the one same-key case
/// — a fault-duplicated packet's two identical `Arrival`s — commutes, so
/// the residual FIFO tie-break is unobservable.
fn canonical_key(ev: &Event) -> u64 {
    let h = FNV_OFFSET;
    match ev {
        Event::TxComplete(ch) => fnv(fnv(h, 0), u64::from(ch.0)),
        Event::Arrival { ch, pkt } => fnv(fnv(fnv(h, 1), u64::from(ch.0)), pkt.id.0),
        Event::HostProcess(node) => fnv(fnv(h, 2), u64::from(node.0)),
        Event::Timer { ep, token } => fnv(fnv(fnv(h, 3), u64::from(ep.0)), *token),
        Event::Start(ep) => fnv(fnv(h, 4), u64::from(ep.0)),
        Event::LinkUp(ch) => fnv(fnv(h, 5), u64::from(ch.0)),
    }
}

/// Tie key of `ev` in a world of the given mode: content-derived in
/// canonical mode, 0 (FIFO ties — the legacy order, bit for bit)
/// otherwise.
fn tie_key(canonical: bool, ev: &Event) -> u64 {
    if canonical {
        canonical_key(ev)
    } else {
        0
    }
}

/// One pending event as snapshots see it: due time, tie key, live queue
/// id (for the timer-handle translation) and encoded event.
pub(crate) type PendingBlob = (SimTime, u64, EventId, Vec<u8>);

/// Write a pending list — its length, then each event's due time and
/// encoded bytes — the one layout TDSN, TDSW and `World::state_hash`
/// share. Tie keys are left out: the restoring world derives them.
pub(crate) fn write_pending<'a>(
    w: &mut SnapWriter,
    pending: impl ExactSizeIterator<Item = &'a PendingBlob>,
) {
    w.write_u64(pending.len() as u64);
    for (at, _, _, blob) in pending {
        w.write_time(*at);
        w.write_bytes(blob);
    }
}

/// Read a list written by [`write_pending`], decoding every event.
pub(crate) fn read_pending(r: &mut SnapReader<'_>) -> Result<Vec<(SimTime, Event)>, SnapError> {
    let n = r.read_len()?;
    (0..n)
        .map(|_| {
            let at = r.read_time()?;
            Ok((at, r.read_section(load_event)?))
        })
        .collect()
}

fn save_event(ev: &Event, w: &mut SnapWriter) {
    match ev {
        Event::TxComplete(ch) => {
            w.write_u8(0);
            w.write_u32(ch.0);
        }
        Event::Arrival { ch, pkt } => {
            w.write_u8(1);
            w.write_u32(ch.0);
            pkt.save_state(w);
        }
        Event::HostProcess(node) => {
            w.write_u8(2);
            w.write_u32(node.0);
        }
        Event::Timer { ep, token } => {
            w.write_u8(3);
            w.write_u32(ep.0);
            w.write_u64(*token);
        }
        Event::Start(ep) => {
            w.write_u8(4);
            w.write_u32(ep.0);
        }
        Event::LinkUp(ch) => {
            w.write_u8(5);
            w.write_u32(ch.0);
        }
    }
}

fn load_event(r: &mut SnapReader<'_>) -> Result<Event, SnapError> {
    Ok(match r.read_u8()? {
        0 => Event::TxComplete(ChannelId(r.read_u32()?)),
        1 => Event::Arrival {
            ch: ChannelId(r.read_u32()?),
            pkt: Packet::load_state(r)?,
        },
        2 => Event::HostProcess(NodeId(r.read_u32()?)),
        3 => Event::Timer {
            ep: EndpointId(r.read_u32()?),
            token: r.read_u64()?,
        },
        4 => Event::Start(EndpointId(r.read_u32()?)),
        5 => Event::LinkUp(ChannelId(r.read_u32()?)),
        t => return Err(SnapError::Corrupt(format!("unknown event tag {t}"))),
    })
}

pub(crate) fn save_trace_record(rec: &TraceRecord, w: &mut SnapWriter) {
    w.write_time(rec.t);
    match &rec.ev {
        TraceEvent::Send { node, pkt } => {
            w.write_u8(0);
            w.write_u32(node.0);
            pkt.save_state(w);
        }
        TraceEvent::Enqueue {
            ch,
            pkt,
            qlen_after,
        } => {
            w.write_u8(1);
            w.write_u32(ch.0);
            pkt.save_state(w);
            w.write_u32(*qlen_after);
        }
        TraceEvent::Drop {
            ch,
            pkt,
            reason,
            qlen,
        } => {
            w.write_u8(2);
            w.write_u32(ch.0);
            pkt.save_state(w);
            w.write_u8(match reason {
                DropReason::BufferFull => 0,
                DropReason::Fault => 1,
                DropReason::EarlyDrop => 2,
                DropReason::LinkDown => 3,
            });
            w.write_u32(*qlen);
        }
        TraceEvent::TxStart { ch, pkt } => {
            w.write_u8(3);
            w.write_u32(ch.0);
            pkt.save_state(w);
        }
        TraceEvent::TxEnd {
            ch,
            pkt,
            qlen_after,
        } => {
            w.write_u8(4);
            w.write_u32(ch.0);
            pkt.save_state(w);
            w.write_u32(*qlen_after);
        }
        TraceEvent::Deliver { node, pkt } => {
            w.write_u8(5);
            w.write_u32(node.0);
            pkt.save_state(w);
        }
        TraceEvent::Proto { conn, node, ev } => {
            w.write_u8(6);
            w.write_u32(conn.0);
            w.write_u32(node.0);
            match ev {
                ProtoEvent::Cwnd { cwnd, ssthresh } => {
                    w.write_u8(0);
                    w.write_f64(*cwnd);
                    w.write_f64(*ssthresh);
                }
                ProtoEvent::LossDetected { seq, kind } => {
                    w.write_u8(1);
                    w.write_u64(*seq);
                    w.write_u8(match kind {
                        LossKind::DupAck => 0,
                        LossKind::Timeout => 1,
                    });
                }
                ProtoEvent::Retransmit { seq } => {
                    w.write_u8(2);
                    w.write_u64(*seq);
                }
                ProtoEvent::InOrder { seq } => {
                    w.write_u8(3);
                    w.write_u64(*seq);
                }
            }
        }
    }
}

pub(crate) fn load_trace_record(r: &mut SnapReader<'_>) -> Result<TraceRecord, SnapError> {
    let t = r.read_time()?;
    let ev = match r.read_u8()? {
        0 => TraceEvent::Send {
            node: NodeId(r.read_u32()?),
            pkt: Packet::load_state(r)?,
        },
        1 => TraceEvent::Enqueue {
            ch: ChannelId(r.read_u32()?),
            pkt: Packet::load_state(r)?,
            qlen_after: r.read_u32()?,
        },
        2 => TraceEvent::Drop {
            ch: ChannelId(r.read_u32()?),
            pkt: Packet::load_state(r)?,
            reason: match r.read_u8()? {
                0 => DropReason::BufferFull,
                1 => DropReason::Fault,
                2 => DropReason::EarlyDrop,
                3 => DropReason::LinkDown,
                k => return Err(SnapError::Corrupt(format!("unknown drop reason tag {k}"))),
            },
            qlen: r.read_u32()?,
        },
        3 => TraceEvent::TxStart {
            ch: ChannelId(r.read_u32()?),
            pkt: Packet::load_state(r)?,
        },
        4 => TraceEvent::TxEnd {
            ch: ChannelId(r.read_u32()?),
            pkt: Packet::load_state(r)?,
            qlen_after: r.read_u32()?,
        },
        5 => TraceEvent::Deliver {
            node: NodeId(r.read_u32()?),
            pkt: Packet::load_state(r)?,
        },
        6 => TraceEvent::Proto {
            conn: ConnId(r.read_u32()?),
            node: NodeId(r.read_u32()?),
            ev: match r.read_u8()? {
                0 => ProtoEvent::Cwnd {
                    cwnd: r.read_f64()?,
                    ssthresh: r.read_f64()?,
                },
                1 => ProtoEvent::LossDetected {
                    seq: r.read_u64()?,
                    kind: match r.read_u8()? {
                        0 => LossKind::DupAck,
                        1 => LossKind::Timeout,
                        k => return Err(SnapError::Corrupt(format!("unknown loss kind tag {k}"))),
                    },
                },
                2 => ProtoEvent::Retransmit { seq: r.read_u64()? },
                3 => ProtoEvent::InOrder { seq: r.read_u64()? },
                k => return Err(SnapError::Corrupt(format!("unknown proto event tag {k}"))),
            },
        },
        k => return Err(SnapError::Corrupt(format!("unknown trace event tag {k}"))),
    };
    Ok(TraceRecord { t, ev })
}

/// A versioned, self-contained capture of a [`World`]'s mutable state,
/// produced by [`World::snapshot`] and consumed by [`World::restore`].
///
/// The format is a flat little-endian byte stream behind a 4-byte magic
/// and a `u32` version; readers refuse unknown versions rather than
/// guessing. Structural configuration (topology, rates, capacities, fault
/// *plans*, endpoint parameters) is **not** captured — a snapshot is
/// applied onto a world freshly built from the same `(config, seed)`
/// pair, and [`World::restore`] cross-checks seed and component counts to
/// catch mismatched pairings early.
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// File/stream magic: "TDSN".
    pub const MAGIC: &'static [u8; 4] = b"TDSN";
    /// Current format version. Version 2 added the canonical-mode flag,
    /// per-endpoint packet-id counters, and per-event ordering keys
    /// inside the queue section. Version 3 added the model-checking
    /// fault overlay (injected outages + forced-drop counters) to each
    /// channel row, so restoring a branch snapshot reconstructs the
    /// branch's decisions without replaying them. Version 4 writes the
    /// queue as its clock, counters and pop-ordered pending list instead
    /// of its slab, and timer handles as indices into that list.
    pub const VERSION: u32 = 4;

    /// The raw snapshot bytes (header included).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Adopt raw bytes, validating the header and the structural
    /// fingerprint's basic sanity (the payload is validated lazily by
    /// [`World::restore`]). Declared component counts are bounded by the
    /// byte length — every component costs at least one payload byte — so
    /// corrupt counts fail here as a structured error instead of asking
    /// the restore path to allocate for them.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, SnapError> {
        check_header(&bytes, Self::MAGIC, Self::VERSION)?;
        Ok(Snapshot { bytes })
    }

    /// Write the snapshot to `path` atomically (temp file in the same
    /// directory, then rename), so a crash mid-write never leaves a
    /// truncated snapshot under the final name.
    pub fn write_to_file(&self, path: &Path) -> std::io::Result<()> {
        td_engine::write_atomic(path, &self.bytes)
    }

    /// Read and header-validate a snapshot file.
    pub fn read_from_file(path: &Path) -> std::io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Check a TDSN or TDSW header (magic, then `version`, the one this build
/// decodes) and that the fingerprint's component counts fit the bytes
/// after it: every component costs at least one payload byte.
pub(crate) fn check_header(bytes: &[u8], magic: &[u8; 4], version: u32) -> Result<(), SnapError> {
    let mut r = SnapReader::new(bytes);
    r.expect_header(magic, version..=version)?;
    let _seed = r.read_u64()?;
    let n_nodes = r.read_u32()? as u64;
    let n_channels = r.read_u32()? as u64;
    let n_endpoints = r.read_u32()? as u64;
    let declared = n_nodes + n_channels + n_endpoints;
    if declared > r.remaining() as u64 {
        return Err(SnapError::Corrupt(format!(
            "snapshot declares {declared} components but only {} payload byte(s) remain",
            r.remaining()
        )));
    }
    Ok(())
}

/// The simulation: topology, endpoints, clock, trace.
pub struct World {
    queue: EventQueue<Event>,
    nodes: Vec<Node>,
    hosts: HostArena,
    channels: ChannelArena,
    endpoints: Vec<Option<Box<dyn Endpoint>>>,
    ep_meta: Vec<EpMeta>,
    trace: Trace,
    rng: SimRng,
    seed: u64,
    audit: Audit,
    next_packet_id: u64,
    /// Canonical (shard-invariant) execution mode; see the module docs.
    /// Set before construction, never toggled afterwards.
    canonical: bool,
    /// Canonical-mode packet-id counters, one per endpoint.
    ep_packet_ctr: Vec<u64>,
    /// Sharded runs: `remote_node[n]` marks nodes owned by another shard.
    /// Empty (the default) means every node is local.
    remote_node: Vec<bool>,
    /// Sharded runs: cross-shard deliveries buffered for the executor,
    /// as `(arrival time, channel, packet)`.
    outbox: Vec<(SimTime, ChannelId, Packet)>,
    /// Streaming observers fed at every trace-emission site, **even when
    /// trace recording is disabled** — the trace-free analysis path.
    /// Not part of snapshots: observers are analysis state, not
    /// simulation state.
    observers: Vec<Box<dyn TraceObserver>>,
}

impl World {
    /// An empty world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        World {
            queue: EventQueue::new(),
            nodes: Vec::new(),
            hosts: HostArena::new(),
            channels: ChannelArena::new(),
            endpoints: Vec::new(),
            ep_meta: Vec::new(),
            trace: Trace::new(),
            rng: SimRng::new(seed),
            seed,
            audit: Audit::default(),
            next_packet_id: 0,
            canonical: false,
            ep_packet_ctr: Vec::new(),
            remote_node: Vec::new(),
            outbox: Vec::new(),
            observers: Vec::new(),
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
            kind: NodeKind::Host {
                uplink: None,
                endpoints: HashMap::new(),
            },
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
    /// the fixed-window runs).
    #[allow(clippy::too_many_arguments)]
    pub fn add_channel(
        &mut self,
        src: NodeId,
        dst: NodeId,
        rate: Rate,
        delay: SimDuration,
        capacity: Option<u32>,
        discipline: Box<dyn Discipline>,
        fault: FaultModel,
    ) -> ChannelId {
        assert!(
            capacity.is_none_or(|c| c >= 1),
            "a channel needs at least one buffer slot to transmit"
        );
        let id = ChannelId(self.channels.len() as u32);
        let rng = SimRng::new(self.seed).derive(FAULT_STREAM ^ u64::from(id.0));
        self.channels.push(
            src,
            dst,
            rate,
            delay,
            capacity,
            discipline,
            FaultPlan::from(fault),
            rng,
        );
        if let NodeKind::Host { uplink, .. } = &mut self.nodes[src.0 as usize].kind {
            assert!(
                uplink.is_none(),
                "host {} already has an uplink; hosts are single-homed",
                self.nodes[src.0 as usize].name
            );
            *uplink = Some(id);
        }
        id
    }

    /// Install a full fault plan on a channel, replacing whatever was
    /// configured at [`World::add_channel`] time. Validates the plan and
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
        self.channels.set_fault(ch.0 as usize, plan);
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
        let ci = ch.0 as usize;
        let cur = self.channels.forced_drops(ci);
        self.channels.set_forced_drops(ci, cur + n);
    }

    /// Enable DECbit-style congestion marking on a channel: packets whose
    /// acceptance pushes buffer occupancy above `threshold` get their CE
    /// bit set (see [`crate::Packet::ce`]).
    pub fn set_mark_threshold(&mut self, ch: ChannelId, threshold: Option<u32>) {
        self.channels.set_mark_threshold(ch.0 as usize, threshold);
    }

    /// Install a static route: packets for destination host `dst` arriving
    /// at switch `sw` leave on channel `ch`. The channel must originate at
    /// `sw`: a route onto another node's link would silently teleport
    /// packets and surface only as baffling conservation noise, so it is
    /// rejected at install time.
    pub fn set_route(&mut self, sw: NodeId, dst: NodeId, ch: ChannelId) {
        let src = self.channels.src(ch.0 as usize);
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
    fn host_ids(&self) -> Vec<u32> {
        (0..self.nodes.len() as u32)
            .filter(|&n| self.hosts.is_host(n as usize))
            .collect()
    }

    /// Compute shortest-path routes from every switch to every host by BFS
    /// (hop count metric; ties broken by channel id for determinism),
    /// replacing whatever routes the switches held. Runs are appended
    /// directly from the per-destination BFS — destinations arrive in
    /// ascending id order, so consecutive hosts sharing a next-hop extend
    /// the previous run in O(1) and the dense (switch × host) map is never
    /// materialized. Afterwards each fully-covering switch elides its
    /// majority channel into a default route (see the `route` module).
    pub fn compute_routes(&mut self) {
        let host_ids = self.host_ids();
        for node in &mut self.nodes {
            if let NodeKind::Switch { table } = &mut node.kind {
                table.clear();
            }
        }
        // Incoming-channel adjacency, built once: rescanning every channel
        // per BFS frontier node is quadratic and dominates route setup on
        // multi-thousand-node chains. Per-node lists hold channel ids in
        // ascending order, preserving the id-order tie-break exactly.
        let n = self.nodes.len();
        let mut incoming: Vec<Vec<(NodeId, ChannelId)>> = vec![Vec::new(); n];
        for ci in 0..self.channels.len() {
            let (cs, cd) = (self.channels.src(ci), self.channels.dst(ci));
            incoming[cd.0 as usize].push((cs, ChannelId(ci as u32)));
        }
        // BFS scratch shared across destinations: epoch-stamped visited
        // marks make the per-destination reset O(1) instead of O(nodes),
        // which matters when both factors are in the tens of thousands.
        let mut seen = vec![0u32; n];
        let mut via = vec![ChannelId(0); n];
        let mut frontier = VecDeque::new();
        let mut prev_host: Option<u32> = None;
        for (epoch, &dst) in (1u32..).zip(&host_ids) {
            seen[dst as usize] = epoch;
            frontier.push_back(NodeId(dst));
            while let Some(u) = frontier.pop_front() {
                // Channels in id order → deterministic tie-breaking.
                for &(cs, ch) in &incoming[u.0 as usize] {
                    if seen[cs.0 as usize] != epoch {
                        seen[cs.0 as usize] = epoch;
                        via[cs.0 as usize] = ch;
                        frontier.push_back(cs);
                    }
                }
            }
            for (ni, node) in self.nodes.iter_mut().enumerate() {
                if let NodeKind::Switch { table } = &mut node.kind {
                    if seen[ni] == epoch {
                        table.extend(prev_host, NodeId(dst), via[ni]);
                    }
                }
            }
            prev_host = Some(dst);
        }
        for node in &mut self.nodes {
            if let NodeKind::Switch { table } = &mut node.kind {
                table.elide_default(&host_ids);
                table.shrink();
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

    /// Attach a protocol endpoint to `host`, speaking connection `conn`
    /// with the endpoint on `peer`. Returns its id; schedule it with
    /// [`World::start_at`].
    pub fn attach(
        &mut self,
        host: NodeId,
        peer: NodeId,
        conn: ConnId,
        ep: Box<dyn Endpoint>,
    ) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        match &mut self.nodes[host.0 as usize].kind {
            NodeKind::Host { endpoints, .. } => {
                let prev = endpoints.insert(conn, id);
                assert!(
                    prev.is_none(),
                    "host {} already has an endpoint for {conn:?}",
                    self.nodes[host.0 as usize].name
                );
            }
            NodeKind::Switch { .. } => panic!("attach endpoint to a switch"),
        }
        self.endpoints.push(Some(ep));
        self.ep_meta.push(EpMeta { host, peer, conn });
        self.ep_packet_ctr.push(0);
        id
    }

    /// Schedule an endpoint's `on_start` at absolute time `t`.
    pub fn start_at(&mut self, ep: EndpointId, t: SimTime) {
        self.schedule_event(t, Event::Start(ep));
    }

    /// Schedule an event under the tie key of this world's mode.
    fn schedule_event(&mut self, at: SimTime, ev: Event) -> EventId {
        self.queue
            .schedule_keyed(at, tie_key(self.canonical, &ev), ev)
    }

    /// Replace the event queue with `pending` (pop order), each event
    /// keyed as [`World::schedule_event`] would key it, the clock at `now`
    /// and the queue's counters as given (see [`EventQueue::from_pending`]).
    /// Returns the events' new ids, in list order.
    pub(crate) fn rebuild_queue(
        &mut self,
        now: SimTime,
        dispatched: u64,
        scheduled: u64,
        peak_len: usize,
        pending: Vec<(SimTime, Event)>,
    ) -> Result<Vec<EventId>, SnapError> {
        let canonical = self.canonical;
        let keyed = (pending.into_iter()).map(|(at, ev)| (at, tie_key(canonical, &ev), ev));
        let (queue, ids) = EventQueue::from_pending(now, dispatched, scheduled, peak_len, keyed)?;
        self.queue = queue;
        Ok(ids)
    }

    // -- running ------------------------------------------------------------

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Run until no event at or before `t_end` remains. Events scheduled
    /// exactly at `t_end` do fire.
    pub fn run_until(&mut self, t_end: SimTime) {
        // Single bounded pop per iteration: the old peek-then-pop pair
        // (and its "peeked event exists" coupling) predates true
        // cancellation, when peeking had to mutate to discard tombstones.
        while let Some((t, ev)) = self.queue.pop_at_or_before(t_end) {
            self.dispatch(t, ev);
        }
    }

    /// Run until the event queue drains entirely.
    pub fn run_to_completion(&mut self) {
        while let Some((t, ev)) = self.queue.pop() {
            self.dispatch(t, ev);
        }
        let in_network = self.packets_in_network();
        self.audit.on_quiescent(self.now(), in_network);
    }

    /// Run until no event at or before `t_end` remains, under a watchdog
    /// that distinguishes the three ways a run can fail to make progress
    /// (see [`crate::StallKind`]). Returns how the run ended; a stalled
    /// run stops at the verdict instead of hanging.
    pub fn run_until_quiescent(&mut self, t_end: SimTime, cfg: &WatchdogConfig) -> RunOutcome {
        let stop_at = cfg
            .max_events
            .map(|m| self.queue.dispatched().saturating_add(m));
        let mut last_progress_t = self.now();
        let mut last_delivered = self.audit.delivered();
        loop {
            if stop_at.is_some_and(|s| self.queue.dispatched() >= s) {
                let note = format!(
                    "event budget exhausted with {} event(s) pending",
                    self.queue.len()
                );
                return RunOutcome::Stalled(self.stall_report(StallKind::BudgetExhausted, note));
            }
            match self.queue.pop_at_or_before(t_end) {
                Some((t, ev)) => {
                    self.dispatch(t, ev);
                    let delivered = self.audit.delivered();
                    if delivered != last_delivered {
                        last_delivered = delivered;
                        last_progress_t = t;
                    } else if t.saturating_since(last_progress_t) > cfg.progress_window {
                        // No delivery for a full window. Only a livelock if
                        // someone still has work to do; an idle tail (all
                        // endpoints finished, stray timers draining) is fine.
                        let stuck = self.stuck_endpoints();
                        if stuck.is_empty() {
                            last_progress_t = t;
                        } else {
                            let note = format!(
                                "no delivery since t={:.6}s (window {:.3}s)",
                                last_progress_t.as_secs_f64(),
                                cfg.progress_window.as_secs_f64()
                            );
                            let mut report = self.stall_report(StallKind::Livelock, note);
                            report.stuck = stuck;
                            self.write_post_mortem(cfg, &mut report);
                            return RunOutcome::Stalled(report);
                        }
                    }
                }
                None => {
                    if !self.queue.is_empty() {
                        // Events remain beyond t_end: the normal end of a
                        // fixed-duration run.
                        return RunOutcome::TimeBound;
                    }
                    let in_network = self.packets_in_network();
                    self.audit.on_quiescent(self.now(), in_network);
                    let stuck = self.stuck_endpoints();
                    if stuck.is_empty() {
                        return RunOutcome::Quiescent;
                    }
                    let note = format!("event queue empty, {} endpoint(s) unfinished", stuck.len());
                    let mut report = self.stall_report(StallKind::Deadlock, note);
                    report.stuck = stuck;
                    self.write_post_mortem(cfg, &mut report);
                    return RunOutcome::Stalled(report);
                }
            }
        }
    }

    /// Packets currently buffered inside the network: channel queues,
    /// in-service slots, and host processing queues. (In-flight `Arrival`
    /// events are not counted — they are accounted by the event queue, and
    /// this is only read when it has drained.)
    fn packets_in_network(&self) -> u64 {
        let channel_pkts: u64 = (0..self.channels.len())
            .map(|ci| u64::from(self.channels.occupancy(ci)))
            .sum();
        channel_pkts + self.hosts.queued_packets()
    }

    /// Endpoints that self-report unfinished work, with their state
    /// summaries (see [`Endpoint::progress`]).
    fn stuck_endpoints(&self) -> Vec<StuckConn> {
        self.endpoints
            .iter()
            .zip(&self.ep_meta)
            .filter_map(|(ep, meta)| {
                let p = ep.as_ref()?.progress();
                if p.finished == Some(false) {
                    Some(StuckConn {
                        conn: meta.conn.0,
                        host: meta.host,
                        detail: p.detail,
                    })
                } else {
                    None
                }
            })
            .collect()
    }

    fn stall_report(&self, kind: StallKind, note: String) -> StallReport {
        StallReport {
            kind,
            at: self.now(),
            events_dispatched: self.queue.dispatched(),
            note,
            stuck: Vec::new(),
            post_mortem: None,
        }
    }

    /// Dump a post-mortem snapshot of this (stalled) world into the
    /// watchdog's configured directory, recording the path in the report.
    /// The filename carries the stall kind and *simulation* time, so
    /// repeated deterministic runs overwrite one file instead of
    /// accumulating wall-clock-named copies. I/O failure is swallowed:
    /// a post-mortem must never turn a diagnosed stall into a panic.
    fn write_post_mortem(&self, cfg: &WatchdogConfig, report: &mut StallReport) {
        let Some(dir) = &cfg.post_mortem_dir else {
            return;
        };
        let kind = match report.kind {
            StallKind::Deadlock => "deadlock",
            StallKind::Livelock => "livelock",
            StallKind::BudgetExhausted => "budget",
        };
        let path = dir.join(format!(
            "postmortem-{kind}-t{}.tdsnap",
            report.at.as_nanos()
        ));
        if std::fs::create_dir_all(dir).is_ok() && self.snapshot().write_to_file(&path).is_ok() {
            report.post_mortem = Some(path);
        }
    }

    /// Total events dispatched so far.
    pub fn events_dispatched(&self) -> u64 {
        self.queue.dispatched()
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
    pub fn set_window_bound(&mut self, conn: ConnId, maxwnd: f64) {
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
        self.channels.stats(ch.0 as usize)
    }

    /// Fraction of `[SimTime::ZERO, now]` the channel's transmitter was
    /// busy. (For windowed utilization use `td-analysis` over the trace.)
    pub fn utilization(&self, ch: ChannelId) -> f64 {
        let now = self.now();
        if now == SimTime::ZERO {
            return 0.0;
        }
        let ci = ch.0 as usize;
        let mut busy = self.channels.stats(ci).busy;
        // Count the in-progress transmission up to `now`.
        if let Some((_, started)) = self.channels.in_service(ci) {
            busy += now.saturating_since(*started);
        }
        busy.as_secs_f64() / now.as_secs_f64()
    }

    // -- snapshot / restore -------------------------------------------------

    /// Capture every piece of mutable simulation state: the clock, the
    /// event queue's counters and its pending events in pop order, all RNG
    /// streams, per-channel occupancy and fault progress, host
    /// processing queues, every endpoint's protocol state, the trace, and
    /// the auditor. Restoring onto a world freshly built from the same
    /// `(config, seed)` and running to the end is byte-identical to never
    /// having stopped (see [`World::restore`]).
    ///
    /// Must be called between events — i.e. from outside the event loop,
    /// never from inside an endpoint callback.
    pub fn snapshot(&self) -> Snapshot {
        let mut w = SnapWriter::with_header(Snapshot::MAGIC, Snapshot::VERSION);
        self.write_state(&mut w);
        meter::add(Counter::SnapshotsTaken, 1);
        Snapshot {
            bytes: w.into_bytes(),
        }
    }

    /// Stream the full snapshot encoding into `w`.
    fn write_state(&self, w: &mut SnapWriter) {
        self.write_fingerprint(w);
        // Engine state: the clock, the queue's counters and pending events,
        // the shared stream, and the packet-id counters.
        w.write_time(self.now());
        w.write_u64(self.queue.dispatched());
        w.write_u64(self.queue.scheduled());
        w.write_u64(self.queue.peak_len() as u64);
        let pending = self.pending_event_blobs();
        write_pending(w, pending.iter());
        w.write_rng(&self.rng);
        w.write_u64(self.next_packet_id);
        w.write_bool(self.canonical);
        for &ctr in &self.ep_packet_ctr {
            w.write_u64(ctr);
        }
        // Trace.
        w.write_bool(self.trace.is_enabled());
        let records = self.trace.records();
        w.write_u64(records.len() as u64);
        for rec in records {
            save_trace_record(rec, w);
        }
        // Auditor.
        self.audit.save_state(w);
        // Per-host receive-path state (switches carry none).
        for ni in 0..self.nodes.len() {
            if self.hosts.is_host(ni) {
                self.save_host_row(ni, w);
            }
        }
        // Per-channel mutable state. The discipline gets its own section
        // so a save/load asymmetry in one implementation fails at its own
        // boundary.
        for ci in 0..self.channels.len() {
            self.save_channel_row(ci, w);
        }
        self.save_endpoint_rows(&pending, w);
    }

    /// Serialize every endpoint, one section each (empty for a detached
    /// slot, which can only be observed if snapshot were called
    /// mid-dispatch — the symmetric read keeps even that case consistent),
    /// timer handles written as indices into `pending`.
    fn save_endpoint_rows(&self, pending: &[PendingBlob], w: &mut SnapWriter) {
        let mut index = (pending.iter().enumerate())
            .map(|(i, &(_, _, id, _))| (id, i as u64))
            .collect();
        with_table(&HANDLE_INDEX, &mut index, || {
            for i in 0..self.endpoints.len() {
                self.save_endpoint_row(i, w);
            }
        });
    }

    /// A 64-bit FNV-1a hash of the world's *canonical* state encoding,
    /// streamed through a hashing [`SnapWriter`] so no snapshot buffer is
    /// ever materialized. Two worlds with equal hashes (collisions aside)
    /// evolve identically under identical future inputs; the model
    /// checker uses this for visited-state deduplication.
    ///
    /// The canonical encoding differs from the snapshot encoding by
    /// excluding state that is pure *observation* — it records what
    /// happened but never feeds back into behavior, so keeping it would
    /// only split states that are behaviorally one:
    ///
    /// * the trace (flag and records);
    /// * the event queue's dispatch/schedule/peak counters — pending
    ///   events are written in pop order, as in the snapshot, which
    ///   captures everything dispatch can see, including FIFO
    ///   tie-breaking, and timer handles as indices into that list;
    /// * per-channel throughput counters ([`ChannelStats`]);
    /// * the audit's absolute injected/delivered/dropped totals — their
    ///   *balance* (packets in the network) is behavioral and is hashed;
    ///   the recorded-violation list is reporting, not state;
    /// * injected model-checking outages that have fully expired (their
    ///   window can no longer cover or cut anything).
    ///
    /// The hash still covers the codec header, so a snapshot version bump
    /// automatically invalidates any persisted dedup set.
    pub fn state_hash(&self) -> u64 {
        let mut w = SnapWriter::hashing_with_header(Snapshot::MAGIC, Snapshot::VERSION);
        self.write_fingerprint(&mut w);
        let now = self.now();
        w.write_time(now);
        let pending = self.pending_event_blobs();
        write_pending(&mut w, pending.iter());
        w.write_rng(&self.rng);
        w.write_u64(self.next_packet_id);
        w.write_bool(self.canonical);
        for &ctr in &self.ep_packet_ctr {
            w.write_u64(ctr);
        }
        self.audit.write_canonical(&mut w);
        for ni in 0..self.nodes.len() {
            if self.hosts.is_host(ni) {
                self.save_host_row(ni, &mut w);
            }
        }
        for ci in 0..self.channels.len() {
            // The behavioral subset of `save_channel_row`: in-service
            // slot, burst phase, private RNG, discipline, and the live
            // part of the mc overlay — no throughput counters.
            match self.channels.in_service(ci) {
                Some((pkt, started)) => {
                    w.write_bool(true);
                    pkt.save_state(&mut w);
                    w.write_time(*started);
                }
                None => w.write_bool(false),
            }
            w.write_bool(
                self.channels
                    .fault(ci)
                    .burst
                    .as_ref()
                    .is_some_and(|b| b.in_bad()),
            );
            w.write_rng(self.channels.rng(ci));
            let mut dw = SnapWriter::new();
            self.channels.discipline(ci).save_state(&mut dw);
            w.write_section(dw);
            let live: Vec<&Outage> = self
                .channels
                .injected_outages(ci)
                .iter()
                .filter(|o| o.up > now)
                .collect();
            w.write_u64(live.len() as u64);
            for o in live {
                w.write_time(o.down);
                w.write_time(o.up);
            }
            w.write_u32(self.channels.forced_drops(ci));
        }
        self.save_endpoint_rows(&pending, &mut w);
        w.finish_hash()
    }

    /// Apply a [`Snapshot`] onto this world, which must have been freshly
    /// built from the same `(config, seed)` pair as the world that was
    /// captured. The seed and component counts are cross-checked; queue,
    /// clock, RNG streams, channel and host occupancy, endpoint state,
    /// trace, and auditor are all replaced wholesale. After a successful
    /// restore, continuing the run is byte-identical (trace, report,
    /// golden hash) to the uninterrupted original.
    ///
    /// On error the world is left in an unspecified half-restored state
    /// and must be discarded; nothing outside `self` is touched. Note the
    /// watchdog's livelock progress window restarts at the restore point
    /// — the window's loop-local bookkeeping is intentionally not part of
    /// the world (a resumed run gets a fresh grace period, never a
    /// spurious verdict).
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapError> {
        let mut r = self.open_snapshot(snap.as_bytes(), Snapshot::MAGIC, Snapshot::VERSION)?;
        // The queue is replaced wholesale — it carries the clock and any
        // pending `LinkUp` wake-ups the builder already scheduled, so
        // nothing is double-scheduled.
        let now = r.read_time()?;
        let (dispatched, scheduled) = (r.read_u64()?, r.read_u64()?);
        let peak_len = r.read_u64()? as usize;
        let pending = read_pending(&mut r)?;
        let ids = self.rebuild_queue(now, dispatched, scheduled, peak_len, pending)?;
        self.rng = r.read_rng()?;
        self.next_packet_id = r.read_u64()?;
        let canonical = r.read_bool()?;
        if canonical != self.canonical {
            return Err(SnapError::Mismatch(format!(
                "snapshot was taken in {} mode, this world is in {} mode",
                if canonical { "canonical" } else { "serial" },
                if self.canonical {
                    "canonical"
                } else {
                    "serial"
                },
            )));
        }
        for ctr in &mut self.ep_packet_ctr {
            *ctr = r.read_u64()?;
        }
        let enabled = r.read_bool()?;
        let n_rec = r.read_len()?;
        let mut records = Vec::with_capacity(n_rec);
        for _ in 0..n_rec {
            records.push(load_trace_record(&mut r)?);
        }
        self.trace.set_enabled(enabled);
        self.trace.set_records(records);
        self.audit.load_state(&mut r)?;
        for ni in 0..self.nodes.len() {
            if self.hosts.is_host(ni) {
                self.load_host_row(ni, &mut r)?;
            }
        }
        for ci in 0..self.channels.len() {
            self.load_channel_row(ci, &mut r)?;
        }
        let mut ids = ids.into_iter().map(Some).collect();
        with_table(&HANDLE_IDS, &mut ids, || {
            (0..self.endpoints.len()).try_for_each(|i| self.load_endpoint_row(i, &mut r))
        })?;
        r.finish()?;
        meter::add(Counter::SnapshotsRestored, 1);
        Ok(())
    }

    /// Write the structural fingerprint every snapshot of this world opens
    /// with — seed, then node, channel and endpoint counts — for
    /// [`World::open_snapshot`] to cross-check.
    pub(crate) fn write_fingerprint(&self, w: &mut SnapWriter) {
        w.write_u64(self.seed);
        w.write_u32(self.nodes.len() as u32);
        w.write_u32(self.channels.len() as u32);
        w.write_u32(self.endpoints.len() as u32);
    }

    /// A reader over snapshot `bytes` past their header and fingerprint,
    /// once both check out: a seed or component count other than this
    /// world's is [`SnapError::Mismatch`].
    pub(crate) fn open_snapshot<'a>(
        &self,
        bytes: &'a [u8],
        magic: &[u8; 4],
        version: u32,
    ) -> Result<SnapReader<'a>, SnapError> {
        let mut r = SnapReader::new(bytes);
        r.expect_header(magic, version..=version)?;
        let seed = r.read_u64()?;
        if seed != self.seed {
            return Err(SnapError::Mismatch(format!(
                "snapshot was taken with seed {seed}, this world uses {}",
                self.seed
            )));
        }
        for (what, got, want) in [
            ("nodes", r.read_u32()?, self.nodes.len() as u32),
            ("channels", r.read_u32()?, self.channels.len() as u32),
            ("endpoints", r.read_u32()?, self.endpoints.len() as u32),
        ] {
            if got != want {
                return Err(SnapError::Mismatch(format!(
                    "snapshot has {got} {what}, this world has {want}"
                )));
            }
        }
        Ok(r)
    }

    /// Serialize one host's receive-path state (processing flag + queue).
    pub(crate) fn save_host_row(&self, ni: usize, w: &mut SnapWriter) {
        w.write_bool(self.hosts.proc_busy(ni));
        let q = self.hosts.proc_queue(ni);
        w.write_u64(q.len() as u64);
        for p in q {
            p.save_state(w);
        }
    }

    /// Restore one host's receive-path state.
    pub(crate) fn load_host_row(
        &mut self,
        ni: usize,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let busy = r.read_bool()?;
        self.hosts.set_proc_busy(ni, busy);
        let n = r.read_len()?;
        let q = self.hosts.proc_queue_mut(ni);
        q.clear();
        for _ in 0..n {
            q.push_back(Packet::load_state(r)?);
        }
        Ok(())
    }

    /// Serialize one channel's mutable state (in-service slot, burst-loss
    /// phase, private RNG, counters, and the discipline's own section).
    pub(crate) fn save_channel_row(&self, ci: usize, w: &mut SnapWriter) {
        match self.channels.in_service(ci) {
            Some((pkt, started)) => {
                w.write_bool(true);
                pkt.save_state(w);
                w.write_time(*started);
            }
            None => w.write_bool(false),
        }
        w.write_bool(
            self.channels
                .fault(ci)
                .burst
                .as_ref()
                .is_some_and(|b| b.in_bad()),
        );
        w.write_rng(self.channels.rng(ci));
        let stats = self.channels.stats(ci);
        w.write_dur(stats.busy);
        w.write_u64(stats.tx_packets);
        w.write_u64(stats.tx_bytes);
        w.write_u64(stats.drops);
        w.write_u64(stats.enqueued);
        let mut dw = SnapWriter::new();
        self.channels.discipline(ci).save_state(&mut dw);
        w.write_section(dw);
        // v3: model-checking fault overlay. Always empty outside mc runs,
        // so ordinary snapshots cost two fixed-size fields per channel.
        let inj = self.channels.injected_outages(ci);
        w.write_u64(inj.len() as u64);
        for o in inj {
            w.write_time(o.down);
            w.write_time(o.up);
        }
        w.write_u32(self.channels.forced_drops(ci));
    }

    /// Restore one channel's mutable state.
    pub(crate) fn load_channel_row(
        &mut self,
        ci: usize,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let in_service = if r.read_bool()? {
            let pkt = Packet::load_state(r)?;
            let started = r.read_time()?;
            Some((pkt, started))
        } else {
            None
        };
        self.channels.set_in_service(ci, in_service);
        let in_bad = r.read_bool()?;
        match &mut self.channels.fault_mut(ci).burst {
            Some(b) => b.set_in_bad(in_bad),
            None if in_bad => {
                return Err(SnapError::Mismatch(
                    "snapshot carries burst-loss state for a channel without a \
                     burst process"
                        .into(),
                ))
            }
            None => {}
        }
        self.channels.set_rng(ci, r.read_rng()?);
        let stats = self.channels.stats_mut(ci);
        stats.busy = r.read_dur()?;
        stats.tx_packets = r.read_u64()?;
        stats.tx_bytes = r.read_u64()?;
        stats.drops = r.read_u64()?;
        stats.enqueued = r.read_u64()?;
        r.read_section(|r| self.channels.discipline_mut(ci).load_state(r))?;
        let n_inj = r.read_len()?;
        let mut inj = Vec::with_capacity(n_inj);
        for _ in 0..n_inj {
            let down = r.read_time()?;
            let up = r.read_time()?;
            inj.push(Outage { down, up });
        }
        self.channels.set_injected_outages(ci, inj);
        let forced = r.read_u32()?;
        self.channels.set_forced_drops(ci, forced);
        Ok(())
    }

    /// Serialize one endpoint as a length-prefixed section.
    pub(crate) fn save_endpoint_row(&self, i: usize, w: &mut SnapWriter) {
        let mut ew = SnapWriter::new();
        if let Some(ep) = &self.endpoints[i] {
            ep.save_state(&mut ew);
        }
        w.write_section(ew);
    }

    /// Restore one endpoint from its length-prefixed section.
    pub(crate) fn load_endpoint_row(
        &mut self,
        i: usize,
        r: &mut SnapReader<'_>,
    ) -> Result<(), SnapError> {
        let ep = &mut self.endpoints[i];
        r.read_section(|r| match ep {
            Some(ep) => ep.load_state(r),
            None => Ok(()),
        })
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
        (
            self.channels.src(ch.0 as usize),
            self.channels.dst(ch.0 as usize),
        )
    }

    /// Propagation delay of a channel.
    pub fn channel_delay(&self, ch: ChannelId) -> SimDuration {
        self.channels.delay(ch.0 as usize)
    }

    // -- shard support (crate-internal; see `crate::shard`) -----------------

    /// Switch this world into canonical (shard-invariant) execution mode.
    /// Must precede all scheduling: events scheduled beforehand would
    /// carry key 0 and order differently from a canonically keyed rebuild.
    pub(crate) fn set_canonical(&mut self) {
        assert!(
            self.queue.is_empty() && self.queue.dispatched() == 0,
            "canonical mode must be set before anything is scheduled"
        );
        self.canonical = true;
    }

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
    /// run state is excluded, and discipline *parameters* (e.g. RED
    /// thresholds) are not visible through the trait, so a builder varying
    /// only those still slips through.
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
            h = fnv(h, u64::from(self.channels.src(ci).0));
            h = fnv(h, u64::from(self.channels.dst(ci).0));
            h = fnv(h, self.channels.rate(ci).bits_per_sec());
            h = fnv(h, self.channels.delay(ci).as_nanos());
            h = fold_opt_u32(h, self.channels.capacity(ci));
            h = fold_opt_u32(h, self.channels.mark_threshold(ci));
            h = fold_bytes(h, self.channels.discipline(ci).name().as_bytes());
            let fp = self.channels.fault(ci);
            h = fnv(h, fp.model.drop_prob.to_bits());
            h = fnv(h, fp.model.corrupt_prob.to_bits());
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

    pub(crate) fn is_host_node(&self, ni: usize) -> bool {
        self.hosts.is_host(ni)
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
        self.audit.set_distributed();
    }

    /// The shard that must execute `ev`: the shard owning the node whose
    /// state the event mutates first.
    pub(crate) fn event_shard(&self, node_shard: &[u32], ev: &Event) -> u32 {
        let node = match ev {
            // Transmitter-side events live with the channel, i.e. its src.
            Event::TxComplete(ch) | Event::LinkUp(ch) => self.channels.src(ch.0 as usize),
            Event::Arrival { ch, .. } => self.channels.dst(ch.0 as usize),
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
            }
        }
    }

    /// Dispatch every event strictly before `bound` (the shard's current
    /// safe horizon).
    pub(crate) fn run_before(&mut self, bound: SimTime) {
        while let Some((t, ev)) = self.queue.pop_before(bound) {
            self.dispatch(t, ev);
        }
    }

    /// Earliest pending local event, if any.
    pub(crate) fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// Take the buffered cross-shard deliveries.
    pub(crate) fn take_outbox(&mut self) -> Vec<(SimTime, ChannelId, Packet)> {
        std::mem::take(&mut self.outbox)
    }

    /// Accept a delivery exported by another shard (the arrival side of a
    /// cut channel). `at` is never in this shard's past: the sender's
    /// horizon protocol guarantees `at ≥ lb_sender + delay ≥ now`.
    pub(crate) fn inject_arrival(&mut self, at: SimTime, ch: ChannelId, pkt: Packet) {
        self.schedule_event(at, Event::Arrival { ch, pkt });
    }

    /// Advance the clock to `t` (idle shard catching up to the run's end
    /// time so every shard agrees on `now`).
    pub(crate) fn advance_clock(&mut self, t: SimTime) {
        self.queue.advance_clock(t);
    }

    /// The pending event set in pop order, each event encoded to bytes —
    /// the one list TDSN, TDSW and [`World::state_hash`] write. The queue
    /// id correlates entries with timer handles held by endpoints.
    pub(crate) fn pending_event_blobs(&self) -> Vec<PendingBlob> {
        self.queue
            .pending_entries()
            .into_iter()
            .map(|(at, key, id, ev)| {
                let mut w = SnapWriter::new();
                save_event(ev, &mut w);
                (at, key, id, w.into_bytes())
            })
            .collect()
    }

    // -- internals ----------------------------------------------------------

    fn dispatch(&mut self, t: SimTime, ev: Event) {
        // Wall-clock budget poll for request-serving workers; a no-op
        // unless the current thread armed a deadline (see `deadline`).
        crate::deadline::tick(t, self.queue.dispatched());
        match ev {
            Event::TxComplete(ch) => self.tx_complete(t, ch),
            Event::Arrival { ch, pkt } => self.arrival(t, ch, pkt),
            Event::HostProcess(node) => self.host_process(t, node),
            Event::Timer { ep, token } => self.with_endpoint(ep, |e, ctx| e.on_timer(ctx, token)),
            Event::Start(ep) => self.with_endpoint(ep, |e, ctx| e.on_start(ctx)),
            Event::LinkUp(ch) => self.maybe_start_tx(t, ch),
        }
    }

    /// Offer a packet to a channel's buffer, applying capacity + discipline.
    fn offer(&mut self, t: SimTime, ch_id: ChannelId, mut pkt: Packet) {
        let canonical = self.canonical;
        let ch = self.channels.get_mut(ch_id.0 as usize);
        let occupancy = ch.occupancy();
        let capacity = ch.capacity;
        // Canonical mode keeps queue-discipline randomness on the
        // channel's private stream: the draw sequence then depends only on
        // the traffic through this channel, not on how events from other
        // shards interleave with it. Serial mode keeps the legacy shared
        // stream, preserving historical traces bit for bit.
        let rng: &mut SimRng = if canonical { ch.rng } else { &mut self.rng };
        // Active queue management (RED) may discard before the buffer is
        // physically full.
        if !ch.discipline.admit(&pkt, occupancy, rng) {
            ch.stats.drops += 1;
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
        if ch.mark_threshold.is_some_and(|k| occupancy + 1 > k) {
            pkt.ce = true;
        }
        if capacity.is_some_and(|cap| occupancy >= cap) {
            match ch.discipline.select_victim(&pkt, rng) {
                Victim::Arriving => {
                    ch.stats.drops += 1;
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
                    ch.stats.drops += 1;
                    ch.discipline.enqueue(pkt);
                    ch.stats.enqueued += 1;
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
            ch.discipline.enqueue(pkt);
            ch.stats.enqueued += 1;
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
            if ch.in_service.is_some() || ch.link_down(t) {
                None
            } else if let Some(pkt) = ch.discipline.dequeue() {
                *ch.in_service = Some((pkt, t));
                Some((pkt, ch.rate.transmission_time(pkt.size)))
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
            let (pkt, started) = ch.in_service.take().expect("TxComplete without tx");
            ch.stats.busy += t.since(started);
            ch.stats.tx_packets += 1;
            ch.stats.tx_bytes += pkt.size as u64;
            let qlen_after = ch.occupancy();
            // A pending forced drop (model-checker branch decision) wins
            // outright and consumes no randomness — the channel's private
            // stream stays aligned with the sibling branch that delivered.
            let outcome = if *ch.forced_drops > 0 {
                *ch.forced_drops -= 1;
                FaultOutcome::Dropped(FaultKind::Dropped)
            } else {
                // Fault decisions draw only from the channel's private
                // stream, never from the world's shared RNG.
                let mut outcome = ch.fault.decide(t, ch.delay, &mut *ch.rng);
                // An injected outage cuts surviving transmissions the same
                // way a static outage window does.
                if let FaultOutcome::Deliver { extra_delay, .. } = outcome {
                    let arrival = t + ch.delay + extra_delay;
                    if ch.injected_outages.iter().any(|o| o.cuts(t, arrival)) {
                        outcome = FaultOutcome::Dropped(FaultKind::LinkDown);
                    }
                }
                outcome
            };
            (pkt, qlen_after, ch.delay, outcome)
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
                    FaultKind::Dropped | FaultKind::Corrupted => DropReason::Fault,
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
        let dst = self.channels.dst(ch_id.0 as usize);
        if self
            .remote_node
            .get(dst.0 as usize)
            .copied()
            .unwrap_or(false)
        {
            self.outbox.push((arrival, ch_id, pkt));
        } else {
            self.schedule_event(arrival, Event::Arrival { ch: ch_id, pkt });
        }
    }

    fn arrival(&mut self, t: SimTime, ch_id: ChannelId, pkt: Packet) {
        let node_id = self.channels.dst(ch_id.0 as usize);
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
        let ep = match &self.nodes[ni].kind {
            NodeKind::Host { endpoints, .. } => *endpoints.get(&pkt.conn).unwrap_or_else(|| {
                panic!(
                    "host {} has no endpoint for {:?}",
                    self.nodes[ni].name, pkt.conn
                )
            }),
            NodeKind::Switch { .. } => unreachable!(),
        };
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
        let meta = &self.world.ep_meta[self.ep.0 as usize];
        // Canonical mode draws ids from the endpoint's own counter: the
        // id then names (endpoint, nth send), the same on any sharding.
        // A serial world keeps the legacy global counter.
        let id = if self.world.canonical {
            let ctr = &mut self.world.ep_packet_ctr[self.ep.0 as usize];
            let id = PacketId(((u64::from(self.ep.0) + 1) << 40) | *ctr);
            *ctr += 1;
            id
        } else {
            let id = PacketId(self.world.next_packet_id);
            self.world.next_packet_id += 1;
            id
        };
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
            NodeKind::Host { uplink, .. } => uplink.unwrap_or_else(|| {
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

    /// Deterministic randomness (shared world stream). Not
    /// shard-invariant: an endpoint drawing from the shared stream makes
    /// its run depend on global event interleaving, so sharded workloads
    /// must use endpoints that never call this (the TCP machines don't).
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.world.rng
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::discipline::DropTail;

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
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
        let c10 = w.add_channel(
            h1,
            h0,
            rate,
            delay,
            capacity,
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
        (w, h0, h1, c01, c10)
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
                Box::new(DropTail::new()),
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
                Box::new(DropTail::new()),
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
                Box::new(DropTail::new()),
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
                Box::new(DropTail::new()),
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
        w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            Box::new(DropTail::new()),
            FaultModel::lossy(1.0),
        );
        w.add_channel(
            h1,
            h0,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            Box::new(DropTail::new()),
            FaultModel::NONE,
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
            Box::new(DropTail::new()),
            FaultModel::NONE,
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
}

#[cfg(test)]
mod budget_tests {
    use super::*;
    use crate::discipline::DropTail;

    /// An endpoint that reschedules itself forever with zero delay.
    struct Spinner;
    impl Endpoint for Spinner {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
    }

    #[test]
    fn bounded_run_stops_a_spinner() {
        let mut w = World::new(1);
        let h0 = w.add_host("a", SimDuration::ZERO);
        let h1 = w.add_host("b", SimDuration::ZERO);
        w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::ZERO,
            None,
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
        let ep = w.attach(h0, h1, ConnId(0), Box::new(Spinner));
        w.start_at(ep, SimTime::ZERO);
        let cfg = WatchdogConfig {
            max_events: Some(10_000),
            ..WatchdogConfig::default()
        };
        let outcome = w.run_until_quiescent(SimTime::from_secs(1), &cfg);
        let report = outcome.stall().expect("spinner must exhaust the budget");
        assert_eq!(report.kind, StallKind::BudgetExhausted);
        assert!(w.events_dispatched() >= 10_000);
        assert!(w.events_dispatched() < 10_100, "stops promptly");
    }

    #[test]
    fn budget_exhausted_mid_outage_reports_budget_not_deadlock() {
        // The forward link is down from t=0 to t=10s; the pending LinkUp
        // event keeps the queue non-empty, so running out of event budget
        // mid-outage must be reported as "budget exhausted" — the run was
        // cut short, nothing is provably stuck.
        let mut w = World::new(1);
        let h0 = w.add_host("a", SimDuration::ZERO);
        let h1 = w.add_host("b", SimDuration::from_micros(100));
        let c01 = w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
        w.add_channel(
            h1,
            h0,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
        w.set_fault_plan(
            c01,
            FaultPlan::with_outages(vec![crate::fault::Outage {
                down: SimTime::ZERO,
                up: SimTime::from_secs(10),
            }]),
        )
        .unwrap();
        let spinner = w.attach(h0, h1, ConnId(0), Box::new(Spinner));
        w.start_at(spinner, SimTime::ZERO);
        let cfg = WatchdogConfig {
            max_events: Some(100),
            ..WatchdogConfig::default()
        };
        let outcome = w.run_until_quiescent(SimTime::from_secs(20), &cfg);
        let report = outcome.stall().expect("budget must be exhausted");
        assert_eq!(report.kind, StallKind::BudgetExhausted);
        assert!(
            report.render().contains("budget exhausted"),
            "{}",
            report.render()
        );
        assert!(w.now() < SimTime::from_secs(10), "verdict lands mid-outage");
    }

    #[test]
    fn bounded_run_reaches_time_bound_normally() {
        let mut w = World::new(1);
        let h0 = w.add_host("a", SimDuration::ZERO);
        let h1 = w.add_host("b", SimDuration::ZERO);
        w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::ZERO,
            None,
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
        let cfg = WatchdogConfig {
            max_events: Some(10),
            ..WatchdogConfig::default()
        };
        let outcome = w.run_until_quiescent(SimTime::from_secs(1), &cfg);
        assert!(
            matches!(outcome, RunOutcome::Quiescent),
            "an empty world ends quiescent within any budget"
        );
    }
}

#[cfg(test)]
mod fault_tests {
    use super::tests::{direct_world, Acker, Blaster};
    use super::*;
    use crate::discipline::{DropTail, RandomDrop};
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
    /// that draws victims from the *shared* world RNG. If fault draws
    /// leaked onto the shared stream, B's victim choices would shift.
    fn two_pair_trace(plan: FaultPlan) -> (Vec<TraceRecord>, usize) {
        let mut w = World::new(11);
        let rate = Rate::from_kbps(50);
        let delay = SimDuration::from_millis(10);
        let proc = SimDuration::from_micros(100);
        let a0 = w.add_host("A0", proc);
        let a1 = w.add_host("A1", proc);
        let b0 = w.add_host("B0", proc);
        let b1 = w.add_host("B1", proc);
        let ca = w.add_channel(
            a0,
            a1,
            rate,
            delay,
            None,
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
        w.add_channel(
            a1,
            a0,
            rate,
            delay,
            None,
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
        w.add_channel(
            b0,
            b1,
            rate,
            delay,
            Some(2),
            Box::new(RandomDrop::new()),
            FaultModel::NONE,
        );
        w.add_channel(
            b1,
            b0,
            rate,
            delay,
            None,
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
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
        let lossy = FaultPlan::from(FaultModel::lossy(0.5));
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
    use super::tests::{direct_world, Acker, Blaster};
    use super::*;
    use crate::trace::TraceEvent;

    /// Five 500 B packets over a clean 50 Kbps / 10 ms link.
    fn blaster_world() -> (World, EndpointId, ChannelId) {
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

    fn data_seen(w: &World, snk: EndpointId) -> u64 {
        w.endpoint(snk)
            .unwrap()
            .as_any()
            .downcast_ref::<Acker>()
            .unwrap()
            .data_seen
    }

    #[test]
    fn state_hash_is_trace_invariant_and_state_sensitive() {
        let (mut a, _, _) = blaster_world();
        let (mut b, _, _) = blaster_world();
        b.trace_mut().set_enabled(false);
        a.run_until(SimTime::from_millis(100));
        b.run_until(SimTime::from_millis(100));
        assert_ne!(
            a.snapshot().as_bytes(),
            b.snapshot().as_bytes(),
            "the snapshots must differ (one carries a trace)"
        );
        assert_eq!(
            a.state_hash(),
            b.state_hash(),
            "the hash must not see the trace"
        );
        let before = a.state_hash();
        a.run_until(SimTime::from_millis(200));
        assert_ne!(before, a.state_hash(), "advancing state must move the hash");
    }

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
        // RNG-free: both worlds end with identical shared and channel
        // streams (the forced path never draws).
        assert_eq!(data_seen(&clean, clean_snk), 5);
        assert_eq!(clean.rng, w.rng);
        assert_eq!(
            clean.channels.rng(c01.0 as usize),
            w.channels.rng(c01.0 as usize)
        );
        assert_eq!(w.audit().total_violations(), 0);
    }

    #[test]
    fn snapshot_v3_roundtrips_the_mc_overlay() {
        let (mut w, _, c01) = blaster_world();
        w.inject_outage(c01, SimTime::from_millis(85), SimTime::from_millis(300));
        w.force_drops(c01, 1);
        w.run_until(SimTime::from_millis(50));
        let snap = w.snapshot();
        let (mut twin, twin_snk, _) = blaster_world();
        twin.restore(&snap).unwrap();
        assert_eq!(twin.snapshot().as_bytes(), snap.as_bytes());
        assert_eq!(twin.state_hash(), w.state_hash());
        // The restored overlay keeps acting: continue both runs and the
        // futures agree byte for byte.
        w.run_to_completion();
        twin.run_to_completion();
        assert_eq!(w.trace().records(), twin.trace().records());
        // Forced drop (packet 1 at 80 ms) plus outage cuts leave only the
        // post-recovery packets.
        assert_eq!(data_seen(&twin, twin_snk), 3);
    }
}

#[cfg(test)]
mod watchdog_tests {
    use super::tests::{Acker, Blaster};
    use super::*;
    use crate::discipline::DropTail;

    /// Claims to have pending work but never schedules anything.
    struct Inert;
    impl Endpoint for Inert {
        fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn progress(&self) -> EndpointProgress {
            EndpointProgress {
                finished: Some(false),
                detail: "rto unarmed, 3 packets unacked".to_owned(),
            }
        }
    }

    /// Re-arms a timer forever without ever sending: busy but stuck.
    struct TimerChurn;
    impl Endpoint for TimerChurn {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.set_timer(SimDuration::from_secs(1), 0);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn progress(&self) -> EndpointProgress {
            EndpointProgress {
                finished: Some(false),
                detail: "retransmitting into the void".to_owned(),
            }
        }
    }

    fn two_host_world() -> (World, NodeId, NodeId) {
        let mut w = World::new(5);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        for (a, b) in [(h0, h1), (h1, h0)] {
            w.add_channel(
                a,
                b,
                Rate::from_kbps(50),
                SimDuration::from_millis(10),
                None,
                Box::new(DropTail::new()),
                FaultModel::NONE,
            );
        }
        (w, h0, h1)
    }

    #[test]
    fn clean_run_is_quiescent() {
        let (mut w, h0, h1) = two_host_world();
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
        let _ = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        w.start_at(src, SimTime::ZERO);
        let outcome = w.run_until_quiescent(SimTime::from_secs(10), &WatchdogConfig::default());
        assert!(matches!(outcome, RunOutcome::Quiescent));
        assert_eq!(w.audit().total_violations(), 0);
    }

    #[test]
    fn drained_queue_with_unfinished_endpoint_is_deadlock() {
        let (mut w, h0, h1) = two_host_world();
        let ep = w.attach(h0, h1, ConnId(0), Box::new(Inert));
        w.start_at(ep, SimTime::ZERO);
        let outcome = w.run_until_quiescent(SimTime::from_secs(10), &WatchdogConfig::default());
        let report = outcome.stall().expect("must stall");
        assert_eq!(report.kind, StallKind::Deadlock);
        assert_eq!(report.stuck.len(), 1);
        assert_eq!(report.stuck[0].conn, 0);
        assert_eq!(report.stuck[0].host, h0);
        assert!(report.render().contains("node0"), "{}", report.render());
        assert!(
            report.render().contains("rto unarmed"),
            "{}",
            report.render()
        );
    }

    #[test]
    fn eventful_run_without_goodput_is_livelock() {
        let (mut w, h0, h1) = two_host_world();
        let ep = w.attach(h0, h1, ConnId(0), Box::new(TimerChurn));
        w.start_at(ep, SimTime::ZERO);
        let cfg = WatchdogConfig {
            progress_window: SimDuration::from_secs(5),
            ..WatchdogConfig::default()
        };
        let outcome = w.run_until_quiescent(SimTime::from_secs(1000), &cfg);
        let report = outcome.stall().expect("must stall");
        assert_eq!(report.kind, StallKind::Livelock);
        assert!(
            w.now() < SimTime::from_secs(10),
            "verdict promptly after one window, not at t_end"
        );
        assert_eq!(report.stuck[0].detail, "retransmitting into the void");
    }

    #[test]
    fn events_past_bound_report_time_bound() {
        let (mut w, h0, h1) = two_host_world();
        let ep = w.attach(h0, h1, ConnId(0), Box::new(TimerChurn));
        w.start_at(ep, SimTime::ZERO);
        let outcome = w.run_until_quiescent(SimTime::from_secs(3), &WatchdogConfig::default());
        assert!(matches!(outcome, RunOutcome::TimeBound));
    }

    /// A deadlock verdict with a configured post-mortem directory dumps a
    /// restorable snapshot of the stalled world and names it in the
    /// report.
    #[test]
    fn stall_verdict_writes_post_mortem_snapshot() {
        let build = || {
            let (mut w, h0, h1) = two_host_world();
            let ep = w.attach(h0, h1, ConnId(0), Box::new(Inert));
            w.start_at(ep, SimTime::ZERO);
            w
        };
        let dir = std::env::temp_dir().join(format!("td-postmortem-test-{}", std::process::id()));
        let cfg = WatchdogConfig {
            post_mortem_dir: Some(dir.clone()),
            ..WatchdogConfig::default()
        };
        let mut w = build();
        let outcome = w.run_until_quiescent(SimTime::from_secs(10), &cfg);
        let report = outcome.stall().expect("Inert must deadlock");
        assert_eq!(report.kind, StallKind::Deadlock);
        let path = report.post_mortem.clone().expect("post-mortem written");
        assert!(path.starts_with(&dir));
        assert!(report.render().contains("post-mortem snapshot"));
        let snap = Snapshot::read_from_file(&path).expect("snapshot file readable");
        let mut fresh = build();
        fresh
            .restore(&snap)
            .expect("post-mortem restores onto a twin");
        assert_eq!(fresh.now(), w.now());
        assert_eq!(fresh.events_dispatched(), w.events_dispatched());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::tests::{Acker, Blaster};
    use super::*;
    use crate::discipline::{DropTail, Red};
    use crate::fault::GilbertElliott;

    /// Sends one data packet per timer tick; carries a live [`TimerHandle`]
    /// across snapshots, exercising the endpoint save/load hooks.
    struct Ticker {
        interval: SimDuration,
        remaining: u64,
        acks: u64,
        pending: Option<TimerHandle>,
    }

    impl Endpoint for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            self.pending = Some(ctx.set_timer(self.interval, 1));
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            if pkt.is_ack() {
                self.acks += 1;
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            assert_eq!(token, 1);
            self.pending = None;
            if self.remaining == 0 {
                return;
            }
            ctx.send(PacketKind::Data, self.remaining, 500, false);
            self.remaining -= 1;
            if self.remaining > 0 {
                self.pending = Some(ctx.set_timer(self.interval, 1));
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn save_state(&self, w: &mut SnapWriter) {
            w.write_u64(self.remaining);
            w.write_u64(self.acks);
            match &self.pending {
                Some(h) => {
                    w.write_bool(true);
                    h.save_state(w);
                }
                None => w.write_bool(false),
            }
        }
        fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
            self.remaining = r.read_u64()?;
            self.acks = r.read_u64()?;
            self.pending = if r.read_bool()? {
                Some(TimerHandle::load_state(r)?)
            } else {
                None
            };
            Ok(())
        }
    }

    /// A world exercising every snapshotted subsystem at once: RED's
    /// average-queue estimator and the shared RNG (early drops), a
    /// capacity-limited buffer (overflow drops), a Gilbert–Elliott burst
    /// process on the reverse channel (private fault RNG + Markov state),
    /// pending timers, and two endpoints' worth of protocol state.
    fn busy_world(seed: u64) -> World {
        let mut w = World::new(seed);
        let h0 = w.add_host("H0", SimDuration::from_micros(100));
        let h1 = w.add_host("H1", SimDuration::from_micros(100));
        let _fwd = w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            Some(5),
            Box::new(Red::default()),
            FaultModel::NONE,
        );
        let rev = w.add_channel(
            h1,
            h0,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            Box::new(DropTail::new()),
            FaultModel::NONE,
        );
        w.set_fault_plan(
            rev,
            FaultPlan::with_burst(GilbertElliott::new(0.2, 0.5, 0.8).unwrap()),
        )
        .unwrap();
        let ticker = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Ticker {
                interval: SimDuration::from_millis(50),
                remaining: 30,
                acks: 0,
                pending: None,
            }),
        );
        let blaster = w.attach(
            h0,
            h1,
            ConnId(1),
            Box::new(Blaster {
                n: 30,
                acks_seen: 0,
                data_size: 500,
            }),
        );
        let ack0 = w.attach(h1, h0, ConnId(0), Box::new(Acker { data_seen: 0 }));
        let ack1 = w.attach(h1, h0, ConnId(1), Box::new(Acker { data_seen: 0 }));
        for ep in [ticker, blaster, ack0, ack1] {
            w.start_at(ep, SimTime::ZERO);
        }
        w
    }

    const T_MID: SimTime = SimTime::from_secs(2);
    const T_END: SimTime = SimTime::from_secs(120);

    #[test]
    fn restored_run_is_identical_to_uninterrupted() {
        // Reference: run straight through.
        let mut a = busy_world(42);
        a.run_until(T_MID);
        let t_snap = a.now();
        let snap = a.snapshot();
        a.run_until(T_END);

        // Restore onto a freshly built world and continue.
        let mut b = busy_world(42);
        b.restore(&snap).unwrap();
        assert_eq!(b.now(), t_snap, "clock must resume at the capture point");
        b.run_until(T_END);

        assert_eq!(a.now(), b.now());
        assert_eq!(a.events_dispatched(), b.events_dispatched());
        assert_eq!(a.trace().records(), b.trace().records(), "trace diverged");
        assert_eq!(a.audit().injected(), b.audit().injected());
        assert_eq!(a.audit().delivered(), b.audit().delivered());
        assert_eq!(a.audit().dropped(), b.audit().dropped());
        assert_eq!(a.audit().total_violations(), b.audit().total_violations());
        for ch in [ChannelId(0), ChannelId(1)] {
            let (sa, sb) = (a.channel_stats(ch), b.channel_stats(ch));
            assert_eq!(sa.tx_packets, sb.tx_packets);
            assert_eq!(sa.tx_bytes, sb.tx_bytes);
            assert_eq!(sa.drops, sb.drops);
            assert_eq!(sa.enqueued, sb.enqueued);
            assert_eq!(sa.busy, sb.busy);
        }
        // Final protocol state matches too.
        let ta = a.endpoint(EndpointId(0)).unwrap().as_any();
        let tb = b.endpoint(EndpointId(0)).unwrap().as_any();
        let (ta, tb) = (
            ta.downcast_ref::<Ticker>().unwrap(),
            tb.downcast_ref::<Ticker>().unwrap(),
        );
        assert_eq!(ta.acks, tb.acks);
        assert_eq!(ta.remaining, tb.remaining);
    }

    #[test]
    fn snapshot_of_restored_world_is_byte_identical() {
        let mut a = busy_world(9);
        a.run_until(T_MID);
        let snap = a.snapshot();
        let mut b = busy_world(9);
        b.restore(&snap).unwrap();
        assert_eq!(
            snap.as_bytes(),
            b.snapshot().as_bytes(),
            "restore must reproduce every captured field exactly"
        );
    }

    #[test]
    fn restored_twin_snapshots_like_the_original_after_running_on() {
        // Captured while the ticker's timer is armed; the twin's queue
        // reuses slots in another order from here on, yet every later
        // snapshot must still match byte for byte.
        let mut a = busy_world(11);
        a.run_until(SimTime::from_millis(700));
        let mut b = busy_world(11);
        b.restore(&a.snapshot()).unwrap();
        for t in [SimTime::from_millis(1_000), T_END] {
            a.run_until(t);
            b.run_until(t);
            assert_eq!(
                a.snapshot().as_bytes(),
                b.snapshot().as_bytes(),
                "twin diverged by {t:?}"
            );
            assert_eq!(a.state_hash(), b.state_hash());
        }
    }

    #[test]
    fn handle_index_without_a_pending_event_is_corrupt() {
        let mut a = busy_world(4);
        a.run_until(SimTime::from_millis(700));
        let ticker = (a.endpoint(EndpointId(0)).unwrap().as_any())
            .downcast_ref::<Ticker>()
            .unwrap();
        assert!(
            ticker.pending.is_some(),
            "the ticker must hold a live timer"
        );
        let mut bytes = a.snapshot().bytes;
        busy_world(4)
            .restore(&Snapshot::from_bytes(bytes.clone()).unwrap())
            .expect("the undamaged snapshot restores");
        // The ticker's row ends in its armed handle, `(index, 0)`; point
        // the index past the pending list.
        let row = [
            &ticker.remaining.to_le_bytes()[..],
            &ticker.acks.to_le_bytes(),
            &[1],
        ]
        .concat();
        let at = bytes.windows(row.len()).rposition(|w| w == row).unwrap() + row.len();
        bytes[at..at + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        let err = busy_world(4)
            .restore(&Snapshot::from_bytes(bytes).unwrap())
            .unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "got {err:?}");
    }

    #[test]
    fn restore_rejects_mismatched_world() {
        let mut a = busy_world(1);
        a.run_until(T_MID);
        let snap = a.snapshot();
        // Wrong seed.
        let err = busy_world(2).restore(&snap).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)), "got {err:?}");
        // Wrong topology (extra host).
        let mut w = busy_world(1);
        w.add_host("extra", SimDuration::ZERO);
        let err = w.restore(&snap).unwrap_err();
        assert!(matches!(err, SnapError::Mismatch(_)), "got {err:?}");
    }

    #[test]
    fn snapshot_header_is_validated() {
        let mut a = busy_world(3);
        a.run_until(T_MID);
        let bytes = a.snapshot().bytes;
        assert!(matches!(
            Snapshot::from_bytes(b"XXXX0000rest".to_vec()),
            Err(SnapError::BadMagic)
        ));
        let mut wrong_version = bytes.clone();
        wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(wrong_version),
            Err(SnapError::UnsupportedVersion(99))
        ));
        // Version 3 wrote the queue's slab; its bytes are refused.
        let mut v3 = bytes.clone();
        v3[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Snapshot::from_bytes(v3),
            Err(SnapError::UnsupportedVersion(3))
        ));
        // Truncation anywhere in the payload surfaces as an error, never
        // a half-restored world that silently diverges.
        let truncated = Snapshot::from_bytes(bytes[..bytes.len() / 2].to_vec()).unwrap();
        assert!(busy_world(3).restore(&truncated).is_err());
    }

    #[test]
    fn snapshot_files_roundtrip_atomically() {
        let dir = std::env::temp_dir().join(format!("td-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.tdsnap");
        let mut a = busy_world(7);
        a.run_until(T_MID);
        let snap = a.snapshot();
        snap.write_to_file(&path).unwrap();
        let back = Snapshot::read_from_file(&path).unwrap();
        assert_eq!(snap.as_bytes(), back.as_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
