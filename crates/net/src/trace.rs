//! Event-sourced trace of a simulation run.
//!
//! Every observable state change in the network — packet sends, queue
//! arrivals and departures, drops, serialization start/end, deliveries, and
//! protocol-state samples — appends a [`TraceRecord`]. All analysis in
//! `td-analysis` is computed *offline* from this stream, so adding a metric
//! never perturbs the simulation, and a single run can answer every question
//! the paper asks of it (queue-length traces, cwnd traces, utilization,
//! drop attribution, clustering, ACK spacing).
//!
//! Records carry the full packet metadata (packets are `Copy`) plus, on
//! queue transitions, the resulting buffer occupancy — so queue-length time
//! series fall straight out of a linear scan.

use crate::packet::{ConnId, NodeId, Packet};
use crate::world::ChannelId;
use std::cmp::Ordering;
use td_engine::{SimTime, SnapError, SnapReader, SnapWriter};

/// An online consumer of trace events, fed by [`crate::World`] at every
/// emission site **whether or not trace recording is enabled** — this is
/// what lets streaming analysis replace the materialized trace at scale.
///
/// Observers must be passive: they see each event by reference, cannot
/// touch the world, and must not panic on any event sequence. `Send`
/// because sharded worlds run on worker threads (the observer travels
/// with its shard's `World`); `Any` so a caller holding several kinds of
/// observer can tell them apart by type before taking one back.
pub trait TraceObserver: Send + std::any::Any {
    /// One trace event, in emission order (the exact order the records
    /// would appear in the trace of this world).
    fn on_record(&mut self, t: SimTime, ev: &TraceEvent);

    /// Recover the concrete observer after [`crate::World::take_observers`]
    /// (mirrors [`crate::Endpoint::as_any`]).
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// Why a packet was discarded at a queue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The buffer was full and the discipline chose this packet as victim.
    BufferFull,
    /// The channel fault injector destroyed it.
    Fault,
    /// Active queue management (RED) discarded it before the buffer was
    /// physically full.
    EarlyDrop,
    /// A scheduled link outage cut the channel while the packet was in
    /// flight (or it finished serializing into a down link).
    LinkDown,
}

/// How a transport sender noticed a loss (paper footnote 4: duplicate
/// acknowledgments or timer expiration).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LossKind {
    /// Three duplicate ACKs (Tahoe fast retransmit).
    DupAck,
    /// Retransmission timer expired.
    Timeout,
}

/// Protocol-level observations emitted by endpoints through
/// [`crate::Ctx::emit`]. The network layer treats these as opaque
/// annotations; `td-analysis` turns them into the paper's cwnd plots and
/// loss chronologies.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ProtoEvent {
    /// Congestion-window sample, taken whenever cwnd changes.
    Cwnd {
        /// Congestion window, in packets (fractional during avoidance).
        cwnd: f64,
        /// Slow-start threshold, in packets.
        ssthresh: f64,
    },
    /// The sender detected a packet loss.
    LossDetected {
        /// Sequence number presumed lost.
        seq: u64,
        /// Detection mechanism.
        kind: LossKind,
    },
    /// The sender retransmitted a segment.
    Retransmit {
        /// Sequence number retransmitted.
        seq: u64,
    },
    /// The receiver delivered in-order data up to this sequence number.
    InOrder {
        /// Highest contiguous sequence number delivered.
        seq: u64,
    },
}

/// One thing that happened at one instant.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TraceEvent {
    /// An endpoint handed a packet to its host for transmission.
    Send {
        /// Host that sent.
        node: NodeId,
        /// The packet.
        pkt: Packet,
    },
    /// A packet was accepted into a channel's buffer.
    Enqueue {
        /// The channel.
        ch: ChannelId,
        /// The packet.
        pkt: Packet,
        /// Buffer occupancy (waiting + in service) after acceptance.
        qlen_after: u32,
    },
    /// A packet was discarded at a channel.
    Drop {
        /// The channel.
        ch: ChannelId,
        /// The discarded packet.
        pkt: Packet,
        /// Why.
        reason: DropReason,
        /// Buffer occupancy at the time of the drop.
        qlen: u32,
    },
    /// A packet began serializing onto the wire.
    TxStart {
        /// The channel.
        ch: ChannelId,
        /// The packet.
        pkt: Packet,
    },
    /// A packet finished serializing (it leaves the buffer now and arrives
    /// at the far end one propagation delay later).
    TxEnd {
        /// The channel.
        ch: ChannelId,
        /// The packet.
        pkt: Packet,
        /// Buffer occupancy after departure.
        qlen_after: u32,
    },
    /// A packet was handed to a protocol endpoint (after host processing).
    Deliver {
        /// Receiving host.
        node: NodeId,
        /// The packet.
        pkt: Packet,
    },
    /// A protocol endpoint annotation.
    Proto {
        /// Connection the annotation belongs to.
        conn: ConnId,
        /// Host whose endpoint emitted it.
        node: NodeId,
        /// The observation.
        ev: ProtoEvent,
    },
}

/// A timestamped trace event.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceRecord {
    /// When it happened.
    pub t: SimTime,
    /// What happened.
    pub ev: TraceEvent,
}

/// Drop reasons in codec-tag order: a reason's tag is its index.
const DROP_REASONS: [DropReason; 4] = [
    DropReason::BufferFull,
    DropReason::Fault,
    DropReason::EarlyDrop,
    DropReason::LinkDown,
];

/// Loss kinds in codec-tag order: a kind's tag is its index.
const LOSS_KINDS: [LossKind; 2] = [LossKind::DupAck, LossKind::Timeout];

/// `v`'s codec tag: its index in `table`.
fn tag_of<T: PartialEq>(table: &[T], v: &T) -> u8 {
    table
        .iter()
        .position(|x| x == v)
        .expect("every value has a tag") as u8
}

/// The value codec tag `tag` names in `table`; an unknown tag is corrupt.
fn from_tag<T: Copy>(table: &[T], tag: u8, what: &str) -> Result<T, SnapError> {
    (table.get(tag as usize).copied())
        .ok_or_else(|| SnapError::Corrupt(format!("unknown {what} tag {tag}")))
}

/// Codec tag of an event's variant, the byte after a record's time.
fn event_tag(ev: &TraceEvent) -> u8 {
    match ev {
        TraceEvent::Send { .. } => 0,
        TraceEvent::Enqueue { .. } => 1,
        TraceEvent::Drop { .. } => 2,
        TraceEvent::TxStart { .. } => 3,
        TraceEvent::TxEnd { .. } => 4,
        TraceEvent::Deliver { .. } => 5,
        TraceEvent::Proto { .. } => 6,
    }
}

/// Codec tag of a protocol annotation's variant.
fn proto_tag(ev: &ProtoEvent) -> u8 {
    match ev {
        ProtoEvent::Cwnd { .. } => 0,
        ProtoEvent::LossDetected { .. } => 1,
        ProtoEvent::Retransmit { .. } => 2,
        ProtoEvent::InOrder { .. } => 3,
    }
}

impl TraceRecord {
    /// Serialize the record (snapshot support): time, event tag, then the
    /// event's fields, integers little-endian — the byte order
    /// [`canonical_trace_cmp`] mirrors field by field.
    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.write_time(self.t);
        w.write_u8(event_tag(&self.ev));
        match &self.ev {
            TraceEvent::Send { node, pkt } | TraceEvent::Deliver { node, pkt } => {
                w.write_u32(node.0);
                pkt.save_state(w);
            }
            TraceEvent::TxStart { ch, pkt } => {
                w.write_u32(ch.0);
                pkt.save_state(w);
            }
            TraceEvent::Enqueue {
                ch,
                pkt,
                qlen_after,
            }
            | TraceEvent::TxEnd {
                ch,
                pkt,
                qlen_after,
            } => {
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
                w.write_u32(ch.0);
                pkt.save_state(w);
                w.write_u8(tag_of(&DROP_REASONS, reason));
                w.write_u32(*qlen);
            }
            TraceEvent::Proto { conn, node, ev } => {
                w.write_u32(conn.0);
                w.write_u32(node.0);
                w.write_u8(proto_tag(ev));
                match *ev {
                    ProtoEvent::Cwnd { cwnd, ssthresh } => {
                        w.write_f64(cwnd);
                        w.write_f64(ssthresh);
                    }
                    ProtoEvent::LossDetected { seq, kind } => {
                        w.write_u64(seq);
                        w.write_u8(tag_of(&LOSS_KINDS, &kind));
                    }
                    ProtoEvent::Retransmit { seq } | ProtoEvent::InOrder { seq } => {
                        w.write_u64(seq)
                    }
                }
            }
        }
    }

    /// Deserialize a record written by [`TraceRecord::save_state`].
    pub(crate) fn load_state(r: &mut SnapReader<'_>) -> Result<TraceRecord, SnapError> {
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
                reason: from_tag(&DROP_REASONS, r.read_u8()?, "drop reason")?,
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
                        kind: from_tag(&LOSS_KINDS, r.read_u8()?, "loss kind")?,
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
}

/// Tie-break rank for merged trace records at the same instant,
/// mirroring the order a serial dispatch emits them: a departure frees
/// the wire (`TxEnd`), deliveries and the endpoint reactions they
/// trigger come next (`Deliver` → `Proto` → `Send` → `Enqueue`/`Drop`),
/// and the next serialization starts last (`TxStart`). Without this, a
/// byte-wise sort can place a channel's next `TxStart` *before* the
/// `TxEnd` it follows (the encoding tags happen to order that way),
/// which corrupts any analysis that pairs starts with ends — utilization
/// would double-count entire windows. Records of one channel never span
/// shards, so this rank plus encoded-content ordering reconstructs a
/// causally consistent global trace for every shard count.
pub(crate) fn causal_rank(ev: &TraceEvent) -> u8 {
    match ev {
        TraceEvent::TxEnd { .. } => 0,
        TraceEvent::Deliver { .. } => 1,
        TraceEvent::Proto { .. } => 2,
        TraceEvent::Send { .. } => 3,
        TraceEvent::Enqueue { .. } | TraceEvent::Drop { .. } => 4,
        TraceEvent::TxStart { .. } => 5,
    }
}

/// The canonical total order on trace records: `(time, causal rank,
/// encoded content)` — exactly the order [`crate::ShardedWorld`] merges
/// shard traces into, so it is the same for every shard count.
///
/// This compares the records **field-wise, without encoding them**: the
/// snapshot codec writes every integer little-endian, and lexicographic
/// order over little-endian bytes equals numeric order of the
/// byte-swapped value, so each field comparison is a `swap_bytes`
/// compare. Zero allocation per comparison (the encoding path allocated
/// a `Vec` per record), and usable online by streaming folds that must
/// reproduce merged-trace order for same-instant ties.
pub fn canonical_trace_cmp(a: &TraceRecord, b: &TraceRecord) -> Ordering {
    // Little-endian byte-lexicographic order of an integer field.
    fn le64(a: u64, b: u64) -> Ordering {
        a.swap_bytes().cmp(&b.swap_bytes())
    }
    fn le32(a: u32, b: u32) -> Ordering {
        a.swap_bytes().cmp(&b.swap_bytes())
    }
    fn pkt_cmp(a: &Packet, b: &Packet) -> Ordering {
        let kind = |p: &Packet| match p.kind {
            crate::packet::PacketKind::Data => 0u8,
            crate::packet::PacketKind::Ack => 1,
        };
        le64(a.id.0, b.id.0)
            .then_with(|| le32(a.conn.0, b.conn.0))
            .then_with(|| kind(a).cmp(&kind(b)))
            .then_with(|| le64(a.seq, b.seq))
            .then_with(|| le64(a.ack, b.ack))
            .then_with(|| le32(a.size, b.size))
            .then_with(|| le32(a.src.0, b.src.0))
            .then_with(|| le32(a.dst.0, b.dst.0))
            .then_with(|| le64(a.sent_at.as_nanos(), b.sent_at.as_nanos()))
            .then_with(|| a.retx.cmp(&b.retx))
            .then_with(|| a.ce.cmp(&b.ce))
    }
    fn proto_cmp(a: &ProtoEvent, b: &ProtoEvent) -> Ordering {
        proto_tag(a).cmp(&proto_tag(b)).then_with(|| match (a, b) {
            (
                ProtoEvent::Cwnd {
                    cwnd: c1,
                    ssthresh: s1,
                },
                ProtoEvent::Cwnd {
                    cwnd: c2,
                    ssthresh: s2,
                },
            ) => le64(c1.to_bits(), c2.to_bits()).then_with(|| le64(s1.to_bits(), s2.to_bits())),
            (
                ProtoEvent::LossDetected { seq: q1, kind: k1 },
                ProtoEvent::LossDetected { seq: q2, kind: k2 },
            ) => le64(*q1, *q2).then_with(|| tag_of(&LOSS_KINDS, k1).cmp(&tag_of(&LOSS_KINDS, k2))),
            (ProtoEvent::Retransmit { seq: q1 }, ProtoEvent::Retransmit { seq: q2 })
            | (ProtoEvent::InOrder { seq: q1 }, ProtoEvent::InOrder { seq: q2 }) => le64(*q1, *q2),
            _ => unreachable!("equal proto tags imply equal variants"),
        })
    }
    a.t.cmp(&b.t)
        .then_with(|| causal_rank(&a.ev).cmp(&causal_rank(&b.ev)))
        .then_with(|| event_tag(&a.ev).cmp(&event_tag(&b.ev)))
        .then_with(|| match (&a.ev, &b.ev) {
            (TraceEvent::Send { node: n1, pkt: p1 }, TraceEvent::Send { node: n2, pkt: p2 })
            | (
                TraceEvent::Deliver { node: n1, pkt: p1 },
                TraceEvent::Deliver { node: n2, pkt: p2 },
            ) => le32(n1.0, n2.0).then_with(|| pkt_cmp(p1, p2)),
            (
                TraceEvent::Enqueue {
                    ch: c1,
                    pkt: p1,
                    qlen_after: q1,
                },
                TraceEvent::Enqueue {
                    ch: c2,
                    pkt: p2,
                    qlen_after: q2,
                },
            )
            | (
                TraceEvent::TxEnd {
                    ch: c1,
                    pkt: p1,
                    qlen_after: q1,
                },
                TraceEvent::TxEnd {
                    ch: c2,
                    pkt: p2,
                    qlen_after: q2,
                },
            ) => le32(c1.0, c2.0)
                .then_with(|| pkt_cmp(p1, p2))
                .then_with(|| le32(*q1, *q2)),
            (
                TraceEvent::Drop {
                    ch: c1,
                    pkt: p1,
                    reason: r1,
                    qlen: q1,
                },
                TraceEvent::Drop {
                    ch: c2,
                    pkt: p2,
                    reason: r2,
                    qlen: q2,
                },
            ) => le32(c1.0, c2.0)
                .then_with(|| pkt_cmp(p1, p2))
                .then_with(|| tag_of(&DROP_REASONS, r1).cmp(&tag_of(&DROP_REASONS, r2)))
                .then_with(|| le32(*q1, *q2)),
            (TraceEvent::TxStart { ch: c1, pkt: p1 }, TraceEvent::TxStart { ch: c2, pkt: p2 }) => {
                le32(c1.0, c2.0).then_with(|| pkt_cmp(p1, p2))
            }
            (
                TraceEvent::Proto {
                    conn: c1,
                    node: n1,
                    ev: e1,
                },
                TraceEvent::Proto {
                    conn: c2,
                    node: n2,
                    ev: e2,
                },
            ) => le32(c1.0, c2.0)
                .then_with(|| le32(n1.0, n2.0))
                .then_with(|| proto_cmp(e1, e2)),
            _ => unreachable!("equal event tags imply equal variants"),
        })
}

/// The append-only trace of a run.
#[derive(Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    enabled: bool,
}

impl Trace {
    /// An enabled, empty trace.
    pub fn new() -> Self {
        Trace {
            records: Vec::new(),
            enabled: true,
        }
    }

    /// An enabled trace with room for `records` records before the first
    /// reallocation. Long paper-scale runs append millions of records;
    /// pre-sizing from a calibrated estimate (or a previous run's
    /// [`Trace::len`] / event count) removes the doubling-and-copy
    /// spikes from the hot loop.
    pub fn with_capacity(records: usize) -> Self {
        Trace {
            records: Vec::with_capacity(records),
            enabled: true,
        }
    }

    /// Reserve room for at least `additional` further records (no-op when
    /// recording is disabled — a disabled trace never allocates).
    pub fn reserve(&mut self, additional: usize) {
        if self.enabled {
            self.records.reserve(additional);
        }
    }

    /// Records the trace can hold before reallocating.
    pub fn capacity(&self) -> usize {
        self.records.capacity()
    }

    /// Disable recording (for benchmark runs where only the online counters
    /// matter). Already-recorded events are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Append a record (no-op when disabled).
    pub fn push(&mut self, t: SimTime, ev: TraceEvent) {
        if self.enabled {
            self.records.push(TraceRecord { t, ev });
        }
    }

    /// All records, in time order (the simulator appends monotonically).
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all records, keeping the enabled flag. Used to discard warm-up
    /// transients before the measured window of an experiment.
    pub fn clear(&mut self) {
        self.records.clear();
    }

    /// Replace the full record list (snapshot restore).
    pub(crate) fn set_records(&mut self, records: Vec<TraceRecord>) {
        self.records = records;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketId, PacketKind};

    fn pkt() -> Packet {
        Packet {
            id: PacketId(0),
            conn: ConnId(0),
            kind: PacketKind::Data,
            seq: 1,
            size: 500,
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: SimTime::ZERO,
            retx: false,
            ce: false,
            ack: 0,
        }
    }

    #[test]
    fn push_and_read_back() {
        let mut tr = Trace::new();
        tr.push(
            SimTime::from_secs(1),
            TraceEvent::Send {
                node: NodeId(0),
                pkt: pkt(),
            },
        );
        assert_eq!(tr.len(), 1);
        assert_eq!(tr.records()[0].t, SimTime::from_secs(1));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut tr = Trace::new();
        tr.set_enabled(false);
        tr.push(
            SimTime::ZERO,
            TraceEvent::Send {
                node: NodeId(0),
                pkt: pkt(),
            },
        );
        assert!(tr.is_empty());
        assert!(!tr.is_enabled());
    }

    #[test]
    fn with_capacity_and_reserve_preallocate() {
        let mut tr = Trace::with_capacity(100);
        assert!(tr.capacity() >= 100);
        tr.reserve(500);
        assert!(tr.capacity() >= 500);
        // A disabled trace refuses to allocate: it will never be read.
        let mut off = Trace::new();
        off.set_enabled(false);
        off.reserve(1 << 20);
        assert_eq!(off.capacity(), 0);
    }

    #[test]
    fn clear_discards_but_keeps_enabled() {
        let mut tr = Trace::new();
        tr.push(
            SimTime::ZERO,
            TraceEvent::Send {
                node: NodeId(0),
                pkt: pkt(),
            },
        );
        tr.clear();
        assert!(tr.is_empty());
        assert!(tr.is_enabled());
    }
}

#[cfg(test)]
mod canonical_cmp_tests {
    use super::*;
    use crate::packet::{PacketId, PacketKind};
    use crate::ChannelId;
    use td_engine::SimRng;

    /// Draw a record with every field randomized, covering all variants
    /// and both enum arms of every tagged sub-field.
    fn random_record(rng: &mut SimRng) -> TraceRecord {
        // Small value ranges force plenty of exact collisions, so the
        // comparator's later fields actually get exercised.
        let t = SimTime::from_nanos(rng.next_below(3));
        let pkt = Packet {
            id: PacketId(rng.next_below(3)),
            conn: ConnId(rng.next_below(3) as u32),
            kind: if rng.chance(0.5) {
                PacketKind::Data
            } else {
                PacketKind::Ack
            },
            seq: rng.next_below(3),
            ack: rng.next_below(3),
            size: rng.next_below(3) as u32,
            src: NodeId(rng.next_below(3) as u32),
            dst: NodeId(rng.next_below(3) as u32),
            sent_at: SimTime::from_nanos(rng.next_below(3)),
            retx: rng.chance(0.5),
            ce: rng.chance(0.5),
        };
        let ch = ChannelId(rng.next_below(3) as u32);
        let node = NodeId(rng.next_below(3) as u32);
        let conn = ConnId(rng.next_below(3) as u32);
        let qlen = rng.next_below(3) as u32;
        let ev = match rng.next_below(7) {
            0 => TraceEvent::Send { node, pkt },
            1 => TraceEvent::Enqueue {
                ch,
                pkt,
                qlen_after: qlen,
            },
            2 => TraceEvent::Drop {
                ch,
                pkt,
                reason: match rng.next_below(4) {
                    0 => DropReason::BufferFull,
                    1 => DropReason::Fault,
                    2 => DropReason::EarlyDrop,
                    _ => DropReason::LinkDown,
                },
                qlen,
            },
            3 => TraceEvent::TxStart { ch, pkt },
            4 => TraceEvent::TxEnd {
                ch,
                pkt,
                qlen_after: qlen,
            },
            5 => TraceEvent::Deliver { node, pkt },
            _ => TraceEvent::Proto {
                conn,
                node,
                ev: match rng.next_below(4) {
                    0 => ProtoEvent::Cwnd {
                        cwnd: rng.next_below(3) as f64 + 0.5,
                        ssthresh: rng.next_below(3) as f64,
                    },
                    1 => ProtoEvent::LossDetected {
                        seq: rng.next_below(3),
                        kind: if rng.chance(0.5) {
                            LossKind::DupAck
                        } else {
                            LossKind::Timeout
                        },
                    },
                    2 => ProtoEvent::Retransmit {
                        seq: rng.next_below(3),
                    },
                    _ => ProtoEvent::InOrder {
                        seq: rng.next_below(3),
                    },
                },
            },
        };
        TraceRecord { t, ev }
    }

    /// `canonical_trace_cmp` must order records exactly as the sharded
    /// merge's original sort key — `(t, causal_rank, SnapWriter encoding
    /// bytes)` — did, for every pair. The comparator exists to avoid
    /// allocating those encodings per record; this pins that it is a
    /// faithful mirror of the little-endian encoded-byte order.
    #[test]
    fn canonical_cmp_mirrors_encoded_byte_order() {
        let mut rng = SimRng::new(0xC0DE_CAFE);
        let recs: Vec<TraceRecord> = (0..600).map(|_| random_record(&mut rng)).collect();
        let keys: Vec<(SimTime, u8, Vec<u8>)> = recs
            .iter()
            .map(|r| {
                let mut w = SnapWriter::new();
                r.save_state(&mut w);
                (r.t, causal_rank(&r.ev), w.into_bytes())
            })
            .collect();
        let mut equal_pairs = 0u32;
        for i in 0..recs.len() {
            for j in 0..recs.len() {
                let want = keys[i].cmp(&keys[j]);
                let got = canonical_trace_cmp(&recs[i], &recs[j]);
                assert_eq!(
                    got, want,
                    "records {i} vs {j}:\n{:?}\n{:?}",
                    recs[i], recs[j]
                );
                if want == Ordering::Equal && i != j {
                    equal_pairs += 1;
                }
            }
        }
        // The small value ranges must have produced real collisions, or
        // the Equal arm was never meaningfully tested.
        assert!(equal_pairs > 0, "no equal pairs generated");
    }
}
