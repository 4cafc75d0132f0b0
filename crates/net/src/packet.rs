//! Packet and identifier types.
//!
//! Packets carry metadata only; no payload bytes exist in the simulation.
//! The paper's packets are fixed-size: 500-byte data packets and 50-byte
//! ACKs (§2.2), but sizes are free parameters here — the §4.3.3 conjecture
//! runs use zero-length ACKs.

use std::collections::VecDeque;
use std::fmt;
use td_engine::SimTime;

/// Identifies a node (host or switch) in the topology.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies a transport connection. A connection is unidirectional at the
/// transport level: data flows source → sink, ACKs flow sink → source.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ConnId(pub u32);

/// Connection ids are table indices (the world's connection table, the
/// auditor's marks), so they must stay below this cap: a stray id then
/// costs at most a few hundred MiB of table, never gigabytes. The 1M rung
/// uses ids below 2²⁰.
pub(crate) const CONN_ID_CAP: u32 = 1 << 24;

/// Globally unique packet identity, preserved across hops (a retransmission
/// is a *new* packet with a new id but the same sequence number).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PacketId(pub u64);

/// Whether a packet carries data or an acknowledgment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PacketKind {
    /// A maximum-size data segment. `seq` is its 1-based sequence number,
    /// counted in packets (the paper measures windows in packets, §2.1).
    Data,
    /// A cumulative acknowledgment. `seq` is the highest in-order sequence
    /// number received; `seq = 0` acknowledges nothing.
    Ack,
}

/// A packet in flight. `Copy`: 64 bytes of metadata, cloned freely through
/// the event queue and the trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Packet {
    /// Unique identity of this transmission.
    pub id: PacketId,
    /// Connection this packet belongs to.
    pub conn: ConnId,
    /// Data segment or cumulative ACK.
    pub kind: PacketKind,
    /// Sequence number (data) or cumulative ack point (ACK).
    pub seq: u64,
    /// Piggybacked cumulative acknowledgment on a *data* packet (duplex
    /// connections): highest in-order sequence the sender has received in
    /// the reverse direction. `0` acknowledges nothing — the value every
    /// unidirectional sender uses. Pure ACK packets carry their ack point
    /// in `seq` and leave this 0.
    pub ack: u64,
    /// Wire size in bytes (may be zero for idealized ACKs).
    pub size: u32,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Time the originating endpoint handed the packet to its host.
    pub sent_at: SimTime,
    /// True if this data packet is a retransmission.
    pub retx: bool,
    /// Congestion-experienced bit (DECbit / CE marking): set by a switch
    /// whose queue exceeds its marking threshold; echoed by receivers on
    /// ACKs. Always false in the paper's Tahoe runs.
    pub ce: bool,
}

impl Packet {
    /// True for data segments.
    pub fn is_data(&self) -> bool {
        self.kind == PacketKind::Data
    }

    /// True for acknowledgments.
    pub fn is_ack(&self) -> bool {
        self.kind == PacketKind::Ack
    }

    /// Serialize every field (snapshot support). Packets appear in queue
    /// disciplines, host processing queues, channel service slots, and
    /// pending arrival events, so the full metadata must round-trip.
    pub(crate) fn save_state(&self, w: &mut td_engine::SnapWriter) {
        w.write_u64(self.id.0);
        w.write_u32(self.conn.0);
        w.write_u8(match self.kind {
            PacketKind::Data => 0,
            PacketKind::Ack => 1,
        });
        w.write_u64(self.seq);
        w.write_u64(self.ack);
        w.write_u32(self.size);
        w.write_u32(self.src.0);
        w.write_u32(self.dst.0);
        w.write_time(self.sent_at);
        w.write_bool(self.retx);
        w.write_bool(self.ce);
    }

    /// Deserialize a packet written by [`Packet::save_state`].
    pub(crate) fn load_state(
        r: &mut td_engine::SnapReader<'_>,
    ) -> Result<Packet, td_engine::SnapError> {
        let id = PacketId(r.read_u64()?);
        let conn = ConnId(r.read_u32()?);
        let kind = match r.read_u8()? {
            0 => PacketKind::Data,
            1 => PacketKind::Ack,
            k => {
                return Err(td_engine::SnapError::Corrupt(format!(
                    "unknown packet kind tag {k}"
                )))
            }
        };
        Ok(Packet {
            id,
            conn,
            kind,
            seq: r.read_u64()?,
            ack: r.read_u64()?,
            size: r.read_u32()?,
            src: NodeId(r.read_u32()?),
            dst: NodeId(r.read_u32()?),
            sent_at: r.read_time()?,
            retx: r.read_bool()?,
            ce: r.read_bool()?,
        })
    }

    /// Serialize a packet queue — a discipline's buffer or a host's
    /// processing queue — as its length, then each packet.
    pub(crate) fn save_queue(q: &VecDeque<Packet>, w: &mut td_engine::SnapWriter) {
        w.write_u64(q.len() as u64);
        for p in q {
            p.save_state(w);
        }
    }

    /// Deserialize a queue written by [`Packet::save_queue`].
    pub(crate) fn load_queue(
        r: &mut td_engine::SnapReader<'_>,
    ) -> Result<VecDeque<Packet>, td_engine::SnapError> {
        let n = r.read_len()?;
        (0..n).map(|_| Packet::load_state(r)).collect()
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            PacketKind::Data if self.retx => "DATA*",
            PacketKind::Data => "DATA",
            PacketKind::Ack => "ACK",
        };
        write!(
            f,
            "{kind} conn={} seq={} {}B {}→{}",
            self.conn.0, self.seq, self.size, self.src.0, self.dst.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(kind: PacketKind) -> Packet {
        Packet {
            id: PacketId(1),
            conn: ConnId(0),
            kind,
            seq: 7,
            ack: 0,
            size: 500,
            src: NodeId(0),
            dst: NodeId(3),
            sent_at: SimTime::ZERO,
            retx: false,
            ce: false,
        }
    }

    #[test]
    fn kind_predicates() {
        assert!(pkt(PacketKind::Data).is_data());
        assert!(!pkt(PacketKind::Data).is_ack());
        assert!(pkt(PacketKind::Ack).is_ack());
        assert!(!pkt(PacketKind::Ack).is_data());
    }

    #[test]
    fn display_forms() {
        let d = pkt(PacketKind::Data);
        assert_eq!(d.to_string(), "DATA conn=0 seq=7 500B 0→3");
        let mut r = d;
        r.retx = true;
        assert!(r.to_string().starts_with("DATA*"));
        let a = pkt(PacketKind::Ack);
        assert!(a.to_string().starts_with("ACK"));
    }

    #[test]
    fn packet_is_small_and_copy() {
        // Keep the event queue cheap: the packet must stay pocket-sized.
        assert!(std::mem::size_of::<Packet>() <= 64);
        let p = pkt(PacketKind::Data);
        let q = p; // Copy
        assert_eq!(p, q);
    }
}
