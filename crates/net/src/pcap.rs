//! Trace export to libpcap format.
//!
//! Simulated packets carry no wire bytes, so this module *synthesizes*
//! minimal IPv4 + TCP headers from the packet metadata — enough for
//! Wireshark/tcpdump to display sources, destinations, sequence and
//! acknowledgment numbers, and to follow a simulated connection. Each
//! captured record's original length is the simulated wire size; the
//! captured bytes are just the synthesized headers (a snaplen-style
//! truncation, which protocol analyzers handle natively).
//!
//! Conventions:
//!
//! * node `n` gets IPv4 address `10.0.0.(n+1)`;
//! * connection `c` uses TCP ports `10000 + c` (source) → `20000 + c`
//!   (destination), so each simulated connection is one TCP stream;
//! * sequence/ack numbers are scaled to bytes with the data-packet size,
//!   matching how the paper counts windows in packets;
//! * the capture clock is the simulation clock (second + microsecond
//!   resolution, as classic pcap requires).
//!
//! A plain-text `tcpdump`-style rendering is also provided for quick
//! terminal inspection and for tests.

use crate::packet::Packet;
use crate::trace::{Trace, TraceEvent};
use crate::world::ChannelId;
use std::io;
use std::path::Path;
use td_engine::SimTime;

const PCAP_MAGIC: u32 = 0xa1b2_c3d4;
const LINKTYPE_RAW: u32 = 101; // raw IPv4/IPv6
const DATA_SEQ_SCALE: u32 = 500; // bytes per simulated packet-sequence unit

/// Which trace events become captured frames.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CapturePoint {
    /// Frames as they finish serializing on a channel (the wire view).
    ChannelWire(ChannelId),
    /// Every `Send` from any host (the injection view).
    AllSends,
}

/// One captured frame: timestamp plus synthesized bytes.
struct Frame {
    t: SimTime,
    bytes: Vec<u8>,
    orig_len: u32,
}

fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = u16::from_be_bytes([chunk[0], *chunk.get(1).unwrap_or(&0)]);
        sum += word as u32;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// Synthesize an IPv4 + TCP header pair for a simulated packet.
fn synthesize(pkt: &Packet) -> Vec<u8> {
    let total_len = (20 + 20).max(pkt.size) as u16;
    let src_ip = [10, 0, 0, pkt.src.0 as u8 + 1];
    let dst_ip = [10, 0, 0, pkt.dst.0 as u8 + 1];
    let mut ip = vec![
        0x45,
        0x00, // version 4, IHL 5, DSCP 0
        (total_len >> 8) as u8,
        (total_len & 0xff) as u8,
        (pkt.id.0 >> 8) as u8,
        (pkt.id.0 & 0xff) as u8, // identification
        0x00,
        0x00, // flags/fragment
        64,   // TTL
        6,    // protocol TCP
        0x00,
        0x00, // checksum placeholder
    ];
    ip.extend_from_slice(&src_ip);
    ip.extend_from_slice(&dst_ip);
    let ck = ipv4_checksum(&ip);
    ip[10] = (ck >> 8) as u8;
    ip[11] = (ck & 0xff) as u8;

    // TCP header. Data packets carry seq = (seq-1)*scale with no ACK flag;
    // ACK packets carry ack = seq*scale + 1 with the ACK flag.
    let (sport, dport) = (10_000 + pkt.conn.0 as u16, 20_000 + pkt.conn.0 as u16);
    let (seq_no, ack_no, flags) = if pkt.is_data() {
        // PSH; sequence scaled to bytes, zero-based. Duplex data packets
        // carry a piggybacked cumulative ack: encode it with the ACK flag
        // so Wireshark shows the combined segment faithfully.
        let (ack_no, flags) = if pkt.ack > 0 {
            (
                (pkt.ack as u32)
                    .wrapping_mul(DATA_SEQ_SCALE)
                    .wrapping_add(1),
                0x18u8,
            )
        } else {
            (0u32, 0x08u8)
        };
        (
            (pkt.seq.saturating_sub(1) as u32).wrapping_mul(DATA_SEQ_SCALE),
            ack_no,
            flags,
        )
    } else {
        // ACK; cumulative ack = first unreceived byte.
        (
            0,
            (pkt.seq as u32)
                .wrapping_mul(DATA_SEQ_SCALE)
                .wrapping_add(1),
            0x10,
        )
    };
    let mut tcp = Vec::with_capacity(20);
    tcp.extend_from_slice(&sport.to_be_bytes());
    tcp.extend_from_slice(&dport.to_be_bytes());
    tcp.extend_from_slice(&seq_no.to_be_bytes());
    tcp.extend_from_slice(&ack_no.to_be_bytes());
    tcp.push(0x50); // data offset 5
    tcp.push(flags);
    tcp.extend_from_slice(&8192u16.to_be_bytes()); // window
    tcp.extend_from_slice(&[0, 0]); // checksum (payload bytes are virtual)
    tcp.extend_from_slice(&[0, 0]); // urgent

    ip.extend_from_slice(&tcp);
    ip
}

fn collect(trace: &Trace, point: CapturePoint) -> Vec<Frame> {
    trace
        .records()
        .iter()
        .filter_map(|r| {
            let pkt = match (point, r.ev) {
                (CapturePoint::ChannelWire(ch), TraceEvent::TxEnd { ch: c, pkt, .. })
                    if c == ch =>
                {
                    Some(pkt)
                }
                (CapturePoint::AllSends, TraceEvent::Send { pkt, .. }) => Some(pkt),
                _ => None,
            }?;
            let bytes = synthesize(&pkt);
            Some(Frame {
                t: r.t,
                orig_len: (pkt.size).max(bytes.len() as u32),
                bytes,
            })
        })
        .collect()
}

/// Render a trace to libpcap bytes.
pub fn to_pcap_bytes(trace: &Trace, point: CapturePoint) -> Vec<u8> {
    let frames = collect(trace, point);
    let mut out = Vec::with_capacity(24 + frames.len() * 64);
    out.extend_from_slice(&PCAP_MAGIC.to_le_bytes());
    out.extend_from_slice(&2u16.to_le_bytes()); // major
    out.extend_from_slice(&4u16.to_le_bytes()); // minor
    out.extend_from_slice(&0i32.to_le_bytes()); // thiszone
    out.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
    out.extend_from_slice(&65_535u32.to_le_bytes()); // snaplen
    out.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());
    for f in &frames {
        let nanos = f.t.as_nanos();
        let secs = (nanos / 1_000_000_000) as u32;
        let micros = (nanos % 1_000_000_000 / 1000) as u32;
        out.extend_from_slice(&secs.to_le_bytes());
        out.extend_from_slice(&micros.to_le_bytes());
        out.extend_from_slice(&(f.bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(&f.orig_len.to_le_bytes());
        out.extend_from_slice(&f.bytes);
    }
    out
}

/// Write a pcap file (creating parent directories). The write is atomic
/// ([`td_engine::write_atomic`]), so a crash can't leave a torn capture.
pub fn write_pcap(trace: &Trace, point: CapturePoint, path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    td_engine::write_atomic(path, &to_pcap_bytes(trace, point))
}

/// A `tcpdump`-style one-line-per-packet text rendering.
pub fn text_dump(trace: &Trace, point: CapturePoint, limit: usize) -> String {
    let mut out = String::new();
    let mut n = 0;
    for r in trace.records() {
        let pkt = match (point, r.ev) {
            (CapturePoint::ChannelWire(ch), TraceEvent::TxEnd { ch: c, pkt, .. }) if c == ch => pkt,
            (CapturePoint::AllSends, TraceEvent::Send { pkt, .. }) => pkt,
            _ => continue,
        };
        if n >= limit {
            out.push_str("...\n");
            break;
        }
        n += 1;
        let kind = if pkt.is_data() {
            format!(
                "seq {}:{}",
                (pkt.seq - 1) * DATA_SEQ_SCALE as u64,
                pkt.seq * DATA_SEQ_SCALE as u64
            )
        } else {
            format!("ack {}", pkt.seq * DATA_SEQ_SCALE as u64 + 1)
        };
        out.push_str(&format!(
            "{:>12.6} IP 10.0.0.{}.{} > 10.0.0.{}.{}: {} {}, length {}\n",
            r.t.as_secs_f64(),
            pkt.src.0 + 1,
            10_000 + pkt.conn.0,
            pkt.dst.0 + 1,
            20_000 + pkt.conn.0,
            if pkt.retx {
                "Flags [P] (retransmission)"
            } else {
                "Flags [P]"
            },
            kind,
            pkt.size
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{ConnId, NodeId, PacketId, PacketKind};
    use crate::trace::Trace;

    fn data_pkt(seq: u64) -> Packet {
        Packet {
            id: PacketId(seq),
            conn: ConnId(3),
            kind: PacketKind::Data,
            seq,
            size: 500,
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: SimTime::ZERO,
            retx: false,
            ce: false,
            ack: 0,
        }
    }

    fn ack_pkt(seq: u64) -> Packet {
        Packet {
            kind: PacketKind::Ack,
            size: 50,
            src: NodeId(1),
            dst: NodeId(0),
            ..data_pkt(seq)
        }
    }

    fn sample_trace() -> Trace {
        let mut tr = Trace::new();
        let ch = ChannelId(4);
        tr.push(
            SimTime::from_millis(80),
            TraceEvent::TxEnd {
                ch,
                pkt: data_pkt(1),
                qlen_after: 0,
            },
        );
        tr.push(
            SimTime::from_millis(96),
            TraceEvent::TxEnd {
                ch: ChannelId(5),
                pkt: ack_pkt(1),
                qlen_after: 0,
            },
        );
        tr.push(
            SimTime::from_millis(160),
            TraceEvent::TxEnd {
                ch,
                pkt: data_pkt(2),
                qlen_after: 0,
            },
        );
        tr
    }

    #[test]
    fn pcap_header_is_well_formed() {
        let bytes = to_pcap_bytes(&sample_trace(), CapturePoint::ChannelWire(ChannelId(4)));
        assert_eq!(&bytes[0..4], &PCAP_MAGIC.to_le_bytes());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 4);
        assert_eq!(
            u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]),
            LINKTYPE_RAW
        );
    }

    #[test]
    fn frames_filtered_by_channel() {
        let bytes = to_pcap_bytes(&sample_trace(), CapturePoint::ChannelWire(ChannelId(4)));
        // 24-byte global header + 2 frames of (16 + 40) bytes.
        assert_eq!(bytes.len(), 24 + 2 * (16 + 40));
    }

    #[test]
    fn frame_timestamps_and_lengths() {
        let bytes = to_pcap_bytes(&sample_trace(), CapturePoint::ChannelWire(ChannelId(4)));
        let rec = &bytes[24..];
        let secs = u32::from_le_bytes([rec[0], rec[1], rec[2], rec[3]]);
        let micros = u32::from_le_bytes([rec[4], rec[5], rec[6], rec[7]]);
        assert_eq!((secs, micros), (0, 80_000));
        let caplen = u32::from_le_bytes([rec[8], rec[9], rec[10], rec[11]]);
        let origlen = u32::from_le_bytes([rec[12], rec[13], rec[14], rec[15]]);
        assert_eq!(caplen, 40, "IPv4 + TCP headers");
        assert_eq!(origlen, 500, "simulated wire size");
    }

    #[test]
    fn ipv4_header_fields_are_sane() {
        let bytes = to_pcap_bytes(&sample_trace(), CapturePoint::ChannelWire(ChannelId(4)));
        let ip = &bytes[24 + 16..24 + 16 + 20];
        assert_eq!(ip[0], 0x45, "IPv4, IHL 5");
        assert_eq!(ip[9], 6, "protocol TCP");
        assert_eq!(&ip[12..16], &[10, 0, 0, 1], "src 10.0.0.1");
        assert_eq!(&ip[16..20], &[10, 0, 0, 2], "dst 10.0.0.2");
        // Verify the checksum we wrote makes the header sum to zero.
        assert_eq!(ipv4_checksum(ip), 0);
    }

    #[test]
    fn tcp_seq_and_ports_encode_connection() {
        let bytes = to_pcap_bytes(&sample_trace(), CapturePoint::ChannelWire(ChannelId(4)));
        let tcp = &bytes[24 + 16 + 20..24 + 16 + 40];
        let sport = u16::from_be_bytes([tcp[0], tcp[1]]);
        let dport = u16::from_be_bytes([tcp[2], tcp[3]]);
        assert_eq!((sport, dport), (10_003, 20_003), "conn 3");
        let seq = u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]);
        assert_eq!(seq, 0, "first data packet starts at byte 0");
    }

    #[test]
    fn ack_frames_set_ack_flag_and_number() {
        let bytes = to_pcap_bytes(&sample_trace(), CapturePoint::ChannelWire(ChannelId(5)));
        let tcp = &bytes[24 + 16 + 20..24 + 16 + 40];
        assert_eq!(tcp[13] & 0x10, 0x10, "ACK flag");
        let ack = u32::from_be_bytes([tcp[8], tcp[9], tcp[10], tcp[11]]);
        assert_eq!(ack, 501, "cumulative ack of seq 1 = byte 500 + 1");
    }

    #[test]
    fn all_sends_capture_point() {
        let mut tr = Trace::new();
        tr.push(
            SimTime::ZERO,
            TraceEvent::Send {
                node: NodeId(0),
                pkt: data_pkt(1),
            },
        );
        let bytes = to_pcap_bytes(&tr, CapturePoint::AllSends);
        assert_eq!(bytes.len(), 24 + 16 + 40);
    }

    #[test]
    fn text_dump_is_readable_and_limited() {
        let dump = text_dump(&sample_trace(), CapturePoint::ChannelWire(ChannelId(4)), 1);
        assert!(dump.contains("10.0.0.1.10003 > 10.0.0.2.20003"));
        assert!(dump.contains("seq 0:500"));
        assert!(dump.ends_with("...\n"), "limit marker: {dump}");
    }

    #[test]
    fn write_pcap_creates_file() {
        let dir = std::env::temp_dir().join("td-net-pcap-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("out/trace.pcap");
        write_pcap(&sample_trace(), CapturePoint::AllSends, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(&bytes[0..4], &PCAP_MAGIC.to_le_bytes());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[cfg(test)]
mod piggyback_tests {
    use super::*;
    use crate::packet::{ConnId, NodeId, PacketId, PacketKind};
    use crate::trace::{Trace, TraceEvent};
    use td_engine::SimTime;

    #[test]
    fn duplex_data_encodes_piggyback_ack() {
        let pkt = Packet {
            id: PacketId(9),
            conn: ConnId(1),
            kind: PacketKind::Data,
            seq: 5,
            ack: 7, // piggybacked cumulative ack
            size: 500,
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: SimTime::ZERO,
            retx: false,
            ce: false,
        };
        let mut tr = Trace::new();
        tr.push(
            SimTime::ZERO,
            TraceEvent::Send {
                node: NodeId(0),
                pkt,
            },
        );
        let bytes = to_pcap_bytes(&tr, CapturePoint::AllSends);
        let tcp = &bytes[24 + 16 + 20..24 + 16 + 40];
        assert_eq!(tcp[13] & 0x18, 0x18, "PSH|ACK on piggybacking data");
        let ack = u32::from_be_bytes([tcp[8], tcp[9], tcp[10], tcp[11]]);
        assert_eq!(ack, 7 * 500 + 1);
        let seq = u32::from_be_bytes([tcp[4], tcp[5], tcp[6], tcp[7]]);
        assert_eq!(seq, 4 * 500);
    }
}
