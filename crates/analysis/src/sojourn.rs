//! Per-packet queueing delay (sojourn) at a channel.
//!
//! §4.3.1 explains the two-way utilization plateau through the *effective
//! pipe*: "whenever an ACK packet has to wait in a queue, the queueing
//! delay has the same effect as increasing the pipe size". This module
//! measures exactly that wait — the time from a packet's acceptance into a
//! buffer to the end of its serialization — so the experiments can show
//! the ACK sojourn growing with the other connection's window (and hence
//! with the buffer), which is why bigger buffers never help.

use crate::stream::{StreamAnalyzer, StreamSpec};
use td_engine::{SimDuration, SimTime};
use td_net::{ChannelId, Packet, Trace};

/// One packet's passage through a channel buffer.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Sojourn {
    /// The packet.
    pub pkt: Packet,
    /// When it was accepted into the buffer.
    pub enqueued: SimTime,
    /// Queueing + serialization time (enqueue → TxEnd).
    pub delay: SimDuration,
}

/// All completed sojourns at `ch` whose *departure* falls in `[t0, t1]`:
/// a one-measurement [`StreamSpec`] replayed over the stored trace, like
/// the [`extract`](crate::extract) functions.
pub fn sojourns(trace: &Trace, ch: ChannelId, t0: SimTime, t1: SimTime) -> Vec<Sojourn> {
    let mut m = StreamAnalyzer::replay(&StreamSpec::new().sojourns(ch, t0, t1), trace);
    m.sojourns.pop().expect("one channel in the spec").1
}

/// Mean sojourn of ACK packets at a channel over the window, in seconds
/// (`None` if no ACK completed). The §4.3.1 "effective pipe" contribution.
pub fn mean_ack_sojourn(trace: &Trace, ch: ChannelId, t0: SimTime, t1: SimTime) -> Option<f64> {
    StreamAnalyzer::replay(&StreamSpec::new().sojourns(ch, t0, t1), trace).mean_ack_sojourn(ch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_net::{ConnId, NodeId, PacketId, PacketKind, TraceEvent};

    fn pkt(id: u64, kind: PacketKind) -> Packet {
        Packet {
            id: PacketId(id),
            conn: ConnId(0),
            kind,
            seq: id,
            ack: 0,
            size: if kind == PacketKind::Ack { 50 } else { 500 },
            src: NodeId(0),
            dst: NodeId(1),
            sent_at: SimTime::ZERO,
            retx: false,
            ce: false,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn pairs_enqueue_with_txend() {
        let mut tr = Trace::new();
        let ch = ChannelId(0);
        let p = pkt(1, PacketKind::Data);
        tr.push(
            t(100),
            TraceEvent::Enqueue {
                ch,
                pkt: p,
                qlen_after: 1,
            },
        );
        tr.push(
            t(180),
            TraceEvent::TxEnd {
                ch,
                pkt: p,
                qlen_after: 0,
            },
        );
        let s = sojourns(&tr, ch, SimTime::ZERO, t(1000));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].delay, SimDuration::from_millis(80));
        assert_eq!(s[0].enqueued, t(100));
    }

    #[test]
    fn dropped_packets_have_no_sojourn() {
        let mut tr = Trace::new();
        let ch = ChannelId(0);
        let p = pkt(1, PacketKind::Data);
        tr.push(
            t(100),
            TraceEvent::Enqueue {
                ch,
                pkt: p,
                qlen_after: 1,
            },
        );
        tr.push(
            t(120),
            TraceEvent::Drop {
                ch,
                pkt: p,
                reason: td_net::DropReason::BufferFull,
                qlen: 20,
            },
        );
        assert!(sojourns(&tr, ch, SimTime::ZERO, t(1000)).is_empty());
    }

    #[test]
    fn window_filters_departures() {
        let mut tr = Trace::new();
        let ch = ChannelId(0);
        for (id, enq, dep) in [(1u64, 0u64, 100u64), (2, 100, 600)] {
            let p = pkt(id, PacketKind::Data);
            tr.push(
                t(enq),
                TraceEvent::Enqueue {
                    ch,
                    pkt: p,
                    qlen_after: 1,
                },
            );
            tr.push(
                t(dep),
                TraceEvent::TxEnd {
                    ch,
                    pkt: p,
                    qlen_after: 0,
                },
            );
        }
        let s = sojourns(&tr, ch, t(500), t(1000));
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].pkt.id, PacketId(2));
    }

    #[test]
    fn ack_mean_only_counts_acks() {
        let mut tr = Trace::new();
        let ch = ChannelId(0);
        let d = pkt(1, PacketKind::Data);
        let a = pkt(2, PacketKind::Ack);
        tr.push(
            t(0),
            TraceEvent::Enqueue {
                ch,
                pkt: d,
                qlen_after: 1,
            },
        );
        tr.push(
            t(80),
            TraceEvent::TxEnd {
                ch,
                pkt: d,
                qlen_after: 0,
            },
        );
        tr.push(
            t(80),
            TraceEvent::Enqueue {
                ch,
                pkt: a,
                qlen_after: 1,
            },
        );
        tr.push(
            t(120),
            TraceEvent::TxEnd {
                ch,
                pkt: a,
                qlen_after: 0,
            },
        );
        let m = mean_ack_sojourn(&tr, ch, SimTime::ZERO, t(1000)).unwrap();
        assert!((m - 0.040).abs() < 1e-9);
        assert!(mean_ack_sojourn(&tr, ChannelId(9), SimTime::ZERO, t(1000)).is_none());
    }
}
