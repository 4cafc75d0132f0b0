//! Trace → measurement extraction.
//!
//! The raw materials every paper analysis is built from, taken from a
//! stored [`Trace`]. Each function is a one-measurement [`StreamSpec`]
//! replayed through [`StreamAnalyzer::replay`] — the fold in
//! [`crate::stream`] is their only implementation, and the literal-value
//! tests below are its value tests. All of them panic on a trace that is
//! disabled and empty (see [`StreamAnalyzer::replay`]).

use crate::epochs::DropEvent;
use crate::series::TimeSeries;
use crate::stream::{StreamAnalyzer, StreamSpec};
use td_engine::{SimDuration, SimTime};
use td_net::{ChannelId, ConnId, NodeId, Packet, Trace};

/// Buffer-occupancy time series of one channel (waiting + in-service
/// packets, exactly the "packet queue at the switch" the paper plots).
pub fn queue_series(trace: &Trace, ch: ChannelId) -> TimeSeries {
    let mut m = StreamAnalyzer::replay(&StreamSpec::new().queue(ch), trace);
    m.queues.pop().expect("one queue in the spec").1
}

/// Congestion-window time series of one connection, from the sender's
/// `Cwnd` annotations.
pub fn cwnd_series(trace: &Trace, conn: ConnId) -> TimeSeries {
    let mut m = StreamAnalyzer::replay(&StreamSpec::new().cwnd(conn), trace);
    m.cwnds.pop().expect("one cwnd in the spec").1
}

/// All buffer-overflow and fault drops, in time order.
pub fn drop_events(trace: &Trace) -> Vec<DropEvent> {
    StreamAnalyzer::replay(&StreamSpec::new().drops(), trace)
        .drops
        .expect("drops in the spec")
}

/// Fraction of dropped packets that were data packets (the paper's §3.2
/// claim: 99.8 % in the ten-connection run). `None` if nothing dropped.
pub fn data_drop_fraction(trace: &Trace) -> Option<f64> {
    StreamAnalyzer::replay(&StreamSpec::new().drops(), trace).data_drop_fraction()
}

/// One packet leaving a channel (finishing serialization) or reaching an
/// endpoint.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Departure {
    /// When its last bit left (or when it was delivered).
    pub t: SimTime,
    /// The packet.
    pub pkt: Packet,
}

/// Departures (TxEnd) of a channel, in time order — the sequence whose
/// adjacency structure defines packet clustering.
pub fn departures(trace: &Trace, ch: ChannelId) -> Vec<Departure> {
    let mut m = StreamAnalyzer::replay(&StreamSpec::new().departures(ch), trace);
    m.departures.pop().expect("one channel in the spec").1
}

/// Deliveries of packets to an endpoint on `node`, filtered to one
/// connection and (optionally) to ACKs only. Used for ACK-spacing
/// analysis at a data source.
pub fn deliveries(trace: &Trace, node: NodeId, conn: ConnId, acks_only: bool) -> Vec<Departure> {
    let spec = StreamSpec::new().deliveries(node, conn, acks_only);
    let mut m = StreamAnalyzer::replay(&spec, trace);
    m.deliveries.pop().expect("one endpoint in the spec").1
}

/// Fraction of `[t0, t1]` a channel's transmitter was serializing,
/// computed from `TxStart`/`TxEnd` pairs clipped to the window.
pub fn utilization_in(trace: &Trace, ch: ChannelId, t0: SimTime, t1: SimTime) -> f64 {
    StreamAnalyzer::replay(&StreamSpec::new().utilization(ch, t0, t1), trace).utilization(ch)
}

/// Count of data packets delivered to `node` for `conn` in `[t0, t1]` —
/// per-connection goodput measurement.
pub fn delivered_in(trace: &Trace, node: NodeId, conn: ConnId, t0: SimTime, t1: SimTime) -> u64 {
    StreamAnalyzer::replay(&StreamSpec::new().delivered(node, conn, t0, t1), trace)
        .delivered(node, conn)
}

/// Per-connection goodput as a step series: data packets delivered to
/// `node` for `conn`, counted in consecutive bins of width `bin` over
/// `[t0, t1]`, expressed in packets/second. The paper's out-of-phase mode
/// is a bandwidth see-saw ("during this time the other connection is
/// getting most of the bandwidth", §4.3.1); this series makes it visible.
pub fn goodput_series(
    trace: &Trace,
    node: NodeId,
    conn: ConnId,
    t0: SimTime,
    t1: SimTime,
    bin: SimDuration,
) -> TimeSeries {
    let spec = StreamSpec::new().goodput(node, conn, t0, t1, bin);
    let mut m = StreamAnalyzer::replay(&spec, trace);
    m.goodputs.pop().expect("one goodput in the spec").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_net::{DropReason, PacketId, PacketKind, ProtoEvent, TraceEvent};

    pub(super) fn pkt(conn: u32, seq: u64, kind: PacketKind) -> Packet {
        Packet {
            id: PacketId(seq),
            conn: ConnId(conn),
            kind,
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

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn queue_series_follows_enqueue_and_txend() {
        let mut tr = Trace::new();
        let ch = ChannelId(0);
        let p = pkt(0, 1, PacketKind::Data);
        tr.push(
            t(0),
            TraceEvent::Enqueue {
                ch,
                pkt: p,
                qlen_after: 1,
            },
        );
        tr.push(
            t(1),
            TraceEvent::Enqueue {
                ch,
                pkt: p,
                qlen_after: 2,
            },
        );
        tr.push(
            t(2),
            TraceEvent::TxEnd {
                ch,
                pkt: p,
                qlen_after: 1,
            },
        );
        tr.push(
            t(3),
            TraceEvent::Enqueue {
                ch: ChannelId(9),
                pkt: p,
                qlen_after: 77,
            },
        );
        let ts = queue_series(&tr, ch);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.value_at(t(1)), Some(2.0));
        assert_eq!(ts.value_at(t(2)), Some(1.0));
        assert_eq!(ts.max_in(t(0), t(10)), Some(2.0));
    }

    #[test]
    fn cwnd_series_filters_by_conn() {
        let mut tr = Trace::new();
        for (ms, conn, cwnd) in [(0u64, 1u32, 1.0), (10, 2, 5.0), (20, 1, 2.0)] {
            tr.push(
                t(ms),
                TraceEvent::Proto {
                    conn: ConnId(conn),
                    node: NodeId(0),
                    ev: ProtoEvent::Cwnd {
                        cwnd,
                        ssthresh: 64.0,
                    },
                },
            );
        }
        let ts = cwnd_series(&tr, ConnId(1));
        assert_eq!(ts.points().len(), 2);
        assert_eq!(ts.value_at(t(25)), Some(2.0));
    }

    #[test]
    fn drop_events_and_data_fraction() {
        let mut tr = Trace::new();
        let ch = ChannelId(0);
        tr.push(
            t(0),
            TraceEvent::Drop {
                ch,
                pkt: pkt(1, 5, PacketKind::Data),
                reason: DropReason::BufferFull,
                qlen: 20,
            },
        );
        tr.push(
            t(1),
            TraceEvent::Drop {
                ch,
                pkt: pkt(2, 9, PacketKind::Ack),
                reason: DropReason::BufferFull,
                qlen: 20,
            },
        );
        tr.push(
            t(2),
            TraceEvent::Drop {
                ch,
                pkt: pkt(1, 6, PacketKind::Data),
                reason: DropReason::Fault,
                qlen: 3,
            },
        );
        let drops = drop_events(&tr);
        assert_eq!(drops.len(), 3);
        assert_eq!(drops[0].conn, ConnId(1));
        assert!(!drops[1].is_data);
        assert_eq!(data_drop_fraction(&tr), Some(2.0 / 3.0));
        assert_eq!(data_drop_fraction(&Trace::new()), None);
    }

    #[test]
    fn utilization_clips_to_window() {
        let mut tr = Trace::new();
        let ch = ChannelId(0);
        let p = pkt(0, 1, PacketKind::Data);
        // Busy [10,30] and [50,70] ms.
        tr.push(t(10), TraceEvent::TxStart { ch, pkt: p });
        tr.push(
            t(30),
            TraceEvent::TxEnd {
                ch,
                pkt: p,
                qlen_after: 0,
            },
        );
        tr.push(t(50), TraceEvent::TxStart { ch, pkt: p });
        tr.push(
            t(70),
            TraceEvent::TxEnd {
                ch,
                pkt: p,
                qlen_after: 0,
            },
        );
        // Whole [0,100]: 40/100.
        assert!((utilization_in(&tr, ch, t(0), t(100)) - 0.4).abs() < 1e-12);
        // Window [20,60]: busy [20,30] + [50,60] = 20/40.
        assert!((utilization_in(&tr, ch, t(20), t(60)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilization_counts_inflight_transmission() {
        let mut tr = Trace::new();
        let ch = ChannelId(0);
        tr.push(
            t(90),
            TraceEvent::TxStart {
                ch,
                pkt: pkt(0, 1, PacketKind::Data),
            },
        );
        // No TxEnd before window end.
        assert!((utilization_in(&tr, ch, t(0), t(100)) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn departures_are_channel_filtered_and_ordered() {
        let mut tr = Trace::new();
        let ch = ChannelId(1);
        for (ms, conn) in [(0u64, 1u32), (80, 1), (160, 2)] {
            tr.push(
                t(ms),
                TraceEvent::TxEnd {
                    ch,
                    pkt: pkt(conn, 1, PacketKind::Data),
                    qlen_after: 0,
                },
            );
        }
        tr.push(
            t(200),
            TraceEvent::TxEnd {
                ch: ChannelId(0),
                pkt: pkt(3, 1, PacketKind::Data),
                qlen_after: 0,
            },
        );
        let d = departures(&tr, ch);
        assert_eq!(d.len(), 3);
        assert_eq!(d[2].pkt.conn, ConnId(2));
    }

    #[test]
    fn deliveries_filter_acks() {
        let mut tr = Trace::new();
        tr.push(
            t(0),
            TraceEvent::Deliver {
                node: NodeId(0),
                pkt: pkt(1, 1, PacketKind::Ack),
            },
        );
        tr.push(
            t(1),
            TraceEvent::Deliver {
                node: NodeId(0),
                pkt: pkt(1, 2, PacketKind::Data),
            },
        );
        tr.push(
            t(2),
            TraceEvent::Deliver {
                node: NodeId(1),
                pkt: pkt(1, 3, PacketKind::Ack),
            },
        );
        tr.push(
            t(3),
            TraceEvent::Deliver {
                node: NodeId(0),
                pkt: pkt(2, 4, PacketKind::Ack),
            },
        );
        let acks = deliveries(&tr, NodeId(0), ConnId(1), true);
        assert_eq!(acks.len(), 1);
        let all = deliveries(&tr, NodeId(0), ConnId(1), false);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn delivered_in_counts_window() {
        let mut tr = Trace::new();
        for ms in [0u64, 10, 20, 30] {
            tr.push(
                t(ms),
                TraceEvent::Deliver {
                    node: NodeId(1),
                    pkt: pkt(1, ms, PacketKind::Data),
                },
            );
        }
        assert_eq!(delivered_in(&tr, NodeId(1), ConnId(1), t(5), t(25)), 2);
    }
}

/// A trace that is off and empty holds no data; every extractor must
/// say so instead of measuring zero.
#[cfg(test)]
mod recorded_nothing_tests {
    use super::*;

    fn off() -> Trace {
        let mut tr = Trace::new();
        tr.set_enabled(false);
        tr
    }

    const CH: ChannelId = ChannelId(0);
    const NODE: NodeId = NodeId(0);
    const CONN: ConnId = ConnId(0);
    const T0: SimTime = SimTime::ZERO;
    const T1: SimTime = SimTime::from_secs(1);

    macro_rules! panics_on_an_off_and_empty_trace {
        ($($name:ident: $call:expr;)*) => {$(
            #[test]
            #[should_panic(expected = "recorded nothing")]
            fn $name() {
                let _ = $call(&off());
            }
        )*};
    }

    panics_on_an_off_and_empty_trace! {
        queue_series_panics: |tr| queue_series(tr, CH);
        cwnd_series_panics: |tr| cwnd_series(tr, CONN);
        drop_events_panics: drop_events;
        data_drop_fraction_panics: data_drop_fraction;
        departures_panics: |tr| departures(tr, CH);
        deliveries_panics: |tr| deliveries(tr, NODE, CONN, true);
        utilization_in_panics: |tr| utilization_in(tr, CH, T0, T1);
        delivered_in_panics: |tr| delivered_in(tr, NODE, CONN, T0, T1);
        goodput_series_panics: |tr| goodput_series(tr, NODE, CONN, T0, T1, SimDuration::from_secs(1));
        sojourns_panics: |tr| crate::sojourn::sojourns(tr, CH, T0, T1);
        mean_ack_sojourn_panics: |tr| crate::sojourn::mean_ack_sojourn(tr, CH, T0, T1);
    }

    /// Off but not empty (recorded, then switched off) is still data.
    #[test]
    fn a_disabled_trace_with_records_replays() {
        let mut tr = Trace::new();
        let pkt = super::tests::pkt(0, 0, td_net::PacketKind::Data);
        tr.push(T0, td_net::TraceEvent::TxStart { ch: CH, pkt });
        tr.set_enabled(false);
        assert_eq!(utilization_in(&tr, CH, T0, T1), 1.0);
    }
}

#[cfg(test)]
mod goodput_tests {
    use super::*;
    use td_net::{PacketId, PacketKind, TraceEvent};

    fn deliver(tr: &mut Trace, ms: u64, conn: u32) {
        tr.push(
            SimTime::from_millis(ms),
            TraceEvent::Deliver {
                node: NodeId(1),
                pkt: Packet {
                    id: PacketId(ms),
                    conn: ConnId(conn),
                    kind: PacketKind::Data,
                    seq: ms,
                    ack: 0,
                    size: 500,
                    src: NodeId(0),
                    dst: NodeId(1),
                    sent_at: SimTime::ZERO,
                    retx: false,
                    ce: false,
                },
            },
        );
    }

    #[test]
    fn bins_count_deliveries_as_rate() {
        let mut tr = Trace::new();
        // 3 deliveries in [0,1)s, 1 in [1,2)s, 0 in [2,3)s.
        for ms in [100u64, 500, 900, 1500] {
            deliver(&mut tr, ms, 0);
        }
        let ts = goodput_series(
            &tr,
            NodeId(1),
            ConnId(0),
            SimTime::ZERO,
            SimTime::from_secs(3),
            SimDuration::from_secs(1),
        );
        assert_eq!(ts.points().len(), 3);
        assert_eq!(ts.value_at(SimTime::from_millis(500)), Some(3.0));
        assert_eq!(ts.value_at(SimTime::from_millis(1500)), Some(1.0));
        assert_eq!(ts.value_at(SimTime::from_millis(2500)), Some(0.0));
    }

    #[test]
    fn filters_conn_and_window() {
        let mut tr = Trace::new();
        deliver(&mut tr, 100, 0);
        deliver(&mut tr, 200, 1); // other connection
        deliver(&mut tr, 5000, 0); // outside window
        let ts = goodput_series(
            &tr,
            NodeId(1),
            ConnId(0),
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
        );
        assert_eq!(ts.value_at(SimTime::from_millis(500)), Some(1.0));
    }

    #[test]
    #[should_panic(expected = "bin width")]
    fn zero_bin_rejected() {
        let tr = Trace::new();
        let _ = goodput_series(
            &tr,
            NodeId(1),
            ConnId(0),
            SimTime::ZERO,
            SimTime::from_secs(1),
            SimDuration::ZERO,
        );
    }
}
