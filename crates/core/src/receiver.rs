//! The receive half every receiving endpoint is built from, and the TCP
//! receiver (data sink).
//!
//! Mirrors the BSD 4.3-Tahoe receive path for the paper's workload
//! (one-directional bulk transfer, pre-established connection):
//!
//! * Cumulative ACKs: every ACK carries the highest in-order sequence
//!   number received.
//! * A reassembly queue holds out-of-order segments, so one retransmission
//!   can be acknowledged together with everything buffered behind it.
//! * Out-of-order and duplicate data trigger an *immediate* ACK — these
//!   duplicate ACKs are the sender's fast-retransmit signal.
//! * The delayed-ACK option (paper §2.1/§5): in-order data is not ACKed
//!   until a second segment arrives or a conservative timer fires. The
//!   paper's third trigger — piggy-backing on reverse-direction data —
//!   cannot arise in this workload, where each connection is one-way and
//!   reverse traffic belongs to a *different* connection.
//!
//! [`RecvHalf`] is the first two points, shared by [`TcpReceiver`] and
//! [`crate::TcpDuplex`]; when an ACK goes out is each endpoint's policy.

use crate::config::ReceiverConfig;
use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;
use td_engine::{SnapError, SnapReader, SnapWriter};
use td_net::{Ctx, Endpoint, Packet, PacketKind, ProtoEvent};

pub(crate) const TOKEN_DELACK: u64 = 2;

/// How [`RecvHalf::on_data`] classified an arriving data segment.
pub(crate) enum Arrival {
    /// Already delivered (a go-back-N retransmission).
    Duplicate,
    /// A hole precedes it; buffered for reassembly.
    OutOfOrder,
    /// Delivered, with this many in all (reassembly drained behind it).
    InOrder(u64),
}

/// Reassembly and the cumulative acknowledgment point for one direction
/// of data.
pub(crate) struct RecvHalf {
    /// Next in-order sequence number expected (first is 1).
    next_expected: u64,
    /// Out-of-order segments above `next_expected` (reassembly queue).
    reassembly: BTreeSet<u64>,
    /// An ACK of in-order data is being held back.
    pub(crate) ack_pending: bool,
    /// A CE-marked data packet arrived since the last ACK went out; the
    /// next ACK echoes the mark (DECbit feedback path).
    pub(crate) ce_pending: bool,
}

impl Default for RecvHalf {
    fn default() -> Self {
        RecvHalf {
            next_expected: 1,
            reassembly: BTreeSet::new(),
            ack_pending: false,
            ce_pending: false,
        }
    }
}

impl RecvHalf {
    /// Highest in-order sequence number received so far.
    pub(crate) fn cumulative_ack(&self) -> u64 {
        self.next_expected - 1
    }

    /// Take in a data segment: note its CE mark, buffer or deliver it, and
    /// emit [`ProtoEvent::InOrder`] when the cumulative point advances.
    pub(crate) fn on_data(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> Arrival {
        self.ce_pending |= pkt.ce;
        let seq = pkt.seq;
        if seq < self.next_expected {
            return Arrival::Duplicate;
        }
        if seq > self.next_expected {
            self.reassembly.insert(seq);
            return Arrival::OutOfOrder;
        }
        // In order: deliver it plus anything contiguous in the reassembly
        // queue.
        let first = self.next_expected;
        self.next_expected += 1;
        while self.reassembly.remove(&self.next_expected) {
            self.next_expected += 1;
        }
        ctx.emit(ProtoEvent::InOrder {
            seq: self.cumulative_ack(),
        });
        Arrival::InOrder(self.next_expected - first)
    }

    /// Send a pure ACK of the cumulative point, echoing any pending CE
    /// mark; nothing is held back afterwards.
    pub(crate) fn send_ack(&mut self, ctx: &mut Ctx<'_>, size: u32) {
        self.ack_pending = false;
        let ce = std::mem::take(&mut self.ce_pending);
        ctx.send_marked(PacketKind::Ack, self.cumulative_ack(), size, false, ce);
    }

    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.write_u64(self.next_expected);
        w.write_u64(self.reassembly.len() as u64);
        for seq in &self.reassembly {
            w.write_u64(*seq); // BTreeSet iterates sorted: deterministic
        }
        w.write_bool(self.ack_pending);
        w.write_bool(self.ce_pending);
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.next_expected = r.read_u64()?;
        let n = r.read_len()?;
        self.reassembly.clear();
        for _ in 0..n {
            self.reassembly.insert(r.read_u64()?);
        }
        self.ack_pending = r.read_bool()?;
        self.ce_pending = r.read_bool()?;
        Ok(())
    }
}

/// Counters exposed after a run.
#[derive(Clone, Copy, Default, Debug)]
pub struct ReceiverStats {
    /// Data packets delivered in order (including via reassembly).
    pub delivered: u64,
    /// Data packets that arrived out of order.
    pub out_of_order: u64,
    /// Data packets that were duplicates of already-delivered data.
    pub duplicates: u64,
    /// ACK packets transmitted.
    pub acks_sent: u64,
    /// ACKs that were delayed and then coalesced with a later segment's.
    pub acks_coalesced: u64,
}

/// The receiving endpoint of one connection.
pub struct TcpReceiver {
    /// Shared by every receiver built from the same config.
    cfg: Arc<ReceiverConfig>,
    rcv: RecvHalf,
    stats: ReceiverStats,
}

impl TcpReceiver {
    /// A fresh receiver. Pass an `Arc<ReceiverConfig>` clone to share one
    /// config among many receivers.
    pub fn new(cfg: impl Into<Arc<ReceiverConfig>>) -> Self {
        TcpReceiver {
            cfg: cfg.into(),
            rcv: RecvHalf::default(),
            stats: ReceiverStats::default(),
        }
    }

    /// A boxed receiver, ready for [`td_net::World::attach`].
    pub fn boxed(cfg: impl Into<Arc<ReceiverConfig>>) -> Box<dyn Endpoint> {
        Box::new(Self::new(cfg))
    }

    /// Run counters.
    pub fn stats(&self) -> ReceiverStats {
        self.stats
    }

    /// Highest in-order sequence number received so far.
    pub fn cumulative_ack(&self) -> u64 {
        self.rcv.cumulative_ack()
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.acks_sent += 1;
        self.rcv.send_ack(ctx, self.cfg.ack_size);
    }
}

impl Endpoint for TcpReceiver {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        debug_assert!(pkt.is_data(), "receiver got a non-data packet");
        // Every arrival is ACKed at once unless the delayed-ACK option
        // holds it. BSD ACKs duplicates immediately even with delayed ACKs
        // on; an out-of-order ACK is the duplicate ACK that drives fast
        // retransmit.
        match self.rcv.on_data(ctx, &pkt) {
            Arrival::Duplicate => self.stats.duplicates += 1,
            Arrival::OutOfOrder => self.stats.out_of_order += 1,
            Arrival::InOrder(n) => {
                self.stats.delivered += n;
                match self.cfg.delayed_ack {
                    None => {}
                    // Second segment since the last ACK: ACK both now.
                    Some(_) if self.rcv.ack_pending => self.stats.acks_coalesced += 1,
                    Some(del) => {
                        self.rcv.ack_pending = true;
                        ctx.set_timer(del.max_delay, TOKEN_DELACK);
                        return;
                    }
                }
            }
        }
        self.send_ack(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        debug_assert_eq!(token, TOKEN_DELACK);
        // The timer is not cancelled when the ACK goes out early; it just
        // finds nothing to do (cheaper than tracking handles, identical
        // behaviour).
        if self.rcv.ack_pending {
            self.send_ack(ctx);
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.rcv.save_state(w);
        w.write_u64(self.stats.delivered);
        w.write_u64(self.stats.out_of_order);
        w.write_u64(self.stats.duplicates);
        w.write_u64(self.stats.acks_sent);
        w.write_u64(self.stats.acks_coalesced);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rcv.load_state(r)?;
        self.stats.delivered = r.read_u64()?;
        self.stats.out_of_order = r.read_u64()?;
        self.stats.duplicates = r.read_u64()?;
        self.stats.acks_sent = r.read_u64()?;
        self.stats.acks_coalesced = r.read_u64()?;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn progress(&self) -> td_net::EndpointProgress {
        td_net::EndpointProgress {
            // A receiver never knows how much data is coming; it opts out
            // of stall attribution but still describes its state.
            finished: None,
            detail: format!(
                "next_expected={} reassembly={}",
                self.rcv.next_expected,
                self.rcv.reassembly.len()
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayedAck;
    use std::any::Any;
    use td_engine::{Rate, SimDuration, SimTime};
    use td_net::{ConnId, DisciplineKind, NodeId, TraceEvent, World};

    /// Scripted data source: sends a fixed list of (time, seq) data packets.
    struct Script {
        sends: Vec<(SimTime, u64)>,
        acks: Vec<u64>,
    }
    impl Endpoint for Script {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            // Arm a timer per scheduled send; token = index.
            for (i, (t, _)) in self.sends.iter().enumerate() {
                ctx.set_timer(t.since(SimTime::ZERO), i as u64);
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx<'_>, pkt: Packet) {
            assert!(pkt.is_ack());
            self.acks.push(pkt.seq);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
            let (_, seq) = self.sends[token as usize];
            ctx.send(PacketKind::Data, seq, 500, false);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Fast symmetric world: negligible delays so ordering is the script's.
    fn run_script(
        sends: Vec<(SimTime, u64)>,
        cfg: ReceiverConfig,
    ) -> (Vec<u64>, ReceiverStats, u64) {
        let mut w = World::new(1);
        let h0 = w.add_host("src", SimDuration::from_nanos(1));
        let h1 = w.add_host("dst", SimDuration::from_nanos(1));
        for (a, b) in [(h0, h1), (h1, h0)] {
            w.add_channel(
                a,
                b,
                Rate::from_mbps(1000),
                SimDuration::from_nanos(1),
                None,
                DisciplineKind::DropTail.build(),
            );
        }
        let src = w.attach(
            h0,
            h1,
            ConnId(0),
            Box::new(Script {
                sends,
                acks: vec![],
            }),
        );
        let dst = w.attach(h1, h0, ConnId(0), TcpReceiver::boxed(cfg));
        w.start_at(src, SimTime::ZERO);
        w.run_to_completion();
        let acks = w
            .endpoint(src)
            .unwrap()
            .as_any()
            .downcast_ref::<Script>()
            .unwrap()
            .acks
            .clone();
        let rx = w
            .endpoint(dst)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpReceiver>()
            .unwrap();
        let ack_bytes: u64 = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::Send {
                    node: NodeId(1),
                    pkt,
                } => Some(pkt.size as u64),
                _ => None,
            })
            .sum();
        (acks, rx.stats(), ack_bytes)
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn in_order_data_is_acked_cumulatively() {
        let (acks, st, _) = run_script(
            vec![(at(1), 1), (at(2), 2), (at(3), 3)],
            ReceiverConfig::paper(),
        );
        assert_eq!(acks, vec![1, 2, 3]);
        assert_eq!(st.delivered, 3);
        assert_eq!(st.acks_sent, 3);
        assert_eq!(st.out_of_order, 0);
    }

    #[test]
    fn hole_generates_duplicate_acks_then_jump() {
        // 1 arrives, 3 and 4 arrive (2 missing), then 2 arrives.
        let (acks, st, _) = run_script(
            vec![(at(1), 1), (at(2), 3), (at(3), 4), (at(4), 2)],
            ReceiverConfig::paper(),
        );
        // ACK 1, dup ACK 1, dup ACK 1, then the jump to 4.
        assert_eq!(acks, vec![1, 1, 1, 4]);
        assert_eq!(st.delivered, 4);
        assert_eq!(st.out_of_order, 2);
    }

    #[test]
    fn duplicate_data_acked_immediately() {
        let (acks, st, _) = run_script(
            vec![(at(1), 1), (at(2), 2), (at(3), 1)],
            ReceiverConfig::paper(),
        );
        assert_eq!(acks, vec![1, 2, 2]);
        assert_eq!(st.duplicates, 1);
        assert_eq!(st.delivered, 2);
    }

    #[test]
    fn delayed_ack_coalesces_pairs() {
        let cfg = ReceiverConfig {
            delayed_ack: Some(DelayedAck {
                max_delay: SimDuration::from_millis(200),
            }),
            ..ReceiverConfig::paper()
        };
        // Four quick segments → two coalesced ACKs (2 and 4).
        let (acks, st, _) = run_script(vec![(at(1), 1), (at(2), 2), (at(3), 3), (at(4), 4)], cfg);
        assert_eq!(acks, vec![2, 4]);
        assert_eq!(st.acks_sent, 2);
        assert_eq!(st.acks_coalesced, 2);
    }

    #[test]
    fn delayed_ack_timer_fires_for_lone_segment() {
        let cfg = ReceiverConfig {
            delayed_ack: Some(DelayedAck {
                max_delay: SimDuration::from_millis(200),
            }),
            ..ReceiverConfig::paper()
        };
        let (acks, st, _) = run_script(vec![(at(1), 1)], cfg);
        assert_eq!(acks, vec![1], "timer must flush the withheld ACK");
        assert_eq!(st.acks_sent, 1);
        assert_eq!(st.acks_coalesced, 0);
    }

    #[test]
    fn delayed_ack_out_of_order_is_immediate() {
        let cfg = ReceiverConfig {
            delayed_ack: Some(DelayedAck {
                max_delay: SimDuration::from_millis(200),
            }),
            ..ReceiverConfig::paper()
        };
        // Segment 2 arrives first: must be ACKed at once despite delack.
        let (acks, _, _) = run_script(vec![(at(1), 2), (at(2), 1)], cfg);
        assert_eq!(acks[0], 0, "immediate dup ACK of nothing-received");
        assert_eq!(*acks.last().unwrap(), 2);
    }

    #[test]
    fn zero_size_acks_send_no_bytes() {
        let (acks, _, ack_bytes) =
            run_script(vec![(at(1), 1), (at(2), 2)], ReceiverConfig::zero_ack());
        assert_eq!(acks, vec![1, 2]);
        assert_eq!(ack_bytes, 0);
    }

    #[test]
    fn reassembly_handles_arbitrary_permutation() {
        // 5,3,1,4,2 → in-order delivery of all five.
        let (acks, st, _) = run_script(
            vec![(at(1), 5), (at(2), 3), (at(3), 1), (at(4), 4), (at(5), 2)],
            ReceiverConfig::paper(),
        );
        assert_eq!(st.delivered, 5);
        assert_eq!(*acks.last().unwrap(), 5);
        assert_eq!(acks, vec![0, 0, 1, 1, 5]);
    }
}
