//! Bidirectional TCP with piggybacked acknowledgments.
//!
//! The paper's two-way traffic consists of two *separate* one-way
//! connections, so its delayed-ACK discussion notes a third trigger that
//! can never fire there: "a data packet transmission in the other
//! direction on which the ACK can be piggy-backed" (§2.1). This module
//! supplies the configuration where it does fire: a single connection with
//! bulk data flowing in *both* directions between its two endpoints.
//!
//! A [`TcpDuplex`] endpoint combines the sender and receiver machinery:
//!
//! * every data packet carries a piggybacked cumulative ack
//!   ([`td_net::Packet::ack`]). Whether piggybacks actually replace pure
//!   ACKs depends on the delayed-ACK option: with it **off**, arrivals are
//!   acknowledged immediately, the window is typically closed at that
//!   instant, and the ack goes out pure (the later reverse data carries a
//!   stale number); with it **on**, the held ack rides the next reverse
//!   data packet — the behaviour BSD's option was designed to enable;
//! * pure ACKs are generated only when acknowledgment is urgent (an
//!   out-of-order or duplicate segment — the dup-ACK congestion signal) or
//!   when the window is closed and nothing can carry the ack (after the
//!   delayed-ACK grace period, or immediately with delack off);
//! * duplicate-ACK counting follows BSD: only *pure* ACKs repeating the
//!   cumulative point count toward fast retransmit — data-bearing
//!   segments never do;
//! * loss recovery, RTT estimation (Karn's rule), RTO backoff, and the
//!   congestion-control plumbing are the same as [`crate::TcpSender`]'s.
//!
//! The interesting dynamical consequence, tested in the experiments crate:
//! full piggybacking removes the data/ACK *size asymmetry* that
//! ACK-compression feeds on — every segment serializes in a data-packet
//! time, so the 10× spacing collapse cannot happen.

use crate::cc::CongestionControl;
use crate::config::{ReceiverConfig, SenderConfig};
use crate::rtt::RttEstimator;
use std::any::Any;
use std::collections::BTreeSet;
use td_engine::{SimTime, SnapError, SnapReader, SnapWriter};
use td_net::{Ctx, Endpoint, LossKind, Packet, PacketKind, ProtoEvent, TimerHandle};

const TOKEN_RTO: u64 = 1;
const TOKEN_DELACK: u64 = 2;

/// Counters exposed after a run.
#[derive(Clone, Copy, Default, Debug)]
pub struct DuplexStats {
    /// Data transmissions, including retransmissions.
    pub data_sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Pure (data-less) ACK packets transmitted.
    pub pure_acks_sent: u64,
    /// Acks that rode on outgoing data packets.
    pub piggybacked_acks: u64,
    /// Data packets delivered in order.
    pub delivered: u64,
    /// Fast retransmits triggered.
    pub fast_retransmits: u64,
    /// Timeouts fired.
    pub timeouts: u64,
}

/// One endpoint of a bidirectional TCP connection.
pub struct TcpDuplex {
    scfg: SenderConfig,
    rcfg: ReceiverConfig,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    // -- sender half --
    snd_una: u64,
    snd_nxt: u64,
    snd_max: u64,
    dupacks: u32,
    rto_armed: Option<td_net::TimerHandle>,
    timing: Option<(u64, SimTime)>,
    // -- receiver half --
    next_expected: u64,
    reassembly: BTreeSet<u64>,
    ack_pending: bool,
    ce_pending: bool,
    stats: DuplexStats,
}

impl TcpDuplex {
    /// A fresh duplex endpoint.
    pub fn new(scfg: SenderConfig, rcfg: ReceiverConfig) -> Self {
        assert!(
            scfg.pacing.is_none(),
            "pacing is not supported on duplex endpoints"
        );
        TcpDuplex {
            cc: scfg.cc.build(scfg.maxwnd),
            rtt: RttEstimator::new(scfg.rto),
            scfg,
            rcfg,
            snd_una: 1,
            snd_nxt: 1,
            snd_max: 1,
            dupacks: 0,
            rto_armed: None,
            timing: None,
            next_expected: 1,
            reassembly: BTreeSet::new(),
            ack_pending: false,
            ce_pending: false,
            stats: DuplexStats::default(),
        }
    }

    /// A boxed endpoint, ready for [`td_net::World::attach`].
    pub fn boxed(scfg: SenderConfig, rcfg: ReceiverConfig) -> Box<dyn Endpoint> {
        Box::new(Self::new(scfg, rcfg))
    }

    /// Run counters.
    pub fn stats(&self) -> DuplexStats {
        self.stats
    }

    /// Highest in-order sequence received.
    pub fn cumulative_ack(&self) -> u64 {
        self.next_expected - 1
    }

    /// Usable send window.
    pub fn window(&self) -> u64 {
        self.cc.window().min(self.scfg.maxwnd)
    }

    /// Packets in flight.
    pub fn outstanding(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn emit_cwnd(&mut self, ctx: &mut Ctx<'_>) {
        let (cwnd, ssthresh) = (self.cc.cwnd(), self.cc.ssthresh());
        ctx.emit(ProtoEvent::Cwnd { cwnd, ssthresh });
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(h) = self.rto_armed.take() {
            ctx.cancel_timer(h);
        }
        self.rto_armed = Some(ctx.set_timer(self.rtt.rto(), TOKEN_RTO));
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_>, seq: u64, retx: bool) {
        // Every data packet carries the current cumulative ack.
        let ack = self.cumulative_ack();
        let ce = std::mem::take(&mut self.ce_pending);
        ctx.send_full(PacketKind::Data, seq, ack, self.scfg.data_size, retx, ce);
        self.stats.data_sent += 1;
        if self.ack_pending {
            self.ack_pending = false;
            self.stats.piggybacked_acks += 1;
        }
        if retx {
            self.stats.retransmits += 1;
            ctx.emit(ProtoEvent::Retransmit { seq });
        } else if self.timing.is_none() {
            self.timing = Some((seq, ctx.now()));
        }
        if self.rto_armed.is_none() {
            self.arm_rto(ctx);
        }
    }

    fn send_pure_ack(&mut self, ctx: &mut Ctx<'_>) {
        self.ack_pending = false;
        self.stats.pure_acks_sent += 1;
        let ce = std::mem::take(&mut self.ce_pending);
        ctx.send_marked(
            PacketKind::Ack,
            self.cumulative_ack(),
            self.rcfg.ack_size,
            false,
            ce,
        );
    }

    fn try_send(&mut self, ctx: &mut Ctx<'_>) {
        let wnd = self.window();
        while self.snd_nxt - self.snd_una < wnd {
            let seq = self.snd_nxt;
            let retx = seq < self.snd_max;
            self.send_data(ctx, seq, retx);
            self.snd_nxt += 1;
            self.snd_max = self.snd_max.max(self.snd_nxt);
        }
    }

    /// Handle an acknowledgment point (from a pure ACK's `seq` or a data
    /// packet's piggyback field). `pure` controls dup-ACK counting.
    fn process_ack(&mut self, ctx: &mut Ctx<'_>, ack: u64, ce: bool, pure: bool) {
        if ack + 1 > self.snd_una {
            if self.dupacks >= self.scfg.dupack_threshold {
                self.cc.on_recovery_ack();
            }
            self.dupacks = 0;
            self.snd_una = ack + 1;
            if let Some((seq, sent_at)) = self.timing {
                if ack >= seq {
                    self.rtt.sample(ctx.now().since(sent_at));
                    self.timing = None;
                }
            }
            self.cc.on_ack_marked(ce);
            self.emit_cwnd(ctx);
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            if self.snd_max > self.snd_una {
                self.arm_rto(ctx);
            } else if let Some(h) = self.rto_armed.take() {
                ctx.cancel_timer(h);
            }
        } else if pure && ack + 1 == self.snd_una && self.snd_max > self.snd_una {
            self.dupacks += 1;
            self.cc.on_dupack();
            if self.dupacks == self.scfg.dupack_threshold {
                self.stats.fast_retransmits += 1;
                ctx.emit(ProtoEvent::LossDetected {
                    seq: self.snd_una,
                    kind: LossKind::DupAck,
                });
                self.cc.on_loss(LossKind::DupAck);
                self.emit_cwnd(ctx);
                self.timing = None;
                self.send_data(ctx, self.snd_una, true);
                self.arm_rto(ctx);
            }
        }
    }

    /// Handle arriving data; returns whether an ack must go out *now*
    /// (congestion signal) or merely *eventually* (in-order progress).
    fn process_data(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) -> AckUrgency {
        self.ce_pending |= pkt.ce;
        let seq = pkt.seq;
        if seq < self.next_expected {
            return AckUrgency::Now; // duplicate — resignal cumulative point
        }
        if seq > self.next_expected {
            self.reassembly.insert(seq);
            return AckUrgency::Now; // out of order — dup-ACK signal
        }
        self.stats.delivered += 1;
        self.next_expected += 1;
        while self.reassembly.remove(&self.next_expected) {
            self.stats.delivered += 1;
            self.next_expected += 1;
        }
        ctx.emit(ProtoEvent::InOrder {
            seq: self.cumulative_ack(),
        });
        AckUrgency::Eventually
    }
}

enum AckUrgency {
    Now,
    Eventually,
}

impl Endpoint for TcpDuplex {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.emit_cwnd(ctx);
        self.try_send(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        match pkt.kind {
            PacketKind::Ack => {
                self.process_ack(ctx, pkt.seq, pkt.ce, true);
                self.try_send(ctx);
            }
            PacketKind::Data => {
                let urgency = self.process_data(ctx, &pkt);
                // The piggybacked ack advances our sender side (never
                // counted as a duplicate: it rides data).
                self.process_ack(ctx, pkt.ack, pkt.ce, false);
                // Whatever data the window now allows carries our ack.
                let before = self.stats.data_sent;
                self.ack_pending = true;
                self.try_send(ctx);
                let data_flowed = self.stats.data_sent > before;
                if !data_flowed {
                    match (urgency, self.rcfg.delayed_ack) {
                        (AckUrgency::Now, _) | (_, None) => self.send_pure_ack(ctx),
                        (AckUrgency::Eventually, Some(del)) => {
                            // Hold the ack for a future data transmission
                            // or the delack timer, whichever first.
                            ctx.set_timer(del.max_delay, TOKEN_DELACK);
                        }
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_RTO => {
                self.rto_armed = None;
                if self.snd_max <= self.snd_una {
                    return;
                }
                self.stats.timeouts += 1;
                self.rtt.on_timeout();
                self.dupacks = 0;
                ctx.emit(ProtoEvent::LossDetected {
                    seq: self.snd_una,
                    kind: LossKind::Timeout,
                });
                self.cc.on_loss(LossKind::Timeout);
                self.emit_cwnd(ctx);
                self.timing = None;
                self.snd_nxt = self.snd_una;
                self.try_send(ctx);
                self.arm_rto(ctx);
            }
            TOKEN_DELACK => {
                if self.ack_pending {
                    self.send_pure_ack(ctx);
                }
            }
            other => unreachable!("unknown duplex timer token {other}"),
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.cc.save_state(w);
        self.rtt.save_state(w);
        w.write_u64(self.snd_una);
        w.write_u64(self.snd_nxt);
        w.write_u64(self.snd_max);
        w.write_u32(self.dupacks);
        w.write_bool(self.rto_armed.is_some());
        if let Some(h) = &self.rto_armed {
            h.save_state(w);
        }
        w.write_bool(self.timing.is_some());
        if let Some((seq, at)) = self.timing {
            w.write_u64(seq);
            w.write_time(at);
        }
        w.write_u64(self.next_expected);
        w.write_u64(self.reassembly.len() as u64);
        for seq in &self.reassembly {
            w.write_u64(*seq); // BTreeSet iterates sorted: deterministic
        }
        w.write_bool(self.ack_pending);
        w.write_bool(self.ce_pending);
        w.write_u64(self.stats.data_sent);
        w.write_u64(self.stats.retransmits);
        w.write_u64(self.stats.pure_acks_sent);
        w.write_u64(self.stats.piggybacked_acks);
        w.write_u64(self.stats.delivered);
        w.write_u64(self.stats.fast_retransmits);
        w.write_u64(self.stats.timeouts);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cc.load_state(r)?;
        self.rtt.load_state(r)?;
        self.snd_una = r.read_u64()?;
        self.snd_nxt = r.read_u64()?;
        self.snd_max = r.read_u64()?;
        self.dupacks = r.read_u32()?;
        self.rto_armed = if r.read_bool()? {
            Some(TimerHandle::load_state(r)?)
        } else {
            None
        };
        self.timing = if r.read_bool()? {
            Some((r.read_u64()?, r.read_time()?))
        } else {
            None
        };
        self.next_expected = r.read_u64()?;
        let n = r.read_len()?;
        self.reassembly.clear();
        for _ in 0..n {
            self.reassembly.insert(r.read_u64()?);
        }
        self.ack_pending = r.read_bool()?;
        self.ce_pending = r.read_bool()?;
        self.stats.data_sent = r.read_u64()?;
        self.stats.retransmits = r.read_u64()?;
        self.stats.pure_acks_sent = r.read_u64()?;
        self.stats.piggybacked_acks = r.read_u64()?;
        self.stats.delivered = r.read_u64()?;
        self.stats.fast_retransmits = r.read_u64()?;
        self.stats.timeouts = r.read_u64()?;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayedAck;
    use td_engine::{Rate, SimDuration};
    use td_net::{ConnId, DisciplineKind, FaultModel, World};

    fn duplex_world(
        delack: bool,
        capacity: Option<u32>,
        maxwnd: u64,
    ) -> (World, td_net::EndpointId, td_net::EndpointId) {
        let mut w = World::new(5);
        let h0 = w.add_host("A", SimDuration::from_micros(100));
        let h1 = w.add_host("B", SimDuration::from_micros(100));
        for (a, b) in [(h0, h1), (h1, h0)] {
            w.add_channel(
                a,
                b,
                Rate::from_kbps(50),
                SimDuration::from_millis(10),
                capacity,
                DisciplineKind::DropTail.build(),
                FaultModel::NONE,
            );
        }
        let scfg = SenderConfig {
            maxwnd,
            ..SenderConfig::paper()
        };
        let rcfg = ReceiverConfig {
            delayed_ack: delack.then(DelayedAck::default),
            ..ReceiverConfig::paper()
        };
        let ea = w.attach(h0, h1, ConnId(0), TcpDuplex::boxed(scfg, rcfg));
        let eb = w.attach(h1, h0, ConnId(0), TcpDuplex::boxed(scfg, rcfg));
        w.start_at(ea, td_engine::SimTime::ZERO);
        w.start_at(eb, td_engine::SimTime::from_millis(137));
        (w, ea, eb)
    }

    fn stats(w: &World, ep: td_net::EndpointId) -> DuplexStats {
        w.endpoint(ep)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpDuplex>()
            .unwrap()
            .stats()
    }

    #[test]
    fn both_directions_make_progress() {
        let (mut w, ea, eb) = duplex_world(false, Some(20), 1000);
        w.run_until(td_engine::SimTime::from_secs(300));
        let (sa, sb) = (stats(&w, ea), stats(&w, eb));
        assert!(sa.delivered > 800, "A delivered {}", sa.delivered);
        assert!(sb.delivered > 800, "B delivered {}", sb.delivered);
    }

    #[test]
    fn immediate_acks_preempt_piggybacking() {
        // With delayed ACKs OFF, every data arrival is acknowledged on the
        // spot; at window-limited steady state the window is closed at
        // that instant, so the ack goes out *pure*, and by the time
        // reverse data flows its piggybacked ack number is stale. This is
        // why BSD's delayed-ACK option is what makes piggybacking pay on
        // bidirectional connections — asserted in the companion test.
        let (mut w, ea, eb) = duplex_world(false, None, 20);
        w.run_until(td_engine::SimTime::from_secs(300));
        for s in [stats(&w, ea), stats(&w, eb)] {
            let total_acks = s.pure_acks_sent + s.piggybacked_acks;
            assert!(total_acks > 0);
            let pure_frac = s.pure_acks_sent as f64 / total_acks as f64;
            assert!(
                pure_frac > 0.8,
                "without delack pure acks should dominate: {pure_frac:.2} \
                 ({} pure / {} piggy)",
                s.pure_acks_sent,
                s.piggybacked_acks
            );
        }
    }

    #[test]
    fn delivery_is_reliable_under_loss() {
        let (mut w, ea, eb) = duplex_world(false, Some(4), 1000);
        w.run_until(td_engine::SimTime::from_secs(300));
        let (da, db) = (
            w.endpoint(ea)
                .unwrap()
                .as_any()
                .downcast_ref::<TcpDuplex>()
                .unwrap(),
            w.endpoint(eb)
                .unwrap()
                .as_any()
                .downcast_ref::<TcpDuplex>()
                .unwrap(),
        );
        // Each side's cumulative point equals its delivered count.
        assert_eq!(da.cumulative_ack(), da.stats().delivered);
        assert_eq!(db.cumulative_ack(), db.stats().delivered);
        // A tight buffer forces losses; recovery must have fired.
        let s = stats(&w, ea);
        assert!(
            s.fast_retransmits + s.timeouts > 0,
            "no loss recovery in 300 s"
        );
        assert!(s.delivered > 300);
    }

    #[test]
    fn delack_holds_acks_for_data_to_carry() {
        let (mut w, ea, _eb) = duplex_world(true, None, 20);
        w.run_until(td_engine::SimTime::from_secs(200));
        let s = stats(&w, ea);
        let total = s.pure_acks_sent + s.piggybacked_acks;
        assert!(
            (s.pure_acks_sent as f64) < total as f64 * 0.2,
            "delack + duplex should piggyback nearly everything: {} pure of {total}",
            s.pure_acks_sent
        );
    }

    #[test]
    fn window_discipline_respected() {
        let (mut w, ea, _eb) = duplex_world(false, None, 40);
        w.run_until(td_engine::SimTime::from_secs(100));
        let d = w
            .endpoint(ea)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpDuplex>()
            .unwrap();
        assert!(
            d.outstanding() <= d.window() || d.stats().fast_retransmits + d.stats().timeouts > 0,
            "{} in flight > window {}",
            d.outstanding(),
            d.window()
        );
    }

    #[test]
    #[should_panic(expected = "pacing is not supported")]
    fn pacing_rejected() {
        let scfg = SenderConfig {
            pacing: Some(SimDuration::from_millis(80)),
            ..SenderConfig::paper()
        };
        let _ = TcpDuplex::new(scfg, ReceiverConfig::paper());
    }
}
