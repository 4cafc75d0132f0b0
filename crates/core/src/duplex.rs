//! Bidirectional TCP with piggybacked acknowledgments.
//!
//! The paper's two-way traffic consists of two *separate* one-way
//! connections, so its delayed-ACK discussion notes a third trigger that
//! can never fire there: "a data packet transmission in the other
//! direction on which the ACK can be piggy-backed" (§2.1). This module
//! supplies the configuration where it does fire: a single connection with
//! bulk data flowing in *both* directions between its two endpoints.
//!
//! A [`TcpDuplex`] endpoint is [`crate::TcpSender`]'s send half and
//! [`crate::TcpReceiver`]'s receive half — one loss recovery, RTT
//! estimator and reassembly queue, not copies — plus a piggyback policy.
//! Every data packet carries the cumulative ack ([`td_net::Packet::ack`])
//! and the CE echo. A pure ACK goes out only when acknowledgment is urgent
//! (an out-of-order or duplicate segment — the dup-ACK signal) or no data
//! can carry it. With delayed ACKs **off** that is every arrival: the
//! window is then typically closed, so the ack goes out pure and the later
//! reverse data carries a stale number. With them **on**, the held ack
//! rides the next reverse data packet — what BSD's option was designed
//! for. Only pure ACKs count toward fast retransmit, as in BSD, and the
//! window loop runs after every arriving segment. Pacing and finite
//! transfers are one-way sender options and are rejected.
//!
//! The interesting dynamical consequence, tested in the experiments crate:
//! full piggybacking removes the data/ACK *size asymmetry* that
//! ACK-compression feeds on — every segment serializes in a data-packet
//! time, so the 10× spacing collapse cannot happen.

use crate::config::{ReceiverConfig, SenderConfig};
use crate::receiver::{Arrival, RecvHalf, TOKEN_DELACK};
use crate::sender::{Ack, SendHalf, Wire, TOKEN_RTO};
use std::any::Any;
use std::cmp::Ordering;
use std::sync::Arc;
use td_engine::{SnapError, SnapReader, SnapWriter};
use td_net::{Ctx, Endpoint, Packet, PacketKind};

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
    rcfg: Arc<ReceiverConfig>,
    snd: SendHalf,
    wire: Piggyback,
}

/// The duplex's wire: data segments carry the receive half's cumulative
/// ack and CE echo.
#[derive(Default)]
struct Piggyback {
    rcv: RecvHalf,
    stats: DuplexStats,
}

impl Wire for Piggyback {
    fn send_data(&mut self, ctx: &mut Ctx<'_>, cfg: &SenderConfig, seq: u64, retx: bool) {
        let ack = self.rcv.cumulative_ack();
        let ce = std::mem::take(&mut self.rcv.ce_pending);
        ctx.send_full(PacketKind::Data, seq, ack, cfg.data_size, retx, ce);
        self.stats.data_sent += 1;
        if std::mem::take(&mut self.rcv.ack_pending) {
            self.stats.piggybacked_acks += 1;
        }
        if retx {
            self.stats.retransmits += 1;
        }
    }
}

impl TcpDuplex {
    /// A fresh duplex endpoint. Pass `Arc` clones to share the configs
    /// among many endpoints.
    pub fn new(scfg: impl Into<Arc<SenderConfig>>, rcfg: impl Into<Arc<ReceiverConfig>>) -> Self {
        let scfg = scfg.into();
        assert!(
            scfg.pacing.is_none(),
            "pacing is not supported on duplex endpoints"
        );
        assert!(
            scfg.data_limit.is_none(),
            "data_limit is not supported on duplex endpoints"
        );
        TcpDuplex {
            rcfg: rcfg.into(),
            snd: SendHalf::new(scfg),
            wire: Piggyback::default(),
        }
    }

    /// A boxed endpoint, ready for [`td_net::World::attach`].
    pub fn boxed(
        scfg: impl Into<Arc<SenderConfig>>,
        rcfg: impl Into<Arc<ReceiverConfig>>,
    ) -> Box<dyn Endpoint> {
        Box::new(Self::new(scfg, rcfg))
    }

    /// Run counters.
    pub fn stats(&self) -> DuplexStats {
        self.wire.stats
    }

    /// Highest in-order sequence received.
    pub fn cumulative_ack(&self) -> u64 {
        self.wire.rcv.cumulative_ack()
    }

    /// Usable send window.
    pub fn window(&self) -> u64 {
        self.snd.window()
    }

    /// Packets in flight.
    pub fn outstanding(&self) -> u64 {
        self.snd.outstanding()
    }

    fn send_pure_ack(&mut self, ctx: &mut Ctx<'_>) {
        self.wire.stats.pure_acks_sent += 1;
        self.wire.rcv.send_ack(ctx, self.rcfg.ack_size);
    }

    /// Take the acknowledgment `pkt` carries, then run the window loop.
    fn process_ack(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet) {
        if let Ack::Dup(Ordering::Equal) = self.snd.on_ack(ctx, pkt, &mut self.wire) {
            self.wire.stats.fast_retransmits += 1;
        }
        self.snd.try_send(ctx, &mut self.wire);
    }
}

impl Endpoint for TcpDuplex {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.snd.emit_cwnd(ctx);
        self.snd.try_send(ctx, &mut self.wire);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        if pkt.is_ack() {
            self.process_ack(ctx, &pkt);
            return;
        }
        // Out-of-order or duplicate data resignals the cumulative point
        // now (the dup-ACK signal); in-order data may wait.
        let urgent = match self.wire.rcv.on_data(ctx, &pkt) {
            Arrival::InOrder(n) => {
                self.wire.stats.delivered += n;
                false
            }
            Arrival::Duplicate | Arrival::OutOfOrder => true,
        };
        // The piggybacked ack advances our send side, and whatever data
        // the window now allows carries our ack.
        let before = self.wire.stats.data_sent;
        self.wire.rcv.ack_pending = true;
        self.process_ack(ctx, &pkt);
        if self.wire.stats.data_sent == before {
            match self.rcfg.delayed_ack {
                // Hold the ack for a future data transmission or the
                // delack timer, whichever first.
                Some(del) if !urgent => {
                    ctx.set_timer(del.max_delay, TOKEN_DELACK);
                }
                _ => self.send_pure_ack(ctx),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_RTO => {
                if self.snd.on_rto(ctx, &mut self.wire) {
                    self.wire.stats.timeouts += 1;
                }
            }
            TOKEN_DELACK => {
                if self.wire.rcv.ack_pending {
                    self.send_pure_ack(ctx);
                }
            }
            other => unreachable!("unknown duplex timer token {other}"),
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.snd.save_state(w);
        self.wire.rcv.save_state(w);
        let s = &self.wire.stats;
        w.write_u64(s.data_sent);
        w.write_u64(s.retransmits);
        w.write_u64(s.pure_acks_sent);
        w.write_u64(s.piggybacked_acks);
        w.write_u64(s.delivered);
        w.write_u64(s.fast_retransmits);
        w.write_u64(s.timeouts);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snd.load_state(r)?;
        self.wire.rcv.load_state(r)?;
        let s = &mut self.wire.stats;
        s.data_sent = r.read_u64()?;
        s.retransmits = r.read_u64()?;
        s.pure_acks_sent = r.read_u64()?;
        s.piggybacked_acks = r.read_u64()?;
        s.delivered = r.read_u64()?;
        s.fast_retransmits = r.read_u64()?;
        s.timeouts = r.read_u64()?;
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
    use td_net::{ConnId, DisciplineKind, World};

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

    #[test]
    #[should_panic(expected = "data_limit is not supported")]
    fn data_limit_rejected() {
        let scfg = SenderConfig {
            data_limit: Some(100),
            ..SenderConfig::paper()
        };
        let _ = TcpDuplex::new(scfg, ReceiverConfig::paper());
    }
}
