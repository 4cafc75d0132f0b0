//! The send half every sending endpoint is built from, and the TCP sender.
//!
//! [`SendHalf`] is the sending side of the crate-level algorithm, once,
//! for [`TcpSender`] and [`crate::TcpDuplex`]: window-limited
//! transmission that uses every permission to send at once unless the
//! endpoint paces (the "nonpaced" property behind clustering and
//! ACK-compression); loss detection by BSD's `t_dupacks ==
//! tcprexmtthresh` (one fast retransmit per dup-ACK run) or by timeout,
//! recovered as [`SendHalf::on_loss_detected`] says; and Karn's rule — one
//! segment timed at a time, the sample dropped whenever recovery
//! retransmits. Each endpoint supplies the [`Wire`] a data segment goes
//! out on. The half emits the cwnd, loss and retransmit [`ProtoEvent`]s
//! behind the paper's cwnd plots and loss chronologies.

use crate::cc::Cc;
use crate::config::SenderConfig;
use crate::rtt::RttState;
use std::any::Any;
use std::cmp::Ordering;
use std::sync::Arc;
use td_engine::{SimDuration, SimTime, SnapError, SnapReader, SnapWriter};
use td_net::{Ctx, Endpoint, LossKind, Packet, PacketKind, ProtoEvent, TimerHandle};

pub(crate) const TOKEN_RTO: u64 = 1;
const TOKEN_PACE: u64 = 3;

/// [`SendHalf::timing`] while no segment is timed.
const NOT_TIMING: (u64, SimTime) = (0, SimTime::ZERO);

/// How an endpoint puts the send half's data segments on the wire; `cfg`
/// is the connection's, lent by the half.
pub(crate) trait Wire {
    /// May the window loop send `seq` now? `false` ends the loop.
    fn may_send(&mut self, _ctx: &mut Ctx<'_>, _cfg: &SenderConfig, _seq: u64) -> bool {
        true
    }

    /// Transmit data segment `seq` (`retx`: it was sent before).
    fn send_data(&mut self, ctx: &mut Ctx<'_>, cfg: &SenderConfig, seq: u64, retx: bool);
}

/// What [`SendHalf::on_ack`] made of an acknowledgment.
pub(crate) enum Ack {
    /// It advanced `snd_una`.
    New,
    /// A duplicate; its run length against the threshold (`Equal`: fast retransmit).
    Dup(Ordering),
    Old,
}

/// Congestion control, RTT estimation and loss recovery for one direction
/// of data: all a sending endpoint does but put segments on the wire.
pub(crate) struct SendHalf {
    /// Shared by every endpoint built from the same config.
    cfg: Arc<SenderConfig>,
    cc: Cc,
    /// Its parameters are `cfg.rto`.
    rtt: RttState,
    /// Lowest unacknowledged sequence number (first is 1).
    snd_una: u64,
    /// Next sequence number to transmit (pulled back on loss).
    snd_nxt: u64,
    /// One past the highest sequence number ever transmitted.
    snd_max: u64,
    /// Consecutive duplicate-ACK count.
    dupacks: u32,
    /// RTO timer, if armed.
    rto_armed: Option<TimerHandle>,
    /// Segment being timed for RTT: (sequence, send time); sequence 0
    /// (never sent, the first is 1) while none is.
    timing: (u64, SimTime),
}

impl SendHalf {
    pub(crate) fn new(cfg: Arc<SenderConfig>) -> Self {
        SendHalf {
            cc: cfg.cc.build(cfg.maxwnd),
            rtt: RttState::default(),
            cfg,
            snd_una: 1,
            snd_nxt: 1,
            snd_max: 1,
            dupacks: 0,
            rto_armed: None,
            timing: NOT_TIMING,
        }
    }

    pub(crate) fn window(&self) -> u64 {
        self.cc.window().min(self.cfg.maxwnd)
    }

    pub(crate) fn outstanding(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    pub(crate) fn emit_cwnd(&mut self, ctx: &mut Ctx<'_>) {
        let (cwnd, ssthresh) = (self.cc.cwnd(), self.cc.ssthresh());
        ctx.emit(ProtoEvent::Cwnd { cwnd, ssthresh });
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_>) {
        self.cancel_rto(ctx);
        self.rto_armed = Some(ctx.set_timer(self.rtt.rto(&self.cfg.rto), TOKEN_RTO));
    }

    fn cancel_rto(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(h) = self.rto_armed.take() {
            ctx.cancel_timer(h);
        }
    }

    /// The window loop: transmit as much as the window and the wire allow.
    pub(crate) fn try_send(&mut self, ctx: &mut Ctx<'_>, wire: &mut impl Wire) {
        let wnd = self.window();
        while self.snd_nxt - self.snd_una < wnd && wire.may_send(ctx, &self.cfg, self.snd_nxt) {
            let seq = self.snd_nxt;
            self.transmit(ctx, seq, seq < self.snd_max, wire);
            self.snd_nxt += 1;
            self.snd_max = self.snd_max.max(self.snd_nxt);
        }
    }

    /// One data segment onto the wire, with its Karn and RTO bookkeeping.
    fn transmit(&mut self, ctx: &mut Ctx<'_>, seq: u64, retx: bool, wire: &mut impl Wire) {
        wire.send_data(ctx, &self.cfg, seq, retx);
        if retx {
            ctx.emit(ProtoEvent::Retransmit { seq });
        } else if self.timing.0 == 0 {
            self.timing = (seq, ctx.now());
        }
        if self.rto_armed.is_none() {
            self.arm_rto(ctx);
        }
    }

    /// Process the acknowledgment `pkt` carries: a pure ACK's `seq`, or a
    /// data segment's piggybacked `ack`, which never counts as a duplicate
    /// (BSD). New data re-arms the RTO, or cancels it with nothing left in
    /// flight; the window loop is the caller's to run.
    pub(crate) fn on_ack(&mut self, ctx: &mut Ctx<'_>, pkt: &Packet, wire: &mut impl Wire) -> Ack {
        let pure = pkt.is_ack();
        let ack = if pure { pkt.seq } else { pkt.ack };
        debug_assert!(ack < self.snd_max, "ACK beyond anything sent");
        if ack + 1 > self.snd_una {
            if self.dupacks >= self.cfg.dupack_threshold {
                self.cc.on_recovery_ack(); // Reno deflation; no-op elsewhere
            }
            self.dupacks = 0;
            self.snd_una = ack + 1;
            let (seq, sent_at) = self.timing;
            if seq != 0 && ack >= seq {
                self.rtt.sample(ctx.now().since(sent_at));
                self.timing = NOT_TIMING;
            }
            self.cc.on_ack_marked(pkt.ce);
            self.emit_cwnd(ctx);
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            if self.snd_max > self.snd_una {
                self.arm_rto(ctx); // restart for the remaining flight
            } else {
                self.cancel_rto(ctx);
            }
            Ack::New
        } else if pure && ack + 1 == self.snd_una && self.snd_max > self.snd_una {
            self.dupacks += 1;
            self.cc.on_dupack();
            let run = self.dupacks.cmp(&self.cfg.dupack_threshold);
            if run == Ordering::Equal {
                self.on_loss_detected(ctx, LossKind::DupAck, wire);
            }
            Ack::Dup(run)
        } else {
            Ack::Old // older ACKs carry no information for this workload
        }
    }

    /// The RTO fired: `false` for a stale timer (everything acknowledged),
    /// else recover and return `true`.
    pub(crate) fn on_rto(&mut self, ctx: &mut Ctx<'_>, wire: &mut impl Wire) -> bool {
        self.rto_armed = None;
        if self.snd_max <= self.snd_una {
            return false;
        }
        self.rtt.on_timeout();
        self.dupacks = 0;
        self.on_loss_detected(ctx, LossKind::Timeout, wire);
        true
    }

    /// Window reduction + retransmission on a detected loss.
    ///
    /// The two detection paths recover differently, as in BSD:
    ///
    /// * **Duplicate ACKs** (fast retransmit): resend exactly the first
    ///   unacknowledged segment and leave `snd_nxt` where it is — the BSD
    ///   code saves `onxt`, retransmits one segment, and restores. The
    ///   receiver has buffered the rest of the window, so the next
    ///   cumulative ACK jumps past it; re-sending it here would generate
    ///   duplicate-data ACKs that masquerade as fresh dup-ACK runs and set
    ///   off spurious retransmissions. The resend bypasses
    ///   [`Wire::may_send`]: it replaces a packet that already left.
    /// * **Timeout**: genuine go-back-N — `snd_nxt = snd_una` and resume
    ///   under the collapsed window (everything in flight is presumed
    ///   gone).
    fn on_loss_detected(&mut self, ctx: &mut Ctx<'_>, kind: LossKind, wire: &mut impl Wire) {
        ctx.emit(ProtoEvent::LossDetected {
            seq: self.snd_una,
            kind,
        });
        self.cc.on_loss(kind);
        self.emit_cwnd(ctx);
        // Karn: the timed segment is about to be retransmitted.
        self.timing = NOT_TIMING;
        match kind {
            LossKind::DupAck => self.transmit(ctx, self.snd_una, true, wire),
            LossKind::Timeout => {
                self.snd_nxt = self.snd_una;
                self.try_send(ctx, wire);
            }
        }
        self.arm_rto(ctx);
    }

    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
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
        let (seq, at) = self.timing;
        w.write_bool(seq != 0);
        if seq != 0 {
            w.write_u64(seq);
            w.write_time(at);
        }
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cc.load_state(r)?;
        self.rtt.load_state(r)?;
        self.snd_una = r.read_u64()?;
        self.snd_nxt = r.read_u64()?;
        self.snd_max = r.read_u64()?;
        self.dupacks = r.read_u32()?;
        self.rto_armed = r
            .read_bool()?
            .then(|| TimerHandle::load_state(r))
            .transpose()?;
        self.timing = if r.read_bool()? {
            let (seq, at) = (r.read_u64()?, r.read_time()?);
            if seq == 0 {
                return Err(SnapError::Corrupt("timed segment 0".into()));
            }
            (seq, at)
        } else {
            NOT_TIMING
        };
        Ok(())
    }
}

/// Counters exposed after a run.
#[derive(Clone, Copy, Default, Debug)]
pub struct SenderStats {
    /// Data transmissions, including retransmissions.
    pub packets_sent: u64,
    /// First transmissions of new sequence numbers.
    pub new_data_sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Highest cumulatively acknowledged sequence number.
    pub acked: u64,
    /// Duplicate ACKs received.
    pub dupacks: u64,
    /// Losses detected via the duplicate-ACK threshold.
    pub fast_retransmits: u64,
    /// Losses detected via timer expiry.
    pub timeouts: u64,
}

/// The sending endpoint of one connection: the send half, transmitting
/// plain data through an optional pacer.
pub struct TcpSender {
    snd: SendHalf,
    out: Outbox,
}

/// The sender's wire: the data limit, the pacer, the completion time and
/// the counters.
#[derive(Default)]
struct Outbox {
    /// Pacing: earliest time the next data packet may leave.
    pace_due: SimTime,
    /// When the final packet of a finite transfer was acknowledged, once
    /// `finished`. (A flag beside the time, not an `Option`, so it shares
    /// a word with `pace_armed`.)
    finished_at: SimTime,
    finished: bool,
    /// Pacing timer armed.
    pace_armed: bool,
    stats: SenderStats,
}

impl Wire for Outbox {
    fn may_send(&mut self, ctx: &mut Ctx<'_>, cfg: &SenderConfig, seq: u64) -> bool {
        if cfg.data_limit.is_some_and(|limit| seq > limit) {
            return false;
        }
        if let Some(interval) = cfg.pacing {
            let now = ctx.now();
            if now < self.pace_due {
                if !self.pace_armed {
                    self.pace_armed = true;
                    ctx.set_timer(self.pace_due.since(now), TOKEN_PACE);
                }
                return false;
            }
            self.pace_due = now + interval;
        }
        true
    }

    fn send_data(&mut self, ctx: &mut Ctx<'_>, cfg: &SenderConfig, seq: u64, retx: bool) {
        ctx.send(PacketKind::Data, seq, cfg.data_size, retx);
        self.stats.packets_sent += 1;
        if retx {
            self.stats.retransmits += 1;
        } else {
            self.stats.new_data_sent += 1;
        }
    }
}

impl TcpSender {
    /// A fresh sender (nothing sent, `snd_una = snd_nxt = 1`). Pass an
    /// `Arc<SenderConfig>` clone to share one config among many senders.
    pub fn new(cfg: impl Into<Arc<SenderConfig>>) -> Self {
        TcpSender {
            snd: SendHalf::new(cfg.into()),
            out: Outbox::default(),
        }
    }

    /// A boxed sender, ready for [`td_net::World::attach`].
    pub fn boxed(cfg: impl Into<Arc<SenderConfig>>) -> Box<dyn Endpoint> {
        Box::new(Self::new(cfg))
    }

    /// Run counters.
    pub fn stats(&self) -> SenderStats {
        self.out.stats
    }

    /// Real-valued congestion window (for inspection).
    pub fn cwnd(&self) -> f64 {
        self.snd.cc.cwnd()
    }

    /// Usable window in packets.
    pub fn window(&self) -> u64 {
        self.snd.window()
    }

    /// Packets in flight (`snd_nxt − snd_una`).
    pub fn outstanding(&self) -> u64 {
        self.snd.outstanding()
    }

    /// Current smoothed RTT (`None` before any sample).
    pub fn srtt(&self) -> Option<SimDuration> {
        self.snd.rtt.srtt()
    }

    /// For finite transfers ([`SenderConfig::data_limit`]): when the last
    /// packet was cumulatively acknowledged. `None` while in progress or
    /// for infinite streams.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.out.finished.then_some(self.out.finished_at)
    }
}

impl Endpoint for TcpSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.snd.emit_cwnd(ctx);
        self.snd.try_send(ctx, &mut self.out);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_>, pkt: Packet) {
        debug_assert!(pkt.is_ack(), "sender got a non-ACK packet");
        match self.snd.on_ack(ctx, &pkt, &mut self.out) {
            Ack::New => {
                let stats = &mut self.out.stats;
                stats.acked = stats.acked.max(pkt.seq);
                let limit = self.snd.cfg.data_limit;
                if !self.out.finished && limit.is_some_and(|l| self.snd.snd_una > l) {
                    // Transfer complete: everything acknowledged.
                    self.out.finished = true;
                    self.out.finished_at = ctx.now();
                    self.snd.cancel_rto(ctx);
                }
                self.snd.try_send(ctx, &mut self.out);
            }
            Ack::Dup(run) => {
                self.out.stats.dupacks += 1;
                match run {
                    Ordering::Less => {}
                    Ordering::Equal => self.out.stats.fast_retransmits += 1,
                    // Reno: window inflation may have opened room.
                    Ordering::Greater => self.snd.try_send(ctx, &mut self.out),
                }
            }
            Ack::Old => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_RTO => {
                if self.snd.on_rto(ctx, &mut self.out) {
                    self.out.stats.timeouts += 1;
                }
            }
            TOKEN_PACE => {
                self.out.pace_armed = false;
                self.snd.try_send(ctx, &mut self.out);
            }
            other => unreachable!("unknown sender timer token {other}"),
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.snd.save_state(w);
        w.write_time(self.out.pace_due);
        w.write_bool(self.out.pace_armed);
        w.write_bool(self.out.finished);
        if self.out.finished {
            w.write_time(self.out.finished_at);
        }
        let s = &self.out.stats;
        w.write_u64(s.packets_sent);
        w.write_u64(s.new_data_sent);
        w.write_u64(s.retransmits);
        w.write_u64(s.acked);
        w.write_u64(s.dupacks);
        w.write_u64(s.fast_retransmits);
        w.write_u64(s.timeouts);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.snd.load_state(r)?;
        self.out.pace_due = r.read_time()?;
        self.out.pace_armed = r.read_bool()?;
        self.out.finished = r.read_bool()?;
        self.out.finished_at = if self.out.finished {
            r.read_time()?
        } else {
            SimTime::ZERO
        };
        let s = &mut self.out.stats;
        s.packets_sent = r.read_u64()?;
        s.new_data_sent = r.read_u64()?;
        s.retransmits = r.read_u64()?;
        s.acked = r.read_u64()?;
        s.dupacks = r.read_u64()?;
        s.fast_retransmits = r.read_u64()?;
        s.timeouts = r.read_u64()?;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn progress(&self) -> td_net::EndpointProgress {
        let snd = &self.snd;
        td_net::EndpointProgress {
            // Infinite sources have no notion of "done" and opt out of
            // stall attribution; finite transfers are done once everything
            // is acknowledged.
            finished: snd.cfg.data_limit.map(|_| self.out.finished),
            detail: format!(
                "snd_una={} snd_nxt={} snd_max={} cwnd={:.2} rto {} ({:.3}s)",
                snd.snd_una,
                snd.snd_nxt,
                snd.snd_max,
                snd.cc.cwnd(),
                snd.rto_armed.map_or("unarmed", |_| "armed"),
                snd.rtt.rto(&snd.cfg.rto).as_secs_f64(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{CcKind, IncrementRule};
    use crate::config::{ReceiverConfig, RtoConfig};
    use crate::receiver::TcpReceiver;
    use td_engine::Rate;
    use td_net::{ConnId, DisciplineKind, FaultPlan, NodeId, TraceEvent, World};

    /// Two hosts, direct duplex link; returns (world, sender-ep, receiver-ep).
    fn tcp_world(
        scfg: SenderConfig,
        rcfg: ReceiverConfig,
        rate: Rate,
        delay: SimDuration,
        capacity: Option<u32>,
    ) -> (World, td_net::EndpointId, td_net::EndpointId) {
        let mut w = World::new(42);
        let h0 = w.add_host("src", SimDuration::from_micros(100));
        let h1 = w.add_host("dst", SimDuration::from_micros(100));
        w.add_channel(
            h0,
            h1,
            rate,
            delay,
            capacity,
            DisciplineKind::DropTail.build(),
        );
        w.add_channel(h1, h0, rate, delay, None, DisciplineKind::DropTail.build());
        let s = w.attach(h0, h1, ConnId(0), TcpSender::boxed(scfg));
        let r = w.attach(h1, h0, ConnId(0), TcpReceiver::boxed(rcfg));
        w.start_at(s, SimTime::ZERO);
        (w, s, r)
    }

    fn sender_stats(w: &World, ep: td_net::EndpointId) -> SenderStats {
        w.endpoint(ep)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpSender>()
            .unwrap()
            .stats()
    }

    fn fine_rto() -> RtoConfig {
        RtoConfig {
            granularity: SimDuration::from_nanos(1),
            initial: SimDuration::from_secs(3),
            min: SimDuration::from_millis(100),
            max: SimDuration::from_secs(64),
        }
    }

    #[test]
    fn slow_start_opens_exponentially() {
        // Plenty of bandwidth and buffer: no losses; after k RTTs the
        // window should have grown 2^k-ish. Run 2 s on a 100 ms RTT path.
        let scfg = SenderConfig {
            rto: fine_rto(),
            ..SenderConfig::paper()
        };
        let (mut w, s, _r) = tcp_world(
            scfg,
            ReceiverConfig::paper(),
            Rate::from_mbps(10),
            SimDuration::from_millis(50),
            None,
        );
        w.run_until(SimTime::from_secs(1));
        let tx = sender_stats(&w, s);
        assert!(tx.new_data_sent > 100, "sent {}", tx.new_data_sent);
        assert_eq!(tx.retransmits, 0);
        assert_eq!(tx.timeouts, 0);
        let snd = w
            .endpoint(s)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpSender>()
            .unwrap();
        assert!(snd.cwnd() > 100.0, "cwnd {}", snd.cwnd());
    }

    #[test]
    fn first_transmission_is_one_packet() {
        let (mut w, _s, _r) = tcp_world(
            SenderConfig::paper(),
            ReceiverConfig::paper(),
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            Some(20),
        );
        w.run_until(SimTime::from_millis(1));
        let sends = w
            .trace()
            .records()
            .iter()
            .filter(|r| matches!(r.ev, TraceEvent::Send { node, pkt } if node == NodeId(0) && pkt.is_data()))
            .count();
        assert_eq!(sends, 1, "Tahoe starts with cwnd = 1");
    }

    #[test]
    fn fixed_window_dumps_whole_window_at_start() {
        let (mut w, _s, _r) = tcp_world(
            SenderConfig::fixed_window(30),
            ReceiverConfig::paper(),
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
        );
        w.run_until(SimTime::from_millis(1));
        let sends = w
            .trace()
            .records()
            .iter()
            .filter(|r| matches!(r.ev, TraceEvent::Send { node, pkt } if node == NodeId(0) && pkt.is_data()))
            .count();
        assert_eq!(sends, 30);
    }

    #[test]
    fn drop_triggers_fast_retransmit_and_recovery() {
        // Small buffer on a slow link: slow start overshoots, drops happen,
        // fast retransmit recovers, transfer keeps making progress.
        let scfg = SenderConfig {
            rto: fine_rto(),
            ..SenderConfig::paper()
        };
        let (mut w, s, r) = tcp_world(
            scfg,
            ReceiverConfig::paper(),
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            Some(5),
        );
        w.run_until(SimTime::from_secs(120));
        let tx = sender_stats(&w, s);
        assert!(tx.fast_retransmits > 0, "no fast retransmit in 120 s");
        assert!(tx.retransmits > 0);
        let rx = w
            .endpoint(r)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpReceiver>()
            .unwrap();
        // 50 Kbps moves 12.5 pkt/s peak; require sustained progress.
        assert!(
            rx.stats().delivered > 1000,
            "delivered only {}",
            rx.stats().delivered
        );
        // Reliability: delivered must be contiguous (cumulative point).
        assert_eq!(rx.cumulative_ack(), rx.stats().delivered);
    }

    #[test]
    fn total_blackout_recovers_via_timeout() {
        // A 100 %-lossy forward channel for a while would stall forever in
        // a lab; here we emulate a burst drop with a 1-packet buffer and
        // verify the timeout path fires and retransmits.
        let scfg = SenderConfig {
            rto: fine_rto(),
            ..SenderConfig::paper()
        };
        let mut w = World::new(9);
        let h0 = w.add_host("src", SimDuration::from_micros(100));
        let h1 = w.add_host("dst", SimDuration::from_micros(100));
        let fwd = w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
        w.set_fault_plan(fwd, FaultPlan::lossy(1.0)).unwrap(); // nothing gets through
        w.add_channel(
            h1,
            h0,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
        let s = w.attach(h0, h1, ConnId(0), TcpSender::boxed(scfg));
        let _r = w.attach(
            h1,
            h0,
            ConnId(0),
            TcpReceiver::boxed(ReceiverConfig::paper()),
        );
        w.start_at(s, SimTime::ZERO);
        w.run_until(SimTime::from_secs(30));
        let tx = sender_stats(&w, s);
        assert!(tx.timeouts >= 2, "timeouts: {}", tx.timeouts);
        assert!(tx.retransmits >= 2);
        assert_eq!(tx.fast_retransmits, 0, "no ACKs → no dupacks");
    }

    #[test]
    fn rto_backoff_spaces_out_retransmissions() {
        let scfg = SenderConfig {
            rto: RtoConfig {
                granularity: SimDuration::from_nanos(1),
                initial: SimDuration::from_secs(1),
                min: SimDuration::from_millis(500),
                max: SimDuration::from_secs(64),
            },
            ..SenderConfig::paper()
        };
        let mut w = World::new(9);
        let h0 = w.add_host("src", SimDuration::from_micros(100));
        let h1 = w.add_host("dst", SimDuration::from_micros(100));
        let fwd = w.add_channel(
            h0,
            h1,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
        w.set_fault_plan(fwd, FaultPlan::lossy(1.0)).unwrap();
        w.add_channel(
            h1,
            h0,
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            None,
            DisciplineKind::DropTail.build(),
        );
        let s = w.attach(h0, h1, ConnId(0), TcpSender::boxed(scfg));
        let _ = w.attach(
            h1,
            h0,
            ConnId(0),
            TcpReceiver::boxed(ReceiverConfig::paper()),
        );
        w.start_at(s, SimTime::ZERO);
        w.run_until(SimTime::from_secs(40));
        // Retransmission times: ~1, 3, 7, 15, 31 s (doubling gaps).
        let times: Vec<f64> = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::Send { pkt, .. } if pkt.is_data() && pkt.retx => {
                    Some(r.t.as_secs_f64())
                }
                _ => None,
            })
            .collect();
        assert!(times.len() >= 4, "retx times: {times:?}");
        let gap1 = times[1] - times[0];
        let gap2 = times[2] - times[1];
        let gap3 = times[3] - times[2];
        assert!(gap2 > gap1 * 1.8, "gaps: {gap1} {gap2} {gap3}");
        assert!(gap3 > gap2 * 1.8, "gaps: {gap1} {gap2} {gap3}");
    }

    #[test]
    fn pacing_spaces_transmissions() {
        let scfg = SenderConfig {
            cc: CcKind::FixedWindow { wnd: 10 },
            pacing: Some(SimDuration::from_millis(80)),
            rto: fine_rto(),
            ..SenderConfig::paper()
        };
        let (mut w, _s, _r) = tcp_world(
            scfg,
            ReceiverConfig::paper(),
            Rate::from_mbps(10),
            SimDuration::from_millis(1),
            None,
        );
        w.run_until(SimTime::from_millis(900));
        let sends: Vec<SimTime> = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                TraceEvent::Send { node, pkt } if node == NodeId(0) && pkt.is_data() => Some(r.t),
                _ => None,
            })
            .collect();
        assert!(sends.len() >= 10);
        for pair in sends.windows(2) {
            let gap = pair[1].since(pair[0]);
            assert!(
                gap >= SimDuration::from_millis(80),
                "paced sends too close: {gap}"
            );
        }
    }

    #[test]
    fn karn_rule_no_sample_from_retransmissions() {
        // Force a retransmission and check srtt is never polluted by the
        // (short) retransmit RTT. With a blackout then recovery the only
        // valid samples come from untouched segments.
        let scfg = SenderConfig {
            rto: fine_rto(),
            ..SenderConfig::paper()
        };
        let (mut w, s, _r) = tcp_world(
            scfg,
            ReceiverConfig::paper(),
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            Some(3),
        );
        w.run_until(SimTime::from_secs(60));
        let snd = w
            .endpoint(s)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpSender>()
            .unwrap();
        // The path RTT is ≥ 100 ms (two 80 ms serializations dominate);
        // a retransmission-ambiguity sample could look like ~1 RTT too
        // high/low. We only assert an estimate exists and is plausible.
        let srtt = snd.srtt().expect("must have sampled");
        assert!(srtt >= SimDuration::from_millis(100), "srtt {srtt}");
        assert!(tx_progress(&w, s) > 100);
    }

    fn tx_progress(w: &World, s: td_net::EndpointId) -> u64 {
        sender_stats(w, s).acked
    }

    #[test]
    fn reno_survives_the_same_gauntlet() {
        let scfg = SenderConfig {
            cc: CcKind::Reno,
            rto: fine_rto(),
            ..SenderConfig::paper()
        };
        let (mut w, s, r) = tcp_world(
            scfg,
            ReceiverConfig::paper(),
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            Some(5),
        );
        w.run_until(SimTime::from_secs(120));
        let rx = w
            .endpoint(r)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpReceiver>()
            .unwrap();
        assert!(
            rx.stats().delivered > 1000,
            "delivered {}",
            rx.stats().delivered
        );
        assert_eq!(rx.cumulative_ack(), rx.stats().delivered);
        assert!(sender_stats(&w, s).fast_retransmits > 0);
    }

    #[test]
    fn original_increment_rule_also_functions() {
        let scfg = SenderConfig {
            cc: CcKind::Tahoe {
                rule: IncrementRule::Original,
            },
            rto: fine_rto(),
            ..SenderConfig::paper()
        };
        let (mut w, _s, r) = tcp_world(
            scfg,
            ReceiverConfig::paper(),
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            Some(5),
        );
        w.run_until(SimTime::from_secs(60));
        let rx = w
            .endpoint(r)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpReceiver>()
            .unwrap();
        assert!(rx.stats().delivered > 500);
    }

    #[test]
    fn go_back_n_pullback_never_leaves_gap_unrepaired() {
        // Long adversarial run with a tiny buffer: the cumulative ack at
        // the receiver must track delivered data exactly (reliability).
        let scfg = SenderConfig {
            rto: fine_rto(),
            ..SenderConfig::paper()
        };
        let (mut w, s, r) = tcp_world(
            scfg,
            ReceiverConfig::paper(),
            Rate::from_kbps(50),
            SimDuration::from_millis(10),
            Some(2),
        );
        w.run_until(SimTime::from_secs(200));
        let rx = w
            .endpoint(r)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpReceiver>()
            .unwrap();
        let snd = w
            .endpoint(s)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpSender>()
            .unwrap();
        assert_eq!(rx.cumulative_ack(), rx.stats().delivered);
        assert!(snd.outstanding() <= snd.window());
        assert!(rx.stats().delivered > 1500);
    }
}

#[cfg(test)]
mod finite_tests {
    use super::*;
    use crate::config::ReceiverConfig;
    use crate::receiver::TcpReceiver;
    use td_engine::{Rate, SimDuration};
    use td_net::{ConnId, DisciplineKind, World};

    fn finite_world(limit: u64, capacity: Option<u32>) -> (World, td_net::EndpointId) {
        let mut w = World::new(3);
        let a = w.add_host("a", SimDuration::from_micros(100));
        let b = w.add_host("b", SimDuration::from_micros(100));
        for (x, y) in [(a, b), (b, a)] {
            w.add_channel(
                x,
                y,
                Rate::from_kbps(50),
                SimDuration::from_millis(10),
                capacity,
                DisciplineKind::DropTail.build(),
            );
        }
        let cfg = SenderConfig {
            data_limit: Some(limit),
            ..SenderConfig::paper()
        };
        let s = w.attach(a, b, ConnId(0), TcpSender::boxed(cfg));
        w.attach(b, a, ConnId(0), TcpReceiver::boxed(ReceiverConfig::paper()));
        w.start_at(s, SimTime::ZERO);
        (w, s)
    }

    #[test]
    fn finite_transfer_completes_and_queue_drains() {
        let (mut w, s) = finite_world(50, None);
        // The event queue must drain on its own: no timers may linger.
        w.run_to_completion();
        let snd = w
            .endpoint(s)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpSender>()
            .unwrap();
        let done = snd.finished_at().expect("transfer must finish");
        assert_eq!(snd.stats().acked, 50);
        assert_eq!(snd.stats().new_data_sent, 50);
        // 50 packets at 80 ms ≈ 4 s, plus slow-start ramp.
        assert!(
            done > SimTime::from_secs(4) && done < SimTime::from_secs(10),
            "done at {done}"
        );
    }

    #[test]
    fn finite_transfer_survives_losses() {
        let (mut w, s) = finite_world(80, Some(4));
        w.run_until(SimTime::from_secs(120));
        let snd = w
            .endpoint(s)
            .unwrap()
            .as_any()
            .downcast_ref::<TcpSender>()
            .unwrap();
        assert!(snd.finished_at().is_some(), "transfer stalled");
        assert_eq!(snd.stats().acked, 80);
        assert!(snd.stats().retransmits > 0, "the 4-packet buffer must drop");
    }

    #[test]
    fn no_data_beyond_the_limit_is_sent() {
        let (mut w, _s) = finite_world(10, None);
        w.run_to_completion();
        let max_seq = w
            .trace()
            .records()
            .iter()
            .filter_map(|r| match r.ev {
                td_net::TraceEvent::Send { pkt, .. } if pkt.is_data() => Some(pkt.seq),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(max_seq, 10);
    }
}
