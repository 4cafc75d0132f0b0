//! Unreliable datagram traffic sources.
//!
//! The paper closes (§6) with open measurement questions: "is
//! ACK-compression a common phenomenon in these networks? Are the packets
//! from different connections clustered in network queues, or are they
//! mostly interleaved?" Real networks have *cross-traffic* — datagrams
//! that do not answer to any window — and its interleaving is one natural
//! force against clustering. These endpoints provide it:
//!
//! * [`PoissonSource`] emits fixed-size packets at exponentially
//!   distributed intervals (a Poisson process of configurable rate),
//!   with no flow or congestion control — classic background load;
//! * [`Blackhole`] absorbs whatever arrives and counts it (no ACKs).
//!
//! The `crosstraffic` experiment uses them to measure how much background
//! load it takes to break the Tahoe clusters apart.

use std::any::Any;
use td_engine::{SimDuration, SimRng, SnapError, SnapReader, SnapWriter};
use td_net::{Ctx, Endpoint, Packet, PacketKind};

const TOKEN_SEND: u64 = 7;

/// A Poisson packet source (open-loop, no transport).
pub struct PoissonSource {
    /// Mean packets per second.
    rate_pps: f64,
    /// Wire size of each packet.
    size: u32,
    /// The source's own stream for its gaps, so its draws never depend
    /// on how other components' events interleave with its own.
    rng: SimRng,
    seq: u64,
    sent: u64,
}

impl PoissonSource {
    /// A source emitting `size`-byte packets at `rate_pps` per second on
    /// average, drawing its gaps from `rng`. Give each source in a world
    /// a stream of its own (e.g. `derive` with a distinct label): two
    /// sources on one stream state would draw identical gaps.
    pub fn new(rate_pps: f64, size: u32, rng: SimRng) -> Self {
        assert!(
            rate_pps > 0.0 && rate_pps.is_finite(),
            "rate must be positive"
        );
        PoissonSource {
            rate_pps,
            size,
            rng,
            seq: 0,
            sent: 0,
        }
    }

    /// A boxed source for [`td_net::World::attach`].
    pub fn boxed(rate_pps: f64, size: u32, rng: SimRng) -> Box<dyn Endpoint> {
        Box::new(Self::new(rate_pps, size, rng))
    }

    /// Packets emitted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_>) {
        // Exponential inter-arrival: -ln(U)/lambda, U in (0, 1].
        let u = 1.0 - self.rng.next_f64(); // (0, 1]
        let gap_s = -u.ln() / self.rate_pps;
        ctx.set_timer(SimDuration::from_secs_f64(gap_s), TOKEN_SEND);
    }
}

impl Endpoint for PoissonSource {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.schedule_next(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
        // Open loop: any arriving packet (there should be none) is ignored.
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        debug_assert_eq!(token, TOKEN_SEND);
        self.seq += 1;
        self.sent += 1;
        ctx.send(PacketKind::Data, self.seq, self.size, false);
        self.schedule_next(ctx);
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.write_rng(&self.rng);
        w.write_u64(self.seq);
        w.write_u64(self.sent);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.rng = r.read_rng()?;
        self.seq = r.read_u64()?;
        self.sent = r.read_u64()?;
        Ok(())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Absorbs all arriving packets; never replies.
#[derive(Default)]
pub struct Blackhole {
    received: u64,
}

impl Blackhole {
    /// A boxed sink for [`td_net::World::attach`].
    pub fn boxed() -> Box<dyn Endpoint> {
        Box::new(Self::default())
    }

    /// Packets absorbed.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Endpoint for Blackhole {
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _pkt: Packet) {
        self.received += 1;
    }
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}
    fn save_state(&self, w: &mut SnapWriter) {
        w.write_u64(self.received);
    }
    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.received = r.read_u64()?;
        Ok(())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_engine::{Rate, SimTime};
    use td_net::{ConnId, DisciplineKind, FaultModel, TraceEvent, World};

    fn run(rate_pps: f64, secs: u64, seed: u64) -> (u64, u64, Vec<f64>) {
        let mut w = World::new(seed);
        let a = w.add_host("a", SimDuration::from_micros(100));
        let b = w.add_host("b", SimDuration::from_micros(100));
        for (x, y) in [(a, b), (b, a)] {
            w.add_channel(
                x,
                y,
                Rate::from_mbps(10),
                SimDuration::from_millis(1),
                None,
                DisciplineKind::DropTail.build(),
                FaultModel::NONE,
            );
        }
        let src = w.attach(
            a,
            b,
            ConnId(0),
            PoissonSource::boxed(rate_pps, 500, SimRng::new(seed)),
        );
        let snk = w.attach(b, a, ConnId(0), Blackhole::boxed());
        w.start_at(src, SimTime::ZERO);
        w.run_until(SimTime::from_secs(secs));
        let sent = w
            .endpoint(src)
            .unwrap()
            .as_any()
            .downcast_ref::<PoissonSource>()
            .unwrap()
            .sent();
        let rcvd = w
            .endpoint(snk)
            .unwrap()
            .as_any()
            .downcast_ref::<Blackhole>()
            .unwrap()
            .received();
        let gaps: Vec<f64> = {
            let sends: Vec<SimTime> = w
                .trace()
                .records()
                .iter()
                .filter_map(|r| match r.ev {
                    TraceEvent::Send { pkt, .. } if pkt.is_data() => Some(r.t),
                    _ => None,
                })
                .collect();
            sends
                .windows(2)
                .map(|p| p[1].since(p[0]).as_secs_f64())
                .collect()
        };
        (sent, rcvd, gaps)
    }

    #[test]
    fn rate_is_honoured_on_average() {
        let (sent, _, _) = run(50.0, 200, 1);
        let rate = sent as f64 / 200.0;
        assert!((rate - 50.0).abs() < 5.0, "measured rate {rate}");
    }

    #[test]
    fn everything_sent_is_absorbed() {
        let (sent, rcvd, _) = run(20.0, 100, 2);
        // A handful may be in flight at the cutoff.
        assert!(sent - rcvd <= 3, "sent {sent} rcvd {rcvd}");
        assert!(rcvd > 1000);
    }

    #[test]
    fn interarrivals_look_exponential() {
        let (_, _, gaps) = run(100.0, 300, 3);
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.01).abs() < 0.001, "mean gap {mean}");
        // Memorylessness fingerprint: CoV of an exponential is 1.
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cov = var.sqrt() / mean;
        assert!((cov - 1.0).abs() < 0.1, "CoV {cov}");
    }

    #[test]
    fn different_seeds_different_processes() {
        let (_, _, a) = run(50.0, 50, 10);
        let (_, _, b) = run(50.0, 50, 11);
        assert_ne!(a.len(), b.len());
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        let _ = PoissonSource::new(0.0, 500, SimRng::new(1));
    }
}
