//! Round-trip-time estimation and retransmission timeout.
//!
//! Jacobson/Karels mean/deviation estimation as in BSD 4.3-Tahoe:
//!
//! ```text
//! err    = sample − srtt
//! srtt  += err / 8
//! rttvar += (|err| − rttvar) / 4
//! RTO    = srtt + 4·rttvar      (clamped, rounded up to clock ticks)
//! ```
//!
//! computed in integer nanoseconds (no flops). The BSD implementation
//! sampled RTTs against a 500 ms clock; we sample exactly but round the
//! resulting RTO up to the configured granularity, reproducing the coarse
//! timeout behaviour that makes Tahoe retransmissions land "after some
//! essentially random interval" (paper §3.1) without also reproducing
//! BSD's measurement quantization (which the paper's simulator, working in
//! continuous time, did not have).
//!
//! Karn's rule is enforced by the caller (the send half shared by
//! [`crate::TcpSender`] and [`crate::TcpDuplex`]): samples are only taken
//! for segments transmitted exactly once. Exponential backoff doubles the
//! RTO per consecutive timeout, saturating at the configured maximum.

use crate::config::RtoConfig;
use td_engine::SimDuration;

/// RTT estimator plus backoff state.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    cfg: RtoConfig,
    /// Smoothed RTT in ns; `None` until the first sample.
    srtt: Option<u64>,
    /// Mean deviation in ns.
    rttvar: u64,
    /// Consecutive-timeout count (backoff exponent).
    backoff: u32,
}

impl RttEstimator {
    /// A fresh estimator.
    pub fn new(cfg: RtoConfig) -> Self {
        RttEstimator {
            cfg,
            srtt: None,
            rttvar: 0,
            backoff: 0,
        }
    }

    /// Incorporate one RTT measurement (also clears timeout backoff, as a
    /// valid sample means the network is acking again).
    pub fn sample(&mut self, rtt: SimDuration) {
        let m = rtt.as_nanos();
        match self.srtt {
            None => {
                // First sample: srtt = m, rttvar = m/2 (RFC 6298 / BSD).
                self.srtt = Some(m);
                self.rttvar = m / 2;
            }
            Some(srtt) => {
                let err = m as i128 - srtt as i128;
                let new_srtt = (srtt as i128 + err / 8).max(0) as u64;
                let abs_err = err.unsigned_abs() as u64;
                // rttvar += (|err| - rttvar) / 4, in signed arithmetic.
                let dv = abs_err as i128 - self.rttvar as i128;
                self.rttvar = (self.rttvar as i128 + dv / 4).max(0) as u64;
                self.srtt = Some(new_srtt);
            }
        }
        self.backoff = 0;
    }

    /// Current smoothed RTT (`None` before any sample).
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_nanos)
    }

    /// Note a retransmission timeout: doubles subsequent RTOs.
    pub fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(12); // 2^12 ≫ max/min ratio
    }

    /// Clear backoff without a sample (e.g. on fast retransmit).
    pub fn reset_backoff(&mut self) {
        self.backoff = 0;
    }

    /// Current backoff exponent.
    pub fn backoff(&self) -> u32 {
        self.backoff
    }

    /// Serialize the estimator's mutable state (the config is structural).
    pub fn save_state(&self, w: &mut td_engine::SnapWriter) {
        match self.srtt {
            Some(srtt) => {
                w.write_bool(true);
                w.write_u64(srtt);
            }
            None => w.write_bool(false),
        }
        w.write_u64(self.rttvar);
        w.write_u32(self.backoff);
    }

    /// Restore state written by [`RttEstimator::save_state`].
    pub fn load_state(
        &mut self,
        r: &mut td_engine::SnapReader<'_>,
    ) -> Result<(), td_engine::SnapError> {
        self.srtt = if r.read_bool()? {
            Some(r.read_u64()?)
        } else {
            None
        };
        self.rttvar = r.read_u64()?;
        self.backoff = r.read_u32()?;
        Ok(())
    }

    /// The retransmission timeout to arm now: estimator output (or the
    /// initial RTO), backed off, clamped to `[min, max]`, then rounded up
    /// to the clock granularity.
    pub fn rto(&self) -> SimDuration {
        let base = match self.srtt {
            None => self.cfg.initial,
            Some(srtt) => SimDuration::from_nanos(srtt.saturating_add(4 * self.rttvar)),
        };
        let backed = base.saturating_mul(1u64 << self.backoff);
        let clamped = backed.max(self.cfg.min).min(self.cfg.max);
        round_up(clamped, self.cfg.granularity)
    }
}

fn round_up(d: SimDuration, g: SimDuration) -> SimDuration {
    if g.is_zero() {
        return d;
    }
    let rem = d % g;
    if rem.is_zero() {
        d
    } else {
        // Saturating: with max ≈ SimDuration::MAX (an "unclamped" config)
        // and full backoff, d can sit within one granule of the
        // representable ceiling, where plain addition would overflow.
        d.saturating_add(g - rem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fine_cfg() -> RtoConfig {
        RtoConfig {
            granularity: SimDuration::from_nanos(1),
            initial: SimDuration::from_secs(3),
            min: SimDuration::from_millis(1),
            max: SimDuration::from_secs(64),
        }
    }

    #[test]
    fn initial_rto_used_before_samples() {
        let e = RttEstimator::new(RtoConfig::default());
        assert_eq!(e.rto(), SimDuration::from_secs(3));
        assert!(e.srtt().is_none());
    }

    #[test]
    fn first_sample_initializes_srtt_and_var() {
        let mut e = RttEstimator::new(fine_cfg());
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.srtt(), Some(SimDuration::from_millis(100)));
        // RTO = srtt + 4·(srtt/2) = 3·srtt = 300 ms.
        assert_eq!(e.rto(), SimDuration::from_millis(300));
    }

    #[test]
    fn constant_rtt_converges_to_it() {
        let mut e = RttEstimator::new(fine_cfg());
        for _ in 0..200 {
            e.sample(SimDuration::from_millis(80));
        }
        let srtt = e.srtt().unwrap();
        assert_eq!(srtt, SimDuration::from_millis(80));
        // Deviation decays toward zero → RTO approaches srtt (min-clamped).
        assert!(e.rto() <= SimDuration::from_millis(81), "rto = {}", e.rto());
    }

    #[test]
    fn variance_widens_rto() {
        let mut e = RttEstimator::new(fine_cfg());
        for i in 0..100 {
            let rtt = if i % 2 == 0 { 50 } else { 150 };
            e.sample(SimDuration::from_millis(rtt));
        }
        let srtt = e.srtt().unwrap();
        assert!(
            e.rto() > srtt + SimDuration::from_millis(50),
            "jitter must inflate RTO: rto={} srtt={srtt}",
            e.rto()
        );
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let mut e = RttEstimator::new(fine_cfg());
        e.sample(SimDuration::from_millis(100)); // RTO 300 ms
        e.on_timeout();
        assert_eq!(e.rto(), SimDuration::from_millis(600));
        e.on_timeout();
        assert_eq!(e.rto(), SimDuration::from_millis(1200));
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(64), "saturates at max");
    }

    #[test]
    fn sample_clears_backoff() {
        let mut e = RttEstimator::new(fine_cfg());
        e.sample(SimDuration::from_millis(100));
        e.on_timeout();
        e.on_timeout();
        e.sample(SimDuration::from_millis(100));
        assert_eq!(e.backoff(), 0);
        // Second identical sample decays rttvar: 50 → 37.5 ms, so
        // RTO = 100 + 4·37.5 = 250 ms (no backoff multiplier left).
        assert_eq!(e.rto(), SimDuration::from_millis(250));
    }

    #[test]
    fn reset_backoff_without_sample() {
        let mut e = RttEstimator::new(fine_cfg());
        e.on_timeout();
        assert_eq!(e.backoff(), 1);
        e.reset_backoff();
        assert_eq!(e.backoff(), 0);
    }

    #[test]
    fn granularity_rounds_up() {
        let mut e = RttEstimator::new(RtoConfig {
            granularity: SimDuration::from_millis(500),
            min: SimDuration::from_millis(1),
            ..RtoConfig::default()
        });
        e.sample(SimDuration::from_millis(80)); // raw RTO 240 ms
        assert_eq!(e.rto(), SimDuration::from_millis(500));
        e.sample(SimDuration::from_millis(80));
        assert_eq!(e.rto() % SimDuration::from_millis(500), SimDuration::ZERO);
    }

    /// An RTO that is already an exact multiple of the clock granularity
    /// must be returned as-is — rounding it up a further tick would add
    /// a systematic 500 ms to every coarse-clock timeout.
    #[test]
    fn exact_granularity_multiple_does_not_round_up() {
        let mut e = RttEstimator::new(RtoConfig {
            granularity: SimDuration::from_millis(500),
            min: SimDuration::from_millis(1),
            ..RtoConfig::default()
        });
        // First sample m: RTO = m + 4·(m/2) = 3·m. Pick m = 500 ms so the
        // raw RTO is exactly 1500 ms = 3 ticks.
        e.sample(SimDuration::from_millis(500));
        assert_eq!(e.rto(), SimDuration::from_millis(1500));
        // And one nanosecond over a tick boundary rounds to the next tick.
        let f = RttEstimator::new(RtoConfig {
            granularity: SimDuration::from_millis(500),
            min: SimDuration::from_nanos(1),
            initial: SimDuration::from_nanos(1_500_000_001),
            ..RtoConfig::default()
        });
        assert_eq!(f.rto(), SimDuration::from_millis(2000));
    }

    /// Backoff saturates at 2^12; even with an enormous estimator output
    /// the shifted product must saturate rather than wrap, and rounding
    /// the clamped result to the clock must not overflow either —
    /// `max = SimDuration::MAX` ("effectively unclamped") puts the RTO
    /// within one granule of the representable ceiling.
    #[test]
    fn saturated_backoff_cannot_overflow_the_clamp() {
        let mut e = RttEstimator::new(RtoConfig {
            granularity: SimDuration::from_millis(500),
            min: SimDuration::from_millis(1),
            max: SimDuration::MAX,
            ..RtoConfig::default()
        });
        // srtt + 4·rttvar = 3 × (u64::MAX / 8) — within u64, but any
        // backoff shift would overflow without saturating arithmetic.
        e.sample(SimDuration::from_nanos(u64::MAX / 8));
        for _ in 0..64 {
            e.on_timeout();
        }
        assert_eq!(e.backoff(), 12, "backoff exponent must cap at 2^12");
        let rto = e.rto();
        assert_eq!(
            rto,
            SimDuration::MAX,
            "saturated RTO must pin to the ceiling, got {rto}"
        );
        // A sane max keeps the clamp exact even under full backoff.
        let mut e = RttEstimator::new(RtoConfig {
            granularity: SimDuration::from_millis(500),
            min: SimDuration::from_millis(1),
            max: SimDuration::from_secs(64),
            ..RtoConfig::default()
        });
        e.sample(SimDuration::from_secs(1_000_000));
        for _ in 0..100 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(64));
    }

    #[test]
    fn rto_respects_min() {
        let mut e = RttEstimator::new(RtoConfig {
            granularity: SimDuration::from_nanos(1),
            min: SimDuration::from_secs(1),
            ..RtoConfig::default()
        });
        for _ in 0..100 {
            e.sample(SimDuration::from_millis(1));
        }
        assert_eq!(e.rto(), SimDuration::from_secs(1));
    }
}
