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
use td_engine::{SimDuration, SnapError, SnapReader, SnapWriter};

/// The backoff exponent saturates here: 2¹² ≫ any max/min RTO ratio.
const MAX_BACKOFF: u8 = 12;

/// RTT estimator plus backoff state.
#[derive(Clone, Debug)]
pub struct RttEstimator {
    cfg: RtoConfig,
    state: RttState,
}

impl RttEstimator {
    /// A fresh estimator.
    pub fn new(cfg: RtoConfig) -> Self {
        RttEstimator {
            cfg,
            state: RttState::default(),
        }
    }

    /// Incorporate one RTT measurement (also clears timeout backoff, as a
    /// valid sample means the network is acking again).
    pub fn sample(&mut self, rtt: SimDuration) {
        self.state.sample(rtt);
    }

    /// Current smoothed RTT (`None` before any sample).
    pub fn srtt(&self) -> Option<SimDuration> {
        self.state.srtt()
    }

    /// Note a retransmission timeout: doubles subsequent RTOs.
    pub fn on_timeout(&mut self) {
        self.state.on_timeout();
    }

    /// Clear backoff without a sample (e.g. on fast retransmit).
    pub fn reset_backoff(&mut self) {
        self.state.backoff = 0;
    }

    /// Current backoff exponent.
    pub fn backoff(&self) -> u32 {
        u32::from(self.state.backoff)
    }

    /// Serialize the estimator's mutable state (the config is structural).
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.state.save_state(w);
    }

    /// Restore state written by [`RttEstimator::save_state`].
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.state.load_state(r)
    }

    /// The retransmission timeout to arm now: estimator output (or the
    /// initial RTO), backed off, clamped to `[min, max]`, then rounded up
    /// to the clock granularity.
    pub fn rto(&self) -> SimDuration {
        self.state.rto(&self.cfg)
    }
}

/// An estimator's mutable state without its configuration. A sending
/// endpoint keeps this and reads the [`RtoConfig`] from the
/// [`crate::SenderConfig`] its whole class shares, so the timer
/// parameters are stored once per class, not once per connection.
#[derive(Clone, Debug, Default)]
pub(crate) struct RttState {
    /// Smoothed RTT in ns; meaningful once `sampled`.
    srtt: u64,
    /// Mean deviation in ns.
    rttvar: u64,
    /// Consecutive-timeout count (backoff exponent), at most
    /// [`MAX_BACKOFF`].
    backoff: u8,
    /// A sample has set `srtt`.
    sampled: bool,
}

impl RttState {
    pub(crate) fn sample(&mut self, rtt: SimDuration) {
        let m = rtt.as_nanos();
        if self.sampled {
            let err = m as i128 - self.srtt as i128;
            let new_srtt = (self.srtt as i128 + err / 8).max(0) as u64;
            let abs_err = err.unsigned_abs() as u64;
            // rttvar += (|err| - rttvar) / 4, in signed arithmetic.
            let dv = abs_err as i128 - self.rttvar as i128;
            self.rttvar = (self.rttvar as i128 + dv / 4).max(0) as u64;
            self.srtt = new_srtt;
        } else {
            // First sample: srtt = m, rttvar = m/2 (RFC 6298 / BSD).
            self.srtt = m;
            self.rttvar = m / 2;
            self.sampled = true;
        }
        self.backoff = 0;
    }

    pub(crate) fn srtt(&self) -> Option<SimDuration> {
        self.sampled.then(|| SimDuration::from_nanos(self.srtt))
    }

    pub(crate) fn on_timeout(&mut self) {
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF);
    }

    pub(crate) fn rto(&self, cfg: &RtoConfig) -> SimDuration {
        let base = match self.srtt() {
            None => cfg.initial,
            Some(srtt) => SimDuration::from_nanos(srtt.as_nanos().saturating_add(4 * self.rttvar)),
        };
        let backed = base.saturating_mul(1u64 << self.backoff);
        let clamped = backed.max(cfg.min).min(cfg.max);
        round_up(clamped, cfg.granularity)
    }

    pub(crate) fn save_state(&self, w: &mut SnapWriter) {
        w.write_bool(self.sampled);
        if self.sampled {
            w.write_u64(self.srtt);
        }
        w.write_u64(self.rttvar);
        w.write_u32(u32::from(self.backoff));
    }

    pub(crate) fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.sampled = r.read_bool()?;
        self.srtt = if self.sampled { r.read_u64()? } else { 0 };
        self.rttvar = r.read_u64()?;
        let backoff = r.read_u32()?;
        self.backoff = u8::try_from(backoff)
            .ok()
            .filter(|&b| b <= MAX_BACKOFF)
            .ok_or_else(|| SnapError::Corrupt(format!("RTO backoff {backoff} > {MAX_BACKOFF}")))?;
        Ok(())
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
    fn state_roundtrips_and_an_impossible_backoff_is_corrupt() {
        let mut e = RttEstimator::new(fine_cfg());
        e.sample(SimDuration::from_millis(100));
        for _ in 0..20 {
            e.on_timeout();
        }
        let mut w = SnapWriter::new();
        e.save_state(&mut w);
        let mut bytes = w.into_bytes();
        let mut back = RttEstimator::new(fine_cfg());
        back.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(
            (back.srtt(), back.backoff(), back.rto()),
            (e.srtt(), 12, e.rto())
        );
        // The backoff is the last field, a u32: 13 can never be saved.
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&13u32.to_le_bytes());
        let err = back.load_state(&mut SnapReader::new(&bytes));
        assert!(matches!(err, Err(SnapError::Corrupt(_))), "{err:?}");
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
