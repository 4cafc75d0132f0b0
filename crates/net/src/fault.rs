//! Channel fault injection.
//!
//! The paper's links are error-free (§2.2), so every reproduction run uses
//! [`FaultPlan::NONE`]. The fault subsystem exists for robustness testing
//! of the transport implementation — a TCP that only works on a perfect
//! network is not a TCP. A [`FaultPlan`] composes four orthogonal fault
//! processes per channel:
//!
//! * independent per-packet drop/corrupt coin flips ([`FaultModel`],
//!   following the smoltcp example convention),
//! * [`GilbertElliott`] two-state burst loss (good/bad Markov chain),
//! * packet duplication, and
//! * bounded reordering jitter ([`ReorderJitter`]),
//!
//! plus **scheduled link outages** ([`Outage`]): deterministic `[down, up)`
//! intervals during which the channel refuses to start new transmissions
//! and every packet in transit is destroyed.
//!
//! Determinism: each channel owns a private `SimRng` stream derived from
//! the world seed and the channel id (see `World::add_channel`), which its
//! faults and its queue discipline share, so enabling a fault on one
//! channel cannot perturb any other channel's randomness. Start jitter
//! comes from the scenario's own RNG, never from a channel's. The
//! [`FaultPlan::is_none`] fast path never touches the RNG at all, which
//! keeps error-free runs byte-identical to builds without the fault
//! subsystem.

use td_engine::{SimDuration, SimRng, SimTime};

/// What the fault injector did to a packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// The packet vanished in transit.
    Dropped,
    /// The packet arrived damaged; the receiving node discards it (we model
    /// a perfect checksum).
    Corrupted,
    /// The link was down (scheduled outage) while the packet was in
    /// transit; everything on the wire is lost.
    LinkDown,
}

/// An invalid fault configuration (probability out of range or NaN,
/// malformed outage schedule).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultError(String);

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid fault configuration: {}", self.0)
    }
}

impl std::error::Error for FaultError {}

/// Check one probability: finite and inside `[0, 1]`.
fn check_prob(name: &str, p: f64) -> Result<(), FaultError> {
    if p.is_finite() && (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(FaultError(format!("{name} = {p} is not in [0, 1]")))
    }
}

/// Independent per-packet fault probabilities for one channel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultModel {
    /// Probability a packet is lost in transit.
    pub drop_prob: f64,
    /// Probability a surviving packet arrives corrupted.
    pub corrupt_prob: f64,
}

impl FaultModel {
    /// A perfect channel (the paper's setting).
    pub const NONE: FaultModel = FaultModel {
        drop_prob: 0.0,
        corrupt_prob: 0.0,
    };

    /// A validated model: both probabilities must be finite and in
    /// `[0, 1]`. Direct struct construction bypasses this check (the
    /// fields are public for literals like [`FaultModel::NONE`]), but
    /// [`crate::World::set_fault_plan`] re-validates the whole plan.
    pub fn new(drop_prob: f64, corrupt_prob: f64) -> Result<Self, FaultError> {
        check_prob("drop_prob", drop_prob)?;
        check_prob("corrupt_prob", corrupt_prob)?;
        Ok(FaultModel {
            drop_prob,
            corrupt_prob,
        })
    }

    /// A channel that loses packets at rate `p`.
    pub fn lossy(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability out of range");
        FaultModel {
            drop_prob: p,
            corrupt_prob: 0.0,
        }
    }

    /// True if no fault can ever occur (fast path: skip the RNG entirely,
    /// keeping error-free runs independent of the fault stream).
    pub fn is_none(&self) -> bool {
        self.drop_prob == 0.0 && self.corrupt_prob == 0.0
    }

    /// Roll the dice for one packet.
    pub fn apply(&self, rng: &mut SimRng) -> Option<FaultKind> {
        if self.is_none() {
            return None;
        }
        if self.drop_prob > 0.0 && rng.chance(self.drop_prob) {
            return Some(FaultKind::Dropped);
        }
        if self.corrupt_prob > 0.0 && rng.chance(self.corrupt_prob) {
            return Some(FaultKind::Corrupted);
        }
        None
    }
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel::NONE
    }
}

/// Two-state Gilbert–Elliott burst-loss process.
///
/// The channel flips between a *good* state (lossless here) and a *bad*
/// state; transitions are sampled per packet. Mean burst length is
/// `1 / p_exit` packets, the stationary bad-state fraction is
/// `p_enter / (p_enter + p_exit)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of entering the bad state from the good one.
    pub p_enter: f64,
    /// Per-packet probability of leaving the bad state.
    pub p_exit: f64,
    /// Per-packet loss probability while in the bad state.
    pub loss_bad: f64,
    /// Current state (starts good).
    in_bad: bool,
}

impl GilbertElliott {
    /// A validated burst-loss process starting in the good state.
    pub fn new(p_enter: f64, p_exit: f64, loss_bad: f64) -> Result<Self, FaultError> {
        check_prob("p_enter", p_enter)?;
        check_prob("p_exit", p_exit)?;
        check_prob("loss_bad", loss_bad)?;
        Ok(GilbertElliott {
            p_enter,
            p_exit,
            loss_bad,
            in_bad: false,
        })
    }

    /// Current Markov state (snapshot support: the only mutable fault
    /// progress in a plan).
    pub(crate) fn in_bad(&self) -> bool {
        self.in_bad
    }

    /// Restore the Markov state captured by [`GilbertElliott::in_bad`].
    pub(crate) fn set_in_bad(&mut self, in_bad: bool) {
        self.in_bad = in_bad;
    }

    /// Advance the chain one packet and decide whether that packet is
    /// lost. Loss is sampled in the state the packet *sees* (post
    /// transition), so `p_enter = 1` makes the very first packet eligible.
    fn roll(&mut self, rng: &mut SimRng) -> bool {
        let flip = if self.in_bad {
            self.p_exit
        } else {
            self.p_enter
        };
        if flip > 0.0 && rng.chance(flip) {
            self.in_bad = !self.in_bad;
        }
        self.in_bad && self.loss_bad > 0.0 && rng.chance(self.loss_bad)
    }
}

/// One scheduled link outage: the channel is down for `[down, up)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Outage {
    /// The instant the link goes down (inclusive).
    pub down: SimTime,
    /// The instant the link comes back (exclusive; `SimTime::MAX` = never).
    pub up: SimTime,
}

impl Outage {
    /// True if the link is down at instant `t`.
    pub fn covers(&self, t: SimTime) -> bool {
        self.down <= t && t < self.up
    }

    /// True if a packet occupying the wire over `(tx_end, arrival]` is
    /// destroyed by this outage: the outage begins before the packet
    /// lands and ends after the packet launched.
    pub(crate) fn cuts(&self, tx_end: SimTime, arrival: SimTime) -> bool {
        self.down < arrival && tx_end < self.up || self.covers(tx_end)
    }
}

/// Bounded reordering jitter: with probability `prob`, a delivered packet
/// takes up to `max_extra` additional propagation time, letting later
/// packets overtake it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReorderJitter {
    /// Per-packet probability of being delayed.
    pub prob: f64,
    /// Upper bound on the extra delay (uniform in `[0, max_extra)`).
    pub max_extra: SimDuration,
}

/// What a [`FaultPlan`] decided for one packet leaving the transmitter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultOutcome {
    /// The packet survives; schedule its arrival `extra_delay` after the
    /// nominal propagation time, and a second copy if `duplicate`.
    Deliver {
        /// Reordering jitter beyond the channel's propagation delay.
        extra_delay: SimDuration,
        /// Deliver a duplicate copy at the same instant.
        duplicate: bool,
    },
    /// The packet died in transit.
    Dropped(FaultKind),
}

/// The complete fault configuration of one channel.
///
/// Composes the stochastic processes (coin-flip loss/corruption, burst
/// loss, duplication, jitter) with the deterministic outage schedule. The
/// draw order is fixed — burst, drop, corrupt, duplicate, jitter — so a
/// plan's random stream is a pure function of the packet sequence, and
/// every guard skips the RNG when its process is disabled: an outage-only
/// plan consumes no randomness at all.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Independent per-packet drop/corrupt probabilities.
    pub model: FaultModel,
    /// Optional Gilbert–Elliott burst-loss process.
    pub burst: Option<GilbertElliott>,
    /// Per-packet duplication probability.
    pub dup_prob: f64,
    /// Optional bounded reordering jitter.
    pub jitter: Option<ReorderJitter>,
    /// Scheduled outages, in ascending non-overlapping order.
    pub outages: Vec<Outage>,
}

impl FaultPlan {
    /// A perfect channel (the paper's setting).
    pub const NONE: FaultPlan = FaultPlan {
        model: FaultModel::NONE,
        burst: None,
        dup_prob: 0.0,
        jitter: None,
        outages: Vec::new(),
    };

    /// A plan with only the scheduled outages set.
    ///
    /// The schedule is validated **at construction**: a zero-length,
    /// reversed, unsorted, or overlapping window panics immediately,
    /// naming the offending window. A malformed schedule used to slip
    /// through here and only misbehave (or be rejected by
    /// [`crate::World::set_fault_plan`]) much later — under systematic
    /// exploration, where schedules are machine-generated per branch, the
    /// construction site is the only place a useful backtrace exists.
    /// Callers that want fallible validation instead build the plan with a
    /// struct literal and call [`FaultPlan::validate`].
    pub fn with_outages(outages: Vec<Outage>) -> Self {
        let plan = FaultPlan {
            outages,
            ..FaultPlan::NONE
        };
        if let Err(e) = plan.validate() {
            panic!("malformed outage schedule: {e}");
        }
        plan
    }

    /// A plan with only a burst-loss process set.
    pub fn with_burst(burst: GilbertElliott) -> Self {
        FaultPlan {
            burst: Some(burst),
            ..FaultPlan::NONE
        }
    }

    /// True if this plan can never affect a packet (fast path: the
    /// channel's RNG stream is never touched).
    pub fn is_none(&self) -> bool {
        self.model.is_none()
            && self.burst.is_none()
            && self.dup_prob == 0.0
            && self.jitter.is_none()
            && self.outages.is_empty()
    }

    /// Validate every probability and the outage schedule.
    pub fn validate(&self) -> Result<(), FaultError> {
        check_prob("drop_prob", self.model.drop_prob)?;
        check_prob("corrupt_prob", self.model.corrupt_prob)?;
        check_prob("dup_prob", self.dup_prob)?;
        if let Some(ge) = &self.burst {
            check_prob("p_enter", ge.p_enter)?;
            check_prob("p_exit", ge.p_exit)?;
            check_prob("loss_bad", ge.loss_bad)?;
        }
        if let Some(j) = &self.jitter {
            check_prob("jitter prob", j.prob)?;
        }
        let mut prev = None::<Outage>;
        for (i, o) in self.outages.iter().enumerate() {
            if o.up <= o.down {
                return Err(FaultError(format!(
                    "outage {i} [{:?}, {:?}) has up <= down (zero-length or reversed window)",
                    o.down, o.up
                )));
            }
            if let Some(p) = prev {
                if o.down < p.up {
                    return Err(FaultError(format!(
                        "outage {i} [{:?}, {:?}) overlaps or precedes outage {} [{:?}, {:?})",
                        o.down,
                        o.up,
                        i - 1,
                        p.down,
                        p.up
                    )));
                }
            }
            prev = Some(*o);
        }
        Ok(())
    }

    /// True if the link is down at instant `t`.
    pub fn is_down(&self, t: SimTime) -> bool {
        self.outages.iter().any(|o| o.covers(t))
    }

    /// Decide the fate of one packet whose serialization ends at `tx_end`
    /// and whose nominal propagation delay is `delay`.
    ///
    /// Stochastic draws happen on `rng` in a fixed order with
    /// disabled-process guards; the outage check is purely deterministic
    /// and consumes no randomness.
    pub fn decide(
        &mut self,
        tx_end: SimTime,
        delay: SimDuration,
        rng: &mut SimRng,
    ) -> FaultOutcome {
        if self.is_none() {
            return FaultOutcome::Deliver {
                extra_delay: SimDuration::ZERO,
                duplicate: false,
            };
        }
        if let Some(ge) = &mut self.burst {
            if ge.roll(rng) {
                return FaultOutcome::Dropped(FaultKind::Dropped);
            }
        }
        if let Some(kind) = self.model.apply(rng) {
            return FaultOutcome::Dropped(kind);
        }
        let duplicate = self.dup_prob > 0.0 && rng.chance(self.dup_prob);
        let extra_delay = match &self.jitter {
            Some(j) if j.prob > 0.0 && !j.max_extra.is_zero() && rng.chance(j.prob) => {
                SimDuration::from_nanos(rng.next_below(j.max_extra.as_nanos()))
            }
            _ => SimDuration::ZERO,
        };
        let arrival = tx_end + delay + extra_delay;
        if self.outages.iter().any(|o| o.cuts(tx_end, arrival)) {
            return FaultOutcome::Dropped(FaultKind::LinkDown);
        }
        FaultOutcome::Deliver {
            extra_delay,
            duplicate,
        }
    }
}

impl From<FaultModel> for FaultPlan {
    fn from(model: FaultModel) -> Self {
        FaultPlan {
            model,
            ..FaultPlan::NONE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_faults_and_never_touches_rng() {
        let mut rng = SimRng::new(1);
        let before = rng.clone().next_u64();
        for _ in 0..100 {
            assert_eq!(FaultModel::NONE.apply(&mut rng), None);
        }
        assert_eq!(rng.next_u64(), before, "RNG stream was consumed");
    }

    #[test]
    fn certain_drop_always_drops() {
        let mut rng = SimRng::new(2);
        let m = FaultModel::lossy(1.0);
        for _ in 0..100 {
            assert_eq!(m.apply(&mut rng), Some(FaultKind::Dropped));
        }
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let mut rng = SimRng::new(3);
        let m = FaultModel::lossy(0.3);
        let n = 100_000;
        let drops = (0..n).filter(|_| m.apply(&mut rng).is_some()).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.01, "observed rate {rate}");
    }

    #[test]
    fn corrupt_only_model() {
        let mut rng = SimRng::new(4);
        let m = FaultModel {
            drop_prob: 0.0,
            corrupt_prob: 1.0,
        };
        assert_eq!(m.apply(&mut rng), Some(FaultKind::Corrupted));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn lossy_rejects_bad_probability() {
        let _ = FaultModel::lossy(1.5);
    }

    #[test]
    fn fallible_constructor_validates() {
        assert!(FaultModel::new(0.1, 0.2).is_ok());
        assert!(FaultModel::new(0.0, 0.0).is_ok());
        assert!(FaultModel::new(1.0, 1.0).is_ok());
        for (d, c) in [
            (f64::NAN, 0.0),
            (0.0, f64::NAN),
            (-0.1, 0.0),
            (0.0, 1.5),
            (f64::INFINITY, 0.0),
            (0.0, f64::NEG_INFINITY),
        ] {
            let err = FaultModel::new(d, c).unwrap_err();
            assert!(
                err.to_string().contains("not in [0, 1]"),
                "unexpected error for ({d}, {c}): {err}"
            );
        }
    }

    #[test]
    fn gilbert_elliott_validates_and_bursts() {
        assert!(GilbertElliott::new(f64::NAN, 0.1, 0.1).is_err());
        assert!(GilbertElliott::new(0.1, 1.5, 0.1).is_err());
        let mut ge = GilbertElliott::new(0.05, 0.2, 1.0).unwrap();
        let mut rng = SimRng::new(9);
        let n = 200_000;
        let losses = (0..n).filter(|_| ge.roll(&mut rng)).count();
        // Stationary bad fraction: 0.05 / 0.25 = 0.2; loss_bad = 1.
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed burst-loss rate {rate}");
        // Losses must arrive in runs, not independently: count loss-after-
        // loss transitions; independent losses at rate 0.2 would see ~0.2,
        // a burst process with mean length 5 sees ~0.8.
        let mut ge2 = GilbertElliott::new(0.05, 0.2, 1.0).unwrap();
        let seq: Vec<bool> = (0..n).map(|_| ge2.roll(&mut rng)).collect();
        let pairs = seq.windows(2).filter(|w| w[0]).count();
        let repeats = seq.windows(2).filter(|w| w[0] && w[1]).count();
        let cond = repeats as f64 / pairs as f64;
        assert!(cond > 0.6, "losses not bursty: P(loss|loss) = {cond}");
    }

    #[test]
    fn outage_covers_and_cuts() {
        let o = Outage {
            down: SimTime::from_secs(10),
            up: SimTime::from_secs(20),
        };
        assert!(!o.covers(SimTime::from_secs(9)));
        assert!(o.covers(SimTime::from_secs(10)));
        assert!(o.covers(SimTime::from_secs(19)));
        assert!(!o.covers(SimTime::from_secs(20)));
        // Launched before the outage, lands inside it: cut.
        assert!(o.cuts(SimTime::from_secs(9), SimTime::from_secs(11)));
        // Launched inside: cut.
        assert!(o.cuts(SimTime::from_secs(15), SimTime::from_secs(25)));
        // Fully before or fully after: untouched.
        assert!(!o.cuts(SimTime::from_secs(5), SimTime::from_secs(9)));
        assert!(!o.cuts(SimTime::from_secs(20), SimTime::from_secs(22)));
    }

    /// Build a plan around a possibly-malformed schedule *without* the
    /// construction-time panic, for exercising the fallible `validate`.
    fn raw_plan(outages: Vec<Outage>) -> FaultPlan {
        FaultPlan {
            outages,
            ..FaultPlan::NONE
        }
    }

    #[test]
    fn plan_validation_rejects_malformed_outages() {
        let bad_order = raw_plan(vec![Outage {
            down: SimTime::from_secs(5),
            up: SimTime::from_secs(5),
        }]);
        let err = bad_order.validate().unwrap_err().to_string();
        assert!(
            err.contains("outage 0"),
            "error does not name the window: {err}"
        );
        let overlapping = raw_plan(vec![
            Outage {
                down: SimTime::from_secs(1),
                up: SimTime::from_secs(10),
            },
            Outage {
                down: SimTime::from_secs(5),
                up: SimTime::from_secs(20),
            },
        ]);
        let err = overlapping.validate().unwrap_err().to_string();
        assert!(
            err.contains("outage 1") && err.contains("overlaps"),
            "error does not name both windows: {err}"
        );
        let ok = FaultPlan::with_outages(vec![
            Outage {
                down: SimTime::from_secs(1),
                up: SimTime::from_secs(10),
            },
            Outage {
                down: SimTime::from_secs(10),
                up: SimTime::from_secs(20),
            },
        ]);
        assert!(ok.validate().is_ok());
        let nan = FaultPlan {
            dup_prob: f64::NAN,
            ..FaultPlan::NONE
        };
        assert!(nan.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "outage 0")]
    fn with_outages_panics_on_zero_length_window() {
        let _ = FaultPlan::with_outages(vec![Outage {
            down: SimTime::from_secs(3),
            up: SimTime::from_secs(3),
        }]);
    }

    #[test]
    #[should_panic(expected = "up <= down")]
    fn with_outages_panics_on_reversed_window() {
        let _ = FaultPlan::with_outages(vec![Outage {
            down: SimTime::from_secs(9),
            up: SimTime::from_secs(2),
        }]);
    }

    #[test]
    #[should_panic(expected = "overlaps or precedes outage 0")]
    fn with_outages_panics_on_overlapping_windows() {
        let _ = FaultPlan::with_outages(vec![
            Outage {
                down: SimTime::from_secs(1),
                up: SimTime::from_secs(10),
            },
            Outage {
                down: SimTime::from_secs(5),
                up: SimTime::from_secs(20),
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "overlaps or precedes")]
    fn with_outages_panics_on_unsorted_windows() {
        let _ = FaultPlan::with_outages(vec![
            Outage {
                down: SimTime::from_secs(20),
                up: SimTime::from_secs(30),
            },
            Outage {
                down: SimTime::from_secs(1),
                up: SimTime::from_secs(5),
            },
        ]);
    }

    /// Satellite property: over a long run, the empirical Gilbert–Elliott
    /// loss rate converges to the stationary rate its transition
    /// probabilities imply — `p_enter / (p_enter + p_exit) * loss_bad` —
    /// across a grid of parameter combinations, each on its own isolated
    /// RNG stream (derived the way `World::add_channel` derives per-channel
    /// fault streams, so the test exercises the production stream shape).
    #[test]
    fn gilbert_elliott_converges_to_stationary_loss_rate() {
        const FAULT_STREAM: u64 = 0xFA17_57F3_A400_0000;
        let n = 400_000u64;
        for (ch, (p_enter, p_exit, loss_bad)) in [
            (0u64, (0.05, 0.20, 1.0)),
            (1, (0.01, 0.10, 0.8)),
            (2, (0.30, 0.30, 0.5)),
            (3, (0.002, 0.05, 1.0)),
        ] {
            let mut rng = SimRng::new(42).derive(FAULT_STREAM ^ ch);
            let mut ge = GilbertElliott::new(p_enter, p_exit, loss_bad).unwrap();
            let losses = (0..n).filter(|_| ge.roll(&mut rng)).count();
            let stationary = p_enter / (p_enter + p_exit) * loss_bad;
            let empirical = losses as f64 / n as f64;
            // Burst correlation inflates the variance well beyond the
            // i.i.d. binomial sigma; a ±15% relative band (floored for
            // tiny rates) is comfortably tight at n = 400k for these
            // mixing rates while never flaking across seeds.
            let tol = (stationary * 0.15).max(0.004);
            assert!(
                (empirical - stationary).abs() < tol,
                "channel {ch}: empirical {empirical:.4} vs stationary {stationary:.4} \
                 (p_enter={p_enter}, p_exit={p_exit}, loss_bad={loss_bad})"
            );
        }
    }

    #[test]
    fn none_plan_decides_without_touching_rng() {
        let mut plan = FaultPlan::NONE;
        let mut rng = SimRng::new(5);
        let before = rng.clone().next_u64();
        for i in 0..50 {
            let out = plan.decide(
                SimTime::from_secs(i),
                SimDuration::from_millis(10),
                &mut rng,
            );
            assert_eq!(
                out,
                FaultOutcome::Deliver {
                    extra_delay: SimDuration::ZERO,
                    duplicate: false,
                }
            );
        }
        assert_eq!(rng.next_u64(), before, "NONE plan consumed randomness");
    }

    #[test]
    fn outage_only_plan_is_deterministic_and_rng_free() {
        let mut plan = FaultPlan::with_outages(vec![Outage {
            down: SimTime::from_secs(10),
            up: SimTime::from_secs(20),
        }]);
        let mut rng = SimRng::new(6);
        let before = rng.clone().next_u64();
        let d = SimDuration::from_millis(10);
        assert!(matches!(
            plan.decide(SimTime::from_secs(5), d, &mut rng),
            FaultOutcome::Deliver { .. }
        ));
        assert_eq!(
            plan.decide(SimTime::from_secs(15), d, &mut rng),
            FaultOutcome::Dropped(FaultKind::LinkDown)
        );
        // In transit when the outage begins: destroyed on the wire.
        assert_eq!(
            plan.decide(
                SimTime::from_nanos(SimTime::from_secs(10).as_nanos() - 1),
                d,
                &mut rng
            ),
            FaultOutcome::Dropped(FaultKind::LinkDown)
        );
        assert!(matches!(
            plan.decide(SimTime::from_secs(20), d, &mut rng),
            FaultOutcome::Deliver { .. }
        ));
        assert_eq!(rng.next_u64(), before, "outage plan consumed randomness");
    }

    #[test]
    fn duplication_and_jitter_draw_bounded() {
        let mut plan = FaultPlan {
            dup_prob: 1.0,
            jitter: Some(ReorderJitter {
                prob: 1.0,
                max_extra: SimDuration::from_millis(5),
            }),
            ..FaultPlan::NONE
        };
        let mut rng = SimRng::new(7);
        for _ in 0..1000 {
            match plan.decide(
                SimTime::from_secs(1),
                SimDuration::from_millis(10),
                &mut rng,
            ) {
                FaultOutcome::Deliver {
                    extra_delay,
                    duplicate,
                } => {
                    assert!(duplicate);
                    assert!(extra_delay < SimDuration::from_millis(5));
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn plan_from_model_roundtrips() {
        let plan = FaultPlan::from(FaultModel::lossy(0.25));
        assert_eq!(plan.model.drop_prob, 0.25);
        assert!(!plan.is_none());
        assert!(FaultPlan::from(FaultModel::NONE).is_none());
    }
}
