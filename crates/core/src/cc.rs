//! Congestion-control window state machines.
//!
//! The paper's window arithmetic is in *packets* and real-valued; what the
//! network ever sees is `wnd = ⌊min(cwnd, maxwnd)⌋`. For the paper's
//! modified increment rule (`cwnd += 1/⌊cwnd⌋`) we track the window in
//! exact integer form — `⌊cwnd⌋` plus a count of avoidance ACKs since the
//! last integer crossing — so the dynamics are free of floating-point
//! accumulation error and `⌊cwnd⌋` provably grows by one per epoch. The
//! original rule (`cwnd += 1/cwnd`) keeps a genuine `f64`, anomaly and all,
//! for the ablation comparing the two.
//!
//! [`CcKind::build`] returns a [`Cc`], a closed enum over the four
//! algorithms that the send half holds inline: building a connection
//! allocates nothing for its congestion control, and an ACK reaches the
//! algorithm through one `match`, not a pointer chase and a virtual call.
//! Each algorithm is a plain struct; [`Cc`]'s inherent methods are the
//! whole interface (there is no trait to import).

use td_engine::{SnapError, SnapReader, SnapWriter};
use td_net::LossKind;

/// Which congestion-avoidance increment to use (paper §2.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IncrementRule {
    /// `cwnd += 1/⌊cwnd⌋` — the paper's modification; `⌊cwnd⌋` advances by
    /// exactly one per congestion-avoidance epoch. Our default, as in the
    /// paper's simulations.
    #[default]
    Modified,
    /// `cwnd += 1/cwnd` — the literal BSD 4.3-Tahoe rule, which can leave
    /// `⌊cwnd⌋` unchanged across an epoch (the anomaly of §2.1).
    Original,
}

/// Congestion-control algorithm selector for configs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CcKind {
    /// BSD 4.3-Tahoe (the paper's algorithm).
    Tahoe {
        /// Avoidance increment rule.
        rule: IncrementRule,
    },
    /// Constant window, no reaction to loss (Figures 8–9 idealization).
    FixedWindow {
        /// The fixed window, in packets.
        wnd: u64,
    },
    /// Tahoe plus fast recovery (4.3-Reno).
    Reno,
    /// The DECbit / CE-bit congestion-avoidance policy of Jain,
    /// Ramakrishnan & Chiu \[8, 15\] — the algorithm whose two-way-traffic
    /// behaviour on a real OSI testbed (Wilder et al. \[17\]) the paper's §5
    /// compares against. Requires CE marking on the bottleneck channels.
    Decbit,
}

impl Default for CcKind {
    fn default() -> Self {
        CcKind::Tahoe {
            rule: IncrementRule::Modified,
        }
    }
}

impl CcKind {
    /// Instantiate the state machine.
    pub fn build(self, maxwnd: u64) -> Cc {
        match self {
            CcKind::Tahoe { rule } => Cc::Tahoe(Tahoe::new(rule, maxwnd)),
            CcKind::FixedWindow { wnd } => Cc::FixedWindow(FixedWindow { wnd }),
            CcKind::Reno => Cc::Reno(Reno::new(maxwnd)),
            CcKind::Decbit => Cc::Decbit(Decbit::new(maxwnd)),
        }
    }
}

/// A window state machine driven by the sender, held inline: one variant
/// per algorithm, dispatched by `match` on every ACK.
///
/// Call order per event:
/// * new data acknowledged → [`Cc::on_ack_marked`] (once per ACK that
///   advances `snd_una`, as in BSD, regardless of how many packets it
///   covers; [`Cc::on_ack`] when there is no echo bit to pass);
/// * duplicate ACK → [`Cc::on_dupack`];
/// * loss detected → [`Cc::on_loss`];
/// * first ACK of new data after a loss-recovery episode →
///   [`Cc::on_recovery_ack`].
pub enum Cc {
    /// BSD 4.3-Tahoe.
    Tahoe(Tahoe),
    /// A constant window.
    FixedWindow(FixedWindow),
    /// Tahoe plus fast recovery.
    Reno(Reno),
    /// The DECbit policy.
    Decbit(Decbit),
}

/// Run `$body` with `$c` bound to whichever algorithm `$cc` holds.
///
/// Tahoe — the paper's algorithm and the default — is split off first, so
/// it costs one compare and a predictable branch. A flat four-arm `match`
/// compiles to a jump table over the niche-packed tag, which measured
/// ≈ 2 ns per ACK slower than this on a Tahoe ACK loop.
macro_rules! each {
    ($cc:expr, $c:ident => $body:expr) => {
        match $cc {
            Cc::Tahoe($c) => $body,
            rest => match rest {
                Cc::FixedWindow($c) => $body,
                Cc::Reno($c) => $body,
                Cc::Decbit($c) => $body,
                Cc::Tahoe($c) => $body,
            },
        }
    };
}

impl Cc {
    /// Usable window right now: `⌊min(cwnd, maxwnd)⌋`, in packets.
    pub fn window(&self) -> u64 {
        each!(self, c => c.window())
    }

    /// Real-valued congestion window, for traces/plots.
    pub fn cwnd(&self) -> f64 {
        each!(self, c => c.cwnd())
    }

    /// Current slow-start threshold, for traces/plots.
    pub fn ssthresh(&self) -> f64 {
        each!(self, c => c.ssthresh())
    }

    /// An ACK advanced `snd_una`.
    pub fn on_ack(&mut self) {
        each!(self, c => c.on_ack())
    }

    /// An ACK advanced `snd_una`, with its congestion-experienced echo bit
    /// (DECbit). Algorithms that ignore marking (Tahoe, Reno, fixed) take
    /// it as [`Cc::on_ack`].
    pub fn on_ack_marked(&mut self, ce: bool) {
        match self {
            Cc::Decbit(d) => d.on_ack_marked(ce),
            _ => self.on_ack(),
        }
    }

    /// A duplicate ACK arrived (before the fast-retransmit threshold).
    /// Only Reno reacts (window inflation during recovery).
    pub fn on_dupack(&mut self) {
        if let Cc::Reno(r) = self {
            r.on_dupack();
        }
    }

    /// A loss was detected (duplicate-ACK threshold or timeout).
    pub fn on_loss(&mut self, kind: LossKind) {
        each!(self, c => c.on_loss(kind))
    }

    /// The first ACK of new data after a loss-recovery episode (Reno
    /// deflates its window here; others ignore it).
    pub fn on_recovery_ack(&mut self) {
        if let Cc::Reno(r) = self {
            r.on_recovery_ack();
        }
    }

    /// Serialize the algorithm's *mutable* state for a simulation
    /// snapshot. Structural parameters (`maxwnd`, the increment rule) are
    /// not written — a restore target is rebuilt from the same config and
    /// only needs the dynamics re-applied.
    pub fn save_state(&self, w: &mut SnapWriter) {
        each!(self, c => c.save_state(w))
    }

    /// Apply state written by [`Cc::save_state`] onto a structurally
    /// identical instance.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        each!(self, c => c.load_state(r))
    }
}

// ---------------------------------------------------------------------------
// Tahoe
// ---------------------------------------------------------------------------

/// Exact-arithmetic cwnd for the modified rule; f64 for the original.
#[derive(Clone, Copy, Debug)]
enum Wnd {
    /// `cwnd = floor + frac/floor` with `frac < floor`.
    Exact { floor: u64, frac: u64 },
    /// Real-valued cwnd (original rule).
    Real { cwnd: f64 },
}

/// BSD 4.3-Tahoe congestion control (paper §2.1).
pub struct Tahoe {
    wnd: Wnd,
    /// In *half-packets* so `cwnd/2` stays exact: ssthresh = `ssthresh_x2/2`.
    ssthresh_x2: u64,
    maxwnd: u64,
    rule: IncrementRule,
}

impl Tahoe {
    /// A fresh connection: `cwnd = 1`, `ssthresh = maxwnd` (BSD initializes
    /// the threshold to the largest window so the first epoch is pure slow
    /// start).
    pub fn new(rule: IncrementRule, maxwnd: u64) -> Self {
        assert!(maxwnd >= 2, "maxwnd must be at least 2");
        Tahoe {
            wnd: match rule {
                IncrementRule::Modified => Wnd::Exact { floor: 1, frac: 0 },
                IncrementRule::Original => Wnd::Real { cwnd: 1.0 },
            },
            ssthresh_x2: maxwnd * 2,
            maxwnd,
            rule,
        }
    }

    /// `cwnd < ssthresh`, computed exactly for the Exact representation:
    /// floor + frac/floor < s/2  ⟺  2·floor² + 2·frac < s·floor.
    fn below_threshold(&self) -> bool {
        match self.wnd {
            Wnd::Exact { floor, frac } => 2 * floor * floor + 2 * frac < self.ssthresh_x2 * floor,
            Wnd::Real { cwnd } => cwnd < self.ssthresh_x2 as f64 / 2.0,
        }
    }

    fn window(&self) -> u64 {
        let floor = match self.wnd {
            Wnd::Exact { floor, .. } => floor,
            Wnd::Real { cwnd } => cwnd as u64,
        };
        floor.min(self.maxwnd)
    }

    fn cwnd(&self) -> f64 {
        match self.wnd {
            Wnd::Exact { floor, frac } => floor as f64 + frac as f64 / floor as f64,
            Wnd::Real { cwnd } => cwnd,
        }
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh_x2 as f64 / 2.0
    }

    fn on_ack(&mut self) {
        let slow = self.below_threshold();
        match &mut self.wnd {
            Wnd::Exact { floor, frac } => {
                if slow {
                    *floor = (*floor + 1).min(self.maxwnd);
                    *frac = 0;
                } else {
                    *frac += 1;
                    if *frac >= *floor {
                        *floor = (*floor + 1).min(self.maxwnd);
                        *frac = 0;
                    }
                }
            }
            Wnd::Real { cwnd } => {
                if slow {
                    *cwnd += 1.0;
                } else {
                    *cwnd += 1.0 / *cwnd; // the original, anomalous rule
                }
                *cwnd = cwnd.min(self.maxwnd as f64);
            }
        }
    }

    fn on_loss(&mut self, _kind: LossKind) {
        // ssthresh = max(min(cwnd/2, maxwnd), 2); cwnd = 1.   (paper §2.1)
        let half_x2 = match self.wnd {
            // 2·(cwnd/2) = cwnd = floor + frac/floor → round down to
            // half-packet resolution: (2·floor² + 2·frac) / (2·floor).
            Wnd::Exact { floor, frac } => (2 * floor * floor + 2 * frac) / (2 * floor),
            Wnd::Real { cwnd } => cwnd as u64, // ⌊cwnd⌋ half-packets = cwnd/2
        };
        self.ssthresh_x2 = half_x2.min(self.maxwnd * 2).max(4);
        self.wnd = match self.rule {
            IncrementRule::Modified => Wnd::Exact { floor: 1, frac: 0 },
            IncrementRule::Original => Wnd::Real { cwnd: 1.0 },
        };
    }

    fn save_state(&self, w: &mut SnapWriter) {
        match self.wnd {
            Wnd::Exact { floor, frac } => {
                w.write_u8(0);
                w.write_u64(floor);
                w.write_u64(frac);
            }
            Wnd::Real { cwnd } => {
                w.write_u8(1);
                w.write_f64(cwnd);
            }
        }
        w.write_u64(self.ssthresh_x2);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let wnd = match (r.read_u8()?, self.rule) {
            (0, IncrementRule::Modified) => Wnd::Exact {
                floor: r.read_u64()?,
                frac: r.read_u64()?,
            },
            (1, IncrementRule::Original) => Wnd::Real {
                cwnd: r.read_f64()?,
            },
            (tag @ (0 | 1), _) => {
                return Err(SnapError::Mismatch(format!(
                    "tahoe window representation {tag} does not match rule {:?}",
                    self.rule
                )))
            }
            (tag, _) => return Err(SnapError::Corrupt(format!("tahoe window tag {tag}"))),
        };
        self.wnd = wnd;
        self.ssthresh_x2 = r.read_u64()?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// FixedWindow
// ---------------------------------------------------------------------------

/// A constant window; ignores every congestion signal. The idealization of
/// the paper's Figures 8–9 used to isolate ACK-compression from the
/// congestion-control dynamics.
pub struct FixedWindow {
    wnd: u64,
}

impl FixedWindow {
    fn window(&self) -> u64 {
        self.wnd
    }
    fn cwnd(&self) -> f64 {
        self.wnd as f64
    }
    fn ssthresh(&self) -> f64 {
        self.wnd as f64
    }
    fn on_ack(&mut self) {}
    fn on_loss(&mut self, _kind: LossKind) {}
    // The window is structural; there is no mutable state.
    fn save_state(&self, _w: &mut SnapWriter) {}
    fn load_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reno
// ---------------------------------------------------------------------------

/// Tahoe plus fast recovery (4.3-Reno, Jacobson 1990).
///
/// On the third duplicate ACK: `ssthresh = max(min(cwnd/2, maxwnd), 2)`,
/// `cwnd = ssthresh + 3`, and each further duplicate inflates `cwnd` by one
/// (the dup ACK means a packet left the network). The first ACK of new data
/// deflates `cwnd` back to `ssthresh`. Timeouts fall back to the Tahoe
/// reduction (`cwnd = 1`).
pub struct Reno {
    cwnd: f64,
    ssthresh: f64,
    maxwnd: u64,
    in_recovery: bool,
}

impl Reno {
    /// A fresh Reno connection.
    pub fn new(maxwnd: u64) -> Self {
        assert!(maxwnd >= 2, "maxwnd must be at least 2");
        Reno {
            cwnd: 1.0,
            ssthresh: maxwnd as f64,
            maxwnd,
            in_recovery: false,
        }
    }

    fn window(&self) -> u64 {
        (self.cwnd as u64).min(self.maxwnd)
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    fn on_ack(&mut self) {
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0;
        } else {
            self.cwnd += 1.0 / self.cwnd.floor().max(1.0);
        }
        self.cwnd = self.cwnd.min(self.maxwnd as f64);
    }

    fn on_dupack(&mut self) {
        if self.in_recovery {
            self.cwnd += 1.0; // window inflation
        }
    }

    fn on_loss(&mut self, kind: LossKind) {
        self.ssthresh = (self.cwnd / 2.0).min(self.maxwnd as f64).max(2.0);
        match kind {
            LossKind::DupAck => {
                self.cwnd = self.ssthresh + 3.0;
                self.in_recovery = true;
            }
            LossKind::Timeout => {
                self.cwnd = 1.0;
                self.in_recovery = false;
            }
        }
    }

    fn on_recovery_ack(&mut self) {
        if self.in_recovery {
            self.cwnd = self.ssthresh; // deflate
            self.in_recovery = false;
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.write_f64(self.cwnd);
        w.write_f64(self.ssthresh);
        w.write_bool(self.in_recovery);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.cwnd = r.read_f64()?;
        self.ssthresh = r.read_f64()?;
        self.in_recovery = r.read_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tahoe_starts_in_slow_start() {
        let t = Tahoe::new(IncrementRule::Modified, 1000);
        assert_eq!(t.window(), 1);
        assert!(t.cwnd() < t.ssthresh());
        assert_eq!(t.ssthresh(), 1000.0);
    }

    #[test]
    fn slow_start_doubles_per_epoch() {
        // Acking a full window's worth of packets doubles the window.
        let mut t = Tahoe::new(IncrementRule::Modified, 1000);
        let mut acked = 0;
        for _epoch in 0..4 {
            let w = t.window();
            for _ in 0..w {
                t.on_ack();
                acked += 1;
            }
        }
        let _ = acked;
        assert_eq!(t.window(), 16, "1 → 2 → 4 → 8 → 16");
    }

    #[test]
    fn loss_halves_threshold_and_resets_window() {
        let mut t = Tahoe::new(IncrementRule::Modified, 1000);
        for _ in 0..20 {
            t.on_ack(); // cwnd reaches 21 in slow start
        }
        assert_eq!(t.window(), 21);
        t.on_loss(LossKind::DupAck);
        assert_eq!(t.window(), 1);
        assert_eq!(t.ssthresh(), 10.5);
        assert!(t.cwnd() < t.ssthresh());
    }

    #[test]
    fn modified_rule_advances_floor_once_per_epoch() {
        let mut t = Tahoe::new(IncrementRule::Modified, 1000);
        // Force into avoidance at cwnd 4: grow to 4 then fake a loss at 8.
        for _ in 0..7 {
            t.on_ack();
        }
        t.on_loss(LossKind::DupAck); // ssthresh = 4, cwnd = 1
        assert_eq!(t.ssthresh(), 4.0);
        // Slow start back: 1→2→3→4 (3 ACKs), then avoidance.
        for _ in 0..3 {
            t.on_ack();
        }
        assert_eq!(t.window(), 4);
        assert!(t.cwnd() >= t.ssthresh());
        // One epoch = window() ACKs → floor += 1, exactly.
        for w in 4..10u64 {
            assert_eq!(t.window(), w);
            for _ in 0..w {
                t.on_ack();
            }
            assert_eq!(t.window(), w + 1, "modified rule: +1 per epoch");
        }
    }

    #[test]
    fn original_rule_can_stall_floor_for_an_epoch() {
        // The §2.1 anomaly: with cwnd += 1/cwnd, after an epoch of w ACKs
        // starting from integer w, cwnd < w+1 (since increments are all
        // < 1/w except the first). ⌊cwnd⌋ may remain w.
        let mut t = Tahoe::new(IncrementRule::Original, 1000);
        for _ in 0..7 {
            t.on_ack();
        }
        t.on_loss(LossKind::DupAck); // ssthresh 4
        for _ in 0..3 {
            t.on_ack(); // back to 4, entering avoidance
        }
        assert_eq!(t.window(), 4);
        for _ in 0..4 {
            t.on_ack(); // one epoch of avoidance
        }
        // 4 + 1/4 + ... < 5 → still 4: the anomaly.
        assert_eq!(t.window(), 4, "original rule stalls ⌊cwnd⌋");
    }

    /// Side-by-side pin of the §2.1 increment anomaly: drive an Original-
    /// and a Modified-rule controller through the *identical* ACK/loss
    /// script and watch them diverge. Starting an avoidance epoch at
    /// integer window w, `cwnd += 1/cwnd` accumulates strictly less than
    /// 1 over the w ACKs after the first (each increment < 1/w), so
    /// `⌊cwnd⌋` can stall at w for the whole epoch, while
    /// `cwnd += 1/⌊cwnd⌋` advances the floor by exactly one. This is the
    /// bias the paper corrects and `abl-increment` measures end-to-end.
    #[test]
    fn original_stalls_while_modified_advances_from_identical_state() {
        let mut orig = Tahoe::new(IncrementRule::Original, 1000);
        let mut modi = Tahoe::new(IncrementRule::Modified, 1000);
        let both = |o: &mut Tahoe, m: &mut Tahoe, acks: u64| {
            for _ in 0..acks {
                o.on_ack();
                m.on_ack();
            }
        };
        // Identical preamble: grow to 8, lose, slow-start back to
        // avoidance at window 4.
        both(&mut orig, &mut modi, 7);
        orig.on_loss(LossKind::DupAck);
        modi.on_loss(LossKind::DupAck);
        both(&mut orig, &mut modi, 3);
        assert_eq!(orig.window(), modi.window());
        assert_eq!(orig.window(), 4);
        assert!(orig.cwnd() >= orig.ssthresh() && modi.cwnd() >= modi.ssthresh());
        // One epoch of w ACKs each: Modified's floor moves to 5,
        // Original's stalls at 4 — same inputs, different windows.
        both(&mut orig, &mut modi, 4);
        assert_eq!(modi.window(), 5, "modified: exactly +1 per epoch");
        assert_eq!(orig.window(), 4, "original: floor stalled");
        // The stall is not a one-off: feeding both the *same* per-epoch
        // ACK count (the modified window, the larger) keeps Original's
        // effective window a full packet (or more) behind.
        for _ in 0..3 {
            let w = modi.window();
            both(&mut orig, &mut modi, w);
        }
        assert_eq!(modi.window(), 8);
        assert!(
            orig.window() < modi.window(),
            "original ({}) must lag modified ({}) after identical inputs",
            orig.window(),
            modi.window()
        );
    }

    #[test]
    fn ssthresh_floor_is_two() {
        // Paper footnote 9: a second loss with cwnd = 1 drives ssthresh to
        // its minimum of 2.
        let mut t = Tahoe::new(IncrementRule::Modified, 1000);
        for _ in 0..10 {
            t.on_ack();
        }
        t.on_loss(LossKind::DupAck);
        assert_eq!(t.window(), 1);
        t.on_loss(LossKind::Timeout); // second loss, cwnd still 1
        assert_eq!(t.ssthresh(), 2.0);
        assert_eq!(t.window(), 1);
    }

    #[test]
    fn ssthresh_capped_by_maxwnd() {
        let mut t = Tahoe::new(IncrementRule::Modified, 8);
        for _ in 0..100 {
            t.on_ack();
        }
        assert_eq!(t.window(), 8, "window capped at maxwnd");
        t.on_loss(LossKind::DupAck);
        assert!(t.ssthresh() <= 8.0);
    }

    #[test]
    fn exact_representation_has_no_drift() {
        // Run a thousand avoidance epochs; floor must hit exactly
        // start + 1000.
        let mut t = Tahoe::new(IncrementRule::Modified, 100_000);
        for _ in 0..2 {
            t.on_ack();
        }
        t.on_loss(LossKind::DupAck); // ssthresh small → avoidance soon
        t.on_ack(); // cwnd 2 = ssthresh? ssthresh was 1.5→max(,2)=2
        let start = t.window();
        for _ in 0..1000 {
            let w = t.window();
            for _ in 0..w {
                t.on_ack();
            }
        }
        assert_eq!(t.window(), start + 1000);
    }

    #[test]
    fn fixed_window_is_inert() {
        let mut f = CcKind::FixedWindow { wnd: 30 }.build(1000);
        f.on_ack();
        f.on_loss(LossKind::Timeout);
        f.on_dupack();
        assert_eq!(f.window(), 30);
        assert_eq!(f.cwnd(), 30.0);
        assert!(f.cwnd() >= f.ssthresh());
    }

    #[test]
    fn cckind_builders() {
        // Built fresh, every loss-driven variant starts in slow start at
        // cwnd 1 under ssthresh = maxwnd; the fixed window starts open.
        for kind in [
            CcKind::default(),
            CcKind::Tahoe {
                rule: IncrementRule::Original,
            },
            CcKind::Reno,
        ] {
            let cc = kind.build(1000);
            assert_eq!((cc.window(), cc.cwnd(), cc.ssthresh()), (1, 1.0, 1000.0));
            assert!(cc.cwnd() < cc.ssthresh());
        }
        assert_eq!(CcKind::FixedWindow { wnd: 5 }.build(1000).window(), 5);
    }

    #[test]
    fn reno_fast_recovery_inflates_and_deflates() {
        let mut r = Reno::new(1000);
        for _ in 0..15 {
            r.on_ack(); // cwnd 16
        }
        r.on_loss(LossKind::DupAck);
        assert_eq!(r.ssthresh(), 8.0);
        assert_eq!(r.cwnd(), 11.0, "ssthresh + 3");
        r.on_dupack();
        r.on_dupack();
        assert_eq!(r.cwnd(), 13.0, "inflation");
        r.on_recovery_ack();
        assert_eq!(r.cwnd(), 8.0, "deflation to ssthresh");
    }

    #[test]
    fn reno_timeout_resets_like_tahoe() {
        let mut r = Reno::new(1000);
        for _ in 0..15 {
            r.on_ack();
        }
        r.on_loss(LossKind::Timeout);
        assert_eq!(r.window(), 1);
        assert_eq!(r.ssthresh(), 8.0);
    }

    #[test]
    fn tahoe_window_never_zero_or_above_maxwnd() {
        let mut t = Tahoe::new(IncrementRule::Modified, 50);
        for i in 0..10_000u32 {
            if i % 97 == 0 {
                t.on_loss(LossKind::DupAck);
            } else {
                t.on_ack();
            }
            assert!(t.window() >= 1);
            assert!(t.window() <= 50);
            assert!(t.ssthresh() >= 2.0);
        }
    }
}

// ---------------------------------------------------------------------------
// Decbit
// ---------------------------------------------------------------------------

/// The DECbit congestion-avoidance policy (Jain, Ramakrishnan & Chiu).
///
/// Switches set a congestion bit on packets that see a queue beyond a
/// threshold; receivers echo the bit on ACKs; once per window's worth of
/// ACKs the sender looks at the marked fraction and applies
/// additive-increase/multiplicative-decrease:
///
/// ```text
/// if marked_fraction ≥ 0.5:  wnd ← 0.875 · wnd     (decrease)
/// else:                      wnd ← wnd + 1          (increase)
/// ```
///
/// The original DECnet scheme rarely saw packet loss (its feedback acts
/// before buffers fill); our links can still drop under transients, so a
/// detected loss applies the same multiplicative decrease a heavily-marked
/// window would (a conservative completion of the published policy, which
/// leaves loss handling to the transport).
pub struct Decbit {
    wnd: f64,
    maxwnd: u64,
    /// ACKs counted in the current decision cycle.
    acks: u64,
    /// Marked ACKs in the current cycle.
    marked: u64,
    /// Cycle length, latched at cycle start (a window's worth of ACKs).
    cycle: u64,
}

impl Decbit {
    /// A fresh DECbit connection (window 1, like the paper's TCPs).
    pub fn new(maxwnd: u64) -> Self {
        assert!(maxwnd >= 2, "maxwnd must be at least 2");
        Decbit {
            wnd: 1.0,
            maxwnd,
            acks: 0,
            marked: 0,
            cycle: 1,
        }
    }

    fn decide(&mut self) {
        if self.marked * 2 >= self.cycle {
            self.wnd = (self.wnd * 0.875).max(1.0);
        } else {
            self.wnd = (self.wnd + 1.0).min(self.maxwnd as f64);
        }
        self.acks = 0;
        self.marked = 0;
        self.cycle = (self.wnd as u64).max(1);
    }

    fn window(&self) -> u64 {
        (self.wnd as u64).clamp(1, self.maxwnd)
    }

    fn cwnd(&self) -> f64 {
        self.wnd
    }

    fn ssthresh(&self) -> f64 {
        // No slow-start threshold in DECbit; report the ceiling for plots.
        self.maxwnd as f64
    }

    fn on_ack(&mut self) {
        self.on_ack_marked(false);
    }

    fn on_ack_marked(&mut self, ce: bool) {
        self.acks += 1;
        self.marked += ce as u64;
        if self.acks >= self.cycle {
            self.decide();
        }
    }

    fn on_loss(&mut self, _kind: LossKind) {
        // The cycle ends as if every ACK in it had come back marked.
        self.marked = self.cycle;
        self.decide();
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.write_f64(self.wnd);
        w.write_u64(self.acks);
        w.write_u64(self.marked);
        w.write_u64(self.cycle);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.wnd = r.read_f64()?;
        self.acks = r.read_u64()?;
        self.marked = r.read_u64()?;
        self.cycle = r.read_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod decbit_tests {
    use super::*;

    #[test]
    fn unmarked_acks_grow_additively() {
        let mut d = Decbit::new(1000);
        assert_eq!(d.window(), 1);
        // One cycle of 1 unmarked ACK → wnd 2; then 2 ACKs → 3; etc.
        for expect in 2..=10u64 {
            for _ in 0..expect - 1 {
                d.on_ack_marked(false);
            }
            assert_eq!(d.window(), expect, "additive increase");
        }
    }

    #[test]
    fn majority_marked_cycle_decreases() {
        let mut d = Decbit::new(1000);
        // Grow to 8.
        while d.window() < 8 {
            d.on_ack_marked(false);
        }
        let w = d.cwnd();
        for _ in 0..8 {
            d.on_ack_marked(true);
        }
        assert!(
            (d.cwnd() - w * 0.875).abs() < 1e-9,
            "multiplicative decrease"
        );
    }

    #[test]
    fn minority_marking_still_grows() {
        let mut d = Decbit::new(1000);
        while d.window() < 10 {
            d.on_ack_marked(false);
        }
        let w = d.window();
        // 4 of 10 marked: below the 50 % rule.
        for i in 0..10 {
            d.on_ack_marked(i < 4);
        }
        assert_eq!(d.window(), w + 1);
    }

    #[test]
    fn window_never_below_one() {
        let mut d = Decbit::new(1000);
        for _ in 0..100 {
            d.on_ack_marked(true);
        }
        assert_eq!(d.window(), 1);
        assert!(d.cwnd() >= 1.0);
    }

    #[test]
    fn loss_applies_decrease() {
        let mut d = Decbit::new(1000);
        while d.window() < 16 {
            d.on_ack_marked(false);
        }
        let w = d.cwnd();
        d.on_loss(LossKind::Timeout);
        assert!((d.cwnd() - w * 0.875).abs() < 1e-9);
    }

    #[test]
    fn window_capped_at_maxwnd() {
        let mut d = Decbit::new(4);
        for _ in 0..100 {
            d.on_ack_marked(false);
        }
        assert_eq!(d.window(), 4);
    }

    #[test]
    fn cckind_builds_decbit() {
        let d = CcKind::Decbit.build(100);
        assert_eq!((d.window(), d.cwnd(), d.ssthresh()), (1, 1.0, 100.0));
    }
}
