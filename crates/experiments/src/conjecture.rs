//! The §4.3.3 conjecture — zero-length ACKs, fixed windows.
//!
//! For the idealized system with zero-length ACK packets and fixed windows
//! `W1 ≥ W2`, the paper conjectures exactly two regimes:
//!
//! 1. `W1 > W2 + 2P`: queues synchronized **out of phase**, exactly one
//!    line fully utilized;
//! 2. `W1 < W2 + 2P`: queues synchronized **in phase**, **neither** line
//!    fully utilized (strict inequality ⇒ strict underutilization).
//!
//! This module sweeps `(W1, W2, P)` across both regimes and checks the
//! utilization half of the conjecture (sharp and cheaply measurable) plus
//! the queue-phase half where the oscillation is strong enough to
//! classify.

use crate::fig89;
use crate::report::Report;
use crate::scenario::Scenario;
use td_core::ReceiverConfig;
use td_engine::SimDuration;

/// Scenario: the Figures 8–9 fixed-window run with zero-length ACKs.
pub fn scenario(seed: u64, duration_s: u64, tau: SimDuration, w1: u64, w2: u64) -> Scenario {
    let mut sc = fig89::scenario(seed, duration_s, tau, w1, w2);
    for conn in sc.fwd.iter_mut().chain(&mut sc.rev) {
        conn.receiver = ReceiverConfig::zero_ack();
    }
    sc
}

/// One sweep cell.
struct Cell {
    tau: SimDuration,
    pipe: f64,
    w1: u64,
    w2: u64,
}

impl Cell {
    fn regime(&self) -> &'static str {
        if (self.w1 as f64) > self.w2 as f64 + 2.0 * self.pipe {
            "W1 > W2+2P"
        } else {
            "W1 < W2+2P"
        }
    }
}

/// Run and evaluate the conjecture sweep.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let mut rep = Report::new(
        "tbl-conjecture",
        "Zero-length-ACK fixed-window conjecture (paper §4.3.3)",
        &format!("seed {seed}, {duration_s} s per cell, infinite buffers, 0-byte ACKs"),
    );

    let ms10 = SimDuration::from_millis(10);
    let s1 = SimDuration::from_secs(1);
    let cells = [
        // Small pipe (P = 0.125): almost any inequality regime 1.
        Cell {
            tau: ms10,
            pipe: 0.125,
            w1: 30,
            w2: 25,
        },
        Cell {
            tau: ms10,
            pipe: 0.125,
            w1: 40,
            w2: 10,
        },
        // Large pipe (P = 12.5).
        Cell {
            tau: s1,
            pipe: 12.5,
            w1: 60,
            w2: 20,
        }, // 60 > 20+25 → regime 1
        Cell {
            tau: s1,
            pipe: 12.5,
            w1: 30,
            w2: 25,
        }, // 30 < 50   → regime 2
        Cell {
            tau: s1,
            pipe: 12.5,
            w1: 40,
            w2: 30,
        }, // 40 < 55   → regime 2
        Cell {
            tau: ms10,
            pipe: 0.125,
            w1: 25,
            w2: 25,
        }, // 25 < 25.25 → regime 2
    ];

    for c in &cells {
        let run = scenario(seed, duration_s, c.tau, c.w1, c.w2)
            .trace_free()
            .run();
        let (u12, u21) = (run.util12(), run.util21());
        let hi = u12.max(u21);
        let lo = u12.min(u21);
        let label = format!("W1={} W2={} P={:<6} [{}]", c.w1, c.w2, c.pipe, c.regime());
        match c.regime() {
            "W1 > W2+2P" => {
                rep.check(
                    &label,
                    "exactly one line fully utilized",
                    format!("util {u12:.3} / {u21:.3}"),
                    hi > 0.99 && lo < 0.99,
                );
            }
            _ => {
                rep.check(
                    &label,
                    "neither line fully utilized",
                    format!("util {u12:.3} / {u21:.3}"),
                    hi < 0.995,
                );
            }
        }
        let drops = run.drops().len();
        if drops != 0 {
            rep.check(&format!("{label} drops"), "0", format!("{drops}"), false);
        }
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjecture_holds_on_sweep() {
        let rep = report(1, 200);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
