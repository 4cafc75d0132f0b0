//! One-way utilization claims (§3.1).
//!
//! The paper's one-way analysis makes three quantitative claims this sweep
//! verifies:
//!
//! * at τ = 0.01 s (tiny pipe) utilization is essentially 100 %;
//! * at τ = 1 s (P = 12.5) utilization is ≈ 90 % with B = 20;
//! * for a fixed pipe, utilization **increases with buffer size** and the
//!   idle fraction vanishes asymptotically (≈ B⁻²) — the conventional
//!   wisdom ("more buffers, more throughput") that two-way traffic then
//!   overturns.

use crate::report::Report;
use crate::scenario::{ConnSpec, Scenario};
use td_engine::SimDuration;

/// Scenario: 3 one-way connections, parameterized pipe and buffer.
pub fn scenario(seed: u64, duration_s: u64, tau: SimDuration, buffer: u32) -> Scenario {
    let mut sc = Scenario::paper(tau, Some(buffer)).with_fwd(3, ConnSpec::paper());
    sc.seed = seed;
    sc.duration = SimDuration::from_secs(duration_s);
    sc.warmup = SimDuration::from_secs(duration_s / 5);
    sc
}

/// Run and evaluate the one-way utilization table. The metrics are
/// computed online with the trace disabled.
pub fn report(seed: u64, duration_s: u64) -> Report {
    let run_sc = |sc: Scenario| sc.trace_free().run();
    let mut rep = Report::new(
        "tbl-oneway-util",
        "One-way utilization vs pipe and buffer size (paper §3.1 in-text)",
        &format!("seed {seed}, {duration_s} s per cell, 3 one-way connections"),
    );

    // Small pipe → ~100 %.
    let small = run_sc(scenario(seed, duration_s, SimDuration::from_millis(10), 20));
    let u_small = small.util12();
    rep.check(
        "utilization, tau = 0.01 s, B = 20",
        "~1.00",
        format!("{u_small:.3}"),
        u_small > 0.97,
    );

    // Large pipe, B = 20 → ~90 %.
    let base = run_sc(scenario(seed, duration_s, SimDuration::from_secs(1), 20));
    let u_base = base.util12();
    rep.check(
        "utilization, tau = 1 s, B = 20",
        "~0.90",
        format!("{u_base:.3}"),
        (0.82..=0.97).contains(&u_base),
    );

    // Buffer sweep at tau = 1 s: idle fraction decreases with B.
    let mut idles = Vec::new();
    for buffer in [10u32, 20, 40, 80] {
        // Cycle length grows with the buffer; scale the run to keep the
        // number of cycles comparable.
        let run = run_sc(scenario(
            seed,
            duration_s * buffer as u64 / 20,
            SimDuration::from_secs(1),
            buffer,
        ));
        let idle = 1.0 - run.util12();
        rep.info(
            &format!("idle fraction, tau = 1 s, B = {buffer}"),
            "decreasing in B (one-way only!)",
            format!("{:.1} %", idle * 100.0),
        );
        idles.push(idle);
    }
    let monotone = idles.windows(2).all(|w| w[1] <= w[0] + 0.01);
    rep.check(
        "idle fraction monotone decreasing in buffer size",
        "yes (asymptotically ~ B^-2)",
        format!(
            "{} ({})",
            if monotone { "yes" } else { "no" },
            idles
                .iter()
                .map(|i| format!("{:.1}%", i * 100.0))
                .collect::<Vec<_>>()
                .join(" -> ")
        ),
        monotone,
    );
    // Asymptotic rate: idle(B=40)/idle(B=80) should be ≳ 2 (superlinear
    // decay; exactly 4 for a pure B⁻² law).
    if idles[3] > 1e-4 {
        let ratio = idles[2] / idles[3];
        rep.check(
            "idle(B=40) / idle(B=80)",
            "~4 for a B^-2 law (superlinear > 2)",
            format!("{ratio:.1}"),
            ratio > 2.0,
        );
    } else {
        rep.info(
            "idle(B=40) / idle(B=80)",
            "~4 for a B^-2 law",
            "idle at B=80 below measurement floor".into(),
        );
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oneway_util_reproduces() {
        let rep = report(1, 400);
        assert!(rep.all_ok(), "failed checks: {:?}\n{rep}", rep.failures());
    }
}
