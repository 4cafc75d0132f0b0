//! Property tests for the step-function time series, over randomized
//! change-point sets generated from the engine's deterministic [`SimRng`]
//! (one fixed seed per case — no external test-framework dependency).

use td_analysis::TimeSeries;
use td_engine::{SimRng, SimTime};

/// Sorted (time, value) change points, 1..80 of them.
fn points(rng: &mut SimRng) -> Vec<(SimTime, f64)> {
    let len = rng.next_range(1, 79) as usize;
    let mut v: Vec<(u64, f64)> = (0..len)
        .map(|_| (rng.next_below(1_000_000), rng.next_f64() * 2000.0 - 1000.0))
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    v.into_iter()
        .map(|(t, x)| (SimTime::from_micros(t), x))
        .collect()
}

/// A window `[a, a + b)` with b ≥ 1 µs.
fn window(rng: &mut SimRng) -> (SimTime, SimTime) {
    let a = rng.next_below(1_000_000);
    let b = rng.next_range(1, 999_999);
    (SimTime::from_micros(a), SimTime::from_micros(a + b))
}

/// Change points with a window: case 0 is the one failure `proptest`
/// recorded before PR 1 dropped it — a window that ends before the only
/// change point — then 256 generated from `seed`.
fn windowed_cases(seed: u64) -> impl Iterator<Item = (Vec<(SimTime, f64)>, (SimTime, SimTime))> {
    let pinned = (
        vec![(SimTime::from_micros(129_708), -871.0244281627344)],
        (SimTime::ZERO, SimTime::from_micros(1)),
    );
    std::iter::once(pinned).chain((0..256u64).map(move |case| {
        let mut rng = SimRng::new(seed + case);
        (points(&mut rng), window(&mut rng))
    }))
}

/// The time-weighted mean always lies within [min, max] of the window.
#[test]
fn mean_bounded_by_extrema() {
    for (case, (pts, (t0, t1))) in windowed_cases(0x005E_81E5).enumerate() {
        let ts = TimeSeries::from_points(pts);
        if let Some(m) = ts.mean_in(t0, t1) {
            // The mean may also involve the first value extended backwards,
            // so bound by the global extrema as well as the window's.
            let lo = ts
                .min_in(t0, t1)
                .unwrap_or(f64::INFINITY)
                .min(ts.points()[0].1);
            let hi = ts
                .max_in(t0, t1)
                .unwrap_or(f64::NEG_INFINITY)
                .max(ts.points()[0].1);
            assert!(
                m >= lo - 1e-9 && m <= hi + 1e-9,
                "case {case}: mean {m} outside [{lo}, {hi}]"
            );
        }
    }
}

/// value_at agrees with a linear scan of the change points.
#[test]
fn value_at_matches_scan() {
    for case in 0..256u64 {
        let mut rng = SimRng::new(0x0005_CA11 + case);
        let pts = points(&mut rng);
        let ts = TimeSeries::from_points(pts.clone());
        let t = SimTime::from_micros(rng.next_below(1_200_000));
        let expected = pts.iter().rev().find(|&&(pt, _)| pt <= t).map(|&(_, v)| v);
        assert_eq!(ts.value_at(t), expected, "case {case}");
    }
}

/// Resampling returns exactly n values, all of which occur in the series
/// (or are the first value).
#[test]
fn resample_values_come_from_series() {
    for case in 0..256u64 {
        let mut rng = SimRng::new(0x8E5A_3F1E + case);
        let pts = points(&mut rng);
        let n = rng.next_range(1, 49) as usize;
        let ts = TimeSeries::from_points(pts.clone());
        let t1 = pts.last().unwrap().0;
        let out = ts.resample(SimTime::ZERO, t1, n);
        assert_eq!(out.len(), n, "case {case}");
        for v in out {
            assert!(
                pts.iter().any(|&(_, x)| x == v),
                "case {case}: resampled {v} not a point value"
            );
        }
    }
}

/// max_in ≥ min_in whenever both exist, and both are attained values.
#[test]
fn extrema_consistent() {
    for (case, (pts, (t0, t1))) in windowed_cases(0x0E87_8E3A).enumerate() {
        let ts = TimeSeries::from_points(pts.clone());
        match (ts.min_in(t0, t1), ts.max_in(t0, t1)) {
            (Some(lo), Some(hi)) => {
                assert!(lo <= hi, "case {case}");
                assert!(pts.iter().any(|&(_, v)| v == lo), "case {case}");
                assert!(pts.iter().any(|&(_, v)| v == hi), "case {case}");
            }
            (None, None) => {}
            other => panic!("case {case}: mismatched extrema {other:?}"),
        }
    }
}
