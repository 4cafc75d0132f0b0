//! What the benchmark declares: its workloads, its end-to-end metrics
//! (with the bound each may regress by) and its per-layer metrics. These
//! tables are the single source: `td-bench manifest` renders the root
//! `BENCHMARK.json` from them, the result line takes its units from them,
//! and the contract test holds all three to each other.

use crate::json::escape;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload and the reason it exists (one line, ≤ 200 characters).
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Which layers it stresses and which it bypasses.
    pub why: &'static str,
}

/// One declared metric. `bound` is the share of the parent's median an
/// end-to-end metric may worsen by; per-layer metrics have none.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 30;

/// The workloads `BENCHMARK.json` declares.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper_full",
        why: "23 registry entries at full profile, jobs=1: small worlds (queue depth <= 84), trace on, batch analysis - TCP endpoint, dispatch, trace and td-analysis work; the event heap is idle",
    },
    Workload {
        name: "scale_100k",
        why: "640-cluster chain, 102396 connections, trace off, 1 shard: queue depth ~109k - event heap, route lookup, arena footprint and world construction work; trace and batch analysis do none",
    },
    Workload {
        name: "serve_mix",
        why: "td-serve over its Unix socket, closed loop: misses (simulate+encode+fsync), hits on small and large cells (read+verify+decode), quarantine recomputes, fresh connections, 2-client throughput",
    },
];

/// Workloads `td-bench` runs but `BENCHMARK.json` does not declare.
///
/// `scale_100k_sharded` is demoted, by the issue's own rule for a number
/// that cannot hold its bound: on the 2-vCPU box a sharded pass takes
/// ≈ 2.2 s or ≈ 4.4 s depending on how the two shard threads interleave,
/// in streaks, and ten runs spread by 0.24–0.32 of their median whatever
/// the estimator — beyond the largest bound a declared metric may have.
/// It stays runnable (and `aa`-able) by hand for the executor work, which
/// needs ≥ 4 dedicated cores to be measured at all.
pub const UNDECLARED: [Workload; 1] = [Workload {
    name: "scale_100k_sharded",
    why: "the same chain at min(nproc,4) shards, digest checked against a serial pass: lookahead executor, per-shard replica build and cross-shard handoff run here and are bypassed in scale_100k",
}];

use Better::{Higher, Lower};

/// End-to-end metrics, printed by every workload's untraced run.
///
/// Every workload must print every one of them and none may read 0, so
/// they are the quantities all workloads share; what is particular to one
/// workload (per-phase `td-serve` latencies, bytes/connection) is a
/// per-layer metric. The README's glossary says what each means on each
/// workload.
///
/// The bounds are the contract's ceiling, not the issue's 0.10: on the
/// shared 2-vCPU box the benchmark was built on, the same binary's speed
/// drifts by 20–60 % for tens of seconds at a time, and the spread of ten
/// runs is what the README's A/A table says. Peak RSS is reported on
/// every row but not gated: it is steady to 0.1 % on the scale workloads
/// and jumps by a third with the seed wherever a quick or full `fig45`
/// cell runs (`paper_full`, `serve_mix`), so no one bound fits it.
pub const END_TO_END: [Metric; 3] = [
    e2e("wall_s", "s", Lower, 0.25),
    e2e("work_per_s", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics, printed by every workload's traced run. Layer =
/// crate; the prefix names it.
pub const PER_LAYER: &[Metric] = &[
    // td-engine
    layer("engine.queue_ns_per_op.d64", "ns", Lower),
    layer("engine.queue_ns_per_op.d100k", "ns", Lower),
    layer("engine.timer_churn_ns_per_op", "ns", Lower),
    layer("engine.rng_ns_per_draw", "ns", Lower),
    layer("engine.snap_mb_per_s", "MB/s", Higher),
    layer("engine.events_scheduled", "count", Lower),
    layer("engine.events_dispatched", "count", Lower),
    layer("engine.peak_queue_depth", "count", Lower),
    // td-net
    layer("net.build_s", "s", Lower),
    layer("net.shard_build_s", "s", Lower),
    layer("net.run_ns_per_event.dumbbell", "ns", Lower),
    layer("net.run_ns_per_event.chain", "ns", Lower),
    layer("net.trace_tax_frac", "ratio", Lower),
    layer("net.observer_tax_frac", "ratio", Lower),
    layer("net.deadline_tax_frac", "ratio", Lower),
    layer("net.canonical_tax_frac", "ratio", Lower),
    layer("net.shard_speedup", "ratio", Higher),
    layer("net.discipline_ns_per_pkt", "ns", Lower),
    layer("net.bytes_per_conn", "B", Lower),
    layer("net.route_table_bytes", "B", Lower),
    layer("net.delivered", "count", Higher),
    layer("net.dropped", "count", Lower),
    layer("net.audit_violations", "count", Lower),
    // td-core
    layer("core.cc_ns_per_ack.tahoe", "ns", Lower),
    layer("core.cc_ns_per_ack.reno", "ns", Lower),
    layer("core.rtt_ns_per_sample", "ns", Lower),
    layer("core.retransmits", "count", Lower),
    layer("core.timeouts", "count", Lower),
    // td-analysis
    layer("analysis.batch_ns_per_record", "ns", Lower),
    layer("analysis.stream_ns_per_record", "ns", Lower),
    layer("analysis.classify_s", "s", Lower),
    layer("analysis.trace_records", "count", Lower),
    // td-experiments
    layer("experiments.entry_s.scale", "s", Lower),
    layer("experiments.entry_s.fig45", "s", Lower),
    layer("experiments.entry_s.modes", "s", Lower),
    layer("experiments.entry_s.oneway-util", "s", Lower),
    layer("experiments.entry_s.piggyback", "s", Lower),
    layer("experiments.entry_s.conjecture", "s", Lower),
    layer("experiments.runner_overhead_s", "s", Lower),
    layer("experiments.jobs_speedup", "ratio", Higher),
    layer("experiments.journal_append_us", "us", Lower),
    layer("experiments.rows", "count", Higher),
    layer("experiments.rows_out_of_band", "count", Lower),
    layer("experiments.panicked", "count", Lower),
    // td-serve, through its socket and CLI only
    layer("serve.boot_s", "s", Lower),
    layer("serve.ping_p50_us", "us", Lower),
    layer("serve.hit_small_p50_us", "us", Lower),
    layer("serve.hit_small_p99_us", "us", Lower),
    layer("serve.hit_large_p50_us", "us", Lower),
    layer("serve.hit_large_p90_us", "us", Lower),
    layer("serve.miss_p50_ms", "ms", Lower),
    layer("serve.miss_large_p50_ms", "ms", Lower),
    layer("serve.recompute_p50_ms", "ms", Lower),
    layer("serve.connect_p50_ms", "ms", Lower),
    layer("serve.hit_req_per_s", "1/s", Higher),
    layer("serve.miss_cells_per_s", "1/s", Higher),
    layer("serve.hit_us_per_kib", "us/KiB", Lower),
    layer("serve.miss_overhead_ms", "ms", Lower),
    layer("serve.store_bytes_per_cell.small", "B", Lower),
    layer("serve.store_bytes_per_cell.large", "B", Lower),
    layer("serve.verify_cells_per_s", "1/s", Higher),
    layer("serve.drain_s", "s", Lower),
    layer("serve.daemon_peak_rss_mib", "MiB", Lower),
    layer("serve.requests_sent", "count", Higher),
    layer("serve.requests_failed", "count", Lower),
    layer("serve.stats.hits", "count", Higher),
    layer("serve.stats.misses", "count", Lower),
    layer("serve.stats.computed", "count", Lower),
    layer("serve.stats.recomputed", "count", Lower),
    layer("serve.stats.quarantined", "count", Lower),
    layer("serve.stats.failed", "count", Lower),
    layer("serve.stats.overloaded", "count", Lower),
    layer("serve.stats.shed", "count", Lower),
    layer("serve.stats.bad_requests", "count", Lower),
    // the tracer itself
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.self_sum_frac", "ratio", Lower),
    layer("trace.spans", "count", Lower),
];

/// The workload named `name`, declared or not.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().chain(&UNDECLARED).find(|w| w.name == name)
}

fn metric_json(m: &Metric) -> String {
    let mut s = format!(
        "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
        escape(m.name),
        escape(m.unit),
        m.better.word()
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {b}"));
    }
    s.push('}');
    s
}

/// The root `BENCHMARK.json`, rendered from the tables above.
pub fn manifest_json() -> String {
    let list = |items: Vec<String>| items.join(",\n    ");
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \
         \"--manifest-path\", \"tdbench/Cargo.toml\", \"--bin\", \"td-bench\", \"--\", \"run\"],\n  \
         \"paths\": [\"tdbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \
         \"per_layer\": [\n    {}\n  ]\n}}\n",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!(
                    "{{\"name\": \"{}\", \"why\": \"{}\"}}",
                    escape(w.name),
                    escape(w.why)
                ))
                .collect()
        ),
        list(END_TO_END.iter().map(metric_json).collect()),
        list(PER_LAYER.iter().map(metric_json).collect()),
    )
}

/// A finished run: what the driver reads from the last stdout line.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells run, requests sent); at least 1.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Measured values by declared name.
    pub values: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Record `value` under the declared metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            !self.values.iter().any(|(n, _)| *n == name),
            "metric {name} set twice"
        );
        self.values.push((name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted >= 1
    }

    /// The result line: exactly the keys `correct`, `attempted`, `failed`
    /// and `metrics`, the metrics being exactly `declared`, in declared
    /// order. `Err` names a metric that is missing, undeclared or not a
    /// finite number — a benchmark bug that must not reach the driver as
    /// a plausible-looking line.
    pub fn result_line(&self, declared: &[Metric]) -> Result<String, String> {
        if let Some((stray, _)) = self
            .values
            .iter()
            .find(|(n, _)| !declared.iter().any(|m| m.name == *n))
        {
            return Err(format!("metric {stray} was measured but is not declared"));
        }
        let mut parts = Vec::with_capacity(declared.len());
        for m in declared {
            let v = self
                .get(m.name)
                .ok_or_else(|| format!("declared metric {} was not measured", m.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is not finite: {v}", m.name));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                escape(m.name),
                escape(m.unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().unwrap().is_ascii_alphanumeric()
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn declarations_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for w in WORKLOADS.iter().chain(&UNDECLARED) {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            names.push(m.name);
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{} bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
    }

    #[test]
    fn manifest_is_json_with_exactly_the_contract_keys() {
        let doc = parse(&manifest_json()).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(manifest_json().len() < 64 * 1024);
        let e2e = doc.get("end_to_end").unwrap().as_array().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        assert_eq!(e2e[0].as_object().unwrap().len(), 4);
        let per = doc.get("per_layer").unwrap().as_array().unwrap();
        assert_eq!(per.len(), PER_LAYER.len());
        assert_eq!(per[0].as_object().unwrap().len(), 3);
    }

    #[test]
    fn result_line_carries_exactly_the_declared_metrics() {
        let mut o = Outcome {
            attempted: 92,
            failed: 0,
            values: Vec::new(),
        };
        o.set("setup_s", 0.8127);
        o.set("wall_s", 5.25);
        assert!(o
            .result_line(&END_TO_END)
            .unwrap_err()
            .contains("work_per_s"));
        o.set("work_per_s", 4.5e6);
        let line = o.result_line(&END_TO_END).unwrap();
        assert!(!line.contains('\n'));
        let doc = parse(&line).unwrap();
        assert_eq!(doc.as_object().unwrap().len(), 4);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["wall_s", "work_per_s", "setup_s"]);
        assert_eq!(
            metrics[0].1.get("value").unwrap().as_f64(),
            Some(5.25),
            "values are printed with all their digits"
        );
        assert_eq!(metrics[2].1.get("unit").unwrap().as_str(), Some("s"));

        o.set("trace.spans", 3.0);
        assert!(o
            .result_line(&END_TO_END)
            .unwrap_err()
            .contains("not declared"));
    }

    #[test]
    fn a_failed_operation_or_a_nan_is_not_correct() {
        let mut o = Outcome {
            attempted: 10,
            failed: 1,
            values: Vec::new(),
        };
        assert!(!o.correct());
        o.failed = 0;
        assert!(o.correct());
        for m in &END_TO_END {
            o.set(m.name, 1.0);
        }
        o.values[0].1 = f64::NAN;
        assert!(o
            .result_line(&END_TO_END)
            .unwrap_err()
            .contains("not finite"));
    }
}
