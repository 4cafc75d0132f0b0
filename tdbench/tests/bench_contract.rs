//! The benchmark against its own contract: what `BENCHMARK.json` declares
//! is what the tables declare is what a run prints.
//!
//! Every run here is `--smoke`: the real code paths (child-process
//! passes, the `td-serve` daemon over its socket, the probe suite, the
//! span file) at sizes that take about a second each. Runs start from the
//! repository root, as the driver starts them.

use std::path::{Path, PathBuf};
use std::process::Command;
use tdbench::json::{self, Value};
use tdbench::metrics::{manifest_json, Metric, END_TO_END, PER_LAYER, UNDECLARED, WORKLOADS};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_owned()
}

/// Run `td-bench` from `cwd`; returns (exit code, stdout lines).
fn bench(cwd: &Path, args: &[&str]) -> (i32, Vec<String>) {
    let out = Command::new(env!("CARGO_BIN_EXE_td-bench"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("td-bench runs");
    let lines = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    if !out.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    (out.status.code().unwrap_or(-1), lines)
}

/// Run one workload and hold its result line to the contract; returns
/// the metric values by name.
fn checked_run(workload: &str, trace: &str, declared: &[Metric]) -> Vec<(String, f64)> {
    let (code, lines) = bench(
        &repo_root(),
        &[
            "run",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            trace,
            "--smoke",
        ],
    );
    assert_eq!(code, 0, "{workload} --trace {trace} exited {code}");
    let doc = json::parse(lines.last().expect("a result line")).expect("the last line is JSON");
    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        doc.get("correct").unwrap().as_bool(),
        Some(true),
        "{workload}"
    );
    assert_eq!(doc.get("failed").unwrap().as_f64(), Some(0.0), "{workload}");
    let attempted = doc.get("attempted").unwrap().as_f64().unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);

    let metrics = doc.get("metrics").unwrap().as_object().unwrap();
    let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = declared.iter().map(|m| m.name).collect();
    assert_eq!(printed, wanted, "{workload} --trace {trace}");
    metrics
        .iter()
        .zip(declared)
        .map(|((name, v), m)| {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert_eq!(
                v.as_object().unwrap().len(),
                2,
                "{name}: value and unit only"
            );
            assert_eq!(
                v.get("unit").and_then(Value::as_str),
                Some(m.unit),
                "{name}"
            );
            let value = v.get("value").and_then(Value::as_f64).expect("a number");
            assert!(value.is_finite(), "{name} = {value}");
            (name.clone(), value)
        })
        .collect()
}

fn value(metrics: &[(String, f64)], name: &str) -> f64 {
    metrics
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn benchmark_json_is_the_rendered_tables() {
    let on_disk = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        manifest_json(),
        "regenerate with `td-bench manifest > BENCHMARK.json`"
    );
    let doc = json::parse(&on_disk).unwrap();
    let command = doc.get("command").unwrap().as_array().unwrap();
    assert!(command.len() <= 32);
    let paths = doc.get("paths").unwrap().as_array().unwrap();
    assert_eq!(paths.len(), 1);
    let dir = paths[0].as_str().unwrap();
    assert_eq!(repo_root().join(dir), Path::new(env!("CARGO_MANIFEST_DIR")));
    // The command names no file outside `paths`.
    for word in command.iter().map(|w| w.as_str().unwrap()) {
        assert!(!word.starts_with('/') && !word.contains(".."), "{word}");
        if word.contains('/') {
            assert!(word.starts_with(&format!("{dir}/")), "{word}");
        }
    }
}

#[test]
fn untraced_runs_print_every_end_to_end_metric_and_none_is_zero() {
    for w in WORKLOADS.iter().chain(&UNDECLARED) {
        let metrics = checked_run(w.name, "0", &END_TO_END);
        for (name, v) in &metrics {
            assert!(*v > 0.0, "{}: {name} = {v}", w.name);
        }
    }
}

#[test]
fn traced_runs_print_every_per_layer_metric_and_the_serve_counters_add_up() {
    for w in WORKLOADS.iter().chain(&UNDECLARED) {
        let m = checked_run(w.name, "1", PER_LAYER);
        // The daemon's counters equal what the script must have caused
        // (a mismatch would also have failed the run): one round of the
        // smoke script misses 3 + 1 + 1 cells and nproc more under
        // throughput, and recomputes the one mid cell.
        assert_eq!(value(&m, "serve.requests_failed"), 0.0);
        assert_eq!(value(&m, "serve.stats.recomputed"), 1.0);
        assert_eq!(value(&m, "serve.stats.quarantined"), 1.0);
        let misses = value(&m, "serve.stats.misses");
        assert_eq!(value(&m, "serve.stats.computed"), misses + 1.0);
        assert!(misses >= 6.0, "misses {misses}");
        for quiet in ["failed", "overloaded", "shed", "bad_requests"] {
            assert_eq!(value(&m, &format!("serve.stats.{quiet}")), 0.0, "{quiet}");
        }
        assert_eq!(value(&m, "net.audit_violations"), 0.0);
        assert_eq!(value(&m, "experiments.panicked"), 0.0);
        assert!(value(&m, "trace.spans") >= 10.0);
        if w.name != "serve_mix" {
            assert!(value(&m, "engine.events_dispatched") > 0.0);
            // Sequential spans account for the pass exactly.
            assert!((value(&m, "trace.self_sum_frac") - 1.0).abs() < 0.05);
        }
        let span_file = repo_root()
            .join(tdbench::host::target_dir())
            .join("td-bench")
            .join(format!("trace-{}-5.json", w.name));
        let doc = json::parse(&std::fs::read_to_string(&span_file).expect("the span file"))
            .expect("the span file is JSON");
        assert_eq!(
            doc.get("spans").unwrap().as_array().unwrap().len() as f64,
            value(&m, "trace.spans")
        );
    }
}

#[test]
fn the_sharded_workload_reports_its_threads_and_the_serial_digest() {
    let run = |w: &str| {
        let (code, lines) = bench(
            &repo_root(),
            &[
                "run",
                "--workload",
                w,
                "--seed",
                "9",
                "--seconds",
                "0",
                "--smoke",
            ],
        );
        assert_eq!(code, 0);
        json::parse(&lines[lines.len() - 2]).expect("the detail line is JSON")
    };
    let serial = run("scale_100k");
    let sharded = run("scale_100k_sharded");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(serial.get("threads").unwrap().as_f64(), Some(1.0));
    assert_eq!(
        sharded.get("threads").unwrap().as_f64(),
        Some(cores.min(4) as f64)
    );
    assert_eq!(sharded.get("cores").unwrap().as_f64(), Some(cores as f64));
    assert_eq!(
        serial.get("sim_digest").unwrap().as_str(),
        sharded.get("sim_digest").unwrap().as_str(),
        "sharded passes reproduce the serial reports byte for byte"
    );
    assert!(sharded.get("passes").unwrap().as_f64().unwrap() >= 3.0);
}

#[test]
fn a_directory_without_the_simulator_sources_is_refused() {
    let empty = repo_root()
        .join(tdbench::host::target_dir())
        .join("td-bench")
        .join(format!("empty-{}", std::process::id()));
    std::fs::create_dir_all(&empty).unwrap();
    for w in WORKLOADS.iter().chain(&UNDECLARED) {
        let (code, lines) = bench(&empty, &["run", "--workload", w.name, "--smoke"]);
        assert_ne!(code, 0, "{} ran without a checkout", w.name);
        assert!(lines.is_empty(), "{} printed {lines:?}", w.name);
    }
    std::fs::remove_dir_all(&empty).unwrap();
}

#[test]
fn aa_prints_a_row_per_end_to_end_metric() {
    let (code, lines) = bench(
        &repo_root(),
        &[
            "aa",
            "--workload",
            "scale_100k",
            "--seconds",
            "0",
            "--runs",
            "2",
            "--smoke",
        ],
    );
    // Millisecond smoke passes are too noisy to hold a bound; the exit
    // code only has to say which way it went.
    assert!(code == 0 || code == 1, "aa exited {code}");
    for m in &END_TO_END {
        let row = lines
            .iter()
            .find(|l| l.trim_start().starts_with(m.name))
            .unwrap_or_else(|| panic!("no row for {}", m.name));
        assert!(row.contains("bound"), "{row}");
        assert_eq!(
            code == 0,
            lines.iter().all(|l| !l.contains("EXCEEDS BOUND"))
        );
    }
}
