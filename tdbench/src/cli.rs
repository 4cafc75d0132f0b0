//! The `td-bench` command line.
//!
//! ```text
//! td-bench run --workload W [--seed N] [--seconds N] [--trace 0|1|FILE] [--smoke]
//! td-bench aa  --workload W [--seed N] [--seconds N] [--runs N] [--smoke]
//! td-bench manifest        # print BENCHMARK.json from the declared tables
//! td-bench list            # workloads and metrics, human-readable
//! ```
//!
//! `run` measures one workload (simulation passes run in child processes,
//! `td-bench pass`, one each). Standard output carries
//! two JSON lines: a detail line (host, pass counts, quartiles, digest)
//! and, last, the result line the driver reads. Everything meant for eyes
//! goes to standard error.

use crate::json::{self, escape};
use crate::metrics::{self, Better, Metric, Outcome, END_TO_END, PER_LAYER};
use crate::stats::{summarize, Summary};
use crate::trace::Recorder;
use crate::{host, probes, serve, sim};
use std::path::PathBuf;
use std::process::{Command, Stdio};

const USAGE: &str = "usage:
  td-bench run --workload W [--seed N] [--seconds N] [--trace 0|1|FILE] [--smoke]
  td-bench aa  --workload W [--seed N] [--seconds N] [--runs N] [--smoke]
  td-bench manifest
  td-bench list

  --workload W   paper_full | scale_100k | serve_mix, or the undeclared
                 scale_100k_sharded
  --seed N       master seed every input is generated from (default 1)
  --seconds N    how long an untraced run keeps starting timed passes
                 (default 30)
  --trace 0      untraced run: prints the end-to-end metrics (default)
  --trace 1      traced run: prints the per-layer metrics, writes the span
                 file under <target dir>/td-bench/ (or to FILE if given)
  --runs N       aa: runs per set (default 3)
  --smoke        tiny fixed sizes, for the contract test";

/// A parsed `run` / `aa` command line.
#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    /// `None`: untraced. `Some(None)`: traced, default span file.
    trace: Option<Option<PathBuf>>,
    smoke: bool,
    runs: usize,
    /// `pass` only: the shard count of the pass.
    shards: u32,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: None,
        smoke: false,
        runs: 3,
        shards: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer".to_owned())?;
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds needs a non-negative number")?;
            }
            "--runs" => {
                out.runs = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--runs needs a positive integer")?;
            }
            "--shards" => {
                out.shards = value()?
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or("--shards needs a positive integer")?;
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => None,
                    "1" => Some(None),
                    file => Some(Some(PathBuf::from(file))),
                };
            }
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if metrics::workload(&out.workload).is_none() {
        let names: Vec<&str> = metrics::WORKLOADS
            .iter()
            .chain(&metrics::UNDECLARED)
            .map(|w| w.name)
            .collect();
        return Err(format!(
            "--workload must be one of {} (got {:?})",
            names.join(", "),
            out.workload
        ));
    }
    Ok(out)
}

/// The detail line: who measured, how much, and how spread out.
fn detail_line(
    a: &Args,
    threads: u32,
    passes: usize,
    digest: u64,
    summaries: &[(&'static str, Summary)],
    extra: &[(&str, String)],
) -> String {
    let quartiles: Vec<String> = summaries
        .iter()
        .map(|(name, s)| {
            format!(
                "\"{name}\": {{\"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                s.n, s.q1, s.median, s.q3
            )
        })
        .collect();
    let extra: String = extra
        .iter()
        .map(|(k, v)| format!(", \"{}\": {v}", escape(k)))
        .collect();
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"smoke\": {}, \"cores\": {}, \
         \"threads\": {threads}, \"git_rev\": \"{}\", \"passes\": {passes}, \
         \"sim_digest\": \"{digest:016x}\", \"quartiles\": {{{}}}{extra}}}",
        escape(&a.workload),
        a.seed,
        a.trace.is_some(),
        a.smoke,
        host::cores(),
        escape(&host::git_rev()),
        quartiles.join(", "),
    )
}

fn print_table(title: &str, declared: &[Metric], out: &Outcome, raw: &[(&str, Summary)]) {
    eprintln!("\n{title}");
    for m in declared {
        if let Some(v) = out.get(m.name) {
            eprintln!("  {:<36} {:>16.6} {}", m.name, v, m.unit);
        }
    }
    if !raw.is_empty() {
        eprintln!("  raw samples:");
    }
    for (name, s) in raw {
        eprintln!(
            "    {name:<18} median {:>14.6}  [q1 {:.6}  q3 {:.6}  n {}]",
            s.median, s.q1, s.q3, s.n
        );
    }
}

fn run_untraced(a: &Args) -> Result<(Outcome, String), String> {
    match sim::Kind::from_name(&a.workload) {
        Some(kind) => {
            let cfg = sim::Config {
                seed: a.seed,
                seconds: a.seconds,
                smoke: a.smoke,
            };
            let (out, d) = sim::run_untraced(kind, &cfg)?;
            print_table(
                &format!(
                    "{} seed {} — {} timed passes on {} thread(s), {} events and {} rows \
                     ({} out of band) per pass",
                    a.workload,
                    a.seed,
                    d.passes,
                    d.threads,
                    d.events_dispatched,
                    d.rows.0,
                    d.rows.1
                ),
                &END_TO_END,
                &out,
                &d.summaries,
            );
            let extra = [
                ("pass_wall_s", format!("{:?}", d.pass_wall_s)),
                ("events_per_pass", d.events_dispatched.to_string()),
                ("rows", d.rows.0.to_string()),
                ("rows_out_of_band", d.rows.1.to_string()),
            ];
            let line = detail_line(a, d.threads, d.passes, d.sim_digest, &d.summaries, &extra);
            Ok((out, line))
        }
        None => {
            let (out, d) = serve::run_untraced(a.seed, a.seconds, a.smoke)?;
            print_table(
                &format!(
                    "{} seed {} — {} rounds, {} throughput client(s), {} requests",
                    a.workload, a.seed, d.rounds, d.threads, d.run.attempted
                ),
                &END_TO_END,
                &out,
                &d.summaries,
            );
            let s = &d.run.samples;
            let phases: [(&str, &[f64], &str); 8] = [
                ("hit small", &s.hit_small_us, "us"),
                ("hit large", &s.hit_large_us, "us"),
                ("miss small", &s.miss_small_ms, "ms"),
                ("miss mid", &s.miss_mid_ms, "ms"),
                ("miss large", &s.miss_large_ms, "ms"),
                ("recompute mid", &s.recompute_ms, "ms"),
                ("connect + hit", &s.connect_ms, "ms"),
                ("throughput miss", &s.miss_cells_per_s, "1/s"),
            ];
            eprintln!("  per phase, pooled over rounds:");
            for (name, xs, unit) in phases {
                let q = summarize(xs);
                eprintln!(
                    "    {name:<18} p50 {:>12.3} {unit:<4} [q1 {:.3}  q3 {:.3}  n {}]",
                    q.median, q.q1, q.q3, q.n
                );
            }
            let extra = [
                ("pass_wall_s", format!("{:?}", s.round_wall_s)),
                ("hit_req_per_s", format!("{:?}", s.hit_req_per_s)),
            ];
            let line = detail_line(
                a,
                d.threads,
                d.rounds,
                d.run.sim_digest,
                &d.summaries,
                &extra,
            );
            Ok((out, line))
        }
    }
}

fn run_traced(a: &Args, file: Option<&PathBuf>) -> Result<(Outcome, String), String> {
    let td_serve = host::build_td_serve()?;
    let mut rec = Recorder::new();
    let mut out = Outcome::default();
    probes::run(a.seed, a.smoke, &td_serve, &mut rec, &mut out)?;

    let (threads, digest, overhead, counts) = match sim::Kind::from_name(&a.workload) {
        Some(kind) => {
            let cfg = sim::Config {
                seed: a.seed,
                seconds: a.seconds,
                smoke: a.smoke,
            };
            let t = sim::run_traced(kind, &cfg, &mut rec);
            out.attempted += t.attempted;
            out.failed += t.failed;
            let p = &t.untraced;
            (
                kind.threads(),
                p.digest(),
                t.traced_wall_s / p.wall_s - 1.0,
                (p.events_scheduled, p.events_dispatched, p.peak_queue_depth),
            )
        }
        None => {
            let sz = if a.smoke {
                serve::Sizes::SMOKE
            } else {
                serve::Sizes::FULL
            };
            let sz = serve::Sizes { boots: 1, ..sz };
            let run = serve::run(
                &td_serve,
                a.seed,
                &sz,
                serve::Rounds::Exactly(2),
                Some(&mut rec),
            )?;
            out.attempted += run.attempted;
            out.failed += run.failed;
            let walls = &run.samples.round_wall_s;
            // The daemon's event counts are not visible from its socket.
            (
                host::cores() as u32,
                run.sim_digest,
                walls[1] / walls[0] - 1.0,
                (0, 0, 0),
            )
        }
    };
    out.set("engine.events_scheduled", counts.0 as f64);
    out.set("engine.events_dispatched", counts.1 as f64);
    out.set("engine.peak_queue_depth", counts.2 as f64);
    out.set("trace.overhead_frac", overhead);
    out.set("trace.self_sum_frac", rec.self_sum_frac("pass"));
    out.set("trace.spans", rec.spans().len() as f64);

    let path = match file {
        Some(f) => f.clone(),
        None => {
            std::fs::create_dir_all(host::out_dir()).map_err(|e| e.to_string())?;
            host::out_dir().join(format!("trace-{}-{}.json", a.workload, a.seed))
        }
    };
    std::fs::write(&path, rec.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;

    print_table(
        &format!(
            "{} seed {} — traced run, per-layer metrics",
            a.workload, a.seed
        ),
        PER_LAYER,
        &out,
        &[],
    );
    eprintln!("\n  spans (written to {}):", path.display());
    eprintln!(
        "    {:<32} {:>7} {:>12} {:>12}",
        "name", "count", "total ms", "self ms"
    );
    for t in rec.totals_by_name() {
        eprintln!(
            "    {:<32} {:>7} {:>12.3} {:>12.3}",
            t.name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    let extra = [(
        "span_file",
        format!("\"{}\"", escape(&path.to_string_lossy())),
    )];
    let line = detail_line(a, threads, 1, digest, &[], &extra);
    Ok((out, line))
}

fn cmd_run(args: &[String]) -> Result<i32, String> {
    let a = parse_args(args)?;
    host::require_checkout_root()?;
    let (out, detail, declared): (Outcome, String, &[Metric]) = match &a.trace {
        None => {
            let (out, detail) = run_untraced(&a)?;
            (out, detail, &END_TO_END)
        }
        Some(file) => {
            let (out, detail) = run_traced(&a, file.as_ref())?;
            (out, detail, PER_LAYER)
        }
    };
    let line = out.result_line(declared)?;
    if !out.correct() {
        eprintln!(
            "td-bench: {} of {} operations failed a check",
            out.failed, out.attempted
        );
    }
    println!("{detail}");
    println!("{line}");
    Ok(if out.correct() { 0 } else { 1 })
}

/// `td-bench pass`: one simulation pass in this process, as one JSON line
/// for the `run` that spawned it.
fn cmd_pass(args: &[String]) -> Result<i32, String> {
    let a = parse_args(args)?;
    let kind =
        sim::Kind::from_name(&a.workload).ok_or_else(|| format!("{} has no passes", a.workload))?;
    println!(
        "{}",
        sim::pass_here(kind, a.seed, a.shards, a.smoke).to_json()
    );
    Ok(0)
}

/// The end-to-end values of one child `run`.
fn child_run(a: &Args) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", &a.workload, "--trace", "0"])
        .args(["--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::null());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!("child run failed: {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let doc = json::parse(text.lines().last().ok_or("child printed nothing")?)?;
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(json::Value::as_f64)
                .ok_or_else(|| format!("child result has no {}", m.name))
        })
        .collect()
}

/// One end-to-end metric of an A/A comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct AaRow {
    /// Metric name.
    pub name: &'static str,
    /// Quartiles of set A's run values.
    pub a: Summary,
    /// Quartiles of set B's run values.
    pub b: Summary,
    /// How much worse B's median is than A's, as a share of A's (negative
    /// when B is better).
    pub worse_by: f64,
    /// `|B − A|` medians as a share of A's.
    pub delta: f64,
    /// Whether the two inter-quartile ranges share a point.
    pub overlap: bool,
    /// Whether `delta` is within the metric's bound.
    pub within: bool,
}

/// Compare two sets of run values of one metric.
pub fn aa_row(m: &Metric, a: &[f64], b: &[f64]) -> AaRow {
    let (sa, sb) = (summarize(a), summarize(b));
    let rel = (sb.median - sa.median) / sa.median.abs();
    let worse_by = match m.better {
        Better::Lower => rel,
        Better::Higher => -rel,
    };
    AaRow {
        name: m.name,
        a: sa,
        b: sb,
        worse_by,
        delta: rel.abs(),
        overlap: sa.q1 <= sb.q3 && sb.q1 <= sa.q3,
        within: rel.abs() <= m.bound.unwrap_or(f64::INFINITY),
    }
}

fn cmd_aa(args: &[String]) -> Result<i32, String> {
    let a = parse_args(args)?;
    // Alternate the sets so drift on the box lands on both.
    let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..2 * a.runs {
        let values = child_run(&a)?;
        eprintln!("  run {} (set {}): {values:?}", i + 1, ["A", "B"][i % 2]);
        sets[i % 2].push(values);
    }
    println!(
        "A/A {} seed {}: two sets of {} run(s), {} cores",
        a.workload,
        a.seed,
        a.runs,
        host::cores()
    );
    println!(
        "  {:<14} {:>14} {:>14} {:>9} {:>7} {:>9} {:>9}  verdict",
        "metric", "median A", "median B", "|delta|", "bound", "spread A", "spread B"
    );
    let mut ok = true;
    for (i, m) in END_TO_END.iter().enumerate() {
        let column = |set: &Vec<Vec<f64>>| set.iter().map(|run| run[i]).collect::<Vec<f64>>();
        let row = aa_row(m, &column(&sets[0]), &column(&sets[1]));
        ok &= row.within;
        println!(
            "  {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>6.0}% {:>8.2}% {:>8.2}%  {}{}",
            row.name,
            row.a.median,
            row.b.median,
            row.delta * 100.0,
            m.bound.unwrap_or(0.0) * 100.0,
            row.a.spread() * 100.0,
            row.b.spread() * 100.0,
            if row.within {
                "within bound"
            } else {
                "EXCEEDS BOUND"
            },
            if row.overlap {
                ", quartile ranges overlap"
            } else {
                ", quartile ranges disjoint"
            },
        );
    }
    Ok(if ok { 0 } else { 1 })
}

fn cmd_list() {
    println!("workloads:");
    for w in &metrics::WORKLOADS {
        println!("  {:<20} {}", w.name, w.why);
    }
    println!("runnable, not declared in BENCHMARK.json:");
    for w in &metrics::UNDECLARED {
        println!("  {:<20} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced run):");
    for m in &END_TO_END {
        println!(
            "  {:<36} {:<7} better {:<6} bound {:.0}%",
            m.name,
            m.unit,
            if m.better == Better::Lower {
                "lower"
            } else {
                "higher"
            },
            m.bound.unwrap_or(0.0) * 100.0
        );
    }
    println!("per-layer metrics (traced run):");
    for m in PER_LAYER {
        println!("  {:<36} {}", m.name, m.unit);
    }
}

/// Run the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("aa") => cmd_aa(&args[1..]),
        Some("pass") => cmd_pass(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest_json());
            Ok(0)
        }
        Some("list") => {
            cmd_list();
            Ok(0)
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{USAGE}")),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("td-bench: {msg}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&args(
            "--workload serve_mix --seed 7 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_mix");
        assert_eq!((a.seed, a.seconds, a.smoke), (7, 20.0, false));
        assert_eq!(a.trace, None);
        let a = parse_args(&args("--workload paper_full --trace 1")).unwrap();
        assert_eq!(a.trace, Some(None));
        assert_eq!(a.seed, 1);
        let a = parse_args(&args("--workload paper_full --trace out/t.json --smoke")).unwrap();
        assert_eq!(a.trace, Some(Some(PathBuf::from("out/t.json"))));
        assert!(a.smoke);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nonsense",
            "--workload paper_full --seed",
            "--workload paper_full --seed -1",
            "--workload paper_full --seconds nan",
            "--workload paper_full --runs 0",
            "--workload paper_full --shards 0",
            "--workload paper_full --frobnicate",
        ] {
            assert!(
                parse_args(&args(bad)).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn aa_row_judges_direction_bound_and_overlap() {
        let wall = &END_TO_END[0];
        assert_eq!((wall.name, wall.better), ("wall_s", Better::Lower));
        let row = aa_row(wall, &[5.0, 5.1, 5.2], &[5.3, 5.2, 5.4]);
        assert!((row.worse_by - 0.2 / 5.1).abs() < 1e-12);
        assert!(row.within && row.overlap);
        let row = aa_row(wall, &[5.0, 5.1, 5.2], &[7.0, 7.1, 7.2]);
        assert!(!row.within && !row.overlap);
        assert!(row.worse_by > wall.bound.unwrap());

        let rate = &END_TO_END[1];
        assert_eq!(rate.better, Better::Higher);
        let row = aa_row(rate, &[100.0, 100.0, 100.0], &[70.0, 70.0, 70.0]);
        assert!((row.worse_by - 0.3).abs() < 1e-12, "a lower rate is worse");
        assert!(!row.within);
        let row = aa_row(rate, &[100.0], &[104.0]);
        assert!(row.worse_by < 0.0 && row.within);
    }
}
