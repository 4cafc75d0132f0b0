//! `td-repro` — regenerate every figure and table of the paper.
//!
//! ```text
//! td-repro list                       # show available experiment ids
//! td-repro --list                     # full registry incl. hidden entries
//! td-repro all [--full] [--seed N] [--jobs N] [--out DIR]
//! td-repro fig45 [--full] [--seed N] [--out DIR]
//! td-repro --resume DIR [--jobs N]    # continue an interrupted sweep
//! td-repro mc [--seed N] [...]        # bounded model checking (fig45)
//! td-repro mc --replay FILE.tdmc      # reproduce a counterexample
//! ```
//!
//! Experiments run on a worker pool fed by one global job budget
//! (`--jobs N`, default = available cores): workers claim a slot each
//! while executing experiments, and idle slots — fewer experiments than
//! jobs, or workers that ran out of work — are borrowed by
//! *in-experiment* replicate sweeps, so one big experiment still fills
//! the machine. Seeds are a pure function of
//! `(--seed, experiment id, replicate)` — never of scheduling — so
//! reports are byte-identical whatever the budget. The canonical
//! replicate runs with `--seed` verbatim; extra `--seeds` replicates get
//! decorrelated derived seeds. A panicking experiment is isolated: it
//! becomes one failed report (message preserved in `timings.json`) while
//! the rest of the batch completes. Reports print to stdout (metric
//! rows and ASCII figures) in registry order. With `--out DIR` the
//! underlying CSV series, a markdown summary, and a `timings.json`
//! observability report are written there; `--timings FILE` writes the
//! timings report to an explicit path. Both are written even when
//! experiments fail — a red batch is exactly when the observability
//! report matters.
//!
//! # Crash resilience
//!
//! With `--out DIR` the sweep also keeps an append-only, fsynced results
//! journal (`journal.tdj`) in the directory: one line per completed
//! `(experiment, replicate)` cell, durable the moment the cell finishes.
//! `--resume DIR` replays that journal — configuration comes from the
//! journal header, completed cells are reprinted without re-running, and
//! only the missing cells execute. Because every seed is derived, not
//! scheduled, the resumed sweep's stdout and output files are
//! byte-identical to an uninterrupted run (only `timings.json` and the
//! journal itself carry wall-clock noise). Every output file is written
//! atomically (temp file + rename), so a crash can never leave a torn
//! CSV or half a `timings.json`.
//!
//! On Unix, SIGINT/SIGTERM interrupt *gracefully*: in-flight experiments
//! finish (and reach the journal), the partial `timings.json` is written
//! with `"interrupted": true`, and the process exits with status 130 —
//! `--resume` then picks up exactly where the signal landed.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Mutex;
use td_engine::write_atomic;
use td_experiments::journal::{Journal, JournalHeader};
use td_experiments::registry::{find, hidden, registry, Entry, Profile};
use td_experiments::runner::{default_jobs, run_batch_resumable, BatchResult, RunnerConfig};

/// Graceful-shutdown signal handling (SIGINT / SIGTERM).
///
/// The handler only raises a flag — the runner's workers poll it between
/// tasks, finish what they started, and flush the journal. This module
/// is the one place in the whole workspace that needs `unsafe`: a raw
/// `signal(2)` binding, so the zero-dependency rule holds. The handler
/// body is a single atomic store, well inside the async-signal-safe set.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

fn install_signal_handlers() -> Option<&'static std::sync::atomic::AtomicBool> {
    #[cfg(unix)]
    {
        sig::install();
        Some(&sig::INTERRUPTED)
    }
    #[cfg(not(unix))]
    {
        None
    }
}

struct Args {
    ids: Vec<String>,
    seed: u64,
    seeds: u64,
    jobs: usize,
    shards: u32,
    profile: Profile,
    out: Option<PathBuf>,
    timings: Option<PathBuf>,
    resume: Option<PathBuf>,
    salvage: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut ids = Vec::new();
    let mut seed = 1;
    let mut seeds = 1;
    let mut jobs = default_jobs();
    let mut shards = 1;
    let mut profile = Profile::Quick;
    let mut out = None;
    let mut timings = None;
    let mut resume = None;
    let mut salvage = false;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--full" => profile = Profile::Full,
            "--quick" => profile = Profile::Quick,
            "--profile" => {
                let v = argv.next().ok_or("--profile needs quick|full")?;
                profile = match v.as_str() {
                    "quick" => Profile::Quick,
                    "full" => Profile::Full,
                    other => return Err(format!("bad profile: {other} (quick|full)")),
                };
            }
            "--seed" => {
                let v = argv.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--seeds" => {
                let v = argv.next().ok_or("--seeds needs a count")?;
                seeds = v.parse().map_err(|_| format!("bad count: {v}"))?;
                if seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--jobs" => {
                let v = argv.next().ok_or("--jobs needs a count")?;
                jobs = v.parse().map_err(|_| format!("bad job count: {v}"))?;
                if jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--shards" => {
                let v = argv.next().ok_or("--shards needs a count")?;
                shards = v.parse().map_err(|_| format!("bad shard count: {v}"))?;
                if shards == 0 {
                    return Err("--shards must be at least 1".into());
                }
            }
            "--out" => {
                let v = argv.next().ok_or("--out needs a directory")?;
                out = Some(PathBuf::from(v));
            }
            "--timings" => {
                let v = argv.next().ok_or("--timings needs a file path")?;
                timings = Some(PathBuf::from(v));
            }
            "--resume" => {
                let v = argv.next().ok_or("--resume needs a directory")?;
                resume = Some(PathBuf::from(v));
            }
            "--salvage" => salvage = true,
            "--only" => {
                let v = argv.next().ok_or("--only needs an experiment id")?;
                ids.push(v);
            }
            "--all" => ids.push("all".into()),
            "-h" | "--help" => {
                ids.push("help".into());
            }
            other if other.starts_with('-') => {
                return Err(format!("unknown flag: {other}"));
            }
            other => ids.push(other.to_owned()),
        }
    }
    if resume.is_some() && !ids.is_empty() {
        return Err("--resume takes its experiment list from the journal; \
                    don't pass ids with it"
            .into());
    }
    if salvage && resume.is_none() {
        return Err("--salvage only makes sense with --resume".into());
    }
    Ok(Args {
        ids,
        seed,
        seeds,
        jobs,
        shards,
        profile,
        out,
        timings,
        resume,
        salvage,
    })
}

fn usage() {
    println!("td-repro — reproduce Zhang/Shenker/Clark (SIGCOMM '91)");
    println!();
    println!("usage: td-repro <id|all|list> [--full] [--seed N] [--jobs N] [--out DIR]");
    println!("       td-repro --resume DIR [--salvage] [--jobs N]");
    println!("       td-repro --list     (full registry, hidden entries flagged)");
    println!("       td-repro mc [--seed N] [--full] [--grid N] [--seed-violation]");
    println!("                   [--artifacts DIR] | --replay FILE.tdmc");
    println!();
    println!("experiments:");
    for e in registry() {
        println!("  {:<14} {}", e.id, e.about);
    }
    println!();
    println!("flags:");
    println!("  --full           paper-scale run lengths (default: quick)");
    println!("  --profile P      quick | full (same as --quick / --full)");
    println!("  --only ID        run a single experiment (same as the positional id)");
    println!("  --seed N         master seed for the canonical run (default 1)");
    println!("  --seeds N        run N replicates per experiment; replicate 0 uses");
    println!("                   --seed verbatim, the rest get derived seeds");
    println!("  --jobs N         global job budget: cross-experiment workers plus",);
    println!(
        "                   in-experiment sweep slots (default: cores = {})",
        default_jobs()
    );
    println!("  --shards N       worker shards for shard-aware experiments (e.g. scale);");
    println!("                   results are byte-identical for every N (default 1)");
    println!("  --out DIR        also write CSV data, a markdown summary, timings.json,");
    println!("                   and an fsynced results journal (journal.tdj)");
    println!("  --timings FILE   write the timings/observability report to FILE");
    println!("  --resume DIR     continue an interrupted sweep from DIR's journal:");
    println!("                   completed cells replay, only missing cells run");
    println!("  --salvage        with --resume: if the journal has mid-file damage,");
    println!("                   truncate at the first bad line, keep the intact");
    println!("                   prefix, and rerun the dropped cells");
}

/// Print the full registry — public entries first, then the hidden
/// drills — as `(id, hidden flag, title)` rows.
fn print_list() {
    for e in registry() {
        println!("{:<14} {:<8} {}", e.id, "", e.about);
    }
    for e in hidden() {
        println!("{:<14} {:<8} {}", e.id, "hidden", e.about);
    }
}

/// `td-repro mc` — bounded model checking of the fig45 scenario.
///
/// Explore mode prints the exploration counters and any counterexamples
/// (exit 0 when the verdict matches expectation: a clean tree normally,
/// at least one counterexample under `--seed-violation`). Replay mode
/// (`--replay FILE.tdmc`) re-executes a schedule and exits 0 only if it
/// reproduces a violation or stall.
fn mc_main(argv: &[String]) -> ExitCode {
    use td_experiments::mc::{explore_fig45, replay_fig45, McParams};
    use td_net::mc::McSchedule;

    let mut seed = 1u64;
    let mut full = false;
    let mut grid: Option<usize> = None;
    let mut outage_ms: Option<u64> = None;
    let mut max_decisions: Option<usize> = None;
    let mut max_states: Option<u64> = None;
    let mut no_drops = false;
    let mut seed_violation = false;
    let mut artifacts: Option<PathBuf> = None;
    let mut replay: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut next = |what: &str| -> Result<String, String> {
            it.next().cloned().ok_or(format!("{what} needs a value"))
        };
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--seed" => {
                    let v = next("--seed")?;
                    seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
                }
                "--full" => full = true,
                "--quick" => full = false,
                "--grid" => {
                    let v = next("--grid")?;
                    grid = Some(v.parse().map_err(|_| format!("bad grid size: {v}"))?);
                }
                "--outage-ms" => {
                    let v = next("--outage-ms")?;
                    outage_ms = Some(v.parse().map_err(|_| format!("bad outage: {v}"))?);
                }
                "--max-decisions" => {
                    let v = next("--max-decisions")?;
                    max_decisions = Some(v.parse().map_err(|_| format!("bad depth: {v}"))?);
                }
                "--max-states" => {
                    let v = next("--max-states")?;
                    max_states = Some(v.parse().map_err(|_| format!("bad budget: {v}"))?);
                }
                "--no-drops" => no_drops = true,
                "--seed-violation" => seed_violation = true,
                "--artifacts" => artifacts = Some(PathBuf::from(next("--artifacts")?)),
                "--replay" => replay = Some(PathBuf::from(next("--replay")?)),
                other => return Err(format!("unknown mc flag: {other}")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}");
            eprintln!(
                "usage: td-repro mc [--seed N] [--full] [--grid N] [--outage-ms N]\n\
                 \x20                 [--max-decisions N] [--max-states N] [--no-drops]\n\
                 \x20                 [--seed-violation] [--artifacts DIR]\n\
                 \x20      td-repro mc --replay FILE.tdmc"
            );
            return ExitCode::from(2);
        }
    }

    if let Some(path) = replay {
        let sched = match McSchedule::read_from_file(&path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read schedule {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        println!(
            "mc replay: {} — seed {}, {} decision(s), seeded-violation prelude: {}",
            path.display(),
            sched.seed,
            sched.decisions.len(),
            if sched.seeded_violation { "yes" } else { "no" }
        );
        for &(gi, d) in &sched.decisions {
            println!(
                "  decision @{gi} ({:?}): {}",
                sched.grid[gi as usize],
                d.render()
            );
        }
        let out = replay_fig45(&sched);
        for v in &out.violations {
            println!("violation: {v}");
        }
        if let Some(s) = &out.stall {
            println!("stall: {s}");
        }
        if out.violations.is_empty() && out.stall.is_none() {
            eprintln!("schedule replayed clean: no violation or stall reproduced");
            return ExitCode::FAILURE;
        }
        println!(
            "reproduced {} violation(s){}",
            out.violations.len(),
            if out.stall.is_some() { " + stall" } else { "" }
        );
        return ExitCode::SUCCESS;
    }

    let mut p = if full {
        McParams::full(seed)
    } else {
        McParams::quick(seed)
    };
    if let Some(g) = grid {
        p.grid_points = g;
    }
    if let Some(ms) = outage_ms {
        p.outage = td_engine::SimDuration::from_millis(ms);
    }
    if let Some(d) = max_decisions {
        p.max_decisions = d;
    }
    if let Some(s) = max_states {
        p.max_states = s;
    }
    p.enable_drops = !no_drops;
    p.seeded_violation = seed_violation;
    p.artifact_dir = artifacts;

    println!(
        "mc: fig45 bounded exploration — seed {seed}, {} grid point(s), \
         outage {} ms, <= {} decision(s)/path, budget {} states{}",
        p.grid_points,
        p.outage.as_nanos() / 1_000_000,
        p.max_decisions,
        p.max_states,
        if p.seeded_violation {
            " [seeded violation]"
        } else {
            ""
        }
    );
    let run = explore_fig45(&p);
    let s = &run.stats;
    println!(
        "mc: window [{:?}, {:?}], horizon {:?}",
        run.grid.first().unwrap(),
        run.grid.last().unwrap(),
        run.horizon
    );
    println!(
        "mc: visited={} deduped={} pruned={} max_depth={} counterexamples={}",
        s.states_visited,
        s.states_deduped,
        s.states_pruned,
        s.max_depth,
        s.counterexamples.len()
    );
    for (i, cex) in s.counterexamples.iter().enumerate() {
        let path: Vec<String> = cex
            .schedule
            .decisions
            .iter()
            .map(|&(gi, d)| format!("@{gi} {}", d.render()))
            .collect();
        println!("counterexample {i}: [{}]", path.join(", "));
        for v in &cex.violations {
            println!("  violation: {v}");
        }
        if let Some(st) = &cex.stall {
            println!("  stall: {st}");
        }
        if let Some(sp) = &cex.schedule_path {
            println!("  schedule: {}", sp.display());
        }
        if let Some(np) = &cex.snapshot_path {
            println!("  snapshot: {}", np.display());
        }
    }
    // A clean tree is the expected verdict normally; under
    // --seed-violation the expectation inverts — the harness must find
    // (and persist) the seeded counterexamples.
    if s.counterexamples.is_empty() != p.seeded_violation {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.first().map(String::as_str) == Some("mc") {
        return mc_main(&raw[1..]);
    }
    if raw.iter().any(|a| a == "--list") {
        print_list();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::from(2);
        }
    };
    td_experiments::set_shards(args.shards);
    if args.resume.is_none() && (args.ids.is_empty() || args.ids.iter().any(|i| i == "help")) {
        usage();
        return ExitCode::SUCCESS;
    }
    if args.ids.iter().any(|i| i == "list") {
        for e in registry() {
            println!("{:<14} {}", e.id, e.about);
        }
        return ExitCode::SUCCESS;
    }

    let interrupt = install_signal_handlers();

    // Resolve what to run. A fresh sweep takes everything from the
    // command line; a resumed one takes seed, profile, replicates, and
    // the experiment list from the journal header (only --jobs and
    // --timings still apply), so the two runs cannot diverge.
    let (entries, cfg, out, completed): (Vec<Entry>, RunnerConfig, Option<PathBuf>, Vec<_>) =
        if let Some(dir) = &args.resume {
            let (header, cells) = if args.salvage {
                match Journal::load_salvage(dir) {
                    Ok((header, cells, report)) => {
                        match report.truncated_at_byte {
                            Some(offset) => eprintln!(
                                "salvage: kept {} intact cell(s), dropped {} damaged \
                                 line(s), truncated journal at byte {offset}",
                                report.kept_cells, report.dropped_lines
                            ),
                            None => eprintln!(
                                "salvage: journal is fully intact ({} cell(s)), \
                                 nothing to drop",
                                report.kept_cells
                            ),
                        }
                        (header, cells)
                    }
                    Err(e) => {
                        eprintln!("error: cannot salvage {}: {e}", dir.display());
                        return ExitCode::from(2);
                    }
                }
            } else {
                match Journal::load(dir) {
                    Ok(x) => x,
                    Err(e) => {
                        eprintln!("error: cannot resume from {}: {e}", dir.display());
                        return ExitCode::from(2);
                    }
                }
            };
            let mut picked = Vec::new();
            for id in &header.ids {
                match find(id) {
                    Some(e) => picked.push(e),
                    None => {
                        eprintln!(
                            "error: journal names experiment {id:?} but the registry \
                             doesn't know it"
                        );
                        return ExitCode::from(2);
                    }
                }
            }
            eprintln!(
                "resuming from {}: {} of {} cells already journaled",
                dir.display(),
                cells.len(),
                picked.len() * header.replicates.max(1) as usize,
            );
            let cfg = RunnerConfig {
                jobs: args.jobs,
                profile: header.profile,
                master_seed: header.master_seed,
                replicates: header.replicates,
                progress: true,
                interrupt,
            };
            (picked, cfg, Some(dir.clone()), cells)
        } else {
            let entries: Vec<_> = if args.ids.iter().any(|i| i == "all") {
                registry()
            } else {
                let mut picked = Vec::new();
                for id in &args.ids {
                    match find(id) {
                        Some(e) => picked.push(e),
                        None => {
                            eprintln!("error: unknown experiment id: {id} (try `td-repro list`)");
                            return ExitCode::from(2);
                        }
                    }
                }
                picked
            };
            let cfg = RunnerConfig {
                jobs: args.jobs,
                profile: args.profile,
                master_seed: args.seed,
                replicates: args.seeds,
                progress: true,
                interrupt,
            };
            (entries, cfg, args.out.clone(), Vec::new())
        };

    // Open the journal: fresh (with a header line) for a new sweep with
    // an output directory, append-mode for a resume. No directory, no
    // journal — there is nowhere durable to put it.
    let journal = match &out {
        Some(dir) if args.resume.is_some() => match Journal::open_append(dir) {
            Ok(j) => Some(Mutex::new(j)),
            Err(e) => {
                eprintln!("error: cannot reopen journal in {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        },
        Some(dir) => {
            let header = JournalHeader {
                master_seed: cfg.master_seed,
                profile: cfg.profile,
                replicates: cfg.replicates.max(1),
                ids: entries.iter().map(|e| e.id.to_owned()).collect(),
            };
            match Journal::create(dir, &header) {
                Ok(j) => Some(Mutex::new(j)),
                Err(e) => {
                    eprintln!("error: cannot create journal in {}: {e}", dir.display());
                    return ExitCode::from(2);
                }
            }
        }
        None => None,
    };

    eprintln!(
        "running {} experiment(s) × {} seed(s) on a {}-job budget ...",
        entries.len(),
        cfg.replicates.max(1),
        cfg.jobs.max(1)
    );
    let batch = run_batch_resumable(&entries, &cfg, journal.as_ref(), completed);

    // Reports in registry order, independent of completion order (and of
    // whether a cell ran now or was replayed from the journal).
    for r in batch.primary() {
        println!("{}", r.report);
        if !r.report.all_ok() {
            eprintln!(
                "MISMATCH in {} (seed {}): {:?}",
                r.id,
                r.seed,
                r.report.failures()
            );
        }
    }
    if cfg.replicates > 1 {
        for e in &entries {
            let (passes, total) = batch.pass_count(e.id);
            eprintln!("{}: {passes}/{total} seeds fully in-band", e.id);
        }
    }

    // Persist observability and outputs unconditionally — and
    // independently of each other — before deciding the exit code: a red
    // batch (mismatches, panics, or an interrupt) is exactly when
    // timings.json and the partial outputs matter most.
    let mut io_failed = false;
    if let Err(e) = write_timings(&args, &out, &batch) {
        eprintln!("error writing timings: {e}");
        io_failed = true;
    }
    if let Some(dir) = &out {
        let reports: Vec<_> = batch.primary().map(|r| r.report.clone()).collect();
        match write_outputs(dir, &reports) {
            Err(e) => {
                eprintln!("error writing outputs: {e}");
                io_failed = true;
            }
            Ok(()) => eprintln!("wrote CSVs and summary to {}", dir.display()),
        }
    }

    for (id, replicate, msg) in batch.panics() {
        eprintln!("PANIC in {id} (replicate {replicate}): {msg}");
    }
    let ok = batch.primary().filter(|r| r.report.all_ok()).count();
    eprintln!(
        "{ok}/{} experiments fully in-band, {:.1}s wall clock on a {}-job budget",
        batch.primary().count(),
        batch.total_wall_s,
        batch.jobs
    );
    if batch.interrupted {
        eprintln!(
            "interrupted: {} cell(s) journaled; finish with `td-repro --resume DIR`",
            batch.results.len()
        );
        return ExitCode::from(130);
    }
    if batch.all_ok() && !io_failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_timings(args: &Args, out: &Option<PathBuf>, batch: &BatchResult) -> std::io::Result<()> {
    let explicit = args.timings.clone();
    let implied = out.as_ref().map(|d| d.join("timings.json"));
    for path in explicit.into_iter().chain(implied) {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        write_atomic(&path, batch.timings_json().as_bytes())?;
        eprintln!("wrote timings to {}", path.display());
    }
    Ok(())
}

fn write_outputs(dir: &Path, reports: &[td_experiments::Report]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut summary = String::from("# Reproduction summary\n\n");
    for rep in reports {
        summary.push_str(&format!(
            "## {} — {}\n\n{}\n",
            rep.id, rep.title, rep.config
        ));
        summary.push('\n');
        summary.push_str(&rep.markdown_table());
        summary.push('\n');
        for p in &rep.plots {
            summary.push_str("```\n");
            summary.push_str(p);
            summary.push_str("```\n\n");
        }
        for (name, contents) in &rep.csvs {
            write_atomic(&dir.join(name), contents.as_bytes())?;
        }
        for (name, bytes) in &rep.blobs {
            write_atomic(&dir.join(name), bytes)?;
        }
    }
    write_atomic(&dir.join("SUMMARY.md"), summary.as_bytes())
}
