//! Per-layer probes: what one operation of each layer costs, measured
//! from outside by timing calls into the crates' public functions.
//!
//! The suite is the same whichever workload is traced — it is the price
//! list of the layers, and the traced pass's span file says how much of
//! each a workload buys. The README's glossary maps every probe to the
//! end-to-end metric and workload it should move, and to the ones it
//! should leave alone.
//!
//! The functions the probes call are the **benchmark API surface** (the
//! README lists them): changing one of their signatures means changing
//! this file, which only a benchmark PR may do.

use crate::metrics::Outcome;
use crate::serve;
use crate::stats::{fastest, median, tail};
use crate::trace::Recorder;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use td_analysis::epochs::detect_epochs;
use td_analysis::{
    classify_sync, cwnd_series, departures, dominant_period, drop_events, queue_series,
    utilization_in, StreamAnalyzer, StreamSpec,
};
use td_core::{CcKind, IncrementRule, RtoConfig, RttEstimator, TcpSender};
use td_engine::{EventQueue, SimDuration, SimRng, SimTime, SnapReader, SnapWriter};
use td_experiments::journal::{read_report, write_report, Journal, JournalHeader};
use td_experiments::registry::{find, registry, Entry, Profile};
use td_experiments::runner::{peak_rss_kib, reset_peak_rss, run_batch, BatchResult, RunnerConfig};
use td_experiments::scale::{build_chain, ScaleParams};
use td_experiments::scenario::Run;
use td_experiments::{fig45, Report};
use td_net::{
    ConnId, DisciplineKind, LossKind, NodeId, Packet, PacketId, PacketKind, ShardedWorld,
    TraceObserver, World,
};

/// Scheduled : dispatched events of `paper_full` and of `scale_100k` at
/// seed 1 (24 471 647 : 22 957 108 and 5 370 272 : 4 886 514). The
/// surplus is timers cancelled before firing, so the queue scripts cancel
/// and re-arm at that rate.
const CANCEL_FRAC_D64: f64 = 0.066;
const CANCEL_FRAC_D100K: f64 = 0.099;

/// The entries whose quick-profile wall clock is reported: together
/// ≈ 85 % of a `paper_full` pass.
const TIMED_ENTRIES: [&str; 6] = [
    "scale",
    "fig45",
    "modes",
    "oneway-util",
    "piggyback",
    "conjecture",
];

/// The declared per-layer metric `<prefix><suffix>`: the `&'static str`
/// an [`Outcome`] is keyed by, for names assembled at run time.
fn declared(prefix: &str, suffix: &str) -> Result<&'static str, String> {
    crate::metrics::PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| n.strip_prefix(prefix) == Some(suffix))
        .ok_or_else(|| format!("no per-layer metric {prefix}{suffix} is declared"))
}

/// Median wall clock, in seconds, of `reps` runs of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Run the whole suite, recording each group as a root span and each
/// value under its declared name. Runs first in a traced run, while the
/// process is still small, so the RSS growth of the big chain is the
/// chain's.
pub fn run(
    seed: u64,
    smoke: bool,
    td_serve: &Path,
    rec: &mut Recorder,
    out: &mut Outcome,
) -> Result<(), String> {
    // Probes call into experiments directly; keep their in-experiment
    // sweeps sequential, as `jobs = 1` keeps the workloads'.
    td_experiments::sweep::budget().configure(0);
    rec.set_pass(0);
    rec.span("probe net chain", |_| net_chain(seed, smoke, out));
    rec.span("probe engine", |_| engine(seed, smoke, out));
    let traced = rec.span("probe net dumbbell", |_| net_dumbbell(seed, smoke, out));
    rec.span("probe core", |_| core(seed, smoke, out));
    rec.span("probe analysis", |_| analysis(&traced, smoke, out));
    drop(traced);
    let batch = rec.span("probe experiments", |_| experiments(seed, smoke, out))?;
    rec.span("probe engine snap", |_| snap(&batch, smoke, out))?;
    drop(batch);
    rec.span("probe serve", |_| serve_probe(seed, smoke, td_serve, out))
}

// ---------------------------------------------------------------- engine

/// Schedule / pop / cancel at a steady queue depth; ns per operation.
fn queue_ns_per_op(depth: usize, pops: u64, cancel_frac: f64, seed: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::with_capacity(depth);
    let mut rng = SimRng::new(seed);
    let delay = |rng: &mut SimRng| SimDuration::from_nanos(1 + rng.next_below(1_000_000_000));
    for i in 0..depth as u64 {
        let d = delay(&mut rng);
        q.schedule_in(d, i);
    }
    let mut armed = None;
    let mut ops = 0u64;
    let t = Instant::now();
    for i in 0..pops {
        black_box(q.pop());
        let d = delay(&mut rng);
        q.schedule_in(d, i);
        ops += 2;
        if rng.chance(cancel_frac) {
            // A retransmit timer re-armed before it fired.
            let d = delay(&mut rng);
            if let Some(old) = armed.replace(q.schedule_in(d, i)) {
                black_box(q.cancel(old));
                ops += 1;
            }
            ops += 1;
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(q.len());
    ns / ops as f64
}

/// The TCP retransmit-timer gait: a working set of armed timers, almost
/// every one cancelled and re-armed before it can expire.
fn timer_churn_ns_per_op(rounds: u64, seed: u64) -> f64 {
    const TIMERS: u64 = 256;
    let mut rng = SimRng::new(seed);
    let mut q = EventQueue::new();
    let mut armed: Vec<_> = (0..TIMERS)
        .map(|i| q.schedule_at(SimTime::from_millis(100 + i), i))
        .collect();
    let t = Instant::now();
    for r in 0..rounds {
        let k = rng.next_below(TIMERS) as usize;
        q.cancel(armed[k]);
        armed[k] = q.schedule_in(SimDuration::from_millis(100), r);
        if r % 64 == 0 {
            black_box(q.pop());
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(q.len());
    ns / (2 * rounds) as f64
}

fn rng_ns_per_draw(draws: u64, seed: u64) -> f64 {
    let mut r = SimRng::new(seed);
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..draws / 2 {
        acc = acc.wrapping_add(r.next_u64());
        acc = acc.wrapping_add(r.next_below(12_345));
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / draws as f64
}

fn engine(seed: u64, smoke: bool, out: &mut Outcome) {
    let scale = if smoke { 50 } else { 1 };
    out.set(
        "engine.queue_ns_per_op.d64",
        queue_ns_per_op(64, 3_000_000 / scale, CANCEL_FRAC_D64, seed),
    );
    out.set(
        "engine.queue_ns_per_op.d100k",
        queue_ns_per_op(
            110_000 / scale as usize,
            1_000_000 / scale,
            CANCEL_FRAC_D100K,
            seed,
        ),
    );
    out.set(
        "engine.timer_churn_ns_per_op",
        timer_churn_ns_per_op(2_000_000 / scale, seed),
    );
    out.set(
        "engine.rng_ns_per_draw",
        rng_ns_per_draw(20_000_000 / scale, seed),
    );
}

/// `SnapWriter` / `SnapReader` round trip of the quick fig45 report (the
/// payload of the large `td-serve` cell), MB of payload per second.
fn snap(batch: &BatchResult, smoke: bool, out: &mut Outcome) -> Result<(), String> {
    let report: &Report = batch
        .results
        .iter()
        .find(|r| r.id == "fig45")
        .map(|r| &r.report)
        .ok_or("the experiments probe did not run fig45")?;
    let reps = if smoke { 3 } else { 40 };
    let mut bytes = 0usize;
    let t = Instant::now();
    for _ in 0..reps {
        let mut w = SnapWriter::new();
        write_report(&mut w, report);
        let buf = w.into_bytes();
        let back = read_report(&mut SnapReader::new(&buf)).map_err(|e| format!("{e:?}"))?;
        bytes += buf.len();
        black_box(back.rows.len());
    }
    out.set(
        "engine.snap_mb_per_s",
        bytes as f64 / 1e6 / t.elapsed().as_secs_f64(),
    );
    Ok(())
}

// ------------------------------------------------------------------- net

fn chain_params(clusters: usize, duration_s: u64, smoke: bool) -> ScaleParams {
    ScaleParams {
        clusters,
        conns_per_cluster: if smoke { 24 } else { 156 },
        inter_conns: 4,
        duration_s,
        trace: false,
    }
}

/// The 640-cluster chain as a plain `World` (construction, route memory,
/// dispatch at queue depth ≈ 100 k, RSS growth per connection), its
/// sharded construction, and — on a 64-cluster chain, so each variant is
/// cheap enough to repeat — the taxes of canonical mode and a streaming
/// observer and the speed-up of sharding.
fn net_chain(seed: u64, smoke: bool, out: &mut Outcome) {
    let big = chain_params(if smoke { 4 } else { 640 }, 2, smoke);
    let shards = crate::host::cores().min(4) as u32;
    let rss0 = crate::host::proc_status_kib(None, "VmRSS");
    reset_peak_rss();
    let t = Instant::now();
    let mut w = World::new(seed);
    build_chain(&mut w, seed, &big);
    out.set("net.build_s", t.elapsed().as_secs_f64());
    w.trace_mut().set_enabled(false);
    let t = Instant::now();
    w.run_until(SimTime::from_secs(big.duration_s));
    let run_ns = t.elapsed().as_nanos() as f64;
    out.set(
        "net.run_ns_per_event.chain",
        run_ns / w.events_dispatched().max(1) as f64,
    );
    out.set(
        "net.bytes_per_conn",
        peak_rss_kib().saturating_sub(rss0) as f64 * 1024.0 / big.total_conns() as f64,
    );
    out.set("net.route_table_bytes", w.route_table_bytes() as f64);
    drop(w);

    let t = Instant::now();
    let sw = ShardedWorld::build(seed, shards, |w| {
        build_chain(w, seed, &big);
    });
    out.set("net.shard_build_s", t.elapsed().as_secs_f64());
    drop(sw);

    let small = chain_params(
        if smoke { 2 } else { 64 },
        if smoke { 2 } else { 10 },
        smoke,
    );
    let t_end = SimTime::from_secs(small.duration_s);
    let sharded = |shards: u32, observe: bool| {
        let map = std::cell::RefCell::new(None);
        let mut sw = ShardedWorld::build(seed, shards, |w| {
            let m = build_chain(w, seed, &small);
            map.borrow_mut().get_or_insert(m);
        });
        sw.set_trace_enabled(false);
        if observe {
            let trunk = map.into_inner().expect("builder ran").probe_trunk;
            let spec = StreamSpec::new().queue(trunk).canonical_ties();
            sw.add_observers(|_| Box::new(StreamAnalyzer::new(&spec)));
        }
        let t = Instant::now();
        sw.run_until(t_end);
        let s = t.elapsed().as_secs_f64();
        black_box(sw.events_dispatched());
        s
    };
    let (mut plain, mut canonical, mut observed, mut split) = (vec![], vec![], vec![], vec![]);
    for _ in 0..3 {
        let mut w = World::new(seed);
        build_chain(&mut w, seed, &small);
        w.trace_mut().set_enabled(false);
        let t = Instant::now();
        w.run_until(t_end);
        plain.push(t.elapsed().as_secs_f64());
        black_box(w.events_dispatched());
        drop(w);
        canonical.push(sharded(1, false));
        observed.push(sharded(1, true));
        split.push(sharded(shards, false));
    }
    out.set(
        "net.canonical_tax_frac",
        fastest(&canonical) / fastest(&plain) - 1.0,
    );
    out.set(
        "net.observer_tax_frac",
        fastest(&observed) / fastest(&canonical) - 1.0,
    );
    out.set("net.shard_speedup", fastest(&canonical) / fastest(&split));
}

/// One fig45 dumbbell run to its end, `World::run_until` only.
fn dumbbell_run(seed: u64, secs: u64, trace: bool) -> (Run, f64) {
    let mut sc = fig45::scenario(seed, secs, 20);
    sc.record_trace = trace;
    let mut run = sc.build();
    let t = Instant::now();
    sc.finish(&mut run);
    (run, t.elapsed().as_secs_f64())
}

/// The fig45 dumbbell with trace off, trace on, and a deadline armed;
/// returns the traced run for the analysis probe.
fn net_dumbbell(seed: u64, smoke: bool, out: &mut Outcome) -> Run {
    let secs = if smoke { 60 } else { 1000 };
    let (mut off, mut on, mut armed) = (vec![], vec![], vec![]);
    let mut events = 0u64;
    let mut traced = None;
    for _ in 0..3 {
        let (run, s) = dumbbell_run(seed, secs, false);
        events = run.world.events_dispatched();
        off.push(s);
        let (run, s) = dumbbell_run(seed, secs, true);
        on.push(s);
        traced = Some(run);
        let _guard = td_net::deadline::arm_for(Duration::from_secs(3600));
        armed.push(dumbbell_run(seed, secs, false).1);
    }
    let traced = traced.expect("the loop ran");
    out.set(
        "net.run_ns_per_event.dumbbell",
        fastest(&off) * 1e9 / events.max(1) as f64,
    );
    out.set("net.trace_tax_frac", fastest(&on) / fastest(&off) - 1.0);
    out.set(
        "net.deadline_tax_frac",
        fastest(&armed) / fastest(&off) - 1.0,
    );

    let audit = traced.world.audit();
    out.set("net.delivered", audit.delivered() as f64);
    out.set("net.dropped", audit.dropped() as f64);
    out.set("net.audit_violations", audit.total_violations() as f64);
    let senders = traced.senders.values().filter_map(|&ep| {
        let any = traced.world.endpoint(ep)?.as_any();
        Some(any.downcast_ref::<TcpSender>()?.stats())
    });
    let (retx, timeouts) = senders.fold((0, 0), |(r, t), s| (r + s.retransmits, t + s.timeouts));
    out.set("core.retransmits", retx as f64);
    out.set("core.timeouts", timeouts as f64);

    out.set(
        "net.discipline_ns_per_pkt",
        discipline_ns_per_pkt(seed, smoke),
    );
    traced
}

/// Drop-tail admit / enqueue / dequeue at a steady 20-packet backlog, as
/// boxed as the world holds it.
fn discipline_ns_per_pkt(seed: u64, smoke: bool) -> f64 {
    let pkts: u64 = if smoke { 20_000 } else { 2_000_000 };
    let mut d = DisciplineKind::DropTail.build();
    let mut rng = SimRng::new(seed);
    let pkt = |i: u64| Packet {
        id: PacketId(i),
        conn: ConnId((i % 2) as u32),
        kind: [PacketKind::Data, PacketKind::Ack][(i % 2) as usize],
        seq: i,
        ack: 0,
        size: 500,
        src: NodeId(0),
        dst: NodeId(1),
        sent_at: SimTime::ZERO,
        retx: false,
        ce: false,
    };
    for i in 0..20 {
        d.enqueue(pkt(i));
    }
    let t = Instant::now();
    for i in 20..20 + pkts {
        let p = pkt(i);
        if d.admit(&p, d.len() as u32, &mut rng) {
            d.enqueue(p);
        }
        black_box(d.dequeue());
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(d.len());
    ns / pkts as f64
}

// ------------------------------------------------------------------ core

/// A boxed congestion-control state machine under a seeded ACK / loss
/// script: mostly ACKs, a fast-retransmit episode every ~64 events, a
/// timeout every ~1024.
fn cc_ns_per_ack(kind: CcKind, events: u64, seed: u64) -> f64 {
    let mut cc = kind.build(1000);
    let mut rng = SimRng::new(seed);
    let mut acc = 0u64;
    let t = Instant::now();
    for _ in 0..events {
        match rng.next_below(1024) {
            0 => cc.on_loss(LossKind::Timeout),
            1..=16 => {
                cc.on_dupack();
                cc.on_dupack();
                cc.on_loss(LossKind::DupAck);
                cc.on_recovery_ack();
            }
            _ => cc.on_ack(),
        }
        acc = acc.wrapping_add(cc.window());
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / events as f64
}

fn rtt_ns_per_sample(samples: u64, seed: u64) -> f64 {
    let mut est = RttEstimator::new(RtoConfig::default());
    let mut rng = SimRng::new(seed);
    let mut acc = 0u64;
    let t = Instant::now();
    for i in 0..samples {
        est.sample(SimDuration::from_micros(100_000 + rng.next_below(50_000)));
        if i % 1024 == 0 {
            est.on_timeout();
        }
        acc = acc.wrapping_add(est.rto().as_nanos());
    }
    let ns = t.elapsed().as_nanos() as f64;
    black_box(acc);
    ns / samples as f64
}

fn core(seed: u64, smoke: bool, out: &mut Outcome) {
    let n = if smoke { 100_000 } else { 5_000_000 };
    let tahoe = CcKind::Tahoe {
        rule: IncrementRule::Modified,
    };
    out.set("core.cc_ns_per_ack.tahoe", cc_ns_per_ack(tahoe, n, seed));
    out.set(
        "core.cc_ns_per_ack.reno",
        cc_ns_per_ack(CcKind::Reno, n, seed),
    );
    out.set("core.rtt_ns_per_sample", rtt_ns_per_sample(n, seed));
}

// -------------------------------------------------------------- analysis

/// Batch extractors, the classification on top of them, and the same
/// records replayed through the streaming folds, over the recorded fig45
/// trace.
fn analysis(run: &Run, smoke: bool, out: &mut Outcome) {
    let trace = run.world.trace();
    let records = trace.len().max(1) as f64;
    let (b12, b21) = (run.bottleneck_12, run.bottleneck_21);
    let (c1, c2) = (run.fwd[0], run.rev[0]);
    let reps = if smoke { 1 } else { 3 };
    out.set("analysis.trace_records", trace.len() as f64);

    let batch = median_secs(reps, || {
        black_box((
            queue_series(trace, b12).len(),
            queue_series(trace, b21).len(),
            cwnd_series(trace, c1).len(),
            cwnd_series(trace, c2).len(),
            drop_events(trace).len(),
            utilization_in(trace, b12, run.t0, run.t1),
            departures(trace, b12).len(),
        ));
    });
    out.set("analysis.batch_ns_per_record", batch * 1e9 / records);

    let q1 = queue_series(trace, b12);
    let (cw1, cw2) = (cwnd_series(trace, c1), cwnd_series(trace, c2));
    let drops = drop_events(trace);
    let classify = median_secs(reps + 2, || {
        black_box((
            detect_epochs(&drops, SimDuration::from_secs(4)).len(),
            dominant_period(&q1, run.t0, run.t1, 800, 0.3),
            classify_sync(&cw1, &cw2, run.t0, run.t1, 800, 5, 0.15),
        ));
    });
    out.set("analysis.classify_s", classify);

    let spec = StreamSpec::new()
        .queue(b12)
        .queue(b21)
        .cwnd(c1)
        .cwnd(c2)
        .drops()
        .utilization(b12, run.t0, run.t1)
        .departures(b12);
    let stream = median_secs(reps, || {
        let mut an = StreamAnalyzer::new(&spec);
        for r in trace.records() {
            an.on_record(r.t, &r.ev);
        }
        black_box(an.finish().drops().len());
    });
    out.set("analysis.stream_ns_per_record", stream * 1e9 / records);
}

// ----------------------------------------------------------- experiments

fn quick_pass(entries: &[Entry], seed: u64, jobs: usize) -> BatchResult {
    let cfg = RunnerConfig {
        jobs,
        profile: Profile::Quick,
        master_seed: seed,
        replicates: 1,
        progress: false,
        interrupt: None,
    };
    run_batch(entries, &cfg)
}

/// The registry at quick profile through `run_batch`, at `jobs = 1` and
/// at `jobs = nproc`, and every result appended to a fresh journal.
fn experiments(seed: u64, smoke: bool, out: &mut Outcome) -> Result<BatchResult, String> {
    let entries: Vec<Entry> = if smoke {
        TIMED_ENTRIES
            .iter()
            .map(|id| find(id).ok_or_else(|| format!("registry lost entry {id}")))
            .collect::<Result<_, _>>()?
    } else {
        registry()
    };
    let serial = quick_pass(&entries, seed, 1);
    let parallel = quick_pass(&entries, seed, crate::host::cores());
    for id in TIMED_ENTRIES {
        let wall = serial
            .results
            .iter()
            .find(|r| r.id == id)
            .map(|r| r.timing.wall_s)
            .ok_or_else(|| format!("registry lost entry {id}"))?;
        out.set(declared("experiments.entry_s.", id)?, wall);
    }
    let in_entries: f64 = serial.results.iter().map(|r| r.timing.wall_s).sum();
    out.set(
        "experiments.runner_overhead_s",
        serial.total_wall_s - in_entries,
    );
    out.set(
        "experiments.jobs_speedup",
        serial.total_wall_s / parallel.total_wall_s,
    );
    let rows: usize = serial.results.iter().map(|r| r.report.rows.len()).sum();
    let out_of_band: usize = serial
        .results
        .iter()
        .map(|r| r.report.failures().len())
        .sum();
    out.set("experiments.rows", rows as f64);
    out.set("experiments.rows_out_of_band", out_of_band as f64);
    out.set("experiments.panicked", serial.panics().len() as f64);
    // The probes restore the sequential pin `run_batch` just replaced.
    td_experiments::sweep::budget().configure(0);

    let dir = crate::host::ScratchDir::create("journal").map_err(|e| e.to_string())?;
    let header = JournalHeader {
        master_seed: seed,
        profile: Profile::Quick,
        replicates: 1,
        ids: entries.iter().map(|e| e.id.to_owned()).collect(),
    };
    let mut journal = Journal::create(dir.path(), &header).map_err(|e| e.to_string())?;
    let mut appends = Vec::new();
    for r in &serial.results {
        let t = Instant::now();
        journal.append(r).map_err(|e| e.to_string())?;
        appends.push(t.elapsed().as_secs_f64() * 1e6);
    }
    out.set("experiments.journal_append_us", median(&appends));
    Ok(serial)
}

// ----------------------------------------------------------------- serve

/// One daemon lifetime, one round: every `serve.*` metric.
fn serve_probe(seed: u64, smoke: bool, td_serve: &Path, out: &mut Outcome) -> Result<(), String> {
    let sz = if smoke {
        serve::Sizes::SMOKE
    } else {
        serve::Sizes::FULL
    };
    let run = serve::run(
        td_serve,
        seed,
        &serve::Sizes { boots: 1, ..sz },
        serve::Rounds::Exactly(1),
        None,
    )?;
    out.attempted += run.attempted;
    out.failed += run.failed;
    let s = &run.samples;
    out.set("serve.boot_s", median(&run.boot_s));
    out.set("serve.ping_p50_us", median(&s.ping_us));
    let hit_small = median(&s.hit_small_us);
    let hit_large = median(&s.hit_large_us);
    out.set("serve.hit_small_p50_us", hit_small);
    out.set("serve.hit_small_p99_us", tail(&s.hit_small_us).1);
    out.set("serve.hit_large_p50_us", hit_large);
    out.set("serve.hit_large_p90_us", tail(&s.hit_large_us).1);
    let miss_mid = median(&s.miss_mid_ms);
    out.set("serve.miss_p50_ms", miss_mid);
    out.set("serve.miss_large_p50_ms", median(&s.miss_large_ms));
    out.set("serve.recompute_p50_ms", median(&s.recompute_ms));
    out.set("serve.connect_p50_ms", median(&s.connect_ms));
    out.set("serve.hit_req_per_s", median(&s.hit_req_per_s));
    out.set("serve.miss_cells_per_s", median(&s.miss_cells_per_s));
    let (small_b, large_b) = run.cell_bytes;
    let kib = large_b.saturating_sub(small_b).max(1) as f64 / 1024.0;
    out.set("serve.hit_us_per_kib", (hit_large - hit_small) / kib);
    out.set("serve.store_bytes_per_cell.small", small_b as f64);
    out.set("serve.store_bytes_per_cell.large", large_b as f64);
    out.set(
        "serve.verify_cells_per_s",
        run.verify.0 as f64 / run.verify.1,
    );
    out.set("serve.drain_s", run.drain_s);
    out.set("serve.daemon_peak_rss_mib", run.vm_hwm_kib as f64 / 1024.0);
    out.set("serve.requests_sent", run.attempted as f64);
    out.set("serve.requests_failed", run.failed as f64);
    for (name, value) in run.stats.fields() {
        out.set(declared("serve.stats.", name)?, value as f64);
    }

    // What the daemon adds to a miss: the same mid cells computed
    // in-process, subtracted from the latency its client saw.
    let multihop = find("multihop").ok_or("registry lost entry multihop")?;
    let in_process: Vec<f64> = run
        .mid_seeds
        .iter()
        .take(s.miss_mid_ms.len())
        .map(|&cell_seed| {
            let t = Instant::now();
            black_box(multihop.run(cell_seed, Profile::Quick).rows.len());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    out.set("serve.miss_overhead_ms", miss_mid - median(&in_process));
    Ok(())
}
