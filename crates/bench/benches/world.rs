//! Sharded-world benchmarks: the scale-experiment cluster chain executed
//! serially and at 2/4 shards, plus the canonical-mode overhead of the
//! 1-shard path against a plain serial [`td_net::World`].
//!
//! Emits `BENCH_world.json` (override with `TD_BENCH_JSON`). The schema-2
//! document records the host's core count and each bench's worker-thread
//! count as structured fields — a sharded run can only beat serial when
//! the shards have real cores to land on, so the JSON is meaningless
//! without them. On a single-core host the sharded variants measure pure
//! protocol overhead (thread handoff, horizon publishing, merged
//! meters), not speedup; that is still worth pinning, because the
//! overhead must stay bounded for the multi-core win to exist. The CI
//! `bench-world` job regenerates this file on a multi-core runner and
//! gates on the shards=4 line beating serial by ≥1.5× when ≥4 cores are
//! present.

use std::hint::black_box;
use td_bench::Harness;
use td_engine::SimTime;
use td_experiments::scale::{build_chain, ScaleParams};
use td_net::{ShardedWorld, World};

/// Chain dimensions for the benchmark: big enough that event dispatch
/// dominates (hundreds of connections, tens of switches), small enough
/// for a few samples per second.
fn bench_params() -> ScaleParams {
    ScaleParams {
        clusters: 4,
        conns_per_cluster: 24,
        inter_conns: 4,
        duration_s: 10,
        trace: false,
    }
}

/// The scale chain at each shard count. Identical work by construction —
/// the executor guarantees byte-identical results — so the lines compare
/// wall-clock only.
fn scale_chain(c: &mut Harness) {
    let p = bench_params();
    let t_end = SimTime::from_secs(p.duration_s);
    for shards in [1u32, 2, 4] {
        let name = format!(
            "world/scale-chain {}x{} {}s shards={}",
            p.clusters, p.conns_per_cluster, p.duration_s, shards,
        );
        c.bench_function_threads(&name, shards, |b| {
            b.iter(|| {
                let mut sw = ShardedWorld::build(7, shards, |w| {
                    build_chain(w, 7, &p);
                });
                sw.set_trace_enabled(false);
                sw.run_until(t_end);
                black_box(sw.events_dispatched())
            });
        });
    }
}

/// Canonical-mode tax: the 1-shard executor runs the same topology as a
/// plain serial `World`, but with content-derived event keys and
/// per-channel RNG streams (the price of shard invariance). The serial
/// line is the floor it is measured against.
fn canonical_overhead(c: &mut Harness) {
    let p = bench_params();
    let t_end = SimTime::from_secs(p.duration_s);
    c.bench_function(
        &format!(
            "world/scale-chain {}x{} {}s serial legacy",
            p.clusters, p.conns_per_cluster, p.duration_s,
        ),
        |b| {
            b.iter(|| {
                let mut w = World::new(7);
                build_chain(&mut w, 7, &p);
                w.trace_mut().set_enabled(false);
                w.run_until(t_end);
                black_box(w.events_dispatched())
            });
        },
    );
}

/// Route-table construction on a 64-cluster chain (320 switches × 256
/// hosts): BFS plus run-length compression and default elision, no
/// traffic attached. This is the per-replica build cost every shard pays
/// at the 100k/1M rungs, so its growth rate matters as much as dispatch.
fn route_build(c: &mut Harness) {
    let p = ScaleParams {
        clusters: 64,
        conns_per_cluster: 0,
        inter_conns: 0,
        duration_s: 1,
        trace: false,
    };
    c.bench_function("world/compute-routes 64-cluster chain", |b| {
        b.iter(|| {
            let mut w = World::new(7);
            build_chain(&mut w, 7, &p);
            black_box(w.route_table_bytes())
        });
    });
}

fn main() {
    let mut c = Harness::new();
    scale_chain(&mut c);
    canonical_overhead(&mut c);
    route_build(&mut c);
    let json_path = std::env::var("TD_BENCH_JSON").unwrap_or_else(|_| "BENCH_world.json".into());
    if let Err(e) = c.write_json(std::path::Path::new(&json_path)) {
        eprintln!("could not write {json_path}: {e}");
    }
    c.finish();
}
