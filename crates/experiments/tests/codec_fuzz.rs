//! Property fuzz over every on-disk codec: damaged input must come
//! back as a structured error (or a clean parse), never a panic, an
//! absurd allocation, or a hang.
//!
//! Every format is attacked from a valid baseline produced by the real
//! encoder:
//!
//! * **TDCE** cell files ([`decode_cell_file`]) — the one durable cell
//!   format, written by `td-serve` and by `td-repro --out`;
//! * the **sweep header** (`cells/sweep.tdh`, [`decode_header`]),
//!   sealed like a cell file;
//! * **TDQP**, `td-serve`'s `pending.tdq` (`decode_pending_file`),
//!   sealed like a cell file;
//! * **TDSN** serial world snapshots ([`Snapshot::from_bytes`]);
//! * **TDSW** sharded world snapshots ([`ShardSnapshot::from_bytes`]);
//! * **TDMC** model-checking schedules ([`McSchedule::from_bytes`]).
//!
//! Damage is seeded ([`SimRng`]) bit flips and truncations, so a
//! failure reproduces exactly. The assertions are deliberately weak —
//! `Ok` or `Err` — where a format has no checksum, because the property
//! under test is "hostile bytes cannot crash the process", not any
//! particular diagnosis. The checksummed formats must reject *every*
//! single-byte flip and every truncation.

use td_engine::{SimDuration, SimRng, SimTime};
use td_experiments::journal::{decode_header, encode_header, JournalHeader};
use td_experiments::registry::Profile;
use td_experiments::store::{decode_cell_file, encode_cell_file, CellData, CellKey};
use td_experiments::{ConnSpec, Report, Scenario};
use td_net::mc::{Decision, McSchedule};
use td_net::{ChannelId, ShardSnapshot, ShardedWorld, Snapshot};

/// Rounds of random damage per (baseline, attack) pair. Kept modest:
/// the suites run under `cargo test -q` in tier-1.
const FLIP_ROUNDS: u64 = 300;
const TRUNC_ROUNDS: u64 = 120;

const KEY: CellKey = CellKey {
    config_hash: 0x5eed_cafe,
    seed: 42,
};

fn sample_cell_file() -> Vec<u8> {
    let mut rep = Report::new("fig8", "fuzz baseline", "cfg");
    rep.check("metric", "paper", "ours".into(), true);
    rep.plots.push("ascii\nart".into());
    rep.csvs.push(("d.csv".into(), "a,b\n1,2\n".into()));
    rep.blobs.push(("t.bin".into(), vec![0, 1, 254, 255]));
    rep.metric("throughput", 0.75);
    rep.diagnostic("note".into());
    encode_cell_file(
        KEY,
        &CellData {
            experiment: "fig8".into(),
            profile: Profile::Quick,
            report: rep,
        },
    )
}

fn sample_header_file() -> Vec<u8> {
    encode_header(&JournalHeader {
        master_seed: 7,
        profile: Profile::Full,
        replicates: 3,
        ids: vec!["fig8".into(), "short-flows".into(), "scale".into()],
    })
}

/// Flip one random bit; returns the mutated copy.
fn flip(bytes: &[u8], rng: &mut SimRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = rng.next_below(out.len() as u64) as usize;
    out[at] ^= 1 << rng.next_below(8);
    out
}

/// A checksummed file: every seeded single-byte change and every
/// truncation is an `Err`, and compound damage never panics.
fn fuzz_sealed<T, E>(
    tag: &str,
    baseline: &[u8],
    seed: u64,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) {
    assert!(
        decode(baseline).is_ok(),
        "{tag}: pristine baseline must decode"
    );
    let mut rng = SimRng::new(seed);
    for _ in 0..FLIP_ROUNDS {
        let at = rng.next_below(baseline.len() as u64) as usize;
        let mut damaged = baseline.to_vec();
        damaged[at] ^= 1 + rng.next_below(255) as u8;
        assert!(
            decode(&damaged).is_err(),
            "{tag}: the trailer must catch a changed byte at {at}"
        );
        let mut multi = baseline.to_vec();
        for _ in 0..=rng.next_below(8) {
            let at = rng.next_below(multi.len() as u64) as usize;
            multi[at] ^= 1 << rng.next_below(8);
        }
        let _ = decode(&multi);
    }
    for _ in 0..TRUNC_ROUNDS {
        let cut = rng.next_below(baseline.len() as u64) as usize;
        assert!(
            decode(&baseline[..cut]).is_err(),
            "{tag}: truncation to {cut} bytes must be rejected"
        );
    }
}

#[test]
fn cell_files_reject_every_flip_and_truncation() {
    fuzz_sealed("TDCE", &sample_cell_file(), 0xF023, |b| {
        decode_cell_file(b, Some(KEY))
    });
}

#[test]
fn sweep_headers_reject_every_flip_and_truncation() {
    fuzz_sealed("sweep header", &sample_header_file(), 0xF027, decode_header);
}

#[cfg(unix)]
#[test]
fn pending_queues_reject_every_flip_and_truncation() {
    use td_serve::proto::SimulateReq;
    use td_serve::server::{decode_pending_file, encode_pending_file};
    let queue = [
        SimulateReq {
            experiment: "fig8".into(),
            seed: 7,
            profile: Profile::Full,
            deadline_ms: None,
            priority: 9,
            overrides: vec![("sim_secs".into(), 30)],
        },
        SimulateReq {
            experiment: "fig2".into(),
            seed: 1,
            profile: Profile::Quick,
            deadline_ms: None,
            priority: 0,
            overrides: Vec::new(),
        },
    ];
    let file = encode_pending_file(queue.iter());
    fuzz_sealed("TDQP", &file, 0xF022, decode_pending_file);
}

fn fuzz_binary<Dec>(tag: &str, baseline: &[u8], seed: u64, decode: Dec)
where
    Dec: Fn(&[u8]) -> Result<(), String>,
{
    assert!(
        decode(baseline).is_ok(),
        "{tag}: pristine baseline must decode"
    );
    let mut rng = SimRng::new(seed);
    for round in 0..FLIP_ROUNDS {
        let _ = decode(&flip(baseline, &mut rng));
        // Compound damage too: up to 8 flips at once.
        if round % 4 == 0 {
            let mut multi = baseline.to_vec();
            for _ in 0..=rng.next_below(8) {
                let at = rng.next_below(multi.len() as u64) as usize;
                multi[at] ^= 1 << rng.next_below(8);
            }
            let _ = decode(&multi);
        }
    }
    for _ in 0..TRUNC_ROUNDS {
        let cut = rng.next_below(baseline.len() as u64) as usize;
        let _ = decode(&baseline[..cut]);
    }
    // The headline truncations: empty, magic only, magic + version.
    for cut in [0usize, 4, 8] {
        assert!(
            decode(&baseline[..cut.min(baseline.len())]).is_err(),
            "{tag}: header truncation to {cut} bytes must be rejected"
        );
    }
    // Wrong magic must be rejected outright.
    let mut wrong = baseline.to_vec();
    wrong[..4].copy_from_slice(b"NOPE");
    assert!(decode(&wrong).is_err(), "{tag}: bad magic must be rejected");
}

#[test]
fn world_snapshots_never_panic_under_damage() {
    // A real two-way paper scenario, un-run: start events scheduled,
    // every subsystem serialized.
    let mut sc = Scenario::paper(SimDuration::from_millis(10), Some(20))
        .with_fwd(2, ConnSpec::paper())
        .with_rev(1, ConnSpec::paper());
    sc.seed = 31;
    sc.duration = SimDuration::from_secs(40);
    sc.warmup = SimDuration::from_secs(10);
    let run = sc.build();
    let snap = run.world.snapshot();
    fuzz_binary("TDSN", snap.as_bytes(), 0xF024, |b| {
        Snapshot::from_bytes(b.to_vec())
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
}

#[test]
fn sharded_snapshots_never_panic_under_damage() {
    let sw = ShardedWorld::build(7, 2, |_w| {});
    let snap = sw.snapshot();
    fuzz_binary("TDSW", snap.as_bytes(), 0xF025, |b| {
        ShardSnapshot::from_bytes(b.to_vec())
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
}

#[test]
fn mc_schedules_never_panic_under_damage() {
    let sched = McSchedule {
        seed: 9,
        grid: (0..32).map(|i| SimTime::from_millis(50 * i)).collect(),
        horizon: SimTime::from_secs(2),
        seeded_violation: true,
        decisions: vec![
            (0, Decision::Skip),
            (
                3,
                Decision::Outage {
                    ch: ChannelId(1),
                    duration: SimDuration::from_millis(80),
                },
            ),
            (7, Decision::Drop { ch: ChannelId(0) }),
        ],
    };
    let bytes = sched.to_bytes();
    fuzz_binary("TDMC", &bytes, 0xF026, |b| {
        McSchedule::from_bytes(b)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
}
