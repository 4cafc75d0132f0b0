//! Property fuzz over every on-disk codec: damaged input must come
//! back as a structured error (or a clean parse), never a panic, an
//! absurd allocation, or a hang.
//!
//! Four formats are attacked, each from a valid baseline produced by
//! the real encoder:
//!
//! * **TDJL journal lines** — the text layer (`hex payload + checksum`)
//!   and the binary cell payload inside it, including lines rewritten
//!   to claim versions v1/v2 (the read-compat surface) and absurd ones;
//! * **TDSN** serial world snapshots ([`Snapshot::from_bytes`]);
//! * **TDSW** sharded world snapshots ([`ShardSnapshot::from_bytes`]);
//! * **TDMC** model-checking schedules ([`McSchedule::from_bytes`]).
//!
//! Damage is seeded ([`SimRng`]) bit flips and truncations, so a
//! failure reproduces exactly. The assertions are deliberately weak —
//! `Ok` or `Err`, with a handful of cases where damage *must* be
//! detected (checksum layer, truncation) — because the property under
//! test is "hostile bytes cannot crash the process", not any
//! particular diagnosis.

use td_engine::{SimDuration, SimRng, SimTime};
use td_experiments::journal::{decode_cell, decode_checked_line, encode_cell, encode_checked_line};
use td_experiments::runner::{ExperimentResult, Timing};
use td_experiments::{ConnSpec, Report, Scenario};
use td_net::mc::{Decision, McSchedule};
use td_net::{ChannelId, ShardSnapshot, ShardedWorld, Snapshot};

/// Rounds of random damage per (baseline, attack) pair. Kept modest:
/// the suites run under `cargo test -q` in tier-1.
const FLIP_ROUNDS: u64 = 300;
const TRUNC_ROUNDS: u64 = 120;

fn sample_cell_bytes() -> Vec<u8> {
    let mut rep = Report::new("fig8", "fuzz baseline", "cfg");
    rep.check("metric", "paper", "ours".into(), true);
    rep.plots.push("ascii\nart".into());
    rep.csvs.push(("d.csv".into(), "a,b\n1,2\n".into()));
    rep.blobs.push(("t.bin".into(), vec![0, 1, 254, 255]));
    rep.metric("throughput", 0.75);
    rep.diagnostic("note".into());
    encode_cell(&ExperimentResult {
        id: "fig8",
        replicate: 3,
        seed: 42,
        report: rep,
        panic: Some("boom \"quoted\"".into()),
        timing: Timing {
            wall_s: 1.5,
            events_scheduled: 100,
            events_dispatched: 90,
            peak_queue_depth: 12,
            peak_rss_kib: 4096,
            peak_rss_is_process_max: false,
        },
        audit: Default::default(),
        meter: Default::default(),
        replayed: false,
    })
}

/// Flip one random bit; returns the mutated copy.
fn flip(bytes: &[u8], rng: &mut SimRng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    let at = rng.next_below(out.len() as u64) as usize;
    out[at] ^= 1 << rng.next_below(8);
    out
}

#[test]
fn journal_text_layer_rejects_any_character_damage() {
    let payload = sample_cell_bytes();
    let line = encode_checked_line(&payload);
    assert_eq!(decode_checked_line(&line).unwrap(), payload);

    let chars: Vec<char> = line.chars().collect();
    let mut rng = SimRng::new(0xF022);
    for _ in 0..FLIP_ROUNDS {
        // Replace one character with a random printable one.
        let at = rng.next_below(chars.len() as u64) as usize;
        let mut damaged = chars.clone();
        let repl = (b'!' + rng.next_below(93) as u8) as char;
        // Case-only changes aren't damage: hex parsing is
        // case-insensitive, so the payload and checksum are unchanged.
        if repl.eq_ignore_ascii_case(&damaged[at]) {
            continue;
        }
        damaged[at] = repl;
        let s: String = damaged.iter().collect();
        assert!(
            decode_checked_line(&s).is_err(),
            "single-character damage at {at} must fail the checksum"
        );
    }
    for _ in 0..TRUNC_ROUNDS {
        let cut = rng.next_below(line.len() as u64) as usize;
        assert!(
            decode_checked_line(&line[..cut]).is_err(),
            "truncation to {cut} chars must be rejected"
        );
    }
}

#[test]
fn journal_cell_payloads_never_panic_under_damage() {
    let baseline = sample_cell_bytes();
    assert!(decode_cell(&baseline).is_ok());

    let mut rng = SimRng::new(0xF023);
    for _ in 0..FLIP_ROUNDS {
        // Ok or Err both acceptable; the property is "no panic".
        let _ = decode_cell(&flip(&baseline, &mut rng));
    }
    for cut in 0..baseline.len() {
        assert!(
            decode_cell(&baseline[..cut]).is_err(),
            "truncation to {cut} bytes must be rejected"
        );
    }
    // Version field rewrites: the read-compat versions (1, 2) applied
    // to a v3 body, plus junk versions. Bytes 4..8 are the LE version.
    for version in [0u32, 1, 2, 4, 99, u32::MAX] {
        let mut relabeled = baseline.clone();
        relabeled[4..8].copy_from_slice(&version.to_le_bytes());
        let _ = decode_cell(&relabeled);
        for _ in 0..FLIP_ROUNDS / 6 {
            let _ = decode_cell(&flip(&relabeled, &mut rng));
        }
    }
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
