//! Kill-and-resume: crash a sweep mid-flight, resume it, and demand the
//! outputs be byte-identical to an uninterrupted run.
//!
//! Drives the real `td-repro` binary. The crash is injected with
//! `TD_REPRO_KILL_AFTER_CELLS=1`: the process calls `abort()` the
//! instant the first cell is durable in `DIR/cells/` — the harshest
//! possible crash point, with workers mid-experiment and no output
//! files written. `--resume` must then replay the stored cell, run only
//! the missing ones, and reproduce the clean run's stdout and every
//! output file byte-for-byte, the cell store included. Only
//! `timings.json` (wall-clock noise) is excluded from the comparison.
//!
//! The store's own rules stand in for the journal salvage they replaced:
//! a damaged cell is quarantined and recomputed, a fresh `--out` never
//! replays a cell it did not write, and `--resume` clears the temp files
//! of a writer killed mid-write.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use td_experiments::registry::config_hash;
use td_experiments::store::{decode_cell_file, encode_cell_file, CellKey};

const EXE: &str = env!("CARGO_BIN_EXE_td-repro");

/// The sweep every test runs: two quick entries at seed 7.
const SWEEP: [&str; 6] = ["fig8", "short-flows", "--seed", "7", "--jobs", "2"];

/// Files excluded from the byte-for-byte diff: wall-clock-bearing
/// observability.
fn excluded(name: &str) -> bool {
    name == "timings.json"
}

fn run_repro(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(EXE);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn td-repro")
}

/// `SWEEP --out dir`, which must succeed.
fn clean_sweep(dir: &Path) -> Output {
    let out = run_repro(
        &[&SWEEP[..], &["--out", dir.to_str().unwrap()]].concat(),
        &[],
    );
    assert!(
        out.status.success(),
        "clean run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// `SWEEP --out dir`, aborted right after its first stored cell.
fn killed_sweep(dir: &Path) {
    let out = run_repro(
        &[&SWEEP[..], &["--out", dir.to_str().unwrap()]].concat(),
        &[("TD_REPRO_KILL_AFTER_CELLS", "1")],
    );
    assert!(
        !out.status.success(),
        "kill hook should have aborted the process"
    );
}

fn resume(dir: &Path) -> Output {
    let out = run_repro(&["--resume", dir.to_str().unwrap(), "--jobs", "2"], &[]);
    assert!(
        out.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// Every file under `dir`, by path relative to it.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read output dir") {
            let entry = entry.unwrap();
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type().unwrap().is_dir() {
                walk(root, &path, out);
            } else if !excluded(&name) {
                let rel = path.strip_prefix(root).unwrap().to_string_lossy();
                out.insert(rel.into_owned(), std::fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

/// The stored cell files of a sweep's output directory.
fn cell_files(dir: &Path) -> Vec<PathBuf> {
    let mut cells: Vec<PathBuf> = std::fs::read_dir(dir.join("cells"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "tdc"))
        .collect();
    cells.sort();
    cells
}

fn assert_same_outputs(clean: &BTreeMap<String, Vec<u8>>, got: &BTreeMap<String, Vec<u8>>) {
    assert!(!clean.is_empty(), "clean run wrote no outputs");
    assert_eq!(
        clean.keys().collect::<Vec<_>>(),
        got.keys().collect::<Vec<_>>(),
        "output file sets differ"
    );
    for (name, bytes) in clean {
        assert!(
            bytes == &got[name],
            "{name} diverged between clean and resumed runs"
        );
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("td-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn killed_sweep_resumes_byte_identically() {
    let clean = tmp_dir("clean");
    let crash = tmp_dir("crash");

    let clean_out = clean_sweep(&clean);
    killed_sweep(&crash);
    assert!(
        crash.join("cells/sweep.tdh").is_file(),
        "crash left no sweep header behind"
    );
    assert!(
        !cell_files(&crash).is_empty(),
        "the killed sweep should have stored at least one cell"
    );

    // The recovery: --resume replays the stored cell and runs the rest.
    let resumed_out = resume(&crash);
    let resumed_err = String::from_utf8_lossy(&resumed_out.stderr);
    assert!(
        resumed_err.contains("resuming from"),
        "resume banner missing: {resumed_err}"
    );

    // Reports on stdout are byte-identical — replayed or executed, the
    // reader cannot tell the difference.
    assert_eq!(
        String::from_utf8_lossy(&clean_out.stdout),
        String::from_utf8_lossy(&resumed_out.stdout),
        "resumed stdout diverged from the uninterrupted run"
    );
    // Every output file (CSVs, blobs, SUMMARY.md, cells) is byte-identical.
    assert_same_outputs(&dir_contents(&clean), &dir_contents(&crash));

    // The resumed timings.json records the replay.
    let timings = std::fs::read_to_string(crash.join("timings.json")).unwrap();
    assert!(
        timings.contains("\"journal_replayed\": "),
        "timings.json missing replay telemetry: {timings}"
    );
    assert!(timings.contains("\"interrupted\": false"));

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&crash);
}

/// A damaged stored cell is quarantined and recomputed on resume; the
/// outputs still match the clean run, and the damage stays as evidence.
#[test]
fn damaged_cell_is_quarantined_and_recomputed() {
    let clean = tmp_dir("q-clean");
    let damaged = tmp_dir("q-damaged");
    let clean_out = clean_sweep(&clean);
    clean_sweep(&damaged);

    let victim = cell_files(&damaged).remove(0);
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(&victim, &bytes).unwrap();

    let resumed = resume(&damaged);
    assert_eq!(
        String::from_utf8_lossy(&clean_out.stdout),
        String::from_utf8_lossy(&resumed.stdout)
    );
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(err.contains("quarantined"), "{err}");
    let mut got = dir_contents(&damaged);
    let name = victim.file_name().unwrap().to_string_lossy();
    let evidence = got
        .remove(&format!("cells/quarantine/{name}"))
        .expect("the damaged cell moved to quarantine");
    assert!(evidence == bytes);
    assert_same_outputs(&dir_contents(&clean), &got);

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&damaged);
}

/// A fresh `--out` over a store holding a doctored, correctly
/// checksummed cell starts from an empty store: neither the killed run
/// nor its resume may print the doctored report.
#[test]
fn fresh_sweep_never_replays_a_doctored_cell() {
    let clean = tmp_dir("d-clean");
    let doctored = tmp_dir("d-doctored");
    let clean_out = clean_sweep(&clean);

    std::fs::create_dir_all(doctored.join("cells")).unwrap();
    for path in cell_files(&clean) {
        let (mut data, _) = decode_cell_file(&std::fs::read(&path).unwrap(), None).unwrap();
        // The key a sweep stores this cell under: the canonical run of
        // each entry has the master seed.
        let key = CellKey {
            config_hash: config_hash(&data.experiment, data.profile, &[]),
            seed: 7,
        };
        data.report.title = "DOCTORED".into();
        for row in &mut data.report.rows {
            row.measured = "DOCTORED".into();
        }
        let name = format!("cell-{:016x}-{:016x}.tdc", key.config_hash, key.seed);
        assert_eq!(path.file_name().unwrap().to_str(), Some(name.as_str()));
        std::fs::write(
            doctored.join("cells").join(name),
            encode_cell_file(key, &data),
        )
        .unwrap();
    }

    killed_sweep(&doctored);
    let resumed = resume(&doctored);
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        !stdout.contains("DOCTORED"),
        "a stale cell replayed: {stdout}"
    );
    assert_eq!(String::from_utf8_lossy(&clean_out.stdout), stdout);
    assert_same_outputs(&dir_contents(&clean), &dir_contents(&doctored));

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&doctored);
}

/// A second writer killed mid-write leaves `cell-….tdc.<pid>.<n>.tmp`
/// behind; `--resume` removes it.
#[test]
fn resume_removes_stale_temp_files() {
    let clean = tmp_dir("t-clean");
    let crash = tmp_dir("t-crash");
    clean_sweep(&clean);
    killed_sweep(&crash);

    let cell = cell_files(&crash).remove(0);
    let mut tmp = cell.clone().into_os_string();
    tmp.push(".4242.0.tmp");
    std::fs::write(&tmp, b"half a cell").unwrap();

    resume(&crash);
    assert!(
        !Path::new(&tmp).exists(),
        "stale temp file survived --resume"
    );
    assert_same_outputs(&dir_contents(&clean), &dir_contents(&crash));

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&crash);
}

/// `--resume` takes seed, profile, replicates and output directory from
/// the sweep's header, so a flag that would set one of them is refused
/// by name (exit 2) before anything runs, instead of being ignored.
/// `--jobs`, `--shards` and `--timings` still apply.
#[test]
fn resume_refuses_flags_the_header_sets() {
    let dir = tmp_dir("flags");
    clean_sweep(&dir);
    let before = dir_contents(&dir);
    let other = tmp_dir("flags-other");
    let other = other.to_str().unwrap();
    for flag in [
        &["--seed", "9"][..],
        &["--seeds", "2"],
        &["--full"],
        &["--quick"],
        &["--profile", "full"],
        &["--out", other],
    ] {
        let out = run_repro(&[&["--resume", dir.to_str().unwrap()], flag].concat(), &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag:?} was accepted: {stderr}"
        );
        assert!(
            stderr.contains(flag[0]),
            "{flag:?}: error does not name it: {stderr}"
        );
    }
    assert!(!Path::new(other).exists(), "a refused --out was written");
    assert_same_outputs(&before, &dir_contents(&dir));

    let timings = dir.join("resumed-timings.json");
    let out = run_repro(
        &[
            "--resume",
            dir.to_str().unwrap(),
            "--jobs",
            "1",
            "--shards",
            "2",
            "--timings",
            timings.to_str().unwrap(),
        ],
        &[],
    );
    assert!(
        out.status.success(),
        "--jobs/--shards/--timings with --resume failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(timings.exists(), "--timings ignored under --resume");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `bytes` as an older build sealed them: header version 1 and a
/// byte-wise FNV-1a trailer.
fn sealed_as_v1(bytes: &[u8]) -> Vec<u8> {
    let mut payload = bytes[..bytes.len() - 8].to_vec();
    payload[4..8].copy_from_slice(&1u32.to_le_bytes());
    let check = td_engine::fnv1a(&payload);
    payload.extend_from_slice(&check.to_le_bytes());
    payload
}

/// A sweep an older build wrote: `--resume` refuses its v1 header by
/// name and asks for a rerun, and a v1 cell under a current header is
/// quarantined by name and recomputed.
#[test]
fn v1_header_is_refused_and_v1_cell_recomputed() {
    let clean = tmp_dir("v1-clean");
    let old = tmp_dir("v1-old");
    let clean_out = clean_sweep(&clean);
    clean_sweep(&old);

    let header = old.join("cells/sweep.tdh");
    let current = std::fs::read(&header).unwrap();
    std::fs::write(&header, sealed_as_v1(&current)).unwrap();
    let out = run_repro(&["--resume", old.to_str().unwrap()], &[]);
    assert!(!out.status.success(), "a v1 header must be refused");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("sweep header format v1; this build reads v2: rerun the sweep"),
        "{err}"
    );

    std::fs::write(&header, &current).unwrap();
    let victim = cell_files(&old).remove(0);
    let v1 = sealed_as_v1(&std::fs::read(&victim).unwrap());
    std::fs::write(&victim, &v1).unwrap();
    let resumed = resume(&old);
    assert_eq!(
        String::from_utf8_lossy(&clean_out.stdout),
        String::from_utf8_lossy(&resumed.stdout)
    );
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        err.contains("quarantined it (cell format v1; this build reads v2)"),
        "{err}"
    );
    let mut got = dir_contents(&old);
    let name = victim.file_name().unwrap().to_string_lossy();
    assert!(got.remove(&format!("cells/quarantine/{name}")) == Some(v1));
    assert_same_outputs(&dir_contents(&clean), &got);

    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&old);
}
