//! A sweep's durable record: what makes `td-repro --out` resumable.
//!
//! A sweep that dies three hours in — OOM kill, power cut, Ctrl-C —
//! should not cost three hours. `td-repro --out DIR` therefore saves
//! every finished `(experiment, replicate)` cell into the cell store
//! `DIR/cells/` ([`crate::store`], the format `td-serve` keeps its cache
//! in) the moment the cell finishes. `td-repro --resume DIR` reads the
//! sweep's header, re-derives every seed with the same
//! [`crate::runner::derive_seed`] discipline, and looks each cell up by
//! key: a hit replays, a miss runs, and a damaged cell is quarantined
//! and recomputed. The output is byte-identical to the uninterrupted
//! sweep's, because a report is a pure function of `(id, profile,
//! seed)` and seeds never depend on which cells survived the crash.
//!
//! # Layout
//!
//! * `DIR/cells/cell-<config_hash>-<seed>.tdc` — one TDCE file per
//!   stored cell, keyed by [`config_hash`]`(id, profile, &[])`. These
//!   are the bytes a daemon stores for the same request, so
//!   `td-serve serve --store DIR/cells` answers them as hits.
//! * `DIR/cells/sweep.tdh` — the header record: master seed, profile,
//!   replicate count and the exact id list, so `--resume` needs no flags
//!   beyond the directory. It is sealed like a cell file
//!   ([`SnapWriter::seal`]; magic `TDSH`) but lacks its extension, so
//!   `td-serve verify` skips it. A damaged header, or one of another
//!   version, cannot be resumed: the error asks for a rerun.
//!
//! A cell that panicked or tripped the invariant auditor is not stored
//! ([`crate::cell::store_policy`], which `td-serve` applies too), so a
//! resume reruns it and its panic message and audit tally reappear.
//! A stored cell carries no timing: a replayed one reports zero timing
//! and `replayed: true`.

use crate::registry::{config_hash, Profile};
use crate::report::{Report, Row};
use crate::runner::{ExperimentResult, Timing};
use crate::store::{CellData, CellKey, Lookup, Store};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use td_engine::{write_atomic, SnapError, SnapReader, SnapWriter};

/// Subdirectory of an output directory that holds the sweep's cells.
const CELLS_DIR: &str = "cells";
/// File name of the header record inside the sweep's cell store.
const HEADER_FILE: &str = "sweep.tdh";

/// Magic prefix of the header record's payload.
const HEADER_MAGIC: &[u8; 4] = b"TDSH";
/// Header record version: 2 since the trailer became
/// [`td_engine::fnv1a_lanes`].
const HEADER_VERSION: u32 = 2;

/// Crash-injection hook for the kill-and-resume integration tests: when
/// `TD_REPRO_KILL_AFTER_CELLS=N` is set, the process aborts immediately
/// after the N-th stored cell — after the cell is durable, before the
/// runner can do anything else — simulating a crash at the worst moment.
static APPENDS: AtomicU64 = AtomicU64::new(0);

fn kill_hook_after_append() {
    static LIMIT: std::sync::OnceLock<Option<u64>> = std::sync::OnceLock::new();
    let limit = LIMIT.get_or_init(|| {
        std::env::var("TD_REPRO_KILL_AFTER_CELLS")
            .ok()
            .and_then(|v| v.parse().ok())
    });
    if let Some(n) = limit {
        if APPENDS.fetch_add(1, Ordering::SeqCst) + 1 >= *n {
            eprintln!("TD_REPRO_KILL_AFTER_CELLS={n}: simulating crash");
            std::process::abort();
        }
    }
}

/// The batch configuration recorded in the sweep's header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalHeader {
    /// Master seed of the sweep.
    pub master_seed: u64,
    /// Profile every entry ran with.
    pub profile: Profile,
    /// Replicates per experiment.
    pub replicates: u64,
    /// Experiment ids, in the exact order the sweep executes them.
    pub ids: Vec<String>,
}

/// A sweep's handle on its cell store.
pub struct Journal {
    store: Store,
    profile: Profile,
}

impl Journal {
    /// Start a fresh sweep in `dir`: empty `dir/cells/`, so a fresh sweep
    /// never replays a stale cell, and write the header record durably.
    pub fn create(dir: &Path, header: &JournalHeader) -> io::Result<Journal> {
        let cells = dir.join(CELLS_DIR);
        match std::fs::remove_dir_all(&cells) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
            _ => {}
        }
        let store = Store::open(&cells)?;
        write_atomic(&cells.join(HEADER_FILE), &encode_header(header))?;
        Ok(Journal {
            store,
            profile: header.profile,
        })
    }

    /// Reopen the sweep in `dir` to resume it: its header, and a handle
    /// on its store with the temp files of writers killed mid-write
    /// removed.
    pub fn open(dir: &Path) -> io::Result<(Journal, JournalHeader)> {
        let cells = dir.join(CELLS_DIR);
        let path = cells.join(HEADER_FILE);
        let bytes = std::fs::read(&path).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!(
                    "{}: {e} (a sweep written by an older td-repro keeps a \
                     journal.tdj instead, which is no longer read: rerun the sweep)",
                    path.display()
                ),
            )
        })?;
        let header = decode_header(&bytes).map_err(|why| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {why}", path.display()),
            )
        })?;
        let store = Store::open(&cells)?;
        store.remove_tmp()?;
        let journal = Journal {
            store,
            profile: header.profile,
        };
        Ok((journal, header))
    }

    /// Store one finished cell durably, then fire the kill hook. The
    /// runner's workers share one journal and store through `&self`.
    pub fn append(&mut self, result: &ExperimentResult) -> io::Result<()> {
        self.record(result)
    }

    /// [`Journal::append`] through a shared reference: concurrent saves
    /// are safe, each one a file of its own. A cell the store policy
    /// refuses is not stored, so a resume reruns it.
    pub(crate) fn record(&self, result: &ExperimentResult) -> io::Result<()> {
        if crate::cell::store_policy(result.panic.as_deref(), &result.audit).is_err() {
            return Ok(());
        }
        let data = CellData {
            experiment: result.id.to_owned(),
            profile: self.profile,
            report: result.report.clone(),
        };
        self.store.save(self.key(result.id, result.seed), &data)?;
        kill_hook_after_append();
        Ok(())
    }

    /// The stored cell of `id` at `seed` as a replayed result, or `None`
    /// when it must run: no cell, or a damaged one the store has just
    /// quarantined.
    pub(crate) fn replay(
        &self,
        id: &'static str,
        replicate: u64,
        seed: u64,
    ) -> Option<ExperimentResult> {
        let why = match self.store.load(self.key(id, seed)) {
            Ok(Lookup::Hit(data, _)) => {
                return Some(ExperimentResult {
                    id,
                    replicate,
                    seed,
                    report: data.report,
                    panic: None,
                    timing: Timing::default(),
                    audit: Default::default(),
                    meter: Default::default(),
                    replayed: true,
                })
            }
            Ok(Lookup::Miss) => return None,
            Ok(Lookup::Quarantined(why)) => format!("quarantined it ({why})"),
            Err(e) => format!("cannot read it ({e})"),
        };
        eprintln!("warning: stored cell of {id} at seed {seed}: {why}; recomputing");
        None
    }

    /// A sweep cell's key: what a daemon computes for the same request.
    fn key(&self, id: &str, seed: u64) -> CellKey {
        CellKey {
            config_hash: config_hash(id, self.profile, &[]),
            seed,
        }
    }
}

/// The header record's file bytes: a `TDSH` payload, sealed.
pub fn encode_header(h: &JournalHeader) -> Vec<u8> {
    let mut w = SnapWriter::with_header(HEADER_MAGIC, HEADER_VERSION);
    w.write_u64(h.master_seed);
    w.write_u8(h.profile.tag());
    w.write_u64(h.replicates);
    w.write_u64(h.ids.len() as u64);
    for id in &h.ids {
        w.write_str(id);
    }
    w.seal().0
}

/// Decode and verify the header record's file bytes. Structured errors,
/// never panics, each ending in "rerun the sweep". A header of another
/// format version is refused by name before the trailer is checked.
pub fn decode_header(bytes: &[u8]) -> Result<JournalHeader, String> {
    let (mut r, _) = SnapReader::open_sealed(bytes, HEADER_MAGIC, HEADER_VERSION, "sweep header")
        .map_err(|why| format!("{why}: rerun the sweep"))?;
    let mut decode = || -> Result<JournalHeader, SnapError> {
        let master_seed = r.read_u64()?;
        let profile = Profile::from_tag(r.read_u8()?)?;
        let replicates = r.read_u64()?;
        let n = r.read_len()?;
        let mut ids = Vec::with_capacity(n);
        for _ in 0..n {
            ids.push(r.read_str()?);
        }
        r.finish()?;
        Ok(JournalHeader {
            master_seed,
            profile,
            replicates,
            ids,
        })
    };
    decode().map_err(|e| format!("{e}: rerun the sweep"))
}

/// Serialize a full [`Report`] into a snap stream: the body of every
/// TDCE cell file ([`crate::store`]).
pub fn write_report(w: &mut SnapWriter, rep: &Report) {
    w.write_str(&rep.id);
    w.write_str(&rep.title);
    w.write_str(&rep.config);
    w.write_u64(rep.rows.len() as u64);
    for row in &rep.rows {
        w.write_str(&row.metric);
        w.write_str(&row.paper);
        w.write_str(&row.measured);
        w.write_u8(match row.ok {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        });
    }
    w.write_u64(rep.plots.len() as u64);
    for p in &rep.plots {
        w.write_str(p);
    }
    w.write_u64(rep.csvs.len() as u64);
    for (name, body) in &rep.csvs {
        w.write_str(name);
        w.write_str(body);
    }
    w.write_u64(rep.blobs.len() as u64);
    for (name, bytes) in &rep.blobs {
        w.write_str(name);
        w.write_bytes(bytes);
    }
    w.write_u64(rep.metrics.len() as u64);
    for (name, value) in &rep.metrics {
        w.write_str(name);
        w.write_f64(*value);
    }
    w.write_u64(rep.diagnostics.len() as u64);
    for d in &rep.diagnostics {
        w.write_str(d);
    }
}

/// Deserialize a [`Report`] written by [`write_report`].
pub fn read_report(r: &mut SnapReader<'_>) -> Result<Report, SnapError> {
    let id = r.read_str()?;
    let title = r.read_str()?;
    let config = r.read_str()?;
    let mut rep = Report::new(&id, &title, &config);
    for _ in 0..r.read_u64()? {
        let metric = r.read_str()?;
        let paper = r.read_str()?;
        let measured = r.read_str()?;
        let ok = match r.read_u8()? {
            0 => None,
            1 => Some(false),
            2 => Some(true),
            other => return Err(SnapError::Corrupt(format!("unknown row-ok tag {other}"))),
        };
        rep.rows.push(Row {
            metric,
            paper,
            measured,
            ok,
        });
    }
    for _ in 0..r.read_u64()? {
        rep.plots.push(r.read_str()?);
    }
    for _ in 0..r.read_u64()? {
        let name = r.read_str()?;
        let body = r.read_str()?;
        rep.csvs.push((name, body));
    }
    for _ in 0..r.read_u64()? {
        let name = r.read_str()?;
        let bytes = r.read_bytes()?.to_vec();
        rep.blobs.push((name, bytes));
    }
    for _ in 0..r.read_u64()? {
        let name = r.read_str()?;
        let value = r.read_f64()?;
        rep.metrics.push((name, value));
    }
    for _ in 0..r.read_u64()? {
        rep.diagnostics.push(r.read_str()?);
    }
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::encode_cell_file;
    use std::path::PathBuf;
    use td_net::audit::Tally;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "td-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_header() -> JournalHeader {
        JournalHeader {
            master_seed: 7,
            profile: Profile::Quick,
            replicates: 2,
            ids: vec!["fig8".into(), "short-flows".into()],
        }
    }

    fn sample_result(seed: u64) -> ExperimentResult {
        let mut rep = Report::new("fig8", "a title", "a config");
        rep.check("metric", "paper says", "we saw".into(), true);
        rep.info("note", "-", "informational".into());
        rep.plots.push("ascii art\nline 2".into());
        rep.csvs.push(("data.csv".into(), "a,b\n1,2\n".into()));
        rep.blobs.push(("trace.bin".into(), vec![0, 1, 2, 255]));
        rep.metric("throughput", 0.75);
        rep.diagnostic("saw a thing".into());
        ExperimentResult {
            id: "fig8",
            replicate: 1,
            seed,
            report: rep,
            panic: None,
            timing: Timing {
                wall_s: 1.5,
                events_scheduled: 100,
                events_dispatched: 90,
                peak_queue_depth: 12,
                peak_rss_kib: 4096,
                peak_rss_is_process_max: false,
            },
            audit: Tally::default(),
            meter: Default::default(),
            replayed: false,
        }
    }

    #[test]
    fn create_empties_the_cells_and_open_reads_the_header() {
        let dir = tmp_dir("create");
        let mut j = Journal::create(&dir, &sample_header()).unwrap();
        j.append(&sample_result(42)).unwrap();
        std::fs::write(j.store.dir().join("stray.tdc"), b"stale").unwrap();
        drop(j);

        let j = Journal::create(&dir, &sample_header()).unwrap();
        let mut names: Vec<_> = std::fs::read_dir(j.store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, [HEADER_FILE], "a fresh sweep starts from no cells");
        assert!(j.replay("fig8", 1, 42).is_none());

        let (_, header) = Journal::open(&dir).unwrap();
        assert_eq!(header, sample_header());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A stored cell is the file a daemon writes for the same request,
    /// and it replays with its report intact and its timing zeroed.
    #[test]
    fn stored_cells_are_daemon_cells_and_replay_without_timing() {
        let dir = tmp_dir("replay");
        let mut j = Journal::create(&dir, &sample_header()).unwrap();
        let want = sample_result(42);
        j.append(&want).unwrap();

        let key = CellKey {
            config_hash: config_hash("fig8", Profile::Quick, &[]),
            seed: 42,
        };
        let daemon = encode_cell_file(
            key,
            &CellData {
                experiment: "fig8".into(),
                profile: Profile::Quick,
                report: want.report.clone(),
            },
        );
        assert!(std::fs::read(j.store.cell_path(key)).unwrap() == daemon);

        let got = j.replay("fig8", 1, 42).expect("a hit");
        assert!(got.replayed);
        assert_eq!((got.id, got.replicate, got.seed), ("fig8", 1, 42));
        assert_eq!(got.report.to_string(), want.report.to_string());
        assert_eq!(got.report.csvs, want.report.csvs);
        assert_eq!(got.report.blobs, want.report.blobs);
        assert_eq!(got.report.metrics, want.report.metrics);
        assert_eq!(got.report.diagnostics, want.report.diagnostics);
        assert_eq!(got.timing.wall_s, 0.0);
        assert_eq!(got.timing.events_dispatched, 0);
        assert!(j.replay("fig8", 1, 43).is_none(), "another seed misses");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Panics and audit violations are not stored: a resume reruns the
    /// cell, so they reappear instead of replaying as a clean report.
    #[test]
    fn panicked_and_audited_cells_are_not_stored() {
        let dir = tmp_dir("skip");
        let mut j = Journal::create(&dir, &sample_header()).unwrap();
        let mut panicked = sample_result(1);
        panicked.panic = Some("boom".into());
        j.append(&panicked).unwrap();
        let mut audited = sample_result(2);
        audited.audit = Tally {
            total: 1,
            reports: vec!["violation".into()],
        };
        j.append(&audited).unwrap();
        assert!(j.replay("fig8", 1, 1).is_none());
        assert!(j.replay("fig8", 1, 2).is_none());
        assert_eq!(std::fs::read_dir(j.store.dir()).unwrap().count(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_refuses_a_missing_or_damaged_header() {
        let dir = tmp_dir("refuse");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("journal.tdj"), b"an older sweep").unwrap();
        let err = Journal::open(&dir).err().expect("no header");
        assert!(err.to_string().contains("rerun the sweep"), "{err}");

        Journal::create(&dir, &sample_header()).unwrap();
        let path = dir.join(CELLS_DIR).join(HEADER_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[10] ^= 0x04;
        std::fs::write(&path, &bytes).unwrap();
        let err = Journal::open(&dir).err().expect("damaged header");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
