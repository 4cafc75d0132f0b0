//! Crash-resilient results journal for resumable sweeps.
//!
//! A sweep that dies three hours in — OOM kill, power cut, Ctrl-C —
//! should not cost three hours. `td-repro --out DIR` therefore keeps an
//! **append-only journal** (`journal.tdj`) in the output directory: one
//! fsynced line per completed `(experiment, replicate)` cell, written the
//! moment the cell finishes. `td-repro --resume DIR` replays the journal,
//! pre-fills every completed cell, re-derives the remaining seeds with
//! the same [`crate::runner::derive_seed`] discipline, and runs only what
//! is missing — producing output byte-identical to the uninterrupted
//! sweep, because seeds are a pure function of `(master_seed, id,
//! replicate)` and never of which cells happened to survive the crash.
//!
//! # Format
//!
//! Line-oriented so a torn write can only damage the final line:
//!
//! ```text
//! <hex(payload)> <fnv1a64(payload) as 16 hex digits>\n
//! ```
//!
//! The payload is a [`SnapWriter`] byte string (same little-endian
//! conventions as the simulator snapshot format, magic `TDJL`,
//! version-checked on read). The first line is the **header record**
//! (tag 0): master seed, profile, replicate count, and the exact
//! experiment id list, so `--resume` needs no flags beyond the
//! directory. Every following line is a **cell record** (tag 1): id,
//! replicate, seed, panic message, timing, audit tally, and the complete
//! serialized [`Report`] (rows, plots, CSVs, blobs, metrics,
//! diagnostics) — enough to reprint the report and rewrite every output
//! file without re-running the experiment.
//!
//! Each line is flushed with `File::sync_data` before the runner marks
//! the cell complete, so a journal line is a durable promise. On load, a
//! truncated or checksum-damaged **trailing** line is tolerated (the
//! crash interrupted that write; the cell simply reruns); nothing after
//! the damage is trusted.

use crate::registry::Profile;
use crate::report::{Report, Row};
use crate::runner::{ExperimentResult, Timing};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use td_engine::{SnapError, SnapReader, SnapWriter};
use td_net::audit::Tally;

/// File name of the journal inside an output directory.
pub const JOURNAL_FILE: &str = "journal.tdj";

/// Magic prefix of every journal record payload.
const MAGIC: &[u8; 4] = b"TDJL";
/// Journal format version. Readers refuse anything newer; older cells
/// still decode: v1 (pre-`peak_rss_kib`) defaults the field to 0, and
/// v1/v2 (pre-`peak_rss_is_process_max`, when the watermark was never
/// reset between cells) default the flag to `true` — which is exactly
/// what their recorded values were.
const VERSION: u32 = 3;

const TAG_HEADER: u8 = 0;
const TAG_CELL: u8 = 1;

/// Crash-injection hook for the kill-and-resume integration test: when
/// `TD_REPRO_KILL_AFTER_CELLS=N` is set, the process aborts immediately
/// after the N-th journal append — after the line is durable, before the
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

/// The batch configuration recorded in the journal's first line.
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

/// One replayed `(experiment, replicate)` cell.
///
/// The owned-`String` twin of [`ExperimentResult`]: the journal cannot
/// hand back `&'static str` ids, so the runner re-interns them against
/// the registry when it pre-fills slots.
#[derive(Clone, Debug)]
pub struct JournalCell {
    /// Registry id.
    pub id: String,
    /// Replicate index.
    pub replicate: u64,
    /// Seed the cell ran with.
    pub seed: u64,
    /// The cell's full report.
    pub report: Report,
    /// Panic message, if the cell panicked.
    pub panic: Option<String>,
    /// Observability counters.
    pub timing: Timing,
    /// Invariant-auditor tally.
    pub audit: Tally,
}

/// Why a checked journal line failed to decode.
///
/// Produced by [`decode_checked_line`]; [`Journal::load`] folds the
/// variant into its error message so an operator sees *what* is wrong
/// with the damaged line, not just that something is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LineDamage {
    /// Structural damage: the line is not
    /// `hex(payload) + space + 16-hex checksum`.
    Format(String),
    /// The line parsed but the recorded checksum disagrees with the
    /// checksum computed over the decoded payload.
    Checksum {
        /// Checksum recorded at the end of the line.
        recorded: u64,
        /// Checksum computed from the line's payload bytes.
        computed: u64,
    },
}

impl std::fmt::Display for LineDamage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineDamage::Format(why) => write!(f, "malformed line ({why})"),
            LineDamage::Checksum { recorded, computed } => write!(
                f,
                "checksum mismatch (expected {computed:016x} from the payload, \
                 found {recorded:016x} on the line)"
            ),
        }
    }
}

/// What [`Journal::load_salvage`] did to a damaged journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SalvageReport {
    /// Intact cells kept (excludes the header line).
    pub kept_cells: usize,
    /// Lines dropped at and after the first damaged line.
    pub dropped_lines: usize,
    /// Byte offset the journal file was truncated to, if damage was
    /// found (`None` means the journal was fully intact).
    pub truncated_at_byte: Option<u64>,
}

/// An append-only, fsynced results journal.
pub struct Journal {
    file: std::fs::File,
    path: PathBuf,
}

impl Journal {
    /// Path of the journal file for an output directory.
    pub fn file_path(dir: &Path) -> PathBuf {
        dir.join(JOURNAL_FILE)
    }

    /// Start a fresh journal in `dir` (creating the directory), writing
    /// the fsynced header line.
    pub fn create(dir: &Path, header: &JournalHeader) -> io::Result<Journal> {
        std::fs::create_dir_all(dir)?;
        let path = Self::file_path(dir);
        let file = std::fs::File::create(&path)?;
        let mut j = Journal { file, path };
        j.write_line(&encode_header(header))?;
        Ok(j)
    }

    /// Reopen an existing journal for appending (resume path).
    pub fn open_append(dir: &Path) -> io::Result<Journal> {
        let path = Self::file_path(dir);
        let file = std::fs::OpenOptions::new().append(true).open(&path)?;
        Ok(Journal { file, path })
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed cell, fsynced before returning. After this
    /// returns, a crash cannot lose the cell.
    pub fn append(&mut self, result: &ExperimentResult) -> io::Result<()> {
        self.write_line(&encode_cell(result))?;
        kill_hook_after_append();
        Ok(())
    }

    fn write_line(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut line = encode_checked_line(payload);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.sync_data()
    }

    /// Load the journal from `dir`: the header plus every intact cell.
    ///
    /// A damaged or truncated trailing line is tolerated (the crash tore
    /// it; its cell reruns); a damaged line *followed by intact lines*
    /// is corruption, not truncation, and is an error naming the line
    /// number, byte offset, and (for checksum damage) the expected vs
    /// found checksum, with a pointer at `--salvage`.
    pub fn load(dir: &Path) -> io::Result<(JournalHeader, Vec<JournalCell>)> {
        let path = Self::file_path(dir);
        let mut text = String::new();
        std::fs::File::open(&path)?.read_to_string(&mut text)?;
        let corrupt =
            |msg: String| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {msg}"));

        // (payload, 0-based line number, byte offset of line start)
        let mut payloads: Vec<(Vec<u8>, usize, u64)> = Vec::new();
        let mut damaged: Option<(usize, u64, LineDamage)> = None;
        let mut offset = 0u64;
        for (lineno, line) in text.lines().enumerate() {
            match decode_checked_line(line) {
                Ok(payload) => {
                    if let Some((bad_line, bad_offset, why)) = &damaged {
                        return Err(corrupt(format!(
                            "corruption at line {}, byte offset {bad_offset}: {why}; \
                             later lines are intact, so this is mid-file damage, not \
                             crash truncation — rerun with `--resume --salvage` to \
                             truncate there and recompute the dropped cells",
                            bad_line + 1
                        )));
                    }
                    payloads.push((payload, lineno, offset));
                }
                Err(why) => {
                    if damaged.is_none() {
                        damaged = Some((lineno, offset, why));
                    }
                }
            }
            offset += line.len() as u64 + 1;
        }
        // `text.lines()` drops a torn final fragment without a newline —
        // and a torn line *with* its newline fails the decode above.
        // Either way only the tail may be missing.

        let mut it = payloads.into_iter();
        let (header_bytes, _, _) = it
            .next()
            .ok_or_else(|| corrupt("journal has no intact header line".into()))?;
        let header =
            decode_header(&header_bytes).map_err(|e| corrupt(format!("bad header: {e}")))?;
        let mut cells = Vec::new();
        for (bytes, lineno, line_offset) in it {
            let cell = decode_cell(&bytes).map_err(|e| {
                corrupt(format!(
                    "corruption at line {}, byte offset {line_offset}: checksummed \
                     cell record fails to decode ({e}) — rerun with `--resume \
                     --salvage` to truncate there and recompute the dropped cells",
                    lineno + 1
                ))
            })?;
            cells.push(cell);
        }
        Ok((header, cells))
    }

    /// Load a damaged journal, keeping everything before the first bad
    /// line and **truncating the file** there so subsequent appends
    /// continue from a clean tail.
    ///
    /// Returns the header, the intact cells, and a [`SalvageReport`]
    /// saying how much was kept vs dropped. A damaged or undecodable
    /// *header* line is unsalvageable (there is nothing to resume) and
    /// stays an error.
    pub fn load_salvage(
        dir: &Path,
    ) -> io::Result<(JournalHeader, Vec<JournalCell>, SalvageReport)> {
        let path = Self::file_path(dir);
        let mut text = String::new();
        std::fs::File::open(&path)?.read_to_string(&mut text)?;
        let corrupt =
            |msg: String| io::Error::new(io::ErrorKind::InvalidData, format!("{path:?}: {msg}"));

        let total_lines = text.lines().count();
        let mut lines = text.lines().enumerate();
        let (_, header_line) = lines
            .next()
            .ok_or_else(|| corrupt("unsalvageable: journal is empty".into()))?;
        let header_bytes = decode_checked_line(header_line)
            .map_err(|why| corrupt(format!("unsalvageable: header line is damaged: {why}")))?;
        let header = decode_header(&header_bytes)
            .map_err(|e| corrupt(format!("unsalvageable: bad header: {e}")))?;

        let mut cells = Vec::new();
        let mut offset = header_line.len() as u64 + 1;
        let mut damage: Option<(usize, u64)> = None; // (lineno, byte offset)
        for (lineno, line) in lines {
            let ok = decode_checked_line(line)
                .ok()
                .and_then(|bytes| decode_cell(&bytes).ok());
            match ok {
                Some(cell) => cells.push(cell),
                None => {
                    damage = Some((lineno, offset));
                    break;
                }
            }
            offset += line.len() as u64 + 1;
        }

        let report = match damage {
            None => SalvageReport {
                kept_cells: cells.len(),
                dropped_lines: 0,
                truncated_at_byte: None,
            },
            Some((lineno, offset)) => {
                let f = std::fs::OpenOptions::new().write(true).open(&path)?;
                f.set_len(offset)?;
                f.sync_all()?;
                SalvageReport {
                    kept_cells: cells.len(),
                    dropped_lines: total_lines - lineno,
                    truncated_at_byte: Some(offset),
                }
            }
        };
        Ok((header, cells, report))
    }
}

/// Render a payload as one checked journal line (no trailing newline):
/// `hex(payload) + space + 16-hex fnv1a64 checksum`. The inverse of
/// [`decode_checked_line`]; shared by the journal and the serve store's
/// pending-queue file.
pub fn encode_checked_line(payload: &[u8]) -> String {
    let mut line = String::with_capacity(payload.len() * 2 + 17);
    for b in payload {
        line.push_str(&format!("{b:02x}"));
    }
    line.push(' ');
    line.push_str(&format!("{:016x}", fnv1a(payload)));
    line
}

/// Parse one checked `hex payload + checksum` line, saying *why* on
/// failure (see [`LineDamage`]).
pub fn decode_checked_line(line: &str) -> Result<Vec<u8>, LineDamage> {
    let (hex, check) = line
        .split_once(' ')
        .ok_or_else(|| LineDamage::Format("no space separator".into()))?;
    if check.len() != 16 {
        return Err(LineDamage::Format(format!(
            "checksum field is {} chars, expected 16",
            check.len()
        )));
    }
    if hex.len() % 2 != 0 {
        return Err(LineDamage::Format(format!(
            "payload field has odd length {}",
            hex.len()
        )));
    }
    // Reject anything but hex digits up front: `from_str_radix` would
    // otherwise accept a leading `+`, letting some damaged bytes parse
    // to the same value they replaced.
    if let Some(bad) = line
        .bytes()
        .position(|b| !b.is_ascii_hexdigit() && b != b' ')
    {
        return Err(LineDamage::Format(format!(
            "non-hex character at column {}",
            bad + 1
        )));
    }
    let mut payload = Vec::with_capacity(hex.len() / 2);
    for i in (0..hex.len()).step_by(2) {
        payload.push(u8::from_str_radix(&hex[i..i + 2], 16).map_err(|_| {
            LineDamage::Format(format!("non-hex payload byte at column {}", i + 1))
        })?);
    }
    let recorded = u64::from_str_radix(check, 16)
        .map_err(|_| LineDamage::Format("non-hex checksum field".into()))?;
    let computed = fnv1a(&payload);
    if computed != recorded {
        return Err(LineDamage::Checksum { recorded, computed });
    }
    Ok(payload)
}

/// The per-line checksum of the journal and the trailer checksum of the
/// serve store's cell files (which continues it over the trailer to get
/// a whole-file fingerprint out of the pass that checks it).
pub use td_engine::{fnv1a, fnv1a_continue};

fn encode_header(h: &JournalHeader) -> Vec<u8> {
    let mut w = SnapWriter::with_header(MAGIC, VERSION);
    w.write_u8(TAG_HEADER);
    w.write_u64(h.master_seed);
    w.write_u8(match h.profile {
        Profile::Quick => 0,
        Profile::Full => 1,
    });
    w.write_u64(h.replicates);
    w.write_u64(h.ids.len() as u64);
    for id in &h.ids {
        w.write_str(id);
    }
    w.into_bytes()
}

fn decode_header(bytes: &[u8]) -> Result<JournalHeader, SnapError> {
    let mut r = SnapReader::new(bytes);
    expect_journal_record(&mut r, TAG_HEADER)?;
    let master_seed = r.read_u64()?;
    let profile = match r.read_u8()? {
        0 => Profile::Quick,
        1 => Profile::Full,
        other => return Err(SnapError::Corrupt(format!("unknown profile tag {other}"))),
    };
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
}

/// Serialize one completed cell as a journal record payload (exposed
/// for the codec fuzz harness; the journal writes these via `append`).
pub fn encode_cell(res: &ExperimentResult) -> Vec<u8> {
    let mut w = SnapWriter::with_header(MAGIC, VERSION);
    w.write_u8(TAG_CELL);
    w.write_str(res.id);
    w.write_u64(res.replicate);
    w.write_u64(res.seed);
    w.write_bool(res.panic.is_some());
    if let Some(msg) = &res.panic {
        w.write_str(msg);
    }
    w.write_f64(res.timing.wall_s);
    w.write_u64(res.timing.events_scheduled);
    w.write_u64(res.timing.events_dispatched);
    w.write_u64(res.timing.peak_queue_depth as u64);
    w.write_u64(res.timing.peak_rss_kib);
    w.write_bool(res.timing.peak_rss_is_process_max);
    w.write_u64(res.audit.total);
    w.write_u64(res.audit.reports.len() as u64);
    for msg in &res.audit.reports {
        w.write_str(msg);
    }
    write_report(&mut w, &res.report);
    w.into_bytes()
}

/// Decode one cell record payload. Structured errors, never panics —
/// the journal loader and the codec fuzz harness both rely on that.
pub fn decode_cell(bytes: &[u8]) -> Result<JournalCell, SnapError> {
    let mut r = SnapReader::new(bytes);
    let version = expect_journal_record(&mut r, TAG_CELL)?;
    let id = r.read_str()?;
    let replicate = r.read_u64()?;
    let seed = r.read_u64()?;
    let panic = if r.read_bool()? {
        Some(r.read_str()?)
    } else {
        None
    };
    let timing = Timing {
        wall_s: r.read_f64()?,
        events_scheduled: r.read_u64()?,
        events_dispatched: r.read_u64()?,
        peak_queue_depth: r.read_u64()? as usize,
        peak_rss_kib: if version >= 2 { r.read_u64()? } else { 0 },
        peak_rss_is_process_max: if version >= 3 { r.read_bool()? } else { true },
    };
    let total = r.read_u64()?;
    let n_reports = r.read_len()?;
    let mut reports = Vec::with_capacity(n_reports);
    for _ in 0..n_reports {
        reports.push(r.read_str()?);
    }
    let report = read_report(&mut r)?;
    r.finish()?;
    Ok(JournalCell {
        id,
        replicate,
        seed,
        report,
        panic,
        timing,
        audit: Tally { total, reports },
    })
}

fn expect_journal_record(r: &mut SnapReader<'_>, want_tag: u8) -> Result<u32, SnapError> {
    let version = r.expect_header(MAGIC)?;
    if version > VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
    let tag = r.read_u8()?;
    if tag != want_tag {
        return Err(SnapError::Corrupt(format!(
            "journal record tag {tag}, expected {want_tag}"
        )));
    }
    Ok(version)
}

/// Serialize a full [`Report`] into a snap stream. Shared with the
/// serve store, whose cell files embed the same report encoding.
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

    fn sample_result(replicate: u64) -> ExperimentResult {
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
            replicate,
            seed: 42 + replicate,
            report: rep,
            panic: (replicate == 1).then(|| "boom \"quoted\"".into()),
            timing: Timing {
                wall_s: 1.5,
                events_scheduled: 100,
                events_dispatched: 90,
                peak_queue_depth: 12,
                peak_rss_kib: 4096,
                peak_rss_is_process_max: false,
            },
            audit: Tally {
                total: 1,
                reports: vec!["violation".into()],
            },
            meter: Default::default(),
            replayed: false,
        }
    }

    #[test]
    fn header_and_cells_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let header = sample_header();
        let mut j = Journal::create(&dir, &header).unwrap();
        j.append(&sample_result(0)).unwrap();
        j.append(&sample_result(1)).unwrap();
        drop(j);

        let (got_header, cells) = Journal::load(&dir).unwrap();
        assert_eq!(got_header, header);
        assert_eq!(cells.len(), 2);
        let c = &cells[0];
        let want = sample_result(0);
        assert_eq!(c.id, want.id);
        assert_eq!(c.replicate, 0);
        assert_eq!(c.seed, 42);
        assert_eq!(c.panic, None);
        assert_eq!(c.timing.events_dispatched, 90);
        assert_eq!(c.timing.peak_queue_depth, 12);
        assert_eq!(c.timing.peak_rss_kib, 4096);
        assert_eq!(c.audit.total, 1);
        assert_eq!(c.audit.reports, vec!["violation".to_owned()]);
        assert_eq!(c.report.rows.len(), want.report.rows.len());
        assert_eq!(c.report.rows[0].ok, Some(true));
        assert_eq!(c.report.rows[1].ok, None);
        assert_eq!(c.report.plots, want.report.plots);
        assert_eq!(c.report.csvs, want.report.csvs);
        assert_eq!(c.report.blobs, want.report.blobs);
        assert_eq!(c.report.metrics, want.report.metrics);
        assert_eq!(c.report.diagnostics, want.report.diagnostics);
        assert_eq!(cells[1].panic.as_deref(), Some("boom \"quoted\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal written before v2 (no `peak_rss_kib` in cell records)
    /// must still load, with the missing field defaulting to 0.
    #[test]
    fn v1_cells_still_decode() {
        let want = sample_result(0);
        let mut w = SnapWriter::with_header(MAGIC, 1);
        w.write_u8(TAG_CELL);
        w.write_str(want.id);
        w.write_u64(want.replicate);
        w.write_u64(want.seed);
        w.write_bool(false);
        w.write_f64(want.timing.wall_s);
        w.write_u64(want.timing.events_scheduled);
        w.write_u64(want.timing.events_dispatched);
        w.write_u64(want.timing.peak_queue_depth as u64);
        w.write_u64(want.audit.total);
        w.write_u64(want.audit.reports.len() as u64);
        for msg in &want.audit.reports {
            w.write_str(msg);
        }
        write_report(&mut w, &want.report);
        let cell = decode_cell(&w.into_bytes()).unwrap();
        assert_eq!(cell.id, want.id);
        assert_eq!(cell.timing.peak_queue_depth, want.timing.peak_queue_depth);
        assert_eq!(cell.timing.peak_rss_kib, 0, "v1 default");
        assert!(
            cell.timing.peak_rss_is_process_max,
            "pre-v3 watermarks were never reset"
        );
    }

    /// A v2 journal (with `peak_rss_kib` but no per-cell watermark reset
    /// flag) must still load; its readings were process-lifetime maxima,
    /// so the flag defaults to `true`.
    #[test]
    fn v2_cells_still_decode() {
        let want = sample_result(0);
        let mut w = SnapWriter::with_header(MAGIC, 2);
        w.write_u8(TAG_CELL);
        w.write_str(want.id);
        w.write_u64(want.replicate);
        w.write_u64(want.seed);
        w.write_bool(false);
        w.write_f64(want.timing.wall_s);
        w.write_u64(want.timing.events_scheduled);
        w.write_u64(want.timing.events_dispatched);
        w.write_u64(want.timing.peak_queue_depth as u64);
        w.write_u64(want.timing.peak_rss_kib);
        w.write_u64(want.audit.total);
        w.write_u64(want.audit.reports.len() as u64);
        for msg in &want.audit.reports {
            w.write_str(msg);
        }
        write_report(&mut w, &want.report);
        let cell = decode_cell(&w.into_bytes()).unwrap();
        assert_eq!(cell.timing.peak_rss_kib, want.timing.peak_rss_kib);
        assert!(cell.timing.peak_rss_is_process_max, "v2 default");
    }

    #[test]
    fn open_append_continues_the_journal() {
        let dir = tmp_dir("append");
        let header = sample_header();
        let j = Journal::create(&dir, &header).unwrap();
        drop(j);
        let mut j = Journal::open_append(&dir).unwrap();
        j.append(&sample_result(0)).unwrap();
        drop(j);
        let (_, cells) = Journal::load(&dir).unwrap();
        assert_eq!(cells.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_tolerated() {
        let dir = tmp_dir("torn");
        let mut j = Journal::create(&dir, &sample_header()).unwrap();
        j.append(&sample_result(0)).unwrap();
        j.append(&sample_result(1)).unwrap();
        drop(j);
        // Tear the last line in half, as a crash mid-write would.
        let path = Journal::file_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len() - 40;
        std::fs::write(&path, &text[..keep]).unwrap();

        let (header, cells) = Journal::load(&dir).unwrap();
        assert_eq!(header, sample_header());
        assert_eq!(cells.len(), 1, "torn cell dropped, intact cell kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_file_damage_is_an_error() {
        let dir = tmp_dir("midfile");
        let mut j = Journal::create(&dir, &sample_header()).unwrap();
        j.append(&sample_result(0)).unwrap();
        j.append(&sample_result(1)).unwrap();
        drop(j);
        let path = Journal::file_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        // Flip a byte in the *first cell* line; the second stays intact.
        let damaged = lines[1].replace(
            lines[1].chars().next().unwrap(),
            if lines[1].starts_with('0') { "1" } else { "0" },
        );
        lines[1] = &damaged;
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = Journal::load(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corruption"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksum_rejects_bit_flips() {
        let payload = encode_header(&sample_header());
        let line = encode_checked_line(&payload);
        assert_eq!(decode_checked_line(&line).unwrap(), payload);
        let flipped = line.replacen('a', "b", 1);
        if flipped != line {
            let err = decode_checked_line(&flipped).unwrap_err();
            assert!(
                matches!(err, LineDamage::Checksum { .. } | LineDamage::Format(_)),
                "{err:?}"
            );
        }
        assert!(matches!(
            decode_checked_line("nonsense"),
            Err(LineDamage::Format(_))
        ));
        assert!(matches!(
            decode_checked_line(""),
            Err(LineDamage::Format(_))
        ));
    }

    #[test]
    fn load_error_names_line_offset_and_checksums() {
        let dir = tmp_dir("richerr");
        let mut j = Journal::create(&dir, &sample_header()).unwrap();
        j.append(&sample_result(0)).unwrap();
        j.append(&sample_result(1)).unwrap();
        drop(j);
        let path = Journal::file_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let header_len = lines[0].len() as u64 + 1;
        // Flip one payload nibble of the first cell line; its recorded
        // checksum no longer matches.
        let flip = |c: char| if c == '0' { '1' } else { '0' };
        let first = lines[1].chars().next().unwrap();
        lines[1] = format!("{}{}", flip(first), &lines[1][1..]);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = Journal::load(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("corruption"), "{msg}");
        assert!(msg.contains("line 2"), "{msg}");
        assert!(msg.contains(&format!("byte offset {header_len}")), "{msg}");
        assert!(msg.contains("expected") && msg.contains("found"), "{msg}");
        assert!(msg.contains("--salvage"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvage_truncates_at_first_damage_and_keeps_prefix() {
        let dir = tmp_dir("salvage");
        let mut j = Journal::create(&dir, &sample_header()).unwrap();
        for rep in 0..4 {
            j.append(&sample_result(rep)).unwrap();
        }
        drop(j);
        let path = Journal::file_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Damage cell 2 of 4 (line index 3): cells 0–1 survive, 2–3 drop.
        let damage_offset: u64 = lines[..3].iter().map(|l| l.len() as u64 + 1).sum();
        let mut edited: Vec<String> = lines.iter().map(|s| (*s).to_owned()).collect();
        edited[3] = format!("zz{}", &edited[3][2..]);
        std::fs::write(&path, edited.join("\n") + "\n").unwrap();

        assert!(Journal::load(&dir).is_err(), "strict load still refuses");
        let (header, cells, report) = Journal::load_salvage(&dir).unwrap();
        assert_eq!(header, sample_header());
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].replicate, 0);
        assert_eq!(cells[1].replicate, 1);
        assert_eq!(
            report,
            SalvageReport {
                kept_cells: 2,
                dropped_lines: 2,
                truncated_at_byte: Some(damage_offset),
            }
        );
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            damage_offset,
            "file physically truncated at the damage point"
        );

        // The truncated journal is clean: strict load succeeds, appends
        // continue from the clean tail, and a re-salvage drops nothing.
        let (_, cells) = Journal::load(&dir).unwrap();
        assert_eq!(cells.len(), 2);
        let mut j = Journal::open_append(&dir).unwrap();
        j.append(&sample_result(2)).unwrap();
        drop(j);
        let (_, cells, report) = Journal::load_salvage(&dir).unwrap();
        assert_eq!(cells.len(), 3);
        assert_eq!(report.dropped_lines, 0);
        assert_eq!(report.truncated_at_byte, None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salvage_refuses_a_damaged_header() {
        let dir = tmp_dir("salvage-hdr");
        let mut j = Journal::create(&dir, &sample_header()).unwrap();
        j.append(&sample_result(0)).unwrap();
        drop(j);
        let path = Journal::file_path(&dir);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        lines[0] = format!("zz{}", &lines[0][2..]);
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();

        let err = Journal::load_salvage(&dir).unwrap_err();
        assert!(err.to_string().contains("unsalvageable"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
