//! Content-addressed, checksummed, quarantining cell store.
//!
//! The one durable format for computed cells: `td-serve` keeps its cache
//! here, and `td-repro --out DIR` writes every finished sweep cell into
//! `DIR/cells/` (see [`crate::journal`]), so a daemon pointed at a
//! sweep's cells serves them as hits.
//!
//! One file per simulation cell, named by the cell's identity —
//! `cell-{config_hash:016x}-{seed:016x}.tdc` — so the store needs no
//! index: a lookup is a filename. Each file is a [`SnapWriter`] payload
//! (magic `TDCE`, version 2: key, experiment id, profile, and the full
//! [`Report`] via [`write_report`]) sealed by [`SnapWriter::seal`]: an
//! 8-byte little-endian trailer, the [`td_engine::fnv1a_lanes`] sum of
//! the payload. A cell's bytes are a pure function of its key: no wall
//! clock, no host, no run history.
//!
//! Integrity discipline:
//!
//! * **Every read verifies** the trailer, the snap structure, and that
//!   the decoded key matches the filename's. Any mismatch is treated as
//!   corruption — the file is moved into the `quarantine/` sidecar
//!   directory (never deleted: it is evidence) and the caller
//!   recomputes the cell. A file of another format version (a v1 cell
//!   sealed with byte-wise FNV-1a) is refused by name before the
//!   trailer check ([`SnapReader::open_sealed`]), and takes the same
//!   quarantine-and-recompute path.
//! * **Every write is atomic and durable** ([`td_engine::write_atomic`]):
//!   temp file in the store directory (named uniquely per write),
//!   `sync_all`, rename over the final name, best-effort directory fsync.
//!   A crash can leave a stale `.tmp`, never a torn cell. Concurrent
//!   writers need no lock.
//! * **Each stored byte is hashed once.** The trailer is the cell's
//!   fingerprint: the sum is computed once over the payload when a cell
//!   is sealed and once when it is verified, and [`Store::save`],
//!   [`Store::load`] and [`decode_cell_file`] all return that verified
//!   trailer value, which the daemon sends as `payload_sum` without
//!   re-encoding. The encoding is deterministic and only canonical files
//!   decode, so the same cell always carries the same trailer.
//! * [`Store::verify`] scans every cell offline and reports (optionally
//!   quarantines) damage; [`Store::compact`] clears `.tmp` leftovers
//!   and the quarantine sidecar, reporting bytes reclaimed.

use crate::journal::{read_report, write_report};
use crate::registry::Profile;
use crate::report::Report;
use std::io;
use std::path::{Path, PathBuf};
use td_engine::{write_atomic, SnapError, SnapReader, SnapWriter};

/// Magic prefix of a cell-file payload.
const MAGIC: &[u8; 4] = b"TDCE";
/// Cell-file format version: 2 since the trailer became
/// [`td_engine::fnv1a_lanes`].
const VERSION: u32 = 2;

thread_local! {
    /// Cell encodings on this thread: `td-serve`'s tests count them to
    /// show a hit re-encodes nothing.
    #[doc(hidden)]
    pub static ENCODES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Identity of one cell: the canonical config hash plus the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// [`crate::registry::config_hash`] of the request.
    pub config_hash: u64,
    /// Master seed of the cell.
    pub seed: u64,
}

/// The stored payload of one cell.
#[derive(Clone, Debug)]
pub struct CellData {
    /// Registry experiment id.
    pub experiment: String,
    /// Profile the cell ran with.
    pub profile: Profile,
    /// The cell's full report.
    pub report: Report,
}

/// Result of a store lookup.
#[derive(Debug)]
pub enum Lookup {
    /// No cell on disk.
    Miss,
    /// Intact cell, checksum verified, and its fingerprint: the
    /// verified trailer value.
    Hit(Box<CellData>, u64),
    /// The cell was on disk but damaged; it has been moved to the
    /// quarantine sidecar and the caller should recompute. The string
    /// says what was wrong.
    Quarantined(String),
}

/// What [`Store::verify`] found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerifyReport {
    /// Cells that decoded and checksummed clean.
    pub intact: usize,
    /// Damaged cells, with filename and reason.
    pub corrupt: Vec<(String, String)>,
    /// Damaged cells moved to quarantine (only with `fix`).
    pub quarantined: usize,
}

/// What [`Store::compact`] removed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Leftover `.tmp` files removed.
    pub tmp_removed: usize,
    /// Quarantined files removed.
    pub quarantine_removed: usize,
    /// Total bytes reclaimed.
    pub bytes_reclaimed: u64,
}

/// The on-disk cell store.
pub struct Store {
    dir: PathBuf,
}

impl Store {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: &Path) -> io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        Ok(Store {
            dir: dir.to_owned(),
        })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The quarantine sidecar directory (may not exist yet).
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    fn cell_name(key: CellKey) -> String {
        format!("cell-{:016x}-{:016x}.tdc", key.config_hash, key.seed)
    }

    /// Path of the cell file for `key`.
    pub fn cell_path(&self, key: CellKey) -> PathBuf {
        self.dir.join(Self::cell_name(key))
    }

    /// Look up a cell, verifying integrity; damage quarantines the file.
    pub fn load(&self, key: CellKey) -> io::Result<Lookup> {
        let path = self.cell_path(key);
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Lookup::Miss),
            Err(e) => return Err(e),
        };
        match decode_cell_file(&bytes, Some(key)) {
            Ok((data, sum)) => Ok(Lookup::Hit(Box::new(data), sum)),
            Err(why) => {
                self.quarantine(&path)?;
                Ok(Lookup::Quarantined(why))
            }
        }
    }

    /// Move a damaged file of the store directory into the quarantine
    /// sidecar (evidence, not deletion). An existing quarantined file of
    /// the same name is overwritten — same identity, same damage class.
    fn quarantine(&self, path: &Path) -> io::Result<()> {
        let qdir = self.quarantine_dir();
        std::fs::create_dir_all(&qdir)?;
        let name = path
            .file_name()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no file name"))?;
        std::fs::rename(path, qdir.join(name))
    }

    /// Write a cell atomically and durably ([`write_atomic`]). Returns
    /// the cell's fingerprint, the trailer it wrote — what a later
    /// [`Store::load`] of the same file reports.
    pub fn save(&self, key: CellKey, data: &CellData) -> io::Result<u64> {
        let (bytes, sum) = encode_sealed(key, data);
        write_atomic(&self.cell_path(key), &bytes)?;
        Ok(sum)
    }

    /// Scan every cell file; with `fix`, move damaged ones to
    /// quarantine. Never touches intact cells.
    pub fn verify(&self, fix: bool) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        let mut names: Vec<PathBuf> = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tdc") {
                names.push(path);
            }
        }
        names.sort();
        for path in names {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            let key = key_from_name(&name);
            let bytes = std::fs::read(&path)?;
            match decode_cell_file(&bytes, key) {
                Ok(_) => report.intact += 1,
                Err(why) => {
                    if fix {
                        self.quarantine(&path)?;
                        report.quarantined += 1;
                    }
                    report.corrupt.push((name, why));
                }
            }
        }
        Ok(report)
    }

    /// Remove the `.tmp` files of writers killed mid-write: how many, and
    /// their bytes. Only safe while no other process writes the store.
    pub fn remove_tmp(&self) -> io::Result<(usize, u64)> {
        let (mut removed, mut bytes) = (0, 0);
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                bytes += std::fs::metadata(&path)?.len();
                std::fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok((removed, bytes))
    }

    /// Remove `.tmp` leftovers and the quarantine sidecar's contents,
    /// reporting how much space came back.
    pub fn compact(&self) -> io::Result<CompactReport> {
        let (tmp_removed, bytes_reclaimed) = self.remove_tmp()?;
        let mut report = CompactReport {
            tmp_removed,
            bytes_reclaimed,
            ..CompactReport::default()
        };
        let qdir = self.quarantine_dir();
        if qdir.is_dir() {
            for entry in std::fs::read_dir(&qdir)? {
                let path = entry?.path();
                if path.is_file() {
                    report.bytes_reclaimed += std::fs::metadata(&path)?.len();
                    std::fs::remove_file(&path)?;
                    report.quarantine_removed += 1;
                }
            }
        }
        Ok(report)
    }
}

/// Recover the cell key from a `cell-XXXX-YYYY.tdc` filename, if it
/// has the canonical shape (verification cross-checks it against the
/// decoded payload key).
fn key_from_name(name: &str) -> Option<CellKey> {
    let rest = name.strip_prefix("cell-")?.strip_suffix(".tdc")?;
    let (h, s) = rest.split_once('-')?;
    Some(CellKey {
        config_hash: u64::from_str_radix(h, 16).ok()?,
        seed: u64::from_str_radix(s, 16).ok()?,
    })
}

/// Serialize a cell: a `TDCE` payload, sealed.
pub fn encode_cell_file(key: CellKey, data: &CellData) -> Vec<u8> {
    encode_sealed(key, data).0
}

/// [`encode_cell_file`] plus its trailer value.
fn encode_sealed(key: CellKey, data: &CellData) -> (Vec<u8>, u64) {
    ENCODES.with(|n| n.set(n.get() + 1));
    let mut w = SnapWriter::with_header(MAGIC, VERSION);
    w.write_u64(key.config_hash);
    w.write_u64(key.seed);
    w.write_str(&data.experiment);
    w.write_u8(data.profile.tag());
    write_report(&mut w, &data.report);
    w.seal()
}

/// Decode and verify a cell file. `expect` (when known) must match the
/// embedded key — a renamed or cross-copied cell is corruption too.
/// Structured errors, never panics. With the cell comes its verified
/// trailer value, the fingerprint; only canonical files decode, so
/// re-encoding the cell seals the same. A cell of another format version
/// is refused by name before the trailer is checked.
pub fn decode_cell_file(bytes: &[u8], expect: Option<CellKey>) -> Result<(CellData, u64), String> {
    let (mut r, sum) = SnapReader::open_sealed(bytes, MAGIC, VERSION, "cell")?;
    let mut decode = || -> Result<CellData, SnapError> {
        let config_hash = r.read_u64()?;
        let seed = r.read_u64()?;
        if let Some(want) = expect {
            if (CellKey { config_hash, seed }) != want {
                return Err(SnapError::Corrupt(format!(
                    "cell key mismatch: file claims ({config_hash:016x}, \
                     {seed:016x}), expected ({:016x}, {:016x})",
                    want.config_hash, want.seed
                )));
            }
        }
        let experiment = r.read_str()?;
        let profile = Profile::from_tag(r.read_u8()?)?;
        let report = read_report(&mut r)?;
        r.finish()?;
        Ok(CellData {
            experiment,
            profile,
            report,
        })
    };
    let data = decode().map_err(|e| e.to_string())?;
    Ok((data, sum))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "td-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open(&dir).unwrap()
    }

    fn sample() -> (CellKey, CellData) {
        let mut report = Report::new("fig8", "a title", "a config");
        report.check("metric", "paper", "seen".into(), true);
        report.metric("throughput", 0.5);
        (
            CellKey {
                config_hash: 0xdead_beef,
                seed: 42,
            },
            CellData {
                experiment: "fig8".into(),
                profile: Profile::Quick,
                report,
            },
        )
    }

    #[test]
    fn save_load_roundtrip_is_byte_stable() {
        let store = tmp_store("roundtrip");
        let (key, data) = sample();
        assert!(matches!(store.load(key).unwrap(), Lookup::Miss));
        store.save(key, &data).unwrap();
        let got = match store.load(key).unwrap() {
            Lookup::Hit(d, _) => d,
            other => panic!("{other:?}"),
        };
        assert_eq!(got.experiment, data.experiment);
        assert_eq!(got.profile, data.profile);
        assert_eq!(got.report.rows.len(), 1);
        // The encoding is deterministic: a recompute produces the same
        // bytes — the property the daemon's byte-identical-response
        // guarantee rests on.
        assert_eq!(encode_cell_file(key, &data), encode_cell_file(key, &got));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_cell_is_quarantined_on_read() {
        let store = tmp_store("corrupt");
        let (key, data) = sample();
        store.save(key, &data).unwrap();
        let path = store.cell_path(key);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();

        match store.load(key).unwrap() {
            Lookup::Quarantined(why) => assert!(why.contains("checksum mismatch"), "{why}"),
            other => panic!("{other:?}"),
        }
        assert!(!path.exists(), "damaged file moved out of the store");
        assert!(
            store
                .quarantine_dir()
                .join(path.file_name().unwrap())
                .exists(),
            "and into quarantine"
        );
        assert!(matches!(store.load(key).unwrap(), Lookup::Miss));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn key_mismatch_is_corruption() {
        let store = tmp_store("keymismatch");
        let (key, data) = sample();
        store.save(key, &data).unwrap();
        // Copy the intact file under a different key's name.
        let other = CellKey {
            config_hash: 1,
            seed: 2,
        };
        std::fs::copy(store.cell_path(key), store.cell_path(other)).unwrap();
        match store.load(other).unwrap() {
            Lookup::Quarantined(why) => assert!(why.contains("key mismatch"), "{why}"),
            got => panic!("{got:?}"),
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn verify_and_compact_report_damage_and_reclaim() {
        let store = tmp_store("verify");
        let (key, data) = sample();
        store.save(key, &data).unwrap();
        let key2 = CellKey {
            config_hash: 7,
            seed: 7,
        };
        store.save(key2, &data).unwrap();
        // Damage one cell and strand a tmp file.
        let path = store.cell_path(key2);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        std::fs::write(store.dir().join("stale.tmp"), b"leftover").unwrap();

        let rep = store.verify(false).unwrap();
        assert_eq!(rep.intact, 1);
        assert_eq!(rep.corrupt.len(), 1);
        assert_eq!(rep.quarantined, 0);
        assert!(path.exists(), "dry run leaves the file in place");

        let rep = store.verify(true).unwrap();
        assert_eq!(rep.quarantined, 1);
        assert!(!path.exists());

        let rep = store.compact().unwrap();
        assert_eq!(rep.tmp_removed, 1);
        assert_eq!(rep.quarantine_removed, 1);
        assert!(rep.bytes_reclaimed > 0);
        assert!(matches!(store.load(key).unwrap(), Lookup::Hit(..)));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// Two workers of one daemon computing the same missing cell used to
    /// share one temp path: one truncated the other's half-written file,
    /// and the loser's rename failed or published a torn cell.
    #[test]
    fn concurrent_saves_of_one_key_never_tear() {
        let store = tmp_store("concurrent");
        let (key, mut data) = sample();
        // Big enough that a write is not one instant.
        data.report
            .blobs
            .push(("pad.bin".into(), vec![0xa5; 256 << 10]));
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for i in 0..50 {
                        store
                            .save(key, &data)
                            .unwrap_or_else(|e| panic!("save {i}: {e}"));
                        match store.load(key).unwrap() {
                            Lookup::Hit(..) | Lookup::Miss => {}
                            Lookup::Quarantined(why) => panic!("torn cell after save {i}: {why}"),
                        }
                    }
                });
            }
        });
        let leftovers: Vec<_> = std::fs::read_dir(store.dir())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p != &store.cell_path(key))
            .collect();
        assert!(leftovers.is_empty(), "left behind: {leftovers:?}");
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// A random string: empty, short, or multi-KiB, ASCII or not.
    fn gen_str(rng: &mut td_engine::SimRng) -> String {
        const ALPHABET: [&str; 8] = ["a", "Z", " ", "\n", "\"", "é", "→", "𝛼"];
        let len = match rng.next_below(4) {
            0 => 0,
            1 => rng.next_below(12),
            2 => rng.next_below(200),
            _ => 3000 + rng.next_below(3000),
        };
        (0..len)
            .map(|_| ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize])
            .collect()
    }

    fn gen_cell(rng: &mut td_engine::SimRng) -> (CellKey, CellData) {
        const METRICS: [f64; 8] = [
            f64::NAN,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0, // subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.5,
            -1e300,
        ];
        let mut report = Report::new(&gen_str(rng), &gen_str(rng), &gen_str(rng));
        for _ in 0..rng.next_below(4) {
            report.rows.push(crate::report::Row {
                metric: gen_str(rng),
                paper: gen_str(rng),
                measured: gen_str(rng),
                ok: [None, Some(false), Some(true)][rng.next_below(3) as usize],
            });
        }
        for _ in 0..rng.next_below(3) {
            report.plots.push(gen_str(rng));
            report.csvs.push((gen_str(rng), gen_str(rng)));
            report.diagnostics.push(gen_str(rng));
        }
        for _ in 0..rng.next_below(3) {
            let len = [0, 7, 100_000][rng.next_below(3) as usize];
            let blob = (0..len).map(|_| rng.next_u64() as u8).collect();
            report.blobs.push((gen_str(rng), blob));
        }
        for _ in 0..rng.next_below(6) {
            let m = METRICS[rng.next_below(METRICS.len() as u64) as usize];
            report.metrics.push((gen_str(rng), m));
        }
        (
            CellKey {
                config_hash: rng.next_u64(),
                seed: rng.next_u64(),
            },
            CellData {
                experiment: gen_str(rng),
                profile: [Profile::Quick, Profile::Full][rng.next_below(2) as usize],
                report,
            },
        )
    }

    /// The file's little-endian trailer.
    fn trailer(file: &[u8]) -> u64 {
        u64::from_le_bytes(file[file.len() - 8..].try_into().unwrap())
    }

    /// What the daemon's `payload_sum` rests on: `save` returns the
    /// trailer it wrote, `load` and `decode_cell_file` the trailer they
    /// verified, and a decoded cell re-encodes to the same bytes — so a
    /// hit, a miss and a recompute put the same number on the wire.
    #[test]
    fn fingerprint_is_the_trailer_and_survives_a_codec_round_trip() {
        let store = tmp_store("fingerprint");
        let mut rng = td_engine::SimRng::new(0x7d5e_12f0);
        for case in 0..60 {
            let (key, data) = gen_cell(&mut rng);
            let saved = store.save(key, &data).unwrap();
            let file = std::fs::read(store.cell_path(key)).unwrap();
            assert!(file == encode_cell_file(key, &data), "case {case}: file");
            assert_eq!(saved, trailer(&file), "case {case}: save");
            let (decoded, sum) = decode_cell_file(&file, Some(key)).unwrap();
            assert_eq!(sum, saved, "case {case}: decode");
            let again = encode_cell_file(key, &decoded);
            assert!(again == file, "case {case}: re-encoding differs");
            match store.load(key).unwrap() {
                Lookup::Hit(_, sum) => assert_eq!(sum, saved, "case {case}: load"),
                other => panic!("case {case}: {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(store.dir());
    }

    /// `file` with its header's version set to `version` and resealed
    /// with `sum`.
    fn reversioned(file: &[u8], version: u32, sum: fn(&[u8]) -> u64) -> Vec<u8> {
        let mut payload = file[..file.len() - 8].to_vec();
        payload[4..8].copy_from_slice(&version.to_le_bytes());
        let check = sum(&payload);
        payload.extend_from_slice(&check.to_le_bytes());
        payload
    }

    /// Any version but this build's is refused by name, whichever sum
    /// sealed it — version 1 was sealed with byte-wise FNV-1a. A
    /// hand-made file of another version that decoded would re-encode
    /// as version 2, and its fingerprint would no longer be the cell's.
    #[test]
    fn other_versions_are_refused_by_name() {
        let (key, data) = sample();
        let file = encode_cell_file(key, &data);
        for (version, sum) in [
            (0u32, td_engine::fnv1a_lanes as fn(&[u8]) -> u64),
            (1, td_engine::fnv1a),
            (3, td_engine::fnv1a_lanes),
        ] {
            let why = decode_cell_file(&reversioned(&file, version, sum), Some(key)).unwrap_err();
            assert_eq!(why, format!("cell format v{version}; this build reads v2"));
        }
    }

    /// A v1 cell left by an older build: `load` quarantines it with the
    /// version as the reason, and `verify` reports that reason.
    #[test]
    fn a_v1_cell_is_quarantined_by_name() {
        let store = tmp_store("v1");
        let (key, data) = sample();
        let v1 = reversioned(&encode_cell_file(key, &data), 1, td_engine::fnv1a);
        std::fs::write(store.cell_path(key), &v1).unwrap();
        let rep = store.verify(false).unwrap();
        assert_eq!(rep.intact, 0);
        assert_eq!(
            rep.corrupt,
            vec![(
                Store::cell_name(key),
                "cell format v1; this build reads v2".to_owned()
            )]
        );
        match store.load(key).unwrap() {
            Lookup::Quarantined(why) => assert_eq!(why, "cell format v1; this build reads v2"),
            other => panic!("{other:?}"),
        }
        assert!(store.quarantine_dir().join(Store::cell_name(key)).exists());
        assert!(matches!(store.load(key).unwrap(), Lookup::Miss));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncations_and_flips_never_panic() {
        let (key, data) = sample();
        let bytes = encode_cell_file(key, &data);
        for cut in 0..bytes.len() {
            assert!(
                decode_cell_file(&bytes[..cut], Some(key)).is_err(),
                "cut at {cut}"
            );
        }
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            assert!(decode_cell_file(&b, Some(key)).is_err(), "flip at byte {i}");
        }
    }
}
