//! Versioned binary serialization for simulation snapshots.
//!
//! A snapshot must round-trip **exactly**: restoring one and running to
//! the end has to be byte-identical to a run that was never interrupted.
//! That rules out text formats (float printing loses bits) and motivates
//! the plainest possible binary encoding:
//!
//! * all integers little-endian, fixed width;
//! * `f64` as its IEEE-754 bit pattern (`to_bits`/`from_bits`), so NaN
//!   payloads and signed zeros survive;
//! * byte strings and nested sections length-prefixed with a `u64`, so a
//!   reader can both skip unknown material and verify it consumed exactly
//!   what the writer produced;
//! * a 4-byte magic plus `u32` version header on every top-level artifact.
//!
//! Files whose every byte must be checked on read — the cell store's
//! `TDCE` cells and its `TDSH` sweep header — are *sealed*:
//! [`SnapWriter::seal`] appends the [`fnv1a_lanes`] sum of the payload
//! as an 8-byte little-endian trailer, and [`SnapReader::open_sealed`]
//! refuses another version by name, verifies the trailer and checks the
//! header before a field is read. Every file, sealed or not, lands on
//! disk through [`write_atomic`].
//!
//! Forward-compat stance: a reader **refuses** versions it does not know
//! ([`SnapError::UnsupportedVersion`]) rather than guessing. Snapshots are
//! working files for crash recovery and post-mortems, not archival
//! interchange; when the world's state shape changes, the version bumps
//! and old snapshots are simply re-created by re-running (every run is a
//! pure function of its seed).
//!
//! There is no reflection and no derive: each stateful type writes its
//! fields in a fixed order and reads them back in the same order. Tedious,
//! but every byte is accounted for, and a mismatch surfaces as a structured
//! [`SnapError`] instead of silently corrupted state.

use crate::{SimDuration, SimRng, SimTime};
use std::io;
use std::ops::RangeInclusive;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a snapshot could not be decoded or applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the expected field.
    Truncated,
    /// The leading magic bytes did not match.
    BadMagic,
    /// The artifact's version is newer (or older) than this build decodes.
    UnsupportedVersion(u32),
    /// The bytes decoded but their shape is impossible (bad tag, bad
    /// length, inconsistent internal structure).
    Corrupt(String),
    /// The snapshot is valid but does not fit the restore target (wrong
    /// topology, wrong seed, wrong endpoint kind).
    Mismatch(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapError::Corrupt(why) => write!(f, "corrupt snapshot: {why}"),
            SnapError::Mismatch(why) => write!(f, "snapshot does not match target: {why}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte string — the workspace's byte-wise stable hash:
/// the [`SnapWriter::hashing`] sink, seed derivation tags and golden
/// output hashes. Its xor-multiply chain runs one byte per multiply and
/// checksums no file format: sealed files carry [`fnv1a_lanes`].
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV_OFFSET, bytes)
}

/// Continue an FNV-1a hash over more bytes: the hash streams, so
/// `fnv1a_continue(fnv1a(a), b) == fnv1a(a ‖ b)`.
pub fn fnv1a_continue(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// One step of [`fnv1a_lanes`]: FNV-1a's xor-multiply on a whole word,
/// then a shift-xor that folds the product's high bits back down. For a
/// fixed `w` it is a bijection of `h` (odd multiply, xorshift), and for
/// a fixed `h` a bijection of `w`.
#[inline(always)]
fn lane_step(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(FNV_PRIME);
    h ^ (h >> 29)
}

/// A four-lane, word-wise FNV-1a: the trailer of every sealed file
/// ([`SnapWriter::seal`]).
///
/// Lane *i* starts at `lane_step(FNV_OFFSET, i)` and folds the
/// little-endian `u64` words *i*, *i*+4, *i*+8, … of `bytes`. Then the
/// four lane states, the < 32-byte tail (as zero-padded little-endian
/// words) and the length are folded, in that order, into one state
/// starting at the offset basis, with the same step.
///
/// Every step is a bijection of the state for a fixed input and of the
/// input for a fixed state, so changing any one word — hence flipping
/// any one bit — changes the result with certainty, as byte-wise
/// [`fnv1a`] does. The four chains are independent, so the multiplies
/// overlap: it runs at memory speed where [`fnv1a`] waits on one
/// multiply per byte. It does not stream and is not [`fnv1a`]'s value.
pub fn fnv1a_lanes(bytes: &[u8]) -> u64 {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    let mut lanes: [u64; 4] = std::array::from_fn(|i| lane_step(FNV_OFFSET, i as u64));
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = lane_step(*lane, word(w));
        }
    }
    let mut h = lanes.into_iter().fold(FNV_OFFSET, lane_step);
    for tail in blocks.remainder().chunks(8) {
        let mut w = [0u8; 8];
        w[..tail.len()].copy_from_slice(tail);
        h = lane_step(h, u64::from_le_bytes(w));
    }
    lane_step(h, bytes.len() as u64)
}

/// Distinguishes the temp files of one process's concurrent writes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write `bytes` to `path` atomically and durably — the one sequence
/// every file of the workspace is written with: a sibling temp file
/// named uniquely per write (`<name>.<pid>.<n>.tmp`), `sync_all`, rename
/// over the target, then a best-effort fsync of the directory. A crash
/// leaves the old file or the new one, never a torn hybrid, and at worst
/// a stale `.tmp`; a write that fails with an error removes its temp
/// file. Concurrent writers of one target need no lock.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("no file name in {path:?}"),
        )
    })?;
    // Pid against other processes, counter against this one's other
    // threads writing the same name: a shared temp file gets torn.
    let mut tmp_name = name.to_os_string();
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let mut f = std::fs::File::create(&tmp)?;
    let written = io::Write::write_all(&mut f, bytes).and_then(|()| f.sync_all());
    drop(f);
    if let Err(e) = written.and_then(|()| std::fs::rename(&tmp, path)) {
        // Best effort: the write's own error is the one worth reporting.
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    // Make the rename itself durable where the platform allows opening
    // a directory; failure here loses durability, not atomicity.
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Ok(d) = std::fs::File::open(dir.unwrap_or(Path::new("."))) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Where a [`SnapWriter`]'s bytes go: an in-memory buffer (the normal
/// snapshot path) or a streaming FNV-1a fold that never materializes them
/// (the `state_hash` dedup path — hashing a large world must not allocate
/// a snapshot-sized buffer per visited state).
enum Sink {
    Buf(Vec<u8>),
    Hash { h: u64, len: u64 },
}

/// Append-only encoder for snapshot bytes.
pub struct SnapWriter {
    sink: Sink,
}

impl Default for SnapWriter {
    fn default() -> Self {
        SnapWriter::new()
    }
}

impl SnapWriter {
    /// An empty writer (for nested, length-prefixed sections).
    pub fn new() -> Self {
        SnapWriter {
            sink: Sink::Buf(Vec::new()),
        }
    }

    /// A writer primed with a top-level header: 4 magic bytes + version.
    pub fn with_header(magic: &[u8; 4], version: u32) -> Self {
        let mut w = SnapWriter::new();
        w.push(magic);
        w.write_u32(version);
        w
    }

    /// A streaming hasher: every write folds into a 64-bit FNV-1a hash
    /// instead of a buffer, so hashing a state costs O(1) memory. The
    /// resulting [`SnapWriter::finish_hash`] equals the FNV-1a hash of the
    /// exact byte stream a buffer-mode writer would have produced for the
    /// same write sequence (pinned by a test below).
    pub fn hashing() -> Self {
        SnapWriter {
            sink: Sink::Hash {
                h: FNV_OFFSET,
                len: 0,
            },
        }
    }

    /// A streaming hasher primed with the same header bytes as
    /// [`SnapWriter::with_header`], so a codec version bump changes every
    /// state hash (stale dedup sets can never alias across versions).
    pub fn hashing_with_header(magic: &[u8; 4], version: u32) -> Self {
        let mut w = SnapWriter::hashing();
        w.push(magic);
        w.write_u32(version);
        w
    }

    /// Funnel for every encoded byte, whichever sink is active.
    fn push(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Buf(buf) => buf.extend_from_slice(bytes),
            Sink::Hash { h, len } => {
                *h = fnv1a_continue(*h, bytes);
                *len += bytes.len() as u64;
            }
        }
    }

    /// Bytes written so far (counted, not stored, in hashing mode).
    pub fn len(&self) -> usize {
        match &self.sink {
            Sink::Buf(buf) => buf.len(),
            Sink::Hash { len, .. } => *len as usize,
        }
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the writer, yielding the encoded bytes. Panics on a
    /// [`SnapWriter::hashing`] writer — a hashing sink never stored them.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.sink {
            Sink::Buf(buf) => buf,
            Sink::Hash { .. } => panic!("a hashing SnapWriter has no bytes to yield"),
        }
    }

    /// The streamed FNV-1a hash. Panics on a buffer-mode writer: callers
    /// that want a hash must opt into the streaming sink up front.
    pub fn finish_hash(&self) -> u64 {
        match &self.sink {
            Sink::Hash { h, .. } => *h,
            Sink::Buf(_) => panic!("finish_hash on a buffer-mode SnapWriter"),
        }
    }

    /// Write one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.push(&[v]);
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.push(&v.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.push(&v.to_le_bytes());
    }

    /// Write a little-endian `i64`.
    pub fn write_i64(&mut self, v: i64) {
        self.push(&v.to_le_bytes());
    }

    /// Write an `f64` as its exact IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Write a bool as one byte (0 or 1).
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Write a length-prefixed byte string.
    pub fn write_bytes(&mut self, b: &[u8]) {
        self.write_u64(b.len() as u64);
        self.push(b);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Write a [`SimTime`] (nanoseconds).
    pub fn write_time(&mut self, t: SimTime) {
        self.write_u64(t.as_nanos());
    }

    /// Write a [`SimDuration`] (nanoseconds).
    pub fn write_dur(&mut self, d: SimDuration) {
        self.write_u64(d.as_nanos());
    }

    /// Write a [`SimRng`]'s full internal state.
    pub fn write_rng(&mut self, rng: &SimRng) {
        for word in rng.state() {
            self.write_u64(word);
        }
    }

    /// Consume the writer and seal its bytes: the payload, then its
    /// [`fnv1a_lanes`] sum as an 8-byte little-endian trailer. Returns
    /// the file and the trailer value, which [`SnapReader::open_sealed`]
    /// returns again for the same file.
    pub fn seal(self) -> (Vec<u8>, u64) {
        let mut file = self.into_bytes();
        let sum = fnv1a_lanes(&file);
        file.extend_from_slice(&sum.to_le_bytes());
        (file, sum)
    }

    /// Write a nested section: the inner writer's bytes, length-prefixed.
    /// The matching [`SnapReader::read_section`] verifies the section was
    /// consumed exactly, so a save/load mismatch in any component fails
    /// loudly at its own boundary instead of corrupting every later field.
    ///
    /// The inner writer must be buffer-mode (sections need their length up
    /// front, which a hashing sink cannot provide); the *outer* writer may
    /// be either — hashing a world streams each small section buffer
    /// through the fold without ever holding the whole snapshot.
    pub fn write_section(&mut self, inner: SnapWriter) {
        match inner.sink {
            Sink::Buf(buf) => self.write_bytes(&buf),
            Sink::Hash { .. } => panic!("a section writer must be buffer-mode"),
        }
    }
}

/// Sequential decoder over snapshot bytes.
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Open a file [`SnapWriter::seal`] wrote under `magic` and
    /// `version`. A file of another version is refused by name — "`what`
    /// format v*N*; this build reads v*M*" — before its trailer is
    /// checked, so one another build sealed another way does not read as
    /// damage. Then the trailer is verified and the header checked.
    /// Returns a reader over the payload, positioned after the header,
    /// and the verified trailer value.
    pub fn open_sealed(
        bytes: &'a [u8],
        magic: &[u8; 4],
        version: u32,
        what: &str,
    ) -> Result<(SnapReader<'a>, u64), String> {
        match SnapReader::new(bytes).expect_header(magic, 0..=u32::MAX) {
            Ok(v) if v != version => {
                return Err(format!("{what} format v{v}; this build reads v{version}"))
            }
            _ => {}
        }
        let Some(end) = bytes.len().checked_sub(8) else {
            let n = bytes.len();
            return Err(format!("file is {n} byte(s), too short for a trailer"));
        };
        let (payload, trailer) = bytes.split_at(end);
        let recorded = u64::from_le_bytes(trailer.try_into().expect("8 bytes"));
        let sum = fnv1a_lanes(payload);
        if recorded != sum {
            return Err(format!(
                "checksum mismatch (expected {sum:016x} from the payload, \
                 found {recorded:016x} in the trailer)"
            ));
        }
        let mut r = SnapReader::new(payload);
        r.expect_header(magic, version..=version)
            .map_err(|e| e.to_string())?;
        Ok((r, sum))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Check the 4-byte magic and that the version after it is one of
    /// `versions` — the ones this build decodes — and return the version.
    /// Every top-level format checks its header here, so none can accept a
    /// version it never wrote.
    pub fn expect_header(
        &mut self,
        magic: &[u8; 4],
        versions: RangeInclusive<u32>,
    ) -> Result<u32, SnapError> {
        let got = self.take(4)?;
        if got != magic {
            return Err(SnapError::BadMagic);
        }
        let version = self.read_u32()?;
        if !versions.contains(&version) {
            return Err(SnapError::UnsupportedVersion(version));
        }
        Ok(version)
    }

    /// Error unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt(format!(
                "{} trailing bytes",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn read_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian `i64`.
    pub fn read_i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its exact bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Read a bool; any byte other than 0 or 1 is corrupt.
    pub fn read_bool(&mut self) -> Result<bool, SnapError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Read a `u64` element count (or byte length) that the rest of the
    /// input must be able to hold: every encoded element costs at least
    /// one byte, so a count beyond [`SnapReader::remaining`] is
    /// [`SnapError::Truncated`] here — before anything is allocated for
    /// it — rather than wherever the element loop would run dry.
    pub fn read_len(&mut self) -> Result<usize, SnapError> {
        let len = self.read_u64()?;
        if len > self.remaining() as u64 {
            return Err(SnapError::Truncated);
        }
        Ok(len as usize)
    }

    /// Read a length-prefixed byte string (borrowed from the input).
    pub fn read_bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.read_len()?;
        self.take(len)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, SnapError> {
        let b = self.read_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| SnapError::Corrupt("invalid UTF-8 string".into()))
    }

    /// Read a [`SimTime`].
    pub fn read_time(&mut self) -> Result<SimTime, SnapError> {
        Ok(SimTime::from_nanos(self.read_u64()?))
    }

    /// Read a [`SimDuration`].
    pub fn read_dur(&mut self) -> Result<SimDuration, SnapError> {
        Ok(SimDuration::from_nanos(self.read_u64()?))
    }

    /// Read a [`SimRng`] state.
    pub fn read_rng(&mut self) -> Result<SimRng, SnapError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = self.read_u64()?;
        }
        Ok(SimRng::from_state(s))
    }

    /// Read a nested section written with [`SnapWriter::write_section`]
    /// and decode it with `f`, which must consume the section exactly.
    pub fn read_section<T>(
        &mut self,
        f: impl FnOnce(&mut SnapReader<'_>) -> Result<T, SnapError>,
    ) -> Result<T, SnapError> {
        let bytes = self.read_bytes()?;
        let mut inner = SnapReader::new(bytes);
        let v = f(&mut inner)?;
        inner.finish()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_exactly() {
        let mut w = SnapWriter::new();
        w.write_u8(7);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(u64::MAX);
        w.write_i64(-42);
        w.write_f64(-0.0);
        w.write_f64(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        w.write_bool(true);
        w.write_bytes(b"abc");
        w.write_str("déjà vu");
        w.write_time(SimTime::from_nanos(123_456_789));
        w.write_dur(SimDuration::from_nanos(42));
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_i64().unwrap(), -42);
        assert_eq!(r.read_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.read_f64().unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_bytes().unwrap(), b"abc");
        assert_eq!(r.read_str().unwrap(), "déjà vu");
        assert_eq!(r.read_time().unwrap(), SimTime::from_nanos(123_456_789));
        assert_eq!(r.read_dur().unwrap(), SimDuration::from_nanos(42));
        r.finish().unwrap();
    }

    #[test]
    fn rng_state_round_trips_and_continues_identically() {
        let mut rng = SimRng::new(99);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut w = SnapWriter::new();
        w.write_rng(&rng);
        let bytes = w.into_bytes();
        let mut restored = SnapReader::new(&bytes).read_rng().unwrap();
        for _ in 0..100 {
            assert_eq!(restored.next_u64(), rng.next_u64());
        }
    }

    #[test]
    fn header_is_checked() {
        let w = SnapWriter::with_header(b"TEST", 3);
        let bytes = w.into_bytes();
        let header = |magic, versions| SnapReader::new(&bytes).expect_header(magic, versions);
        assert_eq!(header(b"TEST", 3..=3), Ok(3));
        assert_eq!(header(b"TEST", 1..=3), Ok(3));
        assert_eq!(header(b"NOPE", 3..=3), Err(SnapError::BadMagic));
        // A version outside the range is refused on either side of it.
        assert_eq!(
            header(b"TEST", 1..=2),
            Err(SnapError::UnsupportedVersion(3))
        );
        assert_eq!(
            header(b"TEST", 4..=9),
            Err(SnapError::UnsupportedVersion(3))
        );
        assert_eq!(
            SnapReader::new(&bytes[..2])
                .expect_header(b"TEST", 3..=3)
                .unwrap_err(),
            SnapError::Truncated
        );
    }

    #[test]
    fn truncation_is_detected_not_panicked() {
        let mut w = SnapWriter::new();
        w.write_u64(5);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..3]);
        assert_eq!(r.read_u64().unwrap_err(), SnapError::Truncated);
        // A length prefix larger than the remaining input is truncation,
        // not an attempted huge allocation.
        let mut w = SnapWriter::new();
        w.write_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.read_bytes().unwrap_err(), SnapError::Truncated);
    }

    #[test]
    fn read_len_bounds_a_count_by_the_bytes_left() {
        // Eight bytes follow the count: room for 8 one-byte elements, not
        // 9, and never for a count no allocation could satisfy.
        for (count, want) in [
            (0, Ok(0)),
            (8, Ok(8)),
            (9, Err(SnapError::Truncated)),
            (u64::MAX, Err(SnapError::Truncated)),
        ] {
            let mut w = SnapWriter::new();
            w.write_u64(count);
            w.write_u64(0);
            assert_eq!(SnapReader::new(&w.into_bytes()).read_len(), want);
        }
    }

    #[test]
    fn bad_bool_byte_is_corrupt() {
        let mut r = SnapReader::new(&[2]);
        assert!(matches!(r.read_bool(), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn sections_verify_exact_consumption() {
        let mut inner = SnapWriter::new();
        inner.write_u64(1);
        inner.write_u64(2);
        let mut w = SnapWriter::new();
        w.write_section(inner);
        let bytes = w.into_bytes();

        // Reading both fields succeeds.
        let mut r = SnapReader::new(&bytes);
        let (a, b) = r
            .read_section(|s| Ok((s.read_u64()?, s.read_u64()?)))
            .unwrap();
        assert_eq!((a, b), (1, 2));
        r.finish().unwrap();

        // Under-consuming the section is an error at the boundary.
        let mut r = SnapReader::new(&bytes);
        let err = r.read_section(|s| s.read_u64()).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err}");
    }

    /// The published FNV-1a 64-bit test vectors, and the streaming law.
    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_continue(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    /// A fixed, irregular byte pattern.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n as u32)
            .map(|i| (i.wrapping_mul(0x9e37_79b9) >> 24) as u8)
            .collect()
    }

    /// [`fnv1a_lanes`] as its rustdoc states it, one word at a time.
    fn lanes_by_the_doc(bytes: &[u8]) -> u64 {
        let full = bytes.len() / 32 * 32;
        let mut lanes: Vec<u64> = (0..4).map(|i| lane_step(FNV_OFFSET, i)).collect();
        for (k, w) in bytes[..full].chunks(8).enumerate() {
            lanes[k % 4] = lane_step(lanes[k % 4], u64::from_le_bytes(w.try_into().unwrap()));
        }
        let mut h = FNV_OFFSET;
        for lane in lanes {
            h = lane_step(h, lane);
        }
        let mut tail = bytes[full..].to_vec();
        tail.resize(tail.len().div_ceil(8) * 8, 0);
        for w in tail.chunks(8) {
            h = lane_step(h, u64::from_le_bytes(w.try_into().unwrap()));
        }
        lane_step(h, bytes.len() as u64)
    }

    /// Pinned: cell-store trailers are these values, so a change here is
    /// a TDCE / TDSH format change. Lengths straddle the tail and lane
    /// edges.
    #[test]
    fn fnv1a_lanes_values_are_pinned() {
        for (len, want) in [
            (0, 0x3726_6f7c_ca56_4939u64),
            (1, 0x0c98_a90b_b45b_2276),
            (31, 0x1337_d23f_5d2c_c9db),
            (32, 0x7098_d566_2585_8dec),
            (33, 0xd44e_ed97_18ee_6a3c),
            (64, 0x8907_f777_4d97_c76e),
            (97, 0xe600_d871_af76_e4ae),
            (1 << 20, 0x1133_8a8f_2af3_e653),
        ] {
            let bytes = pattern(len);
            let got = fnv1a_lanes(&bytes);
            assert_eq!(got, lanes_by_the_doc(&bytes), "{len} bytes: doc");
            assert_eq!(got, want, "{len} bytes: {got:#018x}");
        }
    }

    /// The guarantee the store's trailer rests on: every single-bit flip
    /// of every buffer up to three blocks plus a tail changes the sum.
    #[test]
    fn fnv1a_lanes_detects_every_single_bit_flip() {
        for len in 0..=97 {
            let mut bytes = pattern(len);
            let clean = fnv1a_lanes(&bytes);
            for bit in 0..len * 8 {
                bytes[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(fnv1a_lanes(&bytes), clean, "len {len}, bit {bit}");
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// Lanes are not summed commutatively: swapping two words of
    /// different lanes changes the sum, and so does a zero byte appended.
    #[test]
    fn fnv1a_lanes_is_order_sensitive() {
        let bytes = pattern(96);
        let clean = fnv1a_lanes(&bytes);
        // Word pairs (a, b): same block, other block, last block.
        for (a, b) in [(0, 1), (0, 3), (1, 6), (3, 8), (2, 11)] {
            let mut swapped = bytes.clone();
            for i in 0..8 {
                swapped.swap(a * 8 + i, b * 8 + i);
            }
            assert_ne!(fnv1a_lanes(&swapped), clean, "words {a} and {b}");
        }
        // A zero byte appended moves the length, not a word.
        let mut longer = bytes.clone();
        longer.push(0);
        assert_ne!(fnv1a_lanes(&longer), clean);
        assert_ne!(fnv1a_lanes(&[0; 32]), fnv1a_lanes(&[0; 31]));
    }

    #[test]
    fn sealed_files_open_past_their_header() {
        let mut w = SnapWriter::with_header(b"TEST", 2);
        w.write_u64(7);
        let (file, sum) = w.seal();
        assert_eq!(file[file.len() - 8..], sum.to_le_bytes());
        let (mut r, got) = SnapReader::open_sealed(&file, b"TEST", 2, "test").unwrap();
        assert_eq!((r.read_u64(), got), (Ok(7), sum));
        r.finish().expect("the trailer is not part of the payload");

        let open = |bytes: &[u8]| SnapReader::open_sealed(bytes, b"TEST", 2, "test").map(|_| ());
        // Another version is refused by name, whatever its trailer.
        let mut v3 = SnapWriter::with_header(b"TEST", 3);
        v3.write_u64(7);
        let v3 = v3.into_bytes();
        assert_eq!(open(&v3), Err("test format v3; this build reads v2".into()));
        let mut other = SnapWriter::with_header(b"NOPE", 2);
        other.write_u64(7);
        let err = open(&other.seal().0).unwrap_err();
        assert_eq!(err, SnapError::BadMagic.to_string());
        for i in 0..file.len() {
            let mut flipped = file.clone();
            flipped[i] ^= 0x20;
            assert!(open(&flipped).is_err(), "flip at {i}");
        }
        for cut in 0..file.len() {
            assert!(open(&file[..cut]).is_err(), "cut at {cut}");
        }
        assert!(open(&file[..9]).unwrap_err().contains("checksum mismatch"));
    }

    #[test]
    fn write_atomic_replaces_the_target_and_leaves_no_temp_file() {
        let dir = std::env::temp_dir().join(format!("td-write-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.bin"]);
        assert!(write_atomic(&dir.join(".."), b"x").is_err(), "no file name");
        // A rename onto a non-empty directory fails after the temp file
        // was written: the error is returned and the temp file removed.
        let occupied = dir.join("occupied");
        std::fs::create_dir_all(occupied.join("inner")).unwrap();
        assert!(write_atomic(&occupied, b"x").is_err(), "onto a directory");
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        names.sort();
        assert_eq!(names, ["occupied", "out.bin"], "a temp file outlived it");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Drive the same mixed write sequence through either sink.
    fn write_everything(w: &mut SnapWriter) {
        w.write_u8(9);
        w.write_u32(0xCAFE_F00D);
        w.write_u64(1 << 63);
        w.write_i64(-7);
        w.write_f64(3.5);
        w.write_bool(false);
        w.write_bytes(b"payload");
        w.write_str("nøtes");
        w.write_time(SimTime::from_nanos(55));
        w.write_dur(SimDuration::from_nanos(66));
        w.write_rng(&SimRng::new(4));
        let mut section = SnapWriter::new();
        section.write_u64(1234);
        w.write_section(section);
    }

    #[test]
    fn hashing_sink_matches_fnv_of_buffered_bytes() {
        let mut buffered = SnapWriter::with_header(b"TEST", 7);
        write_everything(&mut buffered);
        let mut hashing = SnapWriter::hashing_with_header(b"TEST", 7);
        write_everything(&mut hashing);
        assert_eq!(hashing.len(), buffered.len());
        let bytes = buffered.into_bytes();
        assert_eq!(hashing.finish_hash(), fnv1a(&bytes));
    }

    #[test]
    fn hashing_sink_is_order_and_value_sensitive() {
        let mut a = SnapWriter::hashing();
        a.write_u64(1);
        a.write_u64(2);
        let mut b = SnapWriter::hashing();
        b.write_u64(2);
        b.write_u64(1);
        assert_ne!(a.finish_hash(), b.finish_hash());
        let mut c = SnapWriter::hashing();
        c.write_u64(1);
        c.write_u64(3);
        assert_ne!(a.finish_hash(), c.finish_hash());
    }

    #[test]
    #[should_panic(expected = "no bytes to yield")]
    fn hashing_sink_refuses_into_bytes() {
        let mut w = SnapWriter::hashing();
        w.write_u8(1);
        let _ = w.into_bytes();
    }

    #[test]
    #[should_panic(expected = "finish_hash on a buffer-mode")]
    fn buffer_sink_refuses_finish_hash() {
        let w = SnapWriter::new();
        let _ = w.finish_hash();
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut w = SnapWriter::new();
        w.write_u8(1);
        w.write_u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.read_u8().unwrap();
        assert!(matches!(r.finish(), Err(SnapError::Corrupt(_))));
    }
}
