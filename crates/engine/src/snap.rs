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
use std::path::Path;

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

/// FNV-1a over a byte string — the workspace's one byte-wise stable
/// hash: the [`SnapWriter::hashing`] sink, journal line checksums, serve
/// store trailers, seed derivation tags and golden output hashes.
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

/// Write `bytes` to `path` atomically against a crash of this process: a
/// sibling temp file is written in full, then renamed over the target,
/// so any instant leaves either the old file or the new one — never a
/// torn hybrid. The temp name is the *full* file name plus `.tmp`, so
/// `x.tdsnap` and `x.tdmc` written into one directory do not share a
/// staging file. Not fsync'd: this is for regenerable outputs (reports,
/// post-mortems); the serve store has its own durable writer.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("no file name in {path:?}"),
        )
    })?;
    let mut tmp_name = name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
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

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Check the 4-byte magic and return the version that follows.
    pub fn expect_header(&mut self, magic: &[u8; 4]) -> Result<u32, SnapError> {
        let got = self.take(4)?;
        if got != magic {
            return Err(SnapError::BadMagic);
        }
        self.read_u32()
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
        assert_eq!(SnapReader::new(&bytes).expect_header(b"TEST").unwrap(), 3);
        assert_eq!(
            SnapReader::new(&bytes).expect_header(b"NOPE").unwrap_err(),
            SnapError::BadMagic
        );
        assert_eq!(
            SnapReader::new(&bytes[..2])
                .expect_header(b"TEST")
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
