//! # gpu-snapshot — checkpoint codec and content-addressed result store
//!
//! The workspace builds fully offline (no serde, no external crates), so
//! simulator checkpointing and the sweep result cache rest on this small,
//! std-only foundation:
//!
//! * [`Encoder`]/[`Decoder`] — a little-endian binary codec with a framed
//!   envelope: 4-byte magic, a [`FORMAT_VERSION`], the payload length, the
//!   payload, and an FNV-1a-64 checksum of the payload. Truncated,
//!   corrupted or wrong-version inputs are rejected with a typed
//!   [`SnapshotError`], never a panic.
//! * [`StableHasher`] — FNV-1a 64-bit, used to derive the content hash of a
//!   (configuration, workload) pair. Unlike `std::hash`, its output is
//!   pinned: the same bytes hash identically on every platform and every
//!   build, which is what makes on-disk cache keys and `content_hash`
//!   fields meaningful across runs.
//! * [`store`] — atomic file I/O for checkpoints (`ckpt-<cycle>.bin`,
//!   written via temp-file + rename so a killed writer never leaves a
//!   half-checkpoint behind) and for the content-addressed cache
//!   (`<key:016x>.bin`, silently recomputed when unreadable).
//!
//! Every serialized structure in the workspace implements
//! `encode_state(&self, &mut Encoder)` plus either
//! `restore_state(&mut self, &mut Decoder)` (overwrite dynamic state of an
//! already-constructed component) or `decode(&mut Decoder) -> Result<Self>`
//! (self-contained values); this crate deliberately knows nothing about
//! those types.
//!
//! # Examples
//!
//! ```
//! use gpu_snapshot::{Decoder, Encoder};
//!
//! let mut e = Encoder::new();
//! e.u64(42);
//! e.str("hello");
//! let framed = e.finish();
//!
//! let mut d = Decoder::open(&framed).unwrap();
//! assert_eq!(d.u64().unwrap(), 42);
//! assert_eq!(d.str().unwrap(), "hello");
//! d.expect_end().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod store;

/// Magic bytes opening every framed snapshot ("GPU Snapshot").
pub const MAGIC: [u8; 4] = *b"GSNP";

/// Current snapshot format version. Bump on any change to the encoding of
/// any serialized structure; old checkpoints and cache entries are rejected
/// (checkpoints) or transparently recomputed (cache) rather than
/// misinterpreted. See DESIGN.md ("Checkpoint format") for the
/// compatibility policy. Version 2: the configuration is serialized as a
/// self-versioned architecture-description frame (`gpu-arch`) instead of
/// flat `GpuConfig` fields. Version 3: pending loads and load records carry
/// the issuing instruction's program counter (static-analyzer cross-checks).
/// Version 4: sectored cache arrays serialize per-sector valid/reserved/dirty
/// masks and a sectors-per-line count, and sliced L2 partitions serialize one
/// bank (queue, tags, MSHRs, hit pipe) per slice in index order.
pub const FORMAT_VERSION: u32 = 4;

/// Why a snapshot could not be decoded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Input ended before the expected data (truncation).
    UnexpectedEof {
        /// Bytes needed by the failing read.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// The input does not start with [`MAGIC`] — not a snapshot at all.
    BadMagic,
    /// The snapshot was written by an incompatible format version.
    UnsupportedVersion(u32),
    /// The payload checksum does not match (bit rot or truncated write).
    ChecksumMismatch {
        /// Checksum recorded in the envelope.
        expected: u64,
        /// Checksum of the payload as read.
        found: u64,
    },
    /// A decoded value is structurally impossible (bad enum tag, non-UTF-8
    /// string, length overflow, failed invariant).
    InvalidValue(&'static str),
    /// Decoding finished but payload bytes remain.
    TrailingBytes(usize),
    /// Filesystem error while reading or writing a snapshot.
    Io(std::io::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of snapshot: needed {needed} byte(s), {remaining} remaining"
            ),
            SnapshotError::BadMagic => f.write_str("bad magic: not a gpu-snapshot file"),
            SnapshotError::UnsupportedVersion(v) => write!(
                f,
                "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
            ),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: envelope says {expected:#018x}, payload hashes to {found:#018x}"
            ),
            SnapshotError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after decoding finished")
            }
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.bytes(bytes);
    h.finish()
}

/// A platform-independent, build-independent 64-bit hasher (FNV-1a).
///
/// Used both for snapshot payload checksums and for deriving the stable
/// content hash that keys the sweep cache and the `content_hash` field of
/// run summaries. All multi-byte writes fold in little-endian order.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        StableHasher {
            state: Self::OFFSET,
        }
    }

    /// Folds in one byte.
    pub fn u8(&mut self, v: u8) {
        self.state = (self.state ^ u64::from(v)).wrapping_mul(Self::PRIME);
    }

    /// Folds in a byte slice.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.u8(b);
        }
    }

    /// Folds in a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in an `i64` (little-endian two's complement).
    pub fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds in a `usize` widened to `u64` so 32- and 64-bit hosts agree.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Folds in a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Folds in a string as its length followed by its UTF-8 bytes
    /// (length-prefixing keeps `("ab","c")` distinct from `("a","bc")`).
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// The accumulated hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Serializer producing a framed snapshot.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (bit-exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Payload bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing was written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Seals the payload into the framed envelope:
    /// `MAGIC ‖ version ‖ payload_len ‖ payload ‖ fnv1a64(payload)`.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + 24);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        let checksum = fnv1a(&self.buf);
        out.extend_from_slice(&self.buf);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

/// Deserializer over a validated snapshot payload.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Validates the envelope (magic, version, length, checksum) and
    /// returns a decoder positioned at the start of the payload.
    ///
    /// # Errors
    ///
    /// Every malformed input maps to a typed [`SnapshotError`]; this never
    /// panics on untrusted bytes.
    pub fn open(framed: &'a [u8]) -> Result<Self, SnapshotError> {
        if framed.len() < 16 {
            return Err(SnapshotError::UnexpectedEof {
                needed: 16,
                remaining: framed.len(),
            });
        }
        if framed[0..4] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(framed[4..8].try_into().expect("4 bytes"));
        if version != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(version));
        }
        let payload_len = u64::from_le_bytes(framed[8..16].try_into().expect("8 bytes"));
        let payload_len: usize = payload_len
            .try_into()
            .map_err(|_| SnapshotError::InvalidValue("payload length overflows usize"))?;
        let total = 16usize
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(8))
            .ok_or(SnapshotError::InvalidValue(
                "payload length overflows usize",
            ))?;
        if framed.len() < total {
            return Err(SnapshotError::UnexpectedEof {
                needed: total,
                remaining: framed.len(),
            });
        }
        if framed.len() > total {
            return Err(SnapshotError::TrailingBytes(framed.len() - total));
        }
        let payload = &framed[16..16 + payload_len];
        let expected =
            u64::from_le_bytes(framed[16 + payload_len..total].try_into().expect("8 bytes"));
        let found = fnv1a(payload);
        if expected != found {
            return Err(SnapshotError::ChecksumMismatch { expected, found });
        }
        Ok(Decoder {
            data: payload,
            pos: 0,
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let remaining = self.data.len() - self.pos;
        if remaining < n {
            return Err(SnapshotError::UnexpectedEof {
                needed: n,
                remaining,
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `usize` (written as `u64`; errors if it overflows the host).
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        self.u64()?
            .try_into()
            .map_err(|_| SnapshotError::InvalidValue("usize overflows host width"))
    }

    /// Reads a `bool`; any byte other than 0/1 is invalid.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::InvalidValue("bool byte not 0 or 1")),
        }
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads an `Option<u64>`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapshotError> {
        Ok(if self.bool()? {
            Some(self.u64()?)
        } else {
            None
        })
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let n = self.usize()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        std::str::from_utf8(self.bytes()?)
            .map_err(|_| SnapshotError::InvalidValue("string is not UTF-8"))
    }

    /// Payload bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::TrailingBytes`] if bytes remain.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes(self.remaining()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.usize(12345);
        e.bool(true);
        e.bool(false);
        e.f64(std::f64::consts::PI);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        e.bytes(&[1, 2, 3]);
        e.str("snapshot");
        let framed = e.finish();

        let mut d = Decoder::open(&framed).unwrap();
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.usize().unwrap(), 12345);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(d.str().unwrap(), "snapshot");
        d.expect_end().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut framed = Encoder::new().finish();
        framed[0] = b'X';
        assert!(matches!(
            Decoder::open(&framed),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut framed = Encoder::new().finish();
        framed[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Decoder::open(&framed),
            Err(SnapshotError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn previous_format_versions_rejected_typed() {
        // Pre-sectoring checkpoints (v1–v3) decode the cache arrays
        // differently; they must be refused outright, never reinterpreted.
        for old in 1..FORMAT_VERSION {
            let mut framed = Encoder::new().finish();
            framed[4..8].copy_from_slice(&old.to_le_bytes());
            match Decoder::open(&framed) {
                Err(SnapshotError::UnsupportedVersion(v)) => assert_eq!(v, old),
                other => panic!("version {old} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let mut e = Encoder::new();
        e.u64(1);
        e.str("payload");
        let framed = e.finish();
        for n in 0..framed.len() {
            let err = Decoder::open(&framed[..n]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::UnexpectedEof { .. } | SnapshotError::ChecksumMismatch { .. }
                ),
                "truncated to {n}: {err}"
            );
        }
    }

    #[test]
    fn corruption_rejected_at_every_payload_byte() {
        let mut e = Encoder::new();
        e.u64(0x0123_4567_89AB_CDEF);
        let framed = e.finish();
        for i in 16..framed.len() - 8 {
            let mut bad = framed.clone();
            bad[i] ^= 0xFF;
            assert!(
                matches!(
                    Decoder::open(&bad),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "flipping payload byte {i} must break the checksum"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut framed = Encoder::new().finish();
        framed.push(0);
        assert!(matches!(
            Decoder::open(&framed),
            Err(SnapshotError::TrailingBytes(1))
        ));

        let mut e = Encoder::new();
        e.u64(1);
        e.u64(2);
        let framed = e.finish();
        let mut d = Decoder::open(&framed).unwrap();
        d.u64().unwrap();
        assert!(matches!(
            d.expect_end(),
            Err(SnapshotError::TrailingBytes(8))
        ));
    }

    #[test]
    fn reading_past_end_is_a_typed_error() {
        let framed = Encoder::new().finish();
        let mut d = Decoder::open(&framed).unwrap();
        assert!(matches!(
            d.u64(),
            Err(SnapshotError::UnexpectedEof { needed: 8, .. })
        ));
    }

    #[test]
    fn invalid_bool_and_utf8_rejected() {
        let mut e = Encoder::new();
        e.u8(2);
        let framed = e.finish();
        let mut d = Decoder::open(&framed).unwrap();
        assert!(matches!(d.bool(), Err(SnapshotError::InvalidValue(_))));

        let mut e = Encoder::new();
        e.bytes(&[0xFF, 0xFE]);
        let framed = e.finish();
        let mut d = Decoder::open(&framed).unwrap();
        assert!(matches!(d.str(), Err(SnapshotError::InvalidValue(_))));
    }

    #[test]
    fn stable_hasher_is_pinned() {
        // FNV-1a test vectors: the empty input hashes to the offset basis,
        // and "a" to the published constant.
        assert_eq!(StableHasher::new().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = StableHasher::new();
        h.u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        // Length prefixing separates field boundaries.
        let mut ab_c = StableHasher::new();
        ab_c.str("ab");
        ab_c.str("c");
        let mut a_bc = StableHasher::new();
        a_bc.str("a");
        a_bc.str("bc");
        assert_ne!(ab_c.finish(), a_bc.finish());
    }

    #[test]
    fn error_display_is_informative() {
        let msgs = [
            SnapshotError::BadMagic.to_string(),
            SnapshotError::UnsupportedVersion(3).to_string(),
            SnapshotError::TrailingBytes(4).to_string(),
            SnapshotError::UnexpectedEof {
                needed: 8,
                remaining: 2,
            }
            .to_string(),
            SnapshotError::ChecksumMismatch {
                expected: 1,
                found: 2,
            }
            .to_string(),
            SnapshotError::InvalidValue("x").to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
