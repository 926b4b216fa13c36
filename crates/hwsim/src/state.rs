//! Hand-rolled binary state serialization for checkpointing.
//!
//! The workspace deliberately carries no serde; component state is captured
//! through a [`StateWriter`] / [`StateReader`] pair implementing a minimal
//! length-prefixed little-endian encoding. The reader mirrors the trace
//! decoder's discipline from `vidi-trace`: every access is bounds-checked
//! and malformed input surfaces as a typed [`StateError`], never a panic —
//! snapshot bytes cross a storage boundary and may come back truncated or
//! bit-flipped.

use crate::bits::Bits;

/// A typed error raised while decoding component or simulator state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StateError {
    /// The input ended before the value at `offset` could be read.
    Truncated {
        /// Byte offset at which the reader ran out of input.
        offset: usize,
    },
    /// A structural mismatch between the snapshot and the restore target
    /// (wrong component count, signal width, enum discriminant, ...).
    Mismatch {
        /// What the restore target expected.
        expected: String,
        /// What the snapshot actually contained.
        found: String,
    },
    /// A component's state blob was not fully consumed by its
    /// `load_state` — the save/load pair is asymmetric.
    TrailingBytes {
        /// Name of the component whose blob had leftover bytes.
        component: String,
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// The snapshot declares a format version this build does not read.
    UnsupportedVersion {
        /// The version found in the snapshot header.
        found: u16,
    },
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::Truncated { offset } => {
                write!(f, "state blob truncated at byte {offset}")
            }
            StateError::Mismatch { expected, found } => {
                write!(f, "state mismatch: expected {expected}, found {found}")
            }
            StateError::TrailingBytes {
                component,
                remaining,
            } => write!(
                f,
                "component {component} left {remaining} unconsumed state bytes"
            ),
            StateError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot version {found}")
            }
        }
    }
}

impl std::error::Error for StateError {}

/// Accumulates a component's registered state into a byte blob.
///
/// All integers are little-endian; variable-length values are preceded by a
/// `u32` length (or a `u32` element count). The matching [`StateReader`]
/// methods must be called in the exact same order — the format carries no
/// field tags.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the accumulated blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent encoding).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(u32::try_from(v.len()).expect("state blob section over 4 GiB"));
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a [`Bits`] value as width + packed bytes.
    pub fn bits(&mut self, v: &Bits) {
        self.u32(v.width());
        let bytes = v.to_bytes();
        self.buf.extend_from_slice(&bytes);
    }

    /// Writes an `Option<Bits>` with a presence byte.
    pub fn opt_bits(&mut self, v: Option<&Bits>) {
        match v {
            Some(b) => {
                self.bool(true);
                self.bits(b);
            }
            None => self.bool(false),
        }
    }

    /// Writes an `Option<u64>` with a presence byte.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Writes a length-prefixed sequence via a per-element closure.
    pub fn seq<T>(
        &mut self,
        items: impl ExactSizeIterator<Item = T>,
        mut f: impl FnMut(&mut Self, T),
    ) {
        self.u32(u32::try_from(items.len()).expect("state sequence over u32::MAX elements"));
        for item in items {
            f(self, item);
        }
    }
}

/// Maximum elements a reader will pre-allocate for in one go. Corrupt
/// length prefixes can claim absurd counts; allocation is clamped so a
/// bit-flipped snapshot costs bounded memory before the inevitable
/// [`StateError::Truncated`].
const MAX_PREALLOC: usize = 4096;

/// Decodes a blob produced by [`StateWriter`], in the same field order.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current byte offset.
    pub fn offset(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StateError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(StateError::Truncated { offset: self.pos })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, StateError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`; any nonzero byte is `true`.
    pub fn bool(&mut self) -> Result<bool, StateError> {
        Ok(self.u8()? != 0)
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, StateError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StateError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StateError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` encoded as `u64`, rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, StateError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| StateError::Mismatch {
            expected: "usize-sized value".into(),
            found: format!("{v}"),
        })
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], StateError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, StateError> {
        let b = self.bytes()?;
        std::str::from_utf8(b).map_err(|_| StateError::Mismatch {
            expected: "UTF-8 string".into(),
            found: "invalid UTF-8".into(),
        })
    }

    /// Reads a [`Bits`] value written by [`StateWriter::bits`].
    pub fn bits(&mut self) -> Result<Bits, StateError> {
        let width = self.u32()?;
        // Reject absurd widths before allocating (bit-flip hardening); no
        // signal in this workspace exceeds a few thousand bits.
        if width > 1 << 20 {
            return Err(StateError::Mismatch {
                expected: "signal width <= 2^20".into(),
                found: format!("{width}"),
            });
        }
        let nbytes = (width as usize).div_ceil(8);
        let raw = self.take(nbytes)?;
        Ok(Bits::from_bytes(raw).resize(width))
    }

    /// Reads a [`Bits`] value and validates its width, returning a typed
    /// error instead of letting a downstream `unpack` panic on a corrupt
    /// snapshot. `what` names the payload in the error message.
    pub fn bits_expect(&mut self, width: u32, what: &str) -> Result<Bits, StateError> {
        let b = self.bits()?;
        if b.width() != width {
            return Err(StateError::Mismatch {
                expected: format!("{width}-bit {what} payload"),
                found: format!("{} bits", b.width()),
            });
        }
        Ok(b)
    }

    /// Reads an `Option<Bits>` written by [`StateWriter::opt_bits`].
    pub fn opt_bits(&mut self) -> Result<Option<Bits>, StateError> {
        if self.bool()? {
            Ok(Some(self.bits()?))
        } else {
            Ok(None)
        }
    }

    /// Reads an `Option<u64>` written by [`StateWriter::opt_u64`].
    pub fn opt_u64(&mut self) -> Result<Option<u64>, StateError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed sequence via a per-element closure.
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, StateError>,
    ) -> Result<Vec<T>, StateError> {
        let n = self.u32()? as usize;
        let mut out = Vec::with_capacity(n.min(MAX_PREALLOC));
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Asserts the blob is fully consumed, the standard epilogue of a
    /// component `load_state`.
    pub fn finish(&self, component: &str) -> Result<(), StateError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StateError::TrailingBytes {
                component: component.into(),
                remaining: self.remaining(),
            })
        }
    }
}

/// FNV-1a over a byte string: the digest used to fingerprint serialized
/// simulation state. Not cryptographic — it detects divergence between
/// deterministic replays, where any mismatch is a bug, not an adversary.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_update(FNV1A64_BASIS, bytes)
}

/// The FNV-1a-64 offset basis: the digest of no bytes.
pub(crate) const FNV1A64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a digest `h` over more bytes, so a digest can stream
/// over several slices: folding `a` then `b` from [`FNV1A64_BASIS`] equals
/// [`fnv1a64`] of their concatenation.
pub(crate) fn fnv1a64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut w = StateWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.usize(12345);
        w.bytes(b"hello");
        w.str("vidi");
        w.bits(&Bits::from_u64(13, 0x1abc & 0x1fff));
        w.opt_bits(Some(&Bits::ones(65)));
        w.opt_bits(None);
        w.opt_u64(Some(9));
        w.opt_u64(None);
        w.seq([1u64, 2, 3].into_iter(), StateWriter::u64);

        let blob = w.into_bytes();
        let mut r = StateReader::new(&blob);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.str().unwrap(), "vidi");
        assert_eq!(r.bits().unwrap(), Bits::from_u64(13, 0x1abc & 0x1fff));
        assert_eq!(r.opt_bits().unwrap(), Some(Bits::ones(65)));
        assert_eq!(r.opt_bits().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.seq(StateReader::u64).unwrap(), vec![1, 2, 3]);
        assert!(r.finish("test").is_ok());
    }

    #[test]
    fn truncation_is_typed() {
        let mut w = StateWriter::new();
        w.u64(42);
        w.bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let blob = w.into_bytes();
        for cut in 0..blob.len() {
            let mut r = StateReader::new(&blob[..cut]);
            // Replicate the read sequence; every failure must be typed.
            let res = r.u64().and_then(|_| r.bytes().map(|_| ()));
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_length_prefix_never_panics() {
        // A bytes() length prefix of u32::MAX on a tiny buffer must fail
        // with Truncated, not attempt a huge allocation or overflow.
        let blob = [0xff, 0xff, 0xff, 0xff, 1, 2, 3];
        let mut r = StateReader::new(&blob);
        assert!(matches!(r.bytes(), Err(StateError::Truncated { .. })));
        // Same for sequences: count prefix is absurd.
        let mut r = StateReader::new(&blob);
        assert!(r.seq(StateReader::u64).is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = StateWriter::new();
        w.u32(1);
        w.u32(2);
        let blob = w.into_bytes();
        let mut r = StateReader::new(&blob);
        r.u32().unwrap();
        match r.finish("enc") {
            Err(StateError::TrailingBytes {
                component,
                remaining,
            }) => {
                assert_eq!(component, "enc");
                assert_eq!(remaining, 4);
            }
            other => panic!("expected TrailingBytes, got {other:?}"),
        }
    }
}
