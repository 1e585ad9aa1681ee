//! # snapshot — a versioned, deterministic, length-prefixed binary codec
//!
//! Crash-consistent checkpoint/restore for the simulation: every piece
//! of sim state implements [`Snapshot`], and a checkpoint is the
//! concatenation of each component's canonical encoding behind a
//! `(magic, version)` header. The codec is std-only (no serde) and
//! deliberately small:
//!
//! * **Deterministic** — the same logical state always encodes to the
//!   same bytes. Integers are little-endian and fixed-width, floats are
//!   encoded as their IEEE-754 bit patterns, map containers are
//!   `BTreeMap`/`BTreeSet` (sorted iteration), and anything whose
//!   in-memory layout is order-unstable (e.g. a `BinaryHeap`) must be
//!   serialized in a canonical order by its `Snapshot` impl. Two runs
//!   that reach the same state therefore produce byte-identical
//!   checkpoints, which is what lets the chaos harness compare a
//!   recovered run against an uninterrupted control with a plain FNV
//!   digest.
//! * **Length-prefixed** — every variable-length value (strings, byte
//!   blobs, sequences, maps) carries a `u64` element count, validated
//!   against the remaining input before allocation, so corrupt input
//!   fails with a typed [`SnapError`] instead of an abort. Decode
//!   never reserves more than the remaining input can fill: at most
//!   one element per remaining byte, and a fixed-width run takes all
//!   of its `n × width` bytes before it allocates.
//! * **One slice path** — every sequence encodes through
//!   [`Snapshot::snap_seq`] and decodes through
//!   [`Snapshot::restore_seq`]. `u32`, `u64` and
//!   [`record!`] newtypes over them go bulk there: one reserve and one
//!   checked take for the whole run instead of a call per element,
//!   with the bytes of the per-element loop.
//! * **Versioned** — blobs start with [`write_header`]; decoding
//!   rejects foreign magic and unknown versions up front. The single
//!   version covers the whole state tree: any change to any field's
//!   encoding bumps the platform's version constant (old checkpoints
//!   are then rejected, never misread).
//!
//! The [`frame`] module seals encodings in CRC-64 checked containers;
//! its one CRC kernel is slicing-by-16, with exact skips for zero
//! words and 64-byte zero runs.
//!
//! Decoding never panics: every read returns `Result<_, SnapError>`,
//! and [`Reader::finish`] rejects trailing garbage so a truncated or
//! over-long blob cannot silently restore.
//!
//! A record — a struct encoded as its fields in a fixed order —
//! states its format once, in a [`record!`] invocation; [`Snapshot`]
//! says when an impl is hand-written instead.

#![forbid(unsafe_code)]

pub mod frame;

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A decode failure. Encoding is infallible; decoding is total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A value decoded but is not a valid encoding (bad enum tag,
    /// out-of-range length, non-UTF-8 string, inconsistent field).
    Corrupt(&'static str),
    /// The blob does not start with the expected magic number.
    BadMagic {
        /// Magic the decoder expected.
        expected: u32,
        /// Magic actually found.
        found: u32,
    },
    /// The blob's format version is not the one this build writes.
    BadVersion {
        /// Version the decoder expected.
        expected: u32,
        /// Version actually found.
        found: u32,
    },
    /// Decoding finished but bytes were left over.
    Trailing {
        /// Unconsumed byte count.
        remaining: usize,
    },
    /// The blob decoded cleanly but disagrees with the state restoring
    /// it: a different configuration (catalog, platform config, manager
    /// kind) or a failed cross-validation (cache-charge sum, event
    /// order, fingerprint). Carries which validation failed and both
    /// sides so a red run names its divergence instead of a bare tag.
    Mismatch {
        /// Which validation failed.
        what: &'static str,
        /// The value the restoring side required.
        expected: String,
        /// The value the blob actually carried.
        actual: String,
    },
}

impl SnapError {
    /// Builds a [`SnapError::Mismatch`] from any displayable pair.
    pub fn mismatch(
        what: &'static str,
        expected: impl fmt::Display,
        actual: impl fmt::Display,
    ) -> SnapError {
        SnapError::Mismatch {
            what,
            expected: expected.to_string(),
            actual: actual.to_string(),
        }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated { needed, remaining } => {
                write!(f, "snapshot truncated: needed {needed} bytes, {remaining} remain")
            }
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapError::BadMagic { expected, found } => {
                write!(f, "bad snapshot magic: expected {expected:#010x}, found {found:#010x}")
            }
            SnapError::BadVersion { expected, found } => {
                write!(f, "unsupported snapshot version {found} (this build reads {expected})")
            }
            SnapError::Trailing { remaining } => {
                write!(f, "snapshot has {remaining} trailing bytes after the last field")
            }
            SnapError::Mismatch {
                what,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "snapshot mismatch in {what}: expected {expected}, found {actual}"
                )
            }
        }
    }
}

impl std::error::Error for SnapError {}

/// Encoder: an append-only byte buffer with fixed-width primitives.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Creates an empty writer with room for `bytes` bytes, so an
    /// encoding no longer than that never reallocates.
    pub fn with_capacity(bytes: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (lossless on the supported
    /// 64-bit-or-smaller targets).
    #[inline]
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern — bit-exact, so
    /// accumulated floating-point state (EMAs, core-time counters)
    /// round-trips without drift.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends each item's `N` bytes back to back, with no length
    /// prefix, after one reservation for all of them. The bulk path of
    /// [`Snapshot::snap_seq`]: the bytes are those of appending the
    /// items one by one.
    #[inline]
    pub fn fixed<const N: usize>(&mut self, items: impl ExactSizeIterator<Item = [u8; N]>) {
        self.buf.reserve(items.len() * N);
        for bytes in items {
            self.buf.extend_from_slice(&bytes);
        }
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed opaque byte blob (e.g. a nested,
    /// separately-versioned sub-snapshot).
    pub fn blob(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed blob whose bytes `body` encodes in
    /// place: the `u64` length is written as a placeholder and
    /// back-patched once `body` returns. Byte-identical to
    /// [`Writer::blob`] of the same bytes, without building them in a
    /// second buffer first.
    pub fn blob_with(&mut self, body: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.u64(0);
        body(self);
        let len = (self.buf.len() - at - 8) as u64;
        if let Some(prefix) = self.buf.get_mut(at..at + 8) {
            prefix.copy_from_slice(&len.to_le_bytes());
        }
    }

    /// Appends bytes verbatim, with no length prefix. For splicing a
    /// canonical sub-encoding (produced by another `Writer`) into a
    /// larger stream — a container frame's payload, for one.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Decoder: a cursor over an immutable byte slice. Every read is
/// bounds-checked and returns a typed error on bad input.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Unread bytes.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes exactly `n` bytes.
    ///
    /// Every access goes through `slice::get` — the decode path must
    /// hold against arbitrary bytes, and the `panic-reachability` tidy
    /// rule flags any plain index reachable from `decode` or
    /// `Container::open`.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapError::Corrupt("read length overflows the cursor"))?;
        let out = self.buf.get(self.pos..end).ok_or(SnapError::Truncated {
            needed: n,
            remaining: self.remaining(),
        })?;
        self.pos = end;
        Ok(out)
    }

    /// Takes exactly `N` bytes as a fixed-size array.
    #[inline]
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        <[u8; N]>::try_from(self.take(N)?)
            .map_err(|_| SnapError::Corrupt("fixed-width read changed length"))
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        let [b] = self.take_array()?;
        Ok(b)
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Reads a `u64` and converts it to `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize out of range"))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is corrupt.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool byte is not 0 or 1")),
        }
    }

    /// Reads a sequence length and validates it against the remaining
    /// input (every element encodes at least one byte), so a corrupt
    /// length prefix cannot drive a huge allocation.
    #[inline]
    pub fn seq_len(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Corrupt("length prefix exceeds input"));
        }
        Ok(n)
    }

    /// Takes `n` items of `N` bytes each with one checked
    /// [`Reader::take`] of `n × N` bytes. An `n × N` that overflows is
    /// corrupt and one longer than the input is truncated, both before
    /// anything is allocated. The bulk path of [`Snapshot::restore_seq`].
    #[inline]
    pub fn fixed<const N: usize>(
        &mut self,
        n: usize,
    ) -> Result<impl ExactSizeIterator<Item = [u8; N]> + 'a, SnapError> {
        let len = n
            .checked_mul(N)
            .ok_or(SnapError::Corrupt("fixed-width run overflows"))?;
        Ok(self
            .take(len)?
            .chunks_exact(N)
            .map(|c| <[u8; N]>::try_from(c).unwrap_or([0; N])))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.seq_len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("string is not UTF-8"))
    }

    /// Reads a length-prefixed opaque byte blob.
    pub fn blob(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.seq_len()?;
        self.take(n)
    }

    /// Asserts the input is fully consumed.
    pub fn finish(self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Trailing {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Writes a `(magic, version)` blob header.
pub fn write_header(w: &mut Writer, magic: u32, version: u32) {
    w.u32(magic);
    w.u32(version);
}

/// Reads and validates a `(magic, version)` blob header.
pub fn read_header(r: &mut Reader<'_>, magic: u32, version: u32) -> Result<(), SnapError> {
    let found_magic = r.u32()?;
    if found_magic != magic {
        return Err(SnapError::BadMagic {
            expected: magic,
            found: found_magic,
        });
    }
    let found_version = r.u32()?;
    if found_version != version {
        return Err(SnapError::BadVersion {
            expected: version,
            found: found_version,
        });
    }
    Ok(())
}

/// A type whose full state round-trips through the codec.
///
/// The contract is *identity*: `restore(snap(x)) == x` for every
/// reachable state, where equality means "indistinguishable to the
/// simulation" — continuing a restored value must produce byte-for-byte
/// the same trajectory as continuing the original.
///
/// [`record!`] is the default impl: it destructures exhaustively by
/// construction and lists each field once. Hand-write an impl only when
/// decode must validate, canonicalize order, read an enum tag, or
/// rebuild derived fields; such an impl must exhaustively destructure
/// (`let Self { .. } = self;` with every field named, or `match self`)
/// so adding a field without snapshotting it is a compile error. The
/// `snapshot-coverage` tidy rule checks every hand-written impl.
pub trait Snapshot: Sized {
    /// Appends this value's canonical encoding to `w`.
    fn snap(&self, w: &mut Writer);

    /// Decodes one value from `r`.
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError>;

    /// Appends `items` as a sequence: the `usize` count, then each
    /// item's encoding. Every sequence container (`Vec`, `VecDeque`)
    /// encodes through here. The default writes item by item; `u32`
    /// and `u64` (and [`record!`] newtypes over them) write the same
    /// bytes with one bulk [`Writer::fixed`].
    fn snap_seq<'s>(items: impl ExactSizeIterator<Item = &'s Self>, w: &mut Writer)
    where
        Self: 's,
    {
        w.usize(items.len());
        for v in items {
            v.snap(w);
        }
    }

    /// Reads a sequence [`Snapshot::snap_seq`] wrote. The count is
    /// checked against the remaining input before anything is
    /// allocated; the fixed-width overrides then take all the items'
    /// bytes with one [`Reader::fixed`].
    fn restore_seq(r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(Self::restore(r)?);
        }
        Ok(out)
    }
}

macro_rules! prim_snapshot {
    ($ty:ty, $method:ident) => {
        impl Snapshot for $ty {
            #[inline]
            fn snap(&self, w: &mut Writer) {
                w.$method(*self);
            }
            #[inline]
            fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                r.$method()
            }
        }
    };
}

/// A little-endian integer that sequences hold in bulk (object ids,
/// page words, mapper counts): as [`prim_snapshot!`], plus the bulk
/// sequence path.
macro_rules! int_snapshot {
    ($ty:ty, $method:ident) => {
        impl Snapshot for $ty {
            #[inline]
            fn snap(&self, w: &mut Writer) {
                w.$method(*self);
            }
            #[inline]
            fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                r.$method()
            }
            #[inline]
            fn snap_seq<'s>(items: impl ExactSizeIterator<Item = &'s $ty>, w: &mut Writer) {
                w.usize(items.len());
                w.fixed(items.map(|v| v.to_le_bytes()));
            }
            #[inline]
            fn restore_seq(r: &mut Reader<'_>) -> Result<Vec<$ty>, SnapError> {
                let n = r.seq_len()?;
                Ok(r.fixed(n)?.map(<$ty>::from_le_bytes).collect())
            }
        }
    };
}

/// Implements [`Snapshot`] for a plain record: a struct whose encoding
/// is its fields, in the listed order, each through its own
/// [`Snapshot`] impl. Each field and its type are written once, so the
/// encode and decode orders cannot disagree.
///
/// Three forms, and no options:
///
/// * `record!(T { a: A, b: B })` — `snap` destructures `T`
///   exhaustively (a field missing from the list is a compile error)
///   and writes `a` then `b`; `restore` reads them back in the same
///   order. A listed type that differs from the field's is a type
///   error.
/// * `record!(T { a: A } skip { x, y })` — as above, but `x` and `y`
///   are kept out of the bytes and restore as `Default::default()`.
/// * `record!(Id(u64))` — a newtype: its encoding is the inner value's,
///   and so is a sequence's, which therefore takes the inner type's
///   bulk path when it has one.
#[macro_export]
macro_rules! record {
    ($ty:ident ( $inner:ty )) => {
        impl $crate::Snapshot for $ty {
            #[inline]
            fn snap(&self, w: &mut $crate::Writer) {
                let $ty(inner) = self;
                <$inner as $crate::Snapshot>::snap(inner, w);
            }
            #[inline]
            fn restore(r: &mut $crate::Reader<'_>) -> Result<$ty, $crate::SnapError> {
                Ok($ty(<$inner as $crate::Snapshot>::restore(r)?))
            }
            #[inline]
            fn snap_seq<'s>(
                items: impl ExactSizeIterator<Item = &'s $ty>,
                w: &mut $crate::Writer,
            ) {
                <$inner as $crate::Snapshot>::snap_seq(items.map(|$ty(inner)| inner), w);
            }
            #[inline]
            fn restore_seq(r: &mut $crate::Reader<'_>) -> Result<Vec<$ty>, $crate::SnapError> {
                // Collects in place: a newtype's `Vec` reuses the inner one.
                Ok(<$inner as $crate::Snapshot>::restore_seq(r)?
                    .into_iter()
                    .map($ty)
                    .collect())
            }
        }
    };
    ($ty:ident { $($field:ident : $fty:ty),* $(,)? } $(skip { $($skipped:ident),* $(,)? })?) => {
        impl $crate::Snapshot for $ty {
            fn snap(&self, w: &mut $crate::Writer) {
                let $ty { $($field,)* $($($skipped: _,)*)? } = self;
                $(<$fty as $crate::Snapshot>::snap($field, w);)*
            }
            fn restore(r: &mut $crate::Reader<'_>) -> Result<$ty, $crate::SnapError> {
                $(let $field = <$fty as $crate::Snapshot>::restore(r)?;)*
                Ok($ty { $($field,)* $($($skipped: Default::default(),)*)? })
            }
        }
    };
}

prim_snapshot!(u8, u8);
prim_snapshot!(u16, u16);
int_snapshot!(u32, u32);
int_snapshot!(u64, u64);
prim_snapshot!(usize, usize);
prim_snapshot!(f64, f64);
prim_snapshot!(bool, bool);

impl Snapshot for String {
    fn snap(&self, w: &mut Writer) {
        w.str(self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        r.str()
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn snap(&self, w: &mut Writer) {
        match self {
            None => w.u8(0),
            Some(v) => {
                w.u8(1);
                v.snap(w);
            }
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::restore(r)?)),
            _ => Err(SnapError::Corrupt("Option tag is not 0 or 1")),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    #[inline]
    fn snap(&self, w: &mut Writer) {
        T::snap_seq(self.iter(), w);
    }
    #[inline]
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        T::restore_seq(r)
    }
}

impl<T: Snapshot> Snapshot for VecDeque<T> {
    fn snap(&self, w: &mut Writer) {
        T::snap_seq(self.iter(), w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(T::restore_seq(r)?.into())
    }
}

impl<K: Snapshot + Ord, V: Snapshot> Snapshot for BTreeMap<K, V> {
    fn snap(&self, w: &mut Writer) {
        w.usize(self.len());
        for (k, v) in self {
            k.snap(w);
            v.snap(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.seq_len()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            if out.insert(k, v).is_some() {
                return Err(SnapError::Corrupt("duplicate map key"));
            }
        }
        Ok(out)
    }
}

impl<T: Snapshot + Ord> Snapshot for BTreeSet<T> {
    fn snap(&self, w: &mut Writer) {
        w.usize(self.len());
        for v in self {
            v.snap(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let n = r.seq_len()?;
        let mut out = BTreeSet::new();
        for _ in 0..n {
            if !out.insert(T::restore(r)?) {
                return Err(SnapError::Corrupt("duplicate set element"));
            }
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn snap(&self, w: &mut Writer) {
        self.0.snap(w);
        self.1.snap(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn snap(&self, w: &mut Writer) {
        self.0.snap(w);
        self.1.snap(w);
        self.2.snap(w);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok((A::restore(r)?, B::restore(r)?, C::restore(r)?))
    }
}

/// Encodes one value to a standalone byte vector.
pub fn encode<T: Snapshot>(v: &T) -> Vec<u8> {
    let mut w = Writer::new();
    v.snap(&mut w);
    w.into_bytes()
}

/// Decodes one value from a standalone byte vector, rejecting trailing
/// bytes.
pub fn decode<T: Snapshot>(bytes: &[u8]) -> Result<T, SnapError> {
    let mut r = Reader::new(bytes);
    let v = T::restore(&mut r)?;
    r.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snapshot + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode(&v);
        assert_eq!(decode::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(u16::MAX);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip(String::from("naïve — ascii and not"));
        round_trip(String::new());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [0.0, -0.0, 1.5, f64::MIN_POSITIVE, f64::INFINITY, -f64::INFINITY] {
            let bytes = encode(&v);
            let back = decode::<f64>(&bytes).unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
        let nan_bytes = encode(&f64::NAN);
        assert!(decode::<f64>(&nan_bytes).unwrap().is_nan());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(7u32));
        round_trip(Option::<u32>::None);
        round_trip(VecDeque::from([(1u32, 2u64), (3, 4)]));
        round_trip(BTreeMap::from([(1u64, String::from("a")), (2, String::from("b"))]));
        round_trip(BTreeSet::from([5u64, 9, 11]));
        round_trip((1u8, 2u64, 3.5f64));
    }

    #[test]
    fn encoding_is_deterministic() {
        let m = BTreeMap::from([(3u64, 1u64), (1, 2), (2, 3)]);
        assert_eq!(encode(&m), encode(&m.clone()));
    }

    #[test]
    fn truncated_input_is_a_typed_error() {
        let bytes = encode(&0xAABBCCDDu32);
        let err = decode::<u32>(&bytes[..2]).unwrap_err();
        assert!(matches!(err, SnapError::Truncated { .. }), "{err:?}");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&1u8);
        bytes.push(0);
        let err = decode::<u8>(&bytes).unwrap_err();
        assert_eq!(err, SnapError::Trailing { remaining: 1 });
    }

    #[test]
    fn huge_length_prefix_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u64(u64::MAX);
        let err = decode::<Vec<u64>>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn bad_bool_and_option_tags_are_corrupt() {
        assert!(matches!(decode::<bool>(&[2]), Err(SnapError::Corrupt(_))));
        assert!(matches!(decode::<Option<u8>>(&[9]), Err(SnapError::Corrupt(_))));
    }

    #[test]
    fn duplicate_map_keys_are_corrupt() {
        let mut w = Writer::new();
        w.usize(2);
        w.u64(7);
        w.u64(1);
        w.u64(7);
        w.u64(2);
        let err = decode::<BTreeMap<u64, u64>>(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn header_rejects_foreign_magic_and_version() {
        let mut w = Writer::new();
        write_header(&mut w, 0xD51C_CA17, 3);
        let bytes = w.into_bytes();

        let mut ok = Reader::new(&bytes);
        read_header(&mut ok, 0xD51C_CA17, 3).unwrap();
        ok.finish().unwrap();

        let mut wrong_magic = Reader::new(&bytes);
        assert!(matches!(
            read_header(&mut wrong_magic, 0x0BAD_CAFE, 3),
            Err(SnapError::BadMagic { .. })
        ));

        let mut wrong_version = Reader::new(&bytes);
        assert!(matches!(
            read_header(&mut wrong_version, 0xD51C_CA17, 4),
            Err(SnapError::BadVersion { expected: 4, found: 3 })
        ));
    }

    #[test]
    fn blob_with_writes_the_same_bytes_as_blob() {
        let inner = encode(&(3u64, String::from("tail")));
        let mut built = Writer::new();
        built.u8(7);
        built.blob(&inner);
        built.blob(&[]);
        let mut in_place = Writer::new();
        in_place.u8(7);
        in_place.blob_with(|w| (3u64, String::from("tail")).snap(w));
        in_place.blob_with(|_| {});
        assert_eq!(in_place.into_bytes(), built.into_bytes());
    }

    #[derive(Debug, PartialEq)]
    struct Id(u32);
    record!(Id(u32));

    #[derive(Debug, PartialEq)]
    struct Row {
        cached: u64,
        name: String,
        id: u64,
        ids: Vec<Id>,
    }
    record!(Row { id: u64, name: String, ids: Vec<Id> } skip { cached });

    fn row() -> Row {
        Row {
            cached: 9,
            name: String::from("row"),
            id: 7,
            ids: vec![Id(1), Id(2)],
        }
    }

    #[test]
    fn record_writes_fields_in_list_order_and_skips_skipped() {
        let mut w = Writer::new();
        w.u64(7);
        w.str("row");
        w.usize(2);
        w.u32(1);
        w.u32(2);
        let bytes = encode(&row());
        assert_eq!(bytes, w.into_bytes());
        let back: Row = decode(&bytes).unwrap();
        assert_eq!(back, Row { cached: 0, ..row() });
    }

    #[test]
    fn every_truncated_record_prefix_is_an_error() {
        let bytes = encode(&row());
        for n in 0..bytes.len() {
            let prefix = bytes.get(..n).unwrap();
            assert!(decode::<Row>(prefix).is_err(), "a {n}-byte prefix decoded");
        }
    }

    #[test]
    fn string_must_be_utf8() {
        let mut w = Writer::new();
        w.usize(2);
        w.u8(0xFF);
        w.u8(0xFE);
        let err = decode::<String>(&w.into_bytes()).unwrap_err();
        assert_eq!(err, SnapError::Corrupt("string is not UTF-8"));
    }
}
