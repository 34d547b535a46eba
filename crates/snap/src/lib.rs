//! Deterministic binary snapshot encoding.
//!
//! The warm-state cache (ISSUE 9) needs every piece of mutable simulator
//! state serialized so a restored simulator is *bit-for-bit* equivalent to
//! one that ran warm-up live. JSON would work but is slow and bulky for
//! multi-megabyte L2P maps, so this crate provides a minimal fixed-width
//! little-endian binary codec:
//!
//! - [`Snap`]: encode/decode for primitives, tuples, arrays and the
//!   standard containers used by the simulator (`Vec`, `VecDeque`,
//!   `Option`, `BTreeSet`, `String`).
//! - [`snap_struct!`] / [`snap_enum!`]: field-by-field impl macros invoked
//!   *inside* the defining crate (they need access to private fields).
//! - [`frame`]: a self-describing outer frame (`magic ‖ version ‖ len ‖
//!   checksum ‖ payload`) so corrupt or stale spill files are detected and
//!   rebuilt instead of silently restored. The checksum is word-wise
//!   ([`frame::checksum`]) so verifying a multi-megabyte warm image runs
//!   near memory speed.
//! - [`fnv1a`]: the hash used repo-wide for small inputs — warm-up cache
//!   keys, cell IDs, aggregate hashes.
//!
//! Determinism rules: every integer is fixed-width little-endian, `usize`
//! travels as `u64`, `f64` as its IEEE-754 bit pattern, and containers are
//! length-prefixed. There is no varint, no alignment and no padding — the
//! byte stream is a pure function of the value, which is what makes
//! snapshot bytes usable as cache-key material.

use std::collections::{BTreeSet, VecDeque};

/// Decode failure: the byte stream does not describe a value of the
/// requested type (truncated, bad tag, bad frame, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError(pub String);

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot decode error: {}", self.0)
    }
}

impl std::error::Error for SnapError {}

impl SnapError {
    /// Shorthand constructor.
    pub fn new(msg: impl Into<String>) -> Self {
        SnapError(msg.into())
    }
}

/// Append-only encode sink.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Running frame checksum of the bytes after `frame::HEADER_LEN`,
    /// for writers that [`frame::seal_with`] opened.
    sum: Option<frame::Checksum>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Append raw bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Fold the payload written so far into the running frame checksum
    /// while it is still in cache (a no-op outside `frame::seal_with`).
    /// Containers call it between chunks of large slices, so sealing a
    /// multi-megabyte image needs no second pass over it.
    #[inline]
    fn absorb(&mut self) {
        if let Some(sum) = &mut self.sum {
            sum.absorb(&self.buf[frame::HEADER_LEN..]);
        }
    }

    /// Finish, yielding the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Cursor over an encoded payload.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Widest record [`Reader::decode_records`] accepts.
    pub const MAX_RECORD: usize = 32;

    /// A reader over `buf` starting at offset 0.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Take the next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        // `n <= remaining` implies `pos + n <= len`, so the arithmetic
        // cannot overflow; keeping the hot path to one compare lets the
        // per-field calls in big decode loops inline away.
        if n <= self.buf.len() - self.pos {
            let out = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(out)
        } else {
            Err(self.truncated(n))
        }
    }

    #[cold]
    fn truncated(&self, n: usize) -> SnapError {
        SnapError::new(format!(
            "truncated: need {n} bytes at offset {}, have {}",
            self.pos,
            self.buf.len() - self.pos
        ))
    }

    /// Bytes remaining.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode `len` consecutive records of at most `max` bytes each, with
    /// one bounds check per record — the bulk path behind the per-page
    /// tables of a warm image.
    ///
    /// `parse` sees a window of exactly `max` bytes starting at the record
    /// and returns the value and the number of bytes it occupies (at most
    /// `max`). Near the end of the stream the window is zero-padded; a
    /// record that would extend into the padding is a truncation error.
    /// The output is reserved once, bounded by the unread bytes, so a
    /// corrupt `len` cannot force a huge allocation.
    ///
    /// # Panics
    ///
    /// If `max` exceeds [`Reader::MAX_RECORD`] or `parse` claims more
    /// than `max` bytes — both are bugs in the calling codec.
    #[inline]
    pub fn decode_records<T>(
        &mut self,
        len: usize,
        max: usize,
        mut parse: impl FnMut(&[u8]) -> Result<(T, usize), SnapError>,
    ) -> Result<Vec<T>, SnapError> {
        assert!(max <= Self::MAX_RECORD, "record width {max} over the limit");
        let rest = &self.buf[self.pos..];
        let mut out = Vec::with_capacity(len.min(rest.len()));
        let mut at = 0;
        for _ in 0..len {
            let (v, n) = match rest.get(at..at + max) {
                Some(window) => parse(window)?,
                None => {
                    let tail = &rest[at..];
                    let mut pad = [0u8; Self::MAX_RECORD];
                    pad[..tail.len()].copy_from_slice(tail);
                    let parsed = match tail.is_empty() {
                        true => None,
                        false => Some(parse(&pad[..max])?),
                    };
                    match parsed {
                        Some((v, n)) if n <= tail.len() => (v, n),
                        short => {
                            self.pos += at;
                            return Err(self.truncated(short.map_or(1, |(_, n)| n)));
                        }
                    }
                }
            };
            assert!(n <= max, "record parser claimed {n} of a {max}-byte window");
            out.push(v);
            at += n;
        }
        self.pos += at;
        Ok(out)
    }

    /// Error unless the payload was fully consumed (catches layout drift
    /// between the encoder and decoder).
    #[inline]
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.trailing())
        }
    }

    #[cold]
    fn trailing(&self) -> SnapError {
        SnapError::new(format!("{} trailing bytes after decode", self.remaining()))
    }
}

/// Decode `len` values one `decode` call at a time.
fn decode_each<T: Snap>(len: usize, r: &mut Reader<'_>) -> Result<Vec<T>, SnapError> {
    // Bound the pre-allocation by what the stream could possibly hold
    // (1 byte per element minimum) so a corrupt length cannot OOM.
    let mut out = Vec::with_capacity(len.min(r.remaining()));
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

/// Deterministic binary encode/decode.
pub trait Snap: Sized {
    /// `Some(n)` when every value encodes to exactly `n` bytes (integers
    /// and newtypes over them). `Vec<Option<T>>` then decodes through the
    /// bulk record path, which relies on `from_snap_bytes` of an `n`-byte
    /// window succeeding for every valid encoding.
    const FIXED_WIDTH: Option<usize> = None;

    /// Append this value's canonical byte form.
    fn encode(&self, w: &mut Writer);
    /// Decode one value from the cursor.
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError>;

    /// Encode a whole slice of values. Containers route through this so
    /// primitive element types can override it with a bulk byte copy;
    /// the byte form is identical to element-by-element encoding.
    fn encode_slice(slice: &[Self], w: &mut Writer) {
        for v in slice {
            v.encode(w);
        }
    }

    /// Decode `len` values. The bulk counterpart of [`Snap::encode_slice`];
    /// overrides must consume exactly the bytes element-wise decoding
    /// would.
    fn decode_vec(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
        decode_each(len, r)
    }

    /// Convenience: encode to a fresh buffer.
    fn to_snap_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Convenience: decode a value that must span the whole buffer.
    #[inline]
    fn from_snap_bytes(buf: &[u8]) -> Result<Self, SnapError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! snap_int {
    ($($ty:ty),*) => {
        $(
            impl Snap for $ty {
                const FIXED_WIDTH: Option<usize> = Some(std::mem::size_of::<$ty>());

                // `#[inline]` matters here: the workspace builds without LTO,
                // so without it these one-liners stay as cross-crate calls in
                // the multi-megabyte snapshot loops of ida-ftl/ida-ssd.
                #[inline]
                fn encode(&self, w: &mut Writer) {
                    w.bytes(&self.to_le_bytes());
                }
                #[inline]
                fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                    let b = r.take(std::mem::size_of::<$ty>())?;
                    Ok(<$ty>::from_le_bytes(b.try_into().expect("sized take")))
                }
                // Bulk forms: the little-endian byte layout of a run of
                // integers IS the element-wise encoding, so the whole
                // slice moves as one copy instead of one call per value.
                fn encode_slice(slice: &[Self], w: &mut Writer) {
                    w.buf.reserve(std::mem::size_of::<$ty>() * slice.len());
                    for v in slice {
                        w.buf.extend_from_slice(&v.to_le_bytes());
                    }
                }
                fn decode_vec(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
                    const W: usize = std::mem::size_of::<$ty>();
                    let bytes = len
                        .checked_mul(W)
                        .ok_or_else(|| SnapError::new(format!("vec length overflow: {len}")))?;
                    let b = r.take(bytes)?;
                    Ok(b.chunks_exact(W)
                        .map(|c| <$ty>::from_le_bytes(c.try_into().expect("sized chunk")))
                        .collect())
                }
            }
        )*
    };
}

snap_int!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Snap for usize {
    const FIXED_WIDTH: Option<usize> = Some(8);

    #[inline]
    fn encode(&self, w: &mut Writer) {
        (*self as u64).encode(w);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| SnapError::new(format!("usize overflow: {v}")))
    }
}

impl Snap for bool {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        (*self as u8).encode(w);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::new(format!("bad bool byte {b}"))),
        }
    }
    fn encode_slice(slice: &[Self], w: &mut Writer) {
        w.buf.reserve(slice.len());
        w.buf.extend(slice.iter().map(|&v| v as u8));
    }
    fn decode_vec(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
        let b = r.take(len)?;
        if let Some(bad) = b.iter().find(|&&x| x > 1) {
            return Err(SnapError::new(format!("bad bool byte {bad}")));
        }
        Ok(b.iter().map(|&x| x == 1).collect())
    }
}

impl Snap for f64 {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        self.to_bits().encode(w);
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Snap for String {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        w.bytes(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = usize::decode(r)?;
        let b = r.take(len)?;
        String::from_utf8(b.to_vec()).map_err(|e| SnapError::new(format!("bad utf-8: {e}")))
    }
}

impl<T: Snap> Snap for Option<T> {
    #[inline]
    fn encode(&self, w: &mut Writer) {
        match self {
            None => 0u8.encode(w),
            Some(v) => {
                1u8.encode(w);
                v.encode(w);
            }
        }
    }
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            b => Err(bad_option_tag(b)),
        }
    }
    // Options of a fixed-width payload are records of 1 or 1 + width
    // bytes: one bounds check per element instead of one per field.
    fn decode_vec(len: usize, r: &mut Reader<'_>) -> Result<Vec<Self>, SnapError> {
        match T::FIXED_WIDTH {
            Some(width) if width < Reader::MAX_RECORD => {
                r.decode_records(len, 1 + width, |window| match window[0] {
                    0 => Ok((None, 1)),
                    1 => Ok((Some(T::from_snap_bytes(&window[1..])?), 1 + width)),
                    b => Err(bad_option_tag(b)),
                })
            }
            _ => decode_each(len, r),
        }
    }
}

#[cold]
fn bad_option_tag(b: u8) -> SnapError {
    SnapError::new(format!("bad option tag {b}"))
}

/// Elements per chunk between [`Writer::absorb`] calls: small enough that
/// a chunk's bytes are still in cache when the checksum reads them.
const ABSORB_CHUNK: usize = 4096;

impl<T: Snap> Snap for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for chunk in self.chunks(ABSORB_CHUNK) {
            T::encode_slice(chunk, w);
            w.absorb();
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = usize::decode(r)?;
        T::decode_vec(len, r)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        let (head, tail) = self.as_slices();
        T::encode_slice(head, w);
        T::encode_slice(tail, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        Ok(Vec::<T>::decode(r)?.into())
    }
}

impl<T: Snap + Ord> Snap for BTreeSet<T> {
    fn encode(&self, w: &mut Writer) {
        self.len().encode(w);
        for v in self {
            v.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        let len = usize::decode(r)?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            out.insert(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn encode(&self, w: &mut Writer) {
        T::encode_slice(self, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
        T::decode_vec(N, r)?
            .try_into()
            .map_err(|_| SnapError::new("array length mismatch"))
    }
}

macro_rules! snap_tuple {
    ($($name:ident),+) => {
        impl<$($name: Snap),+> Snap for ($($name,)+) {
            fn encode(&self, w: &mut Writer) {
                #[allow(non_snake_case)]
                let ($($name,)+) = self;
                $( $name.encode(w); )+
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, SnapError> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

snap_tuple!(A);
snap_tuple!(A, B);
snap_tuple!(A, B, C);
snap_tuple!(A, B, C, D);

/// Implement [`Snap`] for a struct field-by-field, in declaration order.
/// Must be invoked in the struct's own module (it reads private fields).
#[macro_export]
macro_rules! snap_struct {
    ($ty:ty { $($field:ident),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                $( $crate::Snap::encode(&self.$field, w); )*
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                Ok(Self { $( $field: $crate::Snap::decode(r)? ),* })
            }
        }
    };
}

/// Implement [`Snap`] for a unit-variant enum with explicit `u8` tags.
#[macro_export]
macro_rules! snap_enum {
    ($ty:ty { $($idx:literal => $variant:path),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn encode(&self, w: &mut $crate::Writer) {
                let tag: u8 = match self {
                    $( $variant => $idx, )*
                };
                $crate::Snap::encode(&tag, w);
            }
            fn decode(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::SnapError> {
                match <u8 as $crate::Snap>::decode(r)? {
                    $( $idx => Ok($variant), )*
                    tag => Err($crate::SnapError::new(format!(
                        concat!("bad ", stringify!($ty), " tag {}"),
                        tag
                    ))),
                }
            }
        }
    };
}

/// FNV-1a 64-bit over `bytes` — the repo's standard hash for small
/// inputs: warm-up cache keys, cell IDs and aggregate hashes. Frames use
/// the word-wise [`frame::checksum`] instead, which is several times
/// faster on multi-megabyte images.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Self-describing outer frame: `IDASNAP1 ‖ version:u32 ‖ len:u64 ‖
/// checksum:u64 ‖ payload`. Spill files and CLI snapshot files always
/// travel framed so truncation and corruption are detected before decode.
pub mod frame {
    use super::{SnapError, Writer};

    /// Frame magic, also the file signature of `.snap` spill files.
    pub const MAGIC: &[u8; 8] = b"IDASNAP1";
    /// Current frame version. Bump whenever the frame checksum or any
    /// `Snap` impl's field order changes; stale spill files are then
    /// rebuilt and peers on another version are rejected, not misdecoded.
    /// Version 2 replaced version 1's FNV-1a with [`checksum`]; the
    /// payload layout is unchanged.
    pub const VERSION: u32 = 2;
    /// Frame header length in bytes.
    pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

    /// Decoded frame metadata (for `idasim snapshot inspect`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Meta {
        /// Frame version recorded in the header.
        pub version: u32,
        /// Payload length in bytes.
        pub payload_len: u64,
        /// [`checksum`] of the payload.
        pub hash: u64,
    }

    /// Odd multiplier of the checksum step (the 64-bit golden ratio).
    const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
    /// Distinct starting values for the four lanes.
    const SEEDS: [u64; 4] = [
        0x243F_6A88_85A3_08D3,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];

    /// One checksum step. For a fixed `acc` it is a bijection of `word`
    /// and for a fixed `word` a bijection of `acc` (xor, multiply by an
    /// odd constant and rotate are each invertible), so one changed word
    /// changes its lane and every later state of that lane.
    #[inline(always)]
    fn step(acc: u64, word: u64) -> u64 {
        (acc ^ word).wrapping_mul(MUL).rotate_left(29)
    }

    #[inline(always)]
    fn word(bytes: &[u8]) -> u64 {
        u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
    }

    /// Frame integrity checksum: four independent lanes over 8-byte
    /// little-endian words, then the zero-padded tail word, the length
    /// and the lanes folded into one value by the same step, and a
    /// bijective final mix. The lanes keep four multiplies in flight, so
    /// it runs near memory speed where byte-serial FNV-1a is bound by one
    /// multiply latency per byte.
    ///
    /// Every step is a bijection of the value it absorbs, so any single
    /// changed 8-byte word — in particular any single flipped bit —
    /// always changes the result, the guarantee FNV-1a gave. It is an
    /// integrity check against truncation and corruption, not a MAC.
    pub fn checksum(bytes: &[u8]) -> u64 {
        let mut sum = Checksum::default();
        sum.absorb(bytes);
        sum.finish(bytes)
    }

    /// [`checksum`] computed incrementally over a growing buffer: the
    /// whole 32-byte blocks are folded in as they arrive, the tail and
    /// length at the end, with the same result as one pass.
    #[derive(Debug, Clone)]
    pub(crate) struct Checksum {
        lanes: [u64; 4],
        /// Bytes folded in so far (a multiple of 32).
        done: usize,
    }

    impl Default for Checksum {
        fn default() -> Self {
            Checksum {
                lanes: SEEDS,
                done: 0,
            }
        }
    }

    impl Checksum {
        /// Fold in the whole 32-byte blocks of `bytes` past those already
        /// folded. `bytes` must extend the buffer seen by earlier calls.
        pub(crate) fn absorb(&mut self, bytes: &[u8]) {
            let mut blocks = bytes[self.done..].chunks_exact(32);
            for block in &mut blocks {
                self.lanes[0] = step(self.lanes[0], word(&block[0..8]));
                self.lanes[1] = step(self.lanes[1], word(&block[8..16]));
                self.lanes[2] = step(self.lanes[2], word(&block[16..24]));
                self.lanes[3] = step(self.lanes[3], word(&block[24..32]));
            }
            self.done = bytes.len() - blocks.remainder().len();
        }

        /// The checksum of `bytes`, whose whole blocks were all absorbed.
        pub(crate) fn finish(mut self, bytes: &[u8]) -> u64 {
            self.absorb(bytes);
            let mut words = bytes[self.done..].chunks_exact(8);
            for (lane, w) in self.lanes.iter_mut().zip(&mut words) {
                *lane = step(*lane, word(w));
            }
            let tail = words.remainder();
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);

            let mut h = step(bytes.len() as u64, u64::from_le_bytes(last));
            for lane in self.lanes {
                h = step(h, lane);
            }
            // MurmurHash3's fmix64: a bijection that spreads every input bit.
            h ^= h >> 33;
            h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            h ^= h >> 33;
            h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
            h ^ (h >> 33)
        }
    }

    /// The header that seals `payload`, given its checksum.
    fn header_with(payload: &[u8], sum: u64) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[..8].copy_from_slice(MAGIC);
        h[8..12].copy_from_slice(&VERSION.to_le_bytes());
        h[12..20].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        h[20..28].copy_from_slice(&sum.to_le_bytes());
        h
    }

    /// The header that seals `payload`.
    fn header(payload: &[u8]) -> [u8; HEADER_LEN] {
        header_with(payload, checksum(payload))
    }

    /// Encode a payload straight into a sealed frame: `encode` writes
    /// after a reserved header, which is filled in once the payload is
    /// complete, so a multi-megabyte image is never copied into a second
    /// buffer.
    ///
    /// The checksum is folded in as large vectors are written (see
    /// `Writer::absorb`), while their bytes are still in cache.
    pub fn seal_with(encode: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer {
            buf: vec![0; HEADER_LEN],
            sum: Some(Checksum::default()),
        };
        encode(&mut w);
        let sum = w.sum.take().expect("seal_with's writer keeps its checksum");
        let mut buf = w.into_bytes();
        let (head, payload) = buf.split_at_mut(HEADER_LEN);
        head.copy_from_slice(&header_with(payload, sum.finish(payload)));
        // The writer grew by doubling; a cached image lives for the whole
        // sweep, so keep only its bytes. (Reserving an estimate up front
        // instead made captures fault in more fresh pages, not fewer.)
        buf.shrink_to_fit();
        buf
    }

    /// Wrap `payload` in a verified frame.
    pub fn seal(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&header(payload));
        out.extend_from_slice(payload);
        out
    }

    /// Check a header's magic and version and return its declared payload
    /// length and checksum.
    fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(u64, u64), SnapError> {
        if &h[..8] != MAGIC {
            return Err(SnapError::new("bad frame magic"));
        }
        let version = u32::from_le_bytes(h[8..12].try_into().expect("sized"));
        if version != VERSION {
            return Err(SnapError::new(format!(
                "frame version {version}, expected {VERSION}"
            )));
        }
        let payload_len = u64::from_le_bytes(h[12..20].try_into().expect("sized"));
        let hash = u64::from_le_bytes(h[20..28].try_into().expect("sized"));
        Ok((payload_len, hash))
    }

    fn verify(payload: &[u8], hash: u64) -> Result<(), SnapError> {
        match checksum(payload) == hash {
            true => Ok(()),
            false => Err(SnapError::new("frame checksum mismatch (corrupt payload)")),
        }
    }

    /// Parse and verify a frame, returning its metadata and payload.
    pub fn open(buf: &[u8]) -> Result<(Meta, &[u8]), SnapError> {
        let Some((head, payload)) = buf.split_first_chunk::<HEADER_LEN>() else {
            return Err(SnapError::new("frame shorter than header"));
        };
        let (payload_len, hash) = parse_header(head)?;
        if payload.len() as u64 != payload_len {
            return Err(SnapError::new(format!(
                "frame declares {payload_len} payload bytes, carries {}",
                payload.len()
            )));
        }
        verify(payload, hash)?;
        Ok((
            Meta {
                version: VERSION,
                payload_len,
                hash,
            },
            payload,
        ))
    }

    /// Largest payload a *streamed* frame may declare (64 MiB). A peer
    /// sending a corrupt length field must not make the reader allocate
    /// unboundedly; warm-state images — the largest legitimate frames —
    /// are a few MB.
    pub const MAX_STREAM_PAYLOAD: u64 = 64 << 20;

    fn invalid(e: SnapError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }

    /// Write `payload` to `w` as one sealed frame and flush it.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O errors.
    pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
        w.write_all(&header(payload))?;
        w.write_all(payload)?;
        w.flush()
    }

    /// Read and verify one sealed frame from a byte stream.
    ///
    /// Returns `Ok(None)` on clean end-of-stream at a frame boundary
    /// (the peer closed between messages). A stream that ends *inside* a
    /// frame, or carries a bad magic/version/length/checksum, is an
    /// `InvalidData`/`UnexpectedEof` error — never a panic, never an
    /// unbounded allocation (lengths above [`MAX_STREAM_PAYLOAD`] are
    /// rejected before any buffer is reserved).
    ///
    /// # Errors
    ///
    /// The reader's I/O errors, plus `InvalidData` for structurally
    /// invalid frames.
    pub fn read_frame<R: std::io::Read>(r: &mut R) -> std::io::Result<Option<Vec<u8>>> {
        let mut head = [0u8; HEADER_LEN];
        let mut filled = 0;
        while filled < HEADER_LEN {
            match r.read(&mut head[filled..]) {
                Ok(0) if filled == 0 => return Ok(None),
                Ok(0) => return Err(invalid(SnapError::new("stream closed mid-frame header"))),
                Ok(n) => filled += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let (payload_len, hash) = parse_header(&head).map_err(invalid)?;
        if payload_len > MAX_STREAM_PAYLOAD {
            return Err(invalid(SnapError::new(format!(
                "frame declares {payload_len} payload bytes, over the \
                 {MAX_STREAM_PAYLOAD}-byte stream limit"
            ))));
        }
        let mut payload = vec![0u8; payload_len as usize];
        r.read_exact(&mut payload)?;
        verify(&payload, hash).map_err(invalid)?;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_snap_bytes();
        assert_eq!(T::from_snap_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0xBEEFu16);
        round_trip(0xDEAD_BEEFu32);
        round_trip(u64::MAX - 7);
        round_trip(u128::MAX / 3);
        round_trip(-42i64);
        round_trip(true);
        round_trip(false);
        round_trip(1.6180339887f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(usize::MAX / 2);
        round_trip(String::from("warm-up cache κλειδί"));
    }

    #[test]
    fn nan_bit_pattern_preserved() {
        let v = f64::from_bits(0x7FF8_0000_0000_1234);
        let bytes = v.to_snap_bytes();
        assert_eq!(f64::from_snap_bytes(&bytes).unwrap().to_bits(), v.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u32, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip(Some(vec![0u8, 9]));
        round_trip(Option::<u32>::None);
        round_trip(VecDeque::from([7u64, 8, 9]));
        round_trip(BTreeSet::from([(3u32, 1u32), (1, 2)]));
        round_trip([1u64, 2, 3]);
        round_trip((1u32, 2u64, true));
        round_trip(vec![Some((1u32, false)), None]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = vec![(1u64, Some(2u32)), (3, None)];
        assert_eq!(a.to_snap_bytes(), a.to_snap_bytes());
    }

    #[test]
    fn truncated_stream_errors() {
        let bytes = 0xABCDu64.to_snap_bytes();
        assert!(u64::from_snap_bytes(&bytes[..7]).is_err());
        // Trailing bytes also rejected by from_snap_bytes.
        let mut long = bytes.clone();
        long.push(0);
        assert!(u64::from_snap_bytes(&long).is_err());
    }

    #[test]
    fn corrupt_length_does_not_allocate_wildly() {
        // A Vec claiming u64::MAX elements must error, not OOM.
        let mut w = Writer::new();
        u64::MAX.encode(&mut w);
        let bytes = w.into_bytes();
        assert!(Vec::<u8>::from_snap_bytes(&bytes).is_err());
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        a: u32,
        b: Vec<bool>,
    }
    snap_struct!(Demo { a, b });

    #[derive(Debug, PartialEq)]
    enum Mode {
        Off,
        On,
    }
    snap_enum!(Mode { 0 => Mode::Off, 1 => Mode::On });

    #[test]
    fn macros_round_trip() {
        round_trip(Demo {
            a: 5,
            b: vec![true, false],
        });
        round_trip(Mode::Off);
        round_trip(Mode::On);
        assert!(Mode::from_snap_bytes(&[9]).is_err());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn option_bulk_path_round_trips() {
        round_trip(
            (0..1_000u64)
                .map(|i| (i % 3 != 0).then_some(i.wrapping_mul(0x9E37_79B9)))
                .collect::<Vec<_>>(),
        );
        round_trip(vec![Some(7u32), None, Some(u32::MAX)]);
        round_trip(vec![Some(-1i16), None]);
        round_trip(Vec::<Option<u128>>::new());
        // Not fixed-width: the element-wise path.
        round_trip(vec![Some(String::from("x")), None]);
    }

    #[test]
    fn option_bulk_path_rejects_every_truncation_and_bad_tag() {
        let v = vec![Some(1u64), None, Some(u64::MAX), None, None, Some(3)];
        let bytes = v.to_snap_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Vec::<Option<u64>>::from_snap_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Tags sit at offsets 8, 17, 18, 27, 28, 29 (after the u64 length).
        for tag_at in [8, 17, 18, 27, 28, 29] {
            for bad in [2u8, 0x80, 0xFF] {
                let mut b = bytes.clone();
                b[tag_at] = bad;
                let err = Vec::<Option<u64>>::from_snap_bytes(&b).unwrap_err();
                assert!(err.0.contains("bad option tag"), "{err}");
            }
        }
        // A huge declared length errors without reserving it.
        let mut huge = u64::MAX.to_snap_bytes();
        huge.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(Vec::<Option<u64>>::from_snap_bytes(&huge).is_err());
    }

    #[test]
    fn decode_records_reports_truncation_inside_the_padded_tail() {
        // Three 1-or-3-byte records; the last one is cut short.
        let bytes = [0u8, 1, 7, 7, 1, 9];
        let parse = |w: &[u8]| match w[0] {
            0 => Ok((None, 1)),
            1 => Ok((Some(u16::from_le_bytes([w[1], w[2]])), 3)),
            t => Err(SnapError::new(format!("bad tag {t}"))),
        };
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.decode_records(2, 3, parse).unwrap(),
            vec![None, Some(0x0707)]
        );
        assert_eq!(r.remaining(), 2);
        let err = r.decode_records(1, 3, parse).unwrap_err();
        assert!(err.0.contains("truncated"), "{err}");
        let mut r = Reader::new(&bytes[..1]);
        assert!(r.decode_records(2, 3, parse).is_err());
    }

    #[test]
    fn checksum_pins_reference_values() {
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(frame::checksum(b""), 0x60fd_bca5_f430_fc35);
        assert_eq!(frame::checksum(b"a"), 0x24c3_1266_fa3d_18b1);
        assert_eq!(frame::checksum(&ramp), 0x0f5d_91fd_cbfc_9c26);
    }

    #[test]
    fn checksum_detects_every_single_bit_flip() {
        // 4,103 bytes: 128 full 32-byte blocks, then 7 bytes that reach
        // neither a whole block nor a whole word.
        let mut payload: Vec<u8> = (0..4_103u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        let clean = frame::checksum(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                payload[byte] ^= 1 << bit;
                assert_ne!(
                    frame::checksum(&payload),
                    clean,
                    "flip of bit {bit} in byte {byte} went unseen"
                );
                payload[byte] ^= 1 << bit;
            }
        }
        // The length is folded in: trailing zeros are not invisible.
        payload.push(0);
        assert_ne!(frame::checksum(&payload), clean);
    }

    #[test]
    fn version_one_frames_are_rejected() {
        // A frame as version 1 sealed it: FNV-1a over the payload.
        let payload = b"sealed by an older build";
        let mut v1 = Vec::new();
        v1.extend_from_slice(frame::MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v1.extend_from_slice(&fnv1a(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        let err = frame::open(&v1).unwrap_err();
        assert!(err.0.contains("frame version 1, expected 2"), "{err}");
        let err = frame::read_frame(&mut std::io::Cursor::new(v1)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("frame version 1, expected 2"),
            "{err}"
        );
    }

    #[test]
    fn seal_with_equals_seal_of_the_same_payload() {
        // Vectors longer than one absorb chunk, at odd lengths, so the
        // running checksum folds blocks in at unaligned points.
        let value = (
            vec![(1u64, Some(2u32)), (3, None)],
            (0..10_001u32).map(|i| i as u8).collect::<Vec<u8>>(),
            (0..5_003u64)
                .map(|i| (i % 7 != 0).then_some(i))
                .collect::<Vec<_>>(),
            vec![String::from("tail"); 3],
        );
        let payload = value.to_snap_bytes();
        let sealed = frame::seal_with(|w| value.encode(w));
        assert_eq!(sealed, frame::seal(&payload));
        assert_eq!(sealed.capacity(), sealed.len());
        let mut streamed = Vec::new();
        frame::write_frame(&mut streamed, &payload).unwrap();
        assert_eq!(streamed, sealed);
    }

    #[test]
    fn stream_frames_round_trip_and_signal_clean_eof() {
        let mut stream = Vec::new();
        frame::write_frame(&mut stream, b"first").unwrap();
        frame::write_frame(&mut stream, b"").unwrap();
        frame::write_frame(&mut stream, b"third message").unwrap();
        let mut r = std::io::Cursor::new(stream);
        assert_eq!(frame::read_frame(&mut r).unwrap().unwrap(), b"first");
        assert_eq!(frame::read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(
            frame::read_frame(&mut r).unwrap().unwrap(),
            b"third message"
        );
        // Clean EOF at a frame boundary is None, repeatedly.
        assert!(frame::read_frame(&mut r).unwrap().is_none());
        assert!(frame::read_frame(&mut r).unwrap().is_none());
    }

    #[test]
    fn stream_reader_rejects_torn_and_corrupt_frames() {
        let mut whole = Vec::new();
        frame::write_frame(&mut whole, b"payload bytes").unwrap();
        // Torn header.
        let mut r = std::io::Cursor::new(whole[..frame::HEADER_LEN / 2].to_vec());
        assert!(frame::read_frame(&mut r).is_err());
        // Torn payload.
        let mut r = std::io::Cursor::new(whole[..whole.len() - 3].to_vec());
        assert!(frame::read_frame(&mut r).is_err());
        // Flipped payload bit.
        let mut bad = whole.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(frame::read_frame(&mut std::io::Cursor::new(bad)).is_err());
        // Version skew.
        let mut vers = whole.clone();
        vers[8] ^= 0xFF;
        assert!(frame::read_frame(&mut std::io::Cursor::new(vers)).is_err());
        // Bad magic.
        let mut magic = whole.clone();
        magic[0] = b'Z';
        assert!(frame::read_frame(&mut std::io::Cursor::new(magic)).is_err());
        // A corrupt length field errors without trying to allocate it.
        let mut huge = whole;
        huge[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(frame::read_frame(&mut std::io::Cursor::new(huge)).is_err());
    }

    #[test]
    fn frame_round_trip_and_rejects_corruption() {
        let payload = b"hello snapshot".to_vec();
        let framed = frame::seal(&payload);
        let (meta, got) = frame::open(&framed).unwrap();
        assert_eq!(got, payload.as_slice());
        assert_eq!(meta.payload_len, payload.len() as u64);
        assert_eq!(meta.version, frame::VERSION);

        // Flip one payload byte: hash mismatch.
        let mut bad = framed.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert!(frame::open(&bad).is_err());
        // Truncate: length mismatch.
        assert!(frame::open(&framed[..framed.len() - 1]).is_err());
        // Bad magic.
        let mut nomagic = framed.clone();
        nomagic[0] = b'X';
        assert!(frame::open(&nomagic).is_err());
        // Wrong version.
        let mut vers = framed;
        vers[8] ^= 0xFF;
        assert!(frame::open(&vers).is_err());
    }
}
