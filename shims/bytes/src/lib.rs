//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no network registry, so this workspace ships
//! a minimal local implementation of the exact API surface `gamedb-persist`
//! consumes: [`Bytes`] (cheaply cloneable immutable buffer with a read
//! cursor), [`BytesMut`] (growable write buffer), and the [`Buf`] /
//! [`BufMut`] traits with the little-endian accessors the snapshot / WAL
//! encoders use. Semantics match the real crate for this subset.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read side: a consuming cursor over a byte buffer.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Advance the cursor.
    fn advance(&mut self, cnt: usize);

    #[inline]
    fn get_u8(&mut self) -> u8 {
        let b = self.chunk()[0];
        self.advance(1);
        b
    }

    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(raw)
    }

    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }

    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    #[inline]
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    #[inline]
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }
}

/// Write side: append-only byte sink.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }
}

/// Immutable, cheaply cloneable byte buffer with a read cursor.
#[derive(Clone, Default)]
pub struct Bytes {
    /// Shared storage: a frozen [`BytesMut`] hands its vector over
    /// whole, so freezing copies nothing.
    data: Arc<Vec<u8>>,
    pos: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Bytes::default()
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::copy_from_slice(data)
    }

    pub fn len(&self) -> usize {
        self.data.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    fn as_slice(&self) -> &[u8] {
        &self.data[self.pos..]
    }
}

impl Default for BytesMut {
    fn default() -> Self {
        BytesMut::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            data: Arc::new(v),
            pos: 0,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.remaining(), "advance past end of Bytes");
        self.pos += cnt;
    }
}

/// A plain slice is a cursor too (as in the real crate): reading
/// advances the slice itself, so a decoder can walk borrowed input
/// without copying it into a [`Bytes`] first.
impl Buf for &[u8] {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            write!(f, "{}", std::ascii::escape_default(b))?;
        }
        write!(f, "\"")
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

/// Growable write buffer; freeze into [`Bytes`] when done.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { data: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(cap),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Grow or shrink to `new_len` bytes, new bytes set to `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.data.resize(new_len, value);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32_le(0xDEADBEEF);
        w.put_u64_le(42);
        w.put_i64_le(-5);
        w.put_f32_le(1.5);
        w.put_slice(b"hi");
        let mut r = w.freeze();
        assert_eq!(r.remaining(), 1 + 4 + 8 + 8 + 4 + 2);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEADBEEF);
        assert_eq!(r.get_u64_le(), 42);
        assert_eq!(r.get_i64_le(), -5);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(&r[..], b"hi");
    }

    #[test]
    fn bytes_equality_and_clone() {
        let a = Bytes::from_static(b"alpha");
        let mut b = a.clone();
        assert_eq!(a, b);
        b.get_u8();
        assert_eq!(b, Bytes::from_static(b"lpha"));
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn split_reads_a_window_and_patching_before_freeze_sticks() {
        let mut w = BytesMut::with_capacity(8);
        w.put_slice(b"\0\0\0\0body");
        w[..4].copy_from_slice(&4u32.to_le_bytes());
        let mut r = w.freeze();
        let len = r.get_u32_le() as usize;
        let mut head = r.copy_to_bytes(len - 1);
        assert_eq!((&head[..], &r[..]), (&b"bod"[..], &b"y"[..]));
        assert_eq!((head.get_u8(), head.len(), r.remaining()), (b'b', 2, 1));
        assert_eq!(head.copy_to_bytes(2), Bytes::from_static(b"od"));
        assert!(head.is_empty());
    }
}
