//! Multiply-rotate hashing for keys the program derives itself.

use std::hash::{BuildHasherDefault, Hasher};

/// Hasher for keys made of integers the program derives itself — grid
/// cell coordinates, entity ids, interned column ids — never
/// caller-chosen bytes, so SipHash's collision resistance buys nothing
/// there and costs a table lookup's worth of time per lookup.
///
/// Every integer written folds into the state with one xor, one
/// multiply and one rotate, so a key written as one `u64` (a grid cell)
/// hashes to `v · K` rotated — the function the grid has always used.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

/// [`IdHasher`] as a map's hasher parameter:
/// `HashMap<K, V, BuildIdHasher>`.
pub type BuildIdHasher = BuildHasherDefault<IdHasher>;

impl IdHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        // the multiply gathers every input bit into the high half; the
        // rotate moves those into the low bits the table indexes by
        self.0 = (self.0 ^ v)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(26);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("IdHasher keys hash as u32/u64 integers, never bytes");
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v.into());
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn one_u64_hashes_as_the_grid_always_did() {
        let v = 0x0000_0003_ffff_fffbu64;
        let mut h = IdHasher::default();
        h.write_u64(v);
        assert_eq!(
            h.finish(),
            v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26)
        );
    }

    #[test]
    fn composite_keys_depend_on_every_field() {
        let build = BuildIdHasher::default();
        let key = |a: u32, b: u32, c: u32| build.hash_one((a, b, c));
        assert_ne!(key(1, 0, 2), key(2, 0, 1));
        assert_ne!(key(1, 0, 2), key(1, 1, 2));
        assert_eq!(key(5, 1, 3), key(5, 1, 3));
    }
}
