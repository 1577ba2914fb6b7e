//! 64-bit FNV-1a, the workspace's one non-cryptographic byte hash.
//!
//! Everything that fingerprints bytes folds them through [`Fnv1a`]: the
//! digest of an embedded model text, the fleet router's stream → worker
//! map, the fleet simulator's delivery hash and the repro artifact's
//! content hash. Those values are stored in artifacts and pinned by
//! tests, so the function never changes.

/// An incremental 64-bit FNV-1a hash: start at the offset basis, and for
/// each byte xor it in, then multiply by the FNV prime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// A hash of no bytes: the FNV-1a 64-bit offset basis.
    #[inline]
    pub const fn new() -> Self {
        Fnv1a {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds `bytes` into the hash, in order.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state = (self.state ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The hash of every byte written so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

/// The FNV-1a hash of `bytes` in one call.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.write(bytes);
    hash.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn writes_in_pieces_equal_one_write() {
        let mut pieces = Fnv1a::default();
        pieces.write(b"foo");
        pieces.write(b"");
        pieces.write(b"bar");
        assert_eq!(pieces.finish(), fnv1a(b"foobar"));
    }
}
