//! FNV-1a, the workspace's 64-bit checksum.
//!
//! Stable across runs and platforms, and a few lines of obvious code: the
//! workload checksums and the checkpoint seal use it, a byte at a time.
//! It detects corruption; it is not a security hash. Content fingerprints
//! use the word-wise [`Hasher`](crate::Hasher) instead.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a with the standard offset basis and prime.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the offset basis (the hash of no bytes).
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET)
    }

    /// Feeds `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    /// Feeds `word` as its eight little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_vectors() {
        for (input, want) in
            [("", 0xcbf2_9ce4_8422_2325), ("a", 0xaf63_dc4c_8601_ec8c), ("foobar", 0x8594_4171_f739_67e8)]
        {
            let mut h = Fnv1a::new();
            h.write(input.as_bytes());
            assert_eq!(h.finish(), want, "{input:?}");
        }
    }
}
