//! Content fingerprints: a streamed two-lane 128-bit hash over job content.
//!
//! The workspace builds offline with no hashing crate, so this is a
//! dependency-free fingerprint that is stable across runs, platforms and
//! thread counts. [`Hasher`] feeds the stream to two independent 64-bit
//! multiply–rotate lanes (the xxhash/wyhash family), one 8-byte
//! little-endian word per step, with different seeds, multipliers and
//! rotations so the lanes fail independently. One lane would already make
//! collisions vanishingly rare at catalog sizes (hundreds of jobs); the
//! second makes a silent cache collision effectively impossible.
//!
//! A fingerprint is a function of the byte stream alone: bytes left over
//! from one [`Hasher::update`] wait (at most 7 of them) for the next, so
//! any split of a stream into calls hashes the same. That lets a memory
//! image feed its pages straight from its page table
//! ([`MemImage::hash_into`](crate::MemImage::hash_into)) instead of
//! copying them into one buffer first. [`Fnv1a`](crate::Fnv1a) stays the
//! byte-wise 64-bit checksum behind the workload checksums and the
//! checkpoint seal.

use std::fmt;

const SEED_A: u64 = 0xcbf2_9ce4_8422_2325;
const SEED_B: u64 = 0x9e37_79b9_7f4a_7c15;
const MULT_A: u64 = 0x87c3_7b91_1142_53d5;
const MULT_B: u64 = 0xff51_afd7_ed55_8ccd;

/// A 128-bit content fingerprint, rendered as 32 hex digits.
///
/// Fingerprints name cache entries (`target/cfd-cache/<hex>.json`) and
/// deduplicate identical jobs within a sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64, pub u64);

impl Fingerprint {
    /// The fingerprint as a fixed-width lowercase hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0, self.1)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

/// Streaming two-lane hasher producing a [`Fingerprint`].
///
/// # Examples
///
/// ```
/// use cfd_isa::Hasher;
/// let mut h = Hasher::new();
/// h.update(b"job ");
/// h.update(b"content");
/// let mut whole = Hasher::new();
/// whole.update(b"job content");
/// assert_eq!(h.finish(), whole.finish());
/// assert_eq!(h.finish().hex().len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Hasher {
    a: u64,
    b: u64,
    /// The `len % 8` bytes not yet folded into the lanes, little-endian.
    tail: u64,
    /// Bytes fed so far.
    len: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// Creates a fresh hasher.
    pub fn new() -> Hasher {
        Hasher { a: SEED_A, b: SEED_B, tail: 0, len: 0 }
    }

    /// Folds one word into both lanes; the two multiply chains overlap.
    #[inline]
    fn word(&mut self, w: u64) {
        self.a = (self.a ^ w).wrapping_mul(MULT_A).rotate_left(31);
        self.b = (self.b ^ w).wrapping_mul(MULT_B).rotate_left(29);
    }

    /// Feeds bytes into both lanes, a word at a time.
    pub fn update(&mut self, mut bytes: &[u8]) {
        let pending = (self.len % 8) as usize;
        self.len += bytes.len() as u64;
        if pending > 0 {
            let take = bytes.len().min(8 - pending);
            for (k, &b) in bytes[..take].iter().enumerate() {
                self.tail |= u64::from(b) << (8 * (pending + k));
            }
            if pending + take < 8 {
                return;
            }
            let w = std::mem::take(&mut self.tail);
            self.word(w);
            bytes = &bytes[take..];
        }
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        for (k, &b) in words.remainder().iter().enumerate() {
            self.tail |= u64::from(b) << (8 * k);
        }
    }

    /// Feeds a length-prefixed section, so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn section(&mut self, tag: &str, body: &[u8]) {
        self.section_header(tag, body.len() as u64);
        self.update(body);
    }

    /// Opens a section whose `len` body bytes the caller then feeds with
    /// [`update`](Hasher::update), in as many pieces as it likes:
    /// `section(tag, body)` is `section_header(tag, body.len())` plus
    /// `update(body)`.
    pub fn section_header(&mut self, tag: &str, len: u64) {
        self.update(tag.as_bytes());
        self.update(&len.to_le_bytes());
    }

    /// Finalizes into a fingerprint (the hasher may keep being fed; this
    /// snapshots the current state through an avalanche step). The
    /// zero-padded tail and then the stream length close both lanes, so
    /// trailing zero bytes are content.
    pub fn finish(&self) -> Fingerprint {
        let mut h = self.clone();
        if !h.len.is_multiple_of(8) {
            h.word(h.tail);
        }
        h.word(h.len);
        Fingerprint(avalanche(h.a), avalanche(h.b ^ h.a.rotate_left(31)))
    }
}

/// xxhash-style finalization: spreads low-entropy state across all bits.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(sections: &[(&str, &[u8])]) -> Fingerprint {
        let mut h = Hasher::new();
        for (tag, body) in sections {
            h.section(tag, body);
        }
        h.finish()
    }

    fn whole(bytes: &[u8]) -> Fingerprint {
        let mut h = Hasher::new();
        h.update(bytes);
        h.finish()
    }

    #[test]
    fn deterministic_and_content_sensitive() {
        let a = fp(&[("p", b"abc"), ("c", b"xyz")]);
        assert_eq!(a, fp(&[("p", b"abc"), ("c", b"xyz")]));
        assert_ne!(a, fp(&[("p", b"abd"), ("c", b"xyz")]));
        assert_ne!(a, fp(&[("p", b"abc"), ("c", b"xyw")]));
    }

    #[test]
    fn section_boundaries_matter() {
        assert_ne!(fp(&[("p", b"ab"), ("c", b"c")]), fp(&[("p", b"a"), ("c", b"bc")]));
    }

    #[test]
    fn streamed_section_equals_one_shot_section() {
        let mut h = Hasher::new();
        h.section_header("mem", 11);
        h.update(b"hello");
        h.update(b" world");
        assert_eq!(h.finish(), fp(&[("mem", b"hello world")]));
    }

    /// Every split of a stream into one, two or three `update` calls, at
    /// every offset, hashes like the unsplit stream.
    #[test]
    fn any_split_of_the_stream_hashes_the_same() {
        let data: Vec<u8> = (0..40u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=data.len() {
            let bytes = &data[..len];
            let want = whole(bytes);
            for i in 0..=len {
                for j in i..=len {
                    let mut h = Hasher::new();
                    h.update(&bytes[..i]);
                    h.update(&bytes[i..j]);
                    h.update(&bytes[j..]);
                    assert_eq!(h.finish(), want, "len {len}, split at {i} and {j}");
                }
            }
        }
        // Byte by byte as well.
        let mut h = Hasher::new();
        for b in &data {
            h.update(std::slice::from_ref(b));
        }
        assert_eq!(h.finish(), whole(&data));
    }

    #[test]
    fn trailing_zeros_and_lengths_are_content() {
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=24 {
            assert!(seen.insert(whole(&vec![0u8; len])), "{len} zero bytes collide with a shorter run");
        }
        assert_ne!(whole(b"ab"), whole(b"ab\0"));
    }

    /// Known answers of the function itself: a change to the lanes, the
    /// tail padding or the finish step must update these on purpose (and
    /// bump the result cache's version, since every entry name changes).
    #[test]
    fn known_answer_vectors() {
        for (input, want) in [
            (&b""[..], "1f78b26eed931769592b79e182f8c53a"),
            (b"a", "d447594f3bc9c5edd75b517966f35396"),
            (b"abcdefgh", "03d5e7556e42f11cf8610b67ae7bd574"),
            (b"control-flow decoupling", "6619bcb29ab53de38d55584973657972"),
        ] {
            assert_eq!(whole(input).hex(), want, "{:?}", String::from_utf8_lossy(input));
        }
        assert_eq!(
            fp(&[("kind", b"sim"), ("cycle_limit", &7u64.to_le_bytes())]).hex(),
            "12ca24aa49b2dfdb8fd170ceaa37cbd1"
        );
    }

    #[test]
    fn hex_is_32_digits_and_stable() {
        let a = fp(&[("k", b"v")]);
        assert_eq!(a.hex().len(), 32);
        assert_eq!(a.hex(), a.hex());
        assert_eq!(format!("{a}"), a.hex());
    }

    #[test]
    fn empty_input_has_a_fingerprint() {
        let e = Hasher::new().finish();
        assert_ne!(e, fp(&[("k", b"")]));
    }

    #[test]
    fn lanes_differ() {
        let a = fp(&[("p", b"hello world")]);
        assert_ne!(a.0, a.1);
    }
}
