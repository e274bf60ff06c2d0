//! Content fingerprinting: a hand-rolled 128-bit hash over job content.
//!
//! The repo builds fully offline (PR 1's rule), so no hashing crate is
//! available; this module provides a dependency-free fingerprint that is
//! stable across runs, platforms, and thread counts. Two independent
//! 64-bit lanes are combined:
//!
//! * lane A — [`Fnv1a`], the same hash the workload checksums use;
//! * lane B — a multiply–rotate mix in the xxhash/wyhash family, seeded
//!   differently so the lanes fail independently.
//!
//! A single 64-bit hash would already make collisions vanishingly rare at
//! our catalog sizes (hundreds of jobs); the second lane makes a silent
//! cache collision effectively impossible while keeping the hasher a few
//! lines of obvious code.

use cfd_isa::Fnv1a;
use std::fmt;

const MIX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const MIX_MULT: u64 = 0xff51_afd7_ed55_8ccd;

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
/// use cfd_exec::Hasher;
/// let mut h = Hasher::new();
/// h.update(b"job content");
/// let fp = h.finish();
/// assert_eq!(fp.hex().len(), 32);
/// ```
#[derive(Debug, Clone)]
pub struct Hasher {
    fnv: Fnv1a,
    mix: u64,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher::new()
    }
}

impl Hasher {
    /// Creates a fresh hasher.
    pub fn new() -> Hasher {
        Hasher { fnv: Fnv1a::new(), mix: MIX_SEED }
    }

    /// Feeds bytes into both lanes.
    pub fn update(&mut self, bytes: &[u8]) {
        // One pass feeds both lanes, so their multiply chains overlap.
        for &b in bytes {
            self.fnv.write(&[b]);
            self.mix = (self.mix ^ b as u64).wrapping_mul(MIX_MULT).rotate_left(29);
        }
    }

    /// Feeds a length-prefixed section, so `("ab","c")` and `("a","bc")`
    /// hash differently.
    pub fn section(&mut self, tag: &str, body: &[u8]) {
        self.update(tag.as_bytes());
        self.update(&(body.len() as u64).to_le_bytes());
        self.update(body);
    }

    /// Finalizes into a fingerprint (the hasher may keep being fed; this
    /// snapshots the current state through an avalanche step).
    pub fn finish(&self) -> Fingerprint {
        let fnv = self.fnv.finish();
        Fingerprint(avalanche(fnv), avalanche(self.mix ^ fnv.rotate_left(31)))
    }
}

/// The campaign fingerprint: a fold over every job fingerprint in
/// submission order.
///
/// This names the write-ahead journal (`<cache>/journal/<hex>.wal`) and
/// identifies a sweep to the `cfd-serve` daemon, so a re-submitted
/// campaign with identical inputs maps onto the same journal/sweep and a
/// changed campaign never collides with a stale one. The fold is
/// order-sensitive on purpose: result slots are positional.
pub fn campaign_fingerprint(fps: &[Fingerprint]) -> Fingerprint {
    let mut h = Hasher::new();
    for fp in fps {
        h.update(&fp.0.to_le_bytes());
        h.update(&fp.1.to_le_bytes());
    }
    h.finish()
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

    #[test]
    fn campaign_fingerprint_is_order_sensitive_and_stable() {
        let a = fp(&[("k", b"a")]);
        let b = fp(&[("k", b"b")]);
        let ab = campaign_fingerprint(&[a, b]);
        assert_eq!(ab, campaign_fingerprint(&[a, b]));
        assert_ne!(ab, campaign_fingerprint(&[b, a]));
        assert_ne!(ab, campaign_fingerprint(&[a]));
        assert_ne!(campaign_fingerprint(&[]), campaign_fingerprint(&[a]));
    }
}
