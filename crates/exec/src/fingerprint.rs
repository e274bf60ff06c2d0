//! Content fingerprinting for campaigns.
//!
//! [`Hasher`] and [`Fingerprint`] live in `cfd-isa`, next to
//! [`Fnv1a`](cfd_isa::Fnv1a), so a workload's program and memory image
//! can hash themselves straight into a job's hasher; they are re-exported
//! here at their old paths. A job fingerprint is a stream of tagged,
//! length-prefixed sections (the workload's name, variant, program,
//! memory pages and observation metadata, then the job's own inputs),
//! folded a word at a time into two 64-bit lanes and avalanche-finalized.
//! This module adds the campaign-level fold over job fingerprints.

pub use cfd_isa::{Fingerprint, Hasher};

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

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(body: &[u8]) -> Fingerprint {
        let mut h = Hasher::new();
        h.section("k", body);
        h.finish()
    }

    #[test]
    fn campaign_fingerprint_is_order_sensitive_and_stable() {
        let a = fp(b"a");
        let b = fp(b"b");
        let ab = campaign_fingerprint(&[a, b]);
        assert_eq!(ab, campaign_fingerprint(&[a, b]));
        assert_ne!(ab, campaign_fingerprint(&[b, a]));
        assert_ne!(ab, campaign_fingerprint(&[a]));
        assert_ne!(campaign_fingerprint(&[]), campaign_fingerprint(&[a]));
    }
}
