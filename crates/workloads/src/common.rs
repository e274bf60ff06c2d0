//! Shared workload infrastructure: variants, scales, verification.

use cfd_isa::{Fnv1a, Hasher, Machine, MemImage, Program, Reg, SimError};
use std::fmt;

/// Which transformation of a kernel to build (paper §VII).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The original loop.
    Base,
    /// Control-flow decoupling with the Branch Queue.
    Cfd,
    /// CFD plus the Value Queue (CFD+, §IV-B).
    CfdPlus,
    /// Data-flow decoupling: software prefetch loop ahead of the original
    /// loop (§V).
    Dfd,
    /// DFD first (prefetching the predicate data), then CFD (Fig. 26).
    CfdDfd,
    /// CFD with the Trip-count Queue (separable loop-branches, §IV-C).
    CfdTq,
    /// CFD(BQ) applied to the inner branch of the TQ kernel (Fig. 28).
    CfdBq,
    /// Both TQ and BQ decoupling (Fig. 28).
    CfdBqTq,
    /// If-conversion of a hammock (synthesized select; §II comparison).
    IfConv,
}

impl Variant {
    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Base => "base",
            Variant::Cfd => "cfd",
            Variant::CfdPlus => "cfd+",
            Variant::Dfd => "dfd",
            Variant::CfdDfd => "cfd+dfd",
            Variant::CfdTq => "cfd(tq)",
            Variant::CfdBq => "cfd(bq)",
            Variant::CfdBqTq => "cfd(bq+tq)",
            Variant::IfConv => "if-conv",
        }
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The benchmark suite a kernel's original belongs to (paper §II-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC CPU2006.
    Spec2006,
    /// NU-MineBench 3.0 (data mining).
    NuMineBench,
    /// BioBench (bioinformatics).
    BioBench,
    /// cBench 1.1 (embedded).
    CBench,
}

impl fmt::Display for Suite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Suite::Spec2006 => "SPEC2006",
            Suite::NuMineBench => "NU-MineBench",
            Suite::BioBench => "BioBench",
            Suite::CBench => "cBench",
        };
        f.write_str(s)
    }
}

/// The paper's control-flow class of a kernel's branch of interest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PaperClass {
    /// Small control-dependent region.
    Hammock,
    /// Totally separable branch.
    SeparableTotal,
    /// Partially separable branch.
    SeparablePartial,
    /// Separable loop-branch (TQ target).
    SeparableLoopBranch,
    /// Inseparable branch.
    Inseparable,
    /// Heuristically inseparable; the precise alias tier proves the
    /// entangling stores disjoint (speculative-CFD target).
    SpeculativelySeparable,
}

impl fmt::Display for PaperClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PaperClass::Hammock => "hammock",
            PaperClass::SeparableTotal => "separable (total)",
            PaperClass::SeparablePartial => "separable (partial)",
            PaperClass::SeparableLoopBranch => "separable loop-branch",
            PaperClass::Inseparable => "inseparable",
            PaperClass::SpeculativelySeparable => "speculatively separable",
        };
        f.write_str(s)
    }
}

/// Problem size. `n` is the kernel's outer trip count; `seed` drives data
/// generation. Defaults give ~0.2–0.5M retired instructions per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Outer iterations.
    pub n: usize,
    /// Data-generation seed.
    pub seed: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { n: 20_000, seed: 0x5eed_cafe_f00d_d00d }
    }
}

impl Scale {
    /// A small scale for fast tests.
    pub fn small() -> Scale {
        Scale { n: 1_500, seed: 0x5eed_cafe_f00d_d00d }
    }
}

/// A branch the paper targets, with its classification metadata.
#[derive(Debug, Clone)]
pub struct InterestBranch {
    /// Static PC in the *base* variant.
    pub pc: u32,
    /// Human-readable description (maps to Tables V/VI).
    pub what: &'static str,
    /// Paper class.
    pub class: PaperClass,
}

/// A fully built workload: program + data + verification metadata.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Kernel name (e.g. `"soplex_like"`).
    pub name: &'static str,
    /// Which transformation this is.
    pub variant: Variant,
    /// Suite of the original benchmark.
    pub suite: Suite,
    /// The program.
    pub program: Program,
    /// Initial data memory.
    pub mem: MemImage,
    /// Registers whose final values define the observable result.
    pub observable: Vec<Reg>,
    /// Memory ranges `(addr, len)` included in the observable result.
    pub check_ranges: Vec<(u64, u64)>,
    /// The targeted branches (PCs valid for the *base* variant).
    pub interest: Vec<InterestBranch>,
}

impl Workload {
    /// Runs the workload functionally and returns its observable result
    /// (register values followed by a checksum per checked range).
    ///
    /// # Errors
    ///
    /// Propagates functional-simulation errors (these indicate kernel bugs).
    pub fn observe(&self) -> Result<Vec<i64>, SimError> {
        let mut m = Machine::new(self.program.clone(), self.mem.clone());
        m.run(4_000_000_000, &mut cfd_isa::NullSink)?;
        let mut out: Vec<i64> = self.observable.iter().map(|&r| m.regs.read(r)).collect();
        for &(addr, len) in &self.check_ranges {
            let mut h = Fnv1a::new();
            h.write(&m.mem.read_bytes(addr, len as usize));
            out.push(h.finish() as i64);
        }
        Ok(out)
    }

    /// Feeds the workload's content into `h` for content-addressed result
    /// fingerprinting (`cfd-exec`), as tagged, length-prefixed sections:
    /// the identity labels, the program, the initial memory image
    /// (streamed page by page) and the observation metadata (observable
    /// registers and checked ranges). Two builds of the same catalog entry
    /// at the same [`Scale`] hash identically; changing the scale, seed,
    /// variant, or any kernel code changes the hash.
    pub fn hash_into(&self, h: &mut Hasher) {
        h.section("name", self.name.as_bytes());
        h.section("variant", self.variant.label().as_bytes());
        h.section("program", &self.program.stable_bytes());
        self.mem.hash_into(h);
        let obs: String = self.observable.iter().map(|r| format!("{r:?},")).collect();
        h.section("observable", obs.as_bytes());
        let ranges: String = self.check_ranges.iter().map(|(a, l)| format!("{a}+{l},")).collect();
        h.section("check_ranges", ranges.as_bytes());
    }

    /// Retired instruction count of a functional run (for Table III
    /// overhead factors).
    ///
    /// # Errors
    ///
    /// Propagates functional-simulation errors.
    pub fn dynamic_instructions(&self) -> Result<u64, SimError> {
        let mut m = Machine::new(self.program.clone(), self.mem.clone());
        let stats = m.run(4_000_000_000, &mut cfd_isa::NullSink)?;
        Ok(stats.retired)
    }
}

/// A deterministic xorshift64* RNG for data generation (no external
/// dependency needed in the hot path; `rand` is used in tests).
#[derive(Debug, Clone)]
pub struct Xorshift {
    state: u64,
}

impl Xorshift {
    /// Seeds the generator (zero is remapped).
    pub fn new(seed: u64) -> Xorshift {
        Xorshift { state: if seed == 0 { 0x9e3779b97f4a7c15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545f4914f6cdd1d)
    }

    /// Uniform value in `0..bound` (bound > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Standard register names used across kernels, so the code reads like the
/// paper's listings.
pub mod regs {
    use cfd_isa::Reg;

    /// The hardwired zero register.
    pub fn zero() -> Reg {
        Reg::ZERO
    }
    /// Induction variable of the (first) loop.
    pub fn i() -> Reg {
        Reg::new(1)
    }
    /// Loop bound.
    pub fn n() -> Reg {
        Reg::new(2)
    }
    /// Base address A.
    pub fn base_a() -> Reg {
        Reg::new(3)
    }
    /// Base address B.
    pub fn base_b() -> Reg {
        Reg::new(4)
    }
    /// Base address C.
    pub fn base_c() -> Reg {
        Reg::new(5)
    }
    /// Loaded value / predicate source.
    pub fn x() -> Reg {
        Reg::new(6)
    }
    /// Predicate.
    pub fn p() -> Reg {
        Reg::new(7)
    }
    /// Scratch address.
    pub fn tmp() -> Reg {
        Reg::new(8)
    }
    /// Accumulators (distinct architectural registers).
    pub fn acc(k: usize) -> Reg {
        Reg::new(9 + k) // r9..r15
    }
    /// Second loop induction / inner loop induction.
    pub fn j() -> Reg {
        Reg::new(16)
    }
    /// Inner bound / trip count.
    pub fn m() -> Reg {
        Reg::new(17)
    }
    /// Extra scratch.
    pub fn t(k: usize) -> Reg {
        Reg::new(18 + k) // r18..r23
    }
    /// Strip-mining scratch registers.
    pub fn strip(k: usize) -> Reg {
        Reg::new(24 + k) // r24..r27
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xorshift_deterministic() {
        let mut a = Xorshift::new(42);
        let mut b = Xorshift::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn xorshift_chance_roughly_calibrated() {
        let mut rng = Xorshift::new(7);
        let hits = (0..10_000).filter(|_| rng.chance(30)).count();
        assert!((2500..3500).contains(&hits), "hits={hits}");
    }

    fn fingerprint(w: &Workload) -> cfd_isa::Fingerprint {
        let mut h = Hasher::new();
        w.hash_into(&mut h);
        h.finish()
    }

    #[test]
    fn fingerprints_track_build_inputs() {
        let entry = crate::by_name("soplex_ref_like").expect("in catalog");
        let scale = Scale { n: 50, seed: 3 };
        let base = entry.build(Variant::Base, scale);
        let a = fingerprint(&base);
        assert_eq!(a, fingerprint(&entry.build(Variant::Base, scale)), "builds are reproducible");
        let bigger = fingerprint(&entry.build(Variant::Base, Scale { n: 60, seed: 3 }));
        let reseeded = fingerprint(&entry.build(Variant::Base, Scale { n: 50, seed: 4 }));
        let cfd = fingerprint(&entry.build(Variant::Cfd, scale));
        assert_ne!(a, bigger, "trip count is content");
        assert_ne!(a, reseeded, "data seed is content");
        assert_ne!(a, cfd, "variant is content");
        // One byte of one mapped page is content, wherever it lies.
        for at in [crate::patterns::DATA_BASE, crate::patterns::DATA_BASE + 8 * 50 - 1] {
            let mut poked = base.clone();
            let old = poked.mem.read(at, cfd_isa::MemWidth::B1, false);
            poked.mem.write(at, old ^ 1, cfd_isa::MemWidth::B1);
            assert_eq!(poked.mem.mapped_pages(), base.mem.mapped_pages(), "{at:#x} is on a mapped page");
            assert_ne!(a, fingerprint(&poked), "byte {at:#x} of the memory image is content");
        }
    }

    #[test]
    fn variant_labels_unique() {
        use std::collections::BTreeSet;
        let all = [
            Variant::Base,
            Variant::Cfd,
            Variant::CfdPlus,
            Variant::Dfd,
            Variant::CfdDfd,
            Variant::CfdTq,
            Variant::CfdBq,
            Variant::CfdBqTq,
            Variant::IfConv,
        ];
        let labels: BTreeSet<&str> = all.iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), all.len());
    }

    #[test]
    fn register_map_collision_free() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        let rs = [
            regs::i(),
            regs::n(),
            regs::base_a(),
            regs::base_b(),
            regs::base_c(),
            regs::x(),
            regs::p(),
            regs::tmp(),
            regs::acc(0),
            regs::acc(6),
            regs::j(),
            regs::m(),
            regs::t(0),
            regs::t(5),
            regs::strip(0),
            regs::strip(3),
        ];
        for r in rs {
            assert!(set.insert(r.index()), "register {r} reused");
        }
    }
}
