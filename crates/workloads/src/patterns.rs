//! The guarded-scan kernel family.
//!
//! Most of the paper's CFD targets share one shape (Fig. 3a): a loop scans
//! an array, computes a data-dependent predicate, and guards a sizable
//! control-dependent region with it. Kernels differ in the predicate, the
//! address pattern (streaming vs. pointer-like indirection), and the CD
//! region body. [`ScanKernel`] captures those degrees of freedom and emits
//! every transformation variant:
//!
//! * **Base** — the original loop,
//! * **Cfd** — strip-mined decoupling (Fig. 8): loop 1 pushes predicates,
//!   loop 2 pops them with `Branch_on_BQ`, recomputing `x` when the CD
//!   region needs it,
//! * **CfdPlus** — `x` rides the Value Queue instead of being recomputed
//!   (Fig. 11),
//! * **Dfd** — a prefetch loop runs a chunk ahead of the original loop
//!   (Fig. 16),
//! * **CfdDfd** — prefetch, then decouple (Fig. 26).

use crate::common::{regs, InterestBranch, PaperClass, Scale, Suite, Variant, Workload, Xorshift};
use cfd_isa::{Assembler, MemImage, Reg};

/// Base address of the scanned data array.
pub(crate) const DATA_BASE: u64 = 0x10_0000;
/// Base address of the permutation (indirection) array.
const PERM_BASE: u64 = 0x400_0000;
/// Base address of the output arrays written by CD regions.
const OUT_BASE: u64 = 0x800_0000;

/// How the kernel walks the data array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddressPattern {
    /// `data[i]` — streaming; misses are spatial-prefetch friendly.
    Streaming,
    /// `data[perm[i]]` — a random permutation; every element is a fresh,
    /// unpredictable miss (pointer-chasing surrogate; astar/mcf-like).
    Indirect,
}

/// The predicate the branch tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predicate {
    /// `x < threshold` over values uniform in `0..range` — taken with
    /// probability `threshold/range`, uncorrelated (hard).
    Threshold {
        /// Comparison threshold.
        threshold: i64,
        /// Value range of the generated data.
        range: u64,
    },
    /// `(x & mask) == match_val` — sparse bit-test (eclat/jpeg-like).
    BitTest {
        /// AND mask.
        mask: i64,
        /// Value the masked result must equal.
        match_val: i64,
    },
}

/// Size of the control-dependent region (number of accumulator update
/// instructions; stores included separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdRegion {
    /// ALU accumulator updates using `x`.
    pub alu_updates: usize,
    /// Whether the region stores results to output arrays.
    pub stores: bool,
}

/// A configurable guarded-scan kernel.
#[derive(Debug, Clone)]
pub struct ScanKernel {
    /// Kernel name.
    pub name: &'static str,
    /// Original benchmark's suite.
    pub suite: Suite,
    /// Address pattern.
    pub pattern: AddressPattern,
    /// Branch predicate.
    pub predicate: Predicate,
    /// CD region shape.
    pub cd: CdRegion,
    /// Strip-mining chunk for CFD variants (≤ BQ size).
    pub chunk: i64,
    /// Partial separability (§II-B): the CD region updates a carry register
    /// that feeds the next iteration's predicate. Decoupled variants hoist
    /// that short loop-carried dependence into the first loop and
    /// if-convert it (synthesized select), exactly as the paper prescribes
    /// for partially separable branches.
    pub partial_feedback: bool,
    /// What the branch is, for reports (Table V analog).
    pub what: &'static str,
}

impl ScanKernel {
    fn gen_mem(&self, scale: Scale) -> MemImage {
        let mut mem = MemImage::new();
        let mut rng = Xorshift::new(scale.seed);
        let range = match self.predicate {
            Predicate::Threshold { range, .. } => range,
            Predicate::BitTest { .. } => 1 << 16,
        };
        for k in 0..scale.n as u64 {
            mem.write_u64(DATA_BASE + 8 * k, rng.below(range));
        }
        if self.pattern == AddressPattern::Indirect {
            // Fisher–Yates permutation of 0..n.
            let n = scale.n as u64;
            for k in 0..n {
                mem.write_u64(PERM_BASE + 8 * k, k);
            }
            for k in (1..n).rev() {
                let j = rng.below(k + 1);
                let a = mem.read_u64(PERM_BASE + 8 * k);
                let b = mem.read_u64(PERM_BASE + 8 * j);
                mem.write_u64(PERM_BASE + 8 * k, b);
                mem.write_u64(PERM_BASE + 8 * j, a);
            }
        }
        mem
    }

    /// Emits `x = data[<address>]` for loop induction register `ind`.
    fn emit_load_x(&self, a: &mut Assembler, ind: Reg) {
        let (base_a, base_b, x, tmp) = (regs::base_a(), regs::base_b(), regs::x(), regs::tmp());
        match self.pattern {
            AddressPattern::Streaming => {
                a.sll(tmp, ind, 3i64);
                a.add(tmp, tmp, base_a);
                a.ld(x, 0, tmp);
            }
            AddressPattern::Indirect => {
                a.sll(tmp, ind, 3i64);
                a.add(tmp, tmp, base_b);
                a.ld(tmp, 0, tmp); // perm[i]
                a.sll(tmp, tmp, 3i64);
                a.add(tmp, tmp, base_a);
                a.ld(x, 0, tmp);
            }
        }
    }

    /// Emits the prefetch-only version of the address stream (DFD loop).
    fn emit_prefetch(&self, a: &mut Assembler, ind: Reg) {
        let (base_a, base_b, tmp) = (regs::base_a(), regs::base_b(), regs::tmp());
        match self.pattern {
            AddressPattern::Streaming => {
                a.sll(tmp, ind, 3i64);
                a.add(tmp, tmp, base_a);
                a.prefetch(0, tmp);
            }
            AddressPattern::Indirect => {
                a.sll(tmp, ind, 3i64);
                a.add(tmp, tmp, base_b);
                a.ld(tmp, 0, tmp);
                a.sll(tmp, tmp, 3i64);
                a.add(tmp, tmp, base_a);
                a.prefetch(0, tmp);
            }
        }
    }

    /// Emits `p = predicate(x [+ carry])`. With partial feedback the carry
    /// register (updated by the CD region) shifts the comparison point,
    /// making the branch's backward slice contain CD instructions.
    fn emit_predicate(&self, a: &mut Assembler) {
        let (x, p) = (regs::x(), regs::p());
        let carry = regs::t(5);
        match self.predicate {
            Predicate::Threshold { threshold, .. } => {
                if self.partial_feedback {
                    a.add(p, x, carry);
                    a.slt(p, p, threshold);
                } else {
                    a.slt(p, x, threshold);
                }
            }
            Predicate::BitTest { mask, match_val } => {
                if self.partial_feedback {
                    a.xor(p, x, carry);
                    a.and(p, p, mask);
                } else {
                    a.and(p, x, mask);
                }
                a.seq(p, p, match_val);
            }
        }
    }

    /// The CD region's carry update, in branchy form:
    /// `carry = (carry + (x & 7)) & 15`.
    fn emit_carry_update(&self, a: &mut Assembler) {
        let (x, carry, t) = (regs::x(), regs::t(5), regs::t(2));
        a.and(t, x, 7i64);
        a.add(carry, carry, t);
        a.and(carry, carry, 15i64);
    }

    /// The carry update if-converted under predicate `p` (for the first
    /// loop of decoupled variants): `carry = p ? f(carry, x) : carry`.
    fn emit_carry_update_ifconv(&self, a: &mut Assembler) {
        let (x, p, carry) = (regs::x(), regs::p(), regs::t(5));
        let (t, m) = (regs::t(2), regs::t(3));
        a.and(t, x, 7i64);
        a.add(t, carry, t);
        a.and(t, t, 15i64); // t = f(carry, x)
        a.sub(m, regs::zero(), p); // mask
        a.and(t, t, m);
        a.xor(m, m, -1i64);
        a.and(carry, carry, m);
        a.or(carry, carry, t);
    }

    /// Emits the control-dependent region. Reads `x`; updates accumulators
    /// `acc(0..)`, the match counter `acc(6)`, and optionally stores.
    /// `with_feedback` includes the carry update (the base variant; the
    /// decoupled second loop omits it — the first loop already applied it).
    fn emit_cd_with(&self, a: &mut Assembler, with_feedback: bool) {
        if self.partial_feedback && with_feedback {
            self.emit_carry_update(a);
        }
        self.emit_cd_core(a);
    }

    fn emit_cd_core(&self, a: &mut Assembler) {
        let (x, cnt) = (regs::x(), regs::acc(6));
        for k in 0..self.cd.alu_updates {
            let acc = regs::acc(k % 5);
            match k % 3 {
                0 => a.add(acc, acc, x),
                1 => a.xor(acc, acc, x),
                _ => a.add(acc, acc, regs::acc((k + 1) % 5)),
            };
        }
        if self.cd.stores {
            let (t0, t1) = (regs::t(0), regs::t(1));
            a.sll(t0, cnt, 3i64);
            a.li(t1, OUT_BASE as i64);
            a.add(t0, t0, t1);
            a.sd(x, 0, t0);
        }
        a.addi(cnt, cnt, 1);
    }

    /// Builds the requested variant at the given scale.
    ///
    /// # Panics
    ///
    /// Panics if the internal assembly is malformed (kernel bug).
    pub fn build(&self, variant: Variant, scale: Scale) -> Workload {
        let mem = self.gen_mem(scale);
        let (program, branch_pc) = match variant {
            Variant::Base => self.build_base(scale),
            Variant::Cfd => self.build_cfd(scale, false, false),
            Variant::CfdPlus => self.build_cfd(scale, true, false),
            Variant::Dfd => self.build_dfd(scale),
            Variant::CfdDfd => self.build_cfd(scale, false, true),
            other => panic!("{} does not support variant {other}", self.name),
        };
        let mut observable: Vec<Reg> = (0..5).map(regs::acc).collect();
        observable.push(regs::acc(6));
        if self.partial_feedback {
            observable.push(regs::t(5)); // the carry register
        }
        let check_ranges = if self.cd.stores { vec![(OUT_BASE, 8 * scale.n as u64)] } else { Vec::new() };
        Workload {
            name: self.name,
            variant,
            suite: self.suite,
            program,
            mem,
            observable,
            check_ranges,
            interest: vec![InterestBranch {
                pc: branch_pc,
                what: self.what,
                class: if self.partial_feedback { PaperClass::SeparablePartial } else { PaperClass::SeparableTotal },
            }],
        }
    }

    fn emit_preamble(&self, a: &mut Assembler, scale: Scale) {
        a.li(regs::n(), scale.n as i64);
        a.li(regs::base_a(), DATA_BASE as i64);
        a.li(regs::base_b(), PERM_BASE as i64);
        a.li(regs::i(), 0);
    }

    fn build_base(&self, scale: Scale) -> (cfd_isa::Program, u32) {
        let mut a = Assembler::new();
        let (i, n, p) = (regs::i(), regs::n(), regs::p());
        self.emit_preamble(&mut a, scale);
        a.label("top");
        self.emit_load_x(&mut a, i);
        self.emit_predicate(&mut a);
        let bpc = a.here();
        a.annotate(self.what);
        a.beqz(p, "skip");
        self.emit_cd_with(&mut a, true);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        (a.finish().expect("base kernel assembles"), bpc)
    }

    /// Strip-mined CFD: `use_vq` rides `x` on the Value Queue (CFD+);
    /// `with_dfd` adds a prefetch loop ahead of the push loop.
    fn build_cfd(&self, scale: Scale, use_vq: bool, with_dfd: bool) -> (cfd_isa::Program, u32) {
        let mut a = Assembler::new();
        let (i, n, p, x) = (regs::i(), regs::n(), regs::p(), regs::x());
        let (cs, lim, save) = (regs::strip(0), regs::strip(1), regs::strip(2));
        self.emit_preamble(&mut a, scale);
        a.label("chunk");
        a.addi(lim, i, self.chunk);
        a.min(lim, lim, n);
        a.mv(cs, i);
        if with_dfd {
            // DFD loop: prefetch the chunk's predicate data.
            a.label("dfd");
            self.emit_prefetch(&mut a, i);
            a.addi(i, i, 1);
            a.blt(i, lim, "dfd");
            a.mv(i, cs);
        }
        // Loop 1: predicates.
        a.label("gen");
        self.emit_load_x(&mut a, i);
        self.emit_predicate(&mut a);
        a.push_bq(p);
        if use_vq {
            a.push_vq(x);
        }
        if self.partial_feedback {
            // Hoisted, if-converted loop-carried dependence (§III: the
            // first loop of a partially separable branch carries a copy of
            // the feedback, predicated by conditional moves).
            self.emit_carry_update_ifconv(&mut a);
        }
        a.addi(i, i, 1);
        a.blt(i, lim, "gen");
        a.mv(save, i);
        a.mv(i, cs);
        // Loop 2: consumers.
        a.label("use");
        if use_vq {
            a.pop_vq(x);
        }
        let bpc = a.here();
        a.annotate(self.what);
        a.branch_on_bq("skip");
        if !use_vq {
            // Recompute x for the CD region (the CFD instruction overhead
            // that CFD+ removes).
            self.emit_load_x(&mut a, i);
        }
        self.emit_cd_with(&mut a, false);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, save, "use");
        a.blt(i, n, "chunk");
        a.halt();
        (a.finish().expect("cfd kernel assembles"), bpc)
    }

    fn build_dfd(&self, scale: Scale) -> (cfd_isa::Program, u32) {
        let mut a = Assembler::new();
        let (i, n, p) = (regs::i(), regs::n(), regs::p());
        let (cs, lim) = (regs::strip(0), regs::strip(1));
        self.emit_preamble(&mut a, scale);
        a.label("chunk");
        a.addi(lim, i, self.chunk * 2); // DFD tolerates larger chunks
        a.min(lim, lim, n);
        a.mv(cs, i);
        a.label("dfd");
        self.emit_prefetch(&mut a, i);
        a.addi(i, i, 1);
        a.blt(i, lim, "dfd");
        a.mv(i, cs);
        // Original loop over the chunk.
        a.label("top");
        self.emit_load_x(&mut a, i);
        self.emit_predicate(&mut a);
        let bpc = a.here();
        a.annotate(self.what);
        a.beqz(p, "skip");
        self.emit_cd_with(&mut a, true);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, lim, "top");
        a.blt(i, n, "chunk");
        a.halt();
        (a.finish().expect("dfd kernel assembles"), bpc)
    }

    /// Variants this kernel family supports.
    pub fn variants(&self) -> &'static [Variant] {
        &[Variant::Base, Variant::Cfd, Variant::CfdPlus, Variant::Dfd, Variant::CfdDfd]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> ScanKernel {
        ScanKernel {
            name: "test_scan",
            suite: Suite::Spec2006,
            pattern: AddressPattern::Streaming,
            predicate: Predicate::Threshold { threshold: 35, range: 100 },
            cd: CdRegion { alu_updates: 6, stores: true },
            chunk: 128,
            partial_feedback: false,
            what: "test branch",
        }
    }

    #[test]
    fn all_variants_agree_with_base() {
        let k = kernel();
        let scale = Scale::small();
        let want = k.build(Variant::Base, scale).observe().unwrap();
        for v in [Variant::Cfd, Variant::CfdPlus, Variant::Dfd, Variant::CfdDfd] {
            let got = k.build(v, scale).observe().unwrap();
            assert_eq!(got, want, "variant {v} diverges");
        }
    }

    #[test]
    fn indirect_pattern_agrees_too() {
        let mut k = kernel();
        k.pattern = AddressPattern::Indirect;
        let scale = Scale::small();
        let want = k.build(Variant::Base, scale).observe().unwrap();
        for v in [Variant::Cfd, Variant::CfdPlus, Variant::Dfd, Variant::CfdDfd] {
            assert_eq!(k.build(v, scale).observe().unwrap(), want, "variant {v} diverges");
        }
    }

    #[test]
    fn bit_test_predicate_agrees() {
        let mut k = kernel();
        k.predicate = Predicate::BitTest { mask: 0x7, match_val: 0x3 };
        let scale = Scale::small();
        let want = k.build(Variant::Base, scale).observe().unwrap();
        assert_eq!(k.build(Variant::Cfd, scale).observe().unwrap(), want);
        assert_eq!(k.build(Variant::CfdPlus, scale).observe().unwrap(), want);
    }

    #[test]
    fn cfd_has_instruction_overhead() {
        let k = kernel();
        let scale = Scale::small();
        let base = k.build(Variant::Base, scale).dynamic_instructions().unwrap();
        let cfd = k.build(Variant::Cfd, scale).dynamic_instructions().unwrap();
        let dfd = k.build(Variant::Dfd, scale).dynamic_instructions().unwrap();
        assert!(cfd > base, "CFD duplicates looping work");
        assert!(dfd > base, "DFD adds its prefetch loop");
    }

    #[test]
    fn vq_profitability_depends_on_taken_rate() {
        // CFD+ pays push/pop every iteration; plain CFD recomputes x only
        // when the CD region executes. The VQ wins on mostly-taken
        // branches (§IV-B's dedup motivation) and loses on sparse ones.
        let scale = Scale::small();
        let mut hot = kernel();
        hot.predicate = Predicate::Threshold { threshold: 85, range: 100 };
        let cfd = hot.build(Variant::Cfd, scale).dynamic_instructions().unwrap();
        let plus = hot.build(Variant::CfdPlus, scale).dynamic_instructions().unwrap();
        assert!(plus < cfd, "VQ wins at 85% taken: {plus} vs {cfd}");

        let mut cold = kernel();
        cold.predicate = Predicate::Threshold { threshold: 15, range: 100 };
        let cfd = cold.build(Variant::Cfd, scale).dynamic_instructions().unwrap();
        let plus = cold.build(Variant::CfdPlus, scale).dynamic_instructions().unwrap();
        assert!(plus > cfd, "VQ loses at 15% taken: {plus} vs {cfd}");
    }

    #[test]
    fn base_branch_pc_annotated() {
        let k = kernel();
        let w = k.build(Variant::Base, Scale::small());
        let pc = w.interest[0].pc;
        assert_eq!(w.program.annotation(pc), Some("test branch"));
    }

    #[test]
    fn data_deterministic_per_seed() {
        let k = kernel();
        let a = k.build(Variant::Base, Scale { n: 100, seed: 1 });
        let b = k.build(Variant::Base, Scale { n: 100, seed: 1 });
        let c = k.build(Variant::Base, Scale { n: 100, seed: 2 });
        assert_eq!(a.observe().unwrap(), b.observe().unwrap());
        assert_ne!(a.observe().unwrap(), c.observe().unwrap());
    }

    #[test]
    fn partial_feedback_variants_agree() {
        // The if-converted first loop must reproduce the loop-carried carry
        // exactly (the §III partial-separability recipe).
        let mut k = kernel();
        k.partial_feedback = true;
        let scale = Scale::small();
        let want = k.build(Variant::Base, scale).observe().unwrap();
        for v in [Variant::Cfd, Variant::CfdPlus, Variant::Dfd, Variant::CfdDfd] {
            assert_eq!(k.build(v, scale).observe().unwrap(), want, "variant {v} diverges");
        }
    }

    #[test]
    fn partial_feedback_costs_more_in_loop_one() {
        let mut k = kernel();
        let scale = Scale::small();
        let total_cfd = k.build(Variant::Cfd, scale).dynamic_instructions().unwrap();
        k.partial_feedback = true;
        let partial_cfd = k.build(Variant::Cfd, scale).dynamic_instructions().unwrap();
        assert!(partial_cfd > total_cfd, "if-conversion adds first-loop instructions");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut k = kernel();
        k.pattern = AddressPattern::Indirect;
        let w = k.build(Variant::Base, Scale { n: 500, seed: 3 });
        let mut seen = vec![false; 500];
        for i in 0..500u64 {
            let v = w.mem.read_u64(PERM_BASE + 8 * i) as usize;
            assert!(v < 500 && !seen[v]);
            seen[v] = true;
        }
    }
}
