//! Branch classification (paper §II-B).
//!
//! Every conditional branch inside a loop is placed into one of the paper's
//! classes by comparing the size of its control-dependent region with the
//! overlap between that region and the branch's backward slice:
//!
//! * **Hammock** — small control-dependent region; if-conversion territory.
//! * **SeparableTotal** — large region, slice disjoint from it: CFD applies
//!   directly.
//! * **SeparablePartial** — large region, slice contains a *few* of its
//!   control-dependent instructions: CFD + if-converted first loop.
//! * **Inseparable** — slice entangled with the region; CFD does not apply.
//! * **SeparableLoopBranch** — the controlling branch of an inner loop whose
//!   trip-count computation is separable from the loop body: CFD(TQ).
//! * **NotAnalyzed** — not inside a loop.

use crate::cfg::Cfg;
use crate::control_dep::ControlDeps;
use crate::dom::DomTree;
use crate::loops::{find_loops, is_nested, NaturalLoop};
use crate::slice::{backward_slice, backward_slice_with, AliasMode};
use crate::spec::{speculation_safety, LoadSafety};
use cfd_isa::{Instr, Program};
use std::collections::BTreeSet;
use std::fmt;

/// The paper's control-flow classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum BranchClass {
    /// Small control-dependent region: if-convert.
    Hammock,
    /// Totally separable: CFD(BQ).
    SeparableTotal,
    /// Partially separable: CFD(BQ) with an if-converted first loop.
    SeparablePartial,
    /// Backward slice entangled with the control-dependent region.
    Inseparable,
    /// Heuristically inseparable, but the precise alias tier proved the
    /// entangling stores disjoint and every slice load safe to hoist:
    /// speculative CFD applies ([`crate::apply_cfd_spec`]).
    SpeculativelySeparable,
    /// Separable loop-branch: CFD(TQ).
    SeparableLoopBranch,
    /// Inseparable loop-branch (trip count depends on the loop body).
    InseparableLoopBranch,
    /// Not inside any loop.
    NotAnalyzed,
}

impl fmt::Display for BranchClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchClass::Hammock => "hammock",
            BranchClass::SeparableTotal => "separable (total)",
            BranchClass::SeparablePartial => "separable (partial)",
            BranchClass::Inseparable => "inseparable",
            BranchClass::SpeculativelySeparable => "speculatively separable",
            BranchClass::SeparableLoopBranch => "separable loop-branch",
            BranchClass::InseparableLoopBranch => "inseparable loop-branch",
            BranchClass::NotAnalyzed => "not analyzed",
        };
        f.write_str(s)
    }
}

/// Control-dependent regions of at most this many instructions are
/// hammocks (profitable to if-convert).
const HAMMOCK_MAX_INSTRS: usize = 4;

/// Slice∩region overlaps of at most this many instructions keep a branch
/// *partially* separable (if-convertible first loop).
const PARTIAL_MAX_OVERLAP: usize = 3;

/// Classification result for one static branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchReport {
    /// The branch PC.
    pub pc: u32,
    /// Assigned class.
    pub class: BranchClass,
    /// Instructions control-dependent on the branch (within its loop).
    pub cd_region_instrs: usize,
    /// Instructions in the branch's backward slice (within its loop).
    pub slice_instrs: usize,
    /// Slice instructions that are control-dependent on the branch.
    pub overlap_instrs: usize,
    /// The class the same-base-register heuristic alone assigns. Differs
    /// from `class` only when the precise alias tier upgraded the branch
    /// to [`BranchClass::SpeculativelySeparable`].
    pub heuristic_class: BranchClass,
    /// Loads in the governing backward slice.
    pub slice_loads: usize,
    /// Slice loads the speculation contract proves safe to hoist
    /// (computed only on the precise tier; 0 elsewhere).
    pub proven_safe_loads: usize,
    /// Slice loads that failed the speculation contract (precise tier).
    pub unsafe_loads: usize,
    /// (load pc, store pc) disjointness proofs backing the upgrade; the
    /// dynamic cross-check in `cfd-harden` can attempt to refute them.
    pub disjoint_claims: Vec<(u32, u32)>,
}

/// Classifies every conditional branch of `program`.
pub fn classify_program(program: &Program) -> Vec<BranchReport> {
    let cfg = &Cfg::build(program);
    let dom = DomTree::dominators(cfg);
    let pdom = DomTree::post_dominators(cfg);
    let cd = ControlDeps::compute(cfg, &pdom);
    let loops = find_loops(cfg, &dom);

    let mut reports = Vec::new();
    for (pc, instr) in program.instrs().iter().enumerate() {
        if !instr.is_plain_conditional() {
            continue;
        }
        let pc = pc as u32;
        reports.push(classify_branch(program, cfg, &cd, &loops, pc));
    }
    reports
}

fn innermost_loop(loops: &[NaturalLoop], block: usize) -> Option<&NaturalLoop> {
    loops.iter().filter(|l| l.contains(block)).min_by_key(|l| l.blocks.len())
}

fn classify_branch(program: &Program, cfg: &Cfg, cd: &ControlDeps, loops: &[NaturalLoop], pc: u32) -> BranchReport {
    let not_analyzed = || BranchReport {
        pc,
        class: BranchClass::NotAnalyzed,
        cd_region_instrs: 0,
        slice_instrs: 0,
        overlap_instrs: 0,
        heuristic_class: BranchClass::NotAnalyzed,
        slice_loads: 0,
        proven_safe_loads: 0,
        unsafe_loads: 0,
        disjoint_claims: Vec::new(),
    };
    let count_loads =
        |pcs: &BTreeSet<u32>| pcs.iter().filter(|&&p| matches!(program.fetch(p), Some(Instr::Load { .. }))).count();
    let block = cfg.block_of(pc);
    let Some(lp) = innermost_loop(loops, block) else {
        return not_analyzed();
    };

    // Is this the controlling branch of `lp` (one successor continues the
    // loop, the other exits it)? Then it is a loop-branch candidate when
    // `lp` nests in an outer loop (paper Fig. 5: for-in-for with a
    // data-dependent trip count).
    let succs = &cfg.blocks[block].succs;
    let is_loop_controlling = pc == cfg.blocks[block].end - 1
        && succs.iter().any(|s| lp.contains(*s))
        && succs.iter().any(|s| !lp.contains(*s));
    if is_loop_controlling {
        if let Some(outer) = loops.iter().find(|o| is_nested(lp, o)) {
            // Trip-count separability: slice the branch within the *inner*
            // loop; induction self-recurrences are allowed, anything else
            // defined inside the inner loop entangles the trip count.
            let slice = backward_slice(program, cfg, lp, pc);
            let body_pcs: BTreeSet<u32> =
                lp.blocks.iter().filter(|&&b| b < cfg.len() - 1).flat_map(|&b| cfg.blocks[b].pcs()).collect();
            let entangled = slice
                .pcs
                .iter()
                .filter(|p| body_pcs.contains(p))
                .filter(|&&p| {
                    let i = program.fetch(p).expect("in range");
                    !is_induction(&i)
                })
                .count();
            let _ = outer;
            let class =
                if entangled == 0 { BranchClass::SeparableLoopBranch } else { BranchClass::InseparableLoopBranch };
            return BranchReport {
                pc,
                class,
                cd_region_instrs: lp.instr_count(cfg),
                slice_instrs: slice.pcs.len(),
                overlap_instrs: entangled,
                heuristic_class: class,
                slice_loads: count_loads(&slice.pcs),
                proven_safe_loads: 0,
                unsafe_loads: 0,
                disjoint_claims: Vec::new(),
            };
        }
    }

    if is_loop_controlling {
        // The exit branch of a non-nested loop: a trip-count predictor /
        // plain predictor concern, outside the paper's taxonomy.
        return not_analyzed();
    }

    // Regular branch: measure the CD region within the loop and the
    // slice/region overlap. The same-base-register heuristic tier is the
    // primary classifier; the precise alias tier only ever *upgrades* a
    // heuristically inseparable branch, so existing classes never churn.
    let region_blocks: Vec<usize> =
        cd.dependents(block).iter().copied().filter(|b| lp.contains(*b) && *b != block).collect();
    let cd_region_instrs: usize = region_blocks.iter().map(|&b| cfg.blocks[b].len()).sum();
    let region_pcs: BTreeSet<u32> = region_blocks.iter().flat_map(|&b| cfg.blocks[b].pcs()).collect();
    let classify = |overlap: usize| {
        if cd_region_instrs == 0 {
            // An exit/latch branch of this loop without inner-loop nesting.
            BranchClass::NotAnalyzed
        } else if cd_region_instrs <= HAMMOCK_MAX_INSTRS {
            BranchClass::Hammock
        } else if overlap == 0 {
            BranchClass::SeparableTotal
        } else if overlap <= PARTIAL_MAX_OVERLAP {
            BranchClass::SeparablePartial
        } else {
            BranchClass::Inseparable
        }
    };

    let slice = backward_slice_with(program, cfg, lp, pc, AliasMode::Heuristic);
    let overlap_instrs = slice.pcs.intersection(&region_pcs).count();
    let heuristic_class = classify(overlap_instrs);
    let mut report = BranchReport {
        pc,
        class: heuristic_class,
        cd_region_instrs,
        slice_instrs: slice.pcs.len(),
        overlap_instrs,
        heuristic_class,
        slice_loads: count_loads(&slice.pcs),
        proven_safe_loads: 0,
        unsafe_loads: 0,
        disjoint_claims: Vec::new(),
    };
    if heuristic_class != BranchClass::Inseparable {
        return report;
    }

    // Precise tier: re-slice with the value-range alias oracle, then check
    // the speculation contract on every load the slice would hoist.
    let precise = backward_slice_with(program, cfg, lp, pc, AliasMode::Precise);
    let precise_overlap = precise.pcs.intersection(&region_pcs).count();
    let precise_class = classify(precise_overlap);
    let has_store = precise
        .pcs
        .iter()
        .any(|&p| matches!(program.fetch(p), Some(i) if i.is_mem() && !matches!(i, Instr::Load { .. })));
    // Candidate loads are what the transform would actually hoist: every
    // loop load ahead of the branch outside the CD region (the leading
    // loop re-runs the whole header, not just the slice pcs).
    let load_pcs: BTreeSet<u32> = lp
        .blocks
        .iter()
        .filter(|&&b| b < cfg.len() - 1)
        .flat_map(|&b| cfg.blocks[b].pcs())
        .filter(|&p| p < pc && !region_pcs.contains(&p))
        .filter(|&p| matches!(program.fetch(p), Some(Instr::Load { .. })))
        .collect();
    if !matches!(precise_class, BranchClass::SeparableTotal | BranchClass::SeparablePartial) || has_store {
        return report;
    }
    let spec = speculation_safety(program, cfg, lp, pc, &load_pcs);
    report.proven_safe_loads = spec.loads.iter().filter(|l| l.safety == LoadSafety::ProvenSafe).count();
    report.unsafe_loads = spec.loads.len() - report.proven_safe_loads;
    if !load_pcs.is_empty() && spec.all_safe() && !spec.claims.is_empty() {
        report.class = BranchClass::SpeculativelySeparable;
        report.slice_instrs = precise.pcs.len();
        report.overlap_instrs = precise_overlap;
        report.slice_loads = load_pcs.len();
        report.disjoint_claims = spec.claims.iter().map(|c| (c.load_pc, c.store_pc)).collect();
    }
    report
}

fn is_induction(instr: &Instr) -> bool {
    match instr {
        Instr::Alu { rd, rs1, src2, .. } => rd == rs1 && matches!(src2, cfd_isa::Src2::Imm(_)),
        Instr::Li { .. } => true,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_isa::{Assembler, Reg};

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    fn classify_one(program: &Program, pc: u32) -> BranchReport {
        classify_program(program).into_iter().find(|r| r.pc == pc).expect("branch classified")
    }

    /// Builds a loop with a guarded region of `cd_len` filler instructions;
    /// `entangle` makes the predicate depend on a CD-updated register.
    fn guarded_loop(cd_len: usize, entangle: bool) -> (Program, u32) {
        let (i, n, p, acc) = (r(1), r(2), r(3), r(4));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.label("top");
        if entangle {
            a.slt(p, acc, n);
        } else {
            a.xor(p, i, 3i64);
            a.and(p, p, 1i64);
        }
        let bpc = a.here();
        a.beqz(p, "skip");
        for k in 0..cd_len {
            if entangle && k == 0 {
                a.addi(acc, acc, 1);
            } else {
                a.addi(r(5 + (k % 3)), r(5 + (k % 3)), 1);
            }
        }
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        (a.finish().unwrap(), bpc)
    }

    #[test]
    fn small_region_is_hammock() {
        let (p, bpc) = guarded_loop(3, false);
        let rep = classify_one(&p, bpc);
        assert_eq!(rep.class, BranchClass::Hammock);
        assert_eq!(rep.cd_region_instrs, 3);
    }

    #[test]
    fn large_disjoint_region_is_totally_separable() {
        let (p, bpc) = guarded_loop(12, false);
        let rep = classify_one(&p, bpc);
        assert_eq!(rep.class, BranchClass::SeparableTotal);
        assert_eq!(rep.overlap_instrs, 0);
    }

    #[test]
    fn small_feedback_is_partially_separable() {
        let (p, bpc) = guarded_loop(12, true);
        let rep = classify_one(&p, bpc);
        assert_eq!(rep.class, BranchClass::SeparablePartial);
        assert_eq!(rep.overlap_instrs, 1);
    }

    #[test]
    fn heavy_feedback_is_inseparable() {
        // Predicate folds in many CD-updated registers.
        let (i, n, p, a1, a2, a3, a4) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.label("top");
        a.add(p, a1, a2);
        a.add(p, p, a3);
        a.add(p, p, a4);
        a.and(p, p, 1i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        a.addi(a1, a1, 1);
        a.addi(a2, a2, 3);
        a.addi(a3, a3, 5);
        a.addi(a4, a4, 7);
        a.addi(r(8), r(8), 1);
        a.addi(r(9), r(9), 1);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let rep = classify_one(&a.finish().unwrap(), bpc);
        assert_eq!(rep.class, BranchClass::Inseparable);
        assert!(rep.overlap_instrs >= 4);
    }

    #[test]
    fn branch_outside_loop_not_analyzed() {
        let mut a = Assembler::new();
        a.beqz(r(1), "end");
        a.addi(r(2), r(2), 1);
        a.label("end");
        a.halt();
        let rep = classify_one(&a.finish().unwrap(), 0);
        assert_eq!(rep.class, BranchClass::NotAnalyzed);
    }

    #[test]
    fn nested_loop_branch_with_invariant_trip_is_separable() {
        // for i { m = a[i]; for j in 0..m { body } } — astar Fig. 14 shape.
        let (i, n, j, m, base, tmp) = (r(1), r(2), r(3), r(4), r(5), r(6));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.li(base, 0x1000);
        a.label("outer");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(m, 0, tmp); // trip count a[i], inner-loop invariant
        a.li(j, 0);
        a.j("inner_test");
        a.label("inner_body");
        a.addi(r(7), r(7), 1);
        a.addi(j, j, 1);
        a.label("inner_test");
        let bpc = a.here();
        a.blt(j, m, "inner_body");
        a.addi(i, i, 1);
        a.blt(i, n, "outer");
        a.halt();
        let rep = classify_one(&a.finish().unwrap(), bpc);
        assert_eq!(rep.class, BranchClass::SeparableLoopBranch);
    }

    #[test]
    fn hammock_cutoff_is_inclusive() {
        // Region of exactly `HAMMOCK_MAX_INSTRS` is still a hammock; one
        // more instruction tips it over.
        let (p, bpc) = guarded_loop(HAMMOCK_MAX_INSTRS, false);
        assert_eq!(classify_one(&p, bpc).class, BranchClass::Hammock);
        let (p, bpc) = guarded_loop(HAMMOCK_MAX_INSTRS + 1, false);
        assert_eq!(classify_one(&p, bpc).class, BranchClass::SeparableTotal);
    }

    /// A strided scan whose predicate folds in `feedbacks` CD-updated
    /// registers, with a CD store through the same base register the
    /// slice load uses (heuristically entangling, precisely disjoint).
    fn mem_entangled_loop(feedbacks: usize) -> (Program, u32) {
        let (i, n, base, x, p, tmp) = (r(1), r(2), r(3), r(4), r(5), r(6));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.li(base, 0x1000);
        a.li(i, 0);
        a.label("top");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(x, 0, tmp);
        a.mv(p, x);
        for k in 0..feedbacks {
            a.add(p, p, r(10 + k));
        }
        a.slt(p, p, 500i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        for k in 0..feedbacks {
            a.addi(r(10 + k), r(10 + k), 1);
        }
        a.sd(x, 800, tmp);
        for k in 0..6 {
            a.addi(r(20 + k % 3), r(20 + k % 3), 1);
        }
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        (a.finish().unwrap(), bpc)
    }

    #[test]
    fn partial_overlap_edge_is_inclusive() {
        // 2 feedback registers + the heuristically-aliasing store land the
        // overlap exactly on `PARTIAL_MAX_OVERLAP`: still partial.
        let (p, bpc) = mem_entangled_loop(2);
        let rep = classify_one(&p, bpc);
        assert_eq!(rep.overlap_instrs, PARTIAL_MAX_OVERLAP);
        assert_eq!(rep.class, BranchClass::SeparablePartial);
        assert_eq!(rep.heuristic_class, BranchClass::SeparablePartial);
    }

    #[test]
    fn one_past_the_partial_edge_upgrades_via_precise_alias() {
        // 3 feedbacks + the store = overlap 4: heuristically inseparable.
        // The precise tier proves the store disjoint, dropping the overlap
        // back to the feedback registers (3, partial) and proving the one
        // slice load safe: the branch upgrades.
        let (p, bpc) = mem_entangled_loop(3);
        let rep = classify_one(&p, bpc);
        assert_eq!(rep.heuristic_class, BranchClass::Inseparable);
        assert_eq!(rep.class, BranchClass::SpeculativelySeparable);
        assert_eq!(rep.overlap_instrs, 3, "precise slice drops only the store");
        assert_eq!((rep.slice_loads, rep.proven_safe_loads, rep.unsafe_loads), (1, 1, 0));
        assert_eq!(rep.disjoint_claims.len(), 1);
    }

    #[test]
    fn register_only_entanglement_never_upgrades() {
        // Four pure-register feedbacks: the precise alias tier has nothing
        // to refute, so the branch stays inseparable with zero claims.
        let (i, n, p) = (r(1), r(2), r(3));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.li(i, 0);
        a.label("top");
        a.mv(p, i);
        for k in 0..4 {
            a.add(p, p, r(10 + k));
        }
        a.and(p, p, 1i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        for k in 0..4 {
            a.addi(r(10 + k), r(10 + k), 1);
        }
        a.addi(r(20), r(20), 1);
        a.addi(r(21), r(21), 1);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let rep = classify_one(&a.finish().unwrap(), bpc);
        assert_eq!(rep.class, BranchClass::Inseparable);
        assert_eq!(rep.heuristic_class, BranchClass::Inseparable);
        assert!(rep.disjoint_claims.is_empty());
    }

    #[test]
    fn irreducible_inner_region_is_tolerated() {
        // The outer loop carries a store-entangled branch; after it, an
        // irreducible two-entry cycle (L1 <-> L2). The precise tier must
        // poison the cycle's registers, not the induction, so the upgrade
        // still goes through — and nothing panics.
        let (i, n, base, x, p, tmp, s, u, v) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.li(base, 0x1000);
        a.li(i, 0);
        a.label("top");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(x, 0, tmp);
        a.slt(p, x, 500i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        a.sd(x, 800, tmp);
        a.sd(x, 1600, tmp);
        a.sd(x, 2400, tmp);
        a.sd(x, 3200, tmp);
        a.add(s, s, x);
        a.xor(r(12), r(12), x);
        a.label("skip");
        a.beqz(s, "L2"); // second entry into the cycle: irreducible
        a.label("L1");
        a.addi(u, u, 1);
        a.j("L2");
        a.label("L2");
        a.addi(v, v, 1);
        a.beqz(v, "L1");
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let program = a.finish().unwrap();
        let rep = classify_one(&program, bpc);
        assert_eq!(rep.heuristic_class, BranchClass::Inseparable);
        assert_eq!(rep.class, BranchClass::SpeculativelySeparable);
        assert_eq!(rep.disjoint_claims.len(), 4);
    }

    #[test]
    fn unreachable_block_inside_the_loop_is_tolerated() {
        // Dead code between the CD region and the skip label feeds the
        // CFG an unreachable block; classification must not panic and the
        // reachable structure still upgrades.
        let (i, n, base, x, p, tmp) = (r(1), r(2), r(3), r(4), r(5), r(6));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.li(base, 0x1000);
        a.li(i, 0);
        a.label("top");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(x, 0, tmp);
        a.slt(p, x, 500i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        a.sd(x, 800, tmp);
        a.sd(x, 1600, tmp);
        a.sd(x, 2400, tmp);
        a.sd(x, 3200, tmp);
        a.add(r(7), r(7), x);
        a.j("skip");
        a.addi(r(8), r(8), 1); // unreachable
        a.addi(r(9), r(9), 1); // unreachable
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let program = a.finish().unwrap();
        let rep = classify_one(&program, bpc);
        assert_eq!(rep.heuristic_class, BranchClass::Inseparable);
        assert_eq!(rep.class, BranchClass::SpeculativelySeparable);
    }

    #[test]
    fn trip_count_updated_in_body_is_inseparable_loop_branch() {
        // The inner loop's bound m is recomputed from body state each
        // iteration: the trip count is NOT separable.
        let (i, n, j, m, acc) = (r(1), r(2), r(3), r(4), r(7));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.label("outer");
        a.li(j, 0);
        a.li(m, 5);
        a.j("inner_test");
        a.label("inner_body");
        a.addi(acc, acc, 1);
        a.srl(m, acc, 2i64); // bound depends on the body
        a.addi(j, j, 1);
        a.label("inner_test");
        let bpc = a.here();
        a.blt(j, m, "inner_body");
        a.addi(i, i, 1);
        a.blt(i, n, "outer");
        a.halt();
        let rep = classify_one(&a.finish().unwrap(), bpc);
        assert_eq!(rep.class, BranchClass::InseparableLoopBranch);
    }
}
