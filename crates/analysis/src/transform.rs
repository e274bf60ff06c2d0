//! Automatic CFD transformation for canonical totally separable branches.
//!
//! The paper implemented a gcc pass that decouples loops automatically and
//! reports performance comparable to manual CFD for totally separable
//! branches (§I, §III-B). This module is the analog for our IR: it
//! recognizes the canonical guarded-loop shape
//!
//! ```text
//! top:   <slice>                 ; computes predicate p
//!        beqz p, skip           ; the separable branch
//!        <cd region>            ; straight-line
//! skip:  <induction>            ; e.g. addi i, i, 1
//!        blt i, n, top
//! ```
//!
//! and rewrites it into two decoupled loops communicating through the BQ,
//! strip-mined into chunks of the BQ size (§III-B: "the most straightforward
//! solution is loop strip mining").
//!
//! The transform is deliberately conservative: anything not matching the
//! canonical shape is rejected with a precise [`TransformError`], exactly
//! like a compiler pass bailing out.

use crate::cfg::Cfg;
use crate::classify::{classify_program, BranchClass};
use crate::dom::DomTree;
use crate::loops::find_loops;
use cfd_isa::{AluOp, AsmError, Assembler, BranchCond, Instr, Program, Reg};
use std::fmt;

/// Why the transform refused a branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The PC does not hold a conditional branch.
    NotABranch(u32),
    /// The branch is not classified totally separable.
    NotTotallySeparable(BranchClass),
    /// The enclosing loop does not match the canonical 3-block shape.
    NonCanonicalLoop(&'static str),
    /// Not enough scratch registers were supplied (need 4).
    NeedScratchRegisters,
    /// Re-assembly failed (duplicate/undefined internal label).
    Assembly(AsmError),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::NotABranch(pc) => write!(f, "pc {pc} is not a conditional branch"),
            TransformError::NotTotallySeparable(c) => write!(f, "branch class is {c}, not totally separable"),
            TransformError::NonCanonicalLoop(why) => write!(f, "loop shape not canonical: {why}"),
            TransformError::NeedScratchRegisters => write!(f, "transform needs 4 scratch registers"),
            TransformError::Assembly(e) => write!(f, "assembly failed: {e}"),
        }
    }
}

impl std::error::Error for TransformError {}

impl From<AsmError> for TransformError {
    fn from(e: AsmError) -> Self {
        TransformError::Assembly(e)
    }
}

/// What the transform did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformReport {
    /// The rewritten program.
    pub program: Program,
    /// Strip-mining chunk (= BQ size used).
    pub chunk: usize,
    /// Static instruction count before/after.
    pub static_instrs: (usize, usize),
    /// Translation validation: the rewritten program re-linted by
    /// [`lint_program`](crate::lint_program) against the queue size the
    /// transform strip-mined for. A non-clean report means the rewrite
    /// itself broke the queue discipline.
    pub lint: crate::LintReport,
}

/// Applies the CFD transform to the totally separable branch at
/// `branch_pc`, strip-mining with `bq_size` chunks.
///
/// `scratch` must name at least 4 registers that are dead across the loop
/// (the pass does not do liveness analysis; the caller — like a real
/// compiler's register allocator — guarantees them).
///
/// # Errors
///
/// Returns a [`TransformError`] when the branch or its loop does not match
/// the canonical shape; the original program is untouched.
pub fn apply_cfd(
    program: &Program,
    branch_pc: u32,
    bq_size: usize,
    scratch: &[Reg],
) -> Result<TransformReport, TransformError> {
    apply_cfd_gated(program, branch_pc, bq_size, scratch, false)
}

/// The transform body behind [`apply_cfd`]; `speculative` additionally
/// admits [`BranchClass::SpeculativelySeparable`] branches (whose loads
/// the caller re-validates with [`crate::lint_speculation`]).
fn apply_cfd_gated(
    program: &Program,
    branch_pc: u32,
    bq_size: usize,
    scratch: &[Reg],
    speculative: bool,
) -> Result<TransformReport, TransformError> {
    if scratch.len() < 4 {
        return Err(TransformError::NeedScratchRegisters);
    }
    let (s_end, s_save, s_lim, s_n) = (scratch[0], scratch[1], scratch[2], scratch[3]);

    let branch = program.fetch(branch_pc).ok_or(TransformError::NotABranch(branch_pc))?;
    let Instr::Branch { cond: BranchCond::Eq, rs1: _pred, rs2, target: skip_target } = branch else {
        return Err(TransformError::NonCanonicalLoop("separable branch must be `beqz p, skip`"));
    };
    if !rs2.is_zero() {
        return Err(TransformError::NonCanonicalLoop("separable branch must compare against r0"));
    }

    // Classification gate: totally separable transforms directly;
    // partially separable additionally hoists + if-converts the short
    // loop-carried dependence into the first loop (§III).
    let report = classify_program(program)
        .into_iter()
        .find(|r| r.pc == branch_pc)
        .ok_or(TransformError::NotABranch(branch_pc))?;
    let partial = match report.class {
        BranchClass::SeparableTotal => false,
        BranchClass::SeparablePartial => true,
        // The upgraded class behaves like total/partial separability once
        // the precise slice (which `backward_slice` computes) governs.
        BranchClass::SpeculativelySeparable if speculative => report.overlap_instrs > 0,
        other => return Err(TransformError::NotTotallySeparable(other)),
    };

    // Canonical shape: header [loop_start .. branch_pc], CD region
    // [branch_pc+1 .. skip_target), latch [skip_target .. back_branch].
    let cfg = Cfg::build(program);
    let dom = DomTree::dominators(&cfg);
    let loops = find_loops(&cfg, &dom);
    let lp = loops
        .iter()
        .filter(|l| l.contains(cfg.block_of(branch_pc)))
        .min_by_key(|l| l.blocks.len())
        .ok_or(TransformError::NonCanonicalLoop("branch not in a loop"))?;
    let loop_start = lp.blocks.iter().map(|&b| cfg.blocks[b].start).min().expect("non-empty loop");
    let loop_end = lp.blocks.iter().map(|&b| cfg.blocks[b].end).max().expect("non-empty loop");
    let back_pc = loop_end - 1;
    let Some(Instr::Branch { cond: BranchCond::Lt, rs1: ind, rs2: bound, target: back_target }) =
        program.fetch(back_pc)
    else {
        return Err(TransformError::NonCanonicalLoop("latch must end in `blt i, n, top`"));
    };
    if back_target != loop_start {
        return Err(TransformError::NonCanonicalLoop("latch must branch to the loop start"));
    }
    if !(loop_start..loop_end).contains(&skip_target) || skip_target <= branch_pc {
        return Err(TransformError::NonCanonicalLoop("skip label must be inside the loop, after the branch"));
    }
    // All three regions must be straight-line (no other control flow).
    for pc in loop_start..loop_end {
        if pc != branch_pc && pc != back_pc {
            let i = program.fetch(pc).expect("in range");
            if i.is_control() || matches!(i, Instr::Halt) {
                return Err(TransformError::NonCanonicalLoop("loop contains extra control flow"));
            }
        }
    }

    let slice: Vec<Instr> = (loop_start..branch_pc).map(|pc| program.fetch(pc).expect("in range")).collect();
    let latch: Vec<Instr> = (skip_target..back_pc).map(|pc| program.fetch(pc).expect("in range")).collect();
    // The latch is re-emitted in *both* decoupled loops, and only the
    // induction register is saved/restored around the second loop. Any
    // other latch effect (another register, a store) would therefore apply
    // twice per original iteration.
    for i in &latch {
        if i.dest() != Some(ind) || i.is_mem() {
            return Err(TransformError::NonCanonicalLoop(
                "latch may only update the induction register (it runs in both loops)",
            ));
        }
    }
    let pred = match branch {
        Instr::Branch { rs1, .. } => rs1,
        _ => unreachable!(),
    };

    // Partial separability: locate the slice-CD overlap (the feedback) and
    // validate it can be if-converted into the first loop.
    let overlap_pcs: std::collections::BTreeSet<u32> = if partial {
        let lp_slice = crate::slice::backward_slice(program, &cfg, lp, branch_pc);
        lp_slice.pcs.iter().copied().filter(|pc| (branch_pc + 1..skip_target).contains(pc)).collect()
    } else {
        Default::default()
    };
    let overlap: Vec<Instr> = overlap_pcs.iter().map(|&pc| program.fetch(pc).expect("in range")).collect();
    if partial {
        if scratch.len() < 6 {
            return Err(TransformError::NeedScratchRegisters);
        }
        // The conditional-move mask is synthesized as `-p`, which is
        // all-ones only when the predicate is exactly 0 or 1: the final
        // definition of `pred` in the slice must be a set-style compare.
        let pred_is_boolean = slice.iter().rev().find_map(|i| match *i {
            Instr::Alu { op, rd, .. } if rd == pred => {
                Some(matches!(op, AluOp::Slt | AluOp::Sltu | AluOp::Seq | AluOp::Sne | AluOp::Sge))
            }
            Instr::Li { rd, imm } if rd == pred => Some(imm == 0 || imm == 1),
            _ if i.dest() == Some(pred) => Some(false),
            _ => None,
        });
        if pred_is_boolean != Some(true) {
            return Err(TransformError::NonCanonicalLoop(
                "if-converted feedback needs a 0/1 predicate (set-op as the final def)",
            ));
        }
        let overlap_defs: std::collections::BTreeSet<Reg> = overlap.iter().filter_map(|i| i.dest()).collect();
        for (pc, i) in overlap_pcs.iter().zip(overlap.iter()) {
            // Only plain ALU feedback can be predicated with selects.
            if !matches!(i, Instr::Alu { .. }) {
                return Err(TransformError::NonCanonicalLoop("feedback must be ALU-only for if-conversion"));
            }
            // Sources must come from the slice, the feedback itself, or
            // from outside the CD region.
            let (a1, a2) = i.sources();
            for r in [a1, a2].into_iter().flatten() {
                let defined_in_cd_outside_overlap = (branch_pc + 1..*pc)
                    .any(|q| !overlap_pcs.contains(&q) && program.fetch(q).and_then(|x| x.dest()) == Some(r));
                if defined_in_cd_outside_overlap {
                    return Err(TransformError::NonCanonicalLoop(
                        "feedback reads non-feedback CD results; cannot hoist",
                    ));
                }
            }
        }
        // No non-feedback CD instruction may read a feedback destination
        // (it would observe the hoisted, already-final value).
        for pc in branch_pc + 1..skip_target {
            if overlap_pcs.contains(&pc) {
                continue;
            }
            let i = program.fetch(pc).expect("in range");
            let (a1, a2) = i.sources();
            for r in [a1, a2].into_iter().flatten() {
                if overlap_defs.contains(&r) {
                    return Err(TransformError::NonCanonicalLoop("CD region reads feedback values; cannot hoist"));
                }
            }
        }
    }
    // The second loop's CD region excludes the hoisted feedback.
    let cd: Vec<Instr> = (branch_pc + 1..skip_target)
        .filter(|pc| !overlap_pcs.contains(pc))
        .map(|pc| program.fetch(pc).expect("in range"))
        .collect();

    // Values computed by the slice and read by the CD region must flow from
    // the first loop to the second. This is the paper's CFD+ optimization:
    // communicate them through the Value Queue instead of recomputing
    // (§IV-B, Fig. 11). Latch-defined registers (induction variables) are
    // recomputed by the second loop and excluded.
    let slice_defs: std::collections::BTreeSet<Reg> = slice.iter().filter_map(|i| i.dest()).collect();
    let latch_defs: std::collections::BTreeSet<Reg> = latch.iter().filter_map(|i| i.dest()).collect();
    let mut shared: Vec<Reg> = Vec::new();
    for i in &cd {
        let (a, b) = i.sources();
        for r in [a, b].into_iter().flatten() {
            if slice_defs.contains(&r) && !latch_defs.contains(&r) && !shared.contains(&r) {
                shared.push(r);
            }
        }
    }
    // The VQ holds `shared.len()` values per iteration; shrink the strip
    // chunk so a chunk's pushes fit (the VQ is architected at BQ size).
    let chunk = if shared.is_empty() { bq_size } else { (bq_size / shared.len()).max(1) };

    // Rebuild: prefix, decoupled loops, suffix. Original targets become
    // "L{pc}" labels; the loop start maps to the transform's entry.
    let mut a = Assembler::new();
    let n_instrs = program.len() as u32;
    let mut is_target = vec![false; n_instrs as usize + 1];
    for instr in program.instrs() {
        if let Some(t) = instr.direct_target() {
            is_target[t as usize] = true;
        }
    }
    let emit_translated = |a: &mut Assembler, instr: Instr| {
        // Re-emit with PC targets renamed to labels.
        match instr {
            Instr::Branch { cond, rs1, rs2, target } => {
                a.branch(cond, rs1, rs2, &label_for(target, loop_start, loop_end));
            }
            Instr::Jump { target } => {
                a.j(&label_for(target, loop_start, loop_end));
            }
            Instr::Jal { rd, target } => {
                a.jal(rd, &label_for(target, loop_start, loop_end));
            }
            other => {
                a.raw(other);
            }
        }
    };

    for pc in 0..loop_start {
        if is_target[pc as usize] {
            a.label(&format!("L{pc}"));
        }
        emit_translated(&mut a, program.fetch(pc).expect("in range"));
    }

    // --- decoupled region ---
    a.label("cfd_entry");
    // Zero-trip guard: the original loop is bottom-tested; preserve that
    // do-while behaviour (it always runs at least one chunk).
    a.mv(s_n, bound);
    a.label("cfd_chunk");
    a.mv(s_save, ind); // chunk start
    a.addi(s_lim, ind, chunk as i64);
    a.min(s_lim, s_lim, s_n);
    // Loop 1: slice + pushes.
    a.label("cfd_loop1");
    for i in &slice {
        a.raw(*i);
    }
    a.push_bq(pred);
    for &r in &shared {
        a.push_vq(r);
    }
    if partial {
        // Hoisted, if-converted feedback: for each feedback instruction
        // `rd = op(..)`, compute into a scratch register and select
        // `rd = p ? t : rd` with mask arithmetic (conditional-move
        // synthesis, as the paper prescribes for partially separable
        // branches).
        let (t_val, t_mask) = (scratch[4], scratch[5]);
        for i in &overlap {
            let Instr::Alu { op, rd, rs1, src2 } = *i else { unreachable!("validated ALU-only") };
            a.alu(op, t_val, rs1, src2);
            a.sub(t_mask, Reg::ZERO, pred);
            a.and(t_val, t_val, t_mask);
            a.xor(t_mask, t_mask, -1i64);
            a.and(rd, rd, t_mask);
            a.or(rd, rd, t_val);
        }
    }
    for i in &latch {
        a.raw(*i);
    }
    a.branch(BranchCond::Lt, ind, s_lim, "cfd_loop1");
    a.mv(s_end, ind); // actual chunk end
    a.mv(ind, s_save);
    // Loop 2: pops + CD region. VQ pops run unconditionally to stay aligned
    // with their pushes (the push/pop ordering rules of §III-A).
    a.label("cfd_loop2");
    for &r in &shared {
        a.pop_vq(r);
    }
    a.branch_on_bq("cfd_skip");
    for i in &cd {
        a.raw(*i);
    }
    a.label("cfd_skip");
    for i in &latch {
        a.raw(*i);
    }
    a.branch(BranchCond::Lt, ind, s_end, "cfd_loop2");
    a.branch(BranchCond::Lt, ind, s_n, "cfd_chunk");

    for pc in loop_end..n_instrs {
        if is_target[pc as usize] {
            a.label(&format!("L{pc}"));
        }
        emit_translated(&mut a, program.fetch(pc).expect("in range"));
    }
    let new_program = a.finish()?;
    let static_instrs = (program.len(), new_program.len());
    let lint = crate::lint_program(&new_program, &cfd_isa::QueueConfig { bq_size: chunk, ..Default::default() });
    Ok(TransformReport { program: new_program, chunk, static_instrs, lint })
}

/// Which rewrite [`apply_cfd_spec`] selected for a branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecDecision {
    /// Plain CFD: totally separable.
    Cfd,
    /// CFD with the if-converted feedback loop: partially separable.
    CfdPartial,
    /// Speculative CFD: proven-safe loads hoisted past loop stores.
    CfdSpec,
    /// CFD through the trip-count queue: separable loop-branch.
    CfdTq,
}

impl fmt::Display for SpecDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpecDecision::Cfd => "cfd",
            SpecDecision::CfdPartial => "cfd-partial",
            SpecDecision::CfdSpec => "cfd-spec",
            SpecDecision::CfdTq => "cfd-tq",
        })
    }
}

/// What [`apply_cfd_spec`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecTransformReport {
    /// The rewrite selected from the branch's classification.
    pub decision: SpecDecision,
    /// The underlying transform result; for [`SpecDecision::CfdSpec`] its
    /// lint additionally carries the speculation-contract diagnostics from
    /// [`crate::lint_speculation`].
    pub report: TransformReport,
    /// Loads the leading loop executes ahead of the trailing loop's
    /// stores (each proven safe for `CfdSpec`).
    pub hoisted_loads: usize,
    /// (load pc, store pc) disjointness proofs on the *original* program
    /// backing a `CfdSpec` decision; empty for the other decisions.
    pub claims: Vec<(u32, u32)>,
}

/// Selects and applies the CFD rewrite matching the classification of the
/// branch at `branch_pc`: plain CFD for (totally/partially) separable
/// branches, CFD(TQ) for separable loop-branches, and speculative CFD for
/// [`BranchClass::SpeculativelySeparable`] upgrades. Speculative outputs
/// are re-validated by [`crate::lint_speculation`]: any hoisted store or
/// unproven load shows up as an error in the returned report's lint.
///
/// # Errors
///
/// [`TransformError::NotTotallySeparable`] when the class admits no CFD
/// rewrite (hammock, inseparable, not analyzed); otherwise whatever the
/// underlying transform reports.
pub fn apply_cfd_spec(
    program: &Program,
    branch_pc: u32,
    bq_size: usize,
    tq_size: usize,
    scratch: &[Reg],
) -> Result<SpecTransformReport, TransformError> {
    let class_report = classify_program(program)
        .into_iter()
        .find(|r| r.pc == branch_pc)
        .ok_or(TransformError::NotABranch(branch_pc))?;
    match class_report.class {
        BranchClass::SeparableTotal | BranchClass::SeparablePartial => {
            let report = apply_cfd_gated(program, branch_pc, bq_size, scratch, false)?;
            let decision = if class_report.class == BranchClass::SeparableTotal {
                SpecDecision::Cfd
            } else {
                SpecDecision::CfdPartial
            };
            Ok(SpecTransformReport { decision, report, hoisted_loads: class_report.slice_loads, claims: Vec::new() })
        }
        BranchClass::SeparableLoopBranch => {
            let report = crate::apply_cfd_tq(program, branch_pc, tq_size, scratch)?;
            Ok(SpecTransformReport { decision: SpecDecision::CfdTq, report, hoisted_loads: 0, claims: Vec::new() })
        }
        BranchClass::SpeculativelySeparable => {
            let mut report = apply_cfd_gated(program, branch_pc, bq_size, scratch, true)?;
            report.lint.diagnostics.extend(crate::lint_speculation(program, &report.program, branch_pc));
            Ok(SpecTransformReport {
                decision: SpecDecision::CfdSpec,
                report,
                hoisted_loads: class_report.proven_safe_loads,
                claims: class_report.disjoint_claims.clone(),
            })
        }
        other => Err(TransformError::NotTotallySeparable(other)),
    }
}

fn label_for(target: u32, loop_start: u32, loop_end: u32) -> String {
    if target == loop_start {
        "cfd_entry".to_string()
    } else if (loop_start..loop_end).contains(&target) {
        // Canonicality checks reject other in-loop targets from outside.
        format!("L{target}")
    } else {
        format!("L{target}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_isa::{Machine, MemImage};

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    /// The soplex-like kernel of Fig. 8, in canonical shape.
    fn kernel(n: i64) -> (Program, u32, MemImage) {
        let (i, nn, base, x, eps, p, tmp, cnt, sum) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));
        let mut a = Assembler::new();
        a.li(nn, n);
        a.li(base, 0x1000);
        a.li(eps, 500);
        a.label("top");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(x, 0, tmp);
        a.slt(p, x, eps);
        let bpc = a.here();
        a.beqz(p, "skip");
        // CD region: 6 instructions, disjoint from the slice.
        a.add(sum, sum, x);
        a.addi(cnt, cnt, 1);
        a.xor(r(10), sum, cnt);
        a.add(r(11), r(11), r(10));
        a.sub(r(12), r(11), sum);
        a.add(r(12), r(12), 7i64);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, nn, "top");
        a.halt();
        let program = a.finish().unwrap();
        let mut mem = MemImage::new();
        let mut x = 88172645463325252u64;
        for k in 0..n as u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            mem.write_u64(0x1000 + 8 * k, x % 1000);
        }
        (program, bpc, mem)
    }

    pub(crate) fn run_regs(program: &Program, outs: &[Reg]) -> Vec<i64> {
        let mut m = Machine::new(program.clone(), MemImage::new());
        m.run_to_halt().unwrap();
        outs.iter().map(|&x| m.regs.read(x)).collect()
    }

    fn outputs(program: Program, mem: MemImage) -> Vec<i64> {
        let mut m = Machine::new(program, mem);
        m.run_to_halt().unwrap();
        [8, 9, 10, 11, 12].iter().map(|&i| m.regs.read(r(i))).collect()
    }

    #[test]
    fn transformed_program_is_equivalent() {
        let (program, bpc, mem) = kernel(1000);
        let rep = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();
        assert_eq!(outputs(program, mem.clone()), outputs(rep.program, mem));
    }

    #[test]
    fn transformed_program_passes_translation_validation() {
        let (program, bpc, _) = kernel(1000);
        let rep = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();
        assert!(rep.lint.clean(), "{}", rep.lint.table());
        assert_eq!(rep.lint.bounds.bq, Some(128));
    }

    #[test]
    fn equivalence_with_tiny_bq_chunks() {
        let (program, bpc, mem) = kernel(100);
        let rep = apply_cfd(&program, bpc, 8, &[r(20), r(21), r(22), r(23)]).unwrap();
        assert_eq!(outputs(program, mem.clone()), outputs(rep.program, mem));
        assert!(rep.lint.clean(), "{}", rep.lint.table());
        assert_eq!(rep.lint.bounds.bq, Some(8));
    }

    #[test]
    fn transformed_program_contains_cfd_instructions() {
        let (program, bpc, _) = kernel(100);
        let rep = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();
        let instrs = rep.program.instrs();
        assert!(instrs.iter().any(|i| matches!(i, Instr::PushBq { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::BranchOnBq { .. })));
        assert!(rep.static_instrs.1 > rep.static_instrs.0);
    }

    #[test]
    fn bq_never_overflows_during_execution() {
        let (program, bpc, mem) = kernel(5000);
        let rep = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();
        // Run on a machine whose BQ is exactly the chunk size: strip mining
        // must keep occupancy within bounds, or the run errors.
        let mut m = Machine::with_queues(rep.program, mem, cfd_isa::QueueConfig { bq_size: 128, ..Default::default() });
        m.run_to_halt().unwrap();
        assert!(m.bq.is_empty(), "all predicates popped");
    }

    #[test]
    fn rejects_hammock() {
        let (i, nn, p) = (r(1), r(2), r(3));
        let mut a = Assembler::new();
        a.li(nn, 10);
        a.label("top");
        a.xor(p, i, 1i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        a.addi(r(4), r(4), 1); // tiny CD region -> hammock
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, nn, "top");
        a.halt();
        let err = apply_cfd(&a.finish().unwrap(), bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap_err();
        assert_eq!(err, TransformError::NotTotallySeparable(BranchClass::Hammock));
    }

    /// Builds a partially separable loop: the predicate reads `acc`, which
    /// the CD region increments (short loop-carried feedback).
    fn partial_kernel() -> (Program, u32) {
        let (i, nn, p, acc) = (r(1), r(2), r(3), r(4));
        let mut a = Assembler::new();
        a.li(nn, 2000);
        a.label("top");
        a.and(p, i, 3i64);
        a.add(p, p, acc);
        a.slt(p, p, 800i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        a.addi(acc, acc, 1); // the feedback
        a.addi(r(5), r(5), 1);
        a.xor(r(6), r(6), r(5));
        a.add(r(7), r(7), r(6));
        a.sub(r(8), r(7), r(5));
        a.add(r(8), r(8), 3i64);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, nn, "top");
        a.halt();
        (a.finish().unwrap(), bpc)
    }

    #[test]
    fn partially_separable_transforms_with_ifconverted_feedback() {
        let (program, bpc) = partial_kernel();
        let t = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23), r(24), r(25)]).unwrap();
        let outs = [r(4), r(5), r(6), r(7), r(8)];
        assert_eq!(
            crate::transform::tests::run_regs(&program, &outs),
            crate::transform::tests::run_regs(&t.program, &outs)
        );
    }

    #[test]
    fn partial_needs_six_scratch_registers() {
        let (program, bpc) = partial_kernel();
        let err = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap_err();
        assert_eq!(err, TransformError::NeedScratchRegisters);
    }

    #[test]
    fn rejects_cd_reading_feedback_values() {
        // A non-feedback CD instruction reads the feedback register: the
        // hoisted (final) value would be observed too early. Must bail.
        let (i, nn, p, acc) = (r(1), r(2), r(3), r(4));
        let mut a = Assembler::new();
        a.li(nn, 100);
        a.label("top");
        a.add(p, i, acc);
        a.slt(p, p, 60i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        a.addi(acc, acc, 1);
        a.add(r(5), r(5), acc); // reads the feedback value per iteration
        a.xor(r(6), r(6), r(5));
        a.add(r(7), r(7), r(6));
        a.sub(r(8), r(7), r(5));
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, nn, "top");
        a.halt();
        let err = apply_cfd(&a.finish().unwrap(), bpc, 128, &[r(20), r(21), r(22), r(23), r(24), r(25)]).unwrap_err();
        assert!(matches!(err, TransformError::NonCanonicalLoop(_)), "got {err:?}");
    }

    #[test]
    fn rejects_without_scratch() {
        let (program, bpc, _) = kernel(10);
        assert_eq!(apply_cfd(&program, bpc, 128, &[r(20)]).unwrap_err(), TransformError::NeedScratchRegisters);
    }

    #[test]
    fn rejects_latch_with_non_induction_update() {
        // The latch also advances a pointer: emitted in both loops it would
        // advance twice per iteration, so the transform must bail.
        let (i, nn, p, ptr) = (r(1), r(2), r(3), r(9));
        let mut a = Assembler::new();
        a.li(nn, 100);
        a.label("top");
        a.and(p, i, 7i64);
        a.slt(p, p, 3i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        for k in 0..8 {
            a.addi(r(4 + k % 4), r(4 + k % 4), 1);
        }
        a.label("skip");
        a.addi(ptr, ptr, 8);
        a.addi(i, i, 1);
        a.blt(i, nn, "top");
        a.halt();
        let err = apply_cfd(&a.finish().unwrap(), bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap_err();
        assert_eq!(
            err,
            TransformError::NonCanonicalLoop("latch may only update the induction register (it runs in both loops)")
        );
    }

    #[test]
    fn rejects_partial_with_non_boolean_predicate() {
        // Predicate is `i & 3` (0..=3): `-p` is not a valid cmov mask, so the
        // if-conversion must be refused.
        let (i, nn, p, acc) = (r(1), r(2), r(3), r(4));
        let mut a = Assembler::new();
        a.li(nn, 100);
        a.label("top");
        a.add(p, i, acc);
        a.and(p, p, 3i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        a.addi(acc, acc, 1); // feedback -> partially separable
        for k in 0..7 {
            a.addi(r(5 + k % 4), r(5 + k % 4), 1);
        }
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, nn, "top");
        a.halt();
        let err = apply_cfd(&a.finish().unwrap(), bpc, 128, &[r(20), r(21), r(22), r(23), r(24), r(25)]).unwrap_err();
        assert_eq!(
            err,
            TransformError::NonCanonicalLoop("if-converted feedback needs a 0/1 predicate (set-op as the final def)")
        );
    }

    #[test]
    fn rejects_non_branch_pc() {
        let (program, _, _) = kernel(10);
        let err = apply_cfd(&program, 0, 128, &[r(20), r(21), r(22), r(23)]).unwrap_err();
        assert!(matches!(err, TransformError::NonCanonicalLoop(_) | TransformError::NotABranch(_)));
    }

    /// A guarded scatter whose CD region stores through the *same* base
    /// register the predicate load reads: the name heuristic entangles the
    /// stores into the slice (inseparable), while the precise tier proves
    /// every store disjoint from the load's whole-loop interval.
    fn spec_kernel(n: i64) -> (Program, u32, MemImage) {
        let (i, nn, base, x, eps, p, tmp, sum, acc) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));
        let mut a = Assembler::new();
        a.li(nn, n);
        a.li(base, 0x1000);
        a.li(eps, 450);
        a.li(i, 0);
        a.label("top");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(x, 0, tmp);
        a.slt(p, x, eps);
        let bpc = a.here();
        a.beqz(p, "skip");
        a.add(sum, sum, x);
        a.xor(acc, acc, x);
        a.sd(x, 8 * n, tmp);
        a.sd(sum, 16 * n, tmp);
        a.sd(acc, 24 * n, tmp);
        a.sd(x, 32 * n, tmp);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, nn, "top");
        a.halt();
        let program = a.finish().unwrap();
        let mut mem = MemImage::new();
        let mut v = 6364136223846793005u64;
        for k in 0..n as u64 {
            v = v.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            mem.write_u64(0x1000 + 8 * k, v % 1000);
        }
        (program, bpc, mem)
    }

    fn spec_outputs(program: Program, mem: MemImage, n: i64) -> (Vec<i64>, Vec<u64>) {
        let mut m = Machine::new(program, mem);
        m.run_to_halt().unwrap();
        let regs = [8, 9].iter().map(|&i| m.regs.read(r(i))).collect();
        let words = (0..4 * n as u64).map(|k| m.mem.read_u64(0x1000u64 + 8 * n as u64 + 8 * k)).collect();
        (regs, words)
    }

    #[test]
    fn spec_kernel_upgrades_and_transforms_cleanly() {
        let (program, bpc, mem) = spec_kernel(100);
        let class = classify_program(&program).into_iter().find(|c| c.pc == bpc).unwrap();
        assert_eq!(class.class, BranchClass::SpeculativelySeparable);
        assert_eq!(class.heuristic_class, BranchClass::Inseparable);
        let t = apply_cfd_spec(&program, bpc, 64, 64, &[r(20), r(21), r(22), r(23)]).unwrap();
        assert_eq!(t.decision, SpecDecision::CfdSpec);
        assert_eq!(t.hoisted_loads, 1);
        assert_eq!(t.claims.len(), 4, "one disjointness proof per store");
        assert!(t.report.lint.clean(), "{}", t.report.lint.table());
        assert_eq!(spec_outputs(program, mem.clone(), 100), spec_outputs(t.report.program, mem, 100));
    }

    #[test]
    fn apply_cfd_spec_dispatches_plain_cfd() {
        let (program, bpc, mem) = kernel(500);
        let t = apply_cfd_spec(&program, bpc, 128, 64, &[r(20), r(21), r(22), r(23)]).unwrap();
        assert_eq!(t.decision, SpecDecision::Cfd);
        assert!(t.claims.is_empty());
        assert_eq!(outputs(program, mem.clone()), outputs(t.report.program, mem));
    }

    #[test]
    fn apply_cfd_spec_refuses_unprovable_store() {
        // One store goes through a conditionally-updated counter: no
        // disjointness proof, no upgrade, no speculative transform.
        let (i, nn, base, x, eps, p, tmp, cnt, t0) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));
        let mut a = Assembler::new();
        a.li(nn, 100);
        a.li(base, 0x1000);
        a.li(eps, 450);
        a.li(i, 0);
        a.label("top");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(x, 0, tmp);
        a.slt(p, x, eps);
        let bpc = a.here();
        a.beqz(p, "skip");
        a.sll(t0, cnt, 3i64);
        a.sd(x, 0x4000, t0);
        a.sd(x, 800, tmp);
        a.sd(x, 1600, tmp);
        a.sd(x, 2400, tmp);
        a.sd(x, 3200, tmp);
        a.addi(cnt, cnt, 1);
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, nn, "top");
        a.halt();
        let program = a.finish().unwrap();
        let err = apply_cfd_spec(&program, bpc, 64, 64, &[r(20), r(21), r(22), r(23)]).unwrap_err();
        assert_eq!(err, TransformError::NotTotallySeparable(BranchClass::Inseparable));
    }

    #[test]
    fn lint_speculation_flags_hoisted_store_and_unproven_load() {
        let (program, bpc, _) = spec_kernel(100);
        let (i, base, x, tmp, y) = (r(1), r(3), r(4), r(7), r(10));
        // A hand-built "transform output" that violates the contract: the
        // leading loop contains a store and a load with no safety proof.
        let mut b = Assembler::new();
        b.label("cfd_loop1");
        b.sll(tmp, i, 3i64);
        b.add(tmp, tmp, base);
        b.ld(x, 0, tmp); // identical to the proven-safe original load: ok
        b.sd(x, 800, tmp); // hoisted store
        b.ld(y, 0, x); // unproven load
        b.label("cfd_loop2");
        b.halt();
        let bad = b.finish().unwrap();
        let diags = crate::lint_speculation(&program, &bad, bpc);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![crate::Rule::HoistedStore, crate::Rule::HoistedUnsafeLoad]);
        assert!(diags.iter().all(|d| d.severity == crate::Severity::Error));
    }

    #[test]
    fn lint_speculation_accepts_the_real_transform() {
        let (program, bpc, _) = spec_kernel(100);
        let t = apply_cfd_spec(&program, bpc, 64, 64, &[r(20), r(21), r(22), r(23)]).unwrap();
        assert!(crate::lint_speculation(&program, &t.report.program, bpc).is_empty());
    }
}
