//! Automatic CFD(TQ) transformation for separable loop-branches (§IV-C).
//!
//! Recognizes the canonical nested-loop shape of paper Fig. 13b/14 —
//!
//! ```text
//! outer:  <trip slice>          ; computes m = trip count
//!         li j, 0
//!         j inner_test
//! body:   <inner body>          ; straight-line
//!         addi j, j, 1
//! inner_test:
//!         blt j, m, body        ; the separable loop-branch
//!         <outer latch>
//!         blt i, n, outer
//! ```
//!
//! — and rewrites it into two outer loops: the first computes trip counts
//! and pushes them onto the TQ; the second pops them and drives the inner
//! loop with `Branch_on_TCR`, strip-mined to the TQ size.

use crate::cfg::Cfg;
use crate::classify::{classify_program, BranchClass};
use crate::dom::DomTree;
use crate::loops::{find_loops, is_nested};
use crate::transform::{TransformError, TransformReport};
use cfd_isa::{Assembler, BranchCond, Instr, Program, Reg};

/// Applies the CFD(TQ) transform to the separable loop-branch at
/// `branch_pc`, strip-mining outer iterations in chunks of `tq_size`.
///
/// `scratch` must name at least 4 registers dead across the outer loop.
///
/// # Errors
///
/// Returns a [`TransformError`] when the branch is not a separable
/// loop-branch or the nest does not match the canonical shape.
pub fn apply_cfd_tq(
    program: &Program,
    branch_pc: u32,
    tq_size: usize,
    scratch: &[Reg],
) -> Result<TransformReport, TransformError> {
    if scratch.len() < 4 {
        return Err(TransformError::NeedScratchRegisters);
    }
    let (s_end, s_save, s_lim, s_n) = (scratch[0], scratch[1], scratch[2], scratch[3]);

    // Classification gate.
    let report = classify_program(program)
        .into_iter()
        .find(|r| r.pc == branch_pc)
        .ok_or(TransformError::NotABranch(branch_pc))?;
    if report.class != BranchClass::SeparableLoopBranch {
        return Err(TransformError::NotTotallySeparable(report.class));
    }

    // The inner loop-branch: `blt j, m, body`.
    let Some(Instr::Branch { cond: BranchCond::Lt, rs1: j_reg, rs2: m_reg, target: body_target }) =
        program.fetch(branch_pc)
    else {
        return Err(TransformError::NonCanonicalLoop("loop-branch must be `blt j, m, body`"));
    };

    let cfg = Cfg::build(program);
    let dom = DomTree::dominators(&cfg);
    let loops = find_loops(&cfg, &dom);
    let inner = loops
        .iter()
        .filter(|l| l.contains(cfg.block_of(branch_pc)))
        .min_by_key(|l| l.blocks.len())
        .ok_or(TransformError::NonCanonicalLoop("branch not in a loop"))?;
    let outer = loops
        .iter()
        .find(|o| is_nested(inner, o))
        .ok_or(TransformError::NonCanonicalLoop("loop-branch needs an enclosing outer loop"))?;

    let outer_start = outer.blocks.iter().map(|&b| cfg.blocks[b].start).min().expect("non-empty");
    let outer_end = outer.blocks.iter().map(|&b| cfg.blocks[b].end).max().expect("non-empty");
    let inner_start = inner.blocks.iter().map(|&b| cfg.blocks[b].start).min().expect("non-empty");
    let inner_end = inner.blocks.iter().map(|&b| cfg.blocks[b].end).max().expect("non-empty");

    // Outer latch: `blt i, n, outer_start` at the end of the outer loop.
    let outer_back_pc = outer_end - 1;
    let Some(Instr::Branch { cond: BranchCond::Lt, rs1: ind, rs2: bound, target: outer_target }) =
        program.fetch(outer_back_pc)
    else {
        return Err(TransformError::NonCanonicalLoop("outer latch must end in `blt i, n, top`"));
    };
    if outer_target != outer_start {
        return Err(TransformError::NonCanonicalLoop("outer latch must branch to the outer start"));
    }
    // Canonical inner preheader: `li j, 0` then `j inner_test` just before
    // the inner loop's body.
    if body_target != inner_start {
        return Err(TransformError::NonCanonicalLoop("inner branch must target the inner start"));
    }
    // Regions: trip slice [outer_start .. preheader), preheader = the
    // `li j,0; j inner_test` pair, inner body [inner_start .. branch region),
    // outer latch (inner_end .. outer_back_pc).
    let preheader_start = inner_start
        .checked_sub(2)
        .filter(|&p| p >= outer_start)
        .ok_or(TransformError::NonCanonicalLoop("expected `li j, 0; j inner_test` before the inner body"))?;
    match (program.fetch(preheader_start), program.fetch(preheader_start + 1)) {
        (Some(Instr::Li { rd, imm: 0 }), Some(Instr::Jump { .. })) if rd == j_reg => {}
        _ => return Err(TransformError::NonCanonicalLoop("expected `li j, 0; j inner_test` before the inner body")),
    }
    // Straight-line checks.
    for pc in outer_start..preheader_start {
        let i = program.fetch(pc).expect("in range");
        if i.is_control() || matches!(i, Instr::Halt) {
            return Err(TransformError::NonCanonicalLoop("trip slice must be straight-line"));
        }
    }
    for pc in inner_start..branch_pc {
        let i = program.fetch(pc).expect("in range");
        if i.is_control() || matches!(i, Instr::Halt) {
            return Err(TransformError::NonCanonicalLoop("inner body must be straight-line"));
        }
    }
    for pc in branch_pc + 1..outer_back_pc {
        let i = program.fetch(pc).expect("in range");
        if i.is_control() || matches!(i, Instr::Halt) {
            return Err(TransformError::NonCanonicalLoop("outer latch must be straight-line"));
        }
    }

    let trip_slice: Vec<Instr> =
        (outer_start..preheader_start).map(|pc| program.fetch(pc).expect("in range")).collect();
    // The outer latch is re-emitted in both outer loops; only `ind` is
    // saved/restored around the second, so nothing else may change in it.
    for pc in inner_end..outer_back_pc {
        let i = program.fetch(pc).expect("in range");
        if i.dest() != Some(ind) || i.is_mem() {
            return Err(TransformError::NonCanonicalLoop(
                "outer latch may only update the induction register (it runs in both loops)",
            ));
        }
    }
    // The second loop never re-runs the trip slice: the inner body must not
    // read a register the slice defines (the trip count itself flows through
    // the TCR). A body-local redefinition before the read is fine.
    {
        let mut live_slice_defs: std::collections::BTreeSet<Reg> = trip_slice.iter().filter_map(|i| i.dest()).collect();
        live_slice_defs.insert(m_reg);
        live_slice_defs.remove(&j_reg); // reset by the re-emitted `li j, 0`
        for pc in inner_start..branch_pc {
            let i = program.fetch(pc).expect("in range");
            let (a1, a2) = i.sources();
            if [a1, a2].into_iter().flatten().any(|r| live_slice_defs.contains(&r)) {
                return Err(TransformError::NonCanonicalLoop(
                    "inner body reads trip-slice results; they are not recomputed in the pop loop",
                ));
            }
            if let Some(d) = i.dest() {
                live_slice_defs.remove(&d);
            }
        }
    }
    // The inner body, including its trailing `j` induction update: the TCR
    // drives the loop-branch, but `j` may still feed addressing inside the
    // body, so its update is preserved.
    let inner_body: Vec<Instr> = (inner_start..branch_pc).map(|pc| program.fetch(pc).expect("in range")).collect();
    let outer_latch: Vec<Instr> = (inner_end..outer_back_pc).map(|pc| program.fetch(pc).expect("in range")).collect();
    let _ = inner_end;

    // Rebuild.
    let mut a = Assembler::new();
    let n_instrs = program.len() as u32;
    let mut is_target = vec![false; n_instrs as usize + 1];
    for instr in program.instrs() {
        if let Some(t) = instr.direct_target() {
            is_target[t as usize] = true;
        }
    }
    let emit_translated = |a: &mut Assembler, instr: Instr| match instr {
        Instr::Branch { cond, rs1, rs2, target } => {
            a.branch(cond, rs1, rs2, &label_for(target, outer_start));
        }
        Instr::Jump { target } => {
            a.j(&label_for(target, outer_start));
        }
        Instr::Jal { rd, target } => {
            a.jal(rd, &label_for(target, outer_start));
        }
        other => {
            a.raw(other);
        }
    };
    for pc in 0..outer_start {
        if is_target[pc as usize] {
            a.label(&format!("L{pc}"));
        }
        emit_translated(&mut a, program.fetch(pc).expect("in range"));
    }

    a.label("tq_entry");
    a.mv(s_n, bound);
    a.label("tq_chunk");
    a.mv(s_save, ind);
    a.addi(s_lim, ind, tq_size as i64);
    a.min(s_lim, s_lim, s_n);
    // Loop 1: trip counts onto the TQ.
    a.label("tq_gen");
    for i in &trip_slice {
        a.raw(*i);
    }
    a.push_tq(m_reg);
    for i in &outer_latch {
        a.raw(*i);
    }
    a.branch(BranchCond::Lt, ind, s_lim, "tq_gen");
    a.mv(s_end, ind);
    a.mv(ind, s_save);
    // Loop 2: pop trip counts; the TCR drives the inner loop.
    a.label("tq_use");
    a.pop_tq();
    a.li(j_reg, 0);
    a.j("tq_inner_test");
    a.label("tq_inner_body");
    // The captured body already ends with the `j` induction update.
    for i in &inner_body {
        a.raw(*i);
    }
    a.label("tq_inner_test");
    a.branch_on_tcr("tq_inner_body");
    for i in &outer_latch {
        a.raw(*i);
    }
    a.branch(BranchCond::Lt, ind, s_end, "tq_use");
    a.branch(BranchCond::Lt, ind, s_n, "tq_chunk");

    for pc in outer_end..n_instrs {
        if is_target[pc as usize] {
            a.label(&format!("L{pc}"));
        }
        emit_translated(&mut a, program.fetch(pc).expect("in range"));
    }
    let new_program = a.finish()?;
    let static_instrs = (program.len(), new_program.len());
    let lint = crate::lint_program(&new_program, &cfd_isa::QueueConfig { tq_size, ..Default::default() });
    Ok(TransformReport { program: new_program, chunk: tq_size, static_instrs, lint })
}

fn label_for(target: u32, outer_start: u32) -> String {
    if target == outer_start {
        "tq_entry".to_string()
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

    /// The astar Fig. 14 shape: `for i { m = a[i]; for j in 0..m { acc += f(i,j) } }`.
    fn kernel(n: i64) -> (Program, u32, MemImage) {
        let (i, nn, j, m, base, tmp, acc) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
        let mut a = Assembler::new();
        a.li(nn, n);
        a.li(base, 0x30000);
        a.label("outer");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(m, 0, tmp);
        a.li(j, 0);
        a.j("inner_test");
        a.label("inner_body");
        a.add(acc, acc, j);
        a.xor(acc, acc, i);
        a.addi(j, j, 1);
        a.label("inner_test");
        let bpc = a.here();
        a.blt(j, m, "inner_body");
        a.addi(i, i, 1);
        a.blt(i, nn, "outer");
        a.halt();
        let program = a.finish().unwrap();
        let mut mem = MemImage::new();
        let mut s = 0x2545f4914f6cdd1du64;
        for k in 0..n as u64 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            mem.write_u64(0x30000 + 8 * k, s % 10);
        }
        (program, bpc, mem)
    }

    fn observe(program: Program, mem: MemImage) -> i64 {
        let mut m = Machine::new(program, mem);
        m.run_to_halt().unwrap();
        m.regs.read(r(7))
    }

    #[test]
    fn transformed_program_is_equivalent() {
        let (program, bpc, mem) = kernel(800);
        let t = apply_cfd_tq(&program, bpc, 256, &[r(20), r(21), r(22), r(23)]).unwrap();
        assert_eq!(observe(t.program, mem.clone()), observe(program, mem));
    }

    #[test]
    fn transformed_program_passes_translation_validation() {
        let (program, bpc, _) = kernel(800);
        let t = apply_cfd_tq(&program, bpc, 256, &[r(20), r(21), r(22), r(23)]).unwrap();
        assert!(t.lint.clean(), "{}", t.lint.table());
        assert_eq!(t.lint.bounds.tq, Some(256));
    }

    #[test]
    fn equivalence_with_tiny_tq() {
        let (program, bpc, mem) = kernel(300);
        let t = apply_cfd_tq(&program, bpc, 8, &[r(20), r(21), r(22), r(23)]).unwrap();
        assert!(t.lint.clean(), "{}", t.lint.table());
        assert_eq!(t.lint.bounds.tq, Some(8));
        // Run on a machine with a matching TQ size: strip mining must fit.
        let mut m =
            Machine::with_queues(t.program, mem.clone(), cfd_isa::QueueConfig { tq_size: 8, ..Default::default() });
        m.run_to_halt().unwrap();
        assert_eq!(m.regs.read(r(7)), observe(program, mem));
    }

    #[test]
    fn emits_tq_instructions() {
        let (program, bpc, _) = kernel(100);
        let t = apply_cfd_tq(&program, bpc, 256, &[r(20), r(21), r(22), r(23)]).unwrap();
        let instrs = t.program.instrs();
        assert!(instrs.iter().any(|i| matches!(i, Instr::PushTq { .. })));
        assert!(instrs.iter().any(|i| matches!(i, Instr::PopTq)));
        assert!(instrs.iter().any(|i| matches!(i, Instr::BranchOnTcr { .. })));
    }

    #[test]
    fn rejects_plain_separable_branch() {
        // A regular guarded loop is not a loop-branch.
        let (i, nn, p) = (r(1), r(2), r(3));
        let mut a = Assembler::new();
        a.li(nn, 10);
        a.label("top");
        a.xor(p, i, 1i64);
        a.and(p, p, 1i64);
        let bpc = a.here();
        a.beqz(p, "skip");
        for k in 0..8 {
            a.addi(r(4 + k), r(4 + k), 1);
        }
        a.label("skip");
        a.addi(i, i, 1);
        a.blt(i, nn, "top");
        a.halt();
        let err = apply_cfd_tq(&a.finish().unwrap(), bpc, 256, &[r(20), r(21), r(22), r(23)]).unwrap_err();
        assert!(matches!(err, TransformError::NotTotallySeparable(_)));
    }

    #[test]
    fn rejects_without_scratch() {
        let (program, bpc, _) = kernel(10);
        assert_eq!(apply_cfd_tq(&program, bpc, 256, &[r(20)]).unwrap_err(), TransformError::NeedScratchRegisters);
    }

    #[test]
    fn rejects_body_reading_trip_slice_results() {
        // The body reads `tmp` (the trip slice's address temp), which the
        // pop loop never recomputes: must bail.
        let (i, nn, j, m, base, tmp, acc) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
        let mut a = Assembler::new();
        a.li(nn, 50);
        a.li(base, 0x30000);
        a.label("outer");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(m, 0, tmp);
        a.li(j, 0);
        a.j("inner_test");
        a.label("inner_body");
        a.add(acc, acc, tmp); // reads a slice-defined register
        a.addi(j, j, 1);
        a.label("inner_test");
        let bpc = a.here();
        a.blt(j, m, "inner_body");
        a.addi(i, i, 1);
        a.blt(i, nn, "outer");
        a.halt();
        let mut mem = MemImage::new();
        for k in 0..50u64 {
            mem.write_u64(0x30000 + 8 * k, k % 5);
        }
        let err = apply_cfd_tq(&a.finish().unwrap(), bpc, 256, &[r(20), r(21), r(22), r(23)]).unwrap_err();
        assert_eq!(
            err,
            TransformError::NonCanonicalLoop(
                "inner body reads trip-slice results; they are not recomputed in the pop loop"
            )
        );
    }

    #[test]
    fn rejects_outer_latch_with_non_induction_update() {
        let (i, nn, j, m, base, tmp, acc, ptr) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(9));
        let mut a = Assembler::new();
        a.li(nn, 50);
        a.li(base, 0x30000);
        a.label("outer");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(m, 0, tmp);
        a.li(j, 0);
        a.j("inner_test");
        a.label("inner_body");
        a.add(acc, acc, j);
        a.addi(j, j, 1);
        a.label("inner_test");
        let bpc = a.here();
        a.blt(j, m, "inner_body");
        a.addi(ptr, ptr, 8); // non-induction latch update
        a.addi(i, i, 1);
        a.blt(i, nn, "outer");
        a.halt();
        let mut mem = MemImage::new();
        for k in 0..50u64 {
            mem.write_u64(0x30000 + 8 * k, k % 5);
        }
        let err = apply_cfd_tq(&a.finish().unwrap(), bpc, 256, &[r(20), r(21), r(22), r(23)]).unwrap_err();
        assert_eq!(
            err,
            TransformError::NonCanonicalLoop(
                "outer latch may only update the induction register (it runs in both loops)"
            )
        );
    }
}
