use super::*;
use cfd_isa::{Assembler, Reg};

fn r(i: usize) -> Reg {
    Reg::new(i)
}

fn lint(p: &Program) -> LintReport {
    lint_program(p, &QueueConfig::default())
}

fn has(rep: &LintReport, rule: Rule, pc: u32) -> bool {
    rep.diagnostics.iter().any(|d| d.rule == rule && d.pc == Some(pc))
}

#[test]
fn empty_program_is_clean() {
    let p = Assembler::new().finish().unwrap();
    let rep = lint(&p);
    assert!(rep.clean(), "{}", rep.table());
    assert_eq!(rep.bounds.bq, Some(0));
}

#[test]
fn balanced_gen_use_loops_are_clean_with_exact_bound() {
    let (i, n, p) = (r(1), r(2), r(3));
    let mut a = Assembler::new();
    a.li(n, 4);
    a.li(i, 0);
    a.label("gen");
    a.push_bq(p);
    a.addi(i, i, 1);
    a.blt(i, n, "gen");
    a.li(i, 0);
    a.label("use");
    a.branch_on_bq("skip");
    a.addi(r(4), r(4), 1);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, n, "use");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(rep.clean(), "{}", rep.table());
    assert_eq!(rep.bounds.bq, Some(4));
    assert_eq!(rep.bounds.vq, Some(0));
}

#[test]
fn hoisted_push_pop_in_one_loop_has_bound_one() {
    let (i, n, p) = (r(1), r(2), r(3));
    let mut a = Assembler::new();
    a.li(n, 100);
    a.li(i, 0);
    a.label("top");
    a.push_bq(p);
    a.branch_on_bq("skip");
    a.addi(r(4), r(4), 1);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, n, "top");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(rep.clean(), "{}", rep.table());
    assert_eq!(rep.bounds.bq, Some(1));
}

#[test]
fn strip_mined_chunk_loop_is_clean_with_chunk_bound() {
    let (i, n, p, lim, cs) = (r(1), r(2), r(3), r(5), r(6));
    let mut a = Assembler::new();
    a.li(n, 1000);
    a.li(i, 0);
    a.label("chunk");
    a.addi(lim, i, 8);
    a.min(lim, lim, n);
    a.mv(cs, i);
    a.label("gen");
    a.push_bq(p);
    a.addi(i, i, 1);
    a.blt(i, lim, "gen");
    a.mv(i, cs);
    a.label("use");
    a.branch_on_bq("skip");
    a.addi(r(4), r(4), 1);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, lim, "use");
    a.blt(i, n, "chunk");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(rep.clean(), "{}", rep.table());
    assert_eq!(rep.bounds.bq, Some(8));
}

#[test]
fn unbalanced_push_reports_at_exit() {
    let (i, n, p) = (r(1), r(2), r(3));
    let mut a = Assembler::new();
    a.li(n, 4);
    a.li(i, 0);
    a.label("gen");
    a.push_bq(p);
    a.addi(i, i, 1);
    a.blt(i, n, "gen");
    let halt_pc = a.here();
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(!rep.clean());
    assert!(has(&rep, Rule::UnbalancedAtExit, halt_pc), "{}", rep.table());
}

#[test]
fn unstripped_loop_with_loaded_bound_is_unbounded() {
    let (i, n, p, base) = (r(1), r(2), r(3), r(4));
    let mut a = Assembler::new();
    a.li(base, 0x1000);
    a.ld(n, 0, base);
    a.li(i, 0);
    a.label("gen");
    let push_pc = a.here();
    a.push_bq(p);
    a.addi(i, i, 1);
    a.blt(i, n, "gen");
    a.label("use");
    a.branch_on_bq("skip");
    a.label("skip");
    a.addi(n, n, -1);
    a.bnez(n, "use");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(!rep.clean());
    assert!(has(&rep, Rule::UnboundedOccupancy, push_pc), "{}", rep.table());
    assert_eq!(rep.bounds.bq, None);
}

#[test]
fn overflow_when_static_trip_exceeds_queue_size() {
    let (i, n, p) = (r(1), r(2), r(3));
    let mut a = Assembler::new();
    a.li(n, 200); // > default bq_size of 128
    a.li(i, 0);
    a.label("gen");
    let push_pc = a.here();
    a.push_bq(p);
    a.addi(i, i, 1);
    a.blt(i, n, "gen");
    a.li(i, 0);
    a.label("use");
    a.branch_on_bq("skip");
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, n, "use");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(!rep.clean());
    assert!(has(&rep, Rule::Overflow, push_pc), "{}", rep.table());
    assert_eq!(rep.bounds.bq, Some(200));
}

#[test]
fn orphan_forward_is_reported() {
    let mut a = Assembler::new();
    let fwd_pc = a.here();
    a.forward_bq();
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(has(&rep, Rule::ForwardWithoutMark, fwd_pc), "{}", rep.table());
}

#[test]
fn mark_then_forward_is_clean() {
    let p = r(3);
    let mut a = Assembler::new();
    a.push_bq(p);
    a.push_bq(p);
    a.mark_bq();
    a.forward_bq();
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(rep.clean(), "{}", rep.table());
    assert_eq!(rep.bounds.bq, Some(2));
}

#[test]
fn restore_without_save_is_reported() {
    let base = r(4);
    let mut a = Assembler::new();
    a.li(base, 0x2000);
    let rst_pc = a.here();
    a.restore_bq(0, base);
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(has(&rep, Rule::RestoreWithoutSave, rst_pc), "{}", rep.table());
}

#[test]
fn branch_on_tcr_without_pop_tq_is_reported() {
    let (i, n) = (r(1), r(2));
    let mut a = Assembler::new();
    a.li(n, 4);
    a.li(i, 0);
    a.j("test");
    a.label("body");
    a.addi(i, i, 1);
    a.label("test");
    let br_pc = a.here();
    a.branch_on_tcr("body");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(has(&rep, Rule::BranchTcrWithoutTrip, br_pc), "{}", rep.table());
}

#[test]
fn push_tq_inside_tcr_loop_is_reported() {
    let (n, acc) = (r(2), r(4));
    let mut a = Assembler::new();
    a.li(n, 3);
    a.push_tq(n);
    a.pop_tq();
    a.j("test");
    a.label("body");
    let push_pc = a.here();
    a.push_tq(n);
    a.addi(acc, acc, 1);
    a.label("test");
    a.branch_on_tcr("body");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(has(&rep, Rule::PushTqInTcrLoop, push_pc), "{}", rep.table());
}

#[test]
fn tq_gen_use_nest_is_clean() {
    let (i, n, m, j, acc) = (r(1), r(2), r(3), r(4), r(5));
    let mut a = Assembler::new();
    a.li(n, 6);
    a.li(m, 3);
    a.li(i, 0);
    a.label("gen");
    a.push_tq(m);
    a.addi(i, i, 1);
    a.blt(i, n, "gen");
    a.li(i, 0);
    a.label("outer");
    a.pop_tq();
    a.li(j, 0);
    a.j("test");
    a.label("body");
    a.addi(acc, acc, 1);
    a.addi(j, j, 1);
    a.label("test");
    a.branch_on_tcr("body");
    a.addi(i, i, 1);
    a.blt(i, n, "outer");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(rep.clean(), "{}", rep.table());
    assert_eq!(rep.bounds.tq, Some(6));
}

#[test]
fn tq_driven_consumer_balances_nested_bq_mirror() {
    // Miniature of the astar bq+tq pattern: the leading nest pushes one
    // trip count to the TQ and `m` predicates to the BQ per outer
    // iteration; the trailing nest pops the TQ and lets Branch_on_TCR
    // drive the BQ pops, so the BQ balance proof must ride the TQ
    // content class across both the shape and checking passes.
    let (i, n, m, j, p, base, lim, cs, acc) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));
    let mut a = Assembler::new();
    a.li(n, 64);
    a.li(base, 0x1000);
    a.li(i, 0);
    a.label("chunk");
    a.addi(lim, i, 4);
    a.min(lim, lim, n);
    a.mv(cs, i);
    a.label("gen");
    a.sll(m, i, 3i64);
    a.add(m, m, base);
    a.annotate("trip load (cfd-lint: value<=5)");
    a.ld(m, 0, m);
    a.push_tq(m);
    a.li(j, 0);
    a.j("gen_test");
    a.label("gen_body");
    a.push_bq(p);
    a.addi(j, j, 1);
    a.label("gen_test");
    a.blt(j, m, "gen_body");
    a.addi(i, i, 1);
    a.blt(i, lim, "gen");
    a.mv(i, cs);
    a.label("use");
    a.pop_tq();
    a.j("use_test");
    a.label("use_body");
    a.branch_on_bq("skip");
    a.addi(acc, acc, 1);
    a.label("skip");
    a.addi(r(10), r(10), 1);
    a.label("use_test");
    a.branch_on_tcr("use_body");
    a.addi(i, i, 1);
    a.blt(i, lim, "use");
    a.blt(i, n, "chunk");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(rep.clean(), "{}", rep.table());
    assert_eq!(rep.bounds.bq, Some(20)); // 4 outer iterations x 5 max trips
    assert_eq!(rep.bounds.tq, Some(4));
}

#[test]
fn irreducible_cycle_is_rejected_not_panicked() {
    let (x, y) = (r(1), r(2));
    let mut a = Assembler::new();
    a.blt(x, y, "c");
    a.label("b");
    a.addi(x, x, 1);
    a.j("c");
    a.label("c");
    a.addi(x, x, 1);
    a.j("b");
    let rep = lint(&a.finish().unwrap());
    assert!(rep.diagnostics.iter().any(|d| d.rule == Rule::IrreducibleCfg), "{}", rep.table());
    assert!(!rep.clean());
}

#[test]
fn unreachable_code_is_informational_only() {
    let mut a = Assembler::new();
    a.j("end");
    a.addi(r(1), r(1), 1); // dead
    a.label("end");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(rep.clean(), "{}", rep.table());
    assert!(rep.diagnostics.iter().any(|d| d.rule == Rule::UnreachableCode && d.severity == Severity::Info));
}

#[test]
fn fallthrough_into_exit_is_handled() {
    let mut a = Assembler::new();
    a.li(r(1), 1); // no halt: falls off the end
    let rep = lint(&a.finish().unwrap());
    assert!(rep.clean(), "{}", rep.table());
}

#[test]
fn underflow_on_provably_empty_queue() {
    let mut a = Assembler::new();
    let pop_pc = a.here();
    a.branch_on_bq("skip");
    a.label("skip");
    a.halt();
    let rep = lint(&a.finish().unwrap());
    assert!(has(&rep, Rule::Underflow, pop_pc), "{}", rep.table());
}

#[test]
fn expr_algebra_cancels_and_distributes() {
    let a = Expr::var(1).add(&Expr::konst(3));
    let b = Expr::var(1).add(&Expr::konst(3));
    assert_eq!(a.sub(&b).as_const(), Some(0));
    // min distributes over addition
    let m = Expr::Min(Box::new(Expr::var(1)), Box::new(Expr::var(2)));
    let s = m.add(&Expr::konst(5));
    match s {
        Expr::Min(x, y) => {
            assert_eq!(x.sub(&Expr::var(1)).as_const(), Some(5));
            assert_eq!(y.sub(&Expr::var(2)).as_const(), Some(5));
        }
        other => panic!("expected Min, got {other:?}"),
    }
    // negation swaps min and max
    assert!(matches!(m.neg(), Expr::Max(..)));
}
