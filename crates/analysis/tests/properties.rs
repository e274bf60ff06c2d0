//! Property-based tests for the static analyses: random structured
//! programs must satisfy the textbook dominance/control-dependence laws.
//! Cases come from the in-repo seeded harness (`cfd_isa::prop_check`).

use cfd_analysis::{backward_slice, classify_program, find_loops, lint_program, Cfg, DomTree, Rule, Severity};
use cfd_isa::check::Rng;
use cfd_isa::{prop_check, Assembler, Program, QueueConfig, Reg};

/// A random structured program: a chain of `segments`, each either
/// straight-line code, an if (optionally with else), or a counted loop whose
/// body is straight-line with an optional guarded region.
#[derive(Debug, Clone)]
enum Segment {
    Straight(u8),
    IfThen { then_len: u8, with_else: bool },
    Loop { body_len: u8, guarded: Option<u8> },
}

fn segment(rng: &mut Rng) -> Segment {
    match rng.below(3) {
        0 => Segment::Straight(rng.range_u64(1, 6) as u8),
        1 => Segment::IfThen { then_len: rng.range_u64(1, 5) as u8, with_else: rng.bool() },
        _ => Segment::Loop {
            body_len: rng.range_u64(1, 4) as u8,
            guarded: rng.bool().then(|| rng.range_u64(1, 8) as u8),
        },
    }
}

fn segments(rng: &mut Rng) -> Vec<Segment> {
    rng.vec(1, 8, segment)
}

fn build(segments: &[Segment]) -> Program {
    let r = Reg::new;
    let (i, n, p) = (r(1), r(2), r(3));
    let mut a = Assembler::new();
    for (k, seg) in segments.iter().enumerate() {
        match seg {
            Segment::Straight(len) => {
                for j in 0..*len {
                    a.addi(r(4 + (j as usize % 4)), r(4 + (j as usize % 4)), 1);
                }
            }
            Segment::IfThen { then_len, with_else } => {
                let (els, join) = (format!("else{k}"), format!("join{k}"));
                a.xor(p, r(4), 1i64);
                a.and(p, p, 1i64);
                a.beqz(p, if *with_else { &els } else { &join });
                for _ in 0..*then_len {
                    a.addi(r(5), r(5), 1);
                }
                if *with_else {
                    a.j(&join);
                    a.label(&els);
                    a.addi(r(6), r(6), 2);
                }
                a.label(&join);
            }
            Segment::Loop { body_len, guarded } => {
                let (top, skip) = (format!("top{k}"), format!("skip{k}"));
                a.li(i, 0);
                a.li(n, 5);
                a.label(&top);
                for _ in 0..*body_len {
                    a.addi(r(7), r(7), 3);
                }
                if let Some(g) = guarded {
                    a.and(p, r(7), 1i64);
                    a.beqz(p, &skip);
                    for _ in 0..*g {
                        a.addi(r(8), r(8), 1);
                    }
                    a.label(&skip);
                }
                a.addi(i, i, 1);
                a.blt(i, n, &top);
            }
        }
    }
    a.halt();
    a.finish().expect("generated program assembles")
}

#[test]
fn dominance_laws_hold() {
    prop_check!(48, |rng| {
        let program = build(&segments(rng));
        let cfg = Cfg::build(&program);
        let dom = DomTree::dominators(&cfg);
        let pdom = DomTree::post_dominators(&cfg);
        for b in 0..cfg.len() {
            // Entry dominates everything; exit post-dominates everything.
            assert!(dom.dominates(cfg.entry(), b));
            assert!(pdom.dominates(cfg.exit(), b));
            // Reflexivity.
            assert!(dom.dominates(b, b));
            // idom is a strict dominator (except at the root).
            if b != cfg.entry() {
                let id = dom.idom(b);
                assert!(dom.dominates(id, b));
                assert!(id == b || dom.strictly_dominates(id, b));
            }
            // Antisymmetry.
            for c in 0..cfg.len() {
                if b != c {
                    assert!(
                        !(dom.strictly_dominates(b, c) && dom.strictly_dominates(c, b)),
                        "mutual strict dominance {b} <-> {c}"
                    );
                }
            }
        }
    });
}

#[test]
fn loops_have_dominating_headers() {
    prop_check!(48, |rng| {
        let program = build(&segments(rng));
        let cfg = Cfg::build(&program);
        let dom = DomTree::dominators(&cfg);
        for lp in find_loops(&cfg, &dom) {
            assert!(lp.contains(lp.header));
            for &b in &lp.blocks {
                assert!(dom.dominates(lp.header, b), "header must dominate the body");
            }
            for &latch in &lp.latches {
                assert!(lp.contains(latch));
                assert!(cfg.blocks[latch].succs.contains(&lp.header), "latch closes the loop");
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Degenerate control-flow graphs: the queue-discipline verifier must
// stay total (no panic, a verdict for every input) on the shapes real
// front-ends occasionally emit.
// ---------------------------------------------------------------------------

/// Queue-op-free structured programs are vacuously clean with all-zero
/// bounds, whatever their CFG shape.
#[test]
fn lint_is_clean_on_random_queue_free_programs() {
    prop_check!(48, |rng| {
        let program = build(&segments(rng));
        let rep = lint_program(&program, &QueueConfig::default());
        assert!(rep.clean(), "{}", rep.table());
        assert_eq!(rep.bounds.bq, Some(0));
        assert_eq!(rep.bounds.vq, Some(0));
        assert_eq!(rep.bounds.tq, Some(0));
    });
}

/// The empty program — a bare `halt` — is the smallest valid input.
#[test]
fn lint_handles_empty_program() {
    let mut a = Assembler::new();
    a.halt();
    let rep = lint_program(&a.finish().unwrap(), &QueueConfig::default());
    assert!(rep.clean(), "{}", rep.table());
    assert_eq!(rep.bounds.bq, Some(0));
}

/// Code after an unconditional jump is unreachable; a queue violation
/// buried there must not poison the verdict of the live code, but the
/// dead region is reported.
#[test]
fn lint_skips_unreachable_blocks() {
    let r = Reg::new;
    let mut a = Assembler::new();
    a.addi(r(4), r(4), 1);
    a.j("live");
    // Dead: a bare pop that would underflow if it could ever run.
    a.branch_on_bq("live");
    a.label("live");
    a.addi(r(5), r(5), 1);
    a.halt();
    let rep = lint_program(&a.finish().unwrap(), &QueueConfig::default());
    assert!(rep.clean(), "{}", rep.table());
    assert!(
        rep.diagnostics.iter().any(|d| d.rule == Rule::UnreachableCode),
        "dead block not reported:\n{}",
        rep.table()
    );
}

/// A conditional branch whose fallthrough is the final `halt`: the
/// fallthrough edge runs straight into the CFG exit, so exit-balance
/// checking must see both the taken and the fallthrough path.
#[test]
fn lint_checks_fallthrough_into_exit() {
    let r = Reg::new;
    // Unbalanced on the fallthrough path: one push, popped only on the
    // taken side.
    let mut a = Assembler::new();
    a.li(r(9), 0x1000);
    a.ld(r(5), 0, r(9)); // opaque predicate: both branch arms stay live
    a.push_bq(r(4));
    a.beqz(r(5), "drain");
    a.halt();
    a.label("drain");
    a.branch_on_bq("out");
    a.label("out");
    a.halt();
    let rep = lint_program(&a.finish().unwrap(), &QueueConfig::default());
    assert!(!rep.clean(), "missed the unbalanced fallthrough exit");
    assert!(
        rep.diagnostics.iter().any(|d| d.rule == Rule::UnbalancedAtExit && d.severity == Severity::Error),
        "wrong finding:\n{}",
        rep.table()
    );
}

/// A cycle with two distinct entry points is irreducible — no natural
/// loop exists, and the verifier must refuse loudly instead of proving
/// bounds it cannot justify.
#[test]
fn lint_flags_irreducible_loop() {
    let r = Reg::new;
    let mut a = Assembler::new();
    a.beqz(r(4), "l2"); // second entry into the cycle, skipping l1
    a.label("l1");
    a.addi(r(5), r(5), 1);
    a.label("l2");
    a.addi(r(6), r(6), 1);
    a.bnez(r(6), "l1"); // closes the l1 <-> l2 cycle
    a.halt();
    let rep = lint_program(&a.finish().unwrap(), &QueueConfig::default());
    assert!(!rep.clean());
    assert!(
        rep.diagnostics.iter().any(|d| d.rule == Rule::IrreducibleCfg && d.severity == Severity::Error),
        "irreducible cycle not flagged:\n{}",
        rep.table()
    );
    assert_eq!(rep.bounds.bq, None, "no bound may be claimed on an unanalyzed CFG");
}

#[test]
fn classification_is_total_and_slices_are_in_loops() {
    prop_check!(48, |rng| {
        let program = build(&segments(rng));
        let cfg = Cfg::build(&program);
        let dom = DomTree::dominators(&cfg);
        let loops = find_loops(&cfg, &dom);
        let reports = classify_program(&program);
        // Every plain conditional branch gets exactly one report.
        let branch_count = program.instrs().iter().filter(|x| x.is_plain_conditional()).count();
        assert_eq!(reports.len(), branch_count);
        // Slices stay within their loop.
        for rep in &reports {
            let block = cfg.block_of(rep.pc);
            if let Some(lp) = loops.iter().find(|l| l.contains(block)) {
                let slice = backward_slice(&program, &cfg, lp, rep.pc);
                for pc in &slice.pcs {
                    assert!(lp.contains(cfg.block_of(*pc)), "slice escaped its loop");
                }
            }
        }
    });
}
