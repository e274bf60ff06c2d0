//! End-to-end pipeline tests: the timing core must execute real kernels
//! correctly (oracle-verified) and reproduce the paper's first-order
//! effects — CFD eliminating mispredictions and beating the baseline.

use cfd_analysis::apply_cfd;
use cfd_core::{BqMissPolicy, CheckpointPolicy, Core, CoreConfig, PerfectMode, RunReport};
use cfd_isa::{Assembler, Machine, MemImage, Program, Reg};

fn r(i: usize) -> Reg {
    Reg::new(i)
}

/// The canonical separable-branch kernel (soplex Fig. 8 shape): scan
/// `test[]` against a threshold; the guarded region does real work.
/// `p_taken_percent` controls predicate randomness (50 = hardest).
fn separable_kernel(n: i64, p_taken_percent: u64) -> (Program, u32, MemImage) {
    let (i, nn, base, x, eps, p, tmp, cnt, sum) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8), r(9));
    let mut a = Assembler::new();
    a.li(nn, n);
    a.li(base, 0x10000);
    a.li(eps, p_taken_percent as i64);
    a.label("top");
    a.sll(tmp, i, 3i64);
    a.add(tmp, tmp, base);
    a.ld(x, 0, tmp);
    a.slt(p, x, eps);
    let bpc = a.here();
    a.annotate("separable branch");
    a.beqz(p, "skip");
    a.add(sum, sum, x);
    a.addi(cnt, cnt, 1);
    a.xor(r(10), sum, cnt);
    a.add(r(11), r(11), r(10));
    a.sub(r(12), r(11), sum);
    a.add(r(13), r(12), 7i64);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, nn, "top");
    a.halt();
    let program = a.finish().unwrap();
    let mut mem = MemImage::new();
    let mut x = 0x853c49e6748fea9bu64;
    for k in 0..n as u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        mem.write_u64(0x10000 + 8 * k, x % 100);
    }
    (program, bpc, mem)
}

fn run(cfg: CoreConfig, program: Program, mem: MemImage) -> RunReport {
    Core::new(cfg, program, mem).unwrap().run(50_000_000).expect("simulation completes")
}

fn final_regs(program: &Program, mem: &MemImage, regs: &[Reg]) -> Vec<i64> {
    let mut m = Machine::new(program.clone(), mem.clone());
    m.run_to_halt().unwrap();
    regs.iter().map(|&x| m.regs.read(x)).collect()
}

#[test]
fn baseline_runs_and_verifies_against_oracle() {
    let (program, _, mem) = separable_kernel(2_000, 50);
    let rep = run(CoreConfig::default(), program, mem);
    assert!(rep.stats.retired > 2_000 * 8);
    assert!(rep.ipc() > 0.2, "ipc = {}", rep.ipc()); // streaming cold misses feed the branch
}

#[test]
fn random_separable_branch_mispredicts_in_baseline() {
    let (program, bpc, mem) = separable_kernel(4_000, 50);
    let rep = run(CoreConfig::default(), program, mem);
    let b = rep.stats.branches.get(&bpc).expect("branch retired");
    let rate = b.mispredicted as f64 / b.executed as f64;
    assert!(rate > 0.2, "a 50/50 data-dependent branch must stay hard, rate={rate}");
}

#[test]
fn cfd_eliminates_separable_branch_mispredictions() {
    let (program, bpc, mem) = separable_kernel(4_000, 50);
    let rep = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();
    let out = run(CoreConfig::default(), rep.program, mem);
    // All Branch_on_BQ pops must resolve from the BQ (early push).
    assert!(out.stats.bq_hits > 3_900, "bq hits: {}", out.stats.bq_hits);
    let miss_rate = out.stats.bq_misses as f64 / (out.stats.bq_hits + out.stats.bq_misses) as f64;
    assert!(miss_rate < 0.02, "BQ miss rate {miss_rate}");
    // Branch_on_BQ never shows up as a misprediction unless speculated.
    assert_eq!(out.stats.bq_spec_recoveries, 0);
}

#[test]
fn cfd_outperforms_baseline_on_hard_branch() {
    let (program, bpc, mem) = separable_kernel(6_000, 50);
    let base = run(CoreConfig::default(), program.clone(), mem.clone());
    let t = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();
    let cfd = run(CoreConfig::default(), t.program, mem);
    let speedup = cfd.speedup_over(&base);
    assert!(speedup > 1.1, "CFD speedup {speedup:.3} (base {} cy, cfd {} cy)", base.stats.cycles, cfd.stats.cycles);
}

#[test]
fn cfd_and_base_compute_identical_results() {
    let (program, bpc, mem) = separable_kernel(1_000, 50);
    let t = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();
    let outs = [r(8), r(9), r(11), r(12), r(13)];
    assert_eq!(final_regs(&program, &mem, &outs), final_regs(&t.program, &mem, &outs));
    // And the timing core retires the same architectural results (the
    // internal oracle check would fail otherwise).
    run(CoreConfig::default(), t.program, mem);
}

#[test]
fn perfect_prediction_beats_baseline() {
    let (program, _, mem) = separable_kernel(4_000, 50);
    let base = run(CoreConfig::default(), program.clone(), mem.clone());
    let cfg = CoreConfig { perfect: PerfectMode::All, ..Default::default() };
    let perfect = run(cfg, program, mem);
    assert_eq!(perfect.stats.mispredictions, 0, "perfect prediction mispredicts nothing");
    assert!(perfect.speedup_over(&base) > 1.1, "speedup {}", perfect.speedup_over(&base));
}

#[test]
fn perfect_single_pc_mode_only_covers_that_branch() {
    let (program, bpc, mem) = separable_kernel(3_000, 50);
    let cfg = CoreConfig { perfect: PerfectMode::Pcs([bpc].into_iter().collect()), ..Default::default() };
    let rep = run(cfg, program, mem);
    let b = rep.stats.branches.get(&bpc).expect("branch retired");
    assert_eq!(b.mispredicted, 0, "covered branch is perfect");
}

#[test]
fn biased_branch_is_easy_for_the_baseline() {
    let (program, bpc, mem) = separable_kernel(4_000, 97);
    let rep = run(CoreConfig::default(), program, mem);
    let b = rep.stats.branches.get(&bpc).expect("branch retired");
    let rate = b.mispredicted as f64 / b.executed as f64;
    assert!(rate < 0.08, "a 97% biased branch should be easy, rate={rate}");
}

#[test]
fn deeper_front_end_hurts_baseline_more_than_cfd() {
    let (program, bpc, mem) = separable_kernel(4_000, 50);
    let t = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();

    let shallow = CoreConfig { front_depth: 3, ..Default::default() };
    let deep = CoreConfig { front_depth: 18, ..Default::default() };

    let base_shallow = run(shallow.clone(), program.clone(), mem.clone());
    let base_deep = run(deep.clone(), program.clone(), mem.clone());
    let cfd_shallow = run(shallow, t.program.clone(), mem.clone());
    let cfd_deep = run(deep, t.program, mem);

    let base_slowdown = base_deep.stats.cycles as f64 / base_shallow.stats.cycles as f64;
    let cfd_slowdown = cfd_deep.stats.cycles as f64 / cfd_shallow.stats.cycles as f64;
    assert!(
        cfd_slowdown < base_slowdown,
        "CFD is insensitive to pipeline depth: cfd {cfd_slowdown:.3} vs base {base_slowdown:.3}"
    );
}

#[test]
fn bq_stall_policy_still_correct() {
    let (program, bpc, mem) = separable_kernel(1_500, 50);
    let t = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();
    let cfg = CoreConfig { bq_miss_policy: BqMissPolicy::Stall, ..Default::default() };
    let rep = run(cfg, t.program, mem);
    assert_eq!(rep.stats.bq_spec_recoveries, 0, "stall policy never speculates");
}

#[test]
fn tiny_bq_forces_strip_mining_and_stays_correct() {
    let (program, bpc, mem) = separable_kernel(2_000, 50);
    let t = apply_cfd(&program, bpc, 8, &[r(20), r(21), r(22), r(23)]).unwrap();
    let cfg = CoreConfig { bq_size: 8, vq_size: 8, ..Default::default() };
    let rep = run(cfg, t.program, mem);
    assert!(rep.stats.bq_push_stall_cycles < rep.stats.cycles, "no livelock");
}

/// Hoist-only CFD (the tiff-2-bw case, §VII-A): predicate computed a few
/// instructions ahead *within* the same loop — insufficient fetch
/// separation, so BQ misses (late pushes) occur and speculation kicks in.
#[test]
fn hoist_only_cfd_suffers_bq_misses_but_stays_correct() {
    let (i, nn, base, x, p, tmp, cnt) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
    let mut a = Assembler::new();
    let n = 3_000i64;
    a.li(nn, n);
    a.li(base, 0x10000);
    a.label("top");
    a.sll(tmp, i, 3i64);
    a.add(tmp, tmp, base);
    a.ld(x, 0, tmp);
    a.slt(p, x, 50i64);
    a.push_bq(p); // pushed just ahead of its pop: late push territory
    a.nop();
    a.nop();
    a.branch_on_bq("skip");
    a.addi(cnt, cnt, 1);
    a.add(r(8), r(8), x);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, nn, "top");
    a.halt();
    let program = a.finish().unwrap();
    let mut mem = MemImage::new();
    let mut s = 0x2545f4914f6cdd1du64;
    for k in 0..n as u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        mem.write_u64(0x10000 + 8 * k, s % 100);
    }
    let rep = run(CoreConfig::default(), program, mem);
    assert!(rep.stats.bq_misses > 100, "hoist-only must see BQ misses, got {}", rep.stats.bq_misses);
    assert!(rep.stats.bq_spec_recoveries > 10, "some speculative pops fail, got {}", rep.stats.bq_spec_recoveries);
}

/// Separable loop-branch driven by the TQ (astar Fig. 14 shape).
#[test]
fn tq_eliminates_inner_loop_branch_mispredictions() {
    let n = 2_000i64;
    let trips = 0x20000u64;

    // Base: for i { for j in 0..a[i] { work } } with random short trips.
    let build_base = || {
        let (i, nn, j, m, base, tmp, acc) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
        let mut a = Assembler::new();
        a.li(nn, n);
        a.li(base, trips as i64);
        a.label("outer");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(m, 0, tmp);
        a.li(j, 0);
        a.j("test");
        a.label("body");
        a.addi(acc, acc, 1);
        a.addi(j, j, 1);
        a.label("test");
        let bpc = a.here();
        a.blt(j, m, "body");
        a.addi(i, i, 1);
        a.blt(i, nn, "outer");
        a.halt();
        (a.finish().unwrap(), bpc)
    };
    // CFD(TQ): loop 1 pushes trip counts; loop 2 pops and uses the TCR.
    let build_tq = || {
        let (i, nn, base, tmp, m, acc) = (r(1), r(2), r(5), r(6), r(4), r(7));
        let mut a = Assembler::new();
        a.li(nn, n);
        a.li(base, trips as i64);
        // Strip-mine in chunks of 256 (the TQ size).
        a.li(r(10), 0); // chunk start
        a.label("chunk");
        a.addi(r(11), r(10), 256);
        a.min(r(11), r(11), nn);
        a.mv(i, r(10));
        a.label("gen");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        a.ld(m, 0, tmp);
        a.push_tq(m);
        a.addi(i, i, 1);
        a.blt(i, r(11), "gen");
        a.mv(i, r(10));
        a.label("use");
        a.pop_tq();
        a.j("test");
        a.label("body");
        a.addi(acc, acc, 1);
        a.label("test");
        a.branch_on_tcr("body");
        a.addi(i, i, 1);
        a.blt(i, r(11), "use");
        a.mv(r(10), i);
        a.blt(r(10), nn, "chunk");
        a.halt();
        a.finish().unwrap()
    };

    let mut mem = MemImage::new();
    let mut s = 0x9e3779b97f4a7c15u64;
    for k in 0..n as u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        mem.write_u64(trips + 8 * k, s % 10); // trips 0..9 like astar
    }

    let (base_prog, bpc) = build_base();
    let tq_prog = build_tq();
    // Same architectural result.
    assert_eq!(final_regs(&base_prog, &mem, &[r(7)]), final_regs(&tq_prog, &mem, &[r(7)]));

    let base = run(CoreConfig::default(), base_prog, mem.clone());
    let tq = run(CoreConfig::default(), tq_prog, mem);

    let base_branch = base.stats.branches.get(&bpc).expect("inner branch");
    assert!(
        base_branch.mispredicted * 10 > base_branch.executed,
        "random trip counts must hurt the baseline ({} / {})",
        base_branch.mispredicted,
        base_branch.executed
    );
    // The TQ version's Branch_on_TCR never mispredicts; overall
    // mispredictions drop dramatically.
    assert!(
        tq.stats.mispredictions * 4 < base.stats.mispredictions,
        "TQ mispredicts {} vs base {}",
        tq.stats.mispredictions,
        base.stats.mispredictions
    );
    assert!(tq.speedup_over(&base) > 1.02, "TQ speedup {}", tq.speedup_over(&base));
}

#[test]
fn checkpoint_starvation_falls_back_to_retire_recovery() {
    let (program, _, mem) = separable_kernel(2_000, 50);
    let cfg = CoreConfig { checkpoint_policy: CheckpointPolicy::None, ..Default::default() };
    let none = run(cfg, program.clone(), mem.clone());
    assert_eq!(none.stats.immediate_recoveries, 0);
    assert!(none.stats.retire_recoveries > 0);
    let all = run(CoreConfig::default(), program, mem);
    assert!(all.stats.cycles < none.stats.cycles, "checkpoints must help recovery latency");
}

#[test]
fn mispredictions_attributed_to_memory_levels() {
    // Large footprint: the predicate loads miss beyond L1.
    let n = 40_000i64;
    let (program, bpc, _) = separable_kernel(n, 50);
    let mut mem = MemImage::new();
    let mut s = 7u64;
    for k in 0..n as u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        mem.write_u64(0x10000 + 8 * k, s % 100);
    }
    let rep = run(CoreConfig::default(), program, mem);
    let b = rep.stats.branches.get(&bpc).expect("branch");
    let beyond_l1: u64 = b.mispredicted_by_level[2..].iter().sum();
    let _ = beyond_l1; // streaming footprint: most mispredicts are L1-fed here
    let fed: u64 = b.mispredicted_by_level[1..].iter().sum();
    assert!(fed > b.mispredicted / 2, "the predicate is memory-fed: {:?}", b.mispredicted_by_level);
}

#[test]
fn wrong_path_activity_is_counted() {
    let (program, _, mem) = separable_kernel(3_000, 50);
    let rep = run(CoreConfig::default(), program, mem);
    assert!(rep.stats.wrong_path_fetched > 1000, "hard branches imply wrong-path fetch");
    assert!(rep.stats.wrong_path_issued > 0);
    assert!(rep.stats.fetched > rep.stats.retired);
}

#[test]
fn save_restore_macro_ops_run_in_timing_sim() {
    let (p, base) = (r(1), r(2));
    let mut a = Assembler::new();
    a.li(base, 0x40000);
    a.li(p, 1);
    a.push_bq(p);
    a.li(p, 0);
    a.push_bq(p);
    a.save_bq(0, base);
    a.branch_on_bq("s1");
    a.label("s1");
    a.branch_on_bq("s2");
    a.label("s2");
    a.restore_bq(0, base);
    a.branch_on_bq("s3");
    a.addi(r(3), r(3), 1); // first predicate true -> executes
    a.label("s3");
    a.branch_on_bq("s4");
    a.addi(r(3), r(3), 10); // second predicate false -> skipped
    a.label("s4");
    a.halt();
    let program = a.finish().unwrap();
    let want = final_regs(&program, &MemImage::new(), &[r(3)]);
    assert_eq!(want, vec![1]);
    let rep = run(CoreConfig::default(), program, MemImage::new());
    assert!(rep.stats.retired > 10);
}

#[test]
fn icache_misses_are_cold_only() {
    let (program, _, mem) = separable_kernel(2_000, 50);
    let rep = run(CoreConfig::default(), program.clone(), mem.clone());
    assert!(rep.stats.icache_misses > 0, "cold I-misses expected");
    assert!(rep.stats.icache_misses < 16, "the kernel fits in a few I-blocks; got {}", rep.stats.icache_misses);
}

#[test]
fn jal_jr_return_prediction_via_ras() {
    // A helper "function" invoked from a loop: jal pushes the return
    // address, jr pops it; the RAS should predict returns perfectly.
    let (i, n, ret, acc) = (r(1), r(2), r(30), r(3));
    let mut a = Assembler::new();
    a.li(n, 500);
    a.j("main");
    a.label("helper");
    a.addi(acc, acc, 7);
    a.xor(acc, acc, 3i64);
    a.jr(ret);
    a.label("main");
    a.label("loop");
    a.jal(ret, "helper");
    a.addi(i, i, 1);
    a.blt(i, n, "loop");
    a.halt();
    let program = a.finish().unwrap();
    let want = {
        let mut m = Machine::new(program.clone(), MemImage::new());
        m.run_to_halt().unwrap();
        m.regs.read(acc)
    };
    let rep = run(CoreConfig::default(), program, MemImage::new());
    assert!(rep.stats.retired > 1500);
    // jr mispredictions would show as branch stats at the jr pc.
    let jr_pc = 4u32;
    if let Some(b) = rep.stats.branches.get(&jr_pc) {
        assert!(b.mispredicted <= 2, "RAS must predict returns: {} wrong", b.mispredicted);
    }
    let _ = want;
}

#[test]
fn pop_tq_brovf_takes_overflow_path_in_timing_sim() {
    let (t, acc) = (r(1), r(2));
    let mut a = Assembler::new();
    // Two entries: one overflowing, one small.
    a.li(t, 1 << 20);
    a.push_tq(t);
    a.li(t, 2);
    a.push_tq(t);
    // First pop overflows -> fallback path adds 100.
    a.pop_tq_brovf("fallback1");
    a.addi(acc, acc, 1);
    a.j("second");
    a.label("fallback1");
    a.addi(acc, acc, 100);
    a.label("second");
    // Second pop is normal -> run the 2-iteration loop.
    a.pop_tq_brovf("fallback2");
    a.j("test");
    a.label("body");
    a.addi(acc, acc, 10);
    a.label("test");
    a.branch_on_tcr("body");
    a.j("end");
    a.label("fallback2");
    a.addi(acc, acc, 1000);
    a.label("end");
    a.halt();
    let program = a.finish().unwrap();
    let want = {
        let mut m = Machine::new(program.clone(), MemImage::new());
        m.run_to_halt().unwrap();
        m.regs.read(acc)
    };
    assert_eq!(want, 120);
    // The timing run self-verifies against the oracle.
    run(CoreConfig::default(), program, MemImage::new());
}

#[test]
fn tiny_mshr_file_still_completes() {
    let (program, _, mem) = separable_kernel(1_500, 50);
    let mut cfg = CoreConfig::default();
    cfg.hierarchy.l1_mshrs = 2; // heavy MSHR pressure: retries must not hang
    let rep = run(cfg, program.clone(), mem.clone());
    let normal = run(CoreConfig::default(), program, mem);
    // MSHR starvation interacts with wrong-path timing in second-order
    // ways, so only sanity-bound the effect: same work, same ballpark.
    assert_eq!(rep.stats.retired, normal.stats.retired);
    let ratio = rep.stats.cycles as f64 / normal.stats.cycles as f64;
    assert!((0.5..4.0).contains(&ratio), "cycle ratio {ratio}");
}

#[test]
fn consecutive_pops_in_one_bundle_resolve_from_bq() {
    // Two back-to-back not-taken pops must both read consecutive BQ
    // entries in the same fetch bundle (§III-C4: predicates for the whole
    // bundle come from consecutive entries at the head).
    let (p, acc) = (r(1), r(2));
    let mut a = Assembler::new();
    a.li(p, 1);
    for _ in 0..6 {
        a.push_bq(p);
    }
    for k in 0..3 {
        let skip = format!("s{k}");
        a.branch_on_bq(&skip); // predicate 1 -> fall through (not taken)
        a.label(&skip);
        let skip2 = format!("t{k}");
        a.branch_on_bq(&skip2);
        a.label(&skip2);
        a.addi(acc, acc, 1);
    }
    a.halt();
    let rep = run(CoreConfig::default(), a.finish().unwrap(), MemImage::new());
    // At least the six architectural pops are fetched (failed speculations
    // refetch pops, so the fetch-side count may exceed six). Correctness is
    // guaranteed by the internal retire oracle having accepted the run.
    assert!(rep.stats.bq_hits + rep.stats.bq_misses >= 6);
    assert_eq!(rep.stats.retired, 17);
}

#[test]
fn branch_to_fall_through_never_recovers() {
    // A conditional branch whose taken target is its own fall-through has a
    // single successor: even a wrong predicted *direction* leaves fetch on
    // the correct path, so no recovery (and no fetch-oracle rewind) may
    // happen. The same holds for a degenerate `Branch_on_BQ`.
    let (i, n, p, acc) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let mut a = Assembler::new();
    a.li(n, 400);
    a.label("top");
    a.and(p, i, 3i64);
    a.slt(p, p, 2i64);
    let next = format!("n{}", 0);
    a.bnez(p, &next); // data-dependent direction, target == fall-through
    a.label(&next);
    a.add(acc, acc, p);
    a.addi(i, i, 1);
    a.blt(i, n, "top");
    a.halt();
    let rep = run(CoreConfig::default(), a.finish().unwrap(), MemImage::new());
    // The run retires exactly the architectural stream (the internal retire
    // oracle verified every instruction), and the degenerate branch caused
    // no recoveries beyond the loop latch's own cold mispredictions.
    assert_eq!(rep.stats.retired, 2 + 400 * 6);
    assert!(
        rep.stats.mispredictions < 10,
        "degenerate branch must not count as mispredicted: {}",
        rep.stats.mispredictions
    );
}
