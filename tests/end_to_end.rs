//! Cross-crate integration tests: workloads × analysis × profiler × timing
//! core, exercised together the way the experiment harness uses them.

use cfd::analysis::{classify_program, BranchClass};
use cfd::core::{Core, CoreConfig, PerfectMode};
use cfd::profile::profile;
use cfd::workloads::{by_name, catalog, PaperClass, Scale, Variant};

fn small() -> Scale {
    Scale { n: 1_200, seed: 0xe2e }
}

fn run_timing(w: &cfd::workloads::Workload, cfg: &CoreConfig) -> cfd::core::RunReport {
    Core::new(cfg.clone(), w.program.clone(), w.mem.clone()).unwrap().run(100_000_000).expect("simulation completes")
}

#[test]
fn every_catalog_variant_survives_the_timing_core() {
    // The timing core cross-checks every retired instruction against the
    // functional oracle, so simply completing is a strong statement.
    let scale = small();
    for entry in catalog() {
        for &v in entry.variants {
            let w = entry.build(v, scale);
            let rep = run_timing(&w, &CoreConfig::default());
            assert!(rep.stats.retired > 0, "{} [{v}] retired nothing", entry.name);
        }
    }
}

#[test]
fn timing_retirement_matches_functional_instruction_count() {
    let scale = small();
    for name in ["soplex_ref_like", "astar_tq_like", "tiff2bw_like"] {
        let w = by_name(name).unwrap().build(Variant::Base, scale);
        let functional = w.dynamic_instructions().unwrap();
        let rep = run_timing(&w, &CoreConfig::default());
        assert_eq!(rep.stats.retired, functional, "{name}: timing and functional disagree");
    }
}

#[test]
fn static_classifier_agrees_with_kernel_annotations() {
    // The kernels carry the paper's intended class; the independent static
    // classifier must reach the same verdict for the scan-family kernels.
    let scale = small();
    for name in ["soplex_ref_like", "mcf_like", "jpeg_like", "hmmer_like", "soplex_upd_like"] {
        let w = by_name(name).unwrap().build(Variant::Base, scale);
        let reports = classify_program(&w.program);
        for ib in &w.interest {
            let got = reports.iter().find(|r| r.pc == ib.pc).expect("classified").class;
            let want = match ib.class {
                PaperClass::SeparableTotal => BranchClass::SeparableTotal,
                PaperClass::SeparablePartial => BranchClass::SeparablePartial,
                PaperClass::Hammock => BranchClass::Hammock,
                PaperClass::SeparableLoopBranch => BranchClass::SeparableLoopBranch,
                PaperClass::Inseparable => BranchClass::Inseparable,
                PaperClass::SpeculativelySeparable => BranchClass::SpeculativelySeparable,
            };
            assert_eq!(got, want, "{name} pc {}", ib.pc);
        }
    }
}

#[test]
fn profiler_and_timing_core_see_the_same_hard_branch() {
    let scale = small();
    let w = by_name("soplex_ref_like").unwrap().build(Variant::Base, scale);
    let prof = profile(&w, "isl-tage", 100_000_000).unwrap();
    let rep = run_timing(&w, &CoreConfig::default());
    let hard_pc = w.interest[0].pc;
    let prof_rate = prof.per_branch[&hard_pc].miss_rate();
    let timing_stat = rep.stats.branches.get(&hard_pc).expect("branch retired");
    let timing_rate = timing_stat.mispredicted as f64 / timing_stat.executed as f64;
    // Same predictor family, but the timing core trains at retire with
    // wrong-path effects — rates agree loosely, not exactly.
    assert!(
        (prof_rate - timing_rate).abs() < 0.15,
        "profiler {prof_rate:.3} vs timing {timing_rate:.3} diverge too much"
    );
}

#[test]
fn cfd_beats_base_beats_nothing_ordering() {
    // Sanity ordering on the flagship kernel: perfect >= cfd > base (by
    // cycles, CFD pays instruction overhead but kills mispredictions).
    let scale = Scale { n: 4_000, seed: 0xe2e };
    let entry = by_name("soplex_pds_like").unwrap();
    let base_w = entry.build(Variant::Base, scale);
    let base = run_timing(&base_w, &CoreConfig::default());
    let cfd = run_timing(&entry.build(Variant::Cfd, scale), &CoreConfig::default());
    let pcfg = CoreConfig { perfect: PerfectMode::All, ..Default::default() };
    let perfect = run_timing(&base_w, &pcfg);
    assert!(cfd.stats.cycles < base.stats.cycles, "CFD must win on the hard branch");
    assert!(perfect.stats.cycles < base.stats.cycles, "perfect must win");
}

#[test]
fn energy_reduction_comes_with_cfd() {
    let scale = Scale { n: 4_000, seed: 0xe2e };
    let entry = by_name("tiffmedian_like").unwrap();
    let base = run_timing(&entry.build(Variant::Base, scale), &CoreConfig::default());
    let cfd = run_timing(&entry.build(Variant::Cfd, scale), &CoreConfig::default());
    let model = cfd::energy::EnergyModel::default();
    assert!(
        cfd.energy(&model).total_pj < base.energy(&model).total_pj,
        "eliminating wrong-path work must save energy here"
    );
}

#[test]
fn wrong_path_work_shrinks_under_cfd() {
    let scale = Scale { n: 4_000, seed: 0xe2e };
    let entry = by_name("soplex_ref_like").unwrap();
    let base = run_timing(&entry.build(Variant::Base, scale), &CoreConfig::default());
    let cfd = run_timing(&entry.build(Variant::Cfd, scale), &CoreConfig::default());
    assert!(
        cfd.stats.wrong_path_fetched * 5 < base.stats.wrong_path_fetched,
        "CFD removes the dominant wrong-path source: {} vs {}",
        cfd.stats.wrong_path_fetched,
        base.stats.wrong_path_fetched
    );
}

#[test]
fn auto_transform_output_runs_on_the_timing_core() {
    use cfd::analysis::apply_cfd;
    use cfd::isa::{Assembler, MemImage, Reg};
    let r = Reg::new;
    let (i, n, base, x, p, tmp) = (r(1), r(2), r(3), r(4), r(5), r(6));
    let mut a = Assembler::new();
    a.li(n, 3_000);
    a.li(base, 0x20000);
    a.label("top");
    a.sll(tmp, i, 3i64);
    a.add(tmp, tmp, base);
    a.ld(x, 0, tmp);
    a.slt(p, x, 500i64);
    let bpc = a.here();
    a.beqz(p, "skip");
    a.add(r(9), r(9), x);
    a.xor(r(10), r(10), r(9));
    a.add(r(11), r(11), r(10));
    a.sub(r(12), r(11), r(9));
    a.add(r(12), r(12), 1i64);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, n, "top");
    a.halt();
    let program = a.finish().unwrap();
    let mut mem = MemImage::new();
    let mut s = 77u64;
    for k in 0..3_000u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        mem.write_u64(0x20000 + 8 * k, s % 1000);
    }
    let t = apply_cfd(&program, bpc, 128, &[r(20), r(21), r(22), r(23)]).unwrap();
    let b = Core::new(CoreConfig::default(), program, mem.clone()).unwrap().run(100_000_000).unwrap();
    let c = Core::new(CoreConfig::default(), t.program, mem).unwrap().run(100_000_000).unwrap();
    assert!(c.stats.mispredictions * 5 < b.stats.mispredictions, "transform kills the mispredictions");
}
