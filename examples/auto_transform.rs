//! The compiler pass in action: classify a loop's branches, automatically
//! apply CFD to the totally separable one, and compare disassembly and
//! timing before/after.
//!
//! Run with: `cargo run --release --example auto_transform`

use cfd::analysis::{apply_cfd, classify_program};
use cfd::core::{Core, CoreConfig};
use cfd::isa::{Assembler, MemImage, Reg};

fn main() {
    // A hand-written kernel: scan prices[], act on the cheap ones.
    let r = Reg::new;
    let (i, n, base, x, eps, p, tmp) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
    let mut a = Assembler::new();
    let count = 8_000i64;
    a.li(n, count);
    a.li(base, 0x10000);
    a.li(eps, 40);
    a.label("scan");
    a.sll(tmp, i, 3i64);
    a.add(tmp, tmp, base);
    a.ld(x, 0, tmp);
    a.slt(p, x, eps);
    let branch_pc = a.here();
    a.beqz(p, "skip");
    a.add(r(9), r(9), x);
    a.addi(r(10), r(10), 1);
    a.xor(r(11), r(11), r(9));
    a.add(r(12), r(12), r(11));
    a.sub(r(13), r(12), r(9));
    a.add(r(13), r(13), 3i64);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, n, "scan");
    a.halt();
    let program = a.finish().expect("assembles");

    let mut mem = MemImage::new();
    let mut s = 0x1234_5678_9abc_def0u64;
    for k in 0..count as u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        mem.write_u64(0x10000 + 8 * k, s % 100);
    }

    // 1. Classify: the paper's §II taxonomy, computed statically.
    println!("=== classification ===");
    for rep in classify_program(&program) {
        println!(
            "pc {:3}  {:24}  CD region {:2} instrs, slice {:2}, overlap {}",
            rep.pc,
            rep.class.to_string(),
            rep.cd_region_instrs,
            rep.slice_instrs,
            rep.overlap_instrs
        );
    }

    // 2. Transform: the gcc-pass analog, with BQ-sized strip mining.
    let t = apply_cfd(&program, branch_pc, 128, &[r(20), r(21), r(22), r(23)]).expect("totally separable");
    println!("\n=== decoupled program ({} -> {} static instrs) ===", t.static_instrs.0, t.static_instrs.1);
    println!("{}", t.program.disassemble());

    // 3. Measure.
    let base = Core::new(CoreConfig::default(), program, mem.clone()).unwrap().run(200_000_000).expect("base");
    let cfd = Core::new(CoreConfig::default(), t.program, mem).unwrap().run(200_000_000).expect("cfd");
    println!(
        "base: {} cycles, {} mispredicts | cfd: {} cycles, {} mispredicts | speedup {:.2}x",
        base.stats.cycles,
        base.stats.mispredictions,
        cfd.stats.cycles,
        cfd.stats.mispredictions,
        cfd.speedup_over(&base)
    );
}
