//! Kernels from plain text: parse assembler source, auto-decouple the hard
//! branch, and race the two versions on the timing core.
//!
//! Run with: `cargo run --release --example from_text`

use cfd::analysis::{apply_cfd, classify_program, BranchClass};
use cfd::core::{Core, CoreConfig};
use cfd::isa::{parse_program, MemImage, Reg};

const SOURCE: &str = "
; price scan: act on every cheap element (hard, data-dependent branch)
      li   r2, 6000          ; n
      li   r3, 65536         ; &prices
scan:
      sll  r8, r1, 3
      add  r8, r8, r3
      l8   r6, 0(r8)         ; x = prices[i]
      slt  r7, r6, 40        ; p = x < 40
      beq  r7, r0, next      ; the separable branch
      add  r9, r9, r6        ; control-dependent region
      add  r10, r10, 1
      xor  r11, r11, r9
      add  r12, r12, r11
      sub  r13, r12, r9
      add  r13, r13, 7
next:
      add  r1, r1, 1
      blt  r1, r2, scan
      halt
";

fn main() {
    let program = parse_program(SOURCE).expect("source parses");
    println!("parsed {} instructions; labels: {:?}\n", program.len(), program.labels().collect::<Vec<_>>());

    // Find the separable branch with the classifier (no annotations needed).
    let branch_pc = classify_program(&program)
        .into_iter()
        .find(|rep| rep.class == BranchClass::SeparableTotal)
        .map(|rep| rep.pc)
        .expect("a totally separable branch");
    println!("classifier found a totally separable branch at pc {branch_pc}");

    let r = Reg::new;
    let t = apply_cfd(&program, branch_pc, 128, &[r(20), r(21), r(22), r(23)]).expect("transforms");

    let mut mem = MemImage::new();
    let mut s = 0xfeedu64;
    for k in 0..6000u64 {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        mem.write_u64(65536 + 8 * k, s % 100);
    }

    let base = Core::new(CoreConfig::default(), program, mem.clone()).unwrap().run(200_000_000).expect("base");
    let cfd = Core::new(CoreConfig::default(), t.program, mem).unwrap().run(200_000_000).expect("cfd");
    println!(
        "base: {} cycles / {} mispredicts   cfd: {} cycles / {} mispredicts   speedup {:.2}x",
        base.stats.cycles,
        base.stats.mispredictions,
        cfd.stats.cycles,
        cfd.stats.mispredictions,
        cfd.speedup_over(&base)
    );
}
