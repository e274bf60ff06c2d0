//! Functional (architectural) simulator.
//!
//! Executes one instruction per [`Machine::step`], maintaining the
//! architectural state only: register file, data memory, PC, and the three
//! CFD queues. This simulator is the reference model: workload variants are
//! verified against it, the profiler replays its retirement trace through
//! branch predictors, and the timing simulator's retired stream is checked
//! against it in integration tests.

use crate::instr::{Instr, MemWidth};
use crate::mem_image::MemImage;
use crate::program::Program;
use crate::queues::{ArchBq, ArchTq, ArchVq, QueueError, TqEntry};
use crate::reg::{Reg, RegFile};
use crate::semantics::{eval_alu, eval_branch};
use std::fmt;

/// Sizes of the architectural queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueConfig {
    /// Branch Queue capacity (paper: 128).
    pub bq_size: usize,
    /// Value Queue capacity (paper: 128, matching the BQ).
    pub vq_size: usize,
    /// Trip-count Queue capacity (paper: 256).
    pub tq_size: usize,
    /// Architected trip-count width in bits.
    pub tq_trip_bits: u32,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig { bq_size: 128, vq_size: 128, tq_size: 256, tq_trip_bits: ArchTq::DEFAULT_TRIP_BITS }
    }
}

/// A data-memory access performed by a retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access width.
    pub width: MemWidth,
    /// True for stores, false for loads/prefetches.
    pub is_store: bool,
}

/// One retired instruction, as observed by a [`TraceSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetireEvent {
    /// Retirement sequence number (0-based).
    pub seq: u64,
    /// The instruction's PC.
    pub pc: u32,
    /// The instruction itself.
    pub instr: Instr,
    /// For conditional control instructions: whether it was taken.
    pub taken: Option<bool>,
    /// The next PC after this instruction.
    pub next_pc: u32,
    /// The first data-memory access, if any.
    pub mem: Option<MemAccess>,
}

/// Observer of the retirement stream.
///
/// Implemented by the profiler (predictor replay), trace collectors, and
/// test oracles. All methods have empty defaults, so sinks implement only
/// what they need.
pub trait TraceSink {
    /// Called once per retired instruction.
    fn retire(&mut self, ev: &RetireEvent) {
        let _ = ev;
    }
}

/// A sink that discards all events.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {}

impl<F: FnMut(&RetireEvent)> TraceSink for F {
    fn retire(&mut self, ev: &RetireEvent) {
        self(ev)
    }
}

/// Functional-simulation errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A CFD queue ordering rule was violated.
    Queue {
        /// PC of the offending instruction.
        pc: u32,
        /// The violation.
        err: QueueError,
    },
    /// The PC ran off the end of the program without a `Halt`.
    PcOutOfRange {
        /// The out-of-range PC.
        pc: u32,
    },
    /// Retired-instruction limit exceeded (runaway program guard).
    InstructionLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Queue { pc, err } => write!(f, "queue violation at pc {pc}: {err}"),
            SimError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range (missing halt?)"),
            SimError::InstructionLimit { limit } => write!(f, "instruction limit of {limit} exceeded"),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate counts from a [`Machine::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions retired.
    pub retired: u64,
    /// Conditional control instructions retired (plain + CFD pops).
    pub conditional_branches: u64,
    /// Of those, how many were taken.
    pub taken_branches: u64,
    /// Loads retired.
    pub loads: u64,
    /// Stores retired.
    pub stores: u64,
}

/// The architectural machine: program + full architectural state.
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    /// General-purpose registers.
    pub regs: RegFile,
    /// Data memory.
    pub mem: MemImage,
    /// Branch Queue.
    pub bq: ArchBq,
    /// Value Queue.
    pub vq: ArchVq,
    /// Trip-count Queue (+ TCR).
    pub tq: ArchTq,
    pc: u32,
    halted: bool,
    retired: u64,
}

impl Machine {
    /// Creates a machine over `program` with zeroed registers, the given
    /// memory image, and default queue sizes.
    pub fn new(program: Program, mem: MemImage) -> Machine {
        Machine::with_queues(program, mem, QueueConfig::default())
    }

    /// Creates a machine with explicit queue sizes.
    pub fn with_queues(program: Program, mem: MemImage, q: QueueConfig) -> Machine {
        Machine {
            program,
            regs: RegFile::new(),
            mem,
            bq: ArchBq::new(q.bq_size),
            vq: ArchVq::new(q.vq_size),
            tq: ArchTq::with_trip_bits(q.tq_size, q.tq_trip_bits),
            pc: 0,
            halted: false,
            retired: 0,
        }
    }

    /// The program being executed.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Current PC.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Whether `Halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Executes one instruction, reporting it to `sink`.
    ///
    /// Returns `Ok(true)` while running, `Ok(false)` once halted.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on queue ordering violations or a PC that runs
    /// off the program.
    pub fn step(&mut self, sink: &mut impl TraceSink) -> Result<bool, SimError> {
        if self.halted {
            return Ok(false);
        }
        let pc = self.pc;
        let instr = self.program.fetch(pc).ok_or(SimError::PcOutOfRange { pc })?;
        let mut next_pc = pc + 1;
        let mut taken = None;
        let mut mem_access = None;
        let q = |err| SimError::Queue { pc, err };

        match instr {
            Instr::Alu { op, rd, rs1, src2 } => {
                let a = self.regs.read(rs1);
                let b = match src2 {
                    crate::instr::Src2::Reg(r) => self.regs.read(r),
                    crate::instr::Src2::Imm(v) => v,
                };
                self.regs.write(rd, eval_alu(op, a, b));
            }
            Instr::Li { rd, imm } => self.regs.write(rd, imm),
            Instr::Load { rd, base, offset, width, signed } => {
                let addr = (self.regs.read(base) as u64).wrapping_add(offset as u64);
                self.regs.write(rd, self.mem.read(addr, width, signed));
                mem_access = Some(MemAccess { addr, width, is_store: false });
            }
            Instr::Store { src, base, offset, width } => {
                let addr = (self.regs.read(base) as u64).wrapping_add(offset as u64);
                self.mem.write(addr, self.regs.read(src), width);
                mem_access = Some(MemAccess { addr, width, is_store: true });
            }
            Instr::Prefetch { base, offset } => {
                let addr = (self.regs.read(base) as u64).wrapping_add(offset as u64);
                mem_access = Some(MemAccess { addr, width: MemWidth::B8, is_store: false });
            }
            Instr::Branch { cond, rs1, rs2, target } => {
                let t = eval_branch(cond, self.regs.read(rs1), self.regs.read(rs2));
                taken = Some(t);
                if t {
                    next_pc = target;
                }
            }
            Instr::Jump { target } => next_pc = target,
            Instr::Jal { rd, target } => {
                self.regs.write(rd, (pc + 1) as i64);
                next_pc = target;
            }
            Instr::Jr { rs } => next_pc = self.regs.read(rs) as u32,
            Instr::PushBq { rs } => self.bq.push(self.regs.read(rs) != 0).map_err(q)?,
            Instr::BranchOnBq { target } => {
                let pred = self.bq.pop().map_err(q)?;
                // Taken (skip) when the predicate is false.
                taken = Some(!pred);
                if !pred {
                    next_pc = target;
                }
            }
            Instr::MarkBq => self.bq.mark(),
            Instr::ForwardBq => {
                self.bq.forward().map_err(q)?;
            }
            Instr::PushVq { rs } => self.vq.push(self.regs.read(rs)).map_err(q)?,
            Instr::PopVq { rd } => {
                let v = self.vq.pop().map_err(q)?;
                self.regs.write(rd, v);
            }
            Instr::PushTq { rs } => self.tq.push(self.regs.read(rs)).map_err(q)?,
            Instr::PopTq => {
                self.tq.pop().map_err(q)?;
            }
            Instr::BranchOnTcr { target } => {
                let cont = self.tq.branch_on_tcr();
                taken = Some(cont);
                if cont {
                    next_pc = target;
                }
            }
            Instr::PopTqBrOvf { target } => {
                let e = self.tq.pop().map_err(q)?;
                taken = Some(e.overflow);
                if e.overflow {
                    next_pc = target;
                }
            }
            Instr::SaveBq { base, offset } => {
                let addr = (self.regs.read(base) as u64).wrapping_add(offset as u64);
                let contents = self.bq.contents();
                self.mem.write_u64(addr, contents.len() as u64);
                for (i, p) in contents.iter().enumerate() {
                    self.mem.write(addr + 8 + i as u64, *p as i64, MemWidth::B1);
                }
                mem_access = Some(MemAccess { addr, width: MemWidth::B8, is_store: true });
            }
            Instr::RestoreBq { base, offset } => {
                let addr = (self.regs.read(base) as u64).wrapping_add(offset as u64);
                let len = (self.mem.read_u64(addr) as usize).min(self.bq.capacity());
                let preds: Vec<bool> =
                    (0..len).map(|i| self.mem.read(addr + 8 + i as u64, MemWidth::B1, false) != 0).collect();
                self.bq.restore(&preds);
                mem_access = Some(MemAccess { addr, width: MemWidth::B8, is_store: false });
            }
            Instr::SaveVq { base, offset } => {
                let addr = (self.regs.read(base) as u64).wrapping_add(offset as u64);
                let contents = self.vq.contents();
                self.mem.write_u64(addr, contents.len() as u64);
                for (i, v) in contents.iter().enumerate() {
                    self.mem.write(addr + 8 + 8 * i as u64, *v, MemWidth::B8);
                }
                mem_access = Some(MemAccess { addr, width: MemWidth::B8, is_store: true });
            }
            Instr::RestoreVq { base, offset } => {
                let addr = (self.regs.read(base) as u64).wrapping_add(offset as u64);
                let len = (self.mem.read_u64(addr) as usize).min(self.vq.capacity());
                let vals: Vec<i64> =
                    (0..len).map(|i| self.mem.read(addr + 8 + 8 * i as u64, MemWidth::B8, false)).collect();
                self.vq.restore(&vals);
                mem_access = Some(MemAccess { addr, width: MemWidth::B8, is_store: false });
            }
            Instr::SaveTq { base, offset } => {
                let addr = (self.regs.read(base) as u64).wrapping_add(offset as u64);
                let contents = self.tq.contents();
                self.mem.write_u64(addr, contents.len() as u64);
                self.mem.write_u64(addr + 8, self.tq.tcr() as u64);
                for (i, e) in contents.iter().enumerate() {
                    let packed = (e.trip_count as u64) | ((e.overflow as u64) << 32);
                    self.mem.write_u64(addr + 16 + 8 * i as u64, packed);
                }
                mem_access = Some(MemAccess { addr, width: MemWidth::B8, is_store: true });
            }
            Instr::RestoreTq { base, offset } => {
                let addr = (self.regs.read(base) as u64).wrapping_add(offset as u64);
                let len = (self.mem.read_u64(addr) as usize).min(self.tq.capacity());
                let tcr = self.mem.read_u64(addr + 8) as u32;
                let entries: Vec<TqEntry> = (0..len)
                    .map(|i| {
                        let packed = self.mem.read_u64(addr + 16 + 8 * i as u64);
                        TqEntry { trip_count: packed as u32, overflow: (packed >> 32) & 1 != 0 }
                    })
                    .collect();
                self.tq.restore(&entries);
                self.tq.set_tcr(tcr);
                mem_access = Some(MemAccess { addr, width: MemWidth::B8, is_store: false });
            }
            Instr::Nop => {}
            Instr::Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }

        let ev = RetireEvent { seq: self.retired, pc, instr, taken, next_pc, mem: mem_access };
        sink.retire(&ev);
        self.retired += 1;
        self.pc = next_pc;
        Ok(!self.halted)
    }

    /// Runs until `Halt` or until `limit` instructions retire.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from [`step`](Self::step);
    /// [`SimError::InstructionLimit`] if the limit is reached first.
    pub fn run(&mut self, limit: u64, sink: &mut impl TraceSink) -> Result<RunStats, SimError> {
        let mut stats = RunStats::default();
        let start = self.retired;
        while !self.halted {
            if self.retired - start >= limit {
                return Err(SimError::InstructionLimit { limit });
            }
            let mut wrapped = CountingSink { inner: sink, stats: &mut stats };
            self.step(&mut wrapped)?;
        }
        Ok(stats)
    }

    /// Runs to halt with a default 2-billion-instruction safety limit.
    ///
    /// # Errors
    ///
    /// See [`run`](Self::run).
    pub fn run_to_halt(&mut self) -> Result<RunStats, SimError> {
        self.run(2_000_000_000, &mut NullSink)
    }
}

struct CountingSink<'a, S> {
    inner: &'a mut S,
    stats: &'a mut RunStats,
}

impl<S: TraceSink> TraceSink for CountingSink<'_, S> {
    fn retire(&mut self, ev: &RetireEvent) {
        self.stats.retired += 1;
        if ev.taken.is_some() {
            self.stats.conditional_branches += 1;
            if ev.taken == Some(true) {
                self.stats.taken_branches += 1;
            }
        }
        match ev.instr {
            Instr::Load { .. } => self.stats.loads += 1,
            Instr::Store { .. } => self.stats.stores += 1,
            _ => {}
        }
        self.inner.retire(ev);
    }
}

/// Convenience: reads the registers named in `out` after running `program`
/// to halt over `mem`. Useful for golden-output tests.
///
/// # Errors
///
/// Propagates [`SimError`].
pub fn run_and_read(program: Program, mem: MemImage, out: &[Reg]) -> Result<Vec<i64>, SimError> {
    let mut m = Machine::new(program, mem);
    m.run_to_halt()?;
    Ok(out.iter().map(|r| m.regs.read(*r)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Assembler;

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn simple_loop_sums() {
        // sum = 0; for i in 0..10 { sum += i }
        let mut a = Assembler::new();
        let (i, n, sum) = (r(1), r(2), r(3));
        a.li(n, 10);
        a.label("loop");
        a.add(sum, sum, i);
        a.addi(i, i, 1);
        a.blt(i, n, "loop");
        a.halt();
        let vals = run_and_read(a.finish().unwrap(), MemImage::new(), &[sum]).unwrap();
        assert_eq!(vals, vec![45]);
    }

    #[test]
    fn load_store_roundtrip() {
        let mut a = Assembler::new();
        let (base, v, w) = (r(1), r(2), r(3));
        a.li(base, 0x1000);
        a.li(v, -7);
        a.sw(v, 4, base);
        a.lw(w, 4, base);
        a.halt();
        let vals = run_and_read(a.finish().unwrap(), MemImage::new(), &[w]).unwrap();
        assert_eq!(vals, vec![-7]);
    }

    #[test]
    fn bq_push_pop_controls_flow() {
        // Push predicates [1, 0]; each Branch_on_BQ skips an addi when 0.
        let mut a = Assembler::new();
        let (p, acc) = (r(1), r(2));
        a.li(p, 1);
        a.push_bq(p);
        a.li(p, 0);
        a.push_bq(p);
        // Pop #1: predicate 1 -> fall through, acc += 1
        a.branch_on_bq("skip1");
        a.addi(acc, acc, 1);
        a.label("skip1");
        // Pop #2: predicate 0 -> skip, acc unchanged
        a.branch_on_bq("skip2");
        a.addi(acc, acc, 10);
        a.label("skip2");
        a.halt();
        let vals = run_and_read(a.finish().unwrap(), MemImage::new(), &[acc]).unwrap();
        assert_eq!(vals, vec![1]);
    }

    #[test]
    fn bq_underflow_is_reported_with_pc() {
        let mut a = Assembler::new();
        a.branch_on_bq("end");
        a.label("end").halt();
        let mut m = Machine::new(a.finish().unwrap(), MemImage::new());
        let err = m.run_to_halt().unwrap_err();
        assert_eq!(err, SimError::Queue { pc: 0, err: QueueError::Underflow });
    }

    #[test]
    fn tq_drives_inner_loop() {
        // Push trip counts [3, 0, 2]; inner loop body increments acc.
        let mut a = Assembler::new();
        let (t, i, n, acc) = (r(1), r(2), r(3), r(4));
        let counts = 0x2000u64;
        a.li(t, counts as i64);
        a.li(i, 0);
        a.li(n, 3);
        // First loop: push a[i] onto TQ
        a.label("push_loop");
        a.sll(r(5), i, 3i64);
        a.add(r(5), r(5), t);
        a.ld(r(6), 0, r(5));
        a.push_tq(r(6));
        a.addi(i, i, 1);
        a.blt(i, n, "push_loop");
        // Second loop: pop and run inner loop trip-count times
        a.li(i, 0);
        a.label("outer");
        a.pop_tq();
        a.j("test");
        a.label("body");
        a.addi(acc, acc, 1);
        a.label("test");
        a.branch_on_tcr("body");
        a.addi(i, i, 1);
        a.blt(i, n, "outer");
        a.halt();

        let mut mem = MemImage::new();
        for (k, c) in [3u64, 0, 2].iter().enumerate() {
            mem.write_u64(counts + 8 * k as u64, *c);
        }
        let vals = run_and_read(a.finish().unwrap(), mem, &[acc]).unwrap();
        assert_eq!(vals, vec![5]);
    }

    #[test]
    fn vq_communicates_values() {
        let mut a = Assembler::new();
        let (v, w) = (r(1), r(2));
        a.li(v, 42);
        a.push_vq(v);
        a.li(v, 43);
        a.push_vq(v);
        a.pop_vq(w);
        a.pop_vq(v);
        a.halt();
        let vals = run_and_read(a.finish().unwrap(), MemImage::new(), &[w, v]).unwrap();
        assert_eq!(vals, vec![42, 43]);
    }

    #[test]
    fn mark_forward_cleans_excess_pushes() {
        let mut a = Assembler::new();
        let p = r(1);
        a.li(p, 1);
        a.push_bq(p);
        a.push_bq(p);
        a.push_bq(p);
        a.mark_bq();
        // Second loop exits early after one pop.
        a.branch_on_bq("skip");
        a.label("skip");
        a.forward_bq();
        a.halt();
        let mut m = Machine::new(a.finish().unwrap(), MemImage::new());
        m.run_to_halt().unwrap();
        assert!(m.bq.is_empty());
    }

    #[test]
    fn save_restore_bq_roundtrip() {
        let mut a = Assembler::new();
        let (p, base) = (r(1), r(2));
        a.li(base, 0x4000);
        a.li(p, 1).push_bq(p);
        a.li(p, 0).push_bq(p);
        a.li(p, 1).push_bq(p);
        a.save_bq(0, base);
        // Drain, then restore.
        a.branch_on_bq("l1").label("l1");
        a.branch_on_bq("l2").label("l2");
        a.branch_on_bq("l3").label("l3");
        a.restore_bq(0, base);
        a.halt();
        let mut m = Machine::new(a.finish().unwrap(), MemImage::new());
        m.run_to_halt().unwrap();
        assert_eq!(m.bq.contents(), vec![true, false, true]);
    }

    #[test]
    fn save_restore_tq_preserves_tcr_and_overflow() {
        let mut a = Assembler::new();
        let (t, base) = (r(1), r(2));
        a.li(base, 0x8000);
        a.li(t, 100_000); // overflows 16-bit trip count
        a.push_tq(t);
        a.li(t, 5);
        a.push_tq(t);
        a.save_tq(0, base);
        a.pop_tq();
        a.pop_tq();
        a.restore_tq(0, base);
        a.halt();
        let mut m = Machine::new(a.finish().unwrap(), MemImage::new());
        m.run_to_halt().unwrap();
        assert_eq!(m.tq.len(), 2);
        assert!(m.tq.peek(0).unwrap().overflow);
        assert_eq!(m.tq.peek(1).unwrap().trip_count, 5);
    }

    #[test]
    fn pop_tq_brovf_takes_overflow_path() {
        let mut a = Assembler::new();
        let (t, flag) = (r(1), r(2));
        a.li(t, 1 << 20); // > 16-bit max
        a.push_tq(t);
        a.pop_tq_brovf("fallback");
        a.li(flag, 1); // not executed
        a.j("end");
        a.label("fallback");
        a.li(flag, 2);
        a.label("end");
        a.halt();
        let vals = run_and_read(a.finish().unwrap(), MemImage::new(), &[flag]).unwrap();
        assert_eq!(vals, vec![2]);
    }

    #[test]
    fn run_stats_count_classes() {
        let mut a = Assembler::new();
        let (i, n) = (r(1), r(2));
        a.li(n, 4);
        a.label("loop");
        a.sw(i, 0, i);
        a.ld(r(3), 0, i);
        a.addi(i, i, 1);
        a.blt(i, n, "loop");
        a.halt();
        let mut m = Machine::new(a.finish().unwrap(), MemImage::new());
        let stats = m.run_to_halt().unwrap();
        assert_eq!(stats.loads, 4);
        assert_eq!(stats.stores, 4);
        assert_eq!(stats.conditional_branches, 4);
        assert_eq!(stats.taken_branches, 3);
    }

    #[test]
    fn instruction_limit_guards_runaway() {
        let mut a = Assembler::new();
        a.label("spin");
        a.j("spin");
        let mut m = Machine::new(a.finish().unwrap(), MemImage::new());
        assert_eq!(m.run(100, &mut NullSink).unwrap_err(), SimError::InstructionLimit { limit: 100 });
    }

    #[test]
    fn halt_is_sticky() {
        let mut a = Assembler::new();
        a.halt();
        let mut m = Machine::new(a.finish().unwrap(), MemImage::new());
        m.run_to_halt().unwrap();
        assert!(m.halted());
        assert_eq!(m.step(&mut NullSink), Ok(false));
        assert_eq!(m.retired(), 1);
    }
}
