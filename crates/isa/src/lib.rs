//! # cfd-isa — the machine's instruction set, with the CFD extension
//!
//! This crate defines the ISA shared by every layer of the Control-Flow
//! Decoupling (CFD) reproduction:
//!
//! * a small load/store RISC base ISA ([`Instr`], [`Reg`], [`AluOp`] …),
//! * the **CFD extension** of Sheikh, Tuck & Rotenberg (MICRO 2012):
//!   the architectural Branch Queue ([`ArchBq`]), Value Queue ([`ArchVq`]),
//!   Trip-count Queue ([`ArchTq`]) and the instructions that manage them
//!   (`Push_BQ`, `Branch_on_BQ`, `Mark`/`Forward`, `Push_VQ`/`Pop_VQ`,
//!   `Push_TQ`/`Pop_TQ`/`Branch_on_TCR`, save/restore),
//! * a label-resolving [`Assembler`] producing [`Program`]s,
//! * a sparse data-memory image ([`MemImage`]),
//! * a functional reference simulator ([`Machine`]) with a retirement-trace
//!   hook ([`TraceSink`]) used by the profiler and by verification oracles,
//! * the content hashes: the [`Fnv1a`] checksum and the streamed 128-bit
//!   [`Hasher`] behind result-cache [`Fingerprint`]s.
//!
//! # Example
//!
//! The canonical CFD transformation (paper Fig. 3): a first loop pushes
//! predicates, a second loop consumes them with `Branch_on_BQ`.
//!
//! ```
//! use cfd_isa::{Assembler, MemImage, Machine, Reg};
//!
//! let (i, n, p, acc, base, tmp) =
//!     (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4), Reg::new(5), Reg::new(6));
//! let mut a = Assembler::new();
//! a.li(base, 0x1000);
//! a.li(n, 4);
//! // Loop 1: compute predicates a[i] != 0 and push them.
//! a.li(i, 0);
//! a.label("gen");
//! a.sll(tmp, i, 3i64);
//! a.add(tmp, tmp, base);
//! a.ld(p, 0, tmp);
//! a.push_bq(p);
//! a.addi(i, i, 1);
//! a.blt(i, n, "gen");
//! // Loop 2: pop predicates; count the true ones.
//! a.li(i, 0);
//! a.label("use");
//! a.branch_on_bq("skip");
//! a.addi(acc, acc, 1);
//! a.label("skip");
//! a.addi(i, i, 1);
//! a.blt(i, n, "use");
//! a.halt();
//!
//! let mut mem = MemImage::new();
//! for (k, v) in [1u64, 0, 1, 1].iter().enumerate() {
//!     mem.write_u64(0x1000 + 8 * k as u64, *v);
//! }
//! let mut m = Machine::new(a.finish()?, mem);
//! m.run_to_halt()?;
//! assert_eq!(m.regs.read(acc), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod check;
mod fingerprint;
mod fnv;
mod instr;
mod mem_image;
mod parse;
mod program;
mod queues;
mod reg;
mod semantics;
mod sim;

pub use check::Rng;
pub use fingerprint::{Fingerprint, Hasher};
pub use fnv::Fnv1a;
pub use instr::{AluOp, BranchCond, Instr, MemWidth, QueueKind, QueueOp, QueueOpKind, Src2};
pub use mem_image::MemImage;
pub use parse::{parse_program, ParseError};
pub use program::{AsmError, Assembler, Program};
pub use queues::{ArchBq, ArchTq, ArchVq, QueueError, TqEntry};
pub use reg::{Reg, RegFile, NUM_REGS};
pub use semantics::{eval_alu, eval_branch};
pub use sim::{run_and_read, Machine, MemAccess, NullSink, QueueConfig, RetireEvent, RunStats, SimError, TraceSink};
