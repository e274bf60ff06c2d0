//! # cfd-analysis — static control-flow analysis and the CFD compiler pass
//!
//! The paper's §II classifies hard-to-predict branches by the size of their
//! control-dependent regions and the separability of their backward slices.
//! This crate implements that analysis *statically* over `cfd-isa` programs:
//!
//! * [`Cfg`] — basic blocks with a virtual exit,
//! * [`DomTree`] — dominators and post-dominators (Cooper–Harvey–Kennedy),
//! * [`ControlDeps`] — Ferrante-style control dependence,
//! * [`find_loops`] — natural loops,
//! * [`backward_slice`] — a branch's predicate computation within its loop,
//! * [`LoopValues`] / [`MemDep`] — per-register symbolic value ranges and
//!   address expressions, and the sound may-alias oracle built on them,
//! * [`speculation_safety`] — the `ProvenSafe` / `Unsafe` contract for
//!   loads hoisted past loop stores,
//! * [`classify_program`] — the paper's hammock / separable(total/partial) /
//!   inseparable / loop-branch taxonomy ([`BranchClass`]), plus the
//!   precision-tier upgrade to [`BranchClass::SpeculativelySeparable`],
//! * [`apply_cfd`] — an automatic CFD transform for canonical totally
//!   separable branches, with BQ-sized strip mining (the gcc-pass analog),
//! * [`apply_cfd_tq`] — the loop-branch counterpart: decouples canonical
//!   nested loops through the Trip-count Queue (§IV-C),
//! * [`apply_cfd_spec`] — the automatic selector: CFD, CFD-TQ, or
//!   speculative CFD per branch from its classification, every output
//!   re-linted against the speculation contract.
//!
//! # Example
//!
//! ```
//! use cfd_analysis::{classify_program, BranchClass};
//! use cfd_isa::{Assembler, Reg};
//!
//! let (i, n, p) = (Reg::new(1), Reg::new(2), Reg::new(3));
//! let mut a = Assembler::new();
//! a.li(n, 100);
//! a.label("top");
//! a.xor(p, i, 3i64);
//! a.and(p, p, 1i64);
//! a.beqz(p, "skip");
//! for k in 0..8 {
//!     a.addi(Reg::new(4 + k), Reg::new(4 + k), 1);
//! }
//! a.label("skip");
//! a.addi(i, i, 1);
//! a.blt(i, n, "top");
//! a.halt();
//! let program = a.finish()?;
//! let reports = classify_program(&program);
//! assert!(reports.iter().any(|r| r.class == BranchClass::SeparableTotal));
//! # Ok::<(), cfd_isa::AsmError>(())
//! ```

mod cfg;
mod classify;
mod control_dep;
mod diag;
mod dom;
mod loops;
mod mdep;
mod slice;
mod spec;
mod transform;
mod transform_tq;
mod verify;
mod vrange;

pub use cfg::{BasicBlock, Cfg};
pub use classify::{classify_program, BranchClass, BranchReport};
pub use control_dep::ControlDeps;
pub use diag::{Diagnostic, LintReport, QueueBounds, Rule, Severity};
pub use dom::DomTree;
pub use loops::{find_loops, is_nested, NaturalLoop};
pub use mdep::{AliasVerdict, MemDep};
pub use slice::{backward_slice, backward_slice_with, AliasMode, Slice};
pub use spec::{speculation_safety, DisjointClaim, LoadReport, LoadSafety, SpecReport};
pub use transform::{apply_cfd, apply_cfd_spec, SpecDecision, SpecTransformReport, TransformError, TransformReport};
pub use transform_tq::apply_cfd_tq;
pub use verify::{lint_program, lint_speculation};
pub use vrange::{AddrRange, Expr, IndInfo, LoopValues, MemRef};
