//! Per-register symbolic value-range and address-expression analysis.
//!
//! For one natural loop, every register is classified as a *constant*
//! (resolved through a unique dominating `li`), an *invariant symbol*
//! (an interned atom: fixed for the whole loop execution but statically
//! unknown, like the Min/Max trip-count symbols the queue verifier
//! interns), an *induction variable* (a single unconditional
//! `r = r + stride` per iteration, with a header-value range derived
//! from its `li` init and the `blt r, n, top` latch guard), or
//! *unknown*. A single abstract pass over the loop body in reverse
//! postorder then resolves the address of every load and store to an
//! affine expression
//!
//! ```text
//!     addr = k  +  Σ coeff·atom  +  Σ coeff·ind,     ind ∈ [lo, hi]
//! ```
//!
//! collapsed into an iteration-invariant symbolic displacement plus a
//! numeric first-byte interval covering **all** iterations of the loop.
//! The [`mdep`](crate::mdep) oracle compares two such summaries to prove
//! load/store disjointness; anything the pass cannot bound degrades to
//! [`AddrRange::Unknown`], which downstream consumers treat as
//! may-alias-anything (sound by construction).
//!
//! Soundness notes:
//! * Atoms stand for values fixed across the loop, so they may cancel
//!   between two references compared *cross-iteration*. Registers
//!   written inside the loop never become atoms; their unknown values
//!   poison expressions to `Unknown` instead.
//! * All arithmetic is checked; any overflow degrades to `Unknown`
//!   rather than wrapping (the machine wraps, the analysis gives up).
//! * Blocks reached through a retreating edge (inner loops, irreducible
//!   regions) restart from a poisoned state in which every register
//!   defined anywhere in the loop is `Unknown`.

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::loops::{find_loops, is_nested, NaturalLoop};
use cfd_isa::{AluOp, BranchCond, Instr, Program, Reg, Src2};
use std::collections::{BTreeMap, BTreeSet};

/// An affine value: `k + Σ coeff·atom + Σ coeff·induction`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Expr {
    /// Constant term.
    pub k: i64,
    /// Interned invariant atoms (id → coefficient, zero coeffs dropped).
    pub syms: BTreeMap<u32, i64>,
    /// Induction variables (register → coefficient, zero coeffs dropped).
    pub inds: BTreeMap<Reg, i64>,
}

impl Expr {
    fn constant(k: i64) -> Expr {
        Expr { k, ..Expr::default() }
    }

    fn is_const(&self) -> bool {
        self.syms.is_empty() && self.inds.is_empty()
    }

    fn add_signed(&self, other: &Expr, sign: i64) -> Option<Expr> {
        let mut out = self.clone();
        out.k = out.k.checked_add(other.k.checked_mul(sign)?)?;
        for (&a, &c) in &other.syms {
            let e = out.syms.entry(a).or_insert(0);
            *e = e.checked_add(c.checked_mul(sign)?)?;
        }
        for (&r, &c) in &other.inds {
            let e = out.inds.entry(r).or_insert(0);
            *e = e.checked_add(c.checked_mul(sign)?)?;
        }
        out.syms.retain(|_, c| *c != 0);
        out.inds.retain(|_, c| *c != 0);
        Some(out)
    }

    fn scale(&self, factor: i64) -> Option<Expr> {
        let mut out = Expr::constant(self.k.checked_mul(factor)?);
        for (&a, &c) in &self.syms {
            out.syms.insert(a, c.checked_mul(factor)?);
        }
        for (&r, &c) in &self.inds {
            out.inds.insert(r, c.checked_mul(factor)?);
        }
        out.syms.retain(|_, c| *c != 0);
        out.inds.retain(|_, c| *c != 0);
        Some(out)
    }
}

/// Abstract value of a register at a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Val {
    Expr(Expr),
    Unknown,
}

/// An induction variable's per-iteration behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndInfo {
    /// Per-iteration stride (always positive; other shapes are not
    /// recognized as inductions).
    pub stride: i64,
    /// Header value on the first iteration, when resolvable.
    pub init: Option<i64>,
    /// Inclusive header-value range over all iterations, when both the
    /// init and every latch bound are resolvable constants.
    pub range: Option<(i64, i64)>,
}

/// Address summary of one load or store, over all loop iterations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddrRange {
    /// First-byte interval `[lo, hi]` (inclusive) displaced by an
    /// iteration-invariant symbolic part. Two summaries are only
    /// comparable when their symbolic parts are identical.
    Known {
        /// Invariant atoms (id → coefficient).
        syms: BTreeMap<u32, i64>,
        /// Smallest first byte over all iterations.
        lo: i64,
        /// Largest first byte over all iterations.
        hi: i64,
    },
    /// The pass could not bound the address.
    Unknown,
}

/// One load or store of the analyzed loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemRef {
    /// The instruction's PC.
    pub pc: u32,
    /// Whether it writes memory.
    pub is_store: bool,
    /// Access width in bytes.
    pub width: u8,
    /// Address summary over all iterations.
    pub addr: AddrRange,
}

/// Result of the analysis over one loop.
#[derive(Debug, Clone)]
pub struct LoopValues {
    atoms: Vec<Reg>,
    inds: BTreeMap<Reg, IndInfo>,
    mem: BTreeMap<u32, MemRef>,
}

impl LoopValues {
    /// Analyzes `lp` of `program`.
    pub fn analyze(program: &Program, cfg: &Cfg, lp: &NaturalLoop) -> LoopValues {
        Analyzer::new(program, cfg, lp).run()
    }

    /// The address summary of the load/store at `pc`, if `pc` is a
    /// memory instruction of the analyzed loop.
    pub fn mem_ref(&self, pc: u32) -> Option<&MemRef> {
        self.mem.get(&pc)
    }

    /// The invariant register an interned atom id stands for.
    pub fn atom_reg(&self, id: u32) -> Reg {
        self.atoms[id as usize]
    }

    /// Induction info for `reg`, when it was recognized as an induction
    /// variable of the loop.
    pub fn induction(&self, reg: Reg) -> Option<&IndInfo> {
        self.inds.get(&reg)
    }
}

struct Analyzer<'a> {
    program: &'a Program,
    cfg: &'a Cfg,
    lp: &'a NaturalLoop,
    /// Registers with at least one definition inside the loop.
    loop_defined: BTreeSet<Reg>,
    /// Defs per register over the whole program.
    defs: BTreeMap<Reg, Vec<u32>>,
    atoms: Vec<Reg>,
    atom_ids: BTreeMap<Reg, u32>,
    inds: BTreeMap<Reg, IndInfo>,
    mem: BTreeMap<u32, MemRef>,
}

impl<'a> Analyzer<'a> {
    fn new(program: &'a Program, cfg: &'a Cfg, lp: &'a NaturalLoop) -> Analyzer<'a> {
        let mut defs: BTreeMap<Reg, Vec<u32>> = BTreeMap::new();
        for (pc, instr) in program.instrs().iter().enumerate() {
            if let Some(d) = instr.dest() {
                defs.entry(d).or_default().push(pc as u32);
            }
        }
        let loop_pcs: BTreeSet<u32> =
            lp.blocks.iter().filter(|&&b| b < cfg.len() - 1).flat_map(|&b| cfg.blocks[b].pcs()).collect();
        let loop_defined =
            defs.iter().filter(|(_, pcs)| pcs.iter().any(|p| loop_pcs.contains(p))).map(|(&r, _)| r).collect();
        Analyzer {
            program,
            cfg,
            lp,
            loop_defined,
            defs,
            atoms: Vec::new(),
            atom_ids: BTreeMap::new(),
            inds: BTreeMap::new(),
            mem: BTreeMap::new(),
        }
    }

    fn in_loop(&self, pc: u32) -> bool {
        let b = self.cfg.block_of(pc);
        self.lp.contains(b)
    }

    /// The register's value at loop entry, when it resolves to a
    /// constant: a unique out-of-loop `li` whose block dominates the
    /// loop header (so it executed, with no competing definition).
    fn entry_const(&self, dom: &DomTree, reg: Reg) -> Option<i64> {
        if reg.is_zero() {
            return Some(0);
        }
        let out: Vec<u32> = self.defs.get(&reg)?.iter().copied().filter(|&p| !self.in_loop(p)).collect();
        let [dpc] = out[..] else { return None };
        let Some(Instr::Li { imm, .. }) = self.program.fetch(dpc) else { return None };
        let db = self.cfg.block_of(dpc);
        dom.dominates(db, self.lp.header).then_some(imm)
    }

    fn intern(&mut self, reg: Reg) -> u32 {
        if let Some(&id) = self.atom_ids.get(&reg) {
            return id;
        }
        let id = self.atoms.len() as u32;
        self.atoms.push(reg);
        self.atom_ids.insert(reg, id);
        id
    }

    /// Detects induction variables: a single in-loop definition
    /// `add r, r, imm` (imm > 0) whose block executes every iteration
    /// (dominates every latch) and sits outside any inner cycle.
    fn find_inductions(&mut self, dom: &DomTree, inner: &BTreeSet<usize>) {
        let header_start = self.cfg.blocks[self.lp.header].start;
        let candidates: Vec<(Reg, u32)> = self
            .defs
            .iter()
            .filter_map(|(&reg, pcs)| {
                let in_lp: Vec<u32> = pcs.iter().copied().filter(|&p| self.in_loop(p)).collect();
                let [dpc] = in_lp[..] else { return None };
                Some((reg, dpc))
            })
            .collect();
        for (reg, dpc) in candidates {
            let Some(Instr::Alu { op: AluOp::Add, rd, rs1, src2: Src2::Imm(stride) }) = self.program.fetch(dpc) else {
                continue;
            };
            if rd != reg || rs1 != reg || stride <= 0 {
                continue;
            }
            let db = self.cfg.block_of(dpc);
            if inner.contains(&db) || !self.lp.latches.iter().all(|&l| dom.dominates(db, l)) {
                continue;
            }
            let init = self.entry_const(dom, reg);
            // Every latch must be a `blt reg, bound, header` whose bound
            // is an entry-resolvable constant; the guard caps the header
            // value of every continued iteration at bound - 1.
            let mut hi_bound: Option<i64> = Some(i64::MIN);
            for &l in &self.lp.latches {
                let lpc = self.cfg.blocks[l].end - 1;
                let guard = match self.program.fetch(lpc) {
                    Some(Instr::Branch { cond: BranchCond::Lt, rs1, rs2, target })
                        if target == header_start && rs1 == reg && !self.loop_defined.contains(&rs2) =>
                    {
                        self.entry_const(dom, rs2)
                    }
                    _ => None,
                };
                hi_bound = match (hi_bound, guard) {
                    (Some(h), Some(b)) => Some(h.max(b)),
                    _ => None,
                };
            }
            let range = match (init, hi_bound) {
                // Bottom-tested loop: the first iteration always sees
                // `init`; every later header value passed a `< bound`
                // guard after the increment.
                (Some(s0), Some(b)) => Some((s0, s0.max(b - 1))),
                _ => None,
            };
            self.inds.insert(reg, IndInfo { stride, init, range });
        }
    }

    fn seed(&mut self, dom: &DomTree, reg: Reg) -> Val {
        if reg.is_zero() {
            return Val::Expr(Expr::constant(0));
        }
        if self.inds.contains_key(&reg) {
            let mut e = Expr::default();
            e.inds.insert(reg, 1);
            return Val::Expr(e);
        }
        if self.loop_defined.contains(&reg) {
            return Val::Unknown;
        }
        if let Some(k) = self.entry_const(dom, reg) {
            return Val::Expr(Expr::constant(k));
        }
        let id = self.intern(reg);
        let mut e = Expr::default();
        e.syms.insert(id, 1);
        Val::Expr(e)
    }

    /// Collapses an expression into an address summary: induction terms
    /// fold their whole-loop ranges into the numeric interval; invariant
    /// atoms stay symbolic.
    fn summarize(&self, e: &Expr) -> AddrRange {
        let (mut lo, mut hi) = (e.k, e.k);
        for (reg, &coeff) in &e.inds {
            let Some(IndInfo { range: Some((rlo, rhi)), .. }) = self.inds.get(reg).copied() else {
                return AddrRange::Unknown;
            };
            let (Some(a), Some(b)) = (coeff.checked_mul(rlo), coeff.checked_mul(rhi)) else {
                return AddrRange::Unknown;
            };
            let (Some(nlo), Some(nhi)) = (lo.checked_add(a.min(b)), hi.checked_add(a.max(b))) else {
                return AddrRange::Unknown;
            };
            (lo, hi) = (nlo, nhi);
        }
        AddrRange::Known { syms: e.syms.clone(), lo, hi }
    }

    fn run(mut self) -> LoopValues {
        let dom = DomTree::dominators(self.cfg);
        let all_loops = find_loops(self.cfg, &dom);
        let inner: BTreeSet<usize> =
            all_loops.iter().filter(|o| is_nested(o, self.lp)).flat_map(|o| o.blocks.iter().copied()).collect();
        self.find_inductions(&dom, &inner);

        type State = BTreeMap<Reg, Val>;
        let poisoned: State = self.loop_defined.iter().map(|&r| (r, Val::Unknown)).collect();
        // Registers an inner cycle can rewrite: a back edge of a *nested*
        // natural loop only perturbs these, so blocks reached through it
        // keep every other register's value (the nested header dominates
        // its cycle, so non-rewritten values flow in unchanged).
        let inner_defined: BTreeSet<Reg> = inner
            .iter()
            .filter(|&&b| b < self.cfg.len() - 1)
            .flat_map(|&b| self.cfg.blocks[b].pcs())
            .filter_map(|pc| self.program.fetch(pc).and_then(|i| i.dest()))
            .collect();
        let mut out_states: BTreeMap<usize, State> = BTreeMap::new();

        let order: Vec<usize> = self
            .cfg
            .reverse_postorder()
            .into_iter()
            .filter(|b| self.lp.contains(*b) && *b < self.cfg.len() - 1)
            .collect();
        let mut done: BTreeSet<usize> = BTreeSet::new();
        for &b in &order {
            let mut state: State = if b == self.lp.header {
                // The seeds summarize the loop-carried merge, so the
                // back edges into the header are intentionally ignored.
                State::new()
            } else {
                let preds: Vec<usize> =
                    self.cfg.blocks[b].preds.iter().copied().filter(|p| self.lp.contains(*p)).collect();
                let pending: Vec<usize> = preds.iter().copied().filter(|p| !done.contains(p)).collect();
                if preds.is_empty() || pending.iter().any(|p| !inner.contains(p)) {
                    // Irreducible retreating edge: give up on the block.
                    poisoned.clone()
                } else if !pending.is_empty() {
                    // Nested-loop back edge: merge the processed entry
                    // edges, then drop whatever the nested cycle rewrites.
                    let processed: Vec<usize> = preds.iter().copied().filter(|p| done.contains(p)).collect();
                    let mut merged = processed.first().and_then(|p| out_states.get(p).cloned()).unwrap_or_default();
                    for p in processed.iter().skip(1) {
                        let other = &out_states[p];
                        let keys: BTreeSet<Reg> = merged.keys().chain(other.keys()).copied().collect();
                        for r in keys {
                            let a = merged.get(&r).cloned().unwrap_or_else(|| self.seed(&dom, r));
                            let bside = other.get(&r).cloned().unwrap_or_else(|| self.seed(&dom, r));
                            merged.insert(r, if a == bside { a } else { Val::Unknown });
                        }
                    }
                    for &r in &inner_defined {
                        merged.insert(r, Val::Unknown);
                    }
                    merged
                } else {
                    let mut merged = out_states.get(&preds[0]).cloned().unwrap_or_default();
                    for p in &preds[1..] {
                        let other = &out_states[p];
                        let keys: BTreeSet<Reg> = merged.keys().chain(other.keys()).copied().collect();
                        for r in keys {
                            // Absent keys fall back to the same seed on
                            // both sides, so only present keys can differ.
                            let a = merged.get(&r).cloned().unwrap_or_else(|| self.seed(&dom, r));
                            let bside = other.get(&r).cloned().unwrap_or_else(|| self.seed(&dom, r));
                            merged.insert(r, if a == bside { a } else { Val::Unknown });
                        }
                    }
                    merged
                }
            };
            for pc in self.cfg.blocks[b].pcs() {
                let instr = self.program.fetch(pc).expect("in range");
                let get = |state: &State, r: Reg, this: &mut Self| -> Val {
                    state.get(&r).cloned().unwrap_or_else(|| this.seed(&dom, r))
                };
                match instr {
                    Instr::Load { base, offset, width, .. } | Instr::Store { base, offset, width, .. } => {
                        let addr = match get(&state, base, &mut self) {
                            Val::Expr(e) => match e.add_signed(&Expr::constant(offset), 1) {
                                Some(a) => self.summarize(&a),
                                None => AddrRange::Unknown,
                            },
                            Val::Unknown => AddrRange::Unknown,
                        };
                        let is_store = matches!(instr, Instr::Store { .. });
                        self.mem.insert(pc, MemRef { pc, is_store, width: width.bytes() as u8, addr });
                    }
                    _ => {}
                }
                if let Some(rd) = instr.dest() {
                    let v = match instr {
                        Instr::Li { imm, .. } => Val::Expr(Expr::constant(imm)),
                        Instr::Alu { op, rs1, src2, .. } => {
                            let a = get(&state, rs1, &mut self);
                            let b = match src2 {
                                Src2::Imm(v) => Val::Expr(Expr::constant(v)),
                                Src2::Reg(r) => get(&state, r, &mut self),
                            };
                            match (op, a, b) {
                                (AluOp::Add, Val::Expr(x), Val::Expr(y)) => {
                                    x.add_signed(&y, 1).map_or(Val::Unknown, Val::Expr)
                                }
                                (AluOp::Sub, Val::Expr(x), Val::Expr(y)) => {
                                    x.add_signed(&y, -1).map_or(Val::Unknown, Val::Expr)
                                }
                                (AluOp::Mul, Val::Expr(x), Val::Expr(y)) if y.is_const() => {
                                    x.scale(y.k).map_or(Val::Unknown, Val::Expr)
                                }
                                (AluOp::Mul, Val::Expr(x), Val::Expr(y)) if x.is_const() => {
                                    y.scale(x.k).map_or(Val::Unknown, Val::Expr)
                                }
                                (AluOp::Sll, Val::Expr(x), Val::Expr(y)) if y.is_const() && (0..=32).contains(&y.k) => {
                                    x.scale(1i64 << y.k).map_or(Val::Unknown, Val::Expr)
                                }
                                _ => Val::Unknown,
                            }
                        }
                        _ => Val::Unknown,
                    };
                    state.insert(rd, v);
                }
            }
            out_states.insert(b, state);
            done.insert(b);
        }
        LoopValues { atoms: self.atoms, inds: self.inds, mem: self.mem }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfd_isa::Assembler;

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    fn analyze(program: &Program) -> (Cfg, Vec<NaturalLoop>) {
        let cfg = Cfg::build(program);
        let dom = DomTree::dominators(&cfg);
        let loops = find_loops(&cfg, &dom);
        (cfg, loops)
    }

    /// Canonical scan: load data[i] for i in 0..100, store above it.
    fn scan() -> (Program, u32, u32) {
        let (i, n, base, x, tmp) = (r(1), r(2), r(3), r(4), r(5));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.li(base, 0x1000);
        a.li(i, 0);
        a.label("top");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        let load_pc = a.here();
        a.ld(x, 0, tmp);
        let store_pc = a.here();
        a.sd(x, 0x800, tmp);
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        (a.finish().unwrap(), load_pc, store_pc)
    }

    #[test]
    fn induction_range_from_init_and_latch_guard() {
        let (program, _, _) = scan();
        let (cfg, loops) = analyze(&program);
        let v = LoopValues::analyze(&program, &cfg, &loops[0]);
        let ind = v.induction(r(1)).expect("i is an induction variable");
        assert_eq!(ind.stride, 1);
        assert_eq!(ind.range, Some((0, 99)));
    }

    #[test]
    fn strided_addresses_resolve_to_intervals() {
        let (program, load_pc, store_pc) = scan();
        let (cfg, loops) = analyze(&program);
        let v = LoopValues::analyze(&program, &cfg, &loops[0]);
        let ld = v.mem_ref(load_pc).unwrap();
        assert_eq!(ld.addr, AddrRange::Known { syms: BTreeMap::new(), lo: 0x1000, hi: 0x1000 + 8 * 99 });
        let sd = v.mem_ref(store_pc).unwrap();
        assert!(sd.is_store);
        assert_eq!(sd.addr, AddrRange::Known { syms: BTreeMap::new(), lo: 0x1800, hi: 0x1800 + 8 * 99 });
    }

    #[test]
    fn unresolved_base_stays_symbolic_and_comparable() {
        // base comes from outside (not a li): both refs share its atom.
        let (i, n, base, x, tmp) = (r(1), r(2), r(3), r(4), r(5));
        let mut a = Assembler::new();
        a.li(n, 10);
        a.li(i, 0);
        a.add(base, base, r(6)); // unresolvable, but loop-invariant
        a.label("top");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        let load_pc = a.here();
        a.ld(x, 0, tmp);
        let store_pc = a.here();
        a.sd(x, 100, tmp);
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let program = a.finish().unwrap();
        let (cfg, loops) = analyze(&program);
        let v = LoopValues::analyze(&program, &cfg, &loops[0]);
        let (la, sa) = (&v.mem_ref(load_pc).unwrap().addr, &v.mem_ref(store_pc).unwrap().addr);
        let AddrRange::Known { syms: ls, lo: 0, hi: 72 } = la else { panic!("load addr {la:?}") };
        let AddrRange::Known { syms: ss, lo: 100, hi: 172 } = sa else { panic!("store addr {sa:?}") };
        assert_eq!(ls, ss, "both share the invariant base atom");
        assert_eq!(v.atom_reg(*ls.keys().next().unwrap()), base);
    }

    #[test]
    fn loaded_base_is_unknown() {
        // Indirect access: the base is loaded inside the loop.
        let (i, n, base, ptr, x) = (r(1), r(2), r(3), r(4), r(5));
        let mut a = Assembler::new();
        a.li(n, 10);
        a.li(i, 0);
        a.li(base, 0x1000);
        a.label("top");
        a.ld(ptr, 0, base);
        let load_pc = a.here();
        a.ld(x, 0, ptr);
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let program = a.finish().unwrap();
        let (cfg, loops) = analyze(&program);
        let v = LoopValues::analyze(&program, &cfg, &loops[0]);
        assert_eq!(v.mem_ref(load_pc).unwrap().addr, AddrRange::Unknown);
    }

    #[test]
    fn conditionally_updated_register_is_not_an_induction() {
        // cnt += 1 under a guard: its range must not be trusted.
        let (i, n, cnt, p, base) = (r(1), r(2), r(3), r(4), r(5));
        let mut a = Assembler::new();
        a.li(n, 10);
        a.li(i, 0);
        a.li(base, 0x1000);
        a.label("top");
        a.and(p, i, 1i64);
        a.beqz(p, "skip");
        a.addi(cnt, cnt, 1);
        a.label("skip");
        let store_pc = a.here();
        a.sd(i, 0, cnt);
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let program = a.finish().unwrap();
        let (cfg, loops) = analyze(&program);
        let v = LoopValues::analyze(&program, &cfg, &loops[0]);
        assert!(v.induction(cnt).is_none());
        assert_eq!(v.mem_ref(store_pc).unwrap().addr, AddrRange::Unknown);
    }

    #[test]
    fn inner_loop_poisons_its_blocks() {
        // tmp is advanced by an inner loop; an address through it after
        // the inner loop must be Unknown, while data[i] stays known.
        let (i, n, j, m, tmp, base, x) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7));
        let mut a = Assembler::new();
        a.li(n, 10);
        a.li(m, 4);
        a.li(i, 0);
        a.li(base, 0x1000);
        a.label("top");
        a.li(j, 0);
        a.mv(tmp, base);
        a.label("inner");
        a.addi(tmp, tmp, 8);
        a.addi(j, j, 1);
        a.blt(j, m, "inner");
        let unknown_pc = a.here();
        a.sd(j, 0, tmp);
        a.sll(x, i, 3i64);
        a.add(x, x, base);
        let known_pc = a.here();
        a.ld(x, 0, x);
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let program = a.finish().unwrap();
        let (cfg, loops) = analyze(&program);
        let outer = loops.iter().find(|l| l.blocks.len() > 2).unwrap();
        let v = LoopValues::analyze(&program, &cfg, outer);
        assert_eq!(v.mem_ref(unknown_pc).unwrap().addr, AddrRange::Unknown);
        match &v.mem_ref(known_pc).unwrap().addr {
            AddrRange::Known { syms, lo, hi } => {
                assert!(syms.is_empty());
                assert_eq!((*lo, *hi), (0x1000, 0x1000 + 8 * 9));
            }
            other => panic!("data[i] should stay known, got {other:?}"),
        }
    }
}
