//! Sound memory-dependence oracle over address-range summaries.
//!
//! Built on [`vrange`](crate::vrange): two memory references of a loop
//! are **proven disjoint** when their symbolic displacements are
//! identical and their width-extended numeric byte intervals — which
//! already fold every iteration of the loop's induction variables —
//! do not intersect. Everything else is `MayAlias` (both bounded,
//! intervals touch) or `Unknown` (at least one side unresolvable),
//! and `Unknown` is what lets the register-name heuristic in
//! [`backward_slice`](crate::backward_slice) remain as a fallback.

use crate::cfg::Cfg;
use crate::loops::NaturalLoop;
use crate::vrange::{AddrRange, LoopValues, MemRef};
use cfd_isa::Program;

/// Outcome of an alias query between two memory references.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasVerdict {
    /// The byte footprints cannot overlap on any pair of iterations.
    ProvenDisjoint,
    /// Both footprints are bounded and they intersect.
    MayAlias,
    /// At least one address could not be bounded; no claim either way.
    Unknown,
}

/// May-alias oracle for the loads and stores of one loop.
#[derive(Debug, Clone)]
pub struct MemDep {
    values: LoopValues,
}

impl MemDep {
    /// Analyzes `lp` of `program`.
    pub fn analyze(program: &Program, cfg: &Cfg, lp: &NaturalLoop) -> MemDep {
        MemDep { values: LoopValues::analyze(program, cfg, lp) }
    }

    /// The underlying value-range results.
    pub fn values(&self) -> &LoopValues {
        &self.values
    }

    /// Alias verdict for the memory instructions at `a_pc` and `b_pc`.
    pub fn verdict(&self, a_pc: u32, b_pc: u32) -> AliasVerdict {
        let (Some(a), Some(b)) = (self.values.mem_ref(a_pc), self.values.mem_ref(b_pc)) else {
            return AliasVerdict::Unknown;
        };
        Self::compare(a, b)
    }

    fn compare(a: &MemRef, b: &MemRef) -> AliasVerdict {
        let (AddrRange::Known { syms: sa, lo: la, hi: ha }, AddrRange::Known { syms: sb, lo: lb, hi: hb }) =
            (&a.addr, &b.addr)
        else {
            return AliasVerdict::Unknown;
        };
        if sa != sb {
            // Distinct symbolic bases: their relative placement is
            // statically unconstrained.
            return AliasVerdict::Unknown;
        }
        // Last-byte extension; overflow degrades to Unknown.
        let (Some(ea), Some(eb)) = (ha.checked_add(a.width as i64 - 1), hb.checked_add(b.width as i64 - 1)) else {
            return AliasVerdict::Unknown;
        };
        if ea < *lb || eb < *la {
            AliasVerdict::ProvenDisjoint
        } else {
            AliasVerdict::MayAlias
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::DomTree;
    use crate::loops::find_loops;
    use cfd_isa::{Assembler, Reg};

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    /// A scan with one load and two stores: one provably above the
    /// scanned range, one interleaved with it.
    fn kernel() -> (Program, u32, u32, u32) {
        let (i, n, base, x, tmp) = (r(1), r(2), r(3), r(4), r(5));
        let mut a = Assembler::new();
        a.li(n, 100);
        a.li(base, 0x1000);
        a.li(i, 0);
        a.label("top");
        a.sll(tmp, i, 3i64);
        a.add(tmp, tmp, base);
        let load_pc = a.here();
        a.ld(x, 0, tmp); // [0x1000, 0x1318+7]
        let disjoint_pc = a.here();
        a.sd(x, 8 * 100, tmp); // [0x1320, 0x1638+7]: one array above
        let overlap_pc = a.here();
        a.sd(x, 8, tmp); // [0x1008, 0x1320+7]: interleaves with the load
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        (a.finish().unwrap(), load_pc, disjoint_pc, overlap_pc)
    }

    fn oracle(program: &Program) -> MemDep {
        let cfg = Cfg::build(program);
        let dom = DomTree::dominators(&cfg);
        let lp = find_loops(&cfg, &dom).into_iter().next().unwrap();
        MemDep::analyze(program, &cfg, &lp)
    }

    #[test]
    fn whole_loop_intervals_decide_disjointness() {
        let (program, load_pc, disjoint_pc, overlap_pc) = kernel();
        let m = oracle(&program);
        assert_eq!(m.verdict(load_pc, disjoint_pc), AliasVerdict::ProvenDisjoint);
        // Same-iteration delta of +8 is NOT cross-iteration disjointness:
        // iteration k's store hits iteration k+1's load address.
        assert_eq!(m.verdict(load_pc, overlap_pc), AliasVerdict::MayAlias);
    }

    #[test]
    fn width_extension_catches_edge_overlap() {
        // Store exactly at the last byte boundary: [hi, hi+7] of the load
        // footprint vs a store starting at hi+1 bytes is disjoint, at
        // hi+7 it is not. Scalar (non-induction) addresses make the
        // arithmetic exact.
        let (n, base, x) = (r(2), r(3), r(4));
        let mut a = Assembler::new();
        a.li(n, 10);
        a.li(base, 0x1000);
        a.li(r(1), 0);
        a.label("top");
        let load_pc = a.here();
        a.ld(x, 0, base); // bytes [0x1000, 0x1007]
        let touching_pc = a.here();
        a.sd(x, 7, base); // bytes [0x1007, 0x100e]: overlaps the last byte
        let clear_pc = a.here();
        a.sd(x, 8, base); // bytes [0x1008, 0x100f]: disjoint
        a.addi(r(1), r(1), 1);
        a.blt(r(1), n, "top");
        a.halt();
        let program = a.finish().unwrap();
        let m = oracle(&program);
        assert_eq!(m.verdict(load_pc, touching_pc), AliasVerdict::MayAlias);
        assert_eq!(m.verdict(load_pc, clear_pc), AliasVerdict::ProvenDisjoint);
    }

    #[test]
    fn distinct_symbolic_bases_are_unknown() {
        // Two unresolvable invariant bases: no claim possible.
        let (i, n, b1, b2, x) = (r(1), r(2), r(3), r(4), r(5));
        let mut a = Assembler::new();
        a.li(n, 10);
        a.li(i, 0);
        a.add(b1, b1, r(6));
        a.add(b2, b2, r(7));
        a.label("top");
        let load_pc = a.here();
        a.ld(x, 0, b1);
        let store_pc = a.here();
        a.sd(x, 0x1000, b2);
        a.addi(i, i, 1);
        a.blt(i, n, "top");
        a.halt();
        let program = a.finish().unwrap();
        let m = oracle(&program);
        assert_eq!(m.verdict(load_pc, store_pc), AliasVerdict::Unknown);
    }

    #[test]
    fn non_memory_pcs_are_unknown() {
        let (program, load_pc, ..) = kernel();
        let m = oracle(&program);
        assert_eq!(m.verdict(load_pc, 0), AliasVerdict::Unknown);
    }
}
