//! Static CFD queue-discipline verifier ("cfd-lint").
//!
//! [`lint_program`] runs an abstract interpretation over the [`Cfg`] and
//! proves, along every path:
//!
//! 1. **push/pop balance** — the program cannot reach its exit with
//!    entries still queued, and no pop can underflow
//!    ([`Rule::UnbalancedAtExit`], [`Rule::Underflow`]);
//! 2. **bounded occupancy** — a static per-queue occupancy bound exists
//!    and fits the configured queue sizes; a missing strip-mine chunk
//!    surfaces as [`Rule::UnboundedOccupancy`];
//! 3. **Mark/Forward well-formedness** — every `Forward_BQ` executes
//!    under an active `Mark_BQ` ([`Rule::ForwardWithoutMark`]);
//! 4. **TQ/TCR discipline** — `Branch_on_TCR` only executes after a
//!    `Pop_TQ` loaded the trip-count register, `Push_TQ` never sits
//!    inside the TCR-driven loop it feeds, and queue save/restore pairs
//!    match ([`Rule::BranchTcrWithoutTrip`], [`Rule::PushTqInTcrLoop`],
//!    [`Rule::RestoreWithoutSave`]).
//!
//! # Abstract domain
//!
//! The verifier is a *symbolic affine* interpreter: every register and
//! every queue counter is an expression `k + Σ cᵢ·vᵢ` over opaque
//! variables, closed under `min`/`max` — the strip-mining idiom
//! `min(i + CHUNK, n)` must stay exact for leading/trailing trip counts
//! to cancel. Loops are summarized in two passes (a shape pass with
//! havocked registers to find per-iteration deltas, then a checking
//! pass parameterized by an iteration index whose upper bound chains to
//! the loop's trip-count expression). A trailing loop whose bound
//! register holds the leading loop's exit index pops *structurally the
//! same* expression the leading loop pushed, so balance falls out of
//! algebra rather than interval widening.
//!
//! Data-dependent nested trip counts (`Push_TQ` of a loaded bound,
//! popped by a mirrored consumer nest) pair up via load memoization in
//! store-free programs; `cfd-lint: value<=N` annotations bound such
//! loads. Mirror pairing and annotation bounds are *trusted axioms*:
//! they are validated dynamically by the `cfd-harden` cross-check
//! property (a statically clean program must run fault-free with
//! observed occupancy within the static bound).

use crate::cfg::Cfg;
use crate::diag::{Diagnostic, LintReport, QueueBounds, Rule, Severity};
use crate::dom::DomTree;
use crate::loops::{find_loops, is_nested, NaturalLoop};
use cfd_isa::{AluOp, BranchCond, Instr, Program, QueueConfig, QueueKind, QueueOpKind, Src2};
use std::collections::{BTreeSet, HashMap};

/// Capacity of queue index `q` (`QBQ`, `QVQ` or `QTQ`) under `config`.
fn size_of(config: &QueueConfig, q: usize) -> usize {
    match q {
        QBQ => config.bq_size,
        QVQ => config.vq_size,
        _ => config.tq_size,
    }
}

// ---------------------------------------------------------------------------
// Symbolic expressions
// ---------------------------------------------------------------------------

type VarId = u32;

/// Reserved variable id used to canonicalize the current loop's
/// iteration index in load-memoization keys.
const SENTINEL: VarId = 0;

/// Node-count cap beyond which expressions are havocked to a fresh
/// bounded variable (min/max distribution is exponential in principle).
const EXPR_CAP: usize = 48;

/// Substitution depth for symbolic upper-bound chains.
const CHAIN_DEPTH: u32 = 4;

/// A linear combination `k + Σ cᵢ·vᵢ` (terms sorted by variable id,
/// coefficients nonzero).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug, Default)]
struct Lin {
    k: i64,
    terms: Vec<(VarId, i64)>,
}

impl Lin {
    fn konst(k: i64) -> Lin {
        Lin { k, terms: Vec::new() }
    }

    fn var(v: VarId) -> Lin {
        Lin { k: 0, terms: vec![(v, 1)] }
    }

    fn add(&self, o: &Lin) -> Lin {
        let mut terms = Vec::with_capacity(self.terms.len() + o.terms.len());
        let (mut i, mut j) = (0, 0);
        while i < self.terms.len() || j < o.terms.len() {
            match (self.terms.get(i), o.terms.get(j)) {
                (Some(&(va, ca)), Some(&(vb, cb))) if va == vb => {
                    let c = ca.saturating_add(cb);
                    if c != 0 {
                        terms.push((va, c));
                    }
                    i += 1;
                    j += 1;
                }
                (Some(&(va, ca)), Some(&(vb, _))) if va < vb => {
                    terms.push((va, ca));
                    i += 1;
                }
                (Some(_), Some(&(vb, cb))) => {
                    terms.push((vb, cb));
                    j += 1;
                }
                (Some(&t), None) => {
                    terms.push(t);
                    i += 1;
                }
                (None, Some(&t)) => {
                    terms.push(t);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        Lin { k: self.k.saturating_add(o.k), terms }
    }

    fn scale(&self, f: i64) -> Lin {
        if f == 0 {
            return Lin::konst(0);
        }
        Lin { k: self.k.saturating_mul(f), terms: self.terms.iter().map(|&(v, c)| (v, c.saturating_mul(f))).collect() }
    }
}

/// A symbolic expression: linear combinations closed under min/max.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Expr {
    Lin(Lin),
    Min(Box<Expr>, Box<Expr>),
    Max(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn konst(k: i64) -> Expr {
        Expr::Lin(Lin::konst(k))
    }

    fn var(v: VarId) -> Expr {
        Expr::Lin(Lin::var(v))
    }

    fn as_const(&self) -> Option<i64> {
        match self {
            Expr::Lin(l) if l.terms.is_empty() => Some(l.k),
            _ => None,
        }
    }

    fn as_single_var(&self) -> Option<(VarId, i64)> {
        match self {
            Expr::Lin(l) if l.k == 0 && l.terms.len() == 1 => Some(l.terms[0]),
            _ => None,
        }
    }

    fn size(&self) -> usize {
        match self {
            Expr::Lin(l) => 1 + l.terms.len(),
            Expr::Min(a, b) | Expr::Max(a, b) => 1 + a.size() + b.size(),
        }
    }

    fn add(&self, o: &Expr) -> Expr {
        match (self, o) {
            (Expr::Lin(a), Expr::Lin(b)) => Expr::Lin(a.add(b)),
            (Expr::Min(p, q), r) | (r, Expr::Min(p, q)) => Expr::Min(Box::new(p.add(r)), Box::new(q.add(r))),
            (Expr::Max(p, q), r) | (r, Expr::Max(p, q)) => Expr::Max(Box::new(p.add(r)), Box::new(q.add(r))),
        }
    }

    fn neg(&self) -> Expr {
        match self {
            Expr::Lin(l) => Expr::Lin(l.scale(-1)),
            Expr::Min(a, b) => Expr::Max(Box::new(a.neg()), Box::new(b.neg())),
            Expr::Max(a, b) => Expr::Min(Box::new(a.neg()), Box::new(b.neg())),
        }
    }

    fn sub(&self, o: &Expr) -> Expr {
        self.add(&o.neg())
    }

    fn scale(&self, f: i64) -> Expr {
        match self {
            _ if f == 0 => Expr::konst(0),
            Expr::Lin(l) => Expr::Lin(l.scale(f)),
            Expr::Min(a, b) if f > 0 => Expr::Min(Box::new(a.scale(f)), Box::new(b.scale(f))),
            Expr::Min(a, b) => Expr::Max(Box::new(a.scale(f)), Box::new(b.scale(f))),
            Expr::Max(a, b) if f > 0 => Expr::Max(Box::new(a.scale(f)), Box::new(b.scale(f))),
            Expr::Max(a, b) => Expr::Min(Box::new(a.scale(f)), Box::new(b.scale(f))),
        }
    }

    fn contains(&self, v: VarId) -> bool {
        match self {
            Expr::Lin(l) => l.terms.iter().any(|&(w, _)| w == v),
            Expr::Min(a, b) | Expr::Max(a, b) => a.contains(v) || b.contains(v),
        }
    }

    /// Replaces `v` with `r` everywhere.
    fn subst(&self, v: VarId, r: &Expr) -> Expr {
        match self {
            Expr::Lin(l) => {
                let Some(&(_, c)) = l.terms.iter().find(|&&(w, _)| w == v) else {
                    return self.clone();
                };
                let rest = Lin { k: l.k, terms: l.terms.iter().copied().filter(|&(w, _)| w != v).collect() };
                Expr::Lin(rest).add(&r.scale(c))
            }
            Expr::Min(a, b) => Expr::Min(Box::new(a.subst(v, r)), Box::new(b.subst(v, r))),
            Expr::Max(a, b) => Expr::Max(Box::new(a.subst(v, r)), Box::new(b.subst(v, r))),
        }
    }
}

/// What the verifier knows about an opaque variable.
#[derive(Clone, Default)]
struct VarInfo {
    lo: Option<i64>,
    hi: Option<i64>,
    /// Symbolic upper bound (e.g. an iteration index is `<= trips - 1`).
    ub: Option<Expr>,
    /// Memoized-load value class, for mirror pairing.
    class: Option<u32>,
}

/// A path fact: `lo <= expr <= hi` (either side optional).
#[derive(Clone, PartialEq, Eq, Debug)]
struct Fact {
    expr: Expr,
    lo: Option<i64>,
    hi: Option<i64>,
}

const MAX_FACTS: usize = 24;

// ---------------------------------------------------------------------------
// Abstract state
// ---------------------------------------------------------------------------

const QBQ: usize = 0;
const QVQ: usize = 1;
const QTQ: usize = 2;
const QKINDS: [QueueKind; 3] = [QueueKind::Bq, QueueKind::Vq, QueueKind::Tq];

fn qidx(q: QueueKind) -> usize {
    match q {
        QueueKind::Bq => QBQ,
        QueueKind::Vq => QVQ,
        QueueKind::Tq => QTQ,
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Tri {
    No,
    Maybe,
    Yes,
}

impl Tri {
    fn join(a: Tri, b: Tri) -> Tri {
        if a == b {
            a
        } else {
            Tri::Maybe
        }
    }
}

/// Value classes of the entries a queue may hold: the meet over every
/// push that could have fed it since the queue was last provably empty.
/// Pops never demote this — a queue drained of uniformly class-`k`
/// values is vacuously still `Uniform(k)` — so the classification does
/// not depend on occupancy and survives the havocked shape pass, where
/// emptiness is unprovable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Content {
    /// No push has fed the queue on this path.
    Empty,
    /// Every contributing push carried this value class.
    Uniform(u32),
    /// Pushes of differing or unclassified values.
    Mixed,
}

impl Content {
    /// Content after pushing a value of class `class`.
    fn push(self, class: Option<u32>) -> Content {
        match (self, class) {
            (Content::Empty, Some(k)) => Content::Uniform(k),
            (Content::Uniform(k), Some(j)) if k == j => self,
            _ => Content::Mixed,
        }
    }

    /// Join over two control-flow paths.
    fn join(a: Content, b: Content) -> Content {
        match (a, b) {
            (Content::Empty, x) | (x, Content::Empty) => x,
            (Content::Uniform(k), Content::Uniform(j)) if k == j => a,
            _ => Content::Mixed,
        }
    }

    /// The single value class of every queued entry, when known.
    fn class(self) -> Option<u32> {
        match self {
            Content::Uniform(k) => Some(k),
            _ => None,
        }
    }
}

/// Abstract state of one queue. Occupancy is `ahead + since`: `ahead`
/// counts entries at or before the active mark (all entries when
/// unmarked), `since` counts entries pushed after the mark.
#[derive(Clone, PartialEq, Eq)]
struct QState {
    ahead: Expr,
    since: Expr,
    marked: Tri,
    /// Occupancy (and content class) captured by a pending save.
    saved: Option<(Expr, Content)>,
    /// Value class of the queued entries (TQ mirror pairing).
    content: Content,
}

impl QState {
    fn empty() -> QState {
        QState { ahead: Expr::konst(0), since: Expr::konst(0), marked: Tri::No, saved: None, content: Content::Empty }
    }

    fn occupancy(&self) -> Expr {
        self.ahead.add(&self.since)
    }
}

#[derive(Clone)]
struct AbsState {
    regs: Vec<Expr>,
    q: [QState; 3],
    /// `Some(class)` when a `Pop_TQ` has loaded the trip-count register.
    tcr: Option<Option<u32>>,
    facts: Vec<Fact>,
}

impl AbsState {
    fn initial() -> AbsState {
        AbsState {
            regs: (0..cfd_isa::NUM_REGS).map(|_| Expr::konst(0)).collect(),
            q: [QState::empty(), QState::empty(), QState::empty()],
            tcr: None,
            facts: Vec::new(),
        }
    }

    fn subst_all(&mut self, v: VarId, r: &Expr) {
        for e in self.regs.iter_mut() {
            if e.contains(v) {
                *e = e.subst(v, r);
            }
        }
        for qs in self.q.iter_mut() {
            if qs.ahead.contains(v) {
                qs.ahead = qs.ahead.subst(v, r);
            }
            if qs.since.contains(v) {
                qs.since = qs.since.subst(v, r);
            }
            if let Some((s, _)) = &mut qs.saved {
                if s.contains(v) {
                    *s = s.subst(v, r);
                }
            }
        }
        for f in self.facts.iter_mut() {
            if f.expr.contains(v) {
                f.expr = f.expr.subst(v, r);
            }
        }
        self.facts.retain(|f| f.expr.as_const().is_none());
    }
}

// ---------------------------------------------------------------------------
// Loop plumbing
// ---------------------------------------------------------------------------

/// How one loop iteration changes a register (from the shape pass).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RegDelta {
    /// Value at the latch equals the entry value.
    Invariant,
    /// Constant per-iteration increment.
    Step(i64),
    Varying,
}

/// How one loop iteration changes a queue's occupancy.
#[derive(Clone, Debug)]
enum QShape {
    /// Exact constant deltas for (ahead, since).
    Const(i64, i64),
    /// Data-dependent delta with the given numeric per-iteration range.
    Fuzzy { per_lo: Option<i64>, per_hi: Option<i64> },
}

/// Loop style, from the header/latch tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Style {
    /// Bottom-tested do-while: body executes `max(1, bound - start)`.
    Bottom,
    /// Header-tested while: body executes `max(0, bound - start)`, the
    /// header test once more.
    Header,
    /// TCR-driven: trips is the popped trip count.
    Tcr,
    Unknown,
}

/// An unconsumed data-dependent producer segment on a queue, awaiting
/// its mirrored consumer.
struct ProdSeg {
    trips: Expr,
    class: u32,
    sigma: VarId,
}

/// Per-walk context.
struct WalkCtx {
    quiet: bool,
    /// Innermost checking-pass iteration variable (memo-key canon).
    iter_var: Option<VarId>,
    /// Nesting depth of enclosing TCR-driven loops.
    tcr_depth: u32,
    /// Loop-nest depth (recursion guard).
    depth: u32,
    /// Open producer segments per queue.
    segs: [Vec<ProdSeg>; 3],
}

impl WalkCtx {
    fn top() -> WalkCtx {
        WalkCtx { quiet: false, iter_var: None, tcr_depth: 0, depth: 0, segs: [Vec::new(), Vec::new(), Vec::new()] }
    }
}

type Edge = (usize, usize, AbsState);

// ---------------------------------------------------------------------------
// The verifier
// ---------------------------------------------------------------------------

struct Lint<'a> {
    program: &'a Program,
    cfg: &'a Cfg,
    rpo: Vec<usize>,
    loops: Vec<NaturalLoop>,
    parent: Vec<Option<usize>>,
    header_loop: HashMap<usize, usize>,
    config: &'a QueueConfig,
    vars: Vec<VarInfo>,
    diags: Vec<Diagnostic>,
    max_occ: [i64; 3],
    unbounded: [bool; 3],
    memoize: bool,
    classes: HashMap<String, u32>,
    class_bounds: Vec<(Option<i64>, Option<i64>)>,
    hints: HashMap<u32, i64>,
    /// Buffered underflow findings awaiting a mirror match (queue, diag).
    pending: Vec<(usize, Diagnostic)>,
    pending_depth: u32,
    /// Canonical min/max trees interned as variables, memoized by
    /// structure: a leading loop's trip count and its trailing twin's
    /// build the same tree, get the same variable, and cancel exactly
    /// in linear arithmetic.
    atoms: std::collections::BTreeMap<Expr, VarId>,
}

/// Statically verifies `program`'s CFD queue discipline against the queue
/// sizes in `config` (the trip-count width bounds TCR-driven trips). See
/// the module docs for the rule set and the trust assumptions. Never
/// panics: irreducible or otherwise unanalyzable control flow is reported
/// as a diagnostic.
pub fn lint_program(program: &Program, config: &QueueConfig) -> LintReport {
    let cfg = Cfg::build(program);
    if program.instrs().is_empty() {
        return LintReport { diagnostics: Vec::new(), bounds: QueueBounds { bq: Some(0), vq: Some(0), tq: Some(0) } };
    }

    let rpo = cfg.reverse_postorder();
    let dom = DomTree::dominators(&cfg);
    let mut pos = vec![usize::MAX; cfg.len()];
    for (i, &b) in rpo.iter().enumerate() {
        pos[b] = i;
    }

    // Reducibility gate: a retreating edge whose target does not
    // dominate its source has no natural loop; give up gracefully.
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if pos[b] == usize::MAX || b == cfg.exit() {
            continue;
        }
        for &s in &blk.succs {
            if pos[s] != usize::MAX && pos[s] <= pos[b] && !dom.dominates(s, b) {
                let d = Diagnostic::new(
                    Rule::IrreducibleCfg,
                    Severity::Error,
                    None,
                    Some(blk.end - 1),
                    format!(
                        "irreducible cycle through the edge to pc {}: the verifier cannot summarize it",
                        cfg.blocks[s].start
                    ),
                    program,
                );
                return LintReport { diagnostics: vec![d], bounds: QueueBounds::default() };
            }
        }
    }

    let mut loops = find_loops(&cfg, &dom);
    loops.retain(|l| pos[l.header] != usize::MAX);
    let mut parent: Vec<Option<usize>> = vec![None; loops.len()];
    for i in 0..loops.len() {
        parent[i] = loops
            .iter()
            .enumerate()
            .filter(|&(j, o)| j != i && is_nested(&loops[i], o))
            .min_by_key(|&(_, o)| o.blocks.len())
            .map(|(j, _)| j);
    }
    let header_loop: HashMap<usize, usize> = loops.iter().enumerate().map(|(i, l)| (l.header, i)).collect();

    let memoize = !program
        .instrs()
        .iter()
        .any(|i| matches!(i, Instr::Store { .. }) || matches!(i.queue_op(), Some(q) if q.op == QueueOpKind::Save));

    let mut hints = HashMap::new();
    for pc in 0..program.len() as u32 {
        if let Some(text) = program.annotation(pc) {
            if let Some(rest) = text.split("cfd-lint:").nth(1) {
                if let Some(v) = rest.split("value<=").nth(1) {
                    let num: String = v.trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
                    if let Ok(n) = num.parse::<i64>() {
                        hints.insert(pc, n);
                    }
                }
            }
        }
    }

    let mut lint = Lint {
        program,
        cfg: &cfg,
        rpo,
        loops,
        parent,
        header_loop,
        config,
        vars: vec![VarInfo::default()], // vars[0] = SENTINEL
        diags: Vec::new(),
        max_occ: [0; 3],
        unbounded: [false; 3],
        memoize,
        classes: HashMap::new(),
        class_bounds: Vec::new(),
        hints,
        pending: Vec::new(),
        pending_depth: 0,
        atoms: std::collections::BTreeMap::new(),
    };

    // Unreachable code.
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if pos[b] == usize::MAX && b != cfg.exit() {
            lint.emit(
                Rule::UnreachableCode,
                Severity::Info,
                None,
                Some(blk.start),
                format!("block at pc {}..{} can never execute", blk.start, blk.end),
            );
        }
    }

    lint.run();
    lint.finish()
}

impl<'a> Lint<'a> {
    fn run(&mut self) {
        let region: BTreeSet<usize> = self.rpo.iter().copied().filter(|&b| b != self.cfg.exit()).collect();
        if region.is_empty() {
            return;
        }
        let mut ctx = WalkCtx::top();
        let (exits, _latches) = self.walk_region(&region, self.cfg.entry(), AbsState::initial(), None, &mut ctx);
        for (from, to, st) in exits {
            if to == self.cfg.exit() {
                self.check_balance(from, &st);
            }
        }
        // Anything still pending at the top level is a real finding.
        let leftover: Vec<_> = self.pending.drain(..).collect();
        for (_, d) in leftover {
            self.push_diag(d);
        }
    }

    fn finish(mut self) -> LintReport {
        self.diags.sort_by_key(|d| (d.pc.unwrap_or(u32::MAX), d.rule, d.queue.map(qidx)));
        let b = |i: usize| -> Option<u64> {
            if self.unbounded[i] {
                None
            } else {
                Some(self.max_occ[i].max(0) as u64)
            }
        };
        LintReport { diagnostics: self.diags, bounds: QueueBounds { bq: b(QBQ), vq: b(QVQ), tq: b(QTQ) } }
    }

    // -- diagnostics --------------------------------------------------------

    fn emit(&mut self, rule: Rule, sev: Severity, queue: Option<QueueKind>, pc: Option<u32>, msg: String) {
        let d = Diagnostic::new(rule, sev, queue, pc, msg, self.program);
        self.push_diag(d);
    }

    fn push_diag(&mut self, d: Diagnostic) {
        let dup = |x: &Diagnostic| x.rule == d.rule && x.pc == d.pc && x.queue == d.queue;
        if self.diags.iter().any(dup) || self.pending.iter().any(|(_, x)| dup(x)) {
            return;
        }
        self.diags.push(d);
    }

    // -- variables and bounds ----------------------------------------------

    fn fresh(&mut self, lo: Option<i64>, hi: Option<i64>, class: Option<u32>, ub: Option<Expr>) -> VarId {
        self.vars.push(VarInfo { lo, hi, ub, class });
        (self.vars.len() - 1) as VarId
    }

    fn havoc(&mut self, e: &Expr, facts: &[Fact]) -> Expr {
        let lo = self.lo(e, facts);
        let hi = self.ub(e, facts);
        Expr::var(self.fresh(lo, hi, None, None))
    }

    fn ub(&self, e: &Expr, facts: &[Fact]) -> Option<i64> {
        self.ub_d(e, facts, CHAIN_DEPTH)
    }

    fn lo(&self, e: &Expr, facts: &[Fact]) -> Option<i64> {
        self.lo_d(e, facts, CHAIN_DEPTH)
    }

    fn fact_bounds(&self, e: &Expr, facts: &[Fact]) -> (Option<i64>, Option<i64>) {
        let mut lo: Option<i64> = None;
        let mut hi: Option<i64> = None;
        for f in facts {
            if let Some(d) = e.sub(&f.expr).as_const() {
                if let Some(h) = f.hi {
                    let c = h.saturating_add(d);
                    hi = Some(hi.map_or(c, |x: i64| x.min(c)));
                }
                if let Some(l) = f.lo {
                    let c = l.saturating_add(d);
                    lo = Some(lo.map_or(c, |x: i64| x.max(c)));
                }
            } else if let Some(d) = e.add(&f.expr).as_const() {
                // e == d - f.expr
                if let Some(l) = f.lo {
                    let c = d.saturating_sub(l);
                    hi = Some(hi.map_or(c, |x: i64| x.min(c)));
                }
                if let Some(h) = f.hi {
                    let c = d.saturating_sub(h);
                    lo = Some(lo.map_or(c, |x: i64| x.max(c)));
                }
            }
        }
        (lo, hi)
    }

    fn ub_d(&self, e: &Expr, facts: &[Fact], depth: u32) -> Option<i64> {
        let mut best = self.fact_bounds(e, facts).1;
        let mut cand = |c: Option<i64>| {
            if let Some(c) = c {
                best = Some(best.map_or(c, |b: i64| b.min(c)));
            }
        };
        match e {
            Expr::Lin(l) => {
                let mut direct: Option<i128> = Some(l.k as i128);
                for &(v, c) in &l.terms {
                    let b = if c > 0 { self.vars[v as usize].hi } else { self.vars[v as usize].lo };
                    direct = match (direct, b) {
                        (Some(d), Some(b)) => Some(d + c as i128 * b as i128),
                        _ => None,
                    };
                }
                cand(direct.and_then(|d| i64::try_from(d).ok()));
                if depth > 0 {
                    for &(v, c) in &l.terms {
                        if c > 0 {
                            if let Some(u) = self.vars[v as usize].ub.clone() {
                                let e2 = e.subst(v, &u);
                                if e2.size() <= EXPR_CAP {
                                    cand(self.ub_d(&e2, facts, depth - 1));
                                }
                            }
                        }
                    }
                }
            }
            Expr::Min(a, b) => {
                cand(self.ub_d(a, facts, depth));
                cand(self.ub_d(b, facts, depth));
            }
            Expr::Max(a, b) => {
                if let (Some(x), Some(y)) = (self.ub_d(a, facts, depth), self.ub_d(b, facts, depth)) {
                    cand(Some(x.max(y)));
                }
            }
        }
        best
    }

    fn lo_d(&self, e: &Expr, facts: &[Fact], depth: u32) -> Option<i64> {
        let mut best = self.fact_bounds(e, facts).0;
        let mut cand = |c: Option<i64>| {
            if let Some(c) = c {
                best = Some(best.map_or(c, |b: i64| b.max(c)));
            }
        };
        match e {
            Expr::Lin(l) => {
                let mut direct: Option<i128> = Some(l.k as i128);
                for &(v, c) in &l.terms {
                    let b = if c > 0 { self.vars[v as usize].lo } else { self.vars[v as usize].hi };
                    direct = match (direct, b) {
                        (Some(d), Some(b)) => Some(d + c as i128 * b as i128),
                        _ => None,
                    };
                }
                cand(direct.and_then(|d| i64::try_from(d).ok()));
                if depth > 0 {
                    for &(v, c) in &l.terms {
                        if c < 0 {
                            if let Some(u) = self.vars[v as usize].ub.clone() {
                                let e2 = e.subst(v, &u);
                                if e2.size() <= EXPR_CAP {
                                    cand(self.lo_d(&e2, facts, depth - 1));
                                }
                            }
                        }
                    }
                }
            }
            Expr::Min(a, b) => {
                if let (Some(x), Some(y)) = (self.lo_d(a, facts, depth), self.lo_d(b, facts, depth)) {
                    cand(Some(x.min(y)));
                }
            }
            Expr::Max(a, b) => {
                cand(self.lo_d(a, facts, depth));
                cand(self.lo_d(b, facts, depth));
            }
        }
        best
    }

    fn narrow(&self, e: &Expr, facts: &[Fact]) -> Option<Expr> {
        if e.as_const().is_some() {
            return None;
        }
        match (self.lo(e, facts), self.ub(e, facts)) {
            (Some(a), Some(b)) if a == b => Some(Expr::konst(a)),
            _ => None,
        }
    }

    fn min_e(&mut self, a: Expr, b: Expr, facts: &[Fact]) -> Expr {
        if a == b {
            return a;
        }
        let d = a.sub(&b);
        if d.size() <= EXPR_CAP {
            if self.ub(&d, facts).is_some_and(|u| u <= 0) {
                return a;
            }
            if self.lo(&d, facts).is_some_and(|l| l >= 0) {
                return b;
            }
        }
        let (a, b) = if b < a { (b, a) } else { (a, b) };
        self.atom(Expr::Min(Box::new(a), Box::new(b)), facts)
    }

    fn max_e(&mut self, a: Expr, b: Expr, facts: &[Fact]) -> Expr {
        if a == b {
            return a;
        }
        let d = a.sub(&b);
        if d.size() <= EXPR_CAP {
            if self.ub(&d, facts).is_some_and(|u| u <= 0) {
                return b;
            }
            if self.lo(&d, facts).is_some_and(|l| l >= 0) {
                return a;
            }
        }
        let (a, b) = if b < a { (b, a) } else { (a, b) };
        self.atom(Expr::Max(Box::new(a), Box::new(b)), facts)
    }

    /// Interns a canonical min/max tree as an *atom* variable so state
    /// arithmetic stays linear. Equal trees share a variable, which
    /// makes a trailing loop's pop total structurally cancel its
    /// leading twin's push total. Interval bounds are computed
    /// fact-free (the memoized atom is reused across paths); the
    /// upper-bound chain carries the tree itself, so path-local facts
    /// still apply wherever a bound on the atom is queried.
    fn atom(&mut self, tree: Expr, facts: &[Fact]) -> Expr {
        if tree.size() > EXPR_CAP {
            return self.havoc(&tree, facts);
        }
        if let Some(&v) = self.atoms.get(&tree) {
            return Expr::var(v);
        }
        let lo = self.lo(&tree, &[]);
        let hi = self.ub(&tree, &[]);
        let v = self.fresh(lo, hi, None, Some(tree.clone()));
        self.atoms.insert(tree, v);
        Expr::var(v)
    }

    fn capped(&mut self, e: Expr, facts: &[Fact]) -> Expr {
        if e.size() > EXPR_CAP {
            self.havoc(&e, facts)
        } else {
            e
        }
    }

    // -- joins --------------------------------------------------------------

    fn join_exprs(&mut self, a: &Expr, fa: &[Fact], b: &Expr, fb: &[Fact], clamp0: bool) -> Expr {
        if a == b {
            return a.clone();
        }
        let mut lo = match (self.lo(a, fa), self.lo(b, fb)) {
            (Some(x), Some(y)) => Some(x.min(y)),
            _ => None,
        };
        let hi = match (self.ub(a, fa), self.ub(b, fb)) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => None,
        };
        if clamp0 {
            lo = Some(lo.unwrap_or(0).max(0));
        }
        Expr::var(self.fresh(lo, hi, None, None))
    }

    fn join2(&mut self, a: &AbsState, b: &AbsState) -> AbsState {
        let regs =
            (0..a.regs.len()).map(|r| self.join_exprs(&a.regs[r], &a.facts, &b.regs[r], &b.facts, false)).collect();
        let mut q = [QState::empty(), QState::empty(), QState::empty()];
        for (i, slot) in q.iter_mut().enumerate() {
            let (qa, qb) = (&a.q[i], &b.q[i]);
            let saved = match (&qa.saved, &qb.saved) {
                (Some((ea, ca)), Some((eb, cb))) => {
                    let e = self.join_exprs(ea, &a.facts, eb, &b.facts, true);
                    Some((e, Content::join(*ca, *cb)))
                }
                _ => None,
            };
            *slot = QState {
                ahead: self.join_exprs(&qa.ahead, &a.facts, &qb.ahead, &b.facts, true),
                since: self.join_exprs(&qa.since, &a.facts, &qb.since, &b.facts, true),
                marked: Tri::join(qa.marked, qb.marked),
                saved,
                content: Content::join(qa.content, qb.content),
            };
        }
        let tcr = match (a.tcr, b.tcr) {
            (Some(ca), Some(cb)) => Some(if ca == cb { ca } else { None }),
            _ => None,
        };
        let mut facts = Vec::new();
        for fa in &a.facts {
            if let Some(fb) = b.facts.iter().find(|f| f.expr == fa.expr) {
                let lo = match (fa.lo, fb.lo) {
                    (Some(x), Some(y)) => Some(x.min(y)),
                    _ => None,
                };
                let hi = match (fa.hi, fb.hi) {
                    (Some(x), Some(y)) => Some(x.max(y)),
                    _ => None,
                };
                if lo.is_some() || hi.is_some() {
                    facts.push(Fact { expr: fa.expr.clone(), lo, hi });
                }
            }
        }
        AbsState { regs, q, tcr, facts }
    }

    fn join_all(&mut self, mut states: Vec<AbsState>) -> AbsState {
        let mut acc = states.pop().expect("non-empty join");
        for s in states {
            acc = self.join2(&acc, &s);
        }
        acc
    }

    // -- region walking -----------------------------------------------------

    fn boe(&self, pc: u32) -> usize {
        if (pc as usize) < self.program.len() {
            self.cfg.block_of(pc)
        } else {
            self.cfg.exit()
        }
    }

    fn child_loop(&self, cur: Option<usize>, block: usize) -> Option<usize> {
        let &li = self.header_loop.get(&block)?;
        (self.parent[li] == cur && cur != Some(li)).then_some(li)
    }

    #[allow(clippy::type_complexity)]
    fn walk_region(
        &mut self,
        region: &BTreeSet<usize>,
        entry_block: usize,
        entry: AbsState,
        cur_loop: Option<usize>,
        ctx: &mut WalkCtx,
    ) -> (Vec<Edge>, Vec<AbsState>) {
        let mut pending_in: HashMap<usize, Vec<AbsState>> = HashMap::new();
        pending_in.insert(entry_block, vec![entry]);
        let mut exits = Vec::new();
        let mut latches = Vec::new();
        let mut processed: BTreeSet<usize> = BTreeSet::new();
        for i in 0..self.rpo.len() {
            let b = self.rpo[i];
            if !region.contains(&b) {
                continue;
            }
            let Some(states) = pending_in.remove(&b) else {
                continue;
            };
            processed.insert(b);
            let st = self.join_all(states);
            let out = match self.child_loop(cur_loop, b) {
                Some(cl) if b != entry_block || cur_loop.is_none() => self.process_loop(cl, st, ctx),
                _ => self.walk_block(b, st, ctx),
            };
            for (from, to, s) in out {
                if to == entry_block && region.contains(&to) && cur_loop.is_some() {
                    latches.push(s);
                } else if region.contains(&to) && to != entry_block {
                    if processed.contains(&to) {
                        // Should be unreachable after the reducibility
                        // gate; drop the edge rather than looping.
                        self.emit(
                            Rule::AnalysisDegraded,
                            Severity::Warning,
                            None,
                            Some(self.cfg.blocks[from].end.saturating_sub(1)),
                            "edge into an already-summarized block; analysis is incomplete here".into(),
                        );
                    } else {
                        pending_in.entry(to).or_default().push(s);
                    }
                } else if to == entry_block {
                    // Top-level self edge to the entry (entry not a loop
                    // header only when unreachable in practice).
                    latches.push(s);
                } else {
                    exits.push((from, to, s));
                }
            }
        }
        (exits, latches)
    }

    fn walk_block(&mut self, b: usize, mut st: AbsState, ctx: &mut WalkCtx) -> Vec<Edge> {
        let (start, end) = (self.cfg.blocks[b].start, self.cfg.blocks[b].end);
        let succs = self.cfg.blocks[b].succs.clone();
        for pc in start..end.saturating_sub(1) {
            let instr = self.program.instrs()[pc as usize];
            self.transfer(&mut st, pc, &instr, ctx);
        }
        let last = end - 1;
        let instr = self.program.instrs()[last as usize];
        self.terminator(b, last, &instr, st, ctx, &succs)
    }

    fn terminator(
        &mut self,
        b: usize,
        pc: u32,
        instr: &Instr,
        mut st: AbsState,
        ctx: &mut WalkCtx,
        succs: &[usize],
    ) -> Vec<Edge> {
        match *instr {
            Instr::Branch { cond, rs1, rs2, target } => {
                let taken_block = self.boe(target);
                let fall = self.boe(pc + 1);
                let d = st.regs[rs1.index()].sub(&st.regs[rs2.index()]);
                let d = self.capped(d, &st.facts);
                // Resolve statically decidable branches.
                if let Some(c) = d.as_const() {
                    let taken = match cond {
                        BranchCond::Eq => c == 0,
                        BranchCond::Ne => c != 0,
                        BranchCond::Lt => c < 0,
                        BranchCond::Ge => c >= 0,
                        // Unsigned compares are not tracked; fall through
                        // to the two-edge case below.
                        BranchCond::Ltu | BranchCond::Geu => {
                            return self.two_edges(b, taken_block, fall, st);
                        }
                    };
                    let to = if taken { taken_block } else { fall };
                    return vec![(b, to, st)];
                }
                let (mut t_st, mut f_st) = (st.clone(), st);
                match cond {
                    BranchCond::Lt => {
                        self.add_fact(&mut t_st, d.clone(), None, Some(-1));
                        self.add_fact(&mut f_st, d, Some(0), None);
                    }
                    BranchCond::Ge => {
                        self.add_fact(&mut t_st, d.clone(), Some(0), None);
                        self.add_fact(&mut f_st, d, None, Some(-1));
                    }
                    BranchCond::Eq => self.add_fact(&mut t_st, d, Some(0), Some(0)),
                    BranchCond::Ne => self.add_fact(&mut f_st, d, Some(0), Some(0)),
                    BranchCond::Ltu | BranchCond::Geu => {}
                }
                let mut out = vec![(b, taken_block, t_st)];
                if fall != taken_block {
                    out.push((b, fall, f_st));
                }
                out
            }
            Instr::BranchOnBq { target } => {
                self.pop(&mut st, QBQ, pc, ctx);
                let taken = self.boe(target);
                let fall = self.boe(pc + 1);
                self.two_edges(b, taken, fall, st)
            }
            Instr::BranchOnTcr { target } => {
                if st.tcr.is_none() {
                    self.check_tcr_loaded(pc, ctx);
                }
                let taken = self.boe(target);
                let fall = self.boe(pc + 1);
                self.two_edges(b, taken, fall, st)
            }
            Instr::PopTqBrOvf { target } => {
                self.pop(&mut st, QTQ, pc, ctx);
                st.tcr = Some(st.q[QTQ].content.class());
                let taken = self.boe(target);
                let fall = self.boe(pc + 1);
                self.two_edges(b, taken, fall, st)
            }
            Instr::Jump { target } => vec![(b, self.boe(target), st)],
            Instr::Jal { rd, target } => {
                if !rd.is_zero() {
                    st.regs[rd.index()] = Expr::var(self.fresh(None, None, None, None));
                }
                vec![(b, self.boe(target), st)]
            }
            Instr::Jr { .. } | Instr::Halt => vec![(b, self.cfg.exit(), st)],
            _ => {
                // Fallthrough block: the last instruction is ordinary.
                self.transfer(&mut st, pc, instr, ctx);
                succs.iter().map(|&s| (b, s, st.clone())).collect()
            }
        }
    }

    fn two_edges(&mut self, b: usize, taken: usize, fall: usize, st: AbsState) -> Vec<Edge> {
        if taken == fall {
            vec![(b, taken, st)]
        } else {
            vec![(b, taken, st.clone()), (b, fall, st)]
        }
    }

    fn check_tcr_loaded(&mut self, pc: u32, ctx: &WalkCtx) {
        if !ctx.quiet {
            self.emit(
                Rule::BranchTcrWithoutTrip,
                Severity::Error,
                Some(QueueKind::Tq),
                Some(pc),
                "Branch_on_TCR executes before any Pop_TQ loaded the trip-count register".into(),
            );
        }
    }

    fn add_fact(&mut self, st: &mut AbsState, expr: Expr, lo: Option<i64>, hi: Option<i64>) {
        if expr.as_const().is_some() || expr.size() > EXPR_CAP / 2 {
            return;
        }
        if let Some(f) = st.facts.iter_mut().find(|f| f.expr == expr) {
            f.lo = match (f.lo, lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            f.hi = match (f.hi, hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        } else {
            if st.facts.len() >= MAX_FACTS {
                st.facts.remove(0);
            }
            st.facts.push(Fact { expr, lo, hi });
        }
        // Narrow queue counters the new fact may have pinned.
        for i in 0..3 {
            if let Some(n) = self.narrow(&st.q[i].ahead, &st.facts) {
                st.q[i].ahead = n;
            }
            if let Some(n) = self.narrow(&st.q[i].since, &st.facts) {
                st.q[i].since = n;
            }
        }
    }

    // -- instruction transfer ----------------------------------------------

    fn transfer(&mut self, st: &mut AbsState, pc: u32, instr: &Instr, ctx: &mut WalkCtx) {
        if let Some(qop) = instr.queue_op() {
            return self.queue_transfer(st, pc, instr, qop.queue, qop.op, ctx);
        }
        match *instr {
            Instr::Alu { op, rd, rs1, src2 } => {
                if rd.is_zero() {
                    return;
                }
                let a = st.regs[rs1.index()].clone();
                let b = match src2 {
                    Src2::Reg(r) => st.regs[r.index()].clone(),
                    Src2::Imm(i) => Expr::konst(i),
                };
                let v = match op {
                    AluOp::Add => self.capped(a.add(&b), &st.facts),
                    AluOp::Sub => self.capped(a.sub(&b), &st.facts),
                    AluOp::Min => self.min_e(a, b, &st.facts.clone()),
                    AluOp::Max => self.max_e(a, b, &st.facts.clone()),
                    AluOp::Mul => match (a.as_const(), b.as_const()) {
                        (_, Some(k)) => self.capped(a.scale(k), &st.facts),
                        (Some(k), _) => self.capped(b.scale(k), &st.facts),
                        _ => Expr::var(self.fresh(None, None, None, None)),
                    },
                    AluOp::Sll => match b.as_const() {
                        Some(s) if (0..=31).contains(&s) => self.capped(a.scale(1i64 << s), &st.facts),
                        _ => Expr::var(self.fresh(None, None, None, None)),
                    },
                    AluOp::Slt | AluOp::Sltu | AluOp::Seq | AluOp::Sne | AluOp::Sge => {
                        Expr::var(self.fresh(Some(0), Some(1), None, None))
                    }
                    AluOp::Srl => Expr::var(self.fresh(Some(0), None, None, None)),
                    _ => Expr::var(self.fresh(None, None, None, None)),
                };
                st.regs[rd.index()] = v;
            }
            Instr::Li { rd, imm } if !rd.is_zero() => {
                st.regs[rd.index()] = Expr::konst(imm);
            }
            Instr::Load { rd, base, offset, width, signed } => {
                if rd.is_zero() {
                    return;
                }
                let hint = self.hints.get(&pc).copied();
                let v = if self.memoize {
                    let base_e = match ctx.iter_var {
                        Some(iv) => st.regs[base.index()].subst(iv, &Expr::var(SENTINEL)),
                        None => st.regs[base.index()].clone(),
                    };
                    let key = format!("{base_e:?}|{offset}|{width:?}|{signed}");
                    let cid = match self.classes.get(&key) {
                        Some(&c) => c,
                        None => {
                            let c = self.class_bounds.len() as u32;
                            self.classes.insert(key, c);
                            self.class_bounds.push((None, None));
                            c
                        }
                    };
                    if let Some(h) = hint {
                        let b = &mut self.class_bounds[cid as usize];
                        b.0 = Some(b.0.unwrap_or(0).max(0));
                        b.1 = Some(b.1.map_or(h, |x| x.min(h)));
                    }
                    let (clo, chi) = self.class_bounds[cid as usize];
                    Expr::var(self.fresh(clo, chi, Some(cid), None))
                } else {
                    let (lo, hi) = hint.map_or((None, None), |h| (Some(0), Some(h)));
                    Expr::var(self.fresh(lo, hi, None, None))
                };
                st.regs[rd.index()] = v;
            }
            _ => {}
        }
    }

    fn queue_transfer(
        &mut self,
        st: &mut AbsState,
        pc: u32,
        instr: &Instr,
        queue: QueueKind,
        op: QueueOpKind,
        ctx: &mut WalkCtx,
    ) {
        let qi = qidx(queue);
        match op {
            QueueOpKind::Push => {
                if queue == QueueKind::Tq && ctx.tcr_depth > 0 && !ctx.quiet {
                    self.emit(
                        Rule::PushTqInTcrLoop,
                        Severity::Error,
                        Some(queue),
                        Some(pc),
                        "Push_TQ inside a TCR-driven loop: trip counts must be generated outside the decoupled inner loop".into(),
                    );
                }
                let class = instr
                    .sources()
                    .0
                    .and_then(|rs| st.regs[rs.index()].as_single_var())
                    .filter(|&(_, c)| c == 1)
                    .and_then(|(v, _)| self.vars[v as usize].class);
                self.push(st, qi, class, pc, ctx);
            }
            QueueOpKind::Pop => {
                self.pop(st, qi, pc, ctx);
                match *instr {
                    Instr::PopVq { rd } if !rd.is_zero() => {
                        st.regs[rd.index()] = Expr::var(self.fresh(None, None, None, None));
                    }
                    Instr::PopTq => st.tcr = Some(st.q[QTQ].content.class()),
                    _ => {}
                }
            }
            QueueOpKind::Mark => {
                let qs = &mut st.q[qi];
                qs.ahead = qs.ahead.add(&qs.since);
                qs.since = Expr::konst(0);
                qs.marked = Tri::Yes;
            }
            QueueOpKind::Forward => {
                match st.q[qi].marked {
                    Tri::Yes => {}
                    Tri::No => {
                        if !ctx.quiet {
                            self.emit(
                                Rule::ForwardWithoutMark,
                                Severity::Error,
                                Some(queue),
                                Some(pc),
                                "Forward_BQ executes with no Mark_BQ active".into(),
                            );
                        }
                    }
                    Tri::Maybe => {
                        if !ctx.quiet {
                            self.emit(
                                Rule::ForwardWithoutMark,
                                Severity::Error,
                                Some(queue),
                                Some(pc),
                                "Forward_BQ executes with no Mark_BQ active on some path".into(),
                            );
                        }
                    }
                }
                // All entries before the mark are bulk-popped.
                st.q[qi].ahead = Expr::konst(0);
            }
            QueueOpKind::Save => {
                st.q[qi].saved = Some((st.q[qi].occupancy(), st.q[qi].content));
            }
            QueueOpKind::Restore => {
                match st.q[qi].saved.take() {
                    Some((occ, content)) => {
                        st.q[qi].ahead = occ.clone();
                        st.q[qi].since = Expr::konst(0);
                        st.q[qi].marked = Tri::No;
                        st.q[qi].content = content;
                        self.record_occ(st, qi, pc, ctx);
                    }
                    None => {
                        if !ctx.quiet {
                            self.emit(
                                Rule::RestoreWithoutSave,
                                Severity::Error,
                                Some(queue),
                                Some(pc),
                                "queue restore executes with no matching save on some path".into(),
                            );
                        }
                        st.q[qi].ahead = Expr::var(self.fresh(Some(0), Some(0), None, None));
                        st.q[qi].since = Expr::konst(0);
                        st.q[qi].marked = Tri::No;
                    }
                }
                if queue == QueueKind::Tq {
                    st.tcr = None;
                }
            }
            QueueOpKind::BranchTcr => {
                // Non-terminator Branch_on_TCR does not occur (it is a
                // control instruction); the terminator path checks it.
            }
        }
    }

    fn push(&mut self, st: &mut AbsState, qi: usize, class: Option<u32>, pc: u32, ctx: &WalkCtx) {
        if qi == QTQ {
            // A provably empty queue forgets earlier pushes: a new fill
            // starts a fresh uniform run.
            let base =
                if self.ub(&st.q[qi].occupancy(), &st.facts) == Some(0) { Content::Empty } else { st.q[qi].content };
            st.q[qi].content = base.push(class);
        }
        let one = Expr::konst(1);
        if st.q[qi].marked == Tri::Yes {
            st.q[qi].since = st.q[qi].since.add(&one);
        } else {
            st.q[qi].ahead = st.q[qi].ahead.add(&one);
        }
        self.record_occ(st, qi, pc, ctx);
    }

    fn record_occ(&mut self, st: &AbsState, qi: usize, pc: u32, ctx: &WalkCtx) {
        if ctx.quiet {
            return;
        }
        let occ = st.q[qi].occupancy();
        match self.ub(&occ, &st.facts) {
            None => {
                self.unbounded[qi] = true;
                self.emit(
                    Rule::UnboundedOccupancy,
                    Severity::Error,
                    Some(QKINDS[qi]),
                    Some(pc),
                    "queue occupancy has no static bound: the leading loop is not strip-mined".into(),
                );
            }
            Some(u) => {
                self.max_occ[qi] = self.max_occ[qi].max(u);
                let size = size_of(self.config, qi) as i64;
                if u > size {
                    self.emit(
                        Rule::Overflow,
                        Severity::Error,
                        Some(QKINDS[qi]),
                        Some(pc),
                        format!("occupancy can reach {u}, exceeding the configured size {size}: strip-mine with a smaller chunk"),
                    );
                }
            }
        }
    }

    fn pop(&mut self, st: &mut AbsState, qi: usize, pc: u32, ctx: &WalkCtx) {
        let occ = st.q[qi].occupancy();
        if !ctx.quiet {
            let lo = self.lo(&occ, &st.facts);
            if lo.is_none() || lo.is_some_and(|l| l < 1) {
                let definite = self.ub(&occ, &st.facts).is_some_and(|u| u < 1);
                let msg = if definite {
                    "pop executes on a provably empty queue".to_string()
                } else {
                    "cannot prove the queue is non-empty at this pop".to_string()
                };
                let d =
                    Diagnostic::new(Rule::Underflow, Severity::Error, Some(QKINDS[qi]), Some(pc), msg, self.program);
                if self.pending_depth > 0 {
                    let dup = |x: &Diagnostic| x.rule == d.rule && x.pc == d.pc && x.queue == d.queue;
                    if !self.pending.iter().any(|(_, x)| dup(x)) && !self.diags.iter().any(dup) {
                        self.pending.push((qi, d));
                    }
                } else {
                    self.push_diag(d);
                }
            }
        }
        // Symbolic decrement. A possibly-negative lower bound is a harmless
        // over-approximation: `lo` is only ever consulted to prove occupancy
        // >= 1, and joins clamp queue lower bounds back at zero.
        let one = Expr::konst(1);
        let ahead_empty = self.ub(&st.q[qi].ahead, &st.facts) == Some(0);
        if ahead_empty {
            st.q[qi].since = st.q[qi].since.sub(&one);
        } else {
            st.q[qi].ahead = st.q[qi].ahead.sub(&one);
        }
    }

    fn check_balance(&mut self, from: usize, st: &AbsState) {
        let pc = self.cfg.blocks[from].end.saturating_sub(1);
        for (qi, &qkind) in QKINDS.iter().enumerate() {
            let occ = st.q[qi].occupancy();
            let lo = self.lo(&occ, &st.facts);
            let hi = self.ub(&occ, &st.facts);
            if lo.is_some_and(|l| l > 0) {
                self.emit(
                    Rule::UnbalancedAtExit,
                    Severity::Error,
                    Some(qkind),
                    Some(pc),
                    format!(
                        "program exits with at least {} queued entr{} never popped",
                        lo.unwrap(),
                        if lo == Some(1) { "y" } else { "ies" }
                    ),
                );
            } else if hi.is_none() || hi.is_some_and(|h| h > 0) {
                self.emit(
                    Rule::UnbalancedAtExit,
                    Severity::Warning,
                    Some(qkind),
                    Some(pc),
                    "cannot prove the queue is empty at program exit".into(),
                );
            }
        }
    }
}

/// Translation validation of the speculation contract for a CFD-spec
/// rewrite of the branch at `branch_pc` of `original`.
///
/// The leading loop of `transformed` (the region between its
/// `cfd_loop1` and `cfd_loop2` labels) runs every iteration's predicate
/// slice before any trailing-loop store executes, so it must contain
///
/// * **no store** (or store-like queue save/restore) —
///   [`Rule::HoistedStore`];
/// * **no load without a speculation-safety proof** on the original
///   program ([`crate::speculation_safety`]): every hoisted load must
///   be byte-identical to a `ProvenSafe` load of the original loop —
///   [`Rule::HoistedUnsafeLoad`].
///
/// Non-binding prefetches are exempt. BQ discipline is covered by the
/// ordinary [`lint_program`] pass the transform already runs; callers
/// append these diagnostics to that report.
pub fn lint_speculation(original: &Program, transformed: &Program, branch_pc: u32) -> Vec<Diagnostic> {
    let degraded = |msg: &str| {
        vec![Diagnostic::new(
            Rule::AnalysisDegraded,
            Severity::Error,
            None,
            None,
            format!("speculation contract unverifiable: {msg}"),
            transformed,
        )]
    };
    let cfg = Cfg::build(original);
    let dom = crate::DomTree::dominators(&cfg);
    let loops = crate::find_loops(&cfg, &dom);
    let Some(lp) = loops.iter().filter(|l| l.contains(cfg.block_of(branch_pc))).min_by_key(|l| l.blocks.len()) else {
        return degraded("branch not in a loop of the original program");
    };
    let loop_start = lp.blocks.iter().map(|&b| cfg.blocks[b].start).min().expect("non-empty loop");
    // Every load of the to-be-hoisted header region is a candidate.
    let candidates: std::collections::BTreeSet<u32> =
        (loop_start..branch_pc).filter(|&pc| matches!(original.fetch(pc), Some(Instr::Load { .. }))).collect();
    let spec = crate::speculation_safety(original, &cfg, lp, branch_pc, &candidates);
    let safe: Vec<Instr> = spec
        .loads
        .iter()
        .filter(|l| l.safety == crate::LoadSafety::ProvenSafe)
        .filter_map(|l| original.fetch(l.pc))
        .collect();

    let (Some(l1), Some(l2)) = (transformed.label("cfd_loop1"), transformed.label("cfd_loop2")) else {
        return degraded("cfd_loop1/cfd_loop2 labels missing from the transformed program");
    };
    let mut out = Vec::new();
    for pc in l1..l2 {
        let Some(instr) = transformed.fetch(pc) else { continue };
        match instr {
            Instr::Load { .. } if !safe.contains(&instr) => {
                out.push(Diagnostic::new(
                    Rule::HoistedUnsafeLoad,
                    Severity::Error,
                    None,
                    Some(pc),
                    "load hoisted into the leading loop without a speculation-safety proof".into(),
                    transformed,
                ));
            }
            Instr::Store { .. } => {
                out.push(Diagnostic::new(
                    Rule::HoistedStore,
                    Severity::Error,
                    None,
                    Some(pc),
                    "store hoisted into the leading loop; stores must never speculate".into(),
                    transformed,
                ));
            }
            _ if instr.is_mem() && !matches!(instr, Instr::Load { .. } | Instr::Prefetch { .. }) => {
                out.push(Diagnostic::new(
                    Rule::HoistedStore,
                    Severity::Error,
                    None,
                    Some(pc),
                    "queue save/restore hoisted into the leading loop".into(),
                    transformed,
                ));
            }
            _ => {}
        }
    }
    out
}

// Loop processing lives in a separate impl block for readability.
mod loop_pass;

#[cfg(test)]
mod tests;
