//! The `experiments lint` backend: runs the static CFD queue-discipline
//! verifier ([`cfd_analysis::lint_program`]) over every workload in the
//! catalog (every supported variant) and over the automatic transform
//! outputs, and renders the findings as a fixed-width table plus
//! deterministic JSON.
//!
//! A clean sweep is the translation-validation half of DESIGN.md §9: the
//! hand-written kernels and the `apply_cfd`/`apply_cfd_tq`/`apply_cfd_spec`
//! rewrites all obey the queue discipline (and, for speculative rewrites,
//! the speculation contract) the simulator enforces dynamically. Each row
//! also carries the static per-branch class table of its source program.

use cfd_analysis::{
    apply_cfd, apply_cfd_spec, apply_cfd_tq, classify_program, lint_program, BranchClass, Diagnostic, LintReport,
    QueueBounds, Rule, Severity,
};
use cfd_exec::{CampaignJob, Engine, Fingerprint, Hasher};
use cfd_isa::{Assembler, Program, QueueConfig, QueueKind, Reg};
use cfd_obs::json::{quote, Json};
use cfd_workloads::{catalog, PaperClass, Scale, Variant};

/// One linted program: where it came from and what the verifier said.
#[derive(Debug, Clone)]
pub struct LintRow {
    /// Catalog kernel name, or the transform-validation pseudo-kernel.
    pub kernel: String,
    /// Variant label (catalog) or transform name.
    pub variant: String,
    /// Per-branch class of every analyzed branch in the row's *source*
    /// program, as `(pc, class)` pairs in PC order.
    pub classes: Vec<(u32, String)>,
    /// The verifier's findings and proved bounds.
    pub report: LintReport,
}

/// Classifies every branch of `program` and keeps the analyzed ones as
/// `(pc, class-display)` pairs. Computed at row-assembly time — never
/// inside a cached engine job — so the lint cache format is untouched.
fn branch_classes(program: &Program) -> Vec<(u32, String)> {
    classify_program(program)
        .into_iter()
        .filter(|r| r.class != BranchClass::NotAnalyzed)
        .map(|r| (r.pc, r.class.to_string()))
        .collect()
}

/// The canonical totally separable kernel `apply_cfd` is specified
/// against: a streaming threshold scan with a 6-instruction
/// control-dependent region disjoint from the predicate slice.
fn canonical_separable_kernel() -> (Program, u32) {
    let r = Reg::new;
    let (i, n, base, eps, x, p, sum, cnt) = (r(1), r(2), r(3), r(4), r(5), r(6), r(7), r(8));
    let mut a = Assembler::new();
    a.li(n, 1000);
    a.li(base, 0x1000);
    a.li(eps, 500);
    a.label("top");
    a.sll(r(9), i, 3i64);
    a.add(r(9), r(9), base);
    a.ld(x, 0, r(9));
    a.slt(p, x, eps);
    let bpc = a.here();
    a.beqz(p, "skip");
    a.add(sum, sum, x);
    a.addi(cnt, cnt, 1);
    a.xor(r(10), sum, cnt);
    a.add(r(11), r(11), r(10));
    a.sub(r(12), r(11), sum);
    a.add(r(12), r(12), 7i64);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, n, "top");
    a.halt();
    (a.finish().expect("canonical kernel assembles"), bpc)
}

/// The canonical separable loop-branch nest `apply_cfd_tq` is
/// specified against: an outer loop whose inner trip count is loaded
/// per iteration.
fn canonical_loop_branch_kernel() -> (Program, u32) {
    let r = Reg::new;
    let (i, n, base, m, j, acc) = (r(1), r(2), r(3), r(4), r(5), r(6));
    let mut a = Assembler::new();
    a.li(n, 500);
    a.li(base, 0x1000);
    a.label("outer");
    a.sll(r(9), i, 3i64);
    a.add(r(9), r(9), base);
    a.ld(m, 0, r(9));
    a.li(j, 0);
    a.j("test");
    a.label("body");
    a.add(acc, acc, j);
    a.addi(j, j, 1);
    a.label("test");
    let bpc = a.here();
    a.blt(j, m, "body");
    a.addi(i, i, 1);
    a.blt(i, n, "outer");
    a.halt();
    (a.finish().expect("canonical nest assembles"), bpc)
}

/// Renders lint rows as a fixed-width table.
pub fn table(rows: &[LintRow]) -> String {
    let mut out = String::new();
    let b = |x: Option<u64>| x.map_or("unbounded".to_string(), |v| v.to_string());
    out.push_str(&format!(
        "{:<18} {:<12} {:<8} {:>6} {:>6} {:>6}  findings\n",
        "kernel", "variant", "verdict", "bq", "vq", "tq"
    ));
    for r in rows {
        let rep = &r.report;
        out.push_str(&format!(
            "{:<18} {:<12} {:<8} {:>6} {:>6} {:>6}  {}\n",
            r.kernel,
            r.variant,
            if rep.clean() { "clean" } else { "ERROR" },
            b(rep.bounds.bq),
            b(rep.bounds.vq),
            b(rep.bounds.tq),
            rep.diagnostics.len(),
        ));
        for d in &rep.diagnostics {
            if d.severity >= Severity::Warning {
                out.push_str(&format!("    {d}\n"));
            }
        }
    }
    out
}

/// Deterministic JSON rendering of lint rows.
pub fn to_json(rows: &[LintRow]) -> String {
    let mut s = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let classes: Vec<String> =
            r.classes.iter().map(|(pc, c)| format!("{{\"pc\":{pc},\"class\":{}}}", quote(c))).collect();
        s.push_str(&format!(
            "{{\"kernel\":{},\"variant\":{},\"classes\":[{}],\"report\":{}}}",
            quote(&r.kernel),
            quote(&r.variant),
            classes.join(","),
            report_to_json(&r.report)
        ));
    }
    s.push(']');
    s
}

/// Total error-severity findings across all rows.
pub fn error_count(rows: &[LintRow]) -> usize {
    rows.iter().map(|r| r.report.error_count()).sum()
}

/// What a [`LintJob`] does to its program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintOp {
    /// Lint the program as-is.
    Lint,
    /// Run `apply_cfd` at `pc` with `chunk`, then report the rewrite's
    /// lint verdict. Produces no row when the transform rejects.
    ApplyCfd {
        /// The branch of interest.
        pc: u32,
        /// Strip-mining chunk size.
        chunk: usize,
    },
    /// Run `apply_cfd_tq` at `pc` with trip-count chunk `tq`.
    ApplyCfdTq {
        /// The loop-branch of interest.
        pc: u32,
        /// Trip-count chunk size.
        tq: usize,
    },
    /// Run the automatic selector `apply_cfd_spec` at `pc` and report
    /// the chosen rewrite's lint verdict (which, for a speculative
    /// decision, includes the speculation-contract diagnostics).
    ApplyCfdSpec {
        /// The branch of interest.
        pc: u32,
        /// Strip-mining chunk size for the BQ rewrites.
        chunk: usize,
        /// Trip-count chunk size for the TQ rewrite.
        tq: usize,
    },
}

/// One unit of lint work for the campaign engine: a program plus what to
/// do with it. The output is `None` when a transform op rejects the
/// program (no row is emitted for it).
#[derive(Debug, Clone)]
pub struct LintJob {
    /// Catalog kernel name or transform-validation pseudo-kernel.
    pub kernel: String,
    /// Variant label or transform name.
    pub variant: String,
    /// The program to lint or rewrite.
    pub program: Program,
    /// What to do.
    pub op: LintOp,
}

/// Scratch registers the transform jobs hand to the rewrite passes.
fn transform_scratch() -> Vec<Reg> {
    (28..32).map(Reg::new).collect()
}

impl CampaignJob for LintJob {
    type Output = Option<LintReport>;

    fn kind(&self) -> &'static str {
        "lint"
    }

    fn fingerprint(&self) -> Fingerprint {
        let mut h = Hasher::new();
        h.section("program", &self.program.stable_bytes());
        h.section("op", format!("{:?}", self.op).as_bytes());
        h.section("config", format!("{:?}", QueueConfig::default()).as_bytes());
        h.finish()
    }

    fn describe(&self) -> String {
        format!("lint {} [{}]", self.kernel, self.variant)
    }

    fn execute(&self) -> Option<LintReport> {
        let scratch = transform_scratch();
        match self.op {
            LintOp::Lint => Some(lint_program(&self.program, &QueueConfig::default())),
            LintOp::ApplyCfd { pc, chunk } => apply_cfd(&self.program, pc, chunk, &scratch).ok().map(|t| t.lint),
            LintOp::ApplyCfdTq { pc, tq } => apply_cfd_tq(&self.program, pc, tq, &scratch).ok().map(|t| t.lint),
            LintOp::ApplyCfdSpec { pc, chunk, tq } => {
                apply_cfd_spec(&self.program, pc, chunk, tq, &scratch).ok().map(|s| s.report.lint)
            }
        }
    }

    fn result_to_json(out: &Option<LintReport>) -> String {
        match out {
            None => "{\"ok\":false}".to_string(),
            Some(r) => format!("{{\"ok\":true,\"report\":{}}}", report_to_json(r)),
        }
    }

    fn result_from_json(&self, v: &Json) -> Option<Option<LintReport>> {
        if !v.get("ok")?.as_bool()? {
            return Some(None);
        }
        Some(Some(report_from_json(v.get("report")?)?))
    }
}

/// Deterministic JSON rendering of one [`LintReport`]; [`report_from_json`]
/// reads it back.
fn report_to_json(r: &LintReport) -> String {
    let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
    let opt_str = |x: Option<&str>| x.map_or("null".to_string(), quote);
    let mut s = format!(
        "{{\"clean\":{},\"bounds\":{{\"bq\":{},\"vq\":{},\"tq\":{}}},\"diagnostics\":[",
        r.clean(),
        opt(r.bounds.bq),
        opt(r.bounds.vq),
        opt(r.bounds.tq)
    );
    for (i, d) in r.diagnostics.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":{},\"severity\":{},\"queue\":{},\"pc\":{},\"label\":{},\"annotation\":{},\"message\":{}}}",
            quote(d.rule.name()),
            quote(d.severity.name()),
            opt_str(d.queue.map(|q| q.name())),
            opt(d.pc.map(u64::from)),
            opt_str(d.label.as_deref()),
            opt_str(d.annotation.as_deref()),
            quote(&d.message)
        ));
    }
    s.push_str("]}");
    s
}

/// Reconstructs a [`LintReport`] from the JSON [`report_to_json`] emits.
fn report_from_json(v: &Json) -> Option<LintReport> {
    let b = v.get("bounds")?;
    let bounds =
        QueueBounds { bq: b.get("bq")?.as_opt_u64()?, vq: b.get("vq")?.as_opt_u64()?, tq: b.get("tq")?.as_opt_u64()? };
    let mut diagnostics = Vec::new();
    for d in v.get("diagnostics")?.as_arr()? {
        let queue = match d.get("queue")? {
            Json::Null => None,
            q => Some(queue_by_name(q.as_str()?)?),
        };
        let opt_str = |key: &str| -> Option<Option<String>> {
            match d.get(key)? {
                Json::Null => Some(None),
                s => Some(Some(s.as_str()?.to_string())),
            }
        };
        diagnostics.push(Diagnostic {
            rule: rule_by_name(d.get("rule")?.as_str()?)?,
            severity: severity_by_name(d.get("severity")?.as_str()?)?,
            queue,
            pc: d.get("pc")?.as_opt_u64()?.map(|pc| pc as u32),
            label: opt_str("label")?,
            annotation: opt_str("annotation")?,
            message: d.get("message")?.as_str()?.to_string(),
        });
    }
    Some(LintReport { diagnostics, bounds })
}

fn rule_by_name(name: &str) -> Option<Rule> {
    [
        Rule::Overflow,
        Rule::UnboundedOccupancy,
        Rule::Underflow,
        Rule::UnbalancedAtExit,
        Rule::ForwardWithoutMark,
        Rule::BranchTcrWithoutTrip,
        Rule::PushTqInTcrLoop,
        Rule::RestoreWithoutSave,
        Rule::IrreducibleCfg,
        Rule::UnreachableCode,
        Rule::AnalysisDegraded,
        Rule::HoistedStore,
        Rule::HoistedUnsafeLoad,
    ]
    .into_iter()
    .find(|r| r.name() == name)
}

fn severity_by_name(name: &str) -> Option<Severity> {
    [Severity::Info, Severity::Warning, Severity::Error].into_iter().find(|s| s.name() == name)
}

fn queue_by_name(name: &str) -> Option<QueueKind> {
    [QueueKind::Bq, QueueKind::Vq, QueueKind::Tq].into_iter().find(|q| q.name() == name)
}

/// Enumerates the full lint sweep as engine jobs: every `(kernel,
/// variant)` pair in the catalog, then the automatic decoupling
/// transforms — the canonical separable kernel and loop-branch nest at
/// two chunk sizes each, plus every catalog base kernel whose branch of
/// interest a transform accepts. The scale only affects constants baked
/// into the programs (trip counts); the verifier itself is static, so
/// any scale exercises the same code shape.
pub fn lint_jobs() -> Vec<LintJob> {
    let scale = Scale { n: 400, seed: 9 };
    let mut jobs = Vec::new();
    for entry in catalog() {
        for &variant in entry.variants {
            let w = entry.build(variant, scale);
            jobs.push(LintJob {
                kernel: entry.name.to_string(),
                variant: variant.label().to_string(),
                program: w.program,
                op: LintOp::Lint,
            });
        }
    }
    let (program, bpc) = canonical_separable_kernel();
    for chunk in [8usize, 128] {
        jobs.push(LintJob {
            kernel: "canonical_separable".to_string(),
            variant: format!("apply_cfd/{chunk}"),
            program: program.clone(),
            op: LintOp::ApplyCfd { pc: bpc, chunk },
        });
    }
    let (program, bpc) = canonical_loop_branch_kernel();
    for tq in [64usize, 256] {
        jobs.push(LintJob {
            kernel: "canonical_loop_branch".to_string(),
            variant: format!("apply_cfd_tq/{tq}"),
            program: program.clone(),
            op: LintOp::ApplyCfdTq { pc: bpc, tq },
        });
    }
    for entry in catalog() {
        let w = entry.build(Variant::Base, scale);
        for ib in &w.interest {
            let op = match ib.class {
                PaperClass::SeparableTotal | PaperClass::SeparablePartial => LintOp::ApplyCfd { pc: ib.pc, chunk: 128 },
                PaperClass::SeparableLoopBranch => LintOp::ApplyCfdTq { pc: ib.pc, tq: 256 },
                PaperClass::SpeculativelySeparable => LintOp::ApplyCfdSpec { pc: ib.pc, chunk: 128, tq: 256 },
                _ => continue,
            };
            jobs.push(LintJob {
                kernel: entry.name.to_string(),
                variant: format!("auto@pc{}", ib.pc),
                program: w.program.clone(),
                op,
            });
        }
    }
    jobs
}

/// Runs the full lint sweep through the campaign engine. Rows come back
/// in [`lint_jobs`] order at any worker count; transform jobs whose
/// rewrite rejects contribute no row.
pub fn lint_all_on(engine: &Engine) -> Vec<LintRow> {
    let jobs = lint_jobs();
    let results = engine.run_all(&jobs);
    jobs.iter()
        .zip(results)
        .filter_map(|(job, res)| {
            let report = match res {
                Ok(out) => out?,
                Err(e) => panic!("{} failed: {e}", job.describe()),
            };
            Some(LintRow {
                kernel: job.kernel.clone(),
                variant: job.variant.clone(),
                classes: branch_classes(&job.program),
                report,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_is_escaped_and_round_trips() {
        let d = Diagnostic {
            rule: Rule::Overflow,
            severity: Severity::Error,
            queue: Some(QueueKind::Tq),
            pc: Some(1),
            label: Some("body".into()),
            annotation: None,
            message: "needs \"quotes\"\nand\ttab".into(),
        };
        let report = LintReport { diagnostics: vec![d], bounds: QueueBounds { bq: Some(64), vq: Some(0), tq: None } };
        let j = report_to_json(&report);
        assert_eq!(j, report_to_json(&report));
        assert!(j.starts_with("{\"clean\":false,\"bounds\":{\"bq\":64,\"vq\":0,\"tq\":null}"), "{j}");
        assert!(j.contains("\\\"quotes\\\"\\nand\\ttab"), "{j}");
        assert!(!report.clean());
        assert_eq!(report.error_count(), 1);
        assert_eq!(report_from_json(&Json::parse(&j).unwrap()), Some(report));
        let clean = LintReport { diagnostics: vec![], bounds: QueueBounds { bq: Some(1), vq: Some(0), tq: Some(0) } };
        let j = report_to_json(&clean);
        assert!(j.starts_with("{\"clean\":true"), "{j}");
        assert_eq!(report_from_json(&Json::parse(&j).unwrap()), Some(clean));
    }
}
