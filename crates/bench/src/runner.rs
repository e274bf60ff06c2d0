//! Shared experiment plumbing: timing runs, speedups, table formatting.
//!
//! Since the `cfd-exec` port, every figure runs in two phases: enumerate
//! the simulations into a [`Batch`], run them all at once on the engine
//! (parallel, content-cached), then format results looked up by
//! [`Handle`]. Results always come back in submission order, so the
//! rendered tables are byte-identical at any `--jobs` count.

use cfd_core::{CoreConfig, RunReport};
use cfd_energy::EnergyModel;
use cfd_exec::{CampaignJob, Engine, FuncJob, ProfileJob, SimJob};
use cfd_workloads::{CatalogEntry, Scale, Variant, Workload};
use std::fmt::Write as _;

/// Default cycle budget per timing run (well above any legitimate run).
pub const CYCLE_LIMIT: u64 = 400_000_000;

/// Default experiment scale (~0.25M base instructions per run).
pub fn default_scale() -> Scale {
    Scale::default()
}

/// A smaller scale for the expensive sweeps.
pub fn sweep_scale() -> Scale {
    Scale { n: 8_000, ..Scale::default() }
}

/// A ticket for one job submitted to a [`Batch`]; redeem it against the
/// [`Results`] the batch returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handle(usize);

/// A batch of campaign jobs headed for the engine.
///
/// Figures enumerate their whole sweep into a batch, call
/// [`run`](Batch::run) once, and then format — the two-phase structure
/// that lets the engine parallelize and cache the simulations.
pub struct Batch<'e, J: CampaignJob> {
    engine: &'e Engine,
    jobs: Vec<J>,
}

impl<'e, J: CampaignJob> Batch<'e, J> {
    /// An empty batch bound to `engine`.
    pub fn new(engine: &'e Engine) -> Batch<'e, J> {
        Batch { engine, jobs: Vec::new() }
    }

    /// Submits a job, returning its handle.
    pub fn push(&mut self, job: J) -> Handle {
        self.jobs.push(job);
        Handle(self.jobs.len() - 1)
    }

    /// Runs every submitted job.
    ///
    /// # Panics
    ///
    /// Panics with the failing job's message if any job failed —
    /// experiments treat simulator errors as fatal, exactly as the serial
    /// runner always has.
    pub fn run(self) -> Results<J::Output> {
        let results =
            self.engine.run_all(&self.jobs).into_iter().map(|r| r.unwrap_or_else(|e| panic!("{e}"))).collect();
        Results(results)
    }
}

impl Batch<'_, SimJob> {
    /// Submits a timing run of `workload` on `cfg` (standard cycle
    /// budget).
    pub fn sim(&mut self, workload: &Workload, cfg: &CoreConfig) -> Handle {
        self.push(SimJob { workload: workload.clone(), cfg: cfg.clone(), cycle_limit: CYCLE_LIMIT })
    }

    /// Builds a catalog entry variant and submits its timing run.
    pub fn sim_variant(&mut self, entry: &CatalogEntry, variant: Variant, scale: Scale, cfg: &CoreConfig) -> Handle {
        let w = entry.build(variant, scale);
        self.sim(&w, cfg)
    }
}

impl Batch<'_, ProfileJob> {
    /// Submits a branch-profiling run of `workload`.
    pub fn profile(&mut self, workload: &Workload, predictor: &str, instruction_limit: u64) -> Handle {
        self.push(ProfileJob { workload: workload.clone(), predictor: predictor.to_string(), instruction_limit })
    }
}

impl Batch<'_, FuncJob> {
    /// Submits a functional instruction-count run of `workload`.
    pub fn func(&mut self, workload: &Workload) -> Handle {
        self.push(FuncJob { workload: workload.clone() })
    }
}

/// Results of a [`Batch`], indexed by [`Handle`].
pub struct Results<T>(Vec<T>);

impl<T> std::ops::Index<Handle> for Results<T> {
    type Output = T;

    fn index(&self, h: Handle) -> &T {
        &self.0[h.0]
    }
}

/// Relative energy of `report` versus `baseline` under the default model.
pub fn relative_energy(report: &RunReport, baseline: &RunReport) -> f64 {
    let model = EnergyModel::default();
    report.energy(&model).total_pj / baseline.energy(&model).total_pj
}

/// A plain-text table builder for experiment output.
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> TextTable {
        TextTable { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Adds a row (must match the header length).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate() {
                widths[c] = widths[c].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let pad = widths[c] - cell.len();
                if c == 0 {
                    let _ = write!(out, "{cell}{}", " ".repeat(pad));
                } else {
                    let _ = write!(out, "  {}{cell}", " ".repeat(pad));
                }
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Formats a ratio as e.g. `1.43x`.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a percentage with sign, e.g. `+43.1%` / `-12.0%`.
pub fn pct(v: f64) -> String {
    format!("{:+.1}%", 100.0 * v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["name", "value"]);
        t.row(vec!["x", "1.00"]);
        t.row(vec!["longer-name", "2"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("---"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.434), "1.43x");
        assert_eq!(pct(0.431), "+43.1%");
        assert_eq!(pct(-0.12), "-12.0%");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }
}
