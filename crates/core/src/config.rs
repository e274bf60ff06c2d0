//! Core configuration (paper Fig. 17a: Sandy-Bridge-like baseline).

use cfd_mem::HierarchyConfig;
use std::collections::BTreeSet;

/// What the front end does on a BQ miss (a `Branch_on_BQ` fetched before its
/// `Push_BQ` executed — the "late push" of §III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BqMissPolicy {
    /// Predict the predicate with the branch predictor (speculative pop);
    /// the late push verifies and recovers on a mismatch. The paper's
    /// default design.
    Speculate,
    /// Stall fetch until the push executes (evaluated in Fig. 21c).
    Stall,
}

/// Which branches receive oracle predictions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PerfectMode {
    /// No oracle assistance: the configured predictor serves all branches.
    None,
    /// Every conditional branch is predicted perfectly (Fig. 1, Fig. 2b).
    All,
    /// Only the listed branch PCs are perfect (Base + PerfectCFD, Fig. 19).
    Pcs(BTreeSet<u32>),
}

impl PerfectMode {
    /// Whether the branch at `pc` gets an oracle prediction.
    pub fn covers(&self, pc: u32) -> bool {
        match self {
            PerfectMode::None => false,
            PerfectMode::All => true,
            PerfectMode::Pcs(set) => set.contains(&pc),
        }
    }
}

/// Checkpoint (shadow-state) allocation policy for branch recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Allocate to every branch while checkpoints are free.
    AllBranches,
    /// Allocate only to low-confidence branches (JRS estimator) while free
    /// — the paper's best-performing baseline policy (§VI).
    ConfidenceGuided,
    /// Never allocate: every misprediction recovers at retirement.
    None,
}

/// Full configuration of the out-of-order core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Fetch/decode/rename/retire width.
    pub width: usize,
    /// Issue width (per cycle, across all FU classes).
    pub issue_width: usize,
    /// Reorder buffer entries (Sandy Bridge: 168).
    pub rob_size: usize,
    /// Issue queue (scheduler) entries (Sandy Bridge: 54).
    pub iq_size: usize,
    /// Load/store queue entries.
    pub lsq_size: usize,
    /// Physical register file size.
    pub prf_size: usize,
    /// Cycles between fetch and dispatch (decode+rename pipeline). The
    /// minimum fetch-to-execute latency is `front_depth + 2`; the default
    /// of 8 gives the paper's conservative 10 cycles (Table II).
    pub front_depth: u32,
    /// Number of branch checkpoints (paper: gains level off at 8).
    pub n_checkpoints: usize,
    /// Checkpoint allocation policy.
    pub checkpoint_policy: CheckpointPolicy,
    /// Simple ALU count.
    pub n_alu: usize,
    /// Complex (mul/div) unit count.
    pub n_complex: usize,
    /// Load ports.
    pub n_load_ports: usize,
    /// Store ports.
    pub n_store_ports: usize,
    /// Branch unit count.
    pub n_branch_units: usize,
    /// Direction predictor: `"isl-tage"`, `"gshare"`, `"perceptron"`,
    /// `"bimodal"`, `"always-taken"`.
    pub predictor: String,
    /// Oracle-assist mode.
    pub perfect: PerfectMode,
    /// BQ size (ISA parameter; paper: 128).
    pub bq_size: usize,
    /// VQ size (paper: 128).
    pub vq_size: usize,
    /// TQ size (paper: 256).
    pub tq_size: usize,
    /// Architected trip-count width in bits.
    pub tq_trip_bits: u32,
    /// BQ miss handling.
    pub bq_miss_policy: BqMissPolicy,
    /// Memory hierarchy configuration.
    pub hierarchy: HierarchyConfig,
    /// Watchdog: declare a deadlock when no instruction retires for this
    /// many cycles. Bounds the detection latency of dropped-entry faults.
    pub watchdog_cycles: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            width: 4,
            issue_width: 6,
            rob_size: 168,
            iq_size: 54,
            lsq_size: 64,
            prf_size: 224,
            front_depth: 8,
            n_checkpoints: 8,
            checkpoint_policy: CheckpointPolicy::ConfidenceGuided,
            n_alu: 3,
            n_complex: 1,
            n_load_ports: 2,
            n_store_ports: 1,
            n_branch_units: 2,
            predictor: "isl-tage".to_string(),
            perfect: PerfectMode::None,
            bq_size: 128,
            vq_size: 128,
            tq_size: 256,
            tq_trip_bits: 16,
            bq_miss_policy: BqMissPolicy::Speculate,
            hierarchy: HierarchyConfig::default(),
            watchdog_cycles: 100_000,
        }
    }
}

impl CoreConfig {
    /// The paper's large-window projections (Fig. 21b/23): scales the ROB
    /// and the window-proportional structures.
    pub fn with_window(mut self, rob: usize) -> Self {
        let scale = rob as f64 / 168.0;
        self.rob_size = rob;
        self.iq_size = ((54.0 * scale) as usize).max(8);
        self.lsq_size = ((64.0 * scale) as usize).max(8);
        self.prf_size = rob + 56;
        self
    }

    /// Minimum fetch-to-execute latency implied by this configuration.
    pub fn fetch_to_execute(&self) -> u32 {
        self.front_depth + 2
    }

    /// Design-space axis: front-end/retire width and issue width. The
    /// execution-port mix scales with the issue width so a wide config is
    /// not silently port-starved (DSE sweeps vary this axis; see
    /// `cfd-serve`).
    pub fn with_widths(mut self, width: usize, issue_width: usize) -> Self {
        self.width = width.max(1);
        self.issue_width = issue_width.max(self.width);
        self.n_alu = (self.issue_width / 2).max(1);
        self.n_branch_units = (self.issue_width / 3).max(1);
        self
    }

    /// Design-space axis: CFD queue depths (BQ, VQ, TQ entries).
    pub fn with_queue_depths(mut self, bq: usize, vq: usize, tq: usize) -> Self {
        self.bq_size = bq.max(1);
        self.vq_size = vq.max(1);
        self.tq_size = tq.max(1);
        self
    }

    /// Design-space axis: direction predictor by registry name
    /// (`"isl-tage"`, `"gshare"`, `"perceptron"`, `"bimodal"`,
    /// `"always-taken"`). Name validity is checked where the core is
    /// constructed, not here, so grid expansion stays infallible.
    pub fn with_predictor(mut self, name: &str) -> Self {
        self.predictor = name.to_string();
        self
    }

    /// Design-space axis: L1D capacity in KB (geometry otherwise
    /// unchanged — the paper's cache-sensitivity style of sweep).
    pub fn with_l1_kb(mut self, kb: usize) -> Self {
        self.hierarchy.l1.size_bytes = kb.max(1) * 1024;
        self
    }

    /// A stable, content-complete textual serialization of the
    /// configuration, for content-addressed result fingerprinting
    /// (`cfd-exec`).
    ///
    /// Uses the derived `Debug` form: every field (and every field of the
    /// nested [`HierarchyConfig`] and [`PerfectMode`]) is plain scalar or
    /// ordered-collection data, so the rendering is deterministic, and a
    /// newly added field automatically changes the representation —
    /// which conservatively invalidates any cached simulation results
    /// keyed on it.
    pub fn stable_repr(&self) -> String {
        format!("{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_sandy_bridge_class() {
        let c = CoreConfig::default();
        assert_eq!(c.rob_size, 168);
        assert_eq!(c.fetch_to_execute(), 10);
        assert_eq!(c.bq_size, 128);
        assert_eq!(c.tq_size, 256);
    }

    #[test]
    fn window_scaling_scales_structures() {
        let c = CoreConfig::default().with_window(512);
        assert_eq!(c.rob_size, 512);
        assert!(c.iq_size > 100);
        assert!(c.prf_size > 512);
    }

    #[test]
    fn stable_repr_distinguishes_configs() {
        let a = CoreConfig::default();
        assert_eq!(a.stable_repr(), CoreConfig::default().stable_repr());
        let b = CoreConfig { bq_size: 64, ..Default::default() };
        assert_ne!(a.stable_repr(), b.stable_repr());
        let mut c = CoreConfig::default();
        c.hierarchy.stride_prefetch = true;
        assert_ne!(a.stable_repr(), c.stable_repr());
        // Field names are present, so the repr is self-describing.
        assert!(a.stable_repr().contains("bq_size"));
    }

    #[test]
    fn grid_axis_builders_cover_the_dse_axes() {
        let c = CoreConfig::default().with_widths(8, 8).with_queue_depths(16, 32, 64).with_predictor("gshare");
        assert_eq!((c.width, c.issue_width), (8, 8));
        assert!(c.n_alu >= 4 && c.n_branch_units >= 2, "port mix scales with issue width");
        assert_eq!((c.bq_size, c.vq_size, c.tq_size), (16, 32, 64));
        assert_eq!(c.predictor, "gshare");
        let c = CoreConfig::default().with_l1_kb(16);
        assert_eq!(c.hierarchy.l1.size_bytes, 16 * 1024);
        // Degenerate requests clamp instead of producing a 0-wide core.
        let c = CoreConfig::default().with_widths(0, 0).with_queue_depths(0, 0, 0);
        assert!(c.width >= 1 && c.issue_width >= 1 && c.bq_size >= 1);
        // Every axis must land in the fingerprint-bearing repr.
        let a = CoreConfig::default().stable_repr();
        for b in [
            CoreConfig::default().with_widths(2, 4),
            CoreConfig::default().with_queue_depths(8, 128, 256),
            CoreConfig::default().with_predictor("bimodal"),
            CoreConfig::default().with_l1_kb(64),
        ] {
            assert_ne!(a, b.stable_repr());
        }
    }

    #[test]
    fn perfect_mode_coverage() {
        assert!(!PerfectMode::None.covers(4));
        assert!(PerfectMode::All.covers(4));
        let pcs = PerfectMode::Pcs([4u32, 9].into_iter().collect());
        assert!(pcs.covers(9));
        assert!(!pcs.covers(10));
    }
}
