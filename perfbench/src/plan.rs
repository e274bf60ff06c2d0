//! What one run does: problem sizes, repeat counts and the seeded inputs.

use cfd_serve::SweepConfig;
use cfd_workloads::{CatalogEntry, Scale, Variant};

/// Cycle budget of one detailed run (the experiment harness uses the same).
pub const CYCLE_LIMIT: u64 = 400_000_000;
/// Instruction budget of one functional run.
pub const INSTRUCTION_LIMIT: u64 = 4_000_000_000;
/// The predictors `profile` runs and the predictor layer replays.
pub const PREDICTORS: [&str; 4] = ["isl-tage", "gshare", "perceptron", "bimodal"];

/// Sizes and repeat counts of a run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Outer trip count of every kernel in `detail`, `sampled` and
    /// `profile` ([`Scale::n`]).
    pub scale_n: usize,
    /// Times the inputs are built per run; `setup_s` is the median.
    pub setup_repeats: usize,
    /// Fewest measured passes per run, and per pass kind in a traced run.
    pub min_passes: usize,
    /// Least time spent replaying from the warm cache in each pass, in
    /// seconds (at least one replay always runs).
    pub replay_min_s: f64,
    /// `Core::new` calls per kernel in the layer probe.
    pub core_new_repeats: usize,
    /// Engine worker threads.
    pub jobs: usize,
    /// The campaign grid: one sweep per kernel.
    pub grid: Vec<SweepConfig>,
}

/// `(kernel, variant)` of each campaign sweep.
const GRID_KERNELS: [(&str, &str); 6] = [
    ("soplex_ref_like", "cfd+"),
    ("astar_r1_like", "cfd"),
    ("mcf_like", "cfd"),
    ("bzip2_like", "cfd"),
    ("eclat_like", "cfd"),
    ("astar_tq_like", "cfd(bq+tq)"),
];

fn sweep(
    kernel: &str,
    variant: &str,
    scale_n: usize,
    predictors: &[&str],
    widths: &[(usize, usize)],
    l1_kb: &[usize],
) -> SweepConfig {
    SweepConfig {
        workload: kernel.to_string(),
        variant: variant.to_string(),
        scale_n,
        predictors: predictors.iter().map(|p| p.to_string()).collect(),
        bq: vec![128, 256],
        vq: vec![128],
        tq: vec![256],
        widths: widths.to_vec(),
        l1_kb: l1_kb.to_vec(),
    }
}

impl Plan {
    /// The plan every benchmark run uses.
    pub fn standard() -> Plan {
        Plan {
            scale_n: 5_000,
            setup_repeats: 9,
            min_passes: 3,
            replay_min_s: 0.2,
            core_new_repeats: 20,
            jobs: worker_threads(),
            grid: GRID_KERNELS
                .iter()
                .map(|&(k, v)| sweep(k, v, 400, &["isl-tage", "gshare"], &[(4, 6), (8, 8)], &[8, 32]))
                .collect(),
        }
    }

    /// A plan small enough for the short-run tests.
    pub fn quick() -> Plan {
        Plan {
            scale_n: 150,
            setup_repeats: 2,
            min_passes: 2,
            replay_min_s: 0.0,
            core_new_repeats: 2,
            jobs: worker_threads(),
            grid: GRID_KERNELS[..2].iter().map(|&(k, v)| sweep(k, v, 60, &["gshare"], &[(4, 6)], &[8, 32])).collect(),
        }
    }

    /// The kernel scale for `seed`.
    pub fn scale(&self, seed: u64) -> Scale {
        Scale { n: self.scale_n, seed: data_seed(seed) }
    }
}

/// Engine workers: at most two, and no more than the host's cores.
fn worker_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Spreads a command-line seed over 64 bits (splitmix64), so nearby
/// seeds give unrelated kernel data.
pub fn data_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The variant a single-variant workload runs: base when supported, else
/// the kernel's first variant.
pub fn default_variant(entry: &CatalogEntry) -> Variant {
    if entry.variants.contains(&Variant::Base) {
        Variant::Base
    } else {
        entry.variants[0]
    }
}
