//! Full-state checkpoint/restore for the stepping kernel.
//!
//! A [`Checkpoint`] is a deep copy of the entire [`Pipeline`] — both
//! functional oracles (including the committed memory image), the front
//! end with its CFD queues, rename state, ROB, scheduler wheels, cache
//! hierarchy, statistics, and the retirement watchdog — sealed with a
//! version tag and an FNV-1a digest of an architectural state summary.
//! It copies simulated state only: observers (pipe trace, post-mortem
//! ring, telemetry, stage profiler) live outside the pipeline, so a
//! restored core starts unobserved and whoever drives it brings their
//! own.
//!
//! **Determinism contract:** the simulator is a deterministic function of
//! (config, program, memory image), so a core restored from a checkpoint
//! taken at cycle *C* and run to completion produces a [`RunReport`]
//! byte-identical to the uninterrupted run's — every counter and
//! histogram, not just the headline IPC. `scripts/verify.sh` gates on this
//! (`experiments ckpt`), and `crates/core/tests/checkpoint.rs` exercises
//! it at every quarter point of every catalog workload.
//!
//! One host-port caveat, deliberate: a restored core *shares* the
//! original's [`CancelToken`](crate::CancelToken) (tokens are `Arc`-backed
//! supervisor handles, not simulated state), so a supervisor's cancel
//! reaches restored descendants too.
//!
//! [`RunReport`]: crate::RunReport

use crate::core::{Core, CoreError};
use crate::pipeline::Pipeline;

/// Format version for [`Checkpoint`] validation; bumped whenever the
/// digest summary or clone semantics change incompatibly.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A resumable full-state snapshot of a [`Core`] mid-run.
///
/// Produced by [`Core::checkpoint`], consumed by [`Core::restore`]. The
/// snapshot is self-contained: it carries the configuration and program,
/// so restore needs no other inputs.
pub struct Checkpoint {
    version: u32,
    config_repr: String,
    cycle: u64,
    digest: u64,
    state: Box<Pipeline>,
}

impl Checkpoint {
    /// Simulated cycle at which the snapshot was taken.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Debug rendering of the captured core configuration (provenance for
    /// stored checkpoints).
    pub fn config_repr(&self) -> &str {
        &self.config_repr
    }

    /// The sealed FNV-1a digest of the architectural state summary.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Corrupts the captured state without resealing the digest, so that
    /// [`Core::restore`] must reject this checkpoint. Test hook only.
    #[doc(hidden)]
    pub fn corrupt_state_for_test(&mut self) {
        self.state.stats.retired = self.state.stats.retired.wrapping_add(1);
    }

    /// Corrupts the version tag. Test hook only.
    #[doc(hidden)]
    pub fn corrupt_version_for_test(&mut self) {
        self.version = self.version.wrapping_add(1);
    }
}

/// Incremental FNV-1a over little-endian `u64` words: cheap, stable
/// across platforms, and adequate for tamper detection (not security).
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// Digest of an architectural state summary: cheap relative to a run
/// (linear in occupancy, not memory size) yet covering every structure
/// whose corruption could silently change simulated behavior — fetch
/// state, both oracle PCs, CFD queue occupancies, the full ROB and front
/// pipe, scheduler bookkeeping, and the headline statistics.
fn state_digest(p: &Pipeline) -> u64 {
    let mut h = Fnv::new();
    h.put(p.now);
    h.put(p.next_seq);
    h.put(p.next_rob_seq);
    h.put(u64::from(p.fetch_pc));
    h.put(p.fetch_resume_at);
    h.put(u64::from(p.fetch_halted));
    h.put(u64::from(p.halted));
    h.put(u64::from(p.oracle.pc()));
    h.put(u64::from(p.fetch_oracle.pc()));
    h.put(p.diverged_at.unwrap_or(u64::MAX));
    h.put(p.stats.retired);
    h.put(p.stats.fetched);
    h.put(p.stats.mispredictions);
    h.put(p.stats.retired_branches);
    h.put(p.bq.length());
    h.put(p.tq.length());
    h.put(p.vq.length());
    h.put(p.iq_count as u64);
    h.put(p.lsq_count as u64);
    h.put(p.checkpoints_free as u64);
    h.put(p.front_q.len() as u64);
    for d in &p.front_q {
        h.put(d.seq);
        h.put(u64::from(d.pc));
    }
    h.put(p.rob.len() as u64);
    for d in &p.rob {
        h.put(d.seq);
        h.put(d.rob_seq);
        h.put(u64::from(d.pc));
        h.put(u64::from(d.done) | u64::from(d.issued) << 1 | u64::from(d.verified) << 2);
    }
    h.put(p.store_list.len() as u64);
    for s in &p.store_list {
        h.put(*s);
    }
    h.put(p.last_retired.0);
    h.put(p.last_retired.1);
    h.0
}

impl Core {
    /// Snapshots the complete simulated state mid-run (wherever
    /// [`Core::drive`] paused, or before the first drive). Restoring the snapshot
    /// and running to completion is byte-identical to never having
    /// stopped — see the module docs for the contract and its host-port
    /// caveats.
    pub fn checkpoint(&self) -> Checkpoint {
        let state = Box::new(self.p.clone());
        Checkpoint {
            version: CHECKPOINT_VERSION,
            config_repr: format!("{:?}", self.p.cfg),
            cycle: self.p.now,
            digest: state_digest(&state),
            state,
        }
    }

    /// Rebuilds a runnable core from a checkpoint, validating the version
    /// tag and resealing the state digest first.
    ///
    /// # Errors
    ///
    /// [`CoreError::Checkpoint`] when the version tag is unknown or the
    /// digest does not match the captured state (corruption or tampering).
    pub fn restore(ckpt: Checkpoint) -> Result<Core, CoreError> {
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(CoreError::Checkpoint(format!(
                "unsupported checkpoint version {} (supported: {CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        let actual = state_digest(&ckpt.state);
        if actual != ckpt.digest {
            return Err(CoreError::Checkpoint(format!(
                "state digest mismatch at cycle {}: sealed {:#018x}, computed {:#018x}",
                ckpt.cycle, ckpt.digest, actual
            )));
        }
        Ok(Core { p: *ckpt.state })
    }

    /// The architectural-state digest of the live core, for lockstep
    /// differential testing: two cores on the same inputs must report
    /// identical fingerprints at identical cycles.
    pub fn fingerprint(&self) -> u64 {
        state_digest(&self.p)
    }
}
