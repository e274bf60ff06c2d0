//! Telemetry as an observer: the cfd-obs metrics registry, the
//! interval-sampled time series and the Perfetto event trace, all filled
//! from the kernel's event stream.
//!
//! Telemetry only observes — it never changes simulated timing, so a
//! run's [`RunReport`](crate::RunReport) is byte-identical with or
//! without it.

use crate::kernel::{KernelEvent, Observer, SchedWork};
use crate::trace::CycleSnap;
use cfd_obs::{MetricsRegistry, TelemetryConfig, TelemetryReport, TimeSeries, TraceLog};

/// Time-series schema: cumulative counters sampled every N cycles.
/// `cycle` stamps the row; everything else is cumulative-so-far, so rates
/// (IPC, miss ratios, predictor accuracy) are derived by differencing
/// adjacent rows.
const SERIES_COLUMNS: [&str; 27] = [
    "cycle",
    "retired",
    "fetched",
    "mispredictions",
    "retired_branches",
    "rob",
    "iq",
    "lsq",
    "front_q",
    "bq",
    "vq",
    "tq",
    "l1_accesses",
    "l1_hits",
    "l2_accesses",
    "l2_hits",
    "l3_accesses",
    "l3_hits",
    "cpi_base",
    "cpi_frontend",
    "cpi_mispredict",
    "cpi_cfd_stall",
    "cpi_mem_l1",
    "cpi_mem_l2",
    "cpi_mem_l3",
    "cpi_mem_dram",
    "cpi_backend",
];

/// The telemetry observer. [`Telemetry::report`] hands back what it
/// collected — up to the halt, or up to a failure.
#[derive(Debug, Clone)]
pub struct Telemetry {
    interval: u64,
    registry: MetricsRegistry,
    series: TimeSeries,
    trace: TraceLog,
    /// Next cycle stamp at which to push a series row.
    next_sample: u64,
    /// Scheduler work summed over the run, registered at the halt.
    sched: SchedWork,
}

impl Telemetry {
    /// Telemetry sampling every `cfg.sample_interval` cycles, with the
    /// event trace on when `cfg.trace` is.
    pub fn new(cfg: TelemetryConfig) -> Telemetry {
        Telemetry {
            interval: cfg.sample_interval,
            registry: MetricsRegistry::enabled(),
            series: TimeSeries::new(cfg.sample_interval, SERIES_COLUMNS.to_vec()),
            trace: if cfg.trace { TraceLog::enabled() } else { TraceLog::disabled() },
            next_sample: if cfg.sample_interval > 0 { cfg.sample_interval } else { u64::MAX },
            sched: SchedWork::default(),
        }
    }

    /// The collected registry, time series and trace.
    pub fn report(self) -> TelemetryReport {
        TelemetryReport { registry: self.registry, series: self.series, trace: self.trace }
    }

    /// Pushes one time-series row from `s` and advances the sampling
    /// clock past it.
    fn sample(&mut self, s: &CycleSnap) {
        let (l1, l2, l3) = s.caches;
        let mut row = vec![
            s.cycle,
            s.retired,
            s.fetched,
            s.mispredictions,
            s.retired_branches,
            s.rob as u64,
            s.iq as u64,
            s.lsq as u64,
            s.front_q as u64,
            s.bq_len,
            s.vq_len,
            s.tq_len,
            l1.accesses,
            l1.hits,
            l2.accesses,
            l2.hits,
            l3.accesses,
            l3.hits,
        ];
        row.extend_from_slice(&s.cpi_slots);
        self.series.push_row(row);
        while self.next_sample <= s.cycle {
            self.next_sample += self.interval;
        }
        if self.trace.is_enabled() {
            let rob = s.rob as u64;
            let args =
                vec![("bq", s.bq_len.into()), ("vq", s.vq_len.into()), ("tq", s.tq_len.into()), ("rob", rob.into())];
            self.trace.counter("occupancy", "pipe", s.cycle, 0, args);
        }
    }
}

impl Observer for Telemetry {
    const STAGE_EVENTS: bool = true;
    const CYCLES: bool = true;
    const LAPS: bool = true;

    fn observe(&mut self, ev: &KernelEvent) {
        match *ev {
            // The gauges sample the committed queues at retirement, the
            // point `max_*_occupancy` is taken, so each gauge's
            // high-water mark equals that counter by construction.
            KernelEvent::Retire { bq, vq, tq, .. } => {
                self.registry.gauge_set("core.bq_occupancy", bq);
                self.registry.gauge_set("core.vq_occupancy", vq);
                self.registry.gauge_set("core.tq_occupancy", tq);
            }
            KernelEvent::Squash(_) => {}
            KernelEvent::Recovery { cycle, pc, seq, target, squashed } => {
                self.registry.counter_add("core.recoveries", 1);
                self.registry.histogram_record("core.squash_depth", squashed);
                let args = vec![
                    ("pc", u64::from(pc).into()),
                    ("seq", seq.into()),
                    ("target", u64::from(target).into()),
                    ("squashed", squashed.into()),
                ];
                self.trace.instant("recovery", "pipe", cycle, 0, 0, args);
            }
            KernelEvent::FaultFired(rec) => {
                let args =
                    vec![("site", format!("{:?}", rec.kind.site()).into()), ("kind", format!("{:?}", rec.kind).into())];
                self.trace.instant("fault", "fault", rec.cycle, 0, 0, args);
            }
            KernelEvent::Cycle(ref s) => {
                if self.interval > 0 && s.cycle >= self.next_sample {
                    self.sample(s);
                }
            }
            KernelEvent::StageLap { sched, .. } => {
                self.sched.ready_checks += sched.ready_checks;
                self.sched.wakeup_events += sched.wakeup_events;
                self.sched.poll_equiv += sched.poll_equiv;
            }
            KernelEvent::Halted(ref s) => {
                // Final row at the true end-of-run cycle (it captures the
                // halting cycle's retirements), unless one landed there.
                if self.interval > 0 && self.series.rows.last().is_none_or(|r| r[0] != s.cycle) {
                    self.sample(s);
                }
                // Mirror the headline aggregates so the registry's
                // rendering is self-contained, plus the scheduler's
                // efficiency: readiness checks it performed, wakeup events
                // it processed, and what a per-cycle polling scheduler
                // would have scanned.
                let r = &mut self.registry;
                r.counter_add("core.cycles", s.cycle);
                r.counter_add("core.retired", s.retired);
                r.counter_add("core.fetched", s.fetched);
                r.counter_add("core.mispredictions", s.mispredictions);
                r.counter_add("core.retired_branches", s.retired_branches);
                r.counter_add("sched.ready_checks", self.sched.ready_checks);
                r.counter_add("sched.wakeup_events", self.sched.wakeup_events);
                r.counter_add("sched.poll_equiv", self.sched.poll_equiv);
            }
        }
    }
}
