//! The stepping kernel's one way out, `Core::drive` and its observers:
//! observation must be pure — same results as a plain run, resumable at
//! every pause — with every event delivered exactly where the pipeline
//! produced it and one terminal `Halted`.

use cfd_core::{Core, CoreConfig, KernelEvent, Observer, PauseAt, RunReport, Stop, STAGE_COUNT};
use cfd_isa::{Assembler, MemImage, Program, Reg};

const LIMIT: u64 = 10_000_000;

/// A loop with a data-dependent branch (some recoveries guaranteed).
fn demo_program() -> Program {
    let (i, n, p, acc) = (Reg::new(1), Reg::new(2), Reg::new(3), Reg::new(4));
    let mut a = Assembler::new();
    a.li(n, 3000);
    a.label("top");
    a.xor(p, i, 5i64);
    a.and(p, p, 1i64);
    a.beqz(p, "skip");
    a.addi(acc, acc, 1);
    a.label("skip");
    a.addi(i, i, 1);
    a.blt(i, n, "top");
    a.halt();
    a.finish().unwrap()
}

fn new_core() -> Core {
    Core::new(CoreConfig::default(), demo_program(), MemImage::new()).unwrap()
}

fn plain() -> RunReport {
    new_core().run(LIMIT).unwrap()
}

/// Counts every event kind, checks the per-cycle stream is gapless, and
/// pauses every `every` cycles (0 = never).
#[derive(Default)]
struct Tally {
    every: u64,
    next_pause: u64,
    pauses: u64,
    retired: u64,
    squashed: u64,
    recoveries: u64,
    faults: u64,
    cycles: u64,
    last_cycle: Option<u64>,
    laps: [u64; STAGE_COUNT],
    halts: u64,
}

impl Observer for Tally {
    const STAGE_EVENTS: bool = true;
    const CYCLES: bool = true;
    const LAPS: bool = true;

    fn observe(&mut self, ev: &KernelEvent) {
        match ev {
            KernelEvent::Retire { .. } => self.retired += 1,
            KernelEvent::Squash(inst) => {
                assert!(inst.retire.is_none(), "a squashed instruction never retires");
                self.squashed += 1;
            }
            KernelEvent::Recovery { squashed, .. } => {
                assert!(*squashed > 0, "recovery squashed nothing");
                self.recoveries += 1;
            }
            KernelEvent::FaultFired(_) => self.faults += 1,
            KernelEvent::Cycle(snap) => {
                if let Some(last) = self.last_cycle {
                    assert_eq!(snap.cycle, last + 1, "cycle snapshots skipped a cycle");
                }
                self.last_cycle = Some(snap.cycle);
                self.cycles += 1;
            }
            KernelEvent::StageLap { stage, .. } => self.laps[*stage as usize] += 1,
            KernelEvent::Halted(_) => self.halts += 1,
        }
    }

    fn pause(&mut self, cycle: u64, _retired: u64) -> bool {
        if self.every == 0 || cycle < self.next_pause {
            return false;
        }
        self.next_pause = cycle + self.every;
        self.pauses += 1;
        true
    }
}

/// Driving the kernel with a full observer that keeps pausing produces a
/// report byte-identical to a plain `run`, and the events account for
/// exactly what the report counts.
#[test]
fn observed_paused_run_matches_plain_run() {
    let plain = plain();
    let mut core = new_core();
    let mut tally = Tally { every: 777, next_pause: 777, ..Tally::default() };
    while core.drive(LIMIT, &mut tally).unwrap() == Stop::Paused {}
    let report = core.run(LIMIT).unwrap();
    assert_eq!(format!("{report:?}"), format!("{plain:?}"));

    let s = &plain.stats;
    assert_eq!(tally.pauses, s.cycles / 777, "one pause per 777 cycles");
    assert_eq!(tally.retired, s.retired);
    assert_eq!(tally.recoveries, s.immediate_recoveries + s.retire_recoveries);
    assert!(tally.recoveries >= 1, "data-dependent branch produced no recoveries");
    assert!(tally.squashed >= tally.recoveries);
    assert_eq!(tally.faults, 0, "no fault armed");
    // Every gate pass yields a snapshot, the uncounted halting cycle too;
    // commit is the halting cycle's only stage.
    assert_eq!(tally.cycles, s.cycles + 1);
    assert_eq!(tally.laps, [s.cycles, s.cycles, s.cycles, s.cycles, s.cycles + 1]);
    assert_eq!(tally.halts, 1);
}

/// `PauseAt::Cycle` stops on the exact cycle boundary, and asking again
/// there returns at once without stepping.
#[test]
fn pause_at_cycle_is_exact() {
    let mut core = new_core();
    assert_eq!(core.drive(LIMIT, &mut PauseAt::Cycle(1000)).unwrap(), Stop::Paused);
    assert_eq!(core.checkpoint().cycle(), 1000);
    let fingerprint = core.fingerprint();
    assert_eq!(core.drive(LIMIT, &mut PauseAt::Cycle(1000)).unwrap(), Stop::Paused);
    assert_eq!(core.fingerprint(), fingerprint, "a satisfied pause must not step");
    assert_eq!(core.drive(LIMIT, &mut PauseAt::Retired(1)).unwrap(), Stop::Paused, "already retired some");
    assert_eq!(format!("{:?}", core.run(LIMIT).unwrap()), format!("{:?}", plain()));
}

/// `Halted` is terminal: `drive` keeps returning it without stepping or
/// re-delivering the event, and `run` packages the report.
#[test]
fn halted_is_terminal() {
    let mut core = new_core();
    assert_eq!(core.drive(LIMIT, &mut ()).unwrap(), Stop::Halted);
    let fingerprint = core.fingerprint();
    let mut tally = Tally::default();
    for _ in 0..3 {
        assert_eq!(core.drive(LIMIT, &mut tally).unwrap(), Stop::Halted);
    }
    assert_eq!((tally.halts, tally.cycles), (0, 0), "nothing happens after the halt");
    assert_eq!(core.fingerprint(), fingerprint);
    assert_eq!(format!("{:?}", core.run(LIMIT).unwrap()), format!("{:?}", plain()));
}
