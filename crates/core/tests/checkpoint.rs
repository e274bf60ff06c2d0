//! Checkpoint/restore determinism contract.
//!
//! The central claim (DESIGN.md §17): a core restored from a checkpoint
//! taken at cycle *C* and run to completion produces a `RunReport`
//! byte-identical to the uninterrupted run's. These tests exercise the
//! claim at every quarter point of every catalog workload (reduced scale;
//! `experiments ckpt` repeats it at full benchmark scale), reject
//! tampered checkpoints, and lockstep-compare architectural fingerprints
//! between an uninterrupted core and a restored twin every 250 cycles.

use cfd_core::{Core, CoreConfig, CoreError, PauseAt, Stop};
use cfd_workloads::{catalog, Scale, Variant};

const LIMIT: u64 = 50_000_000;

/// Byte-comparison proxy: the derived `Debug` rendering covers every
/// `RunReport` field deterministically.
fn repr(report: &cfd_core::RunReport) -> String {
    format!("{report:?}")
}

fn test_scale() -> Scale {
    Scale { n: 200, seed: 0x5eed_cafe_f00d_d00d }
}

/// Runs `workload` uninterrupted, then re-runs it three times with a
/// checkpoint/restore round-trip at each quarter of the uninterrupted
/// cycle count, asserting byte-identical reports.
#[test]
fn quarter_point_roundtrips_match_uninterrupted() {
    for entry in catalog() {
        let w = entry.build(Variant::Base, test_scale());
        let full = Core::new(CoreConfig::default(), w.program.clone(), w.mem.clone())
            .unwrap()
            .run(LIMIT)
            .unwrap_or_else(|e| panic!("{}: uninterrupted run failed: {e}", entry.name));
        let full_repr = repr(&full);
        let cycles = full.stats.cycles;
        assert!(cycles >= 4, "{}: too short to quarter", entry.name);
        for quarter in 1..=3u64 {
            let at = cycles * quarter / 4;
            let mut core = Core::new(CoreConfig::default(), w.program.clone(), w.mem.clone()).unwrap();
            match core.drive(LIMIT, &mut PauseAt::Cycle(at)) {
                Ok(Stop::Paused) => {}
                other => panic!("{}: expected a pause at {at}, got {other:?}", entry.name),
            }
            let ckpt = core.checkpoint();
            assert_eq!(ckpt.cycle(), at);
            let restored =
                Core::restore(ckpt).unwrap_or_else(|e| panic!("{}: restore at {at} rejected: {e}", entry.name));
            let resumed =
                restored.run(LIMIT).unwrap_or_else(|e| panic!("{}: resumed run from {at} failed: {e}", entry.name));
            assert_eq!(
                repr(&resumed),
                full_repr,
                "{}: restore at cycle {at} ({quarter}/4) diverged from uninterrupted run",
                entry.name
            );
        }
    }
}

/// A checkpoint whose captured state was mutated after sealing (or whose
/// version tag is unknown) must be rejected by restore.
#[test]
fn corrupt_checkpoint_rejected() {
    let entry = &catalog()[0];
    let w = entry.build(Variant::Base, test_scale());
    let mut core = Core::new(CoreConfig::default(), w.program.clone(), w.mem.clone()).unwrap();
    core.drive(LIMIT, &mut PauseAt::Cycle(500)).unwrap();

    let mut tampered = core.checkpoint();
    tampered.corrupt_state_for_test();
    match Core::restore(tampered) {
        Err(CoreError::Checkpoint(msg)) => assert!(msg.contains("digest"), "unexpected message: {msg}"),
        other => panic!("tampered state accepted: {other:?}", other = other.err()),
    }

    let mut wrong_version = core.checkpoint();
    wrong_version.corrupt_version_for_test();
    match Core::restore(wrong_version) {
        Err(CoreError::Checkpoint(msg)) => assert!(msg.contains("version"), "unexpected message: {msg}"),
        other => panic!("wrong version accepted: {other:?}", other = other.err()),
    }

    // An untouched checkpoint from the same core still restores.
    assert!(Core::restore(core.checkpoint()).is_ok());
}

/// Lockstep differential: an uninterrupted core and a checkpoint/restore
/// twin, both paused every 250 cycles, report identical architectural
/// fingerprints at every pause, all the way to identical halts and
/// byte-identical reports.
#[test]
fn lockstep_fingerprints_match_every_pause() {
    let entry = &catalog()[0];
    let w = entry.build(Variant::Base, test_scale());
    let new_core = || Core::new(CoreConfig::default(), w.program.clone(), w.mem.clone()).unwrap();

    let mut reference = new_core();
    let mut subject = new_core();
    // Round-trip the subject through a checkpoint mid-flight after a few
    // pauses; the reference is only ever paused.
    let mut beats = 0u64;
    loop {
        let at = PauseAt::Cycle((beats + 1) * 250);
        let a = reference.drive(LIMIT, &mut { at }).unwrap();
        let b = subject.drive(LIMIT, &mut { at }).unwrap();
        assert_eq!(a, b, "drives stopped differently");
        assert_eq!(reference.fingerprint(), subject.fingerprint(), "fingerprints diverged at {at:?}");
        if a == Stop::Halted {
            break;
        }
        beats += 1;
        if beats == 3 {
            subject = Core::restore(subject.checkpoint()).unwrap();
            assert_eq!(reference.fingerprint(), subject.fingerprint(), "restore changed state");
        }
    }
    assert!(beats >= 3, "workload too short for the mid-flight round-trip");
    assert_eq!(repr(&reference.run(LIMIT).unwrap()), repr(&subject.run(LIMIT).unwrap()), "final reports diverged");
}
