//! Self-healing tests: supervised slave resurrection under fault injection,
//! and checkpoint/resume of the master state.
//!
//! The two acceptance properties of the recovery layer (DESIGN.md §10):
//!
//! 1. A run that loses a slave to a kill fault, with a restart budget,
//!    finishes with ZERO lost workers and at least one recorded
//!    resurrection — the loss costs wall-clock, not search quality.
//! 2. A run interrupted after a checkpoint and resumed from the snapshot
//!    produces a final report bit-identical (objective, best solution,
//!    per-round curves — wall clock excluded) to the uninterrupted run.

use pts_mkp::prelude::*;
use std::time::Duration;

fn small_instance() -> Instance {
    gk_instance(
        "recovery_it",
        GkSpec {
            n: 40,
            m: 5,
            tightness: 0.5,
            seed: 41,
        },
    )
}

/// Short deadlines and an aggressive restart budget: kills are detected
/// within 1.5 s and revived almost immediately.
fn healing_cfg(seed: u64) -> RunConfig {
    RunConfig {
        p: 4,
        rounds: 3,
        report_timeout: Duration::from_millis(1500),
        max_restarts: 2,
        restart_backoff: Duration::from_millis(10),
        ..RunConfig::new(60_000, seed)
    }
}

fn snap_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mkp_recovery_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn killed_slave_is_resurrected_with_zero_losses() {
    // The tentpole acceptance test: a mid-run kill with restarts enabled
    // ends with no quarantined workers and a recorded resurrection, under
    // both the CTS2 and the ATS label.
    let inst = small_instance();
    for mode in [Mode::CooperativeAdaptive, Mode::Asynchronous] {
        let mut engine = Engine::new(4);
        engine.inject_fault(fault_at_round(1, 1, FaultAction::Kill));
        let r = engine.run(&inst, mode, &healing_cfg(5)).unwrap();
        assert!(r.best.is_feasible(&inst), "{mode:?} infeasible");
        assert!(
            r.lost_workers.is_empty(),
            "{mode:?} still lost workers: {:?}",
            r.lost_workers
        );
        assert!(!r.resurrections.is_empty(), "{mode:?} recorded no revival");
        let rev = &r.resurrections[0];
        assert_eq!(rev.worker, 1, "{mode:?} revived the wrong worker");
        assert_eq!(rev.attempt, 1, "{mode:?} needed more than one attempt");
        assert_eq!(r.round_best.len(), healing_cfg(5).rounds, "{mode:?}");
        // Telemetry agrees with the recovery records, and the rebirth
        // protocol sent exactly one extra problem + seed: the initial
        // broadcast reaches the 4 pool slaves, the resurrected
        // incarnation gets one re-send of each.
        let t = &r.telemetry;
        assert_eq!(t.counter(0, Counter::Restarts), 1, "{mode:?}");
        assert_eq!(t.counter(0, Counter::ProblemMsgsSent), 5, "{mode:?}");
        assert_eq!(t.counter(0, Counter::SeedMsgsSent), 1, "{mode:?}");
        let revivals: Vec<&parallel_tabu::Event> = t
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Resurrection)
            .collect();
        assert_eq!(revivals.len(), 1, "{mode:?}");
        assert_eq!(revivals[0].value, 1, "{mode:?}: event names the worker");
    }
}

#[test]
fn resurrection_outcomes_are_deterministic() {
    // Two identical faulty runs heal identically: same best, same curves,
    // same resurrection records.
    let inst = small_instance();
    let run = || {
        let mut engine = Engine::new(4);
        engine.inject_fault(fault_at_round(2, 1, FaultAction::Kill));
        engine
            .run(&inst, Mode::CooperativeAdaptive, &healing_cfg(9))
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.best.value(), b.best.value());
    assert_eq!(a.best.bits(), b.best.bits());
    assert_eq!(a.round_best, b.round_best);
    assert_eq!(a.resurrections, b.resurrections);
    assert!(a.lost_workers.is_empty() && b.lost_workers.is_empty());
    // The deterministic-counters guarantee must survive fault injection
    // and healing, not just clean runs.
    assert_eq!(a.telemetry.to_metrics_json(), b.telemetry.to_metrics_json());
}

#[test]
fn exhausted_restart_budget_degrades_to_quarantine() {
    // kill-repeat murders every incarnation on its first delivery, so the
    // restart budget must run dry and the run must fall back to the old
    // degradation behavior: quarantine, survivors finish.
    let inst = small_instance();
    let mut engine = Engine::new(4);
    engine.inject_fault(fault_at_round(1, 1, FaultAction::KillRepeatedly));
    let cfg = healing_cfg(7);
    let r = engine.run(&inst, Mode::CooperativeAdaptive, &cfg).unwrap();
    assert!(r.best.is_feasible(&inst));
    assert!(r.is_degraded(), "budget exhaustion must quarantine");
    assert_eq!(r.lost_workers.len(), 1, "{:?}", r.lost_workers);
    assert_eq!(r.lost_workers[0].worker, 1);
    // Every budgeted attempt was spent before giving up, none succeeded.
    assert!(
        r.resurrections.is_empty(),
        "a kill-repeat incarnation cannot report: {:?}",
        r.resurrections
    );
    assert_eq!(r.round_best.len(), cfg.rounds, "survivors must finish");
    // The telemetry trace shows the whole arc: every budgeted restart was
    // attempted, then the worker was quarantined — exactly once.
    assert_eq!(
        r.telemetry.counter(0, Counter::Restarts),
        cfg.max_restarts as u64
    );
    let quarantines: Vec<&parallel_tabu::Event> = r
        .telemetry
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Quarantine)
        .collect();
    assert_eq!(quarantines.len(), 1);
    assert_eq!(quarantines[0].value, 1, "event names the worker");
}

#[test]
fn delayed_straggler_report_is_dropped_by_epoch_not_processed() {
    // A slave delayed past the report deadline is resurrected; its late
    // report then arrives from a *superseded* incarnation and must be
    // dropped by the epoch check — visible in `epochs_dropped` — rather
    // than processed twice or crashing the gather.
    //
    // Timing: unlike a killed slave, a delayed one *survives* and keeps
    // its pool thread until it gives up on the silent master, so the
    // reborn incarnation (queued on the same thread) only runs after the
    // straggler's patience expires. The schedule below makes that fit
    // inside the first rebirth window: the straggler wakes at ~700 ms,
    // files its stale report, idles out after the explicit 600 ms
    // patience (~1305 ms) — well before the rebirth gather deadline
    // (600 ms round timeout + 400 ms backoff + 600 ms gather = 1600 ms).
    // The stale report lands during the backoff, so the rebirth gather
    // dequeues it first and must count it in `epochs_dropped`. The short
    // patience also makes the *healthy* slaves give up during the long
    // rebirth round, so it must be the final round: nothing further is
    // asked of them, and their early exit is the benign kind the master
    // never observes.
    let inst = small_instance();
    let cfg = RunConfig {
        p: 4,
        rounds: 2,
        report_timeout: Duration::from_millis(600),
        max_restarts: 2,
        restart_backoff: Duration::from_millis(400),
        slave_patience: Some(Duration::from_millis(600)),
        ..RunConfig::new(60_000, 17)
    };
    let mut engine = Engine::new(4);
    engine.inject_fault(fault_at_round(
        1,
        1,
        FaultAction::Delay(Duration::from_millis(700)),
    ));
    let r = engine.run(&inst, Mode::CooperativeAdaptive, &cfg).unwrap();
    assert!(r.lost_workers.is_empty(), "{:?}", r.lost_workers);
    assert_eq!(r.resurrections.len(), 1, "{:?}", r.resurrections);
    assert_eq!(r.round_best.len(), cfg.rounds);
    let t = &r.telemetry;
    assert_eq!(t.counter(0, Counter::Restarts), 1);
    assert_eq!(
        t.counter(0, Counter::EpochsDropped),
        1,
        "the straggler's stale report must be dropped by epoch"
    );
    // 4 workers x 2 rounds of accepted reports, plus the rebirth redo,
    // minus the one the straggler never usefully delivered.
    assert_eq!(t.counter(0, Counter::ReportsReceived), 8);
}

#[test]
fn resumed_run_matches_the_uninterrupted_run_bit_for_bit() {
    // Acceptance criterion: interrupt-then-resume reproduces the
    // uninterrupted report exactly — objective, solution bits, per-round
    // curve and work counters (wall clock excluded by construction).
    let inst = small_instance();
    let path = snap_path("mid.snap");
    let mut cfg = RunConfig {
        p: 3,
        rounds: 4,
        ..RunConfig::new(60_000, 21)
    };
    for mode in [
        Mode::Cooperative,
        Mode::CooperativeAdaptive,
        Mode::Core,
        Mode::Repair,
    ] {
        let mut engine = Engine::new(3);
        let uninterrupted = engine.run(&inst, mode, &cfg).unwrap();

        cfg.checkpoint = Some(CheckpointCfg {
            path: path.clone(),
            every: 2,
        });
        let checkpointed = engine.run(&inst, mode, &cfg).unwrap();
        assert_eq!(
            checkpointed.best.bits(),
            uninterrupted.best.bits(),
            "{mode:?}: checkpoint writing must not perturb the search"
        );

        // "Interrupt": discard the finished run, continue from the file.
        let snap = Snapshot::load(&path).unwrap();
        assert_eq!(snap.next_round, 2, "{mode:?} snapshot at the wrong round");
        cfg.checkpoint = None;
        let resumed = engine.resume(&inst, snap, &cfg).unwrap();

        assert_eq!(resumed.best.value(), uninterrupted.best.value(), "{mode:?}");
        assert_eq!(resumed.best.bits(), uninterrupted.best.bits(), "{mode:?}");
        assert_eq!(resumed.round_best, uninterrupted.round_best, "{mode:?}");
        assert_eq!(resumed.total_moves, uninterrupted.total_moves, "{mode:?}");
        assert_eq!(resumed.total_evals, uninterrupted.total_evals, "{mode:?}");
        assert_eq!(
            resumed.regenerations, uninterrupted.regenerations,
            "{mode:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn resume_survives_a_fault_in_the_original_run() {
    // Lose a worker *after* the checkpoint was written: the snapshot holds
    // the healthy state, and resuming it (without the fault) completes the
    // run cleanly.
    let inst = small_instance();
    let path = snap_path("faulty.snap");
    let mut cfg = healing_cfg(13);
    cfg.rounds = 4;
    cfg.max_restarts = 0; // pure degradation in the original run
    cfg.checkpoint = Some(CheckpointCfg {
        path: path.clone(),
        every: 2,
    });
    let mut engine = Engine::new(4);
    engine.inject_fault(fault_at_round(1, 2, FaultAction::Kill));
    let degraded = engine.run(&inst, Mode::CooperativeAdaptive, &cfg).unwrap();
    assert!(degraded.is_degraded(), "kill after checkpoint must degrade");

    let snap = Snapshot::load(&path).unwrap();
    assert!(
        snap.alive.iter().all(|&a| a),
        "snapshot taken before the kill must see a healthy farm"
    );
    cfg.checkpoint = None;
    let resumed = engine.resume(&inst, snap, &cfg).unwrap();
    assert!(!resumed.is_degraded(), "resume re-runs the lost rounds");
    assert!(resumed.best.is_feasible(&inst));
    assert_eq!(resumed.round_best.len(), cfg.rounds);
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_files_survive_a_byte_for_byte_round_trip() {
    // The on-disk frame is the contract between sessions: load(save(s))
    // must reproduce every field, and the file must re-encode identically.
    let inst = small_instance();
    let path = snap_path("roundtrip.snap");
    let cfg = RunConfig {
        p: 3,
        rounds: 4,
        checkpoint: Some(CheckpointCfg {
            path: path.clone(),
            every: 2,
        }),
        ..RunConfig::new(60_000, 31)
    };
    let mut engine = Engine::new(3);
    engine.run(&inst, Mode::CooperativeAdaptive, &cfg).unwrap();

    let first = std::fs::read(&path).unwrap();
    let snap = Snapshot::load(&path).unwrap();
    let again = snap.to_file_bytes();
    assert_eq!(first, again, "decode→encode changed the file");
    assert_eq!(Snapshot::from_file_bytes(&again).unwrap(), snap);
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_snapshots_are_rejected_never_trusted() {
    let inst = small_instance();
    let path = snap_path("corrupt.snap");
    let cfg = RunConfig {
        p: 3,
        rounds: 4,
        checkpoint: Some(CheckpointCfg {
            path: path.clone(),
            every: 2,
        }),
        ..RunConfig::new(60_000, 37)
    };
    let mut engine = Engine::new(3);
    engine.run(&inst, Mode::CooperativeAdaptive, &cfg).unwrap();
    let good = std::fs::read(&path).unwrap();

    // Flip one byte anywhere: either the checksum or a structural check
    // must reject the file — quietly, not by panicking.
    let step = (good.len() / 24).max(1);
    for i in (0..good.len()).step_by(step) {
        let mut bad = good.clone();
        bad[i] ^= 0x40;
        if bad == good {
            continue;
        }
        match Snapshot::from_file_bytes(&bad) {
            Err(_) => {}
            // A flip inside the payload that still decodes must at least
            // be caught by the checksum — reaching Ok would mean the
            // checksum ignored the payload.
            Ok(_) => panic!("byte {i} flipped yet the snapshot loaded"),
        }
    }
    // Truncation at every prefix length is a clean error too.
    for cut in 0..good.len() {
        assert!(
            Snapshot::from_file_bytes(&good[..cut]).is_err(),
            "prefix of {cut} bytes accepted"
        );
    }
    std::fs::remove_file(&path).ok();
}
