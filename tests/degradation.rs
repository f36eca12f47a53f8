//! Fault-injection tests of the engine's graceful degradation: a farm that
//! loses slaves mid-run quarantines them and finishes on the survivors,
//! and only losing the *last* worker is an error.

use pts_mkp::prelude::*;
use pvm_lite::WorkerPool;
use std::time::Duration;

fn small_instance() -> Instance {
    gk_instance(
        "degradation_it",
        GkSpec {
            n: 40,
            m: 5,
            tightness: 0.5,
            seed: 33,
        },
    )
}

/// A config with a short report deadline so straggler tests don't stall
/// the suite; kills are detected by the deadline too, so every mode uses
/// it.
fn faulty_cfg(seed: u64) -> RunConfig {
    RunConfig {
        p: 4,
        rounds: 3,
        report_timeout: Duration::from_millis(1500),
        ..RunConfig::new(60_000, seed)
    }
}

/// Kill round for a mode: SEQ/ITS/DTS fold everything into round 0, the
/// multi-round modes get a genuine mid-run kill.
fn mid_round(mode: Mode) -> usize {
    match mode {
        Mode::Sequential | Mode::Independent | Mode::Decomposed => 0,
        _ => 1,
    }
}

#[test]
fn every_parallel_mode_survives_losing_one_slave_mid_run() {
    let inst = small_instance();
    for mode in Mode::all() {
        if mode == Mode::Sequential {
            continue; // its only worker is its last worker — see below
        }
        let mut engine = Engine::new(4);
        engine.inject_fault(fault_at_round(1, mid_round(mode), FaultAction::Kill));
        let r = engine.run(&inst, mode, &faulty_cfg(5)).unwrap();
        assert!(r.best.is_feasible(&inst), "{mode:?} infeasible");
        assert_eq!(r.lost_workers.len(), 1, "{mode:?}: {:?}", r.lost_workers);
        let loss = &r.lost_workers[0];
        assert_eq!(loss.worker, 1, "{mode:?} lost the wrong worker");
        assert!(
            matches!(&loss.cause, LossCause::Panicked(msg) if msg.contains("fault injection")),
            "{mode:?} cause not enriched to the panic: {:?}",
            loss.cause
        );
    }
}

#[test]
fn degraded_runs_are_deterministic() {
    let inst = small_instance();
    for mode in [Mode::CooperativeAdaptive, Mode::Asynchronous] {
        let run = || {
            let mut engine = Engine::new(4);
            engine.inject_fault(fault_at_round(2, 1, FaultAction::Kill));
            engine.run(&inst, mode, &faulty_cfg(9)).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best.value(), b.best.value(), "{mode:?} nondeterministic");
        assert_eq!(a.round_best, b.round_best, "{mode:?} nondeterministic");
        assert_eq!(a.lost_workers, b.lost_workers, "{mode:?} losses diverged");
    }
}

#[test]
fn kill_at_round_zero_and_last_round_both_degrade_gracefully() {
    let inst = small_instance();
    let cfg = faulty_cfg(7);
    for round in [0, cfg.rounds - 1] {
        for mode in [Mode::CooperativeAdaptive, Mode::Asynchronous] {
            let mut engine = Engine::new(4);
            engine.inject_fault(fault_at_round(0, round, FaultAction::Kill));
            let r = engine.run(&inst, mode, &cfg).unwrap();
            assert!(r.best.is_feasible(&inst), "{mode:?} round {round}");
            assert_eq!(
                r.lost_workers.len(),
                1,
                "{mode:?} round {round}: {:?}",
                r.lost_workers
            );
            assert_eq!(r.lost_workers[0].worker, 0, "{mode:?} round {round}");
        }
    }
}

#[test]
fn losing_the_only_worker_is_an_error() {
    let inst = small_instance();
    let mut engine = Engine::new(2);
    engine.inject_fault(fault_at_round(0, 0, FaultAction::Kill));
    let err = engine
        .run(&inst, Mode::Sequential, &faulty_cfg(3))
        .unwrap_err();
    let EngineError::AllWorkersLost { losses } = err else {
        panic!("expected AllWorkersLost, got {err}");
    };
    assert_eq!(losses.len(), 1);
    assert_eq!(losses[0].worker, 0);
    // The engine survives the disaster: the next run is clean.
    let ok = engine.run(&inst, Mode::Sequential, &faulty_cfg(3)).unwrap();
    assert!(ok.best.is_feasible(&inst));
    assert!(!ok.is_degraded());
}

#[test]
fn straggler_exceeding_the_deadline_is_quarantined() {
    let inst = small_instance();
    // The delay (4s) dwarfs the report deadline (1.5s): the master must
    // give up on the straggler, not wait it out. ATS runs CTS2's round
    // loop; it is checked too so the two labels keep one quarantine path.
    for mode in [Mode::CooperativeAdaptive, Mode::Asynchronous] {
        let mut engine = Engine::new(4);
        engine.inject_fault(fault_at_round(
            2,
            1,
            FaultAction::Delay(Duration::from_secs(4)),
        ));
        let r = engine.run(&inst, mode, &faulty_cfg(11)).unwrap();
        assert!(r.best.is_feasible(&inst), "{mode:?}");
        assert_eq!(r.lost_workers.len(), 1, "{mode:?}: {:?}", r.lost_workers);
        let loss = &r.lost_workers[0];
        assert_eq!(loss.worker, 2, "{mode:?}");
        assert_eq!(loss.cause, LossCause::Deadline, "{mode:?}");
    }
}

#[test]
fn degraded_engine_pool_heals_for_the_next_run() {
    let inst = small_instance();
    let mut engine = Engine::new(4);
    let spawned = engine.spawned_threads();
    engine.inject_fault(fault_at_round(1, 1, FaultAction::Kill));
    let degraded = engine
        .run(&inst, Mode::CooperativeAdaptive, &faulty_cfg(13))
        .unwrap();
    assert!(degraded.is_degraded());
    // An injected task kill is caught on its thread — no respawn needed —
    // and the same engine serves a clean full-strength run right after.
    let clean = engine
        .run(&inst, Mode::CooperativeAdaptive, &faulty_cfg(13))
        .unwrap();
    assert!(!clean.is_degraded());
    assert!(clean.best.value() >= degraded.best.value() || clean.best.is_feasible(&inst));
    assert_eq!(engine.spawned_threads(), spawned);
}

#[test]
fn worker_pool_replaces_a_dead_thread() {
    // The pvm-lite healing path end to end: kill an OS thread, watch the
    // pool respawn it on the next run.
    let mut pool = WorkerPool::new(4);
    let before = pool.thread_ids();
    pool.kill_thread(2);
    let r = pool.run(|ctx| ctx.tid()).unwrap();
    assert_eq!(r, vec![0, 1, 2, 3]);
    assert_eq!(pool.respawned_threads(), 1);
    let after = pool.thread_ids();
    assert_ne!(before[2], after[2], "dead thread not replaced");
    assert_eq!(before[0], after[0], "healthy thread respawned");
}
