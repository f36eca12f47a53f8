//! Telemetry acceptance tests (DESIGN.md §11): the observability layer
//! must *measure without perturbing*. Three properties anchor that:
//!
//! 1. Deterministic runs yield deterministic counters — the `--metrics`
//!    JSON of two identically seeded runs is byte-identical, in every
//!    mode, and the counters agree with the engine's own aggregates.
//! 2. Span timings nest sanely: the master's Round span contains its
//!    Gather and Assign phases; slaves record one TS inner-loop span per
//!    served assignment.
//! 3. The bounded event ring degrades by dropping the *oldest* events and
//!    says how many it dropped; the metrics codec round-trips and
//!    tolerates unknown fields (forward compatibility).

use mkp::prop_check;
use mkp::testkit::gen;
use parallel_tabu::telemetry::COUNTER_COUNT;
use pts_mkp::prelude::*;

fn instance() -> Instance {
    gk_instance(
        "telemetry_it",
        GkSpec {
            n: 40,
            m: 5,
            tightness: 0.5,
            seed: 23,
        },
    )
}

fn cfg(seed: u64) -> RunConfig {
    RunConfig {
        p: 3,
        rounds: 3,
        ..RunConfig::new(60_000, seed)
    }
}

const ALL_MODES: [Mode; 6] = [
    Mode::Sequential,
    Mode::Independent,
    Mode::Cooperative,
    Mode::CooperativeAdaptive,
    Mode::Asynchronous,
    Mode::Decomposed,
];

#[test]
fn metrics_json_is_byte_identical_across_repeats_in_every_mode() {
    let inst = instance();
    for mode in ALL_MODES {
        let run = || {
            let mut engine = Engine::new(3);
            engine.run(&inst, mode, &cfg(11)).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(
            a.telemetry.to_metrics_json(),
            b.telemetry.to_metrics_json(),
            "{mode:?}: counters must be deterministic"
        );
        // The slave-side kernel counters must agree with the engine's own
        // aggregation of the processed reports: nothing lost, nothing
        // double-counted.
        assert_eq!(
            a.telemetry.total(Counter::MovesExecuted),
            a.total_moves,
            "{mode:?}"
        );
        assert_eq!(
            a.telemetry.total(Counter::CandidateEvals),
            a.total_evals,
            "{mode:?}"
        );
        // Every accepted report was counted, and the master broadcast the
        // problem to the whole farm exactly once.
        assert!(
            a.telemetry.counter(0, Counter::ReportsReceived) > 0,
            "{mode:?}"
        );
        assert_eq!(
            a.telemetry.counter(0, Counter::ProblemMsgsSent),
            3,
            "{mode:?}: one problem broadcast per pool slave"
        );
        // The comm layer saw at least the protocol messages the engine
        // says it sent.
        assert!(
            a.telemetry.counter(0, Counter::MsgsSent)
                >= a.telemetry.counter(0, Counter::ProblemMsgsSent)
                    + a.telemetry.counter(0, Counter::AssignMsgsSent),
            "{mode:?}"
        );
        assert!(a.telemetry.counter(0, Counter::BytesSent) > 0, "{mode:?}");
    }
}

#[test]
fn disabling_telemetry_changes_counters_not_results() {
    let inst = instance();
    let mut on = Engine::new(3);
    let with_tel = on.run(&inst, Mode::CooperativeAdaptive, &cfg(13)).unwrap();
    let mut off = Engine::new(3);
    off.set_telemetry(false);
    let without_tel = off.run(&inst, Mode::CooperativeAdaptive, &cfg(13)).unwrap();
    assert_eq!(with_tel.best.bits(), without_tel.best.bits());
    assert_eq!(with_tel.round_best, without_tel.round_best);
    assert_eq!(without_tel.telemetry.total(Counter::MovesExecuted), 0);
    assert!(without_tel.telemetry.events.is_empty());
    assert!(with_tel.telemetry.total(Counter::MovesExecuted) > 0);
}

#[test]
fn synchronous_round_span_contains_gather_and_assign() {
    let inst = instance();
    let run_cfg = cfg(17);
    let mut engine = Engine::new(3);
    for mode in [Mode::Cooperative, Mode::Asynchronous] {
        let r = engine.run(&inst, mode, &run_cfg).unwrap();
        let t = &r.telemetry;
        let round = t.span(0, SpanKind::Round).expect("rounds ran");
        let gather = t.span(0, SpanKind::Gather).expect("gathers ran");
        let assign = t.span(0, SpanKind::Assign).expect("assigns ran");
        assert_eq!(round.count as usize, run_cfg.rounds, "{mode:?}");
        assert_eq!(gather.count as usize, run_cfg.rounds, "{mode:?}");
        assert_eq!(assign.count as usize, run_cfg.rounds, "{mode:?}");
        // Gather and Assign happen strictly inside a Round span, so their
        // total time cannot exceed the rounds' total.
        assert!(
            round.total_ns >= gather.total_ns + assign.total_ns,
            "{mode:?}: round {} < gather {} + assign {}",
            round.total_ns,
            gather.total_ns,
            assign.total_ns
        );
        // Each slave timed one TS inner loop per served assignment.
        for task in 1..=run_cfg.p {
            let ts = t.span(task, SpanKind::TsInner).expect("slave spans");
            assert_eq!(ts.count as usize, run_cfg.rounds, "{mode:?} task {task}");
            assert!(ts.max_ns >= ts.p95_ns && ts.p95_ns >= ts.p50_ns);
        }
    }
}

#[test]
fn new_incumbent_events_trace_the_improvement_curve() {
    let inst = instance();
    let mut engine = Engine::new(3);
    let r = engine
        .run(&inst, Mode::CooperativeAdaptive, &cfg(29))
        .unwrap();
    let incumbents: Vec<&parallel_tabu::Event> = r
        .telemetry
        .events
        .iter()
        .filter(|e| e.kind == EventKind::NewIncumbent)
        .collect();
    assert!(!incumbents.is_empty(), "no incumbent was ever recorded");
    // Causal order: seq strictly increases, values strictly improve, and
    // the last one is the reported best.
    for w in incumbents.windows(2) {
        assert!(w[0].seq < w[1].seq);
        assert!(w[0].value < w[1].value);
    }
    assert_eq!(incumbents.last().unwrap().value, r.best.value());
}

#[test]
fn event_ring_overflow_keeps_newest_and_counts_dropped() {
    let tel = Telemetry::with_event_capacity(2, 4);
    for round in 0..10 {
        tel.event(1, EventKind::NewIncumbent, round, round as i64);
    }
    let snap = tel.snapshot();
    assert_eq!(snap.counter(1, Counter::EventsDropped), 6);
    let rounds: Vec<usize> = snap.events.iter().map(|e| e.round).collect();
    assert_eq!(rounds, vec![6, 7, 8, 9], "newest events must survive");
    // The drop count is part of the metrics document, so truncation is
    // never silent.
    let doc = parse_metrics_json(&snap.to_metrics_json()).unwrap();
    assert_eq!(doc.workers[1].get("events_dropped"), Some(6));
}

#[test]
fn prop_metrics_json_roundtrips_any_counter_matrix() {
    // Values stay under 2^53: the document is JSON, so readers (ours
    // included) may go through a double. No real counter gets near that.
    prop_check!(
        |rng| gen::vec_of(rng, 0, 120, |r| r.next_u64() & ((1u64 << 48) - 1)),
        |values| {
            let ntasks = 1 + values.len() / COUNTER_COUNT;
            let value_at = |task: usize, i: usize| {
                values
                    .get(task * COUNTER_COUNT + i)
                    .copied()
                    .unwrap_or((task * 31 + i) as u64 * 97)
            };
            let tel = Telemetry::new(ntasks);
            for task in 0..ntasks {
                for (i, c) in Counter::ALL.iter().enumerate() {
                    if *c == Counter::EventsDropped {
                        continue; // owned by the event ring, not addable
                    }
                    if c.merges_by_max() {
                        tel.record_max(task, *c, value_at(task, i));
                    } else {
                        tel.add(task, *c, value_at(task, i));
                    }
                }
            }
            let snap = tel.snapshot();
            let doc = validate_metrics_json(&snap.to_metrics_json()).unwrap();
            assert_eq!(doc.schema, METRICS_SCHEMA);
            assert_eq!(doc.workers.len(), ntasks);
            for (task, w) in doc.workers.iter().enumerate() {
                assert_eq!(w.task, task);
                for (i, c) in Counter::ALL.iter().enumerate() {
                    let expect = if *c == Counter::EventsDropped {
                        0
                    } else {
                        value_at(task, i)
                    };
                    assert_eq!(
                        w.get(c.name()),
                        Some(expect),
                        "task {task} counter {}",
                        c.name()
                    );
                }
            }
        }
    );
}

#[test]
fn prop_metrics_parser_tolerates_unknown_fields() {
    // A newer writer may add fields and whole counters anywhere; an older
    // reader must keep what it knows and carry the rest.
    prop_check!(
        |rng| (rng.next_u64() >> 1, gen::usize_in(rng, 0, 100_000)),
        |input| {
            let (value, suffix) = input;
            let value = value & ((1u64 << 48) - 1);
            let text = format!(
                "{{\n  \"schema\": \"{METRICS_SCHEMA}\",\n  \"generator_{suffix}\": \"x\",\n  \
                 \"workers\": [\n    {{\"task\": 0, \"extra\": {{\"deep\": [1, 2]}}, \
                 \"counters\": {{\"moves_executed\": {value}, \"zz_{suffix}\": 7}}}}\n  ]\n}}\n"
            );
            let doc = parse_metrics_json(&text).unwrap();
            assert_eq!(doc.workers.len(), 1);
            assert_eq!(doc.workers[0].get("moves_executed"), Some(value));
            assert_eq!(doc.workers[0].get(&format!("zz_{suffix}")), Some(7));
        }
    );
}
