//! Layer probes of the traced run: short, direct calls into each layer's
//! public items on the workload's own first instance, so every per-layer
//! metric is measured on every workload (where a layer is not on the
//! workload's path, its figure is the "should not move" control).

use crate::common::{engine_metrics, Ctx, RoundStats, Sample, P};
use crate::serve::{probe_server, ServerRuns};
use crate::solve::{farm_setup, remote_solve, round_p50_us};
use crate::stats::{median, percentile, sorted, Metric};
use mkp::eval::Ratios;
use mkp::greedy::greedy;
use mkp::{Instance, Xoshiro256};
use mkp_tabu::moves::{apply_move, MoveStats};
use mkp_tabu::tabu_list::Recency;
use mkp_tabu::{Budget, TsConfig};
use parallel_tabu::messages::ProblemMsg;
use parallel_tabu::{Engine, Journal, Mode, RunConfig, SliceOutcome, Snapshot};
use pvm_lite::{read_frame, write_frame, Wire};
use std::time::Instant;

/// Round figures of the in-process and the socket runs of one config, and
/// the farm set-up times, when the workload itself produced them.
pub struct TransportRuns {
    pub local: Vec<RoundStats>,
    pub socket: Vec<RoundStats>,
    pub setup_s: Vec<f64>,
}

pub struct Probe {
    pub inst: Instance,
    /// The workload's CTS2 shape.
    pub base: RunConfig,
    pub lp_ms: Vec<f64>,
    /// Traced in-process runs of the workload's own loop …
    pub engine_rounds: Vec<RoundStats>,
    /// … which cover these modes; the others are probed.
    pub covered_modes: Vec<Mode>,
    pub transport: Option<TransportRuns>,
    pub server: Option<ServerRuns>,
}

/// The probe job shape: the base config cut to at most 8 rounds, with the
/// budget cut in proportion, so a one-round slice chain stays short.
pub fn probe_cfg(base: &RunConfig) -> RunConfig {
    let rounds = base.rounds.min(8);
    RunConfig {
        rounds,
        total_evals: base.total_evals * rounds as u64 / base.rounds as u64,
        ..base.clone()
    }
}

pub fn run_all(ctx: &Ctx, probe: Probe) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut engine = Engine::new(P);
    out.extend(kernels(ctx, &probe.inst, probe.base.seed));
    out.extend(tabu_search(ctx, &probe.inst, &probe.base));

    let mut runs = probe.engine_rounds;
    for mode in Mode::all() {
        if !probe.covered_modes.contains(&mode) {
            for rep in 0..2 {
                let _s = ctx.tracer.span("engine.run", rep, 0);
                let cfg = RunConfig {
                    seed: probe.base.seed + rep,
                    ..probe.base.clone()
                };
                if let Ok(r) = engine.run(&probe.inst, mode, &cfg) {
                    runs.push(RoundStats::of(&r, &cfg));
                }
            }
        }
        out.extend(engine_metrics(mode, &runs));
    }

    out.push(Metric::new(
        "lp.solve_ms",
        median(&probe.lp_ms),
        "ms",
        probe.lp_ms.len(),
    ));

    let transport = probe
        .transport
        .unwrap_or_else(|| transport_runs(ctx, &mut engine, &probe.inst, &probe.base));
    out.extend(transport_metrics(ctx, &transport));

    let server = probe
        .server
        .unwrap_or_else(|| probe_server(ctx, &probe.inst, &probe_cfg(&probe.base)));
    out.extend(server.metrics());
    out.extend(journal(ctx, &probe.inst, &probe.base));
    out.extend(snapshot_and_park(
        ctx,
        &mut engine,
        &probe.inst,
        &probe.base,
    ));
    out
}

/// `moves.*`: batches of timed `apply_move` calls on a greedy start.
fn kernels(ctx: &Ctx, inst: &Instance, seed: u64) -> Vec<Metric> {
    const BATCH: u64 = 25;
    let ratios = Ratios::new(inst);
    let mut sol = greedy(inst, &ratios);
    let mut tabu = Recency::new(inst.n(), 15);
    let mut stats = MoveStats::default();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut now = 0u64;
    let mut step = |stats: &mut MoveStats| {
        apply_move(
            inst,
            &ratios,
            &mut sol,
            &mut tabu,
            now,
            2,
            i64::MAX,
            0.1,
            &mut rng,
            stats,
        );
        now += 1;
    };
    for _ in 0..200 {
        step(&mut stats);
    }
    let before = stats;
    let mut per_call = Vec::new();
    for b in 0..200 {
        let _s = ctx.tracer.span("kernels.apply_move", b, 0);
        let t = Instant::now();
        for _ in 0..BATCH {
            step(&mut stats);
        }
        per_call.push(t.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    std::hint::black_box(&stats);
    let moves = (stats.moves - before.moves).max(1) as f64;
    let evals_per_move = (stats.candidate_evals - before.candidate_evals) as f64 / moves;
    vec![
        Metric::new(
            "moves.apply_move_ns_p50",
            median(&per_call),
            "ns",
            per_call.len(),
        ),
        Metric::new(
            "moves.evals_per_move",
            evals_per_move,
            "count",
            moves as usize,
        ),
        // Computed, not measured: one i64 weight per constraint for every
        // candidate a move examines.
        Metric::new(
            "moves.computed_bytes_per_move",
            evals_per_move * inst.m() as f64 * 8.0,
            "B",
            moves as usize,
        ),
    ]
}

/// `ts.*`: single-thread `tabu::search::run` at one assignment's budget.
fn tabu_search(ctx: &Ctx, inst: &Instance, base: &RunConfig) -> Vec<Metric> {
    let budget = (base.total_evals / (base.p * base.rounds) as u64).max(10_000);
    let ratios = Ratios::new(inst);
    let config = TsConfig::default_for(inst.n());
    let (mut ms, mut ratio) = (Vec::new(), Vec::new());
    let (mut evals, mut secs) = (0u64, 0.0);
    for k in 0..10 {
        let mut rng = Xoshiro256::seed_from_u64(base.seed + k);
        let _s = ctx.tracer.span("ts.search", k, 0);
        let t = Instant::now();
        let report = mkp_tabu::run(
            inst,
            &ratios,
            greedy(inst, &ratios),
            &config,
            Budget::evals(budget),
            &mut rng,
        );
        let dt = t.elapsed().as_secs_f64();
        secs += dt;
        ms.push(dt * 1e3);
        evals += report.stats.candidate_evals;
        ratio.push(report.stats.candidate_evals as f64 / budget as f64);
    }
    let n = ms.len();
    vec![
        Metric::new("ts.evals_per_s", evals as f64 / secs, "1/s", n),
        Metric::new("ts.call_ms_p50", median(&ms), "ms", n),
        Metric::new("ts.budget_ratio_p50", median(&ratio), "ratio", n),
        Metric::new(
            "ts.budget_ratio_max",
            ratio.iter().cloned().fold(0.0, f64::max),
            "ratio",
            n,
        ),
    ]
}

/// The same CTS2 config in-process and over the socket, twice each, plus
/// five farm set-ups.
fn transport_runs(
    ctx: &Ctx,
    engine: &mut Engine,
    inst: &Instance,
    base: &RunConfig,
) -> TransportRuns {
    let mut runs = TransportRuns {
        local: Vec::new(),
        socket: Vec::new(),
        setup_s: Vec::new(),
    };
    for rep in 0..2 {
        let cfg = RunConfig {
            seed: base.seed + rep,
            ..base.clone()
        };
        {
            let _s = ctx.tracer.span("engine.run", rep, 0);
            if let Ok(r) = engine.run(inst, Mode::CooperativeAdaptive, &cfg) {
                runs.local.push(RoundStats::of(&r, &cfg));
            }
        }
        if let Ok(r) = remote_solve(
            ctx,
            &ctx.tracer,
            inst,
            Mode::CooperativeAdaptive,
            &cfg,
            rep,
            0,
        ) {
            runs.socket.push(RoundStats::of(&r, &cfg));
        }
    }
    for k in 0..5 {
        if let Ok(s) = farm_setup(ctx, inst, k) {
            runs.setup_s.push(s);
        }
    }
    runs
}

fn transport_metrics(ctx: &Ctx, runs: &TransportRuns) -> Vec<Metric> {
    let rounds: u64 = runs.socket.iter().map(|s| s.rounds).sum::<u64>().max(1);
    let bytes: u64 = runs.socket.iter().map(|s| s.bytes).sum();
    let msgs: u64 = runs.socket.iter().map(|s| s.msgs).sum();
    let report = runs
        .socket
        .iter()
        .map(|s| s.report_bytes as f64)
        .collect::<Vec<_>>();
    let payload = (median(&report) as usize).max(64);
    let rtt = frame_rtt_us(ctx, payload);
    let setup_ms: Vec<f64> = runs.setup_s.iter().map(|s| s * 1e3).collect();
    let n = runs.socket.len();
    vec![
        Metric::new(
            "transport.overhead_us_per_round",
            round_p50_us(&runs.socket) - round_p50_us(&runs.local),
            "us",
            n,
        ),
        Metric::new(
            "transport.bytes_per_round",
            bytes as f64 / rounds as f64,
            "B",
            n,
        ),
        Metric::new(
            "transport.msgs_per_round",
            msgs as f64 / rounds as f64,
            "count",
            n,
        ),
        Metric::new("transport.frame_rtt_us_p50", median(&rtt), "us", rtt.len()),
        Metric::new(
            "transport.setup_ms",
            median(&setup_ms),
            "ms",
            setup_ms.len(),
        ),
    ]
}

/// Round trips of one `payload`-byte frame through `write_frame` /
/// `read_frame` over a Unix socket pair with an echo thread.
fn frame_rtt_us(ctx: &Ctx, payload: usize) -> Vec<f64> {
    use std::os::unix::net::UnixStream;
    let (mut ours, mut theirs) = UnixStream::pair().expect("socketpair");
    let echo = std::thread::spawn(move || {
        while let Ok(Some(env)) = read_frame(&mut theirs) {
            if write_frame(&mut theirs, env.from, env.tag, &env.data).is_err() {
                return;
            }
        }
    });
    let data = vec![0xA5u8; payload];
    let _s = ctx.tracer.span("transport.frame_rtt", 0, 0);
    let mut rtt = Vec::new();
    for _ in 0..2000 {
        let t = Instant::now();
        write_frame(&mut ours, 0, 3, &data).expect("frame write");
        let back = read_frame(&mut ours).expect("frame read").expect("echo");
        rtt.push(t.elapsed().as_nanos() as f64 / 1e3);
        std::hint::black_box(back.data.len());
    }
    drop(ours);
    echo.join().expect("echo thread");
    rtt
}

/// `journal.append_ms_*`: durable appends at the job server's record
/// sizes (SUBMIT carries the problem; PARKED and INCUMBENT are small; DONE
/// carries the report).
fn journal(ctx: &Ctx, inst: &Instance, base: &RunConfig) -> Vec<Metric> {
    let path = ctx.dir.join("probe.mkpj");
    let _ = std::fs::remove_file(&path);
    let (mut journal, _) = Journal::open(&path).expect("open the probe journal");
    let submit = ProblemMsg::from_instance(inst).to_bytes().len() + 64;
    let done = 64 + inst.n() / 8 + 8 * base.rounds;
    let sizes = [(1u8, submit), (2, 24), (3, 24), (4, done)];
    let mut ms = Vec::new();
    for k in 0..40 {
        let (kind, len) = sizes[k % sizes.len()];
        let payload = vec![k as u8; len];
        let _s = ctx.tracer.span("journal.append", k as u64, 0);
        let t = Instant::now();
        journal.append(kind, &payload).expect("journal append");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let v = sorted(&ms);
    vec![
        Metric::new("journal.append_ms_p50", percentile(&v, 50.0), "ms", v.len()),
        Metric::new("journal.append_ms_p90", percentile(&v, 90.0), "ms", v.len()),
    ]
}

/// `snapshot.*` on a job parked after one round, and the cost of a
/// one-round slice chain over one uninterrupted run, per round.
fn snapshot_and_park(
    ctx: &Ctx,
    engine: &mut Engine,
    inst: &Instance,
    base: &RunConfig,
) -> Vec<Metric> {
    let cfg = probe_cfg(base);
    let mode = Mode::CooperativeAdaptive;
    let snap = match engine.run_slice(inst, mode, &cfg, None, Some(1)) {
        Ok(SliceOutcome::Parked(snap)) => *snap,
        other => panic!(
            "a {}-round CTS2 run must park after one round: {other:?}",
            cfg.rounds
        ),
    };
    let path = ctx.dir.join("probe.snap");
    let (mut save, mut load) = (Vec::new(), Vec::new());
    for k in 0..10 {
        let t = Instant::now();
        {
            let _s = ctx.tracer.span("snapshot.save", k, 0);
            snap.save(&path).expect("snapshot save");
        }
        save.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        {
            let _s = ctx.tracer.span("snapshot.load", k, 0);
            std::hint::black_box(Snapshot::load(&path).expect("snapshot load"));
        }
        load.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let bytes = snap.to_file_bytes().len();

    let (mut whole, mut chain) = (Vec::new(), Vec::new());
    for k in 0..3 {
        let t = Instant::now();
        {
            let _s = ctx.tracer.span("engine.run", k, 0);
            engine
                .run(inst, mode, &cfg)
                .expect("uninterrupted probe run");
        }
        whole.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let mut resume = None;
        loop {
            let _s = ctx.tracer.span("engine.run_slice", k, 0);
            match engine.run_slice(inst, mode, &cfg, resume.take(), Some(1)) {
                Ok(SliceOutcome::Parked(s)) => resume = Some(*s),
                Ok(SliceOutcome::Finished(_)) => break,
                Err(e) => panic!("slice chain failed: {e}"),
            }
        }
        chain.push(t.elapsed().as_secs_f64() * 1e3);
    }
    vec![
        Metric::new("snapshot.save_ms_p50", median(&save), "ms", save.len()),
        Metric::new("snapshot.load_ms_p50", median(&load), "ms", load.len()),
        Metric::new("snapshot.bytes", bytes as f64, "B", 1),
        Metric::new(
            "server.park_resume_ms",
            (median(&chain) - median(&whole)) / cfg.rounds as f64,
            "ms",
            chain.len(),
        ),
    ]
}

/// `trace.overhead_pct`: traced vs untraced median of the same timing.
pub fn trace_overhead(plain: &[Sample], traced: &[Sample], f: fn(&Sample) -> u64) -> Metric {
    let p = median(&plain.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    let t = median(&traced.iter().map(|s| f(s) as f64).collect::<Vec<_>>());
    Metric::new("trace.overhead_pct", (t - p) / p * 100.0, "%", traced.len())
}
