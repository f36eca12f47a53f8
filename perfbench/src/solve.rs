//! The solve workloads: a warm in-process `Engine` rotating modes
//! (solve-gk, solve-large), and CTS2 over a Unix socket with two slave
//! threads (farm-socket).

use crate::common::{
    end_to_end, gap_pct, mix, print_by_mode, print_deciles, print_setup, report_ttt_ns, Ctx,
    Fingerprint, Outcome, RoundStats, Sample, P, PATIENCE,
};
use crate::probes::{self, Probe};
use crate::stats::median;
use crate::trace::Tracer;
use mkp::generate::{gk_instance, large_instance, GkSpec, LargeSpec};
use mkp::Instance;
use parallel_tabu::messages::{tags, ProblemMsg};
use parallel_tabu::{run_remote, serve_slave, Engine, Mode, ModeReport, RunConfig};
use pvm_lite::{Endpoint, SocketHub, Transport, Wire};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A workload's instances and the (instance, mode) pairs of one pass.
pub struct Spec {
    pub instances: Vec<Instance>,
    pub pairs: Vec<(usize, Mode)>,
    /// Shape of every solve; its seed is the run seed.
    pub base: RunConfig,
}

impl Spec {
    fn new(instances: Vec<Instance>, modes: &[Mode], base: RunConfig) -> Spec {
        let pairs = (0..instances.len())
            .flat_map(|i| modes.iter().map(move |&m| (i, m)))
            .collect();
        Spec {
            instances,
            pairs,
            base,
        }
    }

    /// The `j`-th solve of a pass sequence: pass `j / pairs` walks the
    /// pairs again, every solve with its own seed.
    pub fn job(&self, j: usize) -> (&Instance, Mode, RunConfig) {
        let (inst, mode) = self.pairs[j % self.pairs.len()];
        let cfg = RunConfig {
            seed: mix(self.base.seed, j as u64),
            ..self.base.clone()
        };
        (&self.instances[inst], mode, cfg)
    }

    /// The CTS2 shape the layer probes use, with a seed of its own.
    pub fn probe_base(&self) -> RunConfig {
        RunConfig {
            seed: mix(self.base.seed, u64::MAX),
            ..self.base.clone()
        }
    }
}

fn base_cfg(seed: u64, rounds: usize, budget: u64) -> RunConfig {
    RunConfig {
        p: P,
        rounds,
        ..RunConfig::new(budget, seed)
    }
}

/// `count` GK instances of `m`×`n` at tightness 0.5, seeded from the run
/// seed and `salt`. One tightness keeps instance-to-instance cost close,
/// so a run's percentiles do not hinge on which instances it drew.
pub fn gk_set(seed: u64, salt: u64, count: usize, m: usize, n: usize) -> Vec<Instance> {
    (0..count)
        .map(|i| {
            gk_instance(
                format!("gk{m}x{n}-{i}"),
                GkSpec {
                    n,
                    m,
                    tightness: 0.5,
                    seed: mix(seed, salt + i as u64),
                },
            )
        })
        .collect()
}

/// Paper Table-2 setting: GK 25×500, SEQ/ITS/CTS1/CTS2/ATS/DTS.
pub fn gk_spec(seed: u64) -> Spec {
    let modes = [
        Mode::Sequential,
        Mode::Independent,
        Mode::Cooperative,
        Mode::CooperativeAdaptive,
        Mode::Asynchronous,
        Mode::Decomposed,
    ];
    Spec::new(
        gk_set(seed, 1000, 12, 25, 500),
        &modes,
        base_cfg(seed, 8, 4_000_000),
    )
}

/// The P1 setting: `--class large` 50×2000, CTS2/CORE/REPAIR.
pub fn large_spec(seed: u64) -> Spec {
    let instances = (0..12)
        .map(|i| {
            large_instance(
                format!("large50x2000-{i}"),
                LargeSpec {
                    n: 2000,
                    m: 50,
                    tightness: 0.5,
                    correlation: 0.5,
                    seed: mix(seed, 2000 + i as u64),
                },
            )
        })
        .collect();
    let modes = [Mode::CooperativeAdaptive, Mode::Core, Mode::Repair];
    Spec::new(instances, &modes, base_cfg(seed, 2, 100_000))
}

/// Many rounds of tiny assignments on GK 10×250, so the engine round and
/// the transport dominate. A socket solve's wall time moves in the hub's
/// 10 ms polling steps, so the solves are made long enough (512 rounds)
/// that one step is a small share of them.
pub fn farm_spec(seed: u64) -> Spec {
    Spec::new(
        gk_set(seed, 3000, 48, 10, 250),
        &[Mode::CooperativeAdaptive],
        base_cfg(seed, 512, 4_000_000),
    )
}

/// LP bound of every instance, timed (the `lp.solve_ms` layer figure).
pub fn lp_bounds(ctx: &Ctx, instances: &[Instance]) -> (Vec<f64>, Vec<f64>) {
    let mut bounds = Vec::new();
    let mut ms = Vec::new();
    for (k, inst) in instances.iter().enumerate() {
        let _span = ctx.tracer.span("lp.lp_bound", k as u64, 0);
        let t = Instant::now();
        let lp = mkp_exact::bounds::lp_bound(inst).expect("LP relaxation of a generated instance");
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        bounds.push(lp.objective);
    }
    (bounds, ms)
}

/// The first pass, untimed: the references the timed passes' first pass
/// must reproduce bit for bit, the gap of each (deterministic per seed),
/// and the engine's telemetry of each run.
struct References {
    refs: Vec<Option<Fingerprint>>,
    gaps: Vec<f64>,
    rounds: Vec<RoundStats>,
}

fn references(spec: &Spec, lp: &[f64], engine: &mut Engine) -> References {
    let mut out = References {
        refs: Vec::new(),
        gaps: Vec::new(),
        rounds: Vec::new(),
    };
    for k in 0..spec.pairs.len() {
        let (inst, mode, cfg) = spec.job(k);
        let report = engine.run(inst, mode, &cfg).ok();
        if let Some(r) = &report {
            out.gaps.push(gap_pct(lp[spec.pairs[k].0], r.best.value()));
            out.rounds.push(RoundStats::of(r, &cfg));
        }
        out.refs.push(report.as_ref().map(Fingerprint::of_report));
    }
    out
}

/// What one measured stretch of solves produced.
struct Measured {
    samples: Vec<Sample>,
    rounds: Vec<RoundStats>,
    /// Sum of the solve calls' wall times.
    busy: Duration,
}

/// Whole passes over the pairs for about `seconds` (at least two). The
/// first pass replays the references and must match them bit for bit;
/// later passes use fresh seeds, so the percentiles cover many distinct
/// searches. Every result is checked; failures count and the loop goes on.
fn measure(
    ctx: &Ctx,
    spec: &Spec,
    refs: &[Option<Fingerprint>],
    traced: bool,
    seconds: f64,
    out: &mut Outcome,
    mut solve: impl FnMut(&Tracer, &Instance, Mode, &RunConfig, u64, u64) -> Result<ModeReport, String>,
) -> Measured {
    let off = Tracer::new(false);
    let tracer = if traced { &ctx.tracer } else { &off };
    let mut m = Measured {
        samples: Vec::new(),
        rounds: Vec::new(),
        busy: Duration::ZERO,
    };
    let t0 = Instant::now();
    let mut j = 0;
    loop {
        let pass_start = Instant::now();
        for reference in refs {
            let (inst, mode, cfg) = spec.job(j);
            let first_pass = j < spec.pairs.len();
            j += 1;
            let request = j as u64;
            let root = tracer.span("bench.solve", request, 0);
            let t = Instant::now();
            let result = solve(tracer, inst, mode, &cfg, request, root.id());
            let wall = t.elapsed();
            m.busy += wall;
            let _check = tracer.span("bench.check", request, root.id());
            let verdict = match &result {
                Err(e) => Err(format!("{} {}: {e}", inst.name(), mode.label())),
                Ok(_) if first_pass && reference.is_none() => Err(format!(
                    "{} {}: the reference run failed",
                    inst.name(),
                    mode.label()
                )),
                Ok(r) => Fingerprint::of_report(r).check(
                    inst,
                    r.is_degraded(),
                    reference.as_ref().filter(|_| first_pass),
                ),
            };
            if let Ok(r) = &result {
                if verdict.is_ok() {
                    let ns = wall.as_nanos() as u64;
                    m.samples.push(Sample {
                        mode,
                        solve_ns: ns,
                        job_ns: ns,
                        ttt_ns: report_ttt_ns(r),
                        evals: r.total_evals,
                    });
                }
                if traced {
                    m.rounds.push(RoundStats::of(r, &cfg));
                }
            }
            out.count(&verdict);
        }
        let last = pass_start.elapsed().as_secs_f64();
        if j >= 2 * spec.pairs.len() && t0.elapsed().as_secs_f64() + last / 2.0 >= seconds {
            return m;
        }
    }
}

/// The untraced run, or the traced run's two halves plus the layer probes.
fn finish(
    ctx: &Ctx,
    spec: &Spec,
    out: &mut Outcome,
    setup: &[f64],
    gaps: &[f64],
    mut run: impl FnMut(bool, f64, &mut Outcome) -> Measured,
    probe: impl FnOnce(Vec<RoundStats>) -> Probe,
) {
    print_setup(setup);
    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = run(false, seconds, out);
    print_by_mode(&plain.samples, spec.base.total_evals);
    print_deciles(&plain.samples);
    out.end_to_end = end_to_end(&plain.samples, plain.busy, setup, gaps);
    if ctx.trace {
        let traced = run(true, seconds, out);
        let mut layer = probes::run_all(ctx, probe(traced.rounds));
        layer.push(probes::trace_overhead(
            &plain.samples,
            &traced.samples,
            |s| s.solve_ns,
        ));
        out.per_layer = layer;
    }
}

/// solve-gk and solve-large: one warm engine runs the rotation.
pub fn run_engine(ctx: &Ctx, spec: Spec) -> Outcome {
    let (lp, lp_ms) = lp_bounds(ctx, &spec.instances);
    let mut out = Outcome::default();
    // Set-up: a fresh pool until it has answered a first minimal solve
    // (ITS, one round, one evaluation), which includes every worker's
    // per-problem set-up on the workload's first instance.
    let first = RunConfig {
        p: P,
        rounds: 1,
        ..RunConfig::new(1, 0)
    };
    let mut setup = Vec::new();
    let mut engine = Engine::new(P);
    for _ in 0..11 {
        let t = Instant::now();
        let mut e = Engine::new(P);
        let answered = e.run(&spec.instances[0], Mode::Independent, &first);
        setup.push(t.elapsed().as_secs_f64());
        if let Err(e) = answered {
            out.count(&Err(format!("first solve on a fresh engine: {e}")));
        }
        engine = e;
    }
    let r = references(&spec, &lp, &mut engine);
    let probe = |rounds| Probe {
        inst: spec.instances[0].clone(),
        base: spec.probe_base(),
        lp_ms,
        engine_rounds: rounds,
        covered_modes: spec.pairs.iter().map(|&(_, m)| m).collect(),
        transport: None,
        server: None,
    };
    let run = |traced, seconds, out: &mut Outcome| {
        measure(
            ctx,
            &spec,
            &r.refs,
            traced,
            seconds,
            out,
            |tracer, inst, mode, cfg, req, parent| {
                let _s = tracer.span("engine.run", req, parent);
                engine.run(inst, mode, cfg).map_err(|e| e.to_string())
            },
        )
    };
    finish(ctx, &spec, &mut out, &setup, &r.gaps, run, probe);
    out
}

/// Start `P` slave threads that dial `ep` once its socket file exists.
fn spawn_slaves(ep: &Endpoint, path: &Path) -> Vec<JoinHandle<Result<(), String>>> {
    (0..P)
        .map(|_| {
            let ep = ep.clone();
            let path = path.to_path_buf();
            std::thread::spawn(move || {
                let t = Instant::now();
                while !path.exists() {
                    if t.elapsed() > PATIENCE {
                        return Err("no hub appeared".to_string());
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                match serve_slave(&ep, PATIENCE) {
                    Ok(parallel_tabu::ServeOutcome::Finished) => Ok(()),
                    Ok(other) => Err(format!("slave ended with {other:?}")),
                    Err(e) => Err(e),
                }
            })
        })
        .collect()
}

fn join_slaves(slaves: Vec<JoinHandle<Result<(), String>>>) -> Result<(), String> {
    for s in slaves {
        s.join()
            .map_err(|_| "slave thread panicked".to_string())??;
    }
    Ok(())
}

/// One socket farm brought up and torn down: bind the hub, start the
/// slaves, wait until all are connected (the measured part), then hand
/// them a problem and STOP so they exit cleanly. Returns seconds.
pub fn farm_setup(ctx: &Ctx, inst: &Instance, request: u64) -> Result<f64, String> {
    let path = ctx.dir.join("setup.sock");
    let ep = Endpoint::Unix(path.clone());
    let span = ctx.tracer.span("transport.hub_setup", request, 0);
    let t = Instant::now();
    let hub = SocketHub::bind(&ep, P, PATIENCE).map_err(|e| format!("bind {ep}: {e}"))?;
    let slaves = spawn_slaves(&ep, &path);
    let connected = hub.wait_ready(PATIENCE);
    let secs = t.elapsed().as_secs_f64();
    drop(span);
    let problem = ProblemMsg::from_instance(inst).to_bytes();
    for k in 1..=P {
        let _ = hub.send_bytes(k, tags::PROBLEM, problem.clone());
        let _ = hub.send_bytes(k, tags::STOP, Vec::new());
    }
    join_slaves(slaves)?;
    drop(hub);
    if connected < P {
        return Err(format!("only {connected} of {P} slaves connected"));
    }
    Ok(secs)
}

/// One solve over the socket: bind, slaves connect, rounds, STOP.
pub fn remote_solve(
    ctx: &Ctx,
    tracer: &Tracer,
    inst: &Instance,
    mode: Mode,
    cfg: &RunConfig,
    request: u64,
    parent: u64,
) -> Result<ModeReport, String> {
    let path = ctx.dir.join("farm.sock");
    let ep = Endpoint::Unix(path.clone());
    let slaves = {
        let _s = tracer.span("remote.spawn_slaves", request, parent);
        spawn_slaves(&ep, &path)
    };
    let result = {
        let _s = tracer.span("remote.run_remote", request, parent);
        run_remote(inst, mode, cfg, &ep).map_err(|e| e.to_string())
    };
    let joined = {
        let _s = tracer.span("remote.join_slaves", request, parent);
        join_slaves(slaves)
    };
    let report = result?;
    joined?;
    Ok(report)
}

/// farm-socket: CTS2 through `run_remote` with two slave threads. The
/// first pass is checked against in-process references of the same
/// configurations; their telemetry is also the in-process side of the
/// transport figures.
pub fn run_farm(ctx: &Ctx, spec: Spec) -> Outcome {
    let (lp, lp_ms) = lp_bounds(ctx, &spec.instances);
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    for k in 0..25 {
        match farm_setup(ctx, &spec.instances[0], k) {
            Ok(s) => setup.push(s),
            Err(e) => out.count(&Err(format!("farm setup: {e}"))),
        }
    }
    let r = references(&spec, &lp, &mut Engine::new(P));
    let probe = |socket| Probe {
        inst: spec.instances[0].clone(),
        base: spec.probe_base(),
        lp_ms,
        engine_rounds: r.rounds.clone(),
        covered_modes: vec![Mode::CooperativeAdaptive],
        transport: Some(probes::TransportRuns {
            local: r.rounds.clone(),
            socket,
            setup_s: setup.clone(),
        }),
        server: None,
    };
    let run = |traced, seconds, out: &mut Outcome| {
        measure(
            ctx,
            &spec,
            &r.refs,
            traced,
            seconds,
            out,
            |tracer, inst, mode, cfg, req, parent| {
                remote_solve(ctx, tracer, inst, mode, cfg, req, parent)
            },
        )
    };
    finish(ctx, &spec, &mut out, &setup, &r.gaps, run, probe);
    out
}

/// Median of the per-run Round p50s, in µs.
pub fn round_p50_us(runs: &[RoundStats]) -> f64 {
    median(
        &runs
            .iter()
            .map(|s| s.round_p50_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    )
}
