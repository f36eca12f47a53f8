//! The serve workload: an in-process job server with a one-round quantum,
//! fed back to back by two clients. Parked jobs stay in memory: the
//! durable state directory is left off, because on the reference host an
//! fsync takes 28–71 ms depending on the 5-second window, which swamps
//! everything else a job does. The journal and spool costs are measured
//! by the `journal.*` and `snapshot.*` probes instead.

use crate::common::{
    end_to_end, gap_pct, mix, print_deciles, print_setup, Ctx, Fingerprint, Outcome, Sample, P,
    PATIENCE,
};
use crate::probes::{self, Probe};
use crate::solve::{gk_set, lp_bounds};
use crate::stats::{mean, median, percentile, sorted, Metric};
use crate::trace::Tracer;
use mkp::Instance;
use parallel_tabu::{
    serve, submit_job, Engine, JobReport, Mode, RunConfig, ServeBackend, ServeConfig, ServeStats,
    SubmitEvent, SubmitOutcome, SubmitSpec,
};
use pvm_lite::Endpoint;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Instances per run; job `j` runs on instance `j % INSTANCES`.
const INSTANCES: usize = 24;
/// Jobs with a precomputed solo reference.
const REFERENCES: usize = 480;
const ROUNDS: usize = 4;
const BUDGET: u64 = 240_000;

/// Client-side timings of the job server's own steps.
#[derive(Default)]
pub struct ServerRuns {
    /// SUBMIT → ACCEPTED.
    pub accept_ms: Vec<f64>,
    /// SUBMIT → first INCUMBENT.
    pub first_incumbent_ms: Vec<f64>,
    /// Between consecutive INCUMBENTs of one job (one slice each).
    pub slice_gap_ms: Vec<f64>,
    pub slices_per_job: Vec<f64>,
}

impl ServerRuns {
    pub fn metrics(&self) -> Vec<Metric> {
        let pct = |v: &[f64], q| {
            if v.is_empty() {
                0.0
            } else {
                percentile(&sorted(v), q)
            }
        };
        let n = self.accept_ms.len();
        vec![
            Metric::new("server.accept_ms_p50", pct(&self.accept_ms, 50.0), "ms", n),
            Metric::new("server.accept_ms_p90", pct(&self.accept_ms, 90.0), "ms", n),
            Metric::new(
                "server.first_incumbent_ms_p50",
                pct(&self.first_incumbent_ms, 50.0),
                "ms",
                n,
            ),
            Metric::new(
                "server.slice_gap_ms_p50",
                median(&self.slice_gap_ms),
                "ms",
                self.slice_gap_ms.len(),
            ),
            Metric::new(
                "server.slices_per_job",
                mean(&self.slices_per_job),
                "count",
                n,
            ),
        ]
    }

    fn add(&mut self, t: &JobTimes) {
        let ms = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64() * 1e3;
        if let Some(acc) = t.accepted {
            self.accept_ms.push(ms(t.submit, acc));
        }
        if let Some(&(first, _)) = t.incumbents.first() {
            self.first_incumbent_ms.push(ms(t.submit, first));
        }
        for w in t.incumbents.windows(2) {
            self.slice_gap_ms.push(ms(w[0].0, w[1].0));
        }
        self.slices_per_job.push(t.incumbents.len() as f64);
    }
}

struct Server {
    ep: Endpoint,
    drain: Arc<AtomicBool>,
    handle: JoinHandle<Result<ServeStats, String>>,
}

impl Server {
    /// Start a server in a fresh directory `dir` and wait until its
    /// client listener answers; returns it with the seconds that took
    /// (engine pool, listener bind).
    fn start(dir: &Path) -> Result<(Server, f64), String> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let sock = dir.join("c.sock");
        let ep = Endpoint::Unix(sock.clone());
        let drain = Arc::new(AtomicBool::new(false));
        let cfg = ServeConfig {
            quantum: 1,
            patience: PATIENCE,
            spool_dir: dir.join("spool"),
            drain: Some(Arc::clone(&drain)),
            ..ServeConfig::default()
        };
        let t = Instant::now();
        let handle = {
            let ep = ep.clone();
            std::thread::spawn(move || serve(&ep, ServeBackend::InProc { p: P }, &cfg))
        };
        let server = Server { ep, drain, handle };
        loop {
            if std::os::unix::net::UnixStream::connect(&sock).is_ok() {
                return Ok((server, t.elapsed().as_secs_f64()));
            }
            if server.handle.is_finished() || t.elapsed() > PATIENCE {
                return Err(format!("server did not come up: {:?}", server.stop()));
            }
            std::thread::yield_now();
        }
    }

    fn stop(self) -> Result<ServeStats, String> {
        self.drain.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?
    }
}

struct JobTimes {
    submit: Instant,
    accepted: Option<Instant>,
    incumbents: Vec<(Instant, i64)>,
    done: Instant,
}

/// One SUBMIT as a client sees it, wrapped in client-side spans.
fn submit(
    ep: &Endpoint,
    inst: &Instance,
    spec: &SubmitSpec,
    tracer: &Tracer,
    request: u64,
) -> (Result<SubmitOutcome, String>, JobTimes) {
    let root = tracer.span("bench.job", request, 0);
    let call = tracer.span("client.submit_job", request, root.id());
    let submit = Instant::now();
    let mut accepted = None;
    let mut incumbents = Vec::new();
    let result = submit_job(ep, inst, spec, PATIENCE, |ev| match ev {
        SubmitEvent::Accepted { .. } => accepted = Some(Instant::now()),
        SubmitEvent::Incumbent { value, .. } => incumbents.push((Instant::now(), value)),
    });
    let done = Instant::now();
    if let Some(acc) = accepted {
        tracer.record("server.accept", request, call.id(), submit, acc);
        tracer.record("server.run", request, call.id(), acc, done);
    }
    let times = JobTimes {
        submit,
        accepted,
        incumbents,
        done,
    };
    (result, times)
}

fn spec_for(cfg: &RunConfig) -> SubmitSpec {
    SubmitSpec {
        mode: Mode::CooperativeAdaptive,
        p: cfg.p,
        rounds: cfg.rounds,
        budget_evals: cfg.total_evals,
        seed: cfg.seed,
        deadline: None,
    }
}

/// The job server probe of the other workloads: six jobs, one at a time.
pub fn probe_server(ctx: &Ctx, inst: &Instance, cfg: &RunConfig) -> ServerRuns {
    let mut runs = ServerRuns::default();
    let Ok((server, _)) = Server::start(&ctx.dir.join("probe-server")) else {
        return runs;
    };
    for k in 0..6 {
        let spec = SubmitSpec {
            seed: cfg.seed + k,
            ..spec_for(cfg)
        };
        let (result, times) = submit(&server.ep, inst, &spec, &ctx.tracer, k);
        if matches!(result, Ok(SubmitOutcome::Done(_))) {
            runs.add(&times);
        }
    }
    let _ = server.stop();
    runs
}

fn job_verdict(
    inst: &Instance,
    result: &Result<SubmitOutcome, String>,
    reference: Option<&Fingerprint>,
) -> Result<(), String> {
    match (result, reference) {
        (Ok(SubmitOutcome::Done(r)), Some(reference)) => {
            Fingerprint::of_job(r).check(inst, r.degraded, Some(reference))
        }
        (Ok(SubmitOutcome::Done(_)), None) => {
            Err(format!("{}: the solo reference run failed", inst.name()))
        }
        (Ok(other), _) => Err(format!("{}: {other:?}", inst.name())),
        (Err(e), _) => Err(format!("{}: submit failed: {e}", inst.name())),
    }
}

/// Job `j`: instance `j % INSTANCES` with a seed of its own.
fn job_cfg(seed: u64, j: usize) -> RunConfig {
    RunConfig {
        p: P,
        rounds: ROUNDS,
        ..RunConfig::new(BUDGET, mix(seed, j as u64))
    }
}

pub fn run_serve(ctx: &Ctx) -> Outcome {
    let instances = gk_set(ctx.seed, 4000, INSTANCES, 5, 100);
    let (lp, lp_ms) = lp_bounds(ctx, &instances);

    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut server = None;
    for k in 0..25 {
        if let Some(s) = server.take() {
            let _ = Server::stop(s);
        }
        match Server::start(&ctx.dir.join(format!("serve-{k}"))) {
            Ok((s, secs)) => {
                setup.push(secs);
                server = Some(s);
            }
            Err(e) => out.count(&Err(e)),
        }
    }
    let Some(server) = server else {
        return out;
    };
    print_setup(&setup);

    // Solo references of every job a run can reach, computed before
    // timing; a run that outlasts them starts over at job 0.
    let mut engine = Engine::new(P);
    let mut gaps = Vec::new();
    let refs: Vec<Option<Fingerprint>> = (0..REFERENCES)
        .map(|j| {
            let report = engine
                .run(
                    &instances[j % INSTANCES],
                    Mode::CooperativeAdaptive,
                    &job_cfg(ctx.seed, j),
                )
                .ok()?;
            gaps.push(gap_pct(lp[j % INSTANCES], report.best.value()));
            Some(Fingerprint::of_report(&report))
        })
        .collect();
    drop(engine);

    let off = Tracer::new(false);
    let measure = |traced: bool, seconds: f64, out: &mut Outcome| {
        let tracer = if traced { &ctx.tracer } else { &off };
        let next = AtomicUsize::new(0);
        let stop_at = AtomicUsize::new(usize::MAX);
        let collected = Mutex::new((Vec::new(), ServerRuns::default(), Vec::new()));
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let idx = next.fetch_add(1, Ordering::SeqCst);
                    if idx >= stop_at.load(Ordering::SeqCst) {
                        return;
                    }
                    let j = idx % REFERENCES;
                    let inst = &instances[j % INSTANCES];
                    let spec = spec_for(&job_cfg(ctx.seed, j));
                    let (result, times) = submit(&server.ep, inst, &spec, tracer, idx as u64 + 1);
                    let verdict = job_verdict(inst, &result, refs[j].as_ref());
                    {
                        let mut c = collected.lock().expect("results lock");
                        if let (Ok(()), Ok(SubmitOutcome::Done(r))) = (&verdict, &result) {
                            c.0.push(job_sample(&times, r));
                            c.1.add(&times);
                        }
                        c.2.push(verdict);
                    }
                    // End on a whole number of passes over the instances,
                    // at least two, once the time is up.
                    if idx >= 2 * INSTANCES && t0.elapsed().as_secs_f64() >= seconds {
                        let taken = next.load(Ordering::SeqCst);
                        stop_at.fetch_min(taken.div_ceil(INSTANCES) * INSTANCES, Ordering::SeqCst);
                    }
                });
            }
        });
        let window = t0.elapsed();
        let (samples, runs, verdicts) = collected.into_inner().expect("results lock");
        for v in &verdicts {
            out.count(v);
        }
        (samples, runs, window)
    };

    let seconds = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let (plain, _, window) = measure(false, seconds, &mut out);
    let traced = ctx.trace.then(|| measure(true, seconds, &mut out));
    match server.stop() {
        Ok(stats) => println!(
            "server  : {} done, {} slices, {} rejected, {} failed, {} spool restores",
            stats.done, stats.slices, stats.rejected, stats.failed, stats.restores
        ),
        Err(e) => out.count(&Err(format!("server: {e}"))),
    }
    print_deciles(&plain);
    out.end_to_end = end_to_end(&plain, window, &setup, &gaps);
    if let Some((traced, runs, _)) = traced {
        let mut layer = probes::run_all(
            ctx,
            Probe {
                inst: instances[0].clone(),
                base: job_cfg(ctx.seed, usize::MAX),
                lp_ms,
                engine_rounds: Vec::new(),
                covered_modes: Vec::new(),
                transport: None,
                server: Some(runs),
            },
        );
        layer.push(probes::trace_overhead(&plain, &traced, |s| s.job_ns));
        out.per_layer = layer;
    }
    out
}

fn job_sample(t: &JobTimes, report: &JobReport) -> Sample {
    let since = |a: Instant| t.done.duration_since(a).as_nanos() as u64;
    let ttt = t
        .incumbents
        .iter()
        .find(|&&(_, v)| v == report.best_value)
        .map_or(t.done, |&(at, _)| at);
    Sample {
        mode: report.mode,
        solve_ns: since(t.accepted.unwrap_or(t.submit)),
        job_ns: since(t.submit),
        ttt_ns: ttt.duration_since(t.submit).as_nanos() as u64,
        evals: report.total_evals,
    }
}
