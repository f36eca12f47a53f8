//! What every workload shares: the run context, output checks, per-solve
//! samples and the end-to-end metrics computed from them.

use crate::stats::{mean, median, percentile, sorted, Metric};
use crate::trace::Tracer;
use mkp::{BitVec, Instance, Solution};
use parallel_tabu::{EventKind, JobReport, Mode, ModeReport, RunConfig, SpanKind};
use std::path::PathBuf;
use std::time::Duration;

/// Worker threads (and slave processes' stand-in threads) every workload
/// runs with: one per core of the reference host.
pub const P: usize = 2;

/// Patience handed to slaves and job clients; far above any healthy wait.
pub const PATIENCE: Duration = Duration::from_secs(60);

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory of this run (sockets, journals, snapshots).
    pub dir: PathBuf,
    pub tracer: Tracer,
}

/// What a workload hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    pub fn count(&mut self, result: &Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(e.clone());
            }
        }
    }
}

/// The parts of a result that must repeat bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub value: i64,
    pub bits: BitVec,
    pub round_best: Vec<i64>,
    pub evals: u64,
    pub moves: u64,
}

impl Fingerprint {
    pub fn of_report(r: &ModeReport) -> Fingerprint {
        Fingerprint {
            value: r.best.value(),
            bits: r.best.bits().clone(),
            round_best: r.round_best.clone(),
            evals: r.total_evals,
            moves: r.total_moves,
        }
    }

    pub fn of_job(r: &JobReport) -> Fingerprint {
        Fingerprint {
            value: r.best_value,
            bits: r.best_bits.clone(),
            round_best: r.round_best.clone(),
            evals: r.total_evals,
            moves: r.total_moves,
        }
    }

    /// The output checks: the best solution is feasible, its value
    /// recomputed from the bits equals the reported value, the run is not
    /// degraded, and the result equals the reference, if there is one.
    pub fn check(
        &self,
        inst: &Instance,
        degraded: bool,
        reference: Option<&Fingerprint>,
    ) -> Result<(), String> {
        if self.bits.len() != inst.n() {
            return Err(format!(
                "{}: solution has {} bits",
                inst.name(),
                self.bits.len()
            ));
        }
        let sol = Solution::from_bits(inst, self.bits.clone());
        if !sol.is_feasible(inst) {
            return Err(format!("{}: best solution infeasible", inst.name()));
        }
        if sol.value() != self.value {
            return Err(format!(
                "{}: reported value {} but the bits are worth {}",
                inst.name(),
                self.value,
                sol.value()
            ));
        }
        if degraded {
            return Err(format!("{}: degraded report", inst.name()));
        }
        let Some(reference) = reference else {
            return Ok(());
        };
        if self != reference {
            return Err(format!(
                "{}: result differs from the reference (value {} vs {}, evals {} vs {})",
                inst.name(),
                self.value,
                reference.value,
                self.evals,
                reference.evals
            ));
        }
        Ok(())
    }
}

/// One unit of work (a solve call or a job) as the end-to-end metrics see it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub mode: Mode,
    /// Wall time of the call (for a job: ACCEPTED to DONE).
    pub solve_ns: u64,
    /// Wall time of the job as its client sees it (SUBMIT to DONE); equal
    /// to `solve_ns` for a solve call.
    pub job_ns: u64,
    /// Time to the first incumbent equal to the final value.
    pub ttt_ns: u64,
    pub evals: u64,
}

/// Percentage gap of `value` below the LP bound `lp`.
pub fn gap_pct(lp: f64, value: i64) -> f64 {
    (lp - value as f64) / lp * 100.0
}

/// Time from the start of a run's telemetry to the master's first
/// new-incumbent event carrying the final value (the whole run when the
/// trace holds no such event).
pub fn report_ttt_ns(r: &ModeReport) -> u64 {
    r.telemetry
        .events
        .iter()
        .find(|e| e.kind == EventKind::NewIncumbent && e.value == r.best.value())
        .map_or(r.wall.as_nanos() as u64, |e| e.t_ns)
}

/// Round-level figures from one run's own telemetry (the master's Round
/// and Gather spans, the workers' TsInner spans and eval counters).
#[derive(Debug, Clone)]
pub struct RoundStats {
    pub mode: Mode,
    pub round_p50_ns: u64,
    pub rounds: u64,
    pub round_total_ns: u64,
    pub gather_total_ns: u64,
    /// ΣTsInner over all workers.
    pub inner_total_ns: u64,
    /// Largest single worker's ΣTsInner.
    pub inner_max_ns: u64,
    pub workers: u64,
    pub budget_ratio: f64,
    pub worker_evals_max_over_mean: f64,
    /// Master-side transport totals, both directions.
    pub bytes: u64,
    pub msgs: u64,
    /// Master-side received payload bytes per received message (reports).
    pub report_bytes: u64,
}

impl RoundStats {
    pub fn of(r: &ModeReport, cfg: &RunConfig) -> RoundStats {
        use parallel_tabu::Counter;
        let tel = &r.telemetry;
        let round = tel.span(0, SpanKind::Round);
        let inner: Vec<u64> = (1..tel.spans.len())
            .filter_map(|t| tel.span(t, SpanKind::TsInner).map(|s| s.total_ns))
            .collect();
        let evals: Vec<f64> = (1..tel.counters.len())
            .map(|t| tel.counter(t, Counter::CandidateEvals) as f64)
            .filter(|&e| e > 0.0)
            .collect();
        let max_evals = evals.iter().cloned().fold(0.0, f64::max);
        RoundStats {
            mode: r.mode,
            round_p50_ns: round.map_or(0, |s| s.p50_ns),
            rounds: round.map_or(0, |s| s.count),
            round_total_ns: round.map_or(0, |s| s.total_ns),
            gather_total_ns: tel.span(0, SpanKind::Gather).map_or(0, |s| s.total_ns),
            inner_total_ns: inner.iter().sum(),
            inner_max_ns: inner.iter().copied().max().unwrap_or(0),
            workers: inner.len() as u64,
            budget_ratio: r.total_evals as f64 / cfg.total_evals as f64,
            worker_evals_max_over_mean: if evals.is_empty() {
                0.0
            } else {
                max_evals / mean(&evals)
            },
            bytes: tel.counter(0, Counter::BytesSent) + tel.counter(0, Counter::BytesReceived),
            msgs: tel.counter(0, Counter::MsgsSent) + tel.counter(0, Counter::MsgsReceived),
            report_bytes: tel.counter(0, Counter::BytesReceived)
                / tel.counter(0, Counter::MsgsReceived).max(1),
        }
    }
}

/// `engine.*.M` for one mode, over its runs.
pub fn engine_metrics(mode: Mode, runs: &[RoundStats]) -> Vec<Metric> {
    let runs: Vec<&RoundStats> = runs
        .iter()
        .filter(|s| s.mode == mode && s.rounds > 0)
        .collect();
    let n = runs.len();
    let sum = |f: fn(&RoundStats) -> u64| runs.iter().map(|s| f(s)).sum::<u64>() as f64;
    let round_total = sum(|s| s.round_total_ns);
    let rounds = sum(|s| s.rounds);
    let slots = runs
        .iter()
        .map(|s| (s.workers * s.round_total_ns) as f64)
        .sum::<f64>();
    let label = mode.label();
    vec![
        Metric::new(
            format!("engine.round_ms_p50.{label}"),
            median(
                &runs
                    .iter()
                    .map(|s| s.round_p50_ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            "ms",
            n,
        ),
        Metric::new(
            format!("engine.gather_frac.{label}"),
            sum(|s| s.gather_total_ns) / round_total,
            "ratio",
            n,
        ),
        Metric::new(
            format!("engine.utilization.{label}"),
            sum(|s| s.inner_total_ns) / slots,
            "ratio",
            n,
        ),
        Metric::new(
            format!("engine.overhead_us_per_round.{label}"),
            (round_total - sum(|s| s.inner_max_ns)) / rounds / 1e3,
            "us",
            n,
        ),
        Metric::new(
            format!("engine.budget_ratio.{label}"),
            mean(&runs.iter().map(|s| s.budget_ratio).collect::<Vec<_>>()),
            "ratio",
            n,
        ),
        Metric::new(
            format!("engine.worker_evals_max_over_mean.{label}"),
            median(
                &runs
                    .iter()
                    .map(|s| s.worker_evals_max_over_mean)
                    .collect::<Vec<_>>(),
            ),
            "ratio",
            n,
        ),
    ]
}

fn ms(ns: &[u64]) -> Vec<f64> {
    sorted(&ns.iter().map(|&v| v as f64 / 1e6).collect::<Vec<_>>())
}

/// The end-to-end metrics of a measured window, the set-up times and the
/// reference results' gaps.
pub fn end_to_end(
    samples: &[Sample],
    window: Duration,
    setup_s: &[f64],
    gaps: &[f64],
) -> Vec<Metric> {
    let n = samples.len();
    let secs = window.as_secs_f64();
    let solve = ms(&samples.iter().map(|s| s.solve_ns).collect::<Vec<_>>());
    let job = ms(&samples.iter().map(|s| s.job_ns).collect::<Vec<_>>());
    let ttt = ms(&samples.iter().map(|s| s.ttt_ns).collect::<Vec<_>>());
    let evals: u64 = samples.iter().map(|s| s.evals).sum();
    let pct = |v: &[f64], q| if v.is_empty() { 0.0 } else { percentile(v, q) };
    vec![
        Metric::new("setup_s", median(setup_s), "s", setup_s.len()),
        Metric::new("solve_ms_p50", pct(&solve, 50.0), "ms", n),
        Metric::new("solve_ms_p90", pct(&solve, 90.0), "ms", n),
        Metric::new("evals_per_s", evals as f64 / secs, "1/s", n),
        Metric::new("gap_pct", mean(gaps), "%", gaps.len()),
        Metric::new("jobs_per_s", n as f64 / secs, "1/s", n),
        Metric::new("job_ms_p50", pct(&job, 50.0), "ms", n),
        Metric::new("job_ms_p90", pct(&job, 90.0), "ms", n),
        Metric::new("ttt_ms_p50", pct(&ttt, 50.0), "ms", n),
        Metric::new("ttt_ms_p90", pct(&ttt, 90.0), "ms", n),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB", 1),
    ]
}

/// The spread of the set-up samples behind `setup_s`.
pub fn print_setup(setup_s: &[f64]) {
    let v = sorted(setup_s);
    if let (Some(lo), Some(hi)) = (v.first(), v.last()) {
        println!(
            "setup   : n={} min={:.6} median={:.6} max={:.6} s",
            v.len(),
            lo,
            median(&v),
            hi
        );
    }
}

/// Deciles of the job and time-to-target latencies, in ms.
pub fn print_deciles(samples: &[Sample]) {
    let line = |f: fn(&Sample) -> u64| {
        let v = ms(&samples.iter().map(f).collect::<Vec<_>>());
        (1..10)
            .map(|d| {
                if v.is_empty() {
                    "-".to_string()
                } else {
                    format!("{:.1}", percentile(&v, d as f64 * 10.0))
                }
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("deciles : job_ms {}", line(|s| s.job_ns));
    println!("deciles : ttt_ms {}", line(|s| s.ttt_ns));
}

/// One line per mode: solves, median wall, budget spent.
pub fn print_by_mode(samples: &[Sample], budget: u64) {
    for mode in Mode::all() {
        let of: Vec<&Sample> = samples.iter().filter(|s| s.mode == mode).collect();
        if of.is_empty() {
            continue;
        }
        let wall: Vec<f64> = of.iter().map(|s| s.solve_ns as f64 / 1e6).collect();
        let spent: Vec<f64> = of.iter().map(|s| s.evals as f64 / budget as f64).collect();
        println!(
            "by mode : {:<6} n={:<4} solve_ms_p50={:.3} evals/budget={:.3}",
            mode.label(),
            of.len(),
            median(&wall),
            mean(&spent)
        );
    }
}

/// VmHWM of this process in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A seed for configuration `k` of a run seeded with `seed`.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(k.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z ^= z >> 31;
    z.wrapping_mul(0x94D0_49BB_1331_11EB) ^ (z >> 29)
}
