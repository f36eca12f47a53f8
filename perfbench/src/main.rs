//! The repository benchmark. One run measures one named workload:
//!
//! ```text
//! perfbench --workload <solve-gk|solve-large|farm-socket|serve>
//!           [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! ```
//!
//! It generates its instances from `--seed`, drives the solver only
//! through its public items, checks every output, prints each metric by
//! name with its unit and sample count, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
//! end-to-end metrics with the benchmark's own tracing off; `--trace 1`
//! reports the per-layer metrics from benchmark-side spans and layer
//! probes. Files go under `--out` (default `perfbench/out`).

mod common;
mod host;
mod probes;
mod serve;
mod solve;
mod stats;
mod trace;

use common::{Ctx, Outcome};
use stats::{tail_percentile, valid_metric_name, Metric};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["solve-gk", "solve-large", "farm-socket", "serve"];

/// Default workload seed; see README.md for the held-out seed.
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 25.0,
        trace: false,
        out: PathBuf::from("perfbench/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let dir = args.out.join(&tag);
    // Sockets, journals and snapshots of the run; removed when it ends.
    let work = dir.join("work");
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(1);
    }
    let host = host::Host::probe(&work);
    println!(
        "host    : nproc={} cpu={:?} l2={} l3={} rustc={:?} commit={} state_dir_fs={}",
        host.nproc, host.cpu_model, host.l2, host.l3, host.rustc, host.commit, host.state_fs
    );
    println!("run     : {tag} seconds={}", args.seconds);

    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: work.clone(),
        tracer: Tracer::new(args.trace),
    };
    let mut outcome = match args.workload.as_str() {
        "solve-gk" => solve::run_engine(&ctx, solve::gk_spec(args.seed)),
        "solve-large" => solve::run_engine(&ctx, solve::large_spec(args.seed)),
        "farm-socket" => solve::run_farm(&ctx, solve::farm_spec(args.seed)),
        "serve" => serve::run_serve(&ctx),
        _ => unreachable!("validated in parse_args"),
    };

    let _ = std::fs::remove_dir_all(&work);
    let spans = ctx.tracer.take();
    if args.trace {
        let self_ns = trace::self_time_by_layer(&spans);
        for layer in LAYERS {
            let ns = self_ns.get(layer).copied().unwrap_or(0);
            outcome.per_layer.push(Metric::new(
                format!("self_ms.{layer}"),
                ns as f64 / 1e6,
                "ms",
                spans.iter().filter(|s| s.layer() == layer).count(),
            ));
        }
    }
    report(&args, &tag, &dir, &host, &outcome, &spans)
}

/// Layers the benchmark's spans are named after (`<layer>.<call>`).
const LAYERS: [&str; 11] = [
    "bench",
    "engine",
    "remote",
    "client",
    "server",
    "kernels",
    "ts",
    "lp",
    "transport",
    "journal",
    "snapshot",
];

fn report(
    args: &Args,
    tag: &str,
    dir: &std::path::Path,
    host: &host::Host,
    outcome: &Outcome,
    spans: &[trace::SpanRec],
) -> ExitCode {
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "checks  : attempted={} failed={} fail_frac={fail_frac:.4}",
        outcome.attempted, outcome.failed
    );
    for f in &outcome.failures {
        println!("failure : {f}");
    }
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let mut bad_names = Vec::new();
    let listed = [
        (&outcome.end_to_end, !args.trace),
        (&outcome.per_layer, args.trace),
    ];
    for (list, in_result) in listed {
        for m in list {
            if !valid_metric_name(&m.name) {
                bad_names.push(m.name.clone());
            }
            // The highest percentile these samples support (10 beyond it).
            let tail = tail_percentile(m.samples).map_or("none".to_string(), |q| format!("p{q}"));
            println!(
                "metric  : {:<44} {:>16.6} {:<6} n={} tail={tail}{}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if in_result {
                    ""
                } else {
                    " (untraced half, not in the result)"
                }
            );
        }
    }
    let correct = outcome.failed == 0 && bad_names.is_empty() && !metrics.is_empty();
    if !bad_names.is_empty() {
        println!("failure : illegal metric names {bad_names:?}");
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    let record = format!(
        "{{\"run\": {}, \"seed\": {}, \"seconds\": {}, \"host\": {}, \"fail_frac\": {}, \"samples\": {{{}}}, \"result\": {line}}}\n",
        host::json_str(tag),
        args.seed,
        args.seconds,
        host.to_json(),
        json_num(fail_frac),
        metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.samples))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let written = std::fs::write(dir.join("result.json"), record)
        .and_then(|()| std::fs::write(dir.join("spans.jsonl"), trace::to_jsonl(spans)));
    if let Err(e) = written {
        eprintln!(
            "perfbench: cannot write results under {}: {e}",
            dir.display()
        );
        return ExitCode::from(1);
    }
    println!("{line}");
    ExitCode::SUCCESS
}

/// A finite JSON number with all its digits (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
