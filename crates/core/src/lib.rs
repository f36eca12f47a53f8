//! # parallel-tabu — cooperative parallel tabu search for the 0–1 MKP
//!
//! The primary contribution of Niar & Fréville (IPPS 1997): a master/slave
//! parallel tabu search in which the master not only exchanges solutions
//! between slave search threads (cooperation) but *dynamically tunes each
//! slave's strategy parameters* — tabu tenure, move width, patience — from
//! the slaves' scores and the Hamming dispersion of their B best solutions.
//! This adds a macro level of intensification/diversification balancing on
//! top of the classic single-thread mechanisms.
//!
//! The crate exposes the five search organizations compared in the paper's
//! evaluation (plus its future-work extension), all driven by one reusable
//! [`Engine`] whose persistent worker pool survives across runs; each mode
//! is a thin [`CoopPolicy`]:
//!
//! | mode | meaning |
//! |------|---------|
//! | [`Mode::Sequential`] | one TS, random parameters (SEQ) |
//! | [`Mode::Independent`] | P independent TS threads (ITS) |
//! | [`Mode::Cooperative`] | cooperation via the master's ISP, fixed strategies (CTS1) |
//! | [`Mode::CooperativeAdaptive`] | cooperation + dynamic strategy tuning (CTS2) |
//! | [`Mode::Asynchronous`] | CTS2 under the ATS label; the §6 asynchronous scheme is not implemented (ATS) |
//! | [`Mode::Decomposed`] | search-space decomposition over critical variables (DTS, §2 taxonomy) |
//! | [`Mode::Core`] | CTS2 inside an LP-reduced-cost promising core (CORE) |
//! | [`Mode::Repair`] | randomized greedy construction + repair restarts (REPAIR) |
//!
//! ```
//! use mkp::generate::{gk_instance, GkSpec};
//! use parallel_tabu::{run_mode, Mode, RunConfig};
//!
//! let inst = gk_instance("demo", GkSpec { n: 60, m: 5, tightness: 0.5, seed: 1 });
//! let cfg = RunConfig { p: 2, rounds: 3, ..RunConfig::new(60_000, 42) };
//! let report = run_mode(&inst, Mode::CooperativeAdaptive, &cfg);
//! assert!(report.best.is_feasible(&inst));
//! ```

#![warn(missing_docs)]

pub mod coop;
pub mod core_policy;
pub mod decomposed;
pub mod engine;
pub mod isp;
pub mod jobserver;
pub mod journal;
pub mod messages;
pub mod remote;
pub mod repair;
pub mod runner;
pub mod score;
pub mod sgp;
pub mod snapshot;
pub mod telemetry;

pub use engine::{fault_at_round, CoopPolicy, Engine, EngineError, SliceOutcome};
pub use isp::{IspConfig, StartKind};
pub use jobserver::{
    attach_job, serve, submit_job, JobReport, ServeBackend, ServeConfig, ServeStats, SubmitEvent,
    SubmitOutcome, SubmitSpec,
};
pub use journal::{Journal, JournalError, Record};
pub use pvm_lite::{Endpoint, FaultAction, FaultPlan, NetFaultAction, NetFaultPlan, NetFaultState};
pub use remote::{run_remote, run_remote_with, serve_slave, serve_slave_with, ServeOutcome};
pub use runner::{
    run_mode, CheckpointCfg, LossCause, Mode, ModeReport, Resurrection, RunConfig, WorkerLoss,
};
pub use score::Score;
pub use sgp::SgpConfig;
pub use snapshot::{config_digest, instance_fingerprint, Snapshot, SnapshotError};
pub use telemetry::{
    parse_metrics_json, validate_metrics_json, Clock, Counter, Event, EventKind, MetricsDoc,
    MonoClock, SpanKind, SpanSummary, Telemetry, TelemetrySnapshot, TestClock, WorkerCounters,
    METRICS_SCHEMA,
};
