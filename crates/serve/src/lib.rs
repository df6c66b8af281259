//! Online serving simulator for Ouroboros deployments.
//!
//! The offline crates answer "how fast does a wafer chew through a fixed
//! batch"; this crate answers the production question — "how much live
//! traffic can a deployment absorb while meeting latency SLOs". Its
//! experiment-facing API is one composable builder:
//!
//! * **[`Scenario`]** (`scenario`): compose a deployment
//!   ([`Scenario::colocated`] replicas or [`Scenario::disaggregated`]
//!   prefill/decode pools with KV migration over the optical fabric), a
//!   timed workload ([`ouro_workload::ArrivalConfig`]: open-loop Poisson
//!   or bursty Gamma arrivals over a fixed trace, session traces),
//!   routing/placement policies, an optional runtime fault plan,
//!   prefix-caching and SLO config — then `.run()` drives one shared
//!   discrete-event loop and returns one [`RunReport`] with a stable JSON
//!   schema ([`report::SCHEMA_VERSION`]).
//!
//! Underneath sit the building blocks:
//!
//! * **a continuous-batching engine** ([`engine::Engine`]): discrete-event
//!   iterations that admit requests FCFS into the distributed KV cache under
//!   the offline scheduler's admission/eviction rules (one admission path,
//!   [`Engine::submit_with`], parameterized by [`Admission`]), interleave
//!   chunked prefill with decode in the token-grained pipeline, and charge
//!   wall-clock from the hardware-derived [`ouro_sim::HwStageTimes`],
//! * **open policy traits** (`policy`): object-safe [`Router`] /
//!   [`Placement`] with the classic built-ins as constructors
//!   ([`routers`], [`placements`]) — all tie-breaking funnels through one
//!   first-minimum scan so equal scores resolve to the lowest wafer index,
//! * **shared-prefix KV reuse**: requests tagged with an
//!   [`ouro_workload::SharedPrefix`] share the whole-block portion of
//!   their common prompt in the cache ([`ouro_kvcache::KvManager`]'s
//!   refcounted copy-on-write chains); the engine charges prefill only
//!   for the uncached suffix and prefix-affinity policies steer sharers
//!   to the wafer already holding their prefix,
//! * **SLO metrics and sweeps** (`metrics`, `sweep`): TTFT / TPOT /
//!   E2E p50/p95/p99, goodput under an SLO, utilization; a sweep is a
//!   `Vec<Scenario>` (one per offered load, pool split or deployment side)
//!   run through [`parallel_map_indexed`],
//! * **runtime fault injection** (`fault`): a seeded MTBF process fires
//!   mid-run, each fault is healed by a replacement-chain remap
//!   ([`ouro_sim::mapping::remap_with_chain`]), the absorbed KV is evicted and recomputed,
//!   routers steer around degraded wafers, and the report's fault section
//!   accounts availability and tail-latency inflation.
//!
//! # Example
//!
//! A sweep is a list of scenarios — here one per offered load, from light
//! load past saturation — run on worker threads, one [`RunReport`] each:
//!
//! ```
//! use ouro_sim::model::zoo;
//! use ouro_serve::{
//!     capacity_rps_estimate, ideal_latencies, parallel_map_indexed, Scenario, SloConfig, LOAD_FRACTIONS,
//! };
//! use ouro_sim::{OuroborosConfig, OuroborosSystem};
//! use ouro_workload::{ArrivalConfig, LengthConfig, TraceGenerator};
//!
//! let system = OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap();
//! let lengths = LengthConfig::fixed(64, 32);
//! let capacity = capacity_rps_estimate(system.stage_times(), &lengths) * 2.0;
//! let (ttft, tpot) = ideal_latencies(system.stage_times(), 64, 96);
//! let slo = SloConfig::with_slack(ttft, tpot, 10.0);
//! let trace = TraceGenerator::new(7).generate(&lengths, 40);
//! let sweep: Vec<Scenario> = LOAD_FRACTIONS
//!     .iter()
//!     .map(|f| {
//!         let timed = ArrivalConfig::Poisson { rate_rps: f * capacity }.assign(&trace, 7);
//!         Scenario::colocated(2).slo(slo).workload(timed)
//!     })
//!     .collect();
//! let reports = parallel_map_indexed(sweep, 2, |_, s| s.run(&system).unwrap());
//! assert_eq!(reports.len(), 6);
//! assert!(reports[0].is_conserved());
//! ```

mod engine;
mod fault;
mod metrics;
mod parallel;
mod policy;
mod report;
mod scenario;
mod snapshot;
mod stage;
mod sweep;

/// Case-by-case tests of the engine's pending queue
/// (`stage::PendingQueue`), beside the property test in `stage`. The
/// module keeps the name of the slot arena the queue replaced, and each
/// case the name it had there.
#[cfg(test)]
#[path = "stage/queue_cases.rs"]
mod arena;

/// The workspace's dependency-free JSON writer (re-exported from
/// `ouro-trace`, where it moved so the observability exporters and the
/// serving stack share one implementation).
pub use ouro_trace::json;
pub use ouro_trace::{
    Analysis, Counters, EventKind, PhaseStats, RequestPhases, RingSink, SpanPhase, TelemetryConfig,
    TelemetryRecorder, TelemetrySample, Trace, TraceEvent, Tracer, WaferGauges, WaferUtilization,
    ANALYZE_SCHEMA_VERSION, PHASE_NAMES, TELEMETRY_SCHEMA_VERSION, TRACE_SCHEMA_VERSION,
};

pub use engine::{Admission, Engine, EngineStats};
pub use fault::{fault_window_s, p99_inflation, FaultConfig, FaultReport};
pub use metrics::{LatencyStats, RequestRecord, RunTotals, ServingReport, SloConfig};
pub use parallel::{default_threads, parallel_map_indexed};
pub use policy::{placements, routers, Placement, Router};
pub use report::{DeploymentInfo, MigrationStats, RunReport, SCHEMA_VERSION};
pub use scenario::{Deployment, DisaggConfig, RunOutcome, RunState, Scenario};
pub use snapshot::{Snapshot, SnapshotError, SnapshotErrorKind, SNAPSHOT_SCHEMA_VERSION};
pub use sweep::{
    best_ratio, capacity_rps_estimate, format_shootout, format_sweep, ideal_latencies, LOAD_FRACTIONS,
};
