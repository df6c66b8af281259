//! # Ouroboros
//!
//! A reproduction of *"Ouroboros: Wafer-Scale SRAM CIM with Token-Grained
//! Pipelining for Large Language Model Inference"* (ASPLOS 2026) as a family
//! of Rust crates. This facade crate re-exports every sub-crate, and the
//! simulator's subsystem modules, so that downstream users can depend on a
//! single package:
//!
//! * [`model`] — transformer/LLM architectural descriptions and cost counters,
//! * [`hw`] — the wafer / die / CIM-core / crossbar hardware model,
//! * [`noc`] — the network-on-wafer communication model,
//! * [`pipeline`] — sequence-grained, token-grained and blocked pipelines,
//! * [`kvcache`] — distributed dynamic KV-cache management,
//! * [`mapping`] — MIQP inter-core mapping and fault tolerance,
//! * [`workload`] — request-trace and arrival-process generators for the
//!   evaluation workloads,
//! * [`baselines`] — analytical models of DGX A100, TPUv4, AttAcc, Cerebras,
//! * [`sim`] — the end-to-end Ouroboros simulator tying everything together
//!   (it holds [`model`], [`noc`], [`pipeline`], [`mapping`] and
//!   [`baselines`] as modules),
//! * [`serve`] — the online serving simulator: open-loop arrivals,
//!   continuous batching, multi-wafer load balancing, SLO metrics,
//!   prefill/decode disaggregation with KV migration over the inter-wafer
//!   optical links, runtime fault injection with replacement-chain
//!   healing, and sweeps over lists of scenarios,
//! * [`trace`] — the observability layer: request-lifecycle trace events,
//!   post-hoc latency and per-wafer utilization analysis read from them,
//!   and the Chrome trace-event / JSON exporters (armed via
//!   [`serve::Scenario::trace`], zero-cost when off).
//!
//! # Quickstart
//!
//! ```
//! use ouroboros::model::zoo;
//! use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
//! use ouroboros::workload::{LengthConfig, TraceGenerator};
//!
//! let model = zoo::llama_13b();
//! let system = OuroborosSystem::new(OuroborosConfig::single_wafer(), &model)
//!     .expect("LLaMA-13B fits on one wafer");
//! let trace = TraceGenerator::new(7).generate(&LengthConfig::fixed(128, 128), 16);
//! let report = system.simulate(&trace);
//! assert!(report.throughput_tokens_per_s > 0.0);
//! ```
//!
//! # Online serving
//!
//! Every serving experiment — colocated or disaggregated, clean or
//! fault-injected, prefix-cached or cold — is one composable
//! [`serve::Scenario`] returning one [`serve::RunReport`]:
//!
//! ```
//! use ouroboros::model::zoo;
//! use ouroboros::serve::{routers, Scenario, SloConfig};
//! use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
//! use ouroboros::workload::{ArrivalConfig, LengthConfig, TraceGenerator};
//!
//! let system = OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap();
//! let trace = TraceGenerator::new(7).generate(&LengthConfig::fixed(64, 32), 32);
//! let timed = ArrivalConfig::Poisson { rate_rps: 100.0 }.assign(&trace, 7);
//! let report = Scenario::colocated(2)
//!     .router(routers::least_kv_load())
//!     .slo(SloConfig { ttft_s: 0.5, tpot_s: 0.05 })
//!     .workload(timed)
//!     .run(&system)
//!     .unwrap();
//! assert_eq!(report.serving.completed, 32);
//! assert!(report.is_conserved());
//! ```

pub use ouro_hw as hw;
pub use ouro_kvcache as kvcache;
pub use ouro_serve as serve;
pub use ouro_sim as sim;
pub use ouro_sim::{baselines, mapping, model, noc, pipeline};
pub use ouro_trace as trace;
pub use ouro_workload as workload;
