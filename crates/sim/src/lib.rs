//! End-to-end Ouroboros simulator.
//!
//! [`OuroborosSystem`] assembles the substrates — the hardware model
//! (`ouro-hw`), the network-on-wafer ([`noc`]), the MIQP mapping
//! ([`mapping`]), the distributed KV cache (`ouro-kvcache`) and the
//! token-grained pipeline ([`pipeline`]) — into a single model that takes
//! a request trace and produces the same [`baselines::SystemReport`] the
//! baseline systems ([`baselines`]) produce: output-token throughput plus
//! energy per token broken into compute / on-chip / off-chip /
//! communication. The workload side, the transformer models and their
//! per-stage cost counters, is [`model`].
//!
//! The ablation switches of Fig. 15 (wafer integration, CIM, TGP, optimised
//! mapping, dynamic KV management) are all expressed as fields of
//! [`OuroborosConfig`], and [`ablation_ladder`] builds the cumulative
//! configurations the figure sweeps.
//!
//! Only the five public modules and the re-exports below leave the crate;
//! every other item is crate-private, so rustc's `dead_code` lint sees
//! whether anything still uses it.

pub mod baselines;
pub mod mapping;
pub mod model;
pub mod noc;
pub mod pipeline;

mod ablation;
mod config;
mod cost;
mod engine;
mod fault;
mod granularity;
mod link;
mod mask;
mod objective;
mod ops;
mod problem;
mod report;
mod roofline;
mod schedule;
mod solvers;
mod stage;
mod stage_times;
mod system;
mod systems;
mod zoo;

pub use ablation::ablation_ladder;
pub use config::{BuildError, OuroborosConfig};
pub use stage_times::HwStageTimes;
pub use system::OuroborosSystem;
