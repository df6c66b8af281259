//! End-to-end Ouroboros simulator.
//!
//! [`OuroborosSystem`] assembles the substrates — the hardware model
//! (`ouro-hw`), the network-on-wafer (`ouro-noc`), the MIQP mapping
//! (`ouro-mapping`), the distributed KV cache (`ouro-kvcache`) and the
//! token-grained pipeline (`ouro-pipeline`) — into a single model that takes
//! a request trace and produces the same [`ouro_baselines::SystemReport`]
//! the baseline systems produce: output-token throughput plus energy per
//! token broken into compute / on-chip / off-chip / communication.
//!
//! The ablation switches of Fig. 15 (wafer integration, CIM, TGP, optimised
//! mapping, dynamic KV management) are all expressed as fields of
//! [`OuroborosConfig`], and [`ablation::ablation_ladder`] builds the
//! cumulative configurations the figure sweeps.

pub mod ablation;
pub mod config;
pub mod stage_times;
pub mod system;

pub use ablation::{ablation_ladder, AblationStep};
pub use config::{BuildError, OuroborosConfig};
/// The stage-time memo the serving engine prices its steps through.
pub use ouro_pipeline::StageTimeTable;
pub use stage_times::HwStageTimes;
pub use system::OuroborosSystem;
