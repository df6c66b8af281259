//! Architectural descriptions of transformer language models.
//!
//! This crate is the *workload side* of the Ouroboros simulator: it knows the
//! shapes of every layer in a transformer block, how those layers are grouped
//! into the six pipeline stages of the Ouroboros execution model (Fig. 4 of the
//! paper), and how many floating-point operations, weight bytes, activation
//! bytes and KV-cache bytes each stage moves for a given token position.
//!
//! Nothing in this crate knows about hardware; the hardware crates
//! (`ouro-hw`, `ouro-noc`) consume these counts to derive latency and energy.
//!
//! # Example
//!
//! ```
//! use ouro_model::zoo;
//! use ouro_model::{StageCosts, StageKind};
//!
//! let llama = zoo::llama_13b();
//! assert_eq!(llama.blocks, 40);
//! // Weight bytes of one whole transformer block at 8-bit precision.
//! let bytes = llama.block_weight_bytes();
//! assert!(bytes > 300_000_000);
//! // FLOPs performed by the QKV-generation stage for one decode token.
//! let flops = StageCosts::for_token(&llama, StageKind::QkvGeneration, 1).flops;
//! assert!(flops > 0);
//! ```

pub mod config;
pub mod mask;
pub mod ops;
pub mod stage;
pub mod zoo;

pub use config::{Architecture, ModelConfig, Precision};
pub use mask::MaskKind;
pub use ops::{BlockCosts, StageCosts};
pub use stage::{PipelineStage, StageKind, STAGES_PER_BLOCK};
