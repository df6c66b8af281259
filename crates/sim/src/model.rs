//! Architectural descriptions of transformer language models.
//!
//! This module is the *workload side* of the Ouroboros simulator: it knows the
//! shapes of every layer in a transformer block, how those layers are grouped
//! into the six pipeline stages of the Ouroboros execution model (Fig. 4 of the
//! paper), and how many floating-point operations, weight bytes, activation
//! bytes and KV-cache bytes each stage moves for a given token position.
//!
//! Nothing in this module knows about hardware; the hardware model
//! (`ouro-hw`, [`crate::noc`]) consumes these counts to derive latency and
//! energy.
//!
//! # Example
//!
//! ```
//! use ouro_sim::model::zoo;
//!
//! let llama = zoo::llama_13b();
//! assert_eq!(llama.name, "LLaMA-13B");
//! // The architectural summary the experiment tables print.
//! assert!(llama.to_string().contains("decoder-only, 40 blocks, d=5120"));
//! ```

pub use crate::config::ModelConfig;
pub use crate::stage::StageKind;

/// The model zoo: the configurations the paper evaluates.
pub mod zoo {
    pub use crate::zoo::*;
}
