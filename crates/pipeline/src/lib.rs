//! Pipeline execution models: sequence-grained, token-grained (TGP) and
//! token-grained-with-block (the encoder adaptation).
//!
//! The paper's first contribution is *token-grained pipelining*: the fully
//! unrolled `6·N`-stage pipeline (Fig. 4) advances one **token** per slot
//! instead of one sequence, which removes the load imbalance caused by
//! variable sequence lengths and mixed prefill/decode batches (Fig. 5) and
//! shrinks the activation working set from whole sequences to single tokens.
//!
//! This crate is hardware-agnostic: callers supply a [`StageTimeModel`] that
//! prices one token (or one sequence) in each of the six stage kinds, and the
//! schedulers here turn a request trace into a [`PipelineReport`] — makespan,
//! per-stage busy time, bubble fraction and activation-buffer footprint. The
//! `ouro-sim` crate provides the hardware-derived stage-time model; tests
//! here use simple synthetic ones.

pub mod engine;
pub mod granularity;
pub mod report;
pub mod schedule;

pub use engine::{estimate_streaming, simulate_exact};
pub use granularity::Granularity;
pub use report::PipelineReport;
pub use schedule::{ConstantStageTimes, PipelineScheduler, StageTimeModel, StageTimeTable};
