//! Pipeline execution models: sequence-grained, token-grained (TGP) and
//! token-grained-with-block (the encoder adaptation).
//!
//! The paper's first contribution is *token-grained pipelining*: the fully
//! unrolled `6·N`-stage pipeline (Fig. 4) advances one **token** per slot
//! instead of one sequence, which removes the load imbalance caused by
//! variable sequence lengths and mixed prefill/decode batches (Fig. 5) and
//! shrinks the activation working set from whole sequences to single tokens.
//!
//! This module is hardware-agnostic: callers supply a [`StageTimeModel`] that
//! prices one token (or one sequence) in each of the six stage kinds, and the
//! schedulers here turn a request trace into a [`PipelineReport`] — makespan,
//! per-stage busy time, bubble fraction and activation-buffer footprint.
//! [`crate::HwStageTimes`] is the hardware-derived stage-time model; the
//! unit tests use simple synthetic ones.

pub use crate::granularity::Granularity;
pub use crate::report::PipelineReport;
pub use crate::schedule::{PipelineScheduler, StageTimeModel, StageTimeTable};
