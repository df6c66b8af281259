//! The six-stage pipeline partition of a transformer block (Fig. 4).
//!
//! Each transformer block is split into six pipeline stages so that a model
//! with `N` blocks forms a unified `6·N`-stage pipeline. The stages are:
//!
//! 1. **QKV generation** (plus the preceding LayerNorm),
//! 2. **Score** — `S = Q·Kᵀ`,
//! 3. **Softmax** (executed on the SFU),
//! 4. **Context + projection** — `softmax(S)·V` followed by the output
//!    projection (plus the residual add),
//! 5. **FFN1** (plus the second LayerNorm),
//! 6. **FFN2** (plus the residual add).

use crate::config::ModelConfig;

/// Number of pipeline stages a single transformer block is split into.
pub(crate) const STAGES_PER_BLOCK: usize = 6;

/// Identity of one of the six pipeline stages within a transformer block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StageKind {
    /// LayerNorm + Q/K/V projections.
    QkvGeneration,
    /// Attention score computation `S = Q·Kᵀ` (reads the K cache in situ).
    Score,
    /// Softmax over the score row (special-function unit).
    Softmax,
    /// Context `softmax(S)·V` (reads the V cache in situ) + output projection.
    ContextProjection,
    /// LayerNorm + first feed-forward layer (up-projection).
    Ffn1,
    /// Second feed-forward layer (down-projection) + residual.
    Ffn2,
}

impl StageKind {
    /// All six stages in pipeline order.
    pub(crate) const ALL: [StageKind; STAGES_PER_BLOCK] = [
        StageKind::QkvGeneration,
        StageKind::Score,
        StageKind::Softmax,
        StageKind::ContextProjection,
        StageKind::Ffn1,
        StageKind::Ffn2,
    ];

    /// Position of this stage within a block, `0..6`.
    pub(crate) fn index(self) -> usize {
        StageKind::ALL.iter().position(|&k| k == self).expect("stage present in ALL")
    }

    /// Whether the stage holds static model weights in its crossbars
    /// (as opposed to the attention stages that read the dynamic KV cache,
    /// and softmax which runs entirely on the SFU).
    pub(crate) fn holds_weights(self) -> bool {
        matches!(
            self,
            StageKind::QkvGeneration | StageKind::ContextProjection | StageKind::Ffn1 | StageKind::Ffn2
        )
    }

    /// Whether the stage performs in-situ computation against the KV cache.
    #[cfg(test)]
    pub(crate) fn uses_kv_cache(self) -> bool {
        matches!(self, StageKind::Score | StageKind::ContextProjection)
    }

    /// Whether the stage's compute grows with the attended context length
    /// (attention score and context stages) rather than being constant per
    /// token (projections and FFN).
    pub(crate) fn scales_with_context(self) -> bool {
        matches!(self, StageKind::Score | StageKind::Softmax | StageKind::ContextProjection)
    }
}

impl std::fmt::Display for StageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StageKind::QkvGeneration => "qkv-generation",
            StageKind::Score => "score",
            StageKind::Softmax => "softmax",
            StageKind::ContextProjection => "context-projection",
            StageKind::Ffn1 => "ffn1",
            StageKind::Ffn2 => "ffn2",
        };
        write!(f, "{s}")
    }
}

/// A pipeline stage instantiated for a concrete model: carries the layer
/// shapes needed by the mapping and hardware crates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PipelineStage {
    /// Which of the six stages this is.
    pub(crate) kind: StageKind,
    /// Input feature dimension of the stage's main GEMV/GEMM.
    pub(crate) input_dim: usize,
    /// Output feature dimension of the stage's main GEMV/GEMM.
    pub(crate) output_dim: usize,
    /// Static weight elements held by the stage (zero for score/softmax,
    /// whose "weights" are the dynamic KV cache).
    pub(crate) weight_elems: u64,
    /// Number of attention heads the stage is split across (1 for FFN).
    pub(crate) heads: usize,
}

impl PipelineStage {
    /// Builds the stage description for `kind` from a model configuration.
    pub(crate) fn new(kind: StageKind, model: &ModelConfig) -> PipelineStage {
        let d = model.hidden_dim;
        let qkv = model.heads * model.head_dim;
        let f = model.ffn_dim;
        let (input_dim, output_dim, weight_elems, heads) = match kind {
            StageKind::QkvGeneration => (d, 3 * qkv, (3 * d * qkv) as u64, model.heads),
            StageKind::Score => (model.head_dim, 0, 0, model.heads),
            StageKind::Softmax => (0, 0, 0, model.heads),
            StageKind::ContextProjection => (qkv, d, (qkv * d) as u64, model.heads),
            StageKind::Ffn1 => (d, f, (d * f) as u64, 1),
            StageKind::Ffn2 => (f, d, (f * d) as u64, 1),
        };
        PipelineStage { kind, input_dim, output_dim, weight_elems, heads }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn all_contains_six_distinct_stages() {
        assert_eq!(StageKind::ALL.len(), STAGES_PER_BLOCK);
        for (i, k) in StageKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn weight_holding_stages() {
        assert!(StageKind::QkvGeneration.holds_weights());
        assert!(StageKind::Ffn1.holds_weights());
        assert!(StageKind::Ffn2.holds_weights());
        assert!(StageKind::ContextProjection.holds_weights());
        assert!(!StageKind::Score.holds_weights());
        assert!(!StageKind::Softmax.holds_weights());
    }

    #[test]
    fn kv_stages() {
        assert!(StageKind::Score.uses_kv_cache());
        assert!(StageKind::ContextProjection.uses_kv_cache());
        assert!(!StageKind::Ffn1.uses_kv_cache());
    }

    #[test]
    fn stage_weight_sum_matches_block_attention_and_ffn() {
        let m = zoo::llama_13b();
        let total: u64 = StageKind::ALL.iter().map(|&k| PipelineStage::new(k, &m).weight_elems).sum();
        // block_params additionally counts the two layer norms (4 * d).
        assert_eq!(total + 4 * m.hidden_dim as u64, m.block_params());
    }

    #[test]
    fn ffn_dims_are_wired_through() {
        let m = zoo::llama_13b();
        let ffn1 = PipelineStage::new(StageKind::Ffn1, &m);
        let ffn2 = PipelineStage::new(StageKind::Ffn2, &m);
        assert_eq!(ffn1.output_dim, m.ffn_dim);
        assert_eq!(ffn2.input_dim, m.ffn_dim);
        assert_eq!(ffn2.output_dim, m.hidden_dim);
    }

    #[test]
    fn context_scaling_stages() {
        assert!(StageKind::Score.scales_with_context());
        assert!(StageKind::Softmax.scales_with_context());
        assert!(StageKind::ContextProjection.scales_with_context());
        assert!(!StageKind::QkvGeneration.scales_with_context());
        assert!(!StageKind::Ffn2.scales_with_context());
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(StageKind::QkvGeneration.to_string(), "qkv-generation");
        assert_eq!(StageKind::Ffn2.to_string(), "ffn2");
    }
}
