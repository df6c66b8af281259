//! Model configuration: the architectural hyper-parameters of an LLM.

use crate::mask::MaskKind;

/// Numeric precision used for weights and activations on Ouroboros.
///
/// The paper's CIM crossbars store 8-bit weights and consume 8-bit
/// activations, accumulating into 32-bit partial sums; GPU/NPU baselines run
/// 16-bit. The enum carries the byte width used for capacity accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// 8-bit integer weights/activations (Ouroboros CIM native format).
    #[default]
    Int8,
    /// 16-bit floating point (GPU / NPU baselines).
    Fp16,
    /// 32-bit floating point (reference).
    Fp32,
}

impl Precision {
    /// Number of bytes per scalar element.
    pub fn bytes(self) -> u64 {
        match self {
            Precision::Int8 => 1,
            Precision::Fp16 => 2,
            Precision::Fp32 => 4,
        }
    }

    /// Number of bits per scalar element.
    pub fn bits(self) -> u64 {
        self.bytes() * 8
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Precision::Int8 => write!(f, "int8"),
            Precision::Fp16 => write!(f, "fp16"),
            Precision::Fp32 => write!(f, "fp32"),
        }
    }
}

/// High-level transformer architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Decoder-only causal LM (LLaMA, Baichuan, Qwen). Fully token-grained
    /// pipelining applies (causal mask, Fig. 6a).
    DecoderOnly,
    /// Encoder-only bidirectional model (BERT). Attention stages require the
    /// full sequence (bidirectional mask, Fig. 6b); TGP-with-block applies.
    EncoderOnly,
    /// Encoder-decoder / seq2seq model (T5). Prefix mask (Fig. 6c); encoder
    /// blocks are sequence-grained in the attention stages.
    EncoderDecoder,
}

impl Architecture {
    /// The attention mask implied by this architecture family.
    pub fn mask(self) -> MaskKind {
        match self {
            Architecture::DecoderOnly => MaskKind::Causal,
            Architecture::EncoderOnly => MaskKind::Bidirectional,
            Architecture::EncoderDecoder => MaskKind::Prefix,
        }
    }

    /// Whether attention stages can run at token granularity without waiting
    /// for the rest of the sequence (true only for causal masks).
    pub fn supports_token_grained_attention(self) -> bool {
        matches!(self, Architecture::DecoderOnly)
    }
}

impl std::fmt::Display for Architecture {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Architecture::DecoderOnly => write!(f, "decoder-only"),
            Architecture::EncoderOnly => write!(f, "encoder-only"),
            Architecture::EncoderDecoder => write!(f, "encoder-decoder"),
        }
    }
}

/// Architectural hyper-parameters of a transformer LLM.
///
/// All size accounting in the simulator derives from these fields; no actual
/// weights are ever materialised.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable model name, e.g. `"LLaMA-13B"`.
    pub name: String,
    /// Architecture family (decoder-only / encoder-only / encoder-decoder).
    pub architecture: Architecture,
    /// Number of transformer blocks (`N` in the paper).
    pub blocks: usize,
    /// Hidden (model) dimension `d_model`.
    pub hidden_dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Dimension of each attention head (`hidden_dim / heads` unless the
    /// model uses a non-standard head size).
    pub head_dim: usize,
    /// Feed-forward intermediate dimension (`FFN1` output width).
    pub ffn_dim: usize,
    /// Vocabulary size (used for the LM head / embedding, counted once).
    pub vocab_size: usize,
    /// Maximum context window the model supports.
    pub max_context: usize,
    /// Weight/activation precision assumed when deployed on Ouroboros.
    pub precision: Precision,
}

impl ModelConfig {
    /// Total parameter count of one transformer block (attention + FFN +
    /// layer norms), in scalar elements.
    pub fn block_params(&self) -> u64 {
        let d = self.hidden_dim as u64;
        let qkv_dim = (self.heads * self.head_dim) as u64;
        let f = self.ffn_dim as u64;
        // Q, K, V projections and the output projection.
        let attn = 3 * d * qkv_dim + qkv_dim * d;
        // Two-layer FFN (gate-less; gated variants are folded into ffn_dim by
        // the zoo constructors so that byte counts match published sizes).
        let ffn = d * f + f * d;
        // Two layer norms (gain + bias).
        let norms = 4 * d;
        attn + ffn + norms
    }

    /// Total parameter count of the full model in scalar elements, including
    /// the token embedding and output head.
    pub fn total_params(&self) -> u64 {
        let embed = (self.vocab_size * self.hidden_dim) as u64;
        self.block_params() * self.blocks as u64 + 2 * embed
    }

    /// Weight bytes of one transformer block at the configured precision.
    pub fn block_weight_bytes(&self) -> u64 {
        self.block_params() * self.precision.bytes()
    }

    /// Weight bytes of the full model at the configured precision.
    pub fn total_weight_bytes(&self) -> u64 {
        self.total_params() * self.precision.bytes()
    }

    /// Bytes of KV-cache produced per token per block (K plus V vectors for
    /// every head) at the configured precision.
    pub fn kv_bytes_per_token_per_block(&self) -> u64 {
        2 * (self.heads * self.head_dim) as u64 * self.precision.bytes()
    }

    /// Bytes of KV-cache produced per token across the whole model.
    pub fn kv_bytes_per_token(&self) -> u64 {
        self.kv_bytes_per_token_per_block() * self.blocks as u64
    }

    /// Bytes of the hidden-state activation of a single token.
    pub fn activation_bytes_per_token(&self) -> u64 {
        self.hidden_dim as u64 * self.precision.bytes()
    }

    /// Mask kind used by the attention of this model.
    pub fn mask(&self) -> MaskKind {
        self.architecture.mask()
    }

    /// Approximate total parameter count expressed in billions, for display.
    pub fn params_billions(&self) -> f64 {
        self.total_params() as f64 / 1e9
    }
}

impl std::fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({}, {} blocks, d={}, heads={}, ffn={}, {:.1}B params)",
            self.name,
            self.architecture,
            self.blocks,
            self.hidden_dim,
            self.heads,
            self.ffn_dim,
            self.params_billions()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn precision_bytes() {
        assert_eq!(Precision::Int8.bytes(), 1);
        assert_eq!(Precision::Fp16.bytes(), 2);
        assert_eq!(Precision::Fp32.bytes(), 4);
        assert_eq!(Precision::Fp16.bits(), 16);
    }

    #[test]
    fn architecture_masks() {
        assert_eq!(Architecture::DecoderOnly.mask(), MaskKind::Causal);
        assert_eq!(Architecture::EncoderOnly.mask(), MaskKind::Bidirectional);
        assert_eq!(Architecture::EncoderDecoder.mask(), MaskKind::Prefix);
        assert!(Architecture::DecoderOnly.supports_token_grained_attention());
        assert!(!Architecture::EncoderOnly.supports_token_grained_attention());
    }

    #[test]
    fn block_params_scale_with_dims() {
        let small = zoo::llama_13b();
        let big = zoo::llama_32b();
        assert!(big.block_params() > small.block_params());
        assert!(big.total_params() > small.total_params());
    }

    #[test]
    fn kv_bytes_match_head_layout() {
        let m = zoo::llama_13b();
        assert_eq!(m.kv_bytes_per_token_per_block(), 2 * (m.heads * m.head_dim) as u64);
        assert_eq!(m.kv_bytes_per_token(), m.kv_bytes_per_token_per_block() * m.blocks as u64);
    }

    #[test]
    fn with_precision_scales_bytes() {
        let m = zoo::llama_13b();
        let fp16 = ModelConfig { precision: Precision::Fp16, ..m.clone() };
        assert_eq!(fp16.total_weight_bytes(), 2 * m.total_weight_bytes());
    }

    #[test]
    fn display_is_informative() {
        let s = format!("{}", zoo::llama_13b());
        assert!(s.contains("LLaMA-13B"));
        assert!(s.contains("decoder-only"));
    }
}
