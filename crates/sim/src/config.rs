//! Configuration: the model served (its architectural hyper-parameters)
//! and the Ouroboros deployment that serves it.

use crate::mask::MaskKind;
use ouro_hw::{CoreConfig, WaferGeometry, YieldModel};

/// Numeric precision used for weights and activations on Ouroboros.
///
/// The paper's CIM crossbars store 8-bit weights and consume 8-bit
/// activations, accumulating into 32-bit partial sums; GPU/NPU baselines run
/// 16-bit. The enum carries the byte width used for capacity accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[cfg_attr(
    not(test),
    expect(
        dead_code,
        reason = "every zoo model is 8-bit; the unit tests check the byte accounting at the wider widths"
    )
)]
pub(crate) enum Precision {
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
    pub(crate) fn bytes(self) -> u64 {
        match self {
            Precision::Int8 => 1,
            Precision::Fp16 => 2,
            Precision::Fp32 => 4,
        }
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
pub(crate) enum Architecture {
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
    pub(crate) fn mask(self) -> MaskKind {
        match self {
            Architecture::DecoderOnly => MaskKind::Causal,
            Architecture::EncoderOnly => MaskKind::Bidirectional,
            Architecture::EncoderDecoder => MaskKind::Prefix,
        }
    }

    /// Whether attention stages can run at token granularity without waiting
    /// for the rest of the sequence (true only for causal masks).
    pub(crate) fn supports_token_grained_attention(self) -> bool {
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
    pub(crate) architecture: Architecture,
    /// Number of transformer blocks (`N` in the paper).
    pub(crate) blocks: usize,
    /// Hidden (model) dimension `d_model`.
    pub(crate) hidden_dim: usize,
    /// Number of attention heads.
    pub(crate) heads: usize,
    /// Dimension of each attention head (`hidden_dim / heads` unless the
    /// model uses a non-standard head size).
    pub(crate) head_dim: usize,
    /// Feed-forward intermediate dimension (`FFN1` output width).
    pub(crate) ffn_dim: usize,
    /// Vocabulary size (used for the LM head / embedding, counted once).
    pub(crate) vocab_size: usize,
    /// Maximum context window the model supports.
    pub(crate) max_context: usize,
    /// Weight/activation precision assumed when deployed on Ouroboros.
    pub(crate) precision: Precision,
}

impl ModelConfig {
    /// Total parameter count of one transformer block (attention + FFN +
    /// layer norms), in scalar elements.
    pub(crate) fn block_params(&self) -> u64 {
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
    pub(crate) fn total_params(&self) -> u64 {
        let embed = (self.vocab_size * self.hidden_dim) as u64;
        self.block_params() * self.blocks as u64 + 2 * embed
    }

    /// Weight bytes of one transformer block at the configured precision.
    pub(crate) fn block_weight_bytes(&self) -> u64 {
        self.block_params() * self.precision.bytes()
    }

    /// Weight bytes of the full model at the configured precision.
    pub(crate) fn total_weight_bytes(&self) -> u64 {
        self.total_params() * self.precision.bytes()
    }

    /// Bytes of KV-cache produced per token per block (K plus V vectors for
    /// every head) at the configured precision.
    pub(crate) fn kv_bytes_per_token_per_block(&self) -> u64 {
        2 * (self.heads * self.head_dim) as u64 * self.precision.bytes()
    }

    /// Bytes of KV-cache produced per token across the whole model.
    pub(crate) fn kv_bytes_per_token(&self) -> u64 {
        self.kv_bytes_per_token_per_block() * self.blocks as u64
    }

    /// Bytes of the hidden-state activation of a single token.
    pub(crate) fn activation_bytes_per_token(&self) -> u64 {
        self.hidden_dim as u64 * self.precision.bytes()
    }

    /// Mask kind used by the attention of this model.
    pub(crate) fn mask(&self) -> MaskKind {
        self.architecture.mask()
    }

    /// Approximate total parameter count expressed in billions, for display.
    pub(crate) fn params_billions(&self) -> f64 {
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

/// Errors raised when assembling a system.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The model's weights (plus minimum KV reservation) exceed the SRAM of
    /// the configured number of wafers.
    ModelDoesNotFit {
        /// Bytes required by the model's weights.
        required_bytes: u64,
        /// Bytes of crossbar SRAM available across all wafers.
        available_bytes: u64,
    },
    /// After placing weights there are no cores left for the KV cache.
    NoKvCores,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::ModelDoesNotFit { required_bytes, available_bytes } => write!(
                f,
                "model needs {required_bytes} bytes of weight storage but the wafer(s) provide {available_bytes}"
            ),
            BuildError::NoKvCores => write!(f, "no cores left for the kv cache after weight mapping"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Configuration of an Ouroboros deployment (including every ablation switch
/// of Fig. 15).
#[derive(Debug, Clone, PartialEq)]
pub struct OuroborosConfig {
    /// Wafer geometry (die grid, cores per die).
    pub geometry: WaferGeometry,
    /// Number of wafers ganged together with optical Ethernet (Fig. 19/20).
    pub wafers: usize,
    /// CIM core configuration.
    pub core: CoreConfig,
    /// Wafer-scale integration: `true` uses stitched inter-die links,
    /// `false` models a chiplet mesh interconnected with NVLink-class links
    /// (the ablation baseline).
    pub wafer_integration: bool,
    /// Compute in memory: `true` computes inside the SRAM arrays; `false`
    /// models a conventional datapath that must read weights out of SRAM for
    /// every use.
    pub cim: bool,
    /// Token-grained pipelining: `true` uses TGP (or TGP-with-block for
    /// encoder models), `false` falls back to sequence-grained pipelining.
    pub tgp: bool,
    /// Communication-aware mapping: `true` uses the annealed MIQP mapping,
    /// `false` uses the naive contiguous row-major placement.
    pub optimized_mapping: bool,
    /// Dynamic distributed KV management: `true` uses the paper's scheme,
    /// `false` statically reserves the maximum context per sequence.
    pub dynamic_kv: bool,
    /// Anti-thrashing admission threshold (§4.4.4, Fig. 17).
    pub kv_threshold: f64,
    /// Yield model used to draw the defect map; `None` models a pristine
    /// wafer.
    pub yield_model: Option<YieldModel>,
    /// Seed for defect-map generation and the annealing mapper.
    pub seed: u64,
    /// Simulated-annealing move budget for the mapper.
    pub mapping_iterations: usize,
    /// Use LUT-enhanced CIM cores (Fig. 21 "+LUT" variant).
    pub lut_compute: bool,
}

impl OuroborosConfig {
    /// The paper's single-wafer system with every optimisation enabled.
    pub fn single_wafer() -> OuroborosConfig {
        OuroborosConfig {
            geometry: WaferGeometry::paper(),
            wafers: 1,
            core: CoreConfig::paper(),
            wafer_integration: true,
            cim: true,
            tgp: true,
            optimized_mapping: true,
            dynamic_kv: true,
            kv_threshold: 0.1,
            yield_model: Some(YieldModel::paper()),
            seed: 7,
            mapping_iterations: 2_000,
            lut_compute: false,
        }
    }

    /// A multi-wafer system (Fig. 19/20 uses two wafers for LLaMA-65B).
    pub fn multi_wafer(wafers: usize) -> OuroborosConfig {
        OuroborosConfig { wafers: wafers.max(1), ..OuroborosConfig::single_wafer() }
    }

    /// A reduced-size system for fast unit tests: a single small die grid.
    /// Capacity is far below the real wafer, so pair it with small models.
    pub fn tiny_for_tests() -> OuroborosConfig {
        OuroborosConfig {
            geometry: WaferGeometry::tiny(2, 2, 8, 8),
            yield_model: None,
            mapping_iterations: 300,
            ..OuroborosConfig::single_wafer()
        }
    }

    /// Total crossbar SRAM across all wafers in bytes.
    pub fn total_sram_bytes(&self) -> u64 {
        let per_core = self.core.crossbars as u64 * self.core.crossbar.capacity_bytes();
        self.geometry.total_sram_bytes(per_core) * self.wafers as u64
    }

    /// Total number of cores across all wafers.
    pub fn total_cores(&self) -> usize {
        self.geometry.total_cores() * self.wafers
    }

    /// Display label used in reports ("Ours", "Ours (2 wafers)", ...).
    pub(crate) fn label(&self) -> String {
        if self.wafers > 1 {
            format!("Ours ({} wafers)", self.wafers)
        } else {
            "Ours".to_string()
        }
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

    #[test]
    fn paper_config_has_54_gb_of_sram() {
        let c = OuroborosConfig::single_wafer();
        let gb = c.total_sram_bytes() as f64 / 1e9;
        assert!(gb > 53.0 && gb < 60.0, "got {gb}");
        assert_eq!(c.total_cores(), 13_923);
        assert_eq!(c.label(), "Ours");
    }

    #[test]
    fn multi_wafer_doubles_capacity() {
        let one = OuroborosConfig::single_wafer();
        let two = OuroborosConfig::multi_wafer(2);
        assert_eq!(two.total_sram_bytes(), 2 * one.total_sram_bytes());
        assert_eq!(two.label(), "Ours (2 wafers)");
        assert_eq!(OuroborosConfig::multi_wafer(0).wafers, 1);
    }

    #[test]
    fn build_error_messages_are_informative() {
        let e = BuildError::ModelDoesNotFit { required_bytes: 100, available_bytes: 10 };
        assert!(e.to_string().contains("100"));
        assert!(BuildError::NoKvCores.to_string().contains("kv"));
    }
}
