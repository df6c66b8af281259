//! The model zoo: ready-made configurations for every model evaluated in the
//! paper (§6.1) plus the synthetic sizes used by the "hardware scaling tax"
//! figure (Fig. 1).
//!
//! The shapes follow the published architectures; exact parameter counts may
//! differ by a few percent from vendor reports (layer norms, biases and
//! gated-FFN bookkeeping are folded into `ffn_dim`), which is irrelevant for
//! the simulator — only the relative magnitudes of weight, activation and KV
//! volumes matter.

use crate::config::{Architecture, ModelConfig, Precision};

fn decoder(name: &str, blocks: usize, hidden: usize, heads: usize, ffn: usize, vocab: usize) -> ModelConfig {
    ModelConfig {
        name: name.to_string(),
        architecture: Architecture::DecoderOnly,
        blocks,
        hidden_dim: hidden,
        heads,
        head_dim: hidden / heads,
        ffn_dim: ffn,
        vocab_size: vocab,
        max_context: 4096,
        precision: Precision::Int8,
    }
}

/// LLaMA-7B (32 blocks, d=4096; gated FFN folded into `ffn_dim`). Used by Fig. 1.
pub fn llama_7b() -> ModelConfig {
    decoder("LLaMA-7B", 32, 4096, 32, 16512, 32000)
}

/// LLaMA-13B (40 blocks, d=5120). Primary evaluation model.
pub fn llama_13b() -> ModelConfig {
    decoder("LLaMA-13B", 40, 5120, 40, 20736, 32000)
}

/// The ~19.5B point of Fig. 1 (a GPT-NeoX-20B-like shape).
pub fn gpt_20b() -> ModelConfig {
    decoder("GPT-20B", 44, 6144, 48, 24576, 50432)
}

/// LLaMA-32B (the paper's label for the ~30/33B LLaMA; 60 blocks, d=6656).
pub fn llama_32b() -> ModelConfig {
    decoder("LLaMA-32B", 60, 6656, 52, 26880, 32000)
}

/// LLaMA-65B (80 blocks, d=8192). Used in the multi-wafer scaling study.
pub fn llama_65b() -> ModelConfig {
    decoder("LLaMA-65B", 80, 8192, 64, 33024, 32000)
}

/// The ~130B point of Fig. 1 (a GPT-3-scale dense decoder).
pub fn dense_130b() -> ModelConfig {
    decoder("Dense-130B", 100, 10240, 80, 40960, 50432)
}

/// Baichuan-13B (40 blocks, d=5120, 13696 FFN, 64k vocabulary).
pub fn baichuan_13b() -> ModelConfig {
    decoder("Baichuan-13B", 40, 5120, 40, 20544, 64000)
}

/// Qwen-32B (64 blocks, d=5120, wide FFN, 152k vocabulary).
pub fn qwen_32b() -> ModelConfig {
    decoder("Qwen-32B", 64, 5120, 40, 41088, 152064)
}

/// T5-11B encoder-decoder (24 encoder + 24 decoder blocks, d=1024,
/// 128 heads of size 128, 65536 FFN).
pub fn t5_11b() -> ModelConfig {
    ModelConfig {
        name: "T5-11B".to_string(),
        architecture: Architecture::EncoderDecoder,
        blocks: 48,
        hidden_dim: 1024,
        heads: 128,
        head_dim: 128,
        ffn_dim: 65536,
        vocab_size: 32128,
        max_context: 2048,
        precision: Precision::Int8,
    }
}

/// BERT-Large encoder (24 blocks, d=1024, 16 heads, 4096 FFN).
pub fn bert_large() -> ModelConfig {
    ModelConfig {
        name: "BERT-Large".to_string(),
        architecture: Architecture::EncoderOnly,
        blocks: 24,
        hidden_dim: 1024,
        heads: 16,
        head_dim: 64,
        ffn_dim: 4096,
        vocab_size: 30522,
        max_context: 512,
        precision: Precision::Int8,
    }
}

/// The model sizes swept by the hardware-scaling-tax study (Fig. 1):
/// roughly 7B, 13B, 19.5B, 32B, 65B and 130B parameters.
pub fn scaling_tax_models() -> Vec<ModelConfig> {
    vec![llama_7b(), llama_13b(), gpt_20b(), llama_32b(), llama_65b(), dense_130b()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama_13b_is_roughly_13b_params() {
        let p = llama_13b().params_billions();
        assert!(p > 11.0 && p < 15.0, "got {p}");
    }

    #[test]
    fn llama_65b_is_roughly_65b_params() {
        let p = llama_65b().params_billions();
        assert!(p > 58.0 && p < 72.0, "got {p}");
    }

    #[test]
    fn bert_large_is_roughly_330m_params() {
        let p = bert_large().params_billions();
        assert!(p > 0.25 && p < 0.45, "got {p}");
    }

    #[test]
    fn t5_11b_is_roughly_11b_params() {
        let p = t5_11b().params_billions();
        assert!(p > 9.0 && p < 14.0, "got {p}");
    }

    #[test]
    fn scaling_models_are_sorted_by_size() {
        let sizes: Vec<u64> = scaling_tax_models().iter().map(|m| m.total_params()).collect();
        for w in sizes.windows(2) {
            assert!(w[0] < w[1], "scaling tax models must be increasing: {sizes:?}");
        }
    }

    #[test]
    fn head_dim_divides_hidden_dim_for_decoders() {
        for m in [llama_7b(), llama_13b(), llama_32b(), llama_65b(), baichuan_13b(), qwen_32b()] {
            assert_eq!(m.hidden_dim, m.heads * m.head_dim, "{}", m.name);
        }
    }

    #[test]
    fn int8_weight_bytes_equal_param_count() {
        let m = llama_13b();
        assert_eq!(m.total_weight_bytes(), m.total_params());
    }
}
