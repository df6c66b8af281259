//! Per-stage operation and data-volume counters.
//!
//! These counters are the contract between the model description and the
//! hardware/pipeline simulators: for a single token flowing through one
//! transformer block, each stage reports how many multiply-accumulate
//! operations it performs, how many weight bytes it touches, how much KV
//! cache it reads and writes, and how large its input/output activations are.
//!
//! Attention stages scale with the number of *attended* positions, which is
//! where the prefill/decode asymmetry and the causal-mask savings of
//! token-grained pipelining come from.

use crate::config::ModelConfig;
use crate::stage::{StageKind, STAGES_PER_BLOCK};

/// Operation and data-volume counts for one pipeline stage processing one
/// token that attends to `attended` KV positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct StageCosts {
    /// Multiply–accumulate-equivalent floating point operations (1 MAC = 2 FLOPs).
    pub(crate) flops: u64,
    /// Static weight bytes the stage must have resident (and, on non-CIM
    /// hardware, read from memory) to process the token.
    pub(crate) weight_bytes: u64,
    /// KV-cache bytes read in situ by the stage.
    pub(crate) kv_read_bytes: u64,
    /// KV-cache bytes written (appended) by the stage.
    pub(crate) kv_write_bytes: u64,
    /// Input activation bytes consumed.
    pub(crate) act_in_bytes: u64,
    /// Output activation bytes produced.
    pub(crate) act_out_bytes: u64,
    /// Element-wise / reduction operations executed on the SFU.
    pub(crate) sfu_ops: u64,
}

impl StageCosts {
    /// Computes the costs of `kind` for one token of `model` attending to
    /// `attended` KV positions (including itself).
    pub(crate) fn for_token(model: &ModelConfig, kind: StageKind, attended: usize) -> StageCosts {
        let d = model.hidden_dim as u64;
        let qkv = (model.heads * model.head_dim) as u64;
        let f = model.ffn_dim as u64;
        let heads = model.heads as u64;
        let att = attended as u64;
        let b = model.precision.bytes();

        match kind {
            StageKind::QkvGeneration => StageCosts {
                flops: 2 * d * 3 * qkv,
                weight_bytes: 3 * d * qkv * b,
                kv_write_bytes: 2 * qkv * b,
                act_in_bytes: d * b,
                act_out_bytes: 3 * qkv * b,
                sfu_ops: 4 * d, // LayerNorm mean/var/normalise
                ..StageCosts::default()
            },
            StageKind::Score => StageCosts {
                // Q·Kᵀ per head: head_dim MACs per attended position.
                flops: 2 * att * qkv,
                kv_read_bytes: att * qkv * b,
                act_in_bytes: qkv * b,
                act_out_bytes: att * heads * b,
                ..StageCosts::default()
            },
            StageKind::Softmax => StageCosts {
                // exp + running max/sum + divide per score entry.
                sfu_ops: 5 * att * heads,
                act_in_bytes: att * heads * b,
                act_out_bytes: att * heads * b,
                ..StageCosts::default()
            },
            StageKind::ContextProjection => StageCosts {
                // softmax(S)·V plus the output projection.
                flops: 2 * att * qkv + 2 * qkv * d,
                weight_bytes: qkv * d * b,
                kv_read_bytes: att * qkv * b,
                act_in_bytes: att * heads * b,
                act_out_bytes: d * b,
                sfu_ops: d, // residual add
                ..StageCosts::default()
            },
            StageKind::Ffn1 => StageCosts {
                flops: 2 * d * f,
                weight_bytes: d * f * b,
                act_in_bytes: d * b,
                act_out_bytes: f * b,
                sfu_ops: 4 * d + f, // LayerNorm + activation function
                ..StageCosts::default()
            },
            StageKind::Ffn2 => StageCosts {
                flops: 2 * f * d,
                weight_bytes: f * d * b,
                act_in_bytes: f * b,
                act_out_bytes: d * b,
                sfu_ops: d, // residual add
                ..StageCosts::default()
            },
        }
    }
}

impl std::ops::Add for StageCosts {
    type Output = StageCosts;

    /// Sum of two cost records, field-wise.
    fn add(self, other: StageCosts) -> StageCosts {
        StageCosts {
            flops: self.flops + other.flops,
            weight_bytes: self.weight_bytes + other.weight_bytes,
            kv_read_bytes: self.kv_read_bytes + other.kv_read_bytes,
            kv_write_bytes: self.kv_write_bytes + other.kv_write_bytes,
            act_in_bytes: self.act_in_bytes + other.act_in_bytes,
            act_out_bytes: self.act_out_bytes + other.act_out_bytes,
            sfu_ops: self.sfu_ops + other.sfu_ops,
        }
    }
}

/// Aggregated costs of one token flowing through one whole transformer block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct BlockCosts {
    /// Per-stage costs in pipeline order.
    pub(crate) stages: [StageCosts; STAGES_PER_BLOCK],
}

impl BlockCosts {
    /// Costs of one token attending to `attended` positions in one block.
    pub(crate) fn for_token(model: &ModelConfig, attended: usize) -> BlockCosts {
        let mut stages = [StageCosts::default(); STAGES_PER_BLOCK];
        for (i, kind) in StageKind::ALL.iter().enumerate() {
            stages[i] = StageCosts::for_token(model, *kind, attended);
        }
        BlockCosts { stages }
    }

    /// Total over all six stages.
    pub(crate) fn total(&self) -> StageCosts {
        self.stages.iter().fold(StageCosts::default(), |acc, s| acc + *s)
    }
}

impl ModelConfig {
    /// Total FLOPs to run one token through the entire model (all blocks)
    /// when it attends to `attended` positions.
    pub(crate) fn token_flops(&self, attended: usize) -> u64 {
        BlockCosts::for_token(self, attended).total().flops * self.blocks as u64
    }

    /// Total FLOPs of the prefill phase of a prompt of `prompt_len` tokens
    /// under this model's mask (token *t* attends to `attended_positions(t)`).
    pub(crate) fn prefill_flops(&self, prompt_len: usize) -> u64 {
        let mask = self.mask();
        (0..prompt_len).map(|t| self.token_flops(mask.attended_positions(t, prompt_len, prompt_len))).sum()
    }

    /// Total FLOPs of decoding `decode_len` tokens after a prompt of
    /// `prompt_len` tokens (each decode step attends to everything so far).
    pub(crate) fn decode_flops(&self, prompt_len: usize, decode_len: usize) -> u64 {
        (0..decode_len).map(|t| self.token_flops(prompt_len + t + 1)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use proptest::prelude::*;

    #[test]
    fn ffn_flops_independent_of_context() {
        let m = zoo::llama_13b();
        let a = StageCosts::for_token(&m, StageKind::Ffn1, 1);
        let b = StageCosts::for_token(&m, StageKind::Ffn1, 4096);
        assert_eq!(a.flops, b.flops);
    }

    #[test]
    fn score_flops_scale_linearly_with_context() {
        let m = zoo::llama_13b();
        let one = StageCosts::for_token(&m, StageKind::Score, 1).flops;
        let thousand = StageCosts::for_token(&m, StageKind::Score, 1000).flops;
        assert_eq!(thousand, one * 1000);
    }

    #[test]
    fn qkv_writes_kv_for_every_head() {
        let m = zoo::llama_13b();
        let c = StageCosts::for_token(&m, StageKind::QkvGeneration, 1);
        assert_eq!(c.kv_write_bytes, m.kv_bytes_per_token_per_block());
    }

    #[test]
    fn only_attention_stages_read_kv() {
        let m = zoo::llama_13b();
        for kind in StageKind::ALL {
            let c = StageCosts::for_token(&m, kind, 128);
            assert_eq!(c.kv_read_bytes > 0, kind.uses_kv_cache());
        }
    }

    #[test]
    fn block_total_is_sum_of_stages() {
        let m = zoo::llama_13b();
        let block = BlockCosts::for_token(&m, 256);
        let manual: u64 = block.stages.iter().map(|s| s.flops).sum();
        assert_eq!(block.total().flops, manual);
    }

    #[test]
    fn softmax_has_no_macs() {
        let m = zoo::llama_13b();
        let c = StageCosts::for_token(&m, StageKind::Softmax, 512);
        assert_eq!(c.flops, 0);
        assert!(c.sfu_ops > 0);
    }

    #[test]
    fn token_flops_multiplies_blocks() {
        let m = zoo::llama_13b();
        let per_block = BlockCosts::for_token(&m, 10).total().flops;
        assert_eq!(m.token_flops(10), per_block * m.blocks as u64);
    }

    #[test]
    fn decode_flops_grow_with_decode_length() {
        let m = zoo::llama_13b();
        assert!(m.decode_flops(128, 256) > m.decode_flops(128, 128));
        assert_eq!(m.decode_flops(128, 0), 0);
    }

    #[test]
    fn prefill_uses_mask_causal_cheaper_than_bidirectional_score() {
        let llama = zoo::llama_13b();
        let bert = zoo::bert_large();
        // Causal prefill touches ~half the score entries of bidirectional.
        let l = llama.mask().valid_score_entries(512, 512) as f64 / 512.0 / 512.0;
        let b = bert.mask().valid_score_entries(512, 512) as f64 / 512.0 / 512.0;
        assert!(l < 0.52 && l > 0.49);
        assert!((b - 1.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn stage_costs_monotone_in_context(att1 in 1usize..2048, extra in 0usize..2048) {
            let m = zoo::llama_13b();
            let att2 = att1 + extra;
            for kind in StageKind::ALL {
                let a = StageCosts::for_token(&m, kind, att1);
                let b = StageCosts::for_token(&m, kind, att2);
                prop_assert!(b.flops >= a.flops);
                prop_assert!(b.kv_read_bytes >= a.kv_read_bytes);
                prop_assert!(b.sfu_ops >= a.sfu_ops);
            }
        }

        #[test]
        fn prefill_plus_decode_matches_stepwise(prompt in 1usize..64, decode in 0usize..64) {
            let m = zoo::llama_13b();
            let total = m.prefill_flops(prompt) + m.decode_flops(prompt, decode);
            let manual: u64 = (0..prompt + decode)
                .map(|t| m.token_flops(t + 1))
                .sum();
            prop_assert_eq!(total, manual);
        }
    }
}
