//! Pipeline granularity choices (Fig. 5).

use crate::config::{Architecture, ModelConfig};

/// The unit of work a pipeline stage advances per slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Conventional sequence-grained pipelining: each stage holds a whole
    /// sequence at a time (Fig. 5a). Subject to bubbles under variable
    /// sequence lengths.
    Sequence,
    /// Token-grained pipelining (TGP, Fig. 5b): each stage holds a single
    /// token. Requires a causal mask so attention for token *t* never waits
    /// for later tokens.
    Token,
    /// Token-grained pipelining with sequence-level blocking of the attention
    /// stages (Fig. 5c): used for bidirectional / prefix-mask models where
    /// attention must see the whole sequence.
    TokenWithBlock,
}

impl Granularity {
    /// The finest granularity legal for a model: decoders get full TGP,
    /// encoder-style models get TGP-with-block.
    pub fn finest_for(model: &ModelConfig) -> Granularity {
        if model.architecture.supports_token_grained_attention() {
            Granularity::Token
        } else {
            Granularity::TokenWithBlock
        }
    }

    /// Whether this granularity is valid for the model's mask: plain TGP is
    /// only correct for causal (decoder-only) models.
    pub(crate) fn is_valid_for(&self, model: &ModelConfig) -> bool {
        match self {
            Granularity::Token => model.architecture == Architecture::DecoderOnly,
            Granularity::Sequence | Granularity::TokenWithBlock => true,
        }
    }

    /// Number of tokens of intermediate activation each pipeline stage must
    /// buffer for a maximum sequence length of `max_seq`: one token for
    /// token-grained stages, the whole sequence for sequence-grained ones.
    #[cfg(test)]
    pub(crate) fn activation_tokens_per_stage(&self, max_seq: usize) -> usize {
        match self {
            Granularity::Sequence => max_seq,
            Granularity::Token => 1,
            // Non-attention stages buffer one token; the blocked attention
            // stages buffer the sequence's scores, which is what dominates.
            Granularity::TokenWithBlock => max_seq,
        }
    }
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Granularity::Sequence => write!(f, "sequence-grained"),
            Granularity::Token => write!(f, "token-grained"),
            Granularity::TokenWithBlock => write!(f, "token-grained+block"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn decoders_get_full_tgp() {
        assert_eq!(Granularity::finest_for(&zoo::llama_13b()), Granularity::Token);
        assert_eq!(Granularity::finest_for(&zoo::qwen_32b()), Granularity::Token);
    }

    #[test]
    fn encoders_get_blocked_tgp() {
        assert_eq!(Granularity::finest_for(&zoo::bert_large()), Granularity::TokenWithBlock);
        assert_eq!(Granularity::finest_for(&zoo::t5_11b()), Granularity::TokenWithBlock);
    }

    #[test]
    fn plain_tgp_invalid_for_bidirectional_models() {
        assert!(!Granularity::Token.is_valid_for(&zoo::bert_large()));
        assert!(Granularity::Token.is_valid_for(&zoo::llama_13b()));
        assert!(Granularity::Sequence.is_valid_for(&zoo::bert_large()));
        assert!(Granularity::TokenWithBlock.is_valid_for(&zoo::t5_11b()));
    }

    #[test]
    fn activation_buffer_shrinks_by_seq_len_under_tgp() {
        let max_seq = 4096;
        assert_eq!(Granularity::Sequence.activation_tokens_per_stage(max_seq), 4096);
        assert_eq!(Granularity::Token.activation_tokens_per_stage(max_seq), 1);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Granularity::Token.to_string(), "token-grained");
        assert_eq!(Granularity::Sequence.to_string(), "sequence-grained");
    }
}
