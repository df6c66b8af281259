//! Attention-mask shapes and their consequences for token-grained pipelining.
//!
//! Fig. 6 of the paper: causal masks (decoder-only models) let every token
//! attend only to itself and earlier tokens, so attention for token *t* can
//! start as soon as K/V for tokens `0..=t` exist — which is exactly when TGP
//! delivers them. Bidirectional and prefix masks need later tokens too, so
//! the attention stages must fall back to sequence granularity ("TGP with
//! block", Fig. 5c).

/// Shape of the attention mask used by a transformer model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaskKind {
    /// Lower-triangular causal mask: token *t* attends to `0..=t`.
    Causal,
    /// Full bidirectional mask: every token attends to every token.
    Bidirectional,
    /// Prefix mask: a bidirectional prefix followed by a causal suffix
    /// (encoder-decoder models attending over the encoded prompt).
    Prefix,
}

impl MaskKind {
    /// Number of key/value positions token `t` (0-based) of a sequence of
    /// length `seq_len` must attend to under this mask.
    ///
    /// For [`MaskKind::Prefix`], `prefix_len` gives the bidirectional prefix
    /// length; it is ignored for the other variants.
    ///
    /// # Panics
    ///
    /// Panics if `t >= seq_len`.
    pub fn attended_positions(self, t: usize, seq_len: usize, prefix_len: usize) -> usize {
        assert!(t < seq_len, "token index {t} out of range for sequence of length {seq_len}");
        match self {
            MaskKind::Causal => t + 1,
            MaskKind::Bidirectional => seq_len,
            MaskKind::Prefix => {
                if t < prefix_len {
                    // Tokens inside the prefix see the whole prefix.
                    prefix_len.max(t + 1)
                } else {
                    // Suffix tokens are causal over everything before them.
                    t + 1
                }
            }
        }
    }

    /// Total number of score-matrix entries that are *valid* (unmasked) for a
    /// sequence of length `seq_len` — the effective attention work.
    pub fn valid_score_entries(self, seq_len: usize, prefix_len: usize) -> u64 {
        (0..seq_len).map(|t| self.attended_positions(t, seq_len, prefix_len) as u64).sum()
    }
}

impl std::fmt::Display for MaskKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MaskKind::Causal => write!(f, "causal"),
            MaskKind::Bidirectional => write!(f, "bidirectional"),
            MaskKind::Prefix => write!(f, "prefix"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn causal_attends_to_prefix_inclusive() {
        assert_eq!(MaskKind::Causal.attended_positions(0, 8, 0), 1);
        assert_eq!(MaskKind::Causal.attended_positions(7, 8, 0), 8);
    }

    #[test]
    fn bidirectional_attends_to_everything() {
        for t in 0..8 {
            assert_eq!(MaskKind::Bidirectional.attended_positions(t, 8, 0), 8);
        }
    }

    #[test]
    fn prefix_mixes_both() {
        // prefix of 4, total length 8
        assert_eq!(MaskKind::Prefix.attended_positions(0, 8, 4), 4);
        assert_eq!(MaskKind::Prefix.attended_positions(3, 8, 4), 4);
        assert_eq!(MaskKind::Prefix.attended_positions(4, 8, 4), 5);
        assert_eq!(MaskKind::Prefix.attended_positions(7, 8, 4), 8);
    }

    #[test]
    fn causal_score_entries_are_triangular() {
        // 1 + 2 + ... + n = n(n+1)/2
        assert_eq!(MaskKind::Causal.valid_score_entries(100, 0), 100 * 101 / 2);
    }

    #[test]
    fn bidirectional_score_entries_are_square() {
        assert_eq!(MaskKind::Bidirectional.valid_score_entries(64, 0), 64 * 64);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn attended_positions_panics_out_of_range() {
        MaskKind::Causal.attended_positions(8, 8, 0);
    }

    proptest! {
        #[test]
        fn attended_positions_never_exceed_seq_len(
            t in 0usize..256,
            extra in 1usize..256,
            prefix in 0usize..256,
        ) {
            let seq_len = t + extra;
            for mask in [MaskKind::Causal, MaskKind::Bidirectional, MaskKind::Prefix] {
                let a = mask.attended_positions(t, seq_len, prefix.min(seq_len));
                prop_assert!(a >= 1);
                prop_assert!(a <= seq_len);
            }
        }

        #[test]
        fn causal_entries_below_bidirectional(seq in 1usize..200) {
            prop_assert!(
                MaskKind::Causal.valid_score_entries(seq, 0)
                    <= MaskKind::Bidirectional.valid_score_entries(seq, 0)
            );
        }

        #[test]
        fn prefix_entries_between_causal_and_bidirectional(
            seq in 1usize..200, prefix in 0usize..200
        ) {
            let prefix = prefix.min(seq);
            let c = MaskKind::Causal.valid_score_entries(seq, 0);
            let p = MaskKind::Prefix.valid_score_entries(seq, prefix);
            let b = MaskKind::Bidirectional.valid_score_entries(seq, 0);
            prop_assert!(c <= p && p <= b);
        }
    }
}
