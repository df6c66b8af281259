//! Sequence-length configurations (the x-axis groups of Fig. 13–15).

/// How prompt and decode lengths are drawn for a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum LengthConfig {
    /// Every request uses exactly `prompt` prefill tokens and `decode`
    /// generated tokens.
    Fixed {
        /// Prefill length `L_P`.
        prompt: usize,
        /// Decode length `L_D`.
        decode: usize,
    },
    /// Log-normally distributed prompt and decode lengths clipped to a range,
    /// approximating the WikiText-2-derived request mix of the paper.
    LogNormal {
        /// Mean of the underlying normal for the prompt length (in ln-tokens).
        prompt_mu: f64,
        /// Standard deviation of the underlying normal for the prompt length.
        prompt_sigma: f64,
        /// Mean of the underlying normal for the decode length.
        decode_mu: f64,
        /// Standard deviation of the underlying normal for the decode length.
        decode_sigma: f64,
        /// Inclusive clipping range for both lengths.
        min_len: usize,
        /// Inclusive upper clip.
        max_len: usize,
    },
}

impl LengthConfig {
    /// Fixed `(L_P, L_D)` configuration.
    pub fn fixed(prompt: usize, decode: usize) -> LengthConfig {
        LengthConfig::Fixed { prompt, decode }
    }

    /// The WikiText-2-like variable-length configuration (see crate docs for
    /// the substitution rationale): median prompt ≈ 250 tokens with a heavy
    /// tail, median generation ≈ 150 tokens.
    pub fn wikitext2_like() -> LengthConfig {
        LengthConfig::LogNormal {
            prompt_mu: 5.5,
            prompt_sigma: 0.9,
            decode_mu: 5.0,
            decode_sigma: 0.7,
            min_len: 16,
            max_len: 2048,
        }
    }

    /// The four workload configurations of the paper's main evaluation, with
    /// their display labels.
    pub fn paper_suite() -> Vec<(String, LengthConfig)> {
        vec![
            ("WikiText-2".to_string(), LengthConfig::wikitext2_like()),
            ("LP=128 LD=2048".to_string(), LengthConfig::fixed(128, 2048)),
            ("LP=2048 LD=128".to_string(), LengthConfig::fixed(2048, 128)),
            ("LP=2048 LD=2048".to_string(), LengthConfig::fixed(2048, 2048)),
        ]
    }

    /// Expected total tokens (prompt + decode) of one request, used for quick
    /// capacity estimates. For log-normal configs this is the clipped
    /// distribution's rough mean, not an exact moment.
    pub fn nominal_total_tokens(&self) -> usize {
        match self {
            LengthConfig::Fixed { prompt, decode } => prompt + decode,
            LengthConfig::LogNormal {
                prompt_mu,
                prompt_sigma,
                decode_mu,
                decode_sigma,
                min_len,
                max_len,
            } => {
                let mean = |mu: f64, sigma: f64| (mu + sigma * sigma / 2.0).exp();
                let p = mean(*prompt_mu, *prompt_sigma).clamp(*min_len as f64, *max_len as f64);
                let d = mean(*decode_mu, *decode_sigma).clamp(*min_len as f64, *max_len as f64);
                (p + d).round() as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_suite_has_four_configs() {
        let suite = LengthConfig::paper_suite();
        assert_eq!(suite.len(), 4);
        assert!(suite[0].1 == LengthConfig::wikitext2_like());
        assert_eq!(suite[1].1, LengthConfig::fixed(128, 2048));
        assert_eq!(suite[2].1, LengthConfig::fixed(2048, 128));
        assert_eq!(suite[3].1, LengthConfig::fixed(2048, 2048));
    }

    #[test]
    fn fixed_nominal_tokens() {
        assert_eq!(LengthConfig::fixed(128, 2048).nominal_total_tokens(), 2176);
    }

    #[test]
    fn wikitext_nominal_tokens_are_plausible() {
        let n = LengthConfig::wikitext2_like().nominal_total_tokens();
        assert!(n > 100 && n < 2048, "got {n}");
    }
}
