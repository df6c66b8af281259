//! Trace generation: turning a [`LengthConfig`] into a concrete, reproducible
//! list of requests.

use crate::length::LengthConfig;
use crate::request::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A concrete list of requests to run through a system model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Requests in arrival order.
    pub requests: Vec<Request>,
}

impl Trace {
    /// Total number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total prompt tokens across all requests.
    pub fn total_prompt_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.prompt_len as u64).sum()
    }

    /// Total decode (output) tokens across all requests.
    pub fn total_decode_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.decode_len as u64).sum()
    }

    /// Total tokens (prompt + decode) across all requests.
    pub fn total_tokens(&self) -> u64 {
        self.total_prompt_tokens() + self.total_decode_tokens()
    }

    /// Longest request (prompt + decode) in the trace, 0 for an empty trace.
    pub fn max_total_tokens(&self) -> usize {
        self.requests.iter().map(Request::total_tokens).max().unwrap_or(0)
    }
}

/// Deterministic trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    seed: u64,
}

impl TraceGenerator {
    /// Creates a generator with an explicit seed; the same seed and
    /// configuration always produce the same trace.
    pub fn new(seed: u64) -> TraceGenerator {
        TraceGenerator { seed }
    }

    /// Generates `n` requests according to `config`.
    pub fn generate(&self, config: &LengthConfig, n: usize) -> Trace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let requests = (0..n)
            .map(|id| match config {
                LengthConfig::Fixed { prompt, decode } => Request::new(id, (*prompt).max(1), *decode),
                LengthConfig::LogNormal {
                    prompt_mu,
                    prompt_sigma,
                    decode_mu,
                    decode_sigma,
                    min_len,
                    max_len,
                } => {
                    let sample = |rng: &mut StdRng, mu: f64, sigma: f64| -> usize {
                        // Box–Muller standard normal from two uniforms.
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..1.0);
                        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                        let val = (mu + sigma * z).exp();
                        (val.round() as i64).clamp(*min_len as i64, *max_len as i64) as usize
                    };
                    let prompt = sample(&mut rng, *prompt_mu, *prompt_sigma).max(1);
                    let decode = sample(&mut rng, *decode_mu, *decode_sigma);
                    Request::new(id, prompt, decode)
                }
            })
            .collect();
        Trace { requests }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Coefficient of variation of the request total lengths (standard
    /// deviation over mean); 0 for fixed-length traces. This is the
    /// "dynamism" that causes sequence-grained pipeline bubbles.
    fn length_cv(trace: &Trace) -> f64 {
        if trace.requests.len() < 2 {
            return 0.0;
        }
        let lens: Vec<f64> = trace.requests.iter().map(|r| r.total_tokens() as f64).collect();
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = lens.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / lens.len() as f64;
        var.sqrt() / mean
    }

    #[test]
    fn fixed_trace_has_uniform_lengths() {
        let t = TraceGenerator::new(1).generate(&LengthConfig::fixed(128, 2048), 50);
        assert_eq!(t.len(), 50);
        assert!(t.requests.iter().all(|r| r.prompt_len == 128 && r.decode_len == 2048));
        assert_eq!(length_cv(&t), 0.0);
        assert_eq!(t.total_tokens(), 50 * 2176);
    }

    #[test]
    fn wikitext_trace_is_variable_and_clipped() {
        let t = TraceGenerator::new(3).generate(&LengthConfig::wikitext2_like(), 500);
        assert!(length_cv(&t) > 0.1, "expected variable lengths, cv={}", length_cv(&t));
        assert!(t.requests.iter().all(|r| r.prompt_len >= 16 && r.prompt_len <= 2048));
        assert!(t.requests.iter().all(|r| r.decode_len >= 16 && r.decode_len <= 2048));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = LengthConfig::wikitext2_like();
        let a = TraceGenerator::new(7).generate(&cfg, 100);
        let b = TraceGenerator::new(7).generate(&cfg, 100);
        let c = TraceGenerator::new(8).generate(&cfg, 100);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_trace_statistics() {
        let t = Trace { requests: vec![] };
        assert!(t.is_empty());
        assert_eq!(t.max_total_tokens(), 0);
        assert_eq!(length_cv(&t), 0.0);
    }

    #[test]
    fn request_ids_are_dense() {
        let t = TraceGenerator::new(5).generate(&LengthConfig::fixed(64, 64), 10);
        for (i, r) in t.requests.iter().enumerate() {
            assert_eq!(r.id, i);
        }
    }

    proptest! {
        #[test]
        fn traces_respect_requested_size(n in 0usize..300, seed in 0u64..100) {
            let t = TraceGenerator::new(seed).generate(&LengthConfig::wikitext2_like(), n);
            prop_assert_eq!(t.len(), n);
            prop_assert_eq!(t.total_tokens(),
                t.total_prompt_tokens() + t.total_decode_tokens());
        }

        #[test]
        fn max_total_tokens_bounds_every_request(seed in 0u64..100) {
            let t = TraceGenerator::new(seed).generate(&LengthConfig::wikitext2_like(), 64);
            let max = t.max_total_tokens();
            for r in &t.requests {
                prop_assert!(r.total_tokens() <= max);
            }
        }
    }
}
