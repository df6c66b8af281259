//! Session traces: shared system prompts and multi-turn conversations.
//!
//! Real serving traffic is dominated by *repeated* prompt content: thousands
//! of concurrent users talk to the same assistant (one shared system prompt
//! per product surface), and each conversation replays its growing history
//! on every turn. The offline trace generators treat every prompt as unique,
//! which makes prefix caching invisible; this module generates traces whose
//! requests carry [`SharedPrefix`](crate::request::SharedPrefix) tags so
//! the serving stack's radix-style KV reuse has something to reuse.
//!
//! A [`SessionConfig`] describes a population of `groups` distinct system
//! prompts. Each generated request is, with probability `share_ratio`, a
//! conversation turn on one of those system prompts: its prompt is the
//! shared prefix plus the (unshared) conversation history accumulated over
//! earlier turns plus a fresh user message, and it is tagged with the
//! group's shared prefix. The remaining requests are cold, fully unique
//! prompts. Everything is drawn from one seeded stream, so the same seed and
//! configuration always produce the same trace.

use crate::request::Request;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of a shared-prefix session workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionConfig {
    /// Number of distinct shared system prompts in the population.
    pub groups: usize,
    /// Length of each shared system prompt in tokens.
    pub shared_prefix_tokens: usize,
    /// Fraction of requests that are conversation turns on a shared system
    /// prompt (the rest have fully unique prompts), in `[0, 1]`.
    pub share_ratio: f64,
    /// Maximum turns per conversation; each request draws its turn number
    /// uniformly from `1..=max_turns`, so later turns carry more history.
    pub max_turns: usize,
    /// Mean fresh user tokens added per turn (jittered ±50%).
    pub user_turn_tokens: usize,
    /// Mean decode (assistant answer) tokens per turn (jittered ±50%).
    pub decode_tokens: usize,
}

impl SessionConfig {
    /// A chat-assistant-shaped default: a handful of product system prompts
    /// of 512 tokens, 70% of traffic on them, up to four turns of history.
    pub fn chat(groups: usize, share_ratio: f64) -> SessionConfig {
        SessionConfig {
            groups,
            shared_prefix_tokens: 512,
            share_ratio,
            max_turns: 4,
            user_turn_tokens: 64,
            decode_tokens: 96,
        }
    }

    /// Generates `n` requests under this session mix with a fixed seed.
    ///
    /// # Panics
    ///
    /// Panics when `share_ratio` is outside `[0, 1]`, or when a positive
    /// share ratio is configured with zero groups or a zero-length prefix.
    pub fn generate(&self, n: usize, seed: u64) -> Trace {
        assert!(
            (0.0..=1.0).contains(&self.share_ratio),
            "share_ratio must be a probability, got {}",
            self.share_ratio
        );
        if self.share_ratio > 0.0 {
            assert!(self.groups > 0, "a positive share ratio needs at least one prefix group");
            assert!(self.shared_prefix_tokens > 0, "a positive share ratio needs a non-empty prefix");
        }
        // Offset from the plain length-sampling stream so a seed shared with
        // `TraceGenerator` does not correlate the two workloads.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e55_10f5_5eed_0003);
        let jitter = |rng: &mut StdRng, mean: usize| -> usize {
            if mean == 0 {
                return 0;
            }
            let lo = mean - mean / 2;
            let hi = mean + mean / 2;
            rng.gen_range(lo..=hi)
        };
        let requests = (0..n)
            .map(|id| {
                let shared: f64 = rng.gen_range(0.0..1.0);
                let user = jitter(&mut rng, self.user_turn_tokens).max(1);
                let decode = jitter(&mut rng, self.decode_tokens);
                if shared < self.share_ratio {
                    let group = rng.gen_range(0..self.groups as u64);
                    let turn = rng.gen_range(1..=self.max_turns.max(1));
                    // History: earlier turns' user messages and answers are
                    // part of the prompt but unique to this conversation.
                    let history = (turn - 1) * (self.user_turn_tokens + self.decode_tokens);
                    let prompt = self.shared_prefix_tokens + history + user;
                    Request::new(id, prompt, decode).with_shared_prefix(group, self.shared_prefix_tokens)
                } else {
                    // Cold request: a unique prompt of comparable size.
                    let prompt = jitter(&mut rng, self.shared_prefix_tokens.max(2 * user)).max(1) + user;
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

    /// Fraction of a trace's requests that carry a shared prefix.
    fn shared_fraction(trace: &Trace) -> f64 {
        if trace.is_empty() {
            return 0.0;
        }
        let shared = trace.requests.iter().filter(|r| r.shared_prefix.is_some()).count();
        shared as f64 / trace.len() as f64
    }

    /// Total tokens of a trace that are *potentially* cacheable: the sum of
    /// shared-prefix lengths over tagged requests. An upper bound on what a
    /// prefix cache can save (actual savings depend on residency overlap).
    fn shareable_tokens(trace: &Trace) -> u64 {
        trace.requests.iter().map(|r| r.shared_prefix_tokens() as u64).sum()
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = SessionConfig::chat(4, 0.7);
        let a = cfg.generate(200, 11);
        let b = cfg.generate(200, 11);
        let c = cfg.generate(200, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn share_ratio_is_respected_statistically() {
        let cfg = SessionConfig::chat(8, 0.6);
        let t = cfg.generate(2000, 3);
        let frac = shared_fraction(&t);
        assert!((frac - 0.6).abs() < 0.05, "shared fraction {frac} should be ~0.6");
        assert!(shareable_tokens(&t) > 0);
    }

    #[test]
    fn shared_requests_cover_every_group_and_clamp_to_prompt() {
        let cfg = SessionConfig::chat(3, 1.0);
        let t = cfg.generate(300, 5);
        let mut groups = std::collections::BTreeSet::new();
        for r in &t.requests {
            let p = r.shared_prefix.expect("share ratio 1.0 tags everything");
            assert!(p.tokens <= r.prompt_len);
            assert_eq!(p.tokens, cfg.shared_prefix_tokens);
            groups.insert(p.group);
        }
        assert_eq!(groups.len(), 3, "every system prompt must appear in a long trace");
    }

    #[test]
    fn later_turns_carry_more_history() {
        let cfg = SessionConfig::chat(1, 1.0);
        let t = cfg.generate(500, 9);
        let max_prompt = t.requests.iter().map(|r| r.prompt_len).max().unwrap();
        let min_prompt = t.requests.iter().map(|r| r.prompt_len).min().unwrap();
        assert!(
            max_prompt >= min_prompt + cfg.user_turn_tokens + cfg.decode_tokens,
            "multi-turn prompts must spread by at least one turn of history"
        );
    }

    #[test]
    fn zero_share_ratio_produces_only_unique_prompts() {
        let cfg = SessionConfig { share_ratio: 0.0, ..SessionConfig::chat(4, 0.0) };
        let t = cfg.generate(100, 1);
        assert_eq!(shared_fraction(&t), 0.0);
        assert_eq!(shareable_tokens(&t), 0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_share_ratio_is_rejected() {
        SessionConfig::chat(4, 1.5).generate(10, 0);
    }
}
