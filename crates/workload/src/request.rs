//! A single inference request.

/// Identity of a shared prompt prefix: requests carrying the same `group`
/// have byte-identical leading `tokens` tokens (a shared system prompt or
/// common conversation history), which a prefix-caching KV manager can store
/// once and share copy-on-write.
///
/// The simulator never looks at token *values*, so the group id stands in
/// for the content hash chain a real radix cache would compute over the
/// prompt tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SharedPrefix {
    /// Content identity of the shared prefix (equal group ⇒ equal tokens).
    pub group: u64,
    /// Length of the shared prefix in tokens (never exceeds the prompt).
    pub tokens: usize,
}

/// One inference request: a prompt to prefill and a number of tokens to
/// decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Request identifier (dense, assigned by the trace generator).
    pub id: usize,
    /// Prompt (prefill) length in tokens. Always at least 1.
    pub prompt_len: usize,
    /// Number of tokens to generate (decode). May be 0 for encoder-style
    /// scoring workloads.
    pub decode_len: usize,
    /// The leading portion of the prompt shared with other requests of the
    /// same prefix group (`None` for a fully unique prompt).
    pub shared_prefix: Option<SharedPrefix>,
}

impl Request {
    /// Creates a request with a fully unique prompt.
    ///
    /// # Panics
    ///
    /// Panics if `prompt_len` is zero.
    pub fn new(id: usize, prompt_len: usize, decode_len: usize) -> Request {
        assert!(prompt_len > 0, "a request needs a non-empty prompt");
        Request { id, prompt_len, decode_len, shared_prefix: None }
    }

    /// Tags the request as sharing its leading `tokens` prompt tokens with
    /// every other request of `group` (clamped to the prompt length).
    pub fn with_shared_prefix(mut self, group: u64, tokens: usize) -> Request {
        self.shared_prefix = Some(SharedPrefix { group, tokens: tokens.min(self.prompt_len) });
        self
    }

    /// Shared-prefix tokens of this request (0 for unique prompts).
    #[cfg(test)]
    pub(crate) fn shared_prefix_tokens(&self) -> usize {
        self.shared_prefix.map_or(0, |p| p.tokens)
    }

    /// Total number of tokens the request will ever hold in the KV cache.
    pub fn total_tokens(&self) -> usize {
        self.prompt_len + self.decode_len
    }

    /// Number of output tokens (decode tokens) this request produces.
    #[cfg(test)]
    pub(crate) fn output_tokens(&self) -> usize {
        self.decode_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let r = Request::new(0, 128, 2048);
        assert_eq!(r.total_tokens(), 2176);
        assert_eq!(r.output_tokens(), 2048);
    }

    #[test]
    fn zero_decode_is_allowed() {
        let r = Request::new(1, 512, 0);
        assert_eq!(r.total_tokens(), 512);
    }

    #[test]
    #[should_panic(expected = "non-empty prompt")]
    fn empty_prompt_rejected() {
        Request::new(2, 0, 16);
    }

    #[test]
    fn shared_prefix_is_clamped_to_the_prompt() {
        let r = Request::new(3, 100, 8).with_shared_prefix(7, 400);
        assert_eq!(r.shared_prefix, Some(SharedPrefix { group: 7, tokens: 100 }));
        assert_eq!(r.shared_prefix_tokens(), 100);
        assert_eq!(Request::new(4, 100, 8).shared_prefix_tokens(), 0);
    }
}
