//! The prefill stage: streams prompt (or recompute) chunks through the
//! token-grained pipeline. Owns the `prefill_start` (emitted at admission,
//! where the charge is computed) and `prefill_end` trace kinds.

use crate::engine::{Engine, PREFILL_CHUNK};
use ouro_trace::EventKind;

/// Advances the prefill of active sequence `i` by one chunk if it is still
/// prefilling; returns whether the prefill stage handled the sequence this
/// iteration (the decode stage then skips it). A sequence whose prefill
/// ends here decodes from the next step on.
pub(crate) fn advance_one(e: &mut Engine, i: usize, end_s: f64) -> bool {
    let a = e.active[i];
    if a.prefill_remaining == 0 {
        return false;
    }
    let left = a.prefill_remaining.saturating_sub(PREFILL_CHUNK);
    e.prefill_tokens = e.prefill_tokens - a.prefill_remaining.min(PREFILL_CHUNK) + left.min(PREFILL_CHUNK);
    e.active[i].prefill_remaining = left;
    if left == 0 {
        e.tracer.emit(end_s, Some(a.req.request.id), EventKind::PrefillEnd);
        e.active[i].since = e.stats.steps;
        e.decoding += usize::from(e.active[i].decoding());
    }
    e.schedule(i);
    true
}
