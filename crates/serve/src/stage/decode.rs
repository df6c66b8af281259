//! The decode stage: work selection over the active set and autoregressive
//! token growth. Owns the `decode_step` and `first_token` trace kinds.

use crate::engine::{Engine, PREFILL_CHUNK};
use ouro_kvcache::KvError;
use ouro_trace::EventKind;

/// Work selection for one iteration: a chunk of prefill tokens per
/// prefilling sequence, one decode token per decoding sequence — all
/// interleaved in the same token-grained pipeline pass. Returns the step's
/// token count and wall-clock duration.
///
/// A step that moves `T` tokens with mean context `c̄` takes
/// `max(L(c̄), T · b(c̄))` seconds: with few tokens in flight the pipeline
/// drains before it refills, with many it streams one token per bottleneck
/// interval. `L` and `b` come from the engine's stage-time table, so each
/// context length is priced once per hop distance (see
/// [`Engine::set_mean_hops`]). `T` and the context sum are the engine's
/// running counters, so planning reads no sequence. The context sum is an
/// exact integer far below 2^53, so its `f64` equals the `f64` sum of the
/// sequences' contexts in any order.
pub(crate) fn plan_step(e: &mut Engine) -> (usize, f64) {
    let step_tokens = e.prefill_tokens + e.decoding;
    debug_assert_eq!(
        (step_tokens, e.ctx_tokens, e.lazy_tokens),
        full_pass(e),
        "the step counters diverged from the per-sequence pass"
    );
    let mean_ctx = (e.ctx_tokens as f64 / e.active.len() as f64).max(1.0) as usize;
    let times = &e.times;
    let (pipeline_s, bottleneck_s) = e.stage_table.row(mean_ctx, |attended| times.step_pricing_s(attended));
    debug_assert!(
        {
            let (l, b) = times.step_pricing_s(mean_ctx);
            (l.to_bits(), b.to_bits()) == (pipeline_s.to_bits(), bottleneck_s.to_bits())
        },
        "stale stage-time table at context {mean_ctx}"
    );
    let step_s = if step_tokens == 0 {
        // Every resident sequence finished prefill with zero decode
        // tokens requested; charge one drain pass so completion time is
        // well defined.
        pipeline_s
    } else {
        pipeline_s.max(step_tokens as f64 * bottleneck_s)
    };
    (step_tokens, step_s)
}

/// The per-sequence pass the step counters replace, kept as their debug
/// differential: the step's tokens, the context sum and the lazy tokens,
/// recomputed from every sequence's written-back progress. It also checks
/// each sequence against the KV manager, which holds all of its tokens but
/// the lazy ones within the slot's room, and against its booked event.
fn full_pass(e: &Engine) -> (usize, u64, usize) {
    let now = e.stats.steps;
    let (mut step_tokens, mut ctx_tokens, mut lazy_tokens) = (0, 0, 0);
    for (a, &next) in e.active.iter().zip(&e.next_event) {
        let lazy = a.lazy(now);
        let decoded = a.decoded + lazy;
        let seq = a.req.seq;
        assert_eq!(e.manager.sequence_tokens(seq), Some(e.resident_tokens(a)));
        assert!(lazy <= e.manager.room(a.kv_slot), "sequence {seq} passed its block boundary");
        assert_eq!(next, e.event_step(a), "sequence {seq} has a stale event");
        ctx_tokens += (e.resident_tokens(a) + lazy) as u64;
        if a.prefill_remaining > 0 {
            step_tokens += a.prefill_remaining.min(PREFILL_CHUNK);
        } else if !a.prefill_only && decoded < a.req.request.decode_len {
            step_tokens += 1;
            lazy_tokens += lazy;
        }
    }
    assert_eq!(e.active.len(), e.next_event.len(), "the event column left the active set");
    (step_tokens, ctx_tokens, lazy_tokens)
}

/// Emits the step's `decode_step` event (one per iteration, covering the
/// whole interleaved batch) with the KV its batch holds as the step
/// starts, lazy decode tokens included. The occupancy is read only while
/// tracing: in debug builds each read rescans every KV core.
pub(crate) fn emit_step(e: &mut Engine, end_s: f64, step_tokens: usize) {
    if !e.tracer.enabled() {
        return;
    }
    let kind = EventKind::DecodeStep {
        batch: e.active.len(),
        tokens: step_tokens,
        kv_tokens: e.manager.used_tokens() + e.lazy_tokens,
        kv_capacity_tokens: e.manager.capacity_tokens(),
    };
    e.tracer.emit(end_s, None, kind);
}

/// Handles a decode event of active sequence `i`: its first token, the
/// token that needs a new KV block, or its last token. The lazy tokens
/// and this step's token reach the KV manager in one append; a failure to
/// grow lists the sequence in `Engine::evicted_now` for eviction instead.
/// The first token stamps the entry's `first_token_s`.
pub(crate) fn advance_one(e: &mut Engine, i: usize, end_s: f64) {
    let a = e.active[i];
    if !a.decoding() {
        // Prefill-only (decode happens on another wafer) or a zero-decode
        // request: it completes in the Complete stage.
        return;
    }
    match e.materialize(i) {
        Ok(()) => {
            // Decode progress survives eviction, so no decoded token yet
            // means no first token yet.
            debug_assert_eq!(a.decoded == 0, a.req.first_token_s.is_nan());
            if a.decoded == 0 {
                e.active[i].req.first_token_s = end_s;
                e.tracer.emit(end_s, Some(a.req.request.id), EventKind::FirstToken);
            }
            e.schedule(i);
        }
        Err(KvError::OutOfCapacity) => e.evicted_now.push(i),
        Err(err) => panic!("unexpected kv error during decode: {err}"),
    }
}
