//! The decode stage: work selection over the active set and autoregressive
//! token growth. Owns the `decode_step` and `first_token` trace kinds.

use super::Stage;
use crate::engine::Engine;
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
/// [`Engine::set_mean_hops`]). The context sum adds whole token counts
/// and stays far below 2^53, so it is exact in `f64` in any order; it
/// shares one pass over the active set with the token count.
pub(crate) fn plan_step(e: &mut Engine) -> (usize, f64) {
    let mut step_tokens = 0usize;
    let mut ctx_sum = 0.0f64;
    for a in &e.active {
        let resident = a.prompt_len + a.decoded;
        ctx_sum += resident as f64;
        if a.prefill_remaining > 0 {
            step_tokens += a.prefill_remaining.min(e.config.prefill_chunk);
        } else if !a.prefill_only && a.decoded < a.decode_len {
            step_tokens += 1;
        }
    }
    let mean_ctx = (ctx_sum / e.active.len() as f64).max(1.0) as usize;
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

/// Emits the step's `decode_step` event (one per iteration, covering the
/// whole interleaved batch).
pub(crate) fn emit_step(e: &mut Engine, end_s: f64, step_tokens: usize) {
    let batch = e.active.len();
    Stage::Decode.emit(&mut e.tracer, end_s, None, EventKind::DecodeStep { batch, tokens: step_tokens });
}

/// Advances active sequence `i` by one decode token (no-op for prefill-only
/// or finished sequences). A KV-growth failure marks the sequence for
/// eviction instead. The record is read only for the first token.
pub(crate) fn advance_one(e: &mut Engine, i: usize, end_s: f64, evicted_now: &mut Vec<usize>) {
    let a = e.active[i];
    if a.prefill_only {
        return; // completes in the Complete stage; decode happens on another wafer
    }
    if a.decoded >= a.decode_len {
        return; // zero-decode request: completes in the Complete stage
    }
    match e.manager.append_at(a.kv_slot, a.rec as u64, 1) {
        Ok(()) => {
            e.active[i].decoded += 1;
            // Decode progress survives eviction, so no decoded token yet
            // means no first token yet.
            debug_assert_eq!(a.decoded == 0, e.records[a.rec].first_token_s.is_nan());
            if a.decoded == 0 {
                let rec = &mut e.records[a.rec];
                rec.first_token_s = end_s;
                let id = rec.id;
                Stage::Decode.emit(&mut e.tracer, end_s, Some(id), EventKind::FirstToken);
            }
        }
        Err(KvError::OutOfCapacity) => evicted_now.push(i),
        Err(err) => panic!("unexpected kv error during decode: {err}"),
    }
}
