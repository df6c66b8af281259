//! The complete stage: retires finished sequences from the active set,
//! and turns each finished request into its [`crate::RequestRecord`].
//! Owns the `complete` trace kind (a disaggregated prefill's KV handoff —
//! the `kv_export` kind — belongs to the migrate stage, emitted here at
//! the handoff point).

use crate::engine::{Completion, Engine};
use crate::metrics::RequestRecord;
use crate::stage::InFlight;
use ouro_trace::EventKind;

/// Retires every completed sequence at `end_s`: a prefill-only completion
/// exports its KV for migration and makes no record (the decode wafer
/// finishes the request), a full completion releases its KV and records
/// the finished request. Returns the completions stamped with their
/// times. The engine calls it only on a step where some sequence
/// finished: a finished sequence has had its last event, so its progress
/// is written back.
pub(crate) fn retire(e: &mut Engine, end_s: f64) -> Vec<Completion> {
    let mut completions = Vec::new();
    // The event column drops the same rows as the active set, in order.
    let active = &e.active;
    let mut row = 0;
    e.next_event.retain(|_| {
        row += 1;
        !active[row - 1].done()
    });
    let records = &mut e.records;
    let manager = &mut e.manager;
    let tracer = &mut e.tracer;
    let ctx_tokens = &mut e.ctx_tokens;
    e.active.retain(|a| {
        if a.done() {
            let InFlight { request, arrival_s, first_token_s, seq } = a.req;
            *ctx_tokens -= (request.prompt_len + a.decoded) as u64;
            if a.prefill_only {
                // A disaggregated prefill hands its KV off instead of
                // discarding it; the export counter feeds migration
                // byte accounting.
                manager.export_sequence(seq).expect("prefill-only sequence is resident");
                tracer.emit(end_s, Some(request.id), EventKind::KvExport { tokens: request.prompt_len });
            } else {
                manager.release(seq);
                tracer.emit(end_s, Some(request.id), EventKind::Complete);
                let decode_len = request.decode_len;
                records.push(RequestRecord { arrival_s, first_token_s, completed_s: end_s, decode_len });
            }
            completions.push(Completion { request, arrival_s, done_s: end_s });
            false
        } else {
            true
        }
    });
    completions
}
