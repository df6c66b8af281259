//! The complete stage: retires finished sequences from the active set.
//! Owns the `complete` trace kind (a disaggregated prefill's KV handoff —
//! the `kv_export` kind — belongs to the migrate stage, emitted here at
//! the handoff point).

use super::Stage;
use crate::engine::{Completion, Engine};
use ouro_trace::EventKind;

/// Retires every completed sequence at `end_s`: a prefill-only completion
/// exports its KV for migration, a full completion releases it. Returns
/// the completions stamped with their times.
pub(crate) fn retire(e: &mut Engine, end_s: f64) -> Vec<Completion> {
    let mut completions = Vec::new();
    let records = &mut e.records;
    let manager = &mut e.manager;
    let tracer = &mut e.tracer;
    e.active.retain(|a| {
        let done = a.prefill_remaining == 0 && (a.prefill_only || a.decoded >= a.decode_len);
        if done {
            let r = &mut records[a.rec];
            r.completed_s = end_s;
            if a.prefill_only {
                // A disaggregated prefill hands its KV off instead of
                // discarding it; the export counter feeds migration
                // byte accounting.
                manager.export_sequence(a.rec as u64).expect("prefill-only sequence is resident");
                Stage::Migrate.emit(tracer, end_s, Some(r.id), EventKind::KvExport { tokens: r.prompt_len });
            } else {
                manager.release(a.rec as u64);
                Stage::Complete.emit(tracer, end_s, Some(r.id), EventKind::Complete);
            }
            completions.push((a.rec, end_s));
            false
        } else {
            true
        }
    });
    completions
}
