//! The admission stage: FCFS continuous batching over the pending arena,
//! with the offline scheduler's eviction rules.
//!
//! Consumes [`crate::stage::PendingReq`] events from the engine's pending
//! arena and produces residency ([`crate::stage::ActiveSeq`] entries in the
//! active set). Capacity exhaustion flows the other way: eviction returns a
//! resident sequence to the *front* of the pending arena with its progress.
//! Owns the `admission`, `drop` and `evict` trace kinds.

use super::{ActiveSeq, PendingReq, Stage};
use crate::engine::Engine;
use ouro_kvcache::KvError;
use ouro_trace::EventKind;

/// Tokens a pending request will occupy at admission (prompt plus any
/// decode progress that survives an eviction).
pub(crate) fn resident_demand(e: &Engine, p: &PendingReq) -> usize {
    e.records[p.rec].prompt_len + p.decoded
}

/// Admission phase of one iteration: FCFS continuous batching with the
/// offline scheduler's eviction rules.
pub(crate) fn admit_waiting(e: &mut Engine) {
    // Nothing resident means nothing can complete, so a suspension would
    // deadlock; lift it.
    if e.active.is_empty() {
        e.admission_suspended = false;
    }
    while !e.admission_suspended && e.active.len() < e.config.max_batch {
        // Earliest-submitted *admissible* request. Readiness is monotone
        // with queue order for local arrivals, but not for imported KV
        // (a small migration submitted later can land before a large one
        // submitted earlier), so an unready head must not block a landed
        // request behind it. The arena's readiness/rank heaps answer
        // this in O(log n) where the deque took a linear scan.
        let Some((slot, front)) = e.pending.peek_ready(e.clock_s) else {
            break; // nothing has arrived (or finished migrating) yet
        };
        #[cfg(debug_assertions)]
        {
            // Differential check against the old FCFS position scan.
            let naive =
                e.pending.entries().iter().find(|&&(ready, _)| ready <= e.clock_s).map(|&(_, p)| p.rec);
            debug_assert_eq!(
                Some(front.rec),
                naive,
                "arena admission pick diverged from the naive FCFS scan"
            );
        }
        let tokens = resident_demand(e, &front);
        let seq_id = front.rec as u64;
        let prefix = if e.config.prefix_caching {
            e.records[front.rec].shared_prefix.map(|p| (p.group, p.tokens))
        } else {
            None
        };
        let admitted = if front.imported {
            e.manager.import_with_prefix(seq_id, tokens, prefix, front.wire_tokens.min(tokens))
        } else {
            e.manager.admit_with_prefix(seq_id, tokens, prefix)
        };
        match admitted {
            Ok(cached) => {
                e.pending.remove(slot);
                e.pending_tokens -= tokens;
                e.pending_wire_tokens -= front.wire_tokens;
                e.stats.admissions += 1;
                // Prefill is charged only for tokens that are neither in
                // the prefix cache nor freshly arrived over the link.
                // (An import can still owe recompute if the chain it was
                // deduplicated against died while the bytes were in
                // flight.)
                let materialized = if front.imported { front.wire_tokens + cached } else { cached };
                let prefill_charge = tokens.saturating_sub(materialized);
                e.stats.prefilled_tokens += prefill_charge as u64;
                e.stats.cached_prefix_tokens += cached as u64;
                if cached > 0 {
                    e.stats.prefix_hits += 1;
                }
                if front.evicted {
                    e.stats.recomputed_tokens += prefill_charge as u64;
                }
                let r = &mut e.records[front.rec];
                if r.admitted_s.is_nan() {
                    r.admitted_s = e.clock_s;
                }
                r.queue_wait_s += (e.clock_s - front.ready_s).max(0.0);
                r.cached_prefix_tokens = cached;
                let req = Some(r.id);
                Stage::Admission.emit(
                    &mut e.tracer,
                    e.clock_s,
                    req,
                    EventKind::Admission { cached_tokens: cached, recompute: front.evicted },
                );
                if front.imported {
                    Stage::Migrate.emit(
                        &mut e.tracer,
                        e.clock_s,
                        req,
                        EventKind::KvImport { wire_tokens: front.wire_tokens, deduped_tokens: cached },
                    );
                }
                if prefill_charge > 0 {
                    Stage::Prefill.emit(
                        &mut e.tracer,
                        e.clock_s,
                        req,
                        EventKind::PrefillStart { tokens: prefill_charge },
                    );
                }
                e.active.push(ActiveSeq {
                    rec: front.rec,
                    prefill_remaining: prefill_charge,
                    decoded: front.decoded,
                    admission_order: e.order_counter,
                    prefill_only: front.prefill_only,
                });
                e.order_counter += 1;
            }
            Err(KvError::OutOfCapacity) => {
                e.manager.release(seq_id);
                if e.active.is_empty() {
                    // Even an empty cache cannot hold it: drop to
                    // guarantee progress (the offline scheduler does the
                    // same).
                    e.pending.remove(slot);
                    e.pending_tokens -= tokens;
                    e.pending_wire_tokens -= front.wire_tokens;
                    e.stats.dropped += 1;
                    if front.imported {
                        e.stats.dropped_imported_tokens += front.wire_tokens as u64;
                    }
                    Stage::Admission.emit(
                        &mut e.tracer,
                        e.clock_s,
                        Some(e.records[front.rec].id),
                        EventKind::Drop,
                    );
                    continue;
                }
                evict_most_recent(e);
                e.admission_suspended = true;
                break;
            }
            Err(err) => panic!("unexpected kv error during admission: {err}"),
        }
    }
}

/// Evicts the most recently admitted sequence back to the queue front.
pub(crate) fn evict_most_recent(e: &mut Engine) {
    let victim_pos = e
        .active
        .iter()
        .enumerate()
        .max_by_key(|(_, a)| a.admission_order)
        .map(|(i, _)| i)
        .expect("evict_most_recent requires a resident sequence");
    let victim = e.active.swap_remove(victim_pos);
    requeue_evicted(e, victim, false);
}

/// Shared eviction bookkeeping: the victim's resident KV (prompt plus
/// decode progress) is released and the request returns to the *front*
/// of the queue keeping its progress. The recompute charge lands at
/// re-admission (see [`crate::engine::EngineStats::recomputed_tokens`]),
/// so a victim touched by both the capacity path and the fault path in
/// one step is counted once, when the replay is actually scheduled.
pub(crate) fn requeue_evicted(e: &mut Engine, victim: ActiveSeq, fault: bool) {
    let resident = e.records[victim.rec].prompt_len + victim.decoded;
    e.stats.evictions += 1;
    e.records[victim.rec].evictions += 1;
    e.manager.release(victim.rec as u64);
    Stage::Admission.emit(
        &mut e.tracer,
        e.clock_s,
        Some(e.records[victim.rec].id),
        EventKind::Evict { resident_tokens: resident, fault },
    );
    // An evicted import loses its migrated KV: it re-enters as a local
    // recompute (imported = false). The eviction clock is already in the
    // past, so readiness never gates a requeue.
    e.pending.push_front(
        e.clock_s,
        PendingReq {
            rec: victim.rec,
            decoded: victim.decoded,
            ready_s: e.clock_s,
            imported: false,
            wire_tokens: 0,
            evicted: true,
            prefill_only: victim.prefill_only,
        },
    );
    e.pending_tokens += resident;
}
