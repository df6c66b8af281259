//! The admission stage: FCFS continuous batching over the pending queue,
//! with most-recently-admitted eviction. The rules differ from the offline
//! scheduler's in five ways, listed in the [`crate::engine`] module docs:
//! a victim keeps its decode progress, re-admission asks for
//! `prompt + decoded` tokens, a suspension lifts when nothing is resident,
//! a lone resident is never evicted for the queue head, and only a request
//! an empty cache cannot hold is dropped.
//!
//! Consumes [`crate::stage::PendingReq`] events from the engine's pending
//! queue and produces residency ([`crate::stage::ActiveSeq`] entries in the
//! active set). Capacity exhaustion flows the other way: eviction returns a
//! resident sequence to the *front* of the pending queue with its progress.
//! Owns the `admission`, `drop` and `evict` trace kinds.

use super::{ActiveSeq, PendingReq};
use crate::engine::{Engine, MAX_BATCH};
use ouro_kvcache::KvError;
use ouro_trace::EventKind;

/// Admission phase of one iteration: FCFS continuous batching with
/// most-recently-admitted eviction.
pub(crate) fn admit_waiting(e: &mut Engine) {
    // Nothing resident means nothing can complete, so a suspension would
    // deadlock; lift it.
    if e.active.is_empty() {
        e.admission_suspended = false;
    }
    while !e.admission_suspended && e.active.len() < MAX_BATCH {
        // Earliest-submitted *admissible* request. Readiness is monotone
        // with queue order for local arrivals, but not for imported KV
        // (a small migration submitted later can land before a large one
        // submitted earlier), so an unready head must not block a landed
        // request behind it. The queue's release heaps answer this in
        // O(log n) where the deque took a linear scan.
        let Some(front) = e.pending.peek_ready(e.clock_s) else {
            break; // nothing has arrived (or finished migrating) yet
        };
        #[cfg(debug_assertions)]
        {
            // Differential check against the old FCFS position scan.
            let naive = e.pending.entries().find(|&&(ready, _)| ready <= e.clock_s).map(|&(_, p)| p.req.seq);
            debug_assert_eq!(
                Some(front.req.seq),
                naive,
                "pending-queue admission pick diverged from the naive FCFS scan"
            );
        }
        // The prompt plus any decode progress that survived an eviction.
        let tokens = front.req.request.prompt_len + front.decoded;
        let (seq_id, req) = (front.req.seq, Some(front.req.request.id));
        let prefix = if e.prefix_caching {
            front.req.request.shared_prefix.map(|p| (p.group, p.tokens))
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
                e.pending.pop_ready();
                e.pending_tokens -= tokens;
                // The stamp is the admission count before this admission.
                let admission_order = e.stats.admissions;
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
                e.tracer.emit(
                    e.clock_s,
                    req,
                    EventKind::Admission { cached_tokens: cached, recompute: front.evicted },
                );
                if front.imported {
                    e.tracer.emit(
                        e.clock_s,
                        req,
                        EventKind::KvImport { wire_tokens: front.wire_tokens, deduped_tokens: cached },
                    );
                }
                if prefill_charge > 0 {
                    e.tracer.emit(e.clock_s, req, EventKind::PrefillStart { tokens: prefill_charge });
                }
                let admitted = ActiveSeq {
                    req: front.req,
                    prefill_remaining: prefill_charge,
                    decoded: front.decoded,
                    admission_order,
                    prefill_only: front.prefill_only,
                    kv_slot: e.manager.slot_of(seq_id).expect("an admitted sequence is resident"),
                    since: 0,
                };
                e.push_active(admitted);
            }
            Err(KvError::OutOfCapacity) => {
                // `admit_with_prefix` has released the sequence.
                if e.active.is_empty() {
                    // Even an empty cache cannot hold it: drop to
                    // guarantee progress. (The offline scheduler drops the
                    // queue head instead, which can be its eviction
                    // victim.)
                    e.pending.pop_ready();
                    e.pending_tokens -= tokens;
                    e.stats.dropped += 1;
                    if front.imported {
                        e.stats.dropped_imported_tokens += front.wire_tokens as u64;
                    }
                    e.tracer.emit(e.clock_s, req, EventKind::Drop);
                    continue;
                }
                // Evicting a lone resident would re-admit it at the same
                // instant and evict it again; it keeps its place and
                // admission waits for it to complete.
                if e.active.len() > 1 {
                    evict_most_recent(e);
                }
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
    let victim = e.take_active(victim_pos);
    requeue_evicted(e, victim, false);
}

/// Shared eviction bookkeeping: the victim's resident KV (prompt plus
/// decode progress) is released and the request returns to the *front*
/// of the queue keeping its progress. The recompute charge lands at
/// re-admission (see [`crate::engine::EngineStats::recomputed_tokens`]),
/// so a victim touched by both the capacity path and the fault path in
/// one step is counted once, when the replay is actually scheduled.
pub(crate) fn requeue_evicted(e: &mut Engine, victim: ActiveSeq, fault: bool) {
    let resident = e.resident_tokens(&victim);
    e.stats.evictions += 1;
    e.manager.release(victim.req.seq);
    e.tracer.emit(
        e.clock_s,
        Some(victim.req.request.id),
        EventKind::Evict { resident_tokens: resident, fault },
    );
    // An evicted import loses its migrated KV: it re-enters as a local
    // recompute (imported = false). The eviction clock is already in the
    // past, so readiness never gates a requeue.
    e.pending.push_front(
        e.clock_s,
        PendingReq {
            req: victim.req,
            decoded: victim.decoded,
            imported: false,
            wire_tokens: 0,
            evicted: true,
            prefill_only: victim.prefill_only,
        },
    );
    e.pending_tokens += resident;
}
