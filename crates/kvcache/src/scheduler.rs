//! Inter-sequence scheduling on top of the distributed KV manager (§4.4.4).
//!
//! New requests are admitted first-come-first-serve so none starve;
//! autoregressive continuations are preemptible. When the cache fills up, the
//! most recently scheduled request is evicted (its KV is recomputed when it
//! is re-admitted — the "thrashing" cost) and goes back to the *front* of the
//! waiting queue; admission stays suspended until a resident request
//! completes. The anti-thrashing threshold lives inside the manager: cores
//! whose free space falls below it stop accepting *new* sequences, reserving
//! room for decode growth.
//!
//! The replay is event-driven, like the serving engine's decode
//! (`ouro_serve::engine`): between its events a resident sequence only takes
//! one token per step inside its slot's `room`, which changes no allocation
//! decision. So the loop touches a sequence only at its events (the token
//! that needs a new block, its last token, an eviction) and jumps from one
//! event step to the next; between them admission is a no-op, because it is
//! suspended or nothing waits. Every count is the one a per-token replay
//! produces (DESIGN §11.3 "Event-driven offline replay").

use crate::manager::{KvError, KvManager, KvManagerConfig, KvSlot};
use ouro_workload::Trace;
use std::collections::VecDeque;

/// Statistics gathered while replaying a trace through the KV cache.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedulerStats {
    /// Requests admitted (including re-admissions after eviction).
    pub(crate) admissions: u64,
    /// Evictions triggered by capacity exhaustion.
    pub(crate) evictions: u64,
    /// Tokens whose K/V had to be recomputed because their sequence was
    /// evicted mid-flight.
    pub(crate) recomputed_tokens: u64,
    /// Maximum number of simultaneously resident sequences.
    pub(crate) peak_resident: usize,
    /// Time-averaged number of resident sequences (in decode-step units).
    pub avg_resident: f64,
    /// Number of decode steps simulated.
    pub steps: u64,
    /// Requests fully completed.
    pub completed: u64,
    /// Requests dropped unserved: a step whose admission phase leaves
    /// nothing resident drops the head of the waiting queue.
    pub dropped: u64,
    /// Requests still waiting or resident when the step budget ran out.
    pub unfinished: u64,
}

/// Outcome of a scheduling run: the statistics plus derived quality metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerOutcome {
    /// Raw counters.
    pub stats: SchedulerStats,
    /// Total useful tokens (prompt + decode) of the trace.
    pub(crate) useful_tokens: u64,
    /// Fraction of extra work caused by thrashing:
    /// `recomputed / (useful + recomputed)`.
    pub waste_fraction: f64,
}

/// Replays request traces against a [`KvManager`].
#[derive(Debug)]
pub struct KvScheduler {
    manager: KvManager,
}

/// The step budget of one replay.
const MAX_STEPS: u64 = 10_000_000;

/// A resident sequence being decoded.
#[derive(Debug, Clone, Copy)]
struct Active {
    request_index: usize,
    /// The sequence's KV slot, fixed from admission to release.
    slot: KvSlot,
    /// Tokens decoded by the end of step `since` and handed to the manager.
    decoded: usize,
    since: u64,
    admission_order: u64,
}

impl Active {
    /// Tokens decoded by the end of step `now`, handed over or not.
    fn decoded_at(&self, now: u64, decode_len: usize) -> usize {
        self.decoded + ((now - self.since) as usize).min(decode_len - self.decoded)
    }
}

impl KvScheduler {
    /// Creates a scheduler over a fresh manager.
    ///
    /// # Errors
    ///
    /// Propagates [`KvError::NoKvCores`] from the manager.
    pub fn new(config: KvManagerConfig) -> Result<KvScheduler, KvError> {
        Ok(KvScheduler { manager: KvManager::new(config)? })
    }

    /// Read access to the underlying manager (capacity queries).
    #[cfg(test)]
    pub(crate) fn manager(&self) -> &KvManager {
        &self.manager
    }

    /// The step of `a`'s next event: the token that overflows its slot's
    /// room and needs a new block, or its last token, whichever comes
    /// first.
    fn event_step(&self, a: &Active, decode_len: usize) -> u64 {
        let until = (self.manager.room(a.slot) + 1).min(decode_len - a.decoded);
        a.since + until as u64
    }

    /// Replays `trace` in arrival order: each step every resident sequence
    /// decodes one token; requests are admitted FCFS whenever capacity
    /// permits; capacity exhaustion evicts the most recently admitted
    /// sequence.
    ///
    /// Every request ends completed, dropped or unfinished (see
    /// [`SchedulerStats`]), so the three counts sum to `trace.len()`.
    pub fn run_trace(&mut self, trace: &Trace) -> SchedulerOutcome {
        let decode_len = |a: &Active| trace.requests[a.request_index].decode_len;
        let mut waiting: VecDeque<usize> = (0..trace.len()).collect();
        let mut active: Vec<Active> = Vec::new();
        // The step of each resident sequence's next event, in lockstep with
        // `active`.
        let mut next_event: Vec<u64> = Vec::new();
        let mut stats = SchedulerStats::default();
        let mut admissions_suspended = false;
        // Σ resident sequences over decode steps: an exact integer, so the
        // mean is the one a per-step f64 sum gives.
        let mut resident_integral = 0u64;
        let mut order_counter = 0u64;
        let mut evicted_now: Vec<usize> = Vec::new();

        while (!waiting.is_empty() || !active.is_empty()) && stats.steps < MAX_STEPS {
            // Admission phase (FCFS).
            while !admissions_suspended {
                let Some(&req_idx) = waiting.front() else { break };
                let req = &trace.requests[req_idx];
                match self.manager.admit(req_idx as u64, req.prompt_len) {
                    Ok(()) => {
                        waiting.pop_front();
                        stats.admissions += 1;
                        let slot =
                            self.manager.slot_of(req_idx as u64).expect("an admitted sequence has a slot");
                        let a = Active {
                            request_index: req_idx,
                            slot,
                            decoded: 0,
                            since: stats.steps,
                            admission_order: order_counter,
                        };
                        next_event.push(self.event_step(&a, req.decode_len));
                        active.push(a);
                        order_counter += 1;
                    }
                    Err(KvError::OutOfCapacity) => {
                        // Clean up any partial allocation of the failed admit.
                        self.manager.release(req_idx as u64);
                        // Evict the most recently scheduled request if any.
                        if let Some(victim_pos) =
                            active.iter().enumerate().max_by_key(|(_, a)| a.admission_order).map(|(i, _)| i)
                        {
                            next_event.swap_remove(victim_pos);
                            let victim = active.swap_remove(victim_pos);
                            let decoded = victim.decoded_at(stats.steps, decode_len(&victim));
                            stats.evictions += 1;
                            stats.recomputed_tokens +=
                                (trace.requests[victim.request_index].prompt_len + decoded) as u64;
                            self.manager.release(victim.request_index as u64);
                            waiting.push_front(victim.request_index);
                            // Suspend new admissions until a request completes.
                            admissions_suspended = true;
                        }
                        break;
                    }
                    Err(e) => panic!("unexpected kv error during admission: {e}"),
                }
            }

            if active.is_empty() {
                // Nothing resident: the head did not fit an empty cache, or
                // an admission-time eviction emptied the active set and
                // suspended admission. Drop the head (in the second case
                // that is the eviction victim, not the request that failed
                // to fit) to guarantee progress.
                if let Some(req) = waiting.pop_front() {
                    self.manager.release(req as u64);
                    stats.dropped += 1;
                    stats.steps += 1;
                    continue;
                }
                break;
            }

            // Decode phase. Admission is suspended or has nothing waiting,
            // so until the earliest event every resident sequence only
            // takes one token per step inside its room: jump to that step.
            let first_event = next_event.iter().copied().min().expect("the active set is not empty");
            let now = first_event.max(stats.steps + 1).min(MAX_STEPS);
            stats.peak_resident = stats.peak_resident.max(active.len());
            resident_integral += (now - stats.steps) * active.len() as u64;
            stats.steps = now;
            // The due sequences take their tokens in active-set order, each
            // in one append: at a block boundary the last token needs a new
            // block, and if that fails the sequence keeps the others and is
            // evicted.
            evicted_now.clear();
            let mut finished = false;
            for (i, a) in active.iter_mut().enumerate() {
                if next_event[i] > now {
                    continue;
                }
                let len = decode_len(a);
                let lazy = a.decoded_at(now, len) - a.decoded;
                debug_assert!(lazy <= self.manager.room(a.slot) + 1, "a block boundary was skipped");
                a.since = now;
                if lazy > 0 {
                    match self.manager.append_at(a.slot, a.request_index as u64, lazy) {
                        Ok(()) => a.decoded += lazy,
                        Err(KvError::OutOfCapacity) => {
                            a.decoded += lazy - 1;
                            evicted_now.push(i);
                            continue;
                        }
                        Err(e) => panic!("unexpected kv error during decode: {e}"),
                    }
                }
                if a.decoded == len {
                    finished = true;
                } else {
                    next_event[i] = self.event_step(a, len);
                }
            }
            // Handle decode-time evictions (growth failed), highest index
            // first so swap_remove keeps the earlier indices valid.
            for &i in evicted_now.iter().rev() {
                next_event.swap_remove(i);
                let victim = active.swap_remove(i);
                stats.evictions += 1;
                stats.recomputed_tokens +=
                    (trace.requests[victim.request_index].prompt_len + victim.decoded) as u64;
                self.manager.release(victim.request_index as u64);
                waiting.push_front(victim.request_index);
            }
            if !finished {
                continue;
            }
            // Retire completed requests; completion re-enables admission.
            // A finished sequence has had its last event, so its `decoded`
            // is current; the event column drops the same rows in order.
            let mut row = 0;
            next_event.retain(|_| {
                row += 1;
                active[row - 1].decoded < decode_len(&active[row - 1])
            });
            let mut retired = 0;
            active.retain(|a| {
                if a.decoded < decode_len(a) {
                    return true;
                }
                retired += 1;
                self.manager.release(a.request_index as u64);
                false
            });
            stats.completed += retired;
            admissions_suspended = false;
        }

        stats.unfinished = (waiting.len() + active.len()) as u64;
        debug_assert_eq!(
            stats.completed + stats.dropped + stats.unfinished,
            trace.len() as u64,
            "every request ends completed, dropped or unfinished"
        );
        stats.avg_resident =
            if stats.steps > 0 { resident_integral as f64 / stats.steps as f64 } else { 0.0 };
        let useful = trace.total_tokens();
        let waste = stats.recomputed_tokens as f64 / (useful + stats.recomputed_tokens).max(1) as f64;
        SchedulerOutcome { stats, useful_tokens: useful, waste_fraction: waste }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouro_hw::CoreId;
    use ouro_workload::{LengthConfig, TraceGenerator};

    fn config(cores: usize, threshold: f64) -> KvManagerConfig {
        let mut c = KvManagerConfig::new((0..cores).map(CoreId).collect(), 128);
        c.threshold = threshold;
        c
    }

    #[test]
    fn small_trace_completes_without_evictions() {
        let trace = TraceGenerator::new(1).generate(&LengthConfig::fixed(64, 32), 4);
        let mut s = KvScheduler::new(config(8, 0.0)).unwrap();
        let out = s.run_trace(&trace);
        assert_eq!(out.stats.completed, 4);
        assert_eq!(out.stats.evictions, 0);
        assert_eq!(out.stats.recomputed_tokens, 0);
        assert_eq!(out.waste_fraction, 0.0);
        assert!(out.stats.peak_resident >= 1);
    }

    #[test]
    fn oversubscribed_cache_evicts_and_still_completes() {
        // 2 cores: tight capacity forces evictions with many long requests.
        let trace = TraceGenerator::new(2).generate(&LengthConfig::fixed(512, 512), 12);
        let mut s = KvScheduler::new(config(2, 0.0)).unwrap();
        let out = s.run_trace(&trace);
        assert_eq!(out.stats.completed, 12, "all requests should eventually finish");
        assert!(out.stats.admissions >= 12);
    }

    #[test]
    fn zero_threshold_thrashes_more_than_moderate_threshold() {
        let trace = TraceGenerator::new(3).generate(&LengthConfig::fixed(200, 900), 24);
        let mut none = KvScheduler::new(config(2, 0.0)).unwrap();
        let mut some = KvScheduler::new(config(2, 0.25)).unwrap();
        let out_none = none.run_trace(&trace);
        let out_some = some.run_trace(&trace);
        assert!(
            out_none.stats.recomputed_tokens >= out_some.stats.recomputed_tokens,
            "threshold should reduce thrashing: {} vs {}",
            out_none.stats.recomputed_tokens,
            out_some.stats.recomputed_tokens
        );
    }

    #[test]
    fn excessive_threshold_reduces_concurrency() {
        let trace = TraceGenerator::new(4).generate(&LengthConfig::fixed(128, 128), 16);
        let mut low = KvScheduler::new(config(4, 0.05)).unwrap();
        let mut high = KvScheduler::new(config(4, 0.9)).unwrap();
        let out_low = low.run_trace(&trace);
        let out_high = high.run_trace(&trace);
        assert!(
            out_high.stats.avg_resident <= out_low.stats.avg_resident + 1e-9,
            "a 0.9 threshold should not increase residency ({} vs {})",
            out_high.stats.avg_resident,
            out_low.stats.avg_resident
        );
    }

    #[test]
    fn empty_trace_is_a_noop() {
        let trace = ouro_workload::Trace { requests: vec![] };
        let mut s = KvScheduler::new(config(2, 0.1)).unwrap();
        let out = s.run_trace(&trace);
        assert_eq!(out.stats.steps, 0);
        assert_eq!(out.stats.completed, 0);
        assert_eq!(out.stats.avg_resident, 0.0);
    }

    #[test]
    fn every_request_ends_completed_dropped_or_unfinished() {
        let mut s = KvScheduler::new(config(2, 0.0)).unwrap();
        // One request larger than the whole cache, queued between requests
        // that fit: it can never be admitted, so the queue only drains by
        // dropping. (Which requests drop is the known admission defect: the
        // drop takes the queue head, which is the last eviction victim.)
        let huge = 2 * s.manager().capacity_tokens();
        let mut trace = TraceGenerator::new(6).generate(&LengthConfig::fixed(64, 32), 6);
        trace.requests.insert(3, ouro_workload::Request::new(99, huge, 4));
        let out = s.run_trace(&trace);
        assert!(out.stats.dropped >= 1 && out.stats.completed >= 1, "{:?}", out.stats);
        assert_eq!(out.stats.unfinished, 0);
        assert_eq!(out.stats.completed + out.stats.dropped + out.stats.unfinished, trace.len() as u64);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let trace = TraceGenerator::new(5).generate(&LengthConfig::wikitext2_like(), 10);
        let mut s = KvScheduler::new(config(8, 0.1)).unwrap();
        let out = s.run_trace(&trace);
        assert!(out.stats.admissions >= out.stats.completed);
        assert!(out.stats.peak_resident as f64 >= out.stats.avg_resident);
        assert!(out.waste_fraction >= 0.0 && out.waste_fraction < 1.0);
    }

    /// The per-token replay that `run_trace` replaced, kept as the
    /// reference it must match: every step, every resident sequence
    /// appends one token.
    fn run_trace_per_token(manager: &mut KvManager, trace: &Trace) -> SchedulerOutcome {
        struct PerToken {
            request_index: usize,
            slot: KvSlot,
            decoded: usize,
            /// Tokens already spent on this attempt (for recompute
            /// accounting).
            tokens_this_attempt: usize,
            admission_order: u64,
        }
        let mut waiting: VecDeque<usize> = (0..trace.len()).collect();
        let mut active: Vec<PerToken> = Vec::new();
        let mut stats = SchedulerStats::default();
        let mut admissions_suspended = false;
        let mut resident_integral = 0.0f64;
        let mut order_counter = 0u64;
        let mut evicted_now: Vec<usize> = Vec::new();

        while (!waiting.is_empty() || !active.is_empty()) && stats.steps < MAX_STEPS {
            while !admissions_suspended {
                let Some(&req_idx) = waiting.front() else { break };
                let req = &trace.requests[req_idx];
                match manager.admit(req_idx as u64, req.prompt_len) {
                    Ok(()) => {
                        waiting.pop_front();
                        stats.admissions += 1;
                        let slot = manager.slot_of(req_idx as u64).expect("an admitted sequence has a slot");
                        active.push(PerToken {
                            request_index: req_idx,
                            slot,
                            decoded: 0,
                            tokens_this_attempt: req.prompt_len,
                            admission_order: order_counter,
                        });
                        order_counter += 1;
                    }
                    Err(KvError::OutOfCapacity) => {
                        manager.release(req_idx as u64);
                        if let Some(victim_pos) =
                            active.iter().enumerate().max_by_key(|(_, a)| a.admission_order).map(|(i, _)| i)
                        {
                            let victim = active.swap_remove(victim_pos);
                            stats.evictions += 1;
                            stats.recomputed_tokens += victim.tokens_this_attempt as u64;
                            manager.release(victim.request_index as u64);
                            waiting.push_front(victim.request_index);
                            admissions_suspended = true;
                        }
                        break;
                    }
                    Err(e) => panic!("unexpected kv error during admission: {e}"),
                }
            }

            if active.is_empty() {
                if let Some(req) = waiting.pop_front() {
                    manager.release(req as u64);
                    stats.dropped += 1;
                    stats.steps += 1;
                    continue;
                }
                break;
            }

            stats.peak_resident = stats.peak_resident.max(active.len());
            resident_integral += active.len() as f64;
            stats.steps += 1;
            evicted_now.clear();
            for (i, a) in active.iter_mut().enumerate() {
                if a.decoded >= trace.requests[a.request_index].decode_len {
                    continue;
                }
                match manager.append_at(a.slot, a.request_index as u64, 1) {
                    Ok(()) => {
                        a.decoded += 1;
                        a.tokens_this_attempt += 1;
                    }
                    Err(KvError::OutOfCapacity) => evicted_now.push(i),
                    Err(e) => panic!("unexpected kv error during decode: {e}"),
                }
            }
            for &i in evicted_now.iter().rev() {
                let victim = active.swap_remove(i);
                stats.evictions += 1;
                stats.recomputed_tokens += victim.tokens_this_attempt as u64;
                manager.release(victim.request_index as u64);
                waiting.push_front(victim.request_index);
            }
            let mut retired = 0;
            active.retain(|a| {
                if a.decoded >= trace.requests[a.request_index].decode_len {
                    retired += 1;
                    manager.release(a.request_index as u64);
                    false
                } else {
                    true
                }
            });
            if retired > 0 {
                stats.completed += retired;
                admissions_suspended = false;
            }
        }

        stats.unfinished = (waiting.len() + active.len()) as u64;
        stats.avg_resident = if stats.steps > 0 { resident_integral / stats.steps as f64 } else { 0.0 };
        let useful = trace.total_tokens();
        let waste = stats.recomputed_tokens as f64 / (useful + stats.recomputed_tokens).max(1) as f64;
        SchedulerOutcome { stats, useful_tokens: useful, waste_fraction: waste }
    }

    /// Every field of an outcome as exact bits. Destructured, so a new
    /// field fails to compile until it is compared.
    fn outcome_bits(o: &SchedulerOutcome) -> [u64; 11] {
        let SchedulerOutcome { stats, useful_tokens, waste_fraction } = *o;
        let SchedulerStats {
            admissions,
            evictions,
            recomputed_tokens,
            peak_resident,
            avg_resident,
            steps,
            completed,
            dropped,
            unfinished,
        } = stats;
        [
            admissions,
            evictions,
            recomputed_tokens,
            peak_resident as u64,
            avg_resident.to_bits(),
            steps,
            completed,
            dropped,
            unfinished,
            useful_tokens,
            waste_fraction.to_bits(),
        ]
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The event-driven replay produces every statistic of the
            /// per-token replay, bit for bit: across cache sizes,
            /// anti-thrashing thresholds, fixed and WikiText-2-like
            /// lengths (decode lengths of zero among them), and with a
            /// request larger than the whole cache queued in some cases.
            #[test]
            fn event_driven_replay_matches_the_per_token_replay(
                cache in (2usize..9, 0usize..4, 0u64..1_000),
                lengths in (0usize..4, 1usize..700, 0usize..1_200),
                queue in (1usize..40, 0usize..80),
            ) {
                let (cores, threshold, seed) = cache;
                let (shape, prompt, decode) = lengths;
                let (requests, huge_at) = queue;
                let config = config(cores, [0.0, 0.1, 0.25, 0.9][threshold]);
                let lengths = match shape {
                    0 => LengthConfig::wikitext2_like(),
                    1 => LengthConfig::fixed(prompt, 0),
                    _ => LengthConfig::fixed(prompt, decode),
                };
                let mut trace = TraceGenerator::new(seed).generate(&lengths, requests);
                let mut scheduler = KvScheduler::new(config.clone()).unwrap();
                if huge_at < requests {
                    let huge = scheduler.manager().capacity_tokens() + 1;
                    trace.requests.insert(huge_at, ouro_workload::Request::new(requests, huge, decode));
                }
                let got = scheduler.run_trace(&trace);
                let want = run_trace_per_token(&mut KvManager::new(config).unwrap(), &trace);
                prop_assert_eq!(outcome_bits(&got), outcome_bits(&want), "{:?} vs {:?}", got, want);
            }
        }
    }
}
