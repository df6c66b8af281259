//! Property tests of the staged pipeline: stage-order traversal and
//! queue-population conservation, checked at *every* event boundary of a
//! stepped run.
//!
//! Conservation: at any instant between two [`ouro_serve::RunState`] steps,
//! every injected request is in exactly one place — still waiting (a trace
//! arrival past the cursor), queued in some engine's pending queue,
//! resident in some active set, retired, or dropped:
//!
//! ```text
//! waiting + Σ (queue_len + resident + records) + Σ dropped = injected
//! ```
//!
//! Stage order: in the merged lifecycle trace, each request's events only
//! walk the pipeline forward (`Arrival → Admission → Prefill → Decode →
//! Complete`), except for re-entries into Admission (eviction requeues and
//! imported-KV re-admission on the decode wafer) which restart the climb.
//! Migrate-stage events span two wafers and interleave with the target's
//! re-admission (a partially deduplicated import legitimately recomputes
//! prefill *after* its `migrate_arrive`), so they are checked by their own
//! pairing property — every `migrate_start` has a `migrate_arrive` at or
//! after it — rather than by the single-wafer rank walk. The ranks are
//! this test's own order over the event kind names ([`rank`]).

use ouro_serve::{FaultConfig, RunState, Scenario, SloConfig, TraceEvent};
use ouro_sim::model::zoo;
use ouro_sim::{OuroborosConfig, OuroborosSystem};
use ouro_workload::{ArrivalConfig, LengthConfig, SessionConfig, TraceGenerator};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn tiny_system() -> OuroborosSystem {
    OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap()
}

/// One of the four golden scenario shapes, parameterized by a draw seed:
/// colocated/disaggregated × faults × prefix caching.
fn golden_shape(shape: usize, seed: u64) -> (String, Scenario, usize) {
    let slo = SloConfig { ttft_s: 0.5, tpot_s: 0.05 };
    let requests = 24 + (seed % 13) as usize;
    let (label, scenario) = match shape {
        0 => {
            let trace = TraceGenerator::new(seed).generate(&LengthConfig::fixed(96, 24), requests);
            let timed = ArrivalConfig::Poisson { rate_rps: 300.0 }.assign(&trace, seed);
            ("colocated", Scenario::colocated(2).prefix_caching(false).workload(timed))
        }
        1 => {
            let trace = SessionConfig::chat(4, 0.5).generate(requests, seed);
            let timed = ArrivalConfig::Poisson { rate_rps: 400.0 }.assign(&trace, seed);
            ("disagg-prefix", Scenario::disaggregated(1, 2).prefix_caching(true).workload(timed))
        }
        2 => {
            let trace = TraceGenerator::new(seed).generate(&LengthConfig::fixed(128, 16), requests);
            let timed = ArrivalConfig::Poisson { rate_rps: 300.0 }.assign(&trace, seed);
            ("colocated-faults", Scenario::colocated(2).faults(FaultConfig::new(0.08, seed)).workload(timed))
        }
        _ => {
            let trace = SessionConfig::chat(3, 0.4).generate(requests, seed);
            let timed = ArrivalConfig::Bursty { rate_rps: 350.0, cv: 4.0 }.assign(&trace, seed);
            (
                "disagg-faults-prefix",
                Scenario::disaggregated(1, 1)
                    .prefix_caching(true)
                    .faults(FaultConfig::new(0.06, seed))
                    .workload(timed),
            )
        }
    };
    (format!("{label} seed={seed} requests={requests}"), scenario.slo(slo).trace(true), requests)
}

/// Where every injected request currently is, summed over the run. A
/// retired request is its engine's record, so the records count the
/// completions.
fn population(run: &RunState) -> usize {
    let engine_side: usize = run.engines().iter().map(|e| e.queue_len() + e.resident()).sum();
    let dropped: usize = run.engines().iter().map(|e| e.stats().dropped as usize).sum();
    let records: usize = run.engines().iter().map(|e| e.records().len()).sum();
    assert_eq!(records as u64, run.completed(), "a record is a retired request");
    run.waiting() + engine_side + records + dropped
}

/// The rank of the admission kinds, where eviction requeues and imported-KV
/// re-admissions restart the climb.
const ADMISSION: usize = 1;

/// Pipeline rank of an event kind in the single-wafer lifecycle walk:
/// arrival, admission (with its drop and evict outcomes), prefill, decode,
/// completion. `None` for the out-of-band fault kinds and for the migrate
/// kinds, whose inter-wafer events carry their own pairing property
/// instead.
fn rank(kind: &str) -> Option<usize> {
    match kind {
        "arrival" => Some(0),
        "admission" | "drop" | "evict" => Some(ADMISSION),
        "prefill_start" | "prefill_end" => Some(2),
        "decode_step" | "first_token" => Some(3),
        "complete" => Some(4),
        "kv_export" | "kv_import" | "migrate_start" | "migrate_arrive" | "fault" | "remap" => None,
        other => panic!("event kind {other:?} has no place in the stage walk"),
    }
}

/// Asserts the stage-order traversal property over one request's events,
/// which arrive sorted by time (stream order breaking ties).
fn assert_stage_order(label: &str, id: usize, events: &[&TraceEvent]) {
    let arrivals = events.iter().filter(|e| e.kind.name() == "arrival").count();
    prop_assert_eq!(arrivals, 1, "{} req {}: every request has exactly one arrival", label, id);
    let completes = events.iter().filter(|e| e.kind.name() == "complete").count();
    prop_assert!(completes <= 1, "{} req {}: at most one completion", label, id);

    let t_first = events.first().map(|e| e.t_s).unwrap_or_default();
    let mut prev: Option<(f64, usize)> = None;
    for event in events {
        let Some(r) = rank(event.kind.name()) else { continue };
        if r == 0 {
            prop_assert!(
                event.t_s <= t_first + 1e-12,
                "{} req {}: arrival at {}s is not the earliest event",
                label,
                id,
                event.t_s
            );
        }
        if let Some((prev_t, prev_r)) = prev {
            // Ties carry no ordering information (the merge breaks them by
            // stream index); only strictly later events must walk forward.
            if event.t_s > prev_t {
                prop_assert!(
                    r >= prev_r || r == ADMISSION,
                    "{} req {}: stage rank {} at {}s after rank {} — pipeline walked backwards",
                    label,
                    id,
                    r,
                    event.t_s,
                    prev_r
                );
            }
        }
        prev = Some((event.t_s, r));
    }
    if completes == 1 {
        let t_complete = events.iter().find(|e| e.kind.name() == "complete").unwrap().t_s;
        let t_max = events.iter().map(|e| e.t_s).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(
            t_complete >= t_max,
            "{} req {}: events continue after completion ({} < {})",
            label,
            id,
            t_complete,
            t_max
        );
    }

    // The migrate stage's pairing property: starts and arrivals match up
    // one-to-one in order, and no transfer lands before it departs.
    let starts: Vec<f64> =
        events.iter().filter(|e| e.kind.name() == "migrate_start").map(|e| e.t_s).collect();
    let arrives: Vec<f64> =
        events.iter().filter(|e| e.kind.name() == "migrate_arrive").map(|e| e.t_s).collect();
    prop_assert_eq!(
        starts.len(),
        arrives.len(),
        "{} req {}: every migrate_start needs a migrate_arrive",
        label,
        id
    );
    for (t_start, t_arrive) in starts.iter().zip(&arrives) {
        prop_assert!(
            t_arrive >= t_start,
            "{} req {}: migration landed at {}s before departing at {}s",
            label,
            id,
            t_arrive,
            t_start
        );
    }
}

proptest! {
    /// The conservation identity holds at every single event boundary, and
    /// each request's trace walks the pipeline stages forward.
    #[test]
    fn stage_queues_conserve_requests_and_traverse_in_order(
        shape in 0usize..4,
        seed in 0u64..1_000_000u64,
    ) {
        let sys = tiny_system();
        let (label, scenario, injected) = golden_shape(shape, seed);
        let mut run = scenario.start(&sys).unwrap();
        loop {
            prop_assert_eq!(
                population(&run), injected,
                "{}: conservation broke after {} completions", &label, run.completed()
            );
            if !run.step_once() {
                break;
            }
        }
        prop_assert_eq!(population(&run), injected, "{}: conservation broke at drain", &label);

        let outcome = run.finish();
        prop_assert!(outcome.report.is_conserved(), "{}", &label);
        let trace = outcome.trace().expect("trace was armed");
        let mut by_request: BTreeMap<usize, Vec<&TraceEvent>> = BTreeMap::new();
        for event in trace.events() {
            if let Some(id) = event.req {
                by_request.entry(id).or_default().push(event);
            }
        }
        prop_assert!(!by_request.is_empty(), "{}: trace captured no request events", &label);
        for (id, events) in &by_request {
            assert_stage_order(&label, *id, events);
        }
    }
}
