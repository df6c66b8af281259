//! Goldens and well-formedness laws for the observability layer.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Tracing is observational.** The same scenario runs dark and fully
//!    instrumented; the `RunReport`s must be bit-identical. (The seed
//!    goldens in `scenario_golden.rs` separately prove dark runs did not
//!    move versus the pre-tracing code.)
//! 2. **The trace itself is deterministic.** A seed-pinned run must
//!    reproduce the exact event count and FNV-1a digest captured when the
//!    layer landed; two identical runs must agree event for event.
//! 3. **Span timelines are well formed** — on every sampled workload, not
//!    just the pinned one: one arrival per request, terminal events
//!    terminate, prefill starts match ends (up to evictions), every
//!    exported span nests inside its request's lifetime, and a completed
//!    request's spans tile its life from arrival to completion.
//!
//! The first and third also hold at experiment scale: a faulty
//! disaggregated run on four LLaMA-13B wafers, traced end to end.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use ouro_bench::serving_setup;
use ouroboros::model::zoo;
use ouroboros::serve::{routers, FaultConfig, RunOutcome, Scenario, SloConfig};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::trace::{EventKind, Trace, TraceEvent, TRACE_SCHEMA_VERSION};
use ouroboros::workload::{ArrivalConfig, LengthConfig, TimedTrace, TraceGenerator};
use proptest::prelude::*;

fn tiny_system() -> &'static OuroborosSystem {
    static SYS: OnceLock<OuroborosSystem> = OnceLock::new();
    SYS.get_or_init(|| OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap())
}

fn slo() -> SloConfig {
    SloConfig { ttft_s: 0.5, tpot_s: 0.05 }
}

fn timed(n: usize, rate: f64, seed: u64) -> TimedTrace {
    let trace = TraceGenerator::new(seed).generate(&LengthConfig::fixed(64, 32), n);
    ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, seed)
}

/// The pinned scenario: disaggregated pools with runtime faults — the
/// richest event mix (arrivals, migrations, imports, faults, evictions).
fn pinned_scenario() -> Scenario {
    Scenario::disaggregated(2, 2).slo(slo()).faults(FaultConfig::new(0.02, 8)).workload(timed(50, 400.0, 8))
}

fn instrumented(scenario: Scenario) -> RunOutcome {
    scenario.trace(true).run_full(tiny_system()).unwrap()
}

// ---- the golden trace ----------------------------------------------------

/// Event count and FNV-1a digest of the pinned run, captured when the
/// trace layer landed; the digest was re-captured once at schema version
/// 2, whose `arg_c`/`arg_d` columns carry the `decode_step` KV occupancy.
/// Any drift means event emission, ordering, or the JSON rendering
/// changed — bump `TRACE_SCHEMA_VERSION` if that was deliberate.
const GOLDEN_EVENTS: usize = 1_876;
const GOLDEN_DIGEST: u64 = 0x88bc_814f_21be_4b9b;

#[test]
fn pinned_run_reproduces_the_golden_trace() {
    let outcome = instrumented(pinned_scenario());
    let trace = outcome.trace().unwrap();
    assert_eq!(TRACE_SCHEMA_VERSION, 2, "recapture the golden digest with the schema version");
    assert_eq!(trace.len(), GOLDEN_EVENTS, "event count drifted (digest {:#018x})", trace.digest());
    assert_eq!(trace.digest(), GOLDEN_DIGEST, "event content drifted");
    assert_eq!(trace.dropped(), 0);
}

#[test]
fn identical_runs_trace_identically() {
    let a = instrumented(pinned_scenario());
    let b = instrumented(pinned_scenario());
    let (ta, tb) = (a.trace().unwrap(), b.trace().unwrap());
    assert_eq!(ta.len(), tb.len());
    assert_eq!(ta.digest(), tb.digest());
    assert_eq!(ta.events(), tb.events());
}

#[test]
fn tracing_never_perturbs_the_report() {
    let dark = pinned_scenario().run(tiny_system()).unwrap();
    let lit = instrumented(pinned_scenario());
    assert_eq!(
        dark.json_object().render(),
        lit.report.json_object().render(),
        "tracing must be strictly observational"
    );
    assert_eq!(format!("{:?}", dark.serving), format!("{:?}", lit.report.serving));
}

/// One prefill and three decode LLaMA-13B wafers (seed 2026) serving 120
/// bursty (cv = 4) 512/64-token requests at 80% of capacity, with an MTBF
/// of half the arrival span: the traced run reports exactly what the dark
/// run does, and its trace accounts for every request and every migration.
#[test]
fn llama_13b_disaggregated_fault_run_traces_every_request_and_migration() {
    const SEED: u64 = 2026;
    const WAFERS: usize = 4;
    const REQUESTS: usize = 120;
    let lengths = LengthConfig::fixed(512, 64);
    let (system, capacity, slo) = serving_setup(SEED, &lengths);
    let rate = 0.8 * capacity * WAFERS as f64;
    let trace = TraceGenerator::new(SEED).generate(&lengths, REQUESTS);
    let timed = ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }.assign(&trace, SEED);
    let mtbf = timed.last_arrival_s() / 2.0;
    let scenario =
        Scenario::disaggregated(1, WAFERS - 1).slo(slo).faults(FaultConfig::new(mtbf, SEED)).workload(timed);

    let dark = scenario.clone().run(&system).expect("pools build");
    let outcome = scenario.trace(true).run_full(&system).expect("pools build");
    assert_eq!(
        dark.json_object().render(),
        outcome.report.json_object().render(),
        "tracing must be strictly observational"
    );

    let trace = outcome.trace().expect("tracing was armed");
    assert!(!trace.is_empty(), "a faulty disaggregated run must emit events");
    assert_eq!(trace.dropped(), 0, "default ring capacity must hold a small run");
    assert_eq!(trace.count("arrival"), REQUESTS);
    assert_eq!(trace.count("complete"), REQUESTS);
    assert!(trace.count("fault") > 0, "the accelerated MTBF must fire");
    assert!(trace.count("kv_export") > 0, "disaggregation must migrate KV");
    // Every migration shipped by the driver appears as a start/arrive pair.
    let migrations = outcome.report.migration.as_ref().expect("disagg reports migration").migrations;
    assert_eq!(trace.count("migrate_start"), migrations);
    assert_eq!(trace.count("migrate_arrive"), migrations);

    let mut max_batch = 0;
    for e in trace.events() {
        if let EventKind::DecodeStep { batch, kv_tokens, kv_capacity_tokens, .. } = e.kind {
            max_batch = max_batch.max(batch);
            assert!(kv_tokens <= kv_capacity_tokens, "wafer {} holds {kv_tokens} KV tokens", e.wafer);
        }
    }
    assert!(max_batch > 0, "some wafer must batch work at some step");
}

// ---- well-formedness laws ------------------------------------------------

/// Per-request accounting of the event stream.
#[derive(Default)]
struct ReqTimeline {
    arrivals: usize,
    prefill_starts: usize,
    prefill_ends: usize,
    evictions: usize,
    drops: usize,
    completes: usize,
    first_s: f64,
    terminal_s: Option<f64>,
    last_s: f64,
}

fn timelines(events: &[TraceEvent]) -> BTreeMap<usize, ReqTimeline> {
    let mut map: BTreeMap<usize, ReqTimeline> = BTreeMap::new();
    for e in events {
        let Some(req) = e.req else { continue };
        let t = map.entry(req).or_insert_with(|| ReqTimeline { first_s: e.t_s, ..Default::default() });
        t.last_s = e.t_s;
        match e.kind {
            EventKind::Arrival { .. } => t.arrivals += 1,
            EventKind::PrefillStart { .. } => t.prefill_starts += 1,
            EventKind::PrefillEnd => t.prefill_ends += 1,
            EventKind::Evict { .. } => t.evictions += 1,
            EventKind::Drop => {
                t.drops += 1;
                t.terminal_s = Some(e.t_s);
            }
            EventKind::Complete => {
                t.completes += 1;
                t.terminal_s = Some(e.t_s);
            }
            _ => {}
        }
    }
    map
}

/// The six phases of the per-request walk, the closed taxonomy of the
/// exported spans.
const WALK_PHASES: [&str; 6] = ["queue", "prefill", "kv_transit", "migration_stall", "fault_stall", "decode"];

/// Asserts every law a reconstructable span timeline relies on.
fn assert_well_formed(trace: &Trace, injected: usize, completed: usize, dropped: usize) {
    let lines = timelines(trace.events());
    assert_eq!(trace.count("arrival"), injected, "one arrival per injected request");
    assert_eq!(trace.count("complete"), completed, "one complete per completed request");
    assert_eq!(trace.count("drop"), dropped, "one drop per dropped request");
    for (req, t) in &lines {
        assert_eq!(t.arrivals, 1, "req {req}: exactly one arrival");
        assert!(t.completes + t.drops <= 1, "req {req}: at most one terminal event");
        if let Some(term) = t.terminal_s {
            assert!(t.last_s <= term, "req {req}: no events after its terminal event");
        }
        assert!(t.prefill_ends <= t.prefill_starts, "req {req}: a prefill end needs a matching start");
        assert!(
            t.prefill_starts - t.prefill_ends <= t.evictions + t.drops,
            "req {req}: unmatched prefill starts only from evictions/drops"
        );
        if t.evictions == 0 && t.drops == 0 {
            assert_eq!(t.prefill_starts, t.prefill_ends, "req {req}: clean prefills close");
        }
    }
    // Events are globally time-ordered, so spans can be rebuilt by a
    // single forward pass.
    for pair in trace.events().windows(2) {
        assert!(pair[0].t_s <= pair[1].t_s, "events must be sorted by time");
    }
    let mut cursor: BTreeMap<usize, f64> = BTreeMap::new();
    for span in trace.request_spans() {
        assert!(span.end_s > span.start_s, "span {}/{} runs forward", span.req, span.name);
        assert!(WALK_PHASES.contains(&span.name), "closed phase taxonomy, got {}", span.name);
        let line = &lines[&span.req];
        assert!(span.start_s >= line.first_s - 1e-12, "span starts inside the request lifetime");
        assert!(span.end_s <= line.last_s + 1e-12, "span ends inside the request lifetime");
        // Spans come sorted by start, so each request's spans arrive in
        // its own time order: each must start where the last one ended.
        let at = cursor.entry(span.req).or_insert(line.first_s);
        assert_eq!(span.start_s, *at, "req {}: a gap or an overlap before its {} span", span.req, span.name);
        *at = span.end_s;
    }
    // A completed request's spans tile [arrival, complete].
    for (req, t) in &lines {
        if t.completes == 1 {
            let end = cursor.get(req).copied().unwrap_or(t.first_s);
            assert_eq!(Some(end), t.terminal_s, "req {req}: spans stop short of its completion");
        }
    }
}

#[test]
fn pinned_run_spans_are_well_formed() {
    let outcome = instrumented(pinned_scenario());
    let s = &outcome.report.serving;
    assert_well_formed(outcome.trace().unwrap(), s.injected, s.completed, s.dropped);
    assert!(outcome.trace().unwrap().count("fault") > 0, "the accelerated MTBF must fire");
}

proptest! {
    /// Span well-formedness holds on every sampled workload shape, not
    /// just the pinned one: open-loop rates from gentle to saturating,
    /// colocated and disaggregated, clean and faulty.
    #[test]
    fn sampled_runs_trace_well_formed_spans(
        seed in 0u64..1_000,
        rate in 150.0f64..900.0,
        n in 8usize..28,
        shape in 0u8..4,
    ) {
        let workload = timed(n, rate, seed);
        let scenario = match shape {
            0 => Scenario::colocated(2).router(routers::least_kv_load()),
            1 => Scenario::colocated(2).faults(FaultConfig::new(0.02, seed)),
            2 => Scenario::disaggregated(1, 1),
            _ => Scenario::disaggregated(2, 2).faults(FaultConfig::new(0.03, seed)),
        };
        let outcome = scenario.slo(slo()).workload(workload).trace(true).run_full(tiny_system()).unwrap();
        let trace = outcome.trace().unwrap();
        let s = &outcome.report.serving;
        assert_well_formed(trace, s.injected, s.completed, s.dropped);
        // Disaggregated runs pair every shipped migration start/arrive.
        if let Some(m) = &outcome.report.migration {
            prop_assert_eq!(trace.count("migrate_start"), m.migrations);
            prop_assert_eq!(trace.count("migrate_arrive"), m.migrations);
        }
    }
}

// ---- exporters -----------------------------------------------------------

#[test]
fn chrome_trace_export_is_loadable_shaped() {
    let outcome = instrumented(pinned_scenario());
    let json = outcome.trace().unwrap().chrome_trace_json();
    let trimmed = json.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'), "a trace-event array");
    assert!(json.contains("\"ph\": \"M\""), "process-name metadata per wafer track");
    assert!(json.contains("\"ph\": \"X\""), "complete spans for request phases");
    assert!(json.contains("\"cat\": \"prefill\""));
    // Balanced braces — the hand-rolled emitter cannot truncate silently.
    let opens = json.matches('{').count();
    let closes = json.matches('}').count();
    assert_eq!(opens, closes, "balanced object braces");
}

#[test]
fn trace_rows_carry_their_schema_version() {
    let outcome = instrumented(pinned_scenario());
    let trace = outcome.trace().unwrap();
    for row in trace.json_rows().iter().take(5) {
        assert!(row.render().starts_with(&format!("{{\"schema_version\": {TRACE_SCHEMA_VERSION}")));
    }
}
