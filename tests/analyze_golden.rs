//! Laws and schema pins for the analysis layer: latency attribution and
//! utilization.
//!
//! The central law is **telescoping attribution**: the analyzer
//! decomposes each request's E2E latency into exclusive phases, so the
//! per-request phase sums must equal E2E within float tolerance — on the
//! pinned golden scenario and (property-tested) on every one of the four
//! golden scenario shapes. The analysis is also strictly post-hoc: an
//! analyzed run's `RunReport` must be bit-identical to the dark run's.
//! The exported Chrome spans and the wafer busy time come from the same
//! walk as the phases, so they agree with them. The `analyze` JSON schema
//! is pinned as key-set goldens.

use std::sync::OnceLock;

use ouro_bench::format_analysis;
use ouroboros::model::zoo;
use ouroboros::serve::{routers, FaultConfig, RunOutcome, Scenario, SloConfig};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::trace::{
    json, Analysis, EventKind, ANALYZE_PHASE_KEYS, ANALYZE_REQUEST_KEYS, ANALYZE_SCHEMA_VERSION,
    ANALYZE_SUMMARY_KEYS, ANALYZE_WAFER_KEYS, PHASE_COUNT, PHASE_NAMES,
};
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

/// The pinned golden scenario — the same shape `trace_golden.rs` pins
/// its digest with and `experiments analyze` runs.
fn golden_outcome() -> RunOutcome {
    Scenario::disaggregated(2, 2)
        .slo(slo())
        .faults(FaultConfig::new(0.02, 8))
        .workload(timed(50, 400.0, 8))
        .trace(true)
        .run_full(tiny_system())
        .unwrap()
}

/// Asserts the telescoping law on every request of an analysis: phases
/// are exclusive and exhaustive, so they sum to E2E (and the clipped
/// phases to TTFT) within float-addition tolerance.
fn assert_phases_telescope(analysis: &Analysis) {
    for r in &analysis.requests {
        for (name, v) in PHASE_NAMES.iter().zip(&r.phases) {
            assert!(*v >= -1e-12, "req {}: negative {name} phase {v}", r.req);
        }
        if let Some(e2e) = r.e2e_s() {
            let sum = r.phase_sum_s();
            assert!(
                (sum - e2e).abs() <= 1e-9 * e2e.abs().max(1.0),
                "req {}: phase sum {sum} != e2e {e2e}",
                r.req
            );
        }
        if let Some(ttft) = r.ttft_s() {
            let sum = r.ttft_phase_sum_s();
            assert!(
                (sum - ttft).abs() <= 1e-9 * ttft.abs().max(1.0),
                "req {}: clipped phase sum {sum} != ttft {ttft}",
                r.req
            );
        }
    }
}

#[test]
fn golden_scenario_phases_sum_to_e2e() {
    let outcome = golden_outcome();
    let analysis = outcome.analysis().unwrap();
    let s = &outcome.report.serving;
    assert_eq!(analysis.requests.len(), s.injected, "every injected request is reconstructed");
    assert_eq!(analysis.completed().count(), s.completed);
    assert_eq!(analysis.dropped(), s.dropped);
    assert_phases_telescope(&analysis);
    // The golden shape migrates and faults, so the interesting phases
    // are all live.
    let stats = analysis.phase_stats();
    let idx = |name: &str| PHASE_NAMES.iter().position(|n| *n == name).unwrap();
    assert!(stats[idx("kv_transit")].total_s > 0.0, "disaggregation ships KV");
    assert!(stats[idx("decode_compute")].total_s > 0.0);
    assert!(stats[idx("fault_stall")].total_s > 0.0, "the accelerated MTBF must cost time");
}

#[test]
fn analysis_is_strictly_post_hoc() {
    let dark = Scenario::disaggregated(2, 2)
        .slo(slo())
        .faults(FaultConfig::new(0.02, 8))
        .workload(timed(50, 400.0, 8))
        .run(tiny_system())
        .unwrap();
    let lit = golden_outcome();
    let _ = format_analysis(&lit.analysis().unwrap().json_rows());
    assert_eq!(
        dark.json_object().render(),
        lit.report.json_object().render(),
        "analysis must never perturb the report"
    );
}

#[test]
fn attribution_table_names_every_phase() {
    let rows = golden_outcome().analysis().unwrap().json_rows();
    let text = format_analysis(&rows);
    let rendered = json::render_array(&rows);
    let parsed = json::read_rows(&rendered).unwrap();
    for name in PHASE_NAMES {
        assert!(text.lines().any(|l| l.starts_with(&format!("{name} "))), "no phase row for {name}:\n{text}");
        assert!(parsed.iter().any(|r| r.get_str("phase") == Ok(name)), "no phase row for {name}");
    }
    // Where the latency goes: the p50 and p99 requests of TTFT and E2E,
    // each with one share column per phase.
    let header = text.lines().find(|l| l.starts_with("metric ")).expect("a request table");
    assert_eq!(header.split_whitespace().skip(4).collect::<Vec<_>>(), PHASE_NAMES);
    for metric in ["ttft", "e2e"] {
        for pct in ["50", "99"] {
            let line = |l: &str| l.split_whitespace().take(2).eq([metric, pct]);
            assert!(text.lines().any(line), "no {metric} p{pct} line:\n{text}");
            let row = |r: &&json::Row| {
                r.get_str("metric") == Ok(metric) && r.get("pct").and_then(|v| v.as_num()) == pct.parse().ok()
            };
            assert_eq!(parsed.iter().filter(row).count(), 1, "one {metric} p{pct} request row");
        }
    }
    assert!(text.lines().any(|l| l.split_whitespace().next() == Some("wafer")), "a wafer table");
}

/// The exported spans are the analysis walk's segments: each request's
/// `prefill` spans add up to its `prefill` phase, and the prefill pool's
/// span-union busy time matches the utilization the engines report. A
/// second walk without the same-instant tie rule exported most prefills
/// as `queue` spans and read the prefill wafers as idle.
#[test]
fn exported_spans_carry_the_attributed_prefill_time() {
    let outcome = golden_outcome();
    let trace = outcome.trace().unwrap();
    let analysis = outcome.analysis().unwrap();
    let prefill = PHASE_NAMES.iter().position(|n| *n == "prefill").unwrap();
    let mut exported = vec![0.0; analysis.requests.len()];
    for span in trace.request_spans().iter().filter(|s| s.name == "prefill") {
        exported[span.req] += span.end_s - span.start_s;
    }
    for r in &analysis.requests {
        assert!(r.phases[prefill] > 0.0, "req {}: every request prefills", r.req);
        assert!(
            (exported[r.req] - r.phases[prefill]).abs() <= 1e-12,
            "req {}: exported prefill {} s, attributed {} s",
            r.req,
            exported[r.req],
            r.phases[prefill]
        );
    }
    let reported = outcome.report.migration.as_ref().expect("disaggregated").prefill_utilization;
    let busy = (analysis.wafers[0].busy_fraction + analysis.wafers[1].busy_fraction) / 2.0;
    assert!(
        (busy - reported).abs() <= 0.05 * reported,
        "prefill wafers' mean busy fraction {busy} vs reported prefill utilization {reported}"
    );
}

proptest! {
    /// Satellite law: the decomposition telescopes on every one of the
    /// four golden scenario shapes, across seeds and load levels — the
    /// same sampling ranges the trace well-formedness law uses.
    #[test]
    fn sampled_runs_decompose_exhaustively(
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
        let analysis = outcome.analysis().unwrap();
        let s = &outcome.report.serving;
        prop_assert_eq!(analysis.requests.len(), s.injected);
        prop_assert_eq!(analysis.completed().count(), s.completed);
        prop_assert_eq!(analysis.dropped(), s.dropped);
        assert_phases_telescope(&analysis);
        // Busy fractions are fractions on every sampled run.
        for w in &analysis.wafers {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&w.busy_fraction));
        }
    }
}

// ---- the wafer columns are read from the trace --------------------------

/// Every wafer column comes from the trace: the peak occupancy is the
/// largest `decode_step` batch, a wafer that stepped held a batch for some
/// time, and the KV peak is a fraction. The sampler these columns were
/// once read from looked every 5 ms and read 0 for both occupancy columns
/// of the prefill wafers, which run short bursts between its samples.
#[test]
fn wafer_columns_agree_with_the_decode_steps() {
    let outcome = golden_outcome();
    let analysis = outcome.analysis().unwrap();
    assert_eq!(analysis.wafers.len(), 4, "2 prefill + 2 decode wafers");
    for w in &analysis.wafers {
        let batches: Vec<usize> = outcome
            .trace()
            .unwrap()
            .events()
            .iter()
            .filter(|e| e.wafer == w.wafer)
            .filter_map(|e| match e.kind {
                EventKind::DecodeStep { batch, .. } => Some(batch),
                _ => None,
            })
            .collect();
        assert_eq!(w.steps, batches.len() as u64, "wafer {}", w.wafer);
        assert_eq!(w.peak_occupancy, batches.iter().max().map_or(0, |&b| b as u64), "wafer {}", w.wafer);
        if w.steps > 0 {
            assert!(
                w.mean_occupancy > 0.0 && w.peak_occupancy > 0,
                "wafer {} stepped with no batch",
                w.wafer
            );
        }
        assert!((0.0..=1.0).contains(&w.peak_kv_utilization), "wafer {}: {}", w.wafer, w.peak_kv_utilization);
    }
    // Every wafer steps in the golden run, the prefill pool included.
    assert!(analysis.wafers.iter().all(|w| w.steps > 0));
}

// ---- schema pins (alongside BENCH_REPORT_V1_KEYS) ------------------------

#[test]
fn analyze_rows_match_their_pinned_schema() {
    assert_eq!(ANALYZE_SCHEMA_VERSION, 3, "bump deliberately, with the key-set goldens");
    let analysis = golden_outcome().analysis().unwrap();
    let rows = analysis.json_rows();
    let requests = 4;
    assert_eq!(rows.len(), 1 + PHASE_COUNT + requests + analysis.wafers.len());
    assert_eq!(rows[0].keys(), ANALYZE_SUMMARY_KEYS);
    for row in &rows[1..=PHASE_COUNT] {
        assert_eq!(row.keys(), ANALYZE_PHASE_KEYS);
    }
    for row in &rows[1 + PHASE_COUNT..1 + PHASE_COUNT + requests] {
        assert_eq!(row.keys(), ANALYZE_REQUEST_KEYS);
    }
    for row in &rows[1 + PHASE_COUNT + requests..] {
        assert_eq!(row.keys(), ANALYZE_WAFER_KEYS);
    }
    for row in &rows {
        assert!(row.render().starts_with(&format!("{{\"schema_version\": {ANALYZE_SCHEMA_VERSION}")));
    }
    // The flat rows round-trip through the workspace's one JSON reader.
    let text = json::render_array(&rows);
    let parsed = json::read_rows(&text).unwrap();
    assert_eq!(parsed.len(), rows.len());
    assert_eq!(parsed[0].get_str("row"), Ok("summary"));
}
