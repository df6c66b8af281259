//! Degenerate-shape regression tests for the report pipeline's ratios.
//!
//! A zero-request workload produces a zero-span run, and every ratio on
//! the way to the JSON row — utilization (busy/span), achieved/goodput
//! rates (count/span), fault availability (lost/offered wafer-time),
//! migration means (sum/count) — divides by that span or count. The
//! zero-span utilization NaN was a real bug (`busy_s / 0.0` leaked NaN
//! into the report), so the whole family is pinned here: one table of
//! degenerate deployment shapes through the full scenario path, plus
//! table-driven unit checks of each sibling ratio site.

use ouro_serve::{FaultConfig, LatencyStats, RunReport, RunTotals, Scenario, ServingReport, SloConfig};
use ouro_sim::model::zoo;
use ouro_sim::{OuroborosConfig, OuroborosSystem};
use ouro_workload::{ArrivalConfig, LengthConfig, TraceGenerator};

fn tiny_system() -> OuroborosSystem {
    OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap()
}

/// Every floating-point field of the report, named for the failure message.
fn float_fields(r: &RunReport) -> Vec<(String, f64)> {
    let s = &r.serving;
    let mut v = vec![
        ("duration_s".to_string(), s.duration_s),
        ("achieved_rps".to_string(), s.achieved_rps),
        ("output_tokens_per_s".to_string(), s.output_tokens_per_s),
        ("goodput_rps".to_string(), s.goodput_rps),
        ("slo_attainment".to_string(), s.slo_attainment),
        ("utilization".to_string(), s.utilization),
    ];
    for (name, l) in [("ttft", &s.ttft), ("tpot", &s.tpot), ("e2e", &s.e2e)] {
        v.push((format!("{name}_mean_s"), l.mean_s));
        v.push((format!("{name}_p50_s"), l.p50_s));
        v.push((format!("{name}_p95_s"), l.p95_s));
        v.push((format!("{name}_p99_s"), l.p99_s));
        v.push((format!("{name}_max_s"), l.max_s));
    }
    if let Some(m) = &r.migration {
        v.push(("mean_migration_s".to_string(), m.mean_migration_s));
        v.push(("max_migration_s".to_string(), m.max_migration_s));
        v.push(("link_energy_j".to_string(), m.link_energy_j));
        v.push(("prefill_utilization".to_string(), m.prefill_utilization));
        v.push(("decode_utilization".to_string(), m.decode_utilization));
    }
    if let Some(f) = &r.faults {
        v.push(("availability".to_string(), f.availability));
        v.push(("total_stall_s".to_string(), f.total_stall_s));
        v.push(("dead_time_s".to_string(), f.dead_time_s));
        v.push(("fault_duration_s".to_string(), f.duration_s));
    }
    v
}

fn assert_all_finite(label: &str, r: &RunReport) {
    for (name, value) in float_fields(r) {
        assert!(value.is_finite(), "{label}: report field {name} is non-finite ({value})");
    }
}

#[test]
fn zero_request_runs_produce_finite_reports() {
    // The regression table: every deployment shape on an empty workload.
    // Zero requests means zero events, a zero wall-clock span, and every
    // span-normalised ratio at its 0/0 corner.
    let sys = tiny_system();
    let empty = ArrivalConfig::Poisson { rate_rps: 100.0 }
        .assign(&TraceGenerator::new(7).generate(&LengthConfig::fixed(64, 16), 0), 7);
    let slo = SloConfig { ttft_s: 0.5, tpot_s: 0.05 };
    let shapes: Vec<(&str, Scenario)> = vec![
        ("colocated-1", Scenario::colocated(1)),
        ("colocated-2", Scenario::colocated(2)),
        ("disaggregated-1p1d", Scenario::disaggregated(1, 1)),
        ("colocated-faulty", Scenario::colocated(2).faults(FaultConfig::new(1e6, 7))),
        ("disagg-prefix", Scenario::disaggregated(1, 1).prefix_caching(true)),
    ];
    for (label, scenario) in shapes {
        let r = scenario.slo(slo).workload(empty.clone()).run(&sys).unwrap();
        assert_all_finite(label, &r);
        assert_eq!(r.serving.injected, 0, "{label}");
        assert_eq!(r.serving.duration_s, 0.0, "{label}");
        assert_eq!(r.serving.utilization, 0.0, "{label}: zero-span utilization must be 0, not NaN");
        assert!(r.is_conserved(), "{label}");
    }
}

#[test]
fn empty_serving_report_is_zero_not_nan() {
    // The metrics-layer ratio site in isolation: no records, zero totals.
    let slo = SloConfig { ttft_s: 0.5, tpot_s: 0.05 };
    let r = ServingReport::from_records(&[], &slo, None, RunTotals::default());
    for (name, value) in [
        ("achieved_rps", r.achieved_rps),
        ("output_tokens_per_s", r.output_tokens_per_s),
        ("goodput_rps", r.goodput_rps),
        ("slo_attainment", r.slo_attainment),
        ("utilization", r.utilization),
    ] {
        assert!(value == 0.0, "empty report field {name} must be exactly 0, got {value}");
    }
    assert!(r.is_conserved());
}

#[test]
fn latency_stats_are_total_on_degenerate_samples() {
    // Table-driven over the sample sets that would poison a naive
    // sort-and-divide summary.
    let cases: Vec<(&str, Vec<f64>)> = vec![
        ("empty", vec![]),
        ("all-nan", vec![f64::NAN, f64::NAN]),
        ("all-inf", vec![f64::INFINITY, f64::NEG_INFINITY]),
        ("mixed", vec![f64::NAN, 0.25, f64::INFINITY, 0.75]),
    ];
    for (label, samples) in cases {
        let finite = samples.iter().filter(|s| s.is_finite()).count();
        let stats = LatencyStats::from_samples(samples);
        assert_eq!(stats.count, finite, "{label}");
        for (name, value) in [
            ("mean_s", stats.mean_s),
            ("p50_s", stats.p50_s),
            ("p95_s", stats.p95_s),
            ("p99_s", stats.p99_s),
            ("max_s", stats.max_s),
        ] {
            assert!(value.is_finite(), "{label}: {name} is non-finite ({value})");
        }
    }
}

#[test]
fn fault_report_over_zero_span_is_fully_available() {
    // The availability ratio divides lost wafer-time by offered
    // wafer-time; a zero-duration run offers none. A millisecond MTBF
    // draws faults inside the one-second window, but with no work in
    // the cluster none of them fires.
    let sys = tiny_system();
    let empty = ArrivalConfig::Poisson { rate_rps: 100.0 }
        .assign(&TraceGenerator::new(3).generate(&LengthConfig::fixed(64, 16), 0), 3);
    let run = Scenario::colocated(2).faults(FaultConfig::new(1e-3, 3)).workload(empty).run(&sys).unwrap();
    assert_eq!(run.serving.duration_s, 0.0);
    let report = run.faults.expect("a fault plan was armed");
    assert_eq!(report.faults_injected, 0);
    assert_eq!(report.duration_s, 0.0);
    assert!(report.availability.is_finite(), "zero-span availability must be finite");
    assert_eq!(report.availability, 1.0);
    assert_eq!(report.mean_chain_len(), 0.0);
}
