//! Observability in one place: request-lifecycle tracing and sampled
//! telemetry on a disaggregated serving run with runtime faults — the run with the richest event mix (admissions,
//! chunked prefill, KV migrations, fault remaps, evictions).
//!
//! Tracing is strictly observational: the same scenario runs twice below,
//! once dark and once fully instrumented, and the two `RunReport`s are
//! asserted identical field for field. The instrumented run exports
//!
//! * `target/tracing/chrome_trace.json` — Chrome trace-event JSON; open it
//!   in <https://ui.perfetto.dev> (or `chrome://tracing`) to see one track
//!   per wafer and one span per request phase (queue/prefill/decode),
//! * `target/tracing/telemetry.json` — the sampled per-wafer time series
//!   (batch occupancy, queue depth, KV blocks live/shared, link bytes).
//!
//! ```text
//! cargo run --release --example tracing
//! ```

use ouroboros::model::zoo;
use ouroboros::serve::{
    capacity_rps_estimate, ideal_latencies, EventKind, FaultConfig, Scenario, SloConfig,
    TELEMETRY_SCHEMA_VERSION, TRACE_SCHEMA_VERSION,
};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::trace::TelemetrySample;
use ouroboros::workload::{ArrivalConfig, LengthConfig, TraceGenerator};

const SEED: u64 = 2026;
const WAFERS: usize = 4;
const REQUESTS: usize = 120;

fn main() {
    let model = zoo::llama_13b();
    let mut config = OuroborosConfig::single_wafer();
    config.seed = SEED;
    let system = OuroborosSystem::new(config, &model).expect("LLaMA-13B fits on one wafer");

    let lengths = LengthConfig::fixed(512, 64);
    let capacity = capacity_rps_estimate(system.stage_times(), &lengths);
    let typical = lengths.nominal_total_tokens();
    let (ideal_ttft, ideal_tpot) = ideal_latencies(system.stage_times(), typical / 2, typical);
    let slo = SloConfig::with_slack(ideal_ttft, ideal_tpot, 10.0);
    let rate = 0.8 * capacity * WAFERS as f64;
    let trace_gen = TraceGenerator::new(SEED).generate(&lengths, REQUESTS);
    let timed = ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }.assign(&trace_gen, SEED);
    let mtbf = timed.last_arrival_s() / 2.0;
    let cadence_s = timed.last_arrival_s() / 64.0;

    let scenario = || {
        Scenario::disaggregated(1, WAFERS - 1)
            .slo(slo)
            .faults(FaultConfig::new(mtbf, SEED))
            .workload(timed.clone())
    };

    // Dark run: no tracing, no telemetry.
    let dark = scenario().run(&system).expect("pools build");

    // Instrumented run: everything on.
    let outcome = scenario().trace(true).telemetry_every(cadence_s).run_full(&system).expect("pools build");

    // The flagship guarantee: observability never perturbs the simulation.
    assert_eq!(
        dark.json_object().render(),
        outcome.report.json_object().render(),
        "tracing must be strictly observational"
    );
    println!("tracing on vs off: RunReport bit-identical ✓");

    let trace = outcome.trace().expect("tracing was armed");
    assert!(!trace.is_empty(), "a faulty disaggregated run must emit events");
    assert_eq!(trace.dropped(), 0, "default ring capacity must hold a small run");
    println!(
        "\ntrace schema v{TRACE_SCHEMA_VERSION}: {} events, {} request spans, digest {:#018x}",
        trace.len(),
        trace.request_spans().len(),
        trace.digest()
    );
    for kind in ["arrival", "admission", "kv_export", "kv_import", "fault", "complete"] {
        println!("  {:<12} {:>6}", kind, trace.count(kind));
    }
    assert_eq!(trace.count("arrival"), REQUESTS);
    assert_eq!(trace.count("complete"), REQUESTS);
    assert!(trace.count("fault") > 0, "the accelerated MTBF must fire");
    assert!(trace.count("kv_export") > 0, "disaggregation must migrate KV");
    // Every migration shipped by the driver appears as a start/arrive pair.
    let migrations = outcome.report.migration.as_ref().expect("disagg reports migration").migrations;
    assert_eq!(trace.count("migrate_start"), migrations);
    assert_eq!(trace.count("migrate_arrive"), migrations);
    let _ = EventKind::ALL_NAMES; // the taxonomy is public and pinned

    let telemetry: &[TelemetrySample] = outcome.telemetry();
    assert!(!telemetry.is_empty(), "the recorder must sample at the cadence");
    let max_batch = telemetry.iter().map(|s| s.gauges.batch_occupancy).max().unwrap();
    println!(
        "\ntelemetry schema v{TELEMETRY_SCHEMA_VERSION}: {} samples every {:.1}ms, peak batch {}",
        telemetry.len(),
        cadence_s * 1e3,
        max_batch
    );
    assert!(max_batch > 0, "some wafer must batch work at some sample");

    std::fs::create_dir_all("target/tracing").expect("target dir");
    trace.write_chrome_trace("target/tracing/chrome_trace.json").expect("chrome trace written");
    let rows: Vec<_> = telemetry.iter().map(TelemetrySample::json_object).collect();
    ouroboros::serve::json::write_array("target/tracing/telemetry.json", &rows).expect("telemetry written");
    println!("wrote target/tracing/chrome_trace.json and target/tracing/telemetry.json");
    println!("open the trace in https://ui.perfetto.dev — one track per wafer, one span per phase");

    println!("\n{}", trace.summarize());
}
