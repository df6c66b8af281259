//! Prefill/decode disaggregation vs colocated continuous batching at equal
//! wafer count: a 4-wafer LLaMA-13B deployment under bursty, prefill-heavy
//! traffic.
//!
//! The run demonstrates the three invariants of the disaggregated path:
//!
//! 1. **KV conservation** — every byte exported by a prefill wafer is
//!    imported by a decode wafer once the run drains,
//! 2. **ratio optimality** — the split `best_ratio` picks from the
//!    pool-ratio sweep has goodput at least as high as every other split,
//! 3. **decode-tail isolation** — at the same offered load, disaggregated
//!    p99 TPOT beats colocated p99 TPOT, because decode wafers never
//!    interleave prefill chunks into their steps.
//!
//! ```text
//! cargo run --release --example disaggregation
//! ```

use ouroboros::model::zoo;
use ouroboros::serve::{
    best_ratio, capacity_rps_estimate, default_threads, format_shootout, ideal_latencies,
    parallel_map_indexed, RunReport, Scenario, SloConfig,
};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::workload::{ArrivalConfig, LengthConfig, TraceGenerator};

const SEED: u64 = 2026;
const WAFERS: usize = 4;
const REQUESTS: usize = 200;

fn main() {
    let model = zoo::llama_13b();
    let mut config = OuroborosConfig::single_wafer();
    config.seed = SEED;
    let system = OuroborosSystem::new(config, &model).expect("LLaMA-13B fits on one wafer");

    // Prefill-heavy mix: 512-token prompts, 64-token generations. Bursty
    // Gamma arrivals (cv = 4) cluster the long prompts into flash crowds —
    // exactly what stalls colocated decode steps.
    let lengths = LengthConfig::fixed(512, 64);
    let capacity = capacity_rps_estimate(system.stage_times(), &lengths);
    let typical = lengths.nominal_total_tokens();
    let (ideal_ttft, ideal_tpot) = ideal_latencies(system.stage_times(), typical / 2, typical);
    let slo = SloConfig::with_slack(ideal_ttft, ideal_tpot, 10.0);
    let rate = capacity * WAFERS as f64;

    println!("model: {} on {WAFERS} wafers, LP=512 LD=64, bursty cv=4", model.name);
    println!(
        "per-wafer capacity estimate: {capacity:.1} req/s; SLO: TTFT <= {:.2} ms, TPOT <= {:.4} ms",
        slo.ttft_s * 1e3,
        slo.tpot_s * 1e3
    );
    let kv_mb = system.kv_migration_bytes(512) as f64 / 1e6;
    println!("KV migrated per 512-token prompt: {kv_mb:.1} MB over the optical fabric\n");

    // Every sweep below is a list of scenarios run on worker threads; the
    // reports come back in input order.
    let run_all = |scenarios: Vec<Scenario>| -> Vec<RunReport> {
        parallel_map_indexed(scenarios, default_threads(), |_, s| s.run(&system).expect("deployment builds"))
    };
    let trace = TraceGenerator::new(SEED).generate(&lengths, REQUESTS);
    let bursty = |rate_rps| ArrivalConfig::Bursty { rate_rps, cv: 4.0 }.assign(&trace, SEED);

    // --- 1. Pool-ratio sweep at the aggregate capacity point: one
    // disaggregated scenario per prefill:decode split. ---
    let timed = bursty(rate);
    let splits = (1..WAFERS)
        .map(|prefill| Scenario::disaggregated(prefill, WAFERS - prefill).slo(slo).workload(timed.clone()))
        .collect();
    let plans = run_all(splits);
    println!("=== pool-ratio sweep at {rate:.0} req/s ===");
    println!("{:<10} {:>11} {:>11} {:>11} {:>12}", "split", "ttft-p99", "tpot-p99", "goodput/s", "migr (MB)");
    for p in &plans {
        let s = &p.serving;
        let m = p.migration.as_ref().expect("disaggregated runs report migration stats");
        println!(
            "{:<10} {:>9.1}ms {:>9.3}ms {:>11.1} {:>12.1}",
            format!("{}p:{}d", p.deployment.prefill_wafers, p.deployment.decode_wafers),
            s.ttft.p99_s * 1e3,
            s.tpot.p99_s * 1e3,
            s.goodput_rps,
            m.exported_kv_bytes as f64 / 1e6,
        );

        // Invariant 1: KV-migration bytes are conserved at every split.
        assert!(p.is_conserved(), "request conservation must hold");
        assert!(
            p.kv_bytes_conserved(),
            "migration bytes must be conserved: exported {} != imported {} + in-flight {} + dropped {}",
            m.exported_kv_bytes,
            m.imported_kv_bytes,
            m.in_flight_kv_bytes,
            m.dropped_kv_bytes
        );
        assert_eq!(m.exported_kv_bytes, m.imported_kv_bytes, "a drained run imports every exported byte");
    }

    // Invariant 2: the chosen ratio dominates every swept ratio.
    let best = best_ratio(&plans);
    let (best_p, best_d) = (best.deployment.prefill_wafers, best.deployment.decode_wafers);
    for p in &plans {
        assert!(
            best.serving.goodput_rps >= p.serving.goodput_rps,
            "best_ratio picked {best_p}p:{best_d}d ({:.1} req/s) but {}p:{}d achieves {:.1}",
            best.serving.goodput_rps,
            p.deployment.prefill_wafers,
            p.deployment.decode_wafers,
            p.serving.goodput_rps
        );
    }
    println!(
        "\ngoodput-optimal split: {best_p}p:{best_d}d at {:.1} req/s goodput\n",
        best.serving.goodput_rps
    );

    // --- 2. Colocated vs disaggregated at equal wafer count: per offered
    // load, one scenario per side over the identical trace. ---
    let sides = [0.5 * rate, rate, 1.5 * rate]
        .into_iter()
        .flat_map(|load| {
            let timed = bursty(load);
            [
                Scenario::colocated(WAFERS).slo(slo).workload(timed.clone()),
                Scenario::disaggregated(best_p, WAFERS - best_p).slo(slo).workload(timed),
            ]
        })
        .collect();
    let reports = run_all(sides);
    println!("=== colocated vs disaggregated ({best_p}p:{best_d}d), equal {WAFERS}-wafer budget ===");
    print!("{}", format_shootout(&reports));

    for pair in reports.chunks_exact(2) {
        let (colocated, disagg) = (&pair[0], &pair[1]);
        assert!(colocated.is_conserved() && disagg.is_conserved());
        assert!(disagg.kv_bytes_conserved());

        // Invariant 3: the decode tail is isolated from prefill bursts.
        assert!(
            disagg.serving.tpot.p99_s < colocated.serving.tpot.p99_s,
            "at {:.0} req/s disaggregated p99 TPOT ({:.3} ms) must beat colocated ({:.3} ms)",
            colocated.serving.offered_rps.unwrap_or(f64::NAN),
            disagg.serving.tpot.p99_s * 1e3,
            colocated.serving.tpot.p99_s * 1e3
        );
    }

    let (mid_colocated, mid_disagg) = (&reports[2], &reports[3]);
    let mid_m = mid_disagg.migration.as_ref().expect("disaggregated runs report migration stats");
    println!(
        "\nat {:.0} req/s: disaggregated p99 TPOT is {:.1}% of colocated's \
         ({} migrations, {:.1} MB KV moved, mean migration {:.2} ms, link energy {:.2} J)",
        rate,
        100.0 * mid_disagg.serving.tpot.p99_s / mid_colocated.serving.tpot.p99_s,
        mid_m.migrations,
        mid_m.exported_kv_bytes as f64 / 1e6,
        mid_m.mean_migration_s * 1e3,
        mid_m.link_energy_j
    );
}
