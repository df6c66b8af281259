//! Online serving: a 4-wafer LLaMA-13B cluster under open-loop Poisson
//! traffic, swept from light load past saturation.
//!
//! For each offered load the cluster serves the same fixed-seed
//! WikiText-2-like request mix through one colocated `Scenario`; the table
//! reports achieved throughput, TTFT and TPOT percentiles, and goodput
//! under a 10x-unloaded-latency SLO. The final section compares routing
//! policies at the highest swept load.
//!
//! ```text
//! cargo run --release --example online_serving
//! ```

use ouroboros::model::zoo;
use ouroboros::serve::{
    capacity_rps_estimate, default_threads, format_sweep, ideal_latencies, parallel_map_indexed, routers,
    Router, Scenario, SloConfig, LOAD_FRACTIONS,
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

    let lengths = LengthConfig::wikitext2_like();
    let capacity = capacity_rps_estimate(system.stage_times(), &lengths);
    let typical = lengths.nominal_total_tokens();
    let (ideal_ttft, ideal_tpot) = ideal_latencies(system.stage_times(), typical / 2, typical);
    let slo = SloConfig::with_slack(ideal_ttft, ideal_tpot, 10.0);

    println!("model: {} on {WAFERS} wafers", model.name);
    println!(
        "estimated per-wafer capacity: {capacity:.1} req/s  (ideal TTFT {:.2} ms, ideal TPOT {:.4} ms)",
        ideal_ttft * 1e3,
        ideal_tpot * 1e3
    );
    println!("SLO: TTFT <= {:.2} ms, TPOT <= {:.4} ms\n", slo.ttft_s * 1e3, slo.tpot_s * 1e3);

    // Poisson load sweep: 20% to 160% of estimated aggregate capacity, one
    // scenario per offered load over the same request mix.
    let aggregate = capacity * WAFERS as f64;
    let rates: Vec<f64> = LOAD_FRACTIONS.iter().map(|f| f * aggregate).collect();
    let trace = TraceGenerator::new(SEED).generate(&lengths, REQUESTS);
    let sweep: Vec<Scenario> = rates
        .iter()
        .map(|&rate_rps| {
            let timed = ArrivalConfig::Poisson { rate_rps }.assign(&trace, SEED);
            Scenario::colocated(WAFERS).router(routers::least_kv_load()).slo(slo).workload(timed)
        })
        .collect();
    println!("=== Poisson load sweep, {REQUESTS} requests/point, least-kv-load routing ===");
    let reports =
        parallel_map_indexed(sweep, default_threads(), |_, s| s.run(&system).expect("cluster builds"));
    print!("{}", format_sweep(&reports));

    // The throughput-vs-load curve must rise to saturation and then hold.
    for w in reports.windows(2) {
        assert!(
            w[1].serving.output_tokens_per_s >= w[0].serving.output_tokens_per_s * 0.95,
            "throughput-vs-load curve must be monotone (within tolerance): {:.0} tok/s then {:.0} tok/s",
            w[0].serving.output_tokens_per_s,
            w[1].serving.output_tokens_per_s
        );
    }
    for r in &reports {
        assert!(r.is_conserved(), "request conservation must hold at every load");
    }

    // Routing-policy shootout at the highest swept load: the same scenario,
    // one builder call different.
    let top_rate = *rates.last().expect("sweep has points");
    let timed = ArrivalConfig::Poisson { rate_rps: top_rate }.assign(&trace, SEED);
    println!("\n=== routing policies at {top_rate:.0} req/s (past saturation) ===");
    println!(
        "{:<22} {:>11} {:>11} {:>11} {:>9} {:>9}",
        "policy", "ttft-p50", "ttft-p99", "tpot-p99", "goodput/s", "evictions"
    );
    let mut by_policy = Vec::new();
    let policies: [Box<dyn Router>; 3] =
        [routers::round_robin(), routers::join_shortest_queue(), routers::least_kv_load()];
    for router in policies {
        let name = router.name();
        let report = Scenario::colocated(WAFERS)
            .router(router)
            .slo(slo)
            .workload(timed.clone())
            .run(&system)
            .expect("cluster builds");
        let s = &report.serving;
        println!(
            "{:<22} {:>9.1}ms {:>9.1}ms {:>9.3}ms {:>9.1} {:>9}",
            name,
            s.ttft.p50_s * 1e3,
            s.ttft.p99_s * 1e3,
            s.tpot.p99_s * 1e3,
            s.goodput_rps,
            s.evictions
        );
        by_policy.push(report);
    }
    let rr = &by_policy[0].serving;
    let lkv = &by_policy[2].serving;
    assert!(
        lkv.ttft.p99_s <= rr.ttft.p99_s,
        "least-kv-load routing must match or beat round-robin p99 TTFT at the highest load: {:.1} ms vs {:.1} ms",
        lkv.ttft.p99_s * 1e3,
        rr.ttft.p99_s * 1e3
    );
    println!(
        "\nleast-kv-load p99 TTFT is {:.1}% of round-robin's at {top_rate:.0} req/s",
        100.0 * lkv.ttft.p99_s / rr.ttft.p99_s
    );
}
