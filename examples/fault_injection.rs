//! Runtime fault injection under live traffic: a seeded MTBF process fires
//! mid-run, each fault is healed by a replacement-chain remap (§4.3.3), the
//! absorbed KV is evicted and recomputed, and the run reports availability
//! and tail-latency inflation against the identical fault-free run.
//!
//! ```text
//! cargo run --release --example fault_injection
//! ```

use ouroboros::model::zoo;
use ouroboros::serve::{p99_inflation, FaultConfig, Scenario, SloConfig};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::workload::{ArrivalConfig, LengthConfig, TraceGenerator};

fn main() {
    let model = zoo::llama_13b();
    let mut cfg = OuroborosConfig::single_wafer();
    cfg.seed = 7;
    let system = OuroborosSystem::new(cfg, &model).expect("LLaMA-13B fits on one wafer");
    let wafers = 4;

    let lengths = LengthConfig::wikitext2_like();
    let trace = TraceGenerator::new(7).generate(&lengths, 200);
    let capacity = ouroboros::serve::capacity_rps_estimate(system.stage_times(), &lengths);
    let rate = 0.7 * capacity * wafers as f64;
    let timed = ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, 7);
    let typical = lengths.nominal_total_tokens();
    let (ttft, tpot) = ouroboros::serve::ideal_latencies(system.stage_times(), typical / 2, typical);
    let slo = SloConfig::with_slack(ttft, tpot, 10.0);

    // An aggressively accelerated MTBF: several faults per wafer within the
    // arrival span, so the healing path is exercised hard.
    let mtbf = timed.last_arrival_s() / 4.0;

    // One base scenario, run clean and with the fault plan armed.
    let base = Scenario::colocated(wafers).slo(slo).workload(timed.clone());
    let clean = base.clone().run(&system).expect("cluster builds").serving;
    let faulty_run = base.faults(FaultConfig::new(mtbf, 7)).run(&system).expect("cluster builds");
    let f = faulty_run.faults.as_ref().expect("a fault plan was armed");
    let faulty = &faulty_run.serving;
    let (ttft_inflation, tpot_inflation) = p99_inflation(faulty, &clean);

    println!(
        "{} wafers, {} requests at {rate:.0} req/s, per-wafer MTBF {:.1} ms",
        wafers,
        timed.len(),
        mtbf * 1e3
    );
    println!(
        "faults: {} injected, {} chains (mean length {:.1}), {} sequences recomputed",
        f.faults_injected,
        f.chains_built,
        f.mean_chain_len(),
        f.sequences_recomputed
    );
    println!(
        "kv evicted: {:.1} MB, stall {:.2} ms total, availability {:.3}%",
        f.kv_bytes_evicted as f64 / 1e6,
        f.total_stall_s * 1e3,
        f.availability * 100.0
    );
    println!(
        "p99 TTFT {:.2} ms -> {:.2} ms ({:.2}x), p99 TPOT {:.3} ms -> {:.3} ms ({:.2}x)",
        clean.ttft.p99_s * 1e3,
        faulty.ttft.p99_s * 1e3,
        ttft_inflation,
        clean.tpot.p99_s * 1e3,
        faulty.tpot.p99_s * 1e3,
        tpot_inflation
    );

    // The claims the docs make, asserted on every CI run.
    assert!(f.faults_injected > 0, "the accelerated MTBF must fire");
    assert!(f.chains_built > 0, "weight-core faults must build replacement chains");
    assert!(f.sequences_recomputed > 0, "faults under load must force recompute");
    assert!(f.availability < 1.0, "remap stalls and dead time must dent availability");
    assert!(f.availability > 0.5, "healing must keep the cluster mostly available");
    assert!(clean.is_conserved() && faulty.is_conserved(), "no request is lost to a fault");
    println!("\nall fault-injection invariants hold");
}
