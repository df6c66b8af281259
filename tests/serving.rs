//! Online serving and prefill/decode disaggregation on the deployment the
//! `experiments serving` and `disagg` subcommands run: four LLaMA-13B
//! wafers, seed 2026, 200 requests, SLOs at 10× the unloaded latencies.
//!
//! The claims pinned here: the throughput-vs-load curve rises to
//! saturation and holds, KV-aware routing tames the TTFT tail past
//! saturation, every byte a prefill wafer exports is imported by a decode
//! wafer, the chosen pool split dominates every swept split, and
//! disaggregation keeps the decode tail clear of prefill bursts.

use ouro_bench::serving_setup;
use ouroboros::serve::{best_ratio, parallel_map_indexed, routers, RunReport, Scenario, LOAD_FRACTIONS};
use ouroboros::sim::OuroborosSystem;
use ouroboros::workload::{ArrivalConfig, LengthConfig, TraceGenerator};

const SEED: u64 = 2026;
const WAFERS: usize = 4;
const REQUESTS: usize = 200;

fn run_all(system: &OuroborosSystem, scenarios: Vec<Scenario>) -> Vec<RunReport> {
    parallel_map_indexed(scenarios, 2, |_, s| s.run(system).expect("deployment builds"))
}

/// A Poisson load sweep over [`LOAD_FRACTIONS`] of aggregate capacity on
/// the WikiText-2-like mix with least-kv-load routing, then round-robin
/// routing at the top swept load (where the sweep's last point is the
/// least-kv-load side of the comparison).
#[test]
fn load_curve_saturates_and_least_kv_load_beats_round_robin_past_it() {
    let lengths = LengthConfig::wikitext2_like();
    let (system, capacity, slo) = serving_setup(SEED, &lengths);
    let aggregate = capacity * WAFERS as f64;
    let trace = TraceGenerator::new(SEED).generate(&lengths, REQUESTS);
    let colocated = |fraction: f64| {
        let timed = ArrivalConfig::Poisson { rate_rps: fraction * aggregate }.assign(&trace, SEED);
        Scenario::colocated(WAFERS).slo(slo).workload(timed)
    };
    let sweep = LOAD_FRACTIONS.iter().map(|&f| colocated(f).router(routers::least_kv_load())).collect();
    let reports = run_all(&system, sweep);
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

    let top = LOAD_FRACTIONS[LOAD_FRACTIONS.len() - 1];
    let rr = colocated(top).router(routers::round_robin()).run(&system).expect("cluster builds").serving;
    let lkv = &reports[reports.len() - 1].serving;
    assert!(
        lkv.ttft.p99_s <= rr.ttft.p99_s,
        "least-kv-load routing must match or beat round-robin p99 TTFT at the highest load: {:.1} ms vs {:.1} ms",
        lkv.ttft.p99_s * 1e3,
        rr.ttft.p99_s * 1e3
    );
}

/// Bursty (cv = 4) prefill-heavy traffic, 512-token prompts and 64-token
/// generations: the pool-ratio sweep at aggregate capacity, then
/// colocated vs the goodput-optimal split at half, full and 1.5× that
/// load over identical traces.
#[test]
fn disaggregation_conserves_kv_and_isolates_the_decode_tail() {
    let lengths = LengthConfig::fixed(512, 64);
    let (system, capacity, slo) = serving_setup(SEED, &lengths);
    let rate = capacity * WAFERS as f64;
    let trace = TraceGenerator::new(SEED).generate(&lengths, REQUESTS);
    let bursty = |rate_rps| ArrivalConfig::Bursty { rate_rps, cv: 4.0 }.assign(&trace, SEED);

    let timed = bursty(rate);
    let splits = (1..WAFERS)
        .map(|prefill| Scenario::disaggregated(prefill, WAFERS - prefill).slo(slo).workload(timed.clone()))
        .collect();
    let plans = run_all(&system, splits);
    for p in &plans {
        let m = p.migration.as_ref().expect("disaggregated runs report migration stats");
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
    let best = best_ratio(&plans);
    let best_p = best.deployment.prefill_wafers;
    for p in &plans {
        assert!(
            best.serving.goodput_rps >= p.serving.goodput_rps,
            "best_ratio picked {best_p}p ({:.1} req/s) but {}p achieves {:.1}",
            best.serving.goodput_rps,
            p.deployment.prefill_wafers,
            p.serving.goodput_rps
        );
    }

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
    for pair in run_all(&system, sides).chunks_exact(2) {
        let (colocated, disagg) = (&pair[0], &pair[1]);
        assert!(colocated.is_conserved() && disagg.is_conserved());
        assert!(disagg.kv_bytes_conserved());
        assert!(
            disagg.serving.tpot.p99_s < colocated.serving.tpot.p99_s,
            "at {:.0} req/s disaggregated p99 TPOT ({:.3} ms) must beat colocated ({:.3} ms)",
            colocated.serving.offered_rps.unwrap_or(f64::NAN),
            disagg.serving.tpot.p99_s * 1e3,
            colocated.serving.tpot.p99_s * 1e3
        );
    }
}
