//! Randomized differential tests of the fast simulator paths.
//!
//! Debug builds cross-check every fast path against its naive reference on
//! every call — the engine's pending queue against a min-scan over its
//! entries, and the KV block counters against full bitmap scans — so
//! *running* a randomized scenario matrix under `cargo test` is itself a
//! differential test: any divergence between a fast path and its
//! reference panics at the first step that disagrees. On top of the structural asserts, every
//! shape is run twice and the two [`ouro_serve::RunReport`]s must be
//! bit-identical, and the threaded sweep drivers must render byte-identical
//! JSON at any worker count.
//!
//! The shapes are drawn through the vendored `proptest` harness (seeded
//! from the test name), so a failure reproduces exactly.

use ouro_serve::{parallel_map_indexed, FaultConfig, Scenario, SloConfig, LOAD_FRACTIONS};
use ouro_sim::model::zoo;
use ouro_sim::{OuroborosConfig, OuroborosSystem};
use ouro_workload::{ArrivalConfig, LengthConfig, SessionConfig, TraceGenerator};
use proptest::prelude::*;

fn tiny_system() -> OuroborosSystem {
    OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap()
}

/// A splitmix-style generator expanding one proptest-drawn seed into a
/// full scenario shape (proptest strategies compose over scalars; the
/// conditional shape structure is easier to draw imperatively).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform pick in `[lo, hi]`.
    fn pick(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

/// One randomized shape: deployment × workload × arrival × faults ×
/// prefix caching, all drawn from the LCG.
fn random_scenario(rng: &mut Lcg) -> (String, Scenario) {
    let wafers = rng.pick(1, 3) as usize;
    let requests = rng.pick(10, 40) as usize;
    let prompt = rng.pick(32, 160) as usize;
    let decode = rng.pick(8, 32) as usize;
    let rate = rng.pick(50, 600) as f64;
    let seed = rng.next();
    let sessions = rng.pick(0, 2) == 0;
    let trace = if sessions {
        SessionConfig::chat(4, 0.5).generate(requests, seed)
    } else {
        TraceGenerator::new(seed).generate(&LengthConfig::fixed(prompt, decode), requests)
    };
    let timed = if rng.pick(0, 1) == 0 {
        ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, seed)
    } else {
        ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }.assign(&trace, seed)
    };
    let disagg = wafers >= 2 && rng.pick(0, 1) == 0;
    let mut scenario = if disagg {
        let prefill = rng.pick(1, wafers as u64 - 1) as usize;
        Scenario::disaggregated(prefill, wafers - prefill)
    } else {
        Scenario::colocated(wafers)
    };
    let faulty = rng.pick(0, 2) == 0;
    if faulty {
        scenario = scenario.faults(FaultConfig::new(0.02 + rng.pick(0, 100) as f64 * 1e-3, seed));
    }
    let prefix = sessions && rng.pick(0, 1) == 0;
    scenario = scenario.prefix_caching(prefix).slo(SloConfig { ttft_s: 0.5, tpot_s: 0.05 }).workload(timed);
    let label = format!(
        "wafers={wafers} requests={requests} disagg={disagg} faulty={faulty} \
         sessions={sessions} prefix={prefix} seed={seed}"
    );
    (label, scenario)
}

proptest! {
    /// Any composed scenario shape survives the debug cross-checks and
    /// replays bit-identically. Running at all exercises the
    /// debug_assert differential checks of the pending queue and KV
    /// counters on every simulated event; the repeat pins determinism.
    #[test]
    fn randomized_shapes_run_the_debug_cross_checks_and_repeat_bit_identically(
        shape_seed in 0u64..u64::MAX
    ) {
        let sys = tiny_system();
        let (label, scenario) = random_scenario(&mut Lcg(shape_seed));
        let first = scenario.run(&sys).unwrap_or_else(|e| panic!("{label}: {e:?}"));
        prop_assert!(first.is_conserved(), "{}", label);
        prop_assert!(first.kv_bytes_conserved(), "{}", label);
        let second = scenario.run(&sys).unwrap();
        prop_assert_eq!(first, second, "{}: repeated run diverged", label);
    }
}

#[test]
fn sweep_json_is_byte_identical_at_any_thread_count() {
    // The parallel sweep reassembles results in input order, so worker
    // count must never leak into the output — checked at the strictest
    // level: the rendered JSON rows. Three sweep shapes: a colocated load
    // sweep, a pool-ratio split list, and a colocated + disaggregated
    // shootout pair with faults armed on both sides.
    let sys = tiny_system();
    let slo = SloConfig { ttft_s: 0.5, tpot_s: 0.05 };
    let trace = TraceGenerator::new(17).generate(&LengthConfig::fixed(96, 24), 30);
    let load_sweep: Vec<Scenario> = LOAD_FRACTIONS
        .iter()
        .map(|f| {
            let timed = ArrivalConfig::Poisson { rate_rps: f * 1600.0 }.assign(&trace, 17);
            Scenario::colocated(2).slo(slo).workload(timed)
        })
        .collect();
    let bursty = ArrivalConfig::Bursty { rate_rps: 1600.0, cv: 4.0 }.assign(&trace, 17);
    let pool_ratios: Vec<Scenario> =
        (1..4).map(|p| Scenario::disaggregated(p, 4 - p).slo(slo).workload(bursty.clone())).collect();
    let fault = FaultConfig::new(0.005, 17);
    let faulty_pair = vec![
        Scenario::colocated(2).slo(slo).faults(fault).workload(bursty.clone()),
        Scenario::disaggregated(1, 1).slo(slo).faults(fault).workload(bursty),
    ];
    for (name, scenarios) in
        [("load sweep", load_sweep), ("pool ratios", pool_ratios), ("faulty pair", faulty_pair)]
    {
        let run =
            |threads: usize| parallel_map_indexed(scenarios.clone(), threads, |_, s| s.run(&sys).unwrap());
        let render = |reports: Vec<ouro_serve::RunReport>| -> String {
            let rows: Vec<_> = reports.iter().map(|r| r.json_object()).collect();
            ouro_serve::json::render_array(&rows)
        };
        let serial = run(1);
        assert!(
            serial.iter().all(|r| r.faults.as_ref().is_none_or(|f| f.faults_injected > 0)),
            "{name}: every armed fault plan must fire"
        );
        let serial = render(serial);
        for threads in [2, 4, 8] {
            assert_eq!(serial, render(run(threads)), "{name}: threads={threads} changed the sweep JSON");
        }
    }
}
