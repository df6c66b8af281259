//! Workspace-wide invariants of shared-prefix KV caching: the acceptance
//! claims of the prefix-cache tentpole, pinned on the fast test system.
//!
//! With shared system prompts (share ratio ≥ 0.5, same seed), the
//! prefix-cache-on run must show strictly lower mean TTFT and strictly
//! fewer prefilled tokens than the cache-off run, results must be
//! byte-identical per seed, and the refcount-aware block audit must stay
//! conserved after every release, eviction, and fault remap.

use ouroboros::model::zoo;
use ouroboros::serve::{routers, Admission, Engine, EngineConfig, Router, Scenario, SloConfig};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::workload::{ArrivalConfig, Request, SessionConfig};

fn tiny_system() -> OuroborosSystem {
    OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap()
}

fn slo() -> SloConfig {
    SloConfig { ttft_s: 0.5, tpot_s: 0.05 }
}

fn session_timed(n: usize, share: f64, seed: u64) -> ouroboros::workload::TimedTrace {
    let cfg = SessionConfig {
        groups: 2,
        shared_prefix_tokens: 256,
        share_ratio: share,
        max_turns: 2,
        user_turn_tokens: 32,
        decode_tokens: 16,
    };
    let trace = cfg.generate(n, seed);
    ArrivalConfig::Poisson { rate_rps: 1_500.0 }.assign(&trace, seed)
}

/// The headline acceptance claim: at share ratio 0.7 on identical traffic,
/// cache-on beats cache-off on mean TTFT and prefilled tokens, and both
/// runs are reproducible byte-for-byte.
#[test]
fn prefix_cache_on_beats_off_at_half_sharing() {
    let sys = tiny_system();
    let t = session_timed(60, 0.7, 42);
    let run = |caching: bool, router: Box<dyn Router>| {
        let outcome = Scenario::colocated(2)
            .router(router)
            .prefix_caching(caching)
            .slo(slo())
            .workload(t.clone())
            .run_full(&sys)
            .unwrap();
        for e in outcome.engines() {
            let audit = e.kv_audit();
            assert!(audit.is_conserved());
            assert_eq!(audit.live, 0, "drained engines free shared chains too");
        }
        outcome.report.serving
    };
    let off = run(false, routers::least_kv_load());
    let on = run(true, routers::prefix_affinity());
    assert!(off.is_conserved() && on.is_conserved());
    assert!(
        on.ttft.mean_s < off.ttft.mean_s,
        "prefix caching must strictly cut mean TTFT: {} vs {}",
        on.ttft.mean_s,
        off.ttft.mean_s
    );
    assert!(
        on.prefilled_tokens < off.prefilled_tokens,
        "prefix caching must strictly cut prefilled tokens: {} vs {}",
        on.prefilled_tokens,
        off.prefilled_tokens
    );
    assert!(on.cached_prefix_tokens > 0);
    assert_eq!(off.cached_prefix_tokens, 0, "the ablation baseline never hits the cache");
    // Byte-identical per seed, for both configurations.
    assert_eq!(format!("{:?}", run(true, routers::prefix_affinity())), format!("{on:?}"));
    assert_eq!(format!("{:?}", run(false, routers::least_kv_load())), format!("{off:?}"));
}

/// Untagged traffic must be bit-identical whether the cache is on or off —
/// prefix caching is strictly additive.
#[test]
fn cold_traffic_is_unaffected_by_the_prefix_cache() {
    let sys = tiny_system();
    let t = session_timed(40, 0.0, 7);
    let run = |caching: bool| {
        Scenario::colocated(2)
            .router(routers::least_kv_load())
            .prefix_caching(caching)
            .slo(slo())
            .workload(t.clone())
            .run(&sys)
            .unwrap()
    };
    assert_eq!(run(true), run(false));
}

/// The refcount-aware audit holds at every fault boundary while shared
/// chains are live: faults that strike shared crossbars evict every sharer
/// and free each chain block exactly once.
#[test]
fn block_audit_survives_faults_on_shared_chains() {
    let sys = tiny_system();
    let mut engine =
        Engine::new(sys.stage_times().clone(), sys.serve_kv_config(), EngineConfig::default()).unwrap();
    for i in 0..16 {
        // All sequences share one 256-token system prompt.
        engine.submit_with(Request::new(i, 288, 24).with_shared_prefix(1, 256), 0.0, Admission::Local, i);
    }
    let mut faults_applied = 0;
    let mut step = 0u64;
    while engine.has_work() {
        engine.step();
        step += 1;
        if step.is_multiple_of(5) {
            if engine.apply_fault(engine.clock_s(), 0.5e-3, faults_applied, 0.01).is_some() {
                faults_applied += 1;
            }
            let audit = engine.kv_audit();
            assert!(
                audit.is_conserved(),
                "after remap {faults_applied}: allocated {} − freed {} != live {} (shared {})",
                audit.allocated,
                audit.freed,
                audit.live,
                audit.shared_live
            );
        }
    }
    assert!(faults_applied > 0, "the loop must inject at least one fault");
    let audit = engine.kv_audit();
    assert!(audit.is_conserved());
    assert_eq!(audit.live, 0, "a drained engine holds no live blocks, shared or private");
    assert_eq!(audit.shared_live, 0);
    let done = engine.records().iter().filter(|r| r.completed()).count();
    assert_eq!(done + engine.stats().dropped as usize, 16, "faults lose no work");
}

/// Capacity evictions on sharers keep the audit conserved and the chain
/// refcounts exact: an overloaded cache thrashes sequences in and out while
/// their shared chain persists as long as any sharer is resident.
#[test]
fn evictions_of_sharers_keep_refcounts_exact() {
    let sys = tiny_system();
    let mut engine =
        Engine::new(sys.stage_times().clone(), sys.serve_kv_config(), EngineConfig::default()).unwrap();
    // Oversubscribe the tiny cache so the eviction path runs hot.
    for i in 0..30 {
        engine.submit_with(Request::new(i, 400, 120).with_shared_prefix(2, 384), 0.0, Admission::Local, i);
    }
    while engine.has_work() {
        engine.step();
        let audit = engine.kv_audit();
        assert!(
            audit.is_conserved(),
            "mid-run: allocated {} − freed {} != live {} (shared {})",
            audit.allocated,
            audit.freed,
            audit.live,
            audit.shared_live
        );
    }
    let audit = engine.kv_audit();
    assert_eq!(audit.live, 0);
    assert_eq!(audit.shared_live, 0);
    let done = engine.records().iter().filter(|r| r.completed()).count();
    assert_eq!(done + engine.stats().dropped as usize, 30);
}
