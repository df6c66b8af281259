//! Workspace-wide invariants of shared-prefix KV caching: the acceptance
//! claims of the prefix cache, pinned on the fast test system and on the
//! four-wafer LLaMA-13B deployment of `experiments prefix`.
//!
//! With shared system prompts (share ratio ≥ 0.5, same seed), the
//! prefix-cache-on run must show strictly lower mean TTFT and strictly
//! fewer prefilled tokens than the cache-off run, results must be
//! byte-identical per seed, and the refcount-aware block audit must stay
//! conserved after every release, eviction, and fault remap.

use ouro_bench::serving_setup;
use ouroboros::model::zoo;
use ouroboros::serve::{routers, Admission, Engine, Router, Scenario, SloConfig};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::workload::{ArrivalConfig, LengthConfig, Request, SessionConfig, TimedTrace};

fn tiny_system() -> OuroborosSystem {
    OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap()
}

fn slo() -> SloConfig {
    SloConfig { ttft_s: 0.5, tpot_s: 0.05 }
}

fn session_timed(n: usize, share: f64, seed: u64) -> TimedTrace {
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

/// The headline acceptance claim on `timed` served by `wafers` colocated
/// wafers: cache-on (prefix-affinity routing) beats cache-off
/// (least-kv-load) on mean TTFT and prefilled tokens, every drained
/// wafer's refcount-aware block audit is conserved and empty, and both
/// runs are reproducible byte-for-byte.
fn assert_prefix_cache_wins(sys: &OuroborosSystem, wafers: usize, slo: SloConfig, t: &TimedTrace) {
    let run = |caching: bool, router: Box<dyn Router>| {
        let outcome = Scenario::colocated(wafers)
            .router(router)
            .prefix_caching(caching)
            .slo(slo)
            .workload(t.clone())
            .run_full(sys)
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

/// The headline claim at share ratio 0.7 on the fast test system.
#[test]
fn prefix_cache_on_beats_off_at_half_sharing() {
    assert_prefix_cache_wins(&tiny_system(), 2, slo(), &session_timed(60, 0.7, 42));
}

/// The same claim on the deployment `experiments prefix` runs: four
/// LLaMA-13B wafers (seed 2026) serving 200 chat-session requests at share
/// ratio 0.7 and 80% of capacity.
#[test]
fn prefix_cache_on_beats_off_on_four_llama_13b_wafers() {
    let session = SessionConfig::chat(4, 0.7);
    let lengths =
        LengthConfig::fixed(session.shared_prefix_tokens + session.user_turn_tokens, session.decode_tokens);
    let (system, capacity, slo) = serving_setup(2026, &lengths);
    let wafers = 4;
    let rate = 0.8 * capacity * wafers as f64;
    let timed = ArrivalConfig::Poisson { rate_rps: rate }.assign(&session.generate(200, 2026), 2026);
    assert_prefix_cache_wins(&system, wafers, slo, &timed);
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
    let mut engine = Engine::new(sys.stage_times().clone(), sys.serve_kv_config(), true).unwrap();
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
            if engine.apply_fault(engine.clock_s(), 0.5e-3, faults_applied, 0.01) {
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
    let mut engine = Engine::new(sys.stage_times().clone(), sys.serve_kv_config(), true).unwrap();
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
