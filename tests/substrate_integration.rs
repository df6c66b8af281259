//! Integration tests across the substrate crates (hardware, NoC, mapping,
//! KV cache) without going through the end-to-end simulator.

use ouroboros::hw::{CoreId, DefectMap, WaferGeometry, YieldModel};
use ouroboros::kvcache::{KvManagerConfig, KvScheduler};
use ouroboros::mapping::{remap_with_chain, MappingProblem, Strategy};
use ouroboros::model::zoo;
use ouroboros::noc::{CommCost, Transfer};
use ouroboros::workload::{LengthConfig, TraceGenerator};

#[test]
fn mapping_respects_a_realistic_defect_map() {
    let geometry = WaferGeometry::paper();
    let defects = DefectMap::generate(&geometry, &YieldModel::paper(), 99);
    let candidates: Vec<CoreId> = defects.functional_cores().collect();
    let problem = MappingProblem::for_block(
        &zoo::llama_13b(),
        geometry,
        defects.clone(),
        candidates,
        4 * 1024 * 1024,
        4.0,
    );
    let solution = ouroboros::mapping::solve(&problem, Strategy::Anneal { iterations: 1_000 }, 3);
    assert!(problem.is_feasible(&solution.assignment));
    for core in &solution.assignment.core {
        assert!(!defects.is_defective(*core));
    }
}

#[test]
fn optimized_mapping_reduces_transmission_volume_on_the_real_wafer() {
    let geometry = WaferGeometry::paper();
    let defects = DefectMap::pristine(&geometry);
    let candidates: Vec<CoreId> = geometry.all_cores().collect();
    let problem =
        MappingProblem::for_block(&zoo::llama_13b(), geometry, defects, candidates, 4 * 1024 * 1024, 4.0);
    let ours = ouroboros::mapping::solve(&problem, Strategy::Anneal { iterations: 2_000 }, 1);
    let summa = ouroboros::mapping::solve(&problem, Strategy::Summa, 1);
    let waferllm = ouroboros::mapping::solve(&problem, Strategy::WaferLlm, 1);
    assert!(ours.summary.transmission_volume() < summa.summary.transmission_volume());
    assert!(ours.summary.transmission_volume() <= waferllm.summary.transmission_volume() + 1e-9);
}

#[test]
fn replacement_chain_repairs_a_mapped_block() {
    let geometry = WaferGeometry::paper();
    let defects = DefectMap::pristine(&geometry);
    let candidates: Vec<CoreId> = geometry.all_cores().collect();
    let problem = MappingProblem::for_block(
        &zoo::baichuan_13b(),
        geometry.clone(),
        defects,
        candidates,
        4 * 1024 * 1024,
        4.0,
    );
    let solution = ouroboros::mapping::solve(&problem, Strategy::Greedy, 0);
    let kv_cores: Vec<CoreId> =
        geometry.all_cores().filter(|c| !solution.assignment.core.contains(c)).take(32).collect();
    let failed = solution.assignment.core[0];
    let outcome = remap_with_chain(&geometry, &solution.assignment, &kv_cores, failed).unwrap();
    assert!(!outcome.new_assignment.core.contains(&failed));
    // Still a permutation (one tile per core).
    let unique: std::collections::BTreeSet<_> = outcome.new_assignment.core.iter().collect();
    assert_eq!(unique.len(), outcome.new_assignment.core.len());
}

#[test]
fn kv_scheduler_completes_a_wikitext_trace_with_bounded_waste() {
    let trace = TraceGenerator::new(21).generate(&LengthConfig::wikitext2_like(), 40);
    let mut cfg = KvManagerConfig::new((0..8).map(CoreId).collect(), 128);
    cfg.threshold = 0.1;
    let mut sched = KvScheduler::new(cfg).unwrap();
    let out = sched.run_trace(&trace);
    assert_eq!(out.stats.completed as usize, trace.len());
    assert!(out.waste_fraction < 0.5, "waste {} should stay bounded", out.waste_fraction);
}

#[test]
fn communication_cost_scales_with_mapping_distance() {
    let geometry = WaferGeometry::paper();
    let comm = CommCost::paper();
    let near = Transfer::between(&geometry, CoreId(0), CoreId(1), 4096);
    let far = Transfer::between(&geometry, CoreId(0), CoreId(13_000), 4096);
    assert!(comm.energy_j(&far) > 10.0 * comm.energy_j(&near));
    assert!(comm.latency_s(&far) > comm.latency_s(&near));
}
