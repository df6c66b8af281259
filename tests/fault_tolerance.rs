//! Fault tolerance on the paper wafer (§4.3.3, Fig. 9), step by step:
//! defect-map generation, mapping around defects, and replacement-chain
//! repair of a run-time core failure.

use ouroboros::hw::{CoreId, DefectMap, WaferGeometry, YieldModel};
use ouroboros::mapping::{remap_with_chain, MappingProblem, Strategy};
use ouroboros::model::zoo;

/// One shared setup: the paper wafer, the Murphy defect map at seed 2026,
/// and a LLaMA-13B block mapped around the defects.
fn mapped_block() -> (WaferGeometry, DefectMap, ouroboros::mapping::MappingSolution, MappingProblem) {
    let geometry = WaferGeometry::paper();
    let defects = DefectMap::generate(&geometry, &YieldModel::paper(), 2026);
    let model = zoo::llama_13b();
    let candidates: Vec<CoreId> = defects.functional_cores().collect();
    let problem = MappingProblem::for_block(
        &model,
        geometry.clone(),
        defects.clone(),
        candidates,
        4 * 1024 * 1024,
        4.0,
    );
    let solution = ouroboros::mapping::solve(&problem, Strategy::Anneal { iterations: 500 }, 7);
    (geometry, defects, solution, problem)
}

#[test]
fn defect_map_density_matches_the_murphy_model() {
    let geometry = WaferGeometry::paper();
    let defects = DefectMap::generate(&geometry, &YieldModel::paper(), 2026);
    assert!(defects.defective_count() > 0, "a paper wafer at 0.09/cm² has defects");
    let expected = YieldModel::paper().expected_defective_cores(&geometry);
    let got = defects.defective_count() as f64;
    assert!(
        got < 3.0 * expected + 10.0 && got > expected / 3.0 - 10.0,
        "defect count {got} should be near the Murphy expectation {expected:.1}"
    );
    // Mapping never places tiles on defective cores.
    let (_, defects, solution, _) = mapped_block();
    for core in &solution.assignment.core {
        assert!(!defects.is_defective(*core), "{core} is defective but holds weights");
    }
}

#[test]
fn replacement_chain_repairs_a_runtime_failure_on_the_paper_wafer() {
    let (geometry, defects, solution, problem) = mapped_block();
    assert!(problem.num_tiles() > 0);
    let kv_cores: Vec<CoreId> =
        defects.functional_cores().filter(|c| !solution.assignment.core.contains(c)).take(64).collect();
    assert!(kv_cores.len() >= 8, "spare KV cores must exist to absorb the displaced weights");
    let failed = solution.assignment.core[problem.num_tiles() / 2];
    let outcome = remap_with_chain(&geometry, &solution.assignment, &kv_cores, failed)
        .expect("kv cores are available to absorb the displaced weights");
    assert!(!outcome.new_assignment.core.contains(&failed), "the failed core is vacated");
    assert!(outcome.chain.len() >= 2, "a weight-core failure builds a real chain");
    assert_eq!(outcome.moved_tiles, outcome.chain.len() - 1);
    let evicted = outcome.evicted_kv_core.expect("a weight-core failure must absorb a KV core");
    assert!(kv_cores.contains(&evicted));
    assert!(outcome.new_assignment.core.contains(&evicted), "the KV core now holds weights");
    let unique: std::collections::BTreeSet<_> = outcome.new_assignment.core.iter().collect();
    assert_eq!(unique.len(), outcome.new_assignment.core.len(), "no tile stacking after repair");
}
