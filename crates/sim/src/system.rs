//! The assembled Ouroboros system: mapping + pipeline + KV cache + energy.

use crate::config::{BuildError, OuroborosConfig};
use crate::stage_times::HwStageTimes;
use ouro_baselines::{EnergyBreakdown, SystemReport};
use ouro_hw::{CimCore, CoreId, DefectMap};
use ouro_kvcache::{KvManagerConfig, KvScheduler, StaticKvAllocator};
use ouro_mapping::{MappingProblem, MappingSolution, Strategy};
use ouro_model::{BlockCosts, ModelConfig};
use ouro_noc::CommCost;
use ouro_pipeline::{Granularity, PipelineScheduler};
use ouro_workload::Trace;

/// A fully assembled Ouroboros deployment serving one model.
#[derive(Debug, Clone)]
pub struct OuroborosSystem {
    config: OuroborosConfig,
    model: ModelConfig,
    core: CimCore,
    comm: CommCost,
    mapping: MappingSolution,
    stage_times: HwStageTimes,
    /// Cores holding weights across the whole model (all blocks, all wafers).
    weight_cores_total: usize,
    /// Functional cores left for the KV cache of each transformer block.
    kv_cores_per_block: usize,
    defects: DefectMap,
}

impl OuroborosSystem {
    /// Builds the system: draws the defect map, maps one transformer block
    /// onto the wafer, and derives the per-stage hardware timing model.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::ModelDoesNotFit`] when the model's weights
    /// exceed the wafer(s)' SRAM, and [`BuildError::NoKvCores`] when weight
    /// mapping leaves no cores for KV storage.
    pub fn new(config: OuroborosConfig, model: &ModelConfig) -> Result<OuroborosSystem, BuildError> {
        let core = CimCore::new(config.core.clone());
        let comm = if config.wafer_integration { CommCost::paper() } else { CommCost::chiplet_nvlink() };
        let mut core = core;
        if config.lut_compute {
            core.config.energy = core.config.energy.with_lut_compute();
        }

        let defects = match &config.yield_model {
            Some(y) => DefectMap::generate(&config.geometry, y, config.seed),
            None => DefectMap::pristine(&config.geometry),
        };
        let functional_per_wafer = defects.functional_count();
        let functional_total = functional_per_wafer * config.wafers;

        let weight_bytes = model.total_weight_bytes();
        let available = config.total_sram_bytes();
        if weight_bytes > available {
            return Err(BuildError::ModelDoesNotFit {
                required_bytes: weight_bytes,
                available_bytes: available,
            });
        }

        // Map one transformer block; the mapping repeats for every block.
        let candidate: Vec<CoreId> = defects.functional_cores().collect();
        let problem = MappingProblem::for_block(
            model,
            config.geometry.clone(),
            defects.clone(),
            candidate,
            core.sram_capacity_bytes(),
            comm.noc.cost_inter(),
        );
        let tiles_per_block = problem.num_tiles();
        let weight_cores_total = tiles_per_block * model.blocks;
        if weight_cores_total + model.blocks > functional_total {
            return Err(BuildError::ModelDoesNotFit {
                required_bytes: weight_bytes,
                available_bytes: (functional_total as u64) * core.sram_capacity_bytes(),
            });
        }
        if tiles_per_block > problem.feasible_cores().len() {
            return Err(BuildError::ModelDoesNotFit {
                required_bytes: weight_bytes,
                available_bytes: available,
            });
        }
        let strategy = if config.optimized_mapping {
            Strategy::Anneal { iterations: config.mapping_iterations }
        } else {
            Strategy::WaferLlm
        };
        let mapping = ouro_mapping::solve(&problem, strategy, config.seed);

        let kv_cores_total = functional_total - weight_cores_total;
        let kv_cores_per_block = kv_cores_total / model.blocks;
        if kv_cores_per_block < 2 {
            return Err(BuildError::NoKvCores);
        }

        // Cores per weight-holding stage of one block.
        let mut cores_per_stage = [0usize; 6];
        for layer in &problem.layers {
            cores_per_stage[layer.kind.index()] = layer.cores();
        }
        let stage_times = HwStageTimes {
            model: model.clone(),
            core: core.clone(),
            cores_per_stage,
            comm: comm.clone(),
            mean_hops: mapping.summary.mean_hops,
            inter_wafer_crossings_per_token: if config.wafers > 1 { 1.0 } else { 0.0 },
        };

        Ok(OuroborosSystem {
            config,
            model: model.clone(),
            core,
            comm,
            mapping,
            stage_times,
            weight_cores_total,
            kv_cores_per_block,
            defects,
        })
    }

    /// The deployment configuration this system was built from.
    pub fn config(&self) -> &OuroborosConfig {
        &self.config
    }

    /// The model this system serves.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The mapping of one transformer block.
    pub fn mapping(&self) -> &MappingSolution {
        &self.mapping
    }

    /// The per-stage timing model.
    pub fn stage_times(&self) -> &HwStageTimes {
        &self.stage_times
    }

    /// Number of cores holding weights across the whole model.
    pub fn weight_cores(&self) -> usize {
        self.weight_cores_total
    }

    /// Functional cores available to each block's KV cache.
    pub fn kv_cores_per_block(&self) -> usize {
        self.kv_cores_per_block
    }

    /// The defect map drawn for this system instance.
    pub fn defects(&self) -> &DefectMap {
        &self.defects
    }

    /// The per-head-scaled KV manager configuration used to replay traces
    /// against one transformer block's cache (capacity and demand both shrink
    /// by the head count, preserving the ratio). The online serving engine
    /// (`ouro-serve`) drives a manager built from this same configuration, so
    /// offline and online runs agree on admission capacity.
    pub fn serve_kv_config(&self) -> KvManagerConfig {
        let scaled_cores = (self.kv_cores_per_block / self.model.heads.max(1)).max(2);
        let mut cfg = KvManagerConfig::new((0..scaled_cores).map(CoreId).collect(), self.model.head_dim);
        cfg.crossbars_per_core = self.core.config.crossbars;
        cfg.crossbar = self.core.config.crossbar;
        cfg.threshold = self.config.kv_threshold;
        cfg
    }

    /// Bytes of KV cache that must cross the optical fabric when a sequence
    /// with `tokens` resident tokens migrates to another wafer: K and V for
    /// every head of every block, at the deployment's precision. This is the
    /// payload a disaggregated `ouro-serve` scenario charges against the
    /// [`ouro_noc::InterWaferLink`].
    pub fn kv_migration_bytes(&self, tokens: usize) -> u64 {
        tokens as u64 * self.model.kv_bytes_per_token()
    }

    /// KV concurrency and thrashing for this trace: returns
    /// `(resident_sequences, waste_fraction)`.
    fn kv_behaviour(&self, trace: &Trace) -> (f64, f64) {
        let per_block_tokens = self.kv_block_capacity_tokens();
        if self.config.dynamic_kv {
            let mut sched = KvScheduler::new(self.serve_kv_config())
                .expect("serve_kv_config names at least two KV cores (OuroborosSystem::new rejects fewer)");
            let out = sched.run_trace(trace);
            (out.stats.avg_resident.max(1.0), out.waste_fraction)
        } else {
            let alloc = StaticKvAllocator::new(per_block_tokens.max(1), self.model.max_context);
            ((alloc.max_resident_sequences() as f64).max(1.0), 0.0)
        }
    }

    /// Token capacity (per K/V side) of one block's KV cores, in
    /// token × head slots divided by the head count (i.e. whole-sequence
    /// tokens).
    fn kv_block_capacity_tokens(&self) -> usize {
        let per_crossbar = self
            .core
            .config
            .crossbar
            .tokens_per_logical_block(self.model.head_dim, self.model.precision.bytes())
            * self.core.config.crossbar.logical_blocks;
        let half_cores = (self.kv_cores_per_block / 2).max(1);
        half_cores * self.core.config.crossbars * per_crossbar / self.model.heads.max(1)
    }

    /// Runs the trace and produces the common system report.
    pub fn simulate(&self, trace: &Trace) -> SystemReport {
        self.simulate_labeled(trace, "")
    }

    /// Runs the trace with an explicit workload label in the report.
    pub fn simulate_labeled(&self, trace: &Trace, workload: &str) -> SystemReport {
        let scheduler = PipelineScheduler::new(&self.model, &self.stage_times);
        let granularity =
            if self.config.tgp { Granularity::finest_for(&self.model) } else { Granularity::Sequence };
        let report = scheduler.run(trace, granularity);

        let (resident, waste_fraction) = self.kv_behaviour(trace);
        let total_tokens = trace.total_tokens() as f64;
        let decode_tokens = trace.total_decode_tokens() as f64;
        let output_tokens = trace.total_decode_tokens().max(1);
        let n_req = trace.len().max(1) as f64;
        let avg_ctx = ((total_tokens / n_req) * 0.75).max(1.0) as usize;

        // Autoregressive decoding limits in-flight tokens to the number of
        // resident sequences; when that is below the pipeline depth the
        // token-grained pipeline cannot stay full (§6.2's 32B discussion).
        let (pipeline_latency, bottleneck) = self.stage_times.step_pricing_s(avg_ctx);
        // The autoregressive limit applies to every granularity: with fewer
        // resident sequences than the pipeline has stages, the pipeline
        // cannot stay full.
        let per_token_interval_limited = pipeline_latency / resident.max(1.0);
        let decode_penalty_s = decode_tokens * (per_token_interval_limited - bottleneck).max(0.0);
        // Thrashing recomputes tokens at the bottleneck rate.
        let recompute_tokens =
            if waste_fraction < 1.0 { total_tokens * waste_fraction / (1.0 - waste_fraction) } else { 0.0 };
        let recompute_s = recompute_tokens * bottleneck;

        let makespan = report.makespan_s + decode_penalty_s + recompute_s;
        let throughput = output_tokens as f64 / makespan.max(1e-12);

        let energy = self.energy_per_token(trace, makespan, avg_ctx, recompute_tokens);

        SystemReport {
            system: self.config.label(),
            model: self.model.name.clone(),
            workload: workload.to_string(),
            throughput_tokens_per_s: throughput,
            energy_per_token: energy,
            total_time_s: makespan,
            output_tokens,
            fits_in_memory: true,
        }
    }

    /// Energy per output token with the paper's four-way breakdown.
    fn energy_per_token(
        &self,
        trace: &Trace,
        makespan_s: f64,
        avg_ctx: usize,
        recompute_tokens: f64,
    ) -> EnergyBreakdown {
        let e = &self.core.config.energy;
        let model = &self.model;
        let blocks = model.blocks as f64;
        let total_tokens = trace.total_tokens() as f64 + recompute_tokens;
        let output_tokens = trace.total_decode_tokens().max(1) as f64;

        let block = BlockCosts::for_token(model, avg_ctx);
        let per_block = block.total();
        let macs_per_token = per_block.flops as f64 / 2.0 * blocks;
        let sfu_per_token = per_block.sfu_ops as f64 * blocks;
        let act_bytes_per_token = (per_block.act_in_bytes + per_block.act_out_bytes) as f64 * blocks;
        let kv_write_per_token = per_block.kv_write_bytes as f64 * blocks;
        let kv_read_per_token = per_block.kv_read_bytes as f64 * blocks;

        // Compute: in-situ MACs plus SFU work.
        let compute_j_total = total_tokens * (macs_per_token * e.cim_mac_j + sfu_per_token * e.sfu_op_j);

        // On-chip: activation buffers, KV writes, and — when CIM is disabled —
        // reading every used weight byte out of SRAM into the compute units.
        let weight_read_per_token = if self.config.cim {
            0.0
        } else {
            let weights_per_block = model.block_weight_bytes() as f64;
            let reuse = if self.config.tgp {
                1.0
            } else {
                // Sequence-grained processing reuses a fetched weight across
                // the tokens of the resident sequence.
                (trace.total_tokens() as f64 / trace.len().max(1) as f64).max(1.0)
            };
            weights_per_block * blocks / reuse
        };
        let leakage_j = self.config.total_cores() as f64 * e.core_static_w * makespan_s;
        let on_chip_j_total = total_tokens
            * (act_bytes_per_token * e.buffer_j_per_byte
                + kv_write_per_token * e.sram_write_j_per_byte
                + kv_read_per_token * 0.2 * e.sram_read_j_per_byte
                + weight_read_per_token * e.sram_read_j_per_byte)
            + leakage_j;

        // Communication: the mapped block's per-token byte·hop volume on the
        // mesh, plus the optical crossing for multi-wafer deployments.
        let per_hop_energy = if self.config.wafer_integration {
            self.comm.noc.intra_die.energy_j_per_byte
        } else {
            self.comm.noc.inter_die.energy_j_per_byte
        };
        let comm_j_per_token = self.mapping.summary.transmission_volume() * blocks * per_hop_energy
            + if self.config.wafers > 1 {
                model.activation_bytes_per_token() as f64 * self.comm.noc.inter_wafer.energy_j_per_byte
            } else {
                0.0
            };
        let comm_j_total = total_tokens * comm_j_per_token;

        EnergyBreakdown {
            compute_j: compute_j_total / output_tokens,
            on_chip_j: on_chip_j_total / output_tokens,
            off_chip_j: 0.0,
            communication_j: comm_j_total / output_tokens,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ouro_model::zoo;
    use ouro_workload::{LengthConfig, TraceGenerator};

    fn tiny_model() -> ModelConfig {
        // BERT-Large fits comfortably in the tiny test wafer.
        zoo::bert_large()
    }

    fn tiny_system() -> OuroborosSystem {
        OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &tiny_model()).unwrap()
    }

    fn small_trace() -> Trace {
        TraceGenerator::new(1).generate(&LengthConfig::fixed(64, 32), 8)
    }

    /// The offline KV scheduler's known admission defect: its eviction
    /// victims restart decode from zero, and a step that leaves nothing
    /// resident drops the queue head, so on this cell 188 of 200 requests
    /// are dropped. Pinned so that fixing the admission model has to
    /// change these counts on purpose.
    #[test]
    fn offline_kv_scheduler_defect_cell_is_pinned() {
        let sys = OuroborosSystem::new(OuroborosConfig::single_wafer(), &zoo::llama_32b()).unwrap();
        let trace = TraceGenerator::new(1).generate(&LengthConfig::fixed(128, 2048), 200);
        let out = KvScheduler::new(sys.serve_kv_config()).unwrap().run_trace(&trace);
        let s = out.stats;
        assert_eq!((s.completed, s.dropped, s.unfinished, s.steps), (12, 188, 0, 4158), "{s:?}");
    }

    #[test]
    fn tiny_system_builds_and_simulates() {
        let sys = tiny_system();
        assert!(sys.weight_cores() > 0);
        assert!(sys.kv_cores_per_block() >= 2);
        let r = sys.simulate(&small_trace());
        assert!(r.throughput_tokens_per_s > 0.0 && r.throughput_tokens_per_s.is_finite());
        assert!(r.energy_per_token_j() > 0.0 && r.energy_per_token_j().is_finite());
        assert_eq!(r.energy_per_token.off_chip_j, 0.0, "Ouroboros never touches off-chip memory");
        assert!(r.fits_in_memory);
    }

    #[test]
    fn kv_migration_bytes_match_model_accounting() {
        let sys = tiny_system();
        let m = sys.model();
        assert_eq!(sys.kv_migration_bytes(0), 0);
        assert_eq!(sys.kv_migration_bytes(128), 128 * m.kv_bytes_per_token());
    }

    #[test]
    fn oversized_model_is_rejected() {
        let err = OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::llama_65b()).unwrap_err();
        assert!(matches!(err, BuildError::ModelDoesNotFit { .. }));
    }

    #[test]
    fn tgp_beats_sequence_grained() {
        let model = tiny_model();
        let cfg = OuroborosConfig::tiny_for_tests();
        let tgp = OuroborosSystem::new(cfg.clone(), &model).unwrap();
        let seq = OuroborosSystem::new(OuroborosConfig { tgp: false, ..cfg }, &model).unwrap();
        let trace = TraceGenerator::new(3).generate(&LengthConfig::wikitext2_like(), 12);
        let r_tgp = tgp.simulate(&trace);
        let r_seq = seq.simulate(&trace);
        assert!(
            r_tgp.throughput_tokens_per_s > r_seq.throughput_tokens_per_s,
            "TGP {} should beat sequence-grained {}",
            r_tgp.throughput_tokens_per_s,
            r_seq.throughput_tokens_per_s
        );
    }

    #[test]
    fn disabling_cim_raises_energy() {
        let model = tiny_model();
        let cfg = OuroborosConfig::tiny_for_tests();
        let cim = OuroborosSystem::new(cfg.clone(), &model).unwrap();
        let no_cim = OuroborosSystem::new(OuroborosConfig { cim: false, ..cfg }, &model).unwrap();
        let trace = small_trace();
        assert!(no_cim.simulate(&trace).energy_per_token_j() > cim.simulate(&trace).energy_per_token_j());
    }

    #[test]
    fn chiplet_interconnect_raises_communication_energy() {
        let model = tiny_model();
        let cfg = OuroborosConfig::tiny_for_tests();
        let wafer = OuroborosSystem::new(cfg.clone(), &model).unwrap();
        let chiplet =
            OuroborosSystem::new(OuroborosConfig { wafer_integration: false, ..cfg }, &model).unwrap();
        let trace = small_trace();
        let rw = wafer.simulate(&trace);
        let rc = chiplet.simulate(&trace);
        assert!(rc.energy_per_token.communication_j > rw.energy_per_token.communication_j);
    }

    #[test]
    fn lut_cores_save_compute_energy() {
        let model = tiny_model();
        let cfg = OuroborosConfig::tiny_for_tests();
        let plain = OuroborosSystem::new(cfg.clone(), &model).unwrap();
        let lut = OuroborosSystem::new(OuroborosConfig { lut_compute: true, ..cfg }, &model).unwrap();
        let trace = small_trace();
        let rp = plain.simulate(&trace);
        let rl = lut.simulate(&trace);
        assert!(rl.energy_per_token.compute_j < rp.energy_per_token.compute_j);
    }

    #[test]
    fn defective_wafer_still_builds() {
        let mut cfg = OuroborosConfig::tiny_for_tests();
        cfg.yield_model = Some(ouro_hw::YieldModel { d0_per_cm2: 2.0 });
        let sys = OuroborosSystem::new(cfg, &tiny_model()).unwrap();
        assert!(sys.defects().defective_count() > 0);
        let r = sys.simulate(&small_trace());
        assert!(r.throughput_tokens_per_s > 0.0);
    }

    #[test]
    fn reports_carry_labels() {
        let sys = tiny_system();
        let r = sys.simulate_labeled(&small_trace(), "unit-test");
        assert_eq!(r.workload, "unit-test");
        assert_eq!(r.system, "Ours");
        assert_eq!(r.model, "BERT-Large");
    }
}
