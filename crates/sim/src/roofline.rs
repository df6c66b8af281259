//! Roofline + memory-hierarchy-energy model used by every baseline system.
//!
//! For the workloads of the paper the two interesting regimes are:
//!
//! * **Prefill** — compute-bound batched GEMMs; time is FLOPs over the
//!   system's sustained compute rate.
//! * **Decode** — memory-bound GEMVs; each decode step must stream the whole
//!   model's weights (and the growing KV cache) through the memory system,
//!   amortised over the resident batch.
//!
//! The energy model charges every byte by the tier it comes from (off-chip
//! HBM/DRAM, on-chip SRAM, inter-chip links) and every FLOP by a per-op
//! compute energy — this is exactly the decomposition shown in the stacked
//! bars of Fig. 1, Fig. 14 and Fig. 20.

use crate::config::ModelConfig;
use crate::report::{EnergyBreakdown, SystemReport};
use ouro_workload::Trace;

/// Hardware parameters of a roofline-modelled system.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RooflineConfig {
    /// Display name.
    pub(crate) name: String,
    /// Sustained compute throughput in FLOP/s (all chips combined).
    pub(crate) peak_flops: f64,
    /// Fraction of peak compute actually sustained on large GEMMs.
    pub(crate) compute_efficiency: f64,
    /// Aggregate first-tier (HBM/DRAM) bandwidth in bytes/s.
    pub(crate) mem_bandwidth: f64,
    /// First-tier memory capacity in bytes.
    pub(crate) mem_capacity: u64,
    /// Aggregate inter-chip interconnect bandwidth in bytes/s.
    pub(crate) interconnect_bandwidth: f64,
    /// Number of chips model weights are sharded across (tensor parallel).
    pub(crate) chips: usize,
    /// Deployment precision bytes per weight/activation element.
    pub(crate) precision_bytes: u64,
    /// Largest batch of concurrent sequences the serving stack will form.
    pub(crate) max_batch: usize,
    /// Whether attention (KV-cache reads) is served by in-memory compute
    /// rather than streaming KV through the compute chips (AttAcc).
    pub(crate) pim_attention: bool,
    /// Whether weights live in on-chip SRAM (wafer-scale engines) rather
    /// than off-chip HBM/DRAM.
    pub(crate) weights_on_chip: bool,
    /// Energy per FLOP in joules.
    pub(crate) energy_per_flop: f64,
    /// Energy per byte of off-chip (HBM/DRAM) traffic in joules.
    pub(crate) energy_per_offchip_byte: f64,
    /// Energy per byte of on-chip SRAM traffic in joules.
    pub(crate) energy_per_onchip_byte: f64,
    /// Energy per byte of inter-chip communication in joules.
    pub(crate) energy_per_link_byte: f64,
}

/// A baseline system evaluated with the roofline model.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflineSystem {
    /// Hardware parameters.
    pub(crate) config: RooflineConfig,
}

impl RooflineSystem {
    /// Wraps a configuration.
    pub(crate) fn new(config: RooflineConfig) -> RooflineSystem {
        RooflineSystem { config }
    }

    /// Model weight bytes at the system's deployment precision.
    fn weight_bytes(&self, model: &ModelConfig) -> u64 {
        model.total_params() * self.config.precision_bytes
    }

    /// KV bytes per token at the system's deployment precision.
    fn kv_bytes_per_token(&self, model: &ModelConfig) -> u64 {
        model.kv_bytes_per_token() / model.precision.bytes() * self.config.precision_bytes
    }

    /// Resident decode batch: limited by KV capacity left after weights and
    /// by the serving stack's configured maximum.
    pub(crate) fn decode_batch(&self, model: &ModelConfig, avg_seq_tokens: usize) -> usize {
        let weights = self.weight_bytes(model);
        let kv_per_seq = self.kv_bytes_per_token(model) * avg_seq_tokens.max(1) as u64;
        let free = self.config.mem_capacity.saturating_sub(weights);
        let by_capacity = free.checked_div(kv_per_seq).map_or(self.config.max_batch, |b| b as usize);
        by_capacity.clamp(1, self.config.max_batch)
    }

    /// Whether the model's weights fit in the first memory tier.
    pub(crate) fn fits(&self, model: &ModelConfig) -> bool {
        self.weight_bytes(model) <= self.config.mem_capacity
    }

    /// Evaluates the system on a trace of requests.
    pub fn evaluate(&self, model: &ModelConfig, trace: &Trace, workload: &str) -> SystemReport {
        let c = &self.config;
        let sustained_flops = c.peak_flops * c.compute_efficiency;
        let weight_bytes = self.weight_bytes(model) as f64;
        let kv_per_token = self.kv_bytes_per_token(model) as f64;

        let total_prompt = trace.total_prompt_tokens() as f64;
        let total_decode = trace.total_decode_tokens() as f64;
        let n_req = trace.len().max(1) as f64;
        let avg_prompt = total_prompt / n_req;
        let avg_decode = total_decode / n_req;
        let avg_total = (avg_prompt + avg_decode).max(1.0);
        let avg_ctx = avg_prompt + avg_decode / 2.0;

        // ---- prefill: compute bound -------------------------------------
        let prefill_flops: f64 =
            trace.requests.iter().map(|r| model.prefill_flops(r.prompt_len) as f64).sum();
        // Weights are streamed once per prefill pass when they do not stay
        // resident on chip (the fits==false streaming penalty).
        let prefill_weight_stream = if self.fits(model) { 0.0 } else { weight_bytes * n_req };
        let prefill_time = prefill_flops / sustained_flops + prefill_weight_stream / c.mem_bandwidth;

        // ---- decode: memory bound ---------------------------------------
        let batch = self.decode_batch(model, avg_total as usize) as f64;
        let decode_flops: f64 =
            trace.requests.iter().map(|r| model.decode_flops(r.prompt_len, r.decode_len) as f64).sum();
        let kv_read_per_step = kv_per_token * avg_ctx * batch;
        let weight_read_per_step = if c.pim_attention || !c.weights_on_chip {
            weight_bytes
        } else {
            // Wafer-scale SRAM systems still read weights from SRAM into the
            // compute units every step, but that traffic is on-chip and does
            // not consume HBM bandwidth; it is charged below in energy.
            0.0
        };
        let attention_read_per_step = if c.pim_attention { 0.0 } else { kv_read_per_step };
        let decode_steps = total_decode / batch;
        let step_mem_time = (weight_read_per_step + attention_read_per_step) / c.mem_bandwidth;
        let step_flops = decode_flops / total_decode.max(1.0) * batch;
        let step_compute_time = step_flops / sustained_flops;
        // Tensor-parallel all-reduce of the hidden state per layer per step.
        let allreduce_bytes = if c.chips > 1 {
            2.0 * model.hidden_dim as f64
                * c.precision_bytes as f64
                * model.blocks as f64
                * batch
                * (c.chips as f64 - 1.0)
                / c.chips as f64
        } else {
            0.0
        };
        let step_comm_time = allreduce_bytes / c.interconnect_bandwidth;
        let step_time = step_mem_time.max(step_compute_time) + step_comm_time;
        let decode_time = decode_steps * step_time;

        let total_time = prefill_time + decode_time;
        let output_tokens = trace.total_decode_tokens();
        let throughput = if total_time > 0.0 { output_tokens as f64 / total_time } else { 0.0 };

        // ---- energy ------------------------------------------------------
        let total_flops = prefill_flops + decode_flops;
        let compute_j = total_flops * c.energy_per_flop;
        // Off-chip traffic: weights per decode step (if off chip), KV reads,
        // plus weight streaming during prefill for systems that do not fit.
        let off_chip_bytes = if c.weights_on_chip {
            if self.fits(model) {
                0.0
            } else {
                weight_bytes * (n_req + decode_steps)
            }
        } else {
            weight_read_per_step * decode_steps
                + prefill_weight_stream
                + if c.pim_attention { 0.0 } else { kv_read_per_step * decode_steps }
        };
        // PIM attention still reads KV, but inside the memory at ~DRAM-array
        // energy (folded into on-chip here).
        let pim_kv_bytes = if c.pim_attention { kv_read_per_step * decode_steps } else { 0.0 };
        // On-chip traffic: activations through SRAM for every FLOP's operands
        // (roughly bytes ≈ flops / arithmetic-intensity), plus on-chip weight
        // reads for wafer-scale SRAM systems, plus PIM KV reads.
        let act_bytes = total_flops / 20.0;
        let on_chip_weight_bytes = if c.weights_on_chip { weight_bytes * decode_steps } else { 0.0 };
        let on_chip_bytes = act_bytes + on_chip_weight_bytes + pim_kv_bytes;
        let comm_bytes = allreduce_bytes * decode_steps
            + if c.chips > 1 {
                total_prompt * model.hidden_dim as f64 * c.precision_bytes as f64
            } else {
                0.0
            };

        let per_token = 1.0 / output_tokens.max(1) as f64;
        let energy = EnergyBreakdown {
            compute_j: compute_j * per_token,
            on_chip_j: on_chip_bytes * c.energy_per_onchip_byte * per_token,
            off_chip_j: off_chip_bytes * c.energy_per_offchip_byte * per_token,
            communication_j: comm_bytes * c.energy_per_link_byte * per_token,
        };

        SystemReport {
            system: c.name.clone(),
            model: model.name.clone(),
            workload: workload.to_string(),
            throughput_tokens_per_s: throughput,
            energy_per_token: energy,
            total_time_s: total_time,
            output_tokens,
            fits_in_memory: self.fits(model),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systems;
    use crate::zoo;
    use ouro_workload::{LengthConfig, TraceGenerator};

    fn trace() -> Trace {
        TraceGenerator::new(1).generate(&LengthConfig::fixed(128, 256), 64)
    }

    #[test]
    fn dgx_reports_positive_throughput_and_energy() {
        let r = systems::dgx_a100(8).evaluate(&zoo::llama_13b(), &trace(), "test");
        assert!(r.throughput_tokens_per_s > 0.0);
        assert!(r.energy_per_token_j() > 0.0);
        assert!(r.fits_in_memory);
        assert_eq!(r.output_tokens, 64 * 256);
    }

    #[test]
    fn data_movement_dominates_compute_on_gpus() {
        // The premise of the paper (Fig. 1): data movement, not compute,
        // dominates LLM inference energy on GPU systems, most visibly on
        // decode-heavy workloads.
        let decode_heavy = TraceGenerator::new(9).generate(&LengthConfig::fixed(128, 2048), 32);
        let r = systems::dgx_a100(8).evaluate(&zoo::llama_13b(), &decode_heavy, "test");
        assert!(r.energy_per_token.off_chip_j > r.energy_per_token.compute_j);
        let movement =
            r.energy_per_token.off_chip_j + r.energy_per_token.on_chip_j + r.energy_per_token.communication_j;
        assert!(movement > r.energy_per_token.compute_j);
    }

    #[test]
    fn bigger_models_are_slower_and_hungrier() {
        let sys = systems::dgx_a100(8);
        let small = sys.evaluate(&zoo::llama_13b(), &trace(), "t");
        let large = sys.evaluate(&zoo::llama_65b(), &trace(), "t");
        assert!(large.throughput_tokens_per_s < small.throughput_tokens_per_s);
        assert!(large.energy_per_token_j() > small.energy_per_token_j());
    }

    #[test]
    fn more_gpus_increase_throughput() {
        let one = systems::dgx_a100(1).evaluate(&zoo::llama_13b(), &trace(), "t");
        let eight = systems::dgx_a100(8).evaluate(&zoo::llama_13b(), &trace(), "t");
        assert!(eight.throughput_tokens_per_s > one.throughput_tokens_per_s);
    }

    #[test]
    fn decode_batch_respects_capacity_and_cap() {
        let sys = systems::dgx_a100(8);
        let b = sys.decode_batch(&zoo::llama_13b(), 2176);
        assert!(b >= 1 && b <= sys.config.max_batch);
        // A 65B model leaves less room for KV.
        let b65 = sys.decode_batch(&zoo::llama_65b(), 2176);
        assert!(b65 <= b);
    }

    #[test]
    fn attacc_beats_plain_dgx_on_decode_heavy_workloads() {
        let decode_heavy = TraceGenerator::new(2).generate(&LengthConfig::fixed(128, 2048), 32);
        let model = zoo::llama_13b();
        let dgx = systems::dgx_a100(8).evaluate(&model, &decode_heavy, "t");
        let attacc = systems::attacc().evaluate(&model, &decode_heavy, "t");
        assert!(attacc.throughput_tokens_per_s > dgx.throughput_tokens_per_s);
        assert!(attacc.energy_per_token_j() < dgx.energy_per_token_j());
    }

    #[test]
    fn cerebras_fits_13b_but_not_65b() {
        let wse = systems::cerebras_wse2();
        assert!(wse.fits(&zoo::llama_13b()));
        assert!(!wse.fits(&zoo::llama_65b()));
        let r13 = wse.evaluate(&zoo::llama_13b(), &trace(), "t");
        let r65 = wse.evaluate(&zoo::llama_65b(), &trace(), "t");
        assert!(r13.fits_in_memory);
        assert!(!r65.fits_in_memory);
        assert!(r13.throughput_tokens_per_s > r65.throughput_tokens_per_s);
    }

    #[test]
    fn hbm_cim_systems_have_offchip_cost() {
        let model = zoo::llama_13b();
        let vlsi = systems::hbm_cim_system("VLSI'22", 49.67, 26.0, 2.63e9);
        let r = vlsi.evaluate(&model, &trace(), "t");
        assert!(!r.fits_in_memory);
        assert!(r.energy_per_token.off_chip_j > 0.0);
    }
}
