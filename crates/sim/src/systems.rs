//! Concrete baseline system configurations (published hardware parameters).

use crate::roofline::{RooflineConfig, RooflineSystem};

/// A DGX A100 node with `gpus` 40 GB A100 GPUs connected by NVLink, running a
/// vLLM-style serving stack (continuous batching, FlashAttention,
/// chunked prefill). `gpus` may be 1–8; Fig. 1 sweeps it, the main
/// comparison uses 8.
pub fn dgx_a100(gpus: usize) -> RooflineSystem {
    let gpus = gpus.clamp(1, 8) as f64;
    RooflineSystem::new(RooflineConfig {
        name: if gpus as usize == 8 { "DGX A100".to_string() } else { format!("{}x A100", gpus as usize) },
        peak_flops: 312.0e12 * gpus,
        compute_efficiency: 0.45,
        mem_bandwidth: 1.555e12 * gpus,
        mem_capacity: (40.0e9 * gpus) as u64,
        interconnect_bandwidth: 600.0e9 / 2.0 * gpus,
        chips: gpus as usize,
        precision_bytes: 2,
        max_batch: 256,
        pim_attention: false,
        weights_on_chip: false,
        energy_per_flop: 0.3e-12,
        energy_per_offchip_byte: 15.0e-12,
        energy_per_onchip_byte: 1.2e-12,
        energy_per_link_byte: 10.0e-12,
    })
}

/// An 8-chip TPU v4 pod slice (32 GB HBM per chip, 275 TFLOPS bf16 per chip,
/// ICI torus links).
pub fn tpu_v4() -> RooflineSystem {
    let chips = 8.0;
    RooflineSystem::new(RooflineConfig {
        name: "TPUv4".to_string(),
        peak_flops: 275.0e12 * chips,
        compute_efficiency: 0.5,
        mem_bandwidth: 1.2e12 * chips,
        mem_capacity: (32.0e9 * chips) as u64,
        interconnect_bandwidth: 50.0e9 * chips,
        chips: chips as usize,
        precision_bytes: 2,
        max_batch: 256,
        pim_attention: false,
        weights_on_chip: false,
        energy_per_flop: 0.25e-12,
        energy_per_offchip_byte: 14.0e-12,
        energy_per_onchip_byte: 1.0e-12,
        energy_per_link_byte: 8.0e-12,
    })
}

/// The DGX+AttAcc configuration of \[46\]: a DGX A100 whose HBM stacks perform
/// the attention (score and context) operations in memory, with 320 GB of
/// PIM-enabled HBM. Attention reads stop consuming HBM *bandwidth* at the
/// host and cost near-array energy instead.
pub fn attacc() -> RooflineSystem {
    RooflineSystem::new(RooflineConfig {
        name: "AttAcc".to_string(),
        peak_flops: 312.0e12 * 8.0,
        compute_efficiency: 0.45,
        mem_bandwidth: 1.555e12 * 8.0,
        mem_capacity: 320_000_000_000,
        interconnect_bandwidth: 600.0e9 / 2.0 * 8.0,
        chips: 8,
        precision_bytes: 2,
        max_batch: 384,
        pim_attention: true,
        weights_on_chip: false,
        energy_per_flop: 0.3e-12,
        energy_per_offchip_byte: 15.0e-12,
        energy_per_onchip_byte: 1.5e-12,
        energy_per_link_byte: 10.0e-12,
    })
}

/// The Cerebras WSE-2 running a WaferLLM-style inference engine: 40 GB of
/// on-wafer SRAM, enormous aggregate SRAM bandwidth, but a conventional
/// (non-CIM) datapath, so every weight use still moves bytes from SRAM to the
/// compute units, and models beyond 40 GB must stream weights from off-wafer
/// memory.
pub fn cerebras_wse2() -> RooflineSystem {
    RooflineSystem::new(RooflineConfig {
        name: "Cerebras".to_string(),
        peak_flops: 5.0e15,
        compute_efficiency: 0.25,
        mem_bandwidth: 1.2e12, // off-wafer streaming bandwidth (MemoryX-style)
        mem_capacity: 40_000_000_000,
        interconnect_bandwidth: 10.0e12,
        chips: 1,
        precision_bytes: 2,
        max_batch: 128,
        pim_attention: false,
        weights_on_chip: true,
        energy_per_flop: 0.25e-12,
        energy_per_offchip_byte: 15.0e-12,
        energy_per_onchip_byte: 1.0e-12,
        energy_per_link_byte: 2.0e-12,
    })
}

/// A wafer built from a high-density CIM macro (the VLSI'22 / ISSCC'22 points
/// of Table 2) backed by HBM2 at 1.6 TB/s: superior TOPS/W and TOPS/mm², but
/// the small on-wafer capacity forces weights and KV off chip (§6.9,
/// Fig. 21).
pub fn hbm_cim_system(
    name: &str,
    tops_per_watt: f64,
    tops_per_mm2: f64,
    wafer_capacity_bytes: f64,
) -> RooflineSystem {
    // Tile the macro over the same core silicon area as Ouroboros.
    let core_area_mm2 = 13_923.0 * 2.97;
    let peak_ops = tops_per_mm2 * 1e12 * core_area_mm2;
    RooflineSystem::new(RooflineConfig {
        name: name.to_string(),
        peak_flops: peak_ops,
        compute_efficiency: 0.3,
        mem_bandwidth: 1.6e12,
        mem_capacity: wafer_capacity_bytes as u64,
        interconnect_bandwidth: 10.0e12,
        chips: 1,
        precision_bytes: 1,
        max_batch: 128,
        pim_attention: false,
        weights_on_chip: false,
        energy_per_flop: 1.0 / (tops_per_watt * 1e12),
        energy_per_offchip_byte: 15.0e-12,
        energy_per_onchip_byte: 0.8e-12,
        energy_per_link_byte: 2.0e-12,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use ouro_workload::{LengthConfig, TraceGenerator};

    #[test]
    fn baseline_names_are_stable() {
        assert_eq!(dgx_a100(8).config.name, "DGX A100");
        assert_eq!(dgx_a100(2).config.name, "2x A100");
        assert_eq!(tpu_v4().config.name, "TPUv4");
        assert_eq!(attacc().config.name, "AttAcc");
        assert_eq!(cerebras_wse2().config.name, "Cerebras");
    }

    #[test]
    fn attacc_has_pim_attention_and_big_memory() {
        let a = attacc();
        assert!(a.config.pim_attention);
        assert_eq!(a.config.mem_capacity, 320_000_000_000);
    }

    #[test]
    fn cerebras_keeps_weights_on_chip() {
        assert!(cerebras_wse2().config.weights_on_chip);
        assert!(!dgx_a100(8).config.weights_on_chip);
    }

    #[test]
    fn all_baselines_produce_finite_reports() {
        let trace = TraceGenerator::new(0).generate(&LengthConfig::fixed(256, 256), 16);
        let model = zoo::baichuan_13b();
        for sys in [
            dgx_a100(8),
            tpu_v4(),
            attacc(),
            cerebras_wse2(),
            hbm_cim_system("ISSCC'22", 44.41, 30.55, 11.32e9),
        ] {
            let r = sys.evaluate(&model, &trace, "t");
            assert!(r.throughput_tokens_per_s.is_finite() && r.throughput_tokens_per_s > 0.0, "{}", r.system);
            assert!(r.energy_per_token_j().is_finite() && r.energy_per_token_j() > 0.0, "{}", r.system);
        }
    }

    #[test]
    fn gpu_count_clamped_to_dgx_size() {
        assert_eq!(dgx_a100(0).config.chips, 1);
        assert_eq!(dgx_a100(100).config.chips, 8);
    }
}
