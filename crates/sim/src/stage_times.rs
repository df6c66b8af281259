//! Hardware-derived per-stage token service times.
//!
//! [`HwStageTimes`] prices one token in each of the six pipeline stages on
//! the mapped hardware: crossbar GEMV latency for the weight stages (split
//! across the cores the mapper assigned to the layer), in-situ attention on
//! the KV cores, SFU time for softmax, plus the NoC time to move the stage's
//! output activation to the next stage at the mapping's average hop distance.

use crate::config::ModelConfig;
use crate::cost::{CommCost, Transfer};
use crate::link::InterWaferLink;
use crate::schedule::StageTimeModel;
use crate::stage::StageKind;
use ouro_hw::CimCore;

/// Per-stage service-time model derived from the hardware and the mapping.
#[derive(Debug, Clone)]
pub struct HwStageTimes {
    /// The model being served.
    pub model: ModelConfig,
    /// The CIM core every stage runs on.
    pub core: CimCore,
    /// Number of cores the mapper assigned to each weight-holding stage of
    /// one block (indexed by `StageKind::index`; attention/softmax entries
    /// are ignored).
    pub cores_per_stage: [usize; 6],
    /// Communication cost model of the wafer.
    pub comm: CommCost,
    /// Average hop distance between producer and consumer cores, from the
    /// mapping's communication summary.
    pub mean_hops: f64,
    /// Extra hop distance charged when crossing to another wafer (0 for a
    /// single-wafer deployment; the paper's multi-wafer study shows the
    /// per-token impact is negligible because only one boundary is crossed).
    pub inter_wafer_crossings_per_token: f64,
}

impl HwStageTimes {
    /// GEMV latency of a weight stage whose `out_dim` outputs are split over
    /// `cores` cores (each holding the full `in_dim` input slice).
    fn weight_gemv_s(&self, in_dim: usize, out_dim: usize, cores: usize) -> f64 {
        let per_core_out = out_dim.div_ceil(cores.max(1)).max(1);
        self.core.gemv_latency_s(in_dim.max(1), per_core_out)
    }

    /// Time for the stage's output activation to reach the next stage.
    fn comm_s(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let hops = self.mean_hops.ceil().max(1.0) as usize;
        let t =
            Transfer { bytes, intra_die_hops: hops, die_crossings: if self.mean_hops > 4.0 { 1 } else { 0 } };
        // Ganged multi-wafer deployments stream each token's activation
        // across the optical fabric once per pipeline pass; the charge comes
        // from the same link model that prices disaggregated KV migrations.
        let crossing = if self.inter_wafer_crossings_per_token > 0.0 {
            self.inter_wafer_crossings_per_token * self.inter_wafer_link().token_crossing_s(bytes)
        } else {
            0.0
        };
        self.comm.latency_s(&t) + crossing
    }

    /// The aggregated optical fabric between wafers, derived from this
    /// deployment's NoC parameters (shared with `ouro-serve`'s KV migration
    /// so colocated and disaggregated paths price inter-wafer bytes
    /// identically).
    pub fn inter_wafer_link(&self) -> InterWaferLink {
        InterWaferLink::from_noc(&self.comm.noc)
    }
}

impl StageTimeModel for HwStageTimes {
    fn token_time_s(&self, kind: StageKind, attended: usize) -> f64 {
        let m = &self.model;
        let d = m.hidden_dim;
        let qkv = m.heads * m.head_dim;
        let f = m.ffn_dim;
        let b = m.precision.bytes();
        let att = attended.max(1);
        match kind {
            StageKind::QkvGeneration => {
                let compute = self.weight_gemv_s(d, 3 * qkv, self.cores_per_stage[kind.index()]);
                let sfu = self.core.sfu_latency_s(4 * d as u64);
                compute + sfu + self.comm_s(3 * qkv as u64 * b / m.heads.max(1) as u64)
            }
            StageKind::Score => {
                // One head's Q·Kᵀ on its KV core; heads run in parallel on
                // distinct cores. The attended dimension is tiled over the
                // core's crossbars like any other output dimension.
                let compute = self.core.gemv_latency_s(m.head_dim, att);
                compute + self.comm_s(att as u64 * b)
            }
            StageKind::Softmax => self.core.sfu_latency_s(5 * att as u64) + self.comm_s(att as u64 * b),
            StageKind::ContextProjection => {
                // softmax(S)·V on the KV core, then the output projection on
                // the weight cores.
                let sv = self.core.gemv_latency_s(att.min(self.core.config.crossbar.rows), m.head_dim);
                let proj = self.weight_gemv_s(qkv, d, self.cores_per_stage[kind.index()]);
                sv + proj + self.comm_s(d as u64 * b)
            }
            StageKind::Ffn1 => {
                let compute = self.weight_gemv_s(d, f, self.cores_per_stage[kind.index()]);
                compute + self.core.sfu_latency_s((4 * d + f) as u64) + self.comm_s(f as u64 * b / 8)
            }
            StageKind::Ffn2 => {
                let compute = self.weight_gemv_s(f, d, self.cores_per_stage[kind.index()]);
                compute + self.core.sfu_latency_s(d as u64) + self.comm_s(d as u64 * b)
            }
        }
    }

    fn sequence_time_s(&self, kind: StageKind, len: usize, start_ctx: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        // Closed-form approximation: context-scaling stages are priced at the
        // midpoint context, everything else is constant per token.
        let ctx = if kind.scales_with_context() { start_ctx + len.div_ceil(2) } else { 1 };
        len as f64 * self.token_time_s(kind, ctx)
    }
}

impl HwStageTimes {
    /// Total pipeline latency of one token through all `6 × blocks` stages at
    /// the given context length.
    pub fn token_pipeline_latency_s(&self, attended: usize) -> f64 {
        self.step_pricing_s(attended).0
    }

    /// The slowest single-stage time at the given context length (the
    /// pipeline's steady-state token interval).
    pub fn bottleneck_stage_s(&self, attended: usize) -> f64 {
        self.step_pricing_s(attended).1
    }

    /// [`token_pipeline_latency_s`](Self::token_pipeline_latency_s) and
    /// [`bottleneck_stage_s`](Self::bottleneck_stage_s) from one evaluation
    /// of the six stage times: the `(latency, bottleneck)` pair a pipeline
    /// step is priced with.
    pub fn step_pricing_s(&self, attended: usize) -> (f64, f64) {
        let stages = StageKind::ALL.map(|k| self.token_time_s(k, attended));
        let per_block: f64 = stages.iter().sum();
        (per_block * self.model.blocks as f64, stages.iter().copied().fold(0.0f64, f64::max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use ouro_hw::CimCore;

    fn times() -> HwStageTimes {
        HwStageTimes {
            model: zoo::llama_13b(),
            core: CimCore::paper(),
            cores_per_stage: [20, 0, 0, 7, 27, 27],
            comm: CommCost::paper(),
            mean_hops: 3.0,
            inter_wafer_crossings_per_token: 0.0,
        }
    }

    #[test]
    fn all_stage_times_are_positive_and_finite() {
        let t = times();
        for kind in StageKind::ALL {
            let v = t.token_time_s(kind, 512);
            assert!(v.is_finite() && v > 0.0, "{kind}: {v}");
        }
    }

    #[test]
    fn attention_stages_grow_with_context() {
        let t = times();
        assert!(t.token_time_s(StageKind::Score, 2048) > t.token_time_s(StageKind::Score, 16));
        assert!(t.token_time_s(StageKind::Softmax, 2048) > t.token_time_s(StageKind::Softmax, 16));
        let ffn_a = t.token_time_s(StageKind::Ffn1, 2048);
        let ffn_b = t.token_time_s(StageKind::Ffn1, 16);
        assert!((ffn_a - ffn_b).abs() < 1e-15);
    }

    #[test]
    fn more_cores_make_weight_stages_faster() {
        let mut few = times();
        few.cores_per_stage = [2, 0, 0, 2, 2, 2];
        let many = times();
        assert!(
            many.token_time_s(StageKind::Ffn1, 64) < few.token_time_s(StageKind::Ffn1, 64),
            "27 cores should beat 2 cores"
        );
    }

    #[test]
    fn sequence_time_close_to_tokenwise_sum() {
        let t = times();
        let len = 64;
        let exact: f64 = (0..len).map(|i| t.token_time_s(StageKind::Score, i + 1)).sum();
        let approx = t.sequence_time_s(StageKind::Score, len, 0);
        let rel = (exact - approx).abs() / exact;
        assert!(rel < 0.25, "closed form off by {rel}");
        assert_eq!(t.sequence_time_s(StageKind::Ffn1, 0, 0), 0.0);
    }

    #[test]
    fn pipeline_latency_and_bottleneck_are_consistent() {
        let t = times();
        let latency = t.token_pipeline_latency_s(256);
        let bottleneck = t.bottleneck_stage_s(256);
        assert!(latency > bottleneck);
        assert!(latency >= bottleneck * t.model.blocks as f64);
    }

    #[test]
    fn inter_wafer_crossing_slows_every_stage_with_activations() {
        let single = times();
        let mut ganged = times();
        ganged.inter_wafer_crossings_per_token = 1.0;
        for kind in StageKind::ALL {
            assert!(
                ganged.token_time_s(kind, 256) > single.token_time_s(kind, 256),
                "{kind} must pay the optical crossing in a ganged deployment"
            );
        }
        // The charge equals the shared link model's single-port crossing.
        let link = single.inter_wafer_link();
        assert_eq!(link, crate::link::InterWaferLink::from_noc(&single.comm.noc));
        assert!(link.token_crossing_s(1) > 0.0);
    }

    #[test]
    fn tokens_per_second_is_in_a_plausible_range() {
        // The steady-state pipeline issues one token per bottleneck interval;
        // for LLaMA-13B on the paper hardware this should be at least
        // thousands of tokens/s and below a billion.
        let t = times();
        let rate = 1.0 / t.bottleneck_stage_s(1024);
        assert!(rate > 1e3 && rate < 1e9, "got {rate}");
    }
}
