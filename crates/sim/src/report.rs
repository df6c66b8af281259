//! Results: what a pipeline model reports for a trace, and the common
//! [`SystemReport`] every system model (the baselines and Ouroboros)
//! produces.

/// Result of running a trace through a pipeline model.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// End-to-end time to drain the trace, in seconds.
    pub(crate) makespan_s: f64,
    /// Busy time accumulated by each of the six stage kinds, summed across
    /// all transformer blocks, in seconds.
    pub(crate) stage_busy_s: Vec<f64>,
    /// Total number of pipeline stages (6 × blocks).
    pub(crate) num_stages: usize,
    /// Number of work units that flowed through the pipeline (sequences for
    /// sequence-grained, tokens for token-grained).
    pub(crate) units: usize,
    /// Total tokens processed (prompt + decode across the trace).
    pub(crate) total_tokens: u64,
    /// Output (decode) tokens produced by the trace.
    pub(crate) output_tokens: u64,
}

impl PipelineReport {
    /// Fraction of stage-time slots spent idle (pipeline bubbles), averaged
    /// over all stages: `1 − busy / (stages × makespan)`.
    #[cfg(test)]
    pub(crate) fn bubble_fraction(&self) -> f64 {
        if self.makespan_s <= 0.0 || self.num_stages == 0 {
            return 0.0;
        }
        let busy: f64 = self.stage_busy_s.iter().sum();
        (1.0 - busy / (self.num_stages as f64 * self.makespan_s)).clamp(0.0, 1.0)
    }

    /// Average utilisation of the pipeline stages (complement of the bubble
    /// fraction).
    #[cfg(test)]
    pub(crate) fn utilization(&self) -> f64 {
        1.0 - self.bubble_fraction()
    }

    /// Throughput in *output* tokens per second (the paper's throughput
    /// metric).
    #[cfg(test)]
    pub(crate) fn output_tokens_per_s(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.output_tokens as f64 / self.makespan_s
    }
}

/// Energy per *output token*, split into the four components the paper's
//  energy figures stack (Fig. 14, Fig. 20).
/// Energy breakdown per output token, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Arithmetic (MAC / tensor-core / SFU) energy.
    pub compute_j: f64,
    /// On-chip memory traffic (SRAM buffers, caches, register files).
    pub on_chip_j: f64,
    /// Off-chip memory traffic (HBM / DRAM).
    pub off_chip_j: f64,
    /// Inter-chip / on-wafer network traffic.
    pub communication_j: f64,
}

impl EnergyBreakdown {
    /// Total energy per output token.
    pub fn total_j(&self) -> f64 {
        self.compute_j + self.on_chip_j + self.off_chip_j + self.communication_j
    }

    /// Element-wise sum.
    #[cfg(test)]
    pub(crate) fn add(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            compute_j: self.compute_j + other.compute_j,
            on_chip_j: self.on_chip_j + other.on_chip_j,
            off_chip_j: self.off_chip_j + other.off_chip_j,
            communication_j: self.communication_j + other.communication_j,
        }
    }
}

/// End-to-end evaluation of one system on one model and trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Display name of the system ("DGX A100", "Ours", ...).
    pub system: String,
    /// Model evaluated.
    pub(crate) model: String,
    /// Workload label ("WikiText-2", "LP=128 LD=2048", ...).
    pub workload: String,
    /// Output-token throughput in tokens per second.
    pub throughput_tokens_per_s: f64,
    /// Energy per output token, with breakdown.
    pub energy_per_token: EnergyBreakdown,
    /// Total wall-clock time for the trace in seconds.
    pub(crate) total_time_s: f64,
    /// Output tokens produced by the trace.
    pub output_tokens: u64,
    /// Whether the model (weights + working set) fits the system's first
    /// tier of memory without streaming.
    pub(crate) fits_in_memory: bool,
}

impl SystemReport {
    /// Total energy per output token in joules.
    pub fn energy_per_token_j(&self) -> f64 {
        self.energy_per_token.total_j()
    }

    /// Total energy for the whole trace in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy_per_token_j() * self.output_tokens as f64
    }

    /// Speedup of this report over a reference report (same workload).
    pub fn speedup_over(&self, reference: &SystemReport) -> f64 {
        if reference.throughput_tokens_per_s <= 0.0 {
            return f64::INFINITY;
        }
        self.throughput_tokens_per_s / reference.throughput_tokens_per_s
    }

    /// Energy of this report relative to a reference (1.0 = equal, < 1.0 =
    /// this system uses less energy per token).
    pub fn energy_ratio_over(&self, reference: &SystemReport) -> f64 {
        let r = reference.energy_per_token_j();
        if r <= 0.0 {
            return f64::INFINITY;
        }
        self.energy_per_token_j() / r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(makespan: f64, busy: Vec<f64>, stages: usize) -> PipelineReport {
        PipelineReport {
            makespan_s: makespan,
            stage_busy_s: busy,
            num_stages: stages,
            units: 10,
            total_tokens: 100,
            output_tokens: 40,
        }
    }

    #[test]
    fn fully_busy_pipeline_has_no_bubbles() {
        let r = report(10.0, vec![10.0, 10.0, 10.0, 10.0], 4);
        assert!(r.bubble_fraction() < 1e-12);
        assert!((r.utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_idle_pipeline_has_half_bubbles() {
        let r = report(10.0, vec![5.0, 5.0], 2);
        assert!((r.bubble_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throughput_uses_output_tokens() {
        let r = report(4.0, vec![4.0], 1);
        assert!((r.output_tokens_per_s() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_report_is_safe() {
        let r = report(0.0, vec![], 0);
        assert_eq!(r.bubble_fraction(), 0.0);
        assert_eq!(r.output_tokens_per_s(), 0.0);
    }

    fn system_report(tp: f64, energy: f64) -> SystemReport {
        SystemReport {
            system: "test".into(),
            model: "m".into(),
            workload: "w".into(),
            throughput_tokens_per_s: tp,
            energy_per_token: EnergyBreakdown { compute_j: energy, ..Default::default() },
            total_time_s: 1.0,
            output_tokens: 100,
            fits_in_memory: true,
        }
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = EnergyBreakdown { compute_j: 1.0, on_chip_j: 2.0, off_chip_j: 3.0, communication_j: 4.0 };
        assert_eq!(b.total_j(), 10.0);
        assert_eq!(b.add(&b).total_j(), 20.0);
    }

    #[test]
    fn speedup_and_energy_ratio() {
        let ours = system_report(400.0, 0.5);
        let base = system_report(100.0, 2.0);
        assert!((ours.speedup_over(&base) - 4.0).abs() < 1e-12);
        assert!((ours.energy_ratio_over(&base) - 0.25).abs() < 1e-12);
        assert_eq!(ours.total_energy_j(), 50.0);
    }

    #[test]
    fn degenerate_reference_yields_infinity() {
        let ours = system_report(10.0, 1.0);
        let zero = system_report(0.0, 0.0);
        assert!(ours.speedup_over(&zero).is_infinite());
        assert!(ours.energy_ratio_over(&zero).is_infinite());
    }
}
