//! Pipeline simulation results.

/// Result of running a trace through a pipeline model.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineReport {
    /// End-to-end time to drain the trace, in seconds.
    pub makespan_s: f64,
    /// Busy time accumulated by each of the six stage kinds, summed across
    /// all transformer blocks, in seconds.
    pub stage_busy_s: Vec<f64>,
    /// Total number of pipeline stages (6 × blocks).
    pub num_stages: usize,
    /// Number of work units that flowed through the pipeline (sequences for
    /// sequence-grained, tokens for token-grained).
    pub units: usize,
    /// Total tokens processed (prompt + decode across the trace).
    pub total_tokens: u64,
    /// Output (decode) tokens produced by the trace.
    pub output_tokens: u64,
}

impl PipelineReport {
    /// Fraction of stage-time slots spent idle (pipeline bubbles), averaged
    /// over all stages: `1 − busy / (stages × makespan)`.
    pub fn bubble_fraction(&self) -> f64 {
        if self.makespan_s <= 0.0 || self.num_stages == 0 {
            return 0.0;
        }
        let busy: f64 = self.stage_busy_s.iter().sum();
        (1.0 - busy / (self.num_stages as f64 * self.makespan_s)).clamp(0.0, 1.0)
    }

    /// Average utilisation of the pipeline stages (complement of the bubble
    /// fraction).
    pub fn utilization(&self) -> f64 {
        1.0 - self.bubble_fraction()
    }

    /// Throughput in *output* tokens per second (the paper's throughput
    /// metric).
    pub fn output_tokens_per_s(&self) -> f64 {
        if self.makespan_s <= 0.0 {
            return 0.0;
        }
        self.output_tokens as f64 / self.makespan_s
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
}
