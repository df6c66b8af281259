//! SLO metrics: per-request latency records, percentile summaries, and
//! goodput under a latency SLO.
//!
//! Serving systems are judged on *tail* latency against arrival time, not on
//! batch makespan: TTFT (time to first token), TPOT (time per output token
//! after the first), and E2E (arrival to last token). Goodput counts only the
//! requests whose TTFT and TPOT both meet the SLO — the standard lens for
//! throughput-vs-latency curves.

/// Lifecycle of one request as observed by the serving engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Request id (trace index).
    pub id: usize,
    /// Prompt length in tokens.
    pub prompt_len: usize,
    /// Decode length in tokens.
    pub decode_len: usize,
    /// Arrival time (seconds since experiment start).
    pub arrival_s: f64,
    /// **First** admission into the KV cache (NaN if never admitted).
    /// Deliberately not updated on re-admission after an eviction: the
    /// first-admission stamp keeps `admitted_s − arrival_s` meaning "time
    /// to first service". Queueing delay accumulated *after* an eviction is
    /// accounted separately in `queue_wait_s`, so post-eviction waits are
    /// never misattributed to service time.
    pub admitted_s: f64,
    /// Total time spent admissible-but-waiting in the engine queue, summed
    /// over every admission (the initial wait plus each post-eviction
    /// re-admission wait). Migration transit of imported KV is excluded —
    /// a request only waits once its KV has landed.
    pub queue_wait_s: f64,
    /// Emission time of the first decode token (NaN if none emitted).
    pub first_token_s: f64,
    /// Completion time of the last decode token (NaN if unfinished at the
    /// horizon).
    pub completed_s: f64,
    /// Times this request was evicted and had its KV recomputed.
    pub evictions: u32,
    /// Prompt tokens served from the shared-prefix KV cache at the most
    /// recent admission (their prefill was skipped).
    pub cached_prefix_tokens: usize,
    /// The request's shared-prefix tag, carried through the lifecycle so
    /// re-admissions, routing, and cross-wafer migration stay prefix-aware.
    pub shared_prefix: Option<ouro_workload::SharedPrefix>,
}

impl RequestRecord {
    /// Time to first token, if one was emitted.
    pub fn ttft_s(&self) -> Option<f64> {
        finite(self.first_token_s - self.arrival_s)
    }

    /// Mean time per output token after the first, if the request completed.
    /// Requests with a single output token report a TPOT of zero.
    pub fn tpot_s(&self) -> Option<f64> {
        if !self.completed_s.is_finite() || !self.first_token_s.is_finite() {
            return None;
        }
        if self.decode_len <= 1 {
            return Some(0.0);
        }
        finite((self.completed_s - self.first_token_s) / (self.decode_len - 1) as f64)
    }

    /// End-to-end latency, if the request completed.
    pub fn e2e_s(&self) -> Option<f64> {
        finite(self.completed_s - self.arrival_s)
    }

    /// Whether the request finished before the horizon.
    pub fn completed(&self) -> bool {
        self.completed_s.is_finite()
    }

    /// Whether a completed request met both sides of the SLO.
    pub fn meets_slo(&self, slo: &SloConfig) -> bool {
        match (self.ttft_s(), self.tpot_s()) {
            (Some(ttft), Some(tpot)) => ttft <= slo.ttft_s && tpot <= slo.tpot_s,
            _ => false,
        }
    }
}

fn finite(x: f64) -> Option<f64> {
    x.is_finite().then_some(x)
}

/// A latency service-level objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Maximum acceptable time to first token.
    pub ttft_s: f64,
    /// Maximum acceptable time per output token.
    pub tpot_s: f64,
}

impl SloConfig {
    /// An SLO scaled from the hardware's unloaded latencies: `slack`× the
    /// ideal TTFT and TPOT. `slack` of 5–10 is typical for interactive
    /// serving.
    pub fn with_slack(ideal_ttft_s: f64, ideal_tpot_s: f64, slack: f64) -> SloConfig {
        SloConfig { ttft_s: ideal_ttft_s * slack, tpot_s: ideal_tpot_s * slack }
    }
}

/// p50/p95/p99 summary of one latency dimension.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Number of samples summarised.
    pub count: usize,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// Median.
    pub p50_s: f64,
    /// 95th percentile.
    pub p95_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// Maximum.
    pub max_s: f64,
}

impl LatencyStats {
    /// Summarises a set of samples by the nearest-rank rule of
    /// [`ouro_trace::PhaseStats::from_samples`]. Total on every input: an
    /// empty vector yields the all-zero summary, and non-finite samples
    /// (NaN/±inf, which a partial-comparison sort would panic on) are
    /// dropped before summarising, so the result is always NaN-free.
    pub fn from_samples(samples: Vec<f64>) -> LatencyStats {
        let s = ouro_trace::PhaseStats::from_samples(samples);
        LatencyStats {
            count: s.count,
            mean_s: s.mean_s,
            p50_s: s.p50_s,
            p95_s: s.p95_s,
            p99_s: s.p99_s,
            max_s: s.max_s,
        }
    }
}

/// Aggregate outcome of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// Offered load in requests per second (`None` for closed loop).
    pub offered_rps: Option<f64>,
    /// Requests injected into the cluster.
    pub injected: usize,
    /// Requests completed before the horizon.
    pub completed: usize,
    /// Requests still queued (never admitted) at the horizon.
    pub queued_at_horizon: usize,
    /// Requests admitted but unfinished at the horizon.
    pub in_flight_at_horizon: usize,
    /// Requests dropped because their prompt alone exceeds the cache.
    pub dropped: usize,
    /// Total evictions across the run.
    pub evictions: u64,
    /// Tokens actually charged as prefill/recompute work across the run.
    pub prefilled_tokens: u64,
    /// Prompt tokens served from the shared-prefix KV cache (prefill
    /// skipped) across the run.
    pub cached_prefix_tokens: u64,
    /// Wall-clock span of the run (first arrival to last event).
    pub duration_s: f64,
    /// Completed requests per second.
    pub achieved_rps: f64,
    /// Output tokens per second across completed requests.
    pub output_tokens_per_s: f64,
    /// Completed requests per second that met the SLO.
    pub goodput_rps: f64,
    /// Fraction of *injected* requests that completed within the SLO.
    pub slo_attainment: f64,
    /// Time to first token distribution over requests that emitted one.
    pub ttft: LatencyStats,
    /// Time per output token distribution over completed requests.
    pub tpot: LatencyStats,
    /// End-to-end latency distribution over completed requests.
    pub e2e: LatencyStats,
    /// Mean fraction of wafer-time spent with at least one token in flight.
    pub utilization: f64,
}

/// Cluster-level counters that accompany the per-request records when
/// assembling a [`ServingReport`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunTotals {
    /// Requests still queued (never admitted) at the horizon.
    pub queued_at_horizon: usize,
    /// Requests admitted but unfinished at the horizon.
    pub in_flight_at_horizon: usize,
    /// Requests dropped because their prompt alone exceeds the cache.
    pub dropped: usize,
    /// Total evictions across the run.
    pub evictions: u64,
    /// Tokens actually charged as prefill/recompute work across the run.
    pub prefilled_tokens: u64,
    /// Prompt tokens served from the shared-prefix KV cache across the run.
    pub cached_prefix_tokens: u64,
    /// Wall-clock span of the run.
    pub duration_s: f64,
    /// Mean fraction of wafer-time spent with at least one token in flight.
    pub utilization: f64,
}

impl ServingReport {
    /// Builds the report from raw records plus engine-level counters.
    pub fn from_records(
        records: &[RequestRecord],
        slo: &SloConfig,
        offered_rps: Option<f64>,
        totals: RunTotals,
    ) -> ServingReport {
        let injected = records.len();
        let completed: Vec<&RequestRecord> = records.iter().filter(|r| r.completed()).collect();
        let met = completed.iter().filter(|r| r.meets_slo(slo)).count();
        let out_tokens: u64 = completed.iter().map(|r| r.decode_len as u64).sum();
        let span = totals.duration_s.max(1e-12);
        ServingReport {
            offered_rps,
            injected,
            completed: completed.len(),
            queued_at_horizon: totals.queued_at_horizon,
            in_flight_at_horizon: totals.in_flight_at_horizon,
            dropped: totals.dropped,
            evictions: totals.evictions,
            prefilled_tokens: totals.prefilled_tokens,
            cached_prefix_tokens: totals.cached_prefix_tokens,
            duration_s: totals.duration_s,
            achieved_rps: completed.len() as f64 / span,
            output_tokens_per_s: out_tokens as f64 / span,
            goodput_rps: met as f64 / span,
            slo_attainment: if injected == 0 { 0.0 } else { met as f64 / injected as f64 },
            ttft: LatencyStats::from_samples(records.iter().filter_map(RequestRecord::ttft_s).collect()),
            tpot: LatencyStats::from_samples(records.iter().filter_map(RequestRecord::tpot_s).collect()),
            e2e: LatencyStats::from_samples(records.iter().filter_map(RequestRecord::e2e_s).collect()),
            utilization: totals.utilization,
        }
    }

    /// Conservation check: every injected request is accounted for exactly
    /// once as completed, queued, in flight, or dropped.
    pub fn is_conserved(&self) -> bool {
        self.injected == self.completed + self.queued_at_horizon + self.in_flight_at_horizon + self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(arrival: f64, first: f64, done: f64, decode: usize) -> RequestRecord {
        RequestRecord {
            id: 0,
            prompt_len: 32,
            decode_len: decode,
            arrival_s: arrival,
            admitted_s: arrival,
            queue_wait_s: 0.0,
            first_token_s: first,
            completed_s: done,
            evictions: 0,
            cached_prefix_tokens: 0,
            shared_prefix: None,
        }
    }

    #[test]
    fn latency_derivations() {
        let r = record(1.0, 1.5, 2.5, 11);
        assert!((r.ttft_s().unwrap() - 0.5).abs() < 1e-12);
        assert!((r.tpot_s().unwrap() - 0.1).abs() < 1e-12);
        assert!((r.e2e_s().unwrap() - 1.5).abs() < 1e-12);
        assert!(r.completed());
    }

    #[test]
    fn unfinished_requests_have_no_latencies() {
        let r = record(1.0, f64::NAN, f64::NAN, 10);
        assert_eq!(r.ttft_s(), None);
        assert_eq!(r.tpot_s(), None);
        assert_eq!(r.e2e_s(), None);
        assert!(!r.completed());
        assert!(!r.meets_slo(&SloConfig { ttft_s: 1e9, tpot_s: 1e9 }));
    }

    #[test]
    fn single_token_requests_have_zero_tpot() {
        let r = record(0.0, 0.5, 0.5, 1);
        assert_eq!(r.tpot_s(), Some(0.0));
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = LatencyStats::from_samples(samples);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50_s, 50.0);
        assert_eq!(s.p95_s, 95.0);
        assert_eq!(s.p99_s, 99.0);
        assert_eq!(s.max_s, 100.0);
        assert!((s.mean_s - 50.5).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = LatencyStats::from_samples(vec![]);
        assert_eq!(s, LatencyStats::default());
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_s, 0.0);
        assert!(!s.mean_s.is_nan() && !s.max_s.is_nan(), "the empty summary is NaN-free");
    }

    #[test]
    fn non_finite_samples_are_dropped_not_panicked_on() {
        let s = LatencyStats::from_samples(vec![f64::NAN, 1.0, f64::INFINITY, 3.0, f64::NEG_INFINITY]);
        assert_eq!(s.count, 2);
        assert_eq!(s.p50_s, 1.0);
        assert_eq!(s.max_s, 3.0);
        assert!((s.mean_s - 2.0).abs() < 1e-12);
        // All-NaN input degrades to the empty summary.
        assert_eq!(LatencyStats::from_samples(vec![f64::NAN, f64::NAN]), LatencyStats::default());
    }

    #[test]
    fn single_sample_summaries_return_the_sample_at_every_percentile() {
        let s = LatencyStats::from_samples(vec![4.2]);
        assert_eq!(s.count, 1);
        assert_eq!((s.p50_s, s.p95_s, s.p99_s, s.max_s), (4.2, 4.2, 4.2, 4.2));
        assert_eq!(s.mean_s, 4.2);
    }

    #[test]
    fn two_sample_nearest_rank_splits_at_the_median() {
        let s = LatencyStats::from_samples(vec![10.0, 2.0]);
        assert_eq!(s.count, 2);
        assert_eq!(s.p50_s, 2.0, "nearest-rank p50 of two samples is the lower one");
        assert_eq!(s.p95_s, 10.0);
        assert_eq!(s.p99_s, 10.0);
        assert_eq!(s.max_s, 10.0);
    }

    #[test]
    fn slo_splits_good_from_bad() {
        let slo = SloConfig { ttft_s: 1.0, tpot_s: 0.05 };
        let good = record(0.0, 0.5, 1.0, 11); // ttft 0.5, tpot 0.05
        let slow_first = record(0.0, 2.0, 2.5, 11); // ttft 2.0
        let slow_decode = record(0.0, 0.5, 3.0, 11); // tpot 0.25
        assert!(good.meets_slo(&slo));
        assert!(!slow_first.meets_slo(&slo));
        assert!(!slow_decode.meets_slo(&slo));
    }

    #[test]
    fn report_aggregates_and_conserves() {
        let slo = SloConfig { ttft_s: 1.0, tpot_s: 0.05 };
        let records =
            vec![record(0.0, 0.5, 1.0, 11), record(0.0, 2.0, 2.5, 11), record(0.5, f64::NAN, f64::NAN, 10)];
        let totals = RunTotals {
            queued_at_horizon: 0,
            in_flight_at_horizon: 1,
            dropped: 0,
            evictions: 3,
            prefilled_tokens: 96,
            cached_prefix_tokens: 0,
            duration_s: 2.5,
            utilization: 0.8,
        };
        let r = ServingReport::from_records(&records, &slo, Some(2.0), totals);
        assert_eq!(r.injected, 3);
        assert_eq!(r.completed, 2);
        assert_eq!(r.in_flight_at_horizon, 1);
        assert!(r.is_conserved());
        assert!((r.achieved_rps - 2.0 / 2.5).abs() < 1e-12);
        assert!((r.goodput_rps - 1.0 / 2.5).abs() < 1e-12);
        assert!((r.slo_attainment - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.ttft.count, 2);
        assert_eq!(r.evictions, 3);
    }

    #[test]
    fn slo_with_slack_scales_both_axes() {
        let slo = SloConfig::with_slack(0.01, 0.001, 5.0);
        assert!((slo.ttft_s - 0.05).abs() < 1e-12);
        assert!((slo.tpot_s - 0.005).abs() < 1e-12);
    }
}
