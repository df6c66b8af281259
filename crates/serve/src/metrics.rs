//! SLO metrics: per-request latency records, percentile summaries, and
//! goodput under a latency SLO.
//!
//! Serving systems are judged on *tail* latency against arrival time, not on
//! batch makespan: TTFT (time to first token), TPOT (time per output token
//! after the first), and E2E (arrival to last token). Goodput counts only the
//! requests whose TTFT and TPOT both meet the SLO — the standard lens for
//! throughput-vs-latency curves.

/// One request an engine finished: what the latency report reads of it.
///
/// An engine pushes a record when it retires a request, so a record is a
/// finished request. The lifecycle in between (admissions, evictions,
/// cached-prefix hits, queueing) is in the trace's events, stamped when it
/// happens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestRecord {
    /// Arrival time (seconds since experiment start).
    pub(crate) arrival_s: f64,
    /// Emission time of the first decode token (NaN for a request with no
    /// decode tokens).
    pub(crate) first_token_s: f64,
    /// Completion time of the last decode token.
    pub(crate) completed_s: f64,
    /// Decode length in tokens.
    pub decode_len: usize,
}

impl RequestRecord {
    /// Time to first token, if one was emitted.
    pub(crate) fn ttft_s(&self) -> Option<f64> {
        finite(self.first_token_s - self.arrival_s)
    }

    /// Mean time per output token after the first, if the request completed.
    /// Requests with a single output token report a TPOT of zero.
    pub(crate) fn tpot_s(&self) -> Option<f64> {
        if !self.completed_s.is_finite() || !self.first_token_s.is_finite() {
            return None;
        }
        if self.decode_len <= 1 {
            return Some(0.0);
        }
        finite((self.completed_s - self.first_token_s) / (self.decode_len - 1) as f64)
    }

    /// End-to-end latency, if the request completed.
    pub(crate) fn e2e_s(&self) -> Option<f64> {
        finite(self.completed_s - self.arrival_s)
    }

    /// Whether the request finished.
    pub fn completed(&self) -> bool {
        self.completed_s.is_finite()
    }

    /// Whether a completed request met both sides of the SLO.
    pub(crate) fn meets_slo(&self, slo: &SloConfig) -> bool {
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
    /// Offered load in requests per second of the arrival process.
    pub offered_rps: Option<f64>,
    /// Requests injected into the cluster.
    pub injected: usize,
    /// Requests completed.
    pub completed: usize,
    /// Requests still queued (never admitted) when `finish` runs before
    /// the run drains.
    pub(crate) queued_at_horizon: usize,
    /// Requests admitted but unfinished when `finish` runs before the run
    /// drains.
    pub(crate) in_flight_at_horizon: usize,
    /// Requests dropped because their prompt alone exceeds the cache.
    pub dropped: usize,
    /// Total evictions across the run.
    pub evictions: u64,
    /// Tokens actually charged as prefill/recompute work across the run.
    pub prefilled_tokens: u64,
    /// Prompt tokens served from the shared-prefix KV cache (prefill
    /// skipped) across the run.
    pub cached_prefix_tokens: u64,
    /// Simulated span of the run: from 0 to its end instant, the later of
    /// the last engine event and the last routed arrival.
    pub duration_s: f64,
    /// Completed requests per second.
    pub achieved_rps: f64,
    /// Output tokens per second across completed requests.
    pub output_tokens_per_s: f64,
    /// Completed requests per second that met the SLO.
    pub goodput_rps: f64,
    /// Fraction of *injected* requests that completed within the SLO.
    pub slo_attainment: f64,
    /// Time to first token distribution over completed requests that
    /// emitted one.
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
    /// Requests injected into the cluster.
    pub(crate) injected: usize,
    /// Requests still queued (never admitted) when `finish` runs before
    /// the run drains.
    pub(crate) queued_at_horizon: usize,
    /// Requests admitted but unfinished when `finish` runs before the run
    /// drains.
    pub(crate) in_flight_at_horizon: usize,
    /// Requests dropped because their prompt alone exceeds the cache.
    pub(crate) dropped: usize,
    /// Total evictions across the run.
    pub(crate) evictions: u64,
    /// Tokens actually charged as prefill/recompute work across the run.
    pub(crate) prefilled_tokens: u64,
    /// Prompt tokens served from the shared-prefix KV cache across the run.
    pub(crate) cached_prefix_tokens: u64,
    /// Wall-clock span of the run.
    pub(crate) duration_s: f64,
    /// Mean fraction of wafer-time spent with at least one token in flight.
    pub(crate) utilization: f64,
}

impl ServingReport {
    /// Builds the report from the finished requests' records plus
    /// cluster-level counters, in one pass over the records. Their order
    /// does not matter: the report counts them, sums integers and sorts
    /// every latency sample.
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = &'a RequestRecord>,
        slo: &SloConfig,
        offered_rps: Option<f64>,
        totals: RunTotals,
    ) -> ServingReport {
        let injected = totals.injected;
        let (mut completed, mut met, mut out_tokens) = (0, 0, 0u64);
        let (mut ttft, mut tpot, mut e2e) = (Vec::new(), Vec::new(), Vec::new());
        for r in records {
            if r.completed() {
                completed += 1;
                met += usize::from(r.meets_slo(slo));
                out_tokens += r.decode_len as u64;
            }
            ttft.extend(r.ttft_s());
            tpot.extend(r.tpot_s());
            e2e.extend(r.e2e_s());
        }
        let span = totals.duration_s.max(1e-12);
        ServingReport {
            offered_rps,
            injected,
            completed,
            queued_at_horizon: totals.queued_at_horizon,
            in_flight_at_horizon: totals.in_flight_at_horizon,
            dropped: totals.dropped,
            evictions: totals.evictions,
            prefilled_tokens: totals.prefilled_tokens,
            cached_prefix_tokens: totals.cached_prefix_tokens,
            duration_s: totals.duration_s,
            achieved_rps: completed as f64 / span,
            output_tokens_per_s: out_tokens as f64 / span,
            goodput_rps: met as f64 / span,
            slo_attainment: if injected == 0 { 0.0 } else { met as f64 / injected as f64 },
            ttft: LatencyStats::from_samples(ttft),
            tpot: LatencyStats::from_samples(tpot),
            e2e: LatencyStats::from_samples(e2e),
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
        RequestRecord { arrival_s: arrival, first_token_s: first, completed_s: done, decode_len: decode }
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
    fn a_record_is_four_words() {
        assert_eq!(std::mem::size_of::<RequestRecord>(), 32);
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
            injected: 3,
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
