//! Sampled per-wafer telemetry: gauges and monotonic counters on a fixed
//! simulated-time cadence.
//!
//! Tracing answers "what happened to request N"; telemetry answers "what
//! did the cluster look like at time T". A [`TelemetryRecorder`] is armed
//! with a cadence; the scenario driver polls it as simulated time
//! advances and, at each cadence point, records one [`TelemetrySample`]
//! per wafer — instantaneous gauges ([`WaferGauges`]: batch occupancy, KV
//! blocks live/shared, queue depth, link bytes in flight) plus the
//! cluster-wide monotonic [`Counters`] as of that instant. The result is
//! a flat JSON time series carrying its own `schema_version`.

use crate::json::JsonObject;

/// Version of the flat JSON schema emitted by
/// [`TelemetrySample::json_object`]. Bumped on any breaking key change.
pub const TELEMETRY_SCHEMA_VERSION: u32 = 1;

/// Telemetry tuning: how often (in simulated seconds) samples are taken.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Simulated seconds between samples.
    pub cadence_s: f64,
}

impl TelemetryConfig {
    /// A recorder cadence.
    ///
    /// # Panics
    ///
    /// Panics unless `cadence_s` is finite and positive.
    pub fn every(cadence_s: f64) -> TelemetryConfig {
        assert!(
            cadence_s.is_finite() && cadence_s > 0.0,
            "telemetry cadence must be finite and positive, got {cadence_s}"
        );
        TelemetryConfig { cadence_s }
    }
}

/// Instantaneous per-wafer gauges at one sample instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WaferGauges {
    /// Sequences resident in the batch (continuous-batching occupancy).
    pub batch_occupancy: usize,
    /// Requests waiting for admission.
    pub queue_depth: usize,
    /// KV tokens resident in the cache.
    pub kv_used_tokens: usize,
    /// KV token capacity of the cache.
    pub kv_capacity_tokens: usize,
    /// Logical KV blocks currently allocated.
    pub kv_blocks_live: u64,
    /// Of the live blocks, those held by shared prefix chains.
    pub kv_blocks_shared: u64,
    /// Bytes of announced-but-unlanded KV migrations targeting this wafer.
    pub link_bytes_in_flight: u64,
}

/// Cluster-wide monotonic counters as of one sample instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Requests completed so far.
    pub completions: u64,
    /// KV migrations started so far.
    pub migrations: u64,
    /// Runtime faults fired so far.
    pub faults: u64,
    /// Engine iterations executed so far.
    pub steps: u64,
}

/// One `(instant, wafer)` row of the telemetry time series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetrySample {
    /// The sample instant (a cadence point).
    pub t_s: f64,
    /// Global wafer index.
    pub wafer: usize,
    /// Instantaneous gauges of the wafer.
    pub gauges: WaferGauges,
    /// Cluster-wide monotonic counters at the instant.
    pub counters: Counters,
}

impl TelemetrySample {
    /// Flattens the sample into one stable JSON row.
    pub fn json_object(&self) -> JsonObject {
        let g = &self.gauges;
        let c = &self.counters;
        JsonObject::new()
            .int("schema_version", TELEMETRY_SCHEMA_VERSION as u64)
            .num("t_s", self.t_s)
            .int("wafer", self.wafer as u64)
            .int("batch_occupancy", g.batch_occupancy as u64)
            .int("queue_depth", g.queue_depth as u64)
            .int("kv_used_tokens", g.kv_used_tokens as u64)
            .int("kv_capacity_tokens", g.kv_capacity_tokens as u64)
            .int("kv_blocks_live", g.kv_blocks_live)
            .int("kv_blocks_shared", g.kv_blocks_shared)
            .int("link_bytes_in_flight", g.link_bytes_in_flight)
            .int("completions", c.completions)
            .int("migrations", c.migrations)
            .int("faults", c.faults)
            .int("steps", c.steps)
    }
}

/// Collects [`TelemetrySample`]s on a fixed simulated-time cadence.
///
/// The driver owns the polling: call [`TelemetryRecorder::due`] with the
/// current simulated instant, record one sample per wafer at
/// [`TelemetryRecorder::sample_time`], then [`TelemetryRecorder::advance`]
/// — repeating while due, so a large time jump emits every intermediate
/// cadence point instead of skipping them.
#[derive(Debug, Clone)]
pub struct TelemetryRecorder {
    config: TelemetryConfig,
    next_sample_s: f64,
    samples: Vec<TelemetrySample>,
}

impl TelemetryRecorder {
    /// A recorder whose first sample lands one cadence after time zero.
    pub fn new(config: TelemetryConfig) -> TelemetryRecorder {
        TelemetryRecorder { config, next_sample_s: config.cadence_s, samples: Vec::new() }
    }

    /// The configured cadence.
    pub fn config(&self) -> TelemetryConfig {
        self.config
    }

    /// Whether a cadence point is due at or before `now_s`.
    pub fn due(&self, now_s: f64) -> bool {
        now_s >= self.next_sample_s
    }

    /// The pending cadence point.
    pub fn sample_time(&self) -> f64 {
        self.next_sample_s
    }

    /// Appends one sample (stamped by the caller, normally at
    /// [`TelemetryRecorder::sample_time`]).
    pub fn record(&mut self, sample: TelemetrySample) {
        self.samples.push(sample);
    }

    /// Moves to the next cadence point.
    pub fn advance(&mut self) {
        self.next_sample_s += self.config.cadence_s;
    }

    /// Whether the run's final instant `now_s` sits strictly inside the
    /// pending cadence window — i.e. the tail of the run would be
    /// silently dropped unless the caller records one last off-grid
    /// sample stamped at `now_s`. False when the run ends exactly on an
    /// already-drained cadence point (or never advanced past zero), so a
    /// grid-aligned end instant never duplicates its last sample.
    pub fn tail_due(&self, now_s: f64) -> bool {
        now_s > 0.0 && now_s > self.next_sample_s - self.config.cadence_s
    }

    /// The samples recorded so far, in `(time, wafer)` order.
    pub fn samples(&self) -> &[TelemetrySample] {
        &self.samples
    }

    /// The time series as flat JSON rows.
    pub fn json_rows(&self) -> Vec<JsonObject> {
        self.samples.iter().map(TelemetrySample::json_object).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_points_are_regular_and_catch_up_after_jumps() {
        let mut r = TelemetryRecorder::new(TelemetryConfig::every(0.5));
        assert!(!r.due(0.4));
        assert!(r.due(0.5));
        // A jump from 0 to 1.7 owes three cadence points.
        let mut points = Vec::new();
        while r.due(1.7) {
            points.push(r.sample_time());
            r.advance();
        }
        assert_eq!(points, vec![0.5, 1.0, 1.5]);
    }

    #[test]
    fn the_final_partial_window_is_owed_a_tail_sample() {
        let mut r = TelemetryRecorder::new(TelemetryConfig::every(0.5));
        // A run ending at 0 sampled nothing and owes nothing; one ending
        // mid-window owes a tail even before the first grid point.
        assert!(!r.tail_due(0.0));
        assert!(r.tail_due(0.3));
        // Drain the grid up to 1.7: points 0.5/1.0/1.5 recorded, next is
        // 2.0. A run ending exactly on the drained point 1.5 owes no
        // tail; one ending at 1.7 owes the partial window (1.5, 1.7].
        while r.due(1.7) {
            r.advance();
        }
        assert!(!r.tail_due(1.5));
        assert!(r.tail_due(1.7));
    }

    #[test]
    fn sample_rows_carry_their_own_schema_version() {
        let s = TelemetrySample {
            t_s: 1.0,
            wafer: 2,
            gauges: WaferGauges { batch_occupancy: 3, kv_blocks_live: 7, ..WaferGauges::default() },
            counters: Counters { completions: 5, ..Counters::default() },
        };
        let row = s.json_object().render();
        assert!(row.contains(&format!("\"schema_version\": {TELEMETRY_SCHEMA_VERSION}")));
        assert!(row.contains("\"batch_occupancy\": 3"));
        assert!(row.contains("\"kv_blocks_live\": 7"));
        assert!(row.contains("\"completions\": 5"));
    }

    #[test]
    #[should_panic(expected = "cadence must be finite and positive")]
    fn zero_cadence_is_rejected() {
        let _ = TelemetryConfig::every(0.0);
    }
}
