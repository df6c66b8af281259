//! Post-hoc latency attribution and utilization analysis over a merged
//! [`Trace`].
//!
//! Tracing records *what happened*; this module answers *where the time
//! went*. [`Analysis::from_run`] replays each request's event subsequence
//! through a cursor state machine that attributes every instant between
//! arrival and the terminal event to exactly one of a closed set of
//! phases ([`PHASE_NAMES`]): queue wait, prefill, KV transit (export /
//! link / import), migration stall (landed KV waiting for decode
//! admission), fault/remap stall, decode compute, and decode idle. The
//! phases are exclusive and exhaustive *by construction* — the cursor
//! telescopes from arrival to the terminal event, so per-request phase
//! sums equal E2E latency up to float addition order (a property test
//! pins this across every golden scenario shape).
//!
//! Decode windows are split after the fact: wafer-level `decode_step`
//! events mark compute intervals, `fault`/`remap` events mark stall
//! intervals (an engine's post-fault clock jump leaves a step-free gap
//! that ends at the fault event), and whatever remains is idle. Stalls
//! that strike *mid-prefill* stay inside the prefill phase — the event
//! payloads do not carry stall durations, and prefill is charged as one
//! interval.
//!
//! The same pass derives per-wafer utilization: busy time is the union
//! of resident prefill/decode spans from [`Trace::request_spans`], and
//! the sampled [`TelemetrySample`] series contributes occupancy / queue
//! / KV-pressure statistics when telemetry was armed. Everything is
//! strictly observational — the analysis reads a finished run's trace
//! and telemetry and never feeds back into any report.

use std::collections::BTreeMap;

use crate::chrome::Trace;
use crate::event::EventKind;
use crate::json::JsonObject;
use crate::telemetry::TelemetrySample;

/// Version of the flat JSON schema emitted by [`Analysis::json_rows`].
/// Bumped on any key or phase-taxonomy change.
pub const ANALYZE_SCHEMA_VERSION: u32 = 1;

/// Number of exclusive latency phases.
pub const PHASE_COUNT: usize = 7;

/// The closed phase taxonomy, in attribution-table order. Indices match
/// the `phases` arrays of [`RequestPhases`].
pub const PHASE_NAMES: [&str; PHASE_COUNT] =
    ["queue", "prefill", "kv_transit", "migration_stall", "fault_stall", "decode_compute", "decode_idle"];

const QUEUE: usize = 0;
const PREFILL: usize = 1;
const KV_TRANSIT: usize = 2;
const MIGRATION_STALL: usize = 3;
const FAULT_STALL: usize = 4;
const DECODE_COMPUTE: usize = 5;
const DECODE_IDLE: usize = 6;

/// Pinned key list of the `row: "summary"` JSON row.
pub const ANALYZE_SUMMARY_KEYS: &[&str] = &[
    "schema_version",
    "row",
    "requests",
    "completed",
    "dropped",
    "span_s",
    "e2e_p50_s",
    "e2e_p99_s",
    "ttft_p50_s",
    "ttft_p99_s",
];

/// Pinned key list of the `row: "phase"` JSON rows (one per phase).
pub const ANALYZE_PHASE_KEYS: &[&str] = &[
    "schema_version",
    "row",
    "phase",
    "count",
    "total_s",
    "share",
    "mean_s",
    "p50_s",
    "p95_s",
    "p99_s",
    "max_s",
];

/// Pinned key list of the `row: "wafer"` JSON rows (one per wafer).
pub const ANALYZE_WAFER_KEYS: &[&str] = &[
    "schema_version",
    "row",
    "wafer",
    "busy_s",
    "busy_fraction",
    "steps",
    "samples",
    "mean_occupancy",
    "peak_occupancy",
    "mean_queue_depth",
    "peak_kv_utilization",
];

/// Nearest-rank latency statistics of one phase (or one whole metric),
/// plus the phase's total (the quantity attribution shares are computed
/// from).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseStats {
    /// Number of samples summarised.
    pub count: usize,
    /// Sum of all samples.
    pub total_s: f64,
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

impl PhaseStats {
    /// Summarises a set of samples: total on every input, non-finite
    /// samples dropped, empty input yields the all-zero summary.
    pub fn from_samples(samples: Vec<f64>) -> PhaseStats {
        let mut samples: Vec<f64> = samples.into_iter().filter(|s| s.is_finite()).collect();
        if samples.is_empty() {
            return PhaseStats::default();
        }
        samples.sort_by(f64::total_cmp);
        let count = samples.len();
        let total_s = samples.iter().sum::<f64>();
        PhaseStats {
            count,
            total_s,
            mean_s: total_s / count as f64,
            p50_s: percentile_sorted(&samples, 50.0),
            p95_s: percentile_sorted(&samples, 95.0),
            p99_s: percentile_sorted(&samples, 99.0),
            max_s: samples[count - 1],
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice: the smallest
/// element with at least `pct` percent of the samples at or below it.
/// Total for every `pct` (clamped into `[0, 100]`) and every length —
/// `rank = ceil(pct/100 · N)` is clamped into `[1, N]`, so N = 1 returns
/// the lone sample for every percentile, N = 2 splits at p50, and p → 100
/// saturates at the maximum rather than indexing past the end.
fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pct = pct.clamp(0.0, 100.0);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One request's reconstructed latency decomposition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestPhases {
    /// Global request id.
    pub req: usize,
    /// Arrival instant (the first event of the request).
    pub(crate) arrival_s: f64,
    /// Terminal instant (`complete` or `drop`); `None` when the run
    /// stopped with the request mid-flight.
    pub(crate) terminal_s: Option<f64>,
    /// Whether the terminal event was `complete` (vs `drop`/truncation).
    pub(crate) completed: bool,
    /// First-token instant, when one was emitted.
    pub(crate) first_token_s: Option<f64>,
    /// Exclusive per-phase seconds over `[arrival, terminal]`, indexed by
    /// [`PHASE_NAMES`]. Sums to [`RequestPhases::e2e_s`] for completed
    /// requests (up to float addition order).
    pub phases: [f64; PHASE_COUNT],
    /// The same decomposition clipped to `[arrival, first_token]`; all
    /// zero when no first token was emitted.
    pub(crate) ttft_phases: [f64; PHASE_COUNT],
}

impl RequestPhases {
    /// End-to-end latency (`None` until a terminal event exists).
    pub fn e2e_s(&self) -> Option<f64> {
        self.terminal_s.map(|t| t - self.arrival_s)
    }

    /// Time to first token (`None` when no first token was emitted).
    pub fn ttft_s(&self) -> Option<f64> {
        self.first_token_s.map(|t| t - self.arrival_s)
    }

    /// Sum of the exclusive phases (equals E2E for completed requests).
    pub fn phase_sum_s(&self) -> f64 {
        self.phases.iter().sum()
    }

    /// Sum of the TTFT-clipped phases (equals TTFT when one exists).
    pub fn ttft_phase_sum_s(&self) -> f64 {
        self.ttft_phases.iter().sum()
    }
}

/// Per-wafer busy/idle and occupancy statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferUtilization {
    /// Global wafer index.
    pub wafer: usize,
    /// Seconds the wafer held at least one resident prefill/decode span.
    pub(crate) busy_s: f64,
    /// `busy_s` over the trace span (0 when the span is empty).
    pub busy_fraction: f64,
    /// `decode_step` iterations the wafer executed.
    pub steps: u64,
    /// Telemetry samples recorded for the wafer (0 when telemetry was
    /// not armed).
    pub samples: usize,
    /// Mean batch occupancy over the telemetry samples.
    pub(crate) mean_occupancy: f64,
    /// Peak batch occupancy over the telemetry samples.
    pub(crate) peak_occupancy: u64,
    /// Mean admission-queue depth over the telemetry samples.
    pub(crate) mean_queue_depth: f64,
    /// Peak KV-cache utilization (used/capacity) over the samples.
    pub(crate) peak_kv_utilization: f64,
}

/// The full post-hoc analysis of one run: per-request latency
/// decompositions plus per-wafer utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Per-request decompositions, in request-id order.
    pub requests: Vec<RequestPhases>,
    /// Per-wafer utilization, in wafer order.
    pub wafers: Vec<WaferUtilization>,
    /// First event instant of the trace.
    pub(crate) t0_s: f64,
    /// Simulated span of the trace (last event minus first).
    pub(crate) span_s: f64,
}

/// Internal cursor mode of the per-request walk. `Decode` windows are
/// split into compute/stall/idle after the walk, against the wafer's
/// step/fault markers.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Queue,
    Prefill,
    KvTransit,
    MigrationStall,
    FaultStall,
    Decode,
}

/// One attributed interval of a request's life.
#[derive(Clone, Copy)]
struct Segment {
    mode: Mode,
    wafer: usize,
    a: f64,
    b: f64,
}

/// Per-request walk state.
struct Walk {
    cursor: f64,
    mode: Mode,
    wafer: usize,
    arrival_s: f64,
    terminal_s: Option<f64>,
    completed: bool,
    first_token_s: Option<f64>,
    segments: Vec<Segment>,
}

impl Walk {
    fn new(t: f64) -> Walk {
        Walk {
            cursor: t,
            mode: Mode::Queue,
            wafer: 0,
            arrival_s: t,
            terminal_s: None,
            completed: false,
            first_token_s: None,
            segments: Vec::new(),
        }
    }

    /// Attributes `[cursor, t]` to the current mode and moves the cursor
    /// — the telescoping step that makes the phases exhaustive.
    fn attribute(&mut self, t: f64) {
        if t > self.cursor {
            self.segments.push(Segment { mode: self.mode, wafer: self.wafer, a: self.cursor, b: t });
        }
        self.cursor = t;
    }
}

/// A wafer-level decode marker: a step end (compute) or a fault/remap
/// event (the end of an engine stall).
#[derive(Clone, Copy)]
struct Marker {
    t_s: f64,
    is_step: bool,
}

/// Splits one decode window `(a, b]` against a wafer's sorted markers:
/// each marker claims the gap back to the previous marker (clamped to
/// the window) — steps as compute, fault/remap as stall — and whatever
/// trails the last marker is idle. The three parts sum to `b - a`
/// exactly, preserving the telescoping property.
fn split_decode(markers: &[Marker], a: f64, b: f64) -> (f64, f64, f64) {
    let (mut compute, mut stall) = (0.0, 0.0);
    let mut prev = a;
    let start = markers.partition_point(|m| m.t_s <= a);
    for m in &markers[start..] {
        if m.t_s > b {
            break;
        }
        let len = m.t_s - prev;
        if m.is_step {
            compute += len;
        } else {
            stall += len;
        }
        prev = m.t_s;
    }
    (compute, stall, b - prev)
}

impl Analysis {
    /// Analyses a finished run from its merged trace and (optionally
    /// empty) telemetry series.
    pub fn from_run(trace: &Trace, telemetry: &[TelemetrySample]) -> Analysis {
        let events = trace.events();
        let t0_s = events.first().map(|e| e.t_s).unwrap_or(0.0);
        let span_s = events.last().map(|e| e.t_s - t0_s).unwrap_or(0.0);

        // Wafer-level decode markers, already time-sorted by the merge.
        let mut markers: BTreeMap<usize, Vec<Marker>> = BTreeMap::new();
        for e in events {
            match e.kind {
                EventKind::DecodeStep { .. } => {
                    markers.entry(e.wafer).or_default().push(Marker { t_s: e.t_s, is_step: true })
                }
                EventKind::Fault { .. } | EventKind::Remap { .. } => {
                    markers.entry(e.wafer).or_default().push(Marker { t_s: e.t_s, is_step: false })
                }
                _ => {}
            }
        }

        // Per-request event subsequences. The merge breaks timestamp ties
        // by stream order (engines before the driver), so a driver event
        // that logically precedes a same-instant engine event — an
        // arrival routed and admitted at one instant, a migration landing
        // admitted the instant it arrives — can sort after it. Rank those
        // two driver kinds ahead at equal timestamps; all other ties keep
        // emission order.
        let mut per_req: BTreeMap<usize, Vec<(f64, usize, EventKind)>> = BTreeMap::new();
        for e in events {
            if let Some(req) = e.req {
                per_req.entry(req).or_default().push((e.t_s, e.wafer, e.kind));
            }
        }
        let rank = |kind: &EventKind| match kind {
            EventKind::Arrival { .. } => 0,
            EventKind::MigrateArrive { .. } => 1,
            _ => 2,
        };
        let mut requests = Vec::with_capacity(per_req.len());
        for (req, mut evs) in per_req {
            evs.sort_by(|a, b| a.0.total_cmp(&b.0).then(rank(&a.2).cmp(&rank(&b.2))));
            let mut w = Walk::new(evs[0].0);
            for (t, wafer, kind) in evs {
                match kind {
                    EventKind::Arrival { .. } => {
                        w.attribute(t);
                        w.mode = Mode::Queue;
                    }
                    EventKind::Admission { .. } => {
                        w.attribute(t);
                        w.mode = Mode::Decode;
                        w.wafer = wafer;
                    }
                    EventKind::PrefillStart { .. } => {
                        w.attribute(t);
                        w.mode = Mode::Prefill;
                        w.wafer = wafer;
                    }
                    EventKind::PrefillEnd => {
                        w.attribute(t);
                        w.mode = Mode::Decode;
                        w.wafer = wafer;
                    }
                    EventKind::KvExport { .. } | EventKind::MigrateStart { .. } => {
                        w.attribute(t);
                        w.mode = Mode::KvTransit;
                    }
                    EventKind::MigrateArrive { .. } => {
                        w.attribute(t);
                        w.mode = Mode::MigrationStall;
                        w.wafer = wafer;
                    }
                    EventKind::Evict { fault, .. } => {
                        w.attribute(t);
                        w.mode = if fault { Mode::FaultStall } else { Mode::Queue };
                    }
                    EventKind::Drop => {
                        w.attribute(t);
                        w.terminal_s = Some(t);
                    }
                    EventKind::Complete => {
                        w.attribute(t);
                        w.terminal_s = Some(t);
                        w.completed = true;
                    }
                    EventKind::FirstToken => w.first_token_s = Some(t),
                    // Interior markers: kv_import rides the admission
                    // instant; wafer-level kinds never carry a req id.
                    EventKind::KvImport { .. }
                    | EventKind::DecodeStep { .. }
                    | EventKind::Fault { .. }
                    | EventKind::Remap { .. } => {}
                }
            }
            let empty: Vec<Marker> = Vec::new();
            let mut phases = [0.0; PHASE_COUNT];
            let mut ttft_phases = [0.0; PHASE_COUNT];
            let ft = w.first_token_s;
            for seg in &w.segments {
                let wafer_markers = markers.get(&seg.wafer).unwrap_or(&empty);
                let add = |acc: &mut [f64; PHASE_COUNT], a: f64, b: f64| match seg.mode {
                    Mode::Queue => acc[QUEUE] += b - a,
                    Mode::Prefill => acc[PREFILL] += b - a,
                    Mode::KvTransit => acc[KV_TRANSIT] += b - a,
                    Mode::MigrationStall => acc[MIGRATION_STALL] += b - a,
                    Mode::FaultStall => acc[FAULT_STALL] += b - a,
                    Mode::Decode => {
                        let (compute, stall, idle) = split_decode(wafer_markers, a, b);
                        acc[DECODE_COMPUTE] += compute;
                        acc[FAULT_STALL] += stall;
                        acc[DECODE_IDLE] += idle;
                    }
                };
                add(&mut phases, seg.a, seg.b);
                if let Some(ft) = ft {
                    let b = seg.b.min(ft);
                    if b > seg.a {
                        add(&mut ttft_phases, seg.a, b);
                    }
                }
            }
            requests.push(RequestPhases {
                req,
                arrival_s: w.arrival_s,
                terminal_s: w.terminal_s,
                completed: w.completed,
                first_token_s: w.first_token_s,
                phases,
                ttft_phases,
            });
        }

        // Per-wafer busy time: union of resident prefill/decode spans.
        let mut busy: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
        for span in trace.request_spans() {
            if span.name != "queue" {
                busy.entry(span.wafer).or_default().push((span.start_s, span.end_s));
            }
        }
        let union = |mut iv: Vec<(f64, f64)>| -> f64 {
            iv.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut total = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        total += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                total += cb - ca;
            }
            total
        };

        let mut wafer_ids: Vec<usize> = events.iter().map(|e| e.wafer).collect();
        wafer_ids.extend(telemetry.iter().map(|s| s.wafer));
        wafer_ids.sort_unstable();
        wafer_ids.dedup();
        let wafers = wafer_ids
            .into_iter()
            .map(|wafer| {
                let busy_s = busy.remove(&wafer).map(union).unwrap_or(0.0);
                let steps =
                    markers.get(&wafer).map(|ms| ms.iter().filter(|m| m.is_step).count() as u64).unwrap_or(0);
                let rows: Vec<&TelemetrySample> = telemetry.iter().filter(|s| s.wafer == wafer).collect();
                let samples = rows.len();
                let mean = |f: &dyn Fn(&TelemetrySample) -> f64| {
                    if samples == 0 {
                        0.0
                    } else {
                        rows.iter().map(|s| f(s)).sum::<f64>() / samples as f64
                    }
                };
                WaferUtilization {
                    wafer,
                    busy_s,
                    busy_fraction: if span_s > 0.0 { busy_s / span_s } else { 0.0 },
                    steps,
                    samples,
                    mean_occupancy: mean(&|s| s.gauges.batch_occupancy as f64),
                    peak_occupancy: rows.iter().map(|s| s.gauges.batch_occupancy as u64).max().unwrap_or(0),
                    mean_queue_depth: mean(&|s| s.gauges.queue_depth as f64),
                    peak_kv_utilization: rows
                        .iter()
                        .map(|s| {
                            if s.gauges.kv_capacity_tokens > 0 {
                                s.gauges.kv_used_tokens as f64 / s.gauges.kv_capacity_tokens as f64
                            } else {
                                0.0
                            }
                        })
                        .fold(0.0, f64::max),
                }
            })
            .collect();

        Analysis { requests, wafers, t0_s, span_s }
    }

    /// The completed requests' decompositions.
    pub fn completed(&self) -> impl Iterator<Item = &RequestPhases> {
        self.requests.iter().filter(|r| r.completed)
    }

    /// Number of dropped requests.
    pub fn dropped(&self) -> usize {
        self.requests.iter().filter(|r| r.terminal_s.is_some() && !r.completed).count()
    }

    /// Per-phase statistics over the completed requests, indexed like
    /// [`PHASE_NAMES`].
    pub fn phase_stats(&self) -> [PhaseStats; PHASE_COUNT] {
        let mut out = [PhaseStats::default(); PHASE_COUNT];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = PhaseStats::from_samples(self.completed().map(|r| r.phases[i]).collect());
        }
        out
    }

    /// E2E latency statistics over the completed requests.
    pub(crate) fn e2e_stats(&self) -> PhaseStats {
        PhaseStats::from_samples(self.completed().filter_map(RequestPhases::e2e_s).collect())
    }

    /// TTFT statistics over the completed requests that emitted a first
    /// token.
    pub(crate) fn ttft_stats(&self) -> PhaseStats {
        PhaseStats::from_samples(self.completed().filter_map(RequestPhases::ttft_s).collect())
    }

    /// The completed request at the nearest-rank `pct` percentile of E2E
    /// latency — the concrete request "where the p99 goes" is read from.
    pub(crate) fn e2e_percentile_request(&self, pct: f64) -> Option<&RequestPhases> {
        self.percentile_request(pct, |r| r.e2e_s())
    }

    /// As [`Analysis::e2e_percentile_request`], for TTFT.
    pub(crate) fn ttft_percentile_request(&self, pct: f64) -> Option<&RequestPhases> {
        self.percentile_request(pct, |r| r.ttft_s())
    }

    fn percentile_request(
        &self,
        pct: f64,
        metric: impl Fn(&RequestPhases) -> Option<f64>,
    ) -> Option<&RequestPhases> {
        let mut with: Vec<(&RequestPhases, f64)> =
            self.completed().filter_map(|r| metric(r).map(|m| (r, m))).collect();
        if with.is_empty() {
            return None;
        }
        with.sort_by(|a, b| a.1.total_cmp(&b.1));
        let pct = pct.clamp(0.0, 100.0);
        let rank = ((pct / 100.0) * with.len() as f64).ceil() as usize;
        Some(with[rank.clamp(1, with.len()) - 1].0)
    }

    /// The attribution report as a text table: per-phase statistics over
    /// completed requests, the concrete p50/p99 requests' breakdowns for
    /// TTFT and E2E, and per-wafer utilization.
    pub fn report(&self) -> String {
        let completed = self.completed().count();
        let mut out = String::new();
        out.push_str(&format!(
            "analysis: {} requests ({} completed, {} dropped, {} unfinished), {:.6} s span \
             (analyze schema v{})\n",
            self.requests.len(),
            completed,
            self.dropped(),
            self.requests.len() - completed - self.dropped(),
            self.span_s,
            ANALYZE_SCHEMA_VERSION
        ));

        out.push_str("\nphase attribution over completed requests (exclusive, sums to E2E):\n");
        out.push_str(&format!(
            "  {:<16} {:>6} {:>10} {:>7} {:>10} {:>10} {:>10} {:>10}\n",
            "phase", "count", "total_s", "share", "mean_s", "p50_s", "p99_s", "max_s"
        ));
        let stats = self.phase_stats();
        let e2e_total: f64 = stats.iter().map(|s| s.total_s).sum();
        let row = |out: &mut String, name: &str, s: &PhaseStats, share: Option<f64>| {
            let share = match share {
                Some(v) => format!("{:>6.1}%", v * 100.0),
                None => format!("{:>7}", "-"),
            };
            out.push_str(&format!(
                "  {:<16} {:>6} {:>10.6} {share} {:>10.6} {:>10.6} {:>10.6} {:>10.6}\n",
                name, s.count, s.total_s, s.mean_s, s.p50_s, s.p99_s, s.max_s
            ));
        };
        for (name, s) in PHASE_NAMES.iter().zip(&stats) {
            let share = if e2e_total > 0.0 { s.total_s / e2e_total } else { 0.0 };
            row(&mut out, name, s, Some(share));
        }
        row(&mut out, "ttft (total)", &self.ttft_stats(), None);
        row(&mut out, "e2e (total)", &self.e2e_stats(), None);

        out.push_str("\nwhere the latency goes (per-phase share of that request's metric):\n");
        let breakdown = |out: &mut String, label: &str, r: &RequestPhases, total: f64, ttft: bool| {
            let phases = if ttft { &r.ttft_phases } else { &r.phases };
            let mut parts: Vec<String> = PHASE_NAMES
                .iter()
                .zip(phases)
                .filter(|(_, v)| total > 0.0 && **v / total >= 0.001)
                .map(|(n, v)| format!("{n} {:.1}%", v / total * 100.0))
                .collect();
            if parts.is_empty() {
                parts.push("instantaneous".to_string());
            }
            out.push_str(&format!("  {label} (req {:>3}, {:.6} s): {}\n", r.req, total, parts.join(", ")));
        };
        for pct in [50.0, 99.0] {
            if let Some(r) = self.ttft_percentile_request(pct) {
                breakdown(&mut out, &format!("ttft p{pct:<2.0}"), r, r.ttft_s().unwrap_or(0.0), true);
            }
        }
        for pct in [50.0, 99.0] {
            if let Some(r) = self.e2e_percentile_request(pct) {
                breakdown(&mut out, &format!("e2e  p{pct:<2.0}"), r, r.e2e_s().unwrap_or(0.0), false);
            }
        }

        out.push_str("\nwafer utilization (busy = union of resident prefill/decode spans):\n");
        out.push_str(&format!(
            "  {:<6} {:>10} {:>7} {:>8} {:>8} {:>9} {:>9} {:>11} {:>8}\n",
            "wafer", "busy_s", "busy%", "steps", "samples", "occ-mean", "occ-peak", "queue-mean", "kv-peak"
        ));
        for w in &self.wafers {
            out.push_str(&format!(
                "  {:<6} {:>10.6} {:>6.1}% {:>8} {:>8} {:>9.2} {:>9} {:>11.2} {:>7.1}%\n",
                w.wafer,
                w.busy_s,
                w.busy_fraction * 100.0,
                w.steps,
                w.samples,
                w.mean_occupancy,
                w.peak_occupancy,
                w.mean_queue_depth,
                w.peak_kv_utilization * 100.0
            ));
        }
        out
    }

    /// The analysis as flat JSON rows sharing [`ANALYZE_SCHEMA_VERSION`]:
    /// one `summary` row, one `phase` row per phase, one `wafer` row per
    /// wafer. The `row` field discriminates; each variant's key set is
    /// pinned by the schema tests.
    pub fn json_rows(&self) -> Vec<JsonObject> {
        let completed = self.completed().count();
        let e2e = self.e2e_stats();
        let ttft = self.ttft_stats();
        let mut rows = vec![JsonObject::new()
            .int("schema_version", ANALYZE_SCHEMA_VERSION as u64)
            .str("row", "summary")
            .int("requests", self.requests.len() as u64)
            .int("completed", completed as u64)
            .int("dropped", self.dropped() as u64)
            .num("span_s", self.span_s)
            .num("e2e_p50_s", e2e.p50_s)
            .num("e2e_p99_s", e2e.p99_s)
            .num("ttft_p50_s", ttft.p50_s)
            .num("ttft_p99_s", ttft.p99_s)];
        let stats = self.phase_stats();
        let e2e_total: f64 = stats.iter().map(|s| s.total_s).sum();
        for (name, s) in PHASE_NAMES.iter().zip(&stats) {
            rows.push(
                JsonObject::new()
                    .int("schema_version", ANALYZE_SCHEMA_VERSION as u64)
                    .str("row", "phase")
                    .str("phase", name)
                    .int("count", s.count as u64)
                    .num("total_s", s.total_s)
                    .num("share", if e2e_total > 0.0 { s.total_s / e2e_total } else { 0.0 })
                    .num("mean_s", s.mean_s)
                    .num("p50_s", s.p50_s)
                    .num("p95_s", s.p95_s)
                    .num("p99_s", s.p99_s)
                    .num("max_s", s.max_s),
            );
        }
        for w in &self.wafers {
            rows.push(
                JsonObject::new()
                    .int("schema_version", ANALYZE_SCHEMA_VERSION as u64)
                    .str("row", "wafer")
                    .int("wafer", w.wafer as u64)
                    .num("busy_s", w.busy_s)
                    .num("busy_fraction", w.busy_fraction)
                    .int("steps", w.steps)
                    .int("samples", w.samples as u64)
                    .num("mean_occupancy", w.mean_occupancy)
                    .int("peak_occupancy", w.peak_occupancy)
                    .num("mean_queue_depth", w.mean_queue_depth)
                    .num("peak_kv_utilization", w.peak_kv_utilization),
            );
        }
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;
    use crate::telemetry::{Counters, WaferGauges};

    fn ev(t_s: f64, wafer: usize, req: Option<usize>, kind: EventKind) -> TraceEvent {
        TraceEvent { t_s, wafer, req, kind }
    }

    const EPS: f64 = 1e-12;

    fn colocated_timeline() -> Trace {
        let wafer0 = vec![
            ev(0.1, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.1, 0, Some(1), EventKind::PrefillStart { tokens: 8 }),
            ev(0.3, 0, None, EventKind::DecodeStep { batch: 1, tokens: 8 }),
            ev(0.3, 0, Some(1), EventKind::PrefillEnd),
            ev(0.4, 0, None, EventKind::DecodeStep { batch: 1, tokens: 1 }),
            ev(0.4, 0, Some(1), EventKind::FirstToken),
            ev(0.5, 0, None, EventKind::DecodeStep { batch: 1, tokens: 1 }),
            ev(0.5, 0, Some(1), EventKind::Complete),
        ];
        let driver = vec![ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 2 })];
        Trace::from_streams(&[(&wafer0, 0), (&driver, 0)])
    }

    #[test]
    fn colocated_request_decomposes_exactly() {
        let a = Analysis::from_run(&colocated_timeline(), &[]);
        assert_eq!(a.requests.len(), 1);
        let r = &a.requests[0];
        assert!(r.completed);
        assert!((r.phases[QUEUE] - 0.1).abs() < EPS, "queue {}", r.phases[QUEUE]);
        assert!((r.phases[PREFILL] - 0.2).abs() < EPS);
        assert!((r.phases[DECODE_COMPUTE] - 0.2).abs() < EPS);
        assert!(r.phases[DECODE_IDLE].abs() < EPS);
        assert!((r.phase_sum_s() - r.e2e_s().unwrap()).abs() < EPS);
        // TTFT clip: queue + prefill + one decode step.
        assert!((r.ttft_phase_sum_s() - r.ttft_s().unwrap()).abs() < EPS);
        assert!((r.ttft_phases[DECODE_COMPUTE] - 0.1).abs() < EPS);
    }

    #[test]
    fn migrated_request_charges_transit_and_stall() {
        // Prefill on wafer 0, KV shipped to wafer 1 landing at 0.4, but
        // only admitted at 0.45 — and the admission shares the landing
        // instant's hazard: at equal timestamps the engine's admission
        // sorts before the driver's migrate_arrive.
        let wafer0 = vec![
            ev(0.1, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.1, 0, Some(1), EventKind::PrefillStart { tokens: 8 }),
            ev(0.3, 0, Some(1), EventKind::PrefillEnd),
            ev(0.3, 0, Some(1), EventKind::KvExport { tokens: 8 }),
        ];
        let wafer1 = vec![
            ev(0.45, 1, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.45, 1, Some(1), EventKind::KvImport { wire_tokens: 8, deduped_tokens: 0 }),
            ev(0.5, 1, None, EventKind::DecodeStep { batch: 1, tokens: 1 }),
            ev(0.5, 1, Some(1), EventKind::FirstToken),
            ev(0.55, 1, None, EventKind::DecodeStep { batch: 1, tokens: 1 }),
            ev(0.55, 1, Some(1), EventKind::Complete),
        ];
        let driver = vec![
            ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 2 }),
            ev(0.3, 0, Some(1), EventKind::MigrateStart { to_wafer: 1, bytes: 64 }),
            ev(0.4, 1, Some(1), EventKind::MigrateArrive { from_wafer: 0, bytes: 64 }),
        ];
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer0, 0), (&wafer1, 0), (&driver, 0)]), &[]);
        let r = &a.requests[0];
        assert!((r.phases[QUEUE] - 0.1).abs() < EPS);
        assert!((r.phases[PREFILL] - 0.2).abs() < EPS);
        assert!((r.phases[KV_TRANSIT] - 0.1).abs() < EPS, "transit {}", r.phases[KV_TRANSIT]);
        assert!((r.phases[MIGRATION_STALL] - 0.05).abs() < EPS, "stall {}", r.phases[MIGRATION_STALL]);
        assert!((r.phases[DECODE_COMPUTE] - 0.1).abs() < EPS);
        assert!((r.phase_sum_s() - r.e2e_s().unwrap()).abs() < EPS);
    }

    #[test]
    fn same_instant_landing_and_admission_stays_in_order() {
        // The real hazard: admission at exactly the landing instant, with
        // the engine stream sorting first. The rank fix must still read
        // migrate_arrive -> admission.
        let wafer1 = vec![
            ev(0.4, 1, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.5, 1, None, EventKind::DecodeStep { batch: 1, tokens: 1 }),
            ev(0.5, 1, Some(1), EventKind::Complete),
        ];
        let driver = vec![
            ev(0.0, 1, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 1 }),
            ev(0.4, 1, Some(1), EventKind::MigrateArrive { from_wafer: 0, bytes: 64 }),
        ];
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer1, 0), (&driver, 0)]), &[]);
        let r = &a.requests[0];
        assert!((r.phases[MIGRATION_STALL]).abs() < EPS, "zero-length stall at the shared instant");
        assert!((r.phases[DECODE_COMPUTE] - 0.1).abs() < EPS);
        assert!((r.phase_sum_s() - r.e2e_s().unwrap()).abs() < EPS);
    }

    #[test]
    fn fault_markers_inside_decode_become_stall_time() {
        let wafer0 = vec![
            ev(0.0, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.1, 0, None, EventKind::DecodeStep { batch: 1, tokens: 1 }),
            // A fault stalls the engine; the clock jump ends at the fault
            // event, leaving a step-free gap (0.1, 0.25].
            ev(0.25, 0, None, EventKind::Fault { kv_core: 3, evicted_seqs: 0 }),
            ev(0.25, 0, None, EventKind::Remap { chain_len: 2, moved_tiles: 4 }),
            ev(0.35, 0, None, EventKind::DecodeStep { batch: 1, tokens: 1 }),
            ev(0.35, 0, Some(1), EventKind::Complete),
        ];
        let driver = vec![ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 2 })];
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer0, 0), (&driver, 0)]), &[]);
        let r = &a.requests[0];
        assert!((r.phases[FAULT_STALL] - 0.15).abs() < EPS, "stall {}", r.phases[FAULT_STALL]);
        assert!((r.phases[DECODE_COMPUTE] - 0.2).abs() < EPS, "compute {}", r.phases[DECODE_COMPUTE]);
        assert!((r.phase_sum_s() - r.e2e_s().unwrap()).abs() < EPS);
    }

    #[test]
    fn capacity_evict_requeues_as_queue_and_fault_evict_as_stall() {
        let wafer0 = vec![
            ev(0.1, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.2, 0, Some(1), EventKind::Evict { resident_tokens: 8, fault: false }),
            ev(0.3, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: true }),
            ev(0.4, 0, Some(1), EventKind::Evict { resident_tokens: 8, fault: true }),
            ev(0.6, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: true }),
            ev(0.7, 0, None, EventKind::DecodeStep { batch: 1, tokens: 1 }),
            ev(0.7, 0, Some(1), EventKind::Complete),
        ];
        let driver = vec![ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 1 })];
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer0, 0), (&driver, 0)]), &[]);
        let r = &a.requests[0];
        assert!((r.phases[QUEUE] - 0.2).abs() < EPS, "arrival wait + capacity requeue");
        assert!((r.phases[FAULT_STALL] - 0.2).abs() < EPS, "fault requeue wait");
        assert!((r.phase_sum_s() - r.e2e_s().unwrap()).abs() < EPS);
    }

    #[test]
    fn dropped_and_truncated_requests_are_counted_but_not_summarised() {
        let wafer0 = vec![
            ev(0.2, 0, Some(1), EventKind::Drop),
            ev(0.3, 0, Some(2), EventKind::Admission { cached_tokens: 0, recompute: false }),
        ];
        let driver = vec![
            ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 999, decode_tokens: 1 }),
            ev(0.1, 0, Some(2), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 1 }),
        ];
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer0, 0), (&driver, 0)]), &[]);
        assert_eq!(a.requests.len(), 2);
        assert_eq!(a.completed().count(), 0);
        assert_eq!(a.dropped(), 1);
        let dropped = &a.requests[0];
        assert!(!dropped.completed && dropped.terminal_s == Some(0.2));
        assert!((dropped.phases[QUEUE] - 0.2).abs() < EPS, "drop wait is queue time");
        let truncated = &a.requests[1];
        assert!(truncated.terminal_s.is_none());
    }

    #[test]
    fn utilization_unions_spans_and_reads_telemetry() {
        let trace = colocated_timeline();
        let sample = |t_s: f64, occ: usize, queue: usize| TelemetrySample {
            t_s,
            wafer: 0,
            gauges: WaferGauges {
                batch_occupancy: occ,
                queue_depth: queue,
                kv_used_tokens: 50,
                kv_capacity_tokens: 100,
                ..WaferGauges::default()
            },
            counters: Counters::default(),
        };
        let a = Analysis::from_run(&trace, &[sample(0.2, 2, 1), sample(0.4, 4, 3)]);
        assert_eq!(a.wafers.len(), 1);
        let w = &a.wafers[0];
        // Busy from 0.1 (admission) to 0.5 (complete); span is 0.0..0.5.
        assert!((w.busy_s - 0.4).abs() < EPS, "busy {}", w.busy_s);
        assert!((w.busy_fraction - 0.8).abs() < EPS);
        assert_eq!(w.steps, 3);
        assert_eq!(w.samples, 2);
        assert!((w.mean_occupancy - 3.0).abs() < EPS);
        assert_eq!(w.peak_occupancy, 4);
        assert!((w.mean_queue_depth - 2.0).abs() < EPS);
        assert!((w.peak_kv_utilization - 0.5).abs() < EPS);
    }

    #[test]
    fn report_names_every_phase() {
        let text = Analysis::from_run(&colocated_timeline(), &[]).report();
        for name in PHASE_NAMES {
            assert!(text.contains(name), "missing phase {name}");
        }
        assert!(text.contains("wafer utilization"));
        assert!(text.contains("ttft p50"));
        assert!(text.contains("e2e  p99"));
    }

    #[test]
    fn json_rows_match_their_pinned_key_sets() {
        let a = Analysis::from_run(&colocated_timeline(), &[]);
        let rows = a.json_rows();
        assert_eq!(rows.len(), 1 + PHASE_COUNT + a.wafers.len());
        assert_eq!(rows[0].keys(), ANALYZE_SUMMARY_KEYS);
        for row in &rows[1..=PHASE_COUNT] {
            assert_eq!(row.keys(), ANALYZE_PHASE_KEYS);
        }
        for row in &rows[1 + PHASE_COUNT..] {
            assert_eq!(row.keys(), ANALYZE_WAFER_KEYS);
        }
        assert!(rows[0].render().starts_with(&format!("{{\"schema_version\": {ANALYZE_SCHEMA_VERSION}")));
    }

    #[test]
    fn empty_trace_analyses_to_nothing() {
        let a = Analysis::from_run(&Trace::default(), &[]);
        assert!(a.requests.is_empty() && a.wafers.is_empty());
        assert_eq!(a.json_rows().len(), 1 + PHASE_COUNT);
        assert!(a.report().contains("0 requests"));
    }

    #[test]
    fn phase_stats_mirror_the_serving_percentile_rule() {
        let s = PhaseStats::from_samples(vec![4.0, 1.0, 3.0, 2.0, f64::NAN]);
        assert_eq!(s.count, 4);
        assert!((s.total_s - 10.0).abs() < EPS);
        assert!((s.mean_s - 2.5).abs() < EPS);
        assert!((s.p50_s - 2.0).abs() < EPS, "nearest rank: ceil(0.5*4)=2nd");
        assert!((s.p99_s - 4.0).abs() < EPS);
        assert_eq!(PhaseStats::from_samples(vec![]), PhaseStats::default());
    }

    #[test]
    fn percentile_endpoints_saturate_instead_of_indexing_out_of_bounds() {
        let sorted = [1.0, 2.0, 3.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 3.0);
        // Out-of-range percentiles clamp rather than panic.
        assert_eq!(percentile_sorted(&sorted, 150.0), 3.0);
        assert_eq!(percentile_sorted(&sorted, -5.0), 1.0);
        assert_eq!(percentile_sorted(&[], 99.0), 0.0);
    }
}
