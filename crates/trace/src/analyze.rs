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
//! The walk is the one reconstruction of a request's timeline: its
//! segments, before the decode split, are the spans
//! [`Trace::request_spans`] returns and the Chrome export draws. The same
//! pass derives every per-wafer utilization column ([`WaferUtilization`]),
//! exactly: busy time is the union of the wafer's resident `prefill` and
//! `decode` segments, mean occupancy their summed length over the span,
//! mean queue depth the summed length of its `queue` and
//! `migration_stall` segments over the span, and the two peaks are read
//! from its `decode_step` events. Everything is strictly observational —
//! the analysis reads a finished run's trace and never feeds back into
//! any report.

use std::collections::BTreeMap;

use crate::chrome::{SpanPhase, Trace};
use crate::event::EventKind;
use crate::json::JsonObject;

/// Version of the flat JSON schema emitted by [`Analysis::json_rows`].
/// Bumped on any key or phase-taxonomy change. Version 3 dropped the
/// `samples` key: every wafer column is now read from the trace.
pub const ANALYZE_SCHEMA_VERSION: u32 = 3;

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

/// Pinned key list of the `row: "request"` JSON rows: the p50 and p99
/// requests of TTFT and of E2E, each phase's share of that metric.
pub const ANALYZE_REQUEST_KEYS: &[&str] = &[
    "schema_version",
    "row",
    "metric",
    "pct",
    "req",
    "total_s",
    "queue",
    "prefill",
    "kv_transit",
    "migration_stall",
    "fault_stall",
    "decode_compute",
    "decode_idle",
];

/// Pinned key list of the `row: "wafer"` JSON rows (one per wafer).
pub const ANALYZE_WAFER_KEYS: &[&str] = &[
    "schema_version",
    "row",
    "wafer",
    "busy_s",
    "busy_fraction",
    "steps",
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
    /// Exclusive per-phase seconds over `[arrival, terminal]` (or to the
    /// trace's last event, for a request still in flight), indexed by
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

    /// TTFT (`ttft`) or E2E latency, with the phases that sum to it.
    fn metric(&self, ttft: bool) -> (Option<f64>, &[f64; PHASE_COUNT]) {
        if ttft {
            (self.ttft_s(), &self.ttft_phases)
        } else {
            (self.e2e_s(), &self.phases)
        }
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

/// Per-wafer busy/idle and occupancy statistics, every one read from the
/// trace. The means are time averages over the trace span (0 when the
/// span is empty).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferUtilization {
    /// Global wafer index.
    pub wafer: usize,
    /// Seconds the wafer held at least one resident prefill/decode span.
    pub(crate) busy_s: f64,
    /// `busy_s` over the trace span.
    pub busy_fraction: f64,
    /// `decode_step` iterations the wafer executed.
    pub steps: u64,
    /// Mean resident sequences: the summed length of the wafer's
    /// `prefill` and `decode` segments over the span.
    pub mean_occupancy: f64,
    /// Largest `batch` of the wafer's `decode_step` events.
    pub peak_occupancy: u64,
    /// Mean requests waiting on the wafer: the summed length of its
    /// `queue` segments (waiting for admission, first or after a capacity
    /// eviction) and `migration_stall` segments (landed KV waiting for
    /// admission) over the span. A fault-evicted request's wait is its
    /// `fault_stall` phase and is not counted.
    pub(crate) mean_queue_depth: f64,
    /// Largest KV utilization (`kv_tokens / kv_capacity_tokens`) of the
    /// wafer's `decode_step` events.
    pub peak_kv_utilization: f64,
}

/// The full post-hoc analysis of one run: per-request latency
/// decompositions plus per-wafer utilization.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis {
    /// Per-request decompositions, in request-id order.
    pub requests: Vec<RequestPhases>,
    /// Per-wafer utilization, in wafer order.
    pub wafers: Vec<WaferUtilization>,
    /// Simulated span of the trace (last event minus first).
    pub(crate) span_s: f64,
}

/// The six phases of the per-request walk, indexed by its mode: the names
/// of its segments and of the Chrome spans. The first five are also the
/// first five [`PHASE_NAMES`]; a `decode` segment is split after the walk
/// into `decode_compute`, `fault_stall` and `decode_idle`.
const WALK_PHASES: [&str; 6] = ["queue", "prefill", "kv_transit", "migration_stall", "fault_stall", "decode"];
const DECODE: usize = 5;

/// One request's walk: the segments that tile its life, in time order,
/// and the instants its decomposition reads.
pub(crate) struct Walk {
    req: usize,
    cursor: f64,
    mode: usize,
    wafer: usize,
    arrival_s: f64,
    terminal_s: Option<f64>,
    completed: bool,
    first_token_s: Option<f64>,
    pub(crate) segments: Vec<SpanPhase>,
}

impl Walk {
    /// Attributes `[cursor, t]` to the current mode and moves the cursor
    /// — the telescoping step that makes the phases exhaustive.
    fn attribute(&mut self, t: f64) {
        if t > self.cursor {
            let name = WALK_PHASES[self.mode];
            self.segments.push(SpanPhase {
                req: self.req,
                wafer: self.wafer,
                name,
                start_s: self.cursor,
                end_s: t,
            });
        }
        self.cursor = t;
    }

    /// Closes the current segment at `t` and enters `mode` on `wafer`.
    fn enter(&mut self, t: f64, mode: usize, wafer: usize) {
        self.attribute(t);
        self.mode = mode;
        self.wafer = wafer;
    }
}

/// Walks every request of the trace, in request-id order. The merge
/// breaks timestamp ties by stream order (engines before the driver), so
/// a driver event that logically precedes a same-instant engine event —
/// an arrival routed and admitted at one instant, a migration landing
/// admitted the instant it arrives — can sort after it. Each request's
/// events are re-sorted with those two driver kinds ranked ahead at
/// equal timestamps; all other ties keep emission order. A request still
/// open at the end of the trace is closed at the trace's last event.
pub(crate) fn walk(trace: &Trace) -> Vec<Walk> {
    let events = trace.events();
    let end_s = events.last().map_or(0.0, |e| e.t_s);
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
    let mut walks = Vec::with_capacity(per_req.len());
    for (req, mut evs) in per_req {
        evs.sort_by(|a, b| a.0.total_cmp(&b.0).then(rank(&a.2).cmp(&rank(&b.2))));
        let (t0, wafer0, _) = evs[0];
        let mut w = Walk {
            req,
            cursor: t0,
            mode: QUEUE,
            wafer: wafer0,
            arrival_s: t0,
            terminal_s: None,
            completed: false,
            first_token_s: None,
            segments: Vec::new(),
        };
        for (t, wafer, kind) in evs {
            match kind {
                EventKind::Arrival { .. } => w.enter(t, QUEUE, wafer),
                EventKind::Admission { .. } | EventKind::PrefillEnd => w.enter(t, DECODE, wafer),
                EventKind::PrefillStart { .. } => w.enter(t, PREFILL, wafer),
                EventKind::KvExport { .. } | EventKind::MigrateStart { .. } => w.enter(t, KV_TRANSIT, wafer),
                EventKind::MigrateArrive { .. } => w.enter(t, MIGRATION_STALL, wafer),
                EventKind::Evict { fault, .. } => w.enter(t, if fault { FAULT_STALL } else { QUEUE }, wafer),
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
        if w.terminal_s.is_none() {
            w.attribute(end_s);
        }
        walks.push(w);
    }
    walks
}

/// A wafer-level decode marker: a step end (compute) or a fault/remap
/// event (the end of an engine stall).
#[derive(Clone, Copy)]
struct Marker {
    t_s: f64,
    is_step: bool,
}

/// What one pass over the timeline gathers for one wafer.
#[derive(Default)]
struct WaferEvents {
    /// Decode markers, already time-sorted by the merge.
    markers: Vec<Marker>,
    /// Resident (`prefill` and `decode`) segments, in walk order.
    resident: Vec<(f64, f64)>,
    /// Summed length of the `queue` and `migration_stall` segments.
    waiting_s: f64,
    /// Largest `decode_step` batch.
    peak_batch: u64,
    /// Largest `decode_step` KV utilization.
    peak_kv: f64,
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

/// Total length of the union of `intervals`.
fn union_s(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in intervals {
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
}

impl Analysis {
    /// Analyses a finished run from its merged trace.
    pub fn from_run(trace: &Trace) -> Analysis {
        let events = trace.events();
        let t0_s = events.first().map_or(0.0, |e| e.t_s);
        let span_s = events.last().map_or(0.0, |e| e.t_s - t0_s);

        // Every wafer an event names, with its wafer-level events.
        let mut wafers: BTreeMap<usize, WaferEvents> = BTreeMap::new();
        for e in events {
            let w = wafers.entry(e.wafer).or_default();
            match e.kind {
                EventKind::DecodeStep { batch, kv_tokens, kv_capacity_tokens, .. } => {
                    w.markers.push(Marker { t_s: e.t_s, is_step: true });
                    w.peak_batch = w.peak_batch.max(batch as u64);
                    if kv_capacity_tokens > 0 {
                        w.peak_kv = w.peak_kv.max(kv_tokens as f64 / kv_capacity_tokens as f64);
                    }
                }
                EventKind::Fault { .. } | EventKind::Remap { .. } => {
                    w.markers.push(Marker { t_s: e.t_s, is_step: false })
                }
                _ => {}
            }
        }

        let mut requests = Vec::new();
        for w in walk(trace) {
            let mut phases = [0.0; PHASE_COUNT];
            let mut ttft_phases = [0.0; PHASE_COUNT];
            let ft = w.first_token_s;
            for seg in &w.segments {
                let wafer = wafers.entry(seg.wafer).or_default();
                // Every walk phase but `decode` is a phase of its own.
                let phase = PHASE_NAMES.iter().position(|n| *n == seg.name);
                let add = |acc: &mut [f64; PHASE_COUNT], a: f64, b: f64| match phase {
                    Some(i) => acc[i] += b - a,
                    None => {
                        let (compute, stall, idle) = split_decode(&wafer.markers, a, b);
                        acc[DECODE_COMPUTE] += compute;
                        acc[FAULT_STALL] += stall;
                        acc[DECODE_IDLE] += idle;
                    }
                };
                add(&mut phases, seg.start_s, seg.end_s);
                if let Some(ft) = ft {
                    let b = seg.end_s.min(ft);
                    if b > seg.start_s {
                        add(&mut ttft_phases, seg.start_s, b);
                    }
                }
                match seg.name {
                    "prefill" | "decode" => wafer.resident.push((seg.start_s, seg.end_s)),
                    "queue" | "migration_stall" => wafer.waiting_s += seg.end_s - seg.start_s,
                    _ => {}
                }
            }
            requests.push(RequestPhases {
                req: w.req,
                arrival_s: w.arrival_s,
                terminal_s: w.terminal_s,
                completed: w.completed,
                first_token_s: w.first_token_s,
                phases,
                ttft_phases,
            });
        }

        let per_span = |s: f64| if span_s > 0.0 { s / span_s } else { 0.0 };
        let wafers = wafers
            .into_iter()
            .map(|(wafer, w)| {
                let resident_s: f64 = w.resident.iter().map(|(a, b)| b - a).sum();
                let busy_s = union_s(w.resident);
                WaferUtilization {
                    wafer,
                    busy_s,
                    busy_fraction: per_span(busy_s),
                    steps: w.markers.iter().filter(|m| m.is_step).count() as u64,
                    mean_occupancy: per_span(resident_s),
                    peak_occupancy: w.peak_batch,
                    mean_queue_depth: per_span(w.waiting_s),
                    peak_kv_utilization: w.peak_kv,
                }
            })
            .collect();

        Analysis { requests, wafers, span_s }
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

    /// The completed request at the nearest-rank `pct` percentile of
    /// `metric` — the concrete request "where the p99 goes" is read from.
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

    /// The analysis as flat JSON rows sharing [`ANALYZE_SCHEMA_VERSION`]:
    /// one `summary` row, one `phase` row per phase, one `request` row per
    /// metric and percentile (the p50 and p99 TTFT and E2E requests, each
    /// phase's share of that request's metric), one `wafer` row per wafer.
    /// The `row` field discriminates; each variant's key set is pinned by
    /// the schema tests.
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
        for (metric, ttft) in [("ttft", true), ("e2e", false)] {
            for pct in [50, 99] {
                let Some(r) = self.percentile_request(pct as f64, |r| r.metric(ttft).0) else { continue };
                let (total, phases) = r.metric(ttft);
                let total = total.unwrap_or(0.0);
                let mut row = JsonObject::new()
                    .int("schema_version", ANALYZE_SCHEMA_VERSION as u64)
                    .str("row", "request")
                    .str("metric", metric)
                    .int("pct", pct)
                    .int("req", r.req as u64)
                    .num("total_s", total);
                for (name, v) in PHASE_NAMES.iter().zip(phases) {
                    row = row.num(name, if total > 0.0 { v / total } else { 0.0 });
                }
                rows.push(row);
            }
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
    use crate::json;

    fn ev(t_s: f64, wafer: usize, req: Option<usize>, kind: EventKind) -> TraceEvent {
        TraceEvent { t_s, wafer, req, kind }
    }

    /// A `decode_step` with an empty KV cache.
    fn step(batch: usize, tokens: usize) -> EventKind {
        EventKind::DecodeStep { batch, tokens, kv_tokens: 0, kv_capacity_tokens: 0 }
    }

    const EPS: f64 = 1e-12;

    fn colocated_timeline() -> Trace {
        let wafer0 = vec![
            ev(0.1, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.1, 0, Some(1), EventKind::PrefillStart { tokens: 8 }),
            ev(0.3, 0, None, step(1, 8)),
            ev(0.3, 0, Some(1), EventKind::PrefillEnd),
            ev(0.4, 0, None, step(1, 1)),
            ev(0.4, 0, Some(1), EventKind::FirstToken),
            ev(0.5, 0, None, step(1, 1)),
            ev(0.5, 0, Some(1), EventKind::Complete),
        ];
        let driver = vec![ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 2 })];
        Trace::from_streams(&[(&wafer0, 0), (&driver, 0)])
    }

    #[test]
    fn colocated_request_decomposes_exactly() {
        let a = Analysis::from_run(&colocated_timeline());
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

    /// A `decode_step` holding `kv_tokens` of a 100-token KV cache.
    fn step_kv(batch: usize, kv_tokens: usize) -> EventKind {
        EventKind::DecodeStep { batch, tokens: batch, kv_tokens, kv_capacity_tokens: 100 }
    }

    /// Prefill on wafer 0, KV shipped to wafer 1 landing at 0.4, but only
    /// admitted at 0.45 — and the admission shares the landing instant's
    /// hazard: at equal timestamps the engine's admission sorts before the
    /// driver's migrate_arrive.
    fn migrated_timeline() -> Trace {
        let wafer0 = vec![
            ev(0.1, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.1, 0, Some(1), EventKind::PrefillStart { tokens: 8 }),
            ev(0.3, 0, Some(1), EventKind::PrefillEnd),
            ev(0.3, 0, Some(1), EventKind::KvExport { tokens: 8 }),
        ];
        let wafer1 = vec![
            ev(0.45, 1, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.45, 1, Some(1), EventKind::KvImport { wire_tokens: 8, deduped_tokens: 0 }),
            ev(0.5, 1, None, step_kv(1, 9)),
            ev(0.5, 1, Some(1), EventKind::FirstToken),
            ev(0.55, 1, None, step_kv(1, 10)),
            ev(0.55, 1, Some(1), EventKind::Complete),
        ];
        let driver = vec![
            ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 2 }),
            ev(0.3, 0, Some(1), EventKind::MigrateStart { to_wafer: 1, bytes: 64 }),
            ev(0.4, 1, Some(1), EventKind::MigrateArrive { from_wafer: 0, bytes: 64 }),
        ];
        Trace::from_streams(&[(&wafer0, 0), (&wafer1, 0), (&driver, 0)])
    }

    #[test]
    fn migrated_request_charges_transit_and_stall() {
        let a = Analysis::from_run(&migrated_timeline());
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
            ev(0.5, 1, None, step(1, 1)),
            ev(0.5, 1, Some(1), EventKind::Complete),
        ];
        let driver = vec![
            ev(0.0, 1, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 1 }),
            ev(0.4, 1, Some(1), EventKind::MigrateArrive { from_wafer: 0, bytes: 64 }),
        ];
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer1, 0), (&driver, 0)]));
        let r = &a.requests[0];
        assert!((r.phases[MIGRATION_STALL]).abs() < EPS, "zero-length stall at the shared instant");
        assert!((r.phases[DECODE_COMPUTE] - 0.1).abs() < EPS);
        assert!((r.phase_sum_s() - r.e2e_s().unwrap()).abs() < EPS);
    }

    #[test]
    fn fault_markers_inside_decode_become_stall_time() {
        let wafer0 = vec![
            ev(0.0, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.1, 0, None, step(1, 1)),
            // A fault stalls the engine; the clock jump ends at the fault
            // event, leaving a step-free gap (0.1, 0.25].
            ev(0.25, 0, None, EventKind::Fault { kv_core: 3, evicted_seqs: 0 }),
            ev(0.25, 0, None, EventKind::Remap { chain_len: 2, moved_tiles: 4 }),
            ev(0.35, 0, None, step(1, 1)),
            ev(0.35, 0, Some(1), EventKind::Complete),
        ];
        let driver = vec![ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 2 })];
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer0, 0), (&driver, 0)]));
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
            ev(0.7, 0, None, step(1, 1)),
            ev(0.7, 0, Some(1), EventKind::Complete),
        ];
        let driver = vec![ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 1 })];
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer0, 0), (&driver, 0)]));
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
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer0, 0), (&driver, 0)]));
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
    fn wafer_columns_are_time_averages_of_the_walk() {
        // Two requests arrive at 0 on one wafer: request 1 is resident
        // from 0.1 to 0.4, request 2 from 0.2 to 0.5.
        let wafer0 = vec![
            ev(0.1, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.2, 0, Some(2), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.3, 0, None, step_kv(2, 40)),
            ev(0.4, 0, None, step_kv(2, 50)),
            ev(0.4, 0, Some(1), EventKind::Complete),
            ev(0.5, 0, None, step_kv(1, 30)),
            ev(0.5, 0, Some(2), EventKind::Complete),
        ];
        let driver = vec![
            ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 2 }),
            ev(0.0, 0, Some(2), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 2 }),
        ];
        let a = Analysis::from_run(&Trace::from_streams(&[(&wafer0, 0), (&driver, 0)]));
        assert_eq!(a.wafers.len(), 1);
        let w = &a.wafers[0];
        // Busy: [0.1, 0.4] ∪ [0.2, 0.5] is 0.4 s of the 0.5 s span.
        assert!((w.busy_s - 0.4).abs() < EPS, "busy {}", w.busy_s);
        assert!((w.busy_fraction - 0.8).abs() < EPS);
        assert_eq!(w.steps, 3);
        // Resident 0.3 s + 0.3 s over 0.5 s.
        assert!((w.mean_occupancy - 1.2).abs() < EPS, "occupancy {}", w.mean_occupancy);
        assert_eq!(w.peak_occupancy, 2);
        // Queued 0.1 s + 0.2 s over 0.5 s.
        assert!((w.mean_queue_depth - 0.6).abs() < EPS, "queue {}", w.mean_queue_depth);
        assert!((w.peak_kv_utilization - 0.5).abs() < EPS);

        // A migration stall waits on the destination wafer and KV transit
        // on neither; the span is 0.55 s.
        let m = Analysis::from_run(&migrated_timeline());
        let (prefill, decode) = (&m.wafers[0], &m.wafers[1]);
        assert!((prefill.mean_occupancy - 0.2 / 0.55).abs() < EPS, "prefill 0.1..0.3");
        assert!((prefill.mean_queue_depth - 0.1 / 0.55).abs() < EPS, "queue 0..0.1");
        assert_eq!((prefill.steps, prefill.peak_occupancy, prefill.peak_kv_utilization), (0, 0, 0.0));
        assert!((decode.mean_occupancy - 0.1 / 0.55).abs() < EPS, "decode 0.45..0.55");
        assert!((decode.mean_queue_depth - 0.05 / 0.55).abs() < EPS, "stall 0.4..0.45");
        assert_eq!(decode.peak_occupancy, 1);
        assert!((decode.peak_kv_utilization - 0.1).abs() < EPS);
    }

    #[test]
    fn report_names_every_phase() {
        let text = json::render_array(&Analysis::from_run(&colocated_timeline()).json_rows());
        let rows = json::read_rows(&text).unwrap();
        for name in PHASE_NAMES {
            assert!(rows.iter().any(|r| r.get_str("phase") == Ok(name)), "missing phase row {name}");
        }
        let requests: Vec<_> = rows.iter().filter(|r| r.get_str("row") == Ok("request")).collect();
        let tags: Vec<(&str, f64)> = requests
            .iter()
            .map(|r| (r.get_str("metric").unwrap(), r.get("pct").unwrap().as_num().unwrap()))
            .collect();
        assert_eq!(tags, [("ttft", 50.0), ("ttft", 99.0), ("e2e", 50.0), ("e2e", 99.0)]);
        // Request 1's E2E: 0.1 s queue, 0.2 s prefill, 0.2 s decode compute.
        let share = |phase: &str| requests[3].get(phase).unwrap().as_num().unwrap();
        assert!((share("queue") - 0.2).abs() < EPS);
        assert!((share("prefill") - 0.4).abs() < EPS);
        assert!((share("decode_compute") - 0.4).abs() < EPS);
        assert_eq!(share("kv_transit"), 0.0);
    }

    #[test]
    fn json_rows_match_their_pinned_key_sets() {
        let a = Analysis::from_run(&colocated_timeline());
        let rows = a.json_rows();
        let requests = 4;
        assert_eq!(rows.len(), 1 + PHASE_COUNT + requests + a.wafers.len());
        assert_eq!(rows[0].keys(), ANALYZE_SUMMARY_KEYS);
        for row in &rows[1..=PHASE_COUNT] {
            assert_eq!(row.keys(), ANALYZE_PHASE_KEYS);
        }
        for row in &rows[1 + PHASE_COUNT..1 + PHASE_COUNT + requests] {
            assert_eq!(row.keys(), ANALYZE_REQUEST_KEYS);
        }
        for row in &rows[1 + PHASE_COUNT + requests..] {
            assert_eq!(row.keys(), ANALYZE_WAFER_KEYS);
        }
        assert_eq!(&ANALYZE_REQUEST_KEYS[6..], PHASE_NAMES, "one share column per phase");
        assert!(rows[0].render().starts_with(&format!("{{\"schema_version\": {ANALYZE_SCHEMA_VERSION}")));
    }

    #[test]
    fn empty_trace_analyses_to_nothing() {
        let a = Analysis::from_run(&Trace::default());
        assert!(a.requests.is_empty() && a.wafers.is_empty());
        let rows = a.json_rows();
        assert_eq!(rows.len(), 1 + PHASE_COUNT, "no request rows without a completed request");
        assert!(rows[0].render().contains("\"requests\": 0,"));
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
