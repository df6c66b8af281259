//! The merged per-run event timeline and its exporters.
//!
//! After a run, the per-wafer event streams (plus the driver's own) are
//! merged into one [`Trace`]: a deterministically ordered event log with
//! a stable digest for golden tests, a flat-JSON dump sharing the
//! [`crate::event::TRACE_SCHEMA_VERSION`] schema, and a Chrome trace-event
//! export loadable in `chrome://tracing` / Perfetto (one track per wafer,
//! one span per request phase, counter tracks for batch occupancy).

use crate::event::{EventKind, TraceEvent};
use crate::json::{fnv1a_extend, render_array, JsonObject, FNV1A_OFFSET};

/// One reconstructed request phase: a closed interval of a request's life
/// on one wafer. Phases are derived from the event log — `queue` from
/// arrival to admission, `prefill` from prefill start to its end (or the
/// eviction that killed it), `decode` from prefill end (or an
/// import-style admission) to completion, export, or eviction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanPhase {
    /// Global request id.
    pub req: usize,
    /// Wafer the phase ran on.
    pub(crate) wafer: usize,
    /// `"queue"`, `"prefill"`, or `"decode"`.
    pub name: &'static str,
    /// Phase start instant.
    pub start_s: f64,
    /// Phase end instant (`>= start_s`).
    pub end_s: f64,
}

/// The merged, deterministically ordered event log of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl Trace {
    /// Merges per-source event streams (each in emission order, with its
    /// ring-overflow drop count) into one timeline. Events are stably
    /// sorted by time — ties keep stream order, so passing streams in
    /// wafer order yields one canonical timeline per run.
    pub fn from_streams(streams: &[(&[TraceEvent], u64)]) -> Trace {
        let mut events: Vec<TraceEvent> = Vec::with_capacity(streams.iter().map(|(e, _)| e.len()).sum());
        let mut dropped = 0;
        for (stream, lost) in streams {
            events.extend_from_slice(stream);
            dropped += lost;
        }
        events.sort_by(|a, b| a.t_s.total_cmp(&b.t_s));
        Trace { events, dropped }
    }

    /// The ordered events.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events in the timeline.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events lost to ring overflow across all merged streams.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events of the given kind name.
    pub fn count(&self, kind_name: &str) -> usize {
        self.events.iter().filter(|e| e.kind.name() == kind_name).count()
    }

    /// FNV-1a digest over the rendered flat-JSON rows — one stable
    /// fingerprint per timeline, pinned by golden tests.
    pub fn digest(&self) -> u64 {
        self.events.iter().fold(FNV1A_OFFSET, |h, e| fnv1a_extend(h, e.json_object().render().as_bytes()))
    }

    /// The timeline as flat JSON rows (one per event, shared schema).
    pub fn json_rows(&self) -> Vec<JsonObject> {
        self.events.iter().map(TraceEvent::json_object).collect()
    }

    /// Reconstructs the per-request phase spans from the event log. Open
    /// phases at the end of the timeline (a run stopped early) are closed
    /// at the last event's instant so exports stay well-formed.
    pub fn request_spans(&self) -> Vec<SpanPhase> {
        #[derive(Clone, Copy)]
        struct Open {
            wafer: usize,
            name: &'static str,
            start_s: f64,
        }
        let end_of_trace = self.events.last().map(|e| e.t_s).unwrap_or(0.0);
        // BTreeMap, not HashMap: open phases are closed in request order at
        // end-of-trace, so iteration order reaches the exported span list.
        let mut open: std::collections::BTreeMap<usize, Open> = std::collections::BTreeMap::new();
        let mut spans = Vec::new();
        let mut close = |req: usize, open: &mut std::collections::BTreeMap<usize, Open>, t: f64| {
            if let Some(o) = open.remove(&req) {
                spans.push(SpanPhase { req, wafer: o.wafer, name: o.name, start_s: o.start_s, end_s: t });
            }
        };
        for e in &self.events {
            let Some(req) = e.req else { continue };
            match e.kind {
                EventKind::Arrival { .. } => {
                    open.insert(req, Open { wafer: e.wafer, name: "queue", start_s: e.t_s });
                }
                EventKind::Admission { .. } => {
                    close(req, &mut open, e.t_s);
                    // Tentatively a decode phase; a prefill-start at the
                    // same instant narrows it below.
                    open.insert(req, Open { wafer: e.wafer, name: "decode", start_s: e.t_s });
                }
                EventKind::PrefillStart { .. } => {
                    open.insert(req, Open { wafer: e.wafer, name: "prefill", start_s: e.t_s });
                }
                EventKind::PrefillEnd => {
                    close(req, &mut open, e.t_s);
                    open.insert(req, Open { wafer: e.wafer, name: "decode", start_s: e.t_s });
                }
                EventKind::Evict { .. } | EventKind::Drop => close(req, &mut open, e.t_s),
                EventKind::KvExport { .. } | EventKind::Complete => close(req, &mut open, e.t_s),
                _ => {}
            }
        }
        for (req, o) in open {
            spans.push(SpanPhase {
                req,
                wafer: o.wafer,
                name: o.name,
                start_s: o.start_s,
                end_s: end_of_trace.max(o.start_s),
            });
        }
        spans.sort_by(|a, b| a.start_s.total_cmp(&b.start_s).then(a.req.cmp(&b.req)));
        spans
    }

    /// Renders the timeline in the Chrome trace-event JSON array format
    /// (loadable in `chrome://tracing` and Perfetto): one process track
    /// per wafer, one `X` complete event per request phase, instant
    /// markers for evictions / drops / faults / remaps / migrations, and
    /// a batch-occupancy counter track per wafer. Timestamps are
    /// microseconds of simulated time.
    pub fn chrome_trace_json(&self) -> String {
        let us = |t_s: f64| t_s * 1e6;
        let mut rows: Vec<JsonObject> = Vec::new();
        let mut wafers: Vec<usize> = self.events.iter().map(|e| e.wafer).collect();
        wafers.sort_unstable();
        wafers.dedup();
        for w in &wafers {
            rows.push(
                JsonObject::new()
                    .str("name", "process_name")
                    .str("ph", "M")
                    .int("pid", *w as u64)
                    .obj("args", &JsonObject::new().str("name", &format!("wafer {w}"))),
            );
        }
        for span in self.request_spans() {
            rows.push(
                JsonObject::new()
                    .str("name", &format!("req {} {}", span.req, span.name))
                    .str("cat", span.name)
                    .str("ph", "X")
                    .num("ts", us(span.start_s))
                    .num("dur", us(span.end_s - span.start_s).max(0.0))
                    .int("pid", span.wafer as u64)
                    .int("tid", span.req as u64),
            );
        }
        for e in &self.events {
            match e.kind {
                EventKind::DecodeStep { batch, tokens } => {
                    rows.push(
                        JsonObject::new()
                            .str("name", "batch")
                            .str("ph", "C")
                            .num("ts", us(e.t_s))
                            .int("pid", e.wafer as u64)
                            .obj(
                                "args",
                                &JsonObject::new()
                                    .int("occupancy", batch as u64)
                                    .int("step_tokens", tokens as u64),
                            ),
                    );
                }
                EventKind::Evict { .. }
                | EventKind::Drop
                | EventKind::Fault { .. }
                | EventKind::Remap { .. }
                | EventKind::MigrateStart { .. }
                | EventKind::MigrateArrive { .. }
                | EventKind::FirstToken => {
                    let (a, b) = match e.kind {
                        EventKind::Evict { resident_tokens, fault } => (resident_tokens as u64, fault as u64),
                        EventKind::Fault { kv_core, evicted_seqs } => (kv_core as u64, evicted_seqs as u64),
                        EventKind::Remap { chain_len, moved_tiles } => (chain_len as u64, moved_tiles as u64),
                        EventKind::MigrateStart { to_wafer, bytes } => (to_wafer as u64, bytes),
                        EventKind::MigrateArrive { from_wafer, bytes } => (from_wafer as u64, bytes),
                        _ => (0, 0),
                    };
                    let o = JsonObject::new()
                        .str("name", e.kind.name())
                        .str("cat", e.kind.name())
                        .str("ph", "i")
                        .num("ts", us(e.t_s))
                        .int("pid", e.wafer as u64);
                    let o = match e.req {
                        Some(r) => o.int("tid", r as u64).str("s", "t"),
                        None => o.int("tid", 0).str("s", "p"),
                    };
                    rows.push(o.obj("args", &JsonObject::new().int("arg_a", a).int("arg_b", b)));
                }
                _ => {}
            }
        }
        render_array(&rows)
    }

    /// Writes the Chrome trace-event JSON to `path`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from directory creation or the write.
    pub fn write_chrome_trace(&self, path: &str) -> std::io::Result<()> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.chrome_trace_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_s: f64, wafer: usize, req: Option<usize>, kind: EventKind) -> TraceEvent {
        TraceEvent { t_s, wafer, req, kind }
    }

    fn small_timeline() -> Trace {
        let wafer0 = vec![
            ev(0.0, 0, Some(1), EventKind::Arrival { prompt_tokens: 8, decode_tokens: 2 }),
            ev(0.1, 0, Some(1), EventKind::Admission { cached_tokens: 0, recompute: false }),
            ev(0.1, 0, Some(1), EventKind::PrefillStart { tokens: 8 }),
            ev(0.2, 0, Some(1), EventKind::PrefillEnd),
            ev(0.3, 0, Some(1), EventKind::FirstToken),
            ev(0.4, 0, Some(1), EventKind::Complete),
        ];
        Trace::from_streams(&[(&wafer0, 0)])
    }

    #[test]
    fn merge_orders_by_time_with_stable_ties() {
        let a = vec![ev(1.0, 0, None, EventKind::Drop), ev(3.0, 0, None, EventKind::Drop)];
        let b = vec![ev(1.0, 1, None, EventKind::Drop), ev(2.0, 1, None, EventKind::Drop)];
        let t = Trace::from_streams(&[(&a, 2), (&b, 1)]);
        let order: Vec<(f64, usize)> = t.events().iter().map(|e| (e.t_s, e.wafer)).collect();
        assert_eq!(order, vec![(1.0, 0), (1.0, 1), (2.0, 1), (3.0, 0)], "ties keep stream order");
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let t = small_timeline();
        assert_eq!(t.digest(), small_timeline().digest(), "same events, same digest");
        let mut other = vec![ev(0.0, 0, Some(2), EventKind::Complete)];
        other[0].t_s = 0.5;
        let u = Trace::from_streams(&[(&other, 0)]);
        assert_ne!(t.digest(), u.digest());
    }

    #[test]
    fn spans_reconstruct_queue_prefill_decode() {
        let spans = small_timeline().request_spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["queue", "prefill", "decode"]);
        assert_eq!(spans[0].start_s, 0.0);
        assert_eq!(spans[0].end_s, 0.1);
        assert_eq!(spans[1].start_s, 0.1);
        assert_eq!(spans[1].end_s, 0.2);
        assert_eq!(spans[2].start_s, 0.2);
        assert_eq!(spans[2].end_s, 0.4);
        for s in &spans {
            assert!(s.end_s >= s.start_s);
        }
    }

    #[test]
    fn chrome_export_has_process_metadata_and_spans() {
        let json = small_timeline().chrome_trace_json();
        assert!(json.starts_with("[\n") && json.ends_with("\n]\n"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"req 1 prefill\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""), "first-token instants are exported");
    }

    #[test]
    fn empty_trace_is_harmless() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.request_spans(), vec![]);
        assert!(t.chrome_trace_json().contains("[\n"));
    }
}
