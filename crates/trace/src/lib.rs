//! Observability layer for the Ouroboros serving simulator.
//!
//! The serving stack (`ouro-serve` and friends) is a deterministic
//! discrete-event simulator: a run is a pure function of its seeds. This
//! crate adds eyes to that machinery without perturbing it — every
//! facility here is strictly observational, so a traced run produces the
//! same `RunReport` bit-for-bit as an untraced one:
//!
//! - `event` / `sink` — a closed taxonomy of typed request-lifecycle
//!   events ([`TraceEvent`]/[`EventKind`]) emitted through a
//!   zero-cost-when-disabled [`Tracer`] into a bounded [`RingSink`].
//! - `chrome` — a merged [`Trace`] over per-wafer event streams: a
//!   pinned digest for golden tests, and Chrome trace-event JSON loadable
//!   in Perfetto whose request spans are the segments of the per-request
//!   walk behind [`Analysis`].
//! - `analyze` — [`Analysis`]: each request's latency split into exclusive
//!   phases and each wafer's utilization, all read from the one timeline.
//! - [`json`] — the dependency-free flat-row JSON writer and reader and
//!   the FNV-1a content hash, shared by the whole workspace so exporters
//!   and the snapshot use one implementation of each.
//!
//! Every JSON artifact carries its own `schema_version`
//! ([`TRACE_SCHEMA_VERSION`], [`ANALYZE_SCHEMA_VERSION`]) so downstream
//! tooling can detect drift.

mod analyze;
mod chrome;
mod event;
pub mod json;
mod sink;

pub use analyze::{
    Analysis, PhaseStats, RequestPhases, WaferUtilization, ANALYZE_PHASE_KEYS, ANALYZE_REQUEST_KEYS,
    ANALYZE_SCHEMA_VERSION, ANALYZE_SUMMARY_KEYS, ANALYZE_WAFER_KEYS, PHASE_COUNT, PHASE_NAMES,
};
pub use chrome::{SpanPhase, Trace};
pub use event::{EventKind, TraceEvent, TRACE_SCHEMA_VERSION};
pub use sink::{RingSink, Tracer};
