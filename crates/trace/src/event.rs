//! The typed lifecycle events the serving stack emits.
//!
//! Every observable state change of a request — arrival, admission,
//! prefill progress, KV movement, eviction, fault damage, completion —
//! is one [`TraceEvent`]: a simulated timestamp, the wafer it happened
//! on, the global request id it concerns (when it concerns one), and a
//! typed [`EventKind`] payload. The taxonomy is deliberately closed: a
//! reconstructable span timeline needs every phase edge to be one of a
//! known set of kinds, so exporters and well-formedness checks can match
//! starts to ends without guessing.

use crate::json::JsonObject;

/// Version of the flat JSON schema emitted by `TraceEvent::json_object`
/// (and carried by every trace dump). Bumped whenever a key or an event
/// kind is added, renamed, removed, or changes meaning. Version 2 added
/// the `arg_c`/`arg_d` payload columns for the KV occupancy of
/// `decode_step`.
pub const TRACE_SCHEMA_VERSION: u32 = 2;

/// What happened. Payloads carry the quantities that are expensive to
/// reconstruct after the fact; everything else is recoverable from the
/// run's records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A request arrived at the cluster and was routed to this wafer.
    Arrival {
        /// Prompt length of the request.
        prompt_tokens: usize,
        /// Decode budget of the request.
        decode_tokens: usize,
    },
    /// The engine admitted the request into its KV cache.
    Admission {
        /// Prompt tokens served from the shared-prefix cache.
        cached_tokens: usize,
        /// This admission replays an eviction (recompute), not a first
        /// entry.
        recompute: bool,
    },
    /// Admission charged prefill work (the prefill phase opens). Closed by
    /// [`EventKind::PrefillEnd`], or by [`EventKind::Evict`] when the
    /// sequence loses its KV mid-prefill.
    PrefillStart {
        /// Tokens to stream through the pipeline before decode can start.
        tokens: usize,
    },
    /// The sequence's prefill (or recompute) drained.
    PrefillEnd,
    /// The first decode token was emitted (TTFT stamp).
    FirstToken,
    /// One continuous-batching iteration moved tokens (wafer-level; the
    /// request id is absent).
    DecodeStep {
        /// Resident sequences during the step (batch occupancy).
        batch: usize,
        /// Tokens moved through the pipeline this step.
        tokens: usize,
        /// KV tokens the batch holds as the step starts (K side, lazy
        /// decode tokens included; the step's own new tokens not yet).
        kv_tokens: usize,
        /// KV token capacity of the wafer's healthy cores (K side).
        kv_capacity_tokens: usize,
    },
    /// A finished prefill exported its KV for migration (disaggregated
    /// prefill pool; this is the prefill side's terminal event).
    KvExport {
        /// Tokens of KV handed to the migration path.
        tokens: usize,
    },
    /// Imported KV was admitted into this wafer's cache.
    KvImport {
        /// Tokens that actually travelled the link.
        wire_tokens: usize,
        /// Tokens deduplicated against this wafer's prefix cache.
        deduped_tokens: usize,
    },
    /// A KV migration left its prefill wafer.
    MigrateStart {
        /// Global index of the destination decode wafer.
        to_wafer: usize,
        /// Bytes on the wire.
        bytes: u64,
    },
    /// A KV migration landed on this (decode) wafer.
    MigrateArrive {
        /// Global index of the source prefill wafer.
        from_wafer: usize,
        /// Bytes that travelled the wire.
        bytes: u64,
    },
    /// The sequence lost its KV and re-entered the queue for recompute.
    Evict {
        /// Tokens resident at eviction (the recompute debt).
        resident_tokens: usize,
        /// The eviction was forced by a core fault, not capacity pressure.
        fault: bool,
    },
    /// The request was dropped (it cannot fit even an empty cache).
    Drop,
    /// A runtime fault took a KV core on this wafer.
    Fault {
        /// Flat index of the failed KV core (manager index space).
        kv_core: usize,
        /// Sequences evicted by the failure.
        evicted_seqs: usize,
    },
    /// A replacement-chain remap healed a fault on this wafer.
    Remap {
        /// Cores on the replacement chain.
        chain_len: usize,
        /// Weight tiles shifted along the chain.
        moved_tiles: usize,
    },
    /// The request finished decoding (terminal event for the request).
    Complete,
}

impl EventKind {
    /// Stable lowercase name of the kind, used as the JSON `kind` value and
    /// the Chrome trace category.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Arrival { .. } => "arrival",
            EventKind::Admission { .. } => "admission",
            EventKind::PrefillStart { .. } => "prefill_start",
            EventKind::PrefillEnd => "prefill_end",
            EventKind::FirstToken => "first_token",
            EventKind::DecodeStep { .. } => "decode_step",
            EventKind::KvExport { .. } => "kv_export",
            EventKind::KvImport { .. } => "kv_import",
            EventKind::MigrateStart { .. } => "migrate_start",
            EventKind::MigrateArrive { .. } => "migrate_arrive",
            EventKind::Evict { .. } => "evict",
            EventKind::Drop => "drop",
            EventKind::Fault { .. } => "fault",
            EventKind::Remap { .. } => "remap",
            EventKind::Complete => "complete",
        }
    }

    /// The payload quantities as integer slots, matching the flat JSON
    /// columns `arg_a` to `arg_d`. Unused slots are zero.
    fn args(&self) -> [u64; 4] {
        let (a, b) = match *self {
            EventKind::Arrival { prompt_tokens, decode_tokens } => {
                (prompt_tokens as u64, decode_tokens as u64)
            }
            EventKind::Admission { cached_tokens, recompute } => (cached_tokens as u64, recompute as u64),
            EventKind::PrefillStart { tokens } => (tokens as u64, 0),
            EventKind::PrefillEnd | EventKind::FirstToken | EventKind::Drop | EventKind::Complete => (0, 0),
            EventKind::DecodeStep { batch, tokens, kv_tokens, kv_capacity_tokens } => {
                return [batch, tokens, kv_tokens, kv_capacity_tokens].map(|n| n as u64)
            }
            EventKind::KvExport { tokens } => (tokens as u64, 0),
            EventKind::KvImport { wire_tokens, deduped_tokens } => {
                (wire_tokens as u64, deduped_tokens as u64)
            }
            EventKind::MigrateStart { to_wafer, bytes } => (to_wafer as u64, bytes),
            EventKind::MigrateArrive { from_wafer, bytes } => (from_wafer as u64, bytes),
            EventKind::Evict { resident_tokens, fault } => (resident_tokens as u64, fault as u64),
            EventKind::Fault { kv_core, evicted_seqs } => (kv_core as u64, evicted_seqs as u64),
            EventKind::Remap { chain_len, moved_tiles } => (chain_len as u64, moved_tiles as u64),
        };
        [a, b, 0, 0]
    }
}

/// One structured lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated instant of the event.
    pub t_s: f64,
    /// Global wafer index the event happened on.
    pub wafer: usize,
    /// Global request id the event concerns (`None` for wafer-level
    /// events: decode steps, faults, remaps).
    pub req: Option<usize>,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Flattens the event into one stable JSON row: `schema_version`,
    /// `t_s`, `wafer`, `req` (null for wafer-level events), `kind`, and
    /// the four payload columns `arg_a` to `arg_d` holding the kind's
    /// integer payload.
    pub(crate) fn json_object(&self) -> JsonObject {
        let [a, b, c, d] = self.kind.args();
        let o = JsonObject::new()
            .int("schema_version", TRACE_SCHEMA_VERSION as u64)
            .num("t_s", self.t_s)
            .int("wafer", self.wafer as u64);
        let o = match self.req {
            Some(r) => o.int("req", r as u64),
            None => o.null("req"),
        };
        o.str("kind", self.kind.name()).int("arg_a", a).int("arg_b", b).int("arg_c", c).int("arg_d", d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_closed_and_stable() {
        let kinds = [
            EventKind::Arrival { prompt_tokens: 1, decode_tokens: 2 },
            EventKind::Admission { cached_tokens: 0, recompute: false },
            EventKind::PrefillStart { tokens: 5 },
            EventKind::PrefillEnd,
            EventKind::FirstToken,
            EventKind::DecodeStep { batch: 3, tokens: 3, kv_tokens: 30, kv_capacity_tokens: 100 },
            EventKind::KvExport { tokens: 7 },
            EventKind::KvImport { wire_tokens: 7, deduped_tokens: 0 },
            EventKind::MigrateStart { to_wafer: 1, bytes: 10 },
            EventKind::MigrateArrive { from_wafer: 0, bytes: 10 },
            EventKind::Evict { resident_tokens: 4, fault: true },
            EventKind::Drop,
            EventKind::Fault { kv_core: 0, evicted_seqs: 1 },
            EventKind::Remap { chain_len: 2, moved_tiles: 9 },
            EventKind::Complete,
        ];
        let names: Vec<&str> = kinds.iter().map(EventKind::name).collect();
        // Every kind name, in declaration order: the closed taxonomy.
        let pinned = [
            "arrival",
            "admission",
            "prefill_start",
            "prefill_end",
            "first_token",
            "decode_step",
            "kv_export",
            "kv_import",
            "migrate_start",
            "migrate_arrive",
            "evict",
            "drop",
            "fault",
            "remap",
            "complete",
        ];
        assert_eq!(names, pinned, "taxonomy must match the pinned name list");
    }

    #[test]
    fn event_rows_share_one_schema() {
        let with_req = TraceEvent {
            t_s: 0.5,
            wafer: 1,
            req: Some(3),
            kind: EventKind::Admission { cached_tokens: 64, recompute: true },
        };
        let wafer_level = TraceEvent {
            t_s: 0.6,
            wafer: 0,
            req: None,
            kind: EventKind::DecodeStep { batch: 2, tokens: 2, kv_tokens: 40, kv_capacity_tokens: 100 },
        };
        assert_eq!(with_req.json_object().keys(), wafer_level.json_object().keys());
        let row = with_req.json_object().render();
        assert!(row.contains("\"kind\": \"admission\""));
        assert!(row.contains("\"arg_a\": 64"));
        assert!(row.contains("\"arg_b\": 1"));
        let step = wafer_level.json_object().render();
        assert!(step.contains("\"req\": null"));
        assert!(step.contains("\"arg_c\": 40") && step.contains("\"arg_d\": 100"));
        assert!(row.contains("\"arg_c\": 0") && row.contains("\"arg_d\": 0"));
        assert!(row.contains(&format!("\"schema_version\": {TRACE_SCHEMA_VERSION}")));
    }
}
