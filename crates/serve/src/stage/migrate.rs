//! The migrate stage: ships a finished prefill's KV across the inter-wafer
//! fabric to a decode wafer. Owns the `migrate_start`, `migrate_arrive`,
//! `kv_export` (emitted at the Complete-stage handoff) and `kv_import`
//! (emitted at the receiving engine's admission) trace kinds.
//!
//! The stage's in-flight queue is the imported subset of the decode
//! engines' pending queues: announcing a migration submits a
//! [`crate::stage::PendingReq`] gated on the landing time, so the transfer
//! needs no extra state to be checkpointable. What the report needs of
//! the migrations is kept as [`MigrationTotals`], not as a log.

use crate::engine::{Admission, Completion};
use crate::scenario::Driver;
use ouro_trace::EventKind;

/// Running totals over every migration announced so far, added to in
/// announce order, so each sum equals the one a log of the migrations
/// would give.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MigrationTotals {
    pub(crate) count: u64,
    /// Tokens that travelled the wire.
    pub(crate) wire_tokens: u64,
    /// Prompt tokens already cached on the target at announce time.
    pub(crate) deduped_tokens: u64,
    /// Σ of landing minus announce instants.
    pub(crate) transit_s: f64,
    pub(crate) max_transit_s: f64,
    pub(crate) energy_j: f64,
}

impl Default for MigrationTotals {
    fn default() -> MigrationTotals {
        // The float sums start at `-0.0`, the value `Iterator::sum` folds
        // from, so a run without migrations reports the zero it did when
        // the report summed a log.
        MigrationTotals {
            count: 0,
            wire_tokens: 0,
            deduped_tokens: 0,
            transit_s: -0.0,
            max_transit_s: 0.0,
            energy_j: -0.0,
        }
    }
}

/// Ships one finished prefill's KV to a decode wafer: places the
/// sequence (prefix-aware policies steer toward resident prefixes),
/// deduplicates the bytes already cached on the target, charges the
/// remaining transfer from the link model, and submits it for
/// imported-KV decode gated on the migration's landing time.
pub(crate) fn migrate(d: &mut Driver, from: usize, done: Completion) {
    let Completion { request, arrival_s, done_s: t_done } = done;
    let decode = &d.engines[d.prefill_wafers..];
    let to = d.placement.place(decode, from, d.prefill_wafers, &request);
    assert!(to < decode.len(), "placement returned wafer {to} of a {}-wafer pool", decode.len());
    // Bytes already resident on the target's prefix cache never touch
    // the wire; the imported submission carries this one count, so the
    // engine's wire accounting is the stage's.
    let deduped = decode[to].prefix_cached_tokens(&request).min(request.prompt_len);
    let wire_tokens = request.prompt_len - deduped;
    let bytes = wire_tokens as u64 * d.kv_bytes_per_token;
    let hops = (d.prefill_wafers - from) + to;
    let arrive_s = t_done + d.link.transfer_time_s(bytes, hops);
    let global_to = d.prefill_wafers + to;
    let id = request.id;
    d.tracer.emit_for(from, t_done, Some(id), EventKind::MigrateStart { to_wafer: global_to, bytes });
    d.tracer.emit_for(global_to, arrive_s, Some(id), EventKind::MigrateArrive { from_wafer: from, bytes });
    d.engines[global_to].submit_with(
        request,
        arrival_s,
        Admission::Imported { ready_s: arrive_s, wire_tokens },
        id,
    );
    let (totals, transit_s) = (&mut d.migrations, arrive_s - t_done);
    totals.count += 1;
    totals.wire_tokens += wire_tokens as u64;
    totals.deduped_tokens += deduped as u64;
    totals.transit_s += transit_s;
    totals.max_transit_s = totals.max_transit_s.max(transit_s);
    totals.energy_j += d.link.transfer_energy_j(bytes, hops);
}
