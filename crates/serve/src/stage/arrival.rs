//! The arrival stage: routes the trace's next arrival onto an entry wafer.
//! Owns the `arrival` trace kind.

use crate::engine::Admission;
use crate::scenario::Driver;
use ouro_trace::EventKind;
use ouro_workload::TimedTrace;

/// Routes arrival `d.routed` of `timed` (the caller has established it
/// exists and is due) onto an entry wafer, then advances the cursor:
/// colocated deployments submit for full local service, disaggregated ones
/// for prefill-only service. The request's id is its trace index.
pub(crate) fn route_next(d: &mut Driver, timed: &TimedTrace) {
    let index = d.routed;
    let arrival = timed.arrivals[index];
    let request = arrival.request;
    // The entry pool: the prefill pool, or every wafer when colocated.
    let entry = if d.prefill_wafers > 0 { d.prefill_wafers } else { d.engines.len() };
    let wafer = d.router.route(&d.engines[..entry], &request);
    assert!(wafer < entry, "router returned wafer {wafer} of an {entry}-wafer pool");
    d.tracer.emit_for(
        wafer,
        arrival.arrival_s,
        Some(index),
        EventKind::Arrival { prompt_tokens: request.prompt_len, decode_tokens: request.decode_len },
    );
    let admission = if d.prefill_wafers > 0 { Admission::PrefillOnly } else { Admission::Local };
    d.engines[wafer].submit_with(request, arrival.arrival_s, admission, index);
    d.routed += 1;
}
