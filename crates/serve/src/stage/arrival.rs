//! The arrival stage: routes the next open arrival onto an entry wafer and
//! feeds closed-loop releases back into the arrival queue. Owns the
//! `arrival` trace kind.

use super::{ArrivalEvent, Stage, StageQueues};
use crate::engine::Admission;
use crate::scenario::Driver;
use ouro_trace::EventKind;
use ouro_workload::TimedTrace;
use std::time::Instant;

/// Routes the front arrival of `q` (the caller has established one exists
/// and is due) onto an entry wafer: colocated deployments submit for full
/// local service, disaggregated ones for prefill-only service.
pub(crate) fn route_next(d: &mut Driver, timed: &TimedTrace, q: &mut StageQueues) {
    #[expect(
        clippy::disallowed_methods,
        reason = "profile-gated self-timing: wall time feeds LoopProfile only"
    )]
    let t0 = d.profile.is_some().then(Instant::now);
    let ev = q.arrivals.pop_front().expect("peeked above");
    let request = timed.arrivals[ev.index].request;
    let entry = d.entry_len();
    let wafer = d.router.route(&d.engines[..entry], &request);
    assert!(wafer < entry, "router returned wafer {wafer} of an {entry}-wafer pool");
    Stage::Arrival.emit_for(
        &mut d.tracer,
        wafer,
        ev.at_s,
        Some(ev.index),
        EventKind::Arrival { prompt_tokens: request.prompt_len, decode_tokens: request.decode_len },
    );
    let admission = if d.disagg { Admission::PrefillOnly } else { Admission::Local };
    d.engines[wafer].submit_with(request, ev.at_s, admission, ev.index, wafer);
    d.refresh_engine(wafer);
    if let (Some(p), Some(t0)) = (d.profile.as_mut(), t0) {
        p.arrivals.add(t0.elapsed());
    }
    d.telemetry_tick();
}

/// Feeds one closed-loop release back into the sorted arrival queue after a
/// completion at `t_done`: the next gated request (if any) is released
/// after an exponential think time drawn from the queues' think stream.
pub(crate) fn release_gated(q: &mut StageQueues, t_done: f64) {
    let Some(next) = q.gated.pop_front() else { return };
    let think: f64 = if q.think_time_s > 0.0 {
        ouro_workload::arrival::exponential(&mut q.think_rng, 1.0 / q.think_time_s)
    } else {
        0.0
    };
    let release = t_done + think;
    // Released arrivals are appended in completion order; engine clocks
    // only move forward, so later releases sort later.
    let pos = q.arrivals.partition_point(|ev| ev.at_s <= release);
    q.arrivals.insert(pos, ArrivalEvent { at_s: release, index: next });
}
