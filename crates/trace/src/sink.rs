//! The bounded event sink and the zero-cost-when-disabled [`Tracer`]
//! front-end.
//!
//! The serving stack does not write events anywhere itself: each engine
//! (and the scenario driver) holds a [`Tracer`], which is either *off* —
//! one `Option` discriminant test per emission site, no allocation, no
//! formatting — or wired to a bounded ring ([`RingSink`]): when a run
//! outgrows the capacity the *oldest* events fall off, so the tail of a
//! long run (usually the part being debugged) survives, and memory stays
//! bounded no matter how long the simulation runs.

use crate::event::{EventKind, TraceEvent};

/// The event sink: a bounded ring buffer that keeps the newest events.
#[derive(Debug, Clone)]
pub struct RingSink {
    capacity: usize,
    /// Retained events in emission order (compacted on overflow).
    events: Vec<TraceEvent>,
    dropped: u64,
}

impl RingSink {
    /// Default retained-event capacity (per sink, i.e. per wafer).
    pub(crate) const DEFAULT_CAPACITY: usize = 1 << 20;

    /// A ring retaining at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> RingSink {
        assert!(capacity > 0, "a trace ring needs room for at least one event");
        RingSink { capacity, events: Vec::new(), dropped: 0 }
    }

    /// Accepts one event.
    pub(crate) fn emit(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            // Compact half at once so overflow is amortised O(1), not a
            // per-event memmove of the whole buffer.
            let cut = (self.capacity / 2).max(1);
            self.events.drain(..cut);
            self.dropped += cut as u64;
        }
        self.events.push(event);
    }

    /// The events retained so far, in emission order.
    pub(crate) fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events accepted but no longer retained (ring overflow).
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Default for RingSink {
    fn default() -> RingSink {
        RingSink::new(RingSink::DEFAULT_CAPACITY)
    }
}

/// The emission front-end one engine (or the scenario driver) holds: a
/// wafer context plus an optional sink. A disabled tracer is the default
/// and costs one branch per would-be event: its three methods are
/// `#[inline]`, so a caller in another crate builds no payload while it is
/// off (without that, widening `EventKind` to four payload words cost
/// about 5% of `long-decode` simbench throughput).
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<RingSink>,
    wafer: usize,
}

impl Tracer {
    /// A disabled tracer (the zero-cost default).
    pub fn off() -> Tracer {
        Tracer::default()
    }

    /// A tracer over a default-capacity [`RingSink`], stamping events with
    /// `wafer`.
    pub fn ring(wafer: usize) -> Tracer {
        Tracer { sink: Some(RingSink::default()), wafer }
    }

    /// Whether events are recorded: callers skip computing a payload that
    /// costs more than a field read while the tracer is off.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Records one event on this tracer's wafer. A no-op when disabled.
    #[inline]
    pub fn emit(&mut self, t_s: f64, req: Option<usize>, kind: EventKind) {
        if let Some(sink) = &mut self.sink {
            sink.emit(TraceEvent { t_s, wafer: self.wafer, req, kind });
        }
    }

    /// Records one event on an explicit wafer — for the scenario driver,
    /// whose events (arrivals, migrations) land on the wafer they target
    /// rather than a wafer of its own. A no-op when disabled.
    #[inline]
    pub fn emit_for(&mut self, wafer: usize, t_s: f64, req: Option<usize>, kind: EventKind) {
        if let Some(sink) = &mut self.sink {
            sink.emit(TraceEvent { t_s, wafer, req, kind });
        }
    }

    /// The recorded events, in emission order (empty when disabled).
    pub fn events(&self) -> &[TraceEvent] {
        self.sink.as_ref().map(RingSink::events).unwrap_or(&[])
    }

    /// Events lost to ring overflow (0 when disabled).
    pub fn dropped(&self) -> u64 {
        self.sink.as_ref().map(RingSink::dropped).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_s: f64) -> TraceEvent {
        TraceEvent { t_s, wafer: 0, req: Some(0), kind: EventKind::Complete }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert!(!t.enabled());
        t.emit(1.0, Some(0), EventKind::Complete);
        t.emit_for(3, 2.0, None, EventKind::Drop);
        assert!(t.events().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn tracer_stamps_its_wafer_and_emit_for_overrides_it() {
        let mut t = Tracer::ring(7);
        assert!(t.enabled());
        t.emit(1.0, Some(4), EventKind::FirstToken);
        t.emit_for(
            2,
            1.5,
            None,
            EventKind::DecodeStep { batch: 1, tokens: 1, kv_tokens: 0, kv_capacity_tokens: 0 },
        );
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.events()[0].wafer, 7);
        assert_eq!(t.events()[0].req, Some(4));
        assert_eq!(t.events()[1].wafer, 2);
    }

    #[test]
    fn ring_keeps_the_newest_events_and_counts_drops() {
        let mut sink = RingSink::new(4);
        for i in 0..10 {
            sink.emit(ev(i as f64));
        }
        assert!(sink.events().len() <= 4);
        assert_eq!(sink.dropped() as usize + sink.events().len(), 10, "every event is accounted for");
        let last = sink.events().last().unwrap();
        assert_eq!(last.t_s, 9.0, "the newest event survives overflow");
        // The retained window is a contiguous suffix.
        let ts: Vec<f64> = sink.events().iter().map(|e| e.t_s).collect();
        assert!(ts.windows(2).all(|w| w[1] == w[0] + 1.0));
    }

    #[test]
    fn boxed_sinks_clone_deeply() {
        let mut a = Tracer::ring(0);
        a.emit(1.0, None, EventKind::Drop);
        let mut b = a.clone();
        b.emit(2.0, None, EventKind::Drop);
        assert_eq!(a.events().len(), 1, "cloning must not alias the sink");
        assert_eq!(b.events().len(), 2);
    }
}
