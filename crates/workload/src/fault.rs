//! Seeded MTBF-driven runtime fault arrivals for online serving.
//!
//! The paper's resilience story (§4.3.3, Fig. 9) heals a runtime core
//! failure locally with a replacement chain; measuring what that costs a
//! *live* deployment needs faults that arrive while traffic is in flight.
//! This module turns a per-wafer MTBF into deterministic fault streams:
//! each wafer gets its own seeded exponential inter-failure stream (the
//! memoryless model standard for hardware failure processes), and every
//! fault carries an extra random draw the injector uses to pick the victim
//! core — so the *entire* fault realisation is a pure function of
//! `(seed, mtbf, wafers, window)` and a run can be replayed byte for byte.
//!
//! A stream draws its faults one at a time, when the one before it is
//! taken, so it holds a generator and one pending fault however dense the
//! process is, and its position is the count of faults taken.
//! [`next_fault`] merges the wafers' streams into one timeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A per-wafer memoryless failure process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProcess {
    /// Mean time between failures of one wafer, in seconds of simulated
    /// time.
    pub(crate) mtbf_s: f64,
}

/// One wafer's runtime faults over `[0, window_s)`, drawn lazily: the
/// generator and the next fault, if one falls inside the window.
#[derive(Debug, Clone)]
pub struct FaultStream {
    rate: f64,
    window_s: f64,
    rng: StdRng,
    /// The next fault as `(at_s, draw)`; `None` once a gap passes the
    /// window.
    next: Option<(f64, u64)>,
    /// Faults taken so far.
    taken: u64,
}

impl FaultProcess {
    /// A process with the given per-wafer MTBF.
    ///
    /// # Panics
    ///
    /// Panics unless `mtbf_s` is positive and finite.
    pub fn new(mtbf_s: f64) -> FaultProcess {
        assert!(mtbf_s > 0.0 && mtbf_s.is_finite(), "MTBF must be positive and finite, got {mtbf_s}");
        FaultProcess { mtbf_s }
    }

    /// Wafer `wafer`'s fault stream over `[0, window_s)`, with its first
    /// fault drawn. Each wafer draws from an independent generator derived
    /// from `seed`, so adding a wafer never perturbs the faults of the
    /// others.
    ///
    /// # Panics
    ///
    /// Panics unless `window_s` is positive and finite (an open-ended
    /// stream would never end).
    pub fn stream(&self, wafer: usize, window_s: f64, seed: u64) -> FaultStream {
        assert!(
            window_s > 0.0 && window_s.is_finite(),
            "fault streams need a finite positive horizon, got {window_s}"
        );
        // Offset the stream per wafer (and from the arrival stream, which
        // uses a different xor constant on a shared seed).
        let rng =
            StdRng::seed_from_u64(seed ^ 0xfa17_0000_0000_0003u64.wrapping_add(wafer as u64 * 0x9e37_79b9));
        let mut stream = FaultStream { rate: 1.0 / self.mtbf_s, window_s, rng, next: None, taken: 0 };
        stream.draw_after(0.0);
        stream
    }
}

impl FaultStream {
    /// The next fault as `(at_s, draw)`: its instant and a uniform draw for
    /// victim selection, so the consumer needs no RNG of its own. `None`
    /// once the window is passed.
    pub(crate) fn peek(&self) -> Option<(f64, u64)> {
        self.next
    }

    /// Takes the next fault and draws the one after it.
    pub fn pop(&mut self) -> Option<(f64, u64)> {
        let fault = self.next?;
        self.taken += 1;
        self.draw_after(fault.0);
        Some(fault)
    }

    /// Faults taken so far: the stream's position, and with its process,
    /// wafer, window and seed all there is to its state.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Takes `n` faults unseen: how a resumed run brings a fresh stream to
    /// a checkpoint's position, one draw per fault skipped. `false`, with
    /// the stream ended, when the window holds fewer than `n` faults.
    pub fn skip(&mut self, n: u64) -> bool {
        (0..n).all(|_| self.pop().is_some())
    }

    /// Draws the gap after `clock_s`, and the victim draw only when the
    /// fault it ends falls inside the window.
    fn draw_after(&mut self, clock_s: f64) {
        let at_s = clock_s + crate::arrival::exponential(&mut self.rng, self.rate);
        self.next = (at_s < self.window_s).then(|| (at_s, self.rng.gen()));
    }
}

/// The earliest pending fault over `streams` (in wafer order) as
/// `(at_s, wafer)`: the first minimum by time, so equal instants break
/// toward the lowest wafer.
pub fn next_fault<'a>(streams: impl IntoIterator<Item = &'a FaultStream>) -> Option<(f64, usize)> {
    let mut best: Option<(f64, usize)> = None;
    for (wafer, stream) in streams.into_iter().enumerate() {
        if let Some((at_s, _)) = stream.peek() {
            if best.is_none_or(|(t, _)| at_s.total_cmp(&t).is_lt()) {
                best = Some((at_s, wafer));
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn streams(p: FaultProcess, wafers: usize, window_s: f64, seed: u64) -> Vec<FaultStream> {
        (0..wafers).map(|w| p.stream(w, window_s, seed)).collect()
    }

    /// Every fault of the window as `(wafer, at_s, draw)`, taken from the
    /// merged streams in firing order.
    fn merged(p: FaultProcess, wafers: usize, window_s: f64, seed: u64) -> Vec<(usize, f64, u64)> {
        let mut streams = streams(p, wafers, window_s, seed);
        std::iter::from_fn(|| {
            let (_, wafer) = next_fault(&streams)?;
            let (at_s, draw) = streams[wafer].pop()?;
            Some((wafer, at_s, draw))
        })
        .collect()
    }

    /// The reference: every wafer's faults drawn up front, then merged by
    /// a stable sort on `(at_s, wafer)`.
    fn eager_schedule(p: FaultProcess, wafers: usize, horizon_s: f64, seed: u64) -> Vec<(usize, f64, u64)> {
        let rate = 1.0 / p.mtbf_s;
        let mut events = Vec::new();
        for wafer in 0..wafers {
            let mut rng = StdRng::seed_from_u64(
                seed ^ 0xfa17_0000_0000_0003u64.wrapping_add(wafer as u64 * 0x9e37_79b9),
            );
            let mut clock = 0.0;
            loop {
                clock += crate::arrival::exponential(&mut rng, rate);
                if clock >= horizon_s {
                    break;
                }
                events.push((wafer, clock, rng.gen::<u64>()));
            }
        }
        events.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        events
    }

    #[test]
    fn same_seed_same_schedule() {
        let p = FaultProcess::new(0.5);
        let a = merged(p, 3, 20.0, 11);
        let b = merged(p, 3, 20.0, 11);
        let c = merged(p, 3, 20.0, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn events_are_sorted_and_inside_the_horizon() {
        let events = merged(FaultProcess::new(0.2), 4, 10.0, 7);
        let mut prev = 0.0;
        for &(wafer, at_s, _) in &events {
            assert!(at_s > 0.0 && at_s < 10.0);
            assert!(at_s >= prev, "the merged streams must be time-sorted");
            assert!(wafer < 4);
            prev = at_s;
        }
    }

    #[test]
    fn mean_inter_fault_time_tracks_the_mtbf() {
        let mtbf = 0.25;
        let events = merged(FaultProcess::new(mtbf), 1, 2_000.0, 3);
        let mean = 2_000.0 / events.len() as f64;
        assert!(
            (mean - mtbf).abs() < 0.1 * mtbf,
            "mean inter-fault gap {mean:.4}s should be within 10% of the {mtbf}s MTBF"
        );
    }

    #[test]
    fn wafer_streams_are_independent() {
        let p = FaultProcess::new(0.5);
        let one = merged(p, 1, 50.0, 9);
        let two = merged(p, 2, 50.0, 9);
        // Wafer 0's events are identical whether or not wafer 1 exists.
        let w0: Vec<_> = two.iter().copied().filter(|e| e.0 == 0).collect();
        assert_eq!(w0, one);
        // And wafer 1's stream differs from wafer 0's.
        let t1: Vec<f64> = two.iter().filter(|e| e.0 == 1).map(|e| e.1).collect();
        assert_ne!(one.iter().map(|e| e.1).collect::<Vec<_>>(), t1);
    }

    #[test]
    fn a_long_mtbf_yields_no_faults_in_a_short_window() {
        let streams = streams(FaultProcess::new(1e9), 2, 1.0, 5);
        assert_eq!(next_fault(&streams), None, "an MTBF of 1e9 s should not fire within 1 s");
    }

    #[test]
    fn a_fresh_stream_skipped_to_a_position_continues_from_it() {
        let p = FaultProcess::new(0.05);
        let mut live = p.stream(1, 5.0, 3);
        for _ in 0..7 {
            live.pop();
        }
        let mut resumed = p.stream(1, 5.0, 3);
        assert!(resumed.skip(live.taken()));
        assert_eq!(resumed.taken(), 7);
        let rest = |s: &mut FaultStream| std::iter::from_fn(|| s.pop()).collect::<Vec<_>>();
        let expected = rest(&mut live);
        assert!(!expected.is_empty());
        assert_eq!(rest(&mut resumed), expected);
        // The window holds no fault past the last one.
        let mut past = p.stream(1, 5.0, 3);
        assert!(!past.skip(live.taken() + 1));
        assert_eq!(past.peek(), None);
    }

    #[test]
    #[should_panic(expected = "MTBF must be positive")]
    fn zero_mtbf_is_rejected() {
        FaultProcess::new(0.0);
    }

    #[test]
    #[should_panic(expected = "finite positive horizon")]
    fn infinite_horizon_is_rejected() {
        FaultProcess::new(1.0).stream(0, f64::INFINITY, 0);
    }

    proptest! {
        #[test]
        fn merged_streams_equal_the_eager_schedule(
            mtbf in 0.001f64..2.0,
            wafers in 1usize..9,
            window_s in 0.01f64..20.0,
            seed in 0u64..1_000_000,
        ) {
            let p = FaultProcess::new(mtbf);
            let lazy = merged(p, wafers, window_s, seed);
            let eager = eager_schedule(p, wafers, window_s, seed);
            prop_assert_eq!(lazy.len(), eager.len());
            for (a, b) in lazy.iter().zip(&eager) {
                prop_assert!(a.0 == b.0 && a.1.to_bits() == b.1.to_bits() && a.2 == b.2);
            }
        }
    }
}
