//! Arrival processes: turning a [`Trace`] into a timed, online workload.
//!
//! The offline evaluation replays a fixed batch of requests with no notion of
//! *when* each request shows up. Online serving instead draws request arrival
//! times from a stochastic process and measures latency against them. Two
//! open-loop processes are provided (see `DESIGN.md` §3):
//!
//! * [`ArrivalConfig::Poisson`] — the memoryless process, with exponential
//!   inter-arrival gaps of mean `1/rate`,
//! * [`ArrivalConfig::Bursty`] — Gamma-distributed gaps with a coefficient of
//!   variation above 1, modelling flash crowds at the same average rate.
//!
//! Timestamps are generated up front and are fully determined by the seed,
//! so a run serves a fixed trace, as the paper's evaluation does.

use crate::request::Request;
use crate::trace::Trace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How request arrival times are drawn for a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalConfig {
    /// Open-loop Poisson arrivals at `rate_rps` requests per second.
    Poisson {
        /// Mean offered load in requests per second.
        rate_rps: f64,
    },
    /// Open-loop bursty arrivals: Gamma inter-arrival gaps with mean
    /// `1/rate_rps` and coefficient of variation `cv` (`cv = 1` degenerates
    /// to Poisson, `cv > 1` clusters arrivals into bursts).
    Bursty {
        /// Mean offered load in requests per second.
        rate_rps: f64,
        /// Coefficient of variation of the inter-arrival gaps.
        cv: f64,
    },
}

impl ArrivalConfig {
    /// Mean offered load in requests per second.
    pub fn offered_rps(&self) -> f64 {
        match self {
            ArrivalConfig::Poisson { rate_rps } | ArrivalConfig::Bursty { rate_rps, .. } => *rate_rps,
        }
    }

    /// Stamps every request of `trace` with an arrival time. The same seed,
    /// trace and configuration always produce identical timestamps.
    pub fn assign(&self, trace: &Trace, seed: u64) -> TimedTrace {
        // Offset the stream from the length-sampling stream so a shared seed
        // does not correlate lengths with gaps.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa77e_51de_5eed_0001);
        let arrivals = match *self {
            ArrivalConfig::Poisson { rate_rps } => {
                assert!(rate_rps > 0.0, "Poisson arrival rate must be positive");
                open_loop(trace, |rng| exponential(rng, rate_rps), &mut rng)
            }
            ArrivalConfig::Bursty { rate_rps, cv } => {
                assert!(rate_rps > 0.0, "bursty arrival rate must be positive");
                assert!(cv > 0.0, "coefficient of variation must be positive");
                let shape = 1.0 / (cv * cv);
                let scale = 1.0 / (rate_rps * shape);
                open_loop(trace, |rng| gamma(rng, shape) * scale, &mut rng)
            }
        };
        TimedTrace { arrivals, config: *self, seed }
    }
}

fn open_loop(trace: &Trace, mut gap: impl FnMut(&mut StdRng) -> f64, rng: &mut StdRng) -> Vec<TimedRequest> {
    let mut clock = 0.0;
    trace
        .requests
        .iter()
        .map(|&request| {
            clock += gap(rng);
            TimedRequest { request, arrival_s: clock }
        })
        .collect()
}

/// Exponential sample with mean `1/rate` (inverse-CDF method), shared with
/// the fault process's inter-failure gaps.
pub(crate) fn exponential(rng: &mut StdRng, rate: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / rate
}

/// Unit-scale Gamma(shape) sample via Marsaglia–Tsang squeeze, with the
/// standard `U^{1/k}` boost for shapes below one.
fn gamma(rng: &mut StdRng, shape: f64) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        return gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Box–Muller standard normal.
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = 1.0 + c * z;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * z * z + d - d * v3 + d * v3.ln() {
            return d * v3;
        }
    }
}

/// One request annotated with its arrival time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedRequest {
    /// The request itself.
    pub request: Request,
    /// Seconds since the start of the experiment at which the request
    /// arrives.
    pub arrival_s: f64,
}

/// A trace whose requests carry arrival times.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedTrace {
    /// Requests in nondecreasing arrival order.
    pub arrivals: Vec<TimedRequest>,
    /// The process that generated the timestamps.
    pub config: ArrivalConfig,
    /// Seed used for timestamp generation.
    pub seed: u64,
}

impl TimedTrace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Time of the last arrival (0 for an empty trace).
    pub fn last_arrival_s(&self) -> f64 {
        self.arrivals.iter().map(|r| r.arrival_s).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::length::LengthConfig;
    use crate::trace::TraceGenerator;
    use proptest::prelude::*;

    /// Realised arrival rate: requests per second over the arrival span
    /// (`None` for a trace of fewer than two requests or a zero span).
    fn realized_rps(timed: &TimedTrace) -> Option<f64> {
        let span = timed.last_arrival_s();
        let n = timed.arrivals.len();
        if span > 0.0 && n > 1 {
            Some(n as f64 / span)
        } else {
            None
        }
    }

    fn trace(n: usize) -> Trace {
        TraceGenerator::new(7).generate(&LengthConfig::fixed(64, 64), n)
    }

    #[test]
    fn poisson_same_seed_same_timestamps() {
        let t = trace(200);
        let cfg = ArrivalConfig::Poisson { rate_rps: 10.0 };
        let a = cfg.assign(&t, 11);
        let b = cfg.assign(&t, 11);
        let c = cfg.assign(&t, 12);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn trace_and_arrivals_deterministic_end_to_end() {
        // Same seed ⇒ identical Trace AND identical arrival timestamps.
        let cfg = LengthConfig::wikitext2_like();
        let arrivals = ArrivalConfig::Poisson { rate_rps: 25.0 };
        let a = arrivals.assign(&TraceGenerator::new(3).generate(&cfg, 150), 3);
        let b = arrivals.assign(&TraceGenerator::new(3).generate(&cfg, 150), 3);
        assert_eq!(a, b);
    }

    #[test]
    fn poisson_mean_gap_matches_rate() {
        let rate = 40.0;
        let t = trace(4000);
        let timed = ArrivalConfig::Poisson { rate_rps: rate }.assign(&t, 5);
        let mean_gap = timed.last_arrival_s() / timed.len() as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean_gap - expected).abs() < 0.1 * expected,
            "mean inter-arrival {mean_gap:.5}s should be within 10% of {expected:.5}s"
        );
        assert!((realized_rps(&timed).unwrap() - rate).abs() < 0.1 * rate);
    }

    #[test]
    fn arrivals_are_sorted_and_positive() {
        let t = trace(300);
        for cfg in
            [ArrivalConfig::Poisson { rate_rps: 100.0 }, ArrivalConfig::Bursty { rate_rps: 100.0, cv: 4.0 }]
        {
            let timed = cfg.assign(&t, 9);
            let mut prev = 0.0;
            for r in &timed.arrivals {
                assert!(r.arrival_s > 0.0);
                assert!(r.arrival_s >= prev, "arrivals must be nondecreasing");
                prev = r.arrival_s;
            }
        }
    }

    #[test]
    fn bursty_has_higher_gap_variance_than_poisson_at_same_rate() {
        let t = trace(3000);
        let gaps = |timed: &TimedTrace| -> Vec<f64> {
            timed.arrivals.windows(2).map(|w| w[1].arrival_s - w[0].arrival_s).collect()
        };
        let cv = |gaps: &[f64]| -> f64 {
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var.sqrt() / mean
        };
        let poisson = cv(&gaps(&ArrivalConfig::Poisson { rate_rps: 50.0 }.assign(&t, 1)));
        let bursty = cv(&gaps(&ArrivalConfig::Bursty { rate_rps: 50.0, cv: 4.0 }.assign(&t, 1)));
        assert!((poisson - 1.0).abs() < 0.15, "Poisson gap cv should be ~1, got {poisson}");
        assert!(bursty > 2.0, "cv=4 bursty arrivals should measure cv > 2, got {bursty}");
    }

    #[test]
    fn bursty_mean_rate_matches_poisson() {
        let t = trace(4000);
        let timed = ArrivalConfig::Bursty { rate_rps: 20.0, cv: 3.0 }.assign(&t, 2);
        let realized = realized_rps(&timed).unwrap();
        assert!((realized - 20.0).abs() < 0.15 * 20.0, "realised rate {realized} should be ~20");
    }

    #[test]
    fn empty_trace_yields_empty_timed_trace() {
        let t = Trace { requests: vec![] };
        let timed = ArrivalConfig::Poisson { rate_rps: 1.0 }.assign(&t, 0);
        assert!(timed.is_empty());
        assert_eq!(timed.last_arrival_s(), 0.0);
        assert_eq!(realized_rps(&timed), None);
    }

    proptest! {
        #[test]
        fn open_loop_arrival_count_matches_trace(n in 0usize..200, seed in 0u64..50) {
            let t = trace(n);
            let timed = ArrivalConfig::Poisson { rate_rps: 30.0 }.assign(&t, seed);
            prop_assert_eq!(timed.len(), n);
            for (timed, orig) in timed.arrivals.iter().zip(&t.requests) {
                prop_assert_eq!(timed.request, *orig);
            }
        }

        #[test]
        fn gamma_gaps_are_finite_and_positive(seed in 0u64..50, cv_tenths in 2u64..60) {
            let t = trace(50);
            let cfg = ArrivalConfig::Bursty { rate_rps: 10.0, cv: cv_tenths as f64 / 10.0 };
            let timed = cfg.assign(&t, seed);
            for r in &timed.arrivals {
                prop_assert!(r.arrival_s.is_finite() && r.arrival_s > 0.0);
            }
        }

        #[test]
        fn gamma_cv1_statistically_matches_poisson(seed in 0u64..12) {
            // Gamma with cv = 1 is Exponential(rate): its gap statistics
            // must be indistinguishable (in the first two moments and the
            // upper tail) from the Poisson process at the same rate.
            let rate = 50.0;
            let t = trace(4000);
            let gaps = |timed: &TimedTrace| -> Vec<f64> {
                let mut g: Vec<f64> =
                    timed.arrivals.windows(2).map(|w| w[1].arrival_s - w[0].arrival_s).collect();
                g.push(timed.arrivals[0].arrival_s);
                g
            };
            let moments = |g: &[f64]| -> (f64, f64, f64) {
                let mean = g.iter().sum::<f64>() / g.len() as f64;
                let var = g.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / g.len() as f64;
                let mut sorted = g.to_vec();
                sorted.sort_by(|a, b| a.total_cmp(b));
                let p90 = sorted[(0.9 * sorted.len() as f64) as usize];
                (mean, var.sqrt() / mean, p90)
            };
            let poisson = gaps(&ArrivalConfig::Poisson { rate_rps: rate }.assign(&t, seed));
            let gamma1 = gaps(&ArrivalConfig::Bursty { rate_rps: rate, cv: 1.0 }.assign(&t, seed.wrapping_add(1 << 32)));
            let (p_mean, p_cv, p_p90) = moments(&poisson);
            let (g_mean, g_cv, g_p90) = moments(&gamma1);
            prop_assert!((g_mean - p_mean).abs() < 0.1 * p_mean,
                "cv=1 Gamma mean gap {g_mean} vs Poisson {p_mean}");
            prop_assert!((g_cv - 1.0).abs() < 0.15, "cv=1 Gamma gap cv {g_cv} should be ~1");
            prop_assert!((p_cv - 1.0).abs() < 0.15, "Poisson gap cv {p_cv} should be ~1");
            prop_assert!((g_p90 - p_p90).abs() < 0.2 * p_p90,
                "cv=1 Gamma p90 gap {g_p90} vs Poisson {p_p90}");
        }

        #[test]
        fn extreme_burstiness_preserves_the_mean_rate(seed in 0u64..8) {
            // cv = 8 puts the Gamma shape at 1/64 — deep in the boost
            // branch — yet the empirical rate must stay within 10% of the
            // configured rate over a long trace. The gap std is 8× the mean,
            // so the sample must be long: 100k gaps put 10% at four sigmas.
            let rate = 25.0;
            let t = trace(100_000);
            let timed = ArrivalConfig::Bursty { rate_rps: rate, cv: 8.0 }.assign(&t, seed);
            let realized = realized_rps(&timed).expect("long open-loop trace has a rate");
            prop_assert!(
                (realized - rate).abs() < 0.1 * rate,
                "cv=8 realised rate {realized} must stay within 10% of {rate}"
            );
        }
    }
}
