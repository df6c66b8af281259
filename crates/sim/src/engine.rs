//! Generic pipeline timing engines.
//!
//! Two engines are provided:
//!
//! * [`simulate_exact`] — the classical pipeline recurrence
//!   `T[i][s] = max(T[i-1][s], T[i][s-1]) + t(i, s)`, exact but `O(units ×
//!   stages)`. Used for sequence-grained schedules (≤ thousands of units) and
//!   as the oracle in tests.
//! * [`estimate_streaming`] — a streaming estimate for very long unit streams
//!   (token-grained schedules can exceed millions of units): the makespan is
//!   the fill latency of the first unit plus the busy time of the bottleneck
//!   stage. Exact when one stage dominates throughout, and a lower bound in
//!   general; unit tests check it against [`simulate_exact`].

/// Exact pipeline simulation.
///
/// `time(unit, stage)` returns the service time of `unit` in `stage`. Returns
/// `(makespan, per_stage_busy)`.
///
/// # Panics
///
/// Panics if `stages` is zero.
pub(crate) fn simulate_exact(
    units: usize,
    stages: usize,
    mut time: impl FnMut(usize, usize) -> f64,
) -> (f64, Vec<f64>) {
    assert!(stages > 0, "a pipeline needs at least one stage");
    let mut busy = vec![0.0f64; stages];
    if units == 0 {
        return (0.0, busy);
    }
    // finish[s] = completion time of the most recent unit in stage s.
    let mut finish = vec![0.0f64; stages];
    for unit in 0..units {
        let mut prev_stage_finish = 0.0f64;
        for stage in 0..stages {
            let t = time(unit, stage);
            let start = prev_stage_finish.max(finish[stage]);
            let end = start + t;
            busy[stage] += t;
            finish[stage] = end;
            prev_stage_finish = end;
        }
    }
    (finish[stages - 1], busy)
}

/// Streaming estimate for long unit streams.
///
/// `stage_totals[s]` is the total busy time of stage `s` over the whole
/// stream and `first_unit_times[s]` the service time of the first unit in
/// stage `s` (the pipeline fill). The makespan estimate is
/// `fill + max_s stage_totals[s] − bottleneck's first-unit time` (the first
/// unit's pass through the bottleneck is already counted in the fill).
///
/// # Panics
///
/// Panics if the two slices have different lengths or are empty.
pub(crate) fn estimate_streaming(stage_totals: &[f64], first_unit_times: &[f64]) -> (f64, Vec<f64>) {
    assert_eq!(stage_totals.len(), first_unit_times.len(), "stage count mismatch");
    assert!(!stage_totals.is_empty(), "a pipeline needs at least one stage");
    let fill: f64 = first_unit_times.iter().sum();
    let (bottleneck, total) = stage_totals
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, &t)| (i, t))
        .expect("non-empty");
    let makespan = fill + (total - first_unit_times[bottleneck]).max(0.0);
    (makespan, stage_totals.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_stage_pipeline_serialises() {
        let (makespan, busy) = simulate_exact(5, 1, |_, _| 2.0);
        assert!((makespan - 10.0).abs() < 1e-12);
        assert!((busy[0] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_pipeline_makespan_is_fill_plus_drain() {
        // n units, s stages, unit time 1: makespan = n + s - 1.
        let (makespan, _) = simulate_exact(10, 4, |_, _| 1.0);
        assert!((makespan - 13.0).abs() < 1e-12);
    }

    #[test]
    fn empty_stream_takes_no_time() {
        let (makespan, busy) = simulate_exact(0, 3, |_, _| 1.0);
        assert_eq!(makespan, 0.0);
        assert!(busy.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn slow_stage_dominates() {
        // Stage 1 is 3x slower; for long streams makespan ≈ units × 3.
        let (makespan, busy) = simulate_exact(100, 3, |_, s| if s == 1 { 3.0 } else { 1.0 });
        assert!((300.0..310.0).contains(&makespan), "got {makespan}");
        assert!((busy[1] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn variable_unit_times_create_bubbles() {
        // Alternating long/short units on a 2-stage pipeline: the short unit
        // waits behind the long one — classic sequence-length imbalance.
        let times = [5.0, 1.0, 5.0, 1.0, 5.0, 1.0];
        let (makespan, busy) = simulate_exact(times.len(), 2, |u, _| times[u]);
        let busy_total: f64 = busy.iter().sum();
        // With bubbles, total busy < stages × makespan.
        assert!(busy_total < 2.0 * makespan);
    }

    #[test]
    fn streaming_estimate_matches_exact_for_uniform_stream() {
        let units = 500;
        let stages = 6;
        let t = 0.25;
        let (exact, _) = simulate_exact(units, stages, |_, _| t);
        let totals = vec![t * units as f64; stages];
        let firsts = vec![t; stages];
        let (est, _) = estimate_streaming(&totals, &firsts);
        assert!((exact - est).abs() / exact < 1e-9, "exact {exact} vs est {est}");
    }

    #[test]
    fn streaming_estimate_matches_exact_with_a_dominant_stage() {
        let units = 200;
        let stages = 4;
        let stage_time = |s: usize| if s == 2 { 1.0 } else { 0.2 };
        let (exact, _) = simulate_exact(units, stages, |_, s| stage_time(s));
        let totals: Vec<f64> = (0..stages).map(|s| stage_time(s) * units as f64).collect();
        let firsts: Vec<f64> = (0..stages).map(stage_time).collect();
        let (est, _) = estimate_streaming(&totals, &firsts);
        assert!((exact - est).abs() / exact < 0.01, "exact {exact} vs est {est}");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_pipeline_rejected() {
        simulate_exact(1, 0, |_, _| 1.0);
    }

    #[test]
    #[should_panic(expected = "stage count mismatch")]
    fn mismatched_estimate_inputs_rejected() {
        estimate_streaming(&[1.0, 2.0], &[1.0]);
    }

    proptest! {
        #[test]
        fn makespan_at_least_bottleneck_busy_time(
            times in proptest::collection::vec(0.01f64..2.0, 1..40),
            stages in 1usize..8,
        ) {
            let (makespan, busy) = simulate_exact(times.len(), stages, |u, _| times[u]);
            let max_busy = busy.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(makespan + 1e-12 >= max_busy);
            // And at least the time of any single unit through all stages.
            let max_unit: f64 = times.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(makespan + 1e-12 >= max_unit * stages as f64);
        }

        #[test]
        fn streaming_estimate_is_a_lower_bound(
            times in proptest::collection::vec(0.01f64..2.0, 1..60),
            stages in 1usize..6,
        ) {
            // Unit times vary by unit but not by stage.
            let (exact, _) = simulate_exact(times.len(), stages, |u, _| times[u]);
            let total: f64 = times.iter().sum();
            let totals = vec![total; stages];
            let firsts = vec![times[0]; stages];
            let (est, _) = estimate_streaming(&totals, &firsts);
            prop_assert!(est <= exact + 1e-9);
        }
    }
}
