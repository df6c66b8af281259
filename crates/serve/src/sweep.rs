//! Sweep helpers: anchor a sweep's loads and SLOs, and read its reports.
//!
//! A sweep is a plain `Vec<Scenario>` — one [`crate::scenario::Scenario`]
//! per offered load, per prefill:decode pool split, or per deployment side
//! — run through [`crate::parallel::parallel_map_indexed`], which returns
//! one [`RunReport`] per scenario in input order. Every swept axis is a
//! builder call, so a sweep composes deployment × policies × faults × SLO
//! like any single run.
//!
//! The standard serving-capacity methodology holds the workload mix fixed
//! and sweeps the open-loop arrival rate over [`LOAD_FRACTIONS`] of the
//! estimated capacity: below saturation the achieved rate tracks the
//! offered rate; past it the queue grows without bound, goodput flattens
//! or falls, and tail latency explodes — the knee locates the serving
//! capacity. The pool-ratio sweep runs the same timed trace against every
//! split of a wafer budget and [`best_ratio`] picks the goodput-optimal
//! one; the shootout pairs a colocated and a disaggregated scenario per
//! load ([`format_shootout`]).

use crate::report::RunReport;
use ouro_sim::HwStageTimes;
use ouro_workload::LengthConfig;

/// The offered loads of a capacity sweep, as fractions of the
/// deployment's aggregate capacity estimate: light load to 60% overload.
pub const LOAD_FRACTIONS: [f64; 6] = [0.2, 0.5, 0.8, 1.0, 1.3, 1.6];

/// Unloaded ("ideal") TTFT and TPOT of one wafer for a typical request, used
/// to anchor SLOs: the prefill pipeline pass plus prompt streaming for TTFT,
/// and the full pipeline pass for TPOT (a lone request's decode token must
/// traverse all `6·blocks` stages; the bottleneck interval is only reached in
/// aggregate when the token-grained pipeline is saturated by a batch).
pub fn ideal_latencies(times: &HwStageTimes, prompt_len: usize, context: usize) -> (f64, f64) {
    let pipeline = times.token_pipeline_latency_s(context);
    let ttft = pipeline + prompt_len as f64 * times.bottleneck_stage_s(context);
    (ttft, pipeline)
}

/// Estimates one wafer's request capacity for a workload mix: the
/// steady-state token rate divided by tokens per request.
pub fn capacity_rps_estimate(times: &HwStageTimes, lengths: &LengthConfig) -> f64 {
    let tokens_per_request = lengths.nominal_total_tokens().max(1) as f64;
    let context = (tokens_per_request * 0.75).max(1.0) as usize;
    let token_rate = 1.0 / times.bottleneck_stage_s(context);
    token_rate / tokens_per_request
}

/// The goodput-optimal report of a pool-ratio sweep. Ties break toward
/// fewer prefill wafers (decode capacity is the scarcer resource for
/// TPOT), regardless of the slice's order.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best_ratio(reports: &[RunReport]) -> &RunReport {
    assert!(!reports.is_empty(), "the sweep produced no reports");
    let mut best = &reports[0];
    for r in &reports[1..] {
        let cmp = r.serving.goodput_rps.total_cmp(&best.serving.goodput_rps);
        if cmp.is_gt() || (cmp.is_eq() && r.deployment.prefill_wafers < best.deployment.prefill_wafers) {
            best = r;
        }
    }
    best
}

/// Formats a load sweep as a fixed-width throughput-vs-latency table, one
/// row per report.
pub fn format_sweep(reports: &[RunReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10} {:>10} {:>10} {:>10} {:>11} {:>11} {:>11} {:>11} {:>8} {:>7}\n",
        "offered/s",
        "done/s",
        "goodput/s",
        "tok/s",
        "ttft-p50",
        "ttft-p99",
        "tpot-p50",
        "tpot-p99",
        "slo-att",
        "util"
    ));
    for report in reports {
        let r = &report.serving;
        out.push_str(&format!(
            "{:>10.1} {:>10.1} {:>10.1} {:>10.0} {:>10.1}ms {:>10.1}ms {:>10.3}ms {:>10.3}ms {:>7.1}% {:>6.1}%\n",
            r.offered_rps.unwrap_or(f64::NAN),
            r.achieved_rps,
            r.goodput_rps,
            r.output_tokens_per_s,
            r.ttft.p50_s * 1e3,
            r.ttft.p99_s * 1e3,
            r.tpot.p50_s * 1e3,
            r.tpot.p99_s * 1e3,
            r.slo_attainment * 100.0,
            r.utilization * 100.0,
        ));
    }
    out
}

/// Formats a colocated-vs-disaggregated shootout as a fixed-width table.
/// `reports` holds one (colocated, disaggregated) pair per offered load,
/// in that order; each pair prints one row per side, with TTFT/TPOT tails
/// and goodput side by side.
pub fn format_shootout(reports: &[RunReport]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10} {:<14} {:>11} {:>11} {:>11} {:>11} {:>11} {:>8}\n",
        "offered/s", "deployment", "ttft-p50", "ttft-p99", "tpot-p50", "tpot-p99", "goodput/s", "util"
    ));
    for pair in reports.chunks_exact(2) {
        for (label, r) in [("colocated", &pair[0].serving), ("disaggregated", &pair[1].serving)] {
            out.push_str(&format!(
                "{:>10.1} {:<14} {:>10.2}ms {:>10.2}ms {:>10.3}ms {:>10.3}ms {:>11.1} {:>7.1}%\n",
                pair[0].serving.offered_rps.unwrap_or(f64::NAN),
                label,
                r.ttft.p50_s * 1e3,
                r.ttft.p99_s * 1e3,
                r.tpot.p50_s * 1e3,
                r.tpot.p99_s * 1e3,
                r.goodput_rps,
                r.utilization * 100.0,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::metrics::SloConfig;
    use crate::parallel::parallel_map_indexed;
    use crate::scenario::Scenario;
    use ouro_sim::model::zoo;
    use ouro_sim::{OuroborosConfig, OuroborosSystem};
    use ouro_workload::{ArrivalConfig, TraceGenerator};

    fn tiny_system() -> OuroborosSystem {
        OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap()
    }

    fn run_all(sys: &OuroborosSystem, scenarios: Vec<Scenario>) -> Vec<RunReport> {
        parallel_map_indexed(scenarios, 2, |_, s| s.run(sys).unwrap())
    }

    /// One colocated scenario per [`LOAD_FRACTIONS`] point of
    /// `aggregate_rps`, all over one Poisson-stamped request mix.
    fn load_sweep(
        aggregate_rps: f64,
        wafers: usize,
        lengths: &LengthConfig,
        requests: usize,
        slo: SloConfig,
    ) -> Vec<Scenario> {
        let trace = TraceGenerator::new(2026).generate(lengths, requests);
        LOAD_FRACTIONS
            .iter()
            .map(|f| {
                let timed = ArrivalConfig::Poisson { rate_rps: f * aggregate_rps }.assign(&trace, 2026);
                Scenario::colocated(wafers).slo(slo).workload(timed)
            })
            .collect()
    }

    /// Every prefill:decode split of `wafers` over one timed trace.
    fn pool_splits(wafers: usize, timed: &ouro_workload::TimedTrace, slo: SloConfig) -> Vec<Scenario> {
        (1..wafers).map(|p| Scenario::disaggregated(p, wafers - p).slo(slo).workload(timed.clone())).collect()
    }

    const SHOOTOUT_SEED: u64 = 13;
    const SHOOTOUT_SLO: SloConfig = SloConfig { ttft_s: 0.5, tpot_s: 0.05 };

    /// The prefill-heavy shootout trace: 40 requests of 192 prompt and 16
    /// decode tokens, bursty (cv = 4) at `rate`.
    fn shootout_trace(rate: f64) -> ouro_workload::TimedTrace {
        let trace = TraceGenerator::new(SHOOTOUT_SEED).generate(&LengthConfig::fixed(192, 16), 40);
        ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }.assign(&trace, SHOOTOUT_SEED)
    }

    /// Colocated vs 1p:1d disaggregated on two wafers: per offered load,
    /// one scenario per side over the identical trace, faults (if any)
    /// armed identically on both.
    fn shootout(rates: &[f64], fault: Option<FaultConfig>) -> Vec<Scenario> {
        rates
            .iter()
            .flat_map(|&rate| {
                let timed = shootout_trace(rate);
                [Scenario::colocated(2), Scenario::disaggregated(1, 1)].map(|side| {
                    let side = side.slo(SHOOTOUT_SLO).workload(timed.clone());
                    match fault {
                        Some(f) => side.faults(f),
                        None => side,
                    }
                })
            })
            .collect()
    }

    #[test]
    fn sweep_throughput_rises_then_saturates() {
        let sys = tiny_system();
        let times = sys.stage_times();
        let lengths = LengthConfig::fixed(64, 48);
        let capacity = capacity_rps_estimate(times, &lengths);
        let (ttft, tpot) = ideal_latencies(times, 64, 112);
        let slo = SloConfig::with_slack(ttft, tpot, 10.0);
        let reports = run_all(&sys, load_sweep(capacity * 2.0, 2, &lengths, 80, slo));
        assert_eq!(reports.len(), 6);
        for w in reports.windows(2) {
            assert!(
                w[1].serving.output_tokens_per_s >= w[0].serving.output_tokens_per_s * 0.95,
                "token throughput must not collapse as load rises: {} then {}",
                w[0].serving.output_tokens_per_s,
                w[1].serving.output_tokens_per_s
            );
        }
        // Under light load everything completes; the table formats.
        assert_eq!(reports[0].serving.completed, 80);
        let table = format_sweep(&reports);
        assert!(table.contains("offered/s"));
        for r in &reports {
            assert!(r.is_conserved());
        }
    }

    #[test]
    fn tail_latency_grows_with_load() {
        let sys = tiny_system();
        let lengths = LengthConfig::fixed(64, 48);
        let capacity = capacity_rps_estimate(sys.stage_times(), &lengths);
        let slo = SloConfig { ttft_s: 1.0, tpot_s: 0.1 };
        let reports = run_all(&sys, load_sweep(capacity, 1, &lengths, 60, slo));
        let first = &reports[0].serving;
        let last = &reports[reports.len() - 1].serving;
        assert!(
            last.ttft.p99_s >= first.ttft.p99_s,
            "p99 TTFT should not shrink under overload: {} vs {}",
            first.ttft.p99_s,
            last.ttft.p99_s
        );
    }

    #[test]
    fn capacity_estimate_is_positive_and_finite() {
        let sys = tiny_system();
        let c = capacity_rps_estimate(sys.stage_times(), &LengthConfig::wikitext2_like());
        assert!(c.is_finite() && c > 0.0);
        let (ttft, tpot) = ideal_latencies(sys.stage_times(), 128, 256);
        assert!(ttft > tpot);
        assert!(tpot > 0.0);
    }

    #[test]
    fn tables_label_rows_with_the_reported_offered_load() {
        // Both tables read the offered load back from the reports; the
        // shootout labels each pair's two rows with the colocated side's.
        let sys = tiny_system();
        let reports = run_all(&sys, shootout(&[100.0, 300.0], None));
        let table = format_shootout(&reports);
        let offered: Vec<&str> =
            table.lines().skip(1).map(|row| row.split_whitespace().next().unwrap()).collect();
        assert_eq!(offered, ["100.0", "100.0", "300.0", "300.0"]);
        let table = format_sweep(&reports[..1]);
        assert!(table.lines().nth(1).unwrap().trim_start().starts_with("100.0 "));
    }

    #[test]
    fn sweep_covers_every_split_and_best_is_argmax() {
        let sys = tiny_system();
        let trace = TraceGenerator::new(11).generate(&LengthConfig::fixed(96, 24), 40);
        let timed = ArrivalConfig::Bursty { rate_rps: 400.0, cv: 4.0 }.assign(&trace, 11);
        let slo = SloConfig { ttft_s: 0.5, tpot_s: 0.05 };
        let reports = run_all(&sys, pool_splits(4, &timed, slo));
        assert_eq!(reports.len(), 3);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.deployment.kind, "disaggregated");
            assert_eq!(r.deployment.prefill_wafers, i + 1);
            assert_eq!(r.deployment.prefill_wafers + r.deployment.decode_wafers, 4);
            assert!(r.is_conserved());
            assert!(r.kv_bytes_conserved());
        }
        let best = best_ratio(&reports);
        for r in &reports {
            assert!(
                best.serving.goodput_rps >= r.serving.goodput_rps,
                "best ratio {}:{} must dominate {}:{}",
                best.deployment.prefill_wafers,
                best.deployment.decode_wafers,
                r.deployment.prefill_wafers,
                r.deployment.decode_wafers
            );
        }
    }

    #[test]
    fn planner_is_deterministic() {
        let sys = tiny_system();
        let trace = TraceGenerator::new(3).generate(&LengthConfig::fixed(64, 16), 30);
        let timed = ArrivalConfig::Poisson { rate_rps: 300.0 }.assign(&trace, 3);
        let slo = SloConfig { ttft_s: 0.5, tpot_s: 0.05 };
        let a = run_all(&sys, pool_splits(3, &timed, slo));
        let b = run_all(&sys, pool_splits(3, &timed, slo));
        assert_eq!(a, b);
    }

    #[test]
    fn ties_break_toward_fewer_prefill_wafers() {
        let mk = |prefill: usize, goodput: f64| -> RunReport {
            let sys = tiny_system();
            let trace = TraceGenerator::new(1).generate(&LengthConfig::fixed(32, 8), 2);
            let timed = ArrivalConfig::Poisson { rate_rps: 10.0 }.assign(&trace, 1);
            let slo = SloConfig { ttft_s: 10.0, tpot_s: 1.0 };
            let mut report = Scenario::disaggregated(prefill, 1).slo(slo).workload(timed).run(&sys).unwrap();
            report.serving.goodput_rps = goodput;
            report
        };
        let reports = vec![mk(1, 5.0), mk(2, 5.0), mk(3, 4.0)];
        assert_eq!(best_ratio(&reports).deployment.prefill_wafers, 1);
        // The tie-break is on the split, not the slice order.
        let reversed = vec![mk(3, 4.0), mk(2, 5.0), mk(1, 5.0)];
        assert_eq!(best_ratio(&reversed).deployment.prefill_wafers, 1);
    }

    #[test]
    fn both_sides_serve_the_same_workload() {
        let sys = tiny_system();
        let reports = run_all(&sys, shootout(&[100.0, 300.0], None));
        assert_eq!(reports.len(), 4);
        for pair in reports.chunks_exact(2) {
            let (colocated, disagg) = (&pair[0], &pair[1]);
            assert_eq!(colocated.serving.injected, disagg.serving.injected);
            assert_eq!(colocated.serving.offered_rps, disagg.serving.offered_rps);
            assert_eq!(colocated.deployment.kind, "colocated");
            assert_eq!(disagg.deployment.kind, "disaggregated");
            assert!(colocated.is_conserved());
            assert!(disagg.is_conserved());
            assert!(disagg.kv_bytes_conserved());
            assert!(colocated.migration.is_none());
        }
        let table = format_shootout(&reports);
        assert!(table.contains("colocated") && table.contains("disaggregated"));
    }

    #[test]
    fn the_shootout_runs_cleanly_with_faults_enabled() {
        let sys = tiny_system();
        let scenarios = shootout(&[200.0], Some(FaultConfig::new(0.05, 21)));
        let reports = run_all(&sys, scenarios.clone());
        let (colocated, disagg) = (&reports[0], &reports[1]);
        // Both sides stay conserved and both report the fault process.
        assert!(colocated.is_conserved());
        assert!(disagg.is_conserved());
        assert!(disagg.kv_bytes_conserved());
        let cf = colocated.faults.as_ref().expect("faults were enabled");
        let df = disagg.faults.as_ref().expect("faults were enabled");
        // Both deployments draw from the identical fault schedule, though
        // each only observes the prefix up to its own drain time.
        assert!(cf.faults_injected > 0, "a 50ms MTBF must fire during the colocated run");
        assert!(df.faults_injected > 0, "a 50ms MTBF must fire during the disaggregated run");
        assert_eq!(cf.config, df.config);
        assert!(cf.availability < 1.0 && df.availability < 1.0);
        // And the comparison is reproducible.
        let again = run_all(&sys, scenarios);
        assert_eq!(reports, again);
    }

    #[test]
    fn the_migration_path_traces_every_kv_handoff() {
        // Tracing the disaggregated side must surface the KV migration
        // path event for event: one export on the prefill pool and one
        // import on the decode pool per shipped migration, paired with
        // the start/arrive markers the byte-conservation stats count.
        let sys = tiny_system();
        let outcome = Scenario::disaggregated(1, 1)
            .slo(SHOOTOUT_SLO)
            .workload(shootout_trace(250.0))
            .trace(true)
            .run_full(&sys)
            .unwrap();
        let trace = outcome.trace().expect("tracing was armed");
        let m = outcome.report.migration.as_ref().expect("disagg reports migration");
        assert!(m.migrations > 0, "a prefill-heavy mix must migrate KV");
        assert_eq!(trace.count("migrate_start"), m.migrations);
        assert_eq!(trace.count("migrate_arrive"), m.migrations);
        assert_eq!(trace.count("kv_export"), m.migrations);
        assert_eq!(trace.count("kv_import"), m.migrations);
        assert!(outcome.report.kv_bytes_conserved());
    }

    #[test]
    fn disagg_decode_tail_resists_prefill_bursts() {
        // A bursty, prefill-heavy mix at saturating load: colocated wafers
        // interleave prefill chunks with every decode step, disaggregated
        // decode wafers never see a prefill chunk. The decode-side tail
        // must be at least as good under disaggregation.
        let sys = tiny_system();
        let reports = run_all(&sys, shootout(&[500.0], None));
        let (colocated, disagg) = (&reports[0], &reports[1]);
        assert!(
            disagg.serving.tpot.p99_s <= colocated.serving.tpot.p99_s,
            "disaggregated p99 TPOT {} must beat colocated {}",
            disagg.serving.tpot.p99_s,
            colocated.serving.tpot.p99_s
        );
    }
}
