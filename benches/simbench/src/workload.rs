//! The four benchmark workloads and their untimed runs.
//!
//! Every input is a pure function of the workload name and the seed: the
//! request trace, the arrival timestamps and the fault realisation. The
//! simulated systems themselves are the paper's pinned configurations.

use crate::heap;
use ouroboros::baselines::SystemReport;
use ouroboros::model::{zoo, ModelConfig};
use ouroboros::serve::{
    capacity_rps_estimate, placements, routers, Deployment, DisaggConfig, FaultConfig, Placement, Router,
    RunOutcome, RunReport, Scenario, Snapshot,
};
use ouroboros::sim::{OuroborosConfig, OuroborosSystem};
use ouroboros::workload::{ArrivalConfig, LengthConfig, SessionConfig, TimedTrace, Trace, TraceGenerator};
use std::time::Instant;

/// Requests per serving run, chosen so one run takes a fraction of a
/// second of host time and a measurement holds many runs.
const WIDE_SHORT_REQUESTS: usize = 30_000;
const LONG_DECODE_REQUESTS: usize = 10_000;
const DISAGG_CHAT_REQUESTS: usize = 20_000;
/// Requests per paper-suite configuration, as in the paper.
const PAPER_REQUESTS: usize = 1_000;

/// A workload, built from its name and seed.
pub enum Workload {
    Serving(Serving),
    Replay(Replay),
}

impl Workload {
    /// Builds the named workload's inputs.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown name, or when a pinned system
    /// configuration fails to build.
    pub fn build(name: &str, seed: u64) -> Result<Workload, String> {
        Ok(match name {
            "wide-short" => Workload::Serving(Serving::wide_short(seed)?),
            "long-decode" => Workload::Serving(Serving::long_decode(seed)?),
            "disagg-chat" => Workload::Serving(Serving::disagg_chat(seed)?),
            "paper-replay" => Workload::Replay(Replay::paper(seed)),
            _ => return Err(format!("unknown workload {name:?}")),
        })
    }
}

/// What a count must be on a workload.
#[derive(Debug, Clone, Copy)]
enum Want {
    Zero,
    Positive,
    Any,
}

impl Want {
    fn check(self, what: &str, value: u64) -> Result<(), String> {
        match (self, value) {
            (Want::Zero, 0) => Ok(()),
            (Want::Positive, v) if v > 0 => Ok(()),
            (Want::Any, _) => Ok(()),
            (want, v) => Err(format!("{what} = {v}, the workload needs {want:?}")),
        }
    }
}

/// The layer each serving workload is meant to exercise, as counts its
/// report must show.
#[derive(Debug, Clone, Copy)]
struct Expect {
    evictions: Want,
    cached_prefix_tokens: Want,
    faults: Want,
}

/// Fails with `what` unless `ok`.
pub fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("check failed: {what}"))
    }
}

/// An online serving workload: a deployment of one pinned system serving a
/// timed trace through `Scenario`.
pub struct Serving {
    config: OuroborosConfig,
    model: ModelConfig,
    deployment: Deployment,
    router: fn() -> Box<dyn Router>,
    placement: fn() -> Box<dyn Placement>,
    timed: TimedTrace,
    faults: Option<FaultConfig>,
    /// Checkpoint, serialise, parse and resume the run once `waiting()`
    /// drops to this many requests.
    checkpoint_at_waiting: Option<usize>,
    expect: Expect,
}

/// The host-time and heap figures of one untimed serving run.
pub struct ServingRun {
    pub outcome: RunOutcome,
    pub setup_s: f64,
    /// Host time from the started run to the finished report.
    pub run_s: f64,
    pub peak_heap_bytes: usize,
    pub allocs: u64,
}

impl Serving {
    /// 32 tiny colocated wafers at 0.8x capacity: every arrival scans all
    /// 32 engines while the KV cache never fills.
    fn wide_short(seed: u64) -> Result<Serving, String> {
        let (config, model) = (OuroborosConfig::tiny_for_tests(), zoo::bert_large());
        let wafers = 32;
        let lengths = LengthConfig::fixed(64, 32);
        let rate = 0.8 * capacity(&config, &model, &lengths)? * wafers as f64;
        let trace = TraceGenerator::new(seed).generate(&lengths, WIDE_SHORT_REQUESTS);
        Ok(Serving {
            config,
            model,
            deployment: Deployment::Colocated { wafers },
            router: routers::least_kv_load,
            placement: placements::least_kv_load,
            timed: ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, seed),
            faults: None,
            checkpoint_at_waiting: None,
            expect: Expect { evictions: Want::Zero, cached_prefix_tokens: Want::Zero, faults: Want::Zero },
        })
    }

    /// Two paper wafers serving LLaMA-13B long generations at 1.2x
    /// capacity: the KV cache saturates and evicts.
    fn long_decode(seed: u64) -> Result<Serving, String> {
        let (config, model) = (OuroborosConfig::single_wafer(), zoo::llama_13b());
        let wafers = 2;
        let lengths = LengthConfig::fixed(128, 2048);
        let rate = 1.2 * capacity(&config, &model, &lengths)? * wafers as f64;
        let trace = TraceGenerator::new(seed).generate(&lengths, LONG_DECODE_REQUESTS);
        Ok(Serving {
            config,
            model,
            deployment: Deployment::Colocated { wafers },
            router: routers::least_kv_load,
            placement: placements::least_kv_load,
            timed: ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, seed),
            faults: None,
            checkpoint_at_waiting: None,
            expect: Expect {
                evictions: Want::Positive,
                cached_prefix_tokens: Want::Zero,
                faults: Want::Zero,
            },
        })
    }

    /// 4 prefill + 4 decode LLaMA-7B wafers serving bursty chat sessions
    /// with shared system prompts, prefix-affinity routing and placement,
    /// runtime faults, and one checkpoint round trip at the arrival
    /// midpoint.
    fn disagg_chat(seed: u64) -> Result<Serving, String> {
        let (config, model) = (OuroborosConfig::single_wafer(), zoo::llama_7b());
        let pools = DisaggConfig::new(4, 4);
        let session = SessionConfig::chat(8, 0.7);
        // Prefill-pool capacity for the typical first-turn prompt.
        let prompt = LengthConfig::fixed(session.shared_prefix_tokens + session.user_turn_tokens, 0);
        let rate = 0.8 * capacity(&config, &model, &prompt)? * pools.prefill_wafers as f64;
        let trace = session.generate(DISAGG_CHAT_REQUESTS, seed);
        let timed = ArrivalConfig::Bursty { rate_rps: rate, cv: 4.0 }.assign(&trace, seed);
        let span_s = timed.last_arrival_s();
        let before_midpoint = timed.arrivals.iter().filter(|a| a.arrival_s < span_s / 2.0).count();
        Ok(Serving {
            config,
            model,
            deployment: Deployment::Disaggregated(pools),
            router: routers::prefix_affinity,
            placement: placements::prefix_affinity,
            faults: Some(FaultConfig::new(span_s, seed)),
            checkpoint_at_waiting: Some(timed.len() - before_midpoint),
            timed,
            // Faults evict, so evictions are not pinned here.
            expect: Expect {
                evictions: Want::Any,
                cached_prefix_tokens: Want::Positive,
                faults: Want::Positive,
            },
        })
    }

    /// Requests in the workload.
    pub fn requests(&self) -> usize {
        self.timed.len()
    }

    /// Wafers a routing decision chooses among, and wafers a placement
    /// decision chooses among (0 when colocated).
    pub fn pools(&self) -> (usize, usize) {
        match self.deployment {
            Deployment::Colocated { wafers } => (wafers, 0),
            Deployment::Disaggregated(d) => (d.prefill_wafers, d.decode_wafers),
        }
    }

    /// Whether the run goes through a checkpoint round trip.
    pub fn checkpoint_at_waiting(&self) -> Option<usize> {
        self.checkpoint_at_waiting
    }

    /// The scenario with the workload's policies, each passed through
    /// `wrap_router` / `wrap_placement` (the identity for untimed runs).
    pub fn scenario(
        &self,
        wrap_router: impl FnOnce(Box<dyn Router>) -> Box<dyn Router>,
        wrap_placement: impl FnOnce(Box<dyn Placement>) -> Box<dyn Placement>,
    ) -> Scenario {
        let scenario = Scenario::with_deployment(self.deployment)
            .router(wrap_router((self.router)()))
            .placement(wrap_placement((self.placement)()))
            .workload(self.timed.clone());
        match self.faults {
            Some(f) => scenario.faults(f),
            None => scenario,
        }
    }

    /// Builds the simulated system (the defect map and mapping anneal).
    pub fn system(&self) -> Result<OuroborosSystem, String> {
        OuroborosSystem::new(self.config.clone(), &self.model).map_err(|e| e.to_string())
    }

    /// The report of a straight run with no checkpoint, which the
    /// checkpointed runs must reproduce bit for bit.
    pub fn straight_report(&self) -> Result<RunReport, String> {
        self.scenario(|r| r, |p| p).run(&self.system()?).map_err(|e| e.to_string())
    }

    /// One untimed run: set-up, the event loop through the public
    /// `step_once`, the checkpoint round trip if the workload has one, and
    /// `finish`.
    pub fn run(&self, scenario: &Scenario) -> Result<ServingRun, String> {
        let window = heap::Window::open();
        let t = Instant::now();
        let system = self.system()?;
        let mut run = scenario.start(&system).map_err(|e| e.to_string())?;
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        if let Some(at) = self.checkpoint_at_waiting {
            while run.waiting() > at && run.step_once() {}
            let json = scenario.checkpoint(&run).to_json();
            drop(run);
            let snapshot = Snapshot::parse(&json)?;
            run = scenario.resume(&system, &snapshot).map_err(|e| e.to_string())?;
        }
        while run.step_once() {}
        let outcome = run.finish();
        let run_s = t.elapsed().as_secs_f64();
        Ok(ServingRun {
            outcome,
            setup_s,
            run_s,
            peak_heap_bytes: window.peak_bytes(),
            allocs: window.allocs(),
        })
    }

    /// The output checks every run must pass: request and KV-byte
    /// conservation, every engine's block audit, and the counts showing
    /// the workload exercised its intended layer.
    pub fn check(&self, outcome: &RunOutcome) -> Result<(), String> {
        let report = &outcome.report;
        let s = &report.serving;
        ensure(report.is_conserved(), "RunReport::is_conserved")?;
        ensure(report.kv_bytes_conserved(), "RunReport::kv_bytes_conserved")?;
        ensure(outcome.engines().iter().all(|e| e.kv_audit().is_conserved()), "kv_audit().is_conserved()")?;
        ensure(s.injected == self.requests(), "every request injected")?;
        self.expect.evictions.check("evictions", s.evictions)?;
        self.expect.cached_prefix_tokens.check("cached prefix tokens", s.cached_prefix_tokens)?;
        self.expect.faults.check("faults", report.faults.as_ref().map_or(0, |f| f.faults_injected))?;
        if let Some(m) = &report.migration {
            ensure(m.migrations == s.completed, "one migration per completed request")?;
        }
        Ok(())
    }
}

/// Steady-state request capacity of one wafer of the pinned system.
fn capacity(config: &OuroborosConfig, model: &ModelConfig, lengths: &LengthConfig) -> Result<f64, String> {
    let system = OuroborosSystem::new(config.clone(), model).map_err(|e| e.to_string())?;
    Ok(capacity_rps_estimate(system.stage_times(), lengths))
}

/// The offline figure path: the paper suite through `simulate_labeled`.
pub struct Replay {
    config: OuroborosConfig,
    model: ModelConfig,
    /// `(metric-safe label, display label, trace)` per suite configuration.
    pub traces: Vec<(String, String, Trace)>,
}

/// The host-time figures and reports of one untimed replay pass.
pub struct ReplayRun {
    pub reports: Vec<SystemReport>,
    pub setup_s: f64,
    pub run_s: f64,
    pub peak_heap_bytes: usize,
    pub allocs: u64,
}

impl Replay {
    /// LLaMA-13B on one paper wafer over the paper's four length
    /// configurations, 1000 requests each.
    fn paper(seed: u64) -> Replay {
        let traces = LengthConfig::paper_suite()
            .into_iter()
            .map(|(label, lengths)| {
                (metric_label(&label), label, TraceGenerator::new(seed).generate(&lengths, PAPER_REQUESTS))
            })
            .collect();
        Replay { config: OuroborosConfig::single_wafer(), model: zoo::llama_13b(), traces }
    }

    /// Requests replayed in one pass.
    pub fn requests(&self) -> usize {
        self.traces.iter().map(|(_, _, t)| t.len()).sum()
    }

    /// Builds the simulated system.
    pub fn system(&self) -> Result<OuroborosSystem, String> {
        OuroborosSystem::new(self.config.clone(), &self.model).map_err(|e| e.to_string())
    }

    /// One untimed pass: build the system, replay every configuration.
    pub fn run(&self) -> Result<ReplayRun, String> {
        let window = heap::Window::open();
        let t = Instant::now();
        let system = self.system()?;
        let setup_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let reports =
            self.traces.iter().map(|(_, label, trace)| system.simulate_labeled(trace, label)).collect();
        let run_s = t.elapsed().as_secs_f64();
        Ok(ReplayRun {
            reports,
            setup_s,
            run_s,
            peak_heap_bytes: window.peak_bytes(),
            allocs: window.allocs(),
        })
    }

    /// Every configuration produced a finite, positive throughput and
    /// energy over exactly the trace's output tokens.
    pub fn check(&self, reports: &[SystemReport]) -> Result<(), String> {
        ensure(reports.len() == self.traces.len(), "one report per configuration")?;
        for (r, (_, label, trace)) in reports.iter().zip(&self.traces) {
            ensure(r.workload == *label, "report carries its label")?;
            ensure(r.output_tokens == trace.total_decode_tokens().max(1), "output tokens match the trace")?;
            ensure(r.throughput_tokens_per_s.is_finite() && r.throughput_tokens_per_s > 0.0, "throughput")?;
            ensure(r.energy_per_token_j().is_finite() && r.energy_per_token_j() > 0.0, "energy per token")?;
        }
        Ok(())
    }
}

/// `"LP=128 LD=2048"` → `"lp128_ld2048"`, `"WikiText-2"` → `"wikitext2"`.
fn metric_label(label: &str) -> String {
    label
        .chars()
        .filter_map(|c| match c {
            ' ' => Some('_'),
            c if c.is_ascii_alphanumeric() => Some(c.to_ascii_lowercase()),
            _ => None,
        })
        .collect()
}

/// Geometric mean of positive values.
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}
