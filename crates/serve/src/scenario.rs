//! The `Scenario` builder: one composable run driver for every serving
//! experiment.
//!
//! The paper evaluates one system under many orthogonal conditions —
//! deployment shape, workload mix, runtime faults, KV sharing — and every
//! combination used to need its own bespoke entry point and report type.
//! A [`Scenario`] composes the conditions instead: pick a deployment
//! ([`Scenario::colocated`] or [`Scenario::disaggregated`]), attach a
//! timed workload, optionally swap the routing/placement policies
//! ([`crate::policy`]), optionally arm a fault plan, tune the engine and
//! SLO — then [`Scenario::run`] drives one shared discrete-event loop and
//! returns one [`RunReport`].
//!
//! The loop is the same for both deployment shapes: arrivals, engine
//! iterations, and faults share a single simulated timeline, with events
//! ordered by next-event time (ties toward the lowest global wafer index)
//! so every run is a pure function of its seeds. The shapes differ only in
//! what entry-pool completions mean — a colocated completion retires the
//! request, a prefill-pool completion ships the finished KV to a decode
//! wafer over the optical fabric and the decode side retires it.
//!
//! The per-stage logic of the loop lives in [`crate::stage`]; the driver
//! here owns only event arbitration. A run can also be held open as an
//! explicit [`RunState`] ([`Scenario::start`]), stepped event by event,
//! checkpointed mid-flight ([`Scenario::checkpoint`]) and resumed
//! ([`Scenario::resume`]) with a byte-identical final [`RunReport`].
//!
//! # Example
//!
//! ```
//! use ouro_sim::model::zoo;
//! use ouro_serve::{routers, Scenario, SloConfig};
//! use ouro_sim::{OuroborosConfig, OuroborosSystem};
//! use ouro_workload::{ArrivalConfig, LengthConfig, TraceGenerator};
//!
//! let system = OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap();
//! let trace = TraceGenerator::new(7).generate(&LengthConfig::fixed(64, 32), 32);
//! let timed = ArrivalConfig::Poisson { rate_rps: 100.0 }.assign(&trace, 7);
//! let report = Scenario::colocated(2)
//!     .router(routers::least_kv_load())
//!     .slo(SloConfig { ttft_s: 0.5, tpot_s: 0.05 })
//!     .workload(timed)
//!     .run(&system)
//!     .unwrap();
//! assert_eq!(report.serving.completed, 32);
//! assert!(report.is_conserved());
//! ```

use crate::engine::Engine;
use crate::fault::{fault_window_s, FaultConfig, FaultInjector};
use crate::metrics::{RunTotals, ServingReport, SloConfig};
use crate::policy::{placements, routers, Placement, Router};
use crate::report::{DeploymentInfo, MigrationStats, RunReport, SCHEMA_VERSION};
use crate::snapshot::{Snapshot, SnapshotError};
use crate::stage;
use crate::stage::migrate::MigrationTotals;
use ouro_kvcache::{KvError, KvManager};
use ouro_sim::noc::InterWaferLink;
use ouro_sim::OuroborosSystem;
use ouro_trace::{Analysis, Trace, TraceEvent, Tracer};
use ouro_workload::TimedTrace;
use std::sync::Arc;

/// The pool split of a disaggregated deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisaggConfig {
    /// Wafers dedicated to prefill.
    pub prefill_wafers: usize,
    /// Wafers dedicated to decode.
    pub decode_wafers: usize,
}

impl DisaggConfig {
    /// A prefill:decode pool split.
    pub fn new(prefill_wafers: usize, decode_wafers: usize) -> DisaggConfig {
        DisaggConfig { prefill_wafers, decode_wafers }
    }

    /// Total wafer count of the deployment.
    pub(crate) fn total_wafers(&self) -> usize {
        self.prefill_wafers + self.decode_wafers
    }
}

/// How the wafers of a scenario are organised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deployment {
    /// Every wafer holds a full replica serving both phases; the router
    /// spreads arrivals over all of them.
    Colocated {
        /// Number of replica wafers.
        wafers: usize,
    },
    /// DistServe-style phase split: prefill wafers run prompts in
    /// prefill-only mode and migrate the finished KV to decode wafers over
    /// the inter-wafer optical fabric.
    Disaggregated(DisaggConfig),
}

/// One composable serving experiment: deployment × workload × policies ×
/// faults × SLO, run through the shared discrete-event loop.
///
/// Build with [`Scenario::colocated`] or [`Scenario::disaggregated`],
/// chain the setters, then call [`Scenario::run`] (or
/// [`Scenario::run_full`] to also inspect post-run engine state). A
/// scenario is reusable: `run` clones its policy objects, so running the
/// same scenario twice yields byte-identical reports. Clones and runs share
/// one copy of the workload.
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) deployment: Deployment,
    pub(crate) workload: Option<Arc<TimedTrace>>,
    pub(crate) router: Box<dyn Router>,
    pub(crate) placement: Box<dyn Placement>,
    pub(crate) prefix_caching: bool,
    pub(crate) slo: SloConfig,
    pub(crate) fault: Option<FaultConfig>,
    pub(crate) trace: bool,
}

impl Scenario {
    /// A colocated deployment of `wafers` full replicas. Defaults:
    /// least-KV-load routing, prefix caching on, an always-met SLO
    /// (goodput equals throughput until [`Scenario::slo`] is set), no
    /// faults.
    pub fn colocated(wafers: usize) -> Scenario {
        assert!(wafers > 0, "a colocated deployment needs at least one wafer");
        Scenario::new(Deployment::Colocated { wafers }, routers::least_kv_load())
    }

    /// A disaggregated deployment with `prefill_wafers` prefill and
    /// `decode_wafers` decode wafers. Defaults: join-shortest-queue
    /// routing over the prefill pool, least-KV-load decode placement, and
    /// otherwise as [`Scenario::colocated`].
    pub fn disaggregated(prefill_wafers: usize, decode_wafers: usize) -> Scenario {
        assert!(prefill_wafers > 0, "disaggregation needs at least one prefill wafer");
        assert!(decode_wafers > 0, "disaggregation needs at least one decode wafer");
        Scenario::new(
            Deployment::Disaggregated(DisaggConfig::new(prefill_wafers, decode_wafers)),
            routers::join_shortest_queue(),
        )
    }

    /// A scenario over an explicit [`Deployment`] value.
    pub fn with_deployment(deployment: Deployment) -> Scenario {
        match deployment {
            Deployment::Colocated { wafers } => Scenario::colocated(wafers),
            Deployment::Disaggregated(cfg) => Scenario::disaggregated(cfg.prefill_wafers, cfg.decode_wafers),
        }
    }

    fn new(deployment: Deployment, router: Box<dyn Router>) -> Scenario {
        Scenario {
            deployment,
            workload: None,
            router,
            placement: placements::least_kv_load(),
            prefix_caching: true,
            slo: SloConfig { ttft_s: f64::INFINITY, tpot_s: f64::INFINITY },
            fault: None,
            trace: false,
        }
    }

    /// Sets the timed workload (trace + arrival process) the run serves,
    /// every arrival of it, to the end.
    pub fn workload(mut self, timed: TimedTrace) -> Scenario {
        self.workload = Some(Arc::new(timed));
        self
    }

    /// Swaps the routing policy over the entry pool (all wafers when
    /// colocated, the prefill pool when disaggregated).
    pub fn router(mut self, router: Box<dyn Router>) -> Scenario {
        self.router = router;
        self
    }

    /// Swaps the decode-placement policy (disaggregated deployments only;
    /// ignored by colocated runs).
    pub fn placement(mut self, placement: Box<dyn Placement>) -> Scenario {
        self.placement = placement;
        self
    }

    /// Toggles shared-prefix KV caching on every engine (on by default):
    /// requests tagged with a [`ouro_workload::SharedPrefix`] share the
    /// whole-block portion of their common prompt prefix and are charged
    /// prefill only for the uncached suffix. Off turns every prompt cold.
    pub fn prefix_caching(mut self, enabled: bool) -> Scenario {
        self.prefix_caching = enabled;
        self
    }

    /// Sets the latency SLO goodput is measured against.
    pub fn slo(mut self, slo: SloConfig) -> Scenario {
        self.slo = slo;
        self
    }

    /// Arms a runtime fault plan: a seeded MTBF process over every wafer
    /// of the deployment, interleaved on the serving timeline and healed
    /// by replacement-chain remaps. The fault window is twice the arrival
    /// span, at least one second ([`fault_window_s`]).
    pub fn faults(mut self, config: FaultConfig) -> Scenario {
        self.fault = Some(config);
        self
    }

    /// Toggles request-lifecycle tracing: every engine (and the driver)
    /// records typed events into per-wafer ring sinks, merged into the
    /// [`RunOutcome`]'s [`Trace`] after the run. Strictly observational —
    /// a traced run returns a bit-identical [`RunReport`] to an untraced
    /// one. Off by default (and costless when off).
    pub fn trace(mut self, enabled: bool) -> Scenario {
        self.trace = enabled;
        self
    }

    /// The configured deployment.
    #[cfg(test)]
    pub(crate) fn deployment(&self) -> Deployment {
        self.deployment
    }

    /// Runs the scenario against replicas of `system` and returns the
    /// unified report.
    ///
    /// # Errors
    ///
    /// Propagates [`KvError::NoKvCores`] when the deployment leaves no KV
    /// cores.
    ///
    /// # Panics
    ///
    /// Panics when no workload was set.
    pub fn run(&self, system: &OuroborosSystem) -> Result<RunReport, KvError> {
        Ok(self.run_full(system)?.report)
    }

    /// Like [`Scenario::run`], but also hands back the post-run engine
    /// state, and the lifecycle trace when armed, for invariant checks
    /// (block audits, per-wafer record counts, migration timing).
    ///
    /// # Errors
    ///
    /// Propagates [`KvError::NoKvCores`] when the deployment leaves no KV
    /// cores.
    ///
    /// # Panics
    ///
    /// Panics when no workload was set.
    pub fn run_full(&self, system: &OuroborosSystem) -> Result<RunOutcome, KvError> {
        let mut run = self.start(system)?;
        run.run_to_end();
        Ok(run.finish())
    }

    /// Starts the scenario against replicas of `system` without driving
    /// it: the returned [`RunState`] is the run's complete simulator
    /// state, advanced explicitly via [`RunState::step_once`] /
    /// [`RunState::run_until`] / [`RunState::run_to_end`] and closed with
    /// [`RunState::finish`]. `start → run_to_end → finish` is exactly
    /// [`Scenario::run_full`].
    ///
    /// # Errors
    ///
    /// Propagates [`KvError::NoKvCores`] when the deployment leaves no KV
    /// cores.
    ///
    /// # Panics
    ///
    /// Panics when no workload was set.
    pub fn start(&self, system: &OuroborosSystem) -> Result<RunState, KvError> {
        let total = self.total_wafers();
        let engines = (0..total)
            .map(|wafer| Ok(self.wafer_engine(system, wafer, KvManager::new(system.serve_kv_config())?)))
            .collect::<Result<_, KvError>>()?;
        let window_s = fault_window_s(self.timed());
        let injector = self.fault.map(|cfg| FaultInjector::new(system, total, cfg, window_s));
        Ok(RunState::new(self, system, engines, injector))
    }

    /// The timed workload of a run.
    ///
    /// # Panics
    ///
    /// Panics when no workload was set.
    pub(crate) fn timed(&self) -> &TimedTrace {
        self.workload.as_deref().expect("Scenario needs a workload: call .workload(timed) first")
    }

    /// Wafers of the whole deployment.
    pub(crate) fn total_wafers(&self) -> usize {
        match self.deployment {
            Deployment::Colocated { wafers } => wafers,
            Deployment::Disaggregated(cfg) => cfg.total_wafers(),
        }
    }

    /// Wafers of the prefill pool, the first of the deployment: none when
    /// colocated.
    pub(crate) fn prefill_wafers(&self) -> usize {
        match self.deployment {
            Deployment::Colocated { .. } => 0,
            Deployment::Disaggregated(cfg) => cfg.prefill_wafers,
        }
    }

    /// An idle engine over `manager` for `wafer` of the deployment, its
    /// tracer armed when the scenario traces.
    pub(crate) fn wafer_engine(&self, system: &OuroborosSystem, wafer: usize, manager: KvManager) -> Engine {
        let mut engine = Engine::with_manager(system.stage_times().clone(), manager, self.prefix_caching);
        if self.trace {
            engine.set_tracer(Tracer::ring(wafer));
        }
        engine
    }

    /// Captures a mid-run checkpoint of `run`: the arrival cursor, every
    /// engine's records, pending queue, active set and KV manager, the
    /// policy state, the running migration totals and the fault injector
    /// — together the *complete* simulator state. Resuming the snapshot
    /// via [`Scenario::resume`] and driving to the end produces a
    /// byte-identical [`RunReport`] to the uninterrupted run.
    ///
    /// Tracing is deliberately *not* captured: it is an observational
    /// sink that never feeds back into the simulation, and a resumed run
    /// restarts it empty.
    pub fn checkpoint(&self, run: &RunState) -> Snapshot {
        crate::snapshot::capture(self, run)
    }

    /// Rebuilds a [`RunState`] from a [`Scenario::checkpoint`] snapshot
    /// against replicas of `system`, continuing the identical simulation.
    ///
    /// # Errors
    ///
    /// Returns the [`SnapshotError`] of the first state that does not fit:
    /// a config hash that differs from this scenario's (it guards against
    /// resuming foreign state), a different number of wafers, fault state
    /// the scenario's fault config or deployment does not match, an index
    /// past the workload or the deployment, a sequence id past its
    /// engine's submissions, a local pending row carrying wire tokens, an
    /// imported pending row whose wire tokens exceed its prompt, pending
    /// rows whose token sum overflows a `usize` (the wire-token sum is
    /// bounded by it and has no check of its own), KV rows that do not fit
    /// `system` or hold a state no KV manager holds
    /// ([`crate::SnapshotErrorKind::Kv`], listed at `KvManager::restore`),
    /// an active set that is not the resident set, an active row whose
    /// progress differs from its resident KV, or an arrival cursor that
    /// differs from the requests the engines hold (finished, queued,
    /// resident or dropped). What a snapshot leaves out is derived, so it
    /// cannot disagree.
    ///
    /// # Panics
    ///
    /// Panics when the scenario has no workload, as [`Scenario::start`]
    /// does.
    pub fn resume(&self, system: &OuroborosSystem, snapshot: &Snapshot) -> Result<RunState, SnapshotError> {
        crate::snapshot::rebuild(self, system, snapshot)
    }

    fn deployment_info(&self) -> DeploymentInfo {
        match self.deployment {
            Deployment::Colocated { wafers } => DeploymentInfo {
                kind: "colocated".to_string(),
                wafers,
                prefill_wafers: 0,
                decode_wafers: 0,
                router: self.router.name(),
                placement: None,
            },
            Deployment::Disaggregated(cfg) => DeploymentInfo {
                kind: "disaggregated".to_string(),
                wafers: cfg.total_wafers(),
                prefill_wafers: cfg.prefill_wafers,
                decode_wafers: cfg.decode_wafers,
                router: self.router.name(),
                placement: Some(self.placement.name()),
            },
        }
    }
}

/// A finished scenario run: the unified report plus the post-run engine
/// state, for tests that assert engine-level invariants.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The unified report of the run.
    pub report: RunReport,
    trace: Option<Trace>,
    engines: Vec<Engine>,
    prefill_wafers: usize,
}

impl RunOutcome {
    /// Every engine in global wafer order (prefill pool first for
    /// disaggregated deployments).
    pub fn engines(&self) -> &[Engine] {
        &self.engines
    }

    /// The decode-side engines: the decode pool for disaggregated
    /// deployments, every engine for colocated ones (which have no
    /// prefill pool).
    pub fn decode_engines(&self) -> &[Engine] {
        &self.engines[self.prefill_wafers..]
    }

    /// The merged lifecycle trace (`None` unless [`Scenario::trace`] was
    /// armed).
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The post-hoc latency attribution and utilization analysis of the
    /// run, reconstructed from the merged trace (`None` unless
    /// [`Scenario::trace`] was armed). Strictly observational: reads the
    /// finished run's records and never feeds back into the report.
    pub fn analysis(&self) -> Option<Analysis> {
        self.trace.as_ref().map(Analysis::from_run)
    }
}

/// The complete mutable state of one in-flight scenario run: the driver
/// (arrival cursor, engines, policies, migration totals, fault
/// injector). Produced by [`Scenario::start`],
/// advanced by [`RunState::step_once`] / [`RunState::run_until`] /
/// [`RunState::run_to_end`], closed by [`RunState::finish`], and captured
/// whole by [`Scenario::checkpoint`].
#[derive(Debug)]
pub struct RunState {
    pub(crate) driver: Driver,
    /// The configuration the run was started from (cloned, so the state
    /// stays self-contained, with the workload shared); the loop, `finish`
    /// and `checkpoint` read it.
    pub(crate) scenario: Scenario,
}

/// The next event of a run, as decided by `RunState::next_event`.
#[derive(Debug, Clone, Copy)]
enum Next {
    /// Inject the pending fault into this wafer.
    Fault(usize),
    /// Step this engine by one iteration.
    Engine(usize),
    /// Route the trace's next arrival.
    Arrival,
}

impl RunState {
    /// Assembles a run over `engines` (one per wafer, from
    /// `Scenario::wafer_engine`) and `injector`, with no arrival routed.
    /// The one construction path of [`Scenario::start`] and
    /// [`Scenario::resume`]; a resume then overwrites the driver state its
    /// snapshot restores.
    pub(crate) fn new(
        scenario: &Scenario,
        system: &OuroborosSystem,
        engines: Vec<Engine>,
        injector: Option<FaultInjector>,
    ) -> RunState {
        RunState { driver: Driver::new(scenario, system, engines, injector), scenario: scenario.clone() }
    }

    /// The one decision of the event loop: the instant and kind of the
    /// earliest pending event, or `None` once the run is drained (no
    /// arrivals, engine work or faults left). A fault fires when none of
    /// the others is earlier (`FaultInjector::due_fault`), and the
    /// injector's wafer index space is global, so a fault can strike
    /// either side of a disaggregation split. An arrival is routed once
    /// every busy engine has simulated past it (an engine event at the
    /// same instant waits), so routing sees current state.
    fn next_event(&self) -> Option<(f64, Next)> {
        let arrival = self.scenario.timed().arrivals.get(self.driver.routed).map(|r| r.arrival_s);
        let engine = self.driver.next_event_engine();
        if let Some(inj) = &self.driver.injector {
            if let Some((t, wafer)) = inj.due_fault(arrival, engine.map(|(_, t)| t)) {
                return Some((t, Next::Fault(wafer)));
            }
        }
        match (arrival, engine) {
            (Some(t_arr), Some((i, t))) if t < t_arr => Some((t, Next::Engine(i))),
            (Some(t_arr), _) => Some((t_arr, Next::Arrival)),
            (None, Some((i, t))) => Some((t, Next::Engine(i))),
            (None, None) => None,
        }
    }

    /// Processes the single earliest pending event — one fault injection,
    /// one engine iteration, or one arrival routing — exactly as the
    /// uninterrupted loop would. Returns `false` once the run is drained
    /// (no arrivals, engine work or faults left); calling it again then is
    /// a no-op.
    pub fn step_once(&mut self) -> bool {
        let Some((_, next)) = self.next_event() else { return false };
        self.process(next);
        true
    }

    /// Processes `next`, the event [`RunState::next_event`] just decided.
    fn process(&mut self, next: Next) {
        let d = &mut self.driver;
        match next {
            Next::Fault(wafer) => {
                let inj = d.injector.as_mut().expect("only an armed injector has a due fault");
                inj.inject(wafer, &mut d.engines[wafer]);
            }
            Next::Engine(i) => d.step_engine(i),
            Next::Arrival => stage::arrival::route_next(d, self.scenario.timed()),
        }
    }

    /// Drives the run until the next pending event would be at or past
    /// `t_s` (or the run drains). The state left behind is exactly the
    /// uninterrupted run's state at that event boundary, so
    /// `run_until(t)` → [`Scenario::checkpoint`] → [`Scenario::resume`] →
    /// [`RunState::run_to_end`] reproduces the full run byte-for-byte, and
    /// `run_until(t)` → [`RunState::finish`] reports the run stopped at `t`,
    /// with its unfinished work queued or in flight.
    pub fn run_until(&mut self, t_s: f64) {
        while let Some((_, next)) = self.next_event().filter(|&(next_s, _)| next_s < t_s) {
            self.process(next);
        }
    }

    /// Drives the run until it drains: every arrival of the workload is
    /// served or dropped.
    pub fn run_to_end(&mut self) {
        while self.step_once() {}
    }

    /// Every engine in global wafer order, for mid-run invariant checks.
    pub fn engines(&self) -> &[Engine] {
        &self.driver.engines
    }

    /// Requests retired so far (decode-side completions): every engine's
    /// records, since only the decode side finishes a request.
    pub fn completed(&self) -> u64 {
        self.driver.engines.iter().map(|e| e.records().len() as u64).sum()
    }

    /// Requests not yet handed to any engine: the trace's arrivals past the
    /// cursor.
    pub fn waiting(&self) -> usize {
        self.scenario.timed().len() - self.driver.routed
    }

    /// Closes the run: assembles the unified report and merges the
    /// lifecycle trace.
    pub fn finish(self) -> RunOutcome {
        let RunState { driver, scenario } = self;
        let timed = scenario.timed();
        // The run's end instant: the engine-clock frontier, at least the
        // last routed arrival. A run stopped early ends there, not at
        // arrivals it never reached.
        let last_routed_s = timed.arrivals[..driver.routed].iter().map(|a| a.arrival_s).fold(0.0, f64::max);
        let end_s = driver.engines.iter().map(Engine::clock_s).fold(last_routed_s, f64::max);
        let report = driver.report(timed, &scenario.slo, end_s, scenario.deployment_info());
        let trace = scenario.trace.then(|| {
            // Per-wafer engine streams (in global wafer order) plus the
            // driver's own stream (arrivals, migrations); the merge sorts
            // by time with stream order breaking ties.
            let mut streams: Vec<(&[TraceEvent], u64)> =
                driver.engines.iter().map(|e| (e.tracer().events(), e.tracer().dropped())).collect();
            streams.push((driver.tracer.events(), driver.tracer.dropped()));
            Trace::from_streams(&streams)
        });
        RunOutcome { report, trace, prefill_wafers: driver.prefill_wafers, engines: driver.engines }
    }
}

/// The shared discrete-event loop both deployment shapes run through.
#[derive(Debug)]
pub(crate) struct Driver {
    /// All engines in global wafer order: for disaggregated deployments
    /// wafers `0..prefill_wafers` are the prefill pool and the rest the
    /// decode pool (the fault injector's wafer index space matches).
    pub(crate) engines: Vec<Engine>,
    /// Wafers of the prefill pool: 0 for a colocated deployment, at least
    /// one for a disaggregated one, so it also tells the shapes apart.
    pub(crate) prefill_wafers: usize,
    pub(crate) router: Box<dyn Router>,
    pub(crate) placement: Box<dyn Placement>,
    pub(crate) link: InterWaferLink,
    pub(crate) kv_bytes_per_token: u64,
    pub(crate) migrations: MigrationTotals,
    /// The driver's own event stream: arrivals and migration endpoints,
    /// stamped onto the wafer they concern via `emit_for`.
    pub(crate) tracer: Tracer,
    /// The arrival cursor: trace arrivals routed so far, and so the index
    /// of the next one.
    pub(crate) routed: usize,
    /// The armed fault plan: each wafer's fault stream and remap state.
    pub(crate) injector: Option<FaultInjector>,
}

impl Driver {
    /// The one constructor: a fresh driver over `engines` (one per wafer
    /// of `scenario`'s deployment). A resume overwrites the policy state,
    /// migration totals and counters it restores.
    fn new(
        scenario: &Scenario,
        system: &OuroborosSystem,
        engines: Vec<Engine>,
        injector: Option<FaultInjector>,
    ) -> Driver {
        Driver {
            engines,
            prefill_wafers: scenario.prefill_wafers(),
            router: scenario.router.clone(),
            placement: scenario.placement.clone(),
            link: system.stage_times().inter_wafer_link(),
            kv_bytes_per_token: system.kv_migration_bytes(1),
            migrations: MigrationTotals::default(),
            tracer: if scenario.trace { Tracer::ring(0) } else { Tracer::off() },
            routed: 0,
            injector,
        }
    }

    /// The engine whose next event is earliest, by one scan over the
    /// engines with work; ties resolve toward the lowest global wafer
    /// index, so runs are deterministic. Ordering by next event — not raw
    /// clock — matters: stepping an idle engine commits its clock to its
    /// earliest admissible pending, so it must wait its global turn or an
    /// engine at an earlier simulated time could still announce a
    /// migration that lands sooner, which would then be admitted late (see
    /// [`Engine::next_event_s`]).
    pub(crate) fn next_event_engine(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, e) in self.engines.iter().enumerate() {
            // Read before the work check: asking every engine, idle ones
            // too, measured faster on 32 wafers than skipping them first.
            let event_s = e.next_event_s();
            if !e.has_work() {
                continue;
            }
            if best.is_none_or(|(_, b)| event_s.total_cmp(&b).is_lt()) {
                best = Some((i, event_s));
            }
        }
        best
    }

    /// Advances one engine by one iteration. Entry-pool completions of a
    /// disaggregated run become KV migrations ([`crate::stage::migrate`]);
    /// all other completions retire the request, as the engine's records.
    pub(crate) fn step_engine(&mut self, i: usize) {
        let completions = self.engines[i].step();
        if i < self.prefill_wafers {
            for done in completions {
                stage::migrate::migrate(self, i, done);
            }
        }
    }

    /// Assembles the unified report. Only the decode side finishes a
    /// request, so every engine's records are the finished requests (a
    /// disaggregated one carries its original arrival across the
    /// migration), and every routed arrival is injected; KV migration
    /// accounting is reconciled against both pools' managers.
    fn report(
        &self,
        timed: &TimedTrace,
        slo: &SloConfig,
        end_s: f64,
        deployment: DeploymentInfo,
    ) -> RunReport {
        // A colocated run has no prefill pool, so every engine is on the
        // decode side.
        let (prefill, decode) = self.engines.split_at(self.prefill_wafers);
        let queued: usize = self.engines.iter().map(Engine::queue_len).sum();
        let in_flight: usize = self.engines.iter().map(Engine::resident).sum();
        let dropped: usize = self.engines.iter().map(|e| e.stats().dropped as usize).sum();
        let evictions: u64 = self.engines.iter().map(|e| e.stats().evictions).sum();
        let prefilled_tokens: u64 = self.engines.iter().map(|e| e.stats().prefilled_tokens).sum();
        let cached_prefix_tokens: u64 = self.engines.iter().map(|e| e.stats().cached_prefix_tokens).sum();
        // Degenerate runs (no arrivals) end at `end_s == 0`: guard the span
        // like `metrics.rs` does so per-wafer busy fractions — and with them
        // `utilization` — stay finite in every report.
        let util = |engines: &[Engine]| -> f64 {
            if engines.is_empty() {
                return 0.0;
            }
            let span = end_s.max(1e-12);
            engines.iter().map(|e| e.busy_s().min(end_s) / span).sum::<f64>() / engines.len() as f64
        };
        let (utilization, migration) = if prefill.is_empty() {
            (util(decode), None)
        } else {
            let prefill_utilization = util(prefill);
            let decode_utilization = util(decode);
            let utilization = (prefill_utilization * prefill.len() as f64
                + decode_utilization * decode.len() as f64)
                / self.engines.len() as f64;

            let exported_tokens: u64 = prefill.iter().map(|e| e.kv_transfers().exported_tokens).sum();
            let imported_tokens: u64 = decode.iter().map(|e| e.kv_transfers().imported_tokens).sum();
            let in_flight_tokens: u64 = decode.iter().map(|e| e.pending_imported_tokens() as u64).sum();
            let dropped_tokens: u64 = decode.iter().map(|e| e.stats().dropped_imported_tokens).sum();
            let totals = &self.migrations;
            let stats = MigrationStats {
                migrations: totals.count as usize,
                migrated_tokens: totals.wire_tokens,
                exported_kv_bytes: exported_tokens * self.kv_bytes_per_token,
                imported_kv_bytes: imported_tokens * self.kv_bytes_per_token,
                in_flight_kv_bytes: in_flight_tokens * self.kv_bytes_per_token,
                dropped_kv_bytes: dropped_tokens * self.kv_bytes_per_token,
                deduped_kv_bytes: totals.deduped_tokens * self.kv_bytes_per_token,
                mean_migration_s: if totals.count == 0 {
                    0.0
                } else {
                    totals.transit_s / totals.count as f64
                },
                max_migration_s: totals.max_transit_s,
                link_energy_j: totals.energy_j,
                prefill_utilization,
                decode_utilization,
            };
            (utilization, Some(stats))
        };

        let serving = ServingReport::from_records(
            self.engines.iter().flat_map(Engine::records),
            slo,
            Some(timed.config.offered_rps()),
            RunTotals {
                injected: self.routed,
                queued_at_horizon: queued,
                in_flight_at_horizon: in_flight,
                dropped,
                evictions,
                prefilled_tokens,
                cached_prefix_tokens,
                duration_s: end_s,
                utilization,
            },
        );
        let faults = self.injector.as_ref().map(|inj| inj.report(&self.engines, serving.duration_s));
        RunReport { schema_version: SCHEMA_VERSION, deployment, serving, migration, faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Admission;
    use crate::policy::{placements, routers};
    use ouro_sim::model::zoo;
    use ouro_sim::OuroborosConfig;
    use ouro_trace::EventKind;
    use ouro_workload::Request;
    use ouro_workload::{ArrivalConfig, LengthConfig, SessionConfig, TraceGenerator};

    fn tiny_system() -> OuroborosSystem {
        OuroborosSystem::new(OuroborosConfig::tiny_for_tests(), &zoo::bert_large()).unwrap()
    }

    fn slo() -> SloConfig {
        SloConfig { ttft_s: 0.5, tpot_s: 0.05 }
    }

    fn timed(n: usize, rate: f64, seed: u64) -> TimedTrace {
        let trace = TraceGenerator::new(seed).generate(&LengthConfig::fixed(64, 32), n);
        ArrivalConfig::Poisson { rate_rps: rate }.assign(&trace, seed)
    }

    /// One KV migration read off a traced run's `migrate_start` and
    /// `migrate_arrive` events.
    #[derive(Debug, Clone, Copy)]
    struct TracedMigration {
        id: usize,
        start_s: f64,
        arrive_s: f64,
    }

    /// Every migration of a run armed with [`Scenario::trace`], in
    /// announce order.
    fn traced_migrations(outcome: &RunOutcome) -> Vec<TracedMigration> {
        let events = outcome.trace().expect("the run was traced").events();
        let arrive_s = |id| {
            events
                .iter()
                .find(|ev| ev.req == Some(id) && matches!(ev.kind, EventKind::MigrateArrive { .. }))
                .map(|ev| ev.t_s)
                .expect("every announced migration lands")
        };
        events
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::MigrateStart { .. } => {
                    let id = ev.req.expect("a migration names its request");
                    Some(TracedMigration { id, start_s: ev.t_s, arrive_s: arrive_s(id) })
                }
                _ => None,
            })
            .collect()
    }

    /// A started colocated run over `wafers` idle engines whose one trace
    /// arrival comes long after the work a test submits to them directly.
    fn idle_run(sys: &OuroborosSystem, wafers: usize) -> RunState {
        use ouro_workload::TimedRequest;
        let late = TimedTrace {
            arrivals: vec![TimedRequest { request: Request::new(0, 16, 4), arrival_s: 100.0 }],
            config: ArrivalConfig::Poisson { rate_rps: 1.0 },
            seed: 0,
        };
        Scenario::colocated(wafers).slo(slo()).workload(late).start(sys).unwrap()
    }

    /// The wafer and instant of each of `run`'s next `n` engine steps, in
    /// the order the event loop takes them.
    fn engine_steps(run: &mut RunState, n: usize) -> Vec<(usize, f64)> {
        let mut steps = Vec::new();
        while steps.len() < n {
            let (t_s, next) = run.next_event().expect("the run has work left");
            if let Next::Engine(i) = next {
                steps.push((i, t_s));
            }
            run.process(next);
        }
        steps
    }

    // ---- event ordering ---------------------------------------------------

    #[test]
    fn engines_whose_next_events_tie_step_in_wafer_order() {
        let sys = tiny_system();
        let mut run = idle_run(&sys, 3);
        // Submitted highest wafer first, so neither submission order nor
        // any history of the driver's can stand in for the index.
        for wafer in (0..3).rev() {
            run.driver.engines[wafer].submit_with(Request::new(wafer, 64, 4), 0.0, Admission::Local, wafer);
        }
        assert_eq!(engine_steps(&mut run, 3), [(0, 0.0), (1, 0.0), (2, 0.0)]);
    }

    #[test]
    fn an_idle_engine_holding_an_unready_import_waits_for_its_ready_time() {
        // Both clocks read 0: ordered by clock, wafer 0 would step first and
        // commit its clock to the import's landing while wafer 1 still has
        // earlier work (see `Engine::next_event_s`).
        let sys = tiny_system();
        let mut run = idle_run(&sys, 2);
        let import = Admission::Imported { ready_s: 0.5, wire_tokens: 64 };
        run.driver.engines[0].submit_with(Request::new(0, 64, 4), 0.0, import, 0);
        run.driver.engines[1].submit_with(Request::new(1, 64, 4), 0.1, Admission::Local, 1);
        assert!(run.engines().iter().all(|e| e.clock_s() == 0.0));
        assert_eq!(engine_steps(&mut run, 1), [(1, 0.1)], "the local request is ready first");
        // Wafer 1 serves its request; wafer 0 first steps when its import lands.
        let first_import_step_s = loop {
            match engine_steps(&mut run, 1)[..] {
                [(0, t_s)] => break t_s,
                [(_, t_s)] => assert!(t_s < 0.5, "wafer 1 stepped at {t_s} s, past the landing"),
                _ => unreachable!("one step was asked for"),
            }
        };
        assert_eq!(first_import_step_s, 0.5);
    }

    // ---- colocated deployments -------------------------------------------

    #[test]
    fn colocated_scenario_completes_a_light_open_loop_workload() {
        let sys = tiny_system();
        let report = Scenario::colocated(2)
            .router(routers::round_robin())
            .slo(slo())
            .workload(timed(40, 50.0, 1))
            .run(&sys)
            .unwrap();
        assert_eq!(report.deployment.kind, "colocated");
        assert_eq!(report.deployment.router, "round-robin");
        assert_eq!(report.schema_version, SCHEMA_VERSION);
        assert!(report.migration.is_none() && report.faults.is_none());
        assert_eq!(report.serving.injected, 40);
        assert_eq!(report.serving.completed, 40);
        assert!(report.is_conserved());
        assert!(report.serving.ttft.count > 0);
        assert!(report.serving.achieved_rps > 0.0);
        assert!(report.serving.utilization > 0.0 && report.serving.utilization <= 1.0);
    }

    #[test]
    fn round_robin_spreads_requests_evenly() {
        let sys = tiny_system();
        let outcome = Scenario::colocated(4)
            .router(routers::round_robin())
            .slo(slo())
            .workload(timed(40, 100.0, 2))
            .run_full(&sys)
            .unwrap();
        assert!(outcome.report.is_conserved());
        for e in outcome.engines() {
            assert_eq!(e.records().len(), 10);
        }
    }

    #[test]
    fn same_seed_same_report_for_every_router() {
        // Regression for deterministic tie-breaking: JoinShortestQueue and
        // LeastKvLoad see frequent exact score ties (idle engines), which
        // must resolve identically run over run. A scenario is reusable:
        // rerunning it clones fresh policy state.
        let sys = tiny_system();
        for router in [
            routers::round_robin(),
            routers::join_shortest_queue(),
            routers::least_kv_load(),
            routers::prefix_affinity(),
        ] {
            let name = router.name();
            let scenario = Scenario::colocated(3).router(router).slo(slo()).workload(timed(90, 500.0, 17));
            assert_eq!(
                scenario.run(&sys).unwrap(),
                scenario.run(&sys).unwrap(),
                "{name} must be deterministic under a fixed seed"
            );
        }
    }

    #[test]
    fn score_ties_break_toward_the_lowest_wafer_index() {
        let sys = tiny_system();
        for router in [routers::join_shortest_queue(), routers::least_kv_load(), routers::prefix_affinity()] {
            let name = router.name();
            // All four engines are idle and identical: a perfect four-way tie.
            let trace = TraceGenerator::new(8).generate(&LengthConfig::fixed(16, 4), 1);
            let t = ArrivalConfig::Poisson { rate_rps: 10.0 }.assign(&trace, 8);
            let outcome =
                Scenario::colocated(4).router(router).slo(slo()).workload(t).run_full(&sys).unwrap();
            assert!(outcome.report.is_conserved());
            assert_eq!(outcome.engines()[0].records().len(), 1, "{name}: a full tie must route to wafer 0");
        }
    }

    #[test]
    fn horizon_truncates_and_conserves() {
        let sys = tiny_system();
        // Absurd overload stopped early: arrivals span ~10ms but the run
        // stops at 5ms, and 50k rps is far beyond one tiny wafer.
        let mut run = Scenario::colocated(1)
            .router(routers::round_robin())
            .slo(slo())
            .workload(timed(500, 50_000.0, 4))
            .start(&sys)
            .unwrap();
        run.run_until(0.005);
        let report = run.finish().report;
        let s = &report.serving;
        assert!(
            report.is_conserved(),
            "injected {} != completed {} + queued {} + in-flight {} + dropped {}",
            s.injected,
            s.completed,
            s.queued_at_horizon,
            s.in_flight_at_horizon,
            s.dropped
        );
        assert!(s.injected < 500, "stopping early must leave late arrivals unrouted");
        assert!(s.queued_at_horizon + s.in_flight_at_horizon > 0);
    }

    #[test]
    fn a_run_stopped_early_ends_at_its_own_frontier() {
        // `horizon_truncates_and_conserves`'s run: the report spans what the
        // run reached, the engine clocks and the last arrival it routed, not
        // the trace's last arrival at 0.00981 s.
        let sys = tiny_system();
        let t = timed(500, 50_000.0, 4);
        let scenario = Scenario::colocated(1).router(routers::round_robin()).slo(slo()).workload(t.clone());
        let mut run = scenario.start(&sys).unwrap();
        run.run_until(0.005);
        let last_routed_s = t.arrivals[t.len() - run.waiting() - 1].arrival_s;
        let end_s = run.engines().iter().map(Engine::clock_s).fold(last_routed_s, f64::max);
        let duration_s = run.finish().report.serving.duration_s;
        assert_eq!(duration_s, end_s);
        assert!(duration_s < t.last_arrival_s(), "{duration_s} s spans arrivals never routed");
    }

    #[test]
    fn prefix_affinity_steers_sharers_to_the_wafer_holding_their_prefix() {
        let sys = tiny_system();
        // One shared system prompt, every request on it, arrivals dense
        // enough that sharers overlap in the cache.
        let cfg = SessionConfig {
            groups: 1,
            shared_prefix_tokens: 256,
            share_ratio: 1.0,
            max_turns: 1,
            user_turn_tokens: 32,
            decode_tokens: 16,
        };
        let trace = cfg.generate(24, 21);
        let t = ArrivalConfig::Poisson { rate_rps: 2_000.0 }.assign(&trace, 21);
        let run = |router: Box<dyn Router>| {
            let outcome =
                Scenario::colocated(2).router(router).slo(slo()).workload(t.clone()).run_full(&sys).unwrap();
            let loads: Vec<usize> = outcome.engines().iter().map(|e| e.records().len()).collect();
            (outcome.report, loads)
        };
        let (affinity_report, affinity_loads) = run(routers::prefix_affinity());
        let (spread_report, _) = run(routers::join_shortest_queue());
        assert!(affinity_report.is_conserved() && spread_report.is_conserved());
        assert!(
            affinity_loads[0] > affinity_loads[1],
            "prefix affinity must concentrate sharers on the wafer holding the chain: \
             {affinity_loads:?}"
        );
        assert!(
            affinity_report.serving.cached_prefix_tokens >= spread_report.serving.cached_prefix_tokens,
            "affinity routing cannot hit the prefix cache less than spreading: {} vs {}",
            affinity_report.serving.cached_prefix_tokens,
            spread_report.serving.cached_prefix_tokens
        );
        assert!(affinity_report.serving.cached_prefix_tokens > 0, "overlapping sharers must hit the cache");
        assert!(
            affinity_report.serving.prefilled_tokens < spread_report.serving.prefilled_tokens,
            "prefix hits must cut total prefilled tokens"
        );
    }

    #[test]
    fn routers_route_differently_under_skew() {
        // One giant request pins wafer 0; LeastKvLoad steers followers away,
        // RoundRobin does not.
        let sys = tiny_system();
        let trace = {
            let mut t = TraceGenerator::new(5).generate(&LengthConfig::fixed(48, 24), 12);
            t.requests[0] = Request::new(0, 600, 200);
            t
        };
        let t = ArrivalConfig::Poisson { rate_rps: 5_000.0 }.assign(&trace, 5);
        let run = |router: Box<dyn Router>| {
            let outcome =
                Scenario::colocated(2).router(router).slo(slo()).workload(t.clone()).run_full(&sys).unwrap();
            let loads: Vec<usize> = outcome.engines().iter().map(|e| e.records().len()).collect();
            (outcome.report, loads)
        };
        let (rr_report, rr_loads) = run(routers::round_robin());
        let (lkv_report, lkv_loads) = run(routers::least_kv_load());
        assert!(rr_report.is_conserved() && lkv_report.is_conserved());
        assert_eq!(rr_loads, vec![6, 6], "round-robin splits 12 requests evenly");
        assert!(
            lkv_loads[0] < lkv_loads[1],
            "least-kv-load must shield the wafer pinned by the giant request: {lkv_loads:?}"
        );
    }

    // ---- disaggregated deployments ---------------------------------------

    #[test]
    fn disagg_scenario_serves_a_light_workload() {
        let sys = tiny_system();
        let report = Scenario::disaggregated(1, 1).slo(slo()).workload(timed(30, 50.0, 1)).run(&sys).unwrap();
        assert_eq!(report.deployment.kind, "disaggregated");
        assert_eq!(report.deployment.router, "join-shortest-queue");
        assert_eq!(report.deployment.placement.as_deref(), Some("least-kv-load"));
        assert_eq!(report.serving.injected, 30);
        assert_eq!(report.serving.completed, 30);
        assert!(report.is_conserved());
        let m = report.migration.expect("disaggregated runs report migration stats");
        assert_eq!(m.migrations, 30, "every request migrates exactly once");
        assert!(
            m.kv_bytes_conserved(),
            "exported {} != imported {}",
            m.exported_kv_bytes,
            m.imported_kv_bytes
        );
        assert_eq!(m.exported_kv_bytes, m.imported_kv_bytes);
        assert!(m.mean_migration_s > 0.0, "migrations take link time");
        assert!(m.link_energy_j > 0.0);
    }

    #[test]
    fn ttft_includes_prefill_queueing_and_migration() {
        let sys = tiny_system();
        let outcome = Scenario::disaggregated(1, 1)
            .slo(slo())
            .trace(true)
            .workload(timed(10, 100.0, 2))
            .run_full(&sys)
            .unwrap();
        let migrations = traced_migrations(&outcome);
        // First token can only appear after the migration lands.
        for m in &migrations {
            assert!(m.arrive_s > m.start_s);
        }
        assert!(outcome.report.serving.ttft.count > 0);
        assert!(outcome.report.serving.ttft.mean_s > migrations[0].arrive_s - migrations[0].start_s);
    }

    #[test]
    fn prefix_affinity_placement_dedupes_migration_bytes() {
        let sys = tiny_system();
        let cfg_trace = SessionConfig {
            groups: 1,
            shared_prefix_tokens: 256,
            share_ratio: 1.0,
            max_turns: 1,
            user_turn_tokens: 32,
            decode_tokens: 16,
        };
        let trace = cfg_trace.generate(20, 31);
        let t = ArrivalConfig::Poisson { rate_rps: 2_000.0 }.assign(&trace, 31);
        let run = |placement: Box<dyn Placement>| {
            Scenario::disaggregated(1, 2)
                .placement(placement)
                .slo(slo())
                .workload(t.clone())
                .run(&sys)
                .unwrap()
        };
        let affinity = run(placements::prefix_affinity());
        let spread = run(placements::least_kv_load());
        assert!(affinity.is_conserved() && spread.is_conserved());
        assert!(affinity.kv_bytes_conserved(), "dedup must keep the byte identity closed");
        assert!(spread.kv_bytes_conserved());
        let am = affinity.migration.unwrap();
        let sm = spread.migration.unwrap();
        assert!(
            am.deduped_kv_bytes > 0,
            "overlapping sharers placed on one wafer must skip resident prefix bytes"
        );
        assert!(
            am.imported_kv_bytes < am.exported_kv_bytes,
            "deduplicated migrations ship fewer bytes than were exported"
        );
        assert!(
            am.deduped_kv_bytes >= sm.deduped_kv_bytes,
            "prefix-affinity placement cannot dedup less than load-based placement: {} vs {}",
            am.deduped_kv_bytes,
            sm.deduped_kv_bytes
        );
        // Determinism of the prefix-aware run.
        assert_eq!(run(placements::prefix_affinity()), affinity);
    }

    #[test]
    fn same_seed_same_disagg_report_for_every_placement() {
        let sys = tiny_system();
        for placement in [placements::least_kv_load(), placements::prefix_affinity()] {
            let name = placement.name();
            let scenario =
                Scenario::disaggregated(2, 2).placement(placement).slo(slo()).workload(timed(60, 400.0, 3));
            assert_eq!(
                scenario.run(&sys).unwrap(),
                scenario.run(&sys).unwrap(),
                "{name} must be deterministic under a fixed seed"
            );
        }
    }

    #[test]
    fn disagg_horizon_truncates_and_conserves_requests_and_bytes() {
        let sys = tiny_system();
        let mut run =
            Scenario::disaggregated(1, 1).slo(slo()).workload(timed(300, 20_000.0, 4)).start(&sys).unwrap();
        run.run_until(0.004);
        let report = run.finish().report;
        let s = &report.serving;
        assert!(
            report.is_conserved(),
            "injected {} != completed {} + queued {} + in-flight {} + dropped {}",
            s.injected,
            s.completed,
            s.queued_at_horizon,
            s.in_flight_at_horizon,
            s.dropped
        );
        assert!(report.kv_bytes_conserved());
        assert!(s.injected < 300, "stopping early must leave late arrivals unrouted");
        assert!(s.queued_at_horizon + s.in_flight_at_horizon > 0);
    }

    #[test]
    fn placement_policies_spread_load_under_pressure() {
        let sys = tiny_system();
        for placement in [placements::least_kv_load(), placements::prefix_affinity()] {
            let name = placement.name();
            let outcome = Scenario::disaggregated(1, 2)
                .placement(placement)
                .slo(slo())
                .workload(timed(80, 2_000.0, 6))
                .run_full(&sys)
                .unwrap();
            assert!(outcome.report.is_conserved());
            let counts: Vec<usize> = outcome.decode_engines().iter().map(|e| e.records().len()).collect();
            assert!(
                counts.iter().all(|&c| c > 0),
                "{name} must use every decode wafer under sustained load: {counts:?}"
            );
        }
    }

    #[test]
    fn early_landing_migration_is_not_stranded_by_a_prior_announcement() {
        use ouro_workload::TimedRequest;
        let sys = tiny_system();
        let mk_trace = |arrivals: Vec<TimedRequest>| TimedTrace {
            arrivals,
            config: ArrivalConfig::Poisson { rate_rps: 1.0 },
            seed: 0,
        };
        let run = |arrivals| {
            Scenario::disaggregated(2, 1)
                .slo(slo())
                .trace(true)
                .workload(mk_trace(arrivals))
                .run_full(&sys)
                .unwrap()
        };
        // Probe: when does a lone 1500-token prefill announce its migration?
        let probe = run(vec![TimedRequest { request: Request::new(0, 1500, 4), arrival_s: 0.0 }]);
        let announce_s = traced_migrations(&probe)[0].start_s;

        // A tiny request arrives just after the bulk migration is announced:
        // its prefill finishes — and its small migration lands — while the
        // 1500-token transfer is still serialising. The decode engine must
        // not have committed its clock to the bulk landing in the meantime.
        let outcome = run(vec![
            TimedRequest { request: Request::new(0, 1500, 4), arrival_s: 0.0 },
            TimedRequest { request: Request::new(1, 32, 4), arrival_s: announce_s * 1.000_001 },
        ]);
        let migrations = traced_migrations(&outcome);
        let bulk = migrations.iter().find(|m| m.id == 0).copied().unwrap();
        let small = migrations.iter().find(|m| m.id == 1).copied().unwrap();
        assert!(
            small.arrive_s < bulk.arrive_s,
            "scenario guard: the small migration ({} s) must land before the bulk one ({} s)",
            small.arrive_s,
            bulk.arrive_s
        );
        // The small request's admission on the decode wafer, global wafer 2.
        let events = outcome.trace().expect("the run was traced").events();
        let admitted_s = events
            .iter()
            .find(|ev| ev.req == Some(1) && ev.wafer == 2 && matches!(ev.kind, EventKind::Admission { .. }))
            .expect("the small request is admitted on the decode wafer")
            .t_s;
        assert!(
            admitted_s < bulk.arrive_s,
            "the early-landing migration (landed {}) must be admitted before the bulk one lands \
             ({}), not at the decode engine's pre-committed clock: admitted {admitted_s}",
            small.arrive_s,
            bulk.arrive_s,
        );
    }

    #[test]
    fn decode_wafers_never_recompute_unless_evicted() {
        let sys = tiny_system();
        let outcome =
            Scenario::disaggregated(1, 1).slo(slo()).workload(timed(20, 100.0, 7)).run_full(&sys).unwrap();
        assert!(outcome.report.is_conserved());
        if outcome.report.serving.evictions == 0 {
            for e in outcome.decode_engines() {
                assert_eq!(e.stats().recomputed_tokens, 0, "imported KV must not be recomputed");
            }
        }
    }

    // ---- faults across both shapes ---------------------------------------

    #[test]
    fn faults_on_either_pool_conserve_requests_and_bytes() {
        let sys = tiny_system();
        let scenario = Scenario::disaggregated(2, 2)
            .slo(slo())
            .faults(FaultConfig::new(0.02, 8))
            .workload(timed(50, 400.0, 8));
        let report = scenario.run(&sys).unwrap();
        let faults = report.faults.as_ref().expect("a fault plan was armed");
        assert!(faults.faults_injected > 0, "a 20ms MTBF must fire during this run");
        assert!(faults.availability < 1.0);
        let s = &report.serving;
        assert!(
            report.is_conserved(),
            "faults must not lose requests: injected {} completed {} queued {} in-flight {} dropped {}",
            s.injected,
            s.completed,
            s.queued_at_horizon,
            s.in_flight_at_horizon,
            s.dropped
        );
        assert!(report.kv_bytes_conserved(), "migration bytes stay conserved under faults");
        // Identical seeds reproduce the whole degraded run.
        assert_eq!(scenario.run(&sys).unwrap(), report);
    }

    #[test]
    fn colocated_zero_fault_rate_matches_the_clean_run_metrics() {
        // An MTBF far beyond the window injects nothing; the fault-armed
        // scenario must then reproduce the clean scenario's serving metrics
        // exactly (only the fault section differs: empty vs absent).
        let sys = tiny_system();
        let t = timed(30, 200.0, 9);
        let base = Scenario::colocated(2).router(routers::round_robin()).slo(slo()).workload(t);
        let clean = base.clone().run(&sys).unwrap();
        let faulty = base.faults(FaultConfig::new(1e12, 9)).run(&sys).unwrap();
        assert_eq!(clean.serving, faulty.serving);
        let f = faulty.faults.unwrap();
        assert_eq!(f.faults_injected, 0);
        assert_eq!(f.availability, 1.0);
        assert!(clean.faults.is_none());
    }

    // ---- builder surface --------------------------------------------------

    #[test]
    fn prefix_caching_toggle_reaches_every_engine() {
        let sys = tiny_system();
        let cfg = SessionConfig {
            groups: 1,
            shared_prefix_tokens: 256,
            share_ratio: 1.0,
            max_turns: 1,
            user_turn_tokens: 32,
            decode_tokens: 16,
        };
        let trace = cfg.generate(16, 3);
        let t = ArrivalConfig::Poisson { rate_rps: 2_000.0 }.assign(&trace, 3);
        let run = |caching: bool| {
            Scenario::colocated(2).prefix_caching(caching).slo(slo()).workload(t.clone()).run(&sys).unwrap()
        };
        assert_eq!(run(false).serving.cached_prefix_tokens, 0);
        assert!(run(true).serving.cached_prefix_tokens > 0);
    }

    #[test]
    #[should_panic(expected = "needs a workload")]
    fn running_without_a_workload_panics_with_a_clear_message() {
        let sys = tiny_system();
        let _ = Scenario::colocated(1).run(&sys);
    }

    #[test]
    fn with_deployment_round_trips() {
        let d = Deployment::Disaggregated(DisaggConfig::new(2, 3));
        assert_eq!(Scenario::with_deployment(d).deployment(), d);
        let c = Deployment::Colocated { wafers: 4 };
        assert_eq!(Scenario::with_deployment(c).deployment(), c);
    }
}
