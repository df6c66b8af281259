//! The traced run: the same work as an untimed run, with host timers around
//! every public call into a layer and two forwarding policy decorators.
//! Nothing here reaches into the simulator; every number is either a timer
//! the benchmark holds or a counter the public API already exposes.

use crate::workload::{ensure, Replay, Serving};
use ouroboros::kvcache::KvScheduler;
use ouroboros::pipeline::{Granularity, PipelineScheduler};
use ouroboros::serve::{Engine, Placement, Router, RunState, Snapshot};
use ouroboros::workload::Request;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Calls, host time and candidates seen by one decorated policy. Shared by
/// every clone of the decorator, since `Scenario::start` clones policies.
#[derive(Debug, Default)]
pub struct CallStats {
    calls: AtomicU64,
    ns: AtomicU64,
    candidates: AtomicU64,
}

impl CallStats {
    // Statistics only: `Relaxed` publishes nothing else, and the benchmark
    // is single-threaded.
    fn record(&self, since: Instant, candidates: usize) {
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(since.elapsed().as_nanos() as u64, Relaxed);
        self.candidates.fetch_add(candidates as u64, Relaxed);
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }

    pub fn candidates(&self) -> u64 {
        self.candidates.load(Relaxed)
    }
}

/// A [`Router`] that times the built-in it wraps. It keeps the inner
/// policy's name, state and `Debug` form, so reports and snapshot config
/// hashes are those of the undecorated run.
pub struct TimedRouter {
    inner: Box<dyn Router>,
    stats: Arc<CallStats>,
}

impl TimedRouter {
    pub fn wrap(inner: Box<dyn Router>, stats: &Arc<CallStats>) -> Box<dyn Router> {
        Box::new(TimedRouter { inner, stats: Arc::clone(stats) })
    }
}

impl fmt::Debug for TimedRouter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl Router for TimedRouter {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn route(&mut self, engines: &[Engine], request: &Request) -> usize {
        let t = Instant::now();
        let wafer = self.inner.route(engines, request);
        self.stats.record(t, engines.len());
        wafer
    }

    fn clone_box(&self) -> Box<dyn Router> {
        TimedRouter::wrap(self.inner.clone_box(), &self.stats)
    }

    fn checkpoint_state(&self) -> u64 {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: u64) {
        self.inner.restore_state(state);
    }
}

/// The [`Placement`] counterpart of [`TimedRouter`].
pub struct TimedPlacement {
    inner: Box<dyn Placement>,
    stats: Arc<CallStats>,
}

impl TimedPlacement {
    pub fn wrap(inner: Box<dyn Placement>, stats: &Arc<CallStats>) -> Box<dyn Placement> {
        Box::new(TimedPlacement { inner, stats: Arc::clone(stats) })
    }
}

impl fmt::Debug for TimedPlacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl Placement for TimedPlacement {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn place(
        &mut self,
        decode: &[Engine],
        from_wafer: usize,
        prefill_wafers: usize,
        request: &Request,
    ) -> usize {
        let t = Instant::now();
        let wafer = self.inner.place(decode, from_wafer, prefill_wafers, request);
        self.stats.record(t, decode.len());
        wafer
    }

    fn clone_box(&self) -> Box<dyn Placement> {
        TimedPlacement::wrap(self.inner.clone_box(), &self.stats)
    }

    fn checkpoint_state(&self) -> u64 {
        self.inner.checkpoint_state()
    }

    fn restore_state(&mut self, state: u64) {
        self.inner.restore_state(state);
    }
}

/// Events of one kind and the host time spent in them.
#[derive(Debug, Default, Clone, Copy)]
pub struct Bucket {
    pub events: u64,
    pub ns: u64,
}

impl Bucket {
    fn add(&mut self, ns: u64) {
        self.events += 1;
        self.ns += ns;
    }
}

/// The `step_once` calls of one run, classified from outside: a call that
/// shrinks `waiting()` routed an arrival, one that advances the engines'
/// summed step counter ran an engine iteration, and anything else fired a
/// fault (checked against the fault report afterwards).
#[derive(Debug, Default, Clone, Copy)]
pub struct LoopSplit {
    pub all: Bucket,
    pub arrival: Bucket,
    pub engine: Bucket,
    pub fault: Bucket,
}

fn engine_steps(run: &RunState) -> u64 {
    run.engines().iter().map(|e| e.stats().steps).sum()
}

impl LoopSplit {
    /// Steps `run` until it drains or `waiting()` drops to `stop_at`.
    fn drive(&mut self, run: &mut RunState, stop_at: Option<usize>) {
        loop {
            let waiting = run.waiting();
            if stop_at.is_some_and(|at| waiting <= at) {
                return;
            }
            let steps = engine_steps(run);
            let t = Instant::now();
            let more = run.step_once();
            let ns = t.elapsed().as_nanos() as u64;
            if !more {
                return;
            }
            self.all.add(ns);
            if run.waiting() < waiting {
                self.arrival.add(ns);
            } else if engine_steps(run) > steps {
                self.engine.add(ns);
            } else {
                self.fault.add(ns);
            }
        }
    }
}

/// Host time of each public call of the checkpoint round trip.
#[derive(Debug, Default, Clone, Copy)]
pub struct SnapshotTimes {
    pub checkpoint_s: f64,
    pub to_json_s: f64,
    pub bytes: usize,
    pub parse_s: f64,
    pub resume_s: f64,
}

/// Everything one traced serving run measured.
pub struct TracedServing {
    pub outcome: ouroboros::serve::RunOutcome,
    pub build_s: f64,
    pub start_s: f64,
    pub finish_s: f64,
    /// Host time of the whole run, set-up included.
    pub wall_s: f64,
    pub split: LoopSplit,
    pub route: Arc<CallStats>,
    pub place: Arc<CallStats>,
    pub snapshot: SnapshotTimes,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One traced serving run, checkpointing where the untimed run does.
pub fn traced_serving(w: &Serving) -> Result<TracedServing, String> {
    let route = Arc::new(CallStats::default());
    let place = Arc::new(CallStats::default());
    let scenario = w.scenario(|r| TimedRouter::wrap(r, &route), |p| TimedPlacement::wrap(p, &place));
    let wall = Instant::now();
    let t = Instant::now();
    let system = w.system()?;
    let build_s = secs(t);
    let t = Instant::now();
    let mut run = scenario.start(&system).map_err(|e| e.to_string())?;
    let start_s = secs(t);
    let mut split = LoopSplit::default();
    let mut snapshot = SnapshotTimes::default();
    if let Some(at) = w.checkpoint_at_waiting() {
        split.drive(&mut run, Some(at));
        let t = Instant::now();
        let snap = scenario.checkpoint(&run);
        snapshot.checkpoint_s = secs(t);
        let t = Instant::now();
        let json = snap.to_json();
        snapshot.to_json_s = secs(t);
        snapshot.bytes = json.len();
        drop((run, snap));
        let t = Instant::now();
        let parsed = Snapshot::parse(&json)?;
        snapshot.parse_s = secs(t);
        let t = Instant::now();
        run = scenario.resume(&system, &parsed).map_err(|e| e.to_string())?;
        snapshot.resume_s = secs(t);
    }
    split.drive(&mut run, None);
    let t = Instant::now();
    let outcome = run.finish();
    let finish_s = secs(t);
    let wall_s = secs(wall);
    Ok(TracedServing { outcome, build_s, start_s, finish_s, wall_s, split, route, place, snapshot })
}

/// The self-test of the outside-in classification: every `step_once` call
/// landed in exactly one bucket, the arrival bucket saw every request, the
/// engine bucket saw every engine iteration, and the fault bucket saw every
/// fault the injector fired.
pub fn check_split(t: &TracedServing, w: &Serving) -> Result<(), String> {
    let requests = w.requests();
    let (entry, decode) = w.pools();
    let s = &t.split;
    let report = &t.outcome.report;
    let steps: u64 = t.outcome.engines().iter().map(|e| e.stats().steps).sum();
    let faults = report.faults.as_ref().map_or(0, |f| f.faults_injected);
    ensure(
        s.arrival.events + s.engine.events + s.fault.events == s.all.events,
        "buckets add up to scenario.events",
    )?;
    ensure(s.arrival.events == requests as u64, "arrival.events == injected")?;
    ensure(s.engine.events == steps, "engine.step_events == engine.steps")?;
    ensure(s.fault.events == faults, "fault.events == faults injected")?;
    ensure(t.route.calls() == requests as u64, "one routing decision per request")?;
    let migrations = report.migration.as_ref().map_or(0, |m| m.migrations as u64);
    ensure(t.place.calls() == migrations, "one placement decision per migration")?;
    ensure(t.route.candidates() == requests as u64 * entry as u64, "routing scans the whole entry pool")?;
    ensure(t.place.candidates() == migrations * decode as u64, "placement scans the whole decode pool")?;
    Ok(())
}

/// Everything one traced replay pass measured.
pub struct TracedReplay {
    pub reports: Vec<ouroboros::baselines::SystemReport>,
    pub build_s: f64,
    /// Host time of `simulate_labeled` per configuration.
    pub replay_s: Vec<f64>,
    /// Host time of `PipelineScheduler::run` and `KvScheduler::run_trace`
    /// over the same traces, summed over configurations.
    pub pipeline_s: f64,
    pub kv_scheduler_s: f64,
    /// Host time of the build plus the replay calls (the untimed pass's
    /// work), excluding the direct layer calls.
    pub wall_s: f64,
}

/// One traced replay pass, then each offline half called directly on the
/// same traces.
pub fn traced_replay(w: &Replay) -> Result<TracedReplay, String> {
    let wall = Instant::now();
    let t = Instant::now();
    let system = w.system()?;
    let build_s = secs(t);
    let mut reports = Vec::new();
    let mut replay_s = Vec::new();
    for (_, label, trace) in &w.traces {
        let t = Instant::now();
        reports.push(system.simulate_labeled(trace, label));
        replay_s.push(secs(t));
    }
    let wall_s = secs(wall);
    let scheduler = PipelineScheduler::new(system.model(), system.stage_times());
    let granularity = Granularity::finest_for(system.model());
    let (mut pipeline_s, mut kv_scheduler_s) = (0.0, 0.0);
    for (_, _, trace) in &w.traces {
        let t = Instant::now();
        std::hint::black_box(scheduler.run(trace, granularity));
        pipeline_s += secs(t);
        let t = Instant::now();
        let mut kv = KvScheduler::new(system.serve_kv_config()).map_err(|e| e.to_string())?;
        std::hint::black_box(kv.run_trace(trace));
        kv_scheduler_s += secs(t);
    }
    Ok(TracedReplay { reports, build_s, replay_s, pipeline_s, kv_scheduler_s, wall_s })
}
