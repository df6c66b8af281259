//! Runtime fault injection for the online serving stack (§4.3.3, Fig. 9).
//!
//! The paper's resilience claim is that a core failure is healed *locally*:
//! the cores from the failure to the nearest KV core form a replacement
//! chain, weights shift one hop along it, the terminal KV core's cache is
//! evicted, and the affected sequences are recomputed — all in
//! sub-millisecond time. The offline story ends there; this module measures
//! what that costs a deployment under live traffic.
//!
//! A `FaultInjector` draws each wafer's faults from its own seeded MTBF
//! stream ([`ouro_workload::FaultStream`]) as the run reaches them and,
//! when the serving event loop reaches one, drives the full healing
//! pipeline:
//!
//! 1. pick a victim core (weight or KV) on the struck wafer from the
//!    fault's random draw,
//! 2. run [`ouro_sim::mapping::remap_with_chain`] over the wafer's live
//!    assignment to build the replacement chain,
//! 3. fail the absorbed KV core in the engine's cache manager
//!    ([`Engine::apply_fault`]): resident sequences that lost KV are
//!    evicted and re-enqueued for recompute at real prefill cost, the
//!    remap stall is charged to every in-flight request, and the mean hop
//!    distance of the pipeline grows with the displaced tiles,
//! 4. account everything in a [`FaultReport`] — availability, chains,
//!    evicted KV bytes, recomputed sequences.
//!
//! The injector keeps only what no engine holds: each wafer's fault
//! stream and remap state, and the chain counters. What a fault did to an
//! engine (evicted sequences and tokens, stall time) is counted once, in
//! that engine's [`crate::EngineStats`], and the report sums it from there.
//!
//! The engine's KV manager is the *per-head-scaled* model
//! ([`ouro_sim::OuroborosSystem::serve_kv_config`]): one scaled manager
//! core stands for `heads` physical cores, so a physical KV-core loss is
//! quantised to one scaled core — a deliberately pessimistic rounding that
//! keeps capacity loss visible at serving scale.

use crate::engine::Engine;
use crate::metrics::ServingReport;
use crate::snapshot::{InjectorWafer, Row, SnapshotError, SnapshotErrorKind};
use ouro_hw::{CoreId, WaferGeometry};
use ouro_sim::mapping::{remap_with_chain, Assignment, RemapError};
use ouro_sim::OuroborosSystem;
use ouro_trace::EventKind;
use ouro_workload::{FaultProcess, FaultStream, TimedTrace};

/// Tuning of the runtime fault process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-wafer mean time between failures, in simulated seconds.
    pub(crate) mtbf_s: f64,
    /// Wafer pause per replacement-chain remap, charged to every in-flight
    /// request on the struck wafer (the paper's repair is sub-millisecond).
    pub(crate) remap_stall_s: f64,
    /// Seed of the fault realisation (independent of the arrival seed).
    pub(crate) seed: u64,
}

impl FaultConfig {
    /// A configuration with the paper's sub-millisecond remap stall.
    pub fn new(mtbf_s: f64, seed: u64) -> FaultConfig {
        FaultConfig { mtbf_s, remap_stall_s: 0.5e-3, seed }
    }
}

/// The fault window of one serving run: twice the trace's arrival span,
/// bounded below by one second. [`crate::scenario::Scenario`] runs and
/// snapshot resumes both derive it here, so a fresh and a resumed run bound
/// the same streams the same way.
pub fn fault_window_s(timed: &TimedTrace) -> f64 {
    (timed.last_arrival_s() * 2.0).max(1.0)
}

/// Per-wafer fault state: the live weight assignment, the KV cores still
/// available to absorb replacement chains, and the wafer's fault stream.
#[derive(Debug, Clone)]
struct WaferFaultState {
    assignment: Assignment,
    kv_cores: Vec<CoreId>,
    /// Instant the wafer stopped being serviceable (`NaN` while alive).
    death_s: f64,
    faults: FaultStream,
}

impl WaferFaultState {
    fn is_dead(&self) -> bool {
        self.death_s.is_finite()
    }
}

/// One wafer's fault state in a run checkpoint (core ids flattened to
/// integers so the serialized form stays dependency-free).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct WaferFaultSnapshot {
    /// The live weight assignment, as flat core ids.
    pub(crate) assignment: Vec<u64>,
    /// KV cores still available to absorb replacement chains.
    pub(crate) kv_cores: Vec<u64>,
    /// Instant the wafer stopped being serviceable (`NaN` while alive).
    pub(crate) death_s: f64,
    /// Faults fired on this wafer: its stream's position
    /// ([`FaultStream::taken`]).
    pub(crate) fired: u64,
}

/// The complete mutable state of a [`FaultInjector`], captured by
/// [`FaultInjector::snapshot`] and reapplied by [`FaultInjector::restore`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FaultInjectorSnapshot {
    /// Per-wafer fault state.
    pub(crate) wafers: Vec<WaferFaultSnapshot>,
    /// The five lifetime counters, in declaration order: chains built,
    /// tiles moved, chain cores, KV cores lost, unrepaired faults.
    pub(crate) counters: [u64; 5],
}

/// Aggregate outcome of one fault-injected serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// The fault process the run was driven by.
    pub(crate) config: FaultConfig,
    /// Wafers exposed to the process.
    pub(crate) wafers: usize,
    /// Faults injected before the run ended.
    pub faults_injected: u64,
    /// Replacement chains built (successful remaps).
    pub chains_built: u64,
    /// Weight tiles shifted along chains.
    pub(crate) tiles_moved: u64,
    /// Sum of chain lengths, for the mean below.
    pub(crate) chain_cores: u64,
    /// Physical KV cores absorbed by chains (mapping-level).
    pub(crate) kv_cores_lost: u64,
    /// Sequences evicted because a fault took their KV, re-enqueued for
    /// recompute: the sum of the engines'
    /// [`crate::EngineStats::fault_evicted_seqs`].
    pub sequences_recomputed: u64,
    /// Token slots of KV lost to faulted cores: the sum of the engines'
    /// `crate::EngineStats::fault_evicted_tokens`.
    pub kv_tokens_evicted: u64,
    /// The same loss in bytes, at the model's full per-token KV footprint.
    pub kv_bytes_evicted: u64,
    /// Faults that could not be healed (no KV core left to absorb the
    /// chain); the wafer is dead from that instant.
    pub(crate) unrepaired_faults: u64,
    /// Wafers unserviceable at the end of the run.
    pub(crate) dead_wafers: usize,
    /// Total remap stall across wafers, the sum of the engines'
    /// `crate::EngineStats::stall_s` (healing pauses only; outage time of
    /// dead wafers is in `dead_time_s`).
    pub total_stall_s: f64,
    /// Wafer-time lost to dead wafers: from each death to the end of the
    /// run.
    pub dead_time_s: f64,
    /// Wall-clock span the availability is measured over.
    pub duration_s: f64,
    /// Served wafer-time over offered wafer-time: `1 −` (stall + dead
    /// time) / (wafers × duration). Exactly 1.0 only with zero faults.
    pub availability: f64,
}

impl FaultReport {
    /// Mean replacement-chain length over successful remaps (0 with none).
    pub fn mean_chain_len(&self) -> f64 {
        if self.chains_built == 0 {
            0.0
        } else {
            self.chain_cores as f64 / self.chains_built as f64
        }
    }
}

/// Draws faults over a cluster's wafers and drives replacement chains +
/// KV eviction when the serving event loop hands it an engine.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    config: FaultConfig,
    geometry: WaferGeometry,
    wafers: Vec<WaferFaultState>,
    kv_bytes_per_token: u64,
    chains_built: u64,
    tiles_moved: u64,
    chain_cores: u64,
    kv_cores_lost: u64,
    unrepaired_faults: u64,
}

impl FaultInjector {
    /// Builds the injector for `wafers` replicas of `system`'s deployment:
    /// every wafer starts from the system's block mapping, with the
    /// functional cores left over from weight mapping as its KV cores, and
    /// draws faults from its own stream over `[0, window_s)`.
    ///
    /// # Panics
    ///
    /// Panics when `config.mtbf_s` or `window_s` is not finite and
    /// positive.
    pub(crate) fn new(
        system: &OuroborosSystem,
        wafers: usize,
        config: FaultConfig,
        window_s: f64,
    ) -> FaultInjector {
        let process = FaultProcess::new(config.mtbf_s);
        let assignment = system.mapping().assignment.clone();
        let kv_cores: Vec<CoreId> = system
            .defects()
            .functional_cores()
            .filter(|c| !assignment.core.contains(c))
            .take(system.kv_cores_per_block())
            .collect();
        FaultInjector {
            config,
            geometry: system.config().geometry.clone(),
            wafers: (0..wafers)
                .map(|wafer| WaferFaultState {
                    assignment: assignment.clone(),
                    kv_cores: kv_cores.clone(),
                    death_s: f64::NAN,
                    faults: process.stream(wafer, window_s, config.seed),
                })
                .collect(),
            kv_bytes_per_token: system.kv_migration_bytes(1),
            chains_built: 0,
            tiles_moved: 0,
            chain_cores: 0,
            kv_cores_lost: 0,
            unrepaired_faults: 0,
        }
    }

    /// Faults fired so far, over every wafer's stream.
    pub(crate) fn faults_injected(&self) -> u64 {
        self.wafers.iter().map(|w| w.faults.taken()).sum()
    }

    /// Time and wafer of the next pending fault, if any.
    pub(crate) fn next_fault(&self) -> Option<(f64, usize)> {
        ouro_workload::next_fault(self.wafers.iter().map(|w| &w.faults))
    }

    /// The pending fault the serving event loop must inject now, as
    /// `(t, wafer)`. Faults share the discrete-event timeline with
    /// arrivals and engine iterations, so a fault is due only once no
    /// earlier arrival or engine event is pending. `None` when no fault is
    /// due yet, and when the cluster has no work left: an empty cluster
    /// has nothing for a fault to degrade, and injecting it would stretch
    /// the measured duration past the workload.
    pub(crate) fn due_fault(
        &self,
        next_arrival_s: Option<f64>,
        next_engine_event_s: Option<f64>,
    ) -> Option<(f64, usize)> {
        if next_arrival_s.is_none() && next_engine_event_s.is_none() {
            return None;
        }
        let (t_fault, wafer) = self.next_fault()?;
        let before_arrival = next_arrival_s.is_none_or(|t| t_fault <= t);
        let before_engines = next_engine_event_s.is_none_or(|t| t_fault <= t);
        (before_arrival && before_engines).then_some((t_fault, wafer))
    }

    /// Injects `wafer`'s pending fault into its `engine`: picks the victim
    /// core, builds the replacement chain, and applies KV eviction, stall,
    /// and pipeline degradation to the engine.
    ///
    /// # Panics
    ///
    /// Panics when `wafer` has no pending fault.
    pub(crate) fn inject(&mut self, wafer: usize, engine: &mut Engine) {
        let state = &mut self.wafers[wafer];
        let (at_s, draw) = state.faults.pop().expect("inject requires a pending fault");
        if state.is_dead() {
            // Dead wafers hold no weights worth healing; the fault only
            // deepens the outage already accounted from `death_s`.
            return;
        }
        // Victim: any core still doing useful work — weight cores (the
        // assignment) plus the remaining KV cores.
        let candidates = state.assignment.core.len() + state.kv_cores.len();
        if candidates == 0 {
            self.unrepaired_faults += 1;
            state.death_s = at_s;
            return;
        }
        let pick = (draw % candidates as u64) as usize;
        let victim = if pick < state.assignment.core.len() {
            state.assignment.core[pick]
        } else {
            state.kv_cores[pick - state.assignment.core.len()]
        };

        match remap_with_chain(&self.geometry, &state.assignment, &state.kv_cores, victim) {
            Ok(outcome) => {
                state.assignment = outcome.new_assignment;
                self.chains_built += 1;
                self.chain_cores += outcome.chain.len() as u64;
                self.tiles_moved += outcome.moved_tiles as u64;
                engine.tracer_mut().emit(
                    at_s,
                    None,
                    EventKind::Remap { chain_len: outcome.chain.len(), moved_tiles: outcome.moved_tiles },
                );
                let Some(absorbed) = outcome.evicted_kv_core else {
                    return; // the victim held neither weights nor KV
                };
                state.kv_cores.retain(|c| *c != absorbed);
                self.kv_cores_lost += 1;
                // Displaced tiles sit one hop further from their pipeline
                // neighbours: a permanent mean-hop penalty proportional to
                // the moved fraction of the block.
                let tiles = state.assignment.core.len().max(1);
                let penalty = outcome.moved_tiles as f64 / tiles as f64;
                // A wafer whose cache can no longer hold KV is dead from
                // this instant.
                engine.apply_fault(at_s, self.config.remap_stall_s, absorbed.0, penalty);
                if !engine.is_serviceable() {
                    state.death_s = at_s;
                }
            }
            Err(RemapError::NoKvCores) => {
                // A weight core failed with no KV core left to absorb the
                // chain: the block mapping cannot be healed locally. Kill
                // the engine's remaining cache so routers (and drops) see
                // the outage immediately; the KV evicted by the outage
                // still counts as recompute work.
                self.unrepaired_faults += 1;
                state.death_s = at_s;
                engine.decommission(at_s);
            }
            Err(e @ RemapError::CoreNotOnWafer(_)) => {
                unreachable!("victims are drawn from live on-wafer cores: {e}");
            }
        }
    }

    /// Captures the injector's complete mutable state for a run
    /// checkpoint: every wafer's remap state and stream position, and the
    /// lifetime counters. Geometry, per-token KV bytes, the config and the
    /// streams' generators are *not* captured — they are pure functions of
    /// the system, the scenario and the positions, recomputed by
    /// [`FaultInjector::restore`].
    pub(crate) fn snapshot(&self) -> FaultInjectorSnapshot {
        FaultInjectorSnapshot {
            wafers: self
                .wafers
                .iter()
                .map(|w| WaferFaultSnapshot {
                    assignment: w.assignment.core.iter().map(|c| c.0 as u64).collect(),
                    kv_cores: w.kv_cores.iter().map(|c| c.0 as u64).collect(),
                    death_s: w.death_s,
                    fired: w.faults.taken(),
                })
                .collect(),
            counters: [
                self.chains_built,
                self.tiles_moved,
                self.chain_cores,
                self.kv_cores_lost,
                self.unrepaired_faults,
            ],
        }
    }

    /// Rebuilds an injector from a checkpoint: constructs a fresh injector
    /// over the same system/config/window (restoring the derived geometry
    /// and byte constants), skips each wafer's stream past the faults it
    /// fired, then overwrites the remap state and counters with the
    /// snapshot's. The resumed injector continues the identical fault
    /// realisation from each wafer's pending fault; the skip costs one draw
    /// per fault fired, less than firing it did.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] of kind
    /// [`SnapshotErrorKind::WaferCount`] when the snapshot lists a
    /// different number of wafers than `wafers`, or
    /// [`SnapshotErrorKind::IndexOutOfRange`] when a wafer fired more
    /// faults than its window holds.
    pub(crate) fn restore(
        system: &OuroborosSystem,
        wafers: usize,
        config: FaultConfig,
        window_s: f64,
        snap: &FaultInjectorSnapshot,
    ) -> Result<FaultInjector, SnapshotError> {
        if snap.wafers.len() != wafers {
            return Err(SnapshotError::resume(None, InjectorWafer::NAME, SnapshotErrorKind::WaferCount));
        }
        let mut inj = FaultInjector::new(system, wafers, config, window_s);
        for (wafer, (state, w)) in inj.wafers.iter_mut().zip(&snap.wafers).enumerate() {
            if !state.faults.skip(w.fired) {
                let kind = SnapshotErrorKind::IndexOutOfRange;
                return Err(SnapshotError::resume(Some(wafer), InjectorWafer::NAME, kind));
            }
            state.assignment =
                Assignment { core: w.assignment.iter().map(|&c| CoreId(c as usize)).collect() };
            state.kv_cores = w.kv_cores.iter().map(|&c| CoreId(c as usize)).collect();
            state.death_s = w.death_s;
        }
        let [cb, tm, cc, kl, uf] = snap.counters;
        inj.chains_built = cb;
        inj.tiles_moved = tm;
        inj.chain_cores = cc;
        inj.kv_cores_lost = kl;
        inj.unrepaired_faults = uf;
        Ok(inj)
    }

    /// Assembles the fault report after a run spanning `duration_s`, with
    /// what the faults did to the wafers read from their `engines`.
    pub(crate) fn report(&self, engines: &[Engine], duration_s: f64) -> FaultReport {
        let wafers = self.wafers.len();
        let span = duration_s.max(0.0);
        let mut stall_s = 0.0;
        let mut dead_time_s = 0.0;
        let mut dead = 0;
        let (mut sequences_recomputed, mut kv_tokens_evicted) = (0, 0);
        for (w, engine) in self.wafers.iter().zip(engines) {
            let stats = engine.stats();
            stall_s += stats.stall_s;
            sequences_recomputed += stats.fault_evicted_seqs;
            kv_tokens_evicted += stats.fault_evicted_tokens;
            if w.is_dead() {
                dead += 1;
                dead_time_s += (span - w.death_s.min(span)).max(0.0);
            }
        }
        let offered = (wafers as f64 * span).max(f64::MIN_POSITIVE);
        FaultReport {
            config: self.config,
            wafers,
            faults_injected: self.faults_injected(),
            chains_built: self.chains_built,
            tiles_moved: self.tiles_moved,
            chain_cores: self.chain_cores,
            kv_cores_lost: self.kv_cores_lost,
            sequences_recomputed,
            kv_tokens_evicted,
            kv_bytes_evicted: kv_tokens_evicted * self.kv_bytes_per_token,
            unrepaired_faults: self.unrepaired_faults,
            dead_wafers: dead,
            total_stall_s: stall_s,
            dead_time_s,
            duration_s: span,
            availability: (1.0 - (stall_s + dead_time_s) / offered).clamp(0.0, 1.0),
        }
    }
}

/// p99 TTFT and TPOT inflation of a faulty run over the clean run of the
/// same scenario (1.0 = unchanged; also 1.0 when the clean tail is zero).
pub fn p99_inflation(faulty: &ServingReport, clean: &ServingReport) -> (f64, f64) {
    let inflation = |faulty_s: f64, clean_s: f64| if clean_s > 0.0 { faulty_s / clean_s } else { 1.0 };
    (inflation(faulty.ttft.p99_s, clean.ttft.p99_s), inflation(faulty.tpot.p99_s, clean.tpot.p99_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::SloConfig;
    use crate::policy::routers;
    use crate::scenario::Scenario;
    use ouro_sim::model::zoo;
    use ouro_sim::{OuroborosConfig, OuroborosSystem};
    use ouro_workload::{ArrivalConfig, LengthConfig, TimedTrace, TraceGenerator};

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

    #[test]
    fn injector_state_starts_from_the_system_mapping() {
        let sys = tiny_system();
        let inj = FaultInjector::new(&sys, 2, FaultConfig::new(0.01, 3), 1.0);
        assert!(inj.next_fault().is_some(), "a 10ms MTBF must fire within 1s");
        assert_eq!(inj.faults_injected(), 0);
        for w in &inj.wafers {
            assert_eq!(w.assignment.core, sys.mapping().assignment.core);
            assert!(!w.is_dead(), "nothing injected yet");
        }
    }

    #[test]
    fn faults_reduce_availability_and_force_recompute() {
        let sys = tiny_system();
        let report = Scenario::colocated(2)
            .router(routers::least_kv_load())
            .slo(slo())
            .faults(FaultConfig::new(0.02, 5))
            .workload(timed(60, 400.0, 5))
            .run(&sys)
            .unwrap();
        assert!(report.is_conserved());
        let faults = report.faults.expect("a fault plan was armed");
        assert!(faults.faults_injected > 0);
        assert!(faults.chains_built > 0);
        assert!(faults.availability < 1.0, "stalls must dent availability");
        assert!(faults.total_stall_s > 0.0);
        assert!(faults.duration_s > 0.0);
    }

    #[test]
    fn same_seed_same_fault_report() {
        let sys = tiny_system();
        let scenario = Scenario::colocated(2)
            .router(routers::join_shortest_queue())
            .slo(slo())
            .faults(FaultConfig::new(0.05, 7))
            .workload(timed(50, 300.0, 7));
        let a = scenario.run(&sys).unwrap();
        let b = scenario.run(&sys).unwrap();
        assert!(a.faults.as_ref().unwrap().faults_injected > 0, "the 50ms MTBF must fire");
        assert_eq!(a, b, "fault-injected reports must be identical under a fixed seed");
    }

    #[test]
    fn zero_fault_rate_equals_the_plain_run() {
        // An MTBF far beyond the window injects nothing; the faulty path
        // must then reproduce the clean run's serving metrics exactly.
        let sys = tiny_system();
        let base =
            Scenario::colocated(2).router(routers::round_robin()).slo(slo()).workload(timed(30, 200.0, 9));
        let clean = base.clone().run(&sys).unwrap();
        let faulty = base.faults(FaultConfig::new(1e12, 9)).run(&sys).unwrap();
        assert_eq!(faulty.serving, clean.serving);
        let faults = faulty.faults.unwrap();
        assert_eq!(faults.faults_injected, 0);
        assert_eq!(faults.availability, 1.0);
    }

    #[test]
    fn block_conservation_holds_after_every_remap() {
        let sys = tiny_system();
        let outcome = Scenario::colocated(2)
            .router(routers::least_kv_load())
            .slo(slo())
            .faults(FaultConfig::new(0.01, 11))
            .workload(timed(40, 500.0, 11))
            .run_full(&sys)
            .unwrap();
        assert!(outcome.report.is_conserved());
        assert!(outcome.report.faults.as_ref().unwrap().faults_injected > 0);
        for e in outcome.engines() {
            let audit = e.kv_audit();
            assert!(
                audit.is_conserved(),
                "allocated {} freed {} live {}",
                audit.allocated,
                audit.freed,
                audit.live
            );
            assert_eq!(audit.live, 0, "a drained engine holds no blocks");
        }
    }
}
