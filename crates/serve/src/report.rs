//! The unified run report: one stable schema for every scenario.
//!
//! Every [`crate::scenario::Scenario`] run — colocated or disaggregated,
//! clean or fault-injected, prefix-cached or cold — returns one
//! [`RunReport`]: the serving metrics ([`crate::metrics::ServingReport`])
//! plus optional KV-migration accounting ([`MigrationStats`], present for
//! disaggregated deployments) and optional fault accounting
//! ([`crate::fault::FaultReport`], present when a fault plan was
//! configured). The flat JSON rendering ([`RunReport::json_object`])
//! always emits the same key set — sections that do not apply are `null` —
//! so `BENCH_*.json` trajectories stay comparable across experiments and
//! PRs; [`SCHEMA_VERSION`] is bumped on any breaking key change.

use crate::fault::FaultReport;
use crate::json::JsonObject;
use crate::metrics::ServingReport;

/// Version of the flat JSON schema emitted by [`RunReport::json_object`].
/// Bumped whenever a key is renamed, removed, or changes meaning; adding
/// new keys is backward compatible and does not bump it.
pub const SCHEMA_VERSION: u32 = 1;

/// The deployment shape and policies a report was produced under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentInfo {
    /// `"colocated"` or `"disaggregated"`.
    pub kind: String,
    /// Total wafers of the deployment.
    pub(crate) wafers: usize,
    /// Wafers in the prefill pool (0 for colocated deployments).
    pub prefill_wafers: usize,
    /// Wafers in the decode pool (0 for colocated deployments, where every
    /// wafer runs both phases).
    pub decode_wafers: usize,
    /// Name of the routing policy over the entry pool.
    pub(crate) router: String,
    /// Name of the decode-placement policy (`None` for colocated).
    pub(crate) placement: Option<String>,
}

/// KV-migration accounting of one disaggregated run.
///
/// Byte conservation is the core invariant: every byte of KV a prefill
/// wafer exports is either imported into a decode wafer's cache, still on
/// the wire (announced but not admitted) when the run stops, discarded because
/// the sequence could not fit even an empty decode cache, or deduplicated
/// against the target's shared-prefix cache at announce time (it never
/// touched the wire). The identity
/// `exported = imported + in_flight + dropped + deduped` must hold at any
/// observation instant; after a run drains completely the in-flight and
/// dropped terms are zero.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationStats {
    /// KV migrations started.
    pub migrations: usize,
    /// Tokens that actually travelled the wire across all migrations
    /// (whole prompts minus the prefix tokens already resident on each
    /// target at announce time).
    pub migrated_tokens: u64,
    /// KV bytes exported by prefill wafers.
    pub exported_kv_bytes: u64,
    /// KV bytes imported (admitted) into decode caches.
    pub imported_kv_bytes: u64,
    /// KV bytes announced but still in flight (not admitted) when `finish`
    /// runs before the run drains.
    pub in_flight_kv_bytes: u64,
    /// KV bytes discarded because the sequence could not fit an empty
    /// decode cache.
    pub dropped_kv_bytes: u64,
    /// KV bytes that never touched the wire because the target decode wafer
    /// already held the sequence's shared prefix at announce time.
    pub deduped_kv_bytes: u64,
    /// Mean migration wall-clock (setup + head latency + serialisation).
    pub mean_migration_s: f64,
    /// Slowest migration of the run.
    pub max_migration_s: f64,
    /// Total optical link energy spent on KV migration.
    pub link_energy_j: f64,
    /// Mean busy fraction of the prefill pool.
    pub prefill_utilization: f64,
    /// Mean busy fraction of the decode pool.
    pub decode_utilization: f64,
}

impl MigrationStats {
    /// The migration-byte conservation identity: every exported byte is
    /// imported, in flight, accounted as dropped, or deduplicated against
    /// the target's prefix cache.
    pub(crate) fn kv_bytes_conserved(&self) -> bool {
        self.exported_kv_bytes
            == self.imported_kv_bytes
                + self.in_flight_kv_bytes
                + self.dropped_kv_bytes
                + self.deduped_kv_bytes
    }
}

/// Aggregate outcome of one scenario run — the single report type every
/// entry point (tests, benches, the `experiments` binary, sweeps,
/// shootouts) produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Version of the flat JSON schema ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The deployment shape and policies of the run.
    pub deployment: DeploymentInfo,
    /// SLO metrics over the finished requests' records. In a
    /// disaggregated run the decode wafer that finishes a request records
    /// it, with the original arrival; the prefill pool records none.
    pub serving: ServingReport,
    /// KV-migration accounting (`Some` iff the deployment is
    /// disaggregated).
    pub migration: Option<MigrationStats>,
    /// Fault accounting (`Some` iff a fault plan was configured).
    pub faults: Option<FaultReport>,
}

impl RunReport {
    /// Request conservation: every injected request is accounted for
    /// exactly once as completed, queued, in flight, or dropped.
    pub fn is_conserved(&self) -> bool {
        self.serving.is_conserved()
    }

    /// KV-migration byte conservation (vacuously true for colocated runs).
    pub fn kv_bytes_conserved(&self) -> bool {
        self.migration.as_ref().is_none_or(MigrationStats::kv_bytes_conserved)
    }

    /// Flattens the report into the one stable JSON row schema. Every call
    /// emits the same keys in the same order; sections that do not apply
    /// to this run (migration, faults) render as `null`.
    pub fn json_object(&self) -> JsonObject {
        let (s, m, f) = (&self.serving, self.migration.as_ref(), self.faults.as_ref());
        JsonObject::new()
            .int("schema_version", self.schema_version as u64)
            .str("deployment", &self.deployment.kind)
            .int("wafers", self.deployment.wafers as u64)
            .int("prefill_wafers", self.deployment.prefill_wafers as u64)
            .int("decode_wafers", self.deployment.decode_wafers as u64)
            .str("router", &self.deployment.router)
            .opt("placement", self.deployment.placement.as_deref(), JsonObject::str)
            .opt("offered_rps", s.offered_rps, JsonObject::num)
            .int("injected", s.injected as u64)
            .int("completed", s.completed as u64)
            .int("queued_at_horizon", s.queued_at_horizon as u64)
            .int("in_flight_at_horizon", s.in_flight_at_horizon as u64)
            .int("dropped", s.dropped as u64)
            .int("evictions", s.evictions)
            .int("prefilled_tokens", s.prefilled_tokens)
            .int("cached_prefix_tokens", s.cached_prefix_tokens)
            .num("duration_s", s.duration_s)
            .num("achieved_rps", s.achieved_rps)
            .num("output_tokens_per_s", s.output_tokens_per_s)
            .num("goodput_rps", s.goodput_rps)
            .num("slo_attainment", s.slo_attainment)
            .num("utilization", s.utilization)
            .num("ttft_mean_s", s.ttft.mean_s)
            .num("ttft_p50_s", s.ttft.p50_s)
            .num("ttft_p95_s", s.ttft.p95_s)
            .num("ttft_p99_s", s.ttft.p99_s)
            .num("ttft_max_s", s.ttft.max_s)
            .num("tpot_mean_s", s.tpot.mean_s)
            .num("tpot_p50_s", s.tpot.p50_s)
            .num("tpot_p95_s", s.tpot.p95_s)
            .num("tpot_p99_s", s.tpot.p99_s)
            .num("tpot_max_s", s.tpot.max_s)
            .num("e2e_mean_s", s.e2e.mean_s)
            .num("e2e_p50_s", s.e2e.p50_s)
            .num("e2e_p95_s", s.e2e.p95_s)
            .num("e2e_p99_s", s.e2e.p99_s)
            .num("e2e_max_s", s.e2e.max_s)
            .opt("migrations", m.map(|m| m.migrations as u64), JsonObject::int)
            .opt("migrated_tokens", m.map(|m| m.migrated_tokens), JsonObject::int)
            .opt("exported_kv_bytes", m.map(|m| m.exported_kv_bytes), JsonObject::int)
            .opt("imported_kv_bytes", m.map(|m| m.imported_kv_bytes), JsonObject::int)
            .opt("in_flight_kv_bytes", m.map(|m| m.in_flight_kv_bytes), JsonObject::int)
            .opt("dropped_kv_bytes", m.map(|m| m.dropped_kv_bytes), JsonObject::int)
            .opt("deduped_kv_bytes", m.map(|m| m.deduped_kv_bytes), JsonObject::int)
            .opt("mean_migration_s", m.map(|m| m.mean_migration_s), JsonObject::num)
            .opt("max_migration_s", m.map(|m| m.max_migration_s), JsonObject::num)
            .opt("link_energy_j", m.map(|m| m.link_energy_j), JsonObject::num)
            .opt("prefill_utilization", m.map(|m| m.prefill_utilization), JsonObject::num)
            .opt("decode_utilization", m.map(|m| m.decode_utilization), JsonObject::num)
            .opt("fault_mtbf_s", f.map(|f| f.config.mtbf_s), JsonObject::num)
            .opt("faults_injected", f.map(|f| f.faults_injected), JsonObject::int)
            .opt("chains_built", f.map(|f| f.chains_built), JsonObject::int)
            .opt("tiles_moved", f.map(|f| f.tiles_moved), JsonObject::int)
            .opt("kv_cores_lost", f.map(|f| f.kv_cores_lost), JsonObject::int)
            .opt("sequences_recomputed", f.map(|f| f.sequences_recomputed), JsonObject::int)
            .opt("kv_tokens_evicted", f.map(|f| f.kv_tokens_evicted), JsonObject::int)
            .opt("kv_bytes_evicted", f.map(|f| f.kv_bytes_evicted), JsonObject::int)
            .opt("unrepaired_faults", f.map(|f| f.unrepaired_faults), JsonObject::int)
            .opt("dead_wafers", f.map(|f| f.dead_wafers as u64), JsonObject::int)
            .opt("total_stall_s", f.map(|f| f.total_stall_s), JsonObject::num)
            .opt("dead_time_s", f.map(|f| f.dead_time_s), JsonObject::num)
            .opt("mean_chain_len", f.map(FaultReport::mean_chain_len), JsonObject::num)
            .opt("availability", f.map(|f| f.availability), JsonObject::num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{RunTotals, SloConfig};

    fn stats(exported: u64, imported: u64, in_flight: u64, dropped: u64) -> MigrationStats {
        MigrationStats {
            migrations: 2,
            migrated_tokens: 100,
            exported_kv_bytes: exported,
            imported_kv_bytes: imported,
            in_flight_kv_bytes: in_flight,
            dropped_kv_bytes: dropped,
            deduped_kv_bytes: 0,
            mean_migration_s: 0.001,
            max_migration_s: 0.002,
            link_energy_j: 0.1,
            prefill_utilization: 0.5,
            decode_utilization: 0.5,
        }
    }

    fn report(migration: Option<MigrationStats>) -> RunReport {
        RunReport {
            schema_version: SCHEMA_VERSION,
            deployment: DeploymentInfo {
                kind: if migration.is_some() { "disaggregated" } else { "colocated" }.to_string(),
                wafers: 2,
                prefill_wafers: if migration.is_some() { 1 } else { 0 },
                decode_wafers: if migration.is_some() { 1 } else { 0 },
                router: "least-kv-load".to_string(),
                placement: migration.is_some().then(|| "least-kv-load".to_string()),
            },
            serving: ServingReport::from_records(
                &[],
                &SloConfig { ttft_s: 1.0, tpot_s: 0.1 },
                Some(1.0),
                RunTotals::default(),
            ),
            migration,
            faults: None,
        }
    }

    #[test]
    fn conservation_identity() {
        assert!(stats(100, 100, 0, 0).kv_bytes_conserved());
        assert!(stats(100, 60, 30, 10).kv_bytes_conserved());
        assert!(!stats(100, 60, 30, 0).kv_bytes_conserved());
    }

    #[test]
    fn deduped_bytes_close_the_conservation_identity() {
        let mut s = stats(100, 60, 10, 0);
        assert!(!s.kv_bytes_conserved());
        s.deduped_kv_bytes = 30;
        assert!(s.kv_bytes_conserved(), "prefix-deduplicated bytes complete the identity");
    }

    #[test]
    fn colocated_runs_conserve_kv_bytes_vacuously() {
        assert!(report(None).kv_bytes_conserved());
        assert!(report(Some(stats(10, 10, 0, 0))).kv_bytes_conserved());
        assert!(!report(Some(stats(10, 5, 0, 0))).kv_bytes_conserved());
    }

    #[test]
    fn json_schema_is_identical_with_and_without_optional_sections() {
        let colocated = report(None).json_object();
        let disagg = report(Some(stats(100, 100, 0, 0))).json_object();
        assert_eq!(colocated.keys(), disagg.keys(), "one schema regardless of scenario shape");
        assert!(colocated.render().contains("\"migrations\": null"));
        assert!(disagg.render().contains("\"migrations\": 2"));
        assert!(colocated.render().contains(&format!("\"schema_version\": {SCHEMA_VERSION}")));
    }
}
