//! The cumulative ablation ladder of Fig. 15.
//!
//! The study starts from a chiplet-mesh baseline (64 dies joined by
//! NVLink-class links, conventional non-CIM datapath, sequence-grained
//! pipelining, naive mapping, static KV allocation) and enables the paper's
//! techniques one at a time: wafer-scale integration, CIM, token-grained
//! pipelining, the communication-aware mapping, and finally the distributed
//! dynamic KV management.

use crate::config::OuroborosConfig;

/// One rung of the ablation ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AblationStep {
    /// Chiplet mesh, no CIM, sequence-grained, naive mapping, static KV.
    Baseline,
    /// Adds wafer-scale integration (stitched inter-die links).
    PlusWafer,
    /// Adds computing-in-memory.
    PlusCim,
    /// Adds token-grained pipelining.
    PlusTgp,
    /// Adds the communication-aware (MIQP) mapping.
    PlusMapping,
    /// Adds distributed dynamic KV cache management.
    PlusKvCache,
}

impl AblationStep {
    /// Every step in presentation order.
    pub(crate) const ALL: [AblationStep; 6] = [
        AblationStep::Baseline,
        AblationStep::PlusWafer,
        AblationStep::PlusCim,
        AblationStep::PlusTgp,
        AblationStep::PlusMapping,
        AblationStep::PlusKvCache,
    ];

    /// Display label matching the figure.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            AblationStep::Baseline => "Baseline",
            AblationStep::PlusWafer => "+Wafer",
            AblationStep::PlusCim => "+CIM",
            AblationStep::PlusTgp => "+TGP",
            AblationStep::PlusMapping => "+Mapping",
            AblationStep::PlusKvCache => "+KV Cache",
        }
    }

    /// Builds the cumulative configuration for this step, starting from
    /// `base` (which supplies geometry, seeds, thresholds, ...).
    pub(crate) fn configure(&self, base: &OuroborosConfig) -> OuroborosConfig {
        let mut cfg = OuroborosConfig {
            wafer_integration: false,
            cim: false,
            tgp: false,
            optimized_mapping: false,
            dynamic_kv: false,
            ..base.clone()
        };
        let rank = AblationStep::ALL.iter().position(|s| s == self).expect("step in ALL");
        if rank >= 1 {
            cfg.wafer_integration = true;
        }
        if rank >= 2 {
            cfg.cim = true;
        }
        if rank >= 3 {
            cfg.tgp = true;
        }
        if rank >= 4 {
            cfg.optimized_mapping = true;
        }
        if rank >= 5 {
            cfg.dynamic_kv = true;
        }
        cfg
    }
}

impl std::fmt::Display for AblationStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// The full ladder of (label, configuration) pairs derived from `base`.
pub fn ablation_ladder(base: &OuroborosConfig) -> Vec<(&'static str, OuroborosConfig)> {
    AblationStep::ALL.iter().map(|s| (s.label(), s.configure(base))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_has_six_cumulative_steps() {
        let ladder = ablation_ladder(&OuroborosConfig::single_wafer());
        assert_eq!(ladder.len(), 6);
        assert_eq!(ladder[0].0, "Baseline");
        assert_eq!(ladder[5].0, "+KV Cache");
        // Each step enables strictly more features than the previous one.
        let count = |c: &OuroborosConfig| {
            [c.wafer_integration, c.cim, c.tgp, c.optimized_mapping, c.dynamic_kv]
                .iter()
                .filter(|&&b| b)
                .count()
        };
        for w in ladder.windows(2) {
            assert_eq!(count(&w[1].1), count(&w[0].1) + 1);
        }
    }

    #[test]
    fn baseline_disables_everything() {
        let base = AblationStep::Baseline.configure(&OuroborosConfig::single_wafer());
        assert!(!base.wafer_integration && !base.cim && !base.tgp);
        assert!(!base.optimized_mapping && !base.dynamic_kv);
    }

    #[test]
    fn final_step_matches_the_full_system() {
        let full = OuroborosConfig::single_wafer();
        let last = AblationStep::PlusKvCache.configure(&full);
        assert!(last.wafer_integration && last.cim && last.tgp);
        assert!(last.optimized_mapping && last.dynamic_kv);
        assert_eq!(last.geometry, full.geometry);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::BTreeSet<_> = AblationStep::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 6);
    }
}
