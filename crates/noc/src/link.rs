//! Link-level parameters of the network-on-wafer.

/// Parameters of one class of link (intra-die mesh, inter-die stitching, or
/// inter-wafer optical).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Usable bandwidth in bytes per second (per direction).
    pub bandwidth_bytes_per_s: f64,
    /// Latency contributed by traversing one such link (router + wire), in
    /// seconds.
    pub hop_latency_s: f64,
    /// Energy of moving one byte across the link, in joules.
    pub energy_j_per_byte: f64,
}

impl LinkConfig {
    /// Time to push `bytes` through the link once the head has arrived
    /// (serialisation latency).
    pub fn serialization_s(&self, bytes: u64) -> f64 {
        bytes as f64 / self.bandwidth_bytes_per_s
    }

    /// Energy of moving `bytes` across the link.
    pub fn energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * self.energy_j_per_byte
    }
}

/// Full network-on-wafer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NocConfig {
    /// Core-to-core mesh link inside a die: 256-bit bidirectional at the
    /// 1 GHz control clock (≈32 GB/s per direction).
    pub intra_die: LinkConfig,
    /// Die-to-die stitched link. Same width, but stitching adds latency and
    /// energy; the ratio of intra- to inter-die bandwidth is the
    /// `Cost_inter` penalty of the MIQP objective.
    pub inter_die: LinkConfig,
    /// Wafer-to-wafer optical Ethernet, per port (8 × 100 Gb/s ports).
    pub inter_wafer: LinkConfig,
    /// Number of optical Ethernet ports per wafer; bulk transfers (KV
    /// migration) stripe across all of them, point-to-point streams ride
    /// one. Kept here so [`InterWaferLink`] derives its aggregate from the
    /// same configuration that defines the per-port bandwidth.
    pub inter_wafer_ports: usize,
}

impl Default for NocConfig {
    fn default() -> Self {
        let intra_bw = 256.0 / 8.0 * 1.0e9; // 256 bit/cycle at 1 GHz => 32 GB/s
        NocConfig {
            intra_die: LinkConfig {
                bandwidth_bytes_per_s: intra_bw,
                hop_latency_s: 2.0e-9, // two router cycles at 1 GHz
                energy_j_per_byte: 0.8e-12,
            },
            inter_die: LinkConfig {
                bandwidth_bytes_per_s: intra_bw / 4.0,
                hop_latency_s: 8.0e-9,
                energy_j_per_byte: 2.4e-12,
            },
            inter_wafer: LinkConfig {
                // One of the eight 100 Gb/s optical Ethernet ports carries a
                // given point-to-point stream (12.5 GB/s).
                bandwidth_bytes_per_s: 100.0e9 / 8.0,
                hop_latency_s: 200.0e-9,
                energy_j_per_byte: 80.0e-12,
            },
            inter_wafer_ports: 8,
        }
    }
}

impl NocConfig {
    /// The paper's network configuration.
    pub fn paper() -> NocConfig {
        NocConfig::default()
    }

    /// A configuration modelling a chiplet system interconnected with
    /// NVLink-class links instead of wafer stitching (the "Baseline" bar of
    /// the Fig. 15 ablation): die-to-die hops are much more expensive in
    /// both latency and energy.
    pub fn chiplet_nvlink() -> NocConfig {
        let paper = NocConfig::paper();
        NocConfig {
            inter_die: LinkConfig {
                bandwidth_bytes_per_s: paper.intra_die.bandwidth_bytes_per_s / 8.0,
                hop_latency_s: 500.0e-9,
                energy_j_per_byte: 10.0e-12,
            },
            ..paper
        }
    }

    /// The MIQP cross-die penalty `Cost_inter`: intra-die bandwidth divided
    /// by inter-die bandwidth (§4.3.1).
    pub fn cost_inter(&self) -> f64 {
        self.intra_die.bandwidth_bytes_per_s / self.inter_die.bandwidth_bytes_per_s
    }
}

/// The inter-wafer optical Ethernet fabric: the eight 100 Gb/s ports of a
/// wafer, aggregated for bulk transfers.
///
/// Two consumers share this model so their byte accounting agrees:
///
/// * the *colocated* multi-wafer path (`ouro-sim`'s stage-time model), which
///   charges every token's activation one optical crossing when a model is
///   ganged across wafers, and
/// * the *disaggregated* path (`ouro-serve`'s disaggregated scenarios),
///   which migrates a sequence's entire KV cache from a prefill wafer to a
///   decode wafer and charges the full serialisation of those bytes.
///
/// Point-to-point streams (a single token's activation) ride one port;
/// bulk migrations stripe across all `ports`, so a migration's serialisation
/// time uses the aggregate bandwidth while its head latency still pays
/// `hop_latency_s` per wafer boundary crossed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterWaferLink {
    /// Per-port link parameters (bandwidth is per port, per direction).
    pub link: LinkConfig,
    /// Number of optical Ethernet ports a bulk transfer can stripe across.
    pub ports: usize,
    /// Fixed per-transfer setup cost (protocol handshake, DMA descriptor
    /// setup) paid once per migration regardless of size.
    pub setup_s: f64,
}

impl InterWaferLink {
    /// The paper's configuration: 8 × 100 Gb/s ports, 2 µs setup.
    pub fn paper() -> InterWaferLink {
        InterWaferLink::from_noc(&NocConfig::paper())
    }

    /// Builds the aggregate link from a NoC configuration's per-port
    /// inter-wafer parameters and port count.
    pub fn from_noc(noc: &NocConfig) -> InterWaferLink {
        InterWaferLink { link: noc.inter_wafer, ports: noc.inter_wafer_ports, setup_s: 2.0e-6 }
    }

    /// Aggregate bandwidth of a bulk transfer striped across all ports.
    pub fn aggregate_bandwidth_bytes_per_s(&self) -> f64 {
        self.link.bandwidth_bytes_per_s * self.ports.max(1) as f64
    }

    /// Wall-clock time of one bulk transfer crossing `wafer_hops` wafer
    /// boundaries: setup, per-boundary head latency, and serialisation at
    /// the aggregate bandwidth. Zero-hop transfers (same wafer) are free.
    pub fn transfer_time_s(&self, bytes: u64, wafer_hops: usize) -> f64 {
        if wafer_hops == 0 {
            return 0.0;
        }
        self.setup_s
            + wafer_hops as f64 * self.link.hop_latency_s
            + bytes as f64 / self.aggregate_bandwidth_bytes_per_s()
    }

    /// Energy of a bulk transfer: every byte pays the optical per-byte energy
    /// once per boundary crossed.
    pub fn transfer_energy_j(&self, bytes: u64, wafer_hops: usize) -> f64 {
        bytes as f64 * wafer_hops as f64 * self.link.energy_j_per_byte
    }

    /// Time for one token's activation to cross a single wafer boundary on
    /// one port (the colocated multi-wafer pipeline charge; streams are not
    /// striped).
    pub fn token_crossing_s(&self, activation_bytes: u64) -> f64 {
        self.link.hop_latency_s + self.link.serialization_s(activation_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intra_die_link_is_32_gb_per_s() {
        let n = NocConfig::paper();
        assert!((n.intra_die.bandwidth_bytes_per_s - 32.0e9).abs() < 1e-3);
    }

    #[test]
    fn cost_inter_is_the_bandwidth_ratio() {
        let n = NocConfig::paper();
        assert!((n.cost_inter() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn serialization_scales_with_bytes() {
        let l = NocConfig::paper().intra_die;
        assert!((l.serialization_s(64_000) - 2.0 * l.serialization_s(32_000)).abs() < 1e-15);
    }

    #[test]
    fn inter_wafer_is_much_slower_than_mesh() {
        let n = NocConfig::paper();
        assert!(n.inter_wafer.hop_latency_s > n.intra_die.hop_latency_s);
        assert!(n.inter_wafer.bandwidth_bytes_per_s < n.intra_die.bandwidth_bytes_per_s);
        assert!(n.inter_wafer.energy_j_per_byte > n.intra_die.energy_j_per_byte);
    }

    #[test]
    fn nvlink_chiplet_baseline_is_worse_across_dies() {
        let wafer = NocConfig::paper();
        let chiplet = NocConfig::chiplet_nvlink();
        assert!(chiplet.inter_die.hop_latency_s > wafer.inter_die.hop_latency_s);
        assert!(chiplet.inter_die.energy_j_per_byte > wafer.inter_die.energy_j_per_byte);
        assert!(chiplet.cost_inter() > wafer.cost_inter());
        // Intra-die links are unchanged.
        assert_eq!(chiplet.intra_die, wafer.intra_die);
    }

    #[test]
    fn link_energy_is_linear() {
        let l = NocConfig::paper().inter_die;
        assert_eq!(l.energy_j(0), 0.0);
        assert!((l.energy_j(1000) - 1000.0 * l.energy_j_per_byte).abs() < 1e-18);
    }

    #[test]
    fn inter_wafer_aggregate_is_100_gbytes_per_s() {
        let iw = InterWaferLink::paper();
        assert_eq!(iw.ports, 8);
        // 8 ports × 12.5 GB/s = 100 GB/s aggregate.
        assert!((iw.aggregate_bandwidth_bytes_per_s() - 100.0e9).abs() < 1.0);
    }

    #[test]
    fn zero_hop_migration_is_free() {
        let iw = InterWaferLink::paper();
        assert_eq!(iw.transfer_time_s(1 << 30, 0), 0.0);
        assert_eq!(iw.transfer_energy_j(1 << 30, 0), 0.0);
    }

    #[test]
    fn migration_time_decomposes_into_setup_head_and_serialisation() {
        let iw = InterWaferLink::paper();
        let bytes = 100_000_000u64; // 100 MB of KV
        let t = iw.transfer_time_s(bytes, 1);
        let expected = iw.setup_s + iw.link.hop_latency_s + bytes as f64 / 100.0e9;
        assert!((t - expected).abs() < 1e-12);
        // Two boundaries pay one more head latency but serialise once.
        let t2 = iw.transfer_time_s(bytes, 2);
        assert!((t2 - t - iw.link.hop_latency_s).abs() < 1e-12);
    }

    #[test]
    fn migration_energy_scales_with_bytes_and_hops() {
        let iw = InterWaferLink::paper();
        let e1 = iw.transfer_energy_j(1000, 1);
        assert!((e1 - 1000.0 * iw.link.energy_j_per_byte).abs() < 1e-15);
        assert!((iw.transfer_energy_j(1000, 3) - 3.0 * e1).abs() < 1e-15);
    }

    #[test]
    fn token_crossing_uses_a_single_port() {
        let iw = InterWaferLink::paper();
        let bytes = 5120;
        let t = iw.token_crossing_s(bytes);
        assert!((t - (iw.link.hop_latency_s + bytes as f64 / iw.link.bandwidth_bytes_per_s)).abs() < 1e-15);
        // A striped bulk transfer of the same payload serialises faster but
        // pays the setup cost.
        assert!(iw.transfer_time_s(bytes, 1) > iw.setup_s);
    }
}
