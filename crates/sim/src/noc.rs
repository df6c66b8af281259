//! Network-on-wafer model.
//!
//! Ouroboros connects its 13 923 CIM cores with a per-die 2-D mesh whose
//! links are 256-bit bidirectional (matching the core buffer width), stitches
//! neighbouring dies together with field-stitching links that behave like
//! mesh links with a die-crossing penalty, and scales beyond one wafer with
//! eight 100 Gb/s optical Ethernet ports (§3, §5).
//!
//! The module provides:
//!
//! * link/bandwidth/latency/energy parameters for intra-die, inter-die and
//!   inter-wafer hops, plus the aggregated [`InterWaferLink`] optical fabric
//!   used for bulk KV migrations between wafers,
//! * the transfer cost model ([`CommCost`], [`Transfer`]: latency and
//!   energy of moving a payload between two cores along the XY route's hop
//!   counts) used by the mapper and the end-to-end simulator.

pub use crate::cost::{CommCost, Transfer};
pub use crate::link::InterWaferLink;
