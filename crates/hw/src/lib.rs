//! Hardware model of the Ouroboros wafer-scale SRAM CIM system.
//!
//! The crate mirrors the three-level hierarchy of the paper (Fig. 2):
//!
//! * **Wafer** — a 215 mm × 215 mm monolithic wafer-scale chip holding a
//!   9 × 7 grid of dies (`geometry`),
//! * **Die** — a 23 mm × 30 mm reticle-limited die with a 13 × 17 grid of
//!   CIM cores,
//! * **CIM core** — a 2.97 mm² core with 32 crossbars (4 MB of SRAM), a
//!   128 KB ping-pong input buffer, a 32 KB output buffer and a 64-way SFU
//!   (`core`, `crossbar`).
//!
//! Every component exposes *costs* (latency, energy, area, capacity) rather
//! than bit-accurate behaviour: the end-to-end simulator composes these costs
//! per pipeline stage. The numbers are seeded from the component
//! characterisation the paper reports in §5 (CACTI array characterisation,
//! ASAP7 synthesis of the adder trees/SFU, Table 2 system-level metrics).
//!
//! The `yield_model` module implements the Murphy yield model and seeded
//! defect-map generation used by the fault-tolerance study, and `circuit`
//! captures the circuit-level comparison points of Table 2 (VLSI'22,
//! ISSCC'22, and the optional LUT-enhanced Ouroboros core).

mod circuit;
mod core;
mod crossbar;
mod energy;
mod geometry;
mod yield_model;

pub use crate::core::{CimCore, CoreConfig};
pub use circuit::{CircuitPoint, CIRCUIT_BASELINES};
pub use crossbar::CrossbarConfig;
pub use energy::EnergyTable;
pub use geometry::{CoreCoord, CoreId, WaferGeometry};
pub use yield_model::{DefectMap, YieldModel};
