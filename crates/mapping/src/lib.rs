//! Communication-aware, fault-tolerant mapping of transformer blocks onto the
//! wafer (§4.3).
//!
//! The mapping stack has two layers:
//!
//! * **Inter-core mapping** — which CIM core holds which weight tile of the
//!   transformer block. The paper formulates this as a Mixed Integer
//!   Quadratic Program (Eq. 1–3): minimise Manhattan-distance-weighted
//!   traffic (inter-layer activations, intra-layer reductions and gathers,
//!   with a penalty for die crossings) subject to one-tile-per-core,
//!   defective-core and per-layer core-count constraints. We keep the exact
//!   objective and constraints ([`problem`], [`objective`]) and solve with a
//!   greedy S-order seed refined by simulated annealing ([`solvers`]); an
//!   exhaustive solver doubles as the test oracle on small instances.
//! * **Fault tolerance** — replacement-chain remapping that shifts weights
//!   from a failed core towards the nearest KV core whose cache can be
//!   evicted, without re-running the MIQP ([`fault`]).
//!
//! The intra-core H-tree plan of §4.3.2 (Eq. 4) is not modelled: the
//! timing model charges no H-tree cost, so a plan would change no result.
//!
//! The SUMMA (Cerebras-default) and WaferLLM placement baselines used by the
//! transmission-volume study (Fig. 18) are in [`baselines`].

pub mod baselines;
pub mod fault;
pub mod objective;
pub mod problem;
pub mod solvers;

pub use fault::{remap_with_chain, RemapError, RemapOutcome};
pub use objective::{CommSummary, ObjectiveEvaluator};
pub use problem::{Assignment, LayerSpec, MappingProblem, Tile};
pub use solvers::{solve, MappingSolution, Strategy};
