//! Request-trace generation for the Ouroboros evaluation workloads.
//!
//! The paper evaluates every system on 1000-request traces drawn from four
//! sequence-length configurations (§6.2): a WikiText-2-derived distribution
//! with naturally varying prompt and generation lengths, and three fixed
//! configurations `(L_P, L_D) ∈ {(128, 2048), (2048, 128), (2048, 2048)}`
//! where `L_P` is the prefill (prompt) length and `L_D` the decode length.
//!
//! We do not ship the WikiText-2 text itself (the simulator never looks at
//! token *values*); instead [`LengthConfig::wikitext2_like`] reproduces the
//! statistical shape that matters for scheduling — highly variable prompt
//! lengths mixed with variable generation lengths — via a seeded log-normal
//! sampler, as documented in `DESIGN.md`.

//!
//! For online serving (the `ouro-serve` crate), [`arrival::ArrivalConfig`]
//! additionally stamps each request with an arrival time drawn from an
//! open-loop Poisson or bursty-Gamma process, and
//! [`session::SessionConfig`] generates shared-system-prompt / multi-turn
//! session traces whose requests carry [`request::SharedPrefix`] tags for
//! the prefix-caching KV manager.

mod arrival;
mod fault;
mod length;
mod request;
mod session;
mod trace;

pub use arrival::{ArrivalConfig, TimedRequest, TimedTrace};
pub use fault::{next_fault, FaultProcess, FaultStream};
pub use length::LengthConfig;
pub use request::{Request, SharedPrefix};
pub use session::SessionConfig;
pub use trace::{Trace, TraceGenerator};
