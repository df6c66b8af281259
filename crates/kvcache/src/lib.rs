//! Distributed dynamic KV-cache management (§4.4).
//!
//! Ouroboros has no HBM: the KV cache lives inside the same SRAM crossbars
//! that compute attention. This crate implements the paper's management
//! scheme:
//!
//! * crossbars in *attention mode* are carved into eight logical blocks that
//!   are dynamically allocated to sequences (the private `block` module),
//! * the paper's three-level address translation — page table (sequence →
//!   core), per-core bitmap (sequence → logical block),
//!   per-crossbar free-block registers (valid rows/columns) — lets a group
//!   of cores manage their KV storage without centralized control. The
//!   simulator keeps two kinds of data for it: each resident sequence's
//!   append cursors, which give the page table ([`manager`]), and the
//!   crossbar block tables with their free-block bitmasks (`block`). The
//!   per-core bitmap is implied by block ownership,
//! * the manager is per-head-scaled: one scaled core stands for `heads`
//!   physical cores, so a sequence holds one K and one V cursor, and
//!   consecutive sequences walk the ring of cores so that writes for the
//!   next token never collide with in-situ attention for the current one;
//!   K growth prefers *other* crossbars while V growth prefers the *same*
//!   crossbar ([`manager`]),
//! * requests sharing a common prompt prefix (same system prompt,
//!   conversation history) reference refcounted copy-on-write block chains
//!   instead of duplicating the prefix KV; a shared block is freed exactly
//!   when its last sharer releases, and the lifetime block audit counts it
//!   once ([`manager`]),
//! * inter-sequence scheduling is FCFS with preemptible autoregressive
//!   continuations, most-recently-scheduled eviction, and an anti-thrashing
//!   admission threshold ([`scheduler`]),
//! * a static pre-allocation baseline used by the ablation study
//!   ([`static_alloc`]).

mod block;
pub mod fasthash;
pub mod manager;
pub mod scheduler;
pub mod static_alloc;

pub use fasthash::{FastHasher, FastMap};
pub use manager::{
    BlockAudit, CrossbarSnapshot, KvCoreFailure, KvError, KvManager, KvManagerConfig, KvManagerSnapshot,
    KvRestoreError, KvSlot, KvTransferStats, SharedChainSnapshot, SnapshotChainNode, SnapshotSeqBlocks,
    SnapshotSlot,
};
pub use scheduler::{KvScheduler, SchedulerOutcome, SchedulerStats};
pub use static_alloc::StaticKvAllocator;
