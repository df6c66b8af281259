//! The distributed dynamic KV manager (§4.4.2–§4.4.3).
//!
//! The cores left over after weight mapping are split equally between the
//! `Q·Kᵀ` (score) computation and the `S·V` (context) computation; K vectors
//! live on score cores and V vectors on context cores. The manager is
//! per-head-scaled: one scaled core stands for `heads` physical cores, so a
//! sequence holds one K and one V append cursor. Consecutive sequences start
//! on consecutive cores of a ring (so that consecutive sequences never write
//! into the core another sequence is computing on), and growth follows the
//! K/V-specific policies: K prefers a free block in a *different* crossbar
//! (it grows along the output-channel dimension, which cannot be accumulated
//! within one crossbar), V prefers the *same* crossbar.
//!
//! On top of the per-sequence allocation the manager keeps a radix-style
//! **shared-prefix index**: requests tagged with a
//! [`ouro_workload::SharedPrefix`]-like `(group, tokens)` pair share the
//! whole-block portion of their common prompt prefix. Shared blocks are
//! refcounted and copy-on-write in the append-only sense — divergence after
//! the shared prefix (the unique prompt tail and all decode growth) lands in
//! private per-sequence blocks, so a shared block is never mutated once
//! full. A shared block is freed exactly when its last sharer releases; the
//! [`BlockAudit`] counts shared blocks once, so `allocated − freed == live`
//! holds under sharing too.

use crate::block::{CoreState, CrossbarBlocks};
use crate::fasthash::FastMap;
use ouro_hw::{CoreId, CrossbarConfig};

/// Which half of the attention computation a KV core serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KvRole {
    /// Stores K and computes `Q·Kᵀ`.
    Key,
    /// Stores V and computes `S·V`.
    Value,
}

/// Errors returned by the KV manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Not enough free blocks (or sequence slots) to admit / grow the
    /// sequence; the caller should evict or defer.
    OutOfCapacity,
    /// The sequence is not resident.
    UnknownSequence(u64),
    /// The manager was built with no KV cores at all.
    NoKvCores,
    /// The configuration has more cores on a side, crossbars per core or
    /// logical blocks per crossbar than a packed block reference
    /// addresses (`MAX_BLOCK_INDEX + 1` each).
    ConfigTooLarge,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::OutOfCapacity => write!(f, "kv cache out of capacity"),
            KvError::UnknownSequence(s) => write!(f, "sequence {s} is not resident"),
            KvError::NoKvCores => write!(f, "no cores were assigned to the kv cache"),
            KvError::ConfigTooLarge => write!(f, "the kv cache is larger than a block reference addresses"),
        }
    }
}

impl std::error::Error for KvError {}

/// Why [`KvManager::restore`] rejected a snapshot: the part of it that
/// does not fit the configuration or the rest of the snapshot. Each is a
/// state the live manager never holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvRestoreError {
    /// A side lists a different number of cores than the configuration
    /// has. A configuration no manager can be built from (no KV cores, or
    /// more than a block reference addresses) fits no snapshot: every
    /// manager has a core per side.
    CoreCount,
    /// A core lists a different number of crossbars than the configuration.
    CrossbarCount,
    /// A crossbar lists a different number of blocks than the configuration.
    BlockCount,
    /// A block holds more tokens than fit.
    Overfull,
    /// A private block's owner has no sequence entry, or two entries name
    /// one sequence.
    UnknownSequence,
    /// A cursor names a block its sequence does not own on its side.
    NotOwned,
    /// A private block other than its role's cursor is partly filled:
    /// growth moves a cursor only off a full block.
    PartialBlock,
    /// A sequence's K and V blocks hold different token counts.
    FillMismatch,
    /// A shared chain has no node, or nodes on more than one core of a side.
    ChainCore,
    /// A shared chain node names a block its group does not own.
    ChainNotOwned,
    /// A shared block is in no node of its group's chain, or in two.
    Unchained,
    /// A sharer names an absent chain, no node, or more nodes than it has.
    Sharer,
    /// A shared chain node that no sharer references.
    Unreferenced,
    /// Fewer blocks were allocated than are live.
    Allocations,
}

/// Configuration of the distributed KV manager for one transformer block's
/// attention.
#[derive(Debug, Clone, PartialEq)]
pub struct KvManagerConfig {
    /// Cores assigned to KV storage / in-situ attention, in ring order.
    pub(crate) kv_cores: Vec<CoreId>,
    /// Number of attention-mode crossbars per KV core.
    pub crossbars_per_core: usize,
    /// Crossbar geometry (logical blocks, tokens per block).
    pub crossbar: CrossbarConfig,
    /// Head dimension in int8 elements: one logical block holds the K or V
    /// vectors of one head.
    pub head_dim: usize,
    /// Anti-thrashing threshold (§4.4.4): when the fraction of free token
    /// slots on the core currently being allocated from drops below this
    /// value, the core is considered full for *new* sequences, reserving the
    /// residual capacity for decode-phase growth of already-resident ones.
    pub threshold: f64,
}

impl KvManagerConfig {
    /// A configuration with the paper's crossbar and a simple list of cores.
    pub fn new(kv_cores: Vec<CoreId>, head_dim: usize) -> KvManagerConfig {
        KvManagerConfig {
            kv_cores,
            crossbars_per_core: 32,
            crossbar: CrossbarConfig::paper(),
            head_dim,
            threshold: 0.1,
        }
    }
}

/// Occupancy and health totals the routing layers read per candidate
/// wafer, kept incrementally at every crossbar mutation so each read is a
/// field load instead of an O(cores × crossbars) walk. Derived state: never
/// serialized, rebuilt from the crossbar tables by [`Counters::scan`] on
/// construction and restore, and checked against the same walks on every
/// read in debug builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Counters {
    /// Key-side used token slots (failed crossbars included until their
    /// blocks are released, as [`CrossbarBlocks::used_tokens`] counts them).
    key_used_tokens: usize,
    /// Key-side token capacity of the non-failed crossbars.
    key_capacity_tokens: usize,
    /// Non-failed crossbars per role (`[key, value]`).
    healthy_crossbars: [usize; 2],
}

impl Counters {
    fn scan(key_cores: &[CoreState], value_cores: &[CoreState]) -> Counters {
        Counters {
            key_used_tokens: Counters::used_tokens(key_cores),
            key_capacity_tokens: Counters::capacity_tokens(key_cores),
            healthy_crossbars: Counters::healthy_crossbars(key_cores, value_cores),
        }
    }

    fn used_tokens(cores: &[CoreState]) -> usize {
        cores.iter().map(CoreState::used_tokens).sum()
    }

    fn capacity_tokens(cores: &[CoreState]) -> usize {
        cores.iter().map(CoreState::capacity_tokens).sum()
    }

    fn healthy_crossbars(key_cores: &[CoreState], value_cores: &[CoreState]) -> [usize; 2] {
        [key_cores, value_cores].map(|cores| cores.iter().map(CoreState::healthy_crossbars).sum())
    }
}

/// Both roles, in the order every per-sequence loop visits them.
const ROLES: [KvRole; 2] = [KvRole::Key, KvRole::Value];

/// A block's place within a role-side core list: the block a (sequence,
/// role) pair is currently appending into, or one block of a shared chain
/// node. A cursor never changes core: growth allocates on
/// `core_index`, and only a new admission binds a cursor elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Cursor {
    core_index: usize,
    crossbar: usize,
    block: usize,
}

impl Cursor {
    /// The cursor as a serialized [`SnapshotSlot`].
    fn slot(self) -> SnapshotSlot {
        (self.core_index, self.crossbar, self.block)
    }
}

/// Bits of each index in a [`BlockRef`].
const INDEX_BITS: u32 = 21;

/// The largest core, crossbar or block index a [`BlockRef`] holds;
/// [`KvManager::new`] rejects a configuration with a larger one.
const MAX_BLOCK_INDEX: usize = (1 << INDEX_BITS) - 1;

/// One private block of a sequence in 8 bytes: the role bit above the
/// core, crossbar and block indices, [`INDEX_BITS`] each (a `(KvRole,
/// Cursor)` pair takes 32).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BlockRef(u64);

impl BlockRef {
    fn new(role: KvRole, c: Cursor) -> BlockRef {
        let packed = [role as usize, c.core_index, c.crossbar, c.block]
            .into_iter()
            .fold(0, |packed, index| (packed << INDEX_BITS) | index as u64);
        let r = BlockRef(packed);
        debug_assert_eq!(r.unpack(), (role, c), "a block index past the packed range");
        r
    }

    fn unpack(self) -> (KvRole, Cursor) {
        let index = |field: u32| (self.0 >> (field * INDEX_BITS)) as usize & MAX_BLOCK_INDEX;
        let role = if index(3) == 0 { KvRole::Key } else { KvRole::Value };
        (role, Cursor { core_index: index(2), crossbar: index(1), block: index(0) })
    }
}

/// Dense index of a resident sequence's per-sequence state inside a
/// [`KvManager`]: its append cursors and private block list.
/// A sequence keeps its slot for as long as it stays resident; released
/// slots are reused, so a slot names a sequence only while
/// [`KvManager::slot_of`] says so. Slot numbers are never serialized. The
/// default is slot 0, a placeholder for state rebuilt before use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvSlot(u32);

impl KvSlot {
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Per-sequence state in struct-of-arrays form, one slot per resident
/// sequence, so the per-token decode path indexes arrays instead of hashing
/// the sequence id.
#[derive(Debug, Clone, Default)]
struct SlotTable {
    /// Resident sequence → its slot: the one map the slots are reached by.
    of: FastMap<u64, KvSlot>,
    /// Append cursors per slot, `[key, value]`: the block of each role that
    /// grows next. Every resident sequence has both.
    cursors: Vec<[Cursor; 2]>,
    /// Every private block allocated to the slot's sequence, packed, so
    /// [`KvManager::release`] frees exactly the sequence's blocks instead
    /// of sweeping every crossbar of every core. Shared prefix blocks are
    /// owned by their group, not the sequence, and are not indexed here.
    /// Release empties the list but keeps its buffer for the slot's next
    /// sequence, so a slot holds the capacity of the longest list it has
    /// served and admission, growth and release allocate nothing once
    /// the slots have grown.
    blocks: Vec<Vec<BlockRef>>,
    /// Released slots, reused last-in first-out.
    free: Vec<KvSlot>,
}

impl SlotTable {
    /// A slot for the non-resident `seq`, a free one (and its empty block
    /// list's buffer) if there is one, holding `cursors`.
    fn occupy(&mut self, seq: u64, cursors: [Cursor; 2]) -> KvSlot {
        let slot = self.free.pop().unwrap_or_else(|| {
            let slot = KvSlot(u32::try_from(self.cursors.len()).expect("fewer than 2^32 slots"));
            self.cursors.push(cursors);
            self.blocks.push(Vec::new());
            slot
        });
        debug_assert!(self.blocks[slot.index()].is_empty(), "a free slot lists no block");
        self.of.insert(seq, slot);
        self.cursors[slot.index()] = cursors;
        slot
    }
}

/// Owner tag of shared-prefix blocks in the per-crossbar block tables:
/// `SHARED_OWNER_TAG | group` lives in a namespace disjoint from sequence
/// ids, so a shared block never passes as a sequence's own.
const SHARED_OWNER_TAG: u64 = 1 << 63;

/// One whole-block link of a shared prefix chain: the K and V blocks
/// holding `tokens_per_block` tokens of the prefix, plus how many resident
/// sequences currently reference it.
#[derive(Debug, Clone)]
struct SharedNode {
    refs: usize,
    k: Cursor,
    v: Cursor,
}

impl SharedNode {
    /// The node's blocks with their roles, key first.
    fn blocks(&self) -> [(KvRole, Cursor); 2] {
        [(KvRole::Key, self.k), (KvRole::Value, self.v)]
    }
}

/// Counters of KV state handed across wafer boundaries (prefill/decode
/// disaggregation). Token counts are whole-sequence tokens; byte accounting
/// is the caller's job because the manager does not know the model's head
/// layout across blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvTransferStats {
    /// Sequences whose KV was exported (released for migration elsewhere).
    pub exported_sequences: u64,
    /// Tokens resident at export time, summed over exported sequences.
    pub exported_tokens: u64,
    /// Sequences admitted with KV computed on another wafer.
    pub imported_sequences: u64,
    /// Tokens of imported (not recomputed) KV, summed over imports.
    pub imported_tokens: u64,
}

/// Lifetime block accounting of one manager, the basis of the workspace's
/// conservation invariant: every block ever allocated is either freed or
/// still live, so `allocated − freed == live` at every observation instant.
/// A double-free would drive `freed` past `allocated` (and `live` negative
/// in the identity), which the audit makes immediately visible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockAudit {
    /// Logical blocks allocated since construction.
    pub allocated: u64,
    /// Logical blocks freed since construction.
    pub freed: u64,
    /// Logical blocks currently allocated somewhere in the cache.
    pub live: u64,
    /// Of `live`, the blocks held by shared prefix chains — each counted
    /// once, however many sequences currently reference it.
    pub shared_live: u64,
}

impl BlockAudit {
    /// The conservation identity `allocated − freed == live`, with every
    /// shared block accounted inside `live` exactly once.
    pub fn is_conserved(&self) -> bool {
        self.freed <= self.allocated
            && self.allocated - self.freed == self.live
            && self.shared_live <= self.live
    }
}

/// Outcome of one runtime KV failure. The failure quantum is a single
/// attention-mode *crossbar*: the manager is per-head-scaled (one scaled
/// core stands for `heads` physical cores), so one crossbar of
/// a scaled core is the nearest allocation unit to one physical KV core's
/// worth of cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvCoreFailure {
    /// Flat index of the struck core (key side first, then value side).
    pub index: usize,
    /// The struck core's id.
    pub(crate) core: CoreId,
    /// The failed crossbar within the core.
    pub(crate) crossbar: usize,
    /// Resident sequences that lost KV to the failure, in ascending order:
    /// those holding a private block on the failed crossbar, plus every
    /// sharer of a prefix chain with a node there (a sharer loses its
    /// prefix even when its own blocks sit on healthy crossbars). The
    /// caller must evict (release) them — their KV is partially gone and
    /// must be recomputed.
    pub evicted_sequences: Vec<u64>,
    /// Token slots lost to the failure: everything resident on the failed
    /// crossbar, plus the slots of struck prefix chains freed on healthy
    /// crossbars (the whole chain dies with any of its nodes).
    pub evicted_tokens: usize,
}

/// Serialized state of one crossbar block table inside a
/// [`KvManagerSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossbarSnapshot {
    /// Per-block `(owner, used_tokens)` entries; `None` is a free block.
    pub blocks: Vec<Option<(u64, usize)>>,
    /// Whether a runtime fault absorbed this crossbar.
    pub failed: bool,
}

/// A block slot `(core_index, crossbar, block)` within a role-side core
/// list, as serialized by [`KvManagerSnapshot`].
pub type SnapshotSlot = (usize, usize, usize);

/// A resident sequence inside a [`KvManagerSnapshot`]:
/// `(seq, k_cursor, v_cursor, shared)`, `shared` being the `(group, nodes)`
/// leading run of a prefix chain it references.
pub type SnapshotSeq = (u64, SnapshotSlot, SnapshotSlot, Option<(u64, usize)>);

/// A shared-prefix chain inside a [`KvManagerSnapshot`]: `(group, nodes)`,
/// each node its `(k_slot, v_slot)` in chain order.
pub type SnapshotChain = (u64, Vec<(SnapshotSlot, SnapshotSlot)>);

/// Complete mutable state of a [`KvManager`], captured by
/// [`KvManager::snapshot`] and rebuilt by [`KvManager::restore`] against the
/// same configuration. Each fact is stated once: the crossbar tables say
/// who owns which block and how full it is, and restore derives what they
/// imply. Map- and slot-backed state is stored as key-sorted vectors, so
/// the form is deterministic regardless of hash-map or slot-reuse history.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KvManagerSnapshot {
    /// Ring pointer per role (`[key, value]`).
    pub ring_next: [usize; 2],
    /// Lifetime logical-block allocations (the frees are these less the
    /// live blocks).
    pub allocated_blocks: u64,
    /// Export/import counters.
    pub transfers: KvTransferStats,
    /// Key-side crossbar tables, per core in order.
    pub key_cores: Vec<Vec<CrossbarSnapshot>>,
    /// Value-side crossbar tables, per core in order.
    pub value_cores: Vec<Vec<CrossbarSnapshot>>,
    /// Resident sequences, key-sorted.
    pub sequences: Vec<SnapshotSeq>,
    /// Shared prefix chains, key-sorted.
    pub shared: Vec<SnapshotChain>,
}

/// The distributed dynamic KV cache manager.
#[derive(Debug, Clone)]
pub struct KvManager {
    config: KvManagerConfig,
    key_cores: Vec<CoreState>,
    value_cores: Vec<CoreState>,
    /// Ring pointer per role: index of the core after the last one assigned.
    ring_next: [usize; 2],
    /// Per-sequence tokens, cursors and private blocks, one slot per
    /// resident sequence.
    slots: SlotTable,
    transfers: KvTransferStats,
    /// Shared prefix chains by group id, each its nodes in order, on its
    /// first node's cores. Sharers reference leading runs, so zero-ref
    /// nodes form a suffix, freed at once: no chain is empty.
    shared: FastMap<u64, Vec<SharedNode>>,
    /// How many leading chain nodes each resident sequence references.
    seq_shared: FastMap<u64, (u64, usize)>,
    /// Lifetime logical-block allocations (audit counter).
    allocated_blocks: u64,
    /// Lifetime logical-block frees (audit counter).
    freed_blocks: u64,
    /// Incremental occupancy and health totals (derived, not serialized).
    counters: Counters,
}

impl KvManager {
    /// Builds the manager, splitting the KV cores equally between the score
    /// (K) and context (V) halves.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::NoKvCores`] when the core list is empty, and
    /// [`KvError::ConfigTooLarge`] when a side's cores, a core's crossbars
    /// or a crossbar's blocks are more than a block reference addresses.
    pub fn new(config: KvManagerConfig) -> Result<KvManager, KvError> {
        if config.kv_cores.is_empty() {
            return Err(KvError::NoKvCores);
        }
        // The value side is the larger half.
        let widest =
            [config.kv_cores.len().div_ceil(2), config.crossbars_per_core, config.crossbar.logical_blocks];
        if widest.into_iter().any(|n| n > MAX_BLOCK_INDEX + 1) {
            return Err(KvError::ConfigTooLarge);
        }
        let mk_core = |id: CoreId| {
            let xb = CrossbarBlocks::new(&config.crossbar, config.head_dim);
            CoreState::new(id, vec![xb; config.crossbars_per_core])
        };
        let half = (config.kv_cores.len() / 2).max(1);
        let key_cores: Vec<CoreState> = config.kv_cores[..half].iter().copied().map(mk_core).collect();
        let value_cores: Vec<CoreState> =
            config.kv_cores[half.min(config.kv_cores.len())..].iter().copied().map(mk_core).collect();
        let value_cores = if value_cores.is_empty() { key_cores.clone() } else { value_cores };
        let mut m = KvManager {
            config,
            key_cores,
            value_cores,
            ring_next: [0, 0],
            slots: SlotTable::default(),
            transfers: KvTransferStats::default(),
            shared: FastMap::default(),
            seq_shared: FastMap::default(),
            allocated_blocks: 0,
            freed_blocks: 0,
            counters: Counters::default(),
        };
        m.recount();
        Ok(m)
    }

    /// Captures the manager's complete mutable state for checkpointing.
    /// Restoring the snapshot with [`KvManager::restore`] against the same
    /// configuration yields a manager whose every observable behavior —
    /// admission, growth, eviction, faults, audits — continues exactly as
    /// this one's would. Debug builds check that it does: that every fact
    /// the snapshot leaves out follows from the ones it keeps.
    pub fn snapshot(&self) -> KvManagerSnapshot {
        let side = |cores: &[CoreState]| -> Vec<Vec<CrossbarSnapshot>> {
            cores
                .iter()
                .map(|core| {
                    core.crossbars()
                        .iter()
                        .map(|xb| CrossbarSnapshot {
                            blocks: xb.block_table().to_vec(),
                            failed: xb.is_failed(),
                        })
                        .collect()
                })
                .collect()
        };
        // Slot numbering depends on release history, so every per-slot
        // row is emitted in sequence order.
        let sequences = self
            .resident()
            .into_iter()
            .map(|(seq, slot)| {
                let [k, v] = self.slots.cursors[slot.index()].map(Cursor::slot);
                (seq, k, v, self.seq_shared.get(&seq).copied())
            })
            .collect();
        let mut shared: Vec<SnapshotChain> = self
            .shared
            .iter()
            .map(|(&group, nodes)| (group, nodes.iter().map(|n| (n.k.slot(), n.v.slot())).collect()))
            .collect();
        shared.sort_unstable_by_key(|(group, _)| *group);
        let snap = KvManagerSnapshot {
            ring_next: self.ring_next,
            allocated_blocks: self.allocated_blocks,
            transfers: self.transfers,
            key_cores: side(&self.key_cores),
            value_cores: side(&self.value_cores),
            sequences,
            shared,
        };
        if cfg!(debug_assertions) {
            self.assert_restores(&snap);
        }
        snap
    }

    /// Asserts that `snap` restores (so each sequence's K and V fills
    /// agree) and that the refcounts and `freed` it derives equal this
    /// manager's.
    fn assert_restores(&self, snap: &KvManagerSnapshot) {
        let restored = KvManager::restore(self.config.clone(), snap);
        let r = restored.unwrap_or_else(|e| panic!("a live manager's snapshot does not restore: {e:?}"));
        assert_eq!(r.block_audit(), self.block_audit(), "freed differs from allocated − live");
        let refs = |nodes: &Vec<SharedNode>| nodes.iter().map(|n| n.refs).collect::<Vec<_>>();
        for (group, nodes) in &self.shared {
            assert_eq!(r.shared.get(group).map(refs), Some(refs(nodes)), "group {group}: refcounts differ");
        }
    }

    /// Rebuilds a manager from a [`KvManagerSnapshot`] and the configuration
    /// it was captured under, deriving each sequence's blocks, each chain's
    /// refcounts and cores, and the lifetime frees.
    ///
    /// # Errors
    ///
    /// Returns the [`KvRestoreError`] of the first part of the snapshot
    /// that does not fit the configuration (a configuration no manager can
    /// be built from is a core-count mismatch) or that no live manager
    /// holds, in this order: core tables, allocations, sequence entries and
    /// cursors, private blocks (their owners and fills), chains and their
    /// blocks, K and V fills, sharers, refcounts.
    /// Snapshots are only meaningful against the system that produced them.
    pub fn restore(config: KvManagerConfig, snap: &KvManagerSnapshot) -> Result<KvManager, KvRestoreError> {
        use KvRestoreError as E;
        let mut m = KvManager::new(config).map_err(|_| E::CoreCount)?;
        for (cores, side) in [(&mut m.key_cores, &snap.key_cores), (&mut m.value_cores, &snap.value_cores)] {
            if cores.len() != side.len() {
                return Err(E::CoreCount);
            }
            for (core, xbs) in cores.iter_mut().zip(side) {
                core.restore(xbs)?;
            }
        }
        m.recount();
        m.ring_next = snap.ring_next;
        m.transfers = snap.transfers;
        let live = m.block_audit().live;
        m.allocated_blocks = snap.allocated_blocks;
        m.freed_blocks = snap.allocated_blocks.checked_sub(live).ok_or(E::Allocations)?;
        let cursor = |(core_index, crossbar, block): SnapshotSlot| Cursor { core_index, crossbar, block };
        for &(seq, k, v, shared) in &snap.sequences {
            let cursors = [cursor(k), cursor(v)];
            if m.slots.of.contains_key(&seq) {
                return Err(E::UnknownSequence);
            }
            if !ROLES.into_iter().all(|role| m.owns(role, cursors[role as usize], seq)) {
                return Err(E::NotOwned);
            }
            m.slots.occupy(seq, cursors);
            if let Some(shared) = shared {
                m.seq_shared.insert(seq, shared);
            }
        }
        // Every private block joins its owner's list and fill; shared
        // blocks are counted, to be found in their chains below.
        let mut fills = vec![[0; 2]; m.slots.cursors.len()];
        let mut shared_blocks = 0;
        for (role, cores) in [(KvRole::Key, &m.key_cores), (KvRole::Value, &m.value_cores)] {
            for (core_index, core) in cores.iter().enumerate() {
                for (crossbar, xb) in core.crossbars().iter().enumerate() {
                    for (block, &(owner, used)) in
                        xb.block_table().iter().enumerate().filter_map(|(b, e)| Some((b, e.as_ref()?)))
                    {
                        if owner & SHARED_OWNER_TAG != 0 {
                            shared_blocks += 1;
                            continue;
                        }
                        let slot = m.slots.of.get(&owner).ok_or(E::UnknownSequence)?.index();
                        let c = Cursor { core_index, crossbar, block };
                        let partial = (1..xb.tokens_per_block()).contains(&used);
                        if partial && c != m.slots.cursors[slot][role as usize] {
                            return Err(E::PartialBlock);
                        }
                        m.slots.blocks[slot].push(BlockRef::new(role, c));
                        fills[slot][role as usize] += used;
                    }
                }
            }
        }
        // Every node block is its group's; if no two nodes name one and
        // they are as many as the shared blocks, every shared block is in
        // exactly one node.
        let mut chained = std::collections::BTreeSet::new();
        for (group, slots) in &snap.shared {
            let owner = SHARED_OWNER_TAG | group;
            let &(k0, v0) = slots.first().ok_or(E::ChainCore)?;
            let mut nodes = Vec::with_capacity(slots.len());
            for &(k, v) in slots {
                let node = SharedNode { refs: 0, k: cursor(k), v: cursor(v) };
                if !m.owns(KvRole::Key, node.k, owner) || !m.owns(KvRole::Value, node.v, owner) {
                    return Err(E::ChainNotOwned);
                }
                if (k.0, v.0) != (k0.0, v0.0) {
                    return Err(E::ChainCore);
                }
                if !chained.insert((KvRole::Key as u8, k)) || !chained.insert((KvRole::Value as u8, v)) {
                    return Err(E::Unchained);
                }
                nodes.push(node);
            }
            if m.shared.insert(*group, nodes).is_some() {
                return Err(E::Unchained);
            }
        }
        if chained.len() != shared_blocks {
            return Err(E::Unchained);
        }
        if fills.iter().any(|[k_fill, v_fill]| k_fill != v_fill) {
            return Err(E::FillMismatch);
        }
        for &(group, n) in m.seq_shared.values() {
            let chain = m.shared.get_mut(&group).filter(|c| (1..=c.len()).contains(&n)).ok_or(E::Sharer)?;
            for node in &mut chain[..n] {
                node.refs += 1;
            }
        }
        if m.shared.values().flatten().any(|node| node.refs == 0) {
            return Err(E::Unreferenced);
        }
        Ok(m)
    }

    /// Resident sequences and their slots, in sequence order.
    fn resident(&self) -> Vec<(u64, KvSlot)> {
        let mut resident: Vec<(u64, KvSlot)> =
            self.slots.of.iter().map(|(&seq, &slot)| (seq, slot)).collect();
        resident.sort_unstable_by_key(|&(seq, _)| seq);
        resident
    }

    /// The tokens the block at `c` of `role`'s cores holds.
    fn fill(&self, role: KvRole, c: Cursor) -> usize {
        self.cores(role)[c.core_index].crossbars()[c.crossbar].block_table()[c.block]
            .map_or(0, |(_, used)| used)
    }

    /// Whether `c` names a block of `role`'s cores that `owner` owns.
    fn owns(&self, role: KvRole, c: Cursor, owner: u64) -> bool {
        self.cores(role)
            .get(c.core_index)
            .and_then(|core| core.crossbars().get(c.crossbar))
            .and_then(|xb| xb.block_table().get(c.block))
            .is_some_and(|b| matches!(b, Some((o, _)) if *o == owner))
    }

    fn cores(&self, role: KvRole) -> &[CoreState] {
        match role {
            KvRole::Key => &self.key_cores,
            KvRole::Value => &self.value_cores,
        }
    }

    fn cores_mut(&mut self, role: KvRole) -> &mut Vec<CoreState> {
        match role {
            KvRole::Key => &mut self.key_cores,
            KvRole::Value => &mut self.value_cores,
        }
    }

    /// Rebuilds the incremental [`Counters`] from the crossbar tables: the
    /// one place they are derived rather than maintained.
    fn recount(&mut self) {
        self.counters = Counters::scan(&self.key_cores, &self.value_cores);
    }

    /// Total token capacity (per role side; K and V are symmetric).
    pub fn capacity_tokens(&self) -> usize {
        debug_assert_eq!(self.counters.key_capacity_tokens, Counters::capacity_tokens(&self.key_cores));
        self.counters.key_capacity_tokens
    }

    /// Tokens currently stored on the K side.
    pub fn used_tokens(&self) -> usize {
        debug_assert_eq!(self.counters.key_used_tokens, Counters::used_tokens(&self.key_cores));
        self.counters.key_used_tokens
    }

    /// K-side storage utilisation in `[0, 1]`.
    #[cfg(test)]
    pub(crate) fn utilization(&self) -> f64 {
        let cap = self.capacity_tokens();
        if cap == 0 {
            0.0
        } else {
            self.used_tokens() as f64 / cap as f64
        }
    }

    /// Number of resident sequences.
    pub fn resident_sequences(&self) -> usize {
        self.slots.of.len()
    }

    /// Tokens resident for one sequence (K side), if it is resident.
    /// Its shared tokens plus the tokens its private K blocks hold, which
    /// its V blocks hold too.
    pub fn sequence_tokens(&self, seq: u64) -> Option<usize> {
        let blocks = &self.slots.blocks[self.slot_of(seq)?.index()];
        let private: usize = blocks
            .iter()
            .map(|r| r.unpack())
            .filter(|(role, _)| *role == KvRole::Key)
            .map(|(role, c)| self.fill(role, c))
            .sum();
        Some(self.seq_shared.get(&seq).map_or(0, |&(_, n)| n * self.tokens_per_block()) + private)
    }

    /// The slot of a resident sequence, valid until the sequence is
    /// released: the handle [`KvManager::append_at`] grows it through.
    pub fn slot_of(&self, seq: u64) -> Option<KvSlot> {
        self.slots.of.get(&seq).copied()
    }

    /// Admits a new sequence with `initial_tokens` of prefilled KV (§4.4.3):
    /// its K and V cursors go to the first ring core of each role at or
    /// after the role's ring pointer, skipping cores whose free fraction is
    /// below the threshold. A resident `seq` is released first.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::OutOfCapacity`] if the cache cannot hold the
    /// sequence. The sequence is then released: it holds no block and no
    /// shared reference, and the caller may evict and retry with the same
    /// sequence id.
    pub(crate) fn admit(&mut self, seq: u64, initial_tokens: usize) -> Result<(), KvError> {
        self.admit_with_prefix(seq, initial_tokens, None).map(|_| ())
    }

    /// Prefix-aware admission: like `KvManager::admit`, but when `prefix`
    /// names a shared group, the whole-block portion of the common prefix is
    /// served from the shared chain (allocated on first use, referenced
    /// thereafter) and only the remainder is allocated privately. Returns
    /// how many tokens were satisfied from the shared cache — the caller
    /// skips recomputing exactly those.
    ///
    /// Sharing degrades gracefully: if the chain cannot grow (capacity,
    /// threshold), the sequence simply caches fewer tokens — prefix reuse
    /// never turns an admissible sequence away by itself.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::OutOfCapacity`] under the same conditions as
    /// `KvManager::admit`, having released the sequence, shared references
    /// included.
    pub fn admit_with_prefix(
        &mut self,
        seq: u64,
        initial_tokens: usize,
        prefix: Option<(u64, usize)>,
    ) -> Result<usize, KvError> {
        // Re-admission starts a resident sequence afresh. (Only a resident
        // sequence holds shared references.)
        if self.slots.of.contains_key(&seq) {
            self.release(seq);
        }
        // `shared` tokens live in shared blocks (reused + newly populated);
        // only the `cached` portion pre-existed and skips prefill — the
        // first sharer computes the prefix KV it deposits in the chain.
        let (shared, cached) = match prefix {
            Some((group, tokens)) => self.attach_shared(seq, group, tokens.min(initial_tokens)),
            None => (0, 0),
        };
        // Allocate the private cursors and fill the non-shared tokens; a
        // failure releases everything the admission took.
        let admitted = self.bind(seq).and_then(|slot| {
            let private = initial_tokens - shared;
            if private > 0 {
                self.append_at(slot, seq, private)
            } else {
                Ok(())
            }
        });
        if let Err(err) = admitted {
            self.release(seq);
            return Err(err);
        }
        Ok(cached)
    }

    /// Binds `seq`'s two cursors to fresh blocks on the next ring cores of
    /// their roles and gives it a slot.
    fn bind(&mut self, seq: u64) -> Result<KvSlot, KvError> {
        let k_core = self.pick_core(KvRole::Key)?;
        let v_core = self.pick_core(KvRole::Value)?;
        // The lowest free block of the lowest crossbar with one.
        let k = self.alloc_block(KvRole::Key, k_core, 0, seq).ok_or(KvError::OutOfCapacity)?;
        let Some(v) = self.alloc_block(KvRole::Value, v_core, 0, seq) else {
            self.free_block(KvRole::Key, k);
            return Err(KvError::OutOfCapacity);
        };
        let slot = self.slots.occupy(seq, [k, v]);
        self.slots.blocks[slot.index()]
            .extend([BlockRef::new(KvRole::Key, k), BlockRef::new(KvRole::Value, v)]);
        Ok(slot)
    }

    /// The core of `role` a new cursor goes to: one walk of the ring from
    /// the role's pointer to the first core above the anti-thrashing
    /// threshold, which the pointer then moves past. Used by both private
    /// admission and shared-chain creation, so every allocation decision
    /// follows the same §4.4.3 walk.
    fn pick_core(&mut self, role: KvRole) -> Result<usize, KvError> {
        let (tpb, threshold) = (self.tokens_per_block(), self.config.threshold);
        let cores = self.cores(role);
        let n = cores.len();
        let start = self.ring_next[role as usize] % n;
        let picked = (start..start + n)
            .map(|i| i % n)
            .find(|&i| cores[i].above_threshold(tpb, threshold))
            .ok_or(KvError::OutOfCapacity)?;
        self.ring_next[role as usize] = (picked + 1) % n;
        Ok(picked)
    }

    /// Token capacity of one logical block for this configuration — the
    /// sharing granularity (only whole blocks of a prefix are shared).
    pub fn tokens_per_block(&self) -> usize {
        self.config.crossbar.tokens_per_logical_block(self.config.head_dim, 1)
    }

    /// Longest cached prefix available to a request of `prefix_tokens`
    /// shared tokens in `group`, in tokens (whole blocks only, 0 when the
    /// group is not resident). Routing layers use this to steer requests
    /// toward the wafer already holding their prefix.
    pub fn prefix_lookup(&self, group: u64, prefix_tokens: usize) -> usize {
        let tpb = self.tokens_per_block();
        if tpb == 0 {
            return 0;
        }
        match self.shared.get(&group) {
            Some(nodes) => nodes.len().min(prefix_tokens / tpb) * tpb,
            None => 0,
        }
    }

    /// References the leading `prefix_tokens / tokens_per_block` nodes of
    /// `group`'s chain for `seq`, growing the chain as far as capacity
    /// allows. Returns `(shared_tokens, cached_tokens)`: how many of the
    /// sequence's tokens live in shared blocks, and how many of those
    /// pre-existed (the reusable portion — newly populated nodes are this
    /// sequence's own prefill, stored shared for the next sharer).
    fn attach_shared(&mut self, seq: u64, group: u64, prefix_tokens: usize) -> (usize, usize) {
        let tpb = self.tokens_per_block();
        if tpb == 0 {
            return (0, 0);
        }
        let want = prefix_tokens / tpb;
        if want == 0 {
            return (0, 0);
        }
        let owner = SHARED_OWNER_TAG | group;
        let mut nodes = self.shared.remove(&group).unwrap_or_default();
        let cores = match nodes.first() {
            Some(node) => Ok((node.k.core_index, node.v.core_index)),
            // First sharer: pick the chain's cores with the same ring walk
            // as a private admission. Failure here just means no caching
            // for now.
            None => self.pick_core(KvRole::Key).and_then(|k| Ok((k, self.pick_core(KvRole::Value)?))),
        };
        let existing = nodes.len();
        if let Ok((k_core, v_core)) = cores {
            while nodes.len() < want {
                let Some(node) = self.alloc_node(owner, k_core, v_core) else { break };
                nodes.push(node);
            }
        }
        if nodes.is_empty() {
            return (0, 0);
        }
        let use_nodes = nodes.len().min(want);
        for node in &mut nodes[..use_nodes] {
            node.refs += 1;
        }
        self.shared.insert(group, nodes);
        self.seq_shared.insert(seq, (group, use_nodes));
        (use_nodes * tpb, existing.min(use_nodes) * tpb)
    }

    /// One full node (a K and a V block) of `owner`'s chain on its cores,
    /// the K block rolled back if the V block cannot be allocated.
    fn alloc_node(&mut self, owner: u64, k_core: usize, v_core: usize) -> Option<SharedNode> {
        let tpb = self.tokens_per_block();
        let k = self.alloc_shared_block(KvRole::Key, k_core, owner, tpb)?;
        let Some(v) = self.alloc_shared_block(KvRole::Value, v_core, owner, tpb) else {
            self.free_block(KvRole::Key, k);
            return None;
        };
        Some(SharedNode { refs: 0, k, v })
    }

    /// Allocates and fills one shared block on a fixed core (lowest free
    /// block of the lowest healthy crossbar with one).
    fn alloc_shared_block(
        &mut self,
        role: KvRole,
        core_index: usize,
        owner: u64,
        tpb: usize,
    ) -> Option<Cursor> {
        let c = self.alloc_block(role, core_index, 0, owner)?;
        let leftover = self.cores_mut(role)[core_index].append(c.crossbar, c.block, owner, tpb);
        debug_assert_eq!(leftover, 0, "a fresh block holds a whole prefix node");
        if role == KvRole::Key {
            self.counters.key_used_tokens += tpb - leftover;
        }
        Some(c)
    }

    /// Allocates to `owner` the lowest free block of the first healthy
    /// crossbar with one, in cyclic order from crossbar `start` of `role`'s
    /// core `core_index`, counting it in the audit.
    fn alloc_block(&mut self, role: KvRole, core_index: usize, start: usize, owner: u64) -> Option<Cursor> {
        let (crossbar, block) = self.cores_mut(role)[core_index].allocate_from(start, owner)?;
        self.allocated_blocks += 1;
        Some(Cursor { core_index, crossbar, block })
    }

    /// Frees one block whoever owns it, returning the tokens it held and
    /// keeping the lifetime audit and the key-side used-token counter in
    /// step; a free block changes nothing.
    /// Every path that frees a block goes through here, so a shared block
    /// is audit-counted once, whichever path frees it.
    fn free_block(&mut self, role: KvRole, c: Cursor) -> usize {
        let Some(used) = self.cores_mut(role)[c.core_index].free(c.crossbar, c.block) else { return 0 };
        self.freed_blocks += 1;
        if role == KvRole::Key {
            self.counters.key_used_tokens -= used;
        }
        used
    }

    /// Drops `seq`'s references on its shared chain, freeing every node
    /// whose refcount reaches zero (sequences reference leading runs, so
    /// zero-ref nodes always form a chain suffix). Returns how many nodes
    /// it referenced.
    fn detach_shared(&mut self, seq: u64) -> usize {
        let Some((group, n)) = self.seq_shared.remove(&seq) else { return 0 };
        let Some(mut nodes) = self.shared.remove(&group) else { return n };
        let covered = n.min(nodes.len());
        for node in &mut nodes[..covered] {
            node.refs = node.refs.saturating_sub(1);
        }
        let kept = nodes.iter().rposition(|node| node.refs > 0).map_or(0, |last| last + 1);
        for (role, c) in nodes.split_off(kept).iter().flat_map(SharedNode::blocks) {
            self.free_block(role, c);
        }
        if !nodes.is_empty() {
            self.shared.insert(group, nodes);
        }
        n
    }

    /// Appends `tokens` new tokens of K and V to a resident sequence (the
    /// per-token write that overlaps the attention of the current token).
    ///
    /// # Errors
    ///
    /// Returns [`KvError::UnknownSequence`] if the sequence is not resident or
    /// [`KvError::OutOfCapacity`] if K or V cannot grow.
    #[cfg(test)]
    pub(crate) fn append_tokens(&mut self, seq: u64, tokens: usize) -> Result<(), KvError> {
        let slot = self.slot_of(seq).ok_or(KvError::UnknownSequence(seq))?;
        self.append_at(slot, seq, tokens)
    }

    /// Appends `tokens` new tokens of K and V to the resident sequence
    /// `seq` through its slot (see [`KvManager::slot_of`]): the append path of
    /// the serving engine and the offline replay. `slot` must be `seq`'s
    /// current slot (debug builds assert it). An append of at most
    /// [`KvManager::room`] tokens allocates no block.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::OutOfCapacity`] if K or V cannot grow. The append
    /// then writes nothing: the tokens it wrote are taken back, so K and V
    /// still hold the sequence's token count each, and the cursors are
    /// back on the blocks it started from. The blocks it allocated stay
    /// the sequence's, empty, until it is released.
    pub fn append_at(&mut self, slot: KvSlot, seq: u64, tokens: usize) -> Result<(), KvError> {
        debug_assert_eq!(self.slot_of(seq), Some(slot), "slot {slot:?} does not hold sequence {seq}");
        let i = slot.index();
        let (listed, cursors) = (self.slots.blocks[i].len(), self.slots.cursors[i]);
        for role in ROLES {
            if let Err(unwritten) = self.append_for(slot, seq, role, tokens) {
                // Take back what it wrote, in the new blocks and in the
                // cursor blocks it started from.
                let mut written = [tokens, 0];
                written[role as usize] = tokens - unwritten;
                for at in listed..self.slots.blocks[i].len() {
                    let (role, c) = self.slots.blocks[i][at].unpack();
                    let fill = self.fill(role, c);
                    self.take_back(role, c, fill);
                    written[role as usize] -= fill;
                }
                for role in ROLES {
                    self.take_back(role, cursors[role as usize], written[role as usize]);
                }
                // The cursors go back to the blocks they started from, so
                // every other private block is full or empty.
                self.slots.cursors[i] = cursors;
                return Err(KvError::OutOfCapacity);
            }
        }
        Ok(())
    }

    /// Takes `tokens` of the block at `c` of `role`'s cores back.
    fn take_back(&mut self, role: KvRole, c: Cursor, tokens: usize) {
        self.cores_mut(role)[c.core_index].take_back(c.crossbar, c.block, tokens);
        if role == KvRole::Key {
            self.counters.key_used_tokens -= tokens;
        }
    }

    /// Tokens [`KvManager::append_at`] can still add to `slot` without a
    /// new block: the free token slots left in its two cursor blocks
    /// (`tokens_per_block − used`, the smaller of the two).
    pub fn room(&self, slot: KvSlot) -> usize {
        let cursors = self.slots.cursors[slot.index()];
        let room = |role: KvRole| {
            let c = cursors[role as usize];
            let xb = &self.cores(role)[c.core_index].crossbars()[c.crossbar];
            xb.block_table()[c.block].map_or(0, |(_, used)| xb.tokens_per_block() - used)
        };
        room(KvRole::Key).min(room(KvRole::Value))
    }

    /// Appends `tokens` to `role`'s side of `slot`, returning the tokens
    /// that did not fit when a block cannot be allocated.
    fn append_for(&mut self, slot: KvSlot, seq: u64, role: KvRole, tokens: usize) -> Result<(), usize> {
        let at = role as usize;
        let mut remaining = tokens;
        while remaining > 0 {
            let cursor = self.slots.cursors[slot.index()][at];
            let core = &mut self.cores_mut(role)[cursor.core_index];
            let leftover = core.append(cursor.crossbar, cursor.block, seq, remaining);
            let consumed = remaining - leftover;
            if role == KvRole::Key {
                self.counters.key_used_tokens += consumed;
            }
            remaining = leftover;
            if remaining == 0 {
                break;
            }
            // The cursor block is full: a new one, K preferring a different
            // crossbar and V the same.
            let start = match role {
                KvRole::Key => cursor.crossbar + 1,
                KvRole::Value => cursor.crossbar,
            };
            let c = self.alloc_block(role, cursor.core_index, start, seq).ok_or(remaining)?;
            self.slots.blocks[slot.index()].push(BlockRef::new(role, c));
            self.slots.cursors[slot.index()][at] = c;
        }
        Ok(())
    }

    /// Releases every block of a sequence (completion or eviction), returning
    /// how many tokens were resident. Shared prefix blocks are dereferenced
    /// rather than freed; a shared block is freed only when its last sharer
    /// releases.
    pub fn release(&mut self, seq: u64) -> usize {
        let mut tokens = 0;
        if let Some(slot) = self.slots.of.remove(&seq) {
            // Free exactly the blocks the allocation paths indexed for this
            // sequence — the only paths that ever free private blocks run
            // through here, so every indexed block is still owned by `seq`.
            // Its K blocks hold its private tokens. The emptied list keeps
            // its buffer for the slot's next sequence.
            let mut blocks = std::mem::take(&mut self.slots.blocks[slot.index()]);
            for (role, c) in blocks.drain(..).map(BlockRef::unpack) {
                let used = self.free_block(role, c);
                tokens += if role == KvRole::Key { used } else { 0 };
            }
            self.slots.blocks[slot.index()] = blocks;
            self.slots.free.push(slot);
        }
        for core in self.key_cores.iter().chain(self.value_cores.iter()) {
            debug_assert!(core.counters_are_derived(), "a core's counters differ from a rescan");
            for xb in core.crossbars() {
                debug_assert!(!xb.owns_any(seq), "per-sequence block index missed a block");
            }
        }
        match self.detach_shared(seq) {
            0 => tokens,
            nodes => tokens + nodes * self.tokens_per_block(),
        }
    }

    /// The lifetime block audit (`allocated − freed == live`), with shared
    /// prefix blocks counted once inside both `live` and `shared_live`.
    pub fn block_audit(&self) -> BlockAudit {
        let live: u64 =
            self.key_cores.iter().chain(self.value_cores.iter()).map(CoreState::live_blocks).sum();
        let shared_live: u64 = self.shared.values().map(|nodes| 2 * nodes.len() as u64).sum();
        BlockAudit { allocated: self.allocated_blocks, freed: self.freed_blocks, live, shared_live }
    }

    /// Total KV cores across both roles (key side first, then value side) —
    /// the core-index space of [`KvManager::fail_kv_core`].
    pub fn num_kv_cores(&self) -> usize {
        self.key_cores.len() + self.value_cores.len()
    }

    /// Total failure quanta: attention-mode crossbars across every core of
    /// both roles. A wafer dies after this many faults at the latest.
    pub(crate) fn num_kv_units(&self) -> usize {
        self.key_cores.iter().chain(self.value_cores.iter()).map(|c| c.crossbars().len()).sum()
    }

    /// Crossbars absorbed by runtime failures so far.
    pub(crate) fn failed_kv_units(&self) -> usize {
        let [key, value] = self.healthy_crossbars();
        self.num_kv_units() - key - value
    }

    /// Non-failed crossbars per role (`[key, value]`).
    fn healthy_crossbars(&self) -> [usize; 2] {
        debug_assert_eq!(
            self.counters.healthy_crossbars,
            Counters::healthy_crossbars(&self.key_cores, &self.value_cores)
        );
        self.counters.healthy_crossbars
    }

    /// Fraction of KV crossbars still healthy, in `[0, 1]`.
    pub fn healthy_kv_fraction(&self) -> f64 {
        let n = self.num_kv_units();
        if n == 0 {
            0.0
        } else {
            (n - self.failed_kv_units()) as f64 / n as f64
        }
    }

    /// Whether the cache can still hold sequences: both attention roles need
    /// at least one healthy crossbar (K and V must both land somewhere).
    pub fn is_serviceable(&self) -> bool {
        let [key, value] = self.healthy_crossbars();
        key > 0 && value > 0
    }

    /// Fails one attention-mode crossbar — the physical-KV-core equivalent
    /// in the scaled manager — scanning cores from `preferred` (modulo the
    /// core count, key side first) to the first core with a healthy
    /// crossbar, then failing that core's lowest-indexed healthy crossbar.
    /// The crossbar stops contributing capacity immediately; the returned
    /// failure lists the resident sequences that held blocks on it, which
    /// the caller must release (evict) — their KV is partially lost and
    /// must be recomputed.
    ///
    /// Returns `None` when every crossbar has already failed.
    pub fn fail_kv_core(&mut self, preferred: usize) -> Option<KvCoreFailure> {
        let n = self.num_kv_cores();
        let k = self.key_cores.len();
        let core_at = |i: usize| if i < k { &self.key_cores[i] } else { &self.value_cores[i - k] };
        let index = (0..n).map(|o| (preferred + o) % n).find(|&i| core_at(i).has_healthy())?;
        let failed_role = if index < k { KvRole::Key } else { KvRole::Value };
        let role_core = if index < k { index } else { index - k };
        let core = core_at(index);
        let xb_idx =
            core.crossbars().iter().position(|xb| !xb.is_failed()).expect("scan found a healthy crossbar");
        let id = core.id;
        let xb = &core.crossbars()[xb_idx];
        let mut evicted_tokens = xb.used_tokens();
        let lost_capacity = xb.capacity_tokens();
        // The victims are the struck crossbar's owners that are resident
        // sequences; shared-prefix owners are handled with their chains.
        let mut evicted: Vec<u64> = xb
            .block_table()
            .iter()
            .flatten()
            .map(|&(owner, _)| owner)
            .filter(|owner| owner & SHARED_OWNER_TAG == 0 && self.slots.of.contains_key(owner))
            .collect();
        debug_assert!(
            {
                let mut scanned: Vec<u64> =
                    self.slots.of.keys().copied().filter(|&s| xb.owns_any(s)).collect();
                scanned.sort_unstable();
                let mut listed = evicted.clone();
                listed.sort_unstable();
                listed.dedup();
                scanned == listed
            },
            "the struck crossbar's table names every resident sequence on it"
        );
        self.cores_mut(failed_role)[role_core].fail(xb_idx);
        self.counters.healthy_crossbars[failed_role as usize] -= 1;
        if failed_role == KvRole::Key {
            self.counters.key_capacity_tokens -= lost_capacity;
        }
        // Shared prefix chains with a node on the failed crossbar lose part
        // of their prefix KV: every sharer must be evicted for recompute,
        // and the whole chain is freed (each block exactly once — sharers'
        // later releases find no chain to dereference).
        let on_failed = |(role, c): (KvRole, Cursor)| {
            role == failed_role && c.core_index == role_core && c.crossbar == xb_idx
        };
        let struck_groups: Vec<u64> = self
            .shared
            .iter()
            .filter(|(_, nodes)| nodes.iter().flat_map(SharedNode::blocks).any(on_failed))
            .map(|(&group, _)| group)
            .collect();
        let tpb = self.tokens_per_block();
        for group in struck_groups {
            let chain = self.shared.remove(&group).expect("group collected above");
            for (role, c) in chain.iter().flat_map(SharedNode::blocks) {
                // Chain blocks off the failed crossbar are additional
                // losses; those on it are already inside `xb.used_tokens()`.
                if !on_failed((role, c)) {
                    evicted_tokens += tpb;
                }
                self.free_block(role, c);
            }
            let sharers: Vec<u64> =
                self.seq_shared.iter().filter(|(_, &(g, _))| g == group).map(|(&s, _)| s).collect();
            for s in sharers {
                self.seq_shared.remove(&s);
                evicted.push(s);
            }
        }
        evicted.sort_unstable();
        evicted.dedup();
        Some(KvCoreFailure { index, core: id, crossbar: xb_idx, evicted_sequences: evicted, evicted_tokens })
    }

    /// Exports a resident sequence's KV for migration to another wafer:
    /// releases every block locally and returns the token count that must
    /// travel. The serving layer charges the byte volume against the
    /// inter-wafer link model.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::UnknownSequence`] when the sequence is not
    /// resident.
    pub fn export_sequence(&mut self, seq: u64) -> Result<usize, KvError> {
        if !self.slots.of.contains_key(&seq) {
            return Err(KvError::UnknownSequence(seq));
        }
        let tokens = self.release(seq);
        self.transfers.exported_sequences += 1;
        self.transfers.exported_tokens += tokens as u64;
        Ok(tokens)
    }

    /// Admits a sequence whose `tokens` of KV were computed on another wafer
    /// and have arrived over the inter-wafer link. Only `wire_tokens` of it
    /// actually travelled — the rest was deduplicated against this wafer's
    /// shared prefix cache at announce time. Allocation follows
    /// [`KvManager::admit_with_prefix`]; only the wire tokens count as
    /// imported. Returns the tokens served from the local prefix cache at
    /// admission (which can differ from the announce-time figure if the
    /// chain changed while the migration was in flight).
    ///
    /// # Errors
    ///
    /// Returns [`KvError::OutOfCapacity`] under the same conditions as
    /// `KvManager::admit` (the caller should release, evict, and retry).
    pub fn import_with_prefix(
        &mut self,
        seq: u64,
        tokens: usize,
        prefix: Option<(u64, usize)>,
        wire_tokens: usize,
    ) -> Result<usize, KvError> {
        assert!(wire_tokens <= tokens, "the wire cannot carry more than the sequence holds");
        let cached = self.admit_with_prefix(seq, tokens, prefix)?;
        self.transfers.imported_sequences += 1;
        self.transfers.imported_tokens += wire_tokens as u64;
        Ok(cached)
    }

    /// Counters of exported/imported KV state.
    pub fn transfer_stats(&self) -> &KvTransferStats {
        &self.transfers
    }

    /// The K-side core id a sequence lives on, if resident: the page-table
    /// entry (first translation level), read off its key cursor.
    #[cfg(test)]
    pub(crate) fn core_of(&self, seq: u64) -> Option<CoreId> {
        let cursor = self.slots.cursors[self.slot_of(seq)?.index()][KvRole::Key as usize];
        Some(self.key_cores[cursor.core_index].id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of prefix groups with a resident shared chain.
    fn prefix_groups(m: &KvManager) -> usize {
        m.shared.len()
    }

    fn manager(cores: usize) -> KvManager {
        let ids = (0..cores).map(CoreId).collect();
        KvManager::new(KvManagerConfig::new(ids, 128)).unwrap()
    }

    #[test]
    fn snapshot_restore_preserves_every_observable() {
        let mut m = manager(8);
        m.admit_with_prefix(1, 300, Some((42, 256))).unwrap();
        m.admit_with_prefix(2, 280, Some((42, 256))).unwrap();
        m.admit(3, 100).unwrap();
        m.append_tokens(1, 5).unwrap();
        let failure = m.fail_kv_core(1).expect("healthy crossbars remain");
        for seq in failure.evicted_sequences {
            m.release(seq);
        }
        let snap = m.snapshot();
        let mut r = KvManager::restore(m.config.clone(), &snap).unwrap();
        assert_eq!(r.snapshot(), snap, "restore is lossless");
        assert_eq!(r.used_tokens(), m.used_tokens());
        assert_eq!(r.capacity_tokens(), m.capacity_tokens());
        assert_eq!(r.block_audit(), m.block_audit());
        assert_eq!(r.transfer_stats(), m.transfer_stats());
        assert_eq!(r.failed_kv_units(), m.failed_kv_units());
        // Both managers evolve identically from the restored state.
        assert_eq!(
            m.admit_with_prefix(7, 400, Some((42, 256))),
            r.admit_with_prefix(7, 400, Some((42, 256)))
        );
        assert_eq!(m.append_tokens(7, 12), r.append_tokens(7, 12));
        assert_eq!(m.release(3), r.release(3));
        assert_eq!(m.fail_kv_core(0), r.fail_kv_core(0));
        assert_eq!(r.snapshot(), m.snapshot());
    }

    #[test]
    fn restore_rejects_rows_of_sequences_that_are_not_resident() {
        let mut m = manager(8);
        m.admit(1, 300).unwrap();
        let snap = m.snapshot();
        let mut orphan = snap.clone();
        orphan.sequences.clear();
        assert_eq!(
            KvManager::restore(m.config.clone(), &orphan).unwrap_err(),
            KvRestoreError::UnknownSequence
        );
        let mut twice = snap;
        twice.sequences.push(twice.sequences[0]);
        assert_eq!(
            KvManager::restore(m.config.clone(), &twice).unwrap_err(),
            KvRestoreError::UnknownSequence
        );
    }

    /// `snap` with the K-side block at `slot` holding `entry`.
    fn set_key_block(
        snap: &mut KvManagerSnapshot,
        (core, xb, block): SnapshotSlot,
        entry: Option<(u64, usize)>,
    ) {
        snap.key_cores[core][xb].blocks[block] = entry;
    }

    #[test]
    fn restore_rejects_page_and_shared_rows_that_do_not_fit() {
        let mut m = manager(8);
        m.admit_with_prefix(1, 300, Some((42, 256))).unwrap();
        let snap = m.snapshot();
        assert!(KvManager::restore(m.config.clone(), &snap).is_ok());
        type Edit = fn(&mut KvManagerSnapshot);
        let edits: [(Edit, KvRestoreError); 21] = [
            (|s| s.allocated_blocks = 5, KvRestoreError::Allocations),
            // Cursors and fills.
            (|s| s.sequences[0].1 = (0, 31, 0), KvRestoreError::NotOwned),
            (|s| s.sequences[0].2 = s.shared[0].1[0].1, KvRestoreError::NotOwned),
            (
                |s| {
                    let (core, xb, block) = s.sequences[0].1;
                    let (owner, used) = s.key_cores[core][xb].blocks[block].unwrap();
                    set_key_block(s, (core, xb, block), Some((owner, used - 1)));
                },
                KvRestoreError::FillMismatch,
            ),
            // Chains.
            (|s| s.shared[0].1.clear(), KvRestoreError::ChainCore),
            (
                |s| {
                    // Node 1's key block moves to another core, still the group's.
                    let (core, xb, block) = s.shared[0].1[1].0;
                    let other = ((core + 1) % s.key_cores.len(), 31, 7);
                    let entry = s.key_cores[core][xb].blocks[block];
                    set_key_block(s, (core, xb, block), None);
                    set_key_block(s, other, entry);
                    s.shared[0].1[1].0 = other;
                },
                KvRestoreError::ChainCore,
            ),
            (|s| s.shared[0].1[0].0 = (0, 31, 0), KvRestoreError::ChainNotOwned),
            (|s| s.shared[0].1[0].1 = s.sequences[0].2, KvRestoreError::ChainNotOwned),
            (|s| s.shared[0].1.truncate(1), KvRestoreError::Unchained),
            (
                |s| {
                    let node = s.shared[0].1[0];
                    s.shared[0].1.push(node);
                },
                KvRestoreError::Unchained,
            ),
            (
                |s| {
                    let chain = s.shared[0].clone();
                    s.shared.push(chain);
                },
                KvRestoreError::Unchained,
            ),
            (
                |s| {
                    set_key_block(s, (3, 31, 7), Some((SHARED_OWNER_TAG | 42, 128)));
                    s.allocated_blocks += 1;
                },
                KvRestoreError::Unchained,
            ),
            (
                |s| {
                    set_key_block(s, (3, 31, 7), Some((SHARED_OWNER_TAG | 9, 128)));
                    s.allocated_blocks += 1;
                },
                KvRestoreError::Unchained,
            ),
            // Sharers.
            (|s| s.sequences[0].3 = Some((7, 2)), KvRestoreError::Sharer),
            (|s| s.sequences[0].3 = Some((42, 99)), KvRestoreError::Sharer),
            (|s| s.sequences[0].3 = Some((42, 0)), KvRestoreError::Sharer),
            (|s| s.sequences[0].3 = Some((42, 1)), KvRestoreError::Unreferenced),
            (|s| s.sequences[0].3 = None, KvRestoreError::Unreferenced),
            // Core tables that do not fit the configuration.
            (|s| s.key_cores.truncate(1), KvRestoreError::CoreCount),
            (|s| s.value_cores[0].truncate(1), KvRestoreError::CrossbarCount),
            (|s| s.value_cores[0][0].blocks.truncate(1), KvRestoreError::BlockCount),
        ];
        assert_eq!(snap.shared[0].1.len(), 2, "a two-node chain");
        assert!(snap.key_cores[3][31].blocks[7].is_none(), "a free block to edit");
        for (i, (edit, expected)) in edits.into_iter().enumerate() {
            let mut bad = snap.clone();
            edit(&mut bad);
            assert_ne!(bad, snap, "edit {i} changes the snapshot");
            let err = KvManager::restore(m.config.clone(), &bad).err();
            assert_eq!(err, Some(expected), "edit {i}");
        }
    }

    #[test]
    fn restore_rejects_a_cursor_moved_off_its_partly_filled_block() {
        let mut m = manager(8);
        m.admit(1, 300).unwrap(); // two full blocks a role, and the cursor's 44 tokens
        m.admit(2, 256).unwrap(); // two full blocks a role, the cursor on the second
        let snap = m.snapshot();
        let full_key_blocks = |seq: u64| -> Vec<SnapshotSlot> {
            let tables = snap.key_cores.iter().enumerate().flat_map(|(core, xbs)| {
                xbs.iter().enumerate().map(move |(xb, table)| ((core, xb), &table.blocks))
            });
            tables
                .flat_map(|((core, xb), blocks)| {
                    blocks.iter().enumerate().map(move |(b, e)| ((core, xb, b), *e))
                })
                .filter_map(|(at, e)| (e == Some((seq, 128))).then_some(at))
                .collect()
        };
        let (one, two) = (full_key_blocks(1), full_key_blocks(2));
        assert_eq!((one.len(), two.len()), (2, 2));
        let mut off_partial = snap.clone();
        off_partial.sequences[0].1 = one[0];
        let err = KvManager::restore(m.config.clone(), &off_partial).err();
        assert_eq!(err, Some(KvRestoreError::PartialBlock));
        // A cursor moved between two full blocks still restores: a live
        // cursor may sit on either, so the tables cannot tell them apart.
        let mut between_full = snap.clone();
        between_full.sequences[1].1 = *two.iter().find(|&&at| at != snap.sequences[1].1).unwrap();
        assert!(KvManager::restore(m.config.clone(), &between_full).is_ok());
    }

    #[test]
    fn a_failed_append_takes_its_tokens_back() {
        // One core per side: sequence 2 takes every block sequence 1 left.
        let mut m = manager(2);
        m.admit(1, 100).unwrap();
        let blocks = m.num_kv_units() / 2 * 8;
        m.admit(2, (blocks - 1) * m.tokens_per_block()).unwrap();
        let (used, audit, snap) = (m.used_tokens(), m.block_audit(), m.snapshot());
        // 28 tokens fit sequence 1's cursor blocks; the 29th needs a block.
        assert_eq!(m.append_tokens(1, 29), Err(KvError::OutOfCapacity));
        assert_eq!((m.used_tokens(), m.block_audit(), m.snapshot()), (used, audit, snap));
        assert_eq!(m.sequence_tokens(1), Some(100));
        m.append_tokens(1, 28).unwrap();
        assert_eq!(m.sequence_tokens(1), Some(128));
    }

    #[test]
    fn a_failed_append_moves_its_cursors_back_off_the_blocks_it_allocated() {
        // One core per side and two free blocks a side: an append to
        // sequence 1 that needs three new blocks allocates two K blocks,
        // then fails.
        let mut m = manager(2);
        m.admit(1, 100).unwrap();
        let (blocks, tpb) = (m.num_kv_units() / 2 * 8, m.tokens_per_block());
        m.admit(2, (blocks - 3) * tpb).unwrap();
        let slot = m.slot_of(1).unwrap();
        let (used, audit, cursors) = (m.used_tokens(), m.block_audit(), m.slots.cursors[slot.index()]);
        assert_eq!(m.append_at(slot, 1, 28 + 2 * tpb + 1), Err(KvError::OutOfCapacity));
        assert_eq!(m.block_audit().allocated, audit.allocated + 2, "the two K blocks stay the sequence's");
        assert_eq!((m.used_tokens(), m.sequence_tokens(1), m.room(slot)), (used, Some(100), 28));
        assert_eq!(m.slots.cursors[slot.index()], cursors);
        // The K block the append started from is partly filled and its
        // cursor again; the new ones are empty. So the snapshot restores.
        let snap = m.snapshot();
        assert_eq!(KvManager::restore(m.config.clone(), &snap).map(|r| r.snapshot()), Ok(snap));
    }

    #[test]
    fn no_cores_is_an_error() {
        assert_eq!(KvManager::new(KvManagerConfig::new(vec![], 128)).unwrap_err(), KvError::NoKvCores);
    }

    #[test]
    fn slot_block_lists_keep_their_buffers_across_sequences() {
        // Four 128/2048-token sequences at a time, one decode token per
        // append, released together; the freed slots are reused in turn.
        let mut m = manager(8);
        let mut seq = 0;
        let mut cycle = |m: &mut KvManager| {
            let seqs: Vec<u64> = (seq..seq + 4).collect();
            seq += 4;
            for &s in &seqs {
                m.admit(s, 128).unwrap();
            }
            for _ in 0..2048 {
                for &s in &seqs {
                    m.append_at(m.slot_of(s).unwrap(), s, 1).unwrap();
                }
            }
            for &s in &seqs {
                assert_eq!(m.release(s), 2176);
            }
        };
        let buffers =
            |m: &KvManager| m.slots.blocks.iter().map(|b| (b.as_ptr(), b.capacity())).collect::<Vec<_>>();
        cycle(&mut m);
        let warm = buffers(&m);
        assert_eq!(warm.len(), 4);
        assert!(warm.iter().all(|&(_, capacity)| capacity >= 2 * 17), "17 blocks a role");
        for _ in 0..3 {
            cycle(&mut m);
            assert_eq!(buffers(&m), warm, "a slot's list reallocated");
        }
        assert!(m.slots.blocks.iter().all(Vec::is_empty));
    }

    #[test]
    fn a_block_ref_round_trips_at_the_largest_indices() {
        let max = MAX_BLOCK_INDEX;
        for role in ROLES {
            for c in [
                Cursor { core_index: max, crossbar: max, block: max },
                Cursor { core_index: max, crossbar: 0, block: max },
                Cursor { core_index: 0, crossbar: max, block: 0 },
            ] {
                assert_eq!(BlockRef::new(role, c).unpack(), (role, c));
            }
        }
    }

    #[test]
    fn a_configuration_past_the_packed_range_is_an_error() {
        // One more core, crossbar or block than a reference addresses.
        let past = MAX_BLOCK_INDEX + 2;
        let fits = KvManagerConfig::new((0..2).map(CoreId).collect(), 128);
        let mut crossbars = fits.clone();
        crossbars.crossbars_per_core = past;
        let mut blocks = fits.clone();
        blocks.crossbar.logical_blocks = past;
        // The value side is the larger half: 2^21 + 1 cores.
        let cores = KvManagerConfig::new((0..2 * past - 1).map(CoreId).collect(), 128);
        for config in [crossbars, blocks, cores] {
            assert_eq!(KvManager::new(config).unwrap_err(), KvError::ConfigTooLarge);
        }
        assert!(KvManager::new(fits).is_ok());
    }

    #[test]
    fn admit_and_release_roundtrip() {
        let mut m = manager(8);
        m.admit(1, 100).unwrap();
        assert_eq!(m.resident_sequences(), 1);
        assert_eq!(m.sequence_tokens(1), Some(100));
        assert!(m.used_tokens() > 0);
        assert_eq!(m.release(1), 100);
        assert_eq!(m.resident_sequences(), 0);
        assert_eq!(m.used_tokens(), 0);
    }

    #[test]
    fn heads_are_spread_across_ring_cores() {
        // Each sequence's one head sits on its own scaled KV core, so four
        // admissions on 4 K-side cores land on 4 distinct cores.
        let mut m = manager(8);
        for seq in 0..4 {
            m.admit(seq, 10).unwrap();
        }
        let cores: std::collections::BTreeSet<_> = (0..4).map(|seq| m.core_of(seq).unwrap()).collect();
        assert_eq!(cores.len(), 4);
    }

    #[test]
    fn consecutive_sequences_start_at_different_ring_positions() {
        let mut m = manager(16);
        m.admit(1, 10).unwrap();
        m.admit(2, 10).unwrap();
        assert_ne!(m.core_of(1), m.core_of(2));
    }

    #[test]
    fn decode_growth_appends_tokens() {
        let mut m = manager(8);
        m.admit(7, 64).unwrap();
        for _ in 0..32 {
            m.append_tokens(7, 1).unwrap();
        }
        assert_eq!(m.sequence_tokens(7), Some(96));
    }

    #[test]
    fn growth_spills_into_new_blocks() {
        let mut m = manager(4);
        // 200 tokens exceed one 128-token logical block, forcing a second
        // block allocation for both K and V.
        m.admit(3, 200).unwrap();
        assert_eq!(m.sequence_tokens(3), Some(200));
        assert!(m.used_tokens() >= 200);
    }

    #[test]
    fn unknown_sequence_append_fails() {
        let mut m = manager(4);
        assert_eq!(m.append_tokens(9, 1), Err(KvError::UnknownSequence(9)));
    }

    #[test]
    fn capacity_exhaustion_reports_out_of_capacity() {
        let mut m = manager(2);
        // Each side has 1 core = 32 crossbars × 8 blocks × 128 tokens.
        let cap = m.capacity_tokens();
        let mut admitted = 0;
        let mut failed = false;
        for seq in 0..10_000u64 {
            match m.admit(seq, 4096) {
                Ok(()) => admitted += 1,
                Err(KvError::OutOfCapacity) => {
                    failed = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(failed, "capacity of {cap} tokens should eventually be exhausted");
        assert!(admitted > 0);
    }

    #[test]
    fn utilization_grows_with_admissions() {
        let mut m = manager(8);
        let before = m.utilization();
        m.admit(1, 512).unwrap();
        assert!(m.utilization() > before);
        assert!(m.utilization() <= 1.0);
    }

    #[test]
    fn export_releases_blocks_and_counts_tokens() {
        let mut m = manager(8);
        m.admit(1, 300).unwrap();
        let used_before = m.used_tokens();
        assert!(used_before >= 300);
        assert_eq!(m.export_sequence(1), Ok(300));
        assert_eq!(m.used_tokens(), 0);
        assert_eq!(m.resident_sequences(), 0);
        let s = m.transfer_stats();
        assert_eq!(s.exported_sequences, 1);
        assert_eq!(s.exported_tokens, 300);
        assert_eq!(s.imported_tokens, 0);
    }

    #[test]
    fn export_of_absent_sequence_fails() {
        let mut m = manager(4);
        assert_eq!(m.export_sequence(42), Err(KvError::UnknownSequence(42)));
        assert_eq!(m.transfer_stats().exported_sequences, 0);
    }

    #[test]
    fn import_allocates_like_admit_and_counts() {
        let mut m = manager(8);
        m.import_with_prefix(5, 200, None, 200).unwrap();
        assert_eq!(m.sequence_tokens(5), Some(200));
        let s = m.transfer_stats();
        assert_eq!(s.imported_sequences, 1);
        assert_eq!(s.imported_tokens, 200);
        // The imported sequence grows and releases like any other.
        m.append_tokens(5, 8).unwrap();
        assert_eq!(m.release(5), 208);
    }

    #[test]
    fn failed_import_counts_nothing() {
        let mut m = manager(2);
        let cap = m.capacity_tokens();
        assert_eq!(m.import_with_prefix(9, cap * 2, None, cap * 2), Err(KvError::OutOfCapacity));
        assert_eq!(m.transfer_stats().imported_sequences, 0);
        assert_eq!(m.transfer_stats().imported_tokens, 0);
    }

    #[test]
    fn export_import_roundtrip_conserves_tokens() {
        // Simulates a migration: export from one manager, import the same
        // token count into another.
        let mut prefill = manager(8);
        let mut decode = manager(8);
        prefill.admit(1, 500).unwrap();
        let tokens = prefill.export_sequence(1).unwrap();
        decode.import_with_prefix(1, tokens, None, tokens).unwrap();
        assert_eq!(prefill.transfer_stats().exported_tokens, decode.transfer_stats().imported_tokens);
        assert_eq!(decode.sequence_tokens(1), Some(500));
    }

    #[test]
    fn failing_a_crossbar_removes_capacity_and_reports_its_sequences() {
        let mut m = manager(2);
        m.admit(1, 200).unwrap();
        m.admit(2, 200).unwrap();
        let cap_before = m.capacity_tokens();
        // One key-side core, first-fit crossbars: both sequences hold
        // blocks in crossbar 0 of key core 0.
        let failure = m.fail_kv_core(0).expect("healthy crossbars exist");
        assert_eq!(failure.index, 0);
        assert_eq!(failure.crossbar, 0);
        assert_eq!(failure.evicted_sequences, vec![1, 2]);
        assert!(failure.evicted_tokens > 0);
        assert!(m.capacity_tokens() < cap_before, "a failed crossbar stops contributing capacity");
        assert_eq!(m.failed_kv_units(), 1);
        let units = m.num_kv_units() as f64;
        assert!((m.healthy_kv_fraction() - (units - 1.0) / units).abs() < 1e-12);
        assert!(m.is_serviceable());
        // Releasing the evicted sequences restores a conserved, empty audit.
        for seq in failure.evicted_sequences {
            m.release(seq);
        }
        let audit = m.block_audit();
        assert!(audit.is_conserved());
        assert_eq!(audit.live, 0);
    }

    #[test]
    fn a_fully_failed_core_is_skipped_for_new_admissions() {
        let mut m = manager(8);
        // Fail every crossbar of key core 0; the scan stays on the
        // preferred core while it has healthy crossbars.
        let per_core = m.num_kv_units() / m.num_kv_cores();
        let mut failed_core = None;
        for _ in 0..per_core {
            let f = m.fail_kv_core(0).unwrap();
            assert_eq!(f.index, 0, "the scan must drain the preferred core first");
            assert!(f.evicted_sequences.is_empty(), "nothing resident yet");
            failed_core = Some(f.core);
        }
        // New sequences still admit — the ring walks past the failed core.
        for seq in 0..6 {
            m.admit(seq, 64).unwrap();
            assert_ne!(m.core_of(seq), failed_core, "no new sequence may land on a failed core");
        }
    }

    #[test]
    fn exhausting_every_crossbar_makes_the_manager_unserviceable() {
        let mut m = manager(4);
        let total = m.num_kv_units();
        for i in 0..total {
            assert!(m.fail_kv_core(i).is_some());
        }
        assert!(!m.is_serviceable());
        assert_eq!(m.healthy_kv_fraction(), 0.0);
        assert!(m.fail_kv_core(0).is_none(), "no healthy crossbar left to absorb another fault");
        assert_eq!(m.admit(1, 16), Err(KvError::OutOfCapacity));
    }

    #[test]
    fn audit_tracks_alloc_and_free_across_a_lifecycle() {
        let mut m = manager(8);
        assert_eq!(m.block_audit(), BlockAudit::default());
        m.admit(1, 300).unwrap();
        let mid = m.block_audit();
        assert!(mid.is_conserved());
        assert!(mid.allocated > 0 && mid.live > 0);
        m.append_tokens(1, 500).unwrap();
        m.admit(2, 100).unwrap();
        m.release(1);
        m.release(2);
        let end = m.block_audit();
        assert!(end.is_conserved());
        assert_eq!(end.live, 0);
        assert_eq!(end.allocated, end.freed);
        // Releasing an absent sequence frees nothing (no double-free).
        m.release(1);
        assert_eq!(m.block_audit(), end);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// No block is ever double-freed (or leaked) under random
            /// admit / append / release / evict / core-failure
            /// interleavings: the lifetime audit identity
            /// `allocated − freed == live` holds after every operation
            /// (a double-free would push `freed` past `allocated`).
            #[test]
            fn no_double_free_under_random_interleavings(
                ops in proptest::collection::vec((0u8..5, 0u64..6, 1usize..400), 1..60),
            ) {
                let mut m = manager(4);
                for (op, seq, tokens) in ops {
                    match op {
                        0 => { let _ = m.admit(seq, tokens); }
                        1 => { let _ = m.append_tokens(seq, tokens.min(64)); }
                        2 => { m.release(seq); }
                        3 => { m.release(seq); m.release(seq); } // deliberate re-release
                        _ => {
                            if let Some(f) = m.fail_kv_core(tokens) {
                                for s in f.evicted_sequences {
                                    m.release(s);
                                }
                            }
                        }
                    }
                    let audit = m.block_audit();
                    prop_assert!(
                        audit.is_conserved(),
                        "allocated {} − freed {} != live {}",
                        audit.allocated, audit.freed, audit.live
                    );
                }
                // Draining everything returns the audit to zero live blocks.
                let resident: Vec<u64> = (0..6).collect();
                for seq in resident {
                    m.release(seq);
                }
                let audit = m.block_audit();
                prop_assert!(audit.is_conserved());
                prop_assert_eq!(audit.live, 0);
            }
        }
    }

    #[test]
    fn shared_prefix_blocks_are_allocated_once_and_refcounted() {
        let mut m = manager(8);
        let tpb = m.tokens_per_block();
        assert_eq!(tpb, 128);
        // Two sharers of a 256-token prefix (2 whole blocks per head/role)
        // plus unique 100-token tails.
        let cached1 = m.admit_with_prefix(1, 356, Some((7, 256))).unwrap();
        assert_eq!(cached1, 0, "the first sharer computes the prefix it deposits");
        let used_one = m.used_tokens();
        let cached2 = m.admit_with_prefix(2, 356, Some((7, 256))).unwrap();
        assert_eq!(cached2, 256, "the second sharer reuses the deposited prefix");
        // The second sharer adds only its private tail on the K side, not
        // another copy of the prefix.
        assert!(m.used_tokens() < 2 * used_one, "the prefix must be stored once");
        assert_eq!(m.sequence_tokens(1), Some(356));
        assert_eq!(m.sequence_tokens(2), Some(356));
        assert_eq!(m.prefix_lookup(7, 256), 256);
        assert_eq!(m.prefix_lookup(7, 300), 256, "only whole blocks are shared");
        assert_eq!(m.prefix_lookup(8, 256), 0, "unknown group has no cache");
        let audit = m.block_audit();
        assert!(audit.is_conserved());
        assert!(audit.shared_live > 0);
        // First release keeps the chain (one sharer left), second frees it.
        m.release(1);
        assert_eq!(m.prefix_lookup(7, 256), 256);
        assert!(m.block_audit().is_conserved());
        m.release(2);
        assert_eq!(m.prefix_lookup(7, 256), 0, "the last sharer frees the chain");
        assert_eq!(prefix_groups(&m), 0);
        let end = m.block_audit();
        assert!(end.is_conserved());
        assert_eq!(end.live, 0);
        assert_eq!(end.shared_live, 0);
    }

    #[test]
    fn partial_block_prefixes_are_private() {
        let mut m = manager(8);
        // 100 tokens < one 128-token block: nothing is shareable.
        assert_eq!(m.admit_with_prefix(1, 200, Some((3, 100))).unwrap(), 0);
        assert_eq!(prefix_groups(&m), 0);
        assert_eq!(m.block_audit().shared_live, 0);
        m.release(1);
        assert!(m.block_audit().is_conserved());
    }

    #[test]
    fn divergent_sharers_extend_the_chain_for_longer_prefixes() {
        let mut m = manager(8);
        // Sharer A deposits 1 block of the prefix; sharer B reuses it and
        // deposits 2 more.
        assert_eq!(m.admit_with_prefix(1, 200, Some((9, 128))).unwrap(), 0);
        assert_eq!(m.admit_with_prefix(2, 500, Some((9, 384))).unwrap(), 128);
        assert_eq!(m.prefix_lookup(9, 384), 384);
        // B releases: nodes 2 and 3 drop to zero refs and free; node 1 stays
        // for A.
        m.release(2);
        assert_eq!(m.prefix_lookup(9, 384), 128);
        assert!(m.block_audit().is_conserved());
        m.release(1);
        assert_eq!(prefix_groups(&m), 0);
        assert_eq!(m.block_audit().live, 0);
    }

    #[test]
    fn a_fault_on_a_shared_crossbar_evicts_every_sharer_once() {
        let mut m = manager(8);
        m.admit_with_prefix(1, 300, Some((5, 256))).unwrap();
        m.admit_with_prefix(2, 300, Some((5, 256))).unwrap();
        // Walk the cores until the failure strikes a crossbar holding the
        // shared chain (the chain sits on the first ring cores).
        let mut evicted_all: Vec<u64> = Vec::new();
        for preferred in 0..m.num_kv_cores() {
            if let Some(f) = m.fail_kv_core(preferred) {
                if !f.evicted_sequences.is_empty() {
                    evicted_all = f.evicted_sequences;
                    break;
                }
            }
        }
        assert_eq!(evicted_all, vec![1, 2], "both sharers lose their prefix KV");
        assert_eq!(prefix_groups(&m), 0, "the struck chain is gone");
        assert!(m.block_audit().is_conserved());
        // The engine releases the evicted sequences; no double-free of the
        // already-freed chain.
        m.release(1);
        m.release(2);
        let audit = m.block_audit();
        assert!(audit.is_conserved());
        assert_eq!(audit.live, 0);
    }

    #[test]
    fn prefix_aware_import_counts_only_wire_tokens() {
        let mut m = manager(8);
        // A resident sharer keeps the 256-token prefix cached.
        m.admit_with_prefix(1, 300, Some((4, 256))).unwrap();
        // An import that deduplicated the prefix at announce time ships only
        // the 44-token tail.
        let cached = m.import_with_prefix(2, 300, Some((4, 256)), 44).unwrap();
        assert_eq!(cached, 256);
        assert_eq!(m.transfer_stats().imported_tokens, 44);
        assert_eq!(m.sequence_tokens(2), Some(300));
        m.release(1);
        m.release(2);
        assert!(m.block_audit().is_conserved());
        assert_eq!(m.block_audit().live, 0);
    }

    mod prefix_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Prefix-cache refcount safety under random share / diverge /
            /// release / fault interleavings: no double-free (conservation
            /// would break), every chain node's blocks are freed exactly
            /// once (when its refcount reaches zero), and the audit stays
            /// conserved after every operation. Draining every sequence
            /// returns the cache to zero live and zero shared blocks.
            #[test]
            fn refcounts_free_each_block_exactly_once(
                ops in proptest::collection::vec(
                    (0u8..5, 0u64..24, 1usize..600), 1..80),
            ) {
                let mut m = manager(4);
                for (op, draw, tokens) in ops {
                    // One draw encodes both the sequence (0..8) and its
                    // prefix group (0..3), so sharers collide frequently.
                    let seq = draw % 8;
                    let group = draw / 8;
                    match op {
                        // Shared admission: prefix length varies with the
                        // draw so sharers of one group diverge.
                        0 => { let _ = m.admit_with_prefix(
                                seq, tokens, Some((group, tokens / 2 + 128))); }
                        1 => { let _ = m.admit(seq, tokens.min(256)); }
                        2 => { m.release(seq); }
                        3 => { m.release(seq); m.release(seq); } // double release
                        _ => {
                            if let Some(f) = m.fail_kv_core(tokens) {
                                for s in f.evicted_sequences {
                                    m.release(s);
                                }
                            }
                        }
                    }
                    let audit = m.block_audit();
                    prop_assert!(
                        audit.is_conserved(),
                        "allocated {} − freed {} != live {} (shared {})",
                        audit.allocated, audit.freed, audit.live, audit.shared_live
                    );
                }
                for seq in 0..8 {
                    m.release(seq);
                }
                let audit = m.block_audit();
                prop_assert!(audit.is_conserved());
                prop_assert_eq!(audit.live, 0);
                prop_assert_eq!(audit.shared_live, 0);
                prop_assert_eq!(prefix_groups(&m), 0);
            }
        }
    }

    mod counter_properties {
        use super::*;
        use proptest::prelude::*;

        /// The observables the incremental counters back.
        fn observed(m: &KvManager) -> (usize, usize, bool, f64) {
            (m.used_tokens(), m.capacity_tokens(), m.is_serviceable(), m.healthy_kv_fraction())
        }

        proptest! {
            /// The counters agree with a recount from the crossbar tables
            /// after every operation of a random admit / append / release /
            /// export / import / fault-to-death interleaving. The recount
            /// is a manager rebuilt by `restore` from a snapshot, so the
            /// check also holds in release builds, where the debug
            /// differential asserts are compiled out.
            #[test]
            fn counters_match_a_recount_after_every_operation(
                ops in proptest::collection::vec((0u8..7, 0u64..24, 1usize..600), 1..120),
            ) {
                let mut m = manager(4);
                for (op, draw, tokens) in ops {
                    // One draw encodes the sequence (0..8) and its prefix
                    // group (0..3), so sharers collide frequently.
                    let seq = draw % 8;
                    let group = draw / 8;
                    match op {
                        0 => { let _ = m.admit_with_prefix(seq, tokens, Some((group, tokens / 2 + 128))); }
                        1 => { let _ = m.append_tokens(seq, tokens.min(64)); }
                        2 => { m.release(seq); }
                        3 => { m.release(seq); m.release(seq); } // double release
                        4 => { let _ = m.export_sequence(seq); }
                        5 => { let _ = m.import_with_prefix(seq, tokens, Some((group, tokens / 2)), tokens / 2); }
                        _ => {
                            // A burst of faults, so long runs reach full death.
                            for _ in 0..16 {
                                if let Some(f) = m.fail_kv_core(tokens) {
                                    for s in f.evicted_sequences {
                                        m.release(s);
                                    }
                                }
                            }
                        }
                    }
                    let recounted = KvManager::restore(m.config.clone(), &m.snapshot()).unwrap();
                    prop_assert_eq!(observed(&m), observed(&recounted));
                }
            }
        }
    }

    mod allocation_properties {
        use super::*;
        use crate::block::CoreState;
        use proptest::prelude::*;

        /// Every pick equals the old scan and every counter a rescan: the
        /// cyclic pick from `start` and from the ends and middle of the
        /// crossbar range, and `pick_core`'s threshold test. The lowest
        /// free block is checked at every allocation.
        fn check(core: &CoreState, start: usize) {
            assert!(core.counters_are_derived(), "the counters equal a rescan");
            let n = core.crossbars().len();
            for start in [0, n / 2, n - 1, n, start] {
                assert_eq!(core.first_free(start), core.scan_first_free(start), "start {start}");
            }
            let tpb = core.crossbars()[0].tokens_per_block();
            let (free, capacity) = core.scan_tokens();
            for threshold in [0.0, 0.1, 0.9] {
                let scanned = free as f64 / capacity.max(1) as f64 > threshold;
                assert_eq!(core.above_threshold(tpb, threshold), scanned, "threshold {threshold}");
            }
        }

        /// Applies `ops` to a fresh core of `crossbars` crossbars with
        /// `blocks` logical blocks each, checking it after every one.
        fn run(crossbars: usize, blocks: usize, ops: &[(u8, usize)]) {
            let mut crossbar = CrossbarConfig::paper();
            crossbar.logical_blocks = blocks;
            let tables = (0..crossbars).map(|_| CrossbarBlocks::new(&crossbar, 128)).collect();
            let mut core = CoreState::new(CoreId(0), tables);
            let mut allocated: Vec<(usize, usize)> = Vec::new();
            for &(op, draw) in ops {
                let start = draw % (crossbars + 1);
                match op {
                    // Allocations outnumber frees, so cores fill up.
                    0 | 1 => {
                        let expected = core.scan_first_free(start).map(|xb| {
                            (
                                xb,
                                core.crossbars()[xb].scan_first_free().expect("a crossbar with a free block"),
                            )
                        });
                        let got = core.allocate_from(start, draw as u64);
                        assert_eq!(got, expected, "allocation from {start}");
                        allocated.extend(got);
                    }
                    2 if !allocated.is_empty() => {
                        let (xb, block) = allocated.swap_remove(draw % allocated.len());
                        assert!(core.free(xb, block).is_some());
                        assert_eq!(core.free(xb, block), None, "a second free is a no-op");
                    }
                    3 => {
                        let xb = draw % crossbars;
                        if !core.crossbars()[xb].is_failed() {
                            core.fail(xb);
                        }
                    }
                    _ => {
                        // A burst of allocations from one start.
                        for _ in 0..draw % 64 {
                            allocated.extend(core.allocate_from(start, 0));
                        }
                    }
                }
                check(&core, start);
            }
        }

        proptest! {
            /// Random allocate / free / fail operations on cores of
            /// {1, 6, 32, 65} crossbars with {1, 8, 65} blocks each: after
            /// every operation each pick (the first crossbar with a free
            /// block in cyclic order from a start, the lowest free block,
            /// `pick_core`'s threshold test) equals the old scan, and every
            /// counter equals a rescan. Runs in release builds too, where
            /// the pick sites' differential asserts are compiled out.
            #[test]
            fn picks_equal_the_scans_and_counters_a_rescan(
                ops in proptest::collection::vec((0u8..5, 0usize..4096), 1..120),
            ) {
                for crossbars in [1, 6, 32, 65] {
                    for blocks in [1, 8, 65] {
                        run(crossbars, blocks, &ops);
                    }
                }
            }
        }
    }

    mod slot_properties {
        use super::*;
        use proptest::prelude::*;

        /// Every slot is either held by exactly one resident sequence or
        /// on the free list: resident slots are distinct and none leaks.
        fn assert_slots_partition(m: &KvManager) {
            let mut slots: Vec<usize> = m.slots.of.values().chain(&m.slots.free).map(|s| s.index()).collect();
            slots.sort_unstable();
            assert_eq!(slots, (0..m.slots.cursors.len()).collect::<Vec<_>>());
        }

        proptest! {
            /// Appending through a slot and through a sequence id is one
            /// implementation: two managers driven through the same random
            /// admit / append / release / export / import / fault ops, one
            /// appending via `append_at(slot_of(seq), ..)` and the other via
            /// `append_tokens`, stay snapshot-identical after every op.
            /// Re-admitting a resident sequence without a release keeps the
            /// resident count and leaks no slot.
            #[test]
            fn slot_and_id_appends_stay_identical(
                ops in proptest::collection::vec((0u8..7, 0u64..24, 1usize..600), 1..120),
            ) {
                let mut by_slot = manager(4);
                let mut by_id = manager(4);
                for (op, draw, tokens) in ops {
                    let seq = draw % 8;
                    let group = draw / 8;
                    for (m, via_slot) in [(&mut by_slot, true), (&mut by_id, false)] {
                        match op {
                            0 => { let _ = m.admit_with_prefix(seq, tokens, Some((group, tokens / 2 + 128))); }
                            1 if via_slot => {
                                if let Some(slot) = m.slot_of(seq) {
                                    let _ = m.append_at(slot, seq, tokens.min(64));
                                }
                            }
                            1 => { let _ = m.append_tokens(seq, tokens.min(64)); }
                            2 => { m.release(seq); }
                            3 => { let _ = m.export_sequence(seq); }
                            4 => { let _ = m.import_with_prefix(seq, tokens, Some((group, tokens / 2)), tokens / 2); }
                            5 => {
                                // Re-admission releases first, and a failed
                                // admission leaves the sequence released.
                                let before = m.slot_of(seq).map(|_| m.resident_sequences());
                                let admitted = m.admit(seq, tokens.min(256));
                                prop_assert_eq!(m.slot_of(seq).is_some(), admitted.is_ok());
                                if let Some(resident) = before {
                                    prop_assert_eq!(m.resident_sequences(), resident - usize::from(admitted.is_err()));
                                }
                            }
                            _ => {
                                if let Some(f) = m.fail_kv_core(tokens) {
                                    for s in f.evicted_sequences {
                                        m.release(s);
                                    }
                                }
                            }
                        }
                        assert_slots_partition(m);
                    }
                    prop_assert_eq!(by_slot.snapshot(), by_id.snapshot());
                }
            }
        }
    }

    #[test]
    fn room_is_what_the_cursor_blocks_still_take() {
        let mut m = manager(8);
        m.admit(1, 100).unwrap();
        let slot = m.slot_of(1).unwrap();
        let (used, audit) = (m.used_tokens(), m.block_audit());
        assert_eq!(m.room(slot), 28, "one 128-token block per role, 100 used");
        m.append_at(slot, 1, 28).unwrap();
        assert_eq!(m.used_tokens(), used + 28, "the tokens are written");
        assert_eq!(m.block_audit(), audit, "and fill the cursor blocks without a new one");
        assert_eq!(m.room(slot), 0);
        m.append_at(slot, 1, 1).unwrap();
        assert_eq!(m.block_audit().allocated, audit.allocated + 2, "one new block per role");
        assert_eq!(m.room(slot), 127);
        assert_eq!(m.sequence_tokens(1), Some(129));
    }

    mod restore_properties {
        use super::*;
        use proptest::prelude::*;

        /// A manager small enough for random runs to fill it.
        fn small_manager() -> KvManager {
            let mut cfg = KvManagerConfig::new((0..4).map(CoreId).collect(), 128);
            cfg.crossbars_per_core = 6;
            KvManager::new(cfg).unwrap()
        }

        /// Applies one operation, returning its result in `Debug` form.
        fn apply(m: &mut KvManager, op: u8, seq: u64, group: u64, tokens: usize) -> String {
            match op {
                0 => format!("{:?}", m.admit_with_prefix(seq, tokens, Some((group, tokens / 2 + 128)))),
                1 => format!("{:?}", m.admit(seq, tokens)),
                2 => format!("{:?}", m.slot_of(seq).map(|slot| m.append_at(slot, seq, tokens))),
                3 => {
                    let tokens = 1 + tokens % 4;
                    format!("{:?}", m.slot_of(seq).map(|slot| m.append_at(slot, seq, tokens)))
                }
                4 => format!("{:?}", m.release(seq)),
                5 => format!("{:?}", m.export_sequence(seq)),
                _ => {
                    let failure = m.fail_kv_core(tokens);
                    for &s in failure.iter().flat_map(|f| &f.evicted_sequences) {
                        m.release(s);
                    }
                    format!("{failure:?}")
                }
            }
        }

        proptest! {
            /// Snapshot → restore is an identity. A twin rebuilt from its
            /// own snapshot before every operation and the live manager
            /// return the same results and agree on used tokens,
            /// per-sequence tokens, the audit and the snapshot after every
            /// operation.
            #[test]
            fn a_manager_restored_before_every_op_matches_the_live_one(
                ops in proptest::collection::vec((0u8..8, 0u64..24, 1usize..300), 1..150),
            ) {
                let mut live = small_manager();
                let mut twin = small_manager();
                for (op, draw, tokens) in ops {
                    let (seq, group) = (draw % 8, draw / 8);
                    twin = KvManager::restore(twin.config.clone(), &twin.snapshot()).unwrap();
                    prop_assert_eq!(apply(&mut live, op, seq, group, tokens), apply(&mut twin, op, seq, group, tokens));
                    prop_assert_eq!(live.used_tokens(), twin.used_tokens());
                    for s in 0..8 {
                        prop_assert_eq!(live.sequence_tokens(s), twin.sequence_tokens(s));
                    }
                    prop_assert_eq!(live.block_audit(), twin.block_audit());
                    prop_assert_eq!(live.snapshot(), twin.snapshot());
                }
            }
        }
    }

    #[test]
    fn threshold_reserves_residual_capacity() {
        let ids: Vec<CoreId> = (0..2).map(CoreId).collect();
        let mut cfg = KvManagerConfig::new(ids, 128);
        cfg.threshold = 0.9; // cores considered full once 10% is used
        let mut m = KvManager::new(cfg).unwrap();
        m.admit(1, 6000).unwrap();
        // The single K core is now beyond the 10% mark, so a new sequence is
        // rejected even though raw capacity remains.
        assert_eq!(m.admit(2, 100), Err(KvError::OutOfCapacity));
        assert!(m.utilization() < 0.5);
    }
}
