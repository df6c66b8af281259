//! Routing and placement policies behind object-safe traits.
//!
//! The serving stack makes two kinds of pool-selection decisions: a
//! [`Router`] assigns each arriving request to a wafer of the entry pool
//! (every wafer of a colocated deployment, the prefill pool of a
//! disaggregated one), and a [`Placement`] picks the decode wafer a
//! finished prefill's KV migrates to. Both are open traits — a new policy
//! is one `impl`, not a new match arm in two crates — with the classic
//! built-ins available as constructors ([`routers`], [`placements`]).
//!
//! Every built-in resolves score ties through the shared
//! [`pick_min_index`] family, so equal scores always go to the lowest
//! wafer index and every run stays a pure function of its seeds. Custom
//! policies should do the same: route through these helpers instead of
//! `Iterator::min_by` (which returns the *last* minimum, making tie-breaks
//! depend on pool size).

use crate::engine::Engine;
use ouro_workload::Request;
use std::cmp::Ordering;

/// Assigns each arriving request to a wafer of the entry pool.
///
/// `engines` is the entry pool in wafer-index order: all wafers of a
/// colocated deployment, the prefill pool of a disaggregated one. The
/// router sees live engine state at the arrival instant and must return an
/// index into `engines`. Implementations may keep state (`&mut self`), but
/// must stay deterministic — given the same call sequence they must make
/// the same decisions, or seeded runs stop being reproducible.
pub trait Router: std::fmt::Debug + Send + Sync {
    /// Stable policy name for reports and tables (e.g. `"least-kv-load"`).
    /// Snapshot config hashes key the policy by it, so it must tell
    /// differently-behaving policies apart.
    fn name(&self) -> String;

    /// Picks the wafer for `request`. Wafers that faults have rendered
    /// unserviceable should be skipped while any healthy one remains (the
    /// built-ins all do, via [`pick_serviceable_min_index`]).
    fn route(&mut self, engines: &[Engine], request: &Request) -> usize;

    /// Boxed clone, so scenarios holding a router stay cloneable.
    fn clone_box(&self) -> Box<dyn Router>;

    /// The policy's mutable state, flattened to one integer for run
    /// checkpoints. Stateless policies (every built-in except round-robin)
    /// keep the default `0`.
    fn checkpoint_state(&self) -> u64 {
        0
    }

    /// Reapplies a [`Router::checkpoint_state`] value on resume. A no-op
    /// for stateless policies.
    fn restore_state(&mut self, _state: u64) {}
}

impl Clone for Box<dyn Router> {
    fn clone(&self) -> Box<dyn Router> {
        self.clone_box()
    }
}

/// Picks the decode wafer a finished prefill's KV migrates to.
///
/// `decode` is the decode pool in wafer-index order. `from_wafer` is the
/// prefill wafer the KV was produced on and `prefill_wafers` the size of
/// the prefill pool, which together define optical distance on the wafer
/// line (`(prefill_wafers - from_wafer) + decode_index` boundary
/// crossings). No built-in reads the distance; a custom policy may.
pub trait Placement: std::fmt::Debug + Send + Sync {
    /// Stable policy name for reports and tables (e.g. `"prefix-affinity"`).
    /// Snapshot config hashes key the policy by it, so it must tell
    /// differently-behaving policies apart.
    fn name(&self) -> String;

    /// Picks the decode wafer (an index into `decode`) for `request`'s
    /// migrated KV.
    fn place(
        &mut self,
        decode: &[Engine],
        from_wafer: usize,
        prefill_wafers: usize,
        request: &Request,
    ) -> usize;

    /// Boxed clone, so scenarios holding a placement stay cloneable.
    fn clone_box(&self) -> Box<dyn Placement>;

    /// The policy's mutable state, flattened to one integer for run
    /// checkpoints. Every built-in placement is stateless and keeps the
    /// default `0`.
    fn checkpoint_state(&self) -> u64 {
        0
    }

    /// Reapplies a [`Placement::checkpoint_state`] value on resume. A
    /// no-op for stateless policies.
    fn restore_state(&mut self, _state: u64) {}
}

impl Clone for Box<dyn Placement> {
    fn clone(&self) -> Box<dyn Placement> {
        self.clone_box()
    }
}

/// Constructors for the built-in [`Router`] policies.
pub mod routers {
    use super::*;

    /// Cycle through wafers regardless of state (skipping wafers faults
    /// have killed while any healthy one remains).
    pub fn round_robin() -> Box<dyn Router> {
        Box::new(RoundRobin { next: 0 })
    }

    /// Send to the wafer whose KV cache (resident plus queued token
    /// demand) is least loaded.
    pub fn least_kv_load() -> Box<dyn Router> {
        Box::new(LeastKvLoad)
    }

    /// Send to the wafer with the fewest queued-plus-resident requests.
    pub fn join_shortest_queue() -> Box<dyn Router> {
        Box::new(JoinShortestQueue)
    }

    /// Send to the wafer already holding the longest cached run of the
    /// request's shared prefix (ties toward the least KV load, then the
    /// lowest index). Requests with no cached prefix anywhere — including
    /// all untagged requests — fall back to least-KV-load, so cold traffic
    /// still balances.
    pub fn prefix_affinity() -> Box<dyn Router> {
        Box::new(PrefixAffinityRouter)
    }

    #[derive(Debug, Clone)]
    struct RoundRobin {
        next: usize,
    }

    impl Router for RoundRobin {
        fn name(&self) -> String {
            "round-robin".to_string()
        }

        fn route(&mut self, engines: &[Engine], _request: &Request) -> usize {
            let n = engines.len();
            let any_alive = engines.iter().any(Engine::is_serviceable);
            for _ in 0..n {
                let w = self.next % n;
                self.next = (self.next + 1) % n;
                if !any_alive || engines[w].is_serviceable() {
                    return w;
                }
            }
            unreachable!("a serviceable wafer exists but the scan missed it");
        }

        fn clone_box(&self) -> Box<dyn Router> {
            Box::new(self.clone())
        }

        fn checkpoint_state(&self) -> u64 {
            self.next as u64
        }

        fn restore_state(&mut self, state: u64) {
            self.next = state as usize;
        }
    }

    #[derive(Debug, Clone)]
    struct LeastKvLoad;

    impl Router for LeastKvLoad {
        fn name(&self) -> String {
            "least-kv-load".to_string()
        }

        fn route(&mut self, engines: &[Engine], _request: &Request) -> usize {
            pick_serviceable_min_index(engines, Engine::kv_load)
        }

        fn clone_box(&self) -> Box<dyn Router> {
            Box::new(self.clone())
        }
    }

    #[derive(Debug, Clone)]
    struct JoinShortestQueue;

    impl Router for JoinShortestQueue {
        fn name(&self) -> String {
            "join-shortest-queue".to_string()
        }

        fn route(&mut self, engines: &[Engine], _request: &Request) -> usize {
            pick_serviceable_min_index(engines, |e| (e.queue_len() + e.resident()) as f64)
        }

        fn clone_box(&self) -> Box<dyn Router> {
            Box::new(self.clone())
        }
    }

    #[derive(Debug, Clone)]
    struct PrefixAffinityRouter;

    impl Router for PrefixAffinityRouter {
        fn name(&self) -> String {
            "prefix-affinity".to_string()
        }

        fn route(&mut self, engines: &[Engine], request: &Request) -> usize {
            pick_prefix_affine_index(engines, request)
        }

        fn clone_box(&self) -> Box<dyn Router> {
            Box::new(self.clone())
        }
    }
}

/// Constructors for the built-in [`Placement`] policies.
pub mod placements {
    use super::*;

    /// The decode wafer whose KV cache (resident plus queued demand,
    /// including announced migrations) is least loaded.
    pub fn least_kv_load() -> Box<dyn Placement> {
        Box::new(LeastKvLoad)
    }

    /// Prefers the decode wafer already holding the longest cached run of
    /// the sequence's shared prefix — the migration then ships only the
    /// uncached bytes. Ties (and untagged sequences) fall back to least KV
    /// load.
    pub fn prefix_affinity() -> Box<dyn Placement> {
        Box::new(PrefixAffinityPlacement)
    }

    #[derive(Debug, Clone)]
    struct LeastKvLoad;

    impl Placement for LeastKvLoad {
        fn name(&self) -> String {
            "least-kv-load".to_string()
        }

        fn place(&mut self, decode: &[Engine], _from: usize, _prefill: usize, _request: &Request) -> usize {
            pick_serviceable_min_index(decode, Engine::kv_load)
        }

        fn clone_box(&self) -> Box<dyn Placement> {
            Box::new(self.clone())
        }
    }

    #[derive(Debug, Clone)]
    struct PrefixAffinityPlacement;

    impl Placement for PrefixAffinityPlacement {
        fn name(&self) -> String {
            "prefix-affinity".to_string()
        }

        fn place(&mut self, decode: &[Engine], _from: usize, _prefill: usize, request: &Request) -> usize {
            pick_prefix_affine_index(decode, request)
        }

        fn clone_box(&self) -> Box<dyn Placement> {
            Box::new(self.clone())
        }
    }
}

/// Index of the item with the lowest score, breaking ties toward the
/// lowest index (a strict `<` scan; `Iterator::min_by` would return the
/// *last* minimum, making tie-breaks depend on pool size). Every built-in
/// [`Router`] and [`Placement`] resolves its selection through the same
/// first-minimum scan (via [`pick_serviceable_min_index`] /
/// [`pick_prefix_affine_index`]), so every pool-selection decision in the
/// workspace tie-breaks identically.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn pick_min_index<T>(items: &[T], score: impl Fn(&T) -> f64) -> usize {
    first_min(items.iter().map(score).enumerate(), f64::total_cmp)
        .expect("selection requires at least one candidate")
}

/// [`pick_min_index`] over the serviceable engines only (all engines when
/// the fleet is entirely dead), returning the winner's index in `engines`.
/// Shared by the built-in routing and placement policies so both route
/// around fault-degraded wafers identically.
pub fn pick_serviceable_min_index(engines: &[Engine], score: impl Fn(&Engine) -> f64) -> usize {
    pick_routable(engines.len(), |i| engines[i].is_serviceable(), |i| score(&engines[i]), f64::total_cmp)
}

/// Index of the engine best placed to serve `request`'s shared prefix:
/// among the serviceable engines (all when the pool is entirely dead), the
/// one holding the longest cached run of the prefix — ties toward the
/// least KV load, then the lowest index — falling back to plain
/// least-KV-load when nothing is cached anywhere (including every untagged
/// request). Shared by the prefix-affinity router and the prefix-affine
/// decode placement so routing and placement steer identically.
pub fn pick_prefix_affine_index(engines: &[Engine], request: &Request) -> usize {
    pick_routable(
        engines.len(),
        |i| engines[i].is_serviceable(),
        |i| (engines[i].prefix_cached_tokens(request), engines[i].kv_load()),
        prefix_affine_order,
    )
}

/// The prefix-affine preference over `(cached prefix tokens, kv_load)`
/// keys: more cached tokens first, then the lower load. When nothing is
/// cached anywhere every key ties on the first field, which leaves plain
/// least-KV-load.
fn prefix_affine_order(a: &(usize, f64), b: &(usize, f64)) -> Ordering {
    b.0.cmp(&a.0).then(a.1.total_cmp(&b.1))
}

/// Index of the lowest key among the serviceable candidates `0..n` (among
/// all of them when none is serviceable), ties toward the lowest index. The
/// one serviceability filter every selection helper funnels through: a
/// single pass with no allocation, plus a second pass over the whole pool
/// only when every candidate is dead.
fn pick_routable<K>(
    n: usize,
    serviceable: impl Fn(usize) -> bool,
    key: impl Fn(usize) -> K,
    order: impl Fn(&K, &K) -> Ordering,
) -> usize {
    first_min((0..n).filter(|&i| serviceable(i)).map(|i| (i, key(i))), &order)
        .or_else(|| first_min((0..n).map(|i| (i, key(i))), &order))
        .expect("selection requires at least one candidate")
}

/// Index of the first minimum among `(index, key)` pairs under `order`: a
/// strict-`<` scan, so equal keys resolve to the earliest pair. The one
/// tie-break implementation behind every selection helper.
fn first_min<K>(
    items: impl Iterator<Item = (usize, K)>,
    order: impl Fn(&K, &K) -> Ordering,
) -> Option<usize> {
    let mut best: Option<(usize, K)> = None;
    for (i, k) in items {
        if best.as_ref().is_none_or(|(_, b)| order(&k, b).is_lt()) {
            best = Some((i, k));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The collect-then-pick selection `pick_routable` replaced, kept as the
    /// reference: gather the serviceable candidates (all of them when none
    /// is), then take the first minimum among them.
    fn collecting_pick(alive: &[bool], scores: &[f64]) -> usize {
        let any_alive = alive.iter().any(|&a| a);
        let candidates: Vec<usize> = (0..alive.len()).filter(|&i| !any_alive || alive[i]).collect();
        candidates[pick_min_index(&candidates, |&i| scores[i])]
    }

    /// The two-pass prefix-affine selection, kept as the reference: the
    /// longest cached run among the candidates first, then the least load
    /// among the candidates holding it (every other one scored infinite).
    fn two_pass_prefix_pick(alive: &[bool], cached: &[usize], loads: &[f64]) -> usize {
        let any_alive = alive.iter().any(|&a| a);
        let candidates: Vec<usize> = (0..alive.len()).filter(|&i| !any_alive || alive[i]).collect();
        let best = candidates.iter().map(|&i| cached[i]).max().unwrap_or(0);
        let score = |i: usize| if best == 0 || cached[i] == best { loads[i] } else { f64::INFINITY };
        candidates[pick_min_index(&candidates, |&i| score(i))]
    }

    #[test]
    fn pick_min_index_prefers_the_first_minimum() {
        assert_eq!(pick_min_index(&[3.0, 1.0, 1.0, 2.0], |&x| x), 1);
        assert_eq!(pick_min_index(&[0.5], |&x| x), 0);
        assert_eq!(pick_min_index(&[2.0, 2.0, 2.0], |&x| x), 0);
    }

    proptest! {
        /// The tie-breaking contract of every built-in policy: whatever the
        /// score vector, the winner is the *first* index achieving the
        /// minimum. A coarse score domain forces frequent exact ties.
        #[test]
        fn equal_scores_always_resolve_to_the_lowest_index(
            scores in proptest::collection::vec(0u8..4, 1..40)
        ) {
            let picked = pick_min_index(&scores, |&s| s as f64);
            let min = *scores.iter().min().expect("non-empty");
            let first = scores.iter().position(|&s| s == min).expect("min exists");
            prop_assert_eq!(picked, first, "scores {:?}", scores);
        }

        /// Scaling every score by a positive constant never changes the
        /// winner — selection depends on order, not magnitude.
        #[test]
        fn selection_is_scale_invariant(
            scores in proptest::collection::vec(0u8..4, 1..40),
            scale in 1u32..1000
        ) {
            let a = pick_min_index(&scores, |&s| s as f64);
            let b = pick_min_index(&scores, |&s| s as f64 * scale as f64);
            prop_assert_eq!(a, b);
        }

        /// The single-pass selection picks what the collecting reference
        /// picks, over tie-heavy scores and random dead masks. A zero draw
        /// kills one wafer; one case in four kills the whole pool.
        #[test]
        fn single_pass_selection_matches_the_collecting_reference(
            pool in proptest::collection::vec((0u8..4, 0u8..4), 1..40),
            all_dead in 0u8..4
        ) {
            let alive: Vec<bool> = pool.iter().map(|p| all_dead != 0 && p.0 != 0).collect();
            let scores: Vec<f64> = pool.iter().map(|p| p.1 as f64).collect();
            let picked = pick_routable(pool.len(), |i| alive[i], |i| scores[i], f64::total_cmp);
            prop_assert_eq!(picked, collecting_pick(&alive, &scores), "alive {:?} scores {:?}", alive, scores);
        }

        /// The one-pass prefix-affine key (cached tokens descending, load
        /// ascending, lowest index) picks what the two-pass formulation
        /// picks, including when nothing is cached anywhere.
        #[test]
        fn single_pass_prefix_affinity_matches_the_two_pass_reference(
            pool in proptest::collection::vec((0u8..4, 0u8..3, 0u8..4), 1..40),
            all_dead in 0u8..4
        ) {
            let alive: Vec<bool> = pool.iter().map(|p| all_dead != 0 && p.0 != 0).collect();
            let cached: Vec<usize> = pool.iter().map(|p| p.1 as usize * 128).collect();
            let loads: Vec<f64> = pool.iter().map(|p| p.2 as f64 / 4.0).collect();
            let picked = pick_routable(pool.len(), |i| alive[i], |i| (cached[i], loads[i]), prefix_affine_order);
            prop_assert_eq!(
                picked,
                two_pass_prefix_pick(&alive, &cached, &loads),
                "alive {:?} cached {:?} loads {:?}", alive, cached, loads
            );
        }
    }
}
