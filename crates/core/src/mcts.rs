//! Monte-Carlo tree search guided by the policy/value network
//! (Algorithm 1 of the paper).
//!
//! Each tree edge stores a prior probability `P(s,a)`, a visit count
//! `N(s,a)` and a mean action value `Q(s,a)`. Selection maximizes the
//! UCT score (with the network prior, i.e. PUCT as in AlphaZero; a
//! plain-UCT mode is kept for the ablation study). Expansion is capped
//! at a configurable number of children per stage (§4.2: "The MCTS tree
//! expands 100 nodes per expansion stage", 200 for 16×16). As soon as a
//! rollout completes a valid mapping at the target II, the whole search
//! ends and returns it (§3.5).

use crate::checkpoint::Fnv64;
use crate::embed::Observer;
use crate::env::{MapEnv, CONFLICT_PENALTY};
use crate::mapping::Mapping;
use crate::network::{MapZeroNet, Prediction};
use crate::supervise::Budget;
use mapzero_arch::PeId;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// MCTS hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MctsConfig {
    /// Simulations per placement decision.
    pub simulations: usize,
    /// Maximum children created per expansion stage.
    pub expansion_cap: usize,
    /// Exploration constant (`C_p` in Eq. 4).
    pub c_puct: f64,
    /// Use network priors in selection (PUCT). `false` gives the plain
    /// UCT of Eq. 4, used in the ablation.
    pub use_priors: bool,
    /// Run a greedy distance-guided playout from each expanded leaf.
    /// Playouts complete mappings, enabling the §3.5 early exit; with
    /// `false` the leaf value is the network estimate alone.
    pub playout: bool,
    /// Maximum environment steps per playout. Large DFGs cap the
    /// rollout and score the reached state by mapping progress instead
    /// of playing to completion, keeping per-decision cost bounded.
    pub playout_step_limit: usize,
    /// Playout RNG seed (tie-breaking).
    pub seed: u64,
    /// Capacity of the prediction cache (entries).
    pub cache_capacity: usize,
    /// Maximum leaves collected under virtual loss and evaluated per
    /// batched forward ([`MapZeroNet::predict_batch`]), K. With K = 1
    /// every sweep holds one leaf, which is plain sequential MCTS;
    /// larger K trades selection fidelity (virtual loss steers later
    /// walks of a sweep away from pending leaves) for fewer, wider
    /// forward passes. Values `< 1` behave as 1.
    pub leaf_batch: usize,
    /// Build problems with precomputed candidate sets
    /// ([`crate::candidates`]): the action mask is hard-pruned to each
    /// node's live candidate set, placement order becomes fail-first
    /// (scarcest node first) and states with an empty candidate set
    /// back a failure up immediately. Consulted where problems are
    /// constructed (compiler II loop, trainer episodes); a [`Problem`]
    /// built without [`Problem::with_candidate_pruning`] always runs
    /// the unpruned baseline.
    ///
    /// [`Problem`]: crate::problem::Problem
    /// [`Problem::with_candidate_pruning`]: crate::problem::Problem::with_candidate_pruning
    pub prune_candidates: bool,
}

impl Default for MctsConfig {
    fn default() -> Self {
        MctsConfig {
            simulations: 64,
            expansion_cap: 100,
            c_puct: 1.4,
            use_priors: true,
            playout: true,
            playout_step_limit: usize::MAX,
            seed: 0,
            cache_capacity: 4096,
            leaf_batch: 8,
            prune_candidates: true,
        }
    }
}

impl MctsConfig {
    /// Small configuration for unit tests.
    #[must_use]
    pub fn fast_test() -> Self {
        MctsConfig { simulations: 12, expansion_cap: 16, ..MctsConfig::default() }
    }
}

#[derive(Debug, Clone)]
struct EdgeStat {
    action: PeId,
    prior: f64,
    visits: u32,
    total_value: f64,
    child: Option<usize>,
}

impl EdgeStat {
    fn q(&self) -> f64 {
        if self.visits == 0 {
            0.0
        } else {
            self.total_value / f64::from(self.visits)
        }
    }
}

#[derive(Debug, Clone)]
struct TreeNode {
    edges: Vec<EdgeStat>,
    visits: u32,
}

/// Result of one MCTS decision.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The most-visited action.
    pub best_action: PeId,
    /// Visit-count distribution over all PEs (the policy target π).
    pub visit_distribution: Vec<f32>,
    /// Root value estimate (mean of simulation returns).
    pub root_value: f64,
    /// A complete valid mapping discovered during simulation, if any.
    pub solution: Option<Mapping>,
}

/// Transposition-keyed memo of network predictions.
///
/// A cloneable handle: every clone reads and writes the same entries in
/// place, so an agent's II attempts, successive episodes and — in the
/// serve worker pool — concurrent requests all warm one cache.
///
/// Entries are keyed by [`state_key`]: the network's parameter
/// fingerprint, the problem's content fingerprint
/// ([`crate::problem::Problem::fingerprint`]) and the placement vector.
/// Those three determine the observation — placement order is fixed by
/// the problem — so a cached [`Prediction`] is exactly what the network
/// would return for that state, whichever search, problem or network
/// computed it. A weight update or a training rollback changes the
/// parameter fingerprint, which makes every older entry unreachable;
/// stale entries are never cleared, they age out of the LRU below.
///
/// Lock discipline: a batched sweep takes the lock once for all of its
/// probes and once for all of its inserts, and the lock is never held
/// across a network forward (which hosts the `infer.predict` failpoint).
/// A poisoned lock is recovered: entries are only ever whole
/// predictions, so a panicking holder cannot leave one half-written.
///
/// Bounded by a two-segment ("flip-flop") LRU approximation: inserts go
/// to the current segment; when it fills, the previous segment is
/// dropped and the segments swap. A hit in the previous segment
/// promotes the entry. O(1) per operation, worst-case memory two
/// half-capacity segments.
#[derive(Debug, Clone)]
pub struct PredictCache {
    inner: Arc<Mutex<FlipFlopLru>>,
}

#[derive(Debug)]
struct FlipFlopLru {
    cur: HashMap<u64, Prediction>,
    prev: HashMap<u64, Prediction>,
    capacity: usize,
}

impl FlipFlopLru {
    /// Look up a state key, promoting previous-segment hits.
    fn get(&mut self, key: u64) -> Option<Prediction> {
        if let Some(p) = self.cur.get(&key) {
            return Some(p.clone());
        }
        let p = self.prev.remove(&key)?;
        self.cur.insert(key, p.clone());
        Some(p)
    }

    /// Insert, swapping segments when the current one is full.
    fn insert(&mut self, key: u64, pred: Prediction) {
        if self.cur.len() >= self.capacity / 2 {
            std::mem::swap(&mut self.cur, &mut self.prev);
            self.cur.clear();
        }
        self.cur.insert(key, pred);
    }
}

impl PredictCache {
    /// Create an empty cache holding at most ~`capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        // Register both legs of the hit-rate pair up front so traces
        // and metric dumps always show the pair, even when a short run
        // never hits (a lazily-registered `hit` would be absent rather
        // than zero).
        mapzero_obs::counter!("search.predict_cache.hit", 0);
        mapzero_obs::counter!("search.predict_cache.miss", 0);
        let lru = FlipFlopLru {
            cur: HashMap::new(),
            prev: HashMap::new(),
            capacity: capacity.max(2),
        };
        PredictCache { inner: Arc::new(Mutex::new(lru)) }
    }

    fn lock(&self) -> MutexGuard<'_, FlipFlopLru> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Probe every key under one lock. Hits and misses are counted as
    /// `search.predict_cache.{hit,miss}`.
    fn get_many(&self, keys: impl IntoIterator<Item = u64>) -> Vec<Option<Prediction>> {
        let mut lru = self.lock();
        keys.into_iter()
            .map(|key| {
                let pred = lru.get(key);
                if pred.is_some() {
                    mapzero_obs::counter!("search.predict_cache.hit");
                } else {
                    mapzero_obs::counter!("search.predict_cache.miss");
                }
                pred
            })
            .collect()
    }

    /// Insert every `(key, prediction)` pair under one lock.
    fn insert_many<'a>(&self, entries: impl IntoIterator<Item = (u64, &'a Prediction)>) {
        let mut lru = self.lock();
        for (key, pred) in entries {
            lru.insert(key, pred.clone());
        }
    }

    /// Number of live entries across both segments.
    #[must_use]
    pub fn len(&self) -> usize {
        let lru = self.lock();
        lru.cur.len() + lru.prev.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Hash the search state: the network's parameter fingerprint, the
/// problem's content fingerprint and the placements (which together
/// determine the observation — see [`PredictCache`]).
fn state_key(net_fingerprint: u64, env: &MapEnv<'_>) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(net_fingerprint);
    h.write_u64(env.problem().fingerprint());
    for p in env.placements() {
        match p {
            Some(pl) => {
                h.write_usize(1 + pl.pe.index());
                h.write_u64(u64::from(pl.time));
            }
            None => h.write_usize(0),
        }
    }
    h.finish()
}

/// Network-guided MCTS over a mapping environment.
pub struct Mcts<'n> {
    net: &'n MapZeroNet,
    config: MctsConfig,
    nodes: Vec<TreeNode>,
    root: usize,
    rng: mapzero_nn::SeedRng,
    observer: Observer,
    cache: PredictCache,
    /// Parameter fingerprint of `net`, fixed for the search's lifetime
    /// (the network is borrowed immutably); the first field of every
    /// cache key.
    net_fingerprint: u64,
}

/// Normalize an environment step reward to roughly [−1, 0].
fn norm_reward(reward: f64) -> f64 {
    (reward / CONFLICT_PENALTY).clamp(-1.0, 0.0)
}

/// Virtual loss applied to every edge a batched walk selects: until the
/// leaf is evaluated the edge carries one extra visit valued at −1, so
/// later walks in the same sweep are steered toward different leaves.
/// Reverted exactly at backup time, so finished statistics carry no
/// trace of it.
const VIRTUAL_LOSS: f64 = 1.0;

/// A leaf selected by a batched walk, awaiting network evaluation.
/// Holds everything the flush needs to expand, evaluate and back up
/// without re-walking the tree.
struct PendingLeaf<'p> {
    /// `(node, edge index)` pairs from the root to the leaf's parent
    /// edge, in selection order. Every listed edge carries a virtual
    /// loss until backup.
    path: Vec<(usize, usize)>,
    /// Normalized step reward observed along each path edge.
    rewards: Vec<f64>,
    /// Environment at the leaf state (after stepping the final edge).
    env: MapEnv<'p>,
    /// Legal actions at the leaf (non-empty; dead ends resolve inline).
    legal: Vec<PeId>,
    /// Transposition key of the leaf state, captured before the playout
    /// mutates `env`.
    key: u64,
}

/// Outcome of one batched selection walk.
enum WalkResult<'p> {
    /// The walk resolved inline (terminal, dead end) and was backed up;
    /// carries the root-level value of the simulation.
    Resolved(f64),
    /// The walk reached a fresh leaf that needs a network evaluation.
    Pending(Box<PendingLeaf<'p>>),
    /// The walk re-selected an edge whose leaf is already in flight;
    /// all of its increments were undone and the sweep should flush.
    Collision,
}

impl<'n> Mcts<'n> {
    /// Create a search over the given network.
    #[must_use]
    pub fn new(net: &'n MapZeroNet, config: MctsConfig) -> Self {
        Mcts::with_cache(net, config, PredictCache::new(config.cache_capacity))
    }

    /// Create a search that reads and writes `cache` in place (the
    /// agent shares one across episodes and II attempts, the serve pool
    /// across requests). Entries are keyed by network, problem and
    /// state, so whatever the cache already holds can only ever serve
    /// predictions this network would compute.
    #[must_use]
    pub fn with_cache(net: &'n MapZeroNet, config: MctsConfig, cache: PredictCache) -> Self {
        // Pre-register the batching counters so metric dumps show zeros
        // (not absences) for runs that never flush a batch.
        mapzero_obs::counter!("search.batch.flush", 0);
        mapzero_obs::counter!("search.batch.partial", 0);
        mapzero_obs::counter!("search.batch.cache_short_circuit", 0);
        mapzero_obs::counter!("search.expand.offered", 0);
        let rng = mapzero_nn::SeedRng::new(config.seed);
        Mcts {
            net,
            config,
            nodes: Vec::new(),
            root: 0,
            rng,
            observer: Observer::new(),
            cache,
            net_fingerprint: net.params_fingerprint(),
        }
    }

    /// Number of nodes currently in the tree.
    #[must_use]
    pub fn tree_size(&self) -> usize {
        self.nodes.len()
    }

    /// Reset the tree (e.g. after the environment was rolled back).
    ///
    /// Deliberately does NOT clear the prediction cache — cached
    /// predictions are keyed by network, problem and state, not by
    /// tree, and stay valid across resets.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.root = 0;
    }

    /// Run simulations from `root_env` and pick an action for the
    /// current node.
    ///
    /// # Panics
    /// Panics if the episode is already done or no action is legal.
    pub fn search(&mut self, root_env: &MapEnv<'_>) -> SearchResult {
        self.search_with_budget(root_env, &Budget::unlimited())
    }

    /// Budget-aware [`Mcts::search`]: the simulation loop polls
    /// `budget` between rollouts and stops early when it is exhausted,
    /// so a compile deadline interrupts *inside* a placement decision
    /// rather than at the next episode boundary. Tree expansions are
    /// charged to the budget's shared expansion pool.
    ///
    /// With fewer simulations the returned policy is noisier but still
    /// well-formed (the root is always expanded, even on an exhausted
    /// budget, so `best_action` is always a legal move).
    ///
    /// # Panics
    /// Panics if the episode is already done or no action is legal.
    pub fn search_with_budget(&mut self, root_env: &MapEnv<'_>, budget: &Budget) -> SearchResult {
        assert!(!root_env.done(), "search requires an unfinished episode");
        let _span = mapzero_obs::span!("mcts.search");
        let _phase = mapzero_obs::phase::phase_guard(mapzero_obs::Phase::Expand);
        self.reset();
        self.root = self.expand_root(root_env);
        budget.charge(1);
        assert!(
            !self.nodes[self.root].edges.is_empty(),
            "no legal action at the root"
        );
        let mut solution = None;
        let root_return = self.run_simulations(root_env, budget, &mut solution);
        let pe_count = root_env.problem().cgra().pe_count();
        let mut visit_distribution = vec![0.0f32; pe_count];
        let root_node = &self.nodes[self.root];
        let total: u32 = root_node.edges.iter().map(|e| e.visits).sum();
        for e in &root_node.edges {
            if total > 0 {
                // Actions are PEs, so `index() < pe_count` always holds.
                if let Some(v) = visit_distribution.get_mut(e.action.index()) {
                    *v = e.visits as f32 / total as f32;
                }
            }
        }
        let best_action = root_node
            .edges
            .iter()
            .max_by_key(|e| e.visits)
            .map(|e| e.action)
            .unwrap_or_else(|| {
                // Unreachable: root edges were asserted non-empty above.
                // Degrade to PE 0 rather than panic mid-search.
                debug_assert!(false, "root lost its edges during search");
                PeId(0)
            });
        let sims = self.nodes[self.root].visits.max(1);
        SearchResult {
            best_action,
            visit_distribution,
            root_value: root_return / f64::from(sims),
            solution,
        }
    }

    /// The simulation loop (Alg. 1): sweeps of selection walks collect
    /// up to `leaf_batch` fresh leaves under virtual loss, one
    /// [`MapZeroNet::predict_batch`] call evaluates them, and the flush
    /// backs every walk up (reverting its virtual losses) in selection
    /// order. Returns the accumulated root-level return.
    ///
    /// Determinism: the walk/backup sequence is a pure function of the
    /// network, the config and the root state. Cache hits are resolved
    /// at flush time — they skip the forward pass but never change
    /// which walks run or when values are applied, so cache *contents*
    /// cannot change a search result (the invariant the serve tenant-
    /// isolation suite pins). With `leaf_batch == 1` each sweep holds
    /// one leaf: select, expand, evaluate and back up, one simulation
    /// at a time.
    fn run_simulations<'p>(
        &mut self,
        root_env: &MapEnv<'p>,
        budget: &Budget,
        solution: &mut Option<Mapping>,
    ) -> f64 {
        let batch = self.config.leaf_batch.max(1);
        let mut in_flight: std::collections::HashSet<(usize, usize)> = std::collections::HashSet::new();
        let mut pending: Vec<PendingLeaf<'p>> = Vec::new();
        let mut root_return = 0.0f64;
        let mut sims_done = 0usize;
        while sims_done < self.config.simulations {
            // Collect one sweep.
            while sims_done < self.config.simulations && pending.len() < batch {
                if budget.exhausted() || solution.is_some() {
                    break;
                }
                match self.batched_walk(root_env, &in_flight, solution, budget) {
                    WalkResult::Resolved(value) => {
                        mapzero_obs::counter!("mcts.simulations");
                        root_return += value;
                        sims_done += 1;
                    }
                    WalkResult::Pending(leaf) => {
                        mapzero_obs::counter!("mcts.simulations");
                        in_flight.insert(*leaf.path.last().expect("pending walk has a path"));
                        pending.push(*leaf);
                        sims_done += 1;
                    }
                    WalkResult::Collision => break,
                }
            }
            if pending.is_empty() {
                break;
            }
            root_return += self.flush_pending(&mut pending, batch, solution);
            in_flight.clear();
            if budget.exhausted() || solution.is_some() {
                break;
            }
        }
        root_return
    }

    /// One selection walk of the batched loop: descend under PUCT,
    /// applying a visit increment per node and a virtual loss per edge,
    /// until the walk resolves inline (terminal or dead end), reaches a
    /// fresh leaf (returned as [`WalkResult::Pending`]), or collides
    /// with an in-flight leaf (all increments undone).
    fn batched_walk<'p>(
        &mut self,
        root_env: &MapEnv<'p>,
        in_flight: &std::collections::HashSet<(usize, usize)>,
        solution: &mut Option<Mapping>,
        budget: &Budget,
    ) -> WalkResult<'p> {
        let mut env = root_env.clone();
        let mut node = self.root;
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut rewards: Vec<f64> = Vec::new();
        loop {
            self.nodes[node].visits += 1;
            if self.nodes[node].edges.is_empty() {
                // Dead end reached through an existing child.
                return WalkResult::Resolved(self.backup(&path, &rewards, -1.0));
            }
            let edge_idx = self.select_edge(node);
            let child = self.nodes[node].edges[edge_idx].child;
            if child.is_none() && in_flight.contains(&(node, edge_idx)) {
                // Another walk of this sweep already owns this leaf:
                // undo every increment this walk applied and stop the
                // sweep so the pending batch flushes.
                self.nodes[node].visits -= 1;
                for &(n, e) in path.iter().rev() {
                    self.nodes[n].visits -= 1;
                    let edge = &mut self.nodes[n].edges[e];
                    edge.visits -= 1;
                    edge.total_value += VIRTUAL_LOSS;
                }
                return WalkResult::Collision;
            }
            {
                let edge = &mut self.nodes[node].edges[edge_idx];
                edge.visits += 1;
                edge.total_value -= VIRTUAL_LOSS;
            }
            let action = self.nodes[node].edges[edge_idx].action;
            let outcome = env.step(action);
            path.push((node, edge_idx));
            rewards.push(norm_reward(outcome.reward));
            if env.success() {
                *solution = env.final_mapping();
                return WalkResult::Resolved(self.backup(&path, &rewards, 1.0));
            }
            if env.done() {
                return WalkResult::Resolved(self.backup(&path, &rewards, -1.0));
            }
            match child {
                Some(c) => node = c,
                None => {
                    if env.doomed() {
                        // Forward checking emptied some node's candidate
                        // set: back a failure up without a network query
                        // or a playout (neither can rescue the state).
                        mapzero_obs::counter!("search.prune.dead_state");
                        mapzero_obs::counter!("mcts.expansions");
                        self.nodes.push(TreeNode { edges: Vec::new(), visits: 1 });
                        let leaf = self.nodes.len() - 1;
                        self.nodes[node].edges[edge_idx].child = Some(leaf);
                        budget.charge(1);
                        return WalkResult::Resolved(self.backup(&path, &rewards, -1.0));
                    }
                    let legal = env.search_actions();
                    if legal.is_empty() {
                        // Dead-end leaf: expand inline (no network
                        // query — the masked softmax needs a legal
                        // action).
                        mapzero_obs::counter!("mcts.expansions");
                        self.nodes.push(TreeNode { edges: Vec::new(), visits: 1 });
                        let leaf = self.nodes.len() - 1;
                        self.nodes[node].edges[edge_idx].child = Some(leaf);
                        budget.charge(1);
                        let leaf_value = if self.config.playout {
                            let playout_value = self.playout(&mut env, solution);
                            0.5 * (-1.0 + playout_value)
                        } else {
                            -1.0
                        };
                        return WalkResult::Resolved(self.backup(&path, &rewards, leaf_value));
                    }
                    // Reserve the expansion against the budget now so a
                    // sweep can never overshoot the pool by more than
                    // the node the pre-walk poll already allowed.
                    budget.charge(1);
                    let key = state_key(self.net_fingerprint, &env);
                    return WalkResult::Pending(Box::new(PendingLeaf {
                        path,
                        rewards,
                        env,
                        legal,
                        key,
                    }));
                }
            }
        }
    }

    /// Evaluate and resolve every pending leaf of a sweep, in selection
    /// order: one [`Mcts::evaluate`] call scores them all, then each
    /// leaf is expanded, played out and backed up. Returns the summed
    /// root-level values.
    fn flush_pending(
        &mut self,
        pending: &mut Vec<PendingLeaf<'_>>,
        batch: usize,
        solution: &mut Option<Mapping>,
    ) -> f64 {
        mapzero_obs::counter!("search.batch.flush");
        if pending.len() < batch {
            mapzero_obs::counter!("search.batch.partial");
        }
        let leaves: Vec<(u64, &MapEnv<'_>)> =
            pending.iter().map(|leaf| (leaf.key, &leaf.env)).collect();
        let predictions = self.evaluate(&leaves);
        let mut total = 0.0f64;
        for (leaf, pred) in pending.drain(..).zip(predictions) {
            let (child, net_value) = self.expand_scored(leaf.legal, &pred);
            let &(parent, edge_idx) = leaf.path.last().expect("pending walk has a path");
            self.nodes[parent].edges[edge_idx].child = Some(child);
            self.nodes[child].visits += 1;
            let mut env = leaf.env;
            let leaf_value = if self.config.playout {
                let playout_value = self.playout(&mut env, solution);
                0.5 * (net_value + playout_value)
            } else {
                net_value
            };
            total += self.backup(&leaf.path, &leaf.rewards, leaf_value);
        }
        total
    }

    /// Back one walk up: fold the leaf value through the per-step
    /// rewards (clamped at every level) and revert each edge's virtual
    /// loss while applying its real value. Returns the root-level value
    /// of the simulation.
    fn backup(&mut self, path: &[(usize, usize)], rewards: &[f64], leaf_value: f64) -> f64 {
        debug_assert_eq!(path.len(), rewards.len());
        let mut value = leaf_value;
        for (&(node, edge_idx), &reward) in path.iter().zip(rewards).rev() {
            value = (reward + value).clamp(-1.0, 1.0);
            let edge = &mut self.nodes[node].edges[edge_idx];
            edge.total_value += VIRTUAL_LOSS + value;
        }
        value
    }

    /// Create the root node for `env`. A doomed or dead-end root gets
    /// an edge-less node (no network query — the masked softmax needs a
    /// legal action), which the caller rejects.
    fn expand_root(&mut self, env: &MapEnv<'_>) -> usize {
        let legal = if env.doomed() {
            mapzero_obs::counter!("search.prune.dead_state");
            Vec::new()
        } else {
            env.search_actions()
        };
        if legal.is_empty() {
            mapzero_obs::counter!("mcts.expansions");
            self.nodes.push(TreeNode { edges: Vec::new(), visits: 0 });
            return self.nodes.len() - 1;
        }
        let key = state_key(self.net_fingerprint, env);
        let pred = self.evaluate(&[(key, env)]).pop().expect("one state, one prediction");
        self.expand_scored(legal, &pred).0
    }

    /// The one network-evaluation path of the search: probe the
    /// prediction cache for every `(key, state)` under one lock (hits
    /// never occupy a batch slot), run one
    /// [`MapZeroNet::predict_batch`] over the misses without the lock
    /// (the forward hosts the `infer.predict` failpoint and is the slow
    /// step), insert the fresh predictions, and return one prediction
    /// per state in input order.
    fn evaluate(&mut self, states: &[(u64, &MapEnv<'_>)]) -> Vec<Prediction> {
        let mut predictions = self.cache.get_many(states.iter().map(|&(key, _)| key));
        let mut miss_obs: Vec<crate::embed::Observation> = Vec::new();
        let mut miss_at: Vec<usize> = Vec::new();
        for (i, (&(_, env), pred)) in states.iter().zip(&predictions).enumerate() {
            if pred.is_some() {
                mapzero_obs::counter!("search.batch.cache_short_circuit");
            } else {
                miss_obs.push(self.observer.observe(env).clone());
                miss_at.push(i);
            }
        }
        if !miss_obs.is_empty() {
            let refs: Vec<&crate::embed::Observation> = miss_obs.iter().collect();
            let fresh = self.net.predict_batch(&refs);
            self.cache.insert_many(miss_at.iter().zip(&fresh).map(|(&i, pred)| (states[i].0, pred)));
            for (i, pred) in miss_at.into_iter().zip(fresh) {
                predictions[i] = Some(pred);
            }
        }
        predictions
            .into_iter()
            .map(|pred| pred.expect("every state was evaluated"))
            .collect()
    }

    /// Create a tree node from an already-computed prediction; the
    /// shared expansion kernel of the root and of flushed leaves.
    fn expand_scored(&mut self, legal: Vec<PeId>, pred: &Prediction) -> (usize, f64) {
        mapzero_obs::counter!("mcts.expansions");
        // Actions offered to this expansion (pre-cap): together with
        // `mcts.expansions` this yields the effective branching factor
        // the search_space bench reports.
        mapzero_obs::counter!("search.expand.offered", legal.len() as u64);
        let mut scored: Vec<(PeId, f64)> = legal
            .into_iter()
            .map(|pe| (pe, f64::from(pred.log_probs[pe.index()].exp())))
            .collect();
        // Keep the most promising `expansion_cap` actions. `total_cmp`
        // gives a total order even if a prior degenerates to NaN (a
        // poisoned network must not panic the search; NaNs sort last).
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.truncate(self.config.expansion_cap);
        let norm: f64 = scored.iter().map(|(_, p)| *p).sum::<f64>().max(1e-12);
        let edges = scored
            .into_iter()
            .map(|(action, p)| EdgeStat {
                action,
                prior: p / norm,
                visits: 0,
                total_value: 0.0,
                child: None,
            })
            .collect();
        self.nodes.push(TreeNode { edges, visits: 0 });
        (self.nodes.len() - 1, f64::from(pred.value))
    }

    /// Greedy playout to the end of the episode: each remaining node is
    /// placed on the free PE closest (grid distance) to its already-
    /// placed parents, with random tie-breaking. Returns the normalized
    /// return of the playout and records any complete mapping found.
    fn playout(&mut self, env: &mut MapEnv<'_>, solution: &mut Option<Mapping>) -> f64 {
        mapzero_obs::counter!("mcts.playouts");
        let cgra = env.problem().cgra();
        let dfg = env.problem().dfg();
        let mut acc = 0.0f64;
        let mut steps = 0usize;
        while !env.done() {
            if steps >= self.config.playout_step_limit {
                // Budget exhausted: score by how far the rollout got
                // without a conflict.
                let frac = env.placed_count() as f64 / env.problem().node_count() as f64;
                return (acc + frac - 0.5).clamp(-1.0, 1.0);
            }
            steps += 1;
            if env.doomed() {
                // Forward checking proved the rollout unwinnable; stop
                // instead of placing the remaining nodes.
                mapzero_obs::counter!("search.prune.dead_state");
                return (acc - 1.0).clamp(-1.0, 1.0);
            }
            let legal = env.search_actions();
            if legal.is_empty() {
                return (acc - 1.0).clamp(-1.0, 1.0);
            }
            let Some(u) = env.current_node() else {
                // `!env.done()` at the loop head guarantees a current
                // node; treat a violation as a dead-end playout.
                debug_assert!(false, "playout env has no current node");
                return (acc - 1.0).clamp(-1.0, 1.0);
            };
            // Grid positions of placed neighbours (parents and children).
            let mut anchors: Vec<(usize, usize)> = Vec::new();
            for e in dfg.in_edges(u).chain(dfg.out_edges(u)) {
                let other = if e.src == u { e.dst } else { e.src };
                if let Some(p) = env.placement(other) {
                    let pe = cgra.pe(p.pe);
                    anchors.push((pe.row, pe.col));
                }
            }
            let jitter = self.rng.below(legal.len());
            let mut ranked: Vec<(usize, PeId)> = legal.iter().copied().enumerate().collect();
            ranked.sort_by_key(|(i, pe)| {
                let info = cgra.pe(*pe);
                let dist: usize = anchors
                    .iter()
                    .map(|&(r, c)| info.row.abs_diff(r) + info.col.abs_diff(c))
                    .sum();
                (dist, (*i + jitter) % legal.len())
            });
            // Router-aware greedy: try the nearest candidates and keep
            // the first that routes cleanly; accept the final failure
            // only when every candidate conflicts.
            let tries = ranked.len().min(4);
            let mut outcome = None;
            for (k, &(_, pe)) in ranked.iter().take(tries).enumerate() {
                let o = env.step(pe);
                if o.failed_routes == 0 || k + 1 == tries {
                    outcome = Some(o);
                    break;
                }
                env.undo();
            }
            let Some(outcome) = outcome else {
                // `tries >= 1` because `legal` is non-empty, so the loop
                // always records an outcome; fail the playout otherwise.
                debug_assert!(false, "no playout candidate was tried");
                return (acc - 1.0).clamp(-1.0, 1.0);
            };
            acc += norm_reward(outcome.reward);
            if outcome.failed_routes > 0 {
                // The playout already failed; finish cheaply.
                return (acc - 1.0).clamp(-1.0, 1.0);
            }
        }
        if env.success() {
            *solution = env.final_mapping();
            (acc + 1.0).clamp(-1.0, 1.0)
        } else {
            (acc - 1.0).clamp(-1.0, 1.0)
        }
    }

    /// UCT / PUCT selection over the edges of `node`.
    fn select_edge(&self, node: usize) -> usize {
        mapzero_obs::counter!("mcts.selections");
        let n = &self.nodes[node];
        let parent_visits = f64::from(n.visits.max(1));
        let mut best = 0;
        let mut best_score = f64::NEG_INFINITY;
        for (i, e) in n.edges.iter().enumerate() {
            let score = if self.config.use_priors {
                // PUCT (AlphaZero): Q + c * P * sqrt(N) / (1 + n).
                e.q() + self.config.c_puct * e.prior * parent_visits.sqrt()
                    / (1.0 + f64::from(e.visits))
            } else if e.visits == 0 {
                // Plain UCT (Eq. 4) explores unvisited children first.
                f64::INFINITY
            } else {
                e.q()
                    + 2.0
                        * self.config.c_puct
                        * (2.0 * parent_visits.ln() / f64::from(e.visits)).sqrt()
            };
            if score > best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetConfig;
    use crate::problem::Problem;
    use mapzero_arch::presets;
    use mapzero_dfg::{suite, DfgBuilder, Opcode};

    #[test]
    fn search_finds_solution_for_tiny_kernel() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::hrea();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(cgra.pe_count(), NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig { simulations: 200, ..MctsConfig::fast_test() });
        let result = mcts.search(&env);
        // With an early exit, a trivially-mappable kernel must be solved
        // inside the search.
        let mapping = result.solution.expect("sum maps on HReA at II=1");
        assert!(mapping.validate(&dfg, &cgra).is_empty());
    }

    #[test]
    fn visit_distribution_sums_to_one() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig::fast_test());
        let result = mcts.search(&env);
        let total: f32 = result.visit_distribution.iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
        assert!(result.root_value.abs() <= 1.0 + 1e-9);
    }

    #[test]
    fn expansion_cap_limits_branching() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let config = MctsConfig { expansion_cap: 3, simulations: 10, ..MctsConfig::default() };
        let mut mcts = Mcts::new(&net, config);
        let result = mcts.search(&env);
        let nonzero = result.visit_distribution.iter().filter(|&&v| v > 0.0).count();
        assert!(nonzero <= 3, "visited {nonzero} root actions, cap is 3");
    }

    #[test]
    fn plain_uct_mode_also_works() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let config = MctsConfig { use_priors: false, simulations: 50, ..MctsConfig::fast_test() };
        let mut mcts = Mcts::new(&net, config);
        let result = mcts.search(&env);
        assert!(result.visit_distribution[result.best_action.index()] > 0.0);
    }

    #[test]
    fn impossible_instance_yields_no_solution() {
        // Two loads one cycle apart on a 1x2 strip with II=1: the second
        // placement always conflicts spatially; every rollout fails.
        let mut b = DfgBuilder::new("hard");
        let a = b.node(Opcode::Load);
        let c = b.node(Opcode::Load);
        let d = b.node(Opcode::Add);
        let e = b.node(Opcode::Add);
        b.edge(a, d).unwrap();
        b.edge(c, e).unwrap();
        b.edge(a, e).unwrap();
        b.edge(c, d).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(1, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(4, NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig::fast_test());
        let result = mcts.search(&env);
        // d and e each need both a and c as neighbours on a strip —
        // geometrically impossible, so no solution can be found.
        assert!(result.solution.is_none());
    }

    #[test]
    fn dead_end_states_expand_without_network_query() {
        // Two adds are placed before the load (topological order); if a
        // rollout parks an add on the only memory-capable PE, the load
        // reaches a state with zero legal actions. The search must
        // value that as a -1 dead end, not panic in the masked softmax.
        let mut b = DfgBuilder::new("greedy-trap");
        let a0 = b.node(Opcode::Add);
        let a1 = b.node(Opcode::Add);
        let ld = b.node(Opcode::Load);
        let sink = b.node(Opcode::Add);
        b.edge(a0, sink).unwrap();
        b.edge(a1, sink).unwrap();
        b.edge(ld, sink).unwrap();
        let dfg = b.finish().unwrap();
        let mut builder = mapzero_arch::CgraBuilder::new("one-mem", 2, 2)
            .interconnect(mapzero_arch::Interconnect::Mesh)
            .all_capabilities(mapzero_arch::Capability::COMPUTE);
        builder = builder.capability(0, 0, mapzero_arch::Capability::ALL);
        let cgra = builder.finish();
        let problem = Problem::new(&dfg, &cgra, 2).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(4, NetConfig::tiny());
        let mut mcts = Mcts::new(
            &net,
            MctsConfig { simulations: 64, ..MctsConfig::fast_test() },
        );
        // Must terminate without panicking; dead ends are -1 leaves.
        let result = mcts.search(&env);
        assert!(result.visit_distribution.iter().sum::<f32>() > 0.0);
    }

    #[test]
    fn expired_budget_still_returns_a_legal_action() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig::fast_test());
        let budget = Budget::with_deadline(std::time::Duration::ZERO);
        let result = mcts.search_with_budget(&env, &budget);
        assert!(env.legal_actions().contains(&result.best_action));
        // Only the root was expanded; no simulations ran.
        assert_eq!(mcts.tree_size(), 1);
    }

    #[test]
    fn expansion_budget_bounds_tree_growth() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let config = MctsConfig { simulations: 500, playout: false, ..MctsConfig::fast_test() };
        let mut mcts = Mcts::new(&net, config);
        let budget = Budget::unlimited().with_expansion_cap(8);
        let _ = mcts.search_with_budget(&env, &budget);
        // Each simulation expands at most one leaf, so the tree may
        // overshoot the cap by a single node before the next poll.
        assert!(mcts.tree_size() <= 9, "tree grew to {}", mcts.tree_size());
        assert!(budget.exhausted());
    }

    /// After a weight update, a search reusing the old cache must not
    /// be served a single stale prediction (the parameter fingerprint
    /// is part of every key) and must decide exactly like a cold-cache
    /// search over the updated network. Misses insert and hits do not,
    /// so "zero hits" shows as the reused cache growing by exactly the
    /// entry count of a cold-cache search (the global hit counter is
    /// shared with the unit tests running alongside).
    #[test]
    fn weight_update_makes_old_cache_entries_unreachable() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let mut net = MapZeroNet::new(16, NetConfig::tiny());
        let config = MctsConfig { playout: false, ..MctsConfig::fast_test() };

        let cache = PredictCache::new(config.cache_capacity);
        let _ = Mcts::with_cache(&net, config, cache.clone()).search(&env);
        let warmed = cache.len();
        assert!(warmed > 0, "search should have populated the cache");

        let sample = crate::network::TrainSample {
            observation: crate::embed::observe(&env),
            policy: vec![1.0 / 16.0; 16],
            value: 0.1,
        };
        let _ = net.train_batch(&[sample], 0.01, 5.0);

        let reused = Mcts::with_cache(&net, config, cache.clone()).search(&env);
        let cold_cache = PredictCache::new(config.cache_capacity);
        let cold = Mcts::with_cache(&net, config, cold_cache.clone()).search(&env);
        assert_eq!(
            cache.len() - warmed,
            cold_cache.len(),
            "a stale entry was served after a weight update"
        );
        assert_eq!(reused.best_action, cold.best_action);
        assert_eq!(reused.visit_distribution, cold.visit_distribution);
        assert_eq!(reused.root_value.to_bits(), cold.root_value.to_bits());
    }

    /// Clones of a cache are one cache: a search through one handle
    /// warms every other, and a repeat search is served from it.
    #[test]
    fn cache_handles_share_entries_in_place() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::simple_mesh(4, 4);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let env = MapEnv::new(&problem);
        let net = MapZeroNet::new(16, NetConfig::tiny());
        let config = MctsConfig { playout: false, ..MctsConfig::fast_test() };
        let cache = PredictCache::new(config.cache_capacity);
        let first = Mcts::with_cache(&net, config, cache.clone()).search(&env);
        let warmed = cache.len();
        assert!(warmed > 0);
        let second = Mcts::with_cache(&net, config, cache.clone()).search(&env);
        assert_eq!(cache.len(), warmed, "a repeat search adds no entries");
        assert_eq!(first.visit_distribution, second.visit_distribution);
        assert_eq!(first.root_value.to_bits(), second.root_value.to_bits());
    }

    /// The flip-flop LRU keeps the entry count bounded by the capacity.
    #[test]
    fn predict_cache_is_bounded() {
        let cache = PredictCache::new(8);
        let pred = Prediction { log_probs: vec![0.0], value: 0.0 };
        cache.insert_many((0..100u64).map(|k| (k, &pred)));
        assert!(cache.len() <= 8, "cache grew to {}", cache.len());
        // Most-recent entries stay resident.
        assert!(cache.get_many([99])[0].is_some());
    }

    #[test]
    #[should_panic(expected = "unfinished episode")]
    fn search_on_done_episode_panics() {
        let mut b = DfgBuilder::new("one");
        b.node(Opcode::Add);
        let dfg = b.finish().unwrap();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(mapzero_arch::PeId(0));
        let net = MapZeroNet::new(4, NetConfig::tiny());
        let mut mcts = Mcts::new(&net, MctsConfig::fast_test());
        let _ = mcts.search(&env);
    }
}
