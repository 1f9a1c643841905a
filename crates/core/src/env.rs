//! The mapping environment: the Markov decision process of §3.3.
//!
//! State = (CGRA occupancy per modulo slice, DFG with per-node mapping
//! features, metadata of the node being placed). Action = choice of PE
//! for the current node (invalid PEs are masked). Reward = the negative
//! routing penalty introduced by the placement: −100 per routing
//! conflict plus a small wire-cost term for claimed resources.

use crate::candidates::CandidateState;
use crate::ledger::Ledger;
use crate::mapping::{Mapping, Placement};
use crate::problem::Problem;
use crate::router::{route_edge, Route};
use mapzero_arch::PeId;
use mapzero_dfg::{NodeId, OpClass, Opcode};

/// Penalty per routing conflict (§4.4: "each node placement causing a
/// routing conflict introduces a penalty of −100").
pub const CONFLICT_PENALTY: f64 = 100.0;

/// Result of one environment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// Reward (negative routing penalty) for this action.
    pub reward: f64,
    /// Number of edges that failed to route.
    pub failed_routes: usize,
    /// Newly-claimed routing resources.
    pub route_cost: usize,
    /// True when every node has been placed after this step.
    pub done: bool,
}

#[derive(Debug, Clone)]
struct StepRecord {
    checkpoint: crate::ledger::Checkpoint,
    routed_edges: Vec<usize>,
    failed_edges: Vec<usize>,
    reward: f64,
}

/// The placement environment over one [`Problem`].
#[derive(Debug, Clone)]
pub struct MapEnv<'a> {
    problem: &'a Problem<'a>,
    ledger: Ledger,
    placements: Vec<Option<Placement>>,
    routes: Vec<Option<Route>>,
    edge_failed: Vec<bool>,
    cursor: usize,
    history: Vec<StepRecord>,
    total_reward: f64,
    /// Live candidate sets (forward checking), present iff the problem
    /// was built with [`Problem::with_candidate_pruning`].
    cands: Option<CandidateState>,
}

impl<'a> MapEnv<'a> {
    /// Fresh environment with an empty mapping.
    #[must_use]
    pub fn new(problem: &'a Problem<'a>) -> Self {
        let n = problem.node_count();
        let e = problem.dfg().edge_count();
        MapEnv {
            problem,
            ledger: Ledger::new(problem.cgra(), problem.ii()),
            placements: vec![None; n],
            routes: vec![None; e],
            edge_failed: vec![false; e],
            cursor: 0,
            history: Vec::with_capacity(n),
            total_reward: 0.0,
            cands: problem.candidates().map(CandidateState::new),
        }
    }

    /// The underlying problem.
    #[must_use]
    pub fn problem(&self) -> &Problem<'a> {
        self.problem
    }

    /// The node to be placed next, or `None` when done.
    #[must_use]
    pub fn current_node(&self) -> Option<NodeId> {
        self.problem.order().get(self.cursor).copied()
    }

    /// Number of nodes placed so far.
    #[must_use]
    pub fn placed_count(&self) -> usize {
        self.cursor
    }

    /// True when all nodes are placed.
    #[must_use]
    pub fn done(&self) -> bool {
        self.cursor == self.problem.node_count()
    }

    /// Cumulative reward so far.
    #[must_use]
    pub fn total_reward(&self) -> f64 {
        self.total_reward
    }

    /// Number of edges that failed to route so far.
    #[must_use]
    pub fn failed_route_count(&self) -> usize {
        self.edge_failed.iter().filter(|&&f| f).count()
    }

    /// True when the episode ended with a complete, conflict-free
    /// mapping.
    #[must_use]
    pub fn success(&self) -> bool {
        self.done() && self.failed_route_count() == 0
    }

    /// Placement of a node, if placed.
    #[must_use]
    pub fn placement(&self, node: NodeId) -> Option<Placement> {
        self.placements[node.index()]
    }

    /// Current placements (`None` for unplaced nodes).
    #[must_use]
    pub fn placements(&self) -> &[Option<Placement>] {
        &self.placements
    }

    /// Number of DFG edges with a committed route right now.
    #[must_use]
    pub fn routed_edge_count(&self) -> u64 {
        self.routes.iter().filter(|r| r.is_some()).count() as u64
    }

    /// Occupancy of the modulo slice the current node is scheduled into
    /// (for the CGRA feature encoder); empty-slice view when done.
    #[must_use]
    pub fn current_slice_occupancy(&self) -> Vec<Option<usize>> {
        let slot = self
            .current_node()
            .map_or(0, |u| self.problem.schedule().modulo_slot(u));
        self.ledger.slice_occupancy(slot)
    }

    /// The boolean action mask over PEs for the current node: capable,
    /// functional unit free in the node's modulo slice, and (on ADRES)
    /// memory bus free. All-false when done.
    #[must_use]
    pub fn action_mask(&self) -> Vec<bool> {
        let cgra = self.problem.cgra();
        let Some(u) = self.current_node() else {
            return vec![false; cgra.pe_count()];
        };
        let op = self.problem.dfg().node(u).opcode;
        let slot = self.problem.schedule().modulo_slot(u);
        cgra.pe_ids().map(|p| self.is_legal(op, slot, p)).collect()
    }

    /// Whether an `op` node may be placed on `pe` in modulo slot
    /// `slot`: the PE supports the opcode, its FU is free in that slot
    /// and, on row-bus fabrics, a memory op finds its row's bus free.
    /// The one predicate behind [`MapEnv::action_mask`] and
    /// [`MapEnv::step`]'s check.
    fn is_legal(&self, op: Opcode, slot: u32, pe: PeId) -> bool {
        let cgra = self.problem.cgra();
        cgra.pe(pe).capability.supports(op)
            && self.ledger.fu(pe, slot).is_none()
            && !(cgra.row_shared_mem_bus()
                && op.class() == OpClass::Memory
                && self.ledger.membus(cgra.pe(pe).row, slot).is_some())
    }

    /// Legal actions as PE ids.
    #[must_use]
    pub fn legal_actions(&self) -> Vec<PeId> {
        self.action_mask()
            .into_iter()
            .enumerate()
            .filter_map(|(i, ok)| ok.then_some(PeId(i as u32)))
            .collect()
    }

    /// True when this environment carries live candidate sets (the
    /// problem was built with [`Problem::with_candidate_pruning`]).
    #[must_use]
    pub fn pruning_enabled(&self) -> bool {
        self.cands.is_some()
    }

    /// True when some unplaced node has an empty live candidate set —
    /// no conflict-free completion exists from this state, so the
    /// search can back a failure value up immediately instead of
    /// expanding the subtree. Always `false` without candidate pruning.
    #[must_use]
    pub fn doomed(&self) -> bool {
        self.cands.as_ref().is_some_and(CandidateState::doomed)
    }

    /// [`MapEnv::action_mask`] intersected with the current node's live
    /// candidate set. Identical to the plain mask without pruning; the
    /// pruned-away legal actions are counted as
    /// `search.prune.masked_actions`.
    #[must_use]
    pub fn search_mask(&self) -> Vec<bool> {
        let mut mask = self.action_mask();
        if let (Some(cands), Some(u)) = (self.cands.as_ref(), self.current_node()) {
            let mut removed = 0u64;
            for (i, m) in mask.iter_mut().enumerate() {
                if *m && !cands.is_candidate(u, PeId(i as u32)) {
                    *m = false;
                    removed += 1;
                }
            }
            if removed > 0 {
                mapzero_obs::counter!("search.prune.masked_actions", removed);
            }
        }
        mask
    }

    /// Legal actions restricted to the current node's live candidate
    /// set (equal to [`MapEnv::legal_actions`] without pruning).
    #[must_use]
    pub fn search_actions(&self) -> Vec<PeId> {
        self.search_mask()
            .into_iter()
            .enumerate()
            .filter_map(|(i, ok)| ok.then_some(PeId(i as u32)))
            .collect()
    }

    /// Place the current node on `pe`, route every edge whose endpoints
    /// are now both placed, and return the step outcome.
    ///
    /// # Panics
    /// Panics if the episode is done or `pe` is masked (callers must
    /// respect [`MapEnv::action_mask`]).
    pub fn step(&mut self, pe: PeId) -> StepOutcome {
        let u = self.current_node().expect("episode not done");
        let dfg = self.problem.dfg();
        let cgra = self.problem.cgra();
        let schedule = self.problem.schedule();
        let time = schedule.time(u);
        let slot = schedule.modulo_slot(u);
        let op = dfg.node(u).opcode;
        assert!(self.is_legal(op, slot, pe), "action {pe} is masked for node {u}");

        let checkpoint = self.ledger.checkpoint();
        assert!(self.ledger.claim_fu(pe, slot, u), "mask guaranteed a free FU");
        if cgra.row_shared_mem_bus() && op.class() == OpClass::Memory {
            assert!(
                self.ledger.claim_membus(cgra.pe(pe).row, slot, u),
                "mask guaranteed a free bus"
            );
        }
        let placement = Placement { pe, time };
        self.placements[u.index()] = Some(placement);
        if let Some(cands) = self.cands.as_mut() {
            let map = self.problem.candidates().expect("live state implies a map");
            cands.on_place(map, u, pe, &self.placements);
        }

        // Route all edges whose endpoints are now both placed.
        let mut failed = 0usize;
        let mut cost = 0usize;
        let mut routed_edges = Vec::new();
        let mut failed_edges = Vec::new();
        for (idx, e) in dfg.edges().enumerate() {
            if self.routes[idx].is_some() || self.edge_failed[idx] {
                continue;
            }
            let (Some(from), Some(to)) =
                (self.placements[e.src.index()], self.placements[e.dst.index()])
            else {
                continue;
            };
            match route_edge(cgra, &mut self.ledger, e.src, from, to, e.dist) {
                Some(route) => {
                    cost += route.cost;
                    self.routes[idx] = Some(route);
                    routed_edges.push(idx);
                }
                None => {
                    failed += 1;
                    self.edge_failed[idx] = true;
                    failed_edges.push(idx);
                }
            }
        }

        let reward = -(CONFLICT_PENALTY * failed as f64 + cost as f64);
        self.total_reward += reward;
        self.history.push(StepRecord { checkpoint, routed_edges, failed_edges, reward });
        self.cursor += 1;
        StepOutcome { reward, failed_routes: failed, route_cost: cost, done: self.done() }
    }

    /// Undo the most recent step (the backtracking primitive of §3.6.2).
    ///
    /// Returns the node that was unplaced, or `None` at the initial
    /// state.
    pub fn undo(&mut self) -> Option<NodeId> {
        let record = self.history.pop()?;
        self.cursor -= 1;
        let u = self.problem.order()[self.cursor];
        self.placements[u.index()] = None;
        for idx in record.routed_edges {
            self.routes[idx] = None;
        }
        for idx in record.failed_edges {
            self.edge_failed[idx] = false;
        }
        self.ledger.undo_to(record.checkpoint);
        self.total_reward -= record.reward;
        if let Some(cands) = self.cands.as_mut() {
            cands.on_undo();
        }
        Some(u)
    }

    /// Extract the final mapping after a successful episode.
    #[must_use]
    pub fn final_mapping(&self) -> Option<Mapping> {
        if !self.success() {
            return None;
        }
        // `success()` means every node is placed; a hole here would be a
        // broken invariant, so degrade to "no mapping" instead of panic.
        let placements = match self.placements.iter().copied().collect::<Option<Vec<_>>>() {
            Some(p) => p,
            None => {
                debug_assert!(false, "successful episode with an unplaced node");
                return None;
            }
        };
        let routes = self
            .routes
            .iter()
            .map(|r| r.as_ref().map(|r| r.hops.clone()).unwrap_or_default())
            .collect();
        Some(Mapping { ii: self.problem.ii(), placements, routes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_arch::presets;
    use mapzero_dfg::DfgBuilder;

    fn chain3() -> mapzero_dfg::Dfg {
        let mut b = DfgBuilder::new("chain3");
        let a = b.node(Opcode::Load);
        let m = b.node(Opcode::Mul);
        let s = b.node(Opcode::Store);
        b.edge(a, m).unwrap();
        b.edge(m, s).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn happy_path_maps_chain() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        // Place along a mesh path: pe0 -> pe1 -> pe3.
        let o1 = env.step(PeId(0));
        assert_eq!(o1.failed_routes, 0);
        let o2 = env.step(PeId(1));
        assert_eq!(o2.failed_routes, 0);
        let o3 = env.step(PeId(3));
        assert!(o3.done);
        assert!(env.success());
        let m = env.final_mapping().unwrap();
        assert!(m.validate(&dfg, &cgra).is_empty());
    }

    #[test]
    fn bad_placement_incurs_conflict_penalty() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        // pe3 is diagonal from pe0: at II=1 with a 1-cycle deadline the
        // route must fail.
        let o = env.step(PeId(3));
        assert_eq!(o.failed_routes, 1);
        assert!(o.reward <= -CONFLICT_PENALTY);
        assert!(!env.success());
        assert!(env.final_mapping().is_none());
    }

    #[test]
    fn mask_blocks_occupied_pe() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        // II=1: every node shares the single modulo slice.
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        assert!(!env.action_mask()[0]);
        assert_eq!(env.legal_actions().len(), 3);
    }

    #[test]
    fn undo_restores_everything() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        let before_mask = env.action_mask();
        let before_reward = env.total_reward();
        env.step(PeId(3)); // fails to route
        assert_eq!(env.failed_route_count(), 1);
        let undone = env.undo().unwrap();
        assert_eq!(env.failed_route_count(), 0);
        assert_eq!(env.action_mask(), before_mask);
        assert!((env.total_reward() - before_reward).abs() < 1e-9);
        // Re-place correctly.
        env.step(PeId(1));
        env.step(PeId(3));
        assert!(env.success());
        let _ = undone;
    }

    #[test]
    fn undo_at_start_returns_none() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        assert!(env.undo().is_none());
    }

    #[test]
    fn adres_mask_enforces_row_bus() {
        let mut b = DfgBuilder::new("loads");
        let l0 = b.node(Opcode::Load);
        let l1 = b.node(Opcode::Load);
        let a = b.node(Opcode::Add);
        b.edge(l0, a).unwrap();
        b.edge(l1, a).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::adres();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0)); // load on row 0
        // Every other row-0 PE is now masked for the second load.
        let mask = env.action_mask();
        for col in 1..8 {
            assert!(!mask[cgra.at(0, col).index()], "col {col} should be masked");
        }
        assert!(mask[cgra.at(1, 0).index()]);
    }

    #[test]
    fn current_slice_occupancy_tracks_fu() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(2));
        let occ = env.current_slice_occupancy();
        assert_eq!(occ[2], Some(0));
    }

    #[test]
    #[should_panic(expected = "action pe1 is masked for node n1")]
    fn stepping_onto_a_busy_row_bus_panics_with_the_mask_message() {
        // ADRES: the second load's row-0 bus slot is taken by the first,
        // though pe1's FU is free.
        let mut b = DfgBuilder::new("loads");
        let l0 = b.node(Opcode::Load);
        let l1 = b.node(Opcode::Load);
        let a = b.node(Opcode::Add);
        b.edge(l0, a).unwrap();
        b.edge(l1, a).unwrap();
        let dfg = b.finish().unwrap();
        let cgra = presets::adres();
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(cgra.at(0, 0));
        assert_eq!(cgra.at(0, 1), PeId(1));
        env.step(PeId(1));
    }

    #[test]
    #[should_panic(expected = "is masked")]
    fn stepping_masked_action_panics() {
        let dfg = chain3();
        let cgra = presets::simple_mesh(2, 2);
        let problem = Problem::new(&dfg, &cgra, 1).unwrap();
        let mut env = MapEnv::new(&problem);
        env.step(PeId(0));
        env.step(PeId(0));
    }
}
