//! A fully-specified mapping problem instance at a fixed II.

use crate::candidates::CandidateMap;
use crate::checkpoint::Fnv64;
use crate::mapping::MapError;
use mapzero_arch::Cgra;
use mapzero_dfg::{mii, modulo_schedule_at, Dfg, NodeId, Schedule, ScheduleError};

/// A (DFG, CGRA, II) triple with the modulo schedule and the placement
/// order fixed.
///
/// All mappers operate on `Problem`s: the compiler builds one per II in
/// its outer search loop (§4.2: "start with MII and gradually increase
/// the target II if mapping fails").
#[derive(Debug, Clone)]
pub struct Problem<'a> {
    dfg: &'a Dfg,
    cgra: &'a Cgra,
    schedule: Schedule,
    /// Placement order: ascending time slice, topological rank breaking
    /// ties (the paper's "scheduling order obtained by topological
    /// sorting"). With candidate pruning the primary key becomes
    /// candidate scarcity (fail-first).
    order: Vec<NodeId>,
    /// Precomputed per-node candidate sets (None on the unpruned path).
    candidates: Option<CandidateMap>,
    /// Content hash of everything an observation of this problem
    /// depends on besides the placements; see [`Problem::fingerprint`].
    fingerprint: u64,
}

impl<'a> Problem<'a> {
    /// Build the problem for a specific II.
    ///
    /// # Errors
    /// [`MapError::Unmappable`] when a required op class has no capable
    /// PE; [`MapError::NoSchedule`] when modulo scheduling fails at `ii`.
    pub fn new(dfg: &'a Dfg, cgra: &'a Cgra, ii: u32) -> Result<Self, MapError> {
        let res = cgra.resource_model();
        let schedule = modulo_schedule_at(dfg, &res, ii).map_err(|e| match e {
            ScheduleError::UnsupportedClass(c) => MapError::Unmappable(format!(
                "{} needs {c} ops but {} has no capable PE",
                dfg.name(),
                cgra.name()
            )),
            ScheduleError::Infeasible { ii } => {
                MapError::NoSchedule(format!("II = {ii} infeasible for {}", dfg.name()))
            }
        })?;
        let rank = dfg.topological_rank();
        let mut order: Vec<NodeId> = dfg.node_ids().collect();
        order.sort_by_key(|u| (schedule.time(*u), rank[u.index()]));
        let fingerprint = content_fingerprint(dfg, cgra, &schedule);
        Ok(Problem { dfg, cgra, schedule, order, candidates: None, fingerprint })
    }

    /// Attach precomputed candidate sets (the space/time-decoupled
    /// pruning of the monomorphism mappers) and re-sort the placement
    /// order fail-first: scarcest candidate set first, then schedule
    /// time, topological rank and node id — a fully deterministic key,
    /// so identical runs stay bit-reproducible across platforms.
    ///
    /// Environments built from the returned problem prune their action
    /// masks to the live candidate sets and detect doomed states; see
    /// [`crate::env::MapEnv::search_mask`].
    #[must_use]
    pub fn with_candidate_pruning(mut self) -> Self {
        let map = CandidateMap::build(self.dfg, self.cgra, &self.schedule);
        let rank = self.dfg.topological_rank();
        let schedule = &self.schedule;
        self.order.sort_by_key(|u| {
            (map.candidate_count(*u), schedule.time(*u), rank[u.index()], u.0)
        });
        self.candidates = Some(map);
        // Pruned and unpruned runs observe different masks and orders
        // for the same placements, so they must never share a key.
        let mut h = Fnv64::new();
        h.write_u64(self.fingerprint);
        h.write_u64(1);
        self.fingerprint = h.finish();
        self
    }

    /// A content fingerprint of the problem: the DFG's opcodes and
    /// edges (with iteration distances), the fabric's PE capabilities,
    /// positions and links, the II and the schedule's time slots, and
    /// whether candidate pruning is on. Names and addresses are not
    /// hashed, so equal content built twice gets the same fingerprint.
    ///
    /// Together with the placement vector this determines the
    /// observation the network sees, which is what lets prediction
    /// caches share entries across requests without mixing problems.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The precomputed candidate sets, when pruning is enabled.
    #[must_use]
    pub fn candidates(&self) -> Option<&CandidateMap> {
        self.candidates.as_ref()
    }

    /// The minimum II bound for this (DFG, CGRA) pair.
    ///
    /// # Errors
    /// [`MapError::Unmappable`] when a required class is unsupported.
    pub fn mii(dfg: &Dfg, cgra: &Cgra) -> Result<u32, MapError> {
        mii::mii(dfg, &cgra.resource_model()).ok_or_else(|| {
            MapError::Unmappable(format!(
                "{} cannot execute on {}",
                dfg.name(),
                cgra.name()
            ))
        })
    }

    /// The data flow graph.
    #[must_use]
    pub fn dfg(&self) -> &'a Dfg {
        self.dfg
    }

    /// The fabric.
    #[must_use]
    pub fn cgra(&self) -> &'a Cgra {
        self.cgra
    }

    /// The modulo schedule.
    #[must_use]
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The target II.
    #[must_use]
    pub fn ii(&self) -> u32 {
        self.schedule.ii()
    }

    /// Placement order of the DFG nodes.
    #[must_use]
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.dfg.node_count()
    }
}

/// Hash the problem content an observation depends on (see
/// [`Problem::fingerprint`]).
fn content_fingerprint(dfg: &Dfg, cgra: &Cgra, schedule: &Schedule) -> u64 {
    let mut h = Fnv64::new();
    h.write_usize(dfg.node_count());
    for u in dfg.node_ids() {
        let node = dfg.node(u);
        h.write_usize(node.opcode.code());
        h.write_usize(usize::from(node.has_self_cycle));
        h.write_u64(u64::from(schedule.time(u)));
    }
    h.write_usize(dfg.edge_count());
    for e in dfg.edges() {
        h.write_usize(e.src.index());
        h.write_usize(e.dst.index());
        h.write_u64(u64::from(e.dist));
    }
    h.write_u64(u64::from(schedule.ii()));
    h.write_usize(cgra.rows());
    h.write_usize(cgra.cols());
    h.write_usize(cgra.style() as usize);
    h.write_usize(usize::from(cgra.row_shared_mem_bus()));
    for p in cgra.pe_ids() {
        let pe = cgra.pe(p);
        h.write_usize(pe.row);
        h.write_usize(pe.col);
        h.write_usize(usize::from(pe.capability.logical));
        h.write_usize(usize::from(pe.capability.arithmetic));
        h.write_usize(usize::from(pe.capability.memory));
        let links = cgra.links_from(p);
        h.write_usize(links.len());
        for q in links {
            h.write_usize(q.index());
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mapzero_arch::presets;
    use mapzero_dfg::suite;

    #[test]
    fn order_respects_time_then_rank() {
        let dfg = suite::by_name("conv2").unwrap();
        let cgra = presets::hrea();
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        let p = Problem::new(&dfg, &cgra, mii).unwrap();
        let times: Vec<u32> = p.order().iter().map(|&u| p.schedule().time(u)).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(p.order().len(), dfg.node_count());
    }

    #[test]
    fn fingerprint_hashes_content_not_names() {
        let dfg = suite::by_name("mac").unwrap();
        let cgra = presets::hrea();
        let base = Problem::new(&dfg, &cgra, 1).unwrap();
        // Rebuilt under other names: same content, same fingerprint.
        let mut renamed = mapzero_dfg::DfgBuilder::new("renamed");
        for u in dfg.node_ids() {
            renamed.node(dfg.node(u).opcode);
        }
        for e in dfg.edges() {
            if e.dist == 0 {
                renamed.edge(e.src, e.dst).unwrap();
            } else {
                renamed.back_edge(e.src, e.dst, e.dist).unwrap();
            }
        }
        let renamed = renamed.finish().unwrap();
        let mut fabric = mapzero_arch::CgraBuilder::new("renamed", 4, 4);
        for p in cgra.pe_ids() {
            let pe = cgra.pe(p);
            fabric = fabric.capability(pe.row, pe.col, pe.capability);
        }
        for p in cgra.pe_ids() {
            for &q in cgra.links_from(p) {
                fabric = fabric.link(p, q);
            }
        }
        let fabric = fabric.finish();
        let twin = Problem::new(&renamed, &fabric, 1).unwrap();
        assert_eq!(base.fingerprint(), twin.fingerprint());
        // II, pruning and fabric each change it.
        let wider = Problem::new(&dfg, &cgra, 2).unwrap();
        assert_ne!(base.fingerprint(), wider.fingerprint());
        let pruned = base.clone().with_candidate_pruning();
        assert_ne!(base.fingerprint(), pruned.fingerprint());
        let (morphosys, adres) = (presets::morphosys(), presets::adres());
        assert_ne!(
            Problem::new(&dfg, &morphosys, 1).unwrap().fingerprint(),
            Problem::new(&dfg, &adres, 1).unwrap().fingerprint()
        );
    }

    #[test]
    fn mii_of_big_kernel_on_small_fabric() {
        let dfg = suite::by_name("arf").unwrap(); // 54 nodes
        let cgra = presets::hrea(); // 16 PEs
        let mii = Problem::mii(&dfg, &cgra).unwrap();
        assert_eq!(mii, 4); // ceil(54/16)
    }

    #[test]
    fn unmappable_reported() {
        let dfg = suite::by_name("sum").unwrap();
        let cgra = mapzero_arch::CgraBuilder::new("no-mem", 2, 2)
            .all_capabilities(mapzero_arch::Capability::COMPUTE)
            .finish();
        assert!(matches!(Problem::mii(&dfg, &cgra), Err(MapError::Unmappable(_))));
        assert!(matches!(Problem::new(&dfg, &cgra, 4), Err(MapError::Unmappable(_))));
    }

    #[test]
    fn infeasible_ii_reported() {
        let dfg = suite::by_name("arf").unwrap();
        let cgra = presets::hrea();
        // II = 1 cannot fit 54 nodes on 16 PEs.
        assert!(matches!(Problem::new(&dfg, &cgra, 1), Err(MapError::NoSchedule(_))));
    }
}
