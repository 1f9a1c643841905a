//! The fabric description: a grid of PEs plus directed links.

use crate::{Capability, HopTable, Interconnect};
use mapzero_dfg::{OpClass, Opcode};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Identifier of a PE within a [`Cgra`], in row-major order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PeId(pub u32);

impl PeId {
    /// Index into the PE vector.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pe{}", self.0)
    }
}

/// A processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Pe {
    /// Grid row.
    pub row: usize,
    /// Grid column.
    pub col: usize,
    /// Functional capabilities.
    pub capability: Capability,
}

/// How values travel between PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingStyle {
    /// Registered neighbour-to-neighbour routing: one link per cycle,
    /// values park in PE output registers between hops. Placement and
    /// routing are *coupled* (§3.3).
    NeighborRegister,
    /// HyCube-style circuit-switched mesh: crossbar switches with
    /// clockless repeaters let a value traverse several links within one
    /// cycle. Placement and routing are *decoupled*; Dijkstra routes
    /// after each placement (§3.3).
    CircuitSwitched,
}

impl RoutingStyle {
    /// True for the circuit-switched (HyCube) style.
    #[must_use]
    pub fn is_circuit_switched(self) -> bool {
        matches!(self, RoutingStyle::CircuitSwitched)
    }
}

/// A complete CGRA fabric description.
///
/// Construct via [`CgraBuilder`] or one of the [`crate::presets`].
/// Immutable once built, so its derived [`HopTable`] is computed at most
/// once and shared by every clone.
#[derive(Clone, Serialize, Deserialize)]
pub struct Cgra {
    name: String,
    rows: usize,
    cols: usize,
    pes: Vec<Pe>,
    /// Directed adjacency: `links[p]` lists the PEs reachable from `p`
    /// over one physical link.
    links: Vec<Vec<PeId>>,
    /// Reverse adjacency.
    rlinks: Vec<Vec<PeId>>,
    interconnects: Vec<Interconnect>,
    style: RoutingStyle,
    /// ADRES-style constraint: all PEs of a row share one memory bus, so
    /// at most one memory operation may execute per row per time slice.
    row_shared_mem_bus: bool,
    /// The hop table, set on first use. The cell itself sits behind an
    /// `Arc`, so clones made before first use share the table too.
    /// Derived data: equality, `Debug` and the codecs ignore it.
    hops: Arc<OnceLock<Arc<HopTable>>>,
}

impl PartialEq for Cgra {
    fn eq(&self, other: &Self) -> bool {
        let Cgra {
            name,
            rows,
            cols,
            pes,
            links,
            rlinks,
            interconnects,
            style,
            row_shared_mem_bus,
            hops: _,
        } = self;
        *name == other.name
            && *rows == other.rows
            && *cols == other.cols
            && *pes == other.pes
            && *links == other.links
            && *rlinks == other.rlinks
            && *interconnects == other.interconnects
            && *style == other.style
            && *row_shared_mem_bus == other.row_shared_mem_bus
    }
}

impl fmt::Debug for Cgra {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Cgra {
            name,
            rows,
            cols,
            pes,
            links,
            rlinks,
            interconnects,
            style,
            row_shared_mem_bus,
            hops: _,
        } = self;
        f.debug_struct("Cgra")
            .field("name", name)
            .field("rows", rows)
            .field("cols", cols)
            .field("pes", pes)
            .field("links", links)
            .field("rlinks", rlinks)
            .field("interconnects", interconnects)
            .field("style", style)
            .field("row_shared_mem_bus", row_shared_mem_bus)
            .finish()
    }
}

impl Cgra {
    /// Fabric name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Grid rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of PEs.
    #[must_use]
    pub fn pe_count(&self) -> usize {
        self.pes.len()
    }

    /// Access a PE.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn pe(&self, id: PeId) -> &Pe {
        &self.pes[id.index()]
    }

    /// Iterate over all PE ids in row-major order.
    pub fn pe_ids(&self) -> impl Iterator<Item = PeId> + '_ {
        (0..self.pes.len() as u32).map(PeId)
    }

    /// The PE at a grid coordinate.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the grid.
    #[must_use]
    pub fn at(&self, row: usize, col: usize) -> PeId {
        assert!(row < self.rows && col < self.cols, "coordinate outside grid");
        PeId((row * self.cols + col) as u32)
    }

    /// Outgoing physical links of `p`.
    #[must_use]
    pub fn links_from(&self, p: PeId) -> &[PeId] {
        &self.links[p.index()]
    }

    /// Incoming physical links of `p`.
    #[must_use]
    pub fn links_to(&self, p: PeId) -> &[PeId] {
        &self.rlinks[p.index()]
    }

    /// Out-degree of `p` (feature (3) of §3.2.2).
    #[must_use]
    pub fn out_degree(&self, p: PeId) -> usize {
        self.links[p.index()].len()
    }

    /// In-degree of `p` (feature (2) of §3.2.2).
    #[must_use]
    pub fn in_degree(&self, p: PeId) -> usize {
        self.rlinks[p.index()].len()
    }

    /// Interconnect styles composing this fabric.
    #[must_use]
    pub fn interconnects(&self) -> &[Interconnect] {
        &self.interconnects
    }

    /// Routing style.
    #[must_use]
    pub fn style(&self) -> RoutingStyle {
        self.style
    }

    /// Whether rows share a single memory bus (ADRES).
    #[must_use]
    pub fn row_shared_mem_bus(&self) -> bool {
        self.row_shared_mem_bus
    }

    /// PEs able to execute `op`.
    pub fn capable_pes(&self, op: Opcode) -> impl Iterator<Item = PeId> + '_ {
        self.pe_ids().filter(move |&p| self.pe(p).capability.supports(op))
    }

    /// Number of PEs supporting each functional class, indexed by
    /// [`OpClass::index`]; used for ResMII.
    #[must_use]
    pub fn class_capacity(&self) -> [usize; 3] {
        let mut out = [0usize; 3];
        for pe in &self.pes {
            for class in OpClass::ALL {
                if pe.capability.supports_class(class) {
                    out[class.index()] += 1;
                }
            }
        }
        out
    }

    /// The [`mapzero_dfg::ResourceModel`] seen by the modulo scheduler.
    ///
    /// On row-shared-memory-bus fabrics (ADRES) the per-slice memory
    /// capacity is additionally bounded by the number of rows: one
    /// memory operation per row bus per cycle.
    #[must_use]
    pub fn resource_model(&self) -> mapzero_dfg::ResourceModel {
        let mut per_class = self.class_capacity();
        if self.row_shared_mem_bus {
            let mem = mapzero_dfg::OpClass::Memory.index();
            per_class[mem] = per_class[mem].min(self.rows);
        }
        mapzero_dfg::ResourceModel { total: self.pe_count(), per_class }
    }

    /// True if every PE has the same capability (homogeneous fabric).
    #[must_use]
    pub fn is_homogeneous(&self) -> bool {
        self.pes.windows(2).all(|w| w[0].capability == w[1].capability)
    }

    /// Total number of directed links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.iter().map(Vec::len).sum()
    }

    /// The fabric's hop-bounded reach tables, built on the first call
    /// and shared by every clone of this fabric. The first build is
    /// charged to the `fabric.hop_table.build` span and counter.
    #[must_use]
    pub fn hop_table(&self) -> &Arc<HopTable> {
        self.hops.get_or_init(|| {
            let _span = mapzero_obs::span!("fabric.hop_table.build");
            mapzero_obs::counter!("fabric.hop_table.build");
            Arc::new(HopTable::build(self))
        })
    }
}

/// Builder for [`Cgra`].
#[derive(Debug, Clone)]
pub struct CgraBuilder {
    name: String,
    rows: usize,
    cols: usize,
    capabilities: Vec<Capability>,
    interconnects: Vec<Interconnect>,
    extra_links: Vec<(PeId, PeId)>,
    style: RoutingStyle,
    row_shared_mem_bus: bool,
}

impl CgraBuilder {
    /// Start a fabric of `rows x cols` general-purpose PEs with
    /// registered neighbour routing and no interconnects.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(name: impl Into<String>, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must be non-empty");
        CgraBuilder {
            name: name.into(),
            rows,
            cols,
            capabilities: vec![Capability::ALL; rows * cols],
            interconnects: Vec::new(),
            extra_links: Vec::new(),
            style: RoutingStyle::NeighborRegister,
            row_shared_mem_bus: false,
        }
    }

    /// Add an interconnect style (duplicates are ignored).
    #[must_use]
    pub fn interconnect(mut self, style: Interconnect) -> Self {
        if !self.interconnects.contains(&style) {
            self.interconnects.push(style);
        }
        if style == Interconnect::Crossbar {
            self.style = RoutingStyle::CircuitSwitched;
        }
        self
    }

    /// Set the routing style explicitly.
    #[must_use]
    pub fn routing_style(mut self, style: RoutingStyle) -> Self {
        self.style = style;
        self
    }

    /// Enable the ADRES row-shared memory bus constraint.
    #[must_use]
    pub fn row_shared_mem_bus(mut self) -> Self {
        self.row_shared_mem_bus = true;
        self
    }

    /// Set the capability of the PE at `(row, col)`.
    ///
    /// # Panics
    /// Panics if the coordinate is outside the grid.
    #[must_use]
    pub fn capability(mut self, row: usize, col: usize, cap: Capability) -> Self {
        assert!(row < self.rows && col < self.cols, "coordinate outside grid");
        self.capabilities[row * self.cols + col] = cap;
        self
    }

    /// Set every PE's capability.
    #[must_use]
    pub fn all_capabilities(mut self, cap: Capability) -> Self {
        self.capabilities.fill(cap);
        self
    }

    /// Add a custom directed link.
    #[must_use]
    pub fn link(mut self, from: PeId, to: PeId) -> Self {
        self.extra_links.push((from, to));
        self
    }

    /// Freeze the fabric.
    #[must_use]
    pub fn finish(self) -> Cgra {
        let n = self.rows * self.cols;
        let mut link_sets: Vec<BTreeSet<PeId>> = vec![BTreeSet::new(); n];
        for style in &self.interconnects {
            for r in 0..self.rows {
                for c in 0..self.cols {
                    let from = r * self.cols + c;
                    for (nr, nc) in style.neighbors(self.rows, self.cols, r, c) {
                        let to = nr * self.cols + nc;
                        if to != from {
                            link_sets[from].insert(PeId(to as u32));
                        }
                    }
                }
            }
        }
        for (from, to) in &self.extra_links {
            assert!(from.index() < n && to.index() < n, "link endpoint outside grid");
            if from != to {
                link_sets[from.index()].insert(*to);
            }
        }
        let links: Vec<Vec<PeId>> =
            link_sets.into_iter().map(|s| s.into_iter().collect()).collect();
        let mut rlinks: Vec<Vec<PeId>> = vec![Vec::new(); n];
        for (from, outs) in links.iter().enumerate() {
            for &to in outs {
                rlinks[to.index()].push(PeId(from as u32));
            }
        }
        let pes = (0..n)
            .map(|i| Pe {
                row: i / self.cols,
                col: i % self.cols,
                capability: self.capabilities[i],
            })
            .collect();
        Cgra {
            name: self.name,
            rows: self.rows,
            cols: self.cols,
            pes,
            links,
            rlinks,
            interconnects: self.interconnects,
            style: self.style,
            row_shared_mem_bus: self.row_shared_mem_bus,
            hops: Arc::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh4() -> Cgra {
        CgraBuilder::new("m4", 4, 4).interconnect(Interconnect::Mesh).finish()
    }

    #[test]
    fn row_major_ids() {
        let g = mesh4();
        assert_eq!(g.at(0, 0), PeId(0));
        assert_eq!(g.at(1, 0), PeId(4));
        assert_eq!(g.at(3, 3), PeId(15));
        assert_eq!(g.pe(PeId(5)).row, 1);
        assert_eq!(g.pe(PeId(5)).col, 1);
    }

    #[test]
    fn mesh_link_counts() {
        let g = mesh4();
        // 4x4 mesh: 2*2*(4*3) = 48 directed links.
        assert_eq!(g.link_count(), 48);
        assert_eq!(g.out_degree(g.at(0, 0)), 2);
        assert_eq!(g.out_degree(g.at(1, 1)), 4);
        assert_eq!(g.in_degree(g.at(1, 1)), 4);
    }

    #[test]
    fn links_are_symmetric_for_mesh() {
        let g = mesh4();
        for p in g.pe_ids() {
            for &q in g.links_from(p) {
                assert!(g.links_from(q).contains(&p));
            }
        }
    }

    #[test]
    fn combined_interconnects_union_links() {
        let g = CgraBuilder::new("combo", 4, 4)
            .interconnect(Interconnect::Mesh)
            .interconnect(Interconnect::Diagonal)
            .finish();
        assert_eq!(g.out_degree(g.at(1, 1)), 8);
    }

    #[test]
    fn crossbar_sets_circuit_switched() {
        let g = CgraBuilder::new("hy", 4, 4).interconnect(Interconnect::Crossbar).finish();
        assert!(g.style().is_circuit_switched());
    }

    #[test]
    fn heterogeneous_capabilities_tracked() {
        let g = CgraBuilder::new("het", 2, 2)
            .all_capabilities(Capability::COMPUTE)
            .capability(0, 0, Capability::ALL)
            .finish();
        assert!(!g.is_homogeneous());
        let cap = g.class_capacity();
        assert_eq!(cap[mapzero_dfg::OpClass::Memory.index()], 1);
        assert_eq!(cap[mapzero_dfg::OpClass::Arithmetic.index()], 4);
        assert_eq!(g.capable_pes(Opcode::Load).count(), 1);
    }

    #[test]
    fn extra_links_deduplicated_and_directed() {
        let g = CgraBuilder::new("x", 2, 2)
            .link(PeId(0), PeId(3))
            .link(PeId(0), PeId(3))
            .finish();
        assert_eq!(g.link_count(), 1);
        assert_eq!(g.links_from(PeId(0)), &[PeId(3)]);
        assert!(g.links_from(PeId(3)).is_empty());
    }

    #[test]
    fn resource_model_matches_capacities() {
        let g = mesh4();
        let rm = g.resource_model();
        assert_eq!(rm.total, 16);
        assert_eq!(rm.per_class, [16, 16, 16]);
    }

    #[test]
    #[should_panic(expected = "coordinate outside grid")]
    fn at_panics_outside() {
        let _ = mesh4().at(4, 0);
    }
}
