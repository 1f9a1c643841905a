//! Fabric connectivity analyses: shortest-path metrics, diameter, and
//! routing-capacity summaries used by the DSE area/performance models
//! and the architecture reports.

use crate::{Cgra, PeId};
use std::collections::VecDeque;

/// All-pairs shortest hop distances (BFS per source). `None` entries
/// mean unreachable. The builder of [`Cgra::hop_table`], through which
/// every other analysis reads distances; kept public as its test oracle.
#[must_use]
pub fn shortest_paths(cgra: &Cgra) -> Vec<Vec<Option<u32>>> {
    let n = cgra.pe_count();
    let mut out = Vec::with_capacity(n);
    for src in cgra.pe_ids() {
        let mut dist = vec![None; n];
        dist[src.index()] = Some(0);
        let mut queue = VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("visited");
            for &v in cgra.links_from(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        out.push(dist);
    }
    out
}

/// Connectivity metrics of one fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricMetrics {
    /// Longest shortest path between reachable pairs.
    pub diameter: u32,
    /// Mean shortest path over reachable ordered pairs.
    pub avg_distance: f64,
    /// True if every PE reaches every other PE.
    pub strongly_connected: bool,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Directed link count.
    pub links: usize,
}

/// Compute [`FabricMetrics`] from the fabric's cached [`HopTable`]
/// (`crate::HopTable`): the diameter is `max_bound − 1`, and a pair at
/// distance `d` lies outside the bound-`b` reach of every `b < d`, so
/// the distance sum is `Σ_{b < max_bound} (pairs(max_bound) − pairs(b))`.
#[must_use]
pub fn metrics(cgra: &Cgra) -> FabricMetrics {
    let table = cgra.hop_table();
    let n = cgra.pe_count() as u64;
    let reachable = table.pairs_within(table.max_bound());
    let total: u64 = (0..table.max_bound()).map(|b| reachable - table.pairs_within(b)).sum();
    let pairs = reachable - n;
    FabricMetrics {
        diameter: table.diameter(),
        avg_distance: if pairs == 0 { 0.0 } else { total as f64 / pairs as f64 },
        strongly_connected: table.strongly_connected(),
        avg_degree: cgra.link_count() as f64 / n.max(1) as f64,
        links: cgra.link_count(),
    }
}

/// The PEs reachable from `src` within `hops` links (excluding `src`);
/// the paper's motivational example reasons about exactly this
/// ("routing capability" of the shaded PEs). One row of the fabric's
/// cached [`HopTable`](crate::HopTable).
#[must_use]
pub fn reachable_within(cgra: &Cgra, src: PeId, hops: u32) -> Vec<PeId> {
    let table = cgra.hop_table();
    let row = table.fwd(hops.min(table.max_bound()), src);
    cgra.pe_ids()
        .filter(|&p| p != src && row[p.index() / 64] & (1u64 << (p.index() % 64)) != 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, CgraBuilder, Interconnect};

    #[test]
    fn mesh_diameter_is_manhattan() {
        let m = metrics(&presets::simple_mesh(4, 4));
        assert_eq!(m.diameter, 6); // (0,0) -> (3,3)
        assert!(m.strongly_connected);
        assert_eq!(m.links, 48);
    }

    #[test]
    fn toroidal_wrap_shrinks_diameter() {
        let torus = CgraBuilder::new("t", 4, 4)
            .interconnect(Interconnect::Mesh)
            .interconnect(Interconnect::Toroidal)
            .finish();
        let m = metrics(&torus);
        assert_eq!(m.diameter, 4); // 2 + 2 with wrap
        assert!(m.avg_distance < metrics(&presets::simple_mesh(4, 4)).avg_distance);
    }

    #[test]
    fn one_hop_links_shrink_distances() {
        let plain = metrics(&presets::simple_mesh(4, 4));
        let hop = metrics(
            &CgraBuilder::new("h", 4, 4)
                .interconnect(Interconnect::Mesh)
                .interconnect(Interconnect::OneHop)
                .finish(),
        );
        assert!(hop.diameter < plain.diameter);
        assert!(hop.avg_degree > plain.avg_degree);
    }

    #[test]
    fn disconnected_fabric_detected() {
        // Extra-links-only builder with a single link: not connected.
        let g = CgraBuilder::new("d", 2, 2).link(PeId(0), PeId(1)).finish();
        let m = metrics(&g);
        assert!(!m.strongly_connected);
    }

    #[test]
    fn reachability_matches_motivational_example() {
        let g = presets::motivational2x3();
        // Shaded pe1 reaches more PEs in one hop than plain pe5.
        let strong = reachable_within(&g, PeId(1), 1).len();
        let weak = reachable_within(&g, PeId(5), 1).len();
        assert!(strong > weak, "{strong} vs {weak}");
        // Everything reaches everything within the fabric diameter.
        let m = metrics(&g);
        assert_eq!(
            reachable_within(&g, PeId(0), m.diameter).len(),
            g.pe_count() - 1
        );
    }

    /// The table-served metrics and reach rows equal what the all-pairs
    /// BFS gives directly, on connected and disconnected fabrics.
    #[test]
    fn table_served_analyses_match_the_bfs_oracle() {
        let fabrics = [
            presets::hrea(),
            presets::adres(),
            presets::hycube(),
            presets::baseline16(),
            presets::motivational2x3(),
            CgraBuilder::new("d", 2, 2).link(PeId(0), PeId(1)).finish(),
            CgraBuilder::new("lone", 1, 1).finish(),
            CgraBuilder::new("split", 3, 3)
                .interconnect(Interconnect::Mesh)
                .link(PeId(0), PeId(8))
                .finish(),
            CgraBuilder::new("oneway", 2, 5)
                .link(PeId(0), PeId(1))
                .link(PeId(1), PeId(2))
                .link(PeId(2), PeId(7))
                .finish(),
        ];
        for g in &fabrics {
            let paths = shortest_paths(g);
            let finite = || {
                paths.iter().enumerate().flat_map(|(i, row)| {
                    row.iter().enumerate().filter(move |&(j, _)| j != i).map(|(_, d)| *d)
                })
            };
            let dists: Vec<u32> = finite().flatten().collect();
            let total: u64 = dists.iter().map(|&d| u64::from(d)).sum();
            let m = metrics(g);
            assert_eq!(m.diameter, dists.iter().copied().max().unwrap_or(0), "{}", g.name());
            assert_eq!(m.strongly_connected, finite().all(|d| d.is_some()), "{}", g.name());
            let avg = if dists.is_empty() { 0.0 } else { total as f64 / dists.len() as f64 };
            assert_eq!(m.avg_distance.to_bits(), avg.to_bits(), "{}", g.name());
            for src in g.pe_ids() {
                for hops in 0..m.diameter + 3 {
                    let oracle: Vec<PeId> = g
                        .pe_ids()
                        .filter(|&p| {
                            p != src && paths[src.index()][p.index()].is_some_and(|d| d <= hops)
                        })
                        .collect();
                    assert_eq!(reachable_within(g, src, hops), oracle, "{} {src} {hops}", g.name());
                }
            }
        }
    }
}
