//! Hop-bounded reachability tables of one fabric.
//!
//! The candidate pruning of §3.4 asks, for every DFG edge, which PEs lie
//! within the edge's hop bound of a placement. Those tables depend on
//! the fabric alone, so a [`Cgra`] builds its [`HopTable`] once, on
//! first use ([`Cgra::hop_table`]), and every clone of the fabric shares
//! it.

use crate::{analysis, Cgra, PeId};

/// Forward and reverse reach bitsets for every hop bound, plus the
/// row-bus row bitsets, of one fabric.
///
/// Bitsets are PE-indexed rows of `⌈pe_count / 64⌉` `u64` words. The reach
/// tables are stored flat, `[bound][pe][word]`, one `Vec` per
/// direction; bounds run `0..=max_bound()`, where `max_bound()` is the
/// diameter + 1 and means "any reachable PE".
#[derive(Debug, PartialEq, Eq)]
pub struct HopTable {
    pe_count: usize,
    words: usize,
    max_bound: u32,
    /// Bit `q` of row `(b, p)` set iff `hops(p→q) ≤ b`.
    fwd: Vec<u64>,
    /// Bit `q` of row `(b, p)` set iff `hops(q→p) ≤ b`.
    rev: Vec<u64>,
    /// Grid row of each PE.
    row_of: Vec<u32>,
    /// Bit `p` of row `r` set iff PE `p` sits in grid row `r`.
    row_sets: Vec<u64>,
}

impl HopTable {
    /// Build the tables from the all-pairs BFS of
    /// [`analysis::shortest_paths`]. Every finite distance is at most
    /// the diameter, so each pair's bit is set at its distance and then
    /// carried up to every larger bound.
    #[must_use]
    pub(crate) fn build(cgra: &Cgra) -> Self {
        let n = cgra.pe_count();
        let words = n.div_ceil(64);
        let dist = analysis::shortest_paths(cgra);
        let diameter = dist.iter().flatten().filter_map(|d| *d).max().unwrap_or(0);
        let max_bound = diameter + 1;
        let plane = n * words;
        let mut fwd = vec![0u64; (max_bound as usize + 1) * plane];
        let mut rev = vec![0u64; (max_bound as usize + 1) * plane];
        for (p, row) in dist.iter().enumerate() {
            for (q, d) in row.iter().enumerate() {
                let Some(d) = *d else { continue };
                let at = d as usize * plane;
                fwd[at + p * words + q / 64] |= 1u64 << (q % 64);
                rev[at + q * words + p / 64] |= 1u64 << (p % 64);
            }
        }
        for table in [&mut fwd, &mut rev] {
            for i in plane..table.len() {
                table[i] |= table[i - plane];
            }
        }
        let row_of: Vec<u32> = cgra.pe_ids().map(|p| cgra.pe(p).row as u32).collect();
        let mut row_sets = vec![0u64; cgra.rows() * words];
        for (p, &r) in row_of.iter().enumerate() {
            row_sets[r as usize * words + p / 64] |= 1u64 << (p % 64);
        }
        HopTable { pe_count: n, words, max_bound, fwd, rev, row_of, row_sets }
    }

    /// The largest hop bound: the diameter + 1 ("any reachable PE").
    #[must_use]
    pub fn max_bound(&self) -> u32 {
        self.max_bound
    }

    /// Longest shortest path between reachable pairs.
    #[must_use]
    pub fn diameter(&self) -> u32 {
        self.max_bound - 1
    }

    fn row<'t>(&self, table: &'t [u64], bound: u32, p: PeId) -> &'t [u64] {
        assert!(bound <= self.max_bound, "hop bound {bound} above {}", self.max_bound);
        let at = (bound as usize * self.pe_count + p.index()) * self.words;
        &table[at..at + self.words]
    }

    /// PEs reachable from `p` within `bound` links (`p` itself
    /// included), as a bitset.
    ///
    /// # Panics
    /// Panics if `bound > max_bound()` or `p` is out of range.
    #[must_use]
    pub fn fwd(&self, bound: u32, p: PeId) -> &[u64] {
        self.row(&self.fwd, bound, p)
    }

    /// PEs that reach `p` within `bound` links (`p` itself included),
    /// as a bitset.
    ///
    /// # Panics
    /// Panics if `bound > max_bound()` or `p` is out of range.
    #[must_use]
    pub fn rev(&self, bound: u32, p: PeId) -> &[u64] {
        self.row(&self.rev, bound, p)
    }

    /// Grid row of `p`.
    #[must_use]
    pub fn row_of(&self, p: PeId) -> u32 {
        self.row_of[p.index()]
    }

    /// The PEs of grid row `row`, as a bitset (the PEs sharing one
    /// memory bus on row-bus fabrics).
    #[must_use]
    pub fn row_set(&self, row: u32) -> &[u64] {
        let at = row as usize * self.words;
        &self.row_sets[at..at + self.words]
    }

    /// Number of ordered pairs `(p, q)`, `p == q` included, with
    /// `hops(p→q) ≤ bound`.
    #[must_use]
    pub fn pairs_within(&self, bound: u32) -> u64 {
        let plane = self.pe_count * self.words;
        let at = bound as usize * plane;
        self.fwd[at..at + plane].iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// True if every PE reaches every other PE: every row of
    /// `fwd(max_bound)` is full.
    #[must_use]
    pub fn strongly_connected(&self) -> bool {
        self.pairs_within(self.max_bound) == (self.pe_count * self.pe_count) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, CgraBuilder, Interconnect, RoutingStyle};
    use std::sync::Arc;

    fn test_bit(words: &[u64], i: usize) -> bool {
        words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Every bit of both tables against the BFS oracle.
    fn assert_matches_bfs(cgra: &Cgra) {
        let table = cgra.hop_table();
        let dist = analysis::shortest_paths(cgra);
        for b in 0..=table.max_bound() {
            for p in cgra.pe_ids() {
                for q in cgra.pe_ids() {
                    let within = dist[p.index()][q.index()].is_some_and(|d| d <= b);
                    assert_eq!(
                        test_bit(table.fwd(b, p), q.index()),
                        within,
                        "{}: fwd[{b}] ({p}, {q})",
                        cgra.name()
                    );
                    assert_eq!(
                        test_bit(table.rev(b, q), p.index()),
                        within,
                        "{}: rev[{b}] ({q}, {p})",
                        cgra.name()
                    );
                }
            }
        }
        for p in cgra.pe_ids() {
            let row = table.row_of(p);
            assert_eq!(row as usize, cgra.pe(p).row);
            for q in cgra.pe_ids() {
                assert_eq!(
                    test_bit(table.row_set(row), q.index()),
                    cgra.pe(q).row == cgra.pe(p).row
                );
            }
        }
    }

    #[test]
    fn tables_match_bfs_on_every_preset() {
        let presets = [
            presets::hrea(),
            presets::morphosys(),
            presets::adres(),
            presets::hycube(),
            presets::baseline8(),
            presets::baseline16(),
            presets::heterogeneous(),
            presets::simple_mesh(1, 3),
            presets::motivational2x3(),
        ];
        for cgra in &presets {
            assert_matches_bfs(cgra);
        }
    }

    /// Random fabrics: random interconnect subsets plus random directed
    /// extra links (so many are not strongly connected), the crossbar
    /// ones and every other one circuit-switched, on grids wide enough
    /// to need two words.
    #[test]
    fn tables_match_bfs_on_random_fabrics() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut disconnected = 0;
        for i in 0..40 {
            let (rows, cols) = (1 + next(9) as usize, 1 + next(12) as usize);
            let mut b = CgraBuilder::new(format!("rand{i}"), rows, cols);
            for style in Interconnect::ALL {
                if next(3) == 0 {
                    b = b.interconnect(style);
                }
            }
            let n = (rows * cols) as u64;
            for _ in 0..next(2 * n + 1) {
                b = b.link(PeId(next(n) as u32), PeId(next(n) as u32));
            }
            if i % 2 == 1 {
                b = b.routing_style(RoutingStyle::CircuitSwitched);
            }
            let cgra = b.finish();
            disconnected += usize::from(!cgra.hop_table().strongly_connected());
            assert_matches_bfs(&cgra);
        }
        assert!(disconnected >= 5, "only {disconnected} disconnected fabrics drawn");
    }

    #[test]
    fn clones_share_one_table_built_once() {
        let original = presets::morphosys();
        let before = original.clone();
        let table = Arc::clone(original.hop_table());
        let after = original.clone();
        assert!(Arc::ptr_eq(&table, before.hop_table()), "clone made before first use");
        assert!(Arc::ptr_eq(&table, after.hop_table()), "clone made after first use");
        // An equal fabric built separately has its own table, equal in
        // content, and equality between fabrics ignores the cell.
        let twin = presets::morphosys();
        assert_eq!(twin, original);
        assert_eq!(presets::morphosys(), twin);
        assert!(!Arc::ptr_eq(&table, twin.hop_table()));
        assert_eq!(*table, **twin.hop_table());
        assert_ne!(presets::hrea(), original);
    }

    #[test]
    fn unreachable_pairs_stay_clear_at_every_bound() {
        let g = CgraBuilder::new("d", 2, 2).link(PeId(0), PeId(1)).finish();
        let t = g.hop_table();
        assert_eq!(t.max_bound(), 2);
        assert!(!t.strongly_connected());
        assert!(test_bit(t.fwd(1, PeId(0)), 1));
        assert!(!test_bit(t.fwd(2, PeId(1)), 0));
        assert!(test_bit(t.rev(1, PeId(1)), 0));
        assert_eq!(t.pairs_within(0), 4);
        assert_eq!(t.pairs_within(2), 5);
        let mesh = CgraBuilder::new("m", 2, 2).interconnect(Interconnect::Mesh).finish();
        assert!(mesh.hop_table().strongly_connected());
    }
}
