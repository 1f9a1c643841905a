//! Tape-free inference: a reusable scratch workspace for forward-only
//! evaluation.
//!
//! [`crate::Graph`] records every op so it can differentiate; at search
//! time MapZero only needs values, yet every tape forward pays for a
//! fresh tape (one value *and* one zeroed gradient matrix per op, plus
//! cloned parameter leaves). [`InferCtx`] replaces the tape with a bump
//! arena of [`Matrix`] slots that are reshaped in place and reused
//! across forward passes, so a warmed-up context runs the whole network
//! without touching the allocator.
//!
//! Every op here is **bit-identical** to its tape counterpart: the same
//! accumulation order, the same zero-skips, the same clamping. The
//! proptests in `tests/proptest_hotpath.rs` and the layer equivalence
//! tests below hold the two paths equal, so the Graph forward remains
//! the single source of truth for numerics.
//!
//! Slot handles ([`BufId`]) are only valid until the next
//! [`InferCtx::begin`]; ops that produce a new value always allocate a
//! slot *after* their inputs, which is what lets the arena hand out
//! disjoint borrows without interior mutability.

use crate::{Matrix, NEG_INF};

/// Handle to one scratch matrix inside an [`InferCtx`]. Invalidated by
/// [`InferCtx::begin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufId(usize);

/// Bump-arena workspace for tape-free forward passes.
#[derive(Default)]
pub struct InferCtx {
    slots: Vec<Matrix>,
    used: usize,
    /// Per-message attention weights of [`InferCtx::gat_attention`].
    attn: Vec<f32>,
}

impl InferCtx {
    /// Empty workspace.
    #[must_use]
    pub fn new() -> Self {
        InferCtx::default()
    }

    /// Start a new forward pass: previously handed-out [`BufId`]s are
    /// invalidated, slot storage is retained for reuse.
    pub fn begin(&mut self) {
        self.used = 0;
    }

    /// Allocate a zeroed `rows x cols` slot, reusing storage when the
    /// arena already holds a matrix at this position.
    fn alloc(&mut self, rows: usize, cols: usize) -> BufId {
        if self.used == self.slots.len() {
            self.slots.push(Matrix::zeros(rows, cols));
        } else {
            self.slots[self.used].resize_to(rows, cols);
        }
        let id = BufId(self.used);
        self.used += 1;
        id
    }

    /// Copy an external matrix into a fresh slot.
    pub fn load(&mut self, m: &Matrix) -> BufId {
        let id = self.alloc(m.rows(), m.cols());
        self.slots[id.0].copy_from(m);
        id
    }

    /// Stack several equal-width matrices row-wise into one fresh slot
    /// — the disjoint-union load of the batched forward pass: K graph
    /// observations become one `(Σ rows) x cols` node-feature matrix.
    ///
    /// # Panics
    /// Panics on an empty input or a width mismatch.
    pub fn load_stacked(&mut self, mats: &[&Matrix]) -> BufId {
        assert!(!mats.is_empty(), "load_stacked needs at least one matrix");
        let cols = mats[0].cols();
        let rows = mats.iter().map(|m| m.rows()).sum();
        let id = self.alloc(rows, cols);
        let out = &mut self.slots[id.0];
        let mut r = 0;
        for m in mats {
            assert_eq!(m.cols(), cols, "load_stacked width mismatch");
            for i in 0..m.rows() {
                out.row_slice_mut(r + i).copy_from_slice(m.row_slice(i));
            }
            r += m.rows();
        }
        id
    }

    /// Read a slot's current value.
    ///
    /// # Panics
    /// Panics on a stale handle (from before the last [`InferCtx::begin`]).
    #[must_use]
    pub fn value(&self, id: BufId) -> &Matrix {
        assert!(id.0 < self.used, "stale BufId");
        &self.slots[id.0]
    }

    /// Disjoint (&mut write, &read) access to two distinct slots.
    fn pair_mut(&mut self, write: BufId, read: BufId) -> (&mut Matrix, &Matrix) {
        assert_ne!(write.0, read.0, "aliasing slot access");
        if write.0 < read.0 {
            let (lo, hi) = self.slots.split_at_mut(read.0);
            (&mut lo[write.0], &hi[0])
        } else {
            let (lo, hi) = self.slots.split_at_mut(write.0);
            (&mut hi[0], &lo[read.0])
        }
    }

    /// `x @ w` into a fresh slot (`w` is an external matrix, typically
    /// a parameter value).
    pub fn matmul(&mut self, x: BufId, w: &Matrix) -> BufId {
        let out = self.alloc(1, 1);
        let (o, xv) = self.pair_mut(out, x);
        xv.matmul_into(w, o);
        out
    }

    /// Broadcast-add a `1 x c` bias onto every row of `x`, in place.
    ///
    /// # Panics
    /// Panics unless `bias` is a row vector of `x`'s width.
    pub fn add_bias(&mut self, x: BufId, bias: &Matrix) {
        let xv = &mut self.slots[x.0];
        assert_eq!(bias.rows(), 1, "bias must be a row vector");
        assert_eq!(bias.cols(), xv.cols(), "bias width mismatch");
        let brow = bias.row_slice(0);
        for r in 0..xv.rows() {
            for (v, &b) in xv.row_slice_mut(r).iter_mut().zip(brow) {
                *v += b;
            }
        }
    }

    /// ReLU in place.
    pub fn relu(&mut self, x: BufId) {
        self.slots[x.0].map_assign(|v| v.max(0.0));
    }

    /// tanh in place (kernel-dispatched, see [`crate::simd::tanh_map`]).
    pub fn tanh(&mut self, x: BufId) {
        crate::simd::tanh_map(self.slots[x.0].data_mut());
    }

    /// Sum every node's incoming messages into a fresh `n x c` slot:
    /// `out[u] = Σ a[v]` over the messages `v → u` of `index`, added in
    /// message order onto a zero row.
    ///
    /// Bit-identical to the tape's gather of the message sources
    /// followed by a scatter-add onto their destinations: the CSR view
    /// keeps each destination's messages in message order, so every
    /// output row sees the same additions in the same order.
    ///
    /// # Panics
    /// Panics unless `a` has `index.n()` rows.
    pub fn sum_messages(&mut self, a: BufId, index: &MessageIndex) -> BufId {
        let n = index.n();
        let (start, src) = (index.csr_start(), index.csr_src());
        assert_eq!(self.slots[a.0].rows(), n, "one input row per node");
        let cols = self.slots[a.0].cols();
        let out = self.alloc(n, cols);
        let (o, av) = self.pair_mut(out, a);
        for u in 0..n {
            let row = o.row_slice_mut(u);
            for &v in &src[start[u]..start[u + 1]] {
                for (x, &y) in row.iter_mut().zip(av.row_slice(v)) {
                    *x += y;
                }
            }
        }
        out
    }

    /// One graph-attention head's message pass (Eqs. 6–7) into a fresh
    /// `n x d` slot, fused over the destination-grouped (CSR) view of
    /// `index`: for every destination `u`, the scores
    /// `e = LeakyReLU(score_dst[u] + score_src[v])` of its messages, their
    /// softmax `α`, and the aggregate `Σ α · hw[v]`.
    ///
    /// Bit-identical to the tape chain of [`crate::GatLayer::forward`]
    /// (gather → add → leaky ReLU → segment softmax → gather → col_mul →
    /// scatter-add) by construction, not within a tolerance: each
    /// element sees the same operations, and each destination folds its
    /// messages (max, sum, aggregate) in the same order, because the CSR
    /// view keeps every destination's messages in their original
    /// order. The exponentials run through the same
    /// [`crate::simd::exp_neg_map`] over one flat buffer. What the
    /// fusion removes is the `E x 1` and `E x d` intermediates and the
    /// scattered read-modify-writes of the source-major message order;
    /// each aggregate row accumulates in registers and is stored once.
    ///
    /// # Panics
    /// Panics unless `hw` has `index.n()` rows and the scores are
    /// matching columns.
    pub fn gat_attention(
        &mut self,
        hw: BufId,
        score_dst: BufId,
        score_src: BufId,
        index: &MessageIndex,
        negative_slope: f32,
    ) -> BufId {
        let n = index.n();
        let (start, src) = (index.csr_start(), index.csr_src());
        let (sd, ss) = (self.slots[score_dst.0].data(), self.slots[score_src.0].data());
        assert!(sd.len() == n && ss.len() == n, "one score per node");
        assert_eq!(self.slots[hw.0].rows(), n, "hw must have one row per node");
        // Pass 1: scores, leaky ReLU and the per-destination max, then
        // the max shift (`Graph::segment_softmax`'s numerator input).
        let mut w = std::mem::take(&mut self.attn);
        w.clear();
        w.resize(src.len(), 0.0);
        for u in 0..n {
            let msgs = start[u]..start[u + 1];
            let mut max = f32::NEG_INFINITY;
            for (e, &v) in w[msgs.clone()].iter_mut().zip(&src[msgs.clone()]) {
                let x = sd[u] + ss[v];
                *e = if x >= 0.0 { x } else { negative_slope * x };
                max = max.max(*e);
            }
            for e in &mut w[msgs] {
                *e -= max;
            }
        }
        // Pass 2: the numerators, through the dispatched exp kernel.
        crate::simd::exp_neg_map(&mut w);
        // Pass 3: per destination, the sequential sum, then each weight
        // and its `α · hw[v]` product added in message order.
        let d = self.slots[hw.0].cols();
        let out = self.alloc(n, d);
        let (o, h) = self.pair_mut(out, hw);
        let (o, h) = (o.data_mut(), h.data());
        for u in 0..n {
            let msgs = start[u]..start[u + 1];
            let (w, src) = (&w[msgs.clone()], &src[msgs]);
            let out_row = &mut o[u * d..(u + 1) * d];
            // Register arrays for the head widths of the tiny (4) and
            // default (16) network configurations.
            match d {
                4 => aggregate_row::<4>(out_row, w, src, h),
                16 => aggregate_row::<16>(out_row, w, src, h),
                _ => aggregate_row_dyn(out_row, w, src, h),
            }
        }
        self.attn = w;
        out
    }

    /// Multiply every row of `x` by the matching external scale, in
    /// place (used for GCN degree normalization).
    ///
    /// # Panics
    /// Panics unless `scales.len() == x.rows()`.
    pub fn col_mul_slice(&mut self, x: BufId, scales: &[f32]) {
        let xv = &mut self.slots[x.0];
        assert_eq!(scales.len(), xv.rows(), "column length mismatch");
        for (r, &k) in scales.iter().enumerate() {
            for v in xv.row_slice_mut(r) {
                *v *= k;
            }
        }
    }

    /// Mean over rows into a fresh `1 x c` slot; same accumulation
    /// order as [`crate::Graph::mean_rows`].
    pub fn mean_rows(&mut self, a: BufId) -> BufId {
        let cols = self.slots[a.0].cols();
        let out = self.alloc(1, cols);
        let (o, av) = self.pair_mut(out, a);
        let n = av.rows() as f32;
        for r in 0..av.rows() {
            for (v, &x) in o.row_slice_mut(0).iter_mut().zip(av.row_slice(r)) {
                *v += x / n;
            }
        }
        out
    }

    /// Per-group mean over rows into a fresh `groups x c` slot: row `g`
    /// is the mean of the `rows/groups` consecutive input rows of group
    /// `g`. With `groups == 1` this is bit-identical to
    /// [`InferCtx::mean_rows`] (same ascending-row `x / n`
    /// accumulation), which keeps the batched forward's per-graph
    /// pooling bit-identical to the single-graph pooling.
    ///
    /// # Panics
    /// Panics unless `groups` divides the row count.
    pub fn mean_rows_grouped(&mut self, a: BufId, groups: usize) -> BufId {
        let (rows, cols) = (self.slots[a.0].rows(), self.slots[a.0].cols());
        assert!(groups > 0 && rows % groups == 0, "groups must divide {rows} rows");
        let per = rows / groups;
        let out = self.alloc(groups, cols);
        let (o, av) = self.pair_mut(out, a);
        let n = per as f32;
        for g in 0..groups {
            for r in 0..per {
                for (v, &x) in o.row_slice_mut(g).iter_mut().zip(av.row_slice(g * per + r)) {
                    *v += x / n;
                }
            }
        }
        out
    }

    /// Concatenate two slots along columns into a fresh slot.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    pub fn concat_cols(&mut self, a: BufId, b: BufId) -> BufId {
        let (ra, ca) = (self.slots[a.0].rows(), self.slots[a.0].cols());
        let (rb, cb) = (self.slots[b.0].rows(), self.slots[b.0].cols());
        assert_eq!(ra, rb, "row count mismatch");
        let out = self.alloc(ra, ca + cb);
        let (o, av) = self.pair_mut(out, a);
        for r in 0..ra {
            o.row_slice_mut(r)[..ca].copy_from_slice(av.row_slice(r));
        }
        let (o, bv) = self.pair_mut(out, b);
        for r in 0..ra {
            o.row_slice_mut(r)[ca..].copy_from_slice(bv.row_slice(r));
        }
        out
    }
}

/// Softmax denominator of one destination's exponentiated scores:
/// the sequential sum, floored like `Graph::segment_softmax`.
#[inline(always)]
fn softmax_denominator(w: &[f32]) -> f32 {
    let mut sum = 0.0f32;
    for &e in w {
        sum += e;
    }
    sum.max(f32::MIN_POSITIVE)
}

/// `out = Σ_j (w[j] / denom) · h[src[j]]` over a width-`D` row held in
/// a register array — per element the tape's `col_mul` product then
/// its scatter-add, in message order.
#[inline(always)]
fn aggregate_row<const D: usize>(out: &mut [f32], w: &[f32], src: &[usize], h: &[f32]) {
    let denom = softmax_denominator(w);
    let mut acc = [0.0f32; D];
    for (&e, &v) in w.iter().zip(src) {
        let alpha = e / denom;
        let row = &h[v * D..(v + 1) * D];
        for j in 0..D {
            acc[j] += alpha * row[j];
        }
    }
    out.copy_from_slice(&acc);
}

/// [`aggregate_row`] for widths without a register specialization,
/// accumulating in the (zeroed) output row.
fn aggregate_row_dyn(out: &mut [f32], w: &[f32], src: &[usize], h: &[f32]) {
    let denom = softmax_denominator(w);
    let d = out.len();
    for (&e, &v) in w.iter().zip(src) {
        let alpha = e / denom;
        for (o, &x) in out.iter_mut().zip(&h[v * d..(v + 1) * d]) {
            *o += alpha * x;
        }
    }
}

/// Masked log-softmax over one row of logits, written into a
/// caller-provided buffer; same numerics (and the same `NEG_INF`
/// stand-in for masked entries) as [`crate::Graph::log_softmax_masked`].
///
/// # Panics
/// Panics unless `logits.len() == mask.len()` with at least one
/// unmasked entry.
pub fn log_softmax_masked_into(logits: &[f32], mask: &[bool], out: &mut Vec<f32>) {
    assert_eq!(mask.len(), logits.len(), "one mask bit per logit");
    assert!(mask.iter().any(|&m| m), "at least one action must be legal");
    let mut max = f32::NEG_INFINITY;
    for (&v, &m) in logits.iter().zip(mask) {
        if m {
            max = max.max(v);
        }
    }
    let mut sum = 0.0f32;
    for (&v, &m) in logits.iter().zip(mask) {
        if m {
            sum += (v - max).exp();
        }
    }
    let lse = max + sum.ln();
    out.clear();
    out.extend(
        logits.iter().zip(mask).map(|(&v, &m)| if m { v - lse } else { NEG_INF }),
    );
}

/// Precomputed message routing for one graph, or for K stacked copies
/// of it: the messages — the edges with a self-loop per node, exactly
/// what [`crate::GatLayer::forward`] rebuilds on every tape pass —
/// grouped by destination (CSR), and the inverse in-degrees
/// [`crate::GcnLayer`] normalizes by.
///
/// The CSR of K copies is a prefix of the CSR of any wider tiling, so
/// the index is built once per graph at the widest K asked for, and a
/// narrower batch reads the prefix: a search that evaluates one
/// problem's states at alternating batch widths builds it once.
#[derive(Debug, Default, Clone)]
pub struct MessageIndex {
    /// Copies the current view covers.
    copies: usize,
    /// Messages into node `u` are `csr_src[csr_start[u]..csr_start[u + 1]]`
    /// (their sources): the node's in-edges in edge-list order, then its
    /// self-loop. Built for `built_copies` copies.
    csr_start: Vec<usize>,
    csr_src: Vec<usize>,
    inv_deg: Vec<f32>,
    /// The `(edges, n)` this index was last built for, and how many
    /// copies of it are built.
    built_edges: Vec<(usize, usize)>,
    built_n: usize,
    built_copies: usize,
}

impl MessageIndex {
    /// Empty index; call [`MessageIndex::rebuild`] before use.
    #[must_use]
    pub fn new() -> Self {
        MessageIndex::default()
    }

    /// Populate for `n` nodes and the given `(src, dst)` edge list;
    /// `rebuild_tiled(edges, n, 1)`.
    pub fn rebuild(&mut self, edges: &[(usize, usize)], n: usize) {
        self.rebuild_tiled(edges, n, 1);
    }

    /// Populate for `copies` disjoint copies of the same `n`-node
    /// graph, stacked row-wise — the routing table of the batched
    /// forward pass: copy `k`'s nodes live at rows `k*n..(k+1)*n` and
    /// its messages are offset to match. When the index already holds
    /// this graph, this only selects the view (at most `copies` built)
    /// or appends the missing copies; nothing already built is redone.
    ///
    /// Ordering matters for bit-equivalence: within any one copy each
    /// destination sees its messages (in-edges in edge-list order, then
    /// its self-loop) in exactly the order the single graph's tape pass
    /// scatters them, so scatter-adds and attention passes over this
    /// index are bit-identical per copy to the unbatched pass.
    ///
    /// # Panics
    /// Panics if `copies == 0` or an edge endpoint is not below `n`.
    pub fn rebuild_tiled(&mut self, edges: &[(usize, usize)], n: usize, copies: usize) {
        assert!(copies > 0, "need at least one copy");
        if self.built_copies == 0 || self.built_n != n || self.built_edges != edges {
            self.build_first_copy(edges, n);
        }
        let (n, per_copy) = (self.built_n, self.csr_start[self.built_n]);
        for k in self.built_copies..copies {
            let (start_off, node_off) = (k * per_copy, k * n);
            for u in 0..n {
                self.csr_start.push(start_off + self.csr_start[u + 1]);
            }
            for m in 0..per_copy {
                self.csr_src.push(node_off + self.csr_src[m]);
            }
            self.inv_deg.extend_from_within(..n);
        }
        self.built_copies = self.built_copies.max(copies);
        self.copies = copies;
    }

    /// Build copy 0 alone: a stable counting sort of the messages (the
    /// edges, then one self-loop per node) on destination.
    fn build_first_copy(&mut self, edges: &[(usize, usize)], n: usize) {
        assert!(edges.iter().all(|&(s, d)| s < n && d < n), "edge endpoint out of range");
        // Forget the old key first, so an unwind mid-rebuild can never
        // leave a half-built index that still claims to match.
        self.built_copies = 0;
        self.csr_start.clear();
        self.csr_start.resize(n + 1, 0);
        for &(_, d) in edges {
            self.csr_start[d + 1] += 1;
        }
        for u in 0..n {
            self.csr_start[u + 1] += self.csr_start[u] + 1;
        }
        let mut next = self.csr_start[..n].to_vec();
        self.csr_src.clear();
        self.csr_src.resize(edges.len() + n, 0);
        for &(s, d) in edges {
            self.csr_src[next[d]] = s;
            next[d] += 1;
        }
        for (u, &last) in next.iter().enumerate() {
            self.csr_src[last] = u;
        }
        self.inv_deg.clear();
        self.inv_deg.extend(
            self.csr_start.windows(2).map(|w| 1.0 / ((w[1] - w[0]) as f32).max(1.0)),
        );
        self.built_edges.clear();
        self.built_edges.extend_from_slice(edges);
        self.built_n = n;
        self.built_copies = 1;
    }

    /// CSR row starts: node `u`'s messages are entries
    /// `csr_start()[u]..csr_start()[u + 1]` of [`MessageIndex::csr_src`].
    #[must_use]
    pub fn csr_start(&self) -> &[usize] {
        &self.csr_start[..=self.n()]
    }

    /// Message sources grouped by destination, each group in message
    /// order.
    #[must_use]
    pub fn csr_src(&self) -> &[usize] {
        &self.csr_src[..self.csr_start[self.n()]]
    }

    /// Inverse in-degree (self-loop included) per node.
    #[must_use]
    pub fn inv_deg(&self) -> &[f32] {
        &self.inv_deg[..self.n()]
    }

    /// Node count of the current view (all copies).
    #[must_use]
    pub fn n(&self) -> usize {
        self.built_n * self.copies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Graph;

    fn test_matrix(rows: usize, cols: usize, scale: f32) -> Matrix {
        let data: Vec<f32> =
            (0..rows * cols).map(|i| ((i as f32 * 0.7).sin()) * scale).collect();
        Matrix::from_vec(rows, cols, data)
    }

    /// The messages of `copies` tiled copies in the order the tape
    /// scatters them: every copy's edges, then every node's self-loop.
    fn tape_messages(edges: &[(usize, usize)], n: usize, copies: usize) -> Vec<(usize, usize)> {
        let tiled =
            (0..copies).flat_map(|k| edges.iter().map(move |&(s, d)| (s + k * n, d + k * n)));
        tiled.chain((0..n * copies).map(|u| (u, u))).collect()
    }

    #[test]
    fn ops_match_graph_ops_bitwise() {
        let x = test_matrix(5, 4, 1.3);
        let w = test_matrix(4, 3, 0.7);
        let bias = test_matrix(1, 3, 0.2);
        let edges = [(0usize, 2usize), (2, 2), (4, 1), (1, 0), (0, 2)];
        let msgs = tape_messages(&edges, 5, 1);
        let src: Vec<usize> = msgs.iter().map(|m| m.0).collect();
        let dst: Vec<usize> = msgs.iter().map(|m| m.1).collect();

        let mut g = Graph::new();
        let gx = g.input(x.clone());
        let gw = g.input(w.clone());
        let gb = g.input(bias.clone());
        let gmm = g.matmul(gx, gw);
        let gbias = g.add_bias(gmm, gb);
        let gth = g.gather_rows(gbias, &src);
        let gsc = g.scatter_add_rows(gth, &dst, 5);
        let gtanh = g.tanh(gsc);
        let gmean = g.mean_rows(gtanh);

        let mut index = MessageIndex::new();
        index.rebuild(&edges, 5);
        let mut ctx = InferCtx::new();
        ctx.begin();
        let cx = ctx.load(&x);
        let cmm = ctx.matmul(cx, &w);
        ctx.add_bias(cmm, &bias);
        let csc = ctx.sum_messages(cmm, &index);
        ctx.tanh(csc);
        let cmean = ctx.mean_rows(csc);

        assert_eq!(ctx.value(csc), g.value(gtanh));
        assert_eq!(ctx.value(cmean), g.value(gmean));
    }

    #[test]
    fn log_softmax_masked_matches_graph() {
        let logits = test_matrix(1, 6, 1.7);
        let mask = [true, false, true, true, false, true];
        let mut g = Graph::new();
        let gl = g.input(logits.clone());
        let glp = g.log_softmax_masked(gl, &mask);
        let mut out = Vec::new();
        log_softmax_masked_into(logits.row_slice(0), &mask, &mut out);
        assert_eq!(out.as_slice(), g.value(glp).row_slice(0));
    }

    #[test]
    fn slots_are_reused_across_begins() {
        let x = test_matrix(3, 3, 1.0);
        let mut ctx = InferCtx::new();
        ctx.begin();
        let a = ctx.load(&x);
        let _ = ctx.matmul(a, &x);
        let high_water = ctx.slots.len();
        for _ in 0..10 {
            ctx.begin();
            let a = ctx.load(&x);
            let _ = ctx.matmul(a, &x);
        }
        assert_eq!(ctx.slots.len(), high_water, "no new slots after warm-up");
    }

    #[test]
    fn message_index_rebuild_appends_self_loops() {
        let mut idx = MessageIndex::new();
        idx.rebuild(&[(0, 1), (1, 2)], 3);
        assert_eq!(idx.csr_start(), &[0, 1, 3, 5]);
        assert_eq!(idx.csr_src(), &[0, 0, 1, 1, 2]);
        // deg: node0 = 1 (self), node1 = 2, node2 = 2.
        assert_eq!(idx.inv_deg(), &[1.0, 0.5, 0.5]);
        idx.rebuild(&[], 2);
        assert_eq!(idx.csr_src(), &[0, 1]);
        assert_eq!(idx.n(), 2);
    }

    #[test]
    fn load_stacked_and_grouped_mean_match_per_graph_ops() {
        let a = test_matrix(4, 3, 1.1);
        let b = test_matrix(4, 3, 0.6);
        let mut ctx = InferCtx::new();
        ctx.begin();
        let stacked = ctx.load_stacked(&[&a, &b]);
        assert_eq!(ctx.value(stacked).rows(), 8);
        assert_eq!(ctx.value(stacked).row_slice(5), b.row_slice(1));
        let means = ctx.mean_rows_grouped(stacked, 2);
        let mean_a = {
            let ia = ctx.load(&a);
            ctx.mean_rows(ia)
        };
        assert_eq!(ctx.value(means).row_slice(0), ctx.value(mean_a).row_slice(0));
        let mean_b = {
            let ib = ctx.load(&b);
            ctx.mean_rows(ib)
        };
        assert_eq!(ctx.value(means).row_slice(1), ctx.value(mean_b).row_slice(0));
    }

    #[test]
    fn rebuild_tiled_offsets_each_copy() {
        let edges = [(0usize, 1usize), (1, 2)];
        let mut tiled = MessageIndex::new();
        tiled.rebuild_tiled(&edges, 3, 2);
        assert_eq!(tiled.n(), 6);
        assert_eq!(tiled.csr_start(), &[0, 1, 3, 5, 6, 8, 10]);
        assert_eq!(tiled.csr_src(), &[0, 0, 1, 1, 2, 3, 3, 4, 4, 5]);
        // Per-copy degrees must match the single-graph index.
        let mut single = MessageIndex::new();
        single.rebuild(&edges, 3);
        assert_eq!(&tiled.inv_deg()[..3], single.inv_deg());
        assert_eq!(&tiled.inv_deg()[3..], single.inv_deg());
        // One copy degenerates to the plain rebuild.
        let mut one = MessageIndex::new();
        one.rebuild_tiled(&edges, 3, 1);
        assert_eq!((one.csr_start(), one.csr_src()), (single.csr_start(), single.csr_src()));
        assert_eq!(one.inv_deg(), single.inv_deg());
    }

    #[test]
    fn csr_groups_messages_by_destination_in_message_order() {
        // Duplicate edge (0, 2), a node (3) with only its self-loop.
        let edges = [(0usize, 2usize), (1, 2), (2, 0), (0, 2)];
        let mut idx = MessageIndex::new();
        idx.rebuild_tiled(&edges, 4, 2);
        let msgs = tape_messages(&edges, 4, 2);
        for u in 0..idx.n() {
            let expected: Vec<usize> =
                msgs.iter().filter_map(|&(s, d)| (d == u).then_some(s)).collect();
            let (a, b) = (idx.csr_start()[u], idx.csr_start()[u + 1]);
            assert_eq!(&idx.csr_src()[a..b], expected.as_slice(), "node {u}");
        }
        assert_eq!(&idx.csr_src()[idx.csr_start()[6]..idx.csr_start()[7]], &[4, 5, 4, 6]);
        assert_eq!(idx.csr_start()[8] - idx.csr_start()[7], 1, "self-loop only");
    }

    #[test]
    fn rebuild_tracks_the_graph_it_was_built_for() {
        let (a, b) = ([(0usize, 1usize), (1, 2)], [(2usize, 0usize)]);
        let mut fresh = MessageIndex::new();
        fresh.rebuild_tiled(&a, 3, 2);
        let mut reused = MessageIndex::new();
        let builds = [
            (&a[..], 3, 2),
            (&b[..], 3, 2),
            (&b[..], 4, 2),
            (&b[..], 4, 3),
            (&b[..], 4, 1),
            (&b[..], 4, 5),
            (&b[..], 4, 2),
        ];
        for (edges, n, copies) in builds {
            reused.rebuild_tiled(edges, n, copies);
            let mut once = MessageIndex::new();
            once.rebuild_tiled(edges, n, copies);
            assert_eq!(reused.n(), once.n());
            assert_eq!((reused.csr_start(), reused.csr_src()), (once.csr_start(), once.csr_src()));
            assert_eq!(reused.inv_deg(), once.inv_deg());
        }
        reused.rebuild_tiled(&a, 3, 2);
        assert_eq!(reused.csr_src(), fresh.csr_src());
        assert_eq!(reused.n(), 6);
    }

    /// Alternating batch widths on one graph build the index once, at
    /// the widest width: narrower views are prefixes, and a wider one
    /// only appends copies.
    #[test]
    fn narrower_batches_read_the_prefix_of_the_widest_build() {
        let edges = [(0usize, 2usize), (1, 2), (2, 0)];
        let mut idx = MessageIndex::new();
        idx.rebuild_tiled(&edges, 3, 5);
        let wide = (idx.csr_start().to_vec(), idx.csr_src().to_vec(), idx.inv_deg().to_vec());
        let storage = idx.csr_src.as_ptr();
        for copies in [1, 5, 2, 4, 1, 3] {
            idx.rebuild_tiled(&edges, 3, copies);
            assert_eq!(idx.built_copies, 5, "K={copies} rebuilt the index");
            assert_eq!(idx.csr_src.as_ptr(), storage);
            assert_eq!(idx.n(), 3 * copies);
            assert_eq!(idx.csr_start(), &wide.0[..=3 * copies]);
            assert_eq!(idx.csr_src(), &wide.1[..idx.csr_start()[3 * copies]]);
            assert_eq!(idx.inv_deg(), &wide.2[..3 * copies]);
        }
        // Growing from a narrow build appends copies and equals a
        // direct wide build.
        let mut grown = MessageIndex::new();
        for copies in [1, 3, 2, 5] {
            grown.rebuild_tiled(&edges, 3, copies);
        }
        assert_eq!(
            (grown.csr_start(), grown.csr_src(), grown.inv_deg()),
            (&wide.0[..], &wide.1[..], &wide.2[..])
        );
    }

    #[test]
    #[should_panic(expected = "stale BufId")]
    fn stale_handles_panic() {
        let mut ctx = InferCtx::new();
        ctx.begin();
        let a = ctx.load(&Matrix::zeros(1, 1));
        ctx.begin();
        let _ = ctx.value(a);
    }
}
