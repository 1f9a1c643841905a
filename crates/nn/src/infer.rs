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

    /// `out[i] = a[idx[i]]` into a fresh slot.
    ///
    /// # Panics
    /// Panics if any index is out of range or `idx` is empty.
    pub fn gather_rows(&mut self, a: BufId, idx: &[usize]) -> BufId {
        assert!(!idx.is_empty(), "gather needs at least one index");
        let cols = self.slots[a.0].cols();
        let out = self.alloc(idx.len(), cols);
        let (o, av) = self.pair_mut(out, a);
        for (r, &i) in idx.iter().enumerate() {
            assert!(i < av.rows(), "gather index {i} out of range");
            o.row_slice_mut(r).copy_from_slice(av.row_slice(i));
        }
        out
    }

    /// `out[r] = Σ_{i: idx[i]==r} a[i]` into a fresh `rows x c` slot.
    ///
    /// # Panics
    /// Panics if `idx.len() != a.rows()` or any index ≥ `rows`.
    pub fn scatter_add_rows(&mut self, a: BufId, idx: &[usize], rows: usize) -> BufId {
        assert_eq!(idx.len(), self.slots[a.0].rows(), "one target per input row");
        let cols = self.slots[a.0].cols();
        let out = self.alloc(rows, cols);
        let (o, av) = self.pair_mut(out, a);
        for (i, &r) in idx.iter().enumerate() {
            assert!(r < rows, "scatter index {r} out of range");
            for (v, &x) in o.row_slice_mut(r).iter_mut().zip(av.row_slice(i)) {
                *v += x;
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

/// Precomputed message routing for one graph: the `(src, dst)` index
/// columns with self-loops appended — exactly what
/// [`crate::GatLayer::forward`] rebuilds on every tape pass — their
/// destination-grouped (CSR) view for [`InferCtx::gat_attention`], and
/// the inverse in-degrees [`crate::GcnLayer`] normalizes by. Rebuilt in
/// place, and only when the graph changes, so a search that evaluates
/// one problem's states over and over builds it once.
#[derive(Debug, Default, Clone)]
pub struct MessageIndex {
    src: Vec<usize>,
    dst: Vec<usize>,
    inv_deg: Vec<f32>,
    n: usize,
    /// Messages into node `u` are `csr_src[csr_start[u]..csr_start[u + 1]]`
    /// (their sources), in their order in `src`/`dst`.
    csr_start: Vec<usize>,
    csr_src: Vec<usize>,
    /// The `(edges, n, copies)` this index was last built for.
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
    /// its edges are offset to match. A no-op when the index is already
    /// built for these `(edges, n, copies)`.
    ///
    /// Ordering matters for bit-equivalence: all tiled edges come
    /// first, then all self-loops, so within any one copy each
    /// destination sees its messages (edges, then its self-loop) in
    /// exactly the order the single graph's index has. The CSR view is
    /// a stable counting sort on destination, so it keeps that order
    /// too. Scatter-adds and attention passes over this index are
    /// therefore bit-identical per copy to the unbatched pass.
    ///
    /// # Panics
    /// Panics if `copies == 0` or an edge endpoint is not below `n`.
    pub fn rebuild_tiled(&mut self, edges: &[(usize, usize)], n: usize, copies: usize) {
        assert!(copies > 0, "need at least one copy");
        if self.built_copies == copies && self.built_n == n && self.built_edges == edges {
            return;
        }
        assert!(edges.iter().all(|&(s, d)| s < n && d < n), "edge endpoint out of range");
        // Forget the old key first, so an unwind mid-rebuild can never
        // leave a half-built index that still claims to match.
        self.built_copies = 0;
        self.n = n * copies;
        self.src.clear();
        self.dst.clear();
        for k in 0..copies {
            let off = k * n;
            for &(s, d) in edges {
                self.src.push(s + off);
                self.dst.push(d + off);
            }
        }
        for u in 0..self.n {
            self.src.push(u);
            self.dst.push(u);
        }
        // Stable counting sort on destination.
        self.csr_start.clear();
        self.csr_start.resize(self.n + 1, 0);
        for &d in &self.dst {
            self.csr_start[d + 1] += 1;
        }
        for u in 0..self.n {
            self.csr_start[u + 1] += self.csr_start[u];
        }
        let mut next = self.csr_start[..self.n].to_vec();
        self.csr_src.clear();
        self.csr_src.resize(self.src.len(), 0);
        for (&s, &d) in self.src.iter().zip(&self.dst) {
            self.csr_src[next[d]] = s;
            next[d] += 1;
        }
        self.inv_deg.clear();
        self.inv_deg.extend(
            self.csr_start.windows(2).map(|w| 1.0 / ((w[1] - w[0]) as f32).max(1.0)),
        );
        self.built_edges.clear();
        self.built_edges.extend_from_slice(edges);
        self.built_n = n;
        self.built_copies = copies;
    }

    /// Message sources (edges then self-loops).
    #[must_use]
    pub fn src(&self) -> &[usize] {
        &self.src
    }

    /// Message destinations (edges then self-loops).
    #[must_use]
    pub fn dst(&self) -> &[usize] {
        &self.dst
    }

    /// CSR row starts: node `u`'s messages are entries
    /// `csr_start()[u]..csr_start()[u + 1]` of [`MessageIndex::csr_src`].
    #[must_use]
    pub fn csr_start(&self) -> &[usize] {
        &self.csr_start
    }

    /// Message sources grouped by destination, each group in message
    /// order.
    #[must_use]
    pub fn csr_src(&self) -> &[usize] {
        &self.csr_src
    }

    /// Inverse in-degree (self-loop included) per node.
    #[must_use]
    pub fn inv_deg(&self) -> &[f32] {
        &self.inv_deg
    }

    /// Node count this index was built for.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
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

    #[test]
    fn ops_match_graph_ops_bitwise() {
        let x = test_matrix(5, 4, 1.3);
        let w = test_matrix(4, 3, 0.7);
        let bias = test_matrix(1, 3, 0.2);
        let idx = [0usize, 2, 2, 4, 1];
        let seg = [0usize, 0, 1, 1, 1];

        let mut g = Graph::new();
        let gx = g.input(x.clone());
        let gw = g.input(w.clone());
        let gb = g.input(bias.clone());
        let gmm = g.matmul(gx, gw);
        let gbias = g.add_bias(gmm, gb);
        let gth = g.gather_rows(gbias, &idx);
        let gsc = g.scatter_add_rows(gth, &seg, 2);
        let gtanh = g.tanh(gsc);
        let gmean = g.mean_rows(gtanh);

        let mut ctx = InferCtx::new();
        ctx.begin();
        let cx = ctx.load(&x);
        let cmm = ctx.matmul(cx, &w);
        ctx.add_bias(cmm, &bias);
        let cth = ctx.gather_rows(cmm, &idx);
        let csc = ctx.scatter_add_rows(cth, &seg, 2);
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
        assert_eq!(idx.src(), &[0, 1, 0, 1, 2]);
        assert_eq!(idx.dst(), &[1, 2, 0, 1, 2]);
        // deg: node0 = 1 (self), node1 = 2, node2 = 2.
        assert_eq!(idx.inv_deg(), &[1.0, 0.5, 0.5]);
        idx.rebuild(&[], 2);
        assert_eq!(idx.src(), &[0, 1]);
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
        assert_eq!(tiled.src(), &[0, 1, 3, 4, 0, 1, 2, 3, 4, 5]);
        assert_eq!(tiled.dst(), &[1, 2, 4, 5, 0, 1, 2, 3, 4, 5]);
        // Per-copy degrees must match the single-graph index.
        let mut single = MessageIndex::new();
        single.rebuild(&edges, 3);
        assert_eq!(&tiled.inv_deg()[..3], single.inv_deg());
        assert_eq!(&tiled.inv_deg()[3..], single.inv_deg());
        // One copy degenerates to the plain rebuild.
        let mut one = MessageIndex::new();
        one.rebuild_tiled(&edges, 3, 1);
        assert_eq!(one.src(), single.src());
        assert_eq!(one.dst(), single.dst());
        assert_eq!(one.inv_deg(), single.inv_deg());
    }

    #[test]
    fn csr_groups_messages_by_destination_in_message_order() {
        // Duplicate edge (0, 2), a node (3) with only its self-loop.
        let edges = [(0usize, 2usize), (1, 2), (2, 0), (0, 2)];
        let mut idx = MessageIndex::new();
        idx.rebuild_tiled(&edges, 4, 2);
        for u in 0..idx.n() {
            let expected: Vec<usize> = idx
                .src()
                .iter()
                .zip(idx.dst())
                .filter_map(|(&s, &d)| (d == u).then_some(s))
                .collect();
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
        for (edges, n, copies) in [(&a[..], 3, 2), (&b[..], 3, 2), (&b[..], 4, 2), (&b[..], 4, 3)] {
            reused.rebuild_tiled(edges, n, copies);
            let mut once = MessageIndex::new();
            once.rebuild_tiled(edges, n, copies);
            assert_eq!((reused.src(), reused.dst()), (once.src(), once.dst()));
            assert_eq!((reused.csr_start(), reused.csr_src()), (once.csr_start(), once.csr_src()));
            assert_eq!(reused.inv_deg(), once.inv_deg());
        }
        reused.rebuild_tiled(&a, 3, 2);
        assert_eq!(reused.csr_src(), fresh.csr_src());
        assert_eq!(reused.n(), 6);
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
