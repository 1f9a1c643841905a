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
    seg_max: Vec<f32>,
    seg_sum: Vec<f32>,
    seg_exp: Vec<f32>,
    edge_scratch: Vec<f32>,
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

    /// `a += b` element-wise, in place.
    pub fn add_assign(&mut self, a: BufId, b: BufId) {
        let (av, bv) = self.pair_mut(a, b);
        av.add_assign(bv);
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

    /// Leaky ReLU in place.
    pub fn leaky_relu(&mut self, x: BufId, slope: f32) {
        self.slots[x.0].map_assign(|v| if v >= 0.0 { v } else { slope * v });
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
        if cols == 1 {
            // Column gather (the attention-score broadcast): plain
            // indexed loads instead of one `memcpy` call per element.
            let src = av.data();
            for (v, &i) in o.data_mut().iter_mut().zip(idx) {
                *v = src[i];
            }
            return out;
        }
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

    /// Fused attention aggregation into a fresh `rows x c` slot:
    /// `out[dst[e]] += alpha[e] * a[src[e]]` for each edge `e` in
    /// ascending order.
    ///
    /// Bit-identical to the composed `gather_rows(a, src)` →
    /// `col_mul(alpha, msgs)` → `scatter_add_rows(msgs, dst, rows)` —
    /// the same per-element product, the same destination accumulation
    /// order — without materializing the `E x c` message matrix. The
    /// composed form costs two extra full passes of `E x c` memory
    /// traffic plus a `memcpy` per edge, which profiling puts among the
    /// top costs of the batched forward.
    ///
    /// # Panics
    /// Panics unless `alpha` is an `E x 1` column with one weight per
    /// `src`/`dst` pair and every index is in range.
    pub fn scatter_weighted_rows(
        &mut self,
        alpha: BufId,
        a: BufId,
        src: &[usize],
        dst: &[usize],
        rows: usize,
    ) -> BufId {
        assert_eq!(src.len(), dst.len(), "one (src, dst) pair per edge");
        {
            let av = &self.slots[alpha.0];
            assert_eq!(av.cols(), 1, "alpha must be a column");
            assert_eq!(av.rows(), src.len(), "one weight per edge");
        }
        // Stash the weights so `out` and `a` can be split-borrowed.
        let mut weights = std::mem::take(&mut self.edge_scratch);
        weights.clear();
        weights.extend_from_slice(self.slots[alpha.0].data());
        let cols = self.slots[a.0].cols();
        let in_rows = self.slots[a.0].rows();
        let out = self.alloc(rows, cols);
        let (o, av) = self.pair_mut(out, a);
        // Each edge is one axpy row update (`out_row += w · src_row`) —
        // the same product-then-add per element as the composed ops.
        match crate::simd::kind() {
            crate::simd::SimdKind::Scalar => {
                for (e, (&s, &d)) in src.iter().zip(dst).enumerate() {
                    assert!(s < in_rows, "gather index {s} out of range");
                    assert!(d < rows, "scatter index {d} out of range");
                    crate::simd::axpy_scalar(o.row_slice_mut(d), weights[e], av.row_slice(s));
                }
            }
            crate::simd::SimdKind::Lanes8 => {
                // Whole loop in `simd` so it gets one AVX2 dispatch per
                // call; out-of-range indices panic on the slice bounds.
                crate::simd::scatter_axpy_lanes8(o.data_mut(), cols, av.data(), &weights, src, dst);
            }
        }
        self.edge_scratch = weights;
        out
    }

    /// Per-segment softmax over an `E x 1` column, in place; same
    /// numerics as [`crate::Graph::segment_softmax`].
    ///
    /// # Panics
    /// Panics if `a` is not a column or `seg.len() != a.rows()`.
    pub fn segment_softmax(&mut self, a: BufId, seg: &[usize]) {
        let va = &self.slots[a.0];
        assert_eq!(va.cols(), 1, "segment softmax expects a column");
        assert_eq!(seg.len(), va.rows(), "one segment id per row");
        let nseg = seg.iter().copied().max().map_or(0, |m| m + 1);
        self.seg_max.clear();
        self.seg_max.resize(nseg, f32::NEG_INFINITY);
        for (i, &s) in seg.iter().enumerate() {
            self.seg_max[s] = self.seg_max[s].max(va[(i, 0)]);
        }
        self.seg_sum.clear();
        self.seg_sum.resize(nseg, 0.0);
        self.seg_exp.clear();
        self.seg_exp.extend(seg.iter().enumerate().map(|(i, &s)| va[(i, 0)] - self.seg_max[s]));
        // Shifted numerators through the dispatched exp kernel (the
        // tape path routes through the same one, keeping the softmaxes
        // bit-identical per kind); per-segment sums stay sequential.
        crate::simd::exp_neg_map(&mut self.seg_exp);
        for (&e, &s) in self.seg_exp.iter().zip(seg) {
            self.seg_sum[s] += e;
        }
        let va = &mut self.slots[a.0];
        for (i, &s) in seg.iter().enumerate() {
            va[(i, 0)] = self.seg_exp[i] / self.seg_sum[s].max(f32::MIN_POSITIVE);
        }
    }

    /// Multiply every row of `x` by the matching entry of the `r x 1`
    /// column slot, in place on `x`.
    ///
    /// # Panics
    /// Panics unless `col` is a column of `x`'s height.
    pub fn col_mul(&mut self, col: BufId, x: BufId) {
        let (xv, cv) = self.pair_mut(x, col);
        assert_eq!(cv.cols(), 1, "col must be a column vector");
        assert_eq!(cv.rows(), xv.rows(), "column length mismatch");
        for r in 0..xv.rows() {
            let k = cv[(r, 0)];
            for v in xv.row_slice_mut(r) {
                *v *= k;
            }
        }
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
/// [`crate::GatLayer::forward`] rebuilds on every tape pass — plus the
/// inverse in-degrees [`crate::GcnLayer`] normalizes by. Rebuilt in
/// place so the per-problem index vectors are allocated once.
#[derive(Debug, Default, Clone)]
pub struct MessageIndex {
    src: Vec<usize>,
    dst: Vec<usize>,
    inv_deg: Vec<f32>,
    n: usize,
}

impl MessageIndex {
    /// Empty index; call [`MessageIndex::rebuild`] before use.
    #[must_use]
    pub fn new() -> Self {
        MessageIndex::default()
    }

    /// Populate for `n` nodes and the given `(src, dst)` edge list,
    /// reusing existing storage.
    pub fn rebuild(&mut self, edges: &[(usize, usize)], n: usize) {
        self.n = n;
        self.src.clear();
        self.dst.clear();
        for &(s, d) in edges {
            self.src.push(s);
            self.dst.push(d);
        }
        for u in 0..n {
            self.src.push(u);
            self.dst.push(u);
        }
        self.inv_deg.clear();
        self.inv_deg.resize(n, 0.0);
        for &d in &self.dst {
            self.inv_deg[d] += 1.0;
        }
        for v in &mut self.inv_deg {
            *v = 1.0 / v.max(1.0);
        }
    }

    /// Populate for `copies` disjoint copies of the same `n`-node
    /// graph, stacked row-wise — the routing table of the batched
    /// forward pass: copy `k`'s nodes live at rows `k*n..(k+1)*n` and
    /// its edges are offset to match.
    ///
    /// Ordering matters for bit-equivalence: all tiled edges come
    /// first, then all self-loops, so within any one copy each
    /// destination sees its messages (edges, then its self-loop) in
    /// exactly the order [`MessageIndex::rebuild`] produces for the
    /// single graph. Scatter-adds and segment softmaxes over this index
    /// are therefore bit-identical per copy to the unbatched pass.
    /// `rebuild_tiled(edges, n, 1)` is exactly `rebuild(edges, n)`.
    ///
    /// # Panics
    /// Panics if `copies == 0`.
    pub fn rebuild_tiled(&mut self, edges: &[(usize, usize)], n: usize, copies: usize) {
        assert!(copies > 0, "need at least one copy");
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
        self.inv_deg.clear();
        self.inv_deg.resize(self.n, 0.0);
        for &d in &self.dst {
            self.inv_deg[d] += 1.0;
        }
        for v in &mut self.inv_deg {
            *v = 1.0 / v.max(1.0);
        }
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
    fn segment_softmax_matches_graph() {
        let col = test_matrix(6, 1, 2.1);
        let seg = [0usize, 0, 1, 1, 1, 2];
        let mut g = Graph::new();
        let gc = g.input(col.clone());
        let gsm = g.segment_softmax(gc, &seg);
        let mut ctx = InferCtx::new();
        ctx.begin();
        let cc = ctx.load(&col);
        ctx.segment_softmax(cc, &seg);
        assert_eq!(ctx.value(cc), g.value(gsm));
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
    #[should_panic(expected = "stale BufId")]
    fn stale_handles_panic() {
        let mut ctx = InferCtx::new();
        ctx.begin();
        let a = ctx.load(&Matrix::zeros(1, 1));
        ctx.begin();
        let _ = ctx.value(a);
    }
}
