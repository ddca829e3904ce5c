//! The tape: operation recording, forward evaluation, and reverse-mode
//! gradient propagation.
//!
//! Every constructor method both records the op and eagerly computes its
//! forward value, so intermediate values (e.g. link utilizations inside the
//! RAU loop) can be inspected mid-graph with [`Tape::value`] — HARP uses this
//! to pick data-dependent bottleneck indices while keeping gradients exact
//! (subgradient through the argmax).

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use harp_obs::{Counter, Histogram};

use crate::kernels::{self, AffineAct};

/// Nodes recorded across all tapes (counts forward-op executions, since
/// every constructor computes its value eagerly).
static NODES_RECORDED: Counter = Counter::new("tape.nodes_recorded");
/// Bytes of forward values appended to tape arenas. A view (`reshape`)
/// records a node and adds nothing here.
static VALUE_BYTES: Counter = Counter::new("tape.value_bytes");
/// Reverse passes run (`backward` / `backward_into` / `gradients`).
static BACKWARD_PASSES: Counter = Counter::new("tape.backward_passes");
/// Per tape, the most arena bytes it held at once — what it needed resident,
/// where `tape.value_bytes` is what it wrote. They differ only for a tape
/// that used [`Tape::scoped`].
static ARENA_PEAK_BYTES: Histogram = Histogram::new("tape.arena_peak_bytes");
use crate::op::Op;
use crate::param::{ParamId, ParamStore};
use crate::shape::Shape;

/// The `tape.fwd.<kind>` (or, for `backward`, `tape.bwd.<kind>`) timing
/// histogram of `op`'s kind, looked up in the registry once per kind:
/// [`harp_obs::histogram`] formats the name and takes a lock, which done
/// per recorded node made a timed `Reshape` view cost 205 ns instead of
/// 139 (52 untimed; 2-CPU host).
fn op_histogram(op: &Op, backward: bool) -> &'static Histogram {
    static HANDLES: [[OnceLock<&'static Histogram>; Op::KIND_COUNT]; 2] =
        [const { [const { OnceLock::new() }; Op::KIND_COUNT] }; 2];
    let dir = usize::from(backward);
    HANDLES[dir][op.kind_index()].get_or_init(|| {
        let pass = if backward { "bwd" } else { "fwd" };
        harp_obs::histogram(&format!("tape.{pass}.{}", op.kind()))
    })
}

/// Handle to a node on a [`Tape`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[must_use = "a Var is the only handle to the node just recorded; dropping it usually means a lost subgraph"]
pub struct Var(pub(crate) usize);

struct Node {
    op: Op,
    shape: Shape,
    /// `(offset, len)` of this node's forward value in the tape's arena
    /// buffer. Every op that computes a value bump-allocates it at the
    /// buffer tail; a view (`reshape`) instead shares its input's range.
    /// Nothing is ever written to a range after its node is recorded, so
    /// aliasing ranges are safe and a value never moves.
    val: (usize, usize),
    /// Set when this leaf mirrors a parameter in a `ParamStore`.
    param: Option<ParamId>,
    /// Integer side-channel saved by forward for backward (argmaxes).
    aux_idx: Vec<usize>,
    /// Float side-channel saved by forward for backward (inv-std, etc.).
    aux_f: Vec<f32>,
}

/// Reusable backing storage for a [`Tape`]: the bump arena holding every
/// computed forward value, plus the node table itself. Only ops that
/// produce a value append to the arena; a view node (`reshape`) points at
/// its input's range, so the arena holds each tensor once.
///
/// [`Tape::new`] acquires an arena from a small global pool and `Drop`
/// returns it cleared with capacity kept, so steady-state forward passes
/// (the per-request cached-inference path in particular) allocate nothing
/// for tape values beyond first-touch growth.
#[derive(Default)]
pub(crate) struct TapeArena {
    buf: Vec<f32>,
    nodes: Vec<Node>,
}

impl TapeArena {
    fn clear(&mut self) {
        self.buf.clear();
        self.nodes.clear();
    }
}

/// Arenas parked between tapes. Bounded: beyond [`ARENA_POOL_MAX`] entries
/// a dropped tape's storage is freed instead of pooled, so a transient
/// burst of live tapes does not pin memory forever.
static ARENA_POOL: Mutex<Vec<TapeArena>> = Mutex::new(Vec::new());
const ARENA_POOL_MAX: usize = 4;
/// Tapes created from a pooled (warm) arena vs fresh storage.
static ARENA_REUSED: Counter = Counter::new("tape.arena_reused");
static ARENA_FRESH: Counter = Counter::new("tape.arena_fresh");

/// Gradient accumulators of one reverse walk, one slot per node, plus the
/// buffers the walk has finished with.
struct GradSlots {
    slots: Vec<Option<Vec<f32>>>,
    free: FreeList,
}

/// Buffers a reverse walk has released. Handing them out again instead of
/// returning each to the allocator and asking for a fresh one per node
/// keeps the walk's pages mapped: the sizes recur from layer to layer, so
/// nearly every request finds a buffer.
#[derive(Default)]
struct FreeList(Vec<Vec<f32>>);

impl FreeList {
    /// Buffers shorter than this are not pooled: the allocator serves them
    /// from its small bins without touching new pages, and leaving them
    /// out keeps the list a handful of entries long.
    const MIN_LEN: usize = 1024;

    fn release(&mut self, buf: Vec<f32>) {
        if buf.capacity() >= Self::MIN_LEN {
            self.0.push(buf);
        }
    }

    /// An empty buffer with room for `n` floats: the smallest released one
    /// that holds `n` without being more than twice as large (so a small
    /// request never pins a large buffer), else a fresh allocation.
    fn take(&mut self, n: usize) -> Vec<f32> {
        let fit = self
            .0
            .iter()
            .enumerate()
            .filter(|(_, b)| (n..=2 * n).contains(&b.capacity()))
            .min_by_key(|(_, b)| b.capacity())
            .map(|(i, _)| i);
        match fit {
            Some(i) => {
                let mut buf = self.0.swap_remove(i);
                buf.clear();
                buf
            }
            None => Vec::with_capacity(n),
        }
    }

    /// [`Self::take`], zero-filled to length `n`.
    fn take_zeroed(&mut self, n: usize) -> Vec<f32> {
        let mut buf = self.take(n);
        buf.resize(n, 0.0);
        buf
    }
}

/// A reverse-mode autodiff tape. Create one per forward/backward pass.
pub struct Tape {
    /// Bump arena for node values; `Node.val` ranges index into it.
    buf: Vec<f32>,
    nodes: Vec<Node>,
    /// Longest `buf` has been when a [`Tape::scoped`] call truncated it.
    scoped_peak: usize,
    /// Instant of the previous node record; `Some` iff per-op forward
    /// timing was on (`harp_obs::op_timing_enabled`) at construction.
    /// Because values are computed eagerly, the delta between consecutive
    /// records ≈ the newer op's forward compute time (plus caller glue),
    /// which is what the `tape.fwd.<OpKind>` histograms accumulate.
    fwd_clock: Option<Instant>,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for Tape {
    /// Park this tape's storage in the global arena pool (cleared, with
    /// capacity kept) so the next [`Tape::new`] skips the big allocations.
    fn drop(&mut self) {
        if self.buf.capacity() == 0 && self.nodes.capacity() == 0 {
            return;
        }
        let arena = self.take_arena();
        if let Ok(mut pool) = ARENA_POOL.lock() {
            if pool.len() < ARENA_POOL_MAX {
                pool.push(arena);
            }
        }
    }
}

impl Tape {
    /// An empty tape, backed by a pooled arena when one is parked or by
    /// fresh storage otherwise.
    pub fn new() -> Self {
        let arena = ARENA_POOL.lock().ok().and_then(|mut pool| pool.pop());
        match &arena {
            Some(_) => ARENA_REUSED.add(1),
            None => ARENA_FRESH.add(1),
        }
        Self::with_arena(arena.unwrap_or_default())
    }

    /// An empty tape backed by `arena`'s (cleared) storage.
    fn with_arena(arena: TapeArena) -> Self {
        Tape {
            buf: arena.buf,
            nodes: arena.nodes,
            scoped_peak: 0,
            fwd_clock: harp_obs::op_timing_enabled().then(Instant::now),
        }
    }

    /// This tape's storage, cleared with capacity kept; the tape is left
    /// empty.
    fn take_arena(&mut self) -> TapeArena {
        let peak = self.scoped_peak.max(self.buf.len());
        ARENA_PEAK_BYTES.record((peak * std::mem::size_of::<f32>()) as u64);
        let mut arena = TapeArena {
            buf: std::mem::take(&mut self.buf),
            nodes: std::mem::take(&mut self.nodes),
        };
        arena.clear();
        arena
    }

    /// Run `f`, then forget everything it recorded: the nodes and arena
    /// bytes past where the tape stood on entry are truncated, so a loop
    /// that feeds one large input through the same layers a tile at a time
    /// keeps reusing one cache-sized stretch of the arena instead of
    /// streaming the whole input's intermediates through it.
    ///
    /// A backward walk may run inside `f` as long as it stays inside too:
    /// [`Tape::backward_above`] from a loss recorded in `f` down to a node
    /// recorded before it reads only values that are still there, and
    /// hands back the gradient at that node for a later
    /// [`Tape::backward_seeded_into`] over what lies below. That is how the
    /// trainer runs one head per snapshot over a shared encoder. A walk
    /// that reaches below the scope after it returned needs every value, so
    /// a plain `backward` must not follow a `scoped` whose nodes it would
    /// have visited.
    ///
    /// The one rule: a [`Var`] recorded inside `f` is dead when `scoped`
    /// returns (its index will name whatever is recorded next), so `f`
    /// copies what it wants out of [`Tape::value`] and returns that.
    /// Everything recorded before the call — values, views, parameter
    /// leaves — is untouched, since nothing is ever written below the arena
    /// tail; a parameter injected inside is simply injected again by the
    /// next caller that needs it.
    pub fn scoped<R>(&mut self, f: impl FnOnce(&mut Tape) -> R) -> R {
        let (nodes, len) = (self.nodes.len(), self.buf.len());
        let out = f(self);
        self.scoped_peak = self.scoped_peak.max(self.buf.len());
        self.nodes.truncate(nodes);
        self.buf.truncate(len);
        out
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &[f32] {
        let (o, l) = self.nodes[v.0].val;
        &self.buf[o..o + l]
    }

    /// `(offset, len)` of `v`'s value in the arena buffer.
    fn range(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].val
    }

    /// The shape of `v`.
    pub fn shape(&self, v: Var) -> &Shape {
        &self.nodes[v.0].shape
    }

    /// The scalar value of a 1-element tensor. Panics otherwise.
    pub fn scalar_value(&self, v: Var) -> f32 {
        let n = &self.nodes[v.0];
        assert_eq!(n.val.1, 1, "scalar_value on shape {:?}", n.shape);
        self.buf[n.val.0]
    }

    /// For a [`Tape::max_all`] node: the flat index of the maximum found in
    /// the forward pass.
    pub fn argmax_of(&self, v: Var) -> usize {
        let n = &self.nodes[v.0];
        assert!(
            matches!(n.op, Op::MaxAll(_)),
            "argmax_of requires a max_all node"
        );
        n.aux_idx[0]
    }

    /// For a [`Tape::segment_max`] node: per-segment argmax (indices into
    /// the *input* vector) found in the forward pass.
    pub fn segment_argmax_of(&self, v: Var) -> &[usize] {
        let n = &self.nodes[v.0];
        assert!(
            matches!(n.op, Op::SegmentMax(_, _, _)),
            "segment_argmax_of requires a segment_max node"
        );
        &n.aux_idx
    }

    /// Record a node whose value is everything appended to the arena buffer
    /// since `start` (i.e. `buf[start..]` at the time of the call).
    fn push(&mut self, op: Op, shape: Shape, start: usize) -> Var {
        self.push_aux(op, shape, start, Vec::new(), Vec::new())
    }

    fn push_aux(
        &mut self,
        op: Op,
        shape: Shape,
        start: usize,
        aux_idx: Vec<usize>,
        aux_f: Vec<f32>,
    ) -> Var {
        let len = self.buf.len() - start;
        VALUE_BYTES.add((len * std::mem::size_of::<f32>()) as u64);
        self.push_node(op, shape, (start, len), aux_idx, aux_f)
    }

    /// Record a node whose value is the arena range `val`, appended or
    /// shared with an earlier node.
    fn push_node(
        &mut self,
        op: Op,
        shape: Shape,
        val: (usize, usize),
        aux_idx: Vec<usize>,
        aux_f: Vec<f32>,
    ) -> Var {
        debug_assert_eq!(shape.numel(), val.1, "value/shape mismatch");
        NODES_RECORDED.add(1);
        if let Some(last) = &mut self.fwd_clock {
            let now = Instant::now();
            let ns = u64::try_from(now.duration_since(*last).as_nanos()).unwrap_or(u64::MAX);
            op_histogram(&op, false).record(ns);
            *last = now;
        }
        self.nodes.push(Node {
            op,
            shape,
            val,
            param: None,
            aux_idx,
            aux_f,
        });
        Var(self.nodes.len() - 1)
    }

    // ------------------------------------------------------------------
    // Leaves
    // ------------------------------------------------------------------

    /// A constant tensor (no gradient).
    pub fn constant(&mut self, shape: Vec<usize>, data: Vec<f32>) -> Var {
        self.constant_slice(shape, &data)
    }

    /// [`Self::constant`] from a borrowed slice: copies straight into the
    /// tape arena without requiring an owned `Vec`. This is the right entry
    /// for hot paths that inject a large shared buffer every forward pass
    /// (e.g. a cached embedding table) — one copy instead of clone + copy.
    pub fn constant_slice(&mut self, shape: Vec<usize>, data: &[f32]) -> Var {
        let shape = Shape(shape);
        assert_eq!(shape.numel(), data.len(), "constant: shape/data mismatch");
        let start = self.buf.len();
        self.buf.extend_from_slice(data);
        self.push(Op::Leaf, shape, start)
    }

    /// A constant `[rows.len(), w]` tensor built by gathering rows of a
    /// host-side `[data.len()/w, w]` row-major table straight into the tape
    /// arena. Equivalent (bit-for-bit) to `constant_slice` of the full
    /// table followed by `gather_rows`, but copies only the rows actually
    /// used — the entry for serving paths that index a large epoch-cached
    /// table per request.
    pub fn constant_rows(&mut self, data: &[f32], w: usize, rows: &[usize]) -> Var {
        assert!(w > 0, "constant_rows: zero row width");
        assert_eq!(
            data.len() % w,
            0,
            "constant_rows: data not a multiple of width"
        );
        let nrows = data.len() / w;
        let start = self.buf.len();
        self.buf.reserve(rows.len() * w);
        for &r in rows {
            assert!(r < nrows, "constant_rows: row {r} out of range {nrows}");
            self.buf.extend_from_slice(&data[r * w..(r + 1) * w]);
        }
        self.push(Op::Leaf, Shape(vec![rows.len(), w]), start)
    }

    /// A constant scalar.
    pub fn scalar(&mut self, v: f32) -> Var {
        let start = self.buf.len();
        self.buf.push(v);
        self.push(Op::Leaf, Shape::scalar(), start)
    }

    /// A constant tensor of zeros.
    pub fn zeros(&mut self, shape: Vec<usize>) -> Var {
        let shape = Shape(shape);
        let n = shape.numel();
        let start = self.buf.len();
        self.buf.resize(start + n, 0.0);
        self.push(Op::Leaf, shape, start)
    }

    /// Inject a parameter from `store` as a differentiable leaf; gradients
    /// accumulate into the store on [`Tape::backward`].
    pub fn param(&mut self, store: &ParamStore, id: ParamId) -> Var {
        let start = self.buf.len();
        self.buf.extend_from_slice(store.data(id));
        let v = self.push(Op::Leaf, store.shape(id).clone(), start);
        self.nodes[v.0].param = Some(id);
        v
    }

    // ------------------------------------------------------------------
    // Elementwise binary
    // ------------------------------------------------------------------

    fn assert_same_shape(&self, a: Var, b: Var, what: &str) {
        assert_eq!(
            self.nodes[a.0].shape, self.nodes[b.0].shape,
            "{}: shape mismatch {:?} vs {:?}",
            what, self.nodes[a.0].shape, self.nodes[b.0].shape
        );
    }

    /// Copy `a`'s value to the buffer tail and combine it in place with
    /// `b`'s value: `tail[i] = f(a[i], b[i])`.
    fn binary(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f32, f32) -> f32) -> Var {
        let (ao, alen) = self.range(a);
        let (bo, _) = self.range(b);
        let start = self.buf.len();
        self.buf.extend_from_within(ao..ao + alen);
        let (head, tail) = self.buf.split_at_mut(start);
        for (t, &s) in tail.iter_mut().zip(&head[bo..bo + alen]) {
            *t = f(*t, s);
        }
        let sh = self.nodes[a.0].shape.clone();
        self.push(op, sh, start)
    }

    /// Elementwise `a + b` (identical shapes).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.assert_same_shape(a, b, "add");
        self.binary(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Elementwise `a * b` (identical shapes).
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.assert_same_shape(a, b, "mul");
        self.binary(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    // ------------------------------------------------------------------
    // Elementwise unary
    // ------------------------------------------------------------------

    /// Copy `a`'s value to the buffer tail and map it in place.
    fn unary(&mut self, a: Var, op: Op, f: impl Fn(f32) -> f32) -> Var {
        let (ao, alen) = self.range(a);
        let start = self.buf.len();
        self.buf.extend_from_within(ao..ao + alen);
        for x in &mut self.buf[start..] {
            *x = f(*x);
        }
        let sh = self.nodes[a.0].shape.clone();
        self.push(op, sh, start)
    }

    /// Elementwise natural log.
    pub fn ln(&mut self, a: Var) -> Var {
        self.unary(a, Op::Ln(a), f32::ln)
    }

    /// Elementwise ReLU.
    pub fn relu(&mut self, a: Var) -> Var {
        self.unary(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Elementwise leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&mut self, a: Var, alpha: f32) -> Var {
        self.unary(a, Op::LeakyRelu(a, alpha), move |x| {
            if x > 0.0 {
                x
            } else {
                alpha * x
            }
        })
    }

    /// Elementwise tanh.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.unary(a, Op::Tanh(a), f32::tanh)
    }

    /// `a * c` for a constant `c`.
    pub fn mul_scalar(&mut self, a: Var, c: f32) -> Var {
        self.unary(a, Op::MulScalar(a, c), move |x| x * c)
    }

    /// `a + c` for a constant `c`.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.unary(a, Op::AddScalar(a, c), move |x| x + c)
    }

    /// Guarded reciprocal `1 / max(a, eps)`.
    pub fn recip(&mut self, a: Var, eps: f32) -> Var {
        assert!(eps > 0.0, "recip: eps must be positive");
        self.unary(a, Op::Recip(a, eps), move |x| 1.0 / x.max(eps))
    }

    // ------------------------------------------------------------------
    // Broadcast helpers
    // ------------------------------------------------------------------

    /// Add a row vector `b` (length = last dim of `a`) to every row of `a`.
    pub fn add_bias(&mut self, a: Var, b: Var) -> Var {
        let w = self.nodes[a.0].shape.last_dim();
        assert_eq!(
            self.nodes[b.0].shape.numel(),
            w,
            "add_bias: bias length {} vs last dim {}",
            self.nodes[b.0].shape.numel(),
            w
        );
        let (ao, alen) = self.range(a);
        let (bo, _) = self.range(b);
        let start = self.buf.len();
        self.buf.extend_from_within(ao..ao + alen);
        let (head, tail) = self.buf.split_at_mut(start);
        let bias = &head[bo..bo + w];
        // whole rows zipped with the bias: no index arithmetic, so the
        // compiler drops the bounds checks and vectorises the row
        for row in tail.chunks_exact_mut(w) {
            for (x, b) in row.iter_mut().zip(bias) {
                *x += b;
            }
        }
        let sh = self.nodes[a.0].shape.clone();
        self.push(Op::AddBias(a, b), sh, start)
    }

    /// Multiply every row of `a` elementwise by a row vector `b`.
    pub fn mul_row(&mut self, a: Var, b: Var) -> Var {
        let w = self.nodes[a.0].shape.last_dim();
        assert_eq!(
            self.nodes[b.0].shape.numel(),
            w,
            "mul_row: row length mismatch"
        );
        let (ao, alen) = self.range(a);
        let (bo, _) = self.range(b);
        let start = self.buf.len();
        self.buf.extend_from_within(ao..ao + alen);
        let (head, tail) = self.buf.split_at_mut(start);
        let scale = &head[bo..bo + w];
        for row in tail.chunks_exact_mut(w) {
            for (x, s) in row.iter_mut().zip(scale) {
                *x *= s;
            }
        }
        let sh = self.nodes[a.0].shape.clone();
        self.push(Op::MulRow(a, b), sh, start)
    }

    /// Replicate a 1-element tensor into a rank-1 vector of length `n`.
    pub fn broadcast_scalar(&mut self, a: Var, n: usize) -> Var {
        assert_eq!(
            self.nodes[a.0].val.1, 1,
            "broadcast_scalar: input must have one element"
        );
        let x = self.buf[self.nodes[a.0].val.0];
        let start = self.buf.len();
        self.buf.resize(start + n, x);
        self.push(Op::BroadcastScalar(a, n), Shape(vec![n]), start)
    }

    // ------------------------------------------------------------------
    // Linear algebra
    // ------------------------------------------------------------------

    /// Matrix product `[m,k] x [k,n]`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, k) = self.nodes[a.0].shape.as_matrix();
        let (k2, n) = self.nodes[b.0].shape.as_matrix();
        assert_eq!(k, k2, "matmul: inner dims {} vs {}", k, k2);
        let (ao, alen) = self.range(a);
        let (bo, blen) = self.range(b);
        let start = self.buf.len();
        self.buf.resize(start + m * n, 0.0);
        let (head, tail) = self.buf.split_at_mut(start);
        kernels::matmul_into(&head[ao..ao + alen], &head[bo..bo + blen], m, k, n, tail);
        self.push(Op::MatMul(a, b), Shape(vec![m, n]), start)
    }

    /// Fused affine map `act((init | 0) ⊕ x · w[k0..k0 + k] + bias)`: one
    /// kernel pass over `x: [m, k]` and rows `k0..k0 + k` of the stored
    /// weight `w: [in, n]`, plus an optional length-`n` bias row and an
    /// optional `[m, n]` seed the accumulators start from.
    ///
    /// Values and every gradient are bitwise-equal to the unfused chain
    /// `concat_cols([x0, x]) → matmul(w) → add_bias → activation` with
    /// `init = matmul(x0, w[0..k0])` (or, with no seed and `k0 = 0`, to
    /// `matmul → add_bias → activation`); see [`kernels::affine_into`] for
    /// why. A `LeakyRelu` slope must be positive: backward recovers the
    /// pre-activation sign from the saved output, which requires a
    /// sign-preserving activation.
    pub fn affine(
        &mut self,
        x: Var,
        w: Var,
        k0: usize,
        bias: Option<Var>,
        init: Option<Var>,
        act: AffineAct,
    ) -> Var {
        let (m, k) = self.nodes[x.0].shape.as_matrix();
        let (w_rows, n) = self.nodes[w.0].shape.as_matrix();
        assert!(
            k0 + k <= w_rows,
            "affine: weight rows {k0}..{} out of {w_rows}",
            k0 + k
        );
        if let Some(b) = bias {
            assert_eq!(
                self.nodes[b.0].shape.numel(),
                n,
                "affine: bias length {} vs out cols {}",
                self.nodes[b.0].shape.numel(),
                n
            );
        }
        if let Some(i) = init {
            assert_eq!(
                self.nodes[i.0].shape.as_matrix(),
                (m, n),
                "affine: init shape {:?} vs output [{m}, {n}]",
                self.nodes[i.0].shape
            );
        }
        if let AffineAct::LeakyRelu(alpha) = act {
            assert!(alpha > 0.0, "affine: leaky slope must be positive");
        }
        let (xo, xlen) = self.range(x);
        let wo = self.range(w).0 + k0 * n;
        let start = self.buf.len();
        self.buf.resize(start + m * n, 0.0);
        let (head, tail) = self.buf.split_at_mut(start);
        let slice = |v: Var| {
            let (o, l) = self.nodes[v.0].val;
            &head[o..o + l]
        };
        kernels::affine_into(
            &head[xo..xo + xlen],
            &head[wo..wo + k * n],
            bias.map(slice),
            init.map(slice),
            act,
            m,
            k,
            n,
            tail,
        );
        let op = Op::Affine {
            x,
            w,
            k0,
            bias,
            init,
            act,
        };
        self.push(op, Shape(vec![m, n]), start)
    }

    /// Batched matrix product `[b,m,k] x [b,k,n]`.
    pub fn batch_matmul(&mut self, a: Var, b: Var) -> Var {
        let (ba, m, k) = self.nodes[a.0].shape.as_batched();
        let (bb, k2, n) = self.nodes[b.0].shape.as_batched();
        assert_eq!(ba, bb, "batch_matmul: batch dims {} vs {}", ba, bb);
        assert_eq!(k, k2, "batch_matmul: inner dims {} vs {}", k, k2);
        let (ao, _) = self.range(a);
        let (bo, _) = self.range(b);
        let start = self.buf.len();
        self.buf.resize(start + ba * m * n, 0.0);
        let (head, tail) = self.buf.split_at_mut(start);
        for i in 0..ba {
            kernels::matmul_into(
                &head[ao + i * m * k..ao + (i + 1) * m * k],
                &head[bo + i * k * n..bo + (i + 1) * k * n],
                m,
                k,
                n,
                &mut tail[i * m * n..(i + 1) * m * n],
            );
        }
        self.push(Op::BatchMatMul(a, b), Shape(vec![ba, m, n]), start)
    }

    /// Swap the last two axes of a rank-2 or rank-3 tensor.
    pub fn transpose_last2(&mut self, a: Var) -> Var {
        let sh = &self.nodes[a.0].shape;
        let (batches, m, n, out_shape) = match sh.rank() {
            2 => {
                let (m, n) = sh.as_matrix();
                (1, m, n, Shape(vec![n, m]))
            }
            3 => {
                let (b, m, n) = sh.as_batched();
                (b, m, n, Shape(vec![b, n, m]))
            }
            // lint: allow(panic) — documented API contract (rank 2 or 3)
            r => panic!("transpose_last2: rank must be 2 or 3, got {}", r),
        };
        let (ao, _) = self.range(a);
        let start = self.buf.len();
        self.buf.resize(start + batches * m * n, 0.0);
        let (head, tail) = self.buf.split_at_mut(start);
        for t in 0..batches {
            let src = &head[ao + t * m * n..ao + (t + 1) * m * n];
            let dst = &mut tail[t * m * n..(t + 1) * m * n];
            for i in 0..m {
                for j in 0..n {
                    dst[j * m + i] = src[i * n + j];
                }
            }
        }
        self.push(Op::TransposeLast2(a), out_shape, start)
    }

    /// Fused scaled-dot-product attention over `[b, s, hd]` tensors:
    /// `softmax(q kᵀ · scale) v` per sequence, `score_mask` as in
    /// [`Tape::softmax_last_dim`] (length `s`, or a full `[b, s, s]` mask).
    ///
    /// One node instead of `transpose_last2` → `batch_matmul` →
    /// `mul_scalar` → `softmax_last_dim` → `batch_matmul`, with values and
    /// every input gradient bitwise-equal to that chain (see
    /// [`kernels::attention_forward`]); only the softmax rows are kept, as
    /// the node's side channel for backward.
    pub fn attention(
        &mut self,
        q: Var,
        k: Var,
        v: Var,
        scale: f32,
        score_mask: Option<Arc<Vec<f32>>>,
    ) -> Var {
        let shape = self.nodes[q.0].shape.clone();
        let (b, s, hd) = shape.as_batched();
        for (x, what) in [(k, "k"), (v, "v")] {
            assert_eq!(
                self.nodes[x.0].shape, shape,
                "attention: {what} shape {:?} vs q shape {:?}",
                self.nodes[x.0].shape, shape
            );
        }
        let (qo, len) = self.range(q);
        let (ko, _) = self.range(k);
        let (vo, _) = self.range(v);
        let mut att = vec![0.0f32; b * s * s];
        let start = self.buf.len();
        self.buf.resize(start + len, 0.0);
        let (head, tail) = self.buf.split_at_mut(start);
        kernels::attention_forward(
            &head[qo..qo + len],
            &head[ko..ko + len],
            &head[vo..vo + len],
            b,
            s,
            hd,
            scale,
            score_mask.as_ref().map(|m| m.as_slice()),
            &mut att,
            tail,
        );
        self.push_aux(
            Op::Attention(q, k, v, scale, score_mask),
            shape,
            start,
            Vec::new(),
            att,
        )
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Reinterpret `a` with a new shape of equal element count. The result
    /// is a view: it shares `a`'s arena range, so no value is copied.
    pub fn reshape(&mut self, a: Var, shape: Vec<usize>) -> Var {
        let shape = Shape(shape);
        assert_eq!(
            shape.numel(),
            self.nodes[a.0].val.1,
            "reshape: {:?} -> {:?} changes element count",
            self.nodes[a.0].shape,
            shape
        );
        let val = self.range(a);
        self.push_node(Op::Reshape(a), shape, val, Vec::new(), Vec::new())
    }

    /// Concatenate rank-2 tensors along the last axis.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let rows = self.nodes[parts[0].0].shape.leading_rows();
        let mut widths = Vec::with_capacity(parts.len());
        let mut offs = Vec::with_capacity(parts.len());
        for &p in parts {
            assert_eq!(
                self.nodes[p.0].shape.leading_rows(),
                rows,
                "concat_cols: row counts differ"
            );
            widths.push(self.nodes[p.0].shape.last_dim());
            offs.push(self.nodes[p.0].val.0);
        }
        let total_w: usize = widths.iter().sum();
        let start = self.buf.len();
        // Row-major tight copy loop (not per-row extend_from_within): this
        // runs every RAU iteration on [tunnels, d_model + features] inputs,
        // where per-call overhead dominates the actual copying. Writing
        // each output row contiguously keeps stores sequential.
        self.buf.resize(start + rows * total_w, 0.0);
        let (head, tail) = self.buf.split_at_mut(start);
        for (r, out_row) in tail.chunks_exact_mut(total_w).enumerate() {
            let mut col = 0usize;
            for (&w, &o) in widths.iter().zip(&offs) {
                if w == 1 {
                    out_row[col] = head[o + r];
                } else {
                    out_row[col..col + w].copy_from_slice(&head[o + r * w..o + (r + 1) * w]);
                }
                col += w;
            }
        }
        self.push(
            Op::ConcatCols(parts.to_vec()),
            Shape(vec![rows, total_w]),
            start,
        )
    }

    /// Concatenate tensors along axis 0 (rank-1: lengths add; rank-2: rows
    /// add, equal column counts).
    pub fn concat_rows(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let rank1 = self.nodes[parts[0].0].shape.rank() <= 1;
        let start = self.buf.len();
        if rank1 {
            for &p in parts {
                assert!(
                    self.nodes[p.0].shape.rank() <= 1,
                    "concat_rows: mixed ranks"
                );
                let (o, l) = self.range(p);
                self.buf.extend_from_within(o..o + l);
            }
            let n = self.buf.len() - start;
            self.push(Op::ConcatRows(parts.to_vec()), Shape(vec![n]), start)
        } else {
            let cols = self.nodes[parts[0].0].shape.last_dim();
            let mut rows = 0;
            for &p in parts {
                assert_eq!(
                    self.nodes[p.0].shape.last_dim(),
                    cols,
                    "concat_rows: column counts differ"
                );
                rows += self.nodes[p.0].shape.leading_rows();
                let (o, l) = self.range(p);
                self.buf.extend_from_within(o..o + l);
            }
            self.push(
                Op::ConcatRows(parts.to_vec()),
                Shape(vec![rows, cols]),
                start,
            )
        }
    }

    /// Select rows of a rank-2 tensor (or elements of a rank-1 tensor) by
    /// index, with repetition allowed.
    pub fn gather_rows(&mut self, a: Var, idx: Arc<Vec<usize>>) -> Var {
        let sh = &self.nodes[a.0].shape;
        let (rows, w, out_shape) = match sh.rank() {
            1 => (sh.dim(0), 1usize, Shape(vec![idx.len()])),
            2 => (sh.dim(0), sh.dim(1), Shape(vec![idx.len(), sh.dim(1)])),
            // lint: allow(panic) — documented API contract (rank 1 or 2)
            r => panic!("gather_rows: rank must be 1 or 2, got {}", r),
        };
        let (ao, _) = self.range(a);
        let start = self.buf.len();
        // Tight copy loops: gathers run several times per RAU iteration
        // over (tunnel, edge) incidence pairs, so per-element
        // extend_from_within overhead is the dominant cost, not the copy.
        self.buf.resize(start + idx.len() * w, 0.0);
        let (head, tail) = self.buf.split_at_mut(start);
        let src = &head[ao..ao + rows * w];
        if w == 1 {
            for (out, &i) in tail.iter_mut().zip(idx.iter()) {
                assert!(i < rows, "gather_rows: index {} out of {} rows", i, rows);
                *out = src[i];
            }
        } else {
            for (out, &i) in tail.chunks_exact_mut(w).zip(idx.iter()) {
                assert!(i < rows, "gather_rows: index {} out of {} rows", i, rows);
                out.copy_from_slice(&src[i * w..(i + 1) * w]);
            }
        }
        self.push(Op::GatherRows(a, idx), out_shape, start)
    }

    // ------------------------------------------------------------------
    // Reductions
    // ------------------------------------------------------------------

    /// Sum of all elements (scalar output).
    pub fn sum_all(&mut self, a: Var) -> Var {
        let s: f32 = self.value(a).iter().sum();
        let start = self.buf.len();
        self.buf.push(s);
        self.push(Op::SumAll(a), Shape::scalar(), start)
    }

    /// Maximum element (scalar output; subgradient to the first argmax).
    pub fn max_all(&mut self, a: Var) -> Var {
        let vals = self.value(a);
        assert!(!vals.is_empty(), "max_all: empty tensor");
        let mut best = 0usize;
        for (i, &x) in vals.iter().enumerate() {
            if x > vals[best] {
                best = i;
            }
        }
        let m = vals[best];
        let start = self.buf.len();
        self.buf.push(m);
        self.push_aux(Op::MaxAll(a), Shape::scalar(), start, vec![best], vec![])
    }

    // ------------------------------------------------------------------
    // Segment ops
    // ------------------------------------------------------------------

    /// Scatter-add rows (or scalars for rank-1 input) into `n_segments`
    /// buckets: `out[seg[i]] += in[i]`.
    pub fn segment_sum(&mut self, a: Var, seg: Arc<Vec<usize>>, n_segments: usize) -> Var {
        let sh = &self.nodes[a.0].shape;
        let (rows, w, out_shape) = match sh.rank() {
            1 => (sh.dim(0), 1usize, Shape(vec![n_segments])),
            2 => (sh.dim(0), sh.dim(1), Shape(vec![n_segments, sh.dim(1)])),
            // lint: allow(panic) — documented API contract (rank 1 or 2)
            r => panic!("segment_sum: rank must be 1 or 2, got {}", r),
        };
        assert_eq!(seg.len(), rows, "segment_sum: segment index length");
        let (ao, _) = self.range(a);
        let start = self.buf.len();
        self.buf.resize(start + n_segments * w, 0.0);
        let (head, tail) = self.buf.split_at_mut(start);
        if w == 1 {
            // Accumulate runs of equal segment indices in a register (the
            // pair arrays are grouped by tunnel, so runs are long), storing
            // once per run. Element visit order per segment is unchanged,
            // and `acc = tail[s]; acc += x..; tail[s] = acc` is the same
            // left-associated chain as `tail[s] += x` one at a time, so the
            // bits match for any index order.
            let n = seg.len();
            let mut i = 0;
            while i < n {
                let s = seg[i];
                assert!(s < n_segments, "segment_sum: segment {} out of range", s);
                let mut acc = tail[s];
                let mut j = i;
                while j < n && seg[j] == s {
                    acc += head[ao + j];
                    j += 1;
                }
                tail[s] = acc;
                i = j;
            }
        } else {
            for (i, &s) in seg.iter().enumerate() {
                assert!(s < n_segments, "segment_sum: segment {} out of range", s);
                for j in 0..w {
                    tail[s * w + j] += head[ao + i * w + j];
                }
            }
        }
        self.push(Op::SegmentSum(a, seg, n_segments), out_shape, start)
    }

    /// Per-segment maximum of a rank-1 tensor. Every segment must receive at
    /// least one element. Subgradient to each segment's argmax.
    pub fn segment_max(&mut self, a: Var, seg: Arc<Vec<usize>>, n_segments: usize) -> Var {
        assert_eq!(self.nodes[a.0].shape.rank(), 1, "segment_max: rank-1 only");
        let (ao, alen) = self.range(a);
        assert_eq!(seg.len(), alen, "segment_max: segment index length");
        let mut best = vec![usize::MAX; n_segments];
        // Track the running maximum alongside the argmax so the scan never
        // re-reads vals[best[s]] (a second random access per element). The
        // comparison sequence is unchanged: bestv[s] mirrors vals[best[s]]
        // exactly, including NaN propagation.
        let mut bestv = vec![f32::NEG_INFINITY; n_segments];
        {
            let vals = &self.buf[ao..ao + alen];
            // Scan runs of equal segment indices with the running
            // (argmax, max) in registers, touching best[s]/bestv[s] once
            // per run. A segment's first element is taken unconditionally
            // before the loop, which then only asks "strictly greater?" and
            // updates both registers by select. The comparison sequence per
            // segment is exactly the naive per-element loop's, so the
            // result is identical (including NaN handling) for any index
            // order.
            let mut i = 0;
            while i < alen {
                let s = seg[i];
                assert!(s < n_segments, "segment_max: segment {} out of range", s);
                let (mut bi, mut bv) = (best[s], bestv[s]);
                let mut j = i;
                if bi == usize::MAX {
                    (bi, bv) = (i, vals[i]);
                    j += 1;
                }
                while j < alen && seg[j] == s {
                    let greater = vals[j] > bv;
                    bi = if greater { j } else { bi };
                    bv = if greater { vals[j] } else { bv };
                    j += 1;
                }
                best[s] = bi;
                bestv[s] = bv;
                i = j;
            }
        }
        let start = self.buf.len();
        self.buf.reserve(n_segments);
        for (s, &b) in best.iter().enumerate() {
            assert!(b != usize::MAX, "segment_max: segment {} is empty", s);
            let x = self.buf[ao + b];
            self.buf.push(x);
        }
        self.push_aux(
            Op::SegmentMax(a, seg, n_segments),
            Shape(vec![n_segments]),
            start,
            best,
            vec![],
        )
    }

    /// Softmax within each segment of a rank-1 tensor (segments need not be
    /// contiguous). This is the per-flow split-ratio normalization.
    pub fn segment_softmax(&mut self, a: Var, seg: Arc<Vec<usize>>, n_segments: usize) -> Var {
        assert_eq!(
            self.nodes[a.0].shape.rank(),
            1,
            "segment_softmax: rank-1 only"
        );
        let (ao, alen) = self.range(a);
        assert_eq!(seg.len(), alen, "segment_softmax: segment index length");
        // The max, sum and divide passes walk runs of equal segment indices,
        // keeping the per-segment state in registers across a run; between
        // them one `exp` pass covers the whole block. Per-segment visit
        // order and arithmetic association are the naive loops', so results
        // are bitwise-identical for any order.
        let mut mx = vec![f32::NEG_INFINITY; n_segments];
        {
            let vals = &self.buf[ao..ao + alen];
            let mut i = 0;
            while i < alen {
                let s = seg[i];
                assert!(s < n_segments, "segment_softmax: segment out of range");
                let mut m = mx[s];
                let mut j = i;
                while j < alen && seg[j] == s {
                    if vals[j] > m {
                        m = vals[j];
                    }
                    j += 1;
                }
                mx[s] = m;
                i = j;
            }
        }
        let start = self.buf.len();
        self.buf.extend_from_within(ao..ao + alen);
        {
            let out = &mut self.buf[start..];
            for (v, &s) in out.iter_mut().zip(seg.iter()) {
                *v -= mx[s];
            }
            kernels::expf_inplace(out);
            let mut sums = vec![0.0f32; n_segments];
            let mut i = 0;
            while i < alen {
                let s = seg[i];
                let mut acc = sums[s];
                let mut j = i;
                while j < alen && seg[j] == s {
                    acc += out[j];
                    j += 1;
                }
                sums[s] = acc;
                i = j;
            }
            let mut i = 0;
            while i < alen {
                let s = seg[i];
                let d = sums[s];
                let mut j = i;
                while j < alen && seg[j] == s {
                    if d > 0.0 {
                        out[j] /= d;
                    }
                    j += 1;
                }
                i = j;
            }
        }
        let sh = self.nodes[a.0].shape.clone();
        self.push(Op::SegmentSoftmax(a, seg, n_segments), sh, start)
    }

    // ------------------------------------------------------------------
    // Softmax / normalization
    // ------------------------------------------------------------------

    /// Softmax over the last axis. `mask` (if given) must have length equal
    /// to either the full element count or the last dimension; entries equal
    /// to zero are excluded (probability 0).
    pub fn softmax_last_dim(&mut self, a: Var, mask: Option<Arc<Vec<f32>>>) -> Var {
        let w = self.nodes[a.0].shape.last_dim();
        let (ao, alen) = self.range(a);
        let start = self.buf.len();
        self.buf.extend_from_within(ao..ao + alen);
        kernels::softmax_rows(
            &mut self.buf[start..],
            w,
            mask.as_deref().map(Vec::as_slice),
        );
        let sh = self.nodes[a.0].shape.clone();
        self.push(Op::SoftmaxLastDim(a, mask), sh, start)
    }

    /// Layer normalization over the last axis (no affine transform).
    pub fn layer_norm(&mut self, a: Var, eps: f32) -> Var {
        let w = self.nodes[a.0].shape.last_dim();
        let rows = self.nodes[a.0].shape.leading_rows();
        assert!(w > 0, "layer_norm: zero-width rows");
        let (ao, alen) = self.range(a);
        let start = self.buf.len();
        self.buf.extend_from_within(ao..ao + alen);
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = &mut self.buf[start + r * w..start + (r + 1) * w];
            let mean: f32 = row.iter().sum::<f32>() / w as f32;
            let var: f32 = row.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / w as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            for x in row.iter_mut() {
                *x = (*x - mean) * inv_std;
            }
            inv_stds.push(inv_std);
        }
        let sh = self.nodes[a.0].shape.clone();
        self.push_aux(Op::LayerNorm(a, eps), sh, start, vec![], inv_stds)
    }

    // ------------------------------------------------------------------
    // Backward
    // ------------------------------------------------------------------

    /// Run reverse-mode differentiation from the scalar `loss`, accumulating
    /// parameter gradients into `store` (added to any existing gradients, so
    /// multiple backward passes accumulate like a batch).
    pub fn backward(&self, loss: Var, store: &mut ParamStore) {
        self.assert_scalar(loss);
        self.for_each_param_grad(loss, vec![1.0], 0, |pid, g| {
            for (d, s) in store.grad_mut(pid).iter_mut().zip(g) {
                *d += *s;
            }
        });
    }

    /// Like [`Tape::backward`], but accumulate parameter gradients into a
    /// detached [`crate::GradBuffer`] instead of the store itself.
    ///
    /// This is the data-parallel training primitive: workers share a
    /// `&ParamStore` for forward passes while each batch item accumulates
    /// into a buffer of its own; the buffers are then folded serially in
    /// item order ([`ParamStore::merge_grads`]), so the result is the same
    /// bits at every worker count.
    pub fn backward_into(&self, loss: Var, buf: &mut crate::GradBuffer) {
        self.assert_scalar(loss);
        self.for_each_param_grad(loss, vec![1.0], 0, |pid, g| buf.add(pid, g));
    }

    /// The upper half of [`Tape::backward_into`], split at `boundary`: walk
    /// from the scalar `loss` down to the node just above `boundary`,
    /// accumulate the gradients of the parameter leaves on the way into
    /// `buf`, and return the gradient that reached `boundary` (zeros when
    /// none did). [`Tape::backward_seeded_into`] from `boundary` with that
    /// gradient finishes the walk, and the two together leave `buf` with the
    /// bits `backward_into` gives when no parameter has leaves on both
    /// sides.
    ///
    /// Everything below `boundary` must reach the loss through `boundary`
    /// alone — the trainer's head reads the encoder only through its output
    /// table — since a gradient landing lower would be lost; the walk
    /// asserts that none did.
    pub fn backward_above(
        &self,
        loss: Var,
        boundary: Var,
        buf: &mut crate::GradBuffer,
    ) -> Vec<f32> {
        self.assert_scalar(loss);
        assert!(
            boundary.0 < loss.0,
            "backward_above: boundary {} is not below the loss {}",
            boundary.0,
            loss.0
        );
        let mut grads =
            self.for_each_param_grad(loss, vec![1.0], boundary.0 + 1, |pid, g| buf.add(pid, g));
        let below = grads[..boundary.0].iter().position(Option::is_some);
        assert!(
            below.is_none(),
            "backward_above: node {below:?} below the boundary {} got a gradient around it",
            boundary.0
        );
        let len = self.nodes[boundary.0].val.1;
        grads[boundary.0].take().unwrap_or_else(|| vec![0.0; len])
    }

    /// Walk back from `root`, whose gradient is `seed` (one value per
    /// element of `root`), to the leaves, accumulating parameter gradients
    /// into `buf`. With `seed` from [`Tape::backward_above`] this is the
    /// lower half of [`Tape::backward_into`]; with the sum of several such
    /// seeds it is one walk over a subgraph that several losses share, which
    /// gives `Jᵀ(Σ dᵢ)` where separate walks give `Σ Jᵀdᵢ` — equal up to
    /// rounding.
    pub fn backward_seeded_into(&self, root: Var, seed: Vec<f32>, buf: &mut crate::GradBuffer) {
        assert_eq!(
            seed.len(),
            self.nodes[root.0].val.1,
            "backward_seeded_into: seed length does not match {:?}",
            self.nodes[root.0].shape
        );
        self.for_each_param_grad(root, seed, 0, |pid, g| buf.add(pid, g));
    }

    /// Compute gradients of the scalar `loss` with respect to every node.
    /// Returns one optional buffer per node (None = not on any path to the
    /// loss). Mostly useful for testing; training uses [`Tape::backward`].
    pub fn gradients(&self, loss: Var) -> Vec<Option<Vec<f32>>> {
        self.assert_scalar(loss);
        self.reverse_walk(loss, vec![1.0], 0, |_| true)
    }

    fn assert_scalar(&self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].val.1, 1,
            "backward: loss must be scalar, got shape {:?}",
            self.nodes[loss.0].shape
        );
    }

    /// The training walk ([`Self::reverse_walk`] from `root` down to node
    /// `lowest`): hand `f` the gradient of every parameter leaf the walk
    /// passed, in recording order. A non-parameter node's gradient is
    /// released as soon as it has been propagated, so the walk reuses its
    /// buffer for the nodes still to come instead of holding one per node
    /// to the end. Returns the slots, where the gradients that reached
    /// below `lowest` still sit.
    fn for_each_param_grad(
        &self,
        root: Var,
        seed: Vec<f32>,
        lowest: usize,
        mut f: impl FnMut(ParamId, &[f32]),
    ) -> Vec<Option<Vec<f32>>> {
        let grads = self.reverse_walk(root, seed, lowest, |node| node.param.is_some());
        for (node, g) in self.nodes[lowest..].iter().zip(&grads[lowest..]) {
            if let (Some(pid), Some(g)) = (node.param, g) {
                f(pid, g);
            }
        }
        grads
    }

    /// The parameters injected with [`Tape::param`] whose leaf is not an
    /// ancestor of `loss`, one entry per such leaf in recording order. No
    /// gradient reaches them for any input, so training would leave them
    /// where they started; `train_model`'s debug pre-flight rejects a model
    /// whose training graph has one.
    pub fn unreachable_params(&self, loss: Var) -> Vec<ParamId> {
        let mut reaches = vec![false; self.nodes.len()];
        reaches[loss.0] = true;
        for i in (0..=loss.0).rev() {
            if reaches[i] {
                for input in self.nodes[i].op.inputs() {
                    reaches[input.0] = true;
                }
            }
        }
        self.nodes
            .iter()
            .zip(reaches)
            .filter_map(|(node, reaches)| node.param.filter(|_| !reaches))
            .collect()
    }

    /// Propagate `seed`, the gradient at `root`, back through the nodes
    /// from `root` down to `lowest`. A node's gradient is complete once the
    /// walk reaches it (every consumer has a higher index); it is
    /// propagated to the node's inputs and then retained in the result only
    /// if `keep` says so. A buffer that is not retained goes to the walk's
    /// free list, from which later nodes take theirs. Gradients propagated
    /// to nodes below `lowest` are left in their slots untouched.
    fn reverse_walk(
        &self,
        root: Var,
        seed: Vec<f32>,
        lowest: usize,
        keep: impl Fn(&Node) -> bool,
    ) -> Vec<Option<Vec<f32>>> {
        BACKWARD_PASSES.add(1);
        let mut grads = GradSlots {
            slots: vec![None; self.nodes.len()],
            free: FreeList::default(),
        };
        grads.slots[root.0] = Some(seed);

        let op_timing = harp_obs::op_timing_enabled();
        for i in (lowest..=root.0).rev() {
            let g = match grads.slots[i].take() {
                Some(g) => g,
                None => continue,
            };
            let node = &self.nodes[i];
            let kept = keep(node);
            let t0 = op_timing.then(Instant::now);
            let g = match node.op {
                // A view's gradient *is* its input's: while the input has
                // none yet, hand the finished buffer over instead of adding
                // it to fresh zeros.
                Op::Reshape(a) if grads.slots[a.0].is_none() => {
                    if kept {
                        grads.slots[a.0] = Some(g.clone());
                        Some(g)
                    } else {
                        grads.slots[a.0] = Some(g);
                        None
                    }
                }
                _ => {
                    self.backprop_node(i, &g, &mut grads);
                    Some(g)
                }
            };
            if let Some(t0) = t0 {
                let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                op_histogram(&node.op, true).record(ns);
            }
            match g {
                Some(g) if kept => grads.slots[i] = Some(g),
                Some(g) => grads.free.release(g),
                None => {}
            }
        }
        grads.slots
    }

    fn grad_buf<'a>(&self, grads: &'a mut GradSlots, v: Var) -> &'a mut Vec<f32> {
        let n = self.nodes[v.0].val.1;
        let GradSlots { slots, free } = grads;
        slots[v.0].get_or_insert_with(|| free.take_zeroed(n))
    }

    #[allow(clippy::too_many_lines)]
    fn backprop_node(&self, i: usize, dy: &[f32], grads: &mut GradSlots) {
        use Op::*;
        let node = &self.nodes[i];
        match &node.op {
            Leaf => {}

            Add(a, b) => {
                let ga = self.grad_buf(grads, *a);
                for (g, d) in ga.iter_mut().zip(dy) {
                    *g += d;
                }
                let gb = self.grad_buf(grads, *b);
                for (g, d) in gb.iter_mut().zip(dy) {
                    *g += d;
                }
            }
            Mul(a, b) => {
                let (av, bv) = (self.value(*a), self.value(*b));
                {
                    let ga = self.grad_buf(grads, *a);
                    for ((g, d), x) in ga.iter_mut().zip(dy).zip(bv) {
                        *g += d * x;
                    }
                }
                let gb = self.grad_buf(grads, *b);
                for ((g, d), x) in gb.iter_mut().zip(dy).zip(av) {
                    *g += d * x;
                }
            }
            Ln(a) => {
                let xv = self.value(*a);
                let ga = self.grad_buf(grads, *a);
                for ((g, d), x) in ga.iter_mut().zip(dy).zip(xv) {
                    *g += d / x;
                }
            }
            Relu(a) => {
                let xv = self.value(*a);
                let ga = self.grad_buf(grads, *a);
                for ((g, d), x) in ga.iter_mut().zip(dy).zip(xv) {
                    if *x > 0.0 {
                        *g += d;
                    }
                }
            }
            LeakyRelu(a, alpha) => {
                let xv = self.value(*a);
                let ga = self.grad_buf(grads, *a);
                for ((g, d), x) in ga.iter_mut().zip(dy).zip(xv) {
                    *g += d * if *x > 0.0 { 1.0 } else { *alpha };
                }
            }
            Tanh(a) => {
                let yv = self.value(Var(i));
                let ga = self.grad_buf(grads, *a);
                for ((g, d), y) in ga.iter_mut().zip(dy).zip(yv) {
                    *g += d * (1.0 - y * y);
                }
            }
            MulScalar(a, c) => {
                let ga = self.grad_buf(grads, *a);
                for (g, d) in ga.iter_mut().zip(dy) {
                    *g += d * c;
                }
            }
            AddScalar(a, _) => {
                let ga = self.grad_buf(grads, *a);
                for (g, d) in ga.iter_mut().zip(dy) {
                    *g += d;
                }
            }
            Recip(a, eps) => {
                let xv = self.value(*a);
                let yv = self.value(Var(i));
                let ga = self.grad_buf(grads, *a);
                for (j, (g, d)) in ga.iter_mut().zip(dy).enumerate() {
                    if xv[j] >= *eps {
                        *g -= d * yv[j] * yv[j];
                    }
                }
            }

            // Both walk whole rows in increasing order, so every column of
            // `gb` is the same row-increasing sum an indexed loop gives.
            AddBias(a, b) => {
                let w = self.nodes[b.0].val.1;
                {
                    let ga = self.grad_buf(grads, *a);
                    for (g, d) in ga.iter_mut().zip(dy) {
                        *g += d;
                    }
                }
                let gb = self.grad_buf(grads, *b);
                for d_row in dy.chunks_exact(w) {
                    for (g, d) in gb.iter_mut().zip(d_row) {
                        *g += d;
                    }
                }
            }
            MulRow(a, b) => {
                let w = self.nodes[b.0].val.1;
                let av = self.value(*a);
                let bv = self.value(*b);
                {
                    let ga = self.grad_buf(grads, *a);
                    for (g_row, d_row) in ga.chunks_exact_mut(w).zip(dy.chunks_exact(w)) {
                        for ((g, d), s) in g_row.iter_mut().zip(d_row).zip(bv) {
                            *g += d * s;
                        }
                    }
                }
                let gb = self.grad_buf(grads, *b);
                for (d_row, a_row) in dy.chunks_exact(w).zip(av.chunks_exact(w)) {
                    for ((g, d), x) in gb.iter_mut().zip(d_row).zip(a_row) {
                        *g += d * x;
                    }
                }
            }
            BroadcastScalar(a, _) => {
                let ga = self.grad_buf(grads, *a);
                ga[0] += dy.iter().sum::<f32>();
            }

            MatMul(a, b) => {
                let (m, k) = self.nodes[a.0].shape.as_matrix();
                let (_, n) = self.nodes[b.0].shape.as_matrix();
                {
                    // da += dy * b^T
                    let ga = self.grad_buf(grads, *a);
                    kernels::matmul_a_bt(dy, self.value(*b), m, n, k, ga);
                }
                // db += a^T * dy
                let gb = self.grad_buf(grads, *b);
                kernels::matmul_at_b(self.value(*a), dy, m, k, n, gb);
            }
            Affine {
                x,
                w,
                k0,
                bias,
                init,
                act,
            } => {
                let (m, k) = self.nodes[x.0].shape.as_matrix();
                let (w_rows, n) = self.nodes[w.0].shape.as_matrix();
                let used = k0 * n..(k0 + k) * n;
                // Route dy through the activation using the saved output's
                // sign: a positive slope means y > 0 iff the pre-activation
                // was.
                let slope = match act {
                    AffineAct::Identity => None,
                    AffineAct::Relu => Some(0.0),
                    AffineAct::LeakyRelu(al) => Some(*al),
                };
                let masked = slope.map(|al| {
                    let yv = self.value(Var(i));
                    let mut dh = grads.free.take(dy.len());
                    dh.extend(yv.iter().zip(dy).map(|(&y, &d)| {
                        if y > 0.0 {
                            d
                        } else if al == 0.0 {
                            0.0
                        } else {
                            al * d
                        }
                    }));
                    dh
                });
                let dh = masked.as_deref().unwrap_or(dy);
                if let Some(init) = init {
                    // the seed enters the pre-activation as is
                    let gi = self.grad_buf(grads, *init);
                    for (g, d) in gi.iter_mut().zip(dh) {
                        *g += d;
                    }
                }
                {
                    // dx += dh * w[rows]^T
                    let gx = self.grad_buf(grads, *x);
                    kernels::matmul_a_bt(dh, &self.value(*w)[used.clone()], m, n, k, gx);
                }
                {
                    // dw[rows] += x^T * dh
                    let gw = self.grad_buf(grads, *w);
                    kernels::matmul_at_b_rows(self.value(*x), dh, m, k, n, w_rows, &mut gw[used]);
                }
                if let Some(b) = bias {
                    // db: column sums of dh in row-increasing order — the
                    // same order as the unfused AddBias backward.
                    let gb = self.grad_buf(grads, *b);
                    for row in dh.chunks_exact(n) {
                        for (g, d) in gb.iter_mut().zip(row) {
                            *g += d;
                        }
                    }
                }
                if let Some(dh) = masked {
                    grads.free.release(dh);
                }
            }
            BatchMatMul(a, b) => {
                let (bt, m, k) = self.nodes[a.0].shape.as_batched();
                let (_, _, n) = self.nodes[b.0].shape.as_batched();
                {
                    let ga = self.grad_buf(grads, *a);
                    let bv = self.value(*b);
                    for t in 0..bt {
                        kernels::matmul_a_bt(
                            &dy[t * m * n..(t + 1) * m * n],
                            &bv[t * k * n..(t + 1) * k * n],
                            m,
                            n,
                            k,
                            &mut ga[t * m * k..(t + 1) * m * k],
                        );
                    }
                }
                let gb = self.grad_buf(grads, *b);
                let av = self.value(*a);
                for t in 0..bt {
                    kernels::matmul_at_b(
                        &av[t * m * k..(t + 1) * m * k],
                        &dy[t * m * n..(t + 1) * m * n],
                        m,
                        k,
                        n,
                        &mut gb[t * k * n..(t + 1) * k * n],
                    );
                }
            }
            TransposeLast2(a) => {
                let sh = &self.nodes[a.0].shape;
                let ga = self.grad_buf(grads, *a);
                match sh.rank() {
                    2 => {
                        let (m, n) = sh.as_matrix();
                        // dy has shape [n, m]; transpose back.
                        for j in 0..n {
                            for i2 in 0..m {
                                ga[i2 * n + j] += dy[j * m + i2];
                            }
                        }
                    }
                    3 => {
                        let (b, m, n) = sh.as_batched();
                        for t in 0..b {
                            for j in 0..n {
                                for i2 in 0..m {
                                    ga[t * m * n + i2 * n + j] += dy[t * m * n + j * m + i2];
                                }
                            }
                        }
                    }
                    _ => unreachable!(),
                }
            }

            Attention(q, k, v, scale, _) => {
                let (b, s, hd) = node.shape.as_batched();
                let att = &node.aux_f;
                // v, then q, then k: the order the unfused chain's nodes
                // reach them, which matters when two of them are one node.
                kernels::attention_backward_v(att, dy, b, s, hd, self.grad_buf(grads, *v));
                let mut ds = grads.free.take_zeroed(att.len());
                kernels::attention_backward_scores(
                    att,
                    dy,
                    self.value(*v),
                    b,
                    s,
                    hd,
                    *scale,
                    &mut ds,
                );
                let gq = self.grad_buf(grads, *q);
                kernels::attention_backward_q(&ds, self.value(*k), b, s, hd, gq);
                let gk = self.grad_buf(grads, *k);
                kernels::attention_backward_k(&ds, self.value(*q), b, s, hd, gk);
                grads.free.release(ds);
            }

            Reshape(a) => {
                let ga = self.grad_buf(grads, *a);
                for (g, d) in ga.iter_mut().zip(dy) {
                    *g += d;
                }
            }
            ConcatCols(parts) => {
                let rows = node.shape.leading_rows();
                let total_w = node.shape.last_dim();
                let mut offset = 0usize;
                for &p in parts {
                    let w = self.nodes[p.0].shape.last_dim();
                    let gp = self.grad_buf(grads, p);
                    for r in 0..rows {
                        for j in 0..w {
                            gp[r * w + j] += dy[r * total_w + offset + j];
                        }
                    }
                    offset += w;
                }
            }
            ConcatRows(parts) => {
                let mut offset = 0usize;
                for &p in parts {
                    let n = self.nodes[p.0].val.1;
                    let gp = self.grad_buf(grads, p);
                    for j in 0..n {
                        gp[j] += dy[offset + j];
                    }
                    offset += n;
                }
            }
            GatherRows(a, idx) => {
                let w = if self.nodes[a.0].shape.rank() == 2 {
                    self.nodes[a.0].shape.dim(1)
                } else {
                    1
                };
                let ga = self.grad_buf(grads, *a);
                for (o, &src) in idx.iter().enumerate() {
                    for j in 0..w {
                        ga[src * w + j] += dy[o * w + j];
                    }
                }
            }
            SumAll(a) => {
                let ga = self.grad_buf(grads, *a);
                for g in ga.iter_mut() {
                    *g += dy[0];
                }
            }
            MaxAll(a) => {
                let best = node.aux_idx[0];
                let ga = self.grad_buf(grads, *a);
                ga[best] += dy[0];
            }
            SegmentSum(a, seg, _) => {
                let sh = &self.nodes[a.0].shape;
                let w = if sh.rank() == 2 { sh.dim(1) } else { 1 };
                let ga = self.grad_buf(grads, *a);
                for (i2, &s) in seg.iter().enumerate() {
                    for j in 0..w {
                        ga[i2 * w + j] += dy[s * w + j];
                    }
                }
            }
            SegmentMax(a, _, _) => {
                let ga = self.grad_buf(grads, *a);
                for (s, &b) in node.aux_idx.iter().enumerate() {
                    ga[b] += dy[s];
                }
            }
            SegmentSoftmax(a, seg, n_segments) => {
                let yv = self.value(Var(i));
                // per-segment dot(y, dy)
                let mut dots = vec![0.0f32; *n_segments];
                for (i2, &s) in seg.iter().enumerate() {
                    dots[s] += yv[i2] * dy[i2];
                }
                let ga = self.grad_buf(grads, *a);
                for (i2, &s) in seg.iter().enumerate() {
                    ga[i2] += yv[i2] * (dy[i2] - dots[s]);
                }
            }

            SoftmaxLastDim(a, _) => {
                let w = node.shape.last_dim();
                let rows = node.shape.leading_rows();
                let yv = self.value(Var(i));
                let ga = self.grad_buf(grads, *a);
                for r in 0..rows {
                    kernels::softmax_backward_row(
                        &yv[r * w..(r + 1) * w],
                        &dy[r * w..(r + 1) * w],
                        &mut ga[r * w..(r + 1) * w],
                    );
                }
            }
            LayerNorm(a, _) => {
                let w = node.shape.last_dim();
                let rows = node.shape.leading_rows();
                let yv = self.value(Var(i));
                let ga = self.grad_buf(grads, *a);
                for r in 0..rows {
                    let inv_std = node.aux_f[r];
                    let yrow = &yv[r * w..(r + 1) * w];
                    let drow = &dy[r * w..(r + 1) * w];
                    let mean_d: f32 = drow.iter().sum::<f32>() / w as f32;
                    let mean_dy_y: f32 =
                        drow.iter().zip(yrow).map(|(d, y)| d * y).sum::<f32>() / w as f32;
                    for j in 0..w {
                        ga[r * w + j] += inv_std * (drow[j] - mean_d - yrow[j] * mean_dy_y);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_mul_backward() {
        let mut store = ParamStore::new();
        let a = store.register("a", vec![3], vec![1.0, 2.0, 3.0]);
        let b = store.register("b", vec![3], vec![4.0, 5.0, 6.0]);
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let bv = t.param(&store, b);
        let m = t.mul(av, bv);
        let s = t.sum_all(m);
        assert!((t.scalar_value(s) - 32.0).abs() < 1e-5);
        t.backward(s, &mut store);
        assert_eq!(store.grad(a), &[4.0, 5.0, 6.0]);
        assert_eq!(store.grad(b), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matmul_forward_and_backward() {
        let mut store = ParamStore::new();
        let w = store.register("w", vec![2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        let mut t = Tape::new();
        let x = t.constant(vec![1, 2], vec![3.0, 7.0]);
        let wv = t.param(&store, w);
        let y = t.matmul(x, wv);
        assert_eq!(t.value(y), &[3.0, 7.0]);
        let loss = t.sum_all(y);
        t.backward(loss, &mut store);
        // dW = x^T * [1,1] = [[3,3],[7,7]]
        assert_eq!(store.grad(w), &[3.0, 3.0, 7.0, 7.0]);
    }

    #[test]
    fn backward_into_matches_backward_bitwise() {
        let mut store = ParamStore::new();
        let w = store.register("w", vec![2, 2], vec![0.3, -0.7, 1.1, 0.9]);
        let b = store.register("b", vec![2], vec![0.1, -0.2]);
        let build = |store: &ParamStore| {
            let mut t = Tape::new();
            let x = t.constant(vec![3, 2], vec![1.0, 2.0, -0.5, 0.25, 3.0, -1.5]);
            let wv = t.param(store, w);
            let bv = t.param(store, b);
            let h = t.matmul(x, wv);
            let h = t.add_bias(h, bv);
            let h = t.tanh(h);
            let loss = t.sum_all(h);
            (t, loss)
        };
        let (t1, l1) = build(&store);
        t1.backward(l1, &mut store);
        let direct_w = store.grad(w).to_vec();
        let direct_b = store.grad(b).to_vec();

        let mut buf = store.grad_buffer();
        let (t2, l2) = build(&store);
        t2.backward_into(l2, &mut buf);
        assert_eq!(buf.grad(w), &direct_w[..]);
        assert_eq!(buf.grad(b), &direct_b[..]);
    }

    /// A two-stage graph as the trainer records it: an "encoder" with its
    /// own parameters ending in `table`, and a "head" with others that
    /// reads the encoder only through `table`.
    fn encoder_and_head(store: &ParamStore, t: &mut Tape, scale: f32) -> (Var, Var) {
        let ids: Vec<ParamId> = store.ids().collect();
        let x = t.constant(vec![3, 2], vec![1.0, 2.0, -0.5, 0.25, 3.0, -1.5]);
        let we = t.param(store, ids[0]);
        let h = t.matmul(x, we);
        let h = t.tanh(h);
        let h = t.reshape(h, vec![6]);
        let table = t.reshape(h, vec![3, 2]);
        let wh = t.param(store, ids[1]);
        let y = t.matmul(table, wh);
        let y = t.mul_scalar(y, scale);
        let rows = t.gather_rows(table, Arc::new(vec![2, 0, 2]));
        let y = t.add(y, rows);
        let y = t.leaky_relu(y, 0.01);
        let wh2 = t.param(store, ids[1]);
        let y = t.matmul(y, wh2);
        (table, t.sum_all(y))
    }

    fn two_stage_store() -> ParamStore {
        let mut store = ParamStore::new();
        let _ = store.register("enc", vec![2, 2], vec![0.3, -0.7, 1.1, 0.9]);
        let _ = store.register("head", vec![2, 2], vec![0.5, 0.2, -0.4, 1.3]);
        store
    }

    #[test]
    fn split_walks_compose_to_backward_into_bitwise() {
        let store = two_stage_store();
        let mut t = Tape::new();
        let (table, loss) = encoder_and_head(&store, &mut t, 0.7);
        let mut whole = store.grad_buffer();
        t.backward_into(loss, &mut whole);

        let mut split = store.grad_buffer();
        let seed = t.backward_above(loss, table, &mut split);
        let all = t.gradients(loss);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&seed), bits(all[table.0].as_ref().unwrap()));
        t.backward_seeded_into(table, seed, &mut split);
        for id in store.ids() {
            assert_eq!(
                bits(split.grad(id)),
                bits(whole.grad(id)),
                "{}",
                store.name(id)
            );
        }
    }

    #[test]
    fn scoped_heads_over_one_encoder_sum_their_seeds() {
        // Two heads over one encoder, each recorded and walked inside a
        // scope: the head gradients are each head's own walk, bitwise, and
        // the encoder walk seeded with the summed table gradients matches
        // the sum of two full walks up to rounding.
        let store = two_stage_store();
        let ids: Vec<ParamId> = store.ids().collect();
        let scales = [0.7f32, -1.9];
        let mut reference = Vec::new();
        for &scale in &scales {
            let mut t = Tape::new();
            let (_, loss) = encoder_and_head(&store, &mut t, scale);
            let mut buf = store.grad_buffer();
            t.backward_into(loss, &mut buf);
            reference.push(buf);
        }

        let mut t = Tape::new();
        let (table, _) = encoder_and_head(&store, &mut t, 0.0);
        let mut heads = Vec::new();
        let mut seed: Option<Vec<f32>> = None;
        for &scale in &scales {
            let d = t.scoped(|t| {
                let wh = t.param(&store, ids[1]);
                let y = t.matmul(table, wh);
                let y = t.mul_scalar(y, scale);
                let rows = t.gather_rows(table, Arc::new(vec![2, 0, 2]));
                let y = t.add(y, rows);
                let y = t.leaky_relu(y, 0.01);
                let wh2 = t.param(&store, ids[1]);
                let y = t.matmul(y, wh2);
                let loss = t.sum_all(y);
                let mut buf = store.grad_buffer();
                let d = t.backward_above(loss, table, &mut buf);
                heads.push(buf);
                d
            });
            match &mut seed {
                None => seed = Some(d),
                Some(s) => s.iter_mut().zip(&d).for_each(|(a, b)| *a += *b),
            }
        }
        let mut enc = store.grad_buffer();
        t.backward_seeded_into(table, seed.unwrap(), &mut enc);

        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (head, want) in heads.iter().zip(&reference) {
            assert_eq!(bits(head.grad(ids[1])), bits(want.grad(ids[1])));
            assert!(head.grad(ids[0]).iter().all(|&g| g == 0.0));
        }
        let mut want = reference[0].grad(ids[0]).to_vec();
        want.iter_mut()
            .zip(reference[1].grad(ids[0]))
            .for_each(|(a, b)| *a += *b);
        for (got, want) in enc.grad(ids[0]).iter().zip(&want) {
            assert!(
                (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "below the boundary")]
    fn backward_above_rejects_a_gradient_around_the_boundary() {
        let store = two_stage_store();
        let ids: Vec<ParamId> = store.ids().collect();
        let mut t = Tape::new();
        let we = t.param(&store, ids[0]);
        let table = t.tanh(we);
        let y = t.mul(table, we); // reads the encoder's leaf directly
        let loss = t.sum_all(y);
        let mut buf = store.grad_buffer();
        let _ = t.backward_above(loss, table, &mut buf);
    }

    #[test]
    fn backward_matches_the_retained_gradients_bitwise() {
        // `backward` frees intermediate gradients as it goes; the parameter
        // gradients must be the bits `gradients` (which keeps them all)
        // yields, summed over a parameter's leaves in recording order.
        let mut store = ParamStore::new();
        let w = store.register("w", vec![2, 2], vec![0.3, -0.7, 1.1, 0.9]);
        let mut t = Tape::new();
        let x = t.constant(vec![3, 2], vec![1.0, 2.0, -0.5, 0.25, 3.0, -1.5]);
        let w1 = t.param(&store, w);
        let h = t.matmul(x, w1);
        let h = t.tanh(h);
        // views on the path: a reshape chain, and a parameter leaf that is
        // consumed both directly and through a view
        let h = t.reshape(h, vec![6]);
        let h = t.reshape(h, vec![3, 2]);
        let w2 = t.param(&store, w);
        let h = t.matmul(h, w2);
        let w3 = t.param(&store, w);
        let w3v = t.reshape(w3, vec![2, 2]);
        let h = t.matmul(h, w3v);
        let h = t.matmul(h, w3);
        let loss = t.sum_all(h);

        let all = t.gradients(loss);
        assert!(all[h.0].is_some(), "gradients() keeps intermediates");
        let mut want = vec![0.0f32; 4];
        for leaf in [w1, w2, w3] {
            for (d, s) in want.iter_mut().zip(all[leaf.0].as_ref().unwrap()) {
                *d += *s;
            }
        }
        t.backward(loss, &mut store);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(store.grad(w)), bits(&want));
    }

    #[test]
    fn row_broadcast_ops_match_the_indexed_loops_bitwise() {
        // `x * g + b` over [rows, w] with w off any lane width; forward and
        // all three gradients against `[r * w + j]` loops, each column of
        // the row-vector gradients summed in increasing row order.
        let (rows, w) = (37usize, 5usize);
        let f = |i: usize, m: usize| ((i * m % 23) as f32 - 11.0) * 0.173;
        let xs: Vec<f32> = (0..rows * w).map(|i| f(i, 7)).collect();
        let gs: Vec<f32> = (0..w).map(|j| f(j, 5) + 0.3).collect();
        let bs: Vec<f32> = (0..w).map(|j| f(j, 3)).collect();
        let cs: Vec<f32> = (0..rows * w).map(|i| f(i, 13)).collect();

        let mut t = Tape::new();
        let x = t.constant_slice(vec![rows, w], &xs);
        let g = t.constant_slice(vec![w], &gs);
        let b = t.constant_slice(vec![w], &bs);
        let scaled = t.mul_row(x, g);
        let y = t.add_bias(scaled, b);
        let c = t.constant_slice(vec![rows, w], &cs);
        let weighted = t.mul(y, c);
        let loss = t.sum_all(weighted);
        let all = t.gradients(loss);

        let mut want_y = vec![0.0f32; rows * w];
        let mut want_dx = vec![0.0f32; rows * w];
        let (mut want_dg, mut want_db) = (vec![0.0f32; w], vec![0.0f32; w]);
        for r in 0..rows {
            for j in 0..w {
                let i = r * w + j;
                want_y[i] = xs[i] * gs[j] + bs[j];
                let dy = 0.0 + 1.0 * cs[i]; // Mul's backward into a zeroed buffer
                want_db[j] += dy;
                want_dx[i] += dy * gs[j];
                want_dg[j] += dy * xs[i];
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(t.value(y)), bits(&want_y));
        for (var, want) in [(x, &want_dx), (g, &want_dg), (b, &want_db)] {
            assert_eq!(bits(all[var.0].as_ref().unwrap()), bits(want));
        }
    }

    #[test]
    fn reshape_is_a_view_of_its_input() {
        let mut t = Tape::new();
        let x = t.constant(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let arena_len = t.buf.len();
        let r = t.reshape(x, vec![3, 2]);
        let rr = t.reshape(r, vec![6]);
        assert_eq!(t.buf.len(), arena_len, "a view appends nothing");
        assert_eq!(t.shape(rr).0, vec![6]);
        for v in [r, rr] {
            assert!(std::ptr::eq(t.value(v), t.value(x)));
        }
        // a value computed from a view lands after it, leaving it intact
        let y = t.mul_scalar(rr, 2.0);
        assert_eq!(t.value(y), &[2., 4., 6., 8., 10., 12.]);
        assert_eq!(t.value(r), &[1., 2., 3., 4., 5., 6.]);
    }

    #[test]
    fn scoped_forgets_what_it_recorded_and_nothing_else() {
        let mut store = ParamStore::new();
        let w = store.register("w", vec![2, 2], vec![0.5, -1.0, 2.0, 0.25]);
        let mut t = Tape::new();
        let x = t.constant(vec![2, 2], vec![1., 2., 3., 4.]);
        let view = t.reshape(x, vec![4]);
        let (nodes, bytes) = (t.len(), t.buf.len());

        let mut tiles = Vec::new();
        for scale in [1.0f32, 3.0] {
            let got = t.scoped(|t| {
                let wv = t.param(&store, w); // injected again by every tile
                assert_eq!(t.nodes[wv.0].param, Some(w));
                let inner_view = t.reshape(view, vec![2, 2]);
                let y = t.matmul(inner_view, wv);
                let y = t.mul_scalar(y, scale);
                assert!(t.len() > nodes && t.buf.len() > bytes);
                t.value(y).to_vec()
            });
            assert_eq!((t.len(), t.buf.len()), (nodes, bytes));
            tiles.push(got);
        }
        assert_eq!(tiles[0], vec![4.5, -0.5, 9.5, -2.0]);
        assert_eq!(tiles[1], vec![13.5, -1.5, 28.5, -6.0]);
        // what was there before is what is there after
        assert_eq!(t.value(x), &[1., 2., 3., 4.]);
        assert!(std::ptr::eq(t.value(view), t.value(x)));
        // and the tape records on from the mark
        let z = t.add_scalar(view, 1.0);
        assert_eq!(z.0, nodes);
        assert_eq!(t.value(z), &[2., 3., 4., 5.]);
        assert_eq!(t.scoped_peak, bytes + 4 + 4 + 4);
    }

    #[test]
    fn view_gradients_reach_the_input() {
        // One input seen through two views and a view of a view: its
        // gradient is the sum over all three, whichever arrives first being
        // handed over as is (hence `==`, not bits: a handed-over -0.0 is no
        // longer added to +0.0).
        let mut store = ParamStore::new();
        let a = store.register("a", vec![2, 2], vec![1.0, -2.0, 3.0, 0.5]);
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let c1 = t.constant(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
        let c2 = t.constant(vec![4, 1], vec![10.0, 20.0, 30.0, 40.0]);
        let c3 = t.constant(vec![1, 4], vec![-0.0, 0.5, -0.5, 0.25]);
        let r1 = t.reshape(av, vec![4]);
        let r2 = t.reshape(av, vec![4, 1]);
        let r3 = t.reshape(r1, vec![1, 4]);
        let (m1, m2, m3) = (t.mul(r1, c1), t.mul(r2, c2), t.mul(r3, c3));
        let (s1, s2, s3) = (t.sum_all(m1), t.sum_all(m2), t.sum_all(m3));
        let s12 = t.add(s1, s2);
        let loss = t.add(s12, s3);
        let want = [11.0, 22.5, 32.5, 44.25];
        let all = t.gradients(loss);
        assert_eq!(all[av.0].as_deref(), Some(&want[..]));
        assert_eq!(all[r1.0].as_deref(), Some(&[1.0, 2.5, 2.5, 4.25][..]));
        assert_eq!(all[r3.0].as_deref(), Some(&[-0.0, 0.5, -0.5, 0.25][..]));
        t.backward(loss, &mut store);
        assert_eq!(store.grad(a), &want);
    }

    #[test]
    fn max_all_subgradient() {
        let mut store = ParamStore::new();
        let a = store.register("a", vec![4], vec![1.0, 9.0, 3.0, 9.0]);
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let m = t.max_all(av);
        assert_eq!(t.scalar_value(m), 9.0);
        assert_eq!(t.argmax_of(m), 1); // first max wins
        t.backward(m, &mut store);
        assert_eq!(store.grad(a), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn segment_softmax_sums_to_one_per_segment() {
        let mut t = Tape::new();
        let x = t.constant(vec![5], vec![1.0, 2.0, 3.0, 0.5, 0.5]);
        let seg = Arc::new(vec![0usize, 0, 1, 1, 1]);
        let y = t.segment_softmax(x, seg, 2);
        let v = t.value(y);
        assert!((v[0] + v[1] - 1.0).abs() < 1e-6);
        assert!((v[2] + v[3] + v[4] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn segment_sum_and_max() {
        let mut t = Tape::new();
        let x = t.constant(vec![4], vec![1.0, 2.0, 3.0, 4.0]);
        let seg = Arc::new(vec![1usize, 0, 1, 0]);
        let s = t.segment_sum(x, seg.clone(), 2);
        assert_eq!(t.value(s), &[6.0, 4.0]);
        let m = t.segment_max(x, seg, 2);
        assert_eq!(t.value(m), &[4.0, 3.0]);
        assert_eq!(t.segment_argmax_of(m), &[3, 2]);
    }

    #[test]
    fn segment_max_matches_the_naive_scan() {
        // interleaved runs, ties (one at segment 0's maximum: the first
        // index wins), a NaN first in its segment (kept: nothing compares
        // greater than it) and one later in another (never taken)
        let vals = vec![1.0, f32::NAN, 3.0, 3.0, -1.0, 2.0, f32::NAN, 5.0, 0.5, 5.0];
        let seg = vec![0usize, 1, 0, 0, 2, 1, 2, 0, 2, 0];
        let mut want = [usize::MAX; 3];
        for (i, &s) in seg.iter().enumerate() {
            if want[s] == usize::MAX || vals[i] > vals[want[s]] {
                want[s] = i;
            }
        }
        let mut t = Tape::new();
        let x = t.constant(vec![vals.len()], vals);
        let m = t.segment_max(x, Arc::new(seg), 3);
        assert_eq!(t.segment_argmax_of(m), &want);
        assert_eq!(want, [7, 1, 8]);
    }

    #[test]
    fn gather_rows_accumulates_grad() {
        let mut store = ParamStore::new();
        let a = store.register("a", vec![3, 2], vec![1., 2., 3., 4., 5., 6.]);
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let g = t.gather_rows(av, Arc::new(vec![0, 2, 0]));
        assert_eq!(t.value(g), &[1., 2., 5., 6., 1., 2.]);
        let loss = t.sum_all(g);
        t.backward(loss, &mut store);
        assert_eq!(store.grad(a), &[2., 2., 0., 0., 1., 1.]);
    }

    #[test]
    fn concat_cols_interleaves_rows() {
        let mut t = Tape::new();
        let a = t.constant(vec![2, 2], vec![1., 2., 3., 4.]);
        let b = t.constant(vec![2, 1], vec![9., 8.]);
        let c = t.concat_cols(&[a, b]);
        assert_eq!(t.shape(c).as_matrix(), (2, 3));
        assert_eq!(t.value(c), &[1., 2., 9., 3., 4., 8.]);
    }

    #[test]
    fn softmax_last_dim_rows() {
        let mut t = Tape::new();
        let a = t.constant(vec![2, 2], vec![0.0, 0.0, 1.0, 1.0]);
        let y = t.softmax_last_dim(a, None);
        let v = t.value(y);
        for r in 0..2 {
            assert!((v[r * 2] + v[r * 2 + 1] - 1.0).abs() < 1e-6);
            assert!((v[r * 2] - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut t = Tape::new();
        let a = t.constant(vec![1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = t.layer_norm(a, 1e-5);
        let v = t.value(y);
        let mean: f32 = v.iter().sum::<f32>() / 4.0;
        let var: f32 = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn broadcast_scalar_grad_sums() {
        let mut store = ParamStore::new();
        let a = store.register("a", vec![1], vec![2.0]);
        let mut t = Tape::new();
        let av = t.param(&store, a);
        let b = t.broadcast_scalar(av, 4);
        let s = t.sum_all(b);
        assert_eq!(t.scalar_value(s), 8.0);
        t.backward(s, &mut store);
        assert_eq!(store.grad(a), &[4.0]);
    }

    #[test]
    fn batch_matmul_matches_loop() {
        let mut t = Tape::new();
        let a = t.constant(vec![2, 1, 2], vec![1., 2., 3., 4.]);
        let b = t.constant(vec![2, 2, 1], vec![1., 1., 2., 0.5]);
        let c = t.batch_matmul(a, b);
        assert_eq!(t.shape(c).as_batched(), (2, 1, 1));
        assert_eq!(t.value(c), &[3.0, 8.0]);
    }

    #[test]
    fn transpose_last2_3d() {
        let mut t = Tape::new();
        let a = t.constant(vec![1, 2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let tr = t.transpose_last2(a);
        assert_eq!(t.shape(tr).as_batched(), (1, 3, 2));
        assert_eq!(t.value(tr), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn backward_accumulates_across_passes() {
        let mut store = ParamStore::new();
        let a = store.register("a", vec![1], vec![3.0]);
        for _ in 0..2 {
            let mut t = Tape::new();
            let av = t.param(&store, a);
            let y = t.mul(av, av);
            t.backward(y, &mut store);
        }
        // d(a^2)/da = 2a = 6, twice = 12
        assert_eq!(store.grad(a), &[12.0]);
    }

    #[test]
    #[should_panic(expected = "loss must be scalar")]
    fn backward_requires_scalar_loss() {
        let mut store = ParamStore::new();
        let a = store.register("a", vec![2], vec![1.0, 2.0]);
        let mut t = Tape::new();
        let av = t.param(&store, a);
        t.backward(av, &mut store);
    }
}
