//! Reverse-mode automatic differentiation on an arena tape.
//!
//! The tape is rebuilt for every training step ("define-by-run"): layers
//! own plain [`Tensor`] parameters, register them as tape variables at the
//! start of a step, run the forward pass, call [`Tape::backward`] once on
//! the scalar loss, then read gradients back out for the optimiser. Node
//! indices are monotonically increasing, so a single reverse sweep over
//! the arena visits every node after all of its consumers.
//!
//! Every node value and gradient buffer comes from the tape's
//! [`BufferPool`]; [`Tape::recycle`] returns them all at step end and
//! re-mints the tape's generation id, so one tape serves a whole
//! training run without growing and the steady state is (near-)free of
//! heap allocations. Pooling is bitwise-transparent: a recycled tape
//! computes the same floats, in the same order, as a fresh unpooled one
//! (pinned by `tests/pool_equiv.rs`).

use crate::pool::BufferPool;
use crate::tensor::Tensor;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic generation counter handing every [`Tape`] a process-unique id,
/// so a [`Var`] can prove which tape minted it. [`Tape::recycle`] mints a
/// fresh id too, invalidating handles from the previous step.
static NEXT_TAPE_ID: AtomicU64 = AtomicU64::new(1);

/// Handle to a node on a [`Tape`]. Cheap to copy; only valid for the tape
/// *generation* that produced it — the handle carries its tape's generation
/// id, and every tape operation asserts the id matches, so feeding a `Var`
/// to a different (or recycled) tape fails fast instead of silently reading
/// another graph's node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var {
    index: usize,
    tape: u64,
}

impl Var {
    /// Arena index of the node on its owning tape.
    pub fn index(self) -> usize {
        self.index
    }

    /// Generation id of the tape that minted this handle (see [`Tape::id`]).
    pub fn tape_id(self) -> u64 {
        self.tape
    }
}

/// The operation that produced a node, with everything backward needs.
#[derive(Clone, Debug)]
pub enum Op {
    /// Input / parameter leaf.
    Leaf,
    /// Elementwise `a + b`.
    Add(Var, Var),
    /// Elementwise `a - b`.
    Sub(Var, Var),
    /// Elementwise (Hadamard) `a * b`.
    Mul(Var, Var),
    /// Matrix product `a · b`.
    MatMul(Var, Var),
    /// `a * s` for a constant scalar.
    Scale(Var, f32),
    /// `a + s` for a constant scalar.
    AddScalar(Var, f32),
    /// Elementwise logistic sigmoid.
    Sigmoid(Var),
    /// Elementwise hyperbolic tangent.
    Tanh(Var),
    /// Elementwise rectified linear unit.
    Relu(Var),
    /// Elementwise leaky ReLU with the given negative slope.
    LeakyRelu(Var, f32),
    /// Elementwise natural exponent.
    Exp(Var),
    /// Elementwise natural log of `max(x, eps)`.
    Ln(Var),
    /// Elementwise absolute value.
    Abs(Var),
    /// Sum of all elements to a `1×1` scalar.
    Sum(Var),
    /// Mean of all elements to a `1×1` scalar.
    Mean(Var),
    /// Broadcast add: `[n×m] + [1×m]`.
    AddRow(Var, Var),
    /// Horizontal concatenation of equal-row-count tensors.
    Concat(Vec<Var>),
    /// Gather rows `indices` from `a` (embedding lookup).
    RowsSelect(Var, Vec<usize>),
    /// Mean over selected rows of `a`, one output row per group.
    RowsMean(Var, Vec<Vec<usize>>),
    /// Elementwise product with a fixed 0/1 mask, rescaled by `1/keep`.
    Dropout(Var, Tensor),
    /// Mean-squared-error against a constant target (scalar output).
    MseLoss(Var, Tensor),
    /// Binary cross entropy with logits against constant targets and
    /// per-example weights; caches the forward sigmoid (scalar output).
    BceWithLogits {
        /// Logits node (`n×1`).
        logits: Var,
        /// Targets in `{0,1}` (`n×1`).
        targets: Tensor,
        /// Per-example weights (`n×1`); use ones for the unweighted case.
        weights: Tensor,
        /// Cached `sigmoid(logits)` from the forward pass.
        probs: Tensor,
    },
    /// Softmax cross entropy over rows of logits against class labels;
    /// caches the forward softmax (scalar output).
    SoftmaxCe {
        /// Logits node (`n×k`).
        logits: Var,
        /// One class index per row.
        labels: Vec<usize>,
        /// Cached row-softmax from the forward pass.
        probs: Tensor,
    },
    /// A whole LSTM sequence from a zero state (see [`Tape::lstm`]);
    /// the node's value is the final hidden state.
    Lstm {
        /// The hoisted input projection `seq·Wx` (`T×4h`).
        xw: Var,
        /// Recurrent weights (`h×4h`).
        wh: Var,
        /// Gate biases (`1×4h`).
        b: Var,
        /// Each step's `[i|f|o|g|c|tanh c|h]` row from the forward
        /// pass (`T×7h`).
        cache: Tensor,
    },
}

/// The one list of ops that cache a pooled auxiliary tensor for
/// backward: a `match` on `$op` giving that tensor as an `Option`, by
/// reference in [`Op::aux`] and by value in [`Tape::recycle`].
macro_rules! aux_tensor {
    ($op:expr) => {
        match $op {
            Op::BceWithLogits { probs: aux, .. }
            | Op::SoftmaxCe { probs: aux, .. }
            | Op::Lstm { cache: aux, .. } => Some(aux),
            _ => None,
        }
    };
}

impl Op {
    /// Call `f` on every [`Var`] this op takes as an input, in operand
    /// order — the one enumeration of which handles each variant embeds
    /// (ownership checks here, reachability in `dc-check`'s lints).
    pub fn for_each_input(&self, mut f: impl FnMut(Var)) {
        match self {
            Op::Leaf => {}
            Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::MatMul(a, b) | Op::AddRow(a, b) => {
                f(*a);
                f(*b);
            }
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Abs(a)
            | Op::Sum(a)
            | Op::Mean(a)
            | Op::RowsSelect(a, _)
            | Op::RowsMean(a, _)
            | Op::Dropout(a, _)
            | Op::MseLoss(a, _) => f(*a),
            Op::Concat(parts) => parts.iter().for_each(|&p| f(p)),
            Op::BceWithLogits { logits, .. } | Op::SoftmaxCe { logits, .. } => f(*logits),
            Op::Lstm { xw, wh, b, .. } => {
                f(*xw);
                f(*wh);
                f(*b);
            }
        }
    }

    /// The pool-backed auxiliary tensor this op caches for backward, if
    /// any: the loss ops' `probs` and the LSTM's per-step `cache`.
    /// [`Tape::recycle`] returns it to the pool with the node's value,
    /// and `dc-check` scans it for recycle poison.
    pub fn aux(&self) -> Option<&Tensor> {
        aux_tensor!(self)
    }
}

struct Node {
    value: Tensor,
    op: Op,
    /// Value buffer came from the tape's pool (recycled at step end).
    /// False for caller-moved leaves, which the caller may hold clones
    /// of and whose sizes would otherwise grow the pool unboundedly.
    /// An op's [`Op::aux`] tensor always comes from the pool.
    pooled: bool,
}

/// An autograd tape: an append-only arena of [`Op`] nodes backed by a
/// step-scoped [`BufferPool`].
pub struct Tape {
    id: Cell<u64>,
    nodes: RefCell<Vec<Node>>,
    grads: RefCell<Vec<Option<Tensor>>>,
    backward_runs: Cell<u32>,
    pool: BufferPool,
}

impl Default for Tape {
    fn default() -> Self {
        Self::new()
    }
}

impl Tape {
    /// Create an empty tape.
    pub fn new() -> Self {
        Tape {
            id: Cell::new(NEXT_TAPE_ID.fetch_add(1, Ordering::Relaxed)),
            nodes: RefCell::new(Vec::new()),
            grads: RefCell::new(Vec::new()),
            backward_runs: Cell::new(0),
            pool: BufferPool::new(),
        }
    }

    /// Process-unique generation id of this tape. Every [`Var`] it mints
    /// carries the same id (see [`Var::tape_id`]); [`Tape::recycle`]
    /// replaces it.
    pub fn id(&self) -> u64 {
        self.id.get()
    }

    /// How many times [`Tape::backward`] has run on this tape generation.
    /// Each run *replaces* the stored gradients, so more than one run per
    /// generation is almost always a bug; `dc-check` lints on it.
    pub fn backward_runs(&self) -> u32 {
        self.backward_runs.get()
    }

    /// Number of nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    /// True when no node has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// End-of-step reset: return every pooled buffer (node values,
    /// cached [`Op::aux`] tensors, gradients) to the tape's pool, clear
    /// the arena keeping its capacity, and mint a fresh generation id so
    /// stale [`Var`]s from the finished step fail fast. The next step
    /// records onto the same tape and its allocations hit the pool's
    /// freelists instead of the allocator.
    pub fn recycle(&self) {
        let mut nodes = self.nodes.borrow_mut();
        for node in nodes.drain(..) {
            if node.pooled {
                self.pool.put(node.value.data);
            }
            if let Some(aux) = aux_tensor!(node.op) {
                self.pool.put(aux.data);
            }
        }
        drop(nodes);
        let mut grads = self.grads.borrow_mut();
        for t in grads.drain(..).flatten() {
            self.pool.put(t.data);
        }
        drop(grads);
        self.backward_runs.set(0);
        self.pool.publish_counters();
        self.pool.refresh_enabled();
        self.pool.bump_generation();
        self.id.set(NEXT_TAPE_ID.fetch_add(1, Ordering::Relaxed));
    }

    /// Snapshot of the tape's pool accounting (hits/misses/bytes).
    pub fn pool_stats(&self) -> crate::pool::PoolStats {
        self.pool.stats()
    }

    /// Pool misuses (double recycles) detected by the `DC_CHECK=1`
    /// debug-handle tracking; always empty otherwise.
    pub fn pool_violations(&self) -> Vec<crate::pool::PoolViolation> {
        self.pool.violations()
    }

    /// Panic unless `v` was minted by this tape.
    fn assert_owned(&self, v: Var, ctx: &str) {
        assert!(
            v.tape == self.id.get(),
            "{ctx}: Var {{ index: {}, tape: {} }} does not belong to this tape (id {}); \
             handles are only valid on the tape that created them",
            v.index,
            v.tape,
            self.id.get()
        );
    }

    /// Panic if any `Var` embedded in `op` was minted by another tape.
    fn assert_owned_op(&self, op: &Op) {
        op.for_each_input(|v| self.assert_owned(v, op_name(op)));
    }

    fn push(&self, value: Tensor, pooled: bool, op: Op) -> Var {
        static TAPE_NODES: dc_obs::Counter = dc_obs::Counter::new("tape.nodes");
        TAPE_NODES.incr();
        self.assert_owned_op(&op);
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node { value, op, pooled });
        self.grads.borrow_mut().push(None);
        Var {
            index: nodes.len() - 1,
            tape: self.id.get(),
        }
    }

    /// Register `t` as a leaf (input or parameter), taking ownership of
    /// its buffer. The buffer is *not* pooled — prefer [`Tape::var_from`]
    /// / [`Tape::var_slice`] on recycled hot paths so leaf storage also
    /// comes from the pool.
    pub fn var(&self, t: Tensor) -> Var {
        self.push(t, false, Op::Leaf)
    }

    /// Register a leaf by copying `t` into a pool-backed buffer.
    pub fn var_from(&self, t: &Tensor) -> Var {
        self.var_slice(t.rows, t.cols, &t.data)
    }

    /// Register a `rows×cols` leaf by copying `data` into a pool-backed
    /// buffer — the pooled counterpart of
    /// `var(Tensor::from_vec(rows, cols, data.to_vec()))`.
    pub fn var_slice(&self, rows: usize, cols: usize, data: &[f32]) -> Var {
        assert_eq!(
            data.len(),
            rows * cols,
            "var_slice: {} values do not fill {rows}x{cols}",
            data.len()
        );
        let mut v = self.alloc(rows, cols);
        v.data.copy_from_slice(data);
        self.push(v, true, Op::Leaf)
    }

    /// Clone the current value of a node.
    pub fn value(&self, v: Var) -> Tensor {
        self.assert_owned(v, "value");
        self.nodes.borrow()[v.index].value.clone()
    }

    /// Read a scalar (`1×1`) node's value without cloning.
    pub fn item(&self, v: Var) -> f32 {
        self.assert_owned(v, "item");
        let n = self.nodes.borrow();
        let t = &n[v.index].value;
        assert_eq!(
            t.len(),
            1,
            "item: node is {}x{}, not a scalar",
            t.rows,
            t.cols
        );
        t.data[0]
    }

    /// Shape of a node's value without cloning it.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.assert_owned(v, "shape");
        let n = self.nodes.borrow();
        (n[v.index].value.rows, n[v.index].value.cols)
    }

    /// Clone the [`Op`] that produced a node. `dc-check` uses this for
    /// single-node queries; bulk walks should prefer [`Tape::for_each_node`].
    pub fn op_of(&self, v: Var) -> Op {
        self.assert_owned(v, "op_of");
        self.nodes.borrow()[v.index].op.clone()
    }

    /// Visit every recorded node in arena order as
    /// `(index, op, value, grad)`, without cloning tensors. The gradient
    /// is `None` for nodes untouched by the last [`Tape::backward`] call.
    ///
    /// The callback must not record new ops or run `backward` — the
    /// arena is borrowed for the duration of the walk.
    pub fn for_each_node(&self, mut f: impl FnMut(usize, &Op, &Tensor, Option<&Tensor>)) {
        let nodes = self.nodes.borrow();
        let grads = self.grads.borrow();
        for (i, node) in nodes.iter().enumerate() {
            f(i, &node.op, &node.value, grads[i].as_ref());
        }
    }

    /// Clone the accumulated gradient of a node (zeros if untouched by
    /// the last [`Tape::backward`] call).
    pub fn grad(&self, v: Var) -> Tensor {
        self.assert_owned(v, "grad");
        let g = self.grads.borrow();
        match &g[v.index] {
            Some(t) => t.clone(),
            None => {
                let n = self.nodes.borrow();
                Tensor::zeros(n[v.index].value.rows, n[v.index].value.cols)
            }
        }
    }

    /// Run `f` against a node's accumulated gradient without cloning it
    /// (a zero tensor of the node's shape if untouched by the last
    /// [`Tape::backward`] call). The optimiser hot path: reads the
    /// gradient in place instead of materialising a copy per parameter.
    pub fn with_grad<R>(&self, v: Var, f: impl FnOnce(&Tensor) -> R) -> R {
        self.assert_owned(v, "with_grad");
        let g = self.grads.borrow();
        match &g[v.index] {
            Some(t) => f(t),
            None => {
                let n = self.nodes.borrow();
                f(&Tensor::zeros(n[v.index].value.rows, n[v.index].value.cols))
            }
        }
    }

    fn with_values<R>(&self, f: impl FnOnce(&[Node]) -> R) -> R {
        f(&self.nodes.borrow())
    }

    // ----- pooled construction helpers --------------------------------

    /// A `rows×cols` tensor on a pool buffer with **stale contents**;
    /// callers must fully overwrite it.
    fn alloc(&self, rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: self.pool.take(rows * cols),
        }
    }

    /// A zero-filled `rows×cols` tensor on a pool buffer, for consumers
    /// that accumulate (`+=`) instead of overwriting.
    fn alloc_zeroed(&self, rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: self.pool.take_zeroed(rows * cols),
        }
    }

    /// A pooled `1×1` scalar.
    fn alloc_scalar(&self, v: f32) -> Tensor {
        let mut t = self.alloc(1, 1);
        t.data[0] = v;
        t
    }

    /// A pooled copy of `src`.
    fn pcopy(&self, src: &Tensor) -> Tensor {
        let mut out = self.alloc(src.rows, src.cols);
        out.data.copy_from_slice(&src.data);
        out
    }

    /// Pooled counterpart of [`Tensor::map`].
    fn pmap(&self, src: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let mut out = self.alloc(src.rows, src.cols);
        crate::kernel::map_into(src, &mut out.data, f);
        out
    }

    /// Pooled counterpart of [`Tensor::zip`] (same shape assert).
    fn pzip(&self, a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
        assert_eq!(
            (a.rows, a.cols),
            (b.rows, b.cols),
            "zip: {}x{} vs {}x{}",
            a.rows,
            a.cols,
            b.rows,
            b.cols
        );
        let mut out = self.alloc(a.rows, a.cols);
        crate::kernel::zip_into(a, b, &mut out.data, f);
        out
    }

    // ----- elementwise / structural ops -------------------------------

    /// Elementwise sum.
    pub fn add(&self, a: Var, b: Var) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "add");
        let v = self.with_values(|n| self.pzip(&n[a.index].value, &n[b.index].value, |x, y| x + y));
        self.push(v, true, Op::Add(a, b))
    }

    /// Elementwise difference.
    pub fn sub(&self, a: Var, b: Var) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "sub");
        let v = self.with_values(|n| self.pzip(&n[a.index].value, &n[b.index].value, |x, y| x - y));
        self.push(v, true, Op::Sub(a, b))
    }

    /// Elementwise product.
    pub fn mul(&self, a: Var, b: Var) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "mul");
        let v = self.with_values(|n| self.pzip(&n[a.index].value, &n[b.index].value, |x, y| x * y));
        self.push(v, true, Op::Mul(a, b))
    }

    /// Matrix product. Forward (and the `matmul_t`/`t_matmul` pair in
    /// backward) runs on the blocked [`crate::kernel`] kernels, which
    /// split large products over the shared worker pool.
    pub fn matmul(&self, a: Var, b: Var) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "matmul");
        let v = self.with_values(|n| {
            let (x, y) = (&n[a.index].value, &n[b.index].value);
            let mut out = self.alloc_zeroed(x.rows, y.cols);
            crate::kernel::matmul_into(x, y, &mut out.data);
            out
        });
        self.push(v, true, Op::MatMul(a, b))
    }

    /// Multiply by a constant scalar.
    pub fn scale(&self, a: Var, s: f32) -> Var {
        self.unary(a, Op::Scale(a, s), move |x| x * s)
    }

    /// Add a constant scalar.
    pub fn add_scalar(&self, a: Var, s: f32) -> Var {
        self.unary(a, Op::AddScalar(a, s), move |x| x + s)
    }

    /// Logistic sigmoid.
    pub fn sigmoid(&self, a: Var) -> Var {
        self.unary(a, Op::Sigmoid(a), crate::kernel::sigmoid)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&self, a: Var) -> Var {
        self.unary(a, Op::Tanh(a), f32::tanh)
    }

    /// Rectified linear unit.
    pub fn relu(&self, a: Var) -> Var {
        self.unary(a, Op::Relu(a), |x| x.max(0.0))
    }

    /// Leaky ReLU with negative slope `alpha`.
    pub fn leaky_relu(&self, a: Var, alpha: f32) -> Var {
        self.unary(a, Op::LeakyRelu(a, alpha), move |x| {
            if x > 0.0 {
                x
            } else {
                alpha * x
            }
        })
    }

    /// Elementwise exponent.
    pub fn exp(&self, a: Var) -> Var {
        self.unary(a, Op::Exp(a), f32::exp)
    }

    /// Elementwise `ln(max(x, 1e-12))` — clamped to stay finite.
    pub fn ln(&self, a: Var) -> Var {
        self.unary(a, Op::Ln(a), |x| x.max(1e-12).ln())
    }

    /// Elementwise absolute value.
    pub fn abs(&self, a: Var) -> Var {
        self.unary(a, Op::Abs(a), f32::abs)
    }

    /// Record the unary elementwise node `op`, whose value is `f` mapped
    /// over `a`'s value.
    fn unary(&self, a: Var, op: Op, f: impl Fn(f32) -> f32 + Sync) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", op_name(&op));
        let v = self.with_values(|n| self.pmap(&n[a.index].value, f));
        self.push(v, true, op)
    }

    /// Sum to scalar.
    pub fn sum(&self, a: Var) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "sum");
        let v = self.with_values(|n| self.alloc_scalar(n[a.index].value.sum()));
        self.push(v, true, Op::Sum(a))
    }

    /// Mean to scalar.
    pub fn mean(&self, a: Var) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "mean");
        let v = self.with_values(|n| self.alloc_scalar(n[a.index].value.mean()));
        self.push(v, true, Op::Mean(a))
    }

    /// Broadcast add a `1×m` row vector to every row of an `n×m` tensor.
    pub fn add_row(&self, a: Var, row: Var) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "add_row");
        let v = self.with_values(|n| {
            let x = &n[a.index].value;
            let r = &n[row.index].value;
            assert_eq!(r.rows, 1, "add_row: rhs must be 1×m");
            assert_eq!(r.cols, x.cols, "add_row: column mismatch");
            let mut out = self.pcopy(x);
            out.add_row_inplace(r);
            out
        });
        self.push(v, true, Op::AddRow(a, row))
    }

    /// Concatenate along columns.
    pub fn concat(&self, parts: &[Var]) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "concat");
        let v = self.with_values(|n| {
            assert!(!parts.is_empty(), "hstack of nothing");
            let rows = n[parts[0].index].value.rows;
            let cols: usize = parts.iter().map(|p| n[p.index].value.cols).sum();
            let mut out = self.alloc(rows, cols);
            for r in 0..rows {
                let mut offset = 0;
                for p in parts {
                    let t = &n[p.index].value;
                    assert_eq!(
                        t.rows, rows,
                        "hstack: part is {}x{} but the first part has {} rows",
                        t.rows, t.cols, rows
                    );
                    out.data[r * cols + offset..r * cols + offset + t.cols]
                        .copy_from_slice(t.row_slice(r));
                    offset += t.cols;
                }
            }
            out
        });
        self.push(v, true, Op::Concat(parts.to_vec()))
    }

    /// Gather rows (embedding lookup): output row `i` is `a[indices[i]]`.
    pub fn rows_select(&self, a: Var, indices: Vec<usize>) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "rows_select");
        let v = self.with_values(|n| {
            let x = &n[a.index].value;
            let mut out = self.alloc(indices.len(), x.cols);
            for (i, &idx) in indices.iter().enumerate() {
                out.row_slice_mut(i).copy_from_slice(x.row_slice(idx));
            }
            out
        });
        self.push(v, true, Op::RowsSelect(a, indices))
    }

    /// Mean-pool groups of rows: output row `g` is the mean of
    /// `a[groups[g]]`. Empty groups produce a zero row.
    pub fn rows_mean(&self, a: Var, groups: Vec<Vec<usize>>) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "rows_mean");
        let v = self.with_values(|n| {
            let x = &n[a.index].value;
            let mut out = self.alloc_zeroed(groups.len(), x.cols);
            for (g, idxs) in groups.iter().enumerate() {
                if idxs.is_empty() {
                    continue;
                }
                let inv = 1.0 / idxs.len() as f32;
                for &idx in idxs {
                    for (o, &v) in out.row_slice_mut(g).iter_mut().zip(x.row_slice(idx)) {
                        *o += v * inv;
                    }
                }
            }
            out
        });
        self.push(v, true, Op::RowsMean(a, groups))
    }

    /// A whole LSTM sequence as one node: the recurrence of
    /// [`kernel::lstm_gates`](crate::kernel::lstm_gates) over the rows of
    /// `xw` from a zero `h` and `c`, returning the final hidden state
    /// (`1×h`). `xw` is the hoisted input projection `seq·Wx` (`T×4h`),
    /// `wh` the recurrent weights (`h×4h`) and `b` the biases (`1×4h`),
    /// gates in `[i|f|o|g]` column blocks. Each step's
    /// `[i|f|o|g|c|tanh c|h]` row stays in the node's pooled `cache`
    /// for backward, which runs BPTT inside this one node.
    ///
    /// # Panics
    /// On an empty sequence, shapes that do not fit `T×4h`, `h×4h`,
    /// `1×4h`, or `wh` and `b` being the same node.
    pub fn lstm(&self, xw: Var, wh: Var, b: Var) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "lstm");
        assert_ne!(wh.index, b.index, "lstm: Wh and b are the same node");
        let (h, cache) = self.with_values(|n| {
            let (x, w, bias) = (&n[xw.index].value, &n[wh.index].value, &n[b.index].value);
            let hd = w.rows;
            assert!(x.rows > 0 && hd > 0, "lstm: empty sequence or hidden state");
            assert!(
                w.cols == 4 * hd && x.cols == w.cols && (bias.rows, bias.cols) == (1, w.cols),
                "lstm: xw {}x{}, Wh {}x{}, b {}x{} do not fit T×4h, h×4h, 1×4h",
                x.rows,
                x.cols,
                w.rows,
                w.cols,
                bias.rows,
                bias.cols
            );
            let width = 7 * hd;
            let mut cache = self.alloc(x.rows, width);
            // The running hidden state, zero at t = 0: `h0·Wh` is
            // computed like every other step's product, and the same
            // zero row is `c0`.
            let mut h = self.alloc_zeroed(1, hd);
            let mut hw = self.pool.take(4 * hd);
            for t in 0..x.rows {
                hw.fill(0.0);
                crate::kernel::matmul_into(&h, w, &mut hw);
                let (done, rest) = cache.data.split_at_mut(t * width);
                let c_prev = match t {
                    0 => &h.data[..],
                    _ => &done[(t - 1) * width + 4 * hd..(t - 1) * width + 5 * hd],
                };
                let row = &mut rest[..width];
                crate::kernel::lstm_gates(x.row_slice(t), &hw, &bias.data, c_prev, row);
                h.data.copy_from_slice(&row[6 * hd..]);
            }
            self.pool.put(hw);
            (h, cache)
        });
        self.push(h, true, Op::Lstm { xw, wh, b, cache })
    }

    /// Inverted dropout with the given 0/1 `mask` (already scaled to the
    /// keep probability by the caller via [`Tape::dropout_mask`]).
    pub fn dropout(&self, a: Var, mask: Tensor) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "dropout");
        let v = self.with_values(|n| self.pzip(&n[a.index].value, &mask, |x, y| x * y));
        self.push(v, true, Op::Dropout(a, mask))
    }

    /// Build an inverted-dropout mask: entries are `0` with probability
    /// `p` and `1/(1-p)` otherwise.
    pub fn dropout_mask(rows: usize, cols: usize, p: f32, rng: &mut rand::rngs::StdRng) -> Tensor {
        use rand::Rng;
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        let keep = 1.0 - p;
        let mut t = Tensor::zeros(rows, cols);
        for v in t.data.iter_mut() {
            if rng.gen::<f32>() >= p {
                *v = 1.0 / keep;
            }
        }
        t
    }

    // ----- losses -----------------------------------------------------

    /// Mean squared error against a constant `target` (scalar node).
    pub fn mse_loss(&self, pred: Var, target: Tensor) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "mse_loss");
        let v = self.with_values(|n| {
            let p = &n[pred.index].value;
            assert_eq!((p.rows, p.cols), (target.rows, target.cols), "mse shapes");
            // Same float sequence as materialising `d = p - target` and
            // summing d*d: each difference rounds to f32 before squaring.
            let mut s = 0.0f32;
            for (&pv, &tv) in p.data.iter().zip(target.data.iter()) {
                let x = pv - tv;
                s += x * x;
            }
            self.alloc_scalar(s / p.len() as f32)
        });
        self.push(v, true, Op::MseLoss(pred, target))
    }

    /// Weighted binary cross entropy with logits (scalar node).
    ///
    /// `targets` and `weights` are `n×1`; the loss is
    /// `mean_i w_i · BCE(sigmoid(z_i), y_i)`. Cost-sensitive training
    /// (paper §6.1, skewed label distributions) passes class-dependent
    /// weights here.
    pub fn bce_with_logits(&self, logits: Var, targets: Tensor, weights: Tensor) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "bce_with_logits");
        let (probs, loss) = self.with_values(|n| {
            let z = &n[logits.index].value;
            assert_eq!((z.rows, z.cols), (targets.rows, targets.cols), "bce shapes");
            assert_eq!(
                (z.rows, z.cols),
                (weights.rows, weights.cols),
                "bce weights"
            );
            let probs = self.pmap(z, crate::kernel::sigmoid);
            let mut loss = 0.0;
            for i in 0..z.len() {
                let p = probs.data[i].clamp(1e-7, 1.0 - 1e-7);
                let y = targets.data[i];
                loss -= weights.data[i] * (y * p.ln() + (1.0 - y) * (1.0 - p).ln());
            }
            (probs, self.alloc_scalar(loss / z.len() as f32))
        });
        self.push(
            loss,
            true,
            Op::BceWithLogits {
                logits,
                targets,
                weights,
                probs,
            },
        )
    }

    /// Softmax cross entropy over row logits against integer labels
    /// (scalar node).
    pub fn softmax_ce(&self, logits: Var, labels: Vec<usize>) -> Var {
        let _fwd = dc_obs::timer("tape.fwd", "softmax_ce");
        let (probs, loss) = self.with_values(|n| {
            let z = &n[logits.index].value;
            assert_eq!(z.rows, labels.len(), "softmax_ce label count");
            // Pooled replica of Tensor::softmax_rows (copy, then the
            // identical per-row max/exp/normalise passes).
            let mut probs = self.pcopy(z);
            for r in 0..probs.rows {
                let row = probs.row_slice_mut(r);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0;
                for v in row.iter_mut() {
                    *v = (*v - max).exp();
                    sum += *v;
                }
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
            let mut loss = 0.0;
            for (r, &lbl) in labels.iter().enumerate() {
                assert!(lbl < z.cols, "label out of range");
                loss -= probs.get(r, lbl).max(1e-12).ln();
            }
            (probs, self.alloc_scalar(loss / labels.len() as f32))
        });
        self.push(
            loss,
            true,
            Op::SoftmaxCe {
                logits,
                labels,
                probs,
            },
        )
    }

    // ----- backward ----------------------------------------------------

    /// Accumulate an owned (pool-backed) contribution into a slot:
    /// in-place axpy when the slot is live (the spent buffer returns to
    /// the pool), otherwise the buffer *becomes* the slot — no clone.
    fn acc_owned(&self, grads: &mut [Option<Tensor>], nodes: &[Node], idx: usize, g: Tensor) {
        match &mut grads[idx] {
            Some(existing) => {
                existing.axpy(1.0, &g);
                self.pool.put(g.data);
            }
            slot @ None => {
                debug_assert_eq!(
                    (nodes[idx].value.rows, nodes[idx].value.cols),
                    (g.rows, g.cols),
                    "gradient shape mismatch at node {idx}"
                );
                *slot = Some(g);
            }
        }
    }

    /// Accumulate a borrowed contribution: in-place axpy, or a pooled
    /// copy when the slot is empty.
    fn acc_ref(&self, grads: &mut [Option<Tensor>], nodes: &[Node], idx: usize, g: &Tensor) {
        match &mut grads[idx] {
            Some(existing) => existing.axpy(1.0, g),
            slot @ None => {
                debug_assert_eq!(
                    (nodes[idx].value.rows, nodes[idx].value.cols),
                    (g.rows, g.cols),
                    "gradient shape mismatch at node {idx}"
                );
                *slot = Some(self.pcopy(g));
            }
        }
    }

    /// Run reverse-mode differentiation from the scalar node `out`.
    ///
    /// Gradients accumulate; call once per tape generation. Reading them
    /// back is via [`Tape::grad`] / [`Tape::with_grad`]. All gradient
    /// buffers come from the tape's pool and accumulation is in-place
    /// (`axpy`), so a steady-state sweep performs no heap allocation.
    ///
    /// # Panics
    /// Panics if `out` is not a `1×1` scalar.
    pub fn backward(&self, out: Var) {
        static BACKWARD: dc_obs::Hist = dc_obs::Hist::new("tape.backward");
        let _sweep = BACKWARD.start();
        self.assert_owned(out, "backward");
        self.backward_runs.set(self.backward_runs.get() + 1);
        let nodes = self.nodes.borrow();
        assert_eq!(nodes[out.index].value.len(), 1, "backward needs a scalar");

        // Reuse the grads storage (its slots were pushed alongside the
        // nodes); recycle anything left over from a previous run on
        // this generation.
        let mut grads: Vec<Option<Tensor>> = std::mem::take(&mut *self.grads.borrow_mut());
        debug_assert_eq!(grads.len(), nodes.len());
        for slot in grads.iter_mut() {
            if let Some(t) = slot.take() {
                self.pool.put(t.data);
            }
        }
        grads[out.index] = Some(self.alloc_scalar(1.0));

        for i in (0..=out.index).rev() {
            let g = match grads[i].take() {
                Some(g) => g,
                None => continue,
            };
            let node = &nodes[i];
            let _bwd = dc_obs::timer("tape.bwd", op_name(&node.op));
            match &node.op {
                Op::Leaf => {
                    grads[i] = Some(g);
                    continue;
                }
                Op::Add(a, b) => {
                    self.acc_ref(&mut grads, &nodes, a.index, &g);
                    self.acc_owned(&mut grads, &nodes, b.index, g);
                }
                Op::Sub(a, b) => {
                    self.acc_ref(&mut grads, &nodes, a.index, &g);
                    let neg = self.pmap(&g, |v| -v);
                    self.acc_owned(&mut grads, &nodes, b.index, neg);
                    self.pool.put(g.data);
                }
                Op::Mul(a, b) => {
                    let ga = self.pzip(&g, &nodes[b.index].value, |x, y| x * y);
                    let gb = self.pzip(&g, &nodes[a.index].value, |x, y| x * y);
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.acc_owned(&mut grads, &nodes, b.index, gb);
                    self.pool.put(g.data);
                }
                Op::MatMul(a, b) => {
                    // dL/dA = G · Bᵀ ; dL/dB = Aᵀ · G
                    let (av, bv) = (&nodes[a.index].value, &nodes[b.index].value);
                    // `matmul_t_into` overwrites; `t_matmul_into` adds.
                    let mut ga = self.alloc(g.rows, bv.rows);
                    crate::kernel::matmul_t_into(&g, bv, &mut ga.data);
                    let mut gb = self.alloc_zeroed(av.cols, g.cols);
                    crate::kernel::t_matmul_into(av, &g, &mut gb.data);
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.acc_owned(&mut grads, &nodes, b.index, gb);
                    self.pool.put(g.data);
                }
                Op::Scale(a, s) => {
                    let s = *s;
                    let ga = self.pmap(&g, move |v| v * s);
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::AddScalar(a, _) => self.acc_owned(&mut grads, &nodes, a.index, g),
                Op::Sigmoid(a) => {
                    let y = &node.value;
                    let ga = self.pzip(&g, y, |gi, yi| gi * yi * (1.0 - yi));
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::Tanh(a) => {
                    let y = &node.value;
                    let ga = self.pzip(&g, y, |gi, yi| gi * (1.0 - yi * yi));
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::Relu(a) => {
                    let x = &nodes[a.index].value;
                    let ga = self.pzip(&g, x, |gi, xi| if xi > 0.0 { gi } else { 0.0 });
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::LeakyRelu(a, alpha) => {
                    let x = &nodes[a.index].value;
                    let al = *alpha;
                    let ga = self.pzip(&g, x, |gi, xi| if xi > 0.0 { gi } else { al * gi });
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::Exp(a) => {
                    let ga = self.pzip(&g, &node.value, |x, y| x * y);
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::Ln(a) => {
                    let x = &nodes[a.index].value;
                    let ga = self.pzip(&g, x, |gi, xi| gi / xi.max(1e-12));
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::Abs(a) => {
                    let x = &nodes[a.index].value;
                    let ga = self.pzip(&g, x, |gi, xi| gi * xi.signum());
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::Sum(a) => {
                    let s = g.data[0];
                    let (r, c) = (nodes[a.index].value.rows, nodes[a.index].value.cols);
                    let mut ga = self.alloc(r, c);
                    ga.data.fill(s);
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::Mean(a) => {
                    let n = nodes[a.index].value.len() as f32;
                    let s = g.data[0] / n;
                    let (r, c) = (nodes[a.index].value.rows, nodes[a.index].value.cols);
                    let mut ga = self.alloc(r, c);
                    ga.data.fill(s);
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::AddRow(a, row) => {
                    // Row gradient: column sums of g (computed before g
                    // moves into a's slot).
                    let mut gr = self.alloc_zeroed(1, g.cols);
                    for r in 0..g.rows {
                        for (o, &v) in gr.data.iter_mut().zip(g.row_slice(r)) {
                            *o += v;
                        }
                    }
                    let row = *row;
                    self.acc_owned(&mut grads, &nodes, a.index, g);
                    self.acc_owned(&mut grads, &nodes, row.index, gr);
                }
                Op::Concat(parts) => {
                    let mut offset = 0;
                    for p in parts {
                        let pc = nodes[p.index].value.cols;
                        let mut gp = self.alloc(g.rows, pc);
                        for r in 0..g.rows {
                            gp.row_slice_mut(r)
                                .copy_from_slice(&g.row_slice(r)[offset..offset + pc]);
                        }
                        self.acc_owned(&mut grads, &nodes, p.index, gp);
                        offset += pc;
                    }
                    self.pool.put(g.data);
                }
                Op::RowsSelect(a, indices) => {
                    let (r, c) = (nodes[a.index].value.rows, nodes[a.index].value.cols);
                    let mut ga = self.alloc_zeroed(r, c);
                    for (i, &idx) in indices.iter().enumerate() {
                        for (o, &v) in ga.row_slice_mut(idx).iter_mut().zip(g.row_slice(i)) {
                            *o += v;
                        }
                    }
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::RowsMean(a, groups) => {
                    let (r, c) = (nodes[a.index].value.rows, nodes[a.index].value.cols);
                    let mut ga = self.alloc_zeroed(r, c);
                    for (gi, idxs) in groups.iter().enumerate() {
                        if idxs.is_empty() {
                            continue;
                        }
                        let inv = 1.0 / idxs.len() as f32;
                        for &idx in idxs {
                            for (o, &v) in ga.row_slice_mut(idx).iter_mut().zip(g.row_slice(gi)) {
                                *o += v * inv;
                            }
                        }
                    }
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::Dropout(a, mask) => {
                    let ga = self.pzip(&g, mask, |x, y| x * y);
                    self.acc_owned(&mut grads, &nodes, a.index, ga);
                    self.pool.put(g.data);
                }
                Op::MseLoss(pred, target) => {
                    let p = &nodes[pred.index].value;
                    let scale = 2.0 * g.data[0] / p.len() as f32;
                    // (p - t) rounds to f32 before the scale, exactly as
                    // the materialised sub().scale() pair did.
                    let gp = self.pzip(p, target, move |pv, tv| (pv - tv) * scale);
                    self.acc_owned(&mut grads, &nodes, pred.index, gp);
                    self.pool.put(g.data);
                }
                Op::BceWithLogits {
                    logits,
                    targets,
                    weights,
                    probs,
                } => {
                    // d/dz of mean_i w_i BCE = w_i (p_i - y_i) / n, with
                    // the same per-step f32 rounding as the former
                    // sub().mul().scale() chain.
                    let n = probs.len() as f32;
                    let s = g.data[0] / n;
                    let mut gz = self.alloc(probs.rows, probs.cols);
                    for (o, ((&pv, &yv), &wv)) in gz.data.iter_mut().zip(
                        probs
                            .data
                            .iter()
                            .zip(targets.data.iter())
                            .zip(weights.data.iter()),
                    ) {
                        let d = pv - yv;
                        let dw = d * wv;
                        *o = dw * s;
                    }
                    self.acc_owned(&mut grads, &nodes, logits.index, gz);
                    self.pool.put(g.data);
                }
                Op::SoftmaxCe {
                    logits,
                    labels,
                    probs,
                } => {
                    let n = labels.len() as f32;
                    let s = g.data[0] / n;
                    let mut gz = self.pmap(probs, move |v| v * s);
                    for (r, &lbl) in labels.iter().enumerate() {
                        let v = gz.get(r, lbl);
                        gz.set(r, lbl, v - s);
                    }
                    self.acc_owned(&mut grads, &nodes, logits.index, gz);
                    self.pool.put(g.data);
                }
                Op::Lstm { xw, wh, b, cache } => {
                    let w = &nodes[wh.index].value;
                    let mut dwh = grads[wh.index]
                        .take()
                        .unwrap_or_else(|| self.alloc_zeroed(w.rows, w.cols));
                    let mut db = grads[b.index]
                        .take()
                        .unwrap_or_else(|| self.alloc_zeroed(1, w.cols));
                    let dxw = self.lstm_backward(&g, cache, w, &mut dwh, &mut db);
                    grads[wh.index] = Some(dwh);
                    grads[b.index] = Some(db);
                    self.acc_owned(&mut grads, &nodes, xw.index, dxw);
                    self.pool.put(g.data);
                }
            }
        }

        *self.grads.borrow_mut() = grads;
    }

    /// BPTT through one [`Op::Lstm`] node, last step first: adds each
    /// step's `Wh` and `b` terms into `dwh` and `db` in place and returns
    /// `dxw` (`T×4h`). `dh` is the gradient of the final hidden state.
    ///
    /// Every element follows the float sequence of the graph the op
    /// replaced, which composed each step from primitive nodes:
    /// - `dc_t = (dc_{t+1}·f_{t+1}) + ((dh·o)·(1 − tanh² c))`, the carried
    ///   term first (the last step has none);
    /// - sigmoid′ as `(g·y)·(1 − y)`, tanh′ as `g·(1 − y²)`;
    /// - each gate gradient lands as `0.0 + x`, as it did through the
    ///   zero-filled gate-split temporaries; that row is `dxw`'s row `t`
    ///   and `db`'s term, and `Wh`'s term is `0.0 + h_{t−1}·dz`;
    /// - `dh_{t−1} = dz·Whᵀ` through [`kernel::matmul_t_into`](crate::kernel::matmul_t_into);
    /// - step 0 multiplies by its zero `h` and `c` like any other step.
    fn lstm_backward(
        &self,
        dh: &Tensor,
        cache: &Tensor,
        w: &Tensor,
        dwh: &mut Tensor,
        db: &mut Tensor,
    ) -> Tensor {
        let hd = w.rows;
        let width = 7 * hd;
        let steps = cache.rows;
        let mut dxw = self.alloc(steps, 4 * hd);
        let mut dz = self.alloc(1, 4 * hd);
        let mut dh = self.pcopy(dh);
        // `dc_{t+1}·f_{t+1}`, carried from step t + 1 to step t.
        let mut carry = self.pool.take(hd);
        // Step 0's `h_{-1}` and `c_{-1}`.
        let zero = self.pool.take_zeroed(hd);
        for t in (0..steps).rev() {
            let row = cache.row_slice(t);
            let (i, f, o, g) = (
                &row[..hd],
                &row[hd..2 * hd],
                &row[2 * hd..3 * hd],
                &row[3 * hd..4 * hd],
            );
            let tc = &row[5 * hd..6 * hd];
            let (h_prev, c_prev) = match t {
                0 => (&zero[..], &zero[..]),
                _ => {
                    let prev = &cache.data[(t - 1) * width..t * width];
                    (&prev[6 * hd..], &prev[4 * hd..5 * hd])
                }
            };
            let last = t + 1 == steps;
            for j in 0..hd {
                let d_tc = dh.data[j] * o[j];
                let dc_own = d_tc * (1.0 - tc[j] * tc[j]);
                let dc = if last { dc_own } else { carry[j] + dc_own };
                let d_o = dh.data[j] * tc[j];
                let d_i = dc * g[j];
                let d_g = dc * i[j];
                let d_f = dc * c_prev[j];
                carry[j] = dc * f[j];
                dz.data[j] = 0.0 + (d_i * i[j]) * (1.0 - i[j]);
                dz.data[hd + j] = 0.0 + (d_f * f[j]) * (1.0 - f[j]);
                dz.data[2 * hd + j] = 0.0 + (d_o * o[j]) * (1.0 - o[j]);
                dz.data[3 * hd + j] = 0.0 + d_g * (1.0 - g[j] * g[j]);
            }
            dxw.row_slice_mut(t).copy_from_slice(&dz.data);
            // `dz` already carries the `0.0 +`, so `0.0 + dz` is `dz`.
            for (s, &d) in db.data.iter_mut().zip(&dz.data) {
                *s += d;
            }
            for (srow, &hp) in dwh.data.chunks_exact_mut(4 * hd).zip(h_prev) {
                for (s, &d) in srow.iter_mut().zip(&dz.data) {
                    *s += 0.0 + hp * d;
                }
            }
            if t > 0 {
                crate::kernel::matmul_t_into(&dz, w, &mut dh.data);
            }
        }
        self.pool.put(zero);
        self.pool.put(carry);
        self.pool.put(dh.data);
        self.pool.put(dz.data);
        dxw
    }
}

impl Drop for Tape {
    /// Flush pool hit/miss counts to the dc-obs counters so tapes that
    /// are dropped without ever recycling (e.g. the unpooled
    /// fresh-tape-per-step baseline) still show up in `ObsReport`.
    fn drop(&mut self) {
        self.pool.publish_counters();
    }
}

/// Human-readable name of an [`Op`] variant, used in diagnostics here and
/// by `dc-check`'s error reports.
pub fn op_name(op: &Op) -> &'static str {
    match op {
        Op::Leaf => "leaf",
        Op::Add(..) => "add",
        Op::Sub(..) => "sub",
        Op::Mul(..) => "mul",
        Op::MatMul(..) => "matmul",
        Op::Scale(..) => "scale",
        Op::AddScalar(..) => "add_scalar",
        Op::Sigmoid(..) => "sigmoid",
        Op::Tanh(..) => "tanh",
        Op::Relu(..) => "relu",
        Op::LeakyRelu(..) => "leaky_relu",
        Op::Exp(..) => "exp",
        Op::Ln(..) => "ln",
        Op::Abs(..) => "abs",
        Op::Sum(..) => "sum",
        Op::Mean(..) => "mean",
        Op::AddRow(..) => "add_row",
        Op::Concat(..) => "concat",
        Op::RowsSelect(..) => "rows_select",
        Op::RowsMean(..) => "rows_mean",
        Op::Dropout(..) => "dropout",
        Op::MseLoss(..) => "mse_loss",
        Op::BceWithLogits { .. } => "bce_with_logits",
        Op::SoftmaxCe { .. } => "softmax_ce",
        Op::Lstm { .. } => "lstm",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grad_check;
    use rand::SeedableRng;

    #[test]
    fn backward_linear() {
        // y = sum(3x + 2) ; dy/dx = 3.
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0]));
        let y = t.sum(t.add_scalar(t.scale(x, 3.0), 2.0));
        t.backward(y);
        assert_eq!(t.grad(x).data, vec![3.0, 3.0]);
        assert_eq!(t.value(y).data[0], 3.0 + 2.0 + 6.0 + 2.0);
    }

    #[test]
    fn backward_shared_subexpression_accumulates() {
        // y = sum(x*x + x) ; dy/dx = 2x + 1.
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![2.0]));
        let y = t.sum(t.add(t.mul(x, x), x));
        t.backward(y);
        assert!((t.grad(x).data[0] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn gradcheck_sigmoid_tanh_relu_abs_ln_exp() {
        let x = Tensor::from_vec(1, 5, vec![0.3, -0.7, 1.5, -2.0, 0.9]);
        for (name, f) in [
            (
                "sigmoid",
                Box::new(|t: &Tape, v: Var| t.sum(t.sigmoid(v))) as Box<dyn Fn(&Tape, Var) -> Var>,
            ),
            ("tanh", Box::new(|t: &Tape, v: Var| t.sum(t.tanh(v)))),
            (
                "leaky",
                Box::new(|t: &Tape, v: Var| t.sum(t.leaky_relu(v, 0.1))),
            ),
            ("abs", Box::new(|t: &Tape, v: Var| t.sum(t.abs(v)))),
            ("exp", Box::new(|t: &Tape, v: Var| t.sum(t.exp(v)))),
            (
                "lnsq",
                Box::new(|t: &Tape, v: Var| t.sum(t.ln(t.add_scalar(t.mul(v, v), 1.0)))),
            ),
        ] {
            let err = grad_check(&x, f, 1e-3);
            assert!(err < 2e-2, "{name} gradient error {err}");
        }
    }

    #[test]
    fn gradcheck_add_row_and_concat() {
        let x = Tensor::from_vec(3, 2, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let err = grad_check(
            &x,
            |t, v| {
                let row = t.var(Tensor::row(vec![1.0, -2.0]));
                let y = t.add_row(v, row);
                let c = t.concat(&[y, v]);
                t.sum(t.mul(c, c))
            },
            1e-3,
        );
        assert!(err < 1e-2, "err {err}");
    }

    /// Deterministic `rows×cols` values in `[-1, 1]`, varied by `salt`.
    fn wave(rows: usize, cols: usize, salt: usize) -> Tensor {
        let data = (0..rows * cols)
            .map(|i| ((i * 7 + salt * 5) % 11) as f32 * 0.2 - 1.0)
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    #[test]
    fn gradcheck_lstm() {
        // Through a 3-step recurrence, w.r.t. the input projection; the
        // loss squares the final state so every step carries gradient.
        let err = grad_check(
            &wave(3, 8, 0),
            |t, v| {
                let h = t.lstm(v, t.var(wave(2, 8, 1)), t.var(wave(1, 8, 2)));
                t.sum(t.mul(h, h))
            },
            1e-3,
        );
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn lstm_steps_the_shared_gate_function() {
        let (x, w, b) = (wave(2, 8, 3), wave(2, 8, 4), wave(1, 8, 5));
        let tape = Tape::new();
        let h = tape.lstm(tape.var_from(&x), tape.var_from(&w), tape.var_from(&b));
        let mut state = Tensor::zeros(1, 2);
        let mut c = vec![0.0; 2];
        let mut row = vec![0.0; 14];
        for t in 0..2 {
            let hw = crate::kernel::matmul(&state, &w);
            crate::kernel::lstm_gates(x.row_slice(t), &hw.data, &b.data, &c, &mut row);
            c.copy_from_slice(&row[8..10]);
            state.data.copy_from_slice(&row[12..]);
        }
        assert_eq!(tape.value(h).data, state.data);
        assert_eq!(tape.shape(h), (1, 2));
    }

    #[test]
    #[should_panic(expected = "do not fit T×4h, h×4h, 1×4h")]
    fn lstm_rejects_mismatched_shapes() {
        let tape = Tape::new();
        let x = tape.var(Tensor::zeros(3, 8));
        let _ = tape.lstm(
            x,
            tape.var(Tensor::zeros(2, 8)),
            tape.var(Tensor::zeros(1, 6)),
        );
    }

    #[test]
    #[should_panic(expected = "lstm: empty sequence")]
    fn lstm_rejects_an_empty_sequence() {
        let tape = Tape::new();
        let x = tape.var(Tensor::zeros(0, 8));
        let _ = tape.lstm(
            x,
            tape.var(Tensor::zeros(2, 8)),
            tape.var(Tensor::zeros(1, 8)),
        );
    }

    #[test]
    fn gradcheck_rows_select_and_mean() {
        let x = Tensor::from_vec(4, 2, vec![0.1, 0.9, -0.2, 0.4, 0.7, -0.5, 0.3, 0.3]);
        let err = grad_check(
            &x,
            |t, v| {
                let sel = t.rows_select(v, vec![0, 2, 2, 3]);
                let m = t.rows_mean(sel, vec![vec![0, 1], vec![2, 3]]);
                t.sum(t.mul(m, m))
            },
            1e-3,
        );
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn gradcheck_mse() {
        let x = Tensor::from_vec(2, 2, vec![0.5, -0.5, 1.0, 2.0]);
        let target = Tensor::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let err = grad_check(&x, move |t, v| t.mse_loss(v, target.clone()), 1e-3);
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn gradcheck_bce_with_logits() {
        let x = Tensor::from_vec(3, 1, vec![0.5, -1.5, 2.0]);
        let targets = Tensor::from_vec(3, 1, vec![1.0, 0.0, 1.0]);
        let weights = Tensor::from_vec(3, 1, vec![1.0, 4.0, 0.5]);
        let err = grad_check(
            &x,
            move |t, v| t.bce_with_logits(v, targets.clone(), weights.clone()),
            1e-3,
        );
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn gradcheck_softmax_ce() {
        let x = Tensor::from_vec(2, 3, vec![0.2, -0.4, 0.9, 1.2, 0.0, -0.3]);
        let err = grad_check(&x, |t, v| t.softmax_ce(v, vec![2, 0]), 1e-3);
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn gradcheck_matmul_both_sides() {
        // Check gradient w.r.t. the right operand too.
        let w = Tensor::from_vec(3, 2, vec![0.3, -0.1, 0.4, 0.2, -0.6, 0.5]);
        let err = grad_check(
            &w,
            |t, v| {
                let x = t.var(Tensor::from_vec(2, 3, vec![1.0, 0.5, -0.5, 0.2, 0.8, -1.0]));
                let y = t.matmul(x, v);
                t.mse_loss(y, Tensor::zeros(2, 2))
            },
            1e-3,
        );
        assert!(err < 1e-2, "err {err}");
    }

    #[test]
    fn gradcheck_long_unary_chain() {
        // Four unary stages in a row, each its own node.
        let x = Tensor::from_vec(1, 5, vec![0.3, -0.7, 1.5, -2.0, 0.9]);
        let err = grad_check(
            &x,
            |t, v| t.sum(t.tanh(t.sigmoid(t.add_scalar(t.scale(v, 2.0), -0.5)))),
            1e-3,
        );
        assert!(err < 2e-2, "err {err}");
    }

    #[test]
    fn gradcheck_unary_chain_with_shared_interior() {
        // The sigmoid's input is also consumed by a mul outside the
        // chain, so its gradient accumulates from two consumers.
        let x = Tensor::from_vec(1, 4, vec![0.4, -0.2, 1.1, -0.8]);
        let err = grad_check(
            &x,
            |t, v| {
                let s = t.scale(v, 2.0);
                let y = t.sigmoid(s);
                t.sum(t.mul(y, s))
            },
            1e-3,
        );
        assert!(err < 2e-2, "err {err}");
    }

    #[test]
    fn recycle_remints_id_and_reuses_buffers() {
        let t = Tape::new();
        let run = |t: &Tape| {
            let x = t.var_slice(1, 3, &[1.0, -2.0, 3.0]);
            let y = t.sum(t.mul(x, x));
            t.backward(y);
            (t.item(y), t.grad(x))
        };
        let id0 = t.id();
        let (v0, g0) = run(&t);
        let miss0 = t.pool_stats().misses;
        t.recycle();
        assert_ne!(t.id(), id0, "recycle mints a fresh generation id");
        assert!(t.is_empty());
        assert_eq!(t.backward_runs(), 0);
        let (v1, g1) = run(&t);
        assert_eq!(v0, v1);
        assert_eq!(g0.data, g1.data);
        let s = t.pool_stats();
        if t.pool_stats().held_bytes > 0 || s.hits > 0 {
            // Pool on: the second step allocated nothing new.
            assert_eq!(s.misses, miss0, "recycled step must not miss");
            assert!(s.hits > 0);
        }
    }

    #[test]
    fn dropout_mask_scales_kept_units() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let m = Tape::dropout_mask(10, 10, 0.5, &mut rng);
        for &v in &m.data {
            assert!(v == 0.0 || (v - 2.0).abs() < 1e-6);
        }
        let kept = m.data.iter().filter(|&&v| v != 0.0).count();
        assert!(kept > 20 && kept < 80, "kept {kept}");
    }

    #[test]
    fn dropout_grad_flows_through_mask() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0, 3.0]));
        let mask = Tensor::row(vec![2.0, 0.0, 2.0]);
        let y = t.sum(t.dropout(x, mask));
        t.backward(y);
        assert_eq!(t.grad(x).data, vec![2.0, 0.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_non_scalar_panics() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0]));
        t.backward(x);
    }

    #[test]
    fn tapes_get_distinct_ids_and_vars_remember_theirs() {
        let a = Tape::new();
        let b = Tape::new();
        assert_ne!(a.id(), b.id());
        let va = a.var(Tensor::scalar(1.0));
        assert_eq!(va.tape_id(), a.id());
        assert_eq!(va.index(), 0);
    }

    #[test]
    #[should_panic(expected = "does not belong to this tape")]
    fn cross_tape_var_in_op_panics() {
        let a = Tape::new();
        let b = Tape::new();
        let va = a.var(Tensor::row(vec![1.0, 2.0]));
        let vb = b.var(Tensor::row(vec![3.0, 4.0]));
        let _ = a.add(va, vb);
    }

    #[test]
    #[should_panic(expected = "does not belong to this tape")]
    fn cross_tape_var_in_accessor_panics() {
        let a = Tape::new();
        let b = Tape::new();
        let _ = a.var(Tensor::scalar(1.0));
        let vb = b.var(Tensor::scalar(2.0));
        let _ = a.value(vb);
    }

    #[test]
    #[should_panic(expected = "does not belong to this tape")]
    fn recycled_generation_invalidates_old_vars() {
        let t = Tape::new();
        let x = t.var(Tensor::scalar(1.0));
        t.recycle();
        let _ = t.value(x);
    }

    #[test]
    fn backward_runs_counts_calls() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0]));
        let s = t.sum(x);
        assert_eq!(t.backward_runs(), 0);
        t.backward(s);
        assert_eq!(t.backward_runs(), 1);
        t.backward(s);
        assert_eq!(t.backward_runs(), 2);
    }

    #[test]
    fn op_of_and_node_walk_expose_the_graph() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0]));
        let s = t.sum(t.sigmoid(x));
        assert!(matches!(t.op_of(x), Op::Leaf));
        assert!(matches!(t.op_of(s), Op::Sum(_)));
        t.backward(s);
        let mut names = Vec::new();
        let mut with_grad = 0;
        t.for_each_node(|_, op, value, grad| {
            names.push(op_name(op));
            assert!(!value.is_empty());
            if grad.is_some() {
                with_grad += 1;
            }
        });
        assert_eq!(names, vec!["leaf", "sigmoid", "sum"]);
        assert_eq!(with_grad, 1); // the reverse sweep keeps only leaf grads
    }

    #[test]
    fn with_grad_and_item_read_in_place() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0]));
        let y = t.sum(t.scale(x, 2.0));
        assert_eq!(t.item(y), 6.0);
        t.with_grad(x, |g| assert_eq!(g.data, vec![0.0, 0.0]));
        t.backward(y);
        t.with_grad(x, |g| assert_eq!(g.data, vec![2.0, 2.0]));
    }
}
