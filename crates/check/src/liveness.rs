//! Static tape liveness analysis.
//!
//! [`Tape::backward`] recycles aggressively: gradient buffers move
//! between slots (`acc_owned`) and every buffer ultimately returns to
//! the tape's [`BufferPool`]. The ROADMAP's next levers — gradient
//! checkpointing and out-of-core batches — will start recycling *value*
//! buffers mid-step too. This module is the safety net for that: it
//! computes, purely from the recorded graph,
//!
//! 1. **last use per node** — the last forward consumer of each value
//!    ([`Liveness::last_forward_use`]) and the last backward-sweep
//!    position that reads it ([`Liveness::last_backward_read`]),
//! 2. an **early-recycle plan** ([`Liveness::release`]): the earliest
//!    point each pooled value buffer could safely return to the pool, and
//! 3. a **pool-traffic forecast** ([`forecast_pool`]): an exact replay
//!    of the step's take/put sequence predicting `PoolStats` — hits,
//!    misses and the high-water mark — before the step runs. Tests hold
//!    this against actuals on the real MLP / DeepER-LSTM training steps.
//!
//! The analysis mirrors `backward()`'s arms *instruction for
//! instruction* (which buffers each arm allocates, reads, and returns,
//! in order). The parity tests in `crates/nn/tests/liveness_parity.rs`
//! and the proptest in `crates/check/tests/liveness_prop.rs` keep the
//! mirror honest: any drift between this model and the runtime shows up
//! as a stats mismatch.

use crate::diag::{Defect, GraphError};
use dc_tensor::{op_name, Op, PoolStats, Tape};

/// Where a pooled value buffer could earliest be released, per node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleasePoint {
    /// Not pool-backed (caller-owned leaf): nothing to release.
    Unpooled,
    /// The backward root. Its value is the loss the caller reads after
    /// the step, so the plan never releases it early.
    Held,
    /// No backward arm reads this value: recyclable as soon as forward
    /// recording is done, before the sweep starts.
    AfterForward,
    /// Recyclable once the backward sweep has finished this arena
    /// position (the sweep walks positions in *descending* order).
    AfterSweep(usize),
}

/// The result of [`analyze`]: liveness facts for one backward root.
#[derive(Clone, Debug)]
pub struct Liveness {
    /// The backward root (arena index) this analysis is relative to.
    pub root: usize,
    /// Per node: does its backward arm run during the sweep? False for
    /// nodes gradient never reaches.
    pub reachable: Vec<bool>,
    /// Per node: the last arena position whose *forward* computation
    /// reads this node's value (its own position if never consumed).
    pub last_forward_use: Vec<usize>,
    /// Per node: the last backward-sweep position that reads this
    /// node's *value* buffer, or `None` if backward never reads it.
    /// Positions descend during the sweep, so "last in time" is the
    /// *minimum* reading position.
    pub last_backward_read: Vec<Option<usize>>,
    /// The early-recycle plan (see [`ReleasePoint`]). Future gradient
    /// checkpointing consumes this; [`verify_plan`] rejects any plan —
    /// this one or a caller-modified one — that reads past a release.
    pub release: Vec<ReleasePoint>,
}

/// Simplified op mirror: operand indices plus exactly the distinctions
/// `backward()`'s arms make, and nothing more.
enum MOp {
    Leaf,
    Add(usize, usize),
    Sub(usize, usize),
    Mul(usize, usize),
    MatMul(usize, usize),
    /// `AddScalar`: passes the gradient through unchanged (no allocation,
    /// no value read).
    PassThrough(usize),
    /// `Scale`: allocates a scaled gradient but reads no value.
    GradOnly(usize),
    /// `Sigmoid`/`Tanh`/`Exp`: backward reads the node's *own* value.
    ReadsOwn(usize),
    /// `Relu`/`LeakyRelu`/`Ln`/`Abs`: backward reads the *input* value.
    ReadsIn(usize),
    /// `Sum`/`Mean`: allocates an input-shaped gradient, reads no value.
    Reduce(usize),
    AddRow(usize, usize),
    Concat(Vec<usize>),
    /// `RowsSelect`/`RowsMean`/`SliceCols`: zero-filled input-shaped
    /// scatter target.
    Scatter(usize),
    /// Mask is an embedded tensor, not a node: gradient-only.
    Dropout(usize),
    /// Reads the prediction node's value.
    MseLoss(usize),
    /// `BceWithLogits`/`SoftmaxCe`: reads the cached aux `probs`, *not*
    /// the logits value.
    AuxLoss(usize),
}

struct Meta {
    name: &'static str,
    rows: usize,
    cols: usize,
    pooled: bool,
    aux_pooled: bool,
    /// Element count of the cached aux tensor (loss `probs`), 0 otherwise.
    aux_len: usize,
    op: MOp,
}

impl Meta {
    fn len(&self) -> usize {
        self.rows * self.cols
    }
}

fn malformed(node: usize, name: &'static str, expected: String, got: String) -> GraphError {
    GraphError {
        node,
        op: name,
        defect: Defect::Malformed,
        expected,
        got,
    }
}

/// Snapshot the tape into the analysis mirror. Fails with `Malformed`
/// diagnostics on forward references (an operand index at or past its
/// consumer), which would make every downstream pass meaningless.
fn capture(tape: &Tape) -> Result<Vec<Meta>, Vec<GraphError>> {
    let flags = tape.pooled_flags();
    let mut metas: Vec<Meta> = Vec::with_capacity(flags.len());
    let mut errors: Vec<GraphError> = Vec::new();
    tape.for_each_node(|i, op, value, _| {
        let name = op_name(op);
        let mop = match op {
            Op::Leaf => MOp::Leaf,
            Op::Add(a, b) => MOp::Add(a.index(), b.index()),
            Op::Sub(a, b) => MOp::Sub(a.index(), b.index()),
            Op::Mul(a, b) => MOp::Mul(a.index(), b.index()),
            Op::MatMul(a, b) => MOp::MatMul(a.index(), b.index()),
            Op::AddScalar(a, _) => MOp::PassThrough(a.index()),
            Op::Scale(a, _) => MOp::GradOnly(a.index()),
            Op::Sigmoid(a) | Op::Tanh(a) | Op::Exp(a) => MOp::ReadsOwn(a.index()),
            Op::Relu(a) | Op::LeakyRelu(a, _) | Op::Ln(a) | Op::Abs(a) => MOp::ReadsIn(a.index()),
            Op::Sum(a) | Op::Mean(a) => MOp::Reduce(a.index()),
            Op::AddRow(a, b) => MOp::AddRow(a.index(), b.index()),
            Op::Concat(parts) => MOp::Concat(parts.iter().map(|p| p.index()).collect()),
            Op::RowsSelect(a, _) | Op::RowsMean(a, _) | Op::SliceCols(a, _, _) => {
                MOp::Scatter(a.index())
            }
            Op::Dropout(a, _) => MOp::Dropout(a.index()),
            Op::MseLoss(a, _) => MOp::MseLoss(a.index()),
            Op::BceWithLogits { logits, .. } | Op::SoftmaxCe { logits, .. } => {
                MOp::AuxLoss(logits.index())
            }
        };
        let aux_len = match op {
            Op::BceWithLogits { probs, .. } | Op::SoftmaxCe { probs, .. } => probs.len(),
            _ => 0,
        };
        let (pooled, aux_pooled) = flags.get(i).copied().unwrap_or((false, false));
        let meta = Meta {
            name,
            rows: value.rows,
            cols: value.cols,
            pooled,
            aux_pooled,
            aux_len,
            op: mop,
        };
        let mut bad = Vec::new();
        for_each_operand(&meta.op, |j| {
            if j >= i {
                bad.push(j);
            }
        });
        for j in bad {
            errors.push(malformed(
                i,
                name,
                "operands recorded before their consumer".into(),
                format!("operand {j} at or past node {i}"),
            ));
        }
        metas.push(meta);
    });
    if errors.is_empty() {
        Ok(metas)
    } else {
        Err(errors)
    }
}

/// Enumerate a node's operand indices.
fn for_each_operand(op: &MOp, mut f: impl FnMut(usize)) {
    match op {
        MOp::Leaf => {}
        MOp::Add(a, b)
        | MOp::Sub(a, b)
        | MOp::Mul(a, b)
        | MOp::MatMul(a, b)
        | MOp::AddRow(a, b) => {
            f(*a);
            f(*b);
        }
        MOp::PassThrough(a)
        | MOp::GradOnly(a)
        | MOp::ReadsOwn(a)
        | MOp::ReadsIn(a)
        | MOp::Reduce(a)
        | MOp::Scatter(a)
        | MOp::Dropout(a)
        | MOp::MseLoss(a)
        | MOp::AuxLoss(a) => f(*a),
        MOp::Concat(parts) => parts.iter().for_each(|&p| f(p)),
    }
}

/// What [`verify_plan`] and [`analyze`] need about one sweep: which
/// arms run and what each running arm reads.
struct Sweep {
    reachable: Vec<bool>,
    /// `reads[i]` = value buffers arm `i` reads, for reachable `i`.
    reads: Vec<Vec<usize>>,
}

/// Replay the sweep's *control flow* — gradient occupancy per slot —
/// mirroring `backward()` exactly but without touching any floats.
fn simulate_sweep(metas: &[Meta], root: usize) -> Sweep {
    let n = metas.len();
    let mut grads = vec![false; n];
    let mut reachable = vec![false; n];
    let mut reads: Vec<Vec<usize>> = vec![Vec::new(); n];
    grads[root] = true;
    for i in (0..=root).rev() {
        if !grads[i] {
            continue;
        }
        grads[i] = false;
        reachable[i] = true;
        let r = &mut reads[i];
        match &metas[i].op {
            MOp::Leaf => {
                grads[i] = true;
            }
            MOp::Add(a, b) | MOp::Sub(a, b) | MOp::AddRow(a, b) => {
                grads[*a] = true;
                grads[*b] = true;
            }
            MOp::Mul(a, b) | MOp::MatMul(a, b) => {
                r.push(*a);
                r.push(*b);
                grads[*a] = true;
                grads[*b] = true;
            }
            MOp::PassThrough(a)
            | MOp::GradOnly(a)
            | MOp::Reduce(a)
            | MOp::Scatter(a)
            | MOp::Dropout(a)
            | MOp::AuxLoss(a) => {
                grads[*a] = true;
            }
            MOp::ReadsOwn(a) => {
                r.push(i);
                grads[*a] = true;
            }
            MOp::ReadsIn(a) => {
                r.push(*a);
                grads[*a] = true;
            }
            MOp::Concat(parts) => {
                for &p in parts {
                    grads[p] = true;
                }
            }
            MOp::MseLoss(p) => {
                r.push(*p);
                grads[*p] = true;
            }
        }
    }
    Sweep { reachable, reads }
}

/// Compute liveness for the graph as recorded, relative to a backward
/// root (use [`Tape::last_backward_root`] after a step, or the loss
/// node's index before one).
pub fn analyze(tape: &Tape, root: usize) -> Result<Liveness, Vec<GraphError>> {
    let metas = capture(tape)?;
    if root >= metas.len() {
        return Err(vec![malformed(
            root,
            "backward",
            format!("a root among the {} recorded nodes", metas.len()),
            format!("root index {root}"),
        )]);
    }
    let n = metas.len();

    // Last *forward* use: the highest-positioned consumer (recording
    // order is execution order), over the whole arena — forward reads
    // happen whether or not the consumer is swept.
    let mut last_forward_use: Vec<usize> = (0..n).collect();
    for (i, meta) in metas.iter().enumerate() {
        for_each_operand(&meta.op, |j| {
            last_forward_use[j] = last_forward_use[j].max(i)
        });
    }

    let sweep = simulate_sweep(&metas, root);

    // Last *backward* read: positions descend, so the final overwrite
    // during an ascending-to-descending replay is the minimum — i.e.
    // the latest read in time.
    let mut last_backward_read: Vec<Option<usize>> = vec![None; n];
    for i in (0..=root).rev() {
        for &j in &sweep.reads[i] {
            last_backward_read[j] = Some(i);
        }
    }

    let release = (0..n)
        .map(|j| {
            if !metas[j].pooled {
                ReleasePoint::Unpooled
            } else if j == root {
                ReleasePoint::Held
            } else {
                match last_backward_read[j] {
                    Some(pos) => ReleasePoint::AfterSweep(pos),
                    None => ReleasePoint::AfterForward,
                }
            }
        })
        .collect();

    Ok(Liveness {
        root,
        reachable: sweep.reachable,
        last_forward_use,
        last_backward_read,
        release,
    })
}

/// Reject a release plan that reads a buffer past its last use: replay
/// the sweep against `release` and report every arm that touches an
/// already-released value buffer. The plan may be [`Liveness::release`]
/// or a caller-tightened variant (gradient checkpointing will hand in
/// its own); `Unpooled`/`Held` entries mean "never released early" and
/// are always safe.
pub fn verify_plan(tape: &Tape, root: usize, release: &[ReleasePoint]) -> Vec<GraphError> {
    let metas = match capture(tape) {
        Ok(m) => m,
        Err(e) => return e,
    };
    let mut errors = Vec::new();
    if root >= metas.len() || release.len() != metas.len() {
        errors.push(malformed(
            root,
            "backward",
            format!("a plan entry for each of the {} nodes", metas.len()),
            format!("root {root}, {} plan entries", release.len()),
        ));
        return errors;
    }
    let sweep = simulate_sweep(&metas, root);
    let mut released: Vec<bool> = release
        .iter()
        .map(|r| matches!(r, ReleasePoint::AfterForward))
        .collect();
    for i in (0..=root).rev() {
        if sweep.reachable[i] {
            for &j in &sweep.reads[i] {
                if released[j] {
                    errors.push(GraphError {
                        node: i,
                        op: metas[i].name,
                        defect: Defect::UseAfterRecycle,
                        expected: format!("value of node {j} live until sweep position {i}"),
                        got: format!("plan releases node {j} at {:?}", release[j]),
                    });
                }
            }
        }
        for (j, r) in release.iter().enumerate() {
            if *r == ReleasePoint::AfterSweep(i) {
                released[j] = true;
            }
        }
    }
    errors
}

/// Full static verification for one backward root: the computed
/// early-recycle plan replayed against the sweep
/// ([`Defect::UseAfterRecycle`] if any arm reads a released buffer —
/// in-place accumulation must respect liveness).
pub fn verify(tape: &Tape, root: usize) -> Vec<GraphError> {
    match analyze(tape, root) {
        Ok(live) => verify_plan(tape, root, &live.release),
        Err(e) => e,
    }
}

// ---------------------------------------------------------------------------
// Pool forecast
// ---------------------------------------------------------------------------

/// A faithful model of [`dc_tensor::BufferPool`]'s accounting with
/// pooling enabled: exact-size freelists, hits move held → outstanding,
/// misses grow the total and refresh the high-water mark.
struct SimPool {
    /// `(element count, free buffers)` per size class.
    classes: Vec<(usize, usize)>,
    hits: u64,
    misses: u64,
    outstanding: usize,
    held: usize,
    high_water: usize,
}

impl SimPool {
    fn new() -> Self {
        SimPool {
            classes: Vec::new(),
            hits: 0,
            misses: 0,
            outstanding: 0,
            held: 0,
            high_water: 0,
        }
    }

    fn take(&mut self, n: usize) {
        let bytes = n * std::mem::size_of::<f32>();
        if let Some(c) = self.classes.iter_mut().find(|c| c.0 == n && c.1 > 0) {
            c.1 -= 1;
            self.hits += 1;
            self.held -= bytes;
            self.outstanding += bytes;
        } else {
            self.misses += 1;
            self.outstanding += bytes;
            self.high_water = self.high_water.max(self.outstanding + self.held);
        }
    }

    fn put(&mut self, n: usize) {
        let bytes = n * std::mem::size_of::<f32>();
        self.outstanding -= bytes;
        self.held += bytes;
        match self.classes.iter_mut().find(|c| c.0 == n) {
            Some(c) => c.1 += 1,
            None => self.classes.push((n, 1)),
        }
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits,
            misses: self.misses,
            outstanding_bytes: self.outstanding,
            held_bytes: self.held,
            high_water_bytes: self.high_water,
        }
    }
}

/// Predict the pool traffic of one full step — forward recording of
/// every node in arena order, then one `backward(root)` — from a
/// *fresh, pooling-enabled* pool, by replaying the exact take/put
/// sequence of the runtime. The returned [`PoolStats`] (including the
/// predicted high-water mark) equals `Tape::pool_stats()` measured
/// after such a step; `crates/nn/tests/liveness_parity.rs` asserts this
/// on the MLP and DeepER-LSTM training steps.
///
/// Assumptions, matching every training loop in the repository: all
/// recording precedes `backward`, backward runs once, pooling is on.
pub fn forecast_pool(tape: &Tape, root: usize) -> Result<PoolStats, Vec<GraphError>> {
    let metas = capture(tape)?;
    if root >= metas.len() {
        return Err(vec![malformed(
            root,
            "backward",
            format!("a root among the {} recorded nodes", metas.len()),
            format!("root index {root}"),
        )]);
    }
    let mut pool = SimPool::new();

    // Forward: one value buffer per pooled node, preceded by the cached
    // aux tensor for the loss ops (`probs` is computed before the
    // 1×1 loss value is allocated).
    for meta in &metas {
        if meta.aux_pooled {
            pool.take(meta.aux_len);
        }
        if meta.pooled {
            pool.take(meta.len());
        }
    }

    // Backward: mirror each arm's allocation/return order exactly.
    // grads[j] = a gradient buffer (of node j's size) occupies slot j.
    let mut grads = vec![false; metas.len()];
    // `acc_owned`: in-place axpy returns the contribution when the slot
    // is already occupied, otherwise the buffer moves into the slot.
    macro_rules! acc_owned {
        ($idx:expr, $len:expr) => {
            if grads[$idx] {
                pool.put($len);
            } else {
                grads[$idx] = true;
            }
        };
    }
    // `acc_ref`: allocates a pooled copy only when the slot is empty.
    macro_rules! acc_ref {
        ($idx:expr, $len:expr) => {
            if !grads[$idx] {
                pool.take($len);
                grads[$idx] = true;
            }
        };
    }
    pool.take(1); // grads[root] = alloc_scalar(1.0)
    grads[root] = true;
    for i in (0..=root).rev() {
        if !grads[i] {
            continue;
        }
        grads[i] = false; // g = grads[i].take()
        let g = metas[i].len();
        match &metas[i].op {
            MOp::Leaf => {
                grads[i] = true; // slot restored, nothing recycled
            }
            MOp::Add(a, b) => {
                acc_ref!(*a, g);
                acc_owned!(*b, g);
            }
            MOp::Sub(a, b) => {
                acc_ref!(*a, g);
                pool.take(g); // neg = pmap(-g)
                acc_owned!(*b, g);
                pool.put(g);
            }
            MOp::Mul(a, b) => {
                pool.take(g); // ga
                pool.take(g); // gb
                acc_owned!(*a, g);
                acc_owned!(*b, g);
                pool.put(g);
            }
            MOp::MatMul(a, b) => {
                let ga = metas[i].rows * metas[*b].rows; // G · Bᵀ
                let gb = metas[*a].cols * metas[i].cols; // Aᵀ · G
                pool.take(ga);
                pool.take(gb);
                acc_owned!(*a, ga);
                acc_owned!(*b, gb);
                pool.put(g);
            }
            MOp::PassThrough(a) => {
                acc_owned!(*a, g);
            }
            MOp::GradOnly(a) | MOp::ReadsOwn(a) | MOp::ReadsIn(a) | MOp::Dropout(a) => {
                pool.take(g); // ga (input shape == own shape for unaries)
                acc_owned!(*a, g);
                pool.put(g);
            }
            MOp::Reduce(a) | MOp::Scatter(a) => {
                let ga = metas[*a].len();
                pool.take(ga);
                acc_owned!(*a, ga);
                pool.put(g);
            }
            MOp::AddRow(a, row) => {
                let gr = metas[i].cols; // 1×cols column sums, allocated first
                pool.take(gr);
                acc_owned!(*a, g); // g itself moves into a's slot
                acc_owned!(*row, gr);
            }
            MOp::Concat(parts) => {
                for &p in parts {
                    let gp = metas[i].rows * metas[p].cols;
                    pool.take(gp);
                    acc_owned!(p, gp);
                }
                pool.put(g);
            }
            MOp::MseLoss(p) => {
                let gp = metas[*p].len();
                pool.take(gp);
                acc_owned!(*p, gp);
                pool.put(g);
            }
            MOp::AuxLoss(logits) => {
                let gz = metas[i].aux_len; // probs-shaped
                pool.take(gz);
                acc_owned!(*logits, gz);
                pool.put(g);
            }
        }
    }
    Ok(pool.stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_tensor::{Tape, Tensor};

    fn t(rows: usize, cols: usize, v: f32) -> Tensor {
        Tensor::from_vec(rows, cols, vec![v; rows * cols])
    }

    #[test]
    fn liveness_of_plain_mlp_layer() {
        let tape = Tape::new();
        let x = tape.var(t(2, 3, 0.5));
        let w = tape.var(t(3, 2, 0.1));
        let h = tape.matmul(x, w); // node 2
        let a = tape.tanh(h); // node 3
        let loss = tape.mean(tape.mul(a, a)); // nodes 4 (mul), 5 (mean)
        let live = analyze(&tape, loss.index()).expect("clean graph");

        // tanh's backward reads its own value at sweep position 3;
        // mul's arm (position 4) reads both copies of a (node 3) — but
        // position 3 runs later, so tanh's value is last read at 3.
        assert_eq!(live.last_backward_read[3], Some(3));
        // matmul's arm reads x and w values.
        assert_eq!(live.last_backward_read[0], Some(2));
        assert_eq!(live.last_backward_read[1], Some(2));
        // mean's arm reads nothing; mul (node 4) value is never read.
        assert_eq!(live.last_backward_read[4], None);
        assert!(live.reachable[..=5].iter().all(|&r| r));
        // var() leaves are unpooled; interior values are pooled.
        assert_eq!(live.release[0], ReleasePoint::Unpooled);
        assert_eq!(live.release[4], ReleasePoint::AfterForward);
        assert_eq!(live.release[3], ReleasePoint::AfterSweep(3));
        assert_eq!(live.release[5], ReleasePoint::Held);
        // Forward last use: x and w die at the matmul, a at the mul.
        assert_eq!(live.last_forward_use[0], 2);
        assert_eq!(live.last_forward_use[3], 4);
        assert!(verify(&tape, loss.index()).is_empty());
    }

    #[test]
    fn verify_plan_rejects_premature_release() {
        let tape = Tape::new();
        let x = tape.var(t(2, 2, 1.0));
        let s = tape.sigmoid(x); // node 1: backward reads own value
        let loss = tape.mean(s); // node 2
        let live = analyze(&tape, loss.index()).expect("clean graph");
        assert!(verify_plan(&tape, loss.index(), &live.release).is_empty());

        // Tamper: release the sigmoid's value before the sweep.
        let mut bad = live.release.clone();
        bad[s.index()] = ReleasePoint::AfterForward;
        let errors = verify_plan(&tape, loss.index(), &bad);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].defect, Defect::UseAfterRecycle);
        assert_eq!(errors[0].node, s.index());
    }

    #[test]
    fn forecast_handles_every_op_shape() {
        // Smoke coverage of arms the models exercise less often; the
        // real prediction-vs-actual parity lives in dc-nn's tests.
        let tape = Tape::new();
        let x = tape.var(t(2, 3, 0.5));
        let b = tape.var(t(1, 3, 0.1));
        let h = tape.add_row(x, b);
        let c = tape.concat(&[h, x]);
        let sel = tape.rows_select(c, vec![0, 1, 0]);
        let loss = tape.mean(tape.abs(sel));
        let stats = forecast_pool(&tape, loss.index()).expect("clean graph");
        // Fresh pool: every take is a miss until backward re-takes.
        assert!(stats.misses > 0);
        assert_eq!(
            stats.high_water_bytes % std::mem::size_of::<f32>(),
            0,
            "byte accounting must stay f32-aligned"
        );
        assert!(verify(&tape, loss.index()).is_empty());
    }

    #[test]
    fn analyze_rejects_out_of_range_root() {
        let tape = Tape::new();
        tape.var(t(1, 1, 0.0));
        let errors = analyze(&tape, 7).unwrap_err();
        assert_eq!(errors[0].defect, Defect::Malformed);
    }
}
