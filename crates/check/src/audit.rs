//! Finite-difference gradient audit.
//!
//! [`audit_all_ops`] verifies the backward rule of **every** [`Op`]
//! variant against central finite differences on a small probe graph.
//! Coverage is enforced at compile time: [`OpKind::of`] matches the
//! `Op` enum exhaustively, so adding a variant to `dc-tensor` without
//! extending the audit fails the build of this crate.

use dc_tensor::{Op, Tape, Tensor, Var};

/// One audit entry per [`Op`] variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    Leaf,
    Add,
    Sub,
    Mul,
    MatMul,
    Scale,
    AddScalar,
    Sigmoid,
    Tanh,
    Relu,
    LeakyRelu,
    Exp,
    Ln,
    Abs,
    Sum,
    Mean,
    AddRow,
    Concat,
    RowsSelect,
    RowsMean,
    Dropout,
    MseLoss,
    BceWithLogits,
    SoftmaxCe,
    Lstm,
}

impl OpKind {
    /// Every variant, in [`Op`] declaration order.
    pub const ALL: [OpKind; 25] = [
        OpKind::Leaf,
        OpKind::Add,
        OpKind::Sub,
        OpKind::Mul,
        OpKind::MatMul,
        OpKind::Scale,
        OpKind::AddScalar,
        OpKind::Sigmoid,
        OpKind::Tanh,
        OpKind::Relu,
        OpKind::LeakyRelu,
        OpKind::Exp,
        OpKind::Ln,
        OpKind::Abs,
        OpKind::Sum,
        OpKind::Mean,
        OpKind::AddRow,
        OpKind::Concat,
        OpKind::RowsSelect,
        OpKind::RowsMean,
        OpKind::Dropout,
        OpKind::MseLoss,
        OpKind::BceWithLogits,
        OpKind::SoftmaxCe,
        OpKind::Lstm,
    ];

    /// Classify a recorded op. The match is exhaustive on purpose: a new
    /// `Op` variant breaks this function until the audit covers it.
    pub fn of(op: &Op) -> OpKind {
        match op {
            Op::Leaf => OpKind::Leaf,
            Op::Add(..) => OpKind::Add,
            Op::Sub(..) => OpKind::Sub,
            Op::Mul(..) => OpKind::Mul,
            Op::MatMul(..) => OpKind::MatMul,
            Op::Scale(..) => OpKind::Scale,
            Op::AddScalar(..) => OpKind::AddScalar,
            Op::Sigmoid(..) => OpKind::Sigmoid,
            Op::Tanh(..) => OpKind::Tanh,
            Op::Relu(..) => OpKind::Relu,
            Op::LeakyRelu(..) => OpKind::LeakyRelu,
            Op::Exp(..) => OpKind::Exp,
            Op::Ln(..) => OpKind::Ln,
            Op::Abs(..) => OpKind::Abs,
            Op::Sum(..) => OpKind::Sum,
            Op::Mean(..) => OpKind::Mean,
            Op::AddRow(..) => OpKind::AddRow,
            Op::Concat(..) => OpKind::Concat,
            Op::RowsSelect(..) => OpKind::RowsSelect,
            Op::RowsMean(..) => OpKind::RowsMean,
            Op::Dropout(..) => OpKind::Dropout,
            Op::MseLoss(..) => OpKind::MseLoss,
            Op::BceWithLogits { .. } => OpKind::BceWithLogits,
            Op::SoftmaxCe { .. } => OpKind::SoftmaxCe,
            Op::Lstm { .. } => OpKind::Lstm,
        }
    }

    /// Display name (matches [`dc_tensor::op_name`] for recorded ops).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Leaf => "leaf",
            OpKind::Add => "add",
            OpKind::Sub => "sub",
            OpKind::Mul => "mul",
            OpKind::MatMul => "matmul",
            OpKind::Scale => "scale",
            OpKind::AddScalar => "add_scalar",
            OpKind::Sigmoid => "sigmoid",
            OpKind::Tanh => "tanh",
            OpKind::Relu => "relu",
            OpKind::LeakyRelu => "leaky_relu",
            OpKind::Exp => "exp",
            OpKind::Ln => "ln",
            OpKind::Abs => "abs",
            OpKind::Sum => "sum",
            OpKind::Mean => "mean",
            OpKind::AddRow => "add_row",
            OpKind::Concat => "concat",
            OpKind::RowsSelect => "rows_select",
            OpKind::RowsMean => "rows_mean",
            OpKind::Dropout => "dropout",
            OpKind::MseLoss => "mse_loss",
            OpKind::BceWithLogits => "bce_with_logits",
            OpKind::SoftmaxCe => "softmax_ce",
            OpKind::Lstm => "lstm",
        }
    }
}

/// Result of auditing one op variant.
#[derive(Clone, Copy, Debug)]
pub struct OpAudit {
    /// The audited variant.
    pub kind: OpKind,
    /// Worst relative error between analytic and finite-difference
    /// gradients across the variant's probe graphs.
    pub max_rel_err: f32,
    /// `max_rel_err <= tol` for the tolerance the audit ran with.
    pub pass: bool,
}

/// Deterministic probe tensor: smooth values in roughly `[-1.6, 1.4]`,
/// never exactly at the ReLU/abs kink, varied by `salt`.
fn probe(rows: usize, cols: usize, salt: usize) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i * 37 + salt * 53) % 11) as f32 * 0.3 - 1.6)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Strictly positive probe (for `ln`), in roughly `[0.2, 3.5]`.
fn probe_pos(rows: usize, cols: usize, salt: usize) -> Tensor {
    let mut t = probe(rows, cols, salt);
    for v in t.data.iter_mut() {
        *v = v.abs() + 0.2;
    }
    t
}

/// Max relative error between the tape's analytic gradient of `f` at `x`
/// and a central finite difference, over all elements of `x`.
fn fd_max_rel_err<F>(x: &Tensor, f: F, eps: f32) -> f32
where
    F: Fn(&Tape, Var) -> Var,
{
    let tape = Tape::new();
    let vx = tape.var(x.clone());
    let out = f(&tape, vx);
    assert_eq!(tape.value(out).len(), 1, "audit probe must be scalar");
    tape.backward(out);
    let analytic = tape.grad(vx);

    let eval = |t: &Tensor| -> f32 {
        let tape = Tape::new();
        let v = tape.var(t.clone());
        tape.value(f(&tape, v)).data[0]
    };

    let mut worst = 0.0f32;
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data[i] += eps;
        let mut xm = x.clone();
        xm.data[i] -= eps;
        let numeric = (eval(&xp) - eval(&xm)) / (2.0 * eps);
        let a = analytic.data[i];
        let rel = (numeric - a).abs() / a.abs().max(numeric.abs()).max(1.0);
        worst = worst.max(rel);
    }
    worst
}

/// Audit one op variant: build probe graphs exercising the op (in every
/// operand position, for binary ops), and compare `Tape::backward`
/// against central finite differences with step `eps`.
pub fn audit_op(kind: OpKind, eps: f32, tol: f32) -> OpAudit {
    type Probe = (Tensor, Box<dyn Fn(&Tape, Var) -> Var>);
    let probes: Vec<Probe> = match kind {
        OpKind::Leaf => vec![(probe(2, 3, 0), Box::new(|t, v| t.sum(v)))],
        OpKind::Add => vec![
            (
                probe(2, 3, 0),
                Box::new(|t, v| {
                    let w = t.var(probe(2, 3, 1));
                    t.sum(t.mul(t.add(v, w), t.var(probe(2, 3, 2))))
                }),
            ),
            (
                probe(2, 3, 3),
                Box::new(|t, v| {
                    let w = t.var(probe(2, 3, 4));
                    t.sum(t.mul(t.add(w, v), t.var(probe(2, 3, 5))))
                }),
            ),
        ],
        OpKind::Sub => vec![
            (
                probe(2, 3, 0),
                Box::new(|t, v| {
                    let w = t.var(probe(2, 3, 1));
                    t.sum(t.mul(t.sub(v, w), t.var(probe(2, 3, 2))))
                }),
            ),
            (
                probe(2, 3, 3),
                Box::new(|t, v| {
                    let w = t.var(probe(2, 3, 4));
                    t.sum(t.mul(t.sub(w, v), t.var(probe(2, 3, 5))))
                }),
            ),
        ],
        OpKind::Mul => vec![
            (
                probe(2, 3, 0),
                Box::new(|t, v| {
                    let w = t.var(probe(2, 3, 1));
                    t.sum(t.mul(v, w))
                }),
            ),
            (
                probe(2, 3, 2),
                Box::new(|t, v| {
                    let w = t.var(probe(2, 3, 3));
                    t.sum(t.mul(w, v))
                }),
            ),
        ],
        OpKind::MatMul => vec![
            (
                probe(2, 3, 0),
                Box::new(|t, v| {
                    let w = t.var(probe(3, 2, 1));
                    t.sum(t.matmul(v, w))
                }),
            ),
            (
                probe(2, 3, 2),
                Box::new(|t, v| {
                    let w = t.var(probe(4, 2, 3));
                    t.sum(t.matmul(w, v))
                }),
            ),
        ],
        OpKind::Scale => vec![(probe(2, 3, 0), Box::new(|t, v| t.sum(t.scale(v, 1.7))))],
        OpKind::AddScalar => vec![(
            probe(2, 3, 0),
            Box::new(|t, v| t.sum(t.mul(t.add_scalar(v, 0.3), t.var(probe(2, 3, 1))))),
        )],
        OpKind::Sigmoid => vec![(probe(2, 3, 0), Box::new(|t, v| t.sum(t.sigmoid(v))))],
        OpKind::Tanh => vec![(probe(2, 3, 0), Box::new(|t, v| t.sum(t.tanh(v))))],
        OpKind::Relu => vec![(probe(2, 3, 0), Box::new(|t, v| t.sum(t.relu(v))))],
        OpKind::LeakyRelu => vec![(probe(2, 3, 0), Box::new(|t, v| t.sum(t.leaky_relu(v, 0.1))))],
        OpKind::Exp => vec![(probe(2, 3, 0), Box::new(|t, v| t.sum(t.exp(v))))],
        OpKind::Ln => vec![(probe_pos(2, 3, 0), Box::new(|t, v| t.sum(t.ln(v))))],
        OpKind::Abs => vec![(probe(2, 3, 0), Box::new(|t, v| t.sum(t.abs(v))))],
        OpKind::Sum => vec![(probe(2, 3, 0), Box::new(|t, v| t.sum(v)))],
        OpKind::Mean => vec![(probe(2, 3, 0), Box::new(|t, v| t.mean(v)))],
        OpKind::AddRow => vec![
            (
                probe(3, 4, 0),
                Box::new(|t, v| {
                    let r = t.var(probe(1, 4, 1));
                    t.sum(t.mul(t.add_row(v, r), t.var(probe(3, 4, 2))))
                }),
            ),
            (
                probe(1, 4, 3),
                Box::new(|t, v| {
                    let x = t.var(probe(3, 4, 4));
                    t.sum(t.mul(t.add_row(x, v), t.var(probe(3, 4, 5))))
                }),
            ),
        ],
        OpKind::Concat => vec![(
            probe(2, 2, 0),
            Box::new(|t, v| {
                let w = t.var(probe(2, 3, 1));
                let c = t.concat(&[v, w]);
                t.sum(t.mul(c, t.var(probe(2, 5, 2))))
            }),
        )],
        OpKind::RowsSelect => vec![(
            probe(3, 3, 0),
            Box::new(|t, v| {
                // A repeated index exercises gradient accumulation.
                let s = t.rows_select(v, vec![2, 0, 2, 1]);
                t.sum(t.mul(s, t.var(probe(4, 3, 1))))
            }),
        )],
        OpKind::RowsMean => vec![(
            probe(3, 2, 0),
            Box::new(|t, v| {
                // Overlapping groups plus an empty one (legal: zero row).
                let m = t.rows_mean(v, vec![vec![0, 1], vec![2], vec![], vec![1, 2, 0]]);
                t.sum(t.mul(m, t.var(probe(4, 2, 1))))
            }),
        )],
        OpKind::Dropout => vec![(
            probe(2, 3, 0),
            Box::new(|t, v| {
                let mask = Tensor::from_vec(2, 3, vec![2.0, 0.0, 2.0, 0.0, 2.0, 2.0]);
                t.sum(t.dropout(v, mask))
            }),
        )],
        OpKind::MseLoss => vec![(
            probe(2, 3, 0),
            Box::new(|t, v| t.mse_loss(v, probe(2, 3, 1))),
        )],
        OpKind::BceWithLogits => vec![(
            probe(4, 1, 0),
            Box::new(|t, v| {
                let targets = Tensor::from_vec(4, 1, vec![1.0, 0.0, 1.0, 0.0]);
                let weights = Tensor::from_vec(4, 1, vec![1.0, 2.0, 0.5, 1.5]);
                t.bce_with_logits(v, targets, weights)
            }),
        )],
        OpKind::SoftmaxCe => vec![(
            probe(3, 4, 0),
            Box::new(|t, v| t.softmax_ce(v, vec![1, 0, 3])),
        )],
        // A 3-step, h = 2 sequence with the audited tensor in each
        // operand position (`xw`, `Wh`, `b`); the loss weights the final
        // state so both hidden units carry gradient.
        OpKind::Lstm => vec![
            (
                probe(3, 8, 0),
                Box::new(|t, v| {
                    let (wh, b) = (t.var(probe(2, 8, 1)), t.var(probe(1, 8, 2)));
                    t.sum(t.mul(t.lstm(v, wh, b), t.var(probe(1, 2, 3))))
                }),
            ),
            (
                probe(2, 8, 4),
                Box::new(|t, v| {
                    let (xw, b) = (t.var(probe(3, 8, 5)), t.var(probe(1, 8, 6)));
                    t.sum(t.mul(t.lstm(xw, v, b), t.var(probe(1, 2, 7))))
                }),
            ),
            (
                probe(1, 8, 8),
                Box::new(|t, v| {
                    let (xw, wh) = (t.var(probe(3, 8, 9)), t.var(probe(2, 8, 10)));
                    t.sum(t.mul(t.lstm(xw, wh, v), t.var(probe(1, 2, 11))))
                }),
            ),
        ],
    };

    let max_rel_err = probes
        .iter()
        .map(|(x, f)| fd_max_rel_err(x, f, eps))
        .fold(0.0f32, f32::max);
    OpAudit {
        kind,
        max_rel_err,
        pass: max_rel_err <= tol,
    }
}

/// Audit every [`Op`] variant's backward rule. `eps` is the central
/// finite-difference step; an audit passes when the worst relative error
/// stays within `tol`.
pub fn audit_all_ops(eps: f32, tol: f32) -> Vec<OpAudit> {
    OpKind::ALL.iter().map(|&k| audit_op(k, eps, tol)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_variant_passes_the_fd_audit() {
        let audits = audit_all_ops(5e-3, 1e-3);
        assert_eq!(audits.len(), OpKind::ALL.len());
        for a in &audits {
            assert!(
                a.pass,
                "{}: max relative FD error {} exceeds 1e-3",
                a.kind.name(),
                a.max_rel_err
            );
        }
    }

    #[test]
    fn kind_names_are_unique_and_match_recorded_ops() {
        let mut names: Vec<&str> = OpKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), OpKind::ALL.len());

        let t = Tape::new();
        let x = t.var(probe(2, 2, 0));
        let y = t.sigmoid(x);
        assert_eq!(OpKind::of(&t.op_of(y)), OpKind::Sigmoid);
        assert_eq!(dc_tensor::op_name(&t.op_of(y)), OpKind::Sigmoid.name());
    }
}
