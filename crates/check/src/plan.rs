//! Symbolic shape checking.
//!
//! The checker re-derives every node's shape from leaf shapes alone,
//! walking a [`SymOp`] mirror of the tape's op arena. Because the walk
//! is symbolic it can validate a graph that was never executed — and,
//! unlike the kernels' scattered `assert!`s, it reports *all* defects at
//! once as structured [`GraphError`]s instead of panicking at the first.

use crate::diag::{Defect, GraphError};
use dc_tensor::{op_name, Op, Tape};

/// Shape-level mirror of one [`dc_tensor::Op`] node. Operands are arena
/// indices; leaves carry their shape, and value-carrying ops carry only
/// the shapes of their constant payloads.
#[derive(Clone, Debug)]
pub enum SymOp {
    /// Input / parameter leaf of the given shape.
    Leaf { rows: usize, cols: usize },
    /// Elementwise `a + b`.
    Add(usize, usize),
    /// Elementwise `a - b`.
    Sub(usize, usize),
    /// Elementwise `a * b`.
    Mul(usize, usize),
    /// Matrix product.
    MatMul(usize, usize),
    /// Scalar scale (shape-preserving).
    Scale(usize),
    /// Scalar offset (shape-preserving).
    AddScalar(usize),
    /// Elementwise unary (sigmoid, tanh, relu, …) — shape-preserving.
    Unary(usize),
    /// Reduction to a `1×1` scalar (sum / mean).
    Reduce(usize),
    /// Broadcast add of a `1×m` row to an `n×m` tensor.
    AddRow { lhs: usize, rhs: usize },
    /// Column-wise concatenation.
    Concat(Vec<usize>),
    /// Row gather.
    RowsSelect { src: usize, indices: Vec<usize> },
    /// Row-group mean pooling.
    RowsMean { src: usize, groups: Vec<Vec<usize>> },
    /// Narrow column view: columns `start..start+len` of `src`.
    SliceCols {
        src: usize,
        start: usize,
        len: usize,
    },
    /// Dropout against a fixed mask of the given shape.
    Dropout {
        src: usize,
        mask_rows: usize,
        mask_cols: usize,
    },
    /// MSE against a constant target of the given shape (scalar out).
    MseLoss {
        pred: usize,
        target_rows: usize,
        target_cols: usize,
    },
    /// Weighted BCE-with-logits (scalar out).
    BceWithLogits {
        logits: usize,
        target_rows: usize,
        target_cols: usize,
        weight_rows: usize,
        weight_cols: usize,
    },
    /// Softmax cross entropy against integer labels (scalar out).
    SoftmaxCe { logits: usize, labels: Vec<usize> },
}

/// One symbolic node: the op plus the display name used in diagnostics.
#[derive(Clone, Debug)]
pub struct SymNode {
    /// The shape-level op.
    pub op: SymOp,
    /// Display name for diagnostics (an [`dc_tensor::op_name`] string for
    /// lowered tapes; free-form for hand-built plans).
    pub name: &'static str,
}

impl SymNode {
    /// Convenience constructor deriving the name from the op.
    pub fn new(op: SymOp) -> SymNode {
        let name = match &op {
            SymOp::Leaf { .. } => "leaf",
            SymOp::Add(..) => "add",
            SymOp::Sub(..) => "sub",
            SymOp::Mul(..) => "mul",
            SymOp::MatMul(..) => "matmul",
            SymOp::Scale(..) => "scale",
            SymOp::AddScalar(..) => "add_scalar",
            SymOp::Unary(..) => "unary",
            SymOp::Reduce(..) => "reduce",
            SymOp::AddRow { .. } => "add_row",
            SymOp::Concat(..) => "concat",
            SymOp::RowsSelect { .. } => "rows_select",
            SymOp::RowsMean { .. } => "rows_mean",
            SymOp::SliceCols { .. } => "slice_cols",
            SymOp::Dropout { .. } => "dropout",
            SymOp::MseLoss { .. } => "mse_loss",
            SymOp::BceWithLogits { .. } => "bce_with_logits",
            SymOp::SoftmaxCe { .. } => "softmax_ce",
        };
        SymNode { op, name }
    }
}

/// The result of a successful symbolic walk: every node's derived shape.
#[derive(Clone, Debug)]
pub struct GraphPlan {
    shapes: Vec<(usize, usize)>,
}

impl GraphPlan {
    /// Derived `(rows, cols)` of node `i`.
    pub fn shape(&self, i: usize) -> (usize, usize) {
        self.shapes[i]
    }

    /// Number of planned nodes.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// True for the empty plan.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Shape of the last node — the graph's output under define-by-run.
    pub fn output_shape(&self) -> Option<(usize, usize)> {
        self.shapes.last().copied()
    }
}

/// Validate a symbolic graph, deriving every shape from the leaves.
///
/// Returns the full [`GraphPlan`] when the graph is well-formed, or
/// *every* defect found (not just the first) otherwise. Nodes downstream
/// of a defect are still checked against a best-guess shape so one error
/// does not mask independent ones.
pub fn check_plan(nodes: &[SymNode]) -> Result<GraphPlan, Vec<GraphError>> {
    let mut shapes: Vec<(usize, usize)> = Vec::with_capacity(nodes.len());
    let mut errors: Vec<GraphError> = Vec::new();

    for (i, node) in nodes.iter().enumerate() {
        let err = |defect: Defect, expected: String, got: String| GraphError {
            node: i,
            op: node.name,
            defect,
            expected,
            got,
        };

        // Resolve an operand index, flagging forward references.
        let arg = |idx: usize, errors: &mut Vec<GraphError>| -> (usize, usize) {
            if idx >= i {
                errors.push(GraphError {
                    node: i,
                    op: node.name,
                    defect: Defect::Malformed,
                    expected: format!("operand index < {i}"),
                    got: format!("operand index {idx}"),
                });
                (1, 1)
            } else {
                shapes[idx]
            }
        };

        let shape = match &node.op {
            SymOp::Leaf { rows, cols } => (*rows, *cols),
            SymOp::Add(a, b) | SymOp::Sub(a, b) | SymOp::Mul(a, b) => {
                let sa = arg(*a, &mut errors);
                let sb = arg(*b, &mut errors);
                if sa != sb {
                    errors.push(err(
                        Defect::ShapeMismatch,
                        format!("operands of equal shape {}x{}", sa.0, sa.1),
                        format!("{}x{} vs {}x{}", sa.0, sa.1, sb.0, sb.1),
                    ));
                }
                sa
            }
            SymOp::MatMul(a, b) => {
                let sa = arg(*a, &mut errors);
                let sb = arg(*b, &mut errors);
                if sa.1 != sb.0 {
                    errors.push(err(
                        Defect::ShapeMismatch,
                        format!("inner dimensions to agree ({}x{} · ?x?)", sa.0, sa.1),
                        format!("{}x{} · {}x{}", sa.0, sa.1, sb.0, sb.1),
                    ));
                }
                (sa.0, sb.1)
            }
            SymOp::Scale(a) | SymOp::AddScalar(a) | SymOp::Unary(a) => arg(*a, &mut errors),
            SymOp::Reduce(a) => {
                let _ = arg(*a, &mut errors);
                (1, 1)
            }
            SymOp::AddRow { lhs, rhs } => {
                let sa = arg(*lhs, &mut errors);
                let sr = arg(*rhs, &mut errors);
                if sr.0 != 1 || sr.1 != sa.1 {
                    errors.push(err(
                        Defect::BadBroadcast,
                        format!("a 1x{} row to broadcast over {}x{}", sa.1, sa.0, sa.1),
                        format!("{}x{}", sr.0, sr.1),
                    ));
                }
                sa
            }
            SymOp::Concat(parts) => {
                if parts.is_empty() {
                    errors.push(err(
                        Defect::ShapeMismatch,
                        "at least one operand".to_string(),
                        "empty part list".to_string(),
                    ));
                    (1, 1)
                } else {
                    let first = arg(parts[0], &mut errors);
                    let mut cols = 0;
                    for &p in parts {
                        let sp = arg(p, &mut errors);
                        if sp.0 != first.0 {
                            errors.push(err(
                                Defect::ShapeMismatch,
                                format!("all operands with {} rows", first.0),
                                format!("operand {p} is {}x{}", sp.0, sp.1),
                            ));
                        }
                        cols += sp.1;
                    }
                    (first.0, cols)
                }
            }
            SymOp::RowsSelect { src, indices } => {
                let ss = arg(*src, &mut errors);
                for (pos, &idx) in indices.iter().enumerate() {
                    if idx >= ss.0 {
                        errors.push(err(
                            Defect::IndexOutOfBounds,
                            format!("row indices < {}", ss.0),
                            format!("index {idx} at position {pos}"),
                        ));
                    }
                }
                (indices.len(), ss.1)
            }
            SymOp::RowsMean { src, groups } => {
                let ss = arg(*src, &mut errors);
                for (g, idxs) in groups.iter().enumerate() {
                    for &idx in idxs {
                        if idx >= ss.0 {
                            errors.push(err(
                                Defect::IndexOutOfBounds,
                                format!("row indices < {}", ss.0),
                                format!("index {idx} in group {g}"),
                            ));
                        }
                    }
                }
                (groups.len(), ss.1)
            }
            SymOp::SliceCols { src, start, len } => {
                let ss = arg(*src, &mut errors);
                if *len == 0 {
                    errors.push(err(
                        Defect::ShapeMismatch,
                        "a non-empty column slice".to_string(),
                        "len 0".to_string(),
                    ));
                }
                if start + len > ss.1 {
                    errors.push(err(
                        Defect::IndexOutOfBounds,
                        format!("a column range within 0..{}", ss.1),
                        format!("columns {start}..{}", start + len),
                    ));
                }
                (ss.0, *len)
            }
            SymOp::Dropout {
                src,
                mask_rows,
                mask_cols,
            } => {
                let ss = arg(*src, &mut errors);
                if (*mask_rows, *mask_cols) != ss {
                    errors.push(err(
                        Defect::ShapeMismatch,
                        format!("a mask of the input's shape {}x{}", ss.0, ss.1),
                        format!("{mask_rows}x{mask_cols}"),
                    ));
                }
                ss
            }
            SymOp::MseLoss {
                pred,
                target_rows,
                target_cols,
            } => {
                let sp = arg(*pred, &mut errors);
                if (*target_rows, *target_cols) != sp {
                    errors.push(err(
                        Defect::ShapeMismatch,
                        format!("a target of the prediction's shape {}x{}", sp.0, sp.1),
                        format!("{target_rows}x{target_cols}"),
                    ));
                }
                (1, 1)
            }
            SymOp::BceWithLogits {
                logits,
                target_rows,
                target_cols,
                weight_rows,
                weight_cols,
            } => {
                let sz = arg(*logits, &mut errors);
                if (*target_rows, *target_cols) != sz {
                    errors.push(err(
                        Defect::ShapeMismatch,
                        format!("targets of the logits' shape {}x{}", sz.0, sz.1),
                        format!("{target_rows}x{target_cols}"),
                    ));
                }
                if (*weight_rows, *weight_cols) != sz {
                    errors.push(err(
                        Defect::ShapeMismatch,
                        format!("weights of the logits' shape {}x{}", sz.0, sz.1),
                        format!("{weight_rows}x{weight_cols}"),
                    ));
                }
                (1, 1)
            }
            SymOp::SoftmaxCe { logits, labels } => {
                let sz = arg(*logits, &mut errors);
                if labels.len() != sz.0 {
                    errors.push(err(
                        Defect::ShapeMismatch,
                        format!("one label per logit row ({})", sz.0),
                        format!("{} labels", labels.len()),
                    ));
                }
                for (r, &lbl) in labels.iter().enumerate() {
                    if lbl >= sz.1 {
                        errors.push(err(
                            Defect::IndexOutOfBounds,
                            format!("class labels < {}", sz.1),
                            format!("label {lbl} at row {r}"),
                        ));
                    }
                }
                (1, 1)
            }
        };
        shapes.push(shape);
    }

    if errors.is_empty() {
        Ok(GraphPlan { shapes })
    } else {
        Err(errors)
    }
}

/// Lower a recorded [`Tape`] into its symbolic mirror.
///
/// Fails with [`Defect::CrossTapeVar`] if any recorded op embeds a `Var`
/// minted by another tape (possible only for graphs predating the tape's
/// own ownership asserts, but checked defensively).
pub fn lower(tape: &Tape) -> Result<Vec<SymNode>, Vec<GraphError>> {
    let mut nodes: Vec<SymNode> = Vec::with_capacity(tape.len());
    let mut errors: Vec<GraphError> = Vec::new();
    let tape_id = tape.id();

    tape.for_each_node(|i, op, value, _| {
        let name = op_name(op);
        // Resolve an operand Var, flagging foreign tapes.
        let mut var = |v: dc_tensor::Var| -> usize {
            if v.tape_id() != tape_id {
                errors.push(GraphError {
                    node: i,
                    op: name,
                    defect: Defect::CrossTapeVar,
                    expected: format!("a Var from tape {tape_id}"),
                    got: format!("Var {{ index: {}, tape: {} }}", v.index(), v.tape_id()),
                });
            }
            v.index()
        };
        let sym = match op {
            Op::Leaf => SymOp::Leaf {
                rows: value.rows,
                cols: value.cols,
            },
            Op::Add(a, b) => SymOp::Add(var(*a), var(*b)),
            Op::Sub(a, b) => SymOp::Sub(var(*a), var(*b)),
            Op::Mul(a, b) => SymOp::Mul(var(*a), var(*b)),
            Op::MatMul(a, b) => SymOp::MatMul(var(*a), var(*b)),
            Op::Scale(a, _) => SymOp::Scale(var(*a)),
            Op::AddScalar(a, _) => SymOp::AddScalar(var(*a)),
            Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Exp(a)
            | Op::Ln(a)
            | Op::Abs(a) => SymOp::Unary(var(*a)),
            Op::Sum(a) | Op::Mean(a) => SymOp::Reduce(var(*a)),
            Op::AddRow(a, r) => SymOp::AddRow {
                lhs: var(*a),
                rhs: var(*r),
            },
            Op::Concat(parts) => SymOp::Concat(parts.iter().map(|p| var(*p)).collect()),
            Op::RowsSelect(a, indices) => SymOp::RowsSelect {
                src: var(*a),
                indices: indices.clone(),
            },
            Op::RowsMean(a, groups) => SymOp::RowsMean {
                src: var(*a),
                groups: groups.clone(),
            },
            Op::SliceCols(a, start, len) => SymOp::SliceCols {
                src: var(*a),
                start: *start,
                len: *len,
            },
            Op::Dropout(a, mask) => SymOp::Dropout {
                src: var(*a),
                mask_rows: mask.rows,
                mask_cols: mask.cols,
            },
            Op::MseLoss(a, target) => SymOp::MseLoss {
                pred: var(*a),
                target_rows: target.rows,
                target_cols: target.cols,
            },
            Op::BceWithLogits {
                logits,
                targets,
                weights,
                ..
            } => SymOp::BceWithLogits {
                logits: var(*logits),
                target_rows: targets.rows,
                target_cols: targets.cols,
                weight_rows: weights.rows,
                weight_cols: weights.cols,
            },
            Op::SoftmaxCe { logits, labels, .. } => SymOp::SoftmaxCe {
                logits: var(*logits),
                labels: labels.clone(),
            },
        };
        nodes.push(SymNode { op: sym, name });
    });

    if errors.is_empty() {
        Ok(nodes)
    } else {
        Err(errors)
    }
}

/// Statically validate a recorded tape.
///
/// Lowers the arena to its symbolic mirror, re-derives every shape from
/// the leaves, cross-checks the derivation against the recorded values,
/// and validates value-level invariants the symbolic walk cannot see
/// (dropout keep-scaling).
pub fn check_tape(tape: &Tape) -> Result<GraphPlan, Vec<GraphError>> {
    let nodes = lower(tape)?;
    let plan = check_plan(&nodes)?;

    let mut errors: Vec<GraphError> = Vec::new();
    tape.for_each_node(|i, op, value, _| {
        let derived = plan.shape(i);
        if derived != (value.rows, value.cols) {
            errors.push(GraphError {
                node: i,
                op: op_name(op),
                defect: Defect::ShapeMismatch,
                expected: format!(
                    "recorded value of derived shape {}x{}",
                    derived.0, derived.1
                ),
                got: format!("{}x{}", value.rows, value.cols),
            });
        }
        if let Op::Dropout(_, mask) = op {
            // Inverted dropout: kept entries must share one scale ≥ 1
            // (1 / keep-probability); anything else skews expectations.
            let mut scale: Option<f32> = None;
            let mut bad = None;
            for &m in &mask.data {
                if m == 0.0 {
                    continue;
                }
                match scale {
                    None if m >= 1.0 => scale = Some(m),
                    None => bad = Some(m),
                    Some(s) if (m - s).abs() <= 1e-6 * s.max(1.0) => {}
                    Some(_) => bad = Some(m),
                }
                if bad.is_some() {
                    break;
                }
            }
            if let Some(m) = bad {
                errors.push(GraphError {
                    node: i,
                    op: "dropout",
                    defect: Defect::BadDropoutMask,
                    expected: "mask entries in {0, 1/keep} with one uniform scale ≥ 1".to_string(),
                    got: format!("entry {m}"),
                });
            }
        }
    });

    if errors.is_empty() {
        Ok(plan)
    } else {
        Err(errors)
    }
}

/// Validate a backward root: it must belong to `tape` and be a `1×1`
/// scalar, the two preconditions [`Tape::backward`] enforces by panic.
pub fn check_root(tape: &Tape, root: dc_tensor::Var) -> Vec<GraphError> {
    if root.tape_id() != tape.id() {
        return vec![GraphError {
            node: root.index(),
            op: "backward root",
            defect: Defect::CrossTapeVar,
            expected: format!("a Var from tape {}", tape.id()),
            got: format!(
                "Var {{ index: {}, tape: {} }}",
                root.index(),
                root.tape_id()
            ),
        }];
    }
    let (r, c) = tape.shape(root);
    if (r, c) != (1, 1) {
        return vec![GraphError {
            node: root.index(),
            op: "backward root",
            defect: Defect::NonScalarLoss,
            expected: "a 1x1 scalar loss".to_string(),
            got: format!("{r}x{c}"),
        }];
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(rows: usize, cols: usize) -> SymNode {
        SymNode::new(SymOp::Leaf { rows, cols })
    }

    // The tape constructor panics on malformed slices, so the rejection
    // paths are exercised on hand-built plans — the same surface a
    // lowered tape reaches.
    #[test]
    fn slice_cols_in_range_plans_clean() {
        let plan = check_plan(&[
            leaf(2, 8),
            SymNode::new(SymOp::SliceCols {
                src: 0,
                start: 4,
                len: 4,
            }),
        ])
        .expect("in-range slice must validate");
        assert_eq!(plan.shape(1), (2, 4));
    }

    #[test]
    fn slice_cols_out_of_range_is_rejected() {
        let errs = check_plan(&[
            leaf(2, 8),
            SymNode::new(SymOp::SliceCols {
                src: 0,
                start: 6,
                len: 4,
            }),
        ])
        .unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.node == 1 && e.defect == Defect::IndexOutOfBounds));
    }

    #[test]
    fn slice_cols_empty_is_rejected() {
        let errs = check_plan(&[
            leaf(2, 8),
            SymNode::new(SymOp::SliceCols {
                src: 0,
                start: 3,
                len: 0,
            }),
        ])
        .unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.node == 1 && e.defect == Defect::ShapeMismatch));
    }
}
