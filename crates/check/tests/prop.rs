//! Property tests for the tape's own guarantees.
//!
//! Two families:
//!
//! 1. **Record-time shape rules** — for every constrained op, the tape
//!    kernel panics exactly when the op's shape rule (written inline in
//!    each property) is broken. Shapes are drawn small enough that both
//!    the valid and the defective region of each rule is hit. These
//!    asserts are why dc-check needs no shape pass of its own.
//! 2. **Finite differences** — on random composite graphs, the
//!    gradients produced by `Tape::backward` match central finite
//!    differences of the loss within 1e-3 relative tolerance.

use dc_tensor::{Tape, Tensor, Var};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// True when recording the graph panics inside a tape kernel.
fn kernel_panics(f: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(f)).is_err()
}

/// Deterministic probe tensor (same scheme as `dc_check::audit`):
/// values in roughly [-1.6, 1.4], no two adjacent entries equal.
fn probe(rows: usize, cols: usize, salt: u64) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i as u64 * 37 + salt * 53) % 11) as f32 * 0.3 - 1.6)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

// ---------------------------------------------------------------------
// Family 1: the tape panics exactly when the shape rule is broken
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn add_panics_unless_shapes_are_equal(
        r1 in 1usize..4, c1 in 1usize..4, r2 in 1usize..4, c2 in 1usize..4,
    ) {
        let legal = (r1, c1) == (r2, c2);
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let a = t.var(Tensor::zeros(r1, c1));
            let b = t.var(Tensor::zeros(r2, c2));
            let _ = t.add(a, b);
        });
        prop_assert_eq!(panicked, !legal, "{}x{} + {}x{}", r1, c1, r2, c2);
    }

    #[test]
    fn matmul_panics_unless_inner_dimensions_agree(
        a in 1usize..4, b in 1usize..4, c in 1usize..4, d in 1usize..4,
    ) {
        let legal = b == c;
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let x = t.var(Tensor::zeros(a, b));
            let y = t.var(Tensor::zeros(c, d));
            let _ = t.matmul(x, y);
        });
        prop_assert_eq!(panicked, !legal, "{}x{} · {}x{}", a, b, c, d);
    }

    #[test]
    fn add_row_panics_unless_rhs_is_one_matching_row(
        r in 1usize..4, c in 1usize..4, rr in 1usize..3, rc in 1usize..4,
    ) {
        let legal = rr == 1 && rc == c;
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let x = t.var(Tensor::zeros(r, c));
            let row = t.var(Tensor::zeros(rr, rc));
            let _ = t.add_row(x, row);
        });
        prop_assert_eq!(panicked, !legal, "{}x{} + row {}x{}", r, c, rr, rc);
    }

    #[test]
    fn concat_panics_unless_row_counts_agree(
        dims in proptest::collection::vec((1usize..4, 1usize..4), 1..4),
    ) {
        let legal = dims.iter().all(|&(r, _)| r == dims[0].0);
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let parts: Vec<Var> = dims
                .iter()
                .map(|&(r, c)| t.var(Tensor::zeros(r, c)))
                .collect();
            let _ = t.concat(&parts);
        });
        prop_assert_eq!(panicked, !legal, "concat {:?}", dims);
    }

    #[test]
    fn rows_select_panics_unless_indices_are_in_range(
        rows in 1usize..4,
        cols in 1usize..3,
        indices in proptest::collection::vec(0usize..5, 0..4),
    ) {
        let legal = indices.iter().all(|&i| i < rows);
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let x = t.var(Tensor::zeros(rows, cols));
            let _ = t.rows_select(x, indices.clone());
        });
        prop_assert_eq!(panicked, !legal, "select {:?} from {} rows", indices, rows);
    }

    #[test]
    fn rows_mean_panics_unless_group_indices_are_in_range(
        rows in 1usize..4,
        cols in 1usize..3,
        groups in proptest::collection::vec(
            proptest::collection::vec(0usize..5, 0..3),
            1..3,
        ),
    ) {
        let legal = groups.iter().flatten().all(|&i| i < rows);
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let x = t.var(Tensor::zeros(rows, cols));
            let _ = t.rows_mean(x, groups.clone());
        });
        prop_assert_eq!(panicked, !legal, "pool {:?} from {} rows", groups, rows);
    }

    #[test]
    fn dropout_panics_unless_mask_matches_input(
        r in 1usize..4, c in 1usize..4, mr in 1usize..4, mc in 1usize..4,
    ) {
        let legal = (mr, mc) == (r, c);
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let x = t.var(Tensor::zeros(r, c));
            let _ = t.dropout(x, Tensor::ones(mr, mc));
        });
        prop_assert_eq!(panicked, !legal, "{}x{} masked by {}x{}", r, c, mr, mc);
    }

    #[test]
    fn mse_panics_unless_target_matches_prediction(
        r in 1usize..4, c in 1usize..4, tr in 1usize..4, tc in 1usize..4,
    ) {
        let legal = (tr, tc) == (r, c);
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let p = t.var(Tensor::zeros(r, c));
            let _ = t.mse_loss(p, Tensor::zeros(tr, tc));
        });
        prop_assert_eq!(panicked, !legal, "pred {}x{} vs target {}x{}", r, c, tr, tc);
    }

    #[test]
    fn bce_panics_unless_targets_and_weights_match_logits(
        n in 1usize..4, tr in 1usize..4, wr in 1usize..4,
    ) {
        let legal = tr == n && wr == n;
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let z = t.var(Tensor::zeros(n, 1));
            let _ = t.bce_with_logits(z, Tensor::zeros(tr, 1), Tensor::ones(wr, 1));
        });
        prop_assert_eq!(
            panicked, !legal,
            "logits {}x1, targets {}x1, weights {}x1", n, tr, wr
        );
    }

    #[test]
    fn softmax_ce_panics_unless_one_in_range_label_per_row(
        rows in 1usize..4,
        cols in 1usize..4,
        labels in proptest::collection::vec(0usize..5, 0..4),
    ) {
        let legal = labels.len() == rows && labels.iter().all(|&l| l < cols);
        let panicked = kernel_panics(|| {
            let t = Tape::new();
            let z = t.var(Tensor::zeros(rows, cols));
            let _ = t.softmax_ce(z, labels.clone());
        });
        prop_assert_eq!(panicked, !legal, "{}x{} logits, labels {:?}", rows, cols, labels);
    }
}

#[test]
fn cross_tape_add_panics() {
    let a = Tape::new();
    let b = Tape::new();
    let x = a.var(Tensor::zeros(2, 3));
    let foreign = b.var(Tensor::zeros(2, 3));
    assert!(kernel_panics(|| {
        let _ = a.add(x, foreign);
    }));
}

#[test]
fn backward_from_a_two_by_three_root_panics() {
    let t = Tape::new();
    let x = t.var(Tensor::zeros(2, 3));
    let h = t.tanh(x);
    assert!(kernel_panics(|| t.backward(h)));
    // A scalar root on the same graph sweeps fine.
    let loss = t.sum(h);
    t.backward(loss);
    assert_eq!(t.grad(x).data.len(), 6);
}

// ---------------------------------------------------------------------
// Family 2: finite differences vs Tape::backward on composite graphs
// ---------------------------------------------------------------------

const EPS: f32 = 5e-3;
const TOL: f32 = 1e-3;

/// Evaluate a graph builder's scalar loss at the given leaf values.
fn loss_of(build: &dyn Fn(&Tape, &[Var]) -> Var, inputs: &[Tensor]) -> f32 {
    let t = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|x| t.var(x.clone())).collect();
    let loss = build(&t, &vars);
    t.value(loss).data[0]
}

/// Compare analytic gradients to central finite differences for every
/// element of every leaf. Returns the first discrepancy, if any.
fn fd_mismatch(build: &dyn Fn(&Tape, &[Var]) -> Var, inputs: &[Tensor]) -> Option<String> {
    let t = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|x| t.var(x.clone())).collect();
    let loss = build(&t, &vars);
    t.backward(loss);
    for (vi, var) in vars.iter().enumerate() {
        let g = t.grad(*var);
        for e in 0..inputs[vi].data.len() {
            let mut plus = inputs.to_vec();
            plus[vi].data[e] += EPS;
            let mut minus = inputs.to_vec();
            minus[vi].data[e] -= EPS;
            let num = (loss_of(build, &plus) - loss_of(build, &minus)) / (2.0 * EPS);
            let a = g.data[e];
            let rel = (num - a).abs() / a.abs().max(num.abs()).max(1.0);
            if rel > TOL {
                return Some(format!(
                    "leaf {vi} element {e}: backward {a} vs fd {num} (rel {rel})"
                ));
            }
        }
    }
    None
}

proptest! {
    /// The dc-nn hot-path shape: affine layer, activation, MSE.
    #[test]
    fn fd_matches_backward_on_mlp_graphs(
        n in 1usize..4,
        d in 1usize..4,
        k in 1usize..4,
        salt in 0u64..1000,
    ) {
        let target = probe(n, k, salt + 3);
        let build = move |t: &Tape, vars: &[Var]| {
            let h = t.tanh(t.add_row(t.matmul(vars[0], vars[1]), vars[2]));
            t.mse_loss(h, target.clone())
        };
        let inputs = vec![probe(n, d, salt), probe(d, k, salt + 1), probe(1, k, salt + 2)];
        if let Some(msg) = fd_mismatch(&build, &inputs) {
            prop_assert!(false, "n={} d={} k={}: {}", n, d, k, msg);
        }
    }

    /// Gather-heavy shape: select, concat, group-pool, then a smooth head.
    #[test]
    fn fd_matches_backward_on_gather_graphs(
        r in 2usize..5,
        c in 1usize..4,
        raw_a in proptest::collection::vec(0usize..64, 1..4),
        raw_b in proptest::collection::vec(0usize..64, 1..4),
        salt in 0u64..1000,
    ) {
        // Dependent bounds: fold raw draws into range and equalise lengths.
        let len = raw_a.len().min(raw_b.len());
        let idx_a: Vec<usize> = raw_a[..len].iter().map(|v| v % r).collect();
        let idx_b: Vec<usize> = raw_b[..len].iter().map(|v| v % r).collect();
        let groups: Vec<Vec<usize>> = vec![idx_a.iter().map(|v| v % len).collect(), vec![0]];
        let target = probe(groups.len(), 2 * c, salt + 1);
        let build = move |t: &Tape, vars: &[Var]| {
            let sel = t.concat(&[
                t.rows_select(vars[0], idx_a.clone()),
                t.rows_select(vars[0], idx_b.clone()),
            ]);
            let pooled = t.rows_mean(sel, groups.clone());
            t.mse_loss(t.sigmoid(pooled), target.clone())
        };
        let inputs = vec![probe(r, c, salt)];
        if let Some(msg) = fd_mismatch(&build, &inputs) {
            prop_assert!(false, "r={} c={}: {}", r, c, msg);
        }
    }

    /// Classification heads: softmax-CE and weighted BCE over a matmul.
    #[test]
    fn fd_matches_backward_on_loss_heads(
        n in 1usize..4,
        d in 1usize..4,
        k in 2usize..4,
        raw_labels in proptest::collection::vec(0usize..64, 4),
        salt in 0u64..1000,
    ) {
        let labels: Vec<usize> = raw_labels[..n].iter().map(|v| v % k).collect();
        let build_ce = move |t: &Tape, vars: &[Var]| {
            t.softmax_ce(t.matmul(vars[0], vars[1]), labels.clone())
        };
        let ce_inputs = vec![probe(n, d, salt), probe(d, k, salt + 1)];
        if let Some(msg) = fd_mismatch(&build_ce, &ce_inputs) {
            prop_assert!(false, "softmax_ce n={} d={} k={}: {}", n, d, k, msg);
        }

        let targets = Tensor::from_vec(n, 1, (0..n).map(|i| (i % 2) as f32).collect());
        let weights = probe(n, 1, salt + 2).map(|v| v.abs() + 0.2);
        let build_bce = move |t: &Tape, vars: &[Var]| {
            t.bce_with_logits(t.matmul(vars[0], vars[1]), targets.clone(), weights.clone())
        };
        let bce_inputs = vec![probe(n, d, salt + 3), probe(d, 1, salt + 4)];
        if let Some(msg) = fd_mismatch(&build_bce, &bce_inputs) {
            prop_assert!(false, "bce n={} d={}: {}", n, d, msg);
        }
    }
}
