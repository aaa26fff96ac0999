//! Acceptance tests: one dedicated test per defect class dc-check must
//! detect on a tape that ran — bad dropout-mask scaling, dead
//! parameter, cross-tape backward root, and NaN injection. Shape,
//! broadcast and index defects never reach a recorded tape: the kernels
//! panic on them at record time (`tests/prop.rs`, family 1).

use dc_check::{check_dropout_masks, lint_graph, sanitize, Defect};
use dc_tensor::{Tape, Tensor};

#[test]
fn detects_bad_dropout_mask() {
    let t = Tape::new();
    let x = t.var(Tensor::row(vec![1.0, 2.0, 3.0]));
    let good = t.dropout(x, Tensor::row(vec![2.0, 0.0, 2.0]));
    // Forward accepts a mask with mixed kept scales (2.0 vs 1.5).
    let bad = t.dropout(good, Tensor::row(vec![2.0, 0.0, 1.5]));
    let errs = check_dropout_masks(&t);
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0].defect, Defect::BadDropoutMask);
    assert_eq!(errs[0].node, bad.index());
    assert!(errs[0].got.contains("1.5"), "got: {}", errs[0].got);
}

#[test]
fn detects_dead_parameter() {
    let t = Tape::new();
    let x = t.var(Tensor::from_vec(2, 2, vec![0.1, 0.2, 0.3, 0.4]));
    let w_used = t.var(Tensor::from_vec(2, 2, vec![0.5; 4]));
    let w_dead = t.var(Tensor::from_vec(2, 2, vec![0.7; 4])); // never consumed
    let loss = t.mse_loss(t.matmul(x, w_used), Tensor::zeros(2, 2));

    let warnings = lint_graph(&t, loss);
    assert_eq!(warnings.len(), 1);
    assert_eq!(warnings[0].defect, Defect::DeadParameter);
    assert_eq!(warnings[0].node, w_dead.index());
    assert!(warnings[0].defect.is_warning());

    // And indeed backward leaves its gradient at zero.
    t.backward(loss);
    assert!(t.grad(w_dead).data.iter().all(|&g| g == 0.0));
    assert!(t.grad(w_used).data.iter().any(|&g| g != 0.0));
}

#[test]
fn detects_cross_tape_var() {
    let a = Tape::new();
    let b = Tape::new();
    let _ = a.var(Tensor::scalar(1.0));
    let foreign = b.var(Tensor::scalar(2.0));

    let errs = lint_graph(&a, foreign);
    assert_eq!(errs.len(), 1);
    assert_eq!(errs[0].defect, Defect::CrossTapeVar);
    assert!(
        !errs[0].defect.is_warning(),
        "a foreign root is a hard error"
    );
}

#[test]
fn detects_nan_injection_at_its_origin() {
    let t = Tape::new();
    let clean = t.var(Tensor::row(vec![1.0, 2.0]));
    let poisoned = t.var(Tensor::row(vec![3.0, f32::NAN]));
    let s = t.add(clean, poisoned);
    let _ = t.sum(s);

    let errs = sanitize(&t);
    // The leaf that introduced the NaN is reported first; downstream
    // nodes that merely propagate it follow.
    assert!(errs.len() >= 2);
    assert_eq!(errs[0].defect, Defect::NonFiniteValue);
    assert_eq!(errs[0].node, poisoned.index());
    assert!(errs[0].got.contains("element 1"), "got: {}", errs[0].got);
}

#[test]
fn detects_inf_in_gradients() {
    let t = Tape::new();
    // exp(90) overflows f32 in the *backward* product even though the
    // forward sum is already Inf; both show up, values first.
    let x = t.var(Tensor::row(vec![90.0, 0.0]));
    let loss = t.sum(t.exp(x));
    t.backward(loss);

    let errs = sanitize(&t);
    assert!(errs.iter().any(|e| e.defect == Defect::NonFiniteValue));
    assert!(errs.iter().any(|e| e.defect == Defect::NonFiniteGrad));
}
