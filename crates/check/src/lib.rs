//! # dc-check
//!
//! Static graph validation, numerics sanitizing, and gradient auditing
//! for [`dc_tensor::Tape`] graphs.
//!
//! The autograd kernels defend themselves with scattered `assert!`s that
//! fire one at a time, mid-execution. `dc-check` instead walks the
//! recorded op arena *symbolically* and reports every defect at once as
//! structured [`GraphError`]s:
//!
//! * [`check_tape`] / [`check_plan`] — shape and well-formedness: matmul
//!   inner dimensions, `add_row` broadcasts, concat row counts, gather
//!   and label bounds, dropout mask shape and keep-scaling, loss
//!   scalar-ness (via [`check_root`]).
//! * [`lint_graph`] — dead parameter leaves, unused non-leaf nodes,
//!   cross-tape `Var` handles, double-`backward` misuse.
//! * [`sanitize`] — NaN/±Inf scan over forward values and gradients,
//!   reporting the op that introduced the poison first.
//! * [`audit_all_ops`] — central finite-difference verification of the
//!   backward rule of every [`dc_tensor::Op`] variant, with coverage
//!   enforced by an exhaustive match.
//! * [`liveness`] — static last-use analysis over the recorded graph:
//!   an early-recycle plan (rejected by [`liveness::verify_plan`] if it
//!   reads past a release) and an exact [`liveness::forecast_pool`]
//!   prediction of the step's `PoolStats` high-water mark.
//! * [`memsafe`] — use-after-recycle / double-recycle detection from
//!   the pool's `DC_CHECK=1` generation-tagged handles and the
//!   `0xFFC0_DEAD` recycle poison.
//!
//! Model code hooks in through [`debug_validate`], a no-op unless the
//! `DC_CHECK` environment variable is set, so the passes cost nothing in
//! production runs:
//!
//! ```
//! use dc_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let x = tape.var(Tensor::row(vec![1.0, 2.0]));
//! let loss = tape.mse_loss(x, Tensor::row(vec![0.5, 0.5]));
//!
//! let plan = dc_check::check_tape(&tape).expect("graph is well-formed");
//! assert_eq!(plan.output_shape(), Some((1, 1)));
//! assert!(dc_check::check_root(&tape, loss).is_empty());
//! assert!(dc_check::sanitize(&tape).is_empty());
//! ```

pub mod audit;
pub mod diag;
pub mod lint;
pub mod liveness;
pub mod memsafe;
pub mod plan;
pub mod sanitize;

pub use audit::{audit_all_ops, audit_op, OpAudit, OpKind};
pub use diag::{render, Defect, GraphError};
pub use lint::lint_graph;
pub use liveness::{forecast_pool, Liveness, ReleasePoint};
pub use memsafe::{check_memsafe, scan_poison};
pub use plan::{check_plan, check_root, check_tape, lower, GraphPlan, SymNode, SymOp};
pub use sanitize::sanitize;

use dc_tensor::{Tape, Var};
use std::sync::OnceLock;

/// True when the `DC_CHECK` environment variable is set to anything but
/// `0` — the opt-in switch for [`debug_validate`]. Read once per process.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("DC_CHECK").is_some_and(|v| v != "0"))
}

/// Debug-mode hook for model hot paths: when [`enabled`], run the shape
/// checker, root check, lints, and sanitizer over the tape, panicking on
/// hard errors and printing lint warnings to stderr. A no-op otherwise.
///
/// `context` names the call site (e.g. `"Mlp::train_step"`) in reports.
pub fn debug_validate(context: &str, tape: &Tape, root: Var) {
    if !enabled() {
        return;
    }
    let mut errors: Vec<GraphError> = Vec::new();
    match check_tape(tape) {
        Ok(_) => {}
        Err(es) => errors.extend(es),
    }
    errors.extend(check_root(tape, root));
    errors.extend(sanitize(tape));
    errors.extend(memsafe::check_memsafe(tape));
    if errors.is_empty() {
        // Liveness verification assumes a structurally sound arena;
        // only run it once the passes above found nothing.
        errors.extend(liveness::verify(tape, root.index()));
    }

    let warnings = if errors.iter().any(|e| e.defect == Defect::CrossTapeVar) {
        Vec::new() // lint indices would be meaningless across tapes
    } else {
        lint_graph(tape, root)
    };
    if !warnings.is_empty() {
        eprintln!("dc-check [{context}]: warnings\n{}", render(&warnings));
    }
    assert!(
        errors.is_empty(),
        "dc-check [{context}]: graph validation failed\n{}",
        render(&errors)
    );
}

/// Like [`debug_validate`] but without a backward root: shape checker
/// plus sanitizer only. Model constructors use this to validate a probe
/// forward pass before any training step runs.
pub fn debug_validate_graph(context: &str, tape: &Tape) {
    if !enabled() {
        return;
    }
    let mut errors = match check_tape(tape) {
        Ok(_) => Vec::new(),
        Err(es) => es,
    };
    errors.extend(sanitize(tape));
    assert!(
        errors.is_empty(),
        "dc-check [{context}]: graph validation failed\n{}",
        render(&errors)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_tensor::{Tape, Tensor};

    /// A small but representative training-step graph: affine layer,
    /// activation, loss — the hot-path shape in `dc-nn`.
    fn mlp_step() -> (Tape, Var) {
        let t = Tape::new();
        let x = t.var(Tensor::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]));
        let w = t.var(Tensor::from_vec(3, 2, vec![0.5; 6]));
        let b = t.var(Tensor::row(vec![0.1, -0.1]));
        let h = t.tanh(t.add_row(t.matmul(x, w), b));
        let loss = t.mse_loss(h, Tensor::zeros(2, 2));
        (t, loss)
    }

    #[test]
    fn well_formed_graph_checks_clean() {
        let (t, loss) = mlp_step();
        let plan = check_tape(&t).expect("mlp graph must validate");
        assert_eq!(plan.len(), t.len());
        assert_eq!(plan.shape(loss.index()), (1, 1));
        assert!(check_root(&t, loss).is_empty());
        assert!(lint_graph(&t, loss).is_empty());
        assert!(sanitize(&t).is_empty());
    }

    #[test]
    fn plan_shapes_match_recorded_values() {
        let (t, _) = mlp_step();
        let plan = check_tape(&t).unwrap();
        t.for_each_node(|i, _, value, _| {
            assert_eq!(plan.shape(i), (value.rows, value.cols));
        });
    }

    #[test]
    fn non_scalar_root_is_rejected() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0]));
        let errs = check_root(&t, x);
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].defect, Defect::NonScalarLoss);
    }

    #[test]
    fn double_backward_is_linted() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0]));
        let s = t.sum(x);
        t.backward(s);
        assert!(lint_graph(&t, s).is_empty());
        t.backward(s);
        let warnings = lint_graph(&t, s);
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].defect, Defect::DoubleBackward);
        assert!(warnings[0].defect.is_warning());
    }

    #[test]
    fn unused_intermediate_node_is_linted() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0]));
        let _orphan = t.sigmoid(x); // computed, feeds nothing
        let loss = t.sum(t.tanh(x));
        let warnings = lint_graph(&t, loss);
        assert_eq!(warnings.len(), 1);
        assert_eq!(warnings[0].defect, Defect::UnusedNode);
        assert_eq!(warnings[0].node, _orphan.index());
    }

    #[test]
    fn metric_heads_after_the_root_are_not_linted() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0]));
        let loss = t.sum(x);
        let _metric = t.mean(t.abs(x)); // recorded after the loss
        assert!(lint_graph(&t, loss).is_empty());
    }

    #[test]
    fn bad_dropout_mask_scaling_is_reported() {
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0, 3.0]));
        // Non-uniform kept scales: 2.0 vs 1.5.
        let _ = t.dropout(x, Tensor::row(vec![2.0, 0.0, 1.5]));
        let errs = check_tape(&t).unwrap_err();
        assert!(errs.iter().any(|e| e.defect == Defect::BadDropoutMask));
    }

    #[test]
    fn debug_validate_is_a_no_op_when_disabled() {
        // The suite does not set DC_CHECK, so even a tape with a NaN
        // leaf must pass through silently.
        if enabled() {
            return; // an outer DC_CHECK=1 run exercises the other path
        }
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![f32::NAN]));
        debug_validate("test", &t, x);
    }
}
