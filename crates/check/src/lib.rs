//! # dc-check
//!
//! Debug-time validation and gradient auditing for [`dc_tensor::Tape`]
//! graphs.
//!
//! Shape, broadcast, index, scalar-root and tape-ownership defects need
//! no pass here: the kernels assert them when forward records the op
//! (and `backward` when it starts), so a tape that ran has none. What
//! `dc-check` adds are the checks a recorded tape can still fail,
//! reported as structured [`GraphError`]s:
//!
//! * [`check_dropout_masks`] — dropout masks whose kept entries are not
//!   one uniform scale `≥ 1`, which forward accepts.
//! * [`lint_graph`] — dead parameter leaves, unused non-leaf nodes,
//!   cross-tape backward roots, double-`backward` misuse.
//! * [`sanitize`] — NaN/±Inf scan over forward values and gradients,
//!   reporting the op that introduced the poison first.
//! * [`memsafe`] — use-after-recycle / double-recycle detection from
//!   the pool's `DC_CHECK=1` generation-tagged handles and the
//!   `0xFFC0_DEAD` recycle poison.
//! * [`audit_all_ops`] — central finite-difference verification of the
//!   backward rule of every [`dc_tensor::Op`] variant, with coverage
//!   enforced by an exhaustive match.
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
//! let h = tape.dropout(x, Tensor::row(vec![2.0, 0.0]));
//! let loss = tape.mse_loss(h, Tensor::row(vec![0.5, 0.5]));
//! tape.backward(loss);
//!
//! assert!(dc_check::check_dropout_masks(&tape).is_empty());
//! assert!(dc_check::lint_graph(&tape, loss).is_empty());
//! assert!(dc_check::sanitize(&tape).is_empty());
//! ```

pub mod audit;
pub mod diag;
pub mod dropout;
pub mod lint;
pub mod memsafe;
pub mod sanitize;

pub use audit::{audit_all_ops, audit_op, OpAudit, OpKind};
pub use diag::{render, Defect, GraphError};
pub use dropout::check_dropout_masks;
pub use lint::lint_graph;
pub use memsafe::{check_memsafe, scan_poison};
pub use sanitize::sanitize;

use dc_tensor::{Tape, Var};
use std::sync::OnceLock;

/// True when the `DC_CHECK` environment variable is set to anything but
/// `0` — the opt-in switch for [`debug_validate`]. Read once per process.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os("DC_CHECK").is_some_and(|v| v != "0"))
}

/// Debug-mode hook for model hot paths: when [`enabled`], run the
/// sanitizer, the memory-safety scans, the dropout-mask check and the
/// lints over the tape, panicking on hard errors and printing lint
/// warnings to stderr. A no-op otherwise.
///
/// `context` names the call site (e.g. `"Mlp::train_step"`) in reports.
pub fn debug_validate(context: &str, tape: &Tape, root: Var) {
    if !enabled() {
        return;
    }
    let mut errors = sanitize(tape);
    errors.extend(memsafe::check_memsafe(tape));
    errors.extend(check_dropout_masks(tape));
    let (warnings, hard): (Vec<_>, Vec<_>) = lint_graph(tape, root)
        .into_iter()
        .partition(|e| e.defect.is_warning());
    errors.extend(hard);
    if !warnings.is_empty() {
        eprintln!("dc-check [{context}]: warnings\n{}", render(&warnings));
    }
    assert!(
        errors.is_empty(),
        "dc-check [{context}]: graph validation failed\n{}",
        render(&errors)
    );
}

/// Like [`debug_validate`] but without a backward root: sanitizer plus
/// the dropout-mask check. Model constructors use this to validate a
/// probe forward pass before any training step runs.
pub fn debug_validate_graph(context: &str, tape: &Tape) {
    if !enabled() {
        return;
    }
    let mut errors = sanitize(tape);
    errors.extend(check_dropout_masks(tape));
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
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        assert!(check_dropout_masks(&t).is_empty());
        assert!(lint_graph(&t, loss).is_empty());
        assert!(sanitize(&t).is_empty());
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
    fn hooks_reject_a_bad_dropout_mask_when_enabled() {
        if !enabled() {
            return; // the DC_CHECK=1 lane of scripts/sanitize.sh runs this
        }
        let t = Tape::new();
        let x = t.var(Tensor::row(vec![1.0, 2.0, 3.0]));
        // Non-uniform kept scales: 2.0 vs 1.5.
        let loss = t.sum(t.dropout(x, Tensor::row(vec![2.0, 0.0, 1.5])));
        let graph = catch_unwind(AssertUnwindSafe(|| debug_validate_graph("test", &t)));
        assert!(graph.is_err(), "debug_validate_graph accepted a bad mask");
        let step = catch_unwind(AssertUnwindSafe(|| debug_validate("test", &t, loss)));
        assert!(step.is_err(), "debug_validate accepted a bad mask");
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
