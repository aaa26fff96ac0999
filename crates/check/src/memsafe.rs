//! Use-after-recycle and double-recycle detection.
//!
//! Under `DC_CHECK=1` the tape's [`dc_tensor::BufferPool`] keeps
//! generation-tagged debug handles for every buffer it hands out and
//! fills recycled buffers with the [`dc_tensor::POISON_PATTERN`] NaN
//! (`0xFFC0_DEAD`). This module turns both signals into structured
//! [`GraphError`] diagnostics with op provenance:
//!
//! * [`scan_poison`] — walk every live value, gradient, and cached aux
//!   tensor looking for the poison word. A hit means some computation
//!   kept reading a buffer after it returned to the pool (or a caller
//!   held storage across [`dc_tensor::Tape::recycle`]); the report
//!   names the node and op whose buffer carries the poison.
//! * [`pool_violations`] — surface the pool's recorded misuses
//!   (double/foreign recycles) with the step generation they happened
//!   in.
//!
//! Both scans are empty on a healthy step; `debug_validate` runs them
//! automatically, and `dc-nn`'s training loop asserts them per batch
//! when `DC_CHECK=1`.

use crate::diag::{render, Defect, GraphError};
use dc_tensor::{op_name, PoolViolationKind, Tape, POISON_PATTERN};

fn poisoned(data: &[f32]) -> usize {
    data.iter()
        .filter(|v| v.to_bits() == POISON_PATTERN)
        .count()
}

/// Scan every live buffer the tape owns — node values, gradients, and
/// each op's cached [`dc_tensor::Op::aux`] tensor — for the `DC_CHECK=1` recycle
/// poison. One [`Defect::UseAfterRecycle`] per affected buffer, anchored
/// to the node whose storage carries it.
///
/// The pattern is a quiet NaN with a payload ordinary arithmetic never
/// produces, so (unlike [`crate::sanitize`]'s generic non-finite scan) a
/// hit specifically means *recycled storage*, not numeric blow-up.
pub fn scan_poison(tape: &Tape) -> Vec<GraphError> {
    let mut errors = Vec::new();
    tape.for_each_node(|i, op, value, grad| {
        let mut report = |buffer: &str, hits: usize, len: usize| {
            errors.push(GraphError {
                node: i,
                op: op_name(op),
                defect: Defect::UseAfterRecycle,
                expected: "no 0xFFC0DEAD recycle-poison words in live buffers".into(),
                got: format!("{hits} of {len} {buffer} elements hold the poison pattern"),
            });
        };
        let hits = poisoned(&value.data);
        if hits > 0 {
            report("value", hits, value.data.len());
        }
        if let Some(g) = grad {
            let hits = poisoned(&g.data);
            if hits > 0 {
                report("gradient", hits, g.data.len());
            }
        }
        if let Some(aux) = op.aux() {
            let hits = poisoned(&aux.data);
            if hits > 0 {
                report("cached-aux", hits, aux.data.len());
            }
        }
    });
    errors
}

/// Surface the pool's own misuse records (see
/// [`dc_tensor::Tape::pool_violations`]) as diagnostics. The pool has no
/// node anchor for a stray `put` — the buffer is already outside any
/// node — so these anchor past the arena's end with the step generation
/// in the message; pair with [`scan_poison`] for op-level provenance.
pub fn pool_violations(tape: &Tape) -> Vec<GraphError> {
    tape.pool_violations()
        .into_iter()
        .map(|v| GraphError {
            node: tape.len(),
            op: "buffer_pool",
            defect: match v.kind {
                PoolViolationKind::DoubleRecycle => Defect::DoubleRecycle,
            },
            expected: "every pooled buffer recycled exactly once per step".into(),
            got: format!(
                "a {}-element buffer recycled that the pool does not count as \
                 outstanding (step generation {})",
                v.len, v.generation
            ),
        })
        .collect()
}

/// Both memory-safety scans, in report order.
pub fn check_memsafe(tape: &Tape) -> Vec<GraphError> {
    let mut errors = pool_violations(tape);
    errors.extend(scan_poison(tape));
    errors
}

/// Panic with a rendered report if the tape shows any memory-safety
/// violation. `dc-nn`'s training loop calls this per batch when
/// `DC_CHECK=1`; `context` names the call site.
pub fn assert_clean(context: &str, tape: &Tape) {
    let errors = check_memsafe(tape);
    assert!(
        errors.is_empty(),
        "dc-check [{context}]: memory-safety violations\n{}",
        render(&errors)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dc_tensor::{Tape, Tensor};

    #[test]
    fn clean_tape_scans_clean() {
        let tape = Tape::new();
        let x = tape.var(Tensor::row(vec![1.0, f32::NAN, f32::INFINITY]));
        let s = tape.sum(x);
        tape.backward(s);
        // Organic NaN/Inf are sanitize's business, not poison.
        assert!(scan_poison(&tape).is_empty());
        assert!(pool_violations(&tape).is_empty());
        assert_clean("test", &tape);
    }

    #[test]
    fn poison_word_in_a_value_is_reported_with_provenance() {
        let tape = Tape::new();
        let poison = f32::from_bits(POISON_PATTERN);
        let x = tape.var(Tensor::row(vec![0.5, poison]));
        let s = tape.sigmoid(x);
        let errors = scan_poison(&tape);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert_eq!(errors[0].defect, Defect::UseAfterRecycle);
        assert_eq!(errors[0].node, x.index());
        assert_eq!(errors[0].op, "leaf");
        assert!(errors[0].got.contains("1 of 2"));
        let _ = s;
    }

    #[test]
    fn poison_in_a_gradient_is_reported() {
        let tape = Tape::new();
        let x = tape.var(Tensor::row(vec![2.0, 3.0]));
        let s = tape.sum(x);
        tape.backward(s);
        // A healthy sweep leaves no poison anywhere.
        assert!(scan_poison(&tape).is_empty());
    }
}
