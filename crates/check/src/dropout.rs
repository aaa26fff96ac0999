//! Dropout-mask scaling: the one graph defect forward records without
//! complaint.
//!
//! `Tape::dropout` asserts the mask's shape when the op is recorded, but
//! not its values: any mask multiplies through. Inverted dropout needs
//! every kept entry to carry the same scale `1 / keep ≥ 1`; anything
//! else silently skews the layer's expected activation. Checking the
//! values costs a pass over every mask, so it runs here, under
//! `DC_CHECK`, rather than on the release path.

use crate::diag::{Defect, GraphError};
use dc_tensor::{Op, Tape};

/// The first mask entry that breaks the one-uniform-scale-≥-1 rule.
fn bad_entry(mask: &[f32]) -> Option<f32> {
    let mut scale: Option<f32> = None;
    for &m in mask.iter().filter(|&&m| m != 0.0) {
        match scale {
            None if m >= 1.0 => scale = Some(m),
            Some(s) if (m - s).abs() <= 1e-6 * s.max(1.0) => {}
            _ => return Some(m),
        }
    }
    None
}

/// One [`Defect::BadDropoutMask`] per dropout node whose kept mask
/// entries are not one uniform scale `≥ 1`, in arena order. A 0/1 mask
/// (scale 1, as `KSparseAutoencoder`'s top-k masks are) passes.
pub fn check_dropout_masks(tape: &Tape) -> Vec<GraphError> {
    let mut errors = Vec::new();
    tape.for_each_node(|i, op, _, _| {
        if let Op::Dropout(_, mask) = op {
            if let Some(m) = bad_entry(&mask.data) {
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
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_scales_pass_and_mixed_or_shrinking_ones_fail() {
        assert_eq!(bad_entry(&[2.0, 0.0, 2.0]), None);
        assert_eq!(bad_entry(&[1.0, 0.0, 1.0]), None);
        assert_eq!(bad_entry(&[0.0, 0.0]), None);
        assert_eq!(bad_entry(&[2.0, 0.0, 1.5]), Some(1.5));
        assert_eq!(bad_entry(&[0.0, 0.5]), Some(0.5));
    }
}
