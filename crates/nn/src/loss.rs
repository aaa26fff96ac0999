//! Loss configuration and cost-sensitive class weighting.
//!
//! §6.1 of the paper calls out that DC tasks "often exhibit a skewed
//! label distribution" (non-duplicate pairs dwarf duplicates in ER) and
//! an "unbalanced cost model where the cost of misclassification is not
//! symmetric". The remedies it lists — cost-sensitive objectives and
//! class-aware sampling — are implemented here and in `dc-er`'s samplers.

use dc_tensor::{Tape, Tensor, Var};

/// Which training objective a model head uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LossKind {
    /// Mean squared error (regression / reconstruction).
    Mse,
    /// Binary cross entropy with logits, optional per-class weights
    /// `(w_negative, w_positive)`.
    Bce {
        /// Weight multiplied into negative-example terms.
        w_neg: f32,
        /// Weight multiplied into positive-example terms.
        w_pos: f32,
    },
    /// Multi-class softmax cross entropy.
    SoftmaxCe,
}

impl LossKind {
    /// Unweighted binary cross entropy.
    pub fn bce() -> Self {
        LossKind::Bce {
            w_neg: 1.0,
            w_pos: 1.0,
        }
    }

    /// Record this objective on `tape` for outputs `out` against the
    /// batch targets `y` and return the scalar loss node.
    ///
    /// For [`LossKind::Bce`] `out` must hold one logit per row and `y`
    /// be `n×1` with 0/1 entries; for [`LossKind::SoftmaxCe`], `y`
    /// holds the class index in column 0.
    pub fn on_tape(self, tape: &Tape, out: Var, y: &Tensor) -> Var {
        match self {
            LossKind::Mse => tape.mse_loss(out, y.clone()),
            LossKind::Bce { w_neg, w_pos } => {
                let labels: Vec<bool> = y.data.iter().map(|&v| v >= 0.5).collect();
                tape.bce_with_logits(
                    out,
                    target_tensor(&labels),
                    weight_tensor(&labels, w_neg, w_pos),
                )
            }
            LossKind::SoftmaxCe => {
                let labels: Vec<usize> = y.data.iter().map(|&v| v as usize).collect();
                tape.softmax_ce(out, labels)
            }
        }
    }
}

/// Inverse-frequency class weights `(w_neg, w_pos)` for binary labels.
///
/// Balanced weighting: each class contributes equally to the loss
/// regardless of its frequency, i.e. `w_c = n / (2 · n_c)`. Degenerate
/// single-class inputs fall back to `(1, 1)`.
pub fn class_weights(labels: &[bool]) -> (f32, f32) {
    let n = labels.len() as f32;
    let pos = labels.iter().filter(|&&l| l).count() as f32;
    let neg = n - pos;
    if pos == 0.0 || neg == 0.0 {
        return (1.0, 1.0);
    }
    (n / (2.0 * neg), n / (2.0 * pos))
}

/// Expand binary labels into the `n×1` weight tensor the tape's weighted
/// BCE expects.
pub fn weight_tensor(labels: &[bool], w_neg: f32, w_pos: f32) -> Tensor {
    Tensor::from_vec(
        labels.len(),
        1,
        labels
            .iter()
            .map(|&l| if l { w_pos } else { w_neg })
            .collect(),
    )
}

/// Binary labels as an `n×1` 0/1 target tensor.
pub fn target_tensor(labels: &[bool]) -> Tensor {
    Tensor::from_vec(
        labels.len(),
        1,
        labels.iter().map(|&l| if l { 1.0 } else { 0.0 }).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_weights_equalise_class_mass() {
        let labels = [true, false, false, false]; // 25% positive
        let (wn, wp) = class_weights(&labels);
        // Total weighted mass per class should match: 1*wp == 3*wn.
        assert!((wp - 3.0 * wn).abs() < 1e-6);
        assert!((wn - 4.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_labels_fall_back_to_unit() {
        assert_eq!(class_weights(&[true, true]), (1.0, 1.0));
        assert_eq!(class_weights(&[]), (1.0, 1.0));
    }

    #[test]
    fn weight_tensor_maps_labels() {
        let t = weight_tensor(&[true, false, true], 0.5, 2.0);
        assert_eq!(t.data, vec![2.0, 0.5, 2.0]);
        assert_eq!((t.rows, t.cols), (3, 1));
    }

    #[test]
    fn target_tensor_is_zero_one() {
        let t = target_tensor(&[false, true]);
        assert_eq!(t.data, vec![0.0, 1.0]);
    }
}
