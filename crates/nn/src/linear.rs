//! Dense (fully-connected) layers and activation functions.

use dc_tensor::{Tape, Tensor, Var};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Elementwise nonlinearity applied after an affine map.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Identity (no nonlinearity).
    Identity,
    /// `max(0, x)`.
    Relu,
    /// Leaky ReLU with slope 0.01 on the negative side.
    LeakyRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl Activation {
    /// Apply on the tape (training path).
    pub fn apply_tape(self, tape: &Tape, x: Var) -> Var {
        match self {
            Activation::Identity => x,
            Activation::Relu => tape.relu(x),
            Activation::LeakyRelu => tape.leaky_relu(x, 0.01),
            Activation::Sigmoid => tape.sigmoid(x),
            Activation::Tanh => tape.tanh(x),
        }
    }

    /// Apply directly to a tensor (inference path).
    pub fn apply(self, x: &Tensor) -> Tensor {
        match self {
            Activation::Identity => x.clone(),
            Activation::Relu => x.map(|v| v.max(0.0)),
            Activation::LeakyRelu => x.map(|v| if v > 0.0 { v } else { 0.01 * v }),
            Activation::Sigmoid => x.map(|v| 1.0 / (1.0 + (-v).exp())),
            Activation::Tanh => x.map(f32::tanh),
        }
    }
}

/// A dense layer `y = act(x · W + b)` owning its parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix, `in_dim × out_dim`.
    pub w: Tensor,
    /// Bias row vector, `1 × out_dim`.
    pub b: Tensor,
    /// Activation applied after the affine map.
    pub activation: Activation,
}

/// Tape handles for one layer's parameters within a training step.
#[derive(Clone, Copy, Debug)]
pub struct LinearVars {
    /// Weight variable.
    pub w: Var,
    /// Bias variable.
    pub b: Var,
}

impl Linear {
    /// Xavier-initialised layer.
    pub fn new(in_dim: usize, out_dim: usize, activation: Activation, rng: &mut StdRng) -> Self {
        Linear {
            w: Tensor::xavier(in_dim, out_dim, rng),
            b: Tensor::zeros(1, out_dim),
            activation,
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols
    }

    /// Register parameters on a tape for a training step. The copies
    /// live in pool-backed buffers, so on a recycled tape a step's
    /// binds reuse the previous step's memory.
    pub fn bind(&self, tape: &Tape) -> LinearVars {
        LinearVars {
            w: tape.var_from(&self.w),
            b: tape.var_from(&self.b),
        }
    }

    /// Forward on the tape using previously bound parameter vars.
    pub fn forward_tape(&self, tape: &Tape, x: Var, vars: LinearVars) -> Var {
        let affine = tape.add_row(tape.matmul(x, vars.w), vars.b);
        self.activation.apply_tape(tape, affine)
    }

    /// Tape-free forward (inference).
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut out = x.matmul(&self.w);
        out.add_row_inplace(&self.b);
        self.activation.apply(&out)
    }

    /// Apply an optimiser update with the gradients of `vars` read from
    /// the tape; uses optimiser slots `2·slot` (weights) and
    /// `2·slot + 1` (bias).
    pub fn apply_grads(
        &mut self,
        opt: &mut dyn crate::optim::Optimizer,
        slot: usize,
        tape: &Tape,
        vars: &LinearVars,
    ) {
        tape.with_grad(vars.w, |g| opt.update(slot * 2, &mut self.w, g));
        tape.with_grad(vars.b, |g| opt.update(slot * 2 + 1, &mut self.b, g));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_matches_tape_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(3, 2, Activation::Tanh, &mut rng);
        let x = Tensor::from_vec(2, 3, vec![0.1, -0.2, 0.3, 0.4, 0.5, -0.6]);

        let fast = layer.forward(&x);

        let tape = Tape::new();
        let vx = tape.var(x);
        let vars = layer.bind(&tape);
        let out = layer.forward_tape(&tape, vx, vars);
        assert!(fast.distance(&tape.value(out)) < 1e-6);
    }

    #[test]
    fn activations_inference_matches_tape() {
        let x = Tensor::row(vec![-1.5, -0.1, 0.0, 0.1, 2.0]);
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::LeakyRelu,
            Activation::Sigmoid,
            Activation::Tanh,
        ] {
            let direct = act.apply(&x);
            let tape = Tape::new();
            let v = tape.var(x.clone());
            let out = act.apply_tape(&tape, v);
            assert!(direct.distance(&tape.value(out)) < 1e-6, "{act:?}");
        }
    }

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Linear::new(50, 50, Activation::Relu, &mut rng);
        let limit = (6.0f32 / 100.0).sqrt();
        assert!(layer.w.data.iter().all(|v| v.abs() <= limit));
        assert!(layer.b.data.iter().all(|&v| v == 0.0));
    }
}
