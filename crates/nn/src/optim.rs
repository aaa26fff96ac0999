//! First-order optimisers.
//!
//! Each optimiser keeps per-parameter state keyed by a caller-chosen
//! `slot` index, so a model with `k` parameter tensors uses slots
//! `0..k` consistently across steps. State is allocated lazily on first
//! use, sized to the parameter it serves.

use dc_tensor::kernel::{adam_update, AdamCoeffs};
use dc_tensor::Tensor;

/// Lazily-grown per-slot optimiser state. Slots are small dense
/// integers by convention (`0..k` for a model with `k` parameter
/// tensors), so a flat index beats hashing — optimiser updates run once
/// per parameter per step, squarely on the training hot path.
#[derive(Clone, Debug, Default)]
struct SlotState {
    slots: Vec<Option<Tensor>>,
}

impl SlotState {
    /// The state tensor for `param`'s `slot`, created zeroed at its shape
    /// on first use.
    ///
    /// # Panics
    /// Panics if `grad` does not have `param`'s shape, or if `slot` was
    /// first used by a parameter of another shape: two parameters
    /// sharing a slot would otherwise update each other's state.
    fn get_or_insert(&mut self, slot: usize, param: &Tensor, grad: &Tensor) -> &mut Tensor {
        let (rows, cols) = (param.rows, param.cols);
        assert_eq!(
            (grad.rows, grad.cols),
            (rows, cols),
            "optimizer slot {slot}: grad {}x{} vs param {rows}x{cols}",
            grad.rows,
            grad.cols
        );
        if slot >= self.slots.len() {
            self.slots.resize(slot + 1, None);
        }
        let state = self.slots[slot].get_or_insert_with(|| Tensor::zeros(rows, cols));
        assert_eq!(
            (state.rows, state.cols),
            (rows, cols),
            "optimizer slot {slot}: state {}x{} vs param {rows}x{cols}",
            state.rows,
            state.cols
        );
        state
    }
}

/// A stateful first-order update rule.
pub trait Optimizer {
    /// Apply one update to `param` given its gradient, using per-slot
    /// internal state.
    fn update(&mut self, slot: usize, param: &mut Tensor, grad: &Tensor);

    /// Advance the shared step counter (used by Adam bias correction).
    /// Call once per optimisation step, before the slot updates.
    fn begin_step(&mut self) {}

    /// The current base learning rate.
    fn learning_rate(&self) -> f32;

    /// Replace the base learning rate (for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Plain stochastic gradient descent.
#[derive(Clone, Debug)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn update(&mut self, _slot: usize, param: &mut Tensor, grad: &Tensor) {
        param.axpy(-self.lr, grad);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// SGD with classical momentum.
#[derive(Clone, Debug)]
pub struct Momentum {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (typically 0.9).
    pub beta: f32,
    velocity: SlotState,
}

impl Momentum {
    /// Momentum SGD.
    pub fn new(lr: f32, beta: f32) -> Self {
        Momentum {
            lr,
            beta,
            velocity: SlotState::default(),
        }
    }
}

impl Optimizer for Momentum {
    fn update(&mut self, slot: usize, param: &mut Tensor, grad: &Tensor) {
        let v = self.velocity.get_or_insert(slot, param, grad);
        for (vi, gi) in v.data.iter_mut().zip(grad.data.iter()) {
            *vi = self.beta * *vi + gi;
        }
        param.axpy(-self.lr, v);
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// AdaGrad: per-coordinate learning rates from accumulated squared grads.
#[derive(Clone, Debug)]
pub struct AdaGrad {
    /// Learning rate.
    pub lr: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    accum: SlotState,
}

impl AdaGrad {
    /// AdaGrad with the given learning rate.
    pub fn new(lr: f32) -> Self {
        AdaGrad {
            lr,
            eps: 1e-8,
            accum: SlotState::default(),
        }
    }
}

impl Optimizer for AdaGrad {
    fn update(&mut self, slot: usize, param: &mut Tensor, grad: &Tensor) {
        let a = self.accum.get_or_insert(slot, param, grad);
        for ((ai, gi), pi) in a
            .data
            .iter_mut()
            .zip(grad.data.iter())
            .zip(param.data.iter_mut())
        {
            *ai += gi * gi;
            *pi -= self.lr * gi / (ai.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// RMSProp: exponentially-decayed squared-gradient normalisation.
#[derive(Clone, Debug)]
pub struct RmsProp {
    /// Learning rate.
    pub lr: f32,
    /// Decay rate for the squared-gradient average (typically 0.9).
    pub rho: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    accum: SlotState,
}

impl RmsProp {
    /// RMSProp with the given learning rate and decay 0.9.
    pub fn new(lr: f32) -> Self {
        RmsProp {
            lr,
            rho: 0.9,
            eps: 1e-8,
            accum: SlotState::default(),
        }
    }
}

impl Optimizer for RmsProp {
    fn update(&mut self, slot: usize, param: &mut Tensor, grad: &Tensor) {
        let a = self.accum.get_or_insert(slot, param, grad);
        for ((ai, gi), pi) in a
            .data
            .iter_mut()
            .zip(grad.data.iter())
            .zip(param.data.iter_mut())
        {
            *ai = self.rho * *ai + (1.0 - self.rho) * gi * gi;
            *pi -= self.lr * gi / (ai.sqrt() + self.eps);
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam with bias correction — the default optimiser for every model in
/// this repository.
#[derive(Clone, Debug)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay (typically 0.9).
    pub beta1: f32,
    /// Second-moment decay (typically 0.999).
    pub beta2: f32,
    /// Numerical-stability constant.
    pub eps: f32,
    t: u32,
    /// Step the cached bias corrections were computed for (0 = none).
    bc_t: u32,
    /// Reciprocal bias corrections 1/(1-beta^t) for the cached step.
    bc1: f32,
    bc2: f32,
    m: SlotState,
    v: SlotState,
}

impl Adam {
    /// Adam with standard betas.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            bc_t: 0,
            bc1: 0.0,
            bc2: 0.0,
            m: SlotState::default(),
            v: SlotState::default(),
        }
    }
}

impl Optimizer for Adam {
    fn begin_step(&mut self) {
        self.t += 1;
    }

    fn update(&mut self, slot: usize, param: &mut Tensor, grad: &Tensor) {
        if self.t == 0 {
            self.t = 1; // tolerate callers that skip begin_step
        }
        // Bias corrections depend only on `t`; compute them once per
        // step, not once per parameter tensor.
        if self.bc_t != self.t {
            self.bc_t = self.t;
            // Stored as reciprocals: the per-element loop multiplies
            // instead of dividing (divides don't pipeline).
            self.bc1 = (1.0 - self.beta1.powi(self.t as i32)).recip();
            self.bc2 = (1.0 - self.beta2.powi(self.t as i32)).recip();
        }
        let coeffs = AdamCoeffs {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            inv_bc1: self.bc1,
            inv_bc2: self.bc2,
        };
        let m = self.m.get_or_insert(slot, param, grad);
        let v = self.v.get_or_insert(slot, param, grad);
        adam_update(
            &mut param.data,
            &grad.data,
            &mut m.data,
            &mut v.data,
            &coeffs,
        );
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each optimiser should drive f(x) = ||x||² towards zero.
    fn converges(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut x = Tensor::row(vec![5.0, -3.0, 2.0]);
        for _ in 0..steps {
            opt.begin_step();
            let grad = x.scale(2.0);
            opt.update(0, &mut x, &grad);
        }
        x.norm()
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        assert!(converges(&mut Sgd::new(0.1), 100) < 1e-3);
    }

    #[test]
    fn momentum_converges_on_quadratic() {
        assert!(converges(&mut Momentum::new(0.05, 0.9), 200) < 1e-2);
    }

    #[test]
    fn adagrad_converges_on_quadratic() {
        assert!(converges(&mut AdaGrad::new(0.9), 400) < 1e-2);
    }

    #[test]
    fn rmsprop_converges_on_quadratic() {
        // RMSProp's normalised steps oscillate at ~lr scale near the
        // optimum, so the bound is looser than for SGD/Adam.
        assert!(converges(&mut RmsProp::new(0.01), 800) < 0.1);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        assert!(converges(&mut Adam::new(0.2), 300) < 1e-2);
    }

    #[test]
    fn adam_faster_than_sgd_on_ill_conditioned() {
        // f(x, y) = 100x² + y² — poorly conditioned for plain SGD.
        let run = |opt: &mut dyn Optimizer| {
            let mut x = Tensor::row(vec![1.0, 1.0]);
            for _ in 0..200 {
                opt.begin_step();
                let grad = Tensor::row(vec![200.0 * x.data[0], 2.0 * x.data[1]]);
                opt.update(0, &mut x, &grad);
            }
            100.0 * x.data[0] * x.data[0] + x.data[1] * x.data[1]
        };
        let adam = run(&mut Adam::new(0.05));
        let sgd = run(&mut Sgd::new(0.004)); // near max stable lr for 100x²
        assert!(adam < sgd, "adam {adam} vs sgd {sgd}");
    }

    #[test]
    #[should_panic(expected = "optimizer slot 3: state 1x2 vs param 2x1")]
    fn reusing_a_slot_at_another_shape_panics() {
        let mut opt = Adam::new(0.1);
        opt.begin_step();
        let mut a = Tensor::row(vec![1.0, 2.0]);
        opt.update(3, &mut a, &Tensor::row(vec![0.5, 0.5]));
        let mut b = Tensor::from_vec(2, 1, vec![1.0, 2.0]);
        opt.update(3, &mut b, &Tensor::from_vec(2, 1, vec![0.5, 0.5]));
    }

    #[test]
    fn every_stateful_optimizer_rejects_a_grad_of_another_shape() {
        let opts: Vec<Box<dyn Optimizer>> = vec![
            Box::new(Momentum::new(0.1, 0.9)),
            Box::new(AdaGrad::new(0.1)),
            Box::new(RmsProp::new(0.1)),
            Box::new(Adam::new(0.1)),
        ];
        for mut opt in opts {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut p = Tensor::row(vec![1.0, 2.0, 3.0]);
                opt.update(0, &mut p, &Tensor::row(vec![1.0, 2.0]));
            }));
            let msg = outcome.expect_err("a short grad must panic");
            let msg = msg.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("grad 1x2 vs param 1x3"), "{msg}");
        }
    }

    #[test]
    fn separate_slots_keep_separate_state() {
        let mut opt = Adam::new(0.1);
        let mut a = Tensor::row(vec![1.0]);
        let mut b = Tensor::row(vec![1.0]);
        opt.begin_step();
        opt.update(0, &mut a, &Tensor::row(vec![1.0]));
        opt.update(1, &mut b, &Tensor::row(vec![-1.0]));
        assert!(a.data[0] < 1.0);
        assert!(b.data[0] > 1.0);
    }
}
