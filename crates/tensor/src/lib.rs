//! # dc-tensor
//!
//! Dense `f32` matrices with reverse-mode automatic differentiation.
//!
//! This crate is the deep-learning substrate for AutoDC, the Rust
//! implementation of *"Data Curation with Deep Learning"* (EDBT 2020).
//! The paper's models — fully-connected networks, LSTMs, the autoencoder
//! family, GANs (its Figure 2) — all run at modest scale ("trained in
//! minutes even on a CPU", §6.1), so the substrate favours clarity and
//! determinism, but its hot loops are still cache-blocked and multicore:
//!
//! * [`Tensor`] — a row-major 2-D matrix. Vectors are `1×d` tensors.
//! * [`Tape`] — an arena-based autograd tape. Operations record an
//!   [`Op`] node; [`Tape::backward`] replays the arena in reverse.
//! * [`kernel`] — blocked, register-tiled matmul/elementwise kernels
//!   plus the lazily-spawned shared worker pool (`DC_THREADS` sets the
//!   size; results are bitwise identical for every thread count).
//! * [`pool`] — the step-scoped [`BufferPool`] behind every tape
//!   allocation; [`Tape::recycle`] makes steady-state training steps
//!   (near-)allocation-free, bitwise identically to a fresh unpooled
//!   tape (the reference the equivalence suites build).
//! * [`grad_check`] — finite-difference gradient checking used by the
//!   test-suites of every downstream model.
//!
//! All randomness flows through caller-provided [`rand::rngs::StdRng`]
//! handles so every experiment in the repository is reproducible from a
//! seed.

pub mod kernel;
pub mod pool;
pub mod tape;
pub mod tensor;

pub use pool::{
    check_enabled, pool_enabled, set_check_enabled, set_pool_enabled, BufferPool, PoolStats,
    PoolViolation, PoolViolationKind, POISON_PATTERN,
};
pub use tape::{op_name, Op, Tape, Var};
pub use tensor::Tensor;

/// Numerically check the gradient of `f` at `x` against finite differences.
///
/// `f` must build a scalar-valued computation on the fresh tape it is
/// given. Returns the maximum absolute elementwise difference between the
/// analytic and numeric gradients. Used throughout `dc-nn`'s tests.
pub fn grad_check<F>(x: &Tensor, f: F, eps: f32) -> f32
where
    F: Fn(&Tape, Var) -> Var,
{
    // Analytic gradient.
    let tape = Tape::new();
    let vx = tape.var(x.clone());
    let out = f(&tape, vx);
    assert_eq!(
        tape.value(out).len(),
        1,
        "grad_check requires a scalar output"
    );
    tape.backward(out);
    let analytic = tape.grad(vx);

    // Numeric gradient by central differences.
    let mut max_diff = 0.0f32;
    for i in 0..x.len() {
        let mut xp = x.clone();
        xp.data[i] += eps;
        let mut xm = x.clone();
        xm.data[i] -= eps;
        let fp = eval_scalar(&xp, &f);
        let fm = eval_scalar(&xm, &f);
        let numeric = (fp - fm) / (2.0 * eps);
        let diff = (numeric - analytic.data[i]).abs();
        if diff > max_diff {
            max_diff = diff;
        }
    }
    max_diff
}

fn eval_scalar<F>(x: &Tensor, f: &F) -> f32
where
    F: Fn(&Tape, Var) -> Var,
{
    let tape = Tape::new();
    let vx = tape.var(x.clone());
    let out = f(&tape, vx);
    tape.value(out).data[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_check_quadratic() {
        // f(x) = sum(x * x); df/dx = 2x.
        let x = Tensor::from_vec(1, 4, vec![0.5, -1.0, 2.0, 0.0]);
        let err = grad_check(&x, |t, v| t.sum(t.mul(v, v)), 1e-3);
        assert!(err < 1e-2, "gradient error too large: {err}");
    }

    #[test]
    fn grad_check_matmul_chain() {
        let x = Tensor::from_vec(2, 3, vec![0.1, 0.2, -0.3, 0.4, -0.5, 0.6]);
        let err = grad_check(
            &x,
            |t, v| {
                let w = t.var(Tensor::from_vec(3, 2, vec![1.0, -1.0, 0.5, 0.5, 2.0, 0.0]));
                let h = t.tanh(t.matmul(v, w));
                t.sum(t.mul(h, h))
            },
            1e-3,
        );
        assert!(err < 1e-2, "gradient error too large: {err}");
    }
}
