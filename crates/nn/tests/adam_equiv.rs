//! `Adam::update` against the per-element f32 loop it ran before its
//! update moved into `dc_tensor::kernel::adam_update`, bit for bit.
//!
//! The oracle below is that loop, copied verbatim (with the bias
//! corrections it was handed). Inputs cover every class an f32 takes —
//! signed zeros, subnormals, tiny normals, ordinary and huge values,
//! infinities and NaN — at step counts and learning rates far from the
//! defaults. A NaN must come out exactly where the oracle's does; every
//! other element must match the oracle's bits.

use dc_nn::optim::{Adam, Optimizer};
use dc_tensor::kernel::{adam_update, AdamCoeffs};
use dc_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

const STEPS: [u32; 5] = [1, 2, 10, 1_000, 100_000];
const LRS: [f32; 3] = [0.004, 1e-30, 10.0];

/// Adam's state and coefficients as the pre-kernel loop kept them.
struct Oracle {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<f32>,
    v: Vec<f32>,
}

impl Oracle {
    fn new(lr: f32, n: usize) -> Oracle {
        Oracle {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: vec![0.0; n],
            v: vec![0.0; n],
        }
    }

    fn inv_bc(&self) -> (f32, f32) {
        (
            (1.0 - self.beta1.powi(self.t as i32)).recip(),
            (1.0 - self.beta2.powi(self.t as i32)).recip(),
        )
    }

    /// The retired `Adam::update` loop.
    fn update(&mut self, param: &mut [f32], grad: &[f32]) {
        let (inv_bc1, inv_bc2) = self.inv_bc();
        for (((mi, vi), gi), pi) in self
            .m
            .iter_mut()
            .zip(self.v.iter_mut())
            .zip(grad.iter())
            .zip(param.iter_mut())
        {
            *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
            *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            let mhat = *mi * inv_bc1;
            let vhat = *vi * inv_bc2;
            *pi -= self.lr * mhat / (vhat.sqrt() + self.eps);
        }
    }

    fn coeffs(&self) -> AdamCoeffs {
        let (inv_bc1, inv_bc2) = self.inv_bc();
        AdamCoeffs {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            inv_bc1,
            inv_bc2,
        }
    }
}

/// One f32 from a mixture over every class of value.
struct AnyF32;

impl Strategy for AnyF32 {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        let sign = if rng.gen_bool(0.5) { -1.0 } else { 1.0 };
        let with_exp = |rng: &mut StdRng, lo: i32, hi: i32| {
            let e = rng.gen_range(lo..=hi);
            f32::from_bits((((e + 127) as u32) << 23) | rng.gen_range(0..1u32 << 23))
        };
        sign * match rng.gen_range(0..10u32) {
            0 => 0.0,
            1 | 2 => f32::from_bits(rng.gen_range(1..1u32 << 23)),
            3 => with_exp(rng, -70, -50),
            4..=6 => with_exp(rng, -20, 3),
            7 => with_exp(rng, 100, 127),
            8 => f32::INFINITY,
            _ => f32::NAN,
        }
    }
}

/// Index into a fixed list (the harness draws integers, not elements).
fn pick<T: Copy>(list: &[T], i: usize) -> T {
    list[i % list.len()]
}

/// `got` and `want` agree bit for bit, NaN standing for any NaN.
fn same(what: &str, got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        let ok = if w.is_nan() {
            g.is_nan()
        } else {
            g.to_bits() == w.to_bits()
        };
        prop_assert!(
            ok,
            "{what}[{i}]: got {g:e} ({:#010x}), want {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

proptest! {
    /// The kernel from arbitrary moments, gradients and parameters.
    #[test]
    fn kernel_matches_the_scalar_loop(
        state in (
            collection::vec((AnyF32, AnyF32, AnyF32, AnyF32), 1..40),
            0..STEPS.len(),
            0..LRS.len(),
        ),
    ) {
        let (quads, t, lr) = &state;
        let n = quads.len();
        let mut oracle = Oracle::new(pick(&LRS, *lr), n);
        oracle.t = pick(&STEPS, *t);
        oracle.m = quads.iter().map(|q| q.0).collect();
        oracle.v = quads.iter().map(|q| q.1).collect();
        let g: Vec<f32> = quads.iter().map(|q| q.2).collect();
        let p0: Vec<f32> = quads.iter().map(|q| q.3).collect();
        let (mut m, mut v, mut p) = (oracle.m.clone(), oracle.v.clone(), p0.clone());
        adam_update(&mut p, &g, &mut m, &mut v, &oracle.coeffs());
        let mut want = p0;
        oracle.update(&mut want, &g);
        same("m", &m, &oracle.m)?;
        same("v", &v, &oracle.v)?;
        same("p", &p, &want)?;
    }

    /// `Adam::update` itself over a few steps of arbitrary gradients,
    /// starting at each of the listed step counts.
    #[test]
    fn adam_update_matches_the_scalar_loop(
        run in (
            collection::vec(collection::vec(AnyF32, 7..8), 1..6),
            collection::vec(AnyF32, 7..8),
            0..STEPS.len(),
            0..LRS.len(),
        ),
    ) {
        let (grads, p0, t, lr) = &run;
        let lr = pick(&LRS, *lr);
        let mut adam = Adam::new(lr);
        let mut oracle = Oracle::new(lr, p0.len());
        for _ in 1..pick(&STEPS, *t) {
            adam.begin_step();
            oracle.t += 1;
        }
        let mut p = Tensor::row(p0.clone());
        let mut want = p0.clone();
        for g in grads {
            adam.begin_step();
            oracle.t += 1;
            adam.update(0, &mut p, &Tensor::row(g.clone()));
            oracle.update(&mut want, g);
            same("p", &p.data, &want)?;
        }
    }
}

/// A moment whose gradient goes to zero decays into the subnormal
/// range; 2 000 scripted steps follow it through `Adam::update` and the
/// kernel. At the default `beta1 = 0.9` it never leaves: `0.9·k` rounds
/// back to `k` for the last few subnormals (`k·2⁻¹⁴⁹`, `k ≤ 4`), so a
/// dead unit keeps a subnormal first moment for good. At `beta1 = 0.5`
/// the same decay ends at exactly zero.
#[test]
fn zero_gradient_run_decays_through_the_subnormals() {
    for (beta1, reaches_zero) in [(0.9, false), (0.5, true)] {
        let p0 = vec![0.5, -0.25, 1e-3, -2.0, 1e-38, 3.0, -1e-20, 0.75, 1.5];
        let n = p0.len();
        let lr = 0.004;
        let mut adam = Adam::new(lr);
        adam.beta1 = beta1;
        let mut oracle = Oracle::new(lr, n);
        oracle.beta1 = beta1;
        let mut kernel = Oracle::new(lr, n);
        kernel.beta1 = beta1;
        let mut p = Tensor::row(p0.clone());
        let (mut want, mut kp) = (p0.clone(), p0);
        let mut subnormal_steps = 0;
        for step in 0..2_000 {
            let g: Vec<f32> = if step < 5 {
                (0..n).map(|i| 0.1 * (i as f32 - 4.0)).collect()
            } else {
                vec![0.0; n]
            };
            adam.begin_step();
            oracle.t += 1;
            kernel.t += 1;
            adam.update(0, &mut p, &Tensor::row(g.clone()));
            let k = kernel.coeffs();
            adam_update(&mut kp, &g, &mut kernel.m, &mut kernel.v, &k);
            oracle.update(&mut want, &g);
            let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for (what, got, wanted) in [
                ("adam p", &p.data, &want),
                ("kernel p", &kp, &want),
                ("kernel m", &kernel.m, &oracle.m),
                ("kernel v", &kernel.v, &oracle.v),
            ] {
                assert_eq!(
                    bits(got),
                    bits(wanted),
                    "beta1 {beta1}: {what} at step {step}"
                );
            }
            subnormal_steps += usize::from(oracle.m.iter().any(|m| m.is_subnormal()));
        }
        assert!(
            subnormal_steps > 20,
            "beta1 {beta1}: {subnormal_steps} subnormal steps"
        );
        let settled = oracle.m.iter().filter(|&&m| m != 0.0).count();
        if reaches_zero {
            assert_eq!(settled, 0, "beta1 {beta1}: first moments {:?}", oracle.m);
        } else {
            assert!(
                oracle.m.iter().all(|&m| m == 0.0 || m.is_subnormal()) && settled > 0,
                "beta1 {beta1}: first moments {:?}",
                oracle.m
            );
        }
    }
}
