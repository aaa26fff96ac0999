//! Fused-LSTM equivalence suite (ISSUE 7).
//!
//! The fused gate path (one `T×4h` input GEMM, one `h·Wh` GEMM per
//! step, one `lstm` tape node per sequence) must stay interchangeable
//! with the per-gate formulation it replaced (eight tiny per-gate GEMMs
//! per step), which lives on only as this file's [`per_gate`] oracle:
//!
//! 1. **Cross-mode within 1e-5.** The kernel accumulates full `NR`-wide
//!    column strips (and full `MR`-row tiles) with hardware FMA but the
//!    remainders with separate mul+add, so per-element rounding depends
//!    on the GEMM's output shape: a gate column that sits in the scalar
//!    remainder of an `n = h` per-gate product lands in an FMA strip of
//!    the `n = 4h` fused product. Fused vs unfused is therefore a
//!    tolerance comparison (≤1e-5 relative to the tensor's scale), not
//!    bitwise — on top of backward reassociating the `Wx` gradient (one
//!    `seqᵀ·G` product vs per-timestep rank-1 updates).
//! 2. **Batch within 1e-5, same ulp class.** Bucketed `encode_batch`
//!    keeps each lane's k-order but changes the GEMMs' row counts, so a
//!    row can move between the FMA row tile and the scalar remainder —
//!    lanes match solo `encode` to within a few ulps (bitwise when the
//!    row tiling lines up; `lstm.rs` has a unit test pinning that).
//! 3. **Pooled vs fresh bitwise.** A recycled pooled tape running the
//!    fused graph (the `lstm` node's BPTT backward included) replays
//!    the identical GEMM shapes, so it must reproduce a fresh unpooled
//!    tape bit for bit.
//! 4. **Recorded bits.** A hash over 250 random shared-weight training
//!    graphs, recorded when each timestep was 17 primitive tape nodes,
//!    pins every forward value and gradient of the one-node-per-sequence
//!    op.
//!
//! `scripts/lint.sh` runs this suite under `DC_THREADS` 1, 2, and the
//! default. The pool gate is process-global, so tests serialise on a
//! mutex and re-pin it at entry.

use dc_nn::lstm::LstmEncoder;
use dc_nn::optim::{Adam, Optimizer, Sgd};
use dc_tensor::{set_pool_enabled, Tape, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;

/// Serialises tests that flip the global pool gate.
static GATE_LOCK: Mutex<()> = Mutex::new(());

fn seq_tensor(rows: usize, cols: usize, rng: &mut StdRng) -> Tensor {
    Tensor::randn(rows, cols, 1.0, rng)
}

/// One LSTM training step on `tape`: forward over `seq`, sum-of-squares
/// loss, backward, optimiser update. Returns the loss bits.
fn train_step(enc: &mut LstmEncoder, opt: &mut dyn Optimizer, tape: &Tape, seq: &Tensor) -> u32 {
    let vars = enc.bind(tape);
    let sv = tape.var_slice(seq.rows, seq.cols, &seq.data);
    let h = enc.forward_tape(tape, sv, &vars);
    let loss = tape.sum(tape.mul(h, h));
    let bits = tape.item(loss).to_bits();
    tape.backward(loss);
    opt.begin_step();
    enc.apply_grads(opt, 0, tape, &vars);
    bits
}

/// Every element of `a` and `b` agrees to within `tol` of the pair's
/// overall scale (floored at 1). Scale-relative, not element-relative:
/// near-cancelling dot products leave absolute rounding noise behind,
/// so an element-wise relative test would be ill-conditioned at zeros.
fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    let scale = a
        .data
        .iter()
        .chain(&b.data)
        .fold(1.0f32, |m, v| m.max(v.abs()));
    a.data
        .iter()
        .zip(&b.data)
        .all(|(x, y)| (x - y).abs() <= tol * scale)
}

/// The pre-fusion LSTM, kept as the oracle properties 1a/1b compare
/// against: separate per-gate weight blocks, per-timestep row copies,
/// eight small GEMMs per step, twelve optimiser slots.
mod per_gate {
    use super::*;

    const GATES: usize = 4; // [i|f|o|g] column blocks of the fused layout

    /// Copy of gate `g`'s column block of a fused `rows × 4·hd` matrix.
    fn block(fused: &Tensor, g: usize, hd: usize) -> Tensor {
        let mut out = Tensor::zeros(fused.rows, hd);
        for r in 0..fused.rows {
            out.row_slice_mut(r)
                .copy_from_slice(&fused.row_slice(r)[g * hd..(g + 1) * hd]);
        }
        out
    }

    fn blocks(fused: &Tensor, hd: usize) -> Vec<Tensor> {
        (0..GATES).map(|g| block(fused, g, hd)).collect()
    }

    fn sigmoid(x: f32) -> f32 {
        1.0 / (1.0 + (-x).exp())
    }

    /// Tape-free encode, one gate at a time.
    pub fn encode(enc: &LstmEncoder, seq: &Tensor) -> Tensor {
        let hd = enc.hidden_dim;
        let (wx, wh, b) = (blocks(&enc.wx, hd), blocks(&enc.wh, hd), blocks(&enc.b, hd));
        let mut h = Tensor::zeros(1, hd);
        let mut c = Tensor::zeros(1, hd);
        for t in 0..seq.rows {
            let x = seq.row_tensor(t);
            let gate = |g: usize, h: &Tensor| {
                let mut z = x.matmul(&wx[g]);
                z.axpy(1.0, &h.matmul(&wh[g]));
                z.axpy(1.0, &b[g]);
                z
            };
            let i = gate(0, &h).map(sigmoid);
            let f = gate(1, &h).map(sigmoid);
            let o = gate(2, &h).map(sigmoid);
            let g = gate(3, &h).map(f32::tanh);
            c = f.mul(&c).add(&i.mul(&g));
            h = o.mul(&c.map(f32::tanh));
        }
        h
    }

    /// [`super::train_step`] over the per-gate graph: twelve bound
    /// vars, per-gate gradients written back into the fused blocks.
    pub fn train_step(
        enc: &mut LstmEncoder,
        opt: &mut dyn Optimizer,
        tape: &Tape,
        seq: &Tensor,
    ) -> u32 {
        let hd = enc.hidden_dim;
        let mut params = [blocks(&enc.wx, hd), blocks(&enc.wh, hd), blocks(&enc.b, hd)];
        let [wx, wh, b] = params
            .each_ref()
            .map(|p| p.iter().map(|t| tape.var_from(t)).collect::<Vec<_>>());
        let sv = tape.var_slice(seq.rows, seq.cols, &seq.data);
        let mut h = tape.var(Tensor::zeros(1, hd));
        let mut c = tape.var(Tensor::zeros(1, hd));
        for t in 0..seq.rows {
            let x = tape.rows_select(sv, vec![t]);
            let gate = |g: usize| {
                tape.add_row(tape.add(tape.matmul(x, wx[g]), tape.matmul(h, wh[g])), b[g])
            };
            let i = tape.sigmoid(gate(0));
            let f = tape.sigmoid(gate(1));
            let o = tape.sigmoid(gate(2));
            let g = tape.tanh(gate(3));
            c = tape.add(tape.mul(f, c), tape.mul(i, g));
            h = tape.mul(o, tape.tanh(c));
        }
        let loss = tape.sum(tape.mul(h, h));
        let bits = tape.item(loss).to_bits();
        tape.backward(loss);
        opt.begin_step();
        let fused = [&mut enc.wx, &mut enc.wh, &mut enc.b];
        for (k, (vars, fused)) in [wx, wh, b].iter().zip(fused).enumerate() {
            for g in 0..GATES {
                let blk = &mut params[k][g];
                tape.with_grad(vars[g], |grad| opt.update(g * 3 + k, blk, grad));
                for r in 0..blk.rows {
                    fused.row_slice_mut(r)[g * hd..(g + 1) * hd].copy_from_slice(blk.row_slice(r));
                }
            }
        }
        bits
    }
}

/// FNV-1a over a stream of 32-bit words (little-endian bytes).
fn fnv(h: &mut u64, words: &[f32]) {
    for w in words {
        for b in w.to_bits().to_le_bytes() {
            *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Property 4: the training graph's bits are pinned. 250 random graphs,
/// two per `(d, h, T)` in the grid below, each encoding two sequences
/// (lengths `T` and a random one from the same list) with one shared
/// set of weights and a loss that mixes both final states. One FNV-1a
/// hash covers every graph's forward value (both final states and the
/// loss) and the `wx`, `wh`, `b` and both sequences' gradients. It was
/// recorded with the LSTM composed from primitive tape ops, so the
/// fused recurrence op must reproduce that graph's every float.
#[test]
fn shared_weight_graphs_match_the_recorded_hash() {
    let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_pool_enabled(true);

    const DIMS: [usize; 5] = [3, 7, 8, 16, 24];
    const HIDDEN: [usize; 5] = [5, 6, 8, 9, 32];
    const STEPS: [usize; 5] = [1, 2, 5, 9, 16];
    let mut rng = StdRng::seed_from_u64(4700);
    let tape = Tape::new();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut graphs = 0;
    for d in DIMS {
        for hd in HIDDEN {
            for steps in STEPS {
                for _ in 0..2 {
                    let enc = LstmEncoder::new(d, hd, &mut rng);
                    let other = STEPS[rng.gen_range(0..STEPS.len())];
                    let seq_a = seq_tensor(steps, d, &mut rng);
                    let seq_b = seq_tensor(other, d, &mut rng);
                    let r = seq_tensor(1, hd, &mut rng);

                    let vars = enc.bind(&tape);
                    let sa = tape.var_from(&seq_a);
                    let sb = tape.var_from(&seq_b);
                    let ha = enc.forward_tape(&tape, sa, &vars);
                    let hb = enc.forward_tape(&tape, sb, &vars);
                    let rv = tape.var_from(&r);
                    let loss = tape.sum(tape.mul(tape.add(ha, rv), hb));
                    tape.backward(loss);

                    for v in [ha, hb, loss] {
                        fnv(&mut hash, &tape.value(v).data);
                    }
                    for v in [vars.wx, vars.wh, vars.b, sa, sb] {
                        tape.with_grad(v, |g| fnv(&mut hash, &g.data));
                    }
                    tape.recycle();
                    graphs += 1;
                }
            }
        }
    }
    assert_eq!(graphs, 250);
    assert_eq!(hash, 7_214_873_096_764_865_052);
}

proptest! {
    /// Property 1a: fused and unfused `encode` agree within 1e-5
    /// relative (FMA-strip vs scalar-remainder rounding, see module
    /// doc — the recurrence compounds it slightly, never past 1e-5).
    #[test]
    fn fused_encode_matches_unfused(
        dim in 1usize..5,
        hidden in 1usize..6,
        tokens in 0usize..8,
        seed in 0u64..1_000_000,
    ) {
        let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_enabled(true);

        let mut rng = StdRng::seed_from_u64(seed);
        let enc = LstmEncoder::new(dim, hidden, &mut rng);
        let seq = seq_tensor(tokens, dim, &mut rng);

        let fused = enc.encode(&seq);
        let unfused = per_gate::encode(&enc, &seq);

        prop_assert!(close(&fused, &unfused, 1e-5));
    }

    /// Property 2: length-bucketed `encode_batch` reproduces each
    /// lane's solo `encode` to within a few ulps — batching stacks
    /// extra rows into the same-width GEMMs, which can move a row
    /// between the FMA tile and the scalar remainder path.
    #[test]
    fn batch_encode_matches_solo(
        dim in 1usize..5,
        hidden in 1usize..6,
        lens in proptest::collection::vec(0usize..7, 0..6),
        seed in 0u64..1_000_000,
    ) {
        let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_enabled(true);

        let mut rng = StdRng::seed_from_u64(seed);
        let enc = LstmEncoder::new(dim, hidden, &mut rng);
        let seqs: Vec<Tensor> = lens.iter().map(|&t| seq_tensor(t, dim, &mut rng)).collect();

        let batched = enc.encode_batch(&seqs);
        prop_assert_eq!(batched.len(), seqs.len());
        for (s, hb) in seqs.iter().zip(&batched) {
            prop_assert!(close(&enc.encode(s), hb, 1e-5));
        }
    }

    /// Property 1b: a short identically-seeded training run stays
    /// within 1e-5 of scale on the loss and every parameter across
    /// modes (forward rounding differs per the module doc, and backward
    /// additionally reassociates the Wx gradient accumulation). SGD,
    /// not Adam: Adam's m̂/√v̂ ratio is sign-sensitive, so an element
    /// whose true gradient is below the rounding noise could flip its
    /// whole ±lr update between modes — SGD keeps the parameter drift
    /// proportional to the gradient difference itself.
    #[test]
    fn fused_training_tracks_unfused(
        dim in 1usize..4,
        hidden in 1usize..5,
        tokens in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_pool_enabled(true);

        let run = |fused: bool| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut enc = LstmEncoder::new(dim, hidden, &mut rng);
            let seq = seq_tensor(tokens, dim, &mut rng);
            let mut opt = Sgd::new(0.05);
            let mut first_loss = 0;
            for step in 0..3 {
                let tape = Tape::new();
                let bits = if fused {
                    train_step(&mut enc, &mut opt, &tape, &seq)
                } else {
                    per_gate::train_step(&mut enc, &mut opt, &tape, &seq)
                };
                if step == 0 {
                    first_loss = bits;
                }
            }
            (first_loss, enc)
        };

        let (loss_f, enc_f) = run(true);
        let (loss_u, enc_u) = run(false);

        // Step 0 starts from identical weights: the losses only differ
        // by the kernel's shape-dependent rounding.
        let (lf, lu) = (f32::from_bits(loss_f), f32::from_bits(loss_u));
        prop_assert!((lf - lu).abs() <= 1e-5 * lf.abs().max(lu.abs()).max(1.0));
        prop_assert!(close(&enc_f.wx, &enc_u.wx, 1e-5));
        prop_assert!(close(&enc_f.wh, &enc_u.wh, 1e-5));
        prop_assert!(close(&enc_f.b, &enc_u.b, 1e-5));
    }

    /// Property 2b: the fused-LSTM graph (one `lstm` node per
    /// sequence) on a recycled pooled tape ≡ a fresh unpooled tape, bit
    /// for bit — loss trace and final parameters.
    #[test]
    fn pooled_fused_tape_matches_fresh_bitwise(
        dim in 1usize..4,
        hidden in 1usize..5,
        tokens in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let _g = GATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());

        let run = |pooled: bool| {
            set_pool_enabled(pooled);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut enc = LstmEncoder::new(dim, hidden, &mut rng);
            let seq = seq_tensor(tokens, dim, &mut rng);
            let mut opt = Adam::new(0.01);
            let mut bits = Vec::new();
            if pooled {
                let tape = Tape::new();
                for _ in 0..3 {
                    bits.push(train_step(&mut enc, &mut opt, &tape, &seq));
                    tape.recycle();
                }
            } else {
                for _ in 0..3 {
                    let tape = Tape::new();
                    bits.push(train_step(&mut enc, &mut opt, &tape, &seq));
                }
            }
            for t in [&enc.wx, &enc.wh, &enc.b] {
                bits.extend(t.data.iter().map(|v| v.to_bits()));
            }
            bits
        };

        let fresh = run(false);
        let pooled = run(true);
        set_pool_enabled(true);

        prop_assert_eq!(fresh, pooled);
    }
}
