//! Recurrent encoders (Figure 2 d): LSTM and bidirectional LSTM.
//!
//! The paper uses "uni- and bi-directional recurrent neural networks
//! (RNNs) with long short term memory (LSTM) hidden units to convert
//! each tuple to a distributed representation" (§5.2, DeepER). These
//! encoders consume a `T×input_dim` sequence of token embeddings and
//! produce the final hidden state as the sequence representation.
//!
//! # Fused gate layout
//!
//! Gate weights are stored cuDNN-style as single wide matrices —
//! `wx: input_dim×4h`, `wh: hidden_dim×4h`, `b: 1×4h` — with the four
//! gates column-blocked in `[i|f|o|g]` order. The input projections for
//! *all* timesteps are hoisted out of the recurrence into one `T×4h`
//! GEMM (`seq·Wx`), leaving only the inherently-serial `h·Wh` product
//! inside the loop; each step's gate math is then one call of
//! [`kernel::lstm_gates`], the cell's single definition.
//!
//! # One tape node per sequence
//!
//! [`LstmEncoder::forward_tape`] records two nodes per sequence: the
//! `seq·Wx` matmul and one [`Tape::lstm`] node, which runs the whole
//! recurrence forward and its BPTT backward inside itself. The
//! tape-free [`LstmEncoder::encode`] and the batch encoders call the
//! same gate function, so the tape's final state equals `encode`'s bit
//! for bit.

use dc_tensor::{kernel, Tape, Tensor, Var};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Gate order inside the fused column blocks.
const GATES: usize = 4; // input, forget, output, candidate
/// Width, in hidden units, of one [`kernel::lstm_gates`] output row:
/// `[i|f|o|g|c|tanh c|h]`.
const CELL: usize = 7;

/// A single-direction LSTM encoder with fused gate projections:
/// `z = xWx + hWh + b` (`1×4h`), `i,f,o = σ(z[·])`, `g = tanh(z[·])`,
/// `c' = f⊙c + i⊙g`, `h' = o⊙tanh(c')`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LstmEncoder {
    /// Fused input-to-gate weights, `input_dim × 4·hidden_dim`.
    pub wx: Tensor,
    /// Fused hidden-to-gate weights, `hidden_dim × 4·hidden_dim`.
    pub wh: Tensor,
    /// Fused gate biases, `1 × 4·hidden_dim`.
    pub b: Tensor,
    /// Embedding dimensionality of the inputs.
    pub input_dim: usize,
    /// Hidden-state dimensionality.
    pub hidden_dim: usize,
}

/// Tape handles for an [`LstmEncoder`]'s parameters during one step.
#[derive(Clone, Copy, Debug)]
pub struct LstmVars {
    /// `input_dim × 4·hidden_dim` input weights.
    pub wx: Var,
    /// `hidden_dim × 4·hidden_dim` hidden weights.
    pub wh: Var,
    /// `1 × 4·hidden_dim` biases.
    pub b: Var,
}

impl LstmEncoder {
    /// Xavier-initialised LSTM; the forget-gate bias starts at 1 so long
    /// sequences keep gradient flow early in training. Per-gate blocks
    /// are drawn in the historical (pre-fusion) rng order so seeded
    /// trajectories stay bitwise reproducible.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut StdRng) -> Self {
        let wx_gates: Vec<Tensor> = (0..GATES)
            .map(|_| Tensor::xavier(input_dim, hidden_dim, rng))
            .collect();
        let wh_gates: Vec<Tensor> = (0..GATES)
            .map(|_| Tensor::xavier(hidden_dim, hidden_dim, rng))
            .collect();
        let mut b_gates = vec![Tensor::zeros(1, hidden_dim); GATES];
        b_gates[1] = Tensor::ones(1, hidden_dim); // forget gate
        let enc = LstmEncoder {
            wx: Tensor::hstack(&wx_gates),
            wh: Tensor::hstack(&wh_gates),
            b: Tensor::hstack(&b_gates),
            input_dim,
            hidden_dim,
        };
        if dc_check::enabled() {
            // Construct-time static validation over a two-step probe
            // sequence (enough to exercise the recurrent wiring).
            let tape = Tape::new();
            let vars = enc.bind(&tape);
            let seq = tape.var(Tensor::zeros(2, input_dim));
            let _ = enc.forward_tape(&tape, seq, &vars);
            dc_check::debug_validate_graph("LstmEncoder::new", &tape);
        }
        enc
    }

    /// Total learnable parameter count.
    pub fn capacity(&self) -> usize {
        GATES
            * (self.input_dim * self.hidden_dim
                + self.hidden_dim * self.hidden_dim
                + self.hidden_dim)
    }

    /// Register parameters on a tape. The copies live in pool-backed
    /// buffers, so on a recycled tape a step's binds reuse the previous
    /// step's memory.
    pub fn bind(&self, tape: &Tape) -> LstmVars {
        LstmVars {
            wx: tape.var_from(&self.wx),
            wh: tape.var_from(&self.wh),
            b: tape.var_from(&self.b),
        }
    }

    /// Encode a `T×input_dim` sequence var; returns the final hidden
    /// state (`1×hidden_dim`). Empty sequences yield a zero state.
    pub fn forward_tape(&self, tape: &Tape, seq: Var, vars: &LstmVars) -> Var {
        if tape.shape(seq).0 == 0 {
            return tape.var(Tensor::zeros(1, self.hidden_dim));
        }
        tape.lstm(tape.matmul(seq, vars.wx), vars.wh, vars.b)
    }

    /// Tape-free encode of a `T×input_dim` sequence tensor (inference).
    pub fn encode(&self, seq: &Tensor) -> Tensor {
        assert_eq!(seq.cols, self.input_dim, "encode: input dim mismatch");
        let hd = self.hidden_dim;
        let mut h = Tensor::zeros(1, hd);
        if seq.rows == 0 {
            return h;
        }
        let mut c = vec![0.0f32; hd];
        // All T input projections in one GEMM up front; the loop body
        // allocates nothing — the recurrent GEMM accumulates into a
        // reused scratch row and the gate math writes a reused cell row.
        let xw = seq.matmul(&self.wx);
        let mut hw = vec![0.0f32; GATES * hd];
        let mut cell = vec![0.0f32; CELL * hd];
        for t in 0..seq.rows {
            hw.fill(0.0);
            kernel::matmul_into(&h, &self.wh, &mut hw);
            kernel::lstm_gates(xw.row_slice(t), &hw, &self.b.data, &c, &mut cell);
            c.copy_from_slice(&cell[4 * hd..5 * hd]);
            h.data.copy_from_slice(&cell[6 * hd..]);
        }
        h
    }

    /// Tape-free encode of a batch of sequences (inference).
    ///
    /// Sequences are grouped into exact-length buckets: lanes of equal
    /// `T` share one `(B·T)×d` input GEMM and `B×4h` recurrent GEMMs —
    /// no padding rows, no masking. Each lane's per-element k-order is
    /// the same as its solo [`encode`](Self::encode); batching only
    /// changes which microkernel row path (FMA row tile vs scalar
    /// remainder row) serves an element, so lanes match solo encode to
    /// within a few ulps, and bitwise whenever the row tiling lines up.
    pub fn encode_batch(&self, seqs: &[Tensor]) -> Vec<Tensor> {
        self.encode_bucketed(seqs, 1)
    }

    /// Batch encode with every GEMM row count padded to the kernel's
    /// [`kernel::ROW_TILE`] — the batch-*invariant* inference path.
    ///
    /// [`Self::encode_batch`] packs lanes back to back, so a lane's
    /// rows land in full FMA row tiles or the scalar remainder
    /// depending on how many *other* lanes share its bucket; its output
    /// can differ by an ulp across batch compositions. Here each lane's
    /// timesteps start at a `ROW_TILE`-aligned row of the stacked input
    /// (zero padding rows in between) and the recurrent state matrix is
    /// padded to a `ROW_TILE` multiple of lanes, so every row of every
    /// GEMM takes the full-tile path. Each lane's hidden state is then
    /// a pure bitwise function of its own sequence: encoding a sequence
    /// in a batch of 1 or of 1000 yields identical bits, at any
    /// `DC_THREADS`. dc-serve's micro-batcher relies on exactly this.
    pub fn encode_batch_aligned(&self, seqs: &[Tensor]) -> Vec<Tensor> {
        self.encode_bucketed(seqs, kernel::ROW_TILE)
    }

    /// The length-bucketed batch encode behind [`Self::encode_batch`]
    /// (`tile == 1`: lanes packed back to back) and
    /// [`Self::encode_batch_aligned`] (`tile == ROW_TILE`): each lane's
    /// timesteps and the lane count are padded up to a multiple of
    /// `tile` rows.
    fn encode_bucketed(&self, seqs: &[Tensor], tile: usize) -> Vec<Tensor> {
        let hd = self.hidden_dim;
        let mut out = vec![Tensor::zeros(1, hd); seqs.len()];
        let mut buckets: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(s.cols, self.input_dim, "encode_batch: input dim mismatch");
            if s.rows > 0 {
                buckets.entry(s.rows).or_default().push(i);
            }
        }
        for (&tlen, idxs) in &buckets {
            let bsz = idxs.len();
            let tpad = tlen.div_ceil(tile) * tile;
            let bpad = bsz.div_ceil(tile) * tile;
            // Row-major by (lane, timestep): one GEMM yields every
            // lane's every-timestep input projection. Lane `l` occupies
            // rows `l·tpad .. l·tpad+tlen`; the zero rows in between
            // keep every lane start tile-aligned so no register tile
            // ever straddles two lanes.
            let mut stacked = Tensor::zeros(bsz * tpad, self.input_dim);
            for (lane, &i) in idxs.iter().enumerate() {
                for t in 0..tlen {
                    stacked
                        .row_slice_mut(lane * tpad + t)
                        .copy_from_slice(seqs[i].row_slice(t));
                }
            }
            let xw = stacked.matmul(&self.wx); // (B·Tpad)×4h
            let mut hmat = Tensor::zeros(bpad, hd);
            let mut cmat = Tensor::zeros(bsz, hd);
            let mut hw = vec![0.0f32; bpad * GATES * hd];
            let mut cell = vec![0.0f32; CELL * hd];
            for t in 0..tlen {
                hw.fill(0.0);
                kernel::matmul_into(&hmat, &self.wh, &mut hw);
                // Gate updates skip the padding lanes, so their rows of
                // `hmat` stay exactly zero.
                for lane in 0..bsz {
                    let xr = xw.row_slice(lane * tpad + t);
                    let hwr = &hw[lane * GATES * hd..(lane + 1) * GATES * hd];
                    let cr = cmat.row_slice_mut(lane);
                    kernel::lstm_gates(xr, hwr, &self.b.data, cr, &mut cell);
                    cr.copy_from_slice(&cell[4 * hd..5 * hd]);
                    hmat.row_slice_mut(lane).copy_from_slice(&cell[6 * hd..]);
                }
            }
            for (lane, &i) in idxs.iter().enumerate() {
                out[i].data.copy_from_slice(hmat.row_slice(lane));
            }
        }
        out
    }

    /// Apply optimiser updates; uses [`slot_count`](Self::slot_count)
    /// slots starting at `slot_base`.
    pub fn apply_grads(
        &mut self,
        opt: &mut dyn crate::optim::Optimizer,
        slot_base: usize,
        tape: &Tape,
        vars: &LstmVars,
    ) {
        tape.with_grad(vars.wx, |g| opt.update(slot_base, &mut self.wx, g));
        tape.with_grad(vars.wh, |g| opt.update(slot_base + 1, &mut self.wh, g));
        tape.with_grad(vars.b, |g| opt.update(slot_base + 2, &mut self.b, g));
    }

    /// Number of optimiser slots this encoder consumes: one per fused
    /// matrix (`wx`, `wh`, `b`).
    pub fn slot_count(&self) -> usize {
        3
    }
}

/// A bidirectional LSTM: concatenates forward and backward final states
/// into a `1 × 2·hidden_dim` representation.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BiLstmEncoder {
    /// Left-to-right encoder.
    pub fwd: LstmEncoder,
    /// Right-to-left encoder.
    pub bwd: LstmEncoder,
}

/// Tape handles for a [`BiLstmEncoder`].
#[derive(Clone, Debug)]
pub struct BiLstmVars {
    /// Forward-direction vars.
    pub fwd: LstmVars,
    /// Backward-direction vars.
    pub bwd: LstmVars,
}

impl BiLstmEncoder {
    /// Build both directions with independent parameters.
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut StdRng) -> Self {
        let enc = BiLstmEncoder {
            fwd: LstmEncoder::new(input_dim, hidden_dim, rng),
            bwd: LstmEncoder::new(input_dim, hidden_dim, rng),
        };
        if dc_check::enabled() {
            // The per-direction encoders validate themselves; this probe
            // covers the reverse-and-concat wiring on top.
            let tape = Tape::new();
            let vars = enc.bind(&tape);
            let seq = tape.var(Tensor::zeros(2, input_dim));
            let _ = enc.forward_tape(&tape, seq, &vars);
            dc_check::debug_validate_graph("BiLstmEncoder::new", &tape);
        }
        enc
    }

    /// Output dimensionality (`2 × hidden_dim`).
    pub fn out_dim(&self) -> usize {
        2 * self.fwd.hidden_dim
    }

    /// Register parameters on a tape.
    pub fn bind(&self, tape: &Tape) -> BiLstmVars {
        BiLstmVars {
            fwd: self.fwd.bind(tape),
            bwd: self.bwd.bind(tape),
        }
    }

    /// Encode a sequence var in both directions and concatenate final
    /// states.
    pub fn forward_tape(&self, tape: &Tape, seq: Var, vars: &BiLstmVars) -> Var {
        let hf = self.fwd.forward_tape(tape, seq, &vars.fwd);
        let steps = tape.shape(seq).0;
        let hb = if steps == 0 {
            self.bwd.forward_tape(tape, seq, &vars.bwd)
        } else {
            let rev = tape.rows_select(seq, (0..steps).rev().collect());
            self.bwd.forward_tape(tape, rev, &vars.bwd)
        };
        tape.concat(&[hf, hb])
    }

    /// Tape-free encode of a `T×input_dim` sequence (inference).
    pub fn encode(&self, seq: &Tensor) -> Tensor {
        let hf = self.fwd.encode(seq);
        let mut rev = Tensor::zeros(seq.rows, seq.cols);
        for t in 0..seq.rows {
            rev.row_slice_mut(t)
                .copy_from_slice(seq.row_slice(seq.rows - 1 - t));
        }
        let hb = self.bwd.encode(&rev);
        Tensor::hstack(&[hf, hb])
    }

    /// Tape-free encode of a batch of sequences (inference): each
    /// direction runs its own length-bucketed
    /// [`LstmEncoder::encode_batch`] pass.
    pub fn encode_batch(&self, seqs: &[Tensor]) -> Vec<Tensor> {
        let hf = self.fwd.encode_batch(seqs);
        let rev: Vec<Tensor> = seqs
            .iter()
            .map(|seq| {
                let mut r = Tensor::zeros(seq.rows, seq.cols);
                for t in 0..seq.rows {
                    r.row_slice_mut(t)
                        .copy_from_slice(seq.row_slice(seq.rows - 1 - t));
                }
                r
            })
            .collect();
        let hb = self.bwd.encode_batch(&rev);
        hf.into_iter()
            .zip(hb)
            .map(|(f, b)| Tensor::hstack(&[f, b]))
            .collect()
    }

    /// Apply optimiser updates; consumes `2 × fwd.slot_count()` slots.
    pub fn apply_grads(
        &mut self,
        opt: &mut dyn crate::optim::Optimizer,
        slot_base: usize,
        tape: &Tape,
        vars: &BiLstmVars,
    ) {
        self.fwd.apply_grads(opt, slot_base, tape, &vars.fwd);
        self.bwd
            .apply_grads(opt, slot_base + self.fwd.slot_count(), tape, &vars.bwd);
    }

    /// Number of optimiser slots this encoder consumes.
    pub fn slot_count(&self) -> usize {
        self.fwd.slot_count() + self.bwd.slot_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Optimizer};
    use rand::SeedableRng;

    #[test]
    fn tape_and_inference_agree() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = LstmEncoder::new(3, 5, &mut rng);
        let seq = Tensor::randn(4, 3, 1.0, &mut rng);

        let fast = enc.encode(&seq);

        let tape = Tape::new();
        let vars = enc.bind(&tape);
        let sv = tape.var_from(&seq);
        let h = enc.forward_tape(&tape, sv, &vars);
        assert_eq!(
            fast.data,
            tape.value(h).data,
            "tape and encode share the gate math"
        );
    }

    #[test]
    fn bilstm_tape_and_inference_agree() {
        let mut rng = StdRng::seed_from_u64(6);
        let enc = BiLstmEncoder::new(3, 4, &mut rng);
        let seq = Tensor::randn(5, 3, 1.0, &mut rng);

        let fast = enc.encode(&seq);
        assert_eq!(fast.cols, 8);

        let tape = Tape::new();
        let vars = enc.bind(&tape);
        let sv = tape.var_from(&seq);
        let h = enc.forward_tape(&tape, sv, &vars);
        assert_eq!(
            fast.data,
            tape.value(h).data,
            "tape and encode share the gate math"
        );
    }

    #[test]
    fn empty_sequence_encodes_to_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = LstmEncoder::new(3, 5, &mut rng);
        let h = enc.encode(&Tensor::zeros(0, 3));
        assert_eq!(h.data, vec![0.0; 5]);
    }

    #[test]
    fn batch_encode_matches_solo_encode_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        let enc = LstmEncoder::new(3, 5, &mut rng);
        // Mixed lengths (including a duplicate length and an empty
        // sequence) exercise the bucketing. Lengths are multiples of
        // the microkernel's 4-row tile (or singleton buckets), so each
        // lane's row tiling matches its solo encode and the comparison
        // is exact; `lstm_fused_equiv.rs` covers arbitrary shapes to
        // within tolerance.
        let seqs = vec![
            Tensor::randn(4, 3, 1.0, &mut rng),
            Tensor::randn(2, 3, 1.0, &mut rng),
            Tensor::randn(4, 3, 1.0, &mut rng),
            Tensor::zeros(0, 3),
            Tensor::randn(7, 3, 1.0, &mut rng),
        ];
        let batched = enc.encode_batch(&seqs);
        for (s, hb) in seqs.iter().zip(&batched) {
            assert_eq!(enc.encode(s).data, hb.data, "lane diverged from solo");
        }
    }

    #[test]
    fn aligned_batch_encode_is_batch_invariant_bitwise() {
        // The property dc-serve's micro-batcher is built on: a lane's
        // aligned encoding must not depend on what else is in the
        // batch — for *arbitrary* sequence lengths, not just tile
        // multiples. Compare every lane of a mixed batch against the
        // same sequence encoded in a batch of 1 and in a shuffled
        // larger batch.
        let mut rng = StdRng::seed_from_u64(77);
        let enc = LstmEncoder::new(6, 10, &mut rng);
        let seqs: Vec<Tensor> = [3usize, 5, 1, 3, 7, 0, 2, 5, 5]
            .iter()
            .map(|&t| Tensor::randn(t, 6, 1.0, &mut rng))
            .collect();
        let batched = enc.encode_batch_aligned(&seqs);
        for (i, s) in seqs.iter().enumerate() {
            let solo = enc.encode_batch_aligned(std::slice::from_ref(s));
            assert_eq!(
                solo[0].data, batched[i].data,
                "lane {i} (len {}) depends on batch composition",
                s.rows
            );
        }
        // A different mix containing some of the same sequences must
        // reproduce their bits too.
        let subset = [seqs[1].clone(), seqs[4].clone(), seqs[7].clone()];
        let sub = enc.encode_batch_aligned(&subset);
        assert_eq!(sub[0].data, batched[1].data);
        assert_eq!(sub[1].data, batched[4].data);
        assert_eq!(sub[2].data, batched[7].data);
        // Empty sequences still encode to the zero state.
        assert_eq!(batched[5].data, vec![0.0; 10]);
    }

    #[test]
    fn order_sensitivity() {
        // An RNN "processes them one step at a time ... the order of
        // feeding an input to RNN matters" (§2.1).
        let mut rng = StdRng::seed_from_u64(10);
        let enc = LstmEncoder::new(2, 6, &mut rng);
        let a = Tensor::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Tensor::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let ha = enc.encode(&a);
        let hb = enc.encode(&b);
        assert!(ha.distance(&hb) > 1e-4, "order should change the encoding");
    }

    #[test]
    fn learns_first_token_classification() {
        // Task: label = does the sequence start with pattern A?
        // Solvable only if gradients flow through all time steps.
        let mut rng = StdRng::seed_from_u64(12);
        let mut enc = LstmEncoder::new(2, 8, &mut rng);
        let mut head =
            crate::linear::Linear::new(8, 1, crate::linear::Activation::Identity, &mut rng);
        let mut opt = Adam::new(0.02);

        let tok_a = Tensor::row(vec![1.0, 0.0]);
        let tok_b = Tensor::row(vec![0.0, 1.0]);
        let make_seq = |first_a: bool| {
            let first = if first_a {
                tok_a.clone()
            } else {
                tok_b.clone()
            };
            Tensor::vstack(&[first, tok_b.clone(), tok_b.clone(), tok_b.clone()])
        };

        for _ in 0..150 {
            for &label in &[true, false] {
                let seq = make_seq(label);
                let tape = Tape::new();
                let vars = enc.bind(&tape);
                let hvars = head.bind(&tape);
                let sv = tape.var_from(&seq);
                let h = enc.forward_tape(&tape, sv, &vars);
                let logit = head.forward_tape(&tape, h, hvars);
                let y = Tensor::scalar(if label { 1.0 } else { 0.0 });
                let loss = tape.bce_with_logits(logit, y, Tensor::ones(1, 1));
                tape.backward(loss);
                opt.begin_step();
                enc.apply_grads(&mut opt, 0, &tape, &vars);
                let slot = enc.slot_count();
                opt.update(slot, &mut head.w, &tape.grad(hvars.w));
                opt.update(slot + 1, &mut head.b, &tape.grad(hvars.b));
            }
        }

        let score = |label: bool| {
            let h = enc.encode(&make_seq(label));
            head.forward(&h).data[0]
        };
        assert!(score(true) > 0.0, "positive logit {}", score(true));
        assert!(score(false) < 0.0, "negative logit {}", score(false));
    }

    #[test]
    fn capacity_formula() {
        let mut rng = StdRng::seed_from_u64(1);
        let enc = LstmEncoder::new(10, 20, &mut rng);
        assert_eq!(enc.capacity(), 4 * (10 * 20 + 20 * 20 + 20));
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_the_per_gate_layout() {
        let mut rng = StdRng::seed_from_u64(3);
        let enc = LstmEncoder::new(3, 5, &mut rng);
        let back: LstmEncoder =
            serde_json::from_str(&serde_json::to_string(&enc).unwrap()).unwrap();
        assert_eq!((&back.wx, &back.wh, &back.b), (&enc.wx, &enc.wh, &enc.b));
        assert_eq!((back.input_dim, back.hidden_dim), (3, 5));

        // The pre-fusion layout (per-gate `Vec<Tensor>` weights) must
        // come back as a decode error, not a panic.
        let per_gate = |rows: usize| vec![Tensor::zeros(rows, 5); 4].to_value();
        let legacy = serde::Value::Object(vec![
            ("wx".to_string(), per_gate(3)),
            ("wh".to_string(), per_gate(5)),
            ("b".to_string(), per_gate(1)),
            ("input_dim".to_string(), 3usize.to_value()),
            ("hidden_dim".to_string(), 5usize.to_value()),
        ]);
        let json = serde_json::to_string(&legacy).unwrap();
        assert!(serde_json::from_str::<LstmEncoder>(&json).is_err());
    }
}
