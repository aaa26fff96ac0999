//! Neural guidance for the enumerator — the DeepCoder idea §4 cites:
//! "a neural network is trained on input-output examples and generates
//! a program".
//!
//! The network never emits programs directly; it predicts which DSL
//! operator classes a task needs from cheap IO features, and the
//! enumerator's atom pool is reordered by those probabilities. Search
//! stays complete (nothing is removed), but solutions using the
//! predicted operators surface after far fewer candidates — the E10
//! measurement.

use crate::dsl::{Atom, OP_CLASSES};
use crate::enumerate::{atom_pool, synthesize_with_pool, SynthConfig, SynthResult};
use dc_nn::linear::Activation;
use dc_nn::mlp::Mlp;
use dc_nn::optim::{Adam, Optimizer};
use dc_tensor::{Tape, Tensor};
use rand::rngs::StdRng;
use rand::Rng;

/// Dimensionality of the IO feature vector.
pub const FEATURES: usize = 12;

/// Cheap featurisation of an input-output example set.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpFeatures;

impl OpFeatures {
    /// Aggregate features over all examples (means of per-example
    /// indicators).
    pub fn extract(examples: &[(String, String)]) -> Vec<f32> {
        let n = examples.len().max(1) as f32;
        let mut f = vec![0.0f32; FEATURES];
        for (input, output) in examples {
            let in_tokens: Vec<&str> = input.split_whitespace().collect();
            let out_tokens: Vec<&str> = output.split_whitespace().collect();
            // 0: output is substring of input
            f[0] += input.contains(output.as_str()) as u8 as f32;
            // 1: output shorter than input
            f[1] += (output.len() < input.len()) as u8 as f32;
            // 2: output contains a dash
            f[2] += output.contains('-') as u8 as f32;
            // 3: output all digits or separators
            f[3] += output
                .chars()
                .all(|c| c.is_ascii_digit() || "-. ()".contains(c)) as u8
                as f32;
            // 4: input has digits
            f[4] += input.chars().any(|c| c.is_ascii_digit()) as u8 as f32;
            // 5: output tokens all appear as input tokens (any case)
            let subset = out_tokens
                .iter()
                .all(|t| in_tokens.iter().any(|s| s.eq_ignore_ascii_case(t)));
            f[5] += subset as u8 as f32;
            // 6: output equals uppercased input
            f[6] += (output == &input.to_uppercase()) as u8 as f32;
            // 7: output equals lowercased input
            f[7] += (output == &input.to_lowercase()) as u8 as f32;
            // 8: some output token is a single char matching an input
            //    token's initial (abbreviation signal)
            let abbrev = out_tokens.iter().any(|t| {
                t.chars().count() == 1
                    && in_tokens.iter().any(|s| {
                        s.chars().next().map(|c| {
                            c.to_lowercase()
                                .eq(t.chars().next().expect("len 1").to_lowercase())
                        }) == Some(true)
                    })
            });
            f[8] += abbrev as u8 as f32;
            // 9: token-count ratio
            f[9] += out_tokens.len() as f32 / in_tokens.len().max(1) as f32;
            // 10: output has uppercase while input is all lowercase
            f[10] += (output.chars().any(|c| c.is_uppercase())
                && input.chars().all(|c| !c.is_uppercase())) as u8 as f32;
            // 11: char-length ratio
            f[11] += output.len() as f32 / input.len().max(1) as f32;
        }
        f.iter_mut().for_each(|v| *v /= n);
        f
    }
}

/// The trained operator-class predictor.
pub struct GuidanceModel {
    net: Mlp,
}

impl GuidanceModel {
    /// Train on `samples` randomly generated (program, IO) pairs —
    /// self-supervised: the DSL itself labels the data.
    pub fn train(samples: usize, epochs: usize, rng: &mut StdRng) -> Self {
        let mut xs = Vec::with_capacity(samples);
        let mut ys = Vec::with_capacity(samples);
        let mut made = 0usize;
        let mut guard = 0usize;
        while made < samples && guard < samples * 20 {
            guard += 1;
            let program = random_program(rng);
            let inputs = random_inputs(rng);
            let examples: Option<Vec<(String, String)>> = inputs
                .iter()
                .map(|i| program.run(i).map(|o| (i.clone(), o)))
                .collect();
            let Some(examples) = examples else { continue };
            if examples.iter().any(|(_, o)| o.is_empty()) {
                continue;
            }
            xs.push(OpFeatures::extract(&examples));
            let mut label = vec![0.0f32; OP_CLASSES];
            for a in &program.atoms {
                label[a.op_class()] = 1.0;
            }
            ys.push(label);
            made += 1;
        }
        let x = Tensor::from_vec(made, FEATURES, xs.concat());
        let y = Tensor::from_vec(made, OP_CLASSES, ys.concat());
        let mut net = Mlp::new(
            &[FEATURES, 24, OP_CLASSES],
            Activation::Relu,
            Activation::Identity,
            rng,
        );
        // Multi-label training: per-op sigmoid + MSE on probabilities is
        // a simple, stable choice at this scale.
        let mut opt = Adam::new(0.01);
        // One pooled tape for the whole run; each epoch's full-batch
        // step records on recycled buffers.
        let tape = Tape::new();
        for _ in 0..epochs {
            let vx = tape.var_from(&x);
            let vars = net.bind(&tape);
            let logits = net.forward_tape(&tape, vx, &vars, None);
            let probs = tape.sigmoid(logits);
            let loss = tape.mse_loss(probs, y.clone());
            tape.backward(loss);
            opt.begin_step();
            net.apply_grads(&mut opt, 0, &tape, &vars);
            tape.recycle();
        }
        GuidanceModel { net }
    }

    /// Predicted probability per operator class for an example set.
    pub fn predict(&self, examples: &[(String, String)]) -> Vec<f32> {
        let f = OpFeatures::extract(examples);
        let x = Tensor::row(f);
        self.net
            .forward(&x)
            .data
            .iter()
            .map(|&z| 1.0 / (1.0 + (-z).exp()))
            .collect()
    }

    /// Synthesize with DeepCoder-style staged search: first restrict
    /// the pool to operator classes the network believes in (constants
    /// are always kept — every concatenation needs separators), then
    /// fall back to the full pool if the restricted search fails.
    /// Completeness is preserved; the restricted stage is where the
    /// candidate-count savings come from.
    pub fn synthesize_guided(
        &self,
        examples: &[(String, String)],
        config: &SynthConfig,
    ) -> SynthResult {
        let probs = self.predict(examples);
        let max_p = probs.iter().cloned().fold(0.0f32, f32::max).max(1e-6);
        let pool = atom_pool(examples, config);
        let likely: Vec<Atom> = pool
            .iter()
            .filter(|a| matches!(a, Atom::Const(_)) || probs[a.op_class()] >= 0.5 * max_p)
            .cloned()
            .collect();
        let first = synthesize_with_pool(examples, &likely, config);
        if first.program.is_some() || likely.len() == pool.len() {
            return first;
        }
        let mut full = synthesize_with_pool(examples, &pool, config);
        full.explored += first.explored;
        full
    }
}

fn random_program(rng: &mut StdRng) -> crate::dsl::Program {
    use crate::dsl::Program;
    // Templates covering the DSL's op classes.
    let t = rng.gen_range(0..6);
    match t {
        0 => Program::new(vec![
            Atom::TokenInitial(0),
            Atom::Const(" ".into()),
            Atom::Token(-1),
        ]),
        1 => Program::new(vec![
            Atom::DigitGroup { start: 0, len: 3 },
            Atom::Const("-".into()),
            Atom::DigitGroup { start: 3, len: 3 },
            Atom::Const("-".into()),
            Atom::DigitGroup { start: 6, len: 4 },
        ]),
        2 => Program::new(vec![Atom::Upper(Box::new(Atom::Input))]),
        3 => Program::new(vec![Atom::Lower(Box::new(Atom::Input))]),
        4 => Program::new(vec![
            Atom::Title(Box::new(Atom::Token(0))),
            Atom::Const(" ".into()),
            Atom::Title(Box::new(Atom::Token(-1))),
        ]),
        _ => Program::new(vec![Atom::Token(-1)]),
    }
}

fn random_inputs(rng: &mut StdRng) -> Vec<String> {
    let words = [
        "john", "jane", "alan", "grace", "smith", "doe", "turing", "hopper", "lee", "chen",
    ];
    let kind = rng.gen_range(0..2);
    (0..2)
        .map(|_| match kind {
            0 => format!(
                "{} {}",
                words[rng.gen_range(0..words.len())],
                words[rng.gen_range(0..words.len())]
            ),
            _ => format!(
                "({:03}) {:03} {:04}",
                rng.gen_range(200..999),
                rng.gen_range(100..999),
                rng.gen_range(0..10_000)
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ex(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn features_detect_signals() {
        let phone = ex(&[("(212) 555 0199", "212-555-0199")]);
        let f = OpFeatures::extract(&phone);
        assert_eq!(f[2], 1.0, "dash feature");
        assert_eq!(f[3], 1.0, "digits feature");
        let upper = ex(&[("hello", "HELLO")]);
        let f2 = OpFeatures::extract(&upper);
        assert_eq!(f2[6], 1.0, "uppercase feature");
    }

    #[test]
    fn guidance_predicts_digit_ops_for_phone_tasks() {
        let mut rng = StdRng::seed_from_u64(900);
        let model = GuidanceModel::train(400, 150, &mut rng);
        let phone = ex(&[
            ("(212) 555 0199", "212-555-0199"),
            ("(617) 555 1234", "617-555-1234"),
        ]);
        let probs = model.predict(&phone);
        // Digit ops (class 7) should beat case ops (classes 4–6).
        assert!(
            probs[7] > probs[4] && probs[7] > probs[5] && probs[7] > probs[6],
            "probs {probs:?}"
        );
    }

    #[test]
    fn guided_search_explores_fewer_candidates_on_digit_tasks() {
        // The default pool fronts ~30 token/case atoms before the digit
        // atoms, so phone-style tasks are where guidance pays off most —
        // the shape E10 reports.
        let mut rng = StdRng::seed_from_u64(901);
        let model = GuidanceModel::train(400, 150, &mut rng);
        let config = SynthConfig::default();
        let phone = ex(&[
            ("(212) 555 0199", "212-555-0199"),
            ("(617) 555 1234", "617-555-1234"),
        ]);
        let plain = crate::enumerate::synthesize(&phone, &config);
        let guided = model.synthesize_guided(&phone, &config);
        assert!(plain.program.is_some(), "plain failed");
        assert!(guided.program.is_some(), "guided failed");
        assert!(
            guided.explored < plain.explored,
            "guided {} should beat plain {}",
            guided.explored,
            plain.explored
        );
    }

    #[test]
    fn guided_search_stays_complete() {
        // Reordering must never lose solvability.
        let mut rng = StdRng::seed_from_u64(902);
        let model = GuidanceModel::train(300, 100, &mut rng);
        let config = SynthConfig::default();
        for task in [
            ex(&[("john smith", "J. Smith"), ("jane doe", "J. Doe")]),
            ex(&[("hello world", "HELLO WORLD")]),
            ex(&[("a b", "b"), ("x y z", "z")]),
        ] {
            let guided = model.synthesize_guided(&task, &config);
            let p = guided.program.expect("guided must still find programs");
            assert!(p.consistent(&task));
        }
    }
}
