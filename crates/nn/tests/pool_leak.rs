//! Pool leak guard: the tape the unified training loop recycles must
//! reach steady state after the first epoch — the high-water mark stops
//! growing and later epochs take every buffer from the freelists (zero
//! new misses).

use dc_data::DenseView;
use dc_nn::linear::Activation;
use dc_nn::loss::LossKind;
use dc_nn::mlp::Mlp;
use dc_nn::optim::Adam;
use dc_nn::train::{run_dataset_epochs, Batch, StepStats, TrainCtx, TrainOpts, Trainer};
use dc_tensor::{set_pool_enabled, PoolStats, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An MLP trainer that samples the loop's tape pool at the first step
/// of every epoch after the first, i.e. after the previous epoch's
/// final recycle.
struct SamplingTrainer {
    model: Mlp,
    opt: Adam,
    samples: Vec<PoolStats>,
}

impl Trainer for SamplingTrainer {
    fn fit(&mut self, batch: &Batch, ctx: &mut TrainCtx<'_>) -> StepStats {
        if ctx.epoch > 0 && self.samples.len() < ctx.epoch {
            self.samples.push(ctx.tape.pool_stats());
        }
        let loss = self.model.train_batch(
            ctx.tape,
            &batch.x,
            batch.targets(),
            LossKind::Mse,
            &mut self.opt,
            ctx.rng,
        );
        StepStats { loss, aux: 0.0 }
    }
}

#[test]
fn pool_high_water_stabilises_after_first_epoch() {
    set_pool_enabled(true);
    let mut rng = StdRng::seed_from_u64(42);
    let x = Tensor::randn(32, 6, 1.0, &mut rng);
    let y = Tensor::from_vec(32, 1, (0..32).map(|i| (i % 2) as f32).collect());
    let mut trainer = SamplingTrainer {
        model: Mlp::new(
            &[6, 12, 12, 1],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        ),
        opt: Adam::new(0.01),
        samples: Vec::new(),
    };

    let opts = TrainOpts::default().with_epochs(5).with_batch_size(8);
    let mut ds = DenseView::new(&x, Some(&y));
    run_dataset_epochs("test.pool_leak", &mut trainer, &mut ds, &opts, &mut rng);
    assert_eq!(trainer.samples.len(), 4, "one sample per epoch 1..=4");

    let warm = trainer.samples[0];
    assert!(warm.misses > 0, "first epoch must allocate something");
    for (e, now) in trainer.samples.iter().enumerate().skip(1) {
        assert_eq!(
            now.high_water_bytes, warm.high_water_bytes,
            "after epoch {e}: pool high-water grew after warmup — buffers are leaking"
        );
        assert_eq!(
            now.misses, warm.misses,
            "after epoch {e}: pool missed after warmup — buffers are not being recycled"
        );
        assert!(now.hits > warm.hits, "after epoch {e}: pool saw no hits");
    }

    // Everything handed out during an epoch was returned by its final
    // recycle: nothing is outstanding at any sample.
    for (e, s) in trainer.samples.iter().enumerate() {
        assert_eq!(
            s.outstanding_bytes, 0,
            "after epoch {e}: buffers left outstanding"
        );
    }
}
