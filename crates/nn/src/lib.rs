//! # dc-nn
//!
//! Neural-network building blocks for AutoDC on top of [`dc_tensor`].
//!
//! Implements every architecture in Figure 2 of *"Data Curation with Deep
//! Learning"* (EDBT 2020) that the paper's data-curation tasks use:
//!
//! * [`mlp::Mlp`] — fully-connected feed-forward networks (Fig 2 a–b),
//!   the classifier head of DeepER and the discovery rankers.
//! * [`lstm::LstmEncoder`] / [`lstm::BiLstmEncoder`] — recurrent encoders
//!   (Fig 2 d) used for LSTM tuple composition (§3.1, §5.2).
//! * [`ae`] — the autoencoder family: plain, k-sparse, denoising and
//!   variational (Fig 2 e–h), backing MIDA-style imputation (§5.3) and
//!   synthetic-data generation (§6.2.3).
//! * [`gan::Gan`] — generator/discriminator adversarial training
//!   (Fig 2 i).
//! * [`train`] — the [`train::Trainer`] step trait and the one
//!   [`train::run_dataset_epochs`] minibatch loop every model trains
//!   through (with per-epoch dc-obs spans and loss series). Each model
//!   has exactly one training step, and it takes the tape.
//! * [`optim`] — SGD, momentum, AdaGrad, RMSProp and Adam.
//! * [`loss`] — cost-sensitive class weighting for the skewed label
//!   distributions the paper warns about (§6.1).
//! * [`metrics`] — precision/recall/F1, accuracy, ROC-AUC.
//!
//! Models expose both a tape-building `forward_tape` (training) and a
//! tape-free `forward` (inference) so prediction stays allocation-light.

pub mod ae;
pub mod gan;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod mlp;
pub mod optim;
pub mod train;

pub use ae::{Autoencoder, DenoisingAutoencoder, KSparseAutoencoder, Vae};
pub use gan::Gan;
pub use linear::{Activation, Linear};
pub use loss::{class_weights, LossKind};
pub use lstm::{BiLstmEncoder, LstmEncoder};
pub use metrics::{accuracy, confusion, f1_score, precision_recall_f1, roc_auc, BinaryConfusion};
pub use mlp::Mlp;
pub use optim::{AdaGrad, Adam, Momentum, Optimizer, RmsProp, Sgd};
pub use train::{
    run_dataset_epochs, AeTrainer, Batch, DaeTrainer, EpochStats, KSparseTrainer, MlpTrainer,
    StepStats, TrainCtx, TrainOpts, Trainer, VaeTrainer,
};
