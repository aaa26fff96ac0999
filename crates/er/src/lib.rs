//! # dc-er
//!
//! Deep entity resolution — the paper's DeepER system (§5.2, Figure 5).
//!
//! "DeepER pushes the boundaries of existing ER solutions in terms of
//! accuracy, efficiency, and ease-of-use":
//!
//! * **accuracy** — tuples become distributed representations via
//!   composition ([`deeper::Composition::Average`] over word embeddings,
//!   or a trained LSTM, §3.1's "more sophisticated approach"), compared
//!   through a similarity vector and classified by a dense network
//!   ([`deeper::DeepEr`]);
//! * **efficiency** — [`blocking::LshBlocker`] hashes tuple embeddings
//!   with random hyperplanes so that only candidate pairs sharing a
//!   band bucket are classified ("it takes all attributes of a tuple
//!   into consideration and produces much smaller blocks");
//! * **ease-of-use** — no hand-crafted features; the classical
//!   [`baselines`] (feature-engineered logistic regression, rule
//!   matcher) exist precisely to quantify that difference.
//!
//! The §6.1 skew warnings are addressed with inverse-frequency class
//! weights and bounded negative sampling (see `dc-datagen`'s pair
//! sampler and [`dc_nn::loss`]).

pub mod baselines;
pub mod blocking;
pub mod deeper;
pub mod eval;
pub mod features;

pub use baselines::{ExactMatcher, FeatureLogReg, PreparedMatcher, RuleMatcher};
pub use blocking::{blocking_quality, BlockingQuality, KeyBlocker, LshBlocker, TokenBlocker};
pub use deeper::{Composition, DeepEr, DeepErConfig};
pub use eval::{best_threshold, evaluate_at, MatchEval};
pub use features::{classical_pair_features, embedding_pair_features, tuple_vectors};
