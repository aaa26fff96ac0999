//! # dc-embed
//!
//! Distributed representations for data curation (§2.2 and §3.1 of
//! *"Data Curation with Deep Learning"*, EDBT 2020).
//!
//! The paper argues that "the 'matching' process is a central concept in
//! most, if not all, DC problems" and that distributed representations
//! are the lever. This crate implements the full representation stack:
//!
//! * [`onehot`] — local (one-hot) representations, the Figure 3(a)
//!   baseline whose "representation power ... is only linear to the
//!   total dimensions".
//! * [`vocab`] / [`sgns`] — word2vec-style skip-gram with negative
//!   sampling, trained from scratch (no pre-trained vectors exist in
//!   this environment; DESIGN.md §5 documents the substitution).
//! * [`celldoc`] — the "naive adaptation [that] treats each tuple as a
//!   document" (§3.1), including its window-size limitation.
//! * [`cellgraph`] — the paper's "more natural (sophisticated) model":
//!   random-walk embeddings over the Figure-4 heterogeneous graph with
//!   an FD-edge bias.
//! * [`compose`] — tuple2vec / column2vec / table2vec / database2vec
//!   compositions.
//! * [`coherent`] — coherent-group similarity for multi-word phrases
//!   and out-of-vocabulary terms (§5.1).

pub mod celldoc;
pub mod cellgraph;
pub mod coherent;
pub mod compose;
pub mod onehot;
pub mod sgns;
pub mod vocab;

pub use celldoc::CellDocEmbedder;
pub use cellgraph::{GraphEmbedConfig, GraphEmbedder};
pub use coherent::coherent_group_similarity;
pub use compose::{column2vec, database2vec, table2vec, tuple2vec, SifWeights};
pub use onehot::OneHot;
pub use sgns::{Embeddings, SgnsConfig};
pub use vocab::Vocabulary;
