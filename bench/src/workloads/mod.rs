//! The six workloads. Each runs in its own process.

pub mod curate;
pub mod serve;
pub mod store;
pub mod train;
