//! Service configuration with chainable `with_*` builders (DESIGN.md
//! §10 convention).

/// Tunables for [`crate::server::start`]. Construct with
/// [`ServeConfig::default`] and override per field:
///
/// ```
/// use dc_serve::ServeConfig;
/// let cfg = ServeConfig::default()
///     .with_addr("127.0.0.1:0")
///     .with_workers(2)
///     .with_batch_max(16);
/// assert_eq!(cfg.workers, 2);
/// ```
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// HTTP handler threads. These only parse/route — all GEMM work
    /// inside a handler still runs on the shared dc-tensor worker pool,
    /// so raising this does not oversubscribe the kernels.
    pub workers: usize,
    /// Most requests per micro-batch. A queue that reaches it launches
    /// even while an earlier batch of the same batcher is still running.
    pub batch_max: usize,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Most tenants the registry will hold.
    pub max_tenants: usize,
    /// Incremental-index overflow length at which the background
    /// maintenance thread compacts a tenant's index.
    pub compact_threshold: usize,
    /// Poll period of the background maintenance thread, milliseconds.
    pub compact_interval_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7700".to_string(),
            workers: 4,
            batch_max: 32,
            max_body_bytes: 1 << 20,
            max_tenants: 16,
            compact_threshold: 256,
            compact_interval_ms: 50,
        }
    }
}

impl ServeConfig {
    /// Set the bind address (chainable builder).
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Set the HTTP handler thread count (chainable builder).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Set the micro-batch size cap (chainable builder).
    pub fn with_batch_max(mut self, n: usize) -> Self {
        self.batch_max = n.max(1);
        self
    }

    /// Set the largest accepted request body in bytes (chainable
    /// builder).
    pub fn with_max_body_bytes(mut self, n: usize) -> Self {
        self.max_body_bytes = n;
        self
    }

    /// Set the tenant-count limit (chainable builder).
    pub fn with_max_tenants(mut self, n: usize) -> Self {
        self.max_tenants = n.max(1);
        self
    }

    /// Set the overflow length that triggers background compaction
    /// (chainable builder).
    pub fn with_compact_threshold(mut self, n: usize) -> Self {
        self.compact_threshold = n.max(1);
        self
    }

    /// Set the maintenance-thread poll period in milliseconds
    /// (chainable builder).
    pub fn with_compact_interval_ms(mut self, ms: u64) -> Self {
        self.compact_interval_ms = ms.max(1);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_chain_and_clamp() {
        let cfg = ServeConfig::default()
            .with_addr("0.0.0.0:0")
            .with_workers(0)
            .with_batch_max(0)
            .with_max_body_bytes(512)
            .with_max_tenants(0)
            .with_compact_threshold(0)
            .with_compact_interval_ms(0);
        assert_eq!(cfg.addr, "0.0.0.0:0");
        assert_eq!(cfg.workers, 1, "worker count clamps to 1");
        assert_eq!(cfg.batch_max, 1, "batch cap clamps to 1");
        assert_eq!(cfg.max_tenants, 1);
        assert_eq!(cfg.compact_threshold, 1);
        assert_eq!(cfg.compact_interval_ms, 1);
        assert_eq!(cfg.max_body_bytes, 512);
    }
}
