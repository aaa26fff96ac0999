//! Step-scoped buffer pool backing tape node values, gradient
//! buffers, and kernel pack scratch.
//!
//! Training steps rebuild the define-by-run tape every batch; without
//! recycling, every node value and every gradient is a fresh heap
//! allocation and the allocator — not the GEMM kernels — dominates the
//! small/medium shapes DeepER and the autoencoders actually run. The
//! [`BufferPool`] keeps freelists of `Vec<f32>` keyed on *exact*
//! element count (training shapes repeat exactly step over step, so
//! size classes never need rounding); [`crate::tape::Tape::recycle`]
//! returns every pooled buffer at step end and steady-state steps hit
//! the freelists for every allocation.
//!
//! Recycled buffers are handed back with stale contents. That is safe
//! only because every consumer either fully overwrites the buffer
//! (elementwise maps/zips, row copies) or asks for [`BufferPool::take_zeroed`]
//! (matmul panels accumulate with `+=`; scatter-style backward ops).
//!
//! Gate: pooling is always on in production. [`set_pool_enabled`]
//! exists so the equivalence suites (`pool_equiv`, `lstm_fused_equiv`)
//! and `bench_train` can build their reference in-process — a fresh
//! unpooled tape (every take a fresh allocation, every put a drop). A
//! [`BufferPool`] samples the gate at construction and at each
//! [`crate::tape::Tape::recycle`], never mid-step.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

static POOL_ON: AtomicBool = AtomicBool::new(true);
/// Memory-safety instrumentation gate: 0 = uninitialized, 1 = off,
/// 2 = on (same scheme as dc-obs's gate). Unlike the pool gate
/// this defaults *off*: it is keyed on `DC_CHECK` (the same opt-in
/// switch dc-check's `debug_validate` uses), so production steps never
/// pay for handle tracking or poison fills.
static CHECK_STATE: AtomicU8 = AtomicU8::new(0);

/// True unless [`set_pool_enabled`]`(false)`. Sampled by tapes at
/// construction/recycle time, and by the kernel pack scratch cache on
/// every matmul panel.
#[inline(always)]
pub fn pool_enabled() -> bool {
    POOL_ON.load(Ordering::Relaxed)
}

/// Test/bench toggle for the pool gate (see the module doc). Existing
/// tapes keep the setting they sampled until their next `recycle()`.
pub fn set_pool_enabled(on: bool) {
    POOL_ON.store(on, Ordering::Relaxed);
}

/// True when `DC_CHECK` is set to anything but `0` (or after
/// [`set_check_enabled`]`(true)`): pools poison-fill recycled buffers
/// and track generation-tagged debug handles. Sampled by each
/// [`BufferPool`] at construction — flipping it mid-life of a pool has
/// no effect on that pool.
#[inline(always)]
pub fn check_enabled() -> bool {
    match CHECK_STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => check_init(),
    }
}

#[cold]
#[inline(never)]
fn check_init() -> bool {
    let on = std::env::var_os("DC_CHECK").is_some_and(|v| v != "0");
    CHECK_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    on
}

/// Force the memory-safety instrumentation gate, overriding `DC_CHECK`.
/// Only pools constructed after the call see the new setting.
pub fn set_check_enabled(on: bool) {
    CHECK_STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The NaN bit pattern [`BufferPool::put`] fills recycled buffers with
/// under `DC_CHECK=1`. Sign bit + all-ones exponent + non-zero mantissa,
/// so it is a quiet NaN that survives loads/stores but never arises from
/// ordinary arithmetic — a read of a recycled buffer that was not fully
/// overwritten surfaces as this exact pattern, which
/// `dc_check::memsafe::scan_poison` distinguishes from organic NaNs.
pub const POISON_PATTERN: u32 = 0xFFC0_DEAD;

/// `f32` view of [`POISON_PATTERN`].
#[inline(always)]
pub fn poison_value() -> f32 {
    f32::from_bits(POISON_PATTERN)
}

// ---------------------------------------------------------------------------
// Pool
// ---------------------------------------------------------------------------

static POOL_HIT: dc_obs::Counter = dc_obs::Counter::new("tape.pool.hit");
static POOL_MISS: dc_obs::Counter = dc_obs::Counter::new("tape.pool.miss");
static POOL_BYTES: dc_obs::Gauge = dc_obs::Gauge::new("tape.pool.bytes");

/// Point-in-time pool accounting, exposed via
/// [`crate::tape::Tape::pool_stats`] and embedded in `BENCH_train.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from a freelist.
    pub hits: u64,
    /// Takes that fell back to a fresh allocation (pool off, or no
    /// buffer of that size class available).
    pub misses: u64,
    /// Bytes currently handed out to live tensors.
    pub outstanding_bytes: usize,
    /// Bytes currently parked on the freelists.
    pub held_bytes: usize,
    /// Peak of `outstanding + held`: total f32 storage this pool has
    /// ever been responsible for at once. A leak (buffers allocated
    /// but never recycled) shows up as this growing step over step.
    pub high_water_bytes: usize,
}

/// The class of pool misuse a [`PoolViolation`] reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolViolationKind {
    /// A buffer was recycled that the pool does not currently count as
    /// outstanding — either it was already recycled (double recycle) or
    /// it never came from this pool (foreign buffer).
    DoubleRecycle,
}

/// One recorded misuse of the pool, detected by the `DC_CHECK=1`
/// generation-tagged handle tracking. `dc_check::memsafe` converts
/// these into structured `GraphError`-style diagnostics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolViolation {
    /// What went wrong.
    pub kind: PoolViolationKind,
    /// Element count of the offending buffer.
    pub len: usize,
    /// Pool generation (see [`BufferPool::generation`]) at detection
    /// time — which training step the misuse happened in.
    pub generation: u64,
}

/// `DC_CHECK=1` side table: generation-tagged debug handles for every
/// buffer the pool has handed out, plus the violations detected so far.
/// Handles are keyed on the buffer's data pointer — stable while the
/// buffer is outstanding because pool buffers are never resized.
struct PoolDebug {
    /// Current generation, bumped by [`BufferPool::bump_generation`]
    /// (wired to `Tape::recycle`).
    generation: u64,
    /// `(data pointer, element count, generation at take)` of every
    /// outstanding buffer.
    outstanding: Vec<(usize, usize, u64)>,
    violations: Vec<PoolViolation>,
}

/// One freelist of recycled buffers, all of exactly `len` elements.
struct SizeClass {
    len: usize,
    free: Vec<Vec<f32>>,
}

/// Size-class freelists of `Vec<f32>`, one pool per [`crate::tape::Tape`].
/// Single-threaded by design (tapes are `!Sync`); all interior
/// mutability is `Cell`/`RefCell`.
///
/// Classes live in a linear-scanned `Vec` rather than a `HashMap`: a
/// training step sees only a handful of distinct shapes, and at
/// hundreds of take/put calls per step the SipHash of a `HashMap`
/// lookup costs more than the scan.
pub struct BufferPool {
    enabled: Cell<bool>,
    classes: RefCell<Vec<SizeClass>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// Counts already forwarded to the dc-obs counters; the take/put
    /// hot path only touches `Cell`s, and [`BufferPool::publish_counters`]
    /// forwards the deltas at recycle/drop boundaries.
    published_hits: Cell<u64>,
    published_misses: Cell<u64>,
    outstanding: Cell<usize>,
    held: Cell<usize>,
    high_water: Cell<usize>,
    /// `Some` iff [`check_enabled`] was true at construction.
    debug: Option<RefCell<PoolDebug>>,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::new()
    }
}

impl BufferPool {
    /// A fresh pool; samples the global pool gate.
    pub fn new() -> Self {
        BufferPool {
            enabled: Cell::new(pool_enabled()),
            classes: RefCell::new(Vec::new()),
            hits: Cell::new(0),
            misses: Cell::new(0),
            published_hits: Cell::new(0),
            published_misses: Cell::new(0),
            outstanding: Cell::new(0),
            held: Cell::new(0),
            high_water: Cell::new(0),
            debug: check_enabled().then(|| {
                RefCell::new(PoolDebug {
                    generation: 0,
                    outstanding: Vec::new(),
                    violations: Vec::new(),
                })
            }),
        }
    }

    /// Whether this pool recycles (sampled from the global gate at
    /// construction / last [`BufferPool::refresh_enabled`]).
    pub fn enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Re-sample the global gate. Called from `Tape::recycle()` so
    /// in-process A/B benchmarks can flip pooling between steps
    /// without constructing new tapes.
    ///
    /// Transitioning to (or staying) disabled also drops the freelists
    /// and resets the byte gauges: with pooling off the pool owns no
    /// storage, so `tape.pool.bytes` and the high-water mark must read
    /// zero/identity rather than whatever the last enabled period left
    /// behind (hit/miss *counters* are history and are kept).
    pub fn refresh_enabled(&self) {
        self.apply_enabled(pool_enabled());
    }

    fn apply_enabled(&self, on: bool) {
        self.enabled.set(on);
        if !on {
            self.classes.borrow_mut().clear();
            self.held.set(0);
            self.high_water.set(self.outstanding.get());
            self.publish();
        }
    }

    /// A freelist buffer of exactly `n` elements, or `None` on a miss.
    /// Hits move bytes held → outstanding (total unchanged, so neither
    /// the high-water mark nor the gauge needs refreshing); misses grow
    /// the total and publish.
    fn take_recycled(&self, n: usize) -> Option<Vec<f32>> {
        let bytes = n * std::mem::size_of::<f32>();
        if self.enabled.get() {
            if let Some(buf) = self
                .classes
                .borrow_mut()
                .iter_mut()
                .find(|c| c.len == n)
                .and_then(|c| c.free.pop())
            {
                self.hits.set(self.hits.get() + 1);
                self.held.set(self.held.get() - bytes);
                self.outstanding.set(self.outstanding.get() + bytes);
                return Some(buf);
            }
        }
        self.misses.set(self.misses.get() + 1);
        self.outstanding.set(self.outstanding.get() + bytes);
        self.publish();
        None
    }

    /// A buffer of exactly `n` elements with **unspecified contents**
    /// (recycled buffers keep their previous values — under `DC_CHECK=1`
    /// that means [`POISON_PATTERN`] NaNs). Callers must fully overwrite
    /// it or use [`BufferPool::take_zeroed`].
    pub fn take(&self, n: usize) -> Vec<f32> {
        let buf = self.take_recycled(n).unwrap_or_else(|| vec![0.0; n]);
        self.track_take(&buf);
        buf
    }

    /// A buffer of exactly `n` elements, zero-filled. For consumers
    /// that accumulate (`+=`) instead of overwriting: matmul outputs,
    /// scatter-style gradient buffers. Only recycled buffers pay the
    /// clear; fresh allocations are already zero.
    pub fn take_zeroed(&self, n: usize) -> Vec<f32> {
        let buf = match self.take_recycled(n) {
            Some(mut buf) => {
                buf.iter_mut().for_each(|v| *v = 0.0);
                buf
            }
            None => vec![0.0; n],
        };
        self.track_take(&buf);
        buf
    }

    /// Record a generation-tagged debug handle for a buffer leaving the
    /// pool (no-op unless `DC_CHECK=1`).
    #[inline]
    fn track_take(&self, buf: &[f32]) {
        if let Some(debug) = &self.debug {
            let mut d = debug.borrow_mut();
            let generation = d.generation;
            d.outstanding
                .push((buf.as_ptr() as usize, buf.len(), generation));
        }
    }

    /// Return a buffer to its freelist (dropped when pooling is off).
    ///
    /// Under `DC_CHECK=1` the buffer must be one this pool currently
    /// counts as outstanding — anything else records a
    /// [`PoolViolationKind::DoubleRecycle`] — and its contents are
    /// filled with [`POISON_PATTERN`] before parking, so a consumer
    /// holding on to the storage past this point reads unmistakable
    /// NaNs instead of silently aliasing the next step's data.
    pub fn put(&self, mut buf: Vec<f32>) {
        if let Some(debug) = &self.debug {
            let mut d = debug.borrow_mut();
            let ptr = buf.as_ptr() as usize;
            match d.outstanding.iter().rposition(|&(p, _, _)| p == ptr) {
                Some(at) => {
                    d.outstanding.swap_remove(at);
                }
                None => {
                    let v = PoolViolation {
                        kind: PoolViolationKind::DoubleRecycle,
                        len: buf.len(),
                        generation: d.generation,
                    };
                    d.violations.push(v);
                }
            }
            buf.iter_mut().for_each(|v| *v = poison_value());
        }
        let bytes = buf.len() * std::mem::size_of::<f32>();
        self.outstanding
            .set(self.outstanding.get().saturating_sub(bytes));
        if self.enabled.get() {
            // Total bytes unchanged (outstanding → held): skip publish.
            self.held.set(self.held.get() + bytes);
            let mut classes = self.classes.borrow_mut();
            match classes.iter_mut().find(|c| c.len == buf.len()) {
                Some(class) => class.free.push(buf),
                None => classes.push(SizeClass {
                    len: buf.len(),
                    free: vec![buf],
                }),
            }
        } else {
            self.publish();
        }
    }

    /// Forward hit/miss counts accumulated since the last call to the
    /// `tape.pool.hit`/`tape.pool.miss` dc-obs counters. Called from
    /// `Tape::recycle()` and `Tape::drop` so the per-take hot path
    /// never touches an atomic.
    pub fn publish_counters(&self) {
        let dh = self.hits.get() - self.published_hits.get();
        if dh > 0 {
            POOL_HIT.add(dh);
            self.published_hits.set(self.hits.get());
        }
        let dm = self.misses.get() - self.published_misses.get();
        if dm > 0 {
            POOL_MISS.add(dm);
            self.published_misses.set(self.misses.get());
        }
    }

    /// Current accounting snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            outstanding_bytes: self.outstanding.get(),
            held_bytes: self.held.get(),
            high_water_bytes: self.high_water.get(),
        }
    }

    fn publish(&self) {
        let total = self.outstanding.get() + self.held.get();
        if total > self.high_water.get() {
            self.high_water.set(total);
        }
        POOL_BYTES.set(total as u64);
    }

    /// Advance the debug-handle generation (no-op unless `DC_CHECK=1`).
    /// `Tape::recycle` calls this once per step, so violations report
    /// which step they happened in.
    pub fn bump_generation(&self) {
        if let Some(debug) = &self.debug {
            let mut d = debug.borrow_mut();
            d.generation += 1;
        }
    }

    /// Current debug-handle generation (0 when tracking is off).
    pub fn generation(&self) -> u64 {
        self.debug.as_ref().map_or(0, |d| d.borrow().generation)
    }

    /// Pool misuses detected so far (always empty unless `DC_CHECK=1`).
    pub fn violations(&self) -> Vec<PoolViolation> {
        self.debug
            .as_ref()
            .map_or_else(Vec::new, |d| d.borrow().violations.clone())
    }

    /// Drop recorded violations (tests assert on a clean slate).
    pub fn clear_violations(&self) {
        if let Some(debug) = &self.debug {
            debug.borrow_mut().violations.clear();
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel pack scratch
// ---------------------------------------------------------------------------

thread_local! {
    /// Per-thread reusable B-panel pack scratch for the blocked matmul
    /// (each worker packs its own panel). `Cell<Vec<f32>>` so taking
    /// and restoring the buffer never risks a re-entrant borrow.
    static PACK_SCRATCH: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Borrow this thread's pack scratch, grown to at least `n` elements
/// (stale contents — matmul packing fully overwrites the region it
/// reads). Falls back to a fresh zeroed allocation when pooling is
/// off. Pair with [`put_pack_scratch`].
pub fn take_pack_scratch(n: usize) -> Vec<f32> {
    if pool_enabled() {
        let mut buf = PACK_SCRATCH.with(|c| c.take());
        if buf.len() < n {
            buf.resize(n, 0.0);
        }
        buf
    } else {
        vec![0.0; n]
    }
}

/// Park the pack scratch back in this thread's slot (dropped when
/// pooling is off).
pub fn put_pack_scratch(buf: Vec<f32>) {
    if pool_enabled() {
        PACK_SCRATCH.with(|c| c.set(buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_put_recycles_by_size_class() {
        let pool = BufferPool::new();
        pool.enabled.set(true);
        let a = pool.take(16);
        assert_eq!(a.len(), 16);
        pool.put(a);
        let b = pool.take(16);
        let s = pool.stats();
        assert_eq!(s.hits, 1, "second take of the same class is a hit");
        assert_eq!(s.misses, 1);
        let c = pool.take(8);
        assert_eq!(pool.stats().misses, 2, "different class misses");
        pool.put(b);
        pool.put(c);
        let s = pool.stats();
        assert_eq!(s.outstanding_bytes, 0);
        assert_eq!(s.held_bytes, (16 + 8) * 4);
        assert_eq!(s.high_water_bytes, (16 + 8) * 4);
    }

    #[test]
    fn take_zeroed_clears_recycled_contents() {
        let pool = BufferPool::new();
        pool.enabled.set(true);
        let mut a = pool.take(4);
        a.iter_mut().for_each(|v| *v = 7.0);
        pool.put(a);
        let b = pool.take_zeroed(4);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn disabled_pool_never_holds_buffers() {
        let pool = BufferPool::new();
        pool.enabled.set(false);
        let a = pool.take(32);
        pool.put(a);
        let s = pool.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.held_bytes, 0);
        assert_eq!(pool.take(32).len(), 32);
        assert_eq!(pool.stats().misses, 2);
    }

    /// A pool with debug tracking forced on, without touching the
    /// process-global `DC_CHECK` gate (tests in this binary run
    /// concurrently).
    fn debug_pool() -> BufferPool {
        let mut pool = BufferPool::new();
        pool.debug = Some(RefCell::new(PoolDebug {
            generation: 0,
            outstanding: Vec::new(),
            violations: Vec::new(),
        }));
        pool
    }

    #[test]
    fn disabling_pool_resets_gauges_to_identity() {
        let pool = BufferPool::new();
        pool.enabled.set(true);
        let a = pool.take(64);
        pool.put(a);
        assert_eq!(pool.stats().held_bytes, 64 * 4);
        assert_eq!(pool.stats().high_water_bytes, 64 * 4);
        // Re-sample with the gate off, as Tape::recycle does after
        // set_pool_enabled(false). The pool owns nothing now: gauges
        // must read zero, not the last-enabled values.
        pool.apply_enabled(false);
        let s = pool.stats();
        assert_eq!(s.held_bytes, 0);
        assert_eq!(s.outstanding_bytes, 0);
        assert_eq!(s.high_water_bytes, 0, "high-water resets with the pool off");
        assert_eq!(s.misses, 1, "history counters are kept");
    }

    #[test]
    fn recycled_buffers_are_poison_filled() {
        let pool = debug_pool();
        pool.enabled.set(true);
        let mut a = pool.take(4);
        a.iter_mut().for_each(|v| *v = 1.5);
        pool.put(a);
        // The freelist hit hands back the same storage: every element
        // must now carry the exact poison pattern, not the stale 1.5s.
        let stale = pool.take(4);
        assert!(stale.iter().all(|v| v.to_bits() == POISON_PATTERN));
        assert!(pool.violations().is_empty(), "legal take/put is clean");
    }

    #[test]
    fn double_recycle_is_detected_with_generation() {
        let pool = debug_pool();
        pool.enabled.set(true);
        let a = pool.take(8);
        pool.put(a);
        pool.bump_generation();
        // A buffer the pool never handed out: double recycle / foreign.
        pool.put(vec![0.0; 8]);
        let v = pool.violations();
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, PoolViolationKind::DoubleRecycle);
        assert_eq!(v[0].len, 8);
        assert_eq!(v[0].generation, 1, "violation is tagged with the step");
        pool.clear_violations();
        assert!(pool.violations().is_empty());
    }

    #[test]
    fn take_zeroed_clears_poison() {
        let pool = debug_pool();
        pool.enabled.set(true);
        let a = pool.take(4);
        pool.put(a);
        assert!(pool.take_zeroed(4).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn pack_scratch_grows_and_is_reused() {
        // Serialize against other tests that flip the global gates.
        set_pool_enabled(true);
        let buf = take_pack_scratch(64);
        assert!(buf.len() >= 64);
        put_pack_scratch(buf);
        let again = take_pack_scratch(32);
        assert!(again.len() >= 64, "scratch kept its high-water size");
        put_pack_scratch(again);
    }
}
