//! Parallel blocked compute kernels and the shared worker pool.
//!
//! Every model in AutoDC bottoms out in the three matmul variants and
//! the elementwise map/zip kernels of [`Tensor`](crate::Tensor). This
//! module gives those hot loops two upgrades without changing any
//! result the rest of the repository observes:
//!
//! 1. **Cache-blocked, register-tiled serial kernels.** Matmuls pack
//!    `MR`-row panels of `A` into contiguous stack tiles and sweep
//!    `KC×NC` panels of `B`, with a 4-row register block whose inner
//!    loop LLVM auto-vectorizes. Elements of full `MR×NR` tiles sum
//!    each k panel with `madd` (fused on the AVX2+FMA build); every
//!    other `A·B` / `Aᵀ·B` element is a non-fused ascending chain, and
//!    every `A·Bᵀ` element a `dot8`. Narrow shapes (`A·B` with fewer
//!    than `MR` rows or `NR` columns, `Aᵀ·B` with fewer than `NR`
//!    columns, `A·Bᵀ` with fewer than `NR` shared columns) skip the
//!    packing and run those same chains in registers or contiguous
//!    sweeps. The naive `a == 0.0` skip of the seed kernel is gone: it
//!    only ever helped pathologically sparse inputs and defeated
//!    vectorization on dense data.
//! 2. **A lazily-initialized shared worker pool.** The first large
//!    kernel call spawns `configured_threads() - 1` detached workers
//!    (`DC_THREADS` overrides [`std::thread::available_parallelism`]);
//!    output rows are then distributed over the pool by chunked
//!    work-stealing, the calling thread participating. Small
//!    operations — everything at paper scale — never touch the pool:
//!    they stay on the caller thread below [`MATMUL_PAR_THRESHOLD`] /
//!    [`ELEMWISE_PAR_THRESHOLD`].
//!
//! # Determinism
//!
//! Parallel kernels partition work by **output row**: each output row
//! is produced wholly by one thread, with the same per-element
//! accumulation order as the serial kernel. Results are therefore
//! **bitwise identical** for every thread count, including
//! `DC_THREADS=1` (which additionally never constructs the pool and
//! runs the exact serial code path). Reductions that cannot be row
//! partitioned (`sum`, `dot`, `norm`) intentionally stay sequential.
//!
//! The blocked kernels may associate floating-point sums differently
//! from the seed's naive loops (e.g. the 8-lane dot product in
//! `matmul_t`), so they are equivalence-tested against the
//! [`reference`] kernels to 1e-5 *relative* tolerance rather than
//! bit-for-bit (`tests/kernel_equiv.rs`).

use crate::tensor::Tensor;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

// ---------------------------------------------------------------------------
// Tunables
// ---------------------------------------------------------------------------

/// Rows per register tile in the matmul microkernels.
const MR: usize = 4;
/// Public alias for the matmul row-tile height ([`MR`]).
///
/// Rows inside a full `MR`-row tile run the FMA microkernel; the
/// `< MR`-row remainder runs a plain mul+add loop, so a row's rounding
/// depends on whether the *total* row count leaves it in a remainder.
/// Parallel chunk boundaries are already `MR`-aligned (see
/// [`row_grain`]), so a GEMM whose row count is a multiple of
/// `ROW_TILE` gives every row the full-tile path — making each output
/// row a pure bitwise function of that row's inputs, independent of
/// batch composition and thread count. dc-serve's micro-batched
/// inference pads row counts to this multiple to get solo-vs-batched
/// bitwise equality.
pub const ROW_TILE: usize = MR;
/// Columns per register tile: an `MR×NR` f32 accumulator block fits the
/// baseline x86-64 / aarch64 vector register files with room to spare.
const NR: usize = 8;
/// Columns of the shared (`k`) dimension per packed `A` panel.
const KC: usize = 256;
/// Output-column panel width: keeps the active `KC×NC` panel of `B`
/// L2-resident while the register tiles sweep it.
const NC: usize = 128;
/// Edge length of the blocked transpose tiles.
const TB: usize = 32;
/// `f32` lanes in one 256-bit vector: the narrow-column `A·B` path runs
/// this many rows' chains per output column side by side.
const LANES: usize = 8;

/// Matmuls with fewer multiply-adds (`m·k·n`) than this stay on the
/// caller thread. Paper-scale models (dims ≤ 128) live below it, so
/// their training loops never pay pool latency.
pub const MATMUL_PAR_THRESHOLD: usize = 1 << 20;

/// Elementwise kernels over fewer elements than this stay serial:
/// map/zip are memory-bound, so forking pays off only on big buffers.
pub const ELEMWISE_PAR_THRESHOLD: usize = 1 << 16;

/// Work-stealing chunk size for elementwise kernels.
const ELEMWISE_GRAIN: usize = 1 << 14;

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// One parallel-for submission, type- and lifetime-erased so it can sit
/// in the pool's shared slot. The raw pointers reference the submitting
/// caller's stack; they are only dereferenced between the `active`
/// increment and decrement in [`run_chunks`], and [`WorkerPool::run`]
/// does not return until `active == 0` and every chunk completed, so
/// the pointees outlive every access.
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(Range<usize>) + Sync),
    next_chunk: *const AtomicUsize,
    completed: *const AtomicUsize,
    panicked: *const AtomicBool,
    /// Threads that picked this job up (occupancy telemetry; the
    /// submitting caller counts itself at creation).
    joined: *const AtomicUsize,
    n_items: usize,
    grain: usize,
    n_chunks: usize,
}

// SAFETY: `Job` is only handed to worker threads through the pool's
// mutex, and the pointees are kept alive by the submitting caller until
// the job is fully drained (see `WorkerPool::run`).
unsafe impl Send for Job {}

struct PoolState {
    /// Current job, if one is in flight.
    job: Option<Job>,
    /// Bumped once per submission so sleeping workers can tell a new
    /// job from the one they already drained.
    epoch: u64,
    /// Number of workers currently inside [`run_chunks`] for the
    /// current job.
    active: usize,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers sleep here between jobs.
    work_cv: Condvar,
    /// The submitting caller sleeps here until its job drains.
    done_cv: Condvar,
}

/// The process-wide compute pool. Obtain it with [`pool`]; it is
/// constructed lazily on first use and lives for the rest of the
/// process (workers are detached daemon threads).
pub struct WorkerPool {
    threads: usize,
    shared: &'static PoolShared,
    /// Serializes submissions: one job in flight at a time. Contending
    /// callers fall back to their serial path instead of queueing (see
    /// [`parallel_for`]), so this never deadlocks.
    run_lock: Mutex<()>,
}

thread_local! {
    /// True while this thread is executing pool chunks; nested
    /// `parallel_for` calls then run inline instead of re-entering the
    /// pool (which would deadlock on `run_lock`).
    static IN_POOL_TASK: Cell<bool> = const { Cell::new(false) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Thread count the pool will use: `DC_THREADS` if set (must parse as
/// a positive integer), otherwise [`std::thread::available_parallelism`].
pub fn configured_threads() -> usize {
    match std::env::var("DC_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => panic!("DC_THREADS must be a positive integer, got {s:?}"),
        },
        Err(_) => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// The shared worker pool, spawning its threads on first call.
pub fn pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let shared: &'static PoolShared = Box::leak(Box::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                active: 0,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        // The caller participates in every job, so only threads-1
        // workers are spawned; DC_THREADS=1 spawns none and the pool is
        // pure bookkeeping around the serial path.
        for i in 1..threads {
            std::thread::Builder::new()
                .name(format!("dc-kernel-{i}"))
                .spawn(move || worker_loop(shared))
                .expect("dc-tensor: failed to spawn worker thread");
        }
        WorkerPool {
            threads,
            shared,
            run_lock: Mutex::new(()),
        }
    })
}

fn worker_loop(shared: &'static PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if st.epoch != seen_epoch {
                    seen_epoch = st.epoch;
                    if let Some(job) = st.job {
                        st.active += 1;
                        // SAFETY: the caller keeps `joined` alive until
                        // the job drains (see `Job`).
                        unsafe { &*job.joined }.fetch_add(1, Ordering::Relaxed);
                        break job;
                    }
                    // Job already drained before this worker woke; wait
                    // for the next epoch.
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        run_chunks(job, &POOL_CHUNKS_STOLEN);
        let mut st = lock(&shared.state);
        st.active -= 1;
        if st.active == 0 {
            shared.done_cv.notify_all();
        }
    }
}

// Pool telemetry (dc-obs): all sites are single load+branch when
// observability is off, so the hot path is unaffected in normal runs.
static POOL_JOBS: dc_obs::Counter = dc_obs::Counter::new("pool.jobs");
static POOL_CHUNKS_CALLER: dc_obs::Counter = dc_obs::Counter::new("pool.chunks_caller");
static POOL_CHUNKS_STOLEN: dc_obs::Counter = dc_obs::Counter::new("pool.chunks_stolen");
static POOL_SERIAL_INLINE: dc_obs::Counter = dc_obs::Counter::new("pool.serial_inline");
static POOL_SERIAL_BUSY: dc_obs::Counter = dc_obs::Counter::new("pool.serial_busy");
static POOL_JOB_TIME: dc_obs::Hist = dc_obs::Hist::new("pool.job");
static POOL_WORKERS_PER_JOB: dc_obs::Hist = dc_obs::Hist::new("pool.workers_per_job");

/// Steal and execute chunks of `job` until the shared counter drains,
/// tallying each executed chunk into `chunk_counter` (caller vs stolen).
fn run_chunks(job: Job, chunk_counter: &dc_obs::Counter) {
    // SAFETY: see `Job` — the caller keeps the pointee alive until the
    // job drains (`completed == n_chunks && active == 0`).
    let task = unsafe { &*job.task };
    // SAFETY: as above.
    let next_chunk = unsafe { &*job.next_chunk };
    // SAFETY: as above.
    let completed = unsafe { &*job.completed };
    // SAFETY: as above.
    let panicked = unsafe { &*job.panicked };
    IN_POOL_TASK.with(|f| f.set(true));
    loop {
        let c = next_chunk.fetch_add(1, Ordering::Relaxed);
        if c >= job.n_chunks {
            break;
        }
        chunk_counter.incr();
        let start = c * job.grain;
        let end = ((c + 1) * job.grain).min(job.n_items);
        // A panicking kernel must not wedge the pool: swallow the
        // unwind, record it, and let the submitting caller re-raise.
        if catch_unwind(AssertUnwindSafe(|| task(start..end))).is_err() {
            panicked.store(true, Ordering::Release);
        }
        completed.fetch_add(1, Ordering::Release);
    }
    IN_POOL_TASK.with(|f| f.set(false));
}

impl WorkerPool {
    /// Number of threads (callers + spawned workers) this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `f` over `0..n_items` split into `grain`-sized chunks that
    /// the pool's threads steal from a shared counter. Blocks until
    /// every chunk has completed. Chunks are disjoint, so `f` may write
    /// to disjoint output regions without synchronization.
    fn run(&self, n_items: usize, grain: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
        POOL_JOBS.incr();
        let _job_time = POOL_JOB_TIME.start();
        let n_chunks = n_items.div_ceil(grain);
        let next_chunk = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let panicked = AtomicBool::new(false);
        let joined = AtomicUsize::new(1);
        // SAFETY: lifetime erasure only — the reference is dropped (all
        // threads quiesced) before this frame returns.
        let task: &'static (dyn Fn(Range<usize>) + Sync) = unsafe {
            std::mem::transmute::<
                &(dyn Fn(Range<usize>) + Sync),
                &'static (dyn Fn(Range<usize>) + Sync),
            >(f)
        };
        let job = Job {
            task,
            next_chunk: &next_chunk,
            completed: &completed,
            panicked: &panicked,
            joined: &joined,
            n_items,
            grain,
            n_chunks,
        };
        {
            let mut st = lock(&self.shared.state);
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(job);
            self.shared.work_cv.notify_all();
        }
        // The caller is a full participant in its own job.
        run_chunks(job, &POOL_CHUNKS_CALLER);
        let mut st = lock(&self.shared.state);
        while completed.load(Ordering::Acquire) < n_chunks || st.active > 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
        st.job = None;
        drop(st);
        POOL_WORKERS_PER_JOB.record_ns(joined.load(Ordering::Relaxed) as u64);
        if panicked.load(Ordering::Acquire) {
            panic!("dc-tensor: a kernel task panicked on the worker pool");
        }
    }
}

/// Run `f` over the disjoint chunks of `0..n_items`, in parallel when
/// the pool has threads to spare and serially (a single `f(0..n_items)`
/// call) otherwise. Serial fallbacks: a 1-thread pool, a single chunk,
/// a nested call from inside a pool task, or another caller already
/// occupying the pool.
pub fn parallel_for(n_items: usize, grain: usize, f: impl Fn(Range<usize>) + Sync) {
    if n_items == 0 {
        return;
    }
    let grain = grain.max(1);
    let p = pool();
    if p.threads <= 1 || n_items <= grain || IN_POOL_TASK.with(|fl| fl.get()) {
        POOL_SERIAL_INLINE.incr();
        f(0..n_items);
        return;
    }
    match p.run_lock.try_lock() {
        Ok(_guard) => p.run(n_items, grain, &f),
        // Pool busy with another caller's job: doing the work here beats
        // queueing behind it (and can never deadlock).
        Err(_) => {
            POOL_SERIAL_BUSY.incr();
            f(0..n_items)
        }
    }
}

/// Row-chunk size for distributing `rows` over `threads`, rounded to a
/// multiple of the register tile so tiles never straddle a chunk.
fn row_grain(rows: usize, threads: usize) -> usize {
    let target = rows.div_ceil(threads * 4).max(MR);
    target.div_ceil(MR) * MR
}

/// Raw mutable base pointer that may cross into pool tasks. Each task
/// only touches the rows of its own disjoint chunk.
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced inside pool tasks, each of
// which writes a disjoint region of the pointee (see every use site's
// own SAFETY comment), and the pointee outlives the `parallel_for` call
// that moves the wrapper across threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared access is the same disjoint-regions argument as `Send`;
// the wrapper itself carries no state beyond the address.
unsafe impl<T: Send> Sync for SendPtr<T> {}

// Manual impls: the pointer is always copyable, whatever `T` is (the
// derive would demand `T: Copy`).
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the bare raw pointer.
    fn get(self) -> *mut T {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Matmul panels (shared by the serial and parallel entry points)
// ---------------------------------------------------------------------------

/// One multiply-accumulate step. The `FMA` variant uses `f32::mul_add`,
/// which the AVX2+FMA wrappers lower to a single hardware `vfmadd`; the
/// baseline variant keeps separate mul+add so hosts without hardware
/// FMA never fall into libm's slow software fma. Fusing changes
/// rounding by less than the 1e-5 tolerance the equivalence suite
/// allows against the reference kernels, and every thread count runs
/// the same dispatched variant, so thread-count bitwise reproducibility
/// is unaffected.
#[inline(always)]
fn madd<const FMA: bool>(acc: f32, x: f32, y: f32) -> f32 {
    if FMA {
        x.mul_add(y, acc)
    } else {
        acc + x * y
    }
}

/// Split a buffer of exactly four `width`-sized rows into the four rows.
#[inline]
fn four_rows(buf: &mut [f32], width: usize) -> [&mut [f32]; 4] {
    let (r0, rest) = buf.split_at_mut(width);
    let (r1, rest) = rest.split_at_mut(width);
    let (r2, r3) = rest.split_at_mut(width);
    [r0, r1, r2, r3]
}

/// Generate a runtime-dispatched panel function: on x86-64 hosts with
/// AVX2+FMA the `#[inline(always)]` body is recompiled inside a
/// `#[target_feature]` wrapper so LLVM vectorizes the 8-lane register
/// tiles at full ymm width; everywhere else the baseline build runs.
/// Vectorization keeps IEEE lane semantics (no reassociation, no FP
/// contraction), so every variant produces bitwise-identical output.
macro_rules! dispatch_panel {
    ($dispatch:ident, $wide:ident, $body:ident) => {
        // Miri never takes the `#[target_feature]` path (it interprets
        // MIR with the host's baseline feature set), so sanitizer runs
        // exercise exactly the `$body::<false>` scalar build — the AVX2
        // wrappers are the one lane Miri cannot cover (DESIGN.md §13).
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn $wide(a: &Tensor, b: &Tensor, rows: Range<usize>, out: &mut [f32]) {
            $body::<true>(a, b, rows, out)
        }

        fn $dispatch(a: &Tensor, b: &Tensor, rows: Range<usize>, out: &mut [f32]) {
            #[cfg(all(target_arch = "x86_64", not(miri)))]
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: the required CPU features were just verified.
                return unsafe { $wide(a, b, rows, out) };
            }
            $body::<false>(a, b, rows, out)
        }
    };
}

dispatch_panel!(matmul_panel, matmul_panel_avx2, matmul_panel_body);
dispatch_panel!(t_matmul_panel, t_matmul_panel_avx2, t_matmul_panel_body);
dispatch_panel!(matmul_t_panel, matmul_t_panel_avx2, matmul_t_panel_body);

/// Evaluate `$body` with `$w` bound to a `const` equal to `$n`, which
/// must be below [`NR`]: a narrow loop over `0..$w` then unrolls into
/// registers, and a stride of `$w` is known to the vectorizer.
macro_rules! with_narrow_width {
    ($n:expr, $w:ident => $body:expr) => {
        with_narrow_width!(@arms $n, $w => $body; 0 1 2 3 4 5 6 7)
    };
    (@arms $n:expr, $w:ident => $body:expr; $($v:literal)*) => {
        match $n {
            $($v => {
                const $w: usize = $v;
                $body
            })*
            n => unreachable!("narrow width {n} is not below NR"),
        }
    };
}

/// `C = A·B` restricted to output rows `rows`; `out` holds exactly
/// those rows. Each element accumulates its `k` terms in a fixed,
/// ascending order that depends only on the shapes — never on how rows
/// are partitioned across threads — so results are bitwise reproducible
/// for every thread count.
///
/// Elements inside full `MR×NR` tiles take [`matmul_tiles`]' fused
/// per-panel register accumulators. Every other element is a non-fused
/// ascending chain `acc + a·b` over all of `k`, which no packing helps:
/// calls with fewer than `MR` rows or `NR` columns never pack.
#[inline(always)]
fn matmul_panel_body<const FMA: bool>(a: &Tensor, b: &Tensor, rows: Range<usize>, out: &mut [f32]) {
    let n = b.cols;
    debug_assert_eq!(out.len(), rows.len() * n);
    let n8 = n - n % NR;
    let tile_rows = rows.len() - rows.len() % MR;
    if tile_rows > 0 && n8 > 0 {
        // Scratch for the packed B panel, sized for the largest (jb, kb)
        // panel this call will see — a few KiB for paper-scale matmuls,
        // capped at KC×NC floats (512 KiB) for large ones. Reused through
        // a per-thread slot in `crate::pool` (each worker packs its own
        // panel); packing fully overwrites every region it later reads,
        // so stale contents are harmless. The buffer is moved out of the
        // slot rather than borrowed in a closure on purpose: the hot loop
        // must stay on the `#[inline(always)]` path into the
        // `#[target_feature]` wrappers, and a closure would sever that
        // chain.
        let mut bpack = crate::pool::take_pack_scratch(a.cols.min(KC) * n8.min(NC));
        let tiles = rows.start..rows.start + tile_rows;
        matmul_tiles::<FMA>(a, b, tiles, &mut out[..tile_rows * n], &mut bpack);
        crate::pool::put_pack_scratch(bpack);
    }
    if n8 < n {
        with_narrow_width!(n - n8, W => matmul_cols::<W>(a, b, rows.clone(), n8, out));
    }
    for t in tile_rows..rows.len() {
        let arow = a.row_slice(rows.start + t);
        matmul_row_chain(arow, b, &mut out[t * n..t * n + n8]);
    }
}

/// The full `MR×NR` tiles of `A·B`: output rows `rows` (a multiple of
/// `MR`) by output columns `0..` the last multiple of `NR`.
#[inline(always)]
fn matmul_tiles<const FMA: bool>(
    a: &Tensor,
    b: &Tensor,
    rows: Range<usize>,
    out: &mut [f32],
    bpack: &mut [f32],
) {
    let k = a.cols;
    let n = b.cols;
    let n8 = n - n % NR;
    debug_assert_eq!(rows.len() % MR, 0);
    // A tile packed k-major: `apack[kk * MR + t]` holds `A[i+t][kb+kk]`,
    // so the microkernel reads one k step's MR values from one cache
    // line instead of four lines `kw` floats apart.
    let mut apack = [0.0f32; MR * KC];
    for jb in (0..n8).step_by(NC) {
        let nstrips = ((jb + NC).min(n8) - jb) / NR;
        for kb in (0..k).step_by(KC) {
            let ke = (kb + KC).min(k);
            let kw = ke - kb;
            // Pack the B panel into NR-wide column strips, each
            // `kw × NR` contiguous, shared by every row tile below: the
            // microkernel then streams B at unit stride instead of
            // jumping a full row of `B` (often several KiB) per k step.
            for si in 0..nstrips {
                let js = jb + si * NR;
                for kk in 0..kw {
                    let dst = (si * kw + kk) * NR;
                    let src = (kb + kk) * n + js;
                    bpack[dst..dst + NR].copy_from_slice(&b.data[src..src + NR]);
                }
            }
            for i in rows.clone().step_by(MR) {
                for kk in 0..kw {
                    for t in 0..MR {
                        apack[kk * MR + t] = a.data[(i + t) * k + kb + kk];
                    }
                }
                let base = (i - rows.start) * n;
                let [c0, c1, c2, c3] = four_rows(&mut out[base..base + MR * n], n);
                // Register-tiled: MR×NR accumulators live in vector
                // registers across the whole k panel, so C is touched
                // once per (tile, panel) instead of once per k step.
                for si in 0..nstrips {
                    let jr = jb + si * NR;
                    let strip = &bpack[si * kw * NR..(si * kw + kw) * NR];
                    let mut acc = [[0.0f32; NR]; MR];
                    for kk in 0..kw {
                        let bv: &[f32; NR] =
                            strip[kk * NR..kk * NR + NR].try_into().expect("NR slice");
                        let av: &[f32; MR] =
                            apack[kk * MR..kk * MR + MR].try_into().expect("MR slice");
                        for l in 0..NR {
                            acc[0][l] = madd::<FMA>(acc[0][l], av[0], bv[l]);
                            acc[1][l] = madd::<FMA>(acc[1][l], av[1], bv[l]);
                            acc[2][l] = madd::<FMA>(acc[2][l], av[2], bv[l]);
                            acc[3][l] = madd::<FMA>(acc[3][l], av[3], bv[l]);
                        }
                    }
                    for (t, c) in [&mut *c0, &mut *c1, &mut *c2, &mut *c3]
                        .into_iter()
                        .enumerate()
                    {
                        for l in 0..NR {
                            c[jr + l] += acc[t][l];
                        }
                    }
                }
            }
        }
    }
}

/// Output columns `j0..j0 + W` of `A·B` (`W < NR`) for output rows
/// `rows`; `out` holds exactly those rows. Each element is a non-fused
/// ascending chain `acc + a·b` over all of `k`, continuing from its
/// value in `out`. Blocks of [`LANES`] rows keep their chains side by
/// side in registers, one vector per output column; the last
/// `< LANES` rows run one at a time.
#[inline(always)]
fn matmul_cols<const W: usize>(
    a: &Tensor,
    b: &Tensor,
    rows: Range<usize>,
    j0: usize,
    out: &mut [f32],
) {
    let n = b.cols;
    let mut blocks = out.chunks_exact_mut(LANES * n);
    let mut i = rows.start;
    for block in &mut blocks {
        matmul_cols_rows::<LANES, W>(a, b, i, j0, block);
        i += LANES;
    }
    for crow in blocks.into_remainder().chunks_exact_mut(n) {
        matmul_cols_rows::<1, W>(a, b, i, j0, crow);
        i += 1;
    }
}

/// [`matmul_cols`] for the `H` output rows from row `i` on, held in `c`.
/// `A` is read in `H×LANES` blocks transposed on the stack, so each k
/// step hands the `H` chains of a column one contiguous vector of `A`.
#[inline(always)]
fn matmul_cols_rows<const H: usize, const W: usize>(
    a: &Tensor,
    b: &Tensor,
    i: usize,
    j0: usize,
    c: &mut [f32],
) {
    let (k, n) = (a.cols, b.cols);
    let arows: [&[f32]; H] = std::array::from_fn(|t| &a.row_slice(i + t)[..k]);
    let bv = |kk: usize| -> &[f32; W] {
        let at = kk * n + j0;
        b.data[at..at + W].try_into().expect("W slice")
    };
    // acc[l][t] is column j0 + l of row i + t.
    let mut acc = [[0.0f32; H]; W];
    for t in 0..H {
        for l in 0..W {
            acc[l][t] = c[t * n + j0 + l];
        }
    }
    // One k step: `av[t]` is `A[i + t][kk]`, `bv[l]` is `B[kk][j0 + l]`.
    let mut step = |av: &[f32; H], bv: &[f32; W]| {
        for l in 0..W {
            for t in 0..H {
                acc[l][t] += av[t] * bv[l];
            }
        }
    };
    let k_blocked = k - k % LANES;
    for kb in (0..k_blocked).step_by(LANES) {
        let mut at = [[0.0f32; H]; LANES];
        for (t, arow) in arows.iter().enumerate() {
            for (kk, &v) in arow[kb..kb + LANES].iter().enumerate() {
                at[kk][t] = v;
            }
        }
        for (kk, av) in at.iter().enumerate() {
            step(av, bv(kb + kk));
        }
    }
    for kk in k_blocked..k {
        step(&arows.map(|row| row[kk]), bv(kk));
    }
    for t in 0..H {
        for l in 0..W {
            c[t * n + j0 + l] = acc[l][t];
        }
    }
}

/// Output columns `0..crow.len()` of one `A·B` row, whose `A` row is
/// `arow`: each element a non-fused ascending chain `acc + a·b` over all
/// of `k`, continuing from its value in `crow`. The row is swept one k
/// step at a time, an `NC`-wide panel of it at a time, so every step is
/// one contiguous, vectorized multiply-add along the output.
#[inline(always)]
fn matmul_row_chain(arow: &[f32], b: &Tensor, crow: &mut [f32]) {
    let n = b.cols;
    let w = crow.len();
    for jb in (0..w).step_by(NC) {
        let je = (jb + NC).min(w);
        let panel = &mut crow[jb..je];
        for (&av, brow) in arow.iter().zip(b.data.chunks_exact(n)) {
            for (c, &bv) in panel.iter_mut().zip(&brow[jb..je]) {
                *c += av * bv;
            }
        }
    }
}

/// `C = Aᵀ·B` restricted to output rows `rows` (columns of `A`);
/// `out` holds exactly those rows. The shared dimension (rows of
/// `A`/`B`) accumulates in a fixed ascending order independent of the
/// thread partition.
///
/// Elements inside full `MR×NR` tiles take fused register accumulators
/// per `KC` panel of `A`'s rows; every other element is a non-fused
/// ascending chain (see [`t_matmul_chain`]).
#[inline(always)]
fn t_matmul_panel_body<const FMA: bool>(
    a: &Tensor,
    b: &Tensor,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let ka = a.cols;
    let n = b.cols;
    let m = a.rows;
    debug_assert_eq!(out.len(), rows.len() * n);
    if out.is_empty() {
        // Nothing to write, and no zero-width output row to step by.
        return;
    }
    if n < NR {
        with_narrow_width!(n, W => t_matmul_chain(a, b, rows, 0..W, W, out));
        return;
    }
    let n8 = n - n % NR;
    let tile_rows = rows.len() - rows.len() % MR;
    for rb in (0..m).step_by(KC) {
        let re = (rb + KC).min(m);
        for i in (rows.start..rows.start + tile_rows).step_by(MR) {
            let base = (i - rows.start) * n;
            let [c0, c1, c2, c3] = four_rows(&mut out[base..base + MR * n], n);
            for jr in (0..n8).step_by(NR) {
                let mut acc = [[0.0f32; NR]; MR];
                for r in rb..re {
                    // Columns i..i+4 of row r are contiguous in A.
                    let av = &a.data[r * ka + i..r * ka + i + MR];
                    let (a0, a1, a2, a3) = (av[0], av[1], av[2], av[3]);
                    let boff = r * n + jr;
                    let bv: &[f32; NR] = b.data[boff..boff + NR].try_into().expect("NR slice");
                    for l in 0..NR {
                        acc[0][l] = madd::<FMA>(acc[0][l], a0, bv[l]);
                        acc[1][l] = madd::<FMA>(acc[1][l], a1, bv[l]);
                        acc[2][l] = madd::<FMA>(acc[2][l], a2, bv[l]);
                        acc[3][l] = madd::<FMA>(acc[3][l], a3, bv[l]);
                    }
                }
                for (t, c) in [&mut *c0, &mut *c1, &mut *c2, &mut *c3]
                    .into_iter()
                    .enumerate()
                {
                    for l in 0..NR {
                        c[jr + l] += acc[t][l];
                    }
                }
            }
        }
    }
    let (tiles, tail) = out.split_at_mut(tile_rows * n);
    if n8 < n && tile_rows > 0 {
        t_matmul_chain(a, b, rows.start..rows.start + tile_rows, n8..n, n, tiles);
    }
    if tile_rows < rows.len() {
        t_matmul_chain(a, b, rows.start + tile_rows..rows.end, 0..n, n, tail);
    }
}

/// Output columns `cols` of `Aᵀ·B` for output rows `rows` (columns of
/// `A`); `out` holds those rows, `stride` (= `b.cols`) apart. Each
/// element is a non-fused ascending chain `acc + a·b` over the rows of
/// `A`, continuing from its value in `out`. Rows of `A` are the outer
/// loop, so each step sweeps a contiguous row of `A` against the
/// output. The stride is an argument so that a caller whose width is a
/// constant can pass it as one: with `stride == cols.len()` known, the
/// sweep is one contiguous run of `out` and vectorizes.
#[inline(always)]
fn t_matmul_chain(
    a: &Tensor,
    b: &Tensor,
    rows: Range<usize>,
    cols: Range<usize>,
    stride: usize,
    out: &mut [f32],
) {
    let (ka, n) = (a.cols, b.cols);
    debug_assert_eq!(stride, n);
    for r in 0..a.rows {
        let arow = &a.data[r * ka + rows.start..r * ka + rows.end];
        let brow = &b.data[r * n + cols.start..r * n + cols.end];
        for (crow, &av) in out.chunks_exact_mut(stride).zip(arow) {
            for (c, &bv) in crow[cols.clone()].iter_mut().zip(brow) {
                *c += av * bv;
            }
        }
    }
}

/// Eight-lane dot product: fixed association (8 partial sums combined
/// in lane order), deterministic and auto-vectorizable.
#[inline(always)]
fn dot8<const FMA: bool>(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0.0f32; 8];
    let xc = x.chunks_exact(8);
    let yc = y.chunks_exact(8);
    let (rx, ry) = (xc.remainder(), yc.remainder());
    for (xv, yv) in xc.zip(yc) {
        for l in 0..8 {
            acc[l] = madd::<FMA>(acc[l], xv[l], yv[l]);
        }
    }
    let mut s = 0.0;
    for lane in acc {
        s += lane;
    }
    for (a, b) in rx.iter().zip(ry) {
        s = madd::<FMA>(s, *a, *b);
    }
    s
}

/// `C = A·Bᵀ` restricted to output rows `rows`; `out` holds exactly
/// those rows and is overwritten. Each element is an independent
/// [`dot8`], so the result is identical for every row partition.
/// Below `NR` shared columns `dot8` is a `madd` chain from `+0.0`, which
/// [`matmul_t_narrow`] runs without the eight empty lanes.
#[inline(always)]
fn matmul_t_panel_body<const FMA: bool>(
    a: &Tensor,
    b: &Tensor,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let bm = b.rows;
    debug_assert_eq!(out.len(), rows.len() * bm);
    if a.cols < NR {
        with_narrow_width!(a.cols, K => matmul_t_narrow::<FMA, K>(a, b, rows, out));
        return;
    }
    let mut i = rows.start;
    while i < rows.end {
        let h = (rows.end - i).min(MR);
        let base = (i - rows.start) * bm;
        for j in 0..bm {
            let brow = b.row_slice(j);
            for t in 0..h {
                out[base + t * bm + j] = dot8::<FMA>(a.row_slice(i + t), brow);
            }
        }
        i += h;
    }
}

/// [`matmul_t_panel_body`] with `K < NR` shared columns: one sweep
/// along each output row, each element's `K` `madd`s from `+0.0`
/// unrolled in a register. Per element that is `dot8`'s exact sequence
/// for `K < 8`, without its eight empty lanes.
#[inline(always)]
fn matmul_t_narrow<const FMA: bool, const K: usize>(
    a: &Tensor,
    b: &Tensor,
    rows: Range<usize>,
    out: &mut [f32],
) {
    if K == 0 {
        // An empty chain is its `+0.0` start.
        out.fill(0.0);
        return;
    }
    let bm = b.rows;
    for i in rows.clone() {
        let crow = &mut out[(i - rows.start) * bm..(i - rows.start + 1) * bm];
        let arow: &[f32; K] = a.row_slice(i).try_into().expect("K slice");
        for (c, brow) in crow.iter_mut().zip(b.data.chunks_exact(K)) {
            let mut acc = 0.0;
            for kk in 0..K {
                acc = madd::<FMA>(acc, arow[kk], brow[kk]);
            }
            *c = acc;
        }
    }
}

// ---------------------------------------------------------------------------
// Public matmul entry points
// ---------------------------------------------------------------------------

/// Dispatch one of the matmul panels serially or across the pool into
/// `out`, sized `out_rows * out_cols`: the `A·B` and `Aᵀ·B` panels add
/// into it, so the caller supplies it **zeroed**; the `A·Bᵀ` panel
/// overwrites it. The serial/parallel split is identical to the
/// allocating path, so results are bitwise the same.
#[allow(clippy::too_many_arguments)]
fn run_matmul_into(
    a: &Tensor,
    b: &Tensor,
    out_rows: usize,
    out_cols: usize,
    madds: usize,
    force_parallel: bool,
    panel: fn(&Tensor, &Tensor, Range<usize>, &mut [f32]),
    out: &mut [f32],
) {
    debug_assert_eq!(out.len(), out_rows * out_cols);
    let threads = pool().threads();
    if threads <= 1 || (!force_parallel && madds < MATMUL_PAR_THRESHOLD) {
        panel(a, b, 0..out_rows, out);
        return;
    }
    let ptr = SendPtr(out.as_mut_ptr());
    parallel_for(out_rows, row_grain(out_rows, threads), move |rows| {
        // SAFETY: chunks are disjoint row ranges of `out`, which
        // outlives the `parallel_for` call.
        let sub = unsafe {
            std::slice::from_raw_parts_mut(
                ptr.get().add(rows.start * out_cols),
                rows.len() * out_cols,
            )
        };
        panel(a, b, rows, sub);
    });
}

/// Dispatch one of the matmul panels serially or across the pool.
fn run_matmul(
    a: &Tensor,
    b: &Tensor,
    out_rows: usize,
    out_cols: usize,
    madds: usize,
    force_parallel: bool,
    panel: fn(&Tensor, &Tensor, Range<usize>, &mut [f32]),
) -> Tensor {
    let mut out = Tensor::zeros(out_rows, out_cols);
    run_matmul_into(
        a,
        b,
        out_rows,
        out_cols,
        madds,
        force_parallel,
        panel,
        &mut out.data,
    );
    out
}

/// Blocked `A·B`, parallel above [`MATMUL_PAR_THRESHOLD`].
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.cols, b.rows,
        "matmul: {}x{} · {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    let madds = a.rows * a.cols * b.cols;
    run_matmul(a, b, a.rows, b.cols, madds, false, matmul_panel)
}

/// Blocked `A·B` accumulated into a caller-supplied **zeroed** buffer
/// of `a.rows * b.cols` elements; bitwise identical to [`matmul`].
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    assert_eq!(
        a.cols, b.rows,
        "matmul: {}x{} · {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    let madds = a.rows * a.cols * b.cols;
    run_matmul_into(a, b, a.rows, b.cols, madds, false, matmul_panel, out);
}

/// Blocked `A·B` that always runs on the caller thread.
pub fn matmul_serial(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols, b.rows, "matmul_serial: inner dimension mismatch");
    let mut out = Tensor::zeros(a.rows, b.cols);
    matmul_panel(a, b, 0..a.rows, &mut out.data);
    out
}

/// Blocked `A·B` that always goes through the pool (tests/benches).
pub fn matmul_parallel(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols, b.rows, "matmul_parallel: inner dimension mismatch");
    run_matmul(a, b, a.rows, b.cols, usize::MAX, true, matmul_panel)
}

/// Blocked `Aᵀ·B`, parallel above [`MATMUL_PAR_THRESHOLD`].
pub fn t_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.rows, b.rows,
        "t_matmul: {}x{}ᵀ · {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    let madds = a.cols * a.rows * b.cols;
    run_matmul(a, b, a.cols, b.cols, madds, false, t_matmul_panel)
}

/// Blocked `Aᵀ·B` accumulated into a caller-supplied **zeroed** buffer
/// of `a.cols * b.cols` elements; bitwise identical to [`t_matmul`].
pub fn t_matmul_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    assert_eq!(
        a.rows, b.rows,
        "t_matmul: {}x{}ᵀ · {}x{}",
        a.rows, a.cols, b.rows, b.cols
    );
    let madds = a.cols * a.rows * b.cols;
    run_matmul_into(a, b, a.cols, b.cols, madds, false, t_matmul_panel, out);
}

/// Blocked `Aᵀ·B` that always runs on the caller thread.
pub fn t_matmul_serial(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rows, b.rows, "t_matmul_serial: row mismatch");
    let mut out = Tensor::zeros(a.cols, b.cols);
    t_matmul_panel(a, b, 0..a.cols, &mut out.data);
    out
}

/// Blocked `Aᵀ·B` that always goes through the pool (tests/benches).
pub fn t_matmul_parallel(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.rows, b.rows, "t_matmul_parallel: row mismatch");
    run_matmul(a, b, a.cols, b.cols, usize::MAX, true, t_matmul_panel)
}

/// Blocked `A·Bᵀ`, parallel above [`MATMUL_PAR_THRESHOLD`].
pub fn matmul_t(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        a.cols, b.cols,
        "matmul_t: {}x{} · {}x{}ᵀ",
        a.rows, a.cols, b.rows, b.cols
    );
    let madds = a.rows * a.cols * b.rows;
    run_matmul(a, b, a.rows, b.rows, madds, false, matmul_t_panel)
}

/// Blocked `A·Bᵀ` written into a caller-supplied buffer of
/// `a.rows * b.rows` elements, which it **overwrites** (every element is
/// assigned, so stale or recycled contents are fine); bitwise identical
/// to [`matmul_t`].
pub fn matmul_t_into(a: &Tensor, b: &Tensor, out: &mut [f32]) {
    assert_eq!(
        a.cols, b.cols,
        "matmul_t: {}x{} · {}x{}ᵀ",
        a.rows, a.cols, b.rows, b.cols
    );
    let madds = a.rows * a.cols * b.rows;
    run_matmul_into(a, b, a.rows, b.rows, madds, false, matmul_t_panel, out);
}

/// Blocked `A·Bᵀ` that always runs on the caller thread.
pub fn matmul_t_serial(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols, b.cols, "matmul_t_serial: column mismatch");
    let mut out = Tensor::zeros(a.rows, b.rows);
    matmul_t_panel(a, b, 0..a.rows, &mut out.data);
    out
}

/// Blocked `A·Bᵀ` that always goes through the pool (tests/benches).
pub fn matmul_t_parallel(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.cols, b.cols, "matmul_t_parallel: column mismatch");
    run_matmul(a, b, a.rows, b.rows, usize::MAX, true, matmul_t_panel)
}

// ---------------------------------------------------------------------------
// Transpose and elementwise kernels
// ---------------------------------------------------------------------------

/// Cache-blocked transpose: `TB×TB` tiles keep both the read rows and
/// the written columns resident, instead of striding the whole output
/// per input row.
pub fn transpose(t: &Tensor) -> Tensor {
    let (rows, cols) = (t.rows, t.cols);
    let mut out = Tensor::zeros(cols, rows);
    for rb in (0..rows).step_by(TB) {
        let re = (rb + TB).min(rows);
        for cb in (0..cols).step_by(TB) {
            let ce = (cb + TB).min(cols);
            for r in rb..re {
                let row = &t.data[r * cols + cb..r * cols + ce];
                for (c, &v) in row.iter().enumerate() {
                    out.data[(cb + c) * rows + r] = v;
                }
            }
        }
    }
    out
}

/// Elementwise map into a caller-supplied buffer (fully overwritten,
/// so recycled buffers with stale contents are fine), parallel above
/// [`ELEMWISE_PAR_THRESHOLD`] with the same split as [`map`].
pub fn map_into(t: &Tensor, out: &mut [f32], f: impl Fn(f32) -> f32 + Sync) {
    let n = t.len();
    debug_assert_eq!(out.len(), n);
    if n < ELEMWISE_PAR_THRESHOLD || pool().threads() <= 1 {
        for (o, &v) in out.iter_mut().zip(t.data.iter()) {
            *o = f(v);
        }
    } else {
        let ptr = SendPtr(out.as_mut_ptr());
        parallel_for(n, ELEMWISE_GRAIN, move |r| {
            // SAFETY: disjoint chunks of `out`, which outlives the call.
            let sub = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
            for (o, &v) in sub.iter_mut().zip(t.data[r].iter()) {
                *o = f(v);
            }
        });
    }
}

/// Elementwise map, parallel above [`ELEMWISE_PAR_THRESHOLD`].
pub fn map(t: &Tensor, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
    let mut out = vec![0.0f32; t.len()];
    map_into(t, &mut out, f);
    Tensor {
        rows: t.rows,
        cols: t.cols,
        data: out,
    }
}

/// Elementwise zip into a caller-supplied buffer (fully overwritten),
/// parallel above [`ELEMWISE_PAR_THRESHOLD`] with the same split as
/// [`zip`].
pub fn zip_into(a: &Tensor, b: &Tensor, out: &mut [f32], f: impl Fn(f32, f32) -> f32 + Sync) {
    debug_assert_eq!((a.rows, a.cols), (b.rows, b.cols));
    let n = a.len();
    debug_assert_eq!(out.len(), n);
    if n < ELEMWISE_PAR_THRESHOLD || pool().threads() <= 1 {
        for ((o, &x), &y) in out.iter_mut().zip(a.data.iter()).zip(b.data.iter()) {
            *o = f(x, y);
        }
    } else {
        let ptr = SendPtr(out.as_mut_ptr());
        parallel_for(n, ELEMWISE_GRAIN, move |r| {
            // SAFETY: disjoint chunks of `out`, which outlives the call.
            let sub = unsafe { std::slice::from_raw_parts_mut(ptr.get().add(r.start), r.len()) };
            for ((o, &x), &y) in sub
                .iter_mut()
                .zip(a.data[r.clone()].iter())
                .zip(b.data[r].iter())
            {
                *o = f(x, y);
            }
        });
    }
}

/// Elementwise zip, parallel above [`ELEMWISE_PAR_THRESHOLD`].
pub fn zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32 + Sync) -> Tensor {
    let mut out = vec![0.0f32; a.len()];
    zip_into(a, b, &mut out, f);
    Tensor {
        rows: a.rows,
        cols: a.cols,
        data: out,
    }
}

/// In-place broadcast add of a `1×m` row to every row of an `n×m`
/// tensor, parallel over rows above [`ELEMWISE_PAR_THRESHOLD`].
pub fn add_row_inplace(x: &mut Tensor, row: &[f32]) {
    debug_assert_eq!(x.cols, row.len());
    let cols = x.cols;
    let rows = x.rows;
    if x.len() < ELEMWISE_PAR_THRESHOLD || pool().threads() <= 1 {
        for r in 0..rows {
            for (o, &b) in x.row_slice_mut(r).iter_mut().zip(row.iter()) {
                *o += b;
            }
        }
        return;
    }
    let ptr = SendPtr(x.data.as_mut_ptr());
    parallel_for(rows, (rows / (pool().threads() * 4)).max(1), move |rr| {
        // SAFETY: disjoint row ranges of `x`, which outlives the call.
        let sub = unsafe {
            std::slice::from_raw_parts_mut(ptr.get().add(rr.start * cols), rr.len() * cols)
        };
        for chunk in sub.chunks_exact_mut(cols) {
            for (o, &b) in chunk.iter_mut().zip(row.iter()) {
                *o += b;
            }
        }
    });
}

/// The logistic sigmoid `1 / (1 + e^-x)` of the tape's `sigmoid` and
/// `bce_with_logits` ops and of [`lstm_gates`].
#[inline]
pub(crate) fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// One LSTM timestep: the one definition of the cell's gate math, which
/// the tape's [`lstm`](crate::Tape::lstm) op and the tape-free encoders
/// share, so training and inference compute the same bits.
///
/// `xw` (the step's input projection), `hw` (the recurrent product
/// `h·Wh`) and `b` are `4h`-wide rows in `[i|f|o|g]` column blocks;
/// `c_prev` is the previous cell state. `out` (`7h` wide) receives
/// `[i|f|o|g|c|tanh c|h]`:
///
/// `z = (xw + hw) + b`, `i, f, o = σ(z)`, `g = tanh z`,
/// `c = f·c_prev + i·g`, `h = o·tanh c`.
pub fn lstm_gates(xw: &[f32], hw: &[f32], b: &[f32], c_prev: &[f32], out: &mut [f32]) {
    let hd = c_prev.len();
    assert!(
        xw.len() == 4 * hd && hw.len() == 4 * hd && b.len() == 4 * hd && out.len() == 7 * hd,
        "lstm_gates: rows of {}, {}, {} and {} for h = {hd}",
        xw.len(),
        hw.len(),
        b.len(),
        out.len()
    );
    // One pass per activation: each libm call is independent of the
    // next, so consecutive calls overlap.
    let (gates, state) = out.split_at_mut(4 * hd);
    let z = |k: usize| (xw[k] + hw[k]) + b[k];
    for (k, y) in gates[..3 * hd].iter_mut().enumerate() {
        *y = sigmoid(z(k));
    }
    for (k, y) in gates.iter_mut().enumerate().skip(3 * hd) {
        *y = z(k).tanh();
    }
    let (ifo, g) = gates.split_at(3 * hd);
    let (i, fo) = ifo.split_at(hd);
    let (f, o) = fo.split_at(hd);
    let (c, rest) = state.split_at_mut(hd);
    let (tc, h) = rest.split_at_mut(hd);
    for j in 0..hd {
        c[j] = f[j] * c_prev[j] + i[j] * g[j];
    }
    for (t, &cj) in tc.iter_mut().zip(c.iter()) {
        *t = cj.tanh();
    }
    for j in 0..hd {
        h[j] = o[j] * tc[j];
    }
}

/// One Adam step's coefficients, as [`adam_update`] applies them.
#[derive(Clone, Copy, Debug)]
pub struct AdamCoeffs {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Added to the root of the corrected second moment.
    pub eps: f32,
    /// Reciprocal first-moment bias correction `1/(1-beta1^t)`.
    pub inv_bc1: f32,
    /// Reciprocal second-moment bias correction `1/(1-beta2^t)`.
    pub inv_bc2: f32,
}

/// The bits of `2⁻¹⁰⁰`: a first moment nonzero and smaller than this in
/// magnitude sends its element's first-moment products and divide
/// through f64 lanes (see [`adam_update`]).
const TINY_MOMENT_BITS: u32 = (127 - 100) << 23;

/// Whether the first moment `m` sends its element through f64 lanes.
#[inline]
fn tiny_moment(m: f32) -> bool {
    m != 0.0 && m.abs() < f32::from_bits(TINY_MOMENT_BITS)
}

/// One Adam step over a parameter's elements: the one definition of
/// the optimiser's per-element update. With `c1 = 1-beta1` and
/// `c2 = 1-beta2` taken in f32, each element runs, every operation
/// rounded to f32,
///
/// `m = beta1·m + c1·g`, `v = beta2·v + (c2·g)·g`,
/// `mhat = m·inv_bc1`, `vhat = v·inv_bc2`,
/// `p -= (lr·mhat) / (√vhat + eps)`.
///
/// A unit whose gradient stays exactly zero keeps a subnormal first
/// moment for good (`0.9·k·2⁻¹⁴⁹` rounds back to `k·2⁻¹⁴⁹` for
/// `k ≤ 4`), and the x86 FPU multiplies and divides an f32 subnormal
/// through a microcode assist (≈ 12 ns against 0.14). So the AVX2 lane
/// runs in blocks of eight elements (the portable lane, per element),
/// and a block whose first moments include one below 2⁻¹⁰⁰ in
/// magnitude (zero excepted) runs `beta1·m`,
/// `m·inv_bc1`, `lr·mhat` and the divide in f64 lanes, narrowing to f32
/// after each. A product or quotient of f32 operands rounded once to
/// binary64 and then to binary32 equals the directly rounded f32 result
/// (binary64 carries more than `2·24+2` significand bits), so those
/// bits match; and an f32 subnormal is an ordinary f64 number. Every
/// other operation, and every block without such a moment, runs in f32
/// as written. Both forms give the f32 loop's bits for every input; the
/// choice only decides where an assist can still occur (a second moment
/// or gradient below `2⁻¹²⁶`, or a first moment that cancels to one).
///
/// One operand of each f64 operation passes [`opaque`] (in the portable
/// lane, [`std::hint::black_box`]): LLVM would otherwise fold
/// `f32(f64(a) ⊗ f64(b))` back into the f32 operation (the fold is
/// exact, so it is allowed to) and bring the assist back.
///
/// # Panics
/// Panics unless `g`, `m` and `v` have `p`'s length.
pub fn adam_update(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], k: &AdamCoeffs) {
    let n = p.len();
    assert!(
        g.len() == n && m.len() == n && v.len() == n,
        "adam_update: param of {n} elements, grad of {}, moments of {} and {}",
        g.len(),
        m.len(),
        v.len()
    );
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the required CPU feature was just verified.
        return unsafe { adam_update_avx2(p, g, m, v, k) };
    }
    adam_update_body(p, g, m, v, k)
}

/// The portable lane of [`adam_update`]: one element at a time, the
/// f64 choice made per element, each widened operand hidden behind
/// [`std::hint::black_box`]. Miri and hosts without AVX2 run it; the
/// unit tests pin it to the AVX2 lane.
fn adam_update_body(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], k: &AdamCoeffs) {
    let wide = |x: f32| std::hint::black_box(f64::from(x));
    let (c1, c2) = (1.0 - k.beta1, 1.0 - k.beta2);
    for (((pi, &gi), mi), vi) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        *vi = k.beta2 * *vi + c2 * gi * gi;
        let den = (*vi * k.inv_bc2).sqrt() + k.eps;
        if tiny_moment(*mi) {
            *mi = (wide(*mi) * f64::from(k.beta1)) as f32 + c1 * gi;
            let mhat = (wide(*mi) * f64::from(k.inv_bc1)) as f32;
            let num = (wide(mhat) * f64::from(k.lr)) as f32;
            *pi -= (wide(num) / wide(den)) as f32;
        } else {
            *mi = k.beta1 * *mi + c1 * gi;
            *pi -= k.lr * (*mi * k.inv_bc1) / den;
        }
    }
}

/// An optimization barrier for one vector of widened values: an empty
/// `asm!` that LLVM must assume rewrites the register, so a later
/// narrowing cannot be traced back to an f32 operand and folded into a
/// single-precision instruction. It emits no instruction.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
#[target_feature(enable = "avx2")]
fn opaque(mut x: std::arch::x86_64::__m256d) -> std::arch::x86_64::__m256d {
    // SAFETY: the template is empty: it reads and writes nothing but
    // the one register it is handed, and touches no memory or flags.
    unsafe {
        std::arch::asm!("/* {0} */", inout(ymm_reg) x, options(pure, nomem, nostack, preserves_flags));
    }
    x
}

/// `x·y`, or `x/y` when `DIVIDE`, on eight f32 lanes as two f64 quads,
/// each result narrowed to f32: an f32 subnormal operand or result
/// costs what any other does. The widened `x` passes [`opaque`], which
/// keeps LLVM from folding the quad back into an f32 operation.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
#[target_feature(enable = "avx2")]
fn in_f64<const DIVIDE: bool>(
    x: std::arch::x86_64::__m256,
    y: std::arch::x86_64::__m256,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let half = |x: __m128, y: __m128| {
        let (a, b) = (opaque(_mm256_cvtps_pd(x)), _mm256_cvtps_pd(y));
        _mm256_cvtpd_ps(if DIVIDE {
            _mm256_div_pd(a, b)
        } else {
            _mm256_mul_pd(a, b)
        })
    };
    let lo = half(_mm256_castps256_ps128(x), _mm256_castps256_ps128(y));
    let hi = half(_mm256_extractf128_ps::<1>(x), _mm256_extractf128_ps::<1>(y));
    _mm256_set_m128(hi, lo)
}

/// Whether any of eight first moments is nonzero and below 2⁻¹⁰⁰ in
/// magnitude, tested on the bits so no float operation sees it: with
/// `|m|`'s bits less one, zero wraps to the top of the unsigned range.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
#[target_feature(enable = "avx2")]
fn holds_tiny_moment(m: std::arch::x86_64::__m256) -> bool {
    use std::arch::x86_64::*;
    let magnitude = _mm256_and_si256(_mm256_castps_si256(m), _mm256_set1_epi32(i32::MAX));
    let below = _mm256_sub_epi32(magnitude, _mm256_set1_epi32(1));
    let floor = _mm256_set1_epi32(TINY_MOMENT_BITS as i32 - 1);
    let clear = _mm256_cmpeq_epi32(_mm256_max_epu32(below, floor), below);
    _mm256_movemask_ps(_mm256_castsi256_ps(clear)) != 0xff
}

/// One block of eight elements of [`adam_update`] in `ymm` lanes.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[inline]
#[target_feature(enable = "avx2")]
fn adam_block(p: &mut [f32; 8], g: &[f32; 8], m: &mut [f32; 8], v: &mut [f32; 8], k: &AdamCoeffs) {
    use std::arch::x86_64::*;
    let s = _mm256_set1_ps;
    // SAFETY: each pointer addresses eight in-bounds f32s.
    let (pv, gv, mv, vv) = unsafe {
        (
            _mm256_loadu_ps(p.as_ptr()),
            _mm256_loadu_ps(g.as_ptr()),
            _mm256_loadu_ps(m.as_ptr()),
            _mm256_loadu_ps(v.as_ptr()),
        )
    };
    let vn = _mm256_add_ps(
        _mm256_mul_ps(s(k.beta2), vv),
        _mm256_mul_ps(_mm256_mul_ps(s(1.0 - k.beta2), gv), gv),
    );
    let den = _mm256_add_ps(_mm256_sqrt_ps(_mm256_mul_ps(vn, s(k.inv_bc2))), s(k.eps));
    let cg = _mm256_mul_ps(s(1.0 - k.beta1), gv);
    let (mn, step) = if holds_tiny_moment(mv) {
        let mul = |x, c: f32| in_f64::<false>(x, s(c));
        let mn = _mm256_add_ps(mul(mv, k.beta1), cg);
        // From step ~160 at beta1 = 0.9 the correction is exactly 1, and
        // `x·1` is `x` bit for bit (an add never yields a signalling NaN).
        let mhat = if k.inv_bc1 == 1.0 {
            mn
        } else {
            mul(mn, k.inv_bc1)
        };
        let num = mul(mhat, k.lr);
        (mn, in_f64::<true>(num, den))
    } else {
        let mn = _mm256_add_ps(_mm256_mul_ps(s(k.beta1), mv), cg);
        let num = _mm256_mul_ps(s(k.lr), _mm256_mul_ps(mn, s(k.inv_bc1)));
        (mn, _mm256_div_ps(num, den))
    };
    // SAFETY: as for the loads.
    unsafe {
        _mm256_storeu_ps(m.as_mut_ptr(), mn);
        _mm256_storeu_ps(v.as_mut_ptr(), vn);
        _mm256_storeu_ps(p.as_mut_ptr(), _mm256_sub_ps(pv, step));
    }
}

/// The AVX2 lane of [`adam_update`]: blocks of eight elements; the last
/// `n % 8` run as one block on zero-padded copies.
#[cfg(all(target_arch = "x86_64", not(miri)))]
#[target_feature(enable = "avx2")]
fn adam_update_avx2(p: &mut [f32], g: &[f32], m: &mut [f32], v: &mut [f32], k: &AdamCoeffs) {
    let block = "chunks_exact(8) yields 8 elements";
    let (pc, gc, mc, vc) = (
        p.chunks_exact_mut(8),
        g.chunks_exact(8),
        m.chunks_exact_mut(8),
        v.chunks_exact_mut(8),
    );
    let tail = pc.len() * 8;
    for (((p, g), m), v) in pc.zip(gc).zip(mc).zip(vc) {
        adam_block(
            p.try_into().expect(block),
            g.try_into().expect(block),
            m.try_into().expect(block),
            v.try_into().expect(block),
            k,
        );
    }
    let r = p.len() - tail;
    if r > 0 {
        let pad = |s: &[f32]| {
            let mut q = [0.0f32; 8];
            q[..r].copy_from_slice(&s[tail..]);
            q
        };
        let (mut pq, gq, mut mq, mut vq) = (pad(p), pad(g), pad(m), pad(v));
        adam_block(&mut pq, &gq, &mut mq, &mut vq, k);
        p[tail..].copy_from_slice(&pq[..r]);
        m[tail..].copy_from_slice(&mq[..r]);
        v[tail..].copy_from_slice(&vq[..r]);
    }
}

/// Fill each slot of `out` from `f(index)`, in parallel when the pool
/// has idle threads. Used by batch forward paths (e.g. LSTM lanes)
/// where every lane is independent.
pub fn parallel_fill<T: Send>(out: &mut [T], f: impl Fn(usize) -> T + Sync) {
    if out.is_empty() {
        return;
    }
    let ptr = SendPtr(out.as_mut_ptr());
    parallel_for(out.len(), 1, move |r| {
        for i in r {
            // SAFETY: disjoint indices; `out` outlives the call and the
            // old value at the slot is a valid `T` to drop-replace.
            unsafe { *ptr.get().add(i) = f(i) };
        }
    });
}

// ---------------------------------------------------------------------------
// Reference (seed) kernels
// ---------------------------------------------------------------------------

/// The seed's naive kernels, kept verbatim — including the
/// dense-defeating `a == 0.0` skip — as the baseline the blocked
/// kernels are equivalence-tested and benchmarked against.
pub mod reference {
    use crate::tensor::Tensor;

    /// Seed `A·B`: ikj triple loop with the zero-skip branch.
    pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols, b.rows, "reference matmul: inner mismatch");
        let mut out = Tensor::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            let arow = a.row_slice(i);
            let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
            for (k, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &b.data[k * b.cols..(k + 1) * b.cols];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Seed `Aᵀ·B`.
    pub fn t_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.rows, b.rows, "reference t_matmul: row mismatch");
        let mut out = Tensor::zeros(a.cols, b.cols);
        for r in 0..a.rows {
            let arow = a.row_slice(r);
            let brow = b.row_slice(r);
            for (i, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Seed `A·Bᵀ`.
    pub fn matmul_t(a: &Tensor, b: &Tensor) -> Tensor {
        assert_eq!(a.cols, b.cols, "reference matmul_t: column mismatch");
        let mut out = Tensor::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            let arow = a.row_slice(i);
            for j in 0..b.rows {
                let brow = b.row_slice(j);
                let mut acc = 0.0;
                for (x, y) in arow.iter().zip(brow.iter()) {
                    acc += x * y;
                }
                out.data[i * b.rows + j] = acc;
            }
        }
        out
    }

    /// Seed strided-copy transpose.
    pub fn transpose(t: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(t.cols, t.rows);
        for r in 0..t.rows {
            for c in 0..t.cols {
                out.data[c * t.rows + r] = t.data[r * t.cols + c];
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rel_close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
        a.data
            .iter()
            .zip(b.data.iter())
            .all(|(&x, &y)| (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0))
    }

    #[test]
    fn blocked_matmuls_match_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[(1, 1, 1), (5, 7, 3), (4, 4, 4), (33, 17, 65), (130, 70, 90)] {
            let a = Tensor::randn(m, k, 1.0, &mut rng);
            let b = Tensor::randn(k, n, 1.0, &mut rng);
            assert!(rel_close(
                &matmul_serial(&a, &b),
                &reference::matmul(&a, &b),
                1e-5
            ));
            let at = Tensor::randn(k, m, 1.0, &mut rng);
            assert!(rel_close(
                &t_matmul_serial(&at, &b),
                &reference::t_matmul(&at, &b),
                1e-5
            ));
            let bt = Tensor::randn(n, k, 1.0, &mut rng);
            assert!(rel_close(
                &matmul_t_serial(&a, &bt),
                &reference::matmul_t(&a, &bt),
                1e-5
            ));
        }
    }

    #[test]
    fn parallel_is_bitwise_serial() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = Tensor::randn(67, 41, 1.0, &mut rng);
        let b = Tensor::randn(41, 53, 1.0, &mut rng);
        assert_eq!(matmul_parallel(&a, &b).data, matmul_serial(&a, &b).data);
        let c = Tensor::randn(67, 53, 1.0, &mut rng);
        assert_eq!(t_matmul_parallel(&a, &c).data, t_matmul_serial(&a, &c).data);
        let d = Tensor::randn(29, 41, 1.0, &mut rng);
        assert_eq!(matmul_t_parallel(&a, &d).data, matmul_t_serial(&a, &d).data);
    }

    #[test]
    fn matmul_t_into_overwrites_its_output() {
        let mut rng = StdRng::seed_from_u64(16);
        // Both sides of the k < 8 cut, one shape past the pool threshold.
        for &(m, k, n) in &[
            (5, 1, 9),
            (7, 3, 4),
            (6, 8, 5),
            (9, 19, 11),
            (1024, 2, 1024),
        ] {
            let a = Tensor::randn(m, k, 1.0, &mut rng);
            let b = Tensor::randn(n, k, 1.0, &mut rng);
            let mut out = vec![f32::NAN; m * n];
            matmul_t_into(&a, &b, &mut out);
            let want = matmul_t(&a, &b);
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&want.data), "{m}x{k} · ({n}x{k})ᵀ");
        }
    }

    #[test]
    fn transpose_blocked_matches_reference_non_square() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(r, c) in &[(1, 1), (1, 40), (40, 1), (33, 65), (100, 7), (64, 64)] {
            let t = Tensor::randn(r, c, 1.0, &mut rng);
            let fast = transpose(&t);
            let slow = reference::transpose(&t);
            assert_eq!(fast.rows, c);
            assert_eq!(fast.cols, r);
            assert_eq!(fast.data, slow.data, "{r}x{c}");
        }
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = StdRng::seed_from_u64(14);
        let t = Tensor::randn(37, 83, 1.0, &mut rng);
        assert_eq!(transpose(&transpose(&t)), t);
    }

    #[test]
    fn parallel_for_covers_all_items_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 64, |r| {
            for i in r {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn nested_parallel_for_runs_inline() {
        let outer = AtomicUsize::new(0);
        parallel_for(8, 1, |r| {
            for _ in r.clone() {
                // Nested call must not deadlock on the pool.
                parallel_for(100, 10, |inner| {
                    outer.fetch_add(inner.len(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(outer.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn pool_reports_at_least_one_thread() {
        assert!(pool().threads() >= 1);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn parallel_fill_each_slot() {
        let mut out = vec![0usize; 777];
        parallel_fill(&mut out, |i| i * 3);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i * 3));
    }

    /// The two lanes of `adam_update` — the portable body, called
    /// directly, and whatever the host dispatches to — agree bit for
    /// bit over every class of f32, with a ragged tail. The first block
    /// holds no tiny first moment, so an AVX2 host runs both of its
    /// forms. (`crates/nn/tests/adam_equiv.rs` pins the dispatched lane
    /// to the f32 loop it replaced.)
    #[test]
    fn adam_update_lanes_agree() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(17);
        let any = |rng: &mut StdRng, classes: u32| -> f32 {
            let x = match rng.gen_range(0..classes) {
                0 => 0.0,
                1 | 2 => rng.gen_range(-4.0f32..4.0),
                3 => f32::from_bits(rng.gen_range(0x7000_0000..0x7f80_0000u32)),
                4 | 5 => f32::from_bits(rng.gen_range(1..1u32 << 23)),
                6 => f32::from_bits(rng.gen_range(0x0080_0000..0x1000_0000u32)),
                _ => [f32::INFINITY, f32::NAN][rng.gen_range(0..2usize)],
            };
            if rng.gen_bool(0.5) {
                -x
            } else {
                x
            }
        };
        let same = |a: &[f32], b: &[f32]| {
            a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
        };
        for &(t, lr) in &[(1, 0.004f32), (3, 10.0), (500, 1e-30), (100_000, 0.01)] {
            let k = AdamCoeffs {
                lr,
                beta1: 0.9,
                beta2: 0.999,
                eps: 1e-8,
                inv_bc1: (1.0 - 0.9f32.powi(t)).recip(),
                inv_bc2: (1.0 - 0.999f32.powi(t)).recip(),
            };
            let n = 37;
            let m0: Vec<f32> = (0..n)
                .map(|i| any(&mut rng, if i < 8 { 4 } else { 8 }))
                .collect();
            assert!(!m0[..8].iter().any(|&m| tiny_moment(m)));
            assert!(m0[8..].iter().any(|&m| tiny_moment(m)));
            let (v0, g, p0): (Vec<f32>, Vec<f32>, Vec<f32>) = (
                (0..n).map(|_| any(&mut rng, 8)).collect(),
                (0..n).map(|_| any(&mut rng, 8)).collect(),
                (0..n).map(|_| any(&mut rng, 8)).collect(),
            );
            let (mut m, mut v, mut p) = (m0.clone(), v0.clone(), p0.clone());
            adam_update_body(&mut p, &g, &mut m, &mut v, &k);
            let (mut md, mut vd, mut pd) = (m0, v0, p0);
            adam_update(&mut pd, &g, &mut md, &mut vd, &k);
            assert!(same(&md, &m), "m, t = {t}");
            assert!(same(&vd, &v), "v, t = {t}");
            assert!(same(&pd, &p), "p, t = {t}");
        }
    }

    #[test]
    fn map_zip_parallel_thresholds_match_serial() {
        let mut rng = StdRng::seed_from_u64(15);
        // Above ELEMWISE_PAR_THRESHOLD so the parallel branch runs when
        // the pool has threads.
        let a = Tensor::randn(300, 300, 1.0, &mut rng);
        let b = Tensor::randn(300, 300, 1.0, &mut rng);
        let m = map(&a, |v| v * 2.0 + 1.0);
        assert!(a
            .data
            .iter()
            .zip(m.data.iter())
            .all(|(&x, &y)| y == x * 2.0 + 1.0));
        let z = zip(&a, &b, |x, y| x - y);
        assert!(z
            .data
            .iter()
            .zip(a.data.iter().zip(b.data.iter()))
            .all(|(&o, (&x, &y))| o == x - y));
    }
}
