//! Request micro-batching: coalesce concurrent submissions into one
//! fused execution.
//!
//! **Batch while busy.** The first request into an empty queue becomes
//! the batch **leader**. If no batch of this batcher is running, it takes
//! the queue and runs the batch function at once, on its own thread. If
//! one is running, it waits until that batch finishes — or until the
//! queue reaches the size cap — and then takes the whole queue. Requests
//! that arrive while a batch executes therefore coalesce into the next
//! one, and a request to an idle batcher waits for nothing: batch size
//! follows load, with no timer and no tuning value. Followers just park
//! on a channel until the leader hands them their slice of the result.
//!
//! Correctness burden: the batch function must be **per-item batch
//! invariant** — item `i`'s output may not depend on which other items
//! shared the batch. dc-serve's match/encode closures get this from the
//! `ROW_TILE`-aligned inference paths (`DeepEr::try_predict_aligned`,
//! `LstmEncoder::encode_batch_aligned`): every GEMM row group is padded
//! to full kernel tiles, so each row's result is a pure bitwise
//! function of that row's inputs for every `DC_THREADS`. The
//! `microbatch_equiv` integration test proves batched == solo bitwise.
//!
//! Validation must happen **before** [`MicroBatcher::submit`]: one
//! malformed request must fail alone with a 4xx, never poison a batch.

use std::sync::mpsc;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

static BATCH_FLUSHES: dc_obs::Counter = dc_obs::Counter::new("serve.batch.flushes");
static BATCH_REQUESTS: dc_obs::Counter = dc_obs::Counter::new("serve.batch.requests");
static BATCH_RUN: dc_obs::Hist = dc_obs::Hist::new("serve.batch.run");
/// Per request, submit → start of the batch it rides in.
static BATCH_WAIT: dc_obs::Hist = dc_obs::Hist::new("serve.batch.wait");

struct Queue<I, O> {
    items: Vec<I>,
    replies: Vec<mpsc::Sender<O>>,
    /// One `serve.batch.wait` timer per item (inert when dc-obs is off).
    waits: Vec<dc_obs::ScopedTimer>,
    /// Whether some thread is currently collecting this queue.
    has_leader: bool,
    /// Batches of this batcher executing right now.
    running: usize,
}

/// A batch-while-busy leader/follower micro-batcher; see the module docs.
pub struct MicroBatcher<I, O> {
    queue: Mutex<Queue<I, O>>,
    /// Signalled when a batch finishes or the queue reaches the size cap:
    /// the two events a waiting leader launches on.
    full: Condvar,
    max: usize,
    #[allow(clippy::type_complexity)]
    run: Box<dyn Fn(Vec<I>) -> Vec<O> + Send + Sync>,
}

impl<I, O> MicroBatcher<I, O> {
    /// Every update leaves the queue valid (a push, a take, a flag or a
    /// count store), so a poisoned lock is recovered, not passed on to
    /// every later request.
    fn lock(&self) -> MutexGuard<'_, Queue<I, O>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<I: Send, O: Send> MicroBatcher<I, O> {
    /// A batcher executing `run` over each coalesced batch of at most
    /// `max` items. `run` must return exactly one output per input, in
    /// order.
    pub fn new(max: usize, run: impl Fn(Vec<I>) -> Vec<O> + Send + Sync + 'static) -> Self {
        MicroBatcher {
            queue: Mutex::new(Queue {
                items: Vec::new(),
                replies: Vec::new(),
                waits: Vec::new(),
                has_leader: false,
                running: 0,
            }),
            full: Condvar::new(),
            max: max.max(1),
            run: Box::new(run),
        }
    }

    /// Submit one item and block until its result arrives (directly,
    /// when this thread ends up leading the batch; via the leader
    /// otherwise).
    pub fn submit(&self, item: I) -> O {
        let (tx, rx) = mpsc::channel();
        let lead = {
            let mut q = self.lock();
            q.items.push(item);
            q.replies.push(tx);
            q.waits.push(BATCH_WAIT.start());
            if q.has_leader {
                if q.items.len() >= self.max {
                    self.full.notify_one();
                }
                false
            } else {
                q.has_leader = true;
                true
            }
        };
        if lead {
            self.lead();
        }
        rx.recv().expect("batch leader dropped the reply channel")
    }

    /// Wait while a batch is running (unless the queue is full), then take
    /// and execute the queue. Runs on the submitting thread of the batch's
    /// first item.
    fn lead(&self) {
        let mut q = self.lock();
        while q.running > 0 && q.items.len() < self.max {
            q = self.full.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
        let items = std::mem::take(&mut q.items);
        let replies = std::mem::take(&mut q.replies);
        let waits = std::mem::take(&mut q.waits);
        q.has_leader = false;
        q.running += 1;
        drop(q);
        let _running = Running(self);
        drop(waits);
        BATCH_FLUSHES.incr();
        BATCH_REQUESTS.add(items.len() as u64);
        let timer = BATCH_RUN.start();
        let outs = (self.run)(items);
        drop(timer);
        debug_assert_eq!(outs.len(), replies.len(), "run must map 1:1");
        for (reply, out) in replies.into_iter().zip(outs) {
            // A follower that gave up (it cannot, today) would surface
            // here as a send error; results for live followers always
            // deliver.
            let _ = reply.send(out);
        }
    }
}

/// Counts a batch out of `running` when it finishes — or unwinds out of a
/// panicking batch function — and wakes the leader waiting on it.
struct Running<'a, I, O>(&'a MicroBatcher<I, O>);

impl<I, O> Drop for Running<'_, I, O> {
    fn drop(&mut self) {
        self.0.lock().running -= 1;
        self.0.full.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn an_idle_submit_runs_as_a_batch_of_one() {
        let sizes = Arc::new(Mutex::new(Vec::new()));
        let seen = sizes.clone();
        let b = MicroBatcher::new(8, move |xs: Vec<u32>| {
            seen.lock().unwrap().push(xs.len());
            xs.into_iter().map(|x| x * 2).collect()
        });
        assert_eq!(b.submit(21), 42);
        assert_eq!(b.submit(4), 8);
        assert_eq!(*sizes.lock().unwrap(), [1, 1]);
    }

    /// A batcher whose first batch signals `started` and then blocks until
    /// `release` fires; every batch's items are logged in launch order and
    /// each item maps to itself + 1000, so misrouted replies show.
    struct Gated {
        batcher: MicroBatcher<u64, u64>,
        batches: Arc<Mutex<Vec<Vec<u64>>>>,
        started: mpsc::Receiver<()>,
        release: mpsc::Sender<()>,
    }

    fn gated(max: usize) -> Gated {
        let batches = Arc::new(Mutex::new(Vec::new()));
        let (started_tx, started) = mpsc::channel();
        let (release, release_rx) = mpsc::channel::<()>();
        let (log, gate) = (batches.clone(), Mutex::new((started_tx, release_rx)));
        let batcher = MicroBatcher::new(max, move |xs: Vec<u64>| {
            let first = {
                let mut log = log.lock().unwrap();
                log.push(xs.clone());
                log.len() == 1
            };
            if first {
                let gate = gate.lock().unwrap();
                gate.0.send(()).unwrap();
                gate.1.recv().unwrap();
            }
            xs.into_iter().map(|x| x + 1000).collect()
        });
        Gated {
            batcher,
            batches,
            started,
            release,
        }
    }

    impl Gated {
        fn queued(&self) -> usize {
            self.batcher.lock().items.len()
        }

        fn sizes(&self) -> Vec<usize> {
            self.batches.lock().unwrap().iter().map(Vec::len).collect()
        }
    }

    #[test]
    fn submissions_during_a_run_coalesce_into_exactly_one_next_batch() {
        let g = gated(16);
        let (b, k) = (&g.batcher, 5u64);
        thread::scope(|s| {
            let first = s.spawn(|| b.submit(0));
            g.started.recv().unwrap();
            let followers: Vec<_> = (1..=k).map(|i| s.spawn(move || (i, b.submit(i)))).collect();
            while g.queued() < k as usize {
                thread::yield_now();
            }
            assert_eq!(g.sizes(), [1], "nothing launches while batch 1 runs");
            g.release.send(()).unwrap();
            assert_eq!(first.join().unwrap(), 1000);
            for h in followers {
                let (i, out) = h.join().unwrap();
                assert_eq!(out, i + 1000, "reply routed to its submitter");
            }
        });
        let mut second = g.batches.lock().unwrap()[1].clone();
        second.sort_unstable();
        assert_eq!(g.sizes(), [1, k as usize]);
        assert_eq!(second, (1..=k).collect::<Vec<_>>());
    }

    #[test]
    fn a_full_queue_launches_beside_a_running_batch() {
        let g = gated(3);
        let b = &g.batcher;
        thread::scope(|s| {
            let first = s.spawn(|| b.submit(0));
            g.started.recv().unwrap();
            let followers: Vec<_> = (1..=3u64)
                .map(|i| s.spawn(move || (i, b.submit(i))))
                .collect();
            // All three complete while batch 1 is still blocked.
            for h in followers {
                let (i, out) = h.join().unwrap();
                assert_eq!(out, i + 1000);
            }
            assert_eq!(g.sizes(), [1, 3]);
            assert_eq!(b.lock().running, 1);
            g.release.send(()).unwrap();
            assert_eq!(first.join().unwrap(), 1000);
        });
        assert_eq!(b.lock().running, 0);
    }

    #[test]
    fn a_panicking_batch_function_does_not_wedge_the_batcher() {
        let b = MicroBatcher::new(4, |xs: Vec<u32>| {
            assert!(!xs.contains(&0), "batch function bug");
            xs
        });
        assert!(catch_unwind(AssertUnwindSafe(|| b.submit(0))).is_err());
        assert_eq!(b.lock().running, 0, "the unwound batch was counted out");
        assert_eq!(b.submit(7), 7, "the next leader launches at once");
    }

    #[test]
    fn batcher_outlives_a_thread_that_panicked_holding_its_lock() {
        let b = MicroBatcher::new(4, |xs: Vec<u32>| xs);
        let died = catch_unwind(AssertUnwindSafe(|| {
            let _guard = b.queue.lock().unwrap();
            panic!("submitter dies holding the queue lock");
        }));
        assert!(died.is_err());
        assert!(b.queue.is_poisoned());
        assert_eq!(b.submit(3), 3);
    }
}
