//! The cooperative driver core: a dependency-free, hand-rolled futures
//! executor in the spirit of the in-tree shims — no tokio, no crates.
//!
//! The design splits the run into two lifetimes:
//!
//! * [`Sched`] is the `'static` scheduling core — a run queue of task
//!   *indices*, one atomic state byte per task, and a live-task count.
//!   [`std::task::Waker`] has no lifetime parameter, so wakers must be
//!   `'static`; here a waker carries only `(Arc<Sched>, index)` and
//!   never touches a future, which is what lets the futures themselves
//!   borrow run-local state (cost vectors, chunk queues, the caller's
//!   kernel) without a single `unsafe` block.
//! * [`TaskSlot`] holds the actual future, which may borrow the
//!   enclosing `execute_async` frame (`'env`); driver threads are
//!   *scoped* threads polling `slots[index]`, so every borrow ends
//!   before the entry point returns.
//!
//! Each task's state byte forms a tiny state machine (idle → queued →
//! running, with a "notified" flag for wakes that land mid-poll). The
//! invariants it maintains:
//!
//! * an index is runnable at most once (only the idle→queued
//!   transition enqueues);
//! * at most one driver polls a given future at a time (only a pop
//!   moves queued→running, and a requeue happens only after the
//!   polling driver released the future's lock);
//! * no wakeup is lost: a wake during a poll sets `NOTIFIED`, which the
//!   polling driver converts into a requeue; a wake before a poll is
//!   subsumed by that poll (futures re-check their readiness
//!   condition, they never rely on wake counting).
//!
//! Runnable tasks live in **per-driver run queues** rather than one
//! shared injector: each driver owns a cache-padded FIFO deque plus a
//! single-entry **LIFO slot**. A wake raised *from* a driver thread
//! (the common case — an op readied by the one that just completed
//! there) lands in that driver's LIFO slot, so the freshly
//! unblocked dependent runs next while its inputs are still warm; the
//! slot's previous occupant is demoted to the back of the same
//! driver's deque. Cooperative yields requeue at the *back* of the
//! yielding driver's own deque (FIFO — at one driver this reproduces
//! the canonical interleaving exactly). Wakes from outside any driver
//! are distributed round-robin. A driver out of local work **steals
//! half** a victim's deque from the back; only when the LIFO slot, the
//! own deque, and every victim come up empty does it park, on the run's
//! one [`Parking`] — the pool's workers sleep on the same kind.

use crate::parking::Parking;
use orchestra_machine::ProcStats;
use std::cell::Cell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::time::Instant;

/// A spawned task's future: `'env` lets op bodies borrow the run's
/// shared state and the caller's kernel (the drivers are joined — or, on
/// a lent crew, all returned — before the run's frame is left).
pub(crate) type TaskFuture<'env> = Pin<Box<dyn Future<Output = ()> + Send + 'env>>;

/// One spawned task. The mutex is never contended — the state machine
/// guarantees a single driver polls a given slot at a time — it only
/// converts "logically exclusive" into something the borrow checker
/// and `Sync` can see.
pub(crate) struct TaskSlot<'env> {
    future: Mutex<TaskFuture<'env>>,
}

impl<'env> TaskSlot<'env> {
    pub(crate) fn new(future: TaskFuture<'env>) -> Self {
        TaskSlot { future: Mutex::new(future) }
    }
}

/// Task scheduling states (see module docs for the machine).
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

/// Sentinel for an empty LIFO slot.
const NO_TASK: usize = usize::MAX;

/// Cache-line padding so neighbouring drivers' queue state never
/// false-shares.
#[repr(align(64))]
struct Pad<T>(T);

/// One driver's local run-queue state.
struct DriverQueue {
    /// Single-entry LIFO slot (`NO_TASK` = empty). Written **only by
    /// the owning driver's thread** — wakes raised from thread `d` go
    /// to slot `d` — so there is no write race to reason about, and a
    /// driver always drains its own slot before parking.
    lifo: AtomicUsize,
    /// The driver's FIFO deque: yields requeue at the back, thieves
    /// take from the back.
    deque: Mutex<VecDeque<usize>>,
}

/// The `'static` scheduling core shared by drivers and wakers.
pub(crate) struct Sched {
    /// Per-driver run queues (LIFO slot + deque).
    queues: Vec<Pad<DriverQueue>>,
    /// Round-robin cursor for wakes raised outside any driver thread.
    external: AtomicUsize,
    /// Where idle drivers sleep: notified on every enqueue, broadcast
    /// when the last task completes or the run stops.
    parking: Arc<Parking>,
    /// One state byte per task.
    states: Vec<AtomicU8>,
    /// Tasks not yet complete; drivers exit when this reaches zero.
    live: AtomicUsize,
}

impl Sched {
    /// A scheduler over `tasks` tasks for `drivers` driver threads
    /// parking on `parking`, initially dealt round-robin across the
    /// per-driver deques in index order (at one driver: a single FIFO
    /// queue in index order — the deterministic canonical interleaving).
    pub(crate) fn new(tasks: usize, drivers: usize, parking: Arc<Parking>) -> Arc<Self> {
        let drivers = drivers.max(1);
        let mut deques: Vec<VecDeque<usize>> = (0..drivers).map(|_| VecDeque::new()).collect();
        for i in 0..tasks {
            deques[i % drivers].push_back(i);
        }
        Arc::new(Sched {
            queues: deques
                .into_iter()
                .map(|q| Pad(DriverQueue { lifo: AtomicUsize::new(NO_TASK), deque: Mutex::new(q) }))
                .collect(),
            external: AtomicUsize::new(0),
            parking,
            states: (0..tasks).map(|_| AtomicU8::new(QUEUED)).collect(),
            live: AtomicUsize::new(tasks),
        })
    }

    /// Makes task `i` runnable (the waker entry point). Idle tasks are
    /// queued; a task being polled right now is flagged so its driver
    /// requeues it; queued/flagged/done tasks need nothing.
    pub(crate) fn schedule(&self, i: usize) {
        let s = &self.states[i];
        let mut cur = s.load(Ordering::Relaxed);
        loop {
            let next = match cur {
                IDLE => QUEUED,
                RUNNING => NOTIFIED,
                _ => return,
            };
            match s.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => {
                    if next == QUEUED {
                        self.enqueue(i);
                    }
                    return;
                }
                Err(seen) => cur = seen,
            }
        }
    }

    /// Routes a newly-runnable task: wakes from a driver thread take
    /// that driver's LIFO slot (demoting its previous occupant to the
    /// deque back); wakes from anywhere else round-robin over the
    /// deques.
    fn enqueue(&self, i: usize) {
        match current_driver().filter(|&d| d < self.queues.len()) {
            Some(d) => {
                let q = &self.queues[d].0;
                let prev = q.lifo.swap(i, Ordering::AcqRel);
                if prev != NO_TASK {
                    q.deque.lock().expect("driver deque poisoned").push_back(prev);
                }
            }
            None => {
                let d = self.external.fetch_add(1, Ordering::Relaxed) % self.queues.len();
                self.queues[d].0.deque.lock().expect("driver deque poisoned").push_back(i);
            }
        }
        self.parking.notify(false);
    }

    /// Requeues a mid-poll-notified task at the back of driver `id`'s
    /// own deque — cooperative yields stay FIFO on their home driver.
    fn requeue_local(&self, id: usize, i: usize) {
        self.queues[id].0.deque.lock().expect("driver deque poisoned").push_back(i);
        self.parking.notify(false);
    }

    /// Pops driver `id`'s next runnable task: own LIFO slot, then own
    /// deque front, then stealing; parks until there is work, every
    /// task is done or the run is `stopping` (`None` = shut down). A
    /// driver that leaves on a stop wakes the others to it.
    fn next_task(
        &self,
        id: usize,
        steals: &mut u64,
        stopping: &impl Fn() -> bool,
    ) -> Option<usize> {
        let own = &self.queues[id].0;
        loop {
            if stopping() {
                self.parking.broadcast();
                return None;
            }
            let t = own.lifo.swap(NO_TASK, Ordering::AcqRel);
            if t != NO_TASK {
                return Some(t);
            }
            if let Some(t) = own.deque.lock().expect("driver deque poisoned").pop_front() {
                return Some(t);
            }
            if let Some(t) = self.steal(id) {
                *steals += 1;
                return Some(t);
            }
            let done = || self.live.load(Ordering::Acquire) == 0;
            if done() {
                return None;
            }
            // Only this thread fills its own LIFO slot: the deques are
            // all another driver can have made runnable.
            let queued = || {
                self.queues
                    .iter()
                    .any(|q| !q.0.deque.lock().expect("driver deque poisoned").is_empty())
            };
            self.parking.park(queued, || done() || stopping());
        }
    }

    /// Steals half of the first non-empty victim's deque (from the
    /// back), keeping one task and parking the rest in the thief's own
    /// deque. Victims' LIFO slots are never touched — only the owner
    /// writes those.
    fn steal(&self, id: usize) -> Option<usize> {
        let n = self.queues.len();
        for off in 1..n {
            let victim = &self.queues[(id + off) % n].0;
            let mut taken = {
                let mut vq = victim.deque.lock().expect("driver deque poisoned");
                let len = vq.len();
                if len == 0 {
                    continue;
                }
                vq.split_off(len - len.div_ceil(2))
            };
            let first = taken.pop_front().expect("stole at least one task");
            if !taken.is_empty() {
                let mut own = self.queues[id].0.deque.lock().expect("driver deque poisoned");
                own.extend(taken);
            }
            return Some(first);
        }
        None
    }

    fn finish_one(&self) {
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last task done: every parked driver must wake and exit.
            self.parking.broadcast();
        }
    }
}

/// What a waker carries: the `'static` core plus a task index — never
/// the future itself.
struct WakeHandle {
    sched: Arc<Sched>,
    index: usize,
}

impl Wake for WakeHandle {
    fn wake(self: Arc<Self>) {
        self.sched.schedule(self.index);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.sched.schedule(self.index);
    }
}

thread_local! {
    /// Which driver is polling on this thread (`usize::MAX` = none) —
    /// lets op futures attribute tasks/chunks to the driver that
    /// actually ran them without threading an id through every poll.
    static DRIVER_ID: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The driver currently polling on this thread, if any.
pub(crate) fn current_driver() -> Option<usize> {
    let id = DRIVER_ID.with(Cell::get);
    (id != usize::MAX).then_some(id)
}

/// What one driver thread reports back: poll-time accounting (tasks
/// and chunks come from the executed-chunk log the op futures fill via
/// [`current_driver`]).
pub(crate) struct DriverRecord {
    /// Time spent polling futures (µs) — the driver's busy time.
    pub(crate) busy_us: f64,
    /// Run-relative time (µs) of the last poll's end.
    pub(crate) free_at_us: f64,
    /// Futures polled (including polls that immediately returned
    /// `Pending`, e.g. a wake-list registration).
    pub(crate) polls: u64,
    /// Pops satisfied by raiding another driver's deque.
    pub(crate) steals: u64,
}

impl DriverRecord {
    /// Folds this record into a [`ProcStats`] row (the chunk and task
    /// totals come from the driver's executed-chunk log).
    pub(crate) fn into_proc(self, (chunks, tasks): (u64, u64)) -> ProcStats {
        ProcStats { busy: self.busy_us, tasks, chunks, free_at: self.free_at_us }
    }
}

/// One driver thread's main loop: pop, poll, account, repeat until
/// every task is done or the run is `stopping`.
pub(crate) fn drive(
    id: usize,
    sched: &Arc<Sched>,
    slots: &[TaskSlot<'_>],
    epoch: Instant,
    stopping: impl Fn() -> bool,
) -> DriverRecord {
    DRIVER_ID.with(|d| d.set(id));
    let mut rec = DriverRecord { busy_us: 0.0, free_at_us: 0.0, polls: 0, steals: 0 };
    while let Some(i) = sched.next_task(id, &mut rec.steals, &stopping) {
        sched.states[i].store(RUNNING, Ordering::Release);
        let waker = Waker::from(Arc::new(WakeHandle { sched: Arc::clone(sched), index: i }));
        let mut cx = Context::from_waker(&waker);
        let t0 = Instant::now();
        let done = {
            let mut fut = slots[i].future.lock().expect("task future poisoned");
            fut.as_mut().poll(&mut cx).is_ready()
        };
        rec.busy_us += t0.elapsed().as_secs_f64() * 1e6;
        rec.free_at_us = epoch.elapsed().as_secs_f64() * 1e6;
        rec.polls += 1;
        if done {
            sched.states[i].store(DONE, Ordering::Release);
            sched.finish_one();
        } else if sched.states[i]
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            // A wake landed mid-poll: the future saw stale state, so
            // requeue it at the back of this driver's own deque —
            // yields are cooperative and stay FIFO on their home
            // driver.
            sched.states[i].store(QUEUED, Ordering::Release);
            sched.requeue_local(id, i);
        }
    }
    DRIVER_ID.with(|d| d.set(usize::MAX));
    rec
}

/// Cooperative yield: completes on its second poll, after re-queuing
/// the task at the back of the run queue — the chunk-boundary yield
/// point of the async backend.
pub(crate) struct YieldNow {
    yielded: bool,
}

/// Yields the current task once.
pub(crate) fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            // Mid-poll wake: the driver sees NOTIFIED and requeues us.
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

/// Parks the polling task on the wake list `wakers` until `ready()`
/// holds. Register-then-recheck: if [`wake_all`] drained the list
/// between the first look and the registration, the drain missed this
/// task — the second look, taken after the list's lock, closes that
/// lost-wakeup window as long as whatever `ready()` reads was written
/// before the drain. (The symmetric race leaves a stale waker behind;
/// its wake hits a task that is queued, past this wait or done, and is
/// a no-op or one re-check.)
pub(crate) async fn park_until(wakers: &Mutex<Vec<Waker>>, ready: impl Fn() -> bool) {
    std::future::poll_fn(|cx| {
        if ready() {
            return Poll::Ready(());
        }
        wakers.lock().expect("wake list poisoned").push(cx.waker().clone());
        if ready() {
            Poll::Ready(())
        } else {
            Poll::Pending
        }
    })
    .await;
}

/// Wakes every task parked on `wakers` so far (late registrants see
/// the new state directly in their re-check).
pub(crate) fn wake_all(wakers: &Mutex<Vec<Waker>>) {
    let parked = std::mem::take(&mut *wakers.lock().expect("wake list poisoned"));
    for w in parked {
        w.wake();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    /// Runs `futures` to completion on `drivers` threads.
    fn run_all(futures: Vec<TaskFuture<'_>>, drivers: usize) -> Vec<DriverRecord> {
        let sched = Sched::new(futures.len(), drivers, Arc::default());
        let slots: Vec<TaskSlot<'_>> = futures.into_iter().map(TaskSlot::new).collect();
        let epoch = Instant::now();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..drivers)
                .map(|id| {
                    let sched = Arc::clone(&sched);
                    let slots = &slots;
                    s.spawn(move || drive(id, &sched, slots, epoch, || false))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("driver panicked")).collect()
        })
    }

    #[test]
    fn yields_interleave_cooperative_tasks() {
        // Two tasks alternating yields on ONE driver must interleave:
        // the run queue is FIFO and a yield goes to the back.
        let log = Mutex::new(Vec::new());
        let mk = |tag: u32| {
            let log = &log;
            Box::pin(async move {
                for step in 0..3u32 {
                    log.lock().unwrap().push((tag, step));
                    yield_now().await;
                }
            }) as TaskFuture<'_>
        };
        run_all(vec![mk(0), mk(1)], 1);
        let got = log.into_inner().unwrap();
        assert_eq!(got, vec![(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]);
    }

    #[test]
    fn wake_list_orders_producer_before_consumers() {
        for drivers in [1, 3] {
            let wakers = Mutex::new(Vec::new());
            let open = AtomicBool::new(false);
            let value = AtomicU64::new(0);
            let seen: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            let mut futures: Vec<TaskFuture<'_>> = Vec::new();
            for s in &seen {
                let (wakers, open, value) = (&wakers, &open, &value);
                futures.push(Box::pin(async move {
                    park_until(wakers, || open.load(Ordering::Acquire)).await;
                    s.store(value.load(Ordering::Acquire), Ordering::Release);
                }));
            }
            let (wakers, open, value) = (&wakers, &open, &value);
            futures.push(Box::pin(async move {
                // Let the consumers park on the list first.
                for _ in 0..5 {
                    yield_now().await;
                }
                value.store(42, Ordering::Release);
                open.store(true, Ordering::Release);
                wake_all(wakers);
            }));
            run_all(futures, drivers);
            for s in &seen {
                assert_eq!(s.load(Ordering::Acquire), 42, "consumer ran before it was readied");
            }
        }
    }

    #[test]
    fn an_enabled_op_never_parks() {
        let wakers = Mutex::new(Vec::new());
        let w = &wakers;
        let records = run_all(vec![Box::pin(park_until(w, || true))], 2);
        assert!(wakers.lock().unwrap().is_empty(), "nothing to wait for, nothing registered");
        assert_eq!(records.iter().map(|r| r.polls).sum::<u64>(), 1);
    }

    /// A cancel fired while one driver is parked and the other polls a
    /// task that holds its thread (a chunk, as far as the drivers can
    /// tell). The parked driver has nothing coming — its one task waits
    /// on a wake list nobody drains — and the held task's end readies no
    /// one, so only the driver that leaves on the stop can wake it. Both
    /// drivers return; one nobody woke is a failure, not a hang (the test
    /// wakes it itself, then fails).
    #[test]
    fn a_cancel_wakes_the_parked_driver() {
        use crate::checkpoint::RunCtl;
        use crate::executor::ExecutorOptions;
        use crate::threaded::build_plan;
        use orchestra_delirium::{DelirGraph, NodeKind};

        let mut g = DelirGraph::new();
        g.add_node("A", NodeKind::Task { cost: 1.0 }, None);
        let token = crate::cancel::CancelToken::new();
        let opts = ExecutorOptions { cancel: Some(token.clone()), ..ExecutorOptions::default() };
        let ctl = RunCtl::new(&opts, &build_plan(&g, &opts).expect("valid graph"), 2);
        let (holding, release) = (AtomicBool::new(false), AtomicBool::new(false));
        let never = Mutex::new(Vec::new());
        let futures: Vec<TaskFuture<'_>> = vec![
            Box::pin(async {
                holding.store(true, Ordering::SeqCst);
                while !release.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
            }),
            Box::pin(park_until(&never, || false)),
        ];
        let sched = Sched::new(futures.len(), 2, Arc::clone(&ctl.parking));
        let slots: Vec<TaskSlot<'_>> = futures.into_iter().map(TaskSlot::new).collect();
        let epoch = Instant::now();
        std::thread::scope(|s| {
            let drivers: Vec<_> = (0..2)
                .map(|id| {
                    let (sched, slots, ctl) = (&sched, &slots, &ctl);
                    s.spawn(move || drive(id, sched, slots, epoch, || ctl.stopping()))
                })
                .collect();
            let t0 = Instant::now();
            let watchdog = |what: &str| {
                if t0.elapsed() > std::time::Duration::from_secs(60) {
                    ctl.parking.broadcast();
                    panic!("{what}");
                }
                std::thread::yield_now();
            };
            while !(holding.load(Ordering::SeqCst) && ctl.parking.sleepers() == 1) {
                watchdog("never one driver holding its task and the other parked");
            }
            token.cancel();
            release.store(true, Ordering::SeqCst);
            while !drivers.iter().all(|d| d.is_finished()) {
                watchdog("the parked driver was never woken");
            }
        });
        assert_eq!(sched.live.load(Ordering::SeqCst), 1, "the parked task never ran again");
    }

    #[test]
    fn steal_takes_half_from_victim_back() {
        // 6 tasks dealt over 2 drivers: deque0 = [0,2,4], deque1 =
        // [1,3,5]. Zero the live count so an exhausted scheduler
        // returns None instead of parking.
        let sched = Sched::new(6, 2, Arc::default());
        for _ in 0..6 {
            sched.finish_one();
        }
        let mut steals = 0u64;
        let mut order = Vec::new();
        while let Some(t) = sched.next_task(1, &mut steals, &|| false) {
            order.push(t);
        }
        // Own deque FIFO first; then one steal grabs the back half of
        // deque0 ([2,4] — keeps 2, parks 4 locally), then the parked
        // remainder, then a second steal for the last task.
        assert_eq!(order, vec![1, 3, 5, 2, 4, 0]);
        assert_eq!(steals, 2);
        let mut untouched = 0;
        assert_eq!(sched.next_task(0, &mut untouched, &|| false), None);
        assert_eq!(untouched, 0);
    }

    #[test]
    fn many_tasks_complete_on_few_drivers() {
        // 64 yielding tasks multiplexed over 2 drivers: all complete,
        // poll counts cover at least one poll per yield.
        let counter = AtomicU64::new(0);
        let futures: Vec<TaskFuture<'_>> = (0..64)
            .map(|_| {
                let counter = &counter;
                Box::pin(async move {
                    for _ in 0..4 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        yield_now().await;
                    }
                }) as TaskFuture<'_>
            })
            .collect();
        let records = run_all(futures, 2);
        assert_eq!(counter.load(Ordering::Relaxed), 64 * 4);
        let polls: u64 = records.iter().map(|r| r.polls).sum();
        assert!(polls >= 64 * 4, "polls {polls} < yields");
    }
}
