//! The crew: OS threads that outlive a run.
//!
//! §4.1.2's `finish = setup + compute + lag + comm + sched` charges an
//! operation a *setup* term, not the creation of its processors — they
//! exist before the graph arrives. A [`Crew`] is that for the real
//! backends: a set of parked threads a long-lived caller (the serving
//! daemon) lends to every run through
//! [`ExecutorOptions::crew`](crate::executor::ExecutorOptions::crew),
//! so a run costs futex wakes instead of `clone(2)`s.
//!
//! * [`Crew::run`] is `thread::scope` on borrowed threads: `f(0..n)` on
//!   `n` crew threads at once, the caller blocked until all returned.
//! * [`Crew::spawn`] hands one thread a detached task.
//! * Idle threads are reused most-recently-parked first, and a crew
//!   **never makes a caller wait for a free thread — it grows**: a
//!   daemon's job runner blocks on its own workers, so a fixed-size
//!   crew would deadlock once every thread held a runner.
//! * A thread survives its task's panic and parks again.
//!
//! `run_on_threads` is what the backends call: a lent crew, or — for
//! a one-shot caller that has none — scoped threads spawned and joined
//! around the run, as before crews existed.

use std::any::Any;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};

type Panic = Box<dyn Any + Send>;

/// What a crew thread is handed.
enum Job {
    /// Detached work from [`Crew::spawn`].
    Task(Box<dyn FnOnce() + Send>),
    /// Call `index` of a [`Crew::run`]. `body` borrows that `run`'s
    /// frame behind an erased lifetime: it is called only while
    /// `ticket` is alive (see the `SAFETY` note in `run`).
    Call { body: &'static (dyn Fn(usize) + Sync), index: usize, ticket: Ticket },
    /// The crew is gone: exit.
    Quit,
}

/// One crew thread's mailbox; the thread sleeps on it while idle.
struct Seat {
    job: Mutex<Option<Job>>,
    ready: Condvar,
}

impl Seat {
    fn put(&self, job: Job) {
        *self.job.lock().unwrap_or_else(PoisonError::into_inner) = Some(job);
        self.ready.notify_one();
    }

    fn take(&self) -> Job {
        let mut job = self.job.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match job.take() {
                Some(j) => return j,
                None => job = self.ready.wait(job).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// The parked seats, most recently parked last; `None` once the crew
/// is dropped, which tells a busy thread to exit instead of parking.
type Idle = Mutex<Option<Vec<Arc<Seat>>>>;

/// Counts one `run`'s outstanding calls and keeps its first panic.
/// Shared ownership, not a borrow of the caller's frame: the thread
/// that counts down to zero is still inside `notify_all` when the
/// caller may already have woken, returned and freed that frame.
#[derive(Default)]
struct Latch {
    state: Mutex<(usize, Option<Panic>)>,
    zero: Condvar,
}

/// One outstanding call; dropping it — run or not — counts it down.
struct Ticket(Arc<Latch>);

impl Ticket {
    fn new(latch: &Arc<Latch>) -> Ticket {
        latch.state.lock().unwrap_or_else(PoisonError::into_inner).0 += 1;
        Ticket(Arc::clone(latch))
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.0 -= 1;
        if st.0 == 0 {
            self.0.zero.notify_all();
        }
    }
}

/// Blocks until the latch reads zero when dropped, unwinding included.
struct AllReturned<'a>(&'a Latch);

impl Drop for AllReturned<'_> {
    fn drop(&mut self) {
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.0 > 0 {
            st = self.0.zero.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A crew thread's life: take a job, run it, park, repeat.
fn work(seat: &Arc<Seat>, idle: &Idle) {
    loop {
        let ticket = match seat.take() {
            Job::Quit => return,
            Job::Task(task) => {
                // The panic hook has reported it; the thread lives on.
                let _ = catch_unwind(AssertUnwindSafe(task));
                None
            }
            Job::Call { body, index, ticket } => {
                if let Err(panic) = catch_unwind(AssertUnwindSafe(|| body(index))) {
                    let mut st = ticket.0.state.lock().unwrap_or_else(PoisonError::into_inner);
                    st.1.get_or_insert(panic);
                }
                Some(ticket)
            }
        };
        // Park first, count down second: when a `run` returns, its
        // threads are already idle, so the caller's next run finds them.
        let parked = match &mut *idle.lock().unwrap_or_else(PoisonError::into_inner) {
            Some(seats) => {
                seats.push(Arc::clone(seat));
                true
            }
            None => false,
        };
        drop(ticket);
        if !parked {
            return;
        }
    }
}

/// Seats taken out of the idle set to be given jobs. Those still here
/// at the end go back: creating a thread can fail halfway through a
/// batch, and a parked thread nobody can reach would hang the drop.
struct Taken<'a> {
    idle: &'a Idle,
    seats: Vec<Arc<Seat>>,
}

impl Drop for Taken<'_> {
    fn drop(&mut self) {
        if self.seats.is_empty() {
            return;
        }
        if let Some(idle) = &mut *self.idle.lock().unwrap_or_else(PoisonError::into_inner) {
            idle.append(&mut self.seats);
        }
    }
}

struct Owner {
    idle: Arc<Idle>,
    /// Every thread ever created; they exit only when the crew drops.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for Owner {
    /// Tells every thread to exit — parked ones now, busy ones when
    /// they finish what they hold — and joins them. The last handle
    /// may be dropped by one of the crew's own threads (a detached
    /// task that owned it): that thread is not joined, it exits on its
    /// own when the task returns.
    fn drop(&mut self) {
        let parked = self.idle.lock().unwrap_or_else(PoisonError::into_inner).take();
        for seat in parked.into_iter().flatten() {
            seat.put(Job::Quit);
        }
        let me = thread::current().id();
        let threads = self.threads.get_mut().unwrap_or_else(PoisonError::into_inner);
        for handle in threads.drain(..).filter(|h| h.thread().id() != me) {
            let _ = handle.join();
        }
    }
}

/// A growable set of parked OS threads, lent to runs. Cloning is
/// cheap and shares the one crew; dropping the last handle joins every
/// thread.
#[derive(Clone)]
pub struct Crew(Arc<Owner>);

impl Default for Crew {
    fn default() -> Self {
        Crew::new()
    }
}

impl fmt::Debug for Crew {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Crew").field("threads", &self.threads()).finish()
    }
}

impl Crew {
    /// An empty crew; threads are created as work first needs them.
    pub fn new() -> Self {
        Crew(Arc::new(Owner {
            idle: Arc::new(Mutex::new(Some(Vec::new()))),
            threads: Mutex::new(Vec::new()),
        }))
    }

    /// Threads created so far (idle or busy).
    pub fn threads(&self) -> usize {
        self.0.threads.lock().expect("no holder of this lock can panic").len()
    }

    /// Gives each job a thread of its own: the parked ones, most
    /// recently parked first, then new ones. The parked threads are
    /// all taken before any job is handed out, so a thread that
    /// finishes an early job cannot come back for a later one of the
    /// same batch — the jobs of a batch run at once. Stops at the first
    /// thread the OS refuses; that job and the rest are dropped unrun.
    fn hire(&self, jobs: impl ExactSizeIterator<Item = Job>) -> io::Result<()> {
        let mut taken = Taken { idle: &self.0.idle, seats: Vec::new() };
        {
            let mut idle = self.0.idle.lock().expect("no holder of this lock can panic");
            let idle = idle.as_mut().expect("a live handle keeps the crew open");
            taken.seats = idle.split_off(idle.len().saturating_sub(jobs.len()));
        }
        for job in jobs {
            match taken.seats.pop() {
                Some(seat) => seat.put(job),
                None => {
                    let seat = Arc::new(Seat { job: Mutex::new(Some(job)), ready: Condvar::new() });
                    let idle = Arc::clone(&self.0.idle);
                    let handle = thread::Builder::new().spawn(move || work(&seat, &idle))?;
                    self.0.threads.lock().expect("no holder of this lock can panic").push(handle);
                }
            }
        }
        Ok(())
    }

    /// Runs `task` on a crew thread, detached: nobody waits for it, and
    /// if it panics the thread reports it and parks again. Fails, and
    /// drops `task` unrun, when the OS refuses a thread the crew needed.
    pub fn spawn(&self, task: impl FnOnce() + Send + 'static) -> io::Result<()> {
        self.hire(std::iter::once(Job::Task(Box::new(task))))
    }

    /// Runs `f(0)`, …, `f(n - 1)` on `n` crew threads at once and
    /// returns their results in index order, blocking the caller until
    /// every call has returned; `f` may borrow from the caller's stack.
    ///
    /// # Panics
    ///
    /// If a call panics, the first panic is resumed on the caller —
    /// after every other call has returned. If the OS refuses a thread
    /// the crew needs, the calls that did start are waited for first.
    pub fn run<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let body = |index: usize| {
            let value = f(index);
            *slots[index].lock().expect("each slot has one writer") = Some(value);
        };
        let body: &(dyn Fn(usize) + Sync) = &body;
        // SAFETY: the `'static` is a lie told to the seats, which can
        // only hold `'static` jobs; what must hold is that `body` (and
        // through it `f` and `slots`) is never called once this frame
        // is gone. The reference is copied only into `Job::Call`s made
        // below, each beside a `Ticket`; a crew thread calls `body`
        // strictly before it drops that ticket, and a `Call` dropped
        // unrun (thread creation failed) never calls it. `all_returned`
        // is declared after `f`, `slots` and `body`, so it is dropped
        // before them on every path out of this function, a panic in
        // `hire` included, and its drop blocks until every ticket ever
        // made for `latch` has been dropped.
        let body = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(body)
        };
        let latch = Arc::new(Latch::default());
        let all_returned = AllReturned(&latch);
        let hired =
            self.hire((0..n).map(|index| Job::Call { body, index, ticket: Ticket::new(&latch) }));
        drop(all_returned);
        if let Some(panic) = latch.state.lock().unwrap_or_else(PoisonError::into_inner).1.take() {
            resume_unwind(panic);
        }
        hired.expect("the crew could not create a thread");
        slots
            .into_iter()
            .map(|s| {
                s.into_inner().expect("each slot has one writer").expect("every call returned")
            })
            .collect()
    }
}

/// Runs `f(0..n)` on `n` threads at once, the caller waiting for all
/// of them, results in index order: the run's workers (or drivers).
///
/// Lent a crew, they are the crew's parked threads. Lent none — a
/// one-shot caller — they are scoped threads created and joined here,
/// which is what a run cost before crews and what it must keep
/// costing: the benchmark's `exec_fine` sizes its shapes around that
/// spawn (EXPERIMENTS.md, "validity guards"). Neither arm makes the
/// caller a worker: measured, it unbalances the same guards.
pub(crate) fn run_on_threads<T: Send>(
    crew: Option<&Crew>,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    match crew {
        Some(crew) => crew.run(n, f),
        None => thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..n).map(|i| scope.spawn(move || f(i))).collect();
            // The scope has joined every thread before a panic leaves it.
            handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::{Duration, Instant};

    /// Seats currently parked.
    fn parked(crew: &Crew) -> usize {
        crew.0.idle.lock().unwrap().as_ref().map_or(0, Vec::len)
    }

    /// Waits (bounded) until `n` seats are parked.
    fn await_parked(crew: &Crew, n: usize) {
        let t0 = Instant::now();
        while parked(crew) != n {
            assert!(t0.elapsed() < Duration::from_secs(30), "{} parked, want {n}", parked(crew));
            thread::yield_now();
        }
    }

    #[test]
    fn results_come_back_in_index_order_borrowing_the_stack() {
        let crew = Crew::new();
        let local = [10usize, 20, 30, 40, 50];
        let out = crew.run(local.len(), |i| local[i] + i);
        assert_eq!(out, vec![10, 21, 32, 43, 54]);
        assert!(crew.run(0, |i| i).is_empty());
    }

    #[test]
    fn back_to_back_runs_reuse_the_same_threads() {
        let crew = Crew::new();
        let mut ids = HashSet::new();
        for _ in 0..200 {
            // Calls this short could share a thread if one that had
            // finished were handed the next: each gets its own.
            let of_this_run: HashSet<_> =
                crew.run(3, |_| thread::current().id()).into_iter().collect();
            assert_eq!(of_this_run.len(), 3);
            ids.extend(of_this_run);
        }
        assert_eq!(ids.len(), 3, "600 calls ran on {} threads", ids.len());
        assert_eq!(crew.threads(), 3);
        assert!(!ids.contains(&thread::current().id()), "the caller is not a worker");
    }

    #[test]
    fn the_one_shot_arm_runs_on_fresh_scoped_threads() {
        let a = run_on_threads(None, 2, |i| (i, thread::current().id()));
        let b = run_on_threads(None, 2, |i| (i, thread::current().id()));
        assert_eq!([a[0].0, a[1].0, b[0].0, b[1].0], [0, 1, 0, 1]);
        let ids: HashSet<_> = a.iter().chain(&b).map(|r| r.1).collect();
        assert!(!ids.contains(&thread::current().id()));
    }

    #[test]
    fn concurrent_runs_get_their_own_threads_and_do_not_wait_for_each_other() {
        let crew = Crew::new();
        // All four calls of the two runs must be inside `f` at once to
        // pass the barrier: a crew that queued the second run behind
        // the first would hang here.
        let all_four = Barrier::new(4);
        let ids: Vec<Vec<thread::ThreadId>> = thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        crew.run(2, |_| {
                            all_four.wait();
                            thread::current().id()
                        })
                    })
                })
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let distinct: HashSet<_> = ids.iter().flatten().collect();
        assert_eq!(distinct.len(), 4);
        assert_eq!(crew.threads(), 4);
    }

    #[test]
    fn a_panic_is_resumed_only_after_the_other_calls_returned() {
        let crew = Crew::new();
        let returned = AtomicUsize::new(0);
        // f(0) and f(2) cannot return before f(1) has panicked and the
        // main thread — which is *not* yet unwinding, or it would never
        // get here — has released them.
        let (panicked_tx, panicked_rx) = mpsc::channel();
        let release = AtomicBool::new(false);
        let caught = thread::scope(|s| {
            let caller = s.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    crew.run(3, |i| {
                        if i == 1 {
                            panicked_tx.send(()).unwrap();
                            panic!("call one");
                        }
                        while !release.load(Ordering::SeqCst) {
                            thread::yield_now();
                        }
                        returned.fetch_add(1, Ordering::SeqCst);
                    })
                }))
            });
            panicked_rx.recv().unwrap();
            await_parked(&crew, 1);
            assert!(!caller.is_finished(), "the caller waits for f(0) and f(2)");
            release.store(true, Ordering::SeqCst);
            caller.join().unwrap()
        });
        let payload = caught.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"call one"));
        assert_eq!(returned.load(Ordering::SeqCst), 2);
        assert_eq!(crew.run(3, |i| i * 2), vec![0, 2, 4], "the crew still works");
        assert_eq!(crew.threads(), 3, "and on the same threads");
    }

    #[test]
    fn a_panicking_detached_task_does_not_shrink_the_crew() {
        let crew = Crew::new();
        let (tx, rx) = mpsc::channel();
        crew.spawn(move || {
            tx.send(thread::current().id()).unwrap();
            panic!("detached");
        })
        .expect("a crew thread");
        let panicked_on = rx.recv().unwrap();
        await_parked(&crew, 1);
        assert_eq!(crew.run(1, |_| thread::current().id()), vec![panicked_on]);
        assert_eq!(crew.threads(), 1);
    }

    #[test]
    fn drop_joins_every_thread() {
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct CountExit;
        impl Drop for CountExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local!(static EXIT: CountExit = const { CountExit });
        let crew = Crew::new();
        let four = Barrier::new(4);
        crew.run(4, |_| {
            EXIT.with(|_| ());
            four.wait();
        });
        let (tx, rx) = mpsc::channel::<()>();
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        // One thread is busy when the drop begins.
        crew.spawn(move || {
            let _ = rx.recv();
            flag.store(true, Ordering::SeqCst);
        })
        .expect("a crew thread");
        tx.send(()).unwrap();
        drop(crew);
        assert!(done.load(Ordering::SeqCst), "the busy thread finished its task first");
        assert_eq!(EXITED.load(Ordering::SeqCst), 4, "every thread has exited");
    }

    #[test]
    fn the_last_handle_may_be_dropped_by_a_crew_thread() {
        let crew = Crew::new();
        crew.run(2, |_| ());
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let mine = crew.clone();
        crew.spawn(move || {
            release_rx.recv().unwrap();
            drop(mine);
            done_tx.send(()).unwrap();
        })
        .expect("a crew thread");
        drop(crew);
        release_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("dropping the crew from inside it must not join itself");
    }
}
