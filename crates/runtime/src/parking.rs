//! How an idle server of either engine — a pool worker, an async
//! driver — sleeps, is woken and is stopped: one event count, owned by
//! the run's [`RunCtl`](crate::checkpoint::RunCtl).
//!
//! **No wakeup is lost.** A parker reads the sequence, registers, and
//! scans for work once more; it sleeps only if the scan found none,
//! `done` does not hold and the sequence has not moved, the last two
//! checked under the lock the wait releases. A producer makes work
//! visible — behind a lock the scan takes — *before* `notify` reads the
//! sleeper count: either that read sees the registration and the bump
//! under the lock reaches the parker, or the registration came later and
//! the scan after it sees the work. A stop and the run's end have no
//! token to scan for, so whoever raises or first sees one
//! **broadcasts**: bumps whether anyone sleeps or not. Nothing polls.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The event count idle servers sleep on (see the module docs).
#[derive(Default)]
pub(crate) struct Parking {
    /// Servers parked or about to park; while zero a `notify` is one
    /// load, so the all-busy steady state makes no wake syscall.
    sleepers: AtomicUsize,
    /// The sequence, bumped under its lock by every wake.
    seq: Mutex<u64>,
    wake: Condvar,
}

impl Parking {
    fn seq(&self) -> MutexGuard<'_, u64> {
        self.seq.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Servers parked or about to park: what an engine's test waits on
    /// to force "one server is asleep" instead of sleeping for it.
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }

    /// After making work visible: wakes one sleeper, or all when `all`.
    pub(crate) fn notify(&self, all: bool) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.bump(all);
        }
    }

    /// Wakes every server, asleep or about to be.
    pub(crate) fn broadcast(&self) {
        self.bump(true);
    }

    fn bump(&self, all: bool) {
        *self.seq() += 1;
        if all {
            self.wake.notify_all();
        } else {
            self.wake.notify_one();
        }
    }

    /// Sleeps until a wake after this call began, unless `has_work` —
    /// scanned once, after registering — or `done` holds. No timeout:
    /// the caller loops and looks again.
    pub(crate) fn park(&self, has_work: impl FnOnce() -> bool, done: impl Fn() -> bool) {
        let seq0 = *self.seq();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        if !has_work() && !done() {
            let mut seq = self.seq();
            while *seq == seq0 && !done() {
                seq = self.wake.wait(seq).unwrap_or_else(PoisonError::into_inner);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    /// The window the protocol exists for: the notify lands after the
    /// parker registered and scanned, before it waits. The parker's scan
    /// holds it in that window until the notify has returned, so a
    /// parker that read the sequence after its scan would sleep forever;
    /// the watchdog turns that into a failure.
    #[test]
    fn a_notify_between_registration_and_wait_is_not_lost() {
        let parking = Arc::new(Parking::default());
        let registered = Arc::new(Barrier::new(2));
        let (notified_tx, notified_rx) = mpsc::channel::<()>();
        let (woke_tx, woke_rx) = mpsc::channel();
        let parker = {
            let (parking, registered) = (Arc::clone(&parking), Arc::clone(&registered));
            thread::spawn(move || {
                let scan = || {
                    registered.wait();
                    notified_rx.recv().expect("the notifier sends");
                    false
                };
                parking.park(scan, || false);
                woke_tx.send(()).expect("the test waits");
            })
        };
        registered.wait();
        parking.notify(false);
        assert_eq!(*parking.seq(), 1, "a registered sleeper is notified");
        notified_tx.send(()).expect("the parker scans");
        woke_rx.recv_timeout(Duration::from_secs(30)).expect("the notify was lost");
        parker.join().expect("the parker returns");
        assert_eq!(parking.sleepers.load(Ordering::SeqCst), 0);
    }

    /// With nobody asleep a notify touches neither the lock nor the
    /// sequence; a broadcast bumps it regardless.
    #[test]
    fn notify_without_a_sleeper_leaves_the_sequence_alone() {
        let parking = Parking::default();
        parking.notify(false);
        parking.notify(true);
        assert_eq!(*parking.seq(), 0);
        parking.broadcast();
        assert_eq!(*parking.seq(), 1);
        // A park whose scan finds work, or whose condition holds, does
        // not sleep and leaves no sleeper registered.
        parking.park(|| true, || false);
        parking.park(|| false, || true);
        assert_eq!(parking.sleepers.load(Ordering::SeqCst), 0);
    }
}
