//! The deadline timer service.
//!
//! Parcel coalescing needs a *flush timer*: when the first parcel enters a
//! coalescing queue a timer is armed; if the queue does not fill before the
//! timer expires, the queue is flushed anyway (Algorithm 1 of the paper).
//! The paper implements this with Boost's deadline timer running on its own
//! hardware thread and reports an average firing error of ≈33 µs — OS time
//! slicing would give millisecond errors and defeat microsecond-scale wait
//! times.
//!
//! [`TimerService`] reproduces that design: one dedicated thread owns a
//! min-heap of deadlines and parks on a condvar until the earliest *live*
//! deadline — cancelled heads are dropped before each wait, so a batch
//! that filled never costs a wake-up toward its dead deadline. It does not
//! spin: flush intervals are shorter than any spin stretch worth having,
//! so a spinning timer thread would burn a core the workers need. On
//! Linux the thread sets its own timer slack to 1 ns, which keeps a parked
//! wait within tens of µs of its deadline instead of the default 50 µs
//! slack on top. Every firing records its error into an accuracy
//! histogram, which the `timer_accuracy` bench and `repro timer` /
//! `repro check-timer` report against the paper's 33 µs figure.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::stats::OnlineStats;

/// Callback type executed when a timer fires.
///
/// Callbacks run *on the timer thread* and must be short (the coalescer's
/// callback merely moves a queue into the outbound message path); long
/// callbacks delay subsequent deadlines.
pub type TimerCallback = Box<dyn FnOnce() + Send + 'static>;

struct Entry {
    deadline: Instant,
    id: u64,
    callback: TimerCallback,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.id == other.id
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deadline
            .cmp(&other.deadline)
            .then(self.id.cmp(&other.id))
    }
}

#[derive(Default)]
struct Queue {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Ids cancelled while still pending; popped entries in this set are
    /// dropped without running their callback.
    cancelled: HashSet<u64>,
    /// Ids currently pending (armed, not yet fired or cancelled).
    pending: HashSet<u64>,
}

impl Queue {
    /// Drop cancelled entries off the top of the heap and return the
    /// earliest live deadline, if any.
    fn earliest_live(&mut self) -> Option<Instant> {
        while let Some(Reverse(head)) = self.heap.peek() {
            if !self.cancelled.remove(&head.id) {
                return Some(head.deadline);
            }
            self.heap.pop();
        }
        None
    }
}

struct Inner {
    queue: Mutex<Queue>,
    cond: Condvar,
    shutdown: AtomicBool,
    next_id: AtomicU64,
    fired: AtomicU64,
    cancelled_count: AtomicU64,
    accuracy: Mutex<OnlineStats>,
}

/// A handle to a single armed timer; used to cancel it.
///
/// Dropping the handle does *not* cancel the timer (the coalescer keeps
/// flushing on timeout even if the arming code has moved on).
#[derive(Clone)]
pub struct TimerHandle {
    id: u64,
    inner: std::sync::Weak<Inner>,
}

impl TimerHandle {
    /// Cancel the timer.
    ///
    /// Returns `true` if the timer was still pending (its callback will not
    /// run); `false` if it already fired, was already cancelled, or the
    /// service has shut down.
    pub fn cancel(&self) -> bool {
        let Some(inner) = self.inner.upgrade() else {
            return false;
        };
        let mut q = inner.queue.lock();
        if q.pending.remove(&self.id) {
            q.cancelled.insert(self.id);
            inner.cancelled_count.fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// Whether this timer is still pending (armed and not yet fired or
    /// cancelled).
    pub fn is_pending(&self) -> bool {
        self.inner
            .upgrade()
            .map(|inner| inner.queue.lock().pending.contains(&self.id))
            .unwrap_or(false)
    }
}

/// Summary statistics about a timer service's firing accuracy.
#[derive(Debug, Clone, Copy)]
pub struct TimerAccuracy {
    /// Number of timers fired.
    pub fired: u64,
    /// Number of timers cancelled before firing.
    pub cancelled: u64,
    /// Mean absolute firing error in microseconds.
    pub mean_error_us: f64,
    /// Maximum absolute firing error in microseconds.
    pub max_error_us: f64,
    /// Standard deviation of the firing error in microseconds.
    pub stddev_error_us: f64,
}

/// A deadline timer service running on a dedicated thread.
///
/// # Example
/// ```
/// use rpx_util::TimerService;
/// use std::sync::atomic::{AtomicBool, Ordering};
/// use std::sync::Arc;
/// use std::time::Duration;
///
/// let svc = TimerService::new("doc-timer");
/// let fired = Arc::new(AtomicBool::new(false));
/// let f2 = fired.clone();
/// svc.arm_after(Duration::from_micros(500), move || {
///     f2.store(true, Ordering::SeqCst);
/// });
/// std::thread::sleep(Duration::from_millis(20));
/// assert!(fired.load(Ordering::SeqCst));
/// ```
pub struct TimerService {
    inner: Arc<Inner>,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl TimerService {
    /// Spawn a new timer service with its own dedicated thread.
    pub fn new(name: &str) -> Self {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue::default()),
            cond: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            fired: AtomicU64::new(0),
            cancelled_count: AtomicU64::new(0),
            accuracy: Mutex::new(OnlineStats::new()),
        });
        let thread_inner = Arc::clone(&inner);
        let thread = std::thread::Builder::new()
            .name(format!("rpx-timer-{name}"))
            .spawn(move || timer_loop(thread_inner))
            .expect("failed to spawn timer thread");
        TimerService {
            inner,
            thread: Mutex::new(Some(thread)),
        }
    }

    /// Arm a timer that fires at `deadline`.
    pub fn arm_at(
        &self,
        deadline: Instant,
        callback: impl FnOnce() + Send + 'static,
    ) -> TimerHandle {
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let earliest = {
            let mut q = self.inner.queue.lock();
            q.pending.insert(id);
            q.heap.push(Reverse(Entry {
                deadline,
                id,
                callback: Box::new(callback),
            }));
            q.heap.peek().is_some_and(|Reverse(head)| head.id == id)
        };
        // Only a new earliest deadline changes what the thread waits for;
        // a later one is found when the thread next looks at the heap.
        if earliest {
            self.inner.cond.notify_one();
        }
        TimerHandle {
            id,
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Arm a timer that fires after `delay`.
    pub fn arm_after(
        &self,
        delay: Duration,
        callback: impl FnOnce() + Send + 'static,
    ) -> TimerHandle {
        self.arm_at(Instant::now() + delay, callback)
    }

    /// Number of timers currently pending.
    pub fn pending(&self) -> usize {
        self.inner.queue.lock().pending.len()
    }

    /// Firing accuracy statistics accumulated so far.
    pub fn accuracy(&self) -> TimerAccuracy {
        let stats = self.inner.accuracy.lock().clone();
        TimerAccuracy {
            fired: self.inner.fired.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled_count.load(Ordering::Relaxed),
            mean_error_us: stats.mean(),
            max_error_us: stats.max().unwrap_or(0.0),
            stddev_error_us: stats.stddev(),
        }
    }

    /// Stop the timer thread; timers still pending never fire. Joins the
    /// thread unless called from it (a callback dropping the last handle):
    /// a thread cannot join itself, and its loop exits on the shutdown
    /// flag as soon as the callback returns. Idempotent; also called on
    /// drop.
    pub fn shutdown(&self) {
        {
            // Under the queue lock, so the flag cannot slip in between the
            // loop's check and its condvar wait.
            let _q = self.inner.queue.lock();
            self.inner.shutdown.store(true, Ordering::SeqCst);
        }
        self.inner.cond.notify_all();
        let Some(thread) = self.thread.lock().take() else {
            return;
        };
        if thread.thread().id() != std::thread::current().id() {
            let _ = thread.join();
        }
    }
}

impl Drop for TimerService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn timer_loop(inner: Arc<Inner>) {
    tighten_timer_slack();
    let mut due: Vec<(Instant, TimerCallback)> = Vec::new();
    loop {
        {
            let mut q = inner.queue.lock();
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let now = Instant::now();
                match q.earliest_live() {
                    None => inner.cond.wait(&mut q),
                    // Park until the deadline; a newly armed earlier timer
                    // wakes us via the condvar, a cancelled head costs at
                    // most one early wake-up.
                    Some(deadline) if deadline > now => {
                        let _ = inner.cond.wait_until(&mut q, deadline);
                    }
                    Some(_) => {
                        // Pop every entry that is due.
                        while let Some(Reverse(e)) = q.heap.peek() {
                            if e.deadline > now {
                                break;
                            }
                            let Reverse(entry) = q.heap.pop().expect("peeked entry");
                            if q.cancelled.remove(&entry.id) {
                                continue;
                            }
                            q.pending.remove(&entry.id);
                            due.push((entry.deadline, entry.callback));
                        }
                        break;
                    }
                }
            }
        }
        let now = Instant::now();
        for (deadline, callback) in due.drain(..) {
            let err_us = (now.saturating_duration_since(deadline)).as_secs_f64() * 1e6;
            inner.accuracy.lock().push(err_us);
            inner.fired.fetch_add(1, Ordering::Relaxed);
            callback();
        }
    }
}

/// Set the calling thread's timer slack to 1 ns. With the default 50 µs
/// slack the kernel may defer a parked wait's expiry by that much to batch
/// wake-ups, which on its own exceeds the paper's ≈33 µs firing error.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::ffi::{c_int, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes the calling thread's timer slack; no memory is passed. A
    // failure leaves the default slack, which is harmless.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) };
}

/// Other targets keep their default timer slack.
#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn fires_in_order() {
        let svc = TimerService::new("test-order");
        let order = Arc::new(Mutex::new(Vec::new()));
        for (delay_us, tag) in [(3000u64, 3), (1000, 1), (2000, 2)] {
            let order = Arc::clone(&order);
            svc.arm_after(Duration::from_micros(delay_us), move || {
                order.lock().push(tag);
            });
        }
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(*order.lock(), vec![1, 2, 3]);
    }

    #[test]
    fn cancel_prevents_firing() {
        let svc = TimerService::new("test-cancel");
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let handle = svc.arm_after(Duration::from_millis(5), move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        assert!(handle.is_pending());
        assert!(handle.cancel());
        assert!(!handle.is_pending());
        // Second cancel is a no-op.
        assert!(!handle.cancel());
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert_eq!(svc.accuracy().cancelled, 1);
        assert_eq!(svc.accuracy().fired, 0);
    }

    #[test]
    fn cancel_after_fire_returns_false() {
        let svc = TimerService::new("test-late-cancel");
        let handle = svc.arm_after(Duration::from_micros(100), || {});
        std::thread::sleep(Duration::from_millis(20));
        assert!(!handle.cancel());
        assert_eq!(svc.accuracy().fired, 1);
    }

    #[test]
    fn earlier_timer_preempts_parked_wait() {
        let svc = TimerService::new("test-preempt");
        let hits: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let h1 = Arc::clone(&hits);
        svc.arm_after(Duration::from_millis(50), move || h1.lock().push("late"));
        // Arm a much earlier timer while the thread is parked on the 50 ms one.
        std::thread::sleep(Duration::from_millis(2));
        let h2 = Arc::clone(&hits);
        svc.arm_after(Duration::from_millis(1), move || h2.lock().push("early"));
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(*hits.lock(), vec!["early"]);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(*hits.lock(), vec!["early", "late"]);
    }

    #[test]
    fn accuracy_is_sub_millisecond_on_average() {
        // The paper reports ≈33 µs mean error; we only assert a loose bound
        // here to stay robust on loaded CI machines. The bench harness
        // reports the precise distribution.
        let svc = TimerService::new("test-accuracy");
        let done = Arc::new(AtomicUsize::new(0));
        let n = 50;
        for i in 0..n {
            let d = Arc::clone(&done);
            svc.arm_after(Duration::from_micros(300 + 137 * i as u64), move || {
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while done.load(Ordering::SeqCst) < n && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(done.load(Ordering::SeqCst), n);
        let acc = svc.accuracy();
        assert_eq!(acc.fired, n as u64);
        assert!(
            acc.mean_error_us < 5_000.0,
            "mean firing error too large: {} µs",
            acc.mean_error_us
        );
    }

    #[test]
    fn pending_count_tracks_state() {
        let svc = TimerService::new("test-pending");
        assert_eq!(svc.pending(), 0);
        let _h1 = svc.arm_after(Duration::from_secs(10), || {});
        let h2 = svc.arm_after(Duration::from_secs(10), || {});
        assert_eq!(svc.pending(), 2);
        h2.cancel();
        assert_eq!(svc.pending(), 1);
    }

    #[test]
    fn drop_joins_cleanly_with_pending_timers() {
        let svc = TimerService::new("test-drop");
        for _ in 0..8 {
            svc.arm_after(Duration::from_secs(60), || {});
        }
        drop(svc); // must not hang
    }

    #[test]
    fn callback_dropping_the_last_handle_does_not_join_its_own_thread() {
        let svc = Arc::new(TimerService::new("test-self-drop"));
        let inner = Arc::downgrade(&svc.inner);
        let last = Arc::new(Mutex::new(Some(Arc::clone(&svc))));
        let dropped = Arc::new(AtomicBool::new(false));
        let (l, d) = (Arc::clone(&last), Arc::clone(&dropped));
        svc.arm_after(Duration::from_millis(2), move || {
            // The service's last handle goes away on its own thread.
            drop(l.lock().take());
            d.store(true, Ordering::SeqCst);
        });
        drop(svc);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !dropped.load(Ordering::SeqCst) {
            assert!(
                Instant::now() < deadline,
                "the callback died dropping the service"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        // The thread saw the shutdown flag and exited, releasing the state.
        while inner.upgrade().is_some() {
            assert!(Instant::now() < deadline, "the timer thread never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn shutdown_joins_the_thread_and_is_idempotent() {
        let svc = TimerService::new("test-shutdown");
        svc.arm_after(Duration::from_secs(60), || {});
        svc.shutdown();
        assert!(svc.thread.lock().is_none());
        svc.shutdown();
    }

    /// This thread's CPU time so far, from the first field of its
    /// `schedstat` (ns on CPU).
    #[cfg(target_os = "linux")]
    fn thread_cpu() -> Duration {
        let stat = std::fs::read_to_string("/proc/thread-self/schedstat").expect("schedstat");
        let ns = stat.split_whitespace().next().expect("cpu field");
        Duration::from_nanos(ns.parse().expect("cpu ns"))
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn parked_timer_thread_sleeps_instead_of_spinning() {
        // 400 back-to-back 250 µs timers, each armed by the previous
        // callback on the timer thread; the first and last callbacks read
        // that thread's own CPU time. A timer that spins toward its
        // deadlines is on CPU for the whole span.
        const N: usize = 400;
        const GAP: Duration = Duration::from_micros(250);
        struct Chain {
            svc: std::sync::Weak<TimerService>,
            left: usize,
            start: Option<(Instant, Duration)>,
            done: std::sync::mpsc::Sender<(Duration, Duration)>,
        }
        fn link(mut chain: Chain) {
            let now = Instant::now();
            let (t0, cpu0) = *chain.start.get_or_insert((now, thread_cpu()));
            chain.left -= 1;
            if chain.left == 0 {
                let _ = chain.done.send((now - t0, thread_cpu() - cpu0));
            } else if let Some(svc) = chain.svc.upgrade() {
                svc.arm_after(GAP, move || link(chain));
            }
        }
        let svc = Arc::new(TimerService::new("test-sleeps"));
        let (tx, rx) = std::sync::mpsc::channel();
        let chain = Chain {
            svc: Arc::downgrade(&svc),
            left: N + 1,
            start: None,
            done: tx,
        };
        svc.arm_after(GAP, move || link(chain));
        let (wall, cpu) = rx.recv_timeout(Duration::from_secs(30)).expect("chain");
        assert!(wall >= GAP * N as u32, "{N} gaps took only {wall:?}");
        let share = cpu.as_secs_f64() / wall.as_secs_f64();
        assert!(
            share < 0.20,
            "timer thread was on CPU {:.0} % of {wall:?} ({cpu:?})",
            share * 100.0
        );
    }

    #[test]
    fn concurrent_arm_and_cancel_fire_never_early_and_exactly_once() {
        use rand::{Rng, SeedableRng};
        const THREADS: usize = 4;
        const PER_THREAD: usize = 500;
        let svc = Arc::new(TimerService::new("test-contract"));
        let fires: Arc<Vec<AtomicUsize>> = Arc::new(
            (0..THREADS * PER_THREAD)
                .map(|_| AtomicUsize::new(0))
                .collect(),
        );
        let early = Arc::new(AtomicUsize::new(0));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (svc, fires, early) =
                    (Arc::clone(&svc), Arc::clone(&fires), Arc::clone(&early));
                std::thread::spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(t as u64);
                    let mut handles = Vec::with_capacity(PER_THREAD);
                    for i in t * PER_THREAD..(t + 1) * PER_THREAD {
                        let deadline =
                            Instant::now() + Duration::from_micros(rng.gen_range(0..2_001));
                        let (fires, early) = (Arc::clone(&fires), Arc::clone(&early));
                        let handle = svc.arm_at(deadline, move || {
                            if Instant::now() < deadline {
                                early.fetch_add(1, Ordering::SeqCst);
                            }
                            fires[i].fetch_add(1, Ordering::SeqCst);
                        });
                        handles.push((i, handle));
                    }
                    // Cancel a random third; remember which cancels won.
                    handles
                        .into_iter()
                        .filter(|_| rng.gen_range(0..3) == 0)
                        .filter(|(_, h)| h.cancel())
                        .map(|(i, _)| i)
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut cancelled = vec![false; THREADS * PER_THREAD];
        for w in workers {
            for i in w.join().expect("arming thread") {
                cancelled[i] = true;
            }
        }
        let expected = cancelled.iter().filter(|c| !**c).count();
        let total = || {
            fires
                .iter()
                .map(|f| f.load(Ordering::SeqCst))
                .sum::<usize>()
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while total() < expected && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Give any stray (duplicate or cancelled) firing time to show up.
        std::thread::sleep(Duration::from_millis(10));
        assert_eq!(early.load(Ordering::SeqCst), 0, "a timer fired early");
        for (i, fired) in fires.iter().enumerate() {
            let want = usize::from(!cancelled[i]);
            assert_eq!(fired.load(Ordering::SeqCst), want, "timer {i}");
        }
        assert!(cancelled.iter().any(|c| *c), "no cancel won the race");
        assert_eq!(svc.pending(), 0);
    }

    #[test]
    fn notifying_only_a_new_earliest_deadline_loses_no_timer() {
        let svc = TimerService::new("test-notify");
        let t0 = Instant::now();
        let hits: Arc<Mutex<Vec<(u64, Duration)>>> = Arc::new(Mutex::new(Vec::new()));
        let arm = |ms: u64| {
            let hits = Arc::clone(&hits);
            svc.arm_at(t0 + Duration::from_millis(ms), move || {
                hits.lock().push((ms, t0.elapsed()));
            })
        };
        arm(50);
        // Let the thread park on the 50 ms deadline.
        std::thread::sleep(Duration::from_millis(5));
        let first = arm(30); // the new earliest: wakes the thread
        arm(40); // not the earliest: no wake-up
        assert!(first.cancel()); // the thread now waits toward a dead head
        let deadline = Instant::now() + Duration::from_secs(5);
        while hits.lock().len() < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let hits = hits.lock().clone();
        assert_eq!(hits.iter().map(|h| h.0).collect::<Vec<_>>(), vec![40, 50]);
        for (ms, at) in hits {
            let due = Duration::from_millis(ms);
            assert!(at >= due, "{ms} ms timer fired early, at {at:?}");
            assert!(
                at < due + Duration::from_millis(25),
                "{ms} ms timer fired at {at:?}"
            );
        }
    }

    #[test]
    fn handle_outliving_service_is_inert() {
        let handle = {
            let svc = TimerService::new("test-weak");
            svc.arm_after(Duration::from_secs(60), || {})
        };
        assert!(!handle.is_pending());
        assert!(!handle.cancel());
    }
}
