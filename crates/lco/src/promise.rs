//! One-shot promise/future pairs.
//!
//! ## Blocked waiters
//!
//! A waiter never sleeps on the future itself. It parks on its thread's
//! [`WakeSource`] — on a scheduler worker that is the locality's
//! eventcount, the object message arrival and task spawns already notify
//! — and leaves a clone in the shared state; `set` and a broken promise
//! take it out and notify it, from whichever thread or locality they run
//! on. The loop itself (prepare, check and record the source, pump, park)
//! is [`rpx_util::sync::park_until`].

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rpx_util::sync::{park_until, WakeSource};

/// Errors surfaced by future/promise operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LcoError {
    /// The promise was dropped without a value being set.
    BrokenPromise,
    /// The value was already set once.
    AlreadySet,
    /// A timed wait expired.
    Timeout,
}

impl fmt::Display for LcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LcoError::BrokenPromise => write!(f, "promise dropped without a value"),
            LcoError::AlreadySet => write!(f, "promise value already set"),
            LcoError::Timeout => write!(f, "wait timed out"),
        }
    }
}

impl std::error::Error for LcoError {}

enum State<T> {
    Pending,
    Ready(T),
    Taken,
    Broken,
}

struct Shared<T> {
    state: State<T>,
    /// Where the (single) waiter parks, once it has had to.
    waiter: Option<Arc<dyn WakeSource>>,
}

impl<T> Shared<T> {
    /// Leave `Pending` for `to` and wake the parked waiter; `false` if
    /// the state was already decided.
    fn complete(shared: &Mutex<Self>, to: State<T>) -> bool {
        let mut guard = shared.lock();
        if !matches!(guard.state, State::Pending) {
            return false;
        }
        guard.state = to;
        let waiter = guard.waiter.take();
        drop(guard);
        if let Some(waiter) = waiter {
            waiter.events().notify();
        }
        true
    }

    /// Take the outcome; `None` while still pending.
    fn take(&mut self) -> Option<Result<T, LcoError>> {
        match std::mem::replace(&mut self.state, State::Taken) {
            State::Ready(v) => Some(Ok(v)),
            State::Pending => {
                self.state = State::Pending;
                None
            }
            State::Broken => {
                self.state = State::Broken;
                Some(Err(LcoError::BrokenPromise))
            }
            State::Taken => Some(Err(LcoError::BrokenPromise)),
        }
    }
}

/// The writing half of a one-shot channel.
pub struct Promise<T> {
    shared: Arc<Mutex<Shared<T>>>,
    fulfilled: bool,
}

/// The reading half of a one-shot channel.
pub struct Future<T> {
    shared: Arc<Mutex<Shared<T>>>,
}

/// Create a connected promise/future pair.
pub fn channel<T>() -> (Promise<T>, Future<T>) {
    let shared = Arc::new(Mutex::new(Shared {
        state: State::Pending,
        waiter: None,
    }));
    (
        Promise {
            shared: Arc::clone(&shared),
            fulfilled: false,
        },
        Future { shared },
    )
}

impl<T> Promise<T> {
    /// Fulfil the promise.
    pub fn set(mut self, value: T) -> Result<(), LcoError> {
        self.set_ref(value)
    }

    /// Fulfil without consuming (used when the promise lives in a shared
    /// table and is completed by a network handler).
    pub fn set_ref(&mut self, value: T) -> Result<(), LcoError> {
        if Shared::complete(&self.shared, State::Ready(value)) {
            self.fulfilled = true;
            Ok(())
        } else {
            Err(LcoError::AlreadySet)
        }
    }
}

impl<T> Drop for Promise<T> {
    fn drop(&mut self) {
        if !self.fulfilled {
            Shared::complete(&self.shared, State::Broken);
        }
    }
}

impl<T> Future<T> {
    /// Whether a value is ready (or the promise broke).
    pub fn is_ready(&self) -> bool {
        !matches!(self.shared.lock().state, State::Pending)
    }

    /// Take the value if ready; `Ok(None)` while still pending.
    pub fn try_take(&self) -> Result<Option<T>, LcoError> {
        self.shared.lock().take().transpose()
    }

    /// The one wait behind every blocking getter.
    fn wait(
        self,
        pump: Option<&mut dyn FnMut() -> bool>,
        deadline: Option<Instant>,
    ) -> Result<T, LcoError> {
        park_until(
            |source| {
                let mut shared = self.shared.lock();
                let outcome = shared.take();
                if let (None, Some(source)) = (&outcome, source) {
                    shared.waiter.get_or_insert_with(|| Arc::clone(source));
                }
                outcome
            },
            pump,
            deadline,
        )
        .unwrap_or(Err(LcoError::Timeout))
    }

    /// Block until the value arrives and take it.
    pub fn get(self) -> Result<T, LcoError> {
        self.wait(None, None)
    }

    /// Block until the value arrives or `timeout` expires.
    pub fn get_timeout(self, timeout: Duration) -> Result<T, LcoError> {
        self.wait(None, Some(Instant::now() + timeout))
    }

    /// Block until ready, invoking `pump` while waiting.
    ///
    /// `pump` returning `true` (work was done) skips the park. This is
    /// how a worker thread blocked on a remote result keeps the parcel
    /// pump alive; between pumps it sleeps on its scheduler's eventcount,
    /// so the reply's arrival wakes it.
    pub fn get_with(self, mut pump: impl FnMut() -> bool) -> Result<T, LcoError> {
        self.wait(Some(&mut pump), None)
    }

    /// [`Future::get_with`] that gives up after `timeout`.
    pub fn get_with_timeout(
        self,
        mut pump: impl FnMut() -> bool,
        timeout: Duration,
    ) -> Result<T, LcoError> {
        self.wait(Some(&mut pump), Some(Instant::now() + timeout))
    }
}

/// Wait for every future, collecting the values in order.
///
/// This is `hpx::wait_all` followed by result extraction. Fails fast on
/// the first broken promise.
pub fn wait_all<T>(futures: Vec<Future<T>>) -> Result<Vec<T>, LcoError> {
    futures.into_iter().map(Future::get).collect()
}

/// Wait for every future while running `pump`, collecting values in order.
pub fn wait_all_with<T>(
    futures: Vec<Future<T>>,
    mut pump: impl FnMut() -> bool,
) -> Result<Vec<T>, LcoError> {
    futures.into_iter().map(|f| f.get_with(&mut pump)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn set_then_get() {
        let (p, f) = channel();
        p.set(42).unwrap();
        assert!(f.is_ready());
        assert_eq!(f.get(), Ok(42));
    }

    #[test]
    fn get_blocks_until_set() {
        let (p, f) = channel();
        let t = std::thread::spawn(move || f.get());
        std::thread::sleep(Duration::from_millis(5));
        p.set("hello").unwrap();
        assert_eq!(t.join().unwrap(), Ok("hello"));
    }

    #[test]
    fn double_set_fails() {
        let (mut p, _f) = channel();
        p.set_ref(1).unwrap();
        assert_eq!(p.set_ref(2), Err(LcoError::AlreadySet));
    }

    #[test]
    fn broken_promise_detected() {
        let (p, f) = channel::<u32>();
        drop(p);
        assert!(f.is_ready());
        assert_eq!(f.get(), Err(LcoError::BrokenPromise));
    }

    #[test]
    fn broken_promise_wakes_blocked_waiter() {
        let (p, f) = channel::<u32>();
        let t = std::thread::spawn(move || f.get());
        std::thread::sleep(Duration::from_millis(5));
        drop(p);
        assert_eq!(t.join().unwrap(), Err(LcoError::BrokenPromise));
    }

    #[test]
    fn try_take_semantics() {
        let (p, f) = channel();
        assert_eq!(f.try_take(), Ok(None));
        p.set(7).unwrap();
        assert_eq!(f.try_take(), Ok(Some(7)));
        // A second take observes a consumed channel.
        assert_eq!(f.try_take(), Err(LcoError::BrokenPromise));
    }

    #[test]
    fn get_timeout_expires_and_succeeds() {
        let (_p, f) = channel::<u32>();
        assert_eq!(
            f.get_timeout(Duration::from_millis(5)),
            Err(LcoError::Timeout)
        );

        let (p, f) = channel();
        let t = std::thread::spawn(move || f.get_timeout(Duration::from_secs(5)));
        p.set(9).unwrap();
        assert_eq!(t.join().unwrap(), Ok(9));
    }

    #[test]
    fn get_with_pumps_while_waiting() {
        let (p, f) = channel();
        let pumps = AtomicU64::new(0);
        let setter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            p.set(5).unwrap();
        });
        let v = f.get_with(|| {
            pumps.fetch_add(1, Ordering::Relaxed);
            false
        });
        setter.join().unwrap();
        assert_eq!(v, Ok(5));
        assert!(pumps.load(Ordering::Relaxed) > 0, "pump never invoked");
    }

    #[test]
    fn get_with_ready_value_pumps_zero_times() {
        let (p, f) = channel();
        p.set(1).unwrap();
        let mut pumped = false;
        assert_eq!(
            f.get_with(|| {
                pumped = true;
                false
            }),
            Ok(1)
        );
        assert!(!pumped);
    }

    #[test]
    fn wait_all_collects_in_order() {
        let mut promises = Vec::new();
        let mut futures = Vec::new();
        for _ in 0..10 {
            let (p, f) = channel();
            promises.push(p);
            futures.push(f);
        }
        let t = std::thread::spawn(move || wait_all(futures));
        for (i, p) in promises.into_iter().enumerate().rev() {
            p.set(i).unwrap();
        }
        assert_eq!(t.join().unwrap(), Ok((0..10).collect::<Vec<_>>()));
    }

    #[test]
    fn wait_all_propagates_broken() {
        let (p1, f1) = channel();
        let (p2, f2) = channel::<u32>();
        p1.set(1).unwrap();
        drop(p2);
        assert_eq!(wait_all(vec![f1, f2]), Err(LcoError::BrokenPromise));
    }

    #[test]
    fn wait_all_with_pump() {
        let (p, f) = channel();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            p.set(3).unwrap();
        });
        let out = wait_all_with(vec![f], || false);
        assert_eq!(out, Ok(vec![3]));
    }
}
