//! Reusable generation-counted barrier.
//!
//! The Parquet proxy synchronises localities at every iteration boundary;
//! a reusable barrier avoids re-allocating per iteration. Waiting supports
//! the same cooperative pump as futures, so scheduler workers blocked at
//! the barrier keep the parcel pump running. Waiters park on their own
//! thread's [`WakeSource`] (see [`crate::promise`]); the arrival that
//! trips the barrier notifies every source recorded for the generation,
//! so parties on different localities' schedulers are all released.

use std::sync::Arc;

use parking_lot::Mutex;
use rpx_util::sync::{park_until, WakeSource};

struct State {
    /// Parties still to arrive in the current generation.
    remaining: usize,
    /// Increments each time the barrier trips.
    generation: u64,
    /// Where this generation's parked waiters sleep.
    waiters: Vec<Arc<dyn WakeSource>>,
}

/// A reusable barrier for a fixed number of parties.
pub struct Barrier {
    parties: usize,
    state: Mutex<State>,
}

impl Barrier {
    /// Barrier for `parties` participants.
    ///
    /// # Panics
    /// Panics if `parties == 0`.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        Barrier {
            parties,
            state: Mutex::new(State {
                remaining: parties,
                generation: 0,
                waiters: Vec::new(),
            }),
        }
    }

    /// Number of participants.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Completed generations (how many times the barrier has tripped).
    pub fn generation(&self) -> u64 {
        self.state.lock().generation
    }

    /// Arrive, then block until all parties have arrived.
    fn arrive_and_park(&self, pump: Option<&mut dyn FnMut() -> bool>) -> bool {
        let mut state = self.state.lock();
        let gen = state.generation;
        state.remaining -= 1;
        if state.remaining == 0 {
            state.remaining = self.parties;
            state.generation += 1;
            let waiters = std::mem::take(&mut state.waiters);
            drop(state);
            for waiter in waiters {
                waiter.events().notify();
            }
            return true;
        }
        drop(state);
        park_until(
            |source| {
                let mut state = self.state.lock();
                if state.generation != gen {
                    return Some(());
                }
                if let Some(source) = source {
                    if !state.waiters.iter().any(|w| Arc::ptr_eq(w, source)) {
                        state.waiters.push(Arc::clone(source));
                    }
                }
                None
            },
            pump,
            None,
        );
        false
    }

    /// Arrive and block until all parties have arrived.
    ///
    /// Returns `true` for exactly one "leader" arrival per generation.
    pub fn arrive_and_wait(&self) -> bool {
        self.arrive_and_park(None)
    }

    /// Arrive and wait, invoking `pump` while blocked (parking between
    /// pumps that report no work).
    pub fn arrive_and_wait_with(&self, mut pump: impl FnMut() -> bool) -> bool {
        self.arrive_and_park(Some(&mut pump))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn all_parties_released_one_leader() {
        let b = Arc::new(Barrier::new(4));
        let leaders = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = Arc::clone(&b);
            let l = Arc::clone(&leaders);
            handles.push(std::thread::spawn(move || {
                if b.arrive_and_wait() {
                    l.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(leaders.load(Ordering::SeqCst), 1);
        assert_eq!(b.generation(), 1);
    }

    #[test]
    fn reusable_across_generations() {
        let b = Arc::new(Barrier::new(2));
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || {
            for _ in 0..10 {
                b2.arrive_and_wait();
            }
        });
        for _ in 0..10 {
            b.arrive_and_wait();
        }
        t.join().unwrap();
        assert_eq!(b.generation(), 10);
    }

    #[test]
    fn single_party_never_blocks() {
        let b = Barrier::new(1);
        assert!(b.arrive_and_wait());
        assert!(b.arrive_and_wait());
        assert_eq!(b.generation(), 2);
    }

    #[test]
    fn pumped_wait_invokes_pump() {
        let b = Arc::new(Barrier::new(2));
        let pumps = Arc::new(AtomicU64::new(0));
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            b2.arrive_and_wait()
        });
        let p = Arc::clone(&pumps);
        let leader = b.arrive_and_wait_with(move || {
            p.fetch_add(1, Ordering::Relaxed);
            false
        });
        let other_leader = t.join().unwrap();
        assert!(leader ^ other_leader, "exactly one leader");
        assert!(pumps.load(Ordering::Relaxed) > 0);
    }

    #[test]
    #[should_panic(expected = "at least one party")]
    fn zero_parties_panics() {
        let _ = Barrier::new(0);
    }
}
