//! Monotonic time utilities: stopwatches, hybrid precision sleep and busy
//! cost charging.
//!
//! The software network fabric (`rpx-net`) models per-message software
//! overheads — the very overheads message coalescing amortises — by
//! *charging* real CPU time on the thread that pumps the message. That
//! charging must be precise at microsecond scale, far below what
//! `std::thread::sleep` can deliver, hence the spin-based primitives here.

use std::time::{Duration, Instant};

/// Threshold below which [`spin_sleep`] spins instead of parking the thread.
///
/// OS sleeps routinely overshoot by 50 µs – several ms depending on the
/// scheduler tick; spinning the final stretch keeps precision in the low
/// microseconds. Only callers that pay for that precision with a busy core
/// use it — the flush timer (`timer.rs`) parks instead.
const SPIN_THRESHOLD: Duration = Duration::from_micros(250);

/// Sleep for `dur` with microsecond precision.
///
/// Parks the thread for the bulk of the interval and spins the final
/// 250 µs so the wake-up error stays in the low microseconds.
pub fn spin_sleep(dur: Duration) {
    let deadline = Instant::now() + dur;
    spin_sleep_until(deadline);
}

/// Sleep until `deadline` with microsecond precision.
pub fn spin_sleep_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let remaining = deadline - now;
        if remaining > SPIN_THRESHOLD {
            // Leave the spin margin on the table; OS sleep may overshoot.
            std::thread::sleep(remaining - SPIN_THRESHOLD);
        } else {
            break;
        }
    }
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
}

/// Burn CPU for `dur`, returning the time actually consumed.
///
/// This is the cost-charging primitive of the fabric: the thread that sends
/// or receives a network message spends the modelled per-message overhead
/// here, so the overhead is *really paid* on a scheduler thread and shows up
/// in the `/threads/background-work` counter exactly as it would in HPX.
pub fn busy_charge(dur: Duration) -> Duration {
    let start = Instant::now();
    let deadline = start + dur;
    while Instant::now() < deadline {
        std::hint::spin_loop();
    }
    start.elapsed()
}

/// A simple monotonic stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start a new stopwatch.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Time elapsed since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in whole nanoseconds, saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Restart the stopwatch, returning the previous elapsed time.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let lap = now - self.start;
        self.start = now;
        lap
    }

    /// The instant the stopwatch was (re)started.
    pub fn started_at(&self) -> Instant {
        self.start
    }
}

/// Convert a [`Duration`] to whole nanoseconds, saturating at `u64::MAX`.
pub fn dur_to_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Convert whole nanoseconds to a [`Duration`].
pub fn ns_to_dur(ns: u64) -> Duration {
    Duration::from_nanos(ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_sleep_is_at_least_requested() {
        let d = Duration::from_micros(300);
        let t = Instant::now();
        spin_sleep(d);
        assert!(t.elapsed() >= d);
    }

    #[test]
    fn spin_sleep_zero_returns_immediately() {
        let t = Instant::now();
        spin_sleep(Duration::ZERO);
        // Very loose bound: just check we did not sleep a scheduler tick.
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn spin_sleep_until_past_deadline_is_noop() {
        let past = Instant::now() - Duration::from_millis(5);
        let t = Instant::now();
        spin_sleep_until(past);
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn busy_charge_consumes_at_least_requested() {
        let d = Duration::from_micros(200);
        let spent = busy_charge(d);
        assert!(spent >= d);
        // And not wildly more (spin loops are tight); 10 ms slack for CI noise.
        assert!(spent < d + Duration::from_millis(10));
    }

    #[test]
    fn stopwatch_lap_resets() {
        let mut sw = Stopwatch::start();
        busy_charge(Duration::from_micros(100));
        let lap = sw.lap();
        assert!(lap >= Duration::from_micros(100));
        assert!(sw.elapsed() < lap);
    }

    #[test]
    fn dur_ns_roundtrip() {
        let d = Duration::from_nanos(123_456_789);
        assert_eq!(ns_to_dur(dur_to_ns(d)), d);
    }

    #[test]
    fn dur_to_ns_saturates() {
        assert_eq!(dur_to_ns(Duration::MAX), u64::MAX);
    }
}
