//! Failure injection for the transports.
//!
//! A production messaging layer must tolerate lost, corrupted, duplicated
//! and reordered messages; the paper's stack sits on MPI/TCP, which hides
//! the first two behind timeouts and checksums and never surfaces the
//! last two at all. [`FaultPlan`] lets tests and the chaos suite inject
//! all four failure modes deterministically on the send path of any
//! backend and verify that the runtime degrades gracefully — and, with
//! the [`crate::reliability`] sublayer enabled, that delivery stays
//! exactly-once regardless.
//!
//! Faults are decided per outbound message by [`FaultPlan::decide`] and
//! carried out in one place, the shared port front end (`port.rs`);
//! messages chosen for delay or reordering are parked there in a
//! [`FaultStage`] and released once their delay has passed or enough
//! later traffic has overtaken them (or a hold deadline expires, so a
//! quiet link cannot strand them forever).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Deterministic fault plan for one port's outbound traffic.
///
/// Counting is 1-based over messages passing `pump_send`: with
/// `drop_every = Some(3)` the 3rd, 6th, 9th… messages are dropped. When
/// several periods hit the same message the precedence is
/// drop > corrupt > duplicate > delay > reorder.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Drop every n-th message.
    pub drop_every: Option<u64>,
    /// Corrupt (flip a frame byte of) every n-th message.
    pub corrupt_every: Option<u64>,
    /// Deliver every n-th message twice.
    pub duplicate_every: Option<u64>,
    /// Delay every n-th message by [`FaultPlan::delay`].
    pub delay_every: Option<u64>,
    /// How long a delayed message is held back.
    pub delay: Duration,
    /// Hold every w-th message until `w` later messages have overtaken
    /// it (delivery reordered by up to `w` positions).
    pub reorder_window: Option<u64>,
    sent: AtomicU64,
    dropped: AtomicU64,
    corrupted: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    reordered: AtomicU64,
}

/// What the fault plan decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver unmodified.
    Deliver,
    /// Discard the message.
    Drop,
    /// Deliver with a corrupted payload.
    Corrupt,
    /// Deliver the message twice.
    Duplicate,
    /// Deliver after an extra [`FaultPlan::delay`].
    Delay,
    /// Park the message in the [`FaultStage`] so later traffic overtakes
    /// it.
    Reorder,
}

impl FaultPlan {
    /// A plan that drops every `n`-th message.
    pub fn drop_every(n: u64) -> Self {
        assert!(n > 0, "period must be positive");
        FaultPlan {
            drop_every: Some(n),
            ..Default::default()
        }
    }

    /// A plan that corrupts every `n`-th message.
    pub fn corrupt_every(n: u64) -> Self {
        assert!(n > 0, "period must be positive");
        FaultPlan {
            corrupt_every: Some(n),
            ..Default::default()
        }
    }

    /// A plan that duplicates every `n`-th message.
    pub fn duplicate_every(n: u64) -> Self {
        assert!(n > 0, "period must be positive");
        FaultPlan {
            duplicate_every: Some(n),
            ..Default::default()
        }
    }

    /// A plan that delays every `n`-th message by `delay`.
    pub fn delay_every(n: u64, delay: Duration) -> Self {
        assert!(n > 0, "period must be positive");
        FaultPlan {
            delay_every: Some(n),
            delay,
            ..Default::default()
        }
    }

    /// A plan that reorders every `w`-th message by up to `w` positions.
    pub fn reorder_window(w: u64) -> Self {
        assert!(w > 0, "window must be positive");
        FaultPlan {
            reorder_window: Some(w),
            ..Default::default()
        }
    }

    /// The combined plan used by the chaos suite: 5 % drop, 2 % corrupt,
    /// 4 % duplicate, reorder window of 8.
    pub fn chaos() -> Self {
        FaultPlan {
            drop_every: Some(20),
            corrupt_every: Some(50),
            duplicate_every: Some(25),
            reorder_window: Some(8),
            ..Default::default()
        }
    }

    /// Decide the fate of the next message.
    pub fn decide(&self) -> FaultAction {
        let n = self.sent.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(period) = self.drop_every {
            if n.is_multiple_of(period) {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return FaultAction::Drop;
            }
        }
        if let Some(period) = self.corrupt_every {
            if n.is_multiple_of(period) {
                self.corrupted.fetch_add(1, Ordering::Relaxed);
                return FaultAction::Corrupt;
            }
        }
        if let Some(period) = self.duplicate_every {
            if n.is_multiple_of(period) {
                self.duplicated.fetch_add(1, Ordering::Relaxed);
                return FaultAction::Duplicate;
            }
        }
        if let Some(period) = self.delay_every {
            if n.is_multiple_of(period) {
                self.delayed.fetch_add(1, Ordering::Relaxed);
                return FaultAction::Delay;
            }
        }
        if let Some(window) = self.reorder_window {
            if n.is_multiple_of(window) {
                self.reordered.fetch_add(1, Ordering::Relaxed);
                return FaultAction::Reorder;
            }
        }
        FaultAction::Deliver
    }

    /// Messages dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Messages corrupted so far.
    pub fn corrupted(&self) -> u64 {
        self.corrupted.load(Ordering::Relaxed)
    }

    /// Messages duplicated so far.
    pub fn duplicated(&self) -> u64 {
        self.duplicated.load(Ordering::Relaxed)
    }

    /// Messages delayed so far.
    pub fn delayed(&self) -> u64 {
        self.delayed.load(Ordering::Relaxed)
    }

    /// Messages reordered so far.
    pub fn reordered(&self) -> u64 {
        self.reordered.load(Ordering::Relaxed)
    }
}

/// Holding pen for messages picked for [`FaultAction::Delay`] or
/// [`FaultAction::Reorder`].
///
/// Each port's front end owns one stage. A held item is released once `window` later messages have
/// passed it ([`FaultStage::on_pass`]) **or** its hold deadline expires —
/// the deadline guarantees a link that goes quiet cannot strand a held
/// message (quiescence would otherwise hang). Held items count toward
/// the port's outbound backlog via [`FaultStage::len`].
#[derive(Debug)]
pub struct FaultStage<T> {
    held: VecDeque<Held<T>>,
    max_hold: Duration,
}

#[derive(Debug)]
struct Held<T> {
    item: T,
    passes_left: u64,
    deadline: Instant,
}

/// Default cap on how long a reordered message is parked.
pub const DEFAULT_MAX_HOLD: Duration = Duration::from_millis(2);

impl<T> Default for FaultStage<T> {
    fn default() -> Self {
        FaultStage::new(DEFAULT_MAX_HOLD)
    }
}

impl<T> FaultStage<T> {
    /// A stage that releases held items after `max_hold` even if not
    /// enough traffic overtakes them.
    pub fn new(max_hold: Duration) -> Self {
        FaultStage {
            held: VecDeque::new(),
            max_hold,
        }
    }

    /// Park `item` until `passes` later messages overtake it.
    pub fn hold(&mut self, item: T, passes: u64) {
        self.hold_for(item, passes, self.max_hold);
    }

    /// Park `item` with an explicit hold deadline (used for
    /// [`FaultAction::Delay`]: `passes = u64::MAX` makes the deadline the
    /// only release).
    pub fn hold_for(&mut self, item: T, passes: u64, hold: Duration) {
        self.held.push_back(Held {
            item,
            passes_left: passes.max(1),
            deadline: Instant::now() + hold,
        });
    }

    /// Record that one message passed the stage (overtaking everything
    /// held).
    pub fn on_pass(&mut self) {
        for h in &mut self.held {
            h.passes_left = h.passes_left.saturating_sub(1);
        }
    }

    /// Move every item that is due (fully overtaken or past its
    /// deadline) into `out`, oldest first.
    pub fn drain_ready(&mut self, out: &mut Vec<T>) {
        let now = Instant::now();
        let mut i = 0;
        while i < self.held.len() {
            if self.held[i].passes_left == 0 || self.held[i].deadline <= now {
                let h = self.held.remove(i).expect("index checked");
                out.push(h.item);
            } else {
                i += 1;
            }
        }
    }

    /// Number of messages currently parked (counts toward backlog).
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// Whether nothing is parked.
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_period_is_respected() {
        let plan = FaultPlan::drop_every(3);
        let decisions: Vec<FaultAction> = (0..9).map(|_| plan.decide()).collect();
        assert_eq!(
            decisions
                .iter()
                .filter(|&&d| d == FaultAction::Drop)
                .count(),
            3
        );
        assert_eq!(decisions[2], FaultAction::Drop);
        assert_eq!(decisions[0], FaultAction::Deliver);
        assert_eq!(plan.dropped(), 3);
    }

    #[test]
    fn corrupt_period_is_respected() {
        let plan = FaultPlan::corrupt_every(2);
        let decisions: Vec<FaultAction> = (0..4).map(|_| plan.decide()).collect();
        assert_eq!(
            decisions,
            vec![
                FaultAction::Deliver,
                FaultAction::Corrupt,
                FaultAction::Deliver,
                FaultAction::Corrupt
            ]
        );
        assert_eq!(plan.corrupted(), 2);
    }

    #[test]
    fn duplicate_delay_reorder_periods_are_respected() {
        let plan = FaultPlan {
            duplicate_every: Some(2),
            delay_every: Some(3),
            delay: Duration::from_micros(50),
            reorder_window: Some(5),
            ..Default::default()
        };
        let decisions: Vec<FaultAction> = (0..10).map(|_| plan.decide()).collect();
        // 2,4,6,8,10 duplicate; 3,9 delay (6 taken by duplicate); 5 reorder
        // (10 taken by duplicate).
        assert_eq!(decisions[1], FaultAction::Duplicate);
        assert_eq!(decisions[2], FaultAction::Delay);
        assert_eq!(decisions[4], FaultAction::Reorder);
        assert_eq!(plan.duplicated(), 5);
        assert_eq!(plan.delayed(), 2);
        assert_eq!(plan.reordered(), 1);
    }

    #[test]
    fn drop_takes_precedence_over_corrupt() {
        let plan = FaultPlan {
            drop_every: Some(2),
            corrupt_every: Some(2),
            ..Default::default()
        };
        assert_eq!(plan.decide(), FaultAction::Deliver);
        assert_eq!(plan.decide(), FaultAction::Drop);
    }

    #[test]
    fn default_plan_always_delivers() {
        let plan = FaultPlan::default();
        assert!((0..100).all(|_| plan.decide() == FaultAction::Deliver));
    }

    #[test]
    fn chaos_plan_covers_all_modes() {
        let plan = FaultPlan::chaos();
        for _ in 0..200 {
            plan.decide();
        }
        assert!(plan.dropped() > 0);
        assert!(plan.corrupted() > 0);
        assert!(plan.duplicated() > 0);
        assert!(plan.reordered() > 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_period_panics() {
        let _ = FaultPlan::drop_every(0);
    }

    #[test]
    fn stage_releases_after_enough_passes() {
        let mut stage: FaultStage<u32> = FaultStage::new(Duration::from_secs(60));
        stage.hold(7, 2);
        let mut out = Vec::new();
        stage.drain_ready(&mut out);
        assert!(out.is_empty());
        stage.on_pass();
        stage.drain_ready(&mut out);
        assert!(out.is_empty());
        stage.on_pass();
        stage.drain_ready(&mut out);
        assert_eq!(out, vec![7]);
        assert!(stage.is_empty());
    }

    #[test]
    fn stage_releases_on_deadline_without_traffic() {
        let mut stage: FaultStage<u32> = FaultStage::new(Duration::from_millis(1));
        stage.hold(9, 1000);
        assert_eq!(stage.len(), 1);
        std::thread::sleep(Duration::from_millis(3));
        let mut out = Vec::new();
        stage.drain_ready(&mut out);
        assert_eq!(out, vec![9]);
    }

    #[test]
    fn stage_preserves_hold_order() {
        let mut stage: FaultStage<u32> = FaultStage::new(Duration::from_secs(60));
        stage.hold(1, 1);
        stage.hold(2, 1);
        stage.on_pass();
        let mut out = Vec::new();
        stage.drain_ready(&mut out);
        assert_eq!(out, vec![1, 2]);
    }
}
