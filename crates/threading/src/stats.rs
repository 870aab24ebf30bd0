//! Scheduler time accounting.
//!
//! Each worker's wall-clock time is split into four exclusive accounts:
//!
//! * **exec** — running application task bodies (`Σ t_exec`),
//! * **mgmt** — finding, stealing and dispatching tasks (thread management),
//! * **background** — running registered background work, i.e. the parcel
//!   pump (`Σ t_background`),
//! * **idle** — parked with nothing to do.
//!
//! The paper's task duration `Σ t_func` — "the total time spent by the HPX
//! scheduler executing each HPX thread", including overhead — maps to
//! `exec + mgmt + background`: everything the scheduler does on behalf of
//! work, excluding pure idling. All four accounts are relaxed atomics
//! updated from worker threads and read by counter queries and the metrics
//! layer.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use rpx_util::time::dur_to_ns;

/// Aggregate time accounts for one scheduler, in nanoseconds.
#[derive(Debug, Default)]
pub struct ThreadStats {
    exec_ns: AtomicU64,
    mgmt_ns: AtomicU64,
    background_ns: AtomicU64,
    /// Background work performed *inside* a task body (a blocked waiter
    /// pumping the network). Counted in `exec_ns` by the raw wall-clock
    /// task timing, so snapshots move it from exec to background.
    in_task_background_ns: AtomicU64,
    /// Accounting-excluded aux background work (the telemetry sampler).
    /// Kept out of every Eq. 1–4 account so instrumenting a run does not
    /// perturb the overhead figures the run is instrumenting.
    telemetry_ns: AtomicU64,
    idle_ns: AtomicU64,
    tasks_executed: AtomicU64,
    tasks_spawned: AtomicU64,
    steals: AtomicU64,
    background_polls: AtomicU64,
    spawn_batches: AtomicU64,
    batched_tasks: AtomicU64,
    wakeups_skipped: AtomicU64,
    parks: AtomicU64,
    park_timeouts: AtomicU64,
    waiter_parks: AtomicU64,
}

impl ThreadStats {
    /// New zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charge task body execution time.
    pub fn add_exec(&self, d: Duration) {
        self.exec_ns.fetch_add(dur_to_ns(d), Ordering::Relaxed);
    }

    /// Charge task management (scheduling) time.
    pub fn add_mgmt(&self, d: Duration) {
        self.mgmt_ns.fetch_add(dur_to_ns(d), Ordering::Relaxed);
    }

    /// Charge background-work time.
    pub fn add_background(&self, d: Duration) {
        self.background_ns
            .fetch_add(dur_to_ns(d), Ordering::Relaxed);
    }

    /// Charge background work performed *within* a running task (a waiter
    /// cooperatively pumping the network). The snapshot reclassifies this
    /// time from task execution to background so Eq. 4 stays truthful.
    pub fn add_in_task_background(&self, d: Duration) {
        self.in_task_background_ns
            .fetch_add(dur_to_ns(d), Ordering::Relaxed);
    }

    /// Charge accounting-excluded telemetry (aux background) time.
    pub fn add_telemetry(&self, d: Duration) {
        self.telemetry_ns.fetch_add(dur_to_ns(d), Ordering::Relaxed);
    }

    /// Charge idle (parked) time.
    pub fn add_idle(&self, d: Duration) {
        self.idle_ns.fetch_add(dur_to_ns(d), Ordering::Relaxed);
    }

    /// Count one executed task.
    pub fn count_task(&self) {
        self.tasks_executed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one spawned task.
    pub fn count_spawn(&self) {
        self.tasks_spawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one batched spawn of `n` tasks: one batch, `n` spawned tasks
    /// (a single atomic add each — the whole point of the batch path).
    pub fn count_spawn_batch(&self, n: u64) {
        self.spawn_batches.fetch_add(1, Ordering::Relaxed);
        self.batched_tasks.fetch_add(n, Ordering::Relaxed);
        self.tasks_spawned.fetch_add(n, Ordering::Relaxed);
    }

    /// Count one wakeup elided because no worker was parked.
    pub fn count_wakeup_skipped(&self) {
        self.wakeups_skipped.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one park (an idle worker or a blocked waiter went to sleep
    /// on the scheduler's eventcount) and whether it ended on the
    /// fallback timeout instead of a notification.
    pub fn count_park(&self, timed_out: bool) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.park_timeouts
            .fetch_add(u64::from(timed_out), Ordering::Relaxed);
    }

    /// Count one park as a blocked waiter's (a task parked in an LCO
    /// wait on a worker thread); also counted by [`Self::count_park`].
    pub fn count_waiter_park(&self) {
        self.waiter_parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful steal.
    pub fn count_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one background poll (regardless of whether it found work).
    pub fn count_background_poll(&self) {
        self.background_polls.fetch_add(1, Ordering::Relaxed);
    }

    /// Take a consistent-enough snapshot (individual loads are relaxed;
    /// the tiny skew between accounts is far below measurement noise).
    pub fn snapshot(&self) -> StatsSnapshot {
        let in_task_bg = self.in_task_background_ns.load(Ordering::Relaxed);
        StatsSnapshot {
            exec_ns: self
                .exec_ns
                .load(Ordering::Relaxed)
                .saturating_sub(in_task_bg),
            mgmt_ns: self.mgmt_ns.load(Ordering::Relaxed),
            background_ns: self.background_ns.load(Ordering::Relaxed) + in_task_bg,
            telemetry_ns: self.telemetry_ns.load(Ordering::Relaxed),
            idle_ns: self.idle_ns.load(Ordering::Relaxed),
            tasks_executed: self.tasks_executed.load(Ordering::Relaxed),
            tasks_spawned: self.tasks_spawned.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            background_polls: self.background_polls.load(Ordering::Relaxed),
            spawn_batches: self.spawn_batches.load(Ordering::Relaxed),
            batched_tasks: self.batched_tasks.load(Ordering::Relaxed),
            wakeups_skipped: self.wakeups_skipped.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            park_timeouts: self.park_timeouts.load(Ordering::Relaxed),
            waiter_parks: self.waiter_parks.load(Ordering::Relaxed),
        }
    }

    /// Reset all accounts to zero.
    pub fn reset(&self) {
        self.exec_ns.store(0, Ordering::Relaxed);
        self.mgmt_ns.store(0, Ordering::Relaxed);
        self.background_ns.store(0, Ordering::Relaxed);
        self.in_task_background_ns.store(0, Ordering::Relaxed);
        self.telemetry_ns.store(0, Ordering::Relaxed);
        self.idle_ns.store(0, Ordering::Relaxed);
        self.tasks_executed.store(0, Ordering::Relaxed);
        self.tasks_spawned.store(0, Ordering::Relaxed);
        self.steals.store(0, Ordering::Relaxed);
        self.background_polls.store(0, Ordering::Relaxed);
        self.spawn_batches.store(0, Ordering::Relaxed);
        self.batched_tasks.store(0, Ordering::Relaxed);
        self.wakeups_skipped.store(0, Ordering::Relaxed);
        self.parks.store(0, Ordering::Relaxed);
        self.park_timeouts.store(0, Ordering::Relaxed);
        self.waiter_parks.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of [`ThreadStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Time spent in task bodies (ns) — `Σ t_exec`.
    pub exec_ns: u64,
    /// Time spent in task management (ns).
    pub mgmt_ns: u64,
    /// Time spent in background work (ns) — `Σ t_background` (Eq. 3).
    pub background_ns: u64,
    /// Time spent in accounting-excluded aux background work (ns), i.e.
    /// the telemetry sampler. Deliberately **not** part of
    /// [`StatsSnapshot::func_ns`] or any Eq. 1–4 term.
    pub telemetry_ns: u64,
    /// Time spent idle (ns).
    pub idle_ns: u64,
    /// Number of tasks executed — `n_t`.
    pub tasks_executed: u64,
    /// Number of tasks spawned.
    pub tasks_spawned: u64,
    /// Number of successful steals.
    pub steals: u64,
    /// Number of background polls.
    pub background_polls: u64,
    /// Number of `spawn_batch` calls.
    pub spawn_batches: u64,
    /// Number of tasks spawned through `spawn_batch` (a subset of
    /// `tasks_spawned`).
    pub batched_tasks: u64,
    /// Wakeups elided because no worker was parked at spawn/notify time.
    pub wakeups_skipped: u64,
    /// Times a thread went to sleep on the scheduler's eventcount (idle
    /// workers and blocked waiters).
    pub parks: u64,
    /// Parks that ended on the `idle_park` fallback (or a wait deadline)
    /// instead of a notification.
    pub park_timeouts: u64,
    /// Parks by tasks blocked in an LCO wait (a subset of `parks`).
    pub waiter_parks: u64,
}

impl StatsSnapshot {
    /// `Σ t_func` (Eq. 1): all scheduler time spent on behalf of work.
    pub fn func_ns(&self) -> u64 {
        self.exec_ns + self.mgmt_ns + self.background_ns
    }

    /// Eq. 2 task overhead in nanoseconds per task:
    /// `(Σ t_func − Σ t_exec) / n_t`.
    pub fn task_overhead_ns(&self) -> f64 {
        if self.tasks_executed == 0 {
            0.0
        } else {
            (self.func_ns() - self.exec_ns) as f64 / self.tasks_executed as f64
        }
    }

    /// Eq. 4 network overhead: `Σ t_background / Σ t_func` (0.0 when no
    /// work has run yet).
    pub fn network_overhead(&self) -> f64 {
        let func = self.func_ns();
        if func == 0 {
            0.0
        } else {
            self.background_ns as f64 / func as f64
        }
    }

    /// Difference `self − earlier`, used for per-phase instantaneous
    /// metrics (Fig. 9). Saturates at zero if counters were reset between.
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsDelta {
        StatsDelta(StatsSnapshot {
            exec_ns: self.exec_ns.saturating_sub(earlier.exec_ns),
            mgmt_ns: self.mgmt_ns.saturating_sub(earlier.mgmt_ns),
            background_ns: self.background_ns.saturating_sub(earlier.background_ns),
            telemetry_ns: self.telemetry_ns.saturating_sub(earlier.telemetry_ns),
            idle_ns: self.idle_ns.saturating_sub(earlier.idle_ns),
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            tasks_spawned: self.tasks_spawned.saturating_sub(earlier.tasks_spawned),
            steals: self.steals.saturating_sub(earlier.steals),
            background_polls: self
                .background_polls
                .saturating_sub(earlier.background_polls),
            spawn_batches: self.spawn_batches.saturating_sub(earlier.spawn_batches),
            batched_tasks: self.batched_tasks.saturating_sub(earlier.batched_tasks),
            wakeups_skipped: self.wakeups_skipped.saturating_sub(earlier.wakeups_skipped),
            parks: self.parks.saturating_sub(earlier.parks),
            park_timeouts: self.park_timeouts.saturating_sub(earlier.park_timeouts),
            waiter_parks: self.waiter_parks.saturating_sub(earlier.waiter_parks),
        })
    }
}

/// A difference of two snapshots; exposes the same derived metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsDelta(pub StatsSnapshot);

impl std::ops::Deref for StatsDelta {
    type Target = StatsSnapshot;
    fn deref(&self) -> &StatsSnapshot {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(exec: u64, mgmt: u64, bg: u64, tasks: u64) -> StatsSnapshot {
        StatsSnapshot {
            exec_ns: exec,
            mgmt_ns: mgmt,
            background_ns: bg,
            tasks_executed: tasks,
            ..Default::default()
        }
    }

    #[test]
    fn accounts_accumulate() {
        let s = ThreadStats::new();
        s.add_exec(Duration::from_nanos(100));
        s.add_exec(Duration::from_nanos(50));
        s.add_mgmt(Duration::from_nanos(10));
        s.add_background(Duration::from_nanos(40));
        s.add_idle(Duration::from_nanos(1000));
        s.count_task();
        s.count_task();
        s.count_spawn();
        s.count_steal();
        s.count_background_poll();
        let snap = s.snapshot();
        assert_eq!(snap.exec_ns, 150);
        assert_eq!(snap.mgmt_ns, 10);
        assert_eq!(snap.background_ns, 40);
        assert_eq!(snap.idle_ns, 1000);
        assert_eq!(snap.tasks_executed, 2);
        assert_eq!(snap.tasks_spawned, 1);
        assert_eq!(snap.steals, 1);
        assert_eq!(snap.background_polls, 1);
        assert_eq!(snap.func_ns(), 200);
    }

    #[test]
    fn equation_2_task_overhead() {
        // t_func = 200, t_exec = 150, n_t = 2 → overhead = 25 ns/task.
        let snap = stats_with(150, 10, 40, 2);
        assert_eq!(snap.task_overhead_ns(), 25.0);
        // No tasks → zero, not NaN.
        assert_eq!(stats_with(0, 0, 0, 0).task_overhead_ns(), 0.0);
    }

    #[test]
    fn equation_4_network_overhead() {
        let snap = stats_with(150, 10, 40, 2);
        assert!((snap.network_overhead() - 0.2).abs() < 1e-12);
        assert_eq!(StatsSnapshot::default().network_overhead(), 0.0);
    }

    #[test]
    fn delta_since_subtracts() {
        let a = stats_with(100, 10, 5, 3);
        let b = stats_with(250, 30, 25, 10);
        let d = b.delta_since(&a);
        assert_eq!(d.exec_ns, 150);
        assert_eq!(d.mgmt_ns, 20);
        assert_eq!(d.background_ns, 20);
        assert_eq!(d.tasks_executed, 7);
        // Saturating on reset-in-between.
        let d = a.delta_since(&b);
        assert_eq!(d.exec_ns, 0);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = ThreadStats::new();
        s.add_exec(Duration::from_nanos(5));
        s.count_task();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn in_task_background_is_reclassified() {
        let s = ThreadStats::new();
        // A task body measured at 1000 ns, 400 of which were spent pumping
        // the network while blocked on a future.
        s.add_exec(Duration::from_nanos(1000));
        s.add_in_task_background(Duration::from_nanos(400));
        s.count_task();
        let snap = s.snapshot();
        assert_eq!(snap.exec_ns, 600);
        assert_eq!(snap.background_ns, 400);
        assert_eq!(snap.func_ns(), 1000);
        assert!((snap.network_overhead() - 0.4).abs() < 1e-12);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn batch_and_wakeup_counters_accumulate() {
        let s = ThreadStats::new();
        s.count_spawn_batch(64);
        s.count_spawn_batch(8);
        s.count_spawn();
        s.count_wakeup_skipped();
        let snap = s.snapshot();
        assert_eq!(snap.spawn_batches, 2);
        assert_eq!(snap.batched_tasks, 72);
        // Batched tasks count toward the cumulative spawn counter too.
        assert_eq!(snap.tasks_spawned, 73);
        assert_eq!(snap.wakeups_skipped, 1);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn idle_is_excluded_from_func_time() {
        let snap = StatsSnapshot {
            exec_ns: 10,
            idle_ns: 1_000_000,
            ..Default::default()
        };
        assert_eq!(snap.func_ns(), 10);
    }

    #[test]
    fn telemetry_time_is_excluded_from_eq_accounts() {
        let s = ThreadStats::new();
        s.add_exec(Duration::from_nanos(100));
        s.add_background(Duration::from_nanos(50));
        s.add_telemetry(Duration::from_nanos(1_000_000));
        s.count_task();
        let snap = s.snapshot();
        assert_eq!(snap.telemetry_ns, 1_000_000);
        // Eq. 1 func time and Eq. 4 overhead ignore the sampling cost.
        assert_eq!(snap.func_ns(), 150);
        assert!((snap.network_overhead() - 50.0 / 150.0).abs() < 1e-12);
        let later = {
            s.add_telemetry(Duration::from_nanos(500));
            s.snapshot()
        };
        assert_eq!(later.delta_since(&snap).telemetry_ns, 500);
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }
}
