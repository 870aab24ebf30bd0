//! `/threads/*` performance counters.
//!
//! Registers the scheduler's time accounts as HPX-style counters. The two
//! counters added to HPX *as part of the paper's study* are
//! `/threads/background-work` (Eq. 3) and `/threads/background-overhead`
//! (Eq. 4); the others pre-exist in HPX and complete the metric set of
//! §III.

use std::sync::Arc;

use rpx_counters::{CallbackCounter, CounterRegistry, CounterValue};

use crate::stats::ThreadStats;

/// Register the full `/threads/*` counter set against `stats`.
///
/// | Counter | Value |
/// |---|---|
/// | `/threads/count/cumulative` | `n_t`, tasks executed |
/// | `/threads/count/cumulative-spawned` | tasks spawned |
/// | `/threads/time/cumulative` | `Σ t_func` (ns) — Eq. 1 |
/// | `/threads/time/cumulative-work` | `Σ t_exec` (ns) |
/// | `/threads/time/average` | `Σ t_func / n_t` (ns) |
/// | `/threads/time/average-overhead` | Eq. 2 (ns/task) |
/// | `/threads/background-work` | `Σ t_background` (ns) — Eq. 3 |
/// | `/threads/background-overhead` | Eq. 4 (ratio) |
/// | `/threads/idle-rate` | idle / (idle + func) |
/// | `/threads/spawn-batches` | `spawn_batch` calls (batched ingress) |
/// | `/threads/batched-tasks` | tasks admitted through `spawn_batch` |
/// | `/threads/wakeups-skipped` | wakeups elided (no worker parked) |
/// | `/threads/parks` | sleeps on the scheduler's eventcount (workers + waiters) |
/// | `/threads/park-timeouts` | parks ended by the `idle_park` fallback, not a notification |
/// | `/threads/waiter-parks` | parks by tasks blocked in an LCO wait |
///
/// Counter resets zero the underlying accounts (all `/threads/*` counters
/// share one [`ThreadStats`], so resetting one resets them all, matching
/// HPX's `reset` semantics on aggregate counters).
pub fn register_thread_counters(registry: &CounterRegistry, stats: Arc<ThreadStats>) {
    let mk = |read: Box<dyn Fn(&ThreadStats) -> CounterValue + Send + Sync>| {
        let stats = Arc::clone(&stats);
        let stats_reset = Arc::clone(&stats);
        CallbackCounter::with_reset(move || read(&stats), move || stats_reset.reset())
    };

    registry.register_or_replace(
        "/threads/count/cumulative",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().tasks_executed as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/count/cumulative-spawned",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().tasks_spawned as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/time/cumulative",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().func_ns() as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/time/cumulative-work",
        mk(Box::new(|s| CounterValue::Int(s.snapshot().exec_ns as i64))),
    );
    registry.register_or_replace(
        "/threads/time/average",
        mk(Box::new(|s| {
            let snap = s.snapshot();
            let avg = if snap.tasks_executed == 0 {
                0.0
            } else {
                snap.func_ns() as f64 / snap.tasks_executed as f64
            };
            CounterValue::Float(avg)
        })),
    );
    registry.register_or_replace(
        "/threads/time/average-overhead",
        mk(Box::new(|s| {
            CounterValue::Float(s.snapshot().task_overhead_ns())
        })),
    );
    registry.register_or_replace(
        "/threads/background-work",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().background_ns as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/background-overhead",
        mk(Box::new(|s| {
            CounterValue::Float(s.snapshot().network_overhead())
        })),
    );
    registry.register_or_replace(
        "/threads/spawn-batches",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().spawn_batches as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/batched-tasks",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().batched_tasks as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/wakeups-skipped",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().wakeups_skipped as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/parks",
        mk(Box::new(|s| CounterValue::Int(s.snapshot().parks as i64))),
    );
    registry.register_or_replace(
        "/threads/park-timeouts",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().park_timeouts as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/waiter-parks",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().waiter_parks as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/telemetry-time",
        mk(Box::new(|s| {
            CounterValue::Int(s.snapshot().telemetry_ns as i64)
        })),
    );
    registry.register_or_replace(
        "/threads/idle-rate",
        mk(Box::new(|s| {
            let snap = s.snapshot();
            let busy = snap.func_ns();
            let total = busy + snap.idle_ns;
            let rate = if total == 0 {
                0.0
            } else {
                snap.idle_ns as f64 / total as f64
            };
            CounterValue::Float(rate)
        })),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn setup() -> (Arc<CounterRegistry>, Arc<ThreadStats>) {
        let registry = CounterRegistry::new(0);
        let stats = Arc::new(ThreadStats::new());
        register_thread_counters(&registry, Arc::clone(&stats));
        (registry, stats)
    }

    #[test]
    fn all_paper_counters_exist() {
        let (reg, _) = setup();
        for path in [
            "/threads/count/cumulative",
            "/threads/time/cumulative",
            "/threads/time/cumulative-work",
            "/threads/time/average-overhead",
            "/threads/background-work",
            "/threads/background-overhead",
        ] {
            assert!(reg.query(path).is_ok(), "missing {path}");
        }
        assert_eq!(reg.discover("/threads/*").len(), 16);
    }

    #[test]
    fn ingress_counters_reflect_stats() {
        let (reg, stats) = setup();
        stats.count_spawn_batch(64);
        stats.count_wakeup_skipped();
        stats.count_wakeup_skipped();
        assert_eq!(reg.query_f64("/threads/spawn-batches").unwrap(), 1.0);
        assert_eq!(reg.query_f64("/threads/batched-tasks").unwrap(), 64.0);
        assert_eq!(reg.query_f64("/threads/wakeups-skipped").unwrap(), 2.0);
        stats.count_park(false);
        stats.count_park(true);
        stats.count_waiter_park();
        assert_eq!(reg.query_f64("/threads/parks").unwrap(), 2.0);
        assert_eq!(reg.query_f64("/threads/park-timeouts").unwrap(), 1.0);
        assert_eq!(reg.query_f64("/threads/waiter-parks").unwrap(), 1.0);
        // Batched tasks feed the cumulative spawned counter too.
        assert_eq!(
            reg.query_f64("/threads/count/cumulative-spawned").unwrap(),
            64.0
        );
    }

    #[test]
    fn counters_reflect_stats() {
        let (reg, stats) = setup();
        stats.add_exec(Duration::from_nanos(600));
        stats.add_mgmt(Duration::from_nanos(200));
        stats.add_background(Duration::from_nanos(200));
        stats.count_task();
        stats.count_task();

        assert_eq!(reg.query_f64("/threads/count/cumulative").unwrap(), 2.0);
        assert_eq!(reg.query_f64("/threads/time/cumulative").unwrap(), 1000.0);
        assert_eq!(
            reg.query_f64("/threads/time/cumulative-work").unwrap(),
            600.0
        );
        assert_eq!(reg.query_f64("/threads/time/average").unwrap(), 500.0);
        // Eq. 2: (1000 - 600) / 2 = 200 ns/task.
        assert_eq!(
            reg.query_f64("/threads/time/average-overhead").unwrap(),
            200.0
        );
        assert_eq!(reg.query_f64("/threads/background-work").unwrap(), 200.0);
        // Eq. 4: 200 / 1000.
        assert_eq!(reg.query_f64("/threads/background-overhead").unwrap(), 0.2);
    }

    #[test]
    fn idle_rate() {
        let (reg, stats) = setup();
        stats.add_exec(Duration::from_nanos(100));
        stats.add_idle(Duration::from_nanos(300));
        assert_eq!(reg.query_f64("/threads/idle-rate").unwrap(), 0.75);
    }

    #[test]
    fn zero_state_queries_are_finite() {
        let (reg, _) = setup();
        for path in reg.discover("/threads/*") {
            let v = reg.query_f64(&path).unwrap();
            assert!(v.is_finite());
            assert_eq!(v, 0.0, "{path} should start at 0");
        }
    }

    #[test]
    fn reset_zeroes_underlying_stats() {
        let (reg, stats) = setup();
        stats.add_background(Duration::from_nanos(500));
        stats.count_task();
        reg.reset("/threads/background-work").unwrap();
        assert_eq!(reg.query_f64("/threads/background-work").unwrap(), 0.0);
        // Shared stats: the task count was reset too (HPX aggregate
        // semantics).
        assert_eq!(reg.query_f64("/threads/count/cumulative").unwrap(), 0.0);
    }
}
