//! A runtime leaves no thread behind: after `shutdown()` and drop, the
//! scheduler workers and the flush-timer thread are gone. Alone in its
//! test binary because it counts this process's threads by name.

use std::time::{Duration, Instant};

use rpx::{CoalescingParams, Runtime, RuntimeConfig};

/// Threads of this process named like a flush timer or a locality worker
/// (`/proc/<pid>/task/<tid>/comm`, which the kernel cuts to 15 bytes).
fn runtime_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| {
            comm.starts_with("rpx-timer") || (comm.starts_with("loc") && comm.contains("-worker"))
        })
        .collect();
    names.sort();
    names
}

#[test]
#[cfg(target_os = "linux")]
fn boot_coalesce_traffic_shutdown_drop_leaves_no_thread_behind() {
    let before = runtime_threads();
    for cycle in 0..5 {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let act = rt.action("leak::echo").register(|x: u64| x);
        let control = rt
            .enable_coalescing(
                "leak::echo",
                CoalescingParams::new(4, Duration::from_micros(500)),
            )
            .expect("registered action");
        let sum: u64 = rt.run_on(0, move |ctx| {
            let futures = (0..32).map(|i| ctx.async_action(&act, 1, i)).collect();
            ctx.wait_all(futures).expect("echoes").into_iter().sum()
        });
        assert_eq!(sum, (0..32).sum::<u64>());
        // The filter must match what a live runtime runs (a thread names
        // itself once it starts, so give the last one a moment).
        let named_by = Instant::now() + Duration::from_secs(5);
        while runtime_threads().len() != before.len() + 5 {
            assert!(
                Instant::now() < named_by,
                "cycle {cycle}: expected 2 x 2 workers + the flush timer, saw {:?}",
                runtime_threads()
            );
            std::thread::yield_now();
        }
        rt.shutdown();
        drop((rt, control));
        assert_eq!(
            runtime_threads(),
            before,
            "cycle {cycle}: threads outlived shutdown + drop"
        );
    }
}
