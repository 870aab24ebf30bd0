//! Telemetry sampler lifecycle: start/stop idempotence, frozen tick
//! streams after runtime shutdown, and ring-buffer wraparound keeping the
//! most recent samples — exercised over both the simulated fabric and the
//! real loopback-TCP backend, since the sampler rides the scheduler's
//! auxiliary background path on either transport.

use std::time::Duration;

use rpx::{CounterError, TelemetryConfig, TransportKind};
use rpx_apps::driver::boot;
use rpx_apps::toy::{run_toy, ToyConfig};

fn traffic() -> ToyConfig {
    ToyConfig {
        numparcels: 300,
        phases: 2,
        bidirectional: false,
        coalescing: Some(rpx::CoalescingParams::new(8, Duration::from_micros(2000))),
        nparcels_schedule: None,
    }
}

fn fast_sampling() -> TelemetryConfig {
    TelemetryConfig {
        interval: Duration::from_millis(1),
        ..TelemetryConfig::default()
    }
}

fn lifecycle_on(kind: TransportKind) {
    let rt = boot(2, kind);

    let svc = rt.start_telemetry(0, fast_sampling()).expect("locality 0");
    assert!(svc.is_running());

    // Starting again while running is idempotent: the second handle drives
    // the same underlying service (shared tick stream), not a second
    // sampler double-charging the workers.
    let again = rt.start_telemetry(0, fast_sampling()).expect("locality 0");
    assert!(again.is_running());
    let before = again.ticks();
    svc.tick_now();
    assert!(
        again.ticks() > before,
        "second start_telemetry returned an independent service"
    );

    // Traffic keeps workers awake, so the cooperative sampler accumulates
    // ticks and series on its own.
    run_toy(&rt, &traffic()).expect("toy run failed");
    assert!(svc.ticks() > 0, "sampler never ticked during traffic");
    assert!(!svc.all_series().is_empty(), "no series recorded");

    // Shutdown stops the sampler; the tick stream and series freeze.
    rt.shutdown();
    assert!(!svc.is_running());
    assert!(!again.is_running());
    let frozen_ticks = svc.ticks();
    let frozen_len = svc.all_series().len();
    std::thread::sleep(Duration::from_millis(10));
    assert!(!svc.tick_if_due(), "stopped sampler accepted a tick");
    assert_eq!(svc.ticks(), frozen_ticks, "samples after shutdown");
    assert_eq!(svc.all_series().len(), frozen_len);
}

#[test]
fn sampler_lifecycle_on_sim() {
    lifecycle_on(TransportKind::default());
}

#[test]
fn sampler_lifecycle_on_tcp_loopback() {
    lifecycle_on(TransportKind::TcpLoopback);
}

#[test]
fn restart_after_stop_yields_fresh_running_service() {
    let rt = boot(2, TransportKind::default());
    let first = rt.start_telemetry(0, fast_sampling()).expect("locality 0");
    first.stop();
    first.stop(); // stop is idempotent
    assert!(!first.is_running());

    let second = rt.start_telemetry(0, fast_sampling()).expect("locality 0");
    assert!(second.is_running(), "restart after stop did not start");
    assert!(!first.is_running(), "old handle resurrected");
    rt.shutdown();
    assert!(!second.is_running());
}

#[test]
fn ring_wraparound_keeps_most_recent_samples() {
    let rt = boot(2, TransportKind::default());
    let svc = rt
        .start_telemetry(
            0,
            TelemetryConfig {
                interval: Duration::from_millis(1),
                capacity: 8,
                ..TelemetryConfig::default()
            },
        )
        .expect("locality 0");

    svc.tick_now();
    let series = svc
        .series("/threads/background-work")
        .expect("sampled series missing");
    let first_t = series.last().expect("empty after a tick").t_ns;

    for _ in 0..49 {
        svc.tick_now();
    }
    let series = svc
        .series("/threads/background-work")
        .expect("sampled series missing");
    // The ring capped the series at `capacity` and evicted the oldest
    // samples: everything left is newer than the very first tick, in
    // chronological order.
    assert_eq!(series.len(), 8, "ring did not cap at capacity");
    assert!(
        series.samples.iter().all(|s| s.t_ns > first_t),
        "oldest sample survived wraparound"
    );
    assert!(
        series.samples.windows(2).all(|w| w[0].t_ns <= w[1].t_ns),
        "samples out of order after wraparound"
    );
    rt.shutdown();
}

#[test]
fn out_of_range_locality_is_a_typed_error() {
    let rt = boot(2, TransportKind::default());

    match rt.query(99, "/threads/background-work") {
        Err(CounterError::NoSuchLocality {
            requested,
            localities,
        }) => {
            assert_eq!(requested, 99);
            assert_eq!(localities, 2);
        }
        other => panic!("expected NoSuchLocality, got {other:?}"),
    }

    match rt.start_telemetry(99, fast_sampling()) {
        Err(CounterError::NoSuchLocality { requested, .. }) => assert_eq!(requested, 99),
        Err(other) => panic!("expected NoSuchLocality, got {other:?}"),
        Ok(_) => panic!("expected NoSuchLocality, got a running service"),
    }
    rt.shutdown();
}
