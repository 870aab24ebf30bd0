//! Integration of the performance counter framework with a live runtime:
//! every counter the paper names must exist, be queryable in HPX syntax,
//! and be mutually consistent.

use std::time::Duration;

use rpx::{CoalescingParams, CounterValue, Runtime, RuntimeConfig, TelemetryConfig};

fn traffic_runtime() -> (std::sync::Arc<Runtime>, rpx::CoalescingControl) {
    let rt = Runtime::new(RuntimeConfig::small_test());
    let act = rt.action("ctr::ping").register(|x: u64| x);
    let control = rt
        .enable_coalescing(
            "ctr::ping",
            CoalescingParams::new(8, Duration::from_micros(1000)),
        )
        .unwrap();
    rt.run_on(0, move |ctx| {
        let futures: Vec<_> = (0..400).map(|i| ctx.async_action(&act, 1, i)).collect();
        ctx.wait_all(futures).unwrap();
    });
    rt.wait_quiescent(Duration::from_secs(10));
    (rt, control)
}

#[test]
fn all_paper_counters_are_queryable() {
    let (rt, _control) = traffic_runtime();
    let coalescing_counters = [
        "/coalescing/count/parcels@ctr::ping",
        "/coalescing/count/messages@ctr::ping",
        "/coalescing/count/average-parcels-per-message@ctr::ping",
        "/coalescing/time/average-parcel-arrival@ctr::ping",
        "/coalescing/time/parcel-arrival-histogram@ctr::ping",
    ];
    let thread_counters = [
        "/threads/count/cumulative",
        "/threads/time/cumulative",
        "/threads/time/cumulative-work",
        "/threads/time/average-overhead",
        "/threads/background-work",
        "/threads/background-overhead",
    ];
    for path in coalescing_counters.iter().chain(&thread_counters) {
        for locality in 0..2 {
            assert!(
                rt.query(locality, path).is_ok(),
                "{path} missing on locality {locality}"
            );
        }
    }
    rt.shutdown();
}

#[test]
fn instanced_hpx_syntax_resolves() {
    let (rt, _control) = traffic_runtime();
    let v = rt
        .locality(0)
        .counters()
        .query("/coalescing{locality#0/total}/count/parcels@ctr::ping")
        .unwrap();
    assert_eq!(v, CounterValue::Int(400));
    // The wrong instance is rejected.
    assert!(rt
        .locality(0)
        .counters()
        .query("/coalescing{locality#1/total}/count/parcels@ctr::ping")
        .is_err());
    rt.shutdown();
}

#[test]
fn counters_are_mutually_consistent() {
    let (rt, control) = traffic_runtime();
    let reg = rt.locality(0).counters();
    let parcels = reg
        .query_f64("/coalescing/count/parcels@ctr::ping")
        .unwrap();
    let messages = reg
        .query_f64("/coalescing/count/messages@ctr::ping")
        .unwrap();
    let ppm = reg
        .query_f64("/coalescing/count/average-parcels-per-message@ctr::ping")
        .unwrap();
    assert_eq!(parcels, 400.0);
    assert!(messages >= 400.0 / 8.0);
    assert!((ppm - parcels / messages).abs() < 1e-9);

    // Eq. 4 consistency: background-overhead = background-work / cumulative.
    let bg = reg.query_f64("/threads/background-work").unwrap();
    let func = reg.query_f64("/threads/time/cumulative").unwrap();
    let overhead = reg.query_f64("/threads/background-overhead").unwrap();
    assert!(func > 0.0);
    assert!(
        (overhead - bg / func).abs() < 0.05,
        "{overhead} vs {}",
        bg / func
    );

    // The arrival histogram saw (parcels − 1) gaps per destination queue
    // at most; at least some gaps for 400 parcels.
    let hist = reg
        .query("/coalescing/time/parcel-arrival-histogram@ctr::ping")
        .unwrap();
    let samples = hist.as_array().unwrap()[3..].iter().sum::<u64>();
    assert!(samples > 0 && samples < 400);
    drop(control);
    rt.shutdown();
}

#[test]
fn counter_discovery_lists_everything() {
    let (rt, _control) = traffic_runtime();
    let reg = rt.locality(0).counters();
    let coalescing = reg.discover("/coalescing/*");
    // 5 for the app action + 5 for the continuation action.
    assert_eq!(coalescing.len(), 10, "{coalescing:?}");
    let threads = reg.discover("/threads/*");
    assert!(threads.len() >= 6);
    assert!(reg.discover("*").len() >= coalescing.len() + threads.len());
    rt.shutdown();
}

#[test]
fn discovery_covers_telemetry_and_histogram_counters() {
    let (rt, _control) = traffic_runtime();
    let _svc = rt
        .start_telemetry(0, rpx::TelemetryConfig::default())
        .unwrap();
    let reg = rt.locality(0).counters();

    // The sampler self-describes under /telemetry/*, in sorted order.
    let telemetry = reg.discover("/telemetry/*");
    assert_eq!(
        telemetry,
        vec![
            "/telemetry/count/samples".to_string(),
            "/telemetry/count/series".to_string(),
            "/telemetry/time/interval".to_string(),
        ],
        "telemetry counters missing or unsorted"
    );

    // The parcel hot-path histograms are discoverable by a glob and
    // return HPX histogram-array snapshots.
    let hists = reg.discover("/parcels/*-histogram");
    assert_eq!(
        hists,
        vec![
            "/parcels/flush-occupancy-histogram".to_string(),
            "/parcels/spawn-batch-histogram".to_string(),
            "/parcels/wire-bytes-histogram".to_string(),
        ],
        "histogram counters missing or unsorted"
    );
    for path in &hists {
        let v = reg.query(path).unwrap();
        let arr = v.as_array().expect("histogram counter is an array");
        assert!(arr.len() > 4, "{path}: snapshot too short: {arr:?}");
    }

    // Discovery output is deterministic: two scans agree exactly.
    assert_eq!(reg.discover("*"), reg.discover("*"));
    rt.shutdown();
}

#[test]
fn discovery_covers_delivery_class_counters() {
    let (rt, _control) = traffic_runtime();
    let reg = rt.locality(0).counters();

    // The per-class accounting counters register at boot (not lazily on
    // first shed/replace), in sorted order, and answer as integers even
    // when the run was all-Lossless and they stayed at zero.
    let mailbox = reg.discover("/parcels/coalesce-mailbox-*");
    assert_eq!(
        mailbox,
        vec![
            "/parcels/coalesce-mailbox-flushed".to_string(),
            "/parcels/coalesce-mailbox-replaced".to_string(),
        ],
        "mailbox counters missing or unsorted"
    );
    let shed = reg.discover("/network/best-effort-*");
    assert_eq!(
        shed,
        vec!["/network/best-effort-dropped".to_string()],
        "best-effort shed counter missing"
    );
    for path in mailbox.iter().chain(shed.iter()) {
        let v = reg.query(path).unwrap();
        assert!(
            v.as_int().is_some(),
            "{path}: expected an integer counter, got {v:?}"
        );
    }

    // Two scans agree exactly — the discover surface stays sorted and
    // deterministic with the new counters in the namespace.
    assert_eq!(
        reg.discover("/parcels/coalesce-mailbox-*"),
        reg.discover("/parcels/coalesce-mailbox-*")
    );
    rt.shutdown();
}

#[test]
fn counter_reset_zeroes_traffic_counts() {
    let (rt, _control) = traffic_runtime();
    let reg = rt.locality(0).counters();
    reg.reset("/coalescing/count/parcels@ctr::ping").unwrap();
    assert_eq!(
        reg.query_f64("/coalescing/count/parcels@ctr::ping")
            .unwrap(),
        0.0
    );
    rt.shutdown();
}

#[test]
fn sampler_observes_live_traffic() {
    const PARCELS: &str = "/coalescing/count/parcels@ctr::sampled";
    let rt = Runtime::new(RuntimeConfig::small_test());
    let act = rt.action("ctr::sampled").register(|x: u64| x);
    let _control = rt
        .enable_coalescing(
            "ctr::sampled",
            CoalescingParams::new(8, Duration::from_micros(1000)),
        )
        .unwrap();
    let sampler = rt
        .start_telemetry(
            0,
            TelemetryConfig {
                interval: Duration::from_millis(1),
                patterns: vec![PARCELS.to_string()],
                ..TelemetryConfig::default()
            },
        )
        .unwrap();
    // The first sample is taken immediately, before any traffic.
    sampler.tick_now();
    rt.run_on(0, move |ctx| {
        let futures: Vec<_> = (0..300).map(|i| ctx.async_action(&act, 1, i)).collect();
        ctx.wait_all(futures).unwrap();
    });
    sampler.tick_now();
    sampler.stop();
    let values = sampler.series(PARCELS).unwrap().values();
    assert!(!values.is_empty());
    // Monotone counter observed while growing.
    assert!(values.windows(2).all(|w| w[0] <= w[1]));
    assert_eq!(*values.last().unwrap(), 300.0);
    rt.shutdown();
}
