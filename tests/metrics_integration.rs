//! Integration of the §III metrics with live workloads: the measured
//! network overhead must behave the way the paper's evaluation relies on.

use std::time::Duration;

use rpx::{
    CoalescingParams, LinkModel, MetricsReader, PhaseRecorder, Runtime, RuntimeConfig,
    TransportKind,
};
use rpx_apps::driver::{to_points, toy_sweep};
use rpx_apps::toy::ToyConfig;
use rpx_metrics::overhead_time_correlation;

fn link() -> LinkModel {
    LinkModel {
        send_overhead: Duration::from_micros(20),
        recv_overhead: Duration::from_micros(15),
        per_byte: Duration::from_nanos(1),
        latency: Duration::from_micros(10),
        ..LinkModel::cluster()
    }
}

#[test]
fn overhead_and_time_are_positively_correlated_across_sweep() {
    // A miniature Fig. 4: the correlation that motivates adaptive tuning.
    let base = ToyConfig {
        numparcels: 400,
        phases: 2,
        bidirectional: false,
        coalescing: None,
        nparcels_schedule: None,
    };
    let outcomes = toy_sweep(&base, link(), &[1, 4, 16, 64], &[4000], None);
    let points = to_points(&outcomes);
    let r = overhead_time_correlation(&points).expect("enough variance");
    assert!(
        r > 0.5,
        "expected strong positive correlation (paper: 0.97), got {r:.3}\npoints: {points:#?}"
    );
}

#[test]
fn metrics_reader_reports_live_equations() {
    let rt = Runtime::new(RuntimeConfig {
        localities: 2,
        workers_per_locality: 2,
        transport: TransportKind::Sim(link()),
        ..RuntimeConfig::default()
    });
    let act = rt.action("met::ping").register(|x: u64| x);
    let reader = rt.metrics(0);
    let before = reader.sample();
    rt.run_on(0, move |ctx| {
        let futures: Vec<_> = (0..300).map(|i| ctx.async_action(&act, 1, i)).collect();
        ctx.wait_all(futures).unwrap();
    });
    rt.wait_quiescent(Duration::from_secs(10));
    let after = reader.sample();
    let delta = after.delta_since(&before);
    assert!(delta.func_ns > 0.0, "no scheduler work recorded");
    assert!(delta.background_ns > 0.0, "no background work recorded");
    assert!(delta.tasks > 0.0, "no tasks recorded");
    let overhead = delta.network_overhead();
    assert!(
        (0.0..=1.0).contains(&overhead),
        "overhead out of range: {overhead}"
    );
    // Uncoalesced fine-grained traffic on this link model is
    // overhead-dominated.
    assert!(overhead > 0.1, "overhead suspiciously low: {overhead}");
    rt.shutdown();
}

#[test]
fn phase_recorder_isolates_phases() {
    let rt = Runtime::new(RuntimeConfig::small_test());
    let act = rt.action("met::burst").register(|x: u64| x);
    let _ctl = rt
        .enable_coalescing(
            "met::burst",
            CoalescingParams::new(16, Duration::from_micros(1000)),
        )
        .unwrap();
    let mut recorder = PhaseRecorder::new(rt.metrics(0));

    // Phase 1: communication-heavy.
    recorder.start_phase("comm");
    let a2 = act.clone();
    rt.run_on(0, move |ctx| {
        let futures: Vec<_> = (0..400).map(|i| ctx.async_action(&a2, 1, i)).collect();
        ctx.wait_all(futures).unwrap();
    });
    // Drain stragglers so their background time is attributed to the
    // communication phase, not the compute phase that follows.
    rt.wait_quiescent(Duration::from_secs(10));
    let comm = recorder.end_phase().clone();

    // Phase 2: compute-only (no parcels at all).
    recorder.start_phase("compute");
    rt.run_on(0, |_ctx| {
        rpx_util::busy_charge(Duration::from_millis(10));
    });
    rt.wait_quiescent(Duration::from_secs(10));
    let compute = recorder.end_phase().clone();

    assert!(
        comm.network_overhead() > compute.network_overhead(),
        "comm {:.3} vs compute {:.3}",
        comm.network_overhead(),
        compute.network_overhead()
    );
    assert!(compute.network_overhead() < 0.5);
    rt.shutdown();
}

#[test]
fn reader_over_empty_locality_is_zero() {
    let rt = Runtime::new(RuntimeConfig::small_test());
    let reader = MetricsReader::new(std::sync::Arc::clone(rt.locality(1).counters()));
    // Locality 1 had (almost) nothing to do; the metric must be finite
    // and in range regardless.
    let s = reader.sample();
    assert!(s.network_overhead().is_finite());
    assert!((0.0..=1.0).contains(&s.network_overhead()));
    rt.shutdown();
}
