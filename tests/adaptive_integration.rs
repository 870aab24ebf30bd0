//! Integration of the adaptive controller with a live runtime: the
//! future-work loop of the paper, closed.

use std::sync::Arc;
use std::time::Duration;

use rpx::{
    AdaptiveConfig, CoalescingParams, Complex64, LinkModel, Runtime, RuntimeConfig, TransportKind,
};
use rpx_adaptive::Ladder;

fn cluster_runtime() -> Arc<Runtime> {
    Runtime::new(RuntimeConfig {
        localities: 2,
        workers_per_locality: 2,
        transport: TransportKind::Sim(LinkModel {
            send_overhead: Duration::from_micros(20),
            recv_overhead: Duration::from_micros(15),
            per_byte: Duration::from_nanos(1),
            latency: Duration::from_micros(10),
            ..LinkModel::cluster()
        }),
        ..RuntimeConfig::default()
    })
}

#[test]
fn controller_raises_nparcels_under_dense_traffic() {
    // Start pessimal (nparcels = 1) under dense fine-grained traffic; the
    // overhead-driven controller must climb away from 1.
    let rt = cluster_runtime();
    let act = rt
        .action("ad::get")
        .register(|(): ()| Complex64::new(13.3, -23.8));
    let control = rt
        .enable_coalescing(
            "ad::get",
            CoalescingParams::new(1, Duration::from_micros(2000)),
        )
        .unwrap();
    let controller = control.start_adaptive(
        &rt,
        0,
        AdaptiveConfig {
            window: Duration::from_millis(10),
            ladder: Ladder::powers_of_two(256),
            warmup_windows: 1,
            ..AdaptiveConfig::default()
        },
    );

    // Drive dense rounds until the controller reacts (bounded by a
    // generous deadline so CPU contention on CI cannot flake the test).
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let act = act.clone();
        rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..3_000).map(|_| ctx.async_action(&act, 1, ())).collect();
            ctx.wait_all(futures).unwrap();
        });
        let n = control.params().load().nparcels;
        if (n > 1 && !controller.decisions().is_empty()) || std::time::Instant::now() > deadline {
            break;
        }
    }
    let decisions = controller.stop();
    let final_n = control.params().load().nparcels;
    assert!(
        !decisions.is_empty(),
        "controller made no decisions under dense traffic"
    );
    assert!(
        final_n > 1,
        "controller never left the pessimal setting; decisions: {decisions:?}"
    );
    rt.shutdown();
}

#[test]
fn controller_is_inert_on_quiet_runtime() {
    let rt = cluster_runtime();
    let _act = rt.action("ad::quiet").register(|(): ()| ());
    let control = rt
        .enable_coalescing(
            "ad::quiet",
            CoalescingParams::new(4, Duration::from_micros(2000)),
        )
        .unwrap();
    let controller = control.start_adaptive(
        &rt,
        0,
        AdaptiveConfig {
            window: Duration::from_millis(5),
            ..AdaptiveConfig::default()
        },
    );
    std::thread::sleep(Duration::from_millis(80));
    let decisions = controller.stop();
    // No traffic → quiet windows → no decisions, parameters untouched.
    assert!(decisions.is_empty(), "{decisions:?}");
    assert_eq!(control.params().load().nparcels, 4);
    rt.shutdown();
}

#[test]
fn pics_baseline_tunes_a_live_iterative_app() {
    use rpx::PicsTuner;
    use rpx_apps::parquet::{run_parquet, ParquetConfig};

    // Drive the PICS-style search with real Parquet-proxy iterations.
    let mut tuner = PicsTuner::new(Ladder::new(vec![1, 2, 4, 8, 16, 32]));
    let mut iterations = 0;
    while !tuner.is_converged() && iterations < 16 {
        let cfg = ParquetConfig {
            nc: 6,
            iterations: 1,
            coalescing: Some(CoalescingParams::new(
                tuner.current(),
                Duration::from_micros(4000),
            )),
            compute_per_iteration: Duration::from_micros(300),
        };
        let rt = cluster_runtime();
        let report = run_parquet(&rt, &cfg).unwrap();
        rt.shutdown();
        tuner.report_iteration(report.mean_iteration_secs());
        iterations += 1;
    }
    assert!(
        tuner.is_converged(),
        "PICS did not converge in 16 iterations"
    );
    // It must not conclude that disabled coalescing is optimal for this
    // overhead-dominated workload.
    assert!(
        tuner.current() > 1,
        "PICS chose nparcels = 1 for dense traffic"
    );
    // Paper cites ~5 decisions for PICS; ours must be the same order.
    assert!(tuner.decisions() <= 10, "{} decisions", tuner.decisions());
}
