//! Transport parity: the toy application (the paper's Listing 1 port)
//! must complete over the real loopback-TCP backend with the same parcel
//! counts and LCO results as over the simulated fabric — the check that
//! the transport seam does not change application-visible semantics.

use std::sync::Arc;
use std::time::Duration;

use rpx::{CoalescingParams, CounterValue, Runtime, RuntimeConfig, TransportKind};
use rpx_apps::driver::boot;
use rpx_apps::toy::{run_toy, ToyConfig, ToyReport};
use rpx_net::FaultPlan;

fn toy_config() -> ToyConfig {
    ToyConfig {
        numparcels: 200,
        phases: 2,
        bidirectional: false,
        coalescing: Some(CoalescingParams::new(8, Duration::from_micros(2000))),
        nparcels_schedule: None,
    }
}

#[derive(Debug, PartialEq, Eq)]
struct CounterSnapshot {
    parcels_counted: u64,
    messages_counted: u64,
    net_messages_sent: i64,
    net_decode_failures: i64,
}

fn run_on(kind: TransportKind) -> (ToyReport, CounterSnapshot) {
    let rt = boot(2, kind);
    let report = run_toy(&rt, &toy_config()).expect("toy run failed");
    rt.wait_quiescent(Duration::from_secs(30));
    let int = |path: &str| match rt.query(0, path) {
        Ok(CounterValue::Int(v)) => v,
        other => panic!("counter {path} missing or non-int: {other:?}"),
    };
    let snapshot = CounterSnapshot {
        parcels_counted: report.parcels_counted,
        messages_counted: report.messages_counted,
        net_messages_sent: int("/network/messages-sent"),
        net_decode_failures: int("/network/decode-failures"),
    };
    rt.shutdown();
    (report, snapshot)
}

#[test]
fn toy_app_counters_match_across_backends() {
    let (sim_report, sim) = run_on(TransportKind::default());
    let (tcp_report, tcp) = run_on(TransportKind::TcpLoopback);

    // Identical application-visible outcomes: every parcel accounted for,
    // every LCO completed (run_toy errors if any future fails), and the
    // same parcel counters on both backends.
    assert_eq!(
        sim.parcels_counted, tcp.parcels_counted,
        "sim: {sim:?}\ntcp: {tcp:?}"
    );
    assert_eq!(sim.net_decode_failures, 0);
    assert_eq!(tcp.net_decode_failures, 0);
    // Message counts depend on flush timing, so demand plausibility, not
    // equality: coalescing must be active on both (fewer messages than
    // parcels), and the network counter must at least cover the parcel
    // layer's count.
    for (name, report, snap) in [("sim", &sim_report, &sim), ("tcp", &tcp_report, &tcp)] {
        assert!(
            snap.messages_counted < snap.parcels_counted,
            "[{name}] coalescing inactive: {snap:?}"
        );
        assert!(
            snap.net_messages_sent >= snap.messages_counted as i64,
            "[{name}] wire counter below parcel-layer count: {snap:?}"
        );
        assert!(report.total > Duration::ZERO, "[{name}] empty run");
    }
}

#[test]
fn tcp_lco_results_match_sim() {
    // The same computation must produce the same values over both
    // transports — LCO results, not just counts.
    fn sum_of_squares(kind: TransportKind) -> u64 {
        let rt = boot(2, kind);
        let act = rt.action("parity::sq").register(|x: u64| x * x);
        let total = rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (1..=32u64).map(|i| ctx.async_action(&act, 1, i)).collect();
            ctx.wait_all(futures).unwrap().into_iter().sum::<u64>()
        });
        rt.shutdown();
        total
    }
    let sim = sum_of_squares(TransportKind::default());
    let tcp = sum_of_squares(TransportKind::TcpLoopback);
    assert_eq!(sim, tcp);
    assert_eq!(sim, (1..=32u64).map(|i| i * i).sum::<u64>());
}

#[test]
fn tcp_dropped_response_times_out_instead_of_hanging() {
    // Receive-side fault contract over real sockets: responses from
    // locality 1 vanish on the wire, so the waiting future must time out.
    let rt = Runtime::new(RuntimeConfig {
        localities: 2,
        workers_per_locality: 2,
        transport: TransportKind::TcpLoopback,
        ..RuntimeConfig::default()
    });
    let act = rt.action("parity::echo").register(|x: u64| x);
    rt.inject_faults(1, Some(Arc::new(FaultPlan::drop_every(1))));
    let result = rt.run_on(0, move |ctx| {
        ctx.async_action(&act, 1, 7u64)
            .get_timeout(Duration::from_millis(300))
    });
    assert!(result.is_err(), "wait should time out, got {result:?}");
    rt.shutdown();
}

#[test]
fn tcp_corrupted_frames_count_and_waiters_time_out() {
    // Corrupt every response frame from locality 1: the destination's
    // decode-failure counter must rise and the waiting future must time
    // out rather than hang.
    let rt = Runtime::new(RuntimeConfig {
        localities: 2,
        workers_per_locality: 2,
        transport: TransportKind::TcpLoopback,
        ..RuntimeConfig::default()
    });
    let act = rt.action("parity::echo2").register(|x: u64| x);
    rt.inject_faults(1, Some(Arc::new(FaultPlan::corrupt_every(1))));
    let result = rt.run_on(0, move |ctx| {
        ctx.async_action(&act, 1, 9u64)
            .get_timeout(Duration::from_millis(300))
    });
    assert!(result.is_err(), "wait should time out, got {result:?}");
    // The corrupted response arrived at locality 0 and failed its
    // checksum there.
    let failures = match rt.query(0, "/network/decode-failures") {
        Ok(CounterValue::Int(v)) => v,
        other => panic!("decode-failures counter missing: {other:?}"),
    };
    assert!(failures >= 1, "no decode failure recorded");
    rt.shutdown();
}

#[test]
fn event_loop_counters_surface_on_tcp_and_stay_zero_on_sim() {
    // The event-loop internals are observable through the standard
    // counter query path: nonzero after real traffic over TCP, zero on
    // the simulated fabric (which has no sockets to poll).
    fn snapshot(kind: TransportKind) -> (i64, i64, i64) {
        let rt = boot(2, kind);
        let _ = run_toy(&rt, &toy_config()).expect("toy run failed");
        rt.wait_quiescent(Duration::from_secs(30));
        let int = |path: &str| match rt.query(0, path) {
            Ok(CounterValue::Int(v)) => v,
            other => panic!("counter {path} missing or non-int: {other:?}"),
        };
        let out = (
            int("/network/event-loop-wakeups"),
            int("/network/event-loop-readv-batches"),
            int("/network/event-loop-writev-frames"),
        );
        rt.shutdown();
        out
    }
    let (sim_wakeups, sim_readv, sim_writev) = snapshot(TransportKind::default());
    assert_eq!((sim_wakeups, sim_readv, sim_writev), (0, 0, 0));
    let (tcp_wakeups, tcp_readv, tcp_writev) = snapshot(TransportKind::TcpLoopback);
    assert!(tcp_wakeups > 0, "no poller dispatches recorded");
    assert!(tcp_readv > 0, "no vectored read batches recorded");
    assert!(tcp_writev > 0, "no vectored-write frames recorded");
}
