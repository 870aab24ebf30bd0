//! Batched-ingress parity: the receive path now hands every parcel of a
//! coalesced message to the scheduler as ONE `spawn_batch` call. These
//! tests prove that the batch path (a) actually carries the coalesced
//! workload on both transport backends, and (b) changes nothing the
//! application can observe — parcel counts, LCO results, and counter
//! values stay identical to the per-parcel era. Figure-shape preservation
//! (fig5 monotone, fig6 local minimum) is exercised by
//! `tests/figures_smoke.rs`, which now runs through this same batched
//! path.

use std::time::Duration;

use rpx::{CoalescingParams, CounterValue, TransportKind};
use rpx_apps::driver::boot;
use rpx_apps::toy::{run_toy, ToyConfig};

fn toy_config() -> ToyConfig {
    ToyConfig {
        numparcels: 200,
        phases: 2,
        bidirectional: false,
        coalescing: Some(CoalescingParams::new(8, Duration::from_micros(2000))),
        nparcels_schedule: None,
    }
}

/// Application-visible outcome plus the ingress-batching evidence for one
/// backend run.
#[derive(Debug)]
struct BatchedRun {
    parcels_counted: u64,
    messages_counted: u64,
    /// `/threads/spawn-batches` on the receiving locality.
    spawn_batches: i64,
    /// `/threads/batched-tasks` on the receiving locality.
    batched_tasks: i64,
    /// `/threads/count/cumulative-spawned` on the receiving locality.
    spawned: i64,
}

fn run_batched(kind: TransportKind) -> BatchedRun {
    let rt = boot(2, kind);
    let report = run_toy(&rt, &toy_config()).expect("toy run failed");
    rt.wait_quiescent(Duration::from_secs(30));
    // The toy app sends loc 0 -> loc 1, so locality 1 is where coalesced
    // messages decode into task batches.
    let int = |path: &str| match rt.query(1, path) {
        Ok(CounterValue::Int(v)) => v,
        other => panic!("counter {path} missing or non-int: {other:?}"),
    };
    let run = BatchedRun {
        parcels_counted: report.parcels_counted,
        messages_counted: report.messages_counted,
        spawn_batches: int("/threads/spawn-batches"),
        batched_tasks: int("/threads/batched-tasks"),
        spawned: int("/threads/count/cumulative-spawned"),
    };
    rt.shutdown();
    run
}

#[test]
fn coalesced_ingress_uses_batch_path_on_both_backends() {
    let sim = run_batched(TransportKind::default());
    let tcp = run_batched(TransportKind::TcpLoopback);

    // Application-visible parity first: identical parcel accounting on
    // both backends (run_toy already fails if any LCO result is wrong).
    assert_eq!(
        sim.parcels_counted, tcp.parcels_counted,
        "sim: {sim:?}\ntcp: {tcp:?}"
    );
    assert_eq!(sim.parcels_counted, 400, "2 phases x 200 parcels");

    for (name, run) in [("sim", &sim), ("tcp", &tcp)] {
        // Coalescing was active...
        assert!(
            run.messages_counted < run.parcels_counted,
            "[{name}] coalescing inactive: {run:?}"
        );
        // ...and the decoded batches reached the scheduler through
        // spawn_batch, not the per-parcel path.
        assert!(
            run.spawn_batches > 0,
            "[{name}] batch ingress path never used: {run:?}"
        );
        // Every batch admits at least one task, and with a coalescing
        // depth of 8 the toy parcels alone yield multi-parcel batches.
        assert!(
            run.batched_tasks > run.spawn_batches,
            "[{name}] batches were all singletons: {run:?}"
        );
        // Batched tasks are a subset of all spawns (workers, pumps and
        // continuations also spawn), never more.
        assert!(
            run.batched_tasks <= run.spawned,
            "[{name}] batched-tasks exceeds cumulative-spawned: {run:?}"
        );
        // Everything the sender coalesced was admitted in batches. Flush
        // timeouts may emit singleton messages, which legitimately take
        // the per-parcel path — but each such message carries exactly one
        // parcel, so the batch path must cover at least
        // parcels - messages of them.
        assert!(
            run.batched_tasks as u64 >= run.parcels_counted - run.messages_counted,
            "[{name}] coalesced parcels bypassed the batch path: {run:?}"
        );
    }
}

#[test]
fn lco_results_identical_with_batched_ingress() {
    // Same computation over both transports, through the batched receive
    // path: the values (not just the counts) must match the closed form.
    fn sum_of_cubes(kind: TransportKind) -> u64 {
        let rt = boot(2, kind);
        let act = rt.action("ingress::cube").register(|x: u64| x * x * x);
        let total = rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (1..=24u64).map(|i| ctx.async_action(&act, 1, i)).collect();
            ctx.wait_all(futures).unwrap().into_iter().sum::<u64>()
        });
        rt.shutdown();
        total
    }
    let expect: u64 = (1..=24u64).map(|i| i * i * i).sum();
    assert_eq!(sum_of_cubes(TransportKind::default()), expect);
    assert_eq!(sum_of_cubes(TransportKind::TcpLoopback), expect);
}
