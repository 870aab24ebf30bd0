//! The parking contract: whoever sleeps on a locality — an idle worker or
//! a task blocked in an LCO wait — is woken by what it is waiting for,
//! not by a timer. Every test runs with an `idle_park` far longer than
//! its time limit, so a wake-up that still rides the fallback fails it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use rpx::{
    Barrier, ReliabilityConfig, Runtime, RuntimeConfig, RuntimeError, ShmTuning, TransportKind,
};
use rpx_lco::{channel, LcoError};
use rpx_threading::{Scheduler, SchedulerConfig};

fn counter(rt: &Runtime, path: &str) -> f64 {
    rt.hosted_localities()
        .into_iter()
        .map(|l| rt.query(l, path).expect("thread counter").as_f64())
        .sum()
}

/// A pump that reports no work and counts how often it ran. A waiter
/// pumps under its prepared key, so once the pump has run the waiter is
/// parked or about to be — either way the next notify has to reach it.
fn counting_pump(calls: &Arc<AtomicU64>) -> impl FnMut() -> bool {
    let calls = Arc::clone(calls);
    move || {
        calls.fetch_add(1, Ordering::SeqCst);
        false
    }
}

fn wait_for_first_pump(calls: &AtomicU64) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while calls.load(Ordering::SeqCst) == 0 {
        assert!(Instant::now() < give_up, "waiter never reached its park");
        std::thread::yield_now();
    }
}

/// (a) Sequential echoes are paced by arrivals, not by `idle_park`.
#[test]
fn echoes_do_not_wait_out_the_idle_park() {
    let wires = [
        ("sim", RuntimeConfig::small_test().transport, None),
        (
            "tcp+reliability",
            TransportKind::TcpLoopback,
            Some(ReliabilityConfig::default()),
        ),
        ("shm", TransportKind::Shm(ShmTuning::default()), None),
    ];
    for (wire, transport, reliability) in wires {
        let rt = Runtime::new(RuntimeConfig {
            transport,
            reliability,
            idle_park: Duration::from_millis(20),
            ..RuntimeConfig::small_test()
        });
        let echo = rt.action("park::echo").register(|x: u64| x);
        let timeouts_before = counter(&rt, "/threads/park-timeouts");
        let started = Instant::now();
        let sum: u64 = rt.run_on(0, move |ctx| {
            (0..500)
                .map(|i| ctx.async_action(&echo, 1, i).get().expect("echo"))
                .sum()
        });
        let took = started.elapsed();
        let timeouts = counter(&rt, "/threads/park-timeouts") - timeouts_before;
        assert_eq!(sum, (0..500).sum::<u64>(), "{wire}");
        assert!(
            took < Duration::from_secs(1),
            "{wire}: 500 echoes took {took:?}"
        );
        assert!(timeouts < 25.0, "{wire}: {timeouts} parks timed out");
        assert!(counter(&rt, "/threads/waiter-parks") > 0.0, "{wire}");
        rt.shutdown();
    }
}

/// (b) A waiter parked in `get_with` on one worker is woken by the peer
/// worker that completes its promise.
#[test]
fn peer_worker_completing_the_promise_wakes_the_parked_waiter() {
    let sched = Scheduler::new(SchedulerConfig {
        workers: 2,
        name: "park-b".into(),
        idle_park: Duration::from_secs(5),
    });
    let (promise, future) = channel::<u32>();
    let pumps = Arc::new(AtomicU64::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    let pump = counting_pump(&pumps);
    sched.spawn(move || {
        let _ = done_tx.send(future.get_with(pump));
    });
    wait_for_first_pump(&pumps);
    let started = Instant::now();
    sched.spawn(move || promise.set(7).expect("fresh promise"));
    let got = done_rx.recv_timeout(Duration::from_secs(4));
    assert_eq!(got, Ok(Ok(7)), "waiter not woken within idle_park");
    assert!(started.elapsed() < Duration::from_secs(1));
    let stats = sched.stats().snapshot();
    assert!(stats.waiter_parks >= 1);
    assert_eq!(stats.park_timeouts, 0);
}

/// (c) One barrier, waiters parked on two localities' schedulers, tripped
/// from a third thread: both are released without a timeout.
#[test]
fn barrier_releases_waiters_parked_on_different_schedulers() {
    let rt = Runtime::new(RuntimeConfig {
        workers_per_locality: 1,
        idle_park: Duration::from_secs(5),
        ..RuntimeConfig::small_test()
    });
    let barrier = Arc::new(Barrier::new(3));
    let (released_tx, released_rx) = mpsc::channel();
    let pumps: Vec<_> = (0..2).map(|_| Arc::new(AtomicU64::new(0))).collect();
    for (locality, calls) in pumps.iter().enumerate() {
        let (barrier, released) = (Arc::clone(&barrier), released_tx.clone());
        let mut count = counting_pump(calls);
        rt.spawn_on(locality as u32, move |ctx| {
            let leader = barrier.arrive_and_wait_with(|| ctx.pump() | count());
            let _ = released.send(leader);
        });
    }
    pumps.iter().for_each(|calls| wait_for_first_pump(calls));
    let timeouts_before = counter(&rt, "/threads/park-timeouts");
    let started = Instant::now();
    assert!(barrier.arrive_and_wait(), "the last arrival leads");
    for _ in 0..2 {
        let leader = released_rx.recv_timeout(Duration::from_secs(4));
        assert_eq!(leader, Ok(false), "a waiter slept through the trip");
    }
    assert!(started.elapsed() < Duration::from_secs(1));
    assert_eq!(
        counter(&rt, "/threads/park-timeouts") - timeouts_before,
        0.0
    );
    assert!(counter(&rt, "/threads/waiter-parks") >= 2.0);
    rt.shutdown();
}

/// (d) A timed wait ends at its deadline, not at the next `idle_park`
/// tick, and a value that is already there always wins over the clock.
#[test]
fn get_timeout_is_punctual_and_never_loses_a_set_value() {
    let (promise, future) = channel();
    promise.set(3).unwrap();
    assert_eq!(future.get_timeout(Duration::ZERO), Ok(3));
    let (promise, future) = channel();
    promise.set(4).unwrap();
    assert_eq!(future.get_with_timeout(|| false, Duration::ZERO), Ok(4));

    let rt = Runtime::new(RuntimeConfig {
        idle_park: Duration::from_millis(500),
        ..RuntimeConfig::small_test()
    });
    let (open_tx, open_rx) = mpsc::channel::<()>();
    let open_rx = parking_lot::Mutex::new(open_rx);
    let stuck = rt.action("park::stuck").register(move |(): ()| {
        let _ = open_rx.lock().recv(); // until the test lets go
    });
    // The scheduler can hold any one attempt up for a millisecond; the
    // mechanism is punctual if one of a few is.
    let timeout = Duration::from_millis(5);
    let mut best_overshoot = Duration::MAX;
    for _ in 0..5 {
        let stuck = stuck.clone();
        let (outcome, took) = rt.run_on(0, move |ctx| {
            let started = Instant::now();
            let outcome = ctx.async_action(&stuck, 1, ()).get_timeout(timeout);
            (outcome, started.elapsed())
        });
        assert!(matches!(outcome, Err(RuntimeError::Lco(LcoError::Timeout))));
        assert!(took >= timeout, "gave up early: {took:?}");
        best_overshoot = best_overshoot.min(took - timeout);
    }
    assert!(
        best_overshoot < Duration::from_millis(1),
        "timed out {best_overshoot:?} past the deadline"
    );
    drop(open_tx);
    rt.shutdown();
}

/// (e) Threads that are no scheduler's worker park on a source of their
/// own: the LCO's completion wakes them, and a pump they bring keeps
/// running while they wait.
#[test]
fn foreign_threads_still_wait_pump_and_wake() {
    let (promise, future) = channel();
    let pumps = Arc::new(AtomicU64::new(0));
    let pump = counting_pump(&pumps);
    let waiter = std::thread::spawn(move || future.get_with(pump));
    wait_for_first_pump(&pumps);
    promise.set("done").unwrap();
    assert_eq!(waiter.join().unwrap(), Ok("done"));

    let barrier = Arc::new(Barrier::new(2));
    let pumps = Arc::new(AtomicU64::new(0));
    let (b, pump) = (Arc::clone(&barrier), counting_pump(&pumps));
    let waiter = std::thread::spawn(move || b.arrive_and_wait_with(pump));
    wait_for_first_pump(&pumps);
    assert!(barrier.arrive_and_wait());
    assert!(!waiter.join().unwrap());
    assert_eq!(barrier.generation(), 1);
}
