//! Scheduler throughput: the lightweight-task machinery under the parcel
//! subsystem (spawn → steal → execute, with time accounting on), and
//! `wake_latency`: how long a sleeper takes to act on what woke it.
//!
//! * `notify_to_background_poll` — a worker parked on the scheduler's
//!   eventcount; from `Scheduler::notify` (what message arrival calls)
//!   to its next background poll.
//! * `set_to_waiter_return` — a task parked in `Future::get_with` on a
//!   worker; from `Promise::set` on another thread to `get_with`
//!   returning.
//!
//! Both run with `idle_park = 1 s`, so a wake-up that is missed shows as
//! a second, not as noise.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpx_threading::{BackgroundWork, Scheduler, SchedulerConfig};

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(10);
    for workers in [1usize, 2, 4] {
        group.throughput(Throughput::Elements(10_000));
        group.bench_with_input(
            BenchmarkId::new("spawn_execute_10k", workers),
            &workers,
            |b, &w| {
                let scheduler = Scheduler::new(SchedulerConfig {
                    workers: w,
                    name: "bench".into(),
                    idle_park: Duration::from_micros(200),
                });
                b.iter(|| {
                    let count = Arc::new(AtomicU64::new(0));
                    for _ in 0..10_000u64 {
                        let c = Arc::clone(&count);
                        scheduler.spawn(move || {
                            c.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                    assert!(scheduler.wait_idle(Duration::from_secs(30)));
                    assert_eq!(count.load(Ordering::Relaxed), 10_000);
                });
            },
        );
    }
    group.finish();
}

fn one_parked_worker() -> Arc<Scheduler> {
    Scheduler::new(SchedulerConfig {
        workers: 1,
        name: "wake".into(),
        idle_park: Duration::from_secs(1),
    })
}

/// Spin until the scheduler's one worker is asleep: it shows as a
/// sleeper from its `prepare` on, and its last poll under the key ends
/// well within the settle time.
fn await_parked(scheduler: &Scheduler) {
    while scheduler.sleepers() != 1 {
        std::hint::spin_loop();
    }
    let settle = Instant::now() + Duration::from_micros(50);
    while Instant::now() < settle {
        std::hint::spin_loop();
    }
}

struct CountPolls(Arc<AtomicU64>);

impl BackgroundWork for CountPolls {
    fn run(&self) -> bool {
        self.0.fetch_add(1, Ordering::SeqCst);
        false
    }
}

fn bench_wake_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("wake_latency");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));

    group.bench_function("notify_to_background_poll", |b| {
        let scheduler = one_parked_worker();
        let polls = Arc::new(AtomicU64::new(0));
        scheduler.add_background(Arc::new(CountPolls(Arc::clone(&polls))));
        b.iter_custom(|iters| {
            let mut total = Duration::ZERO;
            for _ in 0..iters {
                await_parked(&scheduler);
                let seen = polls.load(Ordering::SeqCst);
                let started = Instant::now();
                scheduler.notify();
                while polls.load(Ordering::SeqCst) == seen {
                    std::hint::spin_loop();
                }
                total += started.elapsed();
            }
            total
        });
    });

    group.bench_function("set_to_waiter_return", |b| {
        let scheduler = one_parked_worker();
        b.iter_custom(|iters| {
            let (promises, futures): (Vec<_>, Vec<_>) =
                (0..iters).map(|_| rpx_lco::channel::<u64>()).unzip();
            let returned = Arc::new(AtomicU64::new(0));
            let (done_tx, done_rx) = mpsc::channel();
            let seen = Arc::clone(&returned);
            scheduler.spawn(move || {
                for future in futures {
                    future.get_with(|| false).expect("value was set");
                    seen.fetch_add(1, Ordering::SeqCst);
                }
                let _ = done_tx.send(());
            });
            let mut total = Duration::ZERO;
            for (i, promise) in promises.into_iter().enumerate() {
                await_parked(&scheduler);
                let started = Instant::now();
                promise.set(i as u64).expect("fresh promise");
                while returned.load(Ordering::SeqCst) <= i as u64 {
                    std::hint::spin_loop();
                }
                total += started.elapsed();
            }
            done_rx.recv().expect("waiter task finished");
            total
        });
    });
    group.finish();
}

criterion_group!(benches, bench_scheduler, bench_wake_latency);
criterion_main!(benches);
