//! Ingress fast-path benchmark: decode→spawn→execute throughput for a
//! coalesced message of 1 / 8 / 64 / 512 parcels.
//!
//! Each iteration emits one coalesced batch on the sending port, pumps it
//! across a zero-cost fabric, decodes it on the receiving port — whose
//! spawner is a real two-worker scheduler — and spins until every parcel's
//! task has executed. Two modes compare the per-parcel spawner seam
//! (`spawn`: one boxed closure, one injector push, one wakeup per parcel)
//! against the batched seam (`spawn_batch`: one pending add, one wakeup
//! sweep per *message*). Throughput is reported in parcels per second.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpx_agas::Gid;
use rpx_net::{LinkModel, SimTransport};
use rpx_parcel::{ActionId, ActionRegistry, Parcel, ParcelPort, SendPath};
use rpx_threading::Scheduler;

fn parcels(action: ActionId, n: usize) -> Vec<Parcel> {
    (0..n)
        .map(|i| Parcel {
            id: i as u64 + 1,
            src_locality: 0,
            dest_locality: 1,
            dest_object: Gid::INVALID,
            action,
            args: Bytes::from_static(&[0u8; 16]),
            continuation: Gid::INVALID,
        })
        .collect()
}

/// Drive one coalesced message of `n` parcels from port 0 to execution on
/// port 1's scheduler, returning once all tasks have run.
fn deliver_one(p0: &Arc<ParcelPort>, p1: &Arc<ParcelPort>, template: &[Parcel], count: &AtomicU64) {
    let target = count.load(Ordering::Relaxed) + template.len() as u64;
    p0.emit(1, template.to_vec().into());
    while p0.pump() {}
    while p1.pump() {}
    while count.load(Ordering::Relaxed) < target {
        // Yield rather than spin: on small CPU-count machines the bench
        // thread must cede the core to the scheduler workers.
        std::thread::yield_now();
    }
}

fn bench_ingress(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingress");
    for nparcels in [1usize, 8, 64, 512] {
        group.throughput(Throughput::Elements(nparcels as u64));
        for batched in [false, true] {
            let mode = if batched { "spawn_batch" } else { "spawn" };
            group.bench_with_input(BenchmarkId::new(mode, nparcels), &nparcels, |b, &n| {
                let fabric = SimTransport::new(2, LinkModel::zero());
                let actions = ActionRegistry::new();
                let count = Arc::new(AtomicU64::new(0));
                let cnt = Arc::clone(&count);
                let act = actions.register(
                    "count",
                    Arc::new(move |_| {
                        cnt.fetch_add(1, Ordering::Relaxed);
                        Ok(Bytes::new())
                    }),
                );
                let p0 = ParcelPort::new(0, Arc::new(fabric.port(0)), Arc::clone(&actions));
                let p1 = ParcelPort::new(1, Arc::new(fabric.port(1)), Arc::clone(&actions));
                p0.set_spawner(Arc::new(|f| f()));
                let sched = Scheduler::with_workers(2);
                {
                    let s = Arc::clone(&sched);
                    p1.set_spawner(Arc::new(move |f| s.spawn_boxed(f)));
                }
                if batched {
                    let s = Arc::clone(&sched);
                    p1.set_batch_spawner(Arc::new(move |fs| s.spawn_batch(fs.drain(..))));
                }
                let template = parcels(act, n);
                b.iter(|| deliver_one(&p0, &p1, &template, &count));
                sched.shutdown();
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_ingress);
criterion_main!(benches);
