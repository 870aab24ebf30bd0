//! End-to-end send fast-path benchmark: `send_parcel` through the
//! interceptor slot table and coalescing queue, egress encoding, and the
//! fabric, at 1 / 8 / 64 parcels per coalesced batch.
//!
//! nparcels = 1 exercises the bypass (single-parcel) path: slot-table
//! miss-free lookup, pooled one-parcel batch, pooled encode. Larger
//! nparcels amortise framing across the coalescing queue's recycled
//! buffers. Throughput is reported in parcels (elements) per second.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpx_agas::Gid;
use rpx_coalesce::{Coalescer, CoalescingParams, FlushPolicy, ParamsHandle};
use rpx_net::{LinkModel, SimTransport};
use rpx_parcel::{ActionId, ActionRegistry, Parcel, ParcelPort, SendPath};
use rpx_util::TimerService;

fn parcel(action: ActionId) -> Parcel {
    Parcel {
        id: 0,
        src_locality: 0,
        dest_locality: 1,
        dest_object: Gid::INVALID,
        action,
        args: Bytes::from_static(&[0u8; 16]),
        continuation: Gid::INVALID,
    }
}

/// Sends drained every this many iterations, bounding egress growth while
/// keeping the pump cost amortised realistically across sends.
const DRAIN_EVERY: usize = 64;

fn bench_send_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("send_path");
    group.throughput(Throughput::Elements(1));
    for nparcels in [1usize, 8, 64] {
        group.bench_with_input(
            BenchmarkId::new("send_parcel", nparcels),
            &nparcels,
            |b, &n| {
                let fabric = SimTransport::new(2, LinkModel::zero());
                let actions = ActionRegistry::new();
                let act = actions.register("bench", Arc::new(|_| Ok(Bytes::new())));
                let p0 = ParcelPort::new(0, Arc::new(fabric.port(0)), Arc::clone(&actions));
                let p1 = ParcelPort::new(1, Arc::new(fabric.port(1)), Arc::clone(&actions));
                p0.set_spawner(Arc::new(|f| f()));
                p1.set_spawner(Arc::new(|f| f()));
                let timer = Arc::new(TimerService::new("bench-send"));
                if n > 1 {
                    let coalescer = Coalescer::new(
                        "bench",
                        ParamsHandle::new(CoalescingParams::new(n, Duration::from_secs(10))),
                        FlushPolicy::Append,
                        false,
                        timer,
                        Arc::clone(&p0) as Arc<dyn SendPath>,
                    );
                    p0.set_interceptor(act, coalescer);
                }
                let p = parcel(act);
                let mut i = 0usize;
                b.iter(|| {
                    p0.send_parcel(std::hint::black_box(p.clone()));
                    i += 1;
                    if i.is_multiple_of(DRAIN_EVERY) {
                        while p0.pump() {}
                        while p1.pump() {}
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_send_path);
criterion_main!(benches);
