//! Shared-memory vs TCP loopback: the A/B behind the shm backend's
//! existence. Same frames, same codec, same pump engine — the only
//! variable is whether a frame crosses a socket (write + epoll + read)
//! or an SPSC ring in shared memory (two atomic cursor updates and a
//! memcpy each side).
//!
//! * `pingpong` — one round trip of a 64 B or a 64 KiB frame between two
//!   localities; the per-iteration time is the RTT. At 64 B this is the
//!   per-message software overhead the paper's coalescing amortises, so
//!   shrinking it moves the whole fig. 5 family; at 64 KiB it is the
//!   per-byte cost (frame checksum, copies) coalescing cannot amortise.
//! * `fan_in` — 64 source localities each land one frame on rank 0 per
//!   round (`SHM_FAN_IN_CONNS` overrides), the event-loop stress shape.
//!
//! Both groups run a `shm` and a `tcp` leg; `repro bench-compare`
//! reports the ratio and EXPERIMENTS.md records it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpx_net::{Message, MessageKind, ShmTuning, TransportKind, TransportPort};

fn fan_in_conns() -> usize {
    std::env::var("SHM_FAN_IN_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Small ring so 65 localities' worth of heap segments stay cheap; a
/// pingpong/fan-in frame is below the ring's max record (half the ring)
/// either way.
fn shm_kind(ring_bytes: usize) -> TransportKind {
    TransportKind::Shm(ShmTuning { ring_bytes })
}

struct Pair {
    a: Arc<dyn TransportPort>,
    b: Arc<dyn TransportPort>,
    a_hits: Arc<AtomicU64>,
    b_hits: Arc<AtomicU64>,
}

fn pair(kind: &TransportKind) -> Pair {
    let t = kind.build(2).expect("build transport");
    let a = t.port(0);
    let b = t.port(1);
    let a_hits = Arc::new(AtomicU64::new(0));
    let b_hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&a_hits);
    a.set_receiver(Arc::new(move |_m: Message| {
        h.fetch_add(1, Ordering::SeqCst);
    }));
    let h = Arc::clone(&b_hits);
    b.set_receiver(Arc::new(move |_m: Message| {
        h.fetch_add(1, Ordering::SeqCst);
    }));
    // Keep the transport alive for the ports' lifetime.
    std::mem::forget(t);
    Pair {
        a,
        b,
        a_hits,
        b_hits,
    }
}

fn wait_hits(pair: &Pair, hits: &AtomicU64, target: u64) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while hits.load(Ordering::SeqCst) < target {
        if !(pair.a.pump() | pair.b.pump()) {
            std::thread::yield_now();
        }
        assert!(Instant::now() < deadline, "pingpong stalled");
    }
}

fn bench_pingpong(c: &mut Criterion) {
    let mut group = c.benchmark_group("shm_pingpong");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(3));
    for size in [64, 64 * 1024] {
        let payload = Bytes::from(vec![0x42u8; size]);
        for (label, kind) in [
            ("shm", shm_kind(256 * 1024)),
            ("tcp", TransportKind::TcpLoopback),
        ] {
            group.bench_with_input(BenchmarkId::new(label, size), &kind, |bench, kind| {
                let p = pair(kind);
                // Warm the path (connection establishment / ring touch).
                p.a.send(Message::new(0, 1, MessageKind::Parcel, payload.clone()));
                wait_hits(&p, &p.b_hits, 1);
                bench.iter_custom(|iters| {
                    let a0 = p.a_hits.load(Ordering::SeqCst);
                    let b0 = p.b_hits.load(Ordering::SeqCst);
                    let start = Instant::now();
                    for i in 0..iters {
                        p.a.send(Message::new(0, 1, MessageKind::Parcel, payload.clone()));
                        wait_hits(&p, &p.b_hits, b0 + i + 1);
                        p.b.send(Message::new(1, 0, MessageKind::Parcel, payload.clone()));
                        wait_hits(&p, &p.a_hits, a0 + i + 1);
                    }
                    start.elapsed()
                });
            });
        }
    }
    group.finish();
}

fn bench_fan_in(c: &mut Criterion) {
    let conns = fan_in_conns();
    let n = conns as u32 + 1;
    let payload = Bytes::from(vec![0x5Au8; 1024]);
    let mut group = c.benchmark_group("shm_fan_in");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.throughput(Throughput::Elements(conns as u64));
    for (label, kind) in [
        ("shm", shm_kind(16 * 1024)),
        ("tcp", TransportKind::TcpLoopback),
    ] {
        group.bench_with_input(BenchmarkId::new(label, conns), &kind, |bench, kind| {
            let t = kind.build(n).expect("build transport");
            let sink = t.port(0);
            let hits = Arc::new(AtomicU64::new(0));
            let h = Arc::clone(&hits);
            sink.set_receiver(Arc::new(move |_m: Message| {
                h.fetch_add(1, Ordering::SeqCst);
            }));
            let sources: Vec<_> = (1..n).map(|i| t.port(i)).collect();
            // Each source stages its frame exactly once per round (send +
            // one pump_send); the drain loop then pumps only the sink.
            // Anything a source could not finish inline — a partial TCP
            // write, a full ring — is completed by the transport's own
            // pump threads, which is the behaviour under measurement. The
            // periodic source re-pump is a stall safety net only.
            let drain = |target: u64| {
                let deadline = Instant::now() + Duration::from_secs(60);
                let mut idle = 0u32;
                while hits.load(Ordering::SeqCst) < target {
                    if sink.pump() {
                        idle = 0;
                    } else {
                        idle += 1;
                        if idle.is_multiple_of(1024) {
                            for s in &sources {
                                s.pump_send();
                            }
                        }
                        std::thread::yield_now();
                    }
                    assert!(Instant::now() < deadline, "fan-in stalled");
                }
            };
            let round = |payload: &Bytes| {
                for (i, s) in sources.iter().enumerate() {
                    s.send(Message::new(
                        i as u32 + 1,
                        0,
                        MessageKind::Parcel,
                        payload.clone(),
                    ));
                    s.pump_send();
                }
            };
            // Warm every path once (connections / segments / doorbells).
            round(&payload);
            drain(conns as u64);
            bench.iter_custom(|iters| {
                let base = hits.load(Ordering::SeqCst);
                let start = Instant::now();
                for r in 0..iters {
                    round(&payload);
                    drain(base + (r + 1) * conns as u64);
                }
                start.elapsed()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_pingpong, bench_fan_in);
criterion_main!(benches);
