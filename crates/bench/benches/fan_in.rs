//! Fan-in ingress: many raw TCP clients funnel frames into one locality.
//!
//! This is the event-loop backend's stress shape — N client sockets
//! (default 64, `FAN_IN_CONNS` env overrides; CI runs 256, nightly 1024)
//! all land on a single pump thread, which must multiplex them through
//! one epoll set, batch `readv` into recycled buffers, and decode frames
//! in place. A thread-per-connection design pays N stacks and N blocked
//! reads here; the event loop pays one thread.
//!
//! Each timed round writes one pre-encoded frame per client and pumps
//! the receiving port until every frame is delivered, so the reported
//! per-element time is per-frame ingress latency across the whole fan-in
//! (accept, poll dispatch, readv, in-place decode, queue, deliver).

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rpx_net::{encode_frame, Message, MessageKind, TcpTransport, Transport};

fn fan_in_conns() -> usize {
    std::env::var("FAN_IN_CONNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

/// Frame payload size in bytes (`FAN_IN_PAYLOAD` env). The default of
/// 4 KiB approximates a 64-parcel coalesced frame — the shape the
/// paper's amortization argument produces on the wire.
fn fan_in_payload() -> usize {
    std::env::var("FAN_IN_PAYLOAD")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4096)
}

/// Connect with retry: on a loaded single-core box the accept queue can
/// lag a large sequential connect burst.
fn connect_client(addr: std::net::SocketAddr) -> std::net::TcpStream {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).expect("nodelay");
                return s;
            }
            Err(e) => {
                assert!(Instant::now() < deadline, "connect failed for 30s: {e}");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

fn bench_fan_in(c: &mut Criterion) {
    let conns = fan_in_conns();
    let mut group = c.benchmark_group("fan_in");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(conns as u64));
    group.bench_with_input(
        BenchmarkId::new("frame_ingress", conns),
        &conns,
        |b, &conns| {
            let transport = TcpTransport::new(2).expect("bind loopback");
            let port = transport.port(1);
            let hits = Arc::new(AtomicU64::new(0));
            let h = Arc::clone(&hits);
            port.set_receiver(Arc::new(move |_m: Message| {
                h.fetch_add(1, Ordering::SeqCst);
            }));

            let addr = transport.listen_addr(1);
            let frame = encode_frame(&Message::new(
                0,
                1,
                MessageKind::Parcel,
                Bytes::from(vec![0x5A; fan_in_payload()]),
            ));

            // Establish every connection (one warmup frame each forces the
            // accept + registration path before timing starts).
            let mut clients = Vec::with_capacity(conns);
            for _ in 0..conns {
                let mut cstream = connect_client(addr);
                cstream.write_all(&frame).expect("warmup write");
                clients.push(cstream);
            }
            let drain = |target: u64| {
                let deadline = Instant::now() + Duration::from_secs(60);
                while hits.load(Ordering::SeqCst) < target {
                    if !port.pump_recv() {
                        // Yield the OS slice: on small machines the
                        // pump thread needs the core to make progress.
                        std::thread::yield_now();
                    }
                    assert!(Instant::now() < deadline, "fan-in stalled");
                }
            };
            drain(conns as u64);

            b.iter_custom(|iters| {
                let base = hits.load(Ordering::SeqCst);
                let start = Instant::now();
                for round in 0..iters {
                    for cstream in clients.iter_mut() {
                        cstream.write_all(&frame).expect("client write");
                    }
                    drain(base + (round + 1) * conns as u64);
                }
                start.elapsed()
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_fan_in);
criterion_main!(benches);
