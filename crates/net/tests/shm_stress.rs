//! Shared-memory ring stress: two transports bootstrapped as separate
//! ranks on one host (the mapped-segment, cross-process wiring) push far
//! more traffic than a ring holds, so the cursors wrap the byte buffer
//! hundreds of times while the reliability layer rides out duplicate and
//! reorder faults on the same path. Exactly-once delivery and quiescence
//! accounting must survive all of it.
//!
//! Rings here are deliberately tiny (1 KiB data per direction) so a run
//! exercises the full/backpressure/doorbell machinery constantly; the
//! default 4 MiB rings would never wrap under test-sized traffic.

use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use rpx_net::{
    FaultPlan, Message, MessageKind, ReliabilityConfig, ReliablePort, ShmTuning, TcpBootstrap,
    TcpTransport, Transport, TransportPort,
};

const RING_BYTES: usize = 1024;
const MESSAGES: u32 = 2_000;

/// Two transports joined by the rank handshake, shm enabled with tiny
/// rings. On Linux the pair maps a real `/dev/shm` segment; elsewhere
/// the wiring degrades to TCP and the invariants still hold.
fn split_pair(ring_bytes: usize) -> (Arc<TcpTransport>, Arc<TcpTransport>) {
    let rdv = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let h0 = std::thread::spawn(move || {
        TcpBootstrap::rendezvous(0, 2, rdv, Duration::from_secs(5)).unwrap()
    });
    let h1 = std::thread::spawn(move || {
        TcpBootstrap::rendezvous(1, 2, rdv, Duration::from_secs(5)).unwrap()
    });
    let tuning = Some(ShmTuning { ring_bytes });
    let t0 = TcpTransport::from_bootstrap(h0.join().unwrap(), tuning).unwrap();
    let t1 = TcpTransport::from_bootstrap(h1.join().unwrap(), tuning).unwrap();
    (t0, t1)
}

fn pump_until(ports: &[Arc<ReliablePort>], done: impl Fn() -> bool, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !done() {
        for p in ports {
            p.pump();
        }
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// Sequence-stamped payload (4-byte LE index plus padding so frames are
/// big enough to wrap a 1 KiB ring quickly).
fn stamped(i: u32) -> Bytes {
    let mut p = vec![0u8; 24];
    p[..4].copy_from_slice(&i.to_le_bytes());
    Bytes::from(p)
}

fn index_of(m: &Message) -> u32 {
    u32::from_le_bytes(m.payload[..4].try_into().unwrap())
}

/// Drive `MESSAGES` sequence-stamped messages each way between the split
/// pair under `plan` on both outbound wires, with reliability providing
/// exactly-once. Returns the per-index delivery counts observed on each
/// side.
fn run_bidirectional_stress(plan: &Arc<FaultPlan>) -> (Vec<u64>, Vec<u64>) {
    let (t0, t1) = split_pair(RING_BYTES);
    let cfg = ReliabilityConfig::default();
    let a = ReliablePort::new(t0.port(0), cfg);
    let b = ReliablePort::new(t1.port(1), cfg);
    a.set_fault_plan(Some(Arc::clone(plan)));
    b.set_fault_plan(Some(Arc::clone(plan)));

    let counts_b = Arc::new(Mutex::new(vec![0u64; MESSAGES as usize]));
    let counts_a = Arc::new(Mutex::new(vec![0u64; MESSAGES as usize]));
    let delivered = Arc::new(AtomicU64::new(0));
    {
        let (c, d) = (Arc::clone(&counts_b), Arc::clone(&delivered));
        b.set_receiver(Arc::new(move |m: Message| {
            c.lock()[index_of(&m) as usize] += 1;
            d.fetch_add(1, Ordering::SeqCst);
        }));
        let (c, d) = (Arc::clone(&counts_a), Arc::clone(&delivered));
        a.set_receiver(Arc::new(move |m: Message| {
            c.lock()[index_of(&m) as usize] += 1;
            d.fetch_add(1, Ordering::SeqCst);
        }));
    }

    for i in 0..MESSAGES {
        a.send(Message::new(0, 1, MessageKind::Parcel, stamped(i)));
        b.send(Message::new(1, 0, MessageKind::Parcel, stamped(i)));
        // Interleave sends with pumping so the tiny rings never deadlock
        // the unreliable sender-side queue growth.
        if i % 16 == 0 {
            a.pump();
            b.pump();
        }
    }
    let total = 2 * MESSAGES as u64;
    assert!(
        pump_until(
            &[Arc::clone(&a), Arc::clone(&b)],
            || delivered.load(Ordering::SeqCst) >= total,
            60
        ),
        "stalled at {}/{total} deliveries",
        delivered.load(Ordering::SeqCst)
    );
    // Quiescence: both directions drain completely, including frames
    // parked in ring memory (the shared inflight gauges).
    assert!(
        pump_until(
            &[Arc::clone(&a), Arc::clone(&b)],
            || a.outbound_backlog() == 0
                && b.outbound_backlog() == 0
                && a.inflight_backlog() == 0
                && b.inflight_backlog() == 0,
            60
        ),
        "backlogs never drained"
    );
    let ca = counts_a.lock().clone();
    let cb = counts_b.lock().clone();
    (ca, cb)
}

fn assert_exactly_once(side: &str, counts: &[u64]) {
    for (i, &n) in counts.iter().enumerate() {
        assert_eq!(n, 1, "{side}: message {i} delivered {n} times");
    }
}

#[test]
fn wraparound_exactly_once_under_duplicates() {
    // ~2000 × ~53-byte frames each way through 1 KiB rings ≈ 100+ full
    // wraps per direction, with every 5th frame duplicated on the wire.
    let plan = Arc::new(FaultPlan::duplicate_every(5));
    let (a, b) = run_bidirectional_stress(&plan);
    assert!(plan.duplicated() > 0, "plan injected duplicates");
    assert_exactly_once("a", &a);
    assert_exactly_once("b", &b);
}

#[test]
fn wraparound_exactly_once_under_reorder() {
    let plan = Arc::new(FaultPlan::reorder_window(4));
    let (a, b) = run_bidirectional_stress(&plan);
    assert!(plan.reordered() > 0, "plan reordered frames");
    assert_exactly_once("a", &a);
    assert_exactly_once("b", &b);
}

/// The raw (unreliable) ring path under the same wrap pressure: every
/// frame sent with no faults arrives exactly once, in order per
/// direction, even though the ring wraps constantly and the producer
/// parks on Full repeatedly.
#[test]
fn wraparound_preserves_fifo_without_faults() {
    let (t0, t1) = split_pair(RING_BYTES);
    let a = t0.port(0);
    let b = t1.port(1);
    let got = Arc::new(Mutex::new(Vec::with_capacity(MESSAGES as usize)));
    let g = Arc::clone(&got);
    b.set_receiver(Arc::new(move |m: Message| g.lock().push(index_of(&m))));
    for i in 0..MESSAGES {
        a.send(Message::new(0, 1, MessageKind::Parcel, stamped(i)));
        if i % 16 == 0 {
            a.pump_send();
            b.pump_recv();
        }
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while got.lock().len() < MESSAGES as usize && Instant::now() < deadline {
        a.pump();
        b.pump();
        std::thread::yield_now();
    }
    let got = got.lock();
    assert_eq!(got.len(), MESSAGES as usize, "all frames arrived");
    assert!(
        got.iter().zip(got.iter().skip(1)).all(|(x, y)| x < y),
        "single-path FIFO held across wraparounds"
    );
}
