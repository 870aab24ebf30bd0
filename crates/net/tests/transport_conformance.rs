//! Transport conformance suite: property tests for the wire frame codec
//! plus a behavioural harness run against **every** backend (the
//! simulated fabric, loopback TCP and TCP with shared-memory rings),
//! including the fault-injection paths. Anything that claims to
//! implement [`rpx_net::TransportPort`] must pass these unchanged.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use proptest::prelude::*;

use rpx_net::{
    decode_frame, encode_frame, frame_len, DeliveryClass, FaultPlan, FrameError, LinkModel,
    Message, MessageKind, ReliabilityConfig, ReliableTransport, ShmTuning, TransportKind,
    TransportPort, FRAME_HEADER_LEN, SEQ_OVERHEAD,
};

/// Deterministic pseudo-random payload of `len` bytes (cheap to build
/// even for the >64 KiB cases, unlike a per-byte strategy).
fn payload(len: usize, seed: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
            .collect::<Vec<u8>>(),
    )
}

fn kinds() -> impl Strategy<Value = MessageKind> {
    (0u8..3).prop_map(|k| match k {
        0 => MessageKind::Parcel,
        1 => MessageKind::Coalesced,
        _ => MessageKind::Control,
    })
}

/// Payload lengths spanning the interesting regimes: empty, tiny,
/// mid-sized, and >64 KiB (the rendezvous regime).
fn payload_len() -> impl Strategy<Value = usize> {
    (0u8..4, any::<u64>()).prop_map(|(regime, v)| match regime {
        0 => 0,
        1 => 1 + (v % 255) as usize,
        2 => 1_000 + (v % 4_000) as usize,
        _ => 65_537 + (v % 24_463) as usize,
    })
}

/// Small payload lengths (including empty) for the rejection properties.
fn small_len() -> impl Strategy<Value = usize> {
    (0u8..2, any::<u64>()).prop_map(|(regime, v)| match regime {
        0 => 0,
        _ => 1 + (v % 511) as usize,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity for arbitrary messages, including
    /// zero-length and >64 KiB payloads.
    #[test]
    fn frame_roundtrip(
        src in 0u32..64,
        dst in 0u32..64,
        kind in kinds(),
        len in payload_len(),
        seed in any::<u8>(),
    ) {
        let message = Message::new(src, dst, kind, payload(len, seed));
        let frame = encode_frame(&message);
        prop_assert_eq!(frame.len(), frame_len(len));
        let (decoded, consumed) = decode_frame(&frame).expect("roundtrip");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(decoded.src, src);
        prop_assert_eq!(decoded.dst, dst);
        prop_assert_eq!(decoded.kind, kind);
        prop_assert_eq!(decoded.payload.as_ref(), message.payload.as_ref());
    }

    /// Sequenced (v2) frames roundtrip with their seq intact and cost
    /// exactly [`SEQ_OVERHEAD`] extra wire bytes.
    #[test]
    fn sequenced_frame_roundtrip(
        src in 0u32..64,
        dst in 0u32..64,
        kind in kinds(),
        len in payload_len(),
        seed in any::<u8>(),
        seq in any::<u64>(),
    ) {
        let message = Message::new(src, dst, kind, payload(len, seed)).with_seq(seq);
        let frame = encode_frame(&message);
        prop_assert_eq!(frame.len(), frame_len(len) + SEQ_OVERHEAD);
        let (decoded, consumed) = decode_frame(&frame).expect("roundtrip");
        prop_assert_eq!(consumed, frame.len());
        prop_assert_eq!(decoded.seq, Some(seq));
        prop_assert_eq!(decoded.kind, kind);
        prop_assert_eq!(decoded.payload.as_ref(), message.payload.as_ref());
    }

    /// Garbling any checksummed byte of a sequenced frame (seq field
    /// included) is detected.
    #[test]
    fn garbled_sequenced_frames_are_rejected(
        len in small_len(),
        seed in any::<u8>(),
        seq in any::<u64>(),
        pos_sel in 0u32..10_000,
        bit in 0u8..8,
    ) {
        let message = Message::new(3, 4, MessageKind::Coalesced, payload(len, seed)).with_seq(seq);
        let mut frame = encode_frame(&message);
        let span = frame.len() - 4;
        let pos = (4 + (span * pos_sel as usize) / 10_000).min(frame.len() - 1);
        frame[pos] ^= 1 << bit;
        prop_assert!(decode_frame(&frame).is_err());
    }

    /// Every proper prefix of a valid frame is rejected, never panics.
    #[test]
    fn truncated_frames_are_rejected(
        len in small_len(),
        seed in any::<u8>(),
        cut_sel in 0u32..10_000,
    ) {
        let message = Message::new(1, 2, MessageKind::Parcel, payload(len, seed));
        let frame = encode_frame(&message);
        let cut = (frame.len() * cut_sel as usize) / 10_000;
        prop_assert!(cut < frame.len());
        prop_assert!(decode_frame(&frame[..cut]).is_err());
    }

    /// Flipping any bit of the checksummed region (everything after the
    /// length prefix) makes the frame undecodable — corruption cannot
    /// smuggle a wrong message through.
    #[test]
    fn garbled_frames_are_rejected(
        len in small_len(),
        seed in any::<u8>(),
        pos_sel in 0u32..10_000,
        bit in 0u8..8,
    ) {
        let message = Message::new(3, 4, MessageKind::Coalesced, payload(len, seed));
        let mut frame = encode_frame(&message);
        // Skip the 4-byte length prefix: garbling the length is a framing
        // error with stream-specific recovery, not a codec property.
        let span = frame.len() - 4;
        let pos = (4 + (span * pos_sel as usize) / 10_000).min(frame.len() - 1);
        frame[pos] ^= 1 << bit;
        prop_assert!(decode_frame(&frame).is_err());
    }

    /// Arbitrary byte soup never decodes to success with a wrong length
    /// and never panics.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        match decode_frame(&bytes) {
            Ok((_, consumed)) => prop_assert!(consumed >= FRAME_HEADER_LEN),
            Err(FrameError::Truncated | FrameError::BadLength(_)
                | FrameError::BadKind(_) | FrameError::Checksum) => {}
        }
    }
}

// ---------------------------------------------------------------------
// Behavioural conformance harness, run against every backend.
// ---------------------------------------------------------------------

/// The backends under test. Sim uses a zero-cost link so conformance
/// runs are fast; cost charging is covered by the fabric's own tests.
/// The shm leg routes every same-host frame through SPSC rings (small
/// rings force the full/backpressure/doorbell paths under load); faults
/// and byte accounting must behave identically to the socket path.
fn backends() -> Vec<(&'static str, TransportKind)> {
    vec![
        ("sim", TransportKind::Sim(LinkModel::zero())),
        ("tcp", TransportKind::TcpLoopback),
        (
            "shm",
            TransportKind::Shm(ShmTuning {
                ring_bytes: 64 * 1024,
            }),
        ),
    ]
}

fn pump_all(ports: &[Arc<dyn TransportPort>]) {
    for p in ports {
        p.pump();
    }
}

fn pump_until(ports: &[Arc<dyn TransportPort>], done: impl Fn() -> bool, secs: u64) -> bool {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !done() {
        pump_all(ports);
        if Instant::now() > deadline {
            return false;
        }
        std::thread::yield_now();
    }
    true
}

/// Faithful delivery: every sent message arrives exactly once, in FIFO
/// order per link, with frame bytes accounted on both sides.
fn check_delivery(name: &str, kind: TransportKind) {
    let transport = kind.build(2).expect("build transport");
    let src = transport.port(0);
    let dst = transport.port(1);
    let got: Arc<Mutex<Vec<Bytes>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    dst.set_receiver(Arc::new(move |m: Message| sink.lock().push(m.payload)));

    let payloads: Vec<Bytes> = (0..40).map(|i| payload(i * 7 % 200, i as u8)).collect();
    let mut wire_bytes = 0u64;
    for p in &payloads {
        wire_bytes += frame_len(p.len()) as u64;
        src.send(Message::new(0, 1, MessageKind::Parcel, p.clone()));
    }
    assert!(
        pump_until(
            &[Arc::clone(&src), Arc::clone(&dst)],
            || got.lock().len() == payloads.len(),
            30
        ),
        "[{name}] delivery incomplete: {}/{}",
        got.lock().len(),
        payloads.len()
    );
    assert_eq!(&*got.lock(), &payloads, "[{name}] FIFO order violated");
    assert_eq!(
        src.stats().sent_messages.load(Ordering::Relaxed),
        payloads.len() as u64,
        "[{name}]"
    );
    assert_eq!(
        src.stats().sent_bytes.load(Ordering::Relaxed),
        wire_bytes,
        "[{name}] sent bytes must be frame bytes"
    );
    assert_eq!(
        dst.stats().received_bytes.load(Ordering::Relaxed),
        wire_bytes,
        "[{name}] received bytes must be frame bytes"
    );
    assert_eq!(
        dst.stats().decode_failures.load(Ordering::Relaxed),
        0,
        "[{name}]"
    );
}

/// Drop faults: every n-th message vanishes, the rest arrive; nothing
/// hangs and the backlog drains to zero (quiescence stays sound).
fn check_drop_faults(name: &str, kind: TransportKind) {
    let transport = kind.build(2).expect("build transport");
    let src = transport.port(0);
    let dst = transport.port(1);
    let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink = Arc::clone(&got);
    dst.set_receiver(Arc::new(move |_| {
        sink.fetch_add(1, Ordering::SeqCst);
    }));
    let plan = Arc::new(FaultPlan::drop_every(3));
    src.set_fault_plan(Some(Arc::clone(&plan)));
    for i in 0..30u32 {
        src.send(Message::new(
            0,
            1,
            MessageKind::Parcel,
            payload(16, i as u8),
        ));
    }
    let expect = 30 - 30 / 3;
    assert!(
        pump_until(
            &[Arc::clone(&src), Arc::clone(&dst)],
            || got.load(Ordering::SeqCst) == expect,
            30
        ),
        "[{name}] expected {expect}, got {}",
        got.load(Ordering::SeqCst)
    );
    assert_eq!(plan.dropped(), 30 / 3, "[{name}]");
    assert!(
        pump_until(
            &[Arc::clone(&src), Arc::clone(&dst)],
            || src.outbound_backlog() == 0 && dst.inflight_backlog() == 0,
            30
        ),
        "[{name}] backlog failed to drain"
    );
}

/// Corrupt faults: every n-th frame fails its checksum at the receiver,
/// increments `decode_failures` and is dropped — on both backends.
fn check_corrupt_faults(name: &str, kind: TransportKind) {
    let transport = kind.build(2).expect("build transport");
    let src = transport.port(0);
    let dst = transport.port(1);
    let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink = Arc::clone(&got);
    dst.set_receiver(Arc::new(move |_| {
        sink.fetch_add(1, Ordering::SeqCst);
    }));
    let plan = Arc::new(FaultPlan::corrupt_every(4));
    src.set_fault_plan(Some(Arc::clone(&plan)));
    for i in 0..40u32 {
        src.send(Message::new(
            0,
            1,
            MessageKind::Parcel,
            payload(32, i as u8),
        ));
    }
    let expect = 40 - 40 / 4;
    assert!(
        pump_until(
            &[Arc::clone(&src), Arc::clone(&dst)],
            || got.load(Ordering::SeqCst) == expect
                && dst.stats().decode_failures.load(Ordering::SeqCst) == 40 / 4,
            30
        ),
        "[{name}] delivered {}, decode failures {}",
        got.load(Ordering::SeqCst),
        dst.stats().decode_failures.load(Ordering::SeqCst)
    );
    assert_eq!(plan.corrupted(), 40 / 4, "[{name}]");
}

/// All-to-all traffic on four localities: no cross-talk, no loss.
fn check_all_to_all(name: &str, kind: TransportKind) {
    const N: u32 = 4;
    const PER_PAIR: u64 = 10;
    let transport = kind.build(N).expect("build transport");
    let ports: Vec<Arc<dyn TransportPort>> = (0..N).map(|i| transport.port(i)).collect();
    let received: Vec<Arc<std::sync::atomic::AtomicU64>> = (0..N)
        .map(|_| Arc::new(std::sync::atomic::AtomicU64::new(0)))
        .collect();
    for (i, port) in ports.iter().enumerate() {
        let counter = Arc::clone(&received[i]);
        let me = i as u32;
        port.set_receiver(Arc::new(move |m: Message| {
            assert_eq!(m.dst, me, "misrouted message");
            counter.fetch_add(1, Ordering::SeqCst);
        }));
    }
    for src in 0..N {
        for dst in 0..N {
            if src == dst {
                continue;
            }
            for k in 0..PER_PAIR {
                ports[src as usize].send(Message::new(
                    src,
                    dst,
                    MessageKind::Parcel,
                    payload(8, k as u8),
                ));
            }
        }
    }
    let expect = PER_PAIR * (N as u64 - 1);
    assert!(
        pump_until(
            &ports,
            || received.iter().all(|r| r.load(Ordering::SeqCst) == expect),
            30
        ),
        "[{name}] all-to-all incomplete: {:?}",
        received
            .iter()
            .map(|r| r.load(Ordering::SeqCst))
            .collect::<Vec<_>>()
    );
}

/// Duplicate faults: every n-th message arrives twice; nothing is lost.
fn check_duplicate_faults(name: &str, kind: TransportKind) {
    let transport = kind.build(2).expect("build transport");
    let src = transport.port(0);
    let dst = transport.port(1);
    let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink = Arc::clone(&got);
    dst.set_receiver(Arc::new(move |_| {
        sink.fetch_add(1, Ordering::SeqCst);
    }));
    let plan = Arc::new(FaultPlan::duplicate_every(5));
    src.set_fault_plan(Some(Arc::clone(&plan)));
    for i in 0..30u32 {
        src.send(Message::new(0, 1, MessageKind::Parcel, payload(8, i as u8)));
    }
    let expect = 30 + 30 / 5;
    assert!(
        pump_until(
            &[Arc::clone(&src), Arc::clone(&dst)],
            || got.load(Ordering::SeqCst) == expect,
            30
        ),
        "[{name}] expected {expect} deliveries, got {}",
        got.load(Ordering::SeqCst)
    );
    assert_eq!(plan.duplicated(), 30 / 5, "[{name}]");
}

/// Reorder faults: every w-th message is displaced but still delivered;
/// the holding stage drains to zero so quiescence stays sound.
fn check_reorder_faults(name: &str, kind: TransportKind) {
    let transport = kind.build(2).expect("build transport");
    let src = transport.port(0);
    let dst = transport.port(1);
    let got: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    dst.set_receiver(Arc::new(move |m: Message| sink.lock().push(m.payload[0])));
    let plan = Arc::new(FaultPlan::reorder_window(4));
    src.set_fault_plan(Some(Arc::clone(&plan)));
    for i in 0..24u8 {
        src.send(Message::new(
            0,
            1,
            MessageKind::Parcel,
            Bytes::copy_from_slice(&[i]),
        ));
    }
    assert!(
        pump_until(
            &[Arc::clone(&src), Arc::clone(&dst)],
            || got.lock().len() == 24,
            30
        ),
        "[{name}] reordered traffic incomplete: {}/24",
        got.lock().len()
    );
    assert!(plan.reordered() > 0, "[{name}]");
    assert_eq!(src.outbound_backlog(), 0, "[{name}] stage must drain");
    let mut seen = got.lock().clone();
    seen.sort_unstable();
    assert_eq!(seen, (0..24).collect::<Vec<u8>>(), "[{name}] nothing lost");
}

/// Delay faults: every n-th message arrives late but arrives; backlog
/// drains.
fn check_delay_faults(name: &str, kind: TransportKind) {
    let transport = kind.build(2).expect("build transport");
    let src = transport.port(0);
    let dst = transport.port(1);
    let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink = Arc::clone(&got);
    dst.set_receiver(Arc::new(move |_| {
        sink.fetch_add(1, Ordering::SeqCst);
    }));
    let plan = Arc::new(FaultPlan::delay_every(3, Duration::from_millis(5)));
    src.set_fault_plan(Some(Arc::clone(&plan)));
    for i in 0..15u32 {
        src.send(Message::new(0, 1, MessageKind::Parcel, payload(8, i as u8)));
    }
    assert!(
        pump_until(
            &[Arc::clone(&src), Arc::clone(&dst)],
            || got.load(Ordering::SeqCst) == 15,
            30
        ),
        "[{name}] delayed traffic incomplete: {}/15",
        got.load(Ordering::SeqCst)
    );
    assert_eq!(plan.delayed(), 15 / 3, "[{name}]");
    assert_eq!(src.outbound_backlog(), 0, "[{name}]");
}

/// Reliability over a chaotic wire (drop + corrupt + duplicate +
/// reorder): every message is delivered exactly once, the unacked queue
/// drains, and no delivery failure fires.
fn check_reliable_exactly_once(name: &str, kind: TransportKind) {
    let transport = kind.build(2).expect("build transport");
    let reliable = ReliableTransport::new(
        transport,
        ReliabilityConfig {
            rto_initial: Duration::from_millis(2),
            ..Default::default()
        },
    );
    let src = reliable.reliable_port(0);
    let dst = reliable.reliable_port(1);
    let got: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    dst.set_receiver(Arc::new(move |m: Message| {
        sink.lock()
            .push(m.seq.expect("reliable traffic is sequenced"));
    }));
    src.set_fault_plan(Some(Arc::new(FaultPlan::chaos())));
    let n = 120u64;
    for i in 0..n {
        src.send(Message::new(
            0,
            1,
            MessageKind::Parcel,
            payload(16, i as u8),
        ));
    }
    let ports: Vec<Arc<dyn TransportPort>> = vec![src.clone(), dst.clone()];
    assert!(
        pump_until(
            &ports,
            || got.lock().len() as u64 == n && src.unacked() == 0,
            30
        ),
        "[{name}] reliable delivery incomplete: {}/{} (unacked {})",
        got.lock().len(),
        n,
        src.unacked()
    );
    // Settle: nothing extra may trickle in afterwards.
    std::thread::sleep(Duration::from_millis(10));
    pump_all(&ports);
    let mut seqs = got.lock().clone();
    assert_eq!(seqs.len() as u64, n, "[{name}] duplicate leaked through");
    seqs.sort_unstable();
    assert_eq!(seqs, (0..n).collect::<Vec<u64>>(), "[{name}] loss");
    assert_eq!(
        src.stats().delivery_failures.load(Ordering::SeqCst),
        0,
        "[{name}]"
    );
    assert!(
        src.stats().retransmits.load(Ordering::SeqCst) > 0,
        "[{name}] chaos must exercise retransmission"
    );
}

/// Exhausted retries surface a DeliveryError and drain the queue — an
/// explicit failure, never a silent hang.
fn check_reliable_give_up(name: &str, kind: TransportKind) {
    let transport = kind.build(2).expect("build transport");
    let reliable = ReliableTransport::new(
        transport,
        ReliabilityConfig {
            rto_initial: Duration::from_micros(300),
            rto_max: Duration::from_micros(600),
            max_retries: 2,
            ..Default::default()
        },
    );
    let src = reliable.reliable_port(0);
    let dst = reliable.reliable_port(1);
    dst.set_receiver(Arc::new(|_| {}));
    // Total blackout: every frame (retransmits included) is dropped.
    src.set_fault_plan(Some(Arc::new(FaultPlan::drop_every(1))));
    src.send(Message::new(0, 1, MessageKind::Parcel, payload(8, 1)));
    let ports: Vec<Arc<dyn TransportPort>> = vec![src.clone(), dst.clone()];
    assert!(
        pump_until(
            &ports,
            || src.stats().delivery_failures.load(Ordering::SeqCst) == 1,
            30
        ),
        "[{name}] give-up budget never fired"
    );
    let failures = src.take_delivery_failures();
    assert_eq!(failures.len(), 1, "[{name}]");
    assert_eq!(failures[0].dst, 1, "[{name}]");
    assert_eq!(src.unacked(), 0, "[{name}] abandoned entry must leave");
    assert_eq!(src.outbound_backlog(), 0, "[{name}] no silent hang");
}

/// A two-locality transport whose port 1 counts what it is handed.
type CountingPair = (
    Arc<dyn rpx_net::Transport>,
    Arc<dyn TransportPort>,
    Arc<dyn TransportPort>,
    Arc<std::sync::atomic::AtomicU64>,
);

fn counting_pair(kind: TransportKind) -> CountingPair {
    let transport = kind.build(2).expect("build transport");
    let (src, dst) = (transport.port(0), transport.port(1));
    let got = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let sink = Arc::clone(&got);
    dst.set_receiver(Arc::new(move |_| {
        sink.fetch_add(1, Ordering::SeqCst);
    }));
    (transport, src, dst, got)
}

/// What one backend made of the seeded fault stream: the plan's
/// tallies, the sender's accounting and what reached the receiver.
#[derive(Debug, PartialEq, Eq)]
struct FaultTally {
    dropped: u64,
    corrupted: u64,
    duplicated: u64,
    delayed: u64,
    reordered: u64,
    sent_messages: u64,
    best_effort_dropped: u64,
    delivered: u64,
    decode_failures: u64,
}

/// One fixed 60-message stream (mixed classes, single and coalesced
/// payloads) under every fault mode at once. Fault decisions are made
/// by message count in the shared front end, so every backend must
/// report the same tallies.
fn fault_tally(name: &str, kind: TransportKind) -> FaultTally {
    const N: u64 = 60;
    let (_transport, src, dst, got) = counting_pair(kind);
    let mut plan = FaultPlan::chaos();
    plan.delay_every = Some(7);
    plan.delay = Duration::from_millis(1);
    let plan = Arc::new(plan);
    src.set_fault_plan(Some(Arc::clone(&plan)));
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for i in 1..=N {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let body = payload((rng >> 40) as usize % 64, (rng >> 32) as u8);
        // Even messages are BestEffort, every fourth is coalesced — so
        // the three dropped ones (20, 40, 60) are BestEffort batches.
        let class = if i % 2 == 0 {
            DeliveryClass::BestEffort
        } else {
            DeliveryClass::Lossless
        };
        let message = if i % 4 == 0 {
            // Coalesced payloads lead with their parcel count.
            let mut batch = vec![2 + (i / 4 % 6) as u8];
            batch.extend_from_slice(&body);
            Message::new(0, 1, MessageKind::Coalesced, Bytes::from(batch))
        } else {
            Message::new(0, 1, MessageKind::Parcel, body)
        };
        src.send(message.with_class(class));
    }
    let ports = [Arc::clone(&src), Arc::clone(&dst)];
    // Every message decided, every survivor (and duplicate) delivered.
    let settled = || {
        src.stats().sent_messages.load(Ordering::Relaxed) == N
            && got.load(Ordering::SeqCst) + plan.dropped() + plan.corrupted()
                == N + plan.duplicated()
            && src.outbound_backlog() == 0
            && dst.inflight_backlog() == 0
    };
    assert!(
        pump_until(&ports, settled, 30),
        "[{name}] stream never settled: {} delivered",
        got.load(Ordering::SeqCst)
    );
    // Settle: nothing extra may trickle in afterwards.
    std::thread::sleep(Duration::from_millis(10));
    pump_all(&ports);
    FaultTally {
        dropped: plan.dropped(),
        corrupted: plan.corrupted(),
        duplicated: plan.duplicated(),
        delayed: plan.delayed(),
        reordered: plan.reordered(),
        sent_messages: src.stats().sent_messages.load(Ordering::Relaxed),
        best_effort_dropped: src.stats().best_effort_dropped.load(Ordering::Relaxed),
        delivered: got.load(Ordering::SeqCst),
        decode_failures: dst.stats().decode_failures.load(Ordering::Relaxed),
    }
}

/// A message parked by Delay or Reorder waits at the *sender*: it is in
/// the sender's `outbound_backlog` until released and in nobody's
/// `inflight_backlog` — the gauges quiescence reads.
fn check_parked_messages_wait_at_the_sender(name: &str, kind: TransportKind) {
    for plan in [
        FaultPlan::delay_every(2, Duration::from_millis(5)),
        FaultPlan::reorder_window(2),
    ] {
        let (_transport, src, dst, got) = counting_pair(kind);
        src.set_fault_plan(Some(Arc::new(plan)));
        for i in 0..2u8 {
            src.send(Message::new(0, 1, MessageKind::Parcel, payload(8, i)));
        }
        // One send pass: the first message leaves, the second is parked
        // (parked messages are only released by a later send pass).
        assert!(src.pump_send(), "[{name}]");
        assert!(
            pump_until(
                std::slice::from_ref(&dst),
                || got.load(Ordering::SeqCst) == 1 && dst.inflight_backlog() == 0,
                30
            ),
            "[{name}] the unparked message never arrived"
        );
        assert_eq!(src.outbound_backlog(), 1, "[{name}] parked at the sender");
        assert_eq!(src.inflight_backlog(), 0, "[{name}]");
        assert!(
            pump_until(
                &[Arc::clone(&src), Arc::clone(&dst)],
                || got.load(Ordering::SeqCst) == 2,
                30
            ),
            "[{name}] the parked message was never released"
        );
        assert_eq!(src.outbound_backlog(), 0, "[{name}]");
    }
}

/// Clearing the fault plan while messages are parked still releases
/// every one of them.
fn check_clearing_the_plan_releases_parked_messages(name: &str, kind: TransportKind) {
    let (_transport, src, dst, got) = counting_pair(kind);
    // Odd messages are reorder-parked, even ones delay-parked.
    let mut plan = FaultPlan::delay_every(2, Duration::from_millis(5));
    plan.reorder_window = Some(1);
    src.set_fault_plan(Some(Arc::new(plan)));
    for i in 0..4u8 {
        src.send(Message::new(0, 1, MessageKind::Parcel, payload(8, i)));
    }
    assert!(src.pump_send(), "[{name}]");
    assert_eq!(src.outbound_backlog(), 4, "[{name}] all four parked");
    src.set_fault_plan(None);
    assert!(
        pump_until(
            &[Arc::clone(&src), Arc::clone(&dst)],
            || got.load(Ordering::SeqCst) == 4,
            30
        ),
        "[{name}] {}/4 released after the plan was cleared",
        got.load(Ordering::SeqCst)
    );
    assert_eq!(src.outbound_backlog(), 0, "[{name}]");
}

#[test]
fn conformance_fault_tallies_are_identical_on_every_backend() {
    let tallies: Vec<_> = backends()
        .into_iter()
        .map(|(name, kind)| (name, fault_tally(name, kind)))
        .collect();
    let (_, reference) = &tallies[0];
    assert_eq!(reference.dropped, 3);
    // Drops are booked in parcels: batches of 7, 6 and 5.
    assert_eq!(reference.best_effort_dropped, 18);
    assert_eq!(reference.decode_failures, reference.corrupted);
    assert_eq!(reference.sent_messages, 60);
    assert!(reference.delayed > 0 && reference.reordered > 0);
    for (name, tally) in &tallies[1..] {
        assert_eq!(tally, reference, "[{name}] diverges from sim");
    }
}

#[test]
fn conformance_parked_messages_wait_at_the_sender_every_backend() {
    for (name, kind) in backends() {
        check_parked_messages_wait_at_the_sender(name, kind);
    }
}

#[test]
fn conformance_clearing_the_plan_releases_parked_every_backend() {
    for (name, kind) in backends() {
        check_clearing_the_plan_releases_parked_messages(name, kind);
    }
}

#[test]
fn conformance_duplicate_faults_both_backends() {
    for (name, kind) in backends() {
        check_duplicate_faults(name, kind);
    }
}

#[test]
fn conformance_reorder_faults_both_backends() {
    for (name, kind) in backends() {
        check_reorder_faults(name, kind);
    }
}

#[test]
fn conformance_delay_faults_both_backends() {
    for (name, kind) in backends() {
        check_delay_faults(name, kind);
    }
}

#[test]
fn conformance_reliable_exactly_once_both_backends() {
    for (name, kind) in backends() {
        check_reliable_exactly_once(name, kind);
    }
}

#[test]
fn conformance_reliable_give_up_both_backends() {
    for (name, kind) in backends() {
        check_reliable_give_up(name, kind);
    }
}

#[test]
fn conformance_delivery_both_backends() {
    for (name, kind) in backends() {
        check_delivery(name, kind);
    }
}

#[test]
fn conformance_drop_faults_both_backends() {
    for (name, kind) in backends() {
        check_drop_faults(name, kind);
    }
}

#[test]
fn conformance_corrupt_faults_both_backends() {
    for (name, kind) in backends() {
        check_corrupt_faults(name, kind);
    }
}

#[test]
fn conformance_all_to_all_both_backends() {
    for (name, kind) in backends() {
        check_all_to_all(name, kind);
    }
}
