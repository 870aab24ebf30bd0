//! End-to-end reliable delivery: sequence numbers, cumulative acks,
//! retransmission with backoff, duplicate suppression.
//!
//! The paper's coalescing stack sits on MPI, which hides loss and
//! reordering from the parcel layer entirely; RPX's raw backends surface
//! faults as "decode failure → drop → future times out". This module
//! closes that gap with a transport-agnostic reliability sublayer,
//! [`ReliablePort`], a decorator around any [`TransportPort`]:
//!
//! * **Sequencing** — every outbound non-ack message is stamped with a
//!   per-destination monotonic sequence number and travels as a
//!   versioned frame carrying the seq on the wire
//!   ([`crate::frame::SEQ_FLAG`]).
//! * **Acks** — the receive side tracks, per source, the cumulative
//!   next-expected seq plus a 64-bit SACK bitmap of out-of-order
//!   arrivals. Acks are flushed from `pump_recv` once
//!   [`ReliabilityConfig::ack_threshold`] deliveries accumulate or
//!   [`ReliabilityConfig::ack_interval`] elapses — piggybacked on the
//!   pump cadence, standalone on the timer. Ack frames are plain
//!   unsequenced [`MessageKind::Ack`] messages: never acked, never
//!   retransmitted.
//! * **Retransmission** — unacked messages sit in a per-destination
//!   queue. `pump_send` re-sends entries whose retransmission timeout
//!   expired, doubling the RTO (capped at
//!   [`ReliabilityConfig::rto_max`]) with deterministic jitter to avoid
//!   lock-step retry storms. After
//!   [`ReliabilityConfig::max_retries`] unacknowledged attempts the
//!   entry is abandoned: a [`DeliveryError`] is recorded (see
//!   [`ReliablePort::take_delivery_failures`]) and the
//!   `delivery_failures` counter rises — an explicit failure, never a
//!   silent hang.
//! * **Duplicate suppression** — a retransmit that crosses its ack (or
//!   a wire-duplicated frame) arrives with a seq the receive window has
//!   already seen; it is counted (`duplicates_suppressed`), re-acked so
//!   the sender stops, and dropped *below* the parcel layer — tasks are
//!   never double-spawned, LCOs never double-resolved.
//!
//! Because retransmits and acks are sent through the inner port and
//! driven by the same `pump_send`/`pump_recv` calls the scheduler
//! already runs as background work, all reliability CPU time lands in
//! the `/threads/background-work` account — the paper's Eq. 1–4
//! overhead bookkeeping stays honest with reliability on. For the same
//! reason retransmits and acks pass through the inner backend's fault
//! plan: under chaos testing the recovery traffic is as lossy as the
//! traffic it repairs.
//!
//! Unacked entries count toward [`ReliablePort::outbound_backlog`], so
//! a quiescence check that observes zero backlog has proof of
//! *acknowledged* end-to-end delivery, not merely of empty queues.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};

use crate::fault::FaultPlan;
use crate::message::{DeliveryClass, Message, MessageKind};
use crate::port::PortStats;
use crate::transport::{NotifyFn, ReceiveHandler, Transport, TransportPort};

/// Tuning knobs for the reliability sublayer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReliabilityConfig {
    /// Flush pending acks at most this long after the first unacked
    /// delivery (the "ack timer").
    pub ack_interval: Duration,
    /// Flush an ack immediately once this many deliveries accumulated.
    pub ack_threshold: u64,
    /// Initial retransmission timeout for a freshly sent message.
    pub rto_initial: Duration,
    /// Upper bound on the (exponentially backed-off) retransmission
    /// timeout.
    pub rto_max: Duration,
    /// Retransmission attempts before a message is abandoned with a
    /// [`DeliveryError`].
    pub max_retries: u32,
}

impl Default for ReliabilityConfig {
    fn default() -> Self {
        ReliabilityConfig {
            ack_interval: Duration::from_micros(100),
            ack_threshold: 8,
            rto_initial: Duration::from_millis(5),
            rto_max: Duration::from_millis(200),
            max_retries: 10,
        }
    }
}

/// A message exhausted its retransmission budget without being acked.
///
/// Surfaced through [`ReliablePort::take_delivery_failures`] and the
/// `delivery_failures` statistic — the runtime-level contract is an
/// explicit error, never a silent hang.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeliveryError {
    /// Destination locality the message never reached.
    pub dst: u32,
    /// Delivery sequence number of the abandoned message.
    pub seq: u64,
    /// Send attempts made (initial send + retransmits).
    pub attempts: u32,
}

impl std::fmt::Display for DeliveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "delivery to locality {} failed: seq {} unacked after {} attempts",
            self.dst, self.seq, self.attempts
        )
    }
}

impl std::error::Error for DeliveryError {}

/// Byte length of an ack payload: cumulative seq + SACK bitmap.
const ACK_PAYLOAD_LEN: usize = 16;

/// Encode an ack payload: `[cum_next u64 LE][bitmap u64 LE]` where bit
/// `i` of the bitmap reports seq `cum_next + i` as received.
fn encode_ack(cum_next: u64, bitmap: u64) -> Bytes {
    let mut buf = [0u8; ACK_PAYLOAD_LEN];
    buf[0..8].copy_from_slice(&cum_next.to_le_bytes());
    buf[8..16].copy_from_slice(&bitmap.to_le_bytes());
    Bytes::copy_from_slice(&buf)
}

/// Decode an ack payload; `None` if malformed (treated as lost).
fn decode_ack(payload: &[u8]) -> Option<(u64, u64)> {
    if payload.len() < ACK_PAYLOAD_LEN {
        return None;
    }
    let cum_next = u64::from_le_bytes(payload[0..8].try_into().ok()?);
    let bitmap = u64::from_le_bytes(payload[8..16].try_into().ok()?);
    Some((cum_next, bitmap))
}

/// Deterministic retry jitter: up to 25 % of `rto`, keyed by
/// `(dst, seq, attempts)` so concurrent senders (and successive retries
/// of one message) spread out without a random-number dependency.
fn jitter(dst: u32, seq: u64, attempts: u32, rto: Duration) -> Duration {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in dst
        .to_le_bytes()
        .into_iter()
        .chain(seq.to_le_bytes())
        .chain(attempts.to_le_bytes())
    {
        h = (h ^ b as u64).wrapping_mul(PRIME);
    }
    let quarter = (rto.as_nanos() / 4) as u64;
    Duration::from_nanos(quarter * (h % 256) / 255)
}

/// One unacknowledged message awaiting its ack or retransmission.
#[derive(Debug)]
struct Unacked {
    seq: u64,
    message: Message,
    /// Send attempts so far (1 after the initial send).
    attempts: u32,
    /// Current (backed-off) retransmission timeout.
    rto: Duration,
    /// When the next retransmission fires.
    next_retry: Instant,
}

/// Per-destination send half: seq allocation + retransmit queue.
#[derive(Debug, Default)]
struct SendState {
    next_seq: u64,
    unacked: VecDeque<Unacked>,
}

/// Per-source receive half: delivery window + ack bookkeeping.
#[derive(Debug)]
struct RecvState {
    /// Every seq below this has been delivered upward.
    cum_next: u64,
    /// Seqs `>= cum_next` delivered out of order (the SACK set).
    out_of_order: BTreeSet<u64>,
    /// An ack should be sent (new delivery or duplicate to re-ack).
    ack_due: bool,
    /// Deliveries since the last ack flush.
    delivered_since_ack: u64,
    /// When the last ack was flushed.
    last_ack: Instant,
}

impl RecvState {
    fn new() -> Self {
        RecvState {
            cum_next: 0,
            out_of_order: BTreeSet::new(),
            ack_due: false,
            delivered_since_ack: 0,
            last_ack: Instant::now(),
        }
    }

    /// The SACK bitmap over `cum_next..cum_next + 64`.
    fn bitmap(&self) -> u64 {
        let mut bitmap = 0u64;
        for &s in self.out_of_order.range(self.cum_next..self.cum_next + 64) {
            bitmap |= 1 << (s - self.cum_next);
        }
        bitmap
    }
}

struct ReliableShared {
    inner: Arc<dyn TransportPort>,
    config: ReliabilityConfig,
    send: Mutex<HashMap<u32, SendState>>,
    recv: Mutex<HashMap<u32, RecvState>>,
    upper: RwLock<Option<ReceiveHandler>>,
    failures: Mutex<Vec<DeliveryError>>,
}

impl ReliableShared {
    /// Receive-side hook installed on the inner port.
    fn on_receive(&self, message: Message) {
        match (message.kind, message.seq) {
            (MessageKind::Ack, _) => self.process_ack(&message),
            (_, Some(seq)) => {
                let deliver = {
                    let mut recv = self.recv.lock();
                    let st = recv.entry(message.src).or_insert_with(RecvState::new);
                    if seq < st.cum_next || st.out_of_order.contains(&seq) {
                        // Duplicate (retransmit that crossed its ack, or
                        // a wire-duplicated frame): drop below the parcel
                        // layer and re-ack so the sender stops.
                        self.inner
                            .stats()
                            .duplicates_suppressed
                            .fetch_add(1, Ordering::Relaxed);
                        st.ack_due = true;
                        false
                    } else {
                        st.out_of_order.insert(seq);
                        // Advance the cumulative frontier over any run
                        // that just became contiguous.
                        while st.out_of_order.remove(&st.cum_next) {
                            st.cum_next += 1;
                        }
                        st.delivered_since_ack += 1;
                        st.ack_due = true;
                        true
                    }
                };
                if deliver {
                    if let Some(h) = self.upper.read().clone() {
                        h(message);
                    }
                }
            }
            // Unsequenced traffic (a peer without reliability): pass
            // through untouched.
            (_, None) => {
                if let Some(h) = self.upper.read().clone() {
                    h(message);
                }
            }
        }
    }

    /// Apply an ack from `message.src`: everything below the cumulative
    /// seq, plus every bitmap hit, leaves the retransmit queue.
    fn process_ack(&self, message: &Message) {
        let Some((cum_next, bitmap)) = decode_ack(&message.payload) else {
            return;
        };
        let mut send = self.send.lock();
        if let Some(st) = send.get_mut(&message.src) {
            st.unacked.retain(|u| {
                if u.seq < cum_next {
                    return false;
                }
                let i = u.seq - cum_next;
                !(i < 64 && bitmap & (1 << i) != 0)
            });
        }
    }

    /// Re-send every unacked message whose RTO expired; abandon those
    /// out of budget. Returns `true` if anything was retransmitted.
    fn retransmit_due(&self) -> bool {
        let now = Instant::now();
        let mut resend = Vec::new();
        let mut failed = Vec::new();
        {
            let mut send = self.send.lock();
            for (&dst, st) in send.iter_mut() {
                let mut i = 0;
                while i < st.unacked.len() {
                    let u = &mut st.unacked[i];
                    if u.next_retry > now {
                        i += 1;
                        continue;
                    }
                    if u.attempts > self.config.max_retries {
                        let u = st.unacked.remove(i).expect("index checked");
                        failed.push(DeliveryError {
                            dst,
                            seq: u.seq,
                            attempts: u.attempts,
                        });
                        continue;
                    }
                    u.attempts += 1;
                    u.rto = (u.rto * 2).min(self.config.rto_max);
                    u.next_retry = now + u.rto + jitter(dst, u.seq, u.attempts, u.rto);
                    resend.push(u.message.clone());
                    i += 1;
                }
            }
        }
        let stats = self.inner.stats();
        if !failed.is_empty() {
            stats
                .delivery_failures
                .fetch_add(failed.len() as u64, Ordering::Relaxed);
            self.failures.lock().extend(failed);
        }
        let did = !resend.is_empty();
        for m in resend {
            stats.retransmits.fetch_add(1, Ordering::Relaxed);
            self.inner.send(m);
        }
        did
    }

    /// Send due ack frames (threshold reached or ack timer expired).
    /// Returns `true` if any ack went out.
    fn flush_acks(&self) -> bool {
        let now = Instant::now();
        let locality = self.inner.locality();
        let mut acks = Vec::new();
        {
            let mut recv = self.recv.lock();
            for (&src, st) in recv.iter_mut() {
                if !st.ack_due {
                    continue;
                }
                if st.delivered_since_ack < self.config.ack_threshold
                    && now.duration_since(st.last_ack) < self.config.ack_interval
                {
                    continue;
                }
                acks.push(Message::new(
                    locality,
                    src,
                    MessageKind::Ack,
                    encode_ack(st.cum_next, st.bitmap()),
                ));
                st.ack_due = false;
                st.delivered_since_ack = 0;
                st.last_ack = now;
            }
        }
        let did = !acks.is_empty();
        let stats = self.inner.stats();
        for m in acks {
            stats.acks_sent.fetch_add(1, Ordering::Relaxed);
            self.inner.send(m);
        }
        did
    }

    /// Total messages awaiting acknowledgement across all destinations.
    fn unacked_total(&self) -> usize {
        self.send.lock().values().map(|s| s.unacked.len()).sum()
    }
}

/// Reliability decorator around any [`TransportPort`].
///
/// Stamps sequence numbers on outbound messages, retransmits until
/// acked (or a [`DeliveryError`] is recorded), suppresses duplicate
/// deliveries and emits acks — see the [module docs](self) for the
/// protocol. Built by [`ReliableTransport`]; all [`TransportPort`]
/// methods delegate to the wrapped port, with the reliability state
/// machines spliced into `send`/`pump_send`/`pump_recv`.
pub struct ReliablePort {
    shared: Arc<ReliableShared>,
}

impl ReliablePort {
    /// Wrap `inner` with reliability under `config`.
    ///
    /// Installs a receive hook on `inner`; the handler later given to
    /// [`ReliablePort::set_receiver`] observes exactly-once delivery.
    pub fn new(inner: Arc<dyn TransportPort>, config: ReliabilityConfig) -> Arc<Self> {
        let shared = Arc::new(ReliableShared {
            inner,
            config,
            send: Mutex::new(HashMap::new()),
            recv: Mutex::new(HashMap::new()),
            upper: RwLock::new(None),
            failures: Mutex::new(Vec::new()),
        });
        // The inner port holds this hook for its own lifetime; a weak
        // reference avoids the reference cycle inner → hook → shared →
        // inner.
        let weak: Weak<ReliableShared> = Arc::downgrade(&shared);
        shared.inner.set_receiver(Arc::new(move |message| {
            if let Some(shared) = weak.upgrade() {
                shared.on_receive(message);
            }
        }));
        Arc::new(ReliablePort { shared })
    }

    /// Drain the delivery failures recorded since the last call (each
    /// one also counted in the `delivery_failures` statistic).
    pub fn take_delivery_failures(&self) -> Vec<DeliveryError> {
        std::mem::take(&mut self.shared.failures.lock())
    }

    /// Messages sent but not yet acknowledged by their destination.
    pub fn unacked(&self) -> usize {
        self.shared.unacked_total()
    }

    /// Out-of-order entries currently held across all receive windows.
    /// Once a source's traffic is contiguously delivered this returns to
    /// zero — the leak check the reliability proptests pin.
    pub fn recv_window_len(&self) -> usize {
        self.shared
            .recv
            .lock()
            .values()
            .map(|s| s.out_of_order.len())
            .sum()
    }

    /// The configuration in force.
    pub fn config(&self) -> ReliabilityConfig {
        self.shared.config
    }

    #[doc(hidden)]
    pub fn debug_recv_states(&self) -> Vec<(u32, u64, Vec<u64>)> {
        self.shared
            .recv
            .lock()
            .iter()
            .map(|(src, st)| (*src, st.cum_next, st.out_of_order.iter().copied().collect()))
            .collect()
    }
}

impl TransportPort for ReliablePort {
    fn locality(&self) -> u32 {
        self.shared.inner.locality()
    }

    fn stats(&self) -> &PortStats {
        self.shared.inner.stats()
    }

    fn send(&self, message: Message) {
        // Acks (and anything already sequenced by a caller) bypass the
        // sequencer: acking acks would never converge. BestEffort-class
        // traffic bypasses by contract — unsequenced, unacked, never
        // retransmitted, never owed to quiescence.
        if message.kind == MessageKind::Ack
            || message.seq.is_some()
            || message.class == DeliveryClass::BestEffort
        {
            self.shared.inner.send(message);
            return;
        }
        let message = {
            let mut send = self.shared.send.lock();
            let st = send.entry(message.dst).or_default();
            let seq = st.next_seq;
            st.next_seq += 1;
            let message = message.with_seq(seq);
            let rto = self.shared.config.rto_initial;
            st.unacked.push_back(Unacked {
                seq,
                message: message.clone(),
                attempts: 1,
                rto,
                next_retry: Instant::now() + rto + jitter(message.dst, seq, 1, rto),
            });
            message
        };
        self.shared.inner.send(message);
    }

    fn pump_send(&self) -> bool {
        let retried = self.shared.retransmit_due();
        let pumped = self.shared.inner.pump_send();
        retried || pumped
    }

    fn pump_recv(&self) -> bool {
        let delivered = self.shared.inner.pump_recv();
        let acked = self.shared.flush_acks();
        delivered || acked
    }

    fn set_receiver(&self, handler: ReceiveHandler) {
        *self.shared.upper.write() = Some(handler);
    }

    fn set_notify(&self, notify: NotifyFn) {
        self.shared.inner.set_notify(notify);
    }

    fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        // Faults live in the raw backend, *below* the reliability state
        // machines, so retransmits and acks are themselves subject to
        // the plan — chaos testing exercises the recovery path under
        // the same conditions as the traffic it repairs.
        self.shared.inner.set_fault_plan(plan);
    }

    fn outbound_backlog(&self) -> usize {
        // Unacked messages count as outstanding: zero backlog means
        // *acknowledged* delivery, which is what quiescence waits for.
        self.shared.inner.outbound_backlog() + self.shared.unacked_total()
    }

    fn inflight_backlog(&self) -> usize {
        self.shared.inner.inflight_backlog()
    }

    fn processing(&self) -> usize {
        self.shared.inner.processing()
    }
}

/// A [`Transport`] decorator wrapping every port in a [`ReliablePort`].
///
/// Ports are cached so repeated [`Transport::port`] calls for one
/// locality share the same sequence/ack state — a fresh wrapper per
/// call would restart sequence numbers and break the protocol.
pub struct ReliableTransport {
    inner: Arc<dyn Transport>,
    config: ReliabilityConfig,
    ports: Mutex<Vec<Option<Arc<ReliablePort>>>>,
}

impl ReliableTransport {
    /// Wrap `inner` so every port speaks the reliability protocol.
    pub fn new(inner: Arc<dyn Transport>, config: ReliabilityConfig) -> Arc<Self> {
        let localities = inner.localities() as usize;
        Arc::new(ReliableTransport {
            inner,
            config,
            ports: Mutex::new(vec![None; localities]),
        })
    }

    /// The typed reliable port of `locality` (same instance the
    /// [`Transport`] impl hands out).
    ///
    /// # Panics
    /// Panics if `locality` is out of range.
    pub fn reliable_port(&self, locality: u32) -> Arc<ReliablePort> {
        let mut ports = self.ports.lock();
        let slot = &mut ports[locality as usize];
        if slot.is_none() {
            *slot = Some(ReliablePort::new(self.inner.port(locality), self.config));
        }
        Arc::clone(slot.as_ref().expect("just filled"))
    }
}

impl Transport for ReliableTransport {
    fn localities(&self) -> u32 {
        self.inner.localities()
    }

    fn port(&self, locality: u32) -> Arc<dyn TransportPort> {
        self.reliable_port(locality)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::SimTransport;
    use crate::model::LinkModel;
    use std::sync::atomic::AtomicU64;

    fn reliable_pair(
        config: ReliabilityConfig,
    ) -> (Arc<ReliableTransport>, Arc<ReliablePort>, Arc<ReliablePort>) {
        let sim = SimTransport::new(2, LinkModel::zero());
        let t = ReliableTransport::new(sim, config);
        let a = t.reliable_port(0);
        let b = t.reliable_port(1);
        (t, a, b)
    }

    fn pump_until<F: Fn() -> bool>(
        ports: &[&Arc<ReliablePort>],
        done: F,
        timeout: Duration,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        while !done() {
            for p in ports {
                p.pump();
            }
            if Instant::now() > deadline {
                return false;
            }
        }
        true
    }

    fn msg(src: u32, dst: u32, payload: &[u8]) -> Message {
        Message::new(
            src,
            dst,
            MessageKind::Parcel,
            Bytes::copy_from_slice(payload),
        )
    }

    #[test]
    fn ack_payload_roundtrips() {
        let (cum, map) = decode_ack(&encode_ack(42, 0b1010)).unwrap();
        assert_eq!(cum, 42);
        assert_eq!(map, 0b1010);
        assert_eq!(decode_ack(b"short"), None);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let rto = Duration::from_millis(8);
        let j1 = jitter(1, 5, 2, rto);
        let j2 = jitter(1, 5, 2, rto);
        assert_eq!(j1, j2);
        assert!(j1 <= rto / 4);
        // Different keys spread.
        assert_ne!(jitter(1, 5, 2, rto), jitter(1, 6, 2, rto));
    }

    #[test]
    fn clean_path_delivers_and_acks_drain_the_queue() {
        let (_t, a, b) = reliable_pair(ReliabilityConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |m: Message| {
            assert!(m.seq.is_some(), "reliable traffic is sequenced");
            h.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..20 {
            a.send(msg(0, 1, b"payload"));
        }
        assert!(pump_until(
            &[&a, &b],
            || hits.load(Ordering::SeqCst) == 20 && a.unacked() == 0,
            Duration::from_secs(5)
        ));
        assert_eq!(a.stats().retransmits.load(Ordering::SeqCst), 0);
        assert!(b.stats().acks_sent.load(Ordering::SeqCst) > 0);
        assert_eq!(a.outbound_backlog(), 0);
    }

    #[test]
    fn drops_are_repaired_by_retransmission_exactly_once() {
        let config = ReliabilityConfig {
            rto_initial: Duration::from_micros(500),
            ..Default::default()
        };
        let (_t, a, b) = reliable_pair(config);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::drop_every(4))));
        for _ in 0..40 {
            a.send(msg(0, 1, b"x"));
        }
        assert!(pump_until(
            &[&a, &b],
            || hits.load(Ordering::SeqCst) == 40 && a.unacked() == 0,
            Duration::from_secs(10)
        ));
        // Nothing delivered twice, and the repair really used retransmits.
        assert_eq!(hits.load(Ordering::SeqCst), 40);
        assert!(a.stats().retransmits.load(Ordering::SeqCst) > 0);
        assert!(a.take_delivery_failures().is_empty());
    }

    #[test]
    fn wire_duplicates_are_suppressed() {
        let (_t, a, b) = reliable_pair(ReliabilityConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::duplicate_every(2))));
        for _ in 0..20 {
            a.send(msg(0, 1, b"x"));
        }
        assert!(pump_until(
            &[&a, &b],
            || hits.load(Ordering::SeqCst) == 20 && a.unacked() == 0,
            Duration::from_secs(10)
        ));
        std::thread::sleep(Duration::from_millis(5));
        for p in [&a, &b] {
            p.pump();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 20, "duplicates leaked");
        assert!(b.stats().duplicates_suppressed.load(Ordering::SeqCst) >= 10);
    }

    #[test]
    fn reordering_is_tolerated() {
        let (_t, a, b) = reliable_pair(ReliabilityConfig::default());
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.seq.unwrap())));
        a.set_fault_plan(Some(Arc::new(FaultPlan::reorder_window(4))));
        for _ in 0..32 {
            a.send(msg(0, 1, b"x"));
        }
        assert!(pump_until(
            &[&a, &b],
            || got.lock().len() == 32 && a.unacked() == 0,
            Duration::from_secs(10)
        ));
        let mut seqs = got.lock().clone();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..32).collect::<Vec<u64>>());
    }

    #[test]
    fn exhausted_retries_surface_delivery_error_not_a_hang() {
        let config = ReliabilityConfig {
            rto_initial: Duration::from_micros(200),
            rto_max: Duration::from_micros(400),
            max_retries: 3,
            ..Default::default()
        };
        let (_t, a, b) = reliable_pair(config);
        b.set_receiver(Arc::new(|_| {}));
        // Total blackout: everything (including retransmits) is dropped.
        a.set_fault_plan(Some(Arc::new(FaultPlan::drop_every(1))));
        a.send(msg(0, 1, b"doomed"));
        assert!(
            pump_until(
                &[&a, &b],
                || a.stats().delivery_failures.load(Ordering::SeqCst) == 1,
                Duration::from_secs(10)
            ),
            "give-up budget never fired"
        );
        let failures = a.take_delivery_failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].dst, 1);
        assert_eq!(failures[0].seq, 0);
        assert_eq!(failures[0].attempts, 1 + config.max_retries);
        // The abandoned entry left the queue: backlog drains to zero.
        assert_eq!(a.unacked(), 0);
        assert_eq!(a.take_delivery_failures(), vec![], "drained once");
    }

    #[test]
    fn combined_chaos_still_delivers_exactly_once() {
        let config = ReliabilityConfig {
            rto_initial: Duration::from_millis(1),
            ..Default::default()
        };
        let (_t, a, b) = reliable_pair(config);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::chaos())));
        let n = 200u64;
        for _ in 0..n {
            a.send(msg(0, 1, b"chaos"));
        }
        assert!(pump_until(
            &[&a, &b],
            || hits.load(Ordering::SeqCst) == n && a.unacked() == 0,
            Duration::from_secs(30)
        ));
        std::thread::sleep(Duration::from_millis(5));
        for p in [&a, &b] {
            p.pump();
        }
        assert_eq!(hits.load(Ordering::SeqCst), n, "lost or duplicated");
        assert_eq!(a.stats().delivery_failures.load(Ordering::SeqCst), 0);
        assert!(a.take_delivery_failures().is_empty());
    }

    #[test]
    fn unsequenced_traffic_passes_through() {
        let (_t, a, b) = reliable_pair(ReliabilityConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        // A message already carrying a seq bypasses the sequencer (it is
        // a retransmit-shaped send); an Ack-kind message does too.
        a.send(msg(0, 1, b"normal"));
        assert!(pump_until(
            &[&a, &b],
            || hits.load(Ordering::SeqCst) == 1 && a.unacked() == 0,
            Duration::from_secs(5)
        ));
    }

    #[test]
    fn best_effort_skips_sequencing_and_acks() {
        let (_t, a, b) = reliable_pair(ReliabilityConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |m: Message| {
            assert_eq!(m.seq, None, "BestEffort must travel unsequenced");
            assert_eq!(m.class, DeliveryClass::BestEffort);
            h.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..10 {
            a.send(msg(0, 1, b"be").with_class(DeliveryClass::BestEffort));
        }
        assert!(pump_until(
            &[&a, &b],
            || hits.load(Ordering::SeqCst) == 10,
            Duration::from_secs(5)
        ));
        // Nothing entered the retransmit queue and no acks flowed.
        assert_eq!(a.unacked(), 0);
        assert_eq!(a.outbound_backlog(), 0);
        std::thread::sleep(Duration::from_millis(1));
        for p in [&a, &b] {
            p.pump();
        }
        assert_eq!(b.stats().acks_sent.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn best_effort_drops_are_not_repaired() {
        let (_t, a, b) = reliable_pair(ReliabilityConfig {
            rto_initial: Duration::from_micros(200),
            ..Default::default()
        });
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::drop_every(2))));
        for _ in 0..20 {
            a.send(msg(0, 1, b"be").with_class(DeliveryClass::BestEffort));
        }
        assert!(pump_until(
            &[&a, &b],
            || hits.load(Ordering::SeqCst) == 10,
            Duration::from_secs(5)
        ));
        std::thread::sleep(Duration::from_millis(2));
        for p in [&a, &b] {
            p.pump();
        }
        // At-most-once: exactly the survivors, no retransmits, and the
        // drops are accounted for by the wire counter.
        assert_eq!(hits.load(Ordering::SeqCst), 10);
        assert_eq!(a.stats().retransmits.load(Ordering::SeqCst), 0);
        assert_eq!(a.stats().best_effort_dropped.load(Ordering::SeqCst), 10);
        assert_eq!(a.unacked(), 0);
    }

    #[test]
    fn coalesce_class_is_sequenced_like_lossless() {
        let (_t, a, b) = reliable_pair(ReliabilityConfig::default());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |m: Message| {
            assert!(m.seq.is_some(), "Coalesce rides the reliable wire");
            assert_eq!(m.class, DeliveryClass::Coalesce);
            h.fetch_add(1, Ordering::SeqCst);
        }));
        for _ in 0..5 {
            a.send(msg(0, 1, b"co").with_class(DeliveryClass::Coalesce));
        }
        assert!(pump_until(
            &[&a, &b],
            || hits.load(Ordering::SeqCst) == 5 && a.unacked() == 0,
            Duration::from_secs(5)
        ));
    }

    #[test]
    fn transport_caches_ports() {
        let sim = SimTransport::new(2, LinkModel::zero());
        let t = ReliableTransport::new(sim, ReliabilityConfig::default());
        let p1 = t.reliable_port(0);
        let p2 = t.reliable_port(0);
        assert!(Arc::ptr_eq(&p1, &p2), "port state must be shared");
        assert_eq!(Transport::localities(t.as_ref()), 2);
        assert_eq!(Transport::port(t.as_ref(), 1).locality(), 1);
    }
}
