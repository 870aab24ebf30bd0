//! The simulated transport: per-locality ports, cost charging and
//! delayed delivery — the first [`Transport`] implementation.
//!
//! Each locality owns a [`SimPort`]. Sending enqueues onto the sender's
//! outbound queue; scheduler background work drives [`SimPort::pump_send`]
//! (charge sender CPU cost, stamp a delivery deadline `now + latency`,
//! move the message to the destination's in-flight heap) and
//! [`SimPort::pump_recv`] (pop due messages, charge receiver CPU cost,
//! invoke the receive handler). Both pumps are safe to call concurrently
//! from many workers; costs are paid by whichever worker handles the
//! message, exactly as HPX parcelport progress work lands on arbitrary
//! scheduler threads.
//!
//! Messages travel as in-memory structs (no copy on the hot path), but
//! byte counters charge **frame** lengths ([`wire_len`]) and fault
//! injection routes through the shared frame codec, so statistics and
//! corruption behaviour match the TCP backend byte for byte.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};

use rpx_util::busy_charge;

use crate::fault::{FaultAction, FaultPlan, FaultStage};
use crate::frame::{corrupt_frame, decode_frame, encode_frame, wire_len};
use crate::message::{DeliveryClass, Message};
use crate::model::LinkModel;
use crate::transport::{NotifyFn, ReceiveHandler, Transport, TransportPort};

/// Per-port traffic statistics (relaxed atomics, safe for hot paths).
///
/// Byte counters measure bytes **on the wire** — frame lengths, header
/// included — so the simulated and TCP backends report comparable
/// `/network/*` values.
#[derive(Debug, Default)]
pub struct PortStats {
    /// Messages handed to `send`.
    pub enqueued: AtomicU64,
    /// Messages pushed onto the wire (send cost paid).
    pub sent_messages: AtomicU64,
    /// Frame bytes pushed onto the wire.
    pub sent_bytes: AtomicU64,
    /// Messages delivered to the receive handler (recv cost paid).
    pub received_messages: AtomicU64,
    /// Frame bytes delivered.
    pub received_bytes: AtomicU64,
    /// Frames that arrived corrupted (checksum/framing failure) and were
    /// dropped on the receive side.
    pub decode_failures: AtomicU64,
    /// Sequenced frames re-sent by the reliability sublayer after their
    /// retransmission timeout expired unacked. Incremented by
    /// [`crate::reliability::ReliablePort`]; raw backends never touch it.
    pub retransmits: AtomicU64,
    /// Ack frames sent by the reliability sublayer on behalf of this
    /// port's receive side.
    pub acks_sent: AtomicU64,
    /// Received sequenced frames discarded as duplicates by the
    /// reliability sublayer's receive window (retransmit or injected
    /// duplicate already delivered).
    pub duplicates_suppressed: AtomicU64,
    /// Sequenced frames abandoned after the retransmission give-up
    /// budget was exhausted (each surfaced as a
    /// [`crate::reliability::DeliveryError`]).
    pub delivery_failures: AtomicU64,
    /// Readiness events dispatched for this port's sockets by the
    /// event-loop transport's pump threads ([`crate::TcpTransport`]).
    /// Always zero on the simulated backend.
    pub event_wakeups: AtomicU64,
    /// Vectored reads (`readv`) that moved at least one byte into this
    /// port's receive buffer. `received_messages / readv_batches` is the
    /// frame batching factor of the receive path.
    pub readv_batches: AtomicU64,
    /// Frames fully flushed to the kernel by vectored writes (`writev`)
    /// on this port's outgoing connections.
    pub writev_frames: AtomicU64,
    /// Messages delivered to this port through a same-host shared-memory
    /// ring instead of a socket ([`crate::TcpTransport`] with the shm
    /// backend enabled). Always zero on pure-TCP and simulated runs.
    pub shm_messages: AtomicU64,
    /// Frame bytes delivered through shared-memory rings.
    pub shm_bytes: AtomicU64,
    /// Doorbell readiness events dispatched for this port (a producer
    /// rang because the consumer looked idle, or a consumer rang a
    /// blocked producer back). A low ratio of wakeups to shm messages
    /// means the bounded-spin drain is batching well.
    pub doorbell_wakeups: AtomicU64,
    /// BestEffort-class messages intentionally discarded at this port —
    /// on the send side by a fault plan's wire drop or the parcel layer
    /// shedding load past its BestEffort backlog bound, and on the
    /// receive side when a frame arrives reordered so far behind its
    /// peers that the dedup window can no longer prove it unseen.
    /// At-most-once accounting: summed across both endpoints,
    /// `delivered + best_effort_dropped == sent` holds for BestEffort
    /// traffic under drop/duplicate faults. The counter is conservative:
    /// it never under-reports loss, but under extreme reordering it may
    /// over-report (a wire-duplicate displaced past the dedup window is
    /// discarded as stale even though its twin was delivered). Corrupted
    /// frames are counted as the receiver's `decode_failures` instead.
    pub best_effort_dropped: AtomicU64,
}

struct InFlight {
    deliver_at: Instant,
    seq: u64,
    message: Message,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for InFlight {}
impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.deliver_at
            .cmp(&other.deliver_at)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Sentinel for [`PortShared::next_due`]: no message in flight.
const NO_DEADLINE: u64 = u64::MAX;

struct PortShared {
    locality: u32,
    outbound_tx: Sender<Message>,
    outbound_rx: Receiver<Message>,
    inflight: Mutex<BinaryHeap<Reverse<InFlight>>>,
    /// Earliest `deliver_at` in `inflight`, as nanoseconds since the
    /// fabric epoch ([`NO_DEADLINE`] when empty). Written only while the
    /// heap lock is held (Release) and read without it (Acquire), so
    /// `pump_recv` can skip the lock entirely when nothing is due — the
    /// common case for background polls on an idle or high-latency port.
    next_due: AtomicU64,
    receiver: RwLock<Option<ReceiveHandler>>,
    notify: RwLock<Option<NotifyFn>>,
    stats: PortStats,
    seq: AtomicU64,
    /// Messages popped from a queue but not yet handed to the next stage
    /// (mid-pump). Needed so quiescence checks do not declare the fabric
    /// idle while a pump thread holds a message.
    ///
    /// Ordering invariant: the gauge is incremented (Acquire) before the
    /// pump releases the queue it popped from and decremented (Release)
    /// only after the message has been handed to the next stage, so a
    /// quiescence check that observes empty queues and a zero gauge
    /// cannot have missed an in-transit message. Acquire/Release suffices
    /// because the gauge never synchronises data of its own — it only
    /// orders against the queue operations around it.
    processing: std::sync::atomic::AtomicUsize,
    /// Optional failure injection applied to outbound messages.
    faults: RwLock<Option<Arc<FaultPlan>>>,
    /// Outbound messages parked by [`FaultAction::Reorder`], waiting for
    /// later traffic to overtake them. Counted in `outbound_backlog` so
    /// quiescence checks see them.
    reorder: Mutex<FaultStage<Message>>,
}

/// Decrements a processing gauge on drop (panic-safe).
struct ProcessingGuard<'a>(&'a std::sync::atomic::AtomicUsize);

impl<'a> ProcessingGuard<'a> {
    fn enter(gauge: &'a std::sync::atomic::AtomicUsize) -> Self {
        gauge.fetch_add(1, Ordering::Acquire);
        ProcessingGuard(gauge)
    }
}

impl Drop for ProcessingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl PortShared {
    fn notify(&self) {
        if let Some(n) = self.notify.read().as_ref() {
            n();
        }
    }
}

/// Shared fabric state: the cost model, the timestamp epoch and every
/// port. Both [`SimTransport`] and each [`SimPort`] hold an `Arc` to it,
/// so ports stay valid however the transport handle is passed around.
struct FabricState {
    model: LinkModel,
    /// Reference instant for `next_due` timestamps; all deadlines are
    /// encoded as nanoseconds since this epoch.
    epoch: Instant,
    ports: Vec<Arc<PortShared>>,
}

impl FabricState {
    /// Nanoseconds from the fabric epoch to `at` (saturating at zero).
    fn epoch_ns(&self, at: Instant) -> u64 {
        at.checked_duration_since(self.epoch)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    }
}

/// The simulated software network connecting all localities of a cluster.
pub struct SimTransport {
    state: Arc<FabricState>,
}

impl SimTransport {
    /// Build a fabric for `localities` localities under `model`.
    pub fn new(localities: u32, model: LinkModel) -> Arc<Self> {
        assert!(localities > 0, "fabric needs at least one locality");
        let ports = (0..localities)
            .map(|locality| {
                let (outbound_tx, outbound_rx) = unbounded();
                Arc::new(PortShared {
                    locality,
                    outbound_tx,
                    outbound_rx,
                    inflight: Mutex::new(BinaryHeap::new()),
                    next_due: AtomicU64::new(NO_DEADLINE),
                    receiver: RwLock::new(None),
                    notify: RwLock::new(None),
                    stats: PortStats::default(),
                    seq: AtomicU64::new(0),
                    processing: std::sync::atomic::AtomicUsize::new(0),
                    faults: RwLock::new(None),
                    reorder: Mutex::new(FaultStage::default()),
                })
            })
            .collect();
        Arc::new(SimTransport {
            state: Arc::new(FabricState {
                model,
                epoch: Instant::now(),
                ports,
            }),
        })
    }

    /// The link model in force.
    pub fn model(&self) -> LinkModel {
        self.state.model
    }

    /// Number of localities.
    pub fn localities(&self) -> u32 {
        self.state.ports.len() as u32
    }

    /// The port of `locality`.
    ///
    /// # Panics
    /// Panics if `locality` is out of range.
    pub fn port(&self, locality: u32) -> SimPort {
        assert!(
            (locality as usize) < self.state.ports.len(),
            "locality {locality} out of range"
        );
        SimPort {
            state: Arc::clone(&self.state),
            shared: Arc::clone(&self.state.ports[locality as usize]),
        }
    }
}

impl Transport for SimTransport {
    fn localities(&self) -> u32 {
        SimTransport::localities(self)
    }

    fn port(&self, locality: u32) -> Arc<dyn TransportPort> {
        Arc::new(SimTransport::port(self, locality))
    }
}

/// A locality's endpoint on the simulated fabric.
#[derive(Clone)]
pub struct SimPort {
    state: Arc<FabricState>,
    shared: Arc<PortShared>,
}

/// How many messages one pump call processes before yielding, bounding
/// the latency a single background poll can add to its worker.
const PUMP_BATCH: usize = 8;

impl SimPort {
    /// This port's locality id.
    pub fn locality(&self) -> u32 {
        self.shared.locality
    }

    /// Traffic statistics.
    pub fn stats(&self) -> &PortStats {
        &self.shared.stats
    }

    /// Install the handler invoked (from pump threads) for every delivered
    /// message.
    pub fn set_receiver(&self, handler: ReceiveHandler) {
        *self.shared.receiver.write() = Some(handler);
    }

    /// Install a wake-up hook called whenever traffic lands on this port's
    /// queues (the runtime points this at `Scheduler::notify`).
    pub fn set_notify(&self, notify: NotifyFn) {
        *self.shared.notify.write() = Some(notify);
    }

    /// Install (or clear) a failure-injection plan for this port's
    /// outbound messages. Testing hook: drops/corruption happen after the
    /// send cost has been paid, like a wire fault.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.shared.faults.write() = plan;
    }

    /// Enqueue a message for transmission.
    ///
    /// Cheap: the real send cost is paid later by `pump_send`.
    ///
    /// # Panics
    /// Panics if `message.dst` is out of range or `message.src` does not
    /// match this port.
    pub fn send(&self, message: Message) {
        assert_eq!(message.src, self.shared.locality, "src must be this port");
        assert!(
            (message.dst as usize) < self.state.ports.len(),
            "destination {} out of range",
            message.dst
        );
        self.shared.stats.enqueued.fetch_add(1, Ordering::Relaxed);
        self.shared
            .outbound_tx
            .send(message)
            .expect("outbound channel lives as long as the fabric");
        self.shared.notify();
    }

    /// Put `message` in flight towards its destination after the modelled
    /// delivery delay plus `extra_delay`. Send-side statistics are the
    /// caller's business (reorder-released messages were already
    /// counted).
    fn forward(&self, message: Message, extra_delay: Duration) {
        let dst = Arc::clone(&self.state.ports[message.dst as usize]);
        // Store-and-forward: a message is deliverable only after its
        // last byte has crossed the wire, so delivery lags by the
        // transfer time (and any rendezvous handshake) in addition to
        // propagation latency. This is the physical cost of lumping
        // many parcels into one large message — the first parcel in
        // the batch cannot execute until the whole batch has arrived.
        let deliver_at =
            Instant::now() + self.state.model.delivery_delay(message.len()) + extra_delay;
        let seq = dst.seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut heap = dst.inflight.lock();
            heap.push(Reverse(InFlight {
                deliver_at,
                seq,
                message,
            }));
            // Refresh the lock-free deadline hint from the heap head
            // while still holding the lock, so the hint always equals
            // the true earliest deadline.
            let head = heap.peek().expect("just pushed").0.deliver_at;
            dst.next_due
                .store(self.state.epoch_ns(head), Ordering::Release);
        }
        dst.notify();
    }

    /// Pump outbound messages: pay the sender CPU cost and move messages
    /// into the destination's in-flight heap. Returns `true` if any
    /// message was processed.
    pub fn pump_send(&self) -> bool {
        let mut did_work = false;
        // Release reorder-parked messages that are due (enough later
        // traffic overtook them, or their hold deadline expired so a
        // quiet link cannot strand them). Their costs and statistics
        // were charged when they first passed through the loop below.
        let mut released = Vec::new();
        self.shared.reorder.lock().drain_ready(&mut released);
        for message in released {
            let _guard = ProcessingGuard::enter(&self.shared.processing);
            did_work = true;
            self.forward(message, Duration::ZERO);
        }
        for _ in 0..PUMP_BATCH {
            let Ok(message) = self.shared.outbound_rx.try_recv() else {
                break;
            };
            let _guard = ProcessingGuard::enter(&self.shared.processing);
            did_work = true;
            // The modelled per-message + per-byte cost, paid in real CPU
            // time on this (background-work) thread.
            busy_charge(self.state.model.send_cost(message.len()));
            self.shared
                .stats
                .sent_messages
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .stats
                .sent_bytes
                .fetch_add(wire_len(&message) as u64, Ordering::Relaxed);
            // Failure injection (tests): the cost is already paid, the
            // wire then loses, mangles, duplicates, delays or reorders
            // the message.
            let plan = self.shared.faults.read().clone();
            let (action, delay, window) = match &plan {
                Some(p) => (p.decide(), p.delay, p.reorder_window.unwrap_or(1)),
                None => (FaultAction::Deliver, Duration::ZERO, 1),
            };
            if action != FaultAction::Reorder {
                // Everything that reaches the wire overtakes whatever is
                // parked for reordering (dropped messages count too —
                // they consumed a wire slot).
                self.shared.reorder.lock().on_pass();
            }
            match action {
                FaultAction::Drop => {
                    if message.class == DeliveryClass::BestEffort {
                        self.shared
                            .stats
                            .best_effort_dropped
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
                FaultAction::Corrupt => {
                    // Route the corruption through the shared frame codec:
                    // the flipped byte fails the destination's checksum,
                    // exactly as it would on the TCP backend, so the frame
                    // is counted as a receive-side decode failure and
                    // dropped.
                    let mut frame = encode_frame(&message);
                    corrupt_frame(&mut frame);
                    match decode_frame(&frame) {
                        Ok((survivor, _)) => self.forward(survivor, Duration::ZERO),
                        Err(_) => {
                            self.state.ports[message.dst as usize]
                                .stats
                                .decode_failures
                                .fetch_add(1, Ordering::Relaxed);
                            continue;
                        }
                    }
                }
                FaultAction::Duplicate => {
                    self.forward(message.clone(), Duration::ZERO);
                    self.forward(message, Duration::ZERO);
                }
                FaultAction::Delay => self.forward(message, delay),
                FaultAction::Reorder => self.shared.reorder.lock().hold(message, window),
                FaultAction::Deliver => self.forward(message, Duration::ZERO),
            }
        }
        did_work
    }

    /// Pump inbound messages that have cleared their latency: pay the
    /// receiver CPU cost and hand each to the receive handler. Returns
    /// `true` if any message was delivered.
    pub fn pump_recv(&self) -> bool {
        let handler = self.shared.receiver.read().clone();
        let Some(handler) = handler else {
            return false;
        };
        let mut did_work = false;
        for _ in 0..PUMP_BATCH {
            // Lock-free fast path: if the earliest deadline (maintained
            // under the heap lock) has not arrived, skip the lock. The
            // hint is exact, not approximate — every heap mutation
            // refreshes it before releasing the lock — so a stale read
            // can only race with a concurrent pump that will (or already
            // did) deliver the message itself.
            let hint = self.shared.next_due.load(Ordering::Acquire);
            if hint == NO_DEADLINE || hint > self.state.epoch_ns(Instant::now()) {
                break;
            }
            let (message, _guard) = {
                let mut heap = self.shared.inflight.lock();
                match heap.peek() {
                    Some(Reverse(head)) if head.deliver_at <= Instant::now() => {
                        // Take the processing guard while still holding the
                        // heap lock so the message is never unaccounted for.
                        let guard = ProcessingGuard::enter(&self.shared.processing);
                        let message = heap.pop().expect("peeked").0.message;
                        let next = heap.peek().map_or(NO_DEADLINE, |Reverse(head)| {
                            self.state.epoch_ns(head.deliver_at)
                        });
                        self.shared.next_due.store(next, Ordering::Release);
                        (message, guard)
                    }
                    _ => break,
                }
            };
            did_work = true;
            busy_charge(self.state.model.recv_cost());
            self.shared
                .stats
                .received_messages
                .fetch_add(1, Ordering::Relaxed);
            self.shared
                .stats
                .received_bytes
                .fetch_add(wire_len(&message) as u64, Ordering::Relaxed);
            handler(message);
        }
        did_work
    }

    /// Convenience: one full pump pass (send then receive).
    pub fn pump(&self) -> bool {
        let s = self.pump_send();
        let r = self.pump_recv();
        s || r
    }

    /// Messages queued but not yet put on the wire (including any parked
    /// by reorder fault injection).
    pub fn outbound_backlog(&self) -> usize {
        self.shared.outbound_rx.len() + self.shared.reorder.lock().len()
    }

    /// Messages in flight towards this port (latency not yet elapsed or
    /// not yet pumped).
    pub fn inflight_backlog(&self) -> usize {
        self.shared.inflight.lock().len()
    }

    /// Messages currently mid-pump on this port (popped from a queue but
    /// not yet delivered to the next stage).
    pub fn processing(&self) -> usize {
        // Acquire pairs with the guard's Release decrement: a zero read
        // here happens-after the completed handoffs it reflects.
        self.shared.processing.load(Ordering::Acquire)
    }
}

impl TransportPort for SimPort {
    fn locality(&self) -> u32 {
        SimPort::locality(self)
    }
    fn stats(&self) -> &PortStats {
        SimPort::stats(self)
    }
    fn send(&self, message: Message) {
        SimPort::send(self, message)
    }
    fn pump_send(&self) -> bool {
        SimPort::pump_send(self)
    }
    fn pump_recv(&self) -> bool {
        SimPort::pump_recv(self)
    }
    fn set_receiver(&self, handler: ReceiveHandler) {
        SimPort::set_receiver(self, handler)
    }
    fn set_notify(&self, notify: NotifyFn) {
        SimPort::set_notify(self, notify)
    }
    fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        SimPort::set_fault_plan(self, plan)
    }
    fn outbound_backlog(&self) -> usize {
        SimPort::outbound_backlog(self)
    }
    fn inflight_backlog(&self) -> usize {
        SimPort::inflight_backlog(self)
    }
    fn processing(&self) -> usize {
        SimPort::processing(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::frame_len;
    use crate::message::MessageKind;
    use bytes::Bytes;

    fn msg(src: u32, dst: u32, payload: &'static [u8]) -> Message {
        Message::new(src, dst, MessageKind::Parcel, Bytes::from_static(payload))
    }

    fn pump_until<F: Fn() -> bool>(ports: &[SimPort], done: F, timeout: Duration) -> bool {
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

    #[test]
    fn message_travels_between_ports() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload.clone())));
        a.send(msg(0, 1, b"hello"));
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || !got.lock().is_empty(),
            Duration::from_secs(2)
        ));
        assert_eq!(got.lock()[0].as_ref(), b"hello");
        assert_eq!(a.stats().sent_messages.load(Ordering::Relaxed), 1);
        assert_eq!(b.stats().received_messages.load(Ordering::Relaxed), 1);
        // Byte counters measure bytes on the wire: frame header + payload.
        assert_eq!(
            b.stats().received_bytes.load(Ordering::Relaxed),
            frame_len(5) as u64
        );
        assert_eq!(
            a.stats().sent_bytes.load(Ordering::Relaxed),
            frame_len(5) as u64
        );
    }

    #[test]
    fn send_to_self_is_allowed() {
        let fabric = SimTransport::new(1, LinkModel::zero());
        let a = fabric.port(0);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        a.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.send(msg(0, 0, b"self"));
        assert!(pump_until(
            std::slice::from_ref(&a),
            || hits.load(Ordering::SeqCst) == 1,
            Duration::from_secs(2)
        ));
    }

    #[test]
    fn latency_delays_delivery() {
        let model = LinkModel {
            latency: Duration::from_millis(20),
            ..LinkModel::zero()
        };
        let fabric = SimTransport::new(2, model);
        let a = fabric.port(0);
        let b = fabric.port(1);
        let got = Arc::new(AtomicU64::new(0));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |_| {
            g.fetch_add(1, Ordering::SeqCst);
        }));
        let t0 = Instant::now();
        a.send(msg(0, 1, b"x"));
        a.pump_send();
        // Immediately pumping the receiver delivers nothing.
        assert!(!b.pump_recv());
        assert_eq!(b.inflight_backlog(), 1);
        assert!(pump_until(
            std::slice::from_ref(&b),
            || got.load(Ordering::SeqCst) == 1,
            Duration::from_secs(2)
        ));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn send_cost_is_charged_to_pumping_thread() {
        let model = LinkModel {
            send_overhead: Duration::from_micros(500),
            ..LinkModel::zero()
        };
        let fabric = SimTransport::new(2, model);
        let a = fabric.port(0);
        fabric.port(1).set_receiver(Arc::new(|_| {}));
        a.send(msg(0, 1, b"x"));
        let t0 = Instant::now();
        a.pump_send();
        assert!(t0.elapsed() >= Duration::from_micros(500));
    }

    #[test]
    fn fifo_order_preserved_per_link() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload[0])));
        for i in 0..50u8 {
            a.send(Message::new(
                0,
                1,
                MessageKind::Parcel,
                Bytes::copy_from_slice(&[i]),
            ));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || got.lock().len() == 50,
            Duration::from_secs(2)
        ));
        let got = got.lock();
        assert_eq!(*got, (0..50).collect::<Vec<u8>>());
    }

    #[test]
    fn notify_hook_fires_on_send_and_delivery() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        let notified = Arc::new(AtomicU64::new(0));
        let n = Arc::clone(&notified);
        a.set_notify(Arc::new(move || {
            n.fetch_add(1, Ordering::SeqCst);
        }));
        let n = Arc::clone(&notified);
        b.set_notify(Arc::new(move || {
            n.fetch_add(1, Ordering::SeqCst);
        }));
        b.set_receiver(Arc::new(|_| {}));
        a.send(msg(0, 1, b"x")); // notifies a (outbound)
        a.pump_send(); // notifies b (inflight)
        assert!(notified.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn backlog_counters() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        b.set_receiver(Arc::new(|_| {}));
        a.send(msg(0, 1, b"1"));
        a.send(msg(0, 1, b"2"));
        assert_eq!(a.outbound_backlog(), 2);
        a.pump_send();
        assert_eq!(a.outbound_backlog(), 0);
        assert_eq!(b.inflight_backlog(), 2);
        b.pump_recv();
        assert_eq!(b.inflight_backlog(), 0);
    }

    #[test]
    fn without_receiver_messages_wait() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        a.send(msg(0, 1, b"x"));
        a.pump_send();
        assert!(!b.pump_recv()); // no handler yet: nothing delivered
        assert_eq!(b.inflight_backlog(), 1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        assert!(b.pump_recv());
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn corrupted_messages_fail_decode_and_are_dropped() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::corrupt_every(2))));
        for _ in 0..10 {
            a.send(msg(0, 1, b"payload"));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || hits.load(Ordering::SeqCst) == 5,
            Duration::from_secs(2)
        ));
        // Every corrupted frame failed the receive-side checksum.
        assert_eq!(b.stats().decode_failures.load(Ordering::SeqCst), 5);
        assert_eq!(b.stats().received_messages.load(Ordering::SeqCst), 5);
        // Send-side costs were still paid for all ten.
        assert_eq!(a.stats().sent_messages.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_pumping_delivers_everything_once() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        b.set_receiver(Arc::new(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        }));
        let n = 2000u64;
        for _ in 0..n {
            a.send(msg(0, 1, b"x"));
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let a = a.clone();
                let b = b.clone();
                let count = Arc::clone(&count);
                s.spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while count.load(Ordering::SeqCst) < n && Instant::now() < deadline {
                        a.pump_send();
                        b.pump_recv();
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::SeqCst), n);
        assert_eq!(b.stats().received_messages.load(Ordering::SeqCst), n);
    }

    #[test]
    fn duplicated_messages_arrive_twice() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::duplicate_every(2))));
        for _ in 0..10 {
            a.send(msg(0, 1, b"dup"));
        }
        // 10 sends, every 2nd duplicated: 15 deliveries.
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || hits.load(Ordering::SeqCst) == 15,
            Duration::from_secs(2)
        ));
        assert_eq!(a.stats().sent_messages.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn delayed_messages_arrive_late_but_arrive() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::delay_every(
            1,
            Duration::from_millis(20),
        ))));
        let t0 = Instant::now();
        a.send(msg(0, 1, b"late"));
        a.pump_send();
        assert!(!b.pump_recv());
        assert!(pump_until(
            std::slice::from_ref(&b),
            || hits.load(Ordering::SeqCst) == 1,
            Duration::from_secs(2)
        ));
        assert!(t0.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn reordered_messages_all_arrive_out_of_order() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        b.set_receiver(Arc::new(move |m: Message| g.lock().push(m.payload[0])));
        a.set_fault_plan(Some(Arc::new(FaultPlan::reorder_window(4))));
        for i in 0..16u8 {
            a.send(Message::new(
                0,
                1,
                MessageKind::Parcel,
                Bytes::copy_from_slice(&[i]),
            ));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || got.lock().len() == 16,
            Duration::from_secs(2)
        ));
        assert_eq!(a.outbound_backlog(), 0, "stage fully drained");
        let mut seen = got.lock().clone();
        let in_order = seen.windows(2).all(|w| w[0] < w[1]);
        assert!(!in_order, "every 4th message should have been displaced");
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<u8>>(), "nothing lost");
    }

    #[test]
    fn best_effort_wire_drops_are_accounted() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let a = fabric.port(0);
        let b = fabric.port(1);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        b.set_receiver(Arc::new(move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        }));
        a.set_fault_plan(Some(Arc::new(FaultPlan::drop_every(2))));
        for _ in 0..10 {
            a.send(msg(0, 1, b"be").with_class(DeliveryClass::BestEffort));
        }
        assert!(pump_until(
            &[a.clone(), b.clone()],
            || hits.load(Ordering::SeqCst) == 5,
            Duration::from_secs(2)
        ));
        // received + best_effort_dropped == sent.
        assert_eq!(a.stats().best_effort_dropped.load(Ordering::SeqCst), 5);
        assert_eq!(a.stats().sent_messages.load(Ordering::SeqCst), 10);

        // Lossless drops are NOT counted against the BestEffort gauge.
        for _ in 0..4 {
            a.send(msg(0, 1, b"ll"));
        }
        while a.pump_send() {}
        assert_eq!(a.stats().best_effort_dropped.load(Ordering::SeqCst), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_destination_panics() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        fabric.port(0).send(msg(0, 7, b"x"));
    }

    #[test]
    #[should_panic(expected = "src must be this port")]
    fn wrong_src_panics() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        fabric.port(0).send(msg(1, 0, b"x"));
    }
}
