//! The simulated transport: per-locality ports, cost charging and
//! delayed delivery — the modelled wire under the shared port front end
//! (`port.rs`).
//!
//! Each locality owns a port. Sending enqueues onto the sender's
//! outbound queue; scheduler background work drives `pump_send` (charge
//! sender CPU cost, stamp a delivery deadline `now + latency`, move the
//! message to the destination's in-flight heap) and `pump_recv` (pop due
//! messages, charge receiver CPU cost, invoke the receive handler). Both
//! pumps are safe to call concurrently from many workers; costs are paid
//! by whichever worker handles the message, exactly as HPX parcelport
//! progress work lands on arbitrary scheduler threads.
//!
//! Messages travel as in-memory structs (no copy on the hot path), but
//! byte counters charge **frame** lengths ([`crate::wire_len`]) and a
//! corrupting fault routes through the shared frame codec, so statistics
//! and corruption behaviour match the TCP backend byte for byte.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use rpx_util::busy_charge;

use crate::frame::{corrupt_frame, decode_frame, encode_frame};
use crate::message::Message;
use crate::model::LinkModel;
use crate::port::{PortFront, Wire};
use crate::transport::{Transport, TransportPort};

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
    front: PortFront,
    inflight: Mutex<BinaryHeap<Reverse<InFlight>>>,
    /// Earliest `deliver_at` in `inflight`, as nanoseconds since the
    /// fabric epoch ([`NO_DEADLINE`] when empty). Written only while the
    /// heap lock is held (Release) and read without it (Acquire), so
    /// `pump_recv` can skip the lock entirely when nothing is due — the
    /// common case for background polls on an idle or high-latency port.
    next_due: AtomicU64,
    seq: AtomicU64,
}

/// Shared fabric state: the cost model, the timestamp epoch and every
/// port. [`SimTransport`] and each port handle hold an `Arc` to it, so
/// ports stay valid however the transport handle is passed around.
struct FabricState {
    model: LinkModel,
    /// Reference instant for `next_due` timestamps; all deadlines are
    /// encoded as nanoseconds since this epoch.
    epoch: Instant,
    ports: Vec<PortShared>,
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
            .map(|locality| PortShared {
                front: PortFront::new(locality, localities),
                inflight: Mutex::new(BinaryHeap::new()),
                next_due: AtomicU64::new(NO_DEADLINE),
                seq: AtomicU64::new(0),
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
}

impl Transport for SimTransport {
    fn localities(&self) -> u32 {
        self.state.ports.len() as u32
    }

    fn port(&self, locality: u32) -> Arc<dyn TransportPort> {
        assert!(
            (locality as usize) < self.state.ports.len(),
            "locality {locality} out of range"
        );
        Arc::new(SimPort {
            state: Arc::clone(&self.state),
            locality: locality as usize,
        })
    }
}

/// A locality's endpoint on the simulated fabric.
struct SimPort {
    state: Arc<FabricState>,
    locality: usize,
}

impl SimPort {
    fn shared(&self) -> &PortShared {
        &self.state.ports[self.locality]
    }

    /// Put `message` in flight towards its destination after the modelled
    /// delivery delay. A corrupted message round-trips the frame codec
    /// with a flipped bit: it fails the destination's checksum exactly
    /// as it would on the TCP backend, so it is counted there as a
    /// decode failure and never delivered.
    fn put(&self, mut message: Message, corrupt: bool) {
        let dst = &self.state.ports[message.dst as usize];
        if corrupt {
            let mut frame = encode_frame(&message);
            corrupt_frame(&mut frame);
            match decode_frame(&frame) {
                Ok((survivor, _)) => message = survivor,
                Err(_) => {
                    dst.front
                        .stats
                        .decode_failures
                        .fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        // Store-and-forward: a message is deliverable only after its
        // last byte has crossed the wire, so delivery lags by the
        // transfer time (and any rendezvous handshake) in addition to
        // propagation latency. This is the physical cost of lumping
        // many parcels into one large message — the first parcel in
        // the batch cannot execute until the whole batch has arrived.
        let deliver_at = Instant::now() + self.state.model.delivery_delay(message.len());
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
        dst.front.notify();
    }
}

impl Wire for SimPort {
    fn front(&self) -> &PortFront {
        &self.shared().front
    }

    /// Pay the modelled per-message + per-byte sender cost in real CPU
    /// time on this (background-work) thread and move messages into the
    /// destination's in-flight heap.
    fn drive_send(&self) -> bool {
        self.front().pump_outbound(
            |message| {
                busy_charge(self.state.model.send_cost(message.len()));
            },
            |message, corrupt| self.put(message, corrupt),
        )
    }

    /// Deliver messages that have cleared their latency, paying the
    /// receiver CPU cost for each.
    fn drive_recv(&self) -> bool {
        let shared = self.shared();
        shared.front.pump_inbound(|| {
            // Lock-free fast path: if the earliest deadline (maintained
            // under the heap lock) has not arrived, skip the lock. The
            // hint is exact, not approximate — every heap mutation
            // refreshes it before releasing the lock — so a stale read
            // can only race with a concurrent pump that will (or already
            // did) deliver the message itself.
            let hint = shared.next_due.load(Ordering::Acquire);
            if hint == NO_DEADLINE || hint > self.state.epoch_ns(Instant::now()) {
                return None;
            }
            let mut heap = shared.inflight.lock();
            if heap.peek()?.0.deliver_at > Instant::now() {
                return None;
            }
            // Take the processing guard while still holding the heap
            // lock so the message is never unaccounted for.
            let guard = shared.front.enter();
            let message = heap.pop().expect("peeked").0.message;
            let next = heap.peek().map_or(NO_DEADLINE, |Reverse(head)| {
                self.state.epoch_ns(head.deliver_at)
            });
            shared.next_due.store(next, Ordering::Release);
            drop(heap);
            busy_charge(self.state.model.recv_cost());
            Some((message, guard))
        })
    }

    fn inflight(&self) -> usize {
        self.shared().inflight.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::frame::frame_len;
    use crate::message::{DeliveryClass, MessageKind};
    use bytes::Bytes;
    use std::time::Duration;

    type Port = Arc<dyn TransportPort>;

    fn msg(src: u32, dst: u32, payload: &'static [u8]) -> Message {
        Message::new(src, dst, MessageKind::Parcel, Bytes::from_static(payload))
    }

    fn pump_until<F: Fn() -> bool>(ports: &[Port], done: F, timeout: Duration) -> bool {
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
        // Parked at the sender, not in flight: only time releases it.
        assert_eq!(a.outbound_backlog(), 1);
        assert_eq!(b.inflight_backlog(), 0);
        assert!(!b.pump_recv());
        assert!(pump_until(
            &[a.clone(), b.clone()],
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
