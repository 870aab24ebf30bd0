//! The port front end: the half of a [`TransportPort`] that does not
//! depend on what the wire is made of.
//!
//! A [`PortFront`] owns the outbound queue, the receive-handler and
//! wake-hook slots, [`PortStats`], the mid-pump gauge and the fault
//! machinery. A raw backend embeds one and implements [`Wire`] — put one
//! message on its medium, surface the messages that arrived — and gets
//! its [`TransportPort`] from the blanket impl below, so send-side
//! accounting, quiescence gauges and fault injection are one piece of
//! code on the simulated fabric, loopback TCP and shared-memory rings.
//!
//! Fault injection is settled here on [`Message`]s, before the backend
//! sees them: dropped messages never reach it, duplicates reach it
//! twice, delayed and reordered ones wait in a [`FaultStage`] *at the
//! sender* (visible in its `outbound_backlog`) until released. Only
//! corruption needs the medium — the backend mangles the encoded frame
//! so that the *destination's* checksum fails. A port with no plan
//! installed and nothing parked touches no fault lock.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rpx_util::sync::ArcCell;

use crate::fault::{FaultAction, FaultPlan, FaultStage};
use crate::frame::wire_len;
use crate::message::{DeliveryClass, Message, MessageKind};
use crate::transport::{NotifyFn, ReceiveHandler, TransportPort};

/// Per-port traffic statistics (relaxed atomics, safe for hot paths).
///
/// Byte counters measure bytes **on the wire** — frame lengths, header
/// included — so every backend reports comparable `/network/*` values.
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
    /// event-loop transport's pump thread ([`crate::TcpTransport`]).
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
    /// BestEffort-class **parcels** intentionally discarded at this port
    /// — on the send side by a fault plan's wire drop (a coalesced
    /// message books every parcel it carried) or the parcel layer
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

/// How many messages one pump call processes before yielding, bounding
/// the latency a single background poll can add to its worker.
const PUMP_BATCH: usize = 8;

/// Decrements the processing gauge on drop (panic-safe).
pub(crate) struct ProcessingGuard<'a>(&'a AtomicUsize);

impl Drop for ProcessingGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// The installed plan and the messages it parked.
#[derive(Default)]
struct Faults {
    plan: Option<Arc<FaultPlan>>,
    stage: FaultStage<Message>,
}

/// Backend-independent state and behaviour of one raw port.
pub(crate) struct PortFront {
    pub(crate) locality: u32,
    localities: u32,
    outbound_tx: Sender<Message>,
    outbound_rx: Receiver<Message>,
    receiver: ArcCell<dyn Fn(Message) + Send + Sync>,
    notify: ArcCell<dyn Fn() + Send + Sync>,
    pub(crate) stats: PortStats,
    /// Messages popped from a queue but not yet handed to the next stage
    /// (mid-pump), so quiescence checks do not declare the transport
    /// idle while a pump thread holds a message.
    ///
    /// Ordering invariant: the gauge is incremented (Acquire) before the
    /// pump releases the queue it popped from and decremented (Release)
    /// only after the message has been handed to the next stage, so a
    /// quiescence check that observes empty queues and a zero gauge
    /// cannot have missed an in-transit message. Acquire/Release suffices
    /// because the gauge never synchronises data of its own — it only
    /// orders against the queue operations around it.
    processing: AtomicUsize,
    faults: Mutex<Faults>,
    /// Mirrors of `faults.plan.is_some()` and `faults.stage.len()`,
    /// written under the `faults` lock (Release) and read without it
    /// (Acquire): all the fault-free path ever looks at.
    planned: AtomicBool,
    parked: AtomicUsize,
}

impl PortFront {
    pub(crate) fn new(locality: u32, localities: u32) -> PortFront {
        let (outbound_tx, outbound_rx) = unbounded();
        PortFront {
            locality,
            localities,
            outbound_tx,
            outbound_rx,
            receiver: ArcCell::new(),
            notify: ArcCell::new(),
            stats: PortStats::default(),
            processing: AtomicUsize::new(0),
            faults: Mutex::new(Faults::default()),
            planned: AtomicBool::new(false),
            parked: AtomicUsize::new(0),
        }
    }

    /// Call the wake hook, if one is installed.
    pub(crate) fn notify(&self) {
        if let Some(n) = self.notify.get() {
            n();
        }
    }

    /// Account one message as mid-pump until the guard drops.
    pub(crate) fn enter(&self) -> ProcessingGuard<'_> {
        self.processing.fetch_add(1, Ordering::Acquire);
        ProcessingGuard(&self.processing)
    }

    fn send(&self, message: Message) {
        assert_eq!(message.src, self.locality, "src must be this port");
        assert!(
            message.dst < self.localities,
            "destination {} out of range",
            message.dst
        );
        self.stats.enqueued.fetch_add(1, Ordering::Relaxed);
        self.outbound_tx
            .send(message)
            .expect("outbound channel lives as long as the port");
        self.notify();
    }

    fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        let mut faults = self.faults.lock();
        self.planned.store(plan.is_some(), Ordering::Release);
        faults.plan = plan;
    }

    /// One send pass: release parked messages that are due, then take up
    /// to [`PUMP_BATCH`] messages off the outbound queue, `charge` each
    /// its send cost, count it as sent and — unless the fault plan
    /// loses or parks it — hand it to `put(message, corrupt)`. Returns
    /// `true` if any message was processed.
    pub(crate) fn pump_outbound(
        &self,
        charge: impl Fn(&Message),
        mut put: impl FnMut(Message, bool),
    ) -> bool {
        let mut did_work = false;
        if self.parked.load(Ordering::Acquire) > 0 {
            // Enough later traffic overtook them, or their hold deadline
            // expired (a quiet link cannot strand them). Costs and
            // statistics were charged when they first passed below.
            let _guard = self.enter();
            let mut released = Vec::new();
            {
                let mut faults = self.faults.lock();
                faults.stage.drain_ready(&mut released);
                self.parked.store(faults.stage.len(), Ordering::Release);
            }
            for message in released {
                did_work = true;
                put(message, false);
            }
        }
        for _ in 0..PUMP_BATCH {
            // Enter before popping, so quiescence never sees a message
            // that has left the queue but not yet entered the gauge.
            let _guard = self.enter();
            let Ok(message) = self.outbound_rx.try_recv() else {
                break;
            };
            did_work = true;
            charge(&message);
            self.stats.sent_messages.fetch_add(1, Ordering::Relaxed);
            self.stats
                .sent_bytes
                .fetch_add(wire_len(&message) as u64, Ordering::Relaxed);
            if self.planned.load(Ordering::Acquire) || self.parked.load(Ordering::Acquire) > 0 {
                self.inject(message, &mut put);
            } else {
                put(message, false);
            }
        }
        did_work
    }

    /// The fault site: the send cost is already paid, the wire then
    /// loses, mangles, duplicates, delays or reorders the message. Only
    /// reached with a plan installed or messages parked (tests and the
    /// chaos suite), so holding the lock across `put` costs nothing.
    fn inject(&self, message: Message, put: &mut impl FnMut(Message, bool)) {
        let mut faults = self.faults.lock();
        let (action, delay, window) = match &faults.plan {
            Some(p) => (p.decide(), p.delay, p.reorder_window.unwrap_or(1)),
            None => (FaultAction::Deliver, Duration::ZERO, 1),
        };
        if action != FaultAction::Reorder {
            // Everything that reaches the wire overtakes whatever is
            // parked (dropped messages count too — they consumed a wire
            // slot).
            faults.stage.on_pass();
        }
        match action {
            FaultAction::Drop => {
                if message.class == DeliveryClass::BestEffort {
                    self.stats
                        .best_effort_dropped
                        .fetch_add(parcels_in(&message), Ordering::Relaxed);
                }
            }
            FaultAction::Corrupt => put(message, true),
            FaultAction::Duplicate => {
                put(message.clone(), false);
                put(message, false);
            }
            // Overtaking never releases a delayed message, only time.
            FaultAction::Delay => faults.stage.hold_for(message, u64::MAX, delay),
            FaultAction::Reorder => faults.stage.hold(message, window),
            FaultAction::Deliver => put(message, false),
        }
        self.parked.store(faults.stage.len(), Ordering::Release);
    }

    /// One receive pass: hand up to [`PUMP_BATCH`] messages surfaced by
    /// `next` to the receive handler on the calling thread, counting
    /// each as received. `next` enters the processing gauge before it
    /// lets go of the queue it popped from. Returns `true` if any
    /// message was delivered; without a handler messages wait.
    pub(crate) fn pump_inbound<'a>(
        &'a self,
        mut next: impl FnMut() -> Option<(Message, ProcessingGuard<'a>)>,
    ) -> bool {
        let Some(handler) = self.receiver.get() else {
            return false;
        };
        let mut did_work = false;
        for _ in 0..PUMP_BATCH {
            let Some((message, _guard)) = next() else {
                break;
            };
            did_work = true;
            self.stats.received_messages.fetch_add(1, Ordering::Relaxed);
            self.stats
                .received_bytes
                .fetch_add(wire_len(&message) as u64, Ordering::Relaxed);
            handler(message);
        }
        did_work
    }
}

/// Parcels a message carries: the LEB128 count `Parcel::encode_batch`
/// puts first in a coalesced payload, one otherwise.
fn parcels_in(message: &Message) -> u64 {
    if message.kind != MessageKind::Coalesced {
        return 1;
    }
    let mut count = 0u64;
    for (i, byte) in message.payload.iter().take(10).enumerate() {
        count |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            break;
        }
    }
    count.max(1)
}

/// What differs between raw backends: the medium. Implementors get
/// [`TransportPort`] from the blanket impl below.
pub(crate) trait Wire: Send + Sync {
    /// The front end embedded in this port.
    fn front(&self) -> &PortFront;

    /// One send pass: [`PortFront::pump_outbound`] with this medium's
    /// cost and `put`, plus whatever flushing the medium needs.
    fn drive_send(&self) -> bool;

    /// One receive pass: [`PortFront::pump_inbound`] over the messages
    /// that reached this port.
    fn drive_recv(&self) -> bool;

    /// Messages past the outbound queue that the medium has not yet
    /// taken off this port's hands (write buffers, full rings).
    fn staged(&self) -> usize {
        0
    }

    /// Messages on the medium towards this port, not yet delivered.
    fn inflight(&self) -> usize;
}

impl<W: Wire> TransportPort for W {
    fn locality(&self) -> u32 {
        self.front().locality
    }
    fn stats(&self) -> &PortStats {
        &self.front().stats
    }
    fn send(&self, message: Message) {
        self.front().send(message)
    }
    fn pump_send(&self) -> bool {
        self.drive_send()
    }
    fn pump_recv(&self) -> bool {
        self.drive_recv()
    }
    fn set_receiver(&self, handler: ReceiveHandler) {
        self.front().receiver.set(handler)
    }
    fn set_notify(&self, notify: NotifyFn) {
        self.front().notify.set(notify)
    }
    fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        self.front().set_fault_plan(plan)
    }
    fn outbound_backlog(&self) -> usize {
        let front = self.front();
        front.outbound_rx.len() + front.parked.load(Ordering::Acquire) + self.staged()
    }
    fn inflight_backlog(&self) -> usize {
        self.inflight()
    }
    fn processing(&self) -> usize {
        // Acquire pairs with the guard's Release decrement: a zero read
        // here happens-after the completed handoffs it reflects.
        self.front().processing.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn coalesced_messages_report_their_parcel_count() {
        let msg = |kind, payload: &[u8]| Message::new(0, 1, kind, Bytes::copy_from_slice(payload));
        assert_eq!(parcels_in(&msg(MessageKind::Parcel, &[9, 9])), 1);
        assert_eq!(parcels_in(&msg(MessageKind::Coalesced, &[4, 0xff])), 4);
        // 300 = 0b1_0010_1100 → [0xAC, 0x02].
        assert_eq!(parcels_in(&msg(MessageKind::Coalesced, &[0xAC, 0x02])), 300);
        assert_eq!(parcels_in(&msg(MessageKind::Coalesced, &[])), 1);
    }
}
