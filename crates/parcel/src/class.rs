//! Per-class delivery policy: the one place `rpx-parcel` branches on
//! [`DeliveryClass`].
//!
//! The class is read from the `ActionRegistry` — the only class table —
//! and meets one admission point per direction: [`admit`] on the send
//! path (at submit time and again when the pump frames a batch) and
//! [`admit_recv`] on the receive path. Every BestEffort parcel either of
//! them refuses is booked by the [`shed`] ledger, the only writer of the
//! three shed counters.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rpx_net::DeliveryClass;

use crate::parcel::Parcel;
use crate::port::Inner;

/// Longest one Lossless/Coalesce submission blocks at the watermark before
/// being admitted anyway. Bounded so a submitter that is itself a pump
/// thread can never deadlock against its own drain. A constant, not an
/// option: nothing outside unit tests ever set another value.
pub(crate) const BACKPRESSURE_BLOCK: Duration = Duration::from_micros(500);

/// Where on the send path an admission decision is taken.
#[derive(Clone, Copy)]
pub(crate) enum SendStage {
    /// `send_parcel`, before the parcel reaches its interceptor or the
    /// egress queue.
    Submit,
    /// The egress pump, before a drained batch is framed.
    Pump,
}

/// Why a BestEffort parcel was shed — decides which counter it feeds.
#[derive(Clone, Copy, PartialEq)]
enum ShedCause {
    /// Submit time: the whole egress queue is at `best_effort_backlog`.
    EgressBound,
    /// Submit time: the destination's backlog is at the watermark.
    Watermark,
    /// Pump time: the transport's outbound backlog is at
    /// `best_effort_backlog`.
    TransportBacklog,
    /// Receive side: the id fell behind the dedup window.
    Stale,
}

/// The shed ledger: account `n` BestEffort parcels bound for `dst` as
/// shed. Watermark sheds feed `backpressure_shed`, every other cause the
/// transport's `best_effort_dropped`; the three send-side causes also feed
/// the per-destination map behind `ParcelPortStats::sheds_to` (a stale
/// arrival is the receiver's loss, not a shed *to* anyone).
fn shed(inner: &Inner, dst: u32, n: usize, cause: ShedCause) {
    let n = n as u64;
    let counter = match cause {
        ShedCause::Watermark => &inner.stats.backpressure_shed,
        _ => &inner.net.stats().best_effort_dropped,
    };
    counter.fetch_add(n, Ordering::Relaxed);
    if cause != ShedCause::Stale {
        *inner.stats.shed_by_dest.lock().entry(dst).or_insert(0) += n;
    }
}

/// Send-side admission of `n` parcels of one `class` bound for `dst`:
/// `false` means they were shed (and accounted) and must not proceed.
///
/// BestEffort is refused at submit time once the egress queue holds
/// `best_effort_backlog` entries or `dst`'s backlog sits at the watermark,
/// and at pump time once the transport's outbound backlog reaches
/// `best_effort_backlog` — bounded memory under overload, by contract.
/// Lossless and Coalesce are always admitted; at the watermark their
/// submitter first blocks. Every submission that finds the watermark
/// reached counts one `backpressure_events`, shed or blocked.
pub(crate) fn admit(
    inner: &Inner,
    stage: SendStage,
    dst: u32,
    class: DeliveryClass,
    n: usize,
) -> bool {
    let bound = inner.config.best_effort_backlog;
    let best_effort = class == DeliveryClass::BestEffort;
    let cause = match stage {
        SendStage::Pump => (best_effort && inner.net.outbound_backlog() >= bound)
            .then_some(ShedCause::TransportBacklog),
        SendStage::Submit if best_effort && inner.egress.len() >= bound => {
            Some(ShedCause::EgressBound)
        }
        SendStage::Submit if !over_watermark(inner, dst) => None,
        SendStage::Submit => {
            inner
                .stats
                .backpressure_events
                .fetch_add(1, Ordering::Relaxed);
            if best_effort {
                Some(ShedCause::Watermark)
            } else {
                block_at_watermark(inner, dst);
                None
            }
        }
    };
    if let Some(cause) = cause {
        shed(inner, dst, n, cause);
    }
    cause.is_none()
}

/// Whether `dst`'s egress backlog sits at or above the watermark.
fn over_watermark(inner: &Inner, dst: u32) -> bool {
    inner
        .config
        .backpressure_watermark
        .is_some_and(|w| inner.egress.dest_backlog(dst) >= w)
}

/// Block the submitter — in short sleeps, re-checking the backlog — until
/// `dst` drains below the watermark or [`BACKPRESSURE_BLOCK`] elapses;
/// the stall is charged to `backpressure_blocked_ns`.
fn block_at_watermark(inner: &Inner, dst: u32) {
    let started = Instant::now();
    while started.elapsed() < BACKPRESSURE_BLOCK && over_watermark(inner, dst) {
        std::thread::sleep(Duration::from_micros(50));
    }
    inner
        .stats
        .backpressure_blocked_ns
        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Receive-side filter state of one port.
#[derive(Default)]
pub(crate) struct RecvFilters {
    /// BestEffort dedup: one sliding window per source locality over its
    /// parcel ids.
    dedup: Mutex<HashMap<u32, DedupWindow>>,
    /// Coalesce monotone-latest filter: highest parcel id delivered per
    /// (source locality, action).
    latest: Mutex<HashMap<(u32, u32), u64>>,
}

/// Receive-side admission: `true` if `parcel` should execute.
///
/// * BestEffort travels unsequenced, so a wire-duplicated frame reaches
///   this layer twice: duplicates are suppressed (`duplicates_suppressed`)
///   and ids behind the window shed as [`ShedCause::Stale`].
/// * Coalesce delivers only monotone-latest values per (source, action):
///   a stale value arriving after a newer one (wire reordering, retransmit
///   races) is discarded, preserving newest-wins end to end. Parcels
///   carrying a continuation bypass the filter — a promise must always be
///   resolved.
/// * Lossless is always admitted.
pub(crate) fn admit_recv(inner: &Inner, parcel: &Parcel) -> bool {
    match inner.actions.class(parcel.action) {
        DeliveryClass::Lossless => true,
        DeliveryClass::BestEffort => {
            let verdict = inner
                .recv
                .dedup
                .lock()
                .entry(parcel.src_locality)
                .or_default()
                .admit(parcel.id);
            match verdict {
                Admit::Fresh => {}
                Admit::Duplicate => {
                    let stats = inner.net.stats();
                    stats.duplicates_suppressed.fetch_add(1, Ordering::Relaxed);
                }
                Admit::Stale => shed(inner, parcel.dest_locality, 1, ShedCause::Stale),
            }
            verdict == Admit::Fresh
        }
        DeliveryClass::Coalesce => {
            if parcel.continuation.is_valid() {
                return true;
            }
            let mut latest = inner.recv.latest.lock();
            let last = latest
                .entry((parcel.src_locality, parcel.action.0))
                .or_insert(0);
            let newer = parcel.id > *last;
            if newer {
                *last = parcel.id;
            } else {
                let stale = &inner.stats.coalesce_stale_dropped;
                stale.fetch_add(1, Ordering::Relaxed);
            }
            newer
        }
    }
}

/// Words in the dedup bitmap; the window spans `DEDUP_WORDS * 64` ids.
const DEDUP_WORDS: usize = 16;
const DEDUP_WINDOW: u64 = DEDUP_WORDS as u64 * 64;

/// Sliding at-most-once window over the monotone parcel ids of one
/// source locality, deduplicating BestEffort traffic.
///
/// Bit `i` of the bitmap records delivery of `max_id - i` (an empty
/// window is simply `max_id` 0 with no bit set); ids behind
/// the whole window are discarded as stale — erring on the
/// at-most-once side, which is the BestEffort contract. The window is
/// wide enough (1024 ids) that a frame has to be displaced far past
/// anything wire reordering or pump-thread scheduling produces before
/// at-most-once has to discard it as stale.
#[derive(Debug, Default)]
struct DedupWindow {
    max_id: u64,
    /// Seen-bits for offsets behind `max_id`: offset `k` lives at bit
    /// `k % 64` of word `k / 64` (word 0 bit 0 is `max_id` itself).
    bitmap: [u64; DEDUP_WORDS],
}

/// The dedup window's verdict for one arriving BestEffort parcel id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Admit {
    /// Not seen before: deliver.
    Fresh,
    /// Inside the window with its seen-bit already set: a wire duplicate,
    /// suppressed and charged to `duplicates_suppressed`.
    Duplicate,
    /// Behind the window entirely — the wire reordered this frame so far
    /// past its peers that at-most-once can no longer prove it unseen.
    /// Discarded and charged to `best_effort_dropped` (the receive-side
    /// half of the `delivered + dropped == sent` accounting), never to
    /// the duplicate gauge.
    Stale,
}

impl DedupWindow {
    /// Record `id` and classify it (see [`Admit`]).
    fn admit(&mut self, id: u64) -> Admit {
        if id > self.max_id {
            self.shift(id - self.max_id);
            self.bitmap[0] |= 1;
            self.max_id = id;
            Admit::Fresh
        } else {
            let back = self.max_id - id;
            if back >= DEDUP_WINDOW {
                return Admit::Stale;
            }
            let (word, bit) = ((back / 64) as usize, 1u64 << (back % 64));
            if self.bitmap[word] & bit != 0 {
                Admit::Duplicate
            } else {
                self.bitmap[word] |= bit;
                Admit::Fresh
            }
        }
    }

    /// Slide the window forward by `ahead` ids: every seen-bit moves to a
    /// higher back-offset, bits pushed past the window fall off.
    fn shift(&mut self, ahead: u64) {
        if ahead >= DEDUP_WINDOW {
            self.bitmap = [0; DEDUP_WORDS];
            return;
        }
        let (words, bits) = ((ahead / 64) as usize, (ahead % 64) as u32);
        for w in (0..DEDUP_WORDS).rev() {
            let lo = if w >= words {
                self.bitmap[w - words]
            } else {
                0
            };
            let hi = if bits > 0 && w > words {
                self.bitmap[w - words - 1] >> (64 - bits)
            } else {
                0
            };
            self.bitmap[w] = (lo << bits) | hi;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::Arc;

    use bytes::Bytes;
    use proptest::prelude::*;
    use rpx_agas::Gid;
    use rpx_net::{LinkModel, Message, SimTransport, Transport};

    use crate::action::{ActionId, ActionRegistry};
    use crate::batch::ParcelBatch;
    use crate::port::{ParcelInterceptor, ParcelPort, ParcelPortConfig, SendPath};

    #[test]
    fn dedup_window_admits_each_id_once() {
        let mut w = DedupWindow::default();
        assert_eq!(w.admit(5), Admit::Fresh);
        assert_eq!(w.admit(5), Admit::Duplicate, "exact duplicate");
        assert_eq!(w.admit(7), Admit::Fresh);
        assert_eq!(w.admit(6), Admit::Fresh, "in-window gap fill");
        assert_eq!(w.admit(6), Admit::Duplicate, "gap-fill duplicate");
        assert_eq!(w.admit(7), Admit::Duplicate);
        // A jump past the whole window clears it.
        assert_eq!(w.admit(7 + DEDUP_WINDOW), Admit::Fresh);
        assert_eq!(w.admit(7 + DEDUP_WINDOW), Admit::Duplicate);
        let max = 7 + DEDUP_WINDOW;
        // Behind the window: a reorder casualty, not a duplicate.
        assert_eq!(w.admit(max - DEDUP_WINDOW), Admit::Stale);
        // Still inside the window, even at its far edge.
        assert_eq!(w.admit(max - (DEDUP_WINDOW - 1)), Admit::Fresh);
        assert_eq!(w.admit(max - (DEDUP_WINDOW - 1)), Admit::Duplicate);
    }

    #[test]
    fn dedup_window_shift_carries_bits_across_words() {
        // Seen-bits must survive slides that cross word boundaries: mark
        // every id in a stretch, slide by an unaligned amount, and verify
        // each old id still reads as a duplicate at its new offset.
        let mut w = DedupWindow::default();
        for id in 100..164 {
            assert_eq!(w.admit(id), Admit::Fresh);
        }
        // Unaligned slide: 70 = one word + 6 bits.
        assert_eq!(w.admit(163 + 70), Admit::Fresh);
        for id in 100..164 {
            assert_eq!(w.admit(id), Admit::Duplicate, "id {id} lost in shift");
        }
        // An id never seen in that stretch's neighbourhood is still fresh.
        assert_eq!(w.admit(99), Admit::Fresh);
    }

    /// The dedup contract without the bitmap: every admitted id kept in a
    /// set, the window judged by distance from the maximum alone.
    #[derive(Default)]
    struct DedupModel {
        max: Option<u64>,
        admitted: BTreeSet<u64>,
    }

    impl DedupModel {
        fn admit(&mut self, id: u64) -> Admit {
            let verdict = match self.max {
                Some(max) if id <= max && max - id >= DEDUP_WINDOW => Admit::Stale,
                Some(max) if id <= max && self.admitted.contains(&id) => Admit::Duplicate,
                _ => Admit::Fresh,
            };
            if verdict == Admit::Fresh {
                self.admitted.insert(id);
                self.max = self.max.max(Some(id));
            }
            verdict
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random id streams — small forward gaps, steps back inside and
        /// just past the window, replays of earlier ids, jumps past the
        /// whole window — judged identically by the bitmap and the model,
        /// and no id is ever Fresh twice.
        #[test]
        fn dedup_window_matches_reference_model(
            start in 0u64..5_000,
            steps in proptest::collection::vec((0u8..5, 0u64..3_000), 1..400),
        ) {
            let mut window = DedupWindow::default();
            let mut model = DedupModel::default();
            let mut history = vec![start];
            let mut fresh = BTreeSet::new();
            for (kind, mag) in steps {
                let max = model.max.unwrap_or(start);
                let id = match kind {
                    0 | 1 => max + 1 + mag % 8,
                    2 => max.saturating_sub(mag % (DEDUP_WINDOW + 64)),
                    3 => history[(mag as usize) % history.len()],
                    _ => max + mag,
                };
                history.push(id);
                let verdict = window.admit(id);
                prop_assert_eq!(verdict, model.admit(id), "id {} (max {})", id, max);
                if verdict == Admit::Fresh {
                    prop_assert!(fresh.insert(id), "id {} admitted twice", id);
                }
            }
        }
    }

    fn parcel(dst: u32, action: ActionId) -> Parcel {
        Parcel {
            id: 0,
            src_locality: 0,
            dest_locality: dst,
            dest_object: Gid::INVALID,
            action,
            args: Bytes::new(),
            continuation: Gid::INVALID,
        }
    }

    fn noop_action(actions: &ActionRegistry, name: &str, class: DeliveryClass) -> ActionId {
        actions.register_with_class(name, class, Arc::new(|_| Ok(Bytes::new())))
    }

    /// Locality 0 of a three-locality fabric with a BestEffort bound of 4
    /// and a watermark of 2; nothing pumps unless the test does.
    fn bounded_port(actions: &Arc<ActionRegistry>) -> (Arc<ParcelPort>, Arc<SimTransport>) {
        let fabric = SimTransport::new(3, LinkModel::zero());
        let port = ParcelPort::with_config(
            0,
            fabric.port(0),
            Arc::clone(actions),
            ParcelPortConfig {
                best_effort_backlog: 4,
                backpressure_watermark: Some(2),
            },
        );
        (port, fabric)
    }

    /// Hold the transport's outbound backlog at `n` until the next pump.
    fn back_up_transport(port: &ParcelPort, n: usize) {
        for _ in 0..n {
            port.send_control(2, Bytes::new());
        }
        assert_eq!(port.net().outbound_backlog(), n);
    }

    #[test]
    fn registry_alone_sets_the_class_on_the_wire() {
        // No port-side marking exists any more: what the registry says is
        // what the frames carry. (Shedding, dedup and newest-wins from a
        // registry-only registration are port.rs's three class tests.)
        let fabric = SimTransport::new(2, LinkModel::zero());
        let actions = ActionRegistry::new();
        let port = ParcelPort::new(0, fabric.port(0), Arc::clone(&actions));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        let raw = fabric.port(1);
        raw.set_receiver(Arc::new(move |m: Message| s.lock().push(m.class)));
        let classes = [
            DeliveryClass::Lossless,
            DeliveryClass::BestEffort,
            DeliveryClass::Coalesce,
        ];
        for class in classes {
            let action = noop_action(&actions, &format!("{class:?}"), class);
            port.send_parcel(parcel(1, action));
        }
        while seen.lock().len() < classes.len() {
            port.pump();
            raw.pump_recv();
        }
        assert_eq!(*seen.lock(), classes);
    }

    #[test]
    fn pump_time_shed_counts_parcels_and_records_the_destination() {
        /// Collects four parcels, then emits them as one batch.
        struct BatchOfFour(Mutex<Vec<Parcel>>, Arc<dyn SendPath>);
        impl ParcelInterceptor for BatchOfFour {
            fn submit(&self, parcel: Parcel) {
                let mut held = self.0.lock();
                held.push(parcel);
                if held.len() == 4 {
                    self.1.emit(1, std::mem::take(&mut *held).into());
                }
            }
            fn flush(&self) {}
        }
        let actions = ActionRegistry::new();
        let be = noop_action(&actions, "be", DeliveryClass::BestEffort);
        let (port, _fabric) = bounded_port(&actions);
        let batcher = BatchOfFour(Mutex::new(Vec::new()), port.send_path());
        port.set_interceptor(be, Arc::new(batcher));
        let dropped = || {
            port.net()
                .stats()
                .best_effort_dropped
                .load(Ordering::SeqCst)
        };

        back_up_transport(&port, 4);
        for _ in 0..8 {
            port.send_parcel(parcel(1, be));
        }
        assert_eq!(port.egress_backlog(), 2, "two batches of four queued");
        port.pump();
        // Both batches met a transport backlog at the bound: every parcel
        // is booked, against its destination.
        assert_eq!(dropped(), 8);
        assert_eq!(port.stats().sheds_to(1), 8);
        assert_eq!(port.stats().messages_sent.load(Ordering::SeqCst), 0);

        // The pump drained the transport; the next batch goes out whole.
        for _ in 0..4 {
            port.send_parcel(parcel(1, be));
        }
        port.pump();
        assert_eq!(dropped(), 8);
        assert_eq!(port.stats().sheds_to(1), 8);
        assert_eq!(port.stats().messages_sent.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn each_class_and_pressure_point_moves_exactly_its_counters() {
        #[derive(Debug, Clone, Copy)]
        enum Pressure {
            /// Empty queues.
            None,
            /// Egress queue at `best_effort_backlog`, none of it for dst 1.
            EgressBound,
            /// Dst 1's backlog at the watermark, queue below the bound.
            Watermark,
            /// Transport outbound backlog at `best_effort_backlog` when a
            /// batch of three reaches the pump.
            TransportBacklog,
        }
        use DeliveryClass::{BestEffort, Coalesce, Lossless};
        // (class, pressure) → moved (best_effort_dropped,
        // backpressure_shed, backpressure_events, sheds_to(1)), and
        // whether the submitter blocked.
        let table = [
            (Lossless, Pressure::None, (0, 0, 0, 0), false),
            (Lossless, Pressure::EgressBound, (0, 0, 0, 0), false),
            (Lossless, Pressure::Watermark, (0, 0, 1, 0), true),
            (Lossless, Pressure::TransportBacklog, (0, 0, 0, 0), false),
            (Coalesce, Pressure::None, (0, 0, 0, 0), false),
            (Coalesce, Pressure::EgressBound, (0, 0, 0, 0), false),
            (Coalesce, Pressure::Watermark, (0, 0, 1, 0), true),
            (Coalesce, Pressure::TransportBacklog, (0, 0, 0, 0), false),
            (BestEffort, Pressure::None, (0, 0, 0, 0), false),
            (BestEffort, Pressure::EgressBound, (1, 0, 0, 1), false),
            (BestEffort, Pressure::Watermark, (0, 1, 1, 1), false),
            (BestEffort, Pressure::TransportBacklog, (3, 0, 0, 3), false),
        ];
        for (class, pressure, moved, blocked) in table {
            let actions = ActionRegistry::new();
            let filler = noop_action(&actions, "filler", Lossless);
            let action = noop_action(&actions, "probe", class);
            let (port, _fabric) = bounded_port(&actions);
            // `emit` goes straight to the egress queue, past admission.
            let queue = |dst, action, n: usize| {
                let batch: Vec<Parcel> = (0..n).map(|_| parcel(dst, action)).collect();
                port.emit(dst, ParcelBatch::from(batch));
            };
            match pressure {
                Pressure::None => {}
                Pressure::EgressBound => (0..4).for_each(|_| queue(2, filler, 1)),
                Pressure::Watermark => (0..2).for_each(|_| queue(1, filler, 1)),
                Pressure::TransportBacklog => back_up_transport(&port, 4),
            }
            let queued_before = port.egress_backlog();
            if matches!(pressure, Pressure::TransportBacklog) {
                queue(1, action, 3);
                port.pump();
            } else {
                port.send_parcel(parcel(1, action));
            }
            // Admitted means one more egress entry (submit) or one framed
            // message (pump); shed means neither.
            let framed = port.stats().messages_sent.load(Ordering::SeqCst) as usize;
            let through = port.egress_backlog() + framed - queued_before;
            let shed = moved.0 + moved.1 > 0;
            assert_eq!(through, usize::from(!shed), "{class:?} {pressure:?}");
            let stats = port.stats();
            let now = (
                port.net()
                    .stats()
                    .best_effort_dropped
                    .load(Ordering::SeqCst),
                stats.backpressure_shed.load(Ordering::SeqCst),
                stats.backpressure_events.load(Ordering::SeqCst),
                stats.sheds_to(1),
            );
            assert_eq!(now, moved, "{class:?} {pressure:?}");
            let blocked_ns = stats.backpressure_blocked_ns.load(Ordering::SeqCst);
            assert_eq!(blocked_ns > 0, blocked, "{class:?} {pressure:?}");
            assert_eq!(stats.sheds_to(2), 0, "{class:?} {pressure:?}");
        }
    }
}
