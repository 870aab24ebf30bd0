//! The parcel port: per-locality send/receive engine.
//!
//! ## Send path
//!
//! `send_parcel` routes through the per-action *interceptor* table — the
//! plug-in point where `rpx-coalesce` installs its coalescer for actions
//! flagged for message coalescing (the analogue of
//! `HPX_ACTION_USES_MESSAGE_COALESCING`). Unintercepted parcels, and
//! batches emitted by interceptors, land in the egress queue. The
//! [`ParcelPort::pump`] — run as scheduler background work — encodes
//! egress entries into framed messages (real serialization, charged as
//! background time) and drives the fabric's send/receive pumps.
//!
//! The send fast path is lock-free and allocation-free in steady state:
//! the interceptor table and direct-action set are read with plain
//! `Acquire` loads ([`SlotTable`]/[`BitTable`]), hooks live in
//! [`ArcCell`]s, single-parcel batches store their parcel inline (no
//! buffer at all), and the egress queue is drained in one sweep per pump.
//!
//! ## Receive path
//!
//! Delivered messages are decoded (single parcel or coalesced batch) and
//! each parcel becomes a scheduler task ("the parcel is converted into an
//! HPX thread and placed in the scheduler queue", §II-A). Single-parcel
//! messages go through the per-task [`TaskSpawner`]; all parcels of a
//! coalesced message are handed to the scheduler as *one* batch through
//! the [`BatchTaskSpawner`] seam (one admission per message — the
//! receive-side dual of send-side coalescing), reusing a thread-local
//! scratch vector across pumps. Direct actions always run inline on the
//! pumping thread. If a parcel carries a continuation, the result is
//! shipped back as a continuation parcel addressed to the origin's LCO.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use bytes::Bytes;
use parking_lot::Mutex;

use rpx_agas::Gid;
use rpx_net::{DeliveryClass, Message, MessageKind, TransportPort};
use rpx_serialize::{ArchiveReader, ArchiveWriter, WireError};
use rpx_util::sync::{ArcCell, BitTable, SlotTable};
use rpx_util::{IdAllocator, LogHistogram};

use crate::action::{ActionId, ActionRegistry};
use crate::batch::ParcelBatch;
use crate::egress::{EgressEntry, EgressQueue};
use crate::parcel::Parcel;

/// Sink for parcels that are ready to leave the locality as one message.
///
/// Implemented by [`ParcelPort`]; consumed by interceptors (the coalescer
/// flushes its queue through this).
pub trait SendPath: Send + Sync {
    /// Emit a batch (all bound for `dst`) as a single message.
    fn emit(&self, dst: u32, batch: ParcelBatch);

    /// A Coalesce-class mailbox replaced a queued value with a newer one
    /// (statistics hook; the default implementation ignores it).
    fn note_mailbox_replaced(&self) {}

    /// A Coalesce-class mailbox flushed its occupant to the wire
    /// (statistics hook; the default implementation ignores it).
    fn note_mailbox_flushed(&self) {}
}

/// A per-action send-side hook (the coalescing plug-in interface).
pub trait ParcelInterceptor: Send + Sync {
    /// Take ownership of an outgoing parcel (queue it, or emit it
    /// immediately through the [`SendPath`]).
    fn submit(&self, parcel: Parcel);
    /// Flush any internally queued parcels immediately.
    fn flush(&self);
}

/// Schedules a closure as a lightweight task on the locality's scheduler.
pub type TaskSpawner = Arc<SpawnFn>;

/// The unsized function type behind [`TaskSpawner`].
pub type SpawnFn = dyn Fn(Box<dyn FnOnce() + Send + 'static>) + Send + Sync;

/// A boxed task body, the unit the spawner seam moves around.
pub type TaskFn = Box<dyn FnOnce() + Send + 'static>;

/// Schedules a whole batch of closures in one scheduler admission.
///
/// The implementation must *drain* the vector (leaving its capacity
/// behind — the port reuses it as scratch across pumps) and execute every
/// drained closure exactly once. Installed via
/// [`ParcelPort::set_batch_spawner`]; when absent, the port falls back to
/// spawning through the per-task [`TaskSpawner`].
pub type BatchTaskSpawner = Arc<BatchSpawnFn>;

/// The unsized function type behind [`BatchTaskSpawner`].
pub type BatchSpawnFn = dyn Fn(&mut Vec<TaskFn>) + Send + Sync;

/// Parcel-level traffic statistics.
#[derive(Debug)]
pub struct ParcelPortStats {
    /// Parcels submitted for sending.
    pub parcels_sent: AtomicU64,
    /// Parcels decoded from received messages.
    pub parcels_received: AtomicU64,
    /// Messages encoded and handed to the fabric.
    pub messages_sent: AtomicU64,
    /// Messages received and decoded.
    pub messages_received: AtomicU64,
    /// Parcels dropped (unknown action, decode failure).
    pub dropped: AtomicU64,
    /// Coalescing-buffer occupancy at flush: parcels per encoded message,
    /// recorded in the egress pump the moment a batch is framed. Bucketed
    /// log₂ so the send hot path pays two relaxed adds.
    pub flush_occupancy: Arc<LogHistogram>,
    /// Wire payload bytes per encoded message (header excluded).
    pub wire_bytes: Arc<LogHistogram>,
    /// Tasks admitted per batched spawn on the ingress path (decode →
    /// spawn batch size of one coalesced message).
    pub spawn_batch: Arc<LogHistogram>,
    /// Coalesce-class mailbox slots that replaced a queued value with a
    /// newer one — each replacement is one wire record saved.
    pub coalesce_mailbox_replaced: AtomicU64,
    /// Coalesce-class mailbox flushes (occupant shipped to the wire).
    pub coalesce_mailbox_flushed: AtomicU64,
    /// Received Coalesce-class parcels discarded because a newer value
    /// from the same (source, action) was already delivered.
    pub coalesce_stale_dropped: AtomicU64,
    /// Submissions that found their destination's egress backlog at or
    /// above the backpressure watermark (each such admission counts once,
    /// whether it ended in shedding or blocking).
    pub backpressure_events: AtomicU64,
    /// BestEffort parcels shed by backpressure admission control (the
    /// send-side half of the `delivered + shed == sent` accounting;
    /// disjoint from the transport's `best_effort_dropped`).
    pub backpressure_shed: AtomicU64,
    /// Nanoseconds Lossless/Coalesce submitters spent blocked waiting for
    /// a destination's backlog to fall below the watermark.
    pub backpressure_blocked_ns: AtomicU64,
    /// Send-side sheds per destination locality (backpressure sheds plus
    /// global BestEffort backlog-bound sheds) — the per-endpoint-pair
    /// breakdown behind the exact `delivered + shed == sent` accounting.
    shed_by_dest: Mutex<HashMap<u32, u64>>,
}

impl ParcelPortStats {
    /// Parcels this port shed at submit time that were bound for `dst`
    /// (backpressure admission plus the global BestEffort backlog bound).
    pub fn sheds_to(&self, dst: u32) -> u64 {
        self.shed_by_dest.lock().get(&dst).copied().unwrap_or(0)
    }

    fn record_shed(&self, dst: u32) {
        *self.shed_by_dest.lock().entry(dst).or_insert(0) += 1;
    }
}

impl Default for ParcelPortStats {
    fn default() -> Self {
        // 32 log₂ buckets cover occupancies/bytes/batches up to 2³¹.
        ParcelPortStats {
            parcels_sent: AtomicU64::new(0),
            parcels_received: AtomicU64::new(0),
            messages_sent: AtomicU64::new(0),
            messages_received: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            flush_occupancy: Arc::new(LogHistogram::new(32)),
            wire_bytes: Arc::new(LogHistogram::new(32)),
            spawn_batch: Arc::new(LogHistogram::new(32)),
            coalesce_mailbox_replaced: AtomicU64::new(0),
            coalesce_mailbox_flushed: AtomicU64::new(0),
            coalesce_stale_dropped: AtomicU64::new(0),
            backpressure_events: AtomicU64::new(0),
            backpressure_shed: AtomicU64::new(0),
            backpressure_blocked_ns: AtomicU64::new(0),
            shed_by_dest: Mutex::new(HashMap::new()),
        }
    }
}

/// Sentinel for "no continuation action installed".
const NO_ACTION: u32 = u32::MAX;

/// Tunables of a [`ParcelPort`], plumbed down from the cluster builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParcelPortConfig {
    /// Egress entries encoded per pump sweep (bounds per-poll latency of
    /// the background thread; the paper's HPX analogue drains its parcel
    /// queues in similarly bounded chunks).
    pub egress_drain_budget: usize,
    /// Load-shedding bound for BestEffort-class actions: when the egress
    /// queue (at submit time) or the transport's outbound backlog (at
    /// pump time) holds at least this many entries, further BestEffort
    /// parcels are dropped and counted in the transport's
    /// `best_effort_dropped` statistic instead of queued — bounded
    /// memory under overload, by contract.
    pub best_effort_backlog: usize,
    /// Per-destination egress backpressure watermark: when the number of
    /// egress entries queued for one destination reaches this bound,
    /// admission control engages for further parcels to that destination
    /// — BestEffort parcels are shed (counted in `backpressure_shed`),
    /// Lossless/Coalesce submitters block for up to
    /// `backpressure_block_us` waiting for the backlog to drain (time
    /// counted in `backpressure_blocked_ns`), then proceed. `None`
    /// disables the watermark (the default).
    pub backpressure_watermark: Option<usize>,
    /// Upper bound, in microseconds, on how long one Lossless/Coalesce
    /// submission may block at the watermark before being admitted
    /// anyway. Bounded so a submitter on a pump thread can never
    /// deadlock against its own drain.
    pub backpressure_block_us: u64,
}

impl Default for ParcelPortConfig {
    fn default() -> Self {
        ParcelPortConfig {
            egress_drain_budget: 8,
            best_effort_backlog: 1024,
            backpressure_watermark: None,
            backpressure_block_us: 500,
        }
    }
}

struct Inner {
    locality: u32,
    actions: Arc<ActionRegistry>,
    net: Arc<dyn TransportPort>,
    config: ParcelPortConfig,
    /// Per-action send hooks, indexed by `ActionId` — lock-free reads on
    /// every `send_parcel`.
    interceptors: SlotTable<dyn ParcelInterceptor>,
    /// Actions executed inline on the receive path instead of being
    /// spawned as tasks (HPX "direct actions"); used for cheap runtime
    /// internals like continuation delivery.
    direct_actions: BitTable,
    /// Actions registered under [`DeliveryClass::BestEffort`] — their
    /// parcels are shed past the backlog bound and deduplicated on the
    /// receive side. Lock-free reads on every send and delivery.
    best_effort_actions: BitTable,
    /// Actions registered under [`DeliveryClass::Coalesce`] — their
    /// messages carry the Coalesce class bit and receivers keep only
    /// monotone-latest values.
    coalesce_actions: BitTable,
    /// BestEffort receive dedup: per-source sliding window over parcel
    /// ids (ids are allocated monotonically per sender), so a
    /// wire-duplicated unsequenced frame is delivered at most once.
    be_dedup: Mutex<HashMap<u32, DedupWindow>>,
    /// Coalesce monotone-latest filter: highest parcel id delivered per
    /// (source locality, action); stale values are discarded.
    coalesce_seen: Mutex<HashMap<(u32, u32), u64>>,
    egress: EgressQueue,
    spawner: ArcCell<SpawnFn>,
    /// Batched spawner: one scheduler admission per coalesced message
    /// instead of one per parcel. Optional — absent, the port degrades to
    /// the per-parcel `spawner`.
    batch_spawner: ArcCell<BatchSpawnFn>,
    /// The action used to deliver continuation results (registered by the
    /// runtime core as its `set-lco` builtin); `NO_ACTION` when unset.
    continuation_action: AtomicU32,
    /// Handler for [`MessageKind::Control`] messages (the runtime's
    /// boot/barrier plane); without one, control traffic is dropped.
    control: ArcCell<dyn Fn(Message) + Send + Sync>,
    notify: ArcCell<dyn Fn() + Send + Sync>,
    ids: IdAllocator,
    stats: ParcelPortStats,
    /// Egress entries popped but not yet handed to the fabric (mid-pump);
    /// keeps quiescence checks honest.
    ///
    /// Ordering: the gauge rises (`Acquire` RMW) *before* entries leave
    /// the egress queue and falls (`Release`) only *after* the message is
    /// handed to the fabric, so a quiescence check that loads 0 with
    /// `Acquire` and then observes the queues empty cannot miss in-flight
    /// work. SeqCst is unnecessary: there is no multi-variable total-order
    /// requirement, only this happens-before pairing.
    processing: AtomicUsize,
}

/// Words in the dedup bitmap; the window spans `DEDUP_WORDS * 64` ids.
const DEDUP_WORDS: usize = 16;
const DEDUP_WINDOW: u64 = DEDUP_WORDS as u64 * 64;

/// Sliding at-most-once window over the monotone parcel ids of one
/// source locality, deduplicating BestEffort traffic (which travels
/// unsequenced, so a wire-duplicated frame reaches this layer twice).
///
/// Bit `i` of the bitmap records delivery of `max_id - i`; ids behind
/// the whole window are discarded as stale — erring on the
/// at-most-once side, which is the BestEffort contract. The window is
/// wide enough (1024 ids) that a frame has to be displaced far past
/// anything wire reordering or pump-thread scheduling produces before
/// at-most-once has to discard it as stale.
#[derive(Debug)]
struct DedupWindow {
    max_id: u64,
    /// Seen-bits for offsets behind `max_id`: offset `k` lives at bit
    /// `k % 64` of word `k / 64` (word 0 bit 0 is `max_id` itself).
    bitmap: [u64; DEDUP_WORDS],
    seeded: bool,
}

impl Default for DedupWindow {
    fn default() -> Self {
        DedupWindow {
            max_id: 0,
            bitmap: [0; DEDUP_WORDS],
            seeded: false,
        }
    }
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
        if !self.seeded {
            self.seeded = true;
            self.max_id = id;
            self.bitmap[0] = 1;
            return Admit::Fresh;
        }
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

/// The per-locality parcel engine.
pub struct ParcelPort {
    inner: Arc<Inner>,
}

impl ParcelPort {
    /// Create a port for `locality` on `net` with default tunables.
    ///
    /// The returned port is installed as the transport receive handler.
    pub fn new(
        locality: u32,
        net: Arc<dyn TransportPort>,
        actions: Arc<ActionRegistry>,
    ) -> Arc<Self> {
        Self::with_config(locality, net, actions, ParcelPortConfig::default())
    }

    /// Create a port with explicit [`ParcelPortConfig`] tunables.
    pub fn with_config(
        locality: u32,
        net: Arc<dyn TransportPort>,
        actions: Arc<ActionRegistry>,
        config: ParcelPortConfig,
    ) -> Arc<Self> {
        assert!(
            config.egress_drain_budget > 0,
            "egress_drain_budget must be at least 1"
        );
        let inner = Arc::new(Inner {
            locality,
            actions,
            net,
            config,
            interceptors: SlotTable::new(),
            direct_actions: BitTable::new(),
            best_effort_actions: BitTable::new(),
            coalesce_actions: BitTable::new(),
            be_dedup: Mutex::new(HashMap::new()),
            coalesce_seen: Mutex::new(HashMap::new()),
            egress: EgressQueue::new(),
            spawner: ArcCell::new(),
            batch_spawner: ArcCell::new(),
            continuation_action: AtomicU32::new(NO_ACTION),
            control: ArcCell::new(),
            notify: ArcCell::new(),
            ids: IdAllocator::new(),
            stats: ParcelPortStats::default(),
            processing: AtomicUsize::new(0),
        });
        let weak = Arc::downgrade(&inner);
        inner.net.set_receiver(Arc::new(move |message| {
            if let Some(inner) = weak.upgrade() {
                receive_message(&inner, message);
            }
        }));
        Arc::new(ParcelPort { inner })
    }

    /// This port's locality.
    pub fn locality(&self) -> u32 {
        self.inner.locality
    }

    /// Parcel statistics.
    pub fn stats(&self) -> &ParcelPortStats {
        &self.inner.stats
    }

    /// The underlying transport port.
    pub fn net(&self) -> &Arc<dyn TransportPort> {
        &self.inner.net
    }

    /// This port's tunables.
    pub fn config(&self) -> &ParcelPortConfig {
        &self.inner.config
    }

    /// The shared action registry.
    pub fn actions(&self) -> &Arc<ActionRegistry> {
        &self.inner.actions
    }

    /// Install the task spawner (the locality's scheduler).
    pub fn set_spawner(&self, spawner: TaskSpawner) {
        self.inner.spawner.set(spawner);
    }

    /// Install the batched task spawner (typically
    /// `Scheduler::spawn_batch`): all non-direct parcels of one coalesced
    /// message are handed to it as a single batch. Without it, each
    /// parcel goes through the per-task spawner individually.
    pub fn set_batch_spawner(&self, spawner: BatchTaskSpawner) {
        self.inner.batch_spawner.set(spawner);
    }

    /// Install the wake-up hook (typically `Scheduler::notify`).
    pub fn set_notify(&self, notify: impl Fn() + Send + Sync + 'static) {
        self.inner.notify.set(Arc::new(notify));
    }

    /// Install the handler for [`MessageKind::Control`] messages — the
    /// runtime's boot/barrier control plane. Runs inline on the pumping
    /// thread, so handlers must be short and non-blocking.
    pub fn set_control_handler(&self, handler: impl Fn(Message) + Send + Sync + 'static) {
        self.inner.control.set(Arc::new(handler));
    }

    /// Send a raw control-plane message to `dst`'s port. Control
    /// messages bypass the parcel layer entirely (no action dispatch);
    /// they ride the transport — including any reliability decorator —
    /// like any other message.
    pub fn send_control(&self, dst: u32, payload: Bytes) {
        self.inner.net.send(Message::new(
            self.inner.locality,
            dst,
            MessageKind::Control,
            payload,
        ));
    }

    /// Declare which action delivers continuation results.
    pub fn set_continuation_action(&self, action: ActionId) {
        self.inner
            .continuation_action
            .store(action.0, Ordering::Release);
    }

    /// Mark an action as *direct*: received parcels for it run inline on
    /// the pumping (background) thread instead of becoming tasks. Only
    /// suitable for short, non-blocking handlers.
    pub fn set_direct(&self, action: ActionId) {
        self.inner.direct_actions.set(action.0 as usize);
    }

    /// Declare the delivery class of `action` on this port (called by
    /// the runtime at registration; [`DeliveryClass::Lossless`] needs no
    /// marking — it is the default for unmarked actions).
    pub fn set_action_class(&self, action: ActionId, class: DeliveryClass) {
        match class {
            DeliveryClass::Lossless => {}
            DeliveryClass::BestEffort => self.inner.best_effort_actions.set(action.0 as usize),
            DeliveryClass::Coalesce => self.inner.coalesce_actions.set(action.0 as usize),
        }
    }

    /// The delivery class `action` is marked with on this port.
    pub fn action_class(&self, action: ActionId) -> DeliveryClass {
        action_class(&self.inner, action)
    }

    /// This port's [`SendPath`] for an interceptor installed *on this
    /// port*. The port owns its interceptors (replaced ones until it
    /// drops), so an interceptor that owned the port back could never be
    /// freed — nor could the timer service its queues hold. Batches
    /// emitted after the port is gone are dropped.
    pub fn send_path(&self) -> Arc<dyn SendPath> {
        Arc::new(WeakSendPath(Arc::downgrade(&self.inner)))
    }

    /// Install (or replace) a send-side interceptor for `action`.
    pub fn set_interceptor(&self, action: ActionId, interceptor: Arc<dyn ParcelInterceptor>) {
        self.inner.interceptors.set(action.0 as usize, interceptor);
    }

    /// Remove the interceptor for `action`, if any.
    pub fn clear_interceptor(&self, action: ActionId) -> bool {
        self.inner.interceptors.clear(action.0 as usize)
    }

    /// Flush every interceptor's queued parcels.
    pub fn flush_interceptors(&self) {
        let mut pending = Vec::new();
        self.inner
            .interceptors
            .for_each(|_, i| pending.push(Arc::clone(i)));
        for i in pending {
            i.flush();
        }
    }

    /// Submit a parcel for transmission.
    ///
    /// Assigns a fresh parcel id if the id is zero. Flagged actions pass
    /// through their interceptor (the coalescer); others go straight to
    /// the egress queue. Steady state does no locking and no allocation:
    /// interceptor lookup is an atomic load and the single-parcel buffer
    /// comes from the recycled pool.
    pub fn send_parcel(&self, mut parcel: Parcel) {
        if parcel.id == 0 {
            parcel.id = self.inner.ids.next();
        }
        self.inner
            .stats
            .parcels_sent
            .fetch_add(1, Ordering::Relaxed);
        route_parcel(&self.inner, parcel);
    }

    /// Pump the send engine once:
    /// 1. encode queued egress entries into framed messages (serialization
    ///    work, charged to the calling — background — thread),
    /// 2. drive the fabric's send and receive pumps.
    ///
    /// Returns `true` if any work was done.
    pub fn pump(&self) -> bool {
        thread_local! {
            /// Per-thread drain scratch: one egress sweep per pump, reused
            /// across calls so pumping allocates nothing in steady state.
            static DRAIN: RefCell<Vec<EgressEntry>> = const { RefCell::new(Vec::new()) };
        }
        let mut did_work = false;
        DRAIN.with(|drain| {
            let mut drain = drain.borrow_mut();
            // Raise the in-flight gauge before taking entries out of the
            // queue (see `Inner::processing` ordering notes).
            self.inner.processing.fetch_add(1, Ordering::Acquire);
            let budget = self.inner.config.egress_drain_budget;
            let taken = self.inner.egress.drain_into(&mut drain, budget);
            if taken == 0 {
                self.inner.processing.fetch_sub(1, Ordering::Release);
                return;
            }
            did_work = true;
            for (dst, batch) in drain.drain(..) {
                // Batches are per-action (interceptors queue one action;
                // unintercepted parcels travel as singles), so the first
                // parcel's class is the message's class.
                let class = action_class(&self.inner, batch[0].action);
                if class == DeliveryClass::BestEffort
                    && self.inner.net.outbound_backlog() >= self.inner.config.best_effort_backlog
                {
                    // Transport under pressure: shed BestEffort load here
                    // rather than grow the wire backlog. The drop is
                    // accounted, never owed to quiescence.
                    self.inner
                        .net
                        .stats()
                        .best_effort_dropped
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                self.inner.stats.flush_occupancy.record(batch.len() as u64);
                let (kind, payload) = encode_message(&batch);
                // Returns the batch buffer to the pool before the fabric
                // send, keeping pool occupancy high under load.
                drop(batch);
                self.inner.stats.wire_bytes.record(payload.len() as u64);
                self.inner
                    .stats
                    .messages_sent
                    .fetch_add(1, Ordering::Relaxed);
                self.inner
                    .net
                    .send(Message::new(self.inner.locality, dst, kind, payload).with_class(class));
            }
            self.inner.processing.fetch_sub(1, Ordering::Release);
        });
        let sent = self.inner.net.pump_send();
        let received = self.inner.net.pump_recv();
        did_work || sent || received
    }

    /// Parcels queued for encoding but not yet framed.
    pub fn egress_backlog(&self) -> usize {
        self.inner.egress.len()
    }

    /// Egress sweeps currently encoding (mid-pump).
    pub fn processing(&self) -> usize {
        self.inner.processing.load(Ordering::Acquire)
    }
}

impl SendPath for ParcelPort {
    fn emit(&self, dst: u32, batch: ParcelBatch) {
        debug_assert!(!batch.is_empty(), "emit of empty batch");
        debug_assert!(batch.iter().all(|p| p.dest_locality == dst));
        self.inner.egress.push(dst, batch);
        if let Some(n) = self.inner.notify.get() {
            n();
        }
    }

    fn note_mailbox_replaced(&self) {
        self.inner
            .stats
            .coalesce_mailbox_replaced
            .fetch_add(1, Ordering::Relaxed);
    }

    fn note_mailbox_flushed(&self) {
        self.inner
            .stats
            .coalesce_mailbox_flushed
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// [`ParcelPort::send_path`]: the port's send path without owning it.
struct WeakSendPath(Weak<Inner>);

impl WeakSendPath {
    fn with_port(&self, f: impl FnOnce(&ParcelPort)) {
        if let Some(inner) = self.0.upgrade() {
            f(&ParcelPort { inner });
        }
    }
}

impl SendPath for WeakSendPath {
    fn emit(&self, dst: u32, batch: ParcelBatch) {
        self.with_port(|port| port.emit(dst, batch));
    }
    fn note_mailbox_replaced(&self) {
        self.with_port(ParcelPort::note_mailbox_replaced);
    }
    fn note_mailbox_flushed(&self) {
        self.with_port(ParcelPort::note_mailbox_flushed);
    }
}

/// The delivery class of `action` as marked on this port (lock-free).
fn action_class(inner: &Inner, action: ActionId) -> DeliveryClass {
    if inner.best_effort_actions.test(action.0 as usize) {
        DeliveryClass::BestEffort
    } else if inner.coalesce_actions.test(action.0 as usize) {
        DeliveryClass::Coalesce
    } else {
        DeliveryClass::Lossless
    }
}

/// Per-destination egress admission control: returns `false` if the
/// parcel must be shed.
///
/// When the destination's egress backlog sits at or above the watermark,
/// the action's [`DeliveryClass`] decides the response: BestEffort load
/// is shed immediately (bounded memory, accounted exactly), while
/// Lossless and Coalesce submitters block — in short sleeps, re-checking
/// the backlog — for at most `backpressure_block_us` before being
/// admitted anyway (the bound makes deadlock against the submitter's own
/// pump impossible). Every admission that hits the watermark increments
/// `backpressure_events` exactly once.
fn backpressure_admit(inner: &Inner, dst: u32, class: DeliveryClass) -> bool {
    let Some(watermark) = inner.config.backpressure_watermark else {
        return true;
    };
    if inner.egress.dest_backlog(dst) < watermark {
        return true;
    }
    inner
        .stats
        .backpressure_events
        .fetch_add(1, Ordering::Relaxed);
    if class == DeliveryClass::BestEffort {
        inner
            .stats
            .backpressure_shed
            .fetch_add(1, Ordering::Relaxed);
        inner.stats.record_shed(dst);
        return false;
    }
    let started = std::time::Instant::now();
    let deadline = std::time::Duration::from_micros(inner.config.backpressure_block_us);
    while started.elapsed() < deadline && inner.egress.dest_backlog(dst) >= watermark {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
    inner
        .stats
        .backpressure_blocked_ns
        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    true
}

/// Hand `parcel` to its action's interceptor, or straight to egress.
fn route_parcel(inner: &Inner, parcel: Parcel) {
    if inner.best_effort_actions.test(parcel.action.0 as usize)
        && inner.egress.len() >= inner.config.best_effort_backlog
    {
        // BestEffort load shedding at submit time: past the backlog
        // bound the parcel is dropped (and accounted) instead of queued,
        // so an overloaded BestEffort producer cannot grow the egress
        // queue without bound or wedge quiescence.
        inner
            .net
            .stats()
            .best_effort_dropped
            .fetch_add(1, Ordering::Relaxed);
        inner.stats.record_shed(parcel.dest_locality);
        return;
    }
    if !backpressure_admit(
        inner,
        parcel.dest_locality,
        action_class(inner, parcel.action),
    ) {
        return;
    }
    match inner.interceptors.get(parcel.action.0 as usize) {
        Some(i) => i.submit(parcel),
        None => {
            let dst = parcel.dest_locality;
            let batch = ParcelBatch::single(parcel);
            inner.egress.push(dst, batch);
            if let Some(n) = inner.notify.get() {
                n();
            }
        }
    }
}

fn encode_message(parcels: &[Parcel]) -> (MessageKind, Bytes) {
    if parcels.len() == 1 {
        let mut w = ArchiveWriter::pooled(parcels[0].wire_size());
        parcels[0].encode(&mut w);
        (MessageKind::Parcel, w.finish())
    } else {
        (MessageKind::Coalesced, Parcel::encode_batch(parcels))
    }
}

fn receive_message(inner: &Arc<Inner>, message: Message) {
    inner
        .stats
        .messages_received
        .fetch_add(1, Ordering::Relaxed);
    match message.kind {
        MessageKind::Parcel => {
            // Single-parcel fast path: no intermediate Vec at all.
            let mut r = ArchiveReader::new(message.payload);
            match Parcel::decode(&mut r) {
                Ok(p) => {
                    inner.stats.parcels_received.fetch_add(1, Ordering::Relaxed);
                    deliver_single(inner, p);
                }
                Err(_) => {
                    inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        MessageKind::Coalesced => match Parcel::decode_batch(message.payload) {
            Ok(ps) => {
                inner
                    .stats
                    .parcels_received
                    .fetch_add(ps.len() as u64, Ordering::Relaxed);
                deliver_coalesced(inner, ps);
            }
            Err(_) => {
                inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
            }
        },
        MessageKind::Control => {
            if let Some(handler) = inner.control.get() {
                handler(message);
            }
        }
        // Reliability acks are consumed inside rpx-net's ReliablePort
        // and normally never reach this layer; ignore any that arrive
        // over a raw (non-reliable) port.
        MessageKind::Ack => {}
    }
}

/// Per-class receive admission: `true` if the parcel should execute.
///
/// * BestEffort parcels are deduplicated against the per-source sliding
///   window — BestEffort travels unsequenced, so a wire-duplicated frame
///   reaches this layer twice and would otherwise double-execute.
/// * Coalesce parcels deliver only monotone-latest values per
///   (source, action): a stale value arriving after a newer one (wire
///   reordering, retransmit races) is discarded, preserving the
///   newest-wins contract end to end. Parcels carrying a continuation
///   bypass the filter — a promise must always be resolved.
/// * Lossless parcels are always admitted (exactly-once is the
///   reliability sublayer's job).
fn admit_parcel(inner: &Arc<Inner>, parcel: &Parcel) -> bool {
    if inner.best_effort_actions.test(parcel.action.0 as usize) {
        let verdict = inner
            .be_dedup
            .lock()
            .entry(parcel.src_locality)
            .or_default()
            .admit(parcel.id);
        match verdict {
            Admit::Fresh => return true,
            Admit::Duplicate => {
                inner
                    .net
                    .stats()
                    .duplicates_suppressed
                    .fetch_add(1, Ordering::Relaxed);
            }
            Admit::Stale => {
                inner
                    .net
                    .stats()
                    .best_effort_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        return false;
    }
    if inner.coalesce_actions.test(parcel.action.0 as usize) && !parcel.continuation.is_valid() {
        let mut seen = inner.coalesce_seen.lock();
        let last = seen
            .entry((parcel.src_locality, parcel.action.0))
            .or_insert(0);
        if parcel.id <= *last {
            inner
                .stats
                .coalesce_stale_dropped
                .fetch_add(1, Ordering::Relaxed);
            return false;
        }
        *last = parcel.id;
    }
    true
}

/// Deliver one decoded parcel: inline if direct, else one spawned task.
fn deliver_single(inner: &Arc<Inner>, parcel: Parcel) {
    if !admit_parcel(inner, &parcel) {
        return;
    }
    let weak = Arc::downgrade(inner);
    if inner.direct_actions.test(parcel.action.0 as usize) {
        // Direct action: run inline on the pumping thread. This keeps
        // continuation delivery alive even when every scheduler worker
        // is blocked in a cooperative wait.
        execute_parcel(&weak, parcel);
        return;
    }
    let Some(spawner) = inner.spawner.get() else {
        inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    };
    spawner(Box::new(move || execute_parcel(&weak, parcel)));
}

/// Deliver all parcels of one coalesced message: direct actions run
/// inline (unchanged), everything else is handed to the scheduler as one
/// batch — a single admission for the whole message. The closure scratch
/// vector is thread-local and reused across pumps, so a steady ingress
/// stream allocates only the closures themselves.
fn deliver_coalesced(inner: &Arc<Inner>, parcels: Vec<Parcel>) {
    thread_local! {
        /// Per-thread batch scratch. Taken out (not borrowed) around the
        /// delivery so a direct action that re-enters delivery on this
        /// thread cannot conflict with it.
        static SPAWN_SCRATCH: RefCell<Vec<TaskFn>> = const { RefCell::new(Vec::new()) };
    }
    let Some(batch_spawner) = inner.batch_spawner.get() else {
        // No batch seam installed: the per-parcel path, as before.
        for parcel in parcels {
            deliver_single(inner, parcel);
        }
        return;
    };
    let mut scratch = SPAWN_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    debug_assert!(scratch.is_empty());
    scratch.reserve(parcels.len());
    for parcel in parcels {
        if !admit_parcel(inner, &parcel) {
            continue;
        }
        let weak = Arc::downgrade(inner);
        if inner.direct_actions.test(parcel.action.0 as usize) {
            execute_parcel(&weak, parcel);
        } else {
            scratch.push(Box::new(move || execute_parcel(&weak, parcel)));
        }
    }
    if !scratch.is_empty() {
        inner.stats.spawn_batch.record(scratch.len() as u64);
        batch_spawner(&mut scratch);
        debug_assert!(
            scratch.is_empty(),
            "batch spawner must drain the task vector"
        );
        scratch.clear();
    }
    SPAWN_SCRATCH.with(|s| *s.borrow_mut() = scratch);
}

/// Run a received parcel's action and deliver its continuation, if any.
fn execute_parcel(inner: &Weak<Inner>, parcel: Parcel) {
    let Some(inner) = inner.upgrade() else {
        return;
    };
    let Some(handler) = inner.actions.handler(parcel.action) else {
        inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    };
    match handler(parcel.args.clone()) {
        Ok(result) => {
            if parcel.continuation.is_valid() {
                deliver_result(&inner, parcel.continuation, parcel.src_locality, result);
            }
        }
        Err(_) => {
            inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn deliver_result(inner: &Arc<Inner>, continuation: Gid, dest: u32, result: Bytes) {
    let action = inner.continuation_action.load(Ordering::Acquire);
    if action == NO_ACTION {
        inner.stats.dropped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let response = Parcel {
        id: inner.ids.next(),
        src_locality: inner.locality,
        dest_locality: dest,
        dest_object: Gid::INVALID,
        action: ActionId(action),
        args: encode_continuation_args(continuation, &result),
        continuation: Gid::INVALID,
    };
    inner.stats.parcels_sent.fetch_add(1, Ordering::Relaxed);
    // Continuation parcels can themselves be intercepted (coalesced) if
    // the runtime flags the continuation action.
    route_parcel(inner, response);
}

/// Encode the payload of a continuation-delivery parcel.
pub fn encode_continuation_args(target: Gid, result: &Bytes) -> Bytes {
    let mut w = ArchiveWriter::pooled(result.len() + 16);
    w.put_u32_le(target.birth_locality());
    w.put_u64_le(target.sequence());
    w.put_bytes(result);
    w.finish()
}

/// Decode the payload of a continuation-delivery parcel.
pub fn decode_continuation_args(args: Bytes) -> Result<(Gid, Bytes), WireError> {
    let mut r = ArchiveReader::new(args);
    let birth = r.get_u32_le()?;
    let seq = r.get_u64_le()?;
    let result = r.get_bytes()?;
    r.expect_exhausted()?;
    Ok((Gid::from_parts(birth, seq), result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpx_net::{LinkModel, SimTransport};
    use rpx_serialize::{from_bytes, to_bytes};
    use std::time::{Duration, Instant};

    /// A spawner that runs tasks inline on the pumping thread —
    /// deterministic for unit tests.
    fn inline_spawner() -> TaskSpawner {
        Arc::new(|f| f())
    }

    fn two_ports() -> (Arc<ParcelPort>, Arc<ParcelPort>, Arc<ActionRegistry>) {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let actions = ActionRegistry::new();
        let p0 = ParcelPort::new(0, Arc::new(fabric.port(0)), Arc::clone(&actions));
        let p1 = ParcelPort::new(1, Arc::new(fabric.port(1)), Arc::clone(&actions));
        p0.set_spawner(inline_spawner());
        p1.set_spawner(inline_spawner());
        (p0, p1, actions)
    }

    fn pump_until(ports: &[&Arc<ParcelPort>], done: impl Fn() -> bool, timeout: Duration) -> bool {
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

    fn plain_parcel(dst: u32, action: ActionId, args: Bytes) -> Parcel {
        Parcel {
            id: 0,
            src_locality: if dst == 0 { 1 } else { 0 },
            dest_locality: dst,
            dest_object: Gid::INVALID,
            action,
            args,
            continuation: Gid::INVALID,
        }
    }

    #[test]
    fn fire_and_forget_parcel_executes_remotely() {
        let (p0, p1, actions) = two_ports();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let act = actions.register(
            "bump",
            Arc::new(move |args| {
                let v: u64 = from_bytes(args)?;
                h.fetch_add(v, Ordering::SeqCst);
                Ok(Bytes::new())
            }),
        );
        p0.send_parcel(plain_parcel(1, act, to_bytes(&5u64)));
        assert!(pump_until(
            &[&p0, &p1],
            || hits.load(Ordering::SeqCst) == 5,
            Duration::from_secs(2)
        ));
        assert_eq!(p0.stats().parcels_sent.load(Ordering::SeqCst), 1);
        assert_eq!(p1.stats().parcels_received.load(Ordering::SeqCst), 1);
        assert_eq!(p1.stats().messages_received.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn continuation_result_comes_back() {
        let (p0, p1, actions) = two_ports();
        let double = actions.register(
            "double",
            Arc::new(|args| {
                let v: u64 = from_bytes(args)?;
                Ok(to_bytes(&(v * 2)))
            }),
        );
        // Register a set-lco action capturing results on locality 0.
        let results: Arc<parking_lot::Mutex<Vec<(Gid, u64)>>> =
            Arc::new(parking_lot::Mutex::new(Vec::new()));
        let r = Arc::clone(&results);
        let set_lco = actions.register(
            "set-lco",
            Arc::new(move |args| {
                let (gid, payload) = decode_continuation_args(args)?;
                r.lock().push((gid, from_bytes(payload)?));
                Ok(Bytes::new())
            }),
        );
        p0.set_continuation_action(set_lco);
        p1.set_continuation_action(set_lco);

        let cont = Gid::from_parts(0, 99);
        let mut parcel = plain_parcel(1, double, to_bytes(&21u64));
        parcel.continuation = cont;
        p0.send_parcel(parcel);
        assert!(pump_until(
            &[&p0, &p1],
            || !results.lock().is_empty(),
            Duration::from_secs(2)
        ));
        assert_eq!(results.lock()[0], (cont, 42));
    }

    #[test]
    fn interceptor_captures_flagged_action_only() {
        struct Capture {
            held: parking_lot::Mutex<Vec<Parcel>>,
        }
        impl ParcelInterceptor for Capture {
            fn submit(&self, parcel: Parcel) {
                self.held.lock().push(parcel);
            }
            fn flush(&self) {}
        }
        let (p0, _p1, actions) = two_ports();
        let flagged = actions.register("flagged", Arc::new(|_| Ok(Bytes::new())));
        let normal = actions.register("normal", Arc::new(|_| Ok(Bytes::new())));
        let cap = Arc::new(Capture {
            held: parking_lot::Mutex::new(Vec::new()),
        });
        p0.set_interceptor(flagged, cap.clone());

        p0.send_parcel(plain_parcel(1, flagged, Bytes::new()));
        p0.send_parcel(plain_parcel(1, normal, Bytes::new()));
        // The flagged parcel sits in the interceptor, the normal one in
        // the egress queue.
        assert_eq!(cap.held.lock().len(), 1);
        assert_eq!(p0.egress_backlog(), 1);
        assert!(p0.clear_interceptor(flagged));
        assert!(!p0.clear_interceptor(flagged));
    }

    #[test]
    fn batch_emission_travels_as_one_coalesced_message() {
        let (p0, p1, actions) = two_ports();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let act = actions.register(
            "inc",
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            }),
        );
        let parcels: Vec<Parcel> = (0..10)
            .map(|i| {
                let mut p = plain_parcel(1, act, Bytes::new());
                p.id = i + 1;
                p
            })
            .collect();
        p0.emit(1, parcels.into());
        assert!(pump_until(
            &[&p0, &p1],
            || count.load(Ordering::SeqCst) == 10,
            Duration::from_secs(2)
        ));
        // One message on the wire, ten parcels decoded.
        assert_eq!(p1.stats().messages_received.load(Ordering::SeqCst), 1);
        assert_eq!(p1.stats().parcels_received.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn coalesced_message_spawns_as_one_batch() {
        let (p0, p1, actions) = two_ports();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let act = actions.register(
            "inc",
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            }),
        );
        // Record each batch handed over; run the tasks inline.
        let batch_sizes = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let sizes = Arc::clone(&batch_sizes);
        p1.set_batch_spawner(Arc::new(move |fs| {
            sizes.lock().push(fs.len());
            for f in fs.drain(..) {
                f();
            }
        }));
        let parcels: Vec<Parcel> = (0..10)
            .map(|i| {
                let mut p = plain_parcel(1, act, Bytes::new());
                p.id = i + 1;
                p
            })
            .collect();
        p0.emit(1, parcels.into());
        assert!(pump_until(
            &[&p0, &p1],
            || count.load(Ordering::SeqCst) == 10,
            Duration::from_secs(2)
        ));
        // One coalesced message → exactly one batch of all ten parcels.
        assert_eq!(batch_sizes.lock().as_slice(), &[10]);
    }

    #[test]
    fn direct_actions_stay_inline_under_batch_spawner() {
        let (p0, p1, actions) = two_ports();
        let spawned = Arc::new(AtomicU64::new(0));
        let direct_hits = Arc::new(AtomicU64::new(0));
        let task_hits = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&direct_hits);
        let direct = actions.register(
            "direct",
            Arc::new(move |_| {
                d.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            }),
        );
        let t = Arc::clone(&task_hits);
        let tasky = actions.register(
            "tasky",
            Arc::new(move |_| {
                t.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            }),
        );
        p1.set_direct(direct);
        let sp = Arc::clone(&spawned);
        p1.set_batch_spawner(Arc::new(move |fs| {
            sp.fetch_add(fs.len() as u64, Ordering::SeqCst);
            for f in fs.drain(..) {
                f();
            }
        }));
        let mut parcels = Vec::new();
        for i in 0..6u64 {
            let act = if i % 2 == 0 { direct } else { tasky };
            let mut p = plain_parcel(1, act, Bytes::new());
            p.id = i + 1;
            parcels.push(p);
        }
        p0.emit(1, parcels.into());
        assert!(pump_until(
            &[&p0, &p1],
            || direct_hits.load(Ordering::SeqCst) == 3 && task_hits.load(Ordering::SeqCst) == 3,
            Duration::from_secs(2)
        ));
        // Only the non-direct half went through the batch spawner.
        assert_eq!(spawned.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn coalesced_without_batch_spawner_falls_back_per_parcel() {
        let (p0, p1, actions) = two_ports();
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        let act = actions.register(
            "inc",
            Arc::new(move |_| {
                c.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            }),
        );
        // two_ports installs only the per-parcel inline spawner.
        let parcels: Vec<Parcel> = (0..5)
            .map(|i| {
                let mut p = plain_parcel(1, act, Bytes::new());
                p.id = i + 1;
                p
            })
            .collect();
        p0.emit(1, parcels.into());
        assert!(pump_until(
            &[&p0, &p1],
            || count.load(Ordering::SeqCst) == 5,
            Duration::from_secs(2)
        ));
    }

    #[test]
    fn unknown_action_is_dropped_not_fatal() {
        let (p0, p1, _actions) = two_ports();
        p0.send_parcel(plain_parcel(1, ActionId(999), Bytes::new()));
        assert!(pump_until(
            &[&p0, &p1],
            || p1.stats().dropped.load(Ordering::SeqCst) == 1,
            Duration::from_secs(2)
        ));
    }

    #[test]
    fn handler_decode_failure_is_dropped() {
        let (p0, p1, actions) = two_ports();
        let act = actions.register(
            "needs-u64",
            Arc::new(|args| {
                let v: u64 = from_bytes(args)?;
                Ok(to_bytes(&v))
            }),
        );
        p0.send_parcel(plain_parcel(1, act, Bytes::new()));
        assert!(pump_until(
            &[&p0, &p1],
            || p1.stats().dropped.load(Ordering::SeqCst) == 1,
            Duration::from_secs(2)
        ));
    }

    #[test]
    fn parcel_ids_are_assigned_uniquely() {
        let (p0, _p1, actions) = two_ports();
        struct Keep(parking_lot::Mutex<Vec<u64>>);
        impl ParcelInterceptor for Keep {
            fn submit(&self, p: Parcel) {
                self.0.lock().push(p.id);
            }
            fn flush(&self) {}
        }
        let act = actions.register("ids", Arc::new(|_| Ok(Bytes::new())));
        let keep = Arc::new(Keep(parking_lot::Mutex::new(Vec::new())));
        p0.set_interceptor(act, keep.clone());
        for _ in 0..100 {
            p0.send_parcel(plain_parcel(1, act, Bytes::new()));
        }
        let ids = keep.0.lock();
        let unique: std::collections::HashSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), 100);
        assert!(ids.iter().all(|&id| id != 0));
    }

    #[test]
    fn continuation_args_roundtrip() {
        let gid = Gid::from_parts(3, 0xabcdef);
        let payload = Bytes::from_static(b"result");
        let encoded = encode_continuation_args(gid, &payload);
        let (g, p) = decode_continuation_args(encoded).unwrap();
        assert_eq!(g, gid);
        assert_eq!(p.as_ref(), b"result");
        assert!(decode_continuation_args(Bytes::from_static(b"xx")).is_err());
    }

    #[test]
    fn flush_interceptors_reaches_every_interceptor() {
        struct Flushy(AtomicU64);
        impl ParcelInterceptor for Flushy {
            fn submit(&self, _p: Parcel) {}
            fn flush(&self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (p0, _p1, actions) = two_ports();
        let a = actions.register("a1", Arc::new(|_| Ok(Bytes::new())));
        let b = actions.register("b1", Arc::new(|_| Ok(Bytes::new())));
        let fa = Arc::new(Flushy(AtomicU64::new(0)));
        let fb = Arc::new(Flushy(AtomicU64::new(0)));
        p0.set_interceptor(a, fa.clone());
        p0.set_interceptor(b, fb.clone());
        p0.flush_interceptors();
        assert_eq!(fa.0.load(Ordering::SeqCst), 1);
        assert_eq!(fb.0.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn egress_drain_budget_bounds_one_pump_sweep() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let actions = ActionRegistry::new();
        let act = actions.register("noop", Arc::new(|_| Ok(Bytes::new())));
        let p0 = ParcelPort::with_config(
            0,
            Arc::new(fabric.port(0)),
            Arc::clone(&actions),
            ParcelPortConfig {
                egress_drain_budget: 2,
                ..ParcelPortConfig::default()
            },
        );
        assert_eq!(p0.config().egress_drain_budget, 2);
        for _ in 0..5 {
            p0.send_parcel(plain_parcel(1, act, Bytes::new()));
        }
        assert_eq!(p0.egress_backlog(), 5);
        p0.pump();
        // One sweep encodes exactly the configured budget.
        assert_eq!(p0.stats().messages_sent.load(Ordering::SeqCst), 2);
        assert_eq!(p0.egress_backlog(), 3);
    }

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

    #[test]
    fn action_class_marks_and_stamps_messages() {
        let (p0, _p1, actions) = two_ports();
        let be = actions.register_with_class(
            "be",
            DeliveryClass::BestEffort,
            Arc::new(|_| Ok(Bytes::new())),
        );
        let co = actions.register_with_class(
            "co",
            DeliveryClass::Coalesce,
            Arc::new(|_| Ok(Bytes::new())),
        );
        let ll = actions.register("ll", Arc::new(|_| Ok(Bytes::new())));
        p0.set_action_class(be, DeliveryClass::BestEffort);
        p0.set_action_class(co, DeliveryClass::Coalesce);
        p0.set_action_class(ll, DeliveryClass::Lossless);
        assert_eq!(p0.action_class(be), DeliveryClass::BestEffort);
        assert_eq!(p0.action_class(co), DeliveryClass::Coalesce);
        assert_eq!(p0.action_class(ll), DeliveryClass::Lossless);
    }

    #[test]
    fn best_effort_sheds_past_the_backlog_bound() {
        let fabric = SimTransport::new(2, LinkModel::zero());
        let actions = ActionRegistry::new();
        let be = actions.register_with_class(
            "be",
            DeliveryClass::BestEffort,
            Arc::new(|_| Ok(Bytes::new())),
        );
        let p0 = ParcelPort::with_config(
            0,
            Arc::new(fabric.port(0)),
            Arc::clone(&actions),
            ParcelPortConfig {
                egress_drain_budget: 8,
                best_effort_backlog: 4,
                ..ParcelPortConfig::default()
            },
        );
        p0.set_action_class(be, DeliveryClass::BestEffort);
        for _ in 0..10 {
            p0.send_parcel(plain_parcel(1, be, Bytes::new()));
        }
        // The queue is capped at the bound; the overflow was dropped and
        // accounted on the transport's BestEffort counter.
        assert_eq!(p0.egress_backlog(), 4);
        assert_eq!(
            p0.net().stats().best_effort_dropped.load(Ordering::SeqCst),
            6
        );
    }

    #[test]
    fn best_effort_duplicates_are_deduplicated_on_receive() {
        let (p0, p1, actions) = two_ports();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let be = actions.register_with_class(
            "be",
            DeliveryClass::BestEffort,
            Arc::new(move |_| {
                h.fetch_add(1, Ordering::SeqCst);
                Ok(Bytes::new())
            }),
        );
        p0.set_action_class(be, DeliveryClass::BestEffort);
        p1.set_action_class(be, DeliveryClass::BestEffort);
        p0.net()
            .set_fault_plan(Some(Arc::new(rpx_net::FaultPlan::duplicate_every(1))));
        for _ in 0..10 {
            p0.send_parcel(plain_parcel(1, be, Bytes::new()));
        }
        // Every message is wire-duplicated; dedup delivers each once.
        assert!(pump_until(
            &[&p0, &p1],
            || p1.stats().parcels_received.load(Ordering::SeqCst) == 20,
            Duration::from_secs(2)
        ));
        assert_eq!(hits.load(Ordering::SeqCst), 10, "duplicates leaked");
        assert_eq!(
            p1.net()
                .stats()
                .duplicates_suppressed
                .load(Ordering::SeqCst),
            10
        );
    }

    #[test]
    fn coalesce_delivers_only_monotone_latest_values() {
        let (p0, p1, actions) = two_ports();
        let got = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let g = Arc::clone(&got);
        let co = actions.register_with_class(
            "co",
            DeliveryClass::Coalesce,
            Arc::new(move |args| {
                let v: u64 = from_bytes(args)?;
                g.lock().push(v);
                Ok(Bytes::new())
            }),
        );
        p0.set_action_class(co, DeliveryClass::Coalesce);
        p1.set_action_class(co, DeliveryClass::Coalesce);
        // Reorder the wire: every 3rd message is displaced.
        p0.net()
            .set_fault_plan(Some(Arc::new(rpx_net::FaultPlan::reorder_window(3))));
        for v in 1..=20u64 {
            p0.send_parcel(plain_parcel(1, co, to_bytes(&v)));
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while Instant::now() < deadline {
            p0.pump();
            p1.pump();
        }
        let got = got.lock();
        assert!(!got.is_empty());
        // Strictly increasing: a displaced stale value never executes.
        let got: Vec<u64> = got.clone();
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "stale value ran: {got:?}"
        );
        assert_eq!(*got.last().unwrap(), 20, "final value must arrive");
        assert!(
            p1.stats().coalesce_stale_dropped.load(Ordering::SeqCst) > 0,
            "reordering should have produced at least one stale drop"
        );
    }

    #[test]
    fn mailbox_note_hooks_feed_port_stats() {
        let (p0, _p1, _actions) = two_ports();
        let path: &dyn SendPath = p0.as_ref();
        path.note_mailbox_replaced();
        path.note_mailbox_replaced();
        path.note_mailbox_flushed();
        assert_eq!(
            p0.stats().coalesce_mailbox_replaced.load(Ordering::SeqCst),
            2
        );
        assert_eq!(
            p0.stats().coalesce_mailbox_flushed.load(Ordering::SeqCst),
            1
        );
    }

    #[test]
    fn unintercepted_sends_deliver_in_steady_state() {
        // Unintercepted parcels travel as inline single-parcel batches —
        // no backing buffer exists, so there is nothing to leak or pool.
        let (p0, p1, actions) = two_ports();
        let act = actions.register("plain", Arc::new(|_| Ok(Bytes::new())));
        for _ in 0..50 {
            p0.send_parcel(plain_parcel(1, act, Bytes::new()));
        }
        assert!(pump_until(
            &[&p0, &p1],
            || p1.stats().parcels_received.load(Ordering::Relaxed) == 50,
            Duration::from_secs(2)
        ));
    }

    /// A three-locality port with a tight backpressure watermark and no
    /// pumping, so backlogs build deterministically.
    fn watermarked_port(
        watermark: usize,
        actions: &Arc<ActionRegistry>,
    ) -> (Arc<ParcelPort>, Arc<SimTransport>) {
        let fabric = SimTransport::new(3, LinkModel::zero());
        let p0 = ParcelPort::with_config(
            0,
            Arc::new(fabric.port(0)),
            Arc::clone(actions),
            ParcelPortConfig {
                backpressure_watermark: Some(watermark),
                backpressure_block_us: 200,
                ..ParcelPortConfig::default()
            },
        );
        p0.set_spawner(inline_spawner());
        (p0, fabric)
    }

    #[test]
    fn backpressure_sheds_best_effort_per_destination() {
        let actions = ActionRegistry::new();
        let be = actions.register_with_class(
            "be",
            DeliveryClass::BestEffort,
            Arc::new(|_| Ok(Bytes::new())),
        );
        let (p0, _fabric) = watermarked_port(2, &actions);
        p0.set_action_class(be, DeliveryClass::BestEffort);
        for _ in 0..6 {
            p0.send_parcel(plain_parcel(1, be, Bytes::new()));
        }
        // dst 1 capped at the watermark, overflow shed and accounted.
        assert_eq!(p0.stats().backpressure_events.load(Ordering::SeqCst), 4);
        assert_eq!(p0.stats().backpressure_shed.load(Ordering::SeqCst), 4);
        assert_eq!(p0.egress_backlog(), 2);
        // A different destination is unaffected by dst 1's backlog.
        p0.send_parcel(plain_parcel(2, be, Bytes::new()));
        assert_eq!(p0.stats().backpressure_shed.load(Ordering::SeqCst), 4);
        assert_eq!(p0.egress_backlog(), 3);
        // Exactness: sent == queued + shed, and the per-destination
        // breakdown attributes every shed to the saturated pair.
        assert_eq!(
            p0.stats().parcels_sent.load(Ordering::SeqCst),
            p0.egress_backlog() as u64 + p0.stats().backpressure_shed.load(Ordering::SeqCst)
        );
        assert_eq!(p0.stats().sheds_to(1), 4);
        assert_eq!(p0.stats().sheds_to(2), 0);
    }

    #[test]
    fn backpressure_blocks_lossless_briefly_but_never_sheds() {
        let actions = ActionRegistry::new();
        let ll = actions.register("ll", Arc::new(|_| Ok(Bytes::new())));
        let (p0, _fabric) = watermarked_port(1, &actions);
        for _ in 0..4 {
            p0.send_parcel(plain_parcel(1, ll, Bytes::new()));
        }
        // All four queued: Lossless is delayed, never dropped.
        assert_eq!(p0.egress_backlog(), 4);
        assert_eq!(p0.stats().backpressure_events.load(Ordering::SeqCst), 3);
        assert_eq!(p0.stats().backpressure_shed.load(Ordering::SeqCst), 0);
        assert!(
            p0.stats().backpressure_blocked_ns.load(Ordering::SeqCst) > 0,
            "watermark hits must account blocked time"
        );
    }

    #[test]
    fn backpressure_disabled_by_default() {
        let (p0, _p1, actions) = two_ports();
        let act = actions.register("plain2", Arc::new(|_| Ok(Bytes::new())));
        for _ in 0..100 {
            p0.send_parcel(plain_parcel(1, act, Bytes::new()));
        }
        assert_eq!(p0.stats().backpressure_events.load(Ordering::SeqCst), 0);
        assert_eq!(p0.egress_backlog(), 100);
    }
}
