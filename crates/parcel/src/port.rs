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
//! the interceptor table, the direct-action set and the registry's class
//! table are read with plain `Acquire` loads ([`SlotTable`]/[`BitTable`]),
//! per-class admission is one call into the private `class` module, hooks
//! live in [`ArcCell`]s, single-parcel batches store their parcel inline
//! (no buffer at all), and the egress queue is drained in one sweep per pump.
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
use rpx_net::{Message, MessageKind, TransportPort};
use rpx_serialize::{ArchiveReader, ArchiveWriter, WireError};
use rpx_util::sync::{ArcCell, BitTable, SlotTable};
use rpx_util::{IdAllocator, LogHistogram};

use crate::action::{ActionId, ActionRegistry};
use crate::batch::ParcelBatch;
use crate::class::{self, RecvFilters, SendStage};
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
    /// Parcels this interceptor holds that have not yet reached the
    /// [`SendPath`] (quiescence counts them as in flight).
    fn pending(&self) -> usize {
        0
    }
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
    /// Send-side sheds per destination locality (every cause the `class`
    /// ledger books at submit or pump time) — the per-endpoint-pair
    /// breakdown behind the exact `delivered + shed == sent` accounting.
    pub(crate) shed_by_dest: Mutex<HashMap<u32, u64>>,
}

impl ParcelPortStats {
    /// BestEffort parcels bound for `dst` that this port shed on its send
    /// side: at the watermark, at the global egress bound, or at pump time
    /// against a backed-up transport.
    pub fn sheds_to(&self, dst: u32) -> u64 {
        self.shed_by_dest.lock().get(&dst).copied().unwrap_or(0)
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

/// Egress entries encoded per pump sweep: bounds the per-poll latency of
/// the background thread (the paper's HPX analogue drains its parcel
/// queues in similarly bounded chunks). A constant, not an option: nothing
/// outside unit tests ever set another value.
pub(crate) const EGRESS_DRAIN_BUDGET: usize = 8;

/// Tunables of a [`ParcelPort`], plumbed down from the cluster builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParcelPortConfig {
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
    /// Lossless/Coalesce submitters block for at most 500 µs waiting for
    /// the backlog to drain (time counted in `backpressure_blocked_ns`),
    /// then proceed. `None` disables the watermark (the default).
    pub backpressure_watermark: Option<usize>,
}

impl Default for ParcelPortConfig {
    fn default() -> Self {
        ParcelPortConfig {
            best_effort_backlog: 1024,
            backpressure_watermark: None,
        }
    }
}

pub(crate) struct Inner {
    locality: u32,
    pub(crate) actions: Arc<ActionRegistry>,
    pub(crate) net: Arc<dyn TransportPort>,
    pub(crate) config: ParcelPortConfig,
    /// Per-action send hooks, indexed by `ActionId` — lock-free reads on
    /// every `send_parcel`.
    interceptors: SlotTable<dyn ParcelInterceptor>,
    /// Actions executed inline on the receive path instead of being
    /// spawned as tasks (HPX "direct actions"); used for cheap runtime
    /// internals like continuation delivery.
    direct_actions: BitTable,
    /// Receive-side BestEffort dedup and Coalesce newest-wins state.
    pub(crate) recv: RecvFilters,
    pub(crate) egress: EgressQueue,
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
    pub(crate) stats: ParcelPortStats,
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
        let inner = Arc::new(Inner {
            locality,
            actions,
            net,
            config,
            interceptors: SlotTable::new(),
            direct_actions: BitTable::new(),
            recv: RecvFilters::default(),
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

    /// Parcels held by the installed interceptors — coalescing queues
    /// waiting for their flush timer included.
    pub fn interceptor_pending(&self) -> usize {
        let mut pending = 0;
        self.inner
            .interceptors
            .for_each(|_, i| pending += i.pending());
        pending
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
            let taken = self
                .inner
                .egress
                .drain_into(&mut drain, EGRESS_DRAIN_BUDGET);
            if taken == 0 {
                self.inner.processing.fetch_sub(1, Ordering::Release);
                return;
            }
            did_work = true;
            for (dst, batch) in drain.drain(..) {
                // Batches are per-action (interceptors queue one action;
                // unintercepted parcels travel as singles), so the first
                // parcel's class is the message's class.
                let class = self.inner.actions.class(batch[0].action);
                if !class::admit(&self.inner, SendStage::Pump, dst, class, batch.len()) {
                    // Shed rather than grow a backed-up wire: accounted
                    // per parcel, never owed to quiescence.
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

/// Hand `parcel` to its action's interceptor, or straight to egress.
fn route_parcel(inner: &Inner, parcel: Parcel) {
    let class = inner.actions.class(parcel.action);
    if !class::admit(inner, SendStage::Submit, parcel.dest_locality, class, 1) {
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

/// Deliver one decoded parcel: inline if direct, else one spawned task.
fn deliver_single(inner: &Arc<Inner>, parcel: Parcel) {
    if !class::admit_recv(inner, &parcel) {
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
        if !class::admit_recv(inner, &parcel) {
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
    use rpx_net::{DeliveryClass, LinkModel, SimTransport, Transport};
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
        let p0 = ParcelPort::new(0, fabric.port(0), Arc::clone(&actions));
        let p1 = ParcelPort::new(1, fabric.port(1), Arc::clone(&actions));
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
    fn one_pump_sweep_encodes_at_most_the_drain_budget() {
        let (p0, _p1, actions) = two_ports();
        let act = actions.register("noop", Arc::new(|_| Ok(Bytes::new())));
        for _ in 0..EGRESS_DRAIN_BUDGET + 3 {
            p0.send_parcel(plain_parcel(1, act, Bytes::new()));
        }
        assert_eq!(p0.egress_backlog(), EGRESS_DRAIN_BUDGET + 3);
        p0.pump();
        // One sweep encodes exactly the budget.
        assert_eq!(
            p0.stats().messages_sent.load(Ordering::SeqCst),
            EGRESS_DRAIN_BUDGET as u64
        );
        assert_eq!(p0.egress_backlog(), 3);
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
            fabric.port(0),
            Arc::clone(&actions),
            ParcelPortConfig {
                best_effort_backlog: 4,
                ..ParcelPortConfig::default()
            },
        );
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
            fabric.port(0),
            Arc::clone(actions),
            ParcelPortConfig {
                backpressure_watermark: Some(watermark),
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
