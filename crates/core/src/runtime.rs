//! The runtime: a cluster of localities — all in one process (the
//! default), or one process per locality when booted with a
//! [`Topology`] (rank mode).
//!
//! In rank mode `Runtime` hosts a *single* [`Locality`] whose transport
//! addresses remote ranks through the boot handshake's address book; the
//! control plane (registration-hash verification, barriers) rides
//! [`rpx_net::MessageKind::Control`] messages over the same wire.

use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;

use rpx_agas::{AgasService, Gid, ObjectRegistry};
use rpx_counters::{
    CounterError, CounterPath, CounterRegistry, CounterValue, TelemetryConfig, TelemetryService,
    TimeSeries,
};
use rpx_lco::Promise;
use rpx_metrics::MetricsReader;
use rpx_net::{
    BootstrapMode, DeliveryClass, LinkModel, ReliabilityConfig, ReliablePort, ReliableTransport,
    TcpBootstrap, Topology, Transport, TransportKind,
};
use rpx_parcel::{
    port::decode_continuation_args, ActionId, ActionRegistry, ParcelPort, ParcelPortConfig,
};
use rpx_serialize::{from_bytes, to_bytes, Wire};
use rpx_threading::{register_thread_counters, BackgroundWork, Scheduler, SchedulerConfig};
use rpx_util::TimerService;

use crate::coalescing::CoalescingControl;
use crate::context::Ctx;
use crate::error::RuntimeError;

/// Runtime construction parameters.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of localities (simulated nodes).
    pub localities: u32,
    /// Scheduler worker threads per locality.
    pub workers_per_locality: usize,
    /// Which transport backend connects the localities: the simulated
    /// fabric with a [`LinkModel`] (default), real loopback TCP, or TCP
    /// with shared-memory rings towards same-host ranks.
    pub transport: TransportKind,
    /// End-to-end reliable delivery (sequence numbers, acks,
    /// retransmission with backoff, duplicate suppression — see
    /// [`rpx_net::reliability`]). `None` (default) runs the raw
    /// transport: loss surfaces as timeouts, exactly as before. `Some`
    /// wraps every port in a [`rpx_net::ReliablePort`]; retransmission
    /// work is driven by the same pump loops and lands in the
    /// background-work account.
    pub reliability: Option<ReliabilityConfig>,
    /// Backlog bound for [`DeliveryClass::BestEffort`](rpx_net::DeliveryClass)
    /// traffic: when a best-effort parcel arrives while this many entries
    /// are already queued for egress (or unsent at the transport), it is
    /// dropped on the floor and accounted in
    /// `/network/best-effort-dropped` — best-effort traffic may shed
    /// under pressure, never stall quiescence.
    pub best_effort_backlog: usize,
    /// Per-destination egress backpressure watermark: when one
    /// destination's egress backlog reaches this many entries, admission
    /// control engages for further parcels to that destination —
    /// BestEffort traffic is shed (counted in
    /// `/network/backpressure-shed`), Lossless/Coalesce submitters block
    /// briefly (time in `/network/backpressure-blocked-ns`) before being
    /// admitted. `None` (the default) disables the watermark.
    pub backpressure_watermark: Option<usize>,
    /// Idle park interval of scheduler workers.
    pub idle_park: Duration,
    /// Fixed CPU cost charged on the caller for every remote invocation
    /// (future setup, AGAS traffic, parcel construction). Calibrated to
    /// HPX's `hpx::async` cost on the paper's testbed (~1.5 µs); this is
    /// what makes inter-parcel gaps comparable to the paper's, so the
    /// `wait = 1 µs` sparse-bypass band of Fig. 8 reproduces.
    pub invocation_overhead: Duration,
    /// `None` (default): this process hosts *all* `localities` in one
    /// address space, exactly as before. `Some(topology)`: this process
    /// is one rank of a multi-process cluster — it hosts the single
    /// locality `topology.rank`, discovers its peers through the
    /// topology's [`BootstrapMode`], and `localities` is ignored in
    /// favour of `topology.num_localities`. Requires a TCP transport.
    pub topology: Option<Topology>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            localities: 2,
            workers_per_locality: 2,
            transport: TransportKind::default(),
            reliability: None,
            best_effort_backlog: ParcelPortConfig::default().best_effort_backlog,
            backpressure_watermark: ParcelPortConfig::default().backpressure_watermark,
            idle_park: Duration::from_micros(200),
            invocation_overhead: Duration::from_nanos(1_500),
            topology: None,
        }
    }
}

impl RuntimeConfig {
    /// A small, fast configuration for tests and doc examples: two
    /// localities, two workers each, a cheap link model.
    pub fn small_test() -> Self {
        RuntimeConfig {
            localities: 2,
            workers_per_locality: 2,
            transport: TransportKind::Sim(LinkModel {
                send_overhead: Duration::from_micros(2),
                recv_overhead: Duration::from_micros(1),
                per_byte: Duration::ZERO,
                latency: Duration::from_micros(1),
                eager_threshold: usize::MAX,
                rendezvous_extra: Duration::ZERO,
            }),
            reliability: None,
            best_effort_backlog: ParcelPortConfig::default().best_effort_backlog,
            backpressure_watermark: ParcelPortConfig::default().backpressure_watermark,
            idle_park: Duration::from_micros(200),
            invocation_overhead: Duration::ZERO,
            topology: None,
        }
    }
}

/// A typed handle to a registered action.
///
/// Cloneable and cheap; carries the action's wire id and phantom types of
/// its argument and result.
pub struct ActionHandle<A, R> {
    pub(crate) id: ActionId,
    pub(crate) name: Arc<str>,
    pub(crate) _marker: PhantomData<fn(A) -> R>,
}

impl<A, R> Clone for ActionHandle<A, R> {
    fn clone(&self) -> Self {
        ActionHandle {
            id: self.id,
            name: Arc::clone(&self.name),
            _marker: PhantomData,
        }
    }
}

impl<A, R> ActionHandle<A, R> {
    /// The action's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The action's wire id.
    pub fn id(&self) -> ActionId {
        self.id
    }
}

/// Default flush interval of the newest-wins mailbox behind
/// [`DeliveryClass::Coalesce`] actions.
const DEFAULT_COALESCE_INTERVAL: Duration = Duration::from_micros(100);

/// The unified action-registration builder ([`Runtime::action`]).
///
/// The single registration surface: it carries the action's delivery
/// contract from registration to the wire:
///
/// ```ignore
/// // A lossless request/response action (the default):
/// let get = rt.action("get").register(|(): ()| 42u64);
///
/// // A coalesced state-update whose intermediate values may be
/// // superseded — N updates per interval cost one wire record:
/// let sync = rt.action("sync")
///     .delivery(DeliveryClass::Coalesce)
///     .coalesce_interval(Duration::from_micros(250))
///     .with_locality()
///     .register(|here, v: u64| { /* apply v at `here` */ });
/// ```
#[must_use = "the builder registers nothing until .register(f) is called"]
pub struct ActionBuilder<'rt> {
    rt: &'rt Arc<Runtime>,
    name: String,
    class: DeliveryClass,
    coalesce_interval: Duration,
}

impl<'rt> ActionBuilder<'rt> {
    /// Set the action's delivery class (default
    /// [`DeliveryClass::Lossless`]).
    pub fn delivery(mut self, class: DeliveryClass) -> Self {
        self.class = class;
        self
    }

    /// Set the mailbox flush interval used when the class is
    /// [`DeliveryClass::Coalesce`] (default 100 µs). Ignored for other
    /// classes.
    pub fn coalesce_interval(mut self, interval: Duration) -> Self {
        self.coalesce_interval = interval;
        self
    }

    /// Switch to a handler that also receives the executing locality id
    /// (needed by workloads that index distributed state).
    pub fn with_locality(self) -> LocalityActionBuilder<'rt> {
        LocalityActionBuilder { inner: self }
    }

    /// Register the handler on every hosted locality; returns the typed
    /// handle. The handler runs on the destination locality inside a
    /// scheduler task, with its arguments deserialized from the parcel
    /// and its result serialized back (HPX_PLAIN_ACTION).
    ///
    /// # Panics
    /// Panics if the name is already registered.
    pub fn register<A, R>(self, f: impl Fn(A) -> R + Send + Sync + 'static) -> ActionHandle<A, R>
    where
        A: Wire + Send + 'static,
        R: Wire + Send + 'static,
    {
        let f = Arc::new(f);
        let id = self.rt.register_classed(
            &self.name,
            self.class,
            self.coalesce_interval,
            move |_here| {
                let f = Arc::clone(&f);
                Arc::new(move |args: Bytes| {
                    let args: A = from_bytes(args)?;
                    Ok(to_bytes(&f(args)))
                })
            },
        );
        ActionHandle {
            id,
            name: Arc::from(self.name.as_str()),
            _marker: PhantomData,
        }
    }
}

/// [`ActionBuilder`] continuation for handlers that receive the executing
/// locality id ([`ActionBuilder::with_locality`]).
#[must_use = "the builder registers nothing until .register(f) is called"]
pub struct LocalityActionBuilder<'rt> {
    inner: ActionBuilder<'rt>,
}

impl LocalityActionBuilder<'_> {
    /// Set the action's delivery class (default
    /// [`DeliveryClass::Lossless`]).
    pub fn delivery(mut self, class: DeliveryClass) -> Self {
        self.inner.class = class;
        self
    }

    /// Set the mailbox flush interval used when the class is
    /// [`DeliveryClass::Coalesce`] (default 100 µs).
    pub fn coalesce_interval(mut self, interval: Duration) -> Self {
        self.inner.coalesce_interval = interval;
        self
    }

    /// Register the locality-aware handler on every hosted locality.
    ///
    /// # Panics
    /// Panics if the name is already registered.
    pub fn register<A, R>(
        self,
        f: impl Fn(u32, A) -> R + Send + Sync + 'static,
    ) -> ActionHandle<A, R>
    where
        A: Wire + Send + 'static,
        R: Wire + Send + 'static,
    {
        let b = self.inner;
        let f = Arc::new(f);
        let id =
            b.rt.register_classed(&b.name, b.class, b.coalesce_interval, move |here| {
                let f = Arc::clone(&f);
                Arc::new(move |args: Bytes| {
                    let args: A = from_bytes(args)?;
                    Ok(to_bytes(&f(here, args)))
                })
            });
        ActionHandle {
            id,
            name: Arc::from(b.name.as_str()),
            _marker: PhantomData,
        }
    }
}

/// The table of pending local LCOs awaiting remote results.
///
/// Each entry remembers the destination locality its parcel went to so a
/// reported delivery failure (remote rank died, retransmission gave up)
/// can break exactly the promises that will never be set — waiters see
/// [`rpx_lco::LcoError::BrokenPromise`] instead of hanging forever.
pub(crate) struct LcoTable {
    pending: Mutex<HashMap<Gid, (u32, Promise<Bytes>)>>,
    /// Each entry's GID is bound in AGAS for as long as the entry lives.
    agas: Arc<AgasService>,
}

impl LcoTable {
    fn new(agas: Arc<AgasService>) -> Self {
        LcoTable {
            pending: Mutex::new(HashMap::new()),
            agas,
        }
    }

    pub(crate) fn insert(&self, gid: Gid, dest: u32, promise: Promise<Bytes>) {
        self.pending.lock().insert(gid, (dest, promise));
    }

    fn complete(&self, gid: Gid, value: Bytes) -> bool {
        let entry = self.pending.lock().remove(&gid);
        match entry {
            Some((_, mut promise)) => {
                let _ = self.agas.unbind(gid);
                promise.set_ref(value).is_ok()
            }
            None => false,
        }
    }

    /// Drop every pending promise whose parcel targeted `dest`. Dropping
    /// a promise without setting it breaks it for all waiters.
    fn fail_dest(&self, dest: u32) -> usize {
        let mut pending = self.pending.lock();
        let before = pending.len();
        pending.retain(|gid, (d, _)| {
            let keep = *d != dest;
            if !keep {
                let _ = self.agas.unbind(*gid);
            }
            keep
        });
        before - pending.len()
    }

    #[cfg(test)]
    pub(crate) fn pending_count(&self) -> usize {
        self.pending.lock().len()
    }
}

/// One simulated node: scheduler + parcel port + counters + local state.
pub struct Locality {
    id: u32,
    pub(crate) scheduler: Arc<Scheduler>,
    pub(crate) port: Arc<ParcelPort>,
    pub(crate) registry: Arc<CounterRegistry>,
    pub(crate) lco_table: Arc<LcoTable>,
    pub(crate) objects: Arc<ObjectRegistry>,
    actions: Arc<ActionRegistry>,
}

impl Locality {
    /// This locality's id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The locality's performance counter registry.
    pub fn counters(&self) -> &Arc<CounterRegistry> {
        &self.registry
    }

    /// The locality's object registry.
    pub fn objects(&self) -> &Arc<ObjectRegistry> {
        &self.objects
    }

    /// The locality's parcel-level traffic statistics: backpressure
    /// counters plus the per-destination shed breakdown behind exact
    /// `delivered + shed == sent` endpoint-pair accounting.
    pub fn parcel_stats(&self) -> &rpx_parcel::port::ParcelPortStats {
        self.port.stats()
    }

    /// Cooperative progress for a blocked waiter: pump the parcel port
    /// (charged as in-task background time), and if the network is dry,
    /// help execute one pending scheduler task so single-worker
    /// configurations cannot deadlock on local work.
    pub(crate) fn cooperative_pump(&self) -> bool {
        let t0 = std::time::Instant::now();
        let pumped = self.port.pump();
        // (The pump itself is the parcel port's send/receive engine.)
        self.scheduler.stats().add_in_task_background(t0.elapsed());
        if pumped {
            return true;
        }
        self.scheduler.help_one()
    }
}

/// Expose a transport port's wire statistics as `/network/*` counters.
///
/// Byte counters measure frame bytes on the wire (header + payload), so
/// the simulated and TCP backends report comparable values.
fn register_network_counters(
    registry: &Arc<CounterRegistry>,
    port: Arc<dyn rpx_net::TransportPort>,
) {
    use std::sync::atomic::Ordering;
    let mk = |port: &Arc<dyn rpx_net::TransportPort>, read: fn(&rpx_net::PortStats) -> u64| {
        let port = Arc::clone(port);
        rpx_counters::CallbackCounter::new(move || CounterValue::Int(read(port.stats()) as i64))
    };
    registry.register_or_replace(
        "/network/messages-sent",
        mk(&port, |s| s.sent_messages.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/messages-received",
        mk(&port, |s| s.received_messages.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/bytes-sent",
        mk(&port, |s| s.sent_bytes.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/bytes-received",
        mk(&port, |s| s.received_bytes.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/decode-failures",
        mk(&port, |s| s.decode_failures.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/retransmits",
        mk(&port, |s| s.retransmits.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/acks-sent",
        mk(&port, |s| s.acks_sent.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/duplicates-suppressed",
        mk(&port, |s| s.duplicates_suppressed.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/delivery-failures",
        mk(&port, |s| s.delivery_failures.load(Ordering::Relaxed)),
    );
    // Best-effort parcels shed under egress pressure or dropped by wire
    // faults; never retransmitted, never counted against quiescence.
    registry.register_or_replace(
        "/network/best-effort-dropped",
        mk(&port, |s| s.best_effort_dropped.load(Ordering::Relaxed)),
    );
    // Event-loop backend internals (always zero on the simulated
    // fabric): poller dispatches, vectored read batches, frames flushed
    // by vectored writes.
    registry.register_or_replace(
        "/network/event-loop-wakeups",
        mk(&port, |s| s.event_wakeups.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/event-loop-readv-batches",
        mk(&port, |s| s.readv_batches.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/event-loop-writev-frames",
        mk(&port, |s| s.writev_frames.load(Ordering::Relaxed)),
    );
    // Shared-memory backend internals (zero unless the transport routed
    // same-host traffic over SPSC rings): frames delivered through a
    // ring, their wire-equivalent bytes, and doorbell wakeups handled by
    // pump threads.
    registry.register_or_replace(
        "/network/shm-messages",
        mk(&port, |s| s.shm_messages.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/shm-bytes",
        mk(&port, |s| s.shm_bytes.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/shm-doorbell-wakeups",
        mk(&port, |s| s.doorbell_wakeups.load(Ordering::Relaxed)),
    );
}

/// Expose a parcel port's statistics as `/parcels/*` counters: the plain
/// traffic counts plus the three hot-path log₂ histograms (coalescing
/// buffer occupancy at flush, wire payload bytes per message, decode →
/// spawn batch size).
fn register_parcel_counters(registry: &Arc<CounterRegistry>, port: &Arc<ParcelPort>) {
    use std::sync::atomic::Ordering;
    let mk = |port: &Arc<ParcelPort>, read: fn(&rpx_parcel::port::ParcelPortStats) -> u64| {
        let port = Arc::clone(port);
        rpx_counters::CallbackCounter::new(move || CounterValue::Int(read(port.stats()) as i64))
    };
    registry.register_or_replace(
        "/parcels/count/sent",
        mk(port, |s| s.parcels_sent.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/parcels/count/received",
        mk(port, |s| s.parcels_received.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/parcels/count/messages-sent",
        mk(port, |s| s.messages_sent.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/parcels/count/messages-received",
        mk(port, |s| s.messages_received.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/parcels/count/dropped",
        mk(port, |s| s.dropped.load(Ordering::Relaxed)),
    );
    // Coalesce-class mailbox traffic: values superseded before flushing
    // and slot flushes that actually hit the wire.
    registry.register_or_replace(
        "/parcels/coalesce-mailbox-replaced",
        mk(port, |s| {
            s.coalesce_mailbox_replaced.load(Ordering::Relaxed)
        }),
    );
    registry.register_or_replace(
        "/parcels/coalesce-mailbox-flushed",
        mk(port, |s| s.coalesce_mailbox_flushed.load(Ordering::Relaxed)),
    );
    // Egress backpressure accounting, exported under `/network/*` so
    // fleet aggregation groups it with the other wire-pressure signals.
    // All three are monotone counters: they can never wedge quiescence,
    // and per-rank dumps sum exactly (delivered + shed == sent holds per
    // endpoint pair).
    registry.register_or_replace(
        "/network/backpressure-events",
        mk(port, |s| s.backpressure_events.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/backpressure-shed",
        mk(port, |s| s.backpressure_shed.load(Ordering::Relaxed)),
    );
    registry.register_or_replace(
        "/network/backpressure-blocked-ns",
        mk(port, |s| s.backpressure_blocked_ns.load(Ordering::Relaxed)),
    );
    let stats = port.stats();
    registry.register_or_replace(
        "/parcels/flush-occupancy-histogram",
        rpx_counters::LogHistogramCounter::new(Arc::clone(&stats.flush_occupancy)),
    );
    registry.register_or_replace(
        "/parcels/wire-bytes-histogram",
        rpx_counters::LogHistogramCounter::new(Arc::clone(&stats.wire_bytes)),
    );
    registry.register_or_replace(
        "/parcels/spawn-batch-histogram",
        rpx_counters::LogHistogramCounter::new(Arc::clone(&stats.spawn_batch)),
    );
}

struct PortPump {
    port: Arc<ParcelPort>,
}

impl BackgroundWork for PortPump {
    fn run(&self) -> bool {
        self.port.pump()
    }
    fn name(&self) -> &str {
        "parcel-pump"
    }
}

/// Drives a cooperative [`TelemetryService`] from scheduler *aux*
/// background work: the sampling cost is charged to the scheduler's
/// accounting-excluded telemetry account (`/threads/telemetry-time`), so
/// the Eq. 1–4 integrals the sampler observes are not perturbed by the
/// act of observing them.
struct TelemetryTick {
    service: TelemetryService,
}

impl BackgroundWork for TelemetryTick {
    fn run(&self) -> bool {
        self.service.tick_if_due()
    }
    fn name(&self) -> &str {
        "telemetry-sampler"
    }
}

// Control-plane payload tags (first byte of a `MessageKind::Control`
// payload; all integers little-endian).
/// `[tag][rank u32][hash u64]` — the sender's registration-order hash.
const CTRL_REGHASH: u8 = 1;
/// `[tag][rank u32][gen u64]` — the sender arrived at barrier `gen`.
const CTRL_BARRIER_ARRIVE: u8 = 2;
/// `[tag][gen u64]` — rank 0 releases barrier `gen`.
const CTRL_BARRIER_RELEASE: u8 = 3;

/// Cross-rank control state: registration hashes received from peers,
/// barrier arrivals (rank 0) and releases (other ranks). Written by the
/// parcel port's control handler on the receive path; polled by
/// [`Runtime::verify_registration`] and [`Runtime::barrier`].
struct ControlPlane {
    peer_hashes: Mutex<HashMap<u32, u64>>,
    arrivals: Mutex<HashMap<u64, HashSet<u32>>>,
    released: Mutex<HashSet<u64>>,
    next_gen: AtomicU64,
    peers_connected: AtomicU64,
    /// Our own `(rank, hash)` once this rank has entered
    /// `verify_registration`. Receiving a reply-requested announcement
    /// after this point answers with the recorded hash, so a peer whose
    /// early announcements were all given up on by the reliable layer
    /// (boot skew) still completes even though we stopped broadcasting.
    announced: Mutex<Option<(u32, u64)>>,
}

impl ControlPlane {
    fn new() -> Self {
        ControlPlane {
            peer_hashes: Mutex::new(HashMap::new()),
            arrivals: Mutex::new(HashMap::new()),
            released: Mutex::new(HashSet::new()),
            next_gen: AtomicU64::new(0),
            peers_connected: AtomicU64::new(0),
            announced: Mutex::new(None),
        }
    }

    /// Parse one control payload. Unknown tags and short payloads are
    /// ignored (forward compatibility; never panic on wire input).
    ///
    /// Returns `Some((dst, payload))` when the message calls for a
    /// direct control reply (a registration announcement with the
    /// want-reply flag set, once we have announced ourselves). Replies
    /// never set want-reply, so reply traffic cannot echo.
    fn on_message(&self, payload: &[u8]) -> Option<(u32, Bytes)> {
        let le_u32 = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap());
        let le_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        match payload.first() {
            Some(&CTRL_REGHASH) if payload.len() >= 13 => {
                let rank = le_u32(&payload[1..5]);
                let hash = le_u64(&payload[5..13]);
                let want_reply = payload.get(13).is_some_and(|&b| b != 0);
                {
                    let mut hashes = self.peer_hashes.lock();
                    hashes.insert(rank, hash);
                    self.peers_connected
                        .store(hashes.len() as u64, Ordering::Release);
                }
                if want_reply {
                    if let Some((my_rank, my_hash)) = *self.announced.lock() {
                        return Some((rank, reghash_payload(my_rank, my_hash, false)));
                    }
                }
                None
            }
            Some(&CTRL_BARRIER_ARRIVE) if payload.len() >= 13 => {
                let rank = le_u32(&payload[1..5]);
                let gen = le_u64(&payload[5..13]);
                self.arrivals.lock().entry(gen).or_default().insert(rank);
                None
            }
            Some(&CTRL_BARRIER_RELEASE) if payload.len() >= 9 => {
                let gen = le_u64(&payload[1..9]);
                self.released.lock().insert(gen);
                None
            }
            _ => None,
        }
    }
}

fn reghash_payload(rank: u32, hash: u64, want_reply: bool) -> Bytes {
    let mut b = Vec::with_capacity(14);
    b.push(CTRL_REGHASH);
    b.extend_from_slice(&rank.to_le_bytes());
    b.extend_from_slice(&hash.to_le_bytes());
    b.push(u8::from(want_reply));
    Bytes::from(b)
}

fn barrier_arrive_payload(rank: u32, gen: u64) -> Bytes {
    let mut b = Vec::with_capacity(13);
    b.push(CTRL_BARRIER_ARRIVE);
    b.extend_from_slice(&rank.to_le_bytes());
    b.extend_from_slice(&gen.to_le_bytes());
    Bytes::from(b)
}

fn barrier_release_payload(gen: u64) -> Bytes {
    let mut b = Vec::with_capacity(9);
    b.push(CTRL_BARRIER_RELEASE);
    b.extend_from_slice(&gen.to_le_bytes());
    Bytes::from(b)
}

/// Scheduler background work that reaps reliability give-ups: when the
/// reliable port abandons delivery to a rank (it died or became
/// unreachable), every pending LCO whose parcel targeted that rank is
/// broken so waiters fail with `BrokenPromise` instead of hanging. The
/// failures themselves are parked for [`Runtime::delivery_failures`].
struct DeliveryFailureReaper {
    port: Arc<ReliablePort>,
    table: Arc<LcoTable>,
    sink: Arc<Mutex<Vec<rpx_net::DeliveryError>>>,
}

impl BackgroundWork for DeliveryFailureReaper {
    fn run(&self) -> bool {
        let failures = self.port.take_delivery_failures();
        if failures.is_empty() {
            return false;
        }
        let mut dsts: Vec<u32> = failures.iter().map(|f| f.dst).collect();
        dsts.sort_unstable();
        dsts.dedup();
        for dst in dsts {
            self.table.fail_dest(dst);
        }
        self.sink.lock().extend(failures);
        true
    }
    fn name(&self) -> &str {
        "delivery-failure-reaper"
    }
}

/// The cluster runtime: all localities in this process (default), or one
/// rank of a multi-process cluster (`topology` set).
pub struct Runtime {
    config: RuntimeConfig,
    agas: Arc<AgasService>,
    timer: Arc<TimerService>,
    /// The localities *hosted by this process*: all of them in the
    /// default mode, exactly one (rank) in multi-process mode.
    localities: Vec<Arc<Locality>>,
    /// Cluster-wide locality count (`== localities.len()` unless booted
    /// with a topology).
    num_localities: u32,
    /// Declared after `localities` so ports drop first; the TCP backend
    /// wakes and joins its event-loop pump thread when this Arc drops.
    transport: Arc<dyn Transport>,
    /// Typed handle kept alongside `transport` when reliability is on
    /// (drives the delivery-failure reaper and `delivery_failures`).
    reliable: Option<Arc<ReliableTransport>>,
    control: Arc<ControlPlane>,
    delivery_failures: Arc<Mutex<Vec<rpx_net::DeliveryError>>>,
    /// Guards action registration so ids stay aligned across localities.
    registration: Mutex<()>,
    /// Per-locality telemetry samplers, started on demand
    /// ([`Runtime::start_telemetry`]) and stopped at shutdown.
    telemetry: Mutex<HashMap<u32, TelemetryService>>,
    shut_down: std::sync::atomic::AtomicBool,
}

impl Runtime {
    /// Boot a runtime.
    ///
    /// # Panics
    /// Panics if boot fails (bad config, socket bind, bootstrap
    /// handshake). Use [`Runtime::try_new`] for a typed error.
    pub fn new(config: RuntimeConfig) -> Arc<Self> {
        match Self::try_new(config) {
            Ok(rt) => rt,
            Err(e) => panic!("{e}"),
        }
    }

    /// Boot a runtime, returning boot problems as [`RuntimeError`].
    pub fn try_new(config: RuntimeConfig) -> Result<Arc<Self>, RuntimeError> {
        assert!(config.workers_per_locality > 0, "need at least one worker");
        // Resolve the cluster shape: which localities this process hosts
        // and the transport that connects them to the rest.
        let (num_localities, hosted, raw): (u32, Vec<u32>, Arc<dyn Transport>) = match &config
            .topology
        {
            None => {
                assert!(config.localities > 0, "need at least one locality");
                let t = config.transport.build(config.localities).map_err(|e| {
                    RuntimeError::Boot(format!("transport construction failed: {e}"))
                })?;
                (config.localities, (0..config.localities).collect(), t)
            }
            Some(topo) => {
                if topo.num_localities == 0 {
                    return Err(RuntimeError::Boot(
                        "topology needs at least one locality".into(),
                    ));
                }
                if topo.rank >= topo.num_localities {
                    return Err(RuntimeError::Boot(format!(
                        "rank {} out of range for {} localities",
                        topo.rank, topo.num_localities
                    )));
                }
                // Checked before bootstrapping so an unusable backend
                // fails fast instead of after the network handshake.
                if matches!(config.transport, TransportKind::Sim(_)) {
                    return Err(RuntimeError::Boot(
                        "a multi-process topology requires a wire transport \
                             (TransportKind::TcpLoopback or Shm)"
                            .into(),
                    ));
                }
                let bootstrap = match &topo.bootstrap {
                    BootstrapMode::Rendezvous { addr, timeout } => {
                        TcpBootstrap::rendezvous(topo.rank, topo.num_localities, *addr, *timeout)
                    }
                    BootstrapMode::AddressBook { addrs, hosts } => {
                        if addrs.len() != topo.num_localities as usize {
                            return Err(RuntimeError::Boot(format!(
                                "address book has {} entries for {} localities",
                                addrs.len(),
                                topo.num_localities
                            )));
                        }
                        TcpBootstrap::address_book_with_hosts(
                            topo.rank,
                            addrs.clone(),
                            hosts.clone(),
                        )
                    }
                }
                .map_err(|e| RuntimeError::Boot(e.to_string()))?;
                let t = config.transport.build_over(bootstrap).map_err(|e| {
                    RuntimeError::Boot(format!("transport construction failed: {e}"))
                })?;
                (topo.num_localities, vec![topo.rank], t)
            }
        };
        let agas = AgasService::new(num_localities);
        // Reliability is a decorator over whichever backend was built:
        // every port gets sequencing/acks/retransmission transparently.
        let reliable = config
            .reliability
            .map(|rc| ReliableTransport::new(Arc::clone(&raw), rc));
        let transport: Arc<dyn Transport> = match &reliable {
            Some(r) => Arc::clone(r) as Arc<dyn Transport>,
            None => raw,
        };
        let timer = Arc::new(TimerService::new("flush"));
        let control = Arc::new(ControlPlane::new());
        let delivery_failures: Arc<Mutex<Vec<rpx_net::DeliveryError>>> =
            Arc::new(Mutex::new(Vec::new()));

        let mut localities = Vec::with_capacity(hosted.len());
        for id in hosted {
            // Per-locality action registry, mirroring HPX where every
            // process registers the same actions; ids stay aligned because
            // registration is mirrored in order (see register_classed).
            let actions = ActionRegistry::new();
            let scheduler = Scheduler::new(SchedulerConfig {
                workers: config.workers_per_locality,
                name: format!("loc{id}"),
                idle_park: config.idle_park,
            });
            let registry = CounterRegistry::new(id);
            register_thread_counters(&registry, Arc::clone(scheduler.stats()));

            let net_port = transport.port(id);
            register_network_counters(&registry, Arc::clone(&net_port));
            let port = ParcelPort::with_config(
                id,
                net_port,
                Arc::clone(&actions),
                ParcelPortConfig {
                    best_effort_backlog: config.best_effort_backlog,
                    backpressure_watermark: config.backpressure_watermark,
                },
            );

            // Wire wake-ups: network/egress activity wakes whoever sleeps
            // on this locality — idle workers and waiters parked in
            // `RemoteFuture::get`. The hook owns the scheduler's parking
            // spot only: the scheduler's background list owns the port,
            // so a hook owning the scheduler would close a cycle.
            let wake = scheduler.notifier();
            {
                let wake = Arc::clone(&wake);
                port.set_notify(move || wake());
            }
            port.net().set_notify(wake);
            // Received parcels become scheduler tasks: one at a time for
            // single-parcel messages, one batched admission per coalesced
            // message (the receive-side dual of send-side coalescing).
            {
                let sched = Arc::clone(&scheduler);
                port.set_spawner(Arc::new(move |f| sched.spawn_boxed(f)));
            }
            {
                let sched = Arc::clone(&scheduler);
                port.set_batch_spawner(Arc::new(move |fs| sched.spawn_batch(fs.drain(..))));
            }
            register_parcel_counters(&registry, &port);

            // Control-plane traffic (registration hashes, barriers) is
            // parsed on the receive path and parked in shared state that
            // verify_registration/barrier poll. This handler MUST be
            // installed before the pump starts: a control frame pumped
            // while the handler is absent is dropped after the
            // reliability layer has already acked it, so it is never
            // retransmitted and the peer's registration hash is lost.
            {
                let cp = Arc::clone(&control);
                // Weak: the port owns this handler, so a strong capture
                // would cycle port → handler → port.
                let weak_port = Arc::downgrade(&port);
                port.set_control_handler(move |msg| {
                    if let Some((dst, reply)) = cp.on_message(&msg.payload) {
                        if let Some(p) = weak_port.upgrade() {
                            p.send_control(dst, reply);
                        }
                    }
                });
            }

            // The parcel pump runs as scheduler background work — the
            // paper's "background work" whose duration Eq. 3 measures.
            scheduler.add_background(Arc::new(PortPump {
                port: Arc::clone(&port),
            }));

            let lco_table = Arc::new(LcoTable::new(Arc::clone(&agas)));

            // Per-process identity counters: which rank this registry
            // belongs to and how many peers have checked in at boot.
            registry.register_or_replace(
                "/process/rank",
                rpx_counters::CallbackCounter::new(move || CounterValue::Int(id as i64)),
            );
            {
                let cp = Arc::clone(&control);
                registry.register_or_replace(
                    "/process/peers-connected",
                    rpx_counters::CallbackCounter::new(move || {
                        CounterValue::Int(cp.peers_connected.load(Ordering::Acquire) as i64)
                    }),
                );
            }

            // When reliability is on, reap delivery give-ups in the
            // background so waiters on a dead rank fail fast instead of
            // hanging (see DeliveryFailureReaper).
            if let Some(rel) = &reliable {
                scheduler.add_background(Arc::new(DeliveryFailureReaper {
                    port: rel.reliable_port(id),
                    table: Arc::clone(&lco_table),
                    sink: Arc::clone(&delivery_failures),
                }));
            }

            localities.push(Arc::new(Locality {
                id,
                scheduler,
                port,
                registry,
                lco_table,
                objects: Arc::new(ObjectRegistry::new()),
                actions,
            }));
        }

        let rt = Arc::new(Runtime {
            config,
            agas,
            timer,
            localities,
            num_localities,
            transport,
            reliable,
            control,
            delivery_failures,
            registration: Mutex::new(()),
            telemetry: Mutex::new(HashMap::new()),
            shut_down: std::sync::atomic::AtomicBool::new(false),
        });

        // Builtin: the continuation-delivery action completing local LCOs.
        rt.register_set_lco();
        Ok(rt)
    }

    fn register_set_lco(self: &Arc<Self>) {
        let _guard = self.registration.lock();
        for locality in &self.localities {
            let table = Arc::clone(&locality.lco_table);
            let id = locality.actions.register(
                "rpx::set-lco",
                Arc::new(move |args| {
                    let (gid, result) = decode_continuation_args(args)?;
                    // A missing entry means the future was dropped; that is
                    // benign (fire-and-forget of an already-abandoned wait).
                    let _ = table.complete(gid, result);
                    Ok(Bytes::new())
                }),
            );
            locality.port.set_continuation_action(id);
            // Continuation delivery is short and non-blocking: run it
            // inline on the receive path (HPX "direct action") so waiters
            // make progress even when all workers are blocked.
            locality.port.set_direct(id);
        }
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of localities in the whole cluster (across all processes
    /// when booted with a topology).
    pub fn num_localities(&self) -> u32 {
        self.num_localities
    }

    /// The locality ids hosted by this process: every id in the default
    /// mode, exactly `[rank]` in multi-process mode.
    pub fn hosted_localities(&self) -> Vec<u32> {
        self.localities.iter().map(|l| l.id).collect()
    }

    /// Whether this process hosts locality `id`.
    pub fn is_hosted(&self, id: u32) -> bool {
        self.local_opt(id).is_some()
    }

    /// This process's rank when booted with a topology (`None` in the
    /// default all-in-one mode).
    pub fn rank(&self) -> Option<u32> {
        self.config.topology.as_ref().map(|t| t.rank)
    }

    /// The transport connecting the localities.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Lock action registration (keeps ids aligned across localities when
    /// several registration helpers run concurrently).
    pub(crate) fn registration_guard(&self) -> parking_lot::MutexGuard<'_, ()> {
        self.registration.lock()
    }

    /// The AGAS service.
    pub fn agas(&self) -> &Arc<AgasService> {
        &self.agas
    }

    /// The shared flush-timer service.
    pub fn timer(&self) -> &Arc<TimerService> {
        &self.timer
    }

    /// The hosted locality `id`, if this process hosts it.
    fn local_opt(&self, id: u32) -> Option<&Arc<Locality>> {
        // Default mode: ids are dense positions. Rank mode: linear scan
        // of the (single-element) hosted list.
        if self.localities.len() == self.num_localities as usize {
            self.localities.get(id as usize)
        } else {
            self.localities.iter().find(|l| l.id == id)
        }
    }

    /// All localities hosted by this process, in id order.
    pub(crate) fn hosted(&self) -> &[Arc<Locality>] {
        &self.localities
    }

    /// The hosted locality `id`, panicking when not hosted here.
    fn local(&self, id: u32) -> &Arc<Locality> {
        self.local_opt(id)
            .unwrap_or_else(|| panic!("locality {id} is not hosted by this process"))
    }

    /// A locality handle.
    ///
    /// # Panics
    /// Panics if out of range, or (multi-process mode) if `id` is a
    /// remote rank — remote localities have no in-process handle.
    pub fn locality(&self, id: u32) -> &Arc<Locality> {
        self.local(id)
    }

    /// Begin registering a typed action: the unified registration
    /// builder.
    ///
    /// ```ignore
    /// let h = rt.action("state::update")
    ///     .delivery(DeliveryClass::Coalesce)
    ///     .register(|v: u64| v);
    /// ```
    ///
    /// Defaults: [`DeliveryClass::Lossless`], handler without a locality
    /// argument. See [`ActionBuilder`] for the knobs.
    pub fn action<'rt>(self: &'rt Arc<Self>, name: &str) -> ActionBuilder<'rt> {
        ActionBuilder {
            rt: self,
            name: name.to_string(),
            class: DeliveryClass::Lossless,
            coalesce_interval: DEFAULT_COALESCE_INTERVAL,
        }
    }

    /// The shared registration core behind [`Runtime::action`]: mirror
    /// the handler into every hosted locality's registry under `class`
    /// (the registry is the only class table; the port reads it) and —
    /// for [`DeliveryClass::Coalesce`] — install the newest-wins mailbox
    /// interceptor that turns N queued updates into one wire record.
    fn register_classed(
        self: &Arc<Self>,
        name: &str,
        class: DeliveryClass,
        coalesce_interval: Duration,
        mk: impl Fn(u32) -> rpx_parcel::RawHandler,
    ) -> ActionId {
        let _guard = self.registration.lock();
        let mut id = None;
        for locality in &self.localities {
            let this_id = locality
                .actions
                .register_with_class(name, class, mk(locality.id));
            match id {
                None => id = Some(this_id),
                Some(prev) => assert_eq!(
                    prev, this_id,
                    "action id skew across localities — registration must be mirrored"
                ),
            }
        }
        let id = id.expect("at least one locality");
        if class == DeliveryClass::Coalesce {
            // One mailbox coalescer per hosted locality: a single
            // value-replacing slot per destination, drained by the flush
            // timer every `coalesce_interval`. nparcels/max_bytes never
            // trigger for a mailbox; 2 simply keeps the sparse-bypass
            // logic enabled (1 would disable coalescing outright).
            let params = rpx_coalesce::ParamsHandle::new(rpx_coalesce::CoalescingParams::new(
                2,
                coalesce_interval,
            ));
            for locality in &self.localities {
                crate::coalescing::install_coalescer(
                    self,
                    locality,
                    name,
                    id,
                    params.clone(),
                    rpx_coalesce::FlushPolicy::Mailbox,
                    false,
                );
            }
        }
        id
    }

    /// Enable message coalescing for a registered action
    /// (`HPX_ACTION_USES_MESSAGE_COALESCING`). All localities share one
    /// live-tunable parameter handle; counters register per locality.
    pub fn enable_coalescing(
        self: &Arc<Self>,
        action_name: &str,
        params: rpx_coalesce::CoalescingParams,
    ) -> Result<CoalescingControl, RuntimeError> {
        CoalescingControl::install(self, action_name, params, false)
    }

    /// Enable message coalescing with **per-destination** parameters:
    /// every (locality, destination) queue owns a private parameter
    /// handle seeded from `params`, so a per-destination adaptive
    /// controller ([`CoalescingControl::start_adaptive_per_dest`]) can
    /// steer a hot peer and a cold peer to different operating points.
    /// The shared handle on the returned control still works as a
    /// broadcast seed for destinations discovered later.
    pub fn enable_coalescing_per_destination(
        self: &Arc<Self>,
        action_name: &str,
        params: rpx_coalesce::CoalescingParams,
    ) -> Result<CoalescingControl, RuntimeError> {
        CoalescingControl::install(self, action_name, params, true)
    }

    /// Disable coalescing for an action (parcels flow directly again).
    /// Queued parcels are flushed first.
    pub fn disable_coalescing(&self, control: &CoalescingControl) {
        control.uninstall(self);
    }

    /// Run `f` inside a scheduler task on `locality`, blocking the
    /// calling (external) thread until it returns.
    pub fn run_on<R: Send + 'static>(
        self: &Arc<Self>,
        locality: u32,
        f: impl FnOnce(&Ctx) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        let rt = Arc::clone(self);
        self.local(locality).scheduler.spawn(move || {
            let ctx = Ctx::new(rt, locality);
            let _ = tx.send(f(&ctx));
        });
        rx.recv().expect("driver task panicked or was dropped")
    }

    /// Spawn `f` on `locality` without waiting (fire-and-forget driver).
    pub fn spawn_on(self: &Arc<Self>, locality: u32, f: impl FnOnce(&Ctx) + Send + 'static) {
        let rt = Arc::clone(self);
        self.local(locality).scheduler.spawn(move || {
            let ctx = Ctx::new(rt, locality);
            f(&ctx);
        });
    }

    /// Query a performance counter on a locality.
    ///
    /// This is the uniform query surface shared with
    /// [`Ctx::query`](crate::context::Ctx::query) and
    /// [`CounterRegistry::query`]: every layer parses the same HPX-style
    /// path syntax and reports failures through [`CounterError`]. A
    /// locality id beyond the cluster yields
    /// [`CounterError::NoSuchLocality`] instead of a silent `None`.
    pub fn query(&self, locality: u32, path: &str) -> Result<CounterValue, CounterError> {
        self.registry_for(locality)?.query(path)
    }

    /// Like [`Runtime::query`], but takes an already-parsed
    /// [`CounterPath`] (saves re-parsing in sampling loops).
    pub fn query_path(
        &self,
        locality: u32,
        path: &CounterPath,
    ) -> Result<CounterValue, CounterError> {
        self.registry_for(locality)?.query_path(path)
    }

    fn registry_for(&self, locality: u32) -> Result<&Arc<CounterRegistry>, CounterError> {
        self.local_opt(locality)
            .map(|l| &l.registry)
            .ok_or(CounterError::NoSuchLocality {
                requested: locality,
                localities: self.num_localities,
            })
    }

    /// Start counter sampling on a locality (idempotent: a second call
    /// while the sampler is running returns a handle on the same
    /// service).
    ///
    /// The sampler runs cooperatively as scheduler *aux* background work;
    /// its cost is charged to the accounting-excluded
    /// `/threads/telemetry-time` account, never to the Eq. 1–4 terms it
    /// samples. It is stopped automatically at [`Runtime::shutdown`];
    /// sampled series stay readable (frozen) afterwards.
    pub fn start_telemetry(
        &self,
        locality: u32,
        config: TelemetryConfig,
    ) -> Result<TelemetryService, CounterError> {
        let registry = Arc::clone(self.registry_for(locality)?);
        let mut services = self.telemetry.lock();
        if let Some(svc) = services.get(&locality) {
            if svc.is_running() {
                return Ok(svc.clone());
            }
        }
        let svc = TelemetryService::start_cooperative(registry, config);
        self.local(locality)
            .scheduler
            .add_aux_background(Arc::new(TelemetryTick {
                service: svc.clone(),
            }));
        services.insert(locality, svc.clone());
        Ok(svc)
    }

    /// The telemetry service running (or last run) on a locality, if
    /// [`Runtime::start_telemetry`] was called for it.
    pub fn telemetry(&self, locality: u32) -> Option<TelemetryService> {
        self.telemetry.lock().get(&locality).cloned()
    }

    /// Install (or clear with `None`) a failure-injection plan on a
    /// locality's outbound wire (testing hook; see
    /// [`rpx_net::FaultPlan`]).
    pub fn inject_faults(&self, locality: u32, plan: Option<Arc<rpx_net::FaultPlan>>) {
        self.local(locality).port.net().set_fault_plan(plan);
    }

    /// A metrics reader over a locality's counters.
    pub fn metrics(&self, locality: u32) -> MetricsReader {
        MetricsReader::new(Arc::clone(&self.local(locality).registry))
    }

    /// Verify that every process in the cluster registered the same
    /// actions in the same order, so wire action ids dispatch to the
    /// same handlers everywhere.
    ///
    /// Call once after all [`Runtime::action`] registrations and before
    /// remote traffic. In the default all-in-one mode this compares the
    /// mirrored per-locality registries directly. In multi-process mode
    /// each rank broadcasts its [`ActionRegistry::order_hash`] over the
    /// control plane and waits (up to `timeout`) for all peers; any
    /// disagreement is [`RuntimeError::RegistrationMismatch`]. Since the
    /// exchange is all-to-all, a successful return doubles as a boot
    /// barrier: every peer is up and reachable.
    pub fn verify_registration(&self, timeout: Duration) -> Result<(), RuntimeError> {
        let ours = self.localities[0].actions.order_hash();
        let Some(topo) = &self.config.topology else {
            for l in &self.localities {
                let theirs = l.actions.order_hash();
                if theirs != ours {
                    return Err(RuntimeError::RegistrationMismatch {
                        peer: l.id,
                        ours,
                        theirs,
                    });
                }
            }
            self.control.peers_connected.store(
                self.num_localities.saturating_sub(1) as u64,
                Ordering::Release,
            );
            return Ok(());
        };
        let port = &self.local(topo.rank).port;
        let n = self.num_localities;
        let deadline = std::time::Instant::now() + timeout;
        // Record our hash so the control handler can answer peers that
        // are still waiting after we complete: without this, a peer all
        // of whose early announcements were dropped by the reliable
        // layer's give-up would hang once we stop broadcasting below
        // (asymmetric completion).
        *self.control.announced.lock() = Some((topo.rank, ours));
        // Re-broadcast while polling: with no rendezvous round-trip
        // (address-book boot) a peer may not have bound its listener yet,
        // and the reliable layer gives up on undeliverable frames long
        // before `timeout`. The exchange is idempotent, so resending
        // until every peer has answered costs nothing and rides out any
        // boot skew up to the full control budget.
        let mut next_broadcast = std::time::Instant::now();
        loop {
            if std::time::Instant::now() >= next_broadcast {
                for peer in 0..n {
                    if peer != topo.rank {
                        port.send_control(peer, reghash_payload(topo.rank, ours, true));
                    }
                }
                next_broadcast = std::time::Instant::now() + Duration::from_millis(100);
            }
            {
                let hashes = self.control.peer_hashes.lock();
                if hashes.len() as u32 == n - 1 {
                    for (&peer, &theirs) in hashes.iter() {
                        if theirs != ours {
                            return Err(RuntimeError::RegistrationMismatch { peer, ours, theirs });
                        }
                    }
                    return Ok(());
                }
            }
            if std::time::Instant::now() >= deadline {
                return Err(RuntimeError::ControlTimeout("peer registration hashes"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// A cluster-wide barrier over the control plane: returns once every
    /// rank has entered the same (implicitly numbered) barrier.
    ///
    /// Ranks must call `barrier` the same number of times in the same
    /// order — generations are counted locally, exactly like MPI
    /// communicator collectives. Rank 0 collects arrivals and releases
    /// the others. In the default all-in-one mode (and for single-rank
    /// clusters) this is a no-op. Call from a driver thread, not from
    /// inside a single-worker scheduler task.
    pub fn barrier(&self, timeout: Duration) -> Result<(), RuntimeError> {
        let Some(topo) = &self.config.topology else {
            return Ok(());
        };
        let n = self.num_localities;
        if n == 1 {
            return Ok(());
        }
        let gen = self.control.next_gen.fetch_add(1, Ordering::SeqCst);
        let port = &self.local(topo.rank).port;
        let deadline = std::time::Instant::now() + timeout;
        if topo.rank == 0 {
            loop {
                let arrived = self
                    .control
                    .arrivals
                    .lock()
                    .get(&gen)
                    .map_or(0, |s| s.len() as u32);
                if arrived == n - 1 {
                    break;
                }
                if std::time::Instant::now() >= deadline {
                    return Err(RuntimeError::ControlTimeout("barrier arrivals"));
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            self.control.arrivals.lock().remove(&gen);
            for peer in 1..n {
                port.send_control(peer, barrier_release_payload(gen));
            }
        } else {
            port.send_control(0, barrier_arrive_payload(topo.rank, gen));
            loop {
                if self.control.released.lock().remove(&gen) {
                    break;
                }
                if std::time::Instant::now() >= deadline {
                    return Err(RuntimeError::ControlTimeout("barrier release"));
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        Ok(())
    }

    /// Delivery give-ups reaped so far (reliability enabled only): each
    /// entry is a message the reliable layer abandoned after exhausting
    /// retransmissions. Draining is destructive, like
    /// [`rpx_net::ReliablePort::take_delivery_failures`].
    pub fn delivery_failures(&self) -> Vec<rpx_net::DeliveryError> {
        // Reap synchronously too, so callers see failures even when the
        // background reaper hasn't run since the give-up.
        if let Some(rel) = &self.reliable {
            for l in &self.localities {
                let failures = rel.reliable_port(l.id).take_delivery_failures();
                if !failures.is_empty() {
                    let mut dsts: Vec<u32> = failures.iter().map(|f| f.dst).collect();
                    dsts.sort_unstable();
                    dsts.dedup();
                    for dst in dsts {
                        l.lco_table.fail_dest(dst);
                    }
                    self.delivery_failures.lock().extend(failures);
                }
            }
        }
        std::mem::take(&mut self.delivery_failures.lock())
    }

    /// Snapshot every counter of every hosted locality as one JSON
    /// document: `{"version":1,"ranks":[{"rank":R,"counters":{...}},…]}`,
    /// where each rank's `counters` object is the telemetry exporter's
    /// single-sample series format ([`rpx_counters::telemetry::export_json`]).
    /// The launcher aggregates one such file per process into its report.
    pub fn counters_json(&self) -> String {
        let mut out = String::from("{\"version\":1,\"ranks\":[");
        for (i, l) in self.localities.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let series: Vec<TimeSeries> = l
                .registry
                .discover("*")
                .into_iter()
                .map(|path| {
                    let value = l.registry.query(&path).map_or(0.0, |v| v.as_f64());
                    TimeSeries {
                        path,
                        samples: vec![rpx_counters::Sample { t_ns: 0, value }],
                    }
                })
                .collect();
            out.push_str(&format!(
                "{{\"rank\":{},\"counters\":{}}}",
                l.id,
                rpx_counters::telemetry::export_json(Duration::ZERO, &series)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Write [`Runtime::counters_json`] to `path` (per-process counter
    /// dump; the `repro launch` subcommand points every rank at its own
    /// file via `RPX_COUNTERS_OUT` and merges them).
    pub fn dump_counters_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.counters_json())
    }

    /// Block until all localities are quiescent (no parcels held by a
    /// coalescer, no pending tasks and no parcels in flight). Returns
    /// `false` on timeout.
    pub fn wait_quiescent(&self, timeout: Duration) -> bool {
        self.quiesce(timeout, false)
    }

    /// [`Runtime::wait_quiescent`], optionally flushing every interceptor
    /// on each poll so parcels queued behind a long flush interval — even
    /// ones produced by the traffic being drained — leave immediately.
    ///
    /// Quiescent means two idle passes in a row: a handler that finished
    /// during the first may have sent a reply stage by stage behind it.
    fn quiesce(&self, timeout: Duration, flush: bool) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut idle_passes = 0;
        loop {
            if flush {
                for l in &self.localities {
                    l.port.flush_interceptors();
                }
            }
            if !self.busy() {
                idle_passes += 1;
                if idle_passes == 2 {
                    return true;
                }
                continue;
            }
            idle_passes = 0;
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// One pass over every gauge a parcel crosses, stage by stage across
    /// all localities in the order parcels move, so one moving downstream
    /// during the pass is seen at a later stage. Every handoff raises the
    /// next gauge before it lowers the previous one. The transport's
    /// processing gauge covers a message both between the outbound queue
    /// and the wire and between the wire and its tasks, so it is read at
    /// both places; tasks, where parcels end, come last.
    fn busy(&self) -> bool {
        const STAGES: [fn(&Locality) -> usize; 8] = [
            |l| l.port.interceptor_pending(),
            |l| l.port.egress_backlog(),
            |l| l.port.processing(),
            |l| l.port.net().outbound_backlog(),
            |l| l.port.net().processing(),
            |l| l.port.net().inflight_backlog(),
            |l| l.port.net().processing(),
            |l| l.scheduler.pending_tasks(),
        ];
        STAGES
            .iter()
            .any(|gauge| self.localities.iter().any(|l| gauge(l) > 0))
    }

    /// Shut the runtime down: flush coalescers and drain, stop schedulers
    /// and the flush-timer thread. Idempotent; also called on drop.
    pub fn shutdown(&self) {
        if self
            .shut_down
            .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            return;
        }
        for svc in self.telemetry.lock().values() {
            svc.stop();
        }
        let _ = self.quiesce(Duration::from_secs(10), true);
        for l in &self.localities {
            l.scheduler.shutdown();
        }
        self.timer.shutdown();
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_stamps_class_on_every_locality() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let lossless = rt.action("cls::plain").register(|x: u64| x);
        let be = rt
            .action("cls::be")
            .delivery(DeliveryClass::BestEffort)
            .register(|x: u64| x);
        let co = rt
            .action("cls::co")
            .delivery(DeliveryClass::Coalesce)
            .with_locality()
            .register(|_here, x: u64| x);
        for l in &rt.localities {
            assert_eq!(l.actions.class(lossless.id()), DeliveryClass::Lossless);
            assert_eq!(l.actions.class(be.id()), DeliveryClass::BestEffort);
            assert_eq!(l.actions.class(co.id()), DeliveryClass::Coalesce);
        }
        // Localities agree on the order hash with classes folded in.
        assert_eq!(
            rt.localities[0].actions.order_hash(),
            rt.localities[1].actions.order_hash()
        );
        rt.shutdown();
    }

    #[test]
    fn coalesce_registration_installs_mailbox_counters() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let _h = rt
            .action("mb::sync")
            .delivery(DeliveryClass::Coalesce)
            .register(|_v: u64| ());
        // The mailbox coalescer registered its per-action counters on
        // every hosted locality at registration time.
        for l in 0..2 {
            assert!(
                rt.query(l, "/coalescing/count/parcels@mb::sync").is_ok(),
                "locality {l} missing mailbox coalescing counters"
            );
        }
        // And the delivery-class counters exist in discovery.
        assert!(rt.query(0, "/network/best-effort-dropped").is_ok());
        assert!(rt.query(0, "/parcels/coalesce-mailbox-replaced").is_ok());
        assert!(rt.query(0, "/parcels/coalesce-mailbox-flushed").is_ok());
        rt.shutdown();
    }
}
