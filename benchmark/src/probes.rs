//! Per-layer metrics of kind (c): after the workload, timed calls into
//! each layer's public functions with the shapes the workload showed —
//! its payload size, its measured parcels per message and bytes per
//! message, its flush interval. A layer the workload bypasses is not
//! probed and reads 0.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::metrics::{median, quantile, sorted, Values};
use crate::rpx_api::layers::{
    channel, decode_frame, encode_frame, register_thread_counters, ActionId, ActionRegistry,
    AgasService, Bytes, CoalescingCounters, CoalescingQueue, CounterRegistry, Gid, LinkModel,
    Message, MessageKind, ParamsHandle, Parcel, ParcelBatch, ParcelPort, Scheduler, SendPath,
    ShmTuning, SimTransport, TimerService, Transport, TransportKind, TransportPort,
};
use crate::rpx_api::{CoalescingParams, Link, MetricsReader};
use crate::workloads::Shapes;

/// Each probe times `BATCHES` batches of about `BATCH_TIME` each and
/// reports the median batch.
const BATCHES: usize = 7;
const BATCH_TIME: Duration = Duration::from_millis(8);

/// Median nanoseconds per call of `op`.
fn ns_per_op(mut op: impl FnMut()) -> f64 {
    // Size a batch from a short trial.
    let trial = Instant::now();
    let mut n = 0u64;
    while trial.elapsed() < BATCH_TIME / 4 {
        op();
        n += 1;
    }
    let per_batch = (n * 4).max(1);
    median(
        (0..BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..per_batch {
                    op();
                }
                t.elapsed().as_nanos() as f64 / per_batch as f64
            })
            .collect(),
    )
}

fn parcel(payload: usize, dest: u32, action: ActionId) -> Parcel {
    Parcel {
        id: 1,
        src_locality: 0,
        dest_locality: dest,
        dest_object: Gid::INVALID,
        action,
        args: Bytes::from(vec![0x5au8; payload]),
        continuation: Gid::INVALID,
    }
}

/// A send path that drops what it is given.
struct NullPath;

impl SendPath for NullPath {
    fn emit(&self, _dst: u32, batch: ParcelBatch) {
        std::hint::black_box(batch.len());
    }
}

/// Two connected raw transport ports that count what they receive.
struct Pair {
    // Held so the transport outlives its ports.
    _transport: Arc<dyn Transport>,
    ports: [Arc<dyn TransportPort>; 2],
    hits: [Arc<AtomicU64>; 2],
}

impl Pair {
    fn new(transport: Arc<dyn Transport>) -> Self {
        let ports = [transport.port(0), transport.port(1)];
        let hits = [0, 1].map(|i: usize| {
            let hits = Arc::new(AtomicU64::new(0));
            let h = Arc::clone(&hits);
            ports[i].set_receiver(Arc::new(move |_m: Message| {
                h.fetch_add(1, Ordering::SeqCst);
            }));
            hits
        });
        Pair {
            _transport: transport,
            ports,
            hits,
        }
    }

    /// Send one message `from` → the other port and pump until it lands.
    fn one_way(&self, from: usize, payload: &Bytes) {
        let to = 1 - from;
        let target = self.hits[to].load(Ordering::SeqCst) + 1;
        self.ports[from].send(Message::new(
            from as u32,
            to as u32,
            MessageKind::Parcel,
            payload.clone(),
        ));
        let deadline = Instant::now() + Duration::from_secs(10);
        while self.hits[to].load(Ordering::SeqCst) < target {
            if !(self.ports[0].pump() | self.ports[1].pump()) {
                std::thread::yield_now();
            }
            assert!(Instant::now() < deadline, "transport probe stalled");
        }
    }

    /// Median round trip in µs.
    fn rtt_us(&self, bytes: usize) -> f64 {
        let payload = Bytes::from(vec![0x42u8; bytes]);
        ns_per_op(|| {
            self.one_way(0, &payload);
            self.one_way(1, &payload);
        }) / 1e3
    }
}

/// Run the probes that apply to `shapes`. `out` already holds the (a)
/// metrics, from which the observed batch and message sizes are read.
pub fn run(shapes: &Shapes, out: &mut Values) {
    let batch = (out["coalesce.parcels_per_message"].round() as usize).max(1);
    // With three payload sizes on the link the average says nothing: the
    // smallest is probed here, the others by name below.
    let msg_bytes = if out["net.messages_sent"] > 0.0 && !shapes.large_payloads {
        (out["net.bytes_sent"] / out["net.messages_sent"]) as usize
    } else {
        shapes.payload_bytes
    };
    let actions = ActionRegistry::new();
    let executed = Arc::new(AtomicU64::new(0));
    let e = Arc::clone(&executed);
    let action = actions.register(
        "probe",
        Arc::new(move |_| {
            e.fetch_add(1, Ordering::Relaxed);
            Ok(Bytes::new())
        }),
    );
    let template = parcel(shapes.payload_bytes, 1, action);

    // coalesce: CoalescingQueue::submit at the observed batch size.
    if shapes.flush_interval.is_some() {
        let timer = Arc::new(TimerService::new("probe-coalesce"));
        let queue = CoalescingQueue::new(
            1,
            ParamsHandle::new(CoalescingParams::new(batch.max(2), Duration::from_secs(10))),
            timer,
            Arc::new(NullPath) as Arc<dyn SendPath>,
            CoalescingCounters::new(),
        );
        out.insert(
            "coalesce.submit_ns",
            ns_per_op(|| queue.submit(template.clone())),
        );
    }

    // serialize: the parcel codec on the archive, one observed batch.
    let parcels = vec![template.clone(); batch];
    let encoded = Parcel::encode_batch(&parcels);
    out.insert(
        "serialize.bytes_per_parcel",
        encoded.len() as f64 / batch as f64,
    );
    out.insert(
        "serialize.encode_ns_per_parcel",
        ns_per_op(|| {
            std::hint::black_box(Parcel::encode_batch(std::hint::black_box(&parcels)));
        }) / batch as f64,
    );
    out.insert(
        "serialize.decode_ns_per_parcel",
        ns_per_op(|| {
            std::hint::black_box(Parcel::decode_batch(encoded.clone()).expect("own encoding"));
        }) / batch as f64,
    );

    // parcel: send_parcel to egress, and ingress decode → spawn → run,
    // over a free simulated link (as the send_path and ingress benches).
    {
        let free: Arc<dyn Transport> = SimTransport::new(2, LinkModel::zero());
        let p0 = ParcelPort::new(0, free.port(0), Arc::clone(&actions));
        let p1 = ParcelPort::new(1, free.port(1), Arc::clone(&actions));
        p0.set_spawner(Arc::new(|f| f()));
        p1.set_spawner(Arc::new(|f| f()));
        let mut sent = 0usize;
        out.insert(
            "parcel.send_ns",
            ns_per_op(|| {
                p0.send_parcel(template.clone());
                sent += 1;
                if sent.is_multiple_of(64) {
                    while p0.pump() {}
                    while p1.pump() {}
                }
            }),
        );
        while p0.pump() | p1.pump() {}

        let sched = Scheduler::with_workers(1);
        let s = Arc::clone(&sched);
        p1.set_spawner(Arc::new(move |f| s.spawn_boxed(f)));
        let s = Arc::clone(&sched);
        p1.set_batch_spawner(Arc::new(move |fs| s.spawn_batch(fs.drain(..))));
        out.insert(
            "parcel.ingress_ns_per_parcel",
            ns_per_op(|| {
                let target = executed.load(Ordering::Relaxed) + batch as u64;
                p0.emit(1, parcels.clone().into());
                while p0.pump() {}
                while p1.pump() {}
                while executed.load(Ordering::Relaxed) < target {
                    std::thread::yield_now();
                }
            }) / batch as f64,
        );
        sched.shutdown();
    }

    // net: raw TransportPort ping-pong and the frame codec at the observed
    // message size.
    let payload = Bytes::from(vec![0x42u8; msg_bytes]);
    match shapes.link {
        Link::SimCluster => {
            let pair = Pair::new(SimTransport::new(2, LinkModel::cluster()));
            out.insert(
                "net.sim.pump_ns_per_msg",
                ns_per_op(|| pair.one_way(0, &payload)),
            );
        }
        Link::TcpReliable => {
            let pair = Pair::new(
                TransportKind::TcpLoopback
                    .build(2)
                    .expect("loopback sockets"),
            );
            out.insert("net.tcp.rtt_us_p50", pair.rtt_us(msg_bytes));
            if shapes.large_payloads {
                out.insert("net.tcp.rtt_us_p50_1k", pair.rtt_us(1024));
                out.insert("net.tcp.rtt_us_p50_64k", pair.rtt_us(64 * 1024));
            }
        }
        Link::ShmRings => {
            let kind = TransportKind::Shm(ShmTuning::default());
            let pair = Pair::new(kind.build(2).expect("shm rings"));
            out.insert("net.shm.rtt_us_p50", pair.rtt_us(msg_bytes));
        }
    }
    if shapes.link != Link::SimCluster {
        let message = Message::new(0, 1, MessageKind::Coalesced, payload.clone());
        let frame = encode_frame(&message);
        out.insert(
            "net.frame.encode_ns",
            ns_per_op(|| {
                std::hint::black_box(encode_frame(std::hint::black_box(&message)));
            }),
        );
        out.insert(
            "net.frame.decode_ns",
            ns_per_op(|| {
                std::hint::black_box(
                    decode_frame(std::hint::black_box(&frame)).expect("own frame"),
                );
            }),
        );
    }

    // threading: Scheduler::spawn and spawn_batch, empty tasks.
    {
        let sched = Scheduler::with_workers(1);
        out.insert(
            "threading.spawn_ns_per_task",
            ns_per_op(|| {
                for _ in 0..64 {
                    sched.spawn(|| {});
                }
                sched.wait_idle(Duration::from_secs(10));
            }) / 64.0,
        );
        out.insert(
            "threading.spawn_batch_ns_per_task",
            ns_per_op(|| {
                for _ in 0..64usize.div_ceil(batch) {
                    let tasks: Vec<Box<dyn FnOnce() + Send>> =
                        (0..batch).map(|_| Box::new(|| {}) as _).collect();
                    sched.spawn_batch(tasks);
                }
                sched.wait_idle(Duration::from_secs(10));
            }) / (64usize.div_ceil(batch) * batch) as f64,
        );

        // metrics / counters: one Eq. 1–4 sample, one counter query.
        let registry = CounterRegistry::new(0);
        register_thread_counters(&registry, Arc::clone(sched.stats()));
        if shapes.steered {
            let reader = MetricsReader::new(Arc::clone(&registry));
            out.insert(
                "metrics.reader_ns",
                ns_per_op(|| {
                    std::hint::black_box(reader.sample());
                }),
            );
        }
        out.insert(
            "counters.query_ns",
            ns_per_op(|| {
                std::hint::black_box(
                    registry
                        .query("/threads/count/cumulative")
                        .expect("registered"),
                );
            }),
        );
        sched.shutdown();
    }

    // lco: promise set → future get.
    if shapes.replies {
        out.insert(
            "lco.promise_roundtrip_ns",
            ns_per_op(|| {
                let (promise, future) = channel::<Bytes>();
                promise.set(Bytes::new()).expect("fresh promise");
                std::hint::black_box(future.get().expect("value was set"));
            }),
        );
    }

    // util: how late TimerService deadlines fire at the flush interval.
    if let Some(interval) = shapes.flush_interval {
        let timer = TimerService::new("probe-timer");
        let firings = (Duration::from_millis(250).as_nanos() / interval.as_nanos()).clamp(20, 100);
        let late_us: Vec<f64> = (0..firings)
            .map(|_| {
                let (tx, rx) = std::sync::mpsc::channel();
                let deadline = Instant::now() + interval;
                timer.arm_at(deadline, move || {
                    let _ = tx.send(Instant::now().saturating_duration_since(deadline));
                });
                rx.recv().expect("timer fired").as_secs_f64() * 1e6
            })
            .collect();
        let late = sorted(late_us);
        out.insert("util.timer.late_us_p50", quantile(&late, 0.50));
        out.insert("util.timer.late_us_p99", quantile(&late, 0.99));
    }

    // agas: resolve a bound GID.
    let agas = AgasService::new(2);
    let gid = agas.allocate(0);
    out.insert(
        "agas.resolve_ns",
        ns_per_op(|| {
            std::hint::black_box(agas.resolve(gid).expect("bound gid"));
        }),
    );
}
