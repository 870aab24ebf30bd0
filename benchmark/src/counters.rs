//! Per-layer metrics of kind (a): deltas of RPX's public counters across
//! the timed window, summed over all localities.

use std::collections::BTreeMap;

use crate::metrics::{ratio, Values};
use crate::rpx_api::{counter, MetricsSample, Runtime};

/// Counters summed over localities; the coalescing ones exist per action.
const PLAIN: [&str; 24] = [
    "/network/messages-sent",
    "/network/messages-received",
    "/network/bytes-sent",
    "/network/decode-failures",
    "/network/backpressure-events",
    "/network/backpressure-blocked-ns",
    "/network/backpressure-shed",
    "/network/best-effort-dropped",
    "/network/event-loop-wakeups",
    "/network/event-loop-readv-batches",
    "/network/event-loop-writev-frames",
    "/network/shm-messages",
    "/network/shm-doorbell-wakeups",
    "/network/retransmits",
    "/network/acks-sent",
    "/network/duplicates-suppressed",
    "/parcels/count/sent",
    "/parcels/coalesce-mailbox-replaced",
    "/threads/time/cumulative",
    "/threads/spawn-batches",
    "/threads/batched-tasks",
    "/threads/wakeups-skipped",
    "/threads/count/cumulative-spawned",
    "/threads/count/cumulative",
];

/// Cumulative counter values at one instant.
pub struct Snapshot {
    sums: BTreeMap<String, f64>,
    /// Σ idle ns, recovered from `/threads/idle-rate = idle / (func + idle)`.
    idle_ns: f64,
    /// Σ arrival-gap ns over coalesced actions (mean × samples).
    gap_ns: f64,
    metrics: MetricsSample,
}

/// Read every counter the (a) metrics need. `coalesced` names the actions
/// with a coalescer installed (empty when the workload bypasses it).
pub fn snapshot(rt: &Runtime, coalesced: &[&str]) -> Snapshot {
    let mut sums = BTreeMap::new();
    let (mut idle_ns, mut gap_ns) = (0.0, 0.0);
    for loc in 0..rt.num_localities() {
        for path in PLAIN {
            *sums.entry(path.to_string()).or_insert(0.0) += counter(rt, loc, path);
        }
        let rate = counter(rt, loc, "/threads/idle-rate");
        if rate < 1.0 {
            idle_ns += counter(rt, loc, "/threads/time/cumulative") * rate / (1.0 - rate);
        }
        for action in coalesced {
            let parcels = counter(rt, loc, &format!("/coalescing/count/parcels@{action}"));
            let messages = counter(rt, loc, &format!("/coalescing/count/messages@{action}"));
            *sums.entry("coalesce.parcels".into()).or_insert(0.0) += parcels;
            *sums.entry("coalesce.messages".into()).or_insert(0.0) += messages;
            *sums
                .entry(format!("coalesce.parcels@{action}"))
                .or_insert(0.0) += parcels;
            let gap = counter(
                rt,
                loc,
                &format!("/coalescing/time/average-parcel-arrival@{action}"),
            );
            gap_ns += gap * (parcels - 1.0).max(0.0);
        }
    }
    Snapshot {
        sums,
        idle_ns,
        gap_ns,
        metrics: rt.metrics(0).sample(),
    }
}

/// What the counters moved by between two snapshots.
pub struct Delta<'a> {
    before: &'a Snapshot,
    after: &'a Snapshot,
}

impl<'a> Delta<'a> {
    pub fn new(before: &'a Snapshot, after: &'a Snapshot) -> Self {
        Delta { before, after }
    }

    pub fn of(&self, key: &str) -> f64 {
        let get = |s: &Snapshot| s.sums.get(key).copied().unwrap_or(0.0);
        get(self.after) - get(self.before)
    }

    /// The (a) per-layer metrics.
    pub fn layer_values(&self, out: &mut Values) {
        let d = |k: &str| self.of(k);
        let parcels = d("coalesce.parcels");
        out.insert("coalesce.parcels", parcels);
        out.insert("coalesce.messages", d("coalesce.messages"));
        out.insert(
            "coalesce.parcels_per_message",
            ratio(parcels, d("coalesce.messages")),
        );
        out.insert(
            "coalesce.arrival_gap_us",
            ratio(self.after.gap_ns - self.before.gap_ns, parcels) / 1e3,
        );
        out.insert(
            "parcel.backpressure_events",
            d("/network/backpressure-events"),
        );
        out.insert(
            "parcel.blocked_ms",
            d("/network/backpressure-blocked-ns") / 1e6,
        );
        out.insert("parcel.shed", d("/network/backpressure-shed"));
        out.insert(
            "parcel.best_effort_dropped",
            d("/network/best-effort-dropped"),
        );
        out.insert(
            "parcel.mailbox_replaced",
            d("/parcels/coalesce-mailbox-replaced"),
        );
        let (sent, received) = (d("/network/messages-sent"), d("/network/messages-received"));
        out.insert("net.messages_sent", sent);
        out.insert("net.bytes_sent", d("/network/bytes-sent"));
        out.insert(
            "net.bytes_per_parcel",
            ratio(d("/network/bytes-sent"), d("/parcels/count/sent")),
        );
        out.insert("net.decode_failures", d("/network/decode-failures"));
        let readv = d("/network/event-loop-readv-batches");
        out.insert(
            "net.tcp.wakeups_per_msg",
            ratio(d("/network/event-loop-wakeups"), received),
        );
        out.insert("net.tcp.frames_per_readv", ratio(received, readv));
        out.insert(
            "net.tcp.writev_frames",
            d("/network/event-loop-writev-frames"),
        );
        let shm = d("/network/shm-messages");
        out.insert("net.shm.messages", shm);
        out.insert(
            "net.shm.doorbells_per_msg",
            ratio(d("/network/shm-doorbell-wakeups"), shm),
        );
        out.insert("net.reliability.retransmits", d("/network/retransmits"));
        out.insert(
            "net.reliability.acks_per_msg",
            ratio(d("/network/acks-sent"), sent),
        );
        out.insert(
            "net.reliability.duplicates",
            d("/network/duplicates-suppressed"),
        );
        let func = d("/threads/time/cumulative");
        let idle = self.after.idle_ns - self.before.idle_ns;
        out.insert("threading.idle_share", ratio(idle, func + idle));
        out.insert(
            "threading.tasks_per_spawn_batch",
            ratio(d("/threads/batched-tasks"), d("/threads/spawn-batches")),
        );
        out.insert(
            "threading.wakeups_skipped_share",
            ratio(
                d("/threads/wakeups-skipped"),
                d("/threads/count/cumulative-spawned"),
            ),
        );
        let m = self.after.metrics.delta_since(&self.before.metrics);
        out.insert("metrics.network_overhead", m.network_overhead());
        out.insert("metrics.task_overhead_ns", m.task_overhead_ns());
    }
}
