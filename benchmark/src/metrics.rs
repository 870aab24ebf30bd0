//! The benchmark's metric tables (the source of `BENCHMARK.json`), sample
//! statistics, and the result line.

use std::collections::BTreeMap;

/// Workload names and the one-line reason each is in the benchmark.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "toy_adaptive_sim",
        "dense single-complex parcels on the modelled 20 us/message wire: the coalescing and adaptive layers do the work",
    ),
    (
        "parquet_static_shm",
        "768 B rows in batches of 4 over shm rings with a barrier per iteration: serialize, frame, shm, timer and lco do the work",
    ),
    (
        "rtt_direct_tcp",
        "one outstanding echo over reliable loopback TCP, no coalescing: the bypass where any added per-message cost shows undiluted",
    ),
    (
        "service_mixed_tcp",
        "open-loop Zipf traffic in three delivery classes under per-destination control: the latency price of batching",
    ),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 30;

/// One end-to-end metric: name, unit, which direction is better, and the
/// share of the parent's median by which it may worsen.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "parcels_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.15,
    },
    EndToEnd {
        name: "phase_ms_p50",
        unit: "ms",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "phase_ms_p95",
        unit: "ms",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "lat_us_p50",
        unit: "us",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "lat_us_p99",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_parcel",
        unit: "us",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
    },
];

/// Per-layer metrics: name, unit, better. The prefix is the crate
/// directory (`net.<sub>` for the transport sub-layers; `bench` is the
/// harness itself).
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    ("core.submit_ns_p50", "ns", "lower"),
    ("core.wait_share", "share", "lower"),
    ("core.quiesce_ms_p50", "ms", "lower"),
    ("core.boot_ms", "ms", "lower"),
    ("core.shutdown_ms", "ms", "lower"),
    ("coalesce.submit_ns", "ns", "lower"),
    ("coalesce.parcels", "count", "higher"),
    ("coalesce.messages", "count", "lower"),
    ("coalesce.parcels_per_message", "ratio", "higher"),
    ("coalesce.arrival_gap_us", "us", "lower"),
    ("serialize.encode_ns_per_parcel", "ns", "lower"),
    ("serialize.decode_ns_per_parcel", "ns", "lower"),
    ("serialize.bytes_per_parcel", "B", "lower"),
    ("parcel.send_ns", "ns", "lower"),
    ("parcel.ingress_ns_per_parcel", "ns", "lower"),
    ("parcel.backpressure_events", "count", "lower"),
    ("parcel.blocked_ms", "ms", "lower"),
    ("parcel.shed", "count", "lower"),
    ("parcel.best_effort_dropped", "count", "lower"),
    ("parcel.mailbox_replaced", "count", "higher"),
    ("net.messages_sent", "count", "lower"),
    ("net.bytes_sent", "B", "lower"),
    ("net.bytes_per_parcel", "B", "lower"),
    ("net.decode_failures", "count", "lower"),
    ("net.sim.pump_ns_per_msg", "ns", "lower"),
    ("net.tcp.rtt_us_p50", "us", "lower"),
    ("net.tcp.rtt_us_p50_1k", "us", "lower"),
    ("net.tcp.rtt_us_p50_64k", "us", "lower"),
    ("net.shm.rtt_us_p50", "us", "lower"),
    ("net.frame.encode_ns", "ns", "lower"),
    ("net.frame.decode_ns", "ns", "lower"),
    ("net.tcp.wakeups_per_msg", "ratio", "lower"),
    ("net.tcp.frames_per_readv", "ratio", "higher"),
    ("net.tcp.writev_frames", "count", "lower"),
    ("net.shm.messages", "count", "lower"),
    ("net.shm.doorbells_per_msg", "ratio", "lower"),
    ("net.reliability.retransmits", "count", "lower"),
    ("net.reliability.acks_per_msg", "ratio", "lower"),
    ("net.reliability.duplicates", "count", "lower"),
    ("threading.spawn_ns_per_task", "ns", "lower"),
    ("threading.spawn_batch_ns_per_task", "ns", "lower"),
    ("threading.idle_share", "share", "lower"),
    ("threading.tasks_per_spawn_batch", "ratio", "higher"),
    ("threading.wakeups_skipped_share", "ratio", "higher"),
    ("metrics.network_overhead", "share", "lower"),
    ("metrics.task_overhead_ns", "ns", "lower"),
    ("metrics.reader_ns", "ns", "lower"),
    ("adaptive.decisions", "count", "lower"),
    ("adaptive.final_nparcels", "count", "higher"),
    ("adaptive.settle_ms", "ms", "lower"),
    ("adaptive.changes_per_s_after_settle", "1/s", "lower"),
    ("lco.promise_roundtrip_ns", "ns", "lower"),
    ("lco.barrier_us_p50", "us", "lower"),
    ("util.timer.late_us_p50", "us", "lower"),
    ("util.timer.late_us_p99", "us", "lower"),
    ("agas.resolve_ns", "ns", "lower"),
    ("counters.query_ns", "ns", "lower"),
    ("bench.gen_late_us_p99", "us", "lower"),
    ("bench.lat_base_us_p99", "us", "lower"),
    ("bench.lat_burst_us_p99", "us", "lower"),
    ("bench.backlog_growth", "count", "lower"),
    ("bench.trace_overhead_share", "share", "lower"),
];

/// Metric values by name. A per-layer metric a workload never sets stays
/// at 0: the layer was bypassed.
pub type Values = BTreeMap<&'static str, f64>;

/// `BENCHMARK.json`, generated from the tables above.
pub fn manifest() -> String {
    let quoted = |items: Vec<String>| items.join(",\n    ");
    let workloads = quoted(
        WORKLOADS
            .iter()
            .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
            .collect(),
    );
    let end_to_end = quoted(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    );
    let per_layer = quoted(
        PER_LAYER
            .iter()
            .map(|(name, unit, better)| {
                format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
            })
            .collect(),
    );
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--release\", \"--offline\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {workloads}\n  ],\n  \
         \"end_to_end\": [\n    {end_to_end}\n  ],\n  \"per_layer\": [\n    {per_layer}\n  ]\n}}\n"
    )
}

/// `num / den`, or 0 when nothing was counted below the line.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The value at quantile `q` of an ascending-sorted sample (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Sort a sample ascending.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample (0 if empty: the layer was not exercised).
pub fn median(v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    quantile(&sorted(v), 0.5)
}

/// "median plus the highest percentile with at least ten samples beyond
/// it, with the sample count" — the human-readable timing line.
pub fn describe(name: &str, unit: &str, sample: &[f64]) -> String {
    if sample.is_empty() {
        return format!("{name}: no samples");
    }
    let s = sorted(sample.to_vec());
    let n = s.len();
    let tail = [0.9999, 0.999, 0.99, 0.95, 0.90]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0);
    match tail {
        Some(p) => format!(
            "{name}: p50 {:.3} {unit}, p{} {:.3} {unit} (n={n})",
            quantile(&s, 0.5),
            p * 100.0,
            quantile(&s, p)
        ),
        None => format!(
            "{name}: p50 {:.3} {unit} (n={n}, too few for a tail)",
            quantile(&s, 0.5)
        ),
    }
}

/// The last line of standard output: one JSON object.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    names: &[(&'static str, &'static str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {name} is not finite");
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
