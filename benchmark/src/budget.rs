//! The per-layer budget of a traced run: the (b) span and (c) probe costs
//! of one request summed against what a request has to spend, with the
//! unexplained remainder shown.
//!
//! The flood workloads are throughput-bound, so their budget is CPU time:
//! `cores × 1e9 / parcels_per_s` nanoseconds of processor are available
//! per completed request. The other two are latency-bound: the budget is
//! `lat_us_p50`. A request is a request parcel plus, where the workload
//! waits on futures, a reply parcel, so the two-way costs count twice.

use crate::metrics::Values;
use crate::rpx_api::Link;
use crate::trace::Trace;
use crate::workloads::Shapes;

pub fn print(workload: &str, shapes: &Shapes, end_to_end: &Values, layer: &Values, trace: &Trace) {
    let l = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let throughput_bound = shapes.throughput_bound;
    let (available, basis) = if throughput_bound {
        (
            cores * 1e9 / end_to_end["parcels_per_s"],
            format!("{cores} cores x 1e9 / parcels_per_s"),
        )
    } else {
        (end_to_end["lat_us_p50"] * 1e3, "lat_us_p50".to_string())
    };

    let ways = if shapes.replies { 2.0 } else { 1.0 };
    let per_message = l("coalesce.parcels_per_message").max(1.0);
    let wire = match shapes.link {
        Link::SimCluster => l("net.sim.pump_ns_per_msg") * ways,
        // A round trip is two messages.
        Link::ShmRings => l("net.shm.rtt_us_p50") * 1e3 / 2.0 * ways,
        Link::TcpReliable => l("net.tcp.rtt_us_p50") * 1e3 / 2.0 * ways,
    };
    // On the latency-bound workloads a parcel waits for its whole message;
    // on the floods the message's cost is shared by the parcels in it.
    let share = if throughput_bound { per_message } else { 1.0 };
    let mut rows: Vec<(&str, f64, &str)> = vec![
        (
            "core: submit (args, AGAS, LCO, send path)",
            l("core.submit_ns_p50"),
            "b",
        ),
        ("net: wire, per message / parcels in it", wire / share, "c"),
        (
            "net.frame: encode + decode",
            (l("net.frame.encode_ns") + l("net.frame.decode_ns")) * ways / share,
            "c",
        ),
        (
            "serialize: encode",
            l("serialize.encode_ns_per_parcel") * ways,
            "c",
        ),
        (
            "parcel: ingress (decode, spawn, run)",
            l("parcel.ingress_ns_per_parcel") * ways,
            "c",
        ),
    ];
    if shapes.replies {
        rows.push((
            "parcel + coalesce: the reply's send",
            l("parcel.send_ns") + l("coalesce.submit_ns"),
            "c",
        ));
        rows.push((
            "lco: promise set and get",
            l("lco.promise_roundtrip_ns"),
            "c",
        ));
    }

    println!("budget {workload}: {available:.0} ns per request ({basis})");
    for (what, ns, source) in &rows {
        println!("  {ns:>10.0} ns  ({source}) {what}");
    }
    let explained: f64 = rows.iter().map(|r| r.1).sum();
    println!(
        "  {explained:>10.0} ns  explained ({:.1} %)",
        100.0 * explained / available
    );
    println!(
        "  {:>10.0} ns  unexplained remainder ({:.1} %)",
        available - explained,
        100.0 * (available - explained) / available
    );
    println!(
        "  of submit: coalesce.submit {:.0} ns, parcel.send {:.0} ns, agas.resolve {:.0} ns (c)",
        l("coalesce.submit_ns"),
        l("parcel.send_ns"),
        l("agas.resolve_ns")
    );

    let self_times = trace.self_times();
    let total: f64 = self_times.values().sum();
    println!("span self times (duration minus what child spans cover), traced share of the run:");
    for (name, ns) in &self_times {
        println!(
            "  {:>10.3} ms  {:>5.1} %  {name}",
            ns / 1e6,
            100.0 * ns / total.max(1.0)
        );
    }
}
