//! The RPX benchmark: one command runs a named workload for a seed and a
//! run length, checks its outputs, and prints every metric by name with
//! its unit. See `benchmark/README.md`.

mod budget;
mod calibrate;
mod counters;
mod metrics;
mod probes;
mod repeat;
mod rpx_api;
mod sys;
mod trace;
mod workloads;

use std::time::Instant;

use metrics::{
    describe, median, quantile, ratio, sorted, Values, END_TO_END, PER_LAYER, WORKLOADS,
};
use workloads::{Spec, Workload};

/// Set-ups per run; `setup_s` is their median and the last one is used.
const SETUP_REPS: usize = 3;

/// Everything one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Values,
    pub per_layer: Values,
}

fn execute<W: Workload>(name: &str, spec: &Spec) -> Report {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<W> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            rpx_api::shutdown(previous.finish());
        }
        let t = Instant::now();
        live = Some(W::setup(spec));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = live.expect("at least one set-up");
    let threads = sys::thread_count();

    let before = counters::snapshot(w.runtime(), w.coalesced());
    let cpu_before = sys::process_cpu();
    let mut m = w.run(spec);
    let cpu = sys::process_cpu() - cpu_before;
    let after = counters::snapshot(w.runtime(), w.coalesced());
    let delta = counters::Delta::new(&before, &after);
    m.problems.extend(w.verify(&delta, &m));

    let mut end_to_end = Values::new();
    let parcels_per_s = m.completed as f64 / m.window.as_secs_f64();
    let phases = sorted(m.phase_ms.clone());
    end_to_end.insert("setup_s", median(setups));
    end_to_end.insert("parcels_per_s", parcels_per_s);
    end_to_end.insert("phase_ms_p50", quantile(&phases, 0.50));
    end_to_end.insert("phase_ms_p95", quantile(&phases, 0.95));
    end_to_end.insert("lat_us_p50", m.lat_us_p50);
    end_to_end.insert("lat_us_p99", m.lat_us_p99);
    end_to_end.insert(
        "cpu_us_per_parcel",
        cpu.as_secs_f64() * 1e6 / m.completed.max(1) as f64,
    );

    println!(
        "workload {name} seed {} seconds {} trace {}",
        spec.seed, spec.seconds, spec.trace as u8
    );
    println!(
        "threads alive during the window: {threads} (available parallelism {})",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("{}", describe("phase_ms", "ms", &m.phase_ms));
    println!("{}", describe("lat_us", "us", &m.lat_us));
    println!(
        "attempted {} completed {} failed {} in {:.3} s",
        m.attempted,
        m.completed,
        m.failed,
        m.window.as_secs_f64()
    );

    let mut per_layer = Values::new();
    let shapes = w.shapes();
    if spec.trace {
        delta.layer_values(&mut per_layer);
        per_layer.append(&mut m.layer);
        per_layer.insert("core.boot_ms", w.boot_time().as_secs_f64() * 1e3);
        per_layer.insert("core.submit_ns_p50", median(m.trace.durations("submit")));
        per_layer.insert(
            "core.quiesce_ms_p50",
            median(m.trace.durations("quiesce")) / 1e6,
        );
        per_layer.insert(
            "lco.barrier_us_p50",
            median(m.trace.durations("barrier")) / 1e3,
        );
        let total = |n: &str| m.trace.durations(n).iter().sum::<f64>();
        per_layer.insert(
            "core.wait_share",
            ratio(total("wait"), total("phase.drive")),
        );
        per_layer.insert("bench.trace_overhead_share", m.ab.overhead_share());
        probes::run(&shapes, &mut per_layer);
        match m.trace.write(name, spec.seed) {
            Ok(path) => println!("{} spans written to {}", m.trace.len(), path.display()),
            Err(e) => m.problems.push(format!("writing the trace failed: {e}")),
        }
    }

    let rt = w.finish();
    let shutdown = rpx_api::shutdown(rt);
    end_to_end.insert("peak_rss_mib", sys::peak_rss_mib());
    if spec.trace {
        per_layer.insert("core.shutdown_ms", shutdown.as_secs_f64() * 1e3);
        budget::print(name, &shapes, &end_to_end, &per_layer, &m.trace);
    }

    for p in &m.problems {
        println!("INCORRECT: {p}");
    }
    Report {
        correct: m.problems.is_empty(),
        attempted: m.attempted,
        failed: m.failed,
        end_to_end,
        per_layer,
    }
}

/// Run one workload by name.
pub fn run_workload(name: &str, spec: &Spec) -> Option<Report> {
    Some(match name {
        "toy_adaptive_sim" => execute::<workloads::toy::Toy>(name, spec),
        "parquet_static_shm" => execute::<workloads::parquet::Parquet>(name, spec),
        "rtt_direct_tcp" => execute::<workloads::rtt::Rtt>(name, spec),
        "service_mixed_tcp" => execute::<workloads::service::Service>(name, spec),
        _ => return None,
    })
}

fn usage() -> ! {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
    eprintln!(
        "usage: rpx-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         rpx-benchmark --smoke\n       \
         rpx-benchmark repeat <runs> [--seed <n>] [--seconds <s>]\n       \
         rpx-benchmark calibrate\n       \
         rpx-benchmark manifest",
        names.join("|")
    );
    std::process::exit(2);
}

/// The value following `flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let at = args.iter().position(|a| a == flag)?;
    match args.get(at + 1).and_then(|v| v.parse().ok()) {
        Some(v) => Some(v),
        None => usage(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => print!("{}", metrics::manifest()),
        Some("calibrate") => calibrate::run(),
        Some("repeat") => {
            let runs = args
                .get(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage());
            let seed = flag(&args, "--seed").unwrap_or(1);
            let seconds = flag(&args, "--seconds").unwrap_or(f64::from(metrics::RUN_SECONDS));
            std::process::exit(repeat::run(runs, seed, seconds));
        }
        Some("--smoke") => {
            // Correctness only: 2 s per workload, no bounds.
            let mut ok = true;
            for (name, _) in WORKLOADS {
                let spec = Spec {
                    seed: 1,
                    seconds: 2.0,
                    trace: false,
                };
                let r = run_workload(name, &spec).expect("known workload");
                println!(
                    "smoke {name}: correct {} attempted {} failed {}",
                    r.correct, r.attempted, r.failed
                );
                ok &= r.correct && r.failed == 0;
            }
            std::process::exit(if ok { 0 } else { 1 });
        }
        _ => {
            let name: String = flag(&args, "--workload").unwrap_or_else(|| usage());
            let spec = Spec {
                seed: flag(&args, "--seed").unwrap_or_else(|| usage()),
                seconds: flag(&args, "--seconds").unwrap_or_else(|| usage()),
                trace: flag::<u8>(&args, "--trace").unwrap_or_else(|| usage()) != 0,
            };
            if !spec.seconds.is_finite() || spec.seconds <= 0.0 {
                usage();
            }
            let Some(report) = run_workload(&name, &spec) else {
                usage()
            };
            let line = if spec.trace {
                for (n, unit, _) in PER_LAYER {
                    println!(
                        "{n} {} {unit}",
                        report.per_layer.get(n).copied().unwrap_or(0.0)
                    );
                }
                let names: Vec<_> = PER_LAYER.iter().map(|m| (m.0, m.1)).collect();
                metrics::result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &names,
                    &report.per_layer,
                )
            } else {
                for m in &END_TO_END {
                    println!("{} {} {}", m.name, report.end_to_end[m.name], m.unit);
                }
                let names: Vec<_> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
                metrics::result_line(
                    report.correct,
                    report.attempted,
                    report.failed,
                    &names,
                    &report.end_to_end,
                )
            };
            println!("{line}");
        }
    }
}
