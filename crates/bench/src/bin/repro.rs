//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p rpx-bench --bin repro -- <experiment>…
//! cargo run --release -p rpx-bench --bin repro -- all
//! ```
//!
//! Experiments: `timer fig4 fig5 fig6 fig7 fig8 fig9 rsd telemetry
//! fig4-sampled sampling-overhead adaptive phase-change ablate-trigger
//! ablate-bypass ablate-timer service`. Scale with
//! `RPX_REPRO_SCALE=quick|full` (default quick).
//!
//! `service` runs the skewed open-loop load generator with
//! per-destination adaptive coalescing and egress backpressure: it
//! sustains a 10× load swing, reports throughput/p50/p99 plus exact
//! per-destination accounting, and emits the per-destination parameter
//! series (also written as CSV to `RPX_SERVICE_CSV` when set). It ends
//! with the CPU ms/s and context switches/s of every thread name over the
//! run window (Linux `/proc`), so the thread that owns the CPU is named.
//!
//! `check-fig5` (not part of `all`) is the CI smoke check: it exits
//! non-zero unless completion time decreases monotonically (within
//! tolerance) with nparcels — figure-shape regressions fail the build.
//! `check-timer` (not part of `all`) gates the flush timer the same way:
//! it runs `timer` and exits non-zero if any timer fired early or the
//! mean firing error exceeds the paper's 33 µs.
//!
//! `chaos` (not part of `all`) is the reliability smoke: the toy app
//! runs over both backends under `FaultPlan::chaos()` with the
//! reliability sublayer enabled, and the run exits non-zero if any LCO
//! was lost or duplicated. The per-delivery-class contracts are
//! `tests/delivery_class.rs`'s.
//!
//! `launch -n N [--book] [--timeout-s T] [--expect-shm] -- <scenario…>`
//! (not part of `all`) runs a scenario as N cooperating OS processes —
//! one per locality — streaming rank-prefixed output, aggregating
//! per-rank counter dumps, and propagating the first non-zero exit.
//! `worker` is the internal mode those processes run in (driven entirely
//! by the `RPX_RANK`/`RPX_BOOTSTRAP` environment the launcher sets).
//! Scenarios run the same drivers that draw the figures (`run_toy`,
//! `run_parquet`, `run_service`), one rank per process: `toy`,
//! `parquet`, `chaos` (toy under `FaultPlan::chaos()` with reliability
//! across the real process boundary), and `service` (rank 0 drives the
//! skewed open-loop load against the other ranks;
//! knobs ride `RPX_SERVICE_*` environment variables — `ZIPF_S`, `RATE`,
//! `SESSIONS`, `DURATION_MS`, `WATERMARK`, `CLASS`, `CSV`, plus the
//! gates `P99_US` and `EXPECT_BACKPRESSURE`).
//!
//! `bench-compare [--baseline <path>] <current.json>…` (not part of
//! `all`) diffs `CRITERION_JSON` dumps against the committed
//! `BENCH_baseline.json`: per-id median slowdowns beyond 10% are
//! reported as regressions, and `RPX_BENCH_STRICT=1` makes them fail
//! the process (CI keeps the check advisory because shared-runner
//! timing is noisy).
//!
//! Workers route same-host traffic over shared-memory rings by default
//! (co-located ranks negotiate `/dev/shm` segments at bootstrap; remote
//! or unsupported peers fall back to TCP). `RPX_TRANSPORT=tcp` forces
//! pure TCP, `RPX_TRANSPORT=shm` is the default; `--expect-shm` makes
//! the launcher fail unless the aggregated counters prove shm carried
//! the traffic (`/network/shm-messages > 0`, zero TCP writev frames).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx_bench::table::{print_csv, print_table, ratio, secs};
use rpx_bench::{experiments as exp, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = Scale::from_env();
    match args.first().map(String::as_str) {
        Some("launch") => run_launch(&args[1..]),
        Some("worker") => run_worker(&args[1..], scale),
        Some("bench-compare") => run_bench_compare(&args[1..]),
        _ => {}
    }
    let all = [
        "timer",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "rsd",
        "telemetry",
        "fig4-sampled",
        "sampling-overhead",
        "adaptive",
        "phase-change",
        "ablate-trigger",
        "ablate-bypass",
        "ablate-timer",
        "service",
    ];
    let selected: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        all.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    println!("# RPX paper reproduction — scale {scale:?}");
    for name in selected {
        let t0 = std::time::Instant::now();
        match name {
            "timer" => {
                run_timer(scale);
            }
            "fig4" => run_fig4(scale),
            "fig5" => run_fig5(scale),
            "check-fig5" => run_check_fig5(scale),
            "check-timer" => run_check_timer(scale),
            "chaos" => run_chaos(scale),
            "fig6" => run_fig6(scale),
            "fig7" => run_fig7(scale),
            "fig8" => run_fig8(scale),
            "fig9" => run_fig9(scale),
            "rsd" => run_rsd(scale),
            "telemetry" => run_telemetry(scale),
            "fig4-sampled" => run_fig4_sampled(scale),
            "sampling-overhead" => run_sampling_overhead(scale),
            "adaptive" => run_adaptive(scale),
            "phase-change" => run_phase_change(scale),
            "ablate-trigger" => run_ablate_trigger(scale),
            "ablate-bypass" => run_ablate_bypass(scale),
            "ablate-timer" => run_ablate_timer(),
            "service" => run_service_exp(scale),
            other => {
                eprintln!("unknown experiment '{other}'; options: {all:?}");
                std::process::exit(2);
            }
        }
        println!("[{name} done in {:.1}s]", t0.elapsed().as_secs_f64());
    }
}

fn run_timer(scale: Scale) -> exp::TimerReport {
    let r = exp::exp_timer(scale.pick(200, 2_000));
    print_table(
        "T-timer — flush timer accuracy (paper §II-B: ≈33 µs mean)",
        &["fired", "mean_err_us", "stddev_us", "max_err_us", "early"],
        &[vec![
            r.fired.to_string(),
            format!("{:.1}", r.mean_error_us),
            format!("{:.1}", r.stddev_error_us),
            format!("{:.1}", r.max_error_us),
            r.early.to_string(),
        ]],
    );
    r
}

fn scatter_table(title: &str, r: &exp::ScatterReport, paper_r: f64) {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.nparcels.to_string(),
                p.interval_us.to_string(),
                ratio(p.network_overhead),
                secs(p.time_secs),
            ]
        })
        .collect();
    print_table(
        title,
        &["nparcels", "interval_us", "overhead", "time_s"],
        &rows,
    );
    print_csv(&["nparcels", "interval_us", "overhead", "time_s"], &rows);
    println!(
        "Pearson r = {} (paper: {paper_r})",
        r.pearson.map(|v| format!("{v:.3}")).unwrap_or("n/a".into())
    );
}

fn run_fig4(scale: Scale) {
    let r = exp::exp_fig4(scale);
    scatter_table("Fig 4 — toy app: network overhead vs phase time", &r, 0.97);
}

fn run_fig7(scale: Scale) {
    let r = exp::exp_fig7(scale);
    scatter_table(
        "Fig 7 — Parquet: network overhead vs iteration time",
        &r,
        0.92,
    );
}

fn completion_table(title: &str, r: &exp::CompletionReport) {
    let phases = r.rows.first().map(|(_, c)| c.len()).unwrap_or(0);
    let mut headers = vec!["nparcels".to_string()];
    headers.extend((0..phases).map(|i| format!("phase{i}_s")));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(n, cum)| {
            let mut row = vec![n.to_string()];
            row.extend(cum.iter().map(|t| secs(*t)));
            row
        })
        .collect();
    print_table(title, &header_refs, &rows);
    print_csv(&header_refs, &rows);
    println!("fastest total at nparcels = {}", r.best_nparcels());
}

fn run_fig5(scale: Scale) {
    let r = exp::exp_fig5(scale);
    completion_table(
        "Fig 5 — toy app: cumulative phase completion times (wait 4000 µs)",
        &r,
    );
}

/// CI smoke: fail (exit 1) unless the Fig. 5 curve keeps its shape —
/// completion time decreasing with nparcels on the simulated backend.
fn run_check_fig5(scale: Scale) {
    let r = exp::exp_fig5(scale);
    completion_table("Fig 5 shape check — toy app completion times", &r);
    match exp::check_fig5_shape(&r, 0.15) {
        Ok(()) => println!("fig5 shape OK: completion time decreases with nparcels"),
        Err(why) => {
            eprintln!("fig5 shape REGRESSED: {why}");
            std::process::exit(1);
        }
    }
}

/// The paper's flush-timer accuracy figure (§II-B): mean firing error of
/// its Boost deadline timer, in µs.
const PAPER_TIMER_MEAN_ERROR_US: f64 = 33.0;

/// Timer accuracy gate: runs the `timer` experiment and exits non-zero
/// unless every timer fired, none early, with a mean error within the
/// paper's figure.
fn run_check_timer(scale: Scale) {
    let n = scale.pick(200, 2_000);
    let r = run_timer(scale);
    let failure = if r.fired != n as u64 {
        Some(format!("{} of {n} timers fired", r.fired))
    } else if r.early > 0 {
        Some(format!("{} of {n} timers fired early", r.early))
    } else if r.mean_error_us > PAPER_TIMER_MEAN_ERROR_US {
        Some(format!(
            "mean firing error {:.1} µs exceeds the paper's {PAPER_TIMER_MEAN_ERROR_US} µs",
            r.mean_error_us
        ))
    } else {
        None
    };
    match failure {
        None => println!(
            "timer accuracy OK: mean {:.1} µs ≤ {PAPER_TIMER_MEAN_ERROR_US} µs, no early firing",
            r.mean_error_us
        ),
        Some(why) => {
            eprintln!("timer accuracy REGRESSED: {why}");
            std::process::exit(1);
        }
    }
}

/// Chaos smoke: toy app over both backends with the reliability sublayer
/// enabled and `FaultPlan::chaos()` (5 % drop, 2 % corrupt, duplicates,
/// reordering) on every wire. Exits non-zero if any LCO was lost or
/// duplicated — see `exp_chaos` for the exact invariants.
fn run_chaos(scale: Scale) {
    let r = exp::exp_chaos(scale);
    let headers = [
        "backend",
        "off_s",
        "baseline_s",
        "chaos_s",
        "dropped",
        "corrupted",
        "duplicated",
        "reordered",
        "retransmits",
        "acks",
        "dups_suppressed",
        "delivery_failures",
    ];
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                row.backend.to_string(),
                secs(row.off_secs),
                secs(row.baseline_secs),
                secs(row.chaos_secs),
                row.dropped.to_string(),
                row.corrupted.to_string(),
                row.duplicated.to_string(),
                row.reordered.to_string(),
                row.retransmits.to_string(),
                row.acks_sent.to_string(),
                row.duplicates_suppressed.to_string(),
                row.delivery_failures.to_string(),
            ]
        })
        .collect();
    print_table(
        "Chaos — toy app exactly-once delivery over a faulty wire",
        &headers,
        &rows,
    );
    print_csv(&headers, &rows);

    if r.violations.is_empty() {
        println!("chaos OK: exactly-once delivery held on every backend");
    } else {
        for v in &r.violations {
            eprintln!("chaos VIOLATION: {v}");
        }
        std::process::exit(1);
    }
}

fn run_fig6(scale: Scale) {
    let r = exp::exp_fig6(scale);
    completion_table(
        "Fig 6 — Parquet: cumulative iteration completion times (wait 4000 µs)",
        &r,
    );
}

fn run_fig8(scale: Scale) {
    let r = exp::exp_fig8(scale);
    let mut headers = vec!["interval_us\\nparcels".to_string()];
    headers.extend(r.nparcels.iter().map(|n| n.to_string()));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = r
        .intervals_us
        .iter()
        .zip(&r.matrix)
        .map(|(i, row)| {
            let mut out = vec![i.to_string()];
            out.extend(row.iter().map(|t| secs(*t)));
            out
        })
        .collect();
    print_table(
        "Fig 8 — Parquet: mean iteration seconds over (wait × nparcels)",
        &header_refs,
        &rows,
    );
    print_csv(&header_refs, &rows);
    let (bi, bn) = r.best_cell();
    println!(
        "best cell: interval {bi} µs, nparcels {bn} | disabled-band mean {} s vs enabled mean {} s",
        secs(r.disabled_band_mean()),
        secs(r.enabled_mean())
    );
}

fn run_fig9(scale: Scale) {
    let runs = exp::exp_fig9(scale);
    for run in &runs {
        let rows: Vec<Vec<String>> = run
            .phases
            .iter()
            .enumerate()
            .map(|(i, (n, oh, t))| vec![i.to_string(), n.to_string(), ratio(*oh), secs(*t)])
            .collect();
        print_table(
            &format!("Fig 9 — instantaneous overhead per phase ({})", run.label),
            &["phase", "nparcels", "overhead", "time_s"],
            &rows,
        );
        print_csv(&["phase", "nparcels", "overhead", "time_s"], &rows);
    }
}

/// Telemetry smoke: run the toy app with the default 1 ms sampler and
/// fail (exit 1) unless the exported series are non-empty — the CI gate
/// for the counter-sampling path.
fn run_telemetry(scale: Scale) {
    let r = exp::exp_telemetry_smoke(scale);
    print_table(
        "Telemetry — 1 ms counter sampling during a toy run",
        &[
            "ticks",
            "series",
            "overhead_samples",
            "json_bytes",
            "csv_rows",
        ],
        &[vec![
            r.ticks.to_string(),
            r.series.to_string(),
            r.overhead_samples.to_string(),
            r.json_bytes.to_string(),
            r.csv_rows.to_string(),
        ]],
    );
    if r.is_populated() {
        println!("telemetry OK: sampler produced non-empty series");
    } else {
        eprintln!("telemetry EMPTY: {r:?}");
        std::process::exit(1);
    }
}

fn run_fig4_sampled(scale: Scale) {
    let r = exp::exp_fig4_sampled(scale);
    scatter_table(
        "Fig 4 (sampled) — overhead from 1 ms instantaneous series vs phase time",
        &r,
        0.97,
    );
}

fn run_sampling_overhead(scale: Scale) {
    let r = exp::exp_sampling_overhead(scale, scale.pick(10, 8));
    print_table(
        "Sampling overhead — toy wall time with vs without the 1 ms sampler",
        &["unsampled_s", "sampled_s", "slowdown_pct"],
        &[vec![
            secs(r.unsampled_secs),
            secs(r.sampled_secs),
            format!("{:+.2}", 100.0 * r.slowdown()),
        ]],
    );
}

fn run_rsd(scale: Scale) {
    let r = exp::exp_rsd(scale);
    let rows: Vec<Vec<String>> = r
        .times
        .iter()
        .enumerate()
        .map(|(i, t)| vec![i.to_string(), secs(*t)])
        .collect();
    print_table(
        "T-rsd — repeated Parquet runs (4 parcels, 5000 µs)",
        &["run", "mean_iter_s"],
        &rows,
    );
    println!(
        "RSD = {} % (paper: < 5 %)",
        r.rsd_percent
            .map(|v| format!("{v:.2}"))
            .unwrap_or("n/a".into())
    );
}

fn run_adaptive(scale: Scale) {
    let r = exp::exp_adaptive(scale);
    print_table(
        "X-adaptive — adaptive control vs static vs PICS baseline",
        &["configuration", "total_s", "notes"],
        &[
            vec![
                "static worst (nparcels 1)".into(),
                secs(r.static_worst_secs),
                String::new(),
            ],
            vec![
                format!("static best (nparcels {})", r.static_best_nparcels),
                secs(r.static_best_secs),
                "offline sweep".into(),
            ],
            vec![
                "adaptive (start at 1)".into(),
                secs(r.adaptive_secs),
                format!(
                    "{} decisions, final nparcels {}",
                    r.adaptive_decisions, r.adaptive_final_nparcels
                ),
            ],
        ],
    );
    println!(
        "PICS baseline (Parquet): chose nparcels {} in {} decisions (paper cites 5)",
        r.pics_choice, r.pics_decisions
    );
}

fn run_phase_change(scale: Scale) {
    let r = exp::exp_phase_change(scale);
    let rows: Vec<Vec<String>> = r
        .stages
        .iter()
        .map(|s| {
            vec![
                s.label.clone(),
                secs(s.wall_secs),
                s.nparcels_after.to_string(),
            ]
        })
        .collect();
    print_table(
        "X-phase — adaptive nparcels across communication phases",
        &["stage", "wall_s", "nparcels_after"],
        &rows,
    );
    println!(
        "{} decisions, {} detected phase changes",
        r.decisions, r.detected_phase_changes
    );
}

fn run_ablate_trigger(scale: Scale) {
    let rows_data = exp::exp_ablate_trigger(scale);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.payload_elems.to_string(),
                secs(r.count_trigger_secs),
                secs(r.size_trigger_secs),
            ]
        })
        .collect();
    print_table(
        "Ablation — count trigger (paper) vs size trigger (Active Pebbles/AM++)",
        &["payload_elems", "count_trigger_s", "size_trigger_s"],
        &rows,
    );
}

fn run_ablate_bypass(scale: Scale) {
    let rows_data = exp::exp_ablate_bypass(scale);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| vec![r.label.clone(), format!("{:.1}", r.mean_latency_us)])
        .collect();
    print_table(
        "Ablation — sparse-traffic bypass (request latency on sparse traffic)",
        &["scenario", "mean_latency_us"],
        &rows,
    );
}

/// `service`: the skewed open-loop load generator under a 10× swing, on
/// a Sim runtime with per-destination adaptive coalescing and egress
/// backpressure. Ends with the per-thread CPU report of the run window.
/// Fails (exit 1) if the per-endpoint-pair accounting is inexact or the
/// per-destination parameters never diverged.
fn run_service_exp(scale: Scale) {
    let rt = rpx::Runtime::new(rpx::RuntimeConfig {
        localities: 4,
        backpressure_watermark: Some(64),
        transport: rpx::TransportKind::Sim(exp::paper_link()),
        ..rpx::RuntimeConfig::small_test()
    });
    let config = rpx_apps::ServiceConfig {
        sessions: scale.pick(4, 16),
        duration: Duration::from_millis(scale.pick(600, 3_000)),
        base_rate: scale.pick(1_500.0, 3_000.0),
        ..rpx_apps::ServiceConfig::default()
    };
    // Sampled while the runtime's threads are alive: shutdown joins them,
    // and a joined thread's counters leave `/proc` with it.
    let before = thread_samples();
    let window = Instant::now();
    let r = rpx_apps::run_service(&rt, &config).expect("service run");
    let threads = before
        .zip(thread_samples())
        .map(|(before, after)| thread_cpu_rows(&before, &after, window.elapsed()));
    rt.shutdown();
    print_table(
        "X-service — skewed open-loop load under a 10× swing",
        &[
            "sent",
            "delivered",
            "shed",
            "rps",
            "p50_us",
            "p99_us",
            "bp_events",
            "bp_blocked_ms",
        ],
        &[vec![
            r.sent.to_string(),
            r.delivered.to_string(),
            r.shed.to_string(),
            format!("{:.0}", r.throughput),
            format!("{:.1}", r.p50_us),
            format!("{:.1}", r.p99_us),
            r.backpressure_events.to_string(),
            format!("{:.2}", r.backpressure_blocked_ns as f64 / 1e6),
        ]],
    );
    let headers = [
        "dest",
        "sent",
        "delivered",
        "shed",
        "p99_us",
        "final_nparcels",
    ];
    let rows: Vec<Vec<String>> = r
        .per_dest
        .iter()
        .map(|d| {
            vec![
                d.dest.to_string(),
                d.sent.to_string(),
                d.delivered.to_string(),
                d.shed.to_string(),
                format!("{:.1}", d.p99_us),
                d.final_nparcels.to_string(),
            ]
        })
        .collect();
    print_table("X-service — per-destination breakdown", &headers, &rows);
    print_csv(&headers, &rows);
    println!(
        "{} steering decisions across {} destinations",
        r.decisions.len(),
        r.per_dest.len()
    );
    match threads {
        Some(rows) => print_table(
            "X-service — CPU per thread name over the run window",
            &[
                "thread",
                "count",
                "cpu_ms_per_s",
                "vol_cs_per_s",
                "invol_cs_per_s",
            ],
            &rows,
        ),
        None => println!("per-thread CPU: unavailable (needs Linux /proc/self/task)"),
    }
    if let Err(e) = write_series_csv(&r.series) {
        eprintln!("service: {e}");
        std::process::exit(1);
    }
    if !r.accounting_exact() {
        eprintln!("service FAILED: per-endpoint-pair accounting is inexact: {r:?}");
        std::process::exit(1);
    }
    let diverged = r.series.iter().any(|a| {
        r.series
            .iter()
            .any(|b| a.t_ms == b.t_ms && a.dest != b.dest && a.nparcels != b.nparcels)
    });
    if !diverged {
        eprintln!("service FAILED: per-destination parameters never diverged");
        std::process::exit(1);
    }
    println!("service OK: accounting exact, per-destination parameters diverged");
}

/// One thread's counters, read from `/proc/self/task/<tid>`.
struct ThreadSample {
    name: String,
    /// Time on CPU (ns), from `schedstat`: `stat`'s utime/stime count
    /// 10 ms ticks, too coarse for a sub-second window.
    cpu_ns: u64,
    voluntary_cs: u64,
    involuntary_cs: u64,
}

/// Every live thread of this process by tid, or `None` where
/// `/proc/self/task` cannot be read (off Linux).
fn thread_samples() -> Option<HashMap<u64, ThreadSample>> {
    let mut threads = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let Ok(tid) = task.file_name().to_string_lossy().parse::<u64>() else {
            continue;
        };
        let read = |file: &str| std::fs::read_to_string(task.path().join(file)).ok();
        // A thread that exits between the listing and the reads is skipped.
        let (Some(comm), Some(schedstat), Some(status)) =
            (read("comm"), read("schedstat"), read("status"))
        else {
            continue;
        };
        let status_field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        threads.insert(
            tid,
            ThreadSample {
                name: comm.trim().to_string(),
                cpu_ns: schedstat
                    .split_whitespace()
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0),
                voluntary_cs: status_field("voluntary_ctxt_switches:"),
                involuntary_cs: status_field("nonvoluntary_ctxt_switches:"),
            },
        );
    }
    (!threads.is_empty()).then_some(threads)
}

/// Per thread name, what its threads spent between two samples, as table
/// rows (most CPU first): thread count, CPU ms/s, and voluntary and
/// involuntary context switches/s. A thread born in the window (a new
/// tid, or a recycled one under a new name) counts from zero.
fn thread_cpu_rows(
    before: &HashMap<u64, ThreadSample>,
    after: &HashMap<u64, ThreadSample>,
    window: Duration,
) -> Vec<Vec<String>> {
    let mut by_name: HashMap<&str, [u64; 4]> = HashMap::new();
    for (tid, a) in after {
        let b = before.get(tid).filter(|b| b.name == a.name);
        let since = |f: fn(&ThreadSample) -> u64| f(a).saturating_sub(b.map_or(0, f));
        let sums = by_name.entry(&a.name).or_default();
        sums[0] += 1;
        sums[1] += since(|t| t.cpu_ns);
        sums[2] += since(|t| t.voluntary_cs);
        sums[3] += since(|t| t.involuntary_cs);
    }
    let mut names: Vec<_> = by_name.into_iter().collect();
    names.sort_by(|x, y| y.1[1].cmp(&x.1[1]).then(x.0.cmp(y.0)));
    let secs = window.as_secs_f64();
    names
        .into_iter()
        .map(|(name, [count, cpu_ns, vol, invol])| {
            vec![
                name.to_string(),
                count.to_string(),
                format!("{:.1}", cpu_ns as f64 / 1e6 / secs),
                format!("{:.0}", vol as f64 / secs),
                format!("{:.0}", invol as f64 / secs),
            ]
        })
        .collect()
}

/// Write the per-destination parameter series as CSV to `RPX_SERVICE_CSV`,
/// when set.
fn write_series_csv(series: &[rpx_apps::ParamSample]) -> Result<(), String> {
    let Ok(path) = std::env::var("RPX_SERVICE_CSV") else {
        return Ok(());
    };
    let mut csv = String::from("t_ms,dest,nparcels,interval_us\n");
    for s in series {
        csv.push_str(&format!(
            "{},{},{},{}\n",
            s.t_ms, s.dest, s.nparcels, s.interval_us
        ));
    }
    std::fs::write(&path, csv).map_err(|e| format!("cannot write series CSV to {path}: {e}"))?;
    println!("service: parameter series written to {path}");
    Ok(())
}

/// `repro bench-compare [--baseline <path>] <current.json>…`: diff
/// harness bench dumps against the committed baseline; >10% median
/// slowdowns warn, and `RPX_BENCH_STRICT=1` turns warnings into a
/// non-zero exit.
fn run_bench_compare(args: &[String]) -> ! {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut currents: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--baseline" => {
                baseline_path = it
                    .next()
                    .unwrap_or_else(|| {
                        eprintln!("--baseline needs a path");
                        std::process::exit(2);
                    })
                    .clone();
            }
            other => currents.push(other.to_string()),
        }
    }
    if currents.is_empty() {
        eprintln!("usage: repro bench-compare [--baseline <path>] <current.json>…");
        std::process::exit(2);
    }
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("bench-compare: cannot read {p}: {e}");
            std::process::exit(2);
        })
    };
    let baseline = read(&baseline_path);
    let strict = std::env::var("RPX_BENCH_STRICT").as_deref() == Ok("1");
    let mut regressions = 0usize;
    use rpx_bench::bench_compare::{compare, fmt_ns, REGRESSION_TOLERANCE};
    for path in &currents {
        let report = compare(&baseline, &read(path));
        println!("# {path} vs {baseline_path}");
        for d in &report.deltas {
            let verdict = if d.regressed() {
                regressions += 1;
                "REGRESSION"
            } else if d.change() < -REGRESSION_TOLERANCE {
                "improved"
            } else {
                "ok"
            };
            println!(
                "  {:<28} {:>12} -> {:>12}  {:+6.1}%  {verdict}",
                d.id,
                fmt_ns(d.baseline_ns),
                fmt_ns(d.current_ns),
                d.change() * 100.0,
            );
        }
        for id in &report.only_current {
            println!("  {id:<28} (no baseline entry — new benchmark)");
        }
        for id in &report.only_baseline {
            println!("  {id:<28} (baseline only — not in this run)");
        }
    }
    if regressions > 0 {
        eprintln!(
            "bench-compare: {regressions} benchmark(s) regressed more than {:.0}% \
             vs {baseline_path}{}",
            REGRESSION_TOLERANCE * 100.0,
            if strict {
                ""
            } else {
                " (advisory; set RPX_BENCH_STRICT=1 to gate)"
            }
        );
        std::process::exit(if strict { 1 } else { 0 });
    }
    println!(
        "bench-compare: no regressions beyond {:.0}%",
        REGRESSION_TOLERANCE * 100.0
    );
    std::process::exit(0)
}

/// `repro launch -n N [--book] [--timeout-s T] -- <scenario…>`: run a
/// scenario as N cooperating worker processes (see `rpx_bench::launch`).
fn run_launch(args: &[String]) -> ! {
    let mut n = 2u32;
    let mut timeout_s = 120u64;
    let mut book = false;
    let mut expect_shm = false;
    let mut scenario: Vec<String> = Vec::new();
    let mut i = 0;
    let usage = "usage: repro launch -n N [--book] [--timeout-s T] [--expect-shm] -- <scenario…>";
    while i < args.len() {
        match args[i].as_str() {
            "-n" => {
                n = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("{usage}");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--timeout-s" => {
                timeout_s = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("{usage}");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--book" => {
                book = true;
                i += 1;
            }
            "--expect-shm" => {
                expect_shm = true;
                i += 1;
            }
            "--" => {
                scenario = args[i + 1..].to_vec();
                break;
            }
            other => {
                eprintln!("unknown launch flag '{other}'; {usage}");
                std::process::exit(2);
            }
        }
    }
    if scenario.is_empty() {
        scenario = vec!["toy".to_string()];
    }
    let mut config = rpx_bench::LaunchConfig::new(n, scenario);
    config.timeout = Duration::from_secs(timeout_s);
    config.address_book = book;
    config.expect_shm = expect_shm;
    let exe = std::env::current_exe().expect("cannot locate the repro binary");
    match rpx_bench::launch(&exe, &config) {
        Ok(report) => {
            println!("launch: per-rank exit codes {:?}", report.exit_codes);
            if let Some(path) = &report.aggregate_path {
                println!("launch: aggregated counters at {}", path.display());
                // Fleet-wide delivery-class totals, summed across ranks.
                let sum = |c| rpx_bench::sum_aggregate_counter(path, c).unwrap_or(0.0);
                println!(
                    "launch: delivery classes — best-effort dropped {}, \
                     mailbox replaced {} / flushed {}",
                    sum("/network/best-effort-dropped"),
                    sum("/parcels/coalesce-mailbox-replaced"),
                    sum("/parcels/coalesce-mailbox-flushed"),
                );
                println!(
                    "launch: backpressure — events {}, shed {}, service delivered {}",
                    sum("/network/backpressure-events"),
                    sum("/network/backpressure-shed"),
                    sum("/app/service-delivered"),
                );
            }
            if let Some((rank, code)) = report.first_failure {
                eprintln!("launch: rank {rank} failed with exit code {code}; survivors killed");
            }
            if report.timed_out {
                eprintln!("launch: wall-clock ceiling hit after {timeout_s}s; workers killed");
            }
            if report.swept_segments > 0 {
                eprintln!(
                    "launch: swept {} leaked shm segment(s) after the run",
                    report.swept_segments
                );
            }
            if let Some(why) = &report.shm_violation {
                eprintln!("launch: --expect-shm FAILED: {why}");
            } else if expect_shm {
                println!("launch: --expect-shm OK (co-located traffic rode shared memory)");
            }
            std::process::exit(report.exit_code());
        }
        Err(e) => {
            eprintln!("launch failed: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro worker <scenario>`: one rank of a multi-process run. Boots the
/// runtime from the `RPX_*` environment the launcher set, runs the
/// scenario, dumps per-process counters, exits 0 on success.
fn run_worker(args: &[String], scale: Scale) -> ! {
    let scenario = args.first().map(String::as_str).unwrap_or("toy");
    let topology = match rpx::Topology::from_env() {
        Ok(Some(t)) => t,
        Ok(None) => {
            eprintln!("worker mode requires RPX_RANK/RPX_NUM_LOCALITIES (set by `repro launch`)");
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("bad bootstrap environment: {e}");
            std::process::exit(2);
        }
    };
    let rank = topology.rank;

    // Crash-injection hook for the kill-one-rank suite: the nominated
    // rank exits hard mid-run; the survivors must fail fast (reliability
    // give-up → broken promises), never hang.
    if let Ok(die) = std::env::var("RPX_TEST_DIE_RANK") {
        if die.parse::<u32>().ok() == Some(rank) {
            let after_ms: u64 = std::env::var("RPX_TEST_DIE_AFTER_MS")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(200);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(after_ms));
                eprintln!("rank {rank}: dying now (RPX_TEST_DIE_RANK)");
                std::process::exit(3);
            });
        }
    }

    // Wire backend: shm-capable by default (same-host peers negotiate
    // shared-memory rings at bootstrap, everything else rides TCP);
    // `RPX_TRANSPORT=tcp` forces the pure TCP path for A/B runs.
    let transport = match std::env::var("RPX_TRANSPORT").as_deref() {
        Err(_) | Ok("shm") => rpx::TransportKind::Shm(rpx::ShmTuning::default()),
        Ok("tcp") => rpx::TransportKind::TcpLoopback,
        Ok(other) => {
            eprintln!("rank {rank}: unknown RPX_TRANSPORT '{other}' (shm|tcp)");
            std::process::exit(2);
        }
    };
    let config = rpx::RuntimeConfig {
        transport,
        reliability: Some(rpx::ReliabilityConfig::default()),
        topology: Some(topology),
        // The service scenario's egress watermark (None for the rest).
        backpressure_watermark: std::env::var("RPX_SERVICE_WATERMARK")
            .ok()
            .and_then(|v| v.parse().ok()),
        ..rpx::RuntimeConfig::default()
    };
    let rt = match rpx::Runtime::try_new(config) {
        Ok(rt) => rt,
        Err(e) => {
            eprintln!("rank {rank}: boot failed: {e}");
            std::process::exit(1);
        }
    };

    let outcome = match scenario {
        "toy" => worker_toy(&rt, scale, false),
        "chaos" => worker_toy(&rt, scale, true),
        "parquet" => worker_parquet(&rt, scale),
        "service" => worker_service(&rt, scale, rank),
        other => {
            eprintln!("unknown worker scenario '{other}' (toy|parquet|chaos|service)");
            std::process::exit(2);
        }
    };
    match outcome {
        Ok(()) => {
            if let Ok(path) = std::env::var("RPX_COUNTERS_OUT") {
                if let Err(e) = rt.dump_counters_json(&path) {
                    eprintln!("rank {rank}: counter dump failed: {e}");
                    std::process::exit(1);
                }
            }
            rt.shutdown();
            std::process::exit(0);
        }
        Err(why) => {
            eprintln!("rank {rank}: {why}");
            std::process::exit(1);
        }
    }
}

/// The toy scenario for one rank; with `chaos` the outbound wire runs
/// under `FaultPlan::chaos()` — reliability must still deliver every
/// parcel exactly once across the real process boundary.
fn worker_toy(rt: &Arc<rpx::Runtime>, scale: Scale, chaos: bool) -> Result<(), String> {
    let plan = chaos.then(|| Arc::new(rpx_net::FaultPlan::chaos()));
    if let Some(plan) = &plan {
        for r in rt.hosted_localities() {
            rt.inject_faults(r, Some(Arc::clone(plan)));
        }
    }
    let cfg = rpx_apps::ToyConfig {
        numparcels: scale.pick(2_000, 50_000),
        phases: 3,
        bidirectional: true,
        coalescing: Some(rpx::CoalescingParams::new(64, Duration::from_micros(2000))),
        nparcels_schedule: None,
    };
    let report = rpx_apps::toy::run_toy(rt, &cfg).map_err(|e| e.to_string())?;
    let expected = (cfg.numparcels * cfg.phases) as u64;
    for s in &report.per_rank {
        if s.parcels_sent != expected {
            return Err(format!(
                "rank {} sent {} parcels, expected {expected}",
                s.rank, s.parcels_sent
            ));
        }
        println!(
            "toy rank {}: parcels {} checksum ({}, {}) messages {}",
            s.rank, s.parcels_sent, s.checksum.re, s.checksum.im, report.messages_counted
        );
    }
    if let Some(plan) = &plan {
        println!(
            "chaos rank summary: dropped {} corrupted {} duplicated {} reordered {}",
            plan.dropped(),
            plan.corrupted(),
            plan.duplicated(),
            plan.reordered()
        );
    }
    Ok(())
}

/// The service scenario for one rank: rank 0 drives the skewed
/// open-loop load, every rank serves. Gates (p99 ceiling, mandatory
/// backpressure) ride the environment so CI legs can assert different
/// regimes with one binary.
fn worker_service(rt: &Arc<rpx::Runtime>, scale: Scale, rank: u32) -> Result<(), String> {
    let envf = |key: &str, default: f64| -> f64 {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let class = match std::env::var("RPX_SERVICE_CLASS").as_deref() {
        Ok("besteffort") => rpx::DeliveryClass::BestEffort,
        Err(_) | Ok("lossless") => rpx::DeliveryClass::Lossless,
        Ok(other) => return Err(format!("unknown RPX_SERVICE_CLASS '{other}'")),
    };
    let config = rpx_apps::ServiceConfig {
        sessions: envf("RPX_SERVICE_SESSIONS", scale.pick(4.0, 8.0)) as usize,
        duration: Duration::from_millis(
            envf("RPX_SERVICE_DURATION_MS", scale.pick(800.0, 2_500.0)) as u64,
        ),
        base_rate: envf("RPX_SERVICE_RATE", 1_500.0),
        zipf_s: envf("RPX_SERVICE_ZIPF_S", 1.2),
        class,
        ..rpx_apps::ServiceConfig::default()
    };
    let report = rpx_apps::run_service(rt, &config).map_err(|e| e.to_string())?;
    println!(
        "service rank {rank}: sent {} delivered {} shed {} probes {} \
         probe_p99_us {:.1} backpressure_events {}",
        report.sent,
        report.delivered,
        report.shed,
        report.probes,
        report.probe_p99_us,
        report.backpressure_events
    );
    if rank == 0 {
        write_series_csv(&report.series)?;
        let p99_ceiling = envf("RPX_SERVICE_P99_US", 0.0);
        if p99_ceiling > 0.0 && report.probe_p99_us > p99_ceiling {
            return Err(format!(
                "probe p99 {:.1} µs exceeds the {p99_ceiling:.1} µs ceiling",
                report.probe_p99_us
            ));
        }
        if std::env::var("RPX_SERVICE_EXPECT_BACKPRESSURE").as_deref() == Ok("1")
            && report.backpressure_events == 0
        {
            return Err("expected backpressure events, saw none".to_string());
        }
    }
    Ok(())
}

/// The parquet scenario for one rank.
fn worker_parquet(rt: &Arc<rpx::Runtime>, scale: Scale) -> Result<(), String> {
    let cfg = rpx_apps::ParquetConfig {
        nc: scale.pick(8, 24),
        iterations: 3,
        coalescing: Some(rpx::CoalescingParams::new(4, Duration::from_micros(2000))),
        compute_per_iteration: Duration::from_millis(1),
    };
    let report = rpx_apps::parquet::run_parquet(rt, &cfg).map_err(|e| e.to_string())?;
    for s in &report.per_rank {
        println!(
            "parquet rank {}: parcels {} checksum ({}, {})",
            s.rank, s.parcels_sent, s.checksum.re, s.checksum.im
        );
    }
    Ok(())
}

fn run_ablate_timer() {
    let rows_data = exp::exp_ablate_timer(300);
    let rows: Vec<Vec<String>> = rows_data
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.1}", r.mean_error_us),
                format!("{:.1}", r.max_error_us),
            ]
        })
        .collect();
    print_table(
        "Ablation — flush-timer design (firing error)",
        &["design", "mean_err_us", "max_err_us"],
        &rows,
    );
}
