//! The four workloads. Each is a driver written on the `rpx` façade with
//! the action bodies and payloads of `rpx-apps::{toy, parquet, service}`;
//! the apps' own drivers take fixed counts and register once per runtime,
//! so they cannot be run for a wall-clock window or set up repeatedly.

use std::sync::Arc;
use std::time::Duration;

use std::time::Instant;

use crate::counters::Delta;
use crate::metrics::{median, quantile, ratio, sorted, Values};
use crate::rpx_api::{ActionHandle, Ctx, Link, Runtime, RuntimeError, Wire};
use crate::trace::{SpanBuf, Trace};

pub mod parquet;
pub mod rtt;
pub mod service;
pub mod toy;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// The observed shapes the layer probes replay.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// Argument bytes of the workload's dominant parcel.
    pub payload_bytes: usize,
    /// Flush interval of the workload's coalescer, if it has one.
    pub flush_interval: Option<Duration>,
    pub link: Link,
    /// Closed-batch flood (budgeted in CPU time) or latency-bound.
    pub throughput_bound: bool,
    /// Whether 1 KiB and 64 KiB payloads also cross the link.
    pub large_payloads: bool,
    /// Whether a controller samples Eq. 1–4 while it runs.
    pub steered: bool,
    /// Whether requests carry a continuation (a future is resolved).
    pub replies: bool,
}

/// What the timed window produced.
pub struct Measured {
    /// Requests issued in the window.
    pub attempted: u64,
    /// Requests shed, refused, timed out, duplicated or wrong.
    pub failed: u64,
    /// Requests completed (future resolved / handler ran).
    pub completed: u64,
    /// Wall time of the window.
    pub window: Duration,
    /// Phase / iteration / slice wall times.
    pub phase_ms: Vec<f64>,
    /// Per-request latencies, pooled (for the printed distribution).
    pub lat_us: Vec<f64>,
    /// `lat_us_p50` / `lat_us_p99` as the workload defines them.
    pub lat_us_p50: f64,
    pub lat_us_p99: f64,
    /// Correctness failures, empty when the outputs are right.
    pub problems: Vec<String>,
    /// Per-layer values only the driver knows: the (b) span metrics'
    /// inputs live in `trace`; `bench.*` and `adaptive.*` land here.
    pub layer: Values,
    pub trace: Trace,
    /// Traced and untraced shares of a traced run.
    pub ab: AbRates,
}

/// One workload: set-up, a timed window, teardown.
pub trait Workload: Sized {
    /// `Runtime::new` → actions registered → coalescing and controller
    /// installed → one untimed warm-up phase. Every input the window will
    /// use is generated here, from the seed (and, for a schedule, the run
    /// length).
    fn setup(spec: &Spec) -> Self;
    fn runtime(&self) -> &Arc<Runtime>;
    /// `Runtime::new` alone (part of set-up).
    fn boot_time(&self) -> Duration;
    /// Actions with a coalescer installed.
    fn coalesced(&self) -> &'static [&'static str];
    fn shapes(&self) -> Shapes;
    /// Run the timed window.
    fn run(&mut self, spec: &Spec) -> Measured;
    /// Output checks that need the counter deltas of the window; returns
    /// what is wrong (nothing, when the outputs are right).
    fn verify(&self, _delta: &Delta, _measured: &Measured) -> Vec<String> {
        Vec::new()
    }
    /// Stop controllers and hand back the runtime for shutdown.
    fn finish(self) -> Arc<Runtime>;
}

/// On the two flood workloads one request in this many is timed (and, in
/// the traced run, spanned).
pub const SAMPLE_EVERY: usize = 64;

/// One locality's closed batch: submit every request, then wait for every
/// reply in submission order, handing each to `reply`. Returns the
/// sampled latencies (µs) from submit to the reply being in the caller's
/// hands. Spans: `submit_all` > `submit` (sampled), then `wait`, all
/// under `root`.
pub fn flood<A: Wire, R: Wire>(
    ctx: &Ctx,
    action: &ActionHandle<A, R>,
    spans: &mut SpanBuf,
    root: Option<u32>,
    phase: u64,
    requests: impl ExactSizeIterator<Item = (u32, A)>,
    mut reply: impl FnMut(Result<R, RuntimeError>),
) -> Vec<f64> {
    let mut futures = Vec::with_capacity(requests.len());
    let mut stamps = Vec::with_capacity(requests.len() / SAMPLE_EVERY + 1);
    let submit_all = spans.open("submit_all", root, phase);
    for (i, (dest, args)) in requests.enumerate() {
        if i % SAMPLE_EVERY == 0 {
            stamps.push(Instant::now());
            let s = spans.open("submit", submit_all, i as u64);
            futures.push(ctx.async_action(action, dest, args));
            spans.close(s);
        } else {
            futures.push(ctx.async_action(action, dest, args));
        }
    }
    spans.close(submit_all);
    let wait = spans.open("wait", root, phase);
    let mut lat_us = Vec::with_capacity(stamps.len());
    for (i, f) in futures.into_iter().enumerate() {
        reply(f.get());
        if i % SAMPLE_EVERY == 0 {
            lat_us.push(stamps[i / SAMPLE_EVERY].elapsed().as_secs_f64() * 1e6);
        }
    }
    spans.close(wait);
    lat_us
}

/// Every request of a coalesced action passes its coalescer exactly once:
/// the `/coalescing/count/parcels@action` delta must equal requests sent.
pub fn check_coalesced_count(delta: &Delta, action: &str, sent: u64) -> Vec<String> {
    let counted = delta.of(&format!("coalesce.parcels@{action}"));
    if counted == sent as f64 {
        Vec::new()
    } else {
        vec![format!(
            "/coalescing/count/parcels@{action} moved by {counted}, {sent} requests were sent"
        )]
    }
}

/// `lat_us_p50` and `lat_us_p99`: each phase's own p50 and p99, median
/// over phases. A phase is a closed batch on the floods (where a request
/// sits in its batch decides its latency, so a phase's p99 is its
/// last-served requests) and a second's worth of requests on the other two.
/// Pooled over the run, the p99 is set by the few worst moments of the 30 s
/// — a slow phase, a stalled VM — and its run-to-run spread was 0.17–0.70
/// on the toy and 0.19 on the TCP workloads; the pooled tail is printed
/// with every run but not gated.
pub fn per_phase_latency<P: AsRef<[f64]>>(phases: &[P]) -> (f64, f64) {
    let (p50s, p99s) = phases
        .iter()
        .map(|p| sorted(p.as_ref().to_vec()))
        .map(|p| (quantile(&p, 0.50), quantile(&p, 0.99)))
        .unzip();
    (median(p50s), median(p99s))
}

/// Tracing-overhead bookkeeping of a traced run, which alternates traced
/// and untraced phases so one run yields both rates.
#[derive(Default)]
pub struct AbRates {
    traced: (u64, Duration),
    untraced: (u64, Duration),
}

impl AbRates {
    pub fn add(&mut self, traced: bool, requests: u64, wall: Duration) {
        let side = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        side.0 += requests;
        side.1 += wall;
    }

    /// `bench.trace_overhead_share`: 1 − traced / untraced requests per
    /// second (0 unless both sides ran).
    pub fn overhead_share(&self) -> f64 {
        let rate = |(n, t): (u64, Duration)| ratio(n as f64, t.as_secs_f64());
        let (traced, untraced) = (rate(self.traced), rate(self.untraced));
        if traced > 0.0 && untraced > 0.0 {
            1.0 - traced / untraced
        } else {
            0.0
        }
    }
}

/// The `adaptive.*` metrics from a controller's decision log. Each entry
/// is `(destination, time since controller start, nparcels chosen)`; the
/// global controller logs under destination 0. A destination has settled
/// at the first decision that the next `SETTLED_RUN - 1` decisions repeat.
pub fn adaptive_values(
    decisions: &[(u32, Duration, usize)],
    window_start: Duration,
    window_end: Duration,
    final_nparcels: usize,
    out: &mut Values,
) {
    const SETTLED_RUN: usize = 10;
    let in_window = decisions
        .iter()
        .filter(|d| d.1 >= window_start && d.1 <= window_end);
    out.insert("adaptive.decisions", in_window.count() as f64);
    out.insert("adaptive.final_nparcels", final_nparcels as f64);
    let mut dests: Vec<u32> = decisions.iter().map(|d| d.0).collect();
    dests.sort_unstable();
    dests.dedup();
    let (mut settle, mut changes) = (Duration::ZERO, 0usize);
    for dest in dests {
        let log: Vec<_> = decisions.iter().filter(|d| d.0 == dest).collect();
        let settled_at = log
            .windows(SETTLED_RUN)
            .position(|w| w.iter().all(|d| d.2 == w[0].2))
            .unwrap_or(log.len().saturating_sub(1));
        settle = settle.max(log[settled_at].1);
        changes += log[settled_at..]
            .windows(2)
            .filter(|w| w[0].2 != w[1].2)
            .count();
    }
    out.insert("adaptive.settle_ms", settle.as_secs_f64() * 1e3);
    let after = window_end.saturating_sub(settle).as_secs_f64();
    out.insert(
        "adaptive.changes_per_s_after_settle",
        ratio(changes as f64, after),
    );
}
