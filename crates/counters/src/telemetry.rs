//! The counter sampling service: instantaneous-overhead telemetry.
//!
//! Cumulative counters answer "how much so far"; the paper's Figs. 7–9
//! need "how much *right now*" — per-interval rates and windowed Eq. 4
//! network overhead. [`TelemetryService`] closes that gap: a sampler
//! snapshots every registered counter into a fixed-capacity per-counter
//! ring buffer at a configurable interval (default 1 ms), and derived
//! series (rates, windowed deltas, the `/parcels/overhead-time`
//! instantaneous network-overhead series) are computed from the rings on
//! demand.
//!
//! The service owns no thread: the host polls
//! [`TelemetryService::tick_if_due`]. The RPX runtime drives it from
//! scheduler *aux* background work, whose time is charged to the separate
//! telemetry account — leaving the Eq. 1–4 integrals intact.
//!
//! The service registers self-describing `/telemetry/*` counters and the
//! derived `/parcels/overhead-time` counter (the latest windowed Eq. 4
//! value) into the registry it samples.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::kinds::CallbackCounter;
use crate::registry::CounterRegistry;
use crate::value::CounterValue;

/// Path of the scheduler's cumulative background-work counter (Eq. 3).
pub const THREADS_BACKGROUND_WORK: &str = "/threads/background-work";
/// Path of the scheduler's cumulative thread-time counter (Eq. 1).
pub const THREADS_CUMULATIVE_TIME: &str = "/threads/time/cumulative";
/// Path of the derived instantaneous network-overhead series (Eq. 4).
pub const OVERHEAD_TIME: &str = "/parcels/overhead-time";

/// Configuration of a [`TelemetryService`].
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Sampling interval (default 1 ms).
    pub interval: Duration,
    /// Ring-buffer capacity per counter: the most recent `capacity`
    /// samples are retained (default 4096, i.e. ~4 s of history at the
    /// default interval).
    pub capacity: usize,
    /// Discovery patterns selecting which counters to sample (default
    /// `["*"]`, i.e. everything registered). Counters registered after the
    /// service starts are picked up on their first matching tick.
    pub patterns: Vec<String>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            interval: Duration::from_millis(1),
            capacity: 4096,
            patterns: vec!["*".to_string()],
        }
    }
}

/// One timestamped observation in a sampled series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Nanoseconds since the service started.
    pub t_ns: u64,
    /// The observed value (counters coerced via
    /// [`CounterValue::as_f64`]).
    pub value: f64,
}

/// A sampled (or derived) time series for one counter path.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    /// The counter path the series was sampled from (or the derived
    /// series name, e.g. [`OVERHEAD_TIME`]).
    pub path: String,
    /// Samples in chronological order.
    pub samples: Vec<Sample>,
}

impl TimeSeries {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The sample values, in order.
    pub fn values(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.value).collect()
    }

    /// Mean of the sample values, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|s| s.value).sum::<f64>() / self.samples.len() as f64)
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<Sample> {
        self.samples.last().copied()
    }

    /// Derive the per-second rate series: for each adjacent sample pair,
    /// `Δvalue / Δt`. Meaningful for cumulative (monotone) counters. The
    /// derived series keeps this series' path; pairs with `Δt == 0` are
    /// skipped.
    pub fn rate(&self) -> TimeSeries {
        let mut samples = Vec::with_capacity(self.samples.len().saturating_sub(1));
        for w in self.samples.windows(2) {
            let dt_ns = w[1].t_ns.saturating_sub(w[0].t_ns);
            if dt_ns == 0 {
                continue;
            }
            samples.push(Sample {
                t_ns: w[1].t_ns,
                value: (w[1].value - w[0].value) / (dt_ns as f64 / 1e9),
            });
        }
        TimeSeries {
            path: self.path.clone(),
            samples,
        }
    }
}

/// Derive the instantaneous network-overhead series (Eq. 4) from sampled
/// cumulative background-work and thread-time series: for each adjacent
/// pair of ticks present in both series,
/// `Δbackground / Δcumulative`, clamped to `[0, 1]`. Ticks where the
/// thread-time did not advance (a fully idle window) are skipped.
pub fn derive_overhead(background: &TimeSeries, cumulative: &TimeSeries) -> TimeSeries {
    let mut samples = Vec::new();
    let mut j = 0usize;
    let mut prev: Option<(f64, f64)> = None;
    for b in &background.samples {
        while j < cumulative.samples.len() && cumulative.samples[j].t_ns < b.t_ns {
            j += 1;
        }
        let Some(c) = cumulative.samples.get(j) else {
            break;
        };
        if c.t_ns != b.t_ns {
            // No matching tick in the cumulative series; skip.
            continue;
        }
        if let Some((pb, pc)) = prev {
            let d_bg = b.value - pb;
            let d_func = c.value - pc;
            if d_func > 0.0 {
                samples.push(Sample {
                    t_ns: b.t_ns,
                    value: (d_bg / d_func).clamp(0.0, 1.0),
                });
            }
        }
        prev = Some((b.value, c.value));
    }
    TimeSeries {
        path: OVERHEAD_TIME.to_string(),
        samples,
    }
}

/// Serialise series as JSON:
/// `{"interval_ns":N,"series":[{"path":"…","samples":[[t_ns,value],…]},…]}`.
///
/// Non-finite values (which the sampler itself never stores) serialise as
/// `null` to keep the output valid JSON.
pub fn export_json(interval: Duration, series: &[TimeSeries]) -> String {
    let mut out = String::with_capacity(64 + series.iter().map(|s| 24 * s.len()).sum::<usize>());
    out.push_str(&format!(
        "{{\"interval_ns\":{},\"series\":[",
        interval.as_nanos()
    ));
    for (i, s) in series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"path\":\"");
        for c in s.path.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str("\",\"samples\":[");
        for (k, sample) in s.samples.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            if sample.value.is_finite() {
                out.push_str(&format!("[{},{}]", sample.t_ns, sample.value));
            } else {
                out.push_str(&format!("[{},null]", sample.t_ns));
            }
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Serialise series as long-format CSV with a `path,t_ns,value` header.
pub fn export_csv(series: &[TimeSeries]) -> String {
    let mut out = String::from("path,t_ns,value\n");
    for s in series {
        for sample in &s.samples {
            out.push_str(&format!("{},{},{}\n", s.path, sample.t_ns, sample.value));
        }
    }
    out
}

/// A fixed-capacity ring of the most recent samples for one counter.
#[derive(Debug)]
struct Ring {
    capacity: usize,
    samples: VecDeque<Sample>,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(1),
            samples: VecDeque::with_capacity(capacity.max(1)),
        }
    }

    fn push(&mut self, sample: Sample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }
}

type RingMap = BTreeMap<String, Ring>;

struct Shared {
    registry: Arc<CounterRegistry>,
    config: TelemetryConfig,
    start: Instant,
    /// One ring per sampled path. Held in an `Arc` separate from `Shared`
    /// so the `/telemetry/*` callback counters can capture it without
    /// creating a registry → counter → registry reference cycle.
    rings: Arc<Mutex<RingMap>>,
    ticks: Arc<AtomicU64>,
    /// Next due time for cooperative ticks, in ns since `start`.
    next_due_ns: AtomicU64,
    /// Cached result of pattern discovery, refreshed every
    /// [`DISCOVER_REFRESH_TICKS`] ticks: globbing the whole registry and
    /// allocating the path set each tick would dominate the sampler's
    /// cost, and counters appear rarely (action registration), so a
    /// periodic rescan picks up newcomers with a bounded delay.
    sampled_paths: Mutex<Arc<Vec<String>>>,
    stopped: AtomicBool,
}

/// A discovery rescan runs every this many ticks (≈32 ms at the default
/// 1 ms interval).
const DISCOVER_REFRESH_TICKS: u64 = 32;

impl Shared {
    /// Discover the paths matching the configured patterns, deduped
    /// across overlapping patterns; BTreeSet keeps the query order
    /// deterministic.
    fn discover_paths(&self) -> Arc<Vec<String>> {
        let mut paths = BTreeSet::new();
        for pattern in &self.config.patterns {
            for p in self.registry.discover(pattern) {
                paths.insert(p);
            }
        }
        Arc::new(paths.into_iter().collect())
    }

    /// Take one sample of every matching counter, timestamped now.
    fn sample_once(&self) {
        if self.stopped.load(Ordering::Acquire) {
            return;
        }
        let tick = self.ticks.load(Ordering::Relaxed);
        let paths = if tick.is_multiple_of(DISCOVER_REFRESH_TICKS) {
            let fresh = self.discover_paths();
            *self.sampled_paths.lock() = Arc::clone(&fresh);
            fresh
        } else {
            Arc::clone(&self.sampled_paths.lock())
        };
        // Query before locking the rings: callback counters (including
        // our own `/telemetry/*` and the derived overhead counter) may
        // read the rings themselves.
        let mut observed = Vec::with_capacity(paths.len());
        for path in paths.iter() {
            if let Ok(v) = self.registry.query(path) {
                observed.push((path.clone(), v.as_f64()));
            }
        }
        let mut rings = self.rings.lock();
        // Timestamp under the rings lock so concurrent samplers (a
        // cooperative tick racing a manual `tick_now`) push in
        // chronological order per ring.
        let t_ns = self.start.elapsed().as_nanos() as u64;
        for (path, value) in observed {
            rings
                .entry(path)
                .or_insert_with(|| Ring::new(self.config.capacity))
                .push(Sample { t_ns, value });
        }
        drop(rings);
        self.ticks.fetch_add(1, Ordering::Relaxed);
    }
}

/// The latest windowed Eq. 4 overhead from the rings: Δbackground-work /
/// Δthread-time over the two most recent matching ticks, clamped [0, 1].
fn latest_overhead(rings: &Mutex<RingMap>) -> f64 {
    let rings = rings.lock();
    let (Some(bg), Some(func)) = (
        rings.get(THREADS_BACKGROUND_WORK),
        rings.get(THREADS_CUMULATIVE_TIME),
    ) else {
        return 0.0;
    };
    let (nb, nf) = (bg.samples.len(), func.samples.len());
    if nb < 2 || nf < 2 {
        return 0.0;
    }
    let (b0, b1) = (bg.samples[nb - 2], bg.samples[nb - 1]);
    let (f0, f1) = (func.samples[nf - 2], func.samples[nf - 1]);
    if b0.t_ns != f0.t_ns || b1.t_ns != f1.t_ns {
        return 0.0;
    }
    let d_func = f1.value - f0.value;
    if d_func <= 0.0 {
        0.0
    } else {
        ((b1.value - b0.value) / d_func).clamp(0.0, 1.0)
    }
}

/// A cheaply clonable handle on a counter sampling service.
///
/// All clones share one sampler; [`TelemetryService::stop`] through any
/// clone stops it for all.
#[derive(Clone)]
pub struct TelemetryService {
    shared: Arc<Shared>,
}

impl TelemetryService {
    /// Start a cooperative sampler: no thread is spawned; the host calls
    /// [`TelemetryService::tick_if_due`] (the RPX runtime does so from
    /// scheduler aux background work).
    pub fn start_cooperative(
        registry: Arc<CounterRegistry>,
        config: TelemetryConfig,
    ) -> TelemetryService {
        let rings: Arc<Mutex<RingMap>> = Arc::new(Mutex::new(BTreeMap::new()));
        let ticks = Arc::new(AtomicU64::new(0));
        let interval_ns = config.interval.as_nanos() as u64;

        // Self-describing telemetry counters plus the derived
        // instantaneous-overhead counter. The closures capture only the
        // independent `rings`/`ticks` Arcs — never the registry — so no
        // reference cycle forms.
        let t = Arc::clone(&ticks);
        registry.register_or_replace(
            "/telemetry/count/samples",
            CallbackCounter::new(move || CounterValue::Int(t.load(Ordering::Relaxed) as i64)),
        );
        let r = Arc::clone(&rings);
        registry.register_or_replace(
            "/telemetry/count/series",
            CallbackCounter::new(move || CounterValue::Int(r.lock().len() as i64)),
        );
        registry.register_or_replace(
            "/telemetry/time/interval",
            CallbackCounter::new(move || CounterValue::Int(interval_ns as i64)),
        );
        let r = Arc::clone(&rings);
        registry.register_or_replace(
            OVERHEAD_TIME,
            CallbackCounter::new(move || CounterValue::Float(latest_overhead(&r))),
        );

        TelemetryService {
            shared: Arc::new(Shared {
                registry,
                config,
                start: Instant::now(),
                rings,
                ticks,
                next_due_ns: AtomicU64::new(0),
                sampled_paths: Mutex::new(Arc::new(Vec::new())),
                stopped: AtomicBool::new(false),
            }),
        }
    }

    /// Poll a cooperative sampler: takes one sample if the interval has
    /// elapsed since the last one. Returns whether a sample was taken.
    /// Safe (and cheap) to call concurrently — one caller wins the tick.
    pub fn tick_if_due(&self) -> bool {
        let shared = &self.shared;
        if shared.stopped.load(Ordering::Acquire) {
            return false;
        }
        let now_ns = shared.start.elapsed().as_nanos() as u64;
        let due = shared.next_due_ns.load(Ordering::Relaxed);
        if now_ns < due {
            return false;
        }
        let interval = shared.config.interval.as_nanos() as u64;
        if shared
            .next_due_ns
            .compare_exchange(due, now_ns + interval, Ordering::AcqRel, Ordering::Relaxed)
            .is_err()
        {
            // Another caller claimed this tick.
            return false;
        }
        shared.sample_once();
        true
    }

    /// Take one sample immediately, regardless of the interval. No-op
    /// after [`TelemetryService::stop`].
    pub fn tick_now(&self) {
        self.shared.sample_once();
    }

    /// Stop sampling. Idempotent. Rings and registered `/telemetry/*`
    /// counters remain readable (frozen) after the stop.
    pub fn stop(&self) {
        self.shared.stopped.store(true, Ordering::Release);
    }

    /// Whether the service is still sampling (not stopped).
    pub fn is_running(&self) -> bool {
        !self.shared.stopped.load(Ordering::Acquire)
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Duration {
        self.shared.config.interval
    }

    /// Number of sampling ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.shared.ticks.load(Ordering::Relaxed)
    }

    /// The sampled counter paths, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.shared.rings.lock().keys().cloned().collect()
    }

    /// Snapshot the sampled series for `path` (chronological order, the
    /// most recent `capacity` samples).
    pub fn series(&self, path: &str) -> Option<TimeSeries> {
        let rings = self.shared.rings.lock();
        let ring = rings.get(path)?;
        Some(TimeSeries {
            path: path.to_string(),
            samples: ring.samples.iter().copied().collect(),
        })
    }

    /// Snapshot every sampled series, sorted by path.
    pub fn all_series(&self) -> Vec<TimeSeries> {
        let rings = self.shared.rings.lock();
        rings
            .iter()
            .map(|(path, ring)| TimeSeries {
                path: path.clone(),
                samples: ring.samples.iter().copied().collect(),
            })
            .collect()
    }

    /// The derived instantaneous network-overhead series (Eq. 4) over the
    /// retained sampling window; empty if the `/threads/*` cumulative
    /// counters were not sampled.
    pub fn overhead_series(&self) -> TimeSeries {
        match (
            self.series(THREADS_BACKGROUND_WORK),
            self.series(THREADS_CUMULATIVE_TIME),
        ) {
            (Some(bg), Some(func)) => derive_overhead(&bg, &func),
            _ => TimeSeries {
                path: OVERHEAD_TIME.to_string(),
                samples: Vec::new(),
            },
        }
    }

    /// The change of a sampled cumulative counter over the trailing
    /// `window`: latest value minus the newest value at least `window`
    /// old. `None` until the ring holds that much history.
    pub fn windowed_delta(&self, path: &str, window: Duration) -> Option<f64> {
        let rings = self.shared.rings.lock();
        let ring = rings.get(path)?;
        let last = ring.samples.back()?;
        let cutoff = last.t_ns.checked_sub(window.as_nanos() as u64)?;
        let base = ring.samples.iter().rev().find(|s| s.t_ns <= cutoff)?;
        Some(last.value - base.value)
    }

    /// The Eq. 4 network overhead over the trailing `window`:
    /// Δ`/threads/background-work` / Δ`/threads/time/cumulative`, clamped
    /// to `[0, 1]`. `None` until enough history exists or if thread time
    /// did not advance in the window.
    pub fn windowed_overhead(&self, window: Duration) -> Option<f64> {
        let d_bg = self.windowed_delta(THREADS_BACKGROUND_WORK, window)?;
        let d_func = self.windowed_delta(THREADS_CUMULATIVE_TIME, window)?;
        if d_func <= 0.0 {
            return None;
        }
        Some((d_bg / d_func).clamp(0.0, 1.0))
    }

    /// Export every sampled series as JSON (see [`export_json`]).
    pub fn export_json(&self) -> String {
        export_json(self.shared.config.interval, &self.all_series())
    }

    /// Export every sampled series as CSV (see [`export_csv`]).
    pub fn export_csv(&self) -> String {
        export_csv(&self.all_series())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kinds::MonotoneCounter;

    fn registry_with_parcels() -> (Arc<CounterRegistry>, Arc<MonotoneCounter>) {
        let reg = CounterRegistry::new(0);
        let parcels = MonotoneCounter::new();
        reg.register("/coalescing/count/parcels@toy", parcels.clone())
            .unwrap();
        (reg, parcels)
    }

    #[test]
    fn config_defaults() {
        let c = TelemetryConfig::default();
        assert_eq!(c.interval, Duration::from_millis(1));
        assert_eq!(c.capacity, 4096);
        assert_eq!(c.patterns, vec!["*".to_string()]);
    }

    #[test]
    fn cooperative_ticks_fill_rings() {
        let (reg, parcels) = registry_with_parcels();
        let svc = TelemetryService::start_cooperative(reg, TelemetryConfig::default());
        for i in 0..5u64 {
            parcels.add(i);
            svc.tick_now();
        }
        let series = svc.series("/coalescing/count/parcels@toy").unwrap();
        assert_eq!(series.len(), 5);
        let values = series.values();
        assert!(values.windows(2).all(|w| w[0] <= w[1]), "{values:?}");
        assert_eq!(*values.last().unwrap(), 10.0);
        // Timestamps are strictly increasing.
        assert!(series.samples.windows(2).all(|w| w[0].t_ns < w[1].t_ns));
        assert_eq!(svc.ticks(), 5);
    }

    #[test]
    fn ring_wraparound_keeps_most_recent() {
        let (reg, parcels) = registry_with_parcels();
        let svc = TelemetryService::start_cooperative(
            reg,
            TelemetryConfig {
                capacity: 4,
                ..TelemetryConfig::default()
            },
        );
        for _ in 0..10 {
            parcels.increment();
            svc.tick_now();
        }
        let series = svc.series("/coalescing/count/parcels@toy").unwrap();
        assert_eq!(series.len(), 4, "ring must cap at capacity");
        // The most recent 4 of the 10 observations: 7, 8, 9, 10.
        assert_eq!(series.values(), vec![7.0, 8.0, 9.0, 10.0]);
    }

    #[test]
    fn stop_is_idempotent_and_freezes_sampling() {
        let (reg, _parcels) = registry_with_parcels();
        let svc = TelemetryService::start_cooperative(
            Arc::clone(&reg),
            TelemetryConfig {
                interval: Duration::from_micros(200),
                ..TelemetryConfig::default()
            },
        );
        // The host's poll loop, as the scheduler's aux hook runs it.
        let deadline = Instant::now() + Duration::from_secs(2);
        while svc.ticks() < 3 && Instant::now() < deadline {
            svc.tick_if_due();
        }
        assert!(svc.ticks() >= 3, "due ticks were never taken");
        assert!(svc.is_running());
        svc.stop();
        svc.stop(); // idempotent
        assert!(!svc.is_running());
        let frozen = svc.ticks();
        // Well past the interval: a stopped service still refuses the tick.
        std::thread::sleep(Duration::from_millis(5));
        assert!(!svc.tick_if_due());
        svc.tick_now(); // no-op after stop
        assert_eq!(svc.ticks(), frozen, "samples taken after stop");
        // Registered telemetry counters survive the stop, frozen.
        assert_eq!(
            reg.query("/telemetry/count/samples").unwrap(),
            CounterValue::Int(frozen as i64)
        );
    }

    #[test]
    fn clones_share_one_sampler() {
        let (reg, parcels) = registry_with_parcels();
        let svc = TelemetryService::start_cooperative(reg, TelemetryConfig::default());
        let clone = svc.clone();
        parcels.add(3);
        clone.tick_now();
        assert_eq!(svc.ticks(), 1);
        clone.stop();
        assert!(!svc.is_running());
    }

    #[test]
    fn tick_if_due_respects_interval() {
        let (reg, _parcels) = registry_with_parcels();
        let svc = TelemetryService::start_cooperative(
            reg,
            TelemetryConfig {
                interval: Duration::from_millis(50),
                ..TelemetryConfig::default()
            },
        );
        assert!(svc.tick_if_due(), "first tick is immediately due");
        assert!(!svc.tick_if_due(), "second tick before interval elapsed");
        assert_eq!(svc.ticks(), 1);
    }

    #[test]
    fn telemetry_counters_are_registered_and_sorted() {
        let (reg, _parcels) = registry_with_parcels();
        let svc = TelemetryService::start_cooperative(Arc::clone(&reg), TelemetryConfig::default());
        let found = reg.discover("/telemetry/*");
        assert_eq!(
            found,
            vec![
                "/telemetry/count/samples",
                "/telemetry/count/series",
                "/telemetry/time/interval",
            ]
        );
        svc.tick_now();
        assert_eq!(
            reg.query("/telemetry/count/samples").unwrap(),
            CounterValue::Int(1)
        );
        assert!(reg.query_f64("/telemetry/count/series").unwrap() >= 1.0);
        assert_eq!(
            reg.query("/telemetry/time/interval").unwrap(),
            CounterValue::Int(1_000_000)
        );
        // The derived overhead counter exists (0.0 without /threads data).
        assert_eq!(reg.query(OVERHEAD_TIME).unwrap(), CounterValue::Float(0.0));
    }

    #[test]
    fn mid_flight_registration_is_picked_up() {
        let (reg, _parcels) = registry_with_parcels();
        let svc = TelemetryService::start_cooperative(Arc::clone(&reg), TelemetryConfig::default());
        svc.tick_now();
        assert!(svc.series("/threads/late").is_none());
        reg.register("/threads/late", MonotoneCounter::new())
            .unwrap();
        // Discovery is cached between rescans, so the newcomer appears
        // within one refresh period, not necessarily on the next tick.
        for _ in 0..DISCOVER_REFRESH_TICKS {
            svc.tick_now();
        }
        assert!(!svc.series("/threads/late").unwrap().is_empty());
    }

    #[test]
    fn windowed_delta_and_overhead() {
        let reg = CounterRegistry::new(0);
        let bg = MonotoneCounter::new();
        let func = MonotoneCounter::new();
        reg.register(THREADS_BACKGROUND_WORK, bg.clone()).unwrap();
        reg.register(THREADS_CUMULATIVE_TIME, func.clone()).unwrap();
        let svc = TelemetryService::start_cooperative(reg, TelemetryConfig::default());
        svc.tick_now();
        // Not enough history for a 1 ms window yet.
        assert!(svc
            .windowed_delta(THREADS_CUMULATIVE_TIME, Duration::from_millis(1))
            .is_none());
        bg.add(30);
        func.add(100);
        std::thread::sleep(Duration::from_millis(3));
        svc.tick_now();
        let d = svc
            .windowed_delta(THREADS_CUMULATIVE_TIME, Duration::from_millis(1))
            .unwrap();
        assert_eq!(d, 100.0);
        let overhead = svc.windowed_overhead(Duration::from_millis(1)).unwrap();
        assert!((overhead - 0.3).abs() < 1e-9, "{overhead}");
        // The registered derived counter agrees with the ring state.
        let reg_value = svc.shared.registry.query_f64(OVERHEAD_TIME).unwrap();
        assert!((reg_value - 0.3).abs() < 1e-9, "{reg_value}");
    }

    #[test]
    fn derive_overhead_pairs_matching_ticks() {
        let bg = TimeSeries {
            path: THREADS_BACKGROUND_WORK.to_string(),
            samples: vec![
                Sample {
                    t_ns: 0,
                    value: 0.0,
                },
                Sample {
                    t_ns: 10,
                    value: 5.0,
                },
                Sample {
                    t_ns: 20,
                    value: 5.0,
                },
                Sample {
                    t_ns: 30,
                    value: 25.0,
                },
            ],
        };
        let func = TimeSeries {
            path: THREADS_CUMULATIVE_TIME.to_string(),
            samples: vec![
                Sample {
                    t_ns: 0,
                    value: 0.0,
                },
                Sample {
                    t_ns: 10,
                    value: 10.0,
                },
                Sample {
                    t_ns: 20,
                    value: 10.0,
                },
                Sample {
                    t_ns: 30,
                    value: 30.0,
                },
            ],
        };
        let series = derive_overhead(&bg, &func);
        assert_eq!(series.path, OVERHEAD_TIME);
        // t=10: 5/10 = 0.5; t=20 skipped (Δfunc = 0); t=30: 20/20 = 1.0.
        assert_eq!(series.samples.len(), 2);
        assert_eq!(
            series.samples[0],
            Sample {
                t_ns: 10,
                value: 0.5
            }
        );
        assert_eq!(
            series.samples[1],
            Sample {
                t_ns: 30,
                value: 1.0
            }
        );
        // Values clamp to [0, 1] even when background overshoots.
        let hot = TimeSeries {
            path: THREADS_BACKGROUND_WORK.to_string(),
            samples: vec![
                Sample {
                    t_ns: 0,
                    value: 0.0,
                },
                Sample {
                    t_ns: 10,
                    value: 100.0,
                },
            ],
        };
        let cold = TimeSeries {
            path: THREADS_CUMULATIVE_TIME.to_string(),
            samples: vec![
                Sample {
                    t_ns: 0,
                    value: 0.0,
                },
                Sample {
                    t_ns: 10,
                    value: 10.0,
                },
            ],
        };
        assert_eq!(derive_overhead(&hot, &cold).samples[0].value, 1.0);
    }

    #[test]
    fn rate_series_is_per_second() {
        let s = TimeSeries {
            path: "/coalescing/count/parcels@toy".to_string(),
            samples: vec![
                Sample {
                    t_ns: 0,
                    value: 0.0,
                },
                Sample {
                    t_ns: 1_000_000_000,
                    value: 500.0,
                },
                Sample {
                    t_ns: 1_500_000_000,
                    value: 600.0,
                },
            ],
        };
        let rate = s.rate();
        assert_eq!(rate.path, s.path);
        assert_eq!(rate.samples.len(), 2);
        assert_eq!(rate.samples[0].value, 500.0);
        assert_eq!(rate.samples[1].value, 200.0);
    }

    #[test]
    fn export_json_and_csv_round_out() {
        let (reg, parcels) = registry_with_parcels();
        let svc = TelemetryService::start_cooperative(reg, TelemetryConfig::default());
        parcels.add(7);
        svc.tick_now();
        svc.tick_now();
        let json = svc.export_json();
        assert!(json.starts_with("{\"interval_ns\":1000000,\"series\":["));
        assert!(json.contains("\"path\":\"/coalescing/count/parcels@toy\""));
        assert!(json.contains(",7]"));
        assert!(json.ends_with("]}"));
        // Balanced brackets — a cheap structural validity check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(
                json.matches(open).count(),
                json.matches(close).count(),
                "unbalanced {open}{close}"
            );
        }
        let csv = svc.export_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("path,t_ns,value"));
        assert!(
            csv.lines()
                .filter(|l| l.starts_with("/coalescing/count/parcels@toy,"))
                .count()
                >= 2
        );
        // Every data row has exactly three fields.
        assert!(lines.all(|l| l.split(',').count() == 3));
    }

    #[test]
    fn mean_and_last_helpers() {
        let s = TimeSeries {
            path: "x".to_string(),
            samples: vec![
                Sample {
                    t_ns: 1,
                    value: 1.0,
                },
                Sample {
                    t_ns: 2,
                    value: 3.0,
                },
            ],
        };
        assert_eq!(s.mean(), Some(2.0));
        assert_eq!(
            s.last(),
            Some(Sample {
                t_ns: 2,
                value: 3.0
            })
        );
        let empty = TimeSeries {
            path: "y".to_string(),
            samples: Vec::new(),
        };
        assert_eq!(empty.mean(), None);
        assert!(empty.is_empty());
    }
}
