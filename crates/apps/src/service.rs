//! Skewed open-loop service workload: the evaluation driver for
//! per-destination adaptive coalescing and egress backpressure.
//!
//! A configurable number of client *sessions* on locality 0 issue
//! requests at a scheduled rate (open loop: the schedule never slows
//! down because the system is behind — missed slots are sent in a
//! catch-up burst, exactly the regime where per-message overhead and
//! head-of-line blocking hurt) to every other locality. Each request
//! picks its destination from a Zipf-skewed distribution, so one locality
//! runs hot while the rest idle — the traffic shape that makes a single
//! global coalescing parameter wrong for everybody. The load also swings
//! by `burst_factor` (default 10×) every `burst_period`, exercising the
//! controller's phase-change response. Alongside the load, a low-rate
//! closed-loop probe stream times round trips to destination 1 on
//! locality 0's clock.
//!
//! The run reports sustained throughput, p50/p99 latency, exact
//! per-endpoint-pair accounting (`sent == delivered + shed` for every
//! destination), and a sampled time series of each destination's live
//! coalescing parameters — the evidence that per-destination control
//! tracks each destination's local optimum instead of steering one
//! compromise value.
//!
//! [`run_service`] works all-in-one and as one rank of a multi-process
//! cluster: locality 0, where hosted, drives; every hosted locality
//! serves and publishes its deliveries as `/app/service-delivered`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpx::{AdaptiveConfig, CoalescingParams, CounterValue, DeliveryClass, Runtime, RuntimeError};

use crate::driver::CONTROL_TIMEOUT;

/// The request action's name.
pub const SERVICE_ACTION: &str = "service::req";

/// The probe action's name.
pub const PROBE_ACTION: &str = "service::probe";

/// Configuration of one open-loop service run. Locality 0 is the client;
/// every other locality of the runtime is a destination.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Client sessions on locality 0. Each contributes `base_rate`
    /// requests/second to the aggregate open-loop schedule.
    pub sessions: usize,
    /// Length of the send phase.
    pub duration: Duration,
    /// Baseline requests/second per session.
    pub base_rate: f64,
    /// Load multiplier during burst phases (the 10× swing).
    pub burst_factor: f64,
    /// The schedule alternates baseline and burst every `burst_period`.
    pub burst_period: Duration,
    /// Zipf skew exponent for destination choice (0 = uniform; larger
    /// concentrates traffic on destination 1).
    pub zipf_s: f64,
    /// RNG seed for the destination choices.
    pub seed: u64,
    /// Delivery class of the request action: `BestEffort` sheds at the
    /// backpressure watermark, `Lossless` blocks briefly instead.
    pub class: DeliveryClass,
    /// Seed coalescing parameters for every destination.
    pub params: CoalescingParams,
    /// Start the per-destination adaptive controller with this
    /// configuration (`None` leaves the seed parameters in place).
    pub adaptive: Option<AdaptiveConfig>,
    /// Sampling period of the per-destination parameter series.
    pub sample_every: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            sessions: 8,
            duration: Duration::from_millis(600),
            base_rate: 1500.0,
            burst_factor: 10.0,
            burst_period: Duration::from_millis(150),
            zipf_s: 1.2,
            seed: 42,
            class: DeliveryClass::Lossless,
            params: CoalescingParams::new(1, Duration::from_micros(200)),
            adaptive: Some(AdaptiveConfig {
                window: Duration::from_millis(10),
                warmup_windows: 1,
                ..AdaptiveConfig::default()
            }),
            sample_every: Duration::from_millis(5),
        }
    }
}

/// One sample of one destination's live coalescing parameters.
#[derive(Debug, Clone, Copy)]
pub struct ParamSample {
    /// Milliseconds since the send phase started.
    pub t_ms: u64,
    /// Destination locality.
    pub dest: u32,
    /// The destination's `nparcels` at the sample instant.
    pub nparcels: usize,
    /// The destination's flush interval at the sample instant (µs).
    pub interval_us: u64,
}

/// Per-endpoint-pair outcome of a service run.
#[derive(Debug, Clone)]
pub struct DestReport {
    /// Destination locality.
    pub dest: u32,
    /// Requests the open-loop schedule issued towards this destination.
    pub sent: u64,
    /// Requests whose handler executed on this destination.
    pub delivered: u64,
    /// Requests shed at submit time (backpressure + BestEffort backlog
    /// bound) towards this destination.
    pub shed: u64,
    /// p99 request latency (µs) over delivered requests (0 if none).
    pub p99_us: f64,
    /// The destination's `nparcels` when the run ended.
    pub final_nparcels: usize,
}

/// The outcome of one open-loop service run, as observed by this
/// process. What it cannot observe is left empty (zero), never
/// approximated: across processes the client sees no deliveries and no
/// one-way latency (two clocks), a server sees no schedule.
#[derive(Debug, Clone, Default)]
pub struct ServiceReport {
    /// Requests issued by the open-loop schedule (client only).
    pub sent: u64,
    /// Requests delivered on localities hosted by this process.
    pub delivered: u64,
    /// Requests shed at submit time across all destinations (client
    /// only).
    pub shed: u64,
    /// Delivered requests per second of send-phase wall time (client
    /// only).
    pub throughput: f64,
    /// Median one-way request latency in microseconds (requests both
    /// sent and delivered in this process).
    pub p50_us: f64,
    /// 99th-percentile one-way request latency in microseconds.
    pub p99_us: f64,
    /// p99 round-trip time (µs) of the closed-loop probe stream. Timed
    /// on one clock, it stays meaningful across process boundaries.
    pub probe_p99_us: f64,
    /// Probe round trips completed.
    pub probes: u64,
    /// `/network/backpressure-events` on the lowest hosted locality's
    /// port (admission control happens on the sender).
    pub backpressure_events: u64,
    /// Nanoseconds submitters there spent blocked at the watermark.
    pub backpressure_blocked_ns: u64,
    /// Per-destination breakdown for the destinations hosted alongside
    /// the client, ordered by destination id.
    pub per_dest: Vec<DestReport>,
    /// Sampled per-destination parameter series (client only).
    pub series: Vec<ParamSample>,
    /// Steering decisions made by the per-destination controller.
    pub decisions: Vec<rpx::DestDecision>,
    /// Send-phase wall time (client only).
    pub wall: Duration,
}

impl ServiceReport {
    /// Exact accounting: every request is either delivered or shed, for
    /// the aggregate and for every endpoint pair individually. Only an
    /// all-in-one run observes both ends.
    pub fn accounting_exact(&self) -> bool {
        self.sent == self.delivered + self.shed
            && self.per_dest.iter().all(|d| d.sent == d.delivered + d.shed)
    }
}

/// Inverse-CDF sampler over Zipf weights `1/rank^s` (rank 1 is the
/// hottest). `s = 0` degenerates to uniform.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Sampler over `n` items with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf over an empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draw one item index in `0..n` (0 is the hottest).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Run the open-loop service workload on `rt` (at least two localities;
/// locality 0 is the client, the rest are destinations).
pub fn run_service(
    rt: &Arc<Runtime>,
    config: &ServiceConfig,
) -> Result<ServiceReport, RuntimeError> {
    let n = rt.num_localities();
    assert!(n >= 2, "service needs at least one destination locality");
    // One-way latency needs the sender's clock: only handlers sharing
    // the client's process record it.
    let client = rt.is_hosted(0);
    let epoch = Instant::now();
    let delivered: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let latencies: Arc<Vec<Mutex<Vec<u64>>>> =
        Arc::new((0..n).map(|_| Mutex::new(Vec::new())).collect());
    let (d2, l2) = (Arc::clone(&delivered), Arc::clone(&latencies));
    let act = rt
        .action(SERVICE_ACTION)
        .delivery(config.class)
        .with_locality()
        .register(move |here, sent_ns: u64| {
            d2[here as usize].fetch_add(1, Ordering::Relaxed);
            if client {
                let now = epoch.elapsed().as_nanos() as u64;
                l2[here as usize]
                    .lock()
                    .unwrap()
                    .push(now.saturating_sub(sent_ns));
            }
        });
    let probe = rt.action(PROBE_ACTION).register(|(): ()| ());
    rt.verify_registration(CONTROL_TIMEOUT)?;
    let control = rt.enable_coalescing_per_destination(SERVICE_ACTION, config.params)?;

    let mut report = ServiceReport::default();
    let mut sent = vec![0u64; n as usize];
    let mut probe_ns: Vec<u64> = Vec::new();
    if client {
        let controller = config
            .adaptive
            .clone()
            .map(|cfg| control.start_adaptive_per_dest(rt, 0, cfg));
        let coalescer = Arc::clone(control.coalescer(0).expect("locality 0 hosted"));
        let stop = Arc::new(AtomicBool::new(false));
        // Parameter-series sampler: reads each destination's live handle
        // while the controller steers it.
        let sampler = {
            let (stop, every, coalescer) = (Arc::clone(&stop), config.sample_every, coalescer);
            std::thread::spawn(move || {
                let started = Instant::now();
                let mut series = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let t_ms = started.elapsed().as_millis() as u64;
                    for dest in coalescer.destinations() {
                        let p = coalescer.params_for(dest).load();
                        series.push(ParamSample {
                            t_ms,
                            dest,
                            nparcels: p.nparcels,
                            interval_us: p.interval.as_micros() as u64,
                        });
                    }
                    std::thread::sleep(every);
                }
                series
            })
        };
        // Closed-loop probe stream: round trips to the hottest
        // destination, timed on the client's clock.
        let prober = {
            let (stop, rt) = (Arc::clone(&stop), Arc::clone(rt));
            std::thread::spawn(move || {
                let mut rtts = Vec::new();
                while !stop.load(Ordering::Acquire) {
                    let (probe, t0) = (probe.clone(), Instant::now());
                    let ok = rt.run_on(0, move |ctx| {
                        ctx.wait_all(vec![ctx.async_action(&probe, 1, ())])
                    });
                    if ok.is_ok() {
                        rtts.push(t0.elapsed().as_nanos() as u64);
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                rtts
            })
        };

        let zipf = ZipfSampler::new(n as usize - 1, config.zipf_s);
        let cfg = config.clone();
        let started = Instant::now();
        sent = rt.run_on(0, move |ctx| {
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let mut sent = vec![0u64; n as usize];
            let mut next = Duration::ZERO;
            let run_start = Instant::now();
            loop {
                let t = run_start.elapsed();
                if t >= cfg.duration {
                    break;
                }
                // Open loop: the schedule advances on its own clock. When
                // the sender falls behind (blocked at a watermark, OS
                // jitter), the deficit is sent immediately — load is never
                // silently reduced.
                if next > t {
                    std::thread::sleep(next - t);
                }
                let phase = (t.as_nanos() / cfg.burst_period.as_nanos().max(1)) % 2;
                let mult = if phase == 1 { cfg.burst_factor } else { 1.0 };
                let rate = (cfg.sessions as f64 * cfg.base_rate * mult).max(1.0);
                next += Duration::from_secs_f64(1.0 / rate);
                let dest = zipf.sample(&mut rng) as u32 + 1;
                ctx.apply(&act, dest, epoch.elapsed().as_nanos() as u64);
                sent[dest as usize] += 1;
            }
            sent
        });
        report.wall = started.elapsed();
        report.sent = sent.iter().sum();
        stop.store(true, Ordering::Release);
        probe_ns = prober.join().expect("probe thread panicked");
        report.series = sampler.join().expect("sampler panicked");

        // Drain: flush straggling coalescing queues and, where every
        // destination is hosted here, wait until each request is
        // accounted — delivered or shed, per endpoint pair.
        let stats = rt.locality(0).parcel_stats();
        let all_here = rt.hosted_localities().len() as u32 == n;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            control.flush();
            let accounted: u64 = (1..n)
                .map(|d| delivered[d as usize].load(Ordering::Relaxed) + stats.sheds_to(d))
                .sum();
            if !all_here || accounted >= report.sent {
                break;
            }
            if Instant::now() >= deadline {
                return Err(RuntimeError::ControlTimeout("service drain"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        report.decisions = controller.map_or_else(Vec::new, |c| c.stop());
    }
    rt.wait_quiescent(Duration::from_secs(30));
    // Servers wait here while the client runs its schedule.
    rt.barrier(config.duration + Duration::from_secs(60))?;

    // Publish each hosted locality's delivered count so the launcher's
    // aggregated counter dump carries the fleet-wide total.
    let hosted = rt.hosted_localities();
    for &id in &hosted {
        let count = delivered[id as usize].load(Ordering::Relaxed);
        rt.locality(id).counters().register_or_replace(
            "/app/service-delivered",
            rpx_counters::CallbackCounter::new(move || CounterValue::Int(count as i64)),
        );
    }
    report.delivered = hosted
        .iter()
        .map(|&id| delivered[id as usize].load(Ordering::Relaxed))
        .sum();
    let stats = rt.locality(hosted[0]).parcel_stats();
    report.backpressure_events = stats.backpressure_events.load(Ordering::Relaxed);
    report.backpressure_blocked_ns = stats.backpressure_blocked_ns.load(Ordering::Relaxed);
    probe_ns.sort_unstable();
    report.probe_p99_us = percentile_us(&probe_ns, 0.99);
    report.probes = probe_ns.len() as u64;
    if client {
        report.shed = (1..n).map(|d| stats.sheds_to(d)).sum();
        report.throughput = report.delivered as f64 / report.wall.as_secs_f64();
        let coalescer = control.coalescer(0).expect("locality 0 hosted");
        let mut all_ns: Vec<u64> = Vec::new();
        for d in (1..n).filter(|&d| rt.is_hosted(d)) {
            let mut ns = std::mem::take(&mut *latencies[d as usize].lock().unwrap());
            ns.sort_unstable();
            all_ns.extend_from_slice(&ns);
            report.per_dest.push(DestReport {
                dest: d,
                sent: sent[d as usize],
                delivered: delivered[d as usize].load(Ordering::Relaxed),
                shed: stats.sheds_to(d),
                p99_us: percentile_us(&ns, 0.99),
                final_nparcels: coalescer.params_for(d).load().nparcels,
            });
        }
        all_ns.sort_unstable();
        report.p50_us = percentile_us(&all_ns, 0.50);
        report.p99_us = percentile_us(&all_ns, 0.99);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpx::RuntimeConfig;

    fn service_runtime(
        localities: u32,
        watermark: Option<usize>,
        transport: rpx::TransportKind,
    ) -> Arc<Runtime> {
        Runtime::new(RuntimeConfig {
            localities,
            backpressure_watermark: watermark,
            transport,
            ..RuntimeConfig::small_test()
        })
    }

    fn sim() -> rpx::TransportKind {
        RuntimeConfig::small_test().transport
    }

    fn quick() -> ServiceConfig {
        ServiceConfig {
            sessions: 4,
            duration: Duration::from_millis(250),
            base_rate: 2000.0,
            burst_period: Duration::from_millis(60),
            zipf_s: 4.0,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn zipf_sampler_concentrates_on_low_ranks() {
        let zipf = ZipfSampler::new(4, 1.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0u64; 4];
        for _ in 0..4000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[3] * 4, "skew too weak: {counts:?}");
        // s = 0 is uniform: every item within 2× of every other.
        let uni = ZipfSampler::new(4, 0.0);
        let mut counts = [0u64; 4];
        for _ in 0..4000 {
            counts[uni.sample(&mut rng)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 500), "not uniform: {counts:?}");
    }

    #[test]
    fn accounting_is_exact_and_latency_bounded() {
        let rt = service_runtime(3, None, sim());
        let report = run_service(&rt, &quick()).unwrap();
        assert!(report.accounting_exact(), "inexact: {report:?}");
        assert_eq!(report.shed, 0, "nothing sheds without a watermark");
        assert!(report.delivered > 100);
        assert!(report.p99_us > 0.0);
        rt.shutdown();
    }

    #[test]
    fn opposite_traffic_converges_to_distinct_params_on_sim() {
        assert_distinct_params(sim());
    }

    #[test]
    fn opposite_traffic_converges_to_distinct_params_on_tcp() {
        assert_distinct_params(rpx::TransportKind::TcpLoopback);
    }

    /// Destination 1 takes ~94% of the traffic (Zipf s=4), destination 2
    /// mostly idles below the controller's quiet-window gate: steering
    /// decisions concentrate on the hot destination (the cold one may
    /// earn the odd decision when a 10× burst window pushes it over the
    /// gate), so the two destinations' parameters must diverge while the
    /// run is live.
    fn assert_distinct_params(transport: rpx::TransportKind) {
        let rt = service_runtime(3, None, transport);
        let config = ServiceConfig {
            duration: Duration::from_millis(400),
            adaptive: Some(AdaptiveConfig {
                window: Duration::from_millis(8),
                warmup_windows: 1,
                min_parcels_per_window: 64,
                ..AdaptiveConfig::default()
            }),
            sample_every: Duration::from_millis(2),
            ..quick()
        };
        let report = run_service(&rt, &config).unwrap();
        assert!(report.accounting_exact());
        let hot = report.decisions.iter().filter(|d| d.dest == 1).count();
        let cold = report.decisions.iter().filter(|d| d.dest == 2).count();
        assert!(
            hot >= 5,
            "hot destination was barely steered: {hot} decisions"
        );
        assert!(
            hot > 4 * cold,
            "steering did not concentrate on the hot destination: \
             {hot} hot vs {cold} cold decisions"
        );
        // At some sampled instant the hot and cold destinations ran
        // different parameters.
        let diverged = report.series.iter().any(|hot| {
            hot.dest == 1
                && report.series.iter().any(|cold| {
                    cold.dest == 2 && cold.t_ms == hot.t_ms && cold.nparcels != hot.nparcels
                })
        });
        assert!(diverged, "per-destination parameters never diverged");
        rt.shutdown();
    }

    #[test]
    fn backpressure_sheds_are_accounted_per_pair() {
        let rt = service_runtime(3, Some(1), sim());
        let config = ServiceConfig {
            class: DeliveryClass::BestEffort,
            base_rate: 20_000.0,
            adaptive: None,
            // Keep the coalescer out of the way so requests land on the
            // egress queue directly and the watermark is exercised.
            params: CoalescingParams::new(1, Duration::from_micros(50)),
            ..quick()
        };
        let report = run_service(&rt, &config).unwrap();
        assert!(report.accounting_exact(), "inexact: {report:?}");
        assert!(report.delivered > 0);
        rt.shutdown();
    }

    #[test]
    fn all_in_one_run_accounts_per_destination_and_publishes_deliveries() {
        let rt = service_runtime(3, Some(8), sim());
        let report = run_service(&rt, &quick()).unwrap();
        assert!(report.sent > 0);
        assert_eq!(report.per_dest.len(), 2);
        for d in &report.per_dest {
            assert_eq!(
                d.delivered + d.shed,
                d.sent,
                "destination {}: {d:?}",
                d.dest
            );
        }
        assert!(report.accounting_exact(), "inexact: {report:?}");
        assert!(report.probes > 0, "probe stream never completed");
        assert!(!report.series.is_empty());
        // The delivered counters published for aggregation sum to the
        // delivered total.
        let published: i64 = (0..3)
            .map(|l| match rt.query(l, "/app/service-delivered") {
                Ok(CounterValue::Int(v)) => v,
                other => panic!("locality {l}: {other:?}"),
            })
            .sum();
        assert_eq!(published as u64, report.delivered);
        rt.shutdown();
    }

    #[test]
    fn backlogged_destination_never_stalls_an_idle_one() {
        let rt = service_runtime(3, Some(2), sim());
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let flood = rt
            .action("service::flood")
            .delivery(DeliveryClass::BestEffort)
            .register(|(): ()| {});
        let probe = rt.action("service::probe").register(move |(): ()| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let started = Instant::now();
        rt.run_on(0, move |ctx| {
            // Saturate destination 1 far past the watermark…
            for _ in 0..500 {
                ctx.apply(&flood, 1, ());
            }
            // …then require round trips to the idle destination 2 to
            // complete promptly despite destination 1's backlog.
            let futures: Vec<_> = (0..50).map(|_| ctx.async_action(&probe, 2, ())).collect();
            ctx.wait_all(futures).unwrap();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 50);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "idle destination stalled behind a backlogged one"
        );
        rt.shutdown();
    }
}
