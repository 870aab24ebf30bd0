//! What the paper drivers share — the per-rank outcome and its `/app/*`
//! parity counters, the fan-out that runs one driver task per hosted
//! locality — and the sweep harness: run an application across a grid of
//! coalescing parameters, fresh runtime per point, and collect the
//! (time, overhead) measurements behind every figure of the paper.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use rpx::{
    CoalescingParams, Complex64, CounterValue, Ctx, LinkModel, Runtime, RuntimeConfig,
    TelemetryConfig, TimeSeries, TransportKind,
};
use rpx_metrics::SweepPoint;

use crate::parquet::{run_parquet, ParquetConfig, ParquetReport};
use crate::toy::{run_toy, ToyConfig, ToyReport};

/// Budget for each control-plane exchange a driver makes (registration
/// verify, per-phase barrier).
pub(crate) const CONTROL_TIMEOUT: Duration = Duration::from_secs(30);

/// Deterministic outcome of one locality's driver: identical in every
/// deployment mode (all-in-one Sim / TCP / shm, or one rank per process)
/// by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStats {
    /// The locality.
    pub rank: u32,
    /// Parcels this locality sent.
    pub parcels_sent: u64,
    /// Checksum of the results this locality received, accumulated in
    /// send order (bit-for-bit reproducible).
    pub checksum: Complex64,
}

/// One zeroed [`RankStats`] per locality hosted by this process.
pub(crate) fn hosted_stats(rt: &Runtime) -> Vec<RankStats> {
    rt.hosted_localities()
        .into_iter()
        .map(|rank| RankStats {
            rank,
            parcels_sent: 0,
            checksum: Complex64::ZERO,
        })
        .collect()
}

/// Publish each hosted locality's outcome as `/app/parcels-sent`,
/// `/app/checksum-re` and `/app/checksum-im`, so they travel inside
/// [`Runtime::dump_counters_json`] files and the parity suite can compare
/// dumps across deployment modes.
pub(crate) fn publish(rt: &Runtime, stats: &[RankStats]) {
    for s in stats {
        let registry = rt.locality(s.rank).counters();
        let values = [
            (
                "/app/parcels-sent",
                CounterValue::Int(s.parcels_sent as i64),
            ),
            ("/app/checksum-re", CounterValue::Float(s.checksum.re)),
            ("/app/checksum-im", CounterValue::Float(s.checksum.im)),
        ];
        for (path, value) in values {
            registry.register_or_replace(
                path,
                rpx_counters::CallbackCounter::new(move || value.clone()),
            );
        }
    }
}

/// Run `f` as a driver task on every locality in `ids` at once and
/// return the results in `ids` order.
pub(crate) fn drive<R: Send + 'static>(
    rt: &Arc<Runtime>,
    ids: &[u32],
    f: impl Fn(&Ctx) -> R + Send + Sync + 'static,
) -> Vec<R> {
    let f = Arc::new(f);
    let (tx, rx) = mpsc::channel();
    for (slot, &id) in ids.iter().enumerate() {
        let (tx, f) = (tx.clone(), Arc::clone(&f));
        rt.spawn_on(id, move |ctx| {
            let _ = tx.send((slot, f(ctx)));
        });
    }
    drop(tx);
    let mut out: Vec<Option<R>> = ids.iter().map(|_| None).collect();
    for (slot, r) in rx {
        out[slot] = Some(r);
    }
    out.into_iter()
        .map(|r| r.expect("driver task panicked"))
        .collect()
}

/// A sweep measurement: the configuration plus the full application
/// report.
#[derive(Debug, Clone)]
pub enum SweepOutcome {
    /// A toy-application outcome.
    Toy {
        /// The parameters of this grid point.
        params: CoalescingParams,
        /// The application report.
        report: ToyReport,
        /// The instantaneous network-overhead series (Eq. 4 per sampling
        /// window) when the sweep ran with telemetry.
        sampled: Option<TimeSeries>,
    },
    /// A Parquet-proxy outcome.
    Parquet {
        /// The parameters of this grid point.
        params: CoalescingParams,
        /// The application report.
        report: ParquetReport,
    },
}

impl SweepOutcome {
    /// Reduce to the scatter-plot point used by Figs. 4 and 7. A sampled
    /// toy point takes its overhead from the mean of the sampled series
    /// instead of the end-of-phase counter deltas.
    pub fn to_point(&self) -> SweepPoint {
        match self {
            SweepOutcome::Toy {
                params,
                report,
                sampled,
            } => SweepPoint {
                nparcels: params.nparcels,
                interval_us: params.interval.as_micros() as u64,
                time_secs: report.mean_phase_secs(),
                network_overhead: sampled
                    .as_ref()
                    .and_then(TimeSeries::mean)
                    .unwrap_or_else(|| report.mean_overhead()),
            },
            SweepOutcome::Parquet { params, report } => SweepPoint {
                nparcels: params.nparcels,
                interval_us: params.interval.as_micros() as u64,
                time_secs: report.mean_iteration_secs(),
                network_overhead: report.mean_overhead(),
            },
        }
    }

    /// The parameters of this grid point.
    pub fn params(&self) -> CoalescingParams {
        match self {
            SweepOutcome::Toy { params, .. } | SweepOutcome::Parquet { params, .. } => *params,
        }
    }
}

/// The runtime configuration used by sweep runs.
pub fn sweep_runtime_config(localities: u32, transport: TransportKind) -> RuntimeConfig {
    RuntimeConfig {
        localities,
        workers_per_locality: 2,
        transport,
        ..RuntimeConfig::default()
    }
}

/// Run the toy application once per `(nparcels, interval)` grid point on
/// the simulated fabric.
///
/// A fresh runtime is booted per point, mirroring the paper's independent
/// job launches per parameter set. With `telemetry`, each runtime samples
/// locality 0's counters during the run and the outcome carries the
/// instantaneous overhead series, so figure-level correlations can be
/// recomputed from sampled measurements.
pub fn toy_sweep(
    base: &ToyConfig,
    link: LinkModel,
    nparcels_grid: &[usize],
    interval_us_grid: &[u64],
    telemetry: Option<&TelemetryConfig>,
) -> Vec<SweepOutcome> {
    let mut out = Vec::with_capacity(nparcels_grid.len() * interval_us_grid.len());
    for &interval_us in interval_us_grid {
        for &nparcels in nparcels_grid {
            let params = CoalescingParams::new(nparcels, Duration::from_micros(interval_us));
            let mut config = base.clone();
            config.coalescing = Some(params);
            let rt = boot(2, TransportKind::Sim(link));
            let service = telemetry.map(|t| {
                rt.start_telemetry(0, t.clone())
                    .expect("locality 0 always exists")
            });
            let report = run_toy(&rt, &config).expect("toy sweep run failed");
            rt.shutdown();
            let sampled = service.map(|s| s.overhead_series());
            out.push(SweepOutcome::Toy {
                params,
                report,
                sampled,
            });
        }
    }
    out
}

/// Run the Parquet proxy once per `(nparcels, interval)` grid point.
pub fn parquet_sweep(
    base: &ParquetConfig,
    localities: u32,
    link: LinkModel,
    nparcels_grid: &[usize],
    interval_us_grid: &[u64],
) -> Vec<SweepOutcome> {
    let mut out = Vec::with_capacity(nparcels_grid.len() * interval_us_grid.len());
    for &interval_us in interval_us_grid {
        for &nparcels in nparcels_grid {
            let params = CoalescingParams::new(nparcels, Duration::from_micros(interval_us));
            let mut config = base.clone();
            config.coalescing = Some(params);
            let rt = boot(localities, TransportKind::Sim(link));
            let report = run_parquet(&rt, &config).expect("parquet sweep run failed");
            rt.shutdown();
            out.push(SweepOutcome::Parquet { params, report });
        }
    }
    out
}

/// Repeat one Parquet configuration `repeats` times (fresh runtime each),
/// returning the per-run mean iteration times — the §IV-C RSD experiment.
pub fn parquet_repeats(
    config: &ParquetConfig,
    localities: u32,
    link: LinkModel,
    repeats: usize,
) -> Vec<f64> {
    (0..repeats)
        .map(|_| {
            let rt = boot(localities, TransportKind::Sim(link));
            let report = run_parquet(&rt, config).expect("parquet repeat failed");
            rt.shutdown();
            report.mean_iteration_secs()
        })
        .collect()
}

/// A cheap link model for fast CI sweeps (small but non-zero overheads so
/// shapes remain visible).
pub fn fast_link() -> LinkModel {
    LinkModel {
        send_overhead: Duration::from_micros(5),
        recv_overhead: Duration::from_micros(3),
        per_byte: Duration::from_nanos(1),
        latency: Duration::from_micros(2),
        ..LinkModel::cluster()
    }
}

/// Convert sweep outcomes to scatter points.
pub fn to_points(outcomes: &[SweepOutcome]) -> Vec<SweepPoint> {
    outcomes.iter().map(SweepOutcome::to_point).collect()
}

/// Boot a runtime with the sweep configuration on `transport` (e.g.
/// `TransportKind::Sim(link)` or [`TransportKind::TcpLoopback`]).
pub fn boot(localities: u32, transport: TransportKind) -> Arc<Runtime> {
    Runtime::new(sweep_runtime_config(localities, transport))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_toy() -> ToyConfig {
        ToyConfig {
            numparcels: 60,
            phases: 1,
            bidirectional: false,
            coalescing: None, // filled by the sweep
            nparcels_schedule: None,
        }
    }

    #[test]
    fn toy_sweep_covers_grid() {
        let outcomes = toy_sweep(&tiny_toy(), fast_link(), &[1, 8], &[1000, 4000], None);
        assert_eq!(outcomes.len(), 4);
        let points = to_points(&outcomes);
        let configs: Vec<(usize, u64)> =
            points.iter().map(|p| (p.nparcels, p.interval_us)).collect();
        assert!(configs.contains(&(1, 1000)));
        assert!(configs.contains(&(8, 4000)));
        assert!(points.iter().all(|p| p.time_secs > 0.0));
        assert!(points.iter().all(|p| p.network_overhead.is_finite()));
    }

    #[test]
    fn coalescing_reduces_messages_in_sweep() {
        let outcomes = toy_sweep(&tiny_toy(), fast_link(), &[1, 16], &[4000], None);
        let msgs: Vec<u64> = outcomes
            .iter()
            .map(|o| match o {
                SweepOutcome::Toy { report, .. } => report.messages_counted,
                _ => unreachable!(),
            })
            .collect();
        // nparcels=16 must generate far fewer messages than nparcels=1.
        assert!(
            msgs[1] * 4 <= msgs[0],
            "messages: nparcels=1 → {}, nparcels=16 → {}",
            msgs[0],
            msgs[1]
        );
    }

    #[test]
    fn sampled_sweep_carries_series() {
        let telemetry = TelemetryConfig {
            interval: Duration::from_millis(1),
            ..TelemetryConfig::default()
        };
        // Long enough for several 1 ms sampling windows per grid point.
        let base = ToyConfig {
            numparcels: 600,
            ..tiny_toy()
        };
        let outcomes = toy_sweep(&base, fast_link(), &[1, 16], &[2000], Some(&telemetry));
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            let SweepOutcome::Toy { sampled, .. } = o else {
                unreachable!()
            };
            let series = sampled.as_ref().expect("telemetry was on");
            assert!(
                !series.is_empty(),
                "no derived overhead samples for {:?}",
                o.params()
            );
            let p = o.to_point();
            assert!(p.time_secs > 0.0);
            assert!((0.0..=1.0).contains(&p.network_overhead));
        }
    }

    #[test]
    fn parquet_sweep_and_repeats() {
        let base = ParquetConfig {
            nc: 4,
            iterations: 1,
            coalescing: None,
            compute_per_iteration: Duration::from_micros(100),
        };
        let outcomes = parquet_sweep(&base, 2, fast_link(), &[2], &[2000]);
        assert_eq!(outcomes.len(), 1);
        assert_eq!(outcomes[0].params().nparcels, 2);

        let times = parquet_repeats(&base, 2, fast_link(), 2);
        assert_eq!(times.len(), 2);
        assert!(times.iter().all(|&t| t > 0.0));
    }
}
