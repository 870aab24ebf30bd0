//! The toy application (Listing 1 of the paper).
//!
//! Localities send `numparcels` active messages to their ring successor
//! (`(id + 1) % n`), each carrying a single `complex<double>`; the process
//! repeats for `phases` rounds ("we define the process of sending a
//! million messages as a phase"). With the paper's two localities this is
//! its bidirectional 0 ↔ 1 exchange. There are no dependencies between
//! messages, making the workload an ideal stress test for per-message
//! network overhead — and hence for parcel coalescing.
//!
//! The paper's experiments additionally *change the coalescing
//! parameters between phases* (Fig. 9) to show the overhead counters
//! react instantaneously; [`ToyConfig::nparcels_schedule`] reproduces
//! that.
//!
//! [`run_toy`] drives every locality this process hosts, so the same call
//! runs all-in-one (every locality) or as one rank of a multi-process
//! cluster (`RuntimeConfig::topology` set); phases are separated by
//! [`Runtime::barrier`], a no-op all-in-one.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx::{CoalescingParams, Complex64, PhaseRecorder, Runtime, RuntimeError};

use crate::driver::{drive, hosted_stats, publish, RankStats, CONTROL_TIMEOUT};

/// Configuration of a toy-application run.
#[derive(Debug, Clone)]
pub struct ToyConfig {
    /// Messages each driving locality sends per phase (the paper uses 1e6
    /// on its cluster; laptop-scale runs use 1e4–1e5).
    pub numparcels: usize,
    /// Number of phases (`num_repeats`, 4 in Listing 1).
    pub phases: usize,
    /// Whether every locality drives (the paper's "two nodes sending a
    /// million messages to each other"). `false` drives locality 0 only.
    pub bidirectional: bool,
    /// Coalescing parameters, or `None` to run without the plug-in.
    pub coalescing: Option<CoalescingParams>,
    /// Per-phase `nparcels` overrides (Fig. 9's mid-run parameter
    /// changes). Indexed by phase; missing entries keep the previous
    /// value.
    pub nparcels_schedule: Option<Vec<usize>>,
}

impl Default for ToyConfig {
    fn default() -> Self {
        ToyConfig {
            numparcels: 10_000,
            phases: 4,
            bidirectional: true,
            coalescing: Some(CoalescingParams::new(128, Duration::from_micros(4000))),
            nparcels_schedule: None,
        }
    }
}

/// Measurements of one toy-application phase.
#[derive(Debug, Clone)]
pub struct ToyPhase {
    /// Phase index.
    pub phase: usize,
    /// The `nparcels` in force during the phase.
    pub nparcels: usize,
    /// Wall time of the phase.
    pub wall: Duration,
    /// Instantaneous network overhead (Eq. 4 over the phase, on the
    /// lowest hosted locality).
    pub network_overhead: f64,
    /// Instantaneous task overhead (Eq. 2 over the phase, ns/task).
    pub task_overhead_ns: f64,
}

/// The outcome of a toy-application run.
#[derive(Debug, Clone)]
pub struct ToyReport {
    /// Per-phase measurements.
    pub phases: Vec<ToyPhase>,
    /// Total wall time across phases.
    pub total: Duration,
    /// `/coalescing/count/parcels@toy::get_cplx` on the lowest hosted
    /// locality (0 if coalescing disabled).
    pub parcels_counted: u64,
    /// `/coalescing/count/messages@toy::get_cplx` on the same locality.
    pub messages_counted: u64,
    /// `/coalescing/count/average-parcels-per-message@toy::get_cplx`.
    pub avg_parcels_per_message: f64,
    /// Deterministic outcome of every hosted locality, in id order (the
    /// values published as `/app/*` counters).
    pub per_rank: Vec<RankStats>,
}

impl ToyReport {
    /// Mean phase wall time in seconds.
    pub fn mean_phase_secs(&self) -> f64 {
        if self.phases.is_empty() {
            return 0.0;
        }
        self.phases
            .iter()
            .map(|p| p.wall.as_secs_f64())
            .sum::<f64>()
            / self.phases.len() as f64
    }

    /// Mean per-phase network overhead.
    pub fn mean_overhead(&self) -> f64 {
        if self.phases.is_empty() {
            return 0.0;
        }
        self.phases.iter().map(|p| p.network_overhead).sum::<f64>() / self.phases.len() as f64
    }
}

/// The action name the toy application registers.
pub const TOY_ACTION: &str = "toy::get_cplx";

/// Run the toy application on `rt`: each driving locality hosted here
/// (all of them when `bidirectional`, else locality 0 only) sends
/// `numparcels` requests per phase to its ring successor.
///
/// Registers the `toy::get_cplx` action, so a given runtime can host at
/// most one toy run (create a fresh runtime per configuration, as the
/// paper launches fresh jobs per parameter set).
pub fn run_toy(rt: &Arc<Runtime>, config: &ToyConfig) -> Result<ToyReport, RuntimeError> {
    let n = rt.num_localities();
    assert!(n >= 2, "toy app needs at least two localities");
    // Listing 1: the action returns complex<double>(13.3, -23.8).
    let action = rt
        .action(TOY_ACTION)
        .register(|(): ()| Complex64::new(13.3, -23.8));
    // All ranks must agree on the action table before any parcel flows;
    // across processes this doubles as the boot barrier.
    rt.verify_registration(CONTROL_TIMEOUT)?;
    let control = config
        .coalescing
        .map(|params| rt.enable_coalescing(TOY_ACTION, params))
        .transpose()?;

    let drives = |id: u32| config.bidirectional || id == 0;
    let mut stats = hosted_stats(rt);
    let drivers: Vec<u32> = stats
        .iter()
        .map(|s| s.rank)
        .filter(|&id| drives(id))
        .collect();
    let mut recorder = PhaseRecorder::new(rt.metrics(stats[0].rank));
    let mut phases = Vec::with_capacity(config.phases);
    let mut nparcels = config.coalescing.map_or(1, |p| p.nparcels);
    let start = Instant::now();

    for phase in 0..config.phases {
        let next = config.nparcels_schedule.as_ref().and_then(|s| s.get(phase));
        if let (Some(&next), Some(control)) = (next, &control) {
            control.set_nparcels(next);
            nparcels = next;
        }

        recorder.start_phase(format!("phase-{phase}"));
        let (numparcels, action) = (config.numparcels, action.clone());
        let sums = drive(rt, &drivers, move |ctx| {
            let dest = (ctx.locality() + 1) % n;
            let futures: Vec<_> = (0..numparcels)
                .map(|_| ctx.async_action(&action, dest, ()))
                .collect();
            let mut sum = Complex64::ZERO;
            for v in &ctx.wait_all(futures)? {
                sum += *v;
            }
            Ok::<_, RuntimeError>(sum)
        });
        for (s, sum) in stats.iter_mut().filter(|s| drives(s.rank)).zip(sums) {
            s.checksum += sum?;
            s.parcels_sent += numparcels as u64;
        }
        // Close the phase only once the runtime is quiescent so the
        // drivers' task-execution time has been recorded and straggler
        // flushes are attributed to the phase that caused them.
        if let Some(control) = &control {
            control.flush();
        }
        rt.wait_quiescent(Duration::from_secs(30));
        let record = recorder.end_phase();
        phases.push(ToyPhase {
            phase,
            nparcels,
            wall: record.wall,
            network_overhead: record.network_overhead(),
            task_overhead_ns: record.task_overhead_ns(),
        });
        rt.barrier(CONTROL_TIMEOUT)?;
    }

    let counted = control.as_ref().and_then(|c| c.counters(stats[0].rank));
    publish(rt, &stats);
    Ok(ToyReport {
        phases,
        total: start.elapsed(),
        parcels_counted: counted.map_or(0, |c| c.parcels.get()),
        messages_counted: counted.map_or(0, |c| c.messages.get()),
        avg_parcels_per_message: counted.map_or(0.0, |c| c.parcels_per_message.ratio()),
        per_rank: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpx::{CounterValue, RuntimeConfig};

    fn small_toy(numparcels: usize, coalescing: Option<CoalescingParams>) -> ToyConfig {
        ToyConfig {
            numparcels,
            phases: 2,
            bidirectional: true,
            coalescing,
            nparcels_schedule: None,
        }
    }

    fn sent(rt: &Runtime, locality: u32) -> CounterValue {
        rt.query(locality, "/app/parcels-sent").unwrap()
    }

    #[test]
    fn toy_runs_and_counts_all_parcels() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let cfg = small_toy(
            200,
            Some(CoalescingParams::new(16, Duration::from_micros(2000))),
        );
        let report = run_toy(&rt, &cfg).unwrap();
        assert_eq!(report.phases.len(), 2);
        // 2 phases × 200 parcels × 2 directions, counted on locality 0's
        // coalescer (locality 0 sends 400 of them).
        assert_eq!(report.parcels_counted, 400);
        assert!(report.messages_counted < 400, "no coalescing happened");
        assert!(report.avg_parcels_per_message > 1.0);
        assert!(report.total >= report.phases[0].wall);
        for s in &report.per_rank {
            assert_eq!(s.parcels_sent, 400);
            // 400 × (13.3, -23.8), accumulated in order.
            assert!((s.checksum.re - 400.0 * 13.3).abs() < 1e-9);
            assert!((s.checksum.im + 400.0 * 23.8).abs() < 1e-9);
        }
        assert_eq!(sent(&rt, 0), CounterValue::Int(400));
        rt.shutdown();
    }

    #[test]
    fn four_locality_ring_sends_from_every_locality() {
        let rt = Runtime::new(RuntimeConfig {
            localities: 4,
            ..RuntimeConfig::small_test()
        });
        let cfg = ToyConfig {
            phases: 3,
            ..small_toy(
                150,
                Some(CoalescingParams::new(8, Duration::from_micros(1000))),
            )
        };
        let report = run_toy(&rt, &cfg).unwrap();
        assert_eq!(report.per_rank.len(), 4);
        for l in 0..4 {
            assert_eq!(sent(&rt, l), CounterValue::Int(3 * 150), "locality {l}");
        }
        rt.shutdown();
    }

    #[test]
    fn outcomes_are_identical_across_transports() {
        let run = |transport: rpx::TransportKind| {
            let rt = Runtime::new(RuntimeConfig {
                transport,
                ..RuntimeConfig::small_test()
            });
            let r = run_toy(&rt, &small_toy(150, Some(CoalescingParams::default()))).unwrap();
            rt.shutdown();
            r.per_rank
        };
        let sim = run(RuntimeConfig::small_test().transport);
        let tcp = run(rpx::TransportKind::TcpLoopback);
        assert_eq!(sim, tcp, "per-rank outcomes must be mode-independent");
    }

    #[test]
    fn toy_without_coalescing_runs() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let report = run_toy(&rt, &small_toy(100, None)).unwrap();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.parcels_counted, 0);
        assert!(report.mean_phase_secs() > 0.0);
        rt.shutdown();
    }

    #[test]
    fn unidirectional_mode() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let mut cfg = small_toy(
            100,
            Some(CoalescingParams::new(8, Duration::from_micros(1000))),
        );
        cfg.bidirectional = false;
        cfg.phases = 1;
        let report = run_toy(&rt, &cfg).unwrap();
        assert_eq!(report.parcels_counted, 100);
        // Only locality 0 drives; locality 1 just serves.
        let sent_by: Vec<u64> = report.per_rank.iter().map(|s| s.parcels_sent).collect();
        assert_eq!(sent_by, vec![100, 0]);
        assert_eq!(sent(&rt, 1), CounterValue::Int(0));
        rt.shutdown();
    }

    #[test]
    fn schedule_changes_nparcels_per_phase() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let cfg = ToyConfig {
            numparcels: 100,
            phases: 3,
            bidirectional: false,
            coalescing: Some(CoalescingParams::new(64, Duration::from_micros(2000))),
            nparcels_schedule: Some(vec![64, 1, 16]),
        };
        let report = run_toy(&rt, &cfg).unwrap();
        assert_eq!(
            report.phases.iter().map(|p| p.nparcels).collect::<Vec<_>>(),
            vec![64, 1, 16]
        );
        rt.shutdown();
    }

    #[test]
    fn phase_metrics_are_finite_and_positive() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let report = run_toy(
            &rt,
            &small_toy(
                200,
                Some(CoalescingParams::new(16, Duration::from_micros(2000))),
            ),
        )
        .unwrap();
        for p in &report.phases {
            assert!(p.wall > Duration::ZERO);
            assert!(p.network_overhead.is_finite());
            assert!((0.0..=1.0).contains(&p.network_overhead));
            assert!(p.task_overhead_ns.is_finite());
        }
        assert!(report.mean_overhead().is_finite());
        rt.shutdown();
    }
}
