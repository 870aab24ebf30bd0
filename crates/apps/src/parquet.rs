//! The Parquet communication proxy.
//!
//! The real Parquet application \[13\] is a quantum many-body solver whose
//! rank-3 tensors of complex doubles must be broadcast between all nodes
//! each iteration; its *rotation phase* "sends `8·Nc²` parcels containing
//! `Nc` elements. No message depends on another and they can be sent in
//! parallel" (§IV-C). The paper's measurements only exercise this
//! communication structure (plus iteration timing), so the proxy
//! reproduces exactly that:
//!
//! * every iteration, each locality sends its share of `8·Nc²` parcels,
//!   each carrying `Nc` complex doubles, round-robin to its peers,
//! * all parcels are independent (`hpx::async` + `wait_all`),
//! * a stand-in tensor-contraction kernel models the compute between
//!   rotations,
//! * an iteration barrier synchronises localities (the self-consistency
//!   loop's structure): every hosted locality's driver returns, then
//!   [`Runtime::barrier`] meets the other ranks (a no-op all-in-one).
//!
//! The paper runs `Nc = 512` on four nodes; the proxy defaults to a
//! laptop-scale `Nc` with identical structure.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rpx::{CoalescingParams, Complex64, PhaseRecorder, Runtime, RuntimeError};

use crate::driver::{drive, hosted_stats, publish, RankStats, CONTROL_TIMEOUT};

/// Configuration of a Parquet-proxy run.
#[derive(Debug, Clone)]
pub struct ParquetConfig {
    /// Linear tensor dimension `Nc`. Each rotation parcel carries `Nc`
    /// complex doubles; `8·Nc²` parcels are sent per iteration in total.
    pub nc: usize,
    /// Number of self-consistency iterations.
    pub iterations: usize,
    /// Coalescing parameters, or `None` for the bare runtime.
    pub coalescing: Option<CoalescingParams>,
    /// Stand-in compute time per locality per iteration (the tensor
    /// contraction between rotations).
    pub compute_per_iteration: Duration,
}

impl Default for ParquetConfig {
    fn default() -> Self {
        ParquetConfig {
            nc: 16,
            iterations: 4,
            coalescing: Some(CoalescingParams::new(4, Duration::from_micros(4000))),
            compute_per_iteration: Duration::from_millis(2),
        }
    }
}

impl ParquetConfig {
    /// Total parcels per iteration across all localities (`8·Nc²`).
    pub fn total_parcels_per_iteration(&self) -> usize {
        8 * self.nc * self.nc
    }

    /// Parcels each locality sends per iteration.
    pub fn parcels_per_locality(&self, localities: u32) -> usize {
        self.total_parcels_per_iteration() / localities as usize
    }
}

/// Measurements of one Parquet iteration.
#[derive(Debug, Clone)]
pub struct ParquetIteration {
    /// Iteration index.
    pub iteration: usize,
    /// Wall time of the iteration, barrier included.
    pub wall: Duration,
    /// Instantaneous network overhead over the iteration (lowest hosted
    /// locality).
    pub network_overhead: f64,
}

/// The outcome of a Parquet-proxy run.
#[derive(Debug, Clone)]
pub struct ParquetReport {
    /// Per-iteration measurements.
    pub iterations: Vec<ParquetIteration>,
    /// Total wall time.
    pub total: Duration,
    /// Parcels counted by the lowest hosted locality's coalescer (0
    /// without coalescing).
    pub parcels_counted: u64,
    /// Messages counted by the same coalescer.
    pub messages_counted: u64,
    /// Deterministic outcome of every hosted locality, in id order: the
    /// checksum's real part sums the received acknowledgements (validates
    /// delivery), and is published with the parcel count as `/app/*`
    /// counters.
    pub per_rank: Vec<RankStats>,
}

impl ParquetReport {
    /// Mean iteration time in seconds.
    pub fn mean_iteration_secs(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.iterations
            .iter()
            .map(|i| i.wall.as_secs_f64())
            .sum::<f64>()
            / self.iterations.len() as f64
    }

    /// Mean per-iteration network overhead.
    pub fn mean_overhead(&self) -> f64 {
        if self.iterations.is_empty() {
            return 0.0;
        }
        self.iterations
            .iter()
            .map(|i| i.network_overhead)
            .sum::<f64>()
            / self.iterations.len() as f64
    }
}

/// The action name the proxy registers.
pub const ROTATE_ACTION: &str = "parquet::rotate";

/// The stand-in contraction kernel: real complex arithmetic for
/// `duration` on a locality's tensor slice.
fn contraction_kernel(nc: usize, duration: Duration) -> Complex64 {
    let start = Instant::now();
    let mut acc = Complex64::new(1.0, 0.5);
    let step = Complex64::new(0.999_9, 1e-4);
    let mut i = 0usize;
    while start.elapsed() < duration {
        // A short inner block between clock checks.
        for _ in 0..64 {
            acc = acc * step + Complex64::new(1e-12 * (i % nc.max(1)) as f64, 0.0);
            i += 1;
        }
    }
    acc
}

/// Run the Parquet proxy on `rt`, driving every locality this process
/// hosts (all of them all-in-one, one rank per process otherwise).
///
/// Registers `parquet::rotate`; use a fresh runtime per configuration.
pub fn run_parquet(
    rt: &Arc<Runtime>,
    config: &ParquetConfig,
) -> Result<ParquetReport, RuntimeError> {
    let n = rt.num_localities();
    assert!(n >= 2, "parquet proxy needs at least two localities");
    let nc = config.nc;

    // The rotation action: receive a row of Nc complex doubles and fold
    // it into the local tensor (represented by its running checksum —
    // the physics is out of scope, the data movement is not).
    let action = rt
        .action(ROTATE_ACTION)
        .register(move |row: Vec<Complex64>| {
            debug_assert_eq!(row.len(), nc);
            let mut sum = Complex64::ZERO;
            for v in &row {
                sum += *v;
            }
            sum.re
        });
    rt.verify_registration(CONTROL_TIMEOUT)?;
    let control = config
        .coalescing
        .map(|params| rt.enable_coalescing(ROTATE_ACTION, params))
        .transpose()?;

    let mut stats = hosted_stats(rt);
    let hosted: Vec<u32> = stats.iter().map(|s| s.rank).collect();
    let count = config.parcels_per_locality(n);
    let compute = config.compute_per_iteration;
    let mut recorder = PhaseRecorder::new(rt.metrics(hosted[0]));
    let mut iterations = Vec::with_capacity(config.iterations);
    let start = Instant::now();
    for iteration in 0..config.iterations {
        recorder.start_phase(format!("iteration-{iteration}"));
        let action = action.clone();
        let partials = drive(rt, &hosted, move |ctx| {
            let sum = rotation_phase(ctx, &action, nc, count, iteration)?;
            contraction_kernel(nc, compute);
            Ok::<f64, RuntimeError>(sum)
        });
        for (s, partial) in stats.iter_mut().zip(partials) {
            s.checksum += Complex64::new(partial?, 0.0);
            s.parcels_sent += count as u64;
        }
        rt.barrier(CONTROL_TIMEOUT)?;
        let record = recorder.end_phase();
        iterations.push(ParquetIteration {
            iteration,
            wall: record.wall,
            network_overhead: record.network_overhead(),
        });
    }

    let counted = control.as_ref().and_then(|c| c.counters(hosted[0]));
    publish(rt, &stats);
    Ok(ParquetReport {
        iterations,
        total: start.elapsed(),
        parcels_counted: counted.map_or(0, |c| c.parcels.get()),
        messages_counted: counted.map_or(0, |c| c.messages.get()),
        per_rank: stats,
    })
}

/// One locality's rotation phase: send `count` parcels of `nc` complex
/// doubles round-robin to the peers; wait for all acknowledgements.
fn rotation_phase(
    ctx: &rpx::Ctx,
    action: &rpx::ActionHandle<Vec<Complex64>, f64>,
    nc: usize,
    count: usize,
    iteration: usize,
) -> Result<f64, RuntimeError> {
    let peers = ctx.find_remote_localities();
    let mut futures = Vec::with_capacity(count);
    for i in 0..count {
        let dest = peers[i % peers.len()];
        // Deterministic tensor row content (varies by sender/parcel/iter).
        let base = (ctx.locality() as f64) + i as f64 * 1e-6 + iteration as f64 * 1e-3;
        let row: Vec<Complex64> = (0..nc)
            .map(|k| Complex64::new(base + k as f64, -(k as f64)))
            .collect();
        futures.push(ctx.async_action(action, dest, row));
    }
    let acks = ctx.wait_all(futures)?;
    Ok(acks.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpx::{CounterValue, RuntimeConfig};

    fn tiny() -> ParquetConfig {
        ParquetConfig {
            nc: 4,
            iterations: 2,
            coalescing: Some(CoalescingParams::new(4, Duration::from_micros(2000))),
            compute_per_iteration: Duration::from_micros(200),
        }
    }

    #[test]
    fn parcel_budget_matches_paper_formula() {
        let cfg = ParquetConfig { nc: 16, ..tiny() };
        assert_eq!(cfg.total_parcels_per_iteration(), 8 * 16 * 16);
        assert_eq!(cfg.parcels_per_locality(4), 8 * 16 * 16 / 4);
    }

    #[test]
    fn two_locality_run_completes_and_counts() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let cfg = tiny();
        let report = run_parquet(&rt, &cfg).unwrap();
        assert_eq!(report.iterations.len(), 2);
        // Locality 0 sends its share each iteration.
        let expected = (cfg.parcels_per_locality(2) * cfg.iterations) as u64;
        assert_eq!(report.parcels_counted, expected);
        assert!(report.messages_counted <= report.parcels_counted);
        assert!(report.per_rank.iter().all(|s| s.checksum.re.is_finite()));
        rt.shutdown();
    }

    #[test]
    fn publishes_its_checksum_counters_all_in_one() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let report = run_parquet(&rt, &tiny()).unwrap();
        for s in &report.per_rank {
            let query = |path| rt.query(s.rank, path).unwrap();
            assert_eq!(
                query("/app/parcels-sent"),
                CounterValue::Int(s.parcels_sent as i64)
            );
            assert_eq!(
                query("/app/checksum-re"),
                CounterValue::Float(s.checksum.re)
            );
            assert_eq!(query("/app/checksum-im"), CounterValue::Float(0.0));
        }
        rt.shutdown();
    }

    #[test]
    fn four_locality_run_completes() {
        let rt = Runtime::new(RuntimeConfig {
            localities: 4,
            ..RuntimeConfig::small_test()
        });
        let cfg = tiny();
        let report = run_parquet(&rt, &cfg).unwrap();
        assert_eq!(report.iterations.len(), 2);
        assert!(report.mean_iteration_secs() > 0.0);
        assert_eq!(report.per_rank.len(), 4);
        let expected = (cfg.parcels_per_locality(4) * cfg.iterations) as u64;
        assert!(report.per_rank.iter().all(|s| s.parcels_sent == expected));
        rt.shutdown();
    }

    #[test]
    fn checksum_is_deterministic_across_runs() {
        let run = || {
            let rt = Runtime::new(RuntimeConfig::small_test());
            let r = run_parquet(&rt, &tiny()).unwrap();
            rt.shutdown();
            r.per_rank
        };
        assert_eq!(run(), run(), "per-rank outcomes must be reproducible");
    }

    #[test]
    fn runs_without_coalescing() {
        let rt = Runtime::new(RuntimeConfig::small_test());
        let mut cfg = tiny();
        cfg.coalescing = None;
        let report = run_parquet(&rt, &cfg).unwrap();
        assert_eq!(report.parcels_counted, 0);
        assert!(report.mean_overhead().is_finite());
        rt.shutdown();
    }

    #[test]
    fn contraction_kernel_burns_requested_time() {
        let t0 = std::time::Instant::now();
        let out = contraction_kernel(8, Duration::from_millis(2));
        assert!(t0.elapsed() >= Duration::from_millis(2));
        assert!(out.re.is_finite() && out.im.is_finite());
    }
}
