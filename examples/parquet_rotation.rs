//! The Parquet communication proxy: iterations of the rotation phase
//! (8·Nc² parcels of Nc complex doubles, all-to-all) with an iteration
//! barrier — the paper's real-application workload.
//!
//! ```text
//! cargo run --release --example parquet_rotation -- [nc] [localities] [nparcels] [wait_us]
//! cargo run --release --example parquet_rotation -- 16 4 4 4000
//! ```

use std::time::Duration;

use rpx::{CoalescingParams, LinkModel, Runtime, RuntimeConfig, TransportKind};
use rpx_apps::parquet::{run_parquet, ParquetConfig};

fn arg(n: usize, default: u64) -> u64 {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let nc = arg(1, 16) as usize;
    let localities = arg(2, 4) as u32;
    let nparcels = arg(3, 4) as usize;
    let wait_us = arg(4, 4_000);

    let rt = Runtime::new(RuntimeConfig {
        localities,
        workers_per_locality: 2,
        transport: TransportKind::Sim(LinkModel::cluster()),
        ..RuntimeConfig::default()
    });
    let config = ParquetConfig {
        nc,
        iterations: 4,
        coalescing: Some(CoalescingParams::new(
            nparcels,
            Duration::from_micros(wait_us),
        )),
        compute_per_iteration: Duration::from_millis(2),
    };
    println!(
        "parquet proxy: Nc = {nc} → {} parcels/iteration across {localities} localities, \
         coalescing {nparcels} @ {wait_us} µs",
        config.total_parcels_per_iteration()
    );

    let report = run_parquet(&rt, &config).expect("parquet run");

    println!("\niteration  wall_s   overhead");
    for it in &report.iterations {
        println!(
            "{:>9}  {:>7.4}  {:>8.4}",
            it.iteration,
            it.wall.as_secs_f64(),
            it.network_overhead
        );
    }
    println!(
        "\nmean iteration {:.4}s | parcels {} messages {} | checksum {:.3}",
        report.mean_iteration_secs(),
        report.parcels_counted,
        report.messages_counted,
        report.per_rank.iter().map(|s| s.checksum.re).sum::<f64>()
    );

    rt.shutdown();
}
