//! # rpx-apps
//!
//! The paper's evaluation workloads, ported to RPX:
//!
//! * [`toy`] — the **toy application** of Listing 1: localities
//!   exchange large numbers of single-`complex<double>` active messages
//!   with no inter-message dependencies, in phases (`num_repeats = 4`).
//!   It is the paper's stress test for per-message overhead and drives
//!   Figs. 4, 5 and 9.
//! * [`parquet`] — the **Parquet proxy**: the communication skeleton of
//!   the self-consistent parquet solver \[13\] — iterations whose rotation
//!   phase broadcasts `8·Nc²` parcels of `Nc` complex doubles between all
//!   localities, followed by a tensor-contraction compute kernel and an
//!   iteration barrier. Drives Figs. 6, 7 and 8. (The physics is replaced
//!   by a stand-in kernel; only the communication pattern matters to the
//!   paper's measurements.)
//! * [`statesync`] — the newest-wins **state-sync** fan-in: many monotone
//!   update streams converge on one consumer, the showcase (and ≥ 2×
//!   wire-byte record) for the `Coalesce` delivery class.
//! * [`service`] — the skewed **open-loop service** workload: Zipf
//!   destination choice plus 10× load swings, the evaluation driver for
//!   per-destination adaptive coalescing and egress backpressure.
//! * [`driver`] — what every driver shares (the per-rank outcome and its
//!   `/app/*` parity counters) and the sweep harness running an
//!   application across a grid of `(nparcels, interval)` configurations
//!   and collecting time-vs-overhead points, the raw material of every
//!   figure.
//!
//! There is one driver per workload. [`toy::run_toy`],
//! [`parquet::run_parquet`] and [`service::run_service`] drive every
//! locality the runtime hosts, so the same call draws the figures
//! all-in-one and runs as one rank of a multi-process cluster under
//! `repro launch`, where the parity suite compares their deterministic
//! outcomes bit for bit.

#![warn(missing_docs)]

pub mod alltoall;
pub mod driver;
pub mod parquet;
pub mod service;
pub mod statesync;
pub mod toy;

pub use alltoall::{run_alltoall, AllToAllConfig, AllToAllReport};
pub use driver::{parquet_sweep, toy_sweep, RankStats, SweepOutcome};
pub use parquet::{ParquetConfig, ParquetReport};
pub use service::{
    run_service, DestReport, ParamSample, ServiceConfig, ServiceReport, ZipfSampler,
};
pub use statesync::{
    run_statesync, run_statesync_pair, StateSyncConfig, StateSyncPair, StateSyncReport,
};
pub use toy::{ToyConfig, ToyReport};
