//! The one module through which the harness reaches RPX.
//!
//! Everything the benchmark uses is either re-exported here or wrapped in
//! one of the few functions below; `benchmark/README.md` lists the items.
//! The entry points ROADMAP schedules for merging
//! (`enable_coalescing` / `enable_coalescing_per_destination`,
//! `start_adaptive` / `start_adaptive_per_dest`) have exactly one call
//! site each, here, so the PR that merges them edits this file only. No
//! alias scheduled for removal (`Fabric`, `NetPort`) is used.

use std::sync::Arc;
use std::time::Duration;

pub use rpx::{
    ActionHandle, AdaptiveConfig, Barrier, CoalescingControl, CoalescingParams, Complex64, Ctx,
    DeliveryClass, MetricsReader, OverheadController, PerDestController, Runtime, RuntimeError,
    Wire,
};
pub use rpx_adaptive::Ladder;
pub use rpx_metrics::MetricsSample;

/// Layer-level public items the probes (`probes.rs`) time directly.
pub mod layers {
    pub use bytes::Bytes;
    pub use rpx_agas::{AgasService, Gid};
    pub use rpx_coalesce::{CoalescingCounters, CoalescingQueue, ParamsHandle};
    pub use rpx_counters::CounterRegistry;
    pub use rpx_lco::channel;
    pub use rpx_net::{
        decode_frame, encode_frame, LinkModel, Message, MessageKind, ReliabilityConfig, ShmTuning,
        SimTransport, Transport, TransportKind, TransportPort,
    };
    pub use rpx_parcel::{ActionId, ActionRegistry, Parcel, ParcelBatch, ParcelPort, SendPath};
    pub use rpx_threading::{register_thread_counters, Scheduler};
    pub use rpx_util::TimerService;
}

use layers::{LinkModel, ReliabilityConfig, ShmTuning, TransportKind};

/// Which wire a workload's runtime is built on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Link {
    /// `Sim(LinkModel::cluster())`: the paper's modelled 20 µs/message link.
    SimCluster,
    /// Heap-backed shared-memory rings (all-in-one mode), raw.
    ShmRings,
    /// Loopback TCP under the reliability sublayer's default settings.
    TcpReliable,
}

/// Runtime shape of one workload. Everything not named here stays at
/// `RuntimeConfig::default()`.
#[derive(Debug, Clone, Copy)]
pub struct Boot {
    pub localities: u32,
    pub workers_per_locality: usize,
    pub link: Link,
    pub backpressure_watermark: Option<usize>,
}

pub fn boot(b: &Boot) -> Arc<Runtime> {
    let (transport, reliability) = match b.link {
        Link::SimCluster => (TransportKind::Sim(LinkModel::cluster()), None),
        Link::ShmRings => (TransportKind::Shm(ShmTuning::default()), None),
        Link::TcpReliable => (
            TransportKind::TcpLoopback,
            Some(ReliabilityConfig::default()),
        ),
    };
    Runtime::new(rpx::RuntimeConfig {
        localities: b.localities,
        workers_per_locality: b.workers_per_locality,
        transport,
        reliability,
        backpressure_watermark: b.backpressure_watermark,
        ..rpx::RuntimeConfig::default()
    })
}

/// One shared parameter handle for all destinations of `action`.
pub fn coalesce_global(
    rt: &Arc<Runtime>,
    action: &str,
    params: CoalescingParams,
) -> CoalescingControl {
    rt.enable_coalescing(action, params)
        .expect("action is registered")
}

/// Private parameters and counters per (locality, destination).
pub fn coalesce_per_destination(
    rt: &Arc<Runtime>,
    action: &str,
    params: CoalescingParams,
) -> CoalescingControl {
    rt.enable_coalescing_per_destination(action, params)
        .expect("action is registered")
}

/// The global `OverheadController`, steering `control` from `locality`'s
/// Eq. 4 overhead.
pub fn steer_global(
    control: &CoalescingControl,
    rt: &Runtime,
    locality: u32,
    config: AdaptiveConfig,
) -> OverheadController {
    control.start_adaptive(rt, locality, config)
}

/// The `PerDestController`: one hill climber per destination.
pub fn steer_per_destination(
    control: &CoalescingControl,
    rt: &Runtime,
    locality: u32,
    config: AdaptiveConfig,
) -> PerDestController {
    control.start_adaptive_per_dest(rt, locality, config)
}

/// A counter's current value as a number (arrays read as 0).
pub fn counter(rt: &Runtime, locality: u32, path: &str) -> f64 {
    match rt.query(locality, path) {
        Ok(rpx::CounterValue::Array(_)) => 0.0,
        Ok(v) => v.as_f64(),
        Err(e) => panic!("counter {path} on locality {locality}: {e}"),
    }
}

/// Flush, drain and stop a runtime; returns how long shutdown took.
pub fn shutdown(rt: Arc<Runtime>) -> Duration {
    let t = std::time::Instant::now();
    rt.shutdown();
    drop(rt);
    t.elapsed()
}
