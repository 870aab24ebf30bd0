//! # rpx — a task-based runtime with adaptive active message coalescing
//!
//! RPX is a from-scratch Rust reproduction of the system studied in
//! *"Methodology for Adaptive Active Message Coalescing in Task Based
//! Runtime Systems"* (Wagle, Kellar, Serio, Kaiser): an HPX-like
//! task-based runtime whose localities exchange **parcels** (active
//! messages), with
//!
//! * **parcel coalescing** as a per-action plug-in (queue length +
//!   flush-timer wait time, Algorithm 1 of the paper),
//! * an intrinsic **performance counter framework** exposing the paper's
//!   `/coalescing/*` and `/threads/*` counters,
//! * the paper's **network overhead metrics** (Eqs. 1–4), and
//! * an **adaptive controller** that closes the loop the paper proposes
//!   as future work.
//!
//! A "cluster" is simulated in-process: every locality has its own
//! work-stealing scheduler and parcel port, connected by a software
//! fabric that charges per-message/per-byte costs in real CPU time on
//! scheduler background work — see `rpx-net` for the substitution
//! rationale.
//!
//! ## Quickstart
//!
//! ```
//! use rpx::{Runtime, RuntimeConfig};
//! use rpx_util::Complex64;
//!
//! // Two localities, like the toy application of the paper (Listing 1).
//! let rt = Runtime::new(RuntimeConfig::small_test());
//!
//! // Register an action on every locality (HPX_PLAIN_ACTION analogue).
//! // The builder also selects the delivery class:
//! // `.delivery(rpx::DeliveryClass::Coalesce)` etc.
//! let get_cplx = rt.action("get_cplx").register(|(): ()| Complex64::new(13.3, -23.8));
//!
//! // Enable message coalescing for it
//! // (HPX_ACTION_USES_MESSAGE_COALESCING analogue).
//! let control = rt
//!     .enable_coalescing("get_cplx", rpx::CoalescingParams::new(8, std::time::Duration::from_micros(2000)))
//!     .unwrap();
//!
//! // Drive from locality 0: invoke remotely on locality 1 and wait.
//! let value = rt.run_on(0, move |ctx| {
//!     let other = ctx.find_remote_localities()[0];
//!     let futures: Vec<_> = (0..32).map(|_| ctx.async_action(&get_cplx, other, ())).collect();
//!     let values = ctx.wait_all(futures).unwrap();
//!     values[0]
//! });
//! assert_eq!(value, Complex64::new(13.3, -23.8));
//! assert!(control.counters(1).is_some());
//! rt.shutdown();
//! ```

#![warn(missing_docs)]

pub mod coalescing;
pub mod collectives;
pub mod components;
pub mod context;
pub mod error;
pub mod runtime;

pub use coalescing::CoalescingControl;
pub use components::MethodHandle;
pub use context::{Ctx, RemoteFuture};
pub use error::RuntimeError;
pub use runtime::{
    ActionBuilder, ActionHandle, Locality, LocalityActionBuilder, Runtime, RuntimeConfig,
};

// Re-export the pieces applications touch directly.
pub use rpx_adaptive::{
    AdaptiveConfig, DestDecision, OverheadController, PerDestController, PicsTuner,
};
pub use rpx_coalesce::{CoalescingParams, ParamsHandle};
pub use rpx_counters::{
    CounterError, CounterPath, CounterRegistry, CounterValue, Sample, TelemetryConfig,
    TelemetryService, TimeSeries,
};
pub use rpx_lco::{Barrier, Latch};
pub use rpx_metrics::{MetricsReader, PhaseRecorder};
pub use rpx_net::{
    BootstrapError, BootstrapMode, DeliveryClass, DeliveryError, HostId, LinkModel,
    ReliabilityConfig, ShmTuning, Topology, Transport, TransportKind, TransportPort,
};
pub use rpx_serialize::Wire;
pub use rpx_util::Complex64;
