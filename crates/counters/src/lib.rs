//! # rpx-counters
//!
//! An HPX-style **performance counter framework**.
//!
//! The paper's methodology hinges on *intrinsic, real-time introspection*:
//! instead of post-mortem traces, the runtime exposes named counters that
//! can be queried while the application runs, and those counters feed both
//! the analysis (Figs. 4–9) and — eventually — the adaptive tuning policy.
//! This crate reproduces the machinery HPX provides for that purpose
//! (§II-A of the paper, and Grubel et al. \[11\]):
//!
//! * **Hierarchical counter names** in HPX syntax,
//!   `/object{instance}/name@parameters`, e.g.
//!   `/coalescing{locality#0/total}/count/parcels@get_cplx` — see [`path`].
//! * **Counter kinds** — monotone counts, gauges, averages maintained as
//!   sum/count pairs, ratios, histograms, and arbitrary callbacks — see
//!   [`kinds`].
//! * A **registry** with discovery (wildcards), querying, and reset
//!   semantics — see [`registry`].
//! * The **telemetry service** — the one periodic counter reader:
//!   ring-buffered sampling at an interval (the building block for the
//!   instantaneous per-phase measurements of Fig. 9) with derived
//!   windowed rates and the instantaneous Eq. 4 network-overhead series
//!   `/parcels/overhead-time`, plus JSON/CSV export — see [`telemetry`].
//!
//! The counters specific to this study (the ones the paper adds to HPX) are
//! registered by `rpx-coalesce` and `rpx-threading`:
//!
//! | Counter | Meaning |
//! |---|---|
//! | `/coalescing/count/parcels@a` | parcels seen for action `a` |
//! | `/coalescing/count/messages@a` | messages sent for action `a` |
//! | `/coalescing/count/average-parcels-per-message@a` | ratio of the above |
//! | `/coalescing/time/average-parcel-arrival@a` | mean gap between parcels |
//! | `/coalescing/time/parcel-arrival-histogram@a` | histogram of gaps |
//! | `/threads/time/average-overhead` | Eq. 2 task overhead |
//! | `/threads/background-work` | Eq. 3 background work duration |
//! | `/threads/background-overhead` | Eq. 4 network overhead |

#![warn(missing_docs)]

pub mod kinds;
pub mod path;
pub mod registry;
pub mod telemetry;
pub mod value;

pub use kinds::{
    AverageCounter, CallbackCounter, CounterSource, GaugeCounter, HistogramCounter,
    LogHistogramCounter, MonotoneCounter, RatioCounter,
};
pub use path::CounterPath;
pub use registry::{CounterError, CounterRegistry};
pub use telemetry::{Sample, TelemetryConfig, TelemetryService, TimeSeries};
pub use value::CounterValue;
