//! # rpx-util
//!
//! Timing, timers, histograms and statistics substrate for the RPX runtime.
//!
//! This crate hosts the low-level building blocks that every other RPX crate
//! leans on:
//!
//! * [`time`] — monotonic stopwatches, hybrid sleep (`spin_sleep`) and busy
//!   cost charging (`busy_charge`) used by the software network fabric to
//!   model per-message overheads in real time.
//! * [`timer`] — the deadline **timer service**: a dedicated hardware thread
//!   draining a min-heap of deadlines with a park/spin hybrid wait. This is
//!   the analogue of the Boost deadline timer the paper uses for the parcel
//!   coalescing flush timer (§II-B), where the authors report firing within
//!   ~33 µs of the requested deadline on average.
//! * [`hist`] — lock-free histograms: fixed-width buckets backing the
//!   `/coalescing/time/parcel-arrival-histogram` performance counter, and
//!   log2 buckets ([`LogHistogram`]) for the wide-range parcel-path
//!   distributions (flush occupancy, wire bytes, spawn batch sizes).
//! * [`stats`] — online statistics (Welford mean/variance, RSD), Pearson
//!   correlation, and simple series helpers used by the evaluation harness.
//! * [`complex`] — a minimal `Complex64`, the payload type of both the toy
//!   application and the Parquet proxy.
//! * [`ids`] — monotone id allocation.
//! * [`ewma`] — exponentially weighted moving averages and rate estimators
//!   used by the adaptive controller.
//! * [`sync`] — lock-free read-mostly registries ([`SlotTable`],
//!   [`BitTable`], [`ArcCell`]) backing the parcel send fast path, the
//!   SPSC byte ring ([`SpscProducer`]/[`SpscConsumer`]) underpinning the
//!   shared-memory transport, and the [`EventCount`] a locality's idle
//!   workers and blocked waiters park on ([`WakeSource`],
//!   [`park_until`]).
//! * [`poll`] — the readiness [`Poller`] (epoll shim on Linux, portable
//!   fallback elsewhere) and vectored-read helpers behind the
//!   event-driven TCP transport's pump thread.

#![warn(missing_docs)]

pub mod complex;
pub mod ewma;
pub mod hist;
pub mod ids;
pub mod poll;
pub mod stats;
pub mod sync;
pub mod time;
pub mod timer;

pub use complex::Complex64;
pub use ewma::Ewma;
pub use hist::{Histogram, LogHistogram};
pub use ids::IdAllocator;
pub use poll::{BellRinger, Doorbell, Event, Interest, Poller};
pub use stats::{pearson, OnlineStats};
pub use sync::{
    heap_ring, park_until, ArcCell, BitTable, EventCount, RingMemory, RingPop, RingPush, SlotTable,
    SpscConsumer, SpscProducer, WaitKey, WakeSource, RING_HDR_BYTES,
};
pub use time::{busy_charge, spin_sleep, Stopwatch};
pub use timer::{TimerHandle, TimerService};
