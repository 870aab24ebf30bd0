//! # rpx-threading
//!
//! The RPX **threading subsystem**: a work-stealing scheduler of
//! lightweight tasks (the analogue of HPX threads) with two features the
//! paper's methodology depends on:
//!
//! 1. **Fine-grained time accounting.** Every worker classifies its time
//!    into task execution, task management, background work and idling.
//!    These feed the paper's metrics directly:
//!    * Eq. 1 task duration `t_d = Σ t_func`,
//!    * Eq. 2 task overhead `t_o = (Σ t_func − Σ t_exec) / n_t`,
//!    * Eq. 3 background-work duration `t_bd = Σ t_background`,
//!    * Eq. 4 network overhead `n_oh = Σ t_background / Σ t_func`,
//!
//!    all exposed as `/threads/*` performance counters ([`counters`]).
//!
//! 2. **Background work hooks.** HPX runs its parcel-port progress
//!    functions ("background work": packaging parcels into messages,
//!    serialization, handshaking, locality resolution — §III-D) on
//!    scheduler threads between tasks. [`Scheduler`] reproduces that: any
//!    number of [`BackgroundWork`] items can be registered and are polled
//!    by every worker between tasks and while idle, with their runtime
//!    charged to the background-work account.

#![warn(missing_docs)]

pub mod counters;
pub mod scheduler;
pub mod stats;
pub mod task;

pub use counters::register_thread_counters;
pub use scheduler::{BackgroundWork, Scheduler, SchedulerConfig};
pub use stats::{StatsSnapshot, ThreadStats};
pub use task::Task;
