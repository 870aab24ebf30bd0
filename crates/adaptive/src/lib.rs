//! # rpx-adaptive
//!
//! **Adaptive coalescing control** — the realization of the paper's stated
//! goal ("Our aim is to eventually use these metrics to tune, at runtime,
//! parameters relating to active message coalescing", Abstract; §VI
//! future work). The paper itself stops at demonstrating that the
//! network-overhead counter reacts to parameter changes in real time
//! (Fig. 9); this crate closes the loop.
//!
//! Two controllers are provided:
//!
//! * [`OverheadController`] — the paper's envisioned design: watches the
//!   *instantaneous* `/threads/background-overhead` metric (Eq. 4 deltas)
//!   and the parcel arrival-rate counters, hill-climbs `nparcels` on a
//!   power-of-two ladder, and re-starts its search when it detects a
//!   communication *phase change* (a large shift in arrival rate). It
//!   needs no iteration structure in the application.
//!   [`PerDestController`] is the same steering engine handed the
//!   destinations of a per-destination coalescer instead of one knob.
//! * [`PicsTuner`] — the Charm++/PICS-style baseline (\[6\],\[7\] in the
//!   paper): per application iteration it times a candidate configuration
//!   and converges by comparing iteration times. This is the approach the
//!   paper criticises as "only suited for iterative applications"; we
//!   implement it as the comparison baseline.
//!
//! The shared search machinery lives in [`search`].

#![warn(missing_docs)]

pub mod controller;
pub mod pics;
pub mod search;

pub use controller::{AdaptiveConfig, DestDecision, OverheadController, PerDestController};
pub use pics::PicsTuner;
pub use search::{HillClimber, Ladder};
