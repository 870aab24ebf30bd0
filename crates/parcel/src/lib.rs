//! # rpx-parcel
//!
//! The **parcel subsystem**: RPX's active-message layer.
//!
//! A parcel is HPX's form of active message (§II-A, Fig. 3 of the paper):
//! it names a *destination*, an *action* (the function to run there), the
//! *arguments*, and an optional *continuation* (work triggered by the
//! result — in RPX, completion of the caller's future). This crate
//! provides:
//!
//! * [`Parcel`] — the wire-encodable active message ([`parcel`]),
//! * [`ActionRegistry`] — named, registered remote actions dispatching to
//!   byte-level handlers ([`action`]),
//! * [`ParcelPort`] — the per-locality send/receive engine gluing parcels
//!   to the network fabric ([`port`]). The send path is *interceptable*
//!   per action, which is exactly where the coalescing plug-in of
//!   `rpx-coalesce` hooks in — mirroring how the paper implements
//!   coalescing as an HPX plug-in rather than core functionality.
//!
//! Serialization of parcels into messages and decoding of received
//! messages back into tasks happens inside the port's pump, which the
//! runtime registers as scheduler *background work* — so the cost of this
//! processing lands in `/threads/background-work` (Eq. 3), the quantity
//! the paper's network-overhead metric is built on.

#![warn(missing_docs)]

pub mod action;
pub mod batch;
mod class;
pub mod egress;
pub mod parcel;
pub mod port;

pub use action::{ActionId, ActionRegistry, RawHandler};
pub use batch::{BufferPool, ParcelBatch};
pub use egress::EgressQueue;
pub use parcel::Parcel;
pub use port::{
    BatchTaskSpawner, ParcelInterceptor, ParcelPort, ParcelPortConfig, ParcelPortStats, SendPath,
    TaskFn, TaskSpawner,
};
pub use rpx_net::DeliveryClass;
