//! # rpx-net
//!
//! The **network layer**: a pluggable [`Transport`] abstraction with
//! backends standing in for the paper's cluster interconnect (ROSTAM's
//! Marvin nodes with Intel MPI).
//!
//! ## The transport seam
//!
//! Everything above this crate sends through `Arc<dyn TransportPort>`;
//! which backend sits behind the trait is a [`TransportKind`] builder
//! knob:
//!
//! * [`SimTransport`] (default) — the in-process simulated fabric. The
//!   phenomenon the paper studies — per-message software overhead
//!   dominating fine-grained communication, and coalescing amortising
//!   it — does not require a physical wire, only that:
//!
//!   1. every message costs a fixed per-message software overhead on the
//!      sending and receiving CPUs (driver/MPI stack work),
//!   2. bytes cost transfer time proportional to size (bandwidth),
//!   3. delivery happens after a propagation latency,
//!   4. those CPU costs are paid *by scheduler threads as background
//!      work*, where HPX pays them.
//!
//!   [`LinkModel`] parameterises (1)–(3); the fabric charges the CPU
//!   costs in real time (busy-spinning the pumping thread) so they appear
//!   in the `/threads/background-work` account exactly like HPX's
//!   parcelport progress functions. The default model (≈20 µs per message
//!   send, ≈15 µs receive, 1 GB/s, 10 µs latency) is in the range of MPI
//!   per-message costs on the paper's 2013-era cluster.
//!
//! * [`TcpTransport`] — real loopback-TCP sockets with length-prefixed
//!   [`frame`]s: genuine per-message syscall overhead instead of a
//!   modelled one, used to validate that conclusions drawn on the sim
//!   carry over to a real kernel network path; with [`ShmTuning`],
//!   same-host destinations are reached through shared-memory rings.
//!
//! The backends share one port front end (queueing, statistics,
//! quiescence gauges, fault injection) and differ only in the wire
//! under it. All are pumped by [`TransportPort::pump_send`] /
//! [`TransportPort::pump_recv`], which the runtime registers as scheduler
//! background work — so Eq. 4 network overhead measures them identically.

#![warn(missing_docs)]

pub mod bootstrap;
pub mod fabric;
pub mod fault;
pub mod frame;
pub mod message;
pub mod model;
mod port;
pub mod reliability;
pub mod shm;
pub mod tcp;
pub mod transport;

pub use bootstrap::{
    BootstrapError, BootstrapMode, HostId, TcpBootstrap, Topology, BOOTSTRAP_MAGIC,
    BOOTSTRAP_VERSION,
};
pub use fabric::SimTransport;
pub use fault::FaultPlan;
pub use frame::{
    corrupt_frame, decode_frame, decode_frame_in_place, encode_frame, frame_len, wire_len,
    FrameError, FrameView, CLASS_MASK, FRAME_HEADER_LEN, MAX_FRAME_BODY, SEQ_FLAG, SEQ_OVERHEAD,
};
pub use message::{DeliveryClass, Message, MessageKind};
pub use model::LinkModel;
pub use port::PortStats;
pub use reliability::{DeliveryError, ReliabilityConfig, ReliablePort, ReliableTransport};
pub use shm::{ShmNamespace, ShmSegment, ShmTuning};
pub use tcp::TcpTransport;
pub use transport::{NotifyFn, ReceiveHandler, Transport, TransportKind, TransportPort};
