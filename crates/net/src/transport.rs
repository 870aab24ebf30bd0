//! The transport abstraction: the seam between the parcel layer and
//! whatever moves bytes between localities.
//!
//! Everything above `rpx-net` talks to a [`TransportPort`] trait object.
//! The raw backends share one port front end (`port.rs`: outbound queue,
//! statistics, quiescence gauges, fault injection) and differ only in
//! the wire under it:
//!
//! * [`crate::SimTransport`] — the in-process simulated fabric charging
//!   [`LinkModel`] costs in real CPU time (the reproduction's default),
//! * [`crate::TcpTransport`] — real loopback TCP sockets with
//!   length-prefixed frames and genuine per-message syscall overhead,
//!   multiplexed by one event-loop pump thread, optionally with
//!   shared-memory rings towards same-host destinations ([`ShmTuning`]).
//!
//! [`crate::ReliablePort`] decorates either with acknowledged delivery.
//! All are pumped by scheduler background work ([`TransportPort::pump_send`]
//! / [`TransportPort::pump_recv`]), so their progress cost lands in the
//! `/threads/background-work` account and the paper's Eq. 4 network
//! overhead measures them identically. [`TransportKind`] is the builder
//! knob the runtime exposes.

use std::sync::Arc;

use crate::bootstrap::TcpBootstrap;
use crate::fabric::SimTransport;
use crate::fault::FaultPlan;
use crate::message::Message;
use crate::model::LinkModel;
use crate::port::PortStats;
use crate::shm::ShmTuning;
use crate::tcp::TcpTransport;

/// Handler invoked (from pump threads) for every delivered message.
pub type ReceiveHandler = Arc<dyn Fn(Message) + Send + Sync>;

/// Wake-up hook called when traffic lands on a port's queues.
pub type NotifyFn = Arc<dyn Fn() + Send + Sync>;

/// A network connecting the localities of one cluster.
///
/// Object-safe: the runtime holds an `Arc<dyn Transport>` and hands each
/// locality its [`TransportPort`].
pub trait Transport: Send + Sync {
    /// Number of localities this transport connects.
    fn localities(&self) -> u32;

    /// The endpoint of `locality`.
    ///
    /// # Panics
    /// Panics if `locality` is out of range.
    fn port(&self, locality: u32) -> Arc<dyn TransportPort>;
}

/// One locality's endpoint on a [`Transport`].
///
/// ## Contract
///
/// * [`send`](TransportPort::send) is cheap and non-blocking: it enqueues
///   and wakes the notify hook; the real transmission work happens in
///   [`pump_send`](TransportPort::pump_send), which background workers
///   call repeatedly.
/// * [`pump_recv`](TransportPort::pump_recv) delivers due messages to the
///   installed receive handler on the *calling* thread — receive-side
///   work is charged to whoever pumps, exactly like HPX parcelport
///   progress functions.
/// * Both pumps are safe to call concurrently from many threads and
///   process a bounded batch per call.
/// * A frame that arrives corrupted must increment
///   [`PortStats::decode_failures`] and be dropped — never delivered,
///   never fatal.
/// * Backlog/processing accessors must be conservative: a quiescence
///   check that observes all of them zero may conclude no message is in
///   flight anywhere in the transport.
pub trait TransportPort: Send + Sync {
    /// This port's locality id.
    fn locality(&self) -> u32;

    /// Traffic statistics (bytes counters measure bytes on the wire,
    /// i.e. frame lengths, so backends are comparable).
    fn stats(&self) -> &PortStats;

    /// Enqueue a message for transmission.
    ///
    /// # Panics
    /// Panics if `message.src` is not this port or `message.dst` is out
    /// of range.
    fn send(&self, message: Message);

    /// Drive outbound progress. Returns `true` if any work was done.
    fn pump_send(&self) -> bool;

    /// Deliver received messages to the handler. Returns `true` if any
    /// message was delivered.
    fn pump_recv(&self) -> bool;

    /// One full pump pass (send then receive).
    fn pump(&self) -> bool {
        let s = self.pump_send();
        let r = self.pump_recv();
        s || r
    }

    /// Install the handler invoked for every delivered message.
    fn set_receiver(&self, handler: ReceiveHandler);

    /// Install a wake-up hook called whenever traffic lands on this
    /// port's queues.
    fn set_notify(&self, notify: NotifyFn);

    /// Install (or clear) a failure-injection plan for this port's
    /// outbound messages (drops/corruption happen after send-side costs,
    /// like a wire fault).
    fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>);

    /// Messages queued but not yet put on the wire.
    fn outbound_backlog(&self) -> usize;

    /// Messages on the wire towards this port, not yet delivered.
    fn inflight_backlog(&self) -> usize;

    /// Messages currently mid-pump on this port.
    fn processing(&self) -> usize;
}

/// Which transport backend a cluster is built on — the builder knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// The in-process simulated fabric, charging the given [`LinkModel`]
    /// costs in real CPU time on pump threads.
    Sim(LinkModel),
    /// Real loopback TCP sockets (`127.0.0.1`): length-prefixed frames
    /// multiplexed by one event-loop pump thread, vectored I/O,
    /// zero-copy frame decode.
    TcpLoopback,
    /// The TCP transport with the shared-memory backend enabled:
    /// same-host destinations are reached through SPSC byte rings in
    /// shared segments (heap in all-in-one mode, mmap'd `/dev/shm`
    /// files across processes) with doorbell wakeups; remote hosts and
    /// oversize frames ride TCP.
    Shm(ShmTuning),
}

impl Default for TransportKind {
    fn default() -> Self {
        TransportKind::Sim(LinkModel::cluster())
    }
}

impl TransportKind {
    /// Build the transport for `localities` localities, all hosted by
    /// this process.
    ///
    /// # Errors
    /// Only the wire backends can fail (socket binding).
    pub fn build(&self, localities: u32) -> std::io::Result<Arc<dyn Transport>> {
        match self {
            TransportKind::Sim(model) => Ok(SimTransport::new(localities, *model)),
            wire => wire.build_over(TcpBootstrap::in_process(localities)?),
        }
    }

    /// Build a wire transport over a completed boot handshake (the
    /// multi-process path: `bootstrap` names every rank and holds the
    /// listeners of the ranks hosted here).
    ///
    /// # Errors
    /// `InvalidInput` for [`TransportKind::Sim`], which has no wire to
    /// boot over; otherwise whatever [`TcpTransport::from_bootstrap`]
    /// reports.
    pub fn build_over(&self, bootstrap: TcpBootstrap) -> std::io::Result<Arc<dyn Transport>> {
        let shm = match self {
            TransportKind::Sim(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "the simulated fabric has no wire to boot over",
                ))
            }
            TransportKind::TcpLoopback => None,
            TransportKind::Shm(tuning) => Some(*tuning),
        };
        Ok(TcpTransport::from_bootstrap(bootstrap, shm)?)
    }

    /// The link cost model, if this is the simulated backend.
    pub fn link_model(&self) -> Option<LinkModel> {
        match self {
            TransportKind::Sim(model) => Some(*model),
            TransportKind::TcpLoopback | TransportKind::Shm(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_builds_the_right_backend() {
        let sim = TransportKind::Sim(LinkModel::zero()).build(2).unwrap();
        assert_eq!(sim.localities(), 2);
        assert_eq!(sim.port(1).locality(), 1);

        let tcp = TransportKind::TcpLoopback.build(2).unwrap();
        assert_eq!(tcp.localities(), 2);
        assert_eq!(tcp.port(0).locality(), 0);

        let shm = TransportKind::Shm(ShmTuning::default()).build(2).unwrap();
        assert_eq!(shm.localities(), 2);
        assert_eq!(shm.port(0).locality(), 0);
    }

    #[test]
    fn kind_reports_its_link_model() {
        assert_eq!(
            TransportKind::Sim(LinkModel::zero()).link_model(),
            Some(LinkModel::zero())
        );
        assert_eq!(TransportKind::TcpLoopback.link_model(), None);
        assert_eq!(TransportKind::Shm(ShmTuning::default()).link_model(), None);
        assert_eq!(
            TransportKind::default().link_model(),
            Some(LinkModel::cluster())
        );
    }
}
