//! The multi-process control plane: registration-hash verification and
//! barriers, carried as [`rpx_net::MessageKind::Control`] messages over
//! the same wire as parcels.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;

use rpx_counters::{CallbackCounter, CounterRegistry, CounterValue};
use rpx_parcel::ParcelPort;

use super::{poll_until, Runtime};
use crate::error::RuntimeError;

// Control-plane payload tags (first byte of a `MessageKind::Control`
// payload; all integers little-endian).
/// `[tag][rank u32][hash u64]` — the sender's registration-order hash.
const CTRL_REGHASH: u8 = 1;
/// `[tag][rank u32][gen u64]` — the sender arrived at barrier `gen`.
const CTRL_BARRIER_ARRIVE: u8 = 2;
/// `[tag][gen u64]` — rank 0 releases barrier `gen`.
const CTRL_BARRIER_RELEASE: u8 = 3;

/// How often a control wait re-checks its condition.
const POLL_PERIOD: Duration = Duration::from_micros(500);

/// Cross-rank control state: registration hashes received from peers,
/// barrier arrivals (rank 0) and releases (other ranks). Written by the
/// parcel port's control handler on the receive path; polled by
/// [`Runtime::verify_registration`] and [`Runtime::barrier`].
#[derive(Default)]
pub(super) struct ControlPlane {
    peer_hashes: Mutex<HashMap<u32, u64>>,
    arrivals: Mutex<HashMap<u64, HashSet<u32>>>,
    released: Mutex<HashSet<u64>>,
    next_gen: AtomicU64,
    peers_connected: AtomicU64,
    /// Our own `(rank, hash)` once this rank has entered
    /// `verify_registration`. Receiving a reply-requested announcement
    /// after this point answers with the recorded hash, so a peer whose
    /// early announcements were all given up on by the reliable layer
    /// (boot skew) still completes even though we stopped broadcasting.
    announced: Mutex<Option<(u32, u64)>>,
}

impl ControlPlane {
    /// Route `port`'s control traffic into this plane, and export how
    /// many peers have checked in as `/process/peers-connected`.
    ///
    /// Control traffic is parsed on the receive path and parked in shared
    /// state that `verify_registration`/`barrier` poll. This MUST run
    /// before the port's pump starts: a control frame pumped while the
    /// handler is absent is dropped after the reliability layer has
    /// already acked it, so it is never retransmitted and the peer's
    /// registration hash is lost.
    pub(super) fn attach(self: &Arc<Self>, port: &Arc<ParcelPort>, registry: &CounterRegistry) {
        let cp = Arc::clone(self);
        // Weak: the port owns this handler, so a strong capture would
        // cycle port → handler → port.
        let weak_port = Arc::downgrade(port);
        port.set_control_handler(move |msg| {
            if let Some((dst, reply)) = cp.on_message(&msg.payload) {
                if let Some(p) = weak_port.upgrade() {
                    p.send_control(dst, reply);
                }
            }
        });
        let cp = Arc::clone(self);
        registry.register_or_replace(
            "/process/peers-connected",
            CallbackCounter::new(move || {
                CounterValue::Int(cp.peers_connected.load(Ordering::Acquire) as i64)
            }),
        );
    }

    /// Parse one control payload. Unknown tags and short payloads are
    /// ignored (forward compatibility; never panic on wire input).
    ///
    /// Returns `Some((dst, payload))` when the message calls for a
    /// direct control reply (a registration announcement with the
    /// want-reply flag set, once we have announced ourselves). Replies
    /// never set want-reply, so reply traffic cannot echo.
    fn on_message(&self, payload: &[u8]) -> Option<(u32, Bytes)> {
        let le_u32 = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap());
        let le_u64 = |b: &[u8]| u64::from_le_bytes(b.try_into().unwrap());
        match payload.first() {
            Some(&CTRL_REGHASH) if payload.len() >= 13 => {
                let rank = le_u32(&payload[1..5]);
                let hash = le_u64(&payload[5..13]);
                let want_reply = payload.get(13).is_some_and(|&b| b != 0);
                {
                    let mut hashes = self.peer_hashes.lock();
                    hashes.insert(rank, hash);
                    self.peers_connected
                        .store(hashes.len() as u64, Ordering::Release);
                }
                if want_reply {
                    if let Some((my_rank, my_hash)) = *self.announced.lock() {
                        return Some((rank, reghash_payload(my_rank, my_hash, false)));
                    }
                }
                None
            }
            Some(&CTRL_BARRIER_ARRIVE) if payload.len() >= 13 => {
                let rank = le_u32(&payload[1..5]);
                let gen = le_u64(&payload[5..13]);
                self.arrivals.lock().entry(gen).or_default().insert(rank);
                None
            }
            Some(&CTRL_BARRIER_RELEASE) if payload.len() >= 9 => {
                let gen = le_u64(&payload[1..9]);
                self.released.lock().insert(gen);
                None
            }
            _ => None,
        }
    }
}

fn reghash_payload(rank: u32, hash: u64, want_reply: bool) -> Bytes {
    let mut b = Vec::with_capacity(14);
    b.push(CTRL_REGHASH);
    b.extend_from_slice(&rank.to_le_bytes());
    b.extend_from_slice(&hash.to_le_bytes());
    b.push(u8::from(want_reply));
    Bytes::from(b)
}

fn barrier_arrive_payload(rank: u32, gen: u64) -> Bytes {
    let mut b = Vec::with_capacity(13);
    b.push(CTRL_BARRIER_ARRIVE);
    b.extend_from_slice(&rank.to_le_bytes());
    b.extend_from_slice(&gen.to_le_bytes());
    Bytes::from(b)
}

fn barrier_release_payload(gen: u64) -> Bytes {
    let mut b = Vec::with_capacity(9);
    b.push(CTRL_BARRIER_RELEASE);
    b.extend_from_slice(&gen.to_le_bytes());
    Bytes::from(b)
}

impl Runtime {
    /// Verify that every process in the cluster registered the same
    /// actions in the same order, so wire action ids dispatch to the
    /// same handlers everywhere.
    ///
    /// Call once after all [`Runtime::action`] registrations and before
    /// remote traffic. In the default all-in-one mode this compares the
    /// mirrored per-locality registries directly. In multi-process mode
    /// each rank broadcasts its [`rpx_parcel::ActionRegistry::order_hash`]
    /// over the control plane and waits (up to `timeout`) for all peers;
    /// any disagreement is [`RuntimeError::RegistrationMismatch`]. Since
    /// the exchange is all-to-all, a successful return doubles as a boot
    /// barrier: every peer is up and reachable.
    pub fn verify_registration(&self, timeout: Duration) -> Result<(), RuntimeError> {
        let ours = self.localities[0].actions.order_hash();
        let Some(topo) = &self.config.topology else {
            for l in &self.localities {
                let theirs = l.actions.order_hash();
                if theirs != ours {
                    return Err(RuntimeError::RegistrationMismatch {
                        peer: l.id,
                        ours,
                        theirs,
                    });
                }
            }
            self.control.peers_connected.store(
                self.num_localities.saturating_sub(1) as u64,
                Ordering::Release,
            );
            return Ok(());
        };
        let port = &self.local(topo.rank).port;
        let n = self.num_localities;
        let deadline = Instant::now() + timeout;
        // Record our hash so the control handler can answer peers that
        // are still waiting after we complete: without this, a peer all
        // of whose early announcements were dropped by the reliable
        // layer's give-up would hang once we stop broadcasting below
        // (asymmetric completion).
        *self.control.announced.lock() = Some((topo.rank, ours));
        // Re-broadcast while polling: with no rendezvous round-trip
        // (address-book boot) a peer may not have bound its listener yet,
        // and the reliable layer gives up on undeliverable frames long
        // before `timeout`. The exchange is idempotent, so resending
        // until every peer has answered costs nothing and rides out any
        // boot skew up to the full control budget.
        let mut next_broadcast = Instant::now();
        poll_until(deadline, POLL_PERIOD, || {
            if Instant::now() >= next_broadcast {
                for peer in (0..n).filter(|&peer| peer != topo.rank) {
                    port.send_control(peer, reghash_payload(topo.rank, ours, true));
                }
                next_broadcast = Instant::now() + Duration::from_millis(100);
            }
            let hashes = self.control.peer_hashes.lock();
            (hashes.len() as u32 == n - 1).then(|| {
                match hashes.iter().find(|&(_, &theirs)| theirs != ours) {
                    Some((&peer, &theirs)) => {
                        Err(RuntimeError::RegistrationMismatch { peer, ours, theirs })
                    }
                    None => Ok(()),
                }
            })
        })
        .unwrap_or(Err(RuntimeError::ControlTimeout(
            "peer registration hashes",
        )))
    }

    /// A cluster-wide barrier over the control plane: returns once every
    /// rank has entered the same (implicitly numbered) barrier.
    ///
    /// Ranks must call `barrier` the same number of times in the same
    /// order — generations are counted locally, exactly like MPI
    /// communicator collectives. Rank 0 collects arrivals and releases
    /// the others. In the default all-in-one mode (and for single-rank
    /// clusters) this is a no-op. Call from a driver thread, not from
    /// inside a single-worker scheduler task.
    pub fn barrier(&self, timeout: Duration) -> Result<(), RuntimeError> {
        let Some(topo) = &self.config.topology else {
            return Ok(());
        };
        let n = self.num_localities;
        if n == 1 {
            return Ok(());
        }
        let control = &self.control;
        let gen = control.next_gen.fetch_add(1, Ordering::SeqCst);
        let port = &self.local(topo.rank).port;
        let deadline = Instant::now() + timeout;
        if topo.rank == 0 {
            poll_until(deadline, POLL_PERIOD, || {
                let arrivals = control.arrivals.lock();
                let arrived = arrivals.get(&gen).map_or(0, |s| s.len() as u32);
                (arrived == n - 1).then_some(())
            })
            .ok_or(RuntimeError::ControlTimeout("barrier arrivals"))?;
            control.arrivals.lock().remove(&gen);
            for peer in 1..n {
                port.send_control(peer, barrier_release_payload(gen));
            }
        } else {
            port.send_control(0, barrier_arrive_payload(topo.rank, gen));
            poll_until(deadline, POLL_PERIOD, || {
                control.released.lock().remove(&gen).then_some(())
            })
            .ok_or(RuntimeError::ControlTimeout("barrier release"))?;
        }
        Ok(())
    }
}
