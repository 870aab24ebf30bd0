//! Stress test for the lock-free interceptor slot table: concurrent
//! `set_interceptor` / `clear_interceptor` racing `send_parcel` from four
//! threads must never drop, duplicate, or misroute a parcel.
//!
//! Every parcel either reaches its destination's action handler (through
//! egress → fabric → receive) or is held by the interceptor that was
//! installed at the instant it was routed; the test drains both sides and
//! checks exact conservation of sender-chosen uids, and that per-locality
//! receive counts match the destinations the uids encode.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use rpx_agas::Gid;
use rpx_net::{LinkModel, SimTransport, Transport};
use rpx_parcel::{ActionId, ActionRegistry, Parcel, ParcelInterceptor, ParcelPort, TaskSpawner};
use rpx_serialize::{from_bytes, to_bytes};

/// An interceptor that simply holds everything submitted to it.
struct Capture {
    held: Mutex<Vec<Parcel>>,
}

impl ParcelInterceptor for Capture {
    fn submit(&self, parcel: Parcel) {
        self.held.lock().push(parcel);
    }
    fn flush(&self) {}
}

fn inline_spawner() -> TaskSpawner {
    Arc::new(|f| f())
}

/// Payload word: sender-chosen uid in the high bits, intended destination
/// locality in the low byte.
fn word(uid: u64, dst: u32) -> u64 {
    (uid << 8) | u64::from(dst)
}

fn parcel(dst: u32, action: ActionId, uid: u64) -> Parcel {
    Parcel {
        id: 0,
        src_locality: 0,
        dest_locality: dst,
        dest_object: Gid::INVALID,
        action,
        args: to_bytes(&word(uid, dst)),
        continuation: Gid::INVALID,
    }
}

#[test]
fn interceptor_churn_never_loses_or_duplicates_parcels() {
    const SENDERS: u64 = 4;
    const PER_SENDER: u64 = 2_000;
    const TOTAL: u64 = SENDERS * PER_SENDER;

    let fabric = SimTransport::new(3, LinkModel::zero());
    let actions = ActionRegistry::new();
    let delivered: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let act = {
        let delivered = Arc::clone(&delivered);
        actions.register(
            "tally",
            Arc::new(move |args: Bytes| {
                delivered.lock().push(from_bytes(args)?);
                Ok(Bytes::new())
            }),
        )
    };

    let p0 = ParcelPort::new(0, fabric.port(0), Arc::clone(&actions));
    let p1 = ParcelPort::new(1, fabric.port(1), Arc::clone(&actions));
    let p2 = ParcelPort::new(2, fabric.port(2), Arc::clone(&actions));
    for p in [&p0, &p1, &p2] {
        p.set_spawner(inline_spawner());
    }

    let cap = Arc::new(Capture {
        held: Mutex::new(Vec::new()),
    });
    let stop = Arc::new(AtomicBool::new(false));
    let sent = Arc::new(AtomicU64::new(0));

    std::thread::scope(|s| {
        // Toggler: installs and removes the interceptor as fast as it can,
        // so senders race against both states and the transitions.
        {
            let p0 = Arc::clone(&p0);
            let cap = Arc::clone(&cap);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    p0.set_interceptor(act, Arc::clone(&cap) as Arc<dyn ParcelInterceptor>);
                    p0.clear_interceptor(act);
                }
            });
        }
        // Pumper: keeps egress encoding and the fabric moving while the
        // senders run, so the race also covers concurrent drains.
        {
            let p0 = Arc::clone(&p0);
            let p1 = Arc::clone(&p1);
            let p2 = Arc::clone(&p2);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    p0.pump();
                    p1.pump();
                    p2.pump();
                }
            });
        }
        // Four sender threads with disjoint uid ranges, alternating the
        // destination between localities 1 and 2.
        for t in 0..SENDERS {
            let p0 = Arc::clone(&p0);
            let sent = Arc::clone(&sent);
            s.spawn(move || {
                for i in 0..PER_SENDER {
                    let uid = t * PER_SENDER + i;
                    p0.send_parcel(parcel(1 + (uid % 2) as u32, act, uid));
                    sent.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        let deadline = Instant::now() + Duration::from_secs(30);
        while sent.load(Ordering::Relaxed) < TOTAL && Instant::now() < deadline {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(sent.load(Ordering::Relaxed), TOTAL, "senders stalled");

    // Drain: whatever the interceptor holds stays held (Capture::flush is
    // a no-op); everything else must reach its destination handler.
    p0.clear_interceptor(act);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        p0.pump();
        p1.pump();
        p2.pump();
        let captured = cap.held.lock().len() as u64;
        let delivered_n = delivered.lock().len() as u64;
        if captured + delivered_n >= TOTAL {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "drain timed out: captured={captured} delivered={delivered_n} total={TOTAL}"
        );
    }

    // Conservation: every uid accounted for exactly once across capture
    // and delivery — no drops, no duplicates.
    let mut seen = HashSet::new();
    for p in cap.held.lock().iter() {
        let w: u64 = from_bytes(p.args.clone()).unwrap();
        assert!(seen.insert(w >> 8), "uid {} duplicated (captured)", w >> 8);
    }
    let delivered = delivered.lock();
    for &w in delivered.iter() {
        assert!(seen.insert(w >> 8), "uid {} duplicated (delivered)", w >> 8);
    }
    assert_eq!(seen.len() as u64, TOTAL, "parcels lost");

    // Misrouting: each locality must have received exactly the parcels
    // whose payload names it as the destination.
    for (port, loc) in [(&p1, 1u64), (&p2, 2u64)] {
        let expected = delivered.iter().filter(|&&w| w & 0xff == loc).count() as u64;
        assert_eq!(
            port.stats().parcels_received.load(Ordering::Relaxed),
            expected,
            "locality {loc} received a parcel addressed elsewhere"
        );
    }
}
