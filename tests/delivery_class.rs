//! Per-class delivery semantics across all three backends (Sim, TCP,
//! Shm), under fault injection:
//!
//! * **Lossless** — exactly-once through the reliability sublayer, even
//!   under the full chaos plan (drop + corrupt + duplicate + reorder).
//! * **BestEffort** — at-most-once: drops are shed, never repaired, and
//!   `/network/best-effort-dropped` accounts for the delivery gap
//!   exactly. Flooding past the backlog bound must shed, not stall
//!   quiescence.
//! * **Coalesce** — the per-(destination, action) newest-wins mailbox
//!   delivers the final value, suppresses superseded ones, and the
//!   receive-side monotone filter discards stale values under
//!   drop/duplicate/reorder.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use rpx::{
    CoalescingParams, CounterValue, DeliveryClass, ReliabilityConfig, Runtime, RuntimeConfig,
    ShmTuning, TransportKind,
};
use rpx_net::FaultPlan;

fn backends() -> Vec<(&'static str, TransportKind)> {
    vec![
        ("sim", TransportKind::default()),
        ("tcp", TransportKind::TcpLoopback),
        ("shm", TransportKind::Shm(ShmTuning::default())),
    ]
}

fn config(kind: TransportKind, reliable: bool) -> RuntimeConfig {
    let mut c = RuntimeConfig::small_test();
    c.transport = kind;
    if reliable {
        c.reliability = Some(ReliabilityConfig {
            rto_initial: Duration::from_millis(1),
            ..Default::default()
        });
    }
    c
}

fn int_counter(rt: &Runtime, locality: u32, path: &str) -> i64 {
    match rt.query(locality, path) {
        Ok(CounterValue::Int(v)) => v,
        other => panic!("counter {path} on locality {locality}: {other:?}"),
    }
}

/// A fault mix whose effects are attributable per delivery class: drops,
/// duplicates and reordering, but no corruption — a corrupted frame fails
/// its checksum before the class bits can be trusted, so it cannot be
/// charged to any class's account.
fn classed_chaos() -> FaultPlan {
    let mut plan = FaultPlan::default();
    plan.drop_every = Some(7);
    plan.duplicate_every = Some(5);
    plan.reorder_window = Some(9);
    plan
}

/// Drops and duplicates only — the mix under which BestEffort's
/// `delivered + dropped == sent` invariant is exact. Reordering makes
/// the drop counter conservative instead of exact (a duplicate displaced
/// past the 64-wide dedup window is discarded as a stale drop even
/// though its twin already ran), so the accounting-equality test
/// excludes it; reorder semantics are covered by the Lossless and
/// Coalesce suites.
fn drop_and_duplicate() -> FaultPlan {
    let mut plan = FaultPlan::default();
    plan.drop_every = Some(7);
    plan.duplicate_every = Some(5);
    plan
}

#[test]
fn lossless_is_exactly_once_under_chaos_on_every_backend() {
    for (name, kind) in backends() {
        let rt = Runtime::new(config(kind, true));
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let act = rt.action("dc::lossless").register(move |(): ()| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        rt.inject_faults(0, Some(Arc::new(FaultPlan::chaos())));
        rt.run_on(0, move |ctx| {
            for _ in 0..200 {
                ctx.apply(&act, 1, ());
            }
        });
        assert!(
            rt.wait_quiescent(Duration::from_secs(30)),
            "[{name}] never settled"
        );
        assert_eq!(
            hits.load(Ordering::SeqCst),
            200,
            "[{name}] lost or duplicated lossless work"
        );
        assert_eq!(
            int_counter(&rt, 0, "/network/delivery-failures"),
            0,
            "[{name}] lossless traffic abandoned"
        );
        rt.shutdown();
    }
}

#[test]
fn best_effort_is_at_most_once_and_accounts_for_the_gap() {
    for (name, kind) in backends() {
        let rt = Runtime::new(config(kind, true));
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let act = rt
            .action("dc::be")
            .delivery(DeliveryClass::BestEffort)
            .register(move |(): ()| {
                h.fetch_add(1, Ordering::SeqCst);
            });
        rt.inject_faults(0, Some(Arc::new(drop_and_duplicate())));
        rt.run_on(0, move |ctx| {
            for _ in 0..280 {
                ctx.apply(&act, 1, ());
            }
        });
        assert!(
            rt.wait_quiescent(Duration::from_secs(30)),
            "[{name}] best-effort traffic stalled quiescence"
        );
        let delivered = hits.load(Ordering::SeqCst);
        // Drops are charged where they happen: wire drops and backlog
        // shedding on the sender, stale reorder casualties on the
        // receiver — the invariant sums both endpoints.
        let dropped = (int_counter(&rt, 0, "/network/best-effort-dropped")
            + int_counter(&rt, 1, "/network/best-effort-dropped")) as u64;
        assert!(dropped > 0, "[{name}] the wire never dropped a frame");
        assert!(delivered < 280, "[{name}] drops were repaired");
        assert_eq!(
            delivered + dropped,
            280,
            "[{name}] best-effort accounting gap: {delivered} delivered + {dropped} dropped"
        );
        // At-most-once also means wire duplicates must not re-execute.
        assert!(
            int_counter(&rt, 1, "/network/retransmits") == 0
                || int_counter(&rt, 0, "/network/retransmits") == 0,
            "[{name}] best-effort frames were retransmitted"
        );
        rt.shutdown();
    }
}

/// `/network/best-effort-dropped` counts parcels at every shed site: a
/// wire drop of a coalesced BestEffort message books every parcel the
/// message carried, not one.
#[test]
fn best_effort_wire_drop_of_a_coalesced_message_books_its_parcels() {
    const SENT: u64 = 240;
    for (name, kind) in backends() {
        let rt = Runtime::new(config(kind, true));
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let act = rt
            .action("dc::be-batched")
            .delivery(DeliveryClass::BestEffort)
            .register(move |(): ()| {
                h.fetch_add(1, Ordering::SeqCst);
            });
        let _control = rt
            .enable_coalescing(
                "dc::be-batched",
                CoalescingParams::new(4, Duration::from_millis(2)),
            )
            .unwrap();
        rt.inject_faults(0, Some(Arc::new(FaultPlan::drop_every(3))));
        rt.run_on(0, move |ctx| {
            for _ in 0..SENT {
                ctx.apply(&act, 1, ());
            }
        });
        assert!(
            rt.wait_quiescent(Duration::from_secs(30)),
            "[{name}] batched best-effort traffic stalled quiescence"
        );
        let delivered = hits.load(Ordering::SeqCst);
        let dropped = (int_counter(&rt, 0, "/network/best-effort-dropped")
            + int_counter(&rt, 1, "/network/best-effort-dropped")) as u64;
        assert!(delivered < SENT, "[{name}] the wire never dropped a batch");
        assert_eq!(
            delivered + dropped,
            SENT,
            "[{name}] accounting gap: {delivered} delivered + {dropped} dropped"
        );
        rt.shutdown();
    }
}

#[test]
fn coalesce_mailbox_delivers_the_final_value_under_chaos() {
    const UPDATES: u64 = 500;
    for (name, kind) in backends() {
        let rt = Runtime::new(config(kind, true));
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let max_seen = Arc::new(AtomicU64::new(0));
        let (s, m) = (Arc::clone(&seen), Arc::clone(&max_seen));
        let act = rt
            .action("dc::sync")
            .delivery(DeliveryClass::Coalesce)
            .coalesce_interval(Duration::from_millis(2))
            .register(move |v: u64| {
                s.lock().push(v);
                m.fetch_max(v, Ordering::SeqCst);
            });
        rt.inject_faults(0, Some(Arc::new(classed_chaos())));
        rt.run_on(0, move |ctx| {
            for v in 1..=UPDATES {
                ctx.apply(&act, 1, v);
            }
        });
        // Quiescence covers the mailbox slot until its flush timer fires.
        assert!(rt.wait_quiescent(Duration::from_secs(30)));
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            UPDATES,
            "[{name}] final value never arrived"
        );
        let seen = seen.lock().clone();
        // Newest-wins collapsed the burst: far fewer deliveries than
        // updates, no duplicates, and the coalescing counters saw it.
        assert!(
            (seen.len() as u64) < UPDATES,
            "[{name}] nothing was coalesced ({} deliveries)",
            seen.len()
        );
        let mut dedup = seen.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            seen.len(),
            "[{name}] a superseded value was delivered twice"
        );
        let wire_messages = rt
            .query(0, "/coalescing/count/messages@dc::sync")
            .map(|v| v.as_f64())
            .unwrap_or(f64::MAX);
        assert!(
            wire_messages < UPDATES as f64,
            "[{name}] mailbox never merged updates ({wire_messages} messages)"
        );
        rt.shutdown();
    }
}

/// Satellite regression: flooding a BestEffort action far past the
/// backlog bound must shed (decrementing every in-flight gauge) so
/// quiescence returns promptly — not hang on parcels that will never be
/// sent.
#[test]
fn best_effort_flood_past_backlog_bound_still_quiesces() {
    const FLOOD: u64 = 20_000;
    let mut c = config(TransportKind::default(), false);
    c.best_effort_backlog = 8;
    let rt = Runtime::new(c);
    let hits = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hits);
    let act = rt
        .action("dc::flood")
        .delivery(DeliveryClass::BestEffort)
        .register(move |(): ()| {
            h.fetch_add(1, Ordering::SeqCst);
        });
    rt.run_on(0, move |ctx| {
        for _ in 0..FLOOD {
            ctx.apply(&act, 1, ());
        }
    });
    assert!(
        rt.wait_quiescent(Duration::from_secs(10)),
        "shed parcels were counted against quiescence"
    );
    let delivered = hits.load(Ordering::SeqCst);
    // Sheds consume parcel ids, so a frame overtaken by a concurrent pump
    // can land more than the dedup window behind its successor: the
    // receiver then drops it as stale and books it on its own side.
    let dropped = (int_counter(&rt, 0, "/network/best-effort-dropped")
        + int_counter(&rt, 1, "/network/best-effort-dropped")) as u64;
    assert!(dropped > 0, "the backlog bound never shed");
    assert_eq!(
        delivered + dropped,
        FLOOD,
        "accounting gap under flood: {delivered} delivered + {dropped} dropped"
    );
    rt.shutdown();
}
