//! The per-action coalescer plugged into the parcel port.
//!
//! One [`Coalescer`] serves one coalesced action: it fans parcels out to
//! per-destination [`CoalescingQueue`]s (coalescing only combines parcels
//! "bound to the same destination") and implements the parcel port's
//! [`ParcelInterceptor`] interface — the RPX analogue of flagging an
//! action with `HPX_ACTION_USES_MESSAGE_COALESCING`.
//!
//! [`Coalescer::new`] is the only constructor; its `per_destination`
//! argument picks one of two parameter-sharing modes, and
//! `Coalescer::dest_for` is the only place that choice is read:
//!
//! * **Global** (the paper's setup): every destination queue reads one
//!   shared [`ParamsHandle`] and records into one shared
//!   [`CoalescingCounters`] — one knob per action.
//! * **Per-destination**: each destination owns a private
//!   [`ParamsHandle`] (seeded from the shared action-level handle) and
//!   private [`CoalescingCounters`] that forward to the action-level
//!   aggregate. A per-destination adaptive controller (`rpx-adaptive`)
//!   can then steer a hot peer and a cold peer to different operating
//!   points simultaneously.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use rpx_counters::CounterRegistry;
use rpx_parcel::{Parcel, ParcelInterceptor, SendPath};
use rpx_util::TimerService;

use crate::counters::CoalescingCounters;
use crate::params::ParamsHandle;
use crate::queue::{CoalescingQueue, FlushPolicy};

/// Everything one destination owns: its queue plus the parameter handle
/// and counters the queue reads (shared with the action in global mode,
/// private in per-destination mode).
#[derive(Clone)]
struct DestState {
    params: ParamsHandle,
    counters: Arc<CoalescingCounters>,
    queue: Arc<CoalescingQueue>,
}

/// The coalescing plug-in for one action.
pub struct Coalescer {
    action_name: String,
    params: ParamsHandle,
    policy: FlushPolicy,
    per_destination: bool,
    timer: Arc<TimerService>,
    path: Arc<dyn SendPath>,
    counters: Arc<CoalescingCounters>,
    dests: RwLock<HashMap<u32, DestState>>,
}

impl Coalescer {
    /// Create a coalescer for `action_name` emitting through `path`.
    ///
    /// `params` is the action-level handle; pass a clone of an existing
    /// handle to steer several localities' coalescers with one knob, as
    /// in the paper's parameter sweeps. `policy` is what every
    /// destination queue does with a new parcel
    /// ([`FlushPolicy::Mailbox`] is what
    /// [`DeliveryClass::Coalesce`](rpx_parcel::DeliveryClass::Coalesce)
    /// actions install). With `per_destination` set, every destination
    /// gets a private handle seeded from the current value of `params`
    /// plus private counters forwarding to the action-level aggregate;
    /// otherwise all destinations share `params` and one counter set.
    pub fn new(
        action_name: &str,
        params: ParamsHandle,
        policy: FlushPolicy,
        per_destination: bool,
        timer: Arc<TimerService>,
        path: Arc<dyn SendPath>,
    ) -> Arc<Self> {
        Arc::new(Coalescer {
            action_name: action_name.to_string(),
            params,
            policy,
            per_destination,
            timer,
            path,
            counters: CoalescingCounters::new(),
            dests: RwLock::new(HashMap::new()),
        })
    }

    /// The action this coalescer serves.
    pub fn action_name(&self) -> &str {
        &self.action_name
    }

    /// The flush policy this coalescer's queues use.
    pub fn policy(&self) -> FlushPolicy {
        self.policy
    }

    /// The live-tunable parameter handle (shared with the adaptive
    /// controller).
    pub fn params(&self) -> &ParamsHandle {
        &self.params
    }

    /// The per-action counters (the aggregate across all destinations).
    pub fn counters(&self) -> &Arc<CoalescingCounters> {
        &self.counters
    }

    /// Whether each destination owns private parameters.
    pub fn is_per_destination(&self) -> bool {
        self.per_destination
    }

    /// The parameter handle steering parcels bound for `dst`, creating
    /// the destination state on first use.
    ///
    /// In global mode this is the shared action-level handle; in
    /// per-destination mode it is `dst`'s private handle.
    pub fn params_for(&self, dst: u32) -> ParamsHandle {
        self.dest_for(dst).params
    }

    /// The counters recording parcels bound for `dst`, creating the
    /// destination state on first use.
    ///
    /// In global mode this is the action-level aggregate; in
    /// per-destination mode it is `dst`'s private set (which forwards to
    /// the aggregate).
    pub fn counters_for(&self, dst: u32) -> Arc<CoalescingCounters> {
        self.dest_for(dst).counters
    }

    /// Destinations this coalescer has seen traffic for (or had state
    /// created for via [`Coalescer::params_for`]), unordered.
    pub fn destinations(&self) -> Vec<u32> {
        self.dests.read().keys().copied().collect()
    }

    /// Register this action's `/coalescing/*` counters in `registry`.
    pub fn register_counters(&self, registry: &CounterRegistry) {
        self.counters.register(registry, &self.action_name);
    }

    /// Parcels currently buffered across all destinations.
    pub fn pending(&self) -> usize {
        self.dests.read().values().map(|d| d.queue.pending()).sum()
    }

    fn dest_for(&self, dst: u32) -> DestState {
        if let Some(d) = self.dests.read().get(&dst) {
            return d.clone();
        }
        let mut dests = self.dests.write();
        dests
            .entry(dst)
            .or_insert_with(|| {
                let (params, counters) = if self.per_destination {
                    (
                        ParamsHandle::new(self.params.load()),
                        CoalescingCounters::with_parent(Arc::clone(&self.counters)),
                    )
                } else {
                    (self.params.clone(), Arc::clone(&self.counters))
                };
                let queue = CoalescingQueue::with_policy(
                    dst,
                    params.clone(),
                    self.policy,
                    Arc::clone(&self.timer),
                    Arc::clone(&self.path),
                    Arc::clone(&counters),
                );
                DestState {
                    params,
                    counters,
                    queue,
                }
            })
            .clone()
    }
}

impl ParcelInterceptor for Coalescer {
    fn submit(&self, parcel: Parcel) {
        self.dest_for(parcel.dest_locality).queue.submit(parcel);
    }

    fn flush(&self) {
        let queues: Vec<_> = self
            .dests
            .read()
            .values()
            .map(|d| Arc::clone(&d.queue))
            .collect();
        for q in queues {
            q.flush();
        }
    }

    fn pending(&self) -> usize {
        Coalescer::pending(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CoalescingParams;
    use bytes::Bytes;
    use parking_lot::Mutex;
    use rpx_agas::Gid;
    use rpx_parcel::{ActionId, ParcelBatch};
    use std::time::Duration;

    struct MockPath {
        batches: Mutex<Vec<(u32, Vec<Parcel>)>>,
    }
    impl SendPath for MockPath {
        fn emit(&self, dst: u32, batch: ParcelBatch) {
            self.batches.lock().push((dst, batch.into_vec()));
        }
    }

    fn parcel(id: u64, dst: u32) -> Parcel {
        Parcel {
            id,
            src_locality: 0,
            dest_locality: dst,
            dest_object: Gid::INVALID,
            action: ActionId(0),
            args: Bytes::new(),
            continuation: Gid::INVALID,
        }
    }

    fn coalescer(params: CoalescingParams) -> (Arc<Coalescer>, Arc<MockPath>, Arc<TimerService>) {
        coalescer_with(params, FlushPolicy::Append, false)
    }

    fn coalescer_with(
        params: CoalescingParams,
        policy: FlushPolicy,
        per_destination: bool,
    ) -> (Arc<Coalescer>, Arc<MockPath>, Arc<TimerService>) {
        let path = Arc::new(MockPath {
            batches: Mutex::new(Vec::new()),
        });
        let timer = Arc::new(TimerService::new("coalescer-test"));
        let c = Coalescer::new(
            "act",
            ParamsHandle::new(params),
            policy,
            per_destination,
            Arc::clone(&timer),
            path.clone() as _,
        );
        (c, path, timer)
    }

    #[test]
    fn destinations_coalesce_independently() {
        let (c, path, _t) = coalescer(CoalescingParams::new(3, Duration::from_secs(10)));
        // Interleave two destinations; each must fill its own queue.
        for i in 0..3 {
            c.submit(parcel(i, 1));
            c.submit(parcel(100 + i, 2));
        }
        let batches = path.batches.lock();
        assert_eq!(batches.len(), 2);
        for (dst, batch) in batches.iter() {
            assert_eq!(batch.len(), 3);
            assert!(batch.iter().all(|p| p.dest_locality == *dst));
        }
    }

    #[test]
    fn flush_drains_every_destination() {
        let (c, path, _t) = coalescer(CoalescingParams::new(100, Duration::from_secs(10)));
        c.submit(parcel(1, 0));
        c.submit(parcel(2, 1));
        c.submit(parcel(3, 2));
        assert_eq!(c.pending(), 3);
        c.flush();
        assert_eq!(c.pending(), 0);
        assert_eq!(path.batches.lock().len(), 3);
    }

    #[test]
    fn shared_params_apply_to_all_queues() {
        let (c, path, _t) = coalescer(CoalescingParams::new(100, Duration::from_secs(10)));
        c.submit(parcel(1, 1));
        c.submit(parcel(2, 2));
        c.params().set_nparcels(2);
        c.submit(parcel(3, 1));
        c.submit(parcel(4, 2));
        assert_eq!(path.batches.lock().len(), 2, "both queues flushed at 2");
    }

    #[test]
    fn counters_aggregate_across_destinations() {
        let (c, _path, _t) = coalescer(CoalescingParams::new(2, Duration::from_secs(10)));
        for dst in 0..4 {
            c.submit(parcel(dst as u64 * 2, dst));
            c.submit(parcel(dst as u64 * 2 + 1, dst));
        }
        assert_eq!(c.counters().parcels.get(), 8);
        assert_eq!(c.counters().messages.get(), 4);
        assert_eq!(c.counters().parcels_per_message.ratio(), 2.0);
    }

    #[test]
    fn counter_registration_uses_action_name() {
        let (c, _path, _t) = coalescer(CoalescingParams::default());
        let reg = CounterRegistry::new(0);
        c.register_counters(&reg);
        assert!(reg.query("/coalescing/count/parcels@act").is_ok());
        assert_eq!(c.action_name(), "act");
    }

    #[test]
    fn mailbox_policy_applies_per_destination() {
        let (c, path, _t) = coalescer_with(
            CoalescingParams::new(100, Duration::from_secs(10)),
            FlushPolicy::Mailbox,
            false,
        );
        assert_eq!(c.policy(), FlushPolicy::Mailbox);
        // Ten updates to each of two destinations: one slot each.
        for i in 0..10 {
            c.submit(parcel(i, 1));
            c.submit(parcel(100 + i, 2));
        }
        assert_eq!(c.pending(), 2);
        c.flush();
        let batches = path.batches.lock();
        assert_eq!(batches.len(), 2);
        for (dst, batch) in batches.iter() {
            assert_eq!(batch.len(), 1);
            let expect = if *dst == 1 { 9 } else { 109 };
            assert_eq!(batch[0].id, expect, "newest value for dst {dst}");
        }
    }

    #[test]
    fn per_destination_params_are_independent() {
        let (c, path, _t) = coalescer_with(
            CoalescingParams::new(100, Duration::from_secs(10)),
            FlushPolicy::Append,
            true,
        );
        assert!(c.is_per_destination());
        // Seeded from the shared handle...
        assert_eq!(c.params_for(1).load().nparcels, 100);
        // ...but tuning dst 1 leaves dst 2 alone.
        c.params_for(1).set_nparcels(2);
        assert_eq!(c.params_for(1).load().nparcels, 2);
        assert_eq!(c.params_for(2).load().nparcels, 100);
        c.submit(parcel(1, 1));
        c.submit(parcel(2, 1));
        c.submit(parcel(3, 2));
        c.submit(parcel(4, 2));
        let batches = path.batches.lock();
        assert_eq!(batches.len(), 1, "only dst 1 hit its threshold");
        assert_eq!(batches[0].0, 1);
        let mut dests = c.destinations();
        dests.sort_unstable();
        assert_eq!(dests, vec![1, 2]);
    }

    #[test]
    fn per_destination_counters_split_and_aggregate() {
        let (c, _path, _t) = coalescer_with(
            CoalescingParams::new(2, Duration::from_secs(10)),
            FlushPolicy::Append,
            true,
        );
        for i in 0..6 {
            c.submit(parcel(i, 1));
        }
        for i in 0..2 {
            c.submit(parcel(100 + i, 2));
        }
        assert_eq!(c.counters_for(1).parcels.get(), 6);
        assert_eq!(c.counters_for(2).parcels.get(), 2);
        assert_eq!(c.counters_for(1).messages.get(), 3);
        // The action-level aggregate still matches the paper's counters.
        assert_eq!(c.counters().parcels.get(), 8);
        assert_eq!(c.counters().messages.get(), 4);
    }

    #[test]
    fn global_mode_params_for_returns_shared_handle() {
        let (c, _path, _t) = coalescer(CoalescingParams::new(10, Duration::from_secs(10)));
        assert!(!c.is_per_destination());
        c.params_for(3).set_nparcels(5);
        assert_eq!(c.params().load().nparcels, 5, "global handle is shared");
        assert_eq!(c.params_for(7).load().nparcels, 5);
    }

    #[test]
    fn concurrent_multi_destination_conservation() {
        let (c, path, _t) = coalescer(CoalescingParams::new(4, Duration::from_millis(2)));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..250u64 {
                        c.submit(parcel(t * 1000 + i, (i % 3) as u32));
                    }
                });
            }
        });
        std::thread::sleep(Duration::from_millis(30));
        let batches = path.batches.lock();
        let mut seen = std::collections::HashSet::new();
        for (dst, batch) in batches.iter() {
            for p in batch {
                assert_eq!(p.dest_locality, *dst, "batch mixes destinations");
                assert!(seen.insert(p.id));
            }
        }
        assert_eq!(seen.len(), 1000);
    }
}
