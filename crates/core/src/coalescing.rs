//! Runtime-level coalescing control.
//!
//! [`CoalescingControl`] is what `enable_coalescing` and
//! `enable_coalescing_per_destination` return: one live knob (shared
//! [`ParamsHandle`]) steering the coalescers installed on every locality
//! for one action, plus access to the per-locality `/coalescing/*`
//! counters and the hookup point for the adaptive controller.
//!
//! Every coalescer the runtime installs — request side, continuation
//! side, and the `DeliveryClass::Coalesce` mailbox — goes through
//! `install_coalescer`: build, publish counters, intercept the action.

use std::sync::Arc;
use std::time::Duration;

use rpx_adaptive::{AdaptiveConfig, OverheadController, PerDestController};
use rpx_coalesce::{Coalescer, CoalescingCounters, CoalescingParams, FlushPolicy, ParamsHandle};
use rpx_parcel::ActionId;

use crate::error::RuntimeError;
use crate::runtime::{Locality, Runtime};

/// Build a coalescer for action `id` (`name`) on `locality`, register its
/// `/coalescing/*` counters there and route the action's outgoing parcels
/// through it.
pub(crate) fn install_coalescer(
    rt: &Runtime,
    locality: &Locality,
    name: &str,
    id: ActionId,
    params: ParamsHandle,
    policy: FlushPolicy,
    per_destination: bool,
) -> Arc<Coalescer> {
    let coalescer = Coalescer::new(
        name,
        params,
        policy,
        per_destination,
        Arc::clone(rt.timer()),
        locality.port.send_path(),
    );
    coalescer.register_counters(&locality.registry);
    locality
        .port
        .set_interceptor(id, Arc::clone(&coalescer) as _);
    coalescer
}

/// Live control over one action's coalescing across all localities
/// hosted by this process (every locality in the default mode, the
/// single rank in multi-process mode — each rank installs its own).
pub struct CoalescingControl {
    action_name: String,
    action_id: ActionId,
    continuation_id: Option<ActionId>,
    params: ParamsHandle,
    /// The request-side coalescer of each hosted locality, by locality id.
    per_locality: Vec<(u32, Arc<Coalescer>)>,
    continuation_coalescers: Vec<Arc<Coalescer>>,
}

impl std::fmt::Debug for CoalescingControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoalescingControl")
            .field("action", &self.action_name)
            .field("params", &self.params.load())
            .field("localities", &self.per_locality.len())
            .finish()
    }
}

impl CoalescingControl {
    pub(crate) fn install(
        rt: &Arc<Runtime>,
        action_name: &str,
        params: CoalescingParams,
        per_destination: bool,
    ) -> Result<CoalescingControl, RuntimeError> {
        let hosted = rt.hosted();
        let action_id = hosted[0]
            .port
            .actions()
            .lookup(action_name)
            .ok_or_else(|| RuntimeError::UnknownAction(action_name.to_string()))?;
        let continuation_id = hosted[0].port.actions().lookup("rpx::set-lco");
        let handle = ParamsHandle::new(params);
        let install = |locality: &Locality, name: &str, id: ActionId| {
            install_coalescer(
                rt,
                locality,
                name,
                id,
                handle.clone(),
                FlushPolicy::Append,
                per_destination,
            )
        };
        let mut per_locality = Vec::with_capacity(hosted.len());
        let mut continuation_coalescers = Vec::new();
        for locality in hosted {
            per_locality.push((locality.id(), install(locality, action_name, action_id)));
            // Results travelling back as continuation parcels are as
            // fine-grained as the requests; coalesce them under the same
            // knob (in HPX the set-value continuation action is flagged
            // alongside the application action).
            if let Some(cont_id) = continuation_id {
                continuation_coalescers.push(install(locality, "rpx::set-lco", cont_id));
            }
        }
        Ok(CoalescingControl {
            action_name: action_name.to_string(),
            action_id,
            continuation_id,
            params: handle,
            per_locality,
            continuation_coalescers,
        })
    }

    /// Whether each destination owns independent parameters and counters
    /// (installed via `enable_coalescing_per_destination`).
    pub fn is_per_destination(&self) -> bool {
        // `install` builds every hosted locality's coalescer in one mode.
        let (_, first) = &self.per_locality[0];
        first.is_per_destination()
    }

    /// The request-side coalescer installed on one hosted locality
    /// (`None` for remote ranks in multi-process mode). Gives access to
    /// per-destination [`ParamsHandle`]s and counters in per-destination
    /// mode.
    pub fn coalescer(&self, locality: u32) -> Option<&Arc<Coalescer>> {
        let (_, coalescer) = self.per_locality.iter().find(|(id, _)| *id == locality)?;
        Some(coalescer)
    }

    /// The controlled action's name.
    pub fn action_name(&self) -> &str {
        &self.action_name
    }

    /// The controlled action's id.
    pub fn action_id(&self) -> ActionId {
        self.action_id
    }

    /// The shared live parameter handle.
    pub fn params(&self) -> &ParamsHandle {
        &self.params
    }

    /// Set the number of parcels to coalesce per message (all localities).
    pub fn set_nparcels(&self, nparcels: usize) {
        self.params.set_nparcels(nparcels);
    }

    /// Set the flush wait time (all localities).
    pub fn set_interval(&self, interval: Duration) {
        self.params.set_interval(interval);
    }

    /// Replace all parameters at once.
    pub fn set_params(&self, params: CoalescingParams) {
        self.params.store(params);
    }

    /// Flush all queued parcels on every locality (phase boundaries),
    /// including queued continuation results.
    pub fn flush(&self) {
        use rpx_parcel::ParcelInterceptor;
        for c in self.coalescers() {
            c.flush();
        }
    }

    /// Parcels currently buffered across all localities (requests and
    /// continuation results).
    pub fn pending(&self) -> usize {
        self.coalescers().map(|c| c.pending()).sum()
    }

    /// Every installed coalescer: request side, then continuation side.
    fn coalescers(&self) -> impl Iterator<Item = &Arc<Coalescer>> {
        let requests = self.per_locality.iter().map(|(_, c)| c);
        requests.chain(&self.continuation_coalescers)
    }

    /// The `/coalescing/*` counters of one hosted locality's coalescer
    /// (`None` for remote ranks in multi-process mode).
    pub fn counters(&self, locality: u32) -> Option<&Arc<CoalescingCounters>> {
        self.coalescer(locality).map(|c| c.counters())
    }

    /// Remove this control's interceptors from every hosted locality
    /// (queued parcels are flushed first).
    pub(crate) fn uninstall(&self, rt: &Runtime) {
        self.flush();
        for locality in rt.hosted() {
            let port = &locality.port;
            port.clear_interceptor(self.action_id);
            if let Some(cont_id) = self.continuation_id {
                port.clear_interceptor(cont_id);
            }
        }
    }

    /// Start the adaptive overhead controller, steering this control's
    /// parameters from `locality`'s metrics — the closed loop the paper
    /// proposes as future work.
    pub fn start_adaptive(
        &self,
        rt: &Runtime,
        locality: u32,
        config: AdaptiveConfig,
    ) -> OverheadController {
        OverheadController::start(
            rt.metrics(locality),
            self.params.clone(),
            Arc::clone(self.counters(locality).expect("locality in range")),
            config,
        )
    }

    /// Start the per-destination adaptive controller for `locality`'s
    /// coalescer: one hill-climbing core per destination, each steering
    /// that destination's own [`ParamsHandle`] from its private parcel
    /// counters (the locality-wide Eq. 4 overhead is the shared reward
    /// signal). Requires a control installed with
    /// `enable_coalescing_per_destination`.
    pub fn start_adaptive_per_dest(
        &self,
        rt: &Runtime,
        locality: u32,
        config: AdaptiveConfig,
    ) -> PerDestController {
        assert!(
            self.is_per_destination(),
            "start_adaptive_per_dest requires enable_coalescing_per_destination"
        );
        PerDestController::start(
            rt.metrics(locality),
            Arc::clone(self.coalescer(locality).expect("locality in range")),
            config,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn test_runtime() -> Arc<Runtime> {
        Runtime::new(RuntimeConfig::small_test())
    }

    #[test]
    fn unknown_action_is_rejected() {
        let rt = test_runtime();
        let err = rt
            .enable_coalescing("nope", CoalescingParams::default())
            .unwrap_err();
        assert_eq!(err, RuntimeError::UnknownAction("nope".to_string()));
        rt.shutdown();
    }

    #[test]
    fn coalesced_action_still_delivers_everything() {
        let rt = test_runtime();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let act = rt.action("bump").register(move |(): ()| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let control = rt
            .enable_coalescing("bump", CoalescingParams::new(8, Duration::from_micros(500)))
            .unwrap();
        rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..100).map(|_| ctx.async_action(&act, 1, ())).collect();
            ctx.wait_all(futures).unwrap();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 100);
        // The coalescing counters saw the traffic and produced fewer
        // messages than parcels.
        let c = control.counters(0).unwrap();
        assert_eq!(c.parcels.get(), 100);
        assert!(c.messages.get() < 100, "messages {}", c.messages.get());
        assert!(c.parcels_per_message.ratio() > 1.0);
        rt.shutdown();
    }

    #[test]
    fn counters_registered_in_locality_registries() {
        let rt = test_runtime();
        let _act = rt.action("a").register(|(): ()| ());
        let _control = rt
            .enable_coalescing("a", CoalescingParams::default())
            .unwrap();
        for l in 0..2 {
            let v = rt.query(l, "/coalescing/count/parcels@a");
            assert!(v.is_ok(), "locality {l} missing coalescing counters");
        }
        rt.shutdown();
    }

    #[test]
    fn live_parameter_updates_change_batching() {
        let rt = test_runtime();
        let act = rt.action("x").register(|(): ()| ());
        let control = rt
            .enable_coalescing("x", CoalescingParams::new(4, Duration::from_secs(10)))
            .unwrap();

        let a2 = act.clone();
        rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..8).map(|_| ctx.async_action(&a2, 1, ())).collect();
            ctx.wait_all(futures).unwrap();
        });
        let messages_at_4 = control.counters(0).unwrap().messages.get();

        control.set_nparcels(2);
        rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..8).map(|_| ctx.async_action(&act, 1, ())).collect();
            ctx.wait_all(futures).unwrap();
        });
        let messages_total = control.counters(0).unwrap().messages.get();
        // 8 parcels at nparcels=4 → ≥2 messages; 8 more at nparcels=2 →
        // ≥4 more messages.
        assert!(messages_at_4 >= 2);
        assert!(messages_total >= messages_at_4 + 4);
        rt.shutdown();
    }

    #[test]
    fn disable_coalescing_restores_direct_path() {
        let rt = test_runtime();
        let act = rt.action("d").register(|(): ()| ());
        let control = rt
            .enable_coalescing("d", CoalescingParams::new(64, Duration::from_secs(10)))
            .unwrap();
        rt.disable_coalescing(&control);
        rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..5).map(|_| ctx.async_action(&act, 1, ())).collect();
            ctx.wait_all(futures).unwrap();
        });
        // No coalescing: counters untouched after disable.
        assert_eq!(control.counters(0).unwrap().parcels.get(), 0);
        assert_eq!(control.pending(), 0);
        rt.shutdown();
    }

    #[test]
    fn flush_releases_stragglers() {
        let rt = test_runtime();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let act = rt.action("strag").register(move |(): ()| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let control = rt
            .enable_coalescing(
                "strag",
                CoalescingParams::new(1000, Duration::from_secs(30)),
            )
            .unwrap();
        // Fire-and-forget three parcels: they sit in the queue.
        rt.run_on(0, move |ctx| {
            for _ in 0..3 {
                ctx.apply(&act, 1, ());
            }
        });
        assert_eq!(control.pending(), 3);
        control.flush();
        assert!(rt.wait_quiescent(Duration::from_secs(10)));
        assert_eq!(hits.load(Ordering::SeqCst), 3);
        rt.shutdown();
    }

    #[test]
    fn wait_quiescent_waits_for_a_partial_batch_on_its_flush_timer() {
        let rt = test_runtime();
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let act = rt.action("partial").register(move |(): ()| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let _control = rt
            .enable_coalescing(
                "partial",
                CoalescingParams::new(64, Duration::from_millis(20)),
            )
            .unwrap();
        rt.run_on(0, move |ctx| {
            for _ in 0..3 {
                ctx.apply(&act, 1, ());
            }
        });
        assert!(rt.wait_quiescent(Duration::from_secs(10)));
        assert_eq!(
            hits.load(Ordering::SeqCst),
            3,
            "quiescent while the batch still waited for its timer"
        );
        rt.shutdown();
    }

    #[test]
    fn adaptive_controller_attaches_and_stops() {
        let rt = test_runtime();
        let _act = rt.action("ad").register(|(): ()| ());
        let control = rt
            .enable_coalescing("ad", CoalescingParams::default())
            .unwrap();
        let controller = control.start_adaptive(&rt, 0, AdaptiveConfig::default());
        std::thread::sleep(Duration::from_millis(50));
        let _decisions = controller.stop();
        rt.shutdown();
    }

    #[test]
    fn per_destination_control_splits_params_and_keeps_aggregates() {
        let rt = Runtime::new(RuntimeConfig {
            localities: 3,
            ..RuntimeConfig::small_test()
        });
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let act = rt.action("pd").register(move |(): ()| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        let control = rt
            .enable_coalescing_per_destination(
                "pd",
                CoalescingParams::new(8, Duration::from_micros(500)),
            )
            .unwrap();
        assert!(control.is_per_destination());

        rt.run_on(0, move |ctx| {
            let mut futures = Vec::new();
            for _ in 0..40 {
                futures.push(ctx.async_action(&act, 1, ()));
            }
            for _ in 0..10 {
                futures.push(ctx.async_action(&act, 2, ()));
            }
            ctx.wait_all(futures).unwrap();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 50);

        let coalescer = control.coalescer(0).unwrap();
        // Per-destination split, exact action-level aggregate.
        assert_eq!(coalescer.counters_for(1).parcels.get(), 40);
        assert_eq!(coalescer.counters_for(2).parcels.get(), 10);
        assert_eq!(control.counters(0).unwrap().parcels.get(), 50);

        // Each destination owns its own live handle: steering dst 1 must
        // not move dst 2.
        coalescer.params_for(1).set_nparcels(64);
        assert_eq!(coalescer.params_for(1).load().nparcels, 64);
        assert_eq!(coalescer.params_for(2).load().nparcels, 8);
        rt.shutdown();
    }

    #[test]
    fn per_dest_adaptive_controller_attaches_and_stops() {
        let rt = test_runtime();
        let _act = rt.action("pda").register(|(): ()| ());
        let control = rt
            .enable_coalescing_per_destination("pda", CoalescingParams::default())
            .unwrap();
        let controller = control.start_adaptive_per_dest(&rt, 0, AdaptiveConfig::default());
        std::thread::sleep(Duration::from_millis(50));
        let _decisions = controller.stop();
        rt.shutdown();
    }
}
