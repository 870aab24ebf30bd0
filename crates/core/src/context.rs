//! The execution context handed to driver closures.
//!
//! `Ctx` is what application code sees "on" a locality: it can discover
//! the cluster (`find_remote_localities`, as in Listing 1 of the paper),
//! invoke actions remotely (`async_action` ≙ `hpx::async`), and wait on
//! the resulting futures (`wait_all` ≙ `hpx::wait_all`). Waits pump the
//! locality's parcel port cooperatively, with the pump time reclassified
//! as background work so the network-overhead metric stays truthful.

use std::marker::PhantomData;
use std::sync::Arc;

use bytes::Bytes;

use rpx_agas::Gid;
use rpx_lco::{channel, Future as LcoFuture};
use rpx_parcel::Parcel;
use rpx_serialize::{from_bytes, to_bytes, Wire};

use crate::error::RuntimeError;
use crate::runtime::{ActionHandle, Locality, Runtime};

/// A future for a remote action's result.
pub struct RemoteFuture<R> {
    inner: LcoFuture<Bytes>,
    locality: Arc<Locality>,
    _marker: PhantomData<fn() -> R>,
}

impl<R: Wire> RemoteFuture<R> {
    /// Whether the result has arrived.
    pub fn is_ready(&self) -> bool {
        self.inner.is_ready()
    }

    /// Block until the result arrives, pumping the locality's parcel port
    /// (and helping with pending tasks) while waiting.
    pub fn get(self) -> Result<R, RuntimeError> {
        let locality = Arc::clone(&self.locality);
        let bytes = self.inner.get_with(move || locality.cooperative_pump())?;
        Ok(from_bytes(bytes)?)
    }

    /// Like [`RemoteFuture::get`], but gives up after `timeout`.
    pub fn get_timeout(self, timeout: std::time::Duration) -> Result<R, RuntimeError> {
        let locality = Arc::clone(&self.locality);
        let bytes = self
            .inner
            .get_with_timeout(move || locality.cooperative_pump(), timeout)?;
        Ok(from_bytes(bytes)?)
    }
}

/// The per-driver execution context.
pub struct Ctx {
    runtime: Arc<Runtime>,
    locality: u32,
}

impl Ctx {
    pub(crate) fn new(runtime: Arc<Runtime>, locality: u32) -> Self {
        Ctx { runtime, locality }
    }

    /// The locality this context executes on.
    pub fn locality(&self) -> u32 {
        self.locality
    }

    /// Number of localities in the cluster.
    pub fn num_localities(&self) -> u32 {
        self.runtime.num_localities()
    }

    /// Every locality except this one (`hpx::find_remote_localities`).
    pub fn find_remote_localities(&self) -> Vec<u32> {
        (0..self.num_localities())
            .filter(|&l| l != self.locality)
            .collect()
    }

    /// The owning runtime.
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.runtime
    }

    fn here(&self) -> &Arc<Locality> {
        self.runtime.locality(self.locality)
    }

    /// Invoke `action` on `dest` asynchronously; returns a future for the
    /// result (`hpx::async(act, other, args…)`).
    pub fn async_action<A, R>(
        &self,
        action: &ActionHandle<A, R>,
        dest: u32,
        args: A,
    ) -> RemoteFuture<R>
    where
        A: Wire,
        R: Wire,
    {
        self.async_raw(action.id, dest, Gid::INVALID, to_bytes(&args))
    }

    /// Byte-level asynchronous invocation: builds the continuation LCO, the
    /// parcel, and the typed future. Shared by plain actions and component
    /// methods.
    pub(crate) fn async_raw<R: Wire>(
        &self,
        action: rpx_parcel::ActionId,
        dest: u32,
        dest_object: Gid,
        args: Bytes,
    ) -> RemoteFuture<R> {
        // The modelled invocation cost (HPX async setup, see
        // RuntimeConfig::invocation_overhead), charged on the caller.
        let inv = self.runtime.config().invocation_overhead;
        if !inv.is_zero() {
            rpx_util::busy_charge(inv);
        }
        let here = self.here();
        // The continuation LCO: a GID registered in AGAS, resolving to
        // this locality, with the promise parked in the local LCO table.
        let gid = self.runtime.agas().allocate(self.locality);
        let (promise, future) = channel::<Bytes>();
        here.lco_table.insert(gid, dest, promise);
        here.port.send_parcel(Parcel {
            id: 0,
            src_locality: self.locality,
            dest_locality: dest,
            dest_object,
            action,
            args,
            continuation: gid,
        });
        RemoteFuture {
            inner: future,
            locality: Arc::clone(here),
            _marker: PhantomData,
        }
    }

    /// Invoke `action` on `dest` without waiting for a result
    /// (`hpx::apply` — fire and forget).
    pub fn apply<A, R>(&self, action: &ActionHandle<A, R>, dest: u32, args: A)
    where
        A: Wire,
        R: Wire,
    {
        let inv = self.runtime.config().invocation_overhead;
        if !inv.is_zero() {
            rpx_util::busy_charge(inv);
        }
        self.here().port.send_parcel(Parcel {
            id: 0,
            src_locality: self.locality,
            dest_locality: dest,
            dest_object: Gid::INVALID,
            action: action.id,
            args: to_bytes(&args),
            continuation: Gid::INVALID,
        });
    }

    /// Wait for all futures, collecting results in order
    /// (`hpx::wait_all`).
    pub fn wait_all<R: Wire>(&self, futures: Vec<RemoteFuture<R>>) -> Result<Vec<R>, RuntimeError> {
        futures.into_iter().map(RemoteFuture::get).collect()
    }

    /// This locality's performance counter registry.
    pub fn counters(&self) -> &Arc<rpx_counters::CounterRegistry> {
        self.here().counters()
    }

    /// Query a counter on this locality.
    ///
    /// Same surface and error type as
    /// [`Runtime::query`](crate::runtime::Runtime::query) and
    /// [`rpx_counters::CounterRegistry::query`].
    pub fn query(
        &self,
        path: &str,
    ) -> Result<rpx_counters::CounterValue, rpx_counters::CounterError> {
        self.here().registry.query(path)
    }

    /// Like [`Ctx::query`], but takes an already-parsed
    /// [`rpx_counters::CounterPath`].
    pub fn query_path(
        &self,
        path: &rpx_counters::CounterPath,
    ) -> Result<rpx_counters::CounterValue, rpx_counters::CounterError> {
        self.here().registry.query_path(path)
    }

    /// Cooperative progress from driver code: pump the parcel port and, if
    /// the network is dry, help run one pending task. Used by barrier
    /// waits; futures do this automatically.
    pub fn pump(&self) -> bool {
        self.here().cooperative_pump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::RuntimeConfig;
    use rpx_util::Complex64;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn test_runtime(localities: u32) -> Arc<Runtime> {
        Runtime::new(RuntimeConfig {
            localities,
            ..RuntimeConfig::small_test()
        })
    }

    #[test]
    fn roundtrip_action_returns_value() {
        let rt = test_runtime(2);
        let act = rt
            .action("get_cplx")
            .register(|(): ()| Complex64::new(13.3, -23.8));
        let v = rt.run_on(0, move |ctx| ctx.async_action(&act, 1, ()).get().unwrap());
        assert_eq!(v, Complex64::new(13.3, -23.8));
        rt.shutdown();
    }

    #[test]
    fn action_receives_arguments() {
        let rt = test_runtime(2);
        let add = rt.action("add").register(|(a, b): (u64, u64)| a + b);
        let v = rt.run_on(0, move |ctx| {
            ctx.async_action(&add, 1, (20, 22)).get().unwrap()
        });
        assert_eq!(v, 42);
        rt.shutdown();
    }

    #[test]
    fn wait_all_collects_many_results() {
        let rt = test_runtime(2);
        let sq = rt.action("square").register(|x: u64| x * x);
        let out = rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..50).map(|i| ctx.async_action(&sq, 1, i)).collect();
            ctx.wait_all(futures).unwrap()
        });
        assert_eq!(out, (0..50).map(|i| i * i).collect::<Vec<u64>>());
        rt.shutdown();
    }

    #[test]
    fn self_invocation_works() {
        let rt = test_runtime(2);
        let act = rt.action("echo").register(|x: u64| x);
        let v = rt.run_on(0, move |ctx| ctx.async_action(&act, 0, 7).get().unwrap());
        assert_eq!(v, 7);
        rt.shutdown();
    }

    #[test]
    fn apply_is_fire_and_forget() {
        let rt = test_runtime(2);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        let act = rt.action("bump").register(move |(): ()| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        rt.run_on(0, move |ctx| {
            for _ in 0..10 {
                ctx.apply(&act, 1, ());
            }
        });
        assert!(rt.wait_quiescent(Duration::from_secs(10)));
        assert_eq!(hits.load(Ordering::SeqCst), 10);
        rt.shutdown();
    }

    #[test]
    fn locality_aware_action_sees_its_host() {
        let rt = test_runtime(3);
        let who = rt
            .action("whoami")
            .with_locality()
            .register(|here, (): ()| here);
        let ids = rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..3).map(|l| ctx.async_action(&who, l, ())).collect();
            ctx.wait_all(futures).unwrap()
        });
        assert_eq!(ids, vec![0, 1, 2]);
        rt.shutdown();
    }

    #[test]
    fn find_remote_localities_excludes_self() {
        let rt = test_runtime(4);
        let remotes = rt.run_on(2, |ctx| {
            assert_eq!(ctx.locality(), 2);
            assert_eq!(ctx.num_localities(), 4);
            ctx.find_remote_localities()
        });
        assert_eq!(remotes, vec![0, 1, 3]);
        rt.shutdown();
    }

    #[test]
    fn bidirectional_traffic_as_in_listing_1() {
        // Both localities send to each other simultaneously, like the toy
        // application's two nodes.
        let rt = test_runtime(2);
        let act = rt
            .action("get")
            .register(|(): ()| Complex64::new(13.3, -23.8));
        let a1 = act.clone();
        let rt1 = Arc::clone(&rt);
        let t = std::thread::spawn(move || {
            rt1.run_on(1, move |ctx| {
                let futures: Vec<_> = (0..100).map(|_| ctx.async_action(&a1, 0, ())).collect();
                ctx.wait_all(futures).unwrap().len()
            })
        });
        let n0 = rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..100).map(|_| ctx.async_action(&act, 1, ())).collect();
            ctx.wait_all(futures).unwrap().len()
        });
        assert_eq!(n0, 100);
        assert_eq!(t.join().unwrap(), 100);
        rt.shutdown();
    }

    #[test]
    fn counters_visible_from_ctx() {
        let rt = test_runtime(2);
        let act = rt.action("noop").register(|(): ()| ());
        rt.run_on(0, move |ctx| {
            ctx.async_action(&act, 1, ()).get().unwrap();
            // The driver task itself is still running, so look at spawned
            // (continuation delivery is a direct action, not a task).
            let v = ctx.query("/threads/count/cumulative-spawned").unwrap();
            assert!(v.as_f64() >= 1.0);
            assert!(ctx.query("/no/such/counter").is_err());
        });
        rt.shutdown();
    }

    #[test]
    fn lco_table_is_drained_after_waits() {
        let rt = test_runtime(2);
        let act = rt.action("one").register(|(): ()| 1u64);
        rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..20).map(|_| ctx.async_action(&act, 1, ())).collect();
            ctx.wait_all(futures).unwrap();
        });
        assert!(rt.wait_quiescent(Duration::from_secs(10)));
        assert_eq!(rt.locality(0).lco_table.pending_count(), 0);
        rt.shutdown();
    }

    #[test]
    fn single_worker_per_locality_does_not_deadlock() {
        // The cooperative pump inside RemoteFuture::get must keep the
        // network alive even when the only worker is blocked waiting.
        let rt = Runtime::new(RuntimeConfig {
            localities: 2,
            workers_per_locality: 1,
            ..RuntimeConfig::small_test()
        });
        let act = rt.action("v").register(|(): ()| 11u32);
        let v = rt.run_on(0, move |ctx| ctx.async_action(&act, 1, ()).get().unwrap());
        assert_eq!(v, 11);
        rt.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let rt = test_runtime(2);
        rt.shutdown();
        rt.shutdown();
        drop(rt);
    }
}
