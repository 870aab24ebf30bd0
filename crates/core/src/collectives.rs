//! Collective operations over localities.
//!
//! The Parquet application's rotation phase is an all-to-all broadcast
//! ("all the data from each node must be broadcast to the other nodes",
//! §IV-C). These helpers express such patterns directly on top of
//! `async_action`, so applications do not hand-roll fan-out loops — and
//! coalescing applies transparently since everything is still parcels.

use rpx_serialize::Wire;

use crate::context::{Ctx, RemoteFuture};
use crate::error::RuntimeError;
use crate::runtime::ActionHandle;

impl Ctx {
    /// Invoke `action` with the same arguments on every *other* locality;
    /// returns the futures in locality order.
    pub fn broadcast<A, R>(&self, action: &ActionHandle<A, R>, args: A) -> Vec<RemoteFuture<R>>
    where
        A: Wire + Clone,
        R: Wire,
    {
        self.find_remote_localities()
            .into_iter()
            .map(|dest| self.async_action(action, dest, args.clone()))
            .collect()
    }

    /// Invoke `action` on every locality (including this one); returns the
    /// futures in locality order.
    pub fn broadcast_all<A, R>(&self, action: &ActionHandle<A, R>, args: A) -> Vec<RemoteFuture<R>>
    where
        A: Wire + Clone,
        R: Wire,
    {
        (0..self.num_localities())
            .map(|dest| self.async_action(action, dest, args.clone()))
            .collect()
    }

    /// Broadcast to every locality and fold the results with `fold`,
    /// starting from `init` (a reduce-to-caller collective).
    pub fn reduce<A, R, O>(
        &self,
        action: &ActionHandle<A, R>,
        args: A,
        init: O,
        fold: impl FnMut(O, R) -> O,
    ) -> Result<O, RuntimeError>
    where
        A: Wire + Clone,
        R: Wire,
    {
        let results = self.wait_all(self.broadcast_all(action, args))?;
        Ok(results.into_iter().fold(init, fold))
    }

    /// Scatter: invoke `action` on every locality with per-destination
    /// arguments (`args[i]` goes to locality `i`).
    ///
    /// # Panics
    /// Panics unless `args.len()` equals the number of localities.
    pub fn scatter<A, R>(&self, action: &ActionHandle<A, R>, args: Vec<A>) -> Vec<RemoteFuture<R>>
    where
        A: Wire,
        R: Wire,
    {
        assert_eq!(
            args.len(),
            self.num_localities() as usize,
            "scatter needs one argument per locality"
        );
        args.into_iter()
            .enumerate()
            .map(|(dest, a)| self.async_action(action, dest as u32, a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::runtime::{Runtime, RuntimeConfig};
    use std::sync::Arc;

    fn runtime(localities: u32) -> Arc<Runtime> {
        Runtime::new(RuntimeConfig {
            localities,
            ..RuntimeConfig::small_test()
        })
    }

    #[test]
    fn broadcast_reaches_every_peer() {
        let rt = runtime(4);
        let who = rt
            .action("coll::who")
            .register_with_locality(|here, (): ()| here);
        let ids = rt.run_on(1, move |ctx| {
            let futures = ctx.broadcast(&who, ());
            ctx.wait_all(futures).unwrap()
        });
        assert_eq!(ids, vec![0, 2, 3]);
        rt.shutdown();
    }

    #[test]
    fn broadcast_all_includes_self() {
        let rt = runtime(3);
        let who = rt
            .action("coll::who")
            .register_with_locality(|here, (): ()| here);
        let ids = rt.run_on(2, move |ctx| {
            let futures = ctx.broadcast_all(&who, ());
            ctx.wait_all(futures).unwrap()
        });
        assert_eq!(ids, vec![0, 1, 2]);
        rt.shutdown();
    }

    #[test]
    fn reduce_folds_across_cluster() {
        let rt = runtime(4);
        let sq = rt
            .action("coll::sq")
            .register_with_locality(|here, (): ()| u64::from(here) * u64::from(here));
        let sum = rt.run_on(0, move |ctx| {
            ctx.reduce(&sq, (), 0u64, |acc, v| acc + v).unwrap()
        });
        assert_eq!(sum, 1 + 4 + 9);
        rt.shutdown();
    }

    #[test]
    fn scatter_delivers_per_destination_args() {
        let rt = runtime(3);
        let echo = rt
            .action("coll::echo")
            .register_with_locality(|here, v: u64| (u64::from(here), v));
        let out = rt.run_on(0, move |ctx| {
            let futures = ctx.scatter(&echo, vec![10, 20, 30]);
            ctx.wait_all(futures).unwrap()
        });
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30)]);
        rt.shutdown();
    }

    #[test]
    // The arity panic fires inside the driver task; the calling thread
    // observes it as the driver bridge failing.
    #[should_panic(expected = "driver task panicked")]
    fn scatter_arity_mismatch_panics() {
        let rt = runtime(2);
        let echo = rt.action("coll::e2").register(|v: u64| v);
        rt.run_on(0, move |ctx| {
            let _ = ctx.scatter(&echo, vec![1]);
        });
        rt.shutdown();
    }

    #[test]
    fn broadcast_composes_with_coalescing() {
        use rpx_coalesce::CoalescingParams;
        use std::time::Duration;
        let rt = runtime(4);
        let ping = rt.action("coll::ping").register(|v: u64| v + 1);
        let control = rt
            .enable_coalescing(
                "coll::ping",
                CoalescingParams::new(8, Duration::from_micros(1000)),
            )
            .unwrap();
        let total = rt.run_on(0, move |ctx| {
            let mut futures = Vec::new();
            for round in 0..20u64 {
                futures.extend(ctx.broadcast(&ping, round));
            }
            ctx.wait_all(futures).unwrap().len()
        });
        assert_eq!(total, 60);
        assert_eq!(control.counters(0).unwrap().parcels.get(), 60);
        rt.shutdown();
    }
}
