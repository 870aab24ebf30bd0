//! Quickstart: boot a two-locality RPX cluster, register an action,
//! enable message coalescing for it, and watch the paper's counters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::time::Duration;

use rpx::{CoalescingParams, Complex64, Runtime, RuntimeConfig};

fn main() {
    // A 2-locality in-process cluster with a cluster-like link model
    // (~20 µs per-message software overhead).
    let rt = Runtime::new(RuntimeConfig::default());

    // Register a remotely invocable action on every locality — the
    // analogue of HPX_PLAIN_ACTION in Listing 1 of the paper.
    let get_cplx = rt
        .action("get_cplx")
        .register(|(): ()| Complex64::new(13.3, -23.8));

    // Flag it for message coalescing (HPX_ACTION_USES_MESSAGE_COALESCING):
    // up to 32 parcels per message, flushed after 2000 µs at the latest.
    let control = rt
        .enable_coalescing(
            "get_cplx",
            CoalescingParams::new(32, Duration::from_micros(2000)),
        )
        .expect("action is registered");

    // Drive from locality 0: invoke the action 10 000 times on locality 1
    // and wait for all results (hpx::async + hpx::wait_all).
    let n = 10_000;
    let t0 = std::time::Instant::now();
    let first = rt.run_on(0, move |ctx| {
        let other = ctx.find_remote_localities()[0];
        let futures: Vec<_> = (0..n)
            .map(|_| ctx.async_action(&get_cplx, other, ()))
            .collect();
        let values = ctx.wait_all(futures).expect("remote invocations succeed");
        values[0]
    });
    let elapsed = t0.elapsed();

    println!("{n} remote invocations in {elapsed:?}; first result = {first}");

    // The counters the paper adds to HPX:
    let counters = control.counters(0).expect("locality 0");
    println!(
        "parcels = {}   messages = {}   avg parcels/message = {:.1}",
        counters.parcels.get(),
        counters.messages.get(),
        counters.parcels_per_message.ratio()
    );
    println!(
        "network overhead (Eq. 4) on locality 0 = {:.3}",
        rt.metrics(0).network_overhead()
    );

    rt.shutdown();
}
