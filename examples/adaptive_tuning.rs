//! Adaptive coalescing in action — the closed loop the paper proposes as
//! future work.
//!
//! A workload with two communication phases (dense burst traffic, then a
//! second dense phase after a rate shift) runs while the
//! [`rpx::OverheadController`] watches `/threads/background-overhead`
//! and the parcel arrival-rate counters, re-tuning `nparcels` online.
//! The decision log is printed at the end.
//!
//! ```text
//! cargo run --release --example adaptive_tuning
//! ```

use std::sync::Arc;
use std::time::Duration;

use rpx::{AdaptiveConfig, CoalescingParams, Complex64, Runtime, RuntimeConfig};
use rpx_adaptive::Ladder;

fn main() {
    let rt = Runtime::new(RuntimeConfig::default());
    let act = rt
        .action("adapt::get")
        .register(|(): ()| Complex64::new(13.3, -23.8));

    // Start from the pessimal setting: one parcel per message.
    let control = rt
        .enable_coalescing(
            "adapt::get",
            CoalescingParams::new(1, Duration::from_micros(2000)),
        )
        .expect("action registered");

    let controller = control.start_adaptive(
        &rt,
        0,
        AdaptiveConfig {
            window: Duration::from_millis(15),
            ladder: Ladder::powers_of_two(512),
            ..AdaptiveConfig::default()
        },
    );

    // Phase A: 6 rounds of dense traffic.
    let rounds = 6;
    let per_round = 8_000;
    for round in 0..rounds {
        let act = act.clone();
        let t0 = std::time::Instant::now();
        rt.run_on(0, move |ctx| {
            let futures: Vec<_> = (0..per_round)
                .map(|_| ctx.async_action(&act, 1, ()))
                .collect();
            ctx.wait_all(futures).expect("round");
        });
        println!(
            "round {round}: {:.3}s with nparcels = {}",
            t0.elapsed().as_secs_f64(),
            control.params().load().nparcels
        );
    }

    let decisions = controller.stop();
    println!("\ncontroller made {} decisions:", decisions.len());
    for d in &decisions {
        println!(
            "  t+{:>6.0}ms  nparcels → {:<4}  overhead {:.3}  rate {:>9.0}/s{}",
            d.at.as_secs_f64() * 1e3,
            d.nparcels,
            d.overhead,
            d.rate,
            if d.phase_change {
                "  [phase change]"
            } else {
                ""
            }
        );
    }
    println!(
        "final: nparcels = {} (started at 1)",
        control.params().load().nparcels
    );

    let _ = Arc::strong_count(&rt);
    rt.shutdown();
}
