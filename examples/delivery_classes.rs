//! Delivery-class A/B on the state-sync fan-in: the same monotone
//! update torrent runs once under `Lossless` and once under `Coalesce`,
//! and the wire-byte / message counts are compared. Both legs converge
//! on the identical final state — the delta is pure wire volume the
//! newest-wins mailboxes never shipped.
//!
//! ```text
//! cargo run --release --example delivery_classes
//! ```
//!
//! The committed EXPERIMENTS.md "Delivery classes" record comes from
//! this binary.

use std::time::Duration;

use rpx_apps::{run_statesync_pair, StateSyncConfig, StateSyncReport};

fn row(name: &str, r: &StateSyncReport) {
    println!(
        "  {name:<9} {:>8} {:>12} {:>10} {:>10.1} ms",
        r.updates_sent,
        r.wire_bytes,
        r.messages_sent,
        r.wall.as_secs_f64() * 1e3,
    );
}

fn main() {
    // 8 producer streams × 200 updates each, a new value every 200 µs;
    // Coalesce mailboxes flush on a 2 ms cadence, so ~10 updates race
    // into each slot between flushes.
    let config = StateSyncConfig {
        producers: 8,
        updates_per_stream: 200,
        update_interval: Duration::from_micros(200),
        coalesce_interval: Duration::from_millis(2),
        ..StateSyncConfig::default()
    };

    let pair = run_statesync_pair(&config).expect("state-sync pair");

    println!(
        "state-sync fan-in: {} streams x {} updates, update every {:?}, coalesce interval {:?}",
        config.producers,
        config.updates_per_stream,
        config.update_interval,
        config.coalesce_interval
    );
    println!(
        "  {:<9} {:>8} {:>12} {:>10} {:>13}",
        "class", "updates", "wire bytes", "messages", "wall"
    );
    row("lossless", &pair.lossless);
    row("coalesce", &pair.coalesce);
    println!(
        "  wire-byte reduction: {:.1}x (acceptance bar: >= 2x)",
        pair.wire_byte_reduction()
    );
    assert!(
        pair.wire_byte_reduction() >= 2.0,
        "coalesce should cut wire bytes at least 2x"
    );
}
