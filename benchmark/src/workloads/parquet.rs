//! `parquet_static_shm` — the Parquet rotation: every iteration the two
//! localities send `8·Nc²` parcels of `Nc` complex doubles to each other,
//! wait for the acknowledgements, run a 1 ms stand-in contraction and meet
//! on a barrier. Static coalescing at fig. 6's optimum over the shm rings,
//! with egress backpressure on. Closed batch.
//!
//! `Runtime::barrier` is a no-op when one process hosts every locality,
//! so the iteration barrier is the `Barrier` LCO `rpx-apps::parquet` uses.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{
    check_coalesced_count, flood, per_phase_latency, AbRates, Measured, Shapes, Spec, Workload,
};
use crate::counters::Delta;
use crate::metrics::Values;
use crate::rpx_api::{
    self, ActionHandle, Barrier, Boot, CoalescingControl, CoalescingParams, Complex64, Ctx, Link,
    Runtime,
};
use crate::trace::{SpanBuf, Trace};

const ACTION: &str = "parquet::rotate";
/// Linear tensor dimension: rows of 48 complex doubles (768 B), 18 432
/// parcels per iteration, ~105 ms per iteration on the 2-core reference box.
const NC: usize = 48;
const ROWS_PER_LOCALITY: usize = 8 * NC * NC / 2;
/// Fig. 6's optimum.
const PARAMS: (usize, Duration) = (4, Duration::from_micros(4000));
const COMPUTE: Duration = Duration::from_millis(1);
/// Above the 2 304 egress entries one locality queues per iteration, so
/// admission control runs on every submit and never blocks. At the 256
/// first specified an iteration took 3.7 s, 92 % of it in 500 µs admission
/// sleeps: the handler tasks' reply parcels block at the same watermark on
/// the only worker left to pump (README, "The Parquet watermark").
const WATERMARK: usize = 4096;

type Row = Vec<Complex64>;

pub struct Parquet {
    rt: Arc<Runtime>,
    boot: Duration,
    action: ActionHandle<Row, f64>,
    control: CoalescingControl,
    barrier: Arc<Barrier>,
    /// One iteration's rows per locality, generated from the seed.
    rows: [Arc<Vec<Row>>; 2],
    /// Σ of the acknowledgements one iteration must produce.
    checksum_per_iteration: f64,
}

/// Row `i` of `locality`: element `k` is `(base + k, -k)` with an integer
/// base, so every sum below is exact in `f64` whatever the order.
fn row_base(seed: u64, locality: u32, i: usize) -> f64 {
    ((seed % 997) + 1000 * u64::from(locality) + (i % 251) as u64) as f64
}

/// The acknowledgement the rotate action returns for that row: Σ re.
fn row_ack(base: f64) -> f64 {
    (NC as f64) * base + (NC * (NC - 1) / 2) as f64
}

/// The stand-in contraction kernel of `rpx-apps::parquet`.
fn contraction_kernel(duration: Duration) -> Complex64 {
    let start = Instant::now();
    let mut acc = Complex64::new(1.0, 0.5);
    let step = Complex64::new(0.999_9, 1e-4);
    let mut i = 0usize;
    while start.elapsed() < duration {
        for _ in 0..64 {
            acc = acc * step + Complex64::new(1e-12 * (i % NC) as f64, 0.0);
            i += 1;
        }
    }
    acc
}

struct Driven {
    acks: f64,
    errors: u64,
    lat_us: Vec<f64>,
    spans: SpanBuf,
}

/// One locality's iteration: rotation, contraction, barrier.
fn iterate(
    ctx: &Ctx,
    action: &ActionHandle<Row, f64>,
    rows: &[Row],
    barrier: &Barrier,
    iteration: u64,
    mut spans: SpanBuf,
) -> Driven {
    let peer = 1 - ctx.locality();
    let root = spans.open("phase.drive", None, iteration);
    let (mut acks, mut errors) = (0.0, 0);
    let lat_us = flood(
        ctx,
        action,
        &mut spans,
        root,
        iteration,
        rows.iter().map(|row| (peer, row.clone())),
        |r| match r {
            Ok(ack) => acks += ack,
            Err(_) => errors += 1,
        },
    );
    spans.scope("compute", root, iteration, || {
        std::hint::black_box(contraction_kernel(COMPUTE))
    });
    spans.scope("barrier", root, iteration, || {
        barrier.arrive_and_wait_with(|| ctx.pump())
    });
    spans.close(root);
    Driven {
        acks,
        errors,
        lat_us,
        spans,
    }
}

impl Parquet {
    fn iteration(
        &self,
        iteration: u64,
        traced: bool,
        epoch: Instant,
    ) -> (Duration, Driven, Driven) {
        let started = Instant::now();
        let (tx, rx) = mpsc::channel();
        let (action, rows, barrier) = (
            self.action.clone(),
            Arc::clone(&self.rows[1]),
            Arc::clone(&self.barrier),
        );
        self.rt.spawn_on(1, move |ctx| {
            let spans = SpanBuf::new(traced, epoch);
            let _ = tx.send(iterate(ctx, &action, &rows, &barrier, iteration, spans));
        });
        let (action, rows, barrier) = (
            self.action.clone(),
            Arc::clone(&self.rows[0]),
            Arc::clone(&self.barrier),
        );
        let here = self.rt.run_on(0, move |ctx| {
            iterate(
                ctx,
                &action,
                &rows,
                &barrier,
                iteration,
                SpanBuf::new(traced, epoch),
            )
        });
        let peer = rx.recv().expect("peer driver finished");
        (started.elapsed(), here, peer)
    }
}

impl Workload for Parquet {
    fn setup(spec: &Spec) -> Self {
        let seed = spec.seed;
        let t = Instant::now();
        let rt = rpx_api::boot(&Boot {
            localities: 2,
            // The driver task holds one worker through the iteration.
            workers_per_locality: 2,
            link: Link::ShmRings,
            backpressure_watermark: Some(WATERMARK),
        });
        let boot = t.elapsed();
        let action = rt.action(ACTION).register(|row: Row| {
            let mut sum = Complex64::ZERO;
            for v in &row {
                sum += *v;
            }
            sum.re
        });
        let control =
            rpx_api::coalesce_global(&rt, ACTION, CoalescingParams::new(PARAMS.0, PARAMS.1));
        let mut checksum_per_iteration = 0.0;
        let rows = [0u32, 1].map(|locality| {
            Arc::new(
                (0..ROWS_PER_LOCALITY)
                    .map(|i| {
                        let base = row_base(seed, locality, i);
                        checksum_per_iteration += row_ack(base);
                        (0..NC)
                            .map(|k| Complex64::new(base + k as f64, -(k as f64)))
                            .collect()
                    })
                    .collect::<Vec<Row>>(),
            )
        });
        let parquet = Parquet {
            rt,
            boot,
            action,
            control,
            barrier: Arc::new(Barrier::new(2)),
            rows,
            checksum_per_iteration,
        };
        parquet.iteration(0, false, Instant::now());
        parquet
    }

    fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    fn boot_time(&self) -> Duration {
        self.boot
    }

    fn coalesced(&self) -> &'static [&'static str] {
        &[ACTION, "rpx::set-lco"]
    }

    fn shapes(&self) -> Shapes {
        Shapes {
            payload_bytes: NC * std::mem::size_of::<Complex64>(),
            flush_interval: Some(PARAMS.1),
            link: Link::ShmRings,
            throughput_bound: true,
            large_payloads: false,
            steered: false,
            replies: true,
        }
    }

    fn run(&mut self, spec: &Spec) -> Measured {
        let epoch = Instant::now();
        let budget = Duration::from_secs_f64(spec.seconds);
        let per_iteration = 2 * ROWS_PER_LOCALITY as u64;
        let mut trace = Trace::default();
        let mut ab = AbRates::default();
        let (mut phase_ms, mut phase_lat) = (Vec::new(), Vec::new());
        let (mut acks, mut errors, mut iterations) = (0.0, 0u64, 0u64);
        while epoch.elapsed() < budget {
            iterations += 1;
            let traced = spec.trace && iterations % 2 == 1;
            let (wall, here, peer) = self.iteration(iterations, traced, epoch);
            ab.add(traced, per_iteration, wall);
            phase_ms.push(wall.as_secs_f64() * 1e3);
            acks += here.acks + peer.acks;
            errors += here.errors + peer.errors;
            phase_lat.push([here.lat_us, peer.lat_us].concat());
            trace.add(here.spans.into_spans());
            trace.add(peer.spans.into_spans());
        }
        let window = epoch.elapsed();
        self.control.flush();
        assert!(
            self.rt.wait_quiescent(Duration::from_secs(30)),
            "parquet did not drain"
        );

        let attempted = iterations * per_iteration;
        let mut problems = Vec::new();
        let expected = iterations as f64 * self.checksum_per_iteration;
        if errors == 0 && acks != expected {
            problems.push(format!(
                "received-row checksum {acks} != closed form {expected}"
            ));
        }
        let (lat_us_p50, lat_us_p99) = per_phase_latency(&phase_lat);
        Measured {
            attempted,
            failed: errors,
            completed: attempted - errors,
            window,
            phase_ms,
            lat_us: phase_lat.concat(),
            lat_us_p50,
            lat_us_p99,
            problems,
            layer: Values::new(),
            trace,
            ab,
        }
    }

    fn verify(&self, delta: &Delta, measured: &Measured) -> Vec<String> {
        check_coalesced_count(delta, ACTION, measured.attempted)
    }

    fn finish(self) -> Arc<Runtime> {
        self.rt
    }
}
