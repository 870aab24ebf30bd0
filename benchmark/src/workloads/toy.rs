//! `toy_adaptive_sim` — Listing 1 of the paper: two localities exchange
//! single-`Complex64` `async_action`s in both directions, in phases of a
//! fixed parcel count, on the modelled cluster link, with the global
//! coalescer seeded at `nparcels = 1` and the global controller steering
//! it. Closed batch: a phase ends when every future has resolved and the
//! runtime is quiescent.
//!
//! Listing 1 has no free inputs, so the seed only labels the run.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::{
    adaptive_values, check_coalesced_count, flood, per_phase_latency, AbRates, Measured, Shapes,
    Spec, Workload,
};
use crate::counters::Delta;
use crate::metrics::Values;
use crate::rpx_api::{
    self, ActionHandle, AdaptiveConfig, Boot, CoalescingControl, CoalescingParams, Complex64, Ctx,
    Ladder, Link, OverheadController, Runtime,
};
use crate::trace::{SpanBuf, Trace};

const ACTION: &str = "toy::get_cplx";
const EXPECTED: Complex64 = Complex64::new(13.3, -23.8);
/// Parcels per phase in each direction: ~190 ms per phase at the seeded
/// `nparcels = 1`, ~22 ms once the controller has climbed. Phases of
/// 20 000 (100–150 ms at the plateau) were tried first: a phase then
/// spans many 20 ms controller windows, Eq. 4 read over a slice of a
/// phase is noise, and runs ended anywhere between nparcels 1 and 1024
/// (README, "Sizing the toy").
const PARCELS_PER_PHASE: usize = 2_000;
/// Top rung of the controller's ladder. Throughput keeps rising with
/// `nparcels` (+20 % from 128 to 512) and the controller never stops
/// wandering, so an open-ended ladder makes `parcels_per_s` a function of
/// where it happened to hover; capped here it hovers on 32–64.
const LADDER_TOP: usize = 64;
/// Set-up drives warm-up phases for this long: the climb from 1 takes
/// 0.3–1.1 s and is reported as `adaptive.settle_ms`, not timed.
const WARM_UP: Duration = Duration::from_millis(750);
/// Listing 1's flush interval.
const INTERVAL: Duration = Duration::from_micros(4000);

pub struct Toy {
    rt: Arc<Runtime>,
    boot: Duration,
    action: ActionHandle<(), Complex64>,
    control: CoalescingControl,
    controller: OverheadController,
    controller_started: Instant,
}

/// What one driver task hands back for one phase.
struct Driven {
    wrong: u64,
    lat_us: Vec<f64>,
    spans: SpanBuf,
}

/// One locality's half of a phase.
fn drive(
    ctx: &Ctx,
    action: &ActionHandle<(), Complex64>,
    dest: u32,
    phase: u64,
    mut spans: SpanBuf,
) -> Driven {
    let root = spans.open("phase.drive", None, phase);
    let mut wrong = 0;
    let lat_us = flood(
        ctx,
        action,
        &mut spans,
        root,
        phase,
        (0..PARCELS_PER_PHASE).map(|_| (dest, ())),
        |r| wrong += u64::from(r.ok() != Some(EXPECTED)),
    );
    spans.close(root);
    Driven {
        wrong,
        lat_us,
        spans,
    }
}

impl Toy {
    /// One phase: both localities drive at once (the reverse direction as
    /// a task on locality 1, the forward one on locality 0 with this
    /// thread blocked on it), then flush and drain.
    fn phase(&self, phase: u64, traced: bool, epoch: Instant) -> (Duration, Driven, Driven) {
        let started = Instant::now();
        let (tx, rx) = mpsc::channel();
        let action = self.action.clone();
        self.rt.spawn_on(1, move |ctx| {
            let _ = tx.send(drive(ctx, &action, 0, phase, SpanBuf::new(traced, epoch)));
        });
        let action = self.action.clone();
        let mut forward = self.rt.run_on(0, move |ctx| {
            drive(ctx, &action, 1, phase, SpanBuf::new(traced, epoch))
        });
        let reverse = rx.recv().expect("reverse driver finished");
        forward.spans.scope("quiesce", None, phase, || {
            self.control.flush();
            assert!(
                self.rt.wait_quiescent(Duration::from_secs(30)),
                "toy phase did not drain"
            );
        });
        (started.elapsed(), forward, reverse)
    }
}

impl Workload for Toy {
    fn setup(_spec: &Spec) -> Self {
        let t = Instant::now();
        let rt = rpx_api::boot(&Boot {
            localities: 2,
            // Each locality's driver task holds a worker for the whole
            // phase; the second one runs the handlers and the pump.
            workers_per_locality: 2,
            link: Link::SimCluster,
            backpressure_watermark: None,
        });
        let boot = t.elapsed();
        let action = rt.action(ACTION).register(|(): ()| EXPECTED);
        let control = rpx_api::coalesce_global(&rt, ACTION, CoalescingParams::new(1, INTERVAL));
        let controller_started = Instant::now();
        let config = AdaptiveConfig {
            ladder: Ladder::powers_of_two(LADDER_TOP),
            ..AdaptiveConfig::default()
        };
        let controller = rpx_api::steer_global(&control, &rt, 0, config);
        let toy = Toy {
            rt,
            boot,
            action,
            control,
            controller,
            controller_started,
        };
        while controller_started.elapsed() < WARM_UP {
            toy.phase(0, false, controller_started);
        }
        toy
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
            payload_bytes: 0,
            flush_interval: Some(INTERVAL),
            link: Link::SimCluster,
            throughput_bound: true,
            large_payloads: false,
            steered: true,
            replies: true,
        }
    }

    fn run(&mut self, spec: &Spec) -> Measured {
        let epoch = Instant::now();
        let window_start = self.controller_started.elapsed();
        let budget = Duration::from_secs_f64(spec.seconds);
        let per_phase = 2 * PARCELS_PER_PHASE as u64;
        let mut trace = Trace::default();
        let mut ab = AbRates::default();
        let (mut phase_ms, mut phase_lat) = (Vec::new(), Vec::new());
        let (mut wrong, mut phases) = (0u64, 0u64);
        while epoch.elapsed() < budget {
            phases += 1;
            let traced = spec.trace && phases % 2 == 1;
            let (wall, forward, reverse) = self.phase(phases, traced, epoch);
            ab.add(traced, per_phase, wall);
            phase_ms.push(wall.as_secs_f64() * 1e3);
            wrong += forward.wrong + reverse.wrong;
            phase_lat.push([forward.lat_us, reverse.lat_us].concat());
            trace.add(forward.spans.into_spans());
            trace.add(reverse.spans.into_spans());
        }
        let window = epoch.elapsed();
        let attempted = phases * per_phase;

        let mut layer = Values::new();
        let decisions: Vec<_> = self
            .controller
            .decisions()
            .iter()
            .map(|d| (0, d.at, d.nparcels))
            .collect();
        adaptive_values(
            &decisions,
            window_start,
            window_start + window,
            self.control.params().load().nparcels,
            &mut layer,
        );
        let (lat_us_p50, lat_us_p99) = per_phase_latency(&phase_lat);
        Measured {
            attempted,
            failed: wrong,
            completed: attempted - wrong,
            window,
            phase_ms,
            lat_us: phase_lat.concat(),
            lat_us_p50,
            lat_us_p99,
            problems: Vec::new(),
            layer,
            trace,
            ab,
        }
    }

    fn verify(&self, delta: &Delta, measured: &Measured) -> Vec<String> {
        check_coalesced_count(delta, ACTION, measured.attempted)
    }

    fn finish(self) -> Arc<Runtime> {
        self.controller.stop();
        self.rt
    }
}
