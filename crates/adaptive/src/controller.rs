//! The overhead-driven adaptive controller.
//!
//! This is the system the paper's methodology is designed to enable: a
//! runtime component that watches the *instantaneous* network-overhead
//! metric (Eq. 4 computed over sampling windows) together with the parcel
//! arrival-rate counters, and re-tunes the coalescing parameters of a live
//! application — without requiring the application to be iterative, which
//! is the limitation of the PICS approach ([`crate::PicsTuner`]).
//!
//! Structure:
//! * [`ControllerCore`] — the pure decision logic (warm-up, phase-change
//!   detection on the arrival rate, hill climbing on the overhead score).
//!   Deterministically testable.
//! * One private engine — the only steering thread. Every window it reads
//!   the locality-wide Eq. 4 overhead from a [`MetricsReader`] once, asks
//!   a *target enumerator* for the `(dest, params, counters)` knobs to
//!   steer, and ticks one [`ControllerCore`] per target on that target's
//!   own parcel count. It never asks whether it is running "globally" or
//!   "per destination".
//! * [`OverheadController`] — the engine with a fixed one-element target
//!   list: one knob per action, the degenerate single-destination case.
//! * [`PerDestController`] — the engine enumerating the destinations of a
//!   per-destination [`Coalescer`], discovered dynamically as traffic
//!   reaches them, so a hot peer and a cold peer converge to different
//!   operating points.
//!
//! Seeding rule: a target present when the controller starts begins its
//! first window at its *current* parcel count (its history is not this
//! window's traffic); a target discovered later begins at zero (it was
//! created by the first parcel of the window that discovered it).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use rpx_coalesce::{Coalescer, CoalescingCounters, ParamsHandle};
use rpx_metrics::MetricsReader;
use rpx_util::Ewma;

use crate::search::{HillClimber, Ladder};

/// Controller configuration.
#[derive(Debug, Clone)]
pub struct AdaptiveConfig {
    /// Measurement window between decisions.
    pub window: Duration,
    /// Candidate `nparcels` ladder.
    pub ladder: Ladder,
    /// Relative improvement required to keep climbing.
    pub hysteresis: f64,
    /// Arrival-rate shift (relative factor) treated as a phase change.
    pub phase_change_factor: f64,
    /// Windows ignored before the first decision (startup transients).
    pub warmup_windows: u32,
    /// Minimum parcels per window for a decision (quiet windows carry no
    /// signal).
    pub min_parcels_per_window: u64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window: Duration::from_millis(20),
            ladder: Ladder::powers_of_two(1024),
            hysteresis: 0.02,
            phase_change_factor: 4.0,
            warmup_windows: 2,
            min_parcels_per_window: 16,
        }
    }
}

/// One decision made by the controller (for reporting/plots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// Time since the controller started.
    pub at: Duration,
    /// The `nparcels` value chosen for the next window.
    pub nparcels: usize,
    /// The overhead observed over the completed window.
    pub overhead: f64,
    /// Parcel arrival rate over the window (parcels/second).
    pub rate: f64,
    /// Whether this decision followed a detected phase change.
    pub phase_change: bool,
}

/// Pure decision logic (no threads, no clocks).
#[derive(Debug, Clone)]
pub struct ControllerCore {
    config: AdaptiveConfig,
    climber: HillClimber,
    rate_ewma: Ewma,
    windows_seen: u32,
    phase_changes: u32,
}

impl ControllerCore {
    /// New core starting from `initial_nparcels`.
    pub fn new(config: AdaptiveConfig, initial_nparcels: usize) -> Self {
        let climber = HillClimber::new(config.ladder.clone(), initial_nparcels, config.hysteresis);
        ControllerCore {
            config,
            climber,
            rate_ewma: Ewma::with_half_life(4.0),
            windows_seen: 0,
            phase_changes: 0,
        }
    }

    /// The `nparcels` the application should currently be running with.
    pub fn current(&self) -> usize {
        self.climber.current()
    }

    /// Number of detected phase changes.
    pub fn phase_changes(&self) -> u32 {
        self.phase_changes
    }

    /// Whether the search has converged for the current phase.
    pub fn is_settled(&self) -> bool {
        self.climber.is_settled()
    }

    /// Feed one window's observations; returns the next `nparcels` to
    /// apply (and whether this window was treated as a phase change), or
    /// `None` if no decision was made (warm-up or quiet window).
    pub fn tick(
        &mut self,
        overhead: f64,
        parcels_in_window: u64,
        rate: f64,
    ) -> Option<(usize, bool)> {
        self.windows_seen += 1;
        if self.windows_seen <= self.config.warmup_windows {
            self.rate_ewma.update(rate);
            return None;
        }
        if parcels_in_window < self.config.min_parcels_per_window {
            // Quiet window: the sparse-traffic bypass in the coalescer
            // already handles this regime; don't steer on noise.
            return None;
        }
        let mut phase_change = false;
        if let Some(smoothed) = self.rate_ewma.value() {
            if smoothed > 0.0 {
                let ratio = rate / smoothed;
                if ratio > self.config.phase_change_factor
                    || ratio < 1.0 / self.config.phase_change_factor
                {
                    phase_change = true;
                    self.phase_changes += 1;
                    self.climber.reset();
                    self.rate_ewma.reset();
                }
            }
        }
        self.rate_ewma.update(rate);
        let next = self.climber.observe(overhead);
        Some((next, phase_change))
    }
}

/// One decision made for one destination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DestDecision {
    /// The destination locality this decision applies to.
    pub dest: u32,
    /// The decision itself (the destination's own rate and window count;
    /// the overhead signal is the locality-wide Eq. 4 measurement).
    pub decision: Decision,
}

/// One steered knob: its destination id, the live parameter handle and
/// the counters recording the traffic that handle governs.
type Target = (u32, ParamsHandle, Arc<CoalescingCounters>);

struct Shared {
    stopped: Mutex<bool>,
    wake: Condvar,
    decisions: Mutex<Vec<DestDecision>>,
}

impl Shared {
    /// Sleep one window. Returns `false` as soon as a stop is requested.
    fn sleep_window(&self, window: Duration) -> bool {
        let deadline = Instant::now() + window;
        let mut stopped = self.stopped.lock();
        while !*stopped && !self.wake.wait_until(&mut stopped, deadline).timed_out() {}
        !*stopped
    }
}

/// The steering loop: the only "rpx-adaptive" thread, window wait, stop
/// flag and decision log. Both public handles are this engine; they
/// differ only in the target enumerator they hand it.
struct Engine {
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Engine {
    /// Steer every knob `targets` returns from `reader`'s windowed Eq. 4
    /// overhead. `targets` is called now and at each window boundary.
    fn start(
        reader: MetricsReader,
        targets: impl Fn() -> Vec<Target> + Send + 'static,
        config: AdaptiveConfig,
    ) -> Engine {
        let shared = Arc::new(Shared {
            stopped: Mutex::new(false),
            wake: Condvar::new(),
            decisions: Mutex::new(Vec::new()),
        });
        let started = Instant::now();
        let mut last_sample = reader.sample();
        let new_core = |config: &AdaptiveConfig, params: &ParamsHandle| {
            ControllerCore::new(config.clone(), params.load().nparcels)
        };
        // Per target: its hill climber plus the parcel count at the
        // previous window boundary (see the module docs' seeding rule).
        let mut cores: HashMap<u32, (ControllerCore, u64)> = targets()
            .into_iter()
            .map(|(dest, params, counters)| {
                (dest, (new_core(&config, &params), counters.parcels.get()))
            })
            .collect();
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("rpx-adaptive".to_string())
            .spawn(move || {
                while thread_shared.sleep_window(config.window) {
                    let sample = reader.sample();
                    let overhead = sample.delta_since(&last_sample).network_overhead();
                    last_sample = sample;
                    for (dest, params, counters) in targets() {
                        let (core, last_parcels) = cores
                            .entry(dest)
                            .or_insert_with(|| (new_core(&config, &params), 0));
                        let parcels_now = counters.parcels.get();
                        let parcels_in_window = parcels_now.saturating_sub(*last_parcels);
                        *last_parcels = parcels_now;
                        let rate = parcels_in_window as f64 / config.window.as_secs_f64();
                        if let Some((next, phase_change)) =
                            core.tick(overhead, parcels_in_window, rate)
                        {
                            params.set_nparcels(next);
                            thread_shared.decisions.lock().push(DestDecision {
                                dest,
                                decision: Decision {
                                    at: started.elapsed(),
                                    nparcels: next,
                                    overhead,
                                    rate,
                                    phase_change,
                                },
                            });
                        }
                    }
                }
            })
            .expect("failed to spawn adaptive controller");
        Engine {
            shared,
            thread: Some(thread),
        }
    }

    fn decisions(&self) -> Vec<DestDecision> {
        self.shared.decisions.lock().clone()
    }

    /// Stop the loop, join it and return the decision log.
    fn stop(mut self) -> Vec<DestDecision> {
        self.join();
        std::mem::take(&mut *self.shared.decisions.lock())
    }

    fn join(&mut self) {
        *self.shared.stopped.lock() = true;
        self.shared.wake.notify_all();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.join();
    }
}

/// The live controller for one knob per action: the engine with a fixed
/// one-element target list.
pub struct OverheadController(Engine);

impl OverheadController {
    /// Start controlling `params` using metrics from `reader` and traffic
    /// counts from `counters`.
    pub fn start(
        reader: MetricsReader,
        params: ParamsHandle,
        counters: Arc<CoalescingCounters>,
        config: AdaptiveConfig,
    ) -> Self {
        let targets = move || vec![(0, params.clone(), Arc::clone(&counters))];
        OverheadController(Engine::start(reader, targets, config))
    }

    /// Decisions made so far.
    pub fn decisions(&self) -> Vec<Decision> {
        strip_dest(self.0.decisions())
    }

    /// Stop the controller and return its decision log.
    pub fn stop(self) -> Vec<Decision> {
        strip_dest(self.0.stop())
    }
}

fn strip_dest(log: Vec<DestDecision>) -> Vec<Decision> {
    log.into_iter().map(|d| d.decision).collect()
}

/// The per-destination adaptive controller: the engine with the
/// destinations of a per-destination [`Coalescer`] as its targets.
///
/// Every window the locality-wide overhead signal is read once, then each
/// destination's [`ControllerCore`] ticks with that destination's own
/// parcel count and arrival rate. Destinations whose window was quiet make
/// no decision (the coalescer's sparse-traffic bypass already covers that
/// regime), so a cold peer keeps its seed parameters while a hot peer
/// climbs — the per-destination split the paper's global knob cannot
/// express. New destinations are picked up on the next window boundary;
/// each core seeds from the destination's current parameter value.
pub struct PerDestController(Engine);

impl PerDestController {
    /// Start steering `coalescer`'s per-destination parameters using
    /// metrics from `reader`.
    pub fn start(reader: MetricsReader, coalescer: Arc<Coalescer>, config: AdaptiveConfig) -> Self {
        let targets = move || {
            let target = |dst| (dst, coalescer.params_for(dst), coalescer.counters_for(dst));
            coalescer.destinations().into_iter().map(target).collect()
        };
        PerDestController(Engine::start(reader, targets, config))
    }

    /// Decisions made so far, in tick order (interleaved across
    /// destinations).
    pub fn decisions(&self) -> Vec<DestDecision> {
        self.0.decisions()
    }

    /// Stop the controller and return its decision log.
    pub fn stop(self) -> Vec<DestDecision> {
        self.0.stop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpx_coalesce::{CoalescingParams, FlushPolicy};
    use rpx_counters::{CallbackCounter, CounterRegistry, CounterValue};
    use rpx_parcel::{ParcelBatch, SendPath};
    use rpx_util::TimerService;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc;

    fn config() -> AdaptiveConfig {
        AdaptiveConfig {
            window: Duration::from_millis(5),
            ladder: Ladder::powers_of_two(256),
            hysteresis: 0.01,
            phase_change_factor: 4.0,
            warmup_windows: 1,
            min_parcels_per_window: 10,
        }
    }

    /// Synthetic overhead landscape: convex in log2(nparcels) with a
    /// minimum at `opt`.
    fn overhead_for(nparcels: usize, opt: f64) -> f64 {
        0.1 + 0.05 * ((nparcels as f64).log2() - opt).abs()
    }

    #[test]
    fn core_converges_to_overhead_minimum() {
        let mut core = ControllerCore::new(config(), 1);
        for _ in 0..30 {
            let oh = overhead_for(core.current(), 4.0); // optimum 16
            core.tick(oh, 1000, 1e5);
        }
        assert!(core.is_settled());
        let v = core.current();
        assert!((8..=32).contains(&v), "settled at {v}");
        assert_eq!(core.phase_changes(), 0);
    }

    #[test]
    fn warmup_windows_make_no_decision() {
        let mut core = ControllerCore::new(config(), 4);
        assert_eq!(core.tick(0.5, 1000, 1e5), None); // warm-up
        assert!(core.tick(0.5, 1000, 1e5).is_some());
    }

    #[test]
    fn quiet_windows_make_no_decision() {
        let mut core = ControllerCore::new(config(), 4);
        core.tick(0.5, 1000, 1e5); // warm-up
        assert_eq!(core.tick(0.5, 3, 300.0), None);
        // The chosen value is untouched.
        assert_eq!(core.current(), 4);
    }

    #[test]
    fn rate_shift_triggers_phase_change_and_research() {
        let mut core = ControllerCore::new(config(), 1);
        // Converge in a slow phase (optimum 4).
        for _ in 0..30 {
            let oh = overhead_for(core.current(), 2.0);
            core.tick(oh, 1000, 1e4);
        }
        assert!(core.is_settled());
        // Rate jumps 10×: phase change must re-arm the search…
        let (_, phase_change) = core
            .tick(overhead_for(core.current(), 6.0), 10_000, 1e5)
            .unwrap();
        assert!(phase_change);
        assert_eq!(core.phase_changes(), 1);
        // …and the climber must then converge towards the new optimum 64.
        for _ in 0..30 {
            let oh = overhead_for(core.current(), 6.0);
            core.tick(oh, 10_000, 1e5);
        }
        let v = core.current();
        assert!(v >= 16, "re-converged to {v}");
    }

    struct NullPath;
    impl SendPath for NullPath {
        fn emit(&self, _dst: u32, _batch: ParcelBatch) {}
    }

    /// A coalescer seeded at `nparcels = 1` whose batches go nowhere.
    fn coalescer(per_destination: bool) -> Arc<Coalescer> {
        Coalescer::new(
            "act",
            ParamsHandle::new(CoalescingParams::new(1, Duration::from_micros(2000))),
            FlushPolicy::Append,
            per_destination,
            Arc::new(TimerService::new("controller-test")),
            Arc::new(NullPath) as _,
        )
    }

    /// Fake `/threads/*` counters backed by the two returned cells
    /// (cumulative function time, background work).
    fn fake_threads_registry() -> (Arc<CounterRegistry>, Arc<AtomicU64>, Arc<AtomicU64>) {
        let registry = CounterRegistry::new(0);
        let func = Arc::new(AtomicU64::new(0));
        let bg = Arc::new(AtomicU64::new(0));
        for (path, cell) in [
            ("/threads/time/cumulative", &func),
            ("/threads/background-work", &bg),
        ] {
            let cell = Arc::clone(cell);
            registry.register_or_replace(
                path,
                CallbackCounter::new(
                    move || CounterValue::Int(cell.load(Ordering::Relaxed) as i64),
                ),
            );
        }
        (registry, func, bg)
    }

    /// A reader that replays a script instead of measuring: the engine
    /// samples once at start (step 1) and once per window, and each sample
    /// runs `on_step(step)` on the sampling thread *before* the engine
    /// reads any parcel counter — so the traffic a test records there
    /// lands in exactly that window, with no sleeps and no races. Eq. 4
    /// overhead cycles 0.125, 0.125, 0.125, 0.025. Every step is also sent
    /// on the returned channel.
    fn scripted_reader(
        on_step: impl Fn(u64) + Send + Sync + 'static,
    ) -> (MetricsReader, mpsc::Receiver<u64>) {
        let registry = CounterRegistry::new(0);
        let step = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let s = Arc::clone(&step);
        registry.register_or_replace(
            "/threads/time/cumulative",
            CallbackCounter::new(move || {
                let now = s.fetch_add(1, Ordering::SeqCst) + 1;
                on_step(now);
                let _ = tx.lock().send(now);
                CounterValue::Int(now as i64 * 1_000_000)
            }),
        );
        registry.register_or_replace(
            "/threads/background-work",
            CallbackCounter::new(move || {
                let now = step.load(Ordering::SeqCst) as i64;
                CounterValue::Int(now * 100_000 + (now % 4) * 25_000)
            }),
        );
        (MetricsReader::new(registry), rx)
    }

    /// Block until the scripted reader has taken sample number `step`;
    /// every window before the previous sample is then fully logged.
    fn wait_for_step(steps: &mpsc::Receiver<u64>, step: u64) {
        let timeout = Duration::from_secs(30);
        while steps.recv_timeout(timeout).expect("controller stalled") < step {}
    }

    fn arrivals(counters: &CoalescingCounters, n: u64) {
        for _ in 0..n {
            counters.record_arrival(Some(10_000));
        }
    }

    #[test]
    fn live_controller_steers_params_handle() {
        // Fake /threads counters whose overhead depends on the *current*
        // nparcels — a closed loop without a real runtime.
        let (registry, func, bg) = fake_threads_registry();
        let params = ParamsHandle::new(CoalescingParams::new(1, Duration::from_micros(2000)));
        let counters = CoalescingCounters::new();

        // Simulated application: every 2 ms, generate load whose overhead
        // follows a convex landscape with the optimum at nparcels = 32.
        let stop = Arc::new(AtomicBool::new(false));
        let app = {
            let params = params.clone();
            let counters = Arc::clone(&counters);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let n = params.load().nparcels;
                    let oh = 0.1 + 0.08 * ((n as f64).log2() - 5.0).abs();
                    func.fetch_add(1_000_000, Ordering::Relaxed);
                    bg.fetch_add((1_000_000.0 * oh) as u64, Ordering::Relaxed);
                    arrivals(&counters, 200);
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };

        let controller = OverheadController::start(
            MetricsReader::new(registry),
            params.clone(),
            Arc::clone(&counters),
            config(),
        );
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::SeqCst);
        app.join().unwrap();
        let decisions = controller.stop();

        assert!(!decisions.is_empty(), "controller made no decisions");
        let final_n = params.load().nparcels;
        assert!(
            (8..=128).contains(&final_n),
            "converged to {final_n}, decisions: {decisions:?}"
        );
    }

    #[test]
    fn per_dest_controller_steers_hot_and_cold_destinations_apart() {
        let (registry, func, bg) = fake_threads_registry();
        let coalescer = coalescer(true);

        // Destination 1 is hot (busy every window), destination 2 is cold
        // (always under min_parcels_per_window). Overhead follows a convex
        // landscape in the HOT destination's nparcels, optimum at 32.
        let stop = Arc::new(AtomicBool::new(false));
        let app = {
            let coalescer = Arc::clone(&coalescer);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let n = coalescer.params_for(1).load().nparcels;
                    let oh = 0.1 + 0.08 * ((n as f64).log2() - 5.0).abs();
                    func.fetch_add(1_000_000, Ordering::Relaxed);
                    bg.fetch_add((1_000_000.0 * oh) as u64, Ordering::Relaxed);
                    arrivals(&coalescer.counters_for(1), 200);
                    coalescer.counters_for(2).record_arrival(Some(2_000_000));
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        };

        let controller = PerDestController::start(
            MetricsReader::new(registry),
            Arc::clone(&coalescer),
            config(),
        );
        std::thread::sleep(Duration::from_millis(400));
        stop.store(true, Ordering::SeqCst);
        app.join().unwrap();
        let decisions = controller.stop();

        let hot: Vec<_> = decisions.iter().filter(|d| d.dest == 1).collect();
        let cold: Vec<_> = decisions.iter().filter(|d| d.dest == 2).collect();
        assert!(!hot.is_empty(), "no decisions for the hot destination");
        assert!(cold.is_empty(), "quiet destination must not be steered");
        let hot_n = coalescer.params_for(1).load().nparcels;
        let cold_n = coalescer.params_for(2).load().nparcels;
        assert!(
            (8..=128).contains(&hot_n),
            "hot converged to {hot_n}, decisions: {decisions:?}"
        );
        assert_eq!(cold_n, 1, "cold destination keeps its seed parameters");
        assert_ne!(hot_n, cold_n, "destinations must diverge");
    }

    #[test]
    fn history_before_start_is_not_counted_as_first_window_traffic() {
        // Destination 1 carried 100 000 parcels before the controller
        // existed, then runs at a steady 200 per window. Counting the
        // history into the first window would feed a 500× rate to the
        // warm-up EWMA and make the first real window look like a phase
        // change.
        let coalescer = coalescer(true);
        arrivals(&coalescer.counters_for(1), 100_000);
        let c = Arc::clone(&coalescer);
        let (reader, steps) = scripted_reader(move |_| arrivals(&c.counters_for(1), 200));
        let controller = PerDestController::start(reader, coalescer, config());
        wait_for_step(&steps, 8);
        let decisions = controller.stop();

        assert!(decisions.len() >= 5, "decisions: {decisions:?}");
        let steady = 200.0 / config().window.as_secs_f64();
        for d in &decisions {
            assert_eq!(d.dest, 1);
            assert_eq!(d.decision.rate, steady);
            assert!(!d.decision.phase_change, "false phase change: {d:?}");
        }
    }

    #[test]
    fn global_coalescer_is_one_target_however_many_destinations_it_has() {
        // A global-mode coalescer hands out the same handle and the same
        // aggregate counters for every destination: steering it per
        // destination would run three climbers against one knob.
        let coalescer = coalescer(false);
        let c = Arc::clone(&coalescer);
        let (reader, steps) = scripted_reader(move |_| {
            for dst in 1..=3 {
                arrivals(&c.counters_for(dst), 100);
            }
        });
        let controller = OverheadController::start(
            reader,
            coalescer.params().clone(),
            Arc::clone(coalescer.counters()),
            config(),
        );
        wait_for_step(&steps, 8);
        let log = controller.0.stop();

        assert_eq!(coalescer.destinations().len(), 3);
        assert!(log.len() >= 5, "decisions: {log:?}");
        let aggregate = 300.0 / config().window.as_secs_f64();
        for d in &log {
            assert_eq!(
                d.dest, 0,
                "decision for something other than the one target"
            );
            assert_eq!(d.decision.rate, aggregate);
        }
        // At most one decision per window: consecutive decisions are a
        // full window apart.
        for pair in log.windows(2) {
            let gap = pair[1].decision.at - pair[0].decision.at;
            assert!(gap >= config().window, "two decisions in one window");
        }
    }

    #[test]
    fn both_handles_log_the_same_decisions_for_the_same_trace() {
        /// Scripted traffic with a 10× rate jump (a real phase change).
        fn trace(step: u64) -> u64 {
            if step < 7 {
                200
            } else {
                2000
            }
        }
        /// Everything in a decision except the wall-clock stamp.
        fn untimed(d: &Decision) -> (usize, f64, f64, bool) {
            (d.nparcels, d.overhead, d.rate, d.phase_change)
        }

        let counters = CoalescingCounters::new();
        let c = Arc::clone(&counters);
        let (reader, steps) = scripted_reader(move |step| arrivals(&c, trace(step)));
        let params = ParamsHandle::new(CoalescingParams::new(1, Duration::from_micros(2000)));
        let global = OverheadController::start(reader, params, counters, config());
        wait_for_step(&steps, 13);
        let global_log = global.stop();

        let coalescer = coalescer(true);
        let c = Arc::clone(&coalescer);
        let (reader, steps) =
            scripted_reader(move |step| arrivals(&c.counters_for(7), trace(step)));
        let per_dest = PerDestController::start(reader, coalescer, config());
        wait_for_step(&steps, 13);
        let per_dest_log = per_dest.stop();

        // Sample 13 was taken, so windows 1..=11 are logged in full; the
        // first is warm-up, leaving ten decisions on each side.
        assert!(per_dest_log.iter().all(|d| d.dest == 7));
        let a: Vec<_> = global_log.iter().take(10).map(untimed).collect();
        let b: Vec<_> = per_dest_log
            .iter()
            .take(10)
            .map(|d| untimed(&d.decision))
            .collect();
        assert_eq!(a.len(), 10);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|d| d.3).count(), 1, "one phase change");
    }

    #[test]
    fn stop_is_prompt_and_drop_is_clean() {
        let start = || {
            let reader = || MetricsReader::new(CounterRegistry::new(0));
            let config = AdaptiveConfig {
                window: Duration::from_secs(10),
                ..config()
            };
            let global = OverheadController::start(
                reader(),
                ParamsHandle::new(CoalescingParams::default()),
                CoalescingCounters::new(),
                config.clone(),
            );
            let per_dest = PerDestController::start(reader(), coalescer(true), config);
            (global, per_dest)
        };
        fn prompt(what: &str, end: impl FnOnce()) {
            let t0 = Instant::now();
            end();
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "{what} was not prompt"
            );
        }
        let (global, per_dest) = start();
        prompt("OverheadController::stop", || drop(global.stop()));
        prompt("PerDestController::stop", || drop(per_dest.stop()));
        let (global, per_dest) = start();
        prompt("OverheadController drop", || drop(global));
        prompt("PerDestController drop", || drop(per_dest));
    }
}
