//! `rtt_direct_tcp` — the bypass workload: one outstanding `async_action`
//! echo from locality 0 to locality 1 over reliable loopback TCP, no
//! coalescing, in three equal segments of 16 B, 1 KiB and 64 KiB payloads.
//! Closed loop, one client.
//!
//! `lat_us_*` is the round trip of the 16 B segment. `phase_ms_*` is the
//! wall time of `BLOCK` consecutive 64 KiB echoes, so the large-payload
//! path has an end-to-end number of its own.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, RngCore, SeedableRng};

use super::{per_phase_latency, AbRates, Measured, Shapes, Spec, Workload};
use crate::metrics::Values;
use crate::rpx_api::{self, layers::Bytes, ActionHandle, Boot, Link, Runtime};
use crate::trace::{SpanBuf, Trace};

const ACTION: &str = "rtt::echo";
const SIZES: [usize; 3] = [16, 1024, 64 * 1024];
/// Echoes per block: the unit of `phase_ms_*` (64 KiB segment) and of the
/// traced/untraced alternation.
const BLOCK: usize = 100;
const WARM_UP_ECHOES: usize = 200;
/// About a second of 16 B echoes: the phase `lat_us_*` is taken over.
const ECHOES_PER_LAT_PHASE: usize = 5_000;

pub struct Rtt {
    rt: Arc<Runtime>,
    boot: Duration,
    action: ActionHandle<Bytes, Bytes>,
    /// One payload per segment, random bytes from the seed.
    payloads: [Bytes; 3],
}

/// What one segment's driver task hands back.
struct Segment {
    rtt_us: Vec<f64>,
    block_ms: Vec<f64>,
    wrong: u64,
    spans: SpanBuf,
    ab: AbRates,
}

impl Rtt {
    /// Echo `payload` back and forth until `stop` says so, one at a time.
    fn segment(
        &self,
        payload: &Bytes,
        trace: bool,
        epoch: Instant,
        mut stop: impl FnMut(usize) -> bool + Send + 'static,
    ) -> Segment {
        let (action, payload) = (self.action.clone(), payload.clone());
        self.rt.run_on(0, move |ctx| {
            let mut seg = Segment {
                rtt_us: Vec::new(),
                block_ms: Vec::new(),
                wrong: 0,
                spans: SpanBuf::new(trace, epoch),
                ab: AbRates::default(),
            };
            let mut done = 0usize;
            while !stop(done) {
                // A traced run records spans on every other block.
                let traced = trace && (done / BLOCK).is_multiple_of(2);
                seg.spans.set_enabled(traced);
                let block_started = Instant::now();
                for _ in 0..BLOCK {
                    let request = (done + 1) as u64;
                    let started = Instant::now();
                    let root = seg.spans.open("phase.drive", None, request);
                    let s = seg.spans.open("submit", root, request);
                    let future = ctx.async_action(&action, 1, payload.clone());
                    seg.spans.close(s);
                    let w = seg.spans.open("wait", root, request);
                    let reply = future.get();
                    seg.spans.close(w);
                    seg.spans.close(root);
                    seg.rtt_us.push(started.elapsed().as_secs_f64() * 1e6);
                    seg.wrong += u64::from(reply.ok().as_ref() != Some(&payload));
                    done += 1;
                }
                let wall = block_started.elapsed();
                seg.block_ms.push(wall.as_secs_f64() * 1e3);
                seg.ab.add(traced, BLOCK as u64, wall);
            }
            seg
        })
    }
}

impl Workload for Rtt {
    fn setup(spec: &Spec) -> Self {
        let seed = spec.seed;
        crate::sys::pin_to_one_cpu();
        let t = Instant::now();
        let rt = rpx_api::boot(&Boot {
            localities: 2,
            // The one driver task pumps while it waits, so a single worker
            // per locality is never pinned idle.
            workers_per_locality: 1,
            link: Link::TcpReliable,
            backpressure_watermark: None,
        });
        let boot = t.elapsed();
        let action = rt.action(ACTION).register(|payload: Bytes| payload);
        let mut rng = StdRng::seed_from_u64(seed);
        let payloads = SIZES
            .map(|size| Bytes::from((0..size).map(|_| rng.next_u64() as u8).collect::<Vec<u8>>()));
        let rtt = Rtt {
            rt,
            boot,
            action,
            payloads,
        };
        for payload in &rtt.payloads {
            rtt.segment(payload, false, Instant::now(), |done| {
                done >= WARM_UP_ECHOES
            });
        }
        rtt
    }

    fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    fn boot_time(&self) -> Duration {
        self.boot
    }

    fn coalesced(&self) -> &'static [&'static str] {
        &[]
    }

    fn shapes(&self) -> Shapes {
        Shapes {
            payload_bytes: SIZES[0],
            flush_interval: None,
            link: Link::TcpReliable,
            throughput_bound: false,
            large_payloads: true,
            steered: false,
            replies: true,
        }
    }

    fn run(&mut self, spec: &Spec) -> Measured {
        let epoch = Instant::now();
        let per_segment = Duration::from_secs_f64(spec.seconds / SIZES.len() as f64);
        let mut trace = Trace::default();
        let mut segments = Vec::new();
        for (i, payload) in self.payloads.iter().enumerate() {
            let deadline = epoch + per_segment * (i as u32 + 1);
            // Only the 16 B segment is traced: it is the one `lat_us_*`
            // and the tracing-overhead comparison are defined on.
            let seg = self.segment(payload, spec.trace && i == 0, epoch, move |_| {
                Instant::now() >= deadline
            });
            segments.push(seg);
        }
        let window = epoch.elapsed();
        let attempted: u64 = segments.iter().map(|s| s.rtt_us.len() as u64).sum();
        let wrong: u64 = segments.iter().map(|s| s.wrong).sum();
        let mut segments = segments.into_iter();
        let small = segments.next().expect("16 B segment");
        let large = segments.last().expect("64 KiB segment");
        trace.add(small.spans.into_spans());
        let seconds: Vec<&[f64]> = small.rtt_us.chunks(ECHOES_PER_LAT_PHASE).collect();
        let (lat_us_p50, lat_us_p99) = per_phase_latency(&seconds);
        Measured {
            attempted,
            failed: wrong,
            completed: attempted - wrong,
            window,
            phase_ms: large.block_ms,
            lat_us_p50,
            lat_us_p99,
            lat_us: small.rtt_us,
            problems: Vec::new(),
            layer: Values::new(),
            trace,
            ab: small.ab,
        }
    }

    fn finish(self) -> Arc<Runtime> {
        self.rt
    }
}
