//! In-memory spans recorded by the harness around its own calls into the
//! `rpx` façade (choosing-metrics §4: tracing inside RPX is a later
//! change). Spans are kept in per-driver buffers, merged when the run
//! ends, written under `benchmark/out/`, and reduced to per-name self
//! times.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start: u64,
    pub end: u64,
    /// Index (in the same buffer) of the span that caused this one.
    pub parent: Option<u32>,
    /// Request identifier shared by the spans of one request; phases and
    /// other non-request spans carry their phase number.
    pub request: u64,
}

/// A driver's span buffer. Disabled buffers record nothing, so the
/// untraced run pays one branch per call site.
pub struct SpanBuf {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanBuf {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        SpanBuf {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Start or stop recording (a traced run records every other phase).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Open a span; returns its index for [`SpanBuf::close`] and for
    /// children to name as parent.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            request,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn close(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            self.spans[i as usize].end = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Run `f` inside a span.
    pub fn scope<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(name, parent, request);
        let out = f();
        self.close(span);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// All spans of a run, one buffer per driver (parents index into the
/// span's own buffer).
#[derive(Default)]
pub struct Trace {
    buffers: Vec<Vec<Span>>,
}

impl Trace {
    pub fn add(&mut self, spans: Vec<Span>) {
        if !spans.is_empty() {
            self.buffers.push(spans);
        }
    }

    pub fn len(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.buffers
            .iter()
            .flatten()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start) as f64)
            .collect()
    }

    /// Total self time per span name (ns): a span's duration minus the
    /// part of that interval its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for buf in &self.buffers {
            let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); buf.len()];
            for s in buf {
                if let Some(p) = s.parent {
                    children[p as usize].push((s.start, s.end));
                }
            }
            for (s, kids) in buf.iter().zip(children.iter_mut()) {
                kids.sort_unstable();
                let (mut covered, mut cursor) = (0u64, s.start);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                *out.entry(s.name).or_insert(0.0) += ((s.end - s.start) - covered) as f64;
            }
        }
        out
    }

    /// Write every span as one CSV row under `benchmark/out/`.
    pub fn write(&self, workload: &str, seed: u64) -> std::io::Result<std::path::PathBuf> {
        let dir = std::path::Path::new("benchmark/out");
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}-{seed}.csv"));
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        writeln!(w, "driver,span,parent,request,name,start_ns,end_ns")?;
        for (d, buf) in self.buffers.iter().enumerate() {
            for (i, s) in buf.iter().enumerate() {
                let parent = s.parent.map_or(String::new(), |p| p.to_string());
                writeln!(
                    w,
                    "{d},{i},{parent},{},{},{},{}",
                    s.request, s.name, s.start, s.end
                )?;
            }
        }
        w.flush()?;
        Ok(path)
    }
}
