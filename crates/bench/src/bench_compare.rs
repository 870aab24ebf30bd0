//! Benchmark regression gate: compare a fresh `CRITERION_JSON` dump
//! against the committed baseline (`BENCH_baseline.json`).
//!
//! Criterion's own statistics stay in `target/criterion`; the harness
//! additionally writes a flat `{"results":[{"id","median_ns",…}]}` file
//! per bench run. This module diffs two such files on `median_ns` per
//! benchmark id, so CI (and anyone locally) gets a one-screen verdict:
//!
//! ```text
//! repro bench-compare shm.json service.json    # vs BENCH_baseline.json
//! repro bench-compare --baseline old.json new.json
//! ```
//!
//! A benchmark more than [`REGRESSION_TOLERANCE`] slower than baseline
//! is reported as a regression; with `RPX_BENCH_STRICT=1` the process
//! exits non-zero, turning the warning into a gate. Shared-runner noise
//! makes a hard per-PR gate unwise, so strict mode is opt-in.

/// Fractional slowdown vs baseline that counts as a regression (10%).
pub const REGRESSION_TOLERANCE: f64 = 0.10;

/// One benchmark's medians in both files.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Criterion benchmark id, e.g. `shm_pingpong/shm/64`.
    pub id: String,
    /// Baseline median, nanoseconds.
    pub baseline_ns: f64,
    /// Current median, nanoseconds.
    pub current_ns: f64,
}

impl BenchDelta {
    /// Fractional change vs baseline (`+0.25` = 25% slower).
    pub fn change(&self) -> f64 {
        (self.current_ns - self.baseline_ns) / self.baseline_ns
    }

    /// Whether this delta exceeds the regression tolerance.
    pub fn regressed(&self) -> bool {
        self.change() > REGRESSION_TOLERANCE
    }
}

/// Outcome of comparing one current dump against the baseline.
#[derive(Debug, Default)]
pub struct CompareReport {
    /// Ids present in both files, in current-file order.
    pub deltas: Vec<BenchDelta>,
    /// Ids only in the current file (new benchmarks — not a failure).
    pub only_current: Vec<String>,
    /// Ids only in the baseline (retired or not run — not a failure).
    pub only_baseline: Vec<String>,
}

impl CompareReport {
    /// Deltas beyond the tolerance.
    pub fn regressions(&self) -> Vec<&BenchDelta> {
        self.deltas.iter().filter(|d| d.regressed()).collect()
    }
}

/// Extract `(id, median_ns)` pairs from a harness JSON dump. The format
/// is machine-written with a fixed key order, so a scanning parser (the
/// same idiom the launcher uses for counter dumps) is enough — no JSON
/// dependency.
pub fn parse_medians(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"id\":\"") {
        rest = &rest[i + 6..];
        let Some(q) = rest.find('"') else { break };
        let id = rest[..q].to_string();
        rest = &rest[q..];
        let Some(m) = rest.find("\"median_ns\":") else {
            break;
        };
        let tail = &rest[m + 12..];
        let end = tail
            .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
            .unwrap_or(tail.len());
        if let Ok(v) = tail[..end].parse::<f64>() {
            out.push((id, v));
        }
        rest = tail;
    }
    out
}

/// Diff two dumps (strings of harness JSON) on median_ns per id.
pub fn compare(baseline: &str, current: &str) -> CompareReport {
    let base = parse_medians(baseline);
    let cur = parse_medians(current);
    let mut report = CompareReport::default();
    for (id, current_ns) in &cur {
        match base.iter().find(|(b, _)| b == id) {
            Some((_, baseline_ns)) => report.deltas.push(BenchDelta {
                id: id.clone(),
                baseline_ns: *baseline_ns,
                current_ns: *current_ns,
            }),
            None => report.only_current.push(id.clone()),
        }
    }
    for (id, _) in &base {
        if !cur.iter().any(|(c, _)| c == id) {
            report.only_baseline.push(id.clone());
        }
    }
    report
}

/// Human-readable ns formatting matched to the magnitude.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"results":[
{"id":"a/x","min_ns":90.0,"median_ns":100.0,"max_ns":110.0},
{"id":"b/y","min_ns":900.0,"median_ns":1000.0,"max_ns":1100.0},
{"id":"gone","min_ns":1.0,"median_ns":2.0,"max_ns":3.0}
]}"#;
    const CUR: &str = r#"{"results":[
{"id":"a/x","min_ns":100.0,"median_ns":115.0,"max_ns":130.0},
{"id":"b/y","min_ns":800.0,"median_ns":900.0,"max_ns":1000.0},
{"id":"new","min_ns":5.0,"median_ns":6.0,"max_ns":7.0}
]}"#;

    #[test]
    fn parses_ids_and_medians() {
        let m = parse_medians(BASE);
        assert_eq!(m.len(), 3);
        assert_eq!(m[0], ("a/x".to_string(), 100.0));
        assert_eq!(m[1].1, 1000.0);
    }

    #[test]
    fn flags_only_regressions_beyond_tolerance() {
        let r = compare(BASE, CUR);
        assert_eq!(r.deltas.len(), 2);
        let regs = r.regressions();
        // a/x is +15% (regression); b/y is -10% (improvement).
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].id, "a/x");
        assert!((regs[0].change() - 0.15).abs() < 1e-9);
        assert_eq!(r.only_current, vec!["new".to_string()]);
        assert_eq!(r.only_baseline, vec!["gone".to_string()]);
    }

    #[test]
    fn ten_percent_exactly_is_not_a_regression() {
        let d = BenchDelta {
            id: "edge".into(),
            baseline_ns: 100.0,
            current_ns: 110.0,
        };
        assert!(!d.regressed());
        let d = BenchDelta {
            id: "edge".into(),
            baseline_ns: 100.0,
            current_ns: 110.1,
        };
        assert!(d.regressed());
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(512.0), "512 ns");
        assert_eq!(fmt_ns(2878.6), "2.88 µs");
        assert_eq!(fmt_ns(1_500_000.0), "1.50 ms");
    }
}
