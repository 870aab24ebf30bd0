//! `repeat`: run every workload N times (each run its own process, so
//! `peak_rss_mib` is per run), alternating the workload order, and print
//! per-metric median, quartiles and relative spread. Exits non-zero if an
//! end-to-end metric's spread exceeds half its bound or a run was wrong.
//!
//! Quartiles are Python's `statistics.quantiles(values, n=4)`; run `i`
//! uses seed `seed + i`, as the driver that accepts the benchmark does.

use std::collections::BTreeMap;
use std::process::Command;

use crate::metrics::{END_TO_END, WORKLOADS};

/// The three quartiles by `statistics.quantiles(data, n=4)` (exclusive).
fn quartiles(data: &[f64]) -> [f64; 3] {
    let mut d = data.to_vec();
    d.sort_by(f64::total_cmp);
    let (len, n) = (d.len(), 4);
    [1, 2, 3].map(|i| {
        let j = (i * (len + 1) / n).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * n) as f64;
        (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
    })
}

/// The number after `"key": ` in a flat JSON text.
fn number_after(text: &str, key: &str) -> Option<f64> {
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest.find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))?;
    rest[..end].parse().ok()
}

pub fn run(runs: usize, seed: u64, seconds: f64) -> i32 {
    if runs < 2 {
        eprintln!("repeat needs at least 2 runs");
        return 2;
    }
    let exe = std::env::current_exe().expect("path of this executable");
    let mut samples: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..runs {
        let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let out = Command::new(&exe)
                .args(["--workload", workload, "--trace", "0"])
                .args(["--seed", &(seed + i as u64).to_string()])
                .args(["--seconds", &seconds.to_string()])
                .output()
                .expect("run this executable");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let failed = number_after(line, "\"failed\": ");
            if !out.status.success() || !line.contains("\"correct\": true") || failed != Some(0.0) {
                eprintln!("run {i} of {workload} went wrong: {line}");
                ok = false;
                continue;
            }
            for m in &END_TO_END {
                let key = format!("\"{}\": {{\"value\": ", m.name);
                let value = number_after(line, &key).expect("metric in the result line");
                samples.entry((workload, m.name)).or_default().push(value);
            }
            eprintln!("run {i} of {workload} done");
        }
    }
    println!(
        "{:<20} {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "q1", "median", "q3", "spread", "bound"
    );
    for (workload, _) in WORKLOADS {
        for m in &END_TO_END {
            let Some(values) = samples.get(&(workload, m.name)) else {
                continue;
            };
            let [q1, q2, q3] = quartiles(values);
            let spread = (q3 - q1) / q2;
            let flag = if m.name != "setup_s" && spread > m.bound / 2.0 {
                ok = false;
                "  > bound/2"
            } else {
                ""
            };
            println!(
                "{workload:<20} {:<18} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {:>6.2}{flag}",
                m.name, m.bound
            );
        }
    }
    if ok {
        0
    } else {
        1
    }
}
