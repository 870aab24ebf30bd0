//! `calibrate`: find the saturation rate of `service_mixed_tcp` on this
//! machine and derive the base rate `R` from it.
//!
//! The probe runs the workload's traffic mix at a constant arrival rate
//! for `PROBE_SECONDS`, stepping the rate up by a quarter each time. The
//! saturation rate is the first rate at which the backlog (requests due
//! but not delivered) grows between the end of the first second and the
//! end of the probe by more than 10 ms' worth of arrivals, or at which a
//! request fails. `3R` is 60 % of it.

use crate::workloads::service::{probe_constant_rate, BASE_RATE};

const PROBE_SECONDS: f64 = 5.0;
const START_RATE: f64 = 2_000.0;
const STEP: f64 = 1.25;
const MAX_RATE: f64 = 400_000.0;

pub fn run() {
    let mut rate = START_RATE;
    while rate <= MAX_RATE {
        let (growth, failed) = probe_constant_rate(1, rate, PROBE_SECONDS);
        println!("rate {rate:>9.0}/s: backlog grew by {growth:>8.0}, failed {failed}");
        if growth > rate * 0.010 || failed > 0 {
            let r = 0.6 * rate / 3.0;
            println!("saturation rate {rate:.0}/s; 3R = 60 % of it gives R = {r:.0}/s");
            println!("committed BASE_RATE is {BASE_RATE:.0}/s");
            return;
        }
        rate *= STEP;
    }
    println!("no saturation up to {MAX_RATE:.0}/s");
}
