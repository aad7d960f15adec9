//! Process and host readings: peak memory and CPU time from `/proc`, and
//! the host-drift probe.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of this process (all threads, including
/// exited ones), seconds. `/proc` reports it in clock ticks of 1/100 s.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesized command name, which may hold spaces:
    // state is field 3, utime field 14 and stime field 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => 0.0,
    }
}

/// 64 KiB of `u64` words, on the stack: the probe touches no heap, so it
/// cannot change the allocator state or the peak resident set the
/// program is measured with.
const PROBE_WORDS: usize = 1 << 13;
/// Updates per timed round.
const PROBE_UPDATES: usize = 1 << 20;
const PROBE_ROUNDS: usize = 5;

/// One round of the probe's xorshift random-update walk.
fn probe_round(buf: &mut [u64], x: &mut u64) {
    for i in 0..PROBE_UPDATES {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let j = (*x as usize) & (PROBE_WORDS - 1);
        buf[j] = buf[j].wrapping_add(*x ^ i as u64);
    }
}

/// The host-drift probe: a fixed random-update walk over a small
/// buffer, using only `std`. Its work never changes, so a change in its
/// time between runs is the host's doing, not the program's. After an
/// untimed warm-up round, the result is the median wall time of the
/// timed rounds, seconds.
pub fn probe() -> f64 {
    let mut buf = [0u64; PROBE_WORDS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    probe_round(&mut buf, &mut x);
    let mut rounds = [0.0; PROBE_ROUNDS];
    for r in &mut rounds {
        let start = Instant::now();
        probe_round(&mut buf, &mut x);
        *r = start.elapsed().as_secs_f64();
    }
    black_box(buf.iter().fold(0u64, |a, &b| a ^ b));
    rounds.sort_by(f64::total_cmp);
    rounds[PROBE_ROUNDS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        black_box(x);
        assert!(cpu_secs() >= 0.0);
    }

    #[test]
    fn probe_takes_measurable_time() {
        assert!(probe() > 0.0);
    }
}
