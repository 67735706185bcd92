//! Host-noise diagnostics: two fixed calibration kernels, CPU steal, run-
//! queue wait and peak memory, read from Linux `/proc`.
//!
//! None of these is gated. They let a reader tell host drift (a slower
//! calibration kernel, steal, time spent waiting for a CPU) from a
//! regression in the program.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the integer kernel (about 0.2 s on a 2-core x86-64
/// host).
const CALIB_ITERS: u64 = 60_000_000;

/// Slots of the pointer chase: 4 MiB of `u32`, the size of a share of a
/// last-level cache.
const CHASE_SLOTS: usize = 1 << 20;

/// Steps of the pointer chase (about 0.15 s on the same host).
const CHASE_STEPS: usize = 5_000_000;

/// One timing of both calibration kernels.
#[derive(Clone, Copy, Debug, Default)]
pub struct Calibration {
    /// Seconds of an integer loop that touches no memory: it moves only
    /// with the CPU the process gets.
    pub alu_s: f64,
    /// Seconds of a dependent pointer chase through a 4 MiB random cycle:
    /// it also moves with other tenants' contention for the shared
    /// cache, which slows the program while the integer loop does not
    /// see it.
    pub cache_s: f64,
}

/// Times both calibration kernels.
pub fn calibrate() -> Calibration {
    Calibration {
        alu_s: integer_kernel(),
        cache_s: chase_kernel(),
    }
}

fn integer_kernel() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    for i in 0..CALIB_ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

fn chase_kernel() -> f64 {
    // Sattolo's shuffle makes one cycle through every slot, so the chase
    // never settles into a short, cached loop.
    let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in (1..CHASE_SLOTS).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        next.swap(i, (x % i as u64) as usize);
    }
    let start = Instant::now();
    let mut p = black_box(0u32);
    for _ in 0..CHASE_STEPS {
        p = next[p as usize];
    }
    black_box(p);
    start.elapsed().as_secs_f64()
}

/// CPU-time counters at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostSnapshot {
    /// All jiffies in `/proc/stat`'s aggregate `cpu` line.
    pub cpu_total: u64,
    /// The line's steal jiffies.
    pub cpu_steal: u64,
    /// Nanoseconds this process's main thread waited on a run queue.
    pub rq_wait_ns: u64,
}

impl HostSnapshot {
    /// Reads the counters (zeros where `/proc` is unavailable).
    pub fn now() -> HostSnapshot {
        let mut snap = HostSnapshot::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/stat") {
            if let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) {
                let fields: Vec<u64> = line
                    .split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect();
                // user nice system idle iowait irq softirq steal guest guest_nice;
                // guest time is already counted in user/nice.
                snap.cpu_total = fields.iter().take(8).sum();
                snap.cpu_steal = fields.get(7).copied().unwrap_or(0);
            }
        }
        if let Ok(sched) = std::fs::read_to_string("/proc/self/schedstat") {
            snap.rq_wait_ns = sched
                .split_whitespace()
                .nth(1)
                .and_then(|f| f.parse().ok())
                .unwrap_or(0);
        }
        snap
    }

    /// Share of all CPU time stolen by the hypervisor since `earlier`.
    pub fn steal_frac_since(&self, earlier: &HostSnapshot) -> f64 {
        let total = self.cpu_total.saturating_sub(earlier.cpu_total);
        if total == 0 {
            0.0
        } else {
            self.cpu_steal.saturating_sub(earlier.cpu_steal) as f64 / total as f64
        }
    }

    /// Seconds spent waiting for a CPU since `earlier`.
    pub fn rq_wait_s_since(&self, earlier: &HostSnapshot) -> f64 {
        self.rq_wait_ns.saturating_sub(earlier.rq_wait_ns) as f64 * 1e-9
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`), 0 when
/// unavailable.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_times_both_kernels() {
        let c = calibrate();
        assert!(c.alu_s > 0.0 && c.cache_s > 0.0, "{c:?}");
    }
}
