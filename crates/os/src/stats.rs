//! Continuously maintained kernel statistics.
//!
//! These are the "kernel data structures" the RDMA-Sync scheme registers
//! and reads in place: utilization and `avenrun`-style load averages are
//! updated lazily at every scheduler transition, so a read at *any* virtual
//! instant sees exactly-current values — the property the paper exploits.

use fgmon_sim::{SimDuration, SimTime};

/// Continuous-time exponentially weighted moving average.
///
/// Between observations the tracked signal is assumed piecewise-constant;
/// [`Ewma::advance`] folds the interval `[last, now)` during which `held`
/// was the signal value into the average with time constant `tau`.
#[derive(Debug, Clone)]
pub struct Ewma {
    value: f64,
    last: SimTime,
    tau: SimDuration,
}

impl Ewma {
    pub fn new(tau: SimDuration) -> Self {
        Ewma {
            value: 0.0,
            last: SimTime::ZERO,
            tau,
        }
    }

    /// Fold the interval since the previous call, during which the signal
    /// held the value `held`.
    pub fn advance(&mut self, now: SimTime, held: f64) {
        let dt = now.since(self.last);
        if dt > SimDuration::ZERO {
            let tau = self.tau.nanos().max(1) as f64;
            let x = dt.nanos() as f64 / tau;
            // Below this threshold the cubic Taylor expansion of e^-x has
            // relative error < x^4/24 ≈ 4e-18 — under one ulp — and runs
            // ~an order of magnitude faster than `exp`. Most advances
            // miss it, though: the 100 ms utilization window needs
            // dt < 10 µs, and on the RUBiS world 86% of the advances with
            // dt > 0 pay `exp` (DESIGN.md §11.4).
            let a = if x < 1e-4 {
                1.0 - x + x * x * 0.5 - x * x * x * (1.0 / 6.0)
            } else {
                (-x).exp()
            };
            self.value = held + (self.value - held) * a;
            self.last = now;
        }
    }

    pub fn value(&self) -> f64 {
        self.value
    }
}

/// Per-CPU busy/idle accounting.
#[derive(Debug, Clone)]
pub struct CpuAccounting {
    /// Total busy nanoseconds since boot (threads + IRQ service).
    pub busy_total: SimDuration,
    /// Is the CPU busy right now?
    busy: bool,
    /// When the current busy/idle stretch began.
    stretch_start: SimTime,
    /// Smoothed utilization (0..1).
    util: Ewma,
}

impl CpuAccounting {
    pub fn new(util_tau: SimDuration) -> Self {
        CpuAccounting {
            busy_total: SimDuration::ZERO,
            busy: false,
            stretch_start: SimTime::ZERO,
            util: Ewma::new(util_tau),
        }
    }

    /// Record a busy/idle transition at `now`.
    pub fn set_busy(&mut self, now: SimTime, busy: bool) {
        // Fold the stretch that just ended.
        let held = if self.busy { 1.0 } else { 0.0 };
        self.util.advance(now, held);
        if self.busy {
            self.busy_total += now.since(self.stretch_start);
        }
        self.busy = busy;
        self.stretch_start = now;
    }

    /// Exactly-current utilization including the in-progress stretch.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        let held = if self.busy { 1.0 } else { 0.0 };
        self.util.advance(now, held);
        self.util.value().clamp(0.0, 1.0)
    }
}

/// Windowed byte-rate meter (network throughput).
#[derive(Debug, Clone)]
pub struct RateMeter {
    ewma_rate: Ewma,
    last_add: SimTime,
    pub total_bytes: u64,
}

impl RateMeter {
    pub fn new(tau: SimDuration) -> Self {
        RateMeter {
            ewma_rate: Ewma::new(tau),
            last_add: SimTime::ZERO,
            total_bytes: 0,
        }
    }

    /// Record `bytes` transferred at `now`.
    pub fn add(&mut self, now: SimTime, bytes: u64) {
        self.total_bytes += bytes;
        let dt = now.since(self.last_add);
        if dt > SimDuration::ZERO {
            // Rate held since the previous batch.
            let inst = bytes as f64 / dt.as_secs_f64();
            self.ewma_rate.advance(now, inst);
            self.last_add = now;
        } else {
            // Same-instant burst: fold into the level directly.
            // (A zero-width interval carries no EWMA weight; approximate by
            // leaving the average unchanged — totals still count.)
        }
    }

    /// Smoothed KiB/s at `now` (decays toward zero when quiet).
    pub fn kbps(&mut self, now: SimTime) -> f64 {
        self.ewma_rate.advance(now, 0.0);
        self.ewma_rate.value() / 1024.0
    }
}

/// Node-wide kernel statistics (besides the scheduler's own state).
#[derive(Debug)]
pub struct KernelStats {
    /// `avenrun`-like 1s run-queue EWMA.
    pub loadavg1: Ewma,
    /// Memory in use, KiB.
    pub mem_used_kb: u64,
    /// Active connections terminating here.
    pub active_conns: u32,
    /// NIC receive+transmit meter.
    pub net: RateMeter,
}

impl KernelStats {
    pub fn new() -> Self {
        KernelStats {
            loadavg1: Ewma::new(SimDuration::from_secs(1)),
            mem_used_kb: 64 * 1024, // kernel + base system footprint
            active_conns: 0,
            net: RateMeter::new(SimDuration::from_millis(200)),
        }
    }
}

impl Default for KernelStats {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_converges_to_held_value() {
        let mut e = Ewma::new(SimDuration::from_millis(100));
        e.advance(SimTime(0), 0.0);
        // Hold 1.0 for 10 tau.
        e.advance(SimTime(SimDuration::from_secs(1).nanos()), 1.0);
        assert!((e.value() - 1.0).abs() < 1e-4, "value {}", e.value());
    }

    #[test]
    fn ewma_half_life() {
        let mut e = Ewma::new(SimDuration::from_secs(1));
        e.advance(SimTime(0), 0.0);
        e.advance(SimTime(SimDuration::from_secs(1).nanos()), 1.0);
        // After exactly one tau: 1 - e^-1 ≈ 0.632.
        assert!((e.value() - 0.632).abs() < 0.01, "value {}", e.value());
    }

    #[test]
    fn cpu_accounting_tracks_busy_total() {
        let mut c = CpuAccounting::new(SimDuration::from_millis(50));
        c.set_busy(SimTime(0), true);
        c.set_busy(SimTime(1_000_000), false); // busy 1ms
        c.set_busy(SimTime(3_000_000), true);
        c.set_busy(SimTime(4_000_000), false); // busy 1ms more
        assert_eq!(c.busy_total, SimDuration::from_millis(2));
    }

    #[test]
    fn utilization_between_zero_and_one() {
        let mut c = CpuAccounting::new(SimDuration::from_millis(10));
        c.set_busy(SimTime(0), true);
        let u = c.utilization(SimTime(100_000_000)); // busy 100ms straight
        assert!(u > 0.99 && u <= 1.0, "u={u}");
        c.set_busy(SimTime(100_000_000), false);
        let u = c.utilization(SimTime(200_000_000));
        assert!(u < 0.01, "u={u}");
    }

    #[test]
    fn rate_meter_measures_throughput() {
        let mut m = RateMeter::new(SimDuration::from_millis(10));
        // 1 MiB/s for 100 ms in 1 KiB chunks every ms.
        for i in 1..=100u64 {
            m.add(SimTime(i * 1_000_000), 1024);
        }
        let kbps = m.kbps(SimTime(100_000_000));
        assert!((kbps - 1000.0).abs() < 150.0, "kbps={kbps}");
        assert_eq!(m.total_bytes, 100 * 1024);
        // Decays when quiet.
        let later = m.kbps(SimTime(400_000_000));
        assert!(later < 10.0, "later={later}");
    }

    #[test]
    fn same_instant_adds_do_not_panic() {
        let mut m = RateMeter::new(SimDuration::from_millis(10));
        m.add(SimTime(5), 100);
        m.add(SimTime(5), 100);
        assert_eq!(m.total_bytes, 200);
    }

    #[test]
    fn kernel_stats_defaults() {
        let k = KernelStats::new();
        assert!(k.mem_used_kb > 0);
        assert_eq!(k.active_conns, 0);
    }
}
