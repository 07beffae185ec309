//! Load information: what the monitoring schemes measure and report.

use fgmon_sim::SimTime;

/// Maximum CPUs per simulated node (paper testbed: dual-Xeon → 2 used).
pub const MAX_CPUS: usize = 4;

/// A snapshot of one back-end node's resource usage.
///
/// This is what travels over the wire (socket reply, RDMA-read result) and
/// what the dispatcher's load-balancing index consumes. The
/// `pending_irqs` field is populated only by the kernel-registered RDMA
/// schemes (or by user-space schemes helped by the irq kernel module in the
/// Fig. 6 experiment).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadSnapshot {
    /// Virtual time at which the values were *measured* on the back-end.
    pub measured_at: SimTime,
    /// Fraction of CPU busy over the recent window, `0.0..=1.0`.
    pub cpu_util: f64,
    /// Instantaneous runnable + running thread count.
    pub run_queue: u32,
    /// 1-second exponentially weighted run-queue average (`avenrun`-like).
    pub loadavg1: f64,
    /// Live thread count on the node.
    pub nthreads: u32,
    /// Memory in use, KiB.
    pub mem_used_kb: u64,
    /// Recent network throughput, KiB/s.
    pub net_kbps: f64,
    /// Open connections terminating at this node.
    pub active_conns: u32,
    /// Pending (unserviced) interrupts per CPU at measurement time.
    pub pending_irqs: [u32; MAX_CPUS],
    /// Cumulative serviced interrupts per CPU.
    pub irq_total: [u64; MAX_CPUS],
    /// Integrity seal over every other field, computed by the producer
    /// via [`LoadSnapshot::sealed`]. `0` means "unsealed" (legacy or
    /// synthetic snapshots); consumers treat unsealed records as valid.
    /// The fault model's payload bit-corruption perturbs fields without
    /// re-sealing, which is what makes corruption *detectable* at the
    /// monitoring client ([`LoadSnapshot::checksum_ok`]).
    pub checksum: u32,
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` for `k = 0..=8`. A zero byte leaves FNV-1a's xor a no-op,
/// `(h ^ 0) * P == h * P`, so a run of `k` zero bytes folds into one
/// multiply by `P^k`.
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

impl LoadSnapshot {
    /// An all-zero snapshot measured at time zero.
    pub fn zero() -> Self {
        LoadSnapshot {
            measured_at: SimTime::ZERO,
            cpu_util: 0.0,
            run_queue: 0,
            loadavg1: 0.0,
            nthreads: 0,
            mem_used_kb: 0,
            net_kbps: 0.0,
            active_conns: 0,
            pending_irqs: [0; MAX_CPUS],
            irq_total: [0; MAX_CPUS],
            checksum: 0,
        }
    }

    /// FNV-1a over the content fields (everything except the seal
    /// itself), each as 8 little-endian bytes, folded to 32 bits. Never
    /// returns 0, so a sealed snapshot is always distinguishable from an
    /// unsealed one.
    pub fn content_checksum(&self) -> u32 {
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| {
            // Most words are small counters or unused CPU slots: their
            // high zero bytes cost one multiply, not one each.
            let len = 8 - (v.leading_zeros() / 8) as usize;
            for i in 0..len {
                h = (h ^ ((v >> (8 * i)) & 0xFF)).wrapping_mul(FNV_PRIME);
            }
            if len < 8 {
                h = h.wrapping_mul(FNV_PRIME_POW[8 - len]);
            }
        };
        eat(self.measured_at.0);
        eat(self.cpu_util.to_bits());
        eat(self.run_queue as u64);
        eat(self.loadavg1.to_bits());
        eat(self.nthreads as u64);
        eat(self.mem_used_kb);
        eat(self.net_kbps.to_bits());
        eat(self.active_conns as u64);
        for p in self.pending_irqs {
            eat(p as u64);
        }
        for t in self.irq_total {
            eat(t);
        }
        let folded = (h ^ (h >> 32)) as u32;
        folded.max(1)
    }

    /// Stamp the integrity seal (what every wire producer does just
    /// before the snapshot leaves the node).
    pub fn sealed(mut self) -> Self {
        self.checksum = self.content_checksum();
        self
    }

    /// Does the seal match the content? Unsealed snapshots (checksum 0)
    /// pass vacuously — only a *broken* seal indicates corruption.
    pub fn checksum_ok(&self) -> bool {
        self.checksum == 0 || self.checksum == self.content_checksum()
    }

    /// Total pending interrupts across CPUs.
    pub fn pending_irqs_total(&self) -> u32 {
        self.pending_irqs.iter().sum()
    }

    /// Strip kernel-only detail (what a plain user-space `/proc` reader
    /// sees without the helper kernel module). Re-seals a sealed
    /// snapshot: the stripping happens on the producing node, before the
    /// record leaves it.
    pub fn without_kernel_detail(mut self) -> Self {
        self.pending_irqs = [0; MAX_CPUS];
        if self.checksum != 0 {
            self = self.sealed();
        }
        self
    }

    /// Age of this snapshot at time `now`.
    pub fn age(&self, now: SimTime) -> fgmon_sim::SimDuration {
        now.since(self.measured_at)
    }
}

/// Capacity normalizers used when folding a [`LoadSnapshot`] into a scalar
/// index (the "appropriate weights" of the IBM WebSphere algorithm the
/// paper adopts for its load balancer).
#[derive(Clone, Copy, Debug)]
pub struct NodeCapacity {
    pub mem_total_kb: u64,
    pub net_capacity_kbps: f64,
    pub conn_capacity: u32,
}

impl Default for NodeCapacity {
    fn default() -> Self {
        // 1 GB main memory, ~2 Gbit/s effective IPoIB, and an
        // Apache-MaxClients-sized connection budget — the paper's testbed.
        NodeCapacity {
            mem_total_kb: 1024 * 1024,
            net_capacity_kbps: 250_000.0,
            conn_capacity: 128,
        }
    }
}

/// WebSphere-style weights over the load indices (paper §5.2.1: "IBM
/// WebSphere utilizes load information such as CPU, memory, network and
/// connection load, assigns appropriate weights to these load indices and
/// calculates the average load of the server").
#[derive(Clone, Copy, Debug)]
pub struct LoadWeights {
    pub cpu: f64,
    pub mem: f64,
    pub net: f64,
    pub conn: f64,
    /// Extra penalty per pending interrupt; zero for every scheme except
    /// e-RDMA-Sync, which feeds the `irq_stat` signal into dispatch.
    pub irq_penalty: f64,
}

impl Default for LoadWeights {
    fn default() -> Self {
        LoadWeights {
            cpu: 0.5,
            mem: 0.1,
            net: 0.15,
            conn: 0.25,
            irq_penalty: 0.0,
        }
    }
}

impl LoadWeights {
    /// Weights used by the e-RDMA-Sync dispatcher: same base weights plus
    /// the pending-interrupt signal.
    pub fn with_irq_signal() -> Self {
        LoadWeights {
            irq_penalty: 0.03,
            ..Self::default()
        }
    }

    /// Fold a snapshot into the scalar load index used for least-loaded
    /// server selection. Larger = more loaded; every term is normalized to
    /// roughly `[0, 1]` so the configured weights mean what they say. The
    /// CPU term blends utilization with run-queue pressure so that a
    /// saturated node with a deep queue ranks above a merely-busy one.
    pub fn index(&self, snap: &LoadSnapshot, cap: &NodeCapacity) -> f64 {
        // The queue term uses the smoothed `avenrun` average: routing whole
        // monitoring intervals on instantaneous run-queue point samples
        // would chase momentary spikes.
        let queue_pressure = (snap.loadavg1 / 8.0).min(1.5);
        let cpu_term = 0.6 * snap.cpu_util + 0.4 * queue_pressure;
        let mem_term = snap.mem_used_kb as f64 / cap.mem_total_kb.max(1) as f64;
        let net_term = (snap.net_kbps / cap.net_capacity_kbps.max(1.0)).min(1.5);
        let conn_term = snap.active_conns as f64 / cap.conn_capacity.max(1) as f64;
        self.cpu * cpu_term
            + self.mem * mem_term
            + self.net * net_term
            + self.conn * conn_term
            + self.irq_penalty * snap.pending_irqs_total() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fgmon_sim::SimDuration;

    fn busy_snapshot() -> LoadSnapshot {
        LoadSnapshot {
            measured_at: SimTime(5_000_000),
            cpu_util: 0.9,
            run_queue: 12,
            loadavg1: 10.0,
            nthreads: 40,
            mem_used_kb: 512 * 1024,
            net_kbps: 100_000.0,
            active_conns: 256,
            pending_irqs: [3, 7, 0, 0],
            irq_total: [100, 200, 0, 0],
            checksum: 0,
        }
    }

    #[test]
    fn zero_snapshot() {
        let z = LoadSnapshot::zero();
        assert_eq!(z.pending_irqs_total(), 0);
        assert_eq!(z.cpu_util, 0.0);
        assert_eq!(z.age(SimTime(100)), SimDuration(100));
    }

    #[test]
    fn index_orders_by_load() {
        let w = LoadWeights::default();
        let cap = NodeCapacity::default();
        let idle = LoadSnapshot::zero();
        let busy = busy_snapshot();
        assert!(w.index(&busy, &cap) > w.index(&idle, &cap));
    }

    #[test]
    fn irq_signal_changes_ranking() {
        let cap = NodeCapacity::default();
        let mut a = busy_snapshot();
        let mut b = busy_snapshot();
        a.pending_irqs = [0; MAX_CPUS];
        b.pending_irqs = [20, 20, 0, 0];
        let plain = LoadWeights::default();
        let enhanced = LoadWeights::with_irq_signal();
        // Without the irq signal the two nodes tie.
        assert!((plain.index(&a, &cap) - plain.index(&b, &cap)).abs() < 1e-12);
        // With it, the interrupt-pressured node ranks as more loaded.
        assert!(enhanced.index(&b, &cap) > enhanced.index(&a, &cap));
    }

    #[test]
    fn without_kernel_detail_strips_pending() {
        let s = busy_snapshot().without_kernel_detail();
        assert_eq!(s.pending_irqs_total(), 0);
        assert_eq!(s.nthreads, 40); // everything else survives
        assert_eq!(s.irq_total[0], 100);
    }

    #[test]
    fn checksum_seals_and_detects_corruption() {
        let sealed = busy_snapshot().sealed();
        assert_ne!(sealed.checksum, 0);
        assert!(sealed.checksum_ok());
        // Unsealed snapshots pass vacuously.
        assert!(busy_snapshot().checksum_ok());
        // Any content perturbation breaks the seal.
        let mut torn = sealed;
        torn.run_queue ^= 0x5A;
        assert!(!torn.checksum_ok());
        let mut skewed = sealed;
        skewed.measured_at = SimTime(skewed.measured_at.0 + 1);
        assert!(!skewed.checksum_ok());
        // Re-sealing after a legitimate producer-side edit restores it.
        assert!(skewed.sealed().checksum_ok());
    }

    /// The checksum as first written: FNV-1a one byte at a time.
    fn bytewise_checksum(s: &LoadSnapshot) -> u32 {
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| {
            for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
                h = (h ^ ((v >> shift) & 0xFF)).wrapping_mul(FNV_PRIME);
            }
        };
        eat(s.measured_at.0);
        eat(s.cpu_util.to_bits());
        eat(s.run_queue as u64);
        eat(s.loadavg1.to_bits());
        eat(s.nthreads as u64);
        eat(s.mem_used_kb);
        eat(s.net_kbps.to_bits());
        eat(s.active_conns as u64);
        for p in s.pending_irqs {
            eat(p as u64);
        }
        for t in s.irq_total {
            eat(t);
        }
        ((h ^ (h >> 32)) as u32).max(1)
    }

    #[test]
    fn zero_byte_folding_matches_the_bytewise_checksum() {
        let mut rng = fgmon_sim::DetRng::new(0xc5);
        // Words of every significant length (0 to 8 bytes), with interior
        // zero bytes, plus the edge values.
        let edges = [
            0,
            1,
            0xFF,
            0x100,
            u32::MAX as u64,
            u64::MAX,
            1 << 63,
            (-0.0f64).to_bits(),
            f64::NAN.to_bits(),
            0x7FF8_0000_0000_0001,
            f64::INFINITY.to_bits(),
        ];
        let word = |rng: &mut fgmon_sim::DetRng| {
            if rng.chance(0.2) {
                return edges[rng.index(edges.len())];
            }
            let bytes = rng.range_u64(0, 9);
            let mut v = 0u64;
            for i in 0..bytes {
                if !rng.chance(0.3) {
                    v |= rng.range_u64(1, 256) << (8 * i);
                }
            }
            v
        };
        let mut snaps = vec![LoadSnapshot::zero(), busy_snapshot()];
        for _ in 0..2_000 {
            snaps.push(LoadSnapshot {
                measured_at: SimTime(word(&mut rng)),
                cpu_util: f64::from_bits(word(&mut rng)),
                run_queue: word(&mut rng) as u32,
                loadavg1: f64::from_bits(word(&mut rng)),
                nthreads: word(&mut rng) as u32,
                mem_used_kb: word(&mut rng),
                net_kbps: f64::from_bits(word(&mut rng)),
                active_conns: word(&mut rng) as u32,
                pending_irqs: [(); MAX_CPUS].map(|_| word(&mut rng) as u32),
                irq_total: [(); MAX_CPUS].map(|_| word(&mut rng)),
                checksum: 0,
            });
        }
        let mut all_ones = LoadSnapshot::zero();
        all_ones.measured_at = SimTime::MAX;
        all_ones.cpu_util = f64::from_bits(u64::MAX);
        all_ones.irq_total = [u64::MAX; MAX_CPUS];
        snaps.push(all_ones);
        for s in &snaps {
            assert_eq!(s.content_checksum(), bytewise_checksum(s), "{s:?}");
        }
    }

    #[test]
    fn without_kernel_detail_reseals() {
        let stripped = busy_snapshot().sealed().without_kernel_detail();
        assert_eq!(stripped.pending_irqs_total(), 0);
        assert!(stripped.checksum_ok());
        assert_ne!(stripped.checksum, 0);
        // An unsealed snapshot stays unsealed.
        assert_eq!(busy_snapshot().without_kernel_detail().checksum, 0);
    }

    #[test]
    fn age_saturates() {
        let s = busy_snapshot();
        assert_eq!(s.age(SimTime(4_000_000)), SimDuration::ZERO);
        assert_eq!(s.age(SimTime(6_000_000)), SimDuration(1_000_000));
    }

    #[test]
    fn capacity_guards_divide_by_zero() {
        let w = LoadWeights::default();
        let cap = NodeCapacity {
            mem_total_kb: 0,
            net_capacity_kbps: 0.0,
            conn_capacity: 0,
        };
        let v = w.index(&busy_snapshot(), &cap);
        assert!(v.is_finite());
    }
}
