//! Cost-model and subsystem configuration.
//!
//! Default values are calibrated to the paper's 2006-era testbed: dual
//! 2.4 GHz Xeons per node, Linux 2.4 (HZ=100, ~10 ms scheduler quantum),
//! Mellanox InfiniHost 4x HCAs (small-message RDMA read ≈ 20 µs end to
//! end), and IPoIB for the sockets path (small-message round trip in the
//! tens of microseconds once both CPUs are involved).

use fgmon_sim::SimDuration;

/// Per-operation CPU costs and scheduler parameters for one node's OS.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Round-robin scheduling quantum.
    pub quantum: SimDuration,
    /// Timer-tick resolution: sleeps expire only on tick boundaries (the
    /// paper: "the load reporting interval resolution highly depends on the
    /// operating system scheduling timer resolution").
    pub timer_tick: SimDuration,
    /// Context-switch overhead charged on every dispatch.
    pub ctx_switch: SimDuration,
    /// Fixed cost of a `/proc` read (trap + kernel formatting).
    pub proc_read_base: SimDuration,
    /// Additional `/proc` cost per live thread (kernel walks task list).
    pub proc_read_per_thread: SimDuration,
    /// User-space load-index computation after reading `/proc`.
    pub load_calc: SimDuration,
    /// Top-half hardware interrupt service cost (per interrupt).
    pub hw_irq_cost: SimDuration,
    /// Bottom-half/softirq protocol processing cost (per packet).
    pub softirq_cost: SimDuration,
    /// `recv()` syscall + copy-to-user cost, charged when the woken thread
    /// finally runs.
    pub recv_syscall: SimDuration,
    /// Send-side kernel CPU cost (charged to the sending thread).
    pub send_cpu: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            quantum: SimDuration::from_millis(10),
            timer_tick: SimDuration::from_millis(10),
            ctx_switch: SimDuration::from_micros(5),
            proc_read_base: SimDuration::from_micros(150),
            proc_read_per_thread: SimDuration::from_micros(5),
            load_calc: SimDuration::from_micros(60),
            hw_irq_cost: SimDuration::from_micros(4),
            softirq_cost: SimDuration::from_micros(22),
            recv_syscall: SimDuration::from_micros(8),
            send_cpu: SimDuration::from_micros(25),
        }
    }
}

/// Configuration of one simulated node's OS.
#[derive(Clone, Copy, Debug)]
pub struct OsConfig {
    /// Number of CPUs (the paper's servers are dual-processor).
    pub cpus: u8,
    /// Share of network interrupts routed to the highest-numbered CPU
    /// (`0.5` = even spread). The paper's Fig. 6 observes the second CPU
    /// servicing noticeably more interrupts.
    pub irq_second_cpu_share: f64,
    /// Woken threads go to the head of the run queue (interactive boost)
    /// instead of the tail. Ablation knob for Fig. 3.
    pub wake_boost: bool,
    /// Per-operation costs.
    pub costs: CostModel,
}

impl Default for OsConfig {
    fn default() -> Self {
        OsConfig {
            cpus: 2,
            irq_second_cpu_share: 0.7,
            wake_boost: false,
            costs: CostModel::default(),
        }
    }
}

impl OsConfig {
    /// Front-end/client nodes: lightly loaded, finer usable timer tick
    /// (their monitoring process is the only runnable thread, so in
    /// practice it wakes on time; we model that with a 1 ms tick).
    pub fn frontend() -> Self {
        OsConfig {
            costs: CostModel {
                timer_tick: SimDuration::from_millis(1),
                ..CostModel::default()
            },
            ..OsConfig::default()
        }
    }
}

/// Fabric timing parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// One-way wire + switch latency for any frame.
    pub wire_latency: SimDuration,
    /// Serialization time per KiB of payload.
    pub per_kb: SimDuration,
    /// Initiator-side cost of posting an RDMA work request.
    pub rdma_post: SimDuration,
    /// Target-NIC DMA read of a registered region (no target CPU).
    pub nic_read: SimDuration,
    /// Initiator-side completion-queue poll until the CQE is seen.
    pub completion_poll: SimDuration,
    /// Per-destination replication latency for hardware multicast.
    pub mcast_fanout: SimDuration,
    /// Reader-side version check of a completed one-sided read (the
    /// seqlock mitigation of torn reads): compare the two version words
    /// bracketing the buffer before accepting it. Charged once per retry
    /// on top of the re-read round trip when the race checker runs in
    /// seqlock mode; free when the check passes (it is two cached loads).
    pub seqlock_check: SimDuration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            wire_latency: SimDuration::from_micros(4),
            per_kb: SimDuration::from_micros(1),
            rdma_post: SimDuration::from_micros(1),
            nic_read: SimDuration::from_micros(10),
            completion_poll: SimDuration::from_micros(2),
            mcast_fanout: SimDuration::from_micros(1),
            seqlock_check: SimDuration::from_nanos(500),
        }
    }
}

impl NetConfig {
    /// Unloaded small-message RDMA read round trip implied by this config.
    pub fn rdma_read_rtt(&self) -> SimDuration {
        self.rdma_post
            + self.wire_latency
            + self.nic_read
            + self.wire_latency
            + self.completion_poll
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_2006_plausible() {
        let os = OsConfig::default();
        assert_eq!(os.cpus, 2);
        assert_eq!(os.costs.quantum, SimDuration::from_millis(10));
        let net = NetConfig::default();
        let rtt = net.rdma_read_rtt();
        // Small-message RDMA read should land near 20 µs.
        assert!(rtt >= SimDuration::from_micros(15) && rtt <= SimDuration::from_micros(30));
    }

    #[test]
    fn frontend_tick_is_finer() {
        let fe = OsConfig::frontend();
        assert!(fe.costs.timer_tick < OsConfig::default().costs.timer_tick);
    }

    #[test]
    fn configs_clone_copy_semantics() {
        let os = OsConfig::default();
        let back = os;
        assert_eq!(back.cpus, os.cpus);
        assert_eq!(back.costs.quantum, os.costs.quantum);
    }
}
