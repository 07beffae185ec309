//! Build-your-own monitoring scheme against the public API.
//!
//! Implements a *hybrid* scheme from scratch, outside `fgmon-core`: the
//! front-end normally pulls with cheap one-sided RDMA reads of the
//! registered kernel stats, but every Nth round it also sends a socket
//! request for an "extended report" that only user space can produce
//! (here: the worker pool's own application-level queue depth). This is
//! the kind of design the paper's §6 hints at — mixing one-sided pulls
//! with occasional richer two-sided exchanges — and it demonstrates every
//! extension point: `Service`, `OsApi`, regions, sockets, and metrics.
//!
//! ```text
//! cargo run --release --example custom_scheme
//! ```

use fgmon_cluster::ClusterBuilder;
use fgmon_os::{OsApi, Service};
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{
    ConnId, LoadSnapshot, NetConfig, NodeId, OsConfig, Payload, RdmaResult, RegionData, RegionId,
    Scheme, ServiceSlot, ThreadId,
};

/// Back-end side: registers kernel stats for the fast path and answers
/// occasional extended-report requests (modeled as a `MonitorRequest`
/// with `want_detail`) from user space.
struct HybridBackend {
    conn: ConnId,
    app_queue_depth: u32,
    extended_served: u64,
}

impl Service for HybridBackend {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        // Fast path: one-sided reads of live kernel statistics.
        os.register_kernel_region(false);
        // Slow path: a reporter thread for the extended report.
        let tid = os.spawn_thread();
        os.listen_thread(self.conn, tid);
        // Pretend the application keeps a queue whose depth only user
        // space knows; it drifts over time.
        os.set_timer(SimDuration::from_millis(70), 1);
    }

    fn on_timer(&mut self, _token: u64, os: &mut OsApi<'_, '_>) {
        let delta = os.rng().range_u64(0, 7) as i64 - 3;
        self.app_queue_depth = (self.app_queue_depth as i64 + delta).clamp(0, 64) as u32;
        os.set_timer(SimDuration::from_millis(70), 1);
    }

    fn on_packet(
        &mut self,
        tid: Option<ThreadId>,
        conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        let Payload::MonitorRequest { req, .. } = payload else {
            return;
        };
        let Some(tid) = tid else { return };
        self.extended_served += 1;
        // Encode the app-level signal into a snapshot's spare field.
        let mut snap = os.proc_snapshot(false);
        snap.active_conns = self.app_queue_depth;
        let fence = fgmon_types::RecordFence {
            generation: os.boot_generation(),
            seq: self.extended_served,
        };
        let snap = os.share_snapshot(snap);
        os.send(tid, conn, Payload::MonitorReply { snap, req, fence });
    }
}

/// Front-end side: RDMA pulls every 20 ms; every 10th round also asks for
/// the extended report over the socket.
struct HybridFrontend {
    backend: NodeId,
    conn: ConnId,
    region: RegionId,
    rounds: u64,
    kernel_view: Option<LoadSnapshot>,
    app_queue_view: Option<u32>,
    pulls: u64,
    extended: u64,
}

impl Service for HybridFrontend {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        os.listen_direct(self.conn);
        os.set_timer(SimDuration::from_millis(20), 1);
    }

    fn on_timer(&mut self, _token: u64, os: &mut OsApi<'_, '_>) {
        self.rounds += 1;
        self.pulls += 1;
        os.rdma_read(self.backend, self.region, self.rounds);
        if self.rounds.is_multiple_of(10) {
            self.extended += 1;
            os.send_direct(
                self.conn,
                Payload::MonitorRequest {
                    scheme: Scheme::SocketSync,
                    want_detail: true,
                    req: 0,
                },
            );
        }
        os.set_timer(SimDuration::from_millis(20), 1);
    }

    fn on_rdma_complete(&mut self, _token: u64, result: RdmaResult, os: &mut OsApi<'_, '_>) {
        if let RdmaResult::ReadOk {
            data: RegionData::Snapshot(snap),
            ..
        } = result
        {
            let now = os.now();
            os.recorder()
                .series("hybrid/kernel_util")
                .push(now, snap.cpu_util);
            self.kernel_view = Some(*snap);
        }
    }

    fn on_packet(
        &mut self,
        _tid: Option<ThreadId>,
        _conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        if let Payload::MonitorReply { snap, .. } = payload {
            let now = os.now();
            os.recorder()
                .series("hybrid/app_queue")
                .push(now, snap.active_conns as f64);
            self.app_queue_view = Some(snap.active_conns);
        }
    }
}

/// A couple of CPU hogs so the kernel view has something to show.
struct Hogs;

impl Service for Hogs {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        for _ in 0..2 {
            let tid = os.spawn_thread();
            os.burst(tid, SimDuration::from_millis(30), 1);
        }
    }
    fn on_burst_done(&mut self, tid: ThreadId, _t: u64, os: &mut OsApi<'_, '_>) {
        os.burst(tid, SimDuration::from_millis(30), 1);
    }
}

fn main() {
    let mut b = ClusterBuilder::new(7, NetConfig::default());
    let frontend = b.add_node(OsConfig::frontend());
    let backend = b.add_node(OsConfig::default());
    let conn = b.connect(frontend, ServiceSlot(0), backend, ServiceSlot(0));

    b.add_service(
        backend,
        Box::new(HybridBackend {
            conn,
            app_queue_depth: 8,
            extended_served: 0,
        }),
    );
    b.add_service(backend, Box::new(Hogs));
    b.add_service(
        frontend,
        Box::new(HybridFrontend {
            backend,
            conn,
            region: RegionId(0), // the backend registers it first
            rounds: 0,
            kernel_view: None,
            app_queue_view: None,
            pulls: 0,
            extended: 0,
        }),
    );

    let mut cluster = b.finish(&[]);
    cluster.run_for(SimDuration::from_secs(10));

    let fe = cluster.node(frontend);
    let svc = fe.service::<HybridFrontend>(ServiceSlot(0)).unwrap();
    println!("custom hybrid scheme after 10 simulated seconds:");
    println!(
        "  {} cheap RDMA pulls, {} extended socket reports",
        svc.pulls, svc.extended
    );
    if let Some(k) = &svc.kernel_view {
        println!(
            "  latest kernel view: util {:.2}, run queue {}, {} threads",
            k.cpu_util, k.run_queue, k.nthreads
        );
    }
    if let Some(q) = svc.app_queue_view {
        println!("  latest app-level queue depth (only user space knows): {q}");
    }
    let be = cluster.node(backend);
    let hb = be.service::<HybridBackend>(ServiceSlot(0)).unwrap();
    println!("  backend served {} extended reports", hb.extended_served);
    let util = cluster.recorder().get_series("hybrid/kernel_util").unwrap();
    println!(
        "  kernel-util series: {} points, mean {:.2}",
        util.len(),
        util.mean()
    );
    assert_eq!(
        SimTime(10_000_000_000),
        cluster.eng.now(),
        "deterministic horizon"
    );
}
