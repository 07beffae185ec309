//! The back-end web/application server: an Apache-prefork-style worker
//! pool serving RUBiS dynamic queries and Zipf static documents.
//!
//! An acceptor thread owns the listening connections; each admitted
//! request is handed to a worker thread. RUBiS queries execute in two
//! phases, like the real Apache+PHP+MySQL stack of the paper's testbed:
//! a parallel PHP phase, then a **database phase serialized per node**
//! (2003-era MySQL/MyISAM takes table-level locks, the documented RUBiS
//! bottleneck). One slow query therefore convoys every concurrent query
//! on its node — the transient hotspots whose timely detection separates
//! the monitoring schemes in the paper's Table 1.
//!
//! The pool grows on demand and shrinks when idle, so the node's
//! live-thread count (a Fig. 5 ground-truth signal) tracks offered load,
//! as with real prefork servers.

use std::collections::VecDeque;

use fgmon_os::{OsApi, Service};
use fgmon_sim::SimDuration;
use fgmon_types::{ConnId, Payload, RequestKind, ThreadId};

use crate::rubis::QueryProfile;
use crate::zipf::ZipfCatalog;

const TOK_EXIT_CHECK: u64 = u64::MAX;
/// Token bit distinguishing the PHP phase from the DB phase.
const PHASE_DB: u64 = 1 << 62;

/// Fraction of a RUBiS query's demand spent in the serialized DB phase.
const DB_SHARE: f64 = 0.25;

#[derive(Debug)]
struct Work {
    conn: ConnId,
    req_id: u64,
    resp_kb: u32,
    mem_kb: u32,
    /// Remaining CPU demand of the serialized DB phase (zero for static
    /// content).
    db_demand: SimDuration,
    worker: Option<ThreadId>,
}

/// Worker-pool web server with per-node DB serialization.
pub struct WorkerPoolServer {
    /// Listening connections; set by the cluster builder before boot.
    pub conns: Vec<ConnId>,
    /// Keep at most this many idle workers around.
    pub min_spare: u32,
    /// Hard cap on pool size; beyond it requests queue.
    pub max_workers: u32,
    acceptor: Option<ThreadId>,
    idle: Vec<ThreadId>,
    worker_count: u32,
    backlog: VecDeque<Work>,
    /// Requests currently in their PHP or DB phase. Bounded by the pool
    /// size, so a linear scan beats per-request map node churn.
    inflight: Vec<(u64, Work)>,
    next_token: u64,
    /// Is the (per-node) database lock held?
    db_busy: bool,
    /// Tokens waiting for the database lock.
    db_waiters: VecDeque<u64>,
    /// Total requests fully served.
    pub served: u64,
    /// Requests that had to wait in the backlog.
    pub queued: u64,
    /// Requests that waited for the DB lock.
    pub db_convoyed: u64,
}

impl Default for WorkerPoolServer {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPoolServer {
    pub fn new() -> Self {
        WorkerPoolServer {
            conns: Vec::new(),
            min_spare: 2,
            max_workers: 64,
            acceptor: None,
            idle: Vec::new(),
            worker_count: 0,
            backlog: VecDeque::new(),
            inflight: Vec::new(),
            next_token: 0,
            db_busy: false,
            db_waiters: VecDeque::new(),
            served: 0,
            queued: 0,
            db_convoyed: 0,
        }
    }

    /// `(parallel php/copy demand, serialized db demand, resp, mem)`.
    fn demand_of(
        kind: &RequestKind,
        os: &mut OsApi<'_, '_>,
    ) -> (SimDuration, SimDuration, u32, u32) {
        match *kind {
            RequestKind::Rubis(class) => {
                let p = QueryProfile::of(class);
                let total = p.sample_cpu(os.rng());
                let db = total.mul_f64(DB_SHARE);
                let php = total.saturating_sub(db);
                (php, db, p.resp_kb, p.mem_kb)
            }
            RequestKind::Zipf { size_kb, .. } => (
                ZipfCatalog::service_cost(size_kb),
                SimDuration::ZERO,
                size_kb,
                16 + size_kb / 4,
            ),
            RequestKind::Float { work_us } => {
                (SimDuration::from_micros(work_us), SimDuration::ZERO, 1, 16)
            }
        }
    }

    fn admit(&mut self, kind: &RequestKind, conn: ConnId, req_id: u64, os: &mut OsApi<'_, '_>) {
        let (php, db, resp_kb, mem_kb) = Self::demand_of(kind, os);
        let work = Work {
            conn,
            req_id,
            resp_kb,
            mem_kb,
            db_demand: db,
            worker: None,
        };
        os.alloc_mem_kb(mem_kb as i64);
        os.add_conns(1);
        if let Some(worker) = self.idle.pop() {
            self.start_php(worker, work, php, os);
        } else if self.worker_count < self.max_workers {
            let worker = os.spawn_thread();
            self.worker_count += 1;
            self.start_php(worker, work, php, os);
        } else {
            self.queued += 1;
            // Stash the parallel demand so it runs once a worker frees up.
            let mut work = work;
            work.db_demand += php; // approximate: whole demand serial later
            self.backlog.push_back(work);
        }
    }

    fn start_php(
        &mut self,
        worker: ThreadId,
        mut work: Work,
        php: SimDuration,
        os: &mut OsApi<'_, '_>,
    ) {
        let token = self.next_token;
        self.next_token += 1;
        work.worker = Some(worker);
        self.inflight.push((token, work));
        os.burst(worker, php, token);
    }

    /// PHP phase finished: enter the DB phase (or finish if none).
    fn on_php_done(&mut self, worker: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        let needs_db = self
            .inflight_get(token)
            .map(|w| w.db_demand > SimDuration::ZERO)
            .unwrap_or(false);
        if !needs_db {
            self.finish(worker, token, os);
            return;
        }
        if self.db_busy {
            // Worker blocks on the table lock (off the run queue).
            self.db_convoyed += 1;
            self.db_waiters.push_back(token);
        } else {
            self.db_busy = true;
            let demand = self.inflight_get(token).expect("inflight").db_demand;
            os.burst(worker, demand, token | PHASE_DB);
        }
    }

    /// DB phase finished: release the lock, wake the next waiter, reply.
    fn on_db_done(&mut self, worker: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        self.db_busy = false;
        if let Some(next) = self.db_waiters.pop_front() {
            if let Some(w) = self.inflight_get(next) {
                let demand = w.db_demand;
                if let Some(wtid) = w.worker {
                    self.db_busy = true;
                    os.burst(wtid, demand, next | PHASE_DB);
                }
            }
        }
        self.finish(worker, token, os);
    }

    fn inflight_get(&self, token: u64) -> Option<&Work> {
        self.inflight
            .iter()
            .find(|&&(t, _)| t == token)
            .map(|(_, w)| w)
    }

    fn finish(&mut self, worker: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        let Some(pos) = self.inflight.iter().position(|&(t, _)| t == token) else {
            return;
        };
        let (_, work) = self.inflight.swap_remove(pos);
        self.served += 1;
        os.send(
            worker,
            work.conn,
            Payload::HttpResponse {
                req_id: work.req_id,
                bytes: work.resp_kb * 1024,
            },
        );
        os.alloc_mem_kb(-(work.mem_kb as i64));
        os.add_conns(-1);
        // The send op queues first; follow it with a zero-cost check so
        // pool bookkeeping happens *after* the response leaves.
        os.burst(worker, SimDuration::from_nanos(1), TOK_EXIT_CHECK);
    }
}

impl Service for WorkerPoolServer {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let acceptor = os.spawn_thread();
        self.acceptor = Some(acceptor);
        for &c in &self.conns {
            os.listen_thread(c, acceptor);
        }
    }

    fn on_packet(
        &mut self,
        _tid: Option<ThreadId>,
        conn: ConnId,
        _size: u32,
        payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        let Payload::HttpRequest { req_id, kind } = payload else {
            return;
        };
        self.admit(&kind, conn, req_id, os);
    }

    fn on_burst_done(&mut self, worker: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_EXIT_CHECK {
            // Response has left the kernel; shrink or park the worker.
            if let Some(work) = self.backlog.pop_front() {
                let php = SimDuration::ZERO;
                let db_left = work.db_demand;
                let mut work = work;
                work.db_demand = db_left;
                self.start_php(worker, work, php, os);
            } else if (self.idle.len() as u32) >= self.min_spare {
                self.worker_count -= 1;
                os.exit_thread(worker);
            } else {
                self.idle.push(worker);
            }
            return;
        }
        if token & PHASE_DB != 0 {
            self.on_db_done(worker, token & !PHASE_DB, os);
        } else {
            self.on_php_done(worker, token, os);
        }
    }
}
