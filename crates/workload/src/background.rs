//! Background load generators: CPU hogs, communication chatter, and a
//! time-varying load ramp (used to drive the accuracy experiments).

use fgmon_os::{OsApi, Service};
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{ConnId, Payload, ThreadId};

const TOK_HOG: u64 = 0xB6_0001;
const TOK_COMM_SEND: u64 = 0xB6_0002;
const TOK_RAMP: u64 = 0xB6_0003;

/// `n` CPU-bound threads, each burning the CPU in long bursts forever —
/// the "background computation" of the paper's loaded-server experiments.
pub struct ComputeHogs {
    pub n: u32,
    burst: SimDuration,
}

impl ComputeHogs {
    pub fn new(n: u32) -> Self {
        ComputeHogs {
            n,
            burst: SimDuration::from_millis(40),
        }
    }
}

impl Service for ComputeHogs {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        for _ in 0..self.n {
            let tid = os.spawn_thread("hog");
            os.burst(tid, self.burst, TOK_HOG);
        }
    }
    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_HOG {
            os.burst(tid, self.burst, TOK_HOG);
        }
    }
}

/// Poisson sender: a thread that transmits `Opaque` frames on `conn`
/// with exponentially distributed gaps of mean `interval` (paying the
/// kernel send path), emulating the "communication operations" part of
/// the background load. The jitter matters: metronomic senders alias
/// against the OS tick and the samplers' periods.
pub struct CommLoad {
    pub conn: ConnId,
    pub interval: SimDuration,
    /// Frames transmitted back-to-back per cycle (burstiness knob: real
    /// application traffic arrives in trains, not single frames).
    pub batch: u32,
    tid: Option<ThreadId>,
    pub sent: u64,
}

impl CommLoad {
    pub fn new(conn: ConnId, interval: SimDuration) -> Self {
        Self::bursty(conn, interval, 1)
    }

    /// Sender that ships `batch` frames back-to-back each cycle.
    pub fn bursty(conn: ConnId, interval: SimDuration, batch: u32) -> Self {
        CommLoad {
            conn,
            interval,
            batch: batch.max(1),
            tid: None,
            sent: 0,
        }
    }
}

impl CommLoad {
    fn gap(&self, os: &mut OsApi<'_, '_>) -> SimDuration {
        let mean = self.interval.as_secs_f64();
        SimDuration::from_secs_f64(os.rng().exp(mean).max(1e-6))
    }
}

impl Service for CommLoad {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let tid = os.spawn_thread("comm-tx");
        self.tid = Some(tid);
        // Receive echoes on the same thread: the kernel receive path load
        // lands on this node too.
        os.listen_thread(self.conn, tid);
        for _ in 0..self.batch {
            self.sent += 1;
            os.send(tid, self.conn, Payload::Opaque { tag: self.sent });
        }
        let gap = self.gap(os);
        os.sleep(tid, gap, TOK_COMM_SEND);
    }
    fn on_wake(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_COMM_SEND {
            for _ in 0..self.batch {
                self.sent += 1;
                os.send(tid, self.conn, Payload::Opaque { tag: self.sent });
            }
            let gap = self.gap(os);
            os.sleep(tid, gap, TOK_COMM_SEND);
        }
    }
    fn on_packet(
        &mut self,
        _tid: Option<ThreadId>,
        _conn: ConnId,
        _size: u32,
        _payload: Payload,
        _os: &mut OsApi<'_, '_>,
    ) {
        // Echo received; the recv-path CPU cost was already charged.
    }
}

/// Receives chatter on a connection with a dedicated thread and optionally
/// echoes every frame back (doubling the interrupt load on both ends).
pub struct CommSink {
    pub conn: ConnId,
    pub echo: bool,
    pub received: u64,
}

impl CommSink {
    pub fn new(conn: ConnId, echo: bool) -> Self {
        CommSink {
            conn,
            echo,
            received: 0,
        }
    }
}

impl Service for CommSink {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        let tid = os.spawn_thread("comm-rx");
        os.listen_thread(self.conn, tid);
    }
    fn on_packet(
        &mut self,
        tid: Option<ThreadId>,
        conn: ConnId,
        _size: u32,
        _payload: Payload,
        os: &mut OsApi<'_, '_>,
    ) {
        self.received += 1;
        if self.echo {
            if let Some(tid) = tid {
                os.send(tid, conn, Payload::Opaque { tag: self.received });
            }
        }
    }
}

/// A step in a [`LoadRamp`] schedule.
#[derive(Clone, Copy, Debug)]
pub struct RampStep {
    /// When this step takes effect.
    pub at: SimTime,
    /// Target number of live hog threads.
    pub hogs: u32,
}

/// Time-varying CPU load: follows a schedule of target hog-thread counts,
/// spawning and killing threads as the schedule advances. Drives the
/// paper's Fig. 5 accuracy experiment, where the number of threads and the
/// CPU load change while every scheme watches.
pub struct LoadRamp {
    schedule: Vec<RampStep>,
    next_step: usize,
    active: Vec<ThreadId>,
    burst: SimDuration,
}

impl LoadRamp {
    pub fn new(schedule: Vec<RampStep>) -> Self {
        LoadRamp {
            schedule,
            next_step: 0,
            active: Vec::new(),
            burst: SimDuration::from_millis(40),
        }
    }

    fn arm_next(&self, os: &mut OsApi<'_, '_>) {
        if let Some(step) = self.schedule.get(self.next_step) {
            let delay = step.at.since(os.now());
            os.set_timer(delay, TOK_RAMP);
        }
    }

    fn apply(&mut self, target: u32, os: &mut OsApi<'_, '_>) {
        while (self.active.len() as u32) < target {
            let tid = os.spawn_thread("ramp-hog");
            os.burst(tid, self.burst, TOK_HOG);
            self.active.push(tid);
        }
        while (self.active.len() as u32) > target {
            let tid = self.active.pop().expect("len checked");
            os.exit_thread(tid);
        }
    }

    pub fn current_target(&self) -> u32 {
        self.active.len() as u32
    }
}

impl Service for LoadRamp {
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        self.arm_next(os);
    }
    fn on_timer(&mut self, token: u64, os: &mut OsApi<'_, '_>) {
        if token != TOK_RAMP {
            return;
        }
        // Apply every step whose time has come (robust to equal times).
        while let Some(step) = self.schedule.get(self.next_step).copied() {
            if step.at > os.now() {
                break;
            }
            self.apply(step.hogs, os);
            self.next_step += 1;
        }
        self.arm_next(os);
    }
    fn on_burst_done(&mut self, tid: ThreadId, token: u64, os: &mut OsApi<'_, '_>) {
        if token == TOK_HOG && self.active.contains(&tid) {
            os.burst(tid, self.burst, TOK_HOG);
        }
    }
}
