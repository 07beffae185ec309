//! RDMA-CAS distributed lock service and the hostile-tenant flood.
//!
//! The lock protocol is the pure `fgmon_types::lock` ticket-lock model
//! replayed verb-for-verb over the fabric: clients touch the host's
//! atomic region **only** through `OsApi::rdma_cas` (fetch is a failing
//! CAS), so the host spends zero CPU serving lock traffic — the same
//! one-sided asymmetry the monitoring schemes exploit, now on the
//! write/atomic side ("Using RDMA for Lock Management", PAPERS.md).
//!
//! Crash recovery is epoch fencing: a lease manager on the host node
//! watches `SERVING`; when a holder sits on a lock past its lease while
//! waiters queue behind it, the manager bumps the lock's epoch and
//! skips the dead ticket. Every CAS the fenced holder retries afterward
//! carries its stale epoch and fails by construction — the lock-service
//! version of the PR 3 generation fencing.
//!
//! [`RdmaFlood`] is the NIC-side hostile tenant: it saturates victim
//! NICs with one-sided reads to thrash their QP caches (the "Noisy
//! Neighbor" attack), pairing with socket chatter ([`super::CommLoad`])
//! for host-side pressure.

use fgmon_os::{OsApi, Service};
use fgmon_sim::{SimDuration, SimTime};
use fgmon_types::{
    lock, NodeId, RdmaResult, RegionId, FETCH_SENTINEL, LOCK_STRIDE, W_OWNER, W_SERVING, W_TAIL,
};

/// Timer/op token layout: `0xC10C` tag | kind | phase. The phase is
/// bumped on every posted op or armed timer, so any completion or
/// timer from a superseded step is recognized as stale and ignored —
/// which is also what makes the client self-healing across lost frames
/// and crash windows (the timeout path simply reposts).
const TOK_TAG: u64 = 0xC10C << 48;
const TOK_TAG_MASK: u64 = 0xFFFF << 48;
const KIND_SHIFT: u64 = 40;
const KIND_MASK: u64 = 0xFF << KIND_SHIFT;
const PHASE_MASK: u64 = (1 << KIND_SHIFT) - 1;

const KIND_OP: u64 = 0;
const KIND_TIMEOUT: u64 = 1;
const KIND_THINK: u64 = 2;
const KIND_POLL: u64 = 3;
const KIND_HOLD: u64 = 4;
const KIND_LEASE: u64 = 5;

fn token(kind: u64, phase: u64) -> u64 {
    TOK_TAG | (kind << KIND_SHIFT) | (phase & PHASE_MASK)
}

fn split(tok: u64) -> Option<(u64, u64)> {
    (tok & TOK_TAG_MASK == TOK_TAG).then_some(((tok & KIND_MASK) >> KIND_SHIFT, tok & PHASE_MASK))
}

/// Lock-table host: registers the atomic region backing `n_locks`
/// ticket locks (its first registration, so scenarios know the region
/// ordinal) and runs the lease-manager watchdog that epoch-fences
/// crashed holders. Lock *traffic* costs it zero CPU; only the
/// watchdog's periodic local inspection runs here.
pub struct LockHost {
    pub n_locks: u32,
    /// A holder may sit on a grant this long before the watchdog calls
    /// it dead (while waiters queue behind it).
    pub lease: SimDuration,
    /// Watchdog inspection period.
    pub check_every: SimDuration,
    pub region: Option<RegionId>,
    /// Per lock: last observed `SERVING` word and when it last moved.
    watch: Vec<(u64, SimTime)>,
    /// Holders fenced (epoch bumps) — the recovery counter scenarios
    /// assert on.
    pub fences: u64,
}

impl LockHost {
    pub fn new(n_locks: u32, lease: SimDuration, check_every: SimDuration) -> Self {
        assert!(n_locks > 0);
        LockHost {
            n_locks,
            lease,
            check_every,
            region: None,
            watch: Vec::new(),
            fences: 0,
        }
    }

    fn arm(&self, os: &mut OsApi<'_, '_>) {
        os.set_timer(self.check_every, token(KIND_LEASE, 0));
    }

    fn boot(&mut self, os: &mut OsApi<'_, '_>) {
        self.region = Some(os.register_atomic_region(self.n_locks * LOCK_STRIDE));
        self.watch = vec![(0, os.now()); self.n_locks as usize];
        self.arm(os);
    }
}

impl Service for LockHost {
    fn name(&self) -> &'static str {
        "lock-host"
    }
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        self.boot(os);
    }
    fn on_restart(&mut self, os: &mut OsApi<'_, '_>) {
        // The host itself restarted: the words are gone with the old
        // registration; re-register fresh (clients' CAS verbs against
        // the old region answer `RegionInvalidated` and they re-enter).
        self.boot(os);
    }
    fn on_timer(&mut self, tok: u64, os: &mut OsApi<'_, '_>) {
        let Some((KIND_LEASE, _)) = split(tok) else {
            return;
        };
        let Some(region) = self.region else {
            return;
        };
        let now = os.now();
        for i in 0..self.n_locks {
            let serving_word = lock::LockTable::word_of(i, W_SERVING);
            let Some(serving) = os.atomic_read(region, serving_word) else {
                continue;
            };
            let slot = &mut self.watch[i as usize];
            if serving != slot.0 {
                *slot = (serving, now);
                continue;
            }
            let (epoch, ticket) = lock::decode(serving);
            let tail = os
                .atomic_read(region, lock::LockTable::word_of(i, W_TAIL))
                .unwrap_or(0);
            // A grant is outstanding iff its ticket was taken; fencing
            // an idle lock would strand the next ticket forever.
            let held = (ticket as u64) < tail;
            if held && now >= slot.1 + self.lease {
                // fence_advance, host-locally: bump epoch, skip the dead
                // ticket, clear the owner guard.
                let advanced = lock::encode(epoch + 1, ticket + 1);
                os.atomic_write(region, serving_word, advanced);
                os.atomic_write(region, lock::LockTable::word_of(i, W_OWNER), 0);
                self.fences += 1;
                *slot = (advanced, now);
            }
        }
        self.arm(os);
    }
}

/// Where one lock-client worker is in the acquire/hold/release cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ClientState {
    Idle,
    /// Fetching `TAIL` (`seen == None`) or CAS-incrementing it.
    TakingTicket {
        lock: u32,
        seen: Option<u64>,
    },
    /// Ticket taken; polling `SERVING` until it comes up.
    Waiting {
        lock: u32,
        ticket: u32,
    },
    /// Granted; asserting the owner guard.
    Entering {
        lock: u32,
        ticket: u32,
        epoch: u32,
    },
    /// Inside the critical section (simulated work burst of `hold`).
    Holding {
        lock: u32,
        ticket: u32,
        epoch: u32,
        entered: bool,
    },
    /// Clearing the owner guard — the first half of the release,
    /// skipped when the grant never entered (the guard holds someone
    /// else's key).
    ClearingOwner {
        lock: u32,
        ticket: u32,
        epoch: u32,
    },
    /// Advancing `SERVING` to the next ticket — the second half. The
    /// successor can only be granted after this lands, by which point
    /// the guard provably reads zero; the reverse order left a window
    /// the chaos sweep caught (one slow-NIC op on the releaser was
    /// enough to stretch it past the successor's entry).
    Releasing {
        lock: u32,
        ticket: u32,
        epoch: u32,
    },
}

/// One closed-loop lock client: think → take ticket (CAS-increment) →
/// poll for the grant → hold → release, forever. All remote steps are
/// single CAS verbs with a timeout-repost loop, so lost frames, an
/// overloaded NIC shedding completions, and the client's own crash
/// windows all heal the same way — and a post-crash release lands
/// after the lease manager fenced the epoch, failing visibly into
/// [`LockClient::release_fenced`].
pub struct LockClient {
    pub host: NodeId,
    pub region: RegionId,
    pub n_locks: u32,
    /// Mean idle time between acquire cycles (exponential).
    pub think_mean: SimDuration,
    /// Critical-section length.
    pub hold: SimDuration,
    /// `SERVING` poll period while queued.
    pub poll_every: SimDuration,
    /// Repost timeout for every posted CAS.
    pub op_timeout: SimDuration,
    state: ClientState,
    phase: u64,
    /// When the current acquire cycle started (wait-time metric).
    asked_at: SimTime,
    /// Owner-guard key: node index + 1 (never 0).
    key: u64,
    // ---- observable outcomes -------------------------------------------
    pub acquisitions: u64,
    pub releases: u64,
    /// Releases rejected because the lease manager fenced our epoch —
    /// the crashed-holder recovery path working as designed.
    pub release_fenced: u64,
    /// Grants that were fenced past us while we were crashed: the
    /// serving counter moved beyond our ticket, so the cycle restarts.
    pub grant_skipped: u64,
    /// Owner guard found nonzero at grant: a mutual-exclusion violation
    /// (must stay zero).
    pub exclusion_violations: u64,
    /// CAS-increment retries while contending for a ticket.
    pub cas_retries: u64,
    /// Ops reposted after their timeout.
    pub timeouts: u64,
    /// AccessDenied / RegionInvalidated completions (host restarted or
    /// not yet up); the cycle backs off and re-enters.
    pub errors: u64,
}

impl LockClient {
    pub fn new(host: NodeId, region: RegionId, n_locks: u32, think_mean: SimDuration) -> Self {
        LockClient {
            host,
            region,
            n_locks: n_locks.max(1),
            think_mean,
            hold: SimDuration::from_millis(20),
            poll_every: SimDuration::from_micros(200),
            op_timeout: SimDuration::from_millis(25),
            state: ClientState::Idle,
            phase: 0,
            asked_at: SimTime::ZERO,
            key: 0,
            acquisitions: 0,
            releases: 0,
            release_fenced: 0,
            grant_skipped: 0,
            exclusion_violations: 0,
            cas_retries: 0,
            timeouts: 0,
            errors: 0,
        }
    }

    fn next_phase(&mut self) -> u64 {
        self.phase += 1;
        self.phase
    }

    fn think(&mut self, os: &mut OsApi<'_, '_>) {
        self.state = ClientState::Idle;
        let p = self.next_phase();
        let mean = self.think_mean.as_secs_f64();
        let gap = SimDuration::from_secs_f64(os.rng().exp(mean).max(1e-6));
        os.set_timer(gap, token(KIND_THINK, p));
    }

    /// Post the CAS the current state calls for, plus its repost timer.
    fn post(&mut self, os: &mut OsApi<'_, '_>) {
        let p = self.next_phase();
        let (word, expected, swap) = match self.state {
            ClientState::Idle | ClientState::Holding { .. } => return,
            ClientState::TakingTicket { lock, seen } => {
                let w = lock::LockTable::word_of(lock, W_TAIL);
                match seen {
                    None => (w, FETCH_SENTINEL, FETCH_SENTINEL),
                    Some(s) => (w, s, s + 1),
                }
            }
            ClientState::Waiting { lock, .. } => (
                lock::LockTable::word_of(lock, W_SERVING),
                FETCH_SENTINEL,
                FETCH_SENTINEL,
            ),
            ClientState::Entering { lock, .. } => {
                (lock::LockTable::word_of(lock, W_OWNER), 0, self.key)
            }
            ClientState::ClearingOwner { lock, .. } => {
                (lock::LockTable::word_of(lock, W_OWNER), self.key, 0)
            }
            ClientState::Releasing {
                lock,
                ticket,
                epoch,
            } => (
                lock::LockTable::word_of(lock, W_SERVING),
                lock::encode(epoch, ticket),
                lock::encode(epoch, ticket + 1),
            ),
        };
        os.rdma_cas(
            self.host,
            self.region,
            word,
            expected,
            swap,
            token(KIND_OP, p),
        );
        os.set_timer(self.op_timeout, token(KIND_TIMEOUT, p));
    }

    /// Leave the critical section: clear the owner guard first (when
    /// this grant actually entered), then advance `SERVING`. See
    /// [`ClientState::Releasing`] for why the order matters.
    fn begin_release(
        &mut self,
        lock: u32,
        ticket: u32,
        epoch: u32,
        entered: bool,
        os: &mut OsApi<'_, '_>,
    ) {
        self.state = if entered {
            ClientState::ClearingOwner {
                lock,
                ticket,
                epoch,
            }
        } else {
            ClientState::Releasing {
                lock,
                ticket,
                epoch,
            }
        };
        self.post(os);
    }

    fn on_cas(&mut self, prior: u64, os: &mut OsApi<'_, '_>) {
        match self.state {
            ClientState::Idle | ClientState::Holding { .. } => {}
            ClientState::TakingTicket { lock, seen } => match seen {
                None => {
                    self.state = ClientState::TakingTicket {
                        lock,
                        seen: Some(prior),
                    };
                    self.post(os);
                }
                Some(s) if prior == s => {
                    self.state = ClientState::Waiting {
                        lock,
                        ticket: s as u32,
                    };
                    self.post(os);
                }
                Some(_) => {
                    // Another client won the increment; retry from its
                    // published value without a fresh fetch.
                    self.cas_retries += 1;
                    self.state = ClientState::TakingTicket {
                        lock,
                        seen: Some(prior),
                    };
                    self.post(os);
                }
            },
            ClientState::Waiting { lock, ticket } => {
                let (epoch, serving) = lock::decode(prior);
                if serving == ticket {
                    self.state = ClientState::Entering {
                        lock,
                        ticket,
                        epoch,
                    };
                    self.post(os);
                } else if serving > ticket {
                    // The lease manager fenced a dead holder and skipped
                    // past our ticket while we were unreachable (our own
                    // crash window). The grant is gone for good; abandon
                    // it and queue afresh.
                    self.grant_skipped += 1;
                    self.think(os);
                } else {
                    let p = self.next_phase();
                    os.set_timer(self.poll_every, token(KIND_POLL, p));
                }
            }
            ClientState::Entering {
                lock,
                ticket,
                epoch,
            } => {
                // `prior == key` is our own earlier guard CAS whose ack
                // outran its repost timeout: the guard is already ours.
                // Only a *foreign* key is a violated invariant.
                let entered = prior == 0 || prior == self.key;
                if !entered {
                    self.exclusion_violations += 1;
                }
                self.acquisitions += 1;
                let waited = os.now().nanos().saturating_sub(self.asked_at.nanos());
                os.recorder()
                    .histogram("lock/wait_us")
                    .record(waited / 1_000);
                self.state = ClientState::Holding {
                    lock,
                    ticket,
                    epoch,
                    entered,
                };
                let p = self.next_phase();
                let hold = self.hold;
                os.set_timer(hold, token(KIND_HOLD, p));
            }
            ClientState::ClearingOwner {
                lock,
                ticket,
                epoch,
            } => {
                // Prior deliberately ignored: a fenced generation finds
                // the guard already zeroed by the manager (or already
                // re-asserted by its successor) and the CAS misses
                // harmlessly. Either way the baton pass comes next.
                self.state = ClientState::Releasing {
                    lock,
                    ticket,
                    epoch,
                };
                self.post(os);
            }
            ClientState::Releasing { ticket, epoch, .. } => {
                if prior == lock::encode(epoch, ticket) {
                    self.releases += 1;
                } else {
                    // Fenced: the manager declared us dead and moved the
                    // epoch on. Our generation can never touch this lock
                    // again; re-enter with a fresh ticket after thinking.
                    self.release_fenced += 1;
                }
                self.think(os);
            }
        }
    }
}

impl Service for LockClient {
    fn name(&self) -> &'static str {
        "lock-client"
    }
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        self.key = os.node().index() as u64 + 1;
        // Intern the wait-time key now, so the grant path only ever
        // looks it up.
        os.recorder().histogram("lock/wait_us");
        self.think(os);
    }
    fn on_restart(&mut self, os: &mut OsApi<'_, '_>) {
        // Fail-stop recovery. Timers and in-flight completions died with
        // the old boot generation, so resume from whatever step the
        // struct still records. The interesting case is a crash *inside*
        // the critical section: release what we still believe we hold —
        // the lease manager has long since fenced our epoch, so the CAS
        // fails into `release_fenced` and we re-enter with a fresh
        // ticket. No special recovery protocol needed.
        match self.state {
            ClientState::Holding {
                lock,
                ticket,
                epoch,
                entered,
            } => {
                self.begin_release(lock, ticket, epoch, entered, os);
            }
            // A pre-crash grant cannot prove it is still current — the
            // crash window dwarfs the lease, so the manager has almost
            // certainly fenced it and zeroed the guard, which a blind
            // `0 → key` repost would re-poison. Demote to `Waiting`:
            // the fresh `SERVING` poll answers `grant_skipped` if the
            // world moved on, or re-enters legitimately if not.
            ClientState::Entering { lock, ticket, .. } => {
                self.state = ClientState::Waiting { lock, ticket };
                self.post(os);
            }
            ClientState::Idle => self.think(os),
            _ => self.post(os),
        }
    }
    fn on_timer(&mut self, tok: u64, os: &mut OsApi<'_, '_>) {
        let Some((kind, phase)) = split(tok) else {
            return;
        };
        if phase != self.phase & PHASE_MASK {
            return; // superseded step
        }
        match kind {
            KIND_THINK => {
                let lock = os.rng().index(self.n_locks as usize) as u32;
                self.asked_at = os.now();
                self.state = ClientState::TakingTicket { lock, seen: None };
                self.post(os);
            }
            KIND_POLL | KIND_TIMEOUT => {
                if kind == KIND_TIMEOUT {
                    self.timeouts += 1;
                    // An unconfirmed guard CAS is never blindly
                    // reposted: by the time it would land, the lease
                    // manager may have fenced our grant, and the CAS's
                    // `expected == 0` carries no epoch to fail on. Fall
                    // back to `Waiting` and re-verify the grant is
                    // still current first; re-entry is idempotent if
                    // the original CAS did land (`prior == key`).
                    if let ClientState::Entering { lock, ticket, .. } = self.state {
                        self.state = ClientState::Waiting { lock, ticket };
                    }
                }
                self.post(os);
            }
            KIND_HOLD => {
                if let ClientState::Holding {
                    lock,
                    ticket,
                    epoch,
                    entered,
                } = self.state
                {
                    self.begin_release(lock, ticket, epoch, entered, os);
                }
            }
            _ => {}
        }
    }
    fn on_rdma_complete(&mut self, tok: u64, result: RdmaResult, os: &mut OsApi<'_, '_>) {
        let Some((KIND_OP, phase)) = split(tok) else {
            return;
        };
        if phase != self.phase & PHASE_MASK {
            return; // completion of a superseded post
        }
        match result {
            RdmaResult::CasOk { prior } => self.on_cas(prior, os),
            // Host not up yet, or restarted (old region fenced): back
            // off and start a fresh cycle against the same ordinal —
            // the host re-registers it first again after restart.
            _ => {
                self.errors += 1;
                self.think(os);
            }
        }
    }
}

/// The hostile tenant's NIC flood: every `tick`, post `reads_per_tick`
/// one-sided reads against each victim region. Each read is its own
/// doorbell ring — the point is QP churn on the *victims'* NICs, which
/// thrashes co-tenants' completion latency once past the QP-cache
/// working set.
pub struct RdmaFlood {
    pub targets: Vec<(NodeId, RegionId)>,
    pub reads_per_tick: u32,
    pub tick: SimDuration,
    pub completions: u64,
    pub posted: u64,
}

impl RdmaFlood {
    pub fn new(targets: Vec<(NodeId, RegionId)>, reads_per_tick: u32, tick: SimDuration) -> Self {
        RdmaFlood {
            targets,
            reads_per_tick,
            tick,
            completions: 0,
            posted: 0,
        }
    }
}

impl Service for RdmaFlood {
    fn name(&self) -> &'static str {
        "rdma-flood"
    }
    fn on_start(&mut self, os: &mut OsApi<'_, '_>) {
        os.set_timer(self.tick, token(KIND_THINK, 0));
    }
    fn on_timer(&mut self, _tok: u64, os: &mut OsApi<'_, '_>) {
        for &(node, region) in &self.targets {
            for _ in 0..self.reads_per_tick {
                self.posted += 1;
                os.rdma_read(node, region, token(KIND_OP, 0));
            }
        }
        os.set_timer(self.tick, token(KIND_THINK, 0));
    }
    fn on_rdma_complete(&mut self, _tok: u64, _result: RdmaResult, _os: &mut OsApi<'_, '_>) {
        self.completions += 1;
    }
}
