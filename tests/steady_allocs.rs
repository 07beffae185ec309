//! Steady-state allocation gate: once a world is warm, the event loop
//! recycles what it needs, so a second stretch of virtual time allocates
//! a handful of times, not once per event. Each world runs a warm half,
//! then the allocations of a second, equal half are counted.
//!
//! The counter is process-wide, so this file holds exactly one `#[test]`:
//! a second test on another thread would leak its allocations into the
//! count. Nothing prints while a half is being counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use fgmon_cluster::{
    big_cluster, flaky_rdma_failover, rubis_world, torn_read_world, Cluster, RubisWorldCfg,
};
use fgmon_sim::SimDuration;
use fgmon_types::{RaceMode, Scheme};

struct CountingAlloc;

// A statistic that publishes no other data, so `Relaxed`.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is side bookkeeping that never touches memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One-off growth a warm sequential world may still make: `Vec`
/// doublings in the thread tables and the services' op buffers, whose
/// placement shifts with run length.
const GROWTH_SLACK: u64 = 32;

/// Extra allocations per shard a `run_parallel` segment may make over its
/// sequential twin. The split builds one event order per shard over the
/// engine's one slab (a timing wheel's bucket tables and sorted runs),
/// whatever the virtual length; no engine, recorder or fabric is copied
/// and no message moves, so a per-window or per-event allocation would
/// show up as thousands.
const FORK_SLACK_PER_SHARD: u64 = 32;

/// Allocations and doorbell batches of one counted half.
struct Counted {
    allocs: u64,
    batches: u64,
}

/// Run `cluster` for a warm `half`, then count a second `half`, through
/// `Cluster::run_parallel` when `shards` > 1.
fn count_steady(cluster: &mut Cluster, half: SimDuration, shards: usize) -> Counted {
    let run = |c: &mut Cluster| {
        if shards > 1 {
            c.run_parallel(half, shards)
        } else {
            c.run_for(half)
        }
    };
    run(cluster);
    let batches = cluster.fabric_stats().rdma_batch_posts;
    let before = ALLOCS.load(Ordering::Relaxed);
    run(cluster);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    Counted {
        allocs,
        batches: cluster.fabric_stats().rdma_batch_posts - batches,
    }
}

/// The ceiling for a sequential run: `OsApi::rdma_read_batch` collects a
/// fresh `Vec<BatchedRead>` per doorbell batch, because the batch travels
/// to the fabric inside the message. That is the one allocation per poll
/// round left in the hot loop; everything else is recycled.
fn sequential(name: &str, cluster: &mut Cluster, half: SimDuration) -> u64 {
    let c = count_steady(cluster, half, 1);
    let ceiling = c.batches + GROWTH_SLACK;
    println!(
        "{name}: {} allocations, {} doorbell batches, ceiling {ceiling}",
        c.allocs, c.batches
    );
    assert!(c.allocs <= ceiling, "{name}: {} > {ceiling}", c.allocs);
    c.allocs
}

#[test]
fn warm_worlds_allocate_per_batch_not_per_event() {
    assert!(
        std::env::var_os("FGMON_RACE_CHECK").is_none(),
        "refusing to run with FGMON_RACE_CHECK set: the race detector's write \
         log allocates, which changes the counted workload"
    );
    let two_s = SimDuration::from_secs(2);
    let cfg = RubisWorldCfg {
        backends: 8,
        rubis_sessions: 128,
        seed: 42,
        ..Default::default()
    };
    sequential("rubis-8", &mut rubis_world(&cfg).cluster, two_s);
    let mut torn = torn_read_world(42).cluster;
    torn.set_race_mode(RaceMode::Strict);
    sequential("torn_read_world", &mut torn, two_s);
    let failover = &mut flaky_rdma_failover(Scheme::RdmaSync, 42).world.cluster;
    sequential("flaky_rdma_failover", failover, two_s);

    let half = SimDuration::from_millis(500);
    let seq = sequential("big_cluster-64", &mut big_cluster(64, 42).cluster, half);
    let shards = 2;
    let par = count_steady(&mut big_cluster(64, 42).cluster, half, shards);
    let ceiling = seq + FORK_SLACK_PER_SHARD * shards as u64;
    println!(
        "big_cluster-64, {shards} shards: {} allocations, ceiling {ceiling}",
        par.allocs
    );
    assert!(par.allocs <= ceiling, "{} > {ceiling}", par.allocs);
}
