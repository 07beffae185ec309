//! Multi-threaded parameter sweeps.
//!
//! Each parameter point runs a fully independent engine, so sweeps
//! parallelize perfectly: one OS thread per point (bounded by the machine
//! width), no shared state, deterministic per-point seeds. Results return
//! in input order regardless of completion order.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Run `f` over every item of `points` in parallel and return the results
/// in input order. `f` must be deterministic given its input.
///
/// # Panics
/// If `f` panics on any point, every other point still runs, and then
/// the lowest-indexed panicking point's own panic is re-raised here.
pub fn sweep_parallel<P, R, F>(points: Vec<P>, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    // lint: thread-spawn — sweeps sit *outside* the simulation: every
    // point builds, runs, and drops its own engine entirely inside one
    // worker closure, so no simulated state ever crosses threads and the
    // per-point results are identical to a serial run.
    let width = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(points.len().max(1));
    type Slot<R> = std::sync::Mutex<Option<Result<R, Box<dyn Any + Send>>>>;
    let results: Vec<Slot<R>> = points.iter().map(|_| std::sync::Mutex::new(None)).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);

    // lint: thread-spawn — see above: engine-per-thread, results joined
    // in input order before this function returns.
    std::thread::scope(|scope| {
        for _ in 0..width {
            // lint: thread-spawn — sweep worker; each claimed point runs
            // its own isolated engine, so cross-thread order is irrelevant.
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= points.len() {
                    break;
                }
                // A panic stays with its point, so the caller sees the
                // point's own message rather than the scope's generic one.
                let r = catch_unwind(AssertUnwindSafe(|| f(&points[i])));
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    results
        .into_iter()
        .map(|m| {
            match m
                .into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
            {
                Ok(r) => r,
                Err(payload) => resume_unwind(payload),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all() {
        let points: Vec<u64> = (0..64).collect();
        let out = sweep_parallel(points.clone(), |&p| p * 2);
        assert_eq!(out, points.iter().map(|p| p * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_point() {
        let out = sweep_parallel(vec![7u32], |&p| p + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn empty_sweep() {
        let out: Vec<u32> = sweep_parallel(Vec::<u32>::new(), |_| 0);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "point 3 exploded")]
    fn point_panic_reaches_the_caller() {
        let _ = sweep_parallel((0..8u32).collect(), |&p| {
            assert!(p != 3 && p != 6, "point {p} exploded");
            p
        });
    }
}
