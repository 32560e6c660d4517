//! `spex-pool` — the shared scoped-thread worker pool.
//!
//! One primitive, [`run_indexed`]: produce `n` results on up to `threads`
//! scoped workers, writing results back by index so output order is
//! deterministic regardless of scheduling. It sits below `spex-core` in
//! the crate graph (depending only on `spex-obs` for telemetry), so both
//! the inference passes and the checking layer fan work across the same
//! pool without a dependency cycle.
//!
//! # Determinism contract
//!
//! * **Results** come back in index order — `out[i] == make(i)` — however
//!   the jobs were scheduled.
//! * **Telemetry counts** are thread-count-independent: `pool.runs`,
//!   `pool.jobs` and one `pool.queue.depth` observation per job (depth
//!   `n - i` for job `i`, the same multiset of samples whether one worker
//!   or sixteen drain the queue). Only the per-worker gauges
//!   (`pool.worker.N.jobs`, `pool.worker.N.utilization_pct`) and the
//!   recorded timings are scheduling-dependent, and those are excluded
//!   from `counts_signature()` by design.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Produces `n` results with `make` on up to `threads` scoped workers,
/// sharing an atomic cursor and writing results back by index so output
/// order is deterministic regardless of scheduling.
///
/// When a `recorder` is given, each worker installs it for its lifetime
/// (thread-locals do not cross `spawn`, so the caller's install alone
/// would leave workers silent) and reports per-worker job counts and
/// utilization, per-job queue-depth samples, and pool-wide totals into
/// it. Each worker installs it under the caller's span path, so spans
/// opened inside `make` nest below the span that called the pool — the
/// same tree the caller would record running the jobs itself, at every
/// thread count.
pub fn run_indexed<T, F>(
    threads: usize,
    n: usize,
    recorder: Option<&Arc<spex_obs::Recorder>>,
    make: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(n.max(1));
    let parent = recorder.map(|_| spex_obs::current_path());
    let install = || {
        recorder
            .zip(parent.clone())
            .map(|(rec, path)| spex_obs::install_under(rec, path))
    };
    if let Some(rec) = recorder {
        let _telemetry = spex_obs::install(rec);
        spex_obs::counter("pool.runs", 1);
        spex_obs::counter("pool.jobs", n as u64);
        spex_obs::gauge("pool.workers", workers as i64);
    }
    if workers <= 1 {
        let _telemetry = install();
        return (0..n)
            .map(|i| {
                spex_obs::observe("pool.queue.depth", (n - i) as u64);
                make(i)
            })
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn({
                let cursor = &cursor;
                let slots = &slots;
                let make = &make;
                let install = &install;
                move || {
                    let _telemetry = install();
                    let started = spex_obs::clock();
                    let mut jobs = 0u64;
                    let mut busy_ns = 0u128;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        spex_obs::observe("pool.queue.depth", (n - i) as u64);
                        let job_start = spex_obs::clock();
                        let result = make(i);
                        *slots[i].lock().unwrap() = Some(result);
                        jobs += 1;
                        if let Some(t) = job_start {
                            busy_ns += t.elapsed().as_nanos();
                        }
                    }
                    if let Some(started) = started {
                        report_worker(w, jobs, busy_ns, started);
                    }
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("worker filled every slot"))
        .collect()
}

/// Publishes one worker's lifetime stats: how many jobs it took and what
/// fraction of its wall-clock it spent inside them.
fn report_worker(worker: usize, jobs: u64, busy_ns: u128, started: Instant) {
    let wall_ns = started.elapsed().as_nanos().max(1);
    let utilization = (busy_ns.min(wall_ns) * 100 / wall_ns) as i64;
    spex_obs::gauge(&format!("pool.worker.{worker}.jobs"), jobs as i64);
    spex_obs::gauge(
        &format!("pool.worker.{worker}.utilization_pct"),
        utilization,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_is_deterministic_across_thread_counts() {
        let serial = run_indexed(1, 64, None, |i| i * 7);
        for threads in [2, 4, 8] {
            assert_eq!(run_indexed(threads, 64, None, |i| i * 7), serial);
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        assert_eq!(run_indexed(4, 0, None, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn queue_depth_samples_once_per_job_at_any_thread_count() {
        let mut per_threads = Vec::new();
        for threads in [1, 3, 8] {
            let rec = Arc::new(spex_obs::Recorder::new());
            run_indexed(threads, 16, Some(&rec), |i| i);
            let snap = rec.snapshot();
            let h = snap
                .histograms
                .get("pool.queue.depth")
                .expect("depth recorded on every path");
            assert_eq!(h.count, 16, "one sample per job at {threads} thread(s)");
            assert_eq!(snap.counter("pool.jobs"), 16);
            per_threads.push((h.count, h.sum, h.buckets.clone()));
        }
        assert!(
            per_threads.windows(2).all(|w| w[0] == w[1]),
            "the depth histogram must be identical at every thread count"
        );
    }

    #[test]
    fn worker_gauges_report_only_under_a_recorder() {
        let rec = Arc::new(spex_obs::Recorder::new());
        run_indexed(4, 8, Some(&rec), |i| i);
        let snap = rec.snapshot();
        assert!(snap
            .gauges
            .keys()
            .any(|k| k.starts_with("pool.worker.") && k.ends_with(".jobs")));
        assert_eq!(snap.gauges.get("pool.workers"), Some(&4));
    }
}
