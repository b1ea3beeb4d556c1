//! Worker-count selection and the work-stealing pool shared by every
//! parallel entry point.
//!
//! The experiment matrix (`run_matrix` / `replay_file_matrix`), the
//! throughput report binary and the experiment service all shard work across
//! `std::thread::scope` workers.  They resolve how many workers to spawn
//! through one precedence chain instead of per-binary ad-hoc logic:
//!
//! 1. an explicit override (a `--threads` flag, a builder call),
//! 2. the `LAD_THREADS` environment variable,
//! 3. a caller-supplied default — usually
//!    [`std::thread::available_parallelism`].
//!
//! Every resolved count is clamped to at least one worker, and unparsable
//! `LAD_THREADS` values fall through to the default rather than erroring: a
//! worker count is a tuning knob, not a correctness input (all matrix
//! results are byte-identical at any thread count).
//!
//! The matrices then run their cells through [`map_in_order`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable consulted when no explicit override is given.
pub const THREADS_ENV: &str = "LAD_THREADS";

/// Resolves a worker count: `flag` if given, else `LAD_THREADS`, else the
/// machine's available parallelism (1 when that cannot be determined).
/// Always at least 1.
pub fn worker_count(flag: Option<usize>) -> usize {
    worker_count_or(
        flag,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
    )
}

/// Like [`worker_count`], but falling back to `default` instead of the
/// machine's parallelism — for entry points whose natural default is not
/// "all cores" (e.g. the timing-sensitive benchmark report defaults to one
/// worker so wall-clock measurements do not contend).
pub fn worker_count_or(flag: Option<usize>, default: usize) -> usize {
    flag.or_else(|| {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|value| value.trim().parse().ok())
    })
    .unwrap_or(default)
    .max(1)
}

/// The number of workers [`map_in_order`] spawns for `jobs` jobs: `workers`
/// clamped so no worker starts only to find the queue empty, and at least
/// one even for no jobs.
pub fn pool_size(workers: usize, jobs: usize) -> usize {
    workers.min(jobs).max(1)
}

/// Runs `run(index, job)` for every job on [`pool_size`] scoped worker
/// threads and returns the results in job order.
///
/// Work stealing: each worker pulls the next unclaimed job index from an
/// atomic counter instead of owning a pre-cut chunk, so one slow job never
/// strands the jobs queued behind it.  Results are merged by job index, so
/// the output is the same whichever worker ran which job.  A panic in `run`
/// is re-raised on the calling thread once every worker has stopped.
pub fn map_in_order<J, R, F>(workers: usize, jobs: &[J], run: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let next_job = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = Vec::with_capacity(jobs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..pool_size(workers, jobs.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut cells = Vec::new();
                    loop {
                        let index = next_job.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(index) else {
                            break;
                        };
                        cells.push((index, run(index, job)));
                    }
                    cells
                })
            })
            .collect();
        for handle in handles {
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
    });
    done.sort_unstable_by_key(|(index, _)| *index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The LAD_THREADS-reading paths are exercised in a single test because
    // `cargo test` runs tests concurrently and the environment is
    // process-global.
    #[test]
    fn precedence_is_flag_then_env_then_default() {
        // Explicit overrides win outright and are clamped to >= 1.
        assert_eq!(worker_count_or(Some(6), 2), 6);
        assert_eq!(worker_count_or(Some(0), 2), 1);
        assert_eq!(worker_count(Some(3)), 3);

        std::env::remove_var(THREADS_ENV);
        assert_eq!(worker_count_or(None, 5), 5);
        assert_eq!(worker_count_or(None, 0), 1);
        assert!(worker_count(None) >= 1);

        std::env::set_var(THREADS_ENV, "4");
        assert_eq!(worker_count_or(None, 9), 4);
        assert_eq!(worker_count(None), 4);
        // The flag still beats the environment.
        assert_eq!(worker_count_or(Some(2), 9), 2);

        // Garbage and zero env values fall back safely.
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(worker_count_or(None, 7), 7);
        std::env::set_var(THREADS_ENV, "0");
        assert_eq!(worker_count_or(None, 7), 1);

        std::env::remove_var(THREADS_ENV);
    }

    #[test]
    fn map_in_order_returns_results_in_job_order() {
        let square = |index: usize, job: &u64| (index, job * job);
        let none: [u64; 0] = [];
        assert!(map_in_order(4, &none, square).is_empty());
        let jobs: Vec<u64> = (0..37).collect();
        let expected: Vec<(usize, u64)> = jobs.iter().map(|&j| (j as usize, j * j)).collect();
        for workers in [0, 1, 3, 64] {
            assert_eq!(map_in_order(workers, &jobs, square), expected);
        }
        assert_eq!(pool_size(64, 3), 3);
        assert_eq!(pool_size(2, 22), 2);
        assert_eq!(pool_size(8, 0), 1);
        assert_eq!(pool_size(0, 5), 1);
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn map_in_order_reraises_worker_panics() {
        let jobs: Vec<usize> = (0..8).collect();
        map_in_order(3, &jobs, |_, &job| {
            assert!(job != 5, "job {job} failed");
            job
        });
    }
}
