//! Host-speed calibration.
//!
//! A shared virtual machine does not run at one speed: other tenants take
//! CPU time, cache and memory bandwidth from it.  On the 2-vCPU VM the
//! bounds were set on, the same code ran up to 1.7× slower for minutes at
//! a time while the kernel counted under 2 % of the time as steal, and
//! runs of one workload spread by 40 % in wall-clock time.  So every host
//! time the benchmark reports is scaled by the host's speed, measured in
//! the same run: a fixed reference workload in this file runs between the
//! timed units, on as many threads as those units keep busy, and a time is
//! reported as
//!
//! ```text
//! wall seconds × REFERENCE_S / median wall seconds of the reference
//! ```
//!
//! that is, in seconds of a host on which the reference takes
//! [`REFERENCE_S`].  The reference is the benchmark's own code, so a change
//! to the program moves the measured time and not the reference, and the
//! scaled time moves in full; a host that is slower throughout a run slows
//! both, and the scaled time stays.  Time the program spends blocked or on
//! other threads stays in the wall clock.

use std::time::Instant;

use crate::median;

/// 64-bit words in each thread's reference table: 4 MiB, larger than a
/// core's private caches, like the simulator's tag arrays and directories.
const TABLE_WORDS: usize = 1 << 19;
/// Read-modify-writes one reference run makes on each thread.
const STEPS: usize = 5_000_000;
/// Seed of the first thread's pseudo-random walk.
const SEED: u64 = 0x9e37_79b9;
/// The reference's median time on one thread of a quiet 2-vCPU Intel Xeon
/// VM; there, single-threaded phases report about their wall-clock times.
pub const REFERENCE_S: f64 = 0.0185;

/// Seconds this thread has waited on a run queue for a CPU of this
/// machine, from `/proc/thread-self/schedstat`, or 0 where that is not
/// available.
fn run_queue_wait_s() -> f64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|stat| stat.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |ns| ns * 1e-9)
}

/// One thread's reference work: the table is refilled with a fixed
/// pattern, then takes pseudo-random read-modify-writes with a
/// data-dependent branch.  The table is allocated once, so the reference
/// does not depend on the allocator's state.  Returns the seconds it took,
/// less the time the thread waited for a CPU of this machine: two
/// reference threads started together sometimes share one vCPU and take
/// turns, which the phase's long-running threads do not.  Time the
/// hypervisor takes from the vCPU (steal) is not a run-queue wait and
/// stays in.
fn reference_run(table: &mut [u64], seed: u64) -> f64 {
    let waited_s = run_queue_wait_s();
    let started = Instant::now();
    for (i, word) in table.iter_mut().enumerate() {
        *word = i as u64;
    }
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & (TABLE_WORDS - 1)];
        *slot = slot.wrapping_add(x).rotate_left(7);
        acc = acc.wrapping_add(*slot);
        if *slot & 3 == 0 {
            acc ^= x >> 11;
        }
    }
    std::hint::black_box(acc);
    let wall_s = started.elapsed().as_secs_f64();
    wall_s - (run_queue_wait_s() - waited_s).clamp(0.0, wall_s)
}

/// Reference timings of one phase of a run.
#[derive(Debug)]
pub struct HostSpeed {
    /// One table per thread the phase keeps busy.
    tables: Vec<Vec<u64>>,
    /// Seconds of each sample: the harmonic mean over its threads.
    samples: Vec<f64>,
    /// Wall seconds spent sampling, to take out of a phase that samples
    /// inside its timed interval.
    spent_s: f64,
}

impl HostSpeed {
    /// Calibrates a phase whose units keep `threads` CPUs busy.  The tables
    /// (4 MiB a thread) are allocated once and add a constant to the
    /// phase's peak memory.
    pub fn new(threads: usize) -> Self {
        HostSpeed {
            tables: (0..threads.max(1))
                .map(|_| vec![0u64; TABLE_WORDS])
                .collect(),
            samples: Vec::new(),
            spent_s: 0.0,
        }
    }

    /// Runs the reference once on every thread at the same time, the first
    /// on the calling thread, where a single-threaded phase runs its units.
    /// Each thread times its own run, so the delay before a new thread is
    /// first scheduled is left out.  The sample is the harmonic mean of the
    /// threads' times, the time per run at their combined rate: a phase's
    /// threads share its work, so one slowed CPU slows the phase by less
    /// than it slows its own thread.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let threads = self.tables.len();
        let rate: f64 = std::thread::scope(|scope| {
            let (own, others) = self
                .tables
                .split_first_mut()
                .unwrap_or_else(|| unreachable!("a phase keeps at least one thread busy"));
            let handles: Vec<_> = others
                .iter_mut()
                .enumerate()
                .map(|(t, table)| scope.spawn(move || reference_run(table, SEED + 1 + t as u64)))
                .collect();
            let own_s = reference_run(own, SEED);
            1.0 / own_s
                + handles
                    .into_iter()
                    .map(|h| {
                        1.0 / h
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                    })
                    .sum::<f64>()
        });
        self.samples.push(threads as f64 / rate);
        self.spent_s += started.elapsed().as_secs_f64();
    }

    /// Wall seconds all samples so far took.
    pub fn spent_s(&self) -> f64 {
        self.spent_s
    }

    /// The factor that turns wall seconds of this phase into reference
    /// seconds: [`REFERENCE_S`] ÷ the median sample.  Takes a sample first
    /// if none was taken.
    pub fn scale(&mut self) -> f64 {
        if self.samples.is_empty() {
            self.sample();
        }
        REFERENCE_S / median(&self.samples)
    }

    /// Prints the samples' median and how much they spread.
    pub fn report(&mut self, phase: &str) {
        let scale = self.scale();
        let (lo, hi) = (
            crate::percentile(&self.samples, 0.0),
            crate::percentile(&self.samples, 100.0),
        );
        println!(
            "host speed ({phase}): reference {:.2} ms median over {} samples \
             ({:.2}-{:.2} ms) on {} thread(s); times scale by {scale:.3}",
            1e3 * REFERENCE_S / scale,
            self.samples.len(),
            1e3 * lo,
            1e3 * hi,
            self.tables.len()
        );
    }
}
