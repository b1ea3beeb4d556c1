//! `sweep-64c`: the paper sweep (`ExperimentRunner::paper_sweep`, 11
//! scheme configurations) over the five quick-suite benchmarks on the
//! 64-core paper system, run by `run_matrix` on a two-thread pool with
//! in-memory traces — the `headline_summary` / Figure 6–8 path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lad_common::config::SystemConfig;
use lad_energy::model::EnergyModel;
use lad_obs::SampleValue;
use lad_replication::scheme::SchemeId;
use lad_sim::engine::Simulator;
use lad_sim::experiment::ExperimentRunner;
use lad_sim::metrics::SimulationReport;
use lad_trace::benchmarks::Benchmark;
use lad_trace::suite::BenchmarkSuite;
use lad_traceio::source::MemorySource;

use crate::calibrate::HostSpeed;
use crate::spans::{self, Recorder, DRIVER};
use crate::stepper::{self, StepStats};
use crate::{median, median_setup, model, percentile, print_latency, Args, Outcome, THREADS};

/// Trace length per core of every cell.
const ACCESSES_PER_CORE: usize = 1000;
/// Host-speed samples taken before each sweep: a sweep takes seconds, so
/// one sample each would leave a run with too few for a steady median.
const SAMPLES_PER_SWEEP: usize = 3;
/// Runner constructions timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 2001;

type Matrix = BTreeMap<(Benchmark, SchemeId), SimulationReport>;

fn system() -> SystemConfig {
    SystemConfig::paper_default()
}

fn build_runner(seed: u64) -> ExperimentRunner {
    let suite = BenchmarkSuite::quick()
        .with_seed(seed)
        .with_accesses_per_core(ACCESSES_PER_CORE);
    ExperimentRunner::new(system(), suite).with_threads(THREADS)
}

/// The contents of one `run_matrix` pool histogram, as (value, count).
fn pool_histogram(name: &str) -> BTreeMap<u64, u64> {
    lad_obs::global()
        .snapshot()
        .into_iter()
        .find(|s| {
            s.name == name
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "pool" && v == "run_matrix")
        })
        .and_then(|s| match s.value {
            SampleValue::Histogram(h) => Some(h.iter().collect()),
            _ => None,
        })
        .unwrap_or_default()
}

/// Samples recorded between two snapshots of a histogram, in microseconds.
fn new_samples(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>) -> Vec<f64> {
    let mut out = Vec::new();
    for (value, count) in after {
        let added = count - before.get(value).copied().unwrap_or(0);
        out.extend(std::iter::repeat_n(*value as f64, added as usize));
    }
    out
}

fn json(report: &SimulationReport) -> String {
    report.to_json().to_string()
}

/// One timed `run_matrix` pass.
struct Pass {
    results: Matrix,
    /// Wall seconds.
    wall: f64,
    /// Per-cell execution times (µs) the pool recorded.
    cell_us: Vec<f64>,
}

fn timed_pass(runner: &ExperimentRunner) -> Result<Pass, String> {
    let before = pool_histogram("lad_pool_cell_exec_us");
    let started = Instant::now();
    let results = runner
        .run_matrix(&ExperimentRunner::paper_sweep())
        .map_err(|e| e.to_string())?;
    let wall = started.elapsed().as_secs_f64();
    let cell_us = new_samples(&before, &pool_histogram("lad_pool_cell_exec_us"));
    Ok(Pass {
        results,
        wall,
        cell_us,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, runner) = median_setup(SETUP_REPS, || build_runner(args.seed));
    let reference = if args.trace {
        traced(args, &runner, &mut out)?
    } else {
        out.metrics.set("setup_s", setup_s);
        timed(args, &runner, &mut out)?
    };
    check_lengths(&runner, &reference, &mut out);
    out.digest_reports = reference.into_values().collect();
    Ok(out)
}

/// Every report must cover its whole trace.
fn check_lengths(runner: &ExperimentRunner, reference: &Matrix, out: &mut Outcome) {
    for &benchmark in runner.suite().benchmarks() {
        let expected = runner
            .suite()
            .trace_for(benchmark, system().num_cores)
            .total_accesses() as u64;
        for ((b, scheme), report) in reference {
            if *b == benchmark {
                out.check(report.total_accesses == expected, || {
                    format!(
                        "{} under {scheme} simulated {} of {expected} accesses",
                        benchmark.label(),
                        report.total_accesses
                    )
                });
            }
        }
    }
}

/// The timed phase: a warm-up sweep, then whole sweeps until `--seconds`
/// have passed (at least two), each after host-speed samples.  A job here
/// is one whole sweep, the unit `headline_summary` waits for.  Returns the
/// warm-up sweep, which every later one must equal.
fn timed(args: &Args, runner: &ExperimentRunner, out: &mut Outcome) -> Result<Matrix, String> {
    // The first sweep pays the heap's growth.
    let first = timed_pass(runner)?.results;
    let accesses: u64 = first.values().map(|r| r.total_accesses).sum();
    let mut walls = Vec::new();
    let mut speed = HostSpeed::new(THREADS);
    crate::reset_peak_rss();
    let phase = Instant::now();
    while walls.len() < 2 || phase.elapsed() < args.seconds {
        for _ in 0..SAMPLES_PER_SWEEP {
            speed.sample();
        }
        let Pass { results, wall, .. } = timed_pass(runner)?;
        println!("pass: {} cells in {wall:.3} s wall", results.len());
        walls.push(wall);
        for (key, report) in &results {
            out.check(first.get(key).map(json) == Some(json(report)), || {
                format!(
                    "{} under {} differs from the first pass",
                    key.0.label(),
                    key.1
                )
            });
        }
    }
    crate::record_peak_rss(out)?;
    speed.report("timed phase");
    let scale = speed.scale();
    let sweep_ms: Vec<f64> = walls.iter().map(|w| w * scale * 1e3).collect();
    print_latency("sweeps (reference ms)", &sweep_ms);
    let m = &mut out.metrics;
    let seconds = sweep_ms.iter().sum::<f64>() / 1e3;
    m.set(
        "accesses_per_s",
        (accesses * sweep_ms.len() as u64) as f64 / seconds,
    );
    m.set("job_p50_ms", median(&sweep_ms));
    m.set("job_p90_ms", percentile(&sweep_ms, 90.0));
    m.set("jobs_per_s", sweep_ms.len() as f64 / seconds);
    out.attempted += first.len() as u64;
    Ok(first)
}

/// The traced run: a warm-up pass, one untraced `run_matrix` pass (pool
/// metrics, model statistics, reference reports and wall clock), then the
/// same cells on a two-thread pool of the benchmark's own, each generated
/// and stepped under spans.
fn traced(args: &Args, runner: &ExperimentRunner, out: &mut Outcome) -> Result<Matrix, String> {
    // A first pass pays the heap's growth; warm up so the reference pass
    // and the traced pass start alike.
    runner
        .run_matrix(&ExperimentRunner::paper_sweep())
        .map_err(|e| e.to_string())?;
    let queue_before = pool_histogram("lad_pool_queue_wait_us");
    let Pass {
        results: reference,
        wall: untraced_s,
        cell_us,
    } = timed_pass(runner)?;
    let queue_us = new_samples(&queue_before, &pool_histogram("lad_pool_queue_wait_us"));
    let m = &mut out.metrics;
    m.set("pool.cell_exec_p50_s", median(&cell_us) / 1e6);
    m.set("pool.cell_exec_max_s", percentile(&cell_us, 100.0) / 1e6);
    m.set("pool.queue_wait_max_s", percentile(&queue_us, 100.0) / 1e6);
    m.set(
        "pool.utilization",
        cell_us.iter().sum::<f64>() / 1e6 / (THREADS as f64 * untraced_s),
    );
    model::add_scheme_metrics(reference.values(), m);
    model::add_rt3_norms(runner.suite().benchmarks(), &reference, m)?;

    let cells: Vec<(Benchmark, SchemeId)> = runner
        .suite()
        .benchmarks()
        .iter()
        .flat_map(|&b| {
            ExperimentRunner::paper_sweep()
                .into_iter()
                .map(move |s| (b, s))
        })
        .collect();
    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let workers: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| {
                let (cells, next) = (&cells, &next);
                scope.spawn(move || traced_worker(runner, cells, next, origin, thread))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let traced_s = origin.elapsed().as_secs_f64();

    let mut recorders = Vec::new();
    let mut stats = StepStats::default();
    for (recorder, worker_stats, reports) in workers {
        recorders.push(recorder);
        stats.merge(&worker_stats);
        for (key, report) in reports {
            out.check(reference.get(&key).map(json) == Some(json(&report)), || {
                format!(
                    "traced {} under {} differs from run_matrix",
                    key.0.label(),
                    key.1
                )
            });
        }
    }
    let share = spans::print_self_times(out, args.workload.name(), &recorders, THREADS, traced_s);
    let self_times = spans::self_times(&recorders);
    let m = &mut out.metrics;
    stepper::sim_metrics(&stats, &self_times, m);
    m.set(
        "trace.gen_s",
        self_times.get(LAYER_GENERATE).copied().unwrap_or(0) as f64 * 1e-9,
    );
    m.set("trace.generations", cells.len() as f64);
    m.set("trace.distinct", runner.suite().benchmarks().len() as f64);
    crate::finish_trace(args, out, &recorders, untraced_s, traced_s, share);
    out.not_applicable = vec![
        ("traceio.", "traces stay in memory"),
        ("serve.", "no service on this path"),
    ];
    Ok(reference)
}

const LAYER_GENERATE: &str = "lad-trace.generate";

type WorkerResult = (
    Recorder,
    StepStats,
    Vec<((Benchmark, SchemeId), SimulationReport)>,
);

fn traced_worker(
    runner: &ExperimentRunner,
    cells: &[(Benchmark, SchemeId)],
    next: &AtomicUsize,
    origin: Instant,
    thread: usize,
) -> WorkerResult {
    let mut rec = Recorder::new(origin, thread);
    let mut stats = StepStats::default();
    let mut reports = Vec::new();
    let root = rec.open("worker", DRIVER, thread as u64, None);
    loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(&(benchmark, scheme)) = cells.get(index) else {
            break;
        };
        let group = index as u64;
        let cell = rec.open("cell", DRIVER, group, Some(root));
        let trace = rec.scope("generate", LAYER_GENERATE, group, Some(cell), |_| {
            runner.suite().trace_for(benchmark, system().num_cores)
        });
        let entry = runner
            .registry()
            .get(scheme)
            .unwrap_or_else(|e| panic!("paper sweep scheme must be registered: {e}"));
        let make = || {
            Simulator::with_policy_and_energy_model(
                system(),
                entry.config.clone(),
                Arc::clone(&entry.policy),
                EnergyModel::paper_default(),
            )
        };
        let mut source = MemorySource::new(&trace);
        let report = stepper::run_cell(make, &mut source, &mut rec, cell, group, &mut stats)
            .unwrap_or_else(|e| unreachable!("in-memory traces cannot fail to stream: {e}"));
        rec.close(cell);
        reports.push(((benchmark, scheme), report));
    }
    rec.close(root);
    (rec, stats, reports)
}
