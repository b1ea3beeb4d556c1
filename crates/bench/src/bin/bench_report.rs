//! End-to-end engine throughput report: accesses per second for every
//! paper scheme at 16, 64 and 256 cores, written as `BENCH_7.json`.
//!
//! Each cell runs the BARNES workload (seed 7) through the full protocol
//! engine and records the *best* wall-clock time of `LAD_BENCH_REPS`
//! repetitions — best-of-N because simulation throughput on a shared
//! machine is noise-prone in one direction only (interference slows runs,
//! nothing speeds them up).  Each JSON cell also carries the per-rep
//! wall-clock `min_seconds` / `median_seconds` / `max_seconds` so
//! run-to-run variance is visible, not just the best.  The report also
//! embeds the pre-optimization
//! reference numbers recorded before the engine rework (commit `668b42a`,
//! same workloads, same best-of-N protocol) and the resulting speedups, so
//! the committed `BENCH_7.json` documents the before/after comparison.
//!
//! Environment:
//!
//! * `LAD_CORES` — restrict the sweep to one core count,
//! * `LAD_ACCESSES` — accesses per core (default: the per-count workloads
//!   below),
//! * `LAD_BENCH_REPS` — repetitions per cell (default 3, `--quick` 1),
//! * `LAD_THREADS` / `--threads <N>` — worker threads for the cell sweep
//!   (the flag wins; default 1 so wall-clock timings do not contend),
//! * `--quick` — CI smoke scale (8 cores, 150 accesses per core, 1 rep),
//! * `--json <path>` — write the JSON report (e.g. `BENCH_7.json`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use lad_bench::{
    csv_row, emit_json, env_number, figure_json, flag_value, quick_mode, validate_json_target,
};
use lad_common::config::SystemConfig;
use lad_common::json::JsonValue;
use lad_energy::model::EnergyModel;
use lad_replication::policy::SchemeRegistry;
use lad_replication::scheme::SchemeId;
use lad_sim::engine::Simulator;
use lad_trace::benchmarks::Benchmark;
use lad_trace::generator::TraceGenerator;

/// Trace seed shared by every cell (and by the pre-PR reference runs).
const SEED: u64 = 7;

/// `(cores, accesses per core)` of the standard sweep: big enough that the
/// per-access protocol cost dominates setup, small enough that the whole
/// report takes well under a minute per repetition.
const WORKLOADS: [(usize, usize); 3] = [(16, 20_000), (64, 10_000), (256, 2_500)];

/// Pre-optimization throughput (accesses per second, best-of-N) measured at
/// commit `668b42a` — the sequential engine before the heap scheduler,
/// struct-of-arrays cache and fat-LTO release profile — on the same BARNES
/// workloads.  Only S-NUCA and RT-3 were measured for the reference.
const PRE_PR_BASELINE: [(usize, &str, f64); 6] = [
    (16, "S-NUCA", 984_000.0),
    (16, "RT-3", 704_000.0),
    (64, "S-NUCA", 449_000.0),
    (64, "RT-3", 376_000.0),
    (256, "S-NUCA", 200_000.0),
    (256, "RT-3", 195_000.0),
];

fn reps() -> usize {
    env_number("LAD_BENCH_REPS")
        .unwrap_or(if quick_mode() { 1 } else { 3 })
        .max(1)
}

fn sweep() -> Vec<(usize, usize)> {
    let env_accesses = env_number("LAD_ACCESSES");
    match (env_number("LAD_CORES"), quick_mode()) {
        (Some(cores), _) => vec![(cores, env_accesses.unwrap_or(1000))],
        (None, true) => vec![(8, env_accesses.unwrap_or(150))],
        (None, false) => WORKLOADS
            .iter()
            .map(|&(cores, per_core)| (cores, env_accesses.unwrap_or(per_core)))
            .collect(),
    }
}

/// The value of `--threads <N>`, if present.
fn threads_flag() -> Option<usize> {
    flag_value("--threads").and_then(|value| value.parse().ok())
}

fn schemes() -> Vec<SchemeId> {
    if quick_mode() {
        vec![SchemeId::StaticNuca, SchemeId::Rt(3)]
    } else {
        vec![
            SchemeId::StaticNuca,
            SchemeId::ReactiveNuca,
            SchemeId::VictimReplication,
            SchemeId::asr_at_level(0.5),
            SchemeId::Rt(1),
            SchemeId::Rt(3),
            SchemeId::Rt(8),
        ]
    }
}

fn main() {
    validate_json_target();
    let registry = SchemeRegistry::builtin();
    let reps = reps();
    let schemes = schemes();

    println!(
        "Engine throughput report (BARNES seed {SEED}, best of {reps} rep{})",
        if reps == 1 { "" } else { "s" }
    );
    csv_row(
        [
            "cores",
            "scheme",
            "accesses",
            "best_seconds",
            "accesses_per_sec",
            "completion_time",
        ]
        .map(String::from),
    );

    // One job per (workload, scheme) cell; traces are generated once per
    // workload and shared.
    let mut jobs = Vec::new();
    for (cores, per_core) in sweep() {
        let system = SystemConfig::paper_default().with_num_cores(cores);
        let trace = Arc::new(
            TraceGenerator::new(Benchmark::Barnes.profile()).generate(cores, per_core, SEED),
        );
        for &scheme in &schemes {
            jobs.push((cores, system.clone(), Arc::clone(&trace), scheme));
        }
    }

    // Worker-count selection follows the workspace rule (flag, then
    // LAD_THREADS, then the default) with a default of ONE worker: timing
    // cells in parallel makes them contend for cores and understates
    // throughput, so parallelism is strictly opt-in here.  Cells are tagged
    // with their job index and merged in index order, so the report is
    // identical no matter which worker ran which cell.
    let workers = lad_common::workers::worker_count_or(threads_flag(), 1).min(jobs.len().max(1));
    if workers > 1 {
        println!("(timing with {workers} parallel workers; expect contention)");
    }
    let next_job = AtomicUsize::new(0);
    type TimedCell = (usize, usize, SchemeId, Vec<f64>, u64);
    let mut timed: Vec<(usize, TimedCell)> = Vec::with_capacity(jobs.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let jobs = &jobs;
                let next_job = &next_job;
                let registry = &registry;
                scope.spawn(move || {
                    let mut cells: Vec<(usize, TimedCell)> = Vec::new();
                    loop {
                        let index = next_job.fetch_add(1, Ordering::Relaxed);
                        let Some((cores, system, trace, scheme)) = jobs.get(index) else {
                            break;
                        };
                        let entry = registry.get(*scheme).unwrap_or_else(|err| {
                            panic!("builtin registry must cover the sweep: {err}")
                        });
                        let accesses = trace.total_accesses();
                        let mut rep_seconds = Vec::with_capacity(reps);
                        let mut completion = 0u64;
                        for _ in 0..reps {
                            let mut sim = Simulator::with_policy_and_energy_model(
                                system.clone(),
                                entry.config.clone(),
                                Arc::clone(&entry.policy),
                                EnergyModel::paper_default(),
                            );
                            let start = Instant::now();
                            let report = sim.run(trace);
                            rep_seconds.push(start.elapsed().as_secs_f64());
                            completion = report.completion_time.value();
                        }
                        cells.push((index, (*cores, accesses, *scheme, rep_seconds, completion)));
                    }
                    cells
                })
            })
            .collect();
        for handle in handles {
            timed.extend(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
    });
    timed.sort_unstable_by_key(|(index, _)| *index);

    let mut cells = Vec::new();
    for (_, (cores, accesses, scheme, rep_seconds, completion)) in timed {
        // min == the best-of-N headline; median/max expose run-to-run
        // variance so later perf PRs can tell noise from regression.
        let mut sorted = rep_seconds;
        sorted.sort_unstable_by(|a, b| a.total_cmp(b));
        let best_seconds = sorted[0];
        let max_seconds = sorted[sorted.len() - 1];
        let median_seconds = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2]) / 2.0
        };
        let rate = accesses as f64 / best_seconds;
        csv_row([
            cores.to_string(),
            scheme.label(),
            accesses.to_string(),
            format!("{best_seconds:.4}"),
            format!("{rate:.0}"),
            completion.to_string(),
        ]);
        cells.push(JsonValue::object([
            ("cores", JsonValue::from(cores as f64)),
            ("scheme", JsonValue::from(scheme.label())),
            ("accesses", JsonValue::from(accesses as f64)),
            ("best_seconds", JsonValue::from(best_seconds)),
            ("min_seconds", JsonValue::from(best_seconds)),
            ("median_seconds", JsonValue::from(median_seconds)),
            ("max_seconds", JsonValue::from(max_seconds)),
            ("accesses_per_sec", JsonValue::from(rate)),
            ("completion_time", JsonValue::from(completion as f64)),
        ]));
    }

    // Speedup rows: every measured cell that has a pre-PR reference.
    let mut speedups = Vec::new();
    println!();
    println!("Speedup vs pre-optimization engine (commit 668b42a reference):");
    for cell in &cells {
        let cores = cell.get("cores").and_then(JsonValue::as_f64);
        let scheme = cell.get("scheme").and_then(JsonValue::as_str);
        let rate = cell.get("accesses_per_sec").and_then(JsonValue::as_f64);
        let (Some(cores), Some(scheme), Some(rate)) = (cores, scheme, rate) else {
            continue;
        };
        let reference = PRE_PR_BASELINE
            .iter()
            .find(|(c, s, _)| *c as f64 == cores && *s == scheme);
        if let Some(&(_, _, baseline_rate)) = reference {
            let ratio = rate / baseline_rate;
            println!("  {cores:4.0} cores {scheme:8} {ratio:5.2}x ({rate:9.0} vs {baseline_rate:9.0} acc/s)");
            speedups.push(JsonValue::object([
                ("cores", JsonValue::from(cores)),
                ("scheme", JsonValue::from(scheme)),
                ("baseline_accesses_per_sec", JsonValue::from(baseline_rate)),
                ("accesses_per_sec", JsonValue::from(rate)),
                ("speedup", JsonValue::from(ratio)),
            ]));
        }
    }
    if speedups.is_empty() {
        println!("  (no cell matches a reference workload at this scale)");
    }

    let baseline_cells: Vec<JsonValue> = PRE_PR_BASELINE
        .iter()
        .map(|&(cores, scheme, rate)| {
            JsonValue::object([
                ("cores", JsonValue::from(cores as f64)),
                ("scheme", JsonValue::from(scheme)),
                ("accesses_per_sec", JsonValue::from(rate)),
            ])
        })
        .collect();

    emit_json(&figure_json(
        "bench_report",
        JsonValue::object([
            ("benchmark", JsonValue::from(Benchmark::Barnes.label())),
            ("seed", JsonValue::from(SEED as f64)),
            ("reps", JsonValue::from(reps as f64)),
            ("cells", JsonValue::Array(cells)),
            (
                "baseline_pre_pr",
                JsonValue::object([
                    (
                        "description",
                        JsonValue::from(
                            "best-of-N accesses/sec of the sequential engine at commit 668b42a \
                             (before the heap scheduler, SoA cache arrays and fat-LTO release \
                             profile), same workloads and seed",
                        ),
                    ),
                    ("cells", JsonValue::Array(baseline_cells)),
                ]),
            ),
            ("speedups", JsonValue::Array(speedups)),
        ]),
    ));
}
