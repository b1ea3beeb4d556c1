//! Host-time benchmark of the locality-replication simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-64c|replay-256c|serve-mixed> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run measures the workload's end-to-end metrics; with
//! `--trace 1` it runs the workload once untraced and once traced and
//! prints the per-layer metrics instead.  Either way the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! README.md next to this crate describes the workloads and metrics.

mod calibrate;
mod model;
mod replay;
mod serve;
mod spans;
mod stepper;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use lad_common::json::JsonValue;
use lad_sim::metrics::SimulationReport;

/// Host threads every workload is pinned to (the matrix pool, the serve
/// workers and the serve clients alike).
pub const THREADS: usize = 2;

/// The seed later performance claims must also hold on.
pub const SECOND_SEED: u64 = 42;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Sweep,
    Replay,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Sweep, Workload::Replay, Workload::Serve];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep-64c",
            Workload::Replay => "replay-256c",
            Workload::Serve => "serve-mixed",
        }
    }

    /// The seed used when `--seed` is not given.
    fn default_seed(self) -> u64 {
        match self {
            Workload::Sweep | Workload::Serve => 0x1ad,
            Workload::Replay => 7,
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Scratch directory of this run, inside the working directory.
    pub work_dir: PathBuf,
}

/// The end-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("accesses_per_s", "acc/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics: name and unit.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    add("trace.gen_s".into(), "s");
    add("trace.generations".into(), "count");
    add("trace.distinct".into(), "count");
    add("traceio.encode_s".into(), "s");
    add("traceio.decode_s".into(), "s");
    add("traceio.bytes_per_access".into(), "B/acc");
    add("sim.profile_s".into(), "s");
    add("sim.step_s".into(), "s");
    add("sim.report_s".into(), "s");
    add("sim.schedule_s".into(), "s");
    for bucket in stepper::BUCKETS {
        add(format!("sim.steps.{bucket}"), "count");
    }
    for bucket in stepper::BUCKETS {
        add(format!("sim.step_ns.{bucket}"), "ns");
    }
    add("pool.cell_exec_p50_s".into(), "s");
    add("pool.cell_exec_max_s".into(), "s");
    add("pool.queue_wait_max_s".into(), "s");
    add("pool.utilization".into(), "ratio");
    add("serve.checkpoint_spill_p50_ms".into(), "ms");
    add("serve.checkpoints_written".into(), "count");
    add("serve.cell_exec_p50_ms".into(), "ms");
    add("serve.cell_queue_wait_p90_ms".into(), "ms");
    add("serve.direct_cell_ms".into(), "ms");
    for verb in serve::TIMED_VERBS {
        add(format!("serve.verb_p50_us.{verb}"), "us");
    }
    add("serve.result_frame_kb".into(), "kB");
    add("serve.cache_hit_share".into(), "ratio");
    add("serve.status_polls_per_job".into(), "count");
    add("serve.cached_p50_ms".into(), "ms");
    add("serve.cached_p90_ms".into(), "ms");
    for scheme in model::SCHEMES {
        for bucket in stepper::BUCKETS {
            add(format!("model.share.{bucket}.{scheme}"), "ratio");
        }
        for component in model::CPA_COMPONENTS {
            add(format!("model.cpa.{component}.{scheme}"), "cycles/acc");
        }
        add(format!("model.replicas_created.{scheme}"), "count");
        add(format!("model.back_invalidations.{scheme}"), "count");
        add(format!("model.energy_pj_per_access.{scheme}"), "pJ/acc");
    }
    for (baseline, _, _) in model::PAPER_REDUCTIONS {
        add(format!("model.rt3_energy_norm.{baseline}"), "ratio");
        add(format!("model.rt3_time_norm.{baseline}"), "ratio");
    }
    add("bench.trace_overhead".into(), "ratio");
    add("bench.self_time_coverage".into(), "ratio");
    out
}

/// Metric values gathered by one run, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What one workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Operations attempted: matrix cells, replay cells or submissions,
    /// plus the output checks.
    pub attempted: u64,
    /// Operations that failed or whose output did not match.
    pub failed: u64,
    /// The reports the digest covers, in a fixed order.
    pub digest_reports: Vec<SimulationReport>,
    /// Metrics of the catalog this workload does not exercise, with why.
    pub not_applicable: Vec<(&'static str, &'static str)>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples: the mean of the two middle ones when their
/// number is even.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Reference samples a set-up loop takes, spread evenly over it.
const SETUP_SAMPLES: usize = 15;

/// Times `reps` runs of `f` on this thread and returns the median time in
/// reference seconds (see [`calibrate`]), with the last run's result.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let reps = reps.max(1);
    let every = reps.div_ceil(SETUP_SAMPLES);
    let mut speed = calibrate::HostSpeed::new(1);
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for rep in 0..reps {
        if rep.is_multiple_of(every) {
            speed.sample();
        }
        let started = std::time::Instant::now();
        let out = std::hint::black_box(f());
        times.push(started.elapsed().as_secs_f64());
        last = Some(out);
    }
    speed.report("set-up");
    let last = last.unwrap_or_else(|| unreachable!("at least one repetition runs"));
    (median(&times) * speed.scale(), last)
}

/// Prints the median and p90 of a latency sample with its sample count.
pub fn print_latency(label: &str, samples_ms: &[f64]) {
    let beyond = samples_ms.len() - (samples_ms.len() as f64 * 0.9).ceil() as usize;
    println!(
        "{label}: n={} p50={:.3} ms p90={:.3} ms ({beyond} samples beyond p90)",
        samples_ms.len(),
        median(samples_ms),
        percentile(samples_ms, 90.0),
    );
}

/// FNV-1a digest over the JSON of every report, in order.
pub fn report_digest(reports: &[SimulationReport]) -> String {
    let text: String = reports.iter().map(|r| r.to_json().to_string()).collect();
    lad_serve::protocol::fingerprint_hex(lad_serve::protocol::fingerprint(&text))
}

/// Resets the peak resident set to the current one, so `peak_rss_mb`
/// covers the timed phase rather than set-up (a no-op where
/// `/proc/self/clear_refs` is unavailable).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Sets `peak_rss_mb` to the peak since the last [`reset_peak_rss`]; call
/// it as a timed phase ends, before the checks that follow it.
pub fn record_peak_rss(out: &mut Outcome) -> Result<(), String> {
    let mb = peak_rss_mb().ok_or("cannot read peak RSS from /proc/self/status")?;
    out.metrics.set("peak_rss_mb", mb);
    Ok(())
}

/// Records the tracing overhead and self-time coverage of a traced run and
/// writes its spans to `.bench_work/spans/<workload>-seed<seed>.jsonl`.
pub fn finish_trace(
    args: &Args,
    out: &mut Outcome,
    recorders: &[spans::Recorder],
    untraced_s: f64,
    traced_s: f64,
    self_time_coverage: f64,
) {
    let overhead = traced_s / untraced_s - 1.0;
    println!(
        "tracing overhead {}: traced {traced_s:.3} s / untraced {untraced_s:.3} s - 1 = {:.2}% \
         (wall clock)",
        args.workload.name(),
        100.0 * overhead
    );
    out.metrics.set("bench.trace_overhead", overhead);
    out.metrics
        .set("bench.self_time_coverage", self_time_coverage);
    let path = PathBuf::from(".bench_work").join("spans").join(format!(
        "{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    match spans::write_jsonl(&path, recorders) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(err) => eprintln!("cannot write spans to {}: {err}", path.display()),
    }
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn usage() -> String {
    "usage: lad-perfbench --workload <sweep-64c|replay-256c|serve-mixed> \
     [--seed N] [--seconds S] [--trace 0|1]"
        .to_string()
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload {value:?}\n{}", usage()))?,
                );
            }
            "--seed" => {
                seed = Some(parse_seed(&value).ok_or_else(|| format!("bad seed {value:?}"))?);
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown flag {flag:?}\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    let tag = format!("{}-{}", workload.name(), std::process::id());
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds: Duration::from_secs_f64(seconds),
        trace,
        work_dir: PathBuf::from(".bench_work").join(tag),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("cannot create {}: {err}", args.work_dir.display());
        std::process::exit(1);
    }
    println!(
        "workload {} seed {} (second seed for claims: {SECOND_SEED}) seconds {} trace {} threads {THREADS}",
        args.workload.name(),
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
    );
    let result = match args.workload {
        Workload::Sweep => sweep::run(&args),
        Workload::Replay => replay::run(&args),
        Workload::Serve => serve::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("{} failed: {message}", args.workload.name());
            std::process::exit(1);
        }
    };
    print_outcome(&args, &outcome);
}

fn print_outcome(args: &Args, outcome: &Outcome) {
    let catalog: Vec<(String, &str)> = if args.trace {
        per_layer_catalog()
    } else {
        END_TO_END
            .iter()
            .map(|(name, unit)| (name.to_string(), *unit))
            .collect()
    };
    let mut metrics = Vec::with_capacity(catalog.len());
    let mut missing = Vec::new();
    for (name, unit) in &catalog {
        let value = match outcome.metrics.0.get(name) {
            Some(value) => *value,
            None if args.trace => 0.0,
            None => {
                missing.push(name.clone());
                continue;
            }
        };
        println!("metric {name} = {value} {unit}");
        metrics.push((
            name.clone(),
            JsonValue::object([
                ("value", JsonValue::from(value)),
                ("unit", JsonValue::from(*unit)),
            ]),
        ));
    }
    for (prefix, reason) in &outcome.not_applicable {
        println!(
            "not measured on {}: {prefix}* ({reason}); printed as 0",
            args.workload.name()
        );
    }
    for name in outcome.metrics.0.keys() {
        if !catalog.iter().any(|(known, _)| known == name) && !name.starts_with('_') {
            eprintln!("note: metric {name} is not in the catalog of this mode");
        }
    }
    if !missing.is_empty() {
        eprintln!("end-to-end metrics not measured: {missing:?}");
        std::process::exit(1);
    }
    println!(
        "failed_share = {} ({} of {} operations)",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    );
    println!(
        "digest {} {} over {} reports",
        args.workload.name(),
        report_digest(&outcome.digest_reports),
        outcome.digest_reports.len()
    );
    let result = JsonValue::object([
        ("correct", JsonValue::from(outcome.failed == 0)),
        ("attempted", JsonValue::from(outcome.attempted)),
        ("failed", JsonValue::from(outcome.failed)),
        ("metrics", JsonValue::Object(metrics)),
    ]);
    println!("{result}");
}
