//! `replay-256c`: BARNES on the 256-core paper system.  Set-up records the
//! trace once to a LADT file; the timed phase replays it one cell at a
//! time on one thread with `ExperimentRunner::replay_file` under S-NUCA,
//! R-NUCA and RT-3 — no pool, with trace decode on the path.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use lad_common::config::SystemConfig;
use lad_energy::model::EnergyModel;
use lad_replication::scheme::SchemeId;
use lad_sim::engine::Simulator;
use lad_sim::experiment::ExperimentRunner;
use lad_sim::metrics::SimulationReport;
use lad_trace::benchmarks::Benchmark;
use lad_trace::generator::WorkloadTrace;
use lad_trace::suite::BenchmarkSuite;
use lad_traceio::format::TraceHeader;
use lad_traceio::source::FileSource;
use lad_traceio::writer::TraceWriter;

use crate::calibrate::HostSpeed;
use crate::spans::{self, Recorder, DRIVER};
use crate::stepper::{self, StepStats, Timed, LAYER_DECODE};
use crate::{median, median_setup, model, percentile, print_latency, Args, Outcome};

const CORES: usize = 256;
/// Trace length per core (256 cores × this = accesses per cell).
const ACCESSES_PER_CORE: usize = 2000;
/// Set-ups (generate + record) timed for `setup_s` (the median is
/// reported).
const SETUP_REPS: usize = 15;
const SCHEMES: [SchemeId; 3] = [
    SchemeId::StaticNuca,
    SchemeId::ReactiveNuca,
    SchemeId::Rt(3),
];
const LAYER_GENERATE: &str = "lad-trace.generate";
const LAYER_ENCODE: &str = "lad-traceio.encode";

fn system() -> SystemConfig {
    SystemConfig::paper_default().with_num_cores(CORES)
}

fn suite(seed: u64) -> BenchmarkSuite {
    BenchmarkSuite::custom(vec![Benchmark::Barnes], ACCESSES_PER_CORE, seed)
}

fn encode(trace: &WorkloadTrace, seed: u64, path: &Path) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let header = TraceHeader::new(trace.num_cores(), trace.name(), seed);
    let mut writer = TraceWriter::new(BufWriter::new(file), header).map_err(|e| e.to_string())?;
    writer.write_workload(trace).map_err(|e| e.to_string())?;
    writer.finish().map_err(|e| e.to_string())?;
    Ok(())
}

fn json(report: &SimulationReport) -> String {
    report.to_json().to_string()
}

fn simulator(runner: &ExperimentRunner, scheme: SchemeId) -> Simulator {
    let entry = runner
        .registry()
        .get(scheme)
        .unwrap_or_else(|e| panic!("built-in scheme must be registered: {e}"));
    Simulator::with_policy_and_energy_model(
        system(),
        entry.config.clone(),
        Arc::clone(&entry.policy),
        EnergyModel::paper_default(),
    )
}

/// Replays every scheme once, timing each cell in wall seconds; with a
/// `speed`, each cell follows a host-speed sample.
fn replay_pass(
    runner: &ExperimentRunner,
    path: &Path,
    mut speed: Option<&mut HostSpeed>,
) -> Result<(Vec<SimulationReport>, Vec<f64>), String> {
    let mut reports = Vec::with_capacity(SCHEMES.len());
    let mut cell_s = Vec::with_capacity(SCHEMES.len());
    for scheme in SCHEMES {
        if let Some(speed) = speed.as_deref_mut() {
            speed.sample();
        }
        let started = Instant::now();
        let report = runner
            .replay_file(path, scheme)
            .map_err(|e| e.to_string())?;
        cell_s.push(started.elapsed().as_secs_f64());
        reports.push(report);
    }
    Ok((reports, cell_s))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let suite = suite(args.seed);
    let path = args.work_dir.join("barnes-256c.ladt");
    let runner = ExperimentRunner::new(system(), suite.clone()).with_threads(1);

    let reference = if args.trace {
        traced(args, &runner, &suite, &path, &mut out)?
    } else {
        let (setup_s, encoded) = median_setup(SETUP_REPS, || {
            let trace = suite.trace_for(Benchmark::Barnes, CORES);
            encode(&trace, args.seed, &path)
        });
        out.metrics.set("setup_s", setup_s);
        encoded?;
        timed(args, &runner, &path, &mut out)?
    };

    // The file replay must equal the in-memory run of the same trace.  The
    // trace is generated again here (it depends only on the seed) so that
    // it is not resident during the timed phase.
    let trace = suite.trace_for(Benchmark::Barnes, CORES);
    let index = (args.seed % SCHEMES.len() as u64) as usize;
    let in_memory = simulator(&runner, SCHEMES[index]).run(&trace);
    out.check(json(&in_memory) == json(&reference[index]), || {
        format!(
            "replay under {} differs from the in-memory run",
            SCHEMES[index]
        )
    });
    for report in &reference {
        out.check(
            report.total_accesses == trace.total_accesses() as u64,
            || {
                format!(
                    "replay under {} simulated {} accesses",
                    report.scheme, report.total_accesses
                )
            },
        );
    }
    out.digest_reports = reference;
    Ok(out)
}

/// The timed phase: whole passes over the three schemes until `--seconds`
/// have passed (at least two), each cell after a host-speed sample.  Rates
/// are over all cells of the phase.  Returns the first pass.
fn timed(
    args: &Args,
    runner: &ExperimentRunner,
    path: &Path,
    out: &mut Outcome,
) -> Result<Vec<SimulationReport>, String> {
    let mut first: Option<Vec<SimulationReport>> = None;
    let mut passes_s: Vec<Vec<f64>> = Vec::new();
    let mut speed = HostSpeed::new(1);
    crate::reset_peak_rss();
    let phase = Instant::now();
    while passes_s.len() < 2 || phase.elapsed() < args.seconds {
        let (reports, cell_s) = replay_pass(runner, path, Some(&mut speed))?;
        println!("pass: cells {cell_s:.3?} s wall");
        passes_s.push(cell_s);
        match &first {
            None => first = Some(reports),
            Some(first) => {
                for (a, b) in first.iter().zip(&reports) {
                    out.check(json(a) == json(b), || {
                        format!("replay under {} differs from the first pass", b.scheme)
                    });
                }
            }
        }
    }
    crate::record_peak_rss(out)?;
    speed.report("timed phase");
    let scale = speed.scale();
    let first = first.ok_or("no pass ran")?;
    let accesses: u64 = first.iter().map(|r| r.total_accesses).sum();
    let passes_ms: Vec<Vec<f64>> = passes_s
        .iter()
        .map(|pass| pass.iter().map(|s| s * scale * 1e3).collect())
        .collect();
    let cells_ms = passes_ms.concat();
    let seconds = cells_ms.iter().sum::<f64>() / 1e3;
    print_latency("cells (reference ms)", &cells_ms);
    // A pass holds one cell per scheme, so a pass's p90 is its slowest
    // cell; the median over passes keeps one disturbed cell out.
    let slowest: Vec<f64> = passes_ms.iter().map(|p| percentile(p, 90.0)).collect();
    let m = &mut out.metrics;
    m.set(
        "accesses_per_s",
        (accesses * passes_ms.len() as u64) as f64 / seconds,
    );
    m.set("job_p50_ms", median(&cells_ms));
    m.set("job_p90_ms", median(&slowest));
    m.set("jobs_per_s", cells_ms.len() as f64 / seconds);
    out.attempted += first.len() as u64;
    Ok(first)
}

/// The traced run: set-up under spans, one untraced pass (reference
/// reports and wall clock), then the same three cells through the traced
/// stepping driver reading the file through a timing wrapper.
fn traced(
    args: &Args,
    runner: &ExperimentRunner,
    suite: &BenchmarkSuite,
    path: &Path,
    out: &mut Outcome,
) -> Result<Vec<SimulationReport>, String> {
    let origin = Instant::now();
    let mut setup_rec = Recorder::new(origin, 0);
    let root = setup_rec.open("setup", DRIVER, 0, None);
    let trace = setup_rec.scope("generate", LAYER_GENERATE, 0, Some(root), |_| {
        suite.trace_for(Benchmark::Barnes, CORES)
    });
    setup_rec.scope("encode", LAYER_ENCODE, 0, Some(root), |_| {
        encode(&trace, args.seed, path)
    })?;
    setup_rec.close(root);
    let setup_times = spans::self_times(std::slice::from_ref(&setup_rec));
    let seconds = |layer: &str| setup_times.get(layer).copied().unwrap_or(0) as f64 * 1e-9;
    let bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let m = &mut out.metrics;
    m.set("trace.gen_s", seconds(LAYER_GENERATE));
    m.set("trace.generations", 1.0);
    m.set("trace.distinct", 1.0);
    m.set("traceio.encode_s", seconds(LAYER_ENCODE));
    m.set(
        "traceio.bytes_per_access",
        bytes as f64 / trace.total_accesses() as f64,
    );

    let (reference, cell_s) = replay_pass(runner, path, None)?;
    let untraced_s: f64 = cell_s.iter().sum();
    model::add_scheme_metrics(&reference, &mut out.metrics);

    let started = Instant::now();
    let mut rec = Recorder::new(origin, 1);
    let mut stats = StepStats::default();
    let root = rec.open("replay", DRIVER, 0, None);
    for (index, scheme) in SCHEMES.into_iter().enumerate() {
        let group = index as u64 + 1;
        let cell = rec.open("cell", DRIVER, group, Some(root));
        let source = rec.scope("open", LAYER_DECODE, group, Some(cell), |_| {
            FileSource::open(path)
        });
        let mut source = Timed::new(source.map_err(|e| e.to_string())?);
        let report = stepper::run_cell(
            || simulator(runner, scheme),
            &mut source,
            &mut rec,
            cell,
            group,
            &mut stats,
        )
        .map_err(|e| e.to_string())?;
        rec.close(cell);
        out.check(json(&report) == json(&reference[index]), || {
            format!("traced replay under {scheme} differs from replay_file")
        });
    }
    rec.close(root);
    let traced_s = started.elapsed().as_secs_f64();

    let recorders = [rec];
    let share = spans::print_self_times(out, args.workload.name(), &recorders, 1, traced_s);
    stepper::sim_metrics(&stats, &spans::self_times(&recorders), &mut out.metrics);
    let all = [
        setup_rec,
        recorders.into_iter().next().ok_or("no recorder")?,
    ];
    crate::finish_trace(args, out, &all, untraced_s, traced_s, share);
    out.not_applicable = vec![
        ("pool.", "no pool: cells replay one at a time"),
        ("serve.", "no service on this path"),
        ("model.rt3_", "normalized comparison is a sweep-64c metric"),
    ];
    Ok(reference)
}
