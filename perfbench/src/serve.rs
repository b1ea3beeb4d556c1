//! `serve-mixed`: an in-process `lad_serve::Server` with two workers on a
//! data directory that starts empty, driven by two `Client` connections in
//! a closed loop (each waits for its reply, as `lad-client submit --wait`
//! does).  Fresh jobs run builtin quick-suite benchmarks on 16 cores under
//! S-NUCA and RT-3 with a unique seed; between them each client resubmits
//! specs it has completed, which the result cache answers.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use lad_common::json::JsonValue;
use lad_energy::model::EnergyModel;
use lad_replication::policy::SchemeRegistry;
use lad_replication::scheme::SchemeId;
use lad_serve::client::Client;
use lad_serve::protocol::{JobSpec, SystemPreset, TraceSpec};
use lad_serve::server::{Server, ServerConfig};
use lad_sim::engine::Simulator;
use lad_sim::metrics::SimulationReport;
use lad_trace::benchmarks::Benchmark;
use lad_trace::generator::TraceGenerator;
use lad_trace::suite::BenchmarkSuite;
use lad_traceio::source::MemorySource;

use crate::calibrate::HostSpeed;
use crate::spans::{self, Recorder, DRIVER};
use crate::stepper::{self, StepStats};
use crate::{median, percentile, print_latency, Args, Outcome, THREADS};

/// Client-side timed verbs, in the order of the `verb_us` arrays.
pub const TIMED_VERBS: [&str; 3] = ["submit", "status", "result"];
const CORES: usize = 16;
/// 16 cores × 1000 accesses crosses the server's default 10 000-access
/// checkpoint interval, so every fresh cell spills a checkpoint.
const ACCESSES_PER_CORE: usize = 1000;
const SCHEMES: [&str; 2] = ["S-NUCA", "RT-3"];
/// The scheme of the cells checked against a direct run.
const DIRECT_SCHEME: &str = "RT-3";
/// Resubmissions of completed specs per fresh job.
const CACHED_PER_FRESH: usize = 2;
/// Status poll interval while a job runs.
const POLL: Duration = Duration::from_millis(2);
/// Server boots timed for `setup_s` (the median is reported).
const SETUP_REPS: usize = 51;
/// Quiet time before each timed boot, long enough that every boot starts
/// from an idle process, as a server's one boot does.  After 5 ms some
/// boots still found the previous one's state warm and took half as long;
/// their share changed from run to run and moved the median by 2x.
const BOOT_PAUSE: Duration = Duration::from_millis(50);
/// Rounds (one fresh job per client each) a run makes at least: client
/// 0's first five fresh jobs cover the five benchmarks the direct check
/// needs.
const MIN_ROUNDS: usize = 5;
/// Rounds between two host-speed samples in the timed phase.
const ROUNDS_PER_SAMPLE: usize = 4;
/// Boots between two host-speed samples in set-up.
const BOOTS_PER_SAMPLE: usize = 4;
/// Rounds in each phase of the traced run.
const TRACED_ROUNDS: usize = 15;

const LAYER_WAIT: &str = "lad-serve.wait";
const LAYER_VERB: [&str; 3] = ["lad-serve.submit", "lad-serve.status", "lad-serve.result"];

fn quick_benchmarks() -> Vec<Benchmark> {
    BenchmarkSuite::quick().benchmarks().to_vec()
}

/// The `j`-th fresh job of `client`: benchmarks rotate through the quick
/// suite and every job gets a seed of its own.
fn fresh_spec(seed: u64, client: usize, j: usize) -> JobSpec {
    let benchmarks = quick_benchmarks();
    JobSpec {
        trace: TraceSpec::Builtin {
            benchmark: benchmarks[(j + client) % benchmarks.len()]
                .label()
                .to_string(),
            cores: CORES,
            accesses_per_core: ACCESSES_PER_CORE,
            seed: seed.wrapping_add(((client as u64) << 32) | j as u64),
        },
        schemes: SCHEMES.iter().map(|s| s.to_string()).collect(),
        system: SystemPreset::Paper,
    }
}

/// Boots a server with two workers on `dir`; returns it with the seconds
/// `Server::spawn` took (it binds, prepares the data directory, loads the
/// result cache and starts the threads).
fn boot(dir: &Path) -> Result<(Server, f64), String> {
    let mut config = ServerConfig::new(dir);
    config.workers = THREADS;
    let started = Instant::now();
    let server = Server::spawn(config).map_err(|e| format!("server spawn: {e}"))?;
    Ok((server, started.elapsed().as_secs_f64()))
}

/// Checks that a booted server answers.
fn health(server: &Server) -> Result<(), String> {
    Client::connect(server.addr().to_string())
        .and_then(|mut c| c.health())
        .map(drop)
        .map_err(|e| format!("server health: {e}"))
}

/// When the clients stop submitting.
#[derive(Clone, Copy)]
enum Stop {
    /// After the first round that ends past this instant (and at least
    /// `MIN_ROUNDS` rounds).
    At(Instant),
    /// After this many rounds.
    Rounds(usize),
}

/// Everything one client observed.
#[derive(Default)]
struct ClientLog {
    fresh_ms: Vec<f64>,
    cached_ms: Vec<f64>,
    verb_us: [Vec<f64>; 3],
    wasted_polls: u64,
    result_bytes: Vec<usize>,
    accesses: u64,
    attempted: u64,
    failed: u64,
    /// Completed fresh specs with their `results` JSON, in order.
    completed: Vec<(JobSpec, String)>,
}

impl ClientLog {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// Times one client call, charging it to a span.
fn call<T>(
    log: &mut ClientLog,
    rec: &mut Recorder,
    verb: usize,
    group: u64,
    parent: usize,
    f: impl FnOnce() -> T,
) -> T {
    let span = rec.open(TIMED_VERBS[verb], LAYER_VERB[verb], group, Some(parent));
    let started = Instant::now();
    let out = f();
    log.verb_us[verb].push(started.elapsed().as_secs_f64() * 1e6);
    rec.close(span);
    out
}

/// The rounds both clients run in step: each submits one fresh job and
/// waits for it, then — once every client's fresh job is done, so the
/// workers are idle — resubmits `CACHED_PER_FRESH` specs it completed
/// earlier.  Cached latency is then the service's read path, not a
/// scheduler race against two busy simulation workers.  With a `speed`,
/// every `ROUNDS_PER_SAMPLE`-th round starts with a host-speed sample,
/// taken while both clients wait and the service is idle.
struct Rounds {
    barrier: Barrier,
    stop: AtomicBool,
    rule: Stop,
    speed: Option<Mutex<HostSpeed>>,
}

impl Rounds {
    /// Agrees on whether round `round` runs; every client calls this at
    /// the top of every round.
    fn proceed(&self, round: usize) -> bool {
        if self.barrier.wait().is_leader() {
            if let Some(speed) = self
                .speed
                .as_ref()
                .filter(|_| round.is_multiple_of(ROUNDS_PER_SAMPLE))
            {
                speed
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .sample();
            }
            let done = match self.rule {
                Stop::At(deadline) => round >= MIN_ROUNDS && Instant::now() >= deadline,
                Stop::Rounds(n) => round >= n,
            };
            self.stop.store(done, Ordering::SeqCst);
        }
        self.barrier.wait();
        !self.stop.load(Ordering::SeqCst)
    }
}

/// One client's connection, log and spans.
struct Session {
    conn: Client,
    log: ClientLog,
    rec: Recorder,
    root: usize,
}

impl Session {
    /// One submission, waited for: submit, poll `status` until the job
    /// leaves `running`, then `result`.  `expected` is the fresh result of
    /// a resubmitted spec.
    fn job(&mut self, spec: JobSpec, expected: Option<String>, group: u64) -> Result<(), String> {
        let (log, rec, conn) = (&mut self.log, &mut self.rec, &mut self.conn);
        let name = if expected.is_some() {
            "cached-job"
        } else {
            "job"
        };
        let job_span = rec.open(name, DRIVER, group, Some(self.root));
        let started = Instant::now();
        let receipt = call(log, rec, 0, group, job_span, || conn.submit(&spec))
            .map_err(|e| format!("submit: {e}"))?;
        let job = receipt
            .get("job")
            .and_then(JsonValue::as_str)
            .ok_or("submit receipt has no job id")?
            .to_string();
        loop {
            let status = call(log, rec, 1, group, job_span, || conn.status(&job))
                .map_err(|e| format!("status of {job}: {e}"))?;
            if status.get("state").and_then(JsonValue::as_str) != Some("running") {
                break;
            }
            log.wasted_polls += 1;
            let wait = rec.open("poll-wait", LAYER_WAIT, group, Some(job_span));
            std::thread::sleep(POLL);
            rec.close(wait);
        }
        let response = call(log, rec, 2, group, job_span, || conn.result(&job));
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        rec.close(job_span);
        let response = response.map_err(|e| format!("result of {job}: {e}"))?;
        log.result_bytes.push(response.to_string().len());
        let results = response.get("results").cloned().unwrap_or(JsonValue::Null);
        let text = results.to_string();
        match expected {
            None => {
                let reports = results.as_array().unwrap_or(&[]);
                log.accesses += reports
                    .iter()
                    .filter_map(|r| r.get("report")?.get("total_accesses")?.as_u64())
                    .sum::<u64>();
                log.check(reports.len() == SCHEMES.len(), || {
                    format!("{job} returned {} cells", reports.len())
                });
                log.fresh_ms.push(elapsed_ms);
                log.completed.push((spec, text));
            }
            Some(expected) => {
                let cached = receipt.get("cached").and_then(JsonValue::as_u64);
                log.check(cached == Some(SCHEMES.len() as u64), || {
                    format!("resubmitted {job} was not answered from the cache: {receipt}")
                });
                log.check(text == expected, || {
                    format!("cached result of {job} differs from its fresh result")
                });
                log.cached_ms.push(elapsed_ms);
            }
        }
        Ok(())
    }
}

/// One client's closed loop.  A failed submission counts as a failed
/// operation and the client carries on, so the other client is never
/// left waiting at a round barrier.
fn client_loop(
    conn: Client,
    seed: u64,
    client: usize,
    rounds: &Rounds,
    mut rec: Recorder,
) -> (ClientLog, Recorder) {
    let root = rec.open("client", DRIVER, client as u64, None);
    let mut session = Session {
        conn,
        log: ClientLog::default(),
        rec,
        root,
    };
    let mut next_cached = 0usize;
    let mut round = 0usize;
    while rounds.proceed(round) {
        let group = ((client as u64) << 32) | (round as u64) << 8;
        let spec = fresh_spec(seed, client, round);
        if let Err(err) = session.job(spec, None, group) {
            session.log.check(false, || err);
        }
        rounds.barrier.wait();
        for i in 0..CACHED_PER_FRESH {
            let completed = &session.log.completed;
            if completed.is_empty() {
                break;
            }
            let (spec, results) = completed[next_cached % completed.len()].clone();
            next_cached += 1;
            if let Err(err) = session.job(spec, Some(results), group + 1 + i as u64) {
                session.log.check(false, || err);
            }
        }
        round += 1;
    }
    session.rec.close(session.root);
    (session.log, session.rec)
}

/// What both clients of one phase observed.
struct Phase {
    logs: Vec<ClientLog>,
    recorders: Vec<Recorder>,
    /// Wall seconds, host-speed samples included.
    wall: f64,
    /// The host-speed samples, when the phase was calibrated.
    speed: Option<HostSpeed>,
}

/// Runs both clients against `addr`, recording spans from `origin` when
/// tracing and sampling the host's speed when `calibrate`.
fn run_clients(
    addr: &str,
    seed: u64,
    stop: Stop,
    origin: Option<Instant>,
    calibrate: bool,
) -> Result<Phase, String> {
    let rounds = Rounds {
        barrier: Barrier::new(THREADS),
        stop: AtomicBool::new(false),
        rule: stop,
        speed: calibrate.then(|| Mutex::new(HostSpeed::new(THREADS))),
    };
    // Connect before any client starts, so a refused connection cannot
    // strand the other client at a barrier.
    let conns = (0..THREADS)
        .map(|_| Client::connect(addr).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let started = Instant::now();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(client, conn)| {
                let rec = origin.map_or_else(Recorder::disabled, |o| Recorder::new(o, client));
                let rounds = &rounds;
                scope.spawn(move || client_loop(conn, seed, client, rounds, rec))
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
    let wall = started.elapsed().as_secs_f64();
    let (logs, recorders) = results.into_iter().unzip();
    Ok(Phase {
        logs,
        recorders,
        wall,
        speed: rounds.speed.map(|s| {
            s.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
        }),
    })
}

fn merged(logs: &[ClientLog], f: impl Fn(&ClientLog) -> &Vec<f64>) -> Vec<f64> {
    logs.iter().flat_map(|l| f(l).iter().copied()).collect()
}

/// The direct counterpart of one server cell.
fn direct_simulator(scheme: &str) -> Simulator {
    let registry = SchemeRegistry::builtin();
    let entry = registry
        .get(SchemeId::parse(scheme))
        .unwrap_or_else(|e| panic!("built-in scheme must be registered: {e}"));
    Simulator::with_policy_and_energy_model(
        SystemPreset::Paper.config().with_num_cores(CORES),
        entry.config.clone(),
        Arc::clone(&entry.policy),
        EnergyModel::paper_default(),
    )
}

fn builtin_trace(spec: &JobSpec) -> lad_trace::generator::WorkloadTrace {
    let TraceSpec::Builtin {
        benchmark,
        cores,
        accesses_per_core,
        seed,
    } = &spec.trace
    else {
        unreachable!("the benchmark submits builtin specs only");
    };
    let benchmark = Benchmark::ALL
        .into_iter()
        .find(|b| b.label() == benchmark)
        .unwrap_or_else(|| unreachable!("fresh specs name quick-suite benchmarks"));
    TraceGenerator::new(benchmark.profile()).generate(*cores, *accesses_per_core, *seed)
}

/// The report of `scheme` inside a `results` JSON array.
fn served_report(results: &str, scheme: &str) -> Option<String> {
    let parsed = JsonValue::parse(results).ok()?;
    parsed
        .as_array()?
        .iter()
        .find(|cell| cell.get("scheme").and_then(JsonValue::as_str) == Some(scheme))
        .and_then(|cell| cell.get("report"))
        .map(|r| r.to_string())
}

/// Checks client 0's first fresh job of every benchmark against a direct
/// run of its RT-3 cell; returns the direct reports and cell times (ms).
fn direct_check(logs: &[ClientLog], out: &mut Outcome) -> (Vec<SimulationReport>, Vec<f64>) {
    let mut reports = Vec::new();
    let mut cell_ms = Vec::new();
    for (spec, results) in logs[0].completed.iter().take(quick_benchmarks().len()) {
        let trace = builtin_trace(spec);
        let started = Instant::now();
        let report = direct_simulator(DIRECT_SCHEME).run(&trace);
        cell_ms.push(started.elapsed().as_secs_f64() * 1e3);
        out.check(
            served_report(results, DIRECT_SCHEME) == Some(report.to_json().to_string()),
            || {
                format!(
                    "served {} cell of {} differs from a direct run",
                    DIRECT_SCHEME, report.benchmark
                )
            },
        );
        reports.push(report);
    }
    (reports, cell_ms)
}

fn fold_logs(logs: &[ClientLog], out: &mut Outcome) {
    for log in logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &mut out)?;
        return Ok(out);
    }
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut setup_speed = HostSpeed::new(1);
    let mut server = None;
    // Every boot uses one data directory, emptied once here.  The first
    // boot creates its empty subdirectories and later boots find them; a
    // boot writes nothing else.  Creating directories is a one-off whose
    // time followed the filesystem journal: right after another run had
    // deleted its files, boots that each created the directories afresh
    // took 4-6x as long for seconds at a time, and the median moved 4x
    // between runs.
    let data_dir = args.work_dir.join("data");
    let _ = std::fs::remove_dir_all(&data_dir);
    for rep in 0..SETUP_REPS {
        if rep.is_multiple_of(BOOTS_PER_SAMPLE) {
            setup_speed.sample();
        }
        // Shut the previous boot down and let its threads finish exiting
        // before the next one is timed.
        drop(server.take());
        std::thread::sleep(BOOT_PAUSE);
        let (booted, seconds) = boot(&data_dir)?;
        setup.push(seconds);
        server = Some(booted);
    }
    let server = server.ok_or("no boot ran")?;
    health(&server)?;
    setup_speed.report("set-up");
    out.metrics
        .set("setup_s", median(&setup) * setup_speed.scale());
    drop(setup_speed);

    let addr = server.addr().to_string();
    crate::reset_peak_rss();
    let deadline = Instant::now() + args.seconds;
    let Phase {
        logs, wall, speed, ..
    } = run_clients(&addr, args.seed, Stop::At(deadline), None, true)?;
    crate::record_peak_rss(&mut out)?;
    drop(server);
    fold_logs(&logs, &mut out);
    let mut speed = speed.ok_or("the timed phase took no host-speed sample")?;
    speed.report("timed phase");
    let scale = speed.scale();
    // Reference seconds of the phase, without the samples themselves.
    let seconds = (wall - speed.spent_s()) * scale;
    let fresh_ms: Vec<f64> = merged(&logs, |l| &l.fresh_ms)
        .iter()
        .map(|ms| ms * scale)
        .collect();
    let cached_ms: Vec<f64> = merged(&logs, |l| &l.cached_ms)
        .iter()
        .map(|ms| ms * scale)
        .collect();
    print_latency("fresh jobs (reference ms)", &fresh_ms);
    print_latency("cached jobs (reference ms)", &cached_ms);
    let accesses: u64 = logs.iter().map(|l| l.accesses).sum();
    let m = &mut out.metrics;
    m.set("accesses_per_s", accesses as f64 / seconds);
    m.set("job_p50_ms", median(&fresh_ms));
    m.set("job_p90_ms", percentile(&fresh_ms, 90.0));
    m.set(
        "jobs_per_s",
        (fresh_ms.len() + cached_ms.len()) as f64 / seconds,
    );
    let (reports, _) = direct_check(&logs, &mut out);
    out.digest_reports = reports;
    Ok(out)
}

/// Looks up one field of a sample in a `metrics` verb response.
fn sample(metrics: &JsonValue, name: &str, field: &str) -> f64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .find(|s| s.get("name").and_then(JsonValue::as_str) == Some(name))
        .and_then(|s| s.get(field))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// The server-side p50 of one verb's handling latency, in µs.
fn verb_p50(metrics: &JsonValue, verb: &str) -> f64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .find(|s| {
            s.get("name").and_then(JsonValue::as_str) == Some("lad_serve_verb_latency_us")
                && s.get("labels")
                    .and_then(|l| l.get("verb"))
                    .and_then(JsonValue::as_str)
                    == Some(verb)
        })
        .and_then(|s| s.get("p50"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
}

/// The traced run: a fixed job list once untraced and once traced, each
/// on a freshly booted server, then the direct cells through the traced
/// stepping driver.
fn traced(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let stop = Stop::Rounds(TRACED_ROUNDS);
    let (server, _) = boot(&args.work_dir.join("data-untraced"))?;
    health(&server)?;
    let untraced_s = run_clients(&server.addr().to_string(), args.seed, stop, None, false)?.wall;
    drop(server);

    let (server, _) = boot(&args.work_dir.join("data-traced"))?;
    health(&server)?;
    let addr = server.addr().to_string();
    let Phase {
        logs,
        recorders,
        wall: traced_s,
        ..
    } = run_clients(&addr, args.seed, stop, Some(Instant::now()), false)?;
    let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
    let metrics = admin.metrics().map_err(|e| e.to_string())?;
    let stats = admin.stats().map_err(|e| e.to_string())?;
    drop(admin);
    drop(server);
    fold_logs(&logs, out);
    let share = spans::print_self_times(out, args.workload.name(), &recorders, THREADS, traced_s);

    let jobs: usize = logs
        .iter()
        .map(|l| l.fresh_ms.len() + l.cached_ms.len())
        .sum();
    let cache = |field: &str| {
        stats
            .get("cache")
            .and_then(|c| c.get(field))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let result_bytes: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.result_bytes.iter().map(|b| *b as f64))
        .collect();
    let m = &mut out.metrics;
    m.set(
        "serve.checkpoint_spill_p50_ms",
        sample(&metrics, "lad_serve_checkpoint_spill_us", "p50") / 1e3,
    );
    m.set(
        "serve.checkpoints_written",
        sample(&metrics, "lad_serve_checkpoints_written_total", "value"),
    );
    m.set(
        "serve.cell_exec_p50_ms",
        sample(&metrics, "lad_serve_cell_exec_us", "p50") / 1e3,
    );
    m.set(
        "serve.cell_queue_wait_p90_ms",
        sample(&metrics, "lad_serve_cell_queue_wait_us", "p90") / 1e3,
    );
    println!("client-side vs server-side verb p50 (us):");
    for (i, verb) in TIMED_VERBS.iter().enumerate() {
        let client = median(&merged(&logs, |l| &l.verb_us[i]));
        m.set(&format!("serve.verb_p50_us.{verb}"), client);
        println!(
            "  {verb:<7} client {client:.1}  server {:.1}",
            verb_p50(&metrics, verb)
        );
    }
    m.set("serve.result_frame_kb", median(&result_bytes) / 1e3);
    m.set(
        "serve.cached_p50_ms",
        median(&merged(&logs, |l| &l.cached_ms)),
    );
    m.set(
        "serve.cached_p90_ms",
        percentile(&merged(&logs, |l| &l.cached_ms), 90.0),
    );
    m.set(
        "serve.cache_hit_share",
        cache("hits") / (cache("hits") + cache("misses")).max(1.0),
    );
    m.set(
        "serve.status_polls_per_job",
        logs.iter().map(|l| l.wasted_polls).sum::<u64>() as f64 / jobs as f64,
    );

    // The direct cells: untraced for the check and `serve.direct_cell_ms`,
    // then through the traced stepping driver for the engine layers.
    let (reports, direct_ms) = direct_check(&logs, out);
    out.metrics.set("serve.direct_cell_ms", median(&direct_ms));
    let origin = Instant::now();
    let mut rec = Recorder::new(origin, THREADS);
    let mut step_stats = StepStats::default();
    let root = rec.open("direct", DRIVER, 0, None);
    for (index, (spec, _)) in logs[0].completed.iter().take(reports.len()).enumerate() {
        let group = index as u64;
        let cell = rec.open("cell", DRIVER, group, Some(root));
        let trace = rec.scope("generate", "lad-trace.generate", group, Some(cell), |_| {
            builtin_trace(spec)
        });
        let mut source = MemorySource::new(&trace);
        let report = stepper::run_cell(
            || direct_simulator(DIRECT_SCHEME),
            &mut source,
            &mut rec,
            cell,
            group,
            &mut step_stats,
        )
        .unwrap_or_else(|e| unreachable!("in-memory traces cannot fail to stream: {e}"));
        rec.close(cell);
        out.check(
            report.to_json().to_string() == reports[index].to_json().to_string(),
            || format!("traced direct cell of {} differs", report.benchmark),
        );
    }
    rec.close(root);
    let direct_wall = origin.elapsed().as_secs_f64();
    let direct = [rec];
    spans::print_self_times(out, "direct cells", &direct, 1, direct_wall);
    let direct_times = spans::self_times(&direct);
    stepper::sim_metrics(&step_stats, &direct_times, &mut out.metrics);
    out.metrics.set(
        "trace.gen_s",
        direct_times.get("lad-trace.generate").copied().unwrap_or(0) as f64 * 1e-9,
    );
    out.metrics.set("trace.generations", reports.len() as f64);
    out.metrics.set("trace.distinct", reports.len() as f64);
    println!(
        "the server generated one trace per executed cell ({} cells for {} fresh jobs) inside \
         its workers; trace.* and sim.* time the direct cells",
        sample(&metrics, "lad_serve_cells_executed_total", "value"),
        logs.iter().map(|l| l.fresh_ms.len()).sum::<usize>(),
    );
    let all: Vec<Recorder> = recorders.into_iter().chain(direct).collect();
    crate::finish_trace(args, out, &all, untraced_s, traced_s, share);
    out.digest_reports = reports;
    out.not_applicable = vec![
        (
            "traceio.",
            "builtin specs: traces are generated, not read from files",
        ),
        (
            "pool.",
            "the service runs its own worker pool, reported under serve.*",
        ),
        ("model.", "sweep-64c and replay-256c report the model"),
    ];
    Ok(())
}
