//! `lad-client` — CLI for the `lad-serve` experiment service.
//!
//! ```text
//! lad-client --addr HOST:PORT upload <FILE.ladt>
//! lad-client --addr HOST:PORT submit
//!            (--trace <FILE.ladt> | --stored <DIGEST> |
//!             --builtin <BENCH> --cores N --accesses N [--seed N])
//!            --scheme <S> [--scheme <S> ...] [--system paper|small-test]
//!            [--wait] [--json <PATH>]
//! lad-client --addr HOST:PORT status <JOB>
//! lad-client --addr HOST:PORT result <JOB> [--json <PATH>]
//! lad-client --addr HOST:PORT wait <JOB> [--json <PATH>]
//! lad-client --addr HOST:PORT cancel <JOB>
//! lad-client --addr HOST:PORT stats
//! lad-client --addr HOST:PORT health
//! lad-client --addr HOST:PORT metrics [--prometheus] [--json <PATH>]
//! lad-client --addr HOST:PORT watch [--interval MS] [--count N]
//! lad-client --addr HOST:PORT shutdown
//! ```
//!
//! Every command prints the server's response frame pretty-printed;
//! `--json <PATH>` additionally writes it to a file.  Exit status is
//! non-zero on any server error frame.  `--retries N` bounds the client's
//! reconnect-and-resend policy (exponential backoff with deterministic
//! jitter; every verb is idempotent, so resending is safe — see
//! [`lad_serve::client`]).
//!
//! `stats` leads with a human-readable summary (queue, cache mode, reaped
//! connections) before the raw JSON; `metrics` fetches one observability
//! snapshot (`--prometheus` prints the text exposition alone, for
//! scraping); `watch` polls `stats` + `metrics` and redraws a one-screen
//! live view (jobs in flight, queue depth, cache hit rate, p50/p99 verb
//! latency, injected-fault counts).

use std::process::ExitCode;
use std::time::Duration;

use lad_common::cli::Args;
use lad_common::json::{field, Json, JsonValue};
use lad_serve::client::{Client, RetryPolicy};
use lad_serve::protocol::{JobSpec, SystemPreset, TraceSpec};

const USAGE: &str = "\
lad-client: CLI for the lad-serve experiment service

USAGE:
  lad-client --addr HOST:PORT upload <FILE.ladt>
  lad-client --addr HOST:PORT submit
             (--trace <FILE.ladt> | --stored <DIGEST> |
              --builtin <BENCH> --cores N --accesses N [--seed N])
             --scheme <S> [--scheme <S> ...] [--system paper|small-test]
             [--wait] [--json <PATH>]
  lad-client --addr HOST:PORT status <JOB>
  lad-client --addr HOST:PORT result <JOB> [--json <PATH>]
  lad-client --addr HOST:PORT wait <JOB> [--json <PATH>]
  lad-client --addr HOST:PORT cancel <JOB>
  lad-client --addr HOST:PORT stats
  lad-client --addr HOST:PORT health
  lad-client --addr HOST:PORT metrics [--prometheus] [--json <PATH>]
  lad-client --addr HOST:PORT watch [--interval MS] [--count N]
  lad-client --addr HOST:PORT shutdown

All commands accept `--retries N` (default 4): on a dropped connection
the client reconnects and resends with exponential backoff; every verb
is idempotent so a resend never double-executes work.

`metrics` fetches one observability snapshot; `--prometheus` prints only
the text exposition (for scraping).  `watch` redraws a live one-screen
view every `--interval` ms (default 1000) until interrupted, or exactly
`--count` times.

Schemes are the registry labels: S-NUCA, R-NUCA, VR, ASR-<level>, RT-<k>.
`upload` sends a local trace to the server's store and prints its digest
for use with `submit --stored`.";

/// How often `wait` (and `submit --wait`) polls the job status.
const POLL: Duration = Duration::from_millis(100);

fn main() -> ExitCode {
    let mut args = Args::from_env().with_usage(USAGE);
    if args.switch("--help") || args.switch("-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("lad-client: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Writes to stdout, exiting quietly when the consumer closed the pipe
/// early — `lad-client ... | head` or `| grep -q` must not panic or fail
/// the pipeline.  Any other stdout error is a real, reportable failure.
fn print_stdout(text: &str) {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    let result = stdout
        .write_all(text.as_bytes())
        .and_then(|()| stdout.flush());
    if let Err(err) = result {
        if err.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("lad-client: cannot write to stdout: {err}");
        std::process::exit(1);
    }
}

/// Prints a response frame and optionally writes it to `--json <PATH>`.
fn emit(response: &JsonValue, json_path: Option<&str>) -> Result<(), String> {
    print_stdout(&format!("{}\n", response.pretty()));
    if let Some(path) = json_path {
        lad_common::fs::atomic_write(std::path::Path::new(path), response.pretty().as_bytes())
            .map_err(|err| format!("cannot write {path}: {err}"))?;
    }
    Ok(())
}

fn run(mut args: Args) -> Result<(), String> {
    let addr = args
        .value("--addr")?
        .ok_or(format!("--addr is required\n\n{USAGE}"))?;
    let mut policy = RetryPolicy::standard();
    if let Some(attempts) = args.number("--retries")? {
        policy.attempts = attempts;
    }
    let command = args
        .positional()
        .ok_or(format!("missing command\n\n{USAGE}"))?;
    let mut client = Client::connect_with(&addr, policy)
        .map_err(|err| format!("cannot connect to {addr}: {err}"))?;
    match command.as_str() {
        "upload" => cmd_upload(&mut client, args),
        "submit" => cmd_submit(&mut client, args),
        "status" => cmd_job_verb(args, |job| client.status(job)),
        "result" => cmd_job_verb_json(args, |job| client.result(job)),
        "wait" => cmd_job_verb_json(args, |job| client.wait(job, POLL)),
        "cancel" => cmd_job_verb(args, |job| client.cancel(job)),
        "stats" => cmd_stats(&mut client, args),
        "health" => {
            args.finish()?;
            emit(&client.health().map_err(|err| err.to_string())?, None)
        }
        "metrics" => cmd_metrics(&mut client, args),
        "watch" => cmd_watch(&addr, &mut client, args),
        "shutdown" => {
            args.finish()?;
            emit(&client.shutdown().map_err(|err| err.to_string())?, None)
        }
        other => Err(format!("unknown command {other:?}\n\n{USAGE}")),
    }
}

/// The one positional argument of a command, with nothing left over.
fn sole_positional(mut args: Args, what: &str) -> Result<String, String> {
    let value = args.positional().ok_or(format!("{what}\n\n{USAGE}"))?;
    args.finish()?;
    Ok(value)
}

fn cmd_upload(client: &mut Client, args: Args) -> Result<(), String> {
    let path = sole_positional(args, "upload takes exactly one <FILE.ladt>")?;
    let bytes = std::fs::read(&path).map_err(|err| format!("cannot read {path}: {err}"))?;
    emit(&client.upload(&bytes).map_err(|err| err.to_string())?, None)
}

fn cmd_submit(client: &mut Client, mut args: Args) -> Result<(), String> {
    let trace = trace_spec(&mut args)?;
    let schemes = args.values("--scheme")?;
    if schemes.is_empty() {
        return Err(format!("submit needs at least one --scheme\n\n{USAGE}"));
    }
    let system = match args.value("--system")? {
        Some(label) => SystemPreset::parse(&label).map_err(|err| err.to_string())?,
        None => SystemPreset::Paper,
    };
    let wait = args.switch("--wait");
    let json_path = args.value("--json")?;
    args.finish()?;

    let spec = JobSpec {
        trace,
        schemes,
        system,
    };
    let receipt = client.submit(&spec).map_err(|err| err.to_string())?;
    let job: String =
        field(&receipt, "job").map_err(|_| "submit response is missing the job id")?;
    if wait {
        emit(
            &client.wait(&job, POLL).map_err(|err| err.to_string())?,
            json_path.as_deref(),
        )
    } else {
        emit(&receipt, json_path.as_deref())
    }
}

fn trace_spec(args: &mut Args) -> Result<TraceSpec, String> {
    let file = args.value("--trace")?;
    let stored = args.value("--stored")?;
    let builtin = args.value("--builtin")?;
    match (file, stored, builtin) {
        (Some(path), None, None) => Ok(TraceSpec::File { path: path.into() }),
        (None, Some(digest), None) => Ok(TraceSpec::Stored { digest }),
        (None, None, Some(benchmark)) => {
            let cores = args
                .number("--cores")?
                .ok_or("--builtin requires --cores")?;
            let accesses = args
                .number("--accesses")?
                .ok_or("--builtin requires --accesses")?;
            let seed = args.number("--seed")?.unwrap_or(0);
            Ok(TraceSpec::Builtin {
                benchmark,
                cores,
                accesses_per_core: accesses,
                seed,
            })
        }
        _ => Err(format!(
            "submit needs exactly one of --trace, --stored or --builtin\n\n{USAGE}"
        )),
    }
}

fn cmd_job_verb(
    args: Args,
    call: impl FnOnce(&str) -> Result<JsonValue, lad_serve::client::ClientError>,
) -> Result<(), String> {
    let job = sole_positional(args, "this command takes exactly one <JOB>")?;
    emit(&call(&job).map_err(|err| err.to_string())?, None)
}

/// `stats` with a human-readable lead: the summary surfaces the numbers
/// an operator scans for — queue pressure, cache mode (loud when
/// degraded) and reaped connections — before the raw JSON frame that
/// scripts parse.
fn cmd_stats(client: &mut Client, args: Args) -> Result<(), String> {
    args.finish()?;
    let stats = client.stats().map_err(|err| err.to_string())?;
    print_stdout(&format!("{}\n", stats_summary(&stats)));
    emit(&stats, None)
}

/// Reads the field at a nested object path; `None` when a step is missing
/// or the field has another type.
fn nested<T: Json>(value: &JsonValue, path: &[&str]) -> Option<T> {
    let (name, parents) = path.split_last()?;
    let object = parents
        .iter()
        .try_fold(value, |cursor, key| cursor.get(key))?;
    field(object, name).ok()
}

/// Reads a `u64` at a nested object path, defaulting to 0.
fn field_u64(value: &JsonValue, path: &[&str]) -> u64 {
    nested(value, path).unwrap_or(0)
}

/// Reads a string at a nested object path, defaulting to `"?"`.
fn field_str(value: &JsonValue, path: &[&str]) -> String {
    nested(value, path).unwrap_or_else(|| "?".to_string())
}

fn stats_summary(stats: &JsonValue) -> String {
    let mode = match field_str(stats, &["cache", "mode"]).as_str() {
        "degraded" => "DEGRADED (memory-only after disk errors)".to_string(),
        other => other.to_string(),
    };
    format!(
        "workers {} | queue {}/{} | jobs {} active, {} submitted\n\
         cells: {} executed, {} resumed, {} failed\n\
         cache: {} entries, {} hits / {} misses, mode {mode}\n\
         connections: {} accepted, {} frames, {} errors, {} reaped\n",
        field_u64(stats, &["workers"]),
        field_u64(stats, &["queue", "depth"]),
        field_u64(stats, &["queue", "limit"]),
        field_u64(stats, &["jobs", "active"]),
        field_u64(stats, &["jobs", "submitted"]),
        field_u64(stats, &["cells", "executed"]),
        field_u64(stats, &["cells", "resumed"]),
        field_u64(stats, &["cells", "failed"]),
        field_u64(stats, &["cache", "entries"]),
        field_u64(stats, &["cache", "hits"]),
        field_u64(stats, &["cache", "misses"]),
        field_u64(stats, &["connections", "accepted"]),
        field_u64(stats, &["connections", "frames"]),
        field_u64(stats, &["connections", "errors"]),
        field_u64(stats, &["connections", "reaped"]),
    )
}

fn cmd_metrics(client: &mut Client, mut args: Args) -> Result<(), String> {
    let prometheus = args.switch("--prometheus");
    let json_path = args.value("--json")?;
    args.finish()?;
    let response = client.metrics().map_err(|err| err.to_string())?;
    if prometheus {
        let text = response
            .get("prometheus")
            .and_then(JsonValue::as_str)
            .ok_or("metrics response is missing the prometheus exposition")?;
        print_stdout(text);
        if let Some(path) = json_path {
            lad_common::fs::atomic_write(std::path::Path::new(&path), response.pretty().as_bytes())
                .map_err(|err| format!("cannot write {path}: {err}"))?;
        }
        Ok(())
    } else {
        emit(&response, json_path.as_deref())
    }
}

/// `watch`: polls `stats` + `metrics` and redraws a one-screen live view
/// every `--interval` ms (default 1000), forever or exactly `--count`
/// times.
fn cmd_watch(addr: &str, client: &mut Client, mut args: Args) -> Result<(), String> {
    let interval = Duration::from_millis(args.number("--interval")?.unwrap_or(1000));
    let count: u64 = args.number("--count")?.unwrap_or(0);
    args.finish()?;
    let mut drawn = 0u64;
    loop {
        let stats = client.stats().map_err(|err| err.to_string())?;
        let metrics = client.metrics().map_err(|err| err.to_string())?;
        let mut screen = String::new();
        if drawn > 0 {
            // Home + clear-to-end: redraw in place without scrollback spam.
            screen.push_str("\x1b[H\x1b[J");
        }
        screen.push_str(&watch_screen(addr, &stats, &metrics, interval));
        print_stdout(&screen);
        drawn += 1;
        if count != 0 && drawn >= count {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

fn watch_screen(addr: &str, stats: &JsonValue, metrics: &JsonValue, interval: Duration) -> String {
    let empty = Vec::new();
    let entries = metrics
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(JsonValue::as_array)
        .unwrap_or(&empty);
    let metric_u64 = |name: &str| -> u64 {
        entries
            .iter()
            .filter(|e| e.get("name").and_then(JsonValue::as_str) == Some(name))
            .map(|e| e.get("value").and_then(JsonValue::as_u64).unwrap_or(0))
            .sum()
    };
    let hits = field_u64(stats, &["cache", "hits"]);
    let misses = field_u64(stats, &["cache", "misses"]);
    let lookups = hits + misses;
    let hit_rate = if lookups > 0 {
        format!("{:.1}%", 100.0 * hits as f64 / lookups as f64)
    } else {
        "n/a".to_string()
    };
    let mut screen = format!(
        "lad-serve @ {addr} — protocol v{}, {} workers{}\n\
         jobs   : {} in flight, {} submitted\n\
         queue  : {} / {} queued, {} workers busy\n\
         cells  : {} executed, {} resumed, {} failed, {} checkpoints\n\
         cache  : {} entries, hit rate {hit_rate} ({hits} hits / {misses} misses), mode {}\n\
         conns  : {} accepted, {} frames in / {} out, {} errors, {} reaped\n",
        field_u64(stats, &["protocol"]),
        field_u64(stats, &["workers"]),
        if stats.get("shutting_down").and_then(JsonValue::as_bool) == Some(true) {
            "  [DRAINING]"
        } else {
            ""
        },
        field_u64(stats, &["jobs", "active"]),
        field_u64(stats, &["jobs", "submitted"]),
        field_u64(stats, &["queue", "depth"]),
        field_u64(stats, &["queue", "limit"]),
        metric_u64("lad_serve_workers_busy"),
        field_u64(stats, &["cells", "executed"]),
        field_u64(stats, &["cells", "resumed"]),
        field_u64(stats, &["cells", "failed"]),
        field_u64(stats, &["cells", "checkpoints_written"]),
        field_u64(stats, &["cache", "entries"]),
        field_str(stats, &["cache", "mode"]),
        field_u64(stats, &["connections", "accepted"]),
        field_u64(stats, &["connections", "frames"]),
        metric_u64("lad_serve_frames_out_total"),
        field_u64(stats, &["connections", "errors"]),
        field_u64(stats, &["connections", "reaped"]),
    );
    let verbs: Vec<&JsonValue> = entries
        .iter()
        .filter(|e| {
            e.get("name").and_then(JsonValue::as_str) == Some("lad_serve_verb_latency_us")
                && e.get("count").and_then(JsonValue::as_u64).unwrap_or(0) > 0
        })
        .collect();
    if !verbs.is_empty() {
        screen.push_str("verb latency (p50 / p99 us):\n");
        for entry in verbs {
            screen.push_str(&format!(
                "  {:<10} {:>6} / {:<6} x{}\n",
                field_str(entry, &["labels", "verb"]),
                field_u64(entry, &["p50"]),
                field_u64(entry, &["p99"]),
                field_u64(entry, &["count"]),
            ));
        }
    }
    let faults: Vec<&JsonValue> = entries
        .iter()
        .filter(|e| {
            e.get("name").and_then(JsonValue::as_str) == Some("lad_serve_faults_injected_total")
        })
        .collect();
    if !faults.is_empty() {
        screen.push_str("faults injected (site/kind):\n");
        for entry in faults {
            screen.push_str(&format!(
                "  {}/{}  {}\n",
                field_str(entry, &["labels", "site"]),
                field_str(entry, &["labels", "kind"]),
                field_u64(entry, &["value"]),
            ));
        }
    }
    screen.push_str(&format!(
        "(refreshes every {} ms; Ctrl-C to stop)\n",
        interval.as_millis()
    ));
    screen
}

fn cmd_job_verb_json(
    mut args: Args,
    call: impl FnOnce(&str) -> Result<JsonValue, lad_serve::client::ClientError>,
) -> Result<(), String> {
    let json_path = args.value("--json")?;
    let job = sole_positional(args, "this command takes exactly one <JOB>")?;
    emit(
        &call(&job).map_err(|err| err.to_string())?,
        json_path.as_deref(),
    )
}
