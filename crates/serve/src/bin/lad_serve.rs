//! `lad-serve` — the experiment service daemon.
//!
//! ```text
//! lad-serve --data-dir <DIR> [--addr HOST:PORT] [--workers N]
//!           [--queue-limit N] [--checkpoint-interval N]
//!           [--read-timeout-ms N] [--fault-plan PLAN]
//! ```
//!
//! Binds the address (port `0` picks an ephemeral port), prints
//! `lad-serve listening on <ADDR>` once ready, and serves until a client
//! sends the `shutdown` verb; in-flight cells checkpoint on the way down
//! so a restart over the same `--data-dir` resumes them.
//!
//! `--fault-plan` arms the deterministic fault injector for robustness testing — see
//! [`lad_common::fault::FaultPlan`] for the plan grammar
//! (`site:occurrence:kind[;...]` or `random:<seed>`).

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use lad_common::cli::Args;
use lad_common::fault::{FaultInjector, FaultPlan};
use lad_serve::server::{self, ServerConfig};

const USAGE: &str = "\
lad-serve: multi-tenant experiment service daemon

USAGE:
  lad-serve --data-dir <DIR> [--addr HOST:PORT] [--workers N]
            [--queue-limit N] [--checkpoint-interval N]
            [--read-timeout-ms N] [--fault-plan PLAN]

Durable state (result cache, checkpoints, uploaded traces) lives under
--data-dir; restarting over the same directory keeps cached results and
resumes checkpointed cells.  Stop the daemon with `lad-client shutdown`.

--fault-plan arms the deterministic fault injector for robustness
testing.  PLAN is `site:occurrence:kind[;...]`
(e.g. `conn-write:3:drop;cache-spill:1:enospc`) or `random:<seed>`.";

fn main() -> ExitCode {
    let mut args = Args::from_env().with_usage(USAGE);
    if args.switch("--help") || args.switch("-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("lad-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(mut args: Args) -> Result<(), String> {
    let data_dir = args
        .value("--data-dir")?
        .ok_or(format!("--data-dir is required\n\n{USAGE}"))?;
    let mut config = ServerConfig::new(data_dir);
    if let Some(addr) = args.value("--addr")? {
        config.addr = addr;
    }
    if let Some(workers) = args.number("--workers")? {
        config.workers = workers;
    }
    if let Some(limit) = args.number("--queue-limit")? {
        config.queue_limit = limit;
    }
    if let Some(interval) = args.number("--checkpoint-interval")? {
        config.checkpoint_interval = interval;
    }
    if let Some(millis) = args.number("--read-timeout-ms")? {
        config.read_timeout = Duration::from_millis(millis);
    }
    if let Some(text) = args.value("--fault-plan")? {
        let plan = FaultPlan::parse(&text).map_err(|err| format!("--fault-plan: {err}"))?;
        eprintln!("lad-serve: fault injector ARMED: {plan}");
        config.fault = FaultInjector::armed(plan);
    }
    args.finish()?;
    server::run(config, |addr| {
        println!("lad-serve listening on {addr}");
        let _ = std::io::stdout().flush();
    })
    .map_err(|err| err.to_string())
}
