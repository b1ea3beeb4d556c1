//! `lad-check` — explore the protocol model and verify the invariant
//! catalog.
//!
//! ```text
//! lad-check check --all                 # every built-in scheme
//! lad-check check --scheme RT-3         # one scheme
//! lad-check check --mutants             # the seeded-mutant suite
//! ```
//!
//! Options: `--cores N`, `--lines N`, `--pointers N` (ACKwise pointers),
//! `--max-states N`.  Without explicit sizing flags each scheme is
//! explored at its default size: 3 cores / 1 line / 2 pointers, except
//! high-threshold RT schemes (RT ≥ 4) which drop to 2 cores because their
//! reuse counters multiply the reachable state space past what is useful
//! to enumerate at 3 cores.  Exit code 0 = catalog holds (or every mutant
//! caught), 1 = violation found (or a mutant escaped), 2 = usage error.

use std::process::ExitCode;

use lad_check::explore::{explore, ExploreOptions};
use lad_check::model::{Model, ModelConfig};
use lad_check::mutation::{run_mutant, SEEDED_MUTANTS};
use lad_common::cli::Args;
use lad_replication::policy::SchemeRegistry;
use lad_replication::scheme::SchemeId;

const USAGE: &str = "usage: lad-check check (--all | --scheme <id> | --mutants) \
[--cores N] [--lines N] [--pointers N] [--max-states N]";

struct Cli {
    all: bool,
    mutants: bool,
    scheme: Option<SchemeId>,
    config: ModelConfig,
    /// True when any of `--cores/--lines/--pointers` was given; otherwise
    /// each scheme is explored at [`default_config_for`] its id.
    sized_explicitly: bool,
    max_states: usize,
}

/// Per-scheme default exploration size.  High-threshold RT schemes carry
/// reuse counters saturating at RT on every replica and classifier entry,
/// which multiplies the reachable state space; 2 cores keeps their
/// exploration exhaustive while RT-1/RT-3 still cover 3-core ACKwise
/// overflow and majority-vote behavior.
fn default_config_for(id: SchemeId) -> ModelConfig {
    let mut config = ModelConfig::default();
    if let SchemeId::Rt(rt) = id {
        if rt >= 4 {
            config.cores = 2;
        }
    }
    config
}

fn parse_args(mut args: Args) -> Result<Cli, String> {
    match args.positional().as_deref() {
        Some("check") => {}
        Some(other) => return Err(format!("unknown command `{other}`\n{USAGE}")),
        None => return Err(USAGE.to_string()),
    }
    let mut cli = Cli {
        all: args.switch("--all"),
        mutants: args.switch("--mutants"),
        scheme: args.value("--scheme")?.map(|id| SchemeId::parse(&id)),
        config: ModelConfig::default(),
        sized_explicitly: false,
        max_states: args
            .number("--max-states")?
            .unwrap_or(ExploreOptions::default().max_states),
    };
    for (flag, size) in [
        ("--cores", &mut cli.config.cores),
        ("--lines", &mut cli.config.lines),
        ("--pointers", &mut cli.config.ackwise_pointers),
    ] {
        if let Some(value) = args.number(flag)? {
            *size = value;
            cli.sized_explicitly = true;
        }
    }
    args.finish()?;
    let modes = usize::from(cli.all) + usize::from(cli.mutants) + usize::from(cli.scheme.is_some());
    if modes != 1 {
        return Err(format!(
            "pick exactly one of --all, --scheme <id>, --mutants\n{USAGE}"
        ));
    }
    if cli.config.cores == 0 || cli.config.lines == 0 || cli.config.ackwise_pointers == 0 {
        return Err("--cores, --lines and --pointers must be positive".to_string());
    }
    Ok(cli)
}

fn check_scheme(registry: &SchemeRegistry, id: SchemeId, cli: &Cli) -> Result<bool, String> {
    let scheme = registry
        .get(id)
        .map_err(|e| format!("{e} (known: {})", known_ids(registry)))?;
    let config = if cli.sized_explicitly {
        cli.config
    } else {
        default_config_for(id)
    };
    let model = Model::new(scheme, config, None);
    let exploration = explore(
        &model,
        ExploreOptions {
            stop_on_violation: false,
            max_states: cli.max_states,
        },
    );
    let status = if exploration.is_clean() {
        "ok"
    } else if exploration.truncated {
        "TRUNCATED"
    } else {
        "VIOLATED"
    };
    println!(
        "{id:<12} {status:<9} {:>8} states, {:>9} transitions  ({}c/{}l/p{})",
        exploration.states,
        exploration.transitions,
        config.cores,
        config.lines,
        config.ackwise_pointers
    );
    for found in &exploration.violations {
        print!("{}", found.render());
    }
    Ok(exploration.is_clean())
}

fn known_ids(registry: &SchemeRegistry) -> String {
    registry
        .ids()
        .map(|id| id.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

fn run(args: Args) -> Result<bool, String> {
    let cli = parse_args(args)?;
    let registry = SchemeRegistry::builtin();

    if cli.mutants {
        println!(
            "mutation harness: {} seeded mutants ({} cores, {} lines, {} pointers)",
            SEEDED_MUTANTS.len(),
            cli.config.cores,
            cli.config.lines,
            cli.config.ackwise_pointers
        );
        let mut all_caught = true;
        for seeded in SEEDED_MUTANTS {
            let outcome = run_mutant(&registry, seeded, cli.config)
                .map_err(|id| format!("mutant vehicle {id} is not a built-in scheme"))?;
            println!("{}", outcome.verdict());
            all_caught &= outcome.caught();
        }
        return Ok(all_caught);
    }

    let ids: Vec<SchemeId> = match cli.scheme {
        Some(id) => vec![id],
        None => registry.ids().collect(),
    };
    if cli.sized_explicitly {
        println!(
            "exploring {} scheme(s) at {} cores, {} lines, {} ACKwise pointers",
            ids.len(),
            cli.config.cores,
            cli.config.lines,
            cli.config.ackwise_pointers
        );
    } else {
        println!(
            "exploring {} scheme(s) at per-scheme default sizes",
            ids.len()
        );
    }
    let mut all_clean = true;
    for id in ids {
        all_clean &= check_scheme(&registry, id, &cli)?;
    }
    Ok(all_clean)
}

fn main() -> ExitCode {
    match run(Args::from_env().with_usage(USAGE)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("lad-check: {message}");
            ExitCode::from(2)
        }
    }
}
