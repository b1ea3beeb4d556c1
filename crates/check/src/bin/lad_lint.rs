//! `lad-lint` — run the workspace source lints.
//!
//! ```text
//! lad-lint [--root <workspace-root>]
//! ```
//!
//! Scans every library source under `<root>/crates` (skipping `src/bin/`,
//! `tests/` and the vendored `*-shim` crates) for the `hashmap` and `panic`
//! rules.  Exit code 0 = clean, 1 = findings, 2 = usage/IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use lad_check::lint::lint_workspace;
use lad_common::cli::Args;

const USAGE: &str = "usage: lad-lint [--root <workspace-root>]";

fn main() -> ExitCode {
    let mut args = Args::from_env();
    let root = match args
        .value("--root")
        .and_then(|root| args.finish().map(|()| root))
    {
        Ok(root) => PathBuf::from(root.unwrap_or_else(|| ".".to_string())),
        Err(_) => {
            eprintln!("lad-lint: {USAGE}");
            return ExitCode::from(2);
        }
    };
    if !root.join("crates").is_dir() {
        eprintln!(
            "lad-lint: `{}` has no crates/ directory (run from the workspace root or pass --root)",
            root.display()
        );
        return ExitCode::from(2);
    }
    match lint_workspace(&root) {
        Ok(findings) if findings.is_empty() => {
            println!("lad-lint: clean");
            ExitCode::SUCCESS
        }
        Ok(findings) => {
            for finding in &findings {
                println!("{finding}");
            }
            println!(
                "lad-lint: {} finding(s); annotate deliberate exceptions with \
                 `// lad-lint: allow(<rule>)` next to a justification",
                findings.len()
            );
            ExitCode::from(1)
        }
        Err(error) => {
            eprintln!("lad-lint: {error}");
            ExitCode::from(2)
        }
    }
}
