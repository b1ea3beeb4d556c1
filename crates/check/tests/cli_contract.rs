//! Exit codes and first stderr lines of `lad-check` and `lad-lint` usage
//! errors.  Both binaries exit 2 on a usage error.

use std::process::Command;

/// Runs `exe` with `args` and returns its exit code and the first line it
/// wrote to stderr.
fn exit_and_first_stderr_line(exe: &str, args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(exe)
        .args(args)
        .output()
        .unwrap_or_else(|err| panic!("failed to spawn {exe}: {err}"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    let first = stderr.lines().next().unwrap_or_default().to_string();
    (output.status.code(), first)
}

#[test]
fn lad_check_usage_errors() {
    let lad_check = env!("CARGO_BIN_EXE_lad-check");
    assert_eq!(
        exit_and_first_stderr_line(lad_check, &["check"]),
        (
            Some(2),
            "lad-check: pick exactly one of --all, --scheme <id>, --mutants".into()
        )
    );
    // An unknown option is named in the first line.
    let (code, first) = exit_and_first_stderr_line(lad_check, &["check", "--all", "--bogus"]);
    assert_eq!(code, Some(2));
    assert!(
        first.starts_with("lad-check: ") && first.contains("--bogus"),
        "{first}"
    );
}

#[test]
fn lad_lint_usage_errors() {
    assert_eq!(
        exit_and_first_stderr_line(env!("CARGO_BIN_EXE_lad-lint"), &["extra"]),
        (
            Some(2),
            "lad-lint: usage: lad-lint [--root <workspace-root>]".into()
        )
    );
}
