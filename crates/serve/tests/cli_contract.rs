//! Exit codes and first stderr lines of `lad-serve` and `lad-client`
//! usage errors.  Both binaries report every error with exit code 1.

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
fn lad_serve_usage_errors() {
    let lad_serve = env!("CARGO_BIN_EXE_lad-serve");
    assert_eq!(
        exit_and_first_stderr_line(lad_serve, &[]),
        (Some(1), "lad-serve: --data-dir is required".into())
    );
    // The bad number is rejected before the data directory is touched.
    let data_dir = std::env::temp_dir().join(format!("lad-serve-cli-{}", std::process::id()));
    let data_dir = data_dir.to_str().unwrap();
    assert_eq!(
        exit_and_first_stderr_line(lad_serve, &["--data-dir", data_dir, "--workers", "x"]),
        (
            Some(1),
            "lad-serve: --workers must be a number, got \"x\"".into()
        )
    );
}

#[test]
fn lad_client_usage_errors() {
    assert_eq!(
        exit_and_first_stderr_line(env!("CARGO_BIN_EXE_lad-client"), &["stats"]),
        (Some(1), "lad-client: --addr is required".into())
    );
}
