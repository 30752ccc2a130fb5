//! Command-line surface of the `ser-serve` binary: a flag the
//! subcommand does not know is a usage error (exit 2), never silently
//! ignored.

use std::process::Command;

/// Runs `ser-serve` with `args` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ser-serve"))
        .args(args)
        .output()
        .expect("spawn ser-serve");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_flags_print_usage_and_exit_2() {
    // A misspelled estimator flag must not quietly leave the pool
    // identity at its default; the daemon never starts listening.
    let socket = std::env::temp_dir().join(format!("ser-serve-cli-{}.sock", std::process::id()));
    let listen = format!("unix:{}", socket.display());
    let (code, stderr) = run(&["serve", "--listen", &listen, "--exact-suport", "0"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown flag `--exact-suport`"), "{stderr}");
    assert!(stderr.contains("usage: ser-serve"), "{stderr}");
    assert!(
        !socket.exists(),
        "the daemon must not have bound its socket"
    );

    // Client subcommands check their own flag sets: `--threads` belongs
    // to `sweep`, not `analyze`.
    let (code, stderr) = run(&[
        "analyze",
        "--connect",
        &listen,
        "--circuit",
        "c17",
        "--threads",
        "2",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("unknown flag `--threads` for `analyze`"),
        "{stderr}"
    );
}

#[test]
fn known_flags_are_accepted() {
    // Every flag is known, so the client gets as far as connecting to
    // the (absent) daemon and fails there, not on argument parsing.
    let socket = std::env::temp_dir().join(format!("ser-serve-none-{}.sock", std::process::id()));
    let (code, stderr) = run(&[
        "sweep",
        "--connect",
        &format!("unix:{}", socket.display()),
        "--circuit",
        "c17",
        "--threads",
        "1",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(!stderr.contains("unknown flag"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}
