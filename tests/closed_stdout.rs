//! The command-line tools exit cleanly when their stdout reader goes away.
//!
//! `runtime … | head -1` and `analyze --table1 --json | head -c 10` close
//! the pipe long before the tools finish writing. Both must treat the
//! resulting `EPIPE` as the end of wanted output, never panic, and exit
//! with the status the run itself earned. Each test spawns the binary
//! with the read end of its stdout pipe already closed, so every write it
//! makes fails with `EPIPE`.

#![allow(clippy::unwrap_used)] // tests fail loudly by design

use std::process::{Command, Stdio};

/// Runs `bin args…` with a closed stdout pipe; returns its exit code and
/// stderr.
fn run_with_closed_stdout(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    // Close the read end before the child writes anything.
    drop(child.stdout.take());
    let out = child.wait_with_output().unwrap();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn runtime_exits_cleanly_on_a_closed_stdout() {
    let bin = env!("CARGO_BIN_EXE_runtime");
    for args in [
        &["--nodes", "5000", "--seconds", "1"][..],
        &["--nodes", "64", "--seconds", "1", "--json"],
        &["--help"],
    ] {
        let (code, stderr) = run_with_closed_stdout(bin, args);
        assert!(!stderr.contains("panicked"), "runtime {args:?}: {stderr}");
        assert_eq!(code, Some(0), "runtime {args:?}: {stderr}");
    }
}

#[test]
fn analyze_exits_cleanly_on_a_closed_stdout() {
    let bin = env!("CARGO_BIN_EXE_analyze");
    for args in [&["--table1", "--json"][..], &["--table1"], &[], &["--help"]] {
        let (code, stderr) = run_with_closed_stdout(bin, args);
        assert!(!stderr.contains("panicked"), "analyze {args:?}: {stderr}");
        assert_eq!(code, Some(0), "analyze {args:?}: {stderr}");
    }
}

/// A closed pipe ends the output, not the verdict: a usage error still
/// exits 1 and a may-overflow gate still exits 2.
#[test]
fn verdicts_survive_a_closed_stdout() {
    let (code, stderr) =
        run_with_closed_stdout(env!("CARGO_BIN_EXE_runtime"), &["--nodes", "zero"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    let (code, stderr) = run_with_closed_stdout(
        env!("CARGO_BIN_EXE_analyze"),
        &["--scale", "4", "--fail-on-overflow"],
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(code, Some(2), "{stderr}");
}
