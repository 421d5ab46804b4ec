//! End-to-end tests for the `repro` CLI's exit-code contract: `--help`
//! prints the usage banner and exits 0; a malformed command line exits 2
//! with the banner on stderr; an output file that cannot be written exits 3;
//! none of them with a panic.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let text = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(text.starts_with("usage: repro"), "{text}");
    assert!(text.contains("--store-dir DIR"), "{text}");
}

/// The exit-code matrix: unknown flags, missing values, invalid values and
/// figures that are not measured (block diagrams, out of range) are operator
/// errors (2), reported with the usage banner.
#[test]
fn malformed_command_lines_exit_two_without_panicking() {
    for args in [
        &["--bogus"] as &[&str],
        &["--threads"],
        &["--threads", "0"],
        &["--vl", "0"],
        &["--csv"],
        &["--fig", "eleven"],
        &["--fig", "2"],
        &["--fig", "16"],
        &["--cache-dir", "somewhere"],
    ] {
        let out = run(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "args {args:?}: {err}");
        assert!(err.contains("usage: repro"), "args {args:?}: {err}");
        assert!(!err.contains("panicked"), "args {args:?}: {err}");
    }
}

/// An output path in a missing directory is a runtime I/O failure (3): one
/// message on stderr, no banner, no panic.
#[test]
fn unwritable_output_paths_exit_three_without_panicking() {
    let missing = std::env::temp_dir()
        .join(format!("repro-cli-missing-{}", std::process::id()))
        .join("out.json");
    let missing = missing.to_str().expect("utf-8 temp path");
    for flag in ["--metrics-json", "--timing-json", "--trace"] {
        let out = run(&["--quick", "--table1", "--no-cache", flag, missing]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(3), "{flag}: {err}");
        assert!(err.contains("repro: cannot write"), "{flag}: {err}");
        assert!(!err.contains("usage: repro"), "{flag}: {err}");
        assert!(!err.contains("panicked"), "{flag}: {err}");
    }
}
