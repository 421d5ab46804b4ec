//! Operator tool for `sdv-obs-metrics/1` documents (`repro --metrics-json`).
//!
//! ```text
//! sdv-obs summarize FILE
//! sdv-obs diff BASE CURRENT
//! ```
//!
//! * `summarize` prints a readable listing of a metrics document: every
//!   counter and gauge by name, and each histogram with its sample count,
//!   mean, and per-bucket occupancy.
//! * `diff` prints what changed from `BASE` to `CURRENT` (counters subtract
//!   saturating over the union of names, gauges subtract, histograms subtract
//!   bucket-wise), skipping zero-delta entries — the quick answer to "what
//!   did this run do differently?".
//!
//! Names are sorted, so the output is stable and diff-friendly (the golden
//! CLI fixture test depends on this).  See `docs/OBSERVABILITY.md` for the
//! naming scheme and document schema.
//!
//! Exit codes follow the store CLI conventions: 0 success, 2 command-line
//! error (usage banner) or malformed/wrong-schema document (message only),
//! 3 runtime I/O failure.

use sdv_bench::Cli;
use sdv_obs::{Histogram, MetricsRegistry};
use std::fmt::Write as _;
use std::path::Path;

const CLI: Cli = Cli {
    name: "sdv-obs",
    usage: "usage: sdv-obs summarize FILE\n       sdv-obs diff BASE CURRENT",
};

/// A document that could be read but not understood: malformed JSON or a
/// schema-version mismatch.  Same exit code as operator error — the command
/// line may have been fine, but the input is not a metrics document we can
/// honestly summarize, and conflating it with success or I/O failure would
/// mislead CI.
fn data_error(message: &str) -> ! {
    eprintln!("sdv-obs: {message}");
    std::process::exit(2)
}

fn load(path: &Path) -> MetricsRegistry {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| CLI.io_error(&format!("cannot read {}: {e}", path.display())));
    MetricsRegistry::from_json(&text)
        .unwrap_or_else(|e| data_error(&format!("{}: {e}", path.display())))
}

/// One histogram, bucket by bucket: `[.. 100] 5` is "5 samples at most 100",
/// the final `(100 ..] 2` is the overflow bucket.
fn print_histogram(out: &mut String, name: &str, h: &Histogram, indent: &str) {
    let _ = writeln!(
        out,
        "{indent}{name}: {} sample(s), mean {:.1}",
        h.total(),
        h.mean()
    );
    let bounds = h.bounds();
    for (i, count) in h.counts().iter().enumerate() {
        if *count == 0 {
            continue;
        }
        if i < bounds.len() {
            let _ = writeln!(out, "{indent}  [.. {}] {count}", bounds[i]);
        } else {
            let _ = writeln!(out, "{indent}  ({} ..] {count}", bounds[bounds.len() - 1]);
        }
    }
}

fn summarize(path: &Path) -> String {
    let reg = load(path);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "metrics {}: {} counter(s), {} gauge(s), {} histogram(s)",
        path.display(),
        reg.counters().count(),
        reg.gauges().count(),
        reg.histograms().count()
    );
    for (name, v) in reg.counters() {
        let _ = writeln!(out, "  {name} = {v}");
    }
    for (name, v) in reg.gauges() {
        let _ = writeln!(out, "  {name} = {v:.6}");
    }
    for (name, h) in reg.histograms() {
        print_histogram(&mut out, name, h, "  ");
    }
    out
}

fn diff(base_path: &Path, cur_path: &Path) -> String {
    let base = load(base_path);
    let cur = load(cur_path);
    let delta = cur.diff(&base);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "diff {} -> {}:",
        base_path.display(),
        cur_path.display()
    );
    let mut changes = 0usize;
    for (name, v) in delta.counters() {
        if v != 0 {
            let _ = writeln!(out, "  {name} +{v}");
            changes += 1;
        }
    }
    for (name, v) in delta.gauges() {
        if v != 0.0 {
            let _ = writeln!(out, "  {name} {v:+.6}");
            changes += 1;
        }
    }
    for (name, h) in delta.histograms() {
        if h.total() != 0 {
            print_histogram(&mut out, name, h, "  +");
            changes += 1;
        }
    }
    if changes == 0 {
        let _ = writeln!(out, "  (no changes)");
    }
    out
}

/// Writes the (bounded-size) report in one shot.  A closed pipe — `sdv-obs
/// summarize big.json | head` — is the reader saying "enough", not a failure,
/// so `BrokenPipe` exits 0 instead of panicking mid-`println!`.
fn emit(text: &str) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_all(text.as_bytes()) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        CLI.io_error(&format!("cannot write to stdout: {e}"));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("summarize", [file])) => emit(&summarize(Path::new(file))),
        Some(("diff", [base, cur])) => emit(&diff(Path::new(base), Path::new(cur))),
        Some((other, _)) => CLI.usage_error(&format!("unknown or malformed subcommand `{other}`")),
        None => CLI.usage_error("a subcommand is required"),
    }
}
