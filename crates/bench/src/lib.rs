//! Shared plumbing for the benchmark harness.
//!
//! The Criterion benches (one per figure of the paper) and the `repro` binary
//! both go through this crate: the benches measure how long regenerating a
//! figure takes on a reduced workload set, while `repro` prints the actual
//! rows/series so they can be compared against the paper (see
//! `EXPERIMENTS.md`).

use sdv_sim::{Experiment, RunConfig, Workload};

/// The workload subset used by the Criterion benches.
///
/// Using a representative subset (two integer benchmarks, one FP benchmark)
/// keeps `cargo bench` fast while still exercising every code path; the
/// `repro` binary always uses the full suite.
#[must_use]
pub fn bench_workloads() -> Vec<Workload> {
    vec![Workload::Compress, Workload::Vortex, Workload::Swim]
}

/// The run budget used by the Criterion benches.
#[must_use]
pub fn bench_run_config() -> RunConfig {
    RunConfig {
        scale: 1,
        max_insts: 15_000,
    }
}

/// A fresh serial experiment over the bench workloads and budget.
///
/// Benches create one per measured iteration: the engine memoizes cells for
/// its whole lifetime, so reusing an experiment across iterations would time
/// cache hits instead of simulations.
#[must_use]
pub fn bench_experiment() -> Experiment {
    Experiment::new(bench_run_config()).workloads(bench_workloads())
}

/// The run budget used by the `repro` binary (unless overridden on the
/// command line).
#[must_use]
pub fn repro_run_config() -> RunConfig {
    RunConfig::standard()
}

/// A command-line tool's name and usage banner, shared by the binaries'
/// operator-error path.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The binary name, prefixed to every message.
    pub name: &'static str,
    /// The usage banner printed after an operator error.
    pub usage: &'static str,
}

impl Cli {
    /// Reports an operator error (bad or missing arguments): the message and
    /// the usage banner on stderr, then exit code 2.
    pub fn usage_error(&self, message: &str) -> ! {
        eprintln!("{}: {message}\n{}", self.name, self.usage);
        std::process::exit(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_setup_is_small_but_mixed() {
        let ws = bench_workloads();
        assert!(ws.len() >= 3);
        assert!(ws.iter().any(|w| w.is_fp()));
        assert!(ws.iter().any(|w| !w.is_fp()));
        assert!(bench_run_config().max_insts < repro_run_config().max_insts);
        let exp = bench_experiment();
        assert_eq!(exp.workload_list(), bench_workloads());
        assert_eq!(exp.engine().run_config(), &bench_run_config());
    }
}
