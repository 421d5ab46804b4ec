//! Shared plumbing for the command-line tools.
//!
//! The `repro`, `sdv-store`, `sdv-analyze` and `sdv-obs` binaries share one
//! error path through [`Cli`]: operator errors exit 2 with the usage banner,
//! runtime I/O failures exit 3 with a one-line message.  The crate's two
//! Criterion micro-benches (`memhot`, `pipehot`) time single hot paths; the
//! simulator as a whole is timed by the repository benchmark (`perfbench/`,
//! see `BENCHMARK.json`).

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

    /// Reports a runtime failure on a well-formed command line (a file that
    /// cannot be read or written): the message alone on stderr, then exit
    /// code 3, so callers can tell it from operator error.
    pub fn io_error(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.name);
        std::process::exit(3)
    }
}
