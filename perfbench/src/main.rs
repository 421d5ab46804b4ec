//! The repository benchmark: host throughput of the SDV simulator on three
//! workloads, with per-layer attribution from a separate traced run.
//!
//! ```text
//! sdv-perfbench --workload <dv_strided|dv_irregular|scalar_base>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every cell is one `(config, kernel)` pair on the 4-way Table-1 machine at
//! the standard budget, built, pre-flighted, constructed and run on one
//! thread through the public API with no result store, so every modelled
//! cache starts empty in every cell.  One untimed warm-up pass comes first;
//! then passes over the workload's cells repeat until `--seconds` have been
//! measured.  Each cell is reported at its fastest run, scaled to the speed
//! of a reference host by a calibration loop run between cells.  The seed
//! only permutes the order in which cells run within each pass: kernel
//! contents are fixed by per-kernel seeds in `sdv-workloads`.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! passes (ledger on, `ObsLevel::Metrics`, layer replays, spans written as
//! Chrome trace JSON under `.bench_out/`) and prints the per-layer metrics.
//! The last line of standard output is always one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod replay;
mod trace;

use calib::Calibration;
use replay::{replay_kernel, Replays};
use sdv::emu::Emulator;
use sdv::isa::{ArchReg, NUM_INT_REGS};
use sdv::obs::MetricsRegistry;
use sdv::sim::{
    preflight_program, MachineWidth, Obs, ObsLevel, Processor, ProcessorConfig, RunConfig,
    RunEngine, RunStats, Variant, Workload,
};
use sdv::uarch::CycleBucket;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;

const USAGE: &str = "usage: sdv-perfbench --workload <dv_strided|dv_irregular|scalar_base> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Where the traced run writes its Chrome trace, relative to the directory
/// the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

/// The calibration loop's fastest time, in ms, on the host the benchmark was
/// defined on (a 2-vCPU Xeon VM).  Normalised times are host times scaled by
/// this over the loop's fastest time in the same run.
const CALIBRATION_REF_MS: f64 = 2.0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Bench {
    DvStrided,
    DvIrregular,
    ScalarBase,
}

impl Bench {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "dv_strided" => Some(Bench::DvStrided),
            "dv_irregular" => Some(Bench::DvIrregular),
            "scalar_base" => Some(Bench::ScalarBase),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Bench::DvStrided => "dv_strided",
            Bench::DvIrregular => "dv_irregular",
            Bench::ScalarBase => "scalar_base",
        }
    }

    /// The workload's cells in canonical order (the digest's order).
    fn cells(self) -> Vec<Cell> {
        use Workload::*;
        let dv = Variant::Vectorized.config(MachineWidth::FourWay, 1);
        let grid: Vec<(ProcessorConfig, Vec<Workload>)> = match self {
            // Strided loads: the SDV engine, validations and the vector
            // datapath do most of the work.
            Bench::DvStrided => vec![(
                dv,
                vec![
                    M88ksim, Compress, Ijpeg, Vortex, StrideMix, Swim, Applu, Turb3d, Fpppp,
                    MatBlock,
                ],
            )],
            // Pointer chasing, hashing and branchy code: every load probes
            // the TL and VRMT, few instances pay off.
            Bench::DvIrregular => vec![(dv, vec![Go, Gcc, Li, Perl, ListChase, Histo])],
            // DV off: one wide port against four scalar ports.
            Bench::ScalarBase => vec![
                (
                    Variant::WideBus.config(MachineWidth::FourWay, 1),
                    Workload::extended().to_vec(),
                ),
                (
                    Variant::ScalarBus.config(MachineWidth::FourWay, 4),
                    Workload::extended().to_vec(),
                ),
            ],
        };
        grid.into_iter()
            .flat_map(|(cfg, kernels)| {
                kernels.into_iter().map(move |kernel| Cell {
                    label: cfg.label(),
                    cfg: cfg.clone(),
                    kernel,
                })
            })
            .collect()
    }
}

struct Cell {
    cfg: ProcessorConfig,
    label: String,
    kernel: Workload,
}

impl Cell {
    /// The same kernel with dynamic vectorization off (itself when DV is
    /// already off): the baseline of `core.dv_ns_per_inst`.
    fn dv_off(&self) -> Cell {
        let cfg = self.cfg.clone().with_vectorization(false);
        Cell {
            label: cfg.label(),
            cfg,
            kernel: self.kernel,
        }
    }
}

struct Args {
    bench: Bench,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                bench = Some(
                    Bench::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        bench: bench.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a standalone `Emulator` run of a kernel says the pipeline must
/// commit within the instruction budget.
struct Reference {
    /// The kernel halts within the budget.
    halts: bool,
    committed: u64,
    int_regs: Vec<u64>,
}

impl Reference {
    fn of(kernel: Workload, rc: &RunConfig) -> Self {
        let mut emu = Emulator::new(&kernel.build(rc.scale));
        let committed = emu.run_with(rc.max_insts, |_| {});
        Reference {
            halts: emu.halted(),
            committed,
            int_regs: int_regs(&emu),
        }
    }
}

fn int_regs(emu: &Emulator) -> Vec<u64> {
    (0..NUM_INT_REGS as u8)
        .map(|r| emu.int_reg(ArchReg::int(r)))
        .collect()
}

/// The output check of every timed cell.  A kernel that halts within the
/// budget must commit exactly what the standalone emulator retires and end
/// with the same integer registers; a capped kernel must stop within one
/// commit group past the budget.
fn check_output(
    cell: &Cell,
    stats: &RunStats,
    proc: &Processor,
    reference: &Reference,
    budget: u64,
) -> Result<(), String> {
    let name = format!("{}/{}", cell.label, cell.kernel);
    if reference.halts {
        if stats.committed != reference.committed {
            return Err(format!(
                "{name}: committed {} but the emulator halts after {}",
                stats.committed, reference.committed
            ));
        }
        if int_regs(proc.emulator()) != reference.int_regs {
            return Err(format!(
                "{name}: integer registers differ from the emulator's"
            ));
        }
    } else {
        let limit = budget + cell.cfg.commit_width as u64;
        if !(budget..limit).contains(&stats.committed) {
            return Err(format!(
                "{name}: committed {} outside [{budget}, {limit})",
                stats.committed
            ));
        }
    }
    Ok(())
}

/// Runs `f`, turning a panic into an error so one bad cell is counted as
/// failed instead of ending the run.
fn supervised<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Host time of one cell run straight through the public API.
struct DirectRun {
    build: Duration,
    preflight: Duration,
    new: Duration,
    run: Duration,
    stats: RunStats,
}

impl DirectRun {
    fn setup(&self) -> Duration {
        self.build + self.preflight + self.new
    }
}

fn direct_run(
    tr: &mut Tracer,
    id: u64,
    cell: &Cell,
    rc: &RunConfig,
    reference: &Reference,
) -> Result<DirectRun, String> {
    supervised(|| {
        let (program, build) = tr.time("Workload::build", id, || cell.kernel.build(rc.scale));
        let (verdict, preflight) = tr.time("preflight_program", id, || preflight_program(&program));
        verdict.map_err(|e| format!("{}: pre-flight rejected: {e}", cell.kernel))?;
        let (mut proc, new) = tr.time("Processor::new", id, || Processor::new(&cell.cfg, &program));
        let (stats, run) = tr.time("Processor::run", id, || proc.run(rc.max_insts));
        let (check, _) = tr.time("output_check", id, || {
            check_output(cell, &stats, &proc, reference, rc.max_insts)
        });
        check?;
        Ok(DirectRun {
            build,
            preflight,
            new,
            run,
            stats,
        })
    })
}

/// Deterministic counts of a traced cell, summed over a workload's cells.
/// Identical on every pass and every host; compared exactly between commits.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    cycles: u64,
    committed: u64,
    ledger: [u64; 8],
    macro_jumps: u64,
    macro_skipped: u64,
    waiter_pushes: u64,
    vector_line_accesses: u64,
    dv_committed: u64,
    loads_observed: u64,
    vector_instances: u64,
    validations: u64,
    validation_failures: u64,
    no_free_vreg: u64,
    store_conflicts: u64,
    elements_launched: u64,
    elements_used: u64,
    elements_unused: u64,
    l1d_accesses: u64,
    l1d_misses: u64,
    way_predicted_hits: u64,
    way_scan_hits: u64,
    mshr_full_events: u64,
    port_grants: u64,
    port_slots: u64,
    loads_served_by_peer: u64,
    branch_lookups: u64,
    mispredictions: u64,
}

impl Counts {
    fn add_stats(&mut self, s: &RunStats) {
        self.cycles += s.cycles;
        self.committed += s.committed;
        self.vector_line_accesses += s.vector_line_accesses;
        if let Some(dv) = &s.dv {
            self.dv_committed += s.committed;
            self.loads_observed += dv.loads_observed;
            self.vector_instances += dv.vector_instances();
            self.validations += dv.validations();
            self.validation_failures += dv.validation_failures;
            self.no_free_vreg += dv.no_free_vreg;
            self.store_conflicts += dv.store_conflicts;
            self.elements_launched += dv.elements_launched;
        }
        if let Some(usage) = &s.element_usage {
            self.elements_used += usage.computed_used;
            self.elements_unused += usage.computed_not_used;
        }
        self.l1d_accesses += s.l1d.accesses;
        self.l1d_misses += s.l1d.misses;
        self.port_grants += s.ports.grants;
        self.port_slots += s.ports.cycles * s.port_count as u64;
        self.loads_served_by_peer += s.loads_served_by_peer;
        self.branch_lookups += s.branch_lookups;
        self.mispredictions += s.mispredictions;
    }
}

/// The traced run of one cell: ledger on, metrics exported through an
/// `ObsLevel::Metrics` handle.  Returns the stats and the host time of
/// `Processor::run` plus the metrics export.
fn traced_run(
    tr: &mut Tracer,
    id: u64,
    cell: &Cell,
    rc: &RunConfig,
    counts: &mut Counts,
) -> Result<(RunStats, Duration), String> {
    supervised(|| {
        let (program, _) = tr.time("Workload::build", id, || cell.kernel.build(rc.scale));
        let (mut proc, _) = tr.time("Processor::new", id, || Processor::new(&cell.cfg, &program));
        proc.record_cycle_ledger(true);
        let (stats, run) = tr.time("Processor::run", id, || proc.run(rc.max_insts));
        let obs = Obs::new(ObsLevel::Metrics);
        let ((), export) = tr.time("Processor::obs_metrics", id, || {
            obs.with_registry(|r| proc.obs_metrics(r));
        });
        let ledger = proc.take_cycle_ledger();
        if ledger.total() != stats.cycles {
            return Err(format!(
                "{}/{}: ledger buckets sum to {} but {} cycles were simulated",
                cell.label,
                cell.kernel,
                ledger.total(),
                stats.cycles
            ));
        }
        for (slot, bucket) in counts.ledger.iter_mut().zip(CycleBucket::ALL) {
            *slot += ledger.get(bucket);
        }
        let (jumps, skipped) = proc.macro_step_telemetry();
        counts.macro_jumps += jumps;
        counts.macro_skipped += skipped;
        counts.waiter_pushes += proc.waiter_stats().pushes;
        let registry: MetricsRegistry = obs.snapshot();
        let counter = |name: &str| registry.counter(name).unwrap_or(0);
        counts.way_predicted_hits += counter("cache.l1d.way_predict.predicted_hits");
        counts.way_scan_hits += counter("cache.l1d.way_predict.scan_hits");
        counts.mshr_full_events += counter("cache.l1d.mshr.full_events");
        counts.add_stats(&stats);
        Ok((stats, run + export))
    })
}

/// The canonical text of every cell's result, in canonical cell order, as
/// an FNV-1a digest: equal digests mean every simulated statistic is
/// identical.
fn digest<T: std::fmt::Debug>(cells: &[Cell], results: &[Option<T>]) -> String {
    let mut text = String::new();
    for (cell, result) in cells.iter().zip(results) {
        writeln!(text, "{}|{}|{result:?}", cell.label, cell.kernel)
            .expect("writing to a String cannot fail");
    }
    fnv(&text)
}

fn fnv(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// SplitMix64: the seeded cell order of each pass.
fn permutation(n: usize, seed: u64, pass: u64) -> Vec<usize> {
    let mut state = seed ^ pass.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// One pass of direct runs over the cells, in the pass's seeded order.
/// `runs` is in canonical cell order; `None` marks a cell that failed or
/// that the pass did not reach before its deadline.
struct TimedPass {
    runs: Vec<Option<DirectRun>>,
    /// One calibration-loop time per attempted cell, run just before it.
    calibration_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

struct Ctx {
    cells: Vec<Cell>,
    refs: HashMap<Workload, Reference>,
    rc: RunConfig,
    seed: u64,
    tracer: Tracer,
    calibration: Calibration,
    next_id: u64,
}

impl Ctx {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Runs every cell once, or until `deadline` when one is given: a cell
    /// that has not started by then is left out of the pass.
    fn timed_pass(&mut self, pass: u64, deadline: Option<Instant>) -> TimedPass {
        let mut out = TimedPass {
            runs: (0..self.cells.len()).map(|_| None).collect(),
            calibration_ms: Vec::new(),
            attempted: 0,
            failed: 0,
        };
        for i in permutation(self.cells.len(), self.seed, pass) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            let calibration = self.calibration.run();
            out.calibration_ms.push(calibration.as_secs_f64() * 1e3);
            let id = self.id();
            let cell = &self.cells[i];
            out.attempted += 1;
            match direct_run(
                &mut self.tracer,
                id,
                cell,
                &self.rc,
                &self.refs[&cell.kernel],
            ) {
                Ok(d) => out.runs[i] = Some(d),
                Err(e) => {
                    eprintln!("cell failed: {e}");
                    out.failed += 1;
                }
            }
        }
        out
    }

    /// One traced cell: the direct run, the same kernel with DV off, the
    /// ledger-on run and `RunEngine::run_cell`, checked against each other.
    fn traced_cell(&mut self, i: usize, counts: &mut Counts) -> Result<TracedCell, String> {
        let id = self.id();
        let cell = &self.cells[i];
        let reference = &self.refs[&cell.kernel];
        let tr = &mut self.tracer;
        tr.open("cell", id);
        tr.open("direct", id);
        let direct = direct_run(tr, id, cell, &self.rc, reference);
        tr.close();
        tr.open("dv_off", id);
        let dv_off = direct_run(tr, id, &cell.dv_off(), &self.rc, reference);
        tr.close();
        tr.open("traced", id);
        let traced = traced_run(tr, id, cell, &self.rc, counts);
        tr.close();
        let (engine, engine_time) = tr.time("RunEngine::run_cell", id, || {
            supervised(|| {
                let engine = RunEngine::new(self.rc);
                let stats = engine.run_cell(&cell.cfg, cell.kernel);
                match engine.failures().first() {
                    Some(e) => Err(e.to_string()),
                    None => Ok(stats),
                }
            })
        });
        tr.close();

        let (direct, dv_off) = (direct?, dv_off?);
        let (traced, traced_time) = traced?;
        if traced != direct.stats || engine? != direct.stats {
            return Err(format!(
                "{}/{}: traced or engine stats differ from the direct run",
                cell.label, cell.kernel
            ));
        }
        Ok(TracedCell {
            direct,
            dv_off,
            traced_time,
            engine_time,
        })
    }

    fn traced_pass(&mut self, pass: u64) -> TracedPass {
        let mut out = TracedPass {
            stats: vec![None; self.cells.len()],
            ..TracedPass::default()
        };
        for i in permutation(self.cells.len(), self.seed, pass) {
            match self.traced_cell(i, &mut out.counts) {
                Ok(c) => {
                    out.build += c.direct.build;
                    out.preflight += c.direct.preflight;
                    out.new += c.direct.new;
                    out.run += c.direct.run;
                    out.direct_total += c.direct.setup() + c.direct.run;
                    out.dv_off_run += c.dv_off.run;
                    out.dv_off_committed += c.dv_off.stats.committed;
                    out.traced_run += c.traced_time;
                    out.engine += c.engine_time;
                    out.stats[i] = Some(c.direct.stats);
                }
                Err(e) => {
                    eprintln!("cell failed: {e}");
                    out.failed += 1;
                }
            }
        }
        let mut kernels: Vec<(Workload, ProcessorConfig)> = Vec::new();
        for cell in &self.cells {
            if kernels.iter().all(|(k, _)| *k != cell.kernel) {
                kernels.push((cell.kernel, cell.cfg.clone()));
            }
        }
        for (kernel, cfg) in kernels {
            let id = self.id();
            let program = kernel.build(self.rc.scale);
            self.tracer.open("replay", id);
            replay_kernel(
                &mut self.tracer,
                id,
                &program,
                &cfg,
                self.rc.max_insts,
                &mut out.replays,
            );
            self.tracer.close();
        }
        out
    }
}

struct TracedCell {
    direct: DirectRun,
    dv_off: DirectRun,
    traced_time: Duration,
    engine_time: Duration,
}

/// Sums over one traced pass.
#[derive(Default)]
struct TracedPass {
    build: Duration,
    preflight: Duration,
    new: Duration,
    run: Duration,
    direct_total: Duration,
    dv_off_run: Duration,
    dv_off_committed: u64,
    traced_run: Duration,
    engine: Duration,
    replays: Replays,
    counts: Counts,
    stats: Vec<Option<RunStats>>,
    failed: u64,
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values`.
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    quantile(&values.into_iter().collect::<Vec<_>>(), 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process image in MiB (`VmHWM`; unlike
/// `getrusage`, it does not inherit the launcher's peak across `exec`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on Linux");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status reports VmHWM in kB");
    kib / 1024.0
}

struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
        if i > 0 {
            out.push_str(", ");
        }
        write!(
            out,
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

/// Per-cell samples of the timed passes, in canonical cell order, and the
/// calibration-loop times run between them.
struct Samples {
    run_ms: Vec<Vec<f64>>,
    setup_s: Vec<Vec<f64>>,
    calibration_ms: Vec<f64>,
}

impl Samples {
    fn count(&self) -> usize {
        self.run_ms.iter().map(Vec::len).sum()
    }
}

fn end_to_end(
    samples: &Samples,
    warm: &[Option<RunStats>],
    calibration: &Calibration,
    failed: u64,
    attempted: u64,
) -> Vec<Metric> {
    // Each cell at its fastest run, scaled to the reference host speed by
    // the calibration loop's fastest time in the same run.  On a shared host
    // this code runs 2x or more slower in contended spells of seconds to
    // many minutes; a cell's fastest run absorbs spells shorter than a run,
    // and the calibration loop, which slows with the host, part of longer
    // ones.  Set-up is short and allocation-bound and is reported unscaled,
    // at each cell's median.
    let fastest = |v: &[f64]| v.iter().copied().reduce(f64::min);
    let scale = CALIBRATION_REF_MS / fastest(&samples.calibration_ms).unwrap_or(CALIBRATION_REF_MS);
    let (mut insts, mut cell_ms) = (0.0, Vec::new());
    for (runs, stats) in samples.run_ms.iter().zip(warm) {
        if let (Some(ms), Some(stats)) = (fastest(runs), stats) {
            insts += stats.committed as f64;
            cell_ms.push(ms * scale);
        }
    }
    let setup_s: f64 = samples
        .setup_s
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s.iter().copied()))
        .sum();
    let calibration_mb = calibration.table_bytes() as f64 / (1024.0 * 1024.0);
    vec![
        metric(
            "norm_sim_insts_per_s",
            "inst/s",
            ratio(insts, cell_ms.iter().sum::<f64>() / 1e3),
        ),
        metric("norm_cell_ms_p50", "ms", quantile(&cell_ms, 0.5)),
        metric("norm_cell_ms_p90", "ms", quantile(&cell_ms, 0.9)),
        metric("setup_s", "s", setup_s),
        metric("peak_rss_mb", "MiB", peak_rss_mb() - calibration_mb),
        metric(
            "cells_ok_frac",
            "fraction",
            1.0 - ratio(failed as f64, attempted as f64),
        ),
    ]
}

fn per_layer(passes: &[TracedPass], failed: u64, attempted: u64) -> Vec<Metric> {
    let last = passes.last().expect("at least one traced pass");
    let c = &last.counts;
    let med = |f: &dyn Fn(&TracedPass) -> f64| median(passes.iter().map(f));
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let ns_per = |d: Duration, n: u64| ratio(d.as_secs_f64() * 1e9, n as f64);
    let run_ns = |p: &TracedPass| ns_per(p.run, p.counts.committed);
    // A replayed layer's time per simulated instruction, as a share of
    // `Processor::run` time per instruction (both over the same budget).
    let share =
        |p: &TracedPass, t: &replay::LayerTime| ratio(ns_per(t.time, p.replays.emu.ops), run_ns(p));
    let mut m = vec![
        metric("workloads.build_ms", "ms", med(&|p| ms(p.build))),
        metric("analyze.preflight_ms", "ms", med(&|p| ms(p.preflight))),
        metric("uarch.new_ms", "ms", med(&|p| ms(p.new))),
        metric("uarch.run_ns_per_inst", "ns", med(&run_ns)),
        metric(
            "uarch.run_ns_per_cycle",
            "ns",
            med(&|p| ns_per(p.run, p.counts.cycles)),
        ),
        metric("uarch.cycles", "count", c.cycles as f64),
        metric("uarch.committed", "count", c.committed as f64),
        metric(
            "uarch.ipc",
            "inst/cycle",
            ratio(c.committed as f64, c.cycles as f64),
        ),
    ];
    for (bucket, &n) in CycleBucket::ALL.iter().zip(&c.ledger) {
        m.push(metric(
            &format!("uarch.cycles.{}", bucket.name()),
            "count",
            n as f64,
        ));
    }
    m.extend([
        metric(
            "uarch.macro_step.skip_frac",
            "fraction",
            ratio(c.macro_skipped as f64, c.cycles as f64),
        ),
        metric("uarch.macro_step.jumps", "count", c.macro_jumps as f64),
        metric("uarch.waiter.pushes", "count", c.waiter_pushes as f64),
        metric(
            "uarch.vector_dp.line_accesses",
            "count",
            c.vector_line_accesses as f64,
        ),
        metric("core.loads_observed", "count", c.loads_observed as f64),
        metric("core.vector_instances", "count", c.vector_instances as f64),
        metric("core.validations", "count", c.validations as f64),
        metric(
            "core.validation_frac",
            "fraction",
            ratio(c.validations as f64, c.dv_committed as f64),
        ),
        metric(
            "core.validation_failures",
            "count",
            c.validation_failures as f64,
        ),
        metric("core.no_free_vreg", "count", c.no_free_vreg as f64),
        metric("core.store_conflicts", "count", c.store_conflicts as f64),
        metric(
            "core.elements_launched",
            "count",
            c.elements_launched as f64,
        ),
        metric(
            "core.element_use_frac",
            "fraction",
            ratio(
                c.elements_used as f64,
                (c.elements_used + c.elements_unused) as f64,
            ),
        ),
        metric(
            "core.dv_ns_per_inst",
            "ns",
            med(&|p| run_ns(p) - ns_per(p.dv_off_run, p.dv_off_committed)),
        ),
        metric(
            "core.tl_observe_ns",
            "ns",
            med(&|p| ns_per(p.replays.tl.time, p.replays.tl.ops)),
        ),
        metric(
            "core.tl_observe_share",
            "fraction",
            med(&|p| share(p, &p.replays.tl)),
        ),
        metric("mem.l1d.accesses", "count", c.l1d_accesses as f64),
        metric(
            "mem.l1d.miss_rate",
            "fraction",
            ratio(c.l1d_misses as f64, c.l1d_accesses as f64),
        ),
        metric(
            "mem.way_predict.hit_rate",
            "fraction",
            ratio(
                c.way_predicted_hits as f64,
                (c.way_predicted_hits + c.way_scan_hits) as f64,
            ),
        ),
        metric("mem.mshr.full_events", "count", c.mshr_full_events as f64),
        metric(
            "mem.port_occupancy",
            "fraction",
            ratio(c.port_grants as f64, c.port_slots as f64),
        ),
        metric(
            "mem.loads_served_by_peer",
            "count",
            c.loads_served_by_peer as f64,
        ),
        metric(
            "mem.access_ns",
            "ns",
            med(&|p| ns_per(p.replays.mem.time, p.replays.mem.ops)),
        ),
        metric(
            "mem.access_share",
            "fraction",
            med(&|p| share(p, &p.replays.mem)),
        ),
        metric("predictor.lookups", "count", c.branch_lookups as f64),
        metric(
            "predictor.mispredict_rate",
            "fraction",
            ratio(c.mispredictions as f64, c.branch_lookups as f64),
        ),
        metric(
            "predictor.lookup_ns",
            "ns",
            med(&|p| ns_per(p.replays.predictor.time, p.replays.predictor.ops)),
        ),
        metric(
            "predictor.lookup_share",
            "fraction",
            med(&|p| share(p, &p.replays.predictor)),
        ),
        metric(
            "emu.ns_per_inst",
            "ns",
            med(&|p| ns_per(p.replays.emu.time, p.replays.emu.ops)),
        ),
        metric("emu.share", "fraction", med(&|p| share(p, &p.replays.emu))),
        metric(
            "sim.overhead_frac",
            "fraction",
            med(&|p| ratio(p.engine.as_secs_f64(), p.direct_total.as_secs_f64()) - 1.0),
        ),
        metric(
            "obs.overhead_frac",
            "fraction",
            med(&|p| ratio(p.traced_run.as_secs_f64(), p.run.as_secs_f64()) - 1.0),
        ),
        metric(
            "bench.failed_frac",
            "fraction",
            ratio(failed as f64, attempted as f64),
        ),
    ]);
    m
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let rc = RunConfig::standard();
    let cells = args.bench.cells();
    let mut refs = HashMap::new();
    for cell in &cells {
        refs.entry(cell.kernel)
            .or_insert_with(|| Reference::of(cell.kernel, &rc));
    }
    let mut ctx = Ctx {
        cells,
        refs,
        rc,
        seed: args.seed,
        tracer: Tracer::new(false),
        calibration: Calibration::new(),
        next_id: 0,
    };
    let bench = args.bench.name();
    let measure = Duration::from_secs(args.seconds);

    // Warm-up pass: fills host caches and the allocator, and fixes the
    // statistics every later run of a cell must reproduce.
    let warm = ctx.timed_pass(0, None);
    let warm: Vec<Option<RunStats>> = warm
        .runs
        .into_iter()
        .map(|run| run.map(|d| d.stats))
        .collect();
    let stats_digest = digest(&ctx.cells, &warm);
    let mut correct = true;
    let mut failed = warm.iter().filter(|s| s.is_none()).count() as u64;
    let mut attempted = ctx.cells.len() as u64;
    let start = Instant::now();
    let mut pass = 0;

    let metrics = if args.trace {
        ctx.tracer = Tracer::new(true);
        let mut passes: Vec<TracedPass> = Vec::new();
        while passes.is_empty() || start.elapsed() < measure {
            pass += 1;
            let p = ctx.traced_pass(pass);
            correct &= digest(&ctx.cells, &p.stats) == stats_digest;
            if let Some(prev) = passes.last() {
                correct &= prev.counts == p.counts;
            }
            failed += p.failed;
            attempted += ctx.cells.len() as u64;
            passes.push(p);
        }
        let counts_digest = fnv(&format!("{:?}", passes[0].counts));
        let trace = Path::new(OUT_DIR).join(format!("trace-{bench}-seed{}.json", args.seed));
        if let Err(e) = std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&trace, ctx.tracer.chrome_json()))
        {
            eprintln!("warning: could not write {}: {e}", trace.display());
        }
        println!(
            "{bench}: {} traced passes, {} spans in {}, \
             stats_digest={stats_digest} counts_digest={counts_digest}",
            passes.len(),
            ctx.tracer.len(),
            trace.display()
        );
        per_layer(&passes, failed, attempted)
    } else {
        // The first pass runs every cell; later ones stop at the deadline.
        let deadline = start + measure;
        let n = ctx.cells.len();
        let mut samples = Samples {
            run_ms: vec![Vec::new(); n],
            setup_s: vec![Vec::new(); n],
            calibration_ms: Vec::new(),
        };
        while pass == 0 || Instant::now() < deadline {
            pass += 1;
            let p = ctx.timed_pass(pass, (pass > 1).then_some(deadline));
            for (i, run) in p.runs.into_iter().enumerate() {
                if let Some(d) = run {
                    correct &= warm[i].as_ref() == Some(&d.stats);
                    samples.run_ms[i].push(d.run.as_secs_f64() * 1e3);
                    samples.setup_s[i].push(d.setup().as_secs_f64());
                }
            }
            samples.calibration_ms.extend(p.calibration_ms);
            failed += p.failed;
            attempted += p.attempted;
        }
        let calibration_ms = samples
            .calibration_ms
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        println!(
            "{bench}: {pass} timed passes, {} cell samples, calibration loop fastest \
             {calibration_ms:.3} ms, stats_digest={stats_digest}",
            samples.count()
        );
        end_to_end(&samples, &warm, &ctx.calibration, failed, attempted)
    };
    correct &= failed == 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
}
