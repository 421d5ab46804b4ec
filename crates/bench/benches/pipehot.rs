//! Criterion micro-bench for the production pipeline's busy-cycle loops
//! (group dispatch and run-retire commit) on the two mixes they target.
//!
//! * `dispatch_heavy` — a vectorizing single-port wide config on `swim`:
//!   strided floating-point loads keep the decoder emitting wide DV fetch
//!   groups, so the batched VRMT pass and bulk wakeup-scoreboard setup
//!   dominate.
//! * `commit_heavy` — a four-way scalar config on `m88ksim`: high scalar ILP
//!   with few stores produces long ready runs at the ROB head, so the
//!   run-retire drain (one stats flush and one head advance per run)
//!   dominates.
//!
//! `cargo bench -- --test` runs each target once as a smoke test.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sdv_sim::{PortKind, Processor, ProcessorConfig, Workload};

const MAX_INSTS: u64 = 60_000;

/// Runs `workload` under `cfg` and returns the cycle count (consumed by
/// `black_box` so the simulation cannot be elided).
fn run_cycles(workload: Workload, cfg: &ProcessorConfig) -> u64 {
    let program = workload.build(2);
    Processor::new(cfg, &program)
        .run(black_box(MAX_INSTS))
        .cycles
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipehot");
    let dispatch_cfg = ProcessorConfig::four_way(1, PortKind::Wide).with_vectorization(true);
    group.bench_function("dispatch_heavy", |b| {
        b.iter(|| run_cycles(Workload::Swim, &dispatch_cfg));
    });
    let commit_cfg = ProcessorConfig::four_way(4, PortKind::Scalar);
    group.bench_function("commit_heavy", |b| {
        b.iter(|| run_cycles(Workload::M88ksim, &commit_cfg));
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
);
criterion_main!(benches);
