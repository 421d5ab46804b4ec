//! Layer replays: one kernel's retired stream fed through a single layer in
//! isolation, to time that layer per operation.
//!
//! Each replay drives a fresh instance of the layer with the operations the
//! full pipeline would hand it on the correct path.  The figures are lower
//! bounds on the layer's cost inside `Processor::run`: in isolation the
//! layer's tables stay hot in the host caches, while the full pipeline
//! interleaves every layer and evicts them.

use crate::trace::Tracer;
use sdv::core::TableOfLoads;
use sdv::emu::Emulator;
use sdv::isa::{OpClass, Opcode, Program};
use sdv::mem::DataMemory;
use sdv::predictor::BranchPredictor;
use sdv::uarch::UarchConfig;
use std::hint::black_box;
use std::time::Duration;

/// Host time and operation count of one replayed layer.
#[derive(Clone, Copy, Default)]
pub struct LayerTime {
    pub time: Duration,
    pub ops: u64,
}

impl LayerTime {
    fn add(&mut self, time: Duration, ops: u64) {
        self.time += time;
        self.ops += ops;
    }
}

/// The four replayed layers, summed over a workload's kernels.
#[derive(Clone, Copy, Default)]
pub struct Replays {
    pub emu: LayerTime,
    pub mem: LayerTime,
    pub predictor: LayerTime,
    pub tl: LayerTime,
}

/// The parts of a retired stream the replays consume, in program order.
#[derive(Default)]
struct Stream {
    /// `(sequence number, address, is store)` of every load and store.
    mem: Vec<(u64, u64, bool)>,
    /// `(pc, address)` of every load.
    loads: Vec<(u64, u64)>,
    /// `(pc, opcode, taken, next pc)` of every control transfer.
    control: Vec<(u64, Opcode, bool, u64)>,
}

/// Replays `program`'s first `budget` retired instructions through the
/// emulator, the data memory, the branch predictor and the Table of Loads of
/// `cfg`, adding each layer's time to `out`.
pub fn replay_kernel(
    tracer: &mut Tracer,
    cell: u64,
    program: &Program,
    cfg: &UarchConfig,
    budget: u64,
    out: &mut Replays,
) {
    // The emulator alone, with a sink that keeps the records live.
    let (retired, t) = tracer.time("Emulator::run_with", cell, || {
        let mut emu = Emulator::new(program);
        let mut sink = 0u64;
        let n = emu.run_with(budget, |r| sink ^= r.pc ^ r.dst_value);
        black_box(sink);
        n
    });
    out.emu.add(t, retired);

    // Collecting the stream is not timed as a layer.
    let mut stream = Stream::default();
    Emulator::new(program).run_with(budget, |r| {
        if let Some(m) = r.mem {
            stream.mem.push((r.seq, m.addr, m.is_store));
            if !m.is_store {
                stream.loads.push((r.pc, m.addr));
            }
        }
        if r.inst.is_control() {
            stream.control.push((r.pc, r.inst.op, r.taken, r.next_pc));
        }
    });

    let ((), t) = tracer.time("DataMemory::access", cell, || {
        let mut dmem = DataMemory::new(&cfg.memory);
        let mut now = 0;
        for &(seq, addr, is_store) in &stream.mem {
            // One instruction per cycle; a full MSHR file stalls the clock
            // until a miss retires, as the pipeline would retry.
            now = now.max(seq);
            while black_box(dmem.access(addr, is_store, now)).is_none() {
                now += 1;
            }
        }
    });
    out.mem.add(t, stream.mem.len() as u64);

    let ((), t) = tracer.time("BranchPredictor", cell, || {
        let mut bp = BranchPredictor::new(&cfg.predictor);
        for &(pc, op, taken, next_pc) in &stream.control {
            // The same predict/update sequence as the pipeline's fetch stage.
            let prediction = match op {
                Opcode::Jr => bp.predict_return(pc),
                op if op.class() == OpClass::Jump => bp.predict_jump(pc),
                _ => bp.predict_branch(pc),
            };
            let correct =
                prediction.taken == taken && (!taken || prediction.target == Some(next_pc));
            bp.record_outcome(correct);
            if op.class() == OpClass::Branch {
                bp.update_branch(pc, taken, next_pc);
            } else {
                bp.update_jump(pc, next_pc);
            }
            if matches!(op, Opcode::Jal | Opcode::Jalr) {
                bp.push_return_address(pc + 4);
            }
        }
        black_box(bp.mispredictions());
    });
    out.predictor.add(t, stream.control.len() as u64);

    let ((), t) = tracer.time("TableOfLoads::observe", cell, || {
        let dv = cfg.vectorization.unwrap_or_default();
        let mut tl = TableOfLoads::new(
            dv.tl_sets,
            dv.tl_ways,
            dv.confidence_threshold,
            dv.unbounded,
        );
        for &(pc, addr) in &stream.loads {
            black_box(tl.observe(pc, addr));
        }
    });
    out.tl.add(t, stream.loads.len() as u64);
}
