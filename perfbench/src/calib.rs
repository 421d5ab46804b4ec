//! Host-speed calibration loop.
//!
//! On a shared host the simulator's speed swings by 2x or more over minutes
//! as other tenants load the machine.  This loop does a fixed amount of
//! pipeline-model-like work (random reads and writes over a table larger
//! than the L2 cache, data-dependent branches trained into a 2-bit
//! predictor table, hash-map inserts and removes, a ring buffer), so it
//! slows down with the host much as the simulator does while no change to
//! the simulator can make it faster.  Timed cell runs are divided by its
//! fastest time in the same run.

use std::collections::HashMap;
use std::time::{Duration, Instant};

const TABLE_WORDS: usize = 1 << 20;
const PREDICTOR_ENTRIES: usize = 1 << 16;
const STEPS: u64 = 50_000;

pub struct Calibration {
    table: Vec<u64>,
    predictor: Vec<u8>,
    map: HashMap<u64, u64>,
    ring: [u64; 256],
    rng: u64,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            table: vec![1; TABLE_WORDS],
            predictor: vec![0; PREDICTOR_ENTRIES],
            map: HashMap::new(),
            ring: [0; 256],
            rng: 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Bytes of the two tables, which stay resident for the whole run.
    pub fn table_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u64>() + self.predictor.len()
    }

    /// Runs the loop once and returns its host time.
    pub fn run(&mut self) -> Duration {
        let start = Instant::now();
        let (mut x, mut acc) = (self.rng, 0u64);
        for i in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = (x as usize) & (TABLE_WORDS - 1);
            let value = self.table[addr];
            let slot = ((x >> 24) as usize ^ i as usize) & (PREDICTOR_ENTRIES - 1);
            let counter = &mut self.predictor[slot];
            if (*counter > 1) == (value & 1 == 1) {
                acc = acc.wrapping_add(value);
                *counter = (*counter + 1).min(3);
            } else {
                acc ^= value;
                *counter = counter.saturating_sub(1);
            }
            self.table[addr.wrapping_mul(7).wrapping_add(13) & (TABLE_WORDS - 1)] = acc;
            if i % 4 == 0 {
                let key = x & 0x3fff;
                if x & 0x10 == 0 {
                    self.map.insert(key, acc);
                } else {
                    self.map.remove(&key);
                }
            }
            self.ring[(i % 256) as usize] = acc;
        }
        self.rng = x ^ acc;
        start.elapsed()
    }
}
