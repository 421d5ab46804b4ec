//! Set-associative cache state (tags only — the simulator is timing-directed,
//! data values live in the functional emulator).
//!
//! Two constructors drive the same tag array:
//!
//! * [`Cache::new`] is the production path.  It keeps a per-set MRU **way
//!   predictor** — the predicted way is checked first, so the steady-state hit
//!   touches one tag instead of scanning the set — and compact per-set **age
//!   ranks** (a `0..ways` recency permutation per set) in place of the global
//!   `stamp`/`last_used` counters, so victim selection on a miss is a small
//!   `u8` max-scan instead of a full-set `min_by_key` over 64-bit stamps.
//! * [`Cache::reference`] is the original global-timestamp LRU scan,
//!   retained as a reference oracle: both produce identical
//!   hit/miss/writeback/eviction sequences and [`CacheStats`] on any access
//!   stream (pinned by a property test in `tests/cache_properties.rs`).

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity.
    pub ways: usize,
}

impl CacheConfig {
    /// 64 KB, 2-way, 32-byte lines: the paper's L1 data cache.
    #[must_use]
    pub fn l1d_table1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 32,
            ways: 2,
        }
    }

    /// 64 KB, 2-way, 64-byte lines: the paper's L1 instruction cache.
    #[must_use]
    pub fn l1i_table1() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 2,
        }
    }

    /// 256 KB, 4-way, 32-byte lines: the paper's unified L2.
    #[must_use]
    pub fn l2_table1() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            line_bytes: 32,
            ways: 4,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sized, or not divisible into sets).
    #[must_use]
    pub fn sets(&self) -> usize {
        assert!(self.size_bytes > 0 && self.line_bytes > 0 && self.ways > 0);
        let sets = self.size_bytes / (self.line_bytes * self.ways);
        assert!(
            sets > 0,
            "cache too small for its line size and associativity"
        );
        assert!(
            sets.is_power_of_two(),
            "number of sets must be a power of two"
        );
        sets
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses.
    pub accesses: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss rate over all accesses (0 if the cache was never accessed).
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Way-predictor accuracy counters (only advanced by [`Cache::new`]'s
/// production path).
///
/// Cache misses are not counted in either bucket: there is no way to predict
/// for a line that is absent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WayPredictStats {
    /// Hits served by the predicted way (single tag compare).
    pub predicted_hits: u64,
    /// Hits found in a different way than predicted (fell back to the scan).
    pub scan_hits: u64,
}

impl WayPredictStats {
    /// Total hits the predictor was consulted for.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.predicted_hits + self.scan_hits
    }

    /// Fraction of hits served by the predicted way (0 if there were none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.predicted_hits as f64 / self.total() as f64
        }
    }
}

/// The outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the access hit.
    pub hit: bool,
    /// Address of a dirty line that had to be written back, if any.
    pub writeback: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Global LRU stamp ([`Cache::reference`] only).
    last_used: u64,
    /// Per-set recency rank, 0 = MRU ([`Cache::new`] only).  The
    /// valid lines of a set always hold a permutation of `0..valid_count`.
    age: u8,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// ```
/// use sdv_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 1024, line_bytes: 32, ways: 2 });
/// assert!(!c.access(0x1000, false).hit);
/// assert!(c.access(0x1000, false).hit);
/// assert!(c.access(0x1008, false).hit, "same line");
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    sets: usize,
    stamp: u64,
    stats: CacheStats,
    /// Built by [`Self::reference`]: global-stamp LRU scan, no way predictor.
    reference: bool,
    /// Per-set predicted (MRU) way.
    pred: Vec<u8>,
    way_stats: WayPredictStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache on the way-predicted production
    /// path.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    dirty: false,
                    last_used: 0,
                    age: 0,
                };
                sets * cfg.ways
            ],
            sets,
            stamp: 0,
            stats: CacheStats::default(),
            reference: false,
            pred: vec![0; sets],
            way_stats: WayPredictStats::default(),
        }
    }

    /// Creates an empty reference oracle: the full-set scan with global LRU
    /// stamps.  It reports the same outcomes and [`CacheStats`] as
    /// [`Self::new`] on every access stream; the property tests pin the two
    /// against each other.
    #[must_use]
    pub fn reference(cfg: CacheConfig) -> Self {
        Cache {
            reference: true,
            ..Self::new(cfg)
        }
    }

    /// The geometry of this cache.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Way-predictor accuracy counters (all-zero under [`Self::reference`]).
    #[must_use]
    pub fn way_predict_stats(&self) -> WayPredictStats {
        self.way_stats
    }

    /// The line-aligned address containing `addr`.
    #[must_use]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_bytes as u64 - 1)
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.line_bytes as u64) as usize) & (self.sets - 1)
    }

    fn tag_of(&self, addr: u64) -> u64 {
        addr / (self.cfg.line_bytes as u64 * self.sets as u64)
    }

    /// Checks for a hit without changing any state (no LRU update, no fill).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.lines[set * self.cfg.ways..(set + 1) * self.cfg.ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Performs one access: on a miss the line is allocated (write-allocate),
    /// possibly evicting a victim whose writeback address is reported.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        if self.try_hit(addr, is_write) {
            AccessOutcome {
                hit: true,
                writeback: None,
            }
        } else {
            self.allocate_miss(addr, is_write)
        }
    }

    /// The hit half of an access: on a hit, counts it, updates the replacement
    /// state and the dirty bit, and returns `true`; on a miss nothing is
    /// counted and no state changes — the caller decides whether to follow up
    /// with [`Self::allocate_miss`] (the hierarchy skips it when no MSHR is
    /// free).
    pub fn try_hit(&mut self, addr: u64, is_write: bool) -> bool {
        if self.reference {
            self.try_hit_naive(addr, is_write)
        } else {
            self.try_hit_fast(addr, is_write)
        }
    }

    /// The miss half of an access: counts the miss, selects a victim (first
    /// invalid way, else LRU) and fills the line.  Must only be called after
    /// [`Self::try_hit`] returned `false` for the same address.
    pub fn allocate_miss(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.stats.accesses += 1;
        self.stats.misses += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.cfg.ways;
        let base = set * ways;

        // Victim: the first invalid way, else the LRU way.
        let victim_idx = if self.reference {
            let slice = &self.lines[base..base + ways];
            slice
                .iter()
                .enumerate()
                .find(|(_, l)| !l.valid)
                .map(|(i, _)| i)
                .unwrap_or_else(|| {
                    slice
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, l)| l.last_used)
                        .map(|(i, _)| i)
                        .expect("ways > 0")
                })
        } else {
            let mut victim = 0;
            let mut victim_age = 0u8;
            for (i, line) in self.lines[base..base + ways].iter().enumerate() {
                if !line.valid {
                    victim = i;
                    break;
                }
                if line.age >= victim_age {
                    victim = i;
                    victim_age = line.age;
                }
            }
            victim
        };

        let mut writeback = None;
        {
            let victim = &self.lines[base + victim_idx];
            if victim.valid && victim.dirty {
                self.stats.writebacks += 1;
                // Reconstruct the victim's line address from its tag and set.
                let line_bytes = self.cfg.line_bytes as u64;
                writeback = Some((victim.tag * self.sets as u64 + set as u64) * line_bytes);
            }
        }
        if !self.reference {
            // The filled line becomes MRU: every other valid line ages.
            for line in &mut self.lines[base..base + ways] {
                if line.valid {
                    line.age += 1;
                }
            }
            self.pred[set] = victim_idx as u8;
        }
        // (The reference fills at the stamp the preceding `try_hit` bumped to,
        // exactly like the pre-split single `access`.)
        self.lines[base + victim_idx] = Line {
            tag,
            valid: true,
            dirty: is_write,
            last_used: self.stamp,
            age: 0,
        };
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Counts one access as a hit without touching the tag array.
    ///
    /// Used by the instruction path's last-line buffer: when the previous
    /// access resolved the same line, that line is present and already MRU, so
    /// re-walking the set (and the way predictor) is pure overhead — only the
    /// counters need to advance to stay bit-identical with a full lookup.
    pub fn count_repeat_hit(&mut self) {
        self.stats.accesses += 1;
        self.stats.hits += 1;
    }

    fn try_hit_fast(&mut self, addr: u64, is_write: bool) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.cfg.ways;
        let base = set * ways;

        // Predicted way first: the steady state is one tag compare.
        let pred = self.pred[set] as usize;
        let hit_way = {
            let line = &self.lines[base + pred];
            if line.valid && line.tag == tag {
                self.way_stats.predicted_hits += 1;
                Some(pred)
            } else {
                let mut found = None;
                for (i, line) in self.lines[base..base + ways].iter().enumerate() {
                    if i != pred && line.valid && line.tag == tag {
                        found = Some(i);
                        break;
                    }
                }
                if let Some(way) = found {
                    self.way_stats.scan_hits += 1;
                    self.pred[set] = way as u8;
                }
                found
            }
        };
        let Some(way) = hit_way else {
            return false;
        };
        self.stats.accesses += 1;
        self.stats.hits += 1;
        // Promote to MRU: lines more recent than the hit line age by one.
        let old_age = self.lines[base + way].age;
        if old_age != 0 {
            for line in &mut self.lines[base..base + ways] {
                if line.valid && line.age < old_age {
                    line.age += 1;
                }
            }
            self.lines[base + way].age = 0;
        }
        self.lines[base + way].dirty |= is_write;
        true
    }

    fn try_hit_naive(&mut self, addr: u64, is_write: bool) -> bool {
        // The stamp advances once per logical access; a follow-up
        // `allocate_miss` fills at this already-bumped value, exactly like the
        // pre-split single `access` did.
        self.stamp += 1;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let ways = self.cfg.ways;
        let base = set * ways;
        for line in &mut self.lines[base..base + ways] {
            if line.valid && line.tag == tag {
                line.last_used = self.stamp;
                line.dirty |= is_write;
                self.stats.accesses += 1;
                self.stats.hits += 1;
                return true;
            }
        }
        false
    }

    /// Invalidates every line (used on context-switch style resets in tests).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
            line.dirty = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            ways: 2,
        })
    }

    #[test]
    fn table1_geometries_are_valid() {
        assert_eq!(CacheConfig::l1d_table1().sets(), 1024);
        assert_eq!(CacheConfig::l1i_table1().sets(), 512);
        assert_eq!(CacheConfig::l2_table1().sets(), 2048);
    }

    #[test]
    fn cold_miss_then_hit_within_line() {
        let mut c = small();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x11f, false).hit, "same 32-byte line");
        assert!(!c.access(0x120, false).hit, "next line misses");
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_replacement_within_set() {
        let mut c = small(); // 4 sets, 2 ways

        // Three distinct lines mapping to the same set (stride = sets*line = 128).
        c.access(0x000, false);
        c.access(0x080, false);
        c.access(0x000, false); // touch so 0x080 becomes LRU
        c.access(0x100, false); // evicts 0x080
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn dirty_eviction_reports_writeback_address() {
        let mut c = small();
        c.access(0x000, true); // dirty
        c.access(0x080, false);
        let out = c.access(0x100, false); // evicts one of them (0x000 is LRU)
        assert_eq!(out.writeback, Some(0x000));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x080, false);
        let out = c.access(0x100, false);
        assert!(!out.hit);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x000, true); // hit, now dirty
        c.access(0x080, false);
        let out = c.access(0x100, false);
        assert_eq!(out.writeback, Some(0x000));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small();
        c.access(0x000, false);
        c.access(0x080, false);
        // Probing 0x000 must not make it MRU.
        assert!(c.probe(0x000));
        c.access(0x100, false); // should evict 0x000 (the true LRU)
        assert!(!c.probe(0x000));
        assert!(c.probe(0x080));
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = small();
        c.access(0x0, true);
        c.flush();
        assert!(!c.probe(0x0));
        assert!(!c.access(0x0, false).hit);
        assert_eq!(
            c.access(0x80, false).writeback,
            None,
            "flushed lines are not written back"
        );
    }

    #[test]
    fn line_addr_masks_low_bits() {
        let c = small();
        assert_eq!(c.line_addr(0x10f), 0x100);
        assert_eq!(c.line_addr(0x100), 0x100);
    }

    #[test]
    fn miss_rate() {
        let mut c = small();
        c.access(0x0, false);
        c.access(0x0, false);
        assert!((c.stats().miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    /// Every unit test above, replayed against the reference model: the two
    /// implementations must agree access by access.
    #[test]
    fn naive_scan_matches_fast_path_on_the_unit_streams() {
        let cfg = CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            ways: 2,
        };
        let stream: &[(u64, bool)] = &[
            (0x000, true),
            (0x080, false),
            (0x000, false),
            (0x100, false),
            (0x080, true),
            (0x180, false),
            (0x000, false),
            (0x11f, false),
            (0x120, false),
        ];
        let mut fast = Cache::new(cfg);
        let mut naive = Cache::reference(cfg);
        for &(addr, is_write) in stream {
            assert_eq!(
                fast.access(addr, is_write),
                naive.access(addr, is_write),
                "outcome diverged at {addr:#x}"
            );
        }
        assert_eq!(fast.stats(), naive.stats());
    }

    #[test]
    fn way_predictor_counters_on_a_known_stream() {
        // 4 sets × 2 ways, 32-byte lines.  Set 0 holds lines 0x000/0x080.
        let mut c = small();
        c.access(0x000, false); // miss; fills way 0, predictor -> way 0
        c.access(0x008, false); // predicted hit (same line, way 0)
        c.access(0x010, false); // predicted hit
        c.access(0x080, false); // miss; fills way 1, predictor -> way 1
        c.access(0x088, false); // predicted hit (way 1)
        c.access(0x000, false); // hit in way 0, predictor said way 1: scan hit
        c.access(0x000, false); // predicted hit again (predictor retrained)
        let wp = c.way_predict_stats();
        assert_eq!(wp.predicted_hits, 4);
        assert_eq!(wp.scan_hits, 1);
        assert_eq!(wp.total(), 5);
        assert!((wp.hit_rate() - 0.8).abs() < 1e-12);
        // The cache-level counters are unaffected by prediction accuracy.
        assert_eq!(c.stats().accesses, 7);
        assert_eq!(c.stats().hits, 5);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn naive_model_never_consults_the_predictor() {
        let cfg = CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            ways: 2,
        };
        let mut c = Cache::reference(cfg);
        c.access(0x0, false);
        c.access(0x0, false);
        assert_eq!(c.way_predict_stats(), WayPredictStats::default());
        assert_eq!(c.way_predict_stats().hit_rate(), 0.0);
    }

    #[test]
    fn count_repeat_hit_matches_a_real_repeat_access() {
        let mut real = small();
        let mut short = small();
        real.access(0x40, false);
        short.access(0x40, false);
        let out = real.access(0x48, false);
        assert!(out.hit);
        short.count_repeat_hit();
        assert_eq!(real.stats(), short.stats());
        // Replacement state also agrees: both evict the same victim next.
        real.access(0x0c0, false);
        real.access(0x140, false);
        short.access(0x0c0, false);
        short.access(0x140, false);
        assert_eq!(real.probe(0x40), short.probe(0x40));
        assert_eq!(real.probe(0x0c0), short.probe(0x0c0));
    }
}
