//! Set-associative LRU cache model.

/// A set-associative cache with LRU replacement, tracking weighted hit and
/// miss counts. Addresses are pre-divided into line ids by the caller.
///
/// # Layout
///
/// All tags live in one flat `num_sets × assoc` array: set `s` owns the
/// `assoc` slots from `s * assoc`, most recently used first, and its first
/// `fill[s]` slots are valid. A hit moves the line to the front; a miss
/// inserts it at the front, evicting the last (least recently used) line
/// when the set is full. Steady-state accesses never allocate.
///
/// The set index is the low `log2(num_sets)` bits of the line id, so a
/// slot stores only the remaining high bits, `line >> log2(num_sets)`, as
/// a `u32`. That covers every line id below `2^(32 + log2(num_sets))`,
/// i.e. byte addresses below `2^(32 + log2(num_sets) + log2(line_bytes))`:
/// at least 128 GiB with 32-byte lines, even for a single-set cache.
/// [`Cache::access_line`] panics on a line id outside that range rather
/// than aliasing it. Fill counts are `u8`, which caps associativity at
/// [`Cache::MAX_ASSOC`].
///
/// # Example
///
/// ```
/// use ugrapher_sim::Cache;
///
/// let mut c = Cache::new(4 * 64, 64, 4); // 4 sets x 4 ways, 64-byte lines
/// assert!(!c.access_line(0, 1.0)); // cold miss
/// assert!(c.access_line(0, 1.0));  // now a hit
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    /// `tags[s * assoc..][..fill[s]]`: the high bits of set `s`'s resident
    /// line ids, most recently used first.
    tags: Vec<u32>,
    /// Valid ways per set; the length is the (power-of-two) set count.
    fill: Vec<u8>,
    assoc: usize,
    set_bits: u32,
    hits: f64,
    misses: f64,
    /// Whether any fill count rose since the last reset (hits only reorder
    /// valid ways), so resetting an untouched cache is free.
    filled: bool,
}

impl Cache {
    /// Largest associativity the `u8` per-set fill counts can hold.
    pub const MAX_ASSOC: usize = u8::MAX as usize;

    /// Creates a cache of `capacity_bytes` with the given line size and
    /// associativity. The set count is rounded down to a power of two (at
    /// least 1) so indexing is a mask; the modeled capacity,
    /// `num_sets() * assoc * line_bytes`, can therefore be smaller than
    /// `capacity_bytes` (DESIGN.md §7 lists the presets' modeled sizes).
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes == 0`, `assoc == 0` or
    /// `assoc > Cache::MAX_ASSOC`.
    pub fn new(capacity_bytes: usize, line_bytes: usize, assoc: usize) -> Self {
        assert!(line_bytes > 0, "line_bytes must be positive");
        assert!(assoc > 0, "assoc must be positive");
        assert!(
            assoc <= Self::MAX_ASSOC,
            "assoc {assoc} exceeds the maximum of {}",
            Self::MAX_ASSOC
        );
        let lines = (capacity_bytes / line_bytes).max(assoc);
        let target = (lines / assoc).max(1);
        // Round down to a power of two so set indexing is a mask.
        let num_sets = if target.is_power_of_two() {
            target
        } else {
            target.next_power_of_two() / 2
        };
        Self {
            tags: vec![0; num_sets * assoc],
            fill: vec![0; num_sets],
            assoc,
            set_bits: num_sets.trailing_zeros(),
            hits: 0.0,
            misses: 0.0,
            filled: false,
        }
    }

    /// Accesses a line id; returns `true` on hit. `weight` scales the
    /// hit/miss counters (used by sampled tracing).
    ///
    /// # Panics
    ///
    /// Panics if `line >> log2(num_sets())` does not fit in a `u32` (see
    /// the type docs for the covered address range).
    pub fn access_line(&mut self, line: u64, weight: f64) -> bool {
        let set = (line as usize) & (self.fill.len() - 1);
        let tag = u32::try_from(line >> self.set_bits).expect("line id beyond the u32 tag range");
        let ways = &mut self.tags[set * self.assoc..(set + 1) * self.assoc];
        let fill = &mut self.fill[set];
        let valid = usize::from(*fill);
        if let Some(pos) = ways[..valid].iter().position(|&t| t == tag) {
            // Move to MRU position.
            shift_in(&mut ways[..=pos], tag);
            self.hits += weight;
            true
        } else {
            // Insert at MRU; when the set is full the LRU way falls off.
            self.filled = true;
            if valid < self.assoc {
                *fill += 1;
            }
            shift_in(&mut ways[..usize::from(*fill)], tag);
            self.misses += weight;
            false
        }
    }

    /// Weighted hit count so far.
    pub fn hits(&self) -> f64 {
        self.hits
    }

    /// Weighted miss count so far.
    pub fn misses(&self) -> f64 {
        self.misses
    }

    /// Hit rate in `[0, 1]`; 0 if no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0.0 {
            0.0
        } else {
            self.hits / total
        }
    }

    /// Number of sets (for diagnostics).
    pub fn num_sets(&self) -> usize {
        self.fill.len()
    }

    /// Clears contents and counters.
    pub fn reset(&mut self) {
        if self.filled {
            self.fill.fill(0);
            self.filled = false;
        }
        self.hits = 0.0;
        self.misses = 0.0;
    }
}

/// Shifts `ways` one slot toward the end, dropping its last element, and
/// puts `tag` first. A plain loop: the slices are a few ways long, where a
/// `memmove` call costs more than the copy.
#[inline]
fn shift_in(ways: &mut [u32], tag: u32) {
    for i in (1..ways.len()).rev() {
        ways[i] = ways[i - 1];
    }
    ways[0] = tag;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_misses_then_hits() {
        let mut c = Cache::new(1024, 32, 4);
        for line in 0..4 {
            assert!(!c.access_line(line, 1.0));
        }
        for line in 0..4 {
            assert!(c.access_line(line, 1.0));
        }
        assert_eq!(c.hits(), 4.0);
        assert_eq!(c.misses(), 4.0);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Single set: capacity 4 lines, assoc 4, line 32 -> 1 set.
        let mut c = Cache::new(4 * 32, 32, 4);
        assert_eq!(c.num_sets(), 1);
        for line in 0..4 {
            c.access_line(line, 1.0);
        }
        c.access_line(0, 1.0); // make 0 MRU; LRU is now 1
        c.access_line(100, 1.0); // evicts 1
        assert!(c.access_line(0, 1.0), "0 must still be resident");
        assert!(!c.access_line(1, 1.0), "1 must have been evicted");
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = Cache::new(1024, 32, 4); // 32 lines
                                             // Stream 1000 distinct lines twice: second pass still misses
                                             // (LRU with a cyclic working set larger than capacity).
        for _ in 0..2 {
            for line in 0..1000u64 {
                c.access_line(line, 1.0);
            }
        }
        assert!(c.hit_rate() < 0.05, "hit rate was {}", c.hit_rate());
    }

    #[test]
    fn weights_scale_counters() {
        let mut c = Cache::new(1024, 32, 4);
        c.access_line(5, 8.0);
        c.access_line(5, 8.0);
        assert_eq!(c.misses(), 8.0);
        assert_eq!(c.hits(), 8.0);
    }

    #[test]
    fn reset_clears_state() {
        let mut c = Cache::new(1024, 32, 4);
        c.access_line(1, 1.0);
        c.reset();
        assert_eq!(c.hits() + c.misses(), 0.0);
        assert!(!c.access_line(1, 1.0), "reset must drop contents");
    }

    /// The per-set `Vec` LRU the flat layout replaced, kept as the oracle.
    struct VecPerSet {
        sets: Vec<Vec<u64>>,
        assoc: usize,
    }

    impl VecPerSet {
        fn access_line(&mut self, line: u64) -> bool {
            let n = self.sets.len();
            let set = &mut self.sets[(line as usize) & (n - 1)];
            if let Some(pos) = set.iter().position(|&l| l == line) {
                let l = set.remove(pos);
                set.insert(0, l);
                true
            } else {
                if set.len() == self.assoc {
                    set.pop();
                }
                set.insert(0, line);
                false
            }
        }
    }

    #[test]
    fn flat_lru_matches_vec_per_set_reference() {
        use ugrapher_util::rng::StdRng;
        for assoc in [1, 4, 16] {
            let mut c = Cache::new(64 * assoc * 32, 32, assoc);
            let mut reference = VecPerSet {
                sets: vec![Vec::new(); c.num_sets()],
                assoc,
            };
            let mut rng = StdRng::seed_from_u64(0x5EED ^ assoc as u64);
            let (mut hits, mut misses) = (0.0, 0.0);
            for i in 0..200_000u32 {
                // Mostly a hot range ~2x capacity; some far lines exercise
                // the top of the u32 tag range.
                let line = if rng.random_range(0..16u32) == 0 {
                    (u64::from(u32::MAX - rng.random_range(0..64u32)) << 6)
                        | rng.random_range(0..64u64)
                } else {
                    rng.random_range(0..(128 * assoc) as u64)
                };
                let weight = f64::from(1 + i % 3);
                let hit = c.access_line(line, weight);
                assert_eq!(
                    hit,
                    reference.access_line(line),
                    "assoc {assoc}, access {i}"
                );
                if hit {
                    hits += weight;
                } else {
                    misses += weight;
                }
            }
            assert_eq!((c.hits(), c.misses()), (hits, misses));
            assert!(hits > 0.0 && misses > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "u32 tag range")]
    fn line_ids_beyond_the_tag_range_panic() {
        let mut c = Cache::new(4 * 32, 32, 4); // 1 set: tags are whole ids
        assert!(!c.access_line(u64::from(u32::MAX), 1.0));
        c.access_line(u64::from(u32::MAX) + 1, 1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds the maximum")]
    fn associativity_beyond_fill_counts_panics() {
        Cache::new(1 << 20, 32, Cache::MAX_ASSOC + 1);
    }

    #[test]
    fn preset_modeled_sizes_are_pinned() {
        // The set count rounds down to a power of two: V100's 6 MB L2 is
        // modeled as 4 MB, A100's 192 KB L1 as 128 KB and its 40 MB L2 as
        // 32 MB (DESIGN.md §7). Changing the rounding moves every report.
        let modeled = |bytes, assoc, line| Cache::new(bytes, line, assoc).num_sets() * assoc * line;
        let v = crate::DeviceConfig::v100();
        assert_eq!(modeled(v.l1_bytes, v.l1_assoc, v.line_bytes), 128 << 10);
        assert_eq!(modeled(v.l2_bytes, v.l2_assoc, v.line_bytes), 4 << 20);
        let a = crate::DeviceConfig::a100();
        assert_eq!(modeled(a.l1_bytes, a.l1_assoc, a.line_bytes), 128 << 10);
        assert_eq!(modeled(a.l2_bytes, a.l2_assoc, a.line_bytes), 32 << 20);
    }

    #[test]
    fn small_graph_working_set_fits() {
        // 64 KB cache, 32 B lines -> 2048 lines; a 1000-line working set
        // should be fully resident on the second pass.
        let mut c = Cache::new(64 * 1024, 32, 8);
        for line in 0..1000u64 {
            c.access_line(line, 1.0);
        }
        let misses_before = c.misses();
        for line in 0..1000u64 {
            assert!(c.access_line(line, 1.0));
        }
        assert_eq!(c.misses(), misses_before);
    }
}
