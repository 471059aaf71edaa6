//! Simulated memory: word-addressed backing store, bump allocator, and the
//! shared memory-side cache with banked main memory (§4, §6 of the paper).
//!
//! Monaco's evaluated configuration: 8 MB total memory, a 256 KB shared
//! data cache in front, both banked 32×. Words are 32-bit on Monaco; we
//! store `i64` token values one per word address, with the line size
//! expressed in words.

/// Memory-system geometry and latencies (system-clock cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemParams {
    /// Total memory capacity in words.
    pub mem_words: usize,
    /// Cache capacity in words.
    pub cache_words: usize,
    /// Cache line size in words.
    pub line_words: usize,
    /// Cache associativity.
    pub ways: usize,
    /// Number of banks (cache and main memory, §4).
    pub banks: usize,
    /// Cache-hit service latency.
    pub hit_latency: u64,
    /// Additional main-memory latency on a miss.
    pub miss_latency: u64,
}

impl Default for MemParams {
    fn default() -> Self {
        // §6: 8MB memory, 256KB data cache, banked 32x, 4-cycle main memory,
        // 2-cycle cache hit. With 32-bit words: 2M words / 64K cache words.
        MemParams {
            mem_words: 2 * 1024 * 1024,
            cache_words: 64 * 1024,
            line_words: 16,
            ways: 8,
            banks: 32,
            hit_latency: 2,
            miss_latency: 4,
        }
    }
}

impl MemParams {
    /// Reject degenerate geometries (zero banks, zero-word lines, zero
    /// ways, empty memory) that would otherwise divide by zero or wedge
    /// deep inside the memory system.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`](crate::engine::ConfigError) found.
    pub fn validate(&self) -> Result<(), crate::engine::ConfigError> {
        use crate::engine::ConfigError;
        if self.banks == 0 {
            return Err(ConfigError::ZeroBanks);
        }
        if self.line_words == 0 {
            return Err(ConfigError::ZeroLineWords);
        }
        if self.ways == 0 {
            return Err(ConfigError::ZeroWays);
        }
        if self.mem_words == 0 {
            return Err(ConfigError::ZeroMemWords);
        }
        Ok(())
    }

    /// A small configuration for fast unit tests.
    pub fn tiny() -> Self {
        MemParams {
            mem_words: 4096,
            cache_words: 256,
            line_words: 8,
            ways: 2,
            banks: 4,
            hit_latency: 2,
            miss_latency: 4,
        }
    }

    /// Cache line index of a word address.
    #[inline]
    pub fn line_of(&self, addr: usize) -> usize {
        addr / self.line_words
    }

    /// Bank serving a word address (line-interleaved).
    #[inline]
    pub fn bank_of(&self, addr: usize) -> usize {
        self.line_of(addr) % self.banks
    }

    /// Number of cache sets.
    #[inline]
    pub fn num_sets(&self) -> usize {
        (self.cache_words / self.line_words / self.ways).max(1)
    }
}

/// Word-addressed simulated memory with a line-aligned bump allocator.
///
/// Kernels allocate their arrays here, the simulator executes real loads and
/// stores against it, and tests compare final contents with reference
/// implementations.
///
/// The address space spans the full configured capacity, but only a prefix
/// is stored: the words up to the highest allocated or written address.
/// Every address past that prefix and below capacity reads 0, and a write
/// there grows the prefix. Negative and past-capacity addresses fault
/// exactly as they would on a dense store. Equality compares contents:
/// two memories are equal when their capacities match and every address
/// reads the same, however many words each happens to store.
#[derive(Debug, Clone)]
pub struct SimMemory {
    /// The stored prefix of the address space.
    words: Vec<i64>,
    capacity: usize,
    next_free: usize,
    line_words: usize,
}

impl SimMemory {
    /// Create a memory of `params.mem_words` zeroed words.
    pub fn new(params: &MemParams) -> Self {
        SimMemory {
            words: Vec::new(),
            capacity: params.mem_words,
            next_free: 0,
            line_words: params.line_words,
        }
    }

    /// Allocate `len` words, line-aligned. Returns the base word address.
    ///
    /// # Panics
    ///
    /// Panics if the allocation exceeds memory capacity (kernel inputs are
    /// sized to fit, per Table 1's "inputs fit in memory").
    pub fn alloc(&mut self, len: usize) -> i64 {
        let base = self.next_free;
        let end = base + len;
        assert!(
            end <= self.capacity,
            "simulated memory exhausted: need {end} words, have {}",
            self.capacity
        );
        self.next_free = end.next_multiple_of(self.line_words);
        self.store_through(end);
        base as i64
    }

    /// Allocate and initialize from a slice. Returns the base word address.
    pub fn alloc_init(&mut self, data: &[i64]) -> i64 {
        let base = self.alloc(data.len());
        self.words[base as usize..base as usize + data.len()].copy_from_slice(data);
        base
    }

    /// Read a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn read(&self, addr: usize) -> i64 {
        assert!(addr < self.capacity, "read out of bounds: {addr}");
        self.words.get(addr).copied().unwrap_or(0)
    }

    /// Write a word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn write(&mut self, addr: usize, value: i64) {
        assert!(addr < self.capacity, "write out of bounds: {addr}");
        self.store_through(addr + 1);
        self.words[addr] = value;
    }

    /// Checked read used by the simulator (`None` = fault).
    #[inline]
    pub fn try_read(&self, addr: i64) -> Option<i64> {
        let addr = usize::try_from(addr).ok()?;
        (addr < self.capacity).then(|| self.read(addr))
    }

    /// Checked write used by the simulator (`false` = fault).
    #[inline]
    pub fn try_write(&mut self, addr: i64, value: i64) -> bool {
        match usize::try_from(addr) {
            Ok(addr) if addr < self.capacity => {
                self.write(addr, value);
                true
            }
            _ => false,
        }
    }

    /// Grow the stored prefix to at least `end` words.
    fn store_through(&mut self, end: usize) {
        if end > self.words.len() {
            self.words.resize(end, 0);
        }
    }

    /// View a range of allocated memory (for result validation).
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the allocated or written words.
    pub fn slice(&self, base: i64, len: usize) -> &[i64] {
        &self.words[base as usize..base as usize + len]
    }

    /// The whole address space, mutably (used by the untimed
    /// interpreters). Stores every word up to capacity first, so the
    /// slice is exactly as long as the memory is big.
    pub fn words_mut(&mut self) -> &mut [i64] {
        self.store_through(self.capacity);
        &mut self.words
    }

    /// Words allocated so far.
    pub fn used(&self) -> usize {
        self.next_free
    }

    /// Words actually held in the backing store, a prefix of the
    /// capacity.
    pub fn stored(&self) -> usize {
        self.words.len()
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl PartialEq for SimMemory {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.words.len() <= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        self.capacity == other.capacity
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for SimMemory {}

/// Shared memory-side cache model: set-associative, LRU, allocate-on-miss
/// for both loads and stores. Only hit/miss (latency) is modelled — data
/// always comes from [`SimMemory`], which is kept coherent by construction
/// since there is a single shared cache (no coherence protocol needed, §2.1).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<CacheSet>,
    line_words: usize,
    banks: usize,
    /// Total hits observed.
    pub hits: u64,
    /// Total misses observed.
    pub misses: u64,
}

#[derive(Debug, Clone)]
struct CacheSet {
    /// (line tag, last-use stamp) per way; `u64::MAX` tag = invalid.
    ways: Vec<(u64, u64)>,
}

impl Cache {
    /// Build the cache for the given geometry.
    pub fn new(params: &MemParams) -> Self {
        Cache {
            sets: vec![
                CacheSet {
                    ways: vec![(u64::MAX, 0); params.ways]
                };
                params.num_sets()
            ],
            line_words: params.line_words,
            banks: params.banks,
            hits: 0,
            misses: 0,
        }
    }

    /// Access a word address at logical time `stamp`; returns true on hit.
    /// Misses allocate (LRU eviction).
    pub fn access(&mut self, addr: usize, stamp: u64) -> bool {
        let line = (addr / self.line_words) as u64;
        let set_idx = (line as usize / self.banks) % self.sets.len();
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.ways.iter_mut().find(|(tag, _)| *tag == line) {
            way.1 = stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // LRU victim.
        let victim = set
            .ways
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, used))| *used)
            .map(|(i, _)| i)
            .expect("cache has at least one way");
        set.ways[victim] = (line, stamp);
        false
    }

    /// Hit rate so far (1.0 when no accesses yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_line_aligned_and_disjoint() {
        let p = MemParams::tiny();
        let mut m = SimMemory::new(&p);
        let a = m.alloc(5);
        let b = m.alloc(3);
        assert_eq!(a, 0);
        assert_eq!(b % p.line_words as i64, 0);
        assert!(b >= 5);
        m.write(a as usize, 7);
        m.write(b as usize, 9);
        assert_eq!(m.read(a as usize), 7);
        assert_eq!(m.read(b as usize), 9);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn alloc_past_capacity_panics() {
        let p = MemParams::tiny();
        let mut m = SimMemory::new(&p);
        m.alloc(p.mem_words + 1);
    }

    #[test]
    fn alloc_init_roundtrips() {
        let p = MemParams::tiny();
        let mut m = SimMemory::new(&p);
        let data = vec![1, 2, 3, 4, 5];
        let base = m.alloc_init(&data);
        assert_eq!(m.slice(base, 5), &data[..]);
    }

    #[test]
    fn try_read_write_bounds() {
        let p = MemParams::tiny();
        let mut m = SimMemory::new(&p);
        assert!(m.try_read(-1).is_none());
        assert!(m.try_read(p.mem_words as i64).is_none());
        assert!(m.try_write(0, 42));
        assert_eq!(m.try_read(0), Some(42));
        assert!(!m.try_write(-5, 1));
    }

    #[test]
    fn unstored_words_read_zero_and_writes_grow_the_store() {
        let p = MemParams::tiny();
        let mut m = SimMemory::new(&p);
        let base = m.alloc_init(&[1, 2, 3]);
        assert_eq!(m.stored(), 3, "only the allocated words are stored");
        assert_eq!(m.read(100), 0);
        assert_eq!(m.try_read(p.mem_words as i64 - 1), Some(0));
        assert_eq!(m.stored(), 3, "reads never grow the store");

        assert!(m.try_write(100, 7));
        assert_eq!(m.stored(), 101);
        assert_eq!(m.read(100), 7);
        assert_eq!(m.read(50), 0, "the grown gap reads zero");
        assert_eq!(m.slice(base, 3), &[1, 2, 3]);
    }

    #[test]
    fn negative_and_past_capacity_accesses_fault() {
        let p = MemParams::tiny();
        let mut m = SimMemory::new(&p);
        let cap = p.mem_words as i64;
        assert!(m.try_read(-1).is_none());
        assert!(m.try_read(cap).is_none());
        assert!(m.try_read(i64::MAX).is_none());
        assert!(!m.try_write(-1, 1));
        assert!(!m.try_write(cap, 1));
        assert!(!m.try_write(i64::MAX, 1));
        assert_eq!(m.stored(), 0, "a faulting write stores nothing");
        assert!(std::panic::catch_unwind(|| SimMemory::new(&p).read(p.mem_words)).is_err());
        assert!(std::panic::catch_unwind(|| SimMemory::new(&p).write(p.mem_words, 1)).is_err());
    }

    #[test]
    fn equality_ignores_how_many_words_are_stored() {
        let p = MemParams::tiny();
        let mut a = SimMemory::new(&p);
        a.alloc_init(&[4, 5]);
        let mut b = a.clone();
        b.write(p.mem_words - 1, 0);
        assert_eq!(b.stored(), p.mem_words);
        assert_eq!(a, b, "an explicit zero equals a word never written");
        assert_eq!(b, a);

        b.write(200, 9);
        assert_ne!(a, b, "a nonzero word past the shorter store differs");
        a.write(200, 9);
        assert_eq!(a, b);
        a.write(0, -4);
        assert_ne!(a, b, "a differing stored word differs");

        let other = MemParams {
            mem_words: p.mem_words * 2,
            ..p
        };
        assert_ne!(
            SimMemory::new(&p),
            SimMemory::new(&other),
            "capacity counts"
        );
    }

    #[test]
    fn words_mut_spans_the_full_capacity() {
        let p = MemParams::tiny();
        let mut m = SimMemory::new(&p);
        let base = m.alloc_init(&[8, 9]) as usize;
        let words = m.words_mut();
        assert_eq!(words.len(), p.mem_words);
        assert_eq!(&words[base..base + 2], &[8, 9]);
        words[p.mem_words - 1] = 3;
        assert_eq!(m.read(p.mem_words - 1), 3);
    }

    #[test]
    fn cache_hits_after_first_touch() {
        let p = MemParams::tiny();
        let mut c = Cache::new(&p);
        assert!(!c.access(0, 1), "cold miss");
        assert!(c.access(1, 2), "same line hits");
        assert!(c.access(p.line_words - 1, 3));
        assert!(!c.access(p.line_words, 4), "next line cold");
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn cache_lru_evicts_least_recent() {
        // 2-way tiny cache: touch 3 lines mapping to the same set.
        let p = MemParams::tiny();
        let mut c = Cache::new(&p);
        let sets = p.num_sets();
        let stride = sets * p.banks * p.line_words; // same set, same bank class
        c.access(0, 1); // line A
        c.access(stride, 2); // line B
        c.access(0, 3); // A again: hit, refresh
        c.access(2 * stride, 4); // line C: evicts B
        assert!(c.access(0, 5), "A still resident");
        assert!(!c.access(stride, 6), "B was evicted");
    }

    #[test]
    fn bank_mapping_interleaves_lines() {
        let p = MemParams::default();
        assert_eq!(p.bank_of(0), 0);
        assert_eq!(p.bank_of(p.line_words), 1);
        assert_eq!(p.bank_of(p.line_words * p.banks), 0);
        // Within a line: same bank.
        assert_eq!(p.bank_of(3), p.bank_of(0));
    }

    #[test]
    fn default_params_match_paper() {
        let p = MemParams::default();
        assert_eq!(p.mem_words * 4, 8 * 1024 * 1024, "8MB");
        assert_eq!(p.cache_words * 4, 256 * 1024, "256KB cache");
        assert_eq!(p.banks, 32);
        assert_eq!(p.hit_latency, 2);
        assert_eq!(p.miss_latency, 4);
    }
}
