//! The joint hardware/compiler configuration space.
//!
//! A [`Candidate`] is one point: fabric domain geometry (domain width and
//! direct-port share, the paper's fourth contribution), cache capacity,
//! bank count, clock divider, placement heuristic, and placement seed.
//! A [`SearchSpace`] is the finite menu of values per axis; strategies
//! enumerate, sample, or perturb within it.

use nupea::{SystemConfig, Workload};
use nupea_fabric::Fabric;
use nupea_pnr::Heuristic;
use nupea_rng::Xoshiro256;

/// One point in the joint hardware/compiler space.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Columns per far NUPEA domain (`monaco_with_domains`).
    pub domain_cols: usize,
    /// Direct-port (near-memory) LS columns.
    pub d0_cols: usize,
    /// Shared-cache capacity in words.
    pub cache_words: usize,
    /// Cache bank count.
    pub banks: usize,
    /// Fixed fabric clock divider (`None` = PnR-derived).
    pub divider: Option<u64>,
    /// Placement heuristic (Fig. 12 axis).
    pub heuristic: Heuristic,
    /// Placement seed (annealing perturbs this axis).
    pub place_seed: u64,
}

impl Candidate {
    /// Canonical key string: every field in a fixed order. Stable across
    /// runs and releases — the journal's config hash is computed over it.
    #[must_use]
    pub fn key(&self) -> String {
        format!(
            "dc{};d0{};cw{};bk{};dv{};h{};s{}",
            self.domain_cols,
            self.d0_cols,
            self.cache_words,
            self.banks,
            self.divider.map_or_else(|| "pnr".into(), |d| d.to_string()),
            self.heuristic,
            self.place_seed,
        )
    }

    /// Materialize the hardware half of the candidate as a
    /// [`SystemConfig`] on the space's fabric dimensions.
    ///
    /// # Errors
    ///
    /// Returns the fabric's own error string for degenerate geometry
    /// (e.g. more direct-port columns than the fabric has) — the engine
    /// records these as infeasible points without simulating.
    pub fn system(&self, space: &SearchSpace) -> Result<SystemConfig, String> {
        let fabric = Fabric::monaco_with_domains(
            space.rows,
            space.cols,
            space.tracks,
            self.d0_cols,
            self.domain_cols,
        )
        .map_err(|e| e.to_string())?;
        let mut sys = SystemConfig::with_fabric(fabric);
        sys.mem.cache_words = self.cache_words;
        sys.mem.banks = self.banks;
        sys.divider_override = self.divider;
        sys.seed = self.place_seed;
        sys.effort = space.effort;
        Ok(sys)
    }
}

/// Stable 64-bit FNV-1a hash of a workload + candidate pair: the journal
/// key. Depends only on the canonical key string, never on memory layout.
#[must_use]
pub fn config_hash(workload: &Workload, candidate: &Candidate) -> u64 {
    fnv1a(format!("{};par{};{}", workload.name, workload.par, candidate.key()).as_bytes())
}

/// 64-bit FNV-1a — the same stable hash the journals, checksum layer,
/// and shard partitioner use (hosted in [`nupea::jsonl`]).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    nupea::jsonl::fnv1a(bytes)
}

/// The finite menu of values per axis, over a fixed fabric outline.
///
/// [`SearchSpace::default`] covers the paper's sensitivity axes on the
/// 12×12 Monaco: domain widths 2–4, direct-port shares 1–6 (Monaco ships
/// 3/3), three cache sizes around the shipping 64 K words, and all three
/// placement heuristics.
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Fabric rows.
    pub rows: usize,
    /// Fabric columns.
    pub cols: usize,
    /// Data-NoC tracks.
    pub tracks: u32,
    /// Annealing effort for every candidate's compiles.
    pub effort: u32,
    /// Menu: columns per far domain.
    pub domain_cols: Vec<usize>,
    /// Menu: direct-port LS columns.
    pub d0_cols: Vec<usize>,
    /// Menu: cache capacities (words).
    pub cache_words: Vec<usize>,
    /// Menu: bank counts.
    pub banks: Vec<usize>,
    /// Menu: divider overrides.
    pub dividers: Vec<Option<u64>>,
    /// Menu: placement heuristics.
    pub heuristics: Vec<Heuristic>,
    /// Menu: placement seeds (grid/random draw from here; annealing may
    /// leave it and mutate seeds freely).
    pub place_seeds: Vec<u64>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            rows: 12,
            cols: 12,
            tracks: Fabric::DEFAULT_TRACKS,
            effort: 200,
            domain_cols: vec![2, 3, 4],
            d0_cols: vec![1, 2, 3, 4, 6],
            cache_words: vec![16 * 1024, 64 * 1024, 256 * 1024],
            banks: vec![32],
            dividers: vec![Some(2)],
            heuristics: vec![
                Heuristic::DomainUnaware,
                Heuristic::OnlyDomainAware,
                Heuristic::CriticalityAware,
            ],
            place_seeds: vec![0xC0FFEE],
        }
    }
}

impl SearchSpace {
    /// Number of grid points (the product of all axis lengths).
    #[must_use]
    pub fn len(&self) -> usize {
        self.domain_cols.len()
            * self.d0_cols.len()
            * self.cache_words.len()
            * self.banks.len()
            * self.dividers.len()
            * self.heuristics.len()
            * self.place_seeds.len()
    }

    /// Whether any axis is empty (no candidates exist).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `i`-th grid point in mixed-radix order (heuristic varies
    /// fastest, domain width slowest), for `i < len()`.
    #[must_use]
    pub fn nth(&self, i: usize) -> Candidate {
        assert!(i < self.len(), "grid index out of range");
        let mut rem = i;
        let mut pick = |axis_len: usize| {
            let idx = rem % axis_len;
            rem /= axis_len;
            idx
        };
        let heuristic = self.heuristics[pick(self.heuristics.len())];
        let place_seed = self.place_seeds[pick(self.place_seeds.len())];
        let divider = self.dividers[pick(self.dividers.len())];
        let banks = self.banks[pick(self.banks.len())];
        let cache_words = self.cache_words[pick(self.cache_words.len())];
        let d0_cols = self.d0_cols[pick(self.d0_cols.len())];
        let domain_cols = self.domain_cols[pick(self.domain_cols.len())];
        Candidate {
            domain_cols,
            d0_cols,
            cache_words,
            banks,
            divider,
            heuristic,
            place_seed,
        }
    }

    /// A uniform random grid point.
    #[must_use]
    pub fn sample(&self, rng: &mut Xoshiro256) -> Candidate {
        self.nth(rng.index(self.len()))
    }

    /// A neighbour of `c`: one axis nudged to an adjacent menu value, or —
    /// for the placement-seed axis — a fresh random seed. This is the
    /// annealer's move set: placement perturbations plus single-knob
    /// hardware changes.
    #[must_use]
    pub fn neighbor(&self, c: &Candidate, rng: &mut Xoshiro256) -> Candidate {
        let mut n = c.clone();
        // Axis 6 is the seed axis; others nudge within their menu.
        match rng.index(7) {
            0 => n.domain_cols = nudge(&self.domain_cols, c.domain_cols, rng),
            1 => n.d0_cols = nudge(&self.d0_cols, c.d0_cols, rng),
            2 => n.cache_words = nudge(&self.cache_words, c.cache_words, rng),
            3 => n.banks = nudge(&self.banks, c.banks, rng),
            4 => n.divider = nudge(&self.dividers, c.divider, rng),
            5 => n.heuristic = nudge(&self.heuristics, c.heuristic, rng),
            _ => n.place_seed = rng.next_u64(),
        }
        n
    }
}

/// Move to an adjacent value on one axis menu (falling back to a random
/// menu entry when the current value is not on the menu, as can happen for
/// annealer-mutated seeds).
fn nudge<T: Copy + PartialEq>(menu: &[T], current: T, rng: &mut Xoshiro256) -> T {
    let Some(pos) = menu.iter().position(|&v| v == current) else {
        return menu[rng.index(menu.len())];
    };
    let next = if menu.len() == 1 {
        pos
    } else if pos == 0 {
        1
    } else if pos == menu.len() - 1 {
        pos - 1
    } else if rng.next_bool() {
        pos + 1
    } else {
        pos - 1
    };
    menu[next]
}

/// Parse a heuristic from its stable display label (the inverse of
/// `Heuristic`'s `Display`); used by the journal reader.
#[must_use]
pub fn heuristic_from_label(s: &str) -> Option<Heuristic> {
    Some(match s {
        "domain-unaware" => Heuristic::DomainUnaware,
        "only-domain-aware" => Heuristic::OnlyDomainAware,
        "effcc" => Heuristic::CriticalityAware,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_enumerates_every_point_exactly_once() {
        let space = SearchSpace::default();
        let mut keys: Vec<String> = (0..space.len()).map(|i| space.nth(i).key()).collect();
        let n = keys.len();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), n, "grid points must be unique");
        assert_eq!(n, 3 * 5 * 3 * 3, "default space size");
    }

    #[test]
    fn hash_is_stable_and_key_sensitive() {
        let space = SearchSpace::default();
        let a = space.nth(0);
        let b = space.nth(1);
        assert_ne!(fnv1a(a.key().as_bytes()), fnv1a(b.key().as_bytes()));
        // Golden: the journal format relies on this hash never changing.
        assert_eq!(fnv1a(b"dse"), 0xca50_1918_f423_aa9f, "FNV-1a drifted");
    }

    #[test]
    fn neighbor_stays_in_space_and_moves_one_axis() {
        let space = SearchSpace::default();
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut c = space.sample(&mut rng);
        for _ in 0..200 {
            let n = space.neighbor(&c, &mut rng);
            let mut moved = 0;
            moved += usize::from(n.domain_cols != c.domain_cols);
            moved += usize::from(n.d0_cols != c.d0_cols);
            moved += usize::from(n.cache_words != c.cache_words);
            moved += usize::from(n.banks != c.banks);
            moved += usize::from(n.divider != c.divider);
            moved += usize::from(n.heuristic != c.heuristic);
            moved += usize::from(n.place_seed != c.place_seed);
            assert!(moved <= 1, "a move changes at most one axis");
            assert!(space.domain_cols.contains(&n.domain_cols));
            assert!(space.heuristics.contains(&n.heuristic));
            c = n;
        }
    }

    #[test]
    fn candidate_materializes_system_knobs() {
        let space = SearchSpace::default();
        let c = Candidate {
            domain_cols: 3,
            d0_cols: 3,
            cache_words: 16 * 1024,
            banks: 16,
            divider: None,
            heuristic: Heuristic::CriticalityAware,
            place_seed: 42,
        };
        let sys = c.system(&space).unwrap();
        assert_eq!(sys.mem.cache_words, 16 * 1024);
        assert_eq!(sys.mem.banks, 16);
        assert_eq!(sys.divider_override, None);
        assert_eq!(sys.seed, 42);
        // Degenerate geometry is a typed refusal, not a panic.
        let bad = Candidate { d0_cols: 99, ..c };
        assert!(bad.system(&space).is_err());
    }

    #[test]
    fn heuristic_labels_round_trip() {
        for h in [
            Heuristic::DomainUnaware,
            Heuristic::OnlyDomainAware,
            Heuristic::CriticalityAware,
        ] {
            assert_eq!(heuristic_from_label(&h.to_string()), Some(h));
        }
        assert_eq!(heuristic_from_label("nope"), None);
    }
}
