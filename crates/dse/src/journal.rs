//! The append-only JSONL search journal.
//!
//! Every completed evaluation — one `(workload, candidate, budget)`
//! triple — is appended as one flat JSON object keyed by the stable
//! config hash of [`crate::space::config_hash`]. On open, existing lines
//! are replayed into an in-memory index, so a killed search resumes with
//! zero re-simulation and repeated evaluations (random-search repeats,
//! annealer revisits) hit the cache. Unparseable lines — e.g. a final
//! line truncated by a kill — are skipped, not fatal.
//!
//! The format is hand-rolled (the workspace is dependency-free) and
//! deliberately flat; a line looks like:
//!
//! ```json
//! {"hash":123,"workload":"spmspv","budget":"b10000","domain_cols":3,
//!  "d0_cols":3,"cache_words":65536,"banks":32,"divider":2,
//!  "heuristic":"effcc","place_seed":12648430,"cycles":4242,
//!  "energy":123.5,"pes":61,"error":null}
//! ```

use crate::pareto::Score;
use crate::space::{heuristic_from_label, Candidate};
use nupea::jsonl::{self, JsonlFile};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// The budget rung an entry was evaluated at: a successive-halving rung's
/// cycle cap, or the uncapped full run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Budget {
    /// Capped at this many system cycles.
    Capped(u64),
    /// The full (default runaway cap) evaluation.
    Full,
}

impl fmt::Display for Budget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Budget::Capped(b) => write!(f, "b{b}"),
            Budget::Full => f.write_str("full"),
        }
    }
}

impl Budget {
    fn parse(s: &str) -> Option<Budget> {
        if s == "full" {
            return Some(Budget::Full);
        }
        s.strip_prefix('b')?.parse().ok().map(Budget::Capped)
    }
}

/// How an evaluation ended: a score, or a stable kebab-case failure label
/// (`RunErrorKind::label`, or `"invalid-config"` for degenerate fabric
/// geometry rejected before simulation).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Completed and validated; objectives recorded.
    Done(Score),
    /// Failed; the label classifies why.
    Failed(String),
}

/// One journal line.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Stable config hash of `(workload, candidate)`.
    pub hash: u64,
    /// Workload name.
    pub workload: String,
    /// Budget rung.
    pub budget: Budget,
    /// The configuration.
    pub candidate: Candidate,
    /// Result.
    pub outcome: Outcome,
}

impl JournalEntry {
    /// Serialize as one JSONL line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        let c = &self.candidate;
        let (cycles, energy, pes, error) = match &self.outcome {
            Outcome::Done(s) => (
                s.cycles.to_string(),
                jsonl::format_f64(s.energy),
                s.pes.to_string(),
                "null".to_string(),
            ),
            Outcome::Failed(label) => (
                "null".into(),
                "null".into(),
                "null".into(),
                format!("\"{label}\""),
            ),
        };
        format!(
            "{{\"hash\":{},\"workload\":\"{}\",\"budget\":\"{}\",\
             \"domain_cols\":{},\"d0_cols\":{},\"cache_words\":{},\"banks\":{},\
             \"divider\":{},\"heuristic\":\"{}\",\"place_seed\":{},\
             \"cycles\":{cycles},\"energy\":{energy},\"pes\":{pes},\"error\":{error}}}",
            self.hash,
            self.workload,
            self.budget,
            c.domain_cols,
            c.d0_cols,
            c.cache_words,
            c.banks,
            c.divider
                .map_or_else(|| "null".to_string(), |d| d.to_string()),
            c.heuristic,
            c.place_seed,
        )
    }

    /// Parse one line; `None` for anything malformed (corrupt tails are
    /// skipped on resume).
    #[must_use]
    pub fn parse_line(line: &str) -> Option<JournalEntry> {
        let line = line.trim();
        if !line.starts_with('{') || !line.ends_with('}') {
            return None;
        }
        let num = |k: &str| jsonl::u64_field(line, k);
        let opt_num = |k: &str| -> Option<Option<u64>> {
            match jsonl::field(line, k)? {
                v if v == "null" => Some(None),
                v => v.parse().ok().map(Some),
            }
        };
        let candidate = Candidate {
            domain_cols: num("domain_cols")? as usize,
            d0_cols: num("d0_cols")? as usize,
            cache_words: num("cache_words")? as usize,
            banks: num("banks")? as usize,
            divider: opt_num("divider")?,
            heuristic: heuristic_from_label(&jsonl::string_field(line, "heuristic")?)?,
            place_seed: num("place_seed")?,
        };
        let outcome = match jsonl::field(line, "error")? {
            v if v == "null" => Outcome::Done(Score {
                cycles: num("cycles")?,
                energy: jsonl::field(line, "energy")?.parse().ok()?,
                pes: num("pes")? as usize,
            }),
            _ => Outcome::Failed(jsonl::string_field(line, "error")?),
        };
        Some(JournalEntry {
            hash: num("hash")?,
            workload: jsonl::string_field(line, "workload")?,
            budget: Budget::parse(&jsonl::string_field(line, "budget")?)?,
            candidate,
            outcome,
        })
    }
}

/// The journal: an on-disk JSONL file (optional) plus the in-memory index
/// keyed by `(hash, budget)`. Torn-tail detection and append repair live
/// in the shared [`nupea::jsonl`] layer.
#[derive(Debug)]
pub struct Journal {
    file: JsonlFile,
    index: HashMap<(u64, Budget), JournalEntry>,
    /// Lines replayed from disk at open (resume accounting).
    pub replayed: usize,
    /// Lines skipped as unparseable at open.
    pub skipped: usize,
}

impl Journal {
    /// A purely in-memory journal (tests, throwaway searches).
    #[must_use]
    pub fn in_memory() -> Self {
        Journal {
            file: JsonlFile::in_memory(),
            index: HashMap::new(),
            replayed: 0,
            skipped: 0,
        }
    }

    /// An in-memory journal indexed from already-merged lines (see
    /// [`nupea::shard::merge`]); unparseable lines are counted in
    /// `skipped`.
    #[must_use]
    pub fn from_lines(lines: impl IntoIterator<Item = String>) -> Self {
        let mut j = Journal::in_memory();
        for line in lines {
            match JournalEntry::parse_line(&line) {
                Some(e) => {
                    j.index.insert((e.hash, e.budget.clone()), e);
                    j.replayed += 1;
                }
                None => j.skipped += 1,
            }
        }
        j
    }

    /// Open (or create) an on-disk journal, replaying existing entries.
    /// The parent directory is created on demand.
    ///
    /// # Errors
    ///
    /// I/O errors creating the parent directory or reading the file.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let (file, lines) = JsonlFile::open(path)?;
        let mut j = Journal {
            file,
            index: HashMap::new(),
            replayed: 0,
            skipped: 0,
        };
        for line in &lines {
            match JournalEntry::parse_line(line) {
                Some(e) => {
                    j.index.insert((e.hash, e.budget.clone()), e);
                    j.replayed += 1;
                }
                None => j.skipped += 1,
            }
        }
        Ok(j)
    }

    /// The on-disk path, if any.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.file.path()
    }

    /// Look up a completed evaluation.
    #[must_use]
    pub fn lookup(&self, hash: u64, budget: &Budget) -> Option<&JournalEntry> {
        self.index.get(&(hash, budget.clone()))
    }

    /// Record an evaluation: appends one line (fsync'd to the line level
    /// by `write_all` + newline so a kill loses at most the final line)
    /// and indexes it.
    ///
    /// # Errors
    ///
    /// I/O errors appending to the file.
    pub fn record(&mut self, entry: JournalEntry) -> io::Result<()> {
        self.file.append(&entry.to_line())?;
        self.index.insert((entry.hash, entry.budget.clone()), entry);
        Ok(())
    }

    /// Number of indexed entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the journal is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nupea_pnr::Heuristic;
    use std::io::Write as _;

    fn entry(hash: u64, budget: Budget, outcome: Outcome) -> JournalEntry {
        JournalEntry {
            hash,
            workload: "spmspv".into(),
            budget,
            candidate: Candidate {
                domain_cols: 3,
                d0_cols: 2,
                cache_words: 65536,
                banks: 32,
                divider: Some(2),
                heuristic: Heuristic::CriticalityAware,
                place_seed: 0xC0FFEE,
            },
            outcome,
        }
    }

    #[test]
    fn lines_round_trip() {
        for (b, o) in [
            (
                Budget::Full,
                Outcome::Done(Score {
                    cycles: 4242,
                    energy: 123.5,
                    pes: 61,
                }),
            ),
            (
                Budget::Capped(10_000),
                Outcome::Failed("cycle-limit".into()),
            ),
        ] {
            let e = entry(7, b, o);
            let line = e.to_line();
            assert_eq!(JournalEntry::parse_line(&line), Some(e), "{line}");
        }
    }

    #[test]
    fn pnr_derived_divider_round_trips_as_null() {
        let mut e = entry(
            9,
            Budget::Full,
            Outcome::Done(Score {
                cycles: 1,
                energy: 0.5,
                pes: 2,
            }),
        );
        e.candidate.divider = None;
        let line = e.to_line();
        assert!(line.contains("\"divider\":null"), "{line}");
        assert_eq!(JournalEntry::parse_line(&line), Some(e));
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        assert_eq!(JournalEntry::parse_line(""), None);
        assert_eq!(JournalEntry::parse_line("{\"hash\":12"), None);
        assert_eq!(JournalEntry::parse_line("not json at all"), None);
        // Truncated mid-field.
        let full = entry(
            1,
            Budget::Full,
            Outcome::Done(Score {
                cycles: 10,
                energy: 1.0,
                pes: 1,
            }),
        )
        .to_line();
        assert_eq!(JournalEntry::parse_line(&full[..full.len() / 2]), None);
    }

    #[test]
    fn disk_journal_replays_and_skips_garbage() {
        let dir = std::env::temp_dir().join(format!("nupea-dse-journal-{}", std::process::id()));
        let path = dir.join("j.jsonl");
        std::fs::remove_file(&path).ok();
        {
            let mut j = Journal::open(&path).unwrap();
            j.record(entry(
                1,
                Budget::Capped(100),
                Outcome::Done(Score {
                    cycles: 10,
                    energy: 1.0,
                    pes: 1,
                }),
            ))
            .unwrap();
            j.record(entry(1, Budget::Full, Outcome::Failed("deadlock".into())))
                .unwrap();
        }
        // Simulate a kill mid-append: garbage tail.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{\"hash\":99,\"workl")
            .unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replayed, 2);
        assert_eq!(j.skipped, 1);
        assert!(j.lookup(1, &Budget::Capped(100)).is_some());
        assert!(j.lookup(1, &Budget::Full).is_some());
        assert!(j.lookup(1, &Budget::Capped(999)).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
