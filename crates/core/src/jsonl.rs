//! Torn-tail-safe append-only JSONL files, shared by the DSE journal,
//! the fault-campaign journal, and the shard coordination journal.
//!
//! The workspace's resumable subsystems (design-space searches, fault
//! campaigns, multi-process shard coordination) persist progress as one
//! flat JSON object per line. Three invariants make that kill-and-resume
//! safe:
//!
//! - **Append repair.** A `kill -9` mid-append leaves the file ending
//!   mid-line. [`JsonlFile::open`] detects the torn tail (no trailing
//!   newline) and the next [`JsonlFile::append`] starts on a fresh line,
//!   so the torn record corrupts nothing that follows it.
//! - **Replay tolerance.** [`JsonlFile::open`] hands back every
//!   non-blank line; callers parse each and simply skip (and count) the
//!   unparseable ones — a torn tail costs at most one record, never the
//!   file.
//! - **Corruption detection.** Lines written through
//!   [`with_checksum`] carry a trailing FNV-1a checksum field.
//!   [`JsonlFile::open`] verifies every checksummed line, drops the
//!   corrupt ones from replay, and reports them via
//!   [`JsonlFile::corruption`] — so a flipped bit in the *middle* of a
//!   journal (disk rot, partial overwrite) is detected instead of being
//!   replayed as a plausible-looking record. Unchecksummed lines pass
//!   through untouched, keeping old journals readable.
//!
//! Appends are built as a single buffer and issued as one `write_all`,
//! so concurrent multi-process appenders (the shard coordination
//! journal) in `O_APPEND` mode never interleave bytes of two records.
//! [`JsonlFile::append_durable`] additionally fsyncs before returning,
//! which the lease protocol uses to make claims durable before they are
//! acted on.
//!
//! The module also hosts the flat-object field helpers ([`field`],
//! [`string_field`], [`format_f64`], [`escape`]) used to hand-roll and
//! re-parse those lines; the workspace is dependency-free, so there is
//! no serde. [`field`] understands backslash escapes inside string
//! values (worker ids and hostnames in lease records may contain quotes).

use std::fs::OpenOptions;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// 64-bit FNV-1a — the workspace's stable hash for journal keys, shard
/// assignment, and per-line checksums. The constants are load-bearing:
/// journals persist these hashes across releases.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Integrity of one journal line with respect to its optional trailing
/// checksum field (see [`with_checksum`] / [`verify_checksum`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Integrity {
    /// The line carries no checksum field (pre-checksum journals).
    Absent,
    /// The checksum matches the line content.
    Valid,
    /// The line carries a checksum that does not match — the line was
    /// altered after it was written.
    Corrupt,
}

/// Append a trailing `"cksum"` field to a flat JSON object line: the
/// FNV-1a hash of the line *without* the field. [`verify_checksum`]
/// (and [`JsonlFile::open`]) can then detect any later alteration.
#[must_use]
pub fn with_checksum(line: &str) -> String {
    let Some(body) = line.strip_suffix('}') else {
        return line.to_string();
    };
    format!("{body},\"cksum\":{}}}", fnv1a(line.as_bytes()))
}

/// Verify a line's trailing checksum, if it has one. The checksum must
/// be the final field (which is where [`with_checksum`] puts it).
#[must_use]
pub fn verify_checksum(line: &str) -> Integrity {
    let Some(idx) = line.rfind(",\"cksum\":") else {
        return Integrity::Absent;
    };
    let Some(num) = line[idx + ",\"cksum\":".len()..].strip_suffix('}') else {
        // A line that mentions cksum but does not end with the field —
        // either torn mid-append (handled by tail-torn skipping) or
        // mangled; both are corrupt as far as the checksum goes.
        return Integrity::Corrupt;
    };
    let Ok(want) = num.parse::<u64>() else {
        return Integrity::Corrupt;
    };
    let original = format!("{}}}", &line[..idx]);
    if fnv1a(original.as_bytes()) == want {
        Integrity::Valid
    } else {
        Integrity::Corrupt
    }
}

/// Mid-file corruption found at [`JsonlFile::open`]: checksummed lines
/// whose content no longer matches their checksum. (A torn *tail* is
/// expected after a kill and tracked separately; corruption in the
/// middle of a journal is not — it means the file was altered after it
/// was written.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corruption {
    /// 1-based line number of the first corrupt line.
    pub first_line: usize,
    /// Total corrupt lines dropped from replay.
    pub count: usize,
}

/// An append-only JSONL file with torn-tail repair and checksum
/// verification, or an in-memory stand-in that accepts appends and
/// discards them (tests, throwaway runs).
#[derive(Debug)]
pub struct JsonlFile {
    path: Option<PathBuf>,
    /// The file ends mid-line (kill during append); the next record must
    /// start on a fresh line or it would merge with the torn tail.
    tail_torn: bool,
    /// Checksummed lines that failed verification at open.
    corruption: Option<Corruption>,
}

impl JsonlFile {
    /// A purely in-memory file: [`JsonlFile::append`] is a no-op.
    #[must_use]
    pub fn in_memory() -> Self {
        JsonlFile {
            path: None,
            tail_torn: false,
            corruption: None,
        }
    }

    /// Open (or create) an on-disk JSONL file, returning it together
    /// with every existing non-blank line for the caller to replay. The
    /// parent directory is created on demand. A file ending without a
    /// trailing newline is marked torn; the next append repairs it.
    ///
    /// Checksummed lines (see [`with_checksum`]) are verified: corrupt
    /// ones are dropped from the returned lines and reported through
    /// [`JsonlFile::corruption`]. A line that does not end in `}` — a
    /// torn tail, or a torn row that a later append has moved past — is
    /// torn, not corrupt, and is handed back for the caller's parser to
    /// skip.
    ///
    /// # Errors
    ///
    /// I/O errors creating the parent directory or reading the file.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<(Self, Vec<String>)> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut file = JsonlFile {
            path: Some(path.clone()),
            tail_torn: false,
            corruption: None,
        };
        let mut lines = Vec::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                file.tail_torn = !text.is_empty() && !text.ends_with('\n');
                for (i, l) in text.lines().enumerate() {
                    if l.trim().is_empty() {
                        continue;
                    }
                    // A line that does not end in `}` cannot be a complete
                    // record: it is a kill artifact (a torn tail, or one a
                    // later append already moved past), not corruption. It
                    // is exempt from checksum verification and skipped by
                    // the caller's parser.
                    if l.ends_with('}') && verify_checksum(l) == Integrity::Corrupt {
                        let c = file.corruption.get_or_insert(Corruption {
                            first_line: i + 1,
                            count: 0,
                        });
                        c.count += 1;
                        continue;
                    }
                    lines.push(l.to_string());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok((file, lines))
    }

    /// The on-disk path, if any.
    #[must_use]
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Checksummed lines that failed verification at open (dropped from
    /// the replayed lines). `None` when the file was clean.
    #[must_use]
    pub fn corruption(&self) -> Option<&Corruption> {
        self.corruption.as_ref()
    }

    /// Append one line (the trailing newline is added here). If the file
    /// was opened with a torn tail, a repair newline is prepended so this
    /// record starts fresh. The whole record is issued as one `O_APPEND`
    /// write, so concurrent appenders never interleave bytes. A kill
    /// loses at most this final line.
    ///
    /// # Errors
    ///
    /// I/O errors appending to the file.
    pub fn append(&mut self, line: &str) -> io::Result<()> {
        self.append_impl(line, false)
    }

    /// [`JsonlFile::append`], then fsync before returning: the record is
    /// durable — not just visible — once this returns. Lease records use
    /// this so a claim another worker can observe survives a host crash.
    ///
    /// # Errors
    ///
    /// I/O errors appending to or syncing the file.
    pub fn append_durable(&mut self, line: &str) -> io::Result<()> {
        self.append_impl(line, true)
    }

    fn append_impl(&mut self, line: &str, durable: bool) -> io::Result<()> {
        if let Some(path) = &self.path {
            let mut f = OpenOptions::new().create(true).append(true).open(path)?;
            let mut buf = Vec::with_capacity(line.len() + 2);
            if std::mem::take(&mut self.tail_torn) {
                buf.push(b'\n');
            }
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
            f.write_all(&buf)?;
            if durable {
                f.sync_all()?;
            }
        }
        Ok(())
    }

    /// Flush previously appended records to stable storage (fsync). A
    /// no-op for in-memory files and files never appended to.
    ///
    /// # Errors
    ///
    /// I/O errors opening or syncing the file.
    pub fn sync(&self) -> io::Result<()> {
        if let Some(path) = &self.path {
            match OpenOptions::new().append(true).open(path) {
                Ok(f) => f.sync_all()?,
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Format an f64 the way the runner's JSON does (plain `{v}`; `null` for
/// non-finite).
#[must_use]
pub fn format_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Escape a string for inclusion in a JSON string literal (quotes not
/// included). Writers of journal lines with free-form string values
/// (worker ids, hostnames) must escape them so [`field`]'s scanning and
/// the checksum layer see well-formed lines.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Undo [`escape`] (the subset of JSON string escapes it emits, plus
/// `\uXXXX`, including UTF-16 surrogate pairs for astral-plane
/// characters such as emoji). Returns `None` for malformed escapes and
/// unpaired surrogates.
#[must_use]
pub fn unescape(s: &str) -> Option<String> {
    fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
        let hex: String = chars.by_ref().take(4).collect();
        if hex.len() != 4 {
            return None;
        }
        u32::from_str_radix(&hex, 16).ok()
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let code = hex4(&mut chars)?;
                if (0xD800..0xDC00).contains(&code) {
                    // High surrogate: JSON encodes astral-plane characters
                    // as a \uXXXX\uXXXX pair; the pair decodes to one char.
                    // A high surrogate not followed by a low one is
                    // malformed JSON, not a decodable character.
                    if chars.next()? != '\\' || chars.next()? != 'u' {
                        return None;
                    }
                    let low = hex4(&mut chars)?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return None;
                    }
                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    out.push(char::from_u32(c)?);
                } else if (0xDC00..0xE000).contains(&code) {
                    return None; // unpaired low surrogate
                } else {
                    out.push(char::from_u32(code)?);
                }
            }
            _ => return None,
        }
    }
    Some(out)
}

/// The raw text of field `k` (between `"k":` and the end of the value).
/// Only valid for the flat single-level objects this module's users
/// write. String values are scanned with backslash-escape awareness, so
/// `\"` inside a value does not terminate it; non-string values end at
/// the next `,` or `}`.
#[must_use]
pub fn field(line: &str, k: &str) -> Option<String> {
    let pat = format!("\"{k}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(quoted) = rest.strip_prefix('"') {
        // Scan for the closing quote, honoring backslash escapes.
        let mut escaped = false;
        for (i, c) in quoted.char_indices() {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                return Some(rest[..i + 2].to_string());
            }
        }
        None
    } else {
        let end = rest.find([',', '}'])?;
        Some(rest[..end].to_string())
    }
}

/// Field `k` as a string (quotes stripped, escapes undone).
#[must_use]
pub fn string_field(line: &str, k: &str) -> Option<String> {
    let v = field(line, k)?;
    unescape(v.strip_prefix('"')?.strip_suffix('"')?)
}

/// Field `k` as a u64.
#[must_use]
pub fn u64_field(line: &str, k: &str) -> Option<u64> {
    field(line, k)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nupea-jsonl-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn in_memory_accepts_appends_without_a_path() {
        let mut f = JsonlFile::in_memory();
        assert!(f.path().is_none());
        f.append("{\"a\":1}").unwrap();
        f.append_durable("{\"a\":2}").unwrap();
        f.sync().unwrap();
    }

    #[test]
    fn field_helpers_parse_flat_objects() {
        let line = "{\"hash\":7,\"name\":\"spmv\",\"x\":null,\"last\":9}";
        assert_eq!(field(line, "hash").as_deref(), Some("7"));
        assert_eq!(field(line, "x").as_deref(), Some("null"));
        assert_eq!(field(line, "last").as_deref(), Some("9"));
        assert_eq!(string_field(line, "name").as_deref(), Some("spmv"));
        assert_eq!(u64_field(line, "hash"), Some(7));
        assert_eq!(field(line, "missing"), None);
        assert_eq!(string_field(line, "hash"), None);
    }

    #[test]
    fn field_handles_escaped_quotes_inside_strings() {
        // A worker id containing quotes, backslashes, and a comma — the
        // lease-record case the shard layer writes.
        let worker = "host\"7\",rack\\2";
        let line = format!(
            "{{\"worker\":\"{}\",\"epoch\":3,\"note\":\"tab\\there\"}}",
            escape(worker)
        );
        assert_eq!(string_field(&line, "worker").as_deref(), Some(worker));
        assert_eq!(u64_field(&line, "epoch"), Some(3));
        assert_eq!(string_field(&line, "note").as_deref(), Some("tab\there"));
        // The raw field text keeps the escapes.
        assert_eq!(
            field(&line, "worker").as_deref(),
            Some("\"host\\\"7\\\",rack\\\\2\"")
        );
    }

    #[test]
    fn field_rejects_unterminated_strings() {
        assert_eq!(field("{\"a\":\"unterminated", "a"), None);
        assert_eq!(field("{\"a\":\"ends-in-escape\\", "a"), None);
    }

    #[test]
    fn json_escapes_control_and_quote_chars() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "q\"q", "b\\b", "n\nn", "t\tt", "\u{1}", "héllo"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "{s:?}");
        }
        assert_eq!(unescape("\\u0041").as_deref(), Some("A"));
        assert_eq!(unescape("\\q"), None, "unknown escape is malformed");
        assert_eq!(unescape("\\u00"), None, "short unicode escape");
        assert_eq!(unescape("dangling\\"), None);
    }

    #[test]
    fn unescape_decodes_surrogate_pairs() {
        // External JSON (the serve endpoints) encodes astral-plane chars
        // as UTF-16 surrogate pairs.
        assert_eq!(unescape("\\ud83d\\ude00").as_deref(), Some("😀"));
        assert_eq!(unescape("\\uD83D\\uDE00").as_deref(), Some("😀"));
        assert_eq!(unescape("a\\ud83d\\ude00b").as_deref(), Some("a😀b"));
        // Raw astral chars (what `escape` emits) still round-trip.
        for s in ["😀", "mixed 😀 and \\u0041 🚀", "𝔘𝔫𝔦"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "{s:?}");
        }
        // Unpaired or malformed surrogates are rejected, not mangled.
        assert_eq!(unescape("\\ud83d"), None, "lone high surrogate");
        assert_eq!(unescape("\\ude00"), None, "lone low surrogate");
        assert_eq!(unescape("\\ud83dx"), None, "high then raw char");
        assert_eq!(unescape("\\ud83d\\n"), None, "high then other escape");
        assert_eq!(unescape("\\ud83d\\ud83d"), None, "high then high");
        assert_eq!(unescape("\\ud83d\\u0041"), None, "high then non-surrogate");
        assert_eq!(unescape("\\ud83d\\ude0"), None, "truncated low half");
    }

    #[test]
    fn format_f64_matches_runner_json() {
        assert_eq!(format_f64(1.5), "1.5");
        assert_eq!(format_f64(f64::NAN), "null");
        assert_eq!(format_f64(f64::INFINITY), "null");
    }

    #[test]
    fn checksums_round_trip_and_detect_tampering() {
        let line = "{\"shard\":3,\"epoch\":1,\"worker\":\"w0\"}";
        let checked = with_checksum(line);
        assert!(checked.starts_with("{\"shard\":3,"), "{checked}");
        assert_eq!(verify_checksum(&checked), Integrity::Valid);
        assert_eq!(verify_checksum(line), Integrity::Absent);
        let tampered = checked.replace("\"epoch\":1", "\"epoch\":2");
        assert_eq!(verify_checksum(&tampered), Integrity::Corrupt);
        // A truncated checksum field is corrupt, not valid.
        assert_eq!(
            verify_checksum(&checked[..checked.len() - 2]),
            Integrity::Corrupt
        );
    }

    #[test]
    fn torn_tail_is_repaired_on_next_append() {
        let dir = scratch("torn");
        let path = dir.join("t.jsonl");
        {
            let (mut f, lines) = JsonlFile::open(&path).unwrap();
            assert!(lines.is_empty());
            f.append("{\"a\":1}").unwrap();
        }
        // Kill mid-append: a torn tail with no newline.
        std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap()
            .write_all(b"{\"a\":2,\"tr")
            .unwrap();
        {
            let (mut f, lines) = JsonlFile::open(&path).unwrap();
            // The torn tail is still handed back; callers skip it at parse.
            assert_eq!(lines, vec!["{\"a\":1}", "{\"a\":2,\"tr"]);
            assert!(f.corruption().is_none(), "a torn tail is not corruption");
            f.append("{\"a\":3}").unwrap();
        }
        let (_, lines) = JsonlFile::open(&path).unwrap();
        assert_eq!(lines, vec!["{\"a\":1}", "{\"a\":2,\"tr", "{\"a\":3}"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_corruption_is_detected_and_dropped() {
        let dir = scratch("corrupt");
        let path = dir.join("c.jsonl");
        {
            let (mut f, _) = JsonlFile::open(&path).unwrap();
            f.append(&with_checksum("{\"k\":1,\"v\":10}")).unwrap();
            f.append(&with_checksum("{\"k\":2,\"v\":20}")).unwrap();
            f.append(&with_checksum("{\"k\":3,\"v\":30}")).unwrap();
        }
        // Flip a value in the *middle* of the file, keeping it parseable
        // JSON — exactly the damage a plain parser would replay happily.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.matches('\n').count(), 3);
        std::fs::write(&path, text.replace("\"v\":20", "\"v\":99")).unwrap();

        let (f, lines) = JsonlFile::open(&path).unwrap();
        assert_eq!(lines.len(), 2, "the corrupt line is dropped");
        assert!(lines.iter().all(|l| !l.contains("\"v\":99")));
        let c = f.corruption().expect("corruption reported");
        assert_eq!(c.first_line, 2);
        assert_eq!(c.count, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_checksummed_tail_is_torn_not_corrupt() {
        let dir = scratch("torn-cksum");
        let path = dir.join("t.jsonl");
        {
            let (mut f, _) = JsonlFile::open(&path).unwrap();
            f.append(&with_checksum("{\"k\":1}")).unwrap();
        }
        let full = std::fs::read_to_string(&path).unwrap();
        // Truncate mid-checksum, no trailing newline: a kill artifact.
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        let (f, lines) = JsonlFile::open(&path).unwrap();
        assert!(f.corruption().is_none(), "torn tails are not corruption");
        assert_eq!(lines.len(), 1, "handed back for the parser to skip");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_checksum_row_stays_torn_after_a_later_append() {
        let dir = scratch("torn-then-append");
        let path = dir.join("t.jsonl");
        {
            let (mut f, _) = JsonlFile::open(&path).unwrap();
            f.append(&with_checksum("{\"shard\":1,\"epoch\":1}"))
                .unwrap();
        }
        // A kill cuts the row inside its checksum digits, with no newline.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 4]).unwrap();
        {
            // The shard's next owner repairs the tail and appends.
            let (mut f, _) = JsonlFile::open(&path).unwrap();
            f.append(&with_checksum("{\"shard\":1,\"epoch\":2}"))
                .unwrap();
        }
        let (f, lines) = JsonlFile::open(&path).unwrap();
        assert!(f.corruption().is_none(), "a torn row is not corruption");
        assert_eq!(lines.len(), 2, "the torn row goes to the parser");
        assert_eq!(verify_checksum(&lines[1]), Integrity::Valid);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_durable_survives_reopen() {
        let dir = scratch("durable");
        let path = dir.join("d.jsonl");
        {
            let (mut f, _) = JsonlFile::open(&path).unwrap();
            f.append_durable(&with_checksum("{\"claim\":1}")).unwrap();
            f.sync().unwrap();
        }
        let (_, lines) = JsonlFile::open(&path).unwrap();
        assert_eq!(lines.len(), 1);
        assert_eq!(verify_checksum(&lines[0]), Integrity::Valid);
        std::fs::remove_dir_all(&dir).ok();
    }
}
