//! The output record shared by `genasm align`, `genasm pipeline`, and
//! the alignment server.
//!
//! All paths must produce *byte-identical* output on the same
//! workload, so there is exactly one formatter per format: this
//! module. The native TSV row is tab-separated:
//!
//! ```text
//! qname  qlen  tname  tstart  tend  edit_distance  cigar  identity
//! ```
//!
//! `identity` is matches / alignment columns ([`Alignment::column_identity`])
//! printed with four decimals. [`AlignRecord::parse_tsv`] inverts the
//! formatter (used by tests and any downstream tooling).
//!
//! Rows render straight into a caller's byte buffer
//! ([`AlignRecord::write_tsv`], [`AlignRecord::write_paf`],
//! [`OutputFormat::write_line`]) with hand-formatted integers and
//! CIGARs; the `String`-returning forms are thin wrappers. Consumers
//! render each row exactly once, and the sink never renders at all: it
//! charges a session's output budget [`AlignRecord::tsv_len`], which
//! is computed without rendering.
//!
//! [`AlignRecord::to_paf`] renders the same record as a standard PAF
//! row (minimap2 convention: 12 mandatory columns plus `NM:i:` and
//! `cg:Z:` tags), selected via [`OutputFormat`] on every front end
//! (`--format tsv|paf` on the CLI, `SET format` on the server
//! protocol). [`AlignRecord::parse_paf`] inverts it. Coordinates in
//! both formats refer to the *oriented* query (the mapper
//! reverse-complements reverse-strand reads before alignment); the PAF
//! strand column records which orientation that was.
//!
//! Name columns (`qname`, `tname`) are backslash-escaped on write
//! (`\t`, `\n`, `\r`, `\\`) so a read name containing a tab or newline
//! cannot corrupt the row structure; the parsers unescape them and
//! reject malformed escapes. Names without those characters are
//! emitted byte-for-byte unchanged, so the escaping is invisible to
//! the determinism contract.

use std::cmp::Ordering;

use align_core::cigar::{decimal_len, push_decimal};
use align_core::{Alignment, Cigar};

/// Escape a name field for TSV: `\` → `\\`, tab → `\t`, newline →
/// `\n`, carriage return → `\r`. Ordinary names (no specials) are
/// returned unchanged.
pub fn escape_name(s: &str) -> std::borrow::Cow<'_, str> {
    if !s.contains(['\\', '\t', '\n', '\r']) {
        return std::borrow::Cow::Borrowed(s);
    }
    let mut out = Vec::with_capacity(s.len() + 4);
    push_escaped(&mut out, s);
    std::borrow::Cow::Owned(into_string(out))
}

/// Append `s` escaped as by [`escape_name`] — the one escaper. The
/// escaped characters are ASCII, so escaping byte by byte keeps UTF-8
/// intact.
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let esc: &[u8] = match b {
            b'\\' => b"\\\\",
            b'\t' => b"\\t",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            _ => continue,
        };
        out.extend_from_slice(&bytes[plain..i]);
        out.extend_from_slice(esc);
        plain = i + 1;
    }
    out.extend_from_slice(&bytes[plain..]);
}

/// Length of [`escape_name`]`(s)`: every escaped character doubles.
fn escaped_len(s: &str) -> usize {
    s.len()
        + s.bytes()
            .filter(|b| matches!(b, b'\\' | b'\t' | b'\n' | b'\r'))
            .count()
}

/// The identity column: `{:.4}`, left to `core::fmt` so rounding of
/// exact ties stays the standard library's.
fn push_identity(out: &mut Vec<u8>, identity: f64) {
    use std::io::Write;
    write!(out, "{identity:.4}").expect("writing to a Vec cannot fail");
}

/// Length of the identity column, counted without a buffer.
fn identity_len(identity: f64) -> usize {
    use std::fmt::Write;
    struct Count(usize);
    impl Write for Count {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0 += s.len();
            Ok(())
        }
    }
    let mut n = Count(0);
    write!(n, "{identity:.4}").expect("counting cannot fail");
    n.0
}

/// Bytes rendered by a renderer into a `String`: every piece is ASCII
/// or a copy of a UTF-8 name, so validation cannot fail.
fn into_string(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("rendered rows are UTF-8")
}

/// Invert [`escape_name`]; rejects dangling or unknown escapes with a
/// clear error.
pub fn unescape_name(s: &str) -> Result<String, String> {
    if !s.contains('\\') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => {
                return Err(format!(
                    "bad escape sequence '\\{other}' in name field {s:?}"
                ))
            }
            None => return Err(format!("dangling backslash in name field {s:?}")),
        }
    }
    Ok(out)
}

/// One output row of `align` / `pipeline`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlignRecord {
    /// Read name.
    pub qname: String,
    /// Read length in bases.
    pub qlen: usize,
    /// Reference name.
    pub tname: String,
    /// Total reference length in bases (PAF column 7; not part of the
    /// TSV row, so [`AlignRecord::parse_tsv`] cannot recover it).
    pub tsize: usize,
    /// Window start on the reference.
    pub tstart: usize,
    /// Window end on the reference (exclusive).
    pub tend: usize,
    /// True when the aligned query was the reverse complement of the
    /// original read (PAF strand `-`; not part of the TSV row).
    pub reverse: bool,
    /// Unit edit distance of the alignment.
    pub edit_distance: usize,
    /// The alignment path.
    pub cigar: Cigar,
    /// Matches / alignment columns.
    pub identity: f64,
}

impl AlignRecord {
    /// Build a record from an alignment and its task coordinates.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        qname: &str,
        qlen: usize,
        tname: &str,
        tsize: usize,
        tstart: usize,
        tlen: usize,
        reverse: bool,
        aln: &Alignment,
    ) -> AlignRecord {
        AlignRecord {
            qname: qname.to_string(),
            qlen,
            tname: tname.to_string(),
            tsize,
            tstart,
            tend: tstart + tlen,
            reverse,
            edit_distance: aln.edit_distance,
            identity: aln.column_identity(),
            cigar: aln.cigar.clone(),
        }
    }

    /// The deterministic per-read ordering: best distance first, then
    /// reference position, then the CIGAR as a tiebreak so equal-cost
    /// candidates have a total order.
    pub fn sort_key(&self) -> (usize, usize, usize, String) {
        (
            self.edit_distance,
            self.tstart,
            self.tend,
            self.cigar.to_string(),
        )
    }

    /// Compare two rows by [`AlignRecord::sort_key`] without building
    /// the keys: the numeric fields decide almost every pair, and the
    /// CIGAR texts are compared — without allocating — only on a full
    /// tie. Exactly `a.sort_key().cmp(&b.sort_key())`.
    pub fn cmp_sort_key(a: &AlignRecord, b: &AlignRecord) -> Ordering {
        (a.edit_distance, a.tstart, a.tend)
            .cmp(&(b.edit_distance, b.tstart, b.tend))
            .then_with(|| a.cigar.cmp_rendered(&b.cigar))
    }

    /// Format as one TSV row (no trailing newline). Name columns are
    /// escaped so tabs/newlines in read names cannot break the row.
    pub fn to_tsv(&self) -> String {
        let mut out = Vec::new();
        self.write_tsv(&mut out);
        into_string(out)
    }

    /// Append the [`AlignRecord::to_tsv`] row (no trailing newline) to
    /// `out`.
    pub fn write_tsv(&self, out: &mut Vec<u8>) {
        push_escaped(out, &self.qname);
        out.push(b'\t');
        push_decimal(out, self.qlen as u64);
        out.push(b'\t');
        push_escaped(out, &self.tname);
        for n in [self.tstart, self.tend, self.edit_distance] {
            out.push(b'\t');
            push_decimal(out, n as u64);
        }
        out.push(b'\t');
        self.cigar.write_to(out);
        out.push(b'\t');
        push_identity(out, self.identity);
    }

    /// Length in bytes of [`AlignRecord::to_tsv`], computed without
    /// rendering the row — what the sink charges a session's output
    /// budget.
    pub fn tsv_len(&self) -> usize {
        escaped_len(&self.qname)
            + escaped_len(&self.tname)
            + [self.qlen, self.tstart, self.tend, self.edit_distance]
                .iter()
                .map(|&n| decimal_len(n as u64))
                .sum::<usize>()
            + self.cigar.rendered_len()
            + identity_len(self.identity)
            + 7 // tabs
    }

    /// Parse a row produced by [`AlignRecord::to_tsv`]. The TSV row
    /// does not carry `tsize` or strand, so those come back as `0` and
    /// forward; use PAF when they matter downstream.
    pub fn parse_tsv(line: &str) -> Result<AlignRecord, String> {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() != 8 {
            return Err(format!("expected 8 columns, got {}", cols.len()));
        }
        let num = |i: usize| -> Result<usize, String> {
            cols[i]
                .parse()
                .map_err(|_| format!("bad number in column {}: {:?}", i + 1, cols[i]))
        };
        let cigar = Cigar::parse(cols[6]).map_err(|e| format!("bad CIGAR: {e}"))?;
        let identity: f64 = cols[7]
            .parse()
            .map_err(|_| format!("bad identity: {:?}", cols[7]))?;
        Ok(AlignRecord {
            qname: unescape_name(cols[0])?,
            qlen: num(1)?,
            tname: unescape_name(cols[2])?,
            tsize: 0,
            tstart: num(3)?,
            tend: num(4)?,
            reverse: false,
            edit_distance: num(5)?,
            cigar,
            identity,
        })
    }

    /// Format as one PAF row (no trailing newline), minimap2
    /// convention: 12 mandatory columns, then `NM:i:` (edit distance)
    /// and `cg:Z:` (CIGAR) tags. Query coordinates refer to the
    /// oriented query; the strand column records the orientation.
    /// Mapping quality is not computed by this suite, so column 12 is
    /// the PAF "missing" value 255.
    pub fn to_paf(&self) -> String {
        let mut out = Vec::new();
        self.write_paf(&mut out);
        into_string(out)
    }

    /// Append the [`AlignRecord::to_paf`] row (no trailing newline) to
    /// `out`.
    pub fn write_paf(&self, out: &mut Vec<u8>) {
        let (m, x, i, d) = self.cigar.op_counts();
        push_escaped(out, &self.qname);
        out.push(b'\t');
        push_decimal(out, self.qlen as u64);
        out.extend_from_slice(b"\t0\t");
        push_decimal(out, self.cigar.query_len() as u64);
        out.extend_from_slice(if self.reverse { b"\t-\t" } else { b"\t+\t" });
        push_escaped(out, &self.tname);
        for n in [self.tsize, self.tstart, self.tend, m, m + x + i + d] {
            out.push(b'\t');
            push_decimal(out, n as u64);
        }
        out.extend_from_slice(b"\t255\tNM:i:");
        push_decimal(out, self.edit_distance as u64);
        out.extend_from_slice(b"\tcg:Z:");
        self.cigar.write_to(out);
    }

    /// Parse a row produced by [`AlignRecord::to_paf`]. Requires the
    /// `cg:Z:` tag (the CIGAR carries the alignment path); `NM:i:`
    /// falls back to the CIGAR's edit cost when absent.
    pub fn parse_paf(line: &str) -> Result<AlignRecord, String> {
        let cols: Vec<&str> = line.split('\t').collect();
        if cols.len() < 12 {
            return Err(format!(
                "expected at least 12 PAF columns, got {}",
                cols.len()
            ));
        }
        let num = |i: usize| -> Result<usize, String> {
            cols[i]
                .parse()
                .map_err(|_| format!("bad number in column {}: {:?}", i + 1, cols[i]))
        };
        let reverse = match cols[4] {
            "+" => false,
            "-" => true,
            other => return Err(format!("bad strand column: {other:?}")),
        };
        let mut cigar = None;
        let mut nm = None;
        for tag in &cols[12..] {
            if let Some(cg) = tag.strip_prefix("cg:Z:") {
                cigar = Some(Cigar::parse(cg).map_err(|e| format!("bad cg tag: {e}"))?);
            } else if let Some(v) = tag.strip_prefix("NM:i:") {
                nm = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("bad NM tag: {v:?}"))?,
                );
            }
        }
        let cigar = cigar.ok_or_else(|| "missing cg:Z: tag".to_string())?;
        let matches = num(9)?;
        let block = num(10)?;
        if block == 0 {
            return Err("zero alignment block length".to_string());
        }
        Ok(AlignRecord {
            qname: unescape_name(cols[0])?,
            qlen: num(1)?,
            tname: unescape_name(cols[5])?,
            tsize: num(6)?,
            tstart: num(7)?,
            tend: num(8)?,
            reverse,
            edit_distance: nm.unwrap_or_else(|| cigar.edit_cost()),
            identity: matches as f64 / block as f64,
            cigar,
        })
    }
}

/// The output formats every front end (CLI `--format`, server
/// `SET format`) can render an [`AlignRecord`] in. Exactly one
/// formatter exists per format, so any two paths configured the same
/// way are byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// The suite's native 8-column TSV ([`AlignRecord::to_tsv`]).
    #[default]
    Tsv,
    /// Standard PAF with `NM:i:`/`cg:Z:` tags ([`AlignRecord::to_paf`]).
    Paf,
}

impl OutputFormat {
    /// Every format with its CLI/protocol name.
    pub const ALL: [(OutputFormat, &'static str); 2] =
        [(OutputFormat::Tsv, "tsv"), (OutputFormat::Paf, "paf")];

    /// Render one record as a line in this format (no newline).
    pub fn line(&self, rec: &AlignRecord) -> String {
        match self {
            OutputFormat::Tsv => rec.to_tsv(),
            OutputFormat::Paf => rec.to_paf(),
        }
    }

    /// Append one record as a line in this format, newline included,
    /// to `out` — the consumers' render path: one render per row, into
    /// a reused buffer.
    pub fn write_line(&self, rec: &AlignRecord, out: &mut Vec<u8>) {
        match self {
            OutputFormat::Tsv => rec.write_tsv(out),
            OutputFormat::Paf => rec.write_paf(out),
        }
        out.push(b'\n');
    }
}

impl std::str::FromStr for OutputFormat {
    type Err = ParseFormatError;

    fn from_str(s: &str) -> Result<OutputFormat, ParseFormatError> {
        OutputFormat::ALL
            .iter()
            .find(|(_, name)| *name == s)
            .map(|&(fmt, _)| fmt)
            .ok_or_else(|| ParseFormatError {
                given: s.to_string(),
            })
    }
}

impl std::fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (_, name) = OutputFormat::ALL
            .iter()
            .find(|(fmt, _)| fmt == self)
            .expect("every format is in OutputFormat::ALL");
        f.write_str(name)
    }
}

/// Error for an unrecognized output format name; lists the valid ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFormatError {
    /// What the user typed.
    pub given: String,
}

impl std::fmt::Display for ParseFormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown format '{}'; valid formats are ", self.given)?;
        for (i, (_, name)) in OutputFormat::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "'{name}'")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseFormatError {}

#[cfg(test)]
mod tests {
    use super::*;
    use align_core::Seq;

    fn aligned(q: &str, t: &str) -> Alignment {
        let q = Seq::from_ascii(q.as_bytes()).unwrap();
        let t = Seq::from_ascii(t.as_bytes()).unwrap();
        align_core::nw_align(&q, &t)
    }

    /// Shorthand for the tests that don't care about tsize/strand.
    fn rec(
        qname: &str,
        qlen: usize,
        tname: &str,
        tstart: usize,
        tlen: usize,
        aln: &Alignment,
    ) -> AlignRecord {
        AlignRecord::new(qname, qlen, tname, 5_000, tstart, tlen, false, aln)
    }

    #[test]
    fn tsv_round_trip() {
        let aln = aligned("ACGTACGT", "ACGAACGT");
        let rec = rec("read1", 8, "chr1", 100, 8, &aln);
        let line = rec.to_tsv();
        let back = AlignRecord::parse_tsv(&line).unwrap();
        assert_eq!(back.qname, "read1");
        assert_eq!(back.qlen, 8);
        assert_eq!(back.tname, "chr1");
        assert_eq!(back.tstart, 100);
        assert_eq!(back.tend, 108);
        assert_eq!(back.edit_distance, aln.edit_distance);
        assert_eq!(back.cigar, aln.cigar);
        assert!((back.identity - aln.column_identity()).abs() < 1e-3);
    }

    #[test]
    fn identity_formats_with_four_decimals() {
        let aln = aligned("ACGT", "ACGT");
        let rec = rec("r", 4, "t", 0, 4, &aln);
        assert!(rec.to_tsv().ends_with("\t1.0000"));
    }

    #[test]
    fn malformed_rows_are_rejected() {
        assert!(AlignRecord::parse_tsv("too\tfew").is_err());
        let aln = aligned("ACGT", "ACGT");
        let mut line = rec("r", 4, "t", 0, 4, &aln).to_tsv();
        line = line.replace("4M", "4Q");
        assert!(AlignRecord::parse_tsv(&line).is_err());
    }

    #[test]
    fn names_with_tabs_and_spaces_round_trip() {
        let aln = aligned("ACGTACGT", "ACGAACGT");
        for name in [
            "plain name with spaces",
            "tab\tseparated\tname",
            "newline\nname",
            "cr\rname",
            "back\\slash\\t-literal",
            "all\t\n\r\\of them",
        ] {
            let rec = rec(name, 8, "chr 1\twith tab", 100, 8, &aln);
            let line = rec.to_tsv();
            // The row structure survives: still exactly 8 columns, one line.
            assert_eq!(line.split('\t').count(), 8, "{name:?} broke the row");
            assert_eq!(line.lines().count(), 1, "{name:?} broke the row");
            let back = AlignRecord::parse_tsv(&line)
                .unwrap_or_else(|e| panic!("{name:?} failed to parse back: {e}"));
            assert_eq!(back.qname, name);
            assert_eq!(back.tname, "chr 1\twith tab");
        }
    }

    #[test]
    fn plain_names_are_unescaped_bytes() {
        // The escaping must be invisible for ordinary names (the
        // determinism contract compares raw output bytes).
        let aln = aligned("ACGT", "ACGT");
        let rec = rec("read_1 suffix", 4, "chr1", 0, 4, &aln);
        assert!(rec.to_tsv().starts_with("read_1 suffix\t4\tchr1\t"));
    }

    #[test]
    fn malformed_escapes_are_rejected_with_clear_errors() {
        let aln = aligned("ACGT", "ACGT");
        let line = rec("r", 4, "t", 0, 4, &aln).to_tsv();
        let bad = line.replacen("r\t", "bad\\x\t", 1);
        let err = AlignRecord::parse_tsv(&bad).unwrap_err();
        assert!(err.contains("bad escape sequence"), "{err}");
        let dangling = line.replacen("r\t", "trailing\\\t", 1);
        let err = AlignRecord::parse_tsv(&dangling).unwrap_err();
        assert!(err.contains("dangling backslash"), "{err}");
    }

    #[test]
    fn paf_round_trip_preserves_every_field() {
        let aln = aligned("ACGTACGT", "ACGAACGT");
        for reverse in [false, true] {
            let rec = AlignRecord::new("read1", 8, "chr1", 90_000, 100, 8, reverse, &aln);
            let line = rec.to_paf();
            let cols: Vec<&str> = line.split('\t').collect();
            assert_eq!(cols.len(), 14, "12 mandatory + NM + cg: {line}");
            assert_eq!(cols[2], "0", "qstart");
            assert_eq!(cols[4], if reverse { "-" } else { "+" });
            assert_eq!(cols[6], "90000", "tsize is PAF column 7");
            assert_eq!(cols[11], "255", "mapq is the PAF missing value");
            let back = AlignRecord::parse_paf(&line).unwrap();
            assert_eq!(back, rec, "PAF round trip must be lossless");
        }
    }

    #[test]
    fn paf_columns_are_cigar_consistent() {
        let aln = aligned("ACGTACGT", "ACGAACGGT");
        let rec = AlignRecord::new("r", 8, "t", 500, 10, 9, false, &aln);
        let cols_line = rec.to_paf();
        let cols: Vec<&str> = cols_line.split('\t').collect();
        let (m, x, i, d) = rec.cigar.op_counts();
        assert_eq!(cols[3], rec.cigar.query_len().to_string(), "qend");
        assert_eq!(cols[9], m.to_string(), "matches");
        assert_eq!(cols[10], (m + x + i + d).to_string(), "block length");
        assert_eq!(cols[12], format!("NM:i:{}", rec.edit_distance));
        assert_eq!(cols[13], format!("cg:Z:{}", rec.cigar));
    }

    #[test]
    fn malformed_paf_rejected_with_clear_errors() {
        let aln = aligned("ACGT", "ACGT");
        let good = AlignRecord::new("r", 4, "t", 100, 0, 4, false, &aln).to_paf();
        assert!(AlignRecord::parse_paf("a\tb\tc")
            .unwrap_err()
            .contains("12"));
        let bad_strand = good.replacen("\t+\t", "\t?\t", 1);
        assert!(AlignRecord::parse_paf(&bad_strand)
            .unwrap_err()
            .contains("strand"));
        let no_cg = good.replace("cg:Z:", "xx:Z:");
        assert!(AlignRecord::parse_paf(&no_cg)
            .unwrap_err()
            .contains("cg:Z:"));
    }

    #[test]
    fn paf_names_are_escaped_like_tsv() {
        let aln = aligned("ACGTACGT", "ACGAACGT");
        let rec = AlignRecord::new("tab\tname", 8, "chr\t1", 1_000, 100, 8, true, &aln);
        let line = rec.to_paf();
        assert_eq!(line.split('\t').count(), 14, "escaping kept the row intact");
        let back = AlignRecord::parse_paf(&line).unwrap();
        assert_eq!(back.qname, "tab\tname");
        assert_eq!(back.tname, "chr\t1");
    }

    #[test]
    fn output_format_parses_and_lists_choices() {
        use std::str::FromStr;
        for (fmt, name) in OutputFormat::ALL {
            assert_eq!(OutputFormat::from_str(name).unwrap(), fmt);
            assert_eq!(fmt.to_string(), name);
        }
        let err = OutputFormat::from_str("sam").unwrap_err().to_string();
        assert!(err.contains("'sam'"), "{err}");
        assert!(err.contains("'tsv'") && err.contains("'paf'"), "{err}");

        let aln = aligned("ACGT", "ACGT");
        let r = rec("r", 4, "t", 0, 4, &aln);
        assert_eq!(OutputFormat::Tsv.line(&r), r.to_tsv());
        assert_eq!(OutputFormat::Paf.line(&r), r.to_paf());
    }

    #[test]
    fn sort_key_orders_best_first() {
        let good = rec("r", 8, "t", 5, 8, &aligned("ACGTACGT", "ACGTACGT"));
        let bad = rec("r", 8, "t", 0, 8, &aligned("ACGTACGT", "ACCTACGA"));
        let mut rows = [bad.clone(), good.clone()];
        rows.sort_by_key(AlignRecord::sort_key);
        assert_eq!(rows[0], good);
        assert_eq!(rows[1], bad);
    }
}
