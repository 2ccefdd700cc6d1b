//! Output checks, run on a finished run's record stream, never inside a
//! timed interval.
//!
//! Every line must parse with [`AlignRecord::parse_tsv`], name a read of
//! the input and a contig of the reference, consume exactly the read and
//! the reported reference window, carry as many edit operations as its
//! edit-distance column, and be a valid alignment of the read (on one
//! strand) against that window. The first record of each read is scored
//! against the simulator's truth.

use std::collections::HashMap;
use std::fs::File;
use std::io::BufReader;
use std::path::Path;

use align_core::Seq;
use genasm_pipeline::AlignRecord;
use readsim::{read_fastx, read_multi_fastx};

use crate::gen::load_truth;

/// Counts from one checked output.
pub struct CheckReport {
    records: u64,
    reads: u64,
    mapped_reads: u64,
    correct_reads: u64,
    errors: u64,
    first_error: Option<String>,
}

impl CheckReport {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"records\":{},\"reads\":{},\"mapped_reads\":{},\"correct_reads\":{},\"errors\":{},\"first_error\":{}}}",
            self.records,
            self.reads,
            self.mapped_reads,
            self.correct_reads,
            self.errors,
            match &self.first_error {
                Some(e) => format!("\"{}\"", genasm_telemetry::json::escape(e)),
                None => "null".to_string(),
            }
        )
    }
}

/// The read names and sequences of `reads.fq`.
fn load_reads(dir: &Path) -> Result<Vec<(String, Seq)>, String> {
    let f = File::open(dir.join("reads.fq")).map_err(|e| format!("reads.fq: {e}"))?;
    Ok(read_fastx(BufReader::new(f))
        .map_err(|e| format!("reads.fq: {e}"))?
        .into_iter()
        .map(|r| (r.name, r.seq))
        .collect())
}

/// Check the record stream in `output` against the inputs in `dir`.
pub fn check(dir: &Path, output: &Path) -> Result<CheckReport, String> {
    let f = File::open(dir.join("ref.fa")).map_err(|e| format!("ref.fa: {e}"))?;
    let reference = read_multi_fastx(BufReader::new(f)).map_err(|e| format!("ref.fa: {e}"))?;
    let contigs: HashMap<&str, &Seq> = reference
        .contigs()
        .iter()
        .map(|c| (&*c.name, &c.seq))
        .collect();
    let reads = load_reads(dir)?;
    let by_name: HashMap<&str, &Seq> = reads.iter().map(|(n, s)| (n.as_str(), s)).collect();
    let truth = load_truth(dir)?;
    let truth: HashMap<&str, &crate::gen::Truth> =
        truth.iter().map(|(n, t)| (n.as_str(), t)).collect();
    let text = std::fs::read_to_string(output).map_err(|e| format!("{}: {e}", output.display()))?;

    let mut report = CheckReport {
        records: 0,
        reads: reads.len() as u64,
        mapped_reads: 0,
        correct_reads: 0,
        errors: 0,
        first_error: None,
    };
    let fail = |report: &mut CheckReport, msg: String| {
        report.errors += 1;
        report.first_error.get_or_insert(msg);
    };
    let mut last_read: Option<String> = None;
    for (lineno, line) in text.lines().enumerate() {
        report.records += 1;
        let rec = match AlignRecord::parse_tsv(line) {
            Ok(r) => r,
            Err(e) => {
                fail(
                    &mut report,
                    format!("line {}: does not parse: {e}", lineno + 1),
                );
                continue;
            }
        };
        let (Some(read), Some(contig)) = (
            by_name.get(rec.qname.as_str()),
            contigs.get(rec.tname.as_str()),
        ) else {
            fail(
                &mut report,
                format!("line {}: unknown read or contig", lineno + 1),
            );
            continue;
        };
        if rec.tstart >= rec.tend || rec.tend > contig.len() || rec.qlen != read.len() {
            fail(
                &mut report,
                format!("line {}: coordinates out of range", lineno + 1),
            );
            continue;
        }
        if rec.cigar.query_len() != rec.qlen || rec.cigar.target_len() != rec.tend - rec.tstart {
            fail(
                &mut report,
                format!(
                    "line {}: CIGAR does not consume the read and the window",
                    lineno + 1
                ),
            );
            continue;
        }
        if rec.cigar.edit_cost() != rec.edit_distance {
            fail(
                &mut report,
                format!(
                    "line {}: edit operations differ from the edit distance",
                    lineno + 1
                ),
            );
            continue;
        }
        let window = contig.slice(rec.tstart, rec.tend - rec.tstart);
        let reverse = if rec.cigar.validate(read, &window).is_ok() {
            false
        } else if rec
            .cigar
            .validate(&read.reverse_complement(), &window)
            .is_ok()
        {
            true
        } else {
            fail(
                &mut report,
                format!(
                    "line {}: CIGAR is not an alignment of the read to the window",
                    lineno + 1
                ),
            );
            continue;
        };
        // Records of one read are contiguous; the first is its best.
        if last_read.as_deref() != Some(rec.qname.as_str()) {
            report.mapped_reads += 1;
            let t = truth
                .get(rec.qname.as_str())
                .ok_or_else(|| format!("no truth for read {}", rec.qname))?;
            if t.hit(&rec.tname, rec.tstart, rec.tend, reverse) {
                report.correct_reads += 1;
            }
            last_read = Some(rec.qname.clone());
        }
    }
    Ok(report)
}
