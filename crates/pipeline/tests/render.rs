//! The byte renderers against the `format!`-based renderers they
//! replaced, and the sink's row order against `sort_key` order.
//!
//! The oracles below are the previous `to_tsv` / `to_paf` bodies,
//! kept verbatim: every byte of pipeline output goes through the new
//! renderers, so they must agree on hostile names (escapes, non-ASCII),
//! run lengths from 1 to `u32::MAX`, empty CIGARs and extreme
//! coordinates.

use align_core::{Cigar, CigarOp};
use genasm_pipeline::{escape_name, AlignRecord, OutputFormat};
use proptest::prelude::*;

fn oracle_tsv(r: &AlignRecord) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{:.4}",
        oracle_escape(&r.qname),
        r.qlen,
        oracle_escape(&r.tname),
        r.tstart,
        r.tend,
        r.edit_distance,
        oracle_cigar(&r.cigar),
        r.identity
    )
}

fn oracle_paf(r: &AlignRecord) -> String {
    let (m, x, i, d) = r.cigar.op_counts();
    format!(
        "{}\t{}\t0\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t255\tNM:i:{}\tcg:Z:{}",
        oracle_escape(&r.qname),
        r.qlen,
        r.cigar.query_len(),
        if r.reverse { '-' } else { '+' },
        oracle_escape(&r.tname),
        r.tsize,
        r.tstart,
        r.tend,
        m,
        m + x + i + d,
        r.edit_distance,
        oracle_cigar(&r.cigar)
    )
}

fn oracle_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 4);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            other => out.push(other),
        }
    }
    out
}

fn oracle_cigar(c: &Cigar) -> String {
    c.runs()
        .iter()
        .map(|&(n, op)| format!("{n}{}", op.symbol()))
        .collect()
}

const OPS: [CigarOp; 4] = [
    CigarOp::Match,
    CigarOp::Mismatch,
    CigarOp::Ins,
    CigarOp::Del,
];

/// Names drawn from an alphabet heavy in the escaped characters, plus
/// spaces, quotes and multi-byte UTF-8.
fn arb_name() -> impl Strategy<Value = String> {
    const CHARS: [char; 12] = [
        'a', 'Z', '0', '_', ' ', '"', '\t', '\n', '\r', '\\', 'é', '鼠',
    ];
    prop::collection::vec(0usize..CHARS.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect())
}

/// Run lengths across every digit count, up to `u32::MAX`; adjacent
/// runs never share an op, so no merge can overflow.
fn arb_cigar() -> impl Strategy<Value = Cigar> {
    prop::collection::vec((0u8..4, any::<u32>(), 1u32..4), 0..40).prop_map(|runs| {
        let mut c = Cigar::new();
        let mut op = 0usize;
        for (kind, raw, step) in runs {
            let n = match kind {
                0 => 1 + raw % 9,
                1 => 1 + raw % 100_000,
                2 => u32::MAX - raw % 3,
                _ => raw.max(1),
            };
            op = (op + step as usize) % OPS.len();
            c.push_run(n, OPS[op]);
        }
        c
    })
}

fn arb_coord() -> impl Strategy<Value = usize> {
    (0u8..3, any::<u64>()).prop_map(|(kind, raw)| match kind {
        0 => (raw % 10) as usize,
        1 => (raw % 10_000_000) as usize,
        _ => raw as usize,
    })
}

/// Identities including exact `{:.4}` rounding ties and NaN.
fn arb_identity() -> impl Strategy<Value = f64> {
    (0u8..8, 0.0f64..1.0).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        3 => 0.00005,
        4 => 0.99995,
        5 => 0.12345,
        6 => f64::NAN,
        _ => x,
    })
}

fn arb_record() -> impl Strategy<Value = AlignRecord> {
    (
        (arb_name(), arb_name(), any::<bool>()),
        (arb_coord(), arb_coord(), arb_coord(), arb_coord()),
        arb_coord(),
        arb_cigar(),
        arb_identity(),
    )
        .prop_map(
            |(
                (qname, tname, reverse),
                (qlen, tsize, tstart, tend),
                edit_distance,
                cigar,
                identity,
            )| {
                AlignRecord {
                    qname,
                    qlen,
                    tname,
                    tsize,
                    tstart,
                    tend,
                    reverse,
                    edit_distance,
                    cigar,
                    identity,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_renderers_match_the_format_oracles(rec in arb_record()) {
        let tsv = oracle_tsv(&rec);
        let paf = oracle_paf(&rec);
        prop_assert_eq!(rec.to_tsv(), tsv.clone());
        prop_assert_eq!(rec.to_paf(), paf.clone());
        prop_assert_eq!(rec.tsv_len(), tsv.len());
        prop_assert_eq!(escape_name(&rec.qname), oracle_escape(&rec.qname));
        prop_assert_eq!(rec.cigar.to_string(), oracle_cigar(&rec.cigar));
        prop_assert_eq!(rec.cigar.rendered_len(), oracle_cigar(&rec.cigar).len());

        // The buffer renderers append, after whatever is already there.
        let mut buf = b"kept".to_vec();
        rec.write_tsv(&mut buf);
        prop_assert_eq!(buf, format!("kept{tsv}").into_bytes());
        let mut buf = Vec::new();
        rec.write_paf(&mut buf);
        prop_assert_eq!(buf, paf.clone().into_bytes());
        for (fmt, want) in [(OutputFormat::Tsv, &tsv), (OutputFormat::Paf, &paf)] {
            prop_assert_eq!(&fmt.line(&rec), want);
            let mut line = Vec::new();
            fmt.write_line(&rec, &mut line);
            prop_assert_eq!(line, format!("{want}\n").into_bytes());
        }
    }

    /// Rows of one read with heavy `(edit_distance, tstart, tend)`
    /// ties, CIGARs whose numeric and byte orders differ, and fully
    /// equal keys (told apart by `tname`, so stability is checked too).
    #[test]
    fn sink_order_is_sort_key_order(
        rows in prop::collection::vec((0usize..2, 0usize..2, 0usize..2, 0usize..6), 0..24)
    ) {
        const CIGARS: [&str; 6] = ["10M", "9M", "9M1X", "10M1X", "100M", "1M1I9M"];
        let rows: Vec<AlignRecord> = rows
            .into_iter()
            .enumerate()
            .map(|(i, (ed, start, len, c))| AlignRecord {
                qname: "read".to_string(),
                qlen: 10,
                tname: format!("row{i}"),
                tsize: 1_000,
                tstart: start,
                tend: start + len,
                reverse: false,
                edit_distance: ed,
                cigar: Cigar::parse(CIGARS[c]).unwrap(),
                identity: 1.0,
            })
            .collect();
        let mut by_key = rows.clone();
        by_key.sort_by_cached_key(AlignRecord::sort_key);
        let mut by_cmp = rows;
        by_cmp.sort_by(AlignRecord::cmp_sort_key);
        prop_assert_eq!(by_cmp, by_key);
    }
}

#[test]
fn cigar_ties_break_by_text_not_by_number() {
    let row = |cigar: &str| AlignRecord {
        qname: "r".to_string(),
        qlen: 10,
        tname: "t".to_string(),
        tsize: 100,
        tstart: 0,
        tend: 10,
        reverse: false,
        edit_distance: 1,
        cigar: Cigar::parse(cigar).unwrap(),
        identity: 0.9,
    };
    let (ten, nine) = (row("10M1X"), row("9M1X"));
    // "10M…" sorts before "9M…" as text although 10 > 9.
    assert_eq!(
        AlignRecord::cmp_sort_key(&ten, &nine),
        ten.sort_key().cmp(&nine.sort_key())
    );
    assert_eq!(
        AlignRecord::cmp_sort_key(&ten, &nine),
        std::cmp::Ordering::Less
    );
}
