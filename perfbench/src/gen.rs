//! Workload generation: reference FASTA, read FASTQ and the simulator's
//! truth, all derived from one seed.
//!
//! The program under test only ever sees `ref.fa` and `reads.fq`; the
//! truth (`truth.tsv`) stays with the benchmark. Read names carry no
//! provenance.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use readsim::{
    contig_lengths, simulate_reads, write_fasta, write_fastq, ErrorModel, FastxRecord, Genome,
    GenomeConfig, ReadConfig, SimRead,
};

use crate::Workload;

/// Reads are drawn from this many times as many simulated reads, spread
/// evenly along each contig, so the share of reads that land in planted
/// repeats (which sets the candidate count per read) varies little from
/// seed to seed.
const OVERSAMPLE: usize = 6;

/// Sessions of the `serve_small` workload.
const SERVE_SESSIONS: usize = 1000;

/// Shape of one workload's inputs.
struct Shape {
    genome_len: usize,
    contigs: usize,
    reads: usize,
    lengths: &'static [usize],
    error: f64,
}

fn shape(w: Workload) -> Shape {
    match w {
        Workload::Clr10k => Shape {
            genome_len: 2_000_000,
            contigs: 3,
            reads: 150,
            lengths: &[10_000],
            error: 0.10,
        },
        Workload::Short1kTop2 => Shape {
            genome_len: 8_000_000,
            contigs: 4,
            reads: 4_000,
            lengths: &[1_000],
            error: 0.05,
        },
        // The read count is a ceiling; sessions take what they need.
        Workload::ServeSmall => Shape {
            genome_len: 2_000_000,
            contigs: 3,
            reads: SERVE_SESSIONS * 3,
            lengths: &[1_000, 2_000, 3_000, 4_000, 5_000],
            error: 0.10,
        },
    }
}

/// SplitMix64: a small deterministic stream for the choices the
/// simulator does not make itself (read order, session sizes).
struct Mix(u64);

impl Mix {
    fn new(seed: u64) -> Mix {
        Mix(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Where a read truly came from.
pub struct Truth {
    pub contig: String,
    pub start: usize,
    pub end: usize,
    pub reverse: bool,
}

impl Truth {
    /// Does `[start, end)` on `contig`, strand `reverse`, overlap the
    /// simulated locus?
    pub fn hit(&self, contig: &str, start: usize, end: usize, reverse: bool) -> bool {
        self.contig == contig && self.reverse == reverse && start < self.end && self.start < end
    }
}

/// `count` reads of one length from one contig, picked evenly along the
/// contig from an oversampled pool.
fn spread_reads(
    genome: &Genome,
    length: usize,
    count: usize,
    error: f64,
    seed: u64,
) -> Vec<SimRead> {
    if count == 0 {
        return Vec::new();
    }
    let mut pool = simulate_reads(
        genome,
        &ReadConfig {
            count: count * OVERSAMPLE,
            length,
            errors: ErrorModel::pacbio_clr(error),
            rc_fraction: 0.5,
            seed,
        },
    );
    pool.sort_by_key(|r| r.true_start);
    let offset = (seed % OVERSAMPLE as u64) as usize;
    pool.into_iter()
        .skip(offset)
        .step_by(OVERSAMPLE)
        .take(count)
        .collect()
}

/// Write the workload's inputs into `dir`.
pub fn generate(w: Workload, seed: u64, dir: &Path) -> std::io::Result<()> {
    let s = shape(w);
    let salt = match w {
        Workload::Clr10k => 0x10,
        Workload::Short1kTop2 => 0x20,
        Workload::ServeSmall => 0x30,
    };
    let base = seed.wrapping_mul(0x100).wrapping_add(salt);
    let lens = contig_lengths(s.genome_len, s.contigs);
    let mut mix = Mix::new(base ^ 0xA5A5);

    let mut ref_records = Vec::new();
    // Per read length, the pooled reads of every contig.
    let mut pools: Vec<Vec<(String, SimRead)>> = vec![Vec::new(); s.lengths.len()];
    let mut assigned = 0;
    for (ci, &len) in lens.iter().enumerate() {
        let name = format!("chr{}", ci + 1);
        let genome = Genome::generate(&GenomeConfig::human_like(len, base + ci as u64 * 7919));
        // Reads per contig in proportion to its length; the last contig
        // takes the rounding remainder.
        let share = if ci + 1 == lens.len() {
            s.reads - assigned
        } else {
            s.reads * len / s.genome_len
        };
        assigned += share;
        for (li, &rl) in s.lengths.iter().enumerate() {
            let n = share.div_ceil(s.lengths.len());
            let rseed = base ^ ((ci as u64 + 1) << 32) ^ ((li as u64 + 1) << 48);
            for r in spread_reads(&genome, rl, n, s.error, rseed) {
                pools[li].push((name.clone(), r));
            }
        }
        ref_records.push(FastxRecord::fasta(&name, genome.seq));
    }
    for pool in &mut pools {
        // Fisher-Yates: reads arrive in no particular reference order.
        for i in (1..pool.len()).rev() {
            let j = mix.below(i + 1);
            pool.swap(i, j);
        }
    }

    // Read order: the single pool for single-length workloads. The
    // serve workload's sessions are one fixed design (equal numbers of
    // 1-, 2-, 3- and 4-read sessions, read lengths cycling through the
    // pools) in seeded order, so every seed offers the same mix of
    // session sizes and lengths.
    let mut picked: Vec<(String, SimRead)> = Vec::new();
    let mut sessions: Vec<usize> = Vec::new();
    if s.lengths.len() == 1 {
        picked = pools
            .pop()
            .expect("one pool")
            .into_iter()
            .take(s.reads)
            .collect();
    } else {
        let mut design: Vec<Vec<usize>> = (0..SERVE_SESSIONS)
            .map(|k| {
                let size = 1 + k % 4;
                (0..size)
                    .map(|j| (k / 4 * size + j) % pools.len())
                    .collect()
            })
            .collect();
        for i in (1..design.len()).rev() {
            let j = mix.below(i + 1);
            design.swap(i, j);
        }
        for lens in design {
            sessions.push(lens.len());
            for li in lens {
                picked.push(
                    pools[li]
                        .pop()
                        .expect("each length pool outlasts the sessions"),
                );
            }
        }
    }

    let mut f = BufWriter::new(File::create(dir.join("ref.fa"))?);
    write_fasta(&mut f, &ref_records)?;
    f.flush()?;
    let width = picked.len().to_string().len();
    let mut reads = Vec::with_capacity(picked.len());
    let mut truth = BufWriter::new(File::create(dir.join("truth.tsv"))?);
    for (i, (contig, r)) in picked.iter().enumerate() {
        let name = format!("r{i:0width$}");
        writeln!(
            truth,
            "{name}\t{contig}\t{}\t{}\t{}",
            r.true_start,
            r.true_end,
            if r.reverse { '-' } else { '+' }
        )?;
        reads.push(FastxRecord::fastq(&name, r.seq.clone(), r.qual.clone()));
    }
    truth.flush()?;
    let mut f = BufWriter::new(File::create(dir.join("reads.fq"))?);
    write_fastq(&mut f, &reads)?;
    f.flush()?;
    File::create(dir.join("empty.fq"))?;
    if !sessions.is_empty() {
        let mut f = BufWriter::new(File::create(dir.join("sessions.txt"))?);
        for n in &sessions {
            writeln!(f, "{n}")?;
        }
        f.flush()?;
    }
    Ok(())
}

/// Load `truth.tsv` as `(read name, truth)` in read order.
pub fn load_truth(dir: &Path) -> Result<Vec<(String, Truth)>, String> {
    let text =
        std::fs::read_to_string(dir.join("truth.tsv")).map_err(|e| format!("truth.tsv: {e}"))?;
    text.lines()
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            if f.len() != 5 {
                return Err(format!("truth.tsv: bad line {line:?}"));
            }
            let num = |s: &str| s.parse::<usize>().map_err(|e| format!("truth.tsv: {e}"));
            Ok((
                f[0].to_string(),
                Truth {
                    contig: f[1].to_string(),
                    start: num(f[2])?,
                    end: num(f[3])?,
                    reverse: f[4] == "-",
                },
            ))
        })
        .collect()
}

/// Session sizes of the serve workload, in session order.
pub fn load_sessions(dir: &Path) -> Result<Vec<usize>, String> {
    let text = std::fs::read_to_string(dir.join("sessions.txt"))
        .map_err(|e| format!("sessions.txt: {e}"))?;
    text.lines()
        .map(|l| l.parse().map_err(|e| format!("sessions.txt: {e}")))
        .collect()
}
