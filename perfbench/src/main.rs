//! Helper binary of the repository benchmark (`perfbench/run.py`).
//!
//! ```text
//! perfbench gen    --workload W --seed N --dir DIR
//! perfbench check  --dir DIR --output FILE
//! perfbench replay --workload W --dir DIR --expected FILE [--socket FILE]
//!                  --rate SESSIONS_PER_S --connections N --trace-out FILE
//! ```
//!
//! `gen` writes a workload's inputs and the simulator's truth, `check`
//! validates a record stream against them, and `replay` runs the traced
//! layer replay. Each prints one JSON line on stdout.

mod check;
mod gen;
mod replay;

use std::path::PathBuf;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Clr10k,
    Short1kTop2,
    ServeSmall,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "clr10k" => Ok(Workload::Clr10k),
            "short1k_top2" => Ok(Workload::Short1kTop2),
            "serve_small" => Ok(Workload::ServeSmall),
            _ => Err(format!("unknown workload {s:?}")),
        }
    }

    /// The `--max-per-read` the workload runs with.
    pub fn max_per_read(self) -> usize {
        match self {
            Workload::Clr10k => 100,
            Workload::Short1kTop2 => 2,
            Workload::ServeSmall => 4,
        }
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() {
                    format!("{v}")
                } else {
                    "null".to_string()
                };
                format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn req<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let dir = PathBuf::from(req(args, "--dir")?);
    match args.first().map(String::as_str) {
        Some("gen") => {
            let w = Workload::parse(req(args, "--workload")?)?;
            let seed: u64 = req(args, "--seed")?
                .parse()
                .map_err(|e| format!("--seed: {e}"))?;
            gen::generate(w, seed, &dir).map_err(|e| format!("gen: {e}"))?;
            println!("{{\"ok\":true}}");
        }
        Some("check") => {
            let report = check::check(&dir, &PathBuf::from(req(args, "--output")?))?;
            println!("{}", report.to_json());
        }
        Some("replay") => {
            let w = Workload::parse(req(args, "--workload")?)?;
            let expected = PathBuf::from(req(args, "--expected")?);
            let socket = flag(args, "--socket").map(PathBuf::from);
            let rate: f64 = req(args, "--rate")?
                .parse()
                .map_err(|e| format!("--rate: {e}"))?;
            let connections: usize = req(args, "--connections")?
                .parse()
                .map_err(|e| format!("--connections: {e}"))?;
            let trace_out = PathBuf::from(req(args, "--trace-out")?);
            let timed = replay::TimedRun {
                output: &expected,
                socket: socket.as_deref(),
                rate,
                connections,
            };
            let (metrics, identical, failed) = replay::run(w, &dir, &timed, &trace_out)?;
            println!(
                "{{\"identical\":{identical},\"failed_reads\":{failed},\"metrics\":{}}}",
                metrics.to_json()
            );
        }
        _ => return Err("usage: perfbench gen|check|replay ...".to_string()),
    }
    Ok(())
}
