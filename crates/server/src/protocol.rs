//! The line-delimited wire protocol.
//!
//! One connection = one session. All traffic is UTF-8 lines.
//!
//! **Client → server.** A preamble of control verbs, then `BEGIN`,
//! then raw FASTA/FASTQ records, terminated by half-closing the write
//! side of the socket (there is no in-band terminator, so record
//! payloads can never collide with protocol framing):
//!
//! ```text
//! SET backend cpu|gpu-sim|edlib|ksw2          pick this session's backend
//! SET format tsv|paf                          pick this session's output format
//! SET explain on|off                          stream per-read provenance lines
//! PING                                        liveness probe
//! STATS                                       one-line server-wide counters
//! STATS JSON                                  live registry snapshot as one JSON line
//! STATS PROM                                  Prometheus text exposition
//! STATS STREAM <ms>                           push stat frames every <ms> milliseconds
//! SHUTDOWN                                    ask the server to drain and exit
//! BEGIN                                       end of preamble, records follow
//! ```
//!
//! **Server → client.** Status lines are prefixed `# ` so they can
//! never be confused with records; every verb gets exactly one reply
//! (`# ok …`, `# pong`, `# stats …`, or `# err …`). After `BEGIN`, the
//! response stream carries alignment records (bare TSV/PAF lines,
//! byte-identical to `genasm align` on the same reads), interleaved
//! with `# err read …` lines for failed reads, and ends with
//! `# done …` followed by the server closing the connection.
//!
//! When the server runs with an idle timeout, it may interleave `# hb`
//! heartbeat lines at any point — in the verb loop while waiting for a
//! slow preamble, or in the response stream while the pipeline is
//! quiet. Clients must ignore them (they are not a reply to any verb).
//! The timeout also adds `# err` variants a robust client should
//! expect: `# err input: idle timeout …` when the client went silent
//! mid-upload (the session is aborted but still ends with `# done`),
//! and `# err overflow: …` when the session was evicted under the
//! server's `evict` output-overflow policy. Free-text payloads of
//! `# err read`/`# err input` lines (read names, parser messages) are
//! backslash-escaped like record name columns (`\t`, `\n`, `\r`, `\\`)
//! so hostile content cannot forge a line boundary.
//!
//! `SET explain on` opts the session into per-read provenance: after
//! `BEGIN`, one `# explain {json}` status line per submitted read
//! (schema `genasm-explain/v1`), interleaved with the record stream.
//! Explaining is passive — the record lines stay byte-identical to a
//! session without it.
//!
//! `STATS STREAM <ms>` turns the connection into a push feed: the
//! server emits one `# stat-frame {json}` line (schema
//! `genasm-stat-frame/v1` — uptime, sessions, the read-decision
//! funnel, interval rates, per-backend latency quantiles, slowest
//! reads) immediately and then every `<ms>` milliseconds until the
//! client closes the connection or the server starts draining (the
//! feed then ends with `# ok stream-end`). Records cannot follow —
//! the stream replaces the session.

use genasm_pipeline::{BackendKind, OutputFormat};

/// Prefix of every non-record line the server emits.
pub const STATUS_PREFIX: &str = "# ";

/// Prefix of error status lines.
pub const ERR_PREFIX: &str = "# err";

/// Prefix of the final per-session summary line.
pub const DONE_PREFIX: &str = "# done";

/// The idle heartbeat line. Not a reply to any verb — clients skip it
/// wherever it appears.
pub const HB_LINE: &str = "# hb";

/// Exposition format of a `STATS` request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Bare `STATS`: the classic one-line `# stats …` summary.
    Line,
    /// `STATS JSON`: one `# stats-json {…}` line with the full live
    /// registry snapshot, per-session and per-backend breakdowns.
    Json,
    /// `STATS PROM`: Prometheus text exposition, one `# prom …` line
    /// per metric line, bracketed by `# prom-begin` / `# prom-end`.
    Prom,
}

/// A parsed client control verb.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verb {
    /// `SET backend <kind>`.
    SetBackend(BackendKind),
    /// `SET format <fmt>`.
    SetFormat(OutputFormat),
    /// `SET explain on|off`.
    SetExplain(bool),
    /// `BEGIN` — records follow.
    Begin,
    /// `PING`.
    Ping,
    /// `STATS [JSON|PROM]`.
    Stats(StatsFormat),
    /// `STATS STREAM <ms>` — push `# stat-frame` lines at this
    /// interval until the client hangs up or the server drains.
    StatsStream(u64),
    /// `SHUTDOWN` — drain and exit.
    Shutdown,
}

/// Parse one preamble line.
pub fn parse_verb(line: &str) -> Result<Verb, String> {
    let mut it = line.split_whitespace();
    let word = it.next().unwrap_or("");
    let verb = match word {
        "BEGIN" => Verb::Begin,
        "PING" => Verb::Ping,
        "STATS" => match it.next() {
            None => Verb::Stats(StatsFormat::Line),
            Some("JSON") => Verb::Stats(StatsFormat::Json),
            Some("PROM") => Verb::Stats(StatsFormat::Prom),
            Some("STREAM") => {
                let ms = it.next().ok_or("STATS STREAM needs an interval in ms")?;
                let ms: u64 = ms
                    .parse()
                    .map_err(|_| format!("bad STATS STREAM interval {ms:?}"))?;
                if ms == 0 {
                    return Err("STATS STREAM interval must be at least 1 ms".to_string());
                }
                Verb::StatsStream(ms)
            }
            Some(other) => {
                return Err(format!(
                    "unknown STATS format {other:?}; valid formats are JSON, PROM, STREAM <ms>"
                ))
            }
        },
        "SHUTDOWN" => Verb::Shutdown,
        "SET" => {
            let key = it.next().ok_or("SET needs a key and a value")?;
            let value = it
                .next()
                .ok_or_else(|| format!("SET {key} needs a value"))?;
            match key {
                "backend" => Verb::SetBackend(value.parse().map_err(|e| format!("{e}"))?),
                "format" => Verb::SetFormat(value.parse().map_err(|e| format!("{e}"))?),
                "explain" => match value {
                    "on" => Verb::SetExplain(true),
                    "off" => Verb::SetExplain(false),
                    other => {
                        return Err(format!(
                            "bad explain value {other:?}; valid values are 'on', 'off'"
                        ))
                    }
                },
                other => {
                    return Err(format!(
                        "unknown setting {other:?}; valid settings are 'backend', 'format', \
                         'explain'"
                    ))
                }
            }
        }
        other => {
            return Err(format!(
                "unknown verb {other:?}; valid verbs are SET, BEGIN, PING, STATS, SHUTDOWN"
            ))
        }
    };
    if let Some(junk) = it.next() {
        return Err(format!("unexpected trailing argument {junk:?}"));
    }
    Ok(verb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse() {
        assert_eq!(parse_verb("BEGIN").unwrap(), Verb::Begin);
        assert_eq!(parse_verb("PING").unwrap(), Verb::Ping);
        assert_eq!(parse_verb("STATS").unwrap(), Verb::Stats(StatsFormat::Line));
        assert_eq!(
            parse_verb("STATS JSON").unwrap(),
            Verb::Stats(StatsFormat::Json)
        );
        assert_eq!(
            parse_verb("STATS PROM").unwrap(),
            Verb::Stats(StatsFormat::Prom)
        );
        assert_eq!(parse_verb("SHUTDOWN").unwrap(), Verb::Shutdown);
        assert_eq!(
            parse_verb("SET backend edlib").unwrap(),
            Verb::SetBackend(BackendKind::Edlib)
        );
        let err = parse_verb("SET backend auto").unwrap_err();
        for name in ["'auto'", "'cpu'", "'gpu-sim'", "'edlib'", "'ksw2'"] {
            assert!(err.contains(name), "missing {name}: {err}");
        }
        assert_eq!(
            parse_verb("SET format paf").unwrap(),
            Verb::SetFormat(OutputFormat::Paf)
        );
        assert_eq!(
            parse_verb("SET explain on").unwrap(),
            Verb::SetExplain(true)
        );
        assert_eq!(
            parse_verb("SET explain off").unwrap(),
            Verb::SetExplain(false)
        );
        assert_eq!(
            parse_verb("STATS STREAM 250").unwrap(),
            Verb::StatsStream(250)
        );
    }

    #[test]
    fn bad_verbs_are_described() {
        assert!(parse_verb("FROBNICATE").unwrap_err().contains("FROBNICATE"));
        assert!(parse_verb("SET").unwrap_err().contains("key"));
        assert!(parse_verb("SET backend").unwrap_err().contains("value"));
        let e = parse_verb("SET backend tpu").unwrap_err();
        assert!(e.contains("'cpu'") && e.contains("'gpu-sim'"), "{e}");
        let e = parse_verb("SET format sam").unwrap_err();
        assert!(e.contains("'tsv'") && e.contains("'paf'"), "{e}");
        assert!(parse_verb("SET color blue").unwrap_err().contains("color"));
        assert!(parse_verb("SET explain maybe")
            .unwrap_err()
            .contains("maybe"));
        assert!(parse_verb("BEGIN now").unwrap_err().contains("trailing"));
        assert!(parse_verb("STATS XML").unwrap_err().contains("XML"));
        assert!(parse_verb("STATS JSON extra")
            .unwrap_err()
            .contains("trailing"));
        assert!(parse_verb("STATS STREAM").unwrap_err().contains("interval"));
        assert!(parse_verb("STATS STREAM fast")
            .unwrap_err()
            .contains("fast"));
        assert!(parse_verb("STATS STREAM 0")
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse_verb("STATS STREAM 100 extra")
            .unwrap_err()
            .contains("trailing"));
    }
}
