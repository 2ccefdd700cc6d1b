//! The protocol client behind `genasm submit` / `genasm ctl` (and the
//! test suites).
//!
//! [`submit`] speaks the whole protocol over one connection: preamble
//! verbs, `BEGIN`, raw record bytes, half-close, then the response.
//! Record lines go to `out` verbatim — so a client's stdout is
//! byte-identical to `genasm align` on the same reads — and every
//! `# `-prefixed status line goes to `status`.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};

use crate::endpoint::{connect, Endpoint};
use crate::protocol::{DONE_PREFIX, ERR_PREFIX, HB_LINE, STATUS_PREFIX};
use genasm_pipeline::{BackendKind, OutputFormat};

/// What to ask of the server.
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// `SET backend …` before `BEGIN` (server default otherwise).
    pub backend: Option<BackendKind>,
    /// `SET format …` before `BEGIN` (server default otherwise).
    pub format: Option<OutputFormat>,
    /// Send `PING` (liveness probe) in the preamble.
    pub ping: bool,
    /// Send `STATS` in the preamble.
    pub stats: bool,
    /// Send `STATS JSON` in the preamble (one `# stats-json {…}` reply
    /// line; the JSON payload is also captured in the report).
    pub stats_json: bool,
    /// Send `STATS PROM` in the preamble (a `# prom-begin` / `# prom …`
    /// / `# prom-end` block; the bare exposition lines are captured in
    /// the report).
    pub stats_prom: bool,
    /// Send `SET explain on` in the preamble: the session streams one
    /// `# explain {json}` provenance line per read, captured in
    /// [`SubmitReport::explain`].
    pub explain: bool,
    /// Send `SHUTDOWN` and return (no records are sent).
    pub shutdown: bool,
}

/// What came back.
#[derive(Debug, Clone, Default)]
pub struct SubmitReport {
    /// Record lines forwarded to `out`.
    pub records: u64,
    /// `# err …` lines seen (verb failures, failed reads, admission).
    pub errors: u64,
    /// The final `# done …` line, when a session ran to completion.
    pub done: Option<String>,
    /// The JSON payload of a `STATS JSON` reply (prefix stripped).
    pub stats_json: Option<String>,
    /// The Prometheus exposition of a `STATS PROM` reply (prefixes
    /// stripped, one metric line per element).
    pub stats_prom: Option<String>,
    /// The JSON payloads of `# explain …` provenance lines, in read
    /// order (prefix stripped; empty unless `SET explain on` ran).
    pub explain: Vec<String>,
}

/// Run one protocol conversation. `reads` supplies the raw FASTA/FASTQ
/// bytes to stream after `BEGIN`; pass `None` for verb-only
/// conversations (ping/stats/shutdown).
pub fn submit<R: Read>(
    endpoint: &Endpoint,
    reads: Option<R>,
    opts: &SubmitOptions,
    out: &mut dyn Write,
    status: &mut dyn Write,
) -> io::Result<SubmitReport> {
    let conn = connect(endpoint)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    let mut report = SubmitReport::default();

    let read_status_line = |reader: &mut BufReader<_>,
                            report: &mut SubmitReport,
                            status: &mut dyn Write|
     -> io::Result<String> {
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-handshake",
                ));
            }
            // Heartbeats are not replies; the real reply follows.
            if line.trim_end() != HB_LINE {
                break;
            }
        }
        let line = line.trim_end().to_string();
        if line.starts_with(ERR_PREFIX) {
            report.errors += 1;
        }
        writeln!(status, "{line}")?;
        Ok(line)
    };

    // Greeting.
    read_status_line(&mut reader, &mut report, status)?;

    let verb = |writer: &mut BufWriter<_>,
                reader: &mut BufReader<_>,
                report: &mut SubmitReport,
                status: &mut dyn Write,
                line: &str|
     -> io::Result<String> {
        writeln!(writer, "{line}")?;
        writer.flush()?;
        read_status_line(reader, report, status)
    };

    if opts.ping {
        verb(&mut writer, &mut reader, &mut report, status, "PING")?;
    }
    if opts.stats {
        verb(&mut writer, &mut reader, &mut report, status, "STATS")?;
    }
    if opts.stats_json {
        let reply = verb(&mut writer, &mut reader, &mut report, status, "STATS JSON")?;
        if let Some(json) = reply.strip_prefix("# stats-json ") {
            report.stats_json = Some(json.to_string());
        }
    }
    if opts.stats_prom {
        let first = verb(&mut writer, &mut reader, &mut report, status, "STATS PROM")?;
        // The exposition is multi-line: `# prom-begin`, one `# prom …`
        // per metric line, `# prom-end`. An `# err …` reply is a single
        // line and is already handled by `verb`.
        if first == "# prom-begin" {
            let mut body = String::new();
            loop {
                let line = read_status_line(&mut reader, &mut report, status)?;
                if line == "# prom-end" {
                    break;
                }
                if let Some(metric) = line.strip_prefix("# prom ") {
                    body.push_str(metric);
                    body.push('\n');
                }
            }
            report.stats_prom = Some(body);
        }
    }
    if opts.shutdown {
        verb(&mut writer, &mut reader, &mut report, status, "SHUTDOWN")?;
        return Ok(report);
    }
    if let Some(backend) = opts.backend {
        let line = format!("SET backend {backend}");
        verb(&mut writer, &mut reader, &mut report, status, &line)?;
    }
    if let Some(format) = opts.format {
        let line = format!("SET format {format}");
        verb(&mut writer, &mut reader, &mut report, status, &line)?;
    }
    if opts.explain {
        verb(
            &mut writer,
            &mut reader,
            &mut report,
            status,
            "SET explain on",
        )?;
    }
    let Some(mut reads) = reads else {
        return Ok(report); // verb-only conversation
    };
    let begin_reply = verb(&mut writer, &mut reader, &mut report, status, "BEGIN")?;
    if begin_reply.starts_with(ERR_PREFIX) {
        return Ok(report); // admission refused; server closes
    }

    // Stream the payload, then half-close: that is the end-of-records
    // framing. The server streams rows back the whole time; they wait
    // in socket buffers until the drain loop below. An upload error is
    // tolerated, not propagated: it usually means the server aborted
    // the session (e.g. a parse error) and its diagnostic — plus any
    // rows already produced — is waiting on the read side; bailing out
    // here would throw that away for a bare "broken pipe".
    let upload: io::Result<()> = (|| {
        io::copy(&mut reads, &mut writer)?;
        writer.flush()?;
        writer.get_ref().shutdown_write()
    })();
    if upload.is_err() {
        report.errors += 1;
        writeln!(status, "# err upload interrupted; draining server response")?;
    }

    // Drain the response until the server closes the connection.
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let trimmed = line.trim_end();
        if trimmed.starts_with(STATUS_PREFIX) {
            if trimmed.starts_with(ERR_PREFIX) {
                report.errors += 1;
            }
            if trimmed.starts_with(DONE_PREFIX) {
                report.done = Some(trimmed.to_string());
            }
            if let Some(json) = trimmed.strip_prefix("# explain ") {
                report.explain.push(json.to_string());
            }
            writeln!(status, "{trimmed}")?;
        } else {
            report.records += 1;
            writeln!(out, "{trimmed}")?;
        }
    }
    Ok(report)
}

/// Consume a `STATS STREAM` push feed (the `genasm ctl top` client):
/// connect, request one frame every `interval_ms`, and write each
/// frame's bare JSON payload to `out` (one `genasm-stat-frame/v1`
/// object per line — pipes straight into `jq`). Protocol chatter
/// (greeting, heartbeats, `# ok stream-end`) goes to `status`.
///
/// Stops after `max_frames` frames (`0` = stream until the server
/// ends the feed) by dropping the connection — that is the protocol's
/// unsubscribe. Returns the number of frames received; an `# err …`
/// reply to the verb surfaces as [`io::ErrorKind::InvalidData`].
pub fn stream_stats(
    endpoint: &Endpoint,
    interval_ms: u64,
    max_frames: u64,
    out: &mut dyn Write,
    status: &mut dyn Write,
) -> io::Result<u64> {
    let conn = connect(endpoint)?;
    let mut reader = BufReader::new(conn.try_clone()?);
    let mut writer = BufWriter::new(conn);
    writeln!(writer, "STATS STREAM {interval_ms}")?;
    writer.flush()?;

    let mut frames = 0u64;
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break; // server ended the feed (drain) — not an error
        }
        let trimmed = line.trim_end();
        if let Some(json) = trimmed.strip_prefix("# stat-frame ") {
            writeln!(out, "{json}")?;
            out.flush()?;
            frames += 1;
            if max_frames > 0 && frames >= max_frames {
                break; // dropping the connection unsubscribes
            }
            continue;
        }
        if trimmed.starts_with(ERR_PREFIX) {
            writeln!(status, "{trimmed}")?;
            return Err(io::Error::new(io::ErrorKind::InvalidData, trimmed));
        }
        if !trimmed.is_empty() {
            writeln!(status, "{trimmed}")?;
        }
    }
    Ok(frames)
}
