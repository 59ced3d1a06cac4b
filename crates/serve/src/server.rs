//! The long-lived request loop: newline-delimited JSON over a stdin pipe
//! or a Unix socket.
//!
//! Protocol: each non-empty line is one request (see [`crate::request`]).
//! Requests accumulate into a batch of up to `batch` entries; a full
//! batch, an **empty line**, or end-of-input flushes it through
//! [`Service::handle_batch`] and writes one response line per request,
//! in arrival order. A line that fails to parse is answered immediately
//! with an error response (id `"?"` when the id itself was unreadable),
//! counted as `serve.requests.malformed`, and does not poison the batch.
//!
//! **Control plane**: a line whose JSON object carries a `"cmd"` key is
//! a control command, not a request. `{"cmd": "stats"}` flushes the
//! pending batch and answers with one line of
//! [`Service::stats_snapshot`] JSON; unknown commands answer with an
//! error line. Commands never enter a batch.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;

use qjo_obs::json::Json;

use crate::request::{parse_request, render_response, Request, Response};
use crate::service::Service;

/// What a serve loop processed, for logging and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// Well-formed requests answered.
    pub requests: u64,
    /// Lines rejected by the parser.
    pub parse_errors: u64,
    /// Batches flushed.
    pub batches: u64,
    /// In-band control commands answered (e.g. `stats`).
    pub commands: u64,
}

fn parse_error_response(line: &str, err: String) -> Response {
    // Best effort: salvage the id so the caller can correlate.
    let id = qjo_obs::json::Json::parse(line)
        .ok()
        .and_then(|doc| doc.get("id").and_then(|v| v.as_str().map(str::to_string)))
        .unwrap_or_else(|| "?".to_string());
    Response {
        id,
        backend: String::new(),
        order: Vec::new(),
        cost: None,
        cache: None,
        fallback: false,
        deadline_miss: false,
        error: Some(err),
    }
}

fn flush_batch(
    service: &Service,
    pending: &mut Vec<Request>,
    out: &mut impl Write,
    stats: &mut LoopStats,
) -> std::io::Result<()> {
    if pending.is_empty() {
        return Ok(());
    }
    stats.batches += 1;
    for resp in service.handle_batch(pending) {
        writeln!(out, "{}", render_response(&resp))?;
    }
    out.flush()?;
    pending.clear();
    Ok(())
}

/// Runs the request loop over arbitrary line-oriented transport until
/// end-of-input. `batch` ≥ 1 bounds how many requests may be grouped.
pub fn serve_lines(
    service: &Service,
    input: impl BufRead,
    mut output: impl Write,
    batch: usize,
) -> std::io::Result<LoopStats> {
    assert!(batch >= 1, "batch size must admit at least one request");
    let mut stats = LoopStats::default();
    let mut pending: Vec<Request> = Vec::new();
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            // Explicit flush marker: answer everything buffered so far.
            flush_batch(service, &mut pending, &mut output, &mut stats)?;
            continue;
        }
        if let Some(cmd) = Json::parse(&line)
            .ok()
            .and_then(|doc| doc.get("cmd").and_then(Json::as_str).map(str::to_owned))
        {
            stats.commands += 1;
            // Flush first so the snapshot covers every request already
            // submitted on this connection.
            flush_batch(service, &mut pending, &mut output, &mut stats)?;
            match cmd.as_str() {
                "stats" => {
                    service.count("serve.stats.requests", 1);
                    writeln!(output, "{}", service.stats_snapshot().render_compact())?;
                }
                other => {
                    let resp = parse_error_response(&line, format!("unknown command `{other}`"));
                    writeln!(output, "{}", render_response(&resp))?;
                }
            }
            output.flush()?;
            continue;
        }
        match parse_request(&line) {
            Ok(req) => {
                stats.requests += 1;
                pending.push(req);
                if pending.len() >= batch {
                    flush_batch(service, &mut pending, &mut output, &mut stats)?;
                }
            }
            Err(err) => {
                stats.parse_errors += 1;
                service.note_malformed();
                // Answer out of band, before the batch, so a bad line
                // never delays or reorders valid requests' responses
                // relative to their own batch.
                flush_batch(service, &mut pending, &mut output, &mut stats)?;
                writeln!(output, "{}", render_response(&parse_error_response(&line, err)))?;
                output.flush()?;
            }
        }
    }
    flush_batch(service, &mut pending, &mut output, &mut stats)?;
    Ok(stats)
}

/// Binds `path` and serves connections sequentially (the service is
/// CPU-bound; fairness comes from small batches, not threads). Stops
/// after `max_connections` when given — tests and drain scripts use
/// this; pass `None` to serve forever.
pub fn serve_unix_socket(
    service: &Service,
    path: &Path,
    batch: usize,
    max_connections: Option<usize>,
) -> std::io::Result<LoopStats> {
    // A stale socket file from a previous run would make bind fail.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    let mut total = LoopStats::default();
    for (served, conn) in listener.incoming().enumerate() {
        let stream = conn?;
        let reader = BufReader::new(stream.try_clone()?);
        let stats = serve_lines(service, reader, &stream, batch)?;
        total.requests += stats.requests;
        total.parse_errors += stats.parse_errors;
        total.batches += stats.batches;
        total.commands += stats.commands;
        if max_connections.is_some_and(|cap| served + 1 >= cap) {
            break;
        }
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_exec::Parallelism;

    fn line(id: &str, backend: &str) -> String {
        format!(
            r#"{{"id": "{id}", "backend": "{backend}", "relations": [3.0, 2.0, 4.0], "predicates": [{{"rel_a": 0, "rel_b": 1, "log_sel": -1.0}}, {{"rel_a": 1, "rel_b": 2, "log_sel": -1.0}}]}}"#
        )
    }

    fn run(input: &str, batch: usize) -> (Vec<qjo_obs::json::Json>, LoopStats) {
        let svc = Service::smoke(7, Parallelism::sequential());
        let mut out = Vec::new();
        let stats = serve_lines(&svc, input.as_bytes(), &mut out, batch).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let docs = text
            .lines()
            .map(|l| qjo_obs::json::Json::parse(l).expect("response lines are JSON"))
            .collect();
        (docs, stats)
    }

    #[test]
    fn answers_every_line_in_order() {
        let input = format!("{}\n{}\n{}\n", line("a", "greedy"), line("b", "dp"), line("c", "sa"));
        let (docs, stats) = run(&input, 10);
        assert_eq!(stats, LoopStats { requests: 3, parse_errors: 0, batches: 1, commands: 0 });
        let ids: Vec<_> =
            docs.iter().map(|d| d.get("id").and_then(|v| v.as_str()).expect("id")).collect();
        assert_eq!(ids, vec!["a", "b", "c"]);
        for d in &docs {
            assert_eq!(d.get("error"), Some(&qjo_obs::json::Json::Null));
        }
    }

    #[test]
    fn overflowing_plan_costs_still_get_one_response_each() {
        // Final joins past log10 ≈ 308.25 cost +∞ along every DP split;
        // each line still gets exactly one answer, whose cost renders as
        // `null`.
        let input = concat!(
            r#"{"id": "d", "backend": "dp", "relations": [1e308, 1e308], "predicates": []}"#,
            "\n",
            r#"{"id": "a", "backend": "auto", "relations": [200, 200, 200], "predicates": []}"#,
            "\n",
        );
        let (docs, stats) = run(input, 10);
        assert_eq!(stats.requests, 2);
        assert_eq!(docs.len(), 2);
        for (doc, (id, t)) in docs.iter().zip([("d", 2), ("a", 3)]) {
            assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some(id));
            assert_eq!(doc.get("error"), Some(&qjo_obs::json::Json::Null), "{id}");
            assert_eq!(doc.get("cost"), Some(&qjo_obs::json::Json::Null), "{id}");
            let mut order: Vec<u64> = doc
                .get("order")
                .and_then(|v| v.as_arr())
                .expect("order")
                .iter()
                .filter_map(|v| v.as_u64())
                .collect();
            order.sort_unstable();
            assert_eq!(order, (0..t).collect::<Vec<u64>>(), "{id}: a permutation");
        }
    }

    #[test]
    fn empty_line_flushes_and_batch_size_bounds_grouping() {
        let input = format!(
            "{}\n\n{}\n{}\n{}\n",
            line("a", "greedy"),
            line("b", "greedy"),
            line("c", "greedy"),
            line("d", "greedy")
        );
        let (_, stats) = run(&input, 2);
        // "a" flushed by the blank line; "b","c" by batch-full; "d" by EOF.
        assert_eq!(stats, LoopStats { requests: 4, parse_errors: 0, batches: 3, commands: 0 });
    }

    #[test]
    fn a_stats_command_flushes_and_answers_with_a_snapshot() {
        let input = format!(
            "{}\n{}\n{{\"cmd\": \"stats\"}}\n{}\n{{\"cmd\": \"dance\"}}\n",
            line("a", "greedy"),
            line("b", "sa"),
            line("c", "dp")
        );
        let (docs, stats) = run(&input, 10);
        assert_eq!(stats, LoopStats { requests: 3, parse_errors: 0, batches: 2, commands: 2 });
        // Responses: a, b (flushed by the command), the snapshot, c
        // (flushed by the second command), the unknown-command error.
        assert_eq!(docs.len(), 5);
        assert_eq!(docs[0].get("id").and_then(|v| v.as_str()), Some("a"));
        assert_eq!(docs[1].get("id").and_then(|v| v.as_str()), Some("b"));
        let snap = &docs[2];
        // The mid-stream snapshot covers exactly the two flushed requests.
        assert_eq!(
            snap.get("counters").and_then(|c| c.get("serve.requests")).and_then(|v| v.as_u64()),
            Some(2)
        );
        assert!(snap.get("cache").and_then(|c| c.get("capacity")).is_some());
        assert_eq!(docs[3].get("id").and_then(|v| v.as_str()), Some("c"));
        assert!(docs[4]
            .get("error")
            .and_then(|v| v.as_str())
            .is_some_and(|e| e.contains("unknown command")));
    }

    #[test]
    fn malformed_lines_are_counted_in_the_service_tallies() {
        let svc = Service::smoke(7, Parallelism::sequential());
        let input = format!("not json at all\n{}\n{{\"cmd\": \"stats\"}}\n", line("a", "greedy"));
        let mut out = Vec::new();
        let stats = serve_lines(&svc, input.as_bytes(), &mut out, 4).expect("io");
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(svc.telemetry().counters().get("serve.requests.malformed"), Some(&1));
        let text = String::from_utf8(out).expect("utf8");
        let snap = qjo_obs::json::Json::parse(text.lines().last().expect("snapshot line"))
            .expect("snapshot is JSON");
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("serve.requests.malformed"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn a_bad_line_answers_immediately_without_poisoning_the_batch() {
        let input = format!("{}\nthis is not json\n{}\n", line("a", "greedy"), line("b", "greedy"));
        let (docs, stats) = run(&input, 10);
        assert_eq!(stats.parse_errors, 1);
        assert_eq!(stats.requests, 2);
        assert_eq!(docs.len(), 3);
        // Order: "a" (flushed ahead of the error), the error, then "b".
        assert_eq!(docs[0].get("id").and_then(|v| v.as_str()), Some("a"));
        assert!(docs[1].get("error").and_then(|v| v.as_str()).is_some());
        assert_eq!(docs[2].get("id").and_then(|v| v.as_str()), Some("b"));
    }

    #[test]
    fn unix_socket_round_trip() {
        use std::io::{BufRead as _, BufReader, Write as _};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("qjo-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("serve.sock");
        let path2 = path.clone();
        let server = std::thread::spawn(move || {
            let svc = Service::smoke(7, Parallelism::sequential());
            serve_unix_socket(&svc, &path2, 4, Some(1)).expect("serve")
        });
        // The listener needs a moment to bind; retry the connect.
        let mut stream = None;
        for _ in 0..200 {
            match UnixStream::connect(&path) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(5)),
            }
        }
        let stream = stream.expect("connects");
        let mut writer = stream.try_clone().expect("clone");
        writeln!(writer, "{}", line("s1", "greedy")).expect("write");
        writer.flush().expect("flush");
        // Half-close the write side so the server sees end-of-input.
        stream.shutdown(std::net::Shutdown::Write).expect("shutdown");
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).expect("read");
        let doc = qjo_obs::json::Json::parse(reply.trim()).expect("json");
        assert_eq!(doc.get("id").and_then(|v| v.as_str()), Some("s1"));
        let stats = server.join().expect("server thread");
        assert_eq!(stats.requests, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
