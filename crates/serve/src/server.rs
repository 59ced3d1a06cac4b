//! The long-lived request loop: newline-delimited JSON over a stdin pipe
//! or a Unix socket.
//!
//! Protocol: every non-empty line gets exactly one answer line, written
//! and flushed before the next line is read; empty lines are skipped. A
//! request line (see [`crate::request`]) is answered by
//! [`Service::handle`]. A line that fails to parse, a line that is not
//! UTF-8 among them, is answered with an error response (id `"?"` when
//! the id itself was unreadable) and counted as
//! `serve.requests.malformed`.
//!
//! **Control plane**: a line whose JSON object carries a `"cmd"` key is
//! a control command, not a request. `{"cmd": "stats"}` answers with one
//! line of [`Service::stats_snapshot`] JSON and counts as
//! `serve.stats.requests`; an unknown command answers with an error line
//! and counts as `serve.requests.malformed`. So every answered line lands
//! in exactly one of `serve.requests`, `serve.requests.malformed` and
//! `serve.stats.requests`.
//!
//! **Events**: after each answered line the loop drains the service's
//! [`ServeEvent`]s into the caller's sink, so a long-lived loop holds no
//! events between lines whether the sink keeps them or drops them.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::path::Path;

use qjo_obs::json::Json;

use crate::events::ServeEvent;
use crate::request::{parse_request, render_response, Response};
use crate::service::Service;

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

/// The one answer line for a non-empty input line.
fn answer(service: &Service, line: &str) -> String {
    let cmd = Json::parse(line)
        .ok()
        .and_then(|doc| doc.get("cmd").and_then(Json::as_str).map(str::to_owned));
    match cmd.as_deref() {
        Some("stats") => {
            service.count("serve.stats.requests", 1);
            service.stats_snapshot().render_compact()
        }
        Some(other) => {
            service.note_malformed();
            render_response(&parse_error_response(line, format!("unknown command `{other}`")))
        }
        None => match parse_request(line) {
            Ok(req) => render_response(&service.handle(&req)),
            Err(err) => {
                service.note_malformed();
                render_response(&parse_error_response(line, err))
            }
        },
    }
}

/// Runs the request loop over arbitrary line-oriented transport until
/// end-of-input, answering each non-empty line before reading the next.
/// The events each line recorded go to `events` right after its answer;
/// an error from the sink ends the loop like a transport error.
pub fn serve_lines(
    service: &Service,
    input: impl BufRead,
    mut output: impl Write,
    mut events: impl FnMut(ServeEvent) -> std::io::Result<()>,
) -> std::io::Result<()> {
    for bytes in input.split(b'\n') {
        let bytes = bytes?;
        // Bytes that are not UTF-8 become U+FFFD: such a line is answered
        // (as malformed, unless only a string value held them) rather
        // than ending the loop.
        let text = String::from_utf8_lossy(&bytes);
        let line = text.trim();
        if line.is_empty() {
            continue;
        }
        writeln!(output, "{}", answer(service, line))?;
        output.flush()?;
        for event in service.drain_events() {
            events(event)?;
        }
    }
    Ok(())
}

/// Binds `path` and serves connections sequentially (the service is
/// CPU-bound and answers one line at a time), draining events into
/// `events` as [`serve_lines`] does. Stops after `max_connections` when
/// given — tests and drain scripts use this; pass `None` to serve forever.
pub fn serve_unix_socket(
    service: &Service,
    path: &Path,
    max_connections: Option<usize>,
    mut events: impl FnMut(ServeEvent) -> std::io::Result<()>,
) -> std::io::Result<()> {
    // A stale socket file from a previous run would make bind fail.
    if path.exists() {
        std::fs::remove_file(path)?;
    }
    let listener = UnixListener::bind(path)?;
    for (served, conn) in listener.incoming().enumerate() {
        let stream = conn?;
        let reader = BufReader::new(stream.try_clone()?);
        serve_lines(service, reader, &stream, &mut events)?;
        if max_connections.is_some_and(|cap| served + 1 >= cap) {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qjo_exec::Parallelism;
    use std::collections::BTreeMap;

    fn line(id: &str, backend: &str) -> String {
        format!(
            r#"{{"id": "{id}", "backend": "{backend}", "relations": [3.0, 2.0, 4.0], "predicates": [{{"rel_a": 0, "rel_b": 1, "log_sel": -1.0}}, {{"rel_a": 1, "rel_b": 2, "log_sel": -1.0}}]}}"#
        )
    }

    /// The event sink that keeps nothing.
    fn drop_event(_: ServeEvent) -> std::io::Result<()> {
        Ok(())
    }

    /// Serves `input` on a fresh smoke service: the answer lines as JSON
    /// and the service's counters.
    fn run(input: &str) -> (Vec<Json>, BTreeMap<String, u64>) {
        let svc = Service::smoke(7, Parallelism::sequential());
        let mut out = Vec::new();
        serve_lines(&svc, input.as_bytes(), &mut out, drop_event).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let docs = text.lines().map(|l| Json::parse(l).expect("response lines are JSON")).collect();
        (docs, svc.telemetry().counters())
    }

    fn id(doc: &Json) -> Option<&str> {
        doc.get("id").and_then(Json::as_str)
    }

    #[test]
    fn answers_every_line_in_order() {
        let input = format!("{}\n{}\n{}\n", line("a", "greedy"), line("b", "dp"), line("c", "sa"));
        let (docs, counters) = run(&input);
        assert_eq!(counters.get("serve.requests"), Some(&3));
        assert_eq!(docs.iter().map(|d| id(d).expect("id")).collect::<Vec<_>>(), ["a", "b", "c"]);
        for d in &docs {
            assert_eq!(d.get("error"), Some(&Json::Null));
        }
    }

    #[test]
    fn events_are_drained_after_every_line() {
        // A long-lived loop must not keep its events: with a sink that
        // drops them, none stays pending after 2,000 requests.
        let svc = Service::smoke(7, Parallelism::sequential());
        let input: String = (0..2000).map(|k| line(&format!("g{k}"), "greedy") + "\n").collect();
        serve_lines(&svc, input.as_bytes(), std::io::sink(), drop_event).expect("io");
        assert_eq!(svc.telemetry().events_pending(), 0);
        assert_eq!(svc.telemetry().events_recorded(), 2000);
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
        let (docs, counters) = run(input);
        assert_eq!(counters.get("serve.requests"), Some(&2));
        assert_eq!(docs.len(), 2);
        for (doc, (want, t)) in docs.iter().zip([("d", 2), ("a", 3)]) {
            assert_eq!(id(doc), Some(want));
            assert_eq!(doc.get("error"), Some(&Json::Null), "{want}");
            assert_eq!(doc.get("cost"), Some(&Json::Null), "{want}");
            let mut order: Vec<u64> = doc
                .get("order")
                .and_then(|v| v.as_arr())
                .expect("order")
                .iter()
                .filter_map(|v| v.as_u64())
                .collect();
            order.sort_unstable();
            assert_eq!(order, (0..t).collect::<Vec<u64>>(), "{want}: a permutation");
        }
    }

    #[test]
    fn a_stats_command_answers_with_a_snapshot_in_place() {
        let input = format!(
            "{}\n{}\n{{\"cmd\": \"stats\"}}\n{}\n{{\"cmd\": \"dance\"}}\n",
            line("a", "greedy"),
            line("b", "sa"),
            line("c", "dp")
        );
        let (docs, counters) = run(&input);
        assert_eq!(counters.get("serve.requests"), Some(&3));
        assert_eq!(counters.get("serve.stats.requests"), Some(&1));
        // An unknown command is a malformed line.
        assert_eq!(counters.get("serve.requests.malformed"), Some(&1));
        // Responses: a, b, the snapshot, c, the unknown-command error.
        assert_eq!(docs.len(), 5);
        assert_eq!(id(&docs[0]), Some("a"));
        assert_eq!(id(&docs[1]), Some("b"));
        let snap = &docs[2];
        // The mid-stream snapshot covers exactly the two requests before it.
        assert_eq!(
            snap.get("counters").and_then(|c| c.get("serve.requests")).and_then(|v| v.as_u64()),
            Some(2)
        );
        assert!(snap.get("cache").and_then(|c| c.get("capacity")).is_some());
        assert_eq!(id(&docs[3]), Some("c"));
        assert!(docs[4]
            .get("error")
            .and_then(|v| v.as_str())
            .is_some_and(|e| e.contains("unknown command")));
    }

    #[test]
    fn malformed_lines_are_counted_in_the_service_tallies() {
        let input = format!("not json at all\n{}\n{{\"cmd\": \"stats\"}}\n", line("a", "greedy"));
        let (docs, counters) = run(&input);
        assert_eq!(counters.get("serve.requests.malformed"), Some(&1));
        let snap = docs.last().expect("snapshot line");
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("serve.requests.malformed"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn a_bad_line_is_answered_in_place() {
        let input = format!("{}\nthis is not json\n{}\n", line("a", "greedy"), line("b", "greedy"));
        let (docs, counters) = run(&input);
        assert_eq!(counters.get("serve.requests.malformed"), Some(&1));
        assert_eq!(counters.get("serve.requests"), Some(&2));
        assert_eq!(docs.len(), 3);
        assert_eq!(id(&docs[0]), Some("a"));
        assert!(docs[1].get("error").and_then(|v| v.as_str()).is_some());
        assert_eq!(id(&docs[2]), Some("b"));
    }

    #[test]
    fn a_line_that_is_not_utf8_is_answered_as_malformed() {
        let svc = Service::smoke(7, Parallelism::sequential());
        let mut input = b"\xff\xfe\r\n".to_vec();
        input.extend_from_slice(format!("{}\r\n", line("a", "greedy")).as_bytes());
        let mut out = Vec::new();
        serve_lines(&svc, input.as_slice(), &mut out, drop_event).expect("io");
        let docs: Vec<Json> = String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(|l| Json::parse(l).expect("response lines are JSON"))
            .collect();
        assert_eq!(docs.len(), 2);
        assert!(docs[0].get("error").and_then(Json::as_str).is_some());
        assert_eq!(id(&docs[1]), Some("a"));
        let counters = svc.telemetry().counters();
        assert_eq!(counters.get("serve.requests.malformed"), Some(&1));
        assert_eq!(counters.get("serve.requests"), Some(&1));
    }

    #[test]
    fn each_answer_is_written_before_the_next_line_is_read() {
        use std::cell::RefCell;
        use std::io::Read;
        use std::rc::Rc;

        /// Answer bytes the loop has flushed so far.
        type Flushed = Rc<RefCell<Vec<u8>>>;

        /// Publishes written bytes only on `flush`.
        struct Sink {
            pending: Vec<u8>,
            flushed: Flushed,
        }
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.pending.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.flushed.borrow_mut().append(&mut self.pending);
                Ok(())
            }
        }

        /// Hands out one line per `read`, first checking that every
        /// non-empty line handed out before it has been answered.
        struct Feed {
            lines: Vec<String>,
            next: usize,
            flushed: Flushed,
        }
        impl Read for Feed {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let answered = self.flushed.borrow().iter().filter(|&&b| b == b'\n').count();
                let asked = self.lines[..self.next].iter().filter(|l| !l.trim().is_empty()).count();
                assert_eq!(answered, asked, "line {} was not answered", self.next);
                let Some(line) = self.lines.get(self.next) else { return Ok(0) };
                let bytes = format!("{line}\n").into_bytes();
                assert!(bytes.len() <= buf.len(), "test lines fit one read");
                buf[..bytes.len()].copy_from_slice(&bytes);
                self.next += 1;
                Ok(bytes.len())
            }
        }

        let lines = vec![
            line("a", "greedy"),
            "not json".to_string(),
            String::new(),
            "{\"cmd\": \"stats\"}".to_string(),
            line("b", "dp"),
            "{\"cmd\": \"reboot\"}".to_string(),
            line("c", "auto"),
        ];
        let flushed = Flushed::default();
        let svc = Service::smoke(7, Parallelism::sequential());
        let feed = Feed { lines, next: 0, flushed: flushed.clone() };
        let sink = Sink { pending: Vec::new(), flushed: flushed.clone() };
        serve_lines(&svc, BufReader::new(feed), sink, drop_event).expect("io");
        assert_eq!(flushed.borrow().iter().filter(|&&b| b == b'\n').count(), 6);
    }

    #[test]
    fn every_line_gets_one_answer_and_one_tally() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};

        // What each non-empty line must be answered with.
        enum Want {
            Plan(String),
            Error,
            Snapshot,
        }
        let mut rng = StdRng::seed_from_u64(2024);
        let mut input = String::new();
        let mut wants = Vec::new();
        for k in 0..200 {
            match rng.random_range(0..7u32) {
                0..=2 => {
                    let id = format!("q{k}");
                    let backend = ["greedy", "dp", "auto"][rng.random_range(0..3usize)];
                    input.push_str(&line(&id, backend));
                    wants.push(Want::Plan(id));
                }
                3 => {
                    let full = line(&format!("q{k}"), "greedy");
                    input.push_str(&full[..rng.random_range(1..full.len() - 1)]);
                    wants.push(Want::Error);
                }
                4 => {
                    input.push_str("{\"cmd\": \"stats\"}");
                    wants.push(Want::Snapshot);
                }
                5 => {
                    input.push_str("{\"cmd\": \"reboot\"}");
                    wants.push(Want::Error);
                }
                _ => {}
            }
            input.push('\n');
        }
        let (docs, counters) = run(&input);
        assert_eq!(docs.len(), wants.len(), "one answer per non-empty line");
        for (k, (doc, want)) in docs.iter().zip(&wants).enumerate() {
            match want {
                Want::Plan(want) => {
                    assert_eq!(id(doc), Some(want.as_str()), "answer {k}");
                    assert_eq!(doc.get("error"), Some(&Json::Null), "answer {k}");
                }
                Want::Error => {
                    assert_eq!(id(doc), Some("?"), "answer {k}");
                    assert!(doc.get("error").and_then(Json::as_str).is_some(), "answer {k}");
                }
                Want::Snapshot => assert!(doc.get("counters").is_some(), "answer {k}"),
            }
        }
        let tally: u64 = ["serve.requests", "serve.requests.malformed", "serve.stats.requests"]
            .iter()
            .filter_map(|name| counters.get(*name))
            .sum();
        assert_eq!(tally, wants.len() as u64, "one tally per answered line");
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
            serve_unix_socket(&svc, &path2, Some(1), drop_event).expect("serve");
            svc.telemetry().counters().get("serve.requests").copied()
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
        // The answer arrives while the connection is still open; a loop
        // that held it back until end-of-input fails the read instead of
        // hanging the test.
        stream.set_read_timeout(Some(std::time::Duration::from_secs(10))).expect("timeout");
        let mut reply = String::new();
        BufReader::new(&stream).read_line(&mut reply).expect("answered before end-of-input");
        let doc = Json::parse(reply.trim()).expect("json");
        assert_eq!(id(&doc), Some("s1"));
        // Half-close the write side so the server sees end-of-input.
        stream.shutdown(std::net::Shutdown::Write).expect("shutdown");
        assert_eq!(server.join().expect("server thread"), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
