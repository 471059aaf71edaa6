//! Dependency-free blocking HTTP/1.1, just enough for the serve API:
//! request-line + header parsing, `Content-Length` bodies, keep-alive.
//!
//! The repo's offline-safe discipline rules out an async stack; a
//! worker pool over [`std::net::TcpListener`] saturates the simulator
//! (each request spends its time in PnR/simulation, not I/O), so the
//! protocol layer stays ~200 lines of plain reads and writes. Limits
//! are enforced up front: 8 KB request head, 1 MB body.

use std::io::{self, BufRead, Write};

/// Longest accepted request line or header line.
const MAX_LINE: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 64;
/// Largest accepted request body.
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased by the client (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path (query strings are not split off).
    pub path: String,
    /// Decoded body (empty without a `Content-Length`).
    pub body: String,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// One response to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (name, value) — e.g. `Retry-After` on 429.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A 200 response with a JSON body.
    #[must_use]
    pub fn json(body: impl Into<Vec<u8>>) -> Self {
        Response {
            status: 200,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// An error response with a JSON `{"error": ...}` body.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: format!("{{\"error\":\"{}\"}}", nupea::jsonl::escape(message)).into_bytes(),
        }
    }

    /// A tier-tagged 429: either a refusal at the door (the queue is
    /// full and nothing lower-tier could be shed) or a queued job
    /// evicted by a higher-tier arrival (`shed` true). Always carries
    /// `Retry-After` (≥ 1 second) so front-of-fleet proxies can pace.
    #[must_use]
    pub fn tier_busy(tier: &'static str, shed: bool, retry_after_secs: u64) -> Self {
        let mut r = Response {
            status: 429,
            content_type: "application/json",
            headers: Vec::new(),
            body: format!(
                "{{\"error\":\"simulation queue full\",\"tier\":\"{tier}\",\"shed\":{shed}}}"
            )
            .into_bytes(),
        };
        r.headers
            .push(("Retry-After", retry_after_secs.max(1).to_string()));
        r
    }

    /// A 504: the request's `deadline_ms` expired (`where_` says at
    /// which stage — `queue` before simulating, `sim` mid-simulation).
    #[must_use]
    pub fn deadline_exceeded(where_: &str) -> Self {
        Response {
            status: 504,
            content_type: "application/json",
            headers: Vec::new(),
            body: format!("{{\"error\":\"deadline exceeded\",\"stage\":\"{where_}\"}}")
                .into_bytes(),
        }
    }

    /// A 503 for jobs abandoned when the drain deadline passes during
    /// graceful shutdown.
    #[must_use]
    pub fn draining() -> Self {
        Response::error(503, "server draining")
    }
}

/// The standard reason phrase for the status codes this server emits.
#[must_use]
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// A [`Read`](io::Read) adapter enforcing a wall-clock deadline on the
/// *whole* request head, not just each syscall. A slow-loris client
/// trickling one header byte per interval defeats a per-read socket
/// timeout (every read succeeds quickly); this adapter rejects the next
/// read once the deadline passes, so the connection is dropped within
/// one socket-timeout granule of the deadline regardless of how the
/// bytes arrive. Reset the deadline between keep-alive requests with
/// [`DeadlineReader::set_deadline`] (the same bound then doubles as the
/// idle keep-alive timeout).
#[derive(Debug)]
pub struct DeadlineReader<R> {
    inner: R,
    deadline: std::time::Instant,
}

impl<R> DeadlineReader<R> {
    /// Wrap `inner`, rejecting reads after `deadline`.
    pub fn new(inner: R, deadline: std::time::Instant) -> Self {
        DeadlineReader { inner, deadline }
    }

    /// Move the deadline (per keep-alive request).
    pub fn set_deadline(&mut self, deadline: std::time::Instant) {
        self.deadline = deadline;
    }
}

impl<R: io::Read> io::Read for DeadlineReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if std::time::Instant::now() >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request header deadline exceeded",
            ));
        }
        self.inner.read(buf)
    }
}

/// Read one line (stripping CRLF), bounded by [`MAX_LINE`].
fn read_line<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut line = String::new();
    let mut limited = <&mut R as io::Read>::take(&mut *reader, MAX_LINE as u64 + 1);
    let n = limited.read_line(&mut line)?;
    if n == 0 {
        return Ok(None); // clean EOF
    }
    if n > MAX_LINE {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request line too long",
        ));
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(Some(line))
}

/// Read and parse one request. `Ok(None)` means the peer closed the
/// connection cleanly between requests; malformed or oversized input is
/// an `InvalidData` error (the caller drops the connection).
///
/// # Errors
///
/// I/O errors from the stream, or `InvalidData` on protocol violations.
pub fn read_request(reader: &mut impl BufRead) -> io::Result<Option<Request>> {
    let Some(start) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = start.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unsupported HTTP version",
        ));
    }
    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";
    for _ in 0..MAX_HEADERS {
        let Some(line) = read_line(reader)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside headers",
            ));
        };
        if line.is_empty() {
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body)?;
            let body = String::from_utf8(body)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
            return Ok(Some(Request {
                method: method.to_string(),
                path: path.to_string(),
                body,
                keep_alive,
            }));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed header",
            ));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
            if content_length > MAX_BODY {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "body too large"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        "too many headers",
    ))
}

/// Serialize `resp`, honoring the request's keep-alive choice.
///
/// # Errors
///
/// I/O errors writing to the stream.
pub fn write_response(out: &mut impl Write, resp: &Response, keep_alive: bool) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    out.write_all(head.as_bytes())?;
    out.write_all(&resp.body)?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &str) -> io::Result<Option<Request>> {
        read_request(&mut Cursor::new(raw.as_bytes().to_vec()))
    }

    #[test]
    fn parses_post_with_body_and_keep_alive_defaults() {
        let req = parse(
            "POST /simulate HTTP/1.1\r\nHost: x\r\nContent-Length: 17\r\n\r\n{\"workload\":\"a\"}x",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/simulate");
        assert_eq!(req.body, "{\"workload\":\"a\"}x");
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");

        let req = parse("GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, "");
        assert!(!req.keep_alive, "Connection: close honored");

        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");
    }

    #[test]
    fn clean_eof_is_none_and_garbage_is_invalid_data() {
        assert!(parse("").unwrap().is_none(), "EOF between requests");
        for bad in [
            "GARBAGE\r\n\r\n",
            "GET /x SPDY/9\r\n\r\n",
            "GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "GET /x HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{bad:?}");
        }
        // Truncated mid-headers is UnexpectedEof, not a clean close.
        let err = parse("GET /x HTTP/1.1\r\nHost: y\r\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn response_round_trips_through_the_parser_shapes() {
        let mut out = Vec::new();
        let mut resp = Response::json("{\"ok\":true}".as_bytes().to_vec());
        resp.headers.push(("X-Extra", "1".to_string()));
        write_response(&mut out, &resp, true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("X-Extra: 1\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n\r\n{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, &Response::tier_busy("normal", false, 2), false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("queue full"));
    }

    #[test]
    fn tier_and_deadline_responses_have_the_right_shape() {
        // Every 429 constructor yields a parseable Retry-After >= 1,
        // even when the caller computes a zero hint.
        for resp in [
            Response::tier_busy("batch", true, 0),
            Response::tier_busy("normal", false, 3),
        ] {
            assert_eq!(resp.status, 429);
            let retry = resp
                .headers
                .iter()
                .find(|(n, _)| n.eq_ignore_ascii_case("retry-after"))
                .map(|(_, v)| v.parse::<u64>().expect("numeric Retry-After"))
                .expect("429 always carries Retry-After");
            assert!(retry >= 1, "Retry-After must be at least 1s, got {retry}");
        }
        let shed = Response::tier_busy("batch", true, 0);
        let body = String::from_utf8(shed.body).unwrap();
        assert!(body.contains("\"tier\":\"batch\""), "{body}");
        assert!(body.contains("\"shed\":true"), "{body}");

        let expired = Response::deadline_exceeded("queue");
        assert_eq!(expired.status, 504);
        assert_eq!(reason(504), "Gateway Timeout");
        assert!(String::from_utf8(expired.body)
            .unwrap()
            .contains("\"stage\":\"queue\""));

        assert_eq!(Response::draining().status, 503);
        assert_eq!(reason(503), "Service Unavailable");
        assert_eq!(reason(422), "Unprocessable Entity");
    }

    #[test]
    fn deadline_reader_rejects_reads_past_the_deadline() {
        use std::io::Read;
        use std::time::{Duration, Instant};
        let data = Cursor::new(b"GET /x HTTP/1.1\r\n\r\n".to_vec());
        // Future deadline: reads pass through.
        let mut ok = DeadlineReader::new(data, Instant::now() + Duration::from_secs(60));
        let mut buf = [0u8; 4];
        assert_eq!(ok.read(&mut buf).unwrap(), 4);
        // Expired deadline: the next read is a TimedOut error even
        // though bytes are available — the slow-loris bound.
        ok.set_deadline(Instant::now() - Duration::from_millis(1));
        let err = ok.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
