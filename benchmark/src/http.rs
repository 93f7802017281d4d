//! A minimal HTTP/1.1 client for a server that answers
//! `Connection: close`: one connection per request, read to the declared
//! `Content-Length`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a single exchange may take. A `rush-hour` miss that falls
/// back to Dijkstra takes ~0.2 s; anything near this bound is a hang.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Largest body the reader will allocate for (route bodies are ~100 KB).
const MAX_BODY: usize = 64 << 20;

pub struct Response {
    pub status: u16,
    pub body: String,
}

/// One exchange and its latency from `connect` to the last body byte.
pub struct Timed {
    pub response: Response,
    pub ms: f64,
}

pub fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Timed> {
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    // One write, so the request leaves in one segment.
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes())?;
    let response = read_response(&mut BufReader::with_capacity(64 << 10, stream))?;
    Ok(Timed {
        response,
        ms: start.elapsed().as_secs_f64() * 1e3,
    })
}

pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    exchange(addr, "GET", path, "").map(|t| t.response)
}

fn bad(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Reads a status line, headers and a body. With a `Content-Length` the
/// body is exactly that long (a short read is an error); without one it
/// runs to end of stream.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let status = line
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| bad(format!("bad status line {line:?}")))?;
    let mut content_length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("stream ended inside the headers"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                let n: usize = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad Content-Length {value:?}")))?;
                if n > MAX_BODY {
                    return Err(bad(format!("Content-Length {n} exceeds {MAX_BODY}")));
                }
                content_length = Some(n);
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            reader.read_exact(&mut body)?;
        }
        None => {
            reader.take(MAX_BODY as u64).read_to_end(&mut body)?;
        }
    }
    let body = String::from_utf8(body).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Hands out at most `chunk` bytes per read, like a socket does.
    struct Dribble {
        data: Cursor<Vec<u8>>,
        chunk: usize,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.chunk);
            self.data.read(&mut buf[..n])
        }
    }

    fn wire(status: &str, extra: &str, body: &str, declare: bool) -> Vec<u8> {
        let length = if declare {
            format!("Content-Length: {}\r\n", body.len())
        } else {
            String::new()
        };
        format!(
            "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n{length}{extra}Connection: close\r\n\r\n{body}"
        )
        .into_bytes()
    }

    fn read(bytes: Vec<u8>, chunk: usize) -> io::Result<Response> {
        let dribble = Dribble {
            data: Cursor::new(bytes),
            chunk,
        };
        read_response(&mut BufReader::with_capacity(4096, dribble))
    }

    #[test]
    fn reads_a_100_kb_connection_close_body_across_short_reads() {
        let body: String = (0..100 * 1024)
            .map(|i| char::from(b'a' + (i % 26) as u8))
            .collect();
        for chunk in [1, 7, 1460, 1 << 20] {
            let r = read(
                wire("200 OK", "X-Arp-Trace-Id: 00ff\r\n", &body, true),
                chunk,
            )
            .unwrap();
            assert_eq!(r.status, 200);
            assert_eq!(r.body.len(), 100 * 1024);
            assert_eq!(r.body, body);
        }
    }

    #[test]
    fn body_without_a_length_runs_to_end_of_stream() {
        let r = read(
            wire("503 Service Unavailable", "", "{\"error\":1}", false),
            3,
        )
        .unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.body, "{\"error\":1}");
    }

    #[test]
    fn truncated_or_malformed_responses_are_errors() {
        let mut short = wire("200 OK", "", "0123456789", true);
        short.truncate(short.len() - 4);
        assert!(read(short, 5).is_err(), "body shorter than declared");
        assert!(read(b"HTTP/1.1 200 OK\r\nContent-Le".to_vec(), 5).is_err());
        assert!(read(b"garbage\r\n\r\n".to_vec(), 5).is_err());
        assert!(read(Vec::new(), 5).is_err());
        let huge = b"HTTP/1.1 200 OK\r\nContent-Length: 99999999999\r\n\r\n".to_vec();
        assert!(
            read(huge, 64).is_err(),
            "length is bounded before allocating"
        );
    }
}
