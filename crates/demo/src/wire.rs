//! The HTTP/1.1 wire under [`DemoApp`]: request framing, response
//! writing, the connection handler threads and the accept loop.
//!
//! One request per connection (`Connection: close`). Nothing the peer
//! sends is trusted: lines, headers and bodies are capped before they are
//! buffered, every read and write is bounded by a 10 s I/O timeout, and
//! a request past a bound is answered without being read to its end.
//! [`serve`] hands each accepted connection to a reused handler thread
//! (at most [`MAX_CONNECTIONS`], each retired after 10 s idle),
//! answers `503` beyond the cap on the accept thread, retries a failed
//! accept after a back-off, and returns once a [`ShutdownHandle`] asks it
//! to, after draining in-flight connections.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use arp_obs::{Gauge, Registry};

use crate::server::{DemoApp, HttpResponse};

/// Upper bound on concurrently handled TCP connections; the accept loop
/// answers `503` beyond it instead of spawning without bound.
pub const MAX_CONNECTIONS: usize = 128;

/// Hard wire-level bound on any request body. `read_request` refuses to
/// read past it: a larger `Content-Length` is answered `413` with the
/// declared bytes left unread on the (about-to-close) connection.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// How long a connection may stay silent mid-request, or refuse to take
/// its response, before its handler thread gives up on it. Without the
/// bound, sockets that connect and send nothing pin every one of the
/// [`MAX_CONNECTIONS`] handlers and the accept loop answers `503` for as
/// long as they stay open.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// How long the handler of a refused request keeps reading (and
/// discarding) what its peer still sends after the response went out.
/// Closing a socket with bytes unread resets the connection, and the
/// reset can reach a peer still writing its request before it reads the
/// refusal.
const LINGER: Duration = Duration::from_millis(250);

/// The accept loop's first wait after a failed accept (out of file
/// descriptors, say); it doubles on each failure in a row up to
/// [`ACCEPT_BACKOFF_MAX`], and resets on the next successful accept.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_millis(5);

/// The longest wait between two accept attempts.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// Longest request line or header line `read_request` buffers; a longer
/// one is answered `431` with the rest of it left unread.
pub(crate) const MAX_LINE_BYTES: usize = 8 * 1024;

/// Most header lines `read_request` reads; more are answered `431`.
pub(crate) const MAX_HEADERS: usize = 64;

/// Every status the handlers answer with, and its reason phrase.
pub(crate) const STATUSES: [(u16, &str); 11] = [
    (200, "OK"),
    (400, "Bad Request"),
    (404, "Not Found"),
    (405, "Method Not Allowed"),
    (413, "Payload Too Large"),
    (431, "Request Header Fields Too Large"),
    (500, "Internal Server Error"),
    (501, "Not Implemented"),
    (502, "Bad Gateway"),
    (503, "Service Unavailable"),
    (504, "Gateway Timeout"),
];

/// One request off the wire: the parsed request line plus either the
/// body or a refusal to read it.
pub(crate) struct RawRequest {
    pub(crate) method: String,
    pub(crate) path: String,
    pub(crate) body: String,
    /// The request broke a wire bound; the status and message to answer
    /// it with. Whatever had not been read by then was left unread.
    pub(crate) refused: Option<(u16, &'static str)>,
}

/// Reads one line of at most [`MAX_LINE_BYTES`] into `line`, returning
/// whether it fit. Nothing past the cap is buffered: a peer cannot make
/// the server allocate for a line that never ends. Bytes that are not
/// UTF-8 are read lossily (`U+FFFD`), so they reach a status code instead
/// of failing the read.
fn read_bounded_line(reader: &mut impl BufRead, line: &mut String) -> std::io::Result<bool> {
    let mut bytes = std::mem::take(line).into_bytes();
    bytes.clear();
    let n = reader
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', &mut bytes)?;
    *line = String::from_utf8(bytes)
        .unwrap_or_else(|invalid| String::from_utf8_lossy(invalid.as_bytes()).into_owned());
    Ok(n < MAX_LINE_BYTES || line.ends_with('\n'))
}

/// Reads one HTTP request (request line, headers, body per
/// `Content-Length`) from a stream, trusting the peer with nothing: lines
/// are capped at [`MAX_LINE_BYTES`], headers at [`MAX_HEADERS`], and a
/// body whose declared length exceeds [`MAX_BODY_BYTES`] is **not read at
/// all**. A body must be framed by `Content-Length`: a request carrying
/// `Transfer-Encoding` is refused with `501` (RFC 9112 §6.1), since
/// reading it by its length would take a chunked body for an empty one.
/// A request past any bound comes back with `refused` set so the serving
/// loop can answer it without having buffered the excess.
pub(crate) fn read_request(stream: impl Read) -> std::io::Result<Option<RawRequest>> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let fits = read_bounded_line(&mut reader, &mut line)?;
    if line.is_empty() {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let mut request = RawRequest {
        method: parts.next().unwrap_or("").to_string(),
        path: parts.next().unwrap_or("/").to_string(),
        body: String::new(),
        refused: None,
    };
    let too_large = Some((431, "request header fields too large"));
    if !fits {
        request.refused = too_large;
        return Ok(Some(request));
    }

    let mut content_length: Option<usize> = None;
    for header in 0.. {
        let fits = read_bounded_line(&mut reader, &mut line)?;
        let header_line = line.trim_end();
        if header_line.is_empty() && fits {
            break;
        }
        if !fits || header == MAX_HEADERS {
            request.refused = too_large;
            return Ok(Some(request));
        }
        let header_line = header_line.to_ascii_lowercase();
        if header_line.starts_with("transfer-encoding:") {
            request.refused = Some((
                501,
                "Transfer-Encoding is not supported; send Content-Length",
            ));
            return Ok(Some(request));
        }
        if let Some(v) = header_line.strip_prefix("content-length:") {
            let Ok(declared) = v.trim().parse() else {
                request.refused = Some((400, "malformed Content-Length"));
                return Ok(Some(request));
            };
            // Two lengths that disagree leave the body's end unknowable
            // (RFC 9112 §6.3): refuse rather than pick one.
            if content_length.is_some_and(|seen| seen != declared) {
                request.refused = Some((400, "conflicting Content-Length"));
                return Ok(Some(request));
            }
            content_length = Some(declared);
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        request.refused = Some((413, "request body too large"));
        return Ok(Some(request));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    request.body = String::from_utf8_lossy(&body).into_owned();
    Ok(Some(request))
}

/// Sends head and body in one vectored write. `write!` on the unbuffered
/// stream would turn every piece of its format string into a `write(2)`
/// of its own.
pub(crate) fn write_response(stream: &mut impl Write, resp: &HttpResponse) -> std::io::Result<()> {
    let reason = STATUSES
        .iter()
        .find(|(status, _)| *status == resp.status)
        .map_or("Internal Server Error", |(_, reason)| reason);
    let mut head = format!(
        "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        resp.content_type,
        resp.body.len(),
    );
    if let Some(seconds) = resp.retry_after {
        head += &format!("Retry-After: {seconds}\r\n");
    }
    if let Some(id) = &resp.trace_id {
        head += &format!("X-Arp-Trace-Id: {id}\r\n");
    }
    head += "Connection: close\r\n\r\n";

    let (head, body) = (head.as_bytes(), resp.body.as_bytes());
    let sent = match stream.write_vectored(&[IoSlice::new(head), IoSlice::new(body)]) {
        Err(e) if e.kind() == ErrorKind::Interrupted => 0,
        sent => sent?,
    };
    // A short write: the peer's window took only part of it.
    if sent < head.len() {
        stream.write_all(&head[sent..])?;
        stream.write_all(body)?;
    } else {
        stream.write_all(&body[sent - head.len()..])?;
    }
    stream.flush()
}

/// What a handler needs of its connection besides its bytes: a bound on
/// how long one read or write may block, and ending its sending half.
/// `TcpStream` is the one served; tests drive an in-memory one.
pub(crate) trait Conn: Read + Write {
    /// Bounds every later read and write by `timeout`.
    fn set_timeout(&mut self, timeout: Duration) -> std::io::Result<()>;
    /// Ends the sending half: the peer reads end-of-stream after what was
    /// written, and can still send.
    fn half_close(&mut self) -> std::io::Result<()>;
}

impl Conn for TcpStream {
    fn set_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
        self.set_read_timeout(Some(timeout))?;
        self.set_write_timeout(Some(timeout))
    }

    fn half_close(&mut self) -> std::io::Result<()> {
        self.shutdown(Shutdown::Write)
    }
}

/// What the accept loop needs of its listener. `TcpListener` is the one
/// served; tests wrap it to make accepts fail.
pub(crate) trait Listener {
    /// Waits for the next connection.
    fn accept(&self) -> std::io::Result<TcpStream>;
    /// The address the listener is bound to.
    fn local_addr(&self) -> std::io::Result<SocketAddr>;
}

impl Listener for TcpListener {
    fn accept(&self) -> std::io::Result<TcpStream> {
        TcpListener::accept(self).map(|(stream, _)| stream)
    }

    fn local_addr(&self) -> std::io::Result<SocketAddr> {
        TcpListener::local_addr(self)
    }
}

/// Serves the one request of an accepted connection; the caller closes
/// it. Every read and write is bounded by `io_timeout`, so a peer that
/// goes silent hands its handler thread back instead of holding a
/// connection slot.
pub(crate) fn handle_connection(app: &DemoApp, conn: &mut impl Conn, io_timeout: Duration) {
    if conn.set_timeout(io_timeout).is_err() {
        return;
    }
    let Ok(Some(req)) = read_request(&mut *conn) else {
        return;
    };
    let Some(refusal) = req.refused else {
        let _ = write_response(conn, &app.handle(&req.method, &req.path, &req.body));
        return;
    };
    let resp = app.reject_unread(&req.method, &req.path, refusal);
    if write_response(conn, &resp).is_ok() {
        // A staged close (RFC 9112 §9.6): end our side, then drain what
        // the peer still sends — for at most `LINGER` and
        // `MAX_BODY_BYTES` — so the close does not reset it.
        let _ = conn.half_close();
        if conn.set_timeout(LINGER).is_ok() {
            let _ = std::io::copy(&mut conn.take(MAX_BODY_BYTES as u64), &mut std::io::sink());
        }
    }
}

/// A cloneable handle that asks [`serve`] to stop.
///
/// `TcpListener::accept` has no portable cancellation, so the handle
/// pairs an atomic flag with a self-connect: `request_shutdown` sets the
/// flag and then opens (and immediately drops) one TCP connection to the
/// listener's own address, waking the accept loop so it can observe the
/// flag and return instead of blocking forever.
#[derive(Clone, Debug, Default)]
pub struct ShutdownHandle {
    requested: Arc<AtomicBool>,
    listener_addr: Arc<Mutex<Option<SocketAddr>>>,
}

impl ShutdownHandle {
    /// A fresh handle with shutdown not yet requested.
    pub fn new() -> ShutdownHandle {
        ShutdownHandle::default()
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.requested.load(Ordering::Acquire)
    }

    /// Records the accept loop's local address so `request_shutdown` can
    /// wake it. The loop calls it before it first looks at the flag, so
    /// a request either finds the address or is seen by that look.
    fn register_listener(&self, addr: SocketAddr) {
        *self.listener_addr.lock().expect("shutdown handle poisoned") = Some(addr);
    }

    /// Requests shutdown and wakes the registered accept loop (if any) by
    /// briefly connecting to it. Idempotent.
    pub fn request_shutdown(&self) {
        self.requested.store(true, Ordering::Release);
        let addr = *self.listener_addr.lock().expect("shutdown handle poisoned");
        if let Some(addr) = addr {
            // The connection exists only to pop the accept loop out of
            // `accept()`; errors (loop already gone) are fine.
            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        }
    }
}

/// Serves the app on `listener` until `shutdown` is triggered.
///
/// Connection handling is bounded: the accept loop hands each connection
/// to an idle handler thread and spawns a new one only when every handler
/// is busy, so at most [`MAX_CONNECTIONS`] handler threads exist; a
/// handler idle for the I/O timeout retires. Connections beyond the cap
/// are answered `503` with `Retry-After` on the accept thread. A failed
/// accept or handler spawn is logged to stderr and does not end the loop:
/// an accept is retried after a back-off (5 ms, doubling to 1 s), and a
/// connection no handler could be spawned for is closed. On shutdown the
/// loop stops accepting, drains in-flight connections (for at most 5 s)
/// and releases every idle handler before returning.
pub fn serve(app: Arc<DemoApp>, listener: TcpListener, shutdown: ShutdownHandle) {
    serve_connections(app, listener, shutdown, IO_TIMEOUT)
}

/// The accept loop's hand-off to the connection handler threads it
/// reuses. A stream is queued when more handlers are idle than streams
/// are queued, so every queued stream has a handler waiting for it;
/// otherwise the accept loop spawns a handler for it.
struct Handoff {
    state: Mutex<HandoffState>,
    /// Wakes idle handlers for a queued stream or the close, and the
    /// closer when a handler leaves after the close.
    wake: Condvar,
    /// Connections accepted and not yet given back by their handler,
    /// queued ones included; the accept loop sheds at [`MAX_CONNECTIONS`].
    /// Given back only under the state lock, so the closer can wait for
    /// it to reach 0 on `wake`.
    active: AtomicUsize,
    /// `arp_http_handler_threads`: handler threads alive, busy or idle.
    threads_gauge: Gauge,
}

#[derive(Default)]
struct HandoffState {
    queue: VecDeque<TcpStream>,
    /// Handlers done with their connection and not yet given another:
    /// waiting for a stream, or about to.
    idle: usize,
    /// Handler threads alive.
    threads: usize,
    closed: bool,
}

impl Handoff {
    fn new(registry: &Registry) -> Handoff {
        Handoff {
            state: Mutex::default(),
            wake: Condvar::new(),
            active: AtomicUsize::new(0),
            threads_gauge: registry.gauge(
                "arp_http_handler_threads",
                "HTTP connection handler threads alive, busy or idle.",
                &[],
            ),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HandoffState> {
        self.state.lock().expect("connection hand-off poisoned")
    }

    /// Queues `stream` for an idle handler, or gives it back when every
    /// handler is busy, counting the handler the caller must spawn for it.
    fn offer(&self, stream: TcpStream) -> Option<TcpStream> {
        let mut state = self.lock();
        if state.idle > state.queue.len() {
            state.queue.push_back(stream);
            drop(state);
            self.wake.notify_one();
            return None;
        }
        state.threads += 1;
        self.threads_gauge.set(state.threads as i64);
        Some(stream)
    }

    /// Gives back the slot and the thread `offer` counted for a handler
    /// that could not be spawned; its connection was dropped.
    fn unspawned(&self) {
        let mut state = self.lock();
        self.active.fetch_sub(1, Ordering::AcqRel);
        state.threads -= 1;
        self.threads_gauge.set(state.threads as i64);
    }

    /// Called by a handler with the connection it is done with: gives its
    /// slot back, closes it and waits up to `idle_timeout` for the next
    /// stream. `None` retires the handler (timed out, or the hand-off is
    /// closed).
    fn next(&self, done: TcpStream, idle_timeout: Duration) -> Option<TcpStream> {
        {
            let mut state = self.lock();
            // Under the lock, so a spawn never sees a handler that holds
            // no slot and is not idle: handlers stay within the cap.
            self.active.fetch_sub(1, Ordering::AcqRel);
            state.idle += 1;
        }
        // Closed only once this handler counts as idle, so a peer that
        // connects again as soon as it has its answer finds it idle.
        drop(done);
        let deadline = Instant::now() + idle_timeout;
        let mut state = self.lock();
        loop {
            let next = state.queue.pop_front();
            let now = Instant::now();
            if next.is_some() || state.closed || now >= deadline {
                state.idle -= 1;
                if next.is_none() {
                    state.threads -= 1;
                    self.threads_gauge.set(state.threads as i64);
                }
                // Only the closer waits for handlers to leave; in normal
                // serving nobody is woken.
                if state.closed {
                    self.wake.notify_all();
                }
                return next;
            }
            state = self
                .wake
                .wait_timeout(state, deadline - now)
                .expect("connection hand-off poisoned")
                .0;
        }
    }

    /// Closes the hand-off, waits up to `drain` for every connection to
    /// be given back, and returns once no handler is left waiting; a
    /// handler still serving after `drain` retires when its connection is
    /// done.
    fn close(&self, drain: Duration) {
        let deadline = Instant::now() + drain;
        let mut state = self.lock();
        state.closed = true;
        self.wake.notify_all();
        while self.active.load(Ordering::Acquire) > 0 {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            state = self
                .wake
                .wait_timeout(state, deadline - now)
                .expect("connection hand-off poisoned")
                .0;
        }
        while state.idle > 0 {
            state = self.wake.wait(state).expect("connection hand-off poisoned");
        }
    }
}

/// [`serve`] with the per-connection I/O timeout (also the handlers' idle
/// timeout) passed in, so tests need not wait out [`IO_TIMEOUT`].
pub(crate) fn serve_connections(
    app: Arc<DemoApp>,
    listener: impl Listener,
    shutdown: ShutdownHandle,
    io_timeout: Duration,
) {
    if let Ok(addr) = listener.local_addr() {
        shutdown.register_listener(addr);
    }
    let handoff = Arc::new(Handoff::new(app.processor.registry()));
    let mut backoff = ACCEPT_BACKOFF_MIN;
    while !shutdown.is_shutdown() {
        let mut stream = match listener.accept() {
            Ok(stream) => stream,
            Err(e) => {
                eprintln!("accept failed: {e}; retrying in {backoff:?}");
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                continue;
            }
        };
        backoff = ACCEPT_BACKOFF_MIN;
        // The wake-up connection of `request_shutdown`.
        if shutdown.is_shutdown() {
            break;
        }
        if handoff.active.load(Ordering::Acquire) >= MAX_CONNECTIONS {
            let resp = HttpResponse::overloaded(1);
            let _ = write_response(&mut stream, &resp);
            continue;
        }
        handoff.active.fetch_add(1, Ordering::AcqRel);
        let Some(stream) = handoff.offer(stream) else {
            continue;
        };
        let app = Arc::clone(&app);
        let handler_handoff = Arc::clone(&handoff);
        let spawned = std::thread::Builder::new().spawn(move || {
            let mut next = Some(stream);
            while let Some(mut stream) = next {
                handle_connection(&app, &mut stream, io_timeout);
                next = handler_handoff.next(stream, io_timeout);
            }
        });
        // A failed spawn drops the closure, and with it the connection.
        if let Err(e) = spawned {
            eprintln!("handler spawn failed: {e}; connection dropped");
            handoff.unspawned();
        }
    }
    handoff.close(Duration::from_secs(5));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryProcessor;
    use arp_citygen::{City, Scale};
    use proptest::prelude::*;
    use std::io::Cursor;
    use std::sync::{mpsc, OnceLock};

    fn app() -> DemoApp {
        let g = arp_citygen::generate(City::Dhaka, Scale::Tiny, 9);
        DemoApp::new(QueryProcessor::new(g.name.clone(), g.network, 9))
    }

    /// A connection held in memory: reads `input` to its end, keeps what
    /// is written, and records each timeout set and where the sending
    /// half was closed.
    struct Duplex {
        input: Cursor<Vec<u8>>,
        output: Vec<u8>,
        timeouts: Vec<Duration>,
        /// `output`'s length when `half_close` was called.
        closed_at: Option<usize>,
    }

    impl Duplex {
        fn new(input: Vec<u8>) -> Duplex {
            Duplex {
                input: Cursor::new(input),
                output: Vec::new(),
                timeouts: Vec::new(),
                closed_at: None,
            }
        }
    }

    impl Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.closed_at.is_some() {
                return Err(ErrorKind::BrokenPipe.into());
            }
            self.output.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Conn for Duplex {
        fn set_timeout(&mut self, timeout: Duration) -> std::io::Result<()> {
            self.timeouts.push(timeout);
            Ok(())
        }

        fn half_close(&mut self) -> std::io::Result<()> {
            self.closed_at = Some(self.output.len());
            Ok(())
        }
    }

    /// The status of the one response `wire` holds, or `None` when it is
    /// empty. Fails unless `wire` is exactly one response: a status line
    /// naming a status of [`STATUSES`] with its reason, and a body as long
    /// as its `Content-Length`.
    fn one_response(wire: &[u8]) -> Result<Option<u16>, String> {
        if wire.is_empty() {
            return Ok(None);
        }
        let text = String::from_utf8_lossy(wire);
        let (head, body) = text.split_once("\r\n\r\n").ok_or("no end of head")?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let (status, reason) = STATUSES
            .iter()
            .find(|(status, reason)| status_line == format!("HTTP/1.1 {status} {reason}"))
            .ok_or(format!("unknown status line {status_line:?}"))?;
        let length = lines
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .and_then(|l| l.parse::<usize>().ok())
            .ok_or("no Content-Length")?;
        if wire.len() != head.len() + 4 + length {
            return Err(format!(
                "{status} {reason}: {} body bytes for Content-Length {length}",
                body.len()
            ));
        }
        Ok(Some(*status))
    }

    #[test]
    fn flag_flips_once_requested() {
        let handle = ShutdownHandle::new();
        assert!(!handle.is_shutdown());
        handle.request_shutdown();
        assert!(handle.is_shutdown());
        handle.request_shutdown(); // idempotent
        assert!(handle.is_shutdown());
    }

    #[test]
    fn clones_share_the_flag() {
        let handle = ShutdownHandle::new();
        let clone = handle.clone();
        handle.request_shutdown();
        assert!(clone.is_shutdown());
    }

    #[test]
    fn request_wakes_a_blocking_accept_loop() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let handle = ShutdownHandle::new();
        handle.register_listener(listener.local_addr().expect("local addr"));
        let loop_handle = {
            let shutdown = handle.clone();
            std::thread::spawn(move || {
                let mut accepted = 0u32;
                loop {
                    if shutdown.is_shutdown() {
                        return accepted;
                    }
                    match listener.accept() {
                        Ok(_) => accepted += 1,
                        Err(_) => return accepted,
                    }
                }
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        handle.request_shutdown();
        let accepted = loop_handle.join().expect("accept loop exits");
        // The wake-up connection itself may or may not be counted depending
        // on interleaving; the property under test is that the loop exits.
        assert!(accepted <= 1);
    }

    /// A shutdown requested before the loop registered its listener makes
    /// no wake-up connection, so the loop must see the flag before its
    /// first `accept`, or it blocks until some client connects.
    #[test]
    fn a_shutdown_requested_before_serving_stops_the_loop() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let shutdown = ShutdownHandle::new();
        shutdown.request_shutdown();
        let (returned, stopped) = mpsc::channel();
        let app = Arc::new(app());
        let server = std::thread::spawn(move || {
            serve(app, listener, shutdown);
            returned.send(())
        });
        stopped
            .recv_timeout(Duration::from_secs(5))
            .expect("serve returns without a client connecting");
        server.join().unwrap().unwrap();
    }

    /// A listener whose first accepts fail with `EMFILE`, as when the
    /// process is out of file descriptors.
    struct ExhaustedListener {
        inner: TcpListener,
        failures_left: std::cell::Cell<u32>,
    }

    impl Listener for ExhaustedListener {
        fn accept(&self) -> std::io::Result<TcpStream> {
            let left = self.failures_left.get();
            if left > 0 {
                self.failures_left.set(left - 1);
                return Err(std::io::Error::from_raw_os_error(24));
            }
            self.inner.accept().map(|(stream, _)| stream)
        }

        fn local_addr(&self) -> std::io::Result<SocketAddr> {
            self.inner.local_addr()
        }
    }

    /// A failed accept is retried, not returned: the loop serves the
    /// request behind three failures and still stops on shutdown.
    #[test]
    fn failed_accepts_are_retried_until_shutdown() {
        let inner = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = inner.local_addr().unwrap();
        let listener = ExhaustedListener {
            inner,
            failures_left: std::cell::Cell::new(3),
        };
        let shutdown = ShutdownHandle::new();
        let (returned, stopped) = mpsc::channel();
        let app = Arc::new(app());
        let server = {
            let shutdown = shutdown.clone();
            std::thread::spawn(move || {
                serve_connections(app, listener, shutdown, IO_TIMEOUT);
                returned.send(())
            })
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /api/health HTTP/1.1\r\nHost: localhost\r\n\r\n")
            .unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        assert!(answer.starts_with("HTTP/1.1 200 OK"), "{answer}");

        shutdown.request_shutdown();
        stopped
            .recv_timeout(Duration::from_secs(5))
            .expect("the loop stops on shutdown");
        server.join().unwrap().unwrap();
    }

    /// A transfer-coded request gets one `501` and nothing is applied.
    /// Then the handler ends its sending half, lingers for `LINGER` and
    /// drains what the peer still sends, past its read-ahead buffer.
    #[test]
    fn a_transfer_encoded_request_is_answered_once_then_drained() {
        let app = app();
        let mut input = b"POST /api/traffic HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                          7\r\nclose:0\r\n0\r\n\r\n"
            .to_vec();
        input.extend(std::iter::repeat_n(b'x', 4 * MAX_LINE_BYTES));
        let mut conn = Duplex::new(input);
        handle_connection(&app, &mut conn, IO_TIMEOUT);

        assert_eq!(one_response(&conn.output), Ok(Some(501)));
        assert_eq!(conn.closed_at, Some(conn.output.len()));
        assert_eq!(conn.timeouts, [IO_TIMEOUT, LINGER]);
        assert_eq!(conn.input.position() as usize, conn.input.get_ref().len());
        assert_eq!(app.processor.traffic().epoch(), 0, "nothing was applied");
    }

    /// Pieces of requests the byte streams are built from: request lines,
    /// framing headers, a blank line, a line past `MAX_LINE_BYTES`. Any
    /// other index draws one arbitrary byte.
    fn piece(i: usize, byte: u8) -> Vec<u8> {
        let pieces: [&[u8]; 10] = [
            b"GET /api/health HTTP/1.1\r\n",
            b"POST /api/traffic HTTP/1.1\r\n",
            b"POST /api/route HTTP/1.1\r\n",
            b"BREW /\r\n",
            b"Content-Length: 3\r\n",
            b"content-length: many\r\n",
            b"Transfer-Encoding: chunked\r\n",
            b"X-Tag: \xff\r\n",
            b"\r\n",
            b"\n",
        ];
        match pieces.get(i) {
            Some(piece) => piece.to_vec(),
            None if i == pieces.len() => vec![b'a'; MAX_LINE_BYTES + 1],
            None => vec![byte],
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn any_byte_stream_gets_at_most_one_response_with_a_known_status(
            pieces in proptest::collection::vec((0usize..24, any::<u8>()), 0..48),
        ) {
            static APP: OnceLock<DemoApp> = OnceLock::new();
            let app = APP.get_or_init(app);
            let input: Vec<u8> = pieces.iter().flat_map(|&(i, byte)| piece(i, byte)).collect();
            let sent = String::from_utf8_lossy(&input).into_owned();
            let mut conn = Duplex::new(input);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                handle_connection(app, &mut conn, IO_TIMEOUT)
            }));
            prop_assert!(outcome.is_ok(), "handle_connection panicked on {:?}", sent);
            let response = one_response(&conn.output);
            prop_assert!(response.is_ok(), "{:?} answered {:?}", sent, response);
        }
    }
}
