//! A minimal HTTP/1.1 load generator: keep-alive, pipelined connections,
//! one thread per connection.
//!
//! The open loop sends each request when it is due, whether or not
//! earlier replies have arrived, and times it from its due time. One
//! thread drives each connection full duplex over a nonblocking socket,
//! waiting in `ppoll` until the socket is ready or the next request is
//! due, so the generator never needs more threads than connections.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use crate::trace;

/// One request of a schedule.
#[derive(Debug, Clone)]
pub struct Planned<'a> {
    /// When the request is due (open loop); ignored by the closed loop.
    pub due: Instant,
    pub path: &'a str,
    pub body: &'a [u8],
    /// Span name recorded for this request in traced runs.
    pub span: &'static str,
    /// Caller's tag (request class, input index, ...).
    pub tag: usize,
}

/// What came back for one request.
#[derive(Debug, Clone)]
pub struct Reply {
    pub tag: usize,
    pub due: Instant,
    /// When its first byte went out.
    pub sent: Instant,
    pub done: Instant,
    /// 0 when the connection failed before a reply.
    pub status: u16,
    pub version: Option<String>,
    pub body: Vec<u8>,
    pub request_bytes: usize,
    pub response_bytes: usize,
}

impl Reply {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// Latency from due time in ms; a failed request is `+inf`, beyond
    /// any limit.
    pub fn latency_ms(&self) -> f64 {
        if self.ok() {
            (self.done - self.due).as_secs_f64() * 1e3
        } else {
            f64::INFINITY
        }
    }

    /// How late the generator started sending, in ms.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

fn head(path: &str, body_len: usize) -> Vec<u8> {
    format!("POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {body_len}\r\n\r\n")
        .into_bytes()
}

/// A parsed response head plus the whole response length, once `buf`
/// holds a complete response.
fn parse_response(buf: &[u8]) -> Option<(u16, Option<String>, usize, usize)> {
    let header_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let text = String::from_utf8_lossy(&buf[..header_end]);
    let mut lines = text.lines();
    let status: u16 = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let mut length = 0usize;
    let mut version = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok()?;
            } else if name.eq_ignore_ascii_case("x-model-version") {
                version = Some(value.trim().to_string());
            }
        }
    }
    (buf.len() >= header_end + length).then_some((status, version, header_end, header_end + length))
}

struct InFlight {
    idx: usize,
    sent: Instant,
    bytes: usize,
}

mod sys {
    //! `ppoll(2)`: wait until a socket is readable or writable, with a
    //! nanosecond timeout. Socket timeouts (`SO_RCVTIMEO`) count in
    //! kernel ticks, several milliseconds on common kernels, which would
    //! make the generator send late and see replies late.

    use std::os::fd::AsRawFd;
    use std::time::Duration;

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }

    /// Block until `socket` is ready for `events` or `timeout` passes.
    pub fn wait(socket: &impl AsRawFd, events: i16, timeout: Duration) {
        let mut fd = PollFd {
            fd: socket.as_raw_fd(),
            events,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fd` and `ts` are live, properly laid out `pollfd` and
        // `timespec` values for the duration of the call; `nfds` is 1,
        // matching the single `pollfd`; a null signal mask leaves the
        // mask unchanged. The result only says whether to look again.
        unsafe {
            ppoll(&mut fd, 1, &ts, std::ptr::null());
        }
    }
}

/// Drive `plan` (sorted by due time) over one keep-alive connection to
/// `addr`, open loop. Requests still unanswered at `give_up` fail.
pub fn open_loop(addr: SocketAddr, plan: &[Planned<'_>], give_up: Instant) -> Vec<Reply> {
    let mut replies: Vec<Option<Reply>> = vec![None; plan.len()];
    let Ok(mut stream) = TcpStream::connect(addr) else {
        let now = Instant::now();
        return plan.iter().map(|p| failed(p, now)).collect();
    };
    stream.set_nodelay(true).ok();
    let broken = stream.set_nonblocking(true).is_err();
    let mut next = 0usize;
    let mut writing: Option<(Vec<u8>, usize)> = None;
    let mut in_flight: VecDeque<InFlight> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut chunk = vec![0u8; 256 << 10];
    let mut broken = broken;
    while !broken && (next < plan.len() || writing.is_some() || !in_flight.is_empty()) {
        let now = Instant::now();
        if now >= give_up {
            break;
        }
        if writing.is_none() && next < plan.len() && plan[next].due <= now {
            let p = &plan[next];
            let mut bytes = head(p.path, p.body.len());
            bytes.extend_from_slice(p.body);
            in_flight.push_back(InFlight {
                idx: next,
                sent: now,
                bytes: bytes.len(),
            });
            writing = Some((bytes, 0));
            next += 1;
        }
        let mut blocked_write = false;
        if let Some((bytes, off)) = writing.as_mut() {
            match stream.write(&bytes[*off..]) {
                Ok(n) => *off += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => blocked_write = true,
                Err(_) => broken = true,
            }
            if *off == bytes.len() {
                writing = None;
            }
        }
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    broken = true;
                    break;
                }
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => {
                    broken = true;
                    break;
                }
            }
        }
        let done = Instant::now();
        while let Some((status, version, body_start, end)) = parse_response(&buf) {
            let Some(f) = in_flight.pop_front() else {
                broken = true;
                break;
            };
            let p = &plan[f.idx];
            trace::record(p.span, f.idx as u64, p.due, done);
            replies[f.idx] = Some(Reply {
                tag: p.tag,
                due: p.due,
                sent: f.sent,
                done,
                status,
                version,
                body: buf[body_start..end].to_vec(),
                request_bytes: f.bytes,
                response_bytes: end,
            });
            buf.drain(..end);
        }
        let finished = next == plan.len() && writing.is_none() && in_flight.is_empty();
        if finished || (writing.is_some() && !blocked_write) {
            continue;
        }
        // Wait for the socket, but no later than the next due time.
        let until = match plan.get(next) {
            Some(p) if writing.is_none() => p.due.min(give_up),
            _ => give_up,
        };
        let events = if writing.is_some() {
            sys::POLLIN | sys::POLLOUT
        } else {
            sys::POLLIN
        };
        let _idle = (in_flight.is_empty() && writing.is_none())
            .then(|| trace::span("loadgen.idle", next as u64));
        sys::wait(
            &stream,
            events,
            until.saturating_duration_since(Instant::now()),
        );
    }
    for f in &in_flight {
        replies[f.idx] = Some(failed(&plan[f.idx], f.sent));
    }
    let now = Instant::now();
    replies
        .into_iter()
        .zip(plan)
        .map(|(r, p)| r.unwrap_or_else(|| failed(p, now)))
        .collect()
}

fn failed(p: &Planned<'_>, sent: Instant) -> Reply {
    Reply {
        tag: p.tag,
        due: p.due,
        sent,
        done: sent,
        status: 0,
        version: None,
        body: Vec::new(),
        request_bytes: 0,
        response_bytes: 0,
    }
}

/// Closed loop over one connection: keep `depth` requests in flight,
/// cycling through `plan`, until `stop`; then drain. Each reply's `due`
/// is its send time.
pub fn closed_loop(
    addr: SocketAddr,
    plan: &[Planned<'_>],
    depth: usize,
    stop: Instant,
) -> Vec<Reply> {
    let mut out = Vec::new();
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return out;
    };
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(10))).ok();
    let mut queue: VecDeque<(usize, Instant, usize)> = VecDeque::new();
    let mut buf = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 64 << 10];
    let mut sent = 0usize;
    let mut send = |stream: &mut TcpStream, queue: &mut VecDeque<(usize, Instant, usize)>| {
        let i = sent % plan.len();
        let p = &plan[i];
        let mut bytes = head(p.path, p.body.len());
        bytes.extend_from_slice(p.body);
        let t = Instant::now();
        let ok = stream.write_all(&bytes).is_ok();
        queue.push_back((i, t, bytes.len()));
        sent += 1;
        ok
    };
    for _ in 0..depth {
        if !send(&mut stream, &mut queue) {
            break;
        }
    }
    while let Some(&(i, t, bytes)) = queue.front() {
        if let Some((status, version, body_start, end)) = parse_response(&buf) {
            queue.pop_front();
            let done = Instant::now();
            trace::record(plan[i].span, out.len() as u64, t, done);
            out.push(Reply {
                tag: plan[i].tag,
                due: t,
                sent: t,
                done,
                status,
                version,
                body: buf[body_start..end].to_vec(),
                request_bytes: bytes,
                response_bytes: end,
            });
            buf.drain(..end);
            if Instant::now() < stop && !send(&mut stream, &mut queue) {
                break;
            }
            continue;
        }
        match stream.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            _ => break,
        }
    }
    for (i, t, _) in queue {
        out.push(failed(&plan[i], t));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_complete_responses_only() {
        let full =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Model-Version: m-1\r\n\r\nokHTTP/1.1";
        let (status, version, start, end) = parse_response(full).unwrap();
        assert_eq!(
            (status, version.as_deref(), &full[start..end]),
            (200, Some("m-1"), &b"ok"[..])
        );
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab").is_none());
    }

    #[test]
    fn failed_requests_are_beyond_any_limit() {
        let now = Instant::now();
        let p = Planned {
            due: now,
            path: "/",
            body: b"",
            span: "x",
            tag: 0,
        };
        assert!(failed(&p, now).latency_ms().is_infinite());
    }
}
