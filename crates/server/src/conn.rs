//! Per-connection state for the nonblocking event loop.
//!
//! A [`Conn`] owns one nonblocking `TcpStream` plus a read buffer
//! (accumulating bytes until a `\n`-framed request line is complete)
//! and a write buffer (responses queued faster than the client reads
//! them). All I/O is `WouldBlock`-aware: the loop calls [`Conn::fill`]
//! and [`Conn::flush`] on readiness hints and they make whatever
//! progress the socket allows.
//!
//! Framing replicates the blocking `LineReader` this design replaced,
//! byte for byte: a newline further than `max` bytes in, or `max`
//! buffered bytes with no newline yet, is `TooLong` (the caller sends
//! one error response and drops the connection — framing is lost);
//! complete lines are decoded lossy-UTF-8 with a trailing `\r`
//! stripped.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Result of one nonblocking read attempt.
pub enum Fill {
    /// Read some bytes into the buffer.
    Data(usize),
    /// Peer closed its write side.
    Eof,
    /// Nothing to read right now.
    Blocked,
}

/// Result of asking for the next buffered request line.
pub enum Line {
    /// A complete line (without the newline, `\r` stripped).
    Ready(String),
    /// The size cap was breached; the connection must be dropped
    /// after one error response.
    TooLong,
    /// No complete line buffered yet.
    None,
}

pub struct Conn {
    pub stream: TcpStream,
    /// Loop-relative ms of the last read/write progress; drives idle
    /// eviction.
    pub last_activity: u64,
    /// Set when no further requests will be read (peer EOF, framing
    /// error, or server drain); the connection closes once `wbuf`
    /// drains.
    pub closing: bool,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
}

impl Conn {
    pub fn new(stream: TcpStream, now_ms: u64) -> Conn {
        Conn {
            stream,
            last_activity: now_ms,
            closing: false,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
        }
    }

    /// One nonblocking read into the buffer.
    pub fn fill(&mut self) -> std::io::Result<Fill> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Fill::Eof),
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    return Ok(Fill::Data(n));
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(Fill::Blocked),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Extract the next complete request line, enforcing the size cap.
    pub fn next_line(&mut self, max: usize) -> Line {
        if let Some(pos) = self.rbuf.iter().position(|&b| b == b'\n') {
            if pos > max {
                return Line::TooLong;
            }
            let line: Vec<u8> = self.rbuf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1])
                .trim_end_matches('\r')
                .to_string();
            return Line::Ready(text);
        }
        if self.rbuf.len() > max {
            return Line::TooLong;
        }
        Line::None
    }

    /// Queue one response line (newline appended).
    pub fn queue(&mut self, response: &str) {
        self.wbuf.extend_from_slice(response.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Bytes queued but not yet written to the socket.
    pub fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Write as much queued output as the socket accepts. Returns
    /// `true` once the buffer is fully drained; `false` means the
    /// socket backed up mid-write (the caller should arm write
    /// interest and retry on the next writable event).
    pub fn flush(&mut self) -> std::io::Result<bool> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    self.compact();
                    return Ok(false);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        Ok(true)
    }

    /// Drop already-written bytes once they dominate the buffer, so a
    /// long dribble of partial writes doesn't pin stale memory.
    fn compact(&mut self) {
        if self.wpos >= 64 * 1024 || self.wpos * 2 >= self.wbuf.len() {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (server, client)
    }

    #[test]
    fn lines_are_framed_like_the_blocking_reader() {
        let (server, mut client) = pair();
        let mut conn = Conn::new(server, 0);
        client.write_all(b"first\r\nsec").unwrap();
        while !matches!(conn.fill().unwrap(), Fill::Blocked) {}
        match conn.next_line(1024) {
            Line::Ready(l) => assert_eq!(l, "first"),
            _ => panic!("expected a complete line"),
        }
        assert!(matches!(conn.next_line(1024), Line::None));
        client.write_all(b"ond\n").unwrap();
        while !matches!(conn.fill().unwrap(), Fill::Blocked) {}
        match conn.next_line(1024) {
            Line::Ready(l) => assert_eq!(l, "second"),
            _ => panic!("expected the continuation"),
        }
    }

    #[test]
    fn oversized_buffered_data_is_too_long() {
        let (server, mut client) = pair();
        let mut conn = Conn::new(server, 0);
        client.write_all(&[b'x'; 300]).unwrap();
        while !matches!(conn.fill().unwrap(), Fill::Blocked) {}
        // 300 bytes buffered, no newline, cap 256: framing is lost.
        assert!(matches!(conn.next_line(256), Line::TooLong));
    }

    #[test]
    fn flush_reports_backpressure_and_finishes_later() {
        let (server, client) = pair();
        let mut conn = Conn::new(server, 0);
        // Queue far more than the kernel buffers will take at once.
        let big = "y".repeat(1 << 20);
        for _ in 0..8 {
            conn.queue(&big);
        }
        let drained = conn.flush().unwrap();
        assert!(!drained, "8 MiB should not fit in socket buffers");
        // Drain the client side until the writer can finish.
        let mut reader = client;
        reader.set_nonblocking(false).unwrap();
        let mut sunk = vec![0u8; 1 << 20];
        let mut done = false;
        for _ in 0..10_000 {
            use std::io::Read;
            let _ = reader.read(&mut sunk).unwrap();
            if conn.flush().unwrap() {
                done = true;
                break;
            }
        }
        assert!(done, "flush must complete once the peer reads");
        assert_eq!(conn.pending_out(), 0);
    }
}
