//! The benchmark's HTTP/1.1 client: one request per call over a fresh or
//! a persistent connection, with the instants a client can observe
//! (connected, request written, first response byte, response complete).
//!
//! It behaves as a well-mannered caller would: `TCP_NODELAY` on, each
//! request handed to the kernel in a single write. Whatever stall is
//! measured is therefore the server's.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// No exchange may hang a benchmark run.
const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// A complete request, ready to write.
pub fn request(method: &str, path: &str, body: &str, keep_alive: bool) -> Vec<u8> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nConnection: {conn}\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One response and when its parts arrived.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub written: Instant,
    pub first_byte: Instant,
    pub done: Instant,
}

pub struct Conn {
    stream: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream: BufReader::new(stream),
        })
    }

    /// Send `req`, read one `Content-Length`-framed response.
    pub fn exchange(&mut self, req: &[u8]) -> std::io::Result<Reply> {
        self.stream.get_mut().write_all(req)?;
        let written = Instant::now();
        // `fill_buf` is the one call here that std does not retry when a
        // signal interrupts it.
        loop {
            match self.stream.fill_buf() {
                Ok([]) => return Err(bad("connection closed before any response byte")),
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let first_byte = Instant::now();
        let mut line = String::new();
        self.stream.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut len = 0usize;
        loop {
            line.clear();
            if self.stream.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    len = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; len];
        self.stream.read_exact(&mut body)?;
        Ok(Reply {
            status,
            body,
            written,
            first_byte,
            done: Instant::now(),
        })
    }
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn exchange_frames_two_replies_on_one_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut seen = Vec::new();
            let mut buf = [0u8; 256];
            // Two requests of known length arrive; answer each once seen.
            for reply in [
                "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi",
                "HTTP/1.1 404 Not Found\r\ncontent-length: 0\r\n\r\n",
            ] {
                while !seen.ends_with(b"\r\n\r\n") {
                    let n = s.read(&mut buf).unwrap();
                    seen.extend_from_slice(&buf[..n]);
                }
                seen.clear();
                s.write_all(reply.as_bytes()).unwrap();
            }
        });
        let mut c = Conn::open(addr).unwrap();
        let r = c.exchange(&request("GET", "/a", "", true)).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, &b"hi"[..]));
        assert!(r.written <= r.first_byte && r.first_byte <= r.done);
        let r = c.exchange(&request("GET", "/b", "", true)).unwrap();
        assert_eq!((r.status, r.body.len()), (404, 0));
        server.join().unwrap();
    }

    #[test]
    fn request_is_one_buffer_with_framing() {
        let r = String::from_utf8(request("POST", "/x", "{}", false)).unwrap();
        assert!(r.starts_with("POST /x HTTP/1.1\r\n"));
        assert!(r.contains("Connection: close\r\n") && r.contains("Content-Length: 2\r\n"));
        assert!(r.ends_with("\r\n\r\n{}"));
    }
}
