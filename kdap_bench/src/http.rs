//! A real, minimal HTTP/1.1 client: it delimits responses by
//! `Content-Length` and keeps its connection open unless the server
//! answers `Connection: close`. Today's server always closes, so every
//! request pays a connect; a server that learns keep-alive is picked up
//! without touching the benchmark.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One parsed response.
#[derive(Debug, PartialEq)]
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    /// The server asked for the connection to be closed.
    pub close: bool,
}

/// Reads exactly one response from `stream`. `carry` holds bytes read
/// past the previous response on this connection and receives whatever
/// is read past this one. Short reads are the normal case.
pub fn read_response(stream: &mut impl Read, carry: &mut Vec<u8>) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let mut buf = std::mem::take(carry);
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a full response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head =
        std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| bad("invalid Content-Length"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = buf.split_off(head_end + 4);
    match length {
        Some(len) => {
            while body.len() < len {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "body shorter than Content-Length",
                    ));
                }
                body.extend_from_slice(&chunk[..n]);
            }
            *carry = body.split_off(len);
        }
        // No length: the body runs to end of stream.
        None => {
            stream.read_to_end(&mut body)?;
            close = true;
        }
    }
    Ok(Reply {
        status,
        body,
        close,
    })
}

/// One client = one (reused) connection to one server.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    carry: Vec<u8>,
    /// TCP connections opened so far.
    pub connects: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Self {
        Client {
            addr,
            conn: None,
            carry: Vec::new(),
            connects: 0,
        }
    }

    /// Sends one request and reads its response. A request that dies on
    /// a reused connection (the server timed the idle connection out) is
    /// sent once more on a fresh one; every KDAP endpoint is idempotent.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let reused = self.conn.is_some();
        match self.exchange(method, path, body) {
            Err(_) if reused => self.exchange(method, path, body),
            other => other,
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<Reply> {
        let mut stream = match self.conn.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(30)))?;
                self.connects += 1;
                self.carry.clear();
                stream
            }
        };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: kdap\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        let reply = read_response(&mut stream, &mut self.carry)?;
        if !reply.close {
            self.conn = Some(stream);
        }
        Ok(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Hands out its bytes at most `step` at a time.
    struct ShortReader<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for ShortReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn content_length_delimits_back_to_back_responses_under_short_reads() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 404 Not Found\r\n\
                     content-length: 2\r\nConnection: close\r\n\r\nno";
        for step in [1, 3, 7, 4096] {
            let mut reader = ShortReader { data: wire, step };
            let mut carry = Vec::new();
            let first = read_response(&mut reader, &mut carry).unwrap();
            assert_eq!(
                (first.status, first.body.as_slice(), first.close),
                (200, &b"hello"[..], false)
            );
            let second = read_response(&mut reader, &mut carry).unwrap();
            assert_eq!(
                (second.status, second.body.as_slice(), second.close),
                (404, &b"no"[..], true)
            );
            assert!(carry.is_empty(), "step {step}");
        }
    }

    #[test]
    fn missing_length_reads_to_end_and_truncation_is_an_error() {
        let mut reader = ShortReader {
            data: b"HTTP/1.1 200 OK\r\n\r\nuntil eof",
            step: 2,
        };
        let reply = read_response(&mut reader, &mut Vec::new()).unwrap();
        assert_eq!(
            (reply.body.as_slice(), reply.close),
            (&b"until eof"[..], true)
        );

        let mut cut = ShortReader {
            data: b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort",
            step: 4,
        };
        assert!(read_response(&mut cut, &mut Vec::new()).is_err());
        let mut headless = ShortReader {
            data: b"HTTP/1.1 200 OK\r\nContent-Le",
            step: 4,
        };
        assert!(read_response(&mut headless, &mut Vec::new()).is_err());
    }

    /// A one-thread server answering `replies.len()` requests; entry
    /// `(close, body)` decides the `Connection` header of each answer.
    fn serve(replies: Vec<(bool, &'static str)>) -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut accepted = 0;
            let mut replies = replies.into_iter().peekable();
            while replies.peek().is_some() {
                let (mut stream, _) = listener.accept().unwrap();
                accepted += 1;
                for (close, body) in replies.by_ref() {
                    let mut head = Vec::new();
                    let mut byte = [0u8; 1];
                    while !head.ends_with(b"\r\n\r\n") {
                        if stream.read(&mut byte).unwrap() == 0 {
                            break;
                        }
                        head.push(byte[0]);
                    }
                    let text = String::from_utf8_lossy(&head).to_ascii_lowercase();
                    let len: usize = text
                        .split("content-length:")
                        .nth(1)
                        .and_then(|r| r.split("\r\n").next())
                        .and_then(|v| v.trim().parse().ok())
                        .unwrap_or(0);
                    let mut sink = vec![0u8; len];
                    stream.read_exact(&mut sink).unwrap();
                    let connection = if close { "close" } else { "keep-alive" };
                    write!(
                        stream,
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
                        body.len()
                    )
                    .unwrap();
                    if close {
                        break;
                    }
                }
            }
            accepted
        });
        (addr, handle)
    }

    #[test]
    fn connection_is_reused_until_the_server_says_close() {
        let (addr, server) = serve(vec![
            (false, "one"),
            (false, "two"),
            (true, "three"),
            (true, "four"),
        ]);
        let mut client = Client::new(addr);
        for want in ["one", "two", "three", "four"] {
            let reply = client.request("POST", "/x", "{}").unwrap();
            assert_eq!(reply.body, want.as_bytes());
        }
        // one, two, three share a connection; `close` after three forces a second.
        assert_eq!(client.connects, 2);
        assert_eq!(server.join().unwrap(), 2);
    }
}
