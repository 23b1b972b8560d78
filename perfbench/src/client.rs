//! A std-only keep-alive HTTP/1.1 client: one request in flight per
//! connection, responses framed by `Content-Length`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection to the gateway.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// A response borrowed from the connection's buffer.
pub struct Reply<'c> {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: &'c [u8],
}

fn invalid(detail: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail.to_owned())
}

/// The rendered bytes of a `POST /v1/jobs?wait=1`, authenticated with
/// `key` when given.
pub fn submit_bytes(body: &str, key: Option<&str>) -> Vec<u8> {
    let mut head = String::from("POST /v1/jobs?wait=1 HTTP/1.1\r\nHost: perfbench\r\n");
    head.push_str("Content-Type: application/json\r\n");
    if let Some(key) = key {
        head.push_str(&format!("Authorization: Bearer {key}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(body.as_bytes());
    bytes
}

/// Splits a response head into (status, content length, head length), or
/// `None` while the head is incomplete.
pub fn parse_head(buf: &[u8]) -> Result<Option<(u16, usize, usize)>, std::io::Error> {
    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut length = 0;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| invalid("bad content length"))?;
            }
        }
    }
    Ok(Some((status, length, end + 4)))
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// Sends one request and reads its whole response.
    pub fn round_trip(&mut self, request: &[u8]) -> std::io::Result<Reply<'_>> {
        self.stream.write_all(request)?;
        self.buf.clear();
        let mut chunk = [0u8; 16 * 1024];
        let (status, length, head) = loop {
            if let Some(parsed) = parse_head(&self.buf)? {
                break parsed;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(invalid("connection closed mid-response"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        while self.buf.len() < head + length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(invalid("connection closed mid-body"));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        Ok(Reply {
            status,
            body: &self.buf[head..head + length],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heads_parse_once_complete() {
        assert!(parse_head(b"HTTP/1.1 200 OK\r\nContent-Le")
            .unwrap()
            .is_none());
        let text = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello";
        assert_eq!(parse_head(text).unwrap(), Some((200, 5, text.len() - 5)));
        assert!(parse_head(b"garbage\r\n\r\n").is_err());
    }

    #[test]
    fn submit_bytes_frame_the_body() {
        let bytes = submit_bytes("{}", Some("k1"));
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("POST /v1/jobs?wait=1 HTTP/1.1\r\n"));
        assert!(text.contains("Authorization: Bearer k1\r\n"));
        assert!(text.ends_with("Content-Length: 2\r\n\r\n{}"));
    }
}
