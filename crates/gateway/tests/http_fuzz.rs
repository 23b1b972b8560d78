//! Seeded property/fuzz tests of the gateway's HTTP parser: it must
//! **never panic** and must classify every buffer as a complete request, a
//! prefix that waits for more bytes, or a typed error that maps to a 4xx/
//! 5xx response — across malformed request lines, oversized heads, requests
//! torn at every byte boundary, and pipelined requests.

use crowdtune_gateway::http::{parse_buffered, Limits, ParsedRequest, Request, RequestError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `Some((request, consumed))` for a complete request, `None` for a buffer
/// that ends before the request does.
fn parse(buf: &[u8], limits: &Limits) -> Result<Option<(Request, usize)>, RequestError> {
    parse_buffered(buf, limits).map(|parsed| match parsed {
        ParsedRequest::Complete { request, consumed } => Some((request, consumed)),
        ParsedRequest::Incomplete => None,
    })
}

/// Feeds `data` to the parser the way the reactor does: the bytes arrive in
/// chunks split at `cuts` (sorted), and after each chunk the buffer is
/// parsed until it is incomplete, draining every complete request's
/// `consumed` bytes. Returns each request with the number of bytes that had
/// arrived when it completed, and the unparsed tail.
fn feed(data: &[u8], cuts: &[usize], limits: &Limits) -> (Vec<(Request, usize)>, Vec<u8>) {
    let mut buf = Vec::new();
    let mut requests = Vec::new();
    let mut arrived = 0;
    for end in cuts.iter().copied().chain([data.len()]) {
        buf.extend_from_slice(&data[arrived..end]);
        arrived = end;
        while let Some((request, consumed)) =
            parse(&buf, limits).unwrap_or_else(|e| panic!("after {arrived} bytes: {e}"))
        {
            buf.drain(..consumed);
            requests.push((request, arrived));
        }
    }
    (requests, buf)
}

fn valid_request(rng: &mut StdRng) -> String {
    let bodies = ["", "{}", "{\"k\":1}", "0123456789abcdef"];
    let body = bodies[rng.gen_range(0usize..bodies.len())];
    let path =
        ["/healthz", "/v1/metrics", "/v1/jobs/17", "/v1/jobs?wait=1"][rng.gen_range(0usize..4)];
    let method = if body.is_empty() { "GET" } else { "POST" };
    let mut text = format!("{method} {path} HTTP/1.1\r\n");
    if rng.gen_bool(0.5) {
        text.push_str("Host: fuzz.local\r\n");
    }
    if rng.gen_bool(0.3) {
        text.push_str("X-Fill: some filler value\r\n");
    }
    if !body.is_empty() || rng.gen_bool(0.2) {
        text.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    if rng.gen_bool(0.2) {
        text.push_str("Connection: keep-alive\r\n");
    }
    text.push_str("\r\n");
    text.push_str(body);
    text
}

/// A valid request arriving in pieces parses identically no matter where
/// the transport tears it: every prefix is incomplete and the whole buffer
/// parses to the same request — exhaustively, at *every* byte boundary (and
/// at random multi-cut arrival schedules).
#[test]
fn torn_reads_at_every_boundary_parse_identically() {
    let mut rng = StdRng::seed_from_u64(0xB0A7);
    let limits = Limits::default();
    for _ in 0..24 {
        let text = valid_request(&mut rng);
        let bytes = text.as_bytes();
        let (reference, consumed) = parse(bytes, &limits)
            .expect("valid request parses")
            .expect("whole request is complete");
        assert_eq!(consumed, bytes.len());
        // The request completes only once its last byte has arrived, so the
        // buffer at every cut was an incomplete prefix.
        let whole = [(reference, bytes.len())];
        for cut in 0..bytes.len() {
            let (parsed, rest) = feed(bytes, &[cut], &limits);
            assert_eq!(parsed, whole, "cut at byte {cut}");
            assert!(rest.is_empty());
        }
        // A few random many-cut shreddings on top of the exhaustive single
        // cuts.
        for _ in 0..8 {
            let mut cuts: Vec<usize> = (0..rng.gen_range(2usize..9))
                .map(|_| rng.gen_range(1usize..text.len()))
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let (parsed, rest) = feed(bytes, &cuts, &limits);
            assert_eq!(parsed, whole, "cuts {cuts:?}");
            assert!(rest.is_empty());
        }
    }
}

/// Random byte soup and mutated requests: the parser always returns — a
/// request, an incomplete prefix, or an error mapping to a response, never
/// a panic. Seeded, so a failure reproduces.
#[test]
fn random_garbage_is_classified_never_panicking() {
    let mut rng = StdRng::seed_from_u64(0xF022);
    let limits = Limits {
        max_request_line: 128,
        max_header_line: 128,
        max_headers: 8,
        max_body: 256,
    };
    for case in 0..2048u32 {
        let data: Vec<u8> = if rng.gen_bool(0.5) {
            // Pure soup.
            (0..rng.gen_range(0usize..256))
                .map(|_| rng.gen_range(0u32..256) as u8)
                .collect()
        } else {
            // A valid request, mutated: flips, truncation, garbage splice.
            let mut data = valid_request(&mut rng).into_bytes();
            for _ in 0..rng.gen_range(1usize..6) {
                if data.is_empty() {
                    break;
                }
                let at = rng.gen_range(0usize..data.len());
                match rng.gen_range(0u32..3) {
                    0 => data[at] ^= 1 << rng.gen_range(0u32..8),
                    1 => {
                        data.truncate(at);
                    }
                    _ => data.insert(at, rng.gen_range(0u32..256) as u8),
                }
            }
            data
        };
        if let Err(e) = parse_buffered(&data, &limits) {
            let status = e.status();
            assert!(
                (400..=599).contains(&status),
                "case {case}: status {status} for {e}"
            );
        }
    }
}

/// Oversized heads are refused with 431 without buffering them: a request
/// line, single header, or header count beyond the limits errors out even
/// when the input keeps streaming.
#[test]
fn oversized_heads_hit_the_bounds() {
    let limits = Limits {
        max_request_line: 64,
        max_header_line: 64,
        max_headers: 4,
        max_body: 64,
    };
    let mut rng = StdRng::seed_from_u64(0x512E);
    for _ in 0..64 {
        let kind = rng.gen_range(0u32..3);
        let text = match kind {
            0 => format!(
                "GET /{} HTTP/1.1\r\n\r\n",
                "x".repeat(rng.gen_range(80usize..4096))
            ),
            1 => format!(
                "GET / HTTP/1.1\r\nx-long: {}\r\n\r\n",
                "v".repeat(rng.gen_range(80usize..4096))
            ),
            _ => {
                let mut text = "GET / HTTP/1.1\r\n".to_owned();
                for i in 0..rng.gen_range(5usize..32) {
                    text.push_str(&format!("x-{i}: v\r\n"));
                }
                text.push_str("\r\n");
                text
            }
        };
        let err = parse_buffered(text.as_bytes(), &limits).unwrap_err();
        assert_eq!(err.status(), 431, "kind {kind}");
    }
    // Declared bodies beyond the bound are refused from the header alone.
    let err =
        parse_buffered(b"POST / HTTP/1.1\r\nContent-Length: 65\r\n\r\n", &limits).unwrap_err();
    assert_eq!(err.status(), 413);
}

/// Pipelined request streams parse back to back, even shredded by torn
/// reads, and a trailing partial request stays an incomplete tail — the
/// earlier requests are unaffected.
#[test]
fn pipelined_streams_parse_in_order() {
    let mut rng = StdRng::seed_from_u64(0x9199);
    let limits = Limits::default();
    let requests_of = |parsed: Vec<(Request, usize)>| -> Vec<Request> {
        parsed.into_iter().map(|(request, _)| request).collect()
    };
    for _ in 0..32 {
        let count = rng.gen_range(2usize..6);
        let requests: Vec<String> = (0..count).map(|_| valid_request(&mut rng)).collect();
        let stream: String = requests.concat();
        let references: Vec<Request> = requests
            .iter()
            .map(|r| parse(r.as_bytes(), &limits).unwrap().unwrap().0)
            .collect();

        let mut cuts: Vec<usize> = (0..rng.gen_range(0usize..12))
            .map(|_| rng.gen_range(1usize..stream.len()))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let (parsed, rest) = feed(stream.as_bytes(), &cuts, &limits);
        assert_eq!(requests_of(parsed), references);
        assert!(rest.is_empty(), "stream fully consumed");

        // The same stream with a torn final request: earlier requests
        // parse, and the tail waits for bytes that never come.
        let partial = valid_request(&mut rng);
        let cut = rng.gen_range(1usize..partial.len());
        let mut with_tail = stream.into_bytes();
        with_tail.extend_from_slice(&partial.as_bytes()[..cut]);
        let (parsed, rest) = feed(&with_tail, &[], &limits);
        assert_eq!(requests_of(parsed), references);
        assert_eq!(rest, &partial.as_bytes()[..cut]);
        assert!(
            matches!(
                parse_buffered(&rest, &limits),
                Ok(ParsedRequest::Incomplete)
            ),
            "torn tail must be incomplete"
        );
    }
}
