//! Byte-level properties of `http::parse_request`, the one parser of
//! request bytes: the readiness loop appends whatever a socket read
//! returned to a connection's buffer and re-parses it, so the parser
//! must take any prefix, mutation or pipelined tail of a request
//! without panicking, consume no more than it was given, decide at the
//! same point however the bytes were split, and refuse over-cap heads
//! and bodies before the body arrives.

use bbncg_serve::http::{parse_request, HttpError, ParseStatus, MAX_HEAD};
use proptest::prelude::*;

const MAX_BODY: usize = 256;
const METHODS: [&str; 4] = ["GET", "POST", "PUT", "DELETE"];

/// Bytes of a letter alphabet, so generated tokens stay in the grammar.
fn word(len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    collection::vec(0u8..26, len).prop_map(|v| v.into_iter().map(|b| (b'a' + b) as char).collect())
}

/// A valid request plus the fields it must parse to:
/// `(bytes, method, path, body, keep_alive)`.
type Valid = (Vec<u8>, String, String, Vec<u8>, bool);

fn valid_request() -> impl Strategy<Value = Valid> {
    (
        (
            0usize..4,
            collection::vec(word(1..6), 1..4),
            collection::vec((word(1..4), word(0..4)), 0..3),
        ),
        (
            collection::vec((word(1..8), word(0..12)), 0..4),
            0usize..3,
            0usize..2,
        ),
        collection::vec(0u8..=255, 0..48),
        0usize..2,
    )
        .prop_map(
            |((m, segments, query), (headers, connection, http10), body, lf_only)| {
                let eol = if lf_only == 1 { "\n" } else { "\r\n" };
                let method = METHODS[m].to_string();
                let path = format!("/{}", segments.join("/"));
                let mut target = path.clone();
                if !query.is_empty() {
                    let pairs: Vec<String> =
                        query.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    target = format!("{target}?{}", pairs.join("&"));
                }
                let version = if http10 == 1 { "HTTP/1.0" } else { "HTTP/1.1" };
                let mut head = format!("{method} {target} {version}{eol}");
                for (name, value) in &headers {
                    // `x-` keeps generated names clear of the ones the
                    // parser interprets.
                    head.push_str(&format!("x-{name}: {value}{eol}"));
                }
                let keep_alive = match connection {
                    1 => {
                        head.push_str(&format!("Connection: close{eol}"));
                        false
                    }
                    2 => {
                        head.push_str(&format!("Connection: keep-alive{eol}"));
                        true
                    }
                    _ => http10 == 0,
                };
                if !body.is_empty() {
                    head.push_str(&format!("Content-Length: {}{eol}", body.len()));
                }
                head.push_str(eol);
                let mut bytes = head.into_bytes();
                bytes.extend_from_slice(&body);
                (bytes, method, path, body, keep_alive)
            },
        )
}

/// One byte-level mutation of `bytes`: truncate, flip, or splice.
fn mutate(bytes: &[u8], kind: usize, at: usize, len: usize, junk: &[u8]) -> Vec<u8> {
    let at = at % (bytes.len() + 1);
    let mut out = bytes.to_vec();
    match kind {
        0 => out.truncate(at),
        1 => {
            for (i, b) in junk.iter().enumerate().take(len.max(1)) {
                if let Some(slot) = out.get_mut((at + i) % bytes.len().max(1)) {
                    *slot ^= b | 1;
                }
            }
        }
        2 => {
            let end = (at + len).min(out.len());
            out.splice(at..end, junk.iter().copied());
        }
        _ => {
            // Splice a copy of one part of the request into another,
            // duplicating or reordering head lines.
            let from = len % (bytes.len() + 1);
            let piece = bytes[from.min(at)..from.max(at)].to_vec();
            out.splice(at..at, piece);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn valid_requests_parse_and_consume_exactly_their_bytes(
        req in valid_request(),
        tail in collection::vec(0u8..=255, 0..32),
    ) {
        let (bytes, method, path, body, keep_alive) = &req;
        // Pipelined input after the request stays in the buffer.
        let mut buf = bytes.clone();
        buf.extend_from_slice(&tail);
        match parse_request(&buf, MAX_BODY) {
            Ok(ParseStatus::Complete(r, used)) => {
                prop_assert_eq!(used, bytes.len());
                prop_assert_eq!(&r.method, method);
                prop_assert_eq!(&r.path, path);
                prop_assert_eq!(&r.body, body);
                prop_assert_eq!(r.keep_alive, *keep_alive);
            }
            other => prop_assert!(false, "{other:?}"),
        }
    }

    #[test]
    fn every_two_piece_split_is_partial_then_the_same_request(req in valid_request()) {
        let bytes = &req.0;
        let Ok(ParseStatus::Complete(whole, used)) = parse_request(bytes, MAX_BODY) else {
            return Err(TestCaseError::fail("the unsplit request must parse"));
        };
        for split in 0..bytes.len() {
            // The readiness loop's view: the first read delivers
            // `split` bytes, the second the rest.
            let mut buf = bytes[..split].to_vec();
            let first = parse_request(&buf, MAX_BODY);
            prop_assert!(matches!(first, Ok(ParseStatus::Partial)), "split {split}: {first:?}");
            buf.extend_from_slice(&bytes[split..]);
            match parse_request(&buf, MAX_BODY) {
                Ok(ParseStatus::Complete(r, n)) => {
                    prop_assert_eq!(n, used);
                    prop_assert_eq!(&r, &whole);
                }
                other => prop_assert!(false, "split {split}: {other:?}"),
            }
        }
    }

    #[test]
    fn mutated_requests_never_panic_or_overconsume(
        req in valid_request(),
        kind in 0usize..4,
        at in 0usize..512,
        len in 0usize..64,
        junk in collection::vec(0u8..=255, 0..24),
    ) {
        let buf = mutate(&req.0, kind, at, len, &junk);
        for max_body in [0, MAX_BODY, usize::MAX] {
            if let Ok(ParseStatus::Complete(r, used)) = parse_request(&buf, max_body) {
                prop_assert!(used <= buf.len(), "used {used} of {}", buf.len());
                prop_assert!(r.body.len() <= max_body);
            }
        }
    }

    #[test]
    fn over_cap_heads_and_bodies_get_413_before_the_body(
        req in valid_request(),
        pad in 0usize..64,
        over in 1usize..1_000_000,
    ) {
        // A head past MAX_HEAD, complete or still arriving.
        let filler = format!("X-Pad: {}\r\n", "p".repeat(MAX_HEAD + pad));
        let mut head = b"GET /healthz HTTP/1.1\r\n".to_vec();
        head.extend_from_slice(filler.as_bytes());
        let still_arriving = parse_request(&head, MAX_BODY);
        prop_assert!(matches!(still_arriving, Err(HttpError::TooLarge(_))), "{still_arriving:?}");
        head.extend_from_slice(b"\r\n");
        let complete = parse_request(&head, MAX_BODY);
        prop_assert!(matches!(complete, Err(HttpError::TooLarge(_))), "{complete:?}");

        // A declared body over the cap, refused with no body byte sent.
        let bytes = &req.0;
        let end_of_request_line = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let mut over_cap = bytes[..end_of_request_line].to_vec();
        over_cap.extend_from_slice(format!("Content-Length: {}\r\n\r\n", MAX_BODY + over).as_bytes());
        let refused = parse_request(&over_cap, MAX_BODY);
        prop_assert!(matches!(refused, Err(HttpError::TooLarge(_))), "{refused:?}");
    }
}

#[test]
fn a_huge_declared_body_under_a_huge_cap_waits_instead_of_overflowing() {
    // With a cap that admits any length, an unchecked
    // head + Content-Length overflows usize here.
    let req = b"POST /jobs HTTP/1.1\r\nContent-Length: 18446744073709551615\r\n\r\n";
    let status = parse_request(req, usize::MAX);
    assert!(matches!(status, Ok(ParseStatus::Partial)), "{status:?}");
}
