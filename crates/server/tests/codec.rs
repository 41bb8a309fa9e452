//! Wire-codec tests over a seeded generator: arbitrary messages
//! round-trip at any chunking, and random bytes, truncated streams and
//! bit-flipped valid frames produce typed protocol errors (or a clean
//! "need more bytes"), never a panic. A failing property prints the case
//! seed that replays it.

use perftrack_server::proto::{
    ErrorCategory, NameFilter, QuerySpec, Request, Response, WireFreeColumn, WireLoadStats,
    WIRE_VERSION,
};
use perftrack_server::wire::{FrameDecoder, PayloadReader, WireError};
use perftrack_workloads::rng::{check_cases, Rng};

fn arb_bytes(rng: &mut Rng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen::<u64>() as u8).collect()
}

/// Up to `max_len` characters: mostly printable ASCII, otherwise any
/// Unicode scalar value (control characters and astral planes included).
fn arb_text(rng: &mut Rng, max_len: usize) -> String {
    (0..rng.gen_range(0..max_len + 1))
        .map(|_| {
            if rng.gen_bool(0.75) {
                char::from(rng.gen_range(b' '..b'~' + 1))
            } else {
                char::from_u32(rng.gen_range(0..0x11_0000)).unwrap_or(char::REPLACEMENT_CHARACTER)
            }
        })
        .collect()
}

fn arb_texts(rng: &mut Rng, max_count: usize, max_len: usize) -> Vec<String> {
    (0..rng.gen_range(0..max_count))
        .map(|_| arb_text(rng, max_len))
        .collect()
}

fn arb_query_spec(rng: &mut Rng) -> QuerySpec {
    QuerySpec {
        names: (0..rng.gen_range(0..4))
            .map(|_| NameFilter {
                pattern: arb_text(rng, 40),
                relatives: ['D', 'A', 'B', 'N'][rng.gen_range(0..4)],
            })
            .collect(),
        types: arb_texts(rng, 4, 30),
        add_columns: arb_texts(rng, 4, 30),
    }
}

fn arb_request(rng: &mut Rng) -> Request {
    match rng.gen_range(0..8) {
        0 => Request::Ping,
        1 => Request::LoadPtdf {
            text: arb_text(rng, 200),
            token: arb_text(rng, 40),
        },
        2 => Request::Query(arb_query_spec(rng)),
        3 => Request::FreeResources(arb_query_spec(rng)),
        4 => Request::Export,
        5 => Request::Stats,
        6 => Request::Fsck { deep: rng.gen() },
        _ => Request::Shutdown,
    }
}

fn arb_response(rng: &mut Rng) -> Response {
    match rng.gen_range(0..9) {
        0 => Response::Pong {
            version: rng.gen::<u64>() as u8,
            degraded: rng.gen(),
        },
        1 => Response::Loaded {
            stats: WireLoadStats {
                statements: rng.gen(),
                applications: rng.gen(),
                resource_types: rng.gen(),
                executions: rng.gen(),
                resources: rng.gen(),
                attributes: rng.gen(),
                constraints: rng.gen(),
                results: rng.gen(),
            },
            replayed: rng.gen(),
        },
        2 => Response::Table {
            columns: arb_texts(rng, 4, 20),
            rows: (0..rng.gen_range(0..4))
                .map(|_| arb_texts(rng, 4, 20))
                .collect(),
        },
        3 => Response::FreeResources(
            (0..rng.gen_range(0..4))
                .map(|_| WireFreeColumn {
                    type_path: arb_text(rng, 30),
                    distinct_values: rng.gen(),
                    attributes: arb_texts(rng, 3, 20),
                })
                .collect(),
        ),
        4 => Response::Ptdf {
            text: arb_text(rng, 200),
        },
        5 => Response::Stats {
            json: arb_text(rng, 100),
            table: arb_text(rng, 100),
        },
        6 => Response::FsckDone {
            errors: rng.gen(),
            warnings: rng.gen(),
            json: arb_text(rng, 50),
            table: arb_text(rng, 50),
        },
        7 => Response::ShuttingDown,
        _ => Response::Err {
            category: ErrorCategory::from_u8(rng.gen_range(0u8..9)).unwrap(),
            message: arb_text(rng, 100),
        },
    }
}

/// The one complete frame in `bytes`.
fn one_frame(bytes: &[u8]) -> perftrack_server::wire::Frame {
    let mut dec = FrameDecoder::new();
    dec.extend(bytes);
    dec.next_frame().unwrap().unwrap()
}

#[test]
fn requests_roundtrip() {
    check_cases(0xc0de_0100, 256, |rng| {
        let req = arb_request(rng);
        assert_eq!(Request::decode(&one_frame(&req.encode())).unwrap().0, req);
    });
}

#[test]
fn responses_roundtrip() {
    check_cases(0xc0de_0200, 256, |rng| {
        let resp = arb_response(rng);
        assert_eq!(Response::decode(&one_frame(&resp.encode())).unwrap(), resp);
    });
}

#[test]
fn request_streams_split_at_any_chunking() {
    check_cases(0xc0de_0300, 256, |rng| {
        let reqs: Vec<Request> = (0..rng.gen_range(1..5)).map(|_| arb_request(rng)).collect();
        let chunk = rng.gen_range(1usize..32);
        let stream: Vec<u8> = reqs.iter().flat_map(Request::encode).collect();
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.extend(piece);
            while let Some(frame) = dec.next_frame().unwrap() {
                out.push(Request::decode(&frame).unwrap().0);
            }
        }
        assert_eq!(out, reqs);
        assert_eq!(dec.buffered(), 0);
    });
}

#[test]
fn arbitrary_bytes_never_panic_the_decoder() {
    check_cases(0xc0de_0400, 256, |rng| {
        let len = rng.gen_range(0..512);
        let mut dec = FrameDecoder::new();
        dec.extend(&arb_bytes(rng, len));
        drain(&mut dec);
    });
}

#[test]
fn truncating_a_valid_frame_parks() {
    check_cases(0xc0de_0500, 256, |rng| {
        let bytes = arb_request(rng).encode();
        let cut = rng.gen_range(0..bytes.len());
        let mut dec = FrameDecoder::new();
        dec.extend(&bytes[..cut]);
        assert!(matches!(dec.next_frame(), Ok(None)));
    });
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Ping,
        Request::LoadPtdf {
            text: "Application A\nResource /r application\n".into(),
            token: "retry-safe-token-1".into(),
        },
        Request::Query(QuerySpec {
            names: vec![
                NameFilter {
                    pattern: "rmatmult3".into(),
                    relatives: 'D',
                },
                NameFilter {
                    pattern: "/irs/zrad".into(),
                    relatives: 'N',
                },
            ],
            types: vec!["/grid/machine".into()],
            add_columns: vec!["execution".into(), "/grid/machine".into()],
        }),
        Request::FreeResources(QuerySpec::default()),
        Request::Export,
        Request::Stats,
        Request::Fsck { deep: true },
        Request::Shutdown,
    ]
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::Pong {
            version: 1,
            degraded: true,
        },
        Response::Loaded {
            stats: WireLoadStats {
                statements: u64::MAX,
                results: 1,
                ..Default::default()
            },
            replayed: true,
        },
        Response::Table {
            columns: vec!["execution".into(), "metric".into()],
            rows: vec![vec!["e1".into(), "wall, \"quoted\"".into()]],
        },
        Response::FreeResources(vec![WireFreeColumn {
            type_path: "/grid/machine/node".into(),
            distinct_values: 4,
            attributes: vec!["memory size".into(), "clock".into()],
        }]),
        Response::Ptdf {
            text: "naïve λ “unicode”\n".into(),
        },
        Response::Stats {
            json: "{\"io\":{}}".into(),
            table: "io.retries  0\n".into(),
        },
        Response::FsckDone {
            errors: 3,
            warnings: 9,
            json: "{}".into(),
            table: "bad\n".into(),
        },
        Response::ShuttingDown,
        Response::Err {
            category: ErrorCategory::Deadline,
            message: "too slow".into(),
        },
    ]
}

/// Drain a decoder until it parks or errors; decode every frame both
/// ways. Nothing here may panic.
fn drain(dec: &mut FrameDecoder) {
    loop {
        match dec.next_frame() {
            Ok(Some(frame)) => {
                let _ = Request::decode(&frame);
                let _ = Response::decode(&frame);
            }
            Ok(None) | Err(_) => return,
        }
    }
}

#[test]
fn random_byte_streams_never_panic() {
    check_cases(0x5EED_2005, 500, |rng| {
        let mut dec = FrameDecoder::new();
        let len = rng.gen_range(0..512);
        dec.extend(&arb_bytes(rng, len));
        drain(&mut dec);
        // Keep feeding after an error/park; the decoder must stay inert
        // or keep erroring, still without panicking.
        let more = rng.gen_range(0..64);
        dec.extend(&arb_bytes(rng, more));
        drain(&mut dec);
    });
}

#[test]
fn random_payloads_through_the_reader_never_panic() {
    check_cases(0xDEAD_BEEF, 500, |rng| {
        let len = rng.gen_range(0..128);
        let payload = arb_bytes(rng, len);
        let mut r = PayloadReader::new(&payload);
        // Exercise every accessor in a data-dependent order.
        let _ = r.u8("a");
        let _ = r.u32("b");
        let _ = r.str("c");
        let _ = r.str_list("d");
        let _ = r.u64("e");
        let _ = r.finish();
    });
}

#[test]
fn truncated_valid_frames_park_then_complete() {
    for req in sample_requests() {
        let bytes = req.encode();
        for cut in 0..bytes.len() {
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes[..cut]);
            assert!(
                matches!(dec.next_frame(), Ok(None)),
                "prefix of a valid frame must park, cut={cut}"
            );
            dec.extend(&bytes[cut..]);
            let frame = dec.next_frame().unwrap().unwrap();
            assert_eq!(Request::decode(&frame).unwrap().0, req);
        }
    }
}

#[test]
fn bit_flipped_frames_error_or_decode_but_never_panic() {
    let mut rng = Rng::seed_from_u64(0xF11B_F11B);
    for resp in sample_responses() {
        let clean = resp.encode();
        for _ in 0..100 {
            let mut bytes = clean.clone();
            let i = rng.gen_range(0..bytes.len());
            bytes[i] ^= 1 << rng.gen_range(0..8);
            let mut dec = FrameDecoder::new();
            dec.extend(&bytes);
            drain(&mut dec);
        }
    }
}

#[test]
fn every_sample_message_roundtrips() {
    for req in sample_requests() {
        assert_eq!(Request::decode(&one_frame(&req.encode())).unwrap().0, req);
    }
    for resp in sample_responses() {
        assert_eq!(Response::decode(&one_frame(&resp.encode())).unwrap(), resp);
    }
}

#[test]
fn concatenated_message_stream_splits_cleanly() {
    let reqs = sample_requests();
    let mut stream = Vec::new();
    for req in &reqs {
        stream.extend_from_slice(&req.encode());
    }
    // Feed in awkward chunk sizes.
    let mut dec = FrameDecoder::new();
    let mut decoded = Vec::new();
    for chunk in stream.chunks(7) {
        dec.extend(chunk);
        while let Ok(Some(frame)) = dec.next_frame() {
            decoded.push(Request::decode(&frame).unwrap().0);
        }
    }
    assert_eq!(decoded, reqs);
    assert_eq!(dec.buffered(), 0);
}

#[test]
fn truncated_payload_inside_valid_frame_is_malformed_not_panic() {
    // A structurally valid frame whose payload is cut short for its
    // opcode: Fsck (0x07) with the request header but no `deep` flag.
    let frame_bytes = perftrack_server::wire::encode_frame(WIRE_VERSION, 0x07, &[0, 0, 0, 0]);
    let mut dec = FrameDecoder::new();
    dec.extend(&frame_bytes);
    let frame = dec.next_frame().unwrap().unwrap();
    assert!(matches!(
        Request::decode(&frame),
        Err(WireError::Malformed(_))
    ));
}
