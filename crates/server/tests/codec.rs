//! Wire-codec tests over a seeded generator: arbitrary messages
//! round-trip at any chunking, and random bytes, truncated streams and
//! bit-flipped valid frames produce typed protocol errors (or a clean
//! "need more bytes"), never a panic. A failing property prints the case
//! seed that replays it.

use perftrack_server::metrics::OP_LABELS;
use perftrack_server::proto::{
    ErrorCategory, NameFilter, QuerySpec, Request, Response, WireFreeColumn, WireLoadStats,
    WIRE_VERSION,
};
use perftrack_server::wire::{Frame, FrameDecoder, PayloadReader, WireError};
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

/// Every error category with a wire code (codes 1 and 5 are unassigned).
const CATEGORIES: [ErrorCategory; 7] = [
    ErrorCategory::Transient,
    ErrorCategory::ReadOnly,
    ErrorCategory::Corrupt,
    ErrorCategory::Locked,
    ErrorCategory::Invalid,
    ErrorCategory::Internal,
    ErrorCategory::Overloaded,
];

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
            category: CATEGORIES[rng.gen_range(0..CATEGORIES.len())],
            message: arb_text(rng, 100),
        },
    }
}

/// The one complete frame in `bytes`.
fn one_frame(bytes: &[u8]) -> Frame {
    let mut dec = FrameDecoder::new();
    dec.extend(bytes);
    dec.next_frame().unwrap().unwrap()
}

#[test]
fn requests_roundtrip() {
    check_cases(0xc0de_0100, 256, |rng| {
        let req = arb_request(rng);
        assert_eq!(Request::decode(&one_frame(&req.encode())).unwrap(), req);
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
                out.push(Request::decode(&frame).unwrap());
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
        Request::Compare {
            executions: vec!["irs-mcr-0000".into(), "irs-mcr-0002".into()],
            top: 20,
            threshold_pct: 2,
        },
        Request::Shutdown,
    ]
}

/// Declaration-order position of a request's variant. There is no `_`
/// arm, so a new variant does not compile until it is numbered here;
/// `samples_cover_every_variant` then wants a sample of it.
fn request_variant(req: &Request) -> usize {
    match req {
        Request::Ping => 0,
        Request::LoadPtdf { .. } => 1,
        Request::Query(_) => 2,
        Request::FreeResources(_) => 3,
        Request::Export => 4,
        Request::Stats => 5,
        Request::Fsck { .. } => 6,
        Request::Compare { .. } => 7,
        Request::Shutdown => 8,
    }
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
        Response::CompareDone {
            json: "{\"schema\":\"pt-compare/v1\"}".into(),
            table: "metric  base  other\n".into(),
        },
        Response::ShuttingDown,
        Response::Overloaded {
            retry_after_ms: 250,
        },
        Response::Err {
            category: ErrorCategory::Locked,
            message: "store directory is locked".into(),
        },
    ]
}

/// Declaration-order position of a response's variant; see
/// [`request_variant`].
fn response_variant(resp: &Response) -> usize {
    match resp {
        Response::Pong { .. } => 0,
        Response::Loaded { .. } => 1,
        Response::Table { .. } => 2,
        Response::FreeResources(_) => 3,
        Response::Ptdf { .. } => 4,
        Response::Stats { .. } => 5,
        Response::FsckDone { .. } => 6,
        Response::CompareDone { .. } => 7,
        Response::ShuttingDown => 8,
        Response::Overloaded { .. } => 9,
        Response::Err { .. } => 10,
    }
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
            assert_eq!(Request::decode(&frame).unwrap(), req);
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

/// How many opcodes `decode` knows: the bytes whose empty-payload frame
/// fails with anything but `BadOpcode`.
fn known_opcodes<T>(decode: impl Fn(&Frame) -> Result<T, WireError>) -> usize {
    (0..=u8::MAX)
        .filter(|&opcode| {
            let frame = Frame {
                version: WIRE_VERSION,
                opcode,
                payload: Vec::new(),
            };
            !matches!(decode(&frame), Err(WireError::BadOpcode(_)))
        })
        .count()
}

/// The samples hold one message of every variant, in declaration
/// order, and there are as many as `decode` knows opcodes, so
/// `every_sample_message_roundtrips` reaches every opcode.
#[test]
fn samples_cover_every_variant() {
    let requests: Vec<usize> = sample_requests().iter().map(request_variant).collect();
    let expected: Vec<usize> = (0..known_opcodes(Request::decode)).collect();
    assert_eq!(requests, expected);
    let responses: Vec<usize> = sample_responses().iter().map(response_variant).collect();
    let expected: Vec<usize> = (0..known_opcodes(Response::decode)).collect();
    assert_eq!(responses, expected);
}

/// `Request::label` names every opcode's latency histogram: its values
/// over all variants are exactly `OP_LABELS`, in order.
#[test]
fn request_labels_are_op_labels() {
    let labels: Vec<&str> = sample_requests().iter().map(Request::label).collect();
    assert_eq!(labels, OP_LABELS);
}

#[test]
fn every_sample_message_roundtrips() {
    for req in sample_requests() {
        assert_eq!(Request::decode(&one_frame(&req.encode())).unwrap(), req);
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
            decoded.push(Request::decode(&frame).unwrap());
        }
    }
    assert_eq!(decoded, reqs);
    assert_eq!(dec.buffered(), 0);
}

#[test]
fn truncated_payload_inside_valid_frame_is_malformed_not_panic() {
    // A structurally valid frame whose payload is cut short for its
    // opcode: Fsck (0x07) without its `deep` flag, its checksum intact.
    let crc = perftrack_store::wal::crc32(&[]).to_be_bytes();
    let frame_bytes = perftrack_server::wire::encode_frame(WIRE_VERSION, 0x07, &crc);
    let mut dec = FrameDecoder::new();
    dec.extend(&frame_bytes);
    let frame = dec.next_frame().unwrap().unwrap();
    assert!(matches!(
        Request::decode(&frame),
        Err(WireError::Malformed(_))
    ));
}
