//! Protocol robustness: truncated, oversized, garbage, and mutated
//! frames, plus mid-frame disconnects, must each yield a typed error
//! response or a clean close — never a worker panic, never a hang. The
//! core of the suite is a seeded byte-mutation loop over valid frames,
//! in the spirit of `tests/storage_segments.rs`.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc::ScSession;
use sc_engine::exec::TableDelta;
use sc_engine::plan::LogicalPlan;
use sc_serve::{
    encode_request, Client, ErrorCode, Request, ServeConfig, ServeError, Server, MAX_DRAINERS,
    MAX_FRAME,
};
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;

/// A small refreshed session serving the sales pipeline.
fn session(dir: &std::path::Path) -> Arc<ScSession> {
    let s = ScSession::builder()
        .storage_dir(dir)
        .memory_budget(8 << 20)
        .build()
        .unwrap();
    TinyTpcds::generate(0.05, 7).load_into(s.disk()).unwrap();
    for mv in sales_pipeline() {
        s.register_mv(mv).unwrap();
    }
    s.refresh().unwrap();
    Arc::new(s)
}

fn start_server(dir: &std::path::Path) -> Server {
    Server::start(
        session(dir),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

/// Raw connection helper: no client-side protocol smarts, so tests can
/// send arbitrary bytes.
fn raw_connect(server: &Server) -> TcpStream {
    let s = TcpStream::connect(server.addr()).unwrap();
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn send_raw_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_le_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
}

enum RawReply {
    /// A complete frame came back (first byte is the opcode).
    Frame(Vec<u8>),
    /// The server closed the connection without answering.
    Closed,
}

/// Reads one frame or a clean close; panics on timeout (a hung server
/// is exactly the failure this suite exists to catch).
fn read_raw_reply(stream: &mut TcpStream) -> RawReply {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match stream.read(&mut header[got..]) {
            Ok(0) => {
                assert_eq!(got, 0, "server died mid-header");
                return RawReply::Closed;
            }
            Ok(n) => got += n,
            Err(e) => panic!("server did not answer within the timeout: {e}"),
        }
    }
    let len = u32::from_le_bytes(header);
    assert!(len <= MAX_FRAME, "server sent an oversized frame ({len})");
    let mut payload = vec![0u8; len as usize];
    stream.read_exact(&mut payload).expect("frame body");
    RawReply::Frame(payload)
}

fn valid_frames() -> Vec<Vec<u8>> {
    let plan = LogicalPlan::scan("rev_by_category").limit(16);
    let mut delta_rows = sc_engine::TableBuilder::new()
        .column("ss_sold_date_sk", sc_engine::DataType::Int64)
        .build();
    delta_rows
        .push_row(vec![sc_engine::Value::Int64(1)])
        .unwrap();
    vec![
        encode_request(&Request::ReadTable {
            table: "rev_by_category".into(),
        }),
        encode_request(&Request::Query { plan }),
        encode_request(&Request::Ingest {
            table: "unused_side_table".into(),
            delta: TableDelta::insert_only(delta_rows),
        }),
        encode_request(&Request::Stats),
    ]
}

/// The server must still serve correct responses (proof no worker died
/// or wedged).
fn assert_alive(server: &Server) {
    let mut client = Client::connect(server.addr()).unwrap();
    let (_, t) = client.read_table("rev_by_category").unwrap();
    assert!(t.num_rows() > 0);
}

#[test]
fn seeded_mutation_loop_never_panics_or_hangs() {
    let dir = tempfile::tempdir().unwrap();
    let server = start_server(dir.path());
    let frames = valid_frames();
    let mut rng = StdRng::seed_from_u64(0x5eede);
    let mut typed_errors = 0u32;
    for round in 0..250 {
        let mut payload = frames[rng.gen_range(0..frames.len())].clone();
        for _ in 0..rng.gen_range(1..=4usize) {
            let i = rng.gen_range(0..payload.len());
            let bit = rng.gen_range(0..8u32);
            payload[i] ^= 1 << bit;
        }
        let mut stream = raw_connect(&server);
        send_raw_frame(&mut stream, &payload);
        // Any of these is acceptable: a typed error, a well-formed
        // response (the mutation can leave the request valid), or a
        // clean close. A panic, a hang, or a malformed reply is not.
        match read_raw_reply(&mut stream) {
            RawReply::Frame(reply) => {
                let op = *reply.first().expect("non-empty reply");
                assert!(
                    (0x81..=0x85).contains(&op) || op == 0xEE,
                    "round {round}: unknown reply opcode {op:#04x}"
                );
                if op == 0xEE {
                    typed_errors += 1;
                }
            }
            RawReply::Closed => {}
        }
        if round % 50 == 0 {
            assert_alive(&server);
        }
    }
    assert!(
        typed_errors > 50,
        "mutations should mostly produce typed errors, got {typed_errors}"
    );
    assert_alive(&server);
    let final_metrics = server.shutdown();
    assert!(final_metrics.malformed > 0);
}

#[test]
fn truncated_frame_then_disconnect_closes_cleanly() {
    let dir = tempfile::tempdir().unwrap();
    let server = start_server(dir.path());
    for keep in [0usize, 1, 3, 7] {
        let payload = encode_request(&Request::ReadTable {
            table: "rev_by_category".into(),
        });
        let mut stream = raw_connect(&server);
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        stream
            .write_all(&payload[..keep.min(payload.len())])
            .unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        // Mid-frame disconnect: the server must close without answering.
        match read_raw_reply(&mut stream) {
            RawReply::Closed => {}
            RawReply::Frame(f) => panic!("expected close, got opcode {:#04x}", f[0]),
        }
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn partial_length_prefix_disconnect_closes_cleanly() {
    let dir = tempfile::tempdir().unwrap();
    let server = start_server(dir.path());
    let mut stream = raw_connect(&server);
    stream.write_all(&[7u8, 0]).unwrap(); // 2 of 4 header bytes
    stream.shutdown(Shutdown::Write).unwrap();
    match read_raw_reply(&mut stream) {
        RawReply::Closed => {}
        RawReply::Frame(f) => panic!("expected close, got opcode {:#04x}", f[0]),
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn oversized_length_prefix_is_a_typed_error_then_close() {
    let dir = tempfile::tempdir().unwrap();
    let server = start_server(dir.path());
    let mut stream = raw_connect(&server);
    stream.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
    match read_raw_reply(&mut stream) {
        RawReply::Frame(reply) => {
            assert_eq!(reply[0], 0xEE);
            assert_eq!(reply[1], ErrorCode::Malformed as u8);
        }
        RawReply::Closed => panic!("expected a typed error before the close"),
    }
    // The stream cannot be resynced: the server must close after.
    match read_raw_reply(&mut stream) {
        RawReply::Closed => {}
        RawReply::Frame(_) => panic!("connection should be closed"),
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn garbage_payload_gets_typed_error_and_connection_survives() {
    let dir = tempfile::tempdir().unwrap();
    let server = start_server(dir.path());
    let mut rng = StdRng::seed_from_u64(99);
    let mut stream = raw_connect(&server);
    for len in [1usize, 8, 100, 4096] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        send_raw_frame(&mut stream, &garbage);
        match read_raw_reply(&mut stream) {
            RawReply::Frame(reply) => {
                // Garbage may accidentally decode (e.g. first byte 0x04
                // = Refresh); anything well-formed is fine, but a typed
                // malformed error is the common case.
                assert!(reply[0] == 0xEE || (0x81..=0x85).contains(&reply[0]));
            }
            RawReply::Closed => panic!("framing stayed intact; connection should survive"),
        }
    }
    // Same connection still serves a valid request: framing never broke.
    let payload = encode_request(&Request::Stats);
    send_raw_frame(&mut stream, &payload);
    match read_raw_reply(&mut stream) {
        RawReply::Frame(reply) => assert_eq!(reply[0], 0x85),
        RawReply::Closed => panic!("valid request after garbage must be served"),
    }
    server.shutdown();
}

#[test]
fn empty_frame_is_malformed_not_a_panic() {
    let dir = tempfile::tempdir().unwrap();
    let server = start_server(dir.path());
    let mut stream = raw_connect(&server);
    send_raw_frame(&mut stream, &[]);
    match read_raw_reply(&mut stream) {
        RawReply::Frame(reply) => {
            assert_eq!(reply[0], 0xEE);
            assert_eq!(reply[1], ErrorCode::Malformed as u8);
        }
        RawReply::Closed => panic!("expected a typed error"),
    }
    assert_alive(&server);
    server.shutdown();
}

#[test]
fn unknown_table_is_a_typed_engine_error() {
    let dir = tempfile::tempdir().unwrap();
    let server = start_server(dir.path());
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.read_table("no_such_table").unwrap_err();
    match err {
        ServeError::Remote(w) => {
            assert_eq!(w.code, ErrorCode::Engine);
            assert_eq!(w.kind, "unknown_table");
        }
        other => panic!("expected remote engine error, got {other}"),
    }
    // The connection survives a typed error.
    let (_, t) = client.read_table("rev_by_category").unwrap();
    assert!(t.num_rows() > 0);
    server.shutdown();
}

/// Pipelining must not weaken framing robustness: garbage sandwiched
/// between valid frames — all sent before reading a single response —
/// still yields responses strictly in order, with the garbage answered
/// by a typed error and the frames around it served normally.
#[test]
fn pipelined_garbage_between_valid_frames_answers_in_order() {
    let dir = tempfile::tempdir().unwrap();
    let server = start_server(dir.path());
    let mut stream = raw_connect(&server);

    send_raw_frame(
        &mut stream,
        &encode_request(&Request::ReadTable {
            table: "rev_by_category".into(),
        }),
    );
    send_raw_frame(&mut stream, &[0xFF; 16]); // unknown opcode
    send_raw_frame(&mut stream, &encode_request(&Request::Stats));

    // 1: the table response (header + declared chunks).
    let header = match read_raw_reply(&mut stream) {
        RawReply::Frame(f) => f,
        RawReply::Closed => panic!("expected a table header"),
    };
    assert_eq!(header[0], 0x81);
    let nchunks = u32::from_le_bytes(header[9..13].try_into().unwrap());
    assert!(nchunks >= 1);
    for _ in 0..nchunks {
        match read_raw_reply(&mut stream) {
            RawReply::Frame(f) => assert_eq!(f[0], 0x82),
            RawReply::Closed => panic!("server closed mid-table"),
        }
    }
    // 2: the garbage frame's typed error, in sequence.
    match read_raw_reply(&mut stream) {
        RawReply::Frame(f) => {
            assert_eq!(f[0], 0xEE);
            assert_eq!(f[1], ErrorCode::Malformed as u8);
        }
        RawReply::Closed => panic!("garbage mid-pipeline must not kill the connection"),
    }
    // 3: the stats reply — the connection survived in order.
    match read_raw_reply(&mut stream) {
        RawReply::Frame(f) => assert_eq!(f[0], 0x85),
        RawReply::Closed => panic!("valid frame after garbage must be served"),
    }
    server.shutdown();
}

/// Live drainer threads in this process, counted by their thread name:
/// sibling tests run in the same process, so a process-wide thread count
/// would measure them too.
#[cfg(target_os = "linux")]
fn live_drainers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "sc-serve-drain")
        .count()
}

/// A connection flood against a saturated server must not become a
/// thread flood: graceful-shed drainers are capped at [`MAX_DRAINERS`],
/// with excess rejections closed immediately.
#[cfg(target_os = "linux")]
#[test]
fn overload_flood_keeps_drainer_threads_bounded() {
    const FLOOD: usize = 64;
    let dir = tempfile::tempdir().unwrap();
    let server = Server::start(
        session(dir.path()),
        ServeConfig {
            workers: 1,
            backlog: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // Park the single worker on a live connection. With a zero backlog a
    // connection arriving before the freshly started worker waits for one
    // is itself shed, so retry until one is admitted.
    let mut first = loop {
        let mut c = Client::connect(server.addr()).unwrap();
        match c.read_table("rev_by_category") {
            Ok(_) => break c,
            Err(e) if e.is_overloaded() => std::thread::yield_now(),
            Err(e) => panic!("expected admission or Overloaded, got {e}"),
        }
    };

    // Flood. Each socket writes a request and stays open, so every
    // granted drainer holds its thread for the full drain window —
    // worst case for an unbounded spawn-per-rejection design.
    let frame = encode_request(&Request::Stats);
    let mut flood = Vec::new();
    for _ in 0..FLOOD {
        let s = TcpStream::connect(server.addr()).unwrap();
        let mut framed = (frame.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&frame);
        // The server may already have dropped us at the drainer cap; a
        // failed write is exactly that fall-through, not a test failure.
        let _ = (&s).write_all(&framed);
        flood.push(s);
    }
    std::thread::sleep(Duration::from_millis(300));
    let during = live_drainers();
    assert!(
        during <= MAX_DRAINERS,
        "flood of {FLOOD} left {during} live drainer threads; drainers are unbounded"
    );
    assert!(
        during > 0,
        "the open flood sockets must be holding drainers"
    );
    drop(flood);

    // The admitted connection and the server both survived the flood.
    first.read_table("rev_by_category").unwrap();
    drop(first);
    let m = server.shutdown();
    assert!(
        m.rejected_overloaded >= FLOOD as u64,
        "every flooded connection must be counted as shed, got {}",
        m.rejected_overloaded
    );
}

#[test]
fn zero_deadline_rejects_every_request_with_deadline_error() {
    let dir = tempfile::tempdir().unwrap();
    let server = Server::start(
        session(dir.path()),
        ServeConfig {
            workers: 1,
            deadline: Duration::ZERO,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = client.read_table("rev_by_category").unwrap_err();
    match err {
        ServeError::Remote(w) => assert_eq!(w.code, ErrorCode::DeadlineExceeded),
        other => panic!("expected deadline error, got {other}"),
    }
    let m = server.shutdown();
    assert!(m.rejected_deadline > 0);
}
