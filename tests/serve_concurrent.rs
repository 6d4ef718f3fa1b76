//! Serving under churn: N client threads re-read MVs over live
//! connections while a refresher, an ingester, and a compactor commit
//! underneath. Pins the serving tier's core contracts:
//!
//! * every response is epoch-consistent and **byte-identical** across
//!   connections for the same epoch;
//! * per-connection epochs never go backwards;
//! * a cache-enabled server and a cache-disabled server over the same
//!   session return **byte-identical** responses per epoch while epoch
//!   GC reclaims retained files under live cache entries;
//! * pipelined requests are answered strictly in receipt order, and the
//!   per-request deadline clock starts at frame receipt, not dequeue;
//! * `Overloaded` backpressure actually fires under a tiny admission
//!   bound;
//! * graceful shutdown drains every connection and drops every pin, so
//!   epoch GC leaves **zero** retained files.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sc::{ScSession, ScSessionBuilder};
use sc_engine::exec::TableDelta;
use sc_engine::plan::LogicalPlan;
use sc_engine::storage::Throttle;
use sc_serve::{Client, ErrorCode, Request, ServeConfig, ServeError, Server};
use sc_workload::engine_mvs::sales_pipeline;
use sc_workload::tpcds::TinyTpcds;

fn serving_session(dir: &std::path::Path) -> Arc<ScSession> {
    serving_session_from(ScSession::builder(), dir)
}

fn serving_session_from(builder: ScSessionBuilder, dir: &std::path::Path) -> Arc<ScSession> {
    let s = builder
        .storage_dir(dir)
        .memory_budget(8 << 20)
        .build()
        .unwrap();
    TinyTpcds::generate(0.1, 11).load_into(s.disk()).unwrap();
    for mv in sales_pipeline() {
        s.register_mv(mv).unwrap();
    }
    s.refresh().unwrap();
    Arc::new(s)
}

#[test]
fn concurrent_readers_stay_epoch_consistent_under_churn() {
    const READERS: usize = 4;
    let dir = tempfile::tempdir().unwrap();
    let session = serving_session(dir.path());
    // Every connection is persistent and occupies a worker, so the pool
    // must exceed readers + ingester + refresher.
    let server = Server::start(
        Arc::clone(&session),
        ServeConfig {
            workers: READERS + 4,
            backlog: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Delta sample for the ingester: real store_sales rows.
    let sample = {
        let sales = session.disk().read_table("store_sales").unwrap();
        sales.take_rows(&(0..20).collect::<Vec<_>>()).unwrap()
    };

    let stop = AtomicBool::new(false);
    // epoch -> SCTB bytes: responses at one epoch must be identical
    // regardless of which connection (and which worker) served them.
    let by_epoch: Mutex<HashMap<u64, Vec<u8>>> = Mutex::new(HashMap::new());
    let reads_done = std::sync::atomic::AtomicU64::new(0);

    std::thread::scope(|scope| {
        // Readers: re-read one MV over a live connection.
        let mut readers = Vec::new();
        for _ in 0..READERS {
            readers.push(scope.spawn(|| {
                let mut client = Client::connect(addr).unwrap();
                let mut last_epoch = 0u64;
                let mut seen = std::collections::BTreeSet::new();
                while !stop.load(Ordering::Relaxed) {
                    let (epoch, bytes) = client.read_table_raw("rev_by_category").unwrap();
                    assert!(
                        epoch >= last_epoch,
                        "per-connection epochs went backwards: {epoch} < {last_epoch}"
                    );
                    last_epoch = epoch;
                    seen.insert(epoch);
                    let mut map = by_epoch.lock().unwrap();
                    let prev = map.entry(epoch).or_insert_with(|| bytes.clone());
                    assert_eq!(
                        *prev, bytes,
                        "two responses at epoch {epoch} differed byte-for-byte"
                    );
                    drop(map);
                    reads_done.fetch_add(1, Ordering::Relaxed);
                }
                seen.len()
            }));
        }

        // Ingester: append deltas to a base table over the wire.
        let ingester = scope.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            for _ in 0..10 {
                let rows = client
                    .ingest("store_sales", &TableDelta::insert_only(sample.clone()))
                    .unwrap();
                assert_eq!(rows, 20);
                std::thread::sleep(Duration::from_millis(10));
            }
        });

        // Refresher: commit new MV versions over the wire.
        let refresher = scope.spawn(|| {
            let mut client = Client::connect(addr).unwrap();
            for _ in 0..5 {
                let summary = client.refresh().unwrap();
                assert_eq!(summary.nodes, 9);
            }
        });

        // Compactor: rewrite multi-segment MVs through the session path
        // (compaction is an operator action, not a wire request).
        let compactor = scope.spawn(|| {
            for _ in 0..4 {
                session.compact_mvs().unwrap();
                std::thread::sleep(Duration::from_millis(25));
            }
        });

        ingester.join().unwrap();
        refresher.join().unwrap();
        compactor.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        let mut distinct_total = 0;
        for r in readers {
            distinct_total += r.join().unwrap();
        }
        // The refresher committed repeatedly, so readers must have
        // observed the world move (at least one reader saw >= 2 epochs).
        assert!(
            distinct_total > READERS,
            "readers never observed an epoch change under churn"
        );
    });

    assert!(reads_done.load(Ordering::Relaxed) > 20);
    let metrics = server.shutdown();
    assert!(metrics.reads >= reads_done.load(Ordering::Relaxed));
    assert!(metrics.ingests >= 10);
    assert!(metrics.refreshes >= 5);

    // Graceful shutdown dropped every pin: epoch GC reclaimed every
    // retained file, with no failed deletes.
    assert_eq!(session.disk().retained_file_count().unwrap(), 0);
    assert_eq!(session.disk().gc_failed_deletes(), 0);
}

/// The cache-coherence lens: one session, two servers — one with the
/// shared-snapshot cache, one without — must return byte-identical
/// responses per epoch while an ingester + refresher advance epochs and
/// epoch GC reclaims retained files under live cache entries. Readers
/// alternate `ReadTable` with `Query(Scan)` so the identity-query path
/// shares (and validates) the same cache key.
#[test]
fn cached_and_uncached_servers_agree_byte_for_byte_under_churn() {
    const READERS: usize = 2; // per server
    let dir = tempfile::tempdir().unwrap();
    let session = serving_session(dir.path());
    let cached = Server::start(
        Arc::clone(&session),
        ServeConfig {
            workers: READERS + 2,
            backlog: 16,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let uncached = Server::start(
        Arc::clone(&session),
        ServeConfig {
            workers: READERS + 2,
            backlog: 16,
            cache_bytes: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    let sample = {
        let sales = session.disk().read_table("store_sales").unwrap();
        sales.take_rows(&(0..20).collect::<Vec<_>>()).unwrap()
    };

    let stop = AtomicBool::new(false);
    // epoch -> SCTB response bytes, shared across BOTH servers' readers:
    // a cache hit must be indistinguishable from a pinned read.
    let by_epoch: Mutex<HashMap<u64, Vec<u8>>> = Mutex::new(HashMap::new());

    std::thread::scope(|scope| {
        let stop = &stop;
        let by_epoch = &by_epoch;
        let mut readers = Vec::new();
        for addr in [cached.addr(), uncached.addr()] {
            for _ in 0..READERS {
                readers.push(scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut seen = std::collections::BTreeSet::new();
                    let mut flip = false;
                    while !stop.load(Ordering::Relaxed) {
                        let (epoch, bytes) = if flip {
                            // The identity query executes as a bare
                            // table read, so it must share the cache
                            // entry — and its bytes.
                            client
                                .send_request(&Request::Query {
                                    plan: LogicalPlan::scan("rev_by_category"),
                                })
                                .unwrap();
                            client.recv_table_raw().unwrap()
                        } else {
                            client.read_table_raw("rev_by_category").unwrap()
                        };
                        flip = !flip;
                        seen.insert(epoch);
                        let mut map = by_epoch.lock().unwrap();
                        let prev = map.entry(epoch).or_insert_with(|| bytes.clone());
                        assert_eq!(
                            *prev, bytes,
                            "cached/uncached responses at epoch {epoch} differed"
                        );
                    }
                    seen.len()
                }));
            }
        }

        let ingester = scope.spawn(|| {
            let mut client = Client::connect(cached.addr()).unwrap();
            for _ in 0..10 {
                client
                    .ingest("store_sales", &TableDelta::insert_only(sample.clone()))
                    .unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let refresher = scope.spawn(|| {
            let mut client = Client::connect(uncached.addr()).unwrap();
            for _ in 0..5 {
                client.refresh().unwrap();
            }
        });

        ingester.join().unwrap();
        refresher.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        let distinct: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(
            distinct > 2 * READERS,
            "readers never observed an epoch change under churn"
        );
    });

    // Cache observability over the wire: hit ratio and cached bytes are
    // part of `Stats`.
    let mut probe = Client::connect(cached.addr()).unwrap();
    probe.read_table_raw("rev_by_category").unwrap();
    probe.read_table_raw("rev_by_category").unwrap();
    let stats = probe.stats().unwrap();
    assert!(stats.metrics.cache_hits >= 1, "repeat read must hit");
    assert!(
        stats.metrics.cache_bytes > 0,
        "cached bytes must be visible"
    );
    drop(probe);

    let cm = cached.shutdown();
    assert!(cm.cache_hits > 0, "churn readers never hit the cache");
    assert!(cm.cache_misses > 0, "every epoch change forces a miss");
    assert!(
        cm.cache_evicted > 0,
        "epoch GC advanced past cached epochs, so the hook must have evicted"
    );
    let um = uncached.shutdown();
    assert_eq!(
        (um.cache_hits, um.cache_misses, um.cache_bytes),
        (0, 0, 0),
        "the cache-disabled server must not touch the cache"
    );

    // Both servers down: every pin dropped, every retained file (and
    // every stale cache epoch with it) reclaimed.
    assert_eq!(session.disk().retained_file_count().unwrap(), 0);
    assert_eq!(session.disk().gc_failed_deletes(), 0);
}

/// Two cache-enabled servers on one session each evict in step with
/// epoch GC, and shutting one down leaves the other's eviction in
/// place.
#[test]
fn two_cached_servers_on_one_session_both_evict() {
    let dir = tempfile::tempdir().unwrap();
    let session = serving_session(dir.path());
    let start = || Server::start(Arc::clone(&session), ServeConfig::default()).unwrap();
    let (first, second) = (start(), start());
    let sample = {
        let sales = session.disk().read_table("store_sales").unwrap();
        sales.take_rows(&(0..20).collect::<Vec<_>>()).unwrap()
    };
    let commit = || {
        session
            .ingest_delta("store_sales", TableDelta::insert_only(sample.clone()))
            .unwrap()
    };
    let cache_one = |server: &Server| {
        let mut client = Client::connect(server.addr()).unwrap();
        client.read_table_raw("rev_by_category").unwrap();
        assert_eq!(server.cache().stats().entries, 1);
        server.cache().stats().evicted
    };

    let before = [cache_one(&first), cache_one(&second)];
    commit();
    for (server, before) in [&first, &second].into_iter().zip(before) {
        assert!(
            server.cache().stats().evicted > before,
            "a commit past the cached epoch must evict on every server"
        );
    }

    first.shutdown();
    let before = cache_one(&second);
    commit();
    assert!(
        second.cache().stats().evicted > before,
        "the surviving server must keep evicting"
    );
}

/// Pipelined requests over one connection are answered strictly in send
/// order — including when one of them is rejected mid-pipeline (unknown
/// table → typed engine error) — and distinct tables prove no response
/// swapped places.
#[test]
fn pipelined_responses_preserve_order_even_through_rejections() {
    let dir = tempfile::tempdir().unwrap();
    let session = serving_session(dir.path());
    let server = Server::start(Arc::clone(&session), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Reference bytes per table at the quiescent epoch.
    let tables = ["rev_by_category", "rev_by_year", "top_items"];
    let mut reference = HashMap::new();
    for t in tables {
        let (epoch, bytes) = client.read_table_raw(t).unwrap();
        reference.insert(t, (epoch, bytes));
    }

    // Two full cycles of reads with a poison request in the middle of
    // each, sent back-to-back without reading a single response.
    let mut expect = Vec::new();
    for _ in 0..2 {
        for (i, t) in tables.iter().enumerate() {
            client
                .send_request(&Request::ReadTable { table: (*t).into() })
                .unwrap();
            expect.push(Some(*t));
            if i == 1 {
                client
                    .send_request(&Request::ReadTable {
                        table: "no_such_table".into(),
                    })
                    .unwrap();
                expect.push(None);
            }
        }
    }

    for want in expect {
        match want {
            Some(t) => {
                let (epoch, bytes) = client.recv_table_raw().unwrap();
                let (ref_epoch, ref_bytes) = &reference[t];
                assert_eq!(epoch, *ref_epoch);
                assert_eq!(
                    &bytes, ref_bytes,
                    "response for {t} arrived out of order or corrupted"
                );
            }
            None => match client.recv_table_raw().unwrap_err() {
                ServeError::Remote(w) => assert_eq!(w.code, ErrorCode::Engine),
                other => panic!("expected a typed engine error, got {other}"),
            },
        }
    }
    server.shutdown();
}

/// The per-request deadline clock starts when the frame is received, not
/// when the executor dequeues it: reads queued behind a slow refresh
/// must burn their deadline in the queue and come back rejected — in
/// order — while a fresh request afterwards still succeeds.
#[test]
fn deadline_clock_starts_at_frame_receipt_not_dequeue() {
    // The blocking refresh must outlive the deadline however fast the
    // engine is, so its duration gets a floor the engine cannot move: a
    // modeled device charging `OP_LATENCY` per storage operation, one
    // shared channel per direction. The refresh below persists the five
    // MVs downstream of `store_sales` — five back-to-back write slots,
    // 2.5x the deadline — while one pinned read is a single slot, a
    // quarter of it.
    const OP_LATENCY: Duration = Duration::from_millis(10);
    const DEADLINE: Duration = Duration::from_millis(40);
    let dir = tempfile::tempdir().unwrap();
    let session = serving_session_from(
        ScSession::builder().throttle(Throttle {
            latency_s: OP_LATENCY.as_secs_f64(),
            ..Throttle::fast()
        }),
        dir.path(),
    );
    let server = Server::start(
        Arc::clone(&session),
        ServeConfig {
            workers: 1,
            deadline: DEADLINE,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let sample = {
        let sales = session.disk().read_table("store_sales").unwrap();
        sales.take_rows(&(0..200).collect::<Vec<_>>()).unwrap()
    };
    session
        .ingest_delta("store_sales", TableDelta::insert_only(sample))
        .unwrap();

    client.send_request(&Request::Refresh).unwrap();
    for _ in 0..3 {
        client
            .send_request(&Request::ReadTable {
                table: "rev_by_category".into(),
            })
            .unwrap();
    }

    // The refresh itself blows its own deadline (the work still
    // committed — the deadline gates the response, not the engine).
    match client.recv_refresh() {
        Err(ServeError::Remote(w)) => assert_eq!(w.code, ErrorCode::DeadlineExceeded),
        Ok(s) => panic!("five paced writes finished within {DEADLINE:?}? {s:?}"),
        Err(other) => panic!("expected a typed deadline error, got {other}"),
    }
    // The queued reads spent the refresh's runtime in the pipeline: had
    // the clock started at dequeue they would all succeed (a pinned read
    // is one `OP_LATENCY` slot).
    for _ in 0..3 {
        match client.recv_table_raw().unwrap_err() {
            ServeError::Remote(w) => assert_eq!(w.code, ErrorCode::DeadlineExceeded),
            other => panic!("expected a typed deadline error, got {other}"),
        }
    }
    // Rejections did not corrupt the connection: a fresh request with a
    // fresh deadline is served, at the epoch the refresh committed. (On
    // a loaded two-core host the server's reader thread can be starved
    // past the deadline; that is a rejection like any other, so ask
    // again.)
    let (epoch, bytes) = (0..50)
        .find_map(|_| match client.read_table_raw("rev_by_category") {
            Ok(served) => Some(served),
            Err(ServeError::Remote(w)) if w.code == ErrorCode::DeadlineExceeded => None,
            Err(other) => panic!("expected the read to be served, got {other}"),
        })
        .expect("a one-slot read meets a four-slot deadline within 50 tries");
    assert!(epoch >= 1);
    assert!(!bytes.is_empty());

    let m = server.shutdown();
    assert!(m.rejected_deadline >= 3);
}

#[test]
fn overloaded_fires_under_a_tiny_admission_bound() {
    let dir = tempfile::tempdir().unwrap();
    let session = serving_session(dir.path());
    // One worker, zero backlog: admission is a pure rendezvous, so a
    // second concurrent connection must be shed with `Overloaded`.
    let server = Server::start(
        Arc::clone(&session),
        ServeConfig {
            workers: 1,
            backlog: 0,
            ..ServeConfig::default()
        },
    )
    .unwrap();

    // A completed request proves the single worker now owns this
    // connection (and is parked on it). With a zero backlog a connection
    // arriving before the freshly started worker waits for one is itself
    // shed, so retry until one is admitted.
    let mut first = loop {
        let mut c = Client::connect(server.addr()).unwrap();
        match c.read_table("rev_by_category") {
            Ok((_, t)) => {
                assert!(t.num_rows() > 0);
                break c;
            }
            Err(e) if e.is_overloaded() => std::thread::yield_now(),
            Err(e) => panic!("expected admission or Overloaded, got {e}"),
        }
    };

    let mut second = Client::connect(server.addr()).unwrap();
    let err = second.read_table("rev_by_category").unwrap_err();
    assert!(
        err.is_overloaded(),
        "expected typed Overloaded backpressure, got {err}"
    );

    // The admitted connection keeps working: shedding is per-connection.
    let (_, t) = first.read_table("rev_by_category").unwrap();
    assert!(t.num_rows() > 0);

    drop(first);
    let metrics = server.shutdown();
    assert!(metrics.rejected_overloaded >= 1);
    assert_eq!(session.disk().retained_file_count().unwrap(), 0);
}

#[test]
fn stats_over_the_wire_reports_epoch_tables_and_counters() {
    let dir = tempfile::tempdir().unwrap();
    let session = serving_session(dir.path());
    let server = Server::start(Arc::clone(&session), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    client.read_table("rev_by_category").unwrap();
    let stats = client.stats().unwrap();
    assert_eq!(stats.epoch, session.snapshot().epoch());
    assert!(stats.tables.contains(&"rev_by_category".to_string()));
    assert!(stats.tables.contains(&"store_sales".to_string()));
    assert!(stats.metrics.reads >= 1);
    assert!(stats.metrics.bytes_out > 0);
    let text = stats.render();
    assert!(text.contains("rev_by_category"));
    assert!(text.contains("p50"));

    // Wire queries resolve on one snapshot and match local execution.
    let plan = sc_engine::plan::LogicalPlan::scan("rev_by_category");
    let (epoch, served) = client.query(&plan).unwrap();
    assert_eq!(epoch, stats.epoch);
    assert_eq!(served, session.query(&plan).unwrap());
    server.shutdown();
}
