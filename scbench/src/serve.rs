//! `serve_churn`: reads beside writes, over the wire. One process, two
//! threads, two connections (this host has two vCPUs) against an
//! `sc-serve` server (2 workers, 512 KiB read cache) in the same process:
//!
//! * the **reader** fires on a fixed schedule — [`READ_RATE`] requests a
//!   second, [`QUERY_SHARE`] of them an aggregate query, the rest reads
//!   of a small cached MV — and times each from when it was *due*;
//! * the **writer** every [`WRITE_PERIOD`] sends `Ingest`, `Refresh`,
//!   then pulls the join hub, which is larger than the cache and so
//!   comes from storage every time.
//!
//! Pins, epoch GC, cache eviction and the catalog's io lock are all live
//! at once. Freshness is wire to wire: `Ingest` sent → the reader's first
//! response at or past the epoch the refresh committed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc::ScSession;
use sc_core::RefreshMode;
use sc_engine::storage::format;
use sc_serve::{encode_request, Client, MetricsSnapshot, Request, ServeConfig, Server};

use crate::acct::Ledger;
use crate::dag::{
    check_reconciles, publish_timings, reader_query, verify_against_recompute, Timings,
};
use crate::layers;
use crate::metrics::Outcome;
use crate::rig::{
    build_rig, compacts_after, ms, peak_rss_mb, reset_peak_rss, us, Churn, Res, Rig, SessionCfg,
    COMPACT_EVERY, FACT, HOT, HUB,
};
use crate::sched::{Clock, OpenLoop, RealClock};
use crate::stats::{median_of, Samples};
use crate::trace::{spanned, Lane, Tracer};
use crate::RunArgs;

pub const NAME: &str = "serve_churn";

/// Reader schedule, requests per second. Lowered once from 200: there,
/// every storage-path read (≈10 ms behind a committing writer's io lock)
/// pushed the next two requests late and the generator never caught up
/// within a round. A rate sweep waits until serving scale-out is back on
/// the roadmap.
pub const READ_RATE: u32 = 100;
pub const QUERY_SHARE: f64 = 0.15;
pub const WRITE_PERIOD: Duration = Duration::from_millis(200);
/// The server's read cache: room for every MV but the hub (1.3 MB at the
/// served scale), so hub reads always go to storage.
const CACHE_BYTES: u64 = 512 << 10;
/// A hot read slower than this (or failed) misses the latency limit.
const SLO_US: f64 = 2000.0;
/// Every this-many-th hot response is compared byte for byte with storage.
const BYTE_CHECK_EVERY: usize = 16;

struct Served {
    server: Server,
    reader: Client,
    writer: Client,
    /// The churn stream and how far into it the writer is; both carry
    /// over from one phase of a run to the next.
    churn: Churn,
    next_round: usize,
    rig: Rig,
}

/// Everything a client pays before its first steady-state request: the
/// refreshed session, the server, both connections, caches warm.
fn start(args: &RunArgs) -> Res<(Served, f64)> {
    let started = Instant::now();
    let cfg = SessionCfg {
        scale: args.sizing.serve_scale,
        memory_budget: 64 << 20,
        mode: RefreshMode::Auto,
        lanes: 1,
    };
    let rig = build_rig(&args.out, NAME, args.seed, cfg)?;
    let server = Server::start(
        rig.session.clone(),
        ServeConfig {
            workers: 2,
            cache_bytes: CACHE_BYTES,
            ..ServeConfig::default()
        },
    )?;
    let mut reader = Client::connect(server.addr())?;
    let mut writer = Client::connect(server.addr())?;
    reader.read_table_raw(HOT)?;
    reader.query(&reader_query())?;
    writer.read_table_raw(HUB)?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok((
        Served {
            server,
            reader,
            writer,
            churn: Churn::new(&rig.fact, args.seed),
            next_round: 0,
            rig,
        },
        setup_s,
    ))
}

/// The bytes the server must send for `name` at `snap`'s epoch: the
/// table's canonical SCTB encoding, which for a single-segment table is
/// its stored segment file verbatim.
fn stored_bytes(snap: &sc::ScSnapshot<'_>, name: &str) -> Res<Vec<u8>> {
    let mut files = snap.stored_file_bytes(name)?;
    if files.len() == 2 {
        return Ok(files.remove(1).1);
    }
    Ok(format::encode(&snap.read_table(name)?).to_vec())
}

/// How the two loops are run: for how long, and whether they record spans.
#[derive(Debug, Clone, Copy)]
struct Phase {
    min_rounds: usize,
    seconds: f64,
    account_rounds: usize,
    /// Spans share this origin so the two threads' recordings merge.
    trace_from: Option<Instant>,
}

#[derive(Debug, Clone, Copy)]
struct Read {
    query: bool,
    latency_us: f64,
    late_us: f64,
    done: Duration,
    epoch: u64,
}

struct ReadSide {
    reads: Vec<Read>,
    o: Outcome,
    tr: Option<Tracer>,
}

/// The reader connection's open loop, until `stop`.
fn read_loop(
    client: &mut Client,
    session: &ScSession,
    clock: RealClock,
    start: Duration,
    seed: u64,
    phase: Phase,
    stop: &AtomicBool,
) -> ReadSide {
    let mut r = ReadSide {
        reads: Vec::new(),
        o: Outcome::default(),
        tr: phase.trace_from.map(|origin| Tracer::new(origin, 0)),
    };
    let mut sched = OpenLoop::new(clock, start, Duration::from_secs(1) / READ_RATE);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_AEAD);
    let query = reader_query();
    let mut last_epoch = 0;
    let mut hot_reads = 0;
    while !stop.load(Ordering::SeqCst) {
        let is_query = rng.gen_bool(QUERY_SHARE);
        let n = sched.fired();
        let mut call = || {
            if is_query {
                client
                    .query(&query)
                    .map(|(epoch, t)| (epoch, Vec::new(), t.num_rows()))
            } else {
                client
                    .read_table_raw(HOT)
                    .map(|(epoch, bytes)| (epoch, bytes, 1))
            }
        };
        let fired = sched.fire(|| match &mut r.tr {
            None => call(),
            Some(tr) => {
                tr.set_round(n);
                tr.span("bench", "request", Lane::Critical, |tr| {
                    // The client encodes the request again inside the call;
                    // this one is only there to be timed.
                    let req = if is_query {
                        Request::Query {
                            plan: query.clone(),
                        }
                    } else {
                        Request::ReadTable { table: HOT.into() }
                    };
                    tr.call("protocol", "encode_request", || {
                        std::hint::black_box(encode_request(&req));
                    });
                    tr.call(
                        "server",
                        if is_query { "call_query" } else { "call_hot" },
                        call,
                    )
                })
            }
        });
        let (epoch, bytes, rows) = match fired.result {
            Ok(response) => response,
            Err(e) => {
                r.o.check(false, || format!("read {n} failed: {e}"));
                continue;
            }
        };
        r.o.check(rows > 0 && epoch >= last_epoch, || {
            format!("read {n}: {rows} rows at epoch {epoch} after epoch {last_epoch}")
        });
        last_epoch = epoch;
        r.reads.push(Read {
            query: is_query,
            latency_us: fired.latency.as_secs_f64() * 1e6,
            late_us: fired.late.as_secs_f64() * 1e6,
            done: fired.done,
            epoch,
        });
        if !is_query {
            hot_reads += 1;
            if hot_reads % BYTE_CHECK_EVERY == 0 {
                // Comparable only if no commit landed since the response.
                let snap = session.snapshot();
                if snap.epoch() == epoch {
                    let same = stored_bytes(&snap, HOT).is_ok_and(|b| b == bytes);
                    r.o.check(same, || {
                        format!(
                            "read {n}: wire bytes of {HOT} differ from storage at epoch {epoch}"
                        )
                    });
                }
            }
        }
    }
    r
}

/// One writer round as the reader-side matching needs it.
struct Commit {
    ingest_sent: Duration,
    epoch: u64,
}

struct WriteSide {
    t: Timings,
    commits: Vec<Commit>,
    ledger: Ledger,
    rounds: usize,
    o: Outcome,
    tr: Option<Tracer>,
}

/// The writer connection's rounds: at least `phase.min_rounds`, then
/// until `phase.seconds` have passed.
fn write_loop(
    client: &mut Client,
    session: &ScSession,
    (churn, next_round): (&mut Churn, &mut usize),
    args: &RunArgs,
    clock: RealClock,
    start: Duration,
    phase: Phase,
) -> Res<WriteSide> {
    let mut w = WriteSide {
        t: Timings::default(),
        commits: Vec::new(),
        ledger: Ledger::open(session.disk())?,
        rounds: 0,
        o: Outcome::default(),
        tr: phase.trace_from.map(|origin| Tracer::new(origin, 1)),
    };
    let period = if args.smoke {
        WRITE_PERIOD / 4
    } else {
        WRITE_PERIOD
    };
    let mut sched = OpenLoop::new(clock, start, period);
    let mut last_epoch = 0;
    while w.rounds < phase.min_rounds || (clock.now() - start).as_secs_f64() < phase.seconds {
        let round = *next_round;
        *next_round += 1;
        let in_window = w.rounds < phase.account_rounds;
        let delta = churn.next(round)?;
        if in_window {
            w.ledger.ingested += delta.byte_size();
        }
        if let Some(tr) = &mut w.tr {
            tr.set_round(round as u32);
        }
        let fired = sched.fire(|| -> Res<(Commit, u64, Vec<u8>)> {
            reset_peak_rss();
            let ingest_sent = clock.now();
            let t = Instant::now();
            spanned(w.tr.as_mut(), "server", "call_ingest", || {
                client.ingest(FACT, &delta)
            })?;
            w.t.ingest_ms.push(ms(t));
            let t = Instant::now();
            spanned(w.tr.as_mut(), "server", "call_refresh", || client.refresh())?;
            w.t.refresh_ms.push(ms(t));
            // This connection is the only writer, so the catalog's
            // committed epoch now is the refresh's.
            let epoch = session.disk().current_epoch();
            let t = Instant::now();
            let (hub_epoch, hub) = spanned(w.tr.as_mut(), "server", "call_big", || {
                client.read_table_raw(HUB)
            })?;
            w.t.read_big_ms.push(ms(t));
            w.t.peak_rss_mb.push(peak_rss_mb());
            Ok((Commit { ingest_sent, epoch }, hub_epoch, hub))
        });
        let (commit, hub_epoch, hub) = fired.result?;
        w.o.check(
            hub_epoch >= commit.epoch && commit.epoch > last_epoch,
            || {
                format!(
                    "round {round}: epochs went {last_epoch} -> {} -> {hub_epoch}",
                    commit.epoch
                )
            },
        );
        last_epoch = hub_epoch;
        w.commits.push(commit);

        // What the server did for the hub read, redone here: it checks
        // the wire bytes and, when tracing, says where the call's time went.
        let call = w.tr.as_ref().map(Tracer::last);
        let snap = session.snapshot();
        let t = Instant::now();
        let table = snap.read_table(HUB)?;
        let read_us = us(t);
        let t = Instant::now();
        let encoded = format::encode(&table);
        let encode_us = us(t);
        let same = snap.epoch() == hub_epoch && encoded[..] == hub[..];
        drop(snap);
        w.o.check(same, || {
            format!("round {round}: wire bytes of {HUB} differ from storage at epoch {hub_epoch}")
        });
        if let (Some(tr), Some(call)) = (&mut w.tr, call) {
            tr.attribute(call, "session", "snapshot_read", 0.0, read_us);
            tr.attribute(call, "format", "encode", read_us, encode_us);
        }

        if in_window {
            w.ledger.observe(session.disk())?;
            if compacts_after(w.rounds) && w.rounds + COMPACT_EVERY >= phase.account_rounds {
                w.ledger.measure_space(session.disk())?;
            }
            if w.rounds + 1 == phase.account_rounds {
                w.ledger.close_window();
            }
        }
        w.rounds += 1;
    }
    Ok(w)
}

/// Both loops side by side; returns when the writer is done.
fn drive(served: &mut Served, args: &RunArgs, phase: Phase) -> Res<(ReadSide, WriteSide)> {
    let clock = RealClock::new(phase.trace_from.unwrap_or_else(Instant::now));
    let start = clock.now() + Duration::from_millis(20);
    let stop = AtomicBool::new(false);
    let Served {
        reader,
        writer,
        churn,
        next_round,
        rig,
        ..
    } = served;
    let session = &rig.session;
    let (read, written) = std::thread::scope(|s| {
        let reading = s.spawn(|| read_loop(reader, session, clock, start, args.seed, phase, &stop));
        let written = write_loop(
            writer,
            session,
            (churn, next_round),
            args,
            clock,
            start,
            phase,
        );
        stop.store(true, Ordering::SeqCst);
        (reading.join(), written)
    });
    Ok((read.map_err(|_| "the reader thread panicked")?, written?))
}

/// Wire-to-wire freshness per commit: from `Ingest` sent to the first
/// reader response completed at or past the commit's epoch.
fn freshness_ms(reads: &[Read], commits: &[Commit]) -> Samples {
    let mut out = Samples::default();
    let mut i = 0;
    for c in commits {
        while i < reads.len() && reads[i].epoch < c.epoch {
            i += 1;
        }
        if let Some(r) = reads.get(i) {
            out.push(r.done.saturating_sub(c.ingest_sent).as_secs_f64() * 1e3);
        }
    }
    out
}

struct ReadStats {
    hot_us: Samples,
    query_us: Samples,
    late_us: Samples,
    slo_misses: usize,
    span_s: f64,
}

fn read_stats(reads: &[Read], failed_reads: u64) -> ReadStats {
    let mut s = ReadStats {
        hot_us: Samples::default(),
        query_us: Samples::default(),
        late_us: Samples::default(),
        slo_misses: failed_reads as usize,
        span_s: 0.0,
    };
    for r in reads {
        s.late_us.push(r.late_us);
        if r.query {
            s.query_us.push(r.latency_us);
        } else {
            s.hot_us.push(r.latency_us);
            s.slo_misses += usize::from(r.latency_us > SLO_US);
        }
    }
    if let (Some(first), Some(last)) = (reads.first(), reads.last()) {
        s.span_s = (last.done - first.done).as_secs_f64();
    }
    s
}

/// Stops the server and checks it let go of everything it pinned.
fn shut_down(served: Served, o: &mut Outcome) -> Res<(Rig, MetricsSnapshot)> {
    let Served {
        server,
        reader,
        writer,
        rig,
        ..
    } = served;
    drop((reader, writer));
    let metrics = server.shutdown();
    let retained = rig.session.disk().retained_file_count()?;
    o.check(retained == 0, || {
        format!("{retained} retained files survive shutdown")
    });
    Ok((rig, metrics))
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &RunArgs) -> Res<Outcome> {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let (mut served, setup_s) = start(args)?;
    setups.push(setup_s);
    for _ in 1..args.sizing.setups {
        shut_down(served, &mut o)?;
        let again = start(args)?;
        served = again.0;
        setups.push(again.1);
    }
    o.set("setup_s", median_of(&setups));

    let phase = Phase {
        min_rounds: args.sizing.min_rounds,
        seconds: args.seconds,
        account_rounds: args.sizing.account_rounds,
        trace_from: None,
    };
    let (read, mut written) = drive(&mut served, args, phase)?;
    let stats = read_stats(&read.reads, read.o.failed);
    o.absorb(read.o);
    o.absorb(std::mem::take(&mut written.o));

    written.t.read_hot_us = stats.hot_us;
    written.t.query_us = stats.query_us;
    written.t.freshness_ms = freshness_ms(&read.reads, &written.commits);
    o.check(
        written.t.freshness_ms.len() == written.commits.len(),
        || "some commits were never seen by the reader".into(),
    );
    publish_timings(&mut o, &written.t, !args.smoke);
    o.set("write_amp", written.ledger.write_amp.unwrap_or(0.0));
    o.set("space_amp", written.ledger.space_amp.unwrap_or(0.0));
    o.samples.insert("rounds", written.rounds);
    o.samples.insert("reads", read.reads.len());

    let (rig, _) = shut_down(served, &mut o)?;
    verify_against_recompute(&rig.session, args, &mut o)?;
    Ok(o)
}

/// The traced run: the same two loops twice over a short stretch, first
/// bare (the serving-layer counters and the reference medians), then
/// with every request wrapped in spans.
pub fn run_traced(args: &RunArgs) -> Res<Outcome> {
    let mut o = Outcome::default();
    let (mut served, _) = start(args)?;
    layers::publish_setup(&mut o, &served.rig)?;

    let mut phase = Phase {
        min_rounds: args.sizing.trace_rounds,
        seconds: 0.0,
        account_rounds: usize::MAX,
        trace_from: None,
    };
    let (read, mut written) = drive(&mut served, args, phase)?;
    let stats = read_stats(&read.reads, read.o.failed);
    let failed_reads = read.o.failed;
    o.absorb(read.o);
    o.absorb(std::mem::take(&mut written.o));
    let fresh = freshness_ms(&read.reads, &written.commits);
    let wire = served.writer.stats()?.metrics;

    o.set("delta.ingest_ms", written.t.ingest_ms.median());
    o.set("read_hot_p50_us", stats.hot_us.median());
    o.set("read_hot_p90_us", stats.hot_us.percentile(0.9));
    o.set("server.read_hot_p99_us", stats.hot_us.percentile(0.99));
    o.set("server.read_hot_p999_us", stats.hot_us.percentile(0.999));
    o.set(
        "server.read_big_p90_ms",
        written.t.read_big_ms.percentile(0.9),
    );
    o.set("server.query_p99_us", stats.query_us.percentile(0.99));
    o.set("server.freshness_p90_ms", fresh.percentile(0.9));
    o.set(
        "server.rejected_overloaded",
        wire.rejected_overloaded as f64,
    );
    o.set("server.rejected_deadline", wire.rejected_deadline as f64);
    o.set(
        "server.bytes_out_mb_s",
        wire.bytes_out as f64 / 1e6 / stats.span_s.max(1e-9),
    );
    let side_p50 = wire.p50_us().unwrap_or(0) as f64;
    o.set("server.side_p50_us", side_p50);
    o.set(
        "server.wire_overhead_us",
        (stats.hot_us.median() - side_p50).max(0.0),
    );
    let lookups = (wire.cache_hits + wire.cache_misses).max(1);
    o.set("cache.hit_ratio", wire.cache_hits as f64 / lookups as f64);
    o.set("cache.evicted", wire.cache_evicted as f64);
    o.set("cache.bytes", wire.cache_bytes as f64);
    o.set("gen.late_p99_us", stats.late_us.percentile(0.99));
    o.set(
        "gen.achieved_rate",
        read.reads.len() as f64 / stats.span_s.max(1e-9),
    );
    o.set(
        "slo_miss_share",
        stats.slo_misses as f64 / (stats.hot_us.len() as f64 + failed_reads as f64).max(1.0),
    );
    written.ledger.observe(served.rig.session.disk())?;
    o.set("disk.bytes_written", written.ledger.written() as f64);
    o.set("disk.bytes_on_disk", written.ledger.bytes_on_disk as f64);
    o.set(
        "disk.retained_files",
        written.ledger.retained_files_max as f64,
    );
    o.samples.insert("rounds", written.rounds);
    o.samples.insert("reads", read.reads.len());

    phase.trace_from = Some(Instant::now());
    let (read, mut written) = drive(&mut served, args, phase)?;
    o.absorb(read.o);
    o.absorb(std::mem::take(&mut written.o));
    let (mut tr, writer_tr) = (
        read.tr.ok_or("no reader trace")?,
        written.tr.ok_or("no writer trace")?,
    );
    tr.merge(writer_tr);
    // A traced request is its encode plus its call; that must add up to
    // the latency the open loop measured for the same request from its
    // due time (what is missing is how late the generator fired it).
    let hot_reads = read.reads.iter().filter(|r| !r.query);
    let ratios: Vec<f64> = tr
        .named("call_hot")
        .into_iter()
        .filter_map(|id| tr.spans()[id].parent)
        .zip(hot_reads)
        .map(|(request, read)| tr.critical_us(request) / read.latency_us)
        .collect();
    check_reconciles(&mut o, args, "a traced hot read", median_of(&ratios));
    let traced_hot = read_stats(&read.reads, 0).hot_us.median();
    o.set(
        "trace.overhead_pct",
        (traced_hot / stats.hot_us.median() - 1.0) * 100.0,
    );
    let reread: Vec<f64> = tr
        .named("snapshot_read")
        .into_iter()
        .map(|id| tr.spans()[id].dur_us() / 1e3)
        .collect();
    o.set("session.snapshot_read_ms", median_of(&reread));

    let (rig, _) = shut_down(served, &mut o)?;
    layers::probe(&mut o, &rig.session, &args.out, &rig.fact)?;
    o.set("failed_share", o.failed as f64 / o.attempted.max(1) as f64);
    tr.write_chrome(&args.out.join(format!("trace_{NAME}.json")))?;
    Ok(o)
}
