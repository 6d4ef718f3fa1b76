//! Single-layer probes of the traced run: each times one public function
//! of one layer on the workload's own data, a handful of repetitions,
//! median reported. They say what a layer costs in isolation; the walk
//! (`walk.rs`) says what it costs on the refresh's critical path.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use sc::ScSession;
use sc_engine::exec::{merge_aggregate, TableDelta};
use sc_engine::plan::LogicalPlan;
use sc_engine::storage::format::{self, fnv1a64};
use sc_engine::storage::DiskCatalog;
use sc_engine::Table;
use sc_serve::{decode_request, encode_request, Request};

use crate::dag::reader_query;
use crate::metrics::Outcome;
use crate::rig::{ms, us, Res, Rig, Scratch, FACT, HOT, HUB, MID};
use crate::stats::median_of;
use crate::walk::agg_triples;

const REPS: usize = 5;

/// Median milliseconds of `REPS` runs of `f`.
fn median_ms<T>(mut f: impl FnMut() -> Res<T>) -> Res<f64> {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t = Instant::now();
        std::hint::black_box(f()?);
        times.push(ms(t));
    }
    Ok(median_of(&times))
}

fn mb_per_s(bytes: u64, millis: f64) -> f64 {
    bytes as f64 / 1e6 / (millis / 1e3)
}

fn mrows_per_s(rows: usize, millis: f64) -> f64 {
    rows as f64 / 1e6 / (millis / 1e3)
}

/// Set-up layer metrics of one rig.
pub fn publish_setup(o: &mut Outcome, rig: &Rig) -> Res<()> {
    o.set("workload.generate_s", rig.times.generate_s);
    o.set("workload.load_s", rig.times.load_s);
    o.set("session.profile_refresh_ms", rig.times.profile_refresh_ms);
    // S/C Opt on the metadata of a full run, as the profiling refresh ran it.
    let t = Instant::now();
    let plan = rig.session.optimize_from(&rig.warm.metrics)?;
    o.set("core.optimize_ms", ms(t));
    std::hint::black_box(plan);
    o.set("core.flagged_nodes", rig.warm.plan.flagged.count() as f64);
    Ok(())
}

/// Probes storage, format, operators and the wire codec on `session`'s
/// current tables.
pub fn probe(o: &mut Outcome, session: &ScSession, out: &Path, fact: &Table) -> Res<()> {
    let disk = session.disk();
    let hub = Arc::new(disk.read_table(HUB)?);
    let stored = disk.size_of(HUB)?;
    let segments: Vec<Vec<u8>> = disk
        .stored_file_bytes(HUB)?
        .into_iter()
        .skip(1)
        .map(|(_, bytes)| bytes)
        .collect();
    let segment_bytes: u64 = segments.iter().map(|s| s.len() as u64).sum();

    // storage reads, and what share of one is the checksum
    let read_ms = median_ms(|| Ok(disk.read_table(HUB)?))?;
    o.set("disk.read_table_ms", read_ms);
    o.set("disk.read_mb_s", mb_per_s(stored, read_ms));
    o.set(
        "disk.pin_read_ms",
        median_ms(|| Ok(disk.pin().read_table(HUB)?))?,
    );
    let fnv_ms = median_ms(|| {
        Ok(segments
            .iter()
            .map(|s| fnv1a64(s))
            .fold(0, u64::wrapping_add))
    })?;
    o.set("format.fnv1a64_mb_s", mb_per_s(segment_bytes, fnv_ms));
    o.set("format.checksum_share", fnv_ms / read_ms);
    let decode_ms = median_ms(|| {
        for s in &segments {
            format::decode(Bytes::from(s.clone()))?;
        }
        Ok(())
    })?;
    o.set("format.decode_mb_s", mb_per_s(segment_bytes, decode_ms));

    // storage writes, on a catalog of the probe's own
    let encode_ms = median_ms(|| Ok(format::encode(&hub)))?;
    o.set(
        "format.encode_mb_s",
        mb_per_s(format::encoded_size(&hub), encode_ms),
    );
    let dir = Scratch::new(out, "probe")?;
    let scratch = DiskCatalog::open(dir.path())?;
    let write_ms = median_ms(|| Ok(scratch.write_table("probe", &hub)?))?;
    o.set("disk.write_table_ms", write_ms);
    o.set(
        "disk.write_mb_s",
        mb_per_s(format::encoded_size(&hub), write_ms),
    );
    let batch_rows: Vec<usize> = (0..(fact.num_rows() / 200).max(1)).collect();
    let hub_batch = hub.take_rows(&batch_rows)?;
    o.set(
        "disk.append_table_ms",
        median_ms(|| Ok(scratch.append_table("probe", &hub_batch)?))?,
    );
    let t = Instant::now();
    let compacted = scratch.compact("probe")?;
    o.set("disk.compact_ms", ms(t));
    o.set("disk.compact_bytes", compacted as f64);

    // operator kernels over in-memory inputs
    let mvs = session.mvs();
    let plan_of = |name: &str| -> Res<&LogicalPlan> {
        Ok(&mvs
            .iter()
            .find(|mv| mv.name == name)
            .ok_or("MV not registered")?
            .plan)
    };
    let mut src: HashMap<String, Arc<Table>> = HashMap::new();
    for name in plan_of(HUB)?.input_tables() {
        src.insert(name.clone(), Arc::new(disk.read_table(&name)?));
    }
    src.insert(HUB.into(), Arc::clone(&hub));
    let fact_rows = src[FACT].num_rows();
    let join_ms = median_ms(|| Ok(plan_of(HUB)?.execute(&src)?))?;
    o.set("exec.join_mrows_s", mrows_per_s(fact_rows, join_ms));
    let agg_ms = median_ms(|| Ok(plan_of(HOT)?.execute(&src)?))?;
    o.set(
        "exec.aggregate_mrows_s",
        mrows_per_s(hub.num_rows(), agg_ms),
    );
    let filter_ms = median_ms(|| Ok(plan_of(MID)?.execute(&src)?))?;
    o.set(
        "exec.filter_mrows_s",
        mrows_per_s(hub.num_rows(), filter_ms),
    );
    o.set(
        "exec.scan_clone_ms",
        median_ms(|| Ok(LogicalPlan::scan(HUB).execute(&src)?))?,
    );

    // delta operators on one insert-only batch of the churn stream's size
    let mut deltas = HashMap::new();
    deltas.insert(
        FACT.to_string(),
        TableDelta::insert_only(fact.take_rows(&batch_rows)?),
    );
    o.set(
        "exec.delta_join_ms",
        median_ms(|| Ok(plan_of(HUB)?.execute_delta(&deltas, &src)?))?,
    );
    if let LogicalPlan::Aggregate {
        input,
        group_by,
        aggs,
    } = plan_of(HOT)?
    {
        deltas.insert(HUB.to_string(), plan_of(HUB)?.execute_delta(&deltas, &src)?);
        let delta_in = input.execute_delta(&deltas, &src)?;
        let current = disk.read_table(HOT)?;
        let triples = agg_triples(aggs);
        o.set(
            "exec.merge_aggregate_ms",
            median_ms(|| Ok(merge_aggregate(&current, &delta_in, group_by, &triples)?))?,
        );
    }

    // the wire codec, on the reader's two request shapes
    let requests = [
        Request::ReadTable { table: HOT.into() },
        Request::Query {
            plan: reader_query(),
        },
    ];
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut round_trips = true;
    for _ in 0..1000 {
        for req in &requests {
            let t = Instant::now();
            let bytes = encode_request(std::hint::black_box(req));
            enc.push(us(t));
            let t = Instant::now();
            let back = decode_request(std::hint::black_box(&bytes));
            dec.push(us(t));
            round_trips &= back.as_ref().ok() == Some(req);
        }
    }
    o.check(round_trips, || "request codec does not round-trip".into());
    o.set("protocol.encode_request_us", median_of(&enc));
    o.set("protocol.decode_request_us", median_of(&dec));
    Ok(())
}
