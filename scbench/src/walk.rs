//! The layer walk of the traced run. Spans may not go inside the engine
//! yet, so the traced run re-executes what a refresh did — following the
//! real run's [`RefreshReport`] node by node: same order, same
//! full/incremental/skipped mode, same memory-vs-disk placement — through
//! the public function of each layer, one span per call, against a
//! *shadow* copy of the catalog that it keeps in step with the real one.
//!
//! `DiskCatalog::read_table` → (`fnv1a64` + `format::decode` re-run on
//! the same bytes and attributed inside the read) → `LogicalPlan::execute`
//! / `execute_delta` over in-memory inputs → `write_table` /
//! `append_table` (with `format::encode` attributed inside the write).
//! Outputs the real run admitted to the Memory Catalog are materialized
//! by a background thread here too, so the walk's critical path carries
//! the same overlap — and the same contention for two cores — and ends
//! in the same drain.

use std::collections::HashMap;
use std::path::Path;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use sc::{RefreshReport, ScSession};
use sc_core::NodeMode;
use sc_engine::controller::{MvDefinition, NodeMetrics};
use sc_engine::exec::{merge_aggregate, AggFunc, TableDelta};
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::storage::format::{self, fnv1a64, parse_retained};
use sc_engine::storage::{DiskCatalog, SIDECAR_FILE};
use sc_engine::Table;

use crate::rig::{us, Res, Scratch, FACT};
use crate::trace::{Lane, Tracer};

pub struct Shadow {
    pub disk: DiskCatalog,
    mvs: Vec<MvDefinition>,
    _dir: Scratch,
}

type Tables = HashMap<String, Arc<Table>>;

/// A write handed to the background materializer: `(MV, output, append?)`.
type BgWrite = (String, Arc<Table>, bool);

impl Shadow {
    /// Copies the live files of `session`'s catalog (no retained files,
    /// no sidecar) into a scratch directory and opens a catalog on them.
    pub fn clone_of(session: &ScSession, out: &Path) -> Res<Shadow> {
        let dir = Scratch::new(out, "shadow")?;
        for entry in std::fs::read_dir(session.disk().dir())? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let live =
                parse_retained(&name).is_none() && !name.ends_with(".tmp") && name != SIDECAR_FILE;
            if live && entry.metadata()?.is_file() {
                std::fs::copy(entry.path(), dir.path().join(&name))?;
            }
        }
        Ok(Shadow {
            disk: DiskCatalog::open(dir.path())?,
            mvs: session.mvs(),
            _dir: dir,
        })
    }

    /// `disk.read_table(name)` as one span, with the checksum and decode
    /// cost of the same stored bytes attributed inside it.
    fn read(&self, tr: &mut Tracer, name: &str) -> Res<Arc<Table>> {
        let table = tr.call("disk", "read_table", || self.disk.read_table(name))?;
        let read = tr.last();
        tr.span("format", "rerun_read", Lane::Rerun, |tr| -> Res<()> {
            let mut offset = 0.0;
            // The manifest comes first; the segments are what gets hashed and decoded.
            for (_, bytes) in self.disk.stored_file_bytes(name)?.into_iter().skip(1) {
                let t = Instant::now();
                std::hint::black_box(fnv1a64(std::hint::black_box(&bytes)));
                let fnv_us = us(t);
                let t = Instant::now();
                std::hint::black_box(format::decode(Bytes::from(bytes))?);
                let decode_us = us(t);
                tr.attribute(read, "format", "fnv1a64", offset, fnv_us);
                tr.attribute(read, "format", "decode", offset + fnv_us, decode_us);
                offset += fnv_us + decode_us;
            }
            Ok(())
        })?;
        Ok(Arc::new(table))
    }

    /// Resolves `names` the way the controller's run source does: the
    /// Memory Catalog stand-in first, storage otherwise.
    fn inputs(&self, tr: &mut Tracer, names: &[String], memory: &Tables) -> Res<Tables> {
        let mut out = Tables::new();
        for name in names {
            let table = match memory.get(name) {
                Some(t) => tr.call("memory", "get", || Arc::clone(t)),
                None => self.read(tr, name)?,
            };
            out.insert(name.clone(), table);
        }
        Ok(out)
    }

    /// A blocking `write_table` / `append_table` as one span, with the
    /// encode of the same table attributed inside it.
    fn write(&self, tr: &mut Tracer, name: &str, table: &Table, append: bool) -> Res<()> {
        tr.call("disk", write_op(append), || {
            self.disk.persist_table(name, table, append)
        })?;
        let written = tr.last();
        tr.span("format", "rerun_encode", Lane::Rerun, |tr| {
            let t = Instant::now();
            std::hint::black_box(format::encode(std::hint::black_box(table)));
            tr.attribute(written, "format", "encode", 0.0, us(t));
        });
        Ok(())
    }

    /// What `ingest_delta` does to storage: read the base, apply, rewrite.
    pub fn ingest(&self, tr: &mut Tracer, delta: &TableDelta) -> Res<()> {
        tr.span("delta", "walk_ingest", Lane::Critical, |tr| -> Res<()> {
            let base = self.read(tr, FACT)?;
            let next = tr.call("exec", "delta_apply", || delta.apply(&base))?;
            self.write(tr, FACT, &next, false)
        })
    }

    /// Re-executes the refresh `report` describes, given the batch that
    /// was pending against the fact table when it ran.
    pub fn refresh(
        &self,
        tr: &mut Tracer,
        report: &RefreshReport,
        pending: &TableDelta,
    ) -> Res<()> {
        tr.span("controller", "walk_refresh", Lane::Critical, |tr| {
            std::thread::scope(|scope| {
                let (tx, rx) = channel::<BgWrite>();
                let materializer = scope.spawn(move || {
                    let mut done = Vec::new();
                    for (name, table, append) in rx {
                        let started = Instant::now();
                        let result = self.disk.persist_table(&name, &table, append);
                        done.push((append, started, Instant::now(), result));
                    }
                    done
                });
                let walked = self.refresh_nodes(tr, report, pending, &tx);
                // The run ends when the last background write has landed.
                let done = tr.call("controller", "drain", || {
                    drop(tx);
                    materializer.join()
                });
                for (append, started, ended, result) in done.map_err(|_| "materializer panicked")? {
                    tr.record("disk", write_op(append), Lane::Background, started, ended);
                    result?;
                }
                walked
            })
        })
    }

    fn refresh_nodes(
        &self,
        tr: &mut Tracer,
        report: &RefreshReport,
        pending: &TableDelta,
        bg: &Sender<BgWrite>,
    ) -> Res<()> {
        let mut memory = Tables::new();
        let mut deltas: HashMap<String, TableDelta> = HashMap::new();
        deltas.insert(FACT.to_string(), pending.clone());
        for node in report.nodes() {
            let mv = self
                .mvs
                .iter()
                .find(|m| m.name == node.name)
                .ok_or("report names an unregistered MV")?;
            match node.mode {
                NodeMode::Skipped => {}
                NodeMode::Full => {
                    let src = self.inputs(tr, &mv.plan.input_tables(), &memory)?;
                    let out = tr.call("exec", "execute", || mv.plan.execute(&src))?;
                    self.place(tr, node, mv, out, &mut memory, bg)?;
                }
                NodeMode::Incremental => {
                    self.incremental(tr, node, mv, &mut memory, &mut deltas, bg)?
                }
            }
        }
        Ok(())
    }

    /// The controller's `execute_incremental`, call by call.
    fn incremental(
        &self,
        tr: &mut Tracer,
        node: &NodeMetrics,
        mv: &MvDefinition,
        memory: &mut Tables,
        deltas: &mut HashMap<String, TableDelta>,
        bg: &Sender<BgWrite>,
    ) -> Res<()> {
        let statics = mv.plan.incremental_support().static_tables().to_vec();
        let src = self.inputs(tr, &statics, memory)?;
        if let LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } = &mv.plan
        {
            let delta_in = tr.call("exec", "execute_delta", || {
                input.execute_delta(deltas, &src)
            })?;
            let current = self.read(tr, &mv.name)?;
            let triples = agg_triples(aggs);
            let out = tr.call("exec", "merge_aggregate", || {
                merge_aggregate(&current, &delta_in, group_by, &triples)
            })?;
            return self.place(tr, node, mv, out, memory, bg);
        }
        let delta_out = tr.call("exec", "execute_delta", || {
            mv.plan.execute_delta(deltas, &src)
        })?;
        if node.appended_bytes > 0 {
            // The append path never reads the stored MV: the delta's
            // insert rows become a new segment.
            let rows = delta_out.insert_rows_table()?;
            if node.flagged && !node.fell_back {
                bg.send((mv.name.clone(), Arc::new(rows), true))?;
            } else {
                self.write(tr, &mv.name, &rows, true)?;
            }
        } else {
            let current = self.read(tr, &mv.name)?;
            let out = tr.call("exec", "delta_apply", || delta_out.apply(&current))?;
            self.place(tr, node, mv, out, memory, bg)?;
        }
        deltas.insert(mv.name.clone(), delta_out);
        Ok(())
    }

    /// Puts a full output where the real run put it: an admitted flagged
    /// node goes to memory and is materialized off the critical path;
    /// anything else is a blocking write.
    fn place(
        &self,
        tr: &mut Tracer,
        node: &NodeMetrics,
        mv: &MvDefinition,
        out: Table,
        memory: &mut Tables,
        bg: &Sender<BgWrite>,
    ) -> Res<()> {
        if node.flagged && !node.fell_back {
            let out = Arc::new(out);
            tr.call("memory", "insert", || {
                memory.insert(mv.name.clone(), Arc::clone(&out))
            });
            Ok(bg.send((mv.name.clone(), out, false))?)
        } else {
            self.write(tr, &mv.name, &out, false)
        }
    }
}

/// The `(function, column, alias)` form the aggregate operators take.
pub fn agg_triples(aggs: &[AggExpr]) -> Vec<(AggFunc, String, String)> {
    aggs.iter()
        .map(|a| (a.func, a.column.clone(), a.alias.clone()))
        .collect()
}

fn write_op(append: bool) -> &'static str {
    if append {
        "append_table"
    } else {
        "write_table"
    }
}
