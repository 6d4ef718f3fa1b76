//! Delta relations and the delta-aware operators behind incremental MV
//! maintenance.
//!
//! A [`TableDelta`] describes how a table changed as an ordered sequence of
//! [`DeltaBatch`]es; each batch is a pair of row-sets over the table's
//! schema — rows removed and rows added (an *update* contributes its old
//! version to `deletes` and its new version to `inserts`). Batches apply in
//! order, and within a batch deletions match rows present *before* the
//! batch's inserts, by full-row equality, removing the first occurrence
//! (multiset semantics).
//!
//! The operators here are built so that incremental maintenance is
//! **byte-identical** to full recomputation, not merely multiset-equal:
//!
//! * [`delta_filter`] relies on full-row equality — every occurrence of a
//!   deleted row passes or fails a predicate identically, so removing the
//!   first matching occurrence from the MV removes exactly the row the
//!   base lost;
//! * [`delta_project`] is insert-only (a projection is lossy, so deletes
//!   can no longer be positioned deterministically after it);
//! * [`delta_join`] is insert-only and requires a static build side: probe
//!   appends map to output appends because the hash join streams the probe
//!   in row order, while build-side churn would interleave new pairs into
//!   existing match groups;
//! * [`merge_aggregate`] *resumes* the hash aggregate's left-to-right
//!   accumulator fold from the values stored in the MV, so Sum/Min/Max over
//!   floats reproduce the exact same sequence of operations a full
//!   recomputation would perform (`Avg` cannot be resumed from its stored
//!   quotient and is not mergeable).

use std::borrow::Cow;
use std::sync::Arc;

use super::aggregate::Acc;
use super::keys::{GroupIndex, Keys};
use crate::column::Column;
use crate::exec::{self, AggFunc};
use crate::expr::Expr;
use crate::schema::{Field, Schema};
use crate::table::Table;
use crate::types::{DataType, Value};
use crate::{EngineError, Result};

/// Marker column distinguishing deletes from inserts in the single-table
/// encoding of a delta ([`TableDelta::to_table`]).
pub const DELTA_DEL_COLUMN: &str = "__delta_del";
/// Marker column recording each row's batch index in the single-table
/// encoding of a delta.
pub const DELTA_BATCH_COLUMN: &str = "__delta_batch";

/// One generation of changes: rows removed and rows added, both with the
/// underlying table's schema.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    /// Rows removed (matched by full-row equality, first occurrence).
    pub deletes: Table,
    /// Rows appended (after the batch's deletions).
    pub inserts: Table,
}

impl DeltaBatch {
    /// An insert-only batch.
    pub fn insert_only(inserts: Table) -> Self {
        let deletes = Table::empty(inserts.schema().clone());
        DeltaBatch { deletes, inserts }
    }

    /// Whether the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.deletes.num_rows() == 0 && self.inserts.num_rows() == 0
    }

    /// In-memory footprint of both row-sets.
    pub fn byte_size(&self) -> u64 {
        self.deletes.byte_size() + self.inserts.byte_size()
    }
}

/// An ordered sequence of change batches against one table — the unit the
/// delta log stores and the delta operators consume and produce.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDelta {
    schema: Arc<Schema>,
    batches: Vec<DeltaBatch>,
}

impl TableDelta {
    /// An empty delta over `schema`.
    pub fn empty(schema: Arc<Schema>) -> Self {
        TableDelta {
            schema,
            batches: Vec::new(),
        }
    }

    /// A delta holding one batch.
    pub fn from_batch(batch: DeltaBatch) -> Result<Self> {
        let mut d = TableDelta::empty(batch.inserts.schema().clone());
        d.push_batch(batch)?;
        Ok(d)
    }

    /// An insert-only single-batch delta.
    pub fn insert_only(inserts: Table) -> Self {
        TableDelta::from_batch(DeltaBatch::insert_only(inserts)).expect("schemas match trivially")
    }

    /// The schema every batch conforms to.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The batches in application order.
    pub fn batches(&self) -> &[DeltaBatch] {
        &self.batches
    }

    /// Appends a batch; fails if its schema differs from the delta's.
    pub fn push_batch(&mut self, batch: DeltaBatch) -> Result<()> {
        for t in [&batch.deletes, &batch.inserts] {
            if **t.schema() != *self.schema {
                return Err(EngineError::TypeMismatch {
                    expected: self.schema.to_string(),
                    got: t.schema().to_string(),
                    context: "TableDelta::push_batch".into(),
                });
            }
        }
        if !batch.is_empty() {
            self.batches.push(batch);
        }
        Ok(())
    }

    /// Appends every batch of `other` (log concatenation).
    pub fn extend(&mut self, other: TableDelta) -> Result<()> {
        for b in other.batches {
            self.push_batch(b)?;
        }
        Ok(())
    }

    /// Drops the first `k` batches (used when a consumed log prefix is
    /// retired while later-ingested batches survive).
    pub fn discard_first(&mut self, k: usize) {
        self.batches.drain(..k.min(self.batches.len()));
    }

    /// Whether the delta changes nothing.
    pub fn is_empty(&self) -> bool {
        self.batches.iter().all(DeltaBatch::is_empty)
    }

    /// Whether any batch removes rows.
    pub fn has_deletes(&self) -> bool {
        self.batches.iter().any(|b| b.deletes.num_rows() > 0)
    }

    /// In-memory footprint across batches.
    pub fn byte_size(&self) -> u64 {
        self.batches.iter().map(DeltaBatch::byte_size).sum()
    }

    /// Total inserted rows across batches.
    pub fn insert_rows(&self) -> usize {
        self.batches.iter().map(|b| b.inserts.num_rows()).sum()
    }

    /// Total deleted rows across batches.
    pub fn delete_rows(&self) -> usize {
        self.batches.iter().map(|b| b.deletes.num_rows()).sum()
    }

    /// The delta's inserted rows as one table, in batch order — the
    /// segment an insert-only refresh appends to storage instead of
    /// rewriting the MV. Fails if any batch removes rows (applying a
    /// delete cannot be expressed as an append).
    pub fn insert_rows_table(&self) -> Result<Table> {
        self.inserts().map(Cow::into_owned)
    }

    /// [`TableDelta::insert_rows_table`] without the copy where there is
    /// nothing to concatenate: a one-batch delta lends its inserts.
    pub(crate) fn inserts(&self) -> Result<Cow<'_, Table>> {
        if self.has_deletes() {
            return Err(EngineError::InvalidPlan(
                "a delta with deletes cannot be applied as an append".into(),
            ));
        }
        Ok(match self.batches.as_slice() {
            [] => Cow::Owned(Table::empty(self.schema.clone())),
            [batch] => Cow::Borrowed(&batch.inserts),
            batches => Cow::Owned(Table::concat(
                &batches.iter().map(|b| &b.inserts).collect::<Vec<_>>(),
            )?),
        })
    }

    /// Applies the delta to `table`, batch by batch: each batch first
    /// removes its `deletes` (full-row equality, first occurrence), then
    /// appends its `inserts`. An insert-only delta is one concatenation.
    pub fn apply(&self, table: &Table) -> Result<Table> {
        if !self.has_deletes() {
            let parts: Vec<&Table> = std::iter::once(table)
                .chain(self.batches.iter().map(|b| &b.inserts))
                .collect();
            return Table::concat(&parts);
        }
        let mut current = table.clone();
        for batch in &self.batches {
            current = apply_batch(&current, batch)?;
        }
        Ok(current)
    }

    /// Encodes the delta as one table: the original columns plus a
    /// [`DELTA_BATCH_COLUMN`] (`Int64` batch index) and a
    /// [`DELTA_DEL_COLUMN`] (`Bool`, true for deleted rows). This is how a
    /// node's output delta travels through the Memory Catalog or a spilled
    /// storage file using the existing table machinery.
    pub fn to_table(&self) -> Result<Table> {
        let mut fields: Vec<Field> = self.schema.fields().to_vec();
        fields.push(Field::new(DELTA_BATCH_COLUMN, DataType::Int64));
        fields.push(Field::new(DELTA_DEL_COLUMN, DataType::Bool));
        let schema = Arc::new(Schema::new(fields)?);
        let rows = self.insert_rows() + self.delete_rows();
        let parts: Vec<&Table> = self
            .batches
            .iter()
            .flat_map(|batch| [&batch.deletes, &batch.inserts])
            .collect();
        let mut columns: Vec<Column> = self
            .schema
            .fields()
            .iter()
            .enumerate()
            .map(|(c, f)| {
                let column: Vec<&Column> = parts.iter().map(|t| t.column(c)).collect();
                Column::concat(f.dtype, &column)
            })
            .collect::<Result<_>>()?;
        let mut batch_idx: Vec<i64> = Vec::with_capacity(rows);
        let mut is_del: Vec<bool> = Vec::with_capacity(rows);
        for (i, batch) in self.batches.iter().enumerate() {
            for (part, del) in [(&batch.deletes, true), (&batch.inserts, false)] {
                batch_idx.resize(batch_idx.len() + part.num_rows(), i as i64);
                is_del.resize(is_del.len() + part.num_rows(), del);
            }
        }
        columns.push(Column::Int64(batch_idx));
        columns.push(Column::Bool(is_del));
        Table::new(schema, columns)
    }

    /// Decodes a table produced by [`TableDelta::to_table`].
    pub fn from_table(encoded: &Table) -> Result<TableDelta> {
        let ncols = encoded.num_columns();
        if ncols < 2 {
            return Err(EngineError::InvalidPlan(
                "encoded delta lacks marker columns".into(),
            ));
        }
        let fields = encoded.schema().fields();
        if fields[ncols - 2].name != DELTA_BATCH_COLUMN
            || fields[ncols - 1].name != DELTA_DEL_COLUMN
        {
            return Err(EngineError::InvalidPlan(
                "encoded delta lacks marker columns".into(),
            ));
        }
        let schema = Arc::new(Schema::new(fields[..ncols - 2].to_vec())?);
        let rows = encoded.num_rows();
        // Every batch the encoder wrote is non-empty, so a valid index
        // is below the row count; anything else (including a negative
        // index) is a corrupt encoding, not a reason to preallocate an
        // attacker-chosen number of batches.
        let out_of_range = |v: Value| {
            EngineError::InvalidPlan(format!("encoded delta batch index {v:?} out of range"))
        };
        let batch_idx: &[i64] = match encoded.column(ncols - 2) {
            Column::Int64(v) => v,
            _ if rows == 0 => &[],
            other => return Err(out_of_range(other.value(0))),
        };
        if let Some(&b) = batch_idx.iter().find(|&&b| b < 0 || b as usize >= rows) {
            return Err(out_of_range(Value::Int64(b)));
        }
        let is_del: &[bool] = match encoded.column(ncols - 1) {
            Column::Bool(v) => v,
            _ => &[],
        };
        let n_batches = batch_idx.iter().max().map_or(0, |&b| b as usize + 1);
        // One pass: bucket every row into its batch's delete/insert side,
        // then gather each side's rows column by column.
        let mut sides: Vec<[Vec<usize>; 2]> = vec![[Vec::new(), Vec::new()]; n_batches];
        for (row, &b) in batch_idx.iter().enumerate() {
            let insert = is_del.get(row) != Some(&true);
            sides[b as usize][usize::from(insert)].push(row);
        }
        let part = |rows: &[usize]| {
            let columns = encoded.columns()[..ncols - 2]
                .iter()
                .map(|c| c.take(rows))
                .collect();
            Table::new(schema.clone(), columns)
        };
        let mut delta = TableDelta::empty(schema.clone());
        for [deletes, inserts] in &sides {
            delta.push_batch(DeltaBatch {
                deletes: part(deletes)?,
                inserts: part(inserts)?,
            })?;
        }
        Ok(delta)
    }
}

/// Applies one batch: remove `deletes` by full-row equality (first
/// occurrence each), then append `inserts`.
fn apply_batch(table: &Table, batch: &DeltaBatch) -> Result<Table> {
    let mut current = if batch.deletes.num_rows() > 0 {
        // Budget how many occurrences of each row-value to drop, then walk
        // the table once keeping everything else.
        let sources = [Keys::rows(&batch.deletes)];
        let mut deleted = GroupIndex::default();
        let mut budget: Vec<usize> = Vec::new();
        for g in deleted.intern_all(&sources, 0) {
            if g == budget.len() {
                budget.push(0);
            }
            budget[g] += 1;
        }
        let found = deleted.find_all(&sources, &Keys::rows(table));
        let mut keep = vec![true; table.num_rows()];
        for (k, g) in keep.iter_mut().zip(found) {
            if let Some(left) = budget.get_mut(g).filter(|left| **left > 0) {
                *k = false;
                *left -= 1;
            }
        }
        table.filter_rows(&keep)?
    } else {
        table.clone()
    };
    if batch.inserts.num_rows() > 0 {
        current = Table::concat(&[&current, &batch.inserts])?;
    }
    Ok(current)
}

/// Propagates a delta through a filter: both row-sets of every batch pass
/// through the predicate. Sound for deletes because the rows are full input
/// rows — every occurrence of a deleted row evaluates the predicate
/// identically.
pub fn delta_filter(delta: &TableDelta, predicate: &Expr) -> Result<TableDelta> {
    let mut out: Option<TableDelta> = None;
    for batch in delta.batches() {
        let filtered = DeltaBatch {
            deletes: exec::filter(&batch.deletes, predicate)?,
            inserts: exec::filter(&batch.inserts, predicate)?,
        };
        match &mut out {
            Some(d) => d.push_batch(filtered)?,
            None => out = Some(TableDelta::from_batch(filtered)?),
        }
    }
    match out {
        Some(d) => Ok(d),
        // No batches: derive the output schema by filtering an empty input.
        None => {
            let empty = Table::empty(delta.schema().clone());
            Ok(TableDelta::empty(
                exec::filter(&empty, predicate)?.schema().clone(),
            ))
        }
    }
}

/// Propagates an **insert-only** delta through a projection. A projection
/// is lossy, so deletions can no longer be matched deterministically after
/// it; callers must route deltas with deletes to a full recomputation.
pub fn delta_project(delta: &TableDelta, exprs: &[(Expr, String)]) -> Result<TableDelta> {
    if delta.has_deletes() {
        return Err(EngineError::InvalidPlan(
            "cannot propagate deletions through a projection".into(),
        ));
    }
    let mut out: Option<TableDelta> = None;
    for batch in delta.batches() {
        let projected = DeltaBatch::insert_only(exec::project(&batch.inserts, exprs)?);
        match &mut out {
            Some(d) => d.push_batch(projected)?,
            None => out = Some(TableDelta::from_batch(projected)?),
        }
    }
    match out {
        Some(d) => Ok(d),
        None => {
            let empty = Table::empty(delta.schema().clone());
            Ok(TableDelta::empty(
                exec::project(&empty, exprs)?.schema().clone(),
            ))
        }
    }
}

/// Propagates an **insert-only** probe-side delta through a keyed hash
/// join against a **static** build side — the binary delta-join rule
/// `Δ(L ⋈ R) = ΔL ⋈ R_old  ∪  L_old ⋈ ΔR  ∪  ΔL ⋈ ΔR` specialized to
/// `ΔR = ∅`, where the last two terms vanish and `R_old = R` (the build
/// side's stored table *is* its pre-image because it has not churned).
///
/// This is the join *orientation* that preserves byte-identity with full
/// recomputation: [`hash_join`](exec::hash_join) probes left rows in
/// order, so rows appended to the probe side contribute output rows
/// appended after every existing left row's matches — exactly where
/// [`TableDelta::apply`] puts the propagated inserts. The rule holds for
/// **left outer** joins too: an unmatched appended probe row emits its
/// null-filled row in the same appended position a full recompute would
/// put it, and a static build side means no existing row's matched/
/// unmatched status can flip. A churned build side instead *interleaves*
/// new pairs into existing probe rows' match groups (and under a left
/// join can retroactively replace a null-filled row), which no
/// append-only delta can reproduce; callers route that case (and deltas
/// carrying deletes, whose group removal is ambiguous after the fan-out)
/// to a full recomputation.
pub fn delta_join(
    delta: &TableDelta,
    build: &Table,
    on: &[(String, String)],
    join_type: exec::JoinType,
) -> Result<TableDelta> {
    if delta.has_deletes() {
        return Err(EngineError::InvalidPlan(
            "cannot propagate deletions through a join".into(),
        ));
    }
    let mut out: Option<TableDelta> = None;
    for batch in delta.batches() {
        let joined =
            DeltaBatch::insert_only(exec::hash_join(&batch.inserts, build, on, join_type)?);
        match &mut out {
            Some(d) => d.push_batch(joined)?,
            None => out = Some(TableDelta::from_batch(joined)?),
        }
    }
    match out {
        Some(d) => Ok(d),
        // No batches: derive the output schema by joining an empty probe.
        None => {
            let empty = Table::empty(delta.schema().clone());
            Ok(TableDelta::empty(
                exec::hash_join(&empty, build, on, join_type)?
                    .schema()
                    .clone(),
            ))
        }
    }
}

/// Whether every aggregate in `aggs` can be merged incrementally from its
/// stored output value. `Avg` stores only the quotient, so its running sum
/// and count cannot be recovered.
pub fn aggs_mergeable(aggs: &[(AggFunc, String, String)]) -> bool {
    aggs.iter().all(|(f, _, _)| *f != AggFunc::Avg)
}

/// Merges an **insert-only** input delta into the stored result of a hash
/// aggregation, reproducing [`exec::aggregate`] over the grown input
/// byte-for-byte: existing groups resume their accumulator fold from the
/// stored value (in place, preserving first-seen group order), and groups
/// first seen in the delta are appended in delta order — exactly where a
/// full recomputation would put them.
pub fn merge_aggregate(
    current: &Table,
    delta: &TableDelta,
    group_by: &[String],
    aggs: &[(AggFunc, String, String)],
) -> Result<Table> {
    if delta.has_deletes() {
        return Err(EngineError::InvalidPlan(
            "cannot merge deletions into an aggregate".into(),
        ));
    }
    if !aggs_mergeable(aggs) {
        return Err(EngineError::InvalidPlan(
            "Avg cannot be merged from its stored value".into(),
        ));
    }
    if current.num_columns() != group_by.len() + aggs.len() {
        return Err(EngineError::ArityMismatch {
            expected: group_by.len() + aggs.len(),
            got: current.num_columns(),
        });
    }

    // One accumulator per (aggregate, group): groups of the stored output
    // resume from their stored scalar, groups first seen in the delta
    // start from their first value.
    let nkeys = group_by.len();
    let ins = |b: usize| &delta.batches()[b].inserts;
    let mut sources = vec![Keys::new(
        current.columns()[..nkeys].iter().collect(),
        current.num_rows(),
    )];
    let mut agg_cols: Vec<Vec<&Column>> = Vec::with_capacity(delta.batches().len());
    for b in 0..delta.batches().len() {
        let key_cols = group_by
            .iter()
            .map(|g| ins(b).column_by_name(g))
            .collect::<Result<_>>()?;
        sources.push(Keys::new(key_cols, ins(b).num_rows()));
        agg_cols.push(
            aggs.iter()
                .map(|(_, c, _)| ins(b).column_by_name(c))
                .collect::<Result<_>>()?,
        );
    }
    let mut groups = GroupIndex::with_capacity(current.num_rows());
    let stored_group = groups.intern_all(&sources, 0);
    let stored_groups = groups.len();
    let mut acc: Vec<Acc> = Vec::with_capacity(aggs.len());
    for j in 0..aggs.len() {
        let col = current.column(nkeys + j);
        let mut a = Acc::for_output(col.data_type(), stored_groups);
        a.resume(col, &stored_group)?;
        acc.push(a);
    }

    // Fold the delta inserts, batch by batch, in row order — the same
    // left-to-right order a full recomputation would see after the inserts
    // landed at the end of the input.
    for (b, cols) in agg_cols.iter().enumerate() {
        let ids = groups.intern_all(&sources, b + 1);
        for ((acc, col), (func, _, _)) in acc.iter_mut().zip(cols).zip(aggs) {
            acc.fold(*func, col, &ids)?;
        }
    }

    // Existing groups in stored order (updated in place), then new groups
    // in first-seen delta order, their keys gathered from the batch that
    // first saw them.
    let mut columns: Vec<Column> = current.columns()[..nkeys].to_vec();
    // New groups are numbered in (batch, row) order, so each batch's
    // first sightings are one run.
    for run in groups.first_rows()[stored_groups..].chunk_by(|a, b| a.0 == b.0) {
        let rows: Vec<usize> = run.iter().map(|&(_, row)| row).collect();
        for (dst, key) in columns.iter_mut().zip(sources[run[0].0].columns()) {
            dst.extend(&key.take(&rows))?;
        }
    }
    let order: Vec<usize> = stored_group
        .into_iter()
        .chain(stored_groups..groups.len())
        .collect();
    for (j, acc) in acc.into_iter().enumerate() {
        let dtype = current.schema().fields()[nkeys + j].dtype;
        columns.push(acc.gather(&order).into_column(dtype, "merge_aggregate")?);
    }
    Table::new(current.schema().clone(), columns)
}

/// Merges an **insert-only** input delta into the stored result of a
/// [`exec::distinct`], reproducing a full recomputation over the grown
/// input byte-for-byte: `distinct` keeps each row's *first occurrence* in
/// input order, so every value already present in the stored output stays
/// exactly where it is, and values first seen in the delta are appended in
/// delta order — the same positions a from-scratch dedup of the appended
/// input would assign them. Like [`merge_aggregate`], the merge consumes
/// the input delta without publishing an output delta (a delta row may or
/// may not survive the dedup, so consumers recompute). Deletes are
/// rejected: the stored output holds no multiplicity, so removing one
/// input occurrence cannot decide whether its distinct row survives.
pub fn merge_distinct(current: &Table, delta: &TableDelta) -> Result<Table> {
    if delta.has_deletes() {
        return Err(EngineError::InvalidPlan(
            "cannot merge deletions into a distinct".into(),
        ));
    }
    let mut sources = vec![Keys::rows(current)];
    for batch in delta.batches() {
        let ins = &batch.inserts;
        if **ins.schema() != **current.schema() {
            return Err(EngineError::TypeMismatch {
                expected: current.schema().to_string(),
                got: ins.schema().to_string(),
                context: "merge_distinct".into(),
            });
        }
        sources.push(Keys::rows(ins));
    }
    let mut seen = GroupIndex::with_capacity(current.num_rows());
    seen.intern_all(&sources, 0);
    let stored = seen.len();
    for b in 1..sources.len() {
        seen.intern_all(&sources, b);
    }
    // Rows first seen in the delta, one run per batch, in delta order.
    let mut appended = Vec::new();
    for run in seen.first_rows()[stored..].chunk_by(|a, b| a.0 == b.0) {
        let rows: Vec<usize> = run.iter().map(|&(_, row)| row).collect();
        appended.push(delta.batches()[run[0].0 - 1].inserts.take_rows(&rows)?);
    }
    let parts: Vec<&Table> = std::iter::once(current).chain(&appended).collect();
    Table::concat(&parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn base(rows: &[(i64, f64)]) -> Table {
        let mut t = TableBuilder::new()
            .column("k", DataType::Int64)
            .column("v", DataType::Float64)
            .build();
        for &(k, v) in rows {
            t.push_row(vec![Value::Int64(k), Value::Float64(v)])
                .unwrap();
        }
        t
    }

    #[test]
    fn apply_removes_first_occurrence_and_appends() {
        let t = base(&[(1, 1.0), (2, 2.0), (1, 1.0), (3, 3.0)]);
        let delta = TableDelta::from_batch(DeltaBatch {
            deletes: base(&[(1, 1.0)]),
            inserts: base(&[(9, 9.0)]),
        })
        .unwrap();
        let out = delta.apply(&t).unwrap();
        assert_eq!(out, base(&[(2, 2.0), (1, 1.0), (3, 3.0), (9, 9.0)]));
    }

    #[test]
    fn batches_apply_in_order() {
        let t = base(&[(1, 1.0)]);
        let mut delta = TableDelta::insert_only(base(&[(2, 2.0)]));
        // Second batch deletes the row the first inserted.
        delta
            .push_batch(DeltaBatch {
                deletes: base(&[(2, 2.0)]),
                inserts: base(&[(3, 3.0)]),
            })
            .unwrap();
        let out = delta.apply(&t).unwrap();
        assert_eq!(out, base(&[(1, 1.0), (3, 3.0)]));
        assert_eq!(delta.insert_rows(), 2);
        assert_eq!(delta.delete_rows(), 1);
        assert!(delta.has_deletes());
    }

    #[test]
    fn missing_delete_is_a_no_op() {
        let t = base(&[(1, 1.0)]);
        let delta = TableDelta::from_batch(DeltaBatch {
            deletes: base(&[(7, 7.0)]),
            inserts: Table::empty(t.schema().clone()),
        })
        .unwrap();
        assert_eq!(delta.apply(&t).unwrap(), t);
    }

    #[test]
    fn schema_mismatch_rejected() {
        let other = TableBuilder::new().column("x", DataType::Bool).build();
        let mut delta = TableDelta::empty(base(&[]).schema().clone());
        assert!(delta.push_batch(DeltaBatch::insert_only(other)).is_err());
    }

    #[test]
    fn decoding_rejects_out_of_range_batch_indices() {
        // A hostile/corrupt encoding must not drive the batch-vector
        // preallocation (a huge or negative index once aborted the
        // process with a capacity overflow).
        let delta = TableDelta::insert_only(base(&[(1, 1.0), (2, 2.0)]));
        let encoded = delta.to_table().unwrap();
        for bad in [i64::MAX, i64::MIN, -1, 2] {
            let mut evil = Table::empty(encoded.schema().clone());
            for row in 0..encoded.num_rows() {
                let mut values: Vec<Value> = (0..encoded.num_columns())
                    .map(|c| encoded.value(row, c))
                    .collect();
                let n = values.len();
                values[n - 2] = Value::Int64(bad);
                evil.push_row(values).unwrap();
            }
            let err = TableDelta::from_table(&evil).unwrap_err();
            assert!(
                err.to_string().contains("out of range"),
                "index {bad}: {err}"
            );
        }
    }

    #[test]
    fn table_encoding_roundtrips() {
        let mut delta = TableDelta::from_batch(DeltaBatch {
            deletes: base(&[(1, 1.0)]),
            inserts: base(&[(2, 2.0), (3, 3.0)]),
        })
        .unwrap();
        delta
            .push_batch(DeltaBatch::insert_only(base(&[(4, 4.0)])))
            .unwrap();
        let encoded = delta.to_table().unwrap();
        assert_eq!(encoded.num_rows(), 4);
        let decoded = TableDelta::from_table(&encoded).unwrap();
        assert_eq!(decoded, delta);
        // A plain table is rejected.
        assert!(TableDelta::from_table(&base(&[(1, 1.0)])).is_err());
    }

    #[test]
    fn filter_commutes_with_apply() {
        let pred = Expr::col("v").ge(Expr::lit(2.0f64));
        let t = base(&[(1, 1.0), (2, 2.0), (3, 3.0), (2, 2.0)]);
        let delta = TableDelta::from_batch(DeltaBatch {
            deletes: base(&[(2, 2.0), (1, 1.0)]),
            inserts: base(&[(5, 5.0), (0, 0.5)]),
        })
        .unwrap();
        let full = exec::filter(&delta.apply(&t).unwrap(), &pred).unwrap();
        let mv_old = exec::filter(&t, &pred).unwrap();
        let incremental = delta_filter(&delta, &pred).unwrap().apply(&mv_old).unwrap();
        assert_eq!(full, incremental);
    }

    #[test]
    fn project_insert_only() {
        let exprs = vec![(Expr::col("v").mul(Expr::lit(2.0f64)), "v2".to_string())];
        let delta = TableDelta::insert_only(base(&[(1, 1.5)]));
        let out = delta_project(&delta, &exprs).unwrap();
        assert_eq!(out.insert_rows(), 1);
        assert_eq!(out.batches()[0].inserts.value(0, 0), Value::Float64(3.0));

        let with_del = TableDelta::from_batch(DeltaBatch {
            deletes: base(&[(1, 1.5)]),
            inserts: base(&[]),
        })
        .unwrap();
        assert!(delta_project(&with_del, &exprs).is_err());
    }

    /// Dimension table keyed by `k`.
    fn dim(rows: &[(i64, &str)]) -> Table {
        let mut t = TableBuilder::new()
            .column("dk", DataType::Int64)
            .column("label", DataType::Utf8)
            .build();
        for &(k, s) in rows {
            t.push_row(vec![Value::Int64(k), Value::Utf8(s.into())])
                .unwrap();
        }
        t
    }

    #[test]
    fn delta_join_matches_full_join_bytewise() {
        let on = vec![("k".to_string(), "dk".to_string())];
        let probe = base(&[(1, 1.0), (2, 2.0), (1, 1.5)]);
        let build = dim(&[(1, "a"), (2, "b"), (1, "a2")]); // fan-out on k=1
        let mut delta = TableDelta::insert_only(base(&[(2, 9.0), (3, 3.0)]));
        delta
            .push_batch(DeltaBatch::insert_only(base(&[(1, 7.0)])))
            .unwrap();

        let mv_old = exec::hash_join(&probe, &build, &on, exec::JoinType::Inner).unwrap();
        let out = delta_join(&delta, &build, &on, exec::JoinType::Inner).unwrap();
        let incremental = out.apply(&mv_old).unwrap();
        let full = exec::hash_join(
            &delta.apply(&probe).unwrap(),
            &build,
            &on,
            exec::JoinType::Inner,
        )
        .unwrap();
        assert_eq!(incremental, full);
        // The delta keeps its batch structure (one output batch per input
        // batch) so downstream operators replay it in order.
        assert_eq!(out.batches().len(), 2);
    }

    #[test]
    fn left_delta_join_matches_full_left_join_bytewise() {
        let on = vec![("k".to_string(), "dk".to_string())];
        let probe = base(&[(1, 1.0), (9, 9.0)]); // k=9 has no dimension row
        let build = dim(&[(1, "a"), (2, "b")]);
        // Delta mixes matched, unmatched, and fan-out-free rows.
        let mut delta = TableDelta::insert_only(base(&[(2, 2.0), (7, 7.0)]));
        delta
            .push_batch(DeltaBatch::insert_only(base(&[(1, 1.5)])))
            .unwrap();

        let mv_old = exec::hash_join(&probe, &build, &on, exec::JoinType::Left).unwrap();
        let out = delta_join(&delta, &build, &on, exec::JoinType::Left).unwrap();
        let incremental = out.apply(&mv_old).unwrap();
        let full = exec::hash_join(
            &delta.apply(&probe).unwrap(),
            &build,
            &on,
            exec::JoinType::Left,
        )
        .unwrap();
        assert_eq!(incremental, full);
        // Unmatched delta rows survive with null fills, like the full run.
        assert_eq!(incremental.num_rows(), 5);
    }

    #[test]
    fn merge_distinct_matches_full_distinct_bytewise() {
        let t = base(&[(1, 1.0), (2, 2.0), (1, 1.0)]);
        // Delta repeats stored rows, repeats itself, and adds new rows.
        let mut delta = TableDelta::insert_only(base(&[(2, 2.0), (3, 3.0), (3, 3.0)]));
        delta
            .push_batch(DeltaBatch::insert_only(base(&[(1, 9.0), (3, 3.0)])))
            .unwrap();

        let mv_old = exec::distinct(&t).unwrap();
        let merged = merge_distinct(&mv_old, &delta).unwrap();
        let full = exec::distinct(&delta.apply(&t).unwrap()).unwrap();
        assert_eq!(merged, full);
        assert_eq!(merged.num_rows(), 4); // (1,1) (2,2) (3,3) (1,9)

        // Deletes are rejected: no multiplicity is stored.
        let with_del = TableDelta::from_batch(DeltaBatch {
            deletes: base(&[(1, 1.0)]),
            inserts: base(&[]),
        })
        .unwrap();
        assert!(merge_distinct(&mv_old, &with_del).is_err());
        // Schema drift is rejected, not silently zipped.
        let other = dim(&[(1, "a")]);
        assert!(merge_distinct(&other, &delta).is_err());
    }

    #[test]
    fn delta_join_rejects_deletes_and_derives_empty_schema() {
        let on = vec![("k".to_string(), "dk".to_string())];
        let build = dim(&[(1, "a")]);
        let with_del = TableDelta::from_batch(DeltaBatch {
            deletes: base(&[(1, 1.0)]),
            inserts: base(&[]),
        })
        .unwrap();
        assert!(delta_join(&with_del, &build, &on, exec::JoinType::Inner).is_err());

        let empty = TableDelta::empty(base(&[]).schema().clone());
        let out = delta_join(&empty, &build, &on, exec::JoinType::Inner).unwrap();
        assert!(out.is_empty());
        // Schema is the join's output schema, not the probe's.
        assert_eq!(out.schema().fields().len(), 4);
        assert_eq!(out.schema().fields()[3].name, "label");
    }

    #[test]
    fn merge_matches_full_aggregate_bitwise() {
        let group_by = vec!["k".to_string()];
        let aggs = vec![
            (AggFunc::Sum, "v".to_string(), "s".to_string()),
            (AggFunc::Count, "v".to_string(), "n".to_string()),
            (AggFunc::Min, "v".to_string(), "lo".to_string()),
            (AggFunc::Max, "v".to_string(), "hi".to_string()),
        ];
        let t = base(&[(1, 0.1), (2, 0.2), (1, 0.3)]);
        let mut delta = TableDelta::insert_only(base(&[(2, 0.7), (3, 0.05)]));
        delta
            .push_batch(DeltaBatch::insert_only(base(&[(1, 0.11), (3, 4.0)])))
            .unwrap();

        let mv_old = exec::aggregate(&t, &group_by, &aggs).unwrap();
        let merged = merge_aggregate(&mv_old, &delta, &group_by, &aggs).unwrap();
        let full = exec::aggregate(&delta.apply(&t).unwrap(), &group_by, &aggs).unwrap();
        assert_eq!(merged, full);
    }

    #[test]
    fn merge_rejects_deletes_and_avg() {
        let group_by = vec!["k".to_string()];
        let t = base(&[(1, 1.0)]);
        let sum = vec![(AggFunc::Sum, "v".to_string(), "s".to_string())];
        let mv = exec::aggregate(&t, &group_by, &sum).unwrap();
        let with_del = TableDelta::from_batch(DeltaBatch {
            deletes: base(&[(1, 1.0)]),
            inserts: base(&[]),
        })
        .unwrap();
        assert!(merge_aggregate(&mv, &with_del, &group_by, &sum).is_err());

        let avg = vec![(AggFunc::Avg, "v".to_string(), "m".to_string())];
        let mv_avg = exec::aggregate(&t, &group_by, &avg).unwrap();
        let ins = TableDelta::insert_only(base(&[(1, 2.0)]));
        assert!(merge_aggregate(&mv_avg, &ins, &group_by, &avg).is_err());
        assert!(!aggs_mergeable(&avg));
        assert!(aggs_mergeable(&sum));
    }

    #[test]
    fn global_aggregate_merges() {
        let aggs = vec![(AggFunc::Sum, "v".to_string(), "s".to_string())];
        let t = base(&[(1, 1.0), (2, 2.0)]);
        let mv = exec::aggregate(&t, &[], &aggs).unwrap();
        let delta = TableDelta::insert_only(base(&[(3, 3.5)]));
        let merged = merge_aggregate(&mv, &delta, &[], &aggs).unwrap();
        let full = exec::aggregate(&delta.apply(&t).unwrap(), &[], &aggs).unwrap();
        assert_eq!(merged, full);
    }

    #[test]
    fn integer_merges_cross_2_pow_53_exactly() {
        // Key 1's sum starts just below 2^53 and key 2's just above; the
        // delta adds amounts whose results an f64 cannot hold, and key 3
        // opens above 2^53 in the delta itself.
        let big = 1i64 << 53;
        let ints = |rows: &[(i64, i64)]| {
            let mut t = TableBuilder::new()
                .column("k", DataType::Int64)
                .column("v", DataType::Int64)
                .build();
            for &(k, v) in rows {
                t.push_row(vec![Value::Int64(k), Value::Int64(v)]).unwrap();
            }
            t
        };
        let aggs: Vec<(AggFunc, String, String)> = [AggFunc::Sum, AggFunc::Max, AggFunc::Count]
            .into_iter()
            .map(|f| (f, "v".to_string(), format!("{f:?}")))
            .collect();
        let t = ints(&[(1, big - 1), (2, big + 1)]);
        let mv = exec::aggregate(&t, &["k".into()], &aggs).unwrap();
        let mut delta = TableDelta::insert_only(ints(&[(1, 2), (2, 2), (3, big + 3)]));
        delta
            .push_batch(DeltaBatch::insert_only(ints(&[(1, 1), (3, 2)])))
            .unwrap();
        let merged = merge_aggregate(&mv, &delta, &["k".into()], &aggs).unwrap();
        let full = exec::aggregate(&delta.apply(&t).unwrap(), &["k".into()], &aggs).unwrap();
        assert_eq!(merged, full);
        let sums: Vec<Value> = (0..3).map(|r| merged.value(r, 1)).collect();
        assert_eq!(sums, [big + 2, big + 3, big + 5].map(Value::Int64).to_vec());
        assert_eq!(merged.value(2, 2), Value::Int64(big + 3));

        // A merged sum past i64 is an error, as it is in full.
        let overflow = TableDelta::insert_only(ints(&[(2, i64::MAX)]));
        for r in [
            merge_aggregate(&mv, &overflow, &["k".into()], &aggs),
            exec::aggregate(&overflow.apply(&t).unwrap(), &["k".into()], &aggs),
        ] {
            assert!(matches!(r, Err(EngineError::Arithmetic(_))), "{r:?}");
        }
    }
}
