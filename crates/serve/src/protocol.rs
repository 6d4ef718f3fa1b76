//! The length-prefixed binary wire protocol.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by the payload, whose first byte is an opcode. Table payloads
//! reuse the engine's SCTB columnar encoding
//! ([`sc_engine::storage::format`]) verbatim — a served table is the same
//! bytes the storage tier writes — and large tables are split into
//! [`CHUNK_SIZE`] chunks so one request never pins a huge contiguous
//! write, while *all* chunks of one response come from a single snapshot
//! pin (epoch consistency).
//!
//! Decoding is fully bounds-checked: no slice indexing, no length-driven
//! preallocation beyond the already-received payload, a recursion cap on
//! plan/expression trees. A malformed payload is a typed
//! [`WireError::malformed`] — never a panic.

use sc_engine::exec::TableDelta;
use sc_engine::exec::{AggFunc, SortKey};
use sc_engine::expr::{BinOp, Expr};
use sc_engine::plan::{AggExpr, JoinType, LogicalPlan};
use sc_engine::storage::format;
use sc_engine::{Table, Value};

use crate::error::{ErrorCode, WireError};

/// Frames larger than this are rejected before allocation: the length
/// prefix alone triggers a typed error (server) or
/// [`crate::ServeError::Protocol`] (client).
pub const MAX_FRAME: u32 = 64 << 20;

/// Table responses are split into chunks of at most this many bytes.
pub const CHUNK_SIZE: usize = 256 << 10;

/// Plan / expression trees deeper than this are rejected while decoding
/// (stack-overflow guard against adversarial nesting).
pub const MAX_DEPTH: u32 = 64;

/// Table and column names longer than this are rejected.
pub const MAX_NAME: usize = 4 << 10;

// Request opcodes.
pub(crate) const OP_READ_TABLE: u8 = 0x01;
pub(crate) const OP_QUERY: u8 = 0x02;
pub(crate) const OP_INGEST: u8 = 0x03;
pub(crate) const OP_REFRESH: u8 = 0x04;
pub(crate) const OP_STATS: u8 = 0x05;

// Response opcodes.
pub(crate) const OP_TABLE_HEADER: u8 = 0x81;
pub(crate) const OP_TABLE_CHUNK: u8 = 0x82;
pub(crate) const OP_INGESTED: u8 = 0x83;
pub(crate) const OP_REFRESHED: u8 = 0x84;
pub(crate) const OP_STATS_REPLY: u8 = 0x85;
pub(crate) const OP_ERROR: u8 = 0xEE;

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Read a stored table at the serving snapshot's epoch.
    ReadTable {
        /// Table name.
        table: String,
    },
    /// Execute an ad-hoc plan, all scans resolving at one epoch.
    Query {
        /// The plan.
        plan: LogicalPlan,
    },
    /// Append a delta to a base table's ingest log.
    Ingest {
        /// Target base table.
        table: String,
        /// The delta (batches preserved).
        delta: TableDelta,
    },
    /// Run one managed refresh.
    Refresh,
    /// Server + snapshot statistics.
    Stats,
}

/// The result of one managed refresh, as reported over the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshSummary {
    /// Whether the run (re)profiled the workload.
    pub profiled: bool,
    /// Number of MV nodes the run covered.
    pub nodes: u32,
    /// End-to-end wall time, seconds.
    pub total_s: f64,
}

// ---------------------------------------------------------------------
// Bounds-checked reader / writer over frame payloads.
// ---------------------------------------------------------------------

/// Result alias for payload decoding.
pub(crate) type DecodeResult<T> = std::result::Result<T, WireError>;

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| WireError::malformed("truncated payload"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub(crate) fn i32(&mut self) -> DecodeResult<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Length-prefixed UTF-8 string, length capped at `cap`.
    pub(crate) fn string(&mut self, cap: usize) -> DecodeResult<String> {
        let len = self.u32()? as usize;
        if len > cap {
            return Err(WireError::malformed(format!(
                "string length {len} exceeds cap {cap}"
            )));
        }
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| WireError::malformed("string is not valid UTF-8"))
    }

    /// Remaining undecoded bytes.
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    /// Fails unless the payload was fully consumed (trailing garbage is
    /// as malformed as a truncation).
    pub(crate) fn finish(&self) -> DecodeResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::malformed(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            )))
        }
    }
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------
// Value / expression / plan codec.
// ---------------------------------------------------------------------

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Int64(x) => {
            out.push(0);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float64(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Utf8(s) => {
            out.push(2);
            put_string(out, s);
        }
        Value::Bool(b) => {
            out.push(3);
            out.push(*b as u8);
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.to_le_bytes());
        }
    }
}

fn read_value(r: &mut Reader<'_>) -> DecodeResult<Value> {
    Ok(match r.u8()? {
        0 => Value::Int64(r.i64()?),
        1 => Value::Float64(r.f64()?),
        2 => Value::Utf8(r.string(MAX_FRAME as usize)?),
        3 => Value::Bool(match r.u8()? {
            0 => false,
            1 => true,
            b => return Err(WireError::malformed(format!("bool byte {b}"))),
        }),
        4 => Value::Date(r.i32()?),
        t => return Err(WireError::malformed(format!("value tag {t}"))),
    })
}

fn put_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Column(name) => {
            out.push(1);
            put_string(out, name);
        }
        Expr::Literal(v) => {
            out.push(2);
            put_value(out, v);
        }
        Expr::Binary { left, op, right } => {
            out.push(3);
            out.push(binop_tag(*op));
            put_expr(out, left);
            put_expr(out, right);
        }
    }
}

fn binop_tag(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Eq => 4,
        BinOp::Ne => 5,
        BinOp::Lt => 6,
        BinOp::Le => 7,
        BinOp::Gt => 8,
        BinOp::Ge => 9,
        BinOp::And => 10,
        BinOp::Or => 11,
    }
}

fn read_binop(b: u8) -> DecodeResult<BinOp> {
    Ok(match b {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Eq,
        5 => BinOp::Ne,
        6 => BinOp::Lt,
        7 => BinOp::Le,
        8 => BinOp::Gt,
        9 => BinOp::Ge,
        10 => BinOp::And,
        11 => BinOp::Or,
        t => return Err(WireError::malformed(format!("binop tag {t}"))),
    })
}

fn read_expr(r: &mut Reader<'_>, depth: u32) -> DecodeResult<Expr> {
    if depth > MAX_DEPTH {
        return Err(WireError::malformed("expression tree too deep"));
    }
    Ok(match r.u8()? {
        1 => Expr::Column(r.string(MAX_NAME)?),
        2 => Expr::Literal(read_value(r)?),
        3 => {
            let op = read_binop(r.u8()?)?;
            let left = Box::new(read_expr(r, depth + 1)?);
            let right = Box::new(read_expr(r, depth + 1)?);
            Expr::Binary { left, op, right }
        }
        t => return Err(WireError::malformed(format!("expr tag {t}"))),
    })
}

fn put_sort_keys(out: &mut Vec<u8>, keys: &[SortKey]) {
    put_u32(out, keys.len() as u32);
    for k in keys {
        put_string(out, &k.column);
        out.push(k.descending as u8);
    }
}

fn read_sort_keys(r: &mut Reader<'_>) -> DecodeResult<Vec<SortKey>> {
    let n = r.u32()? as usize;
    let mut keys = Vec::new();
    for _ in 0..n {
        let column = r.string(MAX_NAME)?;
        let descending = r.u8()? != 0;
        keys.push(SortKey { column, descending });
    }
    Ok(keys)
}

/// Encodes a plan into `out` (recursive, pre-order).
pub(crate) fn put_plan(out: &mut Vec<u8>, plan: &LogicalPlan) {
    match plan {
        LogicalPlan::Scan { table } => {
            out.push(1);
            put_string(out, table);
        }
        LogicalPlan::Filter { input, predicate } => {
            out.push(2);
            put_expr(out, predicate);
            put_plan(out, input);
        }
        LogicalPlan::Project { input, exprs } => {
            out.push(3);
            put_u32(out, exprs.len() as u32);
            for (e, name) in exprs {
                put_expr(out, e);
                put_string(out, name);
            }
            put_plan(out, input);
        }
        LogicalPlan::Join {
            left,
            right,
            on,
            join_type,
        } => {
            out.push(4);
            out.push(match join_type {
                JoinType::Inner => 0,
                JoinType::Left => 1,
            });
            put_u32(out, on.len() as u32);
            for (l, r) in on {
                put_string(out, l);
                put_string(out, r);
            }
            put_plan(out, left);
            put_plan(out, right);
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            out.push(5);
            put_u32(out, group_by.len() as u32);
            for g in group_by {
                put_string(out, g);
            }
            put_u32(out, aggs.len() as u32);
            for a in aggs {
                out.push(match a.func {
                    AggFunc::Count => 0,
                    AggFunc::Sum => 1,
                    AggFunc::Min => 2,
                    AggFunc::Max => 3,
                    AggFunc::Avg => 4,
                });
                put_string(out, &a.column);
                put_string(out, &a.alias);
            }
            put_plan(out, input);
        }
        LogicalPlan::Distinct { input } => {
            out.push(6);
            put_plan(out, input);
        }
        LogicalPlan::Sort { input, keys } => {
            out.push(7);
            put_sort_keys(out, keys);
            put_plan(out, input);
        }
        LogicalPlan::TopK { input, keys, n } => {
            out.push(8);
            put_sort_keys(out, keys);
            put_u64(out, *n as u64);
            put_plan(out, input);
        }
        LogicalPlan::Limit { input, n } => {
            out.push(9);
            put_u64(out, *n as u64);
            put_plan(out, input);
        }
        LogicalPlan::Union { left, right } => {
            out.push(10);
            put_plan(out, left);
            put_plan(out, right);
        }
    }
}

/// Decodes a plan (recursive, depth-capped).
pub(crate) fn read_plan(r: &mut Reader<'_>, depth: u32) -> DecodeResult<LogicalPlan> {
    if depth > MAX_DEPTH {
        return Err(WireError::malformed("plan tree too deep"));
    }
    Ok(match r.u8()? {
        1 => LogicalPlan::Scan {
            table: r.string(MAX_NAME)?,
        },
        2 => {
            let predicate = read_expr(r, 0)?;
            let input = Box::new(read_plan(r, depth + 1)?);
            LogicalPlan::Filter { input, predicate }
        }
        3 => {
            let n = r.u32()? as usize;
            let mut exprs = Vec::new();
            for _ in 0..n {
                let e = read_expr(r, 0)?;
                let name = r.string(MAX_NAME)?;
                exprs.push((e, name));
            }
            let input = Box::new(read_plan(r, depth + 1)?);
            LogicalPlan::Project { input, exprs }
        }
        4 => {
            let join_type = match r.u8()? {
                0 => JoinType::Inner,
                1 => JoinType::Left,
                t => return Err(WireError::malformed(format!("join type {t}"))),
            };
            let n = r.u32()? as usize;
            let mut on = Vec::new();
            for _ in 0..n {
                let l = r.string(MAX_NAME)?;
                let rk = r.string(MAX_NAME)?;
                on.push((l, rk));
            }
            let left = Box::new(read_plan(r, depth + 1)?);
            let right = Box::new(read_plan(r, depth + 1)?);
            LogicalPlan::Join {
                left,
                right,
                on,
                join_type,
            }
        }
        5 => {
            let ng = r.u32()? as usize;
            let mut group_by = Vec::new();
            for _ in 0..ng {
                group_by.push(r.string(MAX_NAME)?);
            }
            let na = r.u32()? as usize;
            let mut aggs = Vec::new();
            for _ in 0..na {
                let func = match r.u8()? {
                    0 => AggFunc::Count,
                    1 => AggFunc::Sum,
                    2 => AggFunc::Min,
                    3 => AggFunc::Max,
                    4 => AggFunc::Avg,
                    t => return Err(WireError::malformed(format!("agg func {t}"))),
                };
                let column = r.string(MAX_NAME)?;
                let alias = r.string(MAX_NAME)?;
                aggs.push(AggExpr {
                    func,
                    column,
                    alias,
                });
            }
            let input = Box::new(read_plan(r, depth + 1)?);
            LogicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            }
        }
        6 => LogicalPlan::Distinct {
            input: Box::new(read_plan(r, depth + 1)?),
        },
        7 => {
            let keys = read_sort_keys(r)?;
            let input = Box::new(read_plan(r, depth + 1)?);
            LogicalPlan::Sort { input, keys }
        }
        8 => {
            let keys = read_sort_keys(r)?;
            let n = r.u64()? as usize;
            let input = Box::new(read_plan(r, depth + 1)?);
            LogicalPlan::TopK { input, keys, n }
        }
        9 => {
            let n = r.u64()? as usize;
            let input = Box::new(read_plan(r, depth + 1)?);
            LogicalPlan::Limit { input, n }
        }
        10 => {
            let left = Box::new(read_plan(r, depth + 1)?);
            let right = Box::new(read_plan(r, depth + 1)?);
            LogicalPlan::Union { left, right }
        }
        t => return Err(WireError::malformed(format!("plan tag {t}"))),
    })
}

// ---------------------------------------------------------------------
// Request codec.
// ---------------------------------------------------------------------

/// Encodes a request into one frame payload (opcode + body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::ReadTable { table } => {
            out.push(OP_READ_TABLE);
            put_string(&mut out, table);
        }
        Request::Query { plan } => {
            out.push(OP_QUERY);
            put_plan(&mut out, plan);
        }
        Request::Ingest { table, delta } => {
            out.push(OP_INGEST);
            put_string(&mut out, table);
            // The delta rides as the SCTB encoding of its marker-column
            // table form — the same bytes a spilled delta writes to disk.
            let encoded = delta
                .to_table()
                .expect("TableDelta::to_table is infallible for well-formed deltas");
            out.extend_from_slice(&format::encode(&encoded));
        }
        Request::Refresh => out.push(OP_REFRESH),
        Request::Stats => out.push(OP_STATS),
    }
    out
}

/// Decodes a request frame payload. Every failure is a typed
/// [`WireError`] with [`ErrorCode::Malformed`].
pub fn decode_request(payload: &[u8]) -> DecodeResult<Request> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        OP_READ_TABLE => Request::ReadTable {
            table: r.string(MAX_NAME)?,
        },
        OP_QUERY => Request::Query {
            plan: read_plan(&mut r, 0)?,
        },
        OP_INGEST => {
            let table = r.string(MAX_NAME)?;
            let raw = r.rest().to_vec();
            let decoded = format::decode(bytes::Bytes::from(raw))
                .map_err(|e| WireError::malformed(format!("delta table: {e}")))?;
            let delta = TableDelta::from_table(&decoded)
                .map_err(|e| WireError::malformed(format!("delta markers: {e}")))?;
            Request::Ingest { table, delta }
        }
        OP_REFRESH => Request::Refresh,
        OP_STATS => Request::Stats,
        op => return Err(WireError::malformed(format!("request opcode {op:#04x}"))),
    };
    r.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Response payload builders (server side).
// ---------------------------------------------------------------------

/// Splits an SCTB table encoding into response frames: one header
/// (epoch + chunk count + total bytes) followed by the chunks in order.
pub(crate) fn table_response_frames(epoch: u64, sctb: &[u8]) -> Vec<Vec<u8>> {
    let chunks: Vec<&[u8]> = if sctb.is_empty() {
        Vec::new()
    } else {
        sctb.chunks(CHUNK_SIZE).collect()
    };
    let mut frames = Vec::with_capacity(chunks.len() + 1);
    let mut header = vec![OP_TABLE_HEADER];
    put_u64(&mut header, epoch);
    put_u32(&mut header, chunks.len() as u32);
    put_u64(&mut header, sctb.len() as u64);
    frames.push(header);
    for (i, c) in chunks.iter().enumerate() {
        let mut f = Vec::with_capacity(c.len() + 5);
        f.push(OP_TABLE_CHUNK);
        put_u32(&mut f, i as u32);
        f.extend_from_slice(c);
        frames.push(f);
    }
    frames
}

pub(crate) fn ingested_frame(rows: u64) -> Vec<u8> {
    let mut f = vec![OP_INGESTED];
    put_u64(&mut f, rows);
    f
}

pub(crate) fn refreshed_frame(s: &RefreshSummary) -> Vec<u8> {
    let mut f = vec![OP_REFRESHED];
    f.push(s.profiled as u8);
    put_u32(&mut f, s.nodes);
    f.extend_from_slice(&s.total_s.to_le_bytes());
    f
}

pub(crate) fn error_frame(err: &WireError) -> Vec<u8> {
    let mut f = vec![OP_ERROR];
    f.push(err.code as u8);
    put_string(&mut f, &err.kind);
    put_string(&mut f, &err.message);
    f
}

pub(crate) fn read_error_body(r: &mut Reader<'_>) -> DecodeResult<WireError> {
    let code =
        ErrorCode::from_u8(r.u8()?).ok_or_else(|| WireError::malformed("unknown error code"))?;
    let kind = r.string(MAX_NAME)?;
    let message = r.string(MAX_FRAME as usize)?;
    Ok(WireError {
        code,
        kind,
        message,
    })
}

/// Decodes a table from concatenated chunk bytes.
pub(crate) fn decode_table_bytes(sctb: Vec<u8>) -> DecodeResult<Table> {
    format::decode(bytes::Bytes::from(sctb))
        .map_err(|e| WireError::malformed(format!("table payload: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_engine::{DataType, TableBuilder};

    fn sample_plan() -> LogicalPlan {
        let agg = LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Join {
                left: Box::new(LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Scan {
                        table: "store_sales".into(),
                    }),
                    predicate: Expr::col("qty").ge(Expr::lit(2i64)).and(
                        Expr::col("price")
                            .mul(Expr::lit(1.1f64))
                            .lt(Expr::lit(900.0f64)),
                    ),
                }),
                right: Box::new(LogicalPlan::Scan {
                    table: "item".into(),
                }),
                on: vec![("item_sk".into(), "item_sk".into())],
                join_type: JoinType::Left,
            }),
            group_by: vec!["category".into()],
            aggs: vec![
                AggExpr::new(AggFunc::Sum, "price", "revenue"),
                AggExpr::new(AggFunc::Count, "price", "n"),
                AggExpr::new(AggFunc::Avg, "price", "avg_price"),
            ],
        };
        LogicalPlan::TopK {
            input: Box::new(LogicalPlan::Union {
                left: Box::new(LogicalPlan::Distinct {
                    input: Box::new(agg.clone()),
                }),
                right: Box::new(agg),
            }),
            keys: vec![SortKey::desc("revenue"), SortKey::asc("category")],
            n: 7,
        }
    }

    #[test]
    fn request_roundtrip_all_variants() {
        let mut t = TableBuilder::new()
            .column("k", DataType::Int64)
            .column("s", DataType::Utf8)
            .build();
        t.push_row(vec![Value::Int64(1), Value::Utf8("a".into())])
            .unwrap();
        let delta = TableDelta::insert_only(t);
        let cases = vec![
            Request::ReadTable {
                table: "rev_by_category".into(),
            },
            Request::Query {
                plan: sample_plan(),
            },
            Request::Ingest {
                table: "store_sales".into(),
                delta,
            },
            Request::Refresh,
            Request::Stats,
        ];
        for req in cases {
            let payload = encode_request(&req);
            let back = decode_request(&payload).expect("roundtrip");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_are_malformed() {
        let payload = encode_request(&Request::Query {
            plan: sample_plan(),
        });
        for cut in [0, 1, 2, payload.len() / 2, payload.len() - 1] {
            let err = decode_request(&payload[..cut]).unwrap_err();
            assert_eq!(err.code, ErrorCode::Malformed, "cut at {cut}");
        }
        let mut extended = payload.clone();
        extended.push(0);
        assert_eq!(
            decode_request(&extended).unwrap_err().code,
            ErrorCode::Malformed
        );
    }

    #[test]
    fn depth_bomb_is_rejected_not_overflowed() {
        // 10_000 nested Distinct tags: tag-6 bytes then an inner scan.
        let mut payload = vec![OP_QUERY];
        payload.extend(vec![6u8; 10_000]);
        payload.push(1);
        put_string(&mut payload, "t");
        let err = decode_request(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);
        assert!(err.message.contains("deep"));
    }

    #[test]
    fn forged_ingest_row_count_is_malformed_not_an_abort() {
        // A 28-byte SCTB delta claiming 2^40 rows of one Utf8 column with
        // an empty payload: decoding must reject the count before
        // reserving anything for it.
        let mut sctb = b"SCTB".to_vec();
        sctb.extend_from_slice(&1u16.to_le_bytes());
        sctb.extend_from_slice(&1u16.to_le_bytes());
        sctb.extend_from_slice(&(1u64 << 40).to_le_bytes());
        sctb.extend_from_slice(&1u16.to_le_bytes());
        sctb.push(b's');
        sctb.push(2); // Utf8
        sctb.extend_from_slice(&0u64.to_le_bytes());
        let mut payload = vec![OP_INGEST];
        put_string(&mut payload, "store_sales");
        payload.extend_from_slice(&sctb);
        let err = decode_request(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);
        assert!(err.message.contains("delta table"), "{}", err.message);
    }

    #[test]
    fn huge_declared_string_does_not_allocate() {
        let mut payload = vec![OP_READ_TABLE];
        put_u32(&mut payload, u32::MAX);
        let err = decode_request(&payload).unwrap_err();
        assert_eq!(err.code, ErrorCode::Malformed);
    }

    #[test]
    fn table_frames_roundtrip_and_chunk() {
        let mut t = TableBuilder::new().column("x", DataType::Int64).build();
        for i in 0..100_000i64 {
            t.push_row(vec![Value::Int64(i)]).unwrap();
        }
        let sctb = format::encode(&t).to_vec();
        assert!(sctb.len() > CHUNK_SIZE, "test table must span chunks");
        let frames = table_response_frames(42, &sctb);
        assert!(frames.len() > 2);
        // Reassemble like the client does.
        let mut r = Reader::new(&frames[0][1..]);
        let epoch = r.u64().unwrap();
        let nchunks = r.u32().unwrap() as usize;
        let total = r.u64().unwrap() as usize;
        assert_eq!(epoch, 42);
        assert_eq!(nchunks, frames.len() - 1);
        assert_eq!(total, sctb.len());
        let mut bytes = Vec::new();
        for (i, f) in frames[1..].iter().enumerate() {
            assert_eq!(f[0], OP_TABLE_CHUNK);
            let mut r = Reader::new(&f[1..]);
            assert_eq!(r.u32().unwrap() as usize, i);
            bytes.extend_from_slice(r.rest());
        }
        assert_eq!(bytes, sctb);
        let back = decode_table_bytes(bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn error_frame_roundtrip() {
        let err = WireError {
            code: ErrorCode::Engine,
            kind: "unknown_table".into(),
            message: "unknown table 'zzz'".into(),
        };
        let frame = error_frame(&err);
        assert_eq!(frame[0], OP_ERROR);
        let mut r = Reader::new(&frame[1..]);
        assert_eq!(read_error_body(&mut r).unwrap(), err);
        r.finish().unwrap();
    }
}
