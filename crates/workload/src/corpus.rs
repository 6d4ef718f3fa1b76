//! The **scenario corpus**: a reviewable, file-based `.scn` format that
//! describes a complete differential test case — base tables, the MV DAG,
//! a churn schedule, the engine/sim configuration, and the expected
//! per-node refresh decisions — parsed into the same [`ScenarioSpec`]
//! every other consumer of the crate uses.
//!
//! Scenario construction used to live in Rust test code, which meant the
//! set of shapes under differential test only grew when someone wrote a
//! new test. The corpus flips that: adding coverage is writing a short
//! text file under `tests/corpus/`, and one sweep runner
//! (`tests/corpus_sweep.rs`) pushes every file through the full
//! differential battery. See `docs/CORPUS.md` for the format reference.
//!
//! Parsing is strict and the errors are typed ([`ScenarioError`]): a
//! malformed line, a duplicate MV, a dangling table/MV reference, or a
//! cyclic DAG each carry the offending file and line, so a broken corpus
//! file fails with a pointer into the text rather than a panic deep in
//! the engine.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::path::Path;

use sc_core::{ModeReason, NodeMode, RefreshMode};
use sc_engine::controller::MvDefinition;
use sc_engine::exec::{AggFunc, SortKey};
use sc_engine::plan::{AggExpr, LogicalPlan};
use sc_engine::{expr::Expr, DataType, Value};

use crate::scenario::{ChurnRound, InlineTable, ScenarioSpec, TableSpec};
use crate::tpch_shaped::TpchSpec;
use crate::updates::UpdateStreamSpec;

/// Typed scenario-corpus errors. Every parse-time variant carries the
/// offending file and (1-based) line so corpus failures point into the
/// text that caused them.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A line the grammar does not accept (with a human-readable reason).
    Parse {
        /// Corpus file.
        file: String,
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
    /// Two `mv` declarations share a name.
    DuplicateMv {
        /// Corpus file.
        file: String,
        /// Line of the *second* declaration.
        line: usize,
        /// The duplicated MV name.
        mv: String,
    },
    /// A construct references a table or MV that the scenario never
    /// declares.
    DanglingReference {
        /// Corpus file.
        file: String,
        /// Line of the referring construct.
        line: usize,
        /// What was referring (an MV name, `churn`, or `expect`).
        referrer: String,
        /// The name that does not resolve.
        target: String,
    },
    /// The MV declarations form a reference cycle, so no registration
    /// order exists.
    CyclicDag {
        /// Corpus file.
        file: String,
        /// Line of an MV on the cycle.
        line: usize,
        /// An MV on the cycle.
        mv: String,
    },
    /// An observation sidecar names an MV the scenario does not declare —
    /// the sidecar belongs to a different (or older) workload and must
    /// not silently annotate this one.
    StaleObservation {
        /// The scenario being mirrored.
        scenario: String,
        /// The unknown MV name found in the sidecar.
        mv: String,
    },
    /// A corpus file could not be read.
    Io {
        /// Path we tried to read.
        file: String,
        /// The underlying error, stringified.
        message: String,
    },
    /// An error from the DAG layer while mirroring a scenario into a
    /// simulator workload.
    Dag(sc_dag::DagError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse {
                file,
                line,
                message,
            } => write!(f, "{file}:{line}: {message}"),
            ScenarioError::DuplicateMv { file, line, mv } => {
                write!(f, "{file}:{line}: duplicate mv '{mv}'")
            }
            ScenarioError::DanglingReference {
                file,
                line,
                referrer,
                target,
            } => write!(
                f,
                "{file}:{line}: {referrer} references '{target}', which is not a declared table or earlier mv"
            ),
            ScenarioError::CyclicDag { file, line, mv } => {
                write!(f, "{file}:{line}: mv '{mv}' is part of a reference cycle")
            }
            ScenarioError::StaleObservation { scenario, mv } => write!(
                f,
                "observation sidecar names mv '{mv}', which scenario '{scenario}' does not declare (stale or foreign sidecar)"
            ),
            ScenarioError::Io { file, message } => write!(f, "{file}: {message}"),
            ScenarioError::Dag(e) => write!(f, "dag error while mirroring: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<sc_dag::DagError> for ScenarioError {
    fn from(e: sc_dag::DagError) -> Self {
        ScenarioError::Dag(e)
    }
}

/// One `expect` line: the refresh decision a corpus case pins for an MV.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// The MV whose decision is pinned.
    pub mv: String,
    /// Expected mode after all churn rounds are ingested.
    pub mode: NodeMode,
    /// Expected provenance (`None` pins only the mode).
    pub reason: Option<ModeReason>,
    /// 1-based corpus line (for failure messages).
    pub line: usize,
}

/// A parsed corpus case: the scenario plus its pinned expectations.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Corpus file the case was parsed from.
    pub file: String,
    /// The scenario, ready for [`ScenarioSpec::open`] / the simulator.
    pub spec: ScenarioSpec,
    /// Pinned per-MV refresh decisions (possibly empty).
    pub expectations: Vec<Expectation>,
}

/// Parses one `.scn` file.
pub fn load(path: impl AsRef<Path>) -> Result<CorpusCase, ScenarioError> {
    let path = path.as_ref();
    let file = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let text = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
        file: path.display().to_string(),
        message: e.to_string(),
    })?;
    parse_str(&text, &file)
}

/// Loads every `*.scn` file in `dir`, sorted by file name.
pub fn load_dir(dir: impl AsRef<Path>) -> Result<Vec<CorpusCase>, ScenarioError> {
    let dir = dir.as_ref();
    let entries = std::fs::read_dir(dir).map_err(|e| ScenarioError::Io {
        file: dir.display().to_string(),
        message: e.to_string(),
    })?;
    let mut paths: Vec<_> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    paths.into_iter().map(load).collect()
}

/// Parses `.scn` text; `file` labels errors.
pub fn parse_str(text: &str, file: &str) -> Result<CorpusCase, ScenarioError> {
    Parser::new(text, file).parse()
}

struct Parser<'a> {
    file: &'a str,
    lines: Vec<(usize, &'a str)>,
    pos: usize,
}

/// An MV pending validation: its definition, corpus line, and the input
/// names its plan scans.
struct PendingMv {
    def: MvDefinition,
    line: usize,
    inputs: Vec<String>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str, file: &'a str) -> Self {
        let lines = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                // Strip comments outside string literals.
                let mut in_str = false;
                let mut end = l.len();
                for (idx, ch) in l.char_indices() {
                    match ch {
                        '\'' => in_str = !in_str,
                        '#' if !in_str => {
                            end = idx;
                            break;
                        }
                        _ => {}
                    }
                }
                (i + 1, l[..end].trim())
            })
            .filter(|(_, l)| !l.is_empty())
            .collect();
        Parser {
            file,
            lines,
            pos: 0,
        }
    }

    fn err(&self, line: usize, message: impl Into<String>) -> ScenarioError {
        ScenarioError::Parse {
            file: self.file.to_string(),
            line,
            message: message.into(),
        }
    }

    fn parse(mut self) -> Result<CorpusCase, ScenarioError> {
        let mut name: Option<String> = None;
        let mut budget: u64 = 8 << 20;
        let mut lanes: usize = 1;
        let mut mode = RefreshMode::Auto;
        let mut compact_every: Option<usize> = None;
        let mut runtime_feedback = true;
        let mut tables: Option<TableSpec> = None;
        let mut inline: Vec<InlineTable> = Vec::new();
        let mut mvs: Vec<PendingMv> = Vec::new();
        let mut churn: Vec<(usize, ChurnRound)> = Vec::new();
        let mut expectations: Vec<Expectation> = Vec::new();

        while self.pos < self.lines.len() {
            let (ln, line) = self.lines[self.pos];
            self.pos += 1;
            let (keyword, rest) = split_keyword(line);
            match keyword {
                "scenario" => name = Some(self.ident(ln, rest, "scenario name")?),
                "budget" => {
                    budget = rest
                        .trim()
                        .parse()
                        .map_err(|_| self.err(ln, format!("invalid budget '{}'", rest.trim())))?
                }
                "lanes" => {
                    lanes = rest.trim().parse().map_err(|_| {
                        self.err(ln, format!("invalid lane count '{}'", rest.trim()))
                    })?
                }
                "mode" => {
                    mode = match rest.trim() {
                        "auto" => RefreshMode::Auto,
                        "always_full" => RefreshMode::AlwaysFull,
                        "always_incremental" => RefreshMode::AlwaysIncremental,
                        other => {
                            return Err(self.err(
                                ln,
                                format!(
                                "unknown mode '{other}' (auto | always_full | always_incremental)"
                            ),
                            ))
                        }
                    }
                }
                "compact_every" => {
                    compact_every = Some(rest.trim().parse().map_err(|_| {
                        self.err(ln, format!("invalid compact interval '{}'", rest.trim()))
                    })?)
                }
                "runtime_feedback" => {
                    runtime_feedback = match rest.trim() {
                        "on" => true,
                        "off" => false,
                        other => {
                            return Err(self.err(
                                ln,
                                format!("runtime_feedback must be on|off, got '{other}'"),
                            ))
                        }
                    }
                }
                "tables" => {
                    if tables.is_some() || !inline.is_empty() {
                        return Err(self.err(ln, "tables declared twice"));
                    }
                    tables = Some(self.parse_tables(ln, rest)?);
                }
                "table" => {
                    if tables.is_some() {
                        return Err(self.err(ln, "inline tables cannot mix with a generator"));
                    }
                    inline.push(self.parse_inline_table(ln, rest)?);
                }
                "mv" => mvs.push(self.parse_mv(ln, rest)?),
                "churn" => churn.push((ln, self.parse_churn(ln, rest)?)),
                "expect" => expectations.push(self.parse_expect(ln, rest)?),
                other => {
                    return Err(self.err(ln, format!("unknown directive '{other}'")));
                }
            }
        }

        let name = name.ok_or_else(|| self.err(1, "missing 'scenario <name>' directive"))?;
        let tables = match tables {
            Some(t) => t,
            None if !inline.is_empty() => TableSpec::Inline(inline),
            None => return Err(self.err(1, "no tables declared ('tables …' or 'table …')")),
        };

        self.validate(&tables, &mvs, &churn, &expectations)?;

        let mut spec = ScenarioSpec::new(
            name,
            tables,
            mvs.into_iter().map(|m| m.def).collect(),
            budget,
        )
        .with_lanes(lanes)
        .with_refresh_mode(mode)
        .with_runtime_feedback(runtime_feedback);
        if let Some(n) = compact_every {
            spec = spec.with_compact_every(n);
        }
        for (_, round) in churn {
            spec = spec.with_churn(round);
        }
        Ok(CorpusCase {
            file: self.file.to_string(),
            spec,
            expectations,
        })
    }

    /// Structural validation with corpus-line provenance: duplicate MVs,
    /// name collisions, cyclic or dangling references, churn against
    /// unknown tables, expectations against unknown MVs.
    fn validate(
        &self,
        tables: &TableSpec,
        mvs: &[PendingMv],
        churn: &[(usize, ChurnRound)],
        expectations: &[Expectation],
    ) -> Result<(), ScenarioError> {
        let base: HashSet<String> = tables.table_names().into_iter().collect();
        let mv_lines: HashMap<&str, usize> =
            mvs.iter().map(|m| (m.def.name.as_str(), m.line)).collect();

        let mut seen: HashSet<&str> = HashSet::new();
        for m in mvs {
            if !seen.insert(&m.def.name) {
                return Err(ScenarioError::DuplicateMv {
                    file: self.file.to_string(),
                    line: m.line,
                    mv: m.def.name.clone(),
                });
            }
            if base.contains(&m.def.name) {
                return Err(self.err(
                    m.line,
                    format!("mv '{}' collides with a base table name", m.def.name),
                ));
            }
        }

        // Cycle detection over MV-to-MV references (base tables can't be
        // on a cycle). Iterative DFS with tri-state marks.
        let index: HashMap<&str, usize> = mvs
            .iter()
            .enumerate()
            .map(|(i, m)| (m.def.name.as_str(), i))
            .collect();
        let mut mark = vec![0u8; mvs.len()]; // 0 unvisited, 1 on stack, 2 done
        for start in 0..mvs.len() {
            if mark[start] != 0 {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            mark[start] = 1;
            while let Some(&(node, edge)) = stack.last() {
                let refs: Vec<usize> = mvs[node]
                    .inputs
                    .iter()
                    .filter_map(|i| index.get(i.as_str()).copied())
                    .collect();
                if edge < refs.len() {
                    let next = refs[edge];
                    stack.last_mut().expect("non-empty stack").1 += 1;
                    match mark[next] {
                        0 => {
                            mark[next] = 1;
                            stack.push((next, 0));
                        }
                        1 => {
                            return Err(ScenarioError::CyclicDag {
                                file: self.file.to_string(),
                                line: mvs[next].line,
                                mv: mvs[next].def.name.clone(),
                            });
                        }
                        _ => {}
                    }
                } else {
                    mark[node] = 2;
                    stack.pop();
                }
            }
        }

        // Reference resolution: each MV may read base tables and earlier
        // MVs. A known-but-later MV (acyclic, since cycles were caught
        // above) is an ordering mistake; an unknown name is dangling.
        let mut defined: HashSet<&str> = HashSet::new();
        for m in mvs {
            for input in &m.inputs {
                if base.contains(input) || defined.contains(input.as_str()) {
                    continue;
                }
                if let Some(&later) = mv_lines.get(input.as_str()) {
                    return Err(self.err(
                        m.line,
                        format!(
                            "mv '{}' references mv '{input}' before it is defined (line {later})",
                            m.def.name
                        ),
                    ));
                }
                return Err(ScenarioError::DanglingReference {
                    file: self.file.to_string(),
                    line: m.line,
                    referrer: format!("mv '{}'", m.def.name),
                    target: input.clone(),
                });
            }
            defined.insert(&m.def.name);
        }

        for (ln, round) in churn {
            for t in &round.tables {
                if !base.contains(t) {
                    return Err(ScenarioError::DanglingReference {
                        file: self.file.to_string(),
                        line: *ln,
                        referrer: "churn".to_string(),
                        target: t.clone(),
                    });
                }
            }
        }
        for e in expectations {
            if !mv_lines.contains_key(e.mv.as_str()) {
                return Err(ScenarioError::DanglingReference {
                    file: self.file.to_string(),
                    line: e.line,
                    referrer: "expect".to_string(),
                    target: e.mv.clone(),
                });
            }
        }
        Ok(())
    }

    fn ident(&self, ln: usize, s: &str, what: &str) -> Result<String, ScenarioError> {
        let s = s.trim();
        if s.is_empty() || !s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(self.err(ln, format!("invalid {what} '{s}'")));
        }
        Ok(s.to_string())
    }

    fn parse_tables(&self, ln: usize, rest: &str) -> Result<TableSpec, ScenarioError> {
        let mut toks = rest.split_whitespace();
        match toks.next() {
            Some("tinytpcds") => {
                let kv = self.key_values(ln, toks)?;
                Ok(TableSpec::TinyTpcds {
                    scale: self.kv_f64(ln, &kv, "scale")?,
                    seed: self.kv_u64(ln, &kv, "seed")?,
                })
            }
            Some("tpch") => {
                let mut snowflake = false;
                let args: Vec<&str> = toks
                    .filter(|t| {
                        if *t == "snowflake" {
                            snowflake = true;
                            false
                        } else {
                            true
                        }
                    })
                    .collect();
                let kv = self.key_values(ln, args.into_iter())?;
                Ok(TableSpec::TpchShaped(TpchSpec {
                    seed: self.kv_u64(ln, &kv, "seed")?,
                    fact_rows: self.kv_u64(ln, &kv, "fact")? as usize,
                    parts: self.kv_u64(ln, &kv, "parts")? as usize,
                    suppliers: self.kv_u64(ln, &kv, "suppliers")? as usize,
                    customers: self.kv_u64(ln, &kv, "customers")? as usize,
                    orders: self.kv_u64(ln, &kv, "orders")? as usize,
                    zipf: self.kv_f64(ln, &kv, "zipf")?,
                    snowflake,
                }))
            }
            other => Err(self.err(
                ln,
                format!("unknown table generator {other:?} (tinytpcds | tpch)"),
            )),
        }
    }

    fn key_values<'b>(
        &self,
        ln: usize,
        toks: impl Iterator<Item = &'b str>,
    ) -> Result<HashMap<&'b str, &'b str>, ScenarioError> {
        let mut kv = HashMap::new();
        for t in toks {
            let (k, v) = t
                .split_once('=')
                .ok_or_else(|| self.err(ln, format!("expected key=value, got '{t}'")))?;
            kv.insert(k, v);
        }
        Ok(kv)
    }

    fn kv_u64(&self, ln: usize, kv: &HashMap<&str, &str>, key: &str) -> Result<u64, ScenarioError> {
        kv.get(key)
            .ok_or_else(|| self.err(ln, format!("missing {key}=…")))?
            .parse()
            .map_err(|_| self.err(ln, format!("invalid integer for {key}")))
    }

    fn kv_f64(&self, ln: usize, kv: &HashMap<&str, &str>, key: &str) -> Result<f64, ScenarioError> {
        kv.get(key)
            .ok_or_else(|| self.err(ln, format!("missing {key}=…")))?
            .parse()
            .map_err(|_| self.err(ln, format!("invalid number for {key}")))
    }

    /// `table <name> (col:type, …)` followed by `row <v> …` lines.
    fn parse_inline_table(&mut self, ln: usize, rest: &str) -> Result<InlineTable, ScenarioError> {
        let rest = rest.trim();
        let open = rest
            .find('(')
            .ok_or_else(|| self.err(ln, "expected 'table <name> (col:type, …)'"))?;
        let name = self.ident(ln, &rest[..open], "table name")?;
        let close = rest
            .rfind(')')
            .ok_or_else(|| self.err(ln, "unclosed column list"))?;
        let mut columns = Vec::new();
        for item in rest[open + 1..close].split(',') {
            let (col, ty) = item
                .trim()
                .split_once(':')
                .ok_or_else(|| self.err(ln, format!("expected col:type, got '{}'", item.trim())))?;
            let dtype = match ty.trim() {
                "int" => DataType::Int64,
                "float" => DataType::Float64,
                "str" => DataType::Utf8,
                "bool" => DataType::Bool,
                "date" => DataType::Date,
                other => {
                    return Err(self.err(
                        ln,
                        format!("unknown type '{other}' (int | float | str | bool | date)"),
                    ))
                }
            };
            columns.push((col.trim().to_string(), dtype));
        }
        if columns.is_empty() {
            return Err(self.err(ln, "table needs at least one column"));
        }
        let mut rows = Vec::new();
        while self.pos < self.lines.len() {
            let (rln, line) = self.lines[self.pos];
            let (kw, vals) = split_keyword(line);
            if kw != "row" {
                break;
            }
            self.pos += 1;
            let toks = tokenize_values(vals).map_err(|m| self.err(rln, m))?;
            if toks.len() != columns.len() {
                return Err(self.err(
                    rln,
                    format!(
                        "row has {} values, table has {} columns",
                        toks.len(),
                        columns.len()
                    ),
                ));
            }
            let row: Result<Vec<Value>, ScenarioError> = toks
                .iter()
                .zip(&columns)
                .map(|(tok, (col, dtype))| {
                    self.typed_value(rln, tok, *dtype)
                        .map_err(|m| self.err(rln, format!("column '{col}': {m}")))
                })
                .collect();
            rows.push(row?);
        }
        Ok(InlineTable {
            name,
            columns,
            rows,
        })
    }

    fn typed_value(&self, _ln: usize, tok: &Tok, dtype: DataType) -> Result<Value, String> {
        match (dtype, tok) {
            (DataType::Utf8, Tok::Str(s)) => Ok(Value::Utf8(s.clone())),
            (DataType::Int64, Tok::Word(w)) => w
                .parse()
                .map(Value::Int64)
                .map_err(|_| format!("invalid int '{w}'")),
            (DataType::Float64, Tok::Word(w)) => w
                .parse()
                .map(Value::Float64)
                .map_err(|_| format!("invalid float '{w}'")),
            (DataType::Bool, Tok::Word(w)) => match w.as_str() {
                "true" => Ok(Value::Bool(true)),
                "false" => Ok(Value::Bool(false)),
                _ => Err(format!("invalid bool '{w}'")),
            },
            (DataType::Date, Tok::Word(w)) => w
                .parse()
                .map(Value::Date)
                .map_err(|_| format!("invalid date (days since epoch) '{w}'")),
            (dt, Tok::Str(s)) => Err(format!("'{s}' is a string, column is {dt}")),
            (DataType::Utf8, Tok::Word(w)) => Err(format!("string values need quotes: '{w}'")),
        }
    }

    /// `mv <name> = <table> | op | op …`
    fn parse_mv(&self, ln: usize, rest: &str) -> Result<PendingMv, ScenarioError> {
        let (name, pipeline) = rest
            .split_once('=')
            .ok_or_else(|| self.err(ln, "expected 'mv <name> = <pipeline>'"))?;
        let name = self.ident(ln, name, "mv name")?;
        let mut stages = pipeline.split('|');
        let source = stages
            .next()
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .ok_or_else(|| self.err(ln, "pipeline needs a source table"))?;
        let mut plan = LogicalPlan::scan(self.ident(ln, source, "source table")?);
        for stage in stages {
            plan = self.parse_op(ln, plan, stage.trim())?;
        }
        let inputs = plan.input_tables();
        Ok(PendingMv {
            def: MvDefinition::new(name, plan),
            line: ln,
            inputs,
        })
    }

    fn parse_op(
        &self,
        ln: usize,
        input: LogicalPlan,
        stage: &str,
    ) -> Result<LogicalPlan, ScenarioError> {
        let (op, rest) = split_keyword(stage);
        match op {
            "filter" => {
                let toks = tokenize_values(rest).map_err(|m| self.err(ln, m))?;
                if toks.len() != 3 {
                    return Err(self.err(
                        ln,
                        format!("filter wants '<col> <cmp> <lit>', got '{stage}'"),
                    ));
                }
                let col = Expr::col(toks[0].word(|| self.err(ln, "filter column"))?);
                let lit = Expr::lit(self.literal(ln, &toks[2])?);
                let pred = match toks[1].word(|| self.err(ln, "filter comparator"))?.as_str() {
                    ">" => col.gt(lit),
                    "<" => col.lt(lit),
                    ">=" => col.ge(lit),
                    "<=" => col.le(lit),
                    "==" => col.eq(lit),
                    "!=" => col.ne(lit),
                    other => return Err(self.err(ln, format!("unknown comparator '{other}'"))),
                };
                Ok(input.filter(pred))
            }
            "project" => {
                let mut exprs = Vec::new();
                for item in rest.split(',') {
                    exprs.push(self.parse_projection(ln, item.trim())?);
                }
                if exprs.is_empty() {
                    return Err(self.err(ln, "project needs at least one column"));
                }
                Ok(input.project(exprs))
            }
            "join" | "leftjoin" => {
                let (table, on) = rest
                    .split_once(" on ")
                    .map(|(t, o)| (t.trim(), o.trim()))
                    .ok_or_else(|| self.err(ln, format!("{op} wants '<table> on a=b[,c=d]'")))?;
                let table = self.ident(ln, table, "join table")?;
                let mut keys = Vec::new();
                for pair in on.split(',') {
                    let (l, r) = pair.trim().split_once('=').ok_or_else(|| {
                        self.err(ln, format!("join key '{}' is not a=b", pair.trim()))
                    })?;
                    keys.push((l.trim().to_string(), r.trim().to_string()));
                }
                let right = LogicalPlan::scan(table);
                Ok(if op == "join" {
                    input.join(right, keys)
                } else {
                    input.left_join(right, keys)
                })
            }
            "agg" => {
                let rest = rest.trim();
                let (group_by, aggs_text) = if let Some(after) = rest.strip_prefix("by ") {
                    let (cols, aggs) = after.split_once(' ').ok_or_else(|| {
                        self.err(ln, "agg wants 'by g1[,g2] <func> <col> as <alias>'")
                    })?;
                    (
                        cols.split(',').map(|c| c.trim().to_string()).collect(),
                        aggs,
                    )
                } else {
                    (Vec::new(), rest)
                };
                let mut aggs = Vec::new();
                for item in aggs_text.split(',') {
                    let toks: Vec<&str> = item.split_whitespace().collect();
                    let [func, col, kw_as, alias] = toks[..] else {
                        return Err(self.err(
                            ln,
                            format!(
                                "aggregate '{}' is not '<func> <col> as <alias>'",
                                item.trim()
                            ),
                        ));
                    };
                    if kw_as != "as" {
                        return Err(
                            self.err(ln, format!("expected 'as' in aggregate '{}'", item.trim()))
                        );
                    }
                    let func = match func {
                        "sum" => AggFunc::Sum,
                        "count" => AggFunc::Count,
                        "min" => AggFunc::Min,
                        "max" => AggFunc::Max,
                        "avg" => AggFunc::Avg,
                        other => return Err(self.err(ln, format!("unknown aggregate '{other}'"))),
                    };
                    aggs.push(AggExpr::new(func, col, alias));
                }
                if aggs.is_empty() {
                    return Err(self.err(ln, "agg needs at least one aggregate"));
                }
                Ok(input.aggregate(group_by, aggs))
            }
            "distinct" => {
                if !rest.trim().is_empty() {
                    return Err(self.err(ln, "distinct takes no arguments"));
                }
                Ok(input.distinct())
            }
            "topk" => {
                let (n, keys) = rest
                    .trim()
                    .split_once(" by ")
                    .ok_or_else(|| self.err(ln, "topk wants '<n> by <col> [desc]'"))?;
                let n: usize = n
                    .trim()
                    .parse()
                    .map_err(|_| self.err(ln, format!("invalid topk count '{}'", n.trim())))?;
                Ok(input.top_k(self.sort_keys(ln, keys)?, n))
            }
            "sort" => Ok(input.sort(self.sort_keys(ln, rest)?)),
            "limit" => {
                let n: usize = rest
                    .trim()
                    .parse()
                    .map_err(|_| self.err(ln, format!("invalid limit '{}'", rest.trim())))?;
                Ok(input.limit(n))
            }
            "union" => {
                let table = self.ident(ln, rest, "union table")?;
                Ok(input.union(LogicalPlan::scan(table)))
            }
            other => Err(self.err(ln, format!("unknown operator '{other}'"))),
        }
    }

    /// `<col>`, `<col> as <alias>`, or `<col|lit> <+-*/> <col|lit> as <alias>`.
    fn parse_projection(&self, ln: usize, item: &str) -> Result<(Expr, String), ScenarioError> {
        let toks = tokenize_values(item).map_err(|m| self.err(ln, m))?;
        let operand = |t: &Tok| -> Result<Expr, ScenarioError> {
            match t {
                Tok::Str(s) => Ok(Expr::lit(s.as_str())),
                Tok::Word(w) => {
                    if w.parse::<i64>().is_ok() || w.parse::<f64>().is_ok() {
                        Ok(Expr::lit(self.literal(ln, t)?))
                    } else {
                        Ok(Expr::col(w.as_str()))
                    }
                }
            }
        };
        match &toks[..] {
            [Tok::Word(col)] => Ok((Expr::col(col.as_str()), col.clone())),
            [Tok::Word(col), Tok::Word(kw), Tok::Word(alias)] if kw == "as" => {
                Ok((Expr::col(col.as_str()), alias.clone()))
            }
            [a, Tok::Word(op), b, Tok::Word(kw), Tok::Word(alias)] if kw == "as" => {
                let (l, r) = (operand(a)?, operand(b)?);
                let e = match op.as_str() {
                    "+" => l.add(r),
                    "-" => l.sub(r),
                    "*" => l.mul(r),
                    "/" => l.div(r),
                    other => return Err(self.err(ln, format!("unknown arithmetic op '{other}'"))),
                };
                Ok((e, alias.clone()))
            }
            _ => Err(self.err(
                ln,
                format!("projection '{item}' is not '<col>', '<col> as <alias>' or '<a> <op> <b> as <alias>'"),
            )),
        }
    }

    fn sort_keys(&self, ln: usize, text: &str) -> Result<Vec<SortKey>, ScenarioError> {
        let mut keys = Vec::new();
        for item in text.split(',') {
            let toks: Vec<&str> = item.split_whitespace().collect();
            match toks[..] {
                [col] => keys.push(SortKey::asc(col)),
                [col, "asc"] => keys.push(SortKey::asc(col)),
                [col, "desc"] => keys.push(SortKey::desc(col)),
                _ => {
                    return Err(self.err(
                        ln,
                        format!("sort key '{}' is not '<col> [asc|desc]'", item.trim()),
                    ))
                }
            }
        }
        if keys.is_empty() {
            return Err(self.err(ln, "need at least one sort key"));
        }
        Ok(keys)
    }

    /// `churn <t1[,t2]> inserts <frac> seed <n>` or
    /// `churn <t1[,t2]> mix <i> <u> <d> seed <n>`.
    fn parse_churn(&self, ln: usize, rest: &str) -> Result<ChurnRound, ScenarioError> {
        let toks: Vec<&str> = rest.split_whitespace().collect();
        let usage =
            "churn wants '<tables> inserts <frac> seed <n>' or '<tables> mix <i> <u> <d> seed <n>'";
        let (tables, shape) = toks.split_first().ok_or_else(|| self.err(ln, usage))?;
        let tables: Vec<String> = tables.split(',').map(|t| t.trim().to_string()).collect();
        let frac = |s: &str| -> Result<f64, ScenarioError> {
            s.parse()
                .map_err(|_| self.err(ln, format!("invalid fraction '{s}'")))
        };
        let (stream, seed_toks) = match shape {
            ["inserts", f, rest @ ..] => (UpdateStreamSpec::inserts(frac(f)?), rest),
            ["mix", i, u, d, rest @ ..] => {
                (UpdateStreamSpec::mixed(frac(i)?, frac(u)?, frac(d)?), rest)
            }
            _ => return Err(self.err(ln, usage)),
        };
        let ["seed", seed] = seed_toks else {
            return Err(self.err(ln, usage));
        };
        let seed = seed
            .parse()
            .map_err(|_| self.err(ln, format!("invalid seed '{seed}'")))?;
        Ok(ChurnRound {
            tables,
            stream,
            seed,
        })
    }

    /// `expect <mv> <full|incremental|skipped> [<reason>]`
    fn parse_expect(&self, ln: usize, rest: &str) -> Result<Expectation, ScenarioError> {
        let toks: Vec<&str> = rest.split_whitespace().collect();
        let (mv, mode, reason) = match toks[..] {
            [mv, mode] => (mv, mode, None),
            [mv, mode, reason] => (mv, mode, Some(reason)),
            _ => {
                return Err(self.err(
                    ln,
                    "expect wants '<mv> <full|incremental|skipped> [<reason>]'",
                ))
            }
        };
        let mode = match mode {
            "full" => NodeMode::Full,
            "incremental" => NodeMode::Incremental,
            "skipped" => NodeMode::Skipped,
            other => return Err(self.err(ln, format!("unknown mode '{other}'"))),
        };
        let reason = reason
            .map(|r| {
                Ok(match r {
                    "full_policy" => ModeReason::FullPolicy,
                    "first_materialization" => ModeReason::FirstMaterialization,
                    "poisoned_log" => ModeReason::PoisonedLog,
                    "parent_recomputed" => ModeReason::ParentRecomputed,
                    "static_churn" => ModeReason::StaticChurn,
                    "unsupported_shape" => ModeReason::UnsupportedShape,
                    "cost_model" => ModeReason::CostModel,
                    "no_churn" => ModeReason::NoChurn,
                    "delta_applied" => ModeReason::DeltaApplied,
                    other => return Err(self.err(ln, format!("unknown reason '{other}'"))),
                })
            })
            .transpose()?;
        Ok(Expectation {
            mv: mv.to_string(),
            mode,
            reason,
            line: ln,
        })
    }

    fn literal(&self, ln: usize, tok: &Tok) -> Result<Value, ScenarioError> {
        match tok {
            Tok::Str(s) => Ok(Value::Utf8(s.clone())),
            Tok::Word(w) => {
                if let Ok(i) = w.parse::<i64>() {
                    Ok(Value::Int64(i))
                } else if let Ok(f) = w.parse::<f64>() {
                    Ok(Value::Float64(f))
                } else if w == "true" {
                    Ok(Value::Bool(true))
                } else if w == "false" {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err(ln, format!("invalid literal '{w}'")))
                }
            }
        }
    }
}

fn split_keyword(line: &str) -> (&str, &str) {
    match line.split_once(char::is_whitespace) {
        Some((k, rest)) => (k, rest),
        None => (line, ""),
    }
}

/// A whitespace-separated token: a bare word or a `'quoted string'`.
#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Str(String),
}

impl Tok {
    fn word(&self, err: impl FnOnce() -> ScenarioError) -> Result<String, ScenarioError> {
        match self {
            Tok::Word(w) => Ok(w.clone()),
            Tok::Str(_) => Err(err()),
        }
    }
}

/// Splits on whitespace, keeping `'single-quoted strings'` (which may
/// contain spaces) as single tokens.
fn tokenize_values(text: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let mut chars = text.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '\'' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('\'') => break,
                    Some(ch) => s.push(ch),
                    None => return Err(format!("unterminated string in '{text}'")),
                }
            }
            out.push(Tok::Str(s));
        } else {
            let mut w = String::new();
            while let Some(&ch) = chars.peek() {
                if ch.is_whitespace() || ch == '\'' {
                    break;
                }
                w.push(ch);
                chars.next();
            }
            out.push(Tok::Word(w));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "\
# A miniature but complete case.
scenario tiny
budget 1048576
lanes 2
mode always_incremental
compact_every 2
runtime_feedback off

table items (id:int, label:str, price:float, live:bool, added:date)
row 1 'alpha beta' 9.5 true 19000
row 2 'gamma' 3.25 false 19001

mv cheap = items | filter price < 5.0
mv labels = cheap | project label, price * 2 as doubled | distinct
mv ranked = items | topk 1 by price desc

churn items inserts 0.5 seed 9
expect cheap incremental delta_applied
expect ranked full unsupported_shape
";

    #[test]
    fn parses_a_complete_case() {
        let case = parse_str(GOOD, "good.scn").unwrap();
        assert_eq!(case.spec.name, "tiny");
        assert_eq!(case.spec.config.memory_budget, 1 << 20);
        assert_eq!(case.spec.config.lanes, 2);
        assert_eq!(
            case.spec.config.refresh_mode,
            RefreshMode::AlwaysIncremental
        );
        assert_eq!(case.spec.config.compact_every, Some(2));
        assert!(!case.spec.config.runtime_feedback);
        assert_eq!(case.spec.mvs.len(), 3);
        assert_eq!(case.spec.churn.len(), 1);
        assert_eq!(case.expectations.len(), 2);
        assert_eq!(
            case.expectations[1].reason,
            Some(ModeReason::UnsupportedShape)
        );
        let TableSpec::Inline(tables) = &case.spec.tables else {
            panic!("expected inline tables");
        };
        assert_eq!(tables[0].rows.len(), 2);
        assert_eq!(tables[0].rows[0][1], Value::Utf8("alpha beta".into()));
    }

    #[test]
    fn inline_tables_build_and_execute() {
        let case = parse_str(GOOD, "good.scn").unwrap();
        let dir = tempfile::tempdir().unwrap();
        let disk = sc_engine::storage::DiskCatalog::open(dir.path()).unwrap();
        case.spec.tables.load_into(&disk).unwrap();
        let t = disk.read_table("items").unwrap();
        assert_eq!(t.num_rows(), 2);
        // The parsed plans run: `cheap` keeps the one row under 5.0.
        let source: std::collections::HashMap<String, std::sync::Arc<sc_engine::Table>> =
            [("items".to_string(), std::sync::Arc::new(t))].into();
        let out = case.spec.mvs[0].plan.execute(&source).unwrap();
        assert_eq!(out.num_rows(), 1);
    }

    #[test]
    fn duplicate_mv_is_typed_with_position() {
        let text =
            "scenario s\ntable t (a:int)\nrow 1\nmv m = t | filter a > 0\nmv m = t | distinct\n";
        match parse_str(text, "dup.scn") {
            Err(ScenarioError::DuplicateMv { file, line, mv }) => {
                assert_eq!((file.as_str(), line, mv.as_str()), ("dup.scn", 5, "m"));
            }
            other => panic!("expected DuplicateMv, got {other:?}"),
        }
    }

    #[test]
    fn dangling_references_are_typed_with_position() {
        let text = "scenario s\ntable t (a:int)\nrow 1\nmv m = ghost | distinct\n";
        match parse_str(text, "dangle.scn") {
            Err(ScenarioError::DanglingReference { line, target, .. }) => {
                assert_eq!((line, target.as_str()), (4, "ghost"));
            }
            other => panic!("expected DanglingReference, got {other:?}"),
        }
        let churn = "scenario s\ntable t (a:int)\nrow 1\nchurn ghost inserts 0.1 seed 1\n";
        assert!(matches!(
            parse_str(churn, "c.scn"),
            Err(ScenarioError::DanglingReference { line: 4, .. })
        ));
        let expect = "scenario s\ntable t (a:int)\nrow 1\nmv m = t | distinct\nexpect ghost full\n";
        assert!(matches!(
            parse_str(expect, "e.scn"),
            Err(ScenarioError::DanglingReference { line: 5, .. })
        ));
    }

    #[test]
    fn cyclic_dag_is_typed() {
        let text = "scenario s\ntable t (a:int)\nrow 1\nmv a = b | distinct\nmv b = a | distinct\n";
        match parse_str(text, "cycle.scn") {
            Err(ScenarioError::CyclicDag { file, mv, .. }) => {
                assert_eq!(file, "cycle.scn");
                assert!(mv == "a" || mv == "b");
            }
            other => panic!("expected CyclicDag, got {other:?}"),
        }
    }

    #[test]
    fn forward_reference_is_an_ordering_error_not_a_cycle() {
        let text = "scenario s\ntable t (a:int)\nrow 1\nmv m = later | distinct\nmv later = t | distinct\n";
        match parse_str(text, "fwd.scn") {
            Err(ScenarioError::Parse { line, message, .. }) => {
                assert_eq!(line, 4);
                assert!(message.contains("before it is defined"), "{message}");
            }
            other => panic!("expected Parse, got {other:?}"),
        }
    }

    #[test]
    fn malformed_lines_never_panic() {
        for bad in [
            "scenario s\ntables nosuch scale=1 seed=1\n",
            "scenario s\ntable t (a:int)\nrow 1 2\n",
            "scenario s\ntable t (a:int)\nrow x\n",
            "scenario s\ntable t (a:wat)\n",
            "scenario s\ntable t (a:int)\nrow 1\nmv m = t | frobnicate\n",
            "scenario s\ntable t (a:int)\nrow 1\nmv m = t | filter a ~ 3\n",
            "scenario s\ntable t (a:int)\nrow 1\nmv m = t | join x\n",
            "scenario s\ntable t (a:int)\nrow 1\nmv m = t | agg sum a\n",
            "scenario s\ntable t (a:int)\nrow 1\nmv m = t | topk q by a\n",
            "scenario s\ntable t (a:int)\nrow 1\nchurn t inserts lots seed 1\n",
            "scenario s\ntable t (a:int)\nrow 1\nmv m = t | distinct\nexpect m sideways\n",
            "scenario s\ntable t (a:int)\nrow 1\nmv m = t | distinct\nexpect m full because\n",
            "scenario s\nmode sometimes\n",
            "table t (a:int)\nrow 1\n", // missing scenario name
            "scenario s\n",             // no tables at all
            "scenario s\nmv m = t | distinct\n",
            "scenario s\ntable t (a:str)\nrow 'unterminated\n",
        ] {
            match parse_str(bad, "bad.scn") {
                Err(_) => {}
                Ok(_) => panic!("accepted malformed input: {bad:?}"),
            }
        }
    }

    #[test]
    fn mv_colliding_with_base_table_is_rejected() {
        let text = "scenario s\ntable t (a:int)\nrow 1\nmv t = t | distinct\n";
        assert!(matches!(
            parse_str(text, "x.scn"),
            Err(ScenarioError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn comments_and_strings_coexist() {
        let text = "scenario s # trailing comment\ntable t (a:int, s:str)\nrow 1 'has # hash' # comment\nmv m = t | filter s == 'x # y'\n";
        let case = parse_str(text, "c.scn").unwrap();
        let TableSpec::Inline(tables) = &case.spec.tables else {
            panic!()
        };
        assert_eq!(tables[0].rows[0][1], Value::Utf8("has # hash".into()));
    }

    #[test]
    fn generator_table_lines_parse() {
        let tiny = "scenario s\ntables tinytpcds scale=0.1 seed=7\nmv m = store_sales | limit 3\n";
        let case = parse_str(tiny, "t.scn").unwrap();
        assert_eq!(
            case.spec.tables,
            TableSpec::TinyTpcds {
                scale: 0.1,
                seed: 7
            }
        );
        let tpch = "scenario s\ntables tpch seed=3 fact=100 parts=5 suppliers=4 customers=6 orders=10 zipf=1.2 snowflake\nmv m = lineitem | limit 3\n";
        let case = parse_str(tpch, "t.scn").unwrap();
        let TableSpec::TpchShaped(spec) = &case.spec.tables else {
            panic!("expected tpch tables");
        };
        assert!(spec.snowflake);
        assert_eq!(spec.fact_rows, 100);
        // Referencing a table the generator doesn't produce dangles.
        let bad = "scenario s\ntables tpch seed=3 fact=100 parts=5 suppliers=4 customers=6 orders=10 zipf=1.2\nmv m = store_sales | limit 3\n";
        assert!(matches!(
            parse_str(bad, "t.scn"),
            Err(ScenarioError::DanglingReference { .. })
        ));
    }

    #[test]
    fn errors_render_file_and_line() {
        let e = parse_str("scenario s\nwat is this\n", "f.scn").unwrap_err();
        assert!(e.to_string().starts_with("f.scn:2:"), "{e}");
    }
}
