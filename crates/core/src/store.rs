//! Persistent on-disk dependence-graph store for `ped serve`.
//!
//! Each entry is one loop's [`DepGraph`] together with the three-part
//! validity certificate the session layer already maintains (PR 3): the
//! nest's structural `loop_fp`, the unit-context `ctx_fp`, and the unit's
//! visible interprocedural `vis_fp`. The store is keyed by
//! `(unit name, header statement, loop_fp, ctx_fp, vis_fp)` — exactly the
//! criterion under which a cached graph is valid in memory — so a daemon
//! restart can resurrect graphs from disk under the same soundness
//! argument that in-memory retention uses: all three fingerprints match
//! the freshly parsed program, or the entry is ignored.
//!
//! The wire format is the workspace's hand-rolled JSON (`ped_obs::json`),
//! one file per entry named by a hash of the key. Exactness matters more
//! than readability here: `u64` fingerprints and `f64` literals do not
//! survive a round trip through JSON numbers (which are `f64`), so both
//! are stored as hex strings of their bit patterns, and `i64` literals as
//! decimal strings. A deserialized graph is bit-identical to the one
//! persisted — the concurrent-daemon oracle asserts warm-opened sessions
//! render canonically equal to fresh ones.
//!
//! Corruption tolerance: the store is a cache, never a source of truth.
//! Unreadable, unparsable, or key-mismatched files (hash collisions,
//! format drift) are treated as misses; `load` never fails a session.

use ped_analysis::scalars::ScalarClass;
use ped_analysis::sections::{ArrayClass, TopReason};
use ped_dep::vectors::{DirSet, DirVector};
use ped_dep::TestName;
use ped_dep::{DepCause, DepGraph, DepKind, Dependence};
use ped_fortran::{BinOp, Expr, Intrinsic, RedOp, StmtId, SymId, UnOp};
use ped_obs::json::{self, Json};
use std::path::{Path, PathBuf};

/// One persisted graph plus its full key.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredGraph {
    /// Program-unit name (stable across restarts, unlike unit indices
    /// only by convention — the parse order is deterministic, but the
    /// name survives unit insertion/removal too).
    pub unit: String,
    /// Loop header statement id in the freshly parsed program (parsing
    /// the same source yields the same arena ids).
    pub header: u32,
    /// Structural fingerprint of the nest.
    pub loop_fp: u64,
    /// Unit-context fingerprint (constants, liveness, control context,
    /// assertions, flags).
    pub ctx_fp: u64,
    /// Visible interprocedural fingerprint of the unit.
    pub vis_fp: u64,
    /// The graph itself.
    pub graph: DepGraph,
}

/// A directory of persisted graphs. Cheap to construct; every operation
/// goes straight to the filesystem so concurrent daemons (or a daemon
/// and its successor) never hold stale in-memory indices.
#[derive(Debug, Clone)]
pub struct GraphStore {
    dir: PathBuf,
}

/// Format version stamped into every entry; bumped when the encoding
/// changes so old files read as misses instead of garbage.
const STORE_VERSION: u64 = 3;

impl GraphStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl AsRef<Path>) -> std::io::Result<GraphStore> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Ok(GraphStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Entries currently on disk (for reporting; racy by nature).
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|d| d.filter_map(Result::ok).count())
            .unwrap_or(0)
    }

    /// True when no entries are on disk.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn path_of(&self, unit: &str, header: u32, lfp: u64, cfp: u64, vfp: u64) -> PathBuf {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        unit.hash(&mut h);
        header.hash(&mut h);
        lfp.hash(&mut h);
        cfp.hash(&mut h);
        vfp.hash(&mut h);
        self.dir.join(format!("g{:016x}.json", h.finish()))
    }

    /// Persist one entry. Writes to a temp file then renames, so a
    /// concurrent reader sees the old entry or the new one, never a
    /// truncated file.
    pub fn save(&self, e: &StoredGraph) -> std::io::Result<()> {
        let path = self.path_of(&e.unit, e.header, e.loop_fp, e.ctx_fp, e.vis_fp);
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, stored_to_json(e).to_string_compact())?;
        std::fs::rename(&tmp, &path)
    }

    /// Look up the graph persisted under exactly this key, if any. Every
    /// failure mode — missing file, unreadable file, parse error, key
    /// mismatch from a filename-hash collision — is a plain miss.
    pub fn load(
        &self,
        unit: &str,
        header: u32,
        loop_fp: u64,
        ctx_fp: u64,
        vis_fp: u64,
    ) -> Option<DepGraph> {
        let path = self.path_of(unit, header, loop_fp, ctx_fp, vis_fp);
        let text = std::fs::read_to_string(path).ok()?;
        let e = stored_from_json(&json::parse(&text).ok()?)?;
        (e.unit == unit
            && e.header == header
            && e.loop_fp == loop_fp
            && e.ctx_fp == ctx_fp
            && e.vis_fp == vis_fp)
            .then_some(e.graph)
    }
}

// ---------------------------------------------------------------------------
// Exact scalar encodings: JSON numbers are f64, so u64 fingerprints, i64
// literals, and f64 literals all travel as strings.

fn hex_u64(n: u64) -> Json {
    Json::Str(format!("{n:016x}"))
}

fn un_hex_u64(v: &Json) -> Option<u64> {
    u64::from_str_radix(v.as_str()?, 16).ok()
}

fn dec_i64(n: i64) -> Json {
    Json::Str(n.to_string())
}

fn un_dec_i64(v: &Json) -> Option<i64> {
    v.as_str()?.parse().ok()
}

fn bits_f64(x: f64) -> Json {
    hex_u64(x.to_bits())
}

fn un_bits_f64(v: &Json) -> Option<f64> {
    Some(f64::from_bits(un_hex_u64(v)?))
}

fn small(n: u64) -> Json {
    Json::int(n)
}

// ---------------------------------------------------------------------------
// Enum codes. Each table is the single source of truth for one enum's
// wire names; encode panics on a variant the table forgot (a compile-era
// bug the round-trip test catches), decode returns None (a miss).

fn kind_code(k: DepKind) -> &'static str {
    match k {
        DepKind::True => "true",
        DepKind::Anti => "anti",
        DepKind::Output => "output",
        DepKind::Input => "input",
    }
}

fn kind_parse(s: &str) -> Option<DepKind> {
    Some(match s {
        "true" => DepKind::True,
        "anti" => DepKind::Anti,
        "output" => DepKind::Output,
        "input" => DepKind::Input,
        _ => return None,
    })
}

fn red_code(r: RedOp) -> &'static str {
    match r {
        RedOp::Sum => "sum",
        RedOp::Product => "product",
        RedOp::Min => "min",
        RedOp::Max => "max",
    }
}

fn red_parse(s: &str) -> Option<RedOp> {
    Some(match s {
        "sum" => RedOp::Sum,
        "product" => RedOp::Product,
        "min" => RedOp::Min,
        "max" => RedOp::Max,
        _ => return None,
    })
}

fn cause_to_json(c: &DepCause) -> Json {
    match c {
        DepCause::Array => Json::str("array"),
        DepCause::Scalar => Json::str("scalar"),
        DepCause::Reduction(r) => Json::Str(format!("reduction:{}", red_code(*r))),
        DepCause::Induction => Json::str("induction"),
        DepCause::Call => Json::str("call"),
        DepCause::Control => Json::str("control"),
    }
}

fn cause_from_json(v: &Json) -> Option<DepCause> {
    let s = v.as_str()?;
    if let Some(r) = s.strip_prefix("reduction:") {
        return Some(DepCause::Reduction(red_parse(r)?));
    }
    Some(match s {
        "array" => DepCause::Array,
        "scalar" => DepCause::Scalar,
        "induction" => DepCause::Induction,
        "call" => DepCause::Call,
        "control" => DepCause::Control,
        _ => return None,
    })
}

fn test_code(t: TestName) -> &'static str {
    match t {
        TestName::Ziv => "ziv",
        TestName::StrongSiv => "strong_siv",
        TestName::WeakZeroSiv => "weak_zero_siv",
        TestName::WeakCrossingSiv => "weak_crossing_siv",
        TestName::ExactSiv => "exact_siv",
        TestName::Gcd => "gcd",
        TestName::Banerjee => "banerjee",
        TestName::NonAffine => "non_affine",
        TestName::Symbolic => "symbolic",
    }
}

fn test_parse(s: &str) -> Option<TestName> {
    Some(match s {
        "ziv" => TestName::Ziv,
        "strong_siv" => TestName::StrongSiv,
        "weak_zero_siv" => TestName::WeakZeroSiv,
        "weak_crossing_siv" => TestName::WeakCrossingSiv,
        "exact_siv" => TestName::ExactSiv,
        "gcd" => TestName::Gcd,
        "banerjee" => TestName::Banerjee,
        "non_affine" => TestName::NonAffine,
        "symbolic" => TestName::Symbolic,
        _ => return None,
    })
}

/// All eight direction sets, indexed by their (private) bit patterns —
/// `DirSet` exposes them only as constants, so the code IS the index.
const DIRSETS: [DirSet; 8] = [
    DirSet::NONE,
    DirSet::LT,
    DirSet::EQ,
    DirSet::LE,
    DirSet::GT,
    DirSet::NE,
    DirSet::GE,
    DirSet::ANY,
];

fn dirset_code(d: DirSet) -> u64 {
    DIRSETS.iter().position(|&x| x == d).expect("all 8 direction sets enumerated") as u64
}

fn binop_code(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Pow => "pow",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::And => "and",
        BinOp::Or => "or",
        BinOp::Concat => "concat",
    }
}

fn binop_parse(s: &str) -> Option<BinOp> {
    Some(match s {
        "add" => BinOp::Add,
        "sub" => BinOp::Sub,
        "mul" => BinOp::Mul,
        "div" => BinOp::Div,
        "pow" => BinOp::Pow,
        "lt" => BinOp::Lt,
        "le" => BinOp::Le,
        "gt" => BinOp::Gt,
        "ge" => BinOp::Ge,
        "eq" => BinOp::Eq,
        "ne" => BinOp::Ne,
        "and" => BinOp::And,
        "or" => BinOp::Or,
        "concat" => BinOp::Concat,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Expression round trip (AuxInduction steps embed arbitrary expressions).

fn expr_to_json(e: &Expr) -> Json {
    let tag = |t: &str, rest: Vec<(&str, Json)>| {
        let mut pairs = vec![("t", Json::str(t))];
        pairs.extend(rest);
        Json::obj(pairs)
    };
    match e {
        Expr::Int(n) => tag("int", vec![("v", dec_i64(*n))]),
        Expr::Real(x) => tag("real", vec![("v", bits_f64(*x))]),
        Expr::Double(x) => tag("double", vec![("v", bits_f64(*x))]),
        Expr::Logical(b) => tag("logical", vec![("v", Json::Bool(*b))]),
        Expr::Str(s) => tag("str", vec![("v", Json::str(s))]),
        Expr::Var(s) => tag("var", vec![("sym", small(s.0 as u64))]),
        Expr::ArrayRef { sym, subs } => tag(
            "aref",
            vec![
                ("sym", small(sym.0 as u64)),
                ("subs", Json::Arr(subs.iter().map(expr_to_json).collect())),
            ],
        ),
        Expr::Bin { op, l, r } => tag(
            "bin",
            vec![
                ("op", Json::str(binop_code(*op))),
                ("l", expr_to_json(l)),
                ("r", expr_to_json(r)),
            ],
        ),
        Expr::Un { op, e } => tag(
            "un",
            vec![
                ("op", Json::str(match op {
                    UnOp::Neg => "neg",
                    UnOp::Not => "not",
                })),
                ("e", expr_to_json(e)),
            ],
        ),
        Expr::Intrinsic { op, args } => tag(
            "intr",
            vec![
                ("op", Json::str(op.name())),
                ("args", Json::Arr(args.iter().map(expr_to_json).collect())),
            ],
        ),
        Expr::Call { name, args } => tag(
            "call",
            vec![
                ("name", Json::str(name)),
                ("args", Json::Arr(args.iter().map(expr_to_json).collect())),
            ],
        ),
    }
}

fn expr_from_json(v: &Json) -> Option<Expr> {
    let exprs = |key: &str| -> Option<Vec<Expr>> {
        v.get(key)?.as_arr()?.iter().map(expr_from_json).collect()
    };
    Some(match v.get("t")?.as_str()? {
        "int" => Expr::Int(un_dec_i64(v.get("v")?)?),
        "real" => Expr::Real(un_bits_f64(v.get("v")?)?),
        "double" => Expr::Double(un_bits_f64(v.get("v")?)?),
        "logical" => Expr::Logical(v.get("v")?.as_bool()?),
        "str" => Expr::Str(v.get("v")?.as_str()?.to_string()),
        "var" => Expr::Var(SymId(v.get("sym")?.as_u64()? as u32)),
        "aref" => Expr::ArrayRef {
            sym: SymId(v.get("sym")?.as_u64()? as u32),
            subs: exprs("subs")?,
        },
        "bin" => Expr::Bin {
            op: binop_parse(v.get("op")?.as_str()?)?,
            l: Box::new(expr_from_json(v.get("l")?)?),
            r: Box::new(expr_from_json(v.get("r")?)?),
        },
        "un" => Expr::Un {
            op: match v.get("op")?.as_str()? {
                "neg" => UnOp::Neg,
                "not" => UnOp::Not,
                _ => return None,
            },
            e: Box::new(expr_from_json(v.get("e")?)?),
        },
        "intr" => Expr::Intrinsic {
            op: Intrinsic::from_name(v.get("op")?.as_str()?)?,
            args: exprs("args")?,
        },
        "call" => Expr::Call { name: v.get("name")?.as_str()?.to_string(), args: exprs("args")? },
        _ => return None,
    })
}

fn class_to_json(c: &ScalarClass) -> Json {
    match c {
        ScalarClass::ReadOnly => Json::obj(vec![("t", Json::str("read_only"))]),
        ScalarClass::LoopIndex => Json::obj(vec![("t", Json::str("loop_index"))]),
        ScalarClass::Private { needs_lastprivate } => Json::obj(vec![
            ("t", Json::str("private")),
            ("lastprivate", Json::Bool(*needs_lastprivate)),
        ]),
        ScalarClass::Reduction(r) => Json::obj(vec![
            ("t", Json::str("reduction")),
            ("op", Json::str(red_code(*r))),
        ]),
        ScalarClass::AuxInduction { step } => Json::obj(vec![
            ("t", Json::str("aux_induction")),
            ("step", expr_to_json(step)),
        ]),
        ScalarClass::Shared => Json::obj(vec![("t", Json::str("shared"))]),
    }
}

fn class_from_json(v: &Json) -> Option<ScalarClass> {
    Some(match v.get("t")?.as_str()? {
        "read_only" => ScalarClass::ReadOnly,
        "loop_index" => ScalarClass::LoopIndex,
        "private" => {
            ScalarClass::Private { needs_lastprivate: v.get("lastprivate")?.as_bool()? }
        }
        "reduction" => ScalarClass::Reduction(red_parse(v.get("op")?.as_str()?)?),
        "aux_induction" => {
            ScalarClass::AuxInduction { step: expr_from_json(v.get("step")?)? }
        }
        "shared" => ScalarClass::Shared,
        _ => return None,
    })
}

fn dep_to_json(d: &Dependence) -> Json {
    Json::obj(vec![
        ("id", small(d.id as u64)),
        ("src", small(d.src.0 as u64)),
        ("dst", small(d.dst.0 as u64)),
        (
            "var",
            d.var.map_or(Json::Null, |s| small(s.0 as u64)),
        ),
        ("kind", Json::str(kind_code(d.kind))),
        ("cause", cause_to_json(&d.cause)),
        ("dirs", Json::Arr(d.dirs.0.iter().map(|&s| small(dirset_code(s))).collect())),
        (
            "dist",
            Json::Arr(d.dist.iter().map(|o| o.map_or(Json::Null, dec_i64)).collect()),
        ),
        ("level", d.level.map_or(Json::Null, |l| small(l as u64))),
        ("proven", Json::Bool(d.proven)),
        ("tests", Json::Arr(d.tests.iter().map(|&t| Json::str(test_code(t))).collect())),
    ])
}

fn dep_from_json(v: &Json) -> Option<Dependence> {
    let opt_u64 = |key: &str| -> Option<Option<u64>> {
        match v.get(key)? {
            Json::Null => Some(None),
            other => Some(Some(other.as_u64()?)),
        }
    };
    Some(Dependence {
        id: v.get("id")?.as_u64()? as usize,
        src: StmtId(v.get("src")?.as_u64()? as u32),
        dst: StmtId(v.get("dst")?.as_u64()? as u32),
        var: opt_u64("var")?.map(|s| SymId(s as u32)),
        kind: kind_parse(v.get("kind")?.as_str()?)?,
        cause: cause_from_json(v.get("cause")?)?,
        dirs: DirVector(
            v.get("dirs")?
                .as_arr()?
                .iter()
                .map(|s| {
                    let i = s.as_u64()? as usize;
                    DIRSETS.get(i).copied()
                })
                .collect::<Option<Vec<DirSet>>>()?,
        ),
        dist: v
            .get("dist")?
            .as_arr()?
            .iter()
            .map(|o| match o {
                Json::Null => Some(None),
                other => Some(Some(un_dec_i64(other)?)),
            })
            .collect::<Option<Vec<Option<i64>>>>()?,
        level: opt_u64("level")?.map(|l| l as usize),
        proven: v.get("proven")?.as_bool()?,
        tests: v
            .get("tests")?
            .as_arr()?
            .iter()
            .map(|t| test_parse(t.as_str()?))
            .collect::<Option<Vec<TestName>>>()?,
    })
}

fn array_class_to_json(c: &ArrayClass) -> Json {
    Json::obj(vec![
        ("written", Json::Bool(c.written)),
        ("read", Json::Bool(c.read)),
        ("exposed_bottom", Json::Bool(c.exposed_bottom)),
        ("privatizable", Json::Bool(c.privatizable)),
        ("no_carried_flow", Json::Bool(c.no_carried_flow)),
        ("live_after", Json::Bool(c.live_after)),
        (
            "reason",
            match c.reason {
                None => Json::Null,
                Some(TopReason::KillGap) => Json::str("kill_gap"),
                Some(TopReason::SymbolicTop) => Json::str("symbolic_top"),
            },
        ),
        ("kill_desc", Json::str(&c.kill_desc)),
        ("exposed_desc", Json::str(&c.exposed_desc)),
    ])
}

fn array_class_from_json(v: &Json) -> Option<ArrayClass> {
    Some(ArrayClass {
        written: v.get("written")?.as_bool()?,
        read: v.get("read")?.as_bool()?,
        exposed_bottom: v.get("exposed_bottom")?.as_bool()?,
        privatizable: v.get("privatizable")?.as_bool()?,
        no_carried_flow: v.get("no_carried_flow")?.as_bool()?,
        live_after: v.get("live_after")?.as_bool()?,
        reason: match v.get("reason")? {
            Json::Null => None,
            other => Some(match other.as_str()? {
                "kill_gap" => TopReason::KillGap,
                "symbolic_top" => TopReason::SymbolicTop,
                _ => return None,
            }),
        },
        kill_desc: v.get("kill_desc")?.as_str()?.to_string(),
        exposed_desc: v.get("exposed_desc")?.as_str()?.to_string(),
    })
}

fn stored_to_json(e: &StoredGraph) -> Json {
    // scalar_classes is a HashMap: sort by symbol so the emitted bytes are
    // deterministic (nice for diffing store directories).
    let mut classes: Vec<(&SymId, &ScalarClass)> = e.graph.scalar_classes.iter().collect();
    classes.sort_by_key(|(s, _)| s.0);
    let mut aclasses: Vec<(&SymId, &ArrayClass)> = e.graph.array_classes.iter().collect();
    aclasses.sort_by_key(|(s, _)| s.0);
    Json::obj(vec![
        ("store_version", small(STORE_VERSION)),
        ("unit", Json::str(&e.unit)),
        ("header", small(e.header as u64)),
        ("loop_fp", hex_u64(e.loop_fp)),
        ("ctx_fp", hex_u64(e.ctx_fp)),
        ("vis_fp", hex_u64(e.vis_fp)),
        ("graph_header", small(e.graph.header.0 as u64)),
        ("deps", Json::Arr(e.graph.deps.iter().map(dep_to_json).collect())),
        (
            "classes",
            Json::Arr(
                classes
                    .into_iter()
                    .map(|(s, c)| {
                        Json::obj(vec![("sym", small(s.0 as u64)), ("class", class_to_json(c))])
                    })
                    .collect(),
            ),
        ),
        (
            "array_classes",
            Json::Arr(
                aclasses
                    .into_iter()
                    .map(|(s, c)| {
                        Json::obj(vec![
                            ("sym", small(s.0 as u64)),
                            ("class", array_class_to_json(c)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn stored_from_json(v: &Json) -> Option<StoredGraph> {
    if v.get("store_version")?.as_u64()? != STORE_VERSION {
        return None;
    }
    let deps = v
        .get("deps")?
        .as_arr()?
        .iter()
        .map(dep_from_json)
        .collect::<Option<Vec<Dependence>>>()?;
    let mut scalar_classes = std::collections::HashMap::new();
    for c in v.get("classes")?.as_arr()? {
        scalar_classes
            .insert(SymId(c.get("sym")?.as_u64()? as u32), class_from_json(c.get("class")?)?);
    }
    let mut array_classes = std::collections::HashMap::new();
    for c in v.get("array_classes")?.as_arr()? {
        array_classes.insert(
            SymId(c.get("sym")?.as_u64()? as u32),
            array_class_from_json(c.get("class")?)?,
        );
    }
    Some(StoredGraph {
        unit: v.get("unit")?.as_str()?.to_string(),
        header: v.get("header")?.as_u64()? as u32,
        loop_fp: un_hex_u64(v.get("loop_fp")?)?,
        ctx_fp: un_hex_u64(v.get("ctx_fp")?)?,
        vis_fp: un_hex_u64(v.get("vis_fp")?)?,
        graph: DepGraph {
            header: StmtId(v.get("graph_header")?.as_u64()? as u32),
            deps,
            scalar_classes,
            array_classes,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> DepGraph {
        let mut scalar_classes = std::collections::HashMap::new();
        scalar_classes.insert(SymId(1), ScalarClass::ReadOnly);
        scalar_classes.insert(SymId(2), ScalarClass::Private { needs_lastprivate: true });
        scalar_classes.insert(SymId(3), ScalarClass::Reduction(RedOp::Max));
        scalar_classes.insert(
            SymId(4),
            ScalarClass::AuxInduction {
                step: Expr::Bin {
                    op: BinOp::Mul,
                    l: Box::new(Expr::Var(SymId(5))),
                    // A value with no exact decimal form: the bit-pattern
                    // encoding must bring it back exactly.
                    r: Box::new(Expr::Real(0.1f64.next_up())),
                },
            },
        );
        let mut array_classes = std::collections::HashMap::new();
        array_classes.insert(
            SymId(6),
            ArrayClass {
                written: true,
                read: true,
                exposed_bottom: true,
                privatizable: true,
                no_carried_flow: true,
                live_after: false,
                reason: None,
                kill_desc: "[1:32]".to_string(),
                exposed_desc: "⊥".to_string(),
            },
        );
        array_classes.insert(
            SymId(7),
            ArrayClass {
                written: true,
                read: true,
                exposed_bottom: false,
                privatizable: false,
                no_carried_flow: false,
                live_after: true,
                reason: Some(TopReason::KillGap),
                kill_desc: "[1:31]".to_string(),
                exposed_desc: "[32:32]".to_string(),
            },
        );
        DepGraph {
            header: StmtId(7),
            deps: vec![
                Dependence {
                    id: 0,
                    src: StmtId(8),
                    dst: StmtId(9),
                    var: Some(SymId(2)),
                    kind: DepKind::True,
                    cause: DepCause::Array,
                    dirs: DirVector(vec![DirSet::LT, DirSet::ANY, DirSet::EQ]),
                    dist: vec![Some(1), None, Some(-3)],
                    level: Some(1),
                    proven: true,
                    tests: vec![TestName::StrongSiv, TestName::Banerjee],
                },
                Dependence {
                    id: 1,
                    src: StmtId(9),
                    dst: StmtId(8),
                    var: None,
                    kind: DepKind::Anti,
                    cause: DepCause::Reduction(RedOp::Sum),
                    dirs: DirVector(vec![DirSet::NONE]),
                    dist: vec![None],
                    level: None,
                    proven: false,
                    tests: vec![TestName::NonAffine],
                },
            ],
            scalar_classes,
            array_classes,
        }
    }

    #[test]
    fn graph_round_trips_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("ped_store_rt_{}", std::process::id()));
        let store = GraphStore::open(&dir).unwrap();
        let entry = StoredGraph {
            unit: "main".to_string(),
            header: 7,
            loop_fp: u64::MAX - 3, // beyond 2^53: must survive JSON
            ctx_fp: 0x0123_4567_89ab_cdef,
            vis_fp: 1,
            graph: sample_graph(),
        };
        store.save(&entry).unwrap();
        let back = store.load("main", 7, u64::MAX - 3, 0x0123_4567_89ab_cdef, 1).unwrap();
        assert_eq!(back, entry.graph);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_key_and_garbage_are_misses() {
        let dir = std::env::temp_dir().join(format!("ped_store_miss_{}", std::process::id()));
        let store = GraphStore::open(&dir).unwrap();
        let entry = StoredGraph {
            unit: "main".to_string(),
            header: 7,
            loop_fp: 10,
            ctx_fp: 20,
            vis_fp: 30,
            graph: sample_graph(),
        };
        store.save(&entry).unwrap();
        assert!(store.load("main", 7, 10, 20, 31).is_none(), "stale vis_fp must miss");
        assert!(store.load("other", 7, 10, 20, 30).is_none(), "other unit must miss");
        // A corrupt file at the right path is a miss, not an error.
        let path = store.path_of("main", 7, 10, 20, 30);
        std::fs::write(&path, "{not json").unwrap();
        assert!(store.load("main", 7, 10, 20, 30).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }
}
