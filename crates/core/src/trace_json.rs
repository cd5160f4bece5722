//! A lossless JSON serialization for proof traces.
//!
//! `serde` is unavailable in this build environment (the container has no
//! registry access), so this module hand-rolls the one serialization the
//! repo needs: [`TraceStep`] and [`ProofTrace`] to and from JSON, shared
//! by the telemetry sinks ([`crate::telemetry`]) and the replay checker
//! ([`crate::checker::check_json`]). Keeping encoder and decoder next to
//! each other — and round-tripping every example's real trace in the
//! bench tests — is the stand-in for a derived implementation.
//!
//! Integers wider than 53 bits (`i128` literals, `u64` locations and
//! ghost names) are encoded as JSON *strings* so no consumer can lose
//! precision going through a float; everything else is plain JSON.
//!
//! Two `TraceStep` fields are `&'static str` (`PureStep::rule`,
//! `DisjunctChosen::{side, reason}`); the decoder maps them back onto the
//! engine's known literals and rejects unknown values. The bench
//! round-trip test over all examples keeps those tables in sync with the
//! strategy.

use crate::trace::{ProofTrace, TraceKind, TraceStep};
use diaframe_logic::Namespace;
use diaframe_term::{EVarId, Level, PureProp, Qp, Rat, Sort, Sym, Term, VarCtx, VarId};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// The revision of the serialized trace format *and* of the checker
/// contract it feeds. Bump this whenever the JSON shape, the
/// [`TraceStep`] grammar, or the replay rules change incompatibly: the
/// engine fingerprint ([`crate::fingerprint::engine_fingerprint`])
/// folds it in, which invalidates every persistent proof-store entry
/// recorded under the old revision — stale traces then miss instead of
/// replaying against rules they were never checked by.
pub const FORMAT_REV: u32 = 1;

// ---------------------------------------------------------------------------
// Errors

/// A decoding failure (malformed JSON or a value outside the trace
/// grammar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace JSON: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

// ---------------------------------------------------------------------------
// Escaping and a minimal JSON value

/// Escapes `s` for inclusion in a JSON string literal (non-ASCII is
/// passed through raw; JSON is UTF-8). Shared by every JSON writer in
/// the workspace: traces, profiles, and the bench crate's snapshots and
/// wire responses.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// Appends `s` to `out` as a quoted JSON string literal.
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends `s` to `out`, escaped as by [`json_escape`].
fn push_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// A parsed JSON value. Numbers keep their raw text so integer consumers
/// never round-trip through `f64`.
///
/// Public because the trace codec is not this parser's only client: the
/// profiler's Chrome-trace validator ([`crate::profile`]) and the bench
/// crate's snapshot-diff reporter (`figure6 --diff`) parse generic JSON
/// documents with it.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text (integers stay exact;
    /// use [`JsonValue::as_u64`] / [`JsonValue::as_f64`] to interpret).
    Num(String),
    /// A string (escapes already decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source field order (duplicate keys kept as-is;
    /// lookups return the first).
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup; `None` for non-objects and missing keys.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool payload, if this is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This number as a `u64`, if it is an unsigned integer literal.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// This number as an `f64` (integers and decimal fractions alike).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The field slice in source order, if this is an object.
    #[must_use]
    pub fn entries(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    fn field<'a>(&'a self, key: &str) -> Result<&'a JsonValue, JsonError> {
        match self.get(key) {
            Some(v) => Ok(v),
            None => err(format!("missing field `{key}`")),
        }
    }

    fn str_field(&self, key: &str) -> Result<&str, JsonError> {
        match self.field(key)? {
            JsonValue::Str(s) => Ok(s),
            v => err(format!("field `{key}`: expected string, got {v:?}")),
        }
    }

    fn bool_field(&self, key: &str) -> Result<bool, JsonError> {
        match self.field(key)? {
            JsonValue::Bool(b) => Ok(*b),
            v => err(format!("field `{key}`: expected bool, got {v:?}")),
        }
    }

    fn usize_field(&self, key: &str) -> Result<usize, JsonError> {
        match self.field(key)? {
            JsonValue::Num(n) => n
                .parse::<usize>()
                .map_err(|_| JsonError(format!("field `{key}`: bad integer {n}"))),
            v => err(format!("field `{key}`: expected number, got {v:?}")),
        }
    }

    fn arr_field<'a>(&'a self, key: &str) -> Result<&'a [JsonValue], JsonError> {
        match self.field(key)? {
            JsonValue::Arr(items) => Ok(items),
            v => err(format!("field `{key}`: expected array, got {v:?}")),
        }
    }

    /// An integer encoded as a JSON string (the wide-integer convention).
    fn wide_int_field<T: std::str::FromStr>(&self, key: &str) -> Result<T, JsonError> {
        match self.field(key)? {
            JsonValue::Str(s) => s
                .parse::<T>()
                .map_err(|_| JsonError(format!("field `{key}`: bad wide integer {s:?}"))),
            v => err(format!(
                "field `{key}`: expected string-encoded integer, got {v:?}"
            )),
        }
    }
}

/// The deepest array/object nesting [`parse_json_value`] accepts. The
/// parser recurses once per level, so an unbounded depth lets a small
/// hostile document (a daemon frame of 10,000 `[`) overflow the stack and
/// abort the process. The deepest documents the repo itself emits are
/// proof-store entries at depth 19 and fuzz-engine traces at 17 (nested
/// terms of a `pure_obligation`); Figure 6 snapshots, telemetry lines
/// and Chrome traces stay at or below 5. 256 leaves more than 10× margin
/// above that and is a quarter of a depth (1,000) that still parses on a
/// 2 MiB thread stack in a debug build.
const MAX_JSON_DEPTH: usize = 256;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return err(format!(
                        "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start || (self.pos == start + 1 && self.bytes[start] == b'-') {
            return err(format!("bad number at byte {start}"));
        }
        // The trace grammar is integer-only, but generic clients (the
        // snapshot-diff reporter reads `search_ms` timings) need decimal
        // fractions. Exponents never occur in anything this repo emits.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return err(format!("bad number at byte {start}"));
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        Ok(JsonValue::Num(text.to_owned()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| JsonError("invalid UTF-8 in string".into()))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError("surrogate \\u escape".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => return err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                _ => return err("unterminated string"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                other => return err(format!("expected `,` or `]`, found {other:?}")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                other => return err(format!("expected `,` or `}}`, found {other:?}")),
            }
        }
    }
}

fn parse_json(text: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// Parse an arbitrary JSON document into a [`JsonValue`] (the whole input
/// must be one value; trailing data is rejected). This is the parser the
/// profiler's trace validator and the bench snapshot-diff reporter use.
///
/// # Errors
/// Returns a [`JsonError`] describing the first malformed byte, or the
/// first array/object nested more than 256 levels deep.
pub fn parse_json_value(text: &str) -> Result<JsonValue, JsonError> {
    parse_json(text)
}

// ---------------------------------------------------------------------------
// Static-literal tables

/// The `PureStep` rules the strategy emits; `PureStep::rule` is a
/// `&'static str`, so decoding must map back onto these literals.
const PURE_STEP_RULES: [&str; 7] = [
    "if-true",
    "if-false",
    "head-step",
    "arith-sym",
    "neg-sym",
    "cmp-true",
    "cmp-false",
];

const DISJUNCT_SIDES: [&str; 2] = ["left", "right"];

const DISJUNCT_REASONS: [&str; 3] = ["left guard refuted", "right guard refuted", "backtracking"];

fn intern(value: &str, table: &[&'static str], what: &str) -> Result<&'static str, JsonError> {
    match table.iter().find(|t| **t == value) {
        Some(t) => Ok(t),
        None => err(format!("unknown {what} {value:?}")),
    }
}

// ---------------------------------------------------------------------------
// Encoding

fn sym_name(sym: Sym) -> &'static str {
    match sym {
        Sym::Add => "add",
        Sym::Sub => "sub",
        Sym::Neg => "neg",
        Sym::Mul => "mul",
        Sym::Min => "min",
        Sym::Max => "max",
        Sym::VInt => "v_int",
        Sym::VBool => "v_bool",
        Sym::VUnit => "v_unit",
        Sym::VLoc => "v_loc",
        Sym::VPair => "v_pair",
        Sym::VInjL => "v_injl",
        Sym::VInjR => "v_injr",
        Sym::Fst => "fst",
        Sym::Snd => "snd",
    }
}

fn sym_from_name(name: &str) -> Result<Sym, JsonError> {
    const ALL: [Sym; 15] = [
        Sym::Add,
        Sym::Sub,
        Sym::Neg,
        Sym::Mul,
        Sym::Min,
        Sym::Max,
        Sym::VInt,
        Sym::VBool,
        Sym::VUnit,
        Sym::VLoc,
        Sym::VPair,
        Sym::VInjL,
        Sym::VInjR,
        Sym::Fst,
        Sym::Snd,
    ];
    match ALL.into_iter().find(|s| sym_name(*s) == name) {
        Some(s) => Ok(s),
        None => err(format!("unknown symbol {name:?}")),
    }
}

fn sort_name(sort: Sort) -> &'static str {
    match sort {
        Sort::Int => "int",
        Sort::Bool => "bool",
        Sort::Val => "val",
        Sort::Loc => "loc",
        Sort::Qp => "qp",
        Sort::GhostName => "gname",
        Sort::Unit => "unit",
    }
}

fn sort_from_name(name: &str) -> Result<Sort, JsonError> {
    const ALL: [Sort; 7] = [
        Sort::Int,
        Sort::Bool,
        Sort::Val,
        Sort::Loc,
        Sort::Qp,
        Sort::GhostName,
        Sort::Unit,
    ];
    match ALL.into_iter().find(|s| sort_name(*s) == name) {
        Some(s) => Ok(s),
        None => err(format!("unknown sort {name:?}")),
    }
}

fn term_json(t: &Term, out: &mut String) {
    match t {
        Term::Var(v) => {
            let _ = write!(out, "{{\"v\":{}}}", v.index());
        }
        Term::EVar(e) => {
            let _ = write!(out, "{{\"e\":{}}}", e.index());
        }
        Term::Int(i) => {
            let _ = write!(out, "{{\"i\":\"{i}\"}}");
        }
        Term::Bool(b) => {
            let _ = write!(out, "{{\"b\":{b}}}");
        }
        Term::QpLit(q) => {
            let r = q.as_rat();
            let _ = write!(
                out,
                "{{\"q\":[\"{}\",\"{}\"]}}",
                r.numerator(),
                r.denominator()
            );
        }
        Term::Loc(l) => {
            let _ = write!(out, "{{\"l\":\"{l}\"}}");
        }
        Term::Gname(g) => {
            let _ = write!(out, "{{\"g\":\"{g}\"}}");
        }
        Term::App(sym, args) => {
            let _ = write!(out, "{{\"a\":\"{}\",\"ts\":[", sym_name(*sym));
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                term_json(a, out);
            }
            out.push_str("]}");
        }
    }
}

fn term_from_json(v: &JsonValue) -> Result<Term, JsonError> {
    let obj = match v {
        JsonValue::Obj(_) => v,
        other => return err(format!("expected term object, got {other:?}")),
    };
    if let Some(JsonValue::Num(n)) = obj.get("v") {
        let idx: usize = n
            .parse()
            .map_err(|_| JsonError(format!("bad var index {n}")))?;
        return Ok(Term::Var(VarId::from_index(idx)));
    }
    if let Some(JsonValue::Num(n)) = obj.get("e") {
        let idx: usize = n
            .parse()
            .map_err(|_| JsonError(format!("bad evar index {n}")))?;
        return Ok(Term::EVar(EVarId::from_index(idx)));
    }
    if obj.get("i").is_some() {
        return Ok(Term::Int(obj.wide_int_field("i")?));
    }
    if obj.get("b").is_some() {
        return Ok(Term::Bool(obj.bool_field("b")?));
    }
    if let Some(JsonValue::Arr(parts)) = obj.get("q") {
        if let [JsonValue::Str(num), JsonValue::Str(den)] = parts.as_slice() {
            let num: i128 = num
                .parse()
                .map_err(|_| JsonError(format!("bad fraction numerator {num:?}")))?;
            let den: i128 = den
                .parse()
                .map_err(|_| JsonError(format!("bad fraction denominator {den:?}")))?;
            let q = Qp::from_rat(Rat::new(num, den))
                .ok_or_else(|| JsonError(format!("non-positive fraction {num}/{den}")))?;
            return Ok(Term::QpLit(q));
        }
        return err("fraction must be a pair of string-encoded integers");
    }
    if obj.get("l").is_some() {
        return Ok(Term::Loc(obj.wide_int_field("l")?));
    }
    if obj.get("g").is_some() {
        return Ok(Term::Gname(obj.wide_int_field("g")?));
    }
    if obj.get("a").is_some() {
        let sym = sym_from_name(obj.str_field("a")?)?;
        let args = obj
            .arr_field("ts")?
            .iter()
            .map(term_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if args.len() != sym.arity() {
            return err(format!(
                "symbol {} expects {} arguments, got {}",
                sym_name(sym),
                sym.arity(),
                args.len()
            ));
        }
        return Ok(Term::App(sym, args.into()));
    }
    err(format!("unrecognized term {obj:?}"))
}

fn prop_json(p: &PureProp, out: &mut String) {
    let binary = |tag: &str, l: &Term, r: &Term, out: &mut String| {
        let _ = write!(out, "{{\"p\":\"{tag}\",\"l\":");
        term_json(l, out);
        out.push_str(",\"r\":");
        term_json(r, out);
        out.push('}');
    };
    match p {
        PureProp::True => out.push_str("{\"p\":\"true\"}"),
        PureProp::False => out.push_str("{\"p\":\"false\"}"),
        PureProp::Eq(l, r) => binary("eq", l, r, out),
        PureProp::Ne(l, r) => binary("ne", l, r, out),
        PureProp::Le(l, r) => binary("le", l, r, out),
        PureProp::Lt(l, r) => binary("lt", l, r, out),
        PureProp::And(l, r) | PureProp::Or(l, r) | PureProp::Implies(l, r) => {
            let tag = match p {
                PureProp::And(..) => "and",
                PureProp::Or(..) => "or",
                _ => "implies",
            };
            let _ = write!(out, "{{\"p\":\"{tag}\",\"l\":");
            prop_json(l, out);
            out.push_str(",\"r\":");
            prop_json(r, out);
            out.push('}');
        }
        PureProp::Not(x) => {
            out.push_str("{\"p\":\"not\",\"x\":");
            prop_json(x, out);
            out.push('}');
        }
    }
}

fn prop_from_json(v: &JsonValue) -> Result<PureProp, JsonError> {
    let tag = v.str_field("p")?;
    match tag {
        "true" => Ok(PureProp::True),
        "false" => Ok(PureProp::False),
        "eq" | "ne" | "le" | "lt" => {
            let l = term_from_json(v.field("l")?)?;
            let r = term_from_json(v.field("r")?)?;
            Ok(match tag {
                "eq" => PureProp::Eq(l, r),
                "ne" => PureProp::Ne(l, r),
                "le" => PureProp::Le(l, r),
                _ => PureProp::Lt(l, r),
            })
        }
        "and" | "or" | "implies" => {
            let l = Box::new(prop_from_json(v.field("l")?)?);
            let r = Box::new(prop_from_json(v.field("r")?)?);
            Ok(match tag {
                "and" => PureProp::And(l, r),
                "or" => PureProp::Or(l, r),
                _ => PureProp::Implies(l, r),
            })
        }
        "not" => Ok(PureProp::Not(Box::new(prop_from_json(v.field("x")?)?))),
        other => err(format!("unknown proposition tag {other:?}")),
    }
}

/// Appends one universal variable of a [`VarCtx`] as a canonical JSON
/// object.
fn push_var_entry(out: &mut String, vars: &VarCtx, i: usize) {
    let v = VarId::from_index(i);
    let _ = write!(
        out,
        "{{\"sort\":\"{}\",\"level\":{},\"name\":",
        sort_name(vars.var_sort(v)),
        vars.var_level(v)
    );
    push_json_str(out, vars.var_name(v));
    out.push('}');
}

/// Appends one evar of a [`VarCtx`] as a canonical JSON object.
fn push_evar_entry(out: &mut String, vars: &VarCtx, i: usize) {
    let e = EVarId::from_index(i);
    let _ = write!(
        out,
        "{{\"sort\":\"{}\",\"level\":{},\"sol\":",
        sort_name(vars.evar_sort(e)),
        vars.evar_level(e)
    );
    match vars.evar_solution(e) {
        Some(t) => term_json(t, out),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn varctx_json(vars: &VarCtx, out: &mut String) {
    let _ = write!(out, "{{\"level\":{},\"vars\":[", vars.level());
    for i in 0..vars.num_vars() {
        if i > 0 {
            out.push(',');
        }
        push_var_entry(out, vars, i);
    }
    out.push_str("],\"evars\":[");
    for i in 0..vars.num_evars() {
        if i > 0 {
            out.push(',');
        }
        push_evar_entry(out, vars, i);
    }
    out.push_str("]}");
}

fn var_entry_from_json(entry: &JsonValue) -> Result<(Sort, u32, &str), JsonError> {
    let sort = sort_from_name(entry.str_field("sort")?)?;
    let level = u32::try_from(entry.usize_field("level")?)
        .map_err(|_| JsonError("variable level out of range".into()))?;
    Ok((sort, level, entry.str_field("name")?))
}

fn evar_entry_from_json(entry: &JsonValue) -> Result<(Sort, u32, Option<Term>), JsonError> {
    let sort = sort_from_name(entry.str_field("sort")?)?;
    let level = u32::try_from(entry.usize_field("level")?)
        .map_err(|_| JsonError("evar level out of range".into()))?;
    let sol = match entry.field("sol")? {
        JsonValue::Null => None,
        t => Some(term_from_json(t)?),
    };
    Ok((sort, level, sol))
}

fn varctx_from_json(v: &JsonValue) -> Result<VarCtx, JsonError> {
    let mut ctx = VarCtx::new();
    for entry in v.arr_field("vars")? {
        let (sort, level, name) = var_entry_from_json(entry)?;
        ctx.push_raw_var(sort, level, name);
    }
    for entry in v.arr_field("evars")? {
        let (sort, level, sol) = evar_entry_from_json(entry)?;
        ctx.push_raw_evar(sort, level, sol);
    }
    ctx.set_level(
        u32::try_from(v.usize_field("level")?)
            .map_err(|_| JsonError("context level out of range".into()))?,
    );
    Ok(ctx)
}

/// Encodes one step as a single-line JSON object tagged by
/// [`TraceKind::name`].
#[must_use]
pub fn step_to_json(step: &TraceStep) -> String {
    let mut out = String::new();
    push_step(&mut out, step);
    out
}

/// Appends the [`step_to_json`] encoding of `step` to `out`.
fn push_step(out: &mut String, step: &TraceStep) {
    let _ = write!(out, "{{\"step\":\"{}\"", step.kind().name());
    match step {
        TraceStep::IntroVar { name } => {
            out.push_str(",\"name\":");
            push_json_str(out, name);
        }
        TraceStep::IntroHyp { hyp } => {
            out.push_str(",\"hyp\":");
            push_json_str(out, hyp);
        }
        TraceStep::Fact { prop } => {
            out.push_str(",\"prop\":");
            prop_json(prop, out);
        }
        TraceStep::PureStep { rule } => {
            out.push_str(",\"rule\":");
            push_json_str(out, rule);
        }
        TraceStep::SymEx { spec, atomic } => {
            out.push_str(",\"spec\":");
            push_json_str(out, spec);
            let _ = write!(out, ",\"atomic\":{atomic}");
        }
        TraceStep::HintApplied { rules, hyp, custom } => {
            out.push_str(",\"rules\":[");
            for (i, r) in rules.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(out, r);
            }
            out.push_str("],\"hyp\":");
            match hyp {
                Some(h) => push_json_str(out, h),
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"custom\":{custom}");
        }
        TraceStep::InvOpened { ns } | TraceStep::InvClosed { ns } => {
            out.push_str(",\"ns\":");
            push_json_str(out, ns.as_str());
        }
        TraceStep::PureObligation { facts, goal, vars } => {
            out.push_str(",\"facts\":[");
            for (i, f) in facts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                prop_json(f, out);
            }
            out.push_str("],\"goal\":");
            prop_json(goal, out);
            out.push_str(",\"vars\":");
            varctx_json(vars, out);
        }
        TraceStep::Contradiction { rule } => {
            out.push_str(",\"rule\":");
            push_json_str(out, rule);
        }
        TraceStep::CaseSplit { on, branches } => {
            out.push_str(",\"on\":");
            push_json_str(out, on);
            let _ = write!(out, ",\"branches\":{branches}");
        }
        TraceStep::BranchStart { index } | TraceStep::BranchEnd { index } => {
            let _ = write!(out, ",\"index\":{index}");
        }
        TraceStep::ValueReached => {}
        TraceStep::TacticUsed { name } => {
            out.push_str(",\"name\":");
            push_json_str(out, name);
        }
        TraceStep::DisjunctChosen { side, reason } => {
            let _ = write!(out, ",\"side\":\"{side}\",\"reason\":\"{reason}\"");
        }
    }
    out.push('}');
}

/// Decodes one step from the output of [`step_to_json`].
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed JSON or values outside the trace
/// grammar (e.g. an unknown `pure_step` rule).
pub fn step_from_json(text: &str) -> Result<TraceStep, JsonError> {
    step_from_value(&parse_json(text)?)
}

fn step_from_value(v: &JsonValue) -> Result<TraceStep, JsonError> {
    let tag = v.str_field("step")?;
    let kind =
        TraceKind::from_name(tag).ok_or_else(|| JsonError(format!("unknown step kind {tag:?}")))?;
    Ok(match kind {
        TraceKind::IntroVar => TraceStep::IntroVar {
            name: v.str_field("name")?.to_owned(),
        },
        TraceKind::IntroHyp => TraceStep::IntroHyp {
            hyp: v.str_field("hyp")?.to_owned(),
        },
        TraceKind::Fact => TraceStep::Fact {
            prop: prop_from_json(v.field("prop")?)?,
        },
        TraceKind::PureStep => TraceStep::PureStep {
            rule: intern(v.str_field("rule")?, &PURE_STEP_RULES, "pure-step rule")?,
        },
        TraceKind::SymEx => TraceStep::SymEx {
            spec: v.str_field("spec")?.to_owned(),
            atomic: v.bool_field("atomic")?,
        },
        TraceKind::HintApplied => TraceStep::HintApplied {
            rules: v
                .arr_field("rules")?
                .iter()
                .map(|r| match r {
                    JsonValue::Str(s) => Ok(s.clone()),
                    other => err(format!("hint rule must be a string, got {other:?}")),
                })
                .collect::<Result<Vec<_>, _>>()?,
            hyp: match v.field("hyp")? {
                JsonValue::Null => None,
                JsonValue::Str(s) => Some(s.clone()),
                other => return err(format!("hyp must be a string or null, got {other:?}")),
            },
            custom: v.bool_field("custom")?,
        },
        TraceKind::InvOpened => TraceStep::InvOpened {
            ns: Namespace::new(v.str_field("ns")?),
        },
        TraceKind::InvClosed => TraceStep::InvClosed {
            ns: Namespace::new(v.str_field("ns")?),
        },
        TraceKind::PureObligation => TraceStep::PureObligation {
            facts: v
                .arr_field("facts")?
                .iter()
                .map(prop_from_json)
                .collect::<Result<Vec<_>, _>>()?,
            goal: prop_from_json(v.field("goal")?)?,
            vars: varctx_from_json(v.field("vars")?)?,
        },
        TraceKind::Contradiction => TraceStep::Contradiction {
            rule: v.str_field("rule")?.to_owned(),
        },
        TraceKind::CaseSplit => TraceStep::CaseSplit {
            on: v.str_field("on")?.to_owned(),
            branches: v.usize_field("branches")?,
        },
        TraceKind::BranchStart => TraceStep::BranchStart {
            index: v.usize_field("index")?,
        },
        TraceKind::BranchEnd => TraceStep::BranchEnd {
            index: v.usize_field("index")?,
        },
        TraceKind::ValueReached => TraceStep::ValueReached,
        TraceKind::TacticUsed => TraceStep::TacticUsed {
            name: v.str_field("name")?.to_owned(),
        },
        TraceKind::DisjunctChosen => TraceStep::DisjunctChosen {
            side: intern(v.str_field("side")?, &DISJUNCT_SIDES, "disjunct side")?,
            reason: intern(v.str_field("reason")?, &DISJUNCT_REASONS, "disjunct reason")?,
        },
    })
}

/// Encodes a whole trace as a JSON array of step objects (one step per
/// line, for greppable sink files).
#[must_use]
pub fn trace_to_json(trace: &ProofTrace) -> String {
    let mut out = String::from("[\n");
    for (i, step) in trace.steps().iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&step_to_json(step));
    }
    out.push_str("\n]");
    out
}

/// Decodes the output of [`trace_to_json`].
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed input (see [`step_from_json`]).
pub fn trace_from_json(text: &str) -> Result<ProofTrace, JsonError> {
    trace_from_value(&parse_json(text)?)
}

/// Decodes a trace from an already-parsed [`JsonValue`] (the array shape
/// of [`trace_to_json`]). Lets a containing document — e.g. a proof-store
/// entry holding one trace per spec — be parsed once and its traces
/// decoded in place, instead of re-parsing each trace from an embedded
/// string.
///
/// # Errors
///
/// Returns a [`JsonError`] on a malformed trace (see [`step_from_json`]).
pub fn trace_from_value(v: &JsonValue) -> Result<ProofTrace, JsonError> {
    let items = match v {
        JsonValue::Arr(items) => items,
        other => return err(format!("expected a trace array, got {other:?}")),
    };
    let mut trace = ProofTrace::new();
    for item in items {
        trace.push(step_from_value(item)?);
    }
    Ok(trace)
}

// ---------------------------------------------------------------------------
// Compact trace bundles (the proof store's entry payload)
//
// A raw trace serialization is dominated — often >90% by byte count — by
// `pure_obligation` steps: each one snapshots the *entire* variable
// context so the checker can re-prove the obligation from scratch, and a
// long proof re-serializes a few hundred variables per obligation. Those
// snapshots are incremental (each mostly extends an earlier one), so the
// bundle format below shares them: every distinct context is emitted once
// in a table, delta-encoded against the earlier table entry with the
// longest common (vars, evars) prefix, and obligations refer to table
// rows by index. Fact lists are deduplicated the same way (they repeat
// exactly, so a plain table suffices). Everything else reuses the
// canonical per-step encoding, and decoding rebuilds a [`ProofTrace`]
// that is structurally identical to what the canonical codec would have
// produced — the independent checker replays it unchanged.
//
// The encoder never compares rendered contexts. Each distinct var/evar
// entry text gets a dense `u32` id the first time it is rendered. An
// obligation's context is mapped to ids position by position: an entry
// structurally equal to the previous obligation's entry at the same
// position (its text is a function of the compared fields) keeps that
// id unrendered, and any other entry is rendered into a reused buffer
// and looked up by text. The context table is keyed on (level, var ids,
// evar ids), and the delta base is the earliest row with the largest
// common prefix, measured on id slices; identical var-id vectors are
// stored once and prefix-compared once per obligation. Ids are equal
// exactly when texts are, so the rows, bases and bytes are those of
// rendering every entry of every context and matching the texts (the
// reference encoder kept under test). Cost per bundle: one render per
// distinct entry, O(context length) id work per obligation, and for
// each new row one prefix scan over the distinct var vectors plus one
// short evar scan per earlier row. Non-obligation steps are written
// straight into the output buffer.

/// Dense `u32` ids for the distinct var/evar entry texts of one bundle.
/// Each distinct entry is rendered once; two entries get the same id
/// exactly when their canonical texts are equal, so comparing id slices
/// decides the same prefixes and table keys as comparing the texts.
#[derive(Default)]
struct EntryTexts {
    texts: Vec<Rc<str>>,
    ids: HashMap<Rc<str>, u32>,
    /// Render buffer, reused across entries.
    scratch: String,
}

impl EntryTexts {
    fn var(&mut self, vars: &VarCtx, i: usize) -> u32 {
        self.scratch.clear();
        push_var_entry(&mut self.scratch, vars, i);
        self.intern_scratch()
    }

    fn evar(&mut self, vars: &VarCtx, i: usize) -> u32 {
        self.scratch.clear();
        push_evar_entry(&mut self.scratch, vars, i);
        self.intern_scratch()
    }

    fn intern_scratch(&mut self) -> u32 {
        if let Some(&id) = self.ids.get(self.scratch.as_str()) {
            return id;
        }
        let id = u32::try_from(self.texts.len()).expect("context entry ids fit in u32");
        let text: Rc<str> = Rc::from(self.scratch.as_str());
        self.texts.push(Rc::clone(&text));
        self.ids.insert(text, id);
        id
    }

    fn push_joined(&self, out: &mut String, ids: &[u32]) {
        for (i, &id) in ids.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&self.texts[id as usize]);
        }
    }
}

/// The previous obligation's context and its entry ids.
struct PrevCtx<'a> {
    vars: &'a VarCtx,
    /// Index into [`BundleTables::var_vecs`].
    var_vec: usize,
    evar_ids: Rc<[u32]>,
}

/// The context and fact tables built up while encoding a bundle, with
/// their rows written straight into the output buffers.
#[derive(Default)]
struct BundleTables<'a> {
    entries: EntryTexts,
    prev: Option<PrevCtx<'a>>,
    /// The distinct var-id vectors seen so far. Many rows differ only in
    /// their evars, so rows share these and the base search compares
    /// each distinct vector once.
    var_vecs: Vec<Rc<[u32]>>,
    var_vec_index: HashMap<Rc<[u32]>, usize>,
    /// Per context row: its var vector and its evar ids.
    rows: Vec<(usize, Rc<[u32]>)>,
    row_index: HashMap<(Level, usize, Rc<[u32]>), usize>,
    /// The output so far: the bundle's opening and the emitted context
    /// rows.
    out: String,
    fact_out: String,
    fact_index: HashMap<String, usize>,
    fact_scratch: String,
}

/// The length of the longest common prefix of two id slices.
fn common_prefix(a: &[u32], b: &[u32]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    // Whole chunks first: slice equality compiles to a block compare.
    while i + 16 <= n && a[i..i + 16] == b[i..i + 16] {
        i += 16;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

impl<'a> BundleTables<'a> {
    /// The entry ids of `vars`, as an index into `var_vecs` and the evar
    /// ids. An entry that is structurally unchanged from the previous
    /// obligation's context at the same position keeps its id without
    /// being rendered; any other entry is rendered and looked up by its
    /// text.
    fn entry_ids(&mut self, vars: &'a VarCtx) -> (usize, Rc<[u32]>) {
        let prev = self.prev.take();
        let entries = &mut self.entries;
        let empty = VarCtx::new();
        let (old, prev_var_ids, prev_evar_ids) = match &prev {
            Some(p) => (p.vars, &self.var_vecs[p.var_vec][..], &p.evar_ids[..]),
            None => (&empty, &[][..], &[][..]),
        };
        // An unchanged entry renders to the same text, so it keeps its id.
        let var_ids: Vec<u32> = vars
            .unchanged_vars(old)
            .enumerate()
            .map(|(i, same)| {
                if same {
                    prev_var_ids[i]
                } else {
                    entries.var(vars, i)
                }
            })
            .collect();
        let evar_ids: Rc<[u32]> = vars
            .unchanged_evars(old)
            .enumerate()
            .map(|(i, same)| {
                if same {
                    prev_evar_ids[i]
                } else {
                    entries.evar(vars, i)
                }
            })
            .collect();
        let var_vec = match self.var_vec_index.get(&var_ids[..]) {
            Some(&g) => g,
            None => {
                let ids: Rc<[u32]> = var_ids.into();
                self.var_vecs.push(Rc::clone(&ids));
                self.var_vec_index.insert(ids, self.var_vecs.len() - 1);
                self.var_vecs.len() - 1
            }
        };
        self.prev = Some(PrevCtx {
            vars,
            var_vec,
            evar_ids: Rc::clone(&evar_ids),
        });
        (var_vec, evar_ids)
    }

    fn intern_ctx(&mut self, vars: &'a VarCtx) -> usize {
        let (var_vec, evar_ids) = self.entry_ids(vars);
        let key = (vars.level(), var_vec, evar_ids);
        if let Some(&i) = self.row_index.get(&key) {
            return i;
        }
        let (_, _, evar_ids) = &key;
        let var_ids = &self.var_vecs[var_vec];
        // Delta base: the earliest row sharing the longest combined
        // prefix. Var prefixes are computed once per distinct vector; a
        // row whose evars cannot lift it past the best so far is skipped
        // unscanned.
        let var_prefix: Vec<usize> = self
            .var_vecs
            .iter()
            .map(|v| common_prefix(v, var_ids))
            .collect();
        let mut base = None;
        let (mut take, mut etake) = (0usize, 0usize);
        for (b, (g, pe)) in self.rows.iter().enumerate() {
            let t = var_prefix[*g];
            if t + pe.len().min(evar_ids.len()) <= take + etake {
                continue;
            }
            let e = common_prefix(pe, evar_ids);
            if t + e > take + etake {
                (base, take, etake) = (Some(b), t, e);
            }
        }
        let out = &mut self.out;
        if !self.rows.is_empty() {
            out.push(',');
        }
        match base {
            Some(b) => {
                let _ = write!(out, "{{\"base\":{b},\"take\":{take},\"etake\":{etake}");
            }
            None => out.push_str("{\"base\":null,\"take\":0,\"etake\":0"),
        }
        let _ = write!(out, ",\"level\":{},\"vars\":[", vars.level());
        self.entries.push_joined(out, &var_ids[take..]);
        out.push_str("],\"evars\":[");
        self.entries.push_joined(out, &evar_ids[etake..]);
        out.push_str("]}");
        let idx = self.rows.len();
        self.rows.push((var_vec, Rc::clone(evar_ids)));
        self.row_index.insert(key, idx);
        idx
    }

    fn intern_facts(&mut self, facts: &[PureProp]) -> usize {
        let row = &mut self.fact_scratch;
        row.clear();
        row.push('[');
        for (i, f) in facts.iter().enumerate() {
            if i > 0 {
                row.push(',');
            }
            prop_json(f, row);
        }
        row.push(']');
        if let Some(&i) = self.fact_index.get(row.as_str()) {
            return i;
        }
        let idx = self.fact_index.len();
        if idx > 0 {
            self.fact_out.push(',');
        }
        self.fact_out.push_str(row);
        self.fact_index.insert(row.clone(), idx);
        idx
    }
}

/// Encodes a set of named traces as one compact bundle (see the module
/// section comment): variable-context snapshots are delta-shared across
/// *all* the traces, which typically shrinks a long proof by an order of
/// magnitude relative to [`trace_to_json`]. Decode with
/// [`traces_from_compact_value`].
#[must_use]
pub fn traces_to_compact_json(specs: &[(&str, &ProofTrace)]) -> String {
    let mut tables = BundleTables::default();
    tables.out.push_str("{\"varctxs\":[");
    let mut specs_out = String::from("[");
    for (si, &(name, trace)) in specs.iter().enumerate() {
        if si > 0 {
            specs_out.push(',');
        }
        specs_out.push_str("{\"name\":");
        push_json_str(&mut specs_out, name);
        specs_out.push_str(",\"trace\":[");
        for (i, step) in trace.steps().iter().enumerate() {
            if i > 0 {
                specs_out.push(',');
            }
            match step {
                TraceStep::PureObligation { facts, goal, vars } => {
                    let fi = tables.intern_facts(facts);
                    let vi = tables.intern_ctx(vars);
                    let _ = write!(
                        specs_out,
                        "{{\"step\":\"pure_obligation\",\"facts\":{fi},\"goal\":"
                    );
                    prop_json(goal, &mut specs_out);
                    let _ = write!(specs_out, ",\"vars\":{vi}}}");
                }
                other => push_step(&mut specs_out, other),
            }
        }
        specs_out.push_str("]}");
    }
    specs_out.push(']');
    let mut out = tables.out;
    out.reserve(tables.fact_out.len() + specs_out.len() + 32);
    out.push_str("],\"factsets\":[");
    out.push_str(&tables.fact_out);
    out.push_str("],\"specs\":");
    out.push_str(&specs_out);
    out.push('}');
    out
}

/// Decodes a parsed bundle produced by [`traces_to_compact_json`] back
/// into its named traces.
///
/// # Errors
///
/// Returns a [`JsonError`] on malformed input — including dangling or
/// forward table references and prefix lengths exceeding their base,
/// which a corrupted store entry could present.
pub fn traces_from_compact_value(v: &JsonValue) -> Result<Vec<(String, ProofTrace)>, JsonError> {
    let mut table: Vec<VarCtx> = Vec::new();
    for (i, entry) in v.arr_field("varctxs")?.iter().enumerate() {
        let take = entry.usize_field("take")?;
        let etake = entry.usize_field("etake")?;
        let mut ctx = match entry.field("base")? {
            JsonValue::Null if take == 0 && etake == 0 => VarCtx::new(),
            JsonValue::Null => return err(format!("varctx {i}: baseless row takes a prefix")),
            b => {
                let b = b
                    .as_u64()
                    .and_then(|b| usize::try_from(b).ok())
                    .ok_or_else(|| JsonError(format!("varctx {i}: bad base {b:?}")))?;
                // Rows may only reference earlier rows, so the table so
                // far bounds the reference.
                let base = table
                    .get(b)
                    .ok_or_else(|| JsonError(format!("varctx {i}: base {b} out of range")))?;
                if take > base.num_vars() || etake > base.num_evars() {
                    return err(format!("varctx {i}: prefix exceeds base {b}"));
                }
                base.prefix(take, etake)
            }
        };
        for e in entry.arr_field("vars")? {
            let (sort, level, name) = var_entry_from_json(e)?;
            ctx.push_raw_var(sort, level, name);
        }
        for e in entry.arr_field("evars")? {
            let (sort, level, sol) = evar_entry_from_json(e)?;
            ctx.push_raw_evar(sort, level, sol);
        }
        ctx.set_level(
            u32::try_from(entry.usize_field("level")?)
                .map_err(|_| JsonError("context level out of range".into()))?,
        );
        table.push(ctx);
    }
    let mut factsets: Vec<Vec<PureProp>> = Vec::new();
    for row in v.arr_field("factsets")? {
        let items = row
            .as_array()
            .ok_or_else(|| JsonError("factset must be an array".into()))?;
        factsets.push(
            items
                .iter()
                .map(prop_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        );
    }
    let mut out = Vec::new();
    for spec in v.arr_field("specs")? {
        let name = spec.str_field("name")?;
        let mut trace = ProofTrace::new();
        for item in spec.arr_field("trace")? {
            if item.str_field("step")? == "pure_obligation" {
                let fi = item.usize_field("facts")?;
                let vi = item.usize_field("vars")?;
                let facts = factsets
                    .get(fi)
                    .ok_or_else(|| JsonError(format!("{name}: factset {fi} out of range")))?
                    .clone();
                let vars = table
                    .get(vi)
                    .ok_or_else(|| JsonError(format!("{name}: varctx {vi} out of range")))?
                    .clone();
                trace.push(TraceStep::PureObligation {
                    facts,
                    goal: prop_from_json(item.field("goal")?)?,
                    vars,
                });
            } else {
                trace.push(step_from_value(item)?);
            }
        }
        out.push((name.to_owned(), trace));
    }
    Ok(out)
}

/// The original string-keyed bundle encoder, kept verbatim as the
/// reference oracle for [`traces_to_compact_json`]: it re-renders every
/// context entry of every obligation and prefix-matches row texts, so it
/// is quadratic, but its bytes are the format's definition.
#[cfg(test)]
mod reference {
    use super::*;

    /// One universal variable of a [`VarCtx`] as a canonical JSON object.
    fn var_entry_json(vars: &VarCtx, i: usize) -> String {
        let v = VarId::from_index(i);
        format!(
            "{{\"sort\":\"{}\",\"level\":{},\"name\":\"{}\"}}",
            sort_name(vars.var_sort(v)),
            vars.var_level(v),
            json_escape(vars.var_name(v))
        )
    }

    /// One evar of a [`VarCtx`] as a canonical JSON object.
    fn evar_entry_json(vars: &VarCtx, i: usize) -> String {
        let e = EVarId::from_index(i);
        let mut out = format!(
            "{{\"sort\":\"{}\",\"level\":{},\"sol\":",
            sort_name(vars.evar_sort(e)),
            vars.evar_level(e)
        );
        match vars.evar_solution(e) {
            Some(t) => term_json(t, &mut out),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Shared tables built up while encoding a bundle.
    #[derive(Default)]
    struct CompactTables {
        /// Per table row: the full per-var / per-evar canonical texts (used
        /// for prefix matching against later contexts).
        ctx_texts: Vec<(Vec<String>, Vec<String>)>,
        /// Per table row: its emitted (delta-encoded) JSON.
        ctx_rows: Vec<String>,
        ctx_index: HashMap<String, usize>,
        fact_rows: Vec<String>,
        fact_index: HashMap<String, usize>,
    }

    fn common_prefix(a: &[String], b: &[String]) -> usize {
        let mut n = 0;
        while n < a.len() && n < b.len() && a[n] == b[n] {
            n += 1;
        }
        n
    }

    impl CompactTables {
        fn intern_ctx(&mut self, vars: &VarCtx) -> usize {
            let var_texts: Vec<String> = (0..vars.num_vars())
                .map(|i| var_entry_json(vars, i))
                .collect();
            let evar_texts: Vec<String> = (0..vars.num_evars())
                .map(|i| evar_entry_json(vars, i))
                .collect();
            let key = format!(
                "{}\u{0}{}\u{0}{}",
                vars.level(),
                var_texts.join(","),
                evar_texts.join(",")
            );
            if let Some(&i) = self.ctx_index.get(&key) {
                return i;
            }
            // Delta base: the earlier row sharing the longest combined prefix.
            let mut base = None;
            let (mut take, mut etake) = (0usize, 0usize);
            for (b, (pv, pe)) in self.ctx_texts.iter().enumerate() {
                let t = common_prefix(pv, &var_texts);
                let e = common_prefix(pe, &evar_texts);
                if t + e > take + etake {
                    (base, take, etake) = (Some(b), t, e);
                }
            }
            let mut row = match base {
                Some(b) => format!("{{\"base\":{b},\"take\":{take},\"etake\":{etake}"),
                None => String::from("{\"base\":null,\"take\":0,\"etake\":0"),
            };
            let _ = write!(row, ",\"level\":{},\"vars\":[", vars.level());
            for (i, t) in var_texts.iter().enumerate().skip(take) {
                if i > take {
                    row.push(',');
                }
                row.push_str(t);
            }
            row.push_str("],\"evars\":[");
            for (i, t) in evar_texts.iter().enumerate().skip(etake) {
                if i > etake {
                    row.push(',');
                }
                row.push_str(t);
            }
            row.push_str("]}");
            let idx = self.ctx_rows.len();
            self.ctx_rows.push(row);
            self.ctx_texts.push((var_texts, evar_texts));
            self.ctx_index.insert(key, idx);
            idx
        }

        fn intern_facts(&mut self, facts: &[PureProp]) -> usize {
            let mut row = String::from("[");
            for (i, f) in facts.iter().enumerate() {
                if i > 0 {
                    row.push(',');
                }
                prop_json(f, &mut row);
            }
            row.push(']');
            if let Some(&i) = self.fact_index.get(&row) {
                return i;
            }
            let idx = self.fact_rows.len();
            self.fact_index.insert(row.clone(), idx);
            self.fact_rows.push(row);
            idx
        }
    }

    /// The reference encoding of [`super::traces_to_compact_json`].
    pub(super) fn traces_to_compact_json(specs: &[(&str, &ProofTrace)]) -> String {
        let mut tables = CompactTables::default();
        let mut specs_out = String::from("[");
        for (si, (name, trace)) in specs.iter().enumerate() {
            if si > 0 {
                specs_out.push(',');
            }
            let _ = write!(
                specs_out,
                "{{\"name\":\"{}\",\"trace\":[",
                json_escape(name)
            );
            for (i, step) in trace.steps().iter().enumerate() {
                if i > 0 {
                    specs_out.push(',');
                }
                match step {
                    TraceStep::PureObligation { facts, goal, vars } => {
                        let fi = tables.intern_facts(facts);
                        let vi = tables.intern_ctx(vars);
                        let _ = write!(
                            specs_out,
                            "{{\"step\":\"pure_obligation\",\"facts\":{fi},\"goal\":"
                        );
                        prop_json(goal, &mut specs_out);
                        let _ = write!(specs_out, ",\"vars\":{vi}}}");
                    }
                    other => specs_out.push_str(&step_to_json(other)),
                }
            }
            specs_out.push_str("]}");
        }
        specs_out.push(']');
        let mut out = String::from("{\"varctxs\":[");
        out.push_str(&tables.ctx_rows.join(","));
        out.push_str("],\"factsets\":[");
        out.push_str(&tables.fact_rows.join(","));
        out.push_str("],\"specs\":");
        out.push_str(&specs_out);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_term::Sort;

    fn roundtrip(step: TraceStep) {
        let json = step_to_json(&step);
        let back = step_from_json(&json).unwrap_or_else(|e| panic!("{e}\nin {json}"));
        assert_eq!(format!("{step:?}"), format!("{back:?}"), "via {json}");
    }

    #[test]
    fn every_step_kind_round_trips() {
        let mut vars = VarCtx::new();
        let z = vars.fresh_var(Sort::Int, "z\"esc\n");
        vars.push_level();
        let e = vars.fresh_evar(Sort::Val);
        let solved = vars.fresh_evar(Sort::Loc);
        vars.solve_evar(solved, Term::Loc(u64::MAX));
        vars.lower_evar_level(e, 0);

        roundtrip(TraceStep::IntroVar {
            name: "x₁".into()
        });
        roundtrip(TraceStep::IntroHyp {
            hyp: "↦ \"H\"".into(),
        });
        roundtrip(TraceStep::Fact {
            prop: PureProp::And(
                Box::new(PureProp::Lt(Term::int(i128::MIN), Term::var(z))),
                Box::new(PureProp::Implies(
                    Box::new(PureProp::Not(Box::new(PureProp::False))),
                    Box::new(PureProp::Or(
                        Box::new(PureProp::True),
                        Box::new(PureProp::Ne(Term::Gname(7), Term::EVar(e))),
                    )),
                )),
            ),
        });
        for rule in PURE_STEP_RULES {
            roundtrip(TraceStep::PureStep { rule });
        }
        roundtrip(TraceStep::SymEx {
            spec: "CmpXchg".into(),
            atomic: true,
        });
        roundtrip(TraceStep::HintApplied {
            rules: vec!["inv-open".into(), "token-mutate".into()],
            hyp: Some("H3".into()),
            custom: true,
        });
        roundtrip(TraceStep::HintApplied {
            rules: vec![],
            hyp: None,
            custom: false,
        });
        roundtrip(TraceStep::InvOpened {
            ns: "lock.N".into(),
        });
        roundtrip(TraceStep::InvClosed {
            ns: "lock.N".into(),
        });
        roundtrip(TraceStep::PureObligation {
            facts: vec![
                PureProp::Le(
                    Term::app(Sym::Add, vec![Term::var(z), Term::int(1)]),
                    Term::app(
                        Sym::Min,
                        vec![Term::app(Sym::Neg, vec![Term::var(z)]), Term::int(3)],
                    ),
                ),
                PureProp::Eq(
                    Term::app(
                        Sym::VPair,
                        vec![Term::app(Sym::VUnit, vec![]), Term::Bool(true)],
                    ),
                    Term::QpLit(Qp::half()),
                ),
            ],
            goal: PureProp::Eq(Term::EVar(e), Term::var(z)),
            vars,
        });
        roundtrip(TraceStep::Contradiction {
            rule: "locked-unique".into(),
        });
        roundtrip(TraceStep::CaseSplit {
            on: "b".into(),
            branches: 2,
        });
        roundtrip(TraceStep::BranchStart { index: 0 });
        roundtrip(TraceStep::BranchEnd { index: 1 });
        roundtrip(TraceStep::ValueReached);
        roundtrip(TraceStep::TacticUsed {
            name: "case z = 1".into(),
        });
        for side in DISJUNCT_SIDES {
            for reason in DISJUNCT_REASONS {
                roundtrip(TraceStep::DisjunctChosen { side, reason });
            }
        }
    }

    #[test]
    fn whole_trace_round_trips() {
        let mut t = ProofTrace::new();
        t.push(TraceStep::ValueReached);
        t.push(TraceStep::SymEx {
            spec: "Store".into(),
            atomic: false,
        });
        let json = trace_to_json(&t);
        let back = trace_from_json(&json).unwrap();
        assert_eq!(format!("{:?}", t.steps()), format!("{:?}", back.steps()));
        assert!(trace_from_json("[]").unwrap().is_empty());
    }

    #[test]
    fn decoder_rejects_garbage() {
        assert!(step_from_json("{\"step\":\"no_such_kind\"}").is_err());
        assert!(step_from_json("{\"step\":\"pure_step\",\"rule\":\"made-up\"}").is_err());
        assert!(step_from_json(
            "{\"step\":\"disjunct_chosen\",\"side\":\"middle\",\"reason\":\"backtracking\"}"
        )
        .is_err());
        assert!(step_from_json("{\"step\":\"intro_var\"}").is_err());
        assert!(step_from_json("not json").is_err());
        assert!(trace_from_json("{\"step\":\"value_reached\"}").is_err());
        // Trailing data is rejected, not ignored.
        assert!(step_from_json("{\"step\":\"value_reached\"} x").is_err());
        // Wide integers must be strings.
        assert!(step_from_json(
            "{\"step\":\"fact\",\"prop\":{\"p\":\"eq\",\"l\":{\"i\":1},\"r\":{\"i\":\"1\"}}}"
        )
        .is_err());
    }

    #[test]
    fn compact_bundle_round_trips_and_shares_contexts() {
        // Three obligations: two on identical contexts (must dedup to one
        // table row) and one on an extended context (must delta-encode
        // against the first row).
        let mut small = VarCtx::new();
        let x = small.fresh_var(Sort::Int, "x");
        let mut big = small.clone();
        let y = big.fresh_var(Sort::Loc, "y\"esc");
        big.push_level();
        let e = big.fresh_evar(Sort::Val);
        big.solve_evar(e, Term::var(y));

        let ob = |vars: &VarCtx, goal: PureProp| TraceStep::PureObligation {
            facts: vec![PureProp::Le(Term::int(0), Term::var(x))],
            goal,
            vars: vars.clone(),
        };
        let mut t1 = ProofTrace::new();
        t1.push(TraceStep::IntroVar { name: "x".into() });
        t1.push(ob(&small, PureProp::True));
        t1.push(ob(&small, PureProp::Lt(Term::int(0), Term::int(1))));
        let mut t2 = ProofTrace::new();
        t2.push(ob(&big, PureProp::Eq(Term::var(y), Term::var(y))));
        t2.push(TraceStep::ValueReached);

        let bundle = traces_to_compact_json(&[("one", &t1), ("two", &t2)]);
        let v = parse_json_value(&bundle).unwrap();
        // Table sharing: 2 distinct contexts, 1 distinct fact list, and
        // the second row is a delta (it names row 0 as its base).
        assert_eq!(v.arr_field("varctxs").unwrap().len(), 2, "in {bundle}");
        assert_eq!(v.arr_field("factsets").unwrap().len(), 1, "in {bundle}");
        assert_eq!(
            v.arr_field("varctxs").unwrap()[1]
                .get("base")
                .unwrap()
                .as_u64(),
            Some(0),
            "in {bundle}"
        );

        let back = traces_from_compact_value(&v).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].0, "one");
        assert_eq!(back[1].0, "two");
        assert_eq!(
            format!("{:?}", t1.steps()),
            format!("{:?}", back[0].1.steps())
        );
        assert_eq!(
            format!("{:?}", t2.steps()),
            format!("{:?}", back[1].1.steps())
        );
    }

    #[test]
    fn compact_bundle_rejects_bad_references() {
        let decode = |text: &str| traces_from_compact_value(&parse_json_value(text).unwrap());
        // Forward/self base reference.
        assert!(decode(
            "{\"varctxs\":[{\"base\":0,\"take\":0,\"etake\":0,\"level\":0,\"vars\":[],\"evars\":[]}],\"factsets\":[],\"specs\":[]}"
        )
        .is_err());
        // Prefix longer than its base.
        assert!(decode(
            "{\"varctxs\":[{\"base\":null,\"take\":0,\"etake\":0,\"level\":0,\"vars\":[],\"evars\":[]},{\"base\":0,\"take\":3,\"etake\":0,\"level\":0,\"vars\":[],\"evars\":[]}],\"factsets\":[],\"specs\":[]}"
        )
        .is_err());
        // Baseless row claiming a prefix.
        assert!(decode(
            "{\"varctxs\":[{\"base\":null,\"take\":1,\"etake\":0,\"level\":0,\"vars\":[],\"evars\":[]}],\"factsets\":[],\"specs\":[]}"
        )
        .is_err());
        // Obligation indexing past the tables.
        assert!(decode(
            "{\"varctxs\":[],\"factsets\":[],\"specs\":[{\"name\":\"s\",\"trace\":[{\"step\":\"pure_obligation\",\"facts\":0,\"goal\":{\"p\":\"true\"},\"vars\":0}]}]}"
        )
        .is_err());
    }

    /// One step of a random `VarCtx` history for [`bundle_matches_reference`].
    #[derive(Debug, Clone)]
    enum SnapOp {
        /// A fresh var of sort `.0` named from the name pool by `.1`.
        Var(usize, usize),
        Evar(usize),
        /// Solve the `.0`-th unsolved evar (if any) with term `.1`.
        Solve(usize, usize),
        /// Lower the level of evar `.0` (if any) to 0.
        Lower(usize),
        /// Rewrite every solution in place; `0` maps each to itself.
        MapSolutions(usize),
        PushLevel,
        PopLevel,
        Checkpoint,
        /// Roll back to the latest checkpoint (if any), shrinking the
        /// context.
        Rollback,
        /// An obligation snapshotting the context, with fact list `.0`.
        Snapshot(usize),
        /// A non-obligation step named from the pool.
        Step(usize),
        /// Start the next spec on the same context.
        NextSpec,
        /// Start the next spec on an empty context.
        Reset,
    }

    const NAMES: [&str; 9] = [
        "x",
        "x",
        "y",
        "q\"uote",
        "back\\slash",
        "nl\n\t",
        "\u{1}ctl",
        "π",
        "",
    ];
    const SORTS: [Sort; 5] = [Sort::Int, Sort::Loc, Sort::Val, Sort::Qp, Sort::GhostName];

    /// A weighted [`SnapOp`]: snapshots and fresh vars dominate, as in
    /// real traces.
    fn snap_op() -> impl proptest::strategy::Strategy<Value = SnapOp> {
        use proptest::strategy::Strategy;
        (0usize..22, 0usize..64, 0usize..64).prop_map(|(k, a, b)| match k {
            0..=3 => SnapOp::Var(a % SORTS.len(), b % NAMES.len()),
            4 | 5 => SnapOp::Evar(a % SORTS.len()),
            6 | 7 => SnapOp::Solve(a % 4, b % 6),
            8 => SnapOp::Lower(a),
            9 => SnapOp::MapSolutions(a % 3),
            10 => SnapOp::PushLevel,
            11 => SnapOp::PopLevel,
            12 => SnapOp::Checkpoint,
            13 => SnapOp::Rollback,
            14..=18 => SnapOp::Snapshot(a % 4),
            19 => SnapOp::Step(a % NAMES.len()),
            20 => SnapOp::NextSpec,
            _ => SnapOp::Reset,
        })
    }

    fn solution(vars: &VarCtx, t: usize) -> Term {
        let v = (vars.num_vars() > 0).then(|| Term::var(VarId::from_index(t % vars.num_vars())));
        match (t, v) {
            (0, _) => Term::int(-3),
            (1, Some(v)) => v,
            (2, Some(v)) => Term::app(Sym::Add, vec![v, Term::int(1)]),
            (3, _) => Term::Loc(u64::MAX),
            (4, _) => Term::QpLit(Qp::half()),
            _ => Term::Bool(true),
        }
    }

    fn fact_list(k: usize) -> Vec<PureProp> {
        match k {
            0 => vec![],
            1 => vec![PureProp::Le(Term::int(0), Term::int(1))],
            2 => vec![PureProp::True, PureProp::Eq(Term::Gname(7), Term::Gname(7))],
            _ => vec![PureProp::Not(Box::new(PureProp::False))],
        }
    }

    /// Plays `ops` into named traces, one spec per `NextSpec`/`Reset`.
    fn traces_of(ops: &[SnapOp]) -> Vec<(String, ProofTrace)> {
        let mut specs = vec![(NAMES[0].to_owned(), ProofTrace::new())];
        let mut vars = VarCtx::new();
        let mut marks = Vec::new();
        for op in ops {
            match *op {
                SnapOp::Var(s, n) => {
                    vars.fresh_var(SORTS[s], NAMES[n]);
                }
                SnapOp::Evar(s) => {
                    vars.fresh_evar(SORTS[s]);
                }
                SnapOp::Solve(e, t) => {
                    let unsolved: Vec<_> = (0..vars.num_evars())
                        .map(EVarId::from_index)
                        .filter(|&e| vars.evar_unsolved(e))
                        .collect();
                    if !unsolved.is_empty() {
                        let sol = solution(&vars, t);
                        vars.solve_evar(unsolved[e % unsolved.len()], sol);
                    }
                }
                SnapOp::Lower(e) => {
                    if vars.num_evars() > 0 {
                        vars.lower_evar_level(EVarId::from_index(e % vars.num_evars()), 0);
                    }
                }
                SnapOp::MapSolutions(k) => vars.map_solutions(|t| match k {
                    0 => t.clone(),
                    1 => Term::app(Sym::Add, vec![t.clone(), Term::int(2)]),
                    _ => Term::int(5),
                }),
                SnapOp::PushLevel => {
                    vars.push_level();
                }
                SnapOp::PopLevel => vars.set_level(vars.level().saturating_sub(1)),
                SnapOp::Checkpoint => marks.push(vars.checkpoint()),
                SnapOp::Rollback => {
                    if let Some(mark) = marks.pop() {
                        vars.rollback(&mark);
                    }
                }
                SnapOp::Snapshot(k) => {
                    specs.last_mut().unwrap().1.push(TraceStep::PureObligation {
                        facts: fact_list(k),
                        goal: PureProp::Lt(Term::int(0), Term::int(k as i128)),
                        vars: vars.clone(),
                    })
                }
                SnapOp::Step(n) => specs.last_mut().unwrap().1.push(TraceStep::IntroVar {
                    name: NAMES[n].into(),
                }),
                SnapOp::NextSpec | SnapOp::Reset => {
                    if matches!(op, SnapOp::Reset) {
                        vars = VarCtx::new();
                        marks.clear();
                    }
                    let name = NAMES[specs.len() % NAMES.len()].to_owned();
                    specs.push((name, ProofTrace::new()));
                }
            }
        }
        specs
    }

    proptest::proptest! {
        /// The dense-id encoder emits exactly the reference encoder's
        /// bytes, and a decoded bundle re-encodes to the same bytes.
        #[test]
        fn bundle_matches_reference(ops in proptest::collection::vec(snap_op(), 0..80)) {
            let traces = traces_of(&ops);
            let specs: Vec<(&str, &ProofTrace)> = traces.iter().map(|(n, t)| (n.as_str(), t)).collect();
            let bundle = traces_to_compact_json(&specs);
            proptest::prop_assert_eq!(&bundle, &reference::traces_to_compact_json(&specs));
            let back = traces_from_compact_value(&parse_json_value(&bundle).unwrap()).unwrap();
            proptest::prop_assert_eq!(format!("{traces:?}"), format!("{back:?}"));
            let back_specs: Vec<(&str, &ProofTrace)> = back.iter().map(|(n, t)| (n.as_str(), t)).collect();
            proptest::prop_assert_eq!(traces_to_compact_json(&back_specs), bundle);
        }
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_an_error_not_a_crash() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse_json_value(&nested(MAX_JSON_DEPTH)).is_ok());
        let too_deep = parse_json_value(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(
            too_deep.to_string().contains("nesting deeper than"),
            "{too_deep}"
        );
        assert!(parse_json_value(&format!("{}1", "{\"k\":".repeat(MAX_JSON_DEPTH + 1))).is_err());
        // The daemon parses frames on spawned threads: a hostile frame far
        // past the limit must come back as an error there too.
        let hostile = std::thread::spawn(|| parse_json_value(&"[".repeat(100_000)).is_err());
        assert!(hostile.join().unwrap());
    }

    #[test]
    fn escapes_survive() {
        let nasty = "a\"b\\c\nd\te\u{1}π";
        roundtrip(TraceStep::IntroVar { name: nasty.into() });
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
