//! Annotation text → specifications.
//!
//! An example's `ANNOTATION` is the paper's notation for its proof
//! obligations; this module parses it and elaborates it into the
//! [`Spec`] values the engine verifies. The grammar, one statement per
//! line (a line that starts with whitespace continues the statement
//! above it; `//` starts a comment):
//!
//! ```text
//! Context (R : iProp) (P : Qp → iProp) (Fractional P) (N := lock) (hd null : loc)
//! name params := A                               definition (recursive ⇒ abstract predicate)
//! SPEC x y, {{ P }} f arg {{ v z, RET t; Q }}    Hoare triple
//! Require lib                                    elaborate a library's annotation first
//! Instance lib x y with R := A, N := ns, f := g  a library at concrete parameters
//! Next Obligation. destruct (decide (x = t)); iStepsS. Qed.   case split for the SPEC above
//! HINT name: H ∗ [L] ⊫ A ∗ [U]                   a bi-abduction hint (§4)
//! ```
//!
//! A script's steps are `destruct (decide (t₁ = t₂))` and the automation
//! (`iStepsS`); each `tᵢ` is an integer or a name the SPEC binds — a
//! binder, or an `∃` of its pre- or postcondition, invariant bodies
//! included — which at a stuck point stands for the terms at its place in
//! the hypotheses shaped like the last atom of its scope that mentions
//! it. A `HINT` keyed on a hypothesis `H` (or `ε₁`, last resort) proves
//! goal `A` from side condition `L`, leaving residue `U`; with no `A`
//! (`H ∗ [L] ⊫ [U]`) it unfolds a stuck hypothesis `H` into `U`. Its free
//! names are its variables, and its parts elaborate into [`Hint`] data
//! (see [`crate::hint`]) without allocating annotation variables.
//!
//! Assertions: `∃ x (y : loc). A`, `A ∗ B`, `A ∨ B`, `⌜t = u⌝` (also
//! `≠ < ≤`), `ℓ ↦{q} v`, `inv N (A)`, `True`, ghost atoms by library
//! name (`locked γ`, `counter P γ z`, …), abstract predicates (`R`,
//! `P 1`, `Φ v`), definition applications, and `PRE f a x…` — the
//! already elaborated precondition of spec `f` at argument `a` and
//! binders `x…`. Terms: variables, integers, `½`, `#t`, `#()`, `()`,
//! pairs, `inl`/`inr`, `+`/`-`.
//!
//! Variables are allocated in a fixed order, because proof traces record
//! variable indices: for each SPEC the argument (`()` is named `a`), the
//! binders in text order (a binder ascribed `(w : ret)` is the return
//! binder, allocated there), the return binder (named `w` unless `RET`
//! names a post binder), the post binders, every `∃` written in the
//! post, then the pre and the post left to right. Definitions expand call-by-value with
//! fresh binders per expansion; instance parameters (`R := A`) expand
//! afresh at each occurrence. Sorts are inferred from use, an embedded or
//! arithmetic variable defaulting to `Z` and any other to `val`; `(x :
//! sort)` ascribes one.

use crate::ctx::ProofCtx;
use crate::hint::{binder_vars, Hint};
use crate::spec::{Spec, SpecTable};
use crate::tactic::{Operand, Tactic};
use diaframe_ghost::AtomSig;
use diaframe_heaplang::parser::parse_program;
use diaframe_heaplang::Val;
use diaframe_logic::{Assertion, Atom, Binder, GhostAtom, Namespace, PredId, PredTable};
use diaframe_term::{PureProp, Qp, Sort, Subst, Term, VarCtx, VarId};
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Deepest nesting of parentheses, quantifiers and expansions accepted.
/// A parenthesis counts two levels (the assertion and the primary it
/// opens). Each level costs several parser or elaborator frames, up to
/// about 17 KiB of stack in a debug build (a definition expansion), so 64
/// levels stay near 1 MiB: half of a 2 MiB thread stack. The Figure 6
/// annotations nest at most 13 levels when parsed and 19 when elaborated.
pub const MAX_ANNOTATION_DEPTH: usize = 64;

/// Elaboration budget: assertion nodes built across all expansions.
const MAX_ELABORATION_STEPS: usize = 200_000;

/// A parse or elaboration error at a 1-based line and column of the
/// annotation text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotError {
    /// Line (1-based).
    pub line: usize,
    /// Column in characters (1-based).
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for AnnotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "annotation error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for AnnotError {}

type Res<T> = Result<T, AnnotError>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Pos {
    line: usize,
    col: usize,
}

fn fail<T>(pos: Pos, message: impl Into<String>) -> Res<T> {
    Err(AnnotError {
        line: pos.line,
        col: pos.col,
        message: message.into(),
    })
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Num(i128),
    Half,
    Hash,
    LParen,
    RParen,
    Comma,
    Dot,
    Colon,
    ColonEq,
    Semi,
    Arrow,
    MapsTo,
    LBrace,
    RBrace,
    LSpec,
    RSpec,
    Star,
    Or,
    Exists,
    LPure,
    RPure,
    Eq,
    Ne,
    Lt,
    Le,
    Plus,
    Minus,
    Entails,
    LBracket,
    RBracket,
    Eps,
}

/// The symbol tokens, longest first where one is a prefix of another.
const SYMBOLS: &[(&str, Tok<'static>)] = &[
    ("{{", Tok::LSpec),
    ("}}", Tok::RSpec),
    (":=", Tok::ColonEq),
    ("≤", Tok::Le),
    ("<=", Tok::Le),
    ("<", Tok::Lt),
    ("(", Tok::LParen),
    (")", Tok::RParen),
    (",", Tok::Comma),
    (".", Tok::Dot),
    (":", Tok::Colon),
    (";", Tok::Semi),
    ("#", Tok::Hash),
    ("½", Tok::Half),
    ("→", Tok::Arrow),
    ("↦", Tok::MapsTo),
    ("{", Tok::LBrace),
    ("}", Tok::RBrace),
    ("∗", Tok::Star),
    ("∨", Tok::Or),
    ("∃", Tok::Exists),
    ("⌜", Tok::LPure),
    ("⌝", Tok::RPure),
    ("=", Tok::Eq),
    ("≠", Tok::Ne),
    ("+", Tok::Plus),
    ("-", Tok::Minus),
    ("⊫", Tok::Entails),
    ("[", Tok::LBracket),
    ("]", Tok::RBracket),
    ("ε₁", Tok::Eps),
];

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(x) => write!(f, "'{x}'"),
            Tok::Num(n) => write!(f, "'{n}'"),
            t => {
                let sym = SYMBOLS.iter().find(|(_, s)| s == t).map_or("?", |(s, _)| s);
                write!(f, "'{sym}'")
            }
        }
    }
}

fn describe(t: Option<&Tok<'_>>) -> String {
    t.map_or_else(|| "end of statement".to_owned(), ToString::to_string)
}

fn ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn ident_continue(c: char) -> bool {
    c.is_alphabetic() || c.is_ascii_digit() || c == '_' || c == '\''
}

fn lex_line<'a>(line: usize, text: &'a str, out: &mut Vec<(Tok<'a>, Pos)>) -> Res<()> {
    let mut rest = text;
    let mut col = 1;
    loop {
        let trimmed = rest.trim_start();
        col += rest[..rest.len() - trimmed.len()].chars().count();
        rest = trimmed;
        let Some(c) = rest.chars().next() else {
            return Ok(());
        };
        if rest.starts_with("//") {
            return Ok(());
        }
        let pos = Pos { line, col };
        let (tok, len) = if c.is_ascii_digit() {
            let len = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            match rest[..len].parse::<i128>() {
                Ok(n) if n <= i128::from(i64::MAX) => (Tok::Num(n), len),
                _ => return fail(pos, "integer literal too large"),
            }
        } else if let Some((sym, t)) = SYMBOLS.iter().find(|(s, _)| rest.starts_with(s)) {
            // Before identifiers: `ε₁` starts with a letter.
            (t.clone(), sym.len())
        } else if ident_start(c) {
            // Identifiers may contain dots between letters, so namespaces
            // like `clh.node` are single tokens while `∃ b t. l` still
            // ends its binder list.
            let mut it = rest.char_indices().skip(1).peekable();
            let mut len = rest.len();
            while let Some((i, ch)) = it.next() {
                let glue_dot = ch == '.' && it.peek().is_some_and(|(_, n)| ident_start(*n));
                if !ident_continue(ch) && !glue_dot {
                    len = i;
                    break;
                }
            }
            (Tok::Ident(&rest[..len]), len)
        } else {
            return fail(pos, format!("unexpected character '{c}'"));
        };
        out.push((tok, pos));
        col += rest[..len].chars().count();
        rest = &rest[len..];
    }
}

// ---------------------------------------------------------------------
// Syntax
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    Eq,
    Ne,
    Lt,
    Le,
}

#[derive(Debug, Clone)]
struct BinderDecl {
    name: String,
    sort: Option<Sort>,
    /// Ascribed `(w : ret)`: the SPEC's return binder, allocated here.
    ret: bool,
    id: usize,
    pos: Pos,
}

#[derive(Debug, Clone)]
enum Ast {
    Name(String),
    App(String, Vec<Node>),
    Num(i128),
    Half,
    Unit,
    Hash(Box<Node>),
    Pair(Box<Node>, Box<Node>),
    Inj(bool, Box<Node>),
    Add(Box<Node>, Box<Node>),
    Sub(Box<Node>, Box<Node>),
    Neg(Box<Node>),
    Pure(Cmp, Box<Node>, Box<Node>),
    True,
    Sep(Vec<Node>),
    Or(Box<Node>, Box<Node>),
    Exists(Vec<BinderDecl>, Box<Node>),
    Inv(String, Box<Node>),
    PointsTo(Box<Node>, Option<Box<Node>>, Box<Node>),
    Pre(String, Vec<Node>),
}

#[derive(Debug, Clone)]
struct Node {
    ast: Ast,
    pos: Pos,
}

#[derive(Debug, Clone)]
struct SpecDecl {
    binders: Vec<BinderDecl>,
    pre: Node,
    func: String,
    arg: Option<BinderDecl>,
    post_binders: Vec<BinderDecl>,
    ret: Node,
    post: Node,
    pos: Pos,
}

#[derive(Debug, Clone)]
enum CtxItem {
    Pred(Vec<String>, Vec<Sort>, Pos),
    Fractional(String, Pos),
    Vars(Vec<String>, Sort),
    Ns(String, String),
}

#[derive(Debug, Clone)]
enum Stmt {
    Def {
        name: String,
        params: Vec<BinderDecl>,
        body: Node,
        pos: Pos,
    },
    Spec(Box<SpecDecl>),
    Context(Vec<CtxItem>),
    Require(String, Pos),
    Instance {
        lib: String,
        extra: Vec<(String, Pos)>,
        with: Vec<(String, Node)>,
        pos: Pos,
    },
    Hint(Box<HintDecl>),
    Obligation(Vec<Decide>, Pos),
}

/// `destruct (decide (lhs = rhs))`, a step of a `Next Obligation.` script.
#[derive(Debug, Clone)]
struct Decide {
    lhs: Node,
    rhs: Node,
}

/// `HINT name: H ∗ [L] ⊫ A ∗ [U]`; `key` is `None` for `ε₁` and `goal`
/// is `None` for an unfold hint.
#[derive(Debug, Clone)]
struct HintDecl {
    name: String,
    key: Option<Node>,
    side: Option<Node>,
    goal: Option<Node>,
    residue: Option<Node>,
    /// The names the clause uses as terms, in text order.
    names: Vec<BinderDecl>,
    pos: Pos,
}

/// A parsed annotation: its statements and the lines they cover.
#[derive(Debug, Clone)]
pub struct Annotation {
    stmts: Vec<Stmt>,
    lines: Vec<usize>,
}

impl Annotation {
    /// Parses annotation text.
    ///
    /// # Errors
    ///
    /// Returns the first syntax error with its line and column.
    pub fn parse(text: &str) -> Result<Annotation, AnnotError> {
        let mut groups: Vec<Vec<(usize, &str)>> = Vec::new();
        let mut lines = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with("//") {
                continue;
            }
            lines.push(i + 1);
            match groups.last_mut() {
                Some(g) if raw.starts_with(char::is_whitespace) => g.push((i + 1, raw)),
                _ => groups.push(vec![(i + 1, raw)]),
            }
        }
        let mut ids = 0;
        let stmts = groups
            .iter()
            .map(|g| parse_stmt(g, &mut ids))
            .collect::<Res<Vec<_>>>()?;
        Ok(Annotation { stmts, lines })
    }

    /// The lines (1-based) consumed by statements; every other non-blank
    /// line is a comment.
    #[must_use]
    pub fn statement_lines(&self) -> &[usize] {
        &self.lines
    }

    /// The names of the specs this annotation declares, in order (an
    /// `Instance` contributes its library's specs under their new names;
    /// `Require`d specs are not declared).
    #[must_use]
    pub fn spec_names(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in &self.stmts {
            if let Stmt::Spec(d) = s {
                out.push(d.func.clone());
            }
        }
        out
    }
}

fn parse_stmt(group: &[(usize, &str)], ids: &mut usize) -> Res<Stmt> {
    let (first_line, first) = group[0];
    let head = first.trim_start();
    let pos = Pos {
        line: first_line,
        col: 1,
    };
    // A HINT's name may contain `-`: it is read as text, and the clause
    // after its `:` is lexed in place (blanked name, same columns).
    let mut hint = None;
    let mut masked = String::new();
    if let Some(rest) = head.strip_prefix("HINT ") {
        let Some((name, clause)) = rest.split_once(':') else {
            return fail(pos, "expected `HINT name: H ∗ [L] ⊫ A ∗ [U]`");
        };
        let name = name.trim();
        if name.is_empty() || name.contains(char::is_whitespace) {
            return fail(pos, "a HINT needs a one-word name");
        }
        let blank = first.chars().count() - clause.chars().count();
        masked = " ".repeat(blank) + clause;
        hint = Some(name.to_owned());
    }
    let mut toks = Vec::new();
    for (i, (line, text)) in group.iter().enumerate() {
        let text = if i == 0 && hint.is_some() {
            masked.as_str()
        } else {
            text
        };
        lex_line(*line, text, &mut toks)?;
    }
    let end = toks.last().map_or(pos, |(_, p)| Pos {
        line: p.line,
        col: p.col + 1,
    });
    let mut p = Parser {
        toks,
        i: 0,
        depth: 0,
        ids,
        end,
    };
    let stmt = match hint {
        Some(name) => p.hint(name, pos)?,
        None => p.stmt()?,
    };
    if let Some((t, at)) = p.toks.get(p.i) {
        return fail(*at, format!("unexpected {t} after statement"));
    }
    Ok(stmt)
}

/// The names a HINT clause uses outside its `∃` binders, in text order
/// (application heads excluded): its variables, and any `Context` names.
fn clause_names(n: &Node, bound: &mut Vec<String>, out: &mut Vec<(String, Pos)>) {
    match &n.ast {
        Ast::Name(x) => {
            if !bound.contains(x) && !out.iter().any(|(y, _)| y == x) {
                out.push((x.clone(), n.pos));
            }
        }
        Ast::App(_, args) | Ast::Pre(_, args) => {
            args.iter().for_each(|a| clause_names(a, bound, out));
        }
        Ast::Exists(bs, body) => {
            let mark = bound.len();
            bound.extend(bs.iter().map(|b| b.name.clone()));
            clause_names(body, bound, out);
            bound.truncate(mark);
        }
        Ast::Hash(a) | Ast::Inj(_, a) | Ast::Neg(a) | Ast::Inv(_, a) => clause_names(a, bound, out),
        Ast::Pair(a, b) | Ast::Add(a, b) | Ast::Sub(a, b) | Ast::Pure(_, a, b) | Ast::Or(a, b) => {
            clause_names(a, bound, out);
            clause_names(b, bound, out);
        }
        Ast::PointsTo(a, q, b) => {
            clause_names(a, bound, out);
            if let Some(q) = q {
                clause_names(q, bound, out);
            }
            clause_names(b, bound, out);
        }
        Ast::Sep(items) => items.iter().for_each(|a| clause_names(a, bound, out)),
        Ast::Num(_) | Ast::Half | Ast::Unit | Ast::True => {}
    }
}

struct Parser<'a, 'b> {
    toks: Vec<(Tok<'a>, Pos)>,
    i: usize,
    depth: usize,
    ids: &'b mut usize,
    end: Pos,
}

fn sort_named(s: &str) -> Option<Sort> {
    Some(match s {
        "Z" => Sort::Int,
        "bool" => Sort::Bool,
        "val" => Sort::Val,
        "loc" => Sort::Loc,
        "Qp" => Sort::Qp,
        "gname" => Sort::GhostName,
        _ => return None,
    })
}

impl<'a> Parser<'a, '_> {
    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.i).map(|(t, _)| t)
    }

    fn pos(&self) -> Pos {
        self.toks.get(self.i).map_or(self.end, |(_, p)| *p)
    }

    fn bump(&mut self) -> Option<Tok<'a>> {
        let t = self.toks.get(self.i).map(|(t, _)| t.clone());
        if t.is_some() {
            self.i += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok<'_>) -> bool {
        if self.peek() == Some(t) {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok<'_>, what: &str) -> Res<()> {
        if self.eat(t) {
            Ok(())
        } else {
            fail(
                self.pos(),
                format!("expected {what}, found {}", describe(self.peek())),
            )
        }
    }

    fn ident(&mut self, what: &str) -> Res<String> {
        let pos = self.pos();
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s.to_owned()),
            other => fail(
                pos,
                format!("expected {what}, found {}", describe(other.as_ref())),
            ),
        }
    }

    fn is_ident(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(x)) if *x == s)
    }

    fn enter(&mut self) -> Res<()> {
        self.depth += 1;
        if self.depth > MAX_ANNOTATION_DEPTH {
            return fail(
                self.pos(),
                format!("nesting deeper than {MAX_ANNOTATION_DEPTH}"),
            );
        }
        Ok(())
    }

    fn decl(&mut self, name: String, sort: Option<Sort>, pos: Pos) -> BinderDecl {
        *self.ids += 1;
        BinderDecl {
            name,
            sort,
            ret: false,
            id: *self.ids,
            pos,
        }
    }

    fn sort(&mut self) -> Res<Sort> {
        let pos = self.pos();
        let s = self.ident("a sort")?;
        sort_named(&s).map_or_else(|| fail(pos, format!("unknown sort `{s}`")), Ok)
    }

    /// `x (y z : loc) …` up to (not including) the terminator.
    fn binders(&mut self, stop: &Tok<'_>) -> Res<Vec<BinderDecl>> {
        let mut out = Vec::new();
        while self.peek() != Some(stop) {
            let pos = self.pos();
            if self.eat(&Tok::LParen) {
                let mut names = Vec::new();
                while let Some(Tok::Ident(_)) = self.peek() {
                    let p = self.pos();
                    names.push((self.ident("a binder")?, p));
                }
                self.expect(&Tok::Colon, "':'")?;
                let ret = self.is_ident("ret");
                let sort = if ret {
                    self.bump();
                    Sort::Val
                } else {
                    self.sort()?
                };
                self.expect(&Tok::RParen, "')'")?;
                if names.is_empty() {
                    return fail(pos, "empty binder group");
                }
                for (n, p) in names {
                    let mut d = self.decl(n, Some(sort), p);
                    d.ret = ret;
                    out.push(d);
                }
            } else {
                let n = self.ident("a binder")?;
                let d = self.decl(n, None, pos);
                out.push(d);
            }
        }
        Ok(out)
    }

    fn stmt(&mut self) -> Res<Stmt> {
        let pos = self.pos();
        match self.peek() {
            Some(Tok::Ident("SPEC")) => {
                self.bump();
                self.spec(pos).map(|d| Stmt::Spec(Box::new(d)))
            }
            Some(Tok::Ident("Context")) => {
                self.bump();
                self.context()
            }
            Some(Tok::Ident("Require")) => {
                self.bump();
                Ok(Stmt::Require(self.ident("a library name")?, pos))
            }
            Some(Tok::Ident("Next"))
                if self.toks.get(self.i + 1).map(|(t, _)| t) == Some(&Tok::Ident("Obligation")) =>
            {
                self.i += 2;
                self.expect(&Tok::Dot, "'.'")?;
                self.script(pos)
            }
            Some(Tok::Ident("Instance")) => {
                self.bump();
                let lib = self.ident("a library name")?;
                let mut extra = Vec::new();
                while matches!(self.peek(), Some(Tok::Ident(x)) if *x != "with") {
                    let p = self.pos();
                    extra.push((self.ident("a section variable")?, p));
                }
                let mut with = Vec::new();
                if self.is_ident("with") {
                    self.bump();
                    loop {
                        let name = self.ident("an instance parameter")?;
                        self.expect(&Tok::ColonEq, "':='")?;
                        with.push((name, self.assertion()?));
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                Ok(Stmt::Instance {
                    lib,
                    extra,
                    with,
                    pos,
                })
            }
            Some(Tok::Ident(_)) => {
                let name = self.ident("a definition name")?;
                let params = self.binders(&Tok::ColonEq)?;
                self.expect(&Tok::ColonEq, "':='")?;
                let body = self.assertion()?;
                Ok(Stmt::Def {
                    name,
                    params,
                    body,
                    pos,
                })
            }
            _ => fail(
                pos,
                "expected a definition, SPEC, Context, Require, Instance, HINT or Next Obligation",
            ),
        }
    }

    fn context(&mut self) -> Res<Stmt> {
        let mut items = Vec::new();
        while self.peek().is_some() {
            let pos = self.pos();
            self.expect(&Tok::LParen, "'('")?;
            if self.is_ident("Fractional") {
                self.bump();
                let p = self.pos();
                items.push(CtxItem::Fractional(self.ident("a predicate")?, p));
                self.expect(&Tok::RParen, "')'")?;
                continue;
            }
            let mut names = Vec::new();
            while let Some(Tok::Ident(_)) = self.peek() {
                names.push(self.ident("a name")?);
            }
            if names.is_empty() {
                return fail(pos, "empty Context item");
            }
            if self.eat(&Tok::ColonEq) {
                let ns = self.ident("a namespace")?;
                if names.len() != 1 {
                    return fail(pos, "one namespace per `:=`");
                }
                items.push(CtxItem::Ns(names.remove(0), ns));
            } else {
                self.expect(&Tok::Colon, "':' or ':='")?;
                let mut sorts = Vec::new();
                loop {
                    if self.is_ident("iProp") {
                        self.bump();
                        items.push(CtxItem::Pred(names, sorts, pos));
                        break;
                    }
                    let s = self.sort()?;
                    if self.eat(&Tok::Arrow) {
                        sorts.push(s);
                    } else {
                        if !sorts.is_empty() {
                            return fail(pos, "a predicate type must end in iProp");
                        }
                        items.push(CtxItem::Vars(names, s));
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen, "')'")?;
        }
        Ok(Stmt::Context(items))
    }

    /// The script of `Next Obligation. <steps> Qed.`: steps separated by
    /// `;` or `.`, each `destruct (decide (t₁ = t₂))` or the automation
    /// (`iStepsS`).
    fn script(&mut self, pos: Pos) -> Res<Stmt> {
        let mut steps = Vec::new();
        loop {
            let at = self.pos();
            match self.bump() {
                Some(Tok::Ident("Qed")) => {
                    self.expect(&Tok::Dot, "'.' after Qed")?;
                    return Ok(Stmt::Obligation(steps, pos));
                }
                Some(Tok::Ident("iStepsS")) => {}
                Some(Tok::Ident("destruct")) => {
                    self.expect(&Tok::LParen, "'('")?;
                    self.expect(&Tok::Ident("decide"), "`decide (t₁ = t₂)`")?;
                    self.expect(&Tok::LParen, "'('")?;
                    let lhs = self.app()?;
                    self.expect(&Tok::Eq, "'='")?;
                    let rhs = self.app()?;
                    self.expect(&Tok::RParen, "')'")?;
                    self.expect(&Tok::RParen, "')'")?;
                    steps.push(Decide { lhs, rhs });
                }
                None => return fail(at, "`Next Obligation.` must end with `Qed.`"),
                Some(t) => return fail(at, format!("unsupported script tactic {t}")),
            }
            if !self.eat(&Tok::Semi) && !self.eat(&Tok::Dot) && !self.is_ident("Qed") {
                return fail(self.pos(), "expected ';' or '.' between script steps");
            }
        }
    }

    /// The clause of `HINT name: H ∗ [L] ⊫ A ∗ [U]` (`H` may be `ε₁`; an
    /// unfold hint has no `A` and writes `⊫ [U]`).
    fn hint(&mut self, name: String, pos: Pos) -> Res<Stmt> {
        let key = if self.eat(&Tok::Eps) {
            None
        } else {
            Some(self.unary()?)
        };
        let side = self.bracketed(true)?;
        self.expect(&Tok::Entails, "'⊫'")?;
        let goal = if self.peek() == Some(&Tok::LBracket) || self.peek().is_none() {
            None
        } else {
            Some(self.unary()?)
        };
        let residue = self.bracketed(goal.is_some())?;
        if key.is_none() && goal.is_none() {
            return fail(pos, "an ε₁ hint needs a goal atom");
        }
        if goal.is_none() && residue.is_none() {
            return fail(self.pos(), "expected an atom or '[' after '⊫'");
        }
        let mut found = Vec::new();
        for n in [&key, &side, &goal, &residue].into_iter().flatten() {
            clause_names(n, &mut Vec::new(), &mut found);
        }
        let names = found
            .into_iter()
            .map(|(x, p)| self.decl(x, None, p))
            .collect();
        Ok(Stmt::Hint(Box::new(HintDecl {
            name,
            key,
            side,
            goal,
            residue,
            names,
            pos,
        })))
    }

    /// `∗ [A]` (or a bare `[A]` when `star` is false), if present.
    fn bracketed(&mut self, star: bool) -> Res<Option<Node>> {
        if star && !self.eat(&Tok::Star) {
            return Ok(None);
        }
        if !star && self.peek() != Some(&Tok::LBracket) {
            return Ok(None);
        }
        self.expect(&Tok::LBracket, "'['")?;
        let a = self.assertion()?;
        self.expect(&Tok::RBracket, "']'")?;
        Ok(Some(a))
    }

    fn spec(&mut self, pos: Pos) -> Res<SpecDecl> {
        let binders = if self.peek() == Some(&Tok::LSpec) {
            Vec::new()
        } else {
            let b = self.binders(&Tok::Comma)?;
            self.expect(&Tok::Comma, "','")?;
            b
        };
        self.expect(&Tok::LSpec, "'{{'")?;
        let pre = self.assertion()?;
        self.expect(&Tok::RSpec, "'}}'")?;
        let func = self.ident("a function name")?;
        let apos = self.pos();
        let arg = if self.eat(&Tok::LParen) {
            self.expect(&Tok::RParen, "')'")?;
            None
        } else {
            let a = self.ident("an argument")?;
            Some(self.decl(a, Some(Sort::Val), apos))
        };
        self.expect(&Tok::LSpec, "'{{'")?;
        let post_binders = if self.is_ident("RET") {
            Vec::new()
        } else {
            let b = self.binders(&Tok::Comma)?;
            self.expect(&Tok::Comma, "','")?;
            b
        };
        if !self.is_ident("RET") {
            return fail(self.pos(), "expected RET");
        }
        self.bump();
        let ret = self.term()?;
        self.expect(&Tok::Semi, "';'")?;
        let post = self.assertion()?;
        self.expect(&Tok::RSpec, "'}}'")?;
        Ok(SpecDecl {
            binders,
            pre,
            func,
            arg,
            post_binders,
            ret,
            post,
            pos,
        })
    }

    /// `A ∨ B` (right-associative, loosest).
    fn assertion(&mut self) -> Res<Node> {
        self.enter()?;
        let pos = self.pos();
        let lhs = self.sep()?;
        let out = if self.eat(&Tok::Or) {
            let rhs = self.assertion()?;
            Node {
                ast: Ast::Or(Box::new(lhs), Box::new(rhs)),
                pos,
            }
        } else {
            lhs
        };
        self.depth -= 1;
        Ok(out)
    }

    fn sep(&mut self) -> Res<Node> {
        let pos = self.pos();
        let mut items = vec![self.unary()?];
        while self.eat(&Tok::Star) {
            items.push(self.unary()?);
        }
        Ok(if items.len() == 1 {
            items.remove(0)
        } else {
            Node {
                ast: Ast::Sep(items),
                pos,
            }
        })
    }

    fn unary(&mut self) -> Res<Node> {
        let pos = self.pos();
        if self.eat(&Tok::Exists) {
            let bs = self.binders(&Tok::Dot)?;
            self.expect(&Tok::Dot, "'.'")?;
            if bs.is_empty() {
                return fail(pos, "∃ needs a binder");
            }
            let body = self.assertion()?;
            return Ok(Node {
                ast: Ast::Exists(bs, Box::new(body)),
                pos,
            });
        }
        if self.is_ident("inv") {
            self.bump();
            let ns = self.ident("a namespace")?;
            let body = self.primary()?;
            return Ok(Node {
                ast: Ast::Inv(ns, Box::new(body)),
                pos,
            });
        }
        if self.is_ident("PRE") {
            self.bump();
            let f = self.ident("a spec name")?;
            let args = self.args()?;
            return Ok(Node {
                ast: Ast::Pre(f, args),
                pos,
            });
        }
        let lhs = self.term()?;
        if self.eat(&Tok::MapsTo) {
            let frac = if self.eat(&Tok::LBrace) {
                let q = self.term()?;
                self.expect(&Tok::RBrace, "'}'")?;
                Some(Box::new(q))
            } else {
                None
            };
            let v = self.term()?;
            return Ok(Node {
                ast: Ast::PointsTo(Box::new(lhs), frac, Box::new(v)),
                pos,
            });
        }
        Ok(lhs)
    }

    /// Application and arithmetic level: `f a b`, `a + b`, `-a`.
    fn term(&mut self) -> Res<Node> {
        let pos = self.pos();
        let mut lhs = self.app()?;
        loop {
            let add = if self.eat(&Tok::Plus) {
                true
            } else if self.eat(&Tok::Minus) {
                false
            } else {
                break;
            };
            let rhs = self.app()?;
            let (a, b) = (Box::new(lhs), Box::new(rhs));
            lhs = Node {
                ast: if add { Ast::Add(a, b) } else { Ast::Sub(a, b) },
                pos,
            };
        }
        Ok(lhs)
    }

    fn app(&mut self) -> Res<Node> {
        let pos = self.pos();
        if self.eat(&Tok::Minus) {
            self.enter()?;
            let inner = self.app()?;
            self.depth -= 1;
            return Ok(Node {
                ast: Ast::Neg(Box::new(inner)),
                pos,
            });
        }
        match self.peek() {
            Some(Tok::Ident(k @ ("inl" | "inr"))) => {
                let left = *k == "inl";
                self.bump();
                let inner = self.primary()?;
                Ok(Node {
                    ast: Ast::Inj(left, Box::new(inner)),
                    pos,
                })
            }
            Some(Tok::Ident(k)) if !matches!(*k, "inv" | "PRE" | "RET" | "True") => {
                let f = self.ident("a name")?;
                let args = self.args()?;
                Ok(Node {
                    ast: if args.is_empty() {
                        Ast::Name(f)
                    } else {
                        Ast::App(f, args)
                    },
                    pos,
                })
            }
            _ => self.primary(),
        }
    }

    fn starts_primary(&self) -> bool {
        match self.peek() {
            Some(Tok::Ident(k)) => !matches!(*k, "inv" | "PRE" | "RET" | "with"),
            Some(Tok::Num(_) | Tok::Half | Tok::Hash | Tok::LParen | Tok::LPure) => true,
            _ => false,
        }
    }

    fn args(&mut self) -> Res<Vec<Node>> {
        let mut args = Vec::new();
        while self.starts_primary() {
            args.push(self.primary()?);
        }
        Ok(args)
    }

    fn primary(&mut self) -> Res<Node> {
        self.enter()?;
        let pos = self.pos();
        let ast = match self.bump() {
            Some(Tok::Ident("True")) => Ast::True,
            Some(Tok::Ident(k @ ("inl" | "inr"))) => {
                Ast::Inj(k == "inl", Box::new(self.primary()?))
            }
            Some(Tok::Ident(k)) if !matches!(k, "inv" | "PRE" | "RET" | "with") => {
                Ast::Name(k.to_owned())
            }
            Some(Tok::Num(n)) => Ast::Num(n),
            Some(Tok::Half) => Ast::Half,
            Some(Tok::Hash) => {
                if self.eat(&Tok::Minus) {
                    let npos = self.pos();
                    match self.bump() {
                        Some(Tok::Num(n)) => Ast::Hash(Box::new(Node {
                            ast: Ast::Num(-n),
                            pos: npos,
                        })),
                        _ => return fail(npos, "expected an integer after '#-'"),
                    }
                } else {
                    Ast::Hash(Box::new(self.primary()?))
                }
            }
            Some(Tok::LPure) => {
                let a = self.term()?;
                let cpos = self.pos();
                let cmp = match self.bump() {
                    Some(Tok::Eq) => Cmp::Eq,
                    Some(Tok::Ne) => Cmp::Ne,
                    Some(Tok::Lt) => Cmp::Lt,
                    Some(Tok::Le) => Cmp::Le,
                    _ => return fail(cpos, "expected = ≠ < or ≤"),
                };
                let b = self.term()?;
                self.expect(&Tok::RPure, "'⌝'")?;
                Ast::Pure(cmp, Box::new(a), Box::new(b))
            }
            Some(Tok::LParen) => {
                if self.eat(&Tok::RParen) {
                    Ast::Unit
                } else {
                    let first = self.assertion()?;
                    if self.eat(&Tok::Comma) {
                        let second = self.assertion()?;
                        self.expect(&Tok::RParen, "')'")?;
                        Ast::Pair(Box::new(first), Box::new(second))
                    } else {
                        self.expect(&Tok::RParen, "')'")?;
                        self.depth -= 1;
                        return Ok(first);
                    }
                }
            }
            other => return fail(pos, format!("unexpected {}", describe(other.as_ref()))),
        };
        self.depth -= 1;
        Ok(Node { ast, pos })
    }
}

// ---------------------------------------------------------------------
// Sort inference
// ---------------------------------------------------------------------

/// How a definition parameter is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Term(Sort),
    Assert,
    Ns,
}

#[derive(Debug)]
struct DefInfo {
    params: Vec<(String, Kind)>,
    body: Node,
    sorts: Rc<HashMap<usize, Sort>>,
}

#[derive(Debug, Clone)]
enum Global {
    Def(Rc<DefInfo>),
    Pred(PredId, Vec<Sort>),
    Var(VarId, Sort),
    Ns(String),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotKind {
    Unknown,
    Term,
    Assert,
    Ns,
}

#[derive(Debug, Clone)]
struct Slot {
    id: usize,
    sort: Option<Sort>,
    kind: SlotKind,
    numeric: bool,
}

/// What a name in an inference scope refers to.
#[derive(Debug, Clone, Copy)]
enum Ref {
    Slot(usize),
    Fixed(Kind),
}

/// One inference unit (a definition body or a SPEC): slots for every
/// binder, filled in by walking the text until nothing changes.
struct Infer<'a> {
    globals: &'a HashMap<String, Global>,
    atoms: &'a [AtomSig],
    specs: &'a SpecTable,
    vars: &'a VarCtx,
    slots: Vec<Slot>,
    scope: Vec<(String, Ref)>,
    changed: bool,
    depth: usize,
}

impl<'a> Infer<'a> {
    fn new(e: &'a Elab<'_>) -> Infer<'a> {
        Infer {
            globals: &e.globals,
            atoms: e.atoms,
            specs: &e.table,
            vars: &e.vars,
            slots: Vec::new(),
            scope: Vec::new(),
            changed: false,
            depth: 0,
        }
    }

    fn push(&mut self, d: &BinderDecl) -> usize {
        let slot = match self.slots.iter().position(|s| s.id == d.id) {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    id: d.id,
                    sort: d.sort,
                    kind: if d.sort.is_some() {
                        SlotKind::Term
                    } else {
                        SlotKind::Unknown
                    },
                    numeric: false,
                });
                self.slots.len() - 1
            }
        };
        self.scope.push((d.name.clone(), Ref::Slot(slot)));
        slot
    }

    fn lookup(&self, x: &str) -> Option<Ref> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == x)
            .map(|(_, r)| *r)
    }

    fn slot_of(&self, n: &Node) -> Option<usize> {
        match &n.ast {
            Ast::Name(x) => match self.lookup(x) {
                Some(Ref::Slot(i)) => Some(i),
                _ => None,
            },
            _ => None,
        }
    }

    fn set_kind(&mut self, i: usize, k: SlotKind) {
        if self.slots[i].kind == SlotKind::Unknown {
            self.slots[i].kind = k;
            self.changed = true;
        }
    }

    fn set_sort(&mut self, i: usize, s: Sort) {
        self.set_kind(i, SlotKind::Term);
        if self.slots[i].sort.is_none() {
            self.slots[i].sort = Some(s);
            self.changed = true;
        }
    }

    fn mark_numeric(&mut self, n: &Node) {
        if let Some(i) = self.slot_of(n) {
            if !self.slots[i].numeric {
                self.slots[i].numeric = true;
                self.changed = true;
            }
        }
    }

    /// The sort of a name used as a term, when known.
    fn name_sort(&self, x: &str) -> Option<Sort> {
        match self.lookup(x) {
            Some(Ref::Slot(i)) => self.slots[i].sort,
            Some(Ref::Fixed(Kind::Term(s))) => Some(s),
            Some(_) => None,
            None => match self.globals.get(x) {
                Some(Global::Var(_, s)) => Some(*s),
                _ if x == "true" || x == "false" => Some(Sort::Bool),
                _ => None,
            },
        }
    }

    /// The sort of the variable inside `#x`, when known.
    fn hash_inner(&self, n: &Node) -> Option<Sort> {
        let Ast::Hash(inner) = &n.ast else {
            return None;
        };
        match &inner.ast {
            Ast::Num(_) | Ast::Add(..) | Ast::Sub(..) | Ast::Neg(_) => Some(Sort::Int),
            Ast::Name(x) => self.name_sort(x),
            _ => None,
        }
    }

    fn term(&mut self, n: &Node, expected: Option<Sort>) -> Option<Sort> {
        match &n.ast {
            Ast::Name(x) => {
                if let Some(Ref::Slot(i)) = self.lookup(x) {
                    self.set_kind(i, SlotKind::Term);
                    if let Some(s) = expected {
                        self.set_sort(i, s);
                    }
                }
                self.name_sort(x)
            }
            Ast::Num(_) => expected.or(Some(Sort::Int)),
            Ast::Half => Some(Sort::Qp),
            Ast::Unit => Some(Sort::Val),
            Ast::Hash(inner) => {
                if let Some(i) = self.slot_of(inner) {
                    self.set_kind(i, SlotKind::Term);
                    self.mark_numeric(inner);
                } else if !matches!(inner.ast, Ast::Name(_) | Ast::Num(_) | Ast::Unit) {
                    self.term(inner, Some(Sort::Int));
                }
                Some(Sort::Val)
            }
            Ast::Pair(a, b) => {
                self.term(a, Some(Sort::Val));
                self.term(b, Some(Sort::Val));
                Some(Sort::Val)
            }
            Ast::Inj(_, a) => {
                self.term(a, Some(Sort::Val));
                Some(Sort::Val)
            }
            Ast::Add(a, b) | Ast::Sub(a, b) => {
                self.mark_numeric(a);
                self.mark_numeric(b);
                let sa = self.term(a, expected);
                let sb = self.term(b, expected.or(sa));
                if expected.or(sa).is_none() && sb.is_some() {
                    self.term(a, sb);
                }
                expected.or(sa).or(sb)
            }
            Ast::Neg(a) => {
                self.mark_numeric(a);
                self.term(a, expected)
            }
            _ => None,
        }
    }

    fn pure(&mut self, cmp: Cmp, a: &Node, b: &Node) {
        if matches!(cmp, Cmp::Eq | Cmp::Ne)
            && matches!(a.ast, Ast::Hash(_))
            && matches!(b.ast, Ast::Hash(_))
        {
            if let Some(s) = self.hash_inner(a).or_else(|| self.hash_inner(b)) {
                for side in [a, b] {
                    if let Ast::Hash(inner) = &side.ast {
                        if let Some(i) = self.slot_of(inner) {
                            self.set_sort(i, s);
                        }
                    }
                }
            }
        }
        if matches!(cmp, Cmp::Lt | Cmp::Le) {
            self.mark_numeric(a);
            self.mark_numeric(b);
        }
        let sa = self.term(a, None);
        let sb = self.term(b, sa);
        if sa.is_none() && sb.is_some() {
            self.term(a, sb);
        }
    }

    fn assertion(&mut self, n: &Node) {
        self.depth += 1;
        if self.depth <= MAX_ANNOTATION_DEPTH {
            self.assertion_inner(n);
        }
        self.depth -= 1;
    }

    fn assertion_inner(&mut self, n: &Node) {
        match &n.ast {
            Ast::Pure(cmp, a, b) => self.pure(*cmp, a, b),
            Ast::Sep(items) => items.iter().for_each(|i| self.assertion(i)),
            Ast::Or(a, b) => {
                self.assertion(a);
                self.assertion(b);
            }
            Ast::Exists(bs, body) => {
                let mark = self.scope.len();
                for b in bs {
                    self.push(b);
                }
                self.assertion(body);
                self.scope.truncate(mark);
            }
            Ast::Inv(ns, body) => {
                if let Some(Ref::Slot(i)) = self.lookup(ns) {
                    self.set_kind(i, SlotKind::Ns);
                }
                self.assertion(body);
            }
            Ast::PointsTo(l, q, v) => {
                self.term(l, Some(Sort::Loc));
                if let Some(q) = q {
                    self.term(q, Some(Sort::Qp));
                }
                self.term(v, Some(Sort::Val));
            }
            Ast::Pre(f, args) => {
                let sorts: Vec<Sort> = match spec_named(self.specs, f) {
                    Some(sp) => std::iter::once(sp.arg)
                        .chain(sp.binders.iter().copied())
                        .map(|v| self.vars.var_sort(v))
                        .collect(),
                    None => Vec::new(),
                };
                for (i, a) in args.iter().enumerate() {
                    self.term(a, sorts.get(i).copied());
                }
            }
            Ast::Name(x) => {
                if let Some(Ref::Slot(i)) = self.lookup(x) {
                    self.set_kind(i, SlotKind::Assert);
                }
            }
            Ast::App(f, args) => self.app(f, args),
            _ => {}
        }
    }

    fn app(&mut self, f: &str, args: &[Node]) {
        if self.lookup(f).is_some() {
            return;
        }
        if let Some(sig) = self.atoms.iter().find(|s| s.kind.name == f) {
            let rest = if sig.pred {
                args.get(1..).unwrap_or(&[])
            } else {
                args
            };
            let sorts = std::iter::once(Sort::GhostName).chain(sig.args.iter().copied());
            for (a, s) in rest.iter().zip(sorts) {
                self.term(a, Some(s));
            }
            return;
        }
        match self.globals.get(f) {
            Some(Global::Def(info)) => {
                let info = Rc::clone(info);
                for ((_, kind), a) in info.params.iter().zip(args) {
                    match kind {
                        Kind::Term(s) => {
                            self.term(a, Some(*s));
                        }
                        Kind::Assert => self.assertion(a),
                        Kind::Ns => {
                            if let Some(i) = self.slot_of(a) {
                                self.set_kind(i, SlotKind::Ns);
                            }
                        }
                    }
                }
            }
            Some(Global::Pred(_, sorts)) => {
                let sorts = sorts.clone();
                for (a, s) in args.iter().zip(sorts) {
                    self.term(a, Some(s));
                }
            }
            _ => {}
        }
    }

    /// Walks the nodes to a fixpoint and returns the final sort of every
    /// slot, defaulting unconstrained ones.
    fn solve(&mut self, walk: &mut dyn FnMut(&mut Infer<'a>)) -> HashMap<usize, Sort> {
        for _ in 0..8 {
            self.changed = false;
            let mark = self.scope.len();
            walk(self);
            self.scope.truncate(mark);
            if !self.changed {
                break;
            }
        }
        self.slots
            .iter()
            .map(|s| {
                let default = if s.numeric { Sort::Int } else { Sort::Val };
                (s.id, s.sort.unwrap_or(default))
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Elaboration
// ---------------------------------------------------------------------

/// Looks up a library example by name: its `(SOURCE, ANNOTATION)`.
pub type Libraries<'a> = &'a dyn Fn(&str) -> Option<(&'static str, &'static str)>;

/// An elaborated annotation: the proof-context template, every
/// registered spec, and the specs this annotation declares.
#[derive(Debug, Clone)]
pub struct Elaborated {
    /// The proof-context template (variables and abstract predicates).
    pub ctx: ProofCtx,
    /// Every spec registered for calls, libraries included.
    pub table: SpecTable,
    /// The specs the annotation declares (its own and its instances'),
    /// in declaration order.
    pub declared: Vec<Spec>,
    /// `(spec, script)` of each `Next Obligation.` line, its own and its
    /// instances'.
    pub scripts: Vec<(String, Vec<Tactic>)>,
    /// The annotation's `HINT` clauses, in order.
    pub hints: Vec<Hint>,
}

/// What a local name is bound to during elaboration.
#[derive(Debug, Clone)]
enum Bind {
    Term(Term, Sort),
    Assert(Assertion),
    Ns(String),
    Thunk(Rc<Node>, Rc<HashMap<usize, Sort>>),
}

impl Bind {
    fn as_ref(&self) -> Ref {
        match self {
            Bind::Term(_, s) => Ref::Fixed(Kind::Term(*s)),
            Bind::Assert(_) | Bind::Thunk(..) => Ref::Fixed(Kind::Assert),
            Bind::Ns(_) => Ref::Fixed(Kind::Ns),
        }
    }
}

struct Env {
    locals: Vec<(String, Bind)>,
    sorts: Rc<HashMap<usize, Sort>>,
    prealloc: HashMap<usize, VarId>,
}

impl Env {
    fn new(locals: Vec<(String, Bind)>, sorts: Rc<HashMap<usize, Sort>>) -> Env {
        Env {
            locals,
            sorts,
            prealloc: HashMap::new(),
        }
    }

    fn lookup(&self, x: &str) -> Option<&Bind> {
        self.locals
            .iter()
            .rev()
            .find(|(n, _)| n == x)
            .map(|(_, b)| b)
    }
}

/// A library instantiated by an `Instance` statement.
struct InstCtx {
    binds: Vec<(String, Bind)>,
    extra: Vec<VarId>,
    renames: HashMap<String, String>,
}

struct Elab<'a> {
    atoms: &'a [AtomSig],
    libs: Libraries<'a>,
    vars: VarCtx,
    preds: PredTable,
    pred_sorts: HashMap<PredId, Vec<Sort>>,
    globals: HashMap<String, Global>,
    funcs: HashMap<String, Val>,
    table: SpecTable,
    declared: Vec<Spec>,
    scripts: Vec<(String, Vec<Tactic>)>,
    hints: Vec<Hint>,
    fuel: usize,
    depth: usize,
}

/// Parses `annotation` and elaborates it against `source`: the program is
/// linked (after the sources of any `Require`d libraries), and every
/// statement is turned into predicates, variables and registered specs.
///
/// # Errors
///
/// Returns the first parse or elaboration error, with its position.
pub fn elaborate(
    source: &str,
    annotation: &str,
    atoms: &[AtomSig],
    libs: Libraries<'_>,
) -> Result<Elaborated, AnnotError> {
    let ann = Annotation::parse(annotation)?;
    let mut full = String::new();
    for s in &ann.stmts {
        if let Stmt::Require(lib, pos) = s {
            match libs(lib) {
                Some((src, _)) => full.push_str(src),
                None => return fail(*pos, format!("unknown library `{lib}`")),
            }
        }
    }
    full.push_str(source);
    let funcs = link(&full)?;
    let mut e = Elab {
        atoms,
        libs,
        vars: VarCtx::new(),
        preds: PredTable::new(),
        pred_sorts: HashMap::new(),
        globals: HashMap::new(),
        funcs,
        table: SpecTable::new(),
        declared: Vec::new(),
        scripts: Vec::new(),
        hints: Vec::new(),
        fuel: MAX_ELABORATION_STEPS,
        depth: 0,
    };
    e.run(&ann.stmts, true, None)?;
    let mut ctx = ProofCtx::new(e.preds);
    ctx.vars = e.vars;
    Ok(Elaborated {
        ctx,
        table: e.table,
        declared: e.declared,
        scripts: e.scripts,
        hints: e.hints,
    })
}

fn source_err<T>(message: String) -> Res<T> {
    fail(Pos::default(), format!("program: {message}"))
}

/// Parses the program and links each definition to a closed value.
fn link(source: &str) -> Res<HashMap<String, Val>> {
    let defs = parse_program(source).or_else(|e| source_err(e.to_string()))?;
    let mut funcs: HashMap<String, Val> = HashMap::new();
    for def in &defs {
        let mut body = def.body.clone();
        for name in def.body.free_vars() {
            if let Some(val) = funcs.get(&name) {
                body = body.subst(&name, val);
            }
        }
        if !body.is_closed() {
            return source_err(format!(
                "definition {} mentions undefined {:?}",
                def.name,
                body.free_vars()
            ));
        }
        let Some(val) = body.to_rec_val().or_else(|| body.as_val().cloned()) else {
            return source_err(format!("definition {} is not a value", def.name));
        };
        funcs.insert(def.name.clone(), val);
    }
    Ok(funcs)
}

/// Whether a definition body applies the definition's own name.
fn mentions(n: &Node, name: &str) -> bool {
    match &n.ast {
        Ast::Name(x) => x == name,
        Ast::App(f, args) | Ast::Pre(f, args) => {
            f == name || args.iter().any(|a| mentions(a, name))
        }
        Ast::Hash(a) | Ast::Inj(_, a) | Ast::Neg(a) | Ast::Exists(_, a) | Ast::Inv(_, a) => {
            mentions(a, name)
        }
        Ast::Pair(a, b) | Ast::Add(a, b) | Ast::Sub(a, b) | Ast::Pure(_, a, b) | Ast::Or(a, b) => {
            mentions(a, name) || mentions(b, name)
        }
        Ast::PointsTo(a, q, b) => {
            mentions(a, name) || q.as_ref().is_some_and(|q| mentions(q, name)) || mentions(b, name)
        }
        Ast::Sep(items) => items.iter().any(|a| mentions(a, name)),
        Ast::Num(_) | Ast::Half | Ast::Unit | Ast::True => false,
    }
}

/// The most recently registered spec named `f`.
fn spec_named<'t>(table: &'t SpecTable, f: &str) -> Option<&'t Spec> {
    table.specs().iter().rev().find(|s| s.name == f)
}

/// The last points-to, ghost or predicate atom of `a` (in text order,
/// invariant bodies included) that mentions `v`.
fn last_atom_with(a: &Assertion, v: VarId) -> Option<Atom> {
    let mut last = None;
    a.walk(true, &mut |x| {
        if let Assertion::Atom(
            at @ (Atom::PointsTo { .. } | Atom::Ghost(_) | Atom::PredApp { .. }),
        ) = x
        {
            let mut hit = false;
            at.visit_terms(&mut |t| hit |= t.mentions_var(v));
            if hit {
                last = Some(at.clone());
            }
        }
    });
    last
}

/// The `∃` binders written in a node, in text order.
fn literal_exists<'n>(n: &'n Node, out: &mut Vec<&'n BinderDecl>) {
    match &n.ast {
        Ast::Exists(bs, body) => {
            out.extend(bs.iter());
            literal_exists(body, out);
        }
        Ast::Sep(items) => items.iter().for_each(|i| literal_exists(i, out)),
        Ast::Or(a, b) => {
            literal_exists(a, out);
            literal_exists(b, out);
        }
        Ast::Inv(_, a) => literal_exists(a, out),
        _ => {}
    }
}

impl Elab<'_> {
    /// Elaborates statements; `own` is false for a `Require`d library,
    /// whose specs are registered but not declared.
    fn run(&mut self, stmts: &[Stmt], own: bool, inst: Option<&InstCtx>) -> Res<()> {
        let mut last_spec: Option<String> = None;
        for stmt in stmts {
            match stmt {
                Stmt::Context(items) => self.context(items, inst)?,
                Stmt::Def {
                    name,
                    params,
                    body,
                    pos,
                } => {
                    if inst.is_some() && self.globals.contains_key(name.as_str()) {
                        continue;
                    }
                    self.def(name, params, body, *pos)?;
                }
                Stmt::Spec(d) => {
                    let spec = self.spec(d, inst)?;
                    last_spec = Some(spec.name.clone());
                    if own {
                        self.declared.push(spec);
                    }
                }
                Stmt::Require(lib, pos) => {
                    if own && inst.is_none() {
                        let ann = self.library(lib, *pos)?;
                        self.run(&ann.stmts, false, None)?;
                    } else {
                        return fail(
                            *pos,
                            "Require is only allowed in an example's own annotation",
                        );
                    }
                }
                Stmt::Instance {
                    lib,
                    extra,
                    with,
                    pos,
                } => {
                    if inst.is_some() {
                        return fail(*pos, "a library may not instantiate another library");
                    }
                    let ann = self.library(lib, *pos)?;
                    let ctx = self.instance(&ann, extra, with, *pos)?;
                    self.run(&ann.stmts, own, Some(&ctx))?;
                }
                Stmt::Hint(d) => {
                    if own && inst.is_none() {
                        let hint = self.hint(d)?;
                        self.hints.push(hint);
                    }
                }
                Stmt::Obligation(steps, pos) => {
                    let Some(spec) = &last_spec else {
                        return fail(*pos, "`Next Obligation.` must follow a SPEC");
                    };
                    if own {
                        let spec = spec_named(&self.table, spec)
                            .cloned()
                            .expect("the SPEC above was registered");
                        let script = steps
                            .iter()
                            .map(|d| self.decide(&spec, d))
                            .collect::<Res<Vec<_>>>()?;
                        self.scripts.push((spec.name, script));
                    }
                }
            }
        }
        Ok(())
    }

    /// Parses a library's annotation. Libraries cannot nest: `Require`
    /// and `Instance` are only read from an example's own annotation.
    fn library(&self, lib: &str, pos: Pos) -> Res<Annotation> {
        let Some((_, text)) = (self.libs)(lib) else {
            return fail(pos, format!("unknown library `{lib}`"));
        };
        Annotation::parse(text).map_err(|e| AnnotError {
            message: format!("in library `{lib}`: {}", e.message),
            ..e
        })
    }

    fn context(&mut self, items: &[CtxItem], inst: Option<&InstCtx>) -> Res<()> {
        if inst.is_some() {
            // An instance binds the library's parameters itself.
            return Ok(());
        }
        let fractional: Vec<&str> = items
            .iter()
            .filter_map(|i| match i {
                CtxItem::Fractional(n, _) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        for item in items {
            match item {
                CtxItem::Pred(names, sorts, pos) => {
                    for n in names {
                        let id = if fractional.contains(&n.as_str()) {
                            if sorts != &[Sort::Qp] {
                                return fail(
                                    *pos,
                                    format!("fractional `{n}` must have type Qp → iProp"),
                                );
                            }
                            self.preds.fresh_fractional(n)
                        } else if sorts.is_empty() {
                            self.preds.fresh_plain(n)
                        } else {
                            self.preds.fresh_pred(n, sorts.len())
                        };
                        self.pred_sorts.insert(id, sorts.clone());
                        self.globals
                            .insert(n.clone(), Global::Pred(id, sorts.clone()));
                    }
                }
                CtxItem::Fractional(n, pos) => {
                    let declared = items
                        .iter()
                        .any(|i| matches!(i, CtxItem::Pred(ns, ..) if ns.contains(n)));
                    if !declared {
                        return fail(*pos, format!("`{n}` is not a predicate of this Context"));
                    }
                }
                CtxItem::Vars(names, sort) => {
                    for n in names {
                        let v = self.vars.fresh_var(*sort, n);
                        self.globals.insert(n.clone(), Global::Var(v, *sort));
                    }
                }
                CtxItem::Ns(n, ns) => {
                    self.globals.insert(n.clone(), Global::Ns(ns.clone()));
                }
            }
        }
        Ok(())
    }

    fn def(&mut self, name: &str, params: &[BinderDecl], body: &Node, pos: Pos) -> Res<()> {
        let mut inf = Infer::new(self);
        let slots: Vec<usize> = params.iter().map(|p| inf.push(p)).collect();
        let sorts = inf.solve(&mut |inf| inf.assertion(body));
        let kinds: Vec<(String, Kind)> = params
            .iter()
            .zip(&slots)
            .map(|(p, i)| {
                let kind = match inf.slots[*i].kind {
                    SlotKind::Assert => Kind::Assert,
                    SlotKind::Ns => Kind::Ns,
                    SlotKind::Term | SlotKind::Unknown => Kind::Term(sorts[&p.id]),
                };
                (p.name.clone(), kind)
            })
            .collect();
        if mentions(body, name) {
            let mut arg_sorts = Vec::new();
            for (p, k) in &kinds {
                match k {
                    Kind::Term(s) => arg_sorts.push(*s),
                    _ => {
                        return fail(
                            pos,
                            format!("recursive `{name}` takes term parameters only, not `{p}`"),
                        )
                    }
                }
            }
            let id = self.preds.fresh_pred(name, arg_sorts.len());
            self.pred_sorts.insert(id, arg_sorts.clone());
            self.globals
                .insert(name.to_owned(), Global::Pred(id, arg_sorts));
        } else {
            let info = DefInfo {
                params: kinds,
                body: body.clone(),
                sorts: Rc::new(sorts),
            };
            self.globals
                .insert(name.to_owned(), Global::Def(Rc::new(info)));
        }
        Ok(())
    }

    fn instance(
        &mut self,
        lib: &Annotation,
        extra: &[(String, Pos)],
        with: &[(String, Node)],
        pos: Pos,
    ) -> Res<InstCtx> {
        let mut ctx = InstCtx {
            binds: Vec::new(),
            extra: Vec::new(),
            renames: HashMap::new(),
        };
        for (x, p) in extra {
            match self.globals.get(x.as_str()) {
                Some(Global::Var(v, _)) => ctx.extra.push(*v),
                _ => return fail(*p, format!("`{x}` is not a Context variable")),
            }
        }
        let mut preds = Vec::new();
        let mut nss = Vec::new();
        for s in &lib.stmts {
            if let Stmt::Context(items) = s {
                for i in items {
                    match i {
                        CtxItem::Pred(names, sorts, _) if sorts.is_empty() => {
                            preds.extend(names.iter())
                        }
                        CtxItem::Ns(n, _) => nss.push(n),
                        CtxItem::Fractional(..) => {}
                        _ => return fail(
                            pos,
                            "only a library's iProp and namespace parameters can be instantiated",
                        ),
                    }
                }
            }
        }
        if let Some(n) = preds
            .iter()
            .chain(&nss)
            .find(|n| !with.iter().any(|(w, _)| w == **n))
        {
            return fail(pos, format!("instance does not bind `{n}`"));
        }
        let funcs = lib.spec_names();
        for (name, node) in with {
            if preds.contains(&name) {
                let mut inf = Infer::new(self);
                let sorts = inf.solve(&mut |inf| inf.assertion(node));
                ctx.binds.push((
                    name.clone(),
                    Bind::Thunk(Rc::new(node.clone()), Rc::new(sorts)),
                ));
            } else if let Ast::Name(target) = &node.ast {
                if nss.contains(&name) {
                    let ns = match self.globals.get(target.as_str()) {
                        Some(Global::Ns(s)) => s.clone(),
                        _ => target.clone(),
                    };
                    ctx.binds.push((name.clone(), Bind::Ns(ns)));
                } else if funcs.contains(name) {
                    ctx.renames.insert(name.clone(), target.clone());
                } else {
                    return fail(
                        node.pos,
                        format!("the library has no parameter or spec `{name}`"),
                    );
                }
            } else {
                return fail(node.pos, format!("`{name}` must be bound to a name"));
            }
        }
        Ok(ctx)
    }

    /// Elaborates `destruct (decide (t₁ = t₂))` of `spec`'s script.
    fn decide(&self, spec: &Spec, d: &Decide) -> Res<Tactic> {
        let (lhs, ls, lt) = self.operand(spec, &d.lhs)?;
        let (rhs, rs, rt) = self.operand(spec, &d.rhs)?;
        if ls != rs {
            return fail(d.rhs.pos, format!("decide compares a {ls} with a {rs}"));
        }
        Ok(Tactic {
            name: format!("decide ({lt} = {rt})"),
            lhs,
            rhs,
        })
    }

    /// One side of a `decide`: an integer, or a name `spec` binds — a
    /// binder of the spec, else an `∃` of its pre- or postcondition — read
    /// from the last atom of its scope that mentions it.
    fn operand(&self, spec: &Spec, n: &Node) -> Res<(Operand, Sort, String)> {
        let x = match &n.ast {
            Ast::Num(k) => return Ok((Operand::Term(Term::int(*k)), Sort::Int, k.to_string())),
            Ast::Name(x) => x,
            _ => return fail(n.pos, "decide takes names and integers"),
        };
        // Variables are unique, so the binder's scope is all of the spec.
        let named = |v: &VarId| self.vars.var_name(*v) == x;
        let whole = Assertion::sep(spec.pre.clone(), spec.post.clone());
        let mut hole = std::iter::once(&spec.arg)
            .chain(&spec.binders)
            .copied()
            .find(named);
        whole.walk(true, &mut |a| match a {
            Assertion::Exists(b, _) if hole.is_none() && named(&b.var) => hole = Some(b.var),
            _ => {}
        });
        if let Some(hole) = hole {
            return match last_atom_with(&whole, hole) {
                Some(atom) => Ok((
                    Operand::Bound { atom, hole },
                    self.vars.var_sort(hole),
                    x.clone(),
                )),
                None => fail(n.pos, format!("no atom of `{x}`'s scope mentions it")),
            };
        }
        fail(n.pos, format!("unknown name `{x}` in decide"))
    }

    /// Elaborates a `HINT` clause. Its variables and binders are
    /// allocated for the elaboration only and rolled back after, so the
    /// annotation's variable numbering does not move.
    fn hint(&mut self, d: &HintDecl) -> Res<Hint> {
        let params: Vec<&BinderDecl> = d
            .names
            .iter()
            .filter(|b| {
                !self.globals.contains_key(&b.name) && b.name != "true" && b.name != "false"
            })
            .collect();
        let parts = [&d.key, &d.side, &d.goal, &d.residue];
        let mut inf = Infer::new(self);
        let sorts = inf.solve(&mut |inf| {
            for b in &params {
                inf.push(b);
            }
            for n in parts.into_iter().flatten() {
                inf.assertion(n);
            }
        });
        let mark = self.vars.checkpoint();
        let out = self.hint_clause(d, &params, sorts);
        self.vars.rollback(&mark);
        out
    }

    fn hint_clause(
        &mut self,
        d: &HintDecl,
        params: &[&BinderDecl],
        sorts: HashMap<usize, Sort>,
    ) -> Res<Hint> {
        let sort_of = |b: &BinderDecl| sorts.get(&b.id).copied().unwrap_or(Sort::Val);
        let mut locals = Vec::new();
        let mut vars = Vec::new();
        for b in params {
            let v = self.vars.fresh_var(sort_of(b), &b.name);
            locals.push((b.name.clone(), Bind::Term(Term::var(v), sort_of(b))));
            vars.push((v, sort_of(b), b.name.clone()));
        }
        let mut env = Env::new(locals, Rc::new(sorts.clone()));
        // An invariant's binders are out of the placeholders' reach.
        let mut part = |this: &mut Self, n: &Option<Node>| match n {
            Some(n) => {
                let a = this.assertion(n, &mut env)?;
                let mut inv = false;
                a.walk(false, &mut |x| {
                    inv |= matches!(x, Assertion::Atom(Atom::Invariant { .. }))
                });
                if inv {
                    return fail(n.pos, "a HINT clause cannot mention an invariant");
                }
                Ok(Some(a))
            }
            None => Ok(None),
        };
        let key = part(self, &d.key)?;
        let side = part(self, &d.side)?.unwrap_or_else(Assertion::emp);
        let goal = part(self, &d.goal)?;
        let residue = part(self, &d.residue)?.unwrap_or_else(Assertion::emp);
        let atom = |a: Option<Assertion>, at: &Option<Node>| match a {
            None => Ok(None),
            Some(Assertion::Atom(a)) => Ok(Some(a)),
            Some(_) => fail(
                at.as_ref().map_or(d.pos, |n| n.pos),
                "a HINT's H and A are atoms",
            ),
        };
        let key = atom(key, &d.key)?;
        let goal = atom(goal, &d.goal)?;
        let binders = binder_vars(&side)
            .into_iter()
            .chain(binder_vars(&residue))
            .map(|v| (v, self.vars.var_sort(v), self.vars.var_name(v).to_owned()))
            .collect();
        Ok(Hint {
            name: d.name.clone(),
            key,
            side,
            goal,
            residue,
            params: vars,
            binders,
        })
    }

    fn tick(&mut self, pos: Pos) -> Res<()> {
        if self.fuel == 0 {
            return fail(
                pos,
                "elaboration budget exhausted (definitions expand too much)",
            );
        }
        self.fuel -= 1;
        Ok(())
    }
}

impl Elab<'_> {
    #[allow(clippy::too_many_lines)]
    fn spec(&mut self, d: &SpecDecl, inst: Option<&InstCtx>) -> Res<Spec> {
        let fixed: Vec<(String, Bind)> = inst.map(|i| i.binds.clone()).unwrap_or_default();
        let named = |x: &str| {
            d.post_binders.iter().any(|b| b.name == x)
                || d.binders.iter().any(|b| b.ret && b.name == x)
        };
        let ret_binder = match &d.ret.ast {
            Ast::Name(x) if named(x) => Some(x.clone()),
            _ => None,
        };
        if let Some(b) = d
            .binders
            .iter()
            .find(|b| b.ret && ret_binder.as_ref() != Some(&b.name))
        {
            return fail(
                b.pos,
                format!(
                    "`{}` is ascribed `ret` but the spec returns something else",
                    b.name
                ),
            );
        }
        // Sorts of every binder of the spec.
        let mut inf = Infer::new(self);
        let sorts = inf.solve(&mut |inf| {
            for (n, b) in &fixed {
                inf.scope.push((n.clone(), b.as_ref()));
            }
            if let Some(a) = &d.arg {
                inf.push(a);
            }
            for b in &d.binders {
                inf.push(b);
            }
            inf.assertion(&d.pre);
            for b in &d.post_binders {
                inf.push(b);
            }
            inf.assertion(&d.post);
            inf.term(&d.ret, Some(Sort::Val));
        });
        let sort_of = |b: &BinderDecl| sorts.get(&b.id).copied().unwrap_or(Sort::Val);
        for b in d.binders.iter().chain(&d.post_binders) {
            if ret_binder.as_deref() == Some(b.name.as_str()) && sort_of(b) != Sort::Val {
                return fail(b.pos, "the return binder must be a value");
            }
        }

        // Allocation, in the documented order.
        let arg_name = d.arg.as_ref().map_or("a", |a| a.name.as_str());
        let arg = self.vars.fresh_var(Sort::Val, arg_name);
        let mut locals = fixed;
        if let Some(a) = &d.arg {
            locals.push((a.name.clone(), Bind::Term(Term::var(arg), Sort::Val)));
        }
        let mut ret = None;
        let mut binders = inst.map(|i| i.extra.clone()).unwrap_or_default();
        for b in &d.binders {
            let v = self.vars.fresh_var(sort_of(b), &b.name);
            if b.ret {
                ret = Some(v);
            } else {
                binders.push(v);
            }
            locals.push((b.name.clone(), Bind::Term(Term::var(v), sort_of(b))));
        }
        let ret = match ret {
            Some(v) => v,
            None => self
                .vars
                .fresh_var(Sort::Val, ret_binder.as_deref().unwrap_or("w")),
        };
        let mut post_vars = Vec::new();
        let mut post_locals = Vec::new();
        for b in &d.post_binders {
            if ret_binder.as_deref() == Some(b.name.as_str()) {
                post_locals.push((b.name.clone(), Bind::Term(Term::var(ret), Sort::Val)));
                continue;
            }
            let v = self.vars.fresh_var(sort_of(b), &b.name);
            post_vars.push(v);
            post_locals.push((b.name.clone(), Bind::Term(Term::var(v), sort_of(b))));
        }
        let mut prealloc = HashMap::new();
        let mut lits = Vec::new();
        literal_exists(&d.post, &mut lits);
        for b in lits {
            prealloc.insert(b.id, self.vars.fresh_var(sort_of(b), &b.name));
        }

        let sorts = Rc::new(sorts);
        let mut env = Env::new(locals, Rc::clone(&sorts));
        let pre = self.assertion(&d.pre, &mut env)?;
        env.locals.extend(post_locals);
        env.prealloc = prealloc;
        let q = self.assertion(&d.post, &mut env)?;
        let body = if ret_binder.is_some() {
            q
        } else {
            let (t, _) = self.term(&d.ret, &env, Some(Sort::Val))?;
            Assertion::sep(Assertion::pure(PureProp::eq(Term::var(ret), t)), q)
        };
        let post = post_vars
            .iter()
            .rev()
            .fold(body, |acc, v| Assertion::exists(Binder::new(*v), acc));

        let name = inst
            .and_then(|i| i.renames.get(&d.func))
            .unwrap_or(&d.func)
            .clone();
        let Some(func) = self.funcs.get(&name).cloned() else {
            return fail(d.pos, format!("the program has no definition `{name}`"));
        };
        let spec = Spec {
            name: name.clone(),
            func,
            arg,
            binders,
            pre,
            ret,
            post,
            atomic: false,
        };
        self.table.register(spec.clone());
        Ok(spec)
    }

    fn ns(&self, x: &str, env: &Env) -> String {
        match env.lookup(x) {
            Some(Bind::Ns(s)) => s.clone(),
            _ => match self.globals.get(x) {
                Some(Global::Ns(s)) => s.clone(),
                _ => x.to_owned(),
            },
        }
    }

    fn assertion(&mut self, n: &Node, env: &mut Env) -> Res<Assertion> {
        self.tick(n.pos)?;
        self.depth += 1;
        if self.depth > MAX_ANNOTATION_DEPTH {
            return fail(
                n.pos,
                format!("expansion nested deeper than {MAX_ANNOTATION_DEPTH}"),
            );
        }
        let out = self.assertion_inner(n, env);
        self.depth -= 1;
        out
    }

    fn assertion_inner(&mut self, n: &Node, env: &mut Env) -> Res<Assertion> {
        Ok(match &n.ast {
            Ast::True => Assertion::emp(),
            Ast::Pure(cmp, a, b) => {
                let s = self
                    .static_sort(a, env)
                    .or_else(|| self.static_sort(b, env));
                let (ta, sa) = self.term(a, env, s)?;
                let (tb, sb) = self.term(b, env, Some(sa))?;
                if sa != sb {
                    return fail(n.pos, format!("comparing a {sa} with a {sb}"));
                }
                Assertion::pure(match cmp {
                    Cmp::Eq => PureProp::eq(ta, tb),
                    Cmp::Ne => PureProp::ne(ta, tb),
                    Cmp::Lt => PureProp::lt(ta, tb),
                    Cmp::Le => PureProp::le(ta, tb),
                })
            }
            Ast::Sep(items) => {
                let mut out = Vec::with_capacity(items.len());
                for i in items {
                    out.push(self.assertion(i, env)?);
                }
                Assertion::sep_list(out)
            }
            Ast::Or(a, b) => {
                let a = self.assertion(a, env)?;
                Assertion::or(a, self.assertion(b, env)?)
            }
            Ast::Exists(bs, body) => {
                let mark = env.locals.len();
                let mut vs = Vec::new();
                for b in bs {
                    let sort = env.sorts.get(&b.id).copied().unwrap_or(Sort::Val);
                    let v = match env.prealloc.get(&b.id) {
                        Some(v) => *v,
                        None => self.vars.fresh_var(sort, &b.name),
                    };
                    vs.push(v);
                    env.locals
                        .push((b.name.clone(), Bind::Term(Term::var(v), sort)));
                }
                let body = self.assertion(body, env);
                env.locals.truncate(mark);
                vs.iter()
                    .rev()
                    .fold(body?, |acc, v| Assertion::exists(Binder::new(*v), acc))
            }
            Ast::Inv(ns, body) => {
                let ns = self.ns(ns, env);
                let body = self.assertion(body, env)?;
                Assertion::atom(Atom::invariant(Namespace::new(&ns), body))
            }
            Ast::PointsTo(l, q, v) => {
                let (l, _) = self.term(l, env, Some(Sort::Loc))?;
                let q = match q {
                    Some(q) => self.term(q, env, Some(Sort::Qp))?.0,
                    None => Term::qp_one(),
                };
                let (v, _) = self.term(v, env, Some(Sort::Val))?;
                Assertion::atom(Atom::points_to_frac(l, q, v))
            }
            Ast::Pre(f, args) => {
                let Some(spec) = spec_named(&self.table, f).cloned() else {
                    return fail(n.pos, format!("no spec `{f}` elaborated yet"));
                };
                if args.len() != spec.binders.len() + 1 {
                    return fail(
                        n.pos,
                        format!(
                            "PRE {f} takes the argument and {} binders",
                            spec.binders.len()
                        ),
                    );
                }
                let mut s = Subst::new();
                for (v, a) in std::iter::once(&spec.arg).chain(&spec.binders).zip(args) {
                    let sort = self.vars.var_sort(*v);
                    s.insert(*v, self.term(a, env, Some(sort))?.0);
                }
                spec.pre.subst(&s)
            }
            Ast::Name(x) => self.apply(x, &[], n.pos, env)?,
            Ast::App(f, args) => self.apply(f, args, n.pos, env)?,
            _ => return fail(n.pos, "expected an assertion, found a term"),
        })
    }

    fn pred_app(&mut self, p: PredId, args: &[Node], pos: Pos, env: &mut Env) -> Res<Assertion> {
        let sorts = self.pred_sorts.get(&p).cloned().unwrap_or_default();
        if sorts.len() != args.len() {
            return fail(
                pos,
                format!(
                    "predicate takes {} arguments, given {}",
                    sorts.len(),
                    args.len()
                ),
            );
        }
        let mut ts = Vec::new();
        for (a, s) in args.iter().zip(sorts) {
            ts.push(self.term(a, env, Some(s))?.0);
        }
        Ok(Assertion::atom(Atom::PredApp { pred: p, args: ts }))
    }

    fn apply(&mut self, f: &str, args: &[Node], pos: Pos, env: &mut Env) -> Res<Assertion> {
        if let Some(b) = env.lookup(f).cloned() {
            return match b {
                Bind::Assert(a) if args.is_empty() => Ok(a),
                Bind::Thunk(node, sorts) if args.is_empty() => {
                    let mut inner = Env::new(Vec::new(), sorts);
                    self.assertion(&node, &mut inner)
                }
                _ => fail(pos, format!("`{f}` is not an assertion here")),
            };
        }
        if let Some(sig) = self.atoms.iter().find(|s| s.kind.name == f).copied() {
            let want = usize::from(sig.pred) + 1 + sig.args.len();
            if args.len() != want {
                return fail(
                    pos,
                    format!("`{f}` takes {want} arguments, given {}", args.len()),
                );
            }
            let pred = if sig.pred {
                let p = match &args[0].ast {
                    Ast::Name(x) => match self.globals.get(x.as_str()) {
                        Some(Global::Pred(p, _)) => Some(*p),
                        _ => None,
                    },
                    _ => None,
                };
                match p {
                    Some(p) => Some(p),
                    None => return fail(args[0].pos, format!("`{f}` needs a predicate first")),
                }
            } else {
                None
            };
            let rest = &args[usize::from(sig.pred)..];
            let (gname, _) = self.term(&rest[0], env, Some(Sort::GhostName))?;
            let mut targs = Vec::new();
            for (a, s) in rest[1..].iter().zip(sig.args) {
                targs.push(self.term(a, env, Some(*s))?.0);
            }
            return Ok(Assertion::atom(Atom::Ghost(GhostAtom {
                kind: sig.kind,
                gname,
                pred,
                args: targs,
            })));
        }
        match self.globals.get(f).cloned() {
            Some(Global::Def(info)) => {
                if info.params.len() != args.len() {
                    return fail(
                        pos,
                        format!(
                            "`{f}` takes {} arguments, given {}",
                            info.params.len(),
                            args.len()
                        ),
                    );
                }
                let mut locals = Vec::new();
                for ((p, kind), a) in info.params.iter().zip(args) {
                    let b = match kind {
                        Kind::Term(s) => {
                            let (t, s2) = self.term(a, env, Some(*s))?;
                            Bind::Term(t, s2)
                        }
                        Kind::Assert => Bind::Assert(self.assertion(a, env)?),
                        Kind::Ns => match &a.ast {
                            Ast::Name(x) => Bind::Ns(self.ns(x, env)),
                            _ => return fail(a.pos, "expected a namespace"),
                        },
                    };
                    locals.push((p.clone(), b));
                }
                let mut inner = Env::new(locals, Rc::clone(&info.sorts));
                self.assertion(&info.body, &mut inner)
            }
            Some(Global::Pred(p, _)) => self.pred_app(p, args, pos, env),
            _ => fail(pos, format!("unknown assertion `{f}`")),
        }
    }

    fn static_sort(&self, n: &Node, env: &Env) -> Option<Sort> {
        match &n.ast {
            Ast::Name(x) => match env.lookup(x) {
                Some(Bind::Term(_, s)) => Some(*s),
                _ => match self.globals.get(x.as_str()) {
                    Some(Global::Var(_, s)) => Some(*s),
                    _ if x == "true" || x == "false" => Some(Sort::Bool),
                    _ => None,
                },
            },
            Ast::Half => Some(Sort::Qp),
            Ast::Hash(_) | Ast::Unit | Ast::Pair(..) | Ast::Inj(..) => Some(Sort::Val),
            Ast::Add(a, b) | Ast::Sub(a, b) => self
                .static_sort(a, env)
                .or_else(|| self.static_sort(b, env)),
            Ast::Neg(a) => self.static_sort(a, env),
            _ => None,
        }
    }

    fn term(&mut self, n: &Node, env: &Env, expected: Option<Sort>) -> Res<(Term, Sort)> {
        self.tick(n.pos)?;
        let out = match &n.ast {
            Ast::Name(x) => match env.lookup(x) {
                Some(Bind::Term(t, s)) => (t.clone(), *s),
                Some(_) => return fail(n.pos, format!("`{x}` is not a term")),
                None => match self.globals.get(x.as_str()) {
                    Some(Global::Var(v, s)) => (Term::var(*v), *s),
                    _ if x == "true" || x == "false" => (Term::bool(x == "true"), Sort::Bool),
                    _ => return fail(n.pos, format!("unbound variable `{x}`")),
                },
            },
            Ast::Num(k) if expected == Some(Sort::Qp) => {
                let q = if *k == 1 {
                    Term::qp_one()
                } else {
                    match Qp::new(*k, 1) {
                        Some(q) => Term::qp(q),
                        None => return fail(n.pos, "fractions are positive"),
                    }
                };
                (q, Sort::Qp)
            }
            Ast::Num(k) => (Term::int(*k), Sort::Int),
            Ast::Half => (Term::qp(Qp::half()), Sort::Qp),
            Ast::Unit => (Term::v_unit(), Sort::Val),
            Ast::Hash(inner) => {
                let t = match &inner.ast {
                    Ast::Num(k) => Term::v_int_lit(*k),
                    Ast::Unit => Term::v_unit(),
                    Ast::Name(x) if (x == "true" || x == "false") && env.lookup(x).is_none() => {
                        Term::v_bool_lit(x == "true")
                    }
                    _ => match self.term(inner, env, None)? {
                        (t, Sort::Int) => Term::v_int(t),
                        (t, Sort::Bool) => Term::v_bool(t),
                        (t, Sort::Loc) => Term::v_loc(t),
                        (_, s) => return fail(n.pos, format!("cannot embed a {s} with #")),
                    },
                };
                (t, Sort::Val)
            }
            Ast::Pair(a, b) => {
                let (a, _) = self.term(a, env, Some(Sort::Val))?;
                let (b, _) = self.term(b, env, Some(Sort::Val))?;
                (Term::v_pair(a, b), Sort::Val)
            }
            Ast::Inj(left, a) => {
                let (a, _) = self.term(a, env, Some(Sort::Val))?;
                (
                    if *left {
                        Term::v_inj_l(a)
                    } else {
                        Term::v_inj_r(a)
                    },
                    Sort::Val,
                )
            }
            Ast::Add(a, b) | Ast::Sub(a, b) => {
                let s = expected
                    .or_else(|| self.static_sort(a, env))
                    .or_else(|| self.static_sort(b, env));
                let (ta, sa) = self.term(a, env, s)?;
                let (tb, _) = self.term(b, env, Some(sa))?;
                let t = if matches!(n.ast, Ast::Add(..)) {
                    Term::add(ta, tb)
                } else {
                    Term::sub(ta, tb)
                };
                (t, sa)
            }
            Ast::Neg(a) => {
                let (t, s) = self.term(a, env, expected)?;
                (Term::neg(t), s)
            }
            _ => return fail(n.pos, "expected a term, found an assertion"),
        };
        if let Some(e) = expected {
            if e != out.1 {
                return fail(n.pos, format!("expected a {e}, found a {}", out.1));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOCK: &str = "\
def newlock _ := ref false
def acquire l := if CAS(l, false, true) then () else acquire l
";

    fn run(src: &str, ann: &str) -> Result<Elaborated, AnnotError> {
        elaborate(
            src,
            ann,
            &diaframe_ghost::Registry::standard_atoms(),
            &|_| None,
        )
    }

    #[test]
    fn elaborates_in_allocation_order() {
        let e = run(
            LOCK,
            "Context (R : iProp)\n\
             is_lock γ lk := ∃ l. ⌜lk = #l⌝ ∗ inv lock (∃ b. l ↦ #b ∗ (⌜#b = #true⌝ ∨ locked γ ∗ R))\n\
             SPEC γ, {{ is_lock γ lk }} acquire lk {{ RET #(); locked γ ∗ R }}\n",
        )
        .unwrap();
        let names: Vec<(String, Sort)> = (0..e.ctx.vars.num_vars())
            .map(|i| {
                let v = VarId::from_index(i);
                (e.ctx.vars.var_name(v).to_owned(), e.ctx.vars.var_sort(v))
            })
            .collect();
        let expect = [
            ("lk", Sort::Val),
            ("γ", Sort::GhostName),
            ("w", Sort::Val),
            ("l", Sort::Loc),
            ("b", Sort::Bool),
        ];
        let expect: Vec<(String, Sort)> =
            expect.iter().map(|(n, s)| ((*n).to_owned(), *s)).collect();
        assert_eq!(names, expect);
        assert_eq!(e.declared.len(), 1);
        assert_eq!(e.declared[0].binders.len(), 1);
        assert!(matches!(e.declared[0].post, Assertion::Sep(..)));
    }

    #[test]
    fn errors_carry_line_and_column() {
        let err = run(LOCK, "SPEC {{ True }} acquire l\n  {{ RET #(); ⌜l = ⌝ }}\n").unwrap_err();
        assert_eq!((err.line, err.col), (2, 20), "{err}");
        let err = run(LOCK, "SPEC {{ nope l }} acquire l {{ RET #(); True }}\n").unwrap_err();
        assert_eq!((err.line, err.col), (1, 9), "{err}");
        assert!(err.message.contains("unknown assertion"));
        let err = run(LOCK, "SPEC {{ True }} release l {{ RET #(); True }}\n").unwrap_err();
        assert!(err.message.contains("no definition `release`"), "{err}");
    }

    /// The deepest nesting the bound admits parses and elaborates within
    /// a test thread's 2 MiB stack in a debug build; one level more is an
    /// error. The specification itself takes the first two levels.
    #[test]
    fn deepest_accepted_nesting_fits_a_thread_stack() {
        let max = MAX_ANNOTATION_DEPTH - 2;
        let spec = |pre: &str| format!("SPEC {{{{ {pre} }}}} acquire l {{{{ RET #(); True }}}}\n");
        // `dᵢ := dᵢ₋₁`: one definition expansion per level.
        let chain = |n: usize| {
            let mut a = String::from("d0 := True\n");
            for i in 1..=n {
                a.push_str(&format!("d{i} := d{}\n", i - 1));
            }
            a + &spec(&format!("d{n}"))
        };
        run(LOCK, &chain(max)).unwrap();
        let err = run(LOCK, &chain(max + 1)).unwrap_err();
        assert!(
            err.message.contains("expansion nested deeper than"),
            "{err}"
        );
        let exists = |n: usize| spec(&format!("{}True", "∃ y. ".repeat(n)));
        run(LOCK, &exists(max)).unwrap();
        let err = run(LOCK, &exists(max + 1)).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        // A parenthesis is two levels.
        let parens = |n: usize| format!("f x := {}True{}", "(".repeat(n), ")".repeat(n));
        Annotation::parse(&parens(max / 2)).unwrap();
        assert!(Annotation::parse(&parens(max / 2 + 1)).is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        // 20 KB of `(` in one statement.
        let deep = format!("f x := {}", "(".repeat(20_000));
        let err = Annotation::parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        let neg = format!("f x := ⌜x = {}1⌝", "-".repeat(20_000));
        assert!(Annotation::parse(&neg).is_err());
    }

    #[test]
    fn exponential_expansion_runs_out_of_budget() {
        // Two nesting levels per definition (the name and its `∗` body):
        // 30 stay under the depth bound, and 2^30 nodes exceed the budget.
        let mut ann = String::from("d0 := True\n");
        for i in 1..30 {
            ann.push_str(&format!("d{i} := d{} ∗ d{}\n", i - 1, i - 1));
        }
        ann.push_str("SPEC {{ d29 }} acquire l {{ RET #(); True }}\n");
        let err = run(LOCK, &ann).unwrap_err();
        assert!(err.message.contains("budget"), "{err}");
    }

    #[test]
    fn comments_scripts_and_hints_are_statements() {
        let text =
            "// c\nSPEC {{ True }} f x {{ RET #(); True }}\nNext Obligation. iStepsS. Qed.\n";
        let a = Annotation::parse(&format!("{text}HINT h-1: ε₁ ⊫ c h\n")).unwrap();
        assert_eq!(a.statement_lines(), &[2, 3, 4]);
        assert_eq!(a.spec_names(), vec!["f".to_owned()]);
    }

    const CHAIN: &str = "\
chain h nl := ⌜h = nl⌝ ∨ ∃ l nx. ⌜h = #l⌝ ∗ l ↦ nx ∗ chain nx nl
SPEC (k : loc) n, {{ ⌜l = #k⌝ ∗ k ↦ #n ∗ (∃ z. k ↦ #z) }} acquire l {{ RET #(); True }}
";

    #[test]
    fn scripts_resolve_names_through_their_last_atom() {
        let script = "Next Obligation. destruct (decide (n = z)); destruct (decide (z = 1)). Qed.";
        let e = run(LOCK, &format!("{CHAIN}{script}\n")).unwrap();
        let [(spec, script)] = e.scripts.as_slice() else {
            panic!("{:?}", e.scripts)
        };
        assert_eq!(spec, "acquire");
        let [Tactic { name, lhs, rhs }, Tactic { rhs: one, .. }] = &script[..] else {
            panic!("{script:?}")
        };
        assert_eq!(name, "decide (n = z)");
        assert_eq!(*one, Operand::Term(Term::int(1)));
        for (op, x) in [(lhs, "n"), (rhs, "z")] {
            let Operand::Bound { atom, hole } = op else {
                panic!("{op:?}")
            };
            assert_eq!(e.ctx.vars.var_name(*hole), x);
            assert!(matches!(atom, Atom::PointsTo { .. }));
        }
    }

    #[test]
    fn hints_elaborate_without_moving_the_variable_numbering() {
        let body = "⌜h = nl⌝ ∨ ∃ l nx. ⌜h = #l⌝ ∗ l ↦ nx ∗ chain nx nl";
        let hints = format!("HINT f: ε₁ ∗ [{body}] ⊫ chain h nl\nHINT u: chain h nl ⊫ [{body}]\n");
        let e = run(LOCK, &format!("{CHAIN}{hints}")).unwrap();
        let plain = run(LOCK, CHAIN).unwrap();
        assert_eq!(e.ctx.vars.num_vars(), plain.ctx.vars.num_vars());
        let [fold, unfold] = e.hints.as_slice() else {
            panic!("{:?}", e.hints)
        };
        assert!(fold.key.is_none() && fold.goal.is_some());
        assert!(unfold.key.is_some() && unfold.goal.is_none());
        let sorts = |vs: &[(VarId, Sort, String)]| -> Vec<(Sort, String)> {
            vs.iter().map(|(_, s, n)| (*s, n.clone())).collect()
        };
        let lnx = vec![(Sort::Loc, "l".to_owned()), (Sort::Val, "nx".to_owned())];
        assert_eq!(sorts(&unfold.binders), lnx);
        assert_eq!(sorts(&fold.binders), lnx);
        assert_eq!(
            sorts(&fold.params),
            [(Sort::Val, "h".into()), (Sort::Val, "nl".into())]
        );
        let n = plain.ctx.vars.num_vars();
        assert!(fold
            .params
            .iter()
            .chain(&fold.binders)
            .all(|v| v.0.index() >= n));
    }

    #[test]
    fn malformed_scripts_and_hints_are_positioned_errors() {
        for case in [
            "Next Obligation. destruct (decide (y = 1)); iStepsS. Qed. @ 3:36: unknown name `y`",
            "Next Obligation. iIntros. Qed. @ 3:18: unsupported script tactic 'iIntros'",
            "Next Obligation. destruct (decide (n = 1)); iStepsS. @ 3:53: `Next Obligation.` must end",
            "HINT c-fold: ε₁ ∗ [⌜h = nl⌝] chain h nl @ 3:30: expected '⊫', found 'chain'",
            "HINT c-fold: ε₁ ∗ [⌜h = nl⌝] ⊫ nochain h nl @ 3:32: unknown assertion `nochain`",
            "HINT c-dup: chain h nl ⊫ inv N (chain h nl) @ 3:26: a HINT clause cannot mention",
            "HINT c-fold: ε₁ ⊫ [chain h nl] @ 3:1: an ε₁ hint needs a goal atom",
            "HINT c-fold ε₁ ⊫ chain h nl @ 3:1: expected `HINT name:",
        ] {
            let (line, want) = case.split_once(" @ ").unwrap();
            let err = run(LOCK, &format!("{CHAIN}{line}\n")).unwrap_err();
            assert!(
                err.to_string().contains(&format!("at {want}")),
                "{line}: {err}"
            );
        }
    }
}
