//! A recursive-descent parser for HeapLang's ML-like surface syntax.
//!
//! The benchmark programs are written in this syntax, mirroring the
//! notation of the paper's figures. A taste:
//!
//! ```text
//! def newlock _ := ref false
//!
//! def acquire l :=
//!   if CAS(l, false, true) then () else acquire l
//!
//! def release l := l <- false
//! ```
//!
//! Grammar (loosely, precedence low → high):
//!
//! ```text
//! expr     ::= 'let' pat ':=' expr 'in' expr
//!            | 'fun' pat+ ':=' expr | 'rec' ident pat+ ':=' expr
//!            | 'if' expr 'then' expr 'else' expr
//!            | 'match' expr 'with' 'inl' pat '=>' expr '|' 'inr' pat '=>' expr 'end'
//!            | seq
//! seq      ::= store (';;' expr)?
//! store    ::= or ('<-' or)?
//! or       ::= and ('||' and)*
//! and      ::= cmp ('&&' cmp)*
//! cmp      ::= add (('='|'!='|'<'|'<='|'>'|'>=') add)?
//! add      ::= mul (('+'|'-') mul)*
//! mul      ::= app (('*'|'/'|'%') app)*
//! app      ::= prefix atom*
//! prefix   ::= ('!'|'ref'|'fst'|'snd'|'inl'|'inr'|'assert'|'~'|'-') prefix
//!            | 'CAS' '(' expr ',' expr ',' expr ')'
//!            | 'FAA' '(' expr ',' expr ')'
//!            | 'fork' '{' expr '}'
//!            | atom
//! atom     ::= literal | ident | '(' ')' | '(' expr (',' expr)? ')'
//! ```

pub(crate) mod lexer;

use crate::expr::{BinOp, Expr, UnOp};
use lexer::{lex, SpannedTok, Tok};
use std::fmt;
use std::sync::Arc;

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Source line (1-based), 0 when at end of input.
    pub line: u32,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<lexer::LexError> for ParseError {
    fn from(e: lexer::LexError) -> ParseError {
        ParseError {
            line: e.line,
            message: e.message,
        }
    }
}

/// A top-level definition produced by [`parse_program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// The definition's name.
    pub name: String,
    /// Its body (a function or plain expression, possibly referring to
    /// earlier definitions by name).
    pub body: Expr,
}

/// Parses a single expression.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_expr(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser::new(&toks);
    let e = p.expr()?;
    p.expect_eof()?;
    Ok(e)
}

/// Parses a program: a sequence of `def name args… := body` definitions.
/// Later definitions may refer to earlier ones by name.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input.
pub fn parse_program(src: &str) -> Result<Vec<Def>, ParseError> {
    let toks = lex(src)?;
    let mut p = Parser::new(&toks);
    let mut defs = Vec::new();
    while !p.at_eof() {
        defs.push(p.def()?);
    }
    Ok(defs)
}

/// Substitutes the given definitions (in order) into an expression —
/// earlier definitions may appear free in later ones and in `main`.
///
/// # Panics
///
/// Panics if a definition body is not closed after substituting its
/// predecessors (i.e. it refers to an undefined name) or is not a value.
#[must_use]
pub fn link(defs: &[Def], main: &Expr) -> Expr {
    let mut resolved: Vec<(String, crate::value::Val)> = Vec::new();
    for def in defs {
        let mut body = def.body.clone();
        for (name, val) in &resolved {
            body = body.subst(name, val);
        }
        assert!(
            body.is_closed(),
            "definition {} refers to undefined names {:?}",
            def.name,
            body.free_vars()
        );
        let val = match body.to_rec_val() {
            Some(v) => v,
            None => {
                // Non-function definitions must already be literal values.
                body.as_val()
                    .unwrap_or_else(|| panic!("definition {} is not a value", def.name))
                    .clone()
            }
        };
        resolved.push((def.name.clone(), val));
    }
    let mut out = main.clone();
    for (name, val) in &resolved {
        out = out.subst(name, val);
    }
    out
}

/// Deepest expression nesting the parser accepts (parentheses, prefix
/// operators, `let`/`;;` chains): past it, a [`ParseError`] instead of a
/// stack overflow. A parenthesis counts two levels (the expression and
/// the prefix atom it opens), and each level costs up to about 14 KiB of
/// stack in a debug build, so 64 levels stay under 1 MiB: half of a
/// 2 MiB thread stack. The deepest example program or adequacy client
/// nests 22 levels.
pub const MAX_NESTING_DEPTH: usize = 64;

struct Parser<'a> {
    toks: &'a [SpannedTok],
    pos: usize,
    depth: usize,
}

type PResult<T> = Result<T, ParseError>;

impl<'a> Parser<'a> {
    fn new(toks: &'a [SpannedTok]) -> Parser<'a> {
        Parser {
            toks,
            pos: 0,
            depth: 0,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(0, |s| s.line)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> PResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected '{t}', found {}",
                self.peek()
                    .map_or("end of input".to_owned(), |p| format!("'{p}'"))
            )))
        }
    }

    fn err(&self, message: String) -> ParseError {
        ParseError {
            line: self.line(),
            message,
        }
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn expect_eof(&self) -> PResult<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(self.err(format!(
                "unexpected '{}' after expression",
                self.peek().expect("not at eof")
            )))
        }
    }

    /// A binder: an identifier or `_`.
    fn pat(&mut self) -> PResult<Option<String>> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(if s == "_" { None } else { Some(s) }),
            Some(other) => Err(self.err(format!("expected binder, found '{other}'"))),
            None => Err(self.err("expected binder, found end of input".into())),
        }
    }

    fn def(&mut self) -> PResult<Def> {
        self.expect(&Tok::Def)?;
        let name = match self.bump() {
            Some(Tok::Ident(s)) => s,
            other => return Err(self.err(format!("expected definition name, found {other:?}"))),
        };
        let mut params = Vec::new();
        while !matches!(self.peek(), Some(Tok::ColonEq)) {
            params.push(self.pat()?);
        }
        self.expect(&Tok::ColonEq)?;
        let body = self.expr()?;
        let body = match params.split_first() {
            None => body,
            Some((first, rest)) => {
                // def f x y := e   ⇝   rec f x := fun y := e
                let inner = rest.iter().rev().fold(body, |acc, p| Expr::Rec {
                    f: None,
                    x: p.clone(),
                    body: Arc::new(acc),
                });
                Expr::Rec {
                    f: Some(name.clone()),
                    x: first.clone(),
                    body: Arc::new(inner),
                }
            }
        };
        Ok(Def { name, body })
    }

    /// Runs `f` one nesting level deeper, failing past the cap.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        if self.depth == MAX_NESTING_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_NESTING_DEPTH}")));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::expr_inner)
    }

    fn expr_inner(&mut self) -> PResult<Expr> {
        match self.peek() {
            Some(Tok::Let) => {
                self.bump();
                let x = self.pat()?;
                self.expect(&Tok::ColonEq)?;
                let e1 = self.expr_no_seq()?;
                self.expect(&Tok::In)?;
                let e2 = self.expr()?;
                Ok(Expr::app(
                    Expr::Rec {
                        f: None,
                        x,
                        body: Arc::new(e2),
                    },
                    e1,
                ))
            }
            Some(Tok::Fun) => {
                self.bump();
                let mut params = vec![self.pat()?];
                while !matches!(self.peek(), Some(Tok::ColonEq)) {
                    params.push(self.pat()?);
                }
                self.expect(&Tok::ColonEq)?;
                let body = self.expr()?;
                Ok(params.into_iter().rev().fold(body, |acc, p| Expr::Rec {
                    f: None,
                    x: p,
                    body: Arc::new(acc),
                }))
            }
            Some(Tok::Rec) => {
                self.bump();
                let f = self.pat()?;
                let mut params = vec![self.pat()?];
                while !matches!(self.peek(), Some(Tok::ColonEq)) {
                    params.push(self.pat()?);
                }
                self.expect(&Tok::ColonEq)?;
                let body = self.expr()?;
                let (first, rest) = params.split_first().expect("at least one param");
                let inner = rest.iter().rev().fold(body, |acc, p| Expr::Rec {
                    f: None,
                    x: p.clone(),
                    body: Arc::new(acc),
                });
                Ok(Expr::Rec {
                    f,
                    x: first.clone(),
                    body: Arc::new(inner),
                })
            }
            Some(Tok::Match) => {
                self.bump();
                let scrut = self.expr()?;
                self.expect(&Tok::With)?;
                self.eat(&Tok::Pipe); // optional leading pipe
                self.expect(&Tok::Inl)?;
                let xl = self.pat()?;
                self.expect(&Tok::FatArrow)?;
                let el = self.expr()?;
                self.expect(&Tok::Pipe)?;
                self.expect(&Tok::Inr)?;
                let xr = self.pat()?;
                self.expect(&Tok::FatArrow)?;
                let er = self.expr()?;
                self.expect(&Tok::End)?;
                let arm = |x: Option<String>, body: Expr| Expr::Rec {
                    f: None,
                    x,
                    body: Arc::new(body),
                };
                Ok(Expr::Case(
                    Arc::new(scrut),
                    Arc::new(arm(xl, el)),
                    Arc::new(arm(xr, er)),
                ))
            }
            Some(Tok::If) => {
                self.bump();
                let c = self.expr()?;
                self.expect(&Tok::Then)?;
                let t = self.expr_arm()?;
                self.expect(&Tok::Else)?;
                let e = self.expr_arm()?;
                let out = Expr::if_(c, t, e);
                // An `if` may be followed by `;;` continuation.
                if self.eat(&Tok::SemiSemi) {
                    let rest = self.expr()?;
                    Ok(Expr::seq(out, rest))
                } else {
                    Ok(out)
                }
            }
            _ => self.seq(),
        }
    }

    /// The branch of an `if`: like `expr`, but stops before `else` and
    /// before a trailing `;;` that belongs to the enclosing expression.
    fn expr_arm(&mut self) -> PResult<Expr> {
        match self.peek() {
            Some(Tok::Let | Tok::Fun | Tok::Rec | Tok::Match | Tok::If) => self.expr(),
            _ => self.store(),
        }
    }

    /// An expression that must not swallow a following `in`: used for the
    /// bound expression of a `let`. (Same grammar; `let`'s `in` keyword
    /// terminates it naturally, so this is just `expr`.)
    fn expr_no_seq(&mut self) -> PResult<Expr> {
        self.expr()
    }

    fn seq(&mut self) -> PResult<Expr> {
        let first = self.store()?;
        if self.eat(&Tok::SemiSemi) {
            let rest = self.expr()?;
            Ok(Expr::seq(first, rest))
        } else {
            Ok(first)
        }
    }

    fn store(&mut self) -> PResult<Expr> {
        let lhs = self.or_expr()?;
        if self.eat(&Tok::LArrow) {
            let rhs = self.or_expr()?;
            Ok(Expr::store(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut e = self.and_expr()?;
        while self.eat(&Tok::OrOr) {
            let r = self.and_expr()?;
            e = Expr::binop(BinOp::Or, e, r);
        }
        Ok(e)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut e = self.cmp()?;
        while self.eat(&Tok::AndAnd) {
            let r = self.cmp()?;
            e = Expr::binop(BinOp::And, e, r);
        }
        Ok(e)
    }

    fn cmp(&mut self) -> PResult<Expr> {
        let e = self.add()?;
        let op = match self.peek() {
            Some(Tok::EqSym) => Some(BinOp::Eq),
            Some(Tok::NeSym) => Some(BinOp::Ne),
            Some(Tok::Lt) => Some(BinOp::Lt),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::Gt) => Some(BinOp::Gt),
            Some(Tok::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let r = self.add()?;
                Ok(Expr::binop(op, e, r))
            }
            None => Ok(e),
        }
    }

    fn add(&mut self) -> PResult<Expr> {
        let mut e = self.mul()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.bump();
            let r = self.mul()?;
            e = Expr::binop(op, e, r);
        }
        Ok(e)
    }

    fn mul(&mut self) -> PResult<Expr> {
        let mut e = self.app()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                Some(Tok::Percent) => BinOp::Mod,
                _ => break,
            };
            self.bump();
            let r = self.app()?;
            e = Expr::binop(op, e, r);
        }
        Ok(e)
    }

    fn app(&mut self) -> PResult<Expr> {
        let mut e = self.prefix()?;
        while self.starts_atom() {
            let arg = self.prefix()?;
            e = Expr::app(e, arg);
        }
        Ok(e)
    }

    /// Whether the next token can start an (argument) atom.
    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Some(
                Tok::Ident(_)
                    | Tok::Int(_)
                    | Tok::True
                    | Tok::False
                    | Tok::LParen
                    | Tok::Bang
                    | Tok::Ref
                    | Tok::Fst
                    | Tok::Snd
                    | Tok::Inl
                    | Tok::Inr
                    | Tok::Cas
                    | Tok::Faa
                    | Tok::Fork
                    | Tok::Assert
                    | Tok::Tilde
            )
        )
    }

    fn prefix(&mut self) -> PResult<Expr> {
        self.nested(Self::prefix_inner)
    }

    fn prefix_inner(&mut self) -> PResult<Expr> {
        match self.peek() {
            Some(Tok::Bang) => {
                self.bump();
                Ok(Expr::load(self.prefix()?))
            }
            Some(Tok::Ref) => {
                self.bump();
                Ok(Expr::alloc(self.prefix()?))
            }
            Some(Tok::Fst) => {
                self.bump();
                Ok(Expr::Fst(Arc::new(self.prefix()?)))
            }
            Some(Tok::Snd) => {
                self.bump();
                Ok(Expr::Snd(Arc::new(self.prefix()?)))
            }
            Some(Tok::Inl) => {
                self.bump();
                Ok(Expr::InjL(Arc::new(self.prefix()?)))
            }
            Some(Tok::Inr) => {
                self.bump();
                Ok(Expr::InjR(Arc::new(self.prefix()?)))
            }
            Some(Tok::Tilde) => {
                self.bump();
                Ok(Expr::UnOp(UnOp::Not, Arc::new(self.prefix()?)))
            }
            Some(Tok::Minus) => {
                self.bump();
                Ok(Expr::UnOp(UnOp::Neg, Arc::new(self.prefix()?)))
            }
            Some(Tok::Assert) => {
                self.bump();
                let e = self.prefix()?;
                // assert e ⇝ if e then () else <stuck>; proving safety of
                // the desugared form requires proving e = true.
                Ok(Expr::if_(
                    e,
                    Expr::unit(),
                    Expr::app(Expr::int(0), Expr::int(0)),
                ))
            }
            Some(Tok::Cas) => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let l = self.expr()?;
                self.expect(&Tok::Comma)?;
                let old = self.expr()?;
                self.expect(&Tok::Comma)?;
                let new = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::cas(l, old, new))
            }
            Some(Tok::Faa) => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let l = self.expr()?;
                self.expect(&Tok::Comma)?;
                let k = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::faa(l, k))
            }
            Some(Tok::Fork) => {
                self.bump();
                self.expect(&Tok::LBrace)?;
                let e = self.expr()?;
                self.expect(&Tok::RBrace)?;
                Ok(Expr::fork(e))
            }
            _ => self.atom(),
        }
    }

    fn atom(&mut self) -> PResult<Expr> {
        match self.bump() {
            Some(Tok::Int(n)) => Ok(Expr::int(n)),
            Some(Tok::True) => Ok(Expr::bool(true)),
            Some(Tok::False) => Ok(Expr::bool(false)),
            Some(Tok::Ident(x)) => Ok(Expr::var(&x)),
            Some(Tok::LParen) => {
                if self.eat(&Tok::RParen) {
                    return Ok(Expr::unit());
                }
                let e = self.expr()?;
                if self.eat(&Tok::Comma) {
                    let e2 = self.expr()?;
                    self.expect(&Tok::RParen)?;
                    Ok(Expr::Pair(Arc::new(e), Arc::new(e2)))
                } else {
                    self.expect(&Tok::RParen)?;
                    Ok(e)
                }
            }
            Some(other) => Err(self.err(format!("unexpected '{other}'"))),
            None => Err(self.err("unexpected end of input".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Machine;
    use crate::value::Val;

    fn run(src: &str) -> Val {
        let e = parse_expr(src).unwrap();
        Machine::new(e).run_round_robin(1_000_000).unwrap()
    }

    #[test]
    fn literals_and_arithmetic() {
        assert_eq!(run("1 + 2 * 3"), Val::int(7));
        assert_eq!(run("(1 + 2) * 3"), Val::int(9));
        assert_eq!(run("10 - 2 - 3"), Val::int(5));
        assert_eq!(run("7 % 3"), Val::int(1));
        assert_eq!(run("-3 + 4"), Val::int(1));
    }

    #[test]
    fn booleans_and_comparisons() {
        assert_eq!(run("1 < 2"), Val::bool(true));
        assert_eq!(run("1 = 2"), Val::bool(false));
        assert_eq!(run("1 != 2 && true"), Val::bool(true));
        assert_eq!(run("~false || false"), Val::bool(true));
    }

    #[test]
    fn let_seq_and_heap() {
        assert_eq!(run("let x := ref 41 in x <- !x + 1 ;; !x"), Val::int(42));
    }

    #[test]
    fn functions_and_recursion() {
        assert_eq!(run("(fun x := x + 1) 41"), Val::int(42));
        assert_eq!(
            run("(rec fact n := if n = 0 then 1 else n * fact (n - 1)) 5"),
            Val::int(120)
        );
        // Multi-argument (curried) functions.
        assert_eq!(run("(fun x y := x - y) 10 3"), Val::int(7));
    }

    #[test]
    fn pairs_and_sums() {
        assert_eq!(run("fst (1, 2)"), Val::int(1));
        assert_eq!(run("snd (1, 2)"), Val::int(2));
        assert_eq!(
            run("match inl 3 with inl x => x + 1 | inr y => 0 end"),
            Val::int(4)
        );
        assert_eq!(
            run("match inr 3 with inl x => 0 | inr y => y + 2 end"),
            Val::int(5)
        );
    }

    #[test]
    fn cas_faa_and_fork() {
        assert_eq!(
            run("let l := ref false in CAS(l, false, true) ;; !l"),
            Val::bool(true)
        );
        assert_eq!(run("let l := ref 5 in FAA(l, 2)"), Val::int(5));
        assert_eq!(run("fork { 1 + 1 } ;; 3"), Val::int(3));
    }

    #[test]
    fn assert_sugar() {
        assert_eq!(run("assert (1 < 2) ;; 5"), Val::int(5));
        let e = parse_expr("assert (2 < 1)").unwrap();
        assert!(Machine::new(e).run_round_robin(1000).is_err());
    }

    #[test]
    fn spinlock_program_parses_and_runs() {
        let src = r"
            def newlock _ := ref false
            def acquire l := if CAS(l, false, true) then () else acquire l
            def release l := l <- false
        ";
        let defs = parse_program(src).unwrap();
        assert_eq!(defs.len(), 3);
        let main =
            parse_expr("let lk := newlock () in acquire lk ;; release lk ;; acquire lk ;; 1")
                .unwrap();
        let linked = link(&defs, &main);
        assert!(linked.is_closed());
        assert_eq!(
            Machine::new(linked).run_round_robin(100_000).unwrap(),
            Val::int(1)
        );
    }

    #[test]
    fn underscore_binder() {
        assert_eq!(run("(fun _ := 3) 99"), Val::int(3));
    }

    #[test]
    fn parse_errors_have_lines() {
        let err = parse_expr("1 +\n+ 2").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse_expr("let x := in 3").is_err());
        assert!(parse_expr("(1, 2").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        // 20 KB of `(` used to overflow the stack and abort the process.
        let deep = "(".repeat(20_000);
        let err = parse_expr(&deep).unwrap_err();
        assert!(err.message.contains("nesting deeper than"), "{err}");
        assert!(parse_program(&format!("def f x := {deep}")).is_err());
        // The outermost expression and its atom take the first two levels,
        // and each parenthesis two more.
        let parens = MAX_NESTING_DEPTH / 2 - 1;
        let ok = format!("{}1{}", "(".repeat(parens), ")".repeat(parens));
        assert!(parse_expr(&ok).is_ok());
        let too_deep = format!("{}1{}", "(".repeat(parens + 1), ")".repeat(parens + 1));
        assert!(parse_expr(&too_deep).is_err());
        assert!(parse_expr(&"!".repeat(20_000)).is_err());
        assert!(parse_expr(&"CAS(".repeat(20_000)).is_err());
        assert!(parse_expr(&"let x := 1 in ".repeat(20_000)).is_err());
    }

    #[test]
    fn match_binders_are_functions() {
        // The desugaring applies a lambda to the payload.
        let e = parse_expr("match inl 1 with inl x => x | inr y => y end").unwrap();
        match e {
            Expr::Case(..) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }
}
