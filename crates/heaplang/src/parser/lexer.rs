//! The lexer for HeapLang's surface syntax.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    Ident(String),
    Int(i128),
    // Keywords.
    Rec,
    Fun,
    Let,
    In,
    If,
    Then,
    Else,
    Ref,
    Fork,
    Match,
    With,
    End,
    True,
    False,
    Fst,
    Snd,
    Inl,
    Inr,
    Assert,
    Cas,
    Faa,
    Def,
    // Symbols.
    ColonEq,  // :=
    SemiSemi, // ;;
    LArrow,   // <-
    FatArrow, // =>
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Pipe,
    Bang,  // !
    Tilde, // ~
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    EqSym, // =
    NeSym, // !=
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(n) => write!(f, "{n}"),
            Tok::Rec => write!(f, "rec"),
            Tok::Fun => write!(f, "fun"),
            Tok::Let => write!(f, "let"),
            Tok::In => write!(f, "in"),
            Tok::If => write!(f, "if"),
            Tok::Then => write!(f, "then"),
            Tok::Else => write!(f, "else"),
            Tok::Ref => write!(f, "ref"),
            Tok::Fork => write!(f, "fork"),
            Tok::Match => write!(f, "match"),
            Tok::With => write!(f, "with"),
            Tok::End => write!(f, "end"),
            Tok::True => write!(f, "true"),
            Tok::False => write!(f, "false"),
            Tok::Fst => write!(f, "fst"),
            Tok::Snd => write!(f, "snd"),
            Tok::Inl => write!(f, "inl"),
            Tok::Inr => write!(f, "inr"),
            Tok::Assert => write!(f, "assert"),
            Tok::Cas => write!(f, "CAS"),
            Tok::Faa => write!(f, "FAA"),
            Tok::Def => write!(f, "def"),
            Tok::ColonEq => write!(f, ":="),
            Tok::SemiSemi => write!(f, ";;"),
            Tok::LArrow => write!(f, "<-"),
            Tok::FatArrow => write!(f, "=>"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::LBrace => write!(f, "{{"),
            Tok::RBrace => write!(f, "}}"),
            Tok::Comma => write!(f, ","),
            Tok::Pipe => write!(f, "|"),
            Tok::Bang => write!(f, "!"),
            Tok::Tilde => write!(f, "~"),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Percent => write!(f, "%"),
            Tok::EqSym => write!(f, "="),
            Tok::NeSym => write!(f, "!="),
            Tok::Lt => write!(f, "<"),
            Tok::Le => write!(f, "<="),
            Tok::Gt => write!(f, ">"),
            Tok::Ge => write!(f, ">="),
            Tok::AndAnd => write!(f, "&&"),
            Tok::OrOr => write!(f, "||"),
        }
    }
}

/// A token paired with its source line (1-based) for error messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedTok {
    pub tok: Tok,
    pub line: u32,
}

/// A lexing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    pub line: u32,
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LexError {}

fn keyword(s: &str) -> Option<Tok> {
    Some(match s {
        "rec" => Tok::Rec,
        "fun" => Tok::Fun,
        "let" => Tok::Let,
        "in" => Tok::In,
        "if" => Tok::If,
        "then" => Tok::Then,
        "else" => Tok::Else,
        "ref" => Tok::Ref,
        "fork" => Tok::Fork,
        "match" => Tok::Match,
        "with" => Tok::With,
        "end" => Tok::End,
        "true" => Tok::True,
        "false" => Tok::False,
        "fst" => Tok::Fst,
        "snd" => Tok::Snd,
        "inl" => Tok::Inl,
        "inr" => Tok::Inr,
        "assert" => Tok::Assert,
        "CAS" => Tok::Cas,
        "FAA" => Tok::Faa,
        "def" => Tok::Def,
        _ => return None,
    })
}

/// Tokenises a source string. `//` starts a line comment.
///
/// # Errors
///
/// Returns [`LexError`] on unknown characters or malformed integers.
pub fn lex(src: &str) -> Result<Vec<SpannedTok>, LexError> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    let mut line: u32 = 1;
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                if chars.peek() == Some(&'/') {
                    for c in chars.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                } else {
                    out.push(SpannedTok {
                        tok: Tok::Slash,
                        line,
                    });
                }
            }
            c if c.is_ascii_digit() => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let n = s.parse::<i128>().map_err(|_| LexError {
                    line,
                    message: format!("integer literal out of range: {s}"),
                })?;
                out.push(SpannedTok {
                    tok: Tok::Int(n),
                    line,
                });
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' || d == '\'' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let tok = keyword(&s).unwrap_or(Tok::Ident(s));
                out.push(SpannedTok { tok, line });
            }
            _ => {
                chars.next();
                let two = |chars: &mut std::iter::Peekable<std::str::Chars>, next: char| {
                    if chars.peek() == Some(&next) {
                        chars.next();
                        true
                    } else {
                        false
                    }
                };
                let tok = match c {
                    ':' => {
                        if two(&mut chars, '=') {
                            Tok::ColonEq
                        } else {
                            return Err(LexError {
                                line,
                                message: "expected ':='".into(),
                            });
                        }
                    }
                    ';' => {
                        if two(&mut chars, ';') {
                            Tok::SemiSemi
                        } else {
                            return Err(LexError {
                                line,
                                message: "expected ';;'".into(),
                            });
                        }
                    }
                    '<' => {
                        if two(&mut chars, '-') {
                            Tok::LArrow
                        } else if two(&mut chars, '=') {
                            Tok::Le
                        } else {
                            Tok::Lt
                        }
                    }
                    '>' => {
                        if two(&mut chars, '=') {
                            Tok::Ge
                        } else {
                            Tok::Gt
                        }
                    }
                    '=' => {
                        if two(&mut chars, '>') {
                            Tok::FatArrow
                        } else {
                            Tok::EqSym
                        }
                    }
                    '!' => {
                        if two(&mut chars, '=') {
                            Tok::NeSym
                        } else {
                            Tok::Bang
                        }
                    }
                    '&' => {
                        if two(&mut chars, '&') {
                            Tok::AndAnd
                        } else {
                            return Err(LexError {
                                line,
                                message: "expected '&&'".into(),
                            });
                        }
                    }
                    '|' => {
                        if two(&mut chars, '|') {
                            Tok::OrOr
                        } else {
                            Tok::Pipe
                        }
                    }
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    ',' => Tok::Comma,
                    '~' => Tok::Tilde,
                    '+' => Tok::Plus,
                    '-' => Tok::Minus,
                    '*' => Tok::Star,
                    '%' => Tok::Percent,
                    other => {
                        return Err(LexError {
                            line,
                            message: format!("unexpected character {other:?}"),
                        })
                    }
                };
                out.push(SpannedTok { tok, line });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|s| s.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        assert_eq!(
            toks("rec acquire l"),
            vec![
                Tok::Rec,
                Tok::Ident("acquire".into()),
                Tok::Ident("l".into())
            ]
        );
    }

    #[test]
    fn symbols() {
        assert_eq!(
            toks(":= ;; <- => != <= ! < && ||"),
            vec![
                Tok::ColonEq,
                Tok::SemiSemi,
                Tok::LArrow,
                Tok::FatArrow,
                Tok::NeSym,
                Tok::Le,
                Tok::Bang,
                Tok::Lt,
                Tok::AndAnd,
                Tok::OrOr
            ]
        );
    }

    #[test]
    fn comments_and_lines() {
        let ts = lex("1 // comment\n2").unwrap();
        assert_eq!(ts[0].tok, Tok::Int(1));
        assert_eq!(ts[0].line, 1);
        assert_eq!(ts[1].tok, Tok::Int(2));
        assert_eq!(ts[1].line, 2);
    }

    #[test]
    fn rejects_unknown() {
        assert!(lex("@").is_err());
        assert!(lex("; x").is_err());
    }

    #[test]
    fn integers() {
        assert_eq!(toks("42 0"), vec![Tok::Int(42), Tok::Int(0)]);
    }
}
