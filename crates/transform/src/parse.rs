//! A concrete syntax for skeleton programs.
//!
//! The paper's future work is *Fortran-S* — a textual front end whose upper
//! layer is SCL. This module is the equivalent for the transformation
//! engine: a small parser accepting exactly the grammar the pretty-printer
//! ([`std::fmt::Display`] on [`Expr`]) emits, so programs can be written,
//! stored, rewritten and diffed as text:
//!
//! ```text
//! expr      := term (" . " term)*              composition, outermost first
//! term      := "id" | "combine"
//!            | "map"  "(" fnref ")"
//!            | "fold" "(" ident ")"
//!            | "foldr" "(" ident " . " fnref ")"
//!            | "scan" "(" ident ")"
//!            | "rotate" "(" int ")"
//!            | "fetch" "(" idxref ")" | "send" "(" idxref ")"
//!            | "split" "(" int ")"
//!            | "mapGroups" "[" expr "]"
//!            | "segRotate" "(" "g=" int "," int ")"
//!            | "segFetch"  "(" "g=" int "," idxref ")"
//!            | "segSend"   "(" "g=" int "," idxref ")"
//!            | "choice" "(" fnref ")" "[" expr "]" "[" expr "]"
//!            | "fanout" "(" ident ")" "[" expr "]" "[" expr "]"
//! fnref     := ident | "(" fnref (" . " fnref)* ")"
//! idxref    := ident | "(" idxref (" . " idxref)* ")"
//! ```
//!
//! `parse` is the left inverse of printing: for any normalised expression
//! `e`, `parse(&e.to_string()) == Ok(e)` (property-tested).
//!
//! The parser recurses once per nesting level (`mapGroups[…]` and branch
//! arms, parenthesised function and index references), so it refuses
//! sources nested deeper than [`MAX_NESTING`] with a [`ParseError`]
//! instead of overflowing the stack of whatever thread parses them.

use crate::ir::{Expr, FnRef, IdxRef};

/// Deepest nesting [`parse`] accepts: bracketed sub-programs plus
/// parenthesised references, counted along any one path.
pub const MAX_NESTING: usize = 64;

/// Parse error with byte position context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input where it happened.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Dot,
    Comma,
    Eq,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' => {
                out.push((Tok::LParen, i));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, i));
                i += 1;
            }
            '[' => {
                out.push((Tok::LBracket, i));
                i += 1;
            }
            ']' => {
                out.push((Tok::RBracket, i));
                i += 1;
            }
            '.' => {
                out.push((Tok::Dot, i));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, i));
                i += 1;
            }
            '=' => {
                out.push((Tok::Eq, i));
                i += 1;
            }
            '-' | '0'..='9' => {
                let start = i;
                i += 1;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                let text = &src[start..i];
                let val: i64 = text.parse().map_err(|_| ParseError {
                    message: format!("bad integer `{text}`"),
                    at: start,
                })?;
                out.push((Tok::Int(val), start));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push((Tok::Ident(src[start..i].to_string()), start));
            }
            other => {
                return Err(ParseError {
                    message: format!("unexpected character `{other}`"),
                    at: i,
                })
            }
        }
    }
    Ok(out)
}

struct Parser {
    toks: Vec<(Tok, usize)>,
    pos: usize,
    len: usize,
    /// Nesting levels currently open; see [`Parser::nested`].
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    fn at(&self) -> usize {
        self.toks.get(self.pos).map(|(_, p)| *p).unwrap_or(self.len)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            at: self.at(),
        })
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<(), ParseError> {
        match self.bump() {
            Some(t) if t == want => Ok(()),
            Some(t) => {
                self.pos -= 1;
                self.err(format!("expected {what}, found {t:?}"))
            }
            None => self.err(format!("expected {what}, found end of input")),
        }
    }

    fn expect_int(&mut self, what: &str) -> Result<i64, ParseError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            other => {
                self.pos -= 1;
                self.err(format!("expected {what}, found {other:?}"))
            }
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected {what}, found {other:?}"))
            }
        }
    }

    /// Run `f` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Parser) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth >= MAX_NESTING {
            return self.err(format!("nesting deeper than {MAX_NESTING} levels"));
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// `expr := term (. term)*`
    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.nested(Parser::expr_inner)
    }

    fn expr_inner(&mut self) -> Result<Expr, ParseError> {
        let mut terms = vec![self.term()?];
        while self.peek() == Some(&Tok::Dot) {
            self.bump();
            terms.push(self.term()?);
        }
        Ok(if terms.len() == 1 {
            terms.pop().unwrap()
        } else {
            Expr::Compose(terms)
        })
    }

    fn term(&mut self) -> Result<Expr, ParseError> {
        let name = self.expect_ident("a skeleton name")?;
        match name.as_str() {
            "id" => Ok(Expr::Id),
            "combine" => Ok(Expr::Combine),
            "map" => {
                self.expect(Tok::LParen, "`(`")?;
                let f = self.fnref()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(Expr::Map(f))
            }
            "fold" => {
                self.expect(Tok::LParen, "`(`")?;
                let op = self.expect_ident("an operator name")?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(Expr::Fold(op))
            }
            "foldr" => {
                self.expect(Tok::LParen, "`(`")?;
                let op = self.expect_ident("an operator name")?;
                self.expect(Tok::Dot, "`.`")?;
                let g = self.fnref()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(Expr::FoldrMap(op, g))
            }
            "scan" => {
                self.expect(Tok::LParen, "`(`")?;
                let op = self.expect_ident("an operator name")?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(Expr::Scan(op))
            }
            "rotate" => {
                self.expect(Tok::LParen, "`(`")?;
                let k = self.expect_int("a rotation distance")?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(Expr::Rotate(k))
            }
            "fetch" => {
                self.expect(Tok::LParen, "`(`")?;
                let h = self.idxref()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(Expr::Fetch(h))
            }
            "send" => {
                self.expect(Tok::LParen, "`(`")?;
                let h = self.idxref()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(Expr::Send(h))
            }
            "split" => {
                self.expect(Tok::LParen, "`(`")?;
                let p = self.expect_int("a group count")?;
                self.expect(Tok::RParen, "`)`")?;
                if p <= 0 {
                    return self.err("split needs a positive group count");
                }
                Ok(Expr::Split(p as usize))
            }
            "mapGroups" => {
                self.expect(Tok::LBracket, "`[`")?;
                let body = self.expr()?;
                self.expect(Tok::RBracket, "`]`")?;
                Ok(Expr::MapGroups(Box::new(body)))
            }
            "segRotate" => {
                let (groups, k) = self.seg_header_int()?;
                Ok(Expr::SegRotate { groups, k })
            }
            "segFetch" => {
                let (groups, f) = self.seg_header_idx()?;
                Ok(Expr::SegFetch { groups, f })
            }
            "segSend" => {
                let (groups, f) = self.seg_header_idx()?;
                Ok(Expr::SegSend { groups, f })
            }
            "choice" => {
                self.expect(Tok::LParen, "`(`")?;
                let pred = self.fnref()?;
                self.expect(Tok::RParen, "`)`")?;
                let (left, right) = self.two_arms()?;
                Ok(Expr::Choice {
                    pred,
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
            "fanout" => {
                self.expect(Tok::LParen, "`(`")?;
                let combine = self.expect_ident("an operator name")?;
                self.expect(Tok::RParen, "`)`")?;
                let (left, right) = self.two_arms()?;
                Ok(Expr::Fanout {
                    left: Box::new(left),
                    right: Box::new(right),
                    combine,
                })
            }
            other => {
                self.pos -= 1;
                self.err(format!("unknown skeleton `{other}`"))
            }
        }
    }

    /// `"[" expr "]" "[" expr "]"` — the two arms of a branch form.
    fn two_arms(&mut self) -> Result<(Expr, Expr), ParseError> {
        self.expect(Tok::LBracket, "`[`")?;
        let left = self.expr()?;
        self.expect(Tok::RBracket, "`]`")?;
        self.expect(Tok::LBracket, "`[`")?;
        let right = self.expr()?;
        self.expect(Tok::RBracket, "`]`")?;
        Ok((left, right))
    }

    /// `"(" "g=" int "," int ")"`
    fn seg_header_int(&mut self) -> Result<(usize, i64), ParseError> {
        let g = self.seg_groups()?;
        let k = self.expect_int("a rotation distance")?;
        self.expect(Tok::RParen, "`)`")?;
        Ok((g, k))
    }

    /// `"(" "g=" int "," idxref ")"`
    fn seg_header_idx(&mut self) -> Result<(usize, IdxRef), ParseError> {
        let g = self.seg_groups()?;
        let f = self.idxref()?;
        self.expect(Tok::RParen, "`)`")?;
        Ok((g, f))
    }

    fn seg_groups(&mut self) -> Result<usize, ParseError> {
        self.expect(Tok::LParen, "`(`")?;
        let tag = self.expect_ident("`g`")?;
        if tag != "g" {
            return self.err("expected `g=`");
        }
        self.expect(Tok::Eq, "`=`")?;
        let g = self.expect_int("a group count")?;
        self.expect(Tok::Comma, "`,`")?;
        if g <= 0 {
            return self.err("segment count must be positive");
        }
        Ok(g as usize)
    }

    fn fnref(&mut self) -> Result<FnRef, ParseError> {
        self.nested(Parser::fnref_inner)
    }

    fn fnref_inner(&mut self) -> Result<FnRef, ParseError> {
        match self.peek() {
            Some(Tok::Ident(_)) => Ok(FnRef::Named(self.expect_ident("a function name")?)),
            Some(Tok::LParen) => {
                self.bump();
                let mut items = vec![self.fnref()?];
                while self.peek() == Some(&Tok::Dot) {
                    self.bump();
                    items.push(self.fnref()?);
                }
                self.expect(Tok::RParen, "`)`")?;
                Ok(if items.len() == 1 {
                    items.pop().unwrap()
                } else {
                    FnRef::Comp(items)
                })
            }
            _ => self.err("expected a function reference"),
        }
    }

    fn idxref(&mut self) -> Result<IdxRef, ParseError> {
        self.nested(Parser::idxref_inner)
    }

    fn idxref_inner(&mut self) -> Result<IdxRef, ParseError> {
        match self.peek() {
            Some(Tok::Ident(_)) => Ok(IdxRef::Named(self.expect_ident("an index function")?)),
            Some(Tok::LParen) => {
                self.bump();
                let mut items = vec![self.idxref()?];
                while self.peek() == Some(&Tok::Dot) {
                    self.bump();
                    items.push(self.idxref()?);
                }
                self.expect(Tok::RParen, "`)`")?;
                Ok(if items.len() == 1 {
                    items.pop().unwrap()
                } else {
                    IdxRef::Comp(items)
                })
            }
            _ => self.err("expected an index-function reference"),
        }
    }
}

/// Parse a skeleton program from its textual form.
pub fn parse(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src)?;
    if toks.is_empty() {
        return Err(ParseError {
            message: "empty program".into(),
            at: 0,
        });
    }
    let mut p = Parser {
        toks,
        pos: 0,
        len: src.len(),
        depth: 0,
    };
    let e = p.expr()?;
    if p.pos != p.toks.len() {
        return Err(ParseError {
            message: "trailing input after program".into(),
            at: p.at(),
        });
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_atoms() {
        assert_eq!(parse("id").unwrap(), Expr::Id);
        assert_eq!(parse("combine").unwrap(), Expr::Combine);
        assert_eq!(parse("rotate(3)").unwrap(), Expr::Rotate(3));
        assert_eq!(parse("rotate(-5)").unwrap(), Expr::Rotate(-5));
        assert_eq!(parse("map(inc)").unwrap(), Expr::Map(FnRef::named("inc")));
        assert_eq!(parse("fold(add)").unwrap(), Expr::Fold("add".into()));
        assert_eq!(parse("scan(max)").unwrap(), Expr::Scan("max".into()));
        assert_eq!(parse("split(4)").unwrap(), Expr::Split(4));
        assert_eq!(
            parse("fetch(succ)").unwrap(),
            Expr::Fetch(IdxRef::named("succ"))
        );
    }

    #[test]
    fn parses_composition_in_print_order() {
        let e = parse("map(inc) . rotate(2) . fold(add)").unwrap();
        assert_eq!(
            e,
            Expr::Compose(vec![
                Expr::Map(FnRef::named("inc")),
                Expr::Rotate(2),
                Expr::Fold("add".into()),
            ])
        );
    }

    #[test]
    fn parses_composed_function_refs() {
        let e = parse("map((square . inc))").unwrap();
        assert_eq!(
            e,
            Expr::Map(FnRef::Comp(vec![
                FnRef::named("square"),
                FnRef::named("inc")
            ]))
        );
        // nested
        let e = parse("map(((a . b) . c))").unwrap();
        assert_eq!(
            e,
            Expr::Map(FnRef::Comp(vec![
                FnRef::Comp(vec![FnRef::named("a"), FnRef::named("b")]),
                FnRef::named("c"),
            ]))
        );
    }

    #[test]
    fn parses_nested_and_segmented() {
        let e = parse("combine . mapGroups[rotate(1) . map(inc)] . split(4)").unwrap();
        assert_eq!(
            e,
            Expr::Compose(vec![
                Expr::Combine,
                Expr::MapGroups(Box::new(Expr::Compose(vec![
                    Expr::Rotate(1),
                    Expr::Map(FnRef::named("inc")),
                ]))),
                Expr::Split(4),
            ])
        );
        assert_eq!(
            parse("segRotate(g=4, 1)").unwrap(),
            Expr::SegRotate { groups: 4, k: 1 }
        );
        assert_eq!(
            parse("segFetch(g=2, rev)").unwrap(),
            Expr::SegFetch {
                groups: 2,
                f: IdxRef::named("rev")
            }
        );
    }

    #[test]
    fn parses_foldr() {
        assert_eq!(
            parse("foldr(add . square)").unwrap(),
            Expr::FoldrMap("add".into(), FnRef::named("square"))
        );
        assert_eq!(
            parse("foldr(add . (square . inc))").unwrap(),
            Expr::FoldrMap(
                "add".into(),
                FnRef::Comp(vec![FnRef::named("square"), FnRef::named("inc")])
            )
        );
    }

    #[test]
    fn print_parse_roundtrip_examples() {
        for src in [
            "map(inc)",
            "map((heavy . square)) . rotate(-3) . fetch((succ . xor1))",
            "combine . mapGroups[send(half)] . split(2)",
            "fold(add) . map(square)",
            "foldr(mul . neg)",
            "segSend(g=3, half) . scan(add)",
            "choice(pos)[map(inc)][map(dec) . rotate(1)]",
            "fanout(add)[map(square)][rotate(-1)]",
            "fanout(max)[choice(pos)[id][map(neg)]][map(inc)] . map(double)",
        ] {
            let e = parse(src).unwrap();
            assert_eq!(e.to_string(), src, "printer must reproduce the source");
            assert_eq!(parse(&e.to_string()).unwrap(), e, "round trip");
        }
    }

    #[test]
    fn error_positions_are_helpful() {
        let err = parse("map(inc) ! rotate(1)").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert_eq!(err.at, 9);

        let err = parse("maap(inc)").unwrap_err();
        assert!(err.message.contains("unknown skeleton"));

        let err = parse("").unwrap_err();
        assert!(err.message.contains("empty"));

        let err = parse("rotate(1) map(inc)").unwrap_err();
        assert!(err.message.contains("trailing"));

        let err = parse("split(0)").unwrap_err();
        assert!(err.message.contains("positive"));

        let err = parse("rotate(99999999999999999999)").unwrap_err();
        assert!(err.message.contains("bad integer"));

        let err = parse("map(").unwrap_err();
        assert!(err.message.contains("function reference"));
    }

    #[test]
    fn deep_nesting_is_a_parse_error_not_a_stack_overflow() {
        const DEEP: usize = 50_000;
        let parens = format!("map({}inc{})", "(".repeat(DEEP), ")".repeat(DEEP));
        let groups = format!("{}id{}", "mapGroups[".repeat(DEEP), "]".repeat(DEEP));
        for src in [parens, groups] {
            let err = parse(&src).unwrap_err();
            assert!(err.message.contains("nesting deeper than"), "{err}");
        }
        // the limit itself still parses, one level past it does not
        let at_limit = format!(
            "{}id{}",
            "mapGroups[".repeat(MAX_NESTING - 1),
            "]".repeat(MAX_NESTING - 1)
        );
        assert!(parse(&at_limit).is_ok());
        let past = format!(
            "{}id{}",
            "mapGroups[".repeat(MAX_NESTING),
            "]".repeat(MAX_NESTING)
        );
        assert!(parse(&past).is_err());
    }

    #[test]
    fn parsed_programs_evaluate() {
        use crate::interp::{eval, Value};
        use crate::registry::Registry;
        let e = parse("fold(add) . map(square)").unwrap();
        let out = eval(&e, &Registry::standard(), Value::Arr(vec![1, 2, 3])).unwrap();
        assert_eq!(out, Value::Scal(14));
    }
}
