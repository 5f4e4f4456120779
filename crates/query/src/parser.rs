//! Recursive-descent parser for the supported SQL subset:
//!
//! ```sql
//! SELECT item [, item]*
//! FROM table
//! [WHERE col op literal [AND col op literal]*]
//! [GROUP BY col [, col]*]
//! [ORDER BY col-or-position [ASC|DESC] [, ...]]
//! [LIMIT n]
//! ```
//!
//! where `item` is an arithmetic expression over columns and literals, or
//! an aggregate `sum|avg|min|max|count(expr | *)`, and `literal` may be an
//! integer, float, string, or `DATE 'yyyy-mm-dd'`.

use crate::lexer::{lex, Token};
use fabric_types::value::checked_days_from_civil;
use fabric_types::{AggFunc, CmpOp, FabricError, Result};

/// Expression AST over column *names*.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    Col(String),
    Int(i64),
    Float(f64),
    Str(String),
    Date(u32),
    Bin(Box<AstExpr>, char, Box<AstExpr>),
}

/// One SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum AstItem {
    Expr(AstExpr),
    /// `count(*)` has no argument.
    Agg(AggFunc, Option<AstExpr>),
}

/// One WHERE conjunct: `column op literal`.
#[derive(Debug, Clone, PartialEq)]
pub struct AstPred {
    pub col: String,
    pub op: CmpOp,
    pub literal: AstExpr,
}

/// One ORDER BY key: an output position (1-based) or a column name, plus
/// direction.
#[derive(Debug, Clone, PartialEq)]
pub struct AstOrderKey {
    pub key: AstOrderTarget,
    pub desc: bool,
}

/// What an ORDER BY key refers to.
#[derive(Debug, Clone, PartialEq)]
pub enum AstOrderTarget {
    /// 1-based output column position (`ORDER BY 2`).
    Position(usize),
    /// A column name that must appear as a plain output item.
    Column(String),
}

/// A parsed SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<AstItem>,
    pub table: String,
    pub preds: Vec<AstPred>,
    pub group_by: Vec<String>,
    pub order_by: Vec<AstOrderKey>,
    pub limit: Option<usize>,
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Some(Token::Kw(k)) if k == kw => Ok(()),
            other => Err(FabricError::Sql(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        if self.peek()
            == Some(&Token::Sym(match s {
                "(" => "(",
                ")" => ")",
                "," => ",",
                "*" => "*",
                "+" => "+",
                "-" => "-",
                "/" => "/",
                _ => return false,
            }))
        {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(FabricError::Sql(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn agg_kw(tok: &Token) -> Option<AggFunc> {
        match tok {
            Token::Kw("SUM") => Some(AggFunc::Sum),
            Token::Kw("AVG") => Some(AggFunc::Avg),
            Token::Kw("MIN") => Some(AggFunc::Min),
            Token::Kw("MAX") => Some(AggFunc::Max),
            Token::Kw("COUNT") => Some(AggFunc::Count),
            _ => None,
        }
    }

    fn parse_literal_or_primary(&mut self) -> Result<AstExpr> {
        match self.next() {
            Some(Token::Int(v)) => i64::try_from(v)
                .map(AstExpr::Int)
                .map_err(|_| FabricError::Sql(format!("bad number `{v}`"))),
            Some(Token::Float(v)) => Ok(AstExpr::Float(v)),
            Some(Token::Str(s)) => Ok(AstExpr::Str(s)),
            Some(Token::Kw("DATE")) => match self.next() {
                Some(Token::Str(s)) => parse_date(&s),
                other => Err(FabricError::Sql(format!(
                    "expected date string, found {other:?}"
                ))),
            },
            Some(Token::Ident(name)) => Ok(AstExpr::Col(name)),
            Some(Token::Sym("(")) => {
                let e = self.parse_expr()?;
                if !matches!(self.next(), Some(Token::Sym(")"))) {
                    return Err(FabricError::Sql("expected `)`".into()));
                }
                Ok(e)
            }
            Some(Token::Sym("-")) => {
                // Unary minus on a numeric literal.
                match self.next() {
                    Some(Token::Int(v)) => 0i64
                        .checked_sub_unsigned(v)
                        .map(AstExpr::Int)
                        .ok_or_else(|| FabricError::Sql(format!("bad number `-{v}`"))),
                    Some(Token::Float(v)) => Ok(AstExpr::Float(-v)),
                    other => Err(FabricError::Sql(format!(
                        "expected number, found {other:?}"
                    ))),
                }
            }
            other => Err(FabricError::Sql(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }

    fn parse_term(&mut self) -> Result<AstExpr> {
        let mut lhs = self.parse_literal_or_primary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym("*")) => '*',
                Some(Token::Sym("/")) => '/',
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_literal_or_primary()?;
            lhs = AstExpr::Bin(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_expr(&mut self) -> Result<AstExpr> {
        let mut lhs = self.parse_term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Sym("+")) => '+',
                Some(Token::Sym("-")) => '-',
                _ => break,
            };
            self.pos += 1;
            let rhs = self.parse_term()?;
            lhs = AstExpr::Bin(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn parse_item(&mut self) -> Result<AstItem> {
        if let Some(func) = self.peek().and_then(Self::agg_kw) {
            self.pos += 1;
            if !self.eat_sym("(") {
                return Err(FabricError::Sql("expected `(` after aggregate".into()));
            }
            if func == AggFunc::Count && self.eat_sym("*") {
                if !self.eat_sym(")") {
                    return Err(FabricError::Sql("expected `)` after count(*)".into()));
                }
                return Ok(AstItem::Agg(AggFunc::Count, None));
            }
            let e = self.parse_expr()?;
            if !self.eat_sym(")") {
                return Err(FabricError::Sql("expected `)` closing aggregate".into()));
            }
            return Ok(AstItem::Agg(func, Some(e)));
        }
        Ok(AstItem::Expr(self.parse_expr()?))
    }

    fn parse_pred(&mut self) -> Result<AstPred> {
        let col = self.ident()?;
        let op = match self.next() {
            Some(Token::Sym("=")) => CmpOp::Eq,
            Some(Token::Sym("<>")) => CmpOp::Ne,
            Some(Token::Sym("<")) => CmpOp::Lt,
            Some(Token::Sym("<=")) => CmpOp::Le,
            Some(Token::Sym(">")) => CmpOp::Gt,
            Some(Token::Sym(">=")) => CmpOp::Ge,
            other => {
                return Err(FabricError::Sql(format!(
                    "expected comparison, found {other:?}"
                )))
            }
        };
        let literal = self.parse_literal_or_primary()?;
        if matches!(literal, AstExpr::Col(_) | AstExpr::Bin(..)) {
            return Err(FabricError::Sql(
                "WHERE supports `column op literal` conjuncts only".into(),
            ));
        }
        Ok(AstPred { col, op, literal })
    }

    fn parse_select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let mut items = vec![self.parse_item()?];
        while self.eat_sym(",") {
            items.push(self.parse_item()?);
        }
        self.expect_kw("FROM")?;
        let table = self.ident()?;

        let mut preds = Vec::new();
        if self.peek() == Some(&Token::Kw("WHERE")) {
            self.pos += 1;
            preds.push(self.parse_pred()?);
            while self.peek() == Some(&Token::Kw("AND")) {
                self.pos += 1;
                preds.push(self.parse_pred()?);
            }
        }

        let mut group_by = Vec::new();
        if self.peek() == Some(&Token::Kw("GROUP")) {
            self.pos += 1;
            self.expect_kw("BY")?;
            group_by.push(self.ident()?);
            while self.eat_sym(",") {
                group_by.push(self.ident()?);
            }
        }

        let mut order_by = Vec::new();
        if self.peek() == Some(&Token::Kw("ORDER")) {
            self.pos += 1;
            self.expect_kw("BY")?;
            loop {
                let key = match self.next() {
                    Some(Token::Int(n)) if n >= 1 => {
                        AstOrderTarget::Position(usize::try_from(n).unwrap_or(usize::MAX))
                    }
                    Some(Token::Ident(name)) => AstOrderTarget::Column(name),
                    other => {
                        return Err(FabricError::Sql(format!(
                            "expected column or position in ORDER BY, found {other:?}"
                        )))
                    }
                };
                let desc = match self.peek() {
                    Some(Token::Kw("DESC")) => {
                        self.pos += 1;
                        true
                    }
                    Some(Token::Kw("ASC")) => {
                        self.pos += 1;
                        false
                    }
                    _ => false,
                };
                order_by.push(AstOrderKey { key, desc });
                if !self.eat_sym(",") {
                    break;
                }
            }
        }

        let mut limit = None;
        if let Some(Token::Ident(w)) = self.peek() {
            if w.eq_ignore_ascii_case("limit") {
                self.pos += 1;
                match self.next() {
                    Some(Token::Int(n)) => limit = Some(usize::try_from(n).unwrap_or(usize::MAX)),
                    other => {
                        return Err(FabricError::Sql(format!(
                            "expected row count after LIMIT, found {other:?}"
                        )))
                    }
                }
            }
        }

        if let Some(t) = self.peek() {
            return Err(FabricError::Sql(format!("unexpected trailing token {t:?}")));
        }
        Ok(SelectStmt {
            items,
            table,
            preds,
            group_by,
            order_by,
            limit,
        })
    }
}

fn parse_date(s: &str) -> Result<AstExpr> {
    let parts: Vec<&str> = s.split('-').collect();
    if parts.len() != 3 {
        return Err(FabricError::Sql(format!(
            "bad date `{s}` (want yyyy-mm-dd)"
        )));
    }
    let y: i64 = parts[0]
        .parse()
        .map_err(|_| FabricError::Sql(format!("bad year in `{s}`")))?;
    let m: u32 = parts[1]
        .parse()
        .map_err(|_| FabricError::Sql(format!("bad month in `{s}`")))?;
    let d: u32 = parts[2]
        .parse()
        .map_err(|_| FabricError::Sql(format!("bad day in `{s}`")))?;
    // A `Date` is a day count from 1970-01-01 in a `u32`: no earlier
    // date, none after 11761191-01-20, and no day the calendar lacks.
    checked_days_from_civil(y, m, d)
        .map(AstExpr::Date)
        .ok_or_else(|| {
            FabricError::Sql(format!(
                "date `{s}` does not exist or is outside 1970-01-01 ..= 11761191-01-20"
            ))
        })
}

/// Parse one SELECT statement.
pub fn parse(sql: &str) -> Result<SelectStmt> {
    let toks = lex(sql)?;
    Parser { toks, pos: 0 }.parse_select()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_projection_with_where() {
        let s = parse("SELECT a, b FROM t WHERE a < 10 AND b >= 2.5").unwrap();
        assert_eq!(s.table, "t");
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.preds.len(), 2);
        assert_eq!(s.preds[0].col, "a");
        assert_eq!(s.preds[0].op, CmpOp::Lt);
        assert!(s.group_by.is_empty());
    }

    #[test]
    fn parses_aggregates_and_group_by() {
        let s = parse(
            "SELECT l_returnflag, count(*), sum(l_extendedprice * (1 - l_discount)) \
             FROM lineitem GROUP BY l_returnflag",
        )
        .unwrap();
        assert_eq!(s.group_by, vec!["l_returnflag"]);
        assert!(matches!(s.items[1], AstItem::Agg(AggFunc::Count, None)));
        match &s.items[2] {
            AstItem::Agg(AggFunc::Sum, Some(AstExpr::Bin(_, '*', _))) => {}
            other => panic!("bad item {other:?}"),
        }
    }

    #[test]
    fn parses_date_literals() {
        let s = parse("SELECT a FROM t WHERE d >= DATE '1994-01-01'").unwrap();
        assert_eq!(s.preds[0].literal, AstExpr::Date(8766));
        assert!(parse("SELECT a FROM t WHERE d >= DATE '1994-13-01'").is_err());
        assert!(parse("SELECT a FROM t WHERE d >= DATE 'nope'").is_err());
    }

    #[test]
    fn expression_precedence() {
        let s = parse("SELECT a + b * 2 FROM t").unwrap();
        match &s.items[0] {
            AstItem::Expr(AstExpr::Bin(lhs, '+', rhs)) => {
                assert_eq!(**lhs, AstExpr::Col("a".into()));
                assert!(matches!(**rhs, AstExpr::Bin(_, '*', _)));
            }
            other => panic!("bad {other:?}"),
        }
    }

    #[test]
    fn parenthesized_grouping() {
        let s = parse("SELECT (a + b) * 2 FROM t").unwrap();
        match &s.items[0] {
            AstItem::Expr(AstExpr::Bin(lhs, '*', _)) => {
                assert!(matches!(**lhs, AstExpr::Bin(_, '+', _)));
            }
            other => panic!("bad {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a").is_err());
        assert!(parse("SELECT a FROM t WHERE a").is_err());
        assert!(parse("SELECT a FROM t WHERE a < b").is_err());
        assert!(parse("SELECT a FROM t GROUP a").is_err());
        assert!(parse("SELECT a FROM t extra").is_err());
        assert!(parse("SELECT sum(a FROM t").is_err());
    }

    #[test]
    fn order_by_and_limit() {
        let s = parse("SELECT a, b FROM t ORDER BY b DESC, 1 LIMIT 10").unwrap();
        assert_eq!(s.order_by.len(), 2);
        assert_eq!(s.order_by[0].key, AstOrderTarget::Column("b".into()));
        assert!(s.order_by[0].desc);
        assert_eq!(s.order_by[1].key, AstOrderTarget::Position(1));
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(10));
        assert!(parse("SELECT a FROM t ORDER BY").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
    }

    #[test]
    fn unary_minus_literals() {
        let s = parse("SELECT a FROM t WHERE a > -5").unwrap();
        assert_eq!(s.preds[0].literal, AstExpr::Int(-5));
    }

    #[test]
    fn integer_literals_span_all_of_i64() {
        let lit = |sql: &str| parse(sql).map(|s| s.preds[0].literal.clone());
        assert_eq!(
            lit("SELECT a FROM t WHERE a > -9223372036854775808").unwrap(),
            AstExpr::Int(i64::MIN)
        );
        assert_eq!(
            lit("SELECT a FROM t WHERE a < 9223372036854775807").unwrap(),
            AstExpr::Int(i64::MAX)
        );
        for sql in [
            "SELECT a FROM t WHERE a < 9223372036854775808",
            "SELECT a FROM t WHERE a > -9223372036854775809",
            "SELECT a FROM t WHERE a > 18446744073709551616",
        ] {
            let err = lit(sql).unwrap_err().to_string();
            assert!(err.contains("bad number"), "{sql}: {err}");
        }
    }

    #[test]
    fn date_literals_must_be_real_days_inside_the_date_domain() {
        let date = |lit: &str| {
            parse(&format!("SELECT a FROM t WHERE d < DATE '{lit}'"))
                .map(|s| s.preds[0].literal.clone())
        };
        assert_eq!(date("1970-01-01").unwrap(), AstExpr::Date(0));
        assert_eq!(date("1996-02-29").unwrap(), AstExpr::Date(9_555));
        assert_eq!(date("11761191-01-20").unwrap(), AstExpr::Date(u32::MAX));
        for lit in [
            "1960-01-01",
            "1969-12-31",
            "1998-02-31",
            "1998-02-29",
            "1900-02-29",
            "1998-04-31",
            "1998-00-10",
            "1998-06-00",
            "11761191-01-21",
            "99999999999-01-01",
        ] {
            let err = date(lit).unwrap_err().to_string();
            assert!(
                err.contains("SQL error") && err.contains(lit),
                "{lit}: {err}"
            );
        }
    }
}
