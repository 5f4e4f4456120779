//! SQL tokenizer.

use fabric_types::{FabricError, Result};

/// A SQL token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    Ident(String),
    /// An unsigned integer literal; the parser applies a leading `-`, so
    /// `-9223372036854775808` is in range.
    Int(u64),
    Float(f64),
    Str(String),
    /// Punctuation and operators: `( ) , * + - / = <> < <= > >=`
    Sym(&'static str),
    /// Keywords, upper-cased.
    Kw(&'static str),
}

const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "GROUP", "BY", "AS", "SUM", "AVG", "COUNT", "MIN", "MAX",
    "ORDER", "ASC", "DESC", "DATE",
];

/// Tokenize `sql`.
pub fn lex(sql: &str) -> Result<Vec<Token>> {
    let b = sql.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '(' | ')' | ',' | '*' | '+' | '-' | '/' => {
                out.push(Token::Sym(match c {
                    '(' => "(",
                    ')' => ")",
                    ',' => ",",
                    '*' => "*",
                    '+' => "+",
                    '-' => "-",
                    _ => "/",
                }));
                i += 1;
            }
            '=' => {
                out.push(Token::Sym("="));
                i += 1;
            }
            '<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Token::Sym("<="));
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    out.push(Token::Sym("<>"));
                    i += 2;
                } else {
                    out.push(Token::Sym("<"));
                    i += 1;
                }
            }
            '>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(Token::Sym(">="));
                    i += 2;
                } else {
                    out.push(Token::Sym(">"));
                    i += 1;
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                if j == b.len() {
                    return Err(FabricError::Sql("unterminated string literal".into()));
                }
                out.push(Token::Str(sql[start..j].to_string()));
                i = j + 1;
            }
            '0'..='9' => {
                let start = i;
                let mut j = i;
                let mut is_float = false;
                while j < b.len() && (b[j].is_ascii_digit() || b[j] == b'.') {
                    if b[j] == b'.' {
                        is_float = true;
                    }
                    j += 1;
                }
                let text = &sql[start..j];
                if is_float {
                    let v = text
                        .parse::<f64>()
                        .map_err(|_| FabricError::Sql(format!("bad number `{text}`")))?;
                    out.push(Token::Float(v));
                } else {
                    let v = text
                        .parse::<u64>()
                        .map_err(|_| FabricError::Sql(format!("bad number `{text}`")))?;
                    out.push(Token::Int(v));
                }
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < b.len() && ((b[j] as char).is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                let word = &sql[start..j];
                let upper = word.to_ascii_uppercase();
                if let Some(kw) = KEYWORDS.iter().find(|&&k| k == upper) {
                    out.push(Token::Kw(kw));
                } else {
                    out.push(Token::Ident(word.to_string()));
                }
                i = j;
            }
            other => {
                return Err(FabricError::Sql(format!("unexpected character `{other}`")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_a_simple_select() {
        let toks = lex("SELECT a, sum(b) FROM t WHERE a >= 10 AND b < 2.5").unwrap();
        assert_eq!(toks[0], Token::Kw("SELECT"));
        assert_eq!(toks[1], Token::Ident("a".into()));
        assert_eq!(toks[2], Token::Sym(","));
        assert_eq!(toks[3], Token::Kw("SUM"));
        assert!(toks.contains(&Token::Sym(">=")));
        assert!(toks.contains(&Token::Int(10)));
        assert!(toks.contains(&Token::Float(2.5)));
    }

    #[test]
    fn keywords_are_case_insensitive_idents_are_not() {
        let toks = lex("select Foo from BAR").unwrap();
        assert_eq!(toks[0], Token::Kw("SELECT"));
        assert_eq!(toks[1], Token::Ident("Foo".into()));
        assert_eq!(toks[2], Token::Kw("FROM"));
        assert_eq!(toks[3], Token::Ident("BAR".into()));
    }

    #[test]
    fn strings_and_symbols() {
        let toks = lex("x = 'R' AND y <> 'ab c'").unwrap();
        assert_eq!(toks[2], Token::Str("R".into()));
        assert_eq!(toks[5], Token::Sym("<>"));
        assert_eq!(toks[6], Token::Str("ab c".into()));
    }

    #[test]
    fn errors() {
        assert!(lex("SELECT 'oops").is_err());
        assert!(lex("a ? b").is_err());
        assert!(lex("1.2.3").is_err());
    }
}
