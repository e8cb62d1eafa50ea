//! Lexical tokens of the MF language.

use crate::ast::Name;
use std::fmt;

/// A lexical token together with its source position.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// 1-based line number of the first character.
    pub line: u32,
    /// 1-based column number of the first character.
    pub col: u32,
}

impl Token {
    /// Creates a token at the given position.
    pub fn new(kind: TokenKind, line: u32, col: u32) -> Self {
        Token { kind, line, col }
    }
}

/// The different kinds of MF tokens.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // Literals and identifiers
    /// An integer literal such as `42`.
    Int(i64),
    /// A floating-point literal such as `3.5`.
    Float(f64),
    /// An identifier such as `mask` or `col`.
    Ident(Name),

    // Keywords
    /// `program`
    Program,
    /// `end`
    End,
    /// `integer`
    Integer,
    /// `float`
    FloatKw,
    /// `do`
    Do,
    /// `where`
    Where,
    /// `if`
    If,
    /// `else`
    Else,
    /// `and` (range connector *and* boolean operator; disambiguated by the parser)
    And,
    /// `or`
    Or,
    /// `not`
    Not,
    /// `proc`
    Proc,
    /// `call`
    Call,
    /// `return`
    Return,

    // Punctuation and operators
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `..`
    DotDot,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// End of input sentinel.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use TokenKind::*;
        match self {
            Int(v) => write!(f, "{v}"),
            Float(v) => write!(f, "{v}"),
            Ident(s) => write!(f, "{s}"),
            Program => write!(f, "program"),
            End => write!(f, "end"),
            Integer => write!(f, "integer"),
            FloatKw => write!(f, "float"),
            Do => write!(f, "do"),
            Where => write!(f, "where"),
            If => write!(f, "if"),
            Else => write!(f, "else"),
            And => write!(f, "and"),
            Or => write!(f, "or"),
            Not => write!(f, "not"),
            Proc => write!(f, "proc"),
            Call => write!(f, "call"),
            Return => write!(f, "return"),
            LParen => write!(f, "("),
            RParen => write!(f, ")"),
            LBracket => write!(f, "["),
            RBracket => write!(f, "]"),
            LBrace => write!(f, "{{"),
            RBrace => write!(f, "}}"),
            Comma => write!(f, ","),
            Colon => write!(f, ":"),
            DotDot => write!(f, ".."),
            Plus => write!(f, "+"),
            Minus => write!(f, "-"),
            Star => write!(f, "*"),
            Slash => write!(f, "/"),
            Percent => write!(f, "%"),
            Eq => write!(f, "="),
            Ne => write!(f, "<>"),
            Lt => write!(f, "<"),
            Le => write!(f, "<="),
            Gt => write!(f, ">"),
            Ge => write!(f, ">="),
            Eof => write!(f, "<eof>"),
        }
    }
}

/// Looks up the keyword for an identifier spelling, if any.
pub fn keyword(s: &str) -> Option<TokenKind> {
    Some(match s {
        "program" => TokenKind::Program,
        "end" => TokenKind::End,
        "integer" => TokenKind::Integer,
        "float" => TokenKind::FloatKw,
        "do" => TokenKind::Do,
        "where" => TokenKind::Where,
        "if" => TokenKind::If,
        "else" => TokenKind::Else,
        "and" => TokenKind::And,
        "or" => TokenKind::Or,
        "not" => TokenKind::Not,
        "proc" => TokenKind::Proc,
        "call" => TokenKind::Call,
        "return" => TokenKind::Return,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup_hits() {
        assert_eq!(keyword("do"), Some(TokenKind::Do));
        assert_eq!(keyword("where"), Some(TokenKind::Where));
        assert_eq!(keyword("program"), Some(TokenKind::Program));
    }

    #[test]
    fn keyword_lookup_misses() {
        assert_eq!(keyword("mask"), None);
        assert_eq!(keyword("DO"), None, "keywords are case-sensitive");
    }

    #[test]
    fn display_round_trips_punctuation() {
        assert_eq!(TokenKind::DotDot.to_string(), "..");
        assert_eq!(TokenKind::Ne.to_string(), "<>");
        assert_eq!(TokenKind::Le.to_string(), "<=");
    }

    #[test]
    fn token_carries_position() {
        let t = Token::new(TokenKind::Plus, 3, 7);
        assert_eq!(t.line, 3);
        assert_eq!(t.col, 7);
    }
}
