//! The MF lexer.
//!
//! Converts source text into a vector of [`Token`]s. Comments run from
//! `#` to end of line. Numbers with a decimal point are float literals.
//!
//! Every occurrence of an identifier shares one [`Name`]: the spellings
//! are interned in a table that lives for one `tokenize` call, so it
//! is bounded by the source it was given.

use crate::ast::Name;
use crate::error::{LangError, LangResult};
use crate::token::{keyword, Token, TokenKind};
use std::collections::HashSet;

/// Tokenizes an entire source string.
///
/// # Errors
///
/// Returns [`LangError::Lex`] on any character that cannot begin a token
/// or on a malformed numeric literal.
pub(crate) fn tokenize(src: &str) -> LangResult<Vec<Token>> {
    Lexer::new(src).run()
}

struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next character.
    pos: usize,
    line: u32,
    col: u32,
    /// The identifiers met so far, each spelled once.
    names: HashSet<Name>,
    /// A direct-mapped front to `names`: an identifier mostly repeats
    /// one met a few tokens before, and comparing two short spellings
    /// costs less than hashing one.
    recent: [Option<Name>; RECENT],
}

/// Slots of [`Lexer::recent`].
const RECENT: usize = 32;

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        // A distinct spelling per 64 bytes or so of MF; fewer regrowths.
        let names = HashSet::with_capacity(src.len() / 64);
        Lexer { src, pos: 0, line: 1, col: 1, names, recent: [const { None }; RECENT] }
    }

    /// The character `k` places ahead of the next one.
    fn peek_at(&self, k: usize) -> Option<char> {
        self.src[self.pos..].chars().nth(k)
    }

    fn peek(&self) -> Option<char> {
        match *self.src.as_bytes().get(self.pos)? {
            b if b.is_ascii() => Some(char::from(b)),
            _ => self.peek_at(0),
        }
    }

    /// Advances over the ASCII bytes that `accept` takes, which must
    /// not take a line break.
    fn bump_ascii_while(&mut self, accept: impl Fn(u8) -> bool) {
        let n = self.src.as_bytes()[self.pos..].iter().take_while(|&&b| accept(b)).count();
        self.pos += n;
        self.col += n as u32;
    }

    fn peek2(&self) -> Option<char> {
        self.peek_at(1)
    }

    /// The source text from byte offset `start` up to the next character.
    fn text_from(&self, start: usize) -> &'a str {
        &self.src[start..self.pos]
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn run(mut self) -> LangResult<Vec<Token>> {
        // MF averages a token per four bytes or so.
        let mut out = Vec::with_capacity(self.src.len() / 4);
        loop {
            self.skip_trivia();
            let (line, col) = (self.line, self.col);
            let Some(c) = self.peek() else {
                out.push(Token::new(TokenKind::Eof, line, col));
                return Ok(out);
            };
            let kind = if c.is_ascii_digit() {
                self.number(line, col)?
            } else if c.is_ascii_alphabetic() || c == '_' {
                self.ident()
            } else {
                self.punct(line, col)?
            };
            out.push(Token::new(kind, line, col));
        }
    }

    fn skip_trivia(&mut self) {
        loop {
            self.bump_ascii_while(|b| matches!(b, b' ' | b'\t' | b'\r'));
            match self.peek() {
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('#') => {
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    fn number(&mut self, line: u32, col: u32) -> LangResult<TokenKind> {
        let start = self.pos;
        self.bump_ascii_while(|b| b.is_ascii_digit());
        // A '.' starts a float only if followed by a digit; `1..n` must
        // lex as Int(1), DotDot, Ident(n).
        let mut is_float = false;
        if self.peek() == Some('.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
            is_float = true;
            self.bump();
            self.bump_ascii_while(|b| b.is_ascii_digit());
        }
        if matches!(self.peek(), Some('e') | Some('E'))
            && (self.peek2().is_some_and(|c| c.is_ascii_digit())
                || (matches!(self.peek2(), Some('+') | Some('-'))
                    && self.peek_at(2).is_some_and(|c| c.is_ascii_digit())))
        {
            is_float = true;
            self.bump(); // e
            if matches!(self.peek(), Some('+') | Some('-')) {
                self.bump();
            }
            self.bump_ascii_while(|b| b.is_ascii_digit());
        }
        let text = self.text_from(start);
        if is_float {
            text.parse::<f64>()
                .map(TokenKind::Float)
                .map_err(|_| LangError::lex(format!("bad float literal `{text}`"), line, col))
        } else {
            text.parse::<i64>()
                .map(TokenKind::Int)
                .map_err(|_| LangError::lex(format!("bad integer literal `{text}`"), line, col))
        }
    }

    fn ident(&mut self) -> TokenKind {
        let start = self.pos;
        self.bump_ascii_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        let text = self.text_from(start);
        if let Some(k) = keyword(text) {
            return k;
        }
        let bytes = text.as_bytes();
        let slot =
            (bytes.len() + 7 * usize::from(bytes[0]) + 13 * usize::from(bytes[bytes.len() - 1]))
                % RECENT;
        if let Some(name) = self.recent[slot].as_ref().filter(|n| n.as_str() == text) {
            return TokenKind::Ident(name.clone());
        }
        let name = match self.names.get(text) {
            Some(name) => name.clone(),
            None => {
                let name = Name::from(text);
                self.names.insert(name.clone());
                name
            }
        };
        self.recent[slot] = Some(name.clone());
        TokenKind::Ident(name)
    }

    fn punct(&mut self, line: u32, col: u32) -> LangResult<TokenKind> {
        let c = self.bump().expect("punct called at eof");
        Ok(match c {
            '(' => TokenKind::LParen,
            ')' => TokenKind::RParen,
            '[' => TokenKind::LBracket,
            ']' => TokenKind::RBracket,
            '{' => TokenKind::LBrace,
            '}' => TokenKind::RBrace,
            ',' => TokenKind::Comma,
            ':' => TokenKind::Colon,
            '+' => TokenKind::Plus,
            '-' => TokenKind::Minus,
            '*' => TokenKind::Star,
            '/' => TokenKind::Slash,
            '%' => TokenKind::Percent,
            '=' => TokenKind::Eq,
            '.' => {
                if self.peek() == Some('.') {
                    self.bump();
                    TokenKind::DotDot
                } else {
                    return Err(LangError::lex("stray `.`", line, col));
                }
            }
            '<' => match self.peek() {
                Some('>') => {
                    self.bump();
                    TokenKind::Ne
                }
                Some('=') => {
                    self.bump();
                    TokenKind::Le
                }
                _ => TokenKind::Lt,
            },
            '>' => {
                if self.peek() == Some('=') {
                    self.bump();
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            other => {
                return Err(LangError::lex(format!("unexpected character `{other}`"), line, col));
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_do_header() {
        assert_eq!(
            kinds("do col = 1, n"),
            vec![Do, Ident("col".into()), Eq, Int(1), Comma, Ident("n".into()), Eof]
        );
    }

    #[test]
    fn dotdot_vs_float() {
        assert_eq!(kinds("1..n"), vec![Int(1), DotDot, Ident("n".into()), Eof]);
        assert_eq!(kinds("1.5"), vec![Float(1.5), Eof]);
        assert_eq!(kinds("2.0e3"), vec![Float(2000.0), Eof]);
    }

    #[test]
    fn comparison_operators() {
        assert_eq!(kinds("<> <= >= < > ="), vec![Ne, Le, Ge, Lt, Gt, Eq, Eof]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(kinds("x # a comment\ny"), vec![Ident("x".into()), Ident("y".into()), Eof]);
    }

    #[test]
    fn where_mask_tokens() {
        assert_eq!(
            kinds("where (mask[col] <> 0)"),
            vec![
                Where,
                LParen,
                Ident("mask".into()),
                LBracket,
                Ident("col".into()),
                RBracket,
                Ne,
                Int(0),
                RParen,
                Eof
            ]
        );
    }

    #[test]
    fn positions_track_lines() {
        let toks = tokenize("a\n  b").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn stray_dot_is_error() {
        assert!(tokenize("a . b").is_err());
    }

    #[test]
    fn unexpected_char_is_error() {
        let e = tokenize("a $ b").unwrap_err();
        assert!(e.to_string().contains("unexpected character"));
    }

    #[test]
    fn negative_numbers_lex_as_minus_then_literal() {
        assert_eq!(kinds("-3"), vec![Minus, Int(3), Eof]);
    }

    #[test]
    fn one_spelling_is_one_name() {
        let toks = tokenize("x y x").unwrap();
        let (TokenKind::Ident(a), TokenKind::Ident(b)) = (&toks[0].kind, &toks[2].kind) else {
            panic!("identifiers expected")
        };
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "both `x` share one allocation");
    }

    #[test]
    fn keywords_vs_identifiers() {
        assert_eq!(
            kinds("do done and android"),
            vec![Do, Ident("done".into()), And, Ident("android".into()), Eof]
        );
    }
}
