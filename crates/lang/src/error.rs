//! Error types shared by the MF front end.

use std::error::Error;
use std::fmt;

/// Result alias used throughout the crate.
pub(crate) type LangResult<T> = Result<T, LangError>;

/// An error produced while lexing, parsing, or interpreting MF source.
#[derive(Debug, Clone, PartialEq)]
pub enum LangError {
    /// A character the lexer does not recognize.
    Lex {
        /// Explanation of the problem.
        msg: String,
        /// 1-based source line.
        line: u32,
        /// 1-based source column.
        col: u32,
    },
    /// A syntax error found by the parser.
    Parse {
        /// Explanation of the problem.
        msg: String,
        /// 1-based source line.
        line: u32,
        /// 1-based source column.
        col: u32,
    },
    /// A runtime error raised by the reference interpreter.
    Eval(String),
}

impl LangError {
    /// Creates a lexer error.
    pub(crate) fn lex(msg: impl Into<String>, line: u32, col: u32) -> Self {
        LangError::Lex { msg: msg.into(), line, col }
    }

    /// Creates a parse error.
    pub fn parse(msg: impl Into<String>, line: u32, col: u32) -> Self {
        LangError::Parse { msg: msg.into(), line, col }
    }

    /// Creates an interpreter error.
    pub fn eval(msg: impl Into<String>) -> Self {
        LangError::Eval(msg.into())
    }
}

impl fmt::Display for LangError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LangError::Lex { msg, line, col } => {
                write!(f, "lex error at {line}:{col}: {msg}")
            }
            LangError::Parse { msg, line, col } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            LangError::Eval(msg) => write!(f, "evaluation error: {msg}"),
        }
    }
}

impl Error for LangError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = LangError::parse("expected `do`", 4, 9);
        assert_eq!(e.to_string(), "parse error at 4:9: expected `do`");
    }

    #[test]
    fn eval_error_display() {
        let e = LangError::eval("index out of bounds");
        assert!(e.to_string().contains("index out of bounds"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LangError>();
    }
}
