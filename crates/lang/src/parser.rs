//! Recursive-descent parser for the MF language.
//!
//! Grammar sketch (see crate docs for the informal description):
//!
//! ```text
//! program    := 'program' IDENT decl* proc* stmt* 'end'
//! decl       := ('integer'|'float') item (',' item)*
//! item       := IDENT ('[' declrange (',' declrange)* ']')? ('=' expr)?
//! declrange  := arith '..' arith
//! proc       := 'proc' IDENT '(' paramlist? ')' '{' decl* stmt* '}'
//! stmt       := do | if | call | assign
//! do         := (IDENT ':')? 'do' IDENT '=' looprange ('and' looprange)*
//!                  ('where' '(' expr ')')? '{' stmt* '}'
//! looprange  := arith ',' arith (',' arith)?
//! if         := 'if' '(' expr ')' '{' stmt* '}'
//!                  ('else' ('{' stmt* '}' | if))?
//! call       := 'call' IDENT '(' exprlist? ')'
//! assign     := lvalue '=' expr
//! ```
//!
//! Inside loop-range positions, expressions are parsed at comparison
//! precedence (no `and`/`or`) so that `do i = 1, a-1 and a+1, n`
//! unambiguously reads `and` as the discontinuous-range connector.

use crate::ast::{BinOp, Decl, Expr, LValue, Name, ProcDef, Program, Range, Stmt, Type, UnOp};
use crate::error::{LangError, LangResult};
use crate::lexer::tokenize;
use crate::token::{Token, TokenKind};

/// Parses a complete MF program.
///
/// # Errors
///
/// Returns [`LangError::Lex`] or [`LangError::Parse`] with the position
/// of the first offending token.
///
/// # Examples
///
/// ```
/// # use orchestra_lang::parse_program;
/// let p = parse_program("program p\n integer n = 3\nend").unwrap();
/// assert_eq!(p.decls.len(), 1);
/// ```
pub fn parse_program(src: &str) -> LangResult<Program> {
    let tokens = tokenize(src)?;
    Parser { tokens, pos: 0 }.program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        let i = (self.pos + 1).min(self.tokens.len() - 1);
        &self.tokens[i].kind
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.tokens[self.pos];
        (t.line, t.col)
    }

    /// Moves past the current token (never past the final `Eof`).
    fn bump(&mut self) {
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
    }

    /// A type keyword; `what` names the expected item in the error.
    fn type_kw(&mut self, what: &str) -> LangResult<Type> {
        let ty = match self.peek() {
            TokenKind::Integer => Type::Int,
            TokenKind::FloatKw => Type::Float,
            other => {
                let (l, c) = self.here();
                return Err(LangError::parse(format!("expected {what}, found `{other}`"), l, c));
            }
        };
        self.bump();
        Ok(ty)
    }

    fn eat(&mut self, want: &TokenKind) -> LangResult<()> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            let (l, c) = self.here();
            Err(LangError::parse(format!("expected `{want}`, found `{}`", self.peek()), l, c))
        }
    }

    fn ident(&mut self) -> LangResult<Name> {
        if let TokenKind::Ident(s) = self.peek() {
            let s = s.clone();
            self.bump();
            Ok(s)
        } else {
            let (l, c) = self.here();
            Err(LangError::parse(format!("expected identifier, found `{}`", self.peek()), l, c))
        }
    }

    fn program(&mut self) -> LangResult<Program> {
        self.eat(&TokenKind::Program)?;
        let name = self.ident()?;
        let mut prog = Program::new(name);
        while matches!(self.peek(), TokenKind::Integer | TokenKind::FloatKw) {
            prog.decls.extend(self.decl_line()?);
        }
        while matches!(self.peek(), TokenKind::Proc) {
            prog.procs.push(self.proc_def()?);
        }
        while !matches!(self.peek(), TokenKind::End | TokenKind::Eof) {
            prog.body.push(self.stmt()?);
        }
        self.eat(&TokenKind::End)?;
        Ok(prog)
    }

    fn decl_line(&mut self) -> LangResult<Vec<Decl>> {
        let ty = self.type_kw("type")?;
        let mut out = Vec::new();
        loop {
            out.push(self.decl_item(ty)?);
            if matches!(self.peek(), TokenKind::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        Ok(out)
    }

    fn decl_item(&mut self, ty: Type) -> LangResult<Decl> {
        let name = self.ident()?;
        let mut dims = Vec::new();
        if matches!(self.peek(), TokenKind::LBracket) {
            self.bump();
            loop {
                let lo = self.arith()?;
                self.eat(&TokenKind::DotDot)?;
                let hi = self.arith()?;
                dims.push(Range::new(lo, hi));
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.eat(&TokenKind::RBracket)?;
        }
        let init = if matches!(self.peek(), TokenKind::Eq) && dims.is_empty() {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Decl { name, ty, dims, init })
    }

    fn proc_def(&mut self) -> LangResult<ProcDef> {
        self.eat(&TokenKind::Proc)?;
        let name = self.ident()?;
        self.eat(&TokenKind::LParen)?;
        let mut params = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            loop {
                let ty = self.type_kw("parameter type")?;
                params.push(self.decl_item(ty)?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&TokenKind::RParen)?;
        self.eat(&TokenKind::LBrace)?;
        let mut locals = Vec::new();
        while matches!(self.peek(), TokenKind::Integer | TokenKind::FloatKw) {
            locals.extend(self.decl_line()?);
        }
        let mut body = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            body.push(self.stmt()?);
        }
        self.eat(&TokenKind::RBrace)?;
        Ok(ProcDef { name, params, locals, body })
    }

    fn block(&mut self) -> LangResult<Vec<Stmt>> {
        self.eat(&TokenKind::LBrace)?;
        let mut out = Vec::new();
        while !matches!(self.peek(), TokenKind::RBrace | TokenKind::Eof) {
            out.push(self.stmt()?);
        }
        self.eat(&TokenKind::RBrace)?;
        Ok(out)
    }

    fn stmt(&mut self) -> LangResult<Stmt> {
        match self.peek() {
            TokenKind::Do => self.do_stmt(None),
            TokenKind::If => self.if_stmt(),
            TokenKind::Call => self.call_stmt(),
            TokenKind::Ident(_) if matches!(self.peek2(), TokenKind::Colon) => {
                let label = self.ident()?;
                self.eat(&TokenKind::Colon)?;
                self.do_stmt(Some(label))
            }
            TokenKind::Ident(_) => self.assign_stmt(),
            other => {
                let (l, c) = self.here();
                Err(LangError::parse(format!("expected statement, found `{other}`"), l, c))
            }
        }
    }

    fn do_stmt(&mut self, label: Option<Name>) -> LangResult<Stmt> {
        self.eat(&TokenKind::Do)?;
        let var = self.ident()?;
        self.eat(&TokenKind::Eq)?;
        let mut ranges = vec![self.loop_range()?];
        while matches!(self.peek(), TokenKind::And) {
            self.bump();
            ranges.push(self.loop_range()?);
        }
        let mask = if matches!(self.peek(), TokenKind::Where) {
            self.bump();
            self.eat(&TokenKind::LParen)?;
            let m = self.expr()?;
            self.eat(&TokenKind::RParen)?;
            Some(m)
        } else {
            None
        };
        let body = self.block()?;
        Ok(Stmt::Do { label, var, ranges, mask, body })
    }

    fn loop_range(&mut self) -> LangResult<Range> {
        let lo = self.cmp_expr()?;
        self.eat(&TokenKind::Comma)?;
        let hi = self.cmp_expr()?;
        let step = if matches!(self.peek(), TokenKind::Comma) {
            self.bump();
            Some(self.cmp_expr()?)
        } else {
            None
        };
        Ok(Range { lo, hi, step })
    }

    fn if_stmt(&mut self) -> LangResult<Stmt> {
        self.eat(&TokenKind::If)?;
        self.eat(&TokenKind::LParen)?;
        let cond = self.expr()?;
        self.eat(&TokenKind::RParen)?;
        let then_body = self.block()?;
        let else_body = if matches!(self.peek(), TokenKind::Else) {
            self.bump();
            if matches!(self.peek(), TokenKind::If) {
                vec![self.if_stmt()?]
            } else {
                self.block()?
            }
        } else {
            Vec::new()
        };
        Ok(Stmt::If { cond, then_body, else_body })
    }

    fn call_stmt(&mut self) -> LangResult<Stmt> {
        self.eat(&TokenKind::Call)?;
        let name = self.ident()?;
        self.eat(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if !matches!(self.peek(), TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        self.eat(&TokenKind::RParen)?;
        Ok(Stmt::Call { name, args })
    }

    fn assign_stmt(&mut self) -> LangResult<Stmt> {
        let name = self.ident()?;
        let target = if matches!(self.peek(), TokenKind::LBracket) {
            self.bump();
            let mut idx = Vec::new();
            loop {
                idx.push(self.expr()?);
                if matches!(self.peek(), TokenKind::Comma) {
                    self.bump();
                } else {
                    break;
                }
            }
            self.eat(&TokenKind::RBracket)?;
            LValue::Index(name, idx)
        } else {
            LValue::Var(name)
        };
        self.eat(&TokenKind::Eq)?;
        let value = self.expr()?;
        Ok(Stmt::Assign { target, value })
    }

    // --- expressions ---------------------------------------------------

    fn expr(&mut self) -> LangResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> LangResult<Expr> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), TokenKind::Or) {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> LangResult<Expr> {
        let mut lhs = self.cmp_expr()?;
        while matches!(self.peek(), TokenKind::And) {
            self.bump();
            let rhs = self.cmp_expr()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> LangResult<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.add_expr()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    /// Arithmetic-only expression (used for bounds and declarations).
    fn arith(&mut self) -> LangResult<Expr> {
        self.add_expr()
    }

    fn add_expr(&mut self) -> LangResult<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.mul_expr()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn mul_expr(&mut self) -> LangResult<Expr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn unary(&mut self) -> LangResult<Expr> {
        match self.peek() {
            TokenKind::Minus => {
                self.bump();
                // Fold literal negation so `-4` is one literal (and
                // printed negative literals re-parse to equal ASTs).
                Ok(match self.unary()? {
                    Expr::IntLit(v) => Expr::IntLit(-v),
                    Expr::FloatLit(v) => Expr::FloatLit(-v),
                    e => Expr::Un(UnOp::Neg, Box::new(e)),
                })
            }
            TokenKind::Not => {
                self.bump();
                Ok(Expr::Un(UnOp::Not, Box::new(self.unary()?)))
            }
            _ => self.primary(),
        }
    }

    fn primary(&mut self) -> LangResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::IntLit(v))
            }
            TokenKind::Float(v) => {
                self.bump();
                Ok(Expr::FloatLit(v))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.eat(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                match self.peek() {
                    TokenKind::LBracket => {
                        self.bump();
                        let mut idx = Vec::new();
                        loop {
                            idx.push(self.expr()?);
                            if matches!(self.peek(), TokenKind::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                        self.eat(&TokenKind::RBracket)?;
                        Ok(Expr::Index(name, idx))
                    }
                    TokenKind::LParen => {
                        self.bump();
                        let mut args = Vec::new();
                        if !matches!(self.peek(), TokenKind::RParen) {
                            loop {
                                args.push(self.expr()?);
                                if matches!(self.peek(), TokenKind::Comma) {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.eat(&TokenKind::RParen)?;
                        Ok(Expr::Call(name, args))
                    }
                    _ => Ok(Expr::Var(name)),
                }
            }
            other => {
                let (l, c) = self.here();
                Err(LangError::parse(format!("expected expression, found `{other}`"), l, c))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure1_program() {
        // The paper's Figure 1 example.
        let src = r#"
program figure1
  integer n = 8
  integer mask[1..n]
  float result[1..n], q[1..n,1..n], output[1..n,1..n]

  A: do col = 1, n where (mask[col] <> 0) {
    do i = 1, n {
      result[i] = result[i] + q[i,col]
    }
    do i = 1, n {
      q[i,col] = result[i]
    }
  }
  B: do i = 1, n {
    do j = 1, n {
      output[j,i] = f(q[j,i])
    }
  }
end
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.name, "figure1");
        assert_eq!(p.decls.len(), 5);
        assert_eq!(p.body.len(), 2);
        assert_eq!(p.body[0].label(), Some("A"));
        assert_eq!(p.body[1].label(), Some("B"));
        let Stmt::Do { mask, .. } = &p.body[0] else { panic!("expected do") };
        assert!(mask.is_some());
    }

    #[test]
    fn parses_discontinuous_range() {
        let src = r#"
program p
  integer n = 8, a = 3
  float x[1..n]
  do i = 1, a - 1 and a + 1, n {
    x[i] = 0.0
  }
end
"#;
        let p = parse_program(src).unwrap();
        let Stmt::Do { ranges, .. } = &p.body[0] else { panic!() };
        assert_eq!(ranges.len(), 2);
        assert_eq!(ranges[0].lo, Expr::IntLit(1));
        assert_eq!(ranges[1].hi, Expr::var("n"));
    }

    #[test]
    fn and_is_logical_inside_parens() {
        let src = r#"
program p
  integer a, b, c
  if (a < 1 and b < 2) {
    c = 1
  }
end
"#;
        let p = parse_program(src).unwrap();
        let Stmt::If { cond, .. } = &p.body[0] else { panic!() };
        let Expr::Bin(BinOp::And, _, _) = cond else { panic!("expected and") };
    }

    #[test]
    fn parses_if_else_chain() {
        let src = r#"
program p
  integer a, b
  if (a = 0) {
    b = 1
  } else if (a = 1) {
    b = 2
  } else {
    b = 3
  }
end
"#;
        let p = parse_program(src).unwrap();
        let Stmt::If { else_body, .. } = &p.body[0] else { panic!() };
        assert_eq!(else_body.len(), 1);
        let Stmt::If { else_body: inner_else, .. } = &else_body[0] else { panic!() };
        assert_eq!(inner_else.len(), 1);
    }

    #[test]
    fn parses_procedures() {
        let src = r#"
program p
  integer n = 4
  float x[1..n]
  proc init(float x[1..n], integer n) {
    do i = 1, n {
      x[i] = 0.0
    }
  }
  call init(x, n)
end
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.procs.len(), 1);
        assert_eq!(p.procs[0].params.len(), 2);
        assert!(matches!(p.body[0], Stmt::Call { .. }));
    }

    #[test]
    fn operator_precedence() {
        let src = "program p\n integer a\n a = 1 + 2 * 3\nend";
        let p = parse_program(src).unwrap();
        let Stmt::Assign { value, .. } = &p.body[0] else { panic!() };
        // 1 + (2*3)
        let Expr::Bin(BinOp::Add, lhs, _) = value else { panic!() };
        assert_eq!(**lhs, Expr::IntLit(1));
    }

    #[test]
    fn parse_error_reports_position() {
        let err = parse_program("program p\n integer a\n a = = 1\nend").unwrap_err();
        match err {
            LangError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn loop_with_step() {
        let src = "program p\n integer n = 9\n integer x[1..n]\n do i = 1, n, 2 { x[i] = i }\nend";
        let p = parse_program(src).unwrap();
        let Stmt::Do { ranges, .. } = &p.body[0] else { panic!() };
        assert_eq!(ranges[0].step, Some(Expr::IntLit(2)));
    }

    #[test]
    fn missing_end_is_error() {
        assert!(parse_program("program p\n integer a\n a = 1\n").is_err());
    }

    #[test]
    fn nested_indexing_and_calls() {
        let src = "program p\n integer n = 2\n float q[1..n], z[1..n]\n z[1] = f(q[g(n)]) \nend";
        let p = parse_program(src).unwrap();
        let Stmt::Assign { value: Expr::Call(name, args), .. } = &p.body[0] else { panic!() };
        assert_eq!(name, "f");
        assert!(matches!(&args[0], Expr::Index(_, _)));
    }
}
