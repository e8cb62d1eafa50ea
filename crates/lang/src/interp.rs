//! Reference interpreter for MF programs.
//!
//! The interpreter is the semantic ground truth of the reproduction: the
//! test suites of `orchestra-split` and `orchestra-core` run an original
//! program and its split/pipelined transformation on identical inputs and
//! assert the final stores are equal (split must be semantics-preserving).
//!
//! Procedure calls use copy-in/copy-out parameter passing, which matches
//! by-reference semantics for the alias-free programs the analyses accept.
//!
//! The interpreter also counts executed operations ([`ExecStats`]); the
//! split heuristics and the workload generators use these counts as the
//! "profile information" the paper's compiler consumes.

use crate::ast::{BinOp, Decl, Expr, LValue, Program, Range, Stmt, Type, UnOp};
use crate::error::{LangError, LangResult};
use std::collections::BTreeMap;

/// A runtime value: a scalar or a rectangular array.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f64),
    /// Integer array with per-dimension inclusive index bounds.
    IntArray {
        /// `(lo, hi)` per dimension.
        dims: Vec<(i64, i64)>,
        /// Row-major contents.
        data: Vec<i64>,
    },
    /// Float array with per-dimension inclusive index bounds.
    FloatArray {
        /// `(lo, hi)` per dimension.
        dims: Vec<(i64, i64)>,
        /// Row-major contents.
        data: Vec<f64>,
    },
}

impl Value {
    /// Interprets the value as a float, coercing integers.
    pub(crate) fn as_float(&self) -> LangResult<f64> {
        match self {
            Value::Int(v) => Ok(*v as f64),
            Value::Float(v) => Ok(*v),
            _ => Err(LangError::eval("expected scalar, found array")),
        }
    }

    /// Interprets the value as an integer (floats must be integral).
    pub fn as_int(&self) -> LangResult<i64> {
        match self {
            Value::Int(v) => Ok(*v),
            Value::Float(v) if v.fract() == 0.0 => Ok(*v as i64),
            Value::Float(_) => Err(LangError::eval("expected integer, found fractional float")),
            _ => Err(LangError::eval("expected scalar, found array")),
        }
    }

    /// Whether this scalar counts as true (non-zero).
    pub(crate) fn truthy(&self) -> LangResult<bool> {
        Ok(self.as_float()? != 0.0)
    }

    fn flat_index(dims: &[(i64, i64)], idx: &[i64]) -> LangResult<usize> {
        if dims.len() != idx.len() {
            return Err(LangError::eval(format!(
                "rank mismatch: {} indices for rank-{} array",
                idx.len(),
                dims.len()
            )));
        }
        let mut flat: usize = 0;
        for (k, (&i, &(lo, hi))) in idx.iter().zip(dims).enumerate() {
            if i < lo || i > hi {
                return Err(LangError::eval(format!(
                    "index {i} out of bounds [{lo}..{hi}] in dimension {k}"
                )));
            }
            let extent = (hi - lo + 1) as usize;
            flat = flat * extent + (i - lo) as usize;
        }
        Ok(flat)
    }

    /// Reads an array element.
    pub fn get(&self, idx: &[i64]) -> LangResult<Value> {
        match self {
            Value::IntArray { dims, data } => Ok(Value::Int(data[Self::flat_index(dims, idx)?])),
            Value::FloatArray { dims, data } => {
                Ok(Value::Float(data[Self::flat_index(dims, idx)?]))
            }
            _ => Err(LangError::eval("cannot index a scalar")),
        }
    }

    /// Writes an array element (coercing the scalar to the element type).
    pub fn set(&mut self, idx: &[i64], v: &Value) -> LangResult<()> {
        match self {
            Value::IntArray { dims, data } => {
                let flat = Self::flat_index(dims, idx)?;
                data[flat] = v.as_int()?;
                Ok(())
            }
            Value::FloatArray { dims, data } => {
                let flat = Self::flat_index(dims, idx)?;
                data[flat] = v.as_float()?;
                Ok(())
            }
            _ => Err(LangError::eval("cannot index a scalar")),
        }
    }
}

/// The variable store: name → value.
pub type Env = BTreeMap<String, Value>;

/// Operation counters accumulated during execution.
///
/// These play the role of the paper's profile data: the split heuristic
/// for moving `ReadLinked` computations consults per-computation cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Floating-point binary/unary operations executed.
    pub flops: u64,
    /// Integer binary/unary operations executed.
    pub int_ops: u64,
    /// Loop iterations started (after mask filtering).
    pub iterations: u64,
    /// Intrinsic function calls.
    pub calls: u64,
}

/// The MF interpreter.
#[derive(Debug, Default)]
pub struct Interp {
    /// Operation counters for the most recent run.
    pub stats: ExecStats,
    /// Iteration safety limit (guards against runaway loops in tests).
    pub max_iterations: u64,
}

impl Interp {
    /// Creates an interpreter with a generous iteration limit.
    pub fn new() -> Self {
        Interp { stats: ExecStats::default(), max_iterations: 200_000_000 }
    }

    /// Runs a program from scratch and returns the final store.
    ///
    /// `inputs` overrides initial values for declared variables (after
    /// declaration-time zero initialization), letting tests inject data.
    ///
    /// # Errors
    ///
    /// Any runtime fault (bad index, type error, unknown intrinsic)
    /// aborts execution with [`LangError::Eval`].
    pub fn run(&mut self, prog: &Program, inputs: &Env) -> LangResult<Env> {
        self.stats = ExecStats::default();
        let mut env = Env::new();
        // Declarations are processed in order, so later array bounds may
        // reference earlier (possibly input-overridden) scalars.
        for d in &prog.decls {
            let v = if d.dims.is_empty() {
                if let Some(v) = inputs.get(d.name.as_str()) {
                    coerce(v, d.ty)?
                } else if let Some(init) = &d.init {
                    let v = self.eval(init, &env, prog)?;
                    coerce(&v, d.ty)?
                } else {
                    match d.ty {
                        Type::Int => Value::Int(0),
                        Type::Float => Value::Float(0.0),
                    }
                }
            } else {
                let zeroed = self.alloc(d, &env)?;
                if let Some(v) = inputs.get(d.name.as_str()) {
                    self.check_shape(&zeroed, v, &d.name)?;
                    v.clone()
                } else {
                    zeroed
                }
            };
            env.insert(d.name.to_string(), v);
        }
        for k in inputs.keys() {
            if !env.contains_key(k) {
                return Err(LangError::eval(format!("input for undeclared variable `{k}`")));
            }
        }
        for s in &prog.body {
            self.exec(s, &mut env, prog)?;
        }
        Ok(env)
    }

    fn check_shape(&self, slot: &Value, v: &Value, name: &str) -> LangResult<()> {
        let ok = match (slot, v) {
            (Value::Int(_), Value::Int(_)) | (Value::Float(_), Value::Float(_)) => true,
            (Value::Int(_), Value::Float(x)) => x.fract() == 0.0,
            (Value::Float(_), Value::Int(_)) => true,
            (Value::IntArray { dims: a, .. }, Value::IntArray { dims: b, .. }) => a == b,
            (Value::FloatArray { dims: a, .. }, Value::FloatArray { dims: b, .. }) => a == b,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            Err(LangError::eval(format!("input for `{name}` has wrong shape or type")))
        }
    }

    fn alloc(&mut self, d: &Decl, env: &Env) -> LangResult<Value> {
        if d.dims.is_empty() {
            return Ok(match (d.ty, &d.init) {
                (Type::Int, _) => Value::Int(0),
                (Type::Float, _) => Value::Float(0.0),
            });
        }
        let mut dims = Vec::with_capacity(d.dims.len());
        let mut len: usize = 1;
        for r in &d.dims {
            let lo = self.eval_int(&r.lo, env)?;
            let hi = self.eval_int(&r.hi, env)?;
            if hi < lo {
                return Err(LangError::eval(format!(
                    "array `{}` has empty dimension [{lo}..{hi}]",
                    d.name
                )));
            }
            len = len
                .checked_mul((hi - lo + 1) as usize)
                .ok_or_else(|| LangError::eval("array too large"))?;
            dims.push((lo, hi));
        }
        Ok(match d.ty {
            Type::Int => Value::IntArray { dims, data: vec![0; len] },
            Type::Float => Value::FloatArray { dims, data: vec![0.0; len] },
        })
    }

    /// Evaluates an expression to an integer in a declaration context
    /// (no program needed because intrinsics are disallowed there).
    fn eval_int(&mut self, e: &Expr, env: &Env) -> LangResult<i64> {
        let dummy = Program::new("decl");
        self.eval(e, env, &dummy)?.as_int()
    }

    fn exec(&mut self, s: &Stmt, env: &mut Env, prog: &Program) -> LangResult<()> {
        match s {
            Stmt::Assign { target, value } => {
                let v = self.eval(value, env, prog)?;
                match target {
                    LValue::Var(name) => {
                        let slot = env
                            .get_mut(name.as_str())
                            .ok_or_else(|| LangError::eval(format!("unknown variable `{name}`")))?;
                        *slot = match slot {
                            Value::Int(_) => Value::Int(v.as_int()?),
                            Value::Float(_) => Value::Float(v.as_float()?),
                            _ => return Err(LangError::eval(format!("`{name}` is an array"))),
                        };
                    }
                    LValue::Index(name, idx_exprs) => {
                        let mut idx = Vec::with_capacity(idx_exprs.len());
                        for ie in idx_exprs {
                            idx.push(self.eval(ie, env, prog)?.as_int()?);
                        }
                        let slot = env
                            .get_mut(name.as_str())
                            .ok_or_else(|| LangError::eval(format!("unknown array `{name}`")))?;
                        // borrow juggling: take the slot out to allow v reuse
                        slot.set(&idx, &v)?;
                    }
                }
                Ok(())
            }
            Stmt::Do { var, ranges, mask, body, .. } => {
                for r in ranges {
                    let seq = self.range_values(r, env, prog)?;
                    for i in seq {
                        self.stats.iterations += 1;
                        if self.stats.iterations > self.max_iterations {
                            return Err(LangError::eval("iteration limit exceeded"));
                        }
                        env.insert(var.to_string(), Value::Int(i));
                        if let Some(m) = mask {
                            if !self.eval(m, env, prog)?.truthy()? {
                                continue;
                            }
                        }
                        for b in body {
                            self.exec(b, env, prog)?;
                        }
                    }
                }
                Ok(())
            }
            Stmt::If { cond, then_body, else_body } => {
                let taken = self.eval(cond, env, prog)?.truthy()?;
                let branch = if taken { then_body } else { else_body };
                for b in branch {
                    self.exec(b, env, prog)?;
                }
                Ok(())
            }
            Stmt::Call { name, args } => self.call_proc(name, args, env, prog),
        }
    }

    fn range_values(&mut self, r: &Range, env: &Env, prog: &Program) -> LangResult<Vec<i64>> {
        let lo = self.eval(&r.lo, env, prog)?.as_int()?;
        let hi = self.eval(&r.hi, env, prog)?.as_int()?;
        let step = match &r.step {
            Some(s) => self.eval(s, env, prog)?.as_int()?,
            None => 1,
        };
        if step == 0 {
            return Err(LangError::eval("loop step of zero"));
        }
        let mut vals = Vec::new();
        let mut i = lo;
        if step > 0 {
            while i <= hi {
                vals.push(i);
                i += step;
            }
        } else {
            while i >= hi {
                vals.push(i);
                i += step;
            }
        }
        Ok(vals)
    }

    fn call_proc(
        &mut self,
        name: &str,
        args: &[Expr],
        env: &mut Env,
        prog: &Program,
    ) -> LangResult<()> {
        let def = prog
            .proc(name)
            .ok_or_else(|| LangError::eval(format!("unknown procedure `{name}`")))?
            .clone();
        if def.params.len() != args.len() {
            return Err(LangError::eval(format!(
                "`{name}` expects {} arguments, got {}",
                def.params.len(),
                args.len()
            )));
        }
        // Copy-in.
        let mut local = Env::new();
        let mut outs: Vec<(&str, &str)> = Vec::new(); // (param, caller var)
        for (p, a) in def.params.iter().zip(args) {
            let v = self.eval(a, env, prog)?;
            local.insert(p.name.to_string(), v);
            if let Expr::Var(caller_name) = a {
                outs.push((&p.name, caller_name));
            }
        }
        for d in &def.locals {
            let v = self.alloc(d, &local)?;
            local.insert(d.name.to_string(), v);
            if let Some(init) = &d.init {
                let v = self.eval(init, &local, prog)?;
                local.insert(d.name.to_string(), coerce(&v, d.ty)?);
            }
        }
        for s in &def.body {
            self.exec(s, &mut local, prog)?;
        }
        // Copy-out for variable arguments (by-reference emulation).
        for (param, caller) in outs {
            let v = local.remove(param).expect("param bound");
            env.insert(caller.to_string(), v);
        }
        Ok(())
    }

    /// Evaluates an expression.
    #[allow(clippy::only_used_in_recursion)] // `prog` resolves intrinsics in nested calls
    pub fn eval(&mut self, e: &Expr, env: &Env, prog: &Program) -> LangResult<Value> {
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::FloatLit(v) => Ok(Value::Float(*v)),
            Expr::Var(name) => match env.get(name.as_str()) {
                Some(Value::Int(v)) => Ok(Value::Int(*v)),
                Some(Value::Float(v)) => Ok(Value::Float(*v)),
                Some(arr) => Ok(arr.clone()),
                None => Err(LangError::eval(format!("unknown variable `{name}`"))),
            },
            Expr::Index(name, idx_exprs) => {
                let mut idx = Vec::with_capacity(idx_exprs.len());
                for ie in idx_exprs {
                    idx.push(self.eval(ie, env, prog)?.as_int()?);
                }
                env.get(name.as_str())
                    .ok_or_else(|| LangError::eval(format!("unknown array `{name}`")))?
                    .get(&idx)
            }
            Expr::Bin(op, l, r) => {
                let lv = self.eval(l, env, prog)?;
                let rv = self.eval(r, env, prog)?;
                self.binop(*op, &lv, &rv)
            }
            Expr::Un(op, inner) => {
                let v = self.eval(inner, env, prog)?;
                match (op, &v) {
                    (UnOp::Neg, Value::Int(x)) => {
                        self.stats.int_ops += 1;
                        Ok(Value::Int(-x))
                    }
                    (UnOp::Neg, Value::Float(x)) => {
                        self.stats.flops += 1;
                        Ok(Value::Float(-x))
                    }
                    (UnOp::Not, _) => {
                        self.stats.int_ops += 1;
                        Ok(Value::Int(if v.truthy()? { 0 } else { 1 }))
                    }
                    _ => Err(LangError::eval("cannot negate array")),
                }
            }
            Expr::Call(f, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env, prog)?);
                }
                self.stats.calls += 1;
                intrinsic(f, &vals)
            }
        }
    }

    fn binop(&mut self, op: BinOp, l: &Value, r: &Value) -> LangResult<Value> {
        use BinOp::*;
        // Integer arithmetic stays integral; any float operand promotes.
        let both_int = matches!((l, r), (Value::Int(_), Value::Int(_)));
        if both_int {
            let (a, b) = (l.as_int()?, r.as_int()?);
            self.stats.int_ops += 1;
            let v = match op {
                Add => a.wrapping_add(b),
                Sub => a.wrapping_sub(b),
                Mul => a.wrapping_mul(b),
                Div => {
                    if b == 0 {
                        return Err(LangError::eval("integer division by zero"));
                    }
                    a / b
                }
                Mod => {
                    if b == 0 {
                        return Err(LangError::eval("integer modulo by zero"));
                    }
                    a % b
                }
                Eq => (a == b) as i64,
                Ne => (a != b) as i64,
                Lt => (a < b) as i64,
                Le => (a <= b) as i64,
                Gt => (a > b) as i64,
                Ge => (a >= b) as i64,
                And => ((a != 0) && (b != 0)) as i64,
                Or => ((a != 0) || (b != 0)) as i64,
            };
            Ok(Value::Int(v))
        } else {
            let (a, b) = (l.as_float()?, r.as_float()?);
            self.stats.flops += 1;
            let v = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Mod => a % b,
                Eq => return Ok(Value::Int((a == b) as i64)),
                Ne => return Ok(Value::Int((a != b) as i64)),
                Lt => return Ok(Value::Int((a < b) as i64)),
                Le => return Ok(Value::Int((a <= b) as i64)),
                Gt => return Ok(Value::Int((a > b) as i64)),
                Ge => return Ok(Value::Int((a >= b) as i64)),
                And => return Ok(Value::Int(((a != 0.0) && (b != 0.0)) as i64)),
                Or => return Ok(Value::Int(((a != 0.0) || (b != 0.0)) as i64)),
            };
            Ok(Value::Float(v))
        }
    }
}

fn coerce(v: &Value, ty: Type) -> LangResult<Value> {
    Ok(match ty {
        Type::Int => Value::Int(v.as_int()?),
        Type::Float => Value::Float(v.as_float()?),
    })
}

/// Evaluates a pure intrinsic function.
///
/// `f`, `g`, and `h` are the paper examples' anonymous "compute"
/// functions; they are fixed nontrivial pure maps so that transformed
/// programs can be checked for exact output equality.
fn intrinsic(name: &str, args: &[Value]) -> LangResult<Value> {
    let arity_err = || LangError::eval(format!("wrong number of arguments for intrinsic `{name}`"));
    let one = |args: &[Value]| -> LangResult<f64> {
        if args.len() != 1 {
            Err(arity_err())
        } else {
            args[0].as_float()
        }
    };
    match name {
        "f" => {
            let x = one(args)?;
            Ok(Value::Float(x * 0.5 + 1.0))
        }
        "g" => {
            let x = one(args)?;
            Ok(Value::Float(x * x - x))
        }
        "h" => {
            let x = one(args)?;
            Ok(Value::Float(2.0 * x + 3.0))
        }
        "sqrt" => Ok(Value::Float(one(args)?.max(0.0).sqrt())),
        "sin" => Ok(Value::Float(one(args)?.sin())),
        "cos" => Ok(Value::Float(one(args)?.cos())),
        "exp" => Ok(Value::Float(one(args)?.exp())),
        "abs" => match args {
            [Value::Int(v)] => Ok(Value::Int(v.abs())),
            [v] => Ok(Value::Float(v.as_float()?.abs())),
            _ => Err(arity_err()),
        },
        "min" => match args {
            [a, b] => match (a, b) {
                (Value::Int(x), Value::Int(y)) => Ok(Value::Int(*x.min(y))),
                _ => Ok(Value::Float(a.as_float()?.min(b.as_float()?))),
            },
            _ => Err(arity_err()),
        },
        "max" => match args {
            [a, b] => match (a, b) {
                (Value::Int(x), Value::Int(y)) => Ok(Value::Int(*x.max(y))),
                _ => Ok(Value::Float(a.as_float()?.max(b.as_float()?))),
            },
            _ => Err(arity_err()),
        },
        _ => Err(LangError::eval(format!("unknown intrinsic `{name}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;

    fn run(src: &str) -> Env {
        let prog = parse_program(src).unwrap();
        Interp::new().run(&prog, &Env::new()).unwrap()
    }

    #[test]
    fn scalar_initializers() {
        let env = run("program p\n integer n = 5\n float x = 2.5\nend");
        assert_eq!(env["n"], Value::Int(5));
        assert_eq!(env["x"], Value::Float(2.5));
    }

    #[test]
    fn array_fill_loop() {
        let env = run(
            "program p\n integer n = 4\n integer x[1..n]\n do i = 1, n {\n x[i] = i * i\n }\nend",
        );
        let Value::IntArray { data, .. } = &env["x"] else { panic!() };
        assert_eq!(data, &vec![1, 4, 9, 16]);
    }

    #[test]
    fn masked_loop_skips() {
        let env = run(
            "program p\n integer n = 4\n integer m[1..n], x[1..n]\n do i = 1, n { m[i] = i % 2 }\n do i = 1, n where (m[i] <> 0) { x[i] = 7 }\nend",
        );
        let Value::IntArray { data, .. } = &env["x"] else { panic!() };
        assert_eq!(data, &vec![7, 0, 7, 0]);
    }

    #[test]
    fn discontinuous_range_executes_both_parts() {
        let env = run(
            "program p\n integer n = 5, a = 3\n integer x[1..n]\n do i = 1, a - 1 and a + 1, n { x[i] = 1 }\nend",
        );
        let Value::IntArray { data, .. } = &env["x"] else { panic!() };
        assert_eq!(data, &vec![1, 1, 0, 1, 1]);
    }

    #[test]
    fn two_dimensional_indexing() {
        let env = run(
            "program p\n integer n = 3\n integer a[1..n, 1..n]\n do i = 1, n { do j = 1, n { a[i, j] = i * 10 + j } }\nend",
        );
        let Value::IntArray { dims, data } = &env["a"] else { panic!() };
        assert_eq!(dims, &vec![(1, 3), (1, 3)]);
        assert_eq!(data[0], 11);
        assert_eq!(data[8], 33);
        assert_eq!(data[5], 23, "row-major order: a[2,3]");
    }

    #[test]
    fn reduction() {
        let env = run("program p\n integer n = 4\n integer s\n do i = 1, n { s = s + i }\nend");
        assert_eq!(env["s"], Value::Int(10));
    }

    #[test]
    fn if_else_branches() {
        let env = run("program p\n integer a = 2, b\n if (a = 2) { b = 10 } else { b = 20 }\nend");
        assert_eq!(env["b"], Value::Int(10));
    }

    #[test]
    fn intrinsic_f_definition() {
        let env = run("program p\n float y\n y = f(4.0)\nend");
        assert_eq!(env["y"], Value::Float(3.0));
    }

    #[test]
    fn procedure_copy_out() {
        let env = run(
            "program p\n integer n = 3\n float x[1..n]\n proc fill(float x[1..n], integer n) {\n do i = 1, n { x[i] = 1.5 }\n }\n call fill(x, n)\nend",
        );
        let Value::FloatArray { data, .. } = &env["x"] else { panic!() };
        assert_eq!(data, &vec![1.5, 1.5, 1.5]);
    }

    #[test]
    fn out_of_bounds_is_error() {
        let prog =
            parse_program("program p\n integer n = 2\n integer x[1..n]\n x[3] = 1\nend").unwrap();
        let err = Interp::new().run(&prog, &Env::new()).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn division_by_zero_is_error() {
        let prog = parse_program("program p\n integer a\n a = 1 / 0\nend").unwrap();
        assert!(Interp::new().run(&prog, &Env::new()).is_err());
    }

    #[test]
    fn inputs_override_arrays() {
        let prog = parse_program(
            "program p\n integer n = 3\n integer m[1..n], c\n do i = 1, n where (m[i] <> 0) { c = c + 1 }\nend",
        )
        .unwrap();
        let mut inputs = Env::new();
        inputs.insert("m".into(), Value::IntArray { dims: vec![(1, 3)], data: vec![1, 0, 1] });
        let env = Interp::new().run(&prog, &inputs).unwrap();
        assert_eq!(env["c"], Value::Int(2));
    }

    #[test]
    fn input_shape_mismatch_is_error() {
        let prog = parse_program("program p\n integer n = 3\n integer m[1..n]\nend").unwrap();
        let mut inputs = Env::new();
        inputs.insert("m".into(), Value::IntArray { dims: vec![(1, 2)], data: vec![1, 0] });
        assert!(Interp::new().run(&prog, &inputs).is_err());
    }

    #[test]
    fn stats_count_flops() {
        let prog = parse_program(
            "program p\n integer n = 10\n float x[1..n]\n do i = 1, n { x[i] = x[i] + 1.0 }\nend",
        )
        .unwrap();
        let mut it = Interp::new();
        it.run(&prog, &Env::new()).unwrap();
        assert_eq!(it.stats.flops, 10);
        assert_eq!(it.stats.iterations, 10);
    }

    #[test]
    fn negative_step_loops_downward() {
        let env = run(
            "program p\n integer n = 3, k\n integer x[1..n]\n do i = n, 1, -1 { k = k + 1\n x[i] = k }\nend",
        );
        let Value::IntArray { data, .. } = &env["x"] else { panic!() };
        assert_eq!(data, &vec![3, 2, 1]);
    }

    #[test]
    fn downstream_decl_sees_earlier_scalar() {
        let env = run("program p\n integer n = 4\n integer x[1..n]\nend");
        let Value::IntArray { dims, .. } = &env["x"] else { panic!() };
        assert_eq!(dims, &vec![(1, 4)]);
    }
}
