//! Abstract syntax tree for GSL, plus a pretty-printer.
//!
//! The AST is the contract between the parser, the type checker (which
//! enforces the restricted language level), the optimizer, the
//! tree-walking interpreter, and the bytecode lowering.

use std::fmt;

/// Which entity a component reference reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// The entity running the script.
    SelfEnt,
    /// The iteration variable inside `foreach` / aggregate `where`.
    Other,
}

impl fmt::Display for Subject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Subject::SelfEnt => write!(f, "self"),
            Subject::Other => write!(f, "other"),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for comparison operators (result type Bool).
    pub fn is_cmp(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// True for logical operators (operands and result Bool).
    pub fn is_logic(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        };
        f.write_str(s)
    }
}

/// Aggregate kinds over the neighbor set.
///
/// These are neighbour folds, not core's aggregates: every neighbour's
/// value is folded as it is, so a NaN makes `sum`/`avgof` NaN (core's
/// `aggregate` skips NaN as a NULL). The foreach→`sum` rewrite relies on
/// that, since a `+=` per neighbour poisons the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl fmt::Display for AggKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Min => "minof",
            AggKind::Max => "maxof",
            AggKind::Avg => "avgof",
        };
        f.write_str(s)
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Num(f64),
    Bool(bool),
    Str(String),
    /// Local variable.
    Var(String),
    /// `self.hp` or `other.hp`. `x`/`y` are virtual position components.
    Comp(Subject, String),
    Unary {
        neg: bool,
        not: bool,
        inner: Box<Expr>,
    },
    Bin {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `dist(other)` — distance from self to other (foreach/where only).
    DistToOther,
    /// `min(a,b)`, `max(a,b)`, `abs(x)`, `clamp(x,lo,hi)`.
    Builtin {
        name: BuiltinFn,
        args: Vec<Expr>,
    },
    /// Aggregate over neighbors within a radius, with an optional
    /// expression over `other` (None for `count`) and optional filter.
    ///
    /// `sum(10; other.dmg; other.team == self.team)`
    Agg {
        kind: AggKind,
        radius: Box<Expr>,
        arg: Option<Box<Expr>>,
        filter: Option<Box<Expr>>,
    },
    /// `nearest_dist(r)` — distance to nearest other within `r`, or `r`
    /// when none.
    NearestDist { radius: Box<Expr> },
}

/// Pure numeric builtins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinFn {
    Min,
    Max,
    Abs,
    Clamp,
}

impl BuiltinFn {
    /// Number of arguments the builtin requires.
    pub fn arity(self) -> usize {
        match self {
            BuiltinFn::Min | BuiltinFn::Max => 2,
            BuiltinFn::Abs => 1,
            BuiltinFn::Clamp => 3,
        }
    }
}

impl fmt::Display for BuiltinFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BuiltinFn::Min => "min",
            BuiltinFn::Max => "max",
            BuiltinFn::Abs => "abs",
            BuiltinFn::Clamp => "clamp",
        };
        f.write_str(s)
    }
}

/// Assignment flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=` — Set effect (self only, enforced by the type checker).
    Set,
    /// `+=` — commutative Add effect.
    Add,
    /// `-=` — commutative Add of the negation.
    Sub,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `let x = expr;`
    Let { name: String, value: Expr },
    /// `x = expr;` — reassign a local.
    AssignVar { name: String, value: Expr },
    /// `self.hp -= 3;` / `other.hp += 1;`
    AssignComp {
        subject: Subject,
        component: String,
        op: AssignOp,
        value: Expr,
    },
    If {
        cond: Expr,
        then_block: Vec<Stmt>,
        else_block: Vec<Stmt>,
    },
    /// `foreach within (r) { ... }` — binds `other`.
    Foreach { radius: Expr, body: Vec<Stmt> },
    While { cond: Expr, body: Vec<Stmt> },
    /// `move(dx, dy);`
    Move { dx: Expr, dy: Expr },
    /// `despawn;`
    Despawn,
    /// `call helper;`
    Call { script: String },
    /// `emit "event";`
    Emit { event: String },
}

/// A named script (a program).
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    pub name: String,
    pub body: Vec<Stmt>,
}

// ---- pretty printer (round-trip tests drive the parser) ----

fn indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

fn write_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Num(n) => out.push_str(&format!("{n}")),
        Expr::Bool(b) => out.push_str(&format!("{b}")),
        Expr::Str(s) => out.push_str(&format!("{s:?}")),
        Expr::Var(v) => out.push_str(v),
        Expr::Comp(s, c) => out.push_str(&format!("{s}.{c}")),
        Expr::Unary { neg, not, inner } => {
            if *not {
                out.push('!');
            }
            if *neg {
                out.push('-');
            }
            out.push('(');
            write_expr(inner, out);
            out.push(')');
        }
        Expr::Bin { op, lhs, rhs } => {
            out.push('(');
            write_expr(lhs, out);
            out.push_str(&format!(" {op} "));
            write_expr(rhs, out);
            out.push(')');
        }
        Expr::DistToOther => out.push_str("dist(other)"),
        Expr::Builtin { name, args } => {
            out.push_str(&format!("{name}("));
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_expr(a, out);
            }
            out.push(')');
        }
        Expr::Agg {
            kind,
            radius,
            arg,
            filter,
        } => {
            out.push_str(&format!("{kind}("));
            write_expr(radius, out);
            if let Some(a) = arg {
                out.push_str("; ");
                write_expr(a, out);
            }
            if let Some(fexpr) = filter {
                out.push_str("; ");
                write_expr(fexpr, out);
            }
            out.push(')');
        }
        Expr::NearestDist { radius } => {
            out.push_str("nearest_dist(");
            write_expr(radius, out);
            out.push(')');
        }
    }
}

fn write_block(stmts: &[Stmt], out: &mut String, depth: usize) {
    for s in stmts {
        write_stmt(s, out, depth);
    }
}

fn write_stmt(s: &Stmt, out: &mut String, depth: usize) {
    indent(out, depth);
    match s {
        Stmt::Let { name, value } => {
            out.push_str(&format!("let {name} = "));
            write_expr(value, out);
            out.push_str(";\n");
        }
        Stmt::AssignVar { name, value } => {
            out.push_str(&format!("{name} = "));
            write_expr(value, out);
            out.push_str(";\n");
        }
        Stmt::AssignComp {
            subject,
            component,
            op,
            value,
        } => {
            let op_s = match op {
                AssignOp::Set => "=",
                AssignOp::Add => "+=",
                AssignOp::Sub => "-=",
            };
            out.push_str(&format!("{subject}.{component} {op_s} "));
            write_expr(value, out);
            out.push_str(";\n");
        }
        Stmt::If {
            cond,
            then_block,
            else_block,
        } => {
            out.push_str("if ");
            write_expr(cond, out);
            out.push_str(" {\n");
            write_block(then_block, out, depth + 1);
            indent(out, depth);
            out.push('}');
            if !else_block.is_empty() {
                out.push_str(" else {\n");
                write_block(else_block, out, depth + 1);
                indent(out, depth);
                out.push('}');
            }
            out.push('\n');
        }
        Stmt::Foreach { radius, body } => {
            out.push_str("foreach within (");
            write_expr(radius, out);
            out.push_str(") {\n");
            write_block(body, out, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::While { cond, body } => {
            out.push_str("while ");
            write_expr(cond, out);
            out.push_str(" {\n");
            write_block(body, out, depth + 1);
            indent(out, depth);
            out.push_str("}\n");
        }
        Stmt::Move { dx, dy } => {
            out.push_str("move(");
            write_expr(dx, out);
            out.push_str(", ");
            write_expr(dy, out);
            out.push_str(");\n");
        }
        Stmt::Despawn => out.push_str("despawn;\n"),
        Stmt::Call { script } => out.push_str(&format!("call {script};\n")),
        Stmt::Emit { event } => out.push_str(&format!("emit {event:?};\n")),
    }
}

/// Pretty-print a script body as parseable GSL source.
pub fn to_source(body: &[Stmt]) -> String {
    let mut out = String::new();
    write_block(body, &mut out, 0);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binop_classification() {
        assert!(BinOp::Eq.is_cmp());
        assert!(!BinOp::Add.is_cmp());
        assert!(BinOp::And.is_logic());
        assert!(!BinOp::Lt.is_logic());
    }

    #[test]
    fn builtin_arity() {
        assert_eq!(BuiltinFn::Min.arity(), 2);
        assert_eq!(BuiltinFn::Abs.arity(), 1);
        assert_eq!(BuiltinFn::Clamp.arity(), 3);
    }

    #[test]
    fn pretty_print_shapes() {
        let body = vec![
            Stmt::Let {
                name: "x".into(),
                value: Expr::Bin {
                    op: BinOp::Add,
                    lhs: Box::new(Expr::Num(1.0)),
                    rhs: Box::new(Expr::Comp(Subject::SelfEnt, "hp".into())),
                },
            },
            Stmt::If {
                cond: Expr::Bin {
                    op: BinOp::Lt,
                    lhs: Box::new(Expr::Var("x".into())),
                    rhs: Box::new(Expr::Num(10.0)),
                },
                then_block: vec![Stmt::Despawn],
                else_block: vec![],
            },
        ];
        let src = to_source(&body);
        assert!(src.contains("let x = (1 + self.hp);"));
        assert!(src.contains("if (x < 10) {"));
        assert!(src.contains("despawn;"));
    }
}
