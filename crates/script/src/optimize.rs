//! AST optimizer: the declarative rewrites of \[11\] as compiler passes.
//!
//! The paper's performance section argues that designer scripts should be
//! *processed like queries*. This module applies the classic pipeline:
//!
//! 1. **Constant folding** — literal arithmetic, comparisons, logical
//!    identities, pure builtins (`min`/`max`/`abs`/`clamp`), and the
//!    interpreter's ÷0 → 0 rule.
//! 2. **Algebraic simplification** — `x+0`, `x*1`, `x*0`, `0-x`, double
//!    negation, `true && e`, `false || e`, …
//! 3. **Dead code elimination** — `if` with a constant condition inlines
//!    a branch; `while false` disappears; `let`s whose variable is never
//!    read are dropped (expressions are pure, so this is sound).
//! 4. **Foreach-to-aggregate rewriting** — the headline pass:
//!    `foreach within (r) { self.x += e; }` becomes
//!    `self.x += sum(r; e);`, and
//!    `foreach within (r) { if c { self.x += 1; } }` becomes
//!    `self.x += count(r; c);`. The rewritten form is exactly what the
//!    restricted language level accepts and what the VM evaluates
//!    through the spatial index, one probe per entity — so the optimizer
//!    mechanically performs the rewrite the paper says studios forced
//!    their designers to do by hand.
//!
//! Passes run to a fixpoint. Semantics are preserved for well-typed
//! scripts up to floating-point association (aggregate sums accumulate in
//! the same candidate order the loop would) and latent runtime errors in
//! code the optimizer removes (an unread `let x = count(5);` can no
//! longer raise a missing-position error — standard dead-code caveat).

use std::collections::HashSet;

use crate::ast::{AggKind, AssignOp, BinOp, BuiltinFn, Expr, Script, Stmt, Subject};

/// What the optimizer did, for reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Expressions replaced by simpler ones (folds + identities).
    pub folded: usize,
    /// Statements removed or branch-inlined.
    pub dead_stmts: usize,
    /// `foreach` loops rewritten into aggregates.
    pub foreach_rewrites: usize,
    /// Unread `let`/variable assignments removed.
    pub lets_removed: usize,
}

impl OptStats {
    fn total(&self) -> usize {
        self.folded + self.dead_stmts + self.foreach_rewrites + self.lets_removed
    }
}

/// Optimize a script, returning the rewritten script and pass statistics.
pub fn optimize(script: &Script) -> (Script, OptStats) {
    let mut stats = OptStats::default();
    let mut body = script.body.clone();
    // Fixpoint: each round may expose more work (folding a condition
    // enables DCE, DCE removes the last read of a let, …). Rounds are
    // bounded because every pass strictly shrinks or simplifies.
    for _ in 0..16 {
        let before = stats;
        body = opt_block(body, &mut stats);
        body = remove_unread_lets(body, &mut stats);
        if stats.total() == before.total() {
            break;
        }
    }
    (
        Script {
            name: script.name.clone(),
            body,
        },
        stats,
    )
}

// ---------------------------------------------------------------------
// expressions
// ---------------------------------------------------------------------

fn num(e: &Expr) -> Option<f64> {
    match e {
        Expr::Num(n) => Some(*n),
        _ => None,
    }
}

fn boolean(e: &Expr) -> Option<bool> {
    match e {
        Expr::Bool(b) => Some(*b),
        _ => None,
    }
}

fn opt_expr(e: Expr, stats: &mut OptStats) -> Expr {
    match e {
        Expr::Unary { neg, not, inner } => {
            let inner = opt_expr(*inner, stats);
            match (&inner, neg, not) {
                (_, false, false) => {
                    stats.folded += 1;
                    inner
                }
                (Expr::Num(n), true, false) => {
                    stats.folded += 1;
                    Expr::Num(-n)
                }
                (Expr::Bool(b), false, true) => {
                    stats.folded += 1;
                    Expr::Bool(!b)
                }
                // !!e and -(-e) cancel
                (Expr::Unary { neg: n2, not: t2, inner: i2 }, _, _)
                    if (*n2, *t2) == (neg, not) =>
                {
                    stats.folded += 1;
                    (**i2).clone()
                }
                _ => Expr::Unary { neg, not, inner: Box::new(inner) },
            }
        }
        Expr::Bin { op, lhs, rhs } => {
            let lhs = opt_expr(*lhs, stats);
            let rhs = opt_expr(*rhs, stats);
            fold_bin(op, lhs, rhs, stats)
        }
        Expr::Builtin { name, args } => {
            let args: Vec<Expr> = args.into_iter().map(|a| opt_expr(a, stats)).collect();
            let nums: Option<Vec<f64>> = args.iter().map(num).collect();
            if let Some(v) = nums {
                stats.folded += 1;
                return Expr::Num(match name {
                    BuiltinFn::Min => v[0].min(v[1]),
                    BuiltinFn::Max => v[0].max(v[1]),
                    BuiltinFn::Abs => v[0].abs(),
                    BuiltinFn::Clamp => v[0].clamp(v[1].min(v[2]), v[2].max(v[1])),
                });
            }
            Expr::Builtin { name, args }
        }
        Expr::Agg { kind, radius, arg, filter } => Expr::Agg {
            kind,
            radius: Box::new(opt_expr(*radius, stats)),
            arg: arg.map(|a| Box::new(opt_expr(*a, stats))),
            filter: match filter.map(|f| opt_expr(*f, stats)) {
                // a constant-true filter is no filter
                Some(Expr::Bool(true)) => {
                    stats.folded += 1;
                    None
                }
                other => other.map(Box::new),
            },
        },
        Expr::NearestDist { radius } => Expr::NearestDist {
            radius: Box::new(opt_expr(*radius, stats)),
        },
        leaf => leaf,
    }
}

// float-literal patterns are disallowed; comparisons in guards are the
// idiomatic way to match 0.0/1.0 here
#[allow(clippy::redundant_guards)]
fn fold_bin(op: BinOp, lhs: Expr, rhs: Expr, stats: &mut OptStats) -> Expr {
    // constant ⊕ constant
    if let (Some(a), Some(b)) = (num(&lhs), num(&rhs)) {
        let v = match op {
            BinOp::Add => Some(a + b),
            BinOp::Sub => Some(a - b),
            BinOp::Mul => Some(a * b),
            // the interpreter defines ÷0 and %0 as 0 (scripts never
            // crash the server), so folding them is faithful
            BinOp::Div => Some(if b == 0.0 { 0.0 } else { a / b }),
            BinOp::Rem => Some(if b == 0.0 { 0.0 } else { a % b }),
            _ => None,
        };
        if let Some(v) = v {
            stats.folded += 1;
            return Expr::Num(v);
        }
        if op.is_cmp() {
            stats.folded += 1;
            return Expr::Bool(match op {
                BinOp::Eq => a == b,
                BinOp::Ne => a != b,
                BinOp::Lt => a < b,
                BinOp::Le => a <= b,
                BinOp::Gt => a > b,
                BinOp::Ge => a >= b,
                _ => unreachable!(),
            });
        }
    }
    if let (Some(a), Some(b)) = (boolean(&lhs), boolean(&rhs)) {
        stats.folded += 1;
        return Expr::Bool(match op {
            BinOp::And => a && b,
            BinOp::Or => a || b,
            BinOp::Eq => a == b,
            BinOp::Ne => a != b,
            _ => a & b, // other ops on bools are rejected by the checker
        });
    }
    // logical identities (expressions are pure, so dropping one side of a
    // short-circuit preserves the value)
    match (op, boolean(&lhs), boolean(&rhs)) {
        (BinOp::And, Some(true), _) | (BinOp::Or, Some(false), _) => {
            stats.folded += 1;
            return rhs;
        }
        (BinOp::And, Some(false), _) => {
            stats.folded += 1;
            return Expr::Bool(false);
        }
        (BinOp::Or, Some(true), _) => {
            stats.folded += 1;
            return Expr::Bool(true);
        }
        (BinOp::And, _, Some(true)) | (BinOp::Or, _, Some(false)) => {
            stats.folded += 1;
            return lhs;
        }
        (BinOp::And, _, Some(false)) => {
            stats.folded += 1;
            return Expr::Bool(false);
        }
        (BinOp::Or, _, Some(true)) => {
            stats.folded += 1;
            return Expr::Bool(true);
        }
        _ => {}
    }
    // arithmetic identities (exact for the finite component values the
    // engine stores; scripts cannot produce NaN — ÷0 is defined as 0)
    match (op, num(&lhs), num(&rhs)) {
        (BinOp::Add, Some(z), _) if z == 0.0 => {
            stats.folded += 1;
            return rhs;
        }
        (BinOp::Add, _, Some(z)) | (BinOp::Sub, _, Some(z)) if z == 0.0 => {
            stats.folded += 1;
            return lhs;
        }
        (BinOp::Sub, Some(z), _) if z == 0.0 => {
            stats.folded += 1;
            return Expr::Unary { neg: true, not: false, inner: Box::new(rhs) };
        }
        (BinOp::Mul, Some(o), _) if o == 1.0 => {
            stats.folded += 1;
            return rhs;
        }
        (BinOp::Mul, _, Some(o)) | (BinOp::Div, _, Some(o)) if o == 1.0 => {
            stats.folded += 1;
            return lhs;
        }
        (BinOp::Mul, Some(z), _) | (BinOp::Mul, _, Some(z)) if z == 0.0 => {
            stats.folded += 1;
            return Expr::Num(0.0);
        }
        _ => {}
    }
    Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

// ---------------------------------------------------------------------
// statements
// ---------------------------------------------------------------------

fn opt_block(block: Vec<Stmt>, stats: &mut OptStats) -> Vec<Stmt> {
    block
        .into_iter()
        .flat_map(|s| opt_stmt(s, stats))
        .collect()
}

/// Optimize one statement. Returns a list because inlining a constant
/// `if` splices its branch into the surrounding block. (Splicing hoists
/// the branch's `let`s into the parent scope; GSL locals shadow by stack
/// order, so this is observation-equivalent for well-formed scripts.)
fn opt_stmt(s: Stmt, stats: &mut OptStats) -> Vec<Stmt> {
    match s {
        Stmt::Let { name, value } => vec![Stmt::Let { name, value: opt_expr(value, stats) }],
        Stmt::AssignVar { name, value } => {
            vec![Stmt::AssignVar { name, value: opt_expr(value, stats) }]
        }
        Stmt::AssignComp { subject, component, op, value } => vec![Stmt::AssignComp {
            subject,
            component,
            op,
            value: opt_expr(value, stats),
        }],
        Stmt::If { cond, then_block, else_block } => {
            let cond = opt_expr(cond, stats);
            let then_block = opt_block(then_block, stats);
            let else_block = opt_block(else_block, stats);
            match boolean(&cond) {
                Some(true) => {
                    stats.dead_stmts += 1;
                    then_block
                }
                Some(false) => {
                    stats.dead_stmts += 1;
                    else_block
                }
                None => {
                    if then_block.is_empty() && else_block.is_empty() {
                        stats.dead_stmts += 1;
                        return vec![];
                    }
                    vec![Stmt::If { cond, then_block, else_block }]
                }
            }
        }
        Stmt::Foreach { radius, body } => {
            let radius = opt_expr(radius, stats);
            let body = opt_block(body, stats);
            if body.is_empty() {
                stats.dead_stmts += 1;
                return vec![];
            }
            if let Some(rewritten) = rewrite_foreach(&radius, &body) {
                stats.foreach_rewrites += 1;
                return vec![rewritten];
            }
            vec![Stmt::Foreach { radius, body }]
        }
        Stmt::While { cond, body } => {
            let cond = opt_expr(cond, stats);
            if boolean(&cond) == Some(false) {
                stats.dead_stmts += 1;
                return vec![];
            }
            vec![Stmt::While { cond, body: opt_block(body, stats) }]
        }
        Stmt::Move { dx, dy } => {
            let dx = opt_expr(dx, stats);
            let dy = opt_expr(dy, stats);
            if num(&dx) == Some(0.0) && num(&dy) == Some(0.0) {
                stats.dead_stmts += 1;
                return vec![];
            }
            vec![Stmt::Move { dx, dy }]
        }
        other => vec![other],
    }
}

/// The foreach-to-aggregate pass.
///
/// `foreach within (r) { self.c ⊕= e; }`            → `self.c ⊕= sum(r; e);`
/// `foreach within (r) { if f { self.c ⊕= e; } }`   → `self.c ⊕= sum(r; e; f);`
/// `foreach within (r) { if f { self.c += 1; } }`   → `self.c += count(r; f);`
///
/// Sound because `+=`/`-=` emit commutative `Add` effects against the
/// tick-start snapshot: per-neighbor adds and one summed add apply
/// identically. The body must write only `self` (writing `other` or
/// moving/despawning has per-iteration effects an aggregate cannot
/// express), and locals must not be declared inside the loop.
fn rewrite_foreach(radius: &Expr, body: &[Stmt]) -> Option<Stmt> {
    let (filter, inner) = match body {
        [Stmt::If { cond, then_block, else_block }] if else_block.is_empty() => {
            (Some(cond.clone()), then_block.as_slice())
        }
        _ => (None, body),
    };
    let [Stmt::AssignComp { subject: Subject::SelfEnt, component, op, value }] = inner else {
        return None;
    };
    if !matches!(op, AssignOp::Add | AssignOp::Sub) {
        return None;
    }
    let agg = if num(value) == Some(1.0) {
        Expr::Agg {
            kind: AggKind::Count,
            radius: Box::new(radius.clone()),
            arg: None,
            filter: filter.map(Box::new),
        }
    } else {
        Expr::Agg {
            kind: AggKind::Sum,
            radius: Box::new(radius.clone()),
            arg: Some(Box::new(value.clone())),
            filter: filter.map(Box::new),
        }
    };
    Some(Stmt::AssignComp {
        subject: Subject::SelfEnt,
        component: component.clone(),
        op: *op,
        value: agg,
    })
}

// ---------------------------------------------------------------------
// unread-let elimination
// ---------------------------------------------------------------------

fn collect_reads_expr(e: &Expr, out: &mut HashSet<String>) {
    match e {
        Expr::Var(name) => {
            out.insert(name.clone());
        }
        Expr::Unary { inner, .. } => collect_reads_expr(inner, out),
        Expr::Bin { lhs, rhs, .. } => {
            collect_reads_expr(lhs, out);
            collect_reads_expr(rhs, out);
        }
        Expr::Builtin { args, .. } => {
            for a in args {
                collect_reads_expr(a, out);
            }
        }
        Expr::Agg { radius, arg, filter, .. } => {
            collect_reads_expr(radius, out);
            if let Some(a) = arg {
                collect_reads_expr(a, out);
            }
            if let Some(f) = filter {
                collect_reads_expr(f, out);
            }
        }
        Expr::NearestDist { radius } => collect_reads_expr(radius, out),
        _ => {}
    }
}

fn collect_reads_block(block: &[Stmt], out: &mut HashSet<String>) {
    for s in block {
        match s {
            Stmt::Let { value, .. }
            | Stmt::AssignVar { value, .. }
            | Stmt::AssignComp { value, .. } => collect_reads_expr(value, out),
            Stmt::If { cond, then_block, else_block } => {
                collect_reads_expr(cond, out);
                collect_reads_block(then_block, out);
                collect_reads_block(else_block, out);
            }
            Stmt::Foreach { radius, body } => {
                collect_reads_expr(radius, out);
                collect_reads_block(body, out);
            }
            Stmt::While { cond, body } => {
                collect_reads_expr(cond, out);
                collect_reads_block(body, out);
            }
            Stmt::Move { dx, dy } => {
                collect_reads_expr(dx, out);
                collect_reads_expr(dy, out);
            }
            Stmt::Despawn | Stmt::Call { .. } | Stmt::Emit { .. } => {}
        }
    }
}

/// Remove `let`s (and reassignments) of variables never read anywhere in
/// the body. Conservative under shadowing: one read of the name keeps
/// every binding of it. Expressions are pure, so dropped initializers
/// cannot change state.
fn remove_unread_lets(body: Vec<Stmt>, stats: &mut OptStats) -> Vec<Stmt> {
    let mut reads = HashSet::new();
    collect_reads_block(&body, &mut reads);
    strip_unread(body, &reads, stats)
}

fn strip_unread(block: Vec<Stmt>, reads: &HashSet<String>, stats: &mut OptStats) -> Vec<Stmt> {
    block
        .into_iter()
        .filter_map(|s| match s {
            Stmt::Let { ref name, .. } | Stmt::AssignVar { ref name, .. }
                if !reads.contains(name) =>
            {
                stats.lets_removed += 1;
                None
            }
            Stmt::If { cond, then_block, else_block } => Some(Stmt::If {
                cond,
                then_block: strip_unread(then_block, reads, stats),
                else_block: strip_unread(else_block, reads, stats),
            }),
            Stmt::Foreach { radius, body } => Some(Stmt::Foreach {
                radius,
                body: strip_unread(body, reads, stats),
            }),
            Stmt::While { cond, body } => Some(Stmt::While {
                cond,
                body: strip_unread(body, reads, stats),
            }),
            other => Some(other),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_script;

    fn opt(src: &str) -> (Script, OptStats) {
        let script = parse_script("t", src).expect("test script parses");
        optimize(&script)
    }

    fn opt_src(src: &str) -> String {
        let (s, _) = opt(src);
        crate::ast::to_source(&s.body)
    }

    #[test]
    fn folds_literal_arithmetic() {
        assert_eq!(opt_src("self.hp += 2 * 3 + 4;"), "self.hp += 10;\n");
        assert_eq!(opt_src("self.hp += 7 / 2;"), "self.hp += 3.5;\n");
    }

    #[test]
    fn folds_div_by_zero_like_the_interpreter() {
        assert_eq!(opt_src("self.hp += 5 / 0;"), "self.hp += 0;\n");
        assert_eq!(opt_src("self.hp += 5 % 0;"), "self.hp += 0;\n");
    }

    #[test]
    fn folds_comparisons_and_logic() {
        assert_eq!(opt_src("if 3 < 4 { self.hp += 1; }"), "self.hp += 1;\n");
        assert_eq!(opt_src("if 3 > 4 { self.hp += 1; }"), "");
        assert_eq!(
            opt_src("if 1 < 2 && self.hp > 0 { self.hp += 1; }"),
            "if (self.hp > 0) {\n  self.hp += 1;\n}\n"
        );
    }

    #[test]
    fn folds_builtins() {
        assert_eq!(opt_src("self.hp += min(3, 8);"), "self.hp += 3;\n");
        assert_eq!(opt_src("self.hp += clamp(12, 0, 10);"), "self.hp += 10;\n");
        assert_eq!(opt_src("self.hp += abs(0 - 4);"), "self.hp += 4;\n");
    }

    #[test]
    fn arithmetic_identities() {
        assert_eq!(opt_src("self.hp += self.dmg * 1;"), "self.hp += self.dmg;\n");
        assert_eq!(opt_src("self.hp += self.dmg + 0;"), "self.hp += self.dmg;\n");
        assert_eq!(opt_src("self.hp += self.dmg * 0;"), "self.hp += 0;\n");
        assert_eq!(opt_src("self.hp += 0 - self.dmg;"), "self.hp += -(self.dmg);\n");
    }

    #[test]
    fn logic_identities() {
        assert_eq!(
            opt_src("if true && self.alive { self.hp += 1; }"),
            "if self.alive {\n  self.hp += 1;\n}\n"
        );
        assert_eq!(opt_src("if false && self.alive { self.hp += 1; }"), "");
        assert_eq!(opt_src("if self.alive || true { self.hp += 1; }"), "self.hp += 1;\n");
    }

    #[test]
    fn removes_while_false_and_empty_if() {
        assert_eq!(opt_src("while false { self.hp += 1; }"), "");
        assert_eq!(opt_src("if self.hp > 0 { }"), "");
    }

    #[test]
    fn inlines_constant_if_with_multiple_stmts() {
        let out = opt_src("if 1 < 2 { self.hp += 1; self.hp += 2; }");
        assert_eq!(out, "self.hp += 1;\nself.hp += 2;\n");
    }

    #[test]
    fn constant_false_keeps_else() {
        assert_eq!(
            opt_src("if 2 < 1 { self.hp += 1; } else { self.hp += 9; }"),
            "self.hp += 9;\n"
        );
    }

    #[test]
    fn removes_unread_lets() {
        let (s, stats) = opt("let a = 5; let b = a + 1; self.hp += 2;");
        assert_eq!(crate::ast::to_source(&s.body), "self.hp += 2;\n");
        // b is unread → removed; that frees a → removed next round
        assert_eq!(stats.lets_removed, 2);
    }

    #[test]
    fn keeps_read_lets() {
        let out = opt_src("let a = self.dmg; self.hp -= a;");
        assert!(out.contains("let a = self.dmg;"));
        assert!(out.contains("self.hp -= a;"));
    }

    #[test]
    fn rewrites_foreach_sum() {
        let out = opt_src("foreach within (8) { self.hp -= other.dmg; }");
        assert_eq!(out, "self.hp -= sum(8; other.dmg);\n");
    }

    #[test]
    fn rewrites_foreach_filtered_sum() {
        let out = opt_src(
            "foreach within (8) { if other.team != self.team { self.threat += other.dmg; } }",
        );
        assert_eq!(
            out,
            "self.threat += sum(8; other.dmg; (other.team != self.team));\n"
        );
    }

    #[test]
    fn rewrites_foreach_count() {
        let out = opt_src("foreach within (5) { if other.hp > 0 { self.seen += 1; } }");
        assert_eq!(out, "self.seen += count(5; (other.hp > 0));\n");
    }

    #[test]
    fn leaves_other_writing_foreach_alone() {
        let src = "foreach within (4) { other.hp -= 1; }";
        let out = opt_src(src);
        assert!(out.contains("foreach within (4)"), "{out}");
    }

    #[test]
    fn leaves_multi_statement_foreach_alone() {
        let out = opt_src("foreach within (4) { self.hp -= 1; self.threat += other.dmg; }");
        assert!(out.contains("foreach within (4)"), "{out}");
    }

    #[test]
    fn drops_empty_foreach() {
        assert_eq!(opt_src("foreach within (4) { }"), "");
    }

    #[test]
    fn drops_zero_move_keeps_real_move() {
        assert_eq!(opt_src("move(0, 0);"), "");
        assert_eq!(opt_src("move(1 + 1, 0);"), "move(2, 0);\n");
    }

    #[test]
    fn constant_true_filter_is_dropped() {
        let out = opt_src("self.seen += count(5; 1 < 2);");
        assert_eq!(out, "self.seen += count(5);\n");
    }

    #[test]
    fn fixpoint_chains_passes() {
        // folding the condition exposes the foreach rewrite underneath
        let out = opt_src(
            "if 1 < 2 { foreach within (6) { self.hp -= other.dmg * 1; } } else { self.hp += 99; }",
        );
        assert_eq!(out, "self.hp -= sum(6; other.dmg);\n");
    }

    #[test]
    fn stats_report_work() {
        let (_, stats) = opt("self.hp += 1 + 1; while false { self.hp += 1; } let q = 3;");
        assert!(stats.folded >= 1);
        assert!(stats.dead_stmts >= 1);
        assert_eq!(stats.lets_removed, 1);
        assert_eq!(stats.foreach_rewrites, 0);
    }

    #[test]
    fn optimizing_twice_is_idempotent() {
        let (once, _) = opt("foreach within (8) { self.hp -= other.dmg; } self.hp += 0 + 1;");
        let (twice, stats2) = optimize(&once);
        assert_eq!(once, twice);
        assert_eq!(stats2.total(), 0);
    }

    #[test]
    fn double_negation_cancels() {
        assert_eq!(opt_src("self.hp += -(-(self.dmg));"), "self.hp += self.dmg;\n");
        assert_eq!(
            opt_src("if !(!(self.alive)) { self.hp += 1; }"),
            "if self.alive {\n  self.hp += 1;\n}\n"
        );
    }
}
