//! Pretty printer: AST → fixed-form Fortran text.
//!
//! PED displays programs "in pretty-printed form" (§3.1): labels in
//! columns 1–5, statements from column 7, nested blocks indented. The
//! printer is the inverse of the parser up to formatting — `parse ∘ print`
//! is the identity on the AST (checked by property tests) — and is used
//! both by the editor's source pane and to materialize transformed
//! programs.

use crate::ast::*;

/// Print a whole program.
pub fn print_program(p: &Program) -> String {
    let mut out = String::new();
    for (i, u) in p.units.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_unit(u, &mut out);
    }
    out
}

/// Print one program unit.
pub fn print_unit(u: &ProcUnit, out: &mut String) {
    let head = match &u.kind {
        UnitKind::Program => format!("PROGRAM {}", u.name),
        UnitKind::Subroutine => {
            if u.params.is_empty() {
                format!("SUBROUTINE {}", u.name)
            } else {
                format!("SUBROUTINE {}({})", u.name, u.params.join(", "))
            }
        }
        UnitKind::Function(ty) => {
            format!("{} FUNCTION {}({})", ty, u.name, u.params.join(", "))
        }
    };
    push_line(out, None, 0, &head);
    for d in &u.decls {
        print_decl(d, out);
    }
    print_block(&u.body, 0, out);
    push_line(out, None, 0, "END");
}

fn print_decl(d: &Decl, out: &mut String) {
    match d {
        Decl::ImplicitNone => push_line(out, None, 0, "IMPLICIT NONE"),
        Decl::Typed { ty, entities } => {
            push_line(out, None, 0, &format!("{} {}", ty, entity_list(entities)))
        }
        Decl::Dimension { entities } => push_line(
            out,
            None,
            0,
            &format!("DIMENSION {}", entity_list(entities)),
        ),
        Decl::Common { block, entities } => {
            let b = match block {
                Some(n) => format!("/{n}/ "),
                None => "// ".to_string(),
            };
            push_line(
                out,
                None,
                0,
                &format!("COMMON {}{}", b, entity_list(entities)),
            );
        }
        Decl::Parameter { bindings } => {
            let bs: Vec<String> = bindings
                .iter()
                .map(|(n, v)| format!("{n} = {}", print_expr(v)))
                .collect();
            push_line(out, None, 0, &format!("PARAMETER ({})", bs.join(", ")));
        }
        Decl::External { names } => {
            push_line(out, None, 0, &format!("EXTERNAL {}", names.join(", ")))
        }
        Decl::Data { bindings } => {
            let bs: Vec<String> = bindings
                .iter()
                .map(|(n, v)| format!("{n} /{}/", print_expr(v)))
                .collect();
            push_line(out, None, 0, &format!("DATA {}", bs.join(", ")));
        }
    }
}

fn entity_list(entities: &[Declared]) -> String {
    entities
        .iter()
        .map(|e| {
            if e.dims.is_empty() {
                e.name.clone()
            } else {
                let ds: Vec<String> = e.dims.iter().map(print_dim).collect();
                format!("{}({})", e.name, ds.join(", "))
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn print_dim(d: &DimBound) -> String {
    if d.lower == Expr::Int(1) {
        print_expr(&d.upper)
    } else {
        format!("{}:{}", print_expr(&d.lower), print_expr(&d.upper))
    }
}

/// Print a statement block at the given indent depth.
pub fn print_block(body: &[Stmt], depth: usize, out: &mut String) {
    for s in body {
        print_stmt(s, depth, out);
    }
}

fn print_stmt(s: &Stmt, depth: usize, out: &mut String) {
    match &s.kind {
        StmtKind::Assign { lhs, rhs } => push_line(
            out,
            s.label,
            depth,
            &format!("{} = {}", print_lvalue(lhs), print_expr(rhs)),
        ),
        StmtKind::Do {
            var,
            lo,
            hi,
            step,
            body,
            term_label,
            sched,
        } => {
            if *sched == LoopSched::Parallel {
                push_line(out, None, depth, "CDOALL -- certified parallel loop");
            }
            let mut head = match term_label {
                Some(l) => format!("DO {l} {var} = "),
                None => format!("DO {var} = "),
            };
            head.push_str(&print_expr(lo));
            head.push_str(", ");
            head.push_str(&print_expr(hi));
            if let Some(st) = step {
                head.push_str(", ");
                head.push_str(&print_expr(st));
            }
            push_line(out, s.label, depth, &head);
            print_block(body, depth + 1, out);
            if term_label.is_none() {
                push_line(out, None, depth, "END DO");
            }
        }
        StmtKind::If { arms, else_body } => {
            for (i, (cond, body)) in arms.iter().enumerate() {
                let kw = if i == 0 { "IF" } else { "ELSE IF" };
                push_line(
                    out,
                    if i == 0 { s.label } else { None },
                    depth,
                    &format!("{kw} ({}) THEN", print_expr(cond)),
                );
                print_block(body, depth + 1, out);
            }
            if let Some(e) = else_body {
                push_line(out, None, depth, "ELSE");
                print_block(e, depth + 1, out);
            }
            push_line(out, None, depth, "END IF");
        }
        StmtKind::LogicalIf { cond, then } => {
            let mut inner = String::new();
            print_stmt(then, 0, &mut inner);
            // Strip margin from the printed inner statement.
            let inner = inner.trim_start_matches(' ').trim_end();
            push_line(
                out,
                s.label,
                depth,
                &format!("IF ({}) {}", print_expr(cond), inner),
            );
        }
        StmtKind::ArithIf {
            expr,
            neg,
            zero,
            pos,
        } => push_line(
            out,
            s.label,
            depth,
            &format!("IF ({}) {neg}, {zero}, {pos}", print_expr(expr)),
        ),
        StmtKind::Goto(l) => push_line(out, s.label, depth, &format!("GOTO {l}")),
        StmtKind::ComputedGoto { labels, index } => {
            let ls: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
            push_line(
                out,
                s.label,
                depth,
                &format!("GOTO ({}) {}", ls.join(", "), print_expr(index)),
            );
        }
        StmtKind::Continue => push_line(out, s.label, depth, "CONTINUE"),
        StmtKind::Call { name, args } => {
            if args.is_empty() {
                push_line(out, s.label, depth, &format!("CALL {name}"));
            } else {
                let a: Vec<String> = args.iter().map(print_expr).collect();
                push_line(
                    out,
                    s.label,
                    depth,
                    &format!("CALL {name}({})", a.join(", ")),
                );
            }
        }
        StmtKind::Return => push_line(out, s.label, depth, "RETURN"),
        StmtKind::Stop => push_line(out, s.label, depth, "STOP"),
        StmtKind::Read { items } => {
            let a: Vec<String> = items.iter().map(print_lvalue).collect();
            push_line(out, s.label, depth, &format!("READ (*,*) {}", a.join(", ")));
        }
        StmtKind::Write { items } => {
            let a: Vec<String> = items.iter().map(print_expr).collect();
            push_line(
                out,
                s.label,
                depth,
                &format!("WRITE (*,*) {}", a.join(", ")),
            );
        }
        StmtKind::Opaque(text) => push_line(out, s.label, depth, text),
    }
}

fn push_line(out: &mut String, label: Option<u32>, depth: usize, text: &str) {
    match label {
        Some(l) => {
            let ls = l.to_string();
            // Right-align in columns 1-5.
            for _ in ls.len()..5 {
                out.push(' ');
            }
            out.push_str(&ls);
            out.push(' ');
        }
        None => out.push_str("      "),
    }
    for _ in 0..depth {
        out.push_str("   ");
    }
    out.push_str(text);
    out.push('\n');
}

/// Print an lvalue.
pub fn print_lvalue(lv: &LValue) -> String {
    match lv {
        LValue::Var(n) => n.clone(),
        LValue::Elem { name, subs } => {
            let s: Vec<String> = subs.iter().map(print_expr).collect();
            format!("{name}({})", s.join(", "))
        }
    }
}

/// Print an expression with minimal parentheses.
pub fn print_expr(e: &Expr) -> String {
    print_prec(e, 0)
}

fn prec_of(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => 4,
        BinOp::Add | BinOp::Sub => 5,
        BinOp::Mul | BinOp::Div => 6,
        BinOp::Pow => 8,
    }
}

fn print_prec(e: &Expr, min: u8) -> String {
    match e {
        Expr::Int(v) => v.to_string(),
        Expr::Real(v) => {
            let s = format!("{v}");
            if s.contains('.') || s.contains('e') || s.contains('E') || s.contains("inf") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Expr::Logical(true) => ".TRUE.".into(),
        Expr::Logical(false) => ".FALSE.".into(),
        Expr::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Expr::Var(n) => n.clone(),
        Expr::Index { name, subs } => {
            let s: Vec<String> = subs.iter().map(|x| print_prec(x, 0)).collect();
            format!("{name}({})", s.join(", "))
        }
        Expr::Call { name, args } => {
            let s: Vec<String> = args.iter().map(|x| print_prec(x, 0)).collect();
            format!("{name}({})", s.join(", "))
        }
        Expr::Bin { op, l, r } => {
            let p = prec_of(*op);
            let (lp, rp) = match op {
                BinOp::Pow => (p + 1, p), // right associative
                BinOp::Sub | BinOp::Div => (p, p + 1),
                _ => (p, p + 1),
            };
            let sep = match op {
                o if o.is_arith() => {
                    if *op == BinOp::Pow {
                        format!("{op}")
                    } else {
                        format!(" {op} ")
                    }
                }
                _ => format!(" {op} "),
            };
            let s = format!("{}{}{}", print_prec(l, lp), sep, print_prec(r, rp));
            if p < min {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Un { op, e } => {
            let s = match op {
                UnOp::Neg => format!("-{}", print_prec(e, 7)),
                UnOp::Plus => format!("+{}", print_prec(e, 7)),
                UnOp::Not => format!(".NOT. {}", print_prec(e, 3)),
            };
            if min > 6 {
                format!("({s})")
            } else {
                s
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr_str, parse_ok};

    fn roundtrip_expr(text: &str) {
        let e1 = parse_expr_str(text, &[]).unwrap();
        let printed = print_expr(&e1);
        let squashed: String = printed.chars().filter(|c| *c != ' ').collect();
        let e2 = parse_expr_str(&squashed, &[]).unwrap();
        assert_eq!(e1, e2, "roundtrip failed for '{text}' -> '{printed}'");
    }

    #[test]
    fn expr_roundtrips() {
        for t in [
            "A+B*C",
            "(A+B)*C",
            "A-B-C",
            "A/(B*C)",
            "2**3**2",
            "-A+B",
            "A(I,J)+B(I+1)",
            "X.GT.0.AND.Y.LT.1",
            ".NOT.(A.OR.B)",
            "A-(B-C)",
            "A/B/C",
        ] {
            roundtrip_expr(t);
        }
    }

    #[test]
    fn program_roundtrips() {
        let src = "      SUBROUTINE SAXPY(N, A, X, Y)\n      INTEGER N\n      REAL A, X(N), Y(N)\n      DO 10 I = 1, N\n      Y(I) = Y(I) + A * X(I)\n   10 CONTINUE\n      RETURN\n      END\n";
        let p1 = parse_ok(src);
        let printed = print_program(&p1);
        let p2 = parse_ok(&printed);
        // Compare structure via re-print (ids differ).
        assert_eq!(printed, print_program(&p2));
    }

    #[test]
    fn common_lists_roundtrip() {
        let src = "      COMMON A, B(10)\n      COMMON /GRID/ NX, H(0:9) /AUX/ T\n      X = 1\n      END\n";
        let printed = print_program(&parse_ok(src));
        assert!(printed.contains("      COMMON // A, B(10)\n"), "{printed}");
        assert!(
            printed.contains("      COMMON /GRID/ NX, H(0:9)\n"),
            "{printed}"
        );
        assert!(printed.contains("      COMMON /AUX/ T\n"), "{printed}");
        assert_eq!(printed, print_program(&parse_ok(&printed)));
    }

    #[test]
    fn labels_right_aligned() {
        let src = "   10 CONTINUE\n      END\n";
        let p = parse_ok(src);
        let printed = print_program(&p);
        assert!(printed.contains("   10 CONTINUE"), "{printed}");
    }

    #[test]
    fn do_loop_indents_body() {
        let src = "      DO I = 1, N\n      A(I) = 0\n      END DO\n      END\n";
        let p = parse_ok(src);
        let printed = print_program(&p);
        assert!(printed.contains("      DO I = 1, N"), "{printed}");
        assert!(printed.contains("         A(I) = 0"), "{printed}");
        assert!(printed.contains("      END DO"), "{printed}");
    }

    #[test]
    fn block_if_roundtrip() {
        let src = "      IF (X .GT. 0) THEN\n      Y = 1\n      ELSE IF (X .EQ. 0) THEN\n      Y = 2\n      ELSE\n      Y = 3\n      END IF\n      END\n";
        let p1 = parse_ok(src);
        let printed = print_program(&p1);
        let p2 = parse_ok(&printed);
        assert_eq!(printed, print_program(&p2));
    }

    #[test]
    fn parallel_loop_gets_doall_marker() {
        let src = "      DO I = 1, N\n      A(I) = 0\n      END DO\n      END\n";
        let mut p = parse_ok(src);
        if let StmtKind::Do { sched, .. } = &mut p.units[0].body[0].kind {
            *sched = LoopSched::Parallel;
        }
        let printed = print_program(&p);
        assert!(printed.contains("CDOALL"), "{printed}");
    }

    #[test]
    fn logical_if_prints_inline() {
        let src = "      IF (A .GT. B) GOTO 100\n  100 CONTINUE\n      END\n";
        let p = parse_ok(src);
        let printed = print_program(&p);
        assert!(printed.contains("IF (A .GT. B) GOTO 100"), "{printed}");
    }

    #[test]
    fn string_quotes_escaped() {
        let e = Expr::Str("don't".into());
        assert_eq!(print_expr(&e), "'don''t'");
    }

    #[test]
    fn real_literal_always_has_decimal() {
        assert_eq!(print_expr(&Expr::Real(3.0)), "3.0");
        assert_eq!(print_expr(&Expr::Real(0.25)), "0.25");
    }

    #[test]
    fn subtraction_parenthesizes_rhs() {
        // A - (B - C) must not print as A - B - C.
        let e = Expr::sub(Expr::var("A"), Expr::sub(Expr::var("B"), Expr::var("C")));
        assert_eq!(print_expr(&e), "A - (B - C)");
    }
}
