//! Parser: logical statements → structured [`Program`] AST.
//!
//! Parsing proceeds in three stages:
//!
//! 1. [`crate::lexer::logical_lines`] assembles physical lines into
//!    squashed logical statements;
//! 2. each statement is *classified* and parsed into a flat form
//!    (`Flat`) — classification on the squashed text resolves the
//!    classic fixed-form ambiguities (`DO10I=1,10` vs `DO10I=1`,
//!    `REALX=1` vs `REAL X`);
//! 3. a structuring pass nests flat statements into `DO`/`IF` blocks,
//!    including the old-style *shared terminal label* idiom
//!    (`DO 16 J ... DO 16 K ... 16 CONTINUE`) used by the paper's
//!    `filter3d` example.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::lexer::{logical_lines, LogicalLine};
use crate::span::Span;
use crate::token::{tokenize, Token};

/// Parse full Fortran source text into a program plus diagnostics.
pub fn parse(src: &str) -> (Program, Diagnostics) {
    let mut diags = Diagnostics::new();
    let (lines, lex_errors) = logical_lines(src);
    for e in lex_errors {
        diags.error(e.span, e.message);
    }
    let mut flats = Vec::with_capacity(lines.len());
    for line in &lines {
        match classify(line) {
            Ok(f) => flats.push((line.label, line.span, f)),
            Err(msg) => {
                diags.error(line.span, msg);
                flats.push((
                    line.label,
                    line.span,
                    Flat::Stmt(StmtKind::Opaque(line.text.clone())),
                ));
            }
        }
    }
    let mut b = Builder {
        flats,
        pos: 0,
        diags,
        program: Program::default(),
        last_closed_label: None,
        pending_parallel: false,
    };
    b.build_program();
    (b.program, b.diags)
}

/// Convenience: parse and panic on errors (for tests and embedded codes).
pub fn parse_ok(src: &str) -> Program {
    let (p, d) = parse(src);
    assert!(!d.has_errors(), "parse errors:\n{d}");
    p
}

// ---------------------------------------------------------------------------
// Flat statement forms
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Flat {
    Head {
        name: String,
        kind: UnitKind,
        params: Vec<String>,
    },
    End,
    EndDo,
    EndIf,
    Else,
    ElseIf(Expr),
    IfThen(Expr),
    Do {
        term: Option<u32>,
        var: String,
        lo: Expr,
        hi: Expr,
        step: Option<Expr>,
    },
    /// `CDOALL` directive: the next DO is certified parallel.
    Doall,
    Decls(Vec<Decl>),
    Stmt(StmtKind),
}

// ---------------------------------------------------------------------------
// Classification
// ---------------------------------------------------------------------------

fn classify(line: &LogicalLine) -> Result<Flat, String> {
    classify_text(&line.text, &line.strings)
}

fn classify_text(text: &str, strings: &[String]) -> Result<Flat, String> {
    if text.is_empty() {
        return Ok(Flat::Stmt(StmtKind::Continue));
    }
    // IF family first: `IF(` is unambiguous.
    if let Some(rest) = text.strip_prefix("IF(") {
        return classify_if(rest, strings);
    }
    if let Some(rest) = text.strip_prefix("ELSEIF(") {
        let close = matching_paren(rest).ok_or("unbalanced parentheses in ELSE IF")?;
        let cond = parse_expr_str(&rest[..close], strings)?;
        if &rest[close + 1..] != "THEN" {
            return Err("expected THEN after ELSE IF (...)".into());
        }
        return Ok(Flat::ElseIf(cond));
    }
    match text {
        "ELSE" => return Ok(Flat::Else),
        "ENDIF" => return Ok(Flat::EndIf),
        "ENDDO" => return Ok(Flat::EndDo),
        "END" => return Ok(Flat::End),
        "CONTINUE" => return Ok(Flat::Stmt(StmtKind::Continue)),
        "RETURN" => return Ok(Flat::Stmt(StmtKind::Return)),
        "STOP" => return Ok(Flat::Stmt(StmtKind::Stop)),
        "IMPLICITNONE" => return Ok(Flat::Decls(vec![Decl::ImplicitNone])),
        _ => {}
    }
    // `CDOALL` certification directive: marks the next DO parallel. Any
    // trailing commentary (e.g. `-- certified parallel loop`) is ignored.
    if text == "CDOALL" || text.starts_with("CDOALL--") {
        return Ok(Flat::Doall);
    }
    // Assignment: top-level `=` with no top-level `,` after it.
    if let Some(eq) = top_level_eq_no_comma(text) {
        let lhs = parse_lvalue_str(&text[..eq], strings)?;
        let rhs = parse_expr_str(&text[eq + 1..], strings)?;
        return Ok(Flat::Stmt(StmtKind::Assign { lhs, rhs }));
    }
    // Declarations and unit heads with type prefixes. DOUBLEPRECISION
    // must be checked before DO.
    for (kw, ty) in [
        ("DOUBLEPRECISION", Type::DoublePrecision),
        ("INTEGER", Type::Integer),
        ("REAL", Type::Real),
        ("LOGICAL", Type::Logical),
        ("CHARACTER", Type::Character),
    ] {
        if let Some(rest) = text.strip_prefix(kw) {
            if let Some(fn_rest) = rest.strip_prefix("FUNCTION") {
                if let Some(h) = parse_head(fn_rest, UnitKind::Function(ty), strings)? {
                    return Ok(h);
                }
            }
            if !rest.is_empty() {
                return Ok(Flat::Decls(vec![parse_typed_decl(ty, rest, strings)?]));
            }
        }
    }
    if let Some(rest) = text.strip_prefix("DIMENSION") {
        let entities = parse_entity_list(rest, strings)?;
        return Ok(Flat::Decls(vec![Decl::Dimension { entities }]));
    }
    if let Some(rest) = text.strip_prefix("COMMON") {
        return Ok(Flat::Decls(parse_common(rest, strings)?));
    }
    if let Some(rest) = text.strip_prefix("PARAMETER(") {
        let close = matching_paren(rest).ok_or("unbalanced parentheses in PARAMETER")?;
        return Ok(Flat::Decls(vec![parse_parameter(&rest[..close], strings)?]));
    }
    if let Some(rest) = text.strip_prefix("EXTERNAL") {
        let names = rest.split(',').map(|s| s.to_string()).collect();
        return Ok(Flat::Decls(vec![Decl::External { names }]));
    }
    if let Some(rest) = text.strip_prefix("DATA") {
        return Ok(Flat::Decls(vec![parse_data(rest, strings)?]));
    }
    if text.starts_with("IMPLICIT") {
        // Other IMPLICIT forms: ignored (default rules apply anyway).
        return Ok(Flat::Decls(vec![]));
    }
    // DO loop.
    if let Some(rest) = text.strip_prefix("DO") {
        if let Some(d) = try_parse_do(rest, strings)? {
            return Ok(d);
        }
    }
    // Unit heads.
    if let Some(rest) = text.strip_prefix("PROGRAM") {
        return Ok(Flat::Head {
            name: rest.to_string(),
            kind: UnitKind::Program,
            params: Vec::new(),
        });
    }
    if let Some(rest) = text.strip_prefix("SUBROUTINE") {
        if let Some(h) = parse_head(rest, UnitKind::Subroutine, strings)? {
            return Ok(h);
        }
        return Err("malformed SUBROUTINE statement".into());
    }
    if let Some(rest) = text.strip_prefix("FUNCTION") {
        if let Some(h) = parse_head(rest, UnitKind::Function(Type::Real), strings)? {
            return Ok(h);
        }
        return Err("malformed FUNCTION statement".into());
    }
    // GOTO forms.
    if let Some(rest) = text.strip_prefix("GOTO") {
        if let Some(inner) = rest.strip_prefix('(') {
            let close = matching_paren(inner).ok_or("unbalanced parentheses in computed GOTO")?;
            let labels = parse_label_list(&inner[..close])?;
            let idx_text = inner[close + 1..].trim_start_matches(',');
            let index = parse_expr_str(idx_text, strings)?;
            return Ok(Flat::Stmt(StmtKind::ComputedGoto { labels, index }));
        }
        let l: u32 = rest
            .parse()
            .map_err(|_| format!("bad GOTO target '{rest}'"))?;
        return Ok(Flat::Stmt(StmtKind::Goto(l)));
    }
    if let Some(rest) = text.strip_prefix("CALL") {
        return parse_call(rest, strings).map(Flat::Stmt);
    }
    if let Some(rest) = text.strip_prefix("READ") {
        let rest = skip_io_control(rest)?;
        let items = parse_lvalue_list(rest, strings)?;
        return Ok(Flat::Stmt(StmtKind::Read { items }));
    }
    if let Some(rest) = text.strip_prefix("WRITE") {
        let rest = skip_io_control(rest)?;
        let items = if rest.is_empty() {
            Vec::new()
        } else {
            parse_expr_list(rest, strings)?
        };
        return Ok(Flat::Stmt(StmtKind::Write { items }));
    }
    if let Some(rest) = text.strip_prefix("PRINT") {
        let rest = match rest.find(',') {
            Some(c) => &rest[c + 1..],
            None => "",
        };
        let items = if rest.is_empty() {
            Vec::new()
        } else {
            parse_expr_list(rest, strings)?
        };
        return Ok(Flat::Stmt(StmtKind::Write { items }));
    }
    if text.starts_with("FORMAT(") {
        return Ok(Flat::Stmt(StmtKind::Opaque(text.to_string())));
    }
    Err(format!("unrecognized statement '{}'", preview(text)))
}

fn preview(text: &str) -> &str {
    &text[..text.len().min(40)]
}

fn classify_if(rest: &str, strings: &[String]) -> Result<Flat, String> {
    let close = matching_paren(rest).ok_or("unbalanced parentheses in IF")?;
    let cond_text = &rest[..close];
    let tail = &rest[close + 1..];
    if tail == "THEN" {
        return Ok(Flat::IfThen(parse_expr_str(cond_text, strings)?));
    }
    // Arithmetic IF: tail is `l1,l2,l3`.
    if !tail.is_empty() && tail.bytes().all(|b| b.is_ascii_digit() || b == b',') {
        let parts: Vec<&str> = tail.split(',').collect();
        if parts.len() == 3 {
            let expr = parse_expr_str(cond_text, strings)?;
            let l: Vec<u32> = parts
                .iter()
                .map(|p| {
                    p.parse()
                        .map_err(|_| format!("bad arithmetic IF label '{p}'"))
                })
                .collect::<Result<_, _>>()?;
            return Ok(Flat::Stmt(StmtKind::ArithIf {
                expr,
                neg: l[0],
                zero: l[1],
                pos: l[2],
            }));
        }
    }
    // Logical IF: tail is a simple statement.
    let cond = parse_expr_str(cond_text, strings)?;
    match classify_text(tail, strings)? {
        Flat::Stmt(kind) => Ok(Flat::Stmt(StmtKind::LogicalIf {
            cond,
            // Placeholder id; Builder re-assigns ids on materialization.
            then: Box::new(Stmt::new(StmtId(u32::MAX), kind)),
        })),
        _ => Err("logical IF must guard a simple statement".into()),
    }
}

fn parse_head(rest: &str, kind: UnitKind, _strings: &[String]) -> Result<Option<Flat>, String> {
    // rest = NAME or NAME(P1,P2,...)
    let (name, params) = match rest.find('(') {
        Some(p) => {
            let name = &rest[..p];
            let inner = &rest[p + 1..];
            let close = matching_paren(inner).ok_or("unbalanced parentheses in unit head")?;
            let params: Vec<String> = if inner[..close].is_empty() {
                Vec::new()
            } else {
                inner[..close].split(',').map(|s| s.to_string()).collect()
            };
            (name.to_string(), params)
        }
        None => (rest.to_string(), Vec::new()),
    };
    if !is_ident(&name) {
        return Ok(None);
    }
    for p in &params {
        if p.is_empty() || !p.bytes().next().is_some_and(|b| b.is_ascii_alphabetic()) {
            return Err(format!("bad parameter name '{p}'"));
        }
    }
    Ok(Some(Flat::Head { name, kind, params }))
}

/// Try to parse `DO [label] var = lo, hi [, step]`. Returns `Ok(None)` if
/// the text is not a DO statement after all.
fn try_parse_do(rest: &str, strings: &[String]) -> Result<Option<Flat>, String> {
    let bytes = rest.as_bytes();
    let mut i = 0;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let term: Option<u32> = if i > 0 {
        Some(rest[..i].parse().map_err(|_| "bad DO label".to_string())?)
    } else {
        None
    };
    let after = &rest[i..];
    // Need ident '=' expr ',' expr [',' expr] with the `=`/`,` at top level.
    let eq = match top_level_char(after, b'=') {
        Some(e) => e,
        None => return Ok(None),
    };
    let var = &after[..eq];
    if !is_ident(var) {
        return Ok(None);
    }
    let spec = &after[eq + 1..];
    let parts = split_top_level(spec, b',');
    if parts.len() < 2 || parts.len() > 3 {
        return Ok(None);
    }
    let lo = parse_expr_str(parts[0], strings)?;
    let hi = parse_expr_str(parts[1], strings)?;
    let step = if parts.len() == 3 {
        Some(parse_expr_str(parts[2], strings)?)
    } else {
        None
    };
    Ok(Some(Flat::Do {
        term,
        var: var.to_string(),
        lo,
        hi,
        step,
    }))
}

fn parse_call(rest: &str, strings: &[String]) -> Result<StmtKind, String> {
    match rest.find('(') {
        Some(p) => {
            let name = rest[..p].to_string();
            let inner = &rest[p + 1..];
            let close = matching_paren(inner).ok_or("unbalanced parentheses in CALL")?;
            let args = if inner[..close].is_empty() {
                Vec::new()
            } else {
                parse_expr_list(&inner[..close], strings)?
            };
            Ok(StmtKind::Call { name, args })
        }
        None => Ok(StmtKind::Call {
            name: rest.to_string(),
            args: Vec::new(),
        }),
    }
}

/// Skip the `(unit, fmt)` or `*,` control of a READ/WRITE.
fn skip_io_control(rest: &str) -> Result<&str, String> {
    if let Some(inner) = rest.strip_prefix('(') {
        let close = matching_paren(inner).ok_or("unbalanced parentheses in I/O control")?;
        Ok(&inner[close + 1..])
    } else if let Some(r) = rest.strip_prefix('*') {
        Ok(r.strip_prefix(',').unwrap_or(r))
    } else {
        // `READ 100, X` style.
        match rest.find(',') {
            Some(c) => Ok(&rest[c + 1..]),
            None => Ok(""),
        }
    }
}

fn parse_typed_decl(ty: Type, rest: &str, strings: &[String]) -> Result<Decl, String> {
    // CHARACTER*N prefix: skip the length.
    let rest = if ty == Type::Character {
        match rest.strip_prefix('*') {
            Some(r) => r.trim_start_matches(|c: char| c.is_ascii_digit()),
            None => rest,
        }
    } else {
        rest
    };
    let entities = parse_entity_list(rest, strings)?;
    Ok(Decl::Typed { ty, entities })
}

fn parse_entity_list(text: &str, strings: &[String]) -> Result<Vec<Declared>, String> {
    let mut out = Vec::new();
    for part in split_top_level(text, b',') {
        if part.is_empty() {
            continue;
        }
        let (name, dims_text) = match part.find('(') {
            Some(p) => (&part[..p], Some(&part[p + 1..])),
            None => (part, None),
        };
        // Only identifiers: anything else would print as text that no
        // longer reparses (e.g. `COMMON *B/ X` → `COMMON // *B/X`).
        if !is_ident(name) {
            return Err(format!("bad declarator name '{name}'"));
        }
        let mut dims = Vec::new();
        if let Some(inner) = dims_text {
            let close = matching_paren(inner).ok_or("unbalanced parentheses in declarator")?;
            for d in split_top_level(&inner[..close], b',') {
                let pieces = split_top_level(d, b':');
                let dim = match pieces.as_slice() {
                    [u] => DimBound::to_upper(parse_expr_str(u, strings)?),
                    [l, u] => DimBound {
                        lower: parse_expr_str(l, strings)?,
                        upper: parse_expr_str(u, strings)?,
                    },
                    _ => return Err(format!("bad dimension '{d}'")),
                };
                dims.push(dim);
            }
        }
        out.push(Declared {
            name: name.to_string(),
            dims,
        });
    }
    Ok(out)
}

/// A Fortran identifier: a letter, then letters, digits or `_`.
fn is_ident(s: &str) -> bool {
    s.bytes().next().is_some_and(|b| b.is_ascii_alphabetic())
        && s.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

fn parse_common(rest: &str, strings: &[String]) -> Result<Vec<Decl>, String> {
    // COMMON /BLK/ a, b /BLK2/ c  — or blank common: COMMON a, b.
    let mut decls = Vec::new();
    let mut s = rest;
    if !s.starts_with('/') {
        let entities = parse_entity_list(s, strings)?;
        return Ok(vec![Decl::Common {
            block: None,
            entities,
        }]);
    }
    while let Some(r) = s.strip_prefix('/') {
        let end = r.find('/').ok_or("unterminated COMMON block name")?;
        let block = r[..end].to_string();
        let rest2 = &r[end + 1..];
        // Entities extend to the next top-level '/' or end.
        let next_slash = top_level_char(rest2, b'/');
        let (ent_text, remaining) = match next_slash {
            Some(p) => (&rest2[..p], &rest2[p..]),
            None => (rest2, ""),
        };
        let ent_text = ent_text.strip_suffix(',').unwrap_or(ent_text);
        let entities = parse_entity_list(ent_text, strings)?;
        decls.push(Decl::Common {
            block: if block.is_empty() { None } else { Some(block) },
            entities,
        });
        s = remaining;
        if s.is_empty() {
            break;
        }
    }
    Ok(decls)
}

fn parse_parameter(inner: &str, strings: &[String]) -> Result<Decl, String> {
    let mut bindings = Vec::new();
    for part in split_top_level(inner, b',') {
        let eq = top_level_char(part, b'=').ok_or("PARAMETER binding needs '='")?;
        let name = part[..eq].to_string();
        let value = parse_expr_str(&part[eq + 1..], strings)?;
        bindings.push((name, value));
    }
    Ok(Decl::Parameter { bindings })
}

fn parse_data(rest: &str, strings: &[String]) -> Result<Decl, String> {
    // DATA name /value/ [, name /value/]*  — simplified scalar form.
    let mut bindings = Vec::new();
    let mut s = rest;
    loop {
        let slash = s.find('/').ok_or("DATA item needs /value/")?;
        let name = s[..slash].trim_matches(',').to_string();
        let r = &s[slash + 1..];
        let end = r.find('/').ok_or("unterminated DATA value")?;
        let value = parse_expr_str(&r[..end], strings)?;
        bindings.push((name, value));
        s = &r[end + 1..];
        if s.is_empty() {
            break;
        }
    }
    Ok(Decl::Data { bindings })
}

fn parse_label_list(text: &str) -> Result<Vec<u32>, String> {
    text.split(',')
        .map(|p| p.parse().map_err(|_| format!("bad label '{p}'")))
        .collect()
}

// ---------------------------------------------------------------------------
// Text scanning helpers (squashed text; `\x01…\x01` escapes hold digits only)
// ---------------------------------------------------------------------------

/// Index of the matching `)` for an implicit `(` just before `text`.
fn matching_paren(text: &str) -> Option<usize> {
    let mut depth = 1usize;
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Position of the first top-level (paren-depth 0) occurrence of `c`.
fn top_level_char(text: &str, c: u8) -> Option<usize> {
    let mut depth = 0usize;
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            _ if b == c && depth == 0 => return Some(i),
            _ => {}
        }
    }
    None
}

/// Split at top-level occurrences of `c`.
fn split_top_level(text: &str, c: u8) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, b) in text.bytes().enumerate() {
        match b {
            b'(' => depth += 1,
            b')' => depth = depth.saturating_sub(1),
            _ if b == c && depth == 0 => {
                out.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&text[start..]);
    out
}

/// If the text is an assignment (`lhs = rhs` with a top-level `=` and no
/// top-level `,` after it, and `lhs` shaped like a variable or element),
/// return the `=` position. Also rejects relational context (`==` cannot
/// occur; dot-ops contain no `=`).
fn top_level_eq_no_comma(text: &str) -> Option<usize> {
    let eq = top_level_char(text, b'=')?;
    let lhs = &text[..eq];
    if lhs.is_empty() || !lhs.bytes().next().is_some_and(|b| b.is_ascii_alphabetic()) {
        return None;
    }
    // lhs must be IDENT or IDENT(...) exactly.
    let ok_lhs = match lhs.find('(') {
        None => lhs.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
        Some(p) => {
            lhs[..p]
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'_')
                && matching_paren(&lhs[p + 1..])
                    .map(|c| p + 1 + c + 1 == lhs.len())
                    .unwrap_or(false)
        }
    };
    if !ok_lhs {
        return None;
    }
    if top_level_char(&text[eq + 1..], b',').is_some() {
        return None;
    }
    Some(eq)
}

// ---------------------------------------------------------------------------
// Expression parsing (Pratt / precedence climbing)
// ---------------------------------------------------------------------------

/// Parse a complete expression from squashed text.
pub fn parse_expr_str(text: &str, strings: &[String]) -> Result<Expr, String> {
    let toks = tokenize(text, strings)?;
    let mut p = ExprParser { toks, pos: 0 };
    let e = p.expr(0)?;
    if !p.peek().is_eof() {
        return Err(format!("trailing tokens in expression '{text}'"));
    }
    Ok(e)
}

fn parse_expr_list(text: &str, strings: &[String]) -> Result<Vec<Expr>, String> {
    split_top_level(text, b',')
        .into_iter()
        .map(|p| parse_expr_str(p, strings))
        .collect()
}

fn parse_lvalue_str(text: &str, strings: &[String]) -> Result<LValue, String> {
    match parse_expr_str(text, strings)? {
        Expr::Var(n) => Ok(LValue::Var(n)),
        Expr::Index { name, subs } => Ok(LValue::Elem { name, subs }),
        _ => Err(format!("'{text}' is not assignable")),
    }
}

fn parse_lvalue_list(text: &str, strings: &[String]) -> Result<Vec<LValue>, String> {
    split_top_level(text, b',')
        .into_iter()
        .filter(|p| !p.is_empty())
        .map(|p| parse_lvalue_str(p, strings))
        .collect()
}

struct ExprParser {
    toks: Vec<Token>,
    pos: usize,
}

impl ExprParser {
    fn peek(&self) -> &Token {
        self.toks.get(self.pos).unwrap_or(&Token::Eof)
    }

    fn next(&mut self) -> Token {
        let t = self.toks.get(self.pos).cloned().unwrap_or(Token::Eof);
        self.pos += 1;
        t
    }

    fn expect(&mut self, t: &Token) -> Result<(), String> {
        let got = self.next();
        if &got == t {
            Ok(())
        } else {
            Err(format!("expected {t:?}, got {got:?}"))
        }
    }

    /// Precedence-climbing expression parser.
    /// Binding powers: OR=1, AND=2, NOT=3 (prefix), rel=4, +- =5, */ =6,
    /// unary +- =7, ** =8 (right associative).
    fn expr(&mut self, min_bp: u8) -> Result<Expr, String> {
        let mut lhs = self.prefix()?;
        loop {
            let (op, bp, right_assoc) = match self.peek() {
                Token::DotOp(op) => match op.as_str() {
                    "OR" => (BinOp::Or, 1, false),
                    "AND" => (BinOp::And, 2, false),
                    "LT" => (BinOp::Lt, 4, false),
                    "LE" => (BinOp::Le, 4, false),
                    "GT" => (BinOp::Gt, 4, false),
                    "GE" => (BinOp::Ge, 4, false),
                    "EQ" => (BinOp::Eq, 4, false),
                    "NE" => (BinOp::Ne, 4, false),
                    "EQV" => (BinOp::Eq, 1, false),
                    "NEQV" => (BinOp::Ne, 1, false),
                    other => return Err(format!("unknown operator .{other}.")),
                },
                Token::Plus => (BinOp::Add, 5, false),
                Token::Minus => (BinOp::Sub, 5, false),
                Token::Star => (BinOp::Mul, 6, false),
                Token::Slash => (BinOp::Div, 6, false),
                Token::DoubleStar => (BinOp::Pow, 8, true),
                _ => break,
            };
            if bp < min_bp {
                break;
            }
            self.next();
            let next_bp = if right_assoc { bp } else { bp + 1 };
            let rhs = self.expr(next_bp)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn prefix(&mut self) -> Result<Expr, String> {
        match self.next() {
            Token::Int(v) => Ok(Expr::Int(v)),
            Token::Real(v) => Ok(Expr::Real(v)),
            Token::Logical(v) => Ok(Expr::Logical(v)),
            Token::Str(s) => Ok(Expr::Str(s)),
            Token::Minus => {
                let e = self.expr(7)?;
                Ok(Expr::Un {
                    op: UnOp::Neg,
                    e: Box::new(e),
                })
            }
            Token::Plus => {
                let e = self.expr(7)?;
                Ok(Expr::Un {
                    op: UnOp::Plus,
                    e: Box::new(e),
                })
            }
            Token::DotOp(op) if op == "NOT" => {
                let e = self.expr(3)?;
                Ok(Expr::Un {
                    op: UnOp::Not,
                    e: Box::new(e),
                })
            }
            Token::LParen => {
                let e = self.expr(0)?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                if self.peek() == &Token::LParen {
                    self.next();
                    let mut subs = Vec::new();
                    if self.peek() != &Token::RParen {
                        loop {
                            subs.push(self.expr(0)?);
                            match self.next() {
                                Token::Comma => continue,
                                Token::RParen => break,
                                t => return Err(format!("expected ',' or ')', got {t:?}")),
                            }
                        }
                    } else {
                        self.next();
                    }
                    Ok(Expr::Index { name, subs })
                } else {
                    Ok(Expr::Var(name))
                }
            }
            t => Err(format!("unexpected token {t:?} in expression")),
        }
    }
}

// ---------------------------------------------------------------------------
// Structure building
// ---------------------------------------------------------------------------

struct Builder {
    flats: Vec<(Option<u32>, Span, Flat)>,
    pos: usize,
    diags: Diagnostics,
    program: Program,
    /// Set when a labelled-DO body consumed its terminal statement; an
    /// enclosing DO waiting on the same label closes too.
    last_closed_label: Option<u32>,
    /// Set by a `CDOALL` directive; consumed by the next DO statement.
    pending_parallel: bool,
}

/// What terminates the block currently being built.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Close {
    UnitEnd,
    EndDo,
    /// Block-IF arm: stops (without consuming) at ELSE / ELSEIF / ENDIF.
    IfArm,
    /// Labelled DO: stops after consuming the statement with this label.
    Label(u32),
}

impl Builder {
    fn peek(&self) -> Option<&(Option<u32>, Span, Flat)> {
        self.flats.get(self.pos)
    }

    fn build_program(&mut self) {
        while self.pos < self.flats.len() {
            let (_, span, flat) = &self.flats[self.pos];
            let span = *span;
            match flat {
                Flat::Head { name, kind, params } => {
                    let (name, kind, params) = (name.clone(), kind.clone(), params.clone());
                    self.pos += 1;
                    self.build_unit(name, kind, params, span);
                }
                _ => {
                    // Headless statements: implicit main program.
                    self.build_unit("MAIN".to_string(), UnitKind::Program, Vec::new(), span);
                }
            }
        }
    }

    fn build_unit(&mut self, name: String, kind: UnitKind, params: Vec<String>, span: Span) {
        let mut unit = ProcUnit::new(name, kind);
        unit.params = params;
        unit.span = span;
        // Declarations first.
        while let Some((_, _, Flat::Decls(ds))) = self.peek() {
            unit.decls.extend(ds.clone());
            self.pos += 1;
        }
        let body = self.build_block(Close::UnitEnd);
        unit.body = body;
        if let Some(last) = unit.body.last() {
            unit.span = unit.span.merge(last.span);
        }
        // Fortran 77 program-unit names are global and must be unique;
        // every name lookup (call graph, MOD/REF, `Program::unit`) relies
        // on it.
        if self.program.unit(&unit.name).is_some() {
            self.diags
                .error(span, format!("duplicate program unit name {}", unit.name));
        }
        self.program.units.push(unit);
    }

    /// Materialize a statement kind with a fresh id, re-assigning ids of
    /// nested logical-IF targets.
    fn materialize(&mut self, label: Option<u32>, span: Span, kind: StmtKind) -> Stmt {
        let kind = match kind {
            StmtKind::LogicalIf { cond, then } => {
                let inner = self.materialize(None, span, then.kind);
                StmtKind::LogicalIf {
                    cond,
                    then: Box::new(inner),
                }
            }
            k => k,
        };
        let id = self.program.fresh_stmt();
        let mut s = Stmt::new(id, kind).with_span(span);
        s.label = label;
        s
    }

    fn build_block(&mut self, close: Close) -> Vec<Stmt> {
        let mut out = Vec::new();
        loop {
            let Some((label, span, flat)) = self.peek() else {
                if close != Close::UnitEnd {
                    let span = self.flats.last().map(|f| f.1).unwrap_or_default();
                    self.diags
                        .error(span, format!("unexpected end of input (open {close:?})"));
                }
                return out;
            };
            let (label, span) = (*label, *span);
            match flat.clone() {
                Flat::End => {
                    self.pos += 1;
                    if close != Close::UnitEnd {
                        self.diags
                            .error(span, format!("END terminates unit but {close:?} is open"));
                    }
                    return out;
                }
                Flat::Head { .. } => {
                    if close != Close::UnitEnd {
                        self.diags
                            .error(span, "program unit header inside a block".to_string());
                    }
                    // Missing END: close the unit without consuming.
                    return out;
                }
                Flat::EndDo => {
                    self.pos += 1;
                    if close == Close::EndDo {
                        return out;
                    }
                    self.diags
                        .error(span, "END DO without matching DO".to_string());
                }
                Flat::EndIf | Flat::Else | Flat::ElseIf(_) => {
                    if close == Close::IfArm {
                        return out;
                    }
                    self.pos += 1;
                    self.diags
                        .error(span, "ELSE/END IF without matching IF".to_string());
                }
                Flat::IfThen(cond) => {
                    self.pos += 1;
                    let stmt = self.build_if(cond, label, span);
                    out.push(stmt);
                }
                Flat::Doall => {
                    self.pos += 1;
                    match self.peek() {
                        Some((_, _, Flat::Do { .. })) => self.pending_parallel = true,
                        _ => self
                            .diags
                            .warning(span, "CDOALL directive not followed by a DO".to_string()),
                    }
                }
                Flat::Do {
                    term,
                    var,
                    lo,
                    hi,
                    step,
                } => {
                    self.pos += 1;
                    let sched = if std::mem::take(&mut self.pending_parallel) {
                        LoopSched::Parallel
                    } else {
                        LoopSched::Sequential
                    };
                    let inner_close = match term {
                        Some(l) => Close::Label(l),
                        None => Close::EndDo,
                    };
                    self.last_closed_label = None;
                    let body = self.build_block(inner_close);
                    let id = self.program.fresh_stmt();
                    let mut stmt = Stmt::new(
                        id,
                        StmtKind::Do {
                            var,
                            lo,
                            hi,
                            step,
                            body,
                            term_label: term,
                            sched,
                        },
                    )
                    .with_span(span);
                    stmt.label = label;
                    out.push(stmt);
                    // Shared terminal label: if an inner DO consumed the
                    // statement carrying our own close label, close too.
                    if let (Close::Label(l), Some(closed)) = (close, self.last_closed_label) {
                        if closed == l {
                            return out;
                        }
                    }
                }
                Flat::Decls(_) => {
                    self.pos += 1;
                    self.diags
                        .error(span, "declaration after executable statements".to_string());
                }
                Flat::Stmt(kind) => {
                    self.pos += 1;
                    let stmt = self.materialize(label, span, kind);
                    out.push(stmt);
                    if let Close::Label(l) = close {
                        if label == Some(l) {
                            self.last_closed_label = Some(l);
                            return out;
                        }
                    }
                }
            }
        }
    }

    fn build_if(&mut self, cond: Expr, label: Option<u32>, span: Span) -> Stmt {
        let mut arms = vec![(cond, self.build_block(Close::IfArm))];
        let mut else_body = None;
        loop {
            match self.peek().map(|f| f.2.clone()) {
                Some(Flat::ElseIf(c)) => {
                    self.pos += 1;
                    arms.push((c, self.build_block(Close::IfArm)));
                }
                Some(Flat::Else) => {
                    self.pos += 1;
                    else_body = Some(self.build_block(Close::IfArm));
                }
                Some(Flat::EndIf) => {
                    self.pos += 1;
                    break;
                }
                _ => {
                    self.diags.error(span, "unterminated block IF".to_string());
                    break;
                }
            }
        }
        let id = self.program.fresh_stmt();
        let mut s = Stmt::new(id, StmtKind::If { arms, else_body }).with_span(span);
        s.label = label;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_unit(src: &str) -> ProcUnit {
        let p = parse_ok(src);
        assert_eq!(p.units.len(), 1, "expected one unit");
        p.units.into_iter().next().unwrap()
    }

    #[test]
    fn parses_assignment() {
        let u = one_unit("      X = A + B * 2\n      END\n");
        assert_eq!(u.body.len(), 1);
        match &u.body[0].kind {
            StmtKind::Assign { lhs, rhs } => {
                assert_eq!(lhs, &LValue::Var("X".into()));
                assert_eq!(
                    rhs,
                    &Expr::add(Expr::var("A"), Expr::mul(Expr::var("B"), Expr::Int(2)))
                );
            }
            k => panic!("expected assignment, got {k:?}"),
        }
    }

    #[test]
    fn do10i_with_comma_is_do_loop() {
        let u = one_unit("      DO 10 I = 1, 10\n   10 CONTINUE\n      END\n");
        match &u.body[0].kind {
            StmtKind::Do {
                var,
                term_label,
                body,
                ..
            } => {
                assert_eq!(var, "I");
                assert_eq!(*term_label, Some(10));
                assert_eq!(body.len(), 1); // the terminal CONTINUE
            }
            k => panic!("expected DO, got {k:?}"),
        }
    }

    #[test]
    fn do10i_without_comma_is_assignment() {
        let u = one_unit("      DO10I = 1\n      END\n");
        match &u.body[0].kind {
            StmtKind::Assign { lhs, .. } => assert_eq!(lhs.name(), "DO10I"),
            k => panic!("expected assignment, got {k:?}"),
        }
    }

    #[test]
    fn cdoall_directive_marks_next_do_parallel() {
        // Column-1 form (looks like a comment, but is a directive).
        let u = one_unit("CDOALL\n      DO I = 1, N\n         A(I) = 0\n      END DO\n      END\n");
        match &u.body[0].kind {
            StmtKind::Do { sched, .. } => assert_eq!(*sched, LoopSched::Parallel),
            k => panic!("expected DO, got {k:?}"),
        }
        // Indented form with trailing commentary, as the pretty-printer emits.
        let u = one_unit(
            "      CDOALL -- certified parallel loop\n      DO I = 1, N\n         A(I) = 0\n      END DO\n      END\n",
        );
        match &u.body[0].kind {
            StmtKind::Do { sched, .. } => assert_eq!(*sched, LoopSched::Parallel),
            k => panic!("expected DO, got {k:?}"),
        }
    }

    #[test]
    fn cdoall_applies_only_to_next_do() {
        let u = one_unit(
            "CDOALL\n      DO I = 1, N\n         A(I) = 0\n      END DO\n      DO J = 1, N\n         B(J) = 0\n      END DO\n      END\n",
        );
        match (&u.body[0].kind, &u.body[1].kind) {
            (StmtKind::Do { sched: s0, .. }, StmtKind::Do { sched: s1, .. }) => {
                assert_eq!(*s0, LoopSched::Parallel);
                assert_eq!(*s1, LoopSched::Sequential);
            }
            _ => panic!("expected two DOs"),
        }
    }

    #[test]
    fn parallel_schedule_round_trips_through_print() {
        let src = "      DO I = 1, N\n         A(I) = 0\n      END DO\n      END\n";
        let mut p = parse_ok(src);
        match &mut p.units[0].body[0].kind {
            StmtKind::Do { sched, .. } => *sched = LoopSched::Parallel,
            _ => panic!("expected DO"),
        }
        let printed = crate::pretty::print_program(&p);
        let p2 = parse_ok(&printed);
        match &p2.units[0].body[0].kind {
            StmtKind::Do { sched, .. } => assert_eq!(*sched, LoopSched::Parallel),
            k => panic!("expected DO after round-trip, got {k:?}"),
        }
    }

    #[test]
    fn enddo_form() {
        let u = one_unit("      DO I = 1, N\n         A(I) = 0\n      END DO\n      END\n");
        match &u.body[0].kind {
            StmtKind::Do {
                var,
                term_label,
                body,
                ..
            } => {
                assert_eq!(var, "I");
                assert_eq!(*term_label, None);
                assert_eq!(body.len(), 1);
            }
            k => panic!("expected DO, got {k:?}"),
        }
    }

    #[test]
    fn nested_do_with_shared_terminal_label() {
        // The paper's filter3d idiom: two DOs closed by one `16 CONTINUE`.
        let src = "      DO 16 J = 1, JM\n      DO 16 K = 2, KM\n      A(J,K) = 0\n   16 CONTINUE\n      END\n";
        let u = one_unit(src);
        assert_eq!(u.body.len(), 1);
        match &u.body[0].kind {
            StmtKind::Do { var, body, .. } => {
                assert_eq!(var, "J");
                assert_eq!(body.len(), 1);
                match &body[0].kind {
                    StmtKind::Do { var, body, .. } => {
                        assert_eq!(var, "K");
                        // assignment + terminal CONTINUE
                        assert_eq!(body.len(), 2);
                        assert_eq!(body[1].label, Some(16));
                    }
                    k => panic!("expected inner DO, got {k:?}"),
                }
            }
            k => panic!("expected outer DO, got {k:?}"),
        }
    }

    #[test]
    fn block_if_with_else() {
        let src = "      IF (X .GT. 0) THEN\n         Y = 1\n      ELSE\n         Y = 2\n      END IF\n      END\n";
        let u = one_unit(src);
        match &u.body[0].kind {
            StmtKind::If { arms, else_body } => {
                assert_eq!(arms.len(), 1);
                assert_eq!(arms[0].1.len(), 1);
                assert_eq!(else_body.as_ref().unwrap().len(), 1);
            }
            k => panic!("expected IF, got {k:?}"),
        }
    }

    #[test]
    fn elseif_chain() {
        let src = "      IF (X.LT.0) THEN\n        Y=1\n      ELSE IF (X.EQ.0) THEN\n        Y=2\n      ELSE\n        Y=3\n      ENDIF\n      END\n";
        let u = one_unit(src);
        match &u.body[0].kind {
            StmtKind::If { arms, else_body } => {
                assert_eq!(arms.len(), 2);
                assert!(else_body.is_some());
            }
            k => panic!("expected IF, got {k:?}"),
        }
    }

    #[test]
    fn arithmetic_if() {
        let src = "      IF (DENV(K) - RES(NR+1)) 100, 10, 10\n      END\n";
        let u = one_unit(src);
        match &u.body[0].kind {
            StmtKind::ArithIf { neg, zero, pos, .. } => {
                assert_eq!((*neg, *zero, *pos), (100, 10, 10));
            }
            k => panic!("expected arithmetic IF, got {k:?}"),
        }
    }

    #[test]
    fn logical_if() {
        let src = "      IF (A .GT. B) GOTO 100\n  100 CONTINUE\n      END\n";
        let u = one_unit(src);
        match &u.body[0].kind {
            StmtKind::LogicalIf { then, .. } => {
                assert!(matches!(then.kind, StmtKind::Goto(100)));
            }
            k => panic!("expected logical IF, got {k:?}"),
        }
    }

    #[test]
    fn computed_goto() {
        let src = "      GOTO (10, 20, 30) K\n   10 CONTINUE\n   20 CONTINUE\n   30 CONTINUE\n      END\n";
        let u = one_unit(src);
        match &u.body[0].kind {
            StmtKind::ComputedGoto { labels, .. } => assert_eq!(labels, &vec![10, 20, 30]),
            k => panic!("expected computed GOTO, got {k:?}"),
        }
    }

    #[test]
    fn subroutine_with_params_and_decls() {
        let src = "      SUBROUTINE SAXPY(N, A, X, Y)\n      INTEGER N\n      REAL A, X(N), Y(N)\n      DO 10 I = 1, N\n      Y(I) = Y(I) + A * X(I)\n   10 CONTINUE\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let u = p.unit("SAXPY").unwrap();
        assert_eq!(u.kind, UnitKind::Subroutine);
        assert_eq!(u.params, ["N", "A", "X", "Y"]);
        assert_eq!(u.decls.len(), 2);
        match &u.decls[1] {
            Decl::Typed {
                ty: Type::Real,
                entities,
            } => {
                assert_eq!(entities.len(), 3);
                assert_eq!(entities[1].name, "X");
                assert_eq!(entities[1].dims.len(), 1);
            }
            d => panic!("expected REAL decl, got {d:?}"),
        }
    }

    #[test]
    fn function_with_type_prefix() {
        let src = "      REAL FUNCTION NORM(X, N)\n      REAL X(N)\n      NORM = 0.0\n      RETURN\n      END\n";
        let p = parse_ok(src);
        let u = p.unit("NORM").unwrap();
        assert_eq!(u.kind, UnitKind::Function(Type::Real));
    }

    #[test]
    fn common_blocks() {
        let src = "      COMMON /GRID/ NX, NY, H(100)\n      X = 1\n      END\n";
        let u = one_unit(src);
        match &u.decls[0] {
            Decl::Common { block, entities } => {
                assert_eq!(block.as_deref(), Some("GRID"));
                assert_eq!(entities.len(), 3);
                assert_eq!(entities[2].dims.len(), 1);
            }
            d => panic!("expected COMMON, got {d:?}"),
        }
    }

    #[test]
    fn non_identifier_declarator_is_a_parse_error() {
        // As a name, `*DIMS/X` would print as `COMMON // *DIMS/X`,
        // which does not reparse.
        let (_, d) = parse("      COMMON *DIMS/ X\n      END\n");
        assert!(d.has_errors());
        let (_, d) = parse("      REAL A, 2B\n      END\n");
        assert!(d.has_errors());
    }

    #[test]
    fn parameter_and_data() {
        let src = "      PARAMETER (N = 100, M = 2*N)\n      DATA X /1.5/, I /3/\n      Y = X\n      END\n";
        let u = one_unit(src);
        match &u.decls[0] {
            Decl::Parameter { bindings } => {
                assert_eq!(bindings.len(), 2);
                assert_eq!(bindings[0].0, "N");
            }
            d => panic!("expected PARAMETER, got {d:?}"),
        }
        match &u.decls[1] {
            Decl::Data { bindings } => assert_eq!(bindings.len(), 2),
            d => panic!("expected DATA, got {d:?}"),
        }
    }

    #[test]
    fn real_assignment_to_realx_variable() {
        // `REALX = 1.0` assigns to the variable REALX (not a REAL decl).
        let u = one_unit("      REALX = 1.0\n      END\n");
        match &u.body[0].kind {
            StmtKind::Assign { lhs, .. } => assert_eq!(lhs.name(), "REALX"),
            k => panic!("expected assignment, got {k:?}"),
        }
    }

    #[test]
    fn double_precision_decl_not_do() {
        let u = one_unit("      DOUBLE PRECISION COEFF(10,10)\n      X = 1\n      END\n");
        match &u.decls[0] {
            Decl::Typed {
                ty: Type::DoublePrecision,
                entities,
            } => {
                assert_eq!(entities[0].name, "COEFF");
                assert_eq!(entities[0].dims.len(), 2);
            }
            d => panic!("expected DOUBLE PRECISION, got {d:?}"),
        }
    }

    #[test]
    fn array_bounds_with_lower() {
        let u = one_unit("      REAL A(0:9, -1:1)\n      X = 1\n      END\n");
        match &u.decls[0] {
            Decl::Typed { entities, .. } => {
                let dims = &entities[0].dims;
                assert_eq!(dims[0].lower, Expr::Int(0));
                assert_eq!(dims[0].upper, Expr::Int(9));
                assert_eq!(
                    dims[1].lower,
                    Expr::Un {
                        op: UnOp::Neg,
                        e: Box::new(Expr::Int(1))
                    }
                );
            }
            d => panic!("{d:?}"),
        }
    }

    #[test]
    fn read_write_statements() {
        let src =
            "      READ (5,*) N, A(1)\n      WRITE (6,*) N + 1\n      PRINT *, N\n      END\n";
        let u = one_unit(src);
        assert!(matches!(&u.body[0].kind, StmtKind::Read { items } if items.len() == 2));
        assert!(matches!(&u.body[1].kind, StmtKind::Write { items } if items.len() == 1));
        assert!(matches!(&u.body[2].kind, StmtKind::Write { items } if items.len() == 1));
    }

    #[test]
    fn call_with_and_without_args() {
        let src = "      CALL INIT\n      CALL SAXPY(N, 2.0, X, Y)\n      END\n";
        let u = one_unit(src);
        assert!(
            matches!(&u.body[0].kind, StmtKind::Call { name, args } if name == "INIT" && args.is_empty())
        );
        assert!(
            matches!(&u.body[1].kind, StmtKind::Call { name, args } if name == "SAXPY" && args.len() == 4)
        );
    }

    #[test]
    fn power_is_right_associative() {
        let e = parse_expr_str("2**3**2", &[]).unwrap();
        // 2 ** (3 ** 2) = 512
        assert_eq!(e.as_int(), Some(512));
    }

    #[test]
    fn precedence_and_or_not() {
        let e = parse_expr_str("A.OR.B.AND..NOT.C", &[]).unwrap();
        match e {
            Expr::Bin {
                op: BinOp::Or, r, ..
            } => match *r {
                Expr::Bin {
                    op: BinOp::And, r, ..
                } => {
                    assert!(matches!(*r, Expr::Un { op: UnOp::Not, .. }));
                }
                other => panic!("expected AND on rhs, got {other:?}"),
            },
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn unary_minus_binds_tighter_than_mul_operand() {
        let e = parse_expr_str("-A*B", &[]).unwrap();
        // Fortran parses -A*B as -(A*B); we parse as (-A)*B which is
        // numerically identical for * — acceptable dialect deviation for /.
        // Just ensure it parses.
        assert!(matches!(e, Expr::Bin { .. } | Expr::Un { .. }));
    }

    #[test]
    fn multiple_units() {
        let src = "      PROGRAM MAIN\n      CALL SUB\n      END\n      SUBROUTINE SUB\n      RETURN\n      END\n";
        let p = parse_ok(src);
        assert_eq!(p.units.len(), 2);
        assert_eq!(p.units[0].kind, UnitKind::Program);
        assert_eq!(p.units[1].kind, UnitKind::Subroutine);
    }

    #[test]
    fn implicit_main_without_program_statement() {
        let p = parse_ok("      X = 1\n      END\n");
        assert_eq!(p.units[0].name, "MAIN");
        assert_eq!(p.units[0].kind, UnitKind::Program);
    }

    #[test]
    fn statement_ids_are_unique() {
        let src = "      DO 10 I = 1, 10\n      A(I) = I\n   10 CONTINUE\n      X = 1\n      END\n";
        let p = parse_ok(src);
        let mut ids = Vec::new();
        walk_stmts(&p.units[0].body, &mut |s| ids.push(s.id));
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn duplicate_unit_name_is_a_parse_error() {
        let src = "      PROGRAM P\n      REAL A(100)\n      CALL S(A)\n      END\n      SUBROUTINE S(A)\n      REAL A(100)\n      A(1) = 0.0\n      END\n      SUBROUTINE s(A)\n      REAL A(100)\n      A(2) = A(1)\n      END\n";
        let (p, d) = parse(src);
        assert_eq!(p.units.len(), 3);
        let errors: Vec<_> = d.errors().collect();
        assert_eq!(errors.len(), 1, "{d}");
        assert!(errors[0].message.contains("duplicate program unit name"));
        assert_eq!(errors[0].span.start, 9);
    }

    #[test]
    fn unclosed_do_reports_error() {
        let (_, d) = parse("      DO 10 I = 1, 10\n      X = 1\n      END\n");
        assert!(d.has_errors());
    }

    #[test]
    fn mismatched_endif_reports_error() {
        let (_, d) = parse("      ENDIF\n      END\n");
        assert!(d.has_errors());
    }

    #[test]
    fn do_with_step() {
        let u = one_unit("      DO 10 I = 1, 100, 2\n   10 CONTINUE\n      END\n");
        match &u.body[0].kind {
            StmtKind::Do { step, .. } => assert_eq!(step, &Some(Expr::Int(2))),
            k => panic!("expected DO, got {k:?}"),
        }
    }

    #[test]
    fn paper_pueblo3d_fragment_parses() {
        let src = "      DO 300 I = ISTRT(IR), IENDV(IR)\n      X = UF(I + MCN, 3)\n      UF(I, M) = X\n  300 CONTINUE\n      END\n";
        let u = one_unit(src);
        match &u.body[0].kind {
            StmtKind::Do { lo, hi, .. } => {
                assert_eq!(lo, &Expr::idx("ISTRT", vec![Expr::var("IR")]));
                assert_eq!(hi, &Expr::idx("IENDV", vec![Expr::var("IR")]));
            }
            k => panic!("expected DO, got {k:?}"),
        }
    }

    #[test]
    fn spans_recorded() {
        let p = parse_ok("      X = 1\n      Y = 2\n      END\n");
        assert_eq!(p.units[0].body[0].span, Span::line(1));
        assert_eq!(p.units[0].body[1].span, Span::line(2));
    }
}
