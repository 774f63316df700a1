//! The NIR diagnostics engine: stable warning codes over dataflow facts.
//!
//! Three warnings, in the spirit of CM-Fortran front-end diagnostics:
//!
//! * **`W-RACE`** — a parallel assignment whose read set overlaps its own
//!   write set through a shift or section; two masked writes of one
//!   `MOVE` with provably overlapping masks touching the same section;
//!   read/write overlap across the iterations of a parallel `DO`; or two
//!   `CONCURRENTLY` arms that do not commute.
//! * **`W-UNINIT`** — a *scalar* read along some path with no reaching
//!   definition. Array reads are exempt: the evaluator zero-initialises
//!   fields and partial (masked/sectioned) writes would otherwise flag
//!   every stencil prologue.
//! * **`W-DEADSTORE`** — a store never read before the next kill or the
//!   end of the program (scope exits keep declared variables observable).
//!
//! The linter runs on the *lowered, untransformed* program (the
//! `Executable::nir` stage), so its rules may assume lowering's canonical
//! forms and need not anticipate transformation output.

use std::collections::BTreeSet;
use std::fmt;

use f90y_nir::deps::{Access, RwSets};
use f90y_nir::imp::{LValue, MoveClause};
use f90y_nir::shape::DomainEnv;
use f90y_nir::value::FieldAction;
use f90y_nir::{Ident, Imp, Shape, UnOp, Value};
use f90y_obs::Telemetry;

use crate::index::StmtIndex;
use crate::liveness::Liveness;
use crate::reaching::ReachingFacts;

/// Stable warning codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WarnCode {
    /// Overlapping reads and writes in a parallel construct.
    Race,
    /// Possible read with no reaching definition.
    Uninit,
    /// Store whose value is never read.
    DeadStore,
    /// Halo wider than 1 on an array/axis that also has a 1-wide plan.
    WideHalo,
    /// A duplicate shift the middle end could not merge.
    RedundantComm,
    /// Transpose-shaped (all-to-all) communication on a mesh topology.
    AllToAll,
}

impl WarnCode {
    /// The stable code string (`W-RACE`, `W-UNINIT`, `W-DEADSTORE`,
    /// `W-WIDE-HALO`, `W-REDUNDANT-COMM`, `W-ALLTOALL`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            WarnCode::Race => "W-RACE",
            WarnCode::Uninit => "W-UNINIT",
            WarnCode::DeadStore => "W-DEADSTORE",
            WarnCode::WideHalo => "W-WIDE-HALO",
            WarnCode::RedundantComm => "W-REDUNDANT-COMM",
            WarnCode::AllToAll => "W-ALLTOALL",
        }
    }
}

impl fmt::Display for WarnCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic produced by the linter.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable warning code.
    pub code: WarnCode,
    /// The variable the warning is about.
    pub var: Ident,
    /// Human-readable explanation.
    pub message: String,
    /// Pretty-printed offending statement (first line), when available.
    pub stmt: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "warning[{}]: {}", self.code, self.message)?;
        if let Some(stmt) = &self.stmt {
            write!(f, "\n  --> {stmt}")?;
        }
        Ok(())
    }
}

/// The result of linting one program.
pub struct LintReport {
    /// Diagnostics in program order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of NIR statements analysed.
    pub stmts_analyzed: usize,
    /// Number of dataflow facts computed.
    pub facts: usize,
}

impl LintReport {
    /// `true` when no diagnostic was produced.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// How many diagnostics carry the given code.
    #[must_use]
    pub fn count_of(&self, code: WarnCode) -> usize {
        self.diagnostics.iter().filter(|d| d.code == code).count()
    }
}

/// Lint a lowered NIR program.
#[must_use]
pub fn lint(root: &Imp) -> LintReport {
    let mut tel = Telemetry::disabled();
    lint_with(root, &mut tel)
}

/// Lint with telemetry: an `analysis.lint` span and `analysis.*`
/// counters (statements, facts, warnings by code).
#[must_use]
pub fn lint_with(root: &Imp, tel: &mut Telemetry) -> LintReport {
    tel.scope("analysis.lint", |tel| {
        let index = StmtIndex::of(root);
        let reaching = ReachingFacts::compute(root, &index);
        let liveness = Liveness::of(root, &index);
        let mut found: Vec<(usize, Diagnostic)> = Vec::new();

        for (stmt, var) in &reaching.uninit_uses {
            if !reaching.scalars.contains(var) {
                // Arrays are zero-initialised by the language model, so
                // a plain never-written array read stays exempt. The
                // weak-update case is different: when *every* reaching
                // write is masked, the elements the masks never covered
                // are read as silent zeros — flag whole-array reads in
                // that state.
                if masked_only_whole_array_read(&reaching, &index, *stmt, var) {
                    found.push((
                        *stmt,
                        Diagnostic {
                            code: WarnCode::Uninit,
                            var: var.clone(),
                            message: format!(
                                "whole array '{var}' is read although every write that can \
                                 reach it is masked; elements no mask covered are silently zero"
                            ),
                            stmt: Some(pretty_stmt(index.node(*stmt))),
                        },
                    ));
                }
                continue;
            }
            found.push((
                *stmt,
                Diagnostic {
                    code: WarnCode::Uninit,
                    var: var.clone(),
                    message: format!("scalar '{var}' may be read before it is ever assigned"),
                    stmt: Some(pretty_stmt(index.node(*stmt))),
                },
            ));
        }

        for d in &liveness.dead_stores {
            found.push((
                d.stmt,
                Diagnostic {
                    code: WarnCode::DeadStore,
                    var: d.var.clone(),
                    message: format!(
                        "value stored to '{}' is never read before it is overwritten or goes out of scope",
                        d.var
                    ),
                    stmt: Some(pretty_stmt(index.node(d.stmt))),
                },
            ));
        }

        let mut races = RaceScan {
            index: &index,
            domains: Vec::new(),
            found: &mut found,
        };
        races.scan(root);

        found.sort_by_key(|(stmt, d)| (*stmt, d.code, d.var.clone()));
        let diagnostics: Vec<Diagnostic> = found.into_iter().map(|(_, d)| d).collect();

        let facts = reaching.fact_count + liveness.fact_count;
        tel.count("analysis.stmts", index.len() as u64);
        tel.count("analysis.facts", facts as u64);
        for code in [
            WarnCode::Race,
            WarnCode::Uninit,
            WarnCode::DeadStore,
            WarnCode::WideHalo,
            WarnCode::RedundantComm,
            WarnCode::AllToAll,
        ] {
            let n = diagnostics.iter().filter(|d| d.code == code).count();
            if n > 0 {
                tel.count(&format!("analysis.warnings.{code}"), n as u64);
            }
        }

        LintReport {
            diagnostics,
            stmts_analyzed: index.len(),
            facts,
        }
    })
}

/// The weak-update test behind the array `W-UNINIT` rule: at `stmt`,
/// `var` is read whole (`everywhere`) while its reaching definitions
/// are non-empty, still maybe-uninitialised, and *all masked* — no
/// unmasked write (not even a sectioned or subscripted one) and no
/// initializer can reach the read.
fn masked_only_whole_array_read(
    reaching: &ReachingFacts,
    index: &StmtIndex<'_>,
    stmt: usize,
    var: &str,
) -> bool {
    let Some(state) = reaching.state_at(stmt, var) else {
        return false;
    };
    if state.defs.is_empty() || !state.maybe_uninit {
        return false;
    }
    let all_masked = state.defs.iter().all(|(sid, ci)| match index.node(*sid) {
        Imp::Move(clauses) => clauses.get(*ci).is_some_and(|c| !c.is_unmasked()),
        // A WITH_DECL initializer is a strong definition.
        _ => false,
    });
    if !all_masked {
        return false;
    }
    let Imp::Move(clauses) = index.node(stmt) else {
        return false;
    };
    let mut whole_read = false;
    let mut check = |v: &Value| {
        v.walk(&mut |x| {
            if matches!(x, Value::AVar(id, FieldAction::Everywhere) if id == var) {
                whole_read = true;
            }
        });
    };
    for c in clauses {
        check(&c.mask);
        check(&c.src);
    }
    whole_read
}

/// First line of the statement's pretty form, truncated for display.
fn pretty_stmt(stmt: &Imp) -> String {
    let text = stmt.to_string();
    let first = text.lines().next().unwrap_or("").trim_end();
    if first.chars().count() > 96 {
        let head: String = first.chars().take(93).collect();
        format!("{head}...")
    } else {
        first.to_string()
    }
}

/// The write access of one clause's destination.
fn write_access(c: &MoveClause) -> Access {
    match &c.dst {
        LValue::SVar(_) => Access::Whole,
        LValue::AVar(_, fa) => Access::of_field_action(fa),
    }
}

/// Collect `(ident, access, shift_depth)` for every variable read in `v`,
/// where `shift_depth` counts enclosing `cshift`/`eoshift` calls.
fn shift_reads<'v>(v: &'v Value, depth: usize, out: &mut Vec<(&'v Ident, Access, usize)>) {
    match v {
        Value::SVar(id) => out.push((id, Access::Whole, depth)),
        Value::AVar(id, fa) => {
            out.push((id, Access::of_field_action(fa), depth));
            if let FieldAction::Subscript(ixs) = fa {
                for ix in ixs {
                    shift_reads(ix, depth, out);
                }
            }
        }
        Value::Unary(_, a) => shift_reads(a, depth, out),
        Value::Binary(_, a, b) => {
            shift_reads(a, depth, out);
            shift_reads(b, depth, out);
        }
        Value::FcnCall(name, args) => {
            let d = if name == "cshift" || name == "eoshift" {
                depth + 1
            } else {
                depth
            };
            for (_, a) in args {
                shift_reads(a, d, out);
            }
        }
        _ => {}
    }
}

/// `true` when one mask is the syntactic logical negation of the other
/// (the canonical `WHERE`/`ELSEWHERE` lowering).
fn complementary_masks(a: &Value, b: &Value) -> bool {
    matches!(a, Value::Unary(UnOp::Not, inner) if **inner == *b)
        || matches!(b, Value::Unary(UnOp::Not, inner) if **inner == *a)
}

struct RaceScan<'a, 'f> {
    index: &'a StmtIndex<'a>,
    domains: Vec<(Ident, Shape)>,
    found: &'f mut Vec<(usize, Diagnostic)>,
}

impl RaceScan<'_, '_> {
    fn domain_env(&self) -> DomainEnv {
        self.domains.iter().cloned().collect()
    }

    fn report(&mut self, stmt: usize, var: &str, message: String) {
        self.found.push((
            stmt,
            Diagnostic {
                code: WarnCode::Race,
                var: var.to_string(),
                message,
                stmt: Some(pretty_stmt(self.index.node(stmt))),
            },
        ));
    }

    fn scan(&mut self, imp: &Imp) {
        match imp {
            Imp::Skip => {}
            Imp::Program(b) => self.scan(b),
            Imp::Sequentially(xs) => {
                for x in xs {
                    self.scan(x);
                }
            }
            Imp::Concurrently(xs) => {
                let id = self.index.id(imp);
                for i in 0..xs.len() {
                    for j in i + 1..xs.len() {
                        if !f90y_nir::deps::commutes(&xs[i], &xs[j]) {
                            if let Some(var) = conflict_var(&xs[i], &xs[j]) {
                                self.report(
                                    id,
                                    &var,
                                    format!(
                                        "CONCURRENTLY arms conflict on '{var}': they do not commute"
                                    ),
                                );
                            }
                        }
                    }
                }
                for x in xs {
                    self.scan(x);
                }
            }
            Imp::Move(clauses) => {
                let id = self.index.id(imp);
                self.scan_move(id, clauses);
            }
            Imp::IfThenElse(_, t, e) => {
                self.scan(t);
                self.scan(e);
            }
            Imp::While(_, b) => self.scan(b),
            Imp::Do(_, shape, b) => {
                let parallel = shape
                    .resolve(&self.domain_env())
                    .map(|s| s.is_parallel() && s.size() > 1)
                    .unwrap_or(false);
                if parallel {
                    self.scan_parallel_do(imp, b);
                }
                self.scan(b);
            }
            Imp::WithDecl(_, b) => self.scan(b),
            Imp::WithDomain(name, shape, b) => {
                let resolved = shape
                    .resolve(&self.domain_env())
                    .unwrap_or_else(|_| shape.clone());
                self.domains.push((name.clone(), resolved));
                self.scan(b);
                self.domains.pop();
            }
        }
    }

    /// Rules over one `MOVE`: self-overlap of a single clause (through a
    /// shift or a section) and overlapping masked writes across clauses.
    fn scan_move(&mut self, id: usize, clauses: &[MoveClause]) {
        for c in clauses {
            let LValue::AVar(x, _) = &c.dst else { continue };
            let w = write_access(c);
            let mut reads = Vec::new();
            shift_reads(&c.src, 0, &mut reads);
            shift_reads(&c.mask, 0, &mut reads);
            let mut shifted = false;
            let mut sectioned = false;
            for (rid, racc, depth) in &reads {
                if *rid != x || !racc.overlaps(&w) {
                    continue;
                }
                if *depth > 0 {
                    shifted = true;
                } else if let (Access::Section(r), Access::Section(ws)) = (racc, &w) {
                    // An identical aligned section (a(odd) = a(odd) + 1)
                    // is elementwise and safe; a shifted one races.
                    if *r != *ws {
                        sectioned = true;
                    }
                }
            }
            if shifted {
                self.report(
                    id,
                    x,
                    format!(
                        "parallel assignment to '{x}' reads '{x}' through a communication \
                         shift that overlaps its own write"
                    ),
                );
            }
            if sectioned {
                self.report(
                    id,
                    x,
                    format!(
                        "parallel assignment to a section of '{x}' reads an overlapping, \
                         misaligned section of '{x}'"
                    ),
                );
            }
        }
        // Overlapping masked writes across clauses of one MOVE.
        for i in 0..clauses.len() {
            for j in i + 1..clauses.len() {
                let (a, b) = (&clauses[i], &clauses[j]);
                if a.dst.ident() != b.dst.ident() {
                    continue;
                }
                let x = a.dst.ident();
                if !write_access(a).overlaps(&write_access(b)) {
                    continue;
                }
                if complementary_masks(&a.mask, &b.mask) {
                    continue;
                }
                let provably_same = a.mask == b.mask; // covers both-unmasked
                if provably_same {
                    self.report(
                        id,
                        x,
                        format!(
                            "two masked writes to '{x}' in one MOVE have provably \
                             overlapping masks and overlapping sections"
                        ),
                    );
                }
            }
        }
    }

    /// Rule over a parallel `DO`: a variable both read and written across
    /// iterations races unless every access uses one identical subscript.
    fn scan_parallel_do(&mut self, do_node: &Imp, body: &Imp) {
        let id = self.index.id(do_node);
        let mut written: Vec<(Ident, Option<FieldAction>)> = Vec::new();
        body.walk(&mut |n| {
            if let Imp::Move(clauses) = n {
                for c in clauses {
                    match &c.dst {
                        LValue::SVar(s) => written.push((s.clone(), None)),
                        LValue::AVar(a, fa) => written.push((a.clone(), Some(fa.clone()))),
                    }
                }
            }
        });
        let rw = RwSets::of(body);
        let mut seen = BTreeSet::new();
        for (x, wfa) in &written {
            if !seen.insert(x.clone()) {
                continue;
            }
            if wfa.is_none() {
                self.report(
                    id,
                    x,
                    format!("scalar '{x}' is assigned by every iteration of a parallel DO"),
                );
                continue;
            }
            let Some(reads) = rw.reads_of(x) else {
                continue;
            };
            // Exemption: every access of x in the body uses one
            // identical subscript — a(i) = f(a(i)) is elementwise.
            if self.all_accesses_identical_subscripts(body, x) {
                continue;
            }
            let writes = rw.writes_of(x).unwrap_or(&[]);
            let conflict = writes.iter().any(|w| reads.iter().any(|r| r.overlaps(w)));
            if conflict {
                self.report(
                    id,
                    x,
                    format!(
                        "'{x}' is read and written with overlapping accesses across \
                         the iterations of a parallel DO"
                    ),
                );
            }
        }
    }

    fn all_accesses_identical_subscripts(&self, body: &Imp, x: &str) -> bool {
        let mut actions: Vec<FieldAction> = Vec::new();
        let mut record = |id: &Ident, fa: &FieldAction| {
            if id == x {
                actions.push(fa.clone());
            }
        };
        body.walk(&mut |n| {
            if let Imp::Move(clauses) = n {
                for c in clauses {
                    c.mask.walk(&mut |v| {
                        if let Value::AVar(id, fa) = v {
                            record(id, fa);
                        }
                    });
                    c.src.walk(&mut |v| {
                        if let Value::AVar(id, fa) = v {
                            record(id, fa);
                        }
                    });
                    if let LValue::AVar(id, fa) = &c.dst {
                        record(id, fa);
                    }
                }
            }
        });
        let Some(first) = actions.first() else {
            return true;
        };
        matches!(first, FieldAction::Subscript(_)) && actions.iter().all(|a| a == first)
    }
}

/// A deterministic conflicting variable between two non-commuting arms.
fn conflict_var(a: &Imp, b: &Imp) -> Option<Ident> {
    let ra = RwSets::of(a);
    let rb = RwSets::of(b);
    let mut candidates: BTreeSet<Ident> = BTreeSet::new();
    for (id, ws) in ra.writes() {
        let hits = |accs: Option<&[Access]>| {
            accs.is_some_and(|os| ws.iter().any(|w| os.iter().any(|o| w.overlaps(o))))
        };
        if hits(rb.reads_of(id)) || hits(rb.writes_of(id)) {
            candidates.insert(id.clone());
        }
    }
    for (id, ws) in rb.writes() {
        if ra
            .reads_of(id)
            .is_some_and(|os| ws.iter().any(|w| os.iter().any(|o| w.overlaps(o))))
        {
            candidates.insert(id.clone());
        }
    }
    candidates.into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_nir::build::*;
    use f90y_nir::SectionRange;

    fn codes(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code.as_str()).collect()
    }

    fn decl_arr(name: &str, n: i64) -> f90y_nir::Decl {
        decl(name, dfield(interval(1, n), int32()))
    }

    #[test]
    fn self_shift_races() {
        // A = CSHIFT(A, 1)
        let p = with_decl(
            decl_arr("a", 32),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                mv(
                    avar("a", everywhere()),
                    fcncall("cshift", vec![(int32(), ld("a", everywhere()))]),
                ),
            ]),
        );
        let r = lint(&p);
        assert_eq!(codes(&r), vec!["W-RACE"]);
        assert_eq!(r.diagnostics[0].var, "a");
    }

    #[test]
    fn shift_of_other_variable_is_clean() {
        let p = with_decl(
            declset(vec![decl_arr("a", 32), decl_arr("b", 32)]),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                mv(
                    avar("b", everywhere()),
                    fcncall("cshift", vec![(int32(), ld("a", everywhere()))]),
                ),
            ]),
        );
        assert!(lint(&p).is_clean());
    }

    #[test]
    fn misaligned_section_copy_races() {
        // a(1:31) = a(2:32)
        let p = with_decl(
            decl_arr("a", 32),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                mv(
                    avar("a", section(vec![SectionRange::new(1, 31)])),
                    ld("a", section(vec![SectionRange::new(2, 32)])),
                ),
            ]),
        );
        let r = lint(&p);
        assert_eq!(codes(&r), vec!["W-RACE"]);
    }

    #[test]
    fn aligned_section_update_is_clean() {
        // a(1:31:2) = a(1:31:2) + 1 — elementwise.
        let odd = section(vec![SectionRange::strided(1, 31, 2)]);
        let p = with_decl(
            decl_arr("a", 32),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                mv(avar("a", odd.clone()), add(ld("a", odd), int(1))),
            ]),
        );
        assert!(lint(&p).is_clean());
    }

    #[test]
    fn disjoint_section_copy_is_clean() {
        // a(1:31:2) = a(2:32:2) — the read does not overlap the write.
        let p = with_decl(
            decl_arr("a", 32),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                mv(
                    avar("a", section(vec![SectionRange::strided(1, 31, 2)])),
                    ld("a", section(vec![SectionRange::strided(2, 32, 2)])),
                ),
            ]),
        );
        assert!(lint(&p).is_clean());
    }

    #[test]
    fn overlapping_where_masks_race() {
        // One MOVE, two clauses, same mask, overlapping sections of b.
        let m = ld("m", everywhere());
        let p = with_decl(
            declset(vec![decl_arr("b", 32), decl_arr("m", 32)]),
            seq(vec![
                mv(avar("b", everywhere()), int(0)),
                mv(avar("m", everywhere()), int(1)),
                mv_multi(vec![
                    f90y_nir::MoveClause {
                        mask: m.clone(),
                        src: int(1),
                        dst: avar("b", section(vec![SectionRange::new(1, 16)])),
                    },
                    f90y_nir::MoveClause {
                        mask: m,
                        src: int(2),
                        dst: avar("b", section(vec![SectionRange::new(16, 32)])),
                    },
                ]),
            ]),
        );
        let r = lint(&p);
        assert_eq!(codes(&r), vec!["W-RACE"]);
        assert_eq!(r.diagnostics[0].var, "b");
    }

    #[test]
    fn complementary_where_masks_are_clean() {
        // The canonical WHERE/ELSEWHERE lowering: m then .not. m.
        let m = ld("m", everywhere());
        let p = with_decl(
            declset(vec![decl_arr("b", 32), decl_arr("m", 32)]),
            seq(vec![
                mv(avar("b", everywhere()), int(0)),
                mv(avar("m", everywhere()), int(1)),
                mv_multi(vec![
                    f90y_nir::MoveClause {
                        mask: m.clone(),
                        src: int(1),
                        dst: avar("b", everywhere()),
                    },
                    f90y_nir::MoveClause {
                        mask: un(UnOp::Not, m),
                        src: int(2),
                        dst: avar("b", everywhere()),
                    },
                ]),
            ]),
        );
        assert!(lint(&p).is_clean());
    }

    #[test]
    fn disjoint_masked_sections_are_clean() {
        let m = ld("m", everywhere());
        let p = with_decl(
            declset(vec![decl_arr("b", 32), decl_arr("m", 32)]),
            seq(vec![
                mv(avar("b", everywhere()), int(0)),
                mv(avar("m", everywhere()), int(1)),
                mv_multi(vec![
                    f90y_nir::MoveClause {
                        mask: m.clone(),
                        src: int(1),
                        dst: avar("b", section(vec![SectionRange::strided(1, 31, 2)])),
                    },
                    f90y_nir::MoveClause {
                        mask: m,
                        src: int(2),
                        dst: avar("b", section(vec![SectionRange::strided(2, 32, 2)])),
                    },
                ]),
            ]),
        );
        assert!(lint(&p).is_clean());
    }

    #[test]
    fn parallel_do_cross_iteration_access_races() {
        // DO i over parallel 1..8: a(i) = a(i+1) — dynamic subscripts
        // with different index expressions.
        let p = with_decl(
            decl_arr("a", 8),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                do_over(
                    "i",
                    interval(1, 8),
                    mv(
                        avar("a", subscript(vec![do_index("i", 1)])),
                        ld("a", subscript(vec![add(do_index("i", 1), int(1))])),
                    ),
                ),
            ]),
        );
        let r = lint(&p);
        assert_eq!(codes(&r), vec!["W-RACE"]);
    }

    #[test]
    fn parallel_do_elementwise_update_is_clean() {
        // DO i: a(i) = a(i) + 1 — one identical subscript everywhere.
        let p = with_decl(
            decl_arr("a", 8),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                do_over(
                    "i",
                    interval(1, 8),
                    mv(
                        avar("a", subscript(vec![do_index("i", 1)])),
                        add(ld("a", subscript(vec![do_index("i", 1)])), int(1)),
                    ),
                ),
            ]),
        );
        assert!(lint(&p).is_clean());
    }

    #[test]
    fn serial_do_is_exempt_from_the_parallel_rule() {
        let p = with_decl(
            decl_arr("a", 8),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                do_over(
                    "i",
                    serial_interval(1, 8),
                    mv(
                        avar("a", subscript(vec![do_index("i", 1)])),
                        ld("a", subscript(vec![add(do_index("i", 1), int(1))])),
                    ),
                ),
            ]),
        );
        assert!(lint(&p).is_clean());
    }

    #[test]
    fn conflicting_concurrent_arms_race() {
        let p = with_decl(
            declset(vec![decl_arr("a", 8), decl_arr("b", 8)]),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                conc(vec![
                    mv(avar("a", everywhere()), int(2)),
                    mv(avar("b", everywhere()), ld("a", everywhere())),
                ]),
            ]),
        );
        let r = lint(&p);
        assert!(codes(&r).contains(&"W-RACE"));
        assert_eq!(
            r.diagnostics
                .iter()
                .find(|d| d.code == WarnCode::Race)
                .unwrap()
                .var,
            "a"
        );
    }

    #[test]
    fn uninit_scalar_read_is_flagged_with_statement() {
        let p = with_decl(
            declset(vec![decl("x", int32()), decl("y", int32())]),
            seq(vec![
                mv(svar_lv("y"), add(svar("x"), int(1))),
                mv(svar_lv("x"), int(1)),
            ]),
        );
        let r = lint(&p);
        assert_eq!(codes(&r), vec!["W-UNINIT"]);
        assert_eq!(r.diagnostics[0].var, "x");
        assert!(r.diagnostics[0].stmt.as_deref().unwrap().contains("MOVE"));
    }

    #[test]
    fn uninit_array_read_is_exempt() {
        // Arrays are zero-initialised by the evaluator; stencil
        // prologues read them before any full definition.
        let p = with_decl(
            decl_arr("a", 8),
            mv(avar("b", everywhere()), ld("a", everywhere())),
        );
        let r = lint(&p);
        assert_eq!(r.count_of(WarnCode::Uninit), 0);
    }

    #[test]
    fn masked_only_writes_flag_a_whole_array_read() {
        // WHERE (m) a = 1; b = a — every element the mask skipped is a
        // silent zero on the read. The weak-update case PR 5 left open.
        let p = with_decl(
            declset(vec![
                decl_arr("a", 8),
                decl_arr("b", 8),
                decl("m", dfield(interval(1, 8), logical32())),
            ]),
            seq(vec![
                mv(avar("m", everywhere()), int(1)),
                mv_masked(ld("m", everywhere()), avar("a", everywhere()), int(1)),
                mv(avar("b", everywhere()), ld("a", everywhere())),
            ]),
        );
        let r = lint(&p);
        assert_eq!(r.count_of(WarnCode::Uninit), 1);
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == WarnCode::Uninit)
            .unwrap();
        assert_eq!(d.var, "a");
        assert!(d.message.contains("masked"));
    }

    #[test]
    fn subscripted_init_loop_is_exempt_from_the_array_rule() {
        // An unmasked (if weak) subscripted init is a deliberate fill,
        // not a masked write: the zero-init model stays in force.
        let p = with_decl(
            declset(vec![decl_arr("a", 8), decl_arr("b", 8)]),
            seq(vec![
                do_over(
                    "i",
                    serial_interval(1, 8),
                    mv(avar("a", subscript(vec![do_index("i", 1)])), int(1)),
                ),
                mv(avar("b", everywhere()), ld("a", everywhere())),
            ]),
        );
        let r = lint(&p);
        assert_eq!(r.count_of(WarnCode::Uninit), 0);
    }

    #[test]
    fn strong_def_after_masked_write_is_exempt() {
        let m = ld("m", everywhere());
        let p = with_decl(
            declset(vec![
                decl_arr("a", 8),
                decl_arr("b", 8),
                decl("m", dfield(interval(1, 8), logical32())),
            ]),
            seq(vec![
                mv(avar("m", everywhere()), int(1)),
                mv_masked(m, avar("a", everywhere()), int(1)),
                mv(avar("a", everywhere()), int(2)),
                mv(avar("b", everywhere()), ld("a", everywhere())),
            ]),
        );
        let r = lint(&p);
        assert_eq!(r.count_of(WarnCode::Uninit), 0);
    }

    #[test]
    fn dead_store_is_flagged() {
        let p = with_decl(
            decl("x", int32()),
            seq(vec![mv(svar_lv("x"), int(1)), mv(svar_lv("x"), int(2))]),
        );
        let r = lint(&p);
        assert_eq!(codes(&r), vec!["W-DEADSTORE"]);
        assert_eq!(r.diagnostics[0].var, "x");
    }

    #[test]
    fn telemetry_counters_are_emitted() {
        let p = with_decl(
            decl("x", int32()),
            seq(vec![mv(svar_lv("x"), int(1)), mv(svar_lv("x"), int(2))]),
        );
        let mut tel = Telemetry::new();
        let r = lint_with(&p, &mut tel);
        assert_eq!(r.count_of(WarnCode::DeadStore), 1);
        let report = tel.report();
        assert!(report.counter("analysis.stmts").unwrap() >= 4);
        assert!(report.counter("analysis.facts").unwrap() > 0);
        assert_eq!(report.counter("analysis.warnings.W-DEADSTORE"), Some(1));
        assert!(report.span_nanos("analysis.lint").is_some());
    }
}
