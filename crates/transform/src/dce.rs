//! Dead-temporary elimination.
//!
//! The earlier passes may leave transformation-introduced temporaries
//! with no remaining readers: `comm-cse` rewires every read of a merged
//! temporary to its canonical twin, and fusion can strand a hoisted
//! value that a later rewrite stopped consuming.  This pass deletes the
//! writes to (and declarations of) any temporary in
//! [`ProgramBody::temps`] that is never read anywhere in the program.
//!
//! Only transformation temporaries are candidates: user variables are
//! observable output (the evaluator captures their finals) and are
//! never touched.  Writes are removed at clause granularity, so a dead
//! definition that fusion absorbed into a multi-clause block is
//! stripped without disturbing its siblings; statements left with no
//! clauses are removed outright.
//!
//! Deadness is decided by the backward liveness analysis of
//! `f90y-analysis` ([`f90y_analysis::faint_temps`]): a temporary is
//! *faint* when no path reads it, directly or through other faint
//! temporaries — the suppression of a faint definition's operand reads
//! makes a whole chain `tmp1 = shift(v); tmp2 = f(tmp1)` die in a
//! single pass, where the older purely syntactic scan iterated to a
//! fixpoint.  That scan survives as [`dead_temps_syntactic`], the
//! oracle the property tests compare against: liveness must delete a
//! superset (or equal set) of what the syntactic scan would.

use std::collections::HashSet;

use f90y_nir::{FieldAction, Imp, LValue, NirError};

use crate::program::ProgramBody;

/// What one run removed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DceStats {
    /// Temporaries whose declarations were deleted.
    pub temps_deleted: usize,
    /// Move clauses (definitions) removed.
    pub clauses_removed: usize,
}

/// Run the pass; returns what it removed.
///
/// # Errors
///
/// Infallible today; the `Result` matches the other passes' signatures.
pub fn run(body: &mut ProgramBody) -> Result<DceStats, NirError> {
    let mut stats = DceStats::default();
    if body.temps.is_empty() {
        return Ok(stats);
    }
    let ghosts: HashSet<String> = body.temps.iter().cloned().collect();
    let faint = f90y_analysis::faint_temps(&body.recompose(), &ghosts);
    if faint.is_empty() {
        return Ok(stats);
    }
    for s in &mut body.stmts {
        strip_dead_writes(s, &faint, &mut stats.clauses_removed);
    }
    body.stmts
        .retain(|s| !matches!(s, Imp::Move(cs) if cs.is_empty()));
    stats.temps_deleted += body.remove_decls(&faint);
    Ok(stats)
}

/// The pre-liveness syntactic scan, kept as a property-test oracle.
///
/// A temporary is dead when no statement reads it, where reads inside
/// an unmasked whole-array definition of an already-dead temporary do
/// not count (iterated to a fixpoint, so chains die together — this
/// mirrors the old strip-and-rescan loop).  The liveness-driven pass
/// must delete a superset (or equal set) of these.
#[must_use]
pub fn dead_temps_syntactic(body: &ProgramBody) -> HashSet<String> {
    let temps: HashSet<String> = body.temps.iter().cloned().collect();
    if temps.is_empty() {
        return HashSet::new();
    }
    let mut dead: HashSet<String> = HashSet::new();
    loop {
        let mut reads: HashSet<String> = HashSet::new();
        for s in &body.stmts {
            collect_live_reads(s, &dead, &mut reads);
        }
        let next: HashSet<String> = temps
            .iter()
            .filter(|t| !reads.contains(*t))
            .cloned()
            .collect();
        if next == dead {
            return dead;
        }
        dead = next;
    }
}

/// Collect every identifier read by `stmt`, skipping the operands of
/// clauses that are strippable definitions of already-dead temporaries.
fn collect_live_reads(stmt: &Imp, dead: &HashSet<String>, reads: &mut HashSet<String>) {
    stmt.walk(&mut |n| match n {
        Imp::Move(clauses) => {
            for c in clauses {
                let strippable_dead = matches!(
                    &c.dst,
                    LValue::AVar(id, FieldAction::Everywhere)
                        if dead.contains(id) && c.is_unmasked()
                );
                if strippable_dead {
                    continue;
                }
                reads.extend(c.mask.reads().into_iter().cloned());
                reads.extend(c.src.reads().into_iter().cloned());
                if let LValue::AVar(_, FieldAction::Subscript(ixs)) = &c.dst {
                    for ix in ixs {
                        reads.extend(ix.reads().into_iter().cloned());
                    }
                }
            }
        }
        Imp::IfThenElse(c, _, _) | Imp::While(c, _) => {
            reads.extend(c.reads().into_iter().cloned());
        }
        Imp::WithDecl(d, _) => {
            for (_, _, init) in d.bindings() {
                if let Some(v) = init {
                    reads.extend(v.reads().into_iter().cloned());
                }
            }
        }
        _ => {}
    });
}

/// Remove every unmasked whole-array write to a dead temporary, at
/// clause granularity, recursively through nested bodies.
fn strip_dead_writes(stmt: &mut Imp, dead: &HashSet<String>, removed: &mut usize) {
    match stmt {
        Imp::Move(clauses) => {
            let before = clauses.len();
            clauses.retain(|c| {
                !matches!(
                    &c.dst,
                    LValue::AVar(id, FieldAction::Everywhere)
                        if dead.contains(id) && c.is_unmasked()
                )
            });
            *removed += before - clauses.len();
        }
        Imp::Sequentially(xs) | Imp::Concurrently(xs) => {
            for x in xs.iter_mut() {
                strip_dead_writes(x, dead, removed);
            }
            xs.retain(|s| !matches!(s, Imp::Move(cs) if cs.is_empty()));
        }
        Imp::IfThenElse(_, t, e) => {
            strip_dead_writes(t, dead, removed);
            strip_dead_writes(e, dead, removed);
        }
        Imp::While(_, b) | Imp::Do(_, _, b) | Imp::WithDecl(_, b) | Imp::WithDomain(_, _, b) => {
            strip_dead_writes(b, dead, removed);
        }
        Imp::Program(b) => strip_dead_writes(b, dead, removed),
        Imp::Skip => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{comm_cse, comm_split};
    use f90y_nir::build::*;
    use f90y_nir::eval::Evaluator;

    fn cshift_call(arr: &str, shift: i32, dim: i32) -> f90y_nir::Value {
        fcncall(
            "cshift",
            vec![
                (float64(), ld(arr, everywhere())),
                (int32(), int(shift)),
                (int32(), int(dim)),
            ],
        )
    }

    #[test]
    fn cse_leftovers_are_swept() {
        // Two identical shifts: comm-split makes tmp0 and tmp1, comm-cse
        // rewires tmp1's reads to tmp0 and deletes its definition, and
        // dce-temps removes the now-unused tmp1 declaration.
        let p = program(with_domain(
            "s",
            interval(1, 16),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("y", dfield(domain("s"), float64())),
                    decl("z", dfield(domain("s"), float64())),
                ]),
                seq(vec![
                    mv(avar("v", everywhere()), local_under(domain("s"), 1)),
                    mv(
                        avar("y", everywhere()),
                        add(ld("v", everywhere()), cshift_call("v", -1, 1)),
                    ),
                    mv(
                        avar("z", everywhere()),
                        sub(ld("v", everywhere()), cshift_call("v", -1, 1)),
                    ),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        comm_split::run(&mut body).unwrap();
        assert_eq!(body.temps.len(), 2);
        comm_cse::run(&mut body).unwrap();
        let stats = run(&mut body).unwrap();
        assert_eq!(stats.temps_deleted, 1);
        assert_eq!(body.temps.len(), 1);
        assert!(body.ctx().unwrap().var("tmp1").is_none());

        let out = body.recompose();
        f90y_nir::typecheck::check(&out).unwrap();
        let mut ev1 = Evaluator::new();
        ev1.run(&p).unwrap();
        let mut ev2 = Evaluator::new();
        ev2.run(&out).unwrap();
        for name in ["y", "z"] {
            assert_eq!(
                ev1.final_array_f64(name).unwrap(),
                ev2.final_array_f64(name).unwrap()
            );
        }
    }

    #[test]
    fn live_temps_survive() {
        let p = program(with_domain(
            "s",
            interval(1, 8),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("z", dfield(domain("s"), float64())),
                ]),
                seq(vec![
                    mv(avar("v", everywhere()), local_under(domain("s"), 1)),
                    mv(
                        avar("z", everywhere()),
                        sub(ld("v", everywhere()), cshift_call("v", -1, 1)),
                    ),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        comm_split::run(&mut body).unwrap();
        let stats = run(&mut body).unwrap();
        assert_eq!(stats.temps_deleted, 0);
        assert_eq!(stats.clauses_removed, 0);
    }

    #[test]
    fn user_variables_are_never_deleted() {
        // An unused user variable must survive: its final value is
        // observable.
        let p = program(with_domain(
            "s",
            interval(1, 8),
            with_decl(
                declset(vec![
                    decl("unused", dfield(domain("s"), float64())),
                    decl("z", dfield(domain("s"), float64())),
                ]),
                seq(vec![
                    mv(avar("unused", everywhere()), f64c(9.0)),
                    mv(avar("z", everywhere()), f64c(1.0)),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        let stats = run(&mut body).unwrap();
        assert_eq!(stats.temps_deleted, 0);
        assert!(body.ctx().unwrap().var("unused").is_some());
        assert_eq!(body.stmts.len(), 2);
    }

    #[test]
    fn chains_of_dead_temps_die_together() {
        // tmp1 = cshift(tmp0, ...) where tmp1 is unread: removing tmp1's
        // definition makes tmp0 dead on the next round.
        let p = program(with_domain(
            "s",
            interval(1, 8),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("z", dfield(domain("s"), float64())),
                ]),
                seq(vec![
                    mv(avar("v", everywhere()), local_under(domain("s"), 1)),
                    mv(
                        avar("z", everywhere()),
                        fcncall(
                            "cshift",
                            vec![
                                (float64(), cshift_call("v", 1, 1)),
                                (int32(), int(1)),
                                (int32(), int(1)),
                            ],
                        ),
                    ),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        comm_split::run(&mut body).unwrap();
        // Sever the chain: overwrite z with a constant, stranding the
        // hoisted shift(s).
        let last = body.stmts.len() - 1;
        body.stmts[last] = mv(avar("z", everywhere()), f64c(0.0));
        let stats = run(&mut body).unwrap();
        assert!(stats.temps_deleted >= 1);
        assert!(body.temps.is_empty(), "every stranded temp should die");
        f90y_nir::typecheck::check(&body.recompose()).unwrap();
    }
}
