//! Communication common-subexpression elimination.
//!
//! [`crate::comm_split`] hoists every `CSHIFT`/`EOSHIFT` occurrence into
//! its own fresh temporary, even when two occurrences are textually
//! identical — the SWE kernel, for example, shifts the same pressure
//! array by the same offset in several update equations, and each shift
//! becomes its own communication phase.  This pass deduplicates them:
//! when a hoisted definition `tmpN = CSHIFT(a, s, d)` repeats an earlier
//! definition `tmpM = CSHIFT(a, s, d)` that is still *available* (no
//! intervening write to `a`, `s`, `d` or `tmpM`), the later definition
//! is deleted and every subsequent read of `tmpN` is rewired to `tmpM` —
//! one temporary, one comm phase, directly cutting router/NEWS traffic
//! in the CM/2 cost model and MIMD message counts.
//!
//! Soundness notes:
//!
//! * Only transformation-introduced temporaries ([`ProgramBody::temps`])
//!   are merged — user variables are observable output.
//! * Each such temporary is written by exactly one hoisted definition
//!   program-wide, so once a duplicate definition is deleted, the
//!   canonical temporary holds the right value at every later program
//!   point of the list (and inside nested bodies), even if the shifted
//!   array is overwritten in between: the substitution is value-based.
//! * The "source unmodified" test is the reaching-definition analysis
//!   of `f90y-analysis`: a later definition merges into an earlier one
//!   only when (a) the earlier temporary's definition is the sole
//!   definition reaching the later site, (b) every variable the
//!   defining expression reads sees the *same* definition set at both
//!   sites, and (c) none of those definitions lies between the two
//!   sites — weak (masked) updates saturate the may-def sets inside
//!   loops, so set equality alone would miss a masked rewrite between
//!   the hoists.  Candidates are still paired per statement list (a
//!   definition inside a branch may not execute), with nested bodies
//!   scanned under a fresh availability map.
//!
//! The pass runs in two phases: a read-only planning walk over a frozen
//! snapshot of the program (statement ids and dataflow facts refer to
//! that snapshot), then a rewrite phase that deletes the doomed
//! definitions and rewires every read. The dead declarations are swept
//! by `dce-temps`.

use std::collections::{HashMap, HashSet};

use f90y_analysis::{DefState, ReachingFacts, StmtIndex};
use f90y_nir::{FieldAction, Imp, LValue, NirError, Value};

use crate::program::ProgramBody;

/// Run the pass; returns the number of duplicate communication
/// definitions merged away.
///
/// # Errors
///
/// Infallible today; the `Result` matches the other passes' signatures.
pub fn run(body: &mut ProgramBody) -> Result<usize, NirError> {
    let temps: HashSet<String> = body.temps.iter().cloned().collect();
    if temps.is_empty() {
        return Ok(0);
    }

    // Phase 1: plan merges against reaching-definition facts computed
    // over a frozen snapshot of the whole program.
    let frozen = body.recompose();
    let index = StmtIndex::of(&frozen);
    let facts = ReachingFacts::compute(&frozen, &index);
    let mut plan: HashMap<String, String> = HashMap::new();
    plan_list(&top_list(&frozen), &index, &facts, &temps, &mut plan);
    if plan.is_empty() {
        return Ok(0);
    }

    // Phase 2: delete the doomed definitions and rewire every read to
    // the canonical temporary.
    let doomed: HashSet<String> = plan.keys().cloned().collect();
    remove_doomed(&mut body.stmts, &temps, &doomed);
    for s in &mut body.stmts {
        subst_imp(s, &plan);
    }
    Ok(plan.len())
}

/// Plan merges within one statement list. `avail` maps the canonical
/// text of a (rewired) defining expression to the canonical temporary
/// and its defining statement's id in the frozen snapshot.
fn plan_list(
    stmts: &[&Imp],
    index: &StmtIndex<'_>,
    facts: &ReachingFacts,
    temps: &HashSet<String>,
    plan: &mut HashMap<String, String>,
) {
    let mut avail: HashMap<String, (String, usize)> = HashMap::new();
    for stmt in stmts {
        if let Some((temp, src)) = comm_def(stmt, temps) {
            let sid = index.id(stmt);
            let mut src = src.clone();
            subst_value(&mut src, plan);
            let key = format!("{src:?}");
            if let Some((canon, canon_sid)) = avail.get(&key) {
                if *canon != temp && still_available(facts, *canon_sid, sid, canon, &src) {
                    plan.insert(temp, canon.clone());
                    continue;
                }
            }
            avail.insert(key, (temp, sid));
            continue;
        }
        // Nested bodies get their own availability scope.
        for list in nested_lists(stmt) {
            plan_list(&list, index, facts, temps, plan);
        }
    }
}

/// The reaching-definition "source unmodified" test: the canonical
/// definition at `canon_sid` still holds the value the duplicate at
/// `sid` would recompute.
fn still_available(
    facts: &ReachingFacts,
    canon_sid: usize,
    sid: usize,
    canon: &str,
    src: &Value,
) -> bool {
    // The canonical temporary must be defined, here, by exactly its one
    // hoisted definition (clause 0 of that statement) on every path.
    if facts.state_at(sid, canon) != Some(&DefState::single((canon_sid, 0))) {
        return false;
    }
    // Every variable the expression reads must see the same definitions
    // at both sites, and none of those definitions may sit *between*
    // the two sites in the frozen snapshot's pre-order. Set equality
    // alone is not enough under weak (masked or partial-section)
    // updates: inside a loop the may-def set saturates, so a masked
    // rewrite between the hoists leaves both sets equal even though the
    // value changed.
    src.reads().iter().all(|v| {
        let (Some(s1), Some(s2)) = (facts.state_at(canon_sid, v), facts.state_at(sid, v)) else {
            return false;
        };
        s1 == s2 && s2.defs.iter().all(|&(d, _)| !(canon_sid < d && d < sid))
    })
}

/// The top-level statement list of a recomposed program: descend through
/// the outer `PROGRAM` / domain / declaration binders.
fn top_list(root: &Imp) -> Vec<&Imp> {
    let mut cur = root;
    loop {
        match cur {
            Imp::Program(b) | Imp::WithDecl(_, b) | Imp::WithDomain(_, _, b) => cur = b,
            other => return list_of(other),
        }
    }
}

/// The nested statement lists of one statement (loop and branch bodies),
/// mirroring [`each_nested_list`] on the frozen snapshot.
fn nested_lists(stmt: &Imp) -> Vec<Vec<&Imp>> {
    match stmt {
        Imp::Do(_, _, b) | Imp::While(_, b) | Imp::WithDecl(_, b) | Imp::WithDomain(_, _, b) => {
            vec![list_of(b)]
        }
        Imp::IfThenElse(_, t, e) => vec![list_of(t), list_of(e)],
        _ => Vec::new(),
    }
}

fn list_of(b: &Imp) -> Vec<&Imp> {
    match b {
        Imp::Sequentially(xs) => xs.iter().collect(),
        Imp::Skip => Vec::new(),
        other => vec![other],
    }
}

/// Delete every doomed hoisted definition, recursively through nested
/// bodies.
fn remove_doomed(stmts: &mut Vec<Imp>, temps: &HashSet<String>, doomed: &HashSet<String>) {
    stmts.retain(|s| !matches!(comm_def(s, temps), Some((t, _)) if doomed.contains(&t)));
    for s in stmts {
        each_nested_list(s, &mut |list| remove_doomed(list, temps, doomed));
    }
}

/// `Some((temp, src))` when the statement is a hoisted communication
/// definition `MOVE[(True, (cshift|eoshift(...), AVAR(temp, everywhere)))]`
/// into a transformation temporary.
fn comm_def<'a>(stmt: &'a Imp, temps: &HashSet<String>) -> Option<(String, &'a Value)> {
    let Imp::Move(clauses) = stmt else {
        return None;
    };
    let [clause] = clauses.as_slice() else {
        return None;
    };
    if !clause.is_unmasked() {
        return None;
    }
    let Value::FcnCall(name, _) = &clause.src else {
        return None;
    };
    if !matches!(name.as_str(), "cshift" | "eoshift") {
        return None;
    }
    let LValue::AVar(dst, FieldAction::Everywhere) = &clause.dst else {
        return None;
    };
    if !temps.contains(dst) {
        return None;
    }
    Some((dst.clone(), &clause.src))
}

/// Apply `f` to every nested statement list of one statement (loop and
/// branch bodies), without touching the statement's own values.
fn each_nested_list(stmt: &mut Imp, f: &mut impl FnMut(&mut Vec<Imp>)) {
    match stmt {
        Imp::Do(_, _, b) | Imp::While(_, b) | Imp::WithDecl(_, b) | Imp::WithDomain(_, _, b) => {
            nested_boxed(b, f);
        }
        Imp::IfThenElse(_, t, e) => {
            nested_boxed(t, f);
            nested_boxed(e, f);
        }
        _ => {}
    }
}

fn nested_boxed(b: &mut Box<Imp>, f: &mut impl FnMut(&mut Vec<Imp>)) {
    let mut stmts = match std::mem::replace(b.as_mut(), Imp::Skip) {
        Imp::Sequentially(xs) => xs,
        Imp::Skip => Vec::new(),
        other => vec![other],
    };
    f(&mut stmts);
    **b = Imp::seq(stmts);
}

/// Rewire array-variable reads through the substitution, everywhere in
/// a statement (sources, masks, subscripts, conditions, nested bodies).
fn subst_imp(stmt: &mut Imp, subst: &HashMap<String, String>) {
    match stmt {
        Imp::Program(b) => subst_imp(b, subst),
        Imp::Skip => {}
        Imp::Sequentially(xs) | Imp::Concurrently(xs) => {
            for x in xs {
                subst_imp(x, subst);
            }
        }
        Imp::Move(clauses) => {
            for c in clauses {
                subst_value(&mut c.mask, subst);
                subst_value(&mut c.src, subst);
                if let LValue::AVar(_, FieldAction::Subscript(ixs)) = &mut c.dst {
                    for ix in ixs {
                        subst_value(ix, subst);
                    }
                }
            }
        }
        Imp::IfThenElse(c, t, e) => {
            subst_value(c, subst);
            subst_imp(t, subst);
            subst_imp(e, subst);
        }
        Imp::While(c, b) => {
            subst_value(c, subst);
            subst_imp(b, subst);
        }
        Imp::Do(_, _, b) => subst_imp(b, subst),
        Imp::WithDecl(_, b) | Imp::WithDomain(_, _, b) => subst_imp(b, subst),
    }
}

fn subst_value(v: &mut Value, subst: &HashMap<String, String>) {
    match v {
        Value::AVar(id, fa) => {
            if let Some(canon) = subst.get(id) {
                *id = canon.clone();
            }
            if let FieldAction::Subscript(ixs) = fa {
                for ix in ixs {
                    subst_value(ix, subst);
                }
            }
        }
        Value::SVar(_) | Value::Scalar(_) | Value::LocalUnder(_, _) | Value::DoIndex(_, _) => {}
        Value::Unary(_, a) => subst_value(a, subst),
        Value::Binary(_, a, b) => {
            subst_value(a, subst);
            subst_value(b, subst);
        }
        Value::FcnCall(_, args) => {
            for (_, a) in args {
                subst_value(a, subst);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_split;
    use f90y_nir::build::*;
    use f90y_nir::eval::Evaluator;

    fn cshift_call(arr: &str, shift: i32, dim: i32) -> Value {
        fcncall(
            "cshift",
            vec![
                (float64(), ld(arr, everywhere())),
                (int32(), int(shift)),
                (int32(), int(dim)),
            ],
        )
    }

    /// Two statements each reading the *same* shift of `v`: after
    /// comm-split there are two identical hoisted definitions; comm-cse
    /// merges them into one.
    fn repeated_shift_program() -> Imp {
        program(with_domain(
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
        ))
    }

    #[test]
    fn identical_hoists_share_one_temporary() {
        let p = repeated_shift_program();
        let mut body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(comm_split::run(&mut body).unwrap(), 2);
        assert_eq!(run(&mut body).unwrap(), 1);
        // One hoisted definition left; both computes read tmp0.
        let comm_defs = body
            .stmts
            .iter()
            .filter(|s| comm_def(s, &body.temps.iter().cloned().collect()).is_some())
            .count();
        assert_eq!(comm_defs, 1);

        let out = body.recompose();
        f90y_nir::typecheck::check(&out).unwrap();
        let mut ev1 = Evaluator::new();
        ev1.run(&p).unwrap();
        let mut ev2 = Evaluator::new();
        ev2.run(&out).unwrap();
        for name in ["y", "z"] {
            assert_eq!(
                ev1.final_array_f64(name).unwrap(),
                ev2.final_array_f64(name).unwrap(),
                "{name} differs after comm-cse"
            );
        }
    }

    #[test]
    fn intervening_writes_block_the_merge() {
        // v is rewritten between the two shifts: the second shift reads
        // different data and must keep its own temporary.
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
                    mv(avar("v", everywhere()), f64c(3.0)),
                    mv(
                        avar("z", everywhere()),
                        sub(ld("v", everywhere()), cshift_call("v", -1, 1)),
                    ),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(comm_split::run(&mut body).unwrap(), 2);
        assert_eq!(
            run(&mut body).unwrap(),
            0,
            "the write to v kills availability"
        );

        let out = body.recompose();
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
    fn different_shifts_do_not_merge() {
        let p = program(with_domain(
            "s",
            interval(1, 16),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("y", dfield(domain("s"), float64())),
                ]),
                seq(vec![
                    mv(avar("v", everywhere()), local_under(domain("s"), 1)),
                    mv(
                        avar("y", everywhere()),
                        add(cshift_call("v", -1, 1), cshift_call("v", 1, 1)),
                    ),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(comm_split::run(&mut body).unwrap(), 2);
        assert_eq!(run(&mut body).unwrap(), 0);
    }

    #[test]
    fn merges_reach_inside_serial_do_bodies() {
        // The SWE shape: repeated identical shifts inside a time-step DO.
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
                    do_over(
                        "t",
                        serial_interval(1, 3),
                        seq(vec![
                            mv(
                                avar("y", everywhere()),
                                add(ld("v", everywhere()), cshift_call("v", 1, 1)),
                            ),
                            mv(
                                avar("z", everywhere()),
                                sub(ld("y", everywhere()), cshift_call("v", 1, 1)),
                            ),
                            mv(
                                avar("v", everywhere()),
                                add(ld("z", everywhere()), f64c(0.5)),
                            ),
                        ]),
                    ),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(comm_split::run(&mut body).unwrap(), 2);
        assert_eq!(run(&mut body).unwrap(), 1);

        let out = body.recompose();
        f90y_nir::typecheck::check(&out).unwrap();
        let mut ev1 = Evaluator::new();
        ev1.run(&p).unwrap();
        let mut ev2 = Evaluator::new();
        ev2.run(&out).unwrap();
        for name in ["v", "y", "z"] {
            assert_eq!(
                ev1.final_array_f64(name).unwrap(),
                ev2.final_array_f64(name).unwrap(),
                "{name} differs after comm-cse in a DO body"
            );
        }
    }

    #[test]
    fn masked_intervening_writes_in_a_loop_block_the_merge() {
        // The red-black shape: inside a serial DO, v is rewritten only
        // under a mask between two identical shifts. Weak updates never
        // kill reaching definitions, so the may-def sets at both hoist
        // sites saturate to the same set across iterations — the pass
        // must still refuse the merge.
        let p = program(with_domain(
            "s",
            interval(1, 16),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("m", dfield(domain("s"), logical32())),
                    decl("y", dfield(domain("s"), float64())),
                    decl("z", dfield(domain("s"), float64())),
                ]),
                seq(vec![
                    mv(avar("v", everywhere()), local_under(domain("s"), 1)),
                    mv(
                        avar("m", everywhere()),
                        bin(f90y_nir::BinOp::Gt, ld("v", everywhere()), f64c(8.0)),
                    ),
                    do_over(
                        "t",
                        serial_interval(1, 3),
                        seq(vec![
                            mv(
                                avar("y", everywhere()),
                                add(ld("v", everywhere()), cshift_call("v", 1, 1)),
                            ),
                            mv_masked(
                                ld("m", everywhere()),
                                avar("v", everywhere()),
                                add(ld("v", everywhere()), f64c(1.0)),
                            ),
                            mv(
                                avar("z", everywhere()),
                                sub(ld("v", everywhere()), cshift_call("v", 1, 1)),
                            ),
                        ]),
                    ),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(comm_split::run(&mut body).unwrap(), 2);
        assert_eq!(
            run(&mut body).unwrap(),
            0,
            "the masked write to v between the shifts kills availability"
        );

        let out = body.recompose();
        let mut ev1 = Evaluator::new();
        ev1.run(&p).unwrap();
        let mut ev2 = Evaluator::new();
        ev2.run(&out).unwrap();
        for name in ["v", "y", "z"] {
            assert_eq!(
                ev1.final_array_f64(name).unwrap(),
                ev2.final_array_f64(name).unwrap(),
                "{name} differs after comm-cse"
            );
        }
    }

    #[test]
    fn user_variables_are_never_merged() {
        // Two user-written identical comm statements (no comm-split):
        // nothing is in `temps`, so nothing merges.
        let p = program(with_domain(
            "s",
            interval(1, 8),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("a", dfield(domain("s"), float64())),
                    decl("b", dfield(domain("s"), float64())),
                ]),
                seq(vec![
                    mv(avar("a", everywhere()), cshift_call("v", 1, 1)),
                    mv(avar("b", everywhere()), cshift_call("v", 1, 1)),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(run(&mut body).unwrap(), 0);
    }
}
