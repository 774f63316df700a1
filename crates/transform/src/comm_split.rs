//! Communication extraction: hoist `cshift`/`eoshift` calls out of
//! computation expressions.
//!
//! After this pass every communication intrinsic stands alone as
//! `MOVE[(True,(cshift(...), AVAR(tmpN, everywhere)))]` and computation
//! moves read the temporaries — producing the clean alternation of
//! communication and computation phases the paper's execution partition
//! wants (§4.2), and the `tmp0`/`tmp1`/`tmp2` names visible in its
//! Figure 12 NIR excerpt.

use std::collections::HashSet;

use f90y_nir::typecheck::{Checker, Ctx, Mode, ValueType};
use f90y_nir::{
    Decl, FieldAction, Imp, LValue, MoveClause, NirError, ScalarType, Shape, Type, Value,
};

use crate::program::{resolve_type, Binder, ProgramBody};

/// Run the pass over every statement; returns the number of temporaries
/// introduced.
///
/// # Errors
///
/// Fails on static errors while typing hoisted calls.
pub fn run(body: &mut ProgramBody) -> Result<usize, NirError> {
    let mut h = Hoister {
        ctx: body.ctx()?,
        taken: body.binders.iter().flat_map(binder_names).collect(),
        body,
        counter: 0,
        introduced: 0,
        prefix: Vec::new(),
    };
    let stmts = std::mem::take(&mut h.body.stmts);
    h.body.stmts = h.rewrite_list(stmts)?;
    Ok(h.introduced)
}

/// The identifiers one binder declares.
fn binder_names(b: &Binder) -> Vec<String> {
    match b {
        Binder::Decls(d) => d
            .bindings()
            .into_iter()
            .map(|(id, _, _)| id.clone())
            .collect(),
        Binder::Domain(..) => Vec::new(),
    }
}

/// The state of one run: the body being rewritten and everything typing
/// a hoisted call and naming its temporary needs, built once.
struct Hoister<'b> {
    body: &'b mut ProgramBody,
    /// `body.ctx()` as of entry, extended by every temporary declared
    /// since. Temporaries are fresh names in the one declaration scope,
    /// so this is what `body.ctx()` would rebuild at any point.
    ctx: Ctx,
    /// Every name the binders declared on entry.
    taken: HashSet<String>,
    /// Next `tmpN` suffix to try; only grows, so a temporary's own name
    /// never comes up again.
    counter: usize,
    introduced: usize,
    /// `tmp = …` moves to emit ahead of the statement being rewritten.
    prefix: Vec<Imp>,
}

impl Hoister<'_> {
    /// Rewrite a statement list, each statement preceded by the moves
    /// hoisted out of it.
    fn rewrite_list(&mut self, stmts: Vec<Imp>) -> Result<Vec<Imp>, NirError> {
        let outer = std::mem::take(&mut self.prefix);
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            let rewritten = self.rewrite_stmt(stmt)?;
            out.append(&mut self.prefix);
            out.push(rewritten);
        }
        self.prefix = outer;
        Ok(out)
    }

    /// A nested body gets its prefix *inside* it (hoisting across a
    /// branch or loop head would compute unconditionally).
    fn rewrite_nested(&mut self, stmt: Imp) -> Result<Box<Imp>, NirError> {
        Ok(Box::new(Imp::seq(self.rewrite_list(vec![stmt])?)))
    }

    fn rewrite_stmt(&mut self, stmt: Imp) -> Result<Imp, NirError> {
        match stmt {
            Imp::Move(clauses) => {
                let mut new_clauses = Vec::with_capacity(clauses.len());
                for c in clauses {
                    // If the source IS a bare communication call into a
                    // whole-array unmasked target, it already is a
                    // communication phase: keep the outer call in place
                    // but still hoist any communication nested in its
                    // arguments, and materialise a composite array
                    // argument.
                    let bare_comm = matches!(&c.src, Value::FcnCall(n, _) if is_comm(n))
                        && c.is_unmasked()
                        && matches!(c.dst, LValue::AVar(_, FieldAction::Everywhere));
                    let (mask, src) = match c.src {
                        Value::FcnCall(name, args) if bare_comm => {
                            (c.mask, Value::FcnCall(name, self.comm_args(args)?))
                        }
                        src => (self.hoist_value(c.mask)?, self.hoist_value(src)?),
                    };
                    new_clauses.push(MoveClause {
                        mask,
                        src,
                        dst: c.dst,
                    });
                }
                Ok(Imp::Move(new_clauses))
            }
            Imp::IfThenElse(c, t, e) => {
                let c = self.hoist_value(c)?;
                let t = self.rewrite_nested(*t)?;
                let e = self.rewrite_nested(*e)?;
                Ok(Imp::IfThenElse(c, t, e))
            }
            // The condition re-evaluates each iteration: hoisting it out
            // once would be wrong. Communication inside scalar loop
            // conditions is left in place (the host evaluates it).
            Imp::While(c, b) => Ok(Imp::While(c, self.rewrite_nested(*b)?)),
            Imp::Do(dom, shape, b) => Ok(Imp::Do(dom, shape, self.rewrite_nested(*b)?)),
            Imp::Sequentially(xs) => Ok(Imp::seq(self.rewrite_list(xs)?)),
            other => Ok(other),
        }
    }

    /// The arguments of a communication call, ready to communicate:
    /// nested communication hoisted first, then a composite array
    /// argument (`CSHIFT(c + a, …)`) materialised into its own temporary
    /// (a computation phase).
    fn comm_args(&mut self, args: Vec<(Type, Value)>) -> Result<Vec<(Type, Value)>, NirError> {
        let mut args: Vec<(Type, Value)> = args
            .into_iter()
            .map(|(t, a)| Ok((t, self.hoist_value(a)?)))
            .collect::<Result<_, NirError>>()?;
        if let Some((_, arg0)) = args.first_mut() {
            let simple = matches!(
                arg0,
                Value::AVar(_, FieldAction::Everywhere) | Value::Scalar(_)
            );
            // Left in place when it cannot be typed in the binder-only
            // context or is scalar.
            if let (false, Ok(vt)) = (simple, self.type_of(arg0)) {
                if let Some(shape) = vt.shape {
                    *arg0 = self.hoist_to_temp(shape, vt.elem, arg0.clone())?;
                }
            }
        }
        Ok(args)
    }

    /// Hoist communication calls (post-order) out of a value, emitting
    /// `tmp = call` moves into the prefix.
    fn hoist_value(&mut self, v: Value) -> Result<Value, NirError> {
        match v {
            Value::FcnCall(name, args) if is_comm(&name) => {
                let call = Value::FcnCall(name, self.comm_args(args)?);
                // Type the call to size the temporary. If typing fails
                // here — e.g. the shift amount references an enclosing DO
                // index, which this binder-only context cannot see —
                // leave the call in place for the host path rather than
                // mis-hoisting.
                let Ok(vt) = self.type_of(&call) else {
                    return Ok(call);
                };
                let shape = vt
                    .shape
                    .ok_or_else(|| NirError::Shape("communication intrinsic on a scalar".into()))?;
                self.hoist_to_temp(shape, vt.elem, call)
            }
            Value::FcnCall(name, args) => {
                let args = args
                    .into_iter()
                    .map(|(t, a)| Ok((t, self.hoist_value(a)?)))
                    .collect::<Result<_, NirError>>()?;
                Ok(Value::FcnCall(name, args))
            }
            Value::Unary(op, a) => Ok(Value::Unary(op, Box::new(self.hoist_value(*a)?))),
            Value::Binary(op, a, b) => Ok(Value::Binary(
                op,
                Box::new(self.hoist_value(*a)?),
                Box::new(self.hoist_value(*b)?),
            )),
            other => Ok(other),
        }
    }

    fn type_of(&mut self, v: &Value) -> Result<ValueType, NirError> {
        Checker::new(Mode::Both).type_of(v, &mut self.ctx)
    }

    /// Declare a fresh array temporary — in the body and in the typing
    /// context —, emit `tmp = v` ahead of the statement being rewritten
    /// and return the whole-array read of the temporary.
    fn hoist_to_temp(
        &mut self,
        shape: Shape,
        elem: ScalarType,
        v: Value,
    ) -> Result<Value, NirError> {
        let tmp = loop {
            let name = format!("tmp{}", self.counter);
            self.counter += 1;
            if !self.taken.contains(&name) {
                break name;
            }
        };
        let ty = Type::dfield(shape, Type::Scalar(elem));
        self.ctx
            .bind_var(tmp.clone(), resolve_type(&ty, &self.ctx)?);
        self.body.add_temp_decl(Decl::Decl(tmp.clone(), ty));
        self.prefix.push(Imp::Move(vec![MoveClause::unmasked(
            LValue::AVar(tmp.clone(), FieldAction::Everywhere),
            v,
        )]));
        self.introduced += 1;
        Ok(Value::AVar(tmp, FieldAction::Everywhere))
    }
}

fn is_comm(name: &str) -> bool {
    matches!(name, "cshift" | "eoshift")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{classify_stmt, StmtClass};
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

    fn swe_like() -> Imp {
        // z = v - cshift(v, -1, 1): the Fig. 12 source pattern.
        program(with_domain(
            "s",
            interval(1, 16),
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
        ))
    }

    #[test]
    fn cshift_is_hoisted_to_a_temporary() {
        let p = swe_like();
        let mut body = ProgramBody::decompose(&p).unwrap();
        let n = run(&mut body).unwrap();
        assert_eq!(n, 1);
        assert_eq!(body.stmts.len(), 3);
        let mut ctx = body.ctx().unwrap();
        // Statement 1: comm phase; statement 2: pure computation.
        assert!(matches!(
            classify_stmt(&body.stmts[1], &mut ctx).unwrap(),
            StmtClass::Comm(_)
        ));
        assert!(matches!(
            classify_stmt(&body.stmts[2], &mut ctx).unwrap(),
            StmtClass::Compute(_)
        ));
        // The recomposed program still checks and means the same.
        let out = body.recompose();
        f90y_nir::typecheck::check(&out).unwrap();
        let mut ev1 = Evaluator::new();
        ev1.run(&p).unwrap();
        let mut ev2 = Evaluator::new();
        ev2.run(&out).unwrap();
        assert_eq!(
            ev1.final_array_f64("z").unwrap(),
            ev2.final_array_f64("z").unwrap()
        );
    }

    #[test]
    fn nested_cshifts_hoist_inner_first() {
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
        let n = run(&mut body).unwrap();
        // Inner call becomes tmp0; the outer call is already a bare
        // comm into z once its argument is a temporary.
        assert_eq!(n, 1);
        let out = body.recompose();
        let mut ev1 = Evaluator::new();
        ev1.run(&p).unwrap();
        let mut ev2 = Evaluator::new();
        ev2.run(&out).unwrap();
        assert_eq!(
            ev1.final_array_f64("z").unwrap(),
            ev2.final_array_f64("z").unwrap()
        );
    }

    #[test]
    fn masked_moves_hoist_unconditionally_before_the_move() {
        // WHERE-style masked move with communication inside.
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
                    mv_masked(
                        bin(f90y_nir::BinOp::Gt, ld("v", everywhere()), f64c(4.0)),
                        avar("z", everywhere()),
                        cshift_call("v", 1, 1),
                    ),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        let n = run(&mut body).unwrap();
        assert_eq!(
            n, 1,
            "masked comm must hoist (masks don't commute with shifts)"
        );
        let out = body.recompose();
        let mut ev1 = Evaluator::new();
        ev1.run(&p).unwrap();
        let mut ev2 = Evaluator::new();
        ev2.run(&out).unwrap();
        assert_eq!(
            ev1.final_array_f64("z").unwrap(),
            ev2.final_array_f64("z").unwrap()
        );
    }

    #[test]
    fn reductions_are_left_alone() {
        let p = program(with_domain(
            "s",
            interval(1, 8),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("x", float64()),
                ]),
                mv(
                    svar_lv("x"),
                    fcncall("sum", vec![(float64(), ld("v", everywhere()))]),
                ),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(run(&mut body).unwrap(), 0);
    }

    #[test]
    fn composite_comm_arguments_materialise_as_computation() {
        // z = cshift(v + w, 1, 1): the sum must become its own
        // computation phase feeding the communication.
        let p = program(with_domain(
            "s",
            interval(1, 8),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("w", dfield(domain("s"), float64())),
                    decl("z", dfield(domain("s"), float64())),
                ]),
                seq(vec![
                    mv(avar("v", everywhere()), local_under(domain("s"), 1)),
                    mv(avar("w", everywhere()), f64c(10.0)),
                    mv(
                        avar("z", everywhere()),
                        fcncall(
                            "cshift",
                            vec![
                                (float64(), add(ld("v", everywhere()), ld("w", everywhere()))),
                                (int32(), int(1)),
                                (int32(), int(1)),
                            ],
                        ),
                    ),
                ]),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        let n = run(&mut body).unwrap();
        assert_eq!(n, 1, "the composite argument becomes one temporary");
        // Phases: init v, init w, tmp = v+w (compute), z = cshift(tmp) (comm).
        let mut ctx = body.ctx().unwrap();
        let classes: Vec<_> = body
            .stmts
            .iter()
            .map(|s| classify_stmt(s, &mut ctx).unwrap())
            .collect();
        assert!(matches!(classes[2], StmtClass::Compute(_)));
        assert!(matches!(classes[3], StmtClass::Comm(_)));

        let out = body.recompose();
        f90y_nir::typecheck::check(&out).unwrap();
        let mut ev1 = Evaluator::new();
        ev1.run(&p).unwrap();
        let mut ev2 = Evaluator::new();
        ev2.run(&out).unwrap();
        assert_eq!(
            ev1.final_array_f64("z").unwrap(),
            ev2.final_array_f64("z").unwrap()
        );
    }

    #[test]
    fn fresh_temp_skips_collisions() {
        // The user's own arrays are called tmp1 and tmp3: the three
        // hoists take tmp0, tmp2 and tmp4.
        let p = program(with_domain(
            "s",
            interval(1, 8),
            with_decl(
                declset(vec![
                    decl("tmp1", dfield(domain("s"), float64())),
                    decl("tmp3", dfield(domain("s"), float64())),
                ]),
                mv(
                    avar("tmp3", everywhere()),
                    add(
                        cshift_call("tmp1", 1, 1),
                        add(cshift_call("tmp1", 2, 1), cshift_call("tmp3", 3, 1)),
                    ),
                ),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(run(&mut body).unwrap(), 3);
        assert_eq!(body.temps, ["tmp0", "tmp2", "tmp4"]);
        f90y_nir::typecheck::check(&body.recompose()).unwrap();
    }

    #[test]
    fn a_shift_by_an_enclosing_do_index_stays_in_place() {
        // The binder-only context cannot type `i`, so the outer call is
        // left for the host path — but the constant shift nested in its
        // argument still hoists, inside the loop body.
        let shifted_by_i = fcncall(
            "cshift",
            vec![
                (float64(), cshift_call("v", 1, 1)),
                (int32(), do_index("i", 1)),
                (int32(), int(1)),
            ],
        );
        let p = program(with_domain(
            "s",
            interval(1, 8),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("z", dfield(domain("s"), float64())),
                ]),
                do_over(
                    "i",
                    serial_interval(1, 3),
                    mv(
                        avar("z", everywhere()),
                        add(ld("v", everywhere()), shifted_by_i),
                    ),
                ),
            ),
        ));
        let mut body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(run(&mut body).unwrap(), 1);
        let Imp::Do(_, _, inner) = &body.stmts[0] else {
            panic!("the DO stays the only top-level statement")
        };
        let Imp::Sequentially(xs) = inner.as_ref() else {
            panic!("the hoisted move lands inside the loop body")
        };
        assert_eq!(xs.len(), 2);
        let Imp::Move(clauses) = &xs[1] else {
            panic!("the rewritten move")
        };
        let mut calls = Vec::new();
        clauses[0].src.walk(&mut |v| {
            if let Value::FcnCall(name, args) = v {
                calls.push((name.clone(), args[0].1.clone()));
            }
        });
        assert_eq!(
            calls,
            [("cshift".to_string(), ld("tmp0", everywhere()))],
            "the outer call stays, reading the hoisted inner shift"
        );
    }
}
