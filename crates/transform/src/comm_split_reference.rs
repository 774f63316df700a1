//! `comm-split` as it was before [`crate::comm_split`] typed against one
//! growing context: `body.ctx()` rebuilt, and every declared name
//! re-collected and linearly searched, per hoisted call. Kept as the
//! specification the one-context version is property-tested against.

use f90y_nir::typecheck::{Checker, Mode};
use f90y_nir::{Decl, FieldAction, Imp, LValue, MoveClause, NirError, Type, Value};

use crate::program::{Binder, ProgramBody};

/// Run the pass over every statement; returns the number of temporaries
/// introduced.
///
/// # Errors
///
/// Fails on static errors while typing hoisted calls.
pub fn run(body: &mut ProgramBody) -> Result<usize, NirError> {
    let mut counter = 0usize;
    let mut introduced = 0usize;
    let mut out: Vec<Imp> = Vec::with_capacity(body.stmts.len());
    let stmts = std::mem::take(&mut body.stmts);
    for stmt in stmts {
        let mut prefix: Vec<Imp> = Vec::new();
        let rewritten = rewrite_stmt(stmt, body, &mut counter, &mut prefix, &mut introduced)?;
        out.extend(prefix);
        out.push(rewritten);
    }
    body.stmts = out;
    Ok(introduced)
}

fn rewrite_stmt(
    stmt: Imp,
    body: &mut ProgramBody,
    counter: &mut usize,
    prefix: &mut Vec<Imp>,
    introduced: &mut usize,
) -> Result<Imp, NirError> {
    match stmt {
        Imp::Move(clauses) => {
            let mut new_clauses = Vec::with_capacity(clauses.len());
            for c in clauses {
                // If the source IS a bare communication call into a
                // whole-array unmasked target, it already is a
                // communication phase; leave it.
                let bare_comm = matches!(&c.src, Value::FcnCall(n, _) if is_comm(n))
                    && c.is_unmasked()
                    && matches!(c.dst, LValue::AVar(_, FieldAction::Everywhere));
                if bare_comm {
                    // Keep the outer call in place but still hoist any
                    // communication nested in its arguments, and
                    // materialise a composite array argument.
                    let Value::FcnCall(name, args) = c.src else {
                        unreachable!("bare_comm matched FcnCall")
                    };
                    let mut args: Vec<(Type, Value)> = args
                        .into_iter()
                        .map(|(t, a)| Ok((t, hoist_value(a, body, counter, prefix, introduced)?)))
                        .collect::<Result<_, NirError>>()?;
                    if let Some((_, arg0)) = args.first() {
                        let needs_temp = !matches!(
                            arg0,
                            Value::AVar(_, FieldAction::Everywhere) | Value::Scalar(_)
                        );
                        if needs_temp {
                            let arg0 = args[0].1.clone();
                            if let Some(tmp) = materialize(arg0, body, counter, prefix, introduced)?
                            {
                                args[0].1 = tmp;
                            }
                        }
                    }
                    new_clauses.push(MoveClause {
                        mask: c.mask,
                        src: Value::FcnCall(name, args),
                        dst: c.dst,
                    });
                    continue;
                }
                let mask = hoist_value(c.mask, body, counter, prefix, introduced)?;
                let src = hoist_value(c.src, body, counter, prefix, introduced)?;
                new_clauses.push(MoveClause {
                    mask,
                    src,
                    dst: c.dst,
                });
            }
            Ok(Imp::Move(new_clauses))
        }
        Imp::IfThenElse(c, t, e) => {
            let c = hoist_value(c, body, counter, prefix, introduced)?;
            // Branch bodies get their own prefixes *inside* the branch
            // (hoisting across a branch would compute unconditionally).
            let t = rewrite_nested(*t, body, counter, introduced)?;
            let e = rewrite_nested(*e, body, counter, introduced)?;
            Ok(Imp::IfThenElse(c, Box::new(t), Box::new(e)))
        }
        Imp::While(c, b) => {
            // The condition re-evaluates each iteration: hoisting it out
            // once would be wrong. Communication inside scalar loop
            // conditions is left in place (the host evaluates it).
            let b = rewrite_nested(*b, body, counter, introduced)?;
            Ok(Imp::While(c, Box::new(b)))
        }
        Imp::Do(dom, shape, b) => {
            let b = rewrite_nested(*b, body, counter, introduced)?;
            Ok(Imp::Do(dom, shape, Box::new(b)))
        }
        Imp::Sequentially(xs) => {
            let mut out = Vec::with_capacity(xs.len());
            for x in xs {
                let mut p = Vec::new();
                let r = rewrite_stmt(x, body, counter, &mut p, introduced)?;
                out.extend(p);
                out.push(r);
            }
            Ok(Imp::seq(out))
        }
        other => Ok(other),
    }
}

fn rewrite_nested(
    stmt: Imp,
    body: &mut ProgramBody,
    counter: &mut usize,
    introduced: &mut usize,
) -> Result<Imp, NirError> {
    let mut prefix = Vec::new();
    let r = rewrite_stmt(stmt, body, counter, &mut prefix, introduced)?;
    prefix.push(r);
    Ok(Imp::seq(prefix))
}

fn is_comm(name: &str) -> bool {
    matches!(name, "cshift" | "eoshift")
}

/// Materialise an array-valued expression into a fresh temporary,
/// emitting `tmp = expr` into `prefix`. Returns `None` (leaving the
/// expression in place) when the expression cannot be typed in the
/// binder-only context or is scalar.
fn materialize(
    v: Value,
    body: &mut ProgramBody,
    counter: &mut usize,
    prefix: &mut Vec<Imp>,
    introduced: &mut usize,
) -> Result<Option<Value>, NirError> {
    let mut ctx = body.ctx()?;
    let vt = match Checker::new(Mode::Both).type_of(&v, &mut ctx) {
        Ok(vt) => vt,
        Err(_) => return Ok(None),
    };
    let Some(shape) = vt.shape else {
        return Ok(None);
    };
    let tmp = fresh_temp(body, counter);
    body.add_temp_decl(Decl::Decl(
        tmp.clone(),
        Type::dfield(shape, Type::Scalar(vt.elem)),
    ));
    prefix.push(Imp::Move(vec![MoveClause::unmasked(
        LValue::AVar(tmp.clone(), FieldAction::Everywhere),
        v,
    )]));
    *introduced += 1;
    Ok(Some(Value::AVar(tmp, FieldAction::Everywhere)))
}

/// Hoist communication calls (post-order) out of a value, emitting
/// `tmp = call` moves into `prefix`.
fn hoist_value(
    v: Value,
    body: &mut ProgramBody,
    counter: &mut usize,
    prefix: &mut Vec<Imp>,
    introduced: &mut usize,
) -> Result<Value, NirError> {
    match v {
        Value::FcnCall(name, args) if is_comm(&name) => {
            // Hoist nested communication in the array argument first.
            let mut args: Vec<(Type, Value)> = args
                .into_iter()
                .map(|(t, a)| Ok((t, hoist_value(a, body, counter, prefix, introduced)?)))
                .collect::<Result<_, NirError>>()?;
            // A composite array argument (`CSHIFT(c + a, …)`) must be
            // computed before it can be communicated: materialise it
            // into its own temporary (a computation phase).
            if let Some((_, arg0)) = args.first() {
                let needs_temp = !matches!(
                    arg0,
                    Value::AVar(_, FieldAction::Everywhere) | Value::Scalar(_)
                );
                if needs_temp {
                    let arg0 = args[0].1.clone();
                    if let Some(tmp) = materialize(arg0.clone(), body, counter, prefix, introduced)?
                    {
                        args[0].1 = tmp;
                    }
                }
            }
            let call = Value::FcnCall(name, args);
            // Type the call to size the temporary. If typing fails here
            // — e.g. the shift amount references an enclosing DO index,
            // which this binder-only context cannot see — leave the call
            // in place for the host path rather than mis-hoisting.
            let mut ctx = body.ctx()?;
            let vt = match Checker::new(Mode::Both).type_of(&call, &mut ctx) {
                Ok(vt) => vt,
                Err(_) => return Ok(call),
            };
            let shape = vt
                .shape
                .ok_or_else(|| NirError::Shape("communication intrinsic on a scalar".into()))?;
            let elem = vt.elem;
            let tmp = fresh_temp(body, counter);
            body.add_temp_decl(Decl::Decl(
                tmp.clone(),
                Type::dfield(shape, Type::Scalar(elem)),
            ));
            prefix.push(Imp::Move(vec![MoveClause::unmasked(
                LValue::AVar(tmp.clone(), FieldAction::Everywhere),
                call,
            )]));
            *introduced += 1;
            Ok(Value::AVar(tmp, FieldAction::Everywhere))
        }
        Value::FcnCall(name, args) => {
            let args = args
                .into_iter()
                .map(|(t, a)| Ok((t, hoist_value(a, body, counter, prefix, introduced)?)))
                .collect::<Result<_, NirError>>()?;
            Ok(Value::FcnCall(name, args))
        }
        Value::Unary(op, a) => Ok(Value::Unary(
            op,
            Box::new(hoist_value(*a, body, counter, prefix, introduced)?),
        )),
        Value::Binary(op, a, b) => Ok(Value::Binary(
            op,
            Box::new(hoist_value(*a, body, counter, prefix, introduced)?),
            Box::new(hoist_value(*b, body, counter, prefix, introduced)?),
        )),
        other => Ok(other),
    }
}

/// A temporary name not colliding with any declared name.
fn fresh_temp(body: &ProgramBody, counter: &mut usize) -> String {
    let taken: Vec<&String> = body
        .binders
        .iter()
        .flat_map(|b| match b {
            Binder::Decls(d) => d.bindings(),
            Binder::Domain(..) => Vec::new(),
        })
        .map(|(id, _, _)| id)
        .collect();
    loop {
        let name = format!("tmp{counter}");
        *counter += 1;
        if !taken.contains(&&name) {
            return name;
        }
    }
}

mod tests {
    use f90y_nir::build::*;
    use f90y_nir::{BinOp, Imp, MoveClause, Value};
    use proptest::prelude::*;
    use proptest::TestRng;

    use crate::program::ProgramBody;

    /// Arrays over the one domain; `tmp1` and `tmp3` are *user* arrays
    /// the temporary numbering has to step over.
    const ARRAYS: [&str; 6] = ["a", "b", "c", "d", "tmp1", "tmp3"];

    fn array(rng: &mut TestRng) -> &'static str {
        ARRAYS[rng.below(ARRAYS.len() as u64) as usize]
    }

    fn shift(arg: Value, amount: Value, rng: &mut TestRng) -> Value {
        let name = if rng.below(3) == 0 {
            "eoshift"
        } else {
            "cshift"
        };
        fcncall(
            name,
            vec![(float64(), arg), (int32(), amount), (int32(), int(1))],
        )
    }

    /// An array-valued expression; `index` is a `DO` index in scope, used
    /// as a shift amount the binder-only context cannot type.
    fn expr(rng: &mut TestRng, depth: u32, index: Option<&str>) -> Value {
        if depth == 0 {
            return ld(array(rng), everywhere());
        }
        let d = depth - 1;
        match rng.below(7) {
            0 => ld(array(rng), everywhere()),
            1 => add(expr(rng, d, index), expr(rng, d, index)),
            2 => mul(f64c(0.5), expr(rng, d, index)),
            3 => fcncall(
                "merge",
                vec![
                    (float64(), expr(rng, d, index)),
                    (float64(), ld(array(rng), everywhere())),
                    (logical32(), bin(BinOp::Gt, expr(rng, d, index), f64c(1.0))),
                ],
            ),
            4 => match index {
                Some(i) => shift(expr(rng, d, index), do_index(i, 1), rng),
                None => shift(ld(array(rng), everywhere()), int(-1), rng),
            },
            _ => {
                let amount = int(rng.below(5) as i32 - 2);
                shift(expr(rng, d, index), amount, rng)
            }
        }
    }

    fn mv_stmt(rng: &mut TestRng, index: Option<&str>) -> Imp {
        let dst = avar(array(rng), everywhere());
        match rng.below(5) {
            0 => mv_masked(
                bin(BinOp::Gt, expr(rng, 2, index), f64c(1.0)),
                dst,
                expr(rng, 2, index),
            ),
            // Bare communication: simple, composite and nested arguments.
            1 => {
                let arg = expr(rng, 2, index);
                mv(dst, shift(arg, int(1), rng))
            }
            2 => mv_multi(vec![
                MoveClause::unmasked(dst, expr(rng, 2, index)),
                MoveClause::unmasked(avar(array(rng), everywhere()), expr(rng, 1, index)),
            ]),
            _ => mv(dst, expr(rng, 3, index)),
        }
    }

    fn block(rng: &mut TestRng, depth: u32, index: Option<&str>) -> Imp {
        let n = 1 + rng.below(3);
        seq((0..n).map(|_| stmt(rng, depth, index)).collect())
    }

    fn stmt(rng: &mut TestRng, depth: u32, index: Option<&str>) -> Imp {
        if depth == 0 {
            return mv_stmt(rng, index);
        }
        let d = depth - 1;
        let cond = bin(BinOp::Gt, svar("x"), f64c(0.0));
        match rng.below(8) {
            0 => ifte(cond, block(rng, d, index), block(rng, d, index)),
            1 => while_loop(cond, block(rng, d, index)),
            2 => do_over("i", serial_interval(1, 3), block(rng, d, Some("i"))),
            3 => block(rng, d, index),
            _ => mv_stmt(rng, index),
        }
    }

    fn random_program(rng: &mut TestRng) -> Imp {
        let mut decls: Vec<_> = ARRAYS
            .iter()
            .map(|a| decl(a, dfield(domain("s"), float64())))
            .collect();
        decls.push(decl("x", float64()));
        let n = 1 + rng.below(5);
        let stmts = (0..n).map(|_| stmt(rng, 2, None)).collect();
        program(with_domain(
            "s",
            interval(1, 16),
            with_decl(declset(decls), seq(stmts)),
        ))
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn one_context_matches_a_rebuild_per_hoist(seed in any::<u64>()) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let p = random_program(&mut rng);
            let mut new = ProgramBody::decompose(&p).unwrap();
            let mut old = new.clone();
            let n_new = crate::comm_split::run(&mut new).unwrap();
            let n_old = super::run(&mut old).unwrap();
            prop_assert_eq!(n_new, n_old);
            prop_assert_eq!(&new.stmts, &old.stmts);
            prop_assert_eq!(&new.temps, &old.temps);
            prop_assert_eq!(&new.binders, &old.binders);
            // The user's arrays kept their names out of the temporaries'.
            prop_assert!(!new.temps.iter().any(|t| t == "tmp1" || t == "tmp3"));
            f90y_nir::typecheck::check(&new.recompose())
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
    }
}
