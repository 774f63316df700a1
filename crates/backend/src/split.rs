//! The CM2/NIR compiler: division of labour between host and nodes.
//!
//! "The CM2/NIR compiler just cuts out the computation phases and
//! patches the remaining program to include appropriate NIR calling
//! code. Each computation phase will be compiled as a single node
//! procedure, and the remainder will become supporting host code."
//! (paper §5.1)

use f90y_nir::typecheck::Ctx;
use f90y_nir::{Const, FieldAction, Imp, LValue, NirError, Value};
use f90y_transform::program::{classify_stmt, ProgramBody, StmtClass};

use crate::pe::{self, PeOptions};
use crate::tape::Lowering;
use crate::{BackendError, CompiledProgram, NodeBlock};

/// Partition an optimized program and compile its computation blocks.
///
/// # Errors
///
/// Fails when the program is not a lowered unit or a block fails to
/// compile.
pub fn split(optimized: &Imp) -> Result<CompiledProgram, BackendError> {
    split_with_options(optimized, PeOptions::full())
}

/// [`split`] with explicit PE code-generation switches.
///
/// # Errors
///
/// As [`split`].
pub fn split_with_options(
    optimized: &Imp,
    options: PeOptions,
) -> Result<CompiledProgram, BackendError> {
    let body = ProgramBody::decompose(optimized)?;
    let mut ctx = body.ctx()?;
    let mut split = Split {
        blocks: Vec::new(),
        options,
    };
    let mut host = Lowering::new(&body.binders)?;
    split.stmts(&body.stmts, &mut ctx, &mut host)?;
    Ok(CompiledProgram {
        blocks: split.blocks,
        host: host.finish(),
    })
}

/// The node half of the partition, growing as the walk cuts blocks out;
/// the host half goes statement by statement to a [`Lowering`].
struct Split {
    blocks: Vec<NodeBlock>,
    options: PeOptions,
}

impl Split {
    fn stmts<'p>(
        &mut self,
        stmts: &'p [Imp],
        ctx: &mut Ctx,
        host: &mut Lowering<'p>,
    ) -> Result<(), BackendError> {
        stmts.iter().try_for_each(|s| self.stmt(s, ctx, host))
    }

    fn stmt<'p>(
        &mut self,
        stmt: &'p Imp,
        ctx: &mut Ctx,
        host: &mut Lowering<'p>,
    ) -> Result<(), BackendError> {
        match classify_stmt(stmt, ctx)? {
            StmtClass::Compute(shape) => {
                let Imp::Move(clauses) = stmt else {
                    unreachable!("computation phases are moves")
                };
                let name = format!("Pk{}vs1", self.blocks.len());
                let compiled = pe::compile_block_with(&name, &shape, clauses, ctx, self.options)?;
                for cb in compiled {
                    let block = NodeBlock {
                        index: self.blocks.len(),
                        shape: shape.clone(),
                        clauses: cb.clauses,
                        routine: cb.routine,
                        array_params: cb.array_params,
                        scalar_params: cb.scalar_params,
                        stats: cb.stats,
                    };
                    host.dispatch(&block)?;
                    self.blocks.push(block);
                }
                Ok(())
            }
            StmtClass::Comm(_) => {
                let Imp::Move(clauses) = stmt else {
                    unreachable!("communication phases are moves")
                };
                let [clause] = clauses.as_slice() else {
                    unreachable!("communication phases are single-clause")
                };
                let LValue::AVar(dst, FieldAction::Everywhere) = &clause.dst else {
                    unreachable!("communication targets are whole arrays")
                };
                let Value::FcnCall(name, args) = &clause.src else {
                    unreachable!("communication sources are intrinsic calls")
                };
                // Argument layouts (see lowering): cshift(array, shift, dim),
                // eoshift(array, shift, dim[, boundary]).
                let Value::AVar(src, FieldAction::Everywhere) = &args[0].1 else {
                    // A composite argument the transformations could not
                    // materialise (e.g. typed under a DO binding): the host
                    // evaluates it through the runtime instead.
                    return host.host_move(clauses);
                };
                let arg = |k: usize| args.get(k).map(|(_, v)| v);
                let shift =
                    arg(1).ok_or_else(|| BackendError::Malformed("missing SHIFT".into()))?;
                let dim = arg(2).unwrap_or(&Value::Scalar(Const::I32(1)));
                let boundary =
                    (name == "eoshift").then(|| arg(3).unwrap_or(&Value::Scalar(Const::F64(0.0))));
                host.comm((dst, src), dim, shift, boundary)
            }
            StmtClass::Host => match stmt {
                Imp::Move(clauses) => host.host_move(clauses),
                Imp::Do(dom, shape, b) => {
                    let resolved = ctx.resolve(shape)?;
                    ctx.push_do(dom.clone(), resolved.clone());
                    let done = host.do_loop(dom, &resolved, |host| self.body(b, ctx, host));
                    ctx.pop_do();
                    done
                }
                Imp::While(cond, b) => host.while_loop(cond, |host| self.body(b, ctx, host)),
                Imp::IfThenElse(cond, t, e) => host.if_else(cond, |host, taken| {
                    self.body(if taken { t } else { e }, ctx, host)
                }),
                Imp::WithDecl(d, b) => {
                    let mut inner = ctx.clone();
                    for (id, ty, _) in d.bindings() {
                        let resolved = resolve_type(ty, &inner)?;
                        inner.bind_var(id.clone(), resolved);
                    }
                    host.with_decl(d, |host| self.body(b, &mut inner, host))
                }
                Imp::WithDomain(name, shape, b) => {
                    let mut inner = ctx.clone();
                    inner.bind_domain(name.clone(), shape)?;
                    let resolved = inner.resolve(shape)?;
                    host.with_domain(name, resolved, |host| self.body(b, &mut inner, host))
                }
                Imp::Sequentially(xs) | Imp::Concurrently(xs) => self.stmts(xs, ctx, host),
                Imp::Program(b) => self.body(b, ctx, host),
                Imp::Skip => Ok(()),
            },
        }
    }

    fn body<'p>(
        &mut self,
        b: &'p Imp,
        ctx: &mut Ctx,
        host: &mut Lowering<'p>,
    ) -> Result<(), BackendError> {
        match b {
            Imp::Sequentially(xs) => self.stmts(xs, ctx, host),
            Imp::Skip => Ok(()),
            other => self.stmt(other, ctx, host),
        }
    }
}

fn resolve_type(ty: &f90y_nir::Type, ctx: &Ctx) -> Result<f90y_nir::Type, NirError> {
    match ty {
        f90y_nir::Type::Scalar(s) => Ok(f90y_nir::Type::Scalar(*s)),
        f90y_nir::Type::DField { shape, elem } => Ok(f90y_nir::Type::DField {
            shape: ctx.resolve(shape)?,
            elem: Box::new(resolve_type(elem, ctx)?),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_nir::build::*;

    #[test]
    fn fig11_partition_cuts_blocks_and_keeps_host_code() {
        // compute(A) ; comm ; compute(A) inside a serial DO.
        let p = program(with_domain(
            "s",
            interval(1, 16),
            with_decl(
                declset(vec![
                    decl("v", dfield(domain("s"), float64())),
                    decl("t", dfield(domain("s"), float64())),
                ]),
                seq(vec![
                    mv(avar("v", everywhere()), local_under(domain("s"), 1)),
                    do_over(
                        "step",
                        serial_interval(1, 3),
                        seq(vec![
                            mv(
                                avar("t", everywhere()),
                                fcncall(
                                    "cshift",
                                    vec![
                                        (float64(), ld("v", everywhere())),
                                        (int32(), int(1)),
                                        (int32(), int(1)),
                                    ],
                                ),
                            ),
                            mv(
                                avar("v", everywhere()),
                                add(ld("v", everywhere()), ld("t", everywhere())),
                            ),
                        ]),
                    ),
                ]),
            ),
        ));
        let compiled = split(&p).unwrap();
        assert_eq!(compiled.blocks.len(), 2, "init block + in-loop block");
        // Host: two allocations, a dispatch, then a DO around comm +
        // dispatch, then the finals.
        use crate::tape::Op;
        let ops = &compiled.host.ops;
        assert!(matches!(ops[..2], [Op::Alloc(0, None), Op::Alloc(1, None)]));
        assert!(matches!(ops[2], Op::Dispatch(0, ..)));
        assert!(matches!(ops[3], Op::DoInit(0, 1, 3, 8)));
        assert!(matches!(ops[4], Op::Charge(2)));
        assert!(matches!(ops[5], Op::Shift(1, 0, ..)));
        assert!(matches!(ops[6], Op::Dispatch(1, ..)));
        assert!(matches!(ops[7], Op::DoNext(0, 3, 4)));
        assert!(matches!(ops[8], Op::Leave(..)));
        assert_eq!(ops.len(), 9);
    }
}
