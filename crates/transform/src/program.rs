//! Decomposing lowered programs into binders plus a statement list, and
//! classifying statements for the blocking/partitioning passes.

use f90y_nir::shapecheck;
use f90y_nir::typecheck::{Ctx, Mode};
use f90y_nir::{Decl, FieldAction, Imp, LValue, NirError, Shape, Value};

/// One enclosing binder of the statement sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Binder {
    /// `WITH_DOMAIN(name, shape)`.
    Domain(String, Shape),
    /// `WITH_DECL(decls)`.
    Decls(Decl),
}

/// A lowered program split into its binders and top-level statements.
///
/// Lowered units have the form
/// `PROGRAM(WITH_DOMAIN*(WITH_DECL(SEQUENTIALLY [...])))`; transformation
/// passes operate on the statement vector and are reassembled by
/// [`ProgramBody::recompose`].
#[derive(Debug, Clone)]
pub struct ProgramBody {
    /// Enclosing binders, outermost first.
    pub binders: Vec<Binder>,
    /// The statement sequence.
    pub stmts: Vec<Imp>,
    /// Whether the original was wrapped in `PROGRAM`.
    pub programmed: bool,
    /// Names of transformation-introduced temporaries (in introduction
    /// order). Cleanup passes (`comm-cse`, `dce-temps`) restrict
    /// themselves to these: user variables are observable output and
    /// must never be merged or deleted.
    pub temps: Vec<String>,
}

/// How a statement participates in phase partitioning (paper §4.2: each
/// phase "either carries out a single computational action over data
/// with a common shape and alignment, or expresses a single
/// communication").
#[derive(Debug, Clone, PartialEq)]
pub enum StmtClass {
    /// A grid-local parallel computation over the given (resolved)
    /// shape — PE material.
    Compute(Shape),
    /// A communication move (its source is a communication intrinsic or
    /// a non-aligned section copy) over the given shape.
    Comm(Shape),
    /// Host-executed work (serial loops, scalar control, reductions to
    /// scalars, subscripted element moves).
    Host,
}

impl StmtClass {
    /// The computation shape, when this is a `Compute` phase.
    pub fn compute_shape(&self) -> Option<&Shape> {
        match self {
            StmtClass::Compute(s) => Some(s),
            _ => None,
        }
    }
}

impl ProgramBody {
    /// Split a lowered program.
    ///
    /// # Errors
    ///
    /// Fails when the term does not have the lowered-unit form.
    pub fn decompose(imp: &Imp) -> Result<ProgramBody, NirError> {
        let (programmed, mut cur) = match imp {
            Imp::Program(b) => (true, b.as_ref()),
            other => (false, other),
        };
        let mut binders = Vec::new();
        loop {
            match cur {
                Imp::WithDomain(name, shape, body) => {
                    binders.push(Binder::Domain(name.clone(), shape.clone()));
                    cur = body;
                }
                Imp::WithDecl(d, body) => {
                    binders.push(Binder::Decls(d.clone()));
                    cur = body;
                }
                _ => break,
            }
        }
        let stmts = match cur {
            Imp::Sequentially(xs) => xs.clone(),
            Imp::Skip => Vec::new(),
            other => vec![other.clone()],
        };
        Ok(ProgramBody {
            binders,
            stmts,
            programmed,
            temps: Vec::new(),
        })
    }

    /// Reassemble the program.
    pub fn recompose(&self) -> Imp {
        let mut body = Imp::seq(self.stmts.clone());
        for b in self.binders.iter().rev() {
            body = match b {
                Binder::Domain(name, shape) => {
                    Imp::WithDomain(name.clone(), shape.clone(), Box::new(body))
                }
                Binder::Decls(d) => Imp::WithDecl(d.clone(), Box::new(body)),
            };
        }
        if self.programmed {
            Imp::Program(Box::new(body))
        } else {
            body
        }
    }

    /// A static-analysis context with the binders applied.
    ///
    /// # Errors
    ///
    /// Fails when a binder references an unbound domain.
    pub fn ctx(&self) -> Result<Ctx, NirError> {
        let mut ctx = Ctx::new();
        for b in &self.binders {
            match b {
                Binder::Domain(name, shape) => ctx.bind_domain(name.clone(), shape)?,
                Binder::Decls(d) => {
                    for (id, ty, _) in d.bindings() {
                        let resolved = resolve_type(ty, &ctx)?;
                        ctx.bind_var(id.clone(), resolved);
                    }
                }
            }
        }
        Ok(ctx)
    }

    /// Add a declaration for a transformation-introduced temporary.
    /// The declared names are recorded in [`ProgramBody::temps`] so the
    /// cleanup passes know which variables they may merge or delete.
    pub fn add_temp_decl(&mut self, d: Decl) {
        for (id, _, _) in d.bindings() {
            self.temps.push(id.clone());
        }
        // Append into the innermost DECLSET binder (lowered units have
        // exactly one); create one if the program had none.
        for b in self.binders.iter_mut().rev() {
            if let Binder::Decls(Decl::DeclSet(ds)) = b {
                ds.push(d);
                return;
            }
            if let Binder::Decls(existing) = b {
                let prev = existing.clone();
                *b = Binder::Decls(Decl::DeclSet(vec![prev, d]));
                return;
            }
        }
        self.binders.push(Binder::Decls(Decl::DeclSet(vec![d])));
    }

    /// Classify one statement.
    ///
    /// # Errors
    ///
    /// Fails on static errors while computing shapes.
    pub fn classify(&self, stmt: &Imp, ctx: &mut Ctx) -> Result<StmtClass, NirError> {
        classify_stmt(stmt, ctx)
    }

    /// Remove the named declarations from the binders (used by
    /// `dce-temps` once a temporary has no remaining reads or writes).
    /// Returns how many declarations were removed.
    pub fn remove_decls(&mut self, names: &std::collections::HashSet<String>) -> usize {
        let mut removed = 0usize;
        for b in &mut self.binders {
            if let Binder::Decls(d) = b {
                let pruned = prune_decl(
                    std::mem::replace(d, Decl::DeclSet(Vec::new())),
                    names,
                    &mut removed,
                )
                .unwrap_or(Decl::DeclSet(Vec::new()));
                *b = Binder::Decls(pruned);
            }
        }
        self.temps.retain(|t| !names.contains(t));
        removed
    }

    /// Apply `f` to every statement list of the body, pre-order: the
    /// top-level list first, then the body of every nested loop, branch
    /// and binder, with the static context extended accordingly.
    ///
    /// This is the traversal every list-at-a-time pass shares (the
    /// paper's benchmarks keep their computations inside a serial
    /// time-step `DO`, so passes must reach them there).
    ///
    /// # Errors
    ///
    /// Propagates the first error `f` or a context extension raises.
    pub fn for_each_stmt_list<F>(&mut self, f: &mut F) -> Result<(), NirError>
    where
        F: FnMut(&mut Vec<Imp>, &mut Ctx) -> Result<(), NirError>,
    {
        let mut ctx = self.ctx()?;
        walk_stmt_lists(&mut self.stmts, &mut ctx, f)
    }
}

fn prune_decl(
    d: Decl,
    names: &std::collections::HashSet<String>,
    removed: &mut usize,
) -> Option<Decl> {
    match d {
        Decl::Decl(id, ty) => {
            if names.contains(&id) {
                *removed += 1;
                None
            } else {
                Some(Decl::Decl(id, ty))
            }
        }
        Decl::Initialized(id, ty, v) => {
            if names.contains(&id) {
                *removed += 1;
                None
            } else {
                Some(Decl::Initialized(id, ty, v))
            }
        }
        Decl::DeclSet(ds) => Some(Decl::DeclSet(
            ds.into_iter()
                .filter_map(|d| prune_decl(d, names, removed))
                .collect(),
        )),
    }
}

/// [`ProgramBody::for_each_stmt_list`] over an explicit list and
/// context (used for recursion and by callers that manage their own
/// context).
///
/// # Errors
///
/// Propagates the first error `f` or a context extension raises.
pub fn walk_stmt_lists<F>(stmts: &mut Vec<Imp>, ctx: &mut Ctx, f: &mut F) -> Result<(), NirError>
where
    F: FnMut(&mut Vec<Imp>, &mut Ctx) -> Result<(), NirError>,
{
    f(stmts, ctx)?;
    for s in stmts.iter_mut() {
        walk_nested(s, ctx, f)?;
    }
    Ok(())
}

fn walk_nested<F>(stmt: &mut Imp, ctx: &mut Ctx, f: &mut F) -> Result<(), NirError>
where
    F: FnMut(&mut Vec<Imp>, &mut Ctx) -> Result<(), NirError>,
{
    match stmt {
        Imp::Do(dom, shape, b) => {
            let resolved = ctx.resolve(shape)?;
            ctx.push_do(dom.clone(), resolved);
            let r = walk_boxed(b, ctx, f);
            ctx.pop_do();
            r
        }
        Imp::While(_, b) => walk_boxed(b, ctx, f),
        Imp::IfThenElse(_, t, e) => {
            walk_boxed(t, ctx, f)?;
            walk_boxed(e, ctx, f)
        }
        Imp::WithDecl(d, b) => {
            // Bind the locals in a clone (scoping without frames).
            let mut inner = ctx.clone();
            for (id, ty, _) in d.bindings() {
                let resolved = resolve_type(ty, &inner)?;
                inner.bind_var(id.clone(), resolved);
            }
            walk_boxed(b, &mut inner, f)
        }
        Imp::WithDomain(name, shape, b) => {
            let mut inner = ctx.clone();
            inner.bind_domain(name.clone(), shape)?;
            walk_boxed(b, &mut inner, f)
        }
        _ => Ok(()),
    }
}

fn walk_boxed<F>(b: &mut Box<Imp>, ctx: &mut Ctx, f: &mut F) -> Result<(), NirError>
where
    F: FnMut(&mut Vec<Imp>, &mut Ctx) -> Result<(), NirError>,
{
    let mut stmts = match std::mem::replace(b.as_mut(), Imp::Skip) {
        Imp::Sequentially(xs) => xs,
        Imp::Skip => Vec::new(),
        other => vec![other],
    };
    let r = walk_stmt_lists(&mut stmts, ctx, f);
    **b = Imp::seq(stmts);
    r
}

/// Classify a statement against a context (see [`StmtClass`]).
///
/// # Errors
///
/// Fails on static errors while computing shapes.
pub fn classify_stmt(stmt: &Imp, ctx: &mut Ctx) -> Result<StmtClass, NirError> {
    match stmt {
        Imp::Move(clauses) => {
            // A single clause whose source is a top-level communication
            // intrinsic into a whole array: a communication phase.
            if let [clause] = clauses.as_slice() {
                if let Value::FcnCall(name, _) = &clause.src {
                    if matches!(name.as_str(), "cshift" | "eoshift") && clause.is_unmasked() {
                        if let LValue::AVar(_, FieldAction::Everywhere) = &clause.dst {
                            if let Some(s) = shapecheck::clause_shape(clause, ctx)? {
                                return Ok(StmtClass::Comm(s));
                            }
                        }
                    }
                }
            }
            if shapecheck::is_gridlocal_computation(stmt, ctx)? {
                let shape = shapecheck::move_shape(clauses, ctx)?
                    .expect("gridlocal computations have a shape");
                return Ok(StmtClass::Compute(shape));
            }
            Ok(StmtClass::Host)
        }
        _ => Ok(StmtClass::Host),
    }
}

pub(crate) fn resolve_type(ty: &f90y_nir::Type, ctx: &Ctx) -> Result<f90y_nir::Type, NirError> {
    match ty {
        f90y_nir::Type::Scalar(s) => Ok(f90y_nir::Type::Scalar(*s)),
        f90y_nir::Type::DField { shape, elem } => Ok(f90y_nir::Type::DField {
            shape: ctx.resolve(shape)?,
            elem: Box::new(resolve_type(elem, ctx)?),
        }),
    }
}

/// Shorthand used by passes: a checker in shape mode.
pub fn shape_checker() -> f90y_nir::typecheck::Checker {
    f90y_nir::typecheck::Checker::new(Mode::Shapes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_nir::build::*;

    fn sample() -> Imp {
        program(with_domain(
            "s",
            interval(1, 8),
            with_decl(
                declset(vec![decl("a", dfield(domain("s"), float64()))]),
                seq(vec![
                    mv(avar("a", everywhere()), f64c(1.0)),
                    mv(avar("a", everywhere()), f64c(2.0)),
                ]),
            ),
        ))
    }

    #[test]
    fn decompose_recompose_roundtrips() {
        let p = sample();
        let body = ProgramBody::decompose(&p).unwrap();
        assert_eq!(body.binders.len(), 2);
        assert_eq!(body.stmts.len(), 2);
        assert!(body.programmed);
        assert_eq!(body.recompose(), p);
    }

    #[test]
    fn classification() {
        let p = sample();
        let body = ProgramBody::decompose(&p).unwrap();
        let mut ctx = body.ctx().unwrap();
        assert!(matches!(
            body.classify(&body.stmts[0], &mut ctx).unwrap(),
            StmtClass::Compute(_)
        ));
        // A cshift move is Comm.
        let comm = mv(
            avar("a", everywhere()),
            fcncall(
                "cshift",
                vec![
                    (float64(), ld("a", everywhere())),
                    (int32(), int(1)),
                    (int32(), int(1)),
                ],
            ),
        );
        assert!(matches!(
            body.classify(&comm, &mut ctx).unwrap(),
            StmtClass::Comm(_)
        ));
        // A serial DO is Host.
        let host = do_over("i", serial_interval(1, 4), Imp::Skip);
        assert!(matches!(
            body.classify(&host, &mut ctx).unwrap(),
            StmtClass::Host
        ));
    }

    #[test]
    fn temp_decls_land_in_the_declset() {
        let p = sample();
        let mut body = ProgramBody::decompose(&p).unwrap();
        body.add_temp_decl(decl("tmp0", dfield(domain("s"), float64())));
        let ctx = body.ctx().unwrap();
        assert!(ctx.var("a").is_some());
        assert!(ctx.var("tmp0").is_some());
        assert_eq!(body.temps, ["tmp0"]);
        // Recomposed program still checks.
        f90y_nir::typecheck::check(&body.recompose()).unwrap();
    }
}
