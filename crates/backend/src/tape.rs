//! The host tape: the host remainder program, compiled.
//!
//! As the CM2/NIR split walks a program it hands every statement it
//! leaves to the host to a [`Lowering`], which appends to one flat op
//! list. Everything lexical is settled here, once: names become slot
//! indices (scoping and `WITH_DECL` shadowing are static, the host
//! program has no calls), domains are resolved, so array geometry, `DO`
//! bounds and section ranges are constants on the tape; control flow is
//! jump targets; each clause carries its precomputed host-op charge.
//! What could only fail at run time — an unbound name, a subscript count
//! that is not the rank, a literal shift `DIM` outside the rank, a
//! section outside the bounds — is refused here as
//! [`BackendError::Malformed`].
//!
//! [`crate::fe`] is the one loop over the tape; running a program and
//! profiling it statically are that loop over two machines. Printing a
//! tape gives the listing behind `f90yc --emit host`.

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use f90y_cm2::runtime::ReduceOp;
use f90y_nir::array::Scalar as NScalar;
use f90y_nir::eval::const_to_scalar;
use f90y_nir::{
    BinOp, Const, Decl, FieldAction, LValue, MoveClause, ScalarType, SectionRange, Shape, Type,
    UnOp, Value,
};
use f90y_transform::program::Binder;

use crate::{ArrayParam, BackendError, NodeBlock};

/// Extent and lower bound of each axis of an array or iteration space.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Grid {
    /// Extent of each axis.
    pub dims: Vec<usize>,
    /// Lower bound of each axis.
    pub lower: Vec<i64>,
}

impl Grid {
    fn of(resolved: &Shape) -> Grid {
        let extents = resolved.extents();
        Grid {
            dims: extents.iter().map(|e| e.len()).collect(),
            lower: extents.iter().map(|e| e.lo).collect(),
        }
    }
}

/// A declared array: the name finals are captured under, and the
/// geometry and element type every call on it needs.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ArraySlot {
    /// Source name.
    pub name: String,
    /// Extents and lower bounds.
    pub grid: Grid,
    /// Element type.
    pub elem: ScalarType,
}

/// A declared scalar; assignments convert to its type.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScalarSlot {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: ScalarType,
}

/// Runtime intrinsics the host evaluates through the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Intrinsic {
    /// `SUM`/`MAXVAL`/`MINVAL`: `(array)` to a scalar, `(array, dim)`
    /// along one axis.
    Reduce(ReduceOp),
    /// `SPREAD(array, dim, ncopies)`.
    Spread,
    /// `MERGE(tsource, fsource, mask)`.
    Merge,
    /// `TRANSPOSE(matrix)`.
    Transpose,
    /// Host-context `CSHIFT(array, shift, dim)`.
    Cshift,
    /// Host-context `EOSHIFT(array, shift, dim[, boundary])`.
    Eoshift,
}

impl Intrinsic {
    /// The source-level name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Intrinsic::Reduce(ReduceOp::Sum) => "sum",
            Intrinsic::Reduce(ReduceOp::Max) => "maxval",
            Intrinsic::Reduce(ReduceOp::Min) => "minval",
            Intrinsic::Spread => "spread",
            Intrinsic::Merge => "merge",
            Intrinsic::Transpose => "transpose",
            Intrinsic::Cshift => "cshift",
            Intrinsic::Eoshift => "eoshift",
        }
    }
}

/// A host expression with every name resolved to a slot.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    /// A literal.
    Const(NScalar),
    /// A scalar slot.
    Var(usize),
    /// A `DO` counter, read as a 32-bit integer.
    Index(usize),
    /// One element of an array slot (one subscript per axis): a
    /// front-end read.
    Elem(usize, Vec<Expr>),
    /// A whole array, read back to the host.
    Whole(usize),
    /// A strided section of an array, inside its bounds.
    Section(usize, Vec<SectionRange>),
    /// At every point of the grid, its coordinate along the zero-based
    /// axis.
    Coords(Arc<Grid>, usize),
    /// An elementwise unary operation.
    Unary(UnOp, Box<Expr>),
    /// An elementwise binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// A runtime intrinsic.
    Call(Intrinsic, Vec<Expr>),
}

impl Expr {
    /// Whether evaluating this can call the machine: decides if a guard
    /// only known at run time leaves the call sequence unknown too.
    pub(crate) fn touches_machine(&self) -> bool {
        match self {
            Expr::Const(_) | Expr::Var(_) | Expr::Index(_) | Expr::Coords(..) => false,
            Expr::Unary(_, a) => a.touches_machine(),
            Expr::Binary(_, a, b) => a.touches_machine() || b.touches_machine(),
            Expr::Elem(..) | Expr::Whole(_) | Expr::Section(..) | Expr::Call(..) => true,
        }
    }
}

/// One pointer argument of a dispatch.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Arg {
    /// An array slot.
    Array(usize),
    /// The machine's coordinate stream of the zero-based axis over the
    /// block's grid.
    Coord(Arc<Grid>, usize),
}

/// Where a host move lands.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Dst {
    /// A scalar slot.
    Scalar(usize),
    /// One element of an array slot: a front-end write.
    Elem(usize, Vec<Expr>),
    /// A section of an array slot (a whole-array target is the section
    /// of all of it), over the router: read, merge under the mask on
    /// the host, write back, charge a router move.
    Section(usize, Vec<SectionRange>),
}

/// One step of the host tape. Slots and counters are indices into the
/// run's register files, jump targets are op indices.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Op {
    /// `Scalar(slot, init)`: declare a scalar — zero, or its initializer
    /// converted.
    Scalar(usize, Option<Expr>),
    /// `Alloc(array, init)`: declare an array — allocate, charge 2 host
    /// ops, fill if initialized.
    Alloc(usize, Option<Expr>),
    /// `Leave(scalars, arrays)`: leave a scope — capture its slots as
    /// finals (the first capture of a name wins), moving the arrays out
    /// of the machine.
    Leave(Range<usize>, Range<usize>),
    /// `Dispatch(block, pointer args, scalar args)`: push the arguments
    /// over the IFIFO and run a node block.
    Dispatch(usize, Vec<Arg>, Vec<Expr>),
    /// `Shift(dst, src, dim, shift, boundary)`: a grid communication
    /// between array slots, `dst = cshift(src, …)` or, with a boundary,
    /// `eoshift`; `dim` is one-based; 4 host ops.
    Shift(usize, usize, Expr, Expr, Option<Expr>),
    /// `Move(dst, mask, src, ops)`: a host move — charge `ops`, then
    /// `dst = src` where `mask`. For a section, mask and source may be
    /// arrays conforming to it.
    Move(Dst, Expr, Expr, u64),
    /// Charge host bookkeeping (2 per `DO` trip).
    Charge(u64),
    /// `DoInit(counter, lo, hi, exit)`: enter one axis of a `DO` —
    /// counter = `lo`; an empty axis goes to `exit`.
    DoInit(usize, i64, i64, usize),
    /// `DoNext(counter, hi, body)`: close one axis of a `DO` — below
    /// `hi`, step the counter and go to `body`.
    DoNext(usize, i64, usize),
    /// `Branch(cond, ops, looping, target)`: charge `ops` and test
    /// `cond` — fall through when true, else go to `target`. `looping`
    /// tells a `WHILE` test from an `IF`.
    Branch(Expr, u64, bool, usize),
    /// Go to an op. Only a `WHILE` jumps backwards (to its test), and
    /// each such trip is counted against the run's fuel.
    Jump(usize),
}

/// Host statements by kind, through every nesting level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmtCounts {
    /// Node-block dispatches.
    pub dispatches: usize,
    /// Runtime communication calls (`CSHIFT`/`EOSHIFT` statements).
    pub comms: usize,
    /// Host-executed moves.
    pub moves: usize,
    /// `DO` and `WHILE` loops.
    pub loops: usize,
    /// `IF`s.
    pub ifs: usize,
    /// `WITH_DECL` and `WITH_DOMAIN` scopes.
    pub scopes: usize,
}

impl StmtCounts {
    /// Every host statement.
    pub fn total(&self) -> usize {
        self.dispatches + self.comms + self.control() + self.scopes
    }

    /// Statements the host executes itself: moves, loops and `IF`s.
    pub fn control(&self) -> usize {
        self.moves + self.loops + self.ifs
    }
}

/// The compiled host program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostTape {
    /// The ops, in execution order.
    pub(crate) ops: Vec<Op>,
    /// Every array declaration, by slot.
    pub(crate) arrays: Vec<ArraySlot>,
    /// Every scalar declaration, by slot.
    pub(crate) scalars: Vec<ScalarSlot>,
    /// How many `DO` counters the ops use.
    pub(crate) counters: usize,
    /// The source statements the tape was lowered from, by kind.
    pub counts: StmtCounts,
}

type Lowered<T> = Result<T, BackendError>;

fn malformed<T>(msg: String) -> Lowered<T> {
    Err(BackendError::Malformed(msg))
}

#[derive(Clone, Copy)]
enum Slot {
    Scalar(usize),
    Array(usize),
}

/// Builds a tape as the CM2/NIR split walks the program: the split
/// classifies each statement and calls the method that lowers it; the
/// scoping constructs take the lowering of their bodies as a closure.
///
/// Everything fails with [`BackendError::Malformed`] on what could only
/// fail when run, [`BackendError::Nir`] on an unbound domain.
pub(crate) struct Lowering<'p> {
    tape: HostTape,
    /// What each name means here; names are borrowed from the program.
    vars: HashMap<&'p str, Slot>,
    domains: HashMap<String, Shape>,
    /// Enclosing `DO`s, innermost last: domain name and its counters.
    loops: Vec<(&'p str, Range<usize>)>,
    /// How many scalar and array slots the outer binders declared.
    globals: (usize, usize),
}

impl<'p> Lowering<'p> {
    /// A tape that opens with the program's outer binders declared.
    pub(crate) fn new(binders: &'p [Binder]) -> Lowered<Self> {
        let mut l = Lowering {
            tape: HostTape::default(),
            vars: HashMap::new(),
            domains: HashMap::new(),
            loops: Vec::new(),
            globals: (0, 0),
        };
        for b in binders {
            match b {
                Binder::Domain(name, shape) => {
                    let resolved = shape.resolve(&l.domains)?;
                    l.domains.insert(name.clone(), resolved);
                }
                Binder::Decls(d) => drop(l.declare(d)?),
            }
        }
        l.globals = (l.tape.scalars.len(), l.tape.arrays.len());
        Ok(l)
    }

    /// The finished tape; it closes by leaving the outermost scope.
    pub(crate) fn finish(mut self) -> HostTape {
        let (scalars, arrays) = self.globals;
        self.tape.ops.push(Op::Leave(0..scalars, 0..arrays));
        self.tape.ops.shrink_to_fit();
        self.tape
    }

    fn push(&mut self, op: Op) -> usize {
        self.tape.ops.push(op);
        self.tape.ops.len() - 1
    }

    /// Point the forward jump of op `at` to the next op pushed.
    fn land(&mut self, at: usize) {
        let here = self.tape.ops.len();
        match &mut self.tape.ops[at] {
            Op::DoInit(.., t) | Op::Branch(.., t) | Op::Jump(t) => *t = here,
            other => unreachable!("{other:?} has no forward target"),
        }
    }

    fn array(&self, name: &str) -> Lowered<usize> {
        match self.vars.get(name) {
            Some(Slot::Array(a)) => Ok(*a),
            Some(Slot::Scalar(_)) => malformed(format!("'{name}' is a scalar")),
            None => malformed(format!("unbound variable '{name}'")),
        }
    }

    fn scalar(&self, name: &str) -> Lowered<usize> {
        match self.vars.get(name) {
            Some(Slot::Scalar(s)) => Ok(*s),
            Some(Slot::Array(_)) => malformed(format!("'{name}' is an array")),
            None => malformed(format!("unbound variable '{name}'")),
        }
    }

    /// Declare every binding of `d` in the current scope; returns what
    /// each name meant before, for the scope's exit to restore.
    fn declare(&mut self, d: &'p Decl) -> Lowered<Vec<(&'p str, Option<Slot>)>> {
        let mut shadowed = Vec::new();
        for (id, ty, init) in d.bindings() {
            let init = init.map(|v| self.expr(v)).transpose()?;
            let name = id.clone();
            let slot = match ty {
                Type::Scalar(ty) => {
                    self.tape.scalars.push(ScalarSlot { name, ty: *ty });
                    let slot = self.tape.scalars.len() - 1;
                    self.push(Op::Scalar(slot, init));
                    Slot::Scalar(slot)
                }
                Type::DField { shape, elem } => {
                    let grid = Grid::of(&shape.resolve(&self.domains)?);
                    let elem = elem.elem_scalar();
                    self.tape.arrays.push(ArraySlot { name, grid, elem });
                    let slot = self.tape.arrays.len() - 1;
                    self.push(Op::Alloc(slot, init));
                    Slot::Array(slot)
                }
            };
            shadowed.push((id.as_str(), self.vars.insert(id, slot)));
        }
        Ok(shadowed)
    }

    /// Push the arguments of `block` over the IFIFO and run it.
    pub(crate) fn dispatch(&mut self, block: &NodeBlock) -> Lowered<()> {
        self.tape.counts.dispatches += 1;
        let mut grid = None;
        let args = block.array_params.iter().map(|p| match p {
            ArrayParam::Read(v) | ArrayParam::Write(v) => self.array(v).map(Arg::Array),
            ArrayParam::Coord(dim) => {
                let grid = grid.get_or_insert_with(|| Arc::new(Grid::of(&block.shape)));
                Ok(Arg::Coord(grid.clone(), *dim - 1))
            }
        });
        let args = args.collect::<Lowered<_>>()?;
        let scalars = self.exprs(&block.scalar_params)?;
        self.push(Op::Dispatch(block.index, args, scalars));
        Ok(())
    }

    /// A grid communication between array variables: `dst =
    /// cshift(src, …)` or, with a boundary, `eoshift`.
    pub(crate) fn comm(
        &mut self,
        (dst, src): (&str, &str),
        dim: &Value,
        shift: &Value,
        boundary: Option<&Value>,
    ) -> Lowered<()> {
        self.tape.counts.comms += 1;
        let (dst, src) = (self.array(dst)?, self.array(src)?);
        let slot = &self.tape.arrays[src];
        // A literal DIM must name an axis of the shifted array.
        if let Value::Scalar(Const::I32(d)) = dim {
            if *d < 1 || *d as usize > slot.grid.dims.len() {
                return malformed(format!(
                    "{} DIM={d} is outside the rank of '{}' (rank {})",
                    boundary.map_or("CSHIFT", |_| "EOSHIFT"),
                    slot.name,
                    slot.grid.dims.len()
                ));
            }
        }
        let (dim, shift) = (self.expr(dim)?, self.expr(shift)?);
        let boundary = boundary.map(|b| self.expr(b)).transpose()?;
        self.push(Op::Shift(dst, src, dim, shift, boundary));
        Ok(())
    }

    /// A host-executed move, clause by clause.
    pub(crate) fn host_move(&mut self, clauses: &[MoveClause]) -> Lowered<()> {
        self.tape.counts.moves += 1;
        for c in clauses {
            let op = self.clause(c)?;
            self.push(op);
        }
        Ok(())
    }

    /// A serial `DO` over the resolved `shape`, around `body`.
    pub(crate) fn do_loop(
        &mut self,
        dom: &'p str,
        shape: &Shape,
        body: impl FnOnce(&mut Self) -> Lowered<()>,
    ) -> Lowered<()> {
        self.tape.counts.loops += 1;
        let extents = shape.extents();
        let first = self.tape.counters;
        self.tape.counters += extents.len();
        let head = self.tape.ops.len();
        for (k, e) in extents.iter().enumerate() {
            self.push(Op::DoInit(first + k, e.lo, e.hi, 0));
        }
        self.push(Op::Charge(2));
        self.loops.push((dom, first..self.tape.counters));
        body(self)?;
        self.loops.pop();
        for (k, e) in extents.iter().enumerate().rev() {
            self.push(Op::DoNext(first + k, e.hi, head + k + 1));
            self.land(head + k);
        }
        Ok(())
    }

    /// A host `WHILE` around `body`.
    pub(crate) fn while_loop(
        &mut self,
        cond: &Value,
        body: impl FnOnce(&mut Self) -> Lowered<()>,
    ) -> Lowered<()> {
        self.tape.counts.loops += 1;
        let test = self.branch(cond, true)?;
        body(self)?;
        self.push(Op::Jump(test));
        self.land(test);
        Ok(())
    }

    /// A host `IF`; `branch(self, true)` lowers the taken branch, then
    /// `branch(self, false)` the other.
    pub(crate) fn if_else(
        &mut self,
        cond: &Value,
        mut branch: impl FnMut(&mut Self, bool) -> Lowered<()>,
    ) -> Lowered<()> {
        self.tape.counts.ifs += 1;
        let test = self.branch(cond, false)?;
        branch(self, true)?;
        let skip = self.push(Op::Jump(0));
        self.land(test);
        branch(self, false)?;
        if self.tape.ops.len() == skip + 1 {
            // Nothing to skip over: no jump.
            self.tape.ops.pop();
            self.land(test);
        } else {
            self.land(skip);
        }
        Ok(())
    }

    /// A `WITH_DECL` scope around `body`: its declarations shadow, and
    /// on exit are captured and what they shadowed is back in force.
    pub(crate) fn with_decl(
        &mut self,
        decl: &'p Decl,
        body: impl FnOnce(&mut Self) -> Lowered<()>,
    ) -> Lowered<()> {
        self.tape.counts.scopes += 1;
        let (s0, a0) = (self.tape.scalars.len(), self.tape.arrays.len());
        let shadowed = self.declare(decl)?;
        let leave = Op::Leave(s0..self.tape.scalars.len(), a0..self.tape.arrays.len());
        body(self)?;
        self.push(leave);
        for (name, old) in shadowed.into_iter().rev() {
            match old {
                Some(slot) => self.vars.insert(name, slot),
                None => self.vars.remove(name),
            };
        }
        Ok(())
    }

    /// A `WITH_DOMAIN` scope binding `name` to the resolved `shape`.
    pub(crate) fn with_domain(
        &mut self,
        name: &str,
        shape: Shape,
        body: impl FnOnce(&mut Self) -> Lowered<()>,
    ) -> Lowered<()> {
        self.tape.counts.scopes += 1;
        let old = self.domains.insert(name.into(), shape);
        body(self)?;
        match old {
            Some(s) => self.domains.insert(name.into(), s),
            None => self.domains.remove(name),
        };
        Ok(())
    }

    fn branch(&mut self, cond: &Value, looping: bool) -> Lowered<usize> {
        let test = Op::Branch(self.expr(cond)?, value_size(cond), looping, 0);
        Ok(self.push(test))
    }

    fn clause(&self, c: &MoveClause) -> Lowered<Op> {
        let ops = value_size(&c.src) + value_size(&c.mask);
        let (mask, src) = (self.expr(&c.mask)?, self.expr(&c.src)?);
        let dst = match &c.dst {
            LValue::SVar(name) => Dst::Scalar(self.scalar(name)?),
            LValue::AVar(name, FieldAction::Subscript(ixs)) => {
                let array = self.array(name)?;
                Dst::Elem(array, self.subscripts(array, ixs)?)
            }
            LValue::AVar(name, FieldAction::Everywhere) => {
                let array = self.array(name)?;
                let Grid { dims, lower } = &self.tape.arrays[array].grid;
                let all = lower.iter().zip(dims);
                let all = all.map(|(&lo, &n)| SectionRange::new(lo, lo + n as i64 - 1));
                Dst::Section(array, all.collect())
            }
            LValue::AVar(name, FieldAction::Section(ranges)) => {
                Dst::Section(self.section(name, ranges)?, ranges.clone())
            }
        };
        Ok(Op::Move(dst, mask, src, ops))
    }

    fn subscripts(&self, array: usize, ixs: &[Value]) -> Lowered<Vec<Expr>> {
        let slot = &self.tape.arrays[array];
        if ixs.len() != slot.grid.dims.len() {
            return malformed(format!(
                "'{}' has rank {} but is given {} subscripts",
                slot.name,
                slot.grid.dims.len(),
                ixs.len()
            ));
        }
        self.exprs(ixs)
    }

    /// The array a section selects from, once every index it selects is
    /// known to lie inside the bounds.
    fn section(&self, name: &str, ranges: &[SectionRange]) -> Lowered<usize> {
        let array = self.array(name)?;
        let Grid { dims, lower } = &self.tape.arrays[array].grid;
        if ranges.len() != dims.len() {
            return malformed(format!(
                "section of rank {} on '{name}' of rank {}",
                ranges.len(),
                dims.len()
            ));
        }
        let selects_nothing = ranges.iter().any(SectionRange::is_empty);
        for (k, r) in ranges.iter().enumerate() {
            let last = r.lo + (r.len() as i64 - 1) * r.step;
            if !selects_nothing && (r.lo < lower[k] || last >= lower[k] + dims[k] as i64) {
                return malformed(format!(
                    "section {r} of '{name}' leaves its bounds in axis {}",
                    k + 1
                ));
            }
        }
        Ok(array)
    }

    fn exprs(&self, vs: &[Value]) -> Lowered<Vec<Expr>> {
        vs.iter().map(|v| self.expr(v)).collect()
    }

    fn expr(&self, v: &Value) -> Lowered<Expr> {
        Ok(match v {
            Value::Scalar(c) => Expr::Const(const_to_scalar(*c)),
            Value::SVar(name) => Expr::Var(self.scalar(name)?),
            Value::DoIndex(dom, dim) => {
                let Some((_, counters)) = self.loops.iter().rev().find(|(d, _)| d == dom) else {
                    return malformed(format!("do_index outside DO '{dom}'"));
                };
                match counters.clone().nth(dim.wrapping_sub(1)) {
                    Some(counter) => Expr::Index(counter),
                    None => return malformed(format!("do_index axis {dim} out of range")),
                }
            }
            Value::AVar(name, FieldAction::Subscript(ixs)) => {
                let array = self.array(name)?;
                Expr::Elem(array, self.subscripts(array, ixs)?)
            }
            Value::AVar(name, FieldAction::Everywhere) => Expr::Whole(self.array(name)?),
            Value::AVar(name, FieldAction::Section(ranges)) => {
                Expr::Section(self.section(name, ranges)?, ranges.clone())
            }
            Value::LocalUnder(shape, dim) => {
                let grid = Grid::of(&shape.resolve(&self.domains)?);
                if *dim < 1 || *dim > grid.dims.len() {
                    return malformed(format!("local_under axis {dim} out of range"));
                }
                Expr::Coords(Arc::new(grid), *dim - 1)
            }
            Value::Unary(op, a) => Expr::Unary(*op, Box::new(self.expr(a)?)),
            Value::Binary(op, a, b) => {
                Expr::Binary(*op, Box::new(self.expr(a)?), Box::new(self.expr(b)?))
            }
            Value::FcnCall(name, args) => {
                let f = match (name.as_str(), args.len()) {
                    ("sum", 1 | 2) => Intrinsic::Reduce(ReduceOp::Sum),
                    ("maxval", 1 | 2) => Intrinsic::Reduce(ReduceOp::Max),
                    ("minval", 1 | 2) => Intrinsic::Reduce(ReduceOp::Min),
                    ("spread", 3) => Intrinsic::Spread,
                    ("merge", 3) => Intrinsic::Merge,
                    ("transpose", 1) => Intrinsic::Transpose,
                    ("cshift", 3) => Intrinsic::Cshift,
                    ("eoshift", 3 | 4) => Intrinsic::Eoshift,
                    (_, n) => {
                        return malformed(format!("unknown primitive '{name}' of {n} arguments"))
                    }
                };
                let args = args.iter().map(|(_, v)| self.expr(v));
                Expr::Call(f, args.collect::<Lowered<_>>()?)
            }
        })
    }
}

/// The number of nodes in a value term: the host-op charge for
/// evaluating it.
fn value_size(v: &Value) -> u64 {
    let mut n = 0u64;
    v.walk(&mut |_| n += 1);
    n
}

/// `items` separated by commas.
struct Commas<'a, T>(&'a [T]);

impl<T: fmt::Display> fmt::Display for Commas<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.iter().enumerate() {
            write!(f, "{}{item}", if i > 0 { "," } else { "" })?;
        }
        Ok(())
    }
}

impl fmt::Display for Grid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let axes = self.lower.iter().zip(&self.dims);
        let axes: Vec<String> = axes
            .map(|(&lo, &n)| format!("{lo}:{}", lo + n as i64 - 1))
            .collect();
        write!(f, "[{}]", Commas(&axes))
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(s) => write!(f, "s{s}"),
            Expr::Index(c) => write!(f, "i{c}"),
            Expr::Elem(a, subs) => write!(f, "a{a}[{}]", Commas(subs)),
            Expr::Whole(a) => write!(f, "a{a}"),
            Expr::Section(a, ranges) => write!(f, "a{a}({})", Commas(ranges)),
            Expr::Coords(grid, axis) => write!(f, "coord{}{grid}", axis + 1),
            Expr::Unary(op, a) => write!(f, "{op}({a})"),
            Expr::Binary(op, a, b) => write!(f, "{op}({a},{b})"),
            Expr::Call(g, args) => write!(f, "{}({})", g.name(), Commas(args)),
        }
    }
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Array(a) => write!(f, "a{a}"),
            Arg::Coord(grid, axis) => write!(f, "coord{}{grid}", axis + 1),
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let init = |e: &Option<Expr>| e.as_ref().map_or(String::new(), |e| format!(" = {e}"));
        match self {
            Op::Scalar(s, e) => write!(f, "scalar s{s}{}", init(e)),
            Op::Alloc(a, e) => write!(f, "alloc a{a}{}", init(e)),
            Op::Leave(s, a) => {
                write!(f, "leave s{}..s{} a{}..a{}", s.start, s.end, a.start, a.end)
            }
            Op::Dispatch(block, args, scalars) => {
                write!(f, "dispatch b{block}({})", Commas(args))?;
                if scalars.is_empty() {
                    return Ok(());
                }
                write!(f, " with {}", Commas(scalars))
            }
            Op::Shift(dst, src, dim, shift, boundary) => {
                let kind = boundary.as_ref().map_or("cshift", |_| "eoshift");
                write!(f, "a{dst} = {kind}(a{src}, dim {dim}, shift {shift}")?;
                match boundary {
                    Some(b) => write!(f, ", boundary {b})"),
                    None => write!(f, ")"),
                }
            }
            Op::Move(dst, mask, src, ops) => {
                match dst {
                    Dst::Scalar(s) => write!(f, "s{s}")?,
                    Dst::Elem(a, subs) => write!(f, "a{a}[{}]", Commas(subs))?,
                    Dst::Section(a, ranges) => write!(f, "a{a}({})", Commas(ranges))?,
                }
                write!(f, " = {src}")?;
                if *mask != Expr::Const(NScalar::Bool(true)) {
                    write!(f, " where {mask}")?;
                }
                write!(f, "  ; {ops} host ops")
            }
            Op::Charge(n) => write!(f, "charge {n} host ops"),
            Op::DoInit(counter, lo, hi, exit) => {
                write!(f, "do i{counter} = {lo}, {hi}, else @{exit}")
            }
            Op::DoNext(counter, hi, body) => write!(f, "next i{counter} to {hi}, @{body}"),
            Op::Branch(cond, ops, looping, target) => {
                let kind = if *looping { "while" } else { "if" };
                write!(f, "{kind} {cond}, else @{target}  ; {ops} host ops")
            }
            Op::Jump(target) => write!(f, "jump @{target}"),
        }
    }
}

/// The stable listing: a summary line, a line per slot, a line per op.
impl fmt::Display for HostTape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = &self.counts;
        writeln!(
            f,
            "host tape: {} ops from {} dispatches, {} comms, {} moves, {} loops, {} ifs, {} scopes",
            self.ops.len(),
            c.dispatches,
            c.comms,
            c.moves,
            c.loops,
            c.ifs,
            c.scopes
        )?;
        for (i, a) in self.arrays.iter().enumerate() {
            writeln!(f, "a{i} = {}: {}{}", a.name, a.elem, a.grid)?;
        }
        for (i, s) in self.scalars.iter().enumerate() {
            writeln!(f, "s{i} = {}: {}", s.name, s.ty)?;
        }
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(f, "{i:4}: {op}")?;
        }
        Ok(())
    }
}
