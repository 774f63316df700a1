//! A reference interpreter for NIR: the ground-truth semantics.
//!
//! Every backend in the Fortran-90-Y pipeline (PE/NIR, FE/NIR, the
//! baseline compilers) is validated against this evaluator: compile a
//! program, run it on the machine simulator, and compare every array
//! against what the evaluator computed. The evaluator is deliberately
//! simple — whole-array operations, no blocking, no layout — so that its
//! correctness is easy to audit.
//!
//! ## Semantics notes
//!
//! * `MOVE` evaluates each clause in order; within a clause the whole
//!   right-hand side (and mask) is evaluated before any element of the
//!   destination is written, giving Fortran-90 array-assignment semantics.
//! * `DO` visits the points of its shape in row-major order. For parallel
//!   shapes any visiting order would yield the same result on valid
//!   programs; row-major keeps the interpreter deterministic.
//! * When a `WITH_DECL` scope exits, its bindings are captured into a
//!   `finals` map (innermost binding of each name wins) so tests can
//!   observe program results after `run` returns.

use std::collections::HashMap;

use crate::array::{ArrayData, Scalar};
use crate::decl::Decl;
use crate::error::NirError;
use crate::imp::{Imp, LValue, MoveClause};
use crate::ops::{BinOp, UnOp};
use crate::shape::DomainEnv;
use crate::types::{ScalarType, Type};
use crate::value::{Const, FieldAction, Value};
use crate::Ident;

/// A runtime cell: a scalar or an array.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A scalar value.
    Scalar(Scalar),
    /// An array value.
    Array(ArrayData),
}

impl Cell {
    /// The scalar, or an error for arrays.
    ///
    /// # Errors
    ///
    /// Fails when the cell holds an array.
    pub fn into_scalar(self) -> Result<Scalar, NirError> {
        match self {
            Cell::Scalar(s) => Ok(s),
            Cell::Array(_) => Err(NirError::Eval("array used where scalar expected".into())),
        }
    }

    /// The array, or an error for scalars.
    ///
    /// # Errors
    ///
    /// Fails when the cell holds a scalar.
    pub fn into_array(self) -> Result<ArrayData, NirError> {
        match self {
            Cell::Array(a) => Ok(a),
            Cell::Scalar(_) => Err(NirError::Eval("scalar used where array expected".into())),
        }
    }
}

#[derive(Debug)]
struct Binding {
    ty: Type,
    cell: Cell,
}

/// The NIR reference evaluator.
#[derive(Debug, Default)]
pub struct Evaluator {
    scopes: Vec<HashMap<Ident, Binding>>,
    domains: DomainEnv,
    do_indices: Vec<(Ident, Vec<i64>)>,
    finals: HashMap<Ident, Cell>,
}

impl Evaluator {
    /// A fresh evaluator with empty environments.
    pub fn new() -> Self {
        Evaluator {
            scopes: vec![HashMap::new()],
            domains: DomainEnv::new(),
            do_indices: Vec::new(),
            finals: HashMap::new(),
        }
    }

    /// Execute a program.
    ///
    /// # Errors
    ///
    /// Fails on any dynamic error (unbound names, shape disagreement at
    /// run time, division by zero, out-of-bounds subscripts).
    pub fn run(&mut self, imp: &Imp) -> Result<(), NirError> {
        self.exec(imp)
    }

    /// The final value of a variable, captured when its declaring scope
    /// exited (innermost binding of the name wins).
    pub fn final_cell(&self, id: &str) -> Option<&Cell> {
        self.finals.get(id)
    }

    /// The final value of an array variable as an `f64` buffer.
    ///
    /// # Errors
    ///
    /// Fails when the variable was not captured or is not a numeric
    /// array.
    pub fn final_array_f64(&self, id: &str) -> Result<Vec<f64>, NirError> {
        match self.finals.get(id) {
            Some(Cell::Array(a)) => a.to_f64_vec(),
            Some(Cell::Scalar(_)) => Err(NirError::Eval(format!("'{id}' is a scalar"))),
            None => Err(NirError::Unbound(id.into())),
        }
    }

    /// The final value of a scalar variable as `f64` (logicals map to
    /// 0/1, the machine representation).
    ///
    /// # Errors
    ///
    /// Fails when the variable was not captured or is an array.
    pub fn final_scalar_f64(&self, id: &str) -> Result<f64, NirError> {
        match self.finals.get(id) {
            Some(Cell::Scalar(Scalar::Bool(b))) => Ok(if *b { 1.0 } else { 0.0 }),
            Some(Cell::Scalar(s)) => s.to_f64(),
            Some(Cell::Array(_)) => Err(NirError::Eval(format!("'{id}' is an array"))),
            None => Err(NirError::Unbound(id.into())),
        }
    }

    /// All captured final values, in no particular order.  Used by the
    /// pass-verification machinery to compare observable behaviour
    /// before and after a transformation.
    pub fn finals(&self) -> impl Iterator<Item = (&str, &Cell)> {
        self.finals.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Pre-bind a variable in the outermost scope (for harnesses that
    /// inject input data).
    pub fn preset(&mut self, id: &str, ty: Type, cell: Cell) {
        self.scopes[0].insert(id.into(), Binding { ty, cell });
    }

    fn lookup(&self, id: &str) -> Result<&Binding, NirError> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(id))
            .ok_or_else(|| NirError::Unbound(id.into()))
    }

    fn lookup_mut(&mut self, id: &str) -> Result<&mut Binding, NirError> {
        self.scopes
            .iter_mut()
            .rev()
            .find_map(|s| s.get_mut(id))
            .ok_or_else(|| NirError::Unbound(id.into()))
    }

    fn exec(&mut self, imp: &Imp) -> Result<(), NirError> {
        match imp {
            Imp::Program(body) => self.exec(body),
            Imp::Skip => Ok(()),
            Imp::Sequentially(xs) | Imp::Concurrently(xs) => {
                for x in xs {
                    self.exec(x)?;
                }
                Ok(())
            }
            Imp::Move(clauses) => {
                for c in clauses {
                    self.exec_move(c)?;
                }
                Ok(())
            }
            Imp::IfThenElse(c, t, e) => {
                if self.eval(c)?.into_scalar()?.to_bool()? {
                    self.exec(t)
                } else {
                    self.exec(e)
                }
            }
            Imp::While(c, body) => {
                let mut fuel: u64 = 100_000_000;
                while self.eval(c)?.into_scalar()?.to_bool()? {
                    self.exec(body)?;
                    fuel -= 1;
                    if fuel == 0 {
                        return Err(NirError::Eval("WHILE exceeded iteration fuel".into()));
                    }
                }
                Ok(())
            }
            Imp::Do(dom, shape, body) => {
                let resolved = shape.resolve(&self.domains)?;
                for p in resolved.points() {
                    self.do_indices.push((dom.clone(), p));
                    let r = self.exec(body);
                    self.do_indices.pop();
                    r?;
                }
                Ok(())
            }
            Imp::WithDecl(d, body) => {
                self.scopes.push(HashMap::new());
                let r = self.exec_decl(d).and_then(|()| self.exec(body));
                let frame = self.scopes.pop().expect("frame pushed above");
                for (id, b) in frame {
                    self.finals.entry(id).or_insert(b.cell);
                }
                r
            }
            Imp::WithDomain(name, shape, body) => {
                let resolved = shape.resolve(&self.domains)?;
                let old = self.domains.insert(name.clone(), resolved);
                let r = self.exec(body);
                match old {
                    Some(s) => {
                        self.domains.insert(name.clone(), s);
                    }
                    None => {
                        self.domains.remove(name);
                    }
                }
                r
            }
        }
    }

    fn exec_decl(&mut self, d: &Decl) -> Result<(), NirError> {
        for (id, ty, init) in d.bindings() {
            let resolved_ty = self.resolve_type(ty)?;
            let mut cell = self.zero_cell(&resolved_ty)?;
            if let Some(v) = init {
                let val = self.eval(v)?;
                cell = coerce_into(val, &cell)?;
            }
            self.scopes
                .last_mut()
                .expect("context always has a scope")
                .insert(
                    id.clone(),
                    Binding {
                        ty: resolved_ty,
                        cell,
                    },
                );
        }
        Ok(())
    }

    fn resolve_type(&self, ty: &Type) -> Result<Type, NirError> {
        match ty {
            Type::Scalar(s) => Ok(Type::Scalar(*s)),
            Type::DField { shape, elem } => Ok(Type::DField {
                shape: shape.resolve(&self.domains)?,
                elem: Box::new(self.resolve_type(elem)?),
            }),
        }
    }

    fn zero_cell(&self, ty: &Type) -> Result<Cell, NirError> {
        match ty {
            Type::Scalar(s) => Ok(Cell::Scalar(Scalar::zero(*s))),
            Type::DField { shape, elem } => {
                let resolved = shape.resolve(&self.domains)?;
                Ok(Cell::Array(ArrayData::zeros(
                    resolved.array_bounds(),
                    elem.elem_scalar(),
                )))
            }
        }
    }

    fn exec_move(&mut self, c: &MoveClause) -> Result<(), NirError> {
        let src = self.eval(&c.src)?;
        let mask = self.eval(&c.mask)?;
        match &c.dst {
            LValue::SVar(id) => {
                let enabled = match mask {
                    Cell::Scalar(s) => s.to_bool()?,
                    Cell::Array(_) => {
                        return Err(NirError::Eval("array mask on scalar destination".into()))
                    }
                };
                if enabled {
                    let s = src.into_scalar()?;
                    let b = self.lookup_mut(id)?;
                    let converted = s.convert(b.ty.elem_scalar())?;
                    b.cell = Cell::Scalar(converted);
                }
                Ok(())
            }
            LValue::AVar(id, fa) => self.store_avar(id, fa, src, mask),
        }
    }

    fn store_avar(
        &mut self,
        id: &str,
        fa: &FieldAction,
        src: Cell,
        mask: Cell,
    ) -> Result<(), NirError> {
        // Pre-compute subscript coordinates before mutably borrowing.
        let coords = match fa {
            FieldAction::Subscript(ixs) => Some(self.eval_subscripts(ixs)?),
            _ => None,
        };
        let binding = self.lookup_mut(id)?;
        let arr = match &mut binding.cell {
            Cell::Array(a) => a,
            Cell::Scalar(_) => return Err(NirError::Eval(format!("AVAR '{id}' names a scalar"))),
        };
        match fa {
            FieldAction::Subscript(_) => {
                let coords = coords.expect("computed above");
                let enabled = match mask {
                    Cell::Scalar(s) => s.to_bool()?,
                    Cell::Array(m) => m.get(&coords)?.to_bool()?,
                };
                if enabled {
                    arr.set(&coords, src.into_scalar()?)?;
                }
                Ok(())
            }
            FieldAction::Everywhere => {
                let dims = arr.dims();
                let n = arr.len();
                for flat in 0..n {
                    let enabled = match &mask {
                        Cell::Scalar(s) => s.to_bool()?,
                        Cell::Array(m) => {
                            if m.len() != n {
                                return Err(NirError::Eval(format!(
                                    "mask shape does not conform to '{id}'"
                                )));
                            }
                            m.as_slice()[flat].to_bool()?
                        }
                    };
                    if !enabled {
                        continue;
                    }
                    let v = match &src {
                        Cell::Scalar(s) => *s,
                        Cell::Array(a) => {
                            if a.len() != n {
                                return Err(NirError::Eval(format!(
                                    "source shape does not conform to '{id}' \
                                     ({} vs {} elements)",
                                    a.len(),
                                    n
                                )));
                            }
                            a.as_slice()[flat]
                        }
                    };
                    let elem = arr.elem_type();
                    arr.as_mut_slice()[flat] = v.convert(elem)?;
                }
                let _ = dims;
                Ok(())
            }
            FieldAction::Section(ranges) => {
                if ranges.len() != arr.rank() {
                    return Err(NirError::Eval(format!(
                        "section rank {} does not match '{id}' rank {}",
                        ranges.len(),
                        arr.rank()
                    )));
                }
                // Enumerate section points in row-major order; the flat
                // index into src/mask follows the same order.
                let mut flat = 0usize;
                let total: usize = ranges.iter().map(|r| r.len()).product();
                let mut coords: Vec<i64> = ranges.iter().map(|r| r.lo).collect();
                while flat < total {
                    let enabled = match &mask {
                        Cell::Scalar(s) => s.to_bool()?,
                        Cell::Array(m) => {
                            if m.len() != total {
                                return Err(NirError::Eval(
                                    "mask does not conform to section".into(),
                                ));
                            }
                            m.as_slice()[flat].to_bool()?
                        }
                    };
                    if enabled {
                        let v = match &src {
                            Cell::Scalar(s) => *s,
                            Cell::Array(a) => {
                                if a.len() != total {
                                    return Err(NirError::Eval(format!(
                                        "source does not conform to section of '{id}' \
                                         ({} vs {total} elements)",
                                        a.len()
                                    )));
                                }
                                a.as_slice()[flat]
                            }
                        };
                        arr.set(&coords.clone(), v)?;
                    }
                    flat += 1;
                    // Advance section odometer.
                    for axis in (0..ranges.len()).rev() {
                        coords[axis] += ranges[axis].step;
                        if coords[axis] <= ranges[axis].hi {
                            break;
                        }
                        coords[axis] = ranges[axis].lo;
                    }
                }
                Ok(())
            }
        }
    }

    fn eval_subscripts(&mut self, ixs: &[Value]) -> Result<Vec<i64>, NirError> {
        ixs.iter()
            .map(|ix| self.eval(ix)?.into_scalar()?.to_i64())
            .collect()
    }

    /// Evaluate a value term to a cell (whole-array semantics).
    ///
    /// # Errors
    ///
    /// Fails on any dynamic error in the term.
    pub fn eval(&mut self, v: &Value) -> Result<Cell, NirError> {
        match v {
            Value::Scalar(c) => Ok(Cell::Scalar(const_to_scalar(*c))),
            Value::SVar(id) => match &self.lookup(id)?.cell {
                Cell::Scalar(s) => Ok(Cell::Scalar(*s)),
                Cell::Array(_) => Err(NirError::Eval(format!("SVAR '{id}' names an array"))),
            },
            Value::AVar(id, fa) => self.load_avar(id, fa),
            Value::Unary(op, a) => {
                let av = self.eval(a)?;
                map_cell(av, |s| apply_unop(*op, s))
            }
            Value::Binary(op, a, b) => {
                let av = self.eval(a)?;
                let bv = self.eval(b)?;
                zip_cells(av, bv, |x, y| apply_binop(*op, x, y))
            }
            Value::FcnCall(name, args) => self.eval_call(name, args),
            Value::LocalUnder(shape, dim) => {
                let resolved = shape.resolve(&self.domains)?;
                let bounds = resolved.array_bounds();
                let mut arr = ArrayData::zeros(bounds, ScalarType::Integer32);
                for (flat, p) in resolved.points().enumerate() {
                    arr.as_mut_slice()[flat] = Scalar::I32(p[*dim - 1] as i32);
                }
                Ok(Cell::Array(arr))
            }
            Value::DoIndex(dom, dim) => {
                let (_, coords) = self
                    .do_indices
                    .iter()
                    .rev()
                    .find(|(name, _)| name == dom)
                    .ok_or_else(|| NirError::Eval(format!("do_index outside DO '{dom}'")))?;
                let c = *coords.get(*dim - 1).ok_or_else(|| {
                    NirError::Eval(format!("do_index dimension {dim} out of range"))
                })?;
                Ok(Cell::Scalar(Scalar::I32(c as i32)))
            }
        }
    }

    fn load_avar(&mut self, id: &str, fa: &FieldAction) -> Result<Cell, NirError> {
        match fa {
            FieldAction::Subscript(ixs) => {
                let coords = self.eval_subscripts(ixs)?;
                let binding = self.lookup(id)?;
                match &binding.cell {
                    Cell::Array(a) => Ok(Cell::Scalar(a.get(&coords)?)),
                    Cell::Scalar(_) => Err(NirError::Eval(format!("AVAR '{id}' names a scalar"))),
                }
            }
            FieldAction::Everywhere => match &self.lookup(id)?.cell {
                Cell::Array(a) => Ok(Cell::Array(a.clone())),
                Cell::Scalar(_) => Err(NirError::Eval(format!("AVAR '{id}' names a scalar"))),
            },
            FieldAction::Section(ranges) => {
                let binding = self.lookup(id)?;
                let arr = match &binding.cell {
                    Cell::Array(a) => a,
                    Cell::Scalar(_) => {
                        return Err(NirError::Eval(format!("AVAR '{id}' names a scalar")))
                    }
                };
                if ranges.len() != arr.rank() {
                    return Err(NirError::Eval(format!(
                        "section rank {} does not match '{id}' rank {}",
                        ranges.len(),
                        arr.rank()
                    )));
                }
                let out_bounds: Vec<(i64, i64)> =
                    ranges.iter().map(|r| (1, r.len() as i64)).collect();
                let mut out = ArrayData::zeros(out_bounds, arr.elem_type());
                let total = out.len();
                let mut coords: Vec<i64> = ranges.iter().map(|r| r.lo).collect();
                for flat in 0..total {
                    out.as_mut_slice()[flat] = arr.get(&coords)?;
                    for axis in (0..ranges.len()).rev() {
                        coords[axis] += ranges[axis].step;
                        if coords[axis] <= ranges[axis].hi {
                            break;
                        }
                        coords[axis] = ranges[axis].lo;
                    }
                }
                Ok(Cell::Array(out))
            }
        }
    }

    fn eval_call(&mut self, name: &str, args: &[(Type, Value)]) -> Result<Cell, NirError> {
        let vals: Vec<Cell> = args
            .iter()
            .map(|(_, v)| self.eval(v))
            .collect::<Result<_, _>>()?;
        match name {
            "cshift" => {
                if vals.len() != 3 {
                    return Err(NirError::Eval("cshift expects (array, shift, dim)".into()));
                }
                let arr = vals[0].clone().into_array()?;
                let shift = vals[1].clone().into_scalar()?.to_i64()?;
                let dim = vals[2].clone().into_scalar()?.to_i64()?;
                if dim < 1 || dim as usize > arr.rank() {
                    return Err(NirError::Eval(format!("cshift DIM={dim} out of range")));
                }
                Ok(Cell::Array(arr.cshift(dim as usize - 1, shift)?))
            }
            "eoshift" => {
                if vals.len() != 3 && vals.len() != 4 {
                    return Err(NirError::Eval(
                        "eoshift expects (array, shift, dim[, boundary])".into(),
                    ));
                }
                let arr = vals[0].clone().into_array()?;
                let shift = vals[1].clone().into_scalar()?.to_i64()?;
                let dim = vals[2].clone().into_scalar()?.to_i64()?;
                if dim < 1 || dim as usize > arr.rank() {
                    return Err(NirError::Eval(format!("eoshift DIM={dim} out of range")));
                }
                let boundary = match vals.get(3) {
                    Some(c) => c.clone().into_scalar()?,
                    None => Scalar::zero(arr.elem_type()),
                };
                Ok(Cell::Array(arr.eoshift(
                    dim as usize - 1,
                    shift,
                    boundary,
                )?))
            }
            "merge" => {
                if vals.len() != 3 {
                    return Err(NirError::Eval(
                        "merge expects (tsource, fsource, mask)".into(),
                    ));
                }
                let mask = vals[2].clone();
                let (t, f) = (vals[0].clone(), vals[1].clone());
                // Elementwise select with scalar broadcast on any slot.
                let n = [&t, &f, &mask].iter().find_map(|c| match c {
                    Cell::Array(a) => Some(a.len()),
                    Cell::Scalar(_) => None,
                });
                match n {
                    None => {
                        let m = mask.into_scalar()?.to_bool()?;
                        Ok(if m { t } else { f })
                    }
                    Some(n) => {
                        let template = [&t, &f]
                            .iter()
                            .find_map(|c| match c {
                                Cell::Array(a) => Some(a.clone()),
                                Cell::Scalar(_) => None,
                            })
                            .or_else(|| match &mask {
                                Cell::Array(m) => {
                                    Some(ArrayData::zeros(m.bounds().to_vec(), ScalarType::Float64))
                                }
                                Cell::Scalar(_) => None,
                            })
                            .expect("n came from an array");
                        let mut out = template;
                        for i in 0..n {
                            let m = match &mask {
                                Cell::Scalar(s) => s.to_bool()?,
                                Cell::Array(a) => a.as_slice()[i].to_bool()?,
                            };
                            let v = match (m, &t, &f) {
                                (true, Cell::Scalar(s), _) => *s,
                                (true, Cell::Array(a), _) => a.as_slice()[i],
                                (false, _, Cell::Scalar(s)) => *s,
                                (false, _, Cell::Array(a)) => a.as_slice()[i],
                            };
                            let elem = out.elem_type();
                            out.as_mut_slice()[i] = v.convert(elem)?;
                        }
                        Ok(Cell::Array(out))
                    }
                }
            }
            "transpose" => {
                if vals.len() != 1 {
                    return Err(NirError::Eval("transpose expects one argument".into()));
                }
                Ok(Cell::Array(vals[0].clone().into_array()?.transpose()?))
            }
            "sum" | "maxval" | "minval" => {
                if vals.is_empty() || vals.len() > 2 {
                    return Err(NirError::Eval(format!("{name} expects (array[, dim])")));
                }
                let arr = vals[0].clone().into_array()?;
                let elem = arr.elem_type();
                if let Some(dim_cell) = vals.get(1) {
                    let dim = dim_cell.clone().into_scalar()?.to_i64()?;
                    if dim < 1 || dim as usize > arr.rank() {
                        return Err(NirError::Eval(format!("{name} DIM={dim} out of range")));
                    }
                    let op = match name {
                        "sum" => 0,
                        "maxval" => 1,
                        _ => 2,
                    };
                    return Ok(Cell::Array(arr.reduce_axis(dim as usize - 1, op)?));
                }
                let x = match name {
                    "sum" => arr.sum()?,
                    "maxval" => arr.maxval()?,
                    _ => arr.minval()?,
                };
                Ok(Cell::Scalar(Scalar::F64(x).convert(match elem {
                    ScalarType::Integer32 => ScalarType::Integer32,
                    other => other,
                })?))
            }
            "spread" => {
                if vals.len() != 3 {
                    return Err(NirError::Eval(
                        "spread expects (source, dim, ncopies)".into(),
                    ));
                }
                let arr = vals[0].clone().into_array()?;
                let dim = vals[1].clone().into_scalar()?.to_i64()?;
                let n = vals[2].clone().into_scalar()?.to_i64()?;
                if dim < 1 || dim as usize > arr.rank() + 1 {
                    return Err(NirError::Eval(format!("spread DIM={dim} out of range")));
                }
                if n < 0 {
                    return Err(NirError::Eval("spread NCOPIES must be nonnegative".into()));
                }
                Ok(Cell::Array(arr.spread(dim as usize - 1, n as usize)?))
            }
            other => Err(NirError::Eval(format!("unknown primitive '{other}'"))),
        }
    }
}

/// The runtime scalar a literal denotes.
pub fn const_to_scalar(c: Const) -> Scalar {
    match c {
        Const::I32(v) => Scalar::I32(v),
        Const::Bool(v) => Scalar::Bool(v),
        Const::F32(v) => Scalar::F32(v),
        Const::F64(v) => Scalar::F64(v),
    }
}

fn coerce_into(src: Cell, template: &Cell) -> Result<Cell, NirError> {
    match (src, template) {
        (Cell::Scalar(s), Cell::Scalar(t)) => Ok(Cell::Scalar(s.convert(t.scalar_type())?)),
        (Cell::Scalar(s), Cell::Array(a)) => {
            let mut out = a.clone();
            out.fill(s)?;
            Ok(Cell::Array(out))
        }
        (Cell::Array(src), Cell::Array(a)) => {
            if src.len() != a.len() {
                return Err(NirError::Eval(
                    "initializer does not conform to declared shape".into(),
                ));
            }
            let mut out = a.clone();
            for (o, s) in out.as_mut_slice().iter_mut().zip(src.as_slice().iter()) {
                *o = s.convert(a.elem_type())?;
            }
            Ok(Cell::Array(out))
        }
        (Cell::Array(_), Cell::Scalar(_)) => {
            Err(NirError::Eval("array initializer for scalar".into()))
        }
    }
}

fn map_cell(c: Cell, f: impl Fn(Scalar) -> Result<Scalar, NirError>) -> Result<Cell, NirError> {
    match c {
        Cell::Scalar(s) => Ok(Cell::Scalar(f(s)?)),
        Cell::Array(mut a) => {
            for s in a.as_mut_slice() {
                *s = f(*s)?;
            }
            Ok(Cell::Array(a))
        }
    }
}

fn zip_cells(
    a: Cell,
    b: Cell,
    f: impl Fn(Scalar, Scalar) -> Result<Scalar, NirError>,
) -> Result<Cell, NirError> {
    match (a, b) {
        (Cell::Scalar(x), Cell::Scalar(y)) => Ok(Cell::Scalar(f(x, y)?)),
        (Cell::Array(mut xs), Cell::Scalar(y)) => {
            for x in xs.as_mut_slice() {
                *x = f(*x, y)?;
            }
            Ok(Cell::Array(xs))
        }
        (Cell::Scalar(x), Cell::Array(ys)) => {
            let mut out = ys.clone();
            for (o, y) in out.as_mut_slice().iter_mut().zip(ys.as_slice()) {
                *o = f(x, *y)?;
            }
            Ok(Cell::Array(out))
        }
        (Cell::Array(xs), Cell::Array(ys)) => {
            if xs.len() != ys.len() {
                return Err(NirError::Eval(format!(
                    "elementwise operation on non-conforming arrays ({} vs {})",
                    xs.len(),
                    ys.len()
                )));
            }
            let mut out = xs.clone();
            for (o, (x, y)) in out
                .as_mut_slice()
                .iter_mut()
                .zip(xs.as_slice().iter().zip(ys.as_slice()))
            {
                *o = f(*x, *y)?;
            }
            Ok(Cell::Array(out))
        }
    }
}

/// Apply a binary operator to two scalars with Fortran promotion.
///
/// # Errors
///
/// Fails on type misuse, division by zero, or out-of-domain `**`.
pub fn apply_binop(op: BinOp, a: Scalar, b: Scalar) -> Result<Scalar, NirError> {
    use BinOp::*;
    if op.is_logical() {
        let (x, y) = (a.to_bool()?, b.to_bool()?);
        return Ok(Scalar::Bool(match op {
            And => x && y,
            Or => x || y,
            _ => unreachable!("logical ops are And/Or"),
        }));
    }
    // Logical equality is permitted (.EQV.-style via Eq).
    if let (Scalar::Bool(x), Scalar::Bool(y)) = (a, b) {
        return match op {
            Eq => Ok(Scalar::Bool(x == y)),
            Ne => Ok(Scalar::Bool(x != y)),
            _ => Err(NirError::Eval(format!("operator {op} on logicals"))),
        };
    }
    let joined = a
        .scalar_type()
        .promote(b.scalar_type())
        .ok_or_else(|| NirError::Eval(format!("operator {op} on mixed logical operands")))?;
    if op.is_relational() {
        let (x, y) = (a.to_f64()?, b.to_f64()?);
        return Ok(Scalar::Bool(match op {
            Eq => x == y,
            Ne => x != y,
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            Ge => x >= y,
            _ => unreachable!("relational ops enumerated"),
        }));
    }
    if joined == ScalarType::Integer32 {
        let (x, y) = (a.to_i64()? as i32, b.to_i64()? as i32);
        let r = match op {
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    return Err(NirError::Eval("integer division by zero".into()));
                }
                x.wrapping_div(y)
            }
            Mod => {
                if y == 0 {
                    return Err(NirError::Eval("MOD by zero".into()));
                }
                x.wrapping_rem(y)
            }
            Pow => {
                if y < 0 {
                    return Err(NirError::Eval("negative integer exponent".into()));
                }
                x.wrapping_pow(y as u32)
            }
            Max => x.max(y),
            Min => x.min(y),
            _ => unreachable!("arithmetic ops enumerated"),
        };
        return Ok(Scalar::I32(r));
    }
    let (x, y) = (a.to_f64()?, b.to_f64()?);
    let r = match op {
        Add => x + y,
        Sub => x - y,
        Mul => x * y,
        Div => {
            if y == 0.0 {
                return Err(NirError::Eval("division by zero".into()));
            }
            x / y
        }
        Mod => x % y,
        Pow => x.powf(y),
        Max => x.max(y),
        Min => x.min(y),
        _ => unreachable!("arithmetic ops enumerated"),
    };
    Ok(match joined {
        ScalarType::Float32 => Scalar::F32(r as f32),
        _ => Scalar::F64(r),
    })
}

/// Apply a unary operator to a scalar.
///
/// # Errors
///
/// Fails on type misuse (e.g. `NOT` on numerics).
pub fn apply_unop(op: UnOp, a: Scalar) -> Result<Scalar, NirError> {
    use UnOp::*;
    match op {
        Not => Ok(Scalar::Bool(!a.to_bool()?)),
        Neg => match a {
            Scalar::I32(v) => Ok(Scalar::I32(v.wrapping_neg())),
            Scalar::F32(v) => Ok(Scalar::F32(-v)),
            Scalar::F64(v) => Ok(Scalar::F64(-v)),
            Scalar::Bool(_) => Err(NirError::Eval("negation of logical".into())),
        },
        Abs => match a {
            Scalar::I32(v) => Ok(Scalar::I32(v.wrapping_abs())),
            Scalar::F32(v) => Ok(Scalar::F32(v.abs())),
            Scalar::F64(v) => Ok(Scalar::F64(v.abs())),
            Scalar::Bool(_) => Err(NirError::Eval("ABS of logical".into())),
        },
        Sqrt | Sin | Cos | Exp | Log => {
            let x = a.to_f64()?;
            let r = match op {
                Sqrt => x.sqrt(),
                Sin => x.sin(),
                Cos => x.cos(),
                Exp => x.exp(),
                Log => x.ln(),
                _ => unreachable!("transcendentals enumerated"),
            };
            Ok(match a {
                Scalar::F32(_) => Scalar::F32(r as f32),
                _ => Scalar::F64(r),
            })
        }
        ToFloat64 => Ok(Scalar::F64(a.to_f64()?)),
        ToFloat32 => Ok(Scalar::F32(a.to_f64()? as f32)),
        ToInt => Ok(Scalar::I32(a.to_f64()?.trunc() as i32)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::*;
    use crate::value::SectionRange;

    #[test]
    fn fig8_whole_array_assignments() {
        // L = 6 ; K = 2*K + 5 over K(128,64), L(128)
        let p = with_domain(
            "alpha",
            interval(1, 128),
            with_domain(
                "beta",
                prod(vec![domain("alpha"), interval(1, 64)]),
                with_decl(
                    declset(vec![
                        decl("k", dfield(domain("beta"), int32())),
                        decl("l", dfield(domain("alpha"), int32())),
                    ]),
                    seq(vec![
                        mv(avar("l", everywhere()), int(6)),
                        mv(
                            avar("k", everywhere()),
                            add(mul(int(2), ld("k", everywhere())), int(5)),
                        ),
                    ]),
                ),
            ),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        let l = ev.final_array_f64("l").unwrap();
        assert_eq!(l.len(), 128);
        assert!(l.iter().all(|&x| x == 6.0));
        let k = ev.final_array_f64("k").unwrap();
        assert_eq!(k.len(), 128 * 64);
        assert!(k.iter().all(|&x| x == 5.0)); // K started at 0
    }

    #[test]
    fn fig7_forall_coordinate_sum() {
        // FORALL (i=1:32, j=1:32) A(i,j) = i+j
        let p = with_domain(
            "alpha",
            prod(vec![interval(1, 32), interval(1, 32)]),
            with_decl(
                decl("a", dfield(domain("alpha"), int32())),
                mv(
                    avar("a", everywhere()),
                    add(
                        local_under(domain("alpha"), 1),
                        local_under(domain("alpha"), 2),
                    ),
                ),
            ),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        let a = ev.final_array_f64("a").unwrap();
        // a[(i-1)*32 + (j-1)] == i+j
        assert_eq!(a[0], 2.0);
        assert_eq!(a[31], 1.0 + 32.0);
        assert_eq!(a[32 * 31 + 31], 64.0);
    }

    #[test]
    fn masked_move_only_touches_masked_points() {
        let p = with_domain(
            "s",
            interval(1, 8),
            with_decl(
                decl("a", dfield(domain("s"), int32())),
                seq(vec![
                    mv(avar("a", everywhere()), int(1)),
                    mv_masked(
                        bin(
                            crate::ops::BinOp::Eq,
                            bin(crate::ops::BinOp::Mod, local_under(domain("s"), 1), int(2)),
                            int(0),
                        ),
                        avar("a", everywhere()),
                        int(9),
                    ),
                ]),
            ),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        let a = ev.final_array_f64("a").unwrap();
        assert_eq!(a, vec![1.0, 9.0, 1.0, 9.0, 1.0, 9.0, 1.0, 9.0]);
    }

    #[test]
    fn section_read_and_write() {
        // L(1:3) = L(5:7) style with strides
        let p = with_domain(
            "s",
            interval(1, 8),
            with_decl(
                decl("l", dfield(domain("s"), int32())),
                seq(vec![
                    mv(avar("l", everywhere()), local_under(domain("s"), 1)),
                    mv(
                        avar("l", section(vec![SectionRange::new(1, 3)])),
                        ld("l", section(vec![SectionRange::new(5, 7)])),
                    ),
                ]),
            ),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        let l = ev.final_array_f64("l").unwrap();
        assert_eq!(l, vec![5.0, 6.0, 7.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn rhs_is_fully_evaluated_before_assignment() {
        // L(2:8) = L(1:7): Fortran semantics requires old values.
        let p = with_domain(
            "s",
            interval(1, 8),
            with_decl(
                decl("l", dfield(domain("s"), int32())),
                seq(vec![
                    mv(avar("l", everywhere()), local_under(domain("s"), 1)),
                    mv(
                        avar("l", section(vec![SectionRange::new(2, 8)])),
                        ld("l", section(vec![SectionRange::new(1, 7)])),
                    ),
                ]),
            ),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        let l = ev.final_array_f64("l").unwrap();
        assert_eq!(l, vec![1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn serial_do_with_subscripts() {
        // DO i=1,64: C(i) = A(i,i) — the Fig. 9 diagonal gather.
        let p = with_domain(
            "gamma",
            interval(1, 8),
            with_domain(
                "beta",
                serial_interval(1, 8),
                with_domain(
                    "alpha",
                    prod(vec![domain("beta"), domain("gamma")]),
                    with_decl(
                        declset(vec![
                            decl("a", dfield(domain("alpha"), int32())),
                            decl("c", dfield(domain("beta"), int32())),
                        ]),
                        seq(vec![
                            mv(
                                avar("a", everywhere()),
                                mul(
                                    local_under(domain("alpha"), 1),
                                    local_under(domain("alpha"), 2),
                                ),
                            ),
                            do_over(
                                "i",
                                domain("beta"),
                                mv(
                                    avar("c", subscript(vec![do_index("i", 1)])),
                                    ld("a", subscript(vec![do_index("i", 1), do_index("i", 1)])),
                                ),
                            ),
                        ]),
                    ),
                ),
            ),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        let c = ev.final_array_f64("c").unwrap();
        let expect: Vec<f64> = (1..=8).map(|i| (i * i) as f64).collect();
        assert_eq!(c, expect);
    }

    #[test]
    fn cshift_intrinsic_through_fcncall() {
        let p = with_domain(
            "s",
            interval(1, 5),
            with_decl(
                declset(vec![
                    decl("a", dfield(domain("s"), int32())),
                    decl("b", dfield(domain("s"), int32())),
                ]),
                seq(vec![
                    mv(avar("a", everywhere()), local_under(domain("s"), 1)),
                    mv(
                        avar("b", everywhere()),
                        fcncall(
                            "cshift",
                            vec![
                                (int32(), ld("a", everywhere())),
                                (int32(), int(-1)),
                                (int32(), int(1)),
                            ],
                        ),
                    ),
                ]),
            ),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        let b = ev.final_array_f64("b").unwrap();
        assert_eq!(b, vec![5.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn while_and_if_control_flow() {
        // x = 0; while x < 5 { if even(x) { y = y + 10 } else { y = y + 1 }; x = x + 1 }
        let p = with_decl(
            declset(vec![decl("x", int32()), decl("y", int32())]),
            while_loop(
                bin(crate::ops::BinOp::Lt, svar("x"), int(5)),
                seq(vec![
                    ifte(
                        bin(
                            crate::ops::BinOp::Eq,
                            bin(crate::ops::BinOp::Mod, svar("x"), int(2)),
                            int(0),
                        ),
                        mv(svar_lv("y"), add(svar("y"), int(10))),
                        mv(svar_lv("y"), add(svar("y"), int(1))),
                    ),
                    mv(svar_lv("x"), add(svar("x"), int(1))),
                ]),
            ),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        assert_eq!(ev.final_scalar_f64("y").unwrap(), 32.0); // 10+1+10+1+10
    }

    #[test]
    fn sum_reduction() {
        let p = with_domain(
            "s",
            interval(1, 100),
            with_decl(
                declset(vec![
                    decl("a", dfield(domain("s"), int32())),
                    decl("t", int32()),
                ]),
                seq(vec![
                    mv(avar("a", everywhere()), local_under(domain("s"), 1)),
                    mv(
                        svar_lv("t"),
                        fcncall("sum", vec![(int32(), ld("a", everywhere()))]),
                    ),
                ]),
            ),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        assert_eq!(ev.final_scalar_f64("t").unwrap(), 5050.0);
    }

    #[test]
    fn integer_division_truncates() {
        assert_eq!(
            apply_binop(BinOp::Div, Scalar::I32(7), Scalar::I32(2)).unwrap(),
            Scalar::I32(3)
        );
        assert_eq!(
            apply_binop(BinOp::Div, Scalar::I32(-7), Scalar::I32(2)).unwrap(),
            Scalar::I32(-3)
        );
    }

    #[test]
    fn division_by_zero_is_an_error() {
        assert!(apply_binop(BinOp::Div, Scalar::F64(1.0), Scalar::F64(0.0)).is_err());
        assert!(apply_binop(BinOp::Div, Scalar::I32(1), Scalar::I32(0)).is_err());
    }

    #[test]
    fn initialized_declarations() {
        let p = with_decl(
            initialized("x", float64(), f64c(2.5)),
            mv(svar_lv("x"), mul(svar("x"), f64c(4.0))),
        );
        let mut ev = Evaluator::new();
        ev.run(&p).unwrap();
        assert_eq!(ev.final_scalar_f64("x").unwrap(), 10.0);
    }
}
