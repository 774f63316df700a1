//! The FE/NIR compiler's output, executing: the host program.
//!
//! "The FE/NIR compiler translates the NIR remainder program into SPARC
//! assembly code plus runtime system library calls. DO- and
//! MOVE-constructs over serial shapes become explicit iteration …
//! declarative NIR constructs become memory allocations … communication
//! intrinsics are replaced by calls to their CM runtime library
//! implementations. For each computation block being executed remotely,
//! the compiler inserts calling code to push PEAC procedure arguments
//! over the IFIFO to the processors." (paper §5.2)
//!
//! In this reproduction the host program is *interpreted* with a
//! per-operation cost model (`HOST_OP_CYCLES`) standing in for the
//! paper's deliberately naive memory-to-memory SPARC code — the paper
//! itself argues host time is off the critical path, and the
//! host-fraction experiment reproduces that claim.

use std::collections::HashMap;

use f90y_cm2::runtime::ReduceOp;
use f90y_nir::array::Scalar as NScalar;
use f90y_nir::eval::{apply_binop, apply_unop};
use f90y_nir::{Const, Decl, FieldAction, LValue, MoveClause, ScalarType, Shape, Type, Value};
use f90y_transform::program::Binder;

use crate::machine::Machine;
use crate::{ArrayParam, BackendError, CompiledProgram, HostStmt};

/// A finalised program variable, captured when its scope exited.
#[derive(Debug, Clone, PartialEq)]
pub enum Final {
    /// A scalar's last value.
    Scalar(f64),
    /// An array's last contents (row-major).
    Array(Vec<f64>),
}

/// The result of running a compiled program on a machine.
#[derive(Debug, Clone)]
pub struct HostRun {
    finals: HashMap<String, Final>,
}

impl HostRun {
    /// The final contents of an array variable.
    ///
    /// # Errors
    ///
    /// Fails when the variable was not captured or is a scalar.
    pub fn final_array(&self, name: &str) -> Result<Vec<f64>, BackendError> {
        match self.finals.get(name) {
            Some(Final::Array(v)) => Ok(v.clone()),
            Some(Final::Scalar(_)) => Err(BackendError::Host(format!("'{name}' is a scalar"))),
            None => Err(BackendError::Host(format!("no final value for '{name}'"))),
        }
    }

    /// The final value of a scalar variable.
    ///
    /// # Errors
    ///
    /// Fails when the variable was not captured or is an array.
    pub fn final_scalar(&self, name: &str) -> Result<f64, BackendError> {
        match self.finals.get(name) {
            Some(Final::Scalar(v)) => Ok(*v),
            Some(Final::Array(_)) => Err(BackendError::Host(format!("'{name}' is an array"))),
            None => Err(BackendError::Host(format!("no final value for '{name}'"))),
        }
    }

    /// All captured finals.
    pub fn finals(&self) -> &HashMap<String, Final> {
        &self.finals
    }
}

#[derive(Debug, Clone)]
struct ArrayRef<I> {
    id: I,
    dims: Vec<usize>,
    lower: Vec<i64>,
    elem: ScalarType,
}

#[derive(Debug, Clone)]
enum Entry<I> {
    Scalar(NScalar),
    Array(ArrayRef<I>),
}

/// A host value during expression evaluation.
#[derive(Debug, Clone)]
enum HVal {
    Scalar(NScalar),
    Array(Vec<NScalar>, Vec<usize>),
}

/// The front-end executor: runs a [`CompiledProgram`] on any
/// [`Machine`] — the CM/2 SIMD simulator or the CM/5 MIMD runtime.
#[derive(Debug)]
pub struct HostExecutor<'m, M: Machine> {
    cm: &'m mut M,
    scopes: Vec<HashMap<String, Entry<M::Id>>>,
    domains: HashMap<String, Shape>,
    do_env: Vec<(String, Vec<i64>)>,
    finals: HashMap<String, Final>,
}

impl<'m, M: Machine> HostExecutor<'m, M> {
    /// An executor over the given machine.
    pub fn new(cm: &'m mut M) -> Self {
        HostExecutor {
            cm,
            scopes: vec![HashMap::new()],
            domains: HashMap::new(),
            do_env: Vec::new(),
            finals: HashMap::new(),
        }
    }

    /// Run the program to completion.
    ///
    /// # Errors
    ///
    /// Fails on any dynamic host error or machine fault.
    pub fn run(mut self, program: &CompiledProgram) -> Result<HostRun, BackendError> {
        // Outer binders: domains and global allocations.
        for b in &program.binders {
            match b {
                Binder::Domain(name, shape) => {
                    let resolved = shape.resolve(&self.domains).map_err(BackendError::Nir)?;
                    self.domains.insert(name.clone(), resolved);
                }
                Binder::Decls(d) => self.alloc_decls(d)?,
            }
        }
        self.exec_stmts(&program.host, program)?;
        // Capture everything still live: finals are moved out, so a
        // finished run leaves no program array on the machine.
        while let Some(scope) = self.scopes.pop() {
            self.capture(scope)?;
        }
        Ok(HostRun {
            finals: self.finals,
        })
    }

    fn capture(&mut self, scope: HashMap<String, Entry<M::Id>>) -> Result<(), BackendError> {
        for (name, entry) in scope {
            let value = match entry {
                Entry::Scalar(s) => {
                    Final::Scalar(s.to_f64().unwrap_or(if matches!(s, NScalar::Bool(true)) {
                        1.0
                    } else {
                        0.0
                    }))
                }
                Entry::Array(a) => Final::Array(self.cm.take(a.id)?),
            };
            self.finals.entry(name).or_insert(value);
        }
        Ok(())
    }

    fn alloc_decls(&mut self, d: &Decl) -> Result<(), BackendError> {
        for (id, ty, init) in d.bindings() {
            let entry = match ty {
                Type::Scalar(st) => {
                    let mut v = NScalar::zero(*st);
                    if let Some(e) = init {
                        let s = self.eval_scalar(e)?;
                        v = s.convert(*st).map_err(BackendError::Nir)?;
                    }
                    Entry::Scalar(v)
                }
                Type::DField { shape, elem } => {
                    let resolved = shape.resolve(&self.domains).map_err(BackendError::Nir)?;
                    let extents = resolved.extents();
                    let dims: Vec<usize> = extents.iter().map(|e| e.len()).collect();
                    let lower: Vec<i64> = extents.iter().map(|e| e.lo).collect();
                    let aid = self.cm.alloc_with_bounds(&dims, &lower);
                    self.cm.charge_host_ops(2);
                    if let Some(e) = init {
                        let s = self.eval_scalar(e)?;
                        let v = s.to_f64().map_err(BackendError::Nir)?;
                        let total: usize = dims.iter().product();
                        self.cm.write(aid, &vec![v; total])?;
                    }
                    Entry::Array(ArrayRef {
                        id: aid,
                        dims,
                        lower,
                        elem: elem.elem_scalar(),
                    })
                }
            };
            self.scopes
                .last_mut()
                .expect("executor always has a scope")
                .insert(id.clone(), entry);
        }
        Ok(())
    }

    fn lookup(&self, name: &str) -> Result<&Entry<M::Id>, BackendError> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .ok_or_else(|| BackendError::Host(format!("unbound variable '{name}'")))
    }

    fn lookup_array(&self, name: &str) -> Result<ArrayRef<M::Id>, BackendError> {
        match self.lookup(name)? {
            Entry::Array(a) => Ok(a.clone()),
            Entry::Scalar(_) => Err(BackendError::Host(format!("'{name}' is a scalar"))),
        }
    }

    fn exec_stmts(
        &mut self,
        stmts: &[HostStmt],
        program: &CompiledProgram,
    ) -> Result<(), BackendError> {
        for s in stmts {
            self.exec_stmt(s, program)?;
        }
        Ok(())
    }

    fn exec_stmt(
        &mut self,
        stmt: &HostStmt,
        program: &CompiledProgram,
    ) -> Result<(), BackendError> {
        match stmt {
            HostStmt::Dispatch(i) => self.dispatch(*i, program),
            HostStmt::Comm {
                dst,
                src,
                dim,
                shift,
                boundary,
            } => {
                let dim = self.eval_scalar(dim)?.to_i64().map_err(BackendError::Nir)?;
                let shift = self
                    .eval_scalar(shift)?
                    .to_i64()
                    .map_err(BackendError::Nir)?;
                let src_ref = self.lookup_array(src)?;
                let dst_ref = self.lookup_array(dst)?;
                if dim < 1 || dim as usize > src_ref.dims.len() {
                    return Err(BackendError::Host(format!("bad CSHIFT DIM={dim}")));
                }
                let tmp = match boundary {
                    None => self.cm.cshift(src_ref.id, dim as usize - 1, shift)?,
                    Some(b) => {
                        let b = self.eval_scalar(b)?.to_f64().map_err(BackendError::Nir)?;
                        self.cm.eoshift(src_ref.id, dim as usize - 1, shift, b)?
                    }
                };
                self.cm.assign(dst_ref.id, tmp)?;
                self.cm.charge_host_ops(4);
                Ok(())
            }
            HostStmt::HostMove(clauses) => {
                for c in clauses {
                    self.exec_host_clause(c)?;
                }
                Ok(())
            }
            HostStmt::Do { dom, shape, body } => {
                let resolved = shape.resolve(&self.domains).map_err(BackendError::Nir)?;
                for p in resolved.points() {
                    self.cm.charge_host_ops(2); // loop bookkeeping
                    self.do_env.push((dom.clone(), p));
                    let r = self.exec_stmts(body, program);
                    self.do_env.pop();
                    r?;
                }
                Ok(())
            }
            HostStmt::While { cond, body } => {
                let mut fuel: u64 = 100_000_000;
                loop {
                    self.cm.charge_host_ops(value_size(cond));
                    let c = self
                        .eval_scalar(cond)?
                        .to_bool()
                        .map_err(BackendError::Nir)?;
                    if !c {
                        return Ok(());
                    }
                    self.exec_stmts(body, program)?;
                    fuel -= 1;
                    if fuel == 0 {
                        return Err(BackendError::Host("WHILE exceeded fuel".into()));
                    }
                }
            }
            HostStmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.cm.charge_host_ops(value_size(cond));
                if self
                    .eval_scalar(cond)?
                    .to_bool()
                    .map_err(BackendError::Nir)?
                {
                    self.exec_stmts(then_body, program)
                } else {
                    self.exec_stmts(else_body, program)
                }
            }
            HostStmt::WithDecl { decl, body } => {
                self.scopes.push(HashMap::new());
                let r = self
                    .alloc_decls(decl)
                    .and_then(|()| self.exec_stmts(body, program));
                let scope = self.scopes.pop().expect("scope pushed above");
                self.capture(scope)?;
                r
            }
            HostStmt::WithDomain { name, shape, body } => {
                let old = self.domains.insert(name.clone(), shape.clone());
                let r = self.exec_stmts(body, program);
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

    fn dispatch(&mut self, index: usize, program: &CompiledProgram) -> Result<(), BackendError> {
        let block = program
            .blocks
            .get(index)
            .ok_or_else(|| BackendError::Host(format!("unknown block {index}")))?;
        let extents = block.shape.extents();
        let dims: Vec<usize> = extents.iter().map(|e| e.len()).collect();
        let lower: Vec<i64> = extents.iter().map(|e| e.lo).collect();
        let mut ids = Vec::with_capacity(block.array_params.len());
        for p in &block.array_params {
            let id = match p {
                ArrayParam::Read(v) | ArrayParam::Write(v) => self.lookup_array(v)?.id,
                ArrayParam::Coord(dim) => self.cm.coordinates(&dims, &lower, *dim - 1),
            };
            ids.push(id);
        }
        let mut scalars = Vec::with_capacity(block.scalar_params.len());
        for v in &block.scalar_params {
            scalars.push(self.eval_scalar(v)?.to_f64().map_err(BackendError::Nir)?);
        }
        self.cm
            .charge_host_ops(2 + ids.len() as u64 + scalars.len() as u64);
        self.cm.dispatch(&block.routine, &ids, &scalars)?;
        Ok(())
    }

    // -----------------------------------------------------------------
    // Host moves (element, scalar, and router-path array moves)
    // -----------------------------------------------------------------

    fn exec_host_clause(&mut self, c: &MoveClause) -> Result<(), BackendError> {
        self.cm
            .charge_host_ops(value_size(&c.src) + value_size(&c.mask));
        match &c.dst {
            LValue::SVar(name) => {
                let enabled = self
                    .eval_scalar(&c.mask)?
                    .to_bool()
                    .map_err(BackendError::Nir)?;
                if !enabled {
                    return Ok(());
                }
                let v = self.eval_scalar(&c.src)?;
                let entry = self
                    .scopes
                    .iter_mut()
                    .rev()
                    .find_map(|s| s.get_mut(name))
                    .ok_or_else(|| BackendError::Host(format!("unbound '{name}'")))?;
                match entry {
                    Entry::Scalar(s) => {
                        *s = v.convert(s.scalar_type()).map_err(BackendError::Nir)?;
                        Ok(())
                    }
                    Entry::Array(_) => Err(BackendError::Host(format!(
                        "SVAR target '{name}' is an array"
                    ))),
                }
            }
            LValue::AVar(name, FieldAction::Subscript(ixs)) => {
                let enabled = self
                    .eval_scalar(&c.mask)?
                    .to_bool()
                    .map_err(BackendError::Nir)?;
                if !enabled {
                    return Ok(());
                }
                let arr = self.lookup_array(name)?;
                let flat = self.flat_index(&arr, ixs)?;
                let v = self.eval_scalar(&c.src)?;
                let v = v.convert(arr.elem).map_err(BackendError::Nir)?;
                self.cm
                    .host_write_elem(arr.id, flat, v.to_f64().map_err(BackendError::Nir)?)?;
                Ok(())
            }
            LValue::AVar(name, fa @ (FieldAction::Everywhere | FieldAction::Section(_))) => {
                // Router path: a data motion the grid network cannot
                // express (misaligned sections, host-context whole-array
                // moves).
                let arr = self.lookup_array(name)?;
                let mask = self.eval_host(&c.mask)?;
                let src = self.eval_host(&c.src)?;
                let mut data = self.cm.read(arr.id)?;
                let flats: Vec<usize> = match fa {
                    FieldAction::Everywhere => (0..data.len()).collect(),
                    FieldAction::Section(ranges) => section_flats(&arr, ranges)?,
                    FieldAction::Subscript(_) => unreachable!("matched above"),
                };
                let n = flats.len();
                check_conforms(&mask, n, "mask")?;
                check_conforms(&src, n, "source")?;
                for (k, &flat) in flats.iter().enumerate() {
                    let enabled = match &mask {
                        HVal::Scalar(s) => s.to_bool().map_err(BackendError::Nir)?,
                        HVal::Array(m, _) => m[k].to_bool().map_err(BackendError::Nir)?,
                    };
                    if !enabled {
                        continue;
                    }
                    let v = match &src {
                        HVal::Scalar(s) => *s,
                        HVal::Array(vs, _) => vs[k],
                    };
                    data[flat] = v
                        .convert(arr.elem)
                        .map_err(BackendError::Nir)?
                        .to_f64()
                        .map_err(BackendError::Nir)?;
                }
                self.cm.write(arr.id, &data)?;
                self.cm.charge_router_move(arr.id)?;
                Ok(())
            }
        }
    }

    fn flat_index(&mut self, arr: &ArrayRef<M::Id>, ixs: &[Value]) -> Result<usize, BackendError> {
        if ixs.len() != arr.dims.len() {
            return Err(BackendError::Host(format!(
                "rank mismatch: {} subscripts for rank {}",
                ixs.len(),
                arr.dims.len()
            )));
        }
        let mut flat = 0usize;
        for (k, ix) in ixs.iter().enumerate() {
            let c = self.eval_scalar(ix)?.to_i64().map_err(BackendError::Nir)?;
            let off = c - arr.lower[k];
            if off < 0 || off as usize >= arr.dims[k] {
                return Err(BackendError::Host(format!(
                    "subscript {c} out of bounds in axis {}",
                    k + 1
                )));
            }
            flat = flat * arr.dims[k] + off as usize;
        }
        Ok(flat)
    }

    // -----------------------------------------------------------------
    // Host expression evaluation
    // -----------------------------------------------------------------

    fn eval_scalar(&mut self, v: &Value) -> Result<NScalar, BackendError> {
        match self.eval_host(v)? {
            HVal::Scalar(s) => Ok(s),
            HVal::Array(..) => Err(BackendError::Host(format!(
                "array value where the host needs a scalar: {v}"
            ))),
        }
    }

    fn eval_host(&mut self, v: &Value) -> Result<HVal, BackendError> {
        match v {
            Value::Scalar(c) => Ok(HVal::Scalar(match c {
                Const::I32(i) => NScalar::I32(*i),
                Const::Bool(b) => NScalar::Bool(*b),
                Const::F32(x) => NScalar::F32(*x),
                Const::F64(x) => NScalar::F64(*x),
            })),
            Value::SVar(name) => match self.lookup(name)? {
                Entry::Scalar(s) => Ok(HVal::Scalar(*s)),
                Entry::Array(_) => Err(BackendError::Host(format!("SVAR '{name}' is an array"))),
            },
            Value::DoIndex(dom, dim) => {
                let (_, coords) = self
                    .do_env
                    .iter()
                    .rev()
                    .find(|(d, _)| d == dom)
                    .ok_or_else(|| BackendError::Host(format!("do_index outside DO '{dom}'")))?;
                let c = coords.get(*dim - 1).copied().ok_or_else(|| {
                    BackendError::Host(format!("do_index axis {dim} out of range"))
                })?;
                Ok(HVal::Scalar(NScalar::I32(c as i32)))
            }
            Value::AVar(name, FieldAction::Subscript(ixs)) => {
                let arr = self.lookup_array(name)?;
                let ixs = ixs.clone();
                let flat = self.flat_index(&arr, &ixs)?;
                let raw = self.cm.host_read_elem(arr.id, flat)?;
                Ok(HVal::Scalar(
                    NScalar::F64(raw)
                        .convert(arr.elem)
                        .map_err(BackendError::Nir)?,
                ))
            }
            Value::AVar(name, FieldAction::Everywhere) => {
                let arr = self.lookup_array(name)?;
                let data = self.cm.read(arr.id)?;
                let typed = data
                    .into_iter()
                    .map(|x| NScalar::F64(x).convert(arr.elem))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(BackendError::Nir)?;
                Ok(HVal::Array(typed, arr.dims.clone()))
            }
            Value::AVar(name, FieldAction::Section(ranges)) => {
                let arr = self.lookup_array(name)?;
                let data = self.cm.read(arr.id)?;
                let flats = section_flats(&arr, ranges)?;
                let dims: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let typed = flats
                    .into_iter()
                    .map(|f| NScalar::F64(data[f]).convert(arr.elem))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(BackendError::Nir)?;
                Ok(HVal::Array(typed, dims))
            }
            Value::LocalUnder(shape, dim) => {
                let resolved = shape.resolve(&self.domains).map_err(BackendError::Nir)?;
                let mut out = Vec::with_capacity(resolved.size());
                for p in resolved.points() {
                    out.push(NScalar::I32(p[*dim - 1] as i32));
                }
                let dims: Vec<usize> = resolved.extents().iter().map(|e| e.len()).collect();
                Ok(HVal::Array(out, dims))
            }
            Value::Unary(op, a) => {
                let a = self.eval_host(a)?;
                map_hval(a, |s| apply_unop(*op, s).map_err(BackendError::Nir))
            }
            Value::Binary(op, a, b) => {
                let a = self.eval_host(a)?;
                let b = self.eval_host(b)?;
                zip_hval(a, b, |x, y| {
                    apply_binop(*op, x, y).map_err(BackendError::Nir)
                })
            }
            Value::FcnCall(name, args) => self.eval_call(name, args),
        }
    }

    fn eval_call(&mut self, name: &str, args: &[(Type, Value)]) -> Result<HVal, BackendError> {
        match name {
            "sum" | "maxval" | "minval" if args.len() == 2 => {
                // Partial reduction along an axis: computed by a grid
                // scan; charged as a reduction call.
                let HVal::Array(data, dims) = self.eval_host(&args[0].1)? else {
                    return Err(BackendError::Host(format!("{name} of a scalar")));
                };
                let dim = self
                    .eval_scalar(&args[1].1)?
                    .to_i64()
                    .map_err(BackendError::Nir)?;
                if dim < 1 || dim as usize > dims.len() {
                    return Err(BackendError::Host(format!("{name} DIM={dim} out of range")));
                }
                let axis = dim as usize - 1;
                let inner: usize = dims[axis + 1..].iter().product();
                let extent = dims[axis];
                let outer: usize = dims[..axis].iter().product();
                let mut out = Vec::with_capacity(outer * inner);
                for o in 0..outer {
                    for i in 0..inner {
                        let mut acc = match name {
                            "sum" => 0.0,
                            "maxval" => f64::NEG_INFINITY,
                            _ => f64::INFINITY,
                        };
                        for a in 0..extent {
                            let v = data[(o * extent + a) * inner + i]
                                .to_f64()
                                .map_err(BackendError::Nir)?;
                            acc = match name {
                                "sum" => acc + v,
                                "maxval" => acc.max(v),
                                _ => acc.min(v),
                            };
                        }
                        let elem = data[0].scalar_type();
                        out.push(NScalar::F64(acc).convert(elem).map_err(BackendError::Nir)?);
                    }
                }
                // Charge as a reduction over the source geometry.
                let tmp = self.cm.alloc(&dims);
                let raw: Vec<f64> = data
                    .iter()
                    .map(|s| s.to_f64())
                    .collect::<Result<_, _>>()
                    .map_err(BackendError::Nir)?;
                self.cm.write(tmp, &raw)?;
                self.cm.reduce(tmp, ReduceOp::Sum)?;
                self.cm.free(tmp)?;
                let mut out_dims = dims.clone();
                out_dims.remove(axis);
                Ok(HVal::Array(out, out_dims))
            }
            "spread" => {
                let HVal::Array(data, dims) = self.eval_host(&args[0].1)? else {
                    return Err(BackendError::Host("spread of a scalar".into()));
                };
                let dim = self
                    .eval_scalar(&args[1].1)?
                    .to_i64()
                    .map_err(BackendError::Nir)?;
                let n = self
                    .eval_scalar(&args[2].1)?
                    .to_i64()
                    .map_err(BackendError::Nir)?;
                if dim < 1 || dim as usize > dims.len() + 1 || n < 0 {
                    return Err(BackendError::Host(format!(
                        "bad SPREAD arguments DIM={dim} NCOPIES={n}"
                    )));
                }
                let axis = dim as usize - 1;
                let n = n as usize;
                let inner: usize = dims[axis..].iter().product();
                let outer: usize = dims[..axis].iter().product();
                let mut out = Vec::with_capacity(data.len() * n);
                for o in 0..outer {
                    for _ in 0..n {
                        out.extend_from_slice(&data[o * inner..(o + 1) * inner]);
                    }
                }
                let mut out_dims = dims.clone();
                out_dims.insert(axis, n);
                // A broadcast rides the grid network: charge one grid
                // communication over the result geometry.
                let tmp = self.cm.alloc(&out_dims);
                self.cm.charge_router_move(tmp)?;
                self.cm.free(tmp)?;
                Ok(HVal::Array(out, out_dims))
            }
            "sum" | "maxval" | "minval" => {
                let op = match name {
                    "sum" => ReduceOp::Sum,
                    "maxval" => ReduceOp::Max,
                    _ => ReduceOp::Min,
                };
                let arg = &args[0].1;
                // Fast path: a plain array variable reduces in place.
                if let Value::AVar(v, FieldAction::Everywhere) = arg {
                    let arr = self.lookup_array(v)?;
                    let x = self.cm.reduce(arr.id, op)?;
                    return Ok(HVal::Scalar(
                        NScalar::F64(x)
                            .convert(match arr.elem {
                                ScalarType::Integer32 => ScalarType::Integer32,
                                other => other,
                            })
                            .map_err(BackendError::Nir)?,
                    ));
                }
                // General case: materialise, reduce, free.
                let HVal::Array(data, dims) = self.eval_host(arg)? else {
                    return Err(BackendError::Host(format!("{name} of a scalar")));
                };
                let raw: Vec<f64> = data
                    .iter()
                    .map(|s| s.to_f64())
                    .collect::<Result<_, _>>()
                    .map_err(BackendError::Nir)?;
                let tmp = self.cm.alloc_from(&dims, raw);
                let x = self.cm.reduce(tmp, op)?;
                self.cm.free(tmp)?;
                Ok(HVal::Scalar(NScalar::F64(x)))
            }
            "merge" => {
                let t = self.eval_host(&args[0].1)?;
                let f = self.eval_host(&args[1].1)?;
                let m = self.eval_host(&args[2].1)?;
                let n = [&t, &f, &m].iter().find_map(|v| match v {
                    HVal::Array(d, _) => Some(d.len()),
                    HVal::Scalar(_) => None,
                });
                let Some(n) = n else {
                    let HVal::Scalar(ms) = m else {
                        unreachable!("no arrays")
                    };
                    let cond = ms.to_bool().map_err(BackendError::Nir)?;
                    return Ok(if cond { t } else { f });
                };
                let dims = [&t, &f, &m]
                    .iter()
                    .find_map(|v| match v {
                        HVal::Array(_, dims) => Some(dims.clone()),
                        HVal::Scalar(_) => None,
                    })
                    .expect("n came from an array");
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    let cond = match &m {
                        HVal::Scalar(s) => s.to_bool().map_err(BackendError::Nir)?,
                        HVal::Array(d, _) => d[i].to_bool().map_err(BackendError::Nir)?,
                    };
                    let v = match (cond, &t, &f) {
                        (true, HVal::Scalar(s), _) => *s,
                        (true, HVal::Array(d, _), _) => d[i],
                        (false, _, HVal::Scalar(s)) => *s,
                        (false, _, HVal::Array(d, _)) => d[i],
                    };
                    out.push(v);
                }
                Ok(HVal::Array(out, dims))
            }
            "transpose" => {
                let HVal::Array(data, dims) = self.eval_host(&args[0].1)? else {
                    return Err(BackendError::Host("transpose of a scalar".into()));
                };
                if dims.len() != 2 {
                    return Err(BackendError::Host(format!(
                        "transpose requires rank 2, got rank {}",
                        dims.len()
                    )));
                }
                let (r, c) = (dims[0], dims[1]);
                let mut out = vec![data[0]; data.len()];
                for i in 0..r {
                    for j in 0..c {
                        out[j * r + i] = data[i * c + j];
                    }
                }
                // A transpose is a general permutation: charge the
                // router over a temporary of the result's geometry.
                let tmp = self.cm.alloc(&[c, r]);
                self.cm.charge_router_move(tmp)?;
                self.cm.free(tmp)?;
                Ok(HVal::Array(out, vec![c, r]))
            }
            "cshift" | "eoshift" => {
                // Host-context communication (shift amounts depending on
                // DO indices, etc.): materialise the argument, call the
                // runtime, take the result back.
                let HVal::Array(data, dims) = self.eval_host(&args[0].1)? else {
                    return Err(BackendError::Host(format!("{name} of a scalar")));
                };
                let shift = self
                    .eval_scalar(&args[1].1)?
                    .to_i64()
                    .map_err(BackendError::Nir)?;
                let dim = self
                    .eval_scalar(&args[2].1)?
                    .to_i64()
                    .map_err(BackendError::Nir)?;
                if dim < 1 || dim as usize > dims.len() {
                    return Err(BackendError::Host(format!("bad {name} DIM={dim}")));
                }
                let elem = data
                    .first()
                    .map(|s| s.scalar_type())
                    .unwrap_or(ScalarType::Float64);
                let raw: Vec<f64> = data
                    .iter()
                    .map(|s| s.to_f64())
                    .collect::<Result<_, _>>()
                    .map_err(BackendError::Nir)?;
                let tmp = self.cm.alloc_from(&dims, raw);
                let shifted = if name == "cshift" {
                    self.cm.cshift(tmp, dim as usize - 1, shift)?
                } else {
                    let b = match args.get(3) {
                        Some((_, v)) => self.eval_scalar(v)?.to_f64().map_err(BackendError::Nir)?,
                        None => 0.0,
                    };
                    self.cm.eoshift(tmp, dim as usize - 1, shift, b)?
                };
                let out = self.cm.take(shifted)?;
                self.cm.free(tmp)?;
                let typed = out
                    .into_iter()
                    .map(|x| NScalar::F64(x).convert(elem))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(BackendError::Nir)?;
                Ok(HVal::Array(typed, dims))
            }
            other => Err(BackendError::Host(format!("unknown primitive '{other}'"))),
        }
    }
}

fn check_conforms(v: &HVal, n: usize, what: &str) -> Result<(), BackendError> {
    if let HVal::Array(data, _) = v {
        if data.len() != n {
            return Err(BackendError::Host(format!(
                "{what} has {} elements; destination selects {n}",
                data.len()
            )));
        }
    }
    Ok(())
}

fn section_flats<I>(
    arr: &ArrayRef<I>,
    ranges: &[f90y_nir::SectionRange],
) -> Result<Vec<usize>, BackendError> {
    if ranges.len() != arr.dims.len() {
        return Err(BackendError::Host(format!(
            "section rank {} on rank-{} array",
            ranges.len(),
            arr.dims.len()
        )));
    }
    let total: usize = ranges.iter().map(|r| r.len()).product();
    let mut flats = Vec::with_capacity(total);
    if total == 0 {
        return Ok(flats);
    }
    let mut coords: Vec<i64> = ranges.iter().map(|r| r.lo).collect();
    for _ in 0..total {
        let mut flat = 0usize;
        for (k, &c) in coords.iter().enumerate() {
            let off = c - arr.lower[k];
            if off < 0 || off as usize >= arr.dims[k] {
                return Err(BackendError::Host(format!(
                    "section index {c} out of bounds in axis {}",
                    k + 1
                )));
            }
            flat = flat * arr.dims[k] + off as usize;
        }
        flats.push(flat);
        for axis in (0..ranges.len()).rev() {
            coords[axis] += ranges[axis].step;
            if coords[axis] <= ranges[axis].hi {
                break;
            }
            coords[axis] = ranges[axis].lo;
        }
    }
    Ok(flats)
}

fn map_hval(
    v: HVal,
    f: impl Fn(NScalar) -> Result<NScalar, BackendError>,
) -> Result<HVal, BackendError> {
    match v {
        HVal::Scalar(s) => Ok(HVal::Scalar(f(s)?)),
        HVal::Array(mut data, dims) => {
            for s in &mut data {
                *s = f(*s)?;
            }
            Ok(HVal::Array(data, dims))
        }
    }
}

fn zip_hval(
    a: HVal,
    b: HVal,
    f: impl Fn(NScalar, NScalar) -> Result<NScalar, BackendError>,
) -> Result<HVal, BackendError> {
    match (a, b) {
        (HVal::Scalar(x), HVal::Scalar(y)) => Ok(HVal::Scalar(f(x, y)?)),
        (HVal::Array(mut xs, dims), HVal::Scalar(y)) => {
            for x in &mut xs {
                *x = f(*x, y)?;
            }
            Ok(HVal::Array(xs, dims))
        }
        (HVal::Scalar(x), HVal::Array(mut ys, dims)) => {
            for y in &mut ys {
                *y = f(x, *y)?;
            }
            Ok(HVal::Array(ys, dims))
        }
        (HVal::Array(xs, dims), HVal::Array(ys, dims2)) => {
            if xs.len() != ys.len() {
                return Err(BackendError::Host(format!(
                    "elementwise host operation on non-conforming arrays ({} vs {})",
                    xs.len(),
                    ys.len()
                )));
            }
            let _ = dims2;
            let mut out = Vec::with_capacity(xs.len());
            for (x, y) in xs.into_iter().zip(ys) {
                out.push(f(x, y)?);
            }
            Ok(HVal::Array(out, dims))
        }
    }
}

/// The number of nodes in a value term (the host-op charge for
/// evaluating it).
pub fn value_size(v: &Value) -> u64 {
    let mut n = 0u64;
    v.walk(&mut |_| n += 1);
    n
}
