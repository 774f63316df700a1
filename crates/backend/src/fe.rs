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
//! In this reproduction the host program is *compiled* to a
//! [`HostTape`](crate::tape::HostTape) and this module is the one loop
//! over it, with a per-operation cost model (`HOST_OP_CYCLES`) standing
//! in for the paper's deliberately naive memory-to-memory SPARC code.
//! The loop is generic in the [`Machine`] it drives and computes in
//! scalars that are either known or only known at run time:
//! [`HostExecutor`] runs it over a real machine, where every value is
//! known; [`crate::plan::profile`] over a machine that only counts,
//! where whatever the machine hands back is not — so what the profile
//! predicts is what a run does, by construction.

use std::collections::HashMap;

use f90y_cm2::runtime::ReduceOp;
use f90y_nir::array::Scalar as NScalar;
use f90y_nir::eval::{apply_binop, apply_unop};
use f90y_nir::{NirError, ScalarType, SectionRange};

use crate::machine::Machine;
use crate::tape::{Arg, Dst, Expr, Grid, HostTape, Intrinsic, Op};
use crate::{BackendError, CompiledProgram};

/// `WHILE` trips a run may take, all loops together, before it is
/// declared runaway.
pub const RUN_WHILE_FUEL: u64 = 100_000_000;
/// The same for the static profile, which keeps a site per call of
/// every trip in memory.
pub const PROFILE_WHILE_FUEL: u64 = 1_000_000;

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

/// The front-end executor: runs a [`CompiledProgram`] on any
/// [`Machine`] — the CM/2 SIMD simulator or the CM/5 MIMD runtime.
#[derive(Debug)]
pub struct HostExecutor<'m, M: Machine> {
    cm: &'m mut M,
}

impl<'m, M: Machine> HostExecutor<'m, M> {
    /// An executor over the given machine.
    pub fn new(cm: &'m mut M) -> Self {
        HostExecutor { cm }
    }

    /// Run the program to completion. Finals are moved out of the
    /// machine; a failed run frees what it had allocated.
    ///
    /// # Errors
    ///
    /// Fails on any dynamic host error or machine fault.
    pub fn run(self, program: &CompiledProgram) -> Result<HostRun, BackendError> {
        match execute::<M, false>(self.cm, program) {
            Ok(finals) => Ok(HostRun { finals }),
            // A run knows every value; only a profile halts the second way.
            Err(Halt::Error(e)) | Err(Halt::DataDependent(e)) => Err(e),
        }
    }
}

/// A host scalar: `None` is a value only known at run time. In a run
/// nothing is; in a profile, whatever the machine hands back and what is
/// computed from it.
type Scalar = Option<NScalar>;

/// Why the loop stopped early.
pub(crate) enum Halt {
    /// The program or the machine failed.
    Error(BackendError),
    /// A value that decides control flow or call geometry is only known
    /// at run time (a profile only).
    DataDependent(BackendError),
}

impl<E: Into<BackendError>> From<E> for Halt {
    fn from(e: E) -> Self {
        Halt::Error(e.into())
    }
}

fn host<T>(msg: String) -> Result<T, Halt> {
    Err(Halt::Error(BackendError::Host(msg)))
}

fn data_dependent<T>(msg: String) -> Result<T, Halt> {
    Err(Halt::DataDependent(BackendError::Host(msg)))
}

/// An array value on the host. `data` is row-major; a profile tracks
/// extents only and leaves it empty.
struct Arr {
    data: Vec<NScalar>,
    dims: Vec<usize>,
}

enum Val {
    Scalar(Scalar),
    Array(Arr),
}

impl Val {
    /// Element `k` of an array, or the scalar broadcast to it.
    fn at(&self, k: usize) -> Scalar {
        match self {
            Val::Scalar(s) => *s,
            Val::Array(a) => a.data.get(k).copied(),
        }
    }

    fn conforms(&self, n: usize, what: &str) -> Result<(), Halt> {
        match self {
            Val::Array(a) if len(&a.dims) != n => host(format!(
                "{what} has {} elements; destination selects {n}",
                len(&a.dims)
            )),
            _ => Ok(()),
        }
    }
}

fn len(dims: &[usize]) -> usize {
    dims.iter().product()
}

fn convert(v: Scalar, ty: ScalarType) -> Result<Scalar, NirError> {
    v.map(|s| s.convert(ty)).transpose()
}

/// What the machine is handed for `v`; a placeholder when unknown.
fn to_machine(v: Scalar) -> Result<f64, NirError> {
    v.map_or(Ok(0.0), NScalar::to_f64)
}

fn raw(data: &[NScalar]) -> Result<Vec<f64>, NirError> {
    data.iter().map(|s| s.to_f64()).collect()
}

/// The element type of a computed array value (an empty one is `f64`).
fn elem_of(data: &[NScalar]) -> ScalarType {
    data.first()
        .map_or(ScalarType::Float64, |s| s.scalar_type())
}

fn typed(data: Vec<f64>, elem: ScalarType) -> Result<Vec<NScalar>, NirError> {
    let typed = data.into_iter().map(|x| NScalar::F64(x).convert(elem));
    typed.collect()
}

/// Row-major flat offsets a section selects (ranges checked at lowering).
fn section_flats<'a>(
    grid: &'a Grid,
    ranges: &'a [SectionRange],
) -> impl Iterator<Item = usize> + 'a {
    let total: usize = ranges.iter().map(SectionRange::len).product();
    let mut coords: Vec<i64> = ranges.iter().map(|r| r.lo).collect();
    (0..total).map(move |_| {
        let mut flat = 0;
        for (k, &c) in coords.iter().enumerate() {
            flat = flat * grid.dims[k] + (c - grid.lower[k]) as usize;
        }
        for axis in (0..ranges.len()).rev() {
            coords[axis] += ranges[axis].step;
            if coords[axis] <= ranges[axis].hi {
                break;
            }
            coords[axis] = ranges[axis].lo;
        }
        flat
    })
}

/// `f` elementwise, scalars broadcast; an unknown scalar leaves scalars
/// unknown and arrays (whose elements it cannot reach a call through)
/// as they were.
fn zip(
    a: Val,
    b: Val,
    f: impl Fn(NScalar, NScalar) -> Result<NScalar, NirError>,
) -> Result<Val, Halt> {
    Ok(match (a, b) {
        (Val::Scalar(x), Val::Scalar(y)) => Val::Scalar(match (x, y) {
            (Some(x), Some(y)) => Some(f(x, y)?),
            _ => None,
        }),
        (Val::Array(mut xs), Val::Scalar(y)) => {
            if let Some(y) = y {
                for x in &mut xs.data {
                    *x = f(*x, y)?;
                }
            }
            Val::Array(xs)
        }
        (Val::Scalar(x), Val::Array(mut ys)) => {
            if let Some(x) = x {
                for y in &mut ys.data {
                    *y = f(x, *y)?;
                }
            }
            Val::Array(ys)
        }
        (Val::Array(mut xs), Val::Array(ys)) => {
            if len(&xs.dims) != len(&ys.dims) {
                return host(format!(
                    "elementwise host operation on non-conforming arrays ({} vs {})",
                    len(&xs.dims),
                    len(&ys.dims)
                ));
            }
            for (x, y) in xs.data.iter_mut().zip(ys.data) {
                *x = f(*x, y)?;
            }
            Val::Array(xs)
        }
    })
}

/// Run `program`'s tape on `m` and return the captured finals. With
/// `PROFILE`, `m` is taken to hold no data: what it hands back is
/// unknown, and array values carry no elements. On failure every array
/// the program still holds is freed before the error is returned.
pub(crate) fn execute<M: Machine, const PROFILE: bool>(
    m: &mut M,
    program: &CompiledProgram,
) -> Result<HashMap<String, Final>, Halt> {
    let tape = &program.host;
    let mut it = Interp::<M, PROFILE> {
        m,
        tape,
        scalars: vec![None; tape.scalars.len()],
        arrays: vec![None; tape.arrays.len()],
        counters: vec![0; tape.counters],
        fuel: if PROFILE {
            PROFILE_WHILE_FUEL
        } else {
            RUN_WHILE_FUEL
        },
        finals: HashMap::new(),
    };
    let ran = it.run(program);
    if ran.is_err() {
        for id in it.arrays.iter().flatten() {
            // Best effort: the error being reported is the first one.
            let _ = it.m.free(*id);
        }
    }
    ran.map(|()| it.finals)
}

struct Interp<'a, M: Machine, const PROFILE: bool> {
    m: &'a mut M,
    tape: &'a HostTape,
    scalars: Vec<Scalar>,
    arrays: Vec<Option<M::Id>>,
    counters: Vec<i64>,
    fuel: u64,
    finals: HashMap<String, Final>,
}

impl<M: Machine, const PROFILE: bool> Interp<'_, M, PROFILE> {
    /// How many elements an `n`-element array value carries.
    fn lanes(n: usize) -> usize {
        if PROFILE {
            0
        } else {
            n
        }
    }

    /// A number the machine handed back, read as an element of `elem`.
    fn from_machine(x: f64, elem: ScalarType) -> Result<Scalar, NirError> {
        if PROFILE {
            return Ok(None);
        }
        NScalar::F64(x).convert(elem).map(Some)
    }

    fn run(&mut self, program: &CompiledProgram) -> Result<(), Halt> {
        let tape = self.tape;
        // Dispatch argument buffers, reused: a steady-state loop of
        // dispatches, shifts, reductions and element moves allocates
        // nothing on the host.
        let (mut ids, mut args) = (Vec::new(), Vec::new());
        let mut pc = 0;
        while let Some(op) = tape.ops.get(pc) {
            pc += 1;
            match op {
                Op::Scalar(slot, init) => {
                    let ty = tape.scalars[*slot].ty;
                    self.scalars[*slot] = match init {
                        Some(e) => convert(self.scalar(e)?, ty)?,
                        None => Some(NScalar::zero(ty)),
                    };
                }
                Op::Alloc(array, init) => {
                    let grid = &tape.arrays[*array].grid;
                    let id = self.m.alloc_with_bounds(&grid.dims, &grid.lower);
                    self.arrays[*array] = Some(id);
                    self.m.charge_host_ops(2);
                    if let Some(e) = init {
                        let v = to_machine(self.scalar(e)?)?;
                        self.m.write(id, &vec![v; Self::lanes(len(&grid.dims))])?;
                    }
                }
                Op::Leave(scalars, arrays) => {
                    for slot in scalars.clone() {
                        // Logicals show as the machine's 0/1 words.
                        let v = convert(self.scalars[slot], ScalarType::Float64)?;
                        self.capture(&tape.scalars[slot].name, Final::Scalar(to_machine(v)?));
                    }
                    for slot in arrays.clone() {
                        if let Some(id) = self.arrays[slot] {
                            let data = self.m.take(id)?;
                            self.arrays[slot] = None;
                            self.capture(&tape.arrays[slot].name, Final::Array(data));
                        }
                    }
                }
                Op::Dispatch(block, params, scalars) => {
                    ids.clear();
                    args.clear();
                    for p in params {
                        ids.push(match p {
                            Arg::Array(a) => self.id(*a)?,
                            Arg::Coord(g, axis) => self.m.coordinates(&g.dims, &g.lower, *axis),
                        });
                    }
                    for e in scalars {
                        args.push(to_machine(self.scalar(e)?)?);
                    }
                    self.m
                        .charge_host_ops(2 + ids.len() as u64 + args.len() as u64);
                    let routine = &program.blocks[*block].routine;
                    self.m.dispatch(routine, &ids, &args)?;
                }
                Op::Shift(dst, src, dim, shift, boundary) => {
                    let axis = self.axis(dim, tape.arrays[*src].grid.dims.len(), "CSHIFT DIM")?;
                    let shift = self.need(shift, "CSHIFT SHIFT")?.to_i64()?;
                    let (src_id, dst_id) = (self.id(*src)?, self.id(*dst)?);
                    let tmp = match boundary {
                        None => self.m.cshift(src_id, axis, shift)?,
                        Some(b) => {
                            let b = to_machine(self.scalar(b)?)?;
                            self.m.eoshift(src_id, axis, shift, b)?
                        }
                    };
                    if let Err(e) = self.m.assign(dst_id, tmp) {
                        let _ = self.m.free(tmp);
                        return Err(e.into());
                    }
                    self.m.charge_host_ops(4);
                }
                Op::Move(dst, mask, src, ops) => {
                    self.m.charge_host_ops(*ops);
                    self.host_move(dst, mask, src)?;
                }
                Op::Charge(n) => self.m.charge_host_ops(*n),
                Op::DoInit(counter, lo, hi, exit) => {
                    self.counters[*counter] = *lo;
                    if lo > hi {
                        pc = *exit;
                    }
                }
                Op::DoNext(counter, hi, body) => {
                    if self.counters[*counter] < *hi {
                        self.counters[*counter] += 1;
                        pc = *body;
                    }
                }
                Op::Branch(cond, ops, looping, target) => {
                    self.m.charge_host_ops(*ops);
                    let what = if *looping {
                        "WHILE condition"
                    } else {
                        "IF condition"
                    };
                    if !self.need(cond, what)?.to_bool()? {
                        pc = *target;
                    }
                }
                Op::Jump(target) => {
                    if *target < pc {
                        self.fuel -= 1;
                        if self.fuel == 0 {
                            return host("WHILE exceeded fuel".into());
                        }
                    }
                    pc = *target;
                }
            }
        }
        Ok(())
    }

    fn host_move(&mut self, dst: &Dst, mask: &Expr, src: &Expr) -> Result<(), Halt> {
        let tape = self.tape;
        match dst {
            Dst::Scalar(slot) => match self.scalar(mask)? {
                Some(g) => {
                    if g.to_bool()? {
                        let v = self.scalar(src)?;
                        self.scalars[*slot] = convert(v, tape.scalars[*slot].ty)?;
                    }
                }
                // A guard only known at run time. If the source would
                // touch the machine, the call sequence depends on it; a
                // machine-silent source merely leaves the scalar unknown.
                None if src.touches_machine() => {
                    return data_dependent(format!(
                        "masked host move into '{}' guards machine traffic",
                        tape.scalars[*slot].name
                    ));
                }
                None => self.scalars[*slot] = None,
            },
            Dst::Elem(array, subs) => {
                let slot = &tape.arrays[*array];
                let Some(g) = self.scalar(mask)? else {
                    return data_dependent(format!(
                        "masked element write into '{}' guards machine traffic",
                        slot.name
                    ));
                };
                if g.to_bool()? {
                    let id = self.id(*array)?;
                    let flat = self.flat(*array, subs)?;
                    let v = convert(self.scalar(src)?, slot.elem)?;
                    self.m.host_write_elem(id, flat, to_machine(v)?)?;
                }
            }
            Dst::Section(array, section) => {
                // A data motion the grid network cannot express
                // (misaligned sections, host-context whole-array moves).
                let (slot, id) = (&tape.arrays[*array], self.id(*array)?);
                let (mask, src) = (self.value(mask)?, self.value(src)?);
                let mut data = self.m.read(id)?;
                let n = section.iter().map(SectionRange::len).product();
                mask.conforms(n, "mask")?;
                src.conforms(n, "source")?;
                let flats = section_flats(&slot.grid, section).take(Self::lanes(n));
                for (k, flat) in flats.enumerate() {
                    let (Some(g), Some(v)) = (mask.at(k), src.at(k)) else {
                        return host("host move operands do not conform".into());
                    };
                    if g.to_bool()? {
                        data[flat] = v.convert(slot.elem)?.to_f64()?;
                    }
                }
                self.m.write(id, &data)?;
                self.m.charge_router_move(id)?;
            }
        }
        Ok(())
    }

    /// First capture wins: an inner scope that shadows a name, or the
    /// first trip of a loop that redeclares it, is what the final shows.
    fn capture(&mut self, name: &str, value: Final) {
        if !self.finals.contains_key(name) {
            self.finals.insert(name.to_string(), value);
        }
    }

    fn id(&self, array: usize) -> Result<M::Id, Halt> {
        match self.arrays[array] {
            Some(id) => Ok(id),
            None => host(format!(
                "'{}' is used outside its scope",
                self.tape.arrays[array].name
            )),
        }
    }

    /// Run `f`, then free the temporary `tmp` whether or not it failed.
    fn scratch<T>(
        &mut self,
        tmp: M::Id,
        f: impl FnOnce(&mut Self) -> Result<T, Halt>,
    ) -> Result<T, Halt> {
        let out = f(self);
        let freed = self.m.free(tmp);
        let out = out?;
        freed?;
        Ok(out)
    }

    fn flat(&mut self, array: usize, subs: &[Expr]) -> Result<usize, Halt> {
        let grid = &self.tape.arrays[array].grid;
        let mut flat = 0;
        for (k, e) in subs.iter().enumerate() {
            // A subscript only known at run time moves no call, so a
            // profile passes over it; a run knows them all.
            let Some(c) = self.scalar(e)? else {
                continue;
            };
            let c = c.to_i64()?;
            let off = c - grid.lower[k];
            if off < 0 || off as usize >= grid.dims[k] {
                return host(format!("subscript {c} out of bounds in axis {}", k + 1));
            }
            flat = flat * grid.dims[k] + off as usize;
        }
        Ok(flat)
    }

    /// A value that decides control flow or call geometry: it must be
    /// known, or no exact static profile exists.
    fn need(&mut self, e: &Expr, what: &str) -> Result<NScalar, Halt> {
        match self.scalar(e)? {
            Some(s) => Ok(s),
            None => data_dependent(format!("{what} is only known at run time")),
        }
    }

    /// The zero-based axis a one-based `DIM` names among `rank`.
    fn axis(&mut self, dim: &Expr, rank: usize, what: &str) -> Result<usize, Halt> {
        let dim = self.need(dim, what)?.to_i64()?;
        if dim < 1 || dim as usize > rank {
            return host(format!("{what}={dim} is outside 1..={rank}"));
        }
        Ok(dim as usize - 1)
    }

    fn scalar(&mut self, e: &Expr) -> Result<Scalar, Halt> {
        match self.value(e)? {
            Val::Scalar(s) => Ok(s),
            Val::Array(_) => host(format!("array value where the host needs a scalar: {e}")),
        }
    }

    fn array(&mut self, e: &Expr, of: Intrinsic) -> Result<Arr, Halt> {
        match self.value(e)? {
            Val::Array(a) => Ok(a),
            Val::Scalar(_) => host(format!("{} of a scalar", of.name())),
        }
    }

    fn value(&mut self, e: &Expr) -> Result<Val, Halt> {
        let tape = self.tape;
        Ok(match e {
            Expr::Const(c) => Val::Scalar(Some(*c)),
            Expr::Var(slot) => Val::Scalar(self.scalars[*slot]),
            Expr::Index(c) => Val::Scalar(Some(NScalar::I32(self.counters[*c] as i32))),
            Expr::Elem(a, subs) => {
                let id = self.id(*a)?;
                let flat = self.flat(*a, subs)?;
                let x = self.m.host_read_elem(id, flat)?;
                Val::Scalar(Self::from_machine(x, tape.arrays[*a].elem)?)
            }
            Expr::Whole(a) => {
                let slot = &tape.arrays[*a];
                let data = self.m.read(self.id(*a)?)?;
                Val::Array(Arr {
                    data: typed(data, slot.elem)?,
                    dims: slot.grid.dims.clone(),
                })
            }
            Expr::Section(a, ranges) => {
                let slot = &tape.arrays[*a];
                let data = self.m.read(self.id(*a)?)?;
                let dims: Vec<usize> = ranges.iter().map(SectionRange::len).collect();
                let picked = section_flats(&slot.grid, ranges)
                    .take(Self::lanes(len(&dims)))
                    .map(|f| NScalar::F64(data[f]).convert(slot.elem));
                Val::Array(Arr {
                    data: picked.collect::<Result<_, _>>()?,
                    dims,
                })
            }
            Expr::Coords(grid, axis) => {
                let Grid { dims, lower } = &**grid;
                let inner = len(&dims[axis + 1..]);
                let coord = |i| lower[*axis] + ((i / inner) % dims[*axis]) as i64;
                let data = (0..Self::lanes(len(dims))).map(|i| NScalar::I32(coord(i) as i32));
                Val::Array(Arr {
                    data: data.collect(),
                    dims: dims.clone(),
                })
            }
            Expr::Unary(op, a) => match self.value(a)? {
                Val::Scalar(s) => Val::Scalar(s.map(|x| apply_unop(*op, x)).transpose()?),
                Val::Array(mut arr) => {
                    for x in &mut arr.data {
                        *x = apply_unop(*op, *x)?;
                    }
                    Val::Array(arr)
                }
            },
            Expr::Binary(op, a, b) => {
                let (a, b) = (self.value(a)?, self.value(b)?);
                zip(a, b, |x, y| apply_binop(*op, x, y))?
            }
            Expr::Call(f, args) => self.call(*f, args)?,
        })
    }

    fn call(&mut self, f: Intrinsic, args: &[Expr]) -> Result<Val, Halt> {
        Ok(match f {
            Intrinsic::Reduce(op) if args.len() == 1 => {
                // A plain array variable reduces in place; anything else
                // is materialised, reduced and freed.
                if let Expr::Whole(a) = &args[0] {
                    let x = self.m.reduce(self.id(*a)?, op)?;
                    let elem = self.tape.arrays[*a].elem;
                    return Ok(Val::Scalar(Self::from_machine(x, elem)?));
                }
                let arr = self.array(&args[0], f)?;
                let tmp = self.m.alloc_from(&arr.dims, raw(&arr.data)?);
                let x = self.scratch(tmp, |it| Ok(it.m.reduce(tmp, op)?))?;
                Val::Scalar(Self::from_machine(x, ScalarType::Float64)?)
            }
            Intrinsic::Reduce(op) => {
                // Along an axis: computed on the host, charged as a
                // reduction over the source geometry.
                let Arr { data, mut dims } = self.array(&args[0], f)?;
                let axis = self.axis(&args[1], dims.len(), "reduction DIM")?;
                let (extent, inner) = (dims[axis], len(&dims[axis + 1..]));
                let (elem, raw) = (elem_of(&data), raw(&data)?);
                let (init, step): (f64, fn(f64, f64) -> f64) = match op {
                    ReduceOp::Sum => (0.0, |acc, v| acc + v),
                    ReduceOp::Max => (f64::NEG_INFINITY, f64::max),
                    ReduceOp::Min => (f64::INFINITY, f64::min),
                };
                let tmp = self.m.alloc(&dims);
                self.scratch(tmp, |it| {
                    it.m.write(tmp, &raw)?;
                    Ok(it.m.reduce(tmp, ReduceOp::Sum)?)
                })?;
                dims.remove(axis);
                // Output `j` folds the `extent` inputs of its column.
                let column =
                    |j| (0..extent).map(move |a| (j / inner * extent + a) * inner + j % inner);
                let out = (0..Self::lanes(len(&dims))).map(|j| {
                    NScalar::F64(column(j).map(|k| raw[k]).fold(init, step)).convert(elem)
                });
                let data = out.collect::<Result<_, _>>()?;
                Val::Array(Arr { data, dims })
            }
            Intrinsic::Spread => {
                let Arr { data, mut dims } = self.array(&args[0], f)?;
                let axis = self.axis(&args[1], dims.len() + 1, "SPREAD DIM")?;
                let n = self.need(&args[2], "SPREAD NCOPIES")?.to_i64()?;
                let Ok(n) = usize::try_from(n) else {
                    return host(format!("SPREAD NCOPIES={n} is negative"));
                };
                let inner = len(&dims[axis..]);
                let mut out = Vec::with_capacity(data.len() * n);
                for row in data.chunks(inner.max(1)) {
                    for _ in 0..n {
                        out.extend_from_slice(row);
                    }
                }
                dims.insert(axis, n);
                // A broadcast rides the grid network: charge one grid
                // communication over the result geometry.
                let tmp = self.m.alloc(&dims);
                self.scratch(tmp, |it| Ok(it.m.charge_router_move(tmp)?))?;
                Val::Array(Arr { data: out, dims })
            }
            Intrinsic::Merge => {
                let t = self.value(&args[0])?;
                let e = self.value(&args[1])?;
                let m = self.value(&args[2])?;
                let dims = [&t, &e, &m].iter().find_map(|v| match v {
                    Val::Array(a) => Some(a.dims.clone()),
                    Val::Scalar(_) => None,
                });
                let Some(dims) = dims else {
                    return Ok(match m.at(0) {
                        Some(g) if g.to_bool()? => t,
                        Some(_) => e,
                        None => m,
                    });
                };
                let mut data = Vec::with_capacity(Self::lanes(len(&dims)));
                for k in 0..Self::lanes(len(&dims)) {
                    let (Some(g), Some(t), Some(e)) = (m.at(k), t.at(k), e.at(k)) else {
                        return host("merge arguments do not conform".into());
                    };
                    data.push(if g.to_bool()? { t } else { e });
                }
                Val::Array(Arr { data, dims })
            }
            Intrinsic::Transpose => {
                let Arr { data, dims } = self.array(&args[0], f)?;
                let &[r, c] = dims.as_slice() else {
                    return host(format!(
                        "transpose requires rank 2, got rank {}",
                        dims.len()
                    ));
                };
                let mut out = data.clone();
                for (k, x) in data.into_iter().enumerate() {
                    out[(k % c) * r + k / c] = x;
                }
                // A general permutation: charge the router over a
                // temporary of the result's geometry.
                let tmp = self.m.alloc(&[c, r]);
                self.scratch(tmp, |it| Ok(it.m.charge_router_move(tmp)?))?;
                Val::Array(Arr {
                    data: out,
                    dims: vec![c, r],
                })
            }
            Intrinsic::Cshift | Intrinsic::Eoshift => {
                // Host-context communication (a composite argument, a
                // distance depending on DO indices): materialise the
                // argument, call the runtime, take the result back.
                let Arr { data, dims } = self.array(&args[0], f)?;
                let shift = self.need(&args[1], "host-context SHIFT")?.to_i64()?;
                let axis = self.axis(&args[2], dims.len(), "host-context DIM")?;
                let elem = elem_of(&data);
                let tmp = self.m.alloc_from(&dims, raw(&data)?);
                let out = self.scratch(tmp, |it| {
                    let shifted = match (f, args.get(3)) {
                        (Intrinsic::Cshift, _) => it.m.cshift(tmp, axis, shift)?,
                        (_, None) => it.m.eoshift(tmp, axis, shift, 0.0)?,
                        (_, Some(b)) => {
                            let b = to_machine(it.scalar(b)?)?;
                            it.m.eoshift(tmp, axis, shift, b)?
                        }
                    };
                    it.m.take(shifted).map_err(|e| {
                        let _ = it.m.free(shifted);
                        e.into()
                    })
                })?;
                Val::Array(Arr {
                    data: typed(out, elem)?,
                    dims,
                })
            }
        })
    }
}
