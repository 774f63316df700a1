//! Static communication-plan analysis over NIR.
//!
//! The paper's premise is that communication dominates on massively
//! parallel machines; this module recovers the communication structure
//! of a program from its text alone. [`comm_plan`] abstractly
//! interprets one NIR tree and classifies every communication
//! operation — grid shifts become [`CommKind::Halo`] with an axis and a
//! width, `SPREAD` a [`CommKind::Broadcast`], the reduction intrinsics
//! [`CommKind::Reduce`], `TRANSPOSE` a [`CommKind::AllToAll`] — each
//! with the geometry of the array it moves and the static execution
//! multiplicity of its enclosing loops.
//!
//! Three clients ride on the plan:
//!
//! * [`price`] folds it against a [`TargetManifest`] cost block for a
//!   static per-target *model estimate* (the bit-exact count
//!   prediction, reconciled against the flight recorder, is the
//!   backend's static profile; this is the cheap NIR-level cousin any
//!   pipeline-search loop can afford to call thousands of times);
//! * [`comm_lints`] — `W-WIDE-HALO`, `W-REDUNDANT-COMM`,
//!   `W-ALLTOALL`, the communication diagnostics of `f90yc --lint`;
//! * [`CommFacts`] — the pass-audit side: a signature multiset of the
//!   plan, checked after every middle-end pass so a pass that invents
//!   or retargets communication fails by name.

use std::collections::BTreeMap;
use std::fmt;

use f90y_hal::{TargetKind, TargetManifest, Topology};
use f90y_nir::imp::{LValue, MoveClause};
use f90y_nir::shape::DomainEnv;
use f90y_nir::value::FieldAction;
use f90y_nir::{Const, Ident, Imp, Shape, Type, Value};

use crate::index::StmtIndex;
use crate::lint::{Diagnostic, WarnCode};
use crate::reaching::ReachingFacts;

/// What one communication operation is, structurally.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum CommKind {
    /// A grid shift: nearest-neighbour halo traffic along one axis.
    /// `width` is the halo depth (`|shift|`); `None` when the distance
    /// is not a compile-time constant.
    Halo {
        /// Zero-based shift axis.
        axis: usize,
        /// Halo width, when statically known.
        width: Option<u64>,
    },
    /// `SPREAD`: one value replicated along a new axis.
    Broadcast,
    /// A reduction intrinsic combining over the machine.
    Reduce {
        /// The combining operation (`sum`, `maxval`, `minval`).
        op: String,
    },
    /// Transpose-shaped traffic: every element changes owner.
    AllToAll,
}

impl fmt::Display for CommKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommKind::Halo {
                axis,
                width: Some(w),
            } => {
                write!(f, "halo(axis {}, width {w})", axis + 1)
            }
            CommKind::Halo { axis, width: None } => {
                write!(f, "halo(axis {}, dynamic width)", axis + 1)
            }
            CommKind::Broadcast => write!(f, "broadcast"),
            CommKind::Reduce { op } => write!(f, "reduce({op})"),
            CommKind::AllToAll => write!(f, "all-to-all"),
        }
    }
}

/// One communication operation of the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommOp {
    /// Classification.
    pub kind: CommKind,
    /// The communicated array, when the operand is a plain variable.
    pub array: Option<Ident>,
    /// Signed shift distance (halo ops with a constant distance).
    pub shift: Option<i64>,
    /// `true` for `EOSHIFT` (end-off; no wraparound traffic).
    pub eoshift: bool,
    /// Extents of the moved array, when statically resolvable.
    pub dims: Option<Vec<usize>>,
    /// Pre-order id of the statement the op occurs in.
    pub stmt: usize,
    /// Static execution count: the product of the sizes of all
    /// enclosing `DO` shapes (1 outside any loop).
    pub multiplicity: u64,
    /// `true` when the op sits under a `WHILE`, whose trip count the
    /// plan cannot bound.
    pub in_while: bool,
}

/// The static communication plan of one program.
#[derive(Debug, Clone, Default)]
pub struct CommPlan {
    /// Every communication op, in pre-order.
    pub ops: Vec<CommOp>,
    /// Maximum constant halo width per `(array, axis)`.
    pub halo_widths: BTreeMap<(Ident, usize), u64>,
    /// `false` when some op's execution count or width is not statically
    /// known (`WHILE` bodies, dynamic shift distances).
    pub exact: bool,
    /// Statements scanned.
    pub stmts_analyzed: usize,
}

impl CommPlan {
    /// Total op executions (multiplicity-weighted).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.ops.iter().map(|o| o.multiplicity).sum()
    }

    /// Multiplicity-weighted count of ops matching a predicate.
    fn weighted(&self, p: impl Fn(&CommOp) -> bool) -> u64 {
        self.ops
            .iter()
            .filter(|o| p(o))
            .map(|o| o.multiplicity)
            .sum()
    }

    /// Halo (shift) executions.
    #[must_use]
    pub fn halo_ops(&self) -> u64 {
        self.weighted(|o| matches!(o.kind, CommKind::Halo { .. }))
    }

    /// Reduction executions.
    #[must_use]
    pub fn reduce_ops(&self) -> u64 {
        self.weighted(|o| matches!(o.kind, CommKind::Reduce { .. }))
    }

    /// Broadcast + all-to-all executions (router-class traffic).
    #[must_use]
    pub fn router_ops(&self) -> u64 {
        self.weighted(|o| matches!(o.kind, CommKind::Broadcast | CommKind::AllToAll))
    }
}

/// Compute the static communication plan of a lowered or optimized NIR
/// program.
#[must_use]
pub fn comm_plan(root: &Imp) -> CommPlan {
    let index = StmtIndex::of(root);
    let mut scan = PlanScan {
        index: &index,
        domains: Vec::new(),
        shapes: Vec::new(),
        mult: 1,
        while_depth: 0,
        plan: CommPlan {
            exact: true,
            ..CommPlan::default()
        },
    };
    scan.scan(root);
    scan.plan.stmts_analyzed = index.len();
    scan.plan
}

struct PlanScan<'a, 'i> {
    index: &'i StmtIndex<'a>,
    domains: Vec<(Ident, Shape)>,
    /// Declared array shapes in scope, innermost last.
    shapes: Vec<(Ident, Vec<usize>)>,
    mult: u64,
    while_depth: usize,
    plan: CommPlan,
}

impl PlanScan<'_, '_> {
    fn domain_env(&self) -> DomainEnv {
        self.domains.iter().cloned().collect()
    }

    fn dims_of(&self, id: &str) -> Option<Vec<usize>> {
        self.shapes
            .iter()
            .rev()
            .find(|(n, _)| n == id)
            .map(|(_, d)| d.clone())
    }

    fn scan(&mut self, imp: &Imp) {
        match imp {
            Imp::Skip => {}
            Imp::Program(b) => self.scan(b),
            Imp::Sequentially(xs) | Imp::Concurrently(xs) => {
                for x in xs {
                    self.scan(x);
                }
            }
            Imp::Move(clauses) => {
                let id = self.index.id(imp);
                for c in clauses {
                    self.scan_value(id, &c.mask);
                    self.scan_value(id, &c.src);
                    if let LValue::AVar(_, FieldAction::Subscript(ixs)) = &c.dst {
                        for ix in ixs {
                            self.scan_value(id, ix);
                        }
                    }
                }
            }
            Imp::IfThenElse(c, t, e) => {
                let id = self.index.id(imp);
                self.scan_value(id, c);
                self.scan(t);
                self.scan(e);
            }
            Imp::While(c, b) => {
                let id = self.index.id(imp);
                self.scan_value(id, c);
                self.while_depth += 1;
                self.plan.exact = false;
                self.scan(b);
                self.while_depth -= 1;
            }
            Imp::Do(_, shape, b) => {
                let size = shape
                    .resolve(&self.domain_env())
                    .map(|s| s.size() as u64)
                    .unwrap_or(1);
                let saved = self.mult;
                self.mult = saved.saturating_mul(size);
                self.scan(b);
                self.mult = saved;
            }
            Imp::WithDecl(d, b) => {
                let before = self.shapes.len();
                for (name, ty, init) in d.bindings() {
                    if let Some(v) = init {
                        let id = self.index.id(imp);
                        self.scan_value(id, v);
                    }
                    if let Type::DField { shape, .. } = ty {
                        if let Ok(resolved) = shape.resolve(&self.domain_env()) {
                            let dims = resolved.extents().iter().map(|e| e.len()).collect();
                            self.shapes.push((name.clone(), dims));
                        }
                    }
                }
                self.scan(b);
                self.shapes.truncate(before);
            }
            Imp::WithDomain(name, shape, b) => {
                let resolved = shape
                    .resolve(&self.domain_env())
                    .unwrap_or_else(|_| shape.clone());
                self.domains.push((name.clone(), resolved));
                self.scan(b);
                self.domains.pop();
            }
        }
    }

    fn scan_value(&mut self, stmt: usize, v: &Value) {
        if let Value::FcnCall(name, args) = v {
            self.classify_call(stmt, name, args);
        }
        // Nested communication materialises separately on every target;
        // each call is its own op.
        match v {
            Value::Unary(_, a) => self.scan_value(stmt, a),
            Value::Binary(_, a, b) => {
                self.scan_value(stmt, a);
                self.scan_value(stmt, b);
            }
            Value::FcnCall(_, args) => {
                for (_, a) in args {
                    self.scan_value(stmt, a);
                }
            }
            Value::AVar(_, FieldAction::Subscript(ixs)) => {
                for ix in ixs {
                    self.scan_value(stmt, ix);
                }
            }
            _ => {}
        }
    }

    fn classify_call(&mut self, stmt: usize, name: &str, args: &[(Type, Value)]) {
        let operand = args.first().map(|(_, v)| v);
        let array = match operand {
            Some(Value::AVar(id, _)) => Some(id.clone()),
            _ => None,
        };
        let dims = array.as_deref().and_then(|id| self.dims_of(id));
        let kind = match name {
            "cshift" | "eoshift" => {
                let shift = args.get(1).map_or(Some(1), |(_, v)| literal_i64(v));
                let axis = args
                    .get(2)
                    .map_or(Some(1), |(_, v)| literal_i64(v))
                    .filter(|d| *d >= 1)
                    .map(|d| d as usize - 1)
                    .unwrap_or(0);
                if shift.is_none() {
                    self.plan.exact = false;
                }
                let width = shift.map(i64::unsigned_abs);
                if let (Some(a), Some(w)) = (&array, width) {
                    let e = self.plan.halo_widths.entry((a.clone(), axis)).or_insert(0);
                    *e = (*e).max(w);
                }
                self.plan.ops.push(CommOp {
                    kind: CommKind::Halo { axis, width },
                    array,
                    shift,
                    eoshift: name == "eoshift",
                    dims,
                    stmt,
                    multiplicity: self.mult,
                    in_while: self.while_depth > 0,
                });
                return;
            }
            "spread" => CommKind::Broadcast,
            "sum" | "maxval" | "minval" => CommKind::Reduce {
                op: name.to_string(),
            },
            "transpose" => CommKind::AllToAll,
            _ => return,
        };
        self.plan.ops.push(CommOp {
            kind,
            array,
            shift: None,
            eoshift: false,
            dims,
            stmt,
            multiplicity: self.mult,
            in_while: self.while_depth > 0,
        });
    }
}

fn literal_i64(v: &Value) -> Option<i64> {
    match v {
        Value::Scalar(Const::I32(i)) => Some(i64::from(*i)),
        Value::Unary(f90y_nir::UnOp::Neg, inner) => literal_i64(inner).map(|i| -i),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Pricing against a target manifest.
// ---------------------------------------------------------------------

/// One op's model cost.
#[derive(Debug, Clone)]
pub struct PricedOp {
    /// The op priced.
    pub op: CommOp,
    /// Modelled seconds for all executions of this op.
    pub seconds: f64,
}

/// The plan priced against one target manifest.
#[derive(Debug, Clone)]
pub struct PricedPlan {
    /// Manifest name (`cm2`, `cm5`, `accel`).
    pub target: &'static str,
    /// Modelled communication seconds, summed.
    pub total_seconds: f64,
    /// Per-op breakdown, plan order.
    pub ops: Vec<PricedOp>,
}

/// Price a communication plan against a manifest's cost block for a
/// machine of `nodes` nodes.
///
/// This is a *model estimate* from NIR geometry alone — deliberately
/// cheap, for search loops and tables. The bit-exact per-target call
/// counts come from the backend's static profile of the compiled
/// program.
#[must_use]
pub fn price(plan: &CommPlan, manifest: &TargetManifest, nodes: usize) -> PricedPlan {
    let nodes = nodes.max(1);
    let ops = plan
        .ops
        .iter()
        .map(|op| {
            let elems = op.dims.as_ref().map_or(0, |d| d.iter().product::<usize>());
            let per_node = (elems / nodes).max(1) as u64;
            // Elements crossing an ownership cut for a halo op: the
            // boundary face times the halo width.
            let crossing = match (&op.kind, op.dims.as_ref()) {
                (
                    CommKind::Halo {
                        axis,
                        width: Some(w),
                    },
                    Some(d),
                ) if *axis < d.len() => {
                    let face = elems as u64 / (d[*axis].max(1) as u64);
                    face * w
                }
                _ => per_node,
            };
            let once = match manifest.kind {
                TargetKind::Simd => {
                    let c = manifest.simd.expect("SIMD manifest has simd costs");
                    let cycles = match &op.kind {
                        CommKind::Halo { .. } => {
                            c.grid_comm_cycles(per_node, crossing / nodes as u64)
                        }
                        CommKind::Broadcast | CommKind::AllToAll => {
                            c.router_comm_cycles(per_node as usize)
                        }
                        CommKind::Reduce { .. } => c.reduction_cycles(per_node, nodes),
                    };
                    cycles as f64 / manifest.clock_hz
                }
                TargetKind::Mimd => {
                    let c = manifest.mimd.expect("MIMD manifest has mimd costs");
                    let bytes = match &op.kind {
                        CommKind::Halo { .. } => crossing as f64 * c.element_bytes,
                        CommKind::Broadcast | CommKind::AllToAll => elems as f64 * c.element_bytes,
                        CommKind::Reduce { .. } => nodes as f64 * c.element_bytes,
                    };
                    c.net_call_seconds + bytes / c.network_bytes_per_sec
                }
                TargetKind::Accel => {
                    let c = manifest.accel.expect("accel manifest has accel costs");
                    let cycles = match &op.kind {
                        CommKind::Halo { .. } => c.comm_call_cycles,
                        CommKind::Broadcast | CommKind::AllToAll => {
                            c.comm_call_cycles + elems as u64 * c.gather_factor
                        }
                        CommKind::Reduce { .. } => {
                            c.comm_call_cycles
                                + c.transfer_setup_cycles
                                + c.transfer_cycles_per_elem
                        }
                    };
                    cycles as f64 / manifest.clock_hz
                }
            };
            PricedOp {
                op: op.clone(),
                seconds: once * op.multiplicity as f64,
            }
        })
        .collect::<Vec<_>>();
    PricedPlan {
        target: manifest.name,
        total_seconds: ops.iter().map(|p| p.seconds).sum(),
        ops,
    }
}

// ---------------------------------------------------------------------
// Communication lints.
// ---------------------------------------------------------------------

/// Run the communication lints over one program (by convention the
/// *optimized* stage: `W-REDUNDANT-COMM` flags exactly the duplicates
/// the middle end had its chance to merge and did not).
///
/// `topology` decides whether transpose-shaped traffic is worth a
/// warning: on a mesh/hypercube every all-to-all rides the slow general
/// router, on a fat tree or a host bus it is no worse than any other
/// move.
#[must_use]
pub fn comm_lints(root: &Imp, topology: Topology) -> Vec<Diagnostic> {
    let plan = comm_plan(root);
    let index = StmtIndex::of(root);
    let mut out: Vec<(usize, Diagnostic)> = Vec::new();

    // W-WIDE-HALO: a wide shift of an array/axis that also moves with
    // width 1 — the wide plan could be a repeated 1-wide exchange and
    // usually means a missed stencil restructuring.
    for op in &plan.ops {
        let CommKind::Halo {
            axis,
            width: Some(w),
        } = &op.kind
        else {
            continue;
        };
        let Some(array) = &op.array else { continue };
        if *w <= 1 {
            continue;
        }
        let has_unit = plan.ops.iter().any(|o| {
            o.array.as_ref() == Some(array)
                && matches!(&o.kind, CommKind::Halo { axis: a, width: Some(1) } if a == axis)
        });
        if has_unit {
            out.push((
                op.stmt,
                Diagnostic {
                    code: WarnCode::WideHalo,
                    var: array.clone(),
                    message: format!(
                        "'{array}' is shifted by {w} along axis {} although a 1-wide halo \
                         plan exists for the same array and axis",
                        axis + 1
                    ),
                    stmt: Some(pretty(index.node(op.stmt))),
                },
            ));
        }
    }

    // W-ALLTOALL: transpose-shaped comm where the topology makes every
    // element cross the machine.
    if topology == Topology::Hypercube {
        for op in &plan.ops {
            if op.kind != CommKind::AllToAll {
                continue;
            }
            let var = op.array.clone().unwrap_or_else(|| "<expr>".to_string());
            out.push((
                op.stmt,
                Diagnostic {
                    code: WarnCode::AllToAll,
                    var: var.clone(),
                    message: format!(
                        "transpose of '{var}' is all-to-all communication: on a mesh \
                         topology every element crosses the general router"
                    ),
                    stmt: Some(pretty(index.node(op.stmt))),
                },
            ));
        }
    }

    redundant_comm(root, &index, &mut out);

    out.sort_by_key(|(stmt, d)| (*stmt, d.code, d.var.clone()));
    out.into_iter().map(|(_, d)| d).collect()
}

/// A canonical comm definition: `MOVE[t ← CSHIFT(v, s, d)]`, single
/// unmasked clause, whole-array source and destination, constant shift.
struct CommDef {
    stmt: usize,
    /// Path of enclosing-statement pre-order ids (the statement-list
    /// spine); a def whose path is a prefix of another's encloses it.
    path: Vec<usize>,
    /// (source array, axis, shift, eoshift) signature.
    sig: (Ident, usize, i64, bool),
    dst: Ident,
}

/// W-REDUNDANT-COMM: two identical shifts of one array where the
/// second provably re-communicates what the first already moved — same
/// signature, the first's block encloses (or is) the second's, the
/// source's reaching definitions are identical at both sites and
/// nothing redefines it in between. `comm-cse` merges exactly this
/// shape *within* one statement list; across lists (the loop-invariant
/// re-shift inside a `DO` body) it structurally cannot, so what
/// survives the pipeline is worth a diagnostic.
fn redundant_comm(root: &Imp, index: &StmtIndex<'_>, out: &mut Vec<(usize, Diagnostic)>) {
    let reaching = ReachingFacts::compute(root, index);

    let mut defs: Vec<CommDef> = Vec::new();
    let mut def_sites: BTreeMap<Ident, Vec<usize>> = BTreeMap::new();
    collect_comm_defs(root, index, &mut Vec::new(), &mut defs, &mut def_sites);

    for j in 0..defs.len() {
        for i in 0..j {
            let (a, b) = (&defs[i], &defs[j]);
            if a.sig != b.sig {
                continue;
            }
            // The earlier site must dominate the later one: same list or
            // an enclosing one.
            if !b.path.starts_with(&a.path) {
                continue;
            }
            let v = &a.sig.0;
            let sa = reaching.state_at(a.stmt, v);
            if sa.is_none() || sa != reaching.state_at(b.stmt, v) {
                continue;
            }
            let killed = def_sites
                .get(v)
                .is_some_and(|sites| sites.iter().any(|s| a.stmt < *s && *s < b.stmt));
            if killed {
                continue;
            }
            let (_, axis, shift, eo) = &a.sig;
            let what = if *eo { "EOSHIFT" } else { "CSHIFT" };
            out.push((
                b.stmt,
                Diagnostic {
                    code: WarnCode::RedundantComm,
                    var: v.clone(),
                    message: format!(
                        "{what}('{v}', {shift}, {}) re-communicates data an identical \
                         shift already moved (also defined as '{}'); hoist it out of \
                         the enclosing block",
                        axis + 1,
                        a.dst
                    ),
                    stmt: Some(pretty(index.node(b.stmt))),
                },
            ));
            break; // one report per redundant site
        }
    }
}

fn collect_comm_defs(
    imp: &Imp,
    index: &StmtIndex<'_>,
    path: &mut Vec<usize>,
    defs: &mut Vec<CommDef>,
    def_sites: &mut BTreeMap<Ident, Vec<usize>>,
) {
    match imp {
        Imp::Skip => {}
        Imp::Program(b) => collect_comm_defs(b, index, path, defs, def_sites),
        Imp::Sequentially(xs) | Imp::Concurrently(xs) => {
            for x in xs {
                collect_comm_defs(x, index, path, defs, def_sites);
            }
        }
        Imp::Move(clauses) => {
            let id = index.id(imp);
            for c in clauses {
                def_sites.entry(c.dst.ident().clone()).or_default().push(id);
            }
            if let [c] = clauses.as_slice() {
                if let Some(def) = comm_def(id, path, c) {
                    defs.push(def);
                }
            }
        }
        Imp::IfThenElse(_, t, e) => {
            let id = index.id(imp);
            path.push(id);
            collect_comm_defs(t, index, path, defs, def_sites);
            collect_comm_defs(e, index, path, defs, def_sites);
            path.pop();
        }
        Imp::While(_, b) | Imp::Do(_, _, b) => {
            let id = index.id(imp);
            path.push(id);
            collect_comm_defs(b, index, path, defs, def_sites);
            path.pop();
        }
        Imp::WithDecl(d, b) => {
            let id = index.id(imp);
            for (name, _, init) in d.bindings() {
                if init.is_some() {
                    def_sites.entry(name.clone()).or_default().push(id);
                }
            }
            path.push(id);
            collect_comm_defs(b, index, path, defs, def_sites);
            path.pop();
        }
        Imp::WithDomain(_, _, b) => {
            let id = index.id(imp);
            path.push(id);
            collect_comm_defs(b, index, path, defs, def_sites);
            path.pop();
        }
    }
}

fn comm_def(stmt: usize, path: &[usize], c: &MoveClause) -> Option<CommDef> {
    if !c.is_unmasked() {
        return None;
    }
    let LValue::AVar(dst, FieldAction::Everywhere) = &c.dst else {
        return None;
    };
    let Value::FcnCall(name, args) = &c.src else {
        return None;
    };
    let eo = match name.as_str() {
        "cshift" => false,
        "eoshift" => true,
        _ => return None,
    };
    let Some(Value::AVar(src, FieldAction::Everywhere)) = args.first().map(|(_, v)| v) else {
        return None;
    };
    if src == dst {
        return None; // self-shift: W-RACE territory, not redundancy
    }
    let shift = args.get(1).map_or(Some(1), |(_, v)| literal_i64(v))?;
    let axis = args.get(2).map_or(Some(1), |(_, v)| literal_i64(v))?;
    if axis < 1 {
        return None;
    }
    // EOSHIFT boundaries must be constant for two shifts to be equal.
    if eo {
        if let Some((_, b)) = args.get(3) {
            if literal_i64(b).is_none() && !matches!(b, Value::Scalar(_)) {
                return None;
            }
        }
    }
    Some(CommDef {
        stmt,
        path: path.to_vec(),
        sig: (src.clone(), axis as usize - 1, shift, eo),
        dst: dst.clone(),
    })
}

fn pretty(stmt: &Imp) -> String {
    let text = stmt.to_string();
    let first = text.lines().next().unwrap_or("").trim_end();
    if first.chars().count() > 96 {
        let head: String = first.chars().take(93).collect();
        format!("{head}...")
    } else {
        first.to_string()
    }
}

// ---------------------------------------------------------------------
// Pass-audit facts.
// ---------------------------------------------------------------------

/// A signature multiset of the communication plan, for the pass
/// auditor. The signature deliberately ignores variable names (passes
/// rename temps freely) and keeps what no legal pass may change: the
/// kind, the axis, the distance, the end-off flag and the loop
/// multiplicity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommFacts {
    sigs: BTreeMap<(String, u64), u64>,
    /// `true` when the plan had a `WHILE`-nested or dynamic-width op;
    /// the facts are then advisory and `check_pass` stays permissive.
    pub exact: bool,
}

impl CommFacts {
    /// Capture the comm facts of one program.
    #[must_use]
    pub fn of(root: &Imp) -> CommFacts {
        let plan = comm_plan(root);
        let mut sigs: BTreeMap<(String, u64), u64> = BTreeMap::new();
        for op in &plan.ops {
            let key = (op.kind.to_string(), op.multiplicity);
            *sigs.entry(key).or_insert(0) += 1;
        }
        CommFacts {
            sigs,
            exact: plan.exact,
        }
    }

    /// Check a pass's output against this baseline: a pass may merge or
    /// eliminate communication, never invent it. Any signature whose
    /// count grew names the pass in the error.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invented signature.
    pub fn check_pass(&self, pass: &str, after: &Imp) -> Result<(), String> {
        if !self.exact {
            return Ok(());
        }
        let now = CommFacts::of(after);
        if !now.exact {
            return Err(format!(
                "pass '{pass}' broke the communication plan: it made a statically \
                 exact plan data-dependent"
            ));
        }
        for ((kind, mult), count) in &now.sigs {
            let before = self.sigs.get(&(kind.clone(), *mult)).copied().unwrap_or(0);
            if *count > before {
                return Err(format!(
                    "pass '{pass}' broke the communication plan: {kind} ×{mult} \
                     appears {count} time(s), was {before}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_nir::build::*;

    fn decl_arr(name: &str, n: i64) -> f90y_nir::Decl {
        decl(name, dfield(interval(1, n), int32()))
    }

    fn cshift_of(arr: &str, shift: i64, dim: i64) -> Value {
        fcncall(
            "cshift",
            vec![
                (int32(), ld(arr, everywhere())),
                (int32(), int(shift as i32)),
                (int32(), int(dim as i32)),
            ],
        )
    }

    #[test]
    fn plan_classifies_shift_reduce_and_transpose() {
        let p = with_decl(
            declset(vec![
                decl_arr("a", 16),
                decl_arr("b", 16),
                decl("s", int32()),
            ]),
            seq(vec![
                mv(avar("b", everywhere()), cshift_of("a", 2, 1)),
                mv(
                    svar_lv("s"),
                    fcncall("sum", vec![(int32(), ld("a", everywhere()))]),
                ),
                mv(
                    avar("b", everywhere()),
                    fcncall("transpose", vec![(int32(), ld("a", everywhere()))]),
                ),
            ]),
        );
        let plan = comm_plan(&p);
        assert_eq!(plan.ops.len(), 3);
        assert!(plan.exact);
        assert_eq!(
            plan.ops[0].kind,
            CommKind::Halo {
                axis: 0,
                width: Some(2)
            }
        );
        assert_eq!(plan.ops[1].kind, CommKind::Reduce { op: "sum".into() });
        assert_eq!(plan.ops[2].kind, CommKind::AllToAll);
        assert_eq!(plan.halo_widths.get(&("a".into(), 0)), Some(&2));
        assert_eq!(plan.ops[0].dims, Some(vec![16]));
    }

    #[test]
    fn do_loops_multiply_while_marks_inexact() {
        let p = with_decl(
            declset(vec![decl_arr("a", 8), decl_arr("b", 8)]),
            do_over(
                "i",
                serial_interval(1, 5),
                mv(avar("b", everywhere()), cshift_of("a", 1, 1)),
            ),
        );
        let plan = comm_plan(&p);
        assert_eq!(plan.ops[0].multiplicity, 5);
        assert_eq!(plan.halo_ops(), 5);
        assert!(plan.exact);

        let q = with_decl(
            declset(vec![
                decl_arr("a", 8),
                decl_arr("b", 8),
                decl("p", logical32()),
            ]),
            while_loop(svar("p"), mv(avar("b", everywhere()), cshift_of("a", 1, 1))),
        );
        let plan = comm_plan(&q);
        assert!(!plan.exact);
        assert!(plan.ops[0].in_while);
    }

    #[test]
    fn pricing_scales_with_multiplicity_on_every_builtin() {
        let once = with_decl(
            declset(vec![decl_arr("a", 64), decl_arr("b", 64)]),
            mv(avar("b", everywhere()), cshift_of("a", 1, 1)),
        );
        let thrice = with_decl(
            declset(vec![decl_arr("a", 64), decl_arr("b", 64)]),
            do_over(
                "i",
                serial_interval(1, 3),
                mv(avar("b", everywhere()), cshift_of("a", 1, 1)),
            ),
        );
        for m in f90y_hal::manifest::BUILTIN_MANIFESTS {
            let p1 = price(&comm_plan(&once), m, 16).total_seconds;
            let p3 = price(&comm_plan(&thrice), m, 16).total_seconds;
            assert!(p1 > 0.0, "{}", m.name);
            assert!((p3 - 3.0 * p1).abs() < 1e-12, "{}: {p3} vs 3×{p1}", m.name);
        }
    }

    #[test]
    fn wide_halo_fires_only_next_to_a_unit_plan() {
        let wide_and_unit = with_decl(
            declset(vec![decl_arr("a", 16), decl_arr("b", 16)]),
            seq(vec![
                mv(avar("b", everywhere()), cshift_of("a", 1, 1)),
                mv(avar("b", everywhere()), cshift_of("a", 2, 1)),
            ]),
        );
        let d = comm_lints(&wide_and_unit, Topology::Hypercube);
        assert_eq!(d.iter().filter(|d| d.code == WarnCode::WideHalo).count(), 1);

        let wide_only = with_decl(
            declset(vec![decl_arr("a", 16), decl_arr("b", 16)]),
            mv(avar("b", everywhere()), cshift_of("a", 2, 1)),
        );
        assert!(comm_lints(&wide_only, Topology::Hypercube)
            .iter()
            .all(|d| d.code != WarnCode::WideHalo));
    }

    #[test]
    fn alltoall_is_topology_conditional() {
        let p = with_decl(
            declset(vec![decl_arr("a", 16), decl_arr("b", 16)]),
            mv(
                avar("b", everywhere()),
                fcncall("transpose", vec![(int32(), ld("a", everywhere()))]),
            ),
        );
        let mesh = comm_lints(&p, Topology::Hypercube);
        assert_eq!(
            mesh.iter().filter(|d| d.code == WarnCode::AllToAll).count(),
            1
        );
        let tree = comm_lints(&p, Topology::FatTree);
        assert!(tree.iter().all(|d| d.code != WarnCode::AllToAll));
    }

    #[test]
    fn loop_invariant_reshift_is_redundant() {
        // t = cshift(a); DO { u = cshift(a); ... } — a never changes, so
        // the inner shift re-communicates every iteration.
        let p = with_decl(
            declset(vec![
                decl_arr("a", 8),
                decl_arr("t", 8),
                decl_arr("u", 8),
                decl_arr("b", 8),
            ]),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                mv(avar("t", everywhere()), cshift_of("a", 1, 1)),
                do_over(
                    "i",
                    serial_interval(1, 4),
                    seq(vec![
                        mv(avar("u", everywhere()), cshift_of("a", 1, 1)),
                        mv(avar("b", everywhere()), ld("u", everywhere())),
                    ]),
                ),
            ]),
        );
        let d = comm_lints(&p, Topology::Hypercube);
        let red: Vec<_> = d
            .iter()
            .filter(|d| d.code == WarnCode::RedundantComm)
            .collect();
        assert_eq!(red.len(), 1);
        assert_eq!(red[0].var, "a");
    }

    #[test]
    fn killed_source_is_not_redundant() {
        // a is redefined between the two identical shifts.
        let p = with_decl(
            declset(vec![decl_arr("a", 8), decl_arr("t", 8), decl_arr("u", 8)]),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                mv(avar("t", everywhere()), cshift_of("a", 1, 1)),
                mv(avar("a", everywhere()), int(2)),
                mv(avar("u", everywhere()), cshift_of("a", 1, 1)),
            ]),
        );
        assert!(comm_lints(&p, Topology::Hypercube)
            .iter()
            .all(|d| d.code != WarnCode::RedundantComm));
    }

    #[test]
    fn different_distances_are_not_redundant() {
        let p = with_decl(
            declset(vec![decl_arr("a", 8), decl_arr("t", 8), decl_arr("u", 8)]),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                mv(avar("t", everywhere()), cshift_of("a", 1, 1)),
                mv(avar("u", everywhere()), cshift_of("a", -1, 1)),
            ]),
        );
        assert!(comm_lints(&p, Topology::Hypercube)
            .iter()
            .all(|d| d.code != WarnCode::RedundantComm));
    }

    #[test]
    fn comm_facts_accept_merges_and_reject_inventions() {
        let two = with_decl(
            declset(vec![decl_arr("a", 8), decl_arr("t", 8), decl_arr("u", 8)]),
            seq(vec![
                mv(avar("t", everywhere()), cshift_of("a", 1, 1)),
                mv(avar("u", everywhere()), cshift_of("a", 1, 1)),
            ]),
        );
        let one = with_decl(
            declset(vec![decl_arr("a", 8), decl_arr("t", 8)]),
            mv(avar("t", everywhere()), cshift_of("a", 1, 1)),
        );
        let facts = CommFacts::of(&two);
        // Merging down to one shift is legal...
        assert!(facts.check_pass("comm-cse", &one).is_ok());
        // ...but the reverse invents communication.
        let err = CommFacts::of(&one).check_pass("evil", &two).unwrap_err();
        assert!(err.contains("evil"), "{err}");
        assert!(err.contains("halo"), "{err}");
    }

    #[test]
    fn retargeted_shift_distance_is_an_invention() {
        let before = with_decl(
            declset(vec![decl_arr("a", 8), decl_arr("t", 8)]),
            mv(avar("t", everywhere()), cshift_of("a", 1, 1)),
        );
        let after = with_decl(
            declset(vec![decl_arr("a", 8), decl_arr("t", 8)]),
            mv(avar("t", everywhere()), cshift_of("a", 2, 1)),
        );
        let err = CommFacts::of(&before)
            .check_pass("evil-stretch", &after)
            .unwrap_err();
        assert!(err.contains("evil-stretch"), "{err}");
    }
}
