//! Forward dataflow: reaching definitions and def-use facts.
//!
//! The lattice element per variable is a [`DefState`]: the set of
//! definition sites (statement id, clause index) that may reach a program
//! point, plus a `maybe_uninit` bit recording whether some path reaches
//! the point with *no* definition at all. Joins are set union; a variable
//! absent from one side of a join is uninitialised on that side.
//!
//! A definition is *strong* (kills every earlier definition) when it is an
//! unmasked move to a scalar or to a whole array (`everywhere`); masked,
//! sectioned and subscripted writes are weak and accumulate. Loops are
//! solved by fixpoint iteration with facts recorded only from the
//! converged state, so a use inside a `WHILE` body sees the definitions
//! flowing around the back edge.
//!
//! The state at a program point is a chunked copy-on-write table over a
//! dense numbering of the variables the tree defines (`Defs`), so
//! the snapshot kept for every `MOVE` shares everything the `MOVE` did
//! not change; [`ReachingFacts::state_at`] is the one query. The
//! `BTreeMap` implementation this replaced is `reaching_reference.rs`,
//! compiled for tests only, and a property test holds the two equal.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use f90y_nir::imp::LValue;
use f90y_nir::shape::DomainEnv;
use f90y_nir::value::FieldAction;
use f90y_nir::{Ident, Imp, Shape, Type, Value};

use crate::index::StmtIndex;

/// A definition site: `(statement id, clause-or-binding index)`.
pub type DefId = (usize, usize);

/// The definitions of one variable that may reach a program point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DefState {
    /// Definition sites that may reach here.
    pub defs: BTreeSet<DefId>,
    /// `true` when some path reaches here without defining the variable.
    pub maybe_uninit: bool,
}

/// What [`ReachingFacts::state_at`] answers for a variable with no slot.
static UNINIT: DefState = DefState {
    defs: BTreeSet::new(),
    maybe_uninit: true,
};

impl DefState {
    /// The state of a variable never defined: no sites, maybe uninit.
    #[must_use]
    pub fn uninit() -> Self {
        UNINIT.clone()
    }

    /// The state after one dominating strong definition.
    #[must_use]
    pub fn single(d: DefId) -> Self {
        DefState {
            defs: BTreeSet::from([d]),
            maybe_uninit: false,
        }
    }

    pub(crate) fn join(&self, other: &DefState) -> DefState {
        DefState {
            defs: self.defs.union(&other.defs).copied().collect(),
            maybe_uninit: self.maybe_uninit || other.maybe_uninit,
        }
    }
}

/// One variable's state; `None` is the uninitialised state (a stored
/// state always has at least one definition site, so the encoding is
/// unique and `==` on slots is `==` on states).
type Slot = Option<Arc<DefState>>;

const CHUNK: usize = 32;
type Chunk = [Slot; CHUNK];

/// Per-variable reaching-definition states at one program point, indexed
/// by the dense variable numbers of one [`ReachingFacts::compute`] run.
///
/// A chunked copy-on-write table: a clone (the snapshot taken at every
/// `MOVE`) bumps one reference count per chunk, a write copies the one
/// chunk of pointers it lands in, and `join`/`==` skip every chunk and
/// slot that is the same allocation on both sides (`Arc`'s `==` checks
/// the pointer first because the payloads are `Eq`).
#[derive(Clone, PartialEq, Eq)]
struct Defs {
    chunks: Vec<Arc<Chunk>>,
}

impl Defs {
    /// Every one of `vars` variables uninitialised.
    fn new(vars: usize) -> Defs {
        let empty: Arc<Chunk> = Arc::new(std::array::from_fn(|_| None));
        Defs {
            chunks: vec![empty; vars.div_ceil(CHUNK)],
        }
    }

    fn slot(&self, var: usize) -> &Slot {
        &self.chunks[var / CHUNK][var % CHUNK]
    }

    fn state(&self, var: usize) -> &DefState {
        self.slot(var).as_deref().unwrap_or(&UNINIT)
    }

    fn set(&mut self, var: usize, slot: Slot) {
        Arc::make_mut(&mut self.chunks[var / CHUNK])[var % CHUNK] = slot;
    }

    /// Pointwise join; `None` joins as the uninitialised state.
    fn join(&self, other: &Defs) -> Defs {
        let join_slot = |a: &Slot, b: &Slot| match (a, b) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => Some(Arc::clone(a)),
            (Some(a), Some(b)) => Some(Arc::new(a.join(b))),
            (Some(s), None) | (None, Some(s)) if s.maybe_uninit => Some(Arc::clone(s)),
            (Some(s), None) | (None, Some(s)) => Some(Arc::new(s.join(&UNINIT))),
            (None, None) => None,
        };
        let chunks = self
            .chunks
            .iter()
            .zip(&other.chunks)
            .map(|(a, b)| {
                if Arc::ptr_eq(a, b) {
                    Arc::clone(a)
                } else {
                    Arc::new(std::array::from_fn(|i| join_slot(&a[i], &b[i])))
                }
            })
            .collect();
        Defs { chunks }
    }
}

/// The result of the reaching-definitions analysis over one tree.
pub struct ReachingFacts {
    /// Dense number of every variable the tree defines (`MOVE` targets
    /// and `WITH_DECL` bindings); any other variable is uninitialised
    /// everywhere.
    vars: HashMap<Ident, usize>,
    /// Entry state (before any clause executes) of every `MOVE`, by
    /// statement id.
    at_move: HashMap<usize, Defs>,
    /// `(statement id, variable)` pairs where a read may see no
    /// definition along some path.
    pub uninit_uses: BTreeSet<(usize, Ident)>,
    /// Variables declared with a scalar type anywhere in the tree.
    pub scalars: HashSet<Ident>,
    /// Number of dataflow facts recorded (reads resolved + definitions
    /// applied), for telemetry.
    pub fact_count: usize,
}

impl ReachingFacts {
    /// Run the analysis over `root`, keyed by `index` (which must have
    /// been built from the same `root`).
    #[must_use]
    pub fn compute(root: &Imp, index: &StmtIndex<'_>) -> ReachingFacts {
        let mut vars: HashMap<Ident, usize> = HashMap::new();
        let mut number = |id: &Ident| {
            if !vars.contains_key(id) {
                vars.insert(id.clone(), vars.len());
            }
        };
        for id in 0..index.len() {
            match index.node(id) {
                Imp::Move(clauses) => clauses.iter().for_each(|c| number(c.dst.ident())),
                Imp::WithDecl(d, _) => d.bindings().iter().for_each(|(name, _, _)| number(name)),
                _ => {}
            }
        }
        let entry = Defs::new(vars.len());
        let mut a = Analyzer {
            index,
            domains: Vec::new(),
            record: true,
            facts: ReachingFacts {
                vars,
                at_move: HashMap::new(),
                uninit_uses: BTreeSet::new(),
                scalars: HashSet::new(),
                fact_count: 0,
            },
        };
        a.flow(root, entry);
        a.facts
    }

    /// The definitions of `var` that may reach the entry of the `MOVE`
    /// with statement id `stmt` (before any of its clauses executes);
    /// `None` when `stmt` is not a `MOVE` of the analysed tree. A
    /// variable the tree never defines is uninitialised.
    #[must_use]
    pub fn state_at(&self, stmt: usize, var: &str) -> Option<&DefState> {
        Some(self.state_in(self.at_move.get(&stmt)?, var))
    }

    fn state_in<'d>(&self, defs: &'d Defs, var: &str) -> &'d DefState {
        self.vars.get(var).map_or(&UNINIT, |&n| defs.state(n))
    }
}

struct Analyzer<'a, 'i> {
    index: &'i StmtIndex<'a>,
    /// Innermost-last stack of `WITH_DOMAIN` bindings, pre-resolved.
    domains: Vec<(Ident, Shape)>,
    record: bool,
    facts: ReachingFacts,
}

impl Analyzer<'_, '_> {
    fn domain_env(&self) -> DomainEnv {
        self.domains.iter().cloned().collect()
    }

    /// The dense number of a variable the tree defines.
    fn var(&self, id: &str) -> usize {
        self.facts.vars[id]
    }

    /// Record every variable read in `v` against `state`, flagging reads
    /// that may see no definition.
    fn record_reads(&mut self, stmt: usize, v: &Value, state: &Defs) {
        if !self.record {
            return;
        }
        let facts = &mut self.facts;
        v.walk(&mut |node| {
            if let Value::SVar(id) | Value::AVar(id, _) = node {
                facts.fact_count += 1;
                if facts.state_in(state, id).maybe_uninit {
                    facts.uninit_uses.insert((stmt, id.clone()));
                }
            }
        });
    }

    /// Forward transfer: the state after executing `imp` from `state`.
    fn flow(&mut self, imp: &Imp, state: Defs) -> Defs {
        match imp {
            Imp::Skip => state,
            Imp::Program(b) => self.flow(b, state),
            Imp::Sequentially(xs) => xs.iter().fold(state, |s, x| self.flow(x, s)),
            Imp::Concurrently(xs) => {
                // The statements are independent by construction; reads
                // must not observe sibling writes, so flow each from the
                // common entry and join the exits.
                let mut out = state.clone();
                for x in xs {
                    out = out.join(&self.flow(x, state.clone()));
                }
                out
            }
            Imp::Move(clauses) => {
                let id = self.index.id(imp);
                if self.record {
                    self.facts.at_move.insert(id, state.clone());
                }
                // Clauses execute in order — the evaluator applies each
                // clause's write before the next clause's reads, and
                // blocking-fuse relies on exactly that when it merges
                // `tnew = …; t = tnew` into one MOVE — so each clause
                // reads the state left by the ones before it.
                let mut out = state;
                for (ci, c) in clauses.iter().enumerate() {
                    self.record_reads(id, &c.mask, &out);
                    self.record_reads(id, &c.src, &out);
                    if let LValue::AVar(_, FieldAction::Subscript(ixs)) = &c.dst {
                        for ix in ixs {
                            self.record_reads(id, ix, &out);
                        }
                    }
                    let var = self.var(c.dst.ident());
                    let strong = c.is_unmasked()
                        && matches!(
                            &c.dst,
                            LValue::SVar(_) | LValue::AVar(_, FieldAction::Everywhere)
                        );
                    if self.record {
                        self.facts.fact_count += 1;
                    }
                    let def = if strong {
                        DefState::single((id, ci))
                    } else {
                        let mut weak = out.state(var).clone();
                        weak.defs.insert((id, ci));
                        weak
                    };
                    out.set(var, Some(Arc::new(def)));
                }
                out
            }
            Imp::IfThenElse(c, t, e) => {
                let id = self.index.id(imp);
                self.record_reads(id, c, &state);
                let st = self.flow(t, state.clone());
                let se = self.flow(e, state);
                st.join(&se)
            }
            Imp::While(c, b) => {
                let id = self.index.id(imp);
                let entry = self.converge(b, state);
                // The condition is evaluated at the loop head on every
                // trip; the converged entry covers all of them.
                self.record_reads(id, c, &entry);
                if self.record {
                    let _ = self.flow(b, entry.clone());
                }
                // Zero iterations are always possible.
                entry
            }
            Imp::Do(_, shape, b) => {
                let entry = self.converge(b, state);
                let nonempty = shape
                    .resolve(&self.domain_env())
                    .map(|s| s.size() > 0)
                    .unwrap_or(false);
                if self.record || nonempty {
                    let out = self.flow(b, entry.clone());
                    if nonempty {
                        // The body ran at least once: definitions made on
                        // every trip have landed by the exit.
                        return out;
                    }
                }
                entry
            }
            Imp::WithDecl(d, b) => {
                let id = self.index.id(imp);
                let mut inner = state.clone();
                let bindings = d.bindings();
                for (bi, (name, ty, init)) in bindings.iter().enumerate() {
                    if matches!(ty, Type::Scalar(_)) {
                        self.facts.scalars.insert((*name).clone());
                    }
                    let def = init.map(|v| {
                        self.record_reads(id, v, &state);
                        if self.record {
                            self.facts.fact_count += 1;
                        }
                        Arc::new(DefState::single((id, bi)))
                    });
                    inner.set(self.var(name), def);
                }
                let out = self.flow(b, inner);
                // Restore the outer view of shadowed names; the locals
                // go out of scope.
                let mut restored = out;
                for (name, _, _) in &bindings {
                    let var = self.var(name);
                    restored.set(var, state.slot(var).clone());
                }
                restored
            }
            Imp::WithDomain(name, shape, b) => {
                let resolved = shape
                    .resolve(&self.domain_env())
                    .unwrap_or_else(|_| shape.clone());
                self.domains.push((name.clone(), resolved));
                let out = self.flow(b, state);
                self.domains.pop();
                out
            }
        }
    }

    /// Iterate `entry = entry ⊔ flow(body, entry)` to a fixpoint with
    /// recording off, returning the converged loop-head state.
    fn converge(&mut self, body: &Imp, state: Defs) -> Defs {
        let saved = self.record;
        self.record = false;
        let mut entry = state;
        loop {
            let out = self.flow(body, entry.clone());
            let joined = entry.join(&out);
            if joined == entry {
                break;
            }
            entry = joined;
        }
        self.record = saved;
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90y_nir::build::*;

    fn facts(p: &Imp) -> (ReachingFacts, Vec<Ident>) {
        let index = StmtIndex::of(p);
        let f = ReachingFacts::compute(p, &index);
        let uninit_vars: Vec<Ident> = f.uninit_uses.iter().map(|(_, v)| v.clone()).collect();
        (f, uninit_vars)
    }

    #[test]
    fn straight_line_def_then_use_is_clean() {
        let p = with_decl(
            decl("x", int32()),
            seq(vec![mv(svar_lv("x"), int(1)), mv(svar_lv("y"), svar("x"))]),
        );
        let (_, uninit) = facts(&p);
        assert!(uninit.is_empty(), "got {uninit:?}");
    }

    #[test]
    fn use_before_def_is_flagged() {
        let p = with_decl(
            decl("x", int32()),
            seq(vec![mv(svar_lv("y"), svar("x")), mv(svar_lv("x"), int(1))]),
        );
        let (f, uninit) = facts(&p);
        assert_eq!(uninit, vec!["x".to_string()]);
        assert!(f.scalars.contains("x"));
    }

    #[test]
    fn one_sided_branch_definition_is_maybe_uninit() {
        let p = with_decl(
            decl("x", int32()),
            seq(vec![
                ifte(svar("p"), mv(svar_lv("x"), int(1)), Imp::Skip),
                mv(svar_lv("y"), svar("x")),
            ]),
        );
        let (_, uninit) = facts(&p);
        assert!(uninit.contains(&"x".to_string()));
        // Both-sided definitions are clean.
        let q = with_decl(
            decl("x", int32()),
            seq(vec![
                ifte(
                    svar("p"),
                    mv(svar_lv("x"), int(1)),
                    mv(svar_lv("x"), int(2)),
                ),
                mv(svar_lv("y"), svar("x")),
            ]),
        );
        let (_, uninit) = facts(&q);
        assert!(!uninit.contains(&"x".to_string()));
    }

    #[test]
    fn initializers_define_their_variable() {
        let p = with_decl(
            initialized("x", int32(), int(7)),
            mv(svar_lv("y"), svar("x")),
        );
        let (_, uninit) = facts(&p);
        assert!(!uninit.contains(&"x".to_string()));
    }

    #[test]
    fn while_body_definition_does_not_reach_after_the_loop() {
        // WHILE p { x = 1 }; y = x — zero iterations leave x undefined.
        let p = with_decl(
            decl("x", int32()),
            seq(vec![
                while_loop(svar("p"), mv(svar_lv("x"), int(1))),
                mv(svar_lv("y"), svar("x")),
            ]),
        );
        let (_, uninit) = facts(&p);
        assert!(uninit.contains(&"x".to_string()));
    }

    #[test]
    fn nonempty_serial_do_definitely_defines() {
        // DO i over 1..4 { x = i }; y = x — the loop provably runs.
        let p = with_decl(
            decl("x", int32()),
            seq(vec![
                do_over("i", serial_interval(1, 4), mv(svar_lv("x"), int(1))),
                mv(svar_lv("y"), svar("x")),
            ]),
        );
        let (_, uninit) = facts(&p);
        assert!(!uninit.contains(&"x".to_string()));
        // An empty loop cannot define.
        let q = with_decl(
            decl("x", int32()),
            seq(vec![
                do_over("i", serial_interval(5, 4), mv(svar_lv("x"), int(1))),
                mv(svar_lv("y"), svar("x")),
            ]),
        );
        let (_, uninit) = facts(&q);
        assert!(uninit.contains(&"x".to_string()));
    }

    #[test]
    fn loop_carried_use_sees_the_back_edge_definition() {
        // DO { y = x; x = 1 } — the read of x on trip 2 sees trip 1's
        // write, but trip 1's read is still uninitialised.
        let p = with_decl(
            decl("x", int32()),
            do_over(
                "i",
                serial_interval(1, 4),
                seq(vec![mv(svar_lv("y"), svar("x")), mv(svar_lv("x"), int(1))]),
            ),
        );
        let (f, uninit) = facts(&p);
        assert!(uninit.contains(&"x".to_string()));
        // The converged entry state at the read still carries the
        // back-edge definition site.
        let read_id = f
            .uninit_uses
            .iter()
            .find(|(_, v)| v == "x")
            .map(|(s, _)| *s)
            .unwrap();
        let entry = f.state_at(read_id, "x").unwrap();
        assert!(!entry.defs.is_empty());
        assert!(entry.maybe_uninit);
    }

    #[test]
    fn masked_writes_are_weak_definitions() {
        let p = with_domain(
            "alpha",
            interval(1, 8),
            with_decl(
                declset(vec![
                    decl("a", dfield(domain("alpha"), int32())),
                    decl("m", dfield(domain("alpha"), logical32())),
                ]),
                seq(vec![
                    mv_masked(ld("m", everywhere()), avar("a", everywhere()), int(1)),
                    mv(avar("b", everywhere()), ld("a", everywhere())),
                ]),
            ),
        );
        let (f, uninit) = facts(&p);
        // The masked write does not strongly define a.
        assert!(uninit.contains(&"a".to_string()));
        // But it is not a *scalar*, so the lint layer will not warn.
        assert!(!f.scalars.contains("a"));
        // An unmasked everywhere write strongly defines.
        let q = with_domain(
            "alpha",
            interval(1, 8),
            with_decl(
                decl("a", dfield(domain("alpha"), int32())),
                seq(vec![
                    mv(avar("a", everywhere()), int(1)),
                    mv(avar("b", everywhere()), ld("a", everywhere())),
                ]),
            ),
        );
        let (_, uninit) = facts(&q);
        assert!(!uninit.contains(&"a".to_string()));
    }

    #[test]
    fn concurrent_siblings_do_not_define_each_other() {
        let p = with_decl(
            declset(vec![decl("x", int32()), decl("y", int32())]),
            conc(vec![mv(svar_lv("x"), int(1)), mv(svar_lv("z"), svar("x"))]),
        );
        let (_, uninit) = facts(&p);
        assert!(uninit.contains(&"x".to_string()));
    }

    #[test]
    fn fused_move_clauses_execute_in_order() {
        // MOVE[(tnew ← t), (t ← tnew)]: blocking-fuse emits this shape,
        // and the evaluator applies clause writes in order, so the
        // second clause's read of tnew sees the first clause's
        // definition — not an uninitialised variable.
        let p = with_decl(
            declset(vec![
                decl("t", dfield(interval(1, 8), int32())),
                decl("tnew", dfield(interval(1, 8), int32())),
            ]),
            seq(vec![
                mv(avar("t", everywhere()), int(0)),
                mv_multi(vec![
                    f90y_nir::imp::MoveClause::unmasked(
                        avar("tnew", everywhere()),
                        ld("t", everywhere()),
                    ),
                    f90y_nir::imp::MoveClause::unmasked(
                        avar("t", everywhere()),
                        ld("tnew", everywhere()),
                    ),
                ]),
            ]),
        );
        let (_, uninit) = facts(&p);
        assert!(uninit.is_empty(), "got {uninit:?}");
    }

    #[test]
    fn move_entry_states_distinguish_redefinition() {
        // t = shift(a); a = 0; u = shift(a) — the two shift sources read
        // different reaching definitions of a.
        let p = with_decl(
            decl("a", dfield(interval(1, 8), int32())),
            seq(vec![
                mv(avar("a", everywhere()), int(1)),
                mv(
                    avar("t", everywhere()),
                    fcncall("cshift", vec![(int32(), ld("a", everywhere()))]),
                ),
                mv(avar("a", everywhere()), int(0)),
                mv(
                    avar("u", everywhere()),
                    fcncall("cshift", vec![(int32(), ld("a", everywhere()))]),
                ),
            ]),
        );
        let index = StmtIndex::of(&p);
        let f = ReachingFacts::compute(&p, &index);
        let move_ids: Vec<usize> = (0..index.len())
            .filter(|&s| f.state_at(s, "a").is_some())
            .collect();
        assert_eq!(move_ids.len(), 4);
        let t_def = f.state_at(move_ids[1], "a").unwrap();
        let u_def = f.state_at(move_ids[3], "a").unwrap();
        assert_ne!(t_def, u_def);
        assert!(!t_def.maybe_uninit);
        assert!(!u_def.maybe_uninit);
    }
}
