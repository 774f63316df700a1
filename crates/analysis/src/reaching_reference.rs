//! The `BTreeMap` reaching-definitions implementation [`crate::reaching`]
//! replaced, kept as the specification the chunked table is
//! property-tested against: same transfer function and lattice, one
//! owned map per program point, a full clone at every `MOVE`.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use f90y_nir::imp::LValue;
use f90y_nir::shape::DomainEnv;
use f90y_nir::value::FieldAction;
use f90y_nir::{Ident, Imp, Shape, Type, Value};

use crate::index::StmtIndex;
use crate::reaching::DefState;

/// Per-variable reaching-definition states at one program point.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Defs {
    map: BTreeMap<Ident, DefState>,
}

impl Defs {
    /// The state of one variable; an unknown variable is uninitialised.
    #[must_use]
    pub fn state(&self, id: &str) -> DefState {
        self.map.get(id).cloned().unwrap_or_else(DefState::uninit)
    }

    /// Pointwise join; a variable absent on one side is uninitialised
    /// there.
    #[must_use]
    pub fn join(&self, other: &Defs) -> Defs {
        let mut map = BTreeMap::new();
        for (id, a) in &self.map {
            let joined = match other.map.get(id) {
                Some(b) => a.join(b),
                None => a.join(&DefState::uninit()),
            };
            map.insert(id.clone(), joined);
        }
        for (id, b) in &other.map {
            if !self.map.contains_key(id) {
                map.insert(id.clone(), b.join(&DefState::uninit()));
            }
        }
        Defs { map }
    }
}

/// The result of the reaching-definitions analysis over one tree.
pub struct ReachingFacts {
    /// Entry state (before any clause executes) of every `MOVE`, by
    /// statement id.
    pub at_move: HashMap<usize, Defs>,
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
        let mut a = Analyzer {
            index,
            domains: Vec::new(),
            record: true,
            facts: ReachingFacts {
                at_move: HashMap::new(),
                uninit_uses: BTreeSet::new(),
                scalars: HashSet::new(),
                fact_count: 0,
            },
        };
        a.flow(root, Defs::default());
        a.facts
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

    /// Record every variable read in `v` against `state`, flagging reads
    /// that may see no definition.
    fn record_reads(&mut self, stmt: usize, v: &Value, state: &Defs) {
        let mut reads = Vec::new();
        v.walk(&mut |node| match node {
            Value::SVar(id) | Value::AVar(id, _) => reads.push(id.clone()),
            _ => {}
        });
        for id in reads {
            if self.record {
                self.facts.fact_count += 1;
                if state.state(&id).maybe_uninit {
                    self.facts.uninit_uses.insert((stmt, id));
                }
            }
        }
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
                    let var = c.dst.ident().clone();
                    let strong = c.is_unmasked()
                        && matches!(
                            &c.dst,
                            LValue::SVar(_) | LValue::AVar(_, FieldAction::Everywhere)
                        );
                    if self.record {
                        self.facts.fact_count += 1;
                    }
                    if strong {
                        out.map.insert(var, DefState::single((id, ci)));
                    } else {
                        let entry = out.map.entry(var).or_insert_with(DefState::uninit);
                        entry.defs.insert((id, ci));
                    }
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
                    if let Some(v) = init {
                        self.record_reads(id, v, &state);
                        if self.record {
                            self.facts.fact_count += 1;
                        }
                        inner
                            .map
                            .insert((*name).clone(), DefState::single((id, bi)));
                    } else {
                        inner.map.insert((*name).clone(), DefState::uninit());
                    }
                }
                let out = self.flow(b, inner);
                // Restore the outer view of shadowed names; the locals
                // go out of scope.
                let mut restored = out;
                for (name, _, _) in &bindings {
                    match state.map.get(*name) {
                        Some(prev) => {
                            restored.map.insert((*name).clone(), prev.clone());
                        }
                        None => {
                            restored.map.remove(*name);
                        }
                    }
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

mod tests {
    use f90y_nir::build::*;
    use f90y_nir::value::SectionRange;
    use f90y_nir::{Imp, Value};
    use proptest::prelude::*;
    use proptest::TestRng;

    use crate::index::StmtIndex;

    /// More names than two chunks hold, so snapshots, joins and
    /// comparisons cross chunk boundaries; half the picks land on the
    /// first six so definitions and uses still meet.
    const POOL: usize = 80;

    fn name(rng: &mut TestRng) -> String {
        let n = if rng.below(2) == 0 {
            rng.below(6)
        } else {
            rng.below(POOL as u64)
        };
        format!("v{n}")
    }

    fn expr(rng: &mut TestRng) -> Value {
        match rng.below(4) {
            0 => int(1),
            1 => svar(&name(rng)),
            2 => ld(&name(rng), everywhere()),
            _ => add(ld(&name(rng), everywhere()), svar(&name(rng))),
        }
    }

    fn mv_stmt(rng: &mut TestRng) -> Imp {
        let v = name(rng);
        match rng.below(6) {
            0 => mv(svar_lv(&v), expr(rng)),
            1 => mv(avar(&v, everywhere()), expr(rng)),
            2 => mv_masked(expr(rng), avar(&v, everywhere()), expr(rng)),
            3 => mv(avar(&v, section(vec![SectionRange::new(1, 4)])), expr(rng)),
            4 => mv(avar(&v, subscript(vec![expr(rng)])), expr(rng)),
            _ => mv_multi(vec![
                f90y_nir::imp::MoveClause::unmasked(avar(&v, everywhere()), expr(rng)),
                f90y_nir::imp::MoveClause::unmasked(svar_lv(&name(rng)), svar(&v)),
            ]),
        }
    }

    fn block(rng: &mut TestRng, depth: u32) -> Imp {
        let n = 1 + rng.below(4);
        seq((0..n).map(|_| stmt(rng, depth)).collect())
    }

    fn stmt(rng: &mut TestRng, depth: u32) -> Imp {
        if depth == 0 {
            return mv_stmt(rng);
        }
        let d = depth - 1;
        match rng.below(12) {
            0 => ifte(expr(rng), block(rng, d), block(rng, d)),
            1 => ifte(expr(rng), block(rng, d), Imp::Skip),
            2 => do_over("i", serial_interval(1, 4), block(rng, d)),
            3 => do_over("i", serial_interval(5, 4), block(rng, d)),
            4 => with_domain(
                "dom",
                interval(1, 8),
                do_over("i", domain("dom"), block(rng, d)),
            ),
            5 => while_loop(expr(rng), block(rng, d)),
            6 => {
                // Shadowing (the names come from the shared pool), with
                // and without initialisers, scalar and array.
                let decls = (0..1 + rng.below(3))
                    .map(|_| match rng.below(3) {
                        0 => decl(&name(rng), int32()),
                        1 => decl(&name(rng), dfield(interval(1, 8), int32())),
                        _ => initialized(&name(rng), int32(), expr(rng)),
                    })
                    .collect();
                with_decl(declset(decls), block(rng, d))
            }
            7 => conc((0..2 + rng.below(2)).map(|_| stmt(rng, d)).collect()),
            _ => mv_stmt(rng),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn chunked_table_matches_the_btreemap_reference(seed in any::<u64>()) {
            let mut rng = TestRng::from_name(&seed.to_string());
            let p = program(block(&mut rng, 3));
            let index = StmtIndex::of(&p);
            let new = crate::reaching::ReachingFacts::compute(&p, &index);
            let old = super::ReachingFacts::compute(&p, &index);
            prop_assert_eq!(&new.uninit_uses, &old.uninit_uses);
            prop_assert_eq!(&new.scalars, &old.scalars);
            prop_assert_eq!(new.fact_count, old.fact_count);
            for stmt in 0..index.len() {
                let Some(entry) = old.at_move.get(&stmt) else {
                    prop_assert!(new.state_at(stmt, "v0").is_none());
                    continue;
                };
                for var in (0..POOL).map(|n| format!("v{n}")).chain(["never".to_string()]) {
                    prop_assert_eq!(new.state_at(stmt, &var), Some(&entry.state(&var)));
                }
            }
        }
    }
}
