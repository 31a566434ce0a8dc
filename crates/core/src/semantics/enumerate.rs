//! Exhaustive enumeration of fixpoints and stable models.
//!
//! Telling whether a fixpoint (or stable model) exists is NP-hard already
//! for propositional programs \[KP\]; this module is the exact oracle the
//! experiments use on *small* instances: a DPLL-style backtracking search
//! whose unit propagation is precisely the forced part of the supported-
//! model conditions:
//!
//! * a rule whose body became all-true forces its head true;
//! * an atom that lost its last potentially-true rule and is not in Δ is
//!   forced false (if undefined) or contradicts (if true).
//!
//! Totality is the search's hard budget: instances with more than
//! [`EnumerateConfig::max_branch_atoms`] undefined atoms after the initial
//! propagation are rejected rather than silently left running.

use datalog_ast::{Database, Program};
use datalog_ground::{AtomId, GroundGraph, PartialModel, TruthValue};

use super::fixpoint::is_fixpoint;
use super::stable::is_stable;
use super::SemanticsError;

/// Budgets for the enumeration search.
#[derive(Clone, Copy, Debug)]
pub struct EnumerateConfig {
    /// Stop after this many models (0 = unlimited).
    pub limit: usize,
    /// Refuse instances with more than this many branchable atoms.
    pub max_branch_atoms: usize,
}

impl Default for EnumerateConfig {
    fn default() -> Self {
        EnumerateConfig {
            limit: 0,
            max_branch_atoms: 30,
        }
    }
}

/// Search state: model plus supported-model propagation counters.
#[derive(Clone)]
struct State {
    model: PartialModel,
    /// Rule disabled by a false body literal.
    rule_dead: Vec<bool>,
    /// Body literals not yet resolved true.
    rule_pending: Vec<u32>,
    /// Non-dead rules per head atom.
    atom_support: Vec<u32>,
    /// Defined atoms awaiting propagation.
    queue: Vec<AtomId>,
}

struct Search<'g> {
    graph: &'g GroundGraph,
    in_delta: Vec<bool>,
    limit: usize,
    results: Vec<PartialModel>,
}

impl<'g> Search<'g> {
    fn propagate(&self, st: &mut State) -> bool {
        while let Some(atom) = st.queue.pop() {
            let value = st.model.get(atom);
            debug_assert!(value.is_defined());
            let truth = value == TruthValue::True;

            // A true atom not in Δ must keep some potentially-true rule.
            if truth && !self.in_delta[atom.index()] && st.atom_support[atom.index()] == 0 {
                return false;
            }

            for k in 0..self.graph.uses_of(atom).len() {
                let (rule, sign) = self.graph.uses_of(atom)[k];
                if st.rule_dead[rule.index()] {
                    continue;
                }
                let literal_true = sign.is_pos() == truth;
                if literal_true {
                    let p = &mut st.rule_pending[rule.index()];
                    *p -= 1;
                    if *p == 0 {
                        // Rule fires: head forced true.
                        let head = self.graph.rule(rule).head;
                        match st.model.get(head) {
                            TruthValue::False => return false,
                            TruthValue::True => {}
                            TruthValue::Undefined => {
                                st.model.set(head, TruthValue::True);
                                st.queue.push(head);
                            }
                        }
                    }
                } else {
                    // Rule dies; its head loses one potential support.
                    st.rule_dead[rule.index()] = true;
                    let head = self.graph.rule(rule).head;
                    let s = &mut st.atom_support[head.index()];
                    *s -= 1;
                    if *s == 0 && !self.in_delta[head.index()] {
                        match st.model.get(head) {
                            TruthValue::True => return false,
                            TruthValue::False => {}
                            TruthValue::Undefined => {
                                st.model.set(head, TruthValue::False);
                                st.queue.push(head);
                            }
                        }
                    }
                }
            }
        }
        true
    }

    fn search(&mut self, mut st: State) {
        if !self.propagate(&mut st) {
            return;
        }
        if self.limit != 0 && self.results.len() >= self.limit {
            return;
        }
        // Branch on the first undefined atom.
        let Some(atom) = st.model.undefined_atoms().next() else {
            self.results.push(st.model);
            return;
        };
        for value in [TruthValue::False, TruthValue::True] {
            let mut branch = st.clone();
            branch.model.set(atom, value);
            branch.queue.push(atom);
            self.search(branch);
            if self.limit != 0 && self.results.len() >= self.limit {
                return;
            }
        }
    }
}

fn initial_state(graph: &GroundGraph, program: &Program, database: &Database) -> State {
    let model = PartialModel::initial(program, database, graph.atoms());
    let rule_pending: Vec<u32> = graph.rules().map(|r| r.body.len() as u32).collect();
    let atom_support: Vec<u32> = (0..graph.atom_count())
        .map(|i| graph.heads_of(AtomId(i as u32)).len() as u32)
        .collect();
    let queue: Vec<AtomId> = model.defined().map(|(a, _)| a).collect();
    State {
        model,
        rule_dead: vec![false; graph.rule_count()],
        rule_pending,
        atom_support,
        queue,
    }
}

/// Enumerates the fixpoints (supported models) of the grounded instance.
///
/// # Errors
///
/// [`SemanticsError::NotApplicable`] when more atoms would have to be
/// branched on than `config.max_branch_atoms` allows.
pub fn enumerate_fixpoints(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    config: &EnumerateConfig,
) -> Result<Vec<PartialModel>, SemanticsError> {
    let mut search = Search {
        graph,
        in_delta: delta_mask(graph, database),
        limit: config.limit,
        results: Vec::new(),
    };

    // Seed: facts (body-less rules) fire immediately; unsupported atoms
    // are forced false by propagation once their counters are seen — but
    // counters only change on events, so seed those too.
    let mut st = initial_state(graph, program, database);
    for (i, rule) in graph.rules().enumerate() {
        if rule.body.is_empty() && !st.rule_dead[i] {
            let head = rule.head;
            if st.model.get(head) == TruthValue::Undefined {
                st.model.set(head, TruthValue::True);
                st.queue.push(head);
            }
        }
    }
    for i in 0..graph.atom_count() {
        let id = AtomId(i as u32);
        if st.atom_support[i] == 0
            && !search.in_delta[i]
            && st.model.get(id) == TruthValue::Undefined
        {
            st.model.set(id, TruthValue::False);
            st.queue.push(id);
        }
    }

    // Budget check after initial propagation.
    let mut probe = st.clone();
    if search.propagate(&mut probe) {
        let branchable = probe.model.undefined_atoms().count();
        if branchable > config.max_branch_atoms {
            return Err(SemanticsError::NotApplicable(format!(
                "enumeration would branch over {branchable} atoms (cap {})",
                config.max_branch_atoms
            )));
        }
        search.search(probe);
    }

    // Belt-and-braces: every reported model must pass the checker.
    debug_assert!(search
        .results
        .iter()
        .all(|m| is_fixpoint(graph, database, m)));
    Ok(search.results)
}

/// Enumerates the stable models (the stable subset of the fixpoints).
///
/// # Errors
///
/// As for [`enumerate_fixpoints`].
pub fn enumerate_stable(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    config: &EnumerateConfig,
) -> Result<Vec<PartialModel>, SemanticsError> {
    // The limit must not truncate fixpoints before the stability filter.
    let all = enumerate_fixpoints(
        graph,
        program,
        database,
        &EnumerateConfig {
            limit: 0,
            ..*config
        },
    )?;
    let mut stable: Vec<PartialModel> = all
        .into_iter()
        .filter(|m| is_stable(graph, program, database, m))
        .collect();
    if config.limit != 0 {
        stable.truncate(config.limit);
    }
    Ok(stable)
}

/// `true` iff the instance has at least one fixpoint.
///
/// # Errors
///
/// As for [`enumerate_fixpoints`].
pub fn has_fixpoint(
    graph: &GroundGraph,
    program: &Program,
    database: &Database,
    max_branch_atoms: usize,
) -> Result<bool, SemanticsError> {
    Ok(!enumerate_fixpoints(
        graph,
        program,
        database,
        &EnumerateConfig {
            limit: 1,
            max_branch_atoms,
        },
    )?
    .is_empty())
}

fn delta_mask(graph: &GroundGraph, database: &Database) -> Vec<bool> {
    let mut mask = vec![false; graph.atom_count()];
    for fact in database.facts() {
        if let Some(id) = graph.atoms().id_of(&fact) {
            mask[id.index()] = true;
        }
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program};
    use datalog_ground::{ground, GroundConfig, GroundMode};

    fn fixpoints(src: &str, db: &str) -> Vec<PartialModel> {
        let p = parse_program(src).unwrap();
        let d = parse_database(db).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        enumerate_fixpoints(&g, &p, &d, &EnumerateConfig::default()).unwrap()
    }

    fn stables(src: &str, db: &str) -> Vec<PartialModel> {
        let p = parse_program(src).unwrap();
        let d = parse_database(db).unwrap();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        enumerate_stable(&g, &p, &d, &EnumerateConfig::default()).unwrap()
    }

    #[test]
    fn pq_cycle_counts() {
        assert_eq!(fixpoints("p :- not q.\nq :- not p.", "").len(), 2);
        assert_eq!(stables("p :- not q.\nq :- not p.", "").len(), 2);
    }

    #[test]
    fn guarded_pq_counts() {
        // Fixpoints: {}, {p}, {q}; stable: only {}.
        assert_eq!(fixpoints("p :- p, not q.\nq :- q, not p.", "").len(), 3);
        assert_eq!(stables("p :- p, not q.\nq :- q, not p.", "").len(), 1);
    }

    #[test]
    fn odd_loop_has_no_fixpoint() {
        assert!(fixpoints("p :- not p.", "").is_empty());
    }

    #[test]
    fn odd_loop_guarded_by_edb() {
        // p ← ¬p, e: no fixpoint when e ∈ Δ, one ({p=F, e=F}) when not.
        assert!(fixpoints("p :- not p, e.", "e.").is_empty());
        let fp = fixpoints("p :- not p, e.", "");
        assert_eq!(fp.len(), 1);
    }

    #[test]
    fn three_rules_fixpoints_and_stables() {
        // Paper §3: three mutually-exclusive propositions.
        let src = "p1 :- not p2, not p3.\np2 :- not p1, not p3.\np3 :- not p1, not p2.";
        let fp = fixpoints(src, "");
        // Fixpoints: the three singletons (all-false is not a fixpoint:
        // all three rules fire).
        assert_eq!(fp.len(), 3);
        assert!(fp.iter().all(|m| m.true_count() == 1));
        assert_eq!(stables(src, "").len(), 3);
    }

    #[test]
    fn positive_loop_fixpoints() {
        // p :- p. has two fixpoints ({}, {p}); only {} is stable.
        assert_eq!(fixpoints("p :- p.", "").len(), 2);
        let st = stables("p :- p.", "");
        assert_eq!(st.len(), 1);
        assert_eq!(st[0].true_count(), 0);
    }

    #[test]
    fn predicate_level_instance() {
        // Paper program (1) with E = {b}: unique fixpoint {p(a), e(b)}.
        let fp = fixpoints("p(a) :- not p(X), e(b).", "e(b).");
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].true_count(), 2); // p(a) and e(b)
                                           // Variant (2) with E = {a}: no fixpoint (Theorem 2's witness).
        let fp = fixpoints("p(X, Y) :- not p(Y, Y), e(X).", "e(a).");
        assert!(fp.is_empty());
    }

    #[test]
    fn limit_short_circuits() {
        let p = parse_program("p :- not q.\nq :- not p.").unwrap();
        let d = Database::new();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let one = enumerate_fixpoints(
            &g,
            &p,
            &d,
            &EnumerateConfig {
                limit: 1,
                max_branch_atoms: 30,
            },
        )
        .unwrap();
        assert_eq!(one.len(), 1);
        assert!(has_fixpoint(&g, &p, &d, 30).unwrap());
    }

    #[test]
    fn branch_budget_enforced() {
        // 40 independent p_i ← ¬q_i ; q_i ← ¬p_i pairs exceed a cap of 10.
        let mut src = String::new();
        for i in 0..20 {
            src.push_str(&format!("p{i} :- not q{i}.\nq{i} :- not p{i}.\n"));
        }
        let p = parse_program(&src).unwrap();
        let d = Database::new();
        let g = ground(&p, &d, GroundMode::Full, &GroundConfig::default()).unwrap();
        let err = enumerate_fixpoints(
            &g,
            &p,
            &d,
            &EnumerateConfig {
                limit: 0,
                max_branch_atoms: 10,
            },
        )
        .unwrap_err();
        assert!(matches!(err, SemanticsError::NotApplicable(_)));
    }

    #[test]
    fn delta_facts_are_respected() {
        // q ∈ Δ: q needs no support; fixpoints must keep it true.
        let fp = fixpoints("p :- not q.", "q.");
        assert_eq!(fp.len(), 1);
        assert_eq!(fp[0].true_count(), 1); // q only
    }
}
