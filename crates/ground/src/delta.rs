//! Delta grounding for the incremental session.
//!
//! A [`SessionGrounder`] keeps, alongside the prepared [`GroundGraph`],
//! the state the relevant grounder needs to extend that graph under fact
//! **insertion** without re-running grounding from scratch:
//!
//! * the **grounding database** Δ̂ — the union of every fact that was
//!   ever present. Δ̂ only grows: retractions leave it (and the graph)
//!   untouched, because a stale rule instance whose positive EDB body is
//!   no longer in Δ is deleted — and its atoms decided false — by the
//!   very first round of `close(M₀, G)`. Any instance set between the
//!   fresh relevant grounding of the current Δ and the paper-literal full
//!   instantiation yields the *identical post-close residual graph* (the
//!   [`crate::grounder`] argument applied twice), so retraction is pure
//!   model surgery and "retiring" instances is the re-close's job;
//! * the **supportable set** S = S(Δ̂) — the gfp the relevant grounder
//!   computes (see [`crate::relevant`]). Because Δ̂ is insert-monotone,
//!   S only ever grows, and the increment ΔS can be computed exactly:
//!
//!   1. **Acyclic case** (no *affected* predicate lies on a positive
//!      dependency cycle of the program): S's defining operator is
//!      well-founded over the affected predicates, so its gfp coincides
//!      with the lfp and a **semi-naive forward pass seeded by the
//!      inserted facts** ([`crate::seminaive`]) derives exactly ΔS. Every
//!      newly supportable atom has a support instance with at least one
//!      newly supportable body atom (otherwise it was supportable
//!      before), so the seeded delta joins find it.
//!   2. **Cyclic case**: a positive cycle can become supportable as a
//!      whole without any member being forward-derivable (`p ← q, e` /
//!      `q ← p` turns supportable the moment `e` arrives), so forward
//!      derivation under-approximates. The grounder then re-runs the
//!      relevant grounder's candidate and support-counting passes
//!      **scoped to the affected predicates** (those positively
//!      reachable from the inserted facts' predicates), with every
//!      unaffected predicate's supportable relation frozen as context.
//!      Atoms of unaffected predicates cannot change (their support
//!      structure reads only unaffected upstream relations), so the
//!      scoped gfp splices exactly.
//!
//! Emission then enumerates, per rule and per positive body occurrence,
//! the substitutions whose occurrence matches ΔS and whose full positive
//! body lies in the new S — the semi-naive instance delta. Instances
//! with positive body inside the old S were all emitted earlier, so the
//! graph ends up containing every instance the fresh relevant grounder
//! of Δ̂ would emit.
//!
//! Universe invariance is a **precondition**: callers must fall back to
//! a full re-prepare when a mutation adds a constant outside the
//! prepared universe or retires a constant from it (the runtime session
//! guards this — extra universe constants would leak phantom atoms into
//! decoded models, e.g. `p(c) ← ¬q(c)` staying true after `c`'s last
//! fact is retracted).

use datalog_ast::{ConstSym, Database, FxHashSet, GroundAtom, PredSym, Program, Sign, Tuple};
use signed_graph::Sccs;

use crate::atoms::{AtomId, AtomSpaceOverflow};
use crate::csr::CsrArena;
use crate::graph::{GroundGraph, GroundRule};
use crate::grounder::{GroundConfig, GroundError};
use crate::relevant::{self, support_counted_gfp, SupportBudget};
use crate::seminaive::{run_seeded, RuleEvaluator};

/// What one [`SessionGrounder::delta_insert`] did to the graph.
#[derive(Clone, Copy, Debug, Default)]
pub struct DeltaGround {
    /// Index of the first appended atom (== the prepared atom count when
    /// `new_atoms == 0`).
    pub first_new_atom: usize,
    /// Index of the first appended rule node.
    pub first_new_rule: usize,
    /// Atoms appended to the table.
    pub new_atoms: usize,
    /// Rule instances appended to the graph.
    pub new_rules: usize,
    /// Newly supportable atoms (|ΔS|).
    pub delta_supportable: usize,
    /// `true` when the scoped gfp refresh ran (a positive-cycle
    /// predicate was affected); `false` for the pure semi-naive path.
    pub scoped_refresh: bool,
}

/// The incremental grounding state of one session (see the module docs).
pub struct SessionGrounder {
    /// Δ̂: every fact ever present (known predicates only). Insert-only.
    ground_db: Database,
    /// S(Δ̂), maintained exactly.
    supportable: Database,
    /// Facts of unknown predicates carried inside `supportable` since
    /// build (budget arithmetic discounts them).
    ignored_facts: u64,
    /// Positive dependency successors: slot `p` lists head
    /// predicates of rules with a positive body literal of predicate `p`.
    pos_succ: CsrArena<u32>,
    /// Predicate lies on a positive dependency cycle (gfp-sensitive).
    on_pos_cycle: Vec<bool>,
}

fn atom_overflow(config: &GroundConfig) -> impl Fn(AtomSpaceOverflow) -> GroundError + '_ {
    |ov| GroundError::TooManyAtoms {
        required: ov.required,
        budget: config.max_atoms,
    }
}

impl SessionGrounder {
    /// Grounds `(program, database)` relevantly and returns the graph
    /// together with the session state needed to extend it.
    ///
    /// # Errors
    ///
    /// As for [`crate::ground`]: a database fact whose arity conflicts
    /// with the program is rejected before anything is grounded.
    pub fn build(
        program: &Program,
        database: &Database,
        config: &GroundConfig,
    ) -> Result<(GroundGraph, SessionGrounder), GroundError> {
        let mut span = tiebreak_trace::span("ground", "session_ground", &[]);
        database.validate_against(program)?;
        let (graph, supportable) = relevant::ground_relevant_parts(program, database, config)?;
        let m = tiebreak_trace::metrics();
        m.ground_runs.inc();
        m.ground_atoms.add(graph.atom_count() as u64);
        m.ground_instances.add(graph.rule_count() as u64);
        // Δ̂ is copied tuple by tuple in Δ's own order, so its layout
        // (which the scoped refresh's joins walk) is the same as when it
        // was built from Δ's facts.
        let mut ground_db = Database::new();
        for (pred, args) in database.tuples() {
            if program.arity(pred).is_some() {
                ground_db
                    .insert_tuple(pred, args)
                    .map_err(GroundError::Validation)?;
            }
        }

        // Positive predicate dependency graph over dense predicate ids,
        // for affectedness and cycle detection.
        let preds = program.predicates();
        let pos_edges = || {
            program.rules().iter().enumerate().flat_map(|(r, rule)| {
                let ids = program.pred_ids(r);
                rule.body
                    .iter()
                    .zip(&ids[1..])
                    .filter(|(lit, _)| lit.sign == Sign::Pos)
                    .map(move |(_, &body)| (body, ids[0]))
            })
        };
        let mut counts = vec![0u32; preds.len()];
        for (body, _) in pos_edges() {
            counts[body as usize] += 1;
        }
        let (mut pos_succ, mut cursors) = CsrArena::from_counts(&counts, 0);
        for (body, head) in pos_edges() {
            pos_succ.place(&mut cursors, body, head);
        }
        let sccs = Sccs::of_adjacency(preds.len(), |p| pos_succ.get(p), |&q| q);
        let on_pos_cycle: Vec<bool> = (0..preds.len() as u32)
            .map(|p| pos_succ.get(p).contains(&p) || sccs.members(sccs.component_of(p)).len() > 1)
            .collect();

        let ignored_facts = relevant::ignored_fact_count(program, database);
        span.arg("atoms", graph.atom_count() as u64);
        span.arg("instances", graph.rule_count() as u64);
        Ok((
            graph,
            SessionGrounder {
                ground_db,
                supportable,
                ignored_facts,
                pos_succ,
                on_pos_cycle,
            },
        ))
    }

    /// Extends `graph` for a batch of inserted facts: computes ΔS and
    /// appends the newly supportable rule instances (and their atoms).
    ///
    /// Precondition (guarded by the session): every constant of every
    /// fact lies in the prepared universe.
    ///
    /// # Errors
    ///
    /// Budget overflows ([`GroundError::TooManyAtoms`] /
    /// [`GroundError::TooManyRuleInstances`] /
    /// [`GroundError::TooManyCandidateInstances`]); the graph may be left
    /// partially extended — callers recover by re-preparing.
    pub fn delta_insert(
        &mut self,
        graph: &mut GroundGraph,
        program: &Program,
        config: &GroundConfig,
        inserted: &[GroundAtom],
    ) -> Result<DeltaGround, GroundError> {
        let _span = tiebreak_trace::span(
            "ground",
            "delta_insert",
            &[("inserted", inserted.len() as u64)],
        );
        let mut out = DeltaGround {
            first_new_atom: graph.atom_count(),
            first_new_rule: graph.rule_count(),
            ..DeltaGround::default()
        };
        let overflow = atom_overflow(config);

        // Δ facts are always represented in the atom table, and Δ̂ gains
        // the batch; facts already supportable (present at some earlier
        // epoch) contribute nothing new.
        let mut seeds: Vec<GroundAtom> = Vec::new();
        for fact in inserted {
            if program.arity(fact.pred).is_none() {
                continue;
            }
            graph
                .intern_atom(fact, config.max_atoms)
                .map_err(&overflow)?;
            if !self.ground_db.contains(fact) {
                self.ground_db
                    .insert(fact.clone())
                    .map_err(GroundError::Validation)?;
                if !self.supportable.contains(fact) {
                    seeds.push(fact.clone());
                }
            }
        }

        if seeds.is_empty() {
            out.new_atoms = graph.atom_count() - out.first_new_atom;
            return Ok(out);
        }
        // Copied out because emission below grows the graph it lives in.
        let universe: Vec<ConstSym> = graph.atoms().universe().to_vec();
        let budget = SupportBudget::new(config, self.ignored_facts);
        let affected = self.affected_preds(program, &seeds);
        let cyclic = affected.iter().any(|&p| self.on_pos_cycle[p as usize]);
        let mut delta_s: Vec<GroundAtom> = if cyclic {
            out.scoped_refresh = true;
            self.scoped_refresh(program, &budget, &affected, &universe)?
        } else {
            let envelopes: Vec<RuleEvaluator<'_>> = program
                .rules()
                .iter()
                .map(RuleEvaluator::envelope)
                .collect();
            run_seeded(
                &envelopes,
                &mut self.supportable,
                seeds,
                &universe,
                budget.fact_cap,
            )
            .map_err(|count| budget.too_many(count))?
        };
        delta_s.sort_unstable(); // deterministic emission → deterministic ids
        out.delta_supportable = delta_s.len();
        if delta_s.is_empty() {
            out.new_atoms = graph.atom_count() - out.first_new_atom;
            return Ok(out);
        }
        let delta_db: Database = delta_s.iter().cloned().collect();

        // Instance delta: one semi-naive join per positive occurrence
        // whose predicate gained supportable atoms; substitutions
        // deduplicated across occurrences.
        let mut args: Vec<ConstSym> = Vec::new();
        let mut body: Vec<(AtomId, Sign)> = Vec::new();
        for (rule_index, rule) in program.rules().iter().enumerate() {
            let ev = RuleEvaluator::new(rule);
            if ev.positive_len() == 0 {
                continue; // no positive body: all instances emitted at build
            }
            let mut seen: FxHashSet<Tuple> = FxHashSet::default();
            for occ in 0..ev.positive_len() {
                if delta_db.relation(ev.positive_pred(occ)).is_none() {
                    continue;
                }
                ev.for_each_substitution_delta::<GroundError>(
                    &self.supportable,
                    &delta_db,
                    occ,
                    &universe,
                    &mut |assignment| {
                        if !seen.insert(Tuple::new(assignment)) {
                            return Ok(());
                        }
                        let required = graph.rule_count() as u64 + 1;
                        if required > config.max_rule_instances {
                            return Err(GroundError::TooManyRuleInstances {
                                required,
                                budget: config.max_rule_instances,
                            });
                        }
                        ev.ground_args(&rule.head, assignment, &mut args);
                        let head = graph
                            .intern_tuple(rule.head.pred, &args, config.max_atoms)
                            .map_err(&overflow)?;
                        body.clear();
                        for lit in &rule.body {
                            ev.ground_args(&lit.atom, assignment, &mut args);
                            let atom = graph
                                .intern_tuple(lit.atom.pred, &args, config.max_atoms)
                                .map_err(&overflow)?;
                            body.push((atom, lit.sign));
                        }
                        graph.push_rule(GroundRule {
                            head,
                            body: &body,
                            rule_index: rule_index as u32,
                            subst: assignment,
                        });
                        out.new_rules += 1;
                        Ok(())
                    },
                )?;
            }
        }
        out.new_atoms = graph.atom_count() - out.first_new_atom;
        Ok(out)
    }

    /// Predicates positively reachable from the seeds' predicates
    /// (inclusive): the only predicates whose supportable relations can
    /// grow.
    fn affected_preds(&self, program: &Program, seeds: &[GroundAtom]) -> Vec<u32> {
        let mut in_set = vec![false; self.pos_succ.slot_count()];
        let mut stack: Vec<u32> = Vec::new();
        for fact in seeds {
            let p = program
                .pred_info(fact.pred)
                .expect("a program predicate")
                .index;
            if !in_set[p as usize] {
                in_set[p as usize] = true;
                stack.push(p);
            }
        }
        let mut affected = Vec::new();
        while let Some(p) = stack.pop() {
            affected.push(p);
            for &q in self.pos_succ.get(p) {
                if !in_set[q as usize] {
                    in_set[q as usize] = true;
                    stack.push(q);
                }
            }
        }
        affected
    }

    /// The cyclic-case refresh: the relevant grounder's candidate and
    /// support-counting passes scoped to the rules whose head predicate
    /// is affected, every other relation frozen. Replaces the affected
    /// slice of `supportable` and returns ΔS.
    fn scoped_refresh(
        &mut self,
        program: &Program,
        budget: &SupportBudget,
        affected: &[u32],
        universe: &[ConstSym],
    ) -> Result<Vec<GroundAtom>, GroundError> {
        let preds = program.predicates();
        let mut is_affected = vec![false; preds.len()];
        for &p in affected {
            is_affected[p as usize] = true;
        }
        let affected_pred = |p: PredSym| -> bool {
            program
                .pred_info(p)
                .is_some_and(|info| is_affected[info.index as usize])
        };
        let scope: Vec<usize> = (0..program.len())
            .filter(|&r| is_affected[program.pred_ids(r)[0] as usize])
            .collect();

        // Frozen context + Δ̂∩affected never retire; the old affected
        // slice is kept aside for the ΔS diff.
        let mut old_affected = Database::new();
        let mut base = Database::new();
        for fact in self.supportable.facts() {
            if affected_pred(fact.pred) {
                old_affected.insert(fact).map_err(GroundError::Validation)?;
            } else {
                base.insert(fact).map_err(GroundError::Validation)?;
            }
        }
        for fact in self.ground_db.facts() {
            if affected_pred(fact.pred) {
                base.insert(fact).map_err(GroundError::Validation)?;
            }
        }

        let current =
            support_counted_gfp(program, &scope, &self.ground_db, base, universe, budget)?.db;

        let delta: Vec<GroundAtom> = current
            .facts()
            .filter(|f| affected_pred(f.pred) && !old_affected.contains(f))
            .collect();
        self.supportable = current;
        Ok(delta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ground, GroundMode};
    use datalog_ast::{parse_database, parse_program};

    /// Delta-extended graphs must contain every instance the fresh
    /// relevant grounder emits for the final database (possibly more —
    /// stale ones — which close deletes).
    fn assert_covers_fresh(graph: &GroundGraph, program: &Program, db: &Database) {
        let fresh = ground(program, db, GroundMode::Relevant, &GroundConfig::default())
            .expect("fresh grounds");
        for rule in fresh.rules() {
            let head = fresh.atoms().decode(rule.head);
            let gh = graph.atoms().id_of(&head).expect("head atom present");
            let found = graph.rules().any(|r| {
                r.rule_index == rule.rule_index
                    && r.head == gh
                    && r.body.len() == rule.body.len()
                    && r.body
                        .iter()
                        .zip(rule.body.iter())
                        .all(|(&(a, s), &(b, t))| {
                            s == t && graph.atoms().decode(a) == fresh.atoms().decode(b)
                        })
            });
            assert!(found, "missing instance for head {head}");
        }
    }

    use datalog_ast::Program;

    #[test]
    fn build_rejects_conflicting_arities() {
        // q/1 in the program, q/2 in the database: an error, not a
        // candidate pass over a relation of the wrong width.
        let program = parse_program("p(X) :- e(X), not q(X).\nq(X) :- e(X), not p(X).").unwrap();
        let db = parse_database("e(a).\nq(a, b).").unwrap();
        let err = SessionGrounder::build(&program, &db, &GroundConfig::default())
            .err()
            .expect("conflicting arity");
        assert!(matches!(err, GroundError::Validation(_)), "{err:?}");
    }

    #[test]
    fn seeded_insert_grows_the_graph_like_fresh_grounding() {
        let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let db0 = parse_database("move(a, b).\nmove(b, c).\nmove(c, a).").unwrap();
        let (mut graph, mut sg) =
            SessionGrounder::build(&program, &db0, &GroundConfig::default()).expect("builds");
        let rules0 = graph.rule_count();

        // Insert a move within the existing universe.
        let fact = GroundAtom::from_texts("move", &["c", "b"]);
        let mut db1 = db0.clone();
        db1.insert(fact.clone()).unwrap();
        let d = sg
            .delta_insert(&mut graph, &program, &GroundConfig::default(), &[fact])
            .expect("delta grounds");
        assert!(!d.scoped_refresh, "win–move has no positive cycle");
        assert_eq!(d.new_rules, 1, "one new supportable instance");
        assert_eq!(graph.rule_count(), rules0 + 1);
        assert_covers_fresh(&graph, &program, &db1);
    }

    #[test]
    fn cyclic_insert_resurrects_guarded_positive_cycles() {
        // p ← q, e ; q ← p: the cycle is supportable only once e holds —
        // forward derivation alone cannot bootstrap it, the scoped gfp
        // must.
        let program = parse_program("p :- q, e.\nq :- p.").unwrap();
        let db0 = Database::new();
        let (mut graph, mut sg) =
            SessionGrounder::build(&program, &db0, &GroundConfig::default()).expect("builds");
        assert_eq!(graph.rule_count(), 0, "nothing supportable without e");

        let fact = GroundAtom::from_texts("e", &[]);
        let mut db1 = db0.clone();
        db1.insert(fact.clone()).unwrap();
        let d = sg
            .delta_insert(&mut graph, &program, &GroundConfig::default(), &[fact])
            .expect("delta grounds");
        assert!(d.scoped_refresh, "positive cycle affected");
        assert_eq!(d.new_rules, 2, "both cycle instances appear");
        assert_covers_fresh(&graph, &program, &db1);
    }

    #[test]
    fn reinsert_after_retraction_is_free() {
        // Retraction leaves Δ̂ and the graph untouched; re-inserting the
        // same fact therefore grounds nothing new.
        let program = parse_program("win(X) :- move(X, Y), not win(Y).").unwrap();
        let db = parse_database("move(a, b).").unwrap();
        let (mut graph, mut sg) =
            SessionGrounder::build(&program, &db, &GroundConfig::default()).expect("builds");
        let rules0 = graph.rule_count();
        let fact = GroundAtom::from_texts("move", &["a", "b"]);
        let d = sg
            .delta_insert(&mut graph, &program, &GroundConfig::default(), &[fact])
            .expect("delta grounds");
        assert_eq!(d.new_rules, 0);
        assert_eq!(d.delta_supportable, 0);
        assert_eq!(graph.rule_count(), rules0);
    }

    #[test]
    fn transitive_closure_chain_extends_incrementally() {
        // Positive recursion (t on a pred-level cycle): every insert takes
        // the scoped path and must match fresh grounding exactly.
        let program = parse_program("t(X, Y) :- e(X, Y).\nt(X, Z) :- t(X, Y), e(Y, Z).").unwrap();
        let mut db = parse_database("e(a, b).\ne(b, c).\ne(c, d).").unwrap();
        // Build over the 4-constant universe but with one edge missing.
        let missing = GroundAtom::from_texts("e", &["b", "d"]);
        let (mut graph, mut sg) =
            SessionGrounder::build(&program, &db, &GroundConfig::default()).expect("builds");
        db.insert(missing.clone()).unwrap();
        let d = sg
            .delta_insert(&mut graph, &program, &GroundConfig::default(), &[missing])
            .expect("delta grounds");
        assert!(d.scoped_refresh);
        assert!(d.new_rules > 0);
        assert_covers_fresh(&graph, &program, &db);
    }
}
