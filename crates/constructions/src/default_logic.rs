//! Atomic default theories and tie-breaking as extension finding.
//!
//! The paper (§1, §3) notes that *"a version of the tie-breaking
//! semantics was proposed in \[PS\] as an extension-finding mechanism in
//! the context of default logic"*, and cites \[BF1\] for the correspondence
//! between default logic and stable models. This module makes that
//! connection executable for **atomic** default theories (facts and
//! default conclusions are propositional atoms):
//!
//! * a default `(p₁ ∧ … ∧ p_k : ¬j₁, …, ¬j_m / c)` corresponds to the
//!   rule `c ← p₁, …, p_k, not j₁, …, not j_m`;
//! * a set E of atoms is a Reiter **extension** iff E = Γ(E), where Γ(E)
//!   is the deductive closure of the facts W under the defaults whose
//!   justifications are consistent with E — exactly the Gelfond–Lifschitz
//!   construction, so extensions = stable models of the corresponding
//!   program with Δ = W;
//! * running the well-founded tie-breaking interpreter on that program is
//!   precisely the \[PS\] extension-finding procedure: on *even* theories
//!   (odd-cycle-free dependency graph) it always finds an extension.

use std::collections::BTreeSet;

use datalog_ast::{Atom, Database, GroundAtom, Literal, PredSym, Program, Rule};

/// One atomic default: `(prerequisites : ¬justifications / conclusion)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Default {
    /// Atoms that must already be derived for the default to apply.
    pub prerequisites: Vec<PredSym>,
    /// Atoms whose *absence from the extension* the default assumes
    /// (the justification of `¬j` is consistent iff `j ∉ E`).
    pub justifications_not: Vec<PredSym>,
    /// The concluded atom.
    pub conclusion: PredSym,
}

impl Default {
    /// Builder from names.
    pub fn new(prereqs: &[&str], not: &[&str], conclusion: &str) -> Self {
        Default {
            prerequisites: prereqs.iter().map(|p| PredSym::new(p)).collect(),
            justifications_not: not.iter().map(|p| PredSym::new(p)).collect(),
            conclusion: PredSym::new(conclusion),
        }
    }
}

/// An atomic default theory (W, D).
#[derive(Clone, Debug, Default)]
pub struct DefaultTheory {
    /// The facts W.
    pub facts: Vec<PredSym>,
    /// The defaults D.
    pub defaults: Vec<Default>,
}

impl DefaultTheory {
    /// Adds a fact.
    #[must_use]
    pub fn fact(mut self, name: &str) -> Self {
        self.facts.push(PredSym::new(name));
        self
    }

    /// Adds a default.
    #[must_use]
    pub fn default_rule(mut self, d: Default) -> Self {
        self.defaults.push(d);
        self
    }

    /// The corresponding logic program and database: one rule per
    /// default, Δ = W.
    pub fn to_program(&self) -> (Program, Database) {
        let rules: Vec<Rule> = self
            .defaults
            .iter()
            .map(|d| {
                let body = d
                    .prerequisites
                    .iter()
                    .map(|&p| Literal::pos(Atom::new(p, std::iter::empty())))
                    .chain(
                        d.justifications_not
                            .iter()
                            .map(|&j| Literal::neg(Atom::new(j, std::iter::empty()))),
                    )
                    .collect::<Vec<_>>();
                Rule::new(Atom::new(d.conclusion, std::iter::empty()), body)
            })
            .collect();
        let program = Program::new(rules).expect("propositional rules are consistent");
        let mut db = Database::new();
        for &f in &self.facts {
            db.insert(GroundAtom {
                pred: f,
                args: Box::new([]),
            })
            .expect("nullary facts");
        }
        (program, db)
    }

    /// Reiter's Γ operator for atomic theories: the closure of W under
    /// the defaults whose justifications are consistent with `candidate`
    /// and whose prerequisites are (recursively) derived.
    pub fn gamma(&self, candidate: &BTreeSet<PredSym>) -> BTreeSet<PredSym> {
        let mut derived: BTreeSet<PredSym> = self.facts.iter().copied().collect();
        loop {
            let mut changed = false;
            for d in &self.defaults {
                if derived.contains(&d.conclusion) {
                    continue;
                }
                let prereqs_ok = d.prerequisites.iter().all(|p| derived.contains(p));
                let justs_ok = d.justifications_not.iter().all(|j| !candidate.contains(j));
                if prereqs_ok && justs_ok {
                    derived.insert(d.conclusion);
                    changed = true;
                }
            }
            if !changed {
                return derived;
            }
        }
    }

    /// `true` iff `candidate` is an extension: Γ(E) = E.
    pub fn is_extension(&self, candidate: &BTreeSet<PredSym>) -> bool {
        self.gamma(candidate) == *candidate
    }

    /// All extensions, by brute force over the atoms mentioned by the
    /// theory (exponential; for validation on small theories).
    ///
    /// # Panics
    ///
    /// If the theory mentions more than 20 distinct atoms.
    pub fn extensions(&self) -> Vec<BTreeSet<PredSym>> {
        let mut atoms: Vec<PredSym> = Vec::new();
        let mut seen = BTreeSet::new();
        let mut note = |p: PredSym| {
            if seen.insert(p) {
                atoms.push(p);
            }
        };
        for &f in &self.facts {
            note(f);
        }
        for d in &self.defaults {
            for &p in &d.prerequisites {
                note(p);
            }
            for &j in &d.justifications_not {
                note(j);
            }
            note(d.conclusion);
        }
        assert!(atoms.len() <= 20, "brute-force extension search capped");
        let mut out = Vec::new();
        for mask in 0u32..(1 << atoms.len()) {
            let candidate: BTreeSet<PredSym> = atoms
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &p)| p)
                .collect();
            if self.is_extension(&candidate) {
                out.push(candidate);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ground::{ground, GroundConfig, GroundMode, TruthValue};
    use tiebreak_core::analysis::structural_totality;
    use tiebreak_core::semantics::enumerate::{enumerate_stable, EnumerateConfig};
    use tiebreak_core::semantics::tie_breaking::{well_founded_tie_breaking, RootTruePolicy};

    /// Extensions of the theory = stable models of the program (BF1/GL).
    fn cross_check(theory: &DefaultTheory) {
        let (program, db) = theory.to_program();
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
        let stables = enumerate_stable(
            &graph,
            &program,
            &db,
            &EnumerateConfig {
                limit: 0,
                max_branch_atoms: 20,
            },
        )
        .unwrap();
        let stable_sets: Vec<BTreeSet<PredSym>> = stables
            .iter()
            .map(|m| {
                m.true_atoms(graph.atoms())
                    .into_iter()
                    .map(|a| a.pred)
                    .collect()
            })
            .collect();
        let mut extensions = theory.extensions();
        extensions.sort();
        let mut stable_sorted = stable_sets;
        stable_sorted.sort();
        assert_eq!(extensions, stable_sorted);
    }

    #[test]
    fn two_competing_defaults_two_extensions() {
        // ( : ¬b / a) and ( : ¬a / b): extensions {a} and {b}.
        let theory = DefaultTheory::default()
            .default_rule(Default::new(&[], &["b"], "a"))
            .default_rule(Default::new(&[], &["a"], "b"));
        let exts = theory.extensions();
        assert_eq!(exts.len(), 2);
        cross_check(&theory);
    }

    #[test]
    fn self_defeating_default_has_no_extension() {
        // ( : ¬a / a) — the default-logic odd loop.
        let theory = DefaultTheory::default().default_rule(Default::new(&[], &["a"], "a"));
        assert!(theory.extensions().is_empty());
        cross_check(&theory);
    }

    #[test]
    fn prerequisites_gate_application() {
        // W = {q}; (q : ¬r / s); (p : ¬r / t) — only the first applies.
        let theory = DefaultTheory::default()
            .fact("q")
            .default_rule(Default::new(&["q"], &["r"], "s"))
            .default_rule(Default::new(&["p"], &["r"], "t"));
        let exts = theory.extensions();
        assert_eq!(exts.len(), 1);
        let e = &exts[0];
        assert!(e.contains(&PredSym::new("q")));
        assert!(e.contains(&PredSym::new("s")));
        assert!(!e.contains(&PredSym::new("t")));
        cross_check(&theory);
    }

    #[test]
    fn tie_breaking_finds_extensions_of_even_theories() {
        // The [PS] mechanism: an even theory (no odd cycle among the
        // default dependencies) — WF-TB always lands on an extension.
        let theory = DefaultTheory::default()
            .fact("w")
            .default_rule(Default::new(&[], &["b"], "a"))
            .default_rule(Default::new(&[], &["a"], "b"))
            .default_rule(Default::new(&["w"], &["a"], "c"));
        let (program, db) = theory.to_program();
        assert!(structural_totality(&program).total, "even theory");
        let graph = ground(&program, &db, GroundMode::Full, &GroundConfig::default()).unwrap();
        let mut policy = RootTruePolicy;
        let run = well_founded_tie_breaking(&graph, &program, &db, &mut policy).unwrap();
        assert!(run.total);
        let e: BTreeSet<PredSym> = graph
            .atoms()
            .ids()
            .filter(|&id| run.model.get(id) == TruthValue::True)
            .map(|id| graph.atoms().pred_of(id))
            .collect();
        assert!(theory.is_extension(&e), "WF-TB output is an extension");
    }

    #[test]
    fn gamma_is_monotone_in_derivation_but_antitone_in_candidate() {
        let theory = DefaultTheory::default()
            .fact("w")
            .default_rule(Default::new(&["w"], &["x"], "y"));
        let empty = BTreeSet::new();
        let with_x: BTreeSet<PredSym> = [PredSym::new("x")].into_iter().collect();
        let g_empty = theory.gamma(&empty);
        let g_with_x = theory.gamma(&with_x);
        assert!(g_empty.contains(&PredSym::new("y")));
        assert!(!g_with_x.contains(&PredSym::new("y")));
        assert!(g_with_x.is_subset(&g_empty));
    }
}
