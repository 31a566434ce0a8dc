//! Pre-grounding static analysis for tie-breaking Datalog¬ programs.
//!
//! Everything here runs over the predicate-level program — before any
//! grounding is paid for — and produces an [`AnalysisReport`]:
//!
//! * **Safety / range-restriction lints** — head variables not bound by
//!   any positive body literal and variables occurring only under
//!   negation, each with a source span when the program was parsed.
//!   These are warnings, not errors: the grounder handles them by
//!   instantiating over the universe, which is exactly what the paper's
//!   full grounding semantics prescribes — but it is rarely cheap and
//!   rarely intended.
//! * **Totality certificates** — the signed predicate dependency graph
//!   is checked for stratification and for odd negative cycles
//!   (Theorem 2). A stratified program earns a
//!   [`CertificateGrade::Stratified`] certificate (unique total
//!   well-founded model, no ties); an odd-cycle-free program earns
//!   [`CertificateGrade::CallConsistent`] (every tie-breaking run is
//!   total). A program with an odd negative cycle gets a witness cycle
//!   instead.
//! * **Nonuniform totality** (Theorem 3) — the same odd-cycle test on
//!   the reduced program Π′ without useless predicates, reported as
//!   [`AnalysisReport::nonuniformly_total`]. It is a verdict, not a
//!   certificate grade: it holds only for databases whose IDB relations
//!   start empty. The useless predicates themselves are one
//!   [`Severity::Info`] lint, listed in name order.
//! * **Grounding cost estimates** — exact instance counts for full
//!   grounding, a sound upper bound for relevant grounding, checked
//!   against the configured atom/instance budgets so `two_counter`-style
//!   blowups are predicted instead of hit.
//! * **Reachability lints** — dead rules, unreachable predicates, and
//!   unused database relations, from a populated-predicate fixpoint.
//!
//! Local stratification is not here: it is a property of the ground
//! graph, and this pass runs before grounding. The exhaustive totality
//! sweep (`tiebreak_core::analysis::propositional_totality`) is not
//! here either: it is exponential, and the server's strict mode runs
//! this pass on every open.
//!
//! The severity policy is deliberate: [`Severity::Error`] is reserved
//! for findings that make evaluation *certain* to fail (an exact
//! full-mode cost over budget); everything heuristic stays at
//! [`Severity::Warn`] or [`Severity::Info`], so admission control
//! (`datalog check` exit codes, the server's strict mode) never rejects
//! a program that could have run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod certificate;
pub mod cost;
pub mod lint;
pub mod reachability;
pub mod report;

use datalog_ast::{Database, FxHashSet, Program, Sign, VarSym};
use datalog_ground::{GroundConfig, GroundMode};
use tiebreak_core::analysis::{reduce_program, stratify, structural_totality, useless_predicates};

pub use certificate::{CertificateGrade, TotalityCertificate};
pub use cost::{estimate, CostEstimate};
pub use lint::{Lint, LintCode, Severity};
pub use report::AnalysisReport;

/// Configuration for the analysis pass.
#[derive(Clone, Debug, Default)]
pub struct AnalyzeConfig {
    /// The grounding the cost estimate models.
    pub mode: GroundMode,
    /// Grounding budgets the cost estimate is checked against.
    pub ground: GroundConfig,
}

impl AnalyzeConfig {
    /// Analysis of a `mode` grounding against `ground`'s budgets.
    pub fn for_ground(mode: GroundMode, ground: GroundConfig) -> Self {
        Self { mode, ground }
    }
}

/// Runs the full analysis pass.
///
/// `database` is optional: without one, the database-dependent parts
/// (cost estimate, reachability lints) are skipped and the report's
/// `cost` is `None`.
pub fn analyze(
    program: &Program,
    database: Option<&Database>,
    config: &AnalyzeConfig,
) -> AnalysisReport {
    let _span = tiebreak_trace::span(
        "analyze",
        "analyze",
        &[("rules", program.rules().len() as u64)],
    );
    let mut lints = Vec::new();

    safety_lints(program, &mut lints);
    duplicate_lints(program, &mut lints);

    let strat = stratify(program);
    let (certificate, odd_cycle) = if strat.stratified {
        (
            Some(TotalityCertificate {
                grade: CertificateGrade::Stratified,
                strata: Some(strat.stratum_count),
            }),
            None,
        )
    } else {
        let st = structural_totality(program);
        if st.total {
            (
                Some(TotalityCertificate {
                    grade: CertificateGrade::CallConsistent,
                    strata: None,
                }),
                None,
            )
        } else {
            let witness = st.witness;
            if let Some(cycle) = &witness {
                lints.push(Lint {
                    code: LintCode::OddNegativeCycle,
                    severity: Severity::Warn,
                    message: format!(
                        "odd negative cycle {cycle}: no structural-totality \
                         certificate; some runs may end with a partial model"
                    ),
                    rule: None,
                    pos: None,
                });
            }
            (None, witness)
        }
    };

    let nonuniformly_total = nonuniform_totality(program, certificate.is_some(), &mut lints);

    let cost = database.map(|db| cost::estimate(program, db, config.mode, &config.ground));
    if let Some(c) = &cost {
        if c.over_budget() {
            lints.push(Lint {
                code: LintCode::GroundCost,
                severity: if c.exact {
                    Severity::Error
                } else {
                    Severity::Warn
                },
                message: format!(
                    "{} grounding needs {} atoms and {} rule instances \
                     ({}exceeds budget of {} atoms / {} instances)",
                    c.mode,
                    c.atoms,
                    c.instances,
                    if c.exact { "" } else { "upper bound " },
                    c.max_atoms,
                    c.max_rule_instances
                ),
                rule: None,
                pos: None,
            });
        }
    }

    if let Some(db) = database {
        reachability::lints(program, db, &mut lints);
    }

    AnalysisReport {
        lints,
        certificate,
        odd_cycle,
        stratified: strat.stratified,
        nonuniformly_total,
        cost,
    }
}

/// Theorem 3: structural nonuniform totality, the odd-cycle test on the
/// reduced program Π′. Pushes one info lint naming the useless
/// predicates, sorted by name text, when there are any. Π′ is built
/// only when it can differ in verdict: without useless predicates it is
/// Π, and a Theorem 2 certificate already covers its subgraph *G(Π′)*.
fn nonuniform_totality(program: &Program, certified: bool, out: &mut Vec<Lint>) -> bool {
    let useless = useless_predicates(program);
    if useless.useless.is_empty() {
        return certified;
    }
    let mut names: Vec<&str> = useless.useless.iter().map(|p| p.as_str()).collect();
    names.sort_unstable();
    out.push(Lint {
        code: LintCode::UselessPredicate,
        severity: Severity::Info,
        message: format!(
            "useless predicate{} {}: never derivable while IDB relations start \
             empty; Theorem 3 drops them",
            if names.len() == 1 { "" } else { "s" },
            names.join(", ")
        ),
        rule: None,
        pos: None,
    });
    certified || structural_totality(&reduce_program(program, &useless)).total
}

/// Range-restriction lints: unbound head variables and negation-only
/// variables, per rule.
fn safety_lints(program: &Program, out: &mut Vec<Lint>) {
    for (i, rule) in program.rules().iter().enumerate() {
        let positive: FxHashSet<VarSym> = rule
            .body_with_sign(Sign::Pos)
            .flat_map(|l| l.atom.variables())
            .collect();

        let unbound = distinct(rule.head.variables().filter(|v| !positive.contains(v)));
        if !unbound.is_empty() {
            out.push(Lint {
                code: LintCode::UnboundHeadVariable,
                severity: Severity::Warn,
                message: format!(
                    "rule {i}: head variable{} {} not bound by any positive \
                     body literal; grounding ranges over the whole universe",
                    if unbound.len() == 1 { "" } else { "s" },
                    join_vars(&unbound)
                ),
                rule: Some(i),
                pos: program.span(i).map(|s| s.rule),
            });
        }

        for (li, lit) in rule.body.iter().enumerate() {
            if lit.sign != Sign::Neg {
                continue;
            }
            let neg_only = distinct(lit.atom.variables().filter(|v| !positive.contains(v)));
            if !neg_only.is_empty() {
                out.push(Lint {
                    code: LintCode::NegationOnlyVariable,
                    severity: Severity::Warn,
                    message: format!(
                        "rule {i}: variable{} {} occur{} only under negation",
                        if neg_only.len() == 1 { "" } else { "s" },
                        join_vars(&neg_only),
                        if neg_only.len() == 1 { "s" } else { "" }
                    ),
                    rule: Some(i),
                    pos: program.span(i).map(|s| s.literals[li]),
                });
            }
        }
    }
}

/// Lints for rules dropped as syntactic duplicates at construction.
fn duplicate_lints(program: &Program, out: &mut Vec<Lint>) {
    for dup in program.duplicate_rules() {
        out.push(Lint {
            code: LintCode::DuplicateRule,
            severity: Severity::Warn,
            message: format!(
                "syntactically identical duplicate of rule {} was dropped",
                dup.kept
            ),
            rule: Some(dup.kept),
            pos: dup.pos,
        });
    }
}

/// First-occurrence dedup (atom iterators repeat shared variables).
fn distinct(vars: impl Iterator<Item = VarSym>) -> Vec<VarSym> {
    let mut seen = FxHashSet::default();
    vars.filter(|&v| seen.insert(v)).collect()
}

fn join_vars(vars: &[VarSym]) -> String {
    vars.iter()
        .map(|v| v.as_str())
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use datalog_ast::{parse_database, parse_program, PredSym};

    fn cfg(mode: GroundMode) -> AnalyzeConfig {
        AnalyzeConfig::for_ground(mode, GroundConfig::default())
    }

    fn codes(report: &AnalysisReport) -> Vec<LintCode> {
        report.lints.iter().map(|l| l.code).collect()
    }

    #[test]
    fn stratified_program_earns_the_strong_certificate() {
        let p =
            parse_program("reach(X) :- edge(X).\nblocked(X) :- node(X), not reach(X).").unwrap();
        let d = parse_database("edge(a).\nnode(a).\nnode(b).").unwrap();
        let r = analyze(&p, Some(&d), &cfg(GroundMode::Relevant));
        assert!(r.stratified);
        let cert = r.certificate.expect("certificate");
        assert_eq!(cert.grade, CertificateGrade::Stratified);
        assert!(r.nonuniformly_total);
        assert!(r.lints.is_empty(), "{:?}", r.lints);
        assert!(!r.has_errors());
    }

    #[test]
    fn even_cycle_earns_call_consistency_only() {
        // p ← ¬q ; q ← ¬p: even negative cycle — call-consistent, not
        // stratified.
        let p = parse_program("p(X) :- d(X), not q(X).\nq(X) :- d(X), not p(X).").unwrap();
        let r = analyze(&p, None, &AnalyzeConfig::default());
        assert!(!r.stratified);
        let cert = r.certificate.expect("certificate");
        assert_eq!(cert.grade, CertificateGrade::CallConsistent);
        assert!(r.odd_cycle.is_none());
    }

    #[test]
    fn odd_cycle_yields_witness_and_no_certificate() {
        let p = parse_program("w(X) :- d(X), not w(X).").unwrap();
        let r = analyze(&p, None, &AnalyzeConfig::default());
        assert!(r.certificate.is_none());
        assert!(r.odd_cycle.is_some());
        assert!(codes(&r).contains(&LintCode::OddNegativeCycle));
        // `w` is useful, so Π′ keeps the cycle: no Theorem 3 either.
        assert!(!r.nonuniformly_total);
        assert!(!codes(&r).contains(&LintCode::UselessPredicate));
        // Structural, not fatal: the finding stays a warning.
        assert!(!r.has_errors());
    }

    #[test]
    fn odd_cycle_through_a_useless_predicate_is_nonuniformly_total() {
        // `u` has no base case, so it stays empty whenever IDB relations
        // start empty: Π′ drops the rule with `u` and strips `not u`,
        // which removes the odd cycle u -¬-> u. Theorem 3 holds, Theorem
        // 2 does not, and no certificate (which is for every database)
        // may be issued.
        let p = parse_program("u(X) :- u(X), not u(X).\nw(X) :- d(X), not u(X).").unwrap();
        let r = analyze(&p, None, &AnalyzeConfig::default());
        assert!(r.nonuniformly_total);
        assert!(r.certificate.is_none());
        assert!(r.odd_cycle.is_some());
        let useless = r
            .lints
            .iter()
            .find(|l| l.code == LintCode::UselessPredicate)
            .expect("useless-predicate lint");
        assert_eq!(useless.severity, Severity::Info);
        assert!(
            useless.message.contains("predicate u:"),
            "{}",
            useless.message
        );
        assert!(!r.has_errors());
        assert_eq!(
            r.to_string()
                .lines()
                .find(|l| l.starts_with("nonuniform totality"))
                .expect("Theorem 3 line"),
            "nonuniform totality (Theorem 3, IDB relations start empty): yes"
        );
    }

    #[test]
    fn useless_predicates_are_listed_in_name_order() {
        // Interned in reverse text order before parsing: the hash set's
        // iteration order and the interner ids must both stay out of
        // the message.
        let names = ["zz_useless", "mm_useless", "aa_useless"];
        for name in names {
            PredSym::new(name);
        }
        assert!(PredSym::new("zz_useless") < PredSym::new("aa_useless"));
        let src: String = names
            .iter()
            .map(|n| format!("{n}(X) :- {n}(X), d(X).\n"))
            .collect();
        let p = parse_program(&src).unwrap();
        let r = analyze(&p, None, &AnalyzeConfig::default());
        let lint = r
            .lints
            .iter()
            .find(|l| l.code == LintCode::UselessPredicate)
            .expect("useless-predicate lint");
        assert!(
            lint.message
                .starts_with("useless predicates aa_useless, mm_useless, zz_useless:"),
            "{}",
            lint.message
        );
    }

    #[test]
    fn safety_lints_carry_parsed_positions() {
        let p = parse_program("p(X, Y) :- q(X).\nr(X) :- q(X), not s(X, Z).").unwrap();
        let r = analyze(&p, None, &AnalyzeConfig::default());
        let unbound = r
            .lints
            .iter()
            .find(|l| l.code == LintCode::UnboundHeadVariable)
            .expect("unbound head lint");
        assert_eq!(unbound.rule, Some(0));
        assert_eq!(unbound.pos.map(|p| p.line), Some(1));
        assert!(unbound.message.contains('Y'));
        let neg = r
            .lints
            .iter()
            .find(|l| l.code == LintCode::NegationOnlyVariable)
            .expect("negation-only lint");
        assert_eq!(neg.rule, Some(1));
        assert_eq!(neg.pos.map(|p| p.line), Some(2));
        assert!(neg.message.contains('Z'));
    }

    #[test]
    fn duplicate_rules_are_linted_with_the_dropped_span() {
        let p = parse_program("p :- q.\nq.\np :- q.").unwrap();
        let r = analyze(&p, None, &AnalyzeConfig::default());
        let dup = r
            .lints
            .iter()
            .find(|l| l.code == LintCode::DuplicateRule)
            .expect("duplicate lint");
        assert_eq!(dup.rule, Some(0));
        assert_eq!(dup.pos.map(|p| p.line), Some(3));
    }

    #[test]
    fn full_mode_blowup_is_an_error_relevant_mode_is_not() {
        // A 7-step chained join over a path of 8 edges: full mode pays
        // 9^8 ≈ 43M instances (an exact count → error), while the
        // relevant bound follows the data (8^7 ≈ 2.1M) and stays clean.
        let p = parse_program(
            "big(A, H) :- e(A, B), e(B, C), e(C, D), e(D, E), e(E, F), \
             e(F, G), e(G, H).",
        )
        .unwrap();
        let mut src = String::new();
        for i in 0..8 {
            src.push_str(&format!("e(c{}, c{}).\n", i, i + 1));
        }
        let d = parse_database(&src).unwrap();

        let full = analyze(&p, Some(&d), &cfg(GroundMode::Full));
        assert!(full.has_errors());
        let lint = full
            .lints
            .iter()
            .find(|l| l.code == LintCode::GroundCost)
            .expect("cost lint");
        assert_eq!(lint.severity, Severity::Error);
        assert!(lint.message.contains("full grounding"));

        let rel = analyze(&p, Some(&d), &cfg(GroundMode::Relevant));
        assert!(!rel.has_errors());
        assert!(!codes(&rel).contains(&LintCode::GroundCost));
    }

    #[test]
    fn relevant_mode_over_budget_stays_a_warning() {
        // An unsafe rule over a big universe: even the relevant bound
        // blows past a tiny budget, but the bound is not exact, so the
        // severity must stay warn (the grounder might still fit).
        let p = parse_program("p(X, Y, Z) :- not q(X, Y, Z).").unwrap();
        let mut src = String::new();
        for i in 0..64 {
            src.push_str(&format!("u(c{i}).\n"));
        }
        let d = parse_database(&src).unwrap();
        let config = AnalyzeConfig::for_ground(
            GroundMode::Relevant,
            GroundConfig {
                max_atoms: 1000,
                max_rule_instances: 1000,
            },
        );
        let r = analyze(&p, Some(&d), &config);
        let lint = r
            .lints
            .iter()
            .find(|l| l.code == LintCode::GroundCost)
            .expect("cost lint");
        assert_eq!(lint.severity, Severity::Warn);
        assert!(!r.has_errors());
    }

    #[test]
    fn report_json_round_trips_the_interesting_fields() {
        let p = parse_program("p(X) :- d(X), not q(X).\nq(X) :- d(X), not p(X).").unwrap();
        let d = parse_database("d(a).\nd(b).").unwrap();
        let r = analyze(&p, Some(&d), &cfg(GroundMode::Relevant));
        let j = r.to_json();
        assert!(j.contains("\"grade\": \"call-consistent\""));
        assert!(j.contains("\"nonuniformly_total\": true"));
        assert!(j.contains("\"mode\": \"relevant\""));
        assert!(j.contains("\"over_budget\": false"));
    }

    #[test]
    fn analysis_without_database_skips_cost_and_reachability() {
        let p = parse_program("ghost(X) :- phantom(X).").unwrap();
        let r = analyze(&p, None, &AnalyzeConfig::default());
        assert!(r.cost.is_none());
        // No database: no dead-rule/unreachable claims can be made.
        assert!(!codes(&r).contains(&LintCode::DeadRule));
        assert!(!codes(&r).contains(&LintCode::UnreachablePredicate));
    }
}
