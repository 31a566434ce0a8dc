//! Lints: typed diagnostics with severities and source positions.

use std::fmt;

use datalog_ast::Pos;

/// How serious a lint is.
///
/// Only [`Severity::Error`] affects exit codes and admission decisions:
/// an error is reserved for conditions under which evaluation *will*
/// fail (today: an exact full-mode grounding count over budget). Every
/// heuristic or stylistic finding is [`Severity::Warn`] or below.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational: nothing wrong, possibly worth knowing.
    Info,
    /// Suspicious: evaluation proceeds, results may surprise.
    Warn,
    /// Certain failure: evaluation is rejected up front.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        })
    }
}

/// The catalog of lint codes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LintCode {
    /// A head variable not bound by any positive body literal: the rule
    /// is not range-restricted, so the grounder falls back to
    /// instantiating the variable over the whole universe.
    UnboundHeadVariable,
    /// A variable occurring only under negation: same universe fallback,
    /// and the rule's meaning is rarely what was intended.
    NegationOnlyVariable,
    /// The predicate dependency graph has a cycle with an odd number of
    /// negative edges: the paper's structural-totality condition fails,
    /// and some alphabetic variant of the program has no fixpoint
    /// (Theorem 2).
    OddNegativeCycle,
    /// IDB predicates that no rule can derive while IDB relations start
    /// empty (no positive-recursion-free expansion): Theorem 3 drops
    /// them to form the reduced program Π′.
    UselessPredicate,
    /// The grounding cost estimate exceeds the configured budget.
    GroundCost,
    /// A syntactically identical duplicate rule was dropped at program
    /// construction.
    DuplicateRule,
    /// A rule whose positive body mentions a predicate that can never
    /// hold a fact: the rule can never fire.
    DeadRule,
    /// An IDB predicate that can never hold a fact for this database.
    UnreachablePredicate,
    /// A database relation not referenced by the program.
    UnusedEdb,
}

impl LintCode {
    /// The stable kebab-case name (CLI output, JSON, CI greps).
    pub fn as_str(self) -> &'static str {
        match self {
            LintCode::UnboundHeadVariable => "unbound-head-variable",
            LintCode::NegationOnlyVariable => "negation-only-variable",
            LintCode::OddNegativeCycle => "odd-negative-cycle",
            LintCode::UselessPredicate => "useless-predicate",
            LintCode::GroundCost => "ground-cost",
            LintCode::DuplicateRule => "duplicate-rule",
            LintCode::DeadRule => "dead-rule",
            LintCode::UnreachablePredicate => "unreachable-predicate",
            LintCode::UnusedEdb => "unused-edb",
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic finding.
#[derive(Clone, Debug)]
pub struct Lint {
    /// What kind of finding.
    pub code: LintCode,
    /// How serious.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Index of the rule concerned, when rule-specific.
    pub rule: Option<usize>,
    /// Source position, when the program was parsed.
    pub pos: Option<Pos>,
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(pos) = self.pos {
            write!(f, " at {pos}")?;
        }
        write!(f, ": {}", self.message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_and_displays() {
        assert!(Severity::Info < Severity::Warn);
        assert!(Severity::Warn < Severity::Error);
        assert_eq!(Severity::Warn.to_string(), "warn");
    }

    #[test]
    fn lint_display_with_and_without_position() {
        let mut lint = Lint {
            code: LintCode::DuplicateRule,
            severity: Severity::Warn,
            message: "rule duplicates rule 0".to_owned(),
            rule: Some(2),
            pos: Some(Pos { line: 3, col: 1 }),
        };
        assert_eq!(
            lint.to_string(),
            "warn[duplicate-rule] at 3:1: rule duplicates rule 0"
        );
        lint.pos = None;
        assert_eq!(
            lint.to_string(),
            "warn[duplicate-rule]: rule duplicates rule 0"
        );
    }
}
