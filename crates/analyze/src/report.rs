//! The analysis report: everything the pass found, in one value.

use std::fmt;

use tiebreak_core::analysis::PredCycle;

use crate::certificate::TotalityCertificate;
use crate::cost::CostEstimate;
use crate::lint::{Lint, Severity};

/// The result of running [`analyze`](crate::analyze) on a program.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// All findings, in catalog order (safety, duplicates, totality,
    /// useless predicates, cost, reachability).
    pub lints: Vec<Lint>,
    /// The totality certificate, when one could be issued.
    pub certificate: Option<TotalityCertificate>,
    /// A witness odd negative cycle, when no certificate was issued.
    pub odd_cycle: Option<PredCycle>,
    /// `true` iff the program is stratified.
    pub stratified: bool,
    /// `true` iff the program is structurally nonuniformly total
    /// (Theorem 3): the reduced program Π′ without useless predicates
    /// has no odd negative cycle, so every tie-breaking run is total on
    /// every database whose IDB relations start empty.
    pub nonuniformly_total: bool,
    /// Grounding cost estimate (requires a database).
    pub cost: Option<CostEstimate>,
}

impl AnalysisReport {
    /// `true` iff any lint is [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.error_count() > 0
    }

    /// Number of error-severity lints.
    pub fn error_count(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warn-severity lints.
    pub fn warn_count(&self) -> usize {
        self.count(Severity::Warn)
    }

    fn count(&self, severity: Severity) -> usize {
        self.lints.iter().filter(|l| l.severity == severity).count()
    }

    /// All error-severity lint messages, for rejection errors.
    pub fn error_messages(&self) -> Vec<String> {
        self.lints
            .iter()
            .filter(|l| l.severity == Severity::Error)
            .map(Lint::to_string)
            .collect()
    }

    /// A one-line summary, e.g. for a server response comment:
    /// `certificate=stratified lints=0 errors=0 warns=0`.
    pub fn summary(&self) -> String {
        let cert = match &self.certificate {
            Some(c) => c.grade.to_string(),
            None => "none".to_owned(),
        };
        format!(
            "certificate={cert} lints={} errors={} warns={}",
            self.lints.len(),
            self.error_count(),
            self.warn_count()
        )
    }

    /// Renders the report as a JSON object (stable shape, hand-rolled —
    /// the workspace carries no serialization dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!(
            "  \"stratified\": {},\n  \"certificate\": ",
            self.stratified
        ));
        match &self.certificate {
            Some(c) => {
                s.push_str(&format!(
                    "{{\"grade\": {}",
                    json_string(&c.grade.to_string())
                ));
                if let Some(n) = c.strata {
                    s.push_str(&format!(", \"strata\": {n}"));
                }
                s.push('}');
            }
            None => s.push_str("null"),
        }
        s.push_str(",\n  \"odd_cycle\": ");
        match &self.odd_cycle {
            Some(c) => s.push_str(&json_string(&c.to_string())),
            None => s.push_str("null"),
        }
        s.push_str(&format!(
            ",\n  \"nonuniformly_total\": {}",
            self.nonuniformly_total
        ));
        s.push_str(",\n  \"cost\": ");
        match &self.cost {
            Some(c) => s.push_str(&format!(
                "{{\"mode\": {}, \"exact\": {}, \"universe\": {}, \"atoms\": {}, \
                 \"instances\": {}, \"max_atoms\": {}, \"max_rule_instances\": {}, \
                 \"over_budget\": {}}}",
                json_string(&c.mode.to_string()),
                c.exact,
                c.universe,
                c.atoms,
                c.instances,
                c.max_atoms,
                c.max_rule_instances,
                c.over_budget()
            )),
            None => s.push_str("null"),
        }
        s.push_str(",\n  \"lints\": [");
        for (i, lint) in self.lints.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    {");
            s.push_str(&format!(
                "\"code\": {}, \"severity\": {}, \"message\": {}",
                json_string(lint.code.as_str()),
                json_string(&lint.severity.to_string()),
                json_string(&lint.message)
            ));
            if let Some(r) = lint.rule {
                s.push_str(&format!(", \"rule\": {r}"));
            }
            if let Some(p) = lint.pos {
                s.push_str(&format!(", \"line\": {}, \"col\": {}", p.line, p.col));
            }
            s.push('}');
        }
        if !self.lints.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("]\n}");
        s
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.certificate {
            Some(c) => writeln!(f, "totality: {c}")?,
            None => writeln!(f, "totality: no certificate")?,
        }
        if let Some(c) = &self.odd_cycle {
            writeln!(f, "odd negative cycle: {c}")?;
        }
        writeln!(
            f,
            "nonuniform totality (Theorem 3, IDB relations start empty): {}",
            if self.nonuniformly_total { "yes" } else { "no" }
        )?;
        if let Some(c) = &self.cost {
            writeln!(
                f,
                "cost ({}{}): {} atoms, {} rule instances (budget {} / {})",
                if c.exact { "exact, " } else { "bound, " },
                c.mode,
                c.atoms,
                c.instances,
                c.max_atoms,
                c.max_rule_instances
            )?;
        }
        if self.lints.is_empty() {
            writeln!(f, "no lints")?;
        } else {
            for lint in &self.lints {
                writeln!(f, "{lint}")?;
            }
        }
        Ok(())
    }
}

/// Escapes `s` as a JSON string literal, quotes included.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::CertificateGrade;
    use crate::lint::{Lint, LintCode};

    fn sample() -> AnalysisReport {
        AnalysisReport {
            lints: vec![Lint {
                code: LintCode::DuplicateRule,
                severity: Severity::Warn,
                message: "rule \"2\" duplicates rule 0".to_owned(),
                rule: Some(2),
                pos: None,
            }],
            certificate: Some(TotalityCertificate {
                grade: CertificateGrade::Stratified,
                strata: Some(3),
            }),
            odd_cycle: None,
            stratified: true,
            nonuniformly_total: true,
            cost: None,
        }
    }

    #[test]
    fn summary_and_counts() {
        let r = sample();
        assert!(!r.has_errors());
        assert_eq!(r.warn_count(), 1);
        assert_eq!(
            r.summary(),
            "certificate=stratified lints=1 errors=0 warns=1"
        );
    }

    #[test]
    fn json_escapes_and_includes_fields() {
        let j = sample().to_json();
        assert!(j.contains("\"grade\": \"stratified\""));
        assert!(j.contains("\"strata\": 3"));
        assert!(j.contains("\\\"2\\\""), "{j}");
        assert!(j.contains("\"rule\": 2"));
        assert!(j.contains("\"odd_cycle\": null"));
        assert!(j.contains("\"nonuniformly_total\": true"));
    }

    #[test]
    fn json_string_escaping() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
