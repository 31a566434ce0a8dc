//! Totality certificates: the paper's structural guarantees, graded.

use std::fmt;

/// How strong a [`TotalityCertificate`] is.
///
/// The two grades certify different theorems and must not be conflated:
/// call-consistency guarantees that every tie-breaking *run* terminates
/// with a total model, but says nothing about uniqueness (`p ← ¬q ;
/// q ← ¬p` is call-consistent with two outcomes and a partial
/// well-founded model). Only the stratified grade promises that no tie
/// ever fires.
///
/// Theorem 3's nonuniform totality is deliberately not a grade: a
/// certificate holds for every database, and Theorem 3 only for
/// databases whose IDB relations start empty.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CertificateGrade {
    /// No cycle of the predicate dependency graph passes through a
    /// negative edge: the program is stratified, the well-founded model
    /// is total and unique, no tie can ever fire, and the singleton
    /// outcome set is the perfect model.
    Stratified,
    /// Every cycle has an *even* number of negative edges (no odd
    /// negative cycle — call-consistent, Theorem 2): every well-founded
    /// tie-breaking run terminates with a total model, for every
    /// database and every tie policy. The outcome set may still contain
    /// more than one model.
    CallConsistent,
}

impl fmt::Display for CertificateGrade {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CertificateGrade::Stratified => "stratified",
            CertificateGrade::CallConsistent => "call-consistent",
        })
    }
}

/// A structural-totality certificate for a program.
///
/// Issued from the predicate dependency graph alone — before any
/// grounding — so it holds for *every* database.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TotalityCertificate {
    /// The certified grade.
    pub grade: CertificateGrade,
    /// Number of strata ([`CertificateGrade::Stratified`] only).
    pub strata: Option<u32>,
}

impl fmt::Display for TotalityCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.grade {
            CertificateGrade::Stratified => {
                write!(f, "stratified")?;
                if let Some(s) = self.strata {
                    write!(f, " ({s} strata)")?;
                }
                write!(f, " — unique total well-founded model, no ties")
            }
            CertificateGrade::CallConsistent => write!(
                f,
                "call-consistent (no odd negative cycle, Theorem 2) — every \
                 tie-breaking run is total"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn certificates_display_their_grade() {
        let strat = TotalityCertificate {
            grade: CertificateGrade::Stratified,
            strata: Some(2),
        };
        let cc = TotalityCertificate {
            grade: CertificateGrade::CallConsistent,
            strata: None,
        };
        assert!(strat.to_string().contains("2 strata"));
        assert!(cc.to_string().contains("Theorem 2"));
    }
}
