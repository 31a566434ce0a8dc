//! The one renderer of the `? wf` and `? outcomes N` replies.
//!
//! A model is a function of the session's state, so the bytes of these
//! two replies are fixed for as long as the state lasts: the read memo
//! ([`crate::ReadBatch`]) renders each once per state and serves the
//! bytes to every later read. `datalog run`, `datalog outcomes`, the
//! script interpreter and both server transports print through the same
//! functions, so every front-end writes the same bytes.
//!
//! Facts are listed in text order ([`GroundAtom::text_cmp`]), so the
//! bytes do not depend on the process's interning history.

use std::fmt;
use std::io::Write as _;
use std::sync::Arc;

use datalog_ast::GroundAtom;
use datalog_ground::{AtomTable, PartialModel};
use tiebreak_core::semantics::outcomes::OutcomeSet;
use tiebreak_core::InterpreterRun;

/// A rendered reply body, or the verdict that it outgrew the reply cap.
pub type Reply = Result<Arc<[u8]>, ReplyTooLarge>;

/// A reply that outgrew the reply cap: rendering stopped at the first
/// line that took it past `cap`, so `bytes` counts what was rendered by
/// then, not the whole reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyTooLarge {
    /// Bytes rendered when rendering stopped (more than `cap`).
    pub bytes: usize,
    /// The cap the reply outgrew.
    pub cap: usize,
}

impl fmt::Display for ReplyTooLarge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reply of {} bytes exceeds the {}-byte frame cap",
            self.bytes, self.cap
        )
    }
}

impl std::error::Error for ReplyTooLarge {}

/// `Err` once `out` holds more than `cap` bytes.
fn check_cap(out: &[u8], cap: Option<usize>) -> Result<(), ReplyTooLarge> {
    match cap {
        Some(cap) if out.len() > cap => Err(ReplyTooLarge {
            bytes: out.len(),
            cap,
        }),
        _ => Ok(()),
    }
}

/// The true atoms of `model`, decoded and sorted by text.
fn sorted_true_atoms(atoms: &AtomTable, model: &PartialModel) -> Vec<GroundAtom> {
    let mut facts = model.true_atoms(atoms);
    facts.sort_unstable_by(GroundAtom::text_cmp);
    facts
}

/// Appends one `fact.` line per true atom of `model`, in text order:
/// the fact list of `? wf` and of `datalog run`. Stops with
/// [`ReplyTooLarge`] at the first line that takes `out` past `cap`.
///
/// # Errors
///
/// [`ReplyTooLarge`] as above; `out` then holds the lines rendered so
/// far.
pub fn write_true_facts(
    out: &mut Vec<u8>,
    atoms: &AtomTable,
    model: &PartialModel,
    cap: Option<usize>,
) -> Result<(), ReplyTooLarge> {
    for fact in sorted_true_atoms(atoms, model) {
        writeln!(out, "{fact}.").expect("writing to a Vec cannot fail");
        check_cap(out, cap)?;
    }
    Ok(())
}

/// The line that reports a partial model's undefined atoms.
pub fn partial_model_line(undefined: usize) -> String {
    format!("% partial model: {undefined} atoms left undefined")
}

/// The `? wf` reply: [`write_true_facts`], then, when the model is
/// partial, its [`partial_model_line`]. Only true atoms are decoded;
/// the undefined ones are counted.
///
/// # Errors
///
/// [`ReplyTooLarge`] when the body outgrows `cap`.
pub fn render_model(atoms: &AtomTable, run: &InterpreterRun, cap: Option<usize>) -> Reply {
    let mut out = Vec::new();
    write_true_facts(&mut out, atoms, &run.model, cap)?;
    if !run.total {
        let undefined = run.model.undefined_atoms().count();
        writeln!(out, "{}", partial_model_line(undefined)).expect("writing to a Vec cannot fail");
        check_cap(&out, cap)?;
    }
    Ok(out.into())
}

/// The `? outcomes N` reply (and `datalog outcomes`): a summary line,
/// then one line per model listing its true facts in text order. Every
/// fact true in some model is decoded and rendered once
/// ([`OutcomeSet::decode`]); a model line concatenates those texts.
///
/// # Errors
///
/// [`ReplyTooLarge`] when the body outgrows `cap`; rendering stops at
/// the first line past it.
pub fn render_outcomes(atoms: &AtomTable, set: &OutcomeSet, cap: Option<usize>) -> Reply {
    let mut out = Vec::new();
    writeln!(
        out,
        "% {} distinct outcome(s) over {} run(s){}",
        set.models.len(),
        set.runs,
        if set.truncated { " (truncated)" } else { "" }
    )
    .expect("writing to a Vec cannot fail");
    check_cap(&out, cap)?;
    let decoded = set.decode(atoms);
    // Each fact's text, once: `texts[ends[i - 1]..ends[i]]`.
    let mut texts = Vec::new();
    let mut ends = Vec::with_capacity(decoded.facts.len());
    for fact in &decoded.facts {
        write!(texts, "{fact}").expect("writing to a Vec cannot fail");
        ends.push(texts.len());
    }
    let text = |i: u32| {
        let i = i as usize;
        &texts[if i == 0 { 0 } else { ends[i - 1] }..ends[i]]
    };
    for (i, model) in decoded.models.iter().enumerate() {
        write!(
            out,
            "% outcome {} ({}): {{",
            i + 1,
            if model.total { "total" } else { "partial" },
        )
        .expect("writing to a Vec cannot fail");
        let mut facts = model.facts.iter();
        if let Some(&first) = facts.next() {
            out.extend_from_slice(text(first));
            for &fact in facts {
                out.extend_from_slice(b", ");
                out.extend_from_slice(text(fact));
            }
        }
        out.extend_from_slice(b"}\n");
        check_cap(&out, cap)?;
    }
    Ok(out.into())
}
