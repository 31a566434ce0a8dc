//! The one renderer of the `? wf` and `? outcomes N` replies.
//!
//! A model is a function of the session's state, so the bytes of these
//! two replies are fixed for as long as the state lasts: the read memo
//! ([`crate::ReadBatch`]) renders each once per state and serves the
//! bytes to every later read. `datalog run`, `datalog outcomes`, the
//! script interpreter and the server print through the same functions,
//! so every front-end writes the same bytes.
//!
//! Facts are listed in text order
//! ([`GroundAtom::text_cmp`](datalog_ast::GroundAtom::text_cmp)), so the
//! bytes do not depend on the process's interning history. The order
//! comes from the atom table ([`AtomTable::text_order`]), sorted once and
//! cached until an atom is appended: rendering a model is one pass over
//! it that keeps the true atoms and appends each one's text straight from
//! its symbols ([`AtomTable::write_atom`]). Nothing is decoded and
//! nothing is sorted per reply.
//!
//! **The reply cap.** A reply larger than the cap is refused with
//! [`ReplyTooLarge`], and rendering stops at the line that shows it.
//! `? outcomes N` can tell before the enumeration ends: the memo
//! measures the set so far after every script run (`OutcomeBound`), and
//! since a set's counts only grow, its summary line at the current
//! counts plus the model lines so far is a lower bound on the final
//! reply. Once that bound passes the cap the enumeration stops. The
//! lines are measured ([`AtomTable::text_len`]), not rendered, so the
//! enumeration holds no growing reply buffer.

use std::fmt;
use std::io::Write as _;
use std::sync::Arc;

use datalog_ground::{AtomId, AtomTable, PartialModel, TruthValue};
use tiebreak_core::semantics::outcomes::OutcomeSet;
use tiebreak_core::InterpreterRun;

/// A rendered reply body, or the verdict that it outgrew the reply cap.
pub type Reply = Result<Arc<[u8]>, ReplyTooLarge>;

/// A reply that outgrew the reply cap. `bytes` is a lower bound on the
/// whole reply, more than `cap`: the bytes up to the first line past the
/// cap. For a `? outcomes N` read that line can come before the
/// enumeration ends, and `bytes` then counts the summary line at the
/// counts reached when it stopped (see the module docs), so an over-cap
/// enumeration need not run all `N` scripts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplyTooLarge {
    /// A lower bound on the reply's size (more than `cap`).
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

/// `Err` once a reply of `bytes` bytes outgrows `cap`.
fn check_cap(bytes: usize, cap: Option<usize>) -> Result<(), ReplyTooLarge> {
    match cap {
        Some(cap) if bytes > cap => Err(ReplyTooLarge { bytes, cap }),
        _ => Ok(()),
    }
}

/// The true atoms of `model`, in text order: a filter over the table's
/// cached order.
fn true_atoms<'a>(
    atoms: &'a AtomTable,
    model: &'a PartialModel,
) -> impl Iterator<Item = AtomId> + 'a {
    atoms
        .text_order()
        .iter()
        .copied()
        .filter(move |&id| id.index() < model.len() && model.get(id) == TruthValue::True)
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
    for id in true_atoms(atoms, model) {
        atoms.write_atom(id, out);
        out.extend_from_slice(b".\n");
        check_cap(out.len(), cap)?;
    }
    Ok(())
}

/// The line that reports a partial model's undefined atoms.
pub fn partial_model_line(undefined: usize) -> String {
    format!("% partial model: {undefined} atoms left undefined")
}

/// The `? wf` reply: [`write_true_facts`], then, when the model is
/// partial, its [`partial_model_line`]. The undefined atoms are counted,
/// not rendered.
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
        check_cap(out.len(), cap)?;
    }
    Ok(out.into())
}

/// The `? outcomes N` reply (and `datalog outcomes`): a summary line,
/// then one line per model listing its true facts in text order.
///
/// # Errors
///
/// [`ReplyTooLarge`] when the body outgrows `cap`; rendering stops at
/// the first line past it.
pub fn render_outcomes(atoms: &AtomTable, set: &OutcomeSet, cap: Option<usize>) -> Reply {
    let mut out = Vec::new();
    write_summary(&mut out, set);
    check_cap(out.len(), cap)?;
    for (i, model) in set.models.iter().enumerate() {
        write_line_prefix(&mut out, i + 1, model);
        for (j, id) in true_atoms(atoms, model).enumerate() {
            if j > 0 {
                out.extend_from_slice(b", ");
            }
            atoms.write_atom(id, &mut out);
        }
        out.extend_from_slice(b"}\n");
        check_cap(out.len(), cap)?;
    }
    Ok(out.into())
}

/// The summary line of a `? outcomes` reply.
fn write_summary(out: &mut Vec<u8>, set: &OutcomeSet) {
    writeln!(
        out,
        "% {} distinct outcome(s) over {} run(s){}",
        set.models.len(),
        set.runs,
        if set.truncated { " (truncated)" } else { "" }
    )
    .expect("writing to a Vec cannot fail");
}

/// The start of model `number`'s line, up to its opening brace.
fn write_line_prefix(out: &mut Vec<u8>, number: usize, model: &PartialModel) {
    write!(
        out,
        "% outcome {number} ({}): {{",
        if model.is_total() { "total" } else { "partial" },
    )
    .expect("writing to a Vec cannot fail");
}

/// The size of a `? outcomes N` reply to a set that is still growing,
/// measured without rendering it, so that an over-cap enumeration can
/// stop early. [`render_outcomes`] renders the final set.
pub(crate) struct OutcomeBound<'a> {
    atoms: &'a AtomTable,
    cap: Option<usize>,
    /// Scratch for the summary line and line prefixes being measured.
    scratch: Vec<u8>,
    /// How many models `lines_len` covers.
    measured: usize,
    /// The byte length of those models' lines.
    lines_len: usize,
}

impl<'a> OutcomeBound<'a> {
    /// A bound on a reply over `atoms` under `cap`.
    pub(crate) fn new(atoms: &'a AtomTable, cap: Option<usize>) -> Self {
        OutcomeBound {
            atoms,
            cap,
            scratch: Vec::new(),
            measured: 0,
            lines_len: 0,
        }
    }

    /// Under a cap, measures the lines of `set`'s models not measured
    /// yet and fails as soon as the reply must outgrow the cap: `set` is
    /// a prefix of the final set, whose counts only grow, so the summary
    /// line at `set`'s counts plus the lines measured so far is a lower
    /// bound on the final reply. Without a cap it does nothing.
    ///
    /// # Errors
    ///
    /// [`ReplyTooLarge`] carrying that lower bound.
    pub(crate) fn check(&mut self, set: &OutcomeSet) -> Result<(), ReplyTooLarge> {
        if self.cap.is_none() {
            return Ok(());
        }
        for model in &set.models[self.measured..] {
            self.measured += 1;
            self.scratch.clear();
            write_line_prefix(&mut self.scratch, self.measured, model);
            // Each fact and the `, ` after it; the last one's `, ` counts
            // the closing `}\n` instead.
            let facts: usize = true_atoms(self.atoms, model)
                .map(|id| self.atoms.text_len(id) + 2)
                .sum();
            self.lines_len += self.scratch.len() + facts.max(2);
        }
        self.scratch.clear();
        write_summary(&mut self.scratch, set);
        check_cap(self.scratch.len() + self.lines_len, self.cap)
    }
}
