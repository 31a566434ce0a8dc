//! The session-script interpreter shared by the CLI `session` loop and
//! the network server.
//!
//! One [`ScriptSession`] holds one long-lived [`Solver`] and interprets
//! the mutation-script line language against it:
//!
//! ```text
//! +fact.          stage an insertion
//! -fact.          stage a retraction
//! ? wf            apply staged mutations, print the well-founded model
//! ?fact.          apply staged mutations, print one atom's truth value
//! ? outcomes [N]  apply staged mutations, enumerate tie outcomes
//! ? stats         apply staged mutations, report the session state
//! # …  /  % …     comment (blank lines are skipped too)
//! ```
//!
//! Consecutive mutations batch into one epoch; every applied batch
//! prints a `% epoch …` line describing the incremental work.
//!
//! **Robustness contract** (what makes the interpreter safe to drive
//! from a socket): a malformed line *never* poisons the session. The
//! error is reported on the output sink as `! line N: …` — with the
//! line number the driver supplied, so a streaming client can correlate
//! — and processing continues with the next line. Any mutations staged
//! by the batch the bad line belonged to are **discarded**, not leaked
//! into the next `apply`: a batch is all-or-nothing even when the
//! failure is a parse error on its last line. Evaluation and `apply`
//! errors (e.g. a grounding-budget overflow) are reported the same way;
//! the solver itself rolls failed batches back (see
//! [`Solver::apply`]), so the session keeps serving afterwards.
//!
//! **Reply cap.** A front-end that sends replies in bounded frames gives
//! the session its cap ([`ScriptSession::with_reply_cap`]). The
//! `? wf` and `? outcomes` bodies are then rendered under it, and a
//! frame ([`ScriptSession::process_frame`],
//! [`ScriptSession::process_read_frame`]) whose reply would pass it
//! stops at the line that passes it: nothing past the cap is written,
//! and the frame fails with an [`io::Error`] wrapping [`ReplyTooLarge`].
//! Batches the frame applied before that line stay applied; its later
//! lines do not run.

use std::io::{self, Write};

use datalog_ast::GroundAtom;
use tiebreak_core::semantics::outcomes::OutcomeSet;
use tiebreak_core::{Mutation, PrepareDelta};
use tiebreak_runtime::{reply, ReadBatch, ReplyTooLarge, Solver};

/// Default cap on `? outcomes` enumeration when the script names none.
pub const DEFAULT_OUTCOME_RUNS: usize = 256;

/// What processing one line did — drivers use this to count per-session
/// diagnostics (the exit status of a file-driven CLI session, a
/// connection's error tally on the server).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineOutcome {
    /// The line was interpreted (or skipped as blank/comment).
    Ok,
    /// The line (or the batch it completed) failed; the error was
    /// reported on the sink and the session is ready for the next line.
    Error,
}

/// A long-lived script interpreter over one [`Solver`].
pub struct ScriptSession {
    solver: Solver,
    /// `? outcomes` enumerates pure tie-breaking instead of wf-tb.
    pure: bool,
    staged: Vec<Mutation>,
}

impl ScriptSession {
    /// Wraps a prepared solver. `pure` selects Pure Tie-Breaking for
    /// `? outcomes` (the CLI's `--semantics pure-tb`).
    pub fn new(solver: Solver, pure: bool) -> Self {
        ScriptSession {
            solver,
            pure,
            staged: Vec::new(),
        }
    }

    /// Caps every reply this session renders at `cap` bytes (see the
    /// module docs): the server passes its frame cap. Without it, as in
    /// the CLI's `session`, replies are unbounded.
    #[must_use]
    pub fn with_reply_cap(mut self, cap: usize) -> Self {
        self.solver.set_reply_cap(Some(cap));
        self
    }

    /// The underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Mutations staged but not yet applied (batching in progress).
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// Processes one script line against the session, writing every
    /// response line to `out`. `lineno` is 1-based and caller-supplied
    /// so the driver's numbering (file line, connection stream position)
    /// shows up verbatim in diagnostics.
    ///
    /// # Errors
    ///
    /// Only sink I/O errors, which include a `? wf` or `? outcomes`
    /// reply over the reply cap (an [`io::Error`] wrapping
    /// [`ReplyTooLarge`]). Malformed lines and failed
    /// applies/evaluations are reported *into the sink* and the session
    /// stays usable — see the module docs for the discard semantics.
    pub fn process_line(
        &mut self,
        lineno: usize,
        raw: &str,
        out: &mut dyn Write,
    ) -> io::Result<LineOutcome> {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            return Ok(LineOutcome::Ok);
        }
        match self.interpret(lineno, line, out) {
            Ok(()) => Ok(LineOutcome::Ok),
            Err(Failure::Io(e)) => Err(e),
            Err(Failure::Script(msg)) => {
                // The failed batch is discarded whole: staged-but-
                // unapplied mutations must not leak into the next apply.
                let dropped = self.staged.len();
                self.staged.clear();
                writeln!(out, "! line {lineno}: {msg}")?;
                if dropped > 0 {
                    writeln!(
                        out,
                        "! line {lineno}: discarded {dropped} staged mutation(s) from the failed \
                         batch"
                    )?;
                }
                Ok(LineOutcome::Error)
            }
        }
    }

    /// Applies any trailing staged mutations (end-of-script flush).
    ///
    /// # Errors
    ///
    /// Sink I/O errors only; apply failures are reported into the sink.
    pub fn finish(&mut self, out: &mut dyn Write) -> io::Result<LineOutcome> {
        match self.flush_staged(out) {
            Ok(()) => Ok(LineOutcome::Ok),
            Err(Failure::Io(e)) => Err(e),
            Err(Failure::Script(msg)) => {
                self.staged.clear();
                writeln!(out, "! end of script: {msg}")?;
                Ok(LineOutcome::Error)
            }
        }
    }

    /// Runs one `script` frame: every line through
    /// [`process_line`](ScriptSession::process_line), then
    /// [`finish`](ScriptSession::finish), so staged mutations never
    /// outlive the frame. `lineno` advances across the frame; the
    /// returned count is the frame's failed lines.
    ///
    /// # Errors
    ///
    /// Sink I/O errors, and a reply that would pass the reply cap (an
    /// [`io::Error`] wrapping [`ReplyTooLarge`]); the frame's remaining
    /// lines do not run and its staged mutations are discarded.
    pub fn process_frame(
        &mut self,
        lineno: &mut usize,
        body: &str,
        out: &mut dyn Write,
    ) -> io::Result<usize> {
        let mut out = CappedSink::new(out, self.solver.reply_cap());
        let mut errors = 0;
        let result = body
            .lines()
            .try_for_each(|line| {
                *lineno += 1;
                if self.process_line(*lineno, line, &mut out)? == LineOutcome::Error {
                    errors += 1;
                }
                Ok(())
            })
            .and_then(|()| self.finish(&mut out));
        match result {
            Ok(outcome) => Ok(errors + usize::from(outcome == LineOutcome::Error)),
            Err(e) => {
                self.staged.clear();
                Err(e)
            }
        }
    }

    /// Runs one read-only frame (every line a `?` query, a comment or
    /// blank) through `&self` against a shared [`ReadBatch`], producing
    /// byte-for-byte the output
    /// [`process_frame`](ScriptSession::process_frame) would have
    /// produced for the same lines, every query answered from the
    /// solver's read memo through `batch`. `lineno` advances across the
    /// frame exactly like `process_frame`, and the returned count is the
    /// frame's failed lines.
    ///
    /// # Errors
    ///
    /// Sink I/O errors, and a reply that would pass the reply cap (an
    /// [`io::Error`] wrapping [`ReplyTooLarge`]; the frame's remaining
    /// lines do not run). Malformed queries, and mutation lines, which
    /// this read path cannot run, are reported in-band.
    pub fn process_read_frame(
        &self,
        lineno: &mut usize,
        body: &str,
        batch: &mut ReadBatch,
        out: &mut dyn Write,
    ) -> io::Result<usize> {
        let out = &mut CappedSink::new(out, self.solver.reply_cap());
        let mut errors = 0;
        for raw in body.lines() {
            *lineno += 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            let result = match line.strip_prefix('?') {
                Some(rest) => {
                    // Mirrors `interpret`: the prepare phase is the
                    // staged flush, a no-op on a read-only frame but
                    // still timed so the annotation shape matches.
                    let prepare_started = std::time::Instant::now();
                    let prepare_ms = prepare_started.elapsed().as_secs_f64() * 1e3;
                    let eval_started = std::time::Instant::now();
                    match self.read_query(rest.trim(), batch, out) {
                        Ok(()) => {
                            if tiebreak_trace::enabled() {
                                let eval_ms = eval_started.elapsed().as_secs_f64() * 1e3;
                                writeln!(
                                    out,
                                    "% timing: prepare={prepare_ms:.3}ms eval={eval_ms:.3}ms"
                                )?;
                            }
                            Ok(())
                        }
                        Err(e) => Err(e),
                    }
                }
                // A mutation line, which this `&self` path cannot
                // stage, fails in-band.
                None => Err(Failure::Script(format!(
                    "expected '+fact.', '-fact.', or '?query', got {line:?}"
                ))),
            };
            match result {
                Ok(()) => {}
                Err(Failure::Io(e)) => return Err(e),
                Err(Failure::Script(msg)) => {
                    // No staged mutations can exist here, so no discard
                    // report — identical to `process_frame`'s output for
                    // a read-only frame.
                    writeln!(out, "! line {lineno}: {msg}")?;
                    errors += 1;
                }
            }
        }
        Ok(errors)
    }

    /// The read-only subset of [`query`](ScriptSession::query), answered
    /// from the solver's read memo.
    fn read_query(
        &self,
        query: &str,
        batch: &mut ReadBatch,
        out: &mut dyn Write,
    ) -> Result<(), Failure> {
        if query == "wf" {
            let reply = batch
                .model(&self.solver)
                .map_err(|e| Failure::Script(e.to_string()))?;
            out.write_all(&reply?)?;
        } else if query == "stats" {
            self.write_stats(out)?;
        } else if let Some(limit) = query.strip_prefix("outcomes") {
            let limit = limit.trim();
            let max_runs = if limit.is_empty() {
                DEFAULT_OUTCOME_RUNS
            } else {
                limit
                    .parse()
                    .map_err(|e| Failure::Script(format!("bad outcome limit: {e}")))?
            };
            let reply = batch
                .outcomes(&self.solver, self.pure, max_runs)
                .map_err(|e| Failure::Script(e.to_string()))?;
            out.write_all(&reply?)?;
        } else {
            let fact = parse_fact(query)?;
            match batch
                .truth(&self.solver, &fact)
                .map_err(|e| Failure::Script(e.to_string()))?
            {
                Some(value) => writeln!(out, "{fact}: {value}")?,
                None => writeln!(out, "{fact}: false (not in the ground atom space)")?,
            }
        }
        Ok(())
    }

    /// The `? stats` report (shared by `query` and `read_query` so the
    /// two cannot drift).
    fn write_stats(&self, out: &mut dyn Write) -> Result<(), Failure> {
        let fp = self.solver.footprint();
        writeln!(
            out,
            "% epoch {} | {} components | {} residual atoms | db {} facts | \
             graph {} atoms / {} rules / ~{} KiB",
            self.solver.epoch(),
            self.solver.component_count(),
            self.solver.residual_atom_count(),
            self.solver.database().len(),
            fp.atoms,
            fp.rules,
            fp.approx_bytes / 1024,
        )?;
        if let Some(delta) = self.solver.last_delta() {
            writeln!(out, "{}", describe_delta(delta))?;
        }
        Ok(())
    }

    fn interpret(&mut self, lineno: usize, line: &str, out: &mut dyn Write) -> Result<(), Failure> {
        if let Some(rest) = line.strip_prefix('+') {
            let fact = parse_fact(rest)?;
            self.staged.push(Mutation::Insert(fact));
        } else if let Some(rest) = line.strip_prefix('-') {
            let fact = parse_fact(rest)?;
            self.staged.push(Mutation::Retract(fact));
        } else if let Some(rest) = line.strip_prefix('?') {
            let prepare_started = std::time::Instant::now();
            self.flush_staged(out)?;
            let prepare_ms = prepare_started.elapsed().as_secs_f64() * 1e3;
            let eval_started = std::time::Instant::now();
            self.query(rest.trim(), out)?;
            // Annotate only when tracing is on so the default reply
            // format stays byte-stable for existing drivers.
            if tiebreak_trace::enabled() {
                let eval_ms = eval_started.elapsed().as_secs_f64() * 1e3;
                writeln!(
                    out,
                    "% timing: prepare={prepare_ms:.3}ms eval={eval_ms:.3}ms"
                )?;
            }
        } else {
            return Err(Failure::Script(format!(
                "expected '+fact.', '-fact.', or '?query', got {line:?}"
            )));
        }
        let _ = lineno;
        Ok(())
    }

    fn flush_staged(&mut self, out: &mut dyn Write) -> Result<(), Failure> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let delta = self
            .solver
            .apply(std::mem::take(&mut self.staged))
            .map_err(|e| Failure::Script(format!("apply failed: {e}")))?;
        writeln!(out, "{}", describe_delta(&delta))?;
        Ok(())
    }

    fn query(&mut self, query: &str, out: &mut dyn Write) -> Result<(), Failure> {
        // The read path with a batch of one — the same read memo, the
        // same formatting code — so the two paths are byte-identical by
        // construction.
        let mut batch = ReadBatch::new();
        self.read_query(query, &mut batch, out)
    }
}

/// Interpreter failure plumbing: sink errors abort the driver, script
/// errors are reported and survived.
enum Failure {
    Io(io::Error),
    Script(String),
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure::Io(e)
    }
}

/// A reply over the cap fails the frame like a sink that cannot take it.
impl From<ReplyTooLarge> for Failure {
    fn from(e: ReplyTooLarge) -> Self {
        Failure::Io(io::Error::other(e))
    }
}

/// A frame's sink: forwards writes until the frame's reply would pass
/// the cap, then fails every write with [`ReplyTooLarge`].
struct CappedSink<'a> {
    out: &'a mut dyn Write,
    written: usize,
    cap: Option<usize>,
}

impl<'a> CappedSink<'a> {
    fn new(out: &'a mut dyn Write, cap: Option<usize>) -> Self {
        CappedSink {
            out,
            written: 0,
            cap,
        }
    }
}

impl Write for CappedSink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let bytes = self.written + buf.len();
        if let Some(cap) = self.cap.filter(|&cap| bytes > cap) {
            return Err(io::Error::other(ReplyTooLarge { bytes, cap }));
        }
        let n = self.out.write(buf)?;
        self.written += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Parses one `pred(c1, …).` session-script fact (trailing dot
/// optional).
fn parse_fact(src: &str) -> Result<GroundAtom, Failure> {
    let src = src.trim();
    let stripped = src.strip_suffix('.').unwrap_or(src).trim();
    let db = datalog_ast::parse_database(&format!("{stripped}."))
        .map_err(|e| Failure::Script(format!("bad fact {stripped:?}: {e}")))?;
    let mut facts: Vec<GroundAtom> = db.facts().collect();
    if facts.len() != 1 {
        return Err(Failure::Script("expected exactly one ground fact".into()));
    }
    Ok(facts.pop().expect("one fact"))
}

/// One line summarizing what a mutation batch did to the prepared state
/// (the `% epoch …` report shared by the CLI and the server).
pub fn describe_delta(delta: &PrepareDelta) -> String {
    if delta.rebuilt {
        format!(
            "% epoch {}: +{} -{} | re-prepared ({})",
            delta.epoch,
            delta.inserted,
            delta.retracted,
            delta.rebuild_reason.as_deref().unwrap_or("unspecified"),
        )
    } else {
        format!(
            "% epoch {}: +{} -{} | cone {} atoms / {} rules | grounded +{} atoms +{} rules | \
             components -{} +{} | residual {}",
            delta.epoch,
            delta.inserted,
            delta.retracted,
            delta.cone_atoms,
            delta.cone_rules,
            delta.new_atoms,
            delta.new_rules,
            delta.components_removed,
            delta.components_added,
            delta.residual_atoms,
        )
    }
}

/// Writes an outcome set in the shared `outcomes` format
/// ([`reply::render_outcomes`], the renderer the read memo uses), so
/// every front-end prints the same bytes.
///
/// # Errors
///
/// Sink I/O errors.
pub fn write_outcomes(
    out: &mut dyn Write,
    set: &OutcomeSet,
    atoms: &datalog_ground::AtomTable,
) -> io::Result<()> {
    out.write_all(&reply::render_outcomes(atoms, set, None).expect("no cap"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(program: &str, db: &str) -> ScriptSession {
        ScriptSession::new(Solver::from_sources(program, db).unwrap(), false)
    }

    fn drive(s: &mut ScriptSession, lines: &[&str]) -> (String, usize) {
        let mut out = Vec::new();
        let mut errors = 0;
        for (i, line) in lines.iter().enumerate() {
            if s.process_line(i + 1, line, &mut out).unwrap() == LineOutcome::Error {
                errors += 1;
            }
        }
        if s.finish(&mut out).unwrap() == LineOutcome::Error {
            errors += 1;
        }
        (String::from_utf8(out).unwrap(), errors)
    }

    #[test]
    fn malformed_lines_are_reported_and_survived() {
        let mut s = session("win(X) :- move(X, Y), not win(Y).", "move(a, b).");
        let (out, errors) = drive(
            &mut s,
            &[
                "? win(a)",
                "this is not a command",
                "? win(a)",
                "+ bad fact here (",
                "? win(b)",
            ],
        );
        assert_eq!(errors, 2, "{out}");
        assert!(out.contains("! line 2: expected '+fact.'"), "{out}");
        assert!(out.contains("! line 4: bad fact"), "{out}");
        // Both queries around the failures answered.
        assert_eq!(out.matches("win(a): true").count(), 2, "{out}");
        assert!(out.contains("win(b): false"), "{out}");
    }

    #[test]
    fn failed_batch_discards_staged_mutations() {
        let mut s = session("win(X) :- move(X, Y), not win(Y).", "move(a, b).");
        // The staged insert precedes the malformed line: it must NOT be
        // applied by the later query's flush.
        let (out, errors) = drive(
            &mut s,
            &["+ move(b, a).", "garbage after staging", "? stats", "? wf"],
        );
        assert_eq!(errors, 1, "{out}");
        assert!(out.contains("discarded 1 staged mutation(s)"), "{out}");
        assert!(out.contains("% epoch 0 |"), "{out}");
        assert!(!out.contains("% epoch 1"), "{out}");
        assert!(
            !s.solver()
                .database()
                .contains(&GroundAtom::from_texts("move", &["b", "a"])),
            "staged mutation leaked into the database"
        );
    }

    #[test]
    fn trailing_staged_mutations_flush_at_finish() {
        let mut s = session("win(X) :- move(X, Y), not win(Y).", "move(a, b).");
        let (out, errors) = drive(&mut s, &["+ move(b, a)."]);
        assert_eq!(errors, 0, "{out}");
        assert!(out.contains("% epoch 1: +1 -0"), "{out}");
        assert_eq!(s.solver().epoch(), 1);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let mut s = session("p :- not q.\nq :- not p.", "");
        let (out, errors) = drive(
            &mut s,
            &["# comment", "% also a comment", "", "? outcomes 8"],
        );
        assert_eq!(errors, 0, "{out}");
        assert!(out.contains("% 2 distinct outcome(s)"), "{out}");
    }

    #[test]
    fn wf_prints_facts_in_text_order_whatever_the_interning_order() {
        // Interner ids run opposite to text order: the parent sorted by
        // id and printed `edge(tord_z, …)` first.
        for c in ["tord_z", "tord_m", "tord_b", "tord_a"] {
            datalog_ast::ConstSym::new(c);
        }
        let mut s = session(
            "reach(X, Y) :- edge(X, Y).",
            "edge(tord_z, tord_a). edge(tord_a, tord_z). edge(tord_m, tord_b). \
             edge(tord_a, tord_b).",
        );
        let (out, errors) = drive(&mut s, &["? wf"]);
        assert_eq!(errors, 0, "{out}");
        let facts = [
            "(tord_a, tord_b).",
            "(tord_a, tord_z).",
            "(tord_m, tord_b).",
            "(tord_z, tord_a).",
        ];
        let expected: String = ["edge", "reach"]
            .iter()
            .flat_map(|pred| facts.iter().map(move |args| format!("{pred}{args}\n")))
            .collect();
        assert_eq!(out, expected);
    }

    /// The formatting `write_outcomes` streams: one joined `String` per
    /// model, its true facts in text order.
    fn joined_outcomes(set: &OutcomeSet, atoms: &datalog_ground::AtomTable) -> String {
        let mut text = format!(
            "% {} distinct outcome(s) over {} run(s){}\n",
            set.models.len(),
            set.runs,
            if set.truncated { " (truncated)" } else { "" }
        );
        for (i, model) in set.models.iter().enumerate() {
            let mut true_atoms = model.true_atoms(atoms);
            true_atoms.sort_by(GroundAtom::text_cmp);
            let facts: Vec<String> = true_atoms
                .iter()
                .map(std::string::ToString::to_string)
                .collect();
            text.push_str(&format!(
                "% outcome {} ({}): {{{}}}\n",
                i + 1,
                if model.is_total() { "total" } else { "partial" },
                facts.join(", ")
            ));
        }
        text
    }

    #[test]
    fn streamed_outcomes_match_the_joined_format() {
        for (program, db) in [
            (
                "win(X) :- move(X, Y), not win(Y).",
                "move(a, b). move(b, a). move(c, d). move(d, c). move(d, e).",
            ),
            // One outcome with no true atom: `{}`.
            ("p :- p.", ""),
            // Interned opposite to text order.
            (
                "win(X) :- move(X, Y), not win(Y).",
                "move(jord_z, jord_y). move(jord_y, jord_z). move(jord_b, jord_a).",
            ),
        ] {
            let s = session(program, db);
            let set = s.solver().all_outcomes(false, 64).unwrap();
            let atoms = s.solver().graph().atoms();
            let mut out = Vec::new();
            write_outcomes(&mut out, &set, atoms).unwrap();
            assert_eq!(
                String::from_utf8(out).unwrap(),
                joined_outcomes(&set, atoms)
            );
        }
    }

    #[test]
    fn outcomes_print_facts_in_text_order_whatever_the_interning_order() {
        // Interner ids run opposite to text order: listing each model's
        // facts by atom id would put `move(oord_z, …)` first.
        for c in ["oord_z", "oord_m", "oord_b", "oord_a"] {
            datalog_ast::ConstSym::new(c);
        }
        let mut s = session(
            "win(X) :- move(X, Y), not win(Y).",
            "move(oord_z, oord_a). move(oord_a, oord_z). move(oord_m, oord_b).",
        );
        let (out, errors) = drive(&mut s, &["? outcomes 8"]);
        assert_eq!(errors, 0, "{out}");
        let mut lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.remove(0), "% 2 distinct outcome(s) over 2 run(s)");
        // Which orientation the walk meets first is not under test.
        let mut models: Vec<&str> = lines
            .iter()
            .map(|l| l.split_once(": ").expect("an outcome line").1)
            .collect();
        models.sort_unstable();
        let moves = "move(oord_a, oord_z), move(oord_m, oord_b), move(oord_z, oord_a)";
        assert_eq!(
            models,
            [
                format!("{{{moves}, win(oord_a), win(oord_m)}}"),
                format!("{{{moves}, win(oord_m), win(oord_z)}}"),
            ]
        );
    }

    #[test]
    fn bad_outcome_limit_is_survivable() {
        let mut s = session("p :- not q.\nq :- not p.", "");
        let (out, errors) = drive(&mut s, &["? outcomes nope", "? outcomes 4"]);
        assert_eq!(errors, 1, "{out}");
        assert!(out.contains("! line 1: bad outcome limit"), "{out}");
        assert!(out.contains("% 2 distinct outcome(s)"), "{out}");
    }
}
