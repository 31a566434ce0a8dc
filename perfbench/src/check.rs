//! Answer checking against an in-process `ScriptSession` over a fresh
//! `Solver` of the same instance and database state.
//!
//! Bodies are compared as sorted line sets, with the facts inside each
//! `% outcome` line sorted too: fact order follows the interner's
//! history, so two correct answers may differ byte for byte.

use std::io::{Read, Write};
use std::process::{Command, Stdio};

use tiebreak_runtime::{ReadBatch, Solver};
use tiebreak_server::ScriptSession;

use crate::inputs::Instance;

/// A fresh session over `instance`.
pub fn fresh(instance: &Instance) -> Result<ScriptSession, String> {
    let solver = Solver::from_sources(&instance.program, &instance.database)
        .map_err(|e| format!("in-process prepare failed: {e}"))?;
    Ok(ScriptSession::new(solver, false))
}

/// What the server's interpreter should print for a read-only script.
pub fn expected(session: &ScriptSession, script: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut lineno = 0;
    session
        .process_read_frame(&mut lineno, script, &mut ReadBatch::new(), &mut out)
        .expect("writing to a Vec cannot fail");
    canon(&String::from_utf8_lossy(&out))
}

/// [`expected`] computed by a fresh copy of this program (`--expect`),
/// which parses the sources first, as the server does. A truncated
/// `? outcomes` walks tie choices in atom-id order, which follows the
/// interner's history, so only a process whose interner saw the same
/// sources in the same order explores the same subset.
pub fn expected_in_fresh_process(instance: &Instance, script: &str) -> Result<Vec<String>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe)
        .arg("--expect")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start the checker: {e}"))?;
    let mut input = format!("{} {}\n", instance.program.len(), instance.database.len());
    input.push_str(&instance.program);
    input.push_str(&instance.database);
    input.push_str(script);
    let mut stdin = child.stdin.take().expect("stdin is piped");
    let written = stdin.write_all(input.as_bytes());
    drop(stdin);
    let mut out = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut out);
    let status = child.wait().map_err(|e| e.to_string())?;
    match (written, read) {
        (Ok(()), Ok(_)) if status.success() => Ok(canon(&out)),
        _ => Err(format!("the checker failed: {status}")),
    }
}

/// The `--expect` mode: reads `<program bytes> <database bytes>\n`, the
/// program, the database and a read-only script from standard input and
/// prints what a fresh session answers.
pub fn expect_main() -> Result<(), String> {
    let mut input = String::new();
    std::io::stdin()
        .read_to_string(&mut input)
        .map_err(|e| e.to_string())?;
    let (header, rest) = input.split_once('\n').ok_or("no header")?;
    let lens: Vec<usize> = header
        .split_whitespace()
        .filter_map(|n| n.parse().ok())
        .collect();
    let [p, d] = lens[..] else {
        return Err(format!("bad header {header:?}"));
    };
    let instance = Instance {
        program: rest.get(..p).ok_or("short program")?.to_owned(),
        database: rest.get(p..p + d).ok_or("short database")?.to_owned(),
    };
    let session = fresh(&instance)?;
    let mut out = Vec::new();
    session
        .process_read_frame(&mut 0, &rest[p + d..], &mut ReadBatch::new(), &mut out)
        .map_err(|e| e.to_string())?;
    std::io::stdout().write_all(&out).map_err(|e| e.to_string())
}

/// Splits `a, f(b, c), d` at its top-level commas.
fn top_level_items(list: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let (mut depth, mut start) = (0usize, 0);
    for (i, c) in list.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                items.push(list[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(list[start..].trim());
    items.retain(|item| !item.is_empty());
    items
}

/// The order-free form of a reply body.
pub fn canon(body: &str) -> Vec<String> {
    let mut lines: Vec<String> = body
        .lines()
        .map(
            |line| match (line.strip_prefix("% outcome "), line.split_once(": {")) {
                (Some(_), Some((head, facts))) => {
                    // Drop the outcome's index: discovery order is not part
                    // of the answer.
                    let kind = head.rsplit_once(' ').map_or(head, |(_, k)| k);
                    let mut facts = top_level_items(facts.trim_end_matches('}'));
                    facts.sort_unstable();
                    format!("% outcome {kind}: {{{}}}", facts.join(", "))
                }
                _ => line.to_owned(),
            },
        )
        .collect();
    lines.sort_unstable();
    lines
}

/// Splits a `script` reply into its body, or says why it failed: an
/// `error` status, a non-zero error count, or a `! line` diagnostic.
pub fn script_body(reply: &[u8]) -> Result<&str, String> {
    let text = std::str::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_owned())?;
    let (status, body) = text.split_once('\n').unwrap_or((text, ""));
    if status != "ok errors=0" {
        return Err(format!("status {status:?}"));
    }
    if let Some(diag) = body.lines().find(|l| l.starts_with('!')) {
        return Err(format!("diagnostic {diag:?}"));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canon_ignores_line_and_fact_order() {
        let a = "% 2 distinct outcome(s) over 2 run(s)\n% outcome 1 (total): {p, q}\n\
                 % outcome 2 (total): {r}\n";
        let b = "% 2 distinct outcome(s) over 2 run(s)\n% outcome 1 (total): {r}\n\
                 % outcome 2 (total): {q, p}\n";
        assert_eq!(canon(a), canon(b));
        assert_eq!(
            canon("% outcome 1 (total): {m(a, b), m(b, a)}"),
            canon("% outcome 1 (total): {m(b, a), m(a, b)}")
        );
        assert_ne!(canon(a), canon("% outcome 1 (total): {p}\n"));
    }

    #[test]
    fn script_body_rejects_errors_and_diagnostics() {
        assert_eq!(
            script_body(b"ok errors=0\nwin(a): true\n"),
            Ok("win(a): true\n")
        );
        assert!(script_body(b"ok errors=1\n! line 1: bad\n").is_err());
        assert!(script_body(b"error no session open").is_err());
    }
}
