//! `trace_check FILE...` — validates Trace Event JSON files emitted by
//! `--trace-out` against the schema subset the workspace produces
//! (structure, required fields, span id uniqueness, parent linkage),
//! and prints each file's counts, including the events the recorder
//! dropped (`unknown` when the file does not record them).
//! Exits nonzero on the first invalid file; CI runs it on the smoke
//! trace before uploading the artifact.

use std::process::ExitCode;

fn main() -> ExitCode {
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: trace_check FILE...");
        return ExitCode::FAILURE;
    }
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(err) => {
                eprintln!("trace_check: {file}: {err}");
                return ExitCode::FAILURE;
            }
        };
        match tiebreak_trace::validate_trace_json(&text) {
            Ok(check) => println!(
                "{file}: ok ({} events: {} spans, {} instants; {} dropped)",
                check.events,
                check.spans,
                check.instants,
                check
                    .dropped
                    .map_or_else(|| "unknown".to_owned(), |n| n.to_string()),
            ),
            Err(err) => {
                eprintln!("trace_check: {file}: invalid trace: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
