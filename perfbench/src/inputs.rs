//! Seeded workload inputs: instances, query targets, churn edges and
//! frame schedules. Everything the server sees is derived here from
//! `--seed`; the server receives only the generated source text and
//! frames.

use paper_constructions::generators::{
    braided_tie_chain_db, braided_unfounded_chain_program, win_move_program,
};

/// Evaluation threads of the server (`serve --threads`) and of the
/// in-process replay. One: on a 2-core host that also runs the load
/// generator, the wave pool's per-evaluation spawn makes a write's
/// latency swing 2-10x between runs, which no bound can absorb.
pub const SERVER_THREADS: usize = 1;

/// The hot instance: win–move over `braided_tie_chain_db(HOT_CHAINS, HOT_POCKETS)`.
pub const HOT_CHAINS: usize = 8;
/// Pockets per chain of the hot instance.
pub const HOT_POCKETS: usize = 512;
/// `? outcomes K` on the hot instance. Each outcome is a ~420 KiB line,
/// so K = 4 keeps the reply near 1.7 MiB, under the client's 4 MiB frame
/// cap; K = 8 is 3.3 MiB and K = 16 is refused as over the cap.
pub const ENUM_K: usize = 4;

/// Cold instances: `braided_unfounded_chain_program(COLD_CHAINS, COLD_POCKETS, COLD_LOOP)`.
pub const COLD_CHAINS: usize = 8;
/// Pockets per chain of a cold instance.
pub const COLD_POCKETS: usize = 32;
/// Loop length of a cold pocket.
pub const COLD_LOOP: usize = 16;
/// Server `--max-sessions` on cold_opens; set-up fills it.
pub const COLD_CAP: usize = 4;
/// Timed opens per second of `--seconds`: a fixed count per run, not a
/// duration, so the never-freeing symbol interner grows the same way on
/// every run.
pub const COLD_OPENS_PER_SECOND: f64 = 12.0;

/// splitmix64: a small, stable, seedable generator.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A two-letter tag derived from the seed; prefixed to every generated
/// name so each seed's instances are distinct source text of equal size.
pub fn seed_tag(seed: u64, index: usize) -> String {
    let mut rng = Rng::new(seed, 0x7A6 + index as u64);
    let a = (b'a' + rng.below(26) as u8) as char;
    let b = (b'a' + rng.below(26) as u8) as char;
    format!("{a}{b}{index}x")
}

/// Prefixes every lowercase identifier of `text` with `tag`, except the
/// ones in `keep` (predicates the program shares, and `not`).
fn retag(text: &str, tag: &str, keep: &[&str]) -> String {
    let mut out = String::with_capacity(text.len() * 3 / 2);
    let mut rest = text;
    while let Some(start) = rest.find(|c: char| c.is_ascii_alphanumeric() || c == '_') {
        out.push_str(&rest[..start]);
        rest = &rest[start..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let ident = &rest[..end];
        if ident.starts_with(|c: char| c.is_ascii_lowercase()) && !keep.contains(&ident) {
            out.push_str(tag);
        }
        out.push_str(ident);
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

/// Program and database source text of one instance.
#[derive(Clone)]
pub struct Instance {
    pub program: String,
    pub database: String,
}

/// The `index`-th hot instance of a seed, with every constant tagged.
/// The end-to-end runs use index 0; the replay prepares several, so
/// each timed prepare parses names the process has not interned yet.
pub fn hot_instance(seed: u64, index: usize) -> (Instance, String) {
    let tag = seed_tag(seed, index);
    let db = braided_tie_chain_db(HOT_CHAINS, HOT_POCKETS);
    let mut facts: Vec<String> = db.facts().map(|f| format!("{f}.")).collect();
    facts.sort_unstable();
    let database = retag(&facts.join("\n"), &tag, &["move"]) + "\n";
    let program = win_move_program().to_string();
    (Instance { program, database }, tag)
}

/// The `index`-th cold instance of a seed: the braided unfounded chain
/// with every predicate tagged, so each open is a distinct program.
pub fn cold_instance(seed: u64, index: usize) -> (Instance, String) {
    let tag = seed_tag(seed, index);
    let program = braided_unfounded_chain_program(COLD_CHAINS, COLD_POCKETS, COLD_LOOP);
    let program = retag(&program.to_string(), &tag, &["not"]);
    (
        Instance {
            program,
            database: String::new(),
        },
        tag,
    )
}

/// A `win(...)` point-read target on the hot instance.
pub fn hot_position(rng: &mut Rng, tag: &str) -> String {
    let c = rng.below(HOT_CHAINS);
    let i = rng.below(HOT_POCKETS);
    let side = if rng.below(2) == 0 { 'a' } else { 'b' };
    format!("{tag}t{c}{side}{i}")
}

/// An atom of a cold instance (every atom of it is false).
pub fn cold_atom(rng: &mut Rng, tag: &str) -> String {
    if rng.below(4) == 0 {
        return format!("{tag}hub");
    }
    let c = rng.below(COLD_CHAINS);
    let j = rng.below(COLD_POCKETS);
    let i = rng.below(COLD_LOOP);
    format!("{tag}u{c}p{j}n{i}")
}

/// One churn write: toggles the pocket edge `move(b, a)` of chain `c`,
/// pocket `i`, then reads `win(a)`, which lies in the edge's cone.
#[derive(Clone)]
pub struct Toggle {
    pub retract: bool,
    pub from: String,
    pub to: String,
}

impl Toggle {
    pub fn script(&self) -> String {
        let sign = if self.retract { '-' } else { '+' };
        format!(
            "{sign}move({}, {}).\n?win({}).\n",
            self.from, self.to, self.to
        )
    }
}

/// `pairs` retract/re-insert pairs over distinct seeded pocket edges;
/// every retracted edge is re-inserted by the next write, so the
/// database returns to its starting state after each pair.
pub fn churn_toggles(seed: u64, tag: &str, pairs: usize) -> Vec<Toggle> {
    let mut rng = Rng::new(seed, 0xC4);
    let mut out = Vec::with_capacity(pairs * 2);
    for _ in 0..pairs {
        let c = rng.below(HOT_CHAINS);
        let i = rng.below(HOT_POCKETS);
        let from = format!("{tag}t{c}b{i}");
        let to = format!("{tag}t{c}a{i}");
        for retract in [true, false] {
            out.push(Toggle {
                retract,
                from: from.clone(),
                to: to.clone(),
            });
        }
    }
    out
}

/// One cold instance's toggle for the in-process write probe: assert
/// and retract the first pocket atom of chain 0 as a fact.
pub fn cold_toggle_atom(tag: &str) -> String {
    format!("{tag}u0p0n0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retag_prefixes_lowercase_identifiers_only() {
        assert_eq!(
            retag("win(X) :- move(X, Y), not win(Y).", "q", &["not", "move"]),
            "qwin(X) :- move(X, Y), not qwin(Y)."
        );
    }

    #[test]
    fn instances_are_seeded_and_parse() {
        let (a, _) = hot_instance(1, 0);
        let (b, _) = hot_instance(1, 0);
        assert_eq!(a.database, b.database);
        assert_ne!(a.database, hot_instance(1, 1).0.database);
        assert!(datalog_ast::parse_database(&a.database).is_ok());
        let (c0, _) = cold_instance(1, 0);
        let (c1, _) = cold_instance(1, 1);
        assert_ne!(c0.program, c1.program);
        assert!(datalog_ast::parse_program(&c1.program).is_ok());
    }
}
