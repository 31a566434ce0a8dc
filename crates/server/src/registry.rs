//! LRU registry of prepared sessions, keyed by program + database
//! source text.
//!
//! Preparing a session (ground → close → condense) is the expensive
//! part of serving; the registry makes it a shared, reusable artifact.
//! Two clients opening the same program+db pair get the *same*
//! [`ScriptSession`] (serialized by its mutex), so the second open is a
//! registry hit that skips preparation entirely.
//!
//! Memory discipline has two knobs, both tied to the existing grounding
//! budgets rather than a new accounting scheme:
//!
//! * **capacity** — at most [`RegistryConfig::max_sessions`] resident
//!   sessions; opening past that evicts the least-recently-used entry;
//! * **admission** — the sum of resident ground-graph footprints (in
//!   atoms, the same unit as [`GroundConfig::max_atoms`]) must stay
//!   under [`RegistryConfig::max_resident_atoms`]. An open that would
//!   exceed it evicts LRU entries first; if the new session *alone*
//!   busts the budget it is refused outright
//!   ([`OpenError::AdmissionDenied`]).
//!
//! Eviction is graceful degradation, not failure: an evicted key's next
//! open simply falls back to a full re-prepare. Entries checked out by
//! a connection when evicted stay alive (the connection holds an `Arc`)
//! and are dropped when the last user finishes.
//!
//! Preparation runs **outside** the registry lock — a slow ground of
//! one program must not block hits on other keys. The cost is a benign
//! race: two connections may prepare the same key concurrently; the
//! loser discards its solver and adopts the winner's entry.
//!
//! [`GroundConfig::max_atoms`]: tiebreak_core::GroundConfig

use std::collections::HashMap;
use std::hash::Hasher;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tiebreak_core::EngineConfig;
use tiebreak_runtime::Solver;

use crate::script::ScriptSession;

/// Registry sizing and the engine configuration shared by every session
/// it prepares.
#[derive(Clone, Copy, Debug)]
pub struct RegistryConfig {
    /// Engine configuration applied to every prepared session.
    pub engine: EngineConfig,
    /// Strict admission: run the static analyzer, modeling the relevant
    /// grounding every session runs, on every miss before paying for
    /// preparation. Error-severity lints reject the open (cheaply,
    /// pre-lock), and the analysis summary is cached on the entry and
    /// echoed in the open response. The analysis changes no
    /// evaluation: an admitted session serves the same bytes as without
    /// strict mode.
    pub strict: bool,
    /// `? outcomes` semantics for prepared sessions (`pure-tb` vs
    /// wf-tb).
    pub pure: bool,
    /// Maximum resident sessions before LRU eviction.
    pub max_sessions: usize,
    /// Total resident ground-atom budget across all sessions — same
    /// unit as the grounder's per-session `max_atoms` budget.
    pub max_resident_atoms: u64,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        let engine = EngineConfig::default();
        RegistryConfig {
            engine,
            strict: false,
            pure: false,
            max_sessions: 64,
            // Default pool: four sessions' worth of the per-session
            // grounding budget.
            max_resident_atoms: engine.ground.max_atoms.saturating_mul(4),
        }
    }
}

/// One resident prepared session.
pub struct SessionEntry {
    key: u64,
    /// The interpreter; connections serialize on this mutex.
    session: Mutex<ScriptSession>,
    /// Ground-graph atom count, refreshed by [`SessionEntry::sync_footprint`]
    /// after mutations. Read lock-free by the admission check.
    resident_atoms: AtomicUsize,
    /// Mutation epoch mirror of the solver's, refreshed alongside
    /// `resident_atoms` so `stats` can report it without taking the
    /// session lock.
    epoch: AtomicU64,
    /// LRU stamp from the registry's logical clock.
    last_used: AtomicU64,
    /// One-line analysis summary (strict mode only), echoed to every
    /// connection that opens this session.
    analysis: Option<String>,
}

impl SessionEntry {
    /// The registry key (FxHash of program + database source).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The cached analysis summary, when the registry ran in strict
    /// mode when this entry was prepared.
    pub fn analysis_summary(&self) -> Option<&str> {
        self.analysis.as_deref()
    }

    /// Locks the interpreter. Poisoning is survivable: the solver
    /// rolls back failed batches itself, so a panicking connection
    /// leaves the session consistent.
    pub fn lock(&self) -> MutexGuard<'_, ScriptSession> {
        self.session.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Re-reads the ground-graph atom count (and mutation epoch) into
    /// the lock-free mirrors. Call after running script batches: incremental
    /// grounding can grow the graph, and admission control should see
    /// that growth.
    pub fn sync_footprint(&self, session: &ScriptSession) {
        // The atom count alone, O(1): this runs after every script
        // frame, reads included.
        self.resident_atoms
            .store(session.solver().graph().atom_count(), Ordering::Relaxed);
        self.epoch
            .store(session.solver().epoch(), Ordering::Relaxed);
    }

    /// Resident ground atoms (lock-free mirror; see
    /// [`SessionEntry::sync_footprint`]).
    pub fn atoms(&self) -> usize {
        self.resident_atoms.load(Ordering::Relaxed)
    }
}

/// Why an open was refused.
#[derive(Debug)]
pub enum OpenError {
    /// The program/database failed to parse or prepare.
    Prepare(String),
    /// Strict mode: the static analyzer found error-severity lints, so
    /// the open was refused before preparation was paid for.
    Rejected(String),
    /// The prepared session alone exceeds the resident-atom budget;
    /// admitting it could not be fixed by evicting others.
    AdmissionDenied {
        /// Ground atoms the new session would pin.
        atoms: u64,
        /// The configured pool budget.
        budget: u64,
    },
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::Prepare(msg) => write!(f, "prepare failed: {msg}"),
            OpenError::Rejected(msg) => write!(f, "rejected by analysis: {msg}"),
            OpenError::AdmissionDenied { atoms, budget } => write!(
                f,
                "admission denied: session needs {atoms} resident ground atoms, pool budget is \
                 {budget}"
            ),
        }
    }
}

impl std::error::Error for OpenError {}

/// A successful open: the (possibly shared) entry plus what it cost.
pub struct OpenOutcome {
    /// The resident session; clone-shared with every other connection
    /// on the same key.
    pub entry: Arc<SessionEntry>,
    /// Registry hit — preparation was skipped.
    pub reused: bool,
    /// Sessions evicted to admit this one.
    pub evicted: usize,
}

/// Point-in-time registry counters (the server's `stats` verb).
#[derive(Clone, Debug, Default)]
pub struct RegistryStats {
    /// Resident sessions.
    pub sessions: usize,
    /// Sum of resident ground-graph atom counts.
    pub resident_atoms: u64,
    /// Opens served from the registry.
    pub hits: u64,
    /// Opens that prepared a new session.
    pub misses: u64,
    /// Sessions evicted (capacity or admission pressure).
    pub evictions: u64,
    /// Opens refused by admission control.
    pub rejected: u64,
    /// Per-session breakdown, most-recently-used first.
    pub per_session: Vec<SessionStat>,
}

/// One resident session's line in the `stats` breakdown.
#[derive(Clone, Copy, Debug)]
pub struct SessionStat {
    /// Registry key (FxHash of program + database source).
    pub key: u64,
    /// Mutation epoch the session has reached.
    pub epoch: u64,
    /// Resident ground atoms pinned by this session.
    pub resident_atoms: u64,
    /// LRU stamp from the registry's logical clock (higher = more
    /// recently used).
    pub last_used: u64,
}

#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    rejected: u64,
}

/// The shared LRU session registry.
pub struct SessionRegistry {
    config: RegistryConfig,
    /// The reply cap every prepared session renders under
    /// ([`ScriptSession::with_reply_cap`]): the server's frame cap.
    reply_cap: Option<usize>,
    inner: Mutex<Inner>,
    /// Logical clock for LRU stamps.
    clock: AtomicU64,
}

struct Inner {
    entries: HashMap<u64, Arc<SessionEntry>>,
    counters: Counters,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new(config: RegistryConfig) -> Self {
        SessionRegistry {
            config,
            reply_cap: None,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                counters: Counters::default(),
            }),
            clock: AtomicU64::new(0),
        }
    }

    /// Caps the replies of every session this registry prepares at the
    /// server's frame cap.
    pub(crate) fn with_reply_cap(mut self, max_frame: u32) -> Self {
        self.reply_cap = Some(max_frame as usize);
        self
    }

    /// The configuration the registry was built with.
    pub fn config(&self) -> &RegistryConfig {
        &self.config
    }

    /// The registry key for a program + database source pair.
    pub fn key_of(program: &str, database: &str) -> u64 {
        let mut h = datalog_ast::fxhash::FxHasher::default();
        h.write(program.as_bytes());
        // Disambiguate the boundary so ("ab","c") != ("a","bc").
        h.write_u8(0xff);
        h.write(database.as_bytes());
        h.finish()
    }

    /// Opens (or reuses) the session for a program + database pair.
    ///
    /// Preparation happens outside the registry lock; see the module
    /// docs for the hit/miss/eviction protocol.
    ///
    /// # Errors
    ///
    /// [`OpenError::Prepare`] when the sources don't prepare;
    /// [`OpenError::AdmissionDenied`] when the session alone exceeds
    /// the resident-atom budget.
    pub fn open(&self, program: &str, database: &str) -> Result<OpenOutcome, OpenError> {
        // Parents the prepare spans Solver::with_config opens below, so
        // a traced open shows request → registry_open → prepare.
        let mut span = tiebreak_trace::span("server", "registry_open", &[]);
        let key = Self::key_of(program, database);

        if let Some(entry) = self.lookup(key) {
            span.arg("hit", 1);
            return Ok(OpenOutcome {
                entry,
                reused: true,
                evicted: 0,
            });
        }

        // Miss: parse, (optionally) analyze, then prepare — all outside
        // the lock. In strict mode the analyzer runs before preparation,
        // so an error lint costs a predicate-level pass, not a grounding
        // attempt.
        let ast_program =
            datalog_ast::parse_program(program).map_err(|e| OpenError::Prepare(e.to_string()))?;
        let ast_database =
            datalog_ast::parse_database(database).map_err(|e| OpenError::Prepare(e.to_string()))?;
        let engine = self.config.engine;
        let mut summary = None;
        if self.config.strict {
            let report = datalog_analyze::analyze(
                &ast_program,
                Some(&ast_database),
                &datalog_analyze::AnalyzeConfig::for_ground(
                    datalog_ground::GroundMode::Relevant,
                    engine.ground,
                ),
            );
            if report.has_errors() {
                let mut inner = self.lock_inner();
                inner.counters.rejected += 1;
                tiebreak_trace::metrics().registry_rejected.inc();
                return Err(OpenError::Rejected(report.error_messages().join("; ")));
            }
            summary = Some(report.summary());
        }
        let solver = Solver::with_config(ast_program, ast_database, engine)
            .map_err(|e| OpenError::Prepare(e.to_string()))?;
        let atoms = solver.footprint().atoms;

        if atoms as u64 > self.config.max_resident_atoms {
            let mut inner = self.lock_inner();
            inner.counters.rejected += 1;
            tiebreak_trace::metrics().registry_rejected.inc();
            return Err(OpenError::AdmissionDenied {
                atoms: atoms as u64,
                budget: self.config.max_resident_atoms,
            });
        }

        let epoch = solver.epoch();
        let mut session = ScriptSession::new(solver, self.config.pure);
        if let Some(cap) = self.reply_cap {
            session = session.with_reply_cap(cap);
        }
        let entry = Arc::new(SessionEntry {
            key,
            session: Mutex::new(session),
            resident_atoms: AtomicUsize::new(atoms),
            epoch: AtomicU64::new(epoch),
            last_used: AtomicU64::new(self.tick()),
            analysis: summary,
        });

        let mut inner = self.lock_inner();
        // Benign race: someone may have registered this key while we
        // were preparing. Their entry wins; our solver is dropped.
        if let Some(existing) = inner.entries.get(&key) {
            let existing = Arc::clone(existing);
            existing.last_used.store(self.tick(), Ordering::Relaxed);
            inner.counters.hits += 1;
            tiebreak_trace::metrics().registry_hits.inc();
            return Ok(OpenOutcome {
                entry: existing,
                reused: true,
                evicted: 0,
            });
        }

        let evicted = self.make_room(&mut inner, atoms as u64);
        inner.counters.misses += 1;
        inner.counters.evictions += evicted.len() as u64;
        let m = tiebreak_trace::metrics();
        m.registry_misses.inc();
        m.registry_evictions.add(evicted.len() as u64);
        inner.entries.insert(key, Arc::clone(&entry));
        // An evicted session is torn down after the lock is released, so
        // its teardown stalls no other connection's open or lookup.
        drop(inner);
        Ok(OpenOutcome {
            entry,
            reused: false,
            evicted: evicted.len(),
        })
    }

    /// Drops the entry for a key (used by tests and explicit client
    /// resets). Connections holding the `Arc` keep using it; the next
    /// open re-prepares.
    pub fn evict(&self, key: u64) -> bool {
        let mut inner = self.lock_inner();
        let removed = inner.entries.remove(&key);
        if removed.is_some() {
            inner.counters.evictions += 1;
            tiebreak_trace::metrics().registry_evictions.inc();
        }
        drop(inner);
        removed.is_some()
    }

    /// Current registry counters plus the per-session breakdown.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.lock_inner();
        let mut per_session: Vec<SessionStat> = inner
            .entries
            .values()
            .map(|e| SessionStat {
                key: e.key,
                epoch: e.epoch.load(Ordering::Relaxed),
                resident_atoms: e.atoms() as u64,
                last_used: e.last_used.load(Ordering::Relaxed),
            })
            .collect();
        per_session.sort_by_key(|s| std::cmp::Reverse(s.last_used));
        RegistryStats {
            sessions: inner.entries.len(),
            resident_atoms: per_session.iter().map(|s| s.resident_atoms).sum(),
            hits: inner.counters.hits,
            misses: inner.counters.misses,
            evictions: inner.counters.evictions,
            rejected: inner.counters.rejected,
            per_session,
        }
    }

    fn lookup(&self, key: u64) -> Option<Arc<SessionEntry>> {
        let mut inner = self.lock_inner();
        if let Some(entry) = inner.entries.get(&key) {
            let entry = Arc::clone(entry);
            entry.last_used.store(self.tick(), Ordering::Relaxed);
            inner.counters.hits += 1;
            tiebreak_trace::metrics().registry_hits.inc();
            return Some(entry);
        }
        None
    }

    /// Evicts LRU entries until both the capacity and the resident-atom
    /// budget can absorb a new `incoming_atoms`-sized session. Returns
    /// the evicted entries, for the caller to drop once it has released
    /// the lock.
    fn make_room(&self, inner: &mut Inner, incoming_atoms: u64) -> Vec<Arc<SessionEntry>> {
        let mut evicted = Vec::new();
        loop {
            let resident: u64 = inner.entries.values().map(|e| e.atoms() as u64).sum();
            let over_capacity = inner.entries.len() >= self.config.max_sessions;
            let over_budget = resident + incoming_atoms > self.config.max_resident_atoms;
            if (!over_capacity && !over_budget) || inner.entries.is_empty() {
                return evicted;
            }
            let lru_key = inner
                .entries
                .values()
                .min_by_key(|e| e.last_used.load(Ordering::Relaxed))
                .map(|e| e.key)
                .expect("non-empty");
            evicted.extend(inner.entries.remove(&lru_key));
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn lock_inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "win(X) :- move(X, Y), not win(Y).";

    fn registry(max_sessions: usize, max_resident_atoms: u64) -> SessionRegistry {
        SessionRegistry::new(RegistryConfig {
            max_sessions,
            max_resident_atoms,
            ..RegistryConfig::default()
        })
    }

    #[test]
    fn second_open_is_a_hit_sharing_the_entry() {
        let reg = registry(8, u64::MAX >> 1);
        let a = reg.open(PROG, "move(a, b).").unwrap();
        assert!(!a.reused);
        let b = reg.open(PROG, "move(a, b).").unwrap();
        assert!(b.reused);
        assert!(Arc::ptr_eq(&a.entry, &b.entry));
        let stats = reg.stats();
        assert_eq!((stats.hits, stats.misses, stats.sessions), (1, 1, 1));
    }

    #[test]
    fn distinct_databases_get_distinct_sessions() {
        let reg = registry(8, u64::MAX >> 1);
        let a = reg.open(PROG, "move(a, b).").unwrap();
        let b = reg.open(PROG, "move(b, a).").unwrap();
        assert!(!Arc::ptr_eq(&a.entry, &b.entry));
        assert_eq!(reg.stats().sessions, 2);
    }

    #[test]
    fn capacity_pressure_evicts_lru() {
        let reg = registry(2, u64::MAX >> 1);
        let first = reg.open(PROG, "move(a, b).").unwrap();
        reg.open(PROG, "move(b, c).").unwrap();
        // Touch the first so the second is LRU.
        reg.open(PROG, "move(a, b).").unwrap();
        let third = reg.open(PROG, "move(c, d).").unwrap();
        assert_eq!(third.evicted, 1);
        // The first key survived; its next open is still a hit.
        let again = reg.open(PROG, "move(a, b).").unwrap();
        assert!(again.reused);
        assert!(Arc::ptr_eq(&first.entry, &again.entry));
        // The evicted key re-prepares: a miss, not a failure.
        let evicted_again = reg.open(PROG, "move(b, c).").unwrap();
        assert!(!evicted_again.reused);
    }

    #[test]
    fn admission_denies_sessions_bigger_than_the_pool() {
        let reg = registry(8, 1);
        match reg.open(PROG, "move(a, b).") {
            Err(OpenError::AdmissionDenied { atoms, budget }) => {
                assert!(atoms > 1);
                assert_eq!(budget, 1);
            }
            other => panic!("expected AdmissionDenied, got {:?}", other.map(|_| ())),
        }
        assert_eq!(reg.stats().rejected, 1);
    }

    #[test]
    fn budget_pressure_evicts_before_admitting() {
        let reg = registry(64, u64::MAX >> 1);
        let probe = reg.open(PROG, "move(a, b).").unwrap();
        let per_session = probe.entry.atoms() as u64;
        drop(probe);

        // Pool fits two sessions of this shape, not three.
        let reg = registry(64, per_session * 2);
        reg.open(PROG, "move(a, b).").unwrap();
        reg.open(PROG, "move(b, c).").unwrap();
        let third = reg.open(PROG, "move(c, d).").unwrap();
        assert_eq!(third.evicted, 1);
        let stats = reg.stats();
        assert_eq!(stats.sessions, 2);
        assert!(stats.resident_atoms <= per_session * 2);
    }

    #[test]
    fn key_disambiguates_program_database_boundary() {
        assert_ne!(
            SessionRegistry::key_of("ab", "c"),
            SessionRegistry::key_of("a", "bc")
        );
    }
}
