//! The ground graph *G(Π, Δ)*.
//!
//! Paper, Section 2: a bipartite directed graph with predicate nodes (all
//! ground atoms over *U*, see [`AtomTable`]) and rule nodes (one per rule
//! per substitution of its variables by constants of *U*), a positive edge
//! from each rule node to its instantiated head, and a signed edge from
//! each instantiated body atom to the rule node.
//!
//! Rule nodes carry provenance (source rule index and substitution) so
//! interpreters can explain derivations.
//!
//! The graph is **extendable**: the delta grounder of the incremental
//! session appends newly supportable atoms ([`GroundGraph::intern_atom`])
//! and rule instances ([`GroundGraph::push_rule`]) after the initial
//! build, and [`GroundGraph::forward_cone`] computes the set of nodes a
//! mutation can possibly affect — the forward closure along graph edges
//! (body atom → rule node → head atom), which is exactly how far `close`
//! propagation can travel.

use datalog_ast::{ConstSym, GroundAtom, PredSym, Program, Sign};

use crate::atoms::{AtomId, AtomSpaceOverflow, AtomTable};
use crate::csr::CsrArena;

/// Identifier of a rule node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RuleId(pub u32);

impl RuleId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One rule node: an instantiation `r(a₁, …, a_k)` of a source rule.
#[derive(Clone, Debug)]
pub struct GroundRule {
    /// The instantiated head atom.
    pub head: AtomId,
    /// The instantiated body: `(atom, sign)` per literal, in source order.
    /// The same atom may occur several times (even with both signs).
    pub body: Box<[(AtomId, Sign)]>,
    /// Index of the source rule in the program.
    pub rule_index: u32,
    /// The substitution: constants assigned to the rule's variables in
    /// [`datalog_ast::Rule::variables`] order. Empty for variable-free
    /// rules.
    pub subst: Box<[ConstSym]>,
}

/// The forward cone of a mutation: the nodes reachable from the changed
/// atoms (and any freshly appended rule instances) along graph edges.
/// See [`GroundGraph::forward_cone`].
#[derive(Clone, Debug, Default)]
pub struct Cone {
    /// Member atoms, in discovery order.
    pub atoms: Vec<AtomId>,
    /// Member rule nodes, in discovery order.
    pub rules: Vec<RuleId>,
    /// Membership bitmap over all atoms.
    pub atom_in: Vec<bool>,
    /// Membership bitmap over all rule nodes.
    pub rule_in: Vec<bool>,
}

/// Resident-size accounting for one prepared [`GroundGraph`] — what a
/// serving tier's admission control and LRU eviction budget against.
/// See [`GroundGraph::footprint`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphFootprint {
    /// Atom (predicate) nodes.
    pub atoms: usize,
    /// Rule nodes.
    pub rules: usize,
    /// Graph edges (head + body).
    pub edges: usize,
    /// Approximate resident bytes of the graph's dominant allocations.
    pub approx_bytes: usize,
}

/// The ground graph: atoms (via the table) plus rule nodes and their
/// incidence lists.
///
/// The incidence lists are CSR arenas indexed by atom: a build sizes
/// them exactly (a few allocations for the whole graph, not two per
/// atom), and delta grounding appends to them in place or at the slab
/// tail ([`GroundGraph::push_rule`]). Either way each list holds its
/// rule nodes in ascending id order.
#[derive(Clone, Debug)]
pub struct GroundGraph {
    atoms: AtomTable,
    rules: Vec<GroundRule>,
    /// For each atom: the rule nodes in whose body it occurs, with sign.
    atom_uses: CsrArena<(RuleId, Sign)>,
    /// For each atom: the rule nodes whose head it is.
    atom_heads: CsrArena<RuleId>,
}

impl GroundGraph {
    /// Assembles a ground graph from its parts. `rules` must reference
    /// only atoms of `atoms`. (Normally called via [`crate::ground`].)
    pub fn from_parts(atoms: AtomTable, rules: Vec<GroundRule>) -> Self {
        let mut use_counts = vec![0u32; atoms.len()];
        let mut head_counts = vec![0u32; atoms.len()];
        for rule in &rules {
            head_counts[rule.head.index()] += 1;
            for &(a, _) in &rule.body {
                use_counts[a.index()] += 1;
            }
        }
        let (mut atom_uses, mut use_cursors) =
            CsrArena::from_counts(&use_counts, (RuleId(0), Sign::Pos));
        let (mut atom_heads, mut head_cursors) = CsrArena::from_counts(&head_counts, RuleId(0));
        for (i, rule) in rules.iter().enumerate() {
            let id = RuleId(i as u32);
            atom_heads.place(&mut head_cursors, rule.head.0, id);
            for &(a, s) in &rule.body {
                atom_uses.place(&mut use_cursors, a.0, (id, s));
            }
        }
        GroundGraph {
            atoms,
            rules,
            atom_uses,
            atom_heads,
        }
    }

    /// The atom table (predicate nodes).
    pub fn atoms(&self) -> &AtomTable {
        &self.atoms
    }

    /// Number of atom nodes.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// The rule nodes.
    pub fn rules(&self) -> &[GroundRule] {
        &self.rules
    }

    /// Number of rule nodes.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The rule node with id `r`.
    pub fn rule(&self, r: RuleId) -> &GroundRule {
        &self.rules[r.index()]
    }

    /// The body occurrences of `atom` across all rule nodes.
    pub fn uses_of(&self, atom: AtomId) -> &[(RuleId, Sign)] {
        self.atom_uses.get(atom.0)
    }

    /// The rule nodes whose head is `atom`.
    pub fn heads_of(&self, atom: AtomId) -> &[RuleId] {
        self.atom_heads.get(atom.0)
    }

    /// Total number of edges (head edges + body edges).
    pub fn edge_count(&self) -> usize {
        self.rules.len() + self.rules.iter().map(|r| r.body.len()).sum::<usize>()
    }

    /// The graph's resident-size accounting: node/edge counts plus an
    /// approximate byte estimate of the dominant allocations (rule
    /// bodies and substitutions, incidence lists, atom-table spines).
    ///
    /// This is the unit a serving tier budgets prepared sessions in —
    /// the same graph the ground budgets ([`crate::GroundConfig`]) cap
    /// at build time, re-measured as delta grounding grows it.
    pub fn footprint(&self) -> GraphFootprint {
        let atoms = self.atom_count();
        let rules = self.rule_count();
        let edges = self.edge_count();
        let subst_consts: usize = self.rules.iter().map(|r| r.subst.len()).sum();
        // Per atom: decode entry + index slot + per-predicate link + two
        // incidence spans (12 bytes each).
        // Per rule: the GroundRule header (with two boxed-slice headers).
        // Per edge: a body slot plus its incidence-arena mirror.
        let approx_bytes = atoms * 88 + rules * 48 + edges * 16 + subst_consts * 4;
        GraphFootprint {
            atoms,
            rules,
            edges,
            approx_bytes,
        }
    }

    /// Interns a new atom into a sparse table (see
    /// [`AtomTable::intern`]), growing the incidence lists so the new id
    /// is immediately addressable.
    ///
    /// # Errors
    ///
    /// [`AtomSpaceOverflow`] past the `max_atoms` budget.
    ///
    /// # Panics
    ///
    /// If the atom table uses the dense layout.
    pub fn intern_atom(
        &mut self,
        atom: &GroundAtom,
        max_atoms: u64,
    ) -> Result<AtomId, AtomSpaceOverflow> {
        self.intern_tuple(atom.pred, &atom.args, max_atoms)
    }

    /// [`GroundGraph::intern_atom`] of the atom `pred(args…)`, from a
    /// borrowed tuple.
    ///
    /// # Errors
    ///
    /// As for [`GroundGraph::intern_atom`].
    ///
    /// # Panics
    ///
    /// As for [`GroundGraph::intern_atom`].
    pub fn intern_tuple(
        &mut self,
        pred: PredSym,
        args: &[ConstSym],
        max_atoms: u64,
    ) -> Result<AtomId, AtomSpaceOverflow> {
        let id = self.atoms.intern_tuple(pred, args, max_atoms)?;
        self.atom_uses.ensure_slot(id.0);
        self.atom_heads.ensure_slot(id.0);
        Ok(id)
    }

    /// Appends a rule node, wiring its head and body incidence. All of
    /// its atoms must already be in the table.
    pub fn push_rule(&mut self, rule: GroundRule) -> RuleId {
        let id = RuleId(u32::try_from(self.rules.len()).expect("rule ids fit u32 within budget"));
        self.atom_heads.push(rule.head.0, id);
        for &(a, s) in &rule.body {
            self.atom_uses.push(a.0, (id, s));
        }
        self.atom_heads.compact();
        self.atom_uses.compact();
        self.rules.push(rule);
        id
    }

    /// The forward closure of `seed_atoms` ∪ `seed_rules` along graph
    /// edges (body atom → rule node → head atom): every node whose
    /// `close` state a change at the seeds could possibly influence.
    /// Nodes are collected dead or alive — a mutation can *revive*
    /// previously deleted nodes, so the cone must be computed on the
    /// static graph.
    pub fn forward_cone(
        &self,
        seed_atoms: impl IntoIterator<Item = AtomId>,
        seed_rules: impl IntoIterator<Item = RuleId>,
    ) -> Cone {
        let mut cone = Cone::default();
        self.forward_cone_into(&mut cone, seed_atoms, seed_rules);
        cone
    }

    /// [`GroundGraph::forward_cone`] into a cone left by an earlier call,
    /// reusing its membership bitmaps: only the entries the old cone
    /// marked are cleared, and the bitmaps grow with the graph, so a call
    /// costs O(cone) rather than O(graph).
    pub fn forward_cone_into(
        &self,
        cone: &mut Cone,
        seed_atoms: impl IntoIterator<Item = AtomId>,
        seed_rules: impl IntoIterator<Item = RuleId>,
    ) {
        for a in cone.atoms.drain(..) {
            cone.atom_in[a.index()] = false;
        }
        for r in cone.rules.drain(..) {
            cone.rule_in[r.index()] = false;
        }
        cone.atom_in.resize(self.atom_count(), false);
        cone.rule_in.resize(self.rule_count(), false);
        let mut atom_stack: Vec<AtomId> = Vec::new();
        let mut rule_stack: Vec<RuleId> = Vec::new();
        for a in seed_atoms {
            if !cone.atom_in[a.index()] {
                cone.atom_in[a.index()] = true;
                atom_stack.push(a);
            }
        }
        for r in seed_rules {
            if !cone.rule_in[r.index()] {
                cone.rule_in[r.index()] = true;
                rule_stack.push(r);
            }
        }
        loop {
            if let Some(a) = atom_stack.pop() {
                cone.atoms.push(a);
                for &(r, _) in self.uses_of(a) {
                    if !cone.rule_in[r.index()] {
                        cone.rule_in[r.index()] = true;
                        rule_stack.push(r);
                    }
                }
            } else if let Some(r) = rule_stack.pop() {
                cone.rules.push(r);
                let head = self.rule(r).head;
                if !cone.atom_in[head.index()] {
                    cone.atom_in[head.index()] = true;
                    atom_stack.push(head);
                }
            } else {
                break;
            }
        }
    }

    /// Pretty-prints a rule node as `rule#i[subst]: head :- body`.
    pub fn describe_rule(&self, program: &Program, r: RuleId) -> String {
        use std::fmt::Write as _;
        let rule = self.rule(r);
        let src = &program.rules()[rule.rule_index as usize];
        let vars = src.variables();
        let mut s = format!("r{}", rule.rule_index);
        if !rule.subst.is_empty() {
            s.push('[');
            for (i, (v, c)) in vars.iter().zip(rule.subst.iter()).enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "{v}={c}");
            }
            s.push(']');
        }
        let _ = write!(s, ": {}", self.atoms.decode(rule.head));
        if !rule.body.is_empty() {
            s.push_str(" :- ");
            for (i, &(a, sign)) in rule.body.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                if sign.is_neg() {
                    s.push_str("not ");
                }
                let _ = write!(s, "{}", self.atoms.decode(a));
            }
        }
        s
    }
}
