//! Atom-head index over the hypothesis context `Δ`.
//!
//! `find_hint` probes every hypothesis for every goal atom, and a probe
//! is expensive: a checkpoint of the variable and mask stores, a
//! recursive descent, candidate generation, unification attempts, and a
//! rollback. Most probes fail for a *structural* reason visible without
//! any of that machinery — a points-to hypothesis can never key a hint
//! for an abstract-predicate goal. A [`HeadSet`] summarizes, per
//! hypothesis, which goal *heads* it could possibly produce a base hint
//! for, so the scan skips structurally hopeless hypotheses outright.
//!
//! ## Soundness of skipping
//!
//! The summary must over-approximate `hint_from_hyp`:
//!
//! - The walk mirrors the recursive-hint closure (§4.3): laters, wand
//!   conclusions, fancy-update bodies and `∀`-bodies are transparent,
//!   and invariant hypotheses additionally contribute the heads of their
//!   body (the left-goal descent of `hint_in_left_goal`). Timelessness
//!   and mask side conditions are *ignored* here — they can only make
//!   the real search fail, so ignoring them keeps the summary a
//!   superset.
//! - **Ghost leaves poison the set** ([`HeadSet::any`]): a ghost
//!   library's `hints(vars, hyp, goal)` may target any goal atom
//!   whatsoever (e.g. the counting library keys `P q` abstract-predicate
//!   goals on a `token γ` hypothesis), so a hypothesis containing a
//!   ghost atom is never skipped.
//! - **Keyed annotation hints disable head filtering**
//!   ([`HeadSet::has_atom`]): a keyed `HINT H ⊫ A ∗ [U]` is tried on
//!   every `(hyp, goal)` pair, so when any is declared a hypothesis may
//!   only be skipped if it has no reachable leaf atom at all (pure facts,
//!   disjunctions).
//!
//! Heads are *term-independent*: substitution and zonking rewrite term
//! leaves but preserve every constructor, `PredId`, `GhostKind` and
//! `Namespace` the walk inspects ([`diaframe_logic::Atom::rewrite_terms`]),
//! and the strategy's in-place hypothesis rewrites (later-stripping,
//! ghost/points-to/fraction merges) also preserve heads. A `HeadSet`
//! computed at `add_hyp` time therefore never goes stale.
//!
//! Because every failed probe is fully rolled back (variable numbering
//! included — see `VarCtx::rollback`), skipping a doomed probe is
//! observationally identical to running it: proof traces are bit-equal
//! with the index on or off. The scoped `Ablation::linear_scan` switch
//! forces the plain linear scan for one verification; the equivalence
//! tests and the fuzz oracle compare the two.

use diaframe_logic::{Assertion, Atom, Namespace, PredId, PredTable};

/// A human-readable name for a goal atom's *head* — the same structural
/// key [`HeadSet::may_key`] dispatches on. Telemetry uses this to label
/// failed-probe counters and the "unmatched goal head" line of a stuck
/// report, so the taxonomy here must stay in sync with `may_key`.
#[must_use]
pub fn goal_head(atom: &Atom, preds: &PredTable) -> String {
    match atom {
        Atom::PointsTo { .. } => "↦ (points-to)".to_string(),
        Atom::Ghost(g) => format!("ghost {}", g.kind),
        Atom::PredApp { pred, .. } => format!("pred {}", preds.info(*pred).name),
        Atom::Invariant { ns, .. } => format!("inv {ns}"),
        Atom::CloseInv { ns } => format!("close-inv {ns}"),
        Atom::Wp { .. } => "wp".to_string(),
    }
}

/// The atom heads a hypothesis can possibly key a hint on — a
/// conservative, term-independent summary of `hint_from_hyp`'s reach.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeadSet {
    /// Contains a ghost leaf: may key *any* goal (ghost-library hints
    /// are goal-shape generic).
    any: bool,
    /// Contains a points-to leaf.
    points_to: bool,
    /// Contains at least one leaf atom of any shape (gate for
    /// user-provided hints, which are goal-shape generic).
    has_atom: bool,
    /// Abstract-predicate leaves (tiny in practice; linear scan beats
    /// hashing).
    preds: Vec<PredId>,
    /// Invariant hypotheses / leaves, by namespace (`inv-dup` targets).
    invs: Vec<Namespace>,
    /// Close-marker leaves, by namespace.
    closes: Vec<Namespace>,
}

impl HeadSet {
    /// The head summary of one (clean) hypothesis assertion.
    #[must_use]
    pub fn of(hyp: &Assertion) -> HeadSet {
        let mut hs = HeadSet::default();
        hs.add_hyp(hyp);
        hs
    }

    /// Whether a hypothesis with this summary could key a hint for
    /// `goal`. `custom_hints_active` must be true whenever the running
    /// `VerifyOptions` carry a keyed hint.
    #[must_use]
    pub fn may_key(&self, goal: &Atom, custom_hints_active: bool) -> bool {
        if self.any || (custom_hints_active && self.has_atom) {
            return true;
        }
        match goal {
            Atom::PointsTo { .. } => self.points_to,
            // Ghost goals are keyed only by ghost hypotheses (`any`).
            Atom::Ghost(_) => false,
            Atom::PredApp { pred, .. } => self.preds.contains(pred),
            Atom::Invariant { ns, .. } => self.invs.contains(ns),
            Atom::CloseInv { ns } => self.closes.contains(ns),
            // `wp` goals never reach `find_hint`; stay safe if one does.
            Atom::Wp { .. } => true,
        }
    }

    /// Mirrors `hint_from_hyp`: the hypothesis-side recursive closure.
    fn add_hyp(&mut self, a: &Assertion) {
        match a {
            Assertion::Atom(at) => self.add_leaf(at),
            Assertion::Later(x) => self.add_hyp(x),
            Assertion::Wand(_, c) => self.add_hyp(c),
            Assertion::FUpd(_, _, c) => self.add_hyp(c),
            Assertion::Forall(_, body) => self.add_hyp(body),
            // Pure facts, disjunctions, existentials, `∗` and basic
            // updates produce no hypothesis-side hints.
            _ => {}
        }
    }

    /// Mirrors `hint_in_left_goal`: the descent into an opened
    /// invariant's body.
    fn add_left_goal(&mut self, lg: &Assertion) {
        match lg {
            Assertion::Atom(at) => self.add_leaf(at),
            Assertion::Exists(_, body) => self.add_left_goal(body),
            Assertion::Sep(l, r) => {
                self.add_left_goal(l);
                self.add_left_goal(r);
            }
            Assertion::Later(x) => self.add_left_goal(x),
            _ => {}
        }
    }

    fn add_leaf(&mut self, at: &Atom) {
        self.has_atom = true;
        match at {
            Atom::PointsTo { .. } => self.points_to = true,
            Atom::Ghost(_) => self.any = true,
            Atom::PredApp { pred, .. } => {
                if !self.preds.contains(pred) {
                    self.preds.push(*pred);
                }
            }
            Atom::Invariant { ns, body } => {
                if !self.invs.contains(ns) {
                    self.invs.push(ns.clone());
                }
                self.add_left_goal(body);
            }
            Atom::CloseInv { ns } => {
                if !self.closes.contains(ns) {
                    self.closes.push(ns.clone());
                }
            }
            Atom::Wp { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_logic::{Binder, GhostAtom, GhostKind, MaskT, PredTable, WpPost};
    use diaframe_term::{PureProp, Sort, Term, VarCtx};

    fn pto() -> Atom {
        Atom::points_to(Term::Loc(0), Term::v_unit())
    }

    fn ghost() -> Atom {
        Atom::Ghost(GhostAtom {
            kind: GhostKind { id: 9, name: "tok" },
            gname: Term::Loc(1),
            pred: None,
            args: Vec::new(),
        })
    }

    fn pred(preds: &mut PredTable, name: &str) -> Atom {
        let p = preds.fresh_plain(name);
        Atom::PredApp {
            pred: p,
            args: Vec::new(),
        }
    }

    #[test]
    fn heads_match_by_shape() {
        let mut preds = PredTable::new();
        let p = pred(&mut preds, "P");
        let q = pred(&mut preds, "Q");

        let hs = HeadSet::of(&Assertion::atom(pto()));
        assert!(hs.may_key(&pto(), false));
        assert!(!hs.may_key(&ghost(), false));
        assert!(!hs.may_key(&p, false));
        // Custom hints force a probe of any atom-bearing hypothesis.
        assert!(hs.may_key(&p, true));

        let hs = HeadSet::of(&Assertion::atom(p.clone()));
        assert!(hs.may_key(&p, false));
        assert!(!hs.may_key(&q, false));
        assert!(!hs.may_key(&pto(), false));
    }

    #[test]
    fn ghost_leaves_poison() {
        let mut preds = PredTable::new();
        let p = pred(&mut preds, "P");
        let hs = HeadSet::of(&Assertion::atom(ghost()));
        // Ghost-library hints may target any goal shape.
        assert!(hs.may_key(&p, false));
        assert!(hs.may_key(&pto(), false));
        assert!(hs.may_key(&ghost(), false));
    }

    #[test]
    fn pure_hypotheses_never_probe() {
        let hs = HeadSet::of(&Assertion::pure(PureProp::True));
        assert!(!hs.may_key(&pto(), false));
        // …even with keyed hints active: there is no atom to hand them.
        assert!(!hs.may_key(&pto(), true));
    }

    #[test]
    fn recursive_closure_is_transparent() {
        // ▷(L −∗ ∀x. |⇛ ℓ ↦ v) exposes the points-to head.
        let mut vars = VarCtx::new();
        let x = vars.fresh_var(Sort::Int, "x");
        let a = Assertion::later(Assertion::wand(
            Assertion::pure(PureProp::True),
            Assertion::forall(
                Binder::new(x),
                Assertion::fupd(MaskT::top(), MaskT::top(), Assertion::atom(pto())),
            ),
        ));
        let hs = HeadSet::of(&a);
        assert!(hs.may_key(&pto(), false));
        assert!(!hs.may_key(&ghost(), false));
        // Wand *premises* contribute nothing.
        let a = Assertion::wand(Assertion::atom(pto()), Assertion::pure(PureProp::True));
        assert!(!HeadSet::of(&a).may_key(&pto(), false));
    }

    #[test]
    fn invariants_expose_interior_heads() {
        let ns = Namespace::new("N");
        // Ghost-free invariant: matching stays head-precise.
        let inv = Atom::invariant(
            ns.clone(),
            Assertion::exists(
                Binder::new(VarCtx::new().fresh_var(Sort::Int, "n")),
                Assertion::sep(Assertion::pure(PureProp::True), Assertion::atom(pto())),
            ),
        );
        let hs = HeadSet::of(&Assertion::atom(inv.clone()));
        // inv-dup on the same namespace, and opening reaches the interior…
        assert!(hs.may_key(&inv, false));
        assert!(hs.may_key(&pto(), false));
        // …but foreign namespaces and unrelated heads stay skippable.
        assert!(!hs.may_key(
            &Atom::CloseInv {
                ns: Namespace::new("M")
            },
            false
        ));
        assert!(!hs.may_key(&ghost(), false));
        assert!(!hs.may_key(
            &Atom::PredApp {
                pred: PredTable::new().fresh_plain("R"),
                args: Vec::new()
            },
            false
        ));

        // A ghost in the body poisons the whole summary.
        let inv = Atom::invariant(ns, Assertion::atom(ghost()));
        let hs = HeadSet::of(&Assertion::atom(inv));
        assert!(hs.may_key(
            &Atom::CloseInv {
                ns: Namespace::new("M")
            },
            false
        ));
        assert!(hs.may_key(
            &Atom::PredApp {
                pred: PredTable::new().fresh_plain("R"),
                args: Vec::new()
            },
            false
        ));
    }

    #[test]
    fn wp_hypotheses_add_nothing_but_wp_goals_stay_safe() {
        let mut vars = VarCtx::new();
        let r = vars.fresh_var(Sort::Val, "r");
        let wp = Atom::Wp {
            expr: diaframe_heaplang::Expr::Val(diaframe_heaplang::Val::Unit),
            mask: MaskT::top(),
            post: WpPost {
                ret: r,
                body: std::sync::Arc::new(Assertion::emp()),
            },
        };
        let hs = HeadSet::of(&Assertion::atom(wp.clone()));
        assert!(!hs.may_key(&pto(), false));
        // A wp *goal* is never pruned.
        assert!(HeadSet::of(&Assertion::atom(pto())).may_key(&wp, false));
    }
}
