//! Congruence closure over non-numeric terms.
//!
//! A small union-find based congruence closure used for the equality /
//! disequality part of the pure solver: value-constructor injectivity and
//! disjointness, literal conflicts, and the two-valuedness of booleans.
//!
//! The state is **backtrackable**: every `parent` write (unions and the
//! path compression inside `find`) is recorded on an undo trail, so
//! [`Congruence::rollback`] restores an earlier [`Congruence::mark`]
//! exactly — node vector, id map, disequalities, derived facts, parent
//! layout, and the contradiction flag all return to their marked state.
//! That is what lets the incremental solver ([`crate::solver::egraph`])
//! assert a query's goal literals directly into the long-lived base state
//! and pop them afterwards instead of cloning the whole closure per query.

use crate::evar::VarCtx;
use crate::pure::PureProp;
use crate::sort::Sort;
use crate::term::Term;
use std::collections::HashMap;

/// Outcome of saturating the closure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClosureResult {
    /// The equalities are consistent (as far as this procedure can tell).
    Consistent,
    /// A contradiction was derived.
    Contradiction,
}

/// The congruence-closure engine.
///
/// Numeric-sorted equalities derived through injectivity (e.g. from
/// `#a = #b` conclude `a = b` over ℤ) are *exported* via
/// [`Congruence::derived_numeric`] so the linear solver can consume them.
#[derive(Debug, Clone, Default)]
pub struct Congruence {
    nodes: Vec<Term>,
    ids: HashMap<Term, usize>,
    parent: Vec<usize>,
    /// Disequality edges (by node id).
    diseqs: Vec<(usize, usize)>,
    /// Numeric equalities derived by injectivity, as pure propositions.
    derived: Vec<PureProp>,
    contradiction: bool,
    /// Undo trail of `(index, previous parent)` pairs, one per `parent`
    /// write. Entries above a mark are popped (newest first) on rollback.
    trail: Vec<(usize, usize)>,
    /// Total unions performed (monotonic; rollback does not decrement —
    /// this counts work done, not classes merged in the surviving state).
    unions: u64,
}

/// A point in a [`Congruence`]'s history; see [`Congruence::mark`].
#[derive(Debug, Clone)]
pub struct CongruenceMark {
    nodes: usize,
    diseqs: usize,
    derived: usize,
    trail: usize,
    contradiction: bool,
}

impl Congruence {
    #[must_use]
    /// An empty congruence-closure state.
    pub fn new() -> Congruence {
        Congruence::default()
    }

    fn node(&mut self, t: &Term) -> usize {
        if let Some(&id) = self.ids.get(t) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(t.clone());
        self.ids.insert(t.clone(), id);
        self.parent.push(id);
        // Register subterms too, so congruence can fire on them.
        if let Term::App(_, args) = t {
            for a in args.iter() {
                self.node(a);
            }
        }
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            let p = self.parent[x];
            let gp = self.parent[p];
            if gp != p {
                // Path halving is semantically redundant but its writes
                // still go on the trail: rollback restores the parent
                // layout bit-for-bit, so a rolled-back state is
                // indistinguishable from one that never ran the query.
                self.trail.push((x, p));
                self.parent[x] = gp;
            }
            x = gp;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.trail.push((ra, ra));
            self.parent[ra] = rb;
            self.unions += 1;
        }
    }

    /// Captures the current state for a later [`Congruence::rollback`].
    #[must_use]
    pub fn mark(&self) -> CongruenceMark {
        CongruenceMark {
            nodes: self.nodes.len(),
            diseqs: self.diseqs.len(),
            derived: self.derived.len(),
            trail: self.trail.len(),
            contradiction: self.contradiction,
        }
    }

    /// Restores the state captured by `mark`, undoing every later parent
    /// write and removing every later node, disequality, and derived
    /// fact. O(changes since the mark). Returns the number of undo
    /// operations performed (for telemetry).
    pub fn rollback(&mut self, mark: &CongruenceMark) -> u64 {
        let mut undone = 0u64;
        while self.trail.len() > mark.trail {
            let (idx, old) = self.trail.pop().expect("trail length checked");
            // Writes to nodes that are themselves being removed need no
            // restore; the truncation below drops them.
            if idx < mark.nodes {
                self.parent[idx] = old;
            }
            undone += 1;
        }
        for i in (mark.nodes..self.nodes.len()).rev() {
            self.ids.remove(&self.nodes[i]);
            undone += 1;
        }
        self.nodes.truncate(mark.nodes);
        self.parent.truncate(mark.nodes);
        undone += (self.diseqs.len().saturating_sub(mark.diseqs)
            + self.derived.len().saturating_sub(mark.derived)) as u64;
        self.diseqs.truncate(mark.diseqs);
        self.derived.truncate(mark.derived);
        self.contradiction = mark.contradiction;
        undone
    }

    /// Total unions performed over this instance's lifetime (monotonic).
    #[must_use]
    pub fn union_count(&self) -> u64 {
        self.unions
    }

    /// Asserts an equality between two terms.
    pub fn assert_eq(&mut self, ctx: &VarCtx, a: &Term, b: &Term) {
        let a = a.zonk(ctx);
        let b = b.zonk(ctx);
        // Structural decomposition of injective constructors, exporting
        // numeric components.
        if let (Term::App(f, xs), Term::App(g, ys)) = (&a, &b) {
            if f.is_value_ctor() && g.is_value_ctor() {
                if f != g {
                    self.contradiction = true;
                    return;
                }
                for (x, y) in xs.iter().zip(ys.iter()) {
                    self.assert_eq(ctx, x, y);
                }
                return;
            }
        }
        if a.sort(ctx).is_numeric() {
            self.derived.push(PureProp::Eq(a, b));
            return;
        }
        let na = self.node(&a);
        let nb = self.node(&b);
        self.union(na, nb);
    }

    /// Asserts a disequality between two terms.
    pub fn assert_ne(&mut self, ctx: &VarCtx, a: &Term, b: &Term) {
        let a = a.zonk(ctx);
        let b = b.zonk(ctx);
        // Injective *unary* constructors transfer disequality to the
        // argument: #a ≠ #b ⟺ a ≠ b.
        if let (Term::App(f, xs), Term::App(g, ys)) = (&a, &b) {
            if f == g && f.is_value_ctor() && xs.len() == 1 {
                self.assert_ne(ctx, &xs[0], &ys[0]);
                return;
            }
            if f != g && f.is_value_ctor() && g.is_value_ctor() {
                return; // trivially true
            }
        }
        if a.sort(ctx).is_numeric() {
            self.derived.push(PureProp::Ne(a, b));
            return;
        }
        let na = self.node(&a);
        let nb = self.node(&b);
        self.diseqs.push((na, nb));
    }

    /// Numeric facts exported for the linear solver.
    #[must_use]
    pub fn derived_numeric(&self) -> &[PureProp] {
        &self.derived
    }

    /// Saturates the closure and reports consistency.
    pub fn saturate(&mut self, ctx: &VarCtx) -> ClosureResult {
        if self.contradiction {
            return ClosureResult::Contradiction;
        }
        // Fixpoint: congruence (same head, equal args ⇒ equal) and
        // injectivity (equal apps of injective ctor ⇒ equal args).
        loop {
            let mut changed = false;
            let n = self.nodes.len();
            for i in 0..n {
                for j in (i + 1)..n {
                    let (ti, tj) = (self.nodes[i].clone(), self.nodes[j].clone());
                    let (ri, rj) = (self.find(i), self.find(j));
                    if let (Term::App(f, xs), Term::App(g, ys)) = (&ti, &tj) {
                        if f == g && xs.len() == ys.len() {
                            let args_equal = xs.iter().zip(ys.iter()).all(|(x, y)| {
                                let (nx, ny) = (self.node(x), self.node(y));
                                self.find(nx) == self.find(ny)
                            });
                            if args_equal && ri != rj {
                                self.union(i, j);
                                changed = true;
                            }
                            // Injectivity: apps equal ⇒ args equal.
                            let (ri2, rj2) = (self.find(i), self.find(j));
                            if ri2 == rj2 && f.is_value_ctor() {
                                for (x, y) in xs.iter().zip(ys.iter()) {
                                    if x.sort(ctx).is_numeric() {
                                        self.derived.push(PureProp::Eq(x.clone(), y.clone()));
                                    } else {
                                        let (nx, ny) = (self.node(x), self.node(y));
                                        if self.find(nx) != self.find(ny) {
                                            self.union(nx, ny);
                                            changed = true;
                                        }
                                    }
                                }
                            }
                        }
                        // Disjointness of value constructor heads.
                        if f != g
                            && f.is_value_ctor()
                            && g.is_value_ctor()
                            && self.find(i) == self.find(j)
                        {
                            return ClosureResult::Contradiction;
                        }
                    }
                    // Literal conflicts.
                    if self.find(i) == self.find(j) && literal_conflict(&ti, &tj) {
                        return ClosureResult::Contradiction;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // Disequality violations.
        for &(a, b) in &self.diseqs.clone() {
            if self.find(a) == self.find(b) {
                return ClosureResult::Contradiction;
            }
        }
        // Boolean two-valuedness: a bool-sorted class distinct from both
        // `true` and `false` is impossible.
        let n = self.nodes.len();
        for i in 0..n {
            if self.nodes[i].sort(ctx) != Sort::Bool {
                continue;
            }
            let mut ne_true = false;
            let mut ne_false = false;
            let ri = self.find(i);
            for &(a, b) in &self.diseqs.clone() {
                let (ra, rb) = (self.find(a), self.find(b));
                let other = if ra == ri {
                    Some(rb)
                } else if rb == ri {
                    Some(ra)
                } else {
                    None
                };
                if let Some(o) = other {
                    let tt = self.node(&Term::Bool(true));
                    let tf = self.node(&Term::Bool(false));
                    if self.find(tt) == o {
                        ne_true = true;
                    }
                    if self.find(tf) == o {
                        ne_false = true;
                    }
                }
            }
            if ne_true && ne_false {
                return ClosureResult::Contradiction;
            }
        }
        ClosureResult::Consistent
    }

    /// After saturation: are the two terms in the same class?
    pub fn equal(&mut self, ctx: &VarCtx, a: &Term, b: &Term) -> bool {
        let a = a.zonk(ctx);
        let b = b.zonk(ctx);
        if a == b {
            return true;
        }
        let na = self.node(&a);
        let nb = self.node(&b);
        self.find(na) == self.find(nb)
    }
}

fn literal_conflict(a: &Term, b: &Term) -> bool {
    match (a, b) {
        (Term::Bool(x), Term::Bool(y)) => x != y,
        (Term::Loc(x), Term::Loc(y)) => x != y,
        (Term::Gname(x), Term::Gname(y)) => x != y,
        (Term::Int(x), Term::Int(y)) => x != y,
        (Term::QpLit(x), Term::QpLit(y)) => x != y,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitivity() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Val, "x");
        let y = ctx.fresh_var(Sort::Val, "y");
        let z = ctx.fresh_var(Sort::Val, "z");
        let mut cc = Congruence::new();
        cc.assert_eq(&ctx, &Term::var(x), &Term::var(y));
        cc.assert_eq(&ctx, &Term::var(y), &Term::var(z));
        assert_eq!(cc.saturate(&ctx), ClosureResult::Consistent);
        assert!(cc.equal(&ctx, &Term::var(x), &Term::var(z)));
    }

    #[test]
    fn constructor_disjointness() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Val, "x");
        let mut cc = Congruence::new();
        cc.assert_eq(&ctx, &Term::var(x), &Term::v_bool_lit(true));
        cc.assert_eq(&ctx, &Term::var(x), &Term::v_unit());
        assert_eq!(cc.saturate(&ctx), ClosureResult::Contradiction);
    }

    #[test]
    fn injectivity_exports_numeric() {
        let mut ctx = VarCtx::new();
        let a = ctx.fresh_var(Sort::Int, "a");
        let mut cc = Congruence::new();
        cc.assert_eq(&ctx, &Term::v_int(Term::var(a)), &Term::v_int_lit(7));
        assert_eq!(cc.saturate(&ctx), ClosureResult::Consistent);
        assert_eq!(
            cc.derived_numeric(),
            &[PureProp::Eq(Term::var(a), Term::int(7))]
        );
    }

    #[test]
    fn diseq_violation() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Val, "x");
        let y = ctx.fresh_var(Sort::Val, "y");
        let mut cc = Congruence::new();
        cc.assert_ne(&ctx, &Term::var(x), &Term::var(y));
        cc.assert_eq(&ctx, &Term::var(x), &Term::var(y));
        assert_eq!(cc.saturate(&ctx), ClosureResult::Contradiction);
    }

    #[test]
    fn bool_two_valuedness() {
        let mut ctx = VarCtx::new();
        let b = ctx.fresh_var(Sort::Bool, "b");
        let mut cc = Congruence::new();
        cc.assert_ne(&ctx, &Term::var(b), &Term::bool(true));
        cc.assert_ne(&ctx, &Term::var(b), &Term::bool(false));
        assert_eq!(cc.saturate(&ctx), ClosureResult::Contradiction);
    }

    #[test]
    fn bool_literal_conflict() {
        let mut ctx = VarCtx::new();
        let b = ctx.fresh_var(Sort::Bool, "b");
        let mut cc = Congruence::new();
        cc.assert_eq(&ctx, &Term::var(b), &Term::bool(true));
        cc.assert_eq(&ctx, &Term::var(b), &Term::bool(false));
        assert_eq!(cc.saturate(&ctx), ClosureResult::Contradiction);
    }

    #[test]
    fn congruence_rule_fires() {
        let mut ctx = VarCtx::new();
        let x = ctx.fresh_var(Sort::Val, "x");
        let y = ctx.fresh_var(Sort::Val, "y");
        let mut cc = Congruence::new();
        cc.assert_eq(&ctx, &Term::var(x), &Term::var(y));
        // InjL x and InjL y become equal by congruence.
        let a = Term::v_inj_l(Term::var(x));
        let b = Term::v_inj_l(Term::var(y));
        cc.node(&a);
        cc.node(&b);
        assert_eq!(cc.saturate(&ctx), ClosureResult::Consistent);
        assert!(cc.equal(&ctx, &a, &b));
    }

    #[test]
    fn unary_ctor_ne_decomposes() {
        let mut ctx = VarCtx::new();
        let a = ctx.fresh_var(Sort::Int, "a");
        let mut cc = Congruence::new();
        cc.assert_ne(&ctx, &Term::v_int(Term::var(a)), &Term::v_int_lit(3));
        assert_eq!(
            cc.derived_numeric(),
            &[PureProp::Ne(Term::var(a), Term::int(3))]
        );
    }
}
