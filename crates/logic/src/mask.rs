//! Invariant masks `E` and mask evars.
//!
//! In Iris, the masks on `wp` and `|⇛E₁ E₂` track which invariants may
//! still be opened. The masks that actually arise in proof search are
//! always of the shape `⊤ ∖ {N₁, …, Nₖ}` (everything except the invariants
//! currently open), so [`Mask`] represents exactly that. The symbolic-
//! execution rule of §3.2 introduces *mask evars* (`?E` in the paper's
//! rules), resolved later when invariants are opened or the update is
//! introduced; [`MaskStore`] is their store, with the same checkpoint /
//! rollback discipline as term evars.

use crate::namespace::Namespace;
use std::collections::BTreeSet;
use std::fmt;

/// A concrete mask `⊤ ∖ removed`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Mask {
    removed: BTreeSet<Namespace>,
}

impl Mask {
    /// The full mask `⊤`.
    #[must_use]
    pub fn top() -> Mask {
        Mask::default()
    }

    /// Whether this is `⊤`.
    #[must_use]
    pub fn is_top(&self) -> bool {
        self.removed.is_empty()
    }

    /// `self ∖ N`.
    #[must_use]
    pub fn without(&self, ns: &Namespace) -> Mask {
        let mut removed = self.removed.clone();
        removed.insert(ns.clone());
        Mask { removed }
    }

    /// `self ∪ {N}` — restores a namespace (closing an invariant).
    #[must_use]
    pub fn with(&self, ns: &Namespace) -> Mask {
        let mut removed = self.removed.clone();
        removed.remove(ns);
        Mask { removed }
    }

    /// Whether `N ⊆ self`, i.e. the invariant named `N` may be opened.
    #[must_use]
    pub fn contains(&self, ns: &Namespace) -> bool {
        !self.removed.contains(ns)
    }

    /// The namespaces currently removed (open invariants).
    pub fn removed(&self) -> impl Iterator<Item = &Namespace> {
        self.removed.iter()
    }
}

impl fmt::Display for Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⊤")?;
        for ns in &self.removed {
            write!(f, "∖{ns}")?;
        }
        Ok(())
    }
}

/// Identifier of a mask evar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MaskVarId(u32);

impl fmt::Display for MaskVarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?E{}", self.0)
    }
}

/// A possibly-unknown mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MaskT {
    /// A concrete mask.
    Concrete(Mask),
    /// A mask evar, to be determined.
    EVar(MaskVarId),
}

impl MaskT {
    /// The full mask `⊤`.
    #[must_use]
    pub fn top() -> MaskT {
        MaskT::Concrete(Mask::top())
    }

    /// Resolves through the store to a concrete mask, if determined.
    #[must_use]
    pub fn resolve(&self, store: &MaskStore) -> Option<Mask> {
        match self {
            MaskT::Concrete(m) => Some(m.clone()),
            MaskT::EVar(v) => store.solution(*v).cloned(),
        }
    }
}

impl fmt::Display for MaskT {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MaskT::Concrete(m) => m.fmt(f),
            MaskT::EVar(v) => v.fmt(f),
        }
    }
}

impl From<Mask> for MaskT {
    fn from(m: Mask) -> MaskT {
        MaskT::Concrete(m)
    }
}

/// The store of mask evars.
#[derive(Debug, Clone, Default)]
pub struct MaskStore {
    solutions: Vec<Option<Mask>>,
}

impl MaskStore {
    #[must_use]
    /// An empty mask store.
    pub fn new() -> MaskStore {
        MaskStore::default()
    }

    /// Creates a fresh mask evar.
    pub fn fresh(&mut self) -> MaskVarId {
        let id = MaskVarId(u32::try_from(self.solutions.len()).expect("too many mask evars"));
        self.solutions.push(None);
        id
    }

    /// The solution of a mask evar, if any.
    #[must_use]
    pub fn solution(&self, v: MaskVarId) -> Option<&Mask> {
        self.solutions[v.0 as usize].as_ref()
    }

    /// Solves a mask evar.
    ///
    /// # Panics
    ///
    /// Panics if the evar is already solved.
    pub fn solve(&mut self, v: MaskVarId, m: Mask) {
        let slot = &mut self.solutions[v.0 as usize];
        assert!(slot.is_none(), "mask evar {v} solved twice");
        *slot = Some(m);
    }

    /// Unifies two masks: solves evars where possible, otherwise checks
    /// concrete equality. Returns whether unification succeeded.
    pub fn unify(&mut self, a: &MaskT, b: &MaskT) -> bool {
        let ra = a.resolve(self);
        let rb = b.resolve(self);
        match (ra, rb) {
            (Some(ma), Some(mb)) => ma == mb,
            (Some(m), None) => {
                let MaskT::EVar(v) = b else {
                    unreachable!("unresolved must be evar")
                };
                self.solve(*v, m);
                true
            }
            (None, Some(m)) => {
                let MaskT::EVar(v) = a else {
                    unreachable!("unresolved must be evar")
                };
                self.solve(*v, m);
                true
            }
            (None, None) => {
                // Two unsolved evars: equal ids unify trivially; distinct
                // ids are left undetermined (the caller decides whether to
                // alias). We refuse to alias to keep rollback simple.
                matches!((a, b), (MaskT::EVar(x), MaskT::EVar(y)) if x == y)
            }
        }
    }

    /// A checkpoint for rollback during speculative hint matching.
    #[must_use]
    pub fn checkpoint(&self) -> MaskStoreMark {
        MaskStoreMark {
            len: self.solutions.len(),
            solved: self
                .solutions
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(i, _)| i)
                .collect(),
        }
    }

    /// Rolls back to a checkpoint.
    pub fn rollback(&mut self, mark: &MaskStoreMark) {
        self.solutions.truncate(mark.len);
        for (i, slot) in self.solutions.iter_mut().enumerate() {
            if slot.is_some() && !mark.solved.contains(&i) {
                *slot = None;
            }
        }
    }
}

/// An undo point produced by [`MaskStore::checkpoint`].
#[derive(Debug, Clone)]
pub struct MaskStoreMark {
    len: usize,
    solved: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_contains_everything() {
        let n = Namespace::new("lock");
        assert!(Mask::top().contains(&n));
        assert!(!Mask::top().without(&n).contains(&n));
        assert!(Mask::top().without(&n).with(&n).contains(&n));
    }

    #[test]
    fn without_is_idempotent() {
        let n = Namespace::new("lock");
        let m = Mask::top().without(&n);
        assert_eq!(m.without(&n), m);
    }

    #[test]
    fn unify_solves_evars() {
        let mut store = MaskStore::new();
        let v = store.fresh();
        let target = Mask::top().without(&Namespace::new("lock"));
        assert!(store.unify(&MaskT::EVar(v), &MaskT::Concrete(target.clone())));
        assert_eq!(store.solution(v), Some(&target));
        // Second unification against a different mask fails.
        assert!(!store.unify(&MaskT::EVar(v), &MaskT::top()));
    }

    #[test]
    fn unify_refuses_to_alias_distinct_evars() {
        let mut store = MaskStore::new();
        let a = store.fresh();
        let b = store.fresh();
        assert!(!store.unify(&MaskT::EVar(a), &MaskT::EVar(b)));
        assert!(store.unify(&MaskT::EVar(a), &MaskT::EVar(a)));
    }

    #[test]
    fn rollback_undoes() {
        let mut store = MaskStore::new();
        let a = store.fresh();
        let mark = store.checkpoint();
        let b = store.fresh();
        store.solve(a, Mask::top());
        store.solve(b, Mask::top());
        store.rollback(&mark);
        assert!(store.solution(a).is_none());
        let c = store.fresh();
        assert_eq!(c, b); // slot reused after rollback
    }

    #[test]
    fn display() {
        let n = Namespace::new("lk");
        assert_eq!(Mask::top().to_string(), "⊤");
        assert_eq!(Mask::top().without(&n).to_string(), "⊤∖lk");
    }
}
