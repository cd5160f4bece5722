//! Abstract predicate parameters.
//!
//! Verifications in the paper are often *parametric* in a separation-logic
//! predicate: the spin lock protects an arbitrary assertion `R`, the ARC a
//! fractional predicate `P : Qp → iProp` (line 1 of Fig. 3). The Coq
//! artifact handles these as section variables; here they are entries in a
//! [`PredTable`], and assertions refer to them opaquely through
//! [`PredId`]. The engine knows nothing about a predicate except its
//! arity and whether it is `Fractional` (in which case `P q₁ ∗ P q₂ ⊣⊢
//! P (q₁+q₂)` drives merge rules and fraction hints).

use std::fmt;

/// Identifier of an abstract predicate within one verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredId(u32);

impl fmt::Display for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Metadata of an abstract predicate.
#[derive(Debug, Clone)]
pub struct PredInfo {
    /// Display name (e.g. `R`, `P`).
    pub name: String,
    /// Number of term arguments (0 for the lock's `R`, 1 for the ARC's
    /// fractional `P`).
    pub arity: usize,
    /// Whether the predicate is `Fractional` in its (single, `Qp`-sorted)
    /// argument.
    pub fractional: bool,
    /// Whether the predicate is timeless (`▷ P ⊢ P` modulo the usual
    /// bookkeeping). Abstract predicates are *not* timeless in general —
    /// `R` can be anything, including an invariant.
    pub timeless: bool,
}

/// The table of abstract predicates of one verification.
#[derive(Debug, Clone, Default)]
pub struct PredTable {
    preds: Vec<PredInfo>,
}

impl PredTable {
    #[must_use]
    /// An empty table.
    pub fn new() -> PredTable {
        PredTable::default()
    }

    /// Registers a plain (non-fractional) abstract assertion like the
    /// lock's `R`.
    pub fn fresh_plain(&mut self, name: &str) -> PredId {
        self.push(PredInfo {
            name: name.to_owned(),
            arity: 0,
            fractional: false,
            timeless: false,
        })
    }

    /// Registers a plain predicate of arbitrary arity (e.g. a recursive
    /// list-segment predicate axiomatised through custom hints).
    pub fn fresh_pred(&mut self, name: &str, arity: usize) -> PredId {
        self.push(PredInfo {
            name: name.to_owned(),
            arity,
            fractional: false,
            timeless: false,
        })
    }

    /// Registers a fractional predicate like the ARC's `P : Qp → iProp`.
    pub fn fresh_fractional(&mut self, name: &str) -> PredId {
        self.push(PredInfo {
            name: name.to_owned(),
            arity: 1,
            fractional: true,
            timeless: false,
        })
    }

    fn push(&mut self, info: PredInfo) -> PredId {
        let id = PredId(u32::try_from(self.preds.len()).expect("too many predicates"));
        self.preds.push(info);
        id
    }

    #[must_use]
    /// Metadata of a registered predicate.
    pub fn info(&self, id: PredId) -> &PredInfo {
        &self.preds[id.0 as usize]
    }

    /// The predicate registered under `name`, if any.
    #[must_use]
    pub fn find(&self, name: &str) -> Option<PredId> {
        let i = self.preds.iter().position(|p| p.name == name)?;
        Some(PredId(u32::try_from(i).ok()?))
    }

    #[must_use]
    /// Number of registered predicates.
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    #[must_use]
    /// Whether no predicates are registered.
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration() {
        let mut t = PredTable::new();
        let r = t.fresh_plain("R");
        let p = t.fresh_fractional("P");
        assert_ne!(r, p);
        assert_eq!(t.info(r).arity, 0);
        assert!(!t.info(r).fractional);
        assert_eq!(t.info(p).arity, 1);
        assert!(t.info(p).fractional);
        assert_eq!(t.len(), 2);
    }
}
