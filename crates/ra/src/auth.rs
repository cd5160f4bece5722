//! The authoritative resource algebra `Auth(A)` over a unital RA.
//!
//! `●a` is the exclusive authoritative element; `◯b` a fragment. Validity
//! of `●a ⋅ ◯b` requires `b ≼ a`, which is how invariants learn that a
//! client's fragment is consistent with the authoritative state (the
//! ticket lock's "my ticket is at most the next free ticket").

use crate::{Ra, Ucmra};

/// An element of `Auth(A)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Auth<A> {
    /// The authoritative part: `None` for pure fragments, `Some(Ok(a))`
    /// for a single authority, `Some(Err(()))` after composing two
    /// authorities (invalid).
    auth: Option<Result<A, ()>>,
    /// The fragment part.
    frag: A,
}

#[allow(clippy::self_named_constructors)] // `Auth::auth` mirrors Iris's ●a notation
impl<A: Ucmra> Auth<A> {
    /// The authoritative element `●a`.
    #[must_use]
    pub fn auth(a: A) -> Auth<A> {
        Auth {
            auth: Some(Ok(a)),
            frag: A::unit(),
        }
    }

    /// The fragment `◯b`.
    #[must_use]
    pub fn frag(b: A) -> Auth<A> {
        Auth {
            auth: None,
            frag: b,
        }
    }

    /// The combination `●a ⋅ ◯b`.
    #[must_use]
    pub fn both(a: A, b: A) -> Auth<A> {
        Auth {
            auth: Some(Ok(a)),
            frag: b,
        }
    }

    /// The authoritative payload, if this element holds a valid authority.
    #[must_use]
    pub fn auth_part(&self) -> Option<&A> {
        match &self.auth {
            Some(Ok(a)) => Some(a),
            _ => None,
        }
    }

    /// The fragment payload.
    #[must_use]
    pub fn frag_part(&self) -> &A {
        &self.frag
    }
}

impl<A: Ucmra> Ra for Auth<A> {
    fn op(&self, other: &Self) -> Self {
        let auth = match (&self.auth, &other.auth) {
            (None, a) | (a, None) => a.clone(),
            (Some(_), Some(_)) => Some(Err(())),
        };
        Auth {
            auth,
            frag: self.frag.op(&other.frag),
        }
    }

    fn valid(&self) -> bool {
        match &self.auth {
            None => self.frag.valid(),
            Some(Err(())) => false,
            Some(Ok(a)) => a.valid() && self.frag.included(a),
        }
    }

    fn core(&self) -> Option<Self> {
        // The core drops the authority and keeps the fragment's core.
        let core = self.frag.core()?;
        Some(Auth {
            auth: None,
            frag: core,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{check_fpu, check_not_fpu, check_ra_laws};
    use crate::nat::{NatMax, NatSum};

    fn elems_sum() -> Vec<Auth<NatSum>> {
        let mut out = Vec::new();
        for n in 0..4 {
            out.push(Auth::frag(NatSum(n)));
            out.push(Auth::auth(NatSum(n)));
            for m in 0..4 {
                out.push(Auth::both(NatSum(n), NatSum(m)));
            }
        }
        out
    }

    #[test]
    fn laws() {
        check_ra_laws(&elems_sum());
    }

    #[test]
    fn two_authorities_invalid() {
        let a = Auth::auth(NatSum(1));
        assert!(!a.op(&a).valid());
    }

    #[test]
    fn fragment_bounded_by_authority() {
        assert!(Auth::both(NatSum(3), NatSum(2)).valid());
        assert!(!Auth::both(NatSum(3), NatSum(4)).valid());
    }

    #[test]
    fn alloc_and_increment_updates() {
        // ●n ⋅ ◯k  ⤳  ●(n+1) ⋅ ◯(k+1): issuing a ticket.
        let frames = elems_sum();
        check_fpu(
            &Auth::both(NatSum(2), NatSum(1)),
            &Auth::both(NatSum(3), NatSum(2)),
            &frames,
        );
        // Growing only the fragment is NOT frame-preserving.
        check_not_fpu(
            &Auth::both(NatSum(2), NatSum(1)),
            &Auth::both(NatSum(2), NatSum(2)),
            &frames,
        );
    }

    #[test]
    fn max_fragments_are_persistent_lower_bounds() {
        let served = Auth::<NatMax>::frag(NatMax(3));
        assert_eq!(served.core(), Some(served.clone()));
        // Bumping the authority preserves all lower-bound fragments.
        let frames: Vec<Auth<NatMax>> = (0..5).map(|n| Auth::frag(NatMax(n))).collect();
        check_fpu(&Auth::auth(NatMax(4)), &Auth::auth(NatMax(5)), &frames);
    }
}
