//! Counting permissions — the algebra behind the ARC's ghost state (Fig. 4
//! of the paper).
//!
//! The assertions of the paper map onto elements as follows:
//!
//! * `counter P γ p` — [`CountRa::counter`]`(p)`: the exclusive authority
//!   that exactly `p > 0` tokens exist;
//! * `token P γ` — [`CountRa::token`]`(1)`: one read-access token;
//! * `no_tokens P γ` — [`CountRa::no_tokens_half`]: a fractional witness
//!   that no tokens exist (the `delete-last` rule mints the two halves the
//!   paper hands to the invariant and the client).
//!
//! All six rules of Fig. 4 are validated against this algebra in the tests
//! below (the `P q` bookkeeping lives at the logic level, in the ghost
//! library).

use crate::Ra;
use diaframe_term::qp::Rat;

/// An element of the counting RA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CountRa {
    /// The unit.
    Unit,
    /// `k ≥ 1` tokens.
    Tokens(u64),
    /// The authority: exactly `p ≥ 1` tokens exist, of which `k` are
    /// composed in here (`k ≤ p` required for validity).
    Counter {
        /// Total number of live tokens.
        p: u64,
        /// Tokens composed into this element.
        k: u64,
    },
    /// A fractional witness (`0 < q ≤ 1`) that no tokens exist.
    NoTokens(Rat),
    /// The invalid element.
    Invalid,
}

impl CountRa {
    /// The authority `counter p` (without any tokens).
    #[must_use]
    pub fn counter(p: u64) -> CountRa {
        CountRa::Counter { p, k: 0 }
    }

    /// `k` tokens.
    #[must_use]
    pub fn token(k: u64) -> CountRa {
        CountRa::Tokens(k)
    }

    /// One half of the `no_tokens` witness.
    #[must_use]
    pub fn no_tokens_half() -> CountRa {
        CountRa::NoTokens(Rat::new(1, 2))
    }

    /// The full `no_tokens` witness.
    #[must_use]
    pub fn no_tokens_full() -> CountRa {
        CountRa::NoTokens(Rat::ONE)
    }
}

impl Ra for CountRa {
    fn op(&self, other: &Self) -> Self {
        use CountRa::*;
        match (self, other) {
            (Unit, x) | (x, Unit) => x.clone(),
            (Invalid, _) | (_, Invalid) => Invalid,
            (Tokens(a), Tokens(b)) => Tokens(a + b),
            (Tokens(t), Counter { p, k }) | (Counter { p, k }, Tokens(t)) => {
                Counter { p: *p, k: k + t }
            }
            (Counter { .. }, Counter { .. }) => Invalid,
            (NoTokens(a), NoTokens(b)) => NoTokens(*a + *b),
            // No tokens exist, yet a token (or a counter claiming p ≥ 1
            // tokens) is owned: contradiction.
            (NoTokens(_), Tokens(_) | Counter { .. })
            | (Tokens(_) | Counter { .. }, NoTokens(_)) => Invalid,
        }
    }

    fn valid(&self) -> bool {
        use CountRa::*;
        match self {
            Unit => true,
            Tokens(k) => *k >= 1,
            Counter { p, k } => *p >= 1 && k <= p,
            NoTokens(q) => q.is_positive() && *q <= Rat::ONE,
            Invalid => false,
        }
    }

    fn core(&self) -> Option<Self> {
        Some(CountRa::Unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laws::{check_fpu, check_not_fpu, check_ra_laws};

    fn elems() -> Vec<CountRa> {
        let mut out = vec![CountRa::Unit, CountRa::Invalid];
        for k in 1..4 {
            out.push(CountRa::token(k));
        }
        for p in 1..4 {
            for k in 0..4 {
                out.push(CountRa::Counter { p, k });
            }
        }
        out.push(CountRa::no_tokens_half());
        out.push(CountRa::no_tokens_full());
        out
    }

    #[test]
    fn laws() {
        check_ra_laws(&elems());
    }

    #[test]
    fn token_allocate() {
        // Fig. 4 token-allocate: allocate counter 1 ⋅ token.
        let target = CountRa::counter(1).op(&CountRa::token(1));
        assert!(target.valid());
    }

    #[test]
    fn token_interact() {
        // Fig. 4 token-interact: no_tokens ∗ token ⊢ False.
        assert!(!CountRa::no_tokens_half().op(&CountRa::token(1)).valid());
        assert!(!CountRa::no_tokens_full().op(&CountRa::counter(1)).valid());
    }

    #[test]
    fn token_mutate_incr() {
        // Fig. 4: counter p ⤳ counter (p+1) ⋅ token.
        for p in 1..4 {
            check_fpu(
                &CountRa::counter(p),
                &CountRa::Counter { p: p + 1, k: 1 },
                &elems(),
            );
        }
    }

    #[test]
    fn token_mutate_decr() {
        // Fig. 4 (p > 1): counter p ⋅ token ⤳ counter (p-1).
        for p in 2..5 {
            check_fpu(
                &CountRa::Counter { p, k: 1 },
                &CountRa::counter(p - 1),
                &elems(),
            );
        }
        // Decrementing without consuming a token is unsound: a frame may
        // hold p tokens.
        check_not_fpu(&CountRa::counter(2), &CountRa::counter(1), &elems());
    }

    #[test]
    fn token_mutate_delete_last() {
        // Fig. 4: counter 1 ⋅ token ⤳ no_tokens ⋅ no_tokens.
        let from = CountRa::Counter { p: 1, k: 1 };
        let to = CountRa::no_tokens_half().op(&CountRa::no_tokens_half());
        check_fpu(&from, &to, &elems());
        // Deleting when other tokens remain is unsound.
        check_not_fpu(
            &CountRa::Counter { p: 2, k: 1 },
            &CountRa::no_tokens_full(),
            &elems(),
        );
    }

    #[test]
    fn counter_token_bound() {
        // Owning counter p and a token implies p ≥ 1 — in fact k ≤ p.
        assert!(CountRa::Counter { p: 1, k: 1 }.valid());
        assert!(!CountRa::Counter { p: 1, k: 2 }.valid());
    }

    #[test]
    fn no_tokens_halves_recombine() {
        let h = CountRa::no_tokens_half();
        assert_eq!(h.op(&h), CountRa::no_tokens_full());
        assert!(h.op(&h).valid());
        assert!(!CountRa::no_tokens_full().op(&h).valid());
    }
}
