//! Checkers for the resource-algebra laws.
//!
//! These are driven exhaustively over small element enumerations by the
//! unit tests of each instance, and randomly by property tests. They are
//! the executable substitute for the Coq proofs that back the ghost-state
//! rules in the original artifact.

use crate::{frame_preserving_update, Ra, Ucmra};

/// Checks all RA laws over the given element set:
/// associativity, commutativity, validity monotonicity
/// (`✓(a⋅b) → ✓a`), and the core laws (idempotence, absorption,
/// monotonicity of definedness).
///
/// # Panics
///
/// Panics with a descriptive message on the first law violation.
pub fn check_ra_laws<A: Ra>(elems: &[A]) {
    for a in elems {
        for b in elems {
            // Commutativity.
            assert!(
                a.op(b) == b.op(a),
                "commutativity fails: {a:?} ⋅ {b:?} = {:?} but {b:?} ⋅ {a:?} = {:?}",
                a.op(b),
                b.op(a)
            );
            // Validity monotonicity.
            if a.op(b).valid() {
                assert!(
                    a.valid(),
                    "validity not monotone: ✓({a:?} ⋅ {b:?}) but ¬✓{a:?}"
                );
            }
            for c in elems {
                // Associativity.
                assert!(
                    a.op(&b.op(c)) == a.op(b).op(c),
                    "associativity fails on {a:?}, {b:?}, {c:?}"
                );
            }
        }
        // Core laws.
        if let Some(core) = a.core() {
            assert!(
                core.op(a) == *a,
                "core not absorbed: |{a:?}| ⋅ {a:?} = {:?}",
                core.op(a)
            );
            assert!(
                core.core() == Some(core.clone()),
                "core not idempotent on {a:?}"
            );
        }
    }
}

/// Checks the unital laws over the element set: the unit is valid, neutral,
/// and its own core; and `included` agrees with ∃-extension over `elems`.
///
/// # Panics
///
/// Panics on the first law violation.
pub fn check_ucmra_laws<A: Ucmra>(elems: &[A]) {
    let unit = A::unit();
    assert!(unit.valid(), "unit invalid");
    assert!(
        unit.core() == Some(unit.clone()),
        "unit is not its own core"
    );
    for a in elems {
        assert!(unit.op(a) == *a, "unit not neutral for {a:?}");
        assert!(unit.included(a), "unit not included in {a:?}");
        assert!(a.included(a), "inclusion not reflexive on {a:?}");
        for b in elems {
            // Soundness: a ≼ a ⋅ b.
            assert!(
                a.included(&a.op(b)),
                "inclusion misses extension: {a:?} ≼ {a:?} ⋅ {b:?}"
            );
            // Completeness over the finite fragment: if a ≼ b then some
            // witness in `elems` (or the unit) extends a to b.
            if a.included(b) {
                let witnessed = b == &a.op(&A::unit()) || elems.iter().any(|c| a.op(c) == *b);
                assert!(
                    witnessed,
                    "inclusion {a:?} ≼ {b:?} has no witness in the sample"
                );
            }
        }
    }
}

/// Checks a frame-preserving update against every frame in `elems` plus the
/// implicit empty frame.
///
/// # Panics
///
/// Panics if the update is not frame-preserving w.r.t. the sample.
pub fn check_fpu<A: Ra>(a: &A, b: &A, elems: &[A]) {
    assert!(
        frame_preserving_update(a, b, elems),
        "{a:?} ⤳ {b:?} is not frame-preserving"
    );
}

/// Asserts that an update is *not* frame-preserving (used to test that the
/// checkers can catch unsound rules).
///
/// # Panics
///
/// Panics if the update unexpectedly is frame-preserving.
pub fn check_not_fpu<A: Ra>(a: &A, b: &A, elems: &[A]) {
    assert!(
        !frame_preserving_update(a, b, elems),
        "{a:?} ⤳ {b:?} unexpectedly frame-preserving"
    );
}
