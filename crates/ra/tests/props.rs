//! Property-based tests of the resource-algebra laws on randomly drawn
//! elements — complementing the exhaustive small-domain checks in each
//! module with much larger randomized domains.

use diaframe_ra::agree::Agree;
use diaframe_ra::auth::Auth;
use diaframe_ra::counting::CountRa;
use diaframe_ra::excl::Excl;
use diaframe_ra::frac::FracRa;
use diaframe_ra::nat::{NatMax, NatSum};
use diaframe_ra::oneshot::OneShot;
use diaframe_ra::{frame_preserving_update, Ra};
use diaframe_term::qp::Rat;
use proptest::prelude::*;

/// The three core RA laws on arbitrary triples.
fn laws<A: Ra>(a: &A, b: &A, c: &A) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.op(b), b.op(a), "commutativity");
    prop_assert_eq!(a.op(&b.op(c)), a.op(b).op(c), "associativity");
    if a.op(b).valid() {
        prop_assert!(a.valid(), "validity monotonicity");
    }
    if let Some(core) = a.core() {
        prop_assert_eq!(core.op(a), a.clone(), "core absorption");
        prop_assert_eq!(core.core(), Some(core.clone()), "core idempotence");
    }
    Ok(())
}

fn frac() -> impl Strategy<Value = FracRa> {
    (1i128..=24, 1i128..=12).prop_map(|(n, d)| FracRa(Rat::new(n, d)))
}

fn nat_sum() -> impl Strategy<Value = NatSum> {
    (0u64..=60).prop_map(NatSum)
}

fn nat_max() -> impl Strategy<Value = NatMax> {
    (0u64..=60).prop_map(NatMax)
}

fn excl() -> impl Strategy<Value = Excl<u8>> {
    prop_oneof![(0u8..=5).prop_map(Excl::Own), Just(Excl::Invalid),]
}

fn agree() -> impl Strategy<Value = Agree<u8>> {
    prop_oneof![(0u8..=5).prop_map(Agree::On), Just(Agree::Invalid),]
}

fn count() -> impl Strategy<Value = CountRa> {
    prop_oneof![
        Just(CountRa::Unit),
        (1u64..=8).prop_map(CountRa::token),
        (1u64..=8, 0u64..=8).prop_map(|(p, k)| CountRa::Counter { p, k }),
        (1i128..=4, 1i128..=4).prop_map(|(n, d)| CountRa::NoTokens(Rat::new(n, d))),
        Just(CountRa::Invalid),
    ]
}

fn oneshot() -> impl Strategy<Value = OneShot<u8>> {
    prop_oneof![
        Just(OneShot::pending()),
        Just(OneShot::pending_half()),
        (0u8..=3).prop_map(OneShot::Shot),
        Just(OneShot::Invalid),
    ]
}

fn auth_nat() -> impl Strategy<Value = Auth<NatSum>> {
    prop_oneof![
        nat_sum().prop_map(Auth::auth),
        nat_sum().prop_map(Auth::frag),
        (nat_sum(), nat_sum()).prop_map(|(a, b)| Auth::both(a, b)),
    ]
}

proptest! {
    #[test]
    fn frac_laws(a in frac(), b in frac(), c in frac()) {
        laws(&a, &b, &c)?;
        // Validity is exactly "≤ 1".
        prop_assert_eq!(a.valid(), a.0 <= Rat::ONE);
        // Composition adds fractions; two valid halves of > 1 clash.
        prop_assert_eq!(a.op(&b).0, a.0 + b.0);
    }

    #[test]
    fn nat_sum_laws(a in nat_sum(), b in nat_sum(), c in nat_sum()) {
        laws(&a, &b, &c)?;
        prop_assert_eq!(a.op(&b), NatSum(a.0 + b.0));
    }

    #[test]
    fn nat_max_laws(a in nat_max(), b in nat_max(), c in nat_max()) {
        laws(&a, &b, &c)?;
        prop_assert_eq!(a.op(&b), NatMax(a.0.max(b.0)));
        // NatMax is idempotent, hence every element is its own core.
        prop_assert_eq!(a.core(), Some(a));
    }

    #[test]
    fn excl_laws(a in excl(), b in excl(), c in excl()) {
        laws(&a, &b, &c)?;
        // Any composition of two exclusives is invalid — the law behind
        // `locked γ ∗ locked γ ⊢ False`.
        prop_assert!(!a.op(&b).valid());
    }

    #[test]
    fn agree_laws(a in agree(), b in agree(), c in agree()) {
        laws(&a, &b, &c)?;
        // Valid composition forces agreement.
        if a.op(&b).valid() {
            prop_assert_eq!(a.clone(), b.clone());
        }
        // Agreement is duplicable: a ⋅ a = a.
        prop_assert_eq!(a.op(&a), a.clone());
    }

    #[test]
    fn counting_laws(a in count(), b in count(), c in count()) {
        laws(&a, &b, &c)?;
    }

    #[test]
    fn counting_authority_bounds_tokens(p in 1u64..=8, k in 1u64..=8) {
        // counter p ⋅ tokens k is valid iff k ≤ p: owning the authority
        // bounds how many tokens can coexist (ARC's read-access rule).
        let both = CountRa::counter(p).op(&CountRa::token(k));
        prop_assert_eq!(both.valid(), k <= p);
        // no_tokens excludes any token at all.
        prop_assert!(!CountRa::no_tokens_half().op(&CountRa::token(k)).valid());
    }

    #[test]
    fn oneshot_laws(a in oneshot(), b in oneshot(), c in oneshot()) {
        laws(&a, &b, &c)?;
        // Shot values agree or clash; pending is exclusive against shot.
        if let (OneShot::Shot(x), OneShot::Shot(y)) = (&a, &b) {
            prop_assert_eq!(a.op(&b).valid(), x == y);
        }
    }

    #[test]
    fn auth_laws(a in auth_nat(), b in auth_nat(), c in auth_nat()) {
        laws(&a, &b, &c)?;
        // Two authorities clash.
        prop_assert!(!Auth::auth(NatSum(0)).op(&Auth::auth(NatSum(0))).valid());
    }

    /// auth-update: incrementing authority and fragment together is
    /// frame-preserving against arbitrary frame sets (the CAS-counter
    /// `incr` ghost step).
    #[test]
    fn auth_increment_is_frame_preserving(
        n in 0u64..=20,
        k in 1u64..=5,
        frames in prop::collection::vec(nat_sum().prop_map(Auth::frag), 0..4),
    ) {
        let from = Auth::both(NatSum(n), NatSum(n));
        let to = Auth::both(NatSum(n + k), NatSum(n + k));
        prop_assert!(frame_preserving_update(&from, &to, &frames));
    }

    /// token-create / token-destroy: the counting-RA updates used by the
    /// ARC's clone and drop are frame-preserving against token frames.
    #[test]
    fn counting_updates_frame_preserving(
        p in 1u64..=6,
        frames in prop::collection::vec((1u64..=3).prop_map(CountRa::token), 0..3),
    ) {
        // Skip frames that exceed the current authority: those contexts
        // are invalid to begin with.
        let total: u64 = frames.iter().map(|f| match f {
            CountRa::Tokens(k) => *k,
            _ => 0,
        }).sum();
        prop_assume!(total <= p);
        // counter p ⇝ counter (p+1) ⋅ token (clone).
        let from = CountRa::counter(p);
        let to = CountRa::Counter { p: p + 1, k: 1 };
        prop_assert!(frame_preserving_update(&from, &to, &frames));
    }

    /// A *wrong* update is caught: dropping the authority below the number
    /// of outstanding tokens is not frame-preserving.
    #[test]
    fn counting_bad_update_rejected(p in 2u64..=6) {
        let frames = [CountRa::token(p)]; // all p tokens outstanding
        let from = CountRa::counter(p);
        let to = CountRa::counter(p - 1); // claims fewer tokens than exist
        prop_assert!(!frame_preserving_update(&from, &to, &frames));
    }

    /// oneshot-shoot: pending ⇝ shot v is frame-preserving (there is no
    /// valid frame alongside full pending), and shot values are stuck.
    #[test]
    fn oneshot_shoot_frame_preserving(v in 0u8..=3, w in 0u8..=3) {
        let frames: [OneShot<u8>; 0] = [];
        prop_assert!(frame_preserving_update(
            &OneShot::pending(),
            &OneShot::Shot(v),
            &frames
        ));
        // Changing an already-shot value is not frame-preserving against
        // a frame that observed it.
        if v != w {
            prop_assert!(!frame_preserving_update(
                &OneShot::Shot(v),
                &OneShot::Shot(w),
                &[OneShot::Shot(v)]
            ));
        }
    }
}
