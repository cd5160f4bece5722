//! The committed Figure 6 snapshot shows *byte-identical* telemetry
//! blocks for `clh_lock` and `mcs_lock` (98 probes, 308 checker steps
//! each). That is not spec-suite sharing gone wrong: the MCS grant-box
//! lock is deliberately built as the polarity-inverted dual of the CLH
//! lock (the same annotation with inverted booleans), so the two
//! searches are step-for-step isomorphic and their effort counters
//! coincide. This test pins down that the *inputs* — programs, specs,
//! and the resulting proof traces — are nevertheless genuinely
//! distinct. See EXPERIMENTS.md "Telemetry".

use diaframe_core::trace_json::trace_to_json;
use diaframe_examples::registry::all_examples;
use diaframe_examples::{clh_lock, mcs_lock};

/// The program texts and spec suites differ (the duality inverts every
/// boolean constant and renames every function).
#[test]
fn clh_and_mcs_sources_and_specs_differ() {
    assert_ne!(clh_lock::SOURCE, mcs_lock::SOURCE);
    assert_ne!(clh_lock::ANNOTATION, mcs_lock::ANNOTATION);
    // The duality is real, though: the programs are the same size.
    assert_eq!(
        clh_lock::SOURCE.lines().count(),
        mcs_lock::SOURCE.lines().count()
    );
}

/// The proof traces the two examples emit are pairwise distinct, even
/// though their aggregated effort counters are identical: equal
/// counters summarize isomorphic searches over different terms.
#[test]
fn clh_and_mcs_traces_differ() {
    let examples = all_examples();
    let find = |name: &str| {
        examples
            .iter()
            .find(|e| e.name() == name)
            .unwrap_or_else(|| panic!("{name} missing from registry"))
    };
    let clh = find("clh_lock").verify().expect("clh_lock verifies");
    let mcs = find("mcs_lock").verify().expect("mcs_lock verifies");
    assert_eq!(
        clh.proofs.len(),
        mcs.proofs.len(),
        "the duals prove the same number of specs"
    );
    for (a, b) in clh.proofs.iter().zip(&mcs.proofs) {
        assert_ne!(
            trace_to_json(&a.trace),
            trace_to_json(&b.trace),
            "{} / {}: dual proofs must differ in content",
            a.name,
            b.name
        );
    }
}
