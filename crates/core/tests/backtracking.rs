//! Disjunction backtracking is bounded by the fuel: a failed left branch
//! keeps the steps it burnt, so `n` nested undecided disjunctions ahead
//! of an unprovable goal cost at most the budget, not about `2ⁿ` steps.

use diaframe_core::annot::elaborate;
use diaframe_core::{verify, TelemetrySession, VerifyOptions};
use diaframe_ghost::Registry;

#[test]
fn nested_disjunctions_run_out_of_fuel_instead_of_doubling() {
    const FUEL: u64 = 300;
    // Sixteen disjunctions neither of whose sides a guard refutes, then a
    // pure goal nothing proves: every combination of sides fails.
    let post = std::iter::repeat_n("(True ∨ True)", 16)
        .chain(["⌜x = #1⌝"])
        .collect::<Vec<_>>()
        .join(" ∗ ");
    let annotation = format!("SPEC {{{{ True }}}} f x {{{{ RET x; {post} }}}}\n");
    let e = elaborate(
        "def f x := x",
        &annotation,
        &Registry::standard_atoms(),
        &|_| None,
    )
    .expect("the annotation elaborates");
    let opts = VerifyOptions {
        fuel: FUEL,
        ..VerifyOptions::default()
    };
    let session = TelemetrySession::new("backtracking");
    let stuck = {
        let _guard = session.install();
        verify(
            &Registry::standard(),
            &e.table,
            &opts,
            e.ctx.clone(),
            &e.declared[0],
        )
        .expect_err("the postcondition is unprovable")
    };
    assert_eq!(stuck.reason, "out of fuel");
    let backtracks = session.snapshot().backtracks;
    assert!(
        0 < backtracks && backtracks < FUEL,
        "{backtracks} backtracks under a fuel of {FUEL}"
    );
}
