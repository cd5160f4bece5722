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

#[test]
fn a_disjunction_whose_sides_both_fail_reports_both_reasons() {
    let e = elaborate(
        "def f x := x",
        "SPEC {{ True }} f x {{ RET x; ⌜x = #1⌝ ∨ ⌜x = #2⌝ }}\n",
        &Registry::standard_atoms(),
        &|_| None,
    )
    .expect("the annotation elaborates");
    let stuck = verify(
        &Registry::standard(),
        &e.table,
        &VerifyOptions::default(),
        e.ctx.clone(),
        &e.declared[0],
    )
    .expect_err("the postcondition is unprovable");
    let (left, right) = stuck
        .reason
        .strip_prefix("neither disjunct holds; left: ")
        .and_then(|r| r.split_once("; right: "))
        .unwrap_or_else(|| panic!("{}", stuck.reason));
    assert!(left.starts_with("cannot prove pure goal"), "{left}");
    assert!(right.starts_with("cannot prove pure goal"), "{right}");
    assert!(stuck.goal.contains("Or("), "{}", stuck.goal);
}
