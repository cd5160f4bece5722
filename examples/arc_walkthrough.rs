//! The §2.2 walkthrough: the ARC's `drop` gets stuck without the manual
//! case distinction — this example shows the stuck proof state the paper
//! prints, then completes the proof with the tactic.
//!
//! ```text
//! cargo run --example arc_walkthrough
//! ```

use diaframe::core::VerifyOptions;
use diaframe::examples::arc;
use diaframe::examples::{Example, Ws};

fn main() {
    // 1. Run drop's verification with NO manual help: the automation
    //    cannot decide the invariant-closing disjunction of §2.2 (is the
    //    count now 0 or still positive?). Backtracking tries both
    //    disjuncts; the second leaves the pure goal `#(z - 1) = #0`,
    //    which nothing proves without knowing whether `z = 1`.
    let ws = Ws::new(arc::SOURCE, arc::ANNOTATION);
    let registry = diaframe::ghost::Registry::standard();
    let stuck = ws
        .verify_all(&registry, &[(ws.named("drop"), VerifyOptions::automatic())])
        .expect_err("drop must get stuck without the case split");
    println!("=== drop without the case split: the §2.2 stuck state ===");
    println!("{stuck}");

    // 2. With the one-line case distinction the annotation attaches to
    //    drop (`Next Obligation. destruct (decide (z = 1)); iStepsS.
    //    Qed.`), everything goes through.
    let outcome = arc::Arc.verify().expect("arc verifies with the tactic");
    println!("=== with the case split ===");
    println!(
        "verified {} specs, {} manual step(s), hints used: {:?}",
        outcome.proofs.len(),
        outcome.manual_steps,
        outcome.hints_used()
    );
}
