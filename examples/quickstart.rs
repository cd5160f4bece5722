//! Quickstart: verify the paper's §2.1 spin lock and inspect the result.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use diaframe::examples::{spin_lock, Example};

fn main() {
    let example = &spin_lock::EXAMPLE;
    println!("source:\n{}", example.source);
    println!("annotation:\n{}", example.annotation);

    let outcome = example.verify().expect("the spin lock verifies");
    println!(
        "verified {} specifications with {} manual steps",
        outcome.proofs.len(),
        outcome.manual_steps
    );
    for proof in &outcome.proofs {
        proof.check().expect("trace replays through the checker");
        println!(
            "  {:<10} {} trace steps, {} symbolic-execution steps",
            proof.name,
            proof.trace.len(),
            proof.trace.symex_steps()
        );
    }
    println!("hints used: {:?}", outcome.hints_used());

    // The runtime counterpart: run the verified client program.
    let expected = &example.client.expected;
    let results =
        diaframe::heaplang::interp::run_schedules(&example.client_program(), 10, 2_000_000);
    assert!(results.iter().all(|v| v == expected));
    println!("client program ran safely under 10 random schedules → {expected}");
}
