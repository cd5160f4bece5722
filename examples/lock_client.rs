//! Modular client verification: compose the verified CAS counter with its
//! client, and the ticket lock with a critical section — libraries are
//! *not* re-verified (§6's comparison against Caper).
//!
//! ```text
//! cargo run --example lock_client
//! ```

use diaframe::core::TraceStep;
use diaframe::examples::{cas_counter_client, ticket_lock_client, Example};

fn main() {
    for ex in [&cas_counter_client::EXAMPLE, &ticket_lock_client::EXAMPLE] {
        let outcome = ex.verify().expect("client verifies");
        // Show that the client proof cuts through the library's
        // specifications instead of inlining its implementation.
        for proof in &outcome.proofs {
            let calls: Vec<String> = proof
                .trace
                .steps()
                .iter()
                .filter_map(|s| match s {
                    TraceStep::SymEx { spec, .. } => Some(spec.clone()),
                    _ => None,
                })
                .collect();
            println!("{}: symbolic-execution steps: {calls:?}", ex.name());
        }
    }
}
