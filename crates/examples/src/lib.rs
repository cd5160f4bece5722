#![warn(missing_docs)]
//! The 24 fine-grained concurrency benchmarks of the Diaframe paper
//! (Figure 6), with their specifications, invariants, ghost setup and —
//! where the paper needed them — custom hints and manual case splits.
//!
//! Every example provides:
//!
//! * the **program** in HeapLang surface syntax (the `impl` column);
//! * the **annotation**: Hoare specifications, invariant definitions and
//!   hint names in the paper's notation (the `annot` column), elaborated
//!   into the verified specs by [`diaframe_core::annot`];
//! * a [`common::Example::verify`] run proving all specifications with
//!   the Diaframe strategy;
//! * the **paper-reported statistics** for the comparison columns;
//! * optional *sabotaged* variants (for the §6 failing-verification
//!   experiment) and an *adequacy program* that the test suite executes
//!   under many random schedules.

pub mod common;
pub mod registry;

pub mod arc;
pub mod bag_stack;
pub mod barrier;
pub mod barrier_client;
pub mod bounded_counter;
pub mod cas_counter;
pub mod cas_counter_client;
pub mod clh_lock;
pub mod fork_join;
pub mod fork_join_client;
pub mod inc_dec;
pub mod lclist;
pub mod lclist_extra;
pub mod mcs_lock;
pub mod msc_queue;
pub mod peterson;
pub mod queue;
pub mod rwlock_duolock;
pub mod rwlock_lockless_faa;
pub mod rwlock_ticket_bounded;
pub mod rwlock_ticket_unbounded;
pub mod spin_lock;
pub mod ticket_lock;
pub mod ticket_lock_client;

pub mod negative;

pub use common::{
    annotation_lines, count_lines, Example, ExampleOutcome, PaperRow, PostPredicate, SweepSpec, ToolStat, Ws,
};
pub use negative::{negative_examples, ExpectedFindings, NegativeExample};
pub use registry::all_examples;
