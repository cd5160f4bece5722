#![warn(missing_docs)]
//! The 24 fine-grained concurrency benchmarks of the Diaframe paper
//! (Figure 6), with their specifications, invariants, ghost setup and —
//! where the paper needed them — hints and manual case splits, all stated
//! in the annotation.
//!
//! Every example is one [`Record`] (`EXAMPLE` in its module), data
//! only:
//!
//! * the **program** in HeapLang surface syntax (`SOURCE`, the `impl`
//!   column);
//! * the **annotation**: Hoare specifications, invariant definitions,
//!   proof scripts and hints in the paper's notation (`ANNOTATION`, the
//!   `annot` column), elaborated into the verified specs by
//!   [`diaframe_core::annot`];
//! * the **paper-reported statistics** for the comparison columns;
//! * an optional *sabotaged* variant (for the §6 failing-verification
//!   experiment);
//! * the adequacy [`Client`]: a `main` program, its expected result and
//!   the race detector's model, which the test suite and the schedule
//!   sweep run under many interleavings.
//!
//! [`Example`]'s provided methods do everything else: verify the specs
//! with the Diaframe strategy, verify the sabotaged variant, and link
//! the client against the program.

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
    annotation_lines, count_lines, Client, Example, ExampleOutcome, PaperRow, Record, ToolStat, Ws,
};
pub use negative::{negative_examples, ExpectedFindings, NegativeExample};
pub use registry::all_examples;
