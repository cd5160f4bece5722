//! The registry of all benchmark examples, in Figure 6 row order.

use crate::common::{Example, Record};

/// Every example's record, in the paper's row order.
static RECORDS: [&Record; 24] = [
    &crate::arc::EXAMPLE,
    &crate::bag_stack::EXAMPLE,
    &crate::barrier::EXAMPLE,
    &crate::barrier_client::EXAMPLE,
    &crate::bounded_counter::EXAMPLE,
    &crate::cas_counter::EXAMPLE,
    &crate::cas_counter_client::EXAMPLE,
    &crate::clh_lock::EXAMPLE,
    &crate::fork_join::EXAMPLE,
    &crate::fork_join_client::EXAMPLE,
    &crate::inc_dec::EXAMPLE,
    &crate::lclist::EXAMPLE,
    &crate::lclist_extra::EXAMPLE,
    &crate::mcs_lock::EXAMPLE,
    &crate::msc_queue::EXAMPLE,
    &crate::peterson::EXAMPLE,
    &crate::queue::EXAMPLE,
    &crate::rwlock_duolock::EXAMPLE,
    &crate::rwlock_lockless_faa::EXAMPLE,
    &crate::rwlock_ticket_bounded::EXAMPLE,
    &crate::rwlock_ticket_unbounded::EXAMPLE,
    &crate::spin_lock::EXAMPLE,
    &crate::ticket_lock::EXAMPLE,
    &crate::ticket_lock_client::EXAMPLE,
];

/// Row `I` of [`RECORDS`]. Zero-sized, so boxing it allocates nothing.
struct Row<const I: usize>;

impl<const I: usize> Example for Row<I> {
    fn record(&self) -> &Record {
        RECORDS[I]
    }
}

/// All implemented Figure 6 examples, in the paper's row order.
#[must_use]
pub fn all_examples() -> Vec<Box<dyn Example>> {
    macro_rules! rows {
        ($($i:literal)*) => { vec![$(Box::new(Row::<$i>) as Box<dyn Example>),*] };
    }
    rows!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23)
}

/// An example's `(SOURCE, ANNOTATION)` by row name: the library table
/// that annotations `Require` and `Instance` from.
#[must_use]
pub fn library(name: &str) -> Option<(&'static str, &'static str)> {
    RECORDS
        .iter()
        .find(|r| r.name == name)
        .map(|r| (r.source, r.annotation))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_every_record_once() {
        let names: Vec<&str> = all_examples().iter().map(|e| e.name()).collect();
        let records: Vec<&str> = RECORDS.iter().map(|r| r.name).collect();
        assert_eq!(names, records);
        // `Ws::cached` keys on the row name.
        let distinct: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(distinct.len(), names.len(), "row names are unique");
    }
}
