//! The registry of all benchmark examples, in Figure 6 row order.

use crate::common::Example;

/// All implemented Figure 6 examples, in the paper's row order.
#[must_use]
pub fn all_examples() -> Vec<Box<dyn Example>> {
    vec![
        Box::new(crate::arc::Arc),
        Box::new(crate::bag_stack::BagStack),
        Box::new(crate::barrier::Barrier),
        Box::new(crate::barrier_client::BarrierClient),
        Box::new(crate::bounded_counter::BoundedCounter),
        Box::new(crate::cas_counter::CasCounter),
        Box::new(crate::cas_counter_client::CasCounterClient),
        Box::new(crate::clh_lock::ClhLock),
        Box::new(crate::fork_join::ForkJoin),
        Box::new(crate::fork_join_client::ForkJoinClient),
        Box::new(crate::inc_dec::IncDec),
        Box::new(crate::lclist::Lclist),
        Box::new(crate::lclist_extra::LclistExtra),
        Box::new(crate::mcs_lock::McsLock),
        Box::new(crate::msc_queue::MscQueue),
        Box::new(crate::peterson::Peterson),
        Box::new(crate::queue::Queue),
        Box::new(crate::rwlock_duolock::RwLockDuolock),
        Box::new(crate::rwlock_lockless_faa::RwLockLocklessFaa),
        Box::new(crate::rwlock_ticket_bounded::RwLockTicketBounded),
        Box::new(crate::rwlock_ticket_unbounded::RwLockTicketUnbounded),
        Box::new(crate::spin_lock::SpinLock),
        Box::new(crate::ticket_lock::TicketLock),
        Box::new(crate::ticket_lock_client::TicketLockClient),
    ]
}

/// An example's `(SOURCE, ANNOTATION)` by row name: the library table
/// that annotations `Require` and `Instance` from.
#[must_use]
pub fn library(name: &str) -> Option<(&'static str, &'static str)> {
    all_examples()
        .into_iter()
        .find(|e| e.name() == name)
        .map(|e| (e.source(), e.annotation()))
}
