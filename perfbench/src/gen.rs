//! Seeded request generation and the verdict oracle.
//!
//! Every request the program under test receives is generated here from
//! the `--seed` argument alone, and every expected answer is fixed here,
//! independently of the code under test: the Figure 6 examples must
//! verify and their §6 sabotaged variants must be rejected.

use diaframe_bench::Variant;
use diaframe_examples::Example;
use std::collections::HashMap;

/// Maps every oracle name to its example.
///
/// # Errors
///
/// Names the first oracle example the registry does not have.
pub fn resolve(examples: &[Box<dyn Example>]) -> Result<HashMap<&'static str, &dyn Example>, String> {
    let by_name: HashMap<&'static str, &dyn Example> =
        examples.iter().map(|ex| (ex.name(), ex.as_ref())).collect();
    match OK_EXAMPLES.iter().chain(&BROKEN_EXAMPLES).find(|n| !by_name.contains_key(*n)) {
        Some(missing) => Err(format!("example {missing:?} is not in the registry")),
        None => Ok(by_name),
    }
}

/// The 24 Figure 6 examples, each expected to verify.
pub const OK_EXAMPLES: [&str; 24] = [
    "arc",
    "bag_stack",
    "barrier",
    "barrier_client",
    "bounded_counter",
    "cas_counter",
    "cas_counter_client",
    "clh_lock",
    "fork_join",
    "fork_join_client",
    "inc_dec",
    "lclist",
    "lclist_extra",
    "mcs_lock",
    "msc_queue",
    "peterson",
    "queue",
    "rwlock_duolock",
    "rwlock_lockless_faa",
    "rwlock_ticket_bounded",
    "rwlock_ticket_unbounded",
    "spin_lock",
    "ticket_lock",
    "ticket_lock_client",
];

/// The 17 examples with a sabotaged variant, each expected to be
/// rejected (the §6 failing-verification contract).
pub const BROKEN_EXAMPLES: [&str; 17] = [
    "arc",
    "bag_stack",
    "barrier",
    "bounded_counter",
    "cas_counter",
    "clh_lock",
    "fork_join",
    "inc_dec",
    "lclist",
    "mcs_lock",
    "msc_queue",
    "peterson",
    "queue",
    "rwlock_duolock",
    "rwlock_lockless_faa",
    "spin_lock",
    "ticket_lock",
];

/// A small, fast, seedable generator (SplitMix64). Hand-rolled so the
/// request sequence cannot change under a dependency upgrade.
pub struct Rng(u64);

impl Rng {
    /// The generator for one independent `stream` of `seed` (a pass
    /// number, a connection number).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One in-process verification request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The example's name.
    pub example: &'static str,
    /// Which variant to verify.
    pub variant: Variant,
}

impl Request {
    /// One line of the `--dump-requests` listing.
    #[must_use]
    pub fn render(&self) -> String {
        let v = match self.variant {
            Variant::Ok => "ok",
            Variant::Broken => "broken",
        };
        format!("{v} {}", self.example)
    }
}

/// Pass `pass` of `cold_verify`: a shuffle of every Ok example and every
/// Broken variant (the paper's edit–verify loop).
#[must_use]
pub fn cold_pass(seed: u64, pass: u64) -> Vec<Request> {
    let mut reqs: Vec<Request> = OK_EXAMPLES
        .iter()
        .map(|&example| Request { example, variant: Variant::Ok })
        .chain(BROKEN_EXAMPLES.iter().map(|&example| Request {
            example,
            variant: Variant::Broken,
        }))
        .collect();
    Rng::new(seed, pass).shuffle(&mut reqs);
    reqs
}

/// One request of the `daemon_hot` mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DaemonOp {
    /// `verify` of one or more named examples.
    Verify(Vec<&'static str>),
    /// `verify_all`.
    VerifyAll,
    /// `stats`.
    Stats,
}

impl DaemonOp {
    /// The request frame body.
    #[must_use]
    pub fn body(&self) -> String {
        match self {
            DaemonOp::Verify(names) => {
                let quoted: Vec<String> = names.iter().map(|n| format!("\"{n}\"")).collect();
                format!("{{\"op\":\"verify\",\"examples\":[{}]}}", quoted.join(","))
            }
            DaemonOp::VerifyAll => String::from("{\"op\":\"verify_all\"}"),
            DaemonOp::Stats => String::from("{\"op\":\"stats\"}"),
        }
    }
}

/// Closed-loop connections to the daemon (the machine's `nproc`, 2).
pub const DAEMON_CONNECTIONS: u64 = 2;

/// Requests in one group of the daemon mix; a connection's cycle is
/// [`DAEMON_GROUPS`] groups.
const DAEMON_GROUP: usize = 100;
const DAEMON_GROUPS: usize = 5;

/// The request cycle of daemon connection `conn`, repeated on every
/// pass. Each group of 100 has a fixed composition — 80 single-example
/// `verify`, 15 batch `verify` (five each of 2, 3 and 4 examples), 4
/// `verify_all` and 1 `stats` — so the latency percentiles do not move
/// with the seed's draw of request kinds; the seed picks the examples
/// and the order.
#[must_use]
pub fn daemon_cycle(seed: u64, conn: u64) -> Vec<DaemonOp> {
    let mut rng = Rng::new(seed, 0x00DA_E30D_0000 + conn);
    let mut cycle = Vec::with_capacity(DAEMON_GROUP * DAEMON_GROUPS);
    for _ in 0..DAEMON_GROUPS {
        let mut group = Vec::with_capacity(DAEMON_GROUP);
        for _ in 0..80 {
            group.push(DaemonOp::Verify(vec![OK_EXAMPLES[rng.below(OK_EXAMPLES.len())]]));
        }
        for size in [2usize, 3, 4] {
            for _ in 0..5 {
                let mut names = OK_EXAMPLES.to_vec();
                rng.shuffle(&mut names);
                names.truncate(size);
                group.push(DaemonOp::Verify(names));
            }
        }
        for _ in 0..4 {
            group.push(DaemonOp::VerifyAll);
        }
        group.push(DaemonOp::Stats);
        rng.shuffle(&mut group);
        cycle.extend(group);
    }
    cycle
}

/// The `--dump-requests` listing: the first `passes` passes of
/// `cold_verify`, or every daemon connection's cycle.
///
/// # Errors
///
/// Returns an error for an unknown workload name.
pub fn dump(workload: &str, seed: u64, passes: u64) -> Result<String, String> {
    let mut out = String::new();
    match workload {
        "cold_verify" => {
            for pass in 0..passes {
                for r in cold_pass(seed, pass) {
                    out.push_str(&format!("pass {pass} {}\n", r.render()));
                }
            }
        }
        "daemon_hot" => {
            for conn in 0..DAEMON_CONNECTIONS {
                for op in daemon_cycle(seed, conn) {
                    out.push_str(&format!("conn {conn} {}\n", op.body()));
                }
            }
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_are_permutations_of_the_oracle_lists() {
        let mut a: Vec<String> = cold_pass(7, 3).iter().map(Request::render).collect();
        let mut b: Vec<String> = cold_pass(8, 0).iter().map(Request::render).collect();
        assert_ne!(a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        assert_eq!(a.len(), OK_EXAMPLES.len() + BROKEN_EXAMPLES.len());
    }

    #[test]
    fn daemon_groups_have_a_fixed_composition() {
        let cycle = daemon_cycle(1, 0);
        assert_eq!(cycle.len(), DAEMON_GROUP * DAEMON_GROUPS);
        let all = cycle.iter().filter(|op| **op == DaemonOp::VerifyAll).count();
        let stats = cycle.iter().filter(|op| **op == DaemonOp::Stats).count();
        assert_eq!((all, stats), (4 * DAEMON_GROUPS, DAEMON_GROUPS));
    }
}
