//! Extending the hint database with a *user-defined* ghost library — the
//! §4.2 story: "users can extend the hint database with hints for their
//! own ghost state".
//!
//! We define a **sticky bit**: `unset γ` is the exclusive right to trip
//! the bit, `set γ` is the persistent fact that it was tripped. The
//! library contributes three rules to the proof search:
//!
//! * `sticky-alloc`  — `⊢ ¤|⇛ ∃γ. unset γ` (an `ε₁` last-resort hint);
//! * `sticky-trip`   — `unset γ ⊫ set γ` (a mutation hint);
//! * `sticky-agree`  — owning `unset γ ∗ set γ` is contradictory.
//!
//! With those three rules registered, a write-once cell verifies fully
//! automatically: `trip` trips the bit while storing 1, and `observe`
//! proves it can only ever read 1 afterwards *because* the `b = 0` branch
//! of the invariant clashes with the caller's `set γ`.
//!
//! ```text
//! cargo run --example custom_ghost
//! ```

use diaframe::core::VerifyOptions;
use diaframe::examples::common::Ws;
use diaframe::ghost::{AtomSig, GhostLibrary, HintCandidate, MergeOutcome, Registry};
use diaframe::logic::{Assertion, Atom, GhostAtom, GhostKind};
use diaframe::term::{Sort, Term, VarCtx};

/// `unset γ` — the exclusive right to trip the bit.
const UNSET: GhostKind = GhostKind {
    id: 900,
    name: "unset",
};

/// `set γ` — the persistent fact that the bit was tripped.
const SET: GhostKind = GhostKind { id: 901, name: "set" };

fn set(gname: Term) -> Atom {
    Atom::Ghost(GhostAtom {
        kind: SET,
        gname,
        pred: None,
        args: Vec::new(),
    })
}

/// The user-defined library: three rules, ~40 lines.
#[derive(Debug, Default)]
struct StickyLib;

impl GhostLibrary for StickyLib {
    fn name(&self) -> &'static str {
        "sticky"
    }

    fn kinds(&self) -> Vec<GhostKind> {
        vec![UNSET, SET]
    }

    fn is_persistent(&self, atom: &GhostAtom) -> bool {
        atom.kind == SET
    }

    fn merge(&self, _ctx: &mut VarCtx, a: &GhostAtom, b: &GhostAtom) -> Option<MergeOutcome> {
        // The right to trip is exclusive…
        if a.kind == UNSET && b.kind == UNSET {
            return Some(MergeOutcome::Contradiction {
                rule: "unset-exclusive",
            });
        }
        // …and incompatible with the bit already being set.
        if (a.kind == UNSET && b.kind == SET) || (a.kind == SET && b.kind == UNSET) {
            return Some(MergeOutcome::Contradiction {
                rule: "sticky-agree",
            });
        }
        None
    }

    fn hints(&self, _ctx: &mut VarCtx, hyp: &GhostAtom, goal: &Atom) -> Vec<HintCandidate> {
        let Atom::Ghost(g) = goal else {
            return Vec::new();
        };
        if hyp.kind == UNSET && g.kind == SET {
            // sticky-trip: unset γ ⊫ set γ ∗ [set γ] — the residue `U` of
            // the hint judgment hands the caller a second (persistent)
            // copy of the freshly set bit, so the postcondition can keep
            // it even though the goal copy goes into the invariant.
            return vec![HintCandidate::new("sticky-trip")
                .unify(g.gname.clone(), hyp.gname.clone())
                .residue(Assertion::atom(set(hyp.gname.clone())))];
        }
        Vec::new()
    }

    fn allocations(&self, ctx: &mut VarCtx, goal: &GhostAtom) -> Vec<HintCandidate> {
        if goal.kind != UNSET {
            return Vec::new();
        }
        let fresh = Term::var(ctx.fresh_var_base(Sort::GhostName, "γ"));
        vec![HintCandidate::new("sticky-alloc").unify(goal.gname.clone(), fresh)]
    }
}

const SOURCE: &str = "\
def make _ := ref 0
def trip f := f <- 1
def observe f := !f
";

/// `is_flag γ v`: the cell's invariant ties its value to the bit.
const FLAG: &str = "\
is_flag γ v := ∃ l. ⌜v = #l⌝ ∗ inv flag (∃ b. l ↦ #b ∗ (⌜b = 0⌝ ∗ unset γ ∨ ⌜b = 1⌝ ∗ set γ))
";

/// The cell's specifications.
const SPECS: &str = "\
SPEC {{ True }} make () {{ w γ, RET w; is_flag γ w }}
SPEC γ, {{ is_flag γ f }} trip f {{ RET #(); set γ }}
SPEC γ, {{ is_flag γ f ∗ set γ }} observe f {{ RET #1; True }}
";

fn main() {
    // Register the user library *next to* the built-in ones, and its two
    // atoms next to the built-in names, so annotations can mention them.
    let mut registry = Registry::standard();
    registry.register(Box::new(StickyLib));
    let mut atoms = Registry::standard_atoms();
    atoms.push(AtomSig { kind: UNSET, pred: false, args: &[] });
    atoms.push(AtomSig { kind: SET, pred: false, args: &[] });

    let ws = Ws::elaborate(SOURCE, &format!("{FLAG}{SPECS}"), &atoms).expect("annotation elaborates");
    let jobs: Vec<_> = ws
        .declared()
        .iter()
        .map(|s| (s, VerifyOptions::automatic()))
        .collect();
    let outcome = ws
        .verify_all(&registry, &jobs)
        .expect("the write-once cell verifies");
    outcome.check_all().expect("traces replay");

    assert_eq!(outcome.manual_steps, 0);
    let hints = outcome.hints_used();
    assert!(hints.contains("sticky-alloc"), "allocation hint fired");
    assert!(hints.contains("sticky-trip"), "mutation hint fired");

    println!("write-once cell verified with a 40-line user ghost library:");
    for proof in &outcome.proofs {
        println!(
            "  {:<8} {} trace steps, {} symbolic-execution steps",
            proof.name,
            proof.trace.len(),
            proof.trace.symex_steps()
        );
    }
    println!("hints used: {hints:?}");

    // `observe` before any `trip` is unprovable: without `set γ` in the
    // precondition the cell may still hold 0.
    let unset_spec = "SPEC γ, {{ is_flag γ f }} observe f {{ RET #1; True }}\n";
    let ws2 = Ws::elaborate(SOURCE, &format!("{FLAG}{unset_spec}"), &atoms).expect("elaborates");
    let err = ws2
        .verify_all(&registry, &[(ws2.named("observe"), VerifyOptions::automatic())])
        .expect_err("reading 1 without set γ must not verify");
    println!("\nwithout set γ the read is rightly rejected:\n{err}");
}
