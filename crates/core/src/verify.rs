//! The top-level verification API.
//!
//! [`verify`] proves a [`Spec`] for a function: it introduces the
//! specification's binders and precondition, β-reduces the outer call once
//! (so the Löb hypothesis — the spec itself, registered in the
//! [`SpecTable`] — is only available *after* a program step), and runs the
//! [`Engine`] on the resulting weakest-precondition goal.
//!
//! The engine's recursion needs a far deeper stack than a default thread
//! has, so every proof runs inside a *verification session*
//! ([`with_verification_session`]): on one of the persistent big-stack
//! workers of [`crate::driver`], or inline when the caller already is
//! one.

use crate::checker::{check, CheckError};
use crate::ctx::ProofCtx;
use crate::goal::Goal;
use crate::report::Stuck;
use crate::spec::{Spec, SpecTable};
use crate::strategy::Engine;
use crate::tactic::VerifyOptions;
use crate::telemetry;
use crate::trace::ProofTrace;
use diaframe_ghost::Registry;
use diaframe_heaplang::{Expr, Val};
use diaframe_logic::{MaskT, WpPost};
use diaframe_term::solver::egraph;
use diaframe_term::{Subst, Term};
use std::sync::Arc;

/// A successfully verified specification.
#[derive(Debug, Clone)]
pub struct VerifiedProof {
    /// The name of the verified spec.
    pub name: String,
    /// The proof trace.
    pub trace: ProofTrace,
}

impl VerifiedProof {
    /// Replays the trace through the independent checker.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure.
    pub fn check(&self) -> Result<(), CheckError> {
        check(&self.trace)
    }
}

/// Verifies `spec` (which must already be registered in `specs`, so
/// recursive calls resolve to the Löb hypothesis), under the given ghost
/// libraries, sibling specifications and options.
///
/// The proof context `ctx` carries the predicate table and any setup the
/// example performed (abstract predicates); it is consumed.
///
/// # Errors
///
/// Returns the [`Stuck`] report if automation (plus the provided tactics)
/// cannot finish the proof.
pub fn verify(
    registry: &Registry,
    specs: &SpecTable,
    opts: &VerifyOptions,
    ctx: ProofCtx,
    spec: &Spec,
) -> Result<VerifiedProof, Box<Stuck>> {
    with_verification_session(|| verify_inner(registry, specs, opts, ctx, spec))
}

/// The verification worker's stack size in bytes (512 MiB; see
/// [`with_verification_session`] for why it is this large).
pub const SESSION_STACK_BYTES: usize = 512 * 1024 * 1024;

/// Runs `f` on a big-stack verification worker, or inline when the
/// current thread already is one.
///
/// The engine recurses once per rule application with no explicit
/// worklist — a single symbolic-execution step can nest `solve` →
/// `intro_hyps` → `solve` → … hundreds of frames deep, and each frame
/// holds cloned proof contexts for branching. Default 8 MB thread stacks
/// overflow on the larger examples, so workers get 512 MiB stacks
/// (address space, not resident memory: only pages actually touched are
/// ever committed). The workers are the persistent pool of
/// [`crate::driver`]: `f` is handed to a parked worker (one is spawned
/// when none is parked) under the caller's ablation override and
/// telemetry session, and this call blocks until `f` has finished. A
/// worker keeps the stack pages it touched, so the next session on it
/// pays neither a spawn nor those page faults again (until it has been
/// parked for [`crate::driver::KEEP_ALIVE`] and exits). Callers verifying
/// many specs should still wrap the whole batch in one session: entering
/// an established session is a thread-local check instead of a hand-off
/// per `verify` call.
///
/// # Panics
///
/// Re-raises any panic from `f` on the calling thread, so `catch_unwind`
/// around a session behaves exactly like `catch_unwind` around `f`. The
/// worker survives it.
pub fn with_verification_session<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    let outcome = crate::driver::run_scoped(vec![f]).pop();
    match outcome.expect("one job, one outcome") {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

fn verify_inner(
    registry: &Registry,
    specs: &SpecTable,
    opts: &VerifyOptions,
    ctx: ProofCtx,
    spec: &Spec,
) -> Result<VerifiedProof, Box<Stuck>> {
    let mut prof_span = crate::profile::span(crate::profile::SpanKind::Spec);
    prof_span.set_label(&spec.name);
    // The solver counters are per thread; draining them on both sides
    // keeps what this spec reports deterministic no matter how worker
    // threads are reused across examples.
    let _ = egraph::take_stats();
    let result = verify_goal(registry, specs, opts, ctx, spec);
    telemetry::egraph_stats(egraph::take_stats());
    result
}

fn verify_goal(
    registry: &Registry,
    specs: &SpecTable,
    opts: &VerifyOptions,
    mut ctx: ProofCtx,
    spec: &Spec,
) -> Result<VerifiedProof, Box<Stuck>> {
    let mut engine = Engine::new(registry, specs, opts);
    // Introduce the argument and auxiliary binders as fresh universals.
    ctx.vars.push_level();
    let mut s = Subst::new();
    let arg_sort = ctx.vars.var_sort(spec.arg);
    let arg_name = ctx.vars.var_name(spec.arg).to_owned();
    let arg_var = ctx.vars.fresh_var(arg_sort, &arg_name);
    s.insert(spec.arg, Term::var(arg_var));
    for b in &spec.binders {
        let sort = ctx.vars.var_sort(*b);
        let name = ctx.vars.var_name(*b).to_owned();
        let v = ctx.vars.fresh_var(sort, &name);
        s.insert(*b, Term::var(v));
    }
    let pre = spec.pre.subst(&s);
    let post_body = spec.post.subst(&s);
    // β-reduce the outer call once: wp (f a) is proved by stepping to
    // wp body[f, a], which is what makes the registered self-spec a
    // *guarded* induction hypothesis.
    let vars_snapshot = ctx.vars.clone();
    let arg_val = ctx.syms.term_to_val(&vars_snapshot, &Term::var(arg_var));
    let body = beta_reduce(&spec.func, &arg_val);
    let goal = Goal::wand_intro(
        pre,
        Goal::Wp {
            expr: body,
            mask: MaskT::top(),
            post: WpPost {
                ret: spec.ret,
                body: Arc::new(post_body),
            },
            then: Box::new(Goal::Done),
        },
    );
    // The wp postcondition still mentions `spec.ret` as binder — `post.at`
    // substitutes it at the value step, so no further renaming is needed.
    {
        let _prof = crate::profile::span(crate::profile::SpanKind::Search);
        engine.solve(ctx, goal)?;
    }
    Ok(VerifiedProof {
        name: spec.name.clone(),
        trace: engine.trace,
    })
}

/// One β-step of `f a` for a closure value `f`.
fn beta_reduce(f: &Val, a: &Val) -> Expr {
    match f {
        Val::Rec { f: fname, x, body } => {
            let mut b = (**body).clone();
            if let Some(fname) = fname {
                if x.as_deref() != Some(fname.as_str()) {
                    b = b.subst(fname, f);
                }
            }
            b.subst_opt(x.as_deref(), a)
        }
        other => panic!("specification for a non-function value {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_logic::{Assertion, Binder, PredTable};
    use diaframe_term::{PureProp, Sort};

    /// Verify the identity function: SPEC {True} (fun x := x) v {RET v; True}
    /// with the return-value equation in the postcondition.
    #[test]
    fn identity_function() {
        let registry = Registry::standard();
        let mut specs = SpecTable::new();
        let mut ctx = ProofCtx::new(PredTable::new());
        let f = Expr::lam("x", Expr::var("x")).to_rec_val().unwrap();
        let arg = ctx.vars.fresh_var(Sort::Val, "a");
        let ret = ctx.vars.fresh_var(Sort::Val, "w");
        let spec = Spec {
            name: "id".into(),
            func: f,
            arg,
            binders: Vec::new(),
            pre: Assertion::emp(),
            ret,
            post: Assertion::pure(PureProp::eq(Term::var(ret), Term::var(arg))),
            atomic: false,
        };
        specs.register(spec.clone());
        let opts = VerifyOptions::automatic();
        let proof = verify(&registry, &specs, &opts, ctx, &spec).expect("id verifies");
        assert!(!proof.trace.is_empty());
        proof.check().expect("trace replays");
    }

    /// SPEC {True} (fun _ := ref 7) () {RET v; ∃ℓ. v = #ℓ ∗ ℓ ↦ #7} — but we
    /// state the simpler consequence that the result points to 7 via the
    /// allocation postcondition shape.
    #[test]
    fn allocation() {
        let registry = Registry::standard();
        let mut specs = SpecTable::new();
        let mut ctx = ProofCtx::new(PredTable::new());
        let f = Expr::lam("u", Expr::alloc(Expr::int(7)))
            .to_rec_val()
            .unwrap();
        let arg = ctx.vars.fresh_var(Sort::Val, "a");
        let ret = ctx.vars.fresh_var(Sort::Val, "w");
        let l = ctx.vars.fresh_var(Sort::Loc, "l");
        let spec = Spec {
            name: "alloc7".into(),
            func: f,
            arg,
            binders: Vec::new(),
            pre: Assertion::emp(),
            ret,
            post: Assertion::exists(
                Binder::new(l),
                Assertion::sep(
                    Assertion::pure(PureProp::eq(Term::var(ret), Term::v_loc(Term::var(l)))),
                    Assertion::atom(diaframe_logic::Atom::points_to(
                        Term::var(l),
                        Term::v_int_lit(7),
                    )),
                ),
            ),
            atomic: false,
        };
        specs.register(spec.clone());
        let opts = VerifyOptions::automatic();
        let proof = verify(&registry, &specs, &opts, ctx, &spec).expect("alloc verifies");
        proof.check().expect("trace replays");
    }
}
