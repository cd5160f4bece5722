//! Stuck-state reports — the interactive fallback of §2.2.
//!
//! When the strategy cannot make progress it stops (it never backtracks
//! globally) and produces a [`Stuck`] report rendering the proof state in
//! the style of the Iris Proof Mode display shown in §2.2 of the paper:
//! the pure context, the persistent hypotheses, the spatial hypotheses,
//! and the remaining goal.

use crate::ctx::ProofCtx;
use crate::telemetry::DiagSnapshot;
use diaframe_logic::display::pp_assertion;
use diaframe_term::display::pp_prop;
use std::fmt;

/// A stuck proof state.
#[derive(Debug, Clone)]
pub struct Stuck {
    /// Why the engine stopped.
    pub reason: String,
    /// The proof context at the stuck point (cloned).
    pub ctx: ProofCtx,
    /// A rendering of the remaining goal.
    pub goal: String,
    /// The head of the goal atom no hypothesis could key, when the
    /// engine stopped inside hint search (`goal_head` taxonomy).
    pub unmatched_head: Option<String>,
    /// Search-effort diagnostics, captured from the installed
    /// [`TelemetrySession`](crate::telemetry::TelemetrySession) at the
    /// stuck point: the subtree of the innermost open `verify` span, or
    /// the whole session outside one. `None` when no session was
    /// installed.
    pub diag: Option<DiagSnapshot>,
}

impl Stuck {
    /// Renders the proof state like the Iris Proof Mode.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let bar = "─".repeat(72);
        for f in &self.ctx.facts {
            let f = f.zonk(&self.ctx.vars);
            out.push_str(&format!("{}\n", pp_prop(&self.ctx.vars, &f)));
        }
        out.push_str(&bar);
        out.push('\n');
        let mut wrote_persistent = false;
        for h in &self.ctx.delta {
            if h.persistent {
                let a = h.assertion.zonk(&self.ctx.vars);
                out.push_str(&format!(
                    "\"{}\" : {}\n",
                    h.name,
                    pp_assertion(&self.ctx.vars, &self.ctx.preds, &a)
                ));
                wrote_persistent = true;
            }
        }
        if wrote_persistent {
            out.push_str(&"╌".repeat(72));
            out.push_str("□\n");
        }
        for h in &self.ctx.delta {
            if !h.persistent {
                let a = h.assertion.zonk(&self.ctx.vars);
                out.push_str(&format!(
                    "\"{}\" : {}\n",
                    h.name,
                    pp_assertion(&self.ctx.vars, &self.ctx.preds, &a)
                ));
            }
        }
        out.push_str(&"╌".repeat(72));
        out.push_str("∗\n");
        out.push_str(&self.goal);
        out.push('\n');
        out.push_str(&format!("(stuck: {})\n", self.reason));
        out
    }

    /// Renders the proof state plus the structured search diagnostics:
    /// the unmatched goal head, the top hypotheses by failed-probe
    /// count, the goal heads the search missed entirely, and the
    /// search-effort counters. The plain [`render`](Self::render)
    /// output is a byte-identical prefix of this one.
    #[must_use]
    pub fn render_explain(&self) -> String {
        const TOP_K: usize = 5;
        let mut out = self.render();
        out.push_str(&"═".repeat(72));
        out.push('\n');
        out.push_str("search diagnostics\n");
        match &self.unmatched_head {
            Some(head) => out.push_str(&format!("unmatched goal head: {head}\n")),
            None => out.push_str("unmatched goal head: (engine did not stop in hint search)\n"),
        }
        let Some(diag) = &self.diag else {
            out.push_str(
                "(no telemetry session was active; install a TelemetrySession or use \
                 `figure6 --explain` to capture counters)\n",
            );
            return out;
        };
        let c = &diag.counters;
        if diag.failed_probes.is_empty() {
            out.push_str("no hypothesis was probed and rejected\n");
        } else {
            out.push_str(&format!(
                "hypotheses by failed probes (top {}):\n",
                TOP_K.min(diag.failed_probes.len())
            ));
            for (name, n) in diag.failed_probes.iter().take(TOP_K) {
                out.push_str(&format!("  \"{name}\" : {n} failed probe(s)\n"));
            }
        }
        if !diag.missed_heads.is_empty() {
            out.push_str("goal heads with no keying hypothesis:\n");
            for (head, n) in diag.missed_heads.iter().take(TOP_K) {
                out.push_str(&format!("  {head} : {n} miss(es)\n"));
            }
        }
        out.push_str(&format!(
            "probes: {} attempted, {} skipped by index, {} run, {} matched\n",
            c.probes_attempted, c.probes_skipped, c.probes_indexed_hit, c.probes_matched
        ));
        out.push_str(&format!(
            "rule applications: {} ({} hints, {} invariant openings)\n",
            c.rule_applications(),
            c.hints_applied(),
            c.inv_openings()
        ));
        out.push_str(&format!(
            "backtracks: {} (deepest abandoned branch: {} step(s)), evar solves: {}\n",
            c.backtracks, c.deepest_abandoned, c.evar_solve_events
        ));
        out
    }
}

impl fmt::Display for Stuck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl std::error::Error for Stuck {}

#[cfg(test)]
mod tests {
    use super::*;
    use diaframe_logic::{Assertion, Atom, PredTable};
    use diaframe_term::{PureProp, Sort, Term};

    #[test]
    fn render_contains_all_sections() {
        let mut ctx = ProofCtx::new(PredTable::new());
        let z = Term::var(ctx.vars.fresh_var(Sort::Int, "z"));
        ctx.add_fact(PureProp::lt(Term::int(0), z.clone()));
        ctx.add_hyp(
            Assertion::atom(Atom::invariant("N".into(), Assertion::pure(PureProp::True))),
            true,
        );
        ctx.add_hyp(
            Assertion::atom(Atom::points_to(Term::Loc(0), Term::v_int(z))),
            false,
        );
        let stuck = Stuck {
            reason: "no hint found".into(),
            ctx,
            goal: "WP … {{ … }}".into(),
            unmatched_head: None,
            diag: None,
        };
        let r = stuck.render();
        assert!(r.contains("0 < z0"));
        assert!(r.contains("inv N"));
        assert!(r.contains("↦"));
        assert!(r.contains("no hint found"));
        assert!(r.contains('□'));
    }

    #[test]
    fn render_explain_extends_render_with_diagnostics() {
        let mut diag = crate::telemetry::DiagSnapshot {
            failed_probes: vec![("Hlock".into(), 7), ("Hcnt".into(), 2)],
            missed_heads: vec![("pred is_lock".into(), 3)],
            ..Default::default()
        };
        diag.counters.probes_attempted = 12;
        diag.counters.probes_skipped = 3;
        diag.counters.probes_indexed_hit = 9;
        let stuck = Stuck {
            reason: "no bi-abduction hint applies".into(),
            ctx: ProofCtx::new(PredTable::new()),
            goal: "pred is_lock".into(),
            unmatched_head: Some("pred is_lock".into()),
            diag: Some(diag),
        };
        let r = stuck.render_explain();
        // The plain rendering is a byte-identical prefix.
        assert!(r.starts_with(&stuck.render()));
        assert!(r.contains("unmatched goal head: pred is_lock"));
        assert!(r.contains("\"Hlock\" : 7 failed probe(s)"));
        assert!(r.contains("pred is_lock : 3 miss(es)"));
        assert!(r.contains("probes: 12 attempted, 3 skipped by index, 9 run"));

        // Without a session the diagnostics degrade gracefully.
        let bare = Stuck {
            reason: "out of fuel".into(),
            ctx: ProofCtx::new(PredTable::new()),
            goal: "…".into(),
            unmatched_head: None,
            diag: None,
        };
        let r = bare.render_explain();
        assert!(r.contains("unmatched goal head: (engine did not stop in hint search)"));
        assert!(r.contains("no telemetry session was active"));
    }
}
