//! Shared infrastructure for the benchmark examples.

use diaframe_core::annot::{AnnotError, Annotation, Elaborated};
use diaframe_core::{Spec, Stuck, VerifiedProof, VerifyOptions};
use diaframe_ghost::{AtomSig, Registry};
use diaframe_heaplang::monitor::SyncModel;
use diaframe_heaplang::parser::{link, parse_program, Def};
use diaframe_heaplang::{parse_expr, Expr, Heap, Val};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex, OnceLock};

/// The paper-reported numbers for one tool on one example: `(total, proof)`
/// — `n/m` in Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ToolStat {
    /// Total lines.
    pub total: u32,
    /// Of which proof work.
    pub proof: u32,
}

impl ToolStat {
    #[must_use]
    /// A comparison-tool entry with `total` annotation lines, `proof` of which are proof script.
    pub const fn new(total: u32, proof: u32) -> ToolStat {
        ToolStat { total, proof }
    }
}

/// The paper-reported row of Figure 6 for one example.
#[derive(Debug, Clone, Default)]
pub struct PaperRow {
    /// Lines of implementation.
    pub impl_lines: u32,
    /// Annotation lines `n/m` (total / proof work).
    pub annot: (u32, u32),
    /// Lines of proof-search customization.
    pub custom: u32,
    /// Hints used `h(c)` (total, of which custom).
    pub hints: (u32, u32),
    /// Verification time `m:ss`.
    pub time: &'static str,
    /// Diaframe total `n/m`.
    pub dia_total: (u32, u32),
    /// Manual-Iris total, if the example exists in the Iris distribution.
    pub iris: Option<ToolStat>,
    /// Starling total, if applicable.
    pub starling: Option<ToolStat>,
    /// Caper total, if applicable.
    pub caper: Option<ToolStat>,
    /// Voila total, if applicable.
    pub voila: Option<ToolStat>,
}

/// The measured outcome of verifying one example.
#[derive(Debug)]
pub struct ExampleOutcome {
    /// One verified proof per specification.
    pub proofs: Vec<VerifiedProof>,
    /// Manual steps supplied (script steps + hints) — the unit of
    /// "proof work".
    pub manual_steps: usize,
}

impl ExampleOutcome {
    /// Distinct hint rules used across all proofs.
    #[must_use]
    pub fn hints_used(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for p in &self.proofs {
            out.extend(p.trace.hints_used());
        }
        out
    }

    /// Distinct custom hint rules used.
    #[must_use]
    pub fn custom_hints_used(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for p in &self.proofs {
            out.extend(p.trace.custom_hints_used());
        }
        out
    }

    /// Replays all traces through the checker.
    ///
    /// # Errors
    ///
    /// Returns the first checker failure.
    pub fn check_all(&self) -> Result<(), diaframe_core::checker::CheckError> {
        for p in &self.proofs {
            p.check()?;
        }
        Ok(())
    }
}

/// One Figure 6 example as data: the program, its annotation, the
/// paper's row, the sabotaged variant and the adequacy client. Each
/// example module holds one `static EXAMPLE: Record`; everything done
/// with an example is done by [`Example`]'s provided methods.
#[derive(Debug)]
pub struct Record {
    /// The Figure 6 row name.
    pub name: &'static str,
    /// The HeapLang source (the `impl` column counts its lines).
    pub source: &'static str,
    /// The annotation: the specifications, invariants, proof scripts and
    /// hints in the paper's notation, elaborated by [`Ws::new`] into the
    /// specs [`Example::verify`] proves (the `annot` column counts its
    /// lines).
    pub annotation: &'static str,
    /// The paper-reported statistics.
    pub paper: PaperRow,
    /// The specs [`Example::verify`] proves, in order; empty for every
    /// declared spec in declaration order.
    pub spec_order: &'static [&'static str],
    /// A sabotaged variant that must *fail* to verify — the §6
    /// failing-verification experiment: `(spec, from, to)` is `spec`
    /// against the source with `from` (which occurs exactly once)
    /// replaced by `to`.
    pub sabotage: Option<(&'static str, &'static str, &'static str)>,
    /// The closed client the adequacy tests run under many schedules.
    pub client: Client,
}

/// An executable check on a finished run's final value and quiescent
/// heap.
pub type HeapCheck = fn(&Val, &Heap) -> bool;

/// An adequacy client: a `main` program run under many schedules (the
/// example's executable counterpart of its proved specs, or a negative
/// example's buggy program) with the postcondition every terminating
/// run must satisfy.
#[derive(Debug)]
pub struct Client {
    /// The `main` expression, linked against the example's program.
    pub main: &'static str,
    /// The value `main` must return.
    pub expected: Val,
    /// An extra check on the final value and quiescent heap, with its
    /// rendering for reports.
    pub heap: Option<(&'static str, HeapCheck)>,
    /// Atomicity model for the race detector: examples whose
    /// synchronization is *implemented with* plain loads and stores
    /// (Peterson, barriers, ticket/CLH/MCS locks) use
    /// [`SyncModel::AllAtomic`].
    pub sync_model: SyncModel,
    /// Whether the lock-order cycle heuristic applies (see
    /// [`diaframe_heaplang::sweep::SweepConfig::lock_order`]). Off only
    /// for protocols that transfer lock ownership logically between
    /// threads (the duolock's group-held global lock); the sound
    /// manifest-deadlock detector stays on either way.
    pub lock_order: bool,
}

impl Client {
    /// `main` linked against the definitions `defs`.
    ///
    /// # Panics
    ///
    /// Panics when `main` does not parse (the text is static, so this is
    /// a mistake in the example).
    #[must_use]
    pub fn program(&self, defs: &[Def]) -> Expr {
        link(defs, &parse_expr(self.main).expect("client parses"))
    }

    /// Whether a finished run satisfies the postcondition.
    #[must_use]
    pub fn holds(&self, v: &Val, h: &Heap) -> bool {
        *v == self.expected && self.heap.is_none_or(|(_, check)| check(v, h))
    }

    /// The postcondition rendered for reports.
    #[must_use]
    pub fn post_desc(&self) -> String {
        match self.heap {
            None => format!("result = {}", self.expected),
            Some((desc, _)) => format!("result = {} ∧ {desc}", self.expected),
        }
    }
}

/// One benchmark example: a handle on its [`Record`].
pub trait Example: Sync + Send {
    /// The example's record.
    fn record(&self) -> &Record;

    /// The Figure 6 row name.
    fn name(&self) -> &'static str {
        self.record().name
    }

    /// The row name as a string. Verification depends on nothing but
    /// the name, so this is what memoization keys on; the workspace
    /// keys on [`Example::name`] directly, and this stays for the
    /// benchmark harness, which calls it.
    fn cache_key(&self) -> String {
        self.name().to_owned()
    }

    /// Verifies every specification of the example, with the manual
    /// steps its annotation states.
    ///
    /// # Errors
    ///
    /// Returns the stuck report if automation (plus the example's
    /// documented manual steps) fails.
    fn verify(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        let r = self.record();
        let ws = Ws::cached(r);
        match r.spec_order {
            [] => ws.verify_declared(),
            order => ws.verify_named(order),
        }
    }

    /// Verifies the sabotaged variant of [`Record::sabotage`], if any.
    /// Its workspace is elaborated afresh: only the examples themselves
    /// are kept for the life of the process.
    fn verify_broken(&self) -> Option<Result<ExampleOutcome, Box<Stuck>>> {
        let r = self.record();
        let (spec, from, to) = r.sabotage?;
        let source = r.source.replace(from, to);
        Some(Ws::new(&source, r.annotation).verify_named(&[spec]))
    }

    /// The closed adequacy client: [`Client::main`] linked against the
    /// example's program, after the sources of the libraries its
    /// annotation `Require`s.
    ///
    /// # Panics
    ///
    /// Panics when the annotation or the program does not parse.
    fn client_program(&self) -> Expr {
        let r = self.record();
        let source = Annotation::parse(r.annotation)
            .and_then(|a| a.program_source(r.source, &crate::registry::library))
            .unwrap_or_else(|e| panic!("{}: {e}", r.name));
        r.client
            .program(&parse_program(&source).expect("example source parses"))
    }
}

impl Example for Record {
    fn record(&self) -> &Record {
        self
    }
}

/// Counts the non-empty lines of a source string (the unit of the `impl`
/// and `annot` columns).
#[must_use]
pub fn count_lines(src: &str) -> usize {
    src.lines().filter(|l| !l.trim().is_empty()).count()
}

/// Counts an annotation's statement lines (the unit of the `annot`
/// column): every line the parser consumes, not its `//` comments.
#[must_use]
pub fn annotation_lines(text: &str) -> usize {
    Annotation::parse(text).map_or_else(|_| count_lines(text), |a| a.statement_lines().len())
}

/// One example's elaborated annotation: the proof-context template
/// (cloned per verification), the registered specs, the specs the
/// annotation declares, their scripts and the hints, produced by
/// [`diaframe_core::annot::elaborate`].
pub struct Ws(Elaborated);

impl Ws {
    /// Elaborates an example's annotation against its source, with the
    /// standard ghost atoms and the examples as libraries.
    ///
    /// # Panics
    ///
    /// Panics on a parse or elaboration error (the texts are static, so
    /// this is a mistake in the example).
    #[must_use]
    pub fn new(source: &str, annotation: &str) -> Ws {
        Ws::elaborate(source, annotation, &Registry::standard_atoms())
            .unwrap_or_else(|e| panic!("{e}\n{annotation}"))
    }

    /// [`Ws::new`] for an example, elaborated once per process and
    /// looked up by its row name (about 55 KB each).
    ///
    /// # Panics
    ///
    /// As [`Ws::new`].
    #[must_use]
    pub fn cached(record: &Record) -> Arc<Ws> {
        type Cache = Mutex<HashMap<&'static str, Arc<Ws>>>;
        static CACHE: OnceLock<Cache> = OnceLock::new();
        let cache = CACHE.get_or_init(Cache::default);
        if let Some(ws) = cache.lock().expect("workspace cache").get(record.name) {
            return Arc::clone(ws);
        }
        let ws = Arc::new(Ws::new(record.source, record.annotation));
        let mut map = cache.lock().expect("workspace cache");
        Arc::clone(map.entry(record.name).or_insert(ws))
    }

    /// Elaborates with an explicit ghost-atom name table (for examples
    /// that bring their own ghost library).
    ///
    /// # Errors
    ///
    /// Returns the first parse or elaboration error.
    pub fn elaborate(source: &str, annotation: &str, atoms: &[AtomSig]) -> Result<Ws, AnnotError> {
        diaframe_core::annot::elaborate(source, annotation, atoms, &crate::registry::library)
            .map(Ws)
    }

    /// The specs the annotation declares, in declaration order.
    #[must_use]
    pub fn declared(&self) -> &[Spec] {
        &self.0.declared
    }

    /// A registered spec by name.
    ///
    /// # Panics
    ///
    /// Panics when no spec has that name.
    #[must_use]
    pub fn named(&self, name: &str) -> &Spec {
        self.0
            .table
            .specs()
            .iter()
            .rev()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("no spec named {name}"))
    }

    /// The options the annotation gives spec `name`: its
    /// `Next Obligation.` script and every `HINT`.
    #[must_use]
    pub fn options(&self, name: &str) -> VerifyOptions {
        VerifyOptions {
            tactics: self
                .0
                .scripts
                .iter()
                .find(|(s, _)| s == name)
                .map(|(_, t)| t.clone())
                .unwrap_or_default(),
            hints: self.0.hints.clone(),
            ..VerifyOptions::default()
        }
    }

    /// Verifies every declared spec, in declaration order.
    ///
    /// # Errors
    ///
    /// Returns the first stuck report.
    pub fn verify_declared(&self) -> Result<ExampleOutcome, Box<Stuck>> {
        let names: Vec<&str> = self.0.declared.iter().map(|s| s.name.as_str()).collect();
        self.verify_named(&names)
    }

    /// Verifies the named specs in the given order.
    ///
    /// # Errors
    ///
    /// Returns the first stuck report.
    pub fn verify_named(&self, names: &[&str]) -> Result<ExampleOutcome, Box<Stuck>> {
        let jobs: Vec<(&Spec, VerifyOptions)> = names
            .iter()
            .map(|n| (self.named(n), self.options(n)))
            .collect();
        self.verify_all(&Registry::standard(), &jobs)
    }

    /// Verifies a list of specs (with per-spec options), producing the
    /// outcome.
    ///
    /// # Errors
    ///
    /// Returns the first stuck report.
    pub fn verify_all(
        &self,
        registry: &Registry,
        specs_with_opts: &[(&Spec, VerifyOptions)],
    ) -> Result<ExampleOutcome, Box<Stuck>> {
        // One big-stack verification session for the whole batch: the
        // per-spec `verify` calls then run inline instead of each
        // handing its spec to a pool worker.
        diaframe_core::with_verification_session(|| {
            let mut proofs = Vec::new();
            // Manual proof work is the customization *written* (script
            // steps + hints), shared across the example's specs — count
            // the largest per-spec script, not the per-spec sum.
            let mut manual = 0;
            for (spec, opts) in specs_with_opts {
                manual = manual.max(opts.manual_steps());
                let proof =
                    diaframe_core::verify(registry, &self.0.table, opts, self.0.ctx.clone(), spec)?;
                proofs.push(proof);
            }
            Ok(ExampleOutcome {
                proofs,
                manual_steps: manual,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_counting_skips_blanks() {
        assert_eq!(count_lines("a\n\n  \nb\n"), 2);
    }

    #[test]
    fn workspace_links_functions() {
        let ws = Ws::new(
            "def f x := x + 1\ndef g y := f (f y)",
            "SPEC {{ True }} g y {{ n, RET #n; True }}",
        );
        assert!(matches!(ws.named("g").func, Val::Rec { .. }));
        assert_eq!(ws.declared().len(), 1);
    }
}
