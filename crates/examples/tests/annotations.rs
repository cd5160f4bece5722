//! Every example's `ANNOTATION` is the single source of its specs: it
//! parses, every non-blank line is a statement or a comment, it
//! elaborates against `SOURCE`, and the specs it declares are exactly
//! the proofs `verify()` returns.

use diaframe_core::annot::Annotation;
use diaframe_examples::{all_examples, Ws};
use diaframe_ghost::Registry;

#[test]
fn every_annotation_elaborates_to_the_verified_specs() {
    for ex in all_examples() {
        let name = ex.name();
        let text = ex.annotation();
        let ann = Annotation::parse(text).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (i, line) in text.lines().enumerate() {
            let t = line.trim();
            assert!(
                t.is_empty() || t.starts_with("//") || ann.statement_lines().contains(&(i + 1)),
                "{name}: line {} is neither a statement nor a comment: {line}",
                i + 1
            );
        }
        let ws = Ws::elaborate(ex.source(), text, &Registry::standard_atoms())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let declared: Vec<&str> = ws.declared().iter().map(|s| s.name.as_str()).collect();
        let outcome = ex.verify().unwrap_or_else(|e| panic!("{name} stuck:\n{e}"));
        let proofs: Vec<&str> = outcome.proofs.iter().map(|p| p.name.as_str()).collect();
        let instances = text.lines().filter(|l| l.starts_with("Instance ")).count();
        if instances > 1 {
            // Two library instances may be verified in either order; the
            // annotation's own specs still come last, in text order.
            let own = ann.spec_names();
            assert!(
                proofs.ends_with(&own.iter().map(String::as_str).collect::<Vec<_>>()),
                "{name}"
            );
            let (mut d, mut p) = (declared.clone(), proofs.clone());
            d.sort_unstable();
            p.sort_unstable();
            assert_eq!(d, p, "{name}");
        } else {
            assert_eq!(declared, proofs, "{name}");
        }
    }
}
