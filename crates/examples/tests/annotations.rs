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

/// Every word of each `HINT` and `Next Obligation.` line deleted,
/// duplicated or swapped with the next, and every prefix of those lines:
/// parsing and elaboration never panic, and every error has a position.
#[test]
fn mutated_scripts_and_hints_fail_with_a_position() {
    let atoms = Registry::standard_atoms();
    let mut mutants = 0;
    for ex in all_examples() {
        let lines: Vec<&str> = ex.annotation().lines().collect();
        for (i, line) in lines.iter().enumerate() {
            if !line.starts_with("HINT ") && !line.starts_with("Next Obligation.") {
                continue;
            }
            let words: Vec<&str> = line.split(' ').collect();
            let mut variants: Vec<String> = line
                .char_indices()
                .map(|(k, _)| line[..k].to_owned())
                .collect();
            for j in 0..words.len() {
                let mut w = words.clone();
                w.remove(j);
                variants.push(w.join(" "));
                let mut w = words.clone();
                w.insert(j, words[j]);
                variants.push(w.join(" "));
                if j + 1 < words.len() {
                    let mut w = words.clone();
                    w.swap(j, j + 1);
                    variants.push(w.join(" "));
                }
            }
            for v in variants {
                let mut text = lines.clone();
                text[i] = &v;
                let mutant = text.join("\n");
                mutants += 1;
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    Ws::elaborate(ex.source(), &mutant, &atoms).err()
                }));
                let err = run.unwrap_or_else(|_| panic!("{}: panic on `{v}`", ex.name()));
                if let Some(e) = err {
                    assert!(e.line > 0 && e.col > 0, "{}: `{v}`: {e}", ex.name());
                }
            }
        }
    }
    assert!(mutants > 1000, "{mutants} mutants");
}

/// Every sabotage edits its source in exactly one place.
#[test]
fn each_sabotage_edits_one_place() {
    for ex in all_examples() {
        if let Some((_, from, to)) = ex.sabotage() {
            assert_eq!(ex.source().matches(from).count(), 1, "{}", ex.name());
            assert_ne!(from, to, "{}", ex.name());
        }
    }
}
