//! Store robustness: a corrupted entry — truncated, bit-flipped,
//! replaced with garbage, or structurally damaged behind a valid
//! checksum — must be *detected* (counted as a corruption), *demoted* to
//! a miss, and *repaired* by the re-search. It must never change a
//! verdict and never panic.

use diaframe_bench::{store_key, ProofStore, Variant};
use diaframe_core::{current_ablation, sha256_hex, TelemetrySession};
use diaframe_examples::all_examples;
use std::path::{Path, PathBuf};

fn tmp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diaframe-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Populates a fresh store with `name`'s entry and returns the rendered
/// reference outcome plus the entry's path and key.
fn populate(dir: &Path, name: &str) -> (String, PathBuf, String) {
    let examples = all_examples();
    let ex = examples.iter().find(|e| e.name() == name).unwrap().as_ref();
    let store = ProofStore::open(dir, None).unwrap();
    let run = store.get_or_run(ex, Variant::Ok);
    let reference = render(&run);
    let key = store_key(ex, Variant::Ok, current_ablation());
    let path = store.entry_path(&key);
    assert!(path.exists());
    (reference, path, key)
}

fn render(run: &diaframe_bench::CachedRun) -> String {
    let outcome = run.outcome.as_ref().unwrap().as_ref().unwrap();
    let mut out = format!("manual={}\n", outcome.manual_steps);
    for proof in &outcome.proofs {
        out.push_str(&format!("{}: {:?}\n", proof.name, proof.trace));
    }
    out
}

/// The shared scenario: corrupt the entry with `damage`, then assert the
/// lookup detects it, still verifies correctly, repairs the file, and a
/// final fresh lookup hits cleanly.
fn assert_detected_demoted_repaired(tag: &str, damage: impl Fn(&PathBuf)) {
    let dir = tmp_store(tag);
    let (reference, path, _key) = populate(&dir, "spin_lock");
    damage(&path);

    let examples = all_examples();
    let ex = examples.iter().find(|e| e.name() == "spin_lock").unwrap().as_ref();

    // Detected + demoted: the damaged entry reads as one corruption and
    // one miss, and the verdict is the re-searched (correct) one.
    let store = ProofStore::open(&dir, None).unwrap();
    let session = TelemetrySession::new(tag);
    let installed = session.install();
    let run = store.get_or_run(ex, Variant::Ok);
    drop(installed);
    assert!(!run.from_store, "{tag}: corrupt entry must not serve a hit");
    let stats = store.stats();
    assert_eq!(stats.corruptions, 1, "{tag}: corruption must be counted");
    assert_eq!(stats.misses, 1, "{tag}: corruption demotes to a miss");
    assert_eq!(stats.hits, 0, "{tag}");
    assert_eq!(run.counters.store_corruptions, 1, "{tag}: telemetry counter");
    assert!(run.counters.probes_attempted > 0, "{tag}: the re-search was counted");
    assert_eq!(render(&run), reference, "{tag}: verdict must not change");

    // Repaired: the re-search re-inserted a good entry, so a fresh
    // handle replays it cleanly.
    drop(store);
    let healed = ProofStore::open(&dir, None).unwrap();
    let replay = healed.get_or_run(ex, Variant::Ok);
    assert!(replay.from_store, "{tag}: repaired entry must hit");
    assert_eq!(healed.stats().corruptions, 0, "{tag}");
    assert_eq!(render(&replay), reference, "{tag}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_detected_demoted_repaired() {
    assert_detected_demoted_repaired("truncate", |path| {
        let bytes = std::fs::read(path).unwrap();
        std::fs::write(path, &bytes[..bytes.len() / 2]).unwrap();
    });
}

#[test]
fn bit_flip_in_payload_is_detected() {
    assert_detected_demoted_repaired("bitflip", |path| {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(path, bytes).unwrap();
    });
}

#[test]
fn bit_flip_in_checksum_is_detected() {
    assert_detected_demoted_repaired("sumflip", |path| {
        let mut bytes = std::fs::read(path).unwrap();
        // Offset 14 is inside the 64-hex checksum of the fixed envelope
        // `{"checksum":"…`.
        bytes[14] = if bytes[14] == b'0' { b'1' } else { b'0' };
        std::fs::write(path, bytes).unwrap();
    });
}

#[test]
fn garbage_entry_is_detected() {
    assert_detected_demoted_repaired("garbage", |path| {
        std::fs::write(path, "this is not an entry at all").unwrap();
    });
}

#[test]
fn empty_entry_is_detected() {
    assert_detected_demoted_repaired("empty", |path| {
        std::fs::write(path, "").unwrap();
    });
}

#[test]
fn valid_checksum_over_undecodable_bundle_is_detected() {
    // The checksum only guards byte integrity; structural damage behind
    // a recomputed checksum must still die in the decoder, not panic or
    // serve a bogus outcome.
    assert_detected_demoted_repaired("badbundle", |path| {
        let text = std::fs::read_to_string(path).unwrap();
        let payload_start = text.find(",\"payload\":").unwrap() + ",\"payload\":".len();
        let payload = &text[payload_start..text.len() - 1];
        // Point the first varctx row at itself (a forward reference the
        // decoder must reject).
        let broken = payload.replacen("\"base\":null", "\"base\":0", 1);
        assert_ne!(&broken, payload, "fixture must actually damage the bundle");
        std::fs::write(
            path,
            format!(
                "{{\"checksum\":\"{}\",\"payload\":{broken}}}",
                sha256_hex(broken.as_bytes())
            ),
        )
        .unwrap();
    });
}

#[test]
fn entry_for_the_wrong_key_is_detected() {
    // Copy inc_dec's (valid!) entry over spin_lock's address: the
    // checksum passes, the bundle decodes, but the key binding fails —
    // a content-addressed store must never serve another spec's proof.
    let dir = tmp_store("wrongkey");
    let (_, donor_path, _) = populate(&dir, "inc_dec");
    let donor = std::fs::read(&donor_path).unwrap();
    assert_detected_demoted_repaired("wrongkey-inner", move |path| {
        std::fs::write(path, &donor).unwrap();
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_file_is_removed_even_before_repair() {
    // The demotion deletes the bad file immediately, so even if the
    // re-insert failed the poisoned bytes would be gone.
    let dir = tmp_store("unlink");
    let (_, path, _) = populate(&dir, "spin_lock");
    std::fs::write(&path, "garbage").unwrap();
    let examples = all_examples();
    let ex = examples.iter().find(|e| e.name() == "spin_lock").unwrap().as_ref();
    let store = ProofStore::open(&dir, None).unwrap();
    let _ = store.get_or_run(ex, Variant::Ok);
    let bytes = std::fs::read_to_string(&path).unwrap();
    assert!(
        bytes.starts_with("{\"checksum\":\""),
        "the re-inserted entry replaced the garbage"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
