//! Golden-fixture suite: each miniature tree under `tests/fixtures/`
//! must produce *exactly* its expected findings — code, file and line —
//! and the committed workspace must analyze clean.

use asv_analysis::{analyze, analyze_default, AnalyzerConfig, Finding};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// The stable identity of a finding: `(code, file, line)`.
fn keys(findings: &[Finding]) -> Vec<(&'static str, &str, usize)> {
    findings
        .iter()
        .map(|f| (f.code, f.file.as_str(), f.line))
        .collect()
}

#[test]
fn unsafe_audit_fixture() {
    let findings =
        analyze(&fixture("unsafe_audit"), &AnalyzerConfig::default()).expect("fixture loads");
    assert_eq!(
        keys(&findings),
        vec![
            ("ASV-U001", "kernels/src/lib.rs", 10),
            ("ASV-U001", "kernels/src/lib.rs", 17),
            ("ASV-U001", "kernels/src/lib.rs", 31),
            ("ASV-U001", "kernels/src/lib.rs", 41),
            ("ASV-U002", "kernels/src/lib.rs", 41),
        ],
        "findings: {findings:#?}"
    );
    assert!(findings[2].message.contains("max_avx2"));
    assert!(findings[4].message.contains("documented unsafe site"));
}

#[test]
fn alloc_fixture() {
    let findings = analyze(&fixture("alloc"), &AnalyzerConfig::default()).expect("fixture loads");
    assert_eq!(
        keys(&findings),
        vec![("ASV-A001", "hot/src/lib.rs", 16)],
        "findings: {findings:#?}"
    );
    assert!(findings[0].message.contains("`Vec::new`"));
    assert!(findings[0].message.contains("`IsmState::step_with`"));
}

#[test]
fn locks_fixture() {
    let config = AnalyzerConfig {
        lock_files: vec!["eng/src/lib.rs"],
        alloc_roots: Vec::new(),
        ..AnalyzerConfig::default()
    };
    let findings = analyze(&fixture("locks"), &config).expect("fixture loads");
    assert_eq!(
        keys(&findings),
        vec![("ASV-L001", "eng/src/lib.rs", 16)],
        "findings: {findings:#?}"
    );
    assert!(
        findings[0].message.contains("lib::journal") && findings[0].message.contains("lib::state"),
        "cycle members missing: {}",
        findings[0].message
    );
}

#[test]
fn registry_fixture() {
    let config = AnalyzerConfig {
        lock_files: Vec::new(),
        alloc_roots: Vec::new(),
        readme: "README.md",
        export_file: "app/src/export.rs",
        golden_scrape_file: "app/tests/prometheus.rs",
        wire_file: "app/src/wire.rs",
    };
    let findings = analyze(&fixture("registry"), &config).expect("fixture loads");
    assert_eq!(
        keys(&findings),
        vec![
            ("ASV-R002", "README.md", 8),
            ("ASV-R004", "README.md", 15),
            ("ASV-R001", "app/src/config.rs", 11),
            ("ASV-R003", "app/src/export.rs", 6),
            ("ASV-R005", "app/src/export.rs", 7),
            ("ASV-R006", "app/src/wire.rs", 6),
        ],
        "findings: {findings:#?}"
    );
    assert!(findings[0].message.contains("ASV_GHOST"));
    assert!(findings[2].message.contains("ASV_ROGUE"));
    assert!(findings[3].message.contains("asv_hidden_total"));
    assert!(findings[5].message.contains("MAX_KEY_BYTES"));
}

/// The committed tree must be clean: every unsafe construct documented,
/// every hot-path allocation annotated, no lock-order cycles, registries
/// in sync.  This is the same pass CI runs via `asv_lint`.
#[test]
fn committed_workspace_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root");
    let findings = analyze_default(&root).expect("workspace loads");
    assert!(
        findings.is_empty(),
        "committed tree has lint findings:\n{}",
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
