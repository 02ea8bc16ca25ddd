//! `asv-analysis`: a dependency-free static analysis pass over the
//! workspace source, wired into CI as the `asv_lint` gate.
//!
//! The dynamic side of this repo's invariants is well covered — counting
//! allocators prove the zero-alloc steady state, threaded tests race the
//! sequence gate, seeded sims kill shards mid-stream.  What dynamic tests
//! structurally cannot cover are the branches they never execute: the cold
//! error paths that allocate, the `unsafe` kernel nobody re-audited after
//! an edit, the lock pair that only inverts under a rare interleaving, the
//! env knob someone added but never documented.  This crate is the static
//! complement: four checks over the source itself, built on a hand-rolled
//! token scanner ([`scan`]) and a name-resolution-lite call graph
//! ([`model`]) — no `syn`, no dependencies, consistent with the offline
//! shims policy.
//!
//! | code | check | escape annotation |
//! |------|-------|-------------------|
//! | `ASV-U001` | `unsafe` block / fn / impl without a `// SAFETY:` comment (or `# Safety` doc section) | write the safety argument |
//! | `ASV-U002` | `#[target_feature]` fn called outside a documented-unsafe site | move the call behind the dispatch layer |
//! | `ASV-A001` | allocating construct in a function reachable from a hot-path root | `// lint: alloc-ok(<reason>)` |
//! | `ASV-L001` | cycle in the inter-lock acquisition-order graph | `// lint: lock-ok(<reason>)` |
//! | `ASV-R001` | `ASV_*` env knob read in code but missing from README's knob table | document it |
//! | `ASV-R002` | README documents an `ASV_*` knob no code reads | delete the row |
//! | `ASV-R007` | `ASV_*` env knob read outside the `knobs` registry module and not listed in it | register it |
//! | `ASV-R003` | Prometheus family rendered by `export.rs` but absent from README | document it |
//! | `ASV-R004` | README documents an `asv_*` family `export.rs` never renders | delete the row |
//! | `ASV-R005` | Prometheus family not locked by the golden scrape test | extend the golden test |
//! | `ASV-R006` | `wire` protocol constant not documented with its value in README | document `NAME value` |
//!
//! Run it locally with:
//!
//! ```sh
//! cargo run -p asv-analysis --bin asv_lint -- --workspace
//! ```

pub mod checks;
pub mod model;
pub mod scan;

use scan::SourceFile;
use std::path::{Path, PathBuf};

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable finding code (`ASV-U001`, ...).
    pub code: &'static str,
    /// Path relative to the analyzed root.
    pub file: String,
    /// 1-based line number (0 when the finding is about a whole file,
    /// e.g. a missing README row).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.code, self.message
        )
    }
}

/// A hot-path root for the allocation lint: a function from which
/// reachable code must not allocate (unless annotated).
#[derive(Debug, Clone)]
pub struct RootSpec {
    /// Bare function name.
    pub fn_name: &'static str,
    /// Restrict to methods of this type (`IsmState::step_with`).
    pub type_name: Option<&'static str>,
    /// Restrict to implementations of this trait (`FrameSink::deliver` on
    /// every implementor).
    pub trait_name: Option<&'static str>,
    /// Restrict to functions defined in a file with this suffix.
    pub file_suffix: Option<&'static str>,
}

/// What to analyze and where the registry ground-truth files live.  The
/// default matches this workspace; fixture tests swap in miniature trees.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Files (by path suffix) whose lock acquisitions feed the lock-order
    /// graph.
    pub lock_files: Vec<&'static str>,
    /// Hot-path roots of the allocation lint.
    pub alloc_roots: Vec<RootSpec>,
    /// README path, relative to the root.
    pub readme: &'static str,
    /// The Prometheus renderer, relative to the root.
    pub export_file: &'static str,
    /// The golden scrape test locking metric families.
    pub golden_scrape_file: &'static str,
    /// The wire-format module whose constants README must document.
    pub wire_file: &'static str,
    /// The env-knob registry module (single in-code source of truth).
    pub knobs_file: &'static str,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            lock_files: vec![
                "crates/runtime/src/scheduler.rs",
                "crates/runtime/src/cluster.rs",
                "crates/runtime/src/net.rs",
                "crates/runtime/src/supervisor.rs",
                "crates/runtime/src/qos.rs",
            ],
            alloc_roots: vec![
                RootSpec {
                    fn_name: "step_with",
                    type_name: Some("IsmState"),
                    trait_name: None,
                    file_suffix: None,
                },
                RootSpec {
                    fn_name: "deliver",
                    type_name: None,
                    trait_name: Some("FrameSink"),
                    file_suffix: None,
                },
                RootSpec {
                    fn_name: "admit",
                    type_name: Some("SequenceGate"),
                    trait_name: None,
                    file_suffix: None,
                },
                RootSpec {
                    fn_name: "validate_message",
                    type_name: None,
                    trait_name: None,
                    file_suffix: Some("wire.rs"),
                },
                RootSpec {
                    fn_name: "receive_message",
                    type_name: None,
                    trait_name: None,
                    file_suffix: Some("net.rs"),
                },
            ],
            readme: "README.md",
            export_file: "crates/runtime/src/export.rs",
            golden_scrape_file: "crates/runtime/tests/prometheus.rs",
            wire_file: "crates/runtime/src/wire.rs",
            knobs_file: "crates/runtime/src/knobs.rs",
        }
    }
}

/// The scanned workspace: every source file plus its structural model.
#[derive(Debug)]
pub struct Workspace {
    /// Scanned files (crate sources, shims, tests, examples).
    pub files: Vec<SourceFile>,
    /// Per-file structural models, indexed like [`Workspace::files`].
    pub models: Vec<model::FileModel>,
    /// Raw README text, when present.
    pub readme: Option<String>,
    /// Raw golden-scrape-test text, when present.
    pub golden_scrape: Option<String>,
}

impl Workspace {
    /// Index of the file whose relative path ends with `suffix`.
    pub fn file_by_suffix(&self, suffix: &str) -> Option<usize> {
        self.files.iter().position(|f| f.rel.ends_with(suffix))
    }

    /// Whether file `idx` is part of the main source tree (not tests,
    /// benches, examples or `src/bin` entry points): the call-graph and
    /// allocation scan set.
    pub fn is_library_source(&self, idx: usize) -> bool {
        let rel = &self.files[idx].rel;
        rel.contains("/src/")
            && !rel.contains("/src/bin/")
            && !rel.contains("/tests/")
            && !rel.contains("/benches/")
            && !rel.contains("/examples/")
    }
}

/// Recursively collects `.rs` files under `dir` into `out`, skipping
/// `target/`, `.git/` and this crate's own test fixtures.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | ".git" | "fixtures") {
                continue;
            }
            walk(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Loads and scans every Rust source under `root`'s `crates/` and `shims/`
/// directories (or, when neither exists, under `root` itself — the fixture
/// layout), plus the registry ground-truth files.
pub fn load_workspace(root: &Path, config: &AnalyzerConfig) -> std::io::Result<Workspace> {
    let mut paths = Vec::new();
    let crates = root.join("crates");
    let shims = root.join("shims");
    if crates.is_dir() || shims.is_dir() {
        walk(&crates, &mut paths);
        walk(&shims, &mut paths);
    } else {
        walk(root, &mut paths);
    }
    let mut files = Vec::new();
    for path in &paths {
        let source = std::fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::scan(&rel, &source));
    }
    let models = files
        .iter()
        .enumerate()
        .map(|(i, f)| model::build_model(i, f))
        .collect();
    let readme = std::fs::read_to_string(root.join(config.readme)).ok();
    let golden_scrape = std::fs::read_to_string(root.join(config.golden_scrape_file)).ok();
    Ok(Workspace {
        files,
        models,
        readme,
        golden_scrape,
    })
}

/// Runs all four checks over the workspace at `root` with `config`,
/// returning every finding sorted by file and line.
pub fn analyze(root: &Path, config: &AnalyzerConfig) -> std::io::Result<Vec<Finding>> {
    let ws = load_workspace(root, config)?;
    let mut findings = Vec::new();
    findings.extend(checks::unsafe_audit::run(&ws));
    findings.extend(checks::alloc::run(&ws, config));
    findings.extend(checks::locks::run(&ws, config));
    findings.extend(checks::registry::run(&ws, config));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.code).cmp(&(b.file.as_str(), b.line, b.code)));
    Ok(findings)
}

/// Runs the analyzer with the default configuration (the committed
/// workspace layout).
pub fn analyze_default(root: &Path) -> std::io::Result<Vec<Finding>> {
    analyze(root, &AnalyzerConfig::default())
}
