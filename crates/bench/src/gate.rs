//! CI perf-regression gate over `tab_perf` measurements.
//!
//! FPS numbers are machine-dependent, so the gate normalises per machine:
//! the first run on a machine (no baseline file) records the measured
//! throughput and passes; later runs on the same machine compare against
//! that recorded baseline and fail when any tracked path regresses more
//! than the tolerated fraction.  In CI the baseline lives under the cached
//! `target/` directory, which gives each runner image its own baseline.
//!
//! The baseline is a plain `key=value` text file (the vendored serde shim
//! has no JSON parser), keyed by workload so differently-shaped runs never
//! compare against each other.

use crate::perf::PerfReport;
use std::path::Path;

/// Fraction of fps regression tolerated before the gate fails (10%).
pub const DEFAULT_TOLERANCE: f64 = 0.10;

/// Outcome of one gate evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// No (compatible) baseline existed; one was written.
    BaselineWritten,
    /// Comparison passed; entries are `(metric, baseline_fps, measured_fps)`.
    Passed(Vec<(String, f64, f64)>),
    /// At least one path regressed past tolerance; entries are
    /// human-readable failure descriptions.
    Failed(Vec<String>),
}

/// The per-machine baseline file name for a workload, scoped by every
/// workload parameter and the SIMD tier so unlike runs never collide.
pub fn default_gate_file(report: &PerfReport) -> String {
    let c = &report.config;
    format!(
        "target/perf-baseline-{}x{}-f{}-d{}-pw{}-{}.txt",
        c.width, c.height, c.frames, c.max_disparity, c.propagation_window, report.simd
    )
}

/// The fps metrics the gate tracks.
fn tracked(report: &PerfReport) -> Vec<(String, f64)> {
    vec![
        ("baseline_fps".to_owned(), report.baseline.fps),
        ("workspace_fps".to_owned(), report.workspace.fps),
        ("census_fps".to_owned(), report.census.fps),
    ]
}

fn render_baseline(entries: &[(String, f64)]) -> String {
    let mut out = String::from("# tab_perf per-machine fps baseline\n");
    for (key, value) in entries {
        out.push_str(&format!("{key}={value:.3}\n"));
    }
    out
}

fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter_map(|line| {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                return None;
            }
            let (key, value) = line.split_once('=')?;
            Some((key.trim().to_owned(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Evaluates the gate: writes the baseline on first run (or when the
/// recorded schema lacks a tracked metric), otherwise compares and fails on
/// a more than `tolerance` fps drop in any tracked path.
///
/// # Errors
///
/// Propagates I/O errors reading or writing the baseline file.
pub fn run_gate(report: &PerfReport, path: &Path, tolerance: f64) -> std::io::Result<GateOutcome> {
    let measured = tracked(report);
    let recorded = match std::fs::read_to_string(path) {
        Ok(text) => parse_baseline(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let lookup =
        |key: &str| -> Option<f64> { recorded.iter().find(|(k, _)| k == key).map(|&(_, v)| v) };
    if measured.iter().any(|(key, _)| lookup(key).is_none()) {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, render_baseline(&measured))?;
        return Ok(GateOutcome::BaselineWritten);
    }
    let mut passed = Vec::new();
    let mut failures = Vec::new();
    for (key, fps) in measured {
        let base = lookup(&key).expect("checked above");
        let floor = base * (1.0 - tolerance);
        if fps < floor {
            failures.push(format!(
                "{key}: {fps:.3} fps is more than {:.0}% below the recorded {base:.3} fps",
                tolerance * 100.0
            ));
        } else {
            passed.push((key, base, fps));
        }
    }
    if failures.is_empty() {
        Ok(GateOutcome::Passed(passed))
    } else {
        Ok(GateOutcome::Failed(failures))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::{PathReport, PerfConfig};

    fn fake_report(baseline: f64, workspace: f64, census: f64) -> PerfReport {
        let path = |fps: f64| PathReport {
            fps,
            p50_us: 10,
            p95_us: 20,
            key_mean_us: 30,
            nonkey_mean_us: 5,
            key_frames: 2,
            nonkey_frames: 6,
            allocs_per_frame: 0.0,
            stages: Vec::new(),
        };
        PerfReport {
            config: PerfConfig::quick(),
            simd: "scalar".to_owned(),
            baseline: path(baseline),
            workspace: path(workspace),
            census: path(census),
            speedup: workspace / baseline,
            census_key_speedup: 1.0,
        }
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("asv-gate-{tag}-{}.txt", std::process::id()))
    }

    #[test]
    fn first_run_writes_baseline_then_passes_and_fails() {
        let path = temp_path("cycle");
        let _ = std::fs::remove_file(&path);
        let report = fake_report(10.0, 40.0, 50.0);
        assert_eq!(
            run_gate(&report, &path, DEFAULT_TOLERANCE).unwrap(),
            GateOutcome::BaselineWritten
        );
        // Same numbers: pass.
        match run_gate(&report, &path, DEFAULT_TOLERANCE).unwrap() {
            GateOutcome::Passed(entries) => assert_eq!(entries.len(), 3),
            other => panic!("expected pass, got {other:?}"),
        }
        // A small improvement also passes.
        let faster = fake_report(11.0, 44.0, 55.0);
        assert!(matches!(
            run_gate(&faster, &path, DEFAULT_TOLERANCE).unwrap(),
            GateOutcome::Passed(_)
        ));
        // A >10% drop in one path fails and names it.
        let slower = fake_report(10.0, 30.0, 50.0);
        match run_gate(&slower, &path, DEFAULT_TOLERANCE).unwrap() {
            GateOutcome::Failed(failures) => {
                assert_eq!(failures.len(), 1);
                assert!(failures[0].contains("workspace_fps"), "{failures:?}");
            }
            other => panic!("expected failure, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn schema_change_rewrites_the_baseline() {
        let path = temp_path("schema");
        std::fs::write(&path, "# old\nbaseline_fps=10.0\n").unwrap();
        let report = fake_report(10.0, 40.0, 50.0);
        assert_eq!(
            run_gate(&report, &path, DEFAULT_TOLERANCE).unwrap(),
            GateOutcome::BaselineWritten
        );
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("census_fps="));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unlike_runs_get_their_own_baseline_file() {
        let report = fake_report(10.0, 40.0, 50.0);
        let mut wider = report.clone();
        wider.config.max_disparity += 16;
        let mut avx2 = report.clone();
        avx2.simd = "avx2".to_owned();
        let file = default_gate_file(&report);
        assert_ne!(file, default_gate_file(&wider));
        assert_ne!(file, default_gate_file(&avx2));
    }

    #[test]
    fn baseline_round_trips() {
        let entries = vec![("a".to_owned(), 1.25), ("b".to_owned(), 33.333)];
        let parsed = parse_baseline(&render_baseline(&entries));
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].0, "a");
        assert!((parsed[1].1 - 33.333).abs() < 1e-6);
    }
}
