//! `ASV-R001`..`ASV-R006`: registry consistency between code, README and
//! the golden scrape test.
//!
//! Three registries drift silently in a growing system: the `ASV_*`
//! environment knobs, the `asv_*` Prometheus metric families, and the
//! wire-protocol constants.  Each has a single documented home (README's
//! "Environment knobs" table, README's observability table + the golden
//! scrape test, README's distribution section).  This pass cross-checks
//! all of them in both directions.

use crate::model;
use crate::scan::TokKind;
use crate::{AnalyzerConfig, Finding, Workspace};
use std::collections::BTreeMap;

/// Whether `s` is exactly an `ASV_*` env-knob name.
fn is_knob_name(s: &str) -> bool {
    s.len() > 4
        && s.starts_with("ASV_")
        && s.bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// Extracts `asv_*` metric-family names embedded in `text` (label blocks
/// and histogram suffixes stripped).
fn families_in(text: &str, out: &mut Vec<String>) {
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(at) = text[i..].find("asv_") {
        let start = i + at;
        let mut end = start;
        while end < bytes.len()
            && (bytes[end].is_ascii_lowercase()
                || bytes[end].is_ascii_digit()
                || bytes[end] == b'_')
        {
            end += 1;
        }
        let mut name = &text[start..end];
        for sfx in ["_bucket", "_sum", "_count"] {
            if let Some(stripped) = name.strip_suffix(sfx) {
                if stripped.len() > 4 {
                    name = stripped;
                }
            }
        }
        if name.len() > 4 {
            out.push(name.to_owned());
        }
        i = end.max(start + 4);
    }
}

/// 1-based line ranges of `#[cfg(test)]` spans in file `fi`.
fn test_line_ranges(ws: &Workspace, fi: usize) -> Vec<(usize, usize)> {
    let sf = &ws.files[fi];
    model::test_spans(sf)
        .into_iter()
        .map(|(s, e)| {
            (
                sf.tokens[s].line,
                sf.tokens.get(e).map_or(usize::MAX, |t| t.line),
            )
        })
        .collect()
}

/// Runs the registry consistency checks.
pub fn run(ws: &Workspace, config: &AnalyzerConfig) -> Vec<Finding> {
    let mut findings = Vec::new();

    // ---- Environment knobs (R001 / R002) ----
    // Knob name -> first read site in production/bin sources.
    let mut code_knobs: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for (fi, sf) in ws.files.iter().enumerate() {
        if !sf.rel.contains("/src/") {
            continue;
        }
        let tests = test_line_ranges(ws, fi);
        for s in &sf.strings {
            if tests.iter().any(|&(a, b)| a <= s.line && s.line <= b) {
                continue;
            }
            if is_knob_name(&s.value) {
                code_knobs.entry(s.value.clone()).or_insert((fi, s.line));
            }
        }
    }

    if let Some(readme) = &ws.readme {
        // Knob names in README table rows, with their line numbers.
        let mut readme_knobs: BTreeMap<&str, usize> = BTreeMap::new();
        for (ln, line) in readme.lines().enumerate() {
            if !line.trim_start().starts_with('|') {
                continue;
            }
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                if is_knob_name(word) {
                    readme_knobs.entry(word).or_insert(ln + 1);
                }
            }
        }
        for (knob, &(fi, line)) in &code_knobs {
            if !readme_knobs.contains_key(knob.as_str()) {
                findings.push(Finding {
                    code: "ASV-R001",
                    file: ws.files[fi].rel.clone(),
                    line,
                    message: format!(
                        "env knob `{knob}` is read here but missing from README's \
                         \"Environment knobs\" table"
                    ),
                });
            }
        }
        for (&knob, &line) in &readme_knobs {
            if !code_knobs.contains_key(knob) {
                findings.push(Finding {
                    code: "ASV-R002",
                    file: config.readme.to_owned(),
                    line,
                    message: format!("README documents env knob `{knob}` but no code reads it"),
                });
            }
        }
    }

    // ---- Prometheus families (R003 / R004 / R005) ----
    if let Some(efi) = ws.file_by_suffix(config.export_file) {
        let tests = test_line_ranges(ws, efi);
        let mut exported: BTreeMap<String, usize> = BTreeMap::new();
        for s in &ws.files[efi].strings {
            if tests.iter().any(|&(a, b)| a <= s.line && s.line <= b) {
                continue;
            }
            let mut found = Vec::new();
            families_in(&s.value, &mut found);
            for f in found {
                exported.entry(f).or_insert(s.line);
            }
        }
        if let Some(readme) = &ws.readme {
            let mut readme_fams: BTreeMap<String, usize> = BTreeMap::new();
            for (ln, line) in readme.lines().enumerate() {
                if !line.trim_start().starts_with('|') {
                    continue;
                }
                let mut found = Vec::new();
                families_in(line, &mut found);
                for f in found {
                    readme_fams.entry(f).or_insert(ln + 1);
                }
            }
            for (fam, &line) in &exported {
                if !readme.contains(fam.as_str()) {
                    findings.push(Finding {
                        code: "ASV-R003",
                        file: ws.files[efi].rel.clone(),
                        line,
                        message: format!(
                            "metric family `{fam}` is rendered but missing from README's \
                             observability section"
                        ),
                    });
                }
            }
            for (fam, &line) in &readme_fams {
                if !exported.contains_key(fam) {
                    findings.push(Finding {
                        code: "ASV-R004",
                        file: config.readme.to_owned(),
                        line,
                        message: format!(
                            "README documents metric family `{fam}` but `{}` never renders it",
                            config.export_file
                        ),
                    });
                }
            }
        }
        if let Some(golden) = &ws.golden_scrape {
            for (fam, &line) in &exported {
                if !golden.contains(fam.as_str()) {
                    findings.push(Finding {
                        code: "ASV-R005",
                        file: ws.files[efi].rel.clone(),
                        line,
                        message: format!(
                            "metric family `{fam}` is not locked by the golden scrape test \
                             (`{}`)",
                            config.golden_scrape_file
                        ),
                    });
                }
            }
        }
    }

    // ---- Wire protocol constants (R006) ----
    if let (Some(wfi), Some(readme)) = (ws.file_by_suffix(config.wire_file), &ws.readme) {
        let tests = test_line_ranges(ws, wfi);
        for (name, value, line) in wire_consts(ws, wfi) {
            if tests.iter().any(|&(a, b)| a <= line && line <= b) {
                continue;
            }
            let documented = readme.match_indices(&name).any(|(pos, _)| {
                let from = pos + name.len();
                let to = (from + 80).min(readme.len());
                // Clamp to a char boundary for the slice.
                let mut to = to;
                while !readme.is_char_boundary(to) {
                    to -= 1;
                }
                readme[from..to].contains(value.as_str())
            });
            if !documented {
                findings.push(Finding {
                    code: "ASV-R006",
                    file: ws.files[wfi].rel.clone(),
                    line,
                    message: format!(
                        "wire constant `{name}` (= {value}) is not documented with its value \
                         in README"
                    ),
                });
            }
        }
    }

    findings
}

/// Extracts evaluable protocol constants from the wire file:
/// `(name, value-as-string, line)`.  Handles integer literals, products of
/// integer literals, and (byte-)string magics.
fn wire_consts(ws: &Workspace, fi: usize) -> Vec<(String, String, usize)> {
    let toks = &ws.files[fi].tokens;
    let mut out = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].kind == TokKind::Ident && toks[i].text == "const") {
            i += 1;
            continue;
        }
        let name_tok = &toks[i + 1];
        let name = name_tok.text.clone();
        let interesting = name_tok.kind == TokKind::Ident
            && name
                .bytes()
                .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
            && (name.contains("MAGIC")
                || name.contains("VERSION")
                || name.starts_with("MAX_")
                || name.ends_with("_BYTES"));
        if !interesting {
            i += 1;
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && toks[j].text != "=" && toks[j].text != ";" {
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "=" {
            i += 1;
            continue;
        }
        let start = j + 1;
        while j < toks.len() && toks[j].text != ";" {
            j += 1;
        }
        let value_toks = &toks[start..j.min(toks.len())];
        let mut product: u128 = 1;
        let mut ints = 0usize;
        let mut string = None;
        let mut ok = true;
        for t in value_toks {
            match t.kind {
                TokKind::Num => {
                    let clean = t.text.replace('_', "");
                    let parsed = if let Some(hex) = clean.strip_prefix("0x") {
                        u128::from_str_radix(hex, 16).ok()
                    } else {
                        clean.parse::<u128>().ok()
                    };
                    match parsed {
                        Some(v) => {
                            product = product.saturating_mul(v);
                            ints += 1;
                        }
                        None => ok = false,
                    }
                }
                TokKind::Str => string = Some(t.text.clone()),
                TokKind::Punct if t.text == "*" => {} // product or deref of a magic
                _ => ok = false,
            }
        }
        if ok {
            if let Some(s) = string {
                out.push((name, s, name_tok.line));
            } else if ints > 0 {
                out.push((name, product.to_string(), name_tok.line));
            }
        }
        i = j;
    }
    out
}
