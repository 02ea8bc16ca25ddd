//! Library entry points behind the `fig*` / `tab*` binaries.
//!
//! Each function renders one figure/table of the paper's evaluation as the
//! exact text its binary prints. Keeping the bodies here (the binaries are
//! one-line wrappers) lets the workspace smoke tests invoke every binary's
//! code path as a plain library call, so the report generators cannot rot
//! silently.

use crate::algorithms::{
    figure1_frontier, figure4_depth_sensitivity, figure9_accuracy, nonkey_cost_table, AccuracySetup,
};
use crate::hardware::{
    figure10_speedup_energy, figure11_deconv_opts, figure12_sensitivity, figure13_platforms,
    figure14_gans, figure3_stage_distribution, overhead_table,
};
use crate::table::{fmt3, fmt_pct, TextTable};
use asv::accuracy::{DisparityScore, GateRow, GateSetup};
use asv_scene::DatasetProfile;

/// Fig. 1: accuracy/performance frontier of classic algorithms, stereo DNNs
/// (accelerator and GPU) and ASV.
pub fn fig01_frontier_report(setup: &AccuracySetup) -> String {
    let points = figure1_frontier(setup);
    let mut table = TextTable::new(&["system", "error rate (%)", "FPS (qHD)"]);
    for p in &points {
        table.row(vec![p.name.clone(), fmt3(p.error_rate_pct), fmt3(p.fps)]);
    }
    format!(
        "Figure 1: accuracy/performance frontier (30 FPS = real time)\n\n{}",
        table.render()
    )
}

/// Fig. 3: arithmetic-operation distribution of the stereo DNNs across the
/// FE / MO / DR stages.
pub fn fig03_op_distribution_report() -> String {
    let mut table = TextTable::new(&["network", "FE (conv)", "MO (conv)", "DR (deconv)", "other"]);
    for d in figure3_stage_distribution() {
        table.row(vec![
            d.network.clone(),
            fmt_pct(d.feature_extraction),
            fmt_pct(d.matching_optimization),
            fmt_pct(d.disparity_refinement),
            fmt_pct(d.other),
        ]);
    }
    format!(
        "Figure 3: per-stage MAC distribution of the stereo DNNs\n\n{}",
        table.render()
    )
}

/// Fig. 4: depth estimation error vs disparity error (Bumblebee2 rig).
pub fn fig04_depth_sensitivity_report() -> String {
    let mut table = TextTable::new(&[
        "disparity error (px)",
        "depth err @10m (m)",
        "@15m (m)",
        "@30m (m)",
    ]);
    for p in figure4_depth_sensitivity() {
        table.row(vec![
            fmt3(p.disparity_error_px),
            fmt3(p.depth_errors_m[0]),
            fmt3(p.depth_errors_m[1]),
            fmt3(p.depth_errors_m[2]),
        ]);
    }
    format!(
        "Figure 4: depth error vs stereo matching (disparity) error\n\n{}",
        table.render()
    )
}

/// Fig. 9: error-rate comparison between per-frame DNN processing and the
/// ISM algorithm at PW-2 / PW-4, on both dataset profiles, for both the SAD
/// and the census/Hamming key-frame cost metrics.
pub fn fig09_accuracy_report(setup: &AccuracySetup) -> String {
    let rows = figure9_accuracy(setup);
    let mut table = TextTable::new(&[
        "dataset",
        "DNN err (%)",
        "PW-2 err (%)",
        "PW-4 err (%)",
        "PW-4 loss (pp)",
        "census DNN (%)",
        "census PW-4 (%)",
    ]);
    for r in &rows {
        table.row(vec![
            r.dataset.clone(),
            fmt3(r.dnn_error_pct),
            fmt3(r.pw2_error_pct),
            fmt3(r.pw4_error_pct),
            fmt3(r.pw4_error_pct - r.dnn_error_pct),
            fmt3(r.census_dnn_error_pct),
            fmt3(r.census_pw4_error_pct),
        ]);
    }
    format!(
        "Figure 9: ISM accuracy vs per-frame DNN accuracy\n\n{}",
        table.render()
    )
}

/// Fig. 10: speedup and energy reduction of the ASV variants (ISM, DCO,
/// DCO+ISM) over the baseline DNN accelerator, per stereo network.
pub fn fig10_speedup_energy_report() -> String {
    let rows = figure10_speedup_energy();
    let mut table = TextTable::new(&[
        "network",
        "DCO x",
        "ISM x",
        "DCO+ISM x",
        "DCO energy",
        "ISM energy",
        "DCO+ISM energy",
    ]);
    let mut avg = [0.0f64; 6];
    for r in &rows {
        table.row(vec![
            r.network.clone(),
            fmt3(r.dco_speedup),
            fmt3(r.ism_speedup),
            fmt3(r.combined_speedup),
            fmt_pct(r.dco_energy_reduction),
            fmt_pct(r.ism_energy_reduction),
            fmt_pct(r.combined_energy_reduction),
        ]);
        for (a, v) in avg.iter_mut().zip([
            r.dco_speedup,
            r.ism_speedup,
            r.combined_speedup,
            r.dco_energy_reduction,
            r.ism_energy_reduction,
            r.combined_energy_reduction,
        ]) {
            *a += v / rows.len() as f64;
        }
    }
    table.row(vec![
        "Avg.".into(),
        fmt3(avg[0]),
        fmt3(avg[1]),
        fmt3(avg[2]),
        fmt_pct(avg[3]),
        fmt_pct(avg[4]),
        fmt_pct(avg[5]),
    ]);
    format!(
        "Figure 10: ASV variant speedup / energy reduction over the baseline (PW-4)\n\n{}",
        table.render()
    )
}

/// Fig. 11: contribution of the deconvolution transformation (DCT), the
/// conventional reuse optimizer (ConvR) and inter-layer activation reuse
/// (ILAR), on deconvolution layers alone (a) and whole networks (b).
pub fn fig11_deconv_opts_report() -> String {
    let rows = figure11_deconv_opts();
    let mut out = String::new();
    for (title, whole_network) in [
        ("(a) deconvolution layers only", false),
        ("(b) whole network", true),
    ] {
        let mut table = TextTable::new(&[
            "network",
            "DCT x",
            "ConvR x",
            "ILAR x",
            "DCT energy",
            "ConvR energy",
            "ILAR energy",
        ]);
        for r in &rows {
            let (s, e) = if whole_network {
                (&r.network_speedup, &r.network_energy_reduction)
            } else {
                (&r.deconv_speedup, &r.deconv_energy_reduction)
            };
            table.row(vec![
                r.network.clone(),
                fmt3(s[0]),
                fmt3(s[1]),
                fmt3(s[2]),
                fmt_pct(e[0]),
                fmt_pct(e[1]),
                fmt_pct(e[2]),
            ]);
        }
        out.push_str(&format!("Figure 11{title}\n{}\n", table.render()));
    }
    out
}

/// Fig. 12: sensitivity of the deconvolution-optimization gains to PE-array
/// size and on-chip buffer capacity (FlowNetC).
pub fn fig12_sensitivity_report() -> String {
    let cells = figure12_sensitivity();
    let mut speed = TextTable::new(&[
        "buffer \\ PE",
        "8x8",
        "16x16",
        "24x24",
        "32x32",
        "40x40",
        "48x48",
        "56x56",
    ]);
    let mut energy = speed.clone();
    let buffers: Vec<u64> = {
        let mut b: Vec<u64> = cells.iter().map(|c| c.buffer_bytes).collect();
        b.dedup();
        b
    };
    for &buffer in &buffers {
        let row: Vec<_> = cells.iter().filter(|c| c.buffer_bytes == buffer).collect();
        let label = format!("{:.1} MB", buffer as f64 / (1024.0 * 1024.0));
        speed.row(
            std::iter::once(label.clone())
                .chain(row.iter().map(|c| fmt3(c.speedup)))
                .collect(),
        );
        energy.row(
            std::iter::once(label)
                .chain(row.iter().map(|c| fmt_pct(c.energy_reduction)))
                .collect(),
        );
    }
    format!(
        "Figure 12a: DCO speedup vs PE / buffer size (FlowNetC)\n{}\nFigure 12b: DCO energy reduction vs PE / buffer size (FlowNetC)\n{}\n",
        speed.render(),
        energy.render()
    )
}

/// Fig. 13: ASV vs Eyeriss (with/without the transformation) vs mobile GPU,
/// normalized to plain Eyeriss.
pub fn fig13_baselines_report() -> String {
    let mut table = TextTable::new(&["platform", "speedup vs Eyeriss", "normalized energy"]);
    for r in figure13_platforms() {
        table.row(vec![
            r.name.clone(),
            fmt3(r.speedup_vs_eyeriss),
            fmt3(r.normalized_energy),
        ]);
    }
    format!(
        "Figure 13: platform comparison (normalized to Eyeriss)\n\n{}",
        table.render()
    )
}

/// Fig. 14: GAN generators — ASV's software deconvolution optimizations vs
/// the dedicated GANNX accelerator, normalized to Eyeriss.
pub fn fig14_gan_report() -> String {
    let rows = figure14_gans();
    let mut table = TextTable::new(&[
        "GAN",
        "ASV speedup",
        "GANNX speedup",
        "ASV energy red.",
        "GANNX energy red.",
    ]);
    let mut avg = [0.0f64; 4];
    for r in &rows {
        table.row(vec![
            r.network.clone(),
            fmt3(r.asv_speedup),
            fmt3(r.gannx_speedup),
            fmt3(r.asv_energy_reduction),
            fmt3(r.gannx_energy_reduction),
        ]);
        for (a, v) in avg.iter_mut().zip([
            r.asv_speedup,
            r.gannx_speedup,
            r.asv_energy_reduction,
            r.gannx_energy_reduction,
        ]) {
            *a += v / rows.len() as f64;
        }
    }
    table.row(vec![
        "Avg.".into(),
        fmt3(avg[0]),
        fmt3(avg[1]),
        fmt3(avg[2]),
        fmt3(avg[3]),
    ]);
    format!(
        "Figure 14: GAN comparison (normalized to Eyeriss)\n\n{}",
        table.render()
    )
}

/// Sec. 3.3: compute cost of an ISM non-key frame vs stereo DNN inference.
pub fn tab_nonkey_cost_report() -> String {
    let mut table = TextTable::new(&["workload (qHD)", "operations", "x non-key frame"]);
    for r in nonkey_cost_table() {
        table.row(vec![
            r.name.clone(),
            format!("{}", r.ops),
            fmt3(r.ratio_to_nonkey),
        ]);
    }
    format!(
        "Section 3.3: non-key frame vs DNN inference compute cost\n\n{}",
        table.render()
    )
}

/// Sec. 7.1: hardware area/power overhead of the ASV extensions.
pub fn tab_overhead_report() -> String {
    let b = overhead_table();
    let mut table = TextTable::new(&["quantity", "value"]);
    table.row(vec![
        "per-PE area overhead (SAD mode)".into(),
        fmt_pct(b.pe_area_overhead()),
    ]);
    table.row(vec![
        "per-PE power overhead (SAD mode)".into(),
        fmt_pct(b.pe_power_overhead()),
    ]);
    table.row(vec![
        "total area overhead".into(),
        fmt_pct(b.total_area_overhead()),
    ]);
    table.row(vec![
        "total power overhead".into(),
        fmt_pct(b.total_power_overhead()),
    ]);
    format!("Section 7.1: ASV hardware overhead\n\n{}", table.render())
}

fn profile_name(profile: DatasetProfile) -> &'static str {
    match profile {
        DatasetProfile::SceneFlowLike => "SceneFlow-like",
        DatasetProfile::KittiLike => "KITTI-like",
    }
}

/// The accuracy gate (`asv::accuracy::accuracy_gate`) as the table
/// `tab_accuracy` prints: rates in percent, errors in pixels.
pub fn tab_accuracy_report(rows: &[GateRow]) -> String {
    let mut table = TextTable::new(&[
        "dataset",
        "flow",
        "key >1px",
        "key >3px",
        "key MAE",
        "non-key >1px",
        "non-key >3px",
        "non-key MAE",
        "non-key density",
        "left flow EPE",
    ]);
    for r in rows {
        let (key, non_key) = (r.score.key, r.score.non_key);
        table.row(vec![
            profile_name(r.profile).into(),
            r.flow_name.into(),
            fmt3(key.bad_1px * 100.0),
            fmt3(key.bad_3px * 100.0),
            fmt3(key.mean_abs_error),
            fmt3(non_key.bad_1px * 100.0),
            fmt3(non_key.bad_3px * 100.0),
            fmt3(non_key.mean_abs_error),
            fmt3(non_key.density * 100.0),
            fmt3(r.score.left_flow_epe),
        ]);
    }
    format!(
        "Accuracy gate: ISM flow vs full-resolution Farneback (census key frames)\n\n{}",
        table.render()
    )
}

/// The accuracy gate as the machine-readable `BENCH_accuracy.json` payload.
pub fn tab_accuracy_json(setup: &GateSetup, rows: &[GateRow]) -> String {
    let score = |s: &DisparityScore| {
        format!(
            concat!(
                "{{\"bad_1px_pct\": {:.5}, \"bad_3px_pct\": {:.5}, ",
                "\"mean_abs_error_px\": {:.5}, \"density_pct\": {:.5}}}"
            ),
            s.bad_1px * 100.0,
            s.bad_3px * 100.0,
            s.mean_abs_error,
            s.density * 100.0
        )
    };
    let rows = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"dataset\": \"{}\", \"flow\": \"{}\", ",
                    "\"pyramid_levels\": {}, \"finest_level\": {}, \"iterations\": {}, ",
                    "\"key_frames\": {}, \"non_key_frames\": {},\n",
                    "     \"key\": {},\n",
                    "     \"non_key\": {},\n",
                    "     \"left_flow_epe_px\": {:.5}}}"
                ),
                profile_name(r.profile),
                r.flow_name,
                r.flow.pyramid_levels,
                r.flow.finest_level,
                r.flow.iterations,
                r.score.key_frames,
                r.score.non_key_frames,
                score(&r.score.key),
                score(&r.score.non_key),
                r.score.left_flow_epe
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let seeds = setup
        .seeds
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        concat!(
            "{{\n",
            "  \"setup\": {{\"width\": {}, \"height\": {}, \"max_disparity\": {}, ",
            "\"propagation_window\": {}, \"key_frame_metric\": \"census\", ",
            "\"seeds\": [{}], \"frames\": {}}},\n",
            "  \"rows\": [\n{}\n  ]\n",
            "}}\n"
        ),
        setup.width,
        setup.height,
        setup.max_disparity,
        setup.propagation_window,
        seeds,
        setup.frames,
        rows
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv::accuracy::IsmScore;
    use asv_flow::farneback::FarnebackParams;

    #[test]
    fn accuracy_table_renders_every_row() {
        let row = GateRow {
            profile: DatasetProfile::KittiLike,
            flow_name: "ism",
            flow: FarnebackParams::ism(),
            score: IsmScore {
                non_key: DisparityScore {
                    bad_3px: 0.0768,
                    ..DisparityScore::default()
                },
                left_flow_epe: 0.85,
                key_frames: 8,
                non_key_frames: 24,
                ..IsmScore::default()
            },
        };
        let text = tab_accuracy_report(&[row, row]);
        assert_eq!(text.matches("KITTI-like").count(), 2);
        let json = tab_accuracy_json(&GateSetup::GATE, &[row]);
        assert!(json.contains("\"seeds\": [1, 2, 3, 4]"));
        assert!(json.contains("\"finest_level\": 1"));
        assert!(json.contains("\"bad_3px_pct\": 7.68000"));
        assert!(json.contains("\"left_flow_epe_px\": 0.85000"));
    }
}
