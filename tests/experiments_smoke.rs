//! Smoke tests of the benchmark-harness experiments: every figure/table
//! generator must run and reproduce the paper's qualitative claims.  (The
//! full-size outputs are produced by the `fig*` binaries; these tests use the
//! same code paths.)

use asv_bench::algorithms::{figure4_depth_sensitivity, nonkey_cost_table};
use asv_bench::hardware::{
    figure10_speedup_energy, figure11_deconv_opts, figure12_sensitivity, figure13_platforms,
    figure14_gans, figure3_stage_distribution, overhead_table,
};

#[test]
fn figure3_distribution_sums_to_one_per_network() {
    for dist in figure3_stage_distribution() {
        assert!((dist.total() - 1.0).abs() < 1e-6, "{dist:?}");
    }
}

#[test]
fn figure4_error_grows_with_distance_and_disparity_error() {
    let sweep = figure4_depth_sensitivity();
    for window in sweep.windows(2) {
        for d in 0..3 {
            assert!(window[1].depth_errors_m[d] >= window[0].depth_errors_m[d]);
        }
    }
}

#[test]
fn figure10_headline_numbers_have_paper_shape() {
    let rows = figure10_speedup_energy();
    let avg_speedup: f64 = rows.iter().map(|r| r.combined_speedup).sum::<f64>() / rows.len() as f64;
    let avg_energy: f64 = rows
        .iter()
        .map(|r| r.combined_energy_reduction)
        .sum::<f64>()
        / rows.len() as f64;
    // Paper: 4.9x and 85%; require the same ballpark.
    assert!(
        avg_speedup > 3.0 && avg_speedup < 10.0,
        "speedup {avg_speedup}"
    );
    assert!(avg_energy > 0.6 && avg_energy < 0.98, "energy {avg_energy}");
}

#[test]
fn figure11_three_d_networks_gain_more_from_the_transformation() {
    let rows = figure11_deconv_opts();
    let deconv_speedup = |name: &str| {
        rows.iter()
            .find(|r| r.network == name)
            .map(|r| r.deconv_speedup[2])
            .unwrap()
    };
    // Paper: 3-D networks (GC-Net, PSMNet) see larger deconv-layer speedups
    // than 2-D networks because they eliminate 8x instead of 4x zero padding.
    let three_d = (deconv_speedup("GC-Net") + deconv_speedup("PSMNet")) / 2.0;
    let two_d = (deconv_speedup("DispNet") + deconv_speedup("FlowNetC")) / 2.0;
    assert!(three_d > two_d, "3-D {three_d} vs 2-D {two_d}");
}

#[test]
fn figure12_covers_the_paper_grid() {
    let cells = figure12_sensitivity();
    assert_eq!(cells.len(), 7 * 6);
    // Every configuration benefits from DCO (speedups in the paper's 1.2-1.5x
    // band, allow a wider band here).
    assert!(cells.iter().all(|c| c.speedup >= 1.0 && c.speedup < 4.0));
}

#[test]
fn figure13_ordering_matches_paper() {
    let rows = figure13_platforms();
    let speedup = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .unwrap()
            .speedup_vs_eyeriss
    };
    assert!(speedup("ASV-DCO+ISM") > speedup("ASV-ISM"));
    assert!(speedup("ASV-ISM") > speedup("ASV-DCO"));
    assert!(speedup("ASV-DCO+ISM") > 2.0);
    assert!(speedup("GPU") < 1.0);
}

#[test]
fn figure14_average_improvements_favour_asv() {
    let rows = figure14_gans();
    let avg = |f: fn(&asv_bench::hardware::GanRow) -> f64| {
        rows.iter().map(f).sum::<f64>() / rows.len() as f64
    };
    assert!(avg(|r| r.asv_speedup) > avg(|r| r.gannx_speedup));
    assert!(avg(|r| r.asv_energy_reduction) > avg(|r| r.gannx_energy_reduction));
}

#[test]
fn overhead_and_nonkey_tables_match_claims() {
    let b = overhead_table();
    assert!(b.total_area_overhead() < 0.005);
    let rows = nonkey_cost_table();
    assert!(rows.iter().skip(1).all(|r| r.ratio_to_nonkey > 20.0));
}

/// Every `fig*` / `tab*` binary is a one-line wrapper around a report
/// function in `asv_bench::figs`; smoke-running those functions here means a
/// broken figure generator fails `cargo test` instead of rotting silently in
/// an unbuilt binary.
mod fig_binary_entry_points {
    use asv_bench::algorithms::AccuracySetup;
    use asv_bench::figs;

    /// A setup small enough that the two functional-accuracy reports stay
    /// cheap in a smoke test (the binaries use `AccuracySetup::quick`).
    fn tiny() -> AccuracySetup {
        AccuracySetup {
            width: 48,
            height: 32,
            frames: 2,
            sequences: 1,
            max_disparity: 16,
        }
    }

    #[track_caller]
    fn assert_report(report: String, must_contain: &str) {
        assert!(
            report.contains(must_contain),
            "report missing {must_contain:?}:\n{report}"
        );
        // Reports are header + rendered table: at least a title line, a
        // column-header line and one data row.
        assert!(
            report.lines().count() >= 3,
            "suspiciously short report:\n{report}"
        );
    }

    #[test]
    fn fig01_frontier_runs() {
        assert_report(figs::fig01_frontier_report(&tiny()), "Figure 1");
    }

    #[test]
    fn fig03_op_distribution_runs() {
        assert_report(figs::fig03_op_distribution_report(), "Figure 3");
    }

    #[test]
    fn fig04_depth_sensitivity_runs() {
        assert_report(figs::fig04_depth_sensitivity_report(), "Figure 4");
    }

    #[test]
    fn fig09_accuracy_runs() {
        assert_report(figs::fig09_accuracy_report(&tiny()), "Figure 9");
    }

    #[test]
    fn fig10_speedup_energy_runs() {
        assert_report(figs::fig10_speedup_energy_report(), "Figure 10");
    }

    #[test]
    fn fig11_deconv_opts_runs() {
        let report = figs::fig11_deconv_opts_report();
        assert_report(report.clone(), "Figure 11(a) deconvolution layers only");
        assert_report(report, "Figure 11(b) whole network");
    }

    #[test]
    fn fig12_sensitivity_runs() {
        let report = figs::fig12_sensitivity_report();
        assert_report(report.clone(), "Figure 12a");
        assert_report(report, "Figure 12b");
    }

    #[test]
    fn fig13_baselines_runs() {
        assert_report(figs::fig13_baselines_report(), "Figure 13");
    }

    #[test]
    fn fig14_gan_runs() {
        assert_report(figs::fig14_gan_report(), "Figure 14");
    }

    #[test]
    fn tab_nonkey_cost_runs() {
        assert_report(figs::tab_nonkey_cost_report(), "Section 3.3");
    }

    #[test]
    fn tab_overhead_runs() {
        assert_report(figs::tab_overhead_report(), "Section 7.1");
    }
}

#[test]
fn streaming_throughput_serves_concurrent_sessions() {
    // The serving-scalability experiment: 8 concurrent streams over a
    // multi-worker pool vs the serial batch baseline.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = cores.clamp(2, 8);
    let report = asv_bench::streaming::streaming_throughput(8, workers, 3);
    assert_eq!(report.sessions, 8);
    assert!(report.serial_fps > 0.0);
    assert!(report.concurrent_fps > 0.0);
    // Telemetry must be live: non-zero latency quantiles in order, and the
    // PW-4 schedule on 3 frames gives exactly one key frame per stream.
    assert!(report.p50_us > 0);
    assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
    assert!((report.key_frame_ratio - 1.0 / 3.0).abs() < 1e-9);
    eprintln!(
        "streaming scalability recorded (cores={cores}, workers={workers}): serial {:.1} fps, concurrent {:.1} fps, speedup {:.2}x",
        report.serial_fps, report.concurrent_fps, report.speedup
    );
    // The speedup is recorded, not asserted: each batch frame already fans
    // its kernels out over every core, so session-level concurrency cannot
    // be expected to multiply the serial baseline again.
}
