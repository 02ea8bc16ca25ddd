//! System-level performance and energy model (the basis of Figs. 1, 10, 12
//! and 13).
//!
//! ASV's per-frame cost depends on which optimizations are active:
//!
//! * the **baseline** runs the stereo DNN on every frame with no
//!   deconvolution optimization;
//! * **DCO** keeps per-frame DNN inference but applies the deconvolution
//!   transformation + reuse optimizer;
//! * **ISM** keeps the unoptimized DNN but only runs it on key frames,
//!   processing the remaining frames with optical flow + block matching on
//!   the same hardware;
//! * **ISM + DCO** combines both (the full ASV system).
//!
//! Per-frame cost of the ISM variants is the steady-state average over one
//! propagation window: one key frame plus `PW − 1` non-key frames.

use asv_accel::ism::{nonkey_frame_report, NonKeyFrameConfig};
use asv_accel::systolic::SystolicAccelerator;
use asv_accel::ExecutionReport;
use asv_dataflow::OptLevel;
use asv_dnn::NetworkSpec;
use serde::{Deserialize, Serialize};

/// The four system variants compared throughout the evaluation (Sec. 6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AsvVariant {
    /// Conventional DNN accelerator, DNN on every frame.
    Baseline,
    /// Deconvolution optimizations only (DCO).
    Dco,
    /// ISM algorithm only.
    Ism,
    /// ISM plus deconvolution optimizations — the full ASV system.
    IsmDco,
}

impl AsvVariant {
    /// All variants in the order used by Fig. 10.
    pub fn all() -> [AsvVariant; 4] {
        [
            AsvVariant::Baseline,
            AsvVariant::Dco,
            AsvVariant::Ism,
            AsvVariant::IsmDco,
        ]
    }

    /// Short label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            AsvVariant::Baseline => "baseline",
            AsvVariant::Dco => "DCO",
            AsvVariant::Ism => "ISM",
            AsvVariant::IsmDco => "DCO+ISM",
        }
    }
}

/// Per-frame cost of one variant, plus its improvement over the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariantReport {
    /// Which variant this report describes.
    pub variant: AsvVariant,
    /// Average per-frame execution report (steady state).
    pub per_frame: ExecutionReport,
    /// Speedup over the baseline variant.
    pub speedup: f64,
    /// Fractional energy reduction over the baseline variant.
    pub energy_reduction: f64,
}

/// The system performance model: one stereo network, one accelerator, one
/// non-key-frame configuration and one propagation window.
#[derive(Debug, Clone)]
pub struct SystemPerformanceModel {
    accelerator: SystolicAccelerator,
    nonkey: NonKeyFrameConfig,
    propagation_window: usize,
}

impl SystemPerformanceModel {
    /// Creates a model.
    pub fn new(
        accelerator: SystolicAccelerator,
        nonkey: NonKeyFrameConfig,
        propagation_window: usize,
    ) -> Self {
        Self {
            accelerator,
            nonkey,
            propagation_window: propagation_window.max(1),
        }
    }

    /// The paper's default operating point: the ASV accelerator, qHD non-key
    /// frames, PW-4.
    pub fn asv_default() -> Self {
        Self::new(
            SystolicAccelerator::asv_default(),
            NonKeyFrameConfig::qhd(),
            4,
        )
    }

    /// The accelerator being modelled.
    pub fn accelerator(&self) -> &SystolicAccelerator {
        &self.accelerator
    }

    /// The non-key-frame configuration the model prices.
    pub fn nonkey_config(&self) -> &NonKeyFrameConfig {
        &self.nonkey
    }

    /// The propagation window.
    pub fn propagation_window(&self) -> usize {
        self.propagation_window
    }

    /// Average per-frame cost of running `network` under `variant`.
    pub fn per_frame_report(&self, network: &NetworkSpec, variant: AsvVariant) -> ExecutionReport {
        let key_level = match variant {
            AsvVariant::Baseline | AsvVariant::Ism => OptLevel::Baseline,
            AsvVariant::Dco | AsvVariant::IsmDco => OptLevel::Ilar,
        };
        let key = self.accelerator.run_network(network, key_level);
        match variant {
            AsvVariant::Baseline | AsvVariant::Dco => key,
            AsvVariant::Ism | AsvVariant::IsmDco => {
                let nonkey = nonkey_frame_report(&self.accelerator, &self.nonkey);
                let pw = self.propagation_window as f64;
                key.scaled(1.0 / pw)
                    .combine(&nonkey.scaled((pw - 1.0) / pw))
            }
        }
    }

    /// Reports for all four variants, with speedup/energy relative to the
    /// baseline (one group of bars of Fig. 10).
    pub fn variant_reports(&self, network: &NetworkSpec) -> Vec<VariantReport> {
        let baseline = self.per_frame_report(network, AsvVariant::Baseline);
        AsvVariant::all()
            .iter()
            .map(|&variant| {
                let per_frame = self.per_frame_report(network, variant);
                VariantReport {
                    variant,
                    per_frame,
                    speedup: per_frame.speedup_over(&baseline),
                    energy_reduction: per_frame.energy_reduction_vs(&baseline),
                }
            })
            .collect()
    }

    /// Returns a copy of the model with a different propagation window.
    pub fn with_propagation_window(&self, window: usize) -> Self {
        Self {
            propagation_window: window.max(1),
            ..self.clone()
        }
    }

    /// Returns a copy of the model with a different accelerator.
    pub fn with_accelerator(&self, accelerator: SystolicAccelerator) -> Self {
        Self {
            accelerator,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_dnn::zoo;

    fn model() -> SystemPerformanceModel {
        SystemPerformanceModel::new(
            SystolicAccelerator::asv_default(),
            NonKeyFrameConfig::with_resolution(192, 96),
            4,
        )
    }

    #[test]
    fn full_asv_achieves_multiple_x_speedup_and_large_energy_saving() {
        // Fig. 10: DCO+ISM averages ~4.9x speedup and ~85% energy reduction
        // over the baseline accelerator (PW-4).
        let model = model();
        let mut speedups = Vec::new();
        let mut energy_reductions = Vec::new();
        for net in zoo::suite(96, 192, 48) {
            let reports = model.variant_reports(&net);
            let full = reports
                .iter()
                .find(|r| r.variant == AsvVariant::IsmDco)
                .unwrap();
            speedups.push(full.speedup);
            energy_reductions.push(full.energy_reduction);
        }
        let avg_speedup = speedups.iter().sum::<f64>() / speedups.len() as f64;
        let avg_energy = energy_reductions.iter().sum::<f64>() / energy_reductions.len() as f64;
        assert!(avg_speedup > 3.0, "average speedup {avg_speedup}");
        assert!(avg_energy > 0.6, "average energy reduction {avg_energy}");
    }

    #[test]
    fn ism_contributes_more_than_dco() {
        // The paper: ISM avoids DNN inference entirely on non-key frames, so
        // it contributes more than the deconvolution optimizations.
        let model = model();
        let net = zoo::gcnet(96, 192, 48);
        let reports = model.variant_reports(&net);
        let by = |v: AsvVariant| reports.iter().find(|r| r.variant == v).unwrap().speedup;
        assert!(by(AsvVariant::Ism) > by(AsvVariant::Dco));
        assert!(by(AsvVariant::IsmDco) >= by(AsvVariant::Ism));
        assert!((by(AsvVariant::Baseline) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn larger_propagation_window_increases_speedup() {
        let net = zoo::dispnet(96, 192);
        let pw2 = model().with_propagation_window(2);
        let pw4 = model().with_propagation_window(4);
        let s2 = pw2.variant_reports(&net).last().unwrap().speedup;
        let s4 = pw4.variant_reports(&net).last().unwrap().speedup;
        assert!(s4 > s2);
        assert_eq!(pw4.propagation_window(), 4);
    }

    #[test]
    fn variant_labels() {
        assert_eq!(AsvVariant::Baseline.label(), "baseline");
        assert_eq!(AsvVariant::IsmDco.label(), "DCO+ISM");
        assert_eq!(AsvVariant::all().len(), 4);
    }

    #[test]
    fn default_model_uses_pw4_and_qhd() {
        let m = SystemPerformanceModel::asv_default();
        assert_eq!(m.propagation_window(), 4);
        assert_eq!(m.accelerator().hw().pe_rows, 24);
    }
}
