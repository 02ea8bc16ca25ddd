//! [`AsvSystem`]: the top-level user-facing object combining the functional
//! ISM pipeline with the performance/energy model.

use crate::accuracy::score_disparity;
use crate::error::AsvError;
use crate::ism::{IsmConfig, IsmPipeline, IsmResult};
use crate::perf::{AsvVariant, SystemPerformanceModel, VariantReport};
use asv_accel::ism::NonKeyFrameConfig;
use asv_accel::systolic::SystolicAccelerator;
use asv_dnn::{zoo, CostMetric, NetworkSpec, SurrogateParams, SurrogateStereoDnn};
use asv_scene::StereoSequence;
use asv_stereo::block_matching::BlockMatchParams;
use serde::{Deserialize, Serialize};

/// Configuration of a complete ASV system instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AsvConfig {
    /// Propagation window (PW): one key frame every `propagation_window`
    /// frames.
    pub propagation_window: usize,
    /// Largest disparity the matchers search for.
    pub max_disparity: usize,
    /// Frame width the performance model assumes.
    pub frame_width: usize,
    /// Frame height the performance model assumes.
    pub frame_height: usize,
    /// Which stereo network the key-frame estimator stands in for (used by
    /// the performance model); one of the zoo names.
    pub network: String,
    /// Matching-cost metric of the key-frame matcher ([`CostMetric::Sad`]
    /// reference quality, [`CostMetric::Census`] integer SIMD fast path).
    pub metric: CostMetric,
}

impl AsvConfig {
    /// The paper's default operating point: PW-4, qHD frames, DispNet.
    pub fn paper_default() -> Self {
        Self {
            propagation_window: 4,
            max_disparity: 64,
            frame_width: 960,
            frame_height: 540,
            network: "DispNet".to_owned(),
            metric: CostMetric::Sad,
        }
    }

    /// A small configuration suitable for tests and examples.
    pub fn small() -> Self {
        Self {
            propagation_window: 2,
            max_disparity: 32,
            frame_width: 64,
            frame_height: 48,
            network: "DispNet".to_owned(),
            metric: CostMetric::Sad,
        }
    }
}

impl Default for AsvConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Accuracy comparison between ISM and per-frame DNN processing on one
/// sequence (one pair of bars of Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Average three-pixel error rate of ISM across the sequence.
    pub ism_error_rate: f64,
    /// Average three-pixel error rate of running the estimator on every
    /// frame.
    pub dnn_error_rate: f64,
    /// `ism_error_rate − dnn_error_rate` (positive = accuracy loss).
    pub accuracy_loss: f64,
}

/// The complete ASV system: functional pipeline + performance model.
#[derive(Debug, Clone)]
pub struct AsvSystem {
    config: AsvConfig,
    pipeline: IsmPipeline,
    perf: SystemPerformanceModel,
    network: NetworkSpec,
}

impl AsvSystem {
    /// Builds a system from a configuration, using the default accelerator.
    ///
    /// # Errors
    ///
    /// Returns [`AsvError::UnknownNetwork`] when `config.network` names no
    /// network of the zoo.
    pub fn new(config: AsvConfig) -> Result<Self, AsvError> {
        Self::with_accelerator(config, SystolicAccelerator::asv_default())
    }

    /// Builds a system with an explicit accelerator configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AsvError::UnknownNetwork`] when `config.network` names no
    /// network of the zoo.
    pub fn with_accelerator(
        config: AsvConfig,
        accelerator: SystolicAccelerator,
    ) -> Result<Self, AsvError> {
        let network = network_by_name(
            &config.network,
            config.frame_height,
            config.frame_width,
            config.max_disparity,
        )?;
        let surrogate_params = SurrogateParams {
            max_disparity: config.max_disparity,
            occlusion_handling: true,
            metric: config.metric,
        };
        let ism_config = IsmConfig {
            propagation_window: config.propagation_window,
            refine: BlockMatchParams {
                max_disparity: config.max_disparity,
                refine_radius: 3,
                ..Default::default()
            },
            surrogate: surrogate_params,
            ..IsmConfig::default()
        };
        let pipeline = IsmPipeline::new(
            ism_config,
            SurrogateStereoDnn::new(network.clone(), surrogate_params),
        );
        // The model prices the flow and refinement the pipeline runs.
        let nonkey = NonKeyFrameConfig {
            width: config.frame_width,
            height: config.frame_height,
            flow: ism_config.flow,
            refine: ism_config.refine,
        };
        let perf = SystemPerformanceModel::new(accelerator, nonkey, config.propagation_window);
        Ok(Self {
            config,
            pipeline,
            perf,
            network,
        })
    }

    /// The functional ISM pipeline driving [`AsvSystem::process_sequence`];
    /// streaming runtimes call [`IsmPipeline::state`] on it to obtain one
    /// incremental state per camera stream.
    pub fn pipeline(&self) -> &IsmPipeline {
        &self.pipeline
    }

    /// The system configuration.
    pub fn config(&self) -> &AsvConfig {
        &self.config
    }

    /// The stereo network description used by the performance model.
    pub fn network(&self) -> &NetworkSpec {
        &self.network
    }

    /// The underlying performance model.
    pub fn performance_model(&self) -> &SystemPerformanceModel {
        &self.perf
    }

    /// Runs the functional ISM pipeline on a sequence.
    ///
    /// # Errors
    ///
    /// Propagates flow and matcher errors from the pipeline as the unified
    /// [`AsvError`].
    pub fn process_sequence(&self, sequence: &StereoSequence) -> Result<IsmResult, AsvError> {
        self.pipeline.process_sequence(sequence)
    }

    /// Compares ISM accuracy against per-frame estimation on a sequence with
    /// ground truth.
    ///
    /// # Errors
    ///
    /// Propagates flow and matcher errors from either pipeline as the unified
    /// [`AsvError`].
    pub fn evaluate_accuracy(&self, sequence: &StereoSequence) -> Result<AccuracyReport, AsvError> {
        let ism = self.pipeline.process_sequence(sequence)?;
        let dnn = self
            .pipeline
            .with_config(IsmConfig {
                propagation_window: 1,
                ..*self.pipeline.config()
            })
            .process_sequence(sequence)?;

        let mut ism_err = 0.0;
        let mut dnn_err = 0.0;
        let mut count = 0usize;
        for ((a, b), truth) in ism.frames.iter().zip(&dnn.frames).zip(sequence.frames()) {
            ism_err += score_disparity(&a.disparity, &truth.ground_truth)?.bad_3px;
            dnn_err += score_disparity(&b.disparity, &truth.ground_truth)?.bad_3px;
            count += 1;
        }
        let n = count.max(1) as f64;
        let ism_error_rate = ism_err / n;
        let dnn_error_rate = dnn_err / n;
        Ok(AccuracyReport {
            ism_error_rate,
            dnn_error_rate,
            accuracy_loss: ism_error_rate - dnn_error_rate,
        })
    }

    /// Per-frame performance/energy of all system variants on the configured
    /// network.
    pub fn variant_reports(&self) -> Vec<VariantReport> {
        self.perf.variant_reports(&self.network)
    }

    /// Per-frame performance of one variant.
    pub fn per_frame_report(&self, variant: AsvVariant) -> asv_accel::ExecutionReport {
        self.perf.per_frame_report(&self.network, variant)
    }
}

/// Resolves a zoo network by (case-insensitive) name.
///
/// # Errors
///
/// Returns [`AsvError::UnknownNetwork`] for names outside the zoo — a
/// misconfiguration must surface instead of silently running DispNet.
fn network_by_name(
    name: &str,
    height: usize,
    width: usize,
    max_disparity: usize,
) -> Result<NetworkSpec, AsvError> {
    match name.to_ascii_lowercase().as_str() {
        "flownetc" => Ok(zoo::flownetc(height, width)),
        "gc-net" | "gcnet" => Ok(zoo::gcnet(height, width, max_disparity.max(32))),
        "psmnet" => Ok(zoo::psmnet(height, width, max_disparity.max(32))),
        "dispnet" => Ok(zoo::dispnet(height, width)),
        _ => Err(AsvError::UnknownNetwork {
            name: name.to_owned(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asv_flow::farneback::FarnebackParams;
    use asv_scene::SceneConfig;

    fn small_system() -> AsvSystem {
        AsvSystem::new(AsvConfig::small()).unwrap()
    }

    fn sequence(frames: usize) -> StereoSequence {
        StereoSequence::generate(
            &SceneConfig::scene_flow_like(64, 48)
                .with_seed(21)
                .with_objects(3),
            frames,
        )
    }

    #[test]
    fn end_to_end_processing_and_accuracy() {
        let system = small_system();
        let seq = sequence(4);
        let result = system.process_sequence(&seq).unwrap();
        assert_eq!(result.frames.len(), 4);
        let report = system.evaluate_accuracy(&seq).unwrap();
        // Fig. 9: the accuracy loss from ISM is tiny (the paper reports
        // 0.02 % at PW-4 on SceneFlow); allow a small band for the synthetic
        // dataset and surrogate estimator.
        assert!(
            report.accuracy_loss < 0.05,
            "accuracy loss {}",
            report.accuracy_loss
        );
        assert!(report.dnn_error_rate < 0.3);
    }

    #[test]
    fn variant_reports_match_paper_ordering() {
        let system = small_system();
        let reports = system.variant_reports();
        assert_eq!(reports.len(), 4);
        let speedup = |v: AsvVariant| reports.iter().find(|r| r.variant == v).unwrap().speedup;
        assert!(speedup(AsvVariant::IsmDco) >= speedup(AsvVariant::Ism));
        assert!(speedup(AsvVariant::Ism) > 1.0);
        assert!(speedup(AsvVariant::Dco) > 1.0);
    }

    #[test]
    fn network_selection_by_name() {
        for (name, expected) in [
            ("FlowNetC", "FlowNetC"),
            ("gc-net", "GC-Net"),
            ("PSMNet", "PSMNet"),
            ("DispNet", "DispNet"),
        ] {
            let config = AsvConfig {
                network: name.to_owned(),
                ..AsvConfig::small()
            };
            let system = AsvSystem::new(config).unwrap();
            assert_eq!(system.network().name, expected);
        }
    }

    #[test]
    fn unknown_network_names_are_rejected() {
        // Unknown names used to silently fall back to DispNet; they must
        // surface as a configuration error instead.
        let config = AsvConfig {
            network: "unknown".to_owned(),
            ..AsvConfig::small()
        };
        match AsvSystem::new(config) {
            Err(AsvError::UnknownNetwork { name }) => assert_eq!(name, "unknown"),
            other => panic!("expected UnknownNetwork, got {other:?}"),
        }
    }

    #[test]
    fn performance_model_prices_the_pipeline_it_runs() {
        let system = AsvSystem::new(AsvConfig::paper_default()).unwrap();
        let ism = system.pipeline().config();
        let priced = system.performance_model().nonkey_config();
        assert_eq!(priced.flow, ism.flow);
        assert_eq!(priced.refine, ism.refine);
        assert_eq!(ism.flow, FarnebackParams::ism());
        assert_eq!((priced.width, priced.height), (960, 540));
        // At qHD that is the paper's evaluation point.
        assert_eq!(
            asv_accel::ism::nonkey_frame_ops(priced),
            asv_accel::ism::nonkey_frame_ops(&NonKeyFrameConfig::qhd())
        );
    }

    #[test]
    fn config_defaults() {
        assert_eq!(AsvConfig::default(), AsvConfig::paper_default());
        let system = small_system();
        assert_eq!(system.config().propagation_window, 2);
        assert_eq!(system.performance_model().propagation_window(), 2);
        assert!(system.per_frame_report(AsvVariant::Baseline).seconds > 0.0);
    }
}
