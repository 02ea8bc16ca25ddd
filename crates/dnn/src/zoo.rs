//! Layer-level descriptions of the four stereo DNNs evaluated by the paper.
//!
//! The layer lists follow the published architectures (FlowNetC [Fischer et
//! al. 2015], DispNet [Mayer et al. 2016], GC-Net [Kendall et al. 2017],
//! PSMNet [Chang & Chen 2018]) closely enough to preserve the properties ASV
//! exploits: encoder/decoder structure, the heavy use of stride-2
//! deconvolution in the disparity-refinement stage, 2-D vs 3-D cost-volume
//! processing, and the relative arithmetic weight of the three stages
//! (Fig. 3).  Exact channel counts of auxiliary heads are simplified.

use crate::layer::{LayerSpec, Stage};
use crate::network::NetworkSpec;

/// Standard evaluation input height used throughout the paper's benchmarks
/// (KITTI-like aspect ratio scaled to qHD-class work).
pub const DEFAULT_HEIGHT: usize = 384;
/// Standard evaluation input width.
pub const DEFAULT_WIDTH: usize = 768;
/// Default maximum disparity of the 3-D cost-volume networks.
pub const DEFAULT_MAX_DISPARITY: usize = 192;

/// Incremental builder that tracks the activation volume between layers.
struct Chain {
    layers: Vec<LayerSpec>,
    channels: usize,
    d: usize,
    h: usize,
    w: usize,
}

impl Chain {
    fn new(channels: usize, d: usize, h: usize, w: usize) -> Self {
        Self {
            layers: Vec::new(),
            channels,
            d,
            h,
            w,
        }
    }

    fn conv2d(
        &mut self,
        name: &str,
        stage: Stage,
        out_c: usize,
        k: usize,
        stride: usize,
    ) -> &mut Self {
        let pad = k / 2;
        let layer = LayerSpec::conv2d(
            name,
            stage,
            self.channels,
            out_c,
            self.h,
            self.w,
            k,
            stride,
            pad,
        );
        let (_, h, w) = layer.output_dims();
        self.channels = out_c;
        self.h = h;
        self.w = w;
        self.layers.push(layer);
        self
    }

    fn deconv2d(
        &mut self,
        name: &str,
        stage: Stage,
        out_c: usize,
        k: usize,
        stride: usize,
    ) -> &mut Self {
        let pad = (k - stride) / 2;
        let layer = LayerSpec::deconv2d(
            name,
            stage,
            self.channels,
            out_c,
            self.h,
            self.w,
            k,
            stride,
            pad,
        );
        let (_, h, w) = layer.output_dims();
        self.channels = out_c;
        self.h = h;
        self.w = w;
        self.layers.push(layer);
        self
    }

    fn conv3d(
        &mut self,
        name: &str,
        stage: Stage,
        out_c: usize,
        k: usize,
        stride: usize,
    ) -> &mut Self {
        let pad = k / 2;
        let layer = LayerSpec::conv3d(
            name,
            stage,
            self.channels,
            out_c,
            self.d,
            self.h,
            self.w,
            k,
            stride,
            pad,
        );
        let (d, h, w) = layer.output_dims();
        self.channels = out_c;
        self.d = d;
        self.h = h;
        self.w = w;
        self.layers.push(layer);
        self
    }

    fn deconv3d(
        &mut self,
        name: &str,
        stage: Stage,
        out_c: usize,
        k: usize,
        stride: usize,
    ) -> &mut Self {
        let pad = (k - stride).div_ceil(2);
        let layer = LayerSpec::deconv3d(
            name,
            stage,
            self.channels,
            out_c,
            self.d,
            self.h,
            self.w,
            k,
            stride,
            pad,
        );
        let (d, h, w) = layer.output_dims();
        self.channels = out_c;
        self.d = d;
        self.h = h;
        self.w = w;
        self.layers.push(layer);
        self
    }

    /// Widens the channel count without adding a layer (models concatenation
    /// of skip connections before the next layer).
    fn concat(&mut self, extra_channels: usize) -> &mut Self {
        self.channels += extra_channels;
        self
    }

    fn pointwise(&mut self, name: &str, stage: Stage, ops: u64) -> &mut Self {
        self.layers.push(LayerSpec::pointwise(
            name,
            stage,
            self.channels,
            self.d,
            self.h,
            self.w,
            ops,
        ));
        self
    }

    fn finish(self) -> Vec<LayerSpec> {
        self.layers
    }
}

/// FlowNetC-style correlation network (2-D).
pub fn flownetc(height: usize, width: usize) -> NetworkSpec {
    let mut layers = Vec::new();

    // Feature extraction: two weight-shared towers run on the left and right
    // images; we emit each tower explicitly so MAC accounting counts both.
    for tower in ["left", "right"] {
        let mut fe = Chain::new(3, 1, height, width);
        fe.conv2d(
            &format!("conv1_{tower}"),
            Stage::FeatureExtraction,
            64,
            7,
            2,
        )
        .conv2d(
            &format!("conv2_{tower}"),
            Stage::FeatureExtraction,
            128,
            5,
            2,
        )
        .conv2d(
            &format!("conv3_{tower}"),
            Stage::FeatureExtraction,
            256,
            5,
            2,
        );
        layers.extend(fe.finish());
    }

    // Matching optimization starting from the 1/8-resolution features.
    let mut mo = Chain::new(256, 1, height / 8, width / 8);
    // The correlation layer compares each left feature with a 21x21
    // neighbourhood of right features (441 displacement hypotheses).
    mo.pointwise("correlation", Stage::MatchingOptimization, 441)
        .conv2d("conv_redir", Stage::MatchingOptimization, 32, 1, 1);
    // Correlation output (441 channels) concatenated with conv_redir (32).
    mo.channels = 473;
    mo.conv2d("conv3_1", Stage::MatchingOptimization, 256, 3, 1)
        .conv2d("conv4", Stage::MatchingOptimization, 512, 3, 2)
        .conv2d("conv4_1", Stage::MatchingOptimization, 512, 3, 1)
        .conv2d("conv5", Stage::MatchingOptimization, 512, 3, 2)
        .conv2d("conv5_1", Stage::MatchingOptimization, 512, 3, 1)
        .conv2d("conv6", Stage::MatchingOptimization, 1024, 3, 2)
        .conv2d("conv6_1", Stage::MatchingOptimization, 1024, 3, 1);

    // Disparity (flow) refinement: stride-2 deconvolutions with skip
    // concatenations and per-scale prediction convolutions.
    mo.deconv2d("deconv5", Stage::DisparityRefinement, 512, 4, 2)
        .concat(512 + 2)
        .conv2d("predict5", Stage::DisparityRefinement, 2, 3, 1);
    mo.channels = 512 + 512 + 2;
    mo.deconv2d("deconv4", Stage::DisparityRefinement, 256, 4, 2)
        .concat(512 + 2)
        .conv2d("predict4", Stage::DisparityRefinement, 2, 3, 1);
    mo.channels = 256 + 512 + 2;
    mo.deconv2d("deconv3", Stage::DisparityRefinement, 128, 4, 2)
        .concat(256 + 2)
        .conv2d("predict3", Stage::DisparityRefinement, 2, 3, 1);
    mo.channels = 128 + 256 + 2;
    mo.deconv2d("deconv2", Stage::DisparityRefinement, 64, 4, 2)
        .concat(128 + 2)
        .conv2d("predict2", Stage::DisparityRefinement, 2, 3, 1);
    layers.extend(mo.finish());
    NetworkSpec::new("FlowNetC", false, layers)
}

/// DispNet-style encoder/decoder network (2-D) operating on the concatenated
/// stereo pair.
pub fn dispnet(height: usize, width: usize) -> NetworkSpec {
    let mut c = Chain::new(6, 1, height, width);
    c.conv2d("conv1", Stage::FeatureExtraction, 64, 7, 2)
        .conv2d("conv2", Stage::FeatureExtraction, 128, 5, 2)
        .conv2d("conv3a", Stage::FeatureExtraction, 256, 5, 2)
        .conv2d("conv3b", Stage::MatchingOptimization, 256, 3, 1)
        .conv2d("conv4a", Stage::MatchingOptimization, 512, 3, 2)
        .conv2d("conv4b", Stage::MatchingOptimization, 512, 3, 1)
        .conv2d("conv5a", Stage::MatchingOptimization, 512, 3, 2)
        .conv2d("conv5b", Stage::MatchingOptimization, 512, 3, 1)
        .conv2d("conv6a", Stage::MatchingOptimization, 1024, 3, 2)
        .conv2d("conv6b", Stage::MatchingOptimization, 1024, 3, 1);

    c.deconv2d("deconv5", Stage::DisparityRefinement, 512, 4, 2)
        .concat(512 + 1)
        .conv2d("iconv5", Stage::DisparityRefinement, 512, 3, 1)
        .conv2d("predict5", Stage::DisparityRefinement, 1, 3, 1);
    c.channels = 512;
    c.deconv2d("deconv4", Stage::DisparityRefinement, 256, 4, 2)
        .concat(512 + 1)
        .conv2d("iconv4", Stage::DisparityRefinement, 256, 3, 1)
        .conv2d("predict4", Stage::DisparityRefinement, 1, 3, 1);
    c.channels = 256;
    c.deconv2d("deconv3", Stage::DisparityRefinement, 128, 4, 2)
        .concat(256 + 1)
        .conv2d("iconv3", Stage::DisparityRefinement, 128, 3, 1)
        .conv2d("predict3", Stage::DisparityRefinement, 1, 3, 1);
    c.channels = 128;
    c.deconv2d("deconv2", Stage::DisparityRefinement, 64, 4, 2)
        .concat(128 + 1)
        .conv2d("iconv2", Stage::DisparityRefinement, 64, 3, 1)
        .conv2d("predict2", Stage::DisparityRefinement, 1, 3, 1);
    c.channels = 64;
    c.deconv2d("deconv1", Stage::DisparityRefinement, 32, 4, 2)
        .concat(64 + 1)
        .conv2d("iconv1", Stage::DisparityRefinement, 32, 3, 1)
        .conv2d("predict1", Stage::DisparityRefinement, 1, 3, 1);
    NetworkSpec::new("DispNet", false, c.finish())
}

/// GC-Net-style 3-D cost-volume network.
pub fn gcnet(height: usize, width: usize, max_disparity: usize) -> NetworkSpec {
    let mut layers = Vec::new();

    // 2-D feature extraction (two weight-shared towers, half resolution).
    for tower in ["left", "right"] {
        let mut fe = Chain::new(3, 1, height, width);
        fe.conv2d(
            &format!("conv1_{tower}"),
            Stage::FeatureExtraction,
            32,
            5,
            2,
        );
        for i in 0..8 {
            fe.conv2d(
                &format!("res{i}a_{tower}"),
                Stage::FeatureExtraction,
                32,
                3,
                1,
            )
            .conv2d(
                &format!("res{i}b_{tower}"),
                Stage::FeatureExtraction,
                32,
                3,
                1,
            );
        }
        fe.conv2d(&format!("feat_{tower}"), Stage::FeatureExtraction, 32, 3, 1);
        layers.extend(fe.finish());
    }

    // 3-D matching optimization over the (D/2, H/2, W/2) cost volume with 64
    // channels (left/right features concatenated).
    let mut mo = Chain::new(64, max_disparity / 2, height / 2, width / 2);
    mo.conv3d("3d_conv1", Stage::MatchingOptimization, 32, 3, 1)
        .conv3d("3d_conv2", Stage::MatchingOptimization, 32, 3, 1)
        .conv3d("3d_down1", Stage::MatchingOptimization, 64, 3, 2)
        .conv3d("3d_conv3", Stage::MatchingOptimization, 64, 3, 1)
        .conv3d("3d_conv4", Stage::MatchingOptimization, 64, 3, 1)
        .conv3d("3d_down2", Stage::MatchingOptimization, 64, 3, 2)
        .conv3d("3d_conv5", Stage::MatchingOptimization, 64, 3, 1)
        .conv3d("3d_conv6", Stage::MatchingOptimization, 64, 3, 1)
        .conv3d("3d_down3", Stage::MatchingOptimization, 128, 3, 2)
        .conv3d("3d_conv7", Stage::MatchingOptimization, 128, 3, 1)
        .conv3d("3d_conv8", Stage::MatchingOptimization, 128, 3, 1);

    // 3-D disparity refinement: transposed convolutions back to full
    // resolution, ending in a single-channel D×H×W volume.
    mo.deconv3d("3d_deconv1", Stage::DisparityRefinement, 64, 3, 2)
        .conv3d("3d_up_conv1", Stage::DisparityRefinement, 64, 3, 1)
        .deconv3d("3d_deconv2", Stage::DisparityRefinement, 64, 3, 2)
        .conv3d("3d_up_conv2", Stage::DisparityRefinement, 32, 3, 1)
        .deconv3d("3d_deconv3", Stage::DisparityRefinement, 32, 3, 2)
        .deconv3d("3d_deconv4", Stage::DisparityRefinement, 1, 3, 2)
        .pointwise("soft_argmin", Stage::Other, 2);
    layers.extend(mo.finish());
    NetworkSpec::new("GC-Net", true, layers)
}

/// PSMNet-style 3-D stacked-hourglass network.
pub fn psmnet(height: usize, width: usize, max_disparity: usize) -> NetworkSpec {
    let mut layers = Vec::new();

    // 2-D feature extraction with a deeper CNN + spatial pyramid pooling,
    // quarter resolution.
    for tower in ["left", "right"] {
        let mut fe = Chain::new(3, 1, height, width);
        fe.conv2d(
            &format!("conv0_1_{tower}"),
            Stage::FeatureExtraction,
            32,
            3,
            2,
        )
        .conv2d(
            &format!("conv0_2_{tower}"),
            Stage::FeatureExtraction,
            32,
            3,
            1,
        )
        .conv2d(
            &format!("conv0_3_{tower}"),
            Stage::FeatureExtraction,
            32,
            3,
            1,
        );
        for i in 0..3 {
            fe.conv2d(
                &format!("res1_{i}_{tower}"),
                Stage::FeatureExtraction,
                32,
                3,
                1,
            );
        }
        fe.conv2d(
            &format!("down1_{tower}"),
            Stage::FeatureExtraction,
            64,
            3,
            2,
        );
        for i in 0..8 {
            fe.conv2d(
                &format!("res2_{i}_{tower}"),
                Stage::FeatureExtraction,
                64,
                3,
                1,
            );
        }
        for i in 0..3 {
            fe.conv2d(
                &format!("res3_{i}_{tower}"),
                Stage::FeatureExtraction,
                128,
                3,
                1,
            );
        }
        // SPP branches + fusion.
        fe.conv2d(
            &format!("spp_fuse_{tower}"),
            Stage::FeatureExtraction,
            128,
            3,
            1,
        )
        .conv2d(
            &format!("lastconv_{tower}"),
            Stage::FeatureExtraction,
            32,
            1,
            1,
        );
        layers.extend(fe.finish());
    }

    // 3-D processing over the (D/4, H/4, W/4) volume with 64 channels.
    let mut mo = Chain::new(64, max_disparity / 4, height / 4, width / 4);
    mo.conv3d("dres0_a", Stage::MatchingOptimization, 32, 3, 1)
        .conv3d("dres0_b", Stage::MatchingOptimization, 32, 3, 1)
        .conv3d("dres1_a", Stage::MatchingOptimization, 32, 3, 1)
        .conv3d("dres1_b", Stage::MatchingOptimization, 32, 3, 1);

    // Three stacked hourglasses: each downsamples twice and upsamples twice
    // with 3-D deconvolutions.
    for hg in 0..3 {
        mo.conv3d(
            &format!("hg{hg}_down1"),
            Stage::MatchingOptimization,
            64,
            3,
            2,
        )
        .conv3d(
            &format!("hg{hg}_conv1"),
            Stage::MatchingOptimization,
            64,
            3,
            1,
        )
        .conv3d(
            &format!("hg{hg}_down2"),
            Stage::MatchingOptimization,
            64,
            3,
            2,
        )
        .conv3d(
            &format!("hg{hg}_conv2"),
            Stage::MatchingOptimization,
            64,
            3,
            1,
        )
        .deconv3d(
            &format!("hg{hg}_deconv1"),
            Stage::DisparityRefinement,
            64,
            3,
            2,
        )
        .deconv3d(
            &format!("hg{hg}_deconv2"),
            Stage::DisparityRefinement,
            32,
            3,
            2,
        );
    }

    // Final classification and upsampling to full resolution.
    mo.conv3d("classif_a", Stage::DisparityRefinement, 32, 3, 1)
        .conv3d("classif_b", Stage::DisparityRefinement, 1, 3, 1)
        .deconv3d("final_up1", Stage::DisparityRefinement, 1, 4, 2)
        .deconv3d("final_up2", Stage::DisparityRefinement, 1, 4, 2)
        .pointwise("disparity_regression", Stage::Other, 2);
    layers.extend(mo.finish());
    NetworkSpec::new("PSMNet", true, layers)
}

/// The four stereo networks evaluated throughout the paper, at the default
/// resolution.
pub fn standard_suite() -> Vec<NetworkSpec> {
    suite(DEFAULT_HEIGHT, DEFAULT_WIDTH, DEFAULT_MAX_DISPARITY)
}

/// The four stereo networks at a caller-chosen resolution.
pub fn suite(height: usize, width: usize, max_disparity: usize) -> Vec<NetworkSpec> {
    vec![
        dispnet(height, width),
        flownetc(height, width),
        gcnet(height, width, max_disparity),
        psmnet(height, width, max_disparity),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn networks_have_expected_structure() {
        for net in suite(192, 384, 96) {
            assert!(net.num_layers() > 10, "{} too small", net.name);
            assert!(
                net.deconv_layers().count() >= 4,
                "{} lacks deconvs",
                net.name
            );
            assert!(net.total_macs() > 0);
            match net.name.as_str() {
                "GC-Net" | "PSMNet" => assert!(net.is_3d),
                _ => assert!(!net.is_3d),
            }
        }
    }

    #[test]
    fn deconv_share_matches_paper_band() {
        // Fig. 3: deconvolution accounts for a significant minority of the
        // arithmetic — 38.2 % on average with a 50 % maximum.  Allow a broad
        // band per network but require the average to land near the paper's.
        let nets = suite(192, 384, 96);
        let fractions: Vec<f64> = nets.iter().map(|n| n.deconv_mac_fraction()).collect();
        for (net, f) in nets.iter().zip(&fractions) {
            assert!(*f > 0.05 && *f < 0.7, "{}: deconv fraction {f}", net.name);
        }
        let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
        assert!(avg > 0.2 && avg < 0.55, "average deconv fraction {avg}");
    }

    #[test]
    fn conv_plus_deconv_dominate_runtime() {
        // Fig. 3: convolution + deconvolution account for over 99 % of the
        // arithmetic.
        for net in suite(192, 384, 96) {
            let conv_deconv: u64 = net
                .layers
                .iter()
                .filter(|l| l.op.is_conv() || l.op.is_deconv())
                .map(|l| l.naive_macs())
                .sum();
            let share = conv_deconv as f64 / net.total_naive_macs() as f64;
            assert!(share > 0.9, "{}: conv+deconv share {share}", net.name);
        }
    }

    #[test]
    fn three_d_networks_are_heavier_than_two_d() {
        let nets = suite(192, 384, 96);
        let macs: std::collections::HashMap<_, _> = nets
            .iter()
            .map(|n| (n.name.clone(), n.total_naive_macs()))
            .collect();
        assert!(macs["GC-Net"] > macs["FlowNetC"]);
        assert!(macs["PSMNet"] > macs["DispNet"]);
    }

    #[test]
    fn dnn_vs_classic_compute_gap_matches_paper() {
        // Sec. 3.3: a qHD non-key frame costs ~87 Mops while stereo DNN
        // inference costs 10^2 - 10^4 x more.
        let nets = suite(540, 960, 192);
        for net in nets {
            let ratio = net.total_naive_macs() as f64 / 87e6;
            assert!(ratio > 50.0, "{} ratio {ratio}", net.name);
            assert!(ratio < 1e6, "{} ratio {ratio}", net.name);
        }
    }

    #[test]
    fn resolution_scales_macs_roughly_quadratically() {
        let small = flownetc(96, 192).total_macs() as f64;
        let large = flownetc(192, 384).total_macs() as f64;
        let ratio = large / small;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio {ratio}");
    }

    #[test]
    fn standard_suite_uses_default_resolution() {
        let nets = standard_suite();
        assert_eq!(nets.len(), 4);
        assert_eq!(nets[0].layers[0].in_h, DEFAULT_HEIGHT);
        assert_eq!(nets[0].layers[0].in_w, DEFAULT_WIDTH);
    }

    #[test]
    fn stage_distribution_has_all_three_stages() {
        for net in suite(192, 384, 96) {
            let dist = net.stage_distribution();
            assert!(dist.feature_extraction > 0.0, "{}", net.name);
            assert!(dist.matching_optimization > 0.0, "{}", net.name);
            assert!(dist.disparity_refinement > 0.0, "{}", net.name);
        }
    }
}
