//! Comparison hardware models: Eyeriss-style spatial architecture, mobile
//! Pascal GPU and the GANNX deconvolution accelerator.
//!
//! These are analytical stand-ins for the external artifacts the paper
//! measures against (the public Eyeriss simulator, a Jetson TX2 board and the
//! GANNX paper's reported design).  Each model is configured with the *same*
//! compute, on-chip memory and bandwidth resources as the ASV configuration,
//! as the paper does for fairness, and differs only in how effectively it can
//! use them.

use crate::energy::EnergyModel;
use crate::report::ExecutionReport;
use asv_dataflow::workload::LayerWorkload;
use asv_dataflow::HwConfig;
use asv_dnn::NetworkSpec;
use serde::{Deserialize, Serialize};

/// An Eyeriss-style row-stationary spatial architecture with the same PE
/// count, buffer capacity and DRAM bandwidth as the ASV configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EyerissModel {
    hw: HwConfig,
    energy: EnergyModel,
    /// Average PE-array utilisation of the row-stationary dataflow on these
    /// workloads (spatial mappings rarely keep every PE busy).
    utilization: f64,
    /// How many times activations/weights are re-fetched from DRAM relative
    /// to their footprint (the row-stationary reuse is good but it cannot
    /// exploit ILAR).
    dram_refetch_factor: f64,
}

impl EyerissModel {
    /// Eyeriss configured with the same resources as ASV (Sec. 6.2).
    pub fn matched_to(hw: HwConfig) -> Self {
        Self {
            hw,
            energy: EnergyModel::asv_16nm(),
            utilization: 0.72,
            dram_refetch_factor: 1.8,
        }
    }

    /// Runs one inference of `network`.
    ///
    /// With `transform_deconv` set, the deconvolution-to-convolution
    /// transformation (which is pure software and applies to any
    /// architecture) is applied first — this is the stronger "Eyeriss + DCT"
    /// baseline of Fig. 13.  Inter-layer activation reuse is never applied:
    /// Eyeriss's spatial mapping would require a different reuse formulation
    /// (Sec. 7.5).
    pub fn run_network(&self, network: &NetworkSpec, transform_deconv: bool) -> ExecutionReport {
        let mut macs = 0u64;
        let mut dram = 0u64;
        let mut sram = 0u64;
        for spec in &network.layers {
            let wl = if transform_deconv {
                LayerWorkload::transformed(spec)
            } else {
                LayerWorkload::naive(spec)
            };
            if wl.sub_kernels.is_empty() {
                continue;
            }
            macs += wl.total_macs();
            let footprint = wl.ifmap_bytes() + wl.total_weight_bytes() + wl.total_ofmap_bytes();
            dram += (footprint as f64 * self.dram_refetch_factor) as u64;
            sram += (footprint as f64 * self.dram_refetch_factor * 1.5) as u64;
        }
        let compute_seconds =
            macs as f64 / (self.hw.pe_count() as f64 * self.hw.frequency_hz * self.utilization);
        let memory_seconds = dram as f64 / (self.hw.dram_bytes_per_cycle * self.hw.frequency_hz);
        let seconds = compute_seconds.max(memory_seconds);
        let energy = self.energy.energy_joules(macs, sram, dram, 0, seconds);
        ExecutionReport {
            cycles: (seconds * self.hw.frequency_hz).ceil() as u64,
            seconds,
            macs,
            scalar_ops: 0,
            dram_bytes: dram,
            sram_bytes: sram,
            energy_joules: energy,
        }
    }
}

/// A mobile Pascal GPU (the Jetson TX2 used in Sec. 6.2), modelled as a
/// roofline with a fixed board power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GpuModel {
    /// Peak FP16 throughput in MAC/s.
    pub peak_macs_per_second: f64,
    /// Achievable fraction of peak on these workloads.
    pub efficiency: f64,
    /// Memory bandwidth in bytes/s.
    pub bandwidth_bytes_per_second: f64,
    /// Average board power in watts while running inference.
    pub power_w: f64,
}

impl GpuModel {
    /// Jetson TX2-class Pascal mobile GPU.
    pub fn jetson_tx2() -> Self {
        Self {
            // 256 CUDA cores at ~1.3 GHz, 2 FP16 MACs per core per cycle.
            peak_macs_per_second: 665.0e9,
            efficiency: 0.35,
            bandwidth_bytes_per_second: 58.4e9,
            power_w: 10.0,
        }
    }

    /// Runs one inference of `network` (always the naive execution: the GPU
    /// library does not apply the ASV transformation).
    pub fn run_network(&self, network: &NetworkSpec) -> ExecutionReport {
        let macs = network.total_naive_macs();
        let mut bytes = 0u64;
        for l in &network.layers {
            bytes += l.ifmap_bytes() + l.weight_bytes() + l.ofmap_bytes();
        }
        let compute_seconds = macs as f64 / (self.peak_macs_per_second * self.efficiency);
        let memory_seconds = bytes as f64 / self.bandwidth_bytes_per_second;
        let seconds = compute_seconds.max(memory_seconds);
        ExecutionReport {
            cycles: 0,
            seconds,
            macs,
            scalar_ops: 0,
            dram_bytes: bytes,
            sram_bytes: 0,
            energy_joules: seconds * self.power_w,
        }
    }
}

/// A GANNX-style dedicated deconvolution accelerator: it skips the
/// zero-operand MACs of deconvolution in hardware (so it executes the same
/// effective MACs as the ASV transformation) but cannot exploit inter-layer
/// activation reuse, and its reorganisation logic costs some utilisation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GannxModel {
    hw: HwConfig,
    energy: EnergyModel,
    utilization: f64,
    dram_refetch_factor: f64,
}

impl GannxModel {
    /// GANNX configured with the same PE and buffer resources as ASV
    /// (Sec. 7.6).
    pub fn matched_to(hw: HwConfig) -> Self {
        Self {
            hw,
            energy: EnergyModel::asv_16nm(),
            utilization: 0.85,
            dram_refetch_factor: 1.35,
        }
    }

    /// Runs one inference of `network` (a GAN generator).
    pub fn run_network(&self, network: &NetworkSpec) -> ExecutionReport {
        let mut macs = 0u64;
        let mut dram = 0u64;
        for spec in &network.layers {
            let wl = LayerWorkload::transformed(spec);
            if wl.sub_kernels.is_empty() {
                continue;
            }
            macs += wl.total_macs();
            // No ILAR: each sub-convolution re-fetches the shared ifmap.
            let ifmap_fetches = wl.sub_kernels.len().max(1) as u64;
            let footprint =
                wl.ifmap_bytes() * ifmap_fetches + wl.total_weight_bytes() + wl.total_ofmap_bytes();
            dram += (footprint as f64 * self.dram_refetch_factor) as u64;
        }
        let sram = (dram as f64 * 1.5) as u64;
        let compute_seconds =
            macs as f64 / (self.hw.pe_count() as f64 * self.hw.frequency_hz * self.utilization);
        let memory_seconds = dram as f64 / (self.hw.dram_bytes_per_cycle * self.hw.frequency_hz);
        let seconds = compute_seconds.max(memory_seconds);
        let energy = self.energy.energy_joules(macs, sram, dram, 0, seconds);
        ExecutionReport {
            cycles: (seconds * self.hw.frequency_hz).ceil() as u64,
            seconds,
            macs,
            scalar_ops: 0,
            dram_bytes: dram,
            sram_bytes: sram,
            energy_joules: energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::systolic::SystolicAccelerator;
    use asv_dataflow::OptLevel;
    use asv_dnn::{gan, zoo};

    #[test]
    fn eyeriss_benefits_from_the_software_transformation() {
        let eyeriss = EyerissModel::matched_to(HwConfig::asv_default());
        let net = zoo::gcnet(96, 192, 48);
        let plain = eyeriss.run_network(&net, false);
        let with_dct = eyeriss.run_network(&net, true);
        let speedup = with_dct.speedup_over(&plain);
        // Fig. 13: Eyeriss + DCT is ~1.6x faster than plain Eyeriss.
        assert!(speedup > 1.1 && speedup < 3.0, "speedup {speedup}");
        assert!(with_dct.energy_joules < plain.energy_joules);
    }

    #[test]
    fn asv_outperforms_eyeriss_and_gpu() {
        let accel = SystolicAccelerator::asv_default();
        let eyeriss = EyerissModel::matched_to(HwConfig::asv_default());
        let gpu = GpuModel::jetson_tx2();
        let net = zoo::dispnet(96, 192);
        let asv = accel.run_network(&net, OptLevel::Ilar);
        let eye = eyeriss.run_network(&net, false);
        let gpu_r = gpu.run_network(&net);
        assert!(asv.seconds < eye.seconds);
        assert!(asv.energy_joules < eye.energy_joules);
        // The GPU is the slowest, most power-hungry platform (Fig. 13).
        assert!(gpu_r.seconds > eye.seconds);
        assert!(gpu_r.energy_joules > eye.energy_joules);
    }

    #[test]
    fn gpu_roofline_is_sane() {
        let gpu = GpuModel::jetson_tx2();
        let net = zoo::flownetc(96, 192);
        let r = gpu.run_network(&net);
        assert!(r.seconds > 0.0);
        assert!(r.fps() < 1000.0);
        assert_eq!(r.macs, net.total_naive_macs());
    }

    #[test]
    fn asv_beats_gannx_on_gans_via_ilar() {
        // Fig. 14: under equal resources ASV is ~1.4x faster than the
        // dedicated GANNX accelerator because of inter-layer activation reuse.
        let accel = SystolicAccelerator::asv_default();
        let gannx = GannxModel::matched_to(HwConfig::asv_default());
        let mut asv_faster = 0;
        let suite = gan::gannx_suite();
        for net in &suite {
            let asv = accel.run_network(net, OptLevel::Ilar);
            let gx = gannx.run_network(net);
            if asv.seconds <= gx.seconds {
                asv_faster += 1;
            }
        }
        assert!(
            asv_faster >= suite.len() - 1,
            "ASV faster on only {asv_faster}/{} GANs",
            suite.len()
        );
    }

    #[test]
    fn gannx_beats_naive_eyeriss_on_gans() {
        let gannx = GannxModel::matched_to(HwConfig::asv_default());
        let eyeriss = EyerissModel::matched_to(HwConfig::asv_default());
        let net = gan::dcgan();
        let gx = gannx.run_network(&net);
        let eye = eyeriss.run_network(&net, false);
        assert!(gx.speedup_over(&eye) > 1.5);
    }
}
