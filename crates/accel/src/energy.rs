//! Per-operation energy constants and energy accounting.
//!
//! The RTL/PrimeTime power numbers of the paper cannot be regenerated without
//! the 16 nm PDK, so energy is modelled from event counts with per-event
//! energies taken from the usual published 16/28 nm figures (scaled to 16 nm):
//! a 16-bit MAC costs a fraction of a picojoule, an SRAM byte a few
//! picojoules, and a DRAM byte tens of picojoules.  Because every comparison
//! in the paper is *relative* (speedup, % energy saved), the conclusions
//! depend on the ratios of these constants, not their absolute calibration.

use serde::{Deserialize, Serialize};

/// Energy cost model of the accelerator datapath and memory system.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one 16-bit multiply-accumulate, in picojoules.
    pub mac_pj: f64,
    /// Energy of moving one byte through the on-chip SRAM, in picojoules.
    pub sram_pj_per_byte: f64,
    /// Energy of moving one byte to/from LPDDR3 DRAM, in picojoules.
    pub dram_pj_per_byte: f64,
    /// Energy of one scalar-unit point-wise operation, in picojoules.
    pub scalar_op_pj: f64,
    /// Idle/leakage power of the accelerator in watts, charged for the full
    /// runtime.
    pub leakage_w: f64,
}

impl EnergyModel {
    /// Default 16 nm-class constants.
    pub fn asv_16nm() -> Self {
        Self {
            mac_pj: 0.6,
            sram_pj_per_byte: 2.5,
            dram_pj_per_byte: 60.0,
            scalar_op_pj: 1.2,
            leakage_w: 0.05,
        }
    }

    /// Energy in joules of a workload described by its event counts and
    /// runtime.
    pub fn energy_joules(
        &self,
        macs: u64,
        sram_bytes: u64,
        dram_bytes: u64,
        scalar_ops: u64,
        seconds: f64,
    ) -> f64 {
        let dynamic_pj = macs as f64 * self.mac_pj
            + sram_bytes as f64 * self.sram_pj_per_byte
            + dram_bytes as f64 * self.dram_pj_per_byte
            + scalar_ops as f64 * self.scalar_op_pj;
        dynamic_pj * 1e-12 + self.leakage_w * seconds
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::asv_16nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_dominates_per_byte_costs() {
        let m = EnergyModel::asv_16nm();
        assert!(m.dram_pj_per_byte > 10.0 * m.sram_pj_per_byte);
        assert!(m.sram_pj_per_byte > m.mac_pj);
    }

    #[test]
    fn energy_scales_linearly_with_events() {
        let m = EnergyModel::asv_16nm();
        let one = m.energy_joules(1_000_000, 0, 0, 0, 0.0);
        let two = m.energy_joules(2_000_000, 0, 0, 0, 0.0);
        assert!((two / one - 2.0).abs() < 1e-9);
        assert_eq!(m.energy_joules(0, 0, 0, 0, 0.0), 0.0);
    }

    #[test]
    fn leakage_is_charged_for_runtime() {
        let m = EnergyModel::asv_16nm();
        let idle = m.energy_joules(0, 0, 0, 0, 2.0);
        assert!((idle - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mixed_workload_energy_is_sum_of_parts() {
        let m = EnergyModel::asv_16nm();
        let total = m.energy_joules(100, 200, 300, 400, 0.0);
        let parts = m.energy_joules(100, 0, 0, 0, 0.0)
            + m.energy_joules(0, 200, 0, 0, 0.0)
            + m.energy_joules(0, 0, 300, 0, 0.0)
            + m.energy_joules(0, 0, 0, 400, 0.0);
        assert!((total - parts).abs() < 1e-15);
    }
}
