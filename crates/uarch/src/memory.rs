//! DRAM latency model.
//!
//! The paper's micro-benchmarks (Fig. 4) show the gem5 model's DRAM latency
//! to be **too low** relative to the hardware; this module keeps latency in
//! nanoseconds so the cycle cost correctly grows with core frequency —
//! which is what makes the per-frequency MPE trend of §IV ("the MPE …
//! becomes gradually more positive with frequency") emerge from the
//! mechanics instead of being scripted.
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::memory::DramConfig;
//!
//! let dram = DramConfig::new(100.0);
//! // At 2 GHz a 100 ns access costs twice as many cycles as at 1 GHz.
//! let c1 = dram.access_cycles(1.0e9);
//! let c2 = dram.access_cycles(2.0e9);
//! assert!((c2 - 2.0 * c1).abs() < 1e-9);
//! ```

/// DRAM timing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramConfig {
    /// Average random-access latency (row activation + CAS + controller),
    /// in nanoseconds.
    pub latency_ns: f64,
}

impl DramConfig {
    /// Creates a DRAM model with the given latency.
    pub fn new(latency_ns: f64) -> Self {
        DramConfig { latency_ns }
    }

    /// Cycles for one DRAM access at the given core frequency (Hz).
    pub fn access_cycles(&self, freq_hz: f64) -> f64 {
        self.latency_ns * 1e-9 * freq_hz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_with_frequency() {
        let d = DramConfig::new(80.0);
        assert!((d.access_cycles(1.0e9) - 80.0).abs() < 1e-9);
        assert!((d.access_cycles(0.2e9) - 16.0).abs() < 1e-9);
    }
}
