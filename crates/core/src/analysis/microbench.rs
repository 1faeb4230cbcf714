//! Micro-benchmark memory-latency curves — §IV-A / Fig. 4 of the paper.
//!
//! Runs the `lat_mem_rd` pointer chase (stride 256) across array sizes on
//! both the hardware configuration and the gem5 model of each cluster,
//! reporting nanoseconds per access. The curves walk the L1 → L2 → DRAM
//! plateaus; the gem5 model's DRAM plateau sits too low, and the A7
//! model's L2 plateau sits too high (Fig. 4's findings).

use gemstone_platform::dvfs::Cluster;
use gemstone_platform::gem5sim::Gem5Model;
use gemstone_stats::threads::parallel_map;
use gemstone_uarch::backend::{Backend, TierConfig};
use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, ex5_little, Ex5Variant};
use gemstone_uarch::core::CoreConfig;
use gemstone_workloads::microbench::{fig4_sizes, lat_mem_rd};

/// One latency curve.
#[derive(Debug, Clone)]
pub struct LatencyCurve {
    /// Label ("Cortex-A15 HW", "ex5_big model", …).
    pub label: String,
    /// `(array bytes, ns per access)` points, ascending size.
    pub points: Vec<(u64, f64)>,
}

impl LatencyCurve {
    /// Latency at the largest size (the DRAM plateau).
    pub fn dram_plateau_ns(&self) -> f64 {
        self.points.last().map_or(f64::NAN, |p| p.1)
    }

    /// Latency at a size resident in L2 but not L1 (256 KiB).
    pub fn l2_plateau_ns(&self) -> f64 {
        self.points
            .iter()
            .find(|(s, _)| *s == 256 * 1024)
            .map_or(f64::NAN, |p| p.1)
    }
}

/// The Fig. 4 analysis result: hardware vs model curves for both clusters.
#[derive(Debug, Clone)]
pub struct MemoryLatency {
    /// All four curves.
    pub curves: Vec<LatencyCurve>,
    /// Stride used (bytes).
    pub stride: u64,
}

/// The engine seed of every `lat_mem_rd` run: the approx engine's
/// default seed, which the Fig. 4 curves have always used.
const LAT_MEM_RD_SEED: u64 = 0x5EED_CAFE;

/// Nanoseconds per access of one `lat_mem_rd` run over `size` bytes, at
/// the reference (approx) tier: an atomic-tier curve would be flat, since
/// that tier walks no cache.
fn latency_ns(cfg: &CoreConfig, freq_hz: f64, size: u64, stride: u64, accesses: u64) -> f64 {
    let stream = lat_mem_rd(size, stride, accesses);
    let n = stream.len() as f64 / 2.0;
    let r = Backend::new(TierConfig::default(), cfg, &[freq_hz], 1, LAT_MEM_RD_SEED)
        .run_stream(stream)
        .remove(0);
    r.seconds * 1e9 / n
}

/// Measures one labelled curve per configuration. The (configuration,
/// size) engine runs are independent, so they fan out through
/// [`parallel_map`] and are reassembled in the fixed curve and size order;
/// results do not depend on the worker count.
fn measure(
    configs: &[(CoreConfig, &str)],
    freq_hz: f64,
    stride: u64,
    accesses: u64,
) -> Vec<LatencyCurve> {
    let sizes = fig4_sizes();
    let runs: Vec<(&CoreConfig, u64)> = configs
        .iter()
        .flat_map(|(cfg, _)| sizes.iter().map(move |&size| (cfg, size)))
        .collect();
    let ns = parallel_map(&runs, |_, &(cfg, size)| {
        latency_ns(cfg, freq_hz, size, stride, accesses)
    });
    configs
        .iter()
        .zip(ns.chunks(sizes.len()))
        .map(|((_, label), ns)| LatencyCurve {
            label: label.to_string(),
            points: sizes.iter().copied().zip(ns.iter().copied()).collect(),
        })
        .collect()
}

/// Measures the Fig. 4 latency curves for one custom hardware/model config
/// pair (used by the model-improvement loop, where the model configuration
/// evolves between iterations). The curves are labelled so
/// [`MemoryLatency::pair`] resolves them for `cluster`.
pub fn analyse_pair(
    hw_cfg: CoreConfig,
    model_cfg: CoreConfig,
    cluster: Cluster,
    freq_hz: f64,
    accesses: u64,
) -> MemoryLatency {
    let stride = 256;
    let (hw_label, model_label) = match cluster {
        Cluster::BigA15 => ("Cortex-A15 HW", "ex5_big (custom)"),
        Cluster::LittleA7 => ("Cortex-A7 HW", "ex5_LITTLE (custom)"),
    };
    let curves = measure(
        &[(hw_cfg, hw_label), (model_cfg, model_label)],
        freq_hz,
        stride,
        accesses,
    );
    MemoryLatency { curves, stride }
}

/// Runs the Fig. 4 experiment at the given frequency (the paper uses a
/// stride of 256).
pub fn analyse(freq_hz: f64, accesses: u64) -> MemoryLatency {
    let stride = 256;
    let curves = measure(
        &[
            (cortex_a15_hw(), "Cortex-A15 HW"),
            (ex5_big(Ex5Variant::Fixed), Gem5Model::Ex5BigFixed.name()),
            (cortex_a7_hw(), "Cortex-A7 HW"),
            (ex5_little(), Gem5Model::Ex5Little.name()),
        ],
        freq_hz,
        stride,
        accesses,
    );
    MemoryLatency { curves, stride }
}

impl MemoryLatency {
    /// Finds a curve by label substring.
    pub fn curve(&self, label: &str) -> Option<&LatencyCurve> {
        self.curves.iter().find(|c| c.label.contains(label))
    }

    /// Relates Cluster to its HW/model curve pair.
    pub fn pair(&self, cluster: Cluster) -> Option<(&LatencyCurve, &LatencyCurve)> {
        match cluster {
            Cluster::BigA15 => Some((self.curve("A15 HW")?, self.curve("ex5_big")?)),
            Cluster::LittleA7 => Some((self.curve("A7 HW")?, self.curve("ex5_LITTLE")?)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_uarch::core::Engine;

    fn latency() -> MemoryLatency {
        analyse(1.0e9, 20_000)
    }

    /// The serial loop the parallel measurement replaced: one buffered
    /// stream and one engine run per size, in ascending order.
    fn serial_curve(cfg: &CoreConfig, freq_hz: f64, accesses: u64) -> Vec<(u64, f64)> {
        fig4_sizes()
            .into_iter()
            .map(|size| {
                let stream: Vec<_> = lat_mem_rd(size, 256, accesses).collect();
                let n = stream.len() as f64 / 2.0;
                let mut engine = Engine::new(cfg.clone(), &[freq_hz], 1);
                let r = engine.run(stream.into_iter()).remove(0);
                (size, r.seconds * 1e9 / n)
            })
            .collect()
    }

    #[test]
    fn parallel_curves_match_the_serial_reference_at_any_worker_count() {
        use gemstone_stats::threads::set_worker_threads;
        let accesses = 5_000;
        let expect: Vec<Vec<(u64, f64)>> = [
            cortex_a15_hw(),
            ex5_big(Ex5Variant::Fixed),
            cortex_a7_hw(),
            ex5_little(),
        ]
        .iter()
        .map(|cfg| serial_curve(cfg, 1.0e9, accesses))
        .collect();
        for threads in [1, 2, 4] {
            set_worker_threads(threads);
            let m = analyse(1.0e9, accesses);
            set_worker_threads(0);
            assert_eq!(m.curves.len(), expect.len());
            for (curve, want) in m.curves.iter().zip(&expect) {
                assert_eq!(curve.points.len(), want.len());
                for (&(size, ns), &(want_size, want_ns)) in curve.points.iter().zip(want) {
                    assert_eq!(size, want_size);
                    assert_eq!(
                        ns.to_bits(),
                        want_ns.to_bits(),
                        "{} at {size} B with {threads} workers",
                        curve.label
                    );
                }
            }
        }
    }

    #[test]
    fn curves_are_monotone_plateaus() {
        let m = latency();
        assert_eq!(m.curves.len(), 4);
        assert_eq!(m.stride, 256);
        for c in &m.curves {
            // Latency never decreases with size (within tolerance).
            for w in c.points.windows(2) {
                assert!(w[1].1 >= w[0].1 * 0.9, "{}: {:?}", c.label, c.points);
            }
            assert!(c.dram_plateau_ns() > c.points[0].1);
        }
    }

    #[test]
    fn model_dram_latency_too_low() {
        // Fig. 4: "the DRAM memory latency was too low in the model".
        let m = latency();
        let (hw, model) = m.pair(Cluster::BigA15).unwrap();
        assert!(
            model.dram_plateau_ns() < hw.dram_plateau_ns() * 0.85,
            "model {} vs hw {}",
            model.dram_plateau_ns(),
            hw.dram_plateau_ns()
        );
        let (hw7, model7) = m.pair(Cluster::LittleA7).unwrap();
        assert!(model7.dram_plateau_ns() < hw7.dram_plateau_ns());
    }

    #[test]
    fn a7_model_l2_latency_too_high() {
        // Fig. 4: "the Cortex-A7 L2 cache latency was too high".
        let m = latency();
        let (hw, model) = m.pair(Cluster::LittleA7).unwrap();
        assert!(
            model.l2_plateau_ns() > hw.l2_plateau_ns() * 1.3,
            "model {} vs hw {}",
            model.l2_plateau_ns(),
            hw.l2_plateau_ns()
        );
    }

    #[test]
    fn a15_l2_close_between_hw_and_model() {
        // "the other measurements being very close".
        let m = latency();
        let (hw, model) = m.pair(Cluster::BigA15).unwrap();
        let rel = (model.l2_plateau_ns() - hw.l2_plateau_ns()).abs() / hw.l2_plateau_ns();
        assert!(rel < 0.25, "rel = {rel}");
    }
}
