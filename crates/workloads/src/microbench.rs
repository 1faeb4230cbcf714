//! `lmbench`-style micro-benchmarks.
//!
//! The paper's Fig. 4 measures memory-hierarchy latency with `lat_mem_rd`
//! at a stride of 256 bytes: a serial pointer chase over an array of a
//! given size, so each load's latency is fully exposed. Sweeping the array
//! size walks the curve through the L1, L2 and DRAM plateaus — on hardware
//! and on the model — revealing the model's low DRAM latency and (for the
//! A7 model) the too-high L2 latency.
//!
//! # Examples
//!
//! ```
//! use gemstone_workloads::microbench::lat_mem_rd;
//!
//! let stream = lat_mem_rd(64 * 1024, 256, 1_000);
//! // One dependent load and one loop branch per access.
//! assert_eq!(stream.len(), 2_000);
//! ```

use gemstone_uarch::instr::{BranchRef, Instr, InstrClass, MemRef};

/// Base address of the chased array.
const ARRAY_BASE: u64 = 1 << 31;
/// PC of the two-instruction chase loop.
const LOOP_PC: u64 = 0x20_0000;

/// Streams the `lat_mem_rd` instructions: `accesses` serially dependent
/// loads striding through `size_bytes` of memory, each followed by the
/// loop back-edge branch. The stream is generated lazily, so a run holds
/// no instruction buffer however many accesses it chases.
///
/// # Panics
///
/// Panics if `size_bytes == 0` or `stride == 0`.
pub fn lat_mem_rd(
    size_bytes: u64,
    stride: u64,
    accesses: u64,
) -> impl ExactSizeIterator<Item = Instr> {
    assert!(size_bytes > 0, "array size must be positive");
    assert!(stride > 0, "stride must be positive");
    let mut offset = 0u64;
    (0..accesses as usize * 2).map(move |k| {
        if k % 2 == 0 {
            let load = Instr::mem(
                InstrClass::Load,
                LOOP_PC,
                MemRef::load(ARRAY_BASE + offset, 4).with_dependent(true),
            );
            offset = (offset + stride) % size_bytes;
            load
        } else {
            Instr::branch(
                InstrClass::Branch,
                LOOP_PC + 4,
                BranchRef {
                    static_id: 0x4D45_u32, // 'ME'
                    taken: (k / 2) as u64 + 1 < accesses,
                    target_page: LOOP_PC >> 12,
                },
            )
        }
    })
}

/// The array sizes (bytes) swept by the Fig. 4 experiment: 4 KiB – 32 MiB,
/// doubling.
pub fn fig4_sizes() -> Vec<u64> {
    (12..=25).map(|p| 1u64 << p).collect()
}

/// An operation-latency micro-benchmark (`lat_ops` style): a serial chain
/// of `count` operations of one class, bracketed by loop branches. The
/// measured cycles-per-op exposes the configured operation latencies —
/// the paper's "operation latency" checks alongside Fig. 4.
///
/// # Panics
///
/// Panics when `class` is a memory or branch class (use [`lat_mem_rd`] /
/// the branch benchmarks for those).
pub fn op_latency(class: InstrClass, count: u64) -> Vec<Instr> {
    assert!(
        !class.is_memory() && !class.is_branch(),
        "op_latency covers ALU-class operations only"
    );
    let mut out = Vec::with_capacity(count as usize + count as usize / 64);
    for i in 0..count {
        out.push(Instr::alu(class, LOOP_PC + (i % 16) * 4));
        if i % 64 == 63 {
            out.push(Instr::branch(
                InstrClass::Branch,
                LOOP_PC + 64,
                BranchRef {
                    static_id: 0x4F50, // 'OP'
                    taken: i + 1 < count,
                    target_page: LOOP_PC >> 12,
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, Ex5Variant};
    use gemstone_uarch::core::Engine;

    /// Measured ns per access for a given array size on a config.
    fn latency_ns(cfg: gemstone_uarch::core::CoreConfig, size: u64) -> f64 {
        let stream = lat_mem_rd(size, 256, 40_000);
        let n = stream.len() as f64 / 2.0;
        let mut e = Engine::new(cfg, &[1.0e9], 1);
        let r = e.run(stream).remove(0);
        r.seconds * 1e9 / n
    }

    #[test]
    fn latency_curve_has_plateaus() {
        // L1-resident (16 KiB) ≪ L2-resident (256 KiB) ≪ DRAM (32 MiB).
        let l1 = latency_ns(cortex_a15_hw(), 16 * 1024);
        let l2 = latency_ns(cortex_a15_hw(), 256 * 1024);
        let dram = latency_ns(cortex_a15_hw(), 32 * 1024 * 1024);
        assert!(l1 < l2, "l1 {l1} l2 {l2}");
        assert!(l2 < dram, "l2 {l2} dram {dram}");
        // The DRAM plateau reflects the ~100 ns configured latency.
        assert!(dram > 60.0 && dram < 200.0, "dram plateau {dram}");
    }

    #[test]
    fn model_dram_latency_lower_than_hw() {
        let hw = latency_ns(cortex_a15_hw(), 32 * 1024 * 1024);
        let model = latency_ns(ex5_big(Ex5Variant::Fixed), 32 * 1024 * 1024);
        assert!(
            model < hw * 0.85,
            "model {model} should be well below hw {hw}"
        );
    }

    /// The buffered generator `lat_mem_rd` replaced, kept as the oracle
    /// for the lazy stream.
    fn lat_mem_rd_reference(size_bytes: u64, stride: u64, accesses: u64) -> Vec<Instr> {
        let mut out = Vec::with_capacity(accesses as usize * 2);
        let mut offset = 0u64;
        for i in 0..accesses {
            out.push(Instr::mem(
                InstrClass::Load,
                LOOP_PC,
                MemRef::load(ARRAY_BASE + offset, 4).with_dependent(true),
            ));
            offset = (offset + stride) % size_bytes;
            out.push(Instr::branch(
                InstrClass::Branch,
                LOOP_PC + 4,
                BranchRef {
                    static_id: 0x4D45_u32,
                    taken: i + 1 < accesses,
                    target_page: LOOP_PC >> 12,
                },
            ));
        }
        out
    }

    #[test]
    fn lazy_stream_matches_the_buffered_reference() {
        for (size, stride, accesses) in [
            (4096, 256, 0),
            (4096, 256, 1),
            (4096, 256, 37),
            (1000, 96, 500),
            (1 << 25, 256, 3_000),
            (64, 1024, 9),
        ] {
            let stream = lat_mem_rd(size, stride, accesses);
            assert_eq!(stream.len() as u64, accesses * 2);
            let lazy: Vec<Instr> = stream.collect();
            assert_eq!(
                lazy,
                lat_mem_rd_reference(size, stride, accesses),
                "size {size} stride {stride} accesses {accesses}"
            );
        }
        let mut it = lat_mem_rd(4096, 256, 5);
        it.next();
        assert_eq!(it.len(), 9);
    }

    #[test]
    fn stream_shape() {
        let s: Vec<Instr> = lat_mem_rd(4096, 256, 10).collect();
        assert_eq!(s.len(), 20);
        // Loads all dependent and within the array.
        for i in s.iter().step_by(2) {
            let m = i.mem.expect("load");
            assert!(m.dependent);
            assert!(m.vaddr >= ARRAY_BASE && m.vaddr < ARRAY_BASE + 4096);
        }
        // Final branch falls through (loop exit).
        assert!(!s.last().unwrap().branch.unwrap().taken);
    }

    #[test]
    fn fig4_size_sweep() {
        let sizes = fig4_sizes();
        assert_eq!(sizes.first(), Some(&4096));
        assert_eq!(sizes.last(), Some(&(32 * 1024 * 1024)));
        for w in sizes.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn op_latency_orders_operation_classes() {
        // Divides cost more than multiplies cost more than adds, on both
        // core types; and the little core pays more for everything.
        let cycles_per_op = |cfg: gemstone_uarch::core::CoreConfig, class: InstrClass| {
            let stream = op_latency(class, 20_000);
            let mut e = Engine::new(cfg, &[1.0e9], 1);
            let r = e.run(stream.into_iter()).remove(0);
            r.cycles / 20_000.0
        };
        for cfg in [cortex_a15_hw(), cortex_a7_hw()] {
            let add = cycles_per_op(cfg.clone(), InstrClass::IntAlu);
            let mul = cycles_per_op(cfg.clone(), InstrClass::IntMul);
            let div = cycles_per_op(cfg.clone(), InstrClass::IntDiv);
            let fdiv = cycles_per_op(cfg.clone(), InstrClass::FpDiv);
            assert!(add < mul && mul < div, "{}: {add} {mul} {div}", cfg.name);
            assert!(fdiv > div, "{}: fdiv {fdiv} vs div {div}", cfg.name);
        }
        let a15 = cycles_per_op(cortex_a15_hw(), InstrClass::IntDiv);
        let a7 = cycles_per_op(cortex_a7_hw(), InstrClass::IntDiv);
        assert!(a7 > a15, "A7 divide {a7} vs A15 {a15}");
    }

    #[test]
    #[should_panic(expected = "ALU-class")]
    fn op_latency_rejects_memory_classes() {
        op_latency(InstrClass::Load, 10);
    }
}
