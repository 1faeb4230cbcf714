//! Property-based tests for the workload generator.
//!
//! Each property runs on a fixed seed sequence (`rand::cases`); a failing
//! case prints its seed.

use gemstone_workloads::gen::StreamGen;
use gemstone_workloads::microbench::lat_mem_rd;
use gemstone_workloads::spec::{
    BranchBehavior, BranchSite, MemPattern, PhaseSpec, Suite, WorkloadSpec,
};
use gemstone_workloads::trace::PackedTrace;
use rand::cases::{for_each_case, Cases};

/// Cases per property.
const CASES: usize = 48;
/// The seed sequence every property draws from.
const SEED: u64 = 0x3E4_5EED;

fn arb_mem_pattern(g: &mut Cases) -> MemPattern {
    MemPattern {
        ws_bytes: g.range(1024, 8 << 20),
        stride: g.range(4, 512),
        random_frac: g.f64_in(0.0, 1.0),
        unaligned_frac: g.f64_in(0.0, 0.1),
        shared_frac: g.f64_in(0.0, 0.5),
        dependent: g.pick(&[false, true]),
    }
}

fn arb_branches(g: &mut Cases) -> Vec<BranchSite> {
    g.vec(1..4, |g| {
        let behavior = match g.below(4) {
            0 => BranchBehavior::Biased {
                taken_prob: g.f64_in(0.5, 1.0),
            },
            1 => BranchBehavior::Random {
                taken_prob: g.f64_in(0.0, 1.0),
            },
            2 => BranchBehavior::Pattern {
                bits: g.range(1, 256) as u32,
                len: g.range(2, 16) as u8,
            },
            _ => BranchBehavior::Loop {
                body: g.range(2, 128) as u16,
            },
        };
        BranchSite {
            behavior,
            weight: g.f64_in(0.05, 1.0),
        }
    })
}

fn arb_spec(g: &mut Cases) -> WorkloadSpec {
    let mem = arb_mem_pattern(g);
    let branches = arb_branches(g);
    let code_pages = g.range(1, 80) as u32;
    WorkloadSpec::builder("prop-wl", Suite::MiBench)
        .threads(g.pick(&[1, 4]))
        .instructions(g.range(2_000, 20_000))
        .seed(g.next())
        .tweak(|p: &mut PhaseSpec| {
            p.mem = mem;
            p.branches = branches;
            p.code_pages = code_pages;
        })
        .build()
}

/// Runs `property` on a generated workload spec per case.
fn for_each_spec(property: impl Fn(WorkloadSpec)) {
    for_each_case(CASES, SEED, |seed| {
        property(arb_spec(&mut Cases::new(seed)))
    });
}

#[test]
fn generator_is_deterministic_and_exact() {
    for_each_spec(|spec| {
        let a: Vec<_> = StreamGen::new(&spec).collect();
        let b: Vec<_> = StreamGen::new(&spec).collect();
        assert_eq!(&a, &b);
        // Exact count, possibly ± the trailing half of an exclusive pair.
        assert!(a.len() as u64 >= spec.instructions);
        assert!(a.len() as u64 <= spec.instructions + 1);
    });
}

#[test]
fn size_hint_stays_exact() {
    for_each_spec(|spec| {
        let mut gen = StreamGen::new(&spec);
        let mut expected = gen.len();
        while gen.next().is_some() {
            expected -= 1;
            assert_eq!(gen.size_hint(), (expected, Some(expected)));
        }
        assert_eq!(expected, 0);
    });
}

#[test]
fn packed_trace_round_trips_exactly() {
    for_each_spec(|spec| {
        let generated: Vec<_> = StreamGen::new(&spec).collect();
        let trace = PackedTrace::from_spec(&spec);
        assert_eq!(trace.len(), generated.len());
        let replayed: Vec<_> = trace.iter().collect();
        assert_eq!(replayed, generated);
    });
}

#[test]
fn addresses_stay_in_bounds() {
    for_each_spec(|spec| {
        let code_lo = 0x100u64; // CODE_BASE_PAGE
        let code_hi = code_lo + u64::from(spec.phases[0].code_pages.max(1));
        for i in StreamGen::new(&spec) {
            assert!(
                (code_lo..code_hi).contains(&i.page()),
                "pc page {:#x} outside [{:#x},{:#x})",
                i.page(),
                code_lo,
                code_hi
            );
            if let Some(m) = i.mem {
                // Data addresses live in the data segment, within ws (+ one
                // unaligned spill-over line).
                assert!(m.vaddr >= (1 << 30));
                assert!(m.vaddr < (1 << 30) + spec.phases[0].mem.ws_bytes + 4096);
            }
        }
    });
}

#[test]
fn branch_metadata_is_consistent() {
    for_each_spec(|spec| {
        for i in StreamGen::new(&spec) {
            if i.class.is_branch() {
                assert!(i.branch.is_some());
                assert!(i.mem.is_none());
            } else if i.class.is_memory() {
                assert!(i.mem.is_some());
                assert!(i.branch.is_none());
            } else {
                assert!(i.mem.is_none() && i.branch.is_none());
            }
        }
    });
}

#[test]
fn seed_changes_stream() {
    for_each_case(CASES, SEED, |seed| {
        // Consecutive SplitMix64 draws never repeat.
        let mut g = Cases::new(seed);
        let (seed_a, seed_b) = (g.next(), g.next());
        let mk = |seed| {
            WorkloadSpec::builder("seeded", Suite::MiBench)
                .instructions(3_000)
                .seed(seed)
                .build()
        };
        let a: Vec<_> = StreamGen::new(&mk(seed_a)).collect();
        let b: Vec<_> = StreamGen::new(&mk(seed_b)).collect();
        assert_ne!(a, b);
    });
}

#[test]
fn lat_mem_rd_stays_in_array() {
    for_each_case(CASES, SEED, |seed| {
        let mut g = Cases::new(seed);
        let size = 1u64 << g.range(12, 24);
        let stride = g.range(8, 1024);
        let n = g.range(10, 500);
        let stream = lat_mem_rd(size, stride, n);
        assert_eq!(stream.len() as u64, n * 2);
        for i in stream.step_by(2) {
            let m = i.mem.unwrap();
            assert!(m.vaddr >= (1 << 31) && m.vaddr < (1 << 31) + size);
            assert!(m.dependent);
        }
    });
}
