//! The 65 named workloads of the paper's experimental setup (§III), grouped
//! by suite, plus the 45-workload gem5-validation subset.
//!
//! The specs form one catalogue, built once per process on first use:
//! [`power_suite`] is the whole catalogue, [`validation_suite`] its first
//! 45 entries, and [`by_name`] a lookup in it. Callers borrow the shared
//! specs and clone or [`WorkloadSpec::scaled`] them when they need their
//! own.
//!
//! Workload parameters are chosen so the set spans the behavioural axes the
//! paper's HCA clusters occupy: integer/crypto kernels, loop-pattern
//! codes, image streaming, floating-point kernels, pointer chasing,
//! large-code branchy programs, streaming memory hogs and concurrent
//! (4-thread) variants with barriers/exclusives/shared data.
//! `par-basicmath-rad2deg` carries a dominant alternating branch pattern —
//! the paper's pathological Cluster-16 workload (hardware BP accuracy
//! 99.9 %, old `ex5_big` model 0.86 %).
//!
//! # Catalogue
//!
//! | family | workloads | character |
//! |---|---|---|
//! | crypto / tight integer | `mi-sha`, `mi-crc32`, `mi-blowfish-enc`, `par-sha`, `rl-intrate`, `rl-dhry2`, `dhry-dhrystone` | tiny working sets, loop-dominated, highly predictable branches |
//! | loop-pattern integer | `mi-bitcount`, `par-bitcount`, `mi-stringsearch`, `par-stringsearch` | periodic branch patterns (the buggy predictor's worst case) |
//! | image / media streaming | `mi-susan-*`, `mi-jpeg-*`, `par-susan-edges`, `rl-neonspeed` | strided streaming + multiply/SIMD |
//! | floating point | `mi-fft`, `mi-fft-inv`, `mi-basicmath`, `par-basicmath-*`, `whet-whetstone`, `rl-whets-*`, `rl-linpack`, `rl-livermore`, `parsec-blackscholes/swaptions` | VFP-heavy with loop nests |
//! | pointer chasing | `mi-dijkstra`, `mi-patricia`, `par-dijkstra`, `par-patricia`, `parsec-canneal`, `lm-lat-mem-rd-*` | dependent random loads, DTLB pressure |
//! | large-code branchy | `mi-typeset`, `parsec-ferret/bodytrack/freqmine/dedup` | 36–72-page code footprints, ITLB pressure, mixed branches |
//! | memory bandwidth | `lm-bw-mem-*`, `rl-memspeed-*`, `rl-busspeed`, `parsec-streamcluster/fluidanimate` | large-working-set streaming |
//! | concurrent (4 threads) | every `par-*` and `parsec-*-4` | barriers, exclusives, shared data, coherence traffic |
//!
//! # Examples
//!
//! ```
//! use gemstone_workloads::suites::{by_name, validation_suite};
//!
//! assert!(by_name("par-basicmath-rad2deg").is_some());
//! assert_eq!(validation_suite().len(), 45);
//! ```

use crate::spec::{BranchBehavior, BranchSite, InstrMix, MemPattern, Suite, WorkloadSpec};
use std::sync::OnceLock;

const KB: u64 = 1024;
const MB: u64 = 1024 * 1024;

fn site(behavior: BranchBehavior, weight: f64) -> BranchSite {
    BranchSite { behavior, weight }
}

fn biased(p: f64, w: f64) -> BranchSite {
    site(BranchBehavior::Biased { taken_prob: p }, w)
}

fn pattern(bits: u32, len: u8, w: f64) -> BranchSite {
    site(BranchBehavior::Pattern { bits, len }, w)
}

fn looped(body: u16, w: f64) -> BranchSite {
    site(BranchBehavior::Loop { body }, w)
}

fn random(p: f64, w: f64) -> BranchSite {
    site(BranchBehavior::Random { taken_prob: p }, w)
}

/// Standard per-run instruction budget. Callers can rescale with
/// [`WorkloadSpec::scaled`].
pub const DEFAULT_INSTRUCTIONS: u64 = 200_000;

fn wl(
    name: &str,
    suite: Suite,
    threads: u32,
    f: impl FnOnce(&mut crate::spec::PhaseSpec),
) -> WorkloadSpec {
    WorkloadSpec::builder(name, suite)
        .threads(threads)
        .instructions(DEFAULT_INSTRUCTIONS)
        .tweak(f)
        .build()
}

/// Adds 4-thread concurrency features to a phase (barriers, exclusives,
/// shared data).
fn concurrent(p: &mut crate::spec::PhaseSpec) {
    p.mix.barrier = 0.004;
    p.mix.exclusive = 0.006;
    p.mem.shared_frac = 0.3;
}

// ---------------------------------------------------------------------------
// MiBench (17)
// ---------------------------------------------------------------------------

fn mibench() -> Vec<WorkloadSpec> {
    vec![
        wl("mi-susan-smoothing", Suite::MiBench, 1, |p| {
            p.mix.int_mul = 0.08;
            p.mix.load = 0.30;
            p.mix.store = 0.12;
            p.mix.branch = 0.08;
            p.mem = MemPattern::streaming(2 * MB, 4);
            p.branches = vec![biased(0.99, 0.8), looped(64, 0.2)];
            p.code_pages = 22;
        }),
        wl("mi-susan-edges", Suite::MiBench, 1, |p| {
            p.mix.int_mul = 0.10;
            p.mix.load = 0.28;
            p.mix.branch = 0.10;
            p.mem = MemPattern::streaming(2 * MB, 4);
            p.branches = vec![
                biased(0.99, 0.5),
                pattern(0b00_1101, 6, 0.53),
                looped(32, 0.2),
            ];
            p.code_pages = 26;
        }),
        wl("mi-susan-corners", Suite::MiBench, 1, |p| {
            p.mix.int_mul = 0.09;
            p.mix.load = 0.26;
            p.mix.branch = 0.12;
            p.mem = MemPattern::streaming(MB, 4);
            p.branches = vec![biased(0.99, 0.4), pattern(0b011, 3, 0.7), looped(16, 0.2)];
            p.code_pages = 26;
        }),
        wl("mi-jpeg-encode", Suite::MiBench, 1, |p| {
            p.mix.simd = 0.10;
            p.mix.int_mul = 0.06;
            p.mix.load = 0.26;
            p.mix.store = 0.12;
            p.mem = MemPattern::streaming(4 * MB, 8);
            p.branches = vec![looped(64, 0.5), biased(0.99, 0.3), pattern(0b0111, 4, 0.35)];
            p.code_pages = 40;
        }),
        wl("mi-jpeg-decode", Suite::MiBench, 1, |p| {
            p.mix.simd = 0.12;
            p.mix.load = 0.28;
            p.mix.store = 0.14;
            p.mem = MemPattern::streaming(4 * MB, 8);
            p.branches = vec![looped(64, 0.5), biased(0.99, 0.35), pattern(0b01, 2, 0.26)];
            p.code_pages = 36;
        }),
        wl("mi-typeset", Suite::MiBench, 1, |p| {
            // Large code footprint, data-dependent branching: ITLB/L1I heavy.
            p.mix.branch = 0.19;
            p.mix.indirect = 0.02;
            p.mix.call = 0.05;
            p.mix.load = 0.26;
            p.mem = MemPattern {
                ws_bytes: 8 * MB,
                stride: 32,
                random_frac: 0.5,
                unaligned_frac: 0.01,
                shared_frac: 0.0,
                dependent: false,
            };
            p.branches = vec![
                pattern(0b0110, 4, 0.75),
                biased(0.99, 0.45),
                random(0.55, 0.02),
            ];
            p.code_pages = 72;
        }),
        wl("mi-dijkstra", Suite::MiBench, 1, |p| {
            p.mix.load = 0.30;
            p.mix.branch = 0.17;
            p.mem = MemPattern::pointer_chase(4 * MB);
            p.branches = vec![
                biased(0.99, 0.4),
                pattern(0b0101_1010, 8, 0.75),
                random(0.6, 0.02),
            ];
            p.code_pages = 20;
        }),
        wl("mi-patricia", Suite::MiBench, 1, |p| {
            p.mix.load = 0.32;
            p.mix.branch = 0.18;
            p.mix.indirect = 0.015;
            p.mem = MemPattern::pointer_chase(8 * MB);
            p.branches = vec![
                pattern(0b01_1011, 6, 0.75),
                biased(0.99, 0.4),
                random(0.5, 0.02),
            ];
            p.code_pages = 36;
        }),
        wl("mi-stringsearch", Suite::MiBench, 1, |p| {
            p.mix.branch = 0.22;
            p.mix.load = 0.30;
            p.mem = MemPattern::streaming(512 * KB, 1);
            p.branches = vec![
                pattern(0b0011, 4, 0.75),
                biased(0.99, 0.35),
                random(0.5, 0.02),
            ];
            p.code_pages = 18;
        }),
        wl("mi-blowfish-enc", Suite::MiBench, 1, |p| {
            p.mix.int_alu = 0.55;
            p.mix.load = 0.22;
            p.mix.branch = 0.08;
            p.mem = MemPattern::streaming(16 * KB, 4);
            p.branches = vec![looped(16, 0.7), biased(0.97, 0.3)];
            p.code_pages = 3;
        }),
        wl("mi-sha", Suite::MiBench, 1, |p| {
            p.mix.int_alu = 0.60;
            p.mix.load = 0.18;
            p.mix.branch = 0.07;
            p.mem = MemPattern::streaming(8 * KB, 4);
            p.branches = vec![looped(80, 0.8), biased(0.99, 0.2)];
            p.code_pages = 2;
        }),
        wl("mi-crc32", Suite::MiBench, 1, |p| {
            p.mix.int_alu = 0.52;
            p.mix.load = 0.26;
            p.mix.branch = 0.10;
            p.mem = MemPattern::streaming(MB, 1);
            p.branches = vec![looped(128, 0.9), biased(0.99, 0.1)];
            p.code_pages = 1;
        }),
        wl("mi-fft", Suite::MiBench, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mem = MemPattern::streaming(512 * KB, 8);
            p.branches = vec![looped(32, 0.6), pattern(0b01, 2, 0.44), biased(0.99, 0.15)];
            p.code_pages = 20;
        }),
        wl("mi-fft-inv", Suite::MiBench, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.fp_div = 0.03;
            p.mem = MemPattern::streaming(512 * KB, 8);
            p.branches = vec![looped(32, 0.6), pattern(0b10, 2, 0.44), biased(0.99, 0.15)];
            p.code_pages = 20;
        }),
        wl("mi-gsm-enc", Suite::MiBench, 1, |p| {
            p.mix.int_alu = 0.46;
            p.mix.int_mul = 0.08;
            p.mix.load = 0.22;
            p.mem = MemPattern::streaming(256 * KB, 4);
            p.branches = vec![
                looped(40, 0.5),
                pattern(0b0011, 4, 0.44),
                biased(0.99, 0.25),
            ];
            p.code_pages = 22;
        }),
        wl("mi-bitcount", Suite::MiBench, 1, |p| {
            p.mix.int_alu = 0.58;
            p.mix.branch = 0.16;
            p.mix.load = 0.12;
            p.mem = MemPattern::streaming(8 * KB, 4);
            p.branches = vec![
                pattern(0b0110_1001, 8, 0.75),
                looped(8, 0.35),
                biased(0.99, 0.1),
            ];
            p.code_pages = 2;
        }),
        wl("mi-basicmath", Suite::MiBench, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.fp_div = 0.05;
            p.mix.int_div = 0.01;
            p.mem = MemPattern::streaming(32 * KB, 8);
            p.branches = vec![looped(16, 0.5), pattern(0b01, 2, 0.53), biased(0.99, 0.2)];
            p.code_pages = 3;
        }),
    ]
}

// ---------------------------------------------------------------------------
// ParMiBench (8) — four-thread parallel variants.
// ---------------------------------------------------------------------------

fn parmibench() -> Vec<WorkloadSpec> {
    vec![
        // The paper's pathological Cluster-16 workload: a tight
        // angle-conversion loop whose dominant branch alternates every
        // iteration. A correct predictor is near-perfect; the buggy
        // stale-history predictor systematically inverts it.
        wl("par-basicmath-rad2deg", Suite::ParMiBench, 4, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.fp_div = 0.04;
            p.mix.branch = 0.20;
            p.mem = MemPattern::streaming(16 * KB, 8);
            p.branches = vec![pattern(0b01, 2, 0.9), biased(0.99, 0.1)];
            p.code_pages = 2;
            concurrent(p);
        }),
        wl("par-basicmath-cubic", Suite::ParMiBench, 4, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.fp_div = 0.06;
            p.mem = MemPattern::streaming(32 * KB, 8);
            p.branches = vec![looped(12, 0.5), pattern(0b0011, 4, 0.53), biased(0.99, 0.2)];
            p.code_pages = 3;
            concurrent(p);
        }),
        wl("par-bitcount", Suite::ParMiBench, 4, |p| {
            p.mix.int_alu = 0.55;
            p.mix.branch = 0.16;
            p.mem = MemPattern::streaming(8 * KB, 4);
            p.branches = vec![
                pattern(0b0110_1001, 8, 0.75),
                looped(8, 0.4),
                biased(0.99, 0.1),
            ];
            p.code_pages = 2;
            concurrent(p);
        }),
        wl("par-susan-edges", Suite::ParMiBench, 4, |p| {
            p.mix.int_mul = 0.10;
            p.mix.load = 0.28;
            p.mem = MemPattern::streaming(2 * MB, 4);
            p.branches = vec![
                biased(0.99, 0.5),
                pattern(0b00_1101, 6, 0.53),
                looped(32, 0.2),
            ];
            p.code_pages = 26;
            concurrent(p);
        }),
        wl("par-dijkstra", Suite::ParMiBench, 4, |p| {
            p.mix.load = 0.30;
            p.mix.branch = 0.17;
            p.mem = MemPattern::pointer_chase(4 * MB);
            p.branches = vec![
                biased(0.99, 0.4),
                pattern(0b0101_1010, 8, 0.75),
                random(0.6, 0.02),
            ];
            p.code_pages = 20;
            concurrent(p);
        }),
        wl("par-patricia", Suite::ParMiBench, 4, |p| {
            p.mix.load = 0.32;
            p.mix.branch = 0.18;
            p.mem = MemPattern::pointer_chase(8 * MB);
            p.branches = vec![
                pattern(0b01_1011, 6, 0.75),
                biased(0.99, 0.4),
                random(0.5, 0.02),
            ];
            p.code_pages = 36;
            concurrent(p);
        }),
        wl("par-stringsearch", Suite::ParMiBench, 4, |p| {
            p.mix.branch = 0.22;
            p.mix.load = 0.30;
            p.mem = MemPattern::streaming(512 * KB, 1);
            p.branches = vec![
                pattern(0b0011, 4, 0.75),
                biased(0.99, 0.35),
                random(0.5, 0.02),
            ];
            p.code_pages = 18;
            concurrent(p);
        }),
        wl("par-sha", Suite::ParMiBench, 4, |p| {
            p.mix.int_alu = 0.58;
            p.mix.load = 0.18;
            p.mem = MemPattern::streaming(8 * KB, 4);
            p.branches = vec![looped(80, 0.8), biased(0.99, 0.2)];
            p.code_pages = 2;
            concurrent(p);
        }),
    ]
}

// ---------------------------------------------------------------------------
// PARSEC (9 apps × {1, 4} threads = 18)
// ---------------------------------------------------------------------------

fn parsec_app(name: &str, threads: u32) -> WorkloadSpec {
    let full = format!("parsec-{name}-{threads}");
    let mt = threads > 1;
    wl(&full, Suite::Parsec, threads, |p| {
        match name {
            "blackscholes" => {
                p.mix = InstrMix::fp_baseline();
                p.mix.fp_div = 0.04;
                p.mem = MemPattern::streaming(2 * MB, 8);
                p.branches = vec![biased(0.99, 0.7), looped(24, 0.3)];
                p.code_pages = 18;
            }
            "bodytrack" => {
                p.mix = InstrMix::fp_baseline();
                p.mix.branch = 0.14;
                p.mem = MemPattern {
                    ws_bytes: 8 * MB,
                    stride: 16,
                    random_frac: 0.35,
                    unaligned_frac: 0.005,
                    shared_frac: 0.0,
                    dependent: false,
                };
                p.branches = vec![
                    pattern(0b0110_0101, 8, 0.7),
                    looped(20, 0.3),
                    biased(0.99, 0.2),
                    random(0.6, 0.02),
                ];
                p.code_pages = 44;
            }
            "canneal" => {
                p.mix.load = 0.34;
                p.mix.branch = 0.14;
                p.mem = MemPattern::pointer_chase(48 * MB);
                p.branches = vec![
                    random(0.5, 0.04),
                    pattern(0b0011, 4, 0.7),
                    biased(0.99, 0.45),
                ];
                p.code_pages = 38;
            }
            "dedup" => {
                p.mix.int_alu = 0.46;
                p.mix.int_mul = 0.04;
                p.mix.load = 0.26;
                p.mix.store = 0.12;
                p.mem = MemPattern {
                    ws_bytes: 24 * MB,
                    stride: 64,
                    random_frac: 0.5,
                    unaligned_frac: 0.03,
                    shared_frac: 0.0,
                    dependent: false,
                };
                p.branches = vec![
                    pattern(0b0100_1101, 8, 0.7),
                    biased(0.99, 0.5),
                    random(0.55, 0.02),
                ];
                p.code_pages = 40;
            }
            "ferret" => {
                p.mix = InstrMix::fp_baseline();
                p.mix.branch = 0.13;
                p.mix.indirect = 0.01;
                p.mix.call = 0.04;
                p.mem = MemPattern {
                    ws_bytes: 16 * MB,
                    stride: 16,
                    random_frac: 0.4,
                    unaligned_frac: 0.0,
                    shared_frac: 0.0,
                    dependent: false,
                };
                p.branches = vec![
                    pattern(0b0101_0110, 8, 0.61),
                    biased(0.99, 0.4),
                    looped(12, 0.15),
                    random(0.6, 0.02),
                ];
                p.code_pages = 56;
            }
            "fluidanimate" => {
                p.mix = InstrMix::fp_baseline();
                p.mix.fp_div = 0.025;
                p.mem = MemPattern::streaming(24 * MB, 16);
                p.branches = vec![biased(0.99, 0.6), looped(16, 0.4)];
                p.code_pages = 30;
            }
            "freqmine" => {
                p.mix.int_alu = 0.44;
                p.mix.branch = 0.19;
                p.mix.load = 0.26;
                p.mem = MemPattern {
                    ws_bytes: 24 * MB,
                    stride: 16,
                    random_frac: 0.6,
                    unaligned_frac: 0.0,
                    shared_frac: 0.0,
                    dependent: true,
                };
                p.branches = vec![
                    pattern(0b0101_0011, 8, 0.75),
                    biased(0.99, 0.4),
                    random(0.5, 0.02),
                ];
                p.code_pages = 44;
            }
            "streamcluster" => {
                p.mix = InstrMix::fp_baseline();
                p.mix.load = 0.30;
                p.mem = MemPattern::streaming(48 * MB, 4);
                p.branches = vec![biased(0.99, 0.7), looped(48, 0.3)];
                p.code_pages = 20;
            }
            "swaptions" => {
                p.mix = InstrMix::fp_baseline();
                p.mix.fp_div = 0.035;
                p.mem = MemPattern::streaming(512 * KB, 8);
                p.branches = vec![biased(0.99, 0.6), looped(20, 0.25), pattern(0b01, 2, 0.26)];
                p.code_pages = 22;
            }
            other => unreachable!("unknown PARSEC app {other}"),
        }
        if mt {
            concurrent(p);
        }
    })
}

fn parsec() -> Vec<WorkloadSpec> {
    let apps = [
        "blackscholes",
        "bodytrack",
        "canneal",
        "dedup",
        "ferret",
        "fluidanimate",
        "freqmine",
        "streamcluster",
        "swaptions",
    ];
    let mut out = Vec::new();
    for app in apps {
        out.push(parsec_app(app, 1));
        out.push(parsec_app(app, 4));
    }
    out
}

// ---------------------------------------------------------------------------
// Dhrystone & Whetstone (2)
// ---------------------------------------------------------------------------

fn classics() -> Vec<WorkloadSpec> {
    vec![
        wl("dhry-dhrystone", Suite::Dhrystone, 1, |p| {
            p.mix.int_alu = 0.48;
            p.mix.branch = 0.15;
            p.mix.call = 0.05;
            p.mix.load = 0.20;
            p.mem = MemPattern::streaming(4 * KB, 4);
            p.branches = vec![biased(0.99, 0.4), looped(10, 0.3), pattern(0b0101, 4, 0.53)];
            p.code_pages = 3;
        }),
        wl("whet-whetstone", Suite::Whetstone, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.fp_div = 0.05;
            p.mix.fp_alu = 0.36;
            p.mem = MemPattern::streaming(8 * KB, 8);
            p.branches = vec![looped(32, 0.7), biased(0.99, 0.3)];
            p.code_pages = 3;
        }),
    ]
}

// ---------------------------------------------------------------------------
// LMBench (10) — power-modelling extras.
// ---------------------------------------------------------------------------

fn lmbench() -> Vec<WorkloadSpec> {
    let lat = |name: &str, ws: u64| {
        wl(name, Suite::LmBench, 1, move |p| {
            p.mix.load = 0.48;
            p.mix.int_alu = 0.30;
            p.mix.branch = 0.12;
            p.mix.store = 0.02;
            p.mem = MemPattern::pointer_chase(ws);
            p.branches = vec![looped(256, 1.0)];
            p.code_pages = 1;
        })
    };
    vec![
        lat("lm-lat-mem-rd-16k", 16 * KB),
        lat("lm-lat-mem-rd-128k", 128 * KB),
        lat("lm-lat-mem-rd-1m", MB),
        lat("lm-lat-mem-rd-8m", 8 * MB),
        lat("lm-lat-mem-rd-32m", 32 * MB),
        wl("lm-bw-mem-rd", Suite::LmBench, 1, |p| {
            p.mix.load = 0.60;
            p.mix.int_alu = 0.25;
            p.mix.branch = 0.08;
            p.mem = MemPattern::streaming(32 * MB, 64);
            p.branches = vec![looped(512, 1.0)];
            p.code_pages = 1;
        }),
        wl("lm-bw-mem-wr", Suite::LmBench, 1, |p| {
            p.mix.store = 0.55;
            p.mix.load = 0.05;
            p.mix.int_alu = 0.25;
            p.mem = MemPattern::streaming(32 * MB, 64);
            p.branches = vec![looped(512, 1.0)];
            p.code_pages = 1;
        }),
        wl("lm-bw-mem-cp", Suite::LmBench, 1, |p| {
            p.mix.load = 0.32;
            p.mix.store = 0.30;
            p.mix.int_alu = 0.22;
            p.mem = MemPattern::streaming(32 * MB, 64);
            p.branches = vec![looped(512, 1.0)];
            p.code_pages = 1;
        }),
        wl("lm-lat-ops-int", Suite::LmBench, 1, |p| {
            p.mix.int_alu = 0.50;
            p.mix.int_mul = 0.20;
            p.mix.int_div = 0.10;
            p.mix.load = 0.05;
            p.mix.store = 0.02;
            p.mem = MemPattern::streaming(4 * KB, 4);
            p.branches = vec![looped(1024, 1.0)];
            p.code_pages = 1;
        }),
        wl("lm-lat-ops-fp", Suite::LmBench, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.fp_div = 0.12;
            p.mix.fp_alu = 0.45;
            p.mix.load = 0.05;
            p.mem = MemPattern::streaming(4 * KB, 8);
            p.branches = vec![looped(1024, 1.0)];
            p.code_pages = 1;
        }),
    ]
}

// ---------------------------------------------------------------------------
// Roy Longbottom collection (10) — power-modelling extras.
// ---------------------------------------------------------------------------

fn longbottom() -> Vec<WorkloadSpec> {
    vec![
        wl("rl-dhry2", Suite::RoyLongbottom, 1, |p| {
            p.mix.int_alu = 0.50;
            p.mix.branch = 0.14;
            p.mix.call = 0.04;
            p.mem = MemPattern::streaming(4 * KB, 4);
            p.branches = vec![biased(0.99, 0.6), looped(10, 0.4)];
            p.code_pages = 3;
        }),
        wl("rl-whets-sp", Suite::RoyLongbottom, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.fp_alu = 0.40;
            p.mem = MemPattern::streaming(8 * KB, 4);
            p.branches = vec![looped(32, 0.8), biased(0.99, 0.2)];
            p.code_pages = 2;
        }),
        wl("rl-whets-dp", Suite::RoyLongbottom, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.fp_alu = 0.38;
            p.mix.fp_div = 0.06;
            p.mem = MemPattern::streaming(16 * KB, 8);
            p.branches = vec![looped(32, 0.8), biased(0.99, 0.2)];
            p.code_pages = 2;
        }),
        wl("rl-linpack", Suite::RoyLongbottom, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.fp_alu = 0.36;
            p.mix.load = 0.28;
            p.mem = MemPattern::streaming(MB, 8);
            p.branches = vec![looped(100, 0.9), biased(0.99, 0.1)];
            p.code_pages = 2;
        }),
        wl("rl-livermore", Suite::RoyLongbottom, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.load = 0.26;
            p.mem = MemPattern::streaming(2 * MB, 16);
            p.branches = vec![looped(64, 0.85), pattern(0b0101, 4, 0.26)];
            p.code_pages = 18;
        }),
        wl("rl-memspeed-int", Suite::RoyLongbottom, 1, |p| {
            p.mix.load = 0.44;
            p.mix.store = 0.18;
            p.mix.int_alu = 0.24;
            p.mem = MemPattern::streaming(16 * MB, 32);
            p.branches = vec![looped(256, 1.0)];
            p.code_pages = 1;
        }),
        wl("rl-memspeed-fp", Suite::RoyLongbottom, 1, |p| {
            p.mix = InstrMix::fp_baseline();
            p.mix.load = 0.36;
            p.mix.store = 0.14;
            p.mem = MemPattern::streaming(16 * MB, 32);
            p.branches = vec![looped(256, 1.0)];
            p.code_pages = 1;
        }),
        wl("rl-busspeed", Suite::RoyLongbottom, 1, |p| {
            p.mix.load = 0.55;
            p.mix.int_alu = 0.25;
            p.mem = MemPattern::streaming(64 * MB, 256);
            p.branches = vec![looped(512, 1.0)];
            p.code_pages = 1;
        }),
        wl("rl-neonspeed", Suite::RoyLongbottom, 1, |p| {
            p.mix.simd = 0.40;
            p.mix.load = 0.24;
            p.mix.store = 0.10;
            p.mix.int_alu = 0.16;
            p.mem = MemPattern::streaming(4 * MB, 16);
            p.branches = vec![looped(128, 1.0)];
            p.code_pages = 1;
        }),
        wl("rl-intrate", Suite::RoyLongbottom, 1, |p| {
            p.mix.int_alu = 0.62;
            p.mix.int_mul = 0.08;
            p.mix.load = 0.10;
            p.mem = MemPattern::streaming(8 * KB, 4);
            p.branches = vec![looped(64, 0.8), biased(0.97, 0.2)];
            p.code_pages = 1;
        }),
    ]
}

/// Size of the gem5-validation set: the leading entries of the catalogue.
const VALIDATION_LEN: usize = 45;

/// The catalogue: all 65 specs, validation set first, built on first use
/// and shared by every later call.
fn catalogue() -> &'static [WorkloadSpec] {
    static CATALOGUE: OnceLock<Vec<WorkloadSpec>> = OnceLock::new();
    CATALOGUE.get_or_init(|| {
        let mut v = mibench();
        v.extend(parmibench());
        v.extend(parsec());
        v.extend(classics());
        debug_assert_eq!(v.len(), VALIDATION_LEN);
        v.extend(lmbench());
        v.extend(longbottom());
        v
    })
}

/// A run of the catalogue, as [`validation_suite`] and [`power_suite`]
/// return it: it derefs to the slice of specs and iterates them by
/// reference, so `&suite`, `suite.iter()` and `for w in suite` all read
/// the shared specs without copying them. It is a value rather than a
/// bare `&'static [WorkloadSpec]` so that callers written against the
/// former `Vec` return, such as `f(&suites::power_suite())`, still
/// compile, with a borrow that is needed rather than redundant.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSet(&'static [WorkloadSpec]);

impl std::ops::Deref for WorkloadSet {
    type Target = [WorkloadSpec];

    fn deref(&self) -> &[WorkloadSpec] {
        self.0
    }
}

impl IntoIterator for WorkloadSet {
    type Item = &'static WorkloadSpec;
    type IntoIter = std::slice::Iter<'static, WorkloadSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The 45-workload gem5-validation set (§III: MiBench + ParMiBench +
/// PARSEC 1t/4t + Dhrystone + Whetstone).
pub fn validation_suite() -> WorkloadSet {
    WorkloadSet(&catalogue()[..VALIDATION_LEN])
}

/// All 65 workloads (validation set + LMBench + Roy Longbottom) used for
/// power-model building (§V).
pub fn power_suite() -> WorkloadSet {
    WorkloadSet(catalogue())
}

/// Looks a workload up by its full name in the catalogue.
pub fn by_name(name: &str) -> Option<&'static WorkloadSpec> {
    catalogue().iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::StreamGen;
    use std::collections::HashSet;

    #[test]
    fn suite_sizes_match_paper() {
        assert_eq!(mibench().len(), 17);
        assert_eq!(parmibench().len(), 8);
        assert_eq!(parsec().len(), 18);
        assert_eq!(classics().len(), 2);
        assert_eq!(validation_suite().len(), 45);
        assert_eq!(power_suite().len(), 65);
    }

    #[test]
    fn names_unique_and_prefixed() {
        let all = power_suite();
        let names: HashSet<&str> = all.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names.len(), 65);
        for w in all {
            assert!(
                w.name.starts_with(w.suite.prefix()),
                "{} should start with {}",
                w.name,
                w.suite.prefix()
            );
        }
    }

    #[test]
    fn thread_counts() {
        let all = power_suite();
        for w in all {
            match w.suite {
                Suite::ParMiBench => assert_eq!(w.threads, 4, "{}", w.name),
                Suite::Parsec => {
                    let expect = if w.name.ends_with("-4") { 4 } else { 1 };
                    assert_eq!(w.threads, expect, "{}", w.name);
                }
                _ => assert_eq!(w.threads, 1, "{}", w.name),
            }
        }
    }

    #[test]
    fn every_workload_generates() {
        for w in power_suite() {
            let small = w.scaled(0.02); // 4000 instructions
            let n = StreamGen::new(&small).count() as u64;
            assert!(
                n >= small.instructions && n <= small.instructions + 1,
                "{}: generated {n}, wanted {}",
                w.name,
                small.instructions
            );
        }
    }

    #[test]
    fn pathological_workload_is_alternating_dominated() {
        let w = by_name("par-basicmath-rad2deg").unwrap();
        let alt_weight: f64 = w.phases[0]
            .branches
            .iter()
            .filter(|b| matches!(b.behavior, BranchBehavior::Pattern { len: 2, .. }))
            .map(|b| b.weight)
            .sum();
        let total: f64 = w.phases[0].branches.iter().map(|b| b.weight).sum();
        assert!(alt_weight / total > 0.8);
        assert_eq!(w.threads, 4);
    }

    #[test]
    fn by_name_miss_is_none() {
        assert!(by_name("not-a-workload").is_none());
        assert!(by_name("").is_none());
        assert!(by_name("mi-sha ").is_none(), "lookup is exact");
    }

    #[test]
    fn by_name_finds_an_equal_spec_for_every_power_suite_name() {
        for w in power_suite() {
            assert_eq!(by_name(&w.name), Some(w), "{}", w.name);
        }
    }

    #[test]
    fn validation_suite_is_the_power_suite_prefix() {
        assert_eq!(&validation_suite()[..], &power_suite()[..45]);
        // The same catalogue, not an equal copy.
        assert!(std::ptr::eq(&validation_suite()[..], &power_suite()[..45]));
    }

    #[test]
    fn lookups_share_one_catalogue_entry() {
        let a = by_name("mi-fft").unwrap();
        let b = by_name("mi-fft").unwrap();
        assert!(std::ptr::eq(a, b), "two lookups, one entry");
        assert!(power_suite().into_iter().any(|w| std::ptr::eq(w, a)));
        // A spec rebuilt from its builder equals the catalogue's entry.
        let rebuilt = mibench().into_iter().find(|w| w.name == "mi-fft").unwrap();
        assert_eq!(&rebuilt, a);
    }

    #[test]
    fn behavioural_diversity_axes_covered() {
        let all = power_suite();
        let has = |f: &dyn Fn(&WorkloadSpec) -> bool| all.iter().any(f);
        // Pointer chasing.
        assert!(has(&|w| w.phases[0].mem.dependent));
        // Large working sets (> 16 MB).
        assert!(has(&|w| w.phases[0].mem.ws_bytes > 16 * MB));
        // Tiny working sets (≤ 8 KB).
        assert!(has(&|w| w.phases[0].mem.ws_bytes <= 8 * KB));
        // FP-heavy.
        assert!(has(&|w| w.phases[0].mix.fp_alu > 0.2));
        // SIMD.
        assert!(has(&|w| w.phases[0].mix.simd > 0.2));
        // Concurrent with barriers.
        assert!(has(&|w| w.phases[0].mix.barrier > 0.0 && w.threads == 4));
        // Large code footprints (ITLB pressure).
        assert!(has(&|w| w.phases[0].code_pages > 40));
        // Unaligned accesses.
        assert!(has(&|w| w.phases[0].mem.unaligned_frac > 0.0));
    }
}
