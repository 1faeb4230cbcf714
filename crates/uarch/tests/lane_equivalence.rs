//! Seeded equivalence tests for the lane-vector engine family (DESIGN.md
//! §11): for any stream, drain cadence, lane column and tier, a K-lane run
//! must be bit-identical to K separate one-lane runs, and functional
//! warming must leave an engine in exactly the state detailed stepping
//! would.
//!
//! Cases come from a fixed seed sequence (`rand::cases`), so every build
//! runs the same cases; a failing case prints its seed, and
//! `*_case(seed)` replays it alone.

use gemstone_uarch::backend::{AtomicEngine, Fidelity, SampleParams, SampledEngine, TierConfig};
use gemstone_uarch::configs::{cortex_a15_hw, cortex_a7_hw, ex5_big, Ex5Variant};
use gemstone_uarch::core::{CoreConfig, Engine, SimResult};
use gemstone_uarch::instr::{BranchRef, Instr, InstrClass, MemRef};
use gemstone_uarch::stats::SimStats;
use rand::cases::{for_each_case, Cases};

/// The seed sequence every case loop here draws from.
const CASE_SEED: u64 = 0x5E6_E0E0;

/// A mixed stream with loads, stores (some shared), branches and
/// store-exclusives — the classes that exercise every piece of long-lived
/// engine state, including the RNG draws warming must keep in lockstep
/// when `threads > 1`.
fn stream(n: usize, salt: u64) -> Vec<Instr> {
    (0..n)
        .map(|i| {
            let pc = ((i as u64).wrapping_mul(salt | 1) % 2048) * 4;
            match i % 16 {
                0..=4 => Instr::alu(InstrClass::IntAlu, pc),
                5 => Instr::alu(InstrClass::IntMul, pc),
                6 => Instr::alu(InstrClass::FpAlu, pc),
                7..=9 => Instr::mem(
                    InstrClass::Load,
                    pc,
                    MemRef::load(
                        (i as u64).wrapping_mul(2654435761).wrapping_add(salt) % (8 << 20),
                        4,
                    ),
                ),
                10 => Instr::mem(
                    InstrClass::Store,
                    pc,
                    MemRef::store((i as u64 * 64) % (1 << 20), 4).with_shared(i % 2 == 0),
                ),
                11 | 12 => Instr::branch(
                    InstrClass::Branch,
                    pc,
                    BranchRef {
                        static_id: (i % 32) as u32,
                        taken: !(i as u64).wrapping_add(salt).is_multiple_of(5),
                        target_page: (i as u64 / 64) % 16,
                    },
                ),
                13 => Instr::mem(
                    InstrClass::StoreExclusive,
                    pc,
                    MemRef::store(0x2000 + (i as u64 % 32) * 4, 4).with_shared(true),
                ),
                14 => Instr::alu(InstrClass::Nop, pc),
                _ => Instr::alu(InstrClass::IntAlu, pc),
            }
        })
        .collect()
}

fn configs() -> [CoreConfig; 3] {
    [cortex_a15_hw(), cortex_a7_hw(), ex5_big(Ex5Variant::Old)]
}

const FREQS: [f64; 5] = [0.2e9, 0.6e9, 1.0e9, 1.4e9, 1.8e9];

/// A dense sampling geometry, so short streams still hold many windows.
const DENSE: SampleParams = SampleParams {
    interval: 700,
    window: 150,
    warmup: 200,
};

/// Asserts two result columns are equal bit for bit.
fn assert_bit_identical(got: &[SimResult], expect: &[SimResult], what: &str) {
    assert_eq!(got.len(), expect.len(), "{what}: lane count");
    for (lane, (g, e)) in got.iter().zip(expect).enumerate() {
        assert_eq!(
            g.cycles.to_bits(),
            e.cycles.to_bits(),
            "{what}: lane {lane}"
        );
        assert_eq!(
            g.seconds.to_bits(),
            e.seconds.to_bits(),
            "{what}: lane {lane}"
        );
        // `SimStats`'s Debug form prints every f64 in shortest round-trip
        // form, so equal renderings mean equal bits.
        assert_eq!(
            format!("{:?}", g.stats),
            format!("{:?}", e.stats),
            "{what}: lane {lane}"
        );
    }
}

/// Steps `stream` through `step`, calling `drain` after every
/// `drain_instrs`-th instruction — the replay loop of the detailed tiers,
/// at an arbitrary cadence.
fn drive<E>(
    engine: &mut E,
    drain_instrs: u64,
    stream: &[Instr],
    step: impl Fn(&mut E, &Instr),
    drain: impl Fn(&mut E),
) {
    for (k, instr) in stream.iter().enumerate() {
        step(engine, instr);
        if (k as u64 + 1).is_multiple_of(drain_instrs) {
            drain(engine);
        }
    }
}

/// Steps an approx engine over `stream`, draining every `drain_instrs`.
fn drive_engine(engine: &mut Engine, drain_instrs: u64, stream: &[Instr]) {
    drive(engine, drain_instrs, stream, Engine::step, Engine::boundary);
}

/// Drives a `tier` engine over the lanes `freqs`, draining the f64
/// accumulators every `drain_instrs` instructions.
fn run_lanes(
    tier: TierConfig,
    cfg: &CoreConfig,
    freqs: &[f64],
    threads: u32,
    stream: &[Instr],
    drain_instrs: u64,
) -> Vec<SimResult> {
    const SEED: u64 = 0x5EED;
    match tier.fidelity {
        Fidelity::Atomic => {
            let mut e = AtomicEngine::new(cfg, freqs, threads);
            stream.iter().for_each(|i| e.step(i));
            e.finish()
        }
        Fidelity::Approx => {
            let mut e = Engine::with_seed(cfg.clone(), freqs, threads, SEED);
            drive_engine(&mut e, drain_instrs, stream);
            e.finish()
        }
        Fidelity::Sampled => {
            let mut e = SampledEngine::new(cfg.clone(), freqs, threads, SEED, tier.sample);
            drive(
                &mut e,
                drain_instrs,
                stream,
                SampledEngine::step,
                SampledEngine::boundary,
            );
            e.finish()
        }
    }
}

/// One lane-equivalence case: columns of 1–5 frequencies drawn from the
/// seed, on every tier, every configuration and both thread counts.
fn lanes_case(seed: u64) {
    let mut rng = Cases::new(seed);
    let stream = stream(rng.range(4_000, 9_000) as usize, rng.next());
    let drain_instrs = rng.pick(&[1_024u64, 3_000, 1 << 20]);
    for k in 1..=5 {
        let freqs: Vec<f64> = (0..k).map(|_| rng.pick(&FREQS)).collect();
        lane_column(&freqs, &stream, drain_instrs);
    }
}

/// Asserts the column `freqs` run as one K-lane engine equals K one-lane
/// engines, on every tier, configuration and thread count.
fn lane_column(freqs: &[f64], stream: &[Instr], drain_instrs: u64) {
    for tier in [
        TierConfig::atomic(),
        TierConfig::approx(),
        TierConfig::sampled(DENSE),
    ] {
        for cfg in configs() {
            for threads in [1, 4] {
                let fused = run_lanes(tier, &cfg, freqs, threads, stream, drain_instrs);
                let separate: Vec<SimResult> = freqs
                    .iter()
                    .flat_map(|&f| run_lanes(tier, &cfg, &[f], threads, stream, drain_instrs))
                    .collect();
                let what = format!("{tier} {} x{threads} @ {freqs:?}", cfg.name);
                assert_bit_identical(&fused, &separate, &what);
            }
        }
    }
}

/// A K-lane run is bit-identical to K separate one-lane runs, on every
/// tier, for columns of 1–5 frequencies.
#[test]
fn k_lanes_equal_k_separate_one_lane_runs() {
    for_each_case(3, CASE_SEED, lanes_case);
}

/// One warming case: warm a prefix ending on a drain boundary, step the
/// rest.
fn warm_prefix_case(seed: u64) {
    let mut rng = Cases::new(seed);
    let stream = stream(rng.range(12_000, 30_000) as usize, rng.next());
    let drain_instrs = rng.pick(&[1_024u64, 4_096, 7_777]);
    let k = (rng.range(1, 5) * drain_instrs).min(stream.len() as u64) as usize;
    let threads = rng.pick(&[1u32, 2, 4]);
    let cfg = configs()[rng.pick(&[0usize, 1, 2])].clone();
    let build = || Engine::with_seed(cfg.clone(), &[1.0e9], threads, 5);

    // Warm the prefix, step the suffix: suffix-only events.
    let mut warmed = build();
    for instr in &stream[..k] {
        warmed.warm_state(instr);
    }
    drive_engine(&mut warmed, drain_instrs, &stream[k..]);
    let suffix = warmed.finish().remove(0).stats;

    // Full and prefix-only sequential runs.
    let mut full = build();
    drive_engine(&mut full, drain_instrs, &stream);
    let full = full.finish().remove(0).stats;
    let mut prefix = build();
    drive_engine(&mut prefix, drain_instrs, &stream[..k]);
    let prefix = prefix.finish().remove(0).stats;

    // Integer event counts are exact, so they subtract exactly. Any state
    // divergence between warming and stepping (cache contents, predictor
    // tables, TLBs, RNG position) shifts the suffix's events and breaks
    // the identity.
    for (name, get) in [
        (
            "committed",
            (|s| s.committed_instructions) as fn(&SimStats) -> u64,
        ),
        ("l1d misses", |s| s.l1d.misses),
        ("l1i misses", |s| s.l1i.misses),
        ("mispredicts", |s| s.branch.cond_incorrect),
        ("dtlb misses", |s| s.dtlb.l1_misses),
    ] {
        assert_eq!(get(&suffix), get(&full) - get(&prefix), "{name}");
    }
}

/// Functional warming leaves an engine state-identical to detailed
/// stepping, at any drain boundary. Warming records nothing, so an
/// engine warmed over `[0, k)` and stepped over `[k, n)` reports the
/// suffix's events alone — which must equal a full sequential run's
/// events minus a prefix-only run's, event for event.
#[test]
fn warm_prefix_is_state_identical_to_stepped_prefix() {
    for_each_case(24, CASE_SEED, warm_prefix_case);
}

/// One startup-prologue case: warm a prefix with `warm_frontend`, step the
/// rest. Single-threaded only: with more threads, memory instructions draw
/// the RNG, and front-end warming skips them.
fn warm_frontend_prefix_case(seed: u64) {
    let mut rng = Cases::new(seed);
    let stream = stream(rng.range(12_000, 30_000) as usize, rng.next());
    let drain_instrs = rng.pick(&[1_024u64, 4_096, 7_777]);
    let k = (rng.range(1, 5) * drain_instrs).min(stream.len() as u64) as usize;
    let cfg = configs()[rng.pick(&[0usize, 1, 2])].clone();
    let build = || Engine::with_seed(cfg.clone(), &[1.0e9], 1, 5);

    let mut warmed = build();
    for instr in &stream[..k] {
        warmed.warm_frontend(instr);
    }
    drive_engine(&mut warmed, drain_instrs, &stream[k..]);
    let suffix = warmed.finish().remove(0).stats;

    let mut full = build();
    drive_engine(&mut full, drain_instrs, &stream);
    let full = full.finish().remove(0).stats;
    let mut prefix = build();
    drive_engine(&mut prefix, drain_instrs, &stream[..k]);
    let prefix = prefix.finish().remove(0).stats;

    // Front-end events only: the data side (L1D, DTLB, data-triggered L2
    // traffic) is left cold, so its events differ by design.
    for (name, get) in [
        ("l1i misses", (|s| s.l1i.misses) as fn(&SimStats) -> u64),
        ("l1i reported accesses", |s| s.l1i_reported_accesses),
        ("mispredicts", |s| s.branch.cond_incorrect),
        ("btb misses", |s| s.branch.btb_misses),
        ("ras mispredicts", |s| s.branch.ras_incorrect),
        ("itlb misses", |s| s.itlb.l1_misses),
        ("wrong-path instructions", |s| s.wrong_path_instructions),
    ] {
        assert_eq!(get(&suffix), get(&full) - get(&prefix), "{name}");
    }
}

/// The startup prologue leaves the front end state-identical to detailed
/// stepping: an engine whose prefix was front-end warmed reports the
/// suffix's front-end events alone — the full run's minus the prefix's.
#[test]
fn warm_frontend_prefix_is_front_end_identical_to_stepped_prefix() {
    for_each_case(24, CASE_SEED, warm_frontend_prefix_case);
}
