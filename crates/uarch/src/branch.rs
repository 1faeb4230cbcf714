//! Branch prediction: direction predictors, BTB, return-address stack and an
//! indirect-target predictor.
//!
//! Three direction predictors are provided:
//!
//! * [`BimodalPredictor`] — a per-PC table of 2-bit saturating counters;
//! * [`GsharePredictor`] — global-history XOR PC indexed counters, with an
//!   optional **stale-history bug** (`stale_history_bug = true`): predictions
//!   are made with the global history register *one branch behind* the
//!   history used for training.  This reproduces the catastrophic behaviour
//!   the paper observed in the old `ex5_big` gem5 model: a perfectly
//!   periodic alternating branch is predicted almost 100 % *wrong*
//!   (the paper's `par-basicmath-rad2deg` has 99.9 % accuracy on hardware
//!   and 0.86 % in the model), while biased branches are barely affected —
//!   yielding the observed ~65 % mean accuracy against ~96 % on hardware;
//! * [`TournamentPredictor`] — an Alpha-style local/global/chooser
//!   predictor, the ground-truth Cortex-A15-class predictor.
//!
//! [`BranchUnit`] wraps a direction predictor together with a BTB, RAS and
//! indirect predictor and exposes the counters GemStone's analyses need.
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::branch::{BimodalPredictor, DirectionPredictor};
//!
//! let mut bp = BimodalPredictor::new(1024);
//! // A branch that is always taken trains quickly.
//! for _ in 0..8 {
//!     let p = bp.predict(42);
//!     bp.update(42, true, p != true);
//! }
//! assert!(bp.predict(42));
//! ```

use crate::instr::{Instr, InstrClass};

/// A conditional-branch direction predictor.
pub trait DirectionPredictor {
    /// Predicts the direction of the branch at static site `static_id`.
    fn predict(&mut self, static_id: u32) -> bool;
    /// Trains the predictor with the architectural outcome. `mispredicted`
    /// is supplied so implementations can model squash/repair behaviour.
    fn update(&mut self, static_id: u32, taken: bool, mispredicted: bool);
    /// Human-readable predictor name.
    fn name(&self) -> &'static str;
}

#[inline]
fn mix(id: u32) -> u32 {
    // Cheap integer hash to spread static ids over predictor tables.
    let mut x = id.wrapping_mul(0x9E37_79B9);
    x ^= x >> 16;
    x = x.wrapping_mul(0x85EB_CA6B);
    x ^ (x >> 13)
}

#[inline]
fn ctr_update(c: &mut u8, taken: bool) {
    if taken {
        if *c < 3 {
            *c += 1;
        }
    } else if *c > 0 {
        *c -= 1;
    }
}

/// Per-PC 2-bit saturating counter predictor.
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    table: Vec<u8>,
}

impl BimodalPredictor {
    /// Creates a predictor with `entries` counters (rounded up to a power of
    /// two, minimum 16).
    pub fn new(entries: usize) -> Self {
        let n = entries.next_power_of_two().max(16);
        BimodalPredictor {
            table: vec![2; n], // weakly taken
        }
    }

    #[inline]
    fn index(&self, static_id: u32) -> usize {
        (mix(static_id) as usize) & (self.table.len() - 1)
    }
}

impl DirectionPredictor for BimodalPredictor {
    fn predict(&mut self, static_id: u32) -> bool {
        self.table[self.index(static_id)] >= 2
    }

    fn update(&mut self, static_id: u32, taken: bool, _mispredicted: bool) {
        let i = self.index(static_id);
        ctr_update(&mut self.table[i], taken);
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }
}

/// Gshare predictor with an optional stale-history bug.
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    table: Vec<u8>,
    ghr: u64,
    prev_ghr: u64,
    history_bits: u32,
    /// When set, `predict` indexes the table with the history as it was
    /// *before* the previous branch's outcome was shifted in, while `update`
    /// trains the entry for the up-to-date history — the model bug.
    stale_history_bug: bool,
    /// Index used by the most recent `predict`, so `update` trains the same
    /// entry in the correct implementation.
    last_index: usize,
}

impl GsharePredictor {
    /// Creates a gshare predictor with `entries` counters and
    /// `history_bits` bits of global history.
    pub fn new(entries: usize, history_bits: u32, stale_history_bug: bool) -> Self {
        let n = entries.next_power_of_two().max(16);
        GsharePredictor {
            table: vec![2; n],
            ghr: 0,
            prev_ghr: 0,
            history_bits: history_bits.min(63),
            stale_history_bug,
            last_index: 0,
        }
    }

    #[inline]
    fn index_for(&self, static_id: u32, ghr: u64) -> usize {
        let mask = (1u64 << self.history_bits) - 1;
        ((mix(static_id) as u64 ^ (ghr & mask)) as usize) & (self.table.len() - 1)
    }
}

impl DirectionPredictor for GsharePredictor {
    fn predict(&mut self, static_id: u32) -> bool {
        let ghr = if self.stale_history_bug {
            self.prev_ghr
        } else {
            self.ghr
        };
        self.last_index = self.index_for(static_id, ghr);
        self.table[self.last_index] >= 2
    }

    fn update(&mut self, static_id: u32, taken: bool, _mispredicted: bool) {
        let idx = if self.stale_history_bug {
            // Bug: trains the entry selected by the *current* history, not
            // the one the prediction actually read.
            self.index_for(static_id, self.ghr)
        } else {
            self.last_index
        };
        ctr_update(&mut self.table[idx], taken);
        self.prev_ghr = self.ghr;
        self.ghr = (self.ghr << 1) | u64::from(taken);
    }

    fn name(&self) -> &'static str {
        if self.stale_history_bug {
            "gshare(stale-history bug)"
        } else {
            "gshare"
        }
    }
}

/// Alpha 21264-style tournament predictor: per-PC local history feeding a
/// pattern table, a gshare-style global component, and a chooser.
#[derive(Debug, Clone)]
pub struct TournamentPredictor {
    local_history: Vec<u16>,
    local_pattern: Vec<u8>,
    global: Vec<u8>,
    chooser: Vec<u8>,
    ghr: u64,
    local_bits: u32,
    history_bits: u32,
    last: LastPrediction,
}

#[derive(Debug, Clone, Copy, Default)]
struct LastPrediction {
    local_idx: usize,
    global_idx: usize,
    chooser_idx: usize,
    local_pred: bool,
    global_pred: bool,
}

impl TournamentPredictor {
    /// Creates a tournament predictor. `local_entries`/`global_entries` are
    /// rounded up to powers of two.
    pub fn new(local_entries: usize, global_entries: usize, history_bits: u32) -> Self {
        let le = local_entries.next_power_of_two().max(16);
        let ge = global_entries.next_power_of_two().max(16);
        TournamentPredictor {
            local_history: vec![0; le],
            local_pattern: vec![2; le * 4],
            global: vec![2; ge],
            chooser: vec![2; ge],
            ghr: 0,
            local_bits: 10,
            history_bits: history_bits.min(63),
            last: LastPrediction::default(),
        }
    }

    #[inline]
    fn local_indices(&self, static_id: u32) -> (usize, usize) {
        let h_idx = (mix(static_id) as usize) & (self.local_history.len() - 1);
        let hist = self.local_history[h_idx] as usize & ((1 << self.local_bits) - 1);
        let p_idx =
            (hist ^ (mix(static_id) as usize).rotate_left(3)) & (self.local_pattern.len() - 1);
        (h_idx, p_idx)
    }

    #[inline]
    fn global_index(&self, static_id: u32) -> usize {
        let mask = (1u64 << self.history_bits) - 1;
        ((mix(static_id) as u64 ^ (self.ghr & mask)) as usize) & (self.global.len() - 1)
    }
}

impl DirectionPredictor for TournamentPredictor {
    fn predict(&mut self, static_id: u32) -> bool {
        let (_, p_idx) = self.local_indices(static_id);
        let g_idx = self.global_index(static_id);
        // Chooser is PC-indexed: a per-branch preference trains far faster
        // than a (history, PC) product space.
        let c_idx = (mix(static_id) as usize) & (self.chooser.len() - 1);
        let local_pred = self.local_pattern[p_idx] >= 2;
        let global_pred = self.global[g_idx] >= 2;
        self.last = LastPrediction {
            local_idx: p_idx,
            global_idx: g_idx,
            chooser_idx: c_idx,
            local_pred,
            global_pred,
        };
        if self.chooser[c_idx] >= 2 {
            global_pred
        } else {
            local_pred
        }
    }

    fn update(&mut self, static_id: u32, taken: bool, _mispredicted: bool) {
        let last = self.last;
        // Chooser trains towards whichever component was right (when they
        // disagree).
        if last.local_pred != last.global_pred {
            ctr_update(
                &mut self.chooser[last.chooser_idx],
                last.global_pred == taken,
            );
        }
        ctr_update(&mut self.local_pattern[last.local_idx], taken);
        ctr_update(&mut self.global[last.global_idx], taken);
        // Histories.
        let (h_idx, _) = self.local_indices(static_id);
        self.local_history[h_idx] =
            ((self.local_history[h_idx] << 1) | u16::from(taken)) & ((1 << self.local_bits) - 1);
        self.ghr = (self.ghr << 1) | u64::from(taken);
    }

    fn name(&self) -> &'static str {
        "tournament"
    }
}

/// Branch target buffer modelled as a direct-mapped set of valid bits plus
/// the last observed target page.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<(u32, u64)>>,
}

impl Btb {
    /// Creates a BTB with `entries` slots (power of two, minimum 16).
    pub fn new(entries: usize) -> Self {
        Btb {
            entries: vec![None; entries.next_power_of_two().max(16)],
        }
    }

    /// Looks up the target for a static branch; returns the stored target
    /// page on hit.
    pub fn lookup(&self, static_id: u32) -> Option<u64> {
        let i = (mix(static_id) as usize) & (self.entries.len() - 1);
        match self.entries[i] {
            Some((tag, page)) if tag == static_id => Some(page),
            _ => None,
        }
    }

    /// Installs/updates the target for a static branch.
    pub fn install(&mut self, static_id: u32, target_page: u64) {
        let i = (mix(static_id) as usize) & (self.entries.len() - 1);
        self.entries[i] = Some((static_id, target_page));
    }
}

/// Return-address stack (stores return target pages).
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    stack: Vec<u64>,
    capacity: usize,
    /// Count of pushes dropped because the stack was full — subsequent pops
    /// will mispredict.
    overflowed: usize,
}

impl ReturnAddressStack {
    /// Creates a RAS with the given capacity (minimum 1).
    pub fn new(capacity: usize) -> Self {
        ReturnAddressStack {
            stack: Vec::new(),
            capacity: capacity.max(1),
            overflowed: 0,
        }
    }

    /// Pushes a return target page (on a call).
    pub fn push(&mut self, page: u64) {
        if self.stack.len() == self.capacity {
            // Oldest entry is lost.
            self.stack.remove(0);
            self.overflowed += 1;
        }
        self.stack.push(page);
    }

    /// Pops the predicted return page (on a return); `None` on underflow.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

/// What went wrong (if anything) for one processed branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MispredictKind {
    /// Correct prediction.
    None,
    /// Conditional direction mispredicted.
    Direction,
    /// Taken branch whose target missed in the BTB.
    BtbMiss,
    /// Return-address-stack mispredict.
    Ras,
    /// Indirect-target mispredict.
    Indirect,
}

/// Result of processing a branch through the [`BranchUnit`].
#[derive(Debug, Clone, Copy)]
pub struct BranchOutcome {
    /// Whether the front end must squash (any mispredict kind).
    pub mispredicted: bool,
    /// The specific cause.
    pub kind: MispredictKind,
}

/// Aggregated branch-unit counters (the raw material for both gem5
/// `branchPred.*` statistics and PMU events 0x10/0x12/0x76/0x78–0x7A).
#[derive(Debug, Clone, Copy, Default)]
pub struct BranchCounters {
    /// Total branches processed.
    pub lookups: u64,
    /// Conditional branches processed.
    pub cond_predicted: u64,
    /// Conditional direction mispredicts.
    pub cond_incorrect: u64,
    /// Taken branches that hit in the BTB.
    pub btb_hits: u64,
    /// Taken branches that missed in the BTB.
    pub btb_misses: u64,
    /// Returns predicted via the RAS.
    pub used_ras: u64,
    /// RAS mispredicts.
    pub ras_incorrect: u64,
    /// Indirect branches processed.
    pub indirect_lookups: u64,
    /// Indirect-target mispredicts.
    pub indirect_misses: u64,
    /// Immediate (direct) branches processed.
    pub immediate_branches: u64,
    /// Return instructions processed.
    pub returns: u64,
}

impl BranchCounters {
    /// Applies `f` to every counter (used by the sampled tier to
    /// extrapolate detailed-window counts to the whole stream).
    pub fn map(&self, f: impl Fn(u64) -> u64) -> Self {
        BranchCounters {
            lookups: f(self.lookups),
            cond_predicted: f(self.cond_predicted),
            cond_incorrect: f(self.cond_incorrect),
            btb_hits: f(self.btb_hits),
            btb_misses: f(self.btb_misses),
            used_ras: f(self.used_ras),
            ras_incorrect: f(self.ras_incorrect),
            indirect_lookups: f(self.indirect_lookups),
            indirect_misses: f(self.indirect_misses),
            immediate_branches: f(self.immediate_branches),
            returns: f(self.returns),
        }
    }

    /// Total mispredicts of any kind.
    pub fn total_mispredicts(&self) -> u64 {
        self.cond_incorrect + self.ras_incorrect + self.indirect_misses + self.btb_misses
    }

    /// Direction-prediction accuracy over conditional branches in `[0, 1]`
    /// (1.0 when no conditional branches ran).
    pub fn accuracy(&self) -> f64 {
        if self.cond_predicted == 0 {
            1.0
        } else {
            1.0 - self.cond_incorrect as f64 / self.cond_predicted as f64
        }
    }
}

/// The full branch-prediction unit: direction predictor + BTB + RAS +
/// indirect predictor, with counters.
pub struct BranchUnit {
    dir: Box<dyn DirectionPredictor + Send>,
    btb: Btb,
    ras: ReturnAddressStack,
    indirect: Vec<Option<(u32, u64)>>,
    counters: BranchCounters,
}

impl std::fmt::Debug for BranchUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BranchUnit")
            .field("predictor", &self.dir.name())
            .field("counters", &self.counters)
            .finish()
    }
}

impl BranchUnit {
    /// Creates a branch unit around a direction predictor.
    pub fn new(
        dir: Box<dyn DirectionPredictor + Send>,
        btb_entries: usize,
        ras_entries: usize,
        indirect_entries: usize,
    ) -> Self {
        BranchUnit {
            dir,
            btb: Btb::new(btb_entries),
            ras: ReturnAddressStack::new(ras_entries),
            indirect: vec![None; indirect_entries.next_power_of_two().max(16)],
            counters: BranchCounters::default(),
        }
    }

    /// Processes one branch instruction and returns the prediction outcome.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when called with a non-branch instruction or a
    /// branch without [`Instr::branch`] metadata.
    pub fn process(&mut self, instr: &Instr) -> BranchOutcome {
        debug_assert!(instr.class.is_branch());
        let br = instr.branch.expect("branch instruction without metadata");
        self.counters.lookups += 1;
        let outcome = match instr.class {
            InstrClass::Branch => {
                self.counters.cond_predicted += 1;
                self.counters.immediate_branches += 1;
                let predicted = self.dir.predict(br.static_id);
                let mispredicted = predicted != br.taken;
                self.dir.update(br.static_id, br.taken, mispredicted);
                if mispredicted {
                    self.counters.cond_incorrect += 1;
                    BranchOutcome {
                        mispredicted: true,
                        kind: MispredictKind::Direction,
                    }
                } else if br.taken && br.target_page != instr.page() {
                    // Only cross-page targets need the BTB; short intra-page
                    // branches resolve through next-line prediction.
                    self.target_check(br.static_id, br.target_page)
                } else {
                    BranchOutcome {
                        mispredicted: false,
                        kind: MispredictKind::None,
                    }
                }
            }
            InstrClass::Call => {
                self.counters.immediate_branches += 1;
                // Return target is the page following the call site.
                self.ras.push(instr.page());
                self.target_check(br.static_id, br.target_page)
            }
            InstrClass::Return => {
                self.counters.returns += 1;
                self.counters.used_ras += 1;
                let predicted = self.ras.pop();
                if predicted == Some(br.target_page) {
                    BranchOutcome {
                        mispredicted: false,
                        kind: MispredictKind::None,
                    }
                } else {
                    self.counters.ras_incorrect += 1;
                    BranchOutcome {
                        mispredicted: true,
                        kind: MispredictKind::Ras,
                    }
                }
            }
            InstrClass::IndirectBranch => {
                self.counters.indirect_lookups += 1;
                let i = (mix(br.static_id) as usize) & (self.indirect.len() - 1);
                let hit = matches!(self.indirect[i], Some((tag, page)) if tag == br.static_id && page == br.target_page);
                self.indirect[i] = Some((br.static_id, br.target_page));
                if hit {
                    BranchOutcome {
                        mispredicted: false,
                        kind: MispredictKind::None,
                    }
                } else {
                    self.counters.indirect_misses += 1;
                    BranchOutcome {
                        mispredicted: true,
                        kind: MispredictKind::Indirect,
                    }
                }
            }
            _ => unreachable!("process() requires a branch class"),
        };
        outcome
    }

    fn target_check(&mut self, static_id: u32, target_page: u64) -> BranchOutcome {
        match self.btb.lookup(static_id) {
            Some(page) if page == target_page => {
                self.counters.btb_hits += 1;
                BranchOutcome {
                    mispredicted: false,
                    kind: MispredictKind::None,
                }
            }
            _ => {
                self.btb.install(static_id, target_page);
                self.counters.btb_misses += 1;
                BranchOutcome {
                    mispredicted: true,
                    kind: MispredictKind::BtbMiss,
                }
            }
        }
    }

    /// Functional warming: trains the direction predictor, BTB, RAS and
    /// indirect predictor exactly like [`BranchUnit::process`] but records
    /// nothing in the counters. Returns whether the branch would have
    /// mispredicted, so the caller can also warm the wrong-path fetch
    /// pollution a real mispredict causes. The sampled execution tier
    /// drives this during fast-forward phases so predictor history stays in
    /// phase with the instruction stream.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when called with a non-branch instruction or a
    /// branch without [`Instr::branch`] metadata.
    pub fn warm(&mut self, instr: &Instr) -> bool {
        debug_assert!(instr.class.is_branch());
        let br = instr.branch.expect("branch instruction without metadata");
        match instr.class {
            InstrClass::Branch => {
                let predicted = self.dir.predict(br.static_id);
                let mispredicted = predicted != br.taken;
                self.dir.update(br.static_id, br.taken, mispredicted);
                if mispredicted {
                    true
                } else if br.taken && br.target_page != instr.page() {
                    self.warm_target(br.static_id, br.target_page)
                } else {
                    false
                }
            }
            InstrClass::Call => {
                self.ras.push(instr.page());
                self.warm_target(br.static_id, br.target_page)
            }
            InstrClass::Return => self.ras.pop() != Some(br.target_page),
            InstrClass::IndirectBranch => {
                let i = (mix(br.static_id) as usize) & (self.indirect.len() - 1);
                let hit = matches!(self.indirect[i], Some((tag, page)) if tag == br.static_id && page == br.target_page);
                self.indirect[i] = Some((br.static_id, br.target_page));
                !hit
            }
            _ => unreachable!("warm() requires a branch class"),
        }
    }

    /// Counter-free [`BranchUnit::target_check`]; true on a BTB mispredict.
    fn warm_target(&mut self, static_id: u32, target_page: u64) -> bool {
        match self.btb.lookup(static_id) {
            Some(page) if page == target_page => false,
            _ => {
                self.btb.install(static_id, target_page);
                true
            }
        }
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> BranchCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::BranchRef;

    fn run_pattern(bp: &mut dyn DirectionPredictor, pattern: &[bool], reps: usize) -> f64 {
        let mut correct = 0u64;
        let mut total = 0u64;
        for rep in 0..reps {
            for &taken in pattern {
                let p = bp.predict(1);
                // Skip the first rep as warm-up.
                if rep > 0 {
                    total += 1;
                    if p == taken {
                        correct += 1;
                    }
                }
                bp.update(1, taken, p != taken);
            }
        }
        correct as f64 / total as f64
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut bp = BimodalPredictor::new(256);
        let acc = run_pattern(&mut bp, &[true; 16], 10);
        assert!(acc > 0.99, "acc = {acc}");
        let mut bp = BimodalPredictor::new(256);
        let acc = run_pattern(&mut bp, &[false; 16], 10);
        assert!(acc > 0.99, "acc = {acc}");
    }

    #[test]
    fn bimodal_fails_alternating() {
        let mut bp = BimodalPredictor::new(256);
        let acc = run_pattern(&mut bp, &[true, false], 200);
        assert!(acc < 0.7, "acc = {acc}");
    }

    #[test]
    fn gshare_learns_alternating() {
        let mut bp = GsharePredictor::new(4096, 12, false);
        let acc = run_pattern(&mut bp, &[true, false], 300);
        assert!(acc > 0.95, "acc = {acc}");
    }

    #[test]
    fn gshare_learns_period_4() {
        let mut bp = GsharePredictor::new(4096, 12, false);
        let acc = run_pattern(&mut bp, &[true, true, false, false], 300);
        assert!(acc > 0.95, "acc = {acc}");
    }

    #[test]
    fn buggy_gshare_catastrophic_on_alternating() {
        // The stale-history bug must invert an alternating pattern —
        // this is the paper's 0.86 %-accuracy pathological workload.
        let mut bp = GsharePredictor::new(4096, 12, true);
        let acc = run_pattern(&mut bp, &[true, false], 300);
        assert!(acc < 0.1, "acc = {acc}");
    }

    #[test]
    fn buggy_gshare_fine_on_biased() {
        let mut bp = GsharePredictor::new(4096, 12, true);
        let acc = run_pattern(&mut bp, &[true; 12], 50);
        assert!(acc > 0.9, "acc = {acc}");
    }

    #[test]
    fn tournament_learns_alternating_and_bias() {
        let mut bp = TournamentPredictor::new(1024, 4096, 12);
        let acc = run_pattern(&mut bp, &[true, false], 300);
        assert!(acc > 0.95, "alternating acc = {acc}");
        let mut bp = TournamentPredictor::new(1024, 4096, 12);
        let acc = run_pattern(&mut bp, &[true; 8], 50);
        assert!(acc > 0.95, "biased acc = {acc}");
    }

    #[test]
    fn tournament_beats_bimodal_on_long_pattern() {
        let pattern: Vec<bool> = (0..8).map(|i| i % 4 != 3).collect();
        let mut tp = TournamentPredictor::new(1024, 8192, 13);
        let acc_t = run_pattern(&mut tp, &pattern, 400);
        let mut bm = BimodalPredictor::new(1024);
        let acc_b = run_pattern(&mut bm, &pattern, 400);
        assert!(acc_t > acc_b, "tournament {acc_t} vs bimodal {acc_b}");
        assert!(acc_t > 0.9, "acc_t = {acc_t}");
    }

    #[test]
    fn btb_basic() {
        let mut btb = Btb::new(64);
        assert_eq!(btb.lookup(5), None);
        btb.install(5, 100);
        assert_eq!(btb.lookup(5), Some(100));
        btb.install(5, 200);
        assert_eq!(btb.lookup(5), Some(200));
    }

    #[test]
    fn ras_push_pop_and_overflow() {
        let mut ras = ReturnAddressStack::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3); // evicts 1
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    fn cond(static_id: u32, taken: bool) -> Instr {
        Instr::branch(
            InstrClass::Branch,
            0x1000 + static_id as u64 * 4,
            BranchRef {
                static_id,
                taken,
                target_page: 1,
            },
        )
    }

    #[test]
    fn branch_unit_counts_conditionals() {
        let mut bu = BranchUnit::new(
            Box::new(TournamentPredictor::new(1024, 4096, 12)),
            256,
            8,
            64,
        );
        for i in 0..100 {
            bu.process(&cond(3, i % 2 == 0));
        }
        let c = bu.counters();
        assert_eq!(c.lookups, 100);
        assert_eq!(c.cond_predicted, 100);
        assert!(c.accuracy() > 0.8, "accuracy = {}", c.accuracy());
    }

    #[test]
    fn branch_unit_ras_flow() {
        let mut bu = BranchUnit::new(Box::new(BimodalPredictor::new(64)), 64, 8, 16);
        // A call from page 7, then a return back to page 7: RAS hit.
        let call = Instr::branch(
            InstrClass::Call,
            7 << 12,
            BranchRef {
                static_id: 9,
                taken: true,
                target_page: 20,
            },
        );
        bu.process(&call);
        let ret = Instr::branch(
            InstrClass::Return,
            20 << 12,
            BranchRef {
                static_id: 10,
                taken: true,
                target_page: 7,
            },
        );
        let out = bu.process(&ret);
        assert!(!out.mispredicted);
        // A return with an empty RAS mispredicts.
        let out = bu.process(&ret);
        assert!(out.mispredicted);
        assert_eq!(out.kind, MispredictKind::Ras);
        assert_eq!(bu.counters().ras_incorrect, 1);
        assert_eq!(bu.counters().used_ras, 2);
    }

    #[test]
    fn branch_unit_indirect_learns_stable_target() {
        let mut bu = BranchUnit::new(Box::new(BimodalPredictor::new(64)), 64, 8, 64);
        let ind = |page| {
            Instr::branch(
                InstrClass::IndirectBranch,
                0x5000,
                BranchRef {
                    static_id: 77,
                    taken: true,
                    target_page: page,
                },
            )
        };
        assert!(bu.process(&ind(4)).mispredicted); // cold
        assert!(!bu.process(&ind(4)).mispredicted); // learned
        assert!(bu.process(&ind(5)).mispredicted); // target changed
        assert_eq!(bu.counters().indirect_misses, 2);
        assert_eq!(bu.counters().indirect_lookups, 3);
    }

    #[test]
    fn branch_unit_btb_cross_page_taken_target() {
        let mut bu = BranchUnit::new(Box::new(BimodalPredictor::new(64)), 64, 8, 16);
        // A taken branch to a *different* page consults the BTB (bimodal
        // starts weakly taken so the first direction prediction is correct).
        let b = Instr::branch(
            InstrClass::Branch,
            0x1000, // page 1
            BranchRef {
                static_id: 50,
                taken: true,
                target_page: 9,
            },
        );
        let first = bu.process(&b);
        // Direction correct but BTB cold → BTB miss mispredict.
        assert_eq!(first.kind, MispredictKind::BtbMiss);
        let second = bu.process(&b);
        assert!(!second.mispredicted);
        assert_eq!(bu.counters().btb_hits, 1);
    }

    #[test]
    fn branch_unit_intra_page_target_skips_btb() {
        let mut bu = BranchUnit::new(Box::new(BimodalPredictor::new(64)), 64, 8, 16);
        // Taken branch within its own page: next-line prediction covers it,
        // no BTB traffic, no mispredict.
        let b = cond(50, true); // cond() targets page 1, pc in page 1
        let out = bu.process(&b);
        assert!(!out.mispredicted);
        assert_eq!(bu.counters().btb_hits + bu.counters().btb_misses, 0);
    }

    #[test]
    fn counters_total_and_accuracy_empty() {
        let c = BranchCounters::default();
        assert_eq!(c.total_mispredicts(), 0);
        assert_eq!(c.accuracy(), 1.0);
    }
}
