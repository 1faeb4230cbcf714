//! Abstract instruction stream representation.
//!
//! The timing engine is trace-driven: workload generators (the
//! `gemstone-workloads` crate) produce a deterministic stream of abstract
//! instructions which the engine times. An [`Instr`] carries only what the
//! timing and event models need — its class, program counter, optional
//! memory reference and optional branch outcome.
//!
//! # Examples
//!
//! ```
//! use gemstone_uarch::instr::{Instr, InstrClass, MemRef};
//!
//! let load = Instr::mem(InstrClass::Load, 0x8000, MemRef::load(0x1_2345, 4));
//! assert!(load.mem.is_some());
//! assert!(load.class.is_memory());
//! ```

/// Broad instruction classes, chosen to cover the events that matter for
/// the paper's analysis (integer/FP/SIMD split for PMC events 0x73–0x75,
/// exclusives and barriers for the concurrency clusters, branch kinds for
/// the predictor study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrClass {
    /// Simple integer ALU operation.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide.
    IntDiv,
    /// Scalar floating-point add/mul-class operation (VFP).
    FpAlu,
    /// Scalar floating-point divide/sqrt.
    FpDiv,
    /// Advanced SIMD (NEON) operation.
    Simd,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional direct branch.
    Branch,
    /// Indirect branch (register target).
    IndirectBranch,
    /// Function call (branch-and-link).
    Call,
    /// Function return.
    Return,
    /// Load-exclusive (LDREX).
    LoadExclusive,
    /// Store-exclusive (STREX).
    StoreExclusive,
    /// Data memory barrier (DMB/DSB).
    Barrier,
    /// No-op / other non-modelled instruction.
    Nop,
}

impl InstrClass {
    /// True for classes that reference data memory.
    pub fn is_memory(self) -> bool {
        matches!(
            self,
            InstrClass::Load
                | InstrClass::Store
                | InstrClass::LoadExclusive
                | InstrClass::StoreExclusive
        )
    }

    /// True for classes that change control flow.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            InstrClass::Branch | InstrClass::IndirectBranch | InstrClass::Call | InstrClass::Return
        )
    }

    /// True when the class writes memory (stores and store-exclusives).
    pub fn is_store(self) -> bool {
        matches!(self, InstrClass::Store | InstrClass::StoreExclusive)
    }

    /// Number of instruction classes (= the exclusive upper bound of
    /// [`InstrClass::index`]).
    pub const COUNT: usize = 16;

    /// A stable dense index in `0..InstrClass::COUNT`, used by compact trace
    /// encodings ([`InstrClass::from_index`] is its exact inverse).
    pub fn index(self) -> u8 {
        match self {
            InstrClass::IntAlu => 0,
            InstrClass::IntMul => 1,
            InstrClass::IntDiv => 2,
            InstrClass::FpAlu => 3,
            InstrClass::FpDiv => 4,
            InstrClass::Simd => 5,
            InstrClass::Load => 6,
            InstrClass::Store => 7,
            InstrClass::Branch => 8,
            InstrClass::IndirectBranch => 9,
            InstrClass::Call => 10,
            InstrClass::Return => 11,
            InstrClass::LoadExclusive => 12,
            InstrClass::StoreExclusive => 13,
            InstrClass::Barrier => 14,
            InstrClass::Nop => 15,
        }
    }

    /// Inverse of [`InstrClass::index`]; `None` for out-of-range values.
    pub fn from_index(index: u8) -> Option<InstrClass> {
        Some(match index {
            0 => InstrClass::IntAlu,
            1 => InstrClass::IntMul,
            2 => InstrClass::IntDiv,
            3 => InstrClass::FpAlu,
            4 => InstrClass::FpDiv,
            5 => InstrClass::Simd,
            6 => InstrClass::Load,
            7 => InstrClass::Store,
            8 => InstrClass::Branch,
            9 => InstrClass::IndirectBranch,
            10 => InstrClass::Call,
            11 => InstrClass::Return,
            12 => InstrClass::LoadExclusive,
            13 => InstrClass::StoreExclusive,
            14 => InstrClass::Barrier,
            15 => InstrClass::Nop,
            _ => return None,
        })
    }
}

/// A data-memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRef {
    /// Virtual byte address.
    pub vaddr: u64,
    /// Access size in bytes.
    pub size: u8,
    /// Whether the access crosses its natural alignment boundary.
    pub unaligned: bool,
    /// Whether the access is a write.
    pub is_store: bool,
    /// Whether the line is potentially shared with another core (drives
    /// coherence/snoop behaviour for multi-threaded workloads).
    pub shared: bool,
    /// Whether the access is part of a serial dependence chain (pointer
    /// chasing): its miss latency cannot be hidden by out-of-order
    /// execution.
    pub dependent: bool,
}

impl MemRef {
    /// A plain aligned load of `size` bytes.
    pub fn load(vaddr: u64, size: u8) -> Self {
        MemRef {
            vaddr,
            size,
            unaligned: false,
            is_store: false,
            shared: false,
            dependent: false,
        }
    }

    /// A plain aligned store of `size` bytes.
    pub fn store(vaddr: u64, size: u8) -> Self {
        MemRef {
            vaddr,
            size,
            unaligned: false,
            is_store: true,
            shared: false,
            dependent: false,
        }
    }

    /// Marks the access as unaligned.
    pub fn with_unaligned(mut self, unaligned: bool) -> Self {
        self.unaligned = unaligned;
        self
    }

    /// Marks the access as touching shared data.
    pub fn with_shared(mut self, shared: bool) -> Self {
        self.shared = shared;
        self
    }

    /// Marks the access as part of a serial dependence chain.
    pub fn with_dependent(mut self, dependent: bool) -> Self {
        self.dependent = dependent;
        self
    }

    /// Virtual page number (4 KiB pages).
    pub fn page(&self) -> u64 {
        self.vaddr >> 12
    }
}

/// Branch metadata attached to control-flow instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchRef {
    /// Identifier of the static branch site (stands in for the branch PC in
    /// predictor indexing).
    pub static_id: u32,
    /// Architectural outcome.
    pub taken: bool,
    /// Virtual page of the branch target (drives front-end TLB/I-cache
    /// behaviour on taken branches).
    pub target_page: u64,
}

/// One abstract instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instr {
    /// Instruction class.
    pub class: InstrClass,
    /// Virtual program counter of this instruction.
    pub pc: u64,
    /// Data-memory reference, when `class.is_memory()`.
    pub mem: Option<MemRef>,
    /// Branch metadata, when `class.is_branch()`.
    pub branch: Option<BranchRef>,
}

impl Instr {
    /// A non-memory, non-branch instruction of the given class at `pc`.
    pub fn alu(class: InstrClass, pc: u64) -> Self {
        debug_assert!(!class.is_memory() && !class.is_branch());
        Instr {
            class,
            pc,
            mem: None,
            branch: None,
        }
    }

    /// A memory instruction.
    pub fn mem(class: InstrClass, pc: u64, mem: MemRef) -> Self {
        debug_assert!(class.is_memory());
        Instr {
            class,
            pc,
            mem: Some(mem),
            branch: None,
        }
    }

    /// A branch instruction.
    pub fn branch(class: InstrClass, pc: u64, branch: BranchRef) -> Self {
        debug_assert!(class.is_branch());
        Instr {
            class,
            pc,
            mem: None,
            branch: Some(branch),
        }
    }

    /// Virtual instruction page (4 KiB pages).
    pub fn page(&self) -> u64 {
        self.pc >> 12
    }

    /// Cache-line address of the instruction fetch (64-byte lines).
    pub fn fetch_line(&self) -> u64 {
        self.pc >> 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(InstrClass::Load.is_memory());
        assert!(InstrClass::StoreExclusive.is_memory());
        assert!(InstrClass::StoreExclusive.is_store());
        assert!(!InstrClass::IntAlu.is_memory());
        assert!(InstrClass::Return.is_branch());
        assert!(InstrClass::Call.is_branch());
        assert!(!InstrClass::Barrier.is_branch());
        assert!(!InstrClass::Load.is_store());
    }

    #[test]
    fn memref_builders() {
        let m = MemRef::load(0x1234, 8)
            .with_unaligned(true)
            .with_shared(true);
        assert!(!m.is_store);
        assert!(m.unaligned);
        assert!(m.shared);
        let s = MemRef::store(0x4000, 4);
        assert!(s.is_store);
        assert_eq!(s.page(), 4);
    }

    #[test]
    fn pages_and_lines() {
        let i = Instr::alu(InstrClass::IntAlu, 0x2_1040);
        assert_eq!(i.page(), 0x21);
        assert_eq!(i.fetch_line(), 0x2_1040 >> 6);
        let m = MemRef::load(0xFFF, 4);
        assert_eq!(m.page(), 0);
        let m = MemRef::load(0x1000, 4);
        assert_eq!(m.page(), 1);
    }

    #[test]
    fn constructors_attach_metadata() {
        let b = Instr::branch(
            InstrClass::Branch,
            0x100,
            BranchRef {
                static_id: 7,
                taken: true,
                target_page: 3,
            },
        );
        assert_eq!(b.branch.unwrap().static_id, 7);
        assert!(b.mem.is_none());
        let m = Instr::mem(InstrClass::Store, 0x104, MemRef::store(0x9000, 4));
        assert!(m.mem.unwrap().is_store);
        assert!(m.branch.is_none());
    }
}
