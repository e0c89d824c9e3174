//! The modular attack pipeline: allocator × hammerer × victim.
//!
//! The paper's core argument is that mitigations must be judged
//! against the *space* of attacks, not a handful of canned patterns
//! (§2–3). This crate factors a Rowhammer attack into the three
//! decisions a real exploit chain makes, each behind a trait, and
//! composes any triple of them into a runnable scenario:
//!
//! - [`ConsecAllocator`] — how the attacker obtains (what it believes
//!   to be) physically adjacent rows through the model OS: one huge
//!   contiguous grab, THP-style buddy chunks, a privileged pfn-leak
//!   oracle, or SPOILER-style contiguity *inference* that only probes
//!   timing through the address map.
//! - [`Hammerer`] — the temporal pattern over the presumed-adjacent
//!   view: single/double/many-sided, seeded TRRespass-style fuzzed
//!   n-sided, decoy-paced counter evasion, or DMA.
//! - [`VictimOrchestrator`] — what "success" means beyond raw flips:
//!   any cross-domain flip, a page-table-entry PFN-field hit, or a
//!   key-material hit where only flips landing in the target buffer's
//!   error matrix count.
//!
//! A declarative [`AttackSpec`] names a triple (`"pfn/double/ptbit"`),
//! [`AttackRun`] executes it on a [`hammertime::Machine`], and the
//! [`experiment::A1`] experiment sweeps a curated cross product
//! against the defense slate. Every workload the pipeline builds is an
//! owned, `Send` stream, so armed attacks migrate in fleet mode like
//! any other tenant: the boxed workload moves to the destination.
//!
//! Determinism: allocators survey through deterministic surfaces
//! (page-table iteration order, pure address-map probes), and fuzzed
//! schedules draw from an explicit [`hammertime_common::DetRng`] fork
//! of the configuration seed — never from ambient machine state — so
//! pipeline output is byte-identical for any `--jobs` value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod experiment;
pub mod hammer;
pub mod pipeline;
pub mod region;
pub mod spec;
pub mod victim;

pub use alloc::{ConsecAllocator, HugepageAlloc, PfnLeakAlloc, SpoilerAlloc, ThpBuddyAlloc};
pub use hammer::{
    DecoyPaced, DmaSided, DoubleSided, FuzzedSided, HammerPlan, Hammerer, ManySided, SingleSided,
};
pub use pipeline::{arm_on_scenario, AttackOutcome, AttackRun, ATTACKER, VICTIM};
pub use region::{ConsecRegion, PresumedRow};
pub use spec::{AllocatorKind, AttackSpec, HammererKind, VictimKind};
pub use victim::{
    FlipCountVictim, KeyMaterialVictim, PageTableBitVictim, VictimOrchestrator, VictimVerdict,
};
