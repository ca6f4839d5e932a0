//! # comimo-chaos — deterministic chaos exploration
//!
//! The robustness layer of the CoMIMO workspace: the paper's physical and
//! protocol guarantees as runtime-checkable invariants, a deterministic
//! chaos explorer that hunts for schedules breaking them, an automatic
//! fault-trace shrinker, and replayable violation artifacts.
//!
//! The pipeline:
//!
//! 1. **[`invariant`]** — the eleven paper invariants behind stable IDs
//!    (`INV-EPA-CEILING`, `INV-NULL-DEPTH`, `INV-DEGRADE-POWER`,
//!    `INV-EVENTQ-TIME`, `INV-CKPT-COUNTS`, `INV-MISSED-DETECT-BUDGET`,
//!    `INV-FUSION-QUORUM`, `INV-REPORT-EPA`, `INV-LLR-DEGRADE-ORDER`,
//!    `INV-BYZ-CONTAINMENT`, `INV-REPUTATION-SANE`), each tied to the
//!    equation or section it encodes and the code path it guards, in a
//!    registry every checker (the explorer, `faultbench`, tests) shares.
//! 2. **[`world`]** — one end-to-end scenario that drives a fault
//!    schedule through the event queue, cooperative spectrum sensing
//!    with hardened decision fusion, all three paradigm degradation
//!    policies, cluster recruitment and a supervised mini-campaign,
//!    checking every invariant at every step. A pure function of
//!    `(config, events)`.
//! 3. **[`explore`]** — randomized-but-deterministic fault campaigns:
//!    run `r` of master seed `s` derives `(run_seed, λ)` with the
//!    workspace's split-stream RNG, scales the nominal fault taxonomy,
//!    and checks the whole horizon. Soak mode batches sweeps under a
//!    wall-clock budget on the campaign layer's stop-flag machinery.
//! 4. **[`shrink`]** — classic ddmin over the violating schedule, down
//!    to a 1-minimal trace that still fires the invariant.
//! 5. **[`artifact`]** — the minimized trace + seed + expected violation
//!    (f64s as raw bits) as JSON; `replay` re-executes it and compares
//!    bit for bit, at any thread count.
//!
//! The `chaos` binary fronts all of it: `chaos explore`, `chaos replay`,
//! `chaos soak`, `chaos list-invariants`.

#![warn(missing_docs)]

pub mod artifact;
pub mod explore;
pub mod invariant;
pub mod shrink;
pub mod world;

/// Maps `f` over `items`, on the rayon pool unless `serial` forces the
/// calling thread. Both paths return outputs in input order, so callers
/// observe identical outputs — the chaos pipeline's load-bearing property.
pub(crate) fn par_map<T, R, F>(items: &[T], serial: bool, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Send + Sync,
{
    if serial {
        items.iter().map(f).collect()
    } else {
        use rayon::prelude::*;
        items.par_iter().map(f).collect()
    }
}

pub use artifact::{replay, ArtifactError, ChaosArtifact, ReplayOutcome, TraceEvent};
pub use explore::{explore, run_params, soak, ExploreConfig, ExploreReport, RunFinding};
pub use invariant::{
    Invariant, InvariantBounds, InvariantRegistry, Observation, Violation, INV_BYZ_CONTAINMENT,
    INV_CKPT_COUNTS, INV_DEGRADE_POWER, INV_EPA_CEILING, INV_EVENTQ_TIME, INV_FUSION_QUORUM,
    INV_LLR_DEGRADE_ORDER, INV_MISSED_DETECT_BUDGET, INV_NULL_DEPTH, INV_REPORT_EPA,
    INV_REPUTATION_SANE,
};
pub use shrink::{ddmin, ShrinkResult};
pub use world::{run_events, ChaosConfig, ChaosOutcome, ChaosWorld};
