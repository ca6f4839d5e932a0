//! # comimo-sim
//!
//! A small deterministic discrete-event simulation engine, built for the
//! CoMIMONet link layer: the paper's Section 2.1 fixes "Carrier Sense
//! Multiple Access with Collision Avoidance (CSMA/CA) is used to avoid the
//! communication collisions at the link layer", and `comimo-net` implements
//! that MAC on top of this engine.
//!
//! * [`time::SimTime`] — integer nanoseconds, total ordering, no float
//!   drift;
//! * [`engine::EventQueue`] — a binary-heap scheduler with deterministic
//!   FIFO tie-breaking and lazy cancellation;
//! * [`medium::Medium`] — a shared broadcast medium over an arbitrary
//!   adjacency relation with carrier sensing and collision detection
//!   (two overlapping transmissions audible at the same receiver destroy
//!   each other there).

pub mod engine;
pub mod medium;
pub mod time;

pub use engine::{EventId, EventQueue, StepProbe};
pub use medium::{Medium, TxId, TxOutcome, UnknownTxId};
pub use time::SimTime;
