//! # comimo-core
//!
//! The paper's primary contribution (Chen, Hong & Chen, *"Efficient
//! Cooperative MIMO Paradigms for Cognitive Radio Networks"*, IJNC 2014):
//! three cooperative-MIMO paradigms for cognitive radio networks.
//!
//! * [`overlay`] — **Algorithm 1**: `m` secondary users cooperatively relay
//!   a primary transmission (SIMO hop `Pt → SUs`, MISO hop `SUs → Pr`),
//!   plus the distance analysis of Section 3 — how far the relays can sit
//!   from `Pt` (`D2`) and `Pr` (`D3`) while matching the direct link's
//!   energy at a 10× better BER (Figure 6).
//! * [`underlay`] — **Algorithm 2**: a cooperative `mt × mr` hop between SU
//!   clusters; peak and total power-amplifier energy per bit (Figure 7)
//!   and the noise-floor margin at primary receivers.
//! * [`interweave`] — **Algorithm 3**: pairwise transmit null-steering with
//!   the phase delay `δ = π(2r·cosα/w − 1)`, the PU-selection heuristic,
//!   and the beam-pattern evaluation (Table 1, Figure 8).
//! * [`pu`] — primary-user entities and a duty-cycle activity model used
//!   by the interweave sensing step;
//! * [`spectrum`] — the sensing half of Algorithm 3 Step 1: energy
//!   detection over licensed channels and the PU-selection policies;
//! * [`cluster_beam`] — the full multi-pair form of Algorithm 3
//!   (`⌊mt/2⌋` pairs acting as virtual antennas of a `⌊mt/2⌋ × mr`
//!   MIMO link).

pub mod cluster_beam;
pub mod interweave;
pub mod overlay;
pub mod pu;
pub mod spectrum;
pub mod underlay;

pub use cluster_beam::{analyze_interweave_link, BeamRepair, ClusterBeamformer};
pub use interweave::{phase_delay, InterweaveConfig, TransmitPair};
pub use overlay::{OverlayAnalysis, OverlayConfig, OverlayDegradation};
pub use pu::{PrimaryPair, PuActivity};
pub use spectrum::{SensingConfig, SpectrumError, SpectrumMap};
pub use underlay::{FallbackStep, UnderlayAnalysis, UnderlayConfig};
