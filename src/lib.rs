//! Facade crate re-exporting the comimo workspace public API.
pub use comimo_campaign as campaign;
pub use comimo_channel as channel;
pub use comimo_chaos as chaos;
pub use comimo_core as core;
pub use comimo_dsp as dsp;
pub use comimo_energy as energy;
pub use comimo_faults as faults;
pub use comimo_math as math;
pub use comimo_net as net;
pub use comimo_sensing as sensing;
pub use comimo_sim as sim;
pub use comimo_stbc as stbc;
pub use comimo_testbed as testbed;
