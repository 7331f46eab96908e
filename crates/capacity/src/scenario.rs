//! Deployment scenarios: how Starlink chooses to serve (or not serve)
//! each cell's demand.
//!
//! The paper's Finding 1 contrasts two policies:
//!
//! * **Full service** — every location is served; cells whose demand
//!   exceeds the four-beam capacity at the FCC's 20:1 benchmark simply
//!   run at higher oversubscription (up to ~35:1 at the peak cell).
//! * **Oversubscription cap** — no cell may exceed a ratio (the FCC's
//!   20:1 for the headline numbers); demand beyond the cap's capacity
//!   is left unserved (99.89 % of locations are still served).

use crate::oversub::Oversubscription;

/// How a deployment treats over-capacity cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeploymentPolicy {
    /// Serve everyone; let oversubscription float upward.
    FullService,
    /// Cap oversubscription; shed demand beyond it.
    OversubCap(Oversubscription),
}

impl DeploymentPolicy {
    /// The paper's "full service deployment".
    pub fn full_service() -> Self {
        DeploymentPolicy::FullService
    }

    /// The paper's "maximum 20:1 oversubscription" deployment.
    pub fn fcc_capped() -> Self {
        DeploymentPolicy::OversubCap(Oversubscription::FCC_CAP)
    }
}
