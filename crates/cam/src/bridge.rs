//! A bus-to-bus bridge (e.g. CoreConnect PLB↔OPB).

use std::fmt;
use std::sync::Arc;

use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::SimDur;
use shiptlm_ocp::payload::OcpRequest;
use shiptlm_ocp::tl::{MasterId, OcpFuture, OcpTarget};

/// Forwards transactions from one bus onto another, adding a fixed crossing
/// latency. Map the bridge as a slave range on the upstream bus (usually
/// with `relative = false`, so downstream addresses pass through unchanged).
pub struct Bridge {
    name: String,
    /// Latency added per crossing.
    latency: SimDur,
    /// The downstream interconnect.
    downstream: Arc<dyn OcpTarget>,
    /// Master identity used on the downstream bus.
    downstream_id: MasterId,
}

impl Bridge {
    /// Creates a bridge onto `downstream`, appearing there as
    /// `downstream_id`.
    pub fn new(
        name: &str,
        latency: SimDur,
        downstream: Arc<dyn OcpTarget>,
        downstream_id: MasterId,
    ) -> Self {
        Bridge {
            name: name.to_string(),
            latency,
            downstream,
            downstream_id,
        }
    }
}

impl OcpTarget for Bridge {
    fn transact<'a>(
        &'a self,
        sim: &'a SimHandle,
        _master: MasterId,
        req: OcpRequest,
    ) -> OcpFuture<'a> {
        Box::pin(async move {
            if !self.latency.is_zero() {
                sim.wait_for(self.latency).await;
            }
            self.downstream.transact(sim, self.downstream_id, req).await
        })
    }

    fn target_name(&self) -> String {
        self.name.clone()
    }
}

impl fmt::Debug for Bridge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Bridge")
            .field("name", &self.name)
            .field("latency", &self.latency)
            .finish()
    }
}
