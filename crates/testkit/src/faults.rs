//! Fault injection at the SHIP endpoint boundary.
//!
//! A [`FaultPlan`] compiles into a [`PortHook`] that interposes a
//! [`FaultyEndpoint`] between PE code and the real transport (the in-memory
//! channel at the component-assembly level, the SHIP↔OCP wrapper / mailbox
//! adapter at the mapped levels). Faults target `send`, the one call every
//! motif exercises:
//!
//! * **drop** — the payload vanishes; the peer must surface a
//!   [`ShipError::Timeout`](shiptlm_ship::error::ShipError) (component
//!   assembly with a call timeout) or a bounded run with a deadlock
//!   diagnosis naming the starving PE — never a silent pass.
//! * **duplicate** — the payload is delivered twice; receivers observe a
//!   shifted stream.
//! * **delay** — the payload is held for a fixed simulated duration; must
//!   *not* change any content stream (timing-only faults are invisible to
//!   the equivalence relation).
//! * **corrupt** — one payload byte is flipped; with in-app checks disabled
//!   this is exactly the "silent corruption" the cross-level differential
//!   check must catch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use shiptlm_explore::mapper::{PortHook, PortSite};
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::SimDur;
use shiptlm_ship::bytes::ShipBytes;
use shiptlm_ship::channel::{ShipEndpoint, ShipFuture, ShipPort};
use shiptlm_ship::error::ShipError;

use shiptlm_kernel::json::Json;

/// What to do to the targeted `send`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Swallow the `nth` (0-based) send on the channel.
    DropSend {
        /// Index of the send to drop.
        nth: u64,
    },
    /// Deliver the `nth` send twice.
    DuplicateSend {
        /// Index of the send to duplicate.
        nth: u64,
    },
    /// Hold the `nth` send for `by` of simulated time before delivery.
    DelaySend {
        /// Index of the send to delay.
        nth: u64,
        /// Added simulated delay.
        by: SimDur,
    },
    /// XOR the last payload byte of the `nth` send with `0x01` (wire
    /// length prefixes stay intact, so the message still decodes).
    CorruptSend {
        /// Index of the send to corrupt.
        nth: u64,
    },
}

impl FaultKind {
    fn label(&self) -> &'static str {
        match self {
            FaultKind::DropSend { .. } => "drop",
            FaultKind::DuplicateSend { .. } => "duplicate",
            FaultKind::DelaySend { .. } => "delay",
            FaultKind::CorruptSend { .. } => "corrupt",
        }
    }
}

/// Which abstraction levels the fault is injected at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Only at the untimed component-assembly level.
    Untimed,
    /// Only at the mapped (CCATB / pin-accurate / partitioned) levels —
    /// the CAM mailbox boundary. This is the cross-level-divergence site:
    /// the reference run stays clean.
    Mapped,
    /// At every level.
    All,
}

impl FaultSite {
    fn applies(self, mapped: bool) -> bool {
        match self {
            FaultSite::Untimed => !mapped,
            FaultSite::Mapped => mapped,
            FaultSite::All => true,
        }
    }
}

/// A complete fault to inject into one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Channel to attack.
    pub channel: String,
    /// Which send, and what happens to it.
    pub kind: FaultKind,
    /// Which levels are attacked.
    pub site: FaultSite,
}

impl FaultPlan {
    /// Compiles the plan into a [`PortHook`] for
    /// [`RunOptions::with_port_hook`](shiptlm_explore::mapper::RunOptions).
    ///
    /// Only the *sending* side of the targeted channel is wrapped; faults
    /// fire on the matching send index regardless of which PE holds the
    /// port, because only one side of a SHIP channel ever sends.
    pub fn hook(&self) -> PortHook {
        let plan = self.clone();
        let counter = Arc::new(AtomicU64::new(0));
        Arc::new(move |site: PortSite<'_>, port: ShipPort| {
            if site.channel != plan.channel || !plan.site.applies(site.mapped) {
                return port;
            }
            let kind = plan.kind;
            let counter = Arc::clone(&counter);
            port.map_endpoint(|inner| {
                Arc::new(FaultyEndpoint {
                    inner,
                    kind,
                    sends: counter,
                }) as Arc<dyn ShipEndpoint>
            })
        })
    }

    /// JSON form for corpus files.
    pub fn to_json(&self) -> Json {
        let (nth, extra) = match self.kind {
            FaultKind::DropSend { nth }
            | FaultKind::DuplicateSend { nth }
            | FaultKind::CorruptSend { nth } => (nth, None),
            FaultKind::DelaySend { nth, by } => (nth, Some(by.as_ps())),
        };
        let mut fields = vec![
            ("channel", Json::str(self.channel.clone())),
            ("kind", Json::str(self.kind.label())),
            ("nth", Json::u64_str(nth)),
            (
                "site",
                Json::str(match self.site {
                    FaultSite::Untimed => "untimed",
                    FaultSite::Mapped => "mapped",
                    FaultSite::All => "all",
                }),
            ),
        ];
        if let Some(ps) = extra {
            fields.push(("delay_ps", Json::u64_str(ps)));
        }
        Json::obj(fields)
    }

    /// Rebuilds a plan from its [`to_json`](Self::to_json) form.
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json(v: &Json) -> Result<FaultPlan, String> {
        let channel = v
            .get("channel")
            .and_then(Json::as_str)
            .ok_or("fault missing 'channel'")?
            .to_string();
        let nth = v
            .get("nth")
            .and_then(Json::as_u64_str)
            .ok_or("fault missing 'nth'")?;
        let kind = match v.get("kind").and_then(Json::as_str) {
            Some("drop") => FaultKind::DropSend { nth },
            Some("duplicate") => FaultKind::DuplicateSend { nth },
            Some("corrupt") => FaultKind::CorruptSend { nth },
            Some("delay") => FaultKind::DelaySend {
                nth,
                by: SimDur::ps(
                    v.get("delay_ps")
                        .and_then(Json::as_u64_str)
                        .ok_or("delay fault missing 'delay_ps'")?,
                ),
            },
            other => return Err(format!("unknown fault kind {other:?}")),
        };
        let site = match v.get("site").and_then(Json::as_str) {
            Some("untimed") => FaultSite::Untimed,
            Some("mapped") => FaultSite::Mapped,
            Some("all") => FaultSite::All,
            other => return Err(format!("unknown fault site {other:?}")),
        };
        Ok(FaultPlan {
            channel,
            kind,
            site,
        })
    }
}

/// A [`ShipEndpoint`] proxy that applies one [`FaultKind`] to the matching
/// send and forwards everything else untouched.
pub struct FaultyEndpoint {
    inner: Arc<dyn ShipEndpoint>,
    kind: FaultKind,
    sends: Arc<AtomicU64>,
}

impl std::fmt::Debug for FaultyEndpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultyEndpoint")
            .field("kind", &self.kind)
            .field("sends", &self.sends.load(Ordering::Relaxed))
            .finish()
    }
}

fn flip_last_byte(bytes: &ShipBytes) -> ShipBytes {
    let mut v = bytes.to_vec();
    if let Some(last) = v.last_mut() {
        *last ^= 0x01;
    }
    ShipBytes::from(v)
}

impl FaultyEndpoint {
    async fn send(&self, sim: &SimHandle, bytes: ShipBytes) -> Result<(), ShipError> {
        let n = self.sends.fetch_add(1, Ordering::SeqCst);
        match self.kind {
            FaultKind::DropSend { nth } if n == nth => Ok(()),
            FaultKind::DuplicateSend { nth } if n == nth => {
                self.inner.send_bytes(sim, bytes.clone()).await?;
                self.inner.send_bytes(sim, bytes).await
            }
            FaultKind::DelaySend { nth, by } if n == nth => {
                if !by.is_zero() {
                    sim.wait_for(by).await;
                }
                self.inner.send_bytes(sim, bytes).await
            }
            FaultKind::CorruptSend { nth } if n == nth => {
                self.inner.send_bytes(sim, flip_last_byte(&bytes)).await
            }
            _ => self.inner.send_bytes(sim, bytes).await,
        }
    }
}

impl ShipEndpoint for FaultyEndpoint {
    fn send_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        Box::pin(self.send(sim, bytes))
    }

    fn recv_bytes<'a>(&'a self, sim: &'a SimHandle) -> ShipFuture<'a, ShipBytes> {
        self.inner.recv_bytes(sim)
    }

    fn request_bytes<'a>(
        &'a self,
        sim: &'a SimHandle,
        bytes: ShipBytes,
    ) -> ShipFuture<'a, ShipBytes> {
        self.inner.request_bytes(sim, bytes)
    }

    fn reply_bytes<'a>(&'a self, sim: &'a SimHandle, bytes: ShipBytes) -> ShipFuture<'a, ()> {
        self.inner.reply_bytes(sim, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_json_roundtrip() {
        for plan in [
            FaultPlan {
                channel: "m0.ch0".into(),
                kind: FaultKind::DropSend { nth: 2 },
                site: FaultSite::Untimed,
            },
            FaultPlan {
                channel: "m1.ch3".into(),
                kind: FaultKind::DelaySend {
                    nth: 0,
                    by: SimDur::us(7),
                },
                site: FaultSite::Mapped,
            },
            FaultPlan {
                channel: "x".into(),
                kind: FaultKind::CorruptSend { nth: 1 },
                site: FaultSite::All,
            },
        ] {
            let text = plan.to_json().to_string();
            let back = FaultPlan::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, plan);
        }
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let b = ShipBytes::from(vec![1u8, 2, 3]);
        let c = flip_last_byte(&b);
        assert_eq!(c.as_slice(), &[1, 2, 2]);
        assert!(flip_last_byte(&ShipBytes::new()).is_empty());
    }
}
