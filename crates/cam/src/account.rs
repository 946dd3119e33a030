//! What a CAM transaction reports, written once for every interconnect.
//!
//! A CAM is cycle-accurate only at transaction boundaries (paper §3), so
//! every family — shared bus, crossbar, mesh NoC — reports the same facts
//! about a finished transaction: when it was requested, first granted and
//! completed, how long it occupied the interconnect, and how deep the grant
//! queue was. `Book::settle` turns those facts into the [`BusStats`]
//! update, the `bus.*` metric families, the `Bus` `grant` and `read`/`write`
//! txn spans and the [`TxTiming`] of the response. A family adds only its
//! own counters, updated under the same lock.

use std::sync::{Arc, Mutex, MutexGuard};

use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::{SimDur, SimTime};
use shiptlm_kernel::txn::{TxnLevel, TxnSpan};
use shiptlm_ocp::error::OcpError;
use shiptlm_ocp::payload::{OcpCommand, OcpRequest, OcpResponse, TxTiming};
use shiptlm_ocp::tl::{MasterId, OcpTarget};

use crate::bus::BusStats;

/// A communication architecture model: an OCP target that accounts every
/// transaction it carries.
pub trait Cam: OcpTarget {
    /// A snapshot of the accumulated statistics.
    fn stats(&self) -> BusStats;

    /// The interconnect clock period.
    fn clock(&self) -> SimDur;
}

/// One transaction in flight, as its boundaries are passed.
pub(crate) struct Transfer {
    pub(crate) master: MasterId,
    pub(crate) is_read: bool,
    /// Payload bytes.
    pub(crate) len: usize,
    /// When the master issued the request.
    pub(crate) requested: SimTime,
    /// First grant.
    pub(crate) granted: SimTime,
    /// Time the interconnect was occupied on this transaction's behalf.
    pub(crate) busy: SimDur,
    /// Grant queue depth seen by the first request (including itself).
    pub(crate) queue_depth: usize,
}

impl Transfer {
    /// Opens the record of `req`, requested now by `master`.
    pub(crate) fn begin(sim: &SimHandle, master: MasterId, req: &OcpRequest) -> Self {
        let now = sim.now();
        Transfer {
            master,
            is_read: matches!(req.cmd, OcpCommand::Read { .. }),
            len: req.cmd.len(),
            requested: now,
            granted: now,
            busy: SimDur::ZERO,
            queue_depth: 0,
        }
    }
}

/// The accounts of one interconnect: the common [`BusStats`] and the
/// family's own counters `X`, behind one lock.
pub(crate) struct Book<X> {
    /// Interned interconnect name for the metrics registry and recorder.
    label: Arc<str>,
    clock: SimDur,
    stats: Mutex<(BusStats, X)>,
}

impl<X: Default + Clone> Book<X> {
    pub(crate) fn new(name: &str, clock: SimDur) -> Self {
        Book {
            label: Arc::from(name),
            clock,
            stats: Mutex::new(Default::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, (BusStats, X)> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A snapshot of the common statistics.
    pub(crate) fn stats(&self) -> BusStats {
        self.lock().0.clone()
    }

    /// A snapshot of the family's own counters.
    pub(crate) fn family(&self) -> X {
        self.lock().1.clone()
    }

    /// Clears both.
    pub(crate) fn reset(&self) {
        *self.lock() = Default::default();
    }

    /// Settles a transaction that ends now: updates the statistics and,
    /// under the same lock, the family counters through `family` (told
    /// whether the transaction succeeded); records the `bus.*` metrics plus
    /// each non-zero family counter in `counters`, then the `grant` and
    /// `read`/`write` spans, stamped with the process running the
    /// transaction; and stamps the response's [`TxTiming`].
    pub(crate) fn settle(
        &self,
        sim: &SimHandle,
        t: Transfer,
        result: Result<OcpResponse, OcpError>,
        family: impl FnOnce(&mut X, bool),
        counters: &[(&'static str, u64)],
    ) -> Result<OcpResponse, OcpError> {
        let end = sim.now();
        let wait_cycles = t.granted.since(t.requested) / self.clock;
        let total_cycles = end.since(t.requested) / self.clock;
        {
            let mut guard = self.lock();
            let (s, x) = &mut *guard;
            match &result {
                Ok(_) => {
                    s.transactions += 1;
                    if t.is_read {
                        s.reads += 1;
                    }
                    s.bytes += t.len as u64;
                    s.latency_cycles.record(total_cycles as f64);
                    s.wait_cycles.record(wait_cycles);
                    s.busy += t.busy;
                    let m = s.per_master.entry(t.master.0).or_default();
                    m.transactions += 1;
                    m.bytes += t.len as u64;
                    m.wait_cycles.record(wait_cycles as f64);
                }
                Err(_) => s.errors += 1,
            }
            family(x, result.is_ok());
        }

        if sim.metrics_enabled() {
            let m = sim.metrics();
            m.counter_add("bus.txns", &self.label, 1, end);
            m.counter_add("bus.bytes", &self.label, t.len as u64, end);
            // Busy = granted occupancy; per-window busy/window is the
            // utilization-over-time series the sweep ranks on.
            m.span_record("bus.busy", &self.label, t.granted, end);
            m.gauge_set(
                "bus.queue_depth",
                &self.label,
                t.queue_depth as u64,
                t.requested,
            );
            m.observe(
                "bus.grant_wait_ns",
                &self.label,
                t.granted.since(t.requested).as_ns(),
            );
            for &(family, n) in counters {
                if n > 0 {
                    m.counter_add(family, &self.label, n, end);
                }
            }
        }

        if sim.txn_enabled() {
            // Two spans per transaction: arbitration wait until the first
            // grant, then everything up to completion.
            sim.txn_record(TxnSpan {
                level: TxnLevel::Bus,
                op: "grant",
                resource: &self.label,
                start: t.requested,
                end: t.granted,
                bytes: 0,
                ok: true,
            });
            sim.txn_record(TxnSpan {
                level: TxnLevel::Bus,
                op: if t.is_read { "read" } else { "write" },
                resource: &self.label,
                start: t.granted,
                end,
                bytes: t.len,
                ok: result.is_ok(),
            });
        }

        result.map(|mut resp| {
            resp.timing = TxTiming {
                start: t.requested,
                end,
                total_cycles,
                wait_cycles,
            };
            resp
        })
    }
}
