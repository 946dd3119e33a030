//! Memory slave model and address-map router.

use std::fmt;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::SimDur;

use crate::error::OcpError;
use crate::payload::{OcpCommand, OcpRequest, OcpResponse, TxTiming};
use crate::tl::{MasterId, OcpFuture, OcpTarget};

/// A flat memory slave with configurable access latency.
///
/// Addresses are local (the router strips the base). Out-of-range accesses
/// produce an `ERR` response rather than a transport error, matching how a
/// real slave would answer.
pub struct Memory {
    name: String,
    data: Mutex<Vec<u8>>,
    /// Fixed latency per transaction.
    access_latency: SimDur,
    /// Additional latency per word (8 bytes).
    per_word: SimDur,
}

impl Memory {
    /// Creates a zero-filled memory of `size` bytes.
    pub fn new(name: &str, size: usize) -> Self {
        Memory {
            name: name.to_string(),
            data: Mutex::new(vec![0; size]),
            access_latency: SimDur::ZERO,
            per_word: SimDur::ZERO,
        }
    }

    /// Sets the fixed and per-word access latency.
    pub fn with_latency(mut self, access: SimDur, per_word: SimDur) -> Self {
        self.access_latency = access;
        self.per_word = per_word;
        self
    }

    /// Memory size in bytes.
    pub fn size(&self) -> usize {
        self.data.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Direct backdoor read (no simulated time), for test setup and
    /// inspection.
    pub fn peek(&self, addr: u64, len: usize) -> Option<Vec<u8>> {
        let d = self.data.lock().unwrap_or_else(|e| e.into_inner());
        let start = usize::try_from(addr).ok()?;
        let end = start.checked_add(len)?;
        d.get(start..end).map(|s| s.to_vec())
    }
}

impl OcpTarget for Memory {
    fn transact<'a>(
        &'a self,
        sim: &'a SimHandle,
        _master: MasterId,
        req: OcpRequest,
    ) -> OcpFuture<'a> {
        Box::pin(async move {
            let start = sim.now();
            let words = req.beats(8);
            let latency = self.access_latency + self.per_word.saturating_mul(words);
            if !latency.is_zero() {
                sim.wait_for(latency).await;
            }
            let timing = TxTiming {
                start,
                end: sim.now(),
                total_cycles: 0,
                wait_cycles: 0,
            };
            let mut d = self.data.lock().unwrap_or_else(|e| e.into_inner());
            let base = req.addr as usize;
            match req.cmd {
                OcpCommand::Read { bytes } => match d.get(base..base + bytes) {
                    Some(s) => Ok(OcpResponse::read_ok(s.to_vec(), timing)),
                    None => Ok(OcpResponse::error(timing)),
                },
                OcpCommand::Write { data } => {
                    let end = base + data.len();
                    if end > d.len() {
                        return Ok(OcpResponse::error(timing));
                    }
                    d[base..end].copy_from_slice(&data);
                    Ok(OcpResponse::write_ok(timing))
                }
            }
        })
    }

    fn target_name(&self) -> String {
        self.name.clone()
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Memory")
            .field("name", &self.name)
            .field("size", &self.size())
            .finish()
    }
}

/// One entry of an address map.
#[derive(Clone)]
struct MapEntry {
    range: Range<u64>,
    target: Arc<dyn OcpTarget>,
    /// Subtract the range base before forwarding (slaves use local
    /// addresses).
    relative: bool,
}

/// Routes requests to slaves by address range — the system memory map.
///
/// ```
/// use std::sync::Arc;
/// use shiptlm_ocp::memory::{Memory, Router};
///
/// let mut router = Router::new("xbar");
/// router.map(0x0000_0000..0x0001_0000, Arc::new(Memory::new("ram", 0x1_0000)), true);
/// router.map(0x4000_0000..0x4000_1000, Arc::new(Memory::new("regs", 0x1000)), true);
/// assert!(router.lookup(0x4000_0010).is_some());
/// assert!(router.lookup(0x9000_0000).is_none());
/// ```
#[derive(Default)]
pub struct Router {
    name: String,
    map: Vec<MapEntry>,
}

impl Router {
    /// Creates an empty router.
    pub fn new(name: &str) -> Self {
        Router {
            name: name.to_string(),
            map: Vec::new(),
        }
    }

    /// Maps an address range to a target. `relative` subtracts the range
    /// start before forwarding.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or overlaps an existing mapping.
    pub fn map(&mut self, range: Range<u64>, target: Arc<dyn OcpTarget>, relative: bool) {
        assert!(range.start < range.end, "empty address range");
        for e in &self.map {
            assert!(
                range.end <= e.range.start || range.start >= e.range.end,
                "address range {:#x}..{:#x} overlaps {:#x}..{:#x}",
                range.start,
                range.end,
                e.range.start,
                e.range.end
            );
        }
        self.map.push(MapEntry {
            range,
            target,
            relative,
        });
    }

    /// The name of the target mapped at `addr`, if any.
    pub fn lookup(&self, addr: u64) -> Option<String> {
        self.map
            .iter()
            .find(|e| e.range.contains(&addr))
            .map(|e| e.target.target_name())
    }

    /// Decodes `req` against the map: finds the entry containing
    /// `req.addr`, checks that the whole burst fits in it and, for a
    /// relative entry, rewrites `req.addr` to the slave-local address.
    /// Returns the entry's index in mapping order and its target, so an
    /// interconnect can keep per-slave state (an output gate, a mesh node)
    /// beside the map.
    ///
    /// # Errors
    ///
    /// [`OcpError::AddressDecode`] when no entry contains the address,
    /// [`OcpError::BadRequest`] when the burst crosses the end of its entry.
    pub fn decode(&self, req: &mut OcpRequest) -> Result<(usize, &Arc<dyn OcpTarget>), OcpError> {
        let addr = req.addr;
        let (index, entry) = self
            .map
            .iter()
            .enumerate()
            .find(|(_, e)| e.range.contains(&addr))
            .ok_or(OcpError::AddressDecode { addr })?;
        let end = addr + req.cmd.len() as u64;
        if end > entry.range.end {
            return Err(OcpError::BadRequest(format!(
                "burst {addr:#x}..{end:#x} crosses mapping boundary {:#x}",
                entry.range.end
            )));
        }
        if entry.relative {
            req.addr -= entry.range.start;
        }
        Ok((index, &entry.target))
    }
}

impl OcpTarget for Router {
    /// Forwards the decoded target's own future, so routing adds no
    /// allocation of its own.
    fn transact<'a>(
        &'a self,
        sim: &'a SimHandle,
        master: MasterId,
        mut req: OcpRequest,
    ) -> OcpFuture<'a> {
        match self.decode(&mut req) {
            Ok((_, target)) => target.transact(sim, master, req),
            Err(e) => Box::pin(std::future::ready(Err(e))),
        }
    }

    fn target_name(&self) -> String {
        self.name.clone()
    }
}

impl fmt::Debug for Router {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Router")
            .field("name", &self.name)
            .field("entries", &self.map.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tl::OcpMasterPort;
    use shiptlm_kernel::prelude::*;

    #[test]
    fn memory_read_write_roundtrip() {
        let sim = Simulation::new();
        let mem = Arc::new(Memory::new("ram", 1024));
        let port = OcpMasterPort::bind(MasterId(0), mem.clone());
        sim.spawn_thread("m", move |ctx| {
            port.write(ctx, 16, vec![1, 2, 3, 4]).unwrap();
            assert_eq!(port.read(ctx, 16, 4).unwrap(), vec![1, 2, 3, 4]);
            port.write_u32(ctx, 64, 0xCAFEBABE).unwrap();
            assert_eq!(port.read_u32(ctx, 64).unwrap(), 0xCAFEBABE);
        });
        sim.run();
        assert_eq!(mem.peek(16, 4).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn memory_latency_consumes_time() {
        let sim = Simulation::new();
        let mem = Arc::new(Memory::new("ram", 1024).with_latency(SimDur::ns(10), SimDur::ns(2)));
        let port = OcpMasterPort::bind(MasterId(0), mem);
        let end = Arc::new(Mutex::new(SimTime::ZERO));
        {
            let end = Arc::clone(&end);
            sim.spawn_thread("m", move |ctx| {
                // 16 bytes = 2 words -> 10 + 2*2 = 14 ns.
                port.read(ctx, 0, 16).unwrap();
                *end.lock().unwrap() = ctx.now();
            });
        }
        sim.run();
        assert_eq!(*end.lock().unwrap(), SimTime::ZERO + SimDur::ns(14));
    }

    #[test]
    fn out_of_range_access_yields_err_response() {
        let sim = Simulation::new();
        let mem = Arc::new(Memory::new("ram", 64));
        let port = OcpMasterPort::bind(MasterId(0), mem);
        let got = Arc::new(Mutex::new(None));
        {
            let got = Arc::clone(&got);
            sim.spawn_thread("m", move |ctx| {
                *got.lock().unwrap() = Some(port.read(ctx, 60, 8));
            });
        }
        sim.run();
        assert!(matches!(
            got.lock().unwrap().take(),
            Some(Err(OcpError::SlaveError { .. }))
        ));
    }

    #[test]
    fn router_translates_addresses() {
        let sim = Simulation::new();
        let ram = Arc::new(Memory::new("ram", 256));
        let mut router = Router::new("map");
        router.map(0x8000_0000..0x8000_0100, ram.clone(), true);
        let port = OcpMasterPort::bind(MasterId(0), Arc::new(router));
        sim.spawn_thread("m", move |ctx| {
            port.write(ctx, 0x8000_0010, vec![0xAA]).unwrap();
        });
        sim.run();
        assert_eq!(ram.peek(0x10, 1).unwrap(), vec![0xAA]);
    }

    #[test]
    fn router_rejects_unmapped_addresses() {
        let sim = Simulation::new();
        let mut router = Router::new("map");
        router.map(0..64, Arc::new(Memory::new("ram", 64)), true);
        let port = OcpMasterPort::bind(MasterId(0), Arc::new(router));
        let got = Arc::new(Mutex::new(None));
        {
            let got = Arc::clone(&got);
            sim.spawn_thread("m", move |ctx| {
                *got.lock().unwrap() = Some(port.read(ctx, 1000, 4));
            });
        }
        sim.run();
        assert_eq!(
            got.lock().unwrap().take(),
            Some(Err(OcpError::AddressDecode { addr: 1000 }))
        );
    }

    #[test]
    fn router_rejects_boundary_crossing_bursts() {
        let sim = Simulation::new();
        let mut router = Router::new("map");
        router.map(0..64, Arc::new(Memory::new("ram", 64)), true);
        let port = OcpMasterPort::bind(MasterId(0), Arc::new(router));
        let got = Arc::new(Mutex::new(None));
        {
            let got = Arc::clone(&got);
            sim.spawn_thread("m", move |ctx| {
                *got.lock().unwrap() = Some(port.read(ctx, 60, 16));
            });
        }
        sim.run();
        assert!(matches!(
            got.lock().unwrap().take(),
            Some(Err(OcpError::BadRequest(_)))
        ));
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_mappings_panic() {
        let mut router = Router::new("map");
        router.map(0..64, Arc::new(Memory::new("a", 64)), true);
        router.map(32..128, Arc::new(Memory::new("b", 96)), true);
    }
}
