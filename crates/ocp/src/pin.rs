//! Pin-accurate OCP interface: signal bundle plus synthesizable-style master
//! and slave FSMs.
//!
//! This is the protocol level the paper's *accessors* speak ("since
//! accessors are implemented as RTL, they are fully synthesizable"). All
//! FSMs are clocked processes: on every rising edge they *sample* the
//! pre-edge signal values and *drive* new values that become visible after
//! the edge — exactly flip-flop semantics, hence race-free.
//!
//! The master FSM, the slave FSM and the [`OcpMonitor`] are async kernel
//! processes: the thread holding control polls them inline on each edge,
//! so no clock cycle costs an OS-thread handoff. The slave FSM runs the
//! backend's [`OcpTarget::transact`] inside its own process.
//!
//! Handshake rules (a valid/ready discipline over OCP signal names):
//!
//! * A request beat transfers on an edge where `MCmd != IDLE` **and**
//!   `SCmdAccept` are both sampled high.
//! * Read data returns as one `SResp = DVA` + `SData` cycle per word.
//! * A write burst is acknowledged by a single `SResp = DVA` cycle after the
//!   last beat is accepted.

use std::fmt;
use std::sync::{Arc, Mutex};

use shiptlm_kernel::clock::Clock;
use shiptlm_kernel::event::Event;
use shiptlm_kernel::fifo::Fifo;
use shiptlm_kernel::signal::Signal;
use shiptlm_kernel::sim::SimHandle;
use shiptlm_kernel::time::SimDur;

use crate::payload::{MCmd, OcpCommand, OcpRequest, OcpResponse, SResp, TxTiming};
use crate::tl::{MasterId, OcpFuture, OcpTarget};

/// Data-path word width of the pin interface, in bytes.
pub const WORD_BYTES: usize = 8;

/// The OCP basic signal group (64-bit data path).
#[derive(Clone)]
pub struct OcpPins {
    /// Master command (`MCmd` encoding).
    pub mcmd: Signal<u8>,
    /// Master address.
    pub maddr: Signal<u64>,
    /// Master write data.
    pub mdata: Signal<u64>,
    /// Remaining beats in the current burst (this beat included).
    pub mburst_len: Signal<u32>,
    /// Total byte length of the burst (drives partial last beats; the OCP
    /// `MByteEn` role collapsed to a count).
    pub mbyte_cnt: Signal<u32>,
    /// Slave command accept.
    pub scmd_accept: Signal<bool>,
    /// Slave response (`SResp` encoding).
    pub sresp: Signal<u8>,
    /// Slave read data.
    pub sdata: Signal<u64>,
}

impl OcpPins {
    /// Creates an idle pin bundle named `prefix.*`.
    pub fn new(sim: &SimHandle, prefix: &str) -> Self {
        OcpPins {
            mcmd: sim.signal(&format!("{prefix}.MCmd"), MCmd::Idle.encode()),
            maddr: sim.signal(&format!("{prefix}.MAddr"), 0),
            mdata: sim.signal(&format!("{prefix}.MData"), 0),
            mburst_len: sim.signal(&format!("{prefix}.MBurstLen"), 0),
            mbyte_cnt: sim.signal(&format!("{prefix}.MByteCnt"), 0),
            scmd_accept: sim.signal(&format!("{prefix}.SCmdAccept"), false),
            sresp: sim.signal(&format!("{prefix}.SResp"), SResp::Null.encode()),
            sdata: sim.signal(&format!("{prefix}.SData"), 0),
        }
    }

    /// Registers all pins in the VCD trace under `prefix.*`.
    pub fn trace(&self, prefix: &str) {
        self.mcmd.trace(&format!("{prefix}.MCmd"));
        self.maddr.trace(&format!("{prefix}.MAddr"));
        self.mdata.trace(&format!("{prefix}.MData"));
        self.mburst_len.trace(&format!("{prefix}.MBurstLen"));
        self.mbyte_cnt.trace(&format!("{prefix}.MByteCnt"));
        self.scmd_accept.trace(&format!("{prefix}.SCmdAccept"));
        self.sresp.trace(&format!("{prefix}.SResp"));
        self.sdata.trace(&format!("{prefix}.SData"));
    }
}

impl fmt::Debug for OcpPins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OcpPins")
            .field("mcmd", &self.mcmd.read())
            .field("maddr", &self.maddr.read())
            .field("scmd_accept", &self.scmd_accept.read())
            .field("sresp", &self.sresp.read())
            .finish()
    }
}

fn words_of(data: &[u8]) -> Vec<u64> {
    data.chunks(WORD_BYTES)
        .map(|c| {
            let mut w = [0u8; WORD_BYTES];
            w[..c.len()].copy_from_slice(c);
            u64::from_le_bytes(w)
        })
        .collect()
}

fn bytes_of(words: &[u64], len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    for w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out.truncate(len);
    out
}

/// Pin-level OCP master: drives the M-side of a pin bundle from a request
/// queue.
///
/// It implements [`OcpTarget`], so processing elements use the exact same
/// [`OcpMasterPort`](crate::tl::OcpMasterPort) API as at the transaction
/// level — only the binding changes when the design is refined to pins.
pub struct PinOcpMaster {
    req_q: Fifo<OcpRequest>,
    resp_q: Fifo<OcpResponse>,
    name: String,
}

impl PinOcpMaster {
    /// Spawns the master FSM driving `pins`, clocked by `clk`.
    pub fn new(sim: &SimHandle, name: &str, pins: OcpPins, clk: &Clock) -> Arc<Self> {
        let req_q = sim.fifo::<OcpRequest>(&format!("{name}.req"), 4);
        let resp_q = sim.fifo::<OcpResponse>(&format!("{name}.resp"), 4);
        let master = Arc::new(PinOcpMaster {
            req_q: req_q.clone(),
            resp_q: resp_q.clone(),
            name: name.to_string(),
        });
        let fsm = master_fsm(
            sim.clone(),
            pins,
            clk.posedge().clone(),
            clk.period(),
            req_q,
            resp_q,
        );
        sim.spawn_async(&format!("{name}.fsm"), fsm);
        master
    }
}

async fn master_fsm(
    sim: SimHandle,
    pins: OcpPins,
    posedge: Event,
    period: SimDur,
    req_q: Fifo<OcpRequest>,
    resp_q: Fifo<OcpResponse>,
) {
    loop {
        let req = req_q.read().await;
        let start = sim.now();
        let is_read = matches!(req.cmd, OcpCommand::Read { .. });
        let total_len = req.cmd.len();
        let beats = req.beats(WORD_BYTES);
        let wdata = match &req.cmd {
            OcpCommand::Write { data } => words_of(data),
            OcpCommand::Read { .. } => Vec::new(),
        };

        // --- Request phase: issue each beat and hold until accepted. -----
        let mut accepted = 0u64;
        let mut wait_cycles = 0u64;
        while accepted < beats {
            pins.mcmd.write(req.cmd.mcmd().encode());
            pins.maddr.write(req.addr + accepted * WORD_BYTES as u64);
            pins.mburst_len.write((beats - accepted) as u32);
            pins.mbyte_cnt.write(total_len as u32);
            if !is_read {
                pins.mdata
                    .write(wdata.get(accepted as usize).copied().unwrap_or(0));
            }
            sim.wait(&posedge).await;
            // Sample pre-edge values: did the beat transfer on this edge?
            if pins.scmd_accept.read() && pins.mcmd.read() == req.cmd.mcmd().encode() {
                accepted += 1;
            } else {
                wait_cycles += 1;
            }
        }
        pins.mcmd.write(MCmd::Idle.encode());
        pins.mburst_len.write(0);

        // --- Response phase. ---------------------------------------------
        let mut rwords: Vec<u64> = Vec::new();
        let mut resp_code = SResp::Dva;
        let expected_words = if is_read { beats } else { 1 };
        let mut got = 0u64;
        while got < expected_words {
            sim.wait(&posedge).await;
            match SResp::decode(pins.sresp.read()) {
                Some(SResp::Dva) => {
                    if is_read {
                        rwords.push(pins.sdata.read());
                    }
                    got += 1;
                }
                Some(SResp::Err) | Some(SResp::Fail) => {
                    resp_code = SResp::Err;
                    got = expected_words;
                }
                _ => {}
            }
        }

        let end = sim.now();
        let timing = TxTiming {
            start,
            end,
            total_cycles: end.saturating_since(start) / period,
            wait_cycles,
        };
        let resp = if resp_code != SResp::Dva {
            OcpResponse::error(timing)
        } else if is_read {
            OcpResponse::read_ok(bytes_of(&rwords, total_len), timing)
        } else {
            OcpResponse::write_ok(timing)
        };
        resp_q.write(resp).await;
    }
}

impl OcpTarget for PinOcpMaster {
    fn transact<'a>(
        &'a self,
        _sim: &'a SimHandle,
        _master: MasterId,
        req: OcpRequest,
    ) -> OcpFuture<'a> {
        Box::pin(async move {
            self.req_q.write(req).await;
            Ok(self.resp_q.read().await)
        })
    }

    fn target_name(&self) -> String {
        self.name.clone()
    }
}

impl fmt::Debug for PinOcpMaster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PinOcpMaster")
            .field("name", &self.name)
            .finish()
    }
}

/// Pin-level OCP slave: samples the M-side of a pin bundle and forwards
/// complete bursts to a transaction-level backend.
#[derive(Debug)]
pub struct PinOcpSlave;

impl PinOcpSlave {
    /// Spawns the slave FSM on `pins`, clocked by `clk`, answering through
    /// `backend`. `wait_states` extra cycles are inserted before each beat
    /// is accepted (models slow peripherals). Backend transactions are
    /// issued under `forward_id` (relevant when the backend arbitrates).
    pub fn spawn(
        sim: &SimHandle,
        name: &str,
        pins: OcpPins,
        clk: &Clock,
        backend: Arc<dyn OcpTarget>,
        wait_states: u64,
        forward_id: MasterId,
    ) {
        let fsm = slave_fsm(
            sim.clone(),
            pins,
            clk.posedge().clone(),
            backend,
            wait_states,
            forward_id,
        );
        sim.spawn_async(&format!("{name}.fsm"), fsm);
    }
}

async fn slave_fsm(
    sim: SimHandle,
    pins: OcpPins,
    posedge: Event,
    backend: Arc<dyn OcpTarget>,
    wait_states: u64,
    forward_id: MasterId,
) {
    loop {
        // Wait for a request beat to appear.
        sim.wait(&posedge).await;
        let cmd = MCmd::decode(pins.mcmd.read());
        let Some(cmd @ (MCmd::Read | MCmd::Write)) = cmd else {
            pins.scmd_accept.write(false);
            continue;
        };
        let base = pins.maddr.read();
        let burst = pins.mburst_len.read().max(1) as u64;
        let byte_len = {
            let raw = pins.mbyte_cnt.read() as u64;
            let max = burst * WORD_BYTES as u64;
            // Defensive clamp: a missing/oversized count degrades to whole
            // words, never out-of-burst accesses.
            if raw == 0 || raw > max {
                max
            } else {
                raw
            }
        } as usize;

        // Collect all beats of the burst.
        let mut wwords: Vec<u64> = Vec::new();
        let mut collected = 0u64;
        while collected < burst {
            // Optional wait states before asserting accept.
            for _ in 0..wait_states {
                pins.scmd_accept.write(false);
                sim.wait(&posedge).await;
            }
            pins.scmd_accept.write(true);
            sim.wait(&posedge).await;
            // The edge we just crossed had accept high and (by protocol) the
            // master still driving the beat: transfer happened.
            if cmd == MCmd::Write {
                wwords.push(pins.mdata.read());
            }
            collected += 1;
        }
        pins.scmd_accept.write(false);

        // Execute against the backend (consumes simulated time).
        let req = match cmd {
            MCmd::Write => OcpRequest::write(base, bytes_of(&wwords, byte_len)),
            MCmd::Read => OcpRequest::read(base, byte_len),
            MCmd::Idle => unreachable!(),
        };
        let result = backend.transact(&sim, forward_id, req).await;

        // Drive the response phase.
        match result {
            Ok(resp) if resp.is_ok() && cmd == MCmd::Read => {
                for w in words_of(&resp.data) {
                    pins.sresp.write(SResp::Dva.encode());
                    pins.sdata.write(w);
                    sim.wait(&posedge).await;
                }
            }
            Ok(resp) if resp.is_ok() => {
                pins.sresp.write(SResp::Dva.encode());
                sim.wait(&posedge).await;
            }
            _ => {
                pins.sresp.write(SResp::Err.encode());
                sim.wait(&posedge).await;
            }
        }
        pins.sresp.write(SResp::Null.encode());
    }
}

/// Records of protocol violations found by the [`OcpMonitor`].
#[derive(Debug, Clone, Default)]
pub struct ViolationLog {
    entries: Arc<Mutex<Vec<String>>>,
}

impl ViolationLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        ViolationLog::default()
    }

    /// Number of violations recorded.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when no violations were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All recorded violation messages.
    pub fn to_vec(&self) -> Vec<String> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn push(&self, msg: String) {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(msg);
    }
}

/// A passive pin-protocol checker.
///
/// Samples the pins on every rising edge and records violations of the
/// handshake rules; attach one per pin bundle during verification runs.
#[derive(Debug)]
pub struct OcpMonitor;

impl OcpMonitor {
    /// Spawns the monitor; violations accumulate in the returned log.
    pub fn spawn(sim: &SimHandle, name: &str, pins: OcpPins, clk: &Clock) -> ViolationLog {
        let log = ViolationLog::new();
        let out = log.clone();
        let posedge = clk.posedge().clone();
        let h = sim.clone();
        sim.spawn_async(&format!("{name}.monitor"), async move {
            let mut prev_cmd = MCmd::Idle.encode();
            let mut prev_addr = 0u64;
            let mut prev_accept = false;
            loop {
                h.wait(&posedge).await;
                let cmd = pins.mcmd.read();
                let addr = pins.maddr.read();
                let accept = pins.scmd_accept.read();
                let resp = pins.sresp.read();
                if MCmd::decode(cmd).is_none() {
                    out.push(format!("illegal MCmd encoding {cmd:#x} at {}", h.now()));
                }
                if SResp::decode(resp).is_none() {
                    out.push(format!("illegal SResp encoding {resp:#x} at {}", h.now()));
                }
                // A beat must be held stable until accepted.
                let prev_valid = MCmd::decode(prev_cmd).is_some_and(|c| c != MCmd::Idle);
                if prev_valid && !prev_accept {
                    let still_same = cmd == prev_cmd && addr == prev_addr;
                    if !still_same {
                        out.push(format!(
                            "request beat changed before accept at {} (MCmd {prev_cmd}->{cmd}, MAddr {prev_addr:#x}->{addr:#x})",
                            h.now()
                        ));
                    }
                }
                prev_cmd = cmd;
                prev_addr = addr;
                prev_accept = accept;
            }
        });
        log
    }
}
