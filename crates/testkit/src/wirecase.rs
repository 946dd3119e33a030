//! Binary wire encoding of test cases — the compact sibling of the JSON
//! corpus format in [`crate::corpus`].
//!
//! [`ModelSpec`] and [`Motif`] implement [`ShipSerialize`] directly (they
//! are local types); [`ArchSpec`] is encoded through the free functions
//! [`put_arch`] / [`get_arch`] because both the trait and the type are
//! foreign here. The gateway's binary codec is built from these pieces, so
//! a job captured off the wire can be replayed byte-for-byte through the
//! same decoder CI exercises.
//!
//! Layout notes: every variant-bearing type leads with a `u8` tag;
//! durations travel as picosecond `u64`s; decode errors are classified
//! [`WireError`]s, never panics (see `crates/ship/tests/wire_hardening.rs`
//! for the corruption-robustness contract this format inherits).

use shiptlm_explore::prelude::ArchSpec;
use shiptlm_kernel::time::SimDur;
use shiptlm_ship::prelude::{ByteReader, ByteWriter, ShipSerialize, WireError};

use crate::model::{ModelSpec, Motif};
use shiptlm_cam::prelude::ArbPolicy;
use shiptlm_explore::prelude::BusKind;

impl ShipSerialize for Motif {
    fn serialize(&self, w: &mut ByteWriter) {
        match self {
            Motif::Pipeline {
                stages,
                blocks,
                bytes,
                compute_ns,
            } => {
                w.put_u8(0);
                stages.serialize(w);
                blocks.serialize(w);
                bytes.serialize(w);
                compute_ns.serialize(w);
            }
            Motif::Stream { sizes } => {
                w.put_u8(1);
                sizes.serialize(w);
            }
            Motif::Rpc {
                requests,
                bytes,
                compute_ns,
            } => {
                w.put_u8(2);
                requests.serialize(w);
                bytes.serialize(w);
                compute_ns.serialize(w);
            }
            Motif::FanOut {
                sinks,
                blocks,
                bytes,
            } => {
                w.put_u8(3);
                sinks.serialize(w);
                blocks.serialize(w);
                bytes.serialize(w);
            }
            Motif::FanIn {
                sources,
                blocks,
                bytes,
            } => {
                w.put_u8(4);
                sources.serialize(w);
                blocks.serialize(w);
                bytes.serialize(w);
            }
        }
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(Motif::Pipeline {
                stages: usize::deserialize(r)?,
                blocks: u32::deserialize(r)?,
                bytes: usize::deserialize(r)?,
                compute_ns: u64::deserialize(r)?,
            }),
            1 => Ok(Motif::Stream {
                sizes: Vec::deserialize(r)?,
            }),
            2 => Ok(Motif::Rpc {
                requests: u32::deserialize(r)?,
                bytes: usize::deserialize(r)?,
                compute_ns: u64::deserialize(r)?,
            }),
            3 => Ok(Motif::FanOut {
                sinks: usize::deserialize(r)?,
                blocks: u32::deserialize(r)?,
                bytes: usize::deserialize(r)?,
            }),
            4 => Ok(Motif::FanIn {
                sources: usize::deserialize(r)?,
                blocks: u32::deserialize(r)?,
                bytes: usize::deserialize(r)?,
            }),
            t => Err(WireError::InvalidValue(format!("motif tag {t:#x}"))),
        }
    }
}

impl ShipSerialize for ModelSpec {
    fn serialize(&self, w: &mut ByteWriter) {
        self.name.serialize(w);
        self.seed.serialize(w);
        self.motifs.serialize(w);
        self.app_checks.serialize(w);
    }

    fn deserialize(r: &mut ByteReader<'_>) -> Result<Self, WireError> {
        Ok(ModelSpec {
            name: String::deserialize(r)?,
            seed: u64::deserialize(r)?,
            motifs: Vec::deserialize(r)?,
            app_checks: bool::deserialize(r)?,
        })
    }
}

/// Appends `arch`'s wire representation to `w` (free function because both
/// [`ShipSerialize`] and [`ArchSpec`] are foreign to this crate).
pub fn put_arch(w: &mut ByteWriter, arch: &ArchSpec) {
    match arch.bus {
        BusKind::Plb => w.put_u8(0),
        BusKind::Opb => w.put_u8(1),
        BusKind::Crossbar => w.put_u8(2),
        BusKind::Ahb => w.put_u8(3),
        BusKind::Noc { cols, rows } => {
            w.put_u8(4);
            w.put_u8(cols);
            w.put_u8(rows);
        }
    }
    match arch.arb {
        ArbPolicy::FixedPriority => w.put_u8(0),
        ArbPolicy::RoundRobin => w.put_u8(1),
        ArbPolicy::Tdma { slot, slots } => {
            w.put_u8(2);
            w.put_u64(slot.as_ps());
            slots.serialize(w);
        }
    }
    arch.clock.map(|c| c.as_ps()).serialize(w);
    arch.burst_bytes.serialize(w);
    arch.rx_capacity.serialize(w);
    w.put_u64(arch.poll_interval.as_ps());
    arch.split_slaves.serialize(w);
}

/// Decodes an [`ArchSpec`] previously written by [`put_arch`].
///
/// # Errors
///
/// Returns a classified [`WireError`] on truncated or malformed input.
pub fn get_arch(r: &mut ByteReader<'_>) -> Result<ArchSpec, WireError> {
    let mut arch = match r.get_u8()? {
        0 => ArchSpec::plb(),
        1 => ArchSpec::opb(),
        2 => ArchSpec::crossbar(),
        3 => ArchSpec::ahb(),
        4 => {
            let cols = r.get_u8()?;
            let rows = r.get_u8()?;
            ArchSpec::noc(cols, rows)
        }
        t => return Err(WireError::InvalidValue(format!("bus tag {t:#x}"))),
    };
    arch.arb = match r.get_u8()? {
        0 => ArbPolicy::FixedPriority,
        1 => ArbPolicy::RoundRobin,
        2 => ArbPolicy::Tdma {
            slot: SimDur::ps(r.get_u64()?),
            slots: usize::deserialize(r)?,
        },
        t => return Err(WireError::InvalidValue(format!("arb tag {t:#x}"))),
    };
    arch.clock = Option::<u64>::deserialize(r)?.map(SimDur::ps);
    arch.burst_bytes = usize::deserialize(r)?;
    arch.rx_capacity = usize::deserialize(r)?;
    arch.poll_interval = SimDur::ps(r.get_u64()?);
    arch.split_slaves = bool::deserialize(r)?;
    Ok(arch)
}

/// Appends a list of architectures (u64 count + elements).
pub fn put_archs(w: &mut ByteWriter, archs: &[ArchSpec]) {
    w.put_u64(archs.len() as u64);
    for a in archs {
        put_arch(w, a);
    }
}

/// Decodes a list written by [`put_archs`], with the element count bounded
/// by the remaining input (each architecture occupies ≥ 1 byte).
///
/// # Errors
///
/// Returns a classified [`WireError`] on truncated or malformed input.
pub fn get_archs(r: &mut ByteReader<'_>) -> Result<Vec<ArchSpec>, WireError> {
    let n = r.get_u64()?;
    if n > r.remaining() as u64 {
        return Err(WireError::BadLength(n));
    }
    let mut out = Vec::with_capacity(n.min(r.remaining() as u64).min(1 << 16) as usize);
    for _ in 0..n {
        out.push(get_arch(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::GenConfig;
    use shiptlm_ship::serialize::{from_wire, to_wire};

    fn arch_roundtrip(a: ArchSpec) {
        let mut w = ByteWriter::new();
        put_arch(&mut w, &a);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = get_arch(&mut r).unwrap();
        assert!(r.is_exhausted());
        assert_eq!(back, a);
    }

    #[test]
    fn archs_roundtrip() {
        arch_roundtrip(ArchSpec::plb());
        arch_roundtrip(
            ArchSpec::opb()
                .with_burst(16)
                .with_clock(SimDur::ns(7))
                .with_rx_capacity(3)
                .with_poll(SimDur::ns(250)),
        );
        arch_roundtrip(ArchSpec::crossbar().with_arb(ArbPolicy::Tdma {
            slot: SimDur::us(1),
            slots: 4,
        }));
        arch_roundtrip(ArchSpec::ahb());
        arch_roundtrip(ArchSpec::ahb().with_split(true).with_burst(128));
        arch_roundtrip(ArchSpec::noc(4, 4));
        arch_roundtrip(
            ArchSpec::noc(16, 16)
                .with_arb(ArbPolicy::FixedPriority)
                .with_clock(SimDur::ns(2)),
        );
    }

    #[test]
    fn random_models_roundtrip() {
        let cfg = GenConfig::default();
        for seed in 0..32u64 {
            let spec = ModelSpec::random(seed, &cfg);
            let bytes = to_wire(&spec);
            assert_eq!(from_wire::<ModelSpec>(&bytes).unwrap(), spec);
        }
    }

    #[test]
    fn corrupted_cases_fail_cleanly() {
        let spec = ModelSpec::random(99, &GenConfig::default());
        let clean = to_wire(&spec);
        for cut in 0..clean.len() {
            assert!(from_wire::<ModelSpec>(&clean[..cut]).is_err());
        }
        let mut bad = clean.clone();
        // Poison the first motif tag.
        if let Some(b) = bad.last_mut() {
            *b ^= 0xFF;
        }
        let _ = from_wire::<ModelSpec>(&bad); // must not panic
    }
}
