//! AMBA AHB protocol vocabulary of the shared bus.
//!
//! AHB is a [`BusConfig::ahb`](crate::bus::BusConfig::ahb) preset of the one
//! [`CcatbBus`](crate::bus::CcatbBus); SPLIT and RETRY are described there.
//! This module holds what is AHB-specific about a transfer: its HBURST
//! classification (SINGLE / INCR / WRAP4 / WRAP8 / WRAP16), the
//! wrapping-address sequence, and the counters the bus keeps of both. Burst
//! classification and address math are pure functions ([`burst_kind`],
//! [`wrap_addresses`]), so they are unit-testable without a simulation.

/// AHB burst classification (beats per AHB HBURST encoding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AhbBurst {
    /// One beat.
    Single,
    /// Incrementing burst of unspecified length.
    Incr,
    /// 4-beat wrapping burst.
    Wrap4,
    /// 8-beat wrapping burst.
    Wrap8,
    /// 16-beat wrapping burst.
    Wrap16,
}

impl AhbBurst {
    /// The HBURST mnemonic.
    pub fn label(self) -> &'static str {
        match self {
            AhbBurst::Single => "SINGLE",
            AhbBurst::Incr => "INCR",
            AhbBurst::Wrap4 => "WRAP4",
            AhbBurst::Wrap8 => "WRAP8",
            AhbBurst::Wrap16 => "WRAP16",
        }
    }
}

/// Classifies a burst of `beats` beats: one beat is SINGLE, a 4/8/16-beat
/// burst is WRAPn when `wrap_bursts` is set, everything else INCR.
pub fn burst_kind(beats: u64, wrap_bursts: bool) -> AhbBurst {
    match beats {
        0 | 1 => AhbBurst::Single,
        4 if wrap_bursts => AhbBurst::Wrap4,
        8 if wrap_bursts => AhbBurst::Wrap8,
        16 if wrap_bursts => AhbBurst::Wrap16,
        _ => AhbBurst::Incr,
    }
}

/// The beat-address sequence of an AHB wrapping burst: addresses increment
/// by `width` and wrap at the `beats * width`-aligned boundary containing
/// `start` — beat `i` of WRAP4 at `0x38` on a 4-byte bus is
/// `0x38, 0x3C, 0x30, 0x34`.
pub fn wrap_addresses(start: u64, beats: u64, width: usize) -> Vec<u64> {
    let width = width.max(1) as u64;
    let span = beats.saturating_mul(width);
    if span == 0 {
        return Vec::new();
    }
    let boundary = (start / span) * span;
    (0..beats)
        .map(|i| boundary + ((start - boundary) + i * width) % span)
        .collect()
}

/// AHB protocol counters a [`CcatbBus`](crate::bus::CcatbBus) keeps beside
/// its common [`BusStats`](crate::bus::BusStats); splits and retries stay
/// zero unless the bus configuration enables them.
#[derive(Debug, Clone, Default)]
pub struct AhbStats {
    /// SPLIT responses issued (one per transfer when
    /// [`BusConfig::split_slaves`](crate::bus::BusConfig::split_slaves) is
    /// set).
    pub splits: u64,
    /// Re-grants of parked split masters (equals `splits` for completed
    /// transfers).
    pub split_regrants: u64,
    /// RETRY early-burst terminations (burst segments beyond the first
    /// grant's beat budget).
    pub retries: u64,
    /// SINGLE transfers.
    pub singles: u64,
    /// Unspecified-length incrementing bursts.
    pub incrs: u64,
    /// 4-beat wrapping bursts.
    pub wrap4: u64,
    /// 8-beat wrapping bursts.
    pub wrap8: u64,
    /// 16-beat wrapping bursts.
    pub wrap16: u64,
}

impl AhbStats {
    pub(crate) fn record_burst(&mut self, kind: AhbBurst) {
        match kind {
            AhbBurst::Single => self.singles += 1,
            AhbBurst::Incr => self.incrs += 1,
            AhbBurst::Wrap4 => self.wrap4 += 1,
            AhbBurst::Wrap8 => self.wrap8 += 1,
            AhbBurst::Wrap16 => self.wrap16 += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_kind_follows_hburst_encoding() {
        assert_eq!(burst_kind(0, true), AhbBurst::Single);
        assert_eq!(burst_kind(1, true), AhbBurst::Single);
        assert_eq!(burst_kind(4, true), AhbBurst::Wrap4);
        assert_eq!(burst_kind(8, true), AhbBurst::Wrap8);
        assert_eq!(burst_kind(16, true), AhbBurst::Wrap16);
        assert_eq!(burst_kind(2, true), AhbBurst::Incr);
        assert_eq!(burst_kind(5, true), AhbBurst::Incr);
        assert_eq!(burst_kind(32, true), AhbBurst::Incr);
        // With wrap classification off, everything multi-beat is INCR.
        assert_eq!(burst_kind(4, false), AhbBurst::Incr);
        assert_eq!(burst_kind(16, false), AhbBurst::Incr);
    }

    #[test]
    fn wrap_addresses_wrap_at_the_aligned_boundary() {
        // WRAP4 on a 4-byte bus starting mid-block: wraps at 16B.
        assert_eq!(wrap_addresses(0x38, 4, 4), vec![0x38, 0x3C, 0x30, 0x34]);
        // Aligned start never wraps.
        assert_eq!(wrap_addresses(0x40, 4, 4), vec![0x40, 0x44, 0x48, 0x4C]);
        // WRAP8 on an 8-byte bus: 64-byte boundary.
        assert_eq!(
            wrap_addresses(0x70, 8, 8),
            vec![0x70, 0x78, 0x40, 0x48, 0x50, 0x58, 0x60, 0x68]
        );
        // Degenerate inputs stay total.
        assert_eq!(wrap_addresses(0x10, 0, 4), Vec::<u64>::new());
        assert_eq!(wrap_addresses(0x10, 1, 0), vec![0x10]);
    }

    #[test]
    fn wrap_addresses_cover_the_block_exactly_once() {
        for start_beat in 0..16u64 {
            let start = 0x100 + start_beat * 4;
            let mut addrs = wrap_addresses(start, 16, 4);
            addrs.sort_unstable();
            let expected: Vec<u64> = (0..16).map(|i| 0x100 + i * 4).collect();
            assert_eq!(addrs, expected, "start {start:#x}");
        }
    }
}
