//! Free-running clocks with edge events and cycle counting.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::Event;
use crate::kernel::KernelShared;
use crate::process::ThreadCtx;
use crate::signal::Signal;
use crate::time::{SimDur, SimTime};

/// A 50%-duty-cycle clock.
///
/// The clock starts low; the first rising edge occurs after half a period,
/// rounded down to whole picoseconds, and the high phase lasts the rest of
/// the period, so an odd period still makes one rising edge per period.
/// Cycle-accurate models synchronize on [`posedge`](Clock::posedge) (usually
/// through [`wait_cycles`](Clock::wait_cycles)) and may convert elapsed time
/// to cycles with [`cycles_between`](Clock::cycles_between).
pub struct Clock {
    signal: Signal<bool>,
    posedge: Event,
    negedge: Event,
    period: SimDur,
    rising_edges: Arc<AtomicU64>,
}

impl Clock {
    pub(crate) fn new(kernel: Arc<KernelShared>, name: &str, period: SimDur) -> Self {
        assert!(!period.is_zero(), "clock period must be non-zero");
        assert!(
            period >= Self::MIN_PERIOD,
            "clock period below the 2 ps toggle resolution"
        );
        let signal = Signal::new(Arc::clone(&kernel), name, false);
        let posedge = Event::new(Arc::clone(&kernel), &format!("{name}.posedge"));
        let negedge = Event::new(Arc::clone(&kernel), &format!("{name}.negedge"));
        let tick = Event::new(Arc::clone(&kernel), &format!("{name}.tick"));
        let rising_edges = Arc::new(AtomicU64::new(0));

        let low = period / 2;
        let high = period - low;
        let sig = signal.clone();
        let pos = posedge.clone();
        let neg = negedge.clone();
        let tick_for_method = tick.clone();
        let edges = Arc::clone(&rising_edges);
        let mut level = false;
        kernel.spawn_method(
            &format!("{name}.gen"),
            &[tick.id()],
            true,
            Box::new(move |api| {
                if api.cause().is_none() {
                    // Initialization: schedule the first rising edge.
                    tick_for_method.notify_after(low);
                    return;
                }
                level = !level;
                sig.write(level);
                if level {
                    edges.fetch_add(1, Ordering::Relaxed);
                    pos.notify_delta();
                    tick_for_method.notify_after(high);
                } else {
                    neg.notify_delta();
                    tick_for_method.notify_after(low);
                }
            }),
        );

        Clock {
            signal,
            posedge,
            negedge,
            period,
            rising_edges,
        }
    }

    /// The shortest period a clock can toggle at: each phase lasts at
    /// least one picosecond.
    pub const MIN_PERIOD: SimDur = SimDur::ps(2);

    /// Clock period.
    pub fn period(&self) -> SimDur {
        self.period
    }

    /// Frequency in hertz (truncated).
    pub fn freq_hz(&self) -> u64 {
        1_000_000_000_000 / self.period.as_ps()
    }

    /// The clock level signal (for tracing or pin-level models).
    pub fn signal(&self) -> &Signal<bool> {
        &self.signal
    }

    /// Event fired on every rising edge.
    pub fn posedge(&self) -> &Event {
        &self.posedge
    }

    /// Event fired on every falling edge.
    pub fn negedge(&self) -> &Event {
        &self.negedge
    }

    /// Number of rising edges seen so far.
    pub fn cycle_count(&self) -> u64 {
        self.rising_edges.load(Ordering::Relaxed)
    }

    /// Suspends the calling thread process for `n` rising edges.
    pub fn wait_cycles(&self, ctx: &mut ThreadCtx, n: u64) {
        for _ in 0..n {
            ctx.wait(&self.posedge);
        }
    }

    /// Whole clock cycles elapsed between two time points.
    pub fn cycles_between(&self, from: SimTime, to: SimTime) -> u64 {
        to.saturating_since(from) / self.period
    }

    /// The duration of `n` cycles.
    pub fn cycles(&self, n: u64) -> SimDur {
        self.period.saturating_mul(n)
    }
}

impl fmt::Debug for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Clock")
            .field("name", &self.signal.name())
            .field("period", &self.period)
            .field("cycles", &self.cycle_count())
            .finish()
    }
}
