//! Free-running clocks with edge events and cycle counting.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::event::Event;
use crate::kernel::KernelShared;
use crate::signal::Signal;
use crate::sim::SimHandle;
use crate::time::{SimDur, SimTime};

/// A 50%-duty-cycle clock.
///
/// The clock starts low; the first rising edge occurs after half a period,
/// rounded down to whole picoseconds, and the high phase lasts the rest of
/// the period, so an odd period still makes one rising edge per period.
/// An async process named `<name>.gen` drives it: it awaits the clock's
/// `<name>.tick` event and toggles the level on each one. Cycle-accurate
/// models synchronize on [`posedge`](Clock::posedge) (usually through
/// [`wait_cycles`](Clock::wait_cycles)) and may convert elapsed time to
/// cycles with [`cycles_between`](Clock::cycles_between).
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
        let sim = SimHandle::new(Arc::clone(&kernel));
        let (sig, pos, neg) = (signal.clone(), posedge.clone(), negedge.clone());
        let edges = Arc::clone(&rising_edges);
        let generator = async move {
            tick.notify_after(low);
            let mut level = false;
            loop {
                sim.wait(&tick).await;
                level = !level;
                sig.write(level);
                if level {
                    edges.fetch_add(1, Ordering::Relaxed);
                    pos.notify_delta();
                    tick.notify_after(high);
                } else {
                    neg.notify_delta();
                    tick.notify_after(low);
                }
            }
        };
        kernel.spawn_async(&format!("{name}.gen"), Box::pin(generator));

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

    /// Suspends the polling process for `n` rising edges.
    pub async fn wait_cycles(&self, sim: &SimHandle, n: u64) {
        for _ in 0..n {
            sim.wait(&self.posedge).await;
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
