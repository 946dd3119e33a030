//! Bounded blocking FIFO channels, analogous to SystemC's `sc_fifo`.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::kernel::{EventId, KernelShared};
use crate::process::Suspend;

struct FifoShared<T> {
    kernel: Arc<KernelShared>,
    name: String,
    state: Mutex<VecDeque<T>>,
    capacity: usize,
    data_written: EventId,
    data_read: EventId,
}

/// A bounded FIFO with async read/write for processes and non-blocking
/// variants for code outside a process. A thread process awaits the async
/// operations through
/// [`ThreadCtx::block_on`](crate::process::ThreadCtx::block_on).
///
/// Cloning yields another handle to the same channel; a typical module keeps
/// one clone per port.
pub struct Fifo<T> {
    shared: Arc<FifoShared<T>>,
}

impl<T> Clone for Fifo<T> {
    fn clone(&self) -> Self {
        Fifo {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send + 'static> Fifo<T> {
    pub(crate) fn new(kernel: Arc<KernelShared>, name: &str, capacity: usize) -> Self {
        assert!(capacity > 0, "fifo capacity must be non-zero");
        let data_written = kernel.new_event(&format!("{name}.data_written"));
        let data_read = kernel.new_event(&format!("{name}.data_read"));
        Fifo {
            shared: Arc::new(FifoShared {
                kernel,
                name: name.to_string(),
                state: Mutex::new(VecDeque::with_capacity(capacity)),
                capacity,
                data_written,
                data_read,
            }),
        }
    }

    /// The channel's name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// Maximum number of buffered items.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Number of items currently buffered.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Reads the oldest item, suspending the polling process while the
    /// FIFO is empty.
    pub async fn read(&self) -> T {
        loop {
            if let Some(v) = self.try_read() {
                return v;
            }
            Suspend::new(&self.shared.kernel, [self.shared.data_written], None).await;
        }
    }

    /// Appends `v`, suspending the polling process while the FIFO is full.
    pub async fn write(&self, v: T) {
        let mut v = v;
        loop {
            match self.try_write(v) {
                Ok(()) => return,
                Err(back) => {
                    v = back;
                    Suspend::new(&self.shared.kernel, [self.shared.data_read], None).await;
                }
            }
        }
    }

    /// Non-blocking read; `None` when empty.
    pub fn try_read(&self) -> Option<T> {
        let v = self.lock().pop_front();
        if v.is_some() {
            self.shared.kernel.notify_delta(self.shared.data_read);
        }
        v
    }

    /// Non-blocking write; hands the value back when full.
    ///
    /// # Errors
    ///
    /// Returns `Err(v)` when the FIFO is at capacity.
    pub fn try_write(&self, v: T) -> Result<(), T> {
        let mut g = self.lock();
        if g.len() >= self.shared.capacity {
            return Err(v);
        }
        g.push_back(v);
        drop(g);
        self.shared.kernel.notify_delta(self.shared.data_written);
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<T>> {
        self.shared.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Send + 'static> fmt::Debug for Fifo<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Fifo")
            .field("name", &self.shared.name)
            .field("len", &self.len())
            .field("capacity", &self.shared.capacity)
            .finish()
    }
}
