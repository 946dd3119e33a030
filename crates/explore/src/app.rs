//! Application netlists: processing elements connected by SHIP channels.
//!
//! An [`AppSpec`] is the *component-assembly model* of the paper's Figure 1:
//! PEs plus directed point-to-point SHIP channels, with no notion of the
//! target architecture. The same spec elaborates to every abstraction level.

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use shiptlm_kernel::sim::SimHandle;
use shiptlm_ship::channel::ShipPort;

/// What a PE runs as: a future that communicates through its ports.
pub type PeFuture = Pin<Box<dyn Future<Output = ()> + Send>>;

/// A PE behaviour: builds a fresh [`PeFuture`] per elaboration from the
/// handle the PE waits and records through and its ports.
///
/// Ports arrive in the order the PE's channels were added to the
/// [`AppSpec`]. The same behaviour is used at every abstraction level —
/// only the port backing changes (paper §4's "no source change"). The
/// delta-cycle runners poll the future inline as an async process, and an
/// RTOS task (a SW PE) awaits it the same way; the direct backend runs it
/// on the PE's thread with
/// [`ThreadCtx::block_on`](shiptlm_kernel::process::ThreadCtx::block_on).
pub type PeBehavior = Arc<dyn Fn(SimHandle, Vec<ShipPort>) -> PeFuture + Send + Sync>;

/// One processing element.
#[derive(Clone)]
pub struct PeSpec {
    /// PE name (unique within the app).
    pub name: String,
    pub(crate) behavior: PeBehavior,
}

impl fmt::Debug for PeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PeSpec").field("name", &self.name).finish()
    }
}

/// One directed point-to-point channel between two PEs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelSpec {
    /// Channel name (unique within the app).
    pub name: String,
    /// PE at end A.
    pub a: String,
    /// PE at end B.
    pub b: String,
}

/// A platform-independent application: the component-assembly netlist.
///
/// ```
/// use shiptlm_explore::app::AppSpec;
///
/// let mut app = AppSpec::new("demo");
/// app.add_pe("producer", |h, ports| async move {
///     ports[0].send_async(&h, &42u32).await.unwrap();
/// });
/// app.add_pe("consumer", |h, ports| async move {
///     let _: u32 = ports[0].recv_async(&h).await.unwrap();
/// });
/// app.connect("link", "producer", "consumer");
/// assert_eq!(app.channels().len(), 1);
/// ```
#[derive(Clone)]
pub struct AppSpec {
    name: String,
    pes: Vec<PeSpec>,
    channels: Vec<ChannelSpec>,
}

impl AppSpec {
    /// Creates an empty application.
    pub fn new(name: &str) -> Self {
        AppSpec {
            name: name.to_string(),
            pes: Vec::new(),
            channels: Vec::new(),
        }
    }

    /// The application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a PE whose behaviour builds its future from the PE's handle
    /// and ports, once per elaboration.
    ///
    /// # Panics
    ///
    /// Panics on duplicate PE names.
    pub fn add_pe<F, Fut>(&mut self, name: &str, behavior: F)
    where
        F: Fn(SimHandle, Vec<ShipPort>) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        assert!(
            self.pes.iter().all(|p| p.name != name),
            "duplicate PE name '{name}'"
        );
        self.pes.push(PeSpec {
            name: name.to_string(),
            behavior: Arc::new(move |sim, ports| Box::pin(behavior(sim, ports))),
        });
    }

    /// Connects two PEs with a named channel.
    ///
    /// # Panics
    ///
    /// Panics when either PE is unknown or the channel name repeats.
    pub fn connect(&mut self, channel: &str, a: &str, b: &str) {
        assert!(self.pe(a).is_some(), "unknown PE '{a}'");
        assert!(self.pe(b).is_some(), "unknown PE '{b}'");
        assert!(
            self.channels.iter().all(|c| c.name != channel),
            "duplicate channel name '{channel}'"
        );
        self.channels.push(ChannelSpec {
            name: channel.to_string(),
            a: a.to_string(),
            b: b.to_string(),
        });
    }

    /// The PEs in declaration order.
    pub fn pes(&self) -> &[PeSpec] {
        &self.pes
    }

    /// The channels in declaration order.
    pub fn channels(&self) -> &[ChannelSpec] {
        &self.channels
    }

    /// Finds a PE by name.
    pub fn pe(&self, name: &str) -> Option<&PeSpec> {
        self.pes.iter().find(|p| p.name == name)
    }

    /// The channels a PE is attached to, in port order.
    pub fn channels_of(&self, pe: &str) -> Vec<&ChannelSpec> {
        self.channels
            .iter()
            .filter(|c| c.a == pe || c.b == pe)
            .collect()
    }

    /// The behaviour of `pe`.
    ///
    /// # Panics
    ///
    /// Panics when the PE is unknown.
    pub fn behavior(&self, pe: &str) -> PeBehavior {
        Arc::clone(&self.pe(pe).expect("unknown PE").behavior)
    }
}

impl fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AppSpec")
            .field("name", &self.name)
            .field("pes", &self.pes.len())
            .field("channels", &self.channels.len())
            .finish()
    }
}
