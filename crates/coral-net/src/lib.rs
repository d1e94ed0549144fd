//! Inter-camera messaging for Coral-Pie: wire format, socket groups,
//! connection management and transports.
//!
//! Implements the horizontal communication layer of the paper (§3.2,
//! §4.1.3):
//!
//! - [`message`] — the JSON wire format: [`DetectionEvent`]s, the
//!   inform/confirm protocol messages, heartbeats and topology updates.
//! - [`SocketGroup`] — the per-heading map from moving direction to the
//!   cameras in the corresponding MDCS.
//! - [`ConnectionManager`] — per-camera protocol state: informing stage,
//!   confirmation relay, heartbeats, MDCS reconfiguration.
//! - [`Transport`] — the message-passing seam shared by every deployment
//!   mode, with three implementations:
//!   [`SimTransport`] (DES-integrated, latency charged by a hook onto a
//!   shared [`SimNet`] switch), [`InProcTransport`] (crossbeam channels
//!   over an [`InProcRouter`], for the multi-threaded deployments), and
//!   [`TcpTransport`] (length-prefixed JSON frames over real sockets, for
//!   camera nodes running as separate OS processes).
//! - Reliability decorators, stackable on any transport:
//!   [`FaultyTransport`] injects seeded, per-link faults (drop, duplicate,
//!   reorder, delay, partition) for deterministic chaos testing, and
//!   [`ReliableTransport`] layers at-least-once delivery — sequence
//!   numbers, acks, bounded retransmission with exponential backoff — on
//!   top of a lossy link.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod connection;
pub mod faulty;
pub mod message;
pub mod reliable;
pub mod socket_group;
pub mod tcp;
pub mod transport;

pub use connection::{ConnectionManager, ConnectionStats};
pub use faulty::{FaultPlan, FaultPolicy, FaultyTransport};
pub use message::{DetectionEvent, EventId, Message, VertexId};
pub use reliable::{ReliableTransport, RetryPolicy};
pub use socket_group::SocketGroup;
pub use tcp::{TcpDirectory, TcpError, TcpTransport};
pub use transport::{
    Endpoint, Envelope, InProcRouter, InProcTransport, LatencyHook, SendError, SimNet,
    SimTransport, Transport,
};
