//! Packet model shared by every SuperFE component.
//!
//! This crate defines the representation of network traffic that the rest of
//! the workspace operates on:
//!
//! - [`PacketRecord`]: a compact, `Copy` summary of one packet — the
//!   "packet key-value tuple" abstraction of the paper's §4.1, with header
//!   fields filled from the packet and metadata fields (timestamp, size,
//!   direction) filled by the observation point.
//! - [`wire`]: synthesis and zero-copy parsing of Ethernet/IPv4/TCP/UDP
//!   frames, so the switch simulator can exercise a realistic parser instead
//!   of consuming pre-parsed structs.
//! - [`key`]: flow keys ([`FiveTuple`], [`HostKey`], [`ChannelKey`]) and the
//!   [`Granularity`] lattice (`host ⊂ channel ⊂ socket/flow`) used by
//!   `groupby` and by the MGPV dependency chain.
//! - [`hash`]: the deterministic 32-bit CRC hash computed once on the switch
//!   and reused on the SmartNIC (the paper's first cycle optimization).
//! - [`dir`]: ingress/egress direction inference from configurable internal
//!   prefixes.
//! - [`ring`]: the bounded SPSC frame ring with doorbell batching that the
//!   streaming pipeline moves event frames over.
//! - [`metrics`]: the process-wide monotonic clock and lock-free latency
//!   histograms instrumenting that data path.

pub mod dir;
pub mod hash;
pub mod key;
pub mod metrics;
pub mod packet;
pub mod ring;
pub mod snap;
pub mod wire;

pub use dir::{Direction, DirectionResolver};
pub use hash::{crc32, FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use key::{ChannelKey, FiveTuple, Granularity, GroupKey, HostKey};
pub use metrics::{monotonic_ns, AtomicHistogram, HistSummary};
pub use packet::{PacketRecord, Protocol};
pub use snap::{StateReader, StateWriter};
