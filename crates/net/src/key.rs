//! Flow keys and grouping granularities.
//!
//! The paper's `groupby(g)` operator partitions a packet stream by a
//! *granularity* `g` (Table 5): `flow`, `host`, `channel`, or `socket`.
//! Granularities form a dependency chain (§5.1): every socket belongs to
//! exactly one channel, and every channel to exactly one host. MGPV exploits
//! this by grouping at the coarsest granularity on the switch and recovering
//! the finer groups on the NIC from the stored finest-granularity key.

use crate::hash::crc32_block;
use crate::packet::PacketRecord;

/// The classic transport 5-tuple.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source port (0 for port-less protocols).
    pub src_port: u16,
    /// Destination port (0 for port-less protocols).
    pub dst_port: u16,
    /// IANA protocol number.
    pub proto: u8,
}

impl FiveTuple {
    /// Extracts the directional 5-tuple of a packet.
    pub fn of(p: &PacketRecord) -> Self {
        FiveTuple {
            src_ip: p.src_ip,
            dst_ip: p.dst_ip,
            src_port: p.src_port,
            dst_port: p.dst_port,
            proto: p.proto.number(),
        }
    }

    /// The same connection seen from the other direction.
    pub fn reversed(&self) -> Self {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }

    /// Canonical (direction-free) form: the lexicographically smaller of the
    /// tuple and its reverse, so both directions of a connection map to the
    /// same key. Returns the canonical tuple and whether a swap occurred.
    pub fn canonical(&self) -> (Self, bool) {
        let rev = self.reversed();
        if (self.src_ip, self.src_port) <= (rev.src_ip, rev.src_port) {
            (*self, false)
        } else {
            (rev, true)
        }
    }

    /// Serializes the tuple into 13 bytes for hashing and wire transfer.
    pub fn to_bytes(&self) -> [u8; 13] {
        let mut b = [0u8; 13];
        b[0..4].copy_from_slice(&self.src_ip.to_be_bytes());
        b[4..8].copy_from_slice(&self.dst_ip.to_be_bytes());
        b[8..10].copy_from_slice(&self.src_port.to_be_bytes());
        b[10..12].copy_from_slice(&self.dst_port.to_be_bytes());
        b[12] = self.proto;
        b
    }
}

/// Serializes a channel key `(src, dst)` into 8 bytes: both addresses,
/// big-endian.
fn channel_bytes(src: u32, dst: u32) -> [u8; 8] {
    let mut b = [0u8; 8];
    b[0..4].copy_from_slice(&src.to_be_bytes());
    b[4..8].copy_from_slice(&dst.to_be_bytes());
    b
}

/// Grouping granularity for `groupby` (Table 5).
///
/// Ordered from coarse to fine along the paper's dependency chain:
/// `Host ⊐ Channel ⊐ Socket`. [`Granularity::Flow`] is the direction-free
/// 5-tuple used by website-fingerprinting-style applications; it sits at the
/// same depth as `Socket` in the chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// Direction-free 5-tuple: both directions of a connection in one group.
    Flow,
    /// Source IP address.
    Host,
    /// Ordered (source IP, destination IP) pair.
    Channel,
    /// Directional 5-tuple.
    Socket,
}

impl Granularity {
    /// Depth in the dependency chain; larger is finer.
    pub fn depth(self) -> u8 {
        match self {
            Granularity::Host => 0,
            Granularity::Channel => 1,
            Granularity::Socket | Granularity::Flow => 2,
        }
    }

    /// Whether `self` is coarser than (or equal to) `other` in the chain.
    ///
    /// `Flow` participates only with itself: it erases direction, so host and
    /// channel groups cannot be recovered from a flow key.
    pub fn refines_to(self, coarser: Granularity) -> bool {
        match (self, coarser) {
            (Granularity::Flow, Granularity::Flow) => true,
            (Granularity::Flow, _) | (_, Granularity::Flow) => false,
            (fine, coarse) => fine.depth() >= coarse.depth(),
        }
    }

    /// Extracts the group key of `p` at this granularity.
    pub fn key_of(self, p: &PacketRecord) -> GroupKey {
        match self {
            Granularity::Flow => GroupKey::Flow(FiveTuple::of(p).canonical().0),
            Granularity::Host => GroupKey::Host(p.src_ip),
            Granularity::Channel => GroupKey::Channel(p.src_ip, p.dst_ip),
            Granularity::Socket => GroupKey::Socket(FiveTuple::of(p)),
        }
    }

    /// Key size in bytes as stored on the switch.
    pub fn key_bytes(self) -> usize {
        match self {
            Granularity::Host => 4,
            Granularity::Channel => 8,
            Granularity::Socket | Granularity::Flow => 13,
        }
    }

    /// Short lower-case name as used in the policy DSL.
    pub fn name(self) -> &'static str {
        match self {
            Granularity::Flow => "flow",
            Granularity::Host => "host",
            Granularity::Channel => "channel",
            Granularity::Socket => "socket",
        }
    }
}

/// A concrete group identity at some granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// Canonical 5-tuple group.
    Flow(FiveTuple),
    /// Per-source-IP group.
    Host(u32),
    /// Ordered IP-pair group.
    Channel(u32, u32),
    /// Directional 5-tuple group.
    Socket(FiveTuple),
}

/// Host key alias used in public APIs for clarity.
pub type HostKey = u32;
/// Channel key alias: ordered `(src_ip, dst_ip)`.
pub type ChannelKey = (u32, u32);

impl GroupKey {
    /// Granularity this key belongs to.
    pub fn granularity(&self) -> Granularity {
        match self {
            GroupKey::Flow(_) => Granularity::Flow,
            GroupKey::Host(_) => Granularity::Host,
            GroupKey::Channel(..) => Granularity::Channel,
            GroupKey::Socket(_) => Granularity::Socket,
        }
    }

    /// Projects this key to a *coarser* granularity along the dependency
    /// chain (the MGPV recovery step run on the NIC).
    ///
    /// Returns `None` when the projection is not defined, e.g. from `Flow`
    /// (direction was erased) or from coarse to fine.
    pub fn project(&self, to: Granularity) -> Option<GroupKey> {
        if !self.granularity().refines_to(to) {
            return None;
        }
        Some(match (self, to) {
            (GroupKey::Socket(ft), Granularity::Host) => GroupKey::Host(ft.src_ip),
            (GroupKey::Socket(ft), Granularity::Channel) => GroupKey::Channel(ft.src_ip, ft.dst_ip),
            (GroupKey::Socket(ft), Granularity::Socket) => GroupKey::Socket(*ft),
            (GroupKey::Channel(s, d), Granularity::Channel) => GroupKey::Channel(*s, *d),
            (GroupKey::Channel(s, _), Granularity::Host) => GroupKey::Host(*s),
            (GroupKey::Host(h), Granularity::Host) => GroupKey::Host(*h),
            (GroupKey::Flow(ft), Granularity::Flow) => GroupKey::Flow(*ft),
            _ => return None,
        })
    }

    /// The widest serialized key ([`GroupKey::Socket`] / [`GroupKey::Flow`]).
    pub const MAX_KEY_BYTES: usize = 13;

    /// Serializes the key for hashing and switch↔NIC transfer into a
    /// caller-provided stack buffer, returning the number of bytes written
    /// ([`GroupKey::byte_len`]): big-endian addresses, then ports, then the
    /// protocol. [`GroupKey::hash32`] is the CRC-32 of these bytes.
    pub fn write_bytes(&self, out: &mut [u8; Self::MAX_KEY_BYTES]) -> usize {
        match self {
            GroupKey::Host(h) => {
                out[0..4].copy_from_slice(&h.to_be_bytes());
                4
            }
            GroupKey::Channel(s, d) => {
                out[0..8].copy_from_slice(&channel_bytes(*s, *d));
                8
            }
            GroupKey::Socket(ft) | GroupKey::Flow(ft) => {
                out[0..13].copy_from_slice(&ft.to_bytes());
                13
            }
        }
    }

    /// The 32-bit CRC hash of the key, as computed by the switch pipeline:
    /// [`crc32`](crate::crc32) of [`GroupKey::write_bytes`], folded in one
    /// step over the fixed 4-, 8- or 13-byte encoding.
    pub fn hash32(&self) -> u32 {
        // The same per-variant encoders as `write_bytes`, folded from their
        // fixed arrays rather than through its buffer: that buffer's store
        // and reload cost a socket key ~3 of ~7 ns in a dependent chain.
        match self {
            GroupKey::Host(h) => crc32_block(&h.to_be_bytes()),
            GroupKey::Channel(s, d) => crc32_block(&channel_bytes(*s, *d)),
            GroupKey::Socket(ft) | GroupKey::Flow(ft) => crc32_block(&ft.to_bytes()),
        }
    }

    /// Size of the serialized key in bytes.
    pub fn byte_len(&self) -> usize {
        self.granularity().key_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> PacketRecord {
        PacketRecord::tcp(0, 64, src_ip, src_port, dst_ip, dst_port)
    }

    #[test]
    fn canonical_is_direction_free() {
        let a = FiveTuple::of(&pkt(10, 1000, 20, 80));
        let b = a.reversed();
        assert_eq!(a.canonical().0, b.canonical().0);
        assert_ne!(a.canonical().1, b.canonical().1);
    }

    #[test]
    fn flow_key_groups_both_directions() {
        let g = Granularity::Flow;
        let k1 = g.key_of(&pkt(10, 1000, 20, 80));
        let k2 = g.key_of(&pkt(20, 80, 10, 1000));
        assert_eq!(k1, k2);
    }

    #[test]
    fn socket_key_is_directional() {
        let g = Granularity::Socket;
        let k1 = g.key_of(&pkt(10, 1000, 20, 80));
        let k2 = g.key_of(&pkt(20, 80, 10, 1000));
        assert_ne!(k1, k2);
    }

    #[test]
    fn dependency_chain_refinement() {
        assert!(Granularity::Socket.refines_to(Granularity::Host));
        assert!(Granularity::Socket.refines_to(Granularity::Channel));
        assert!(Granularity::Channel.refines_to(Granularity::Host));
        assert!(!Granularity::Host.refines_to(Granularity::Socket));
        assert!(!Granularity::Flow.refines_to(Granularity::Host));
        assert!(Granularity::Flow.refines_to(Granularity::Flow));
    }

    #[test]
    fn socket_projects_to_channel_and_host() {
        let p = pkt(10, 1000, 20, 80);
        let sk = Granularity::Socket.key_of(&p);
        assert_eq!(sk.project(Granularity::Host), Some(GroupKey::Host(10)));
        assert_eq!(
            sk.project(Granularity::Channel),
            Some(GroupKey::Channel(10, 20))
        );
        assert_eq!(sk.project(Granularity::Socket), Some(sk));
    }

    #[test]
    fn invalid_projections_are_none() {
        let p = pkt(10, 1000, 20, 80);
        let hk = Granularity::Host.key_of(&p);
        assert_eq!(hk.project(Granularity::Socket), None);
        let fk = Granularity::Flow.key_of(&p);
        assert_eq!(fk.project(Granularity::Host), None);
    }

    #[test]
    fn projection_consistent_with_direct_extraction() {
        let p = pkt(7, 5555, 9, 443);
        let sk = Granularity::Socket.key_of(&p);
        for g in [Granularity::Host, Granularity::Channel] {
            assert_eq!(sk.project(g), Some(g.key_of(&p)));
        }
    }

    #[test]
    fn key_bytes_match_serialization() {
        let p = pkt(1, 2, 3, 4);
        for g in [
            Granularity::Flow,
            Granularity::Host,
            Granularity::Channel,
            Granularity::Socket,
        ] {
            let k = g.key_of(&p);
            let mut buf = [0u8; GroupKey::MAX_KEY_BYTES];
            assert_eq!(k.write_bytes(&mut buf), g.key_bytes());
            assert_eq!(k.byte_len(), g.key_bytes());
        }
    }

    #[test]
    fn hash32_differs_across_keys() {
        let k1 = GroupKey::Host(1);
        let k2 = GroupKey::Host(2);
        assert_ne!(k1.hash32(), k2.hash32());
    }
}
