//! Switch → SmartNIC message formats.

use superfe_net::snap::{StateReader, StateWriter};
use superfe_net::{Direction, GroupKey, PacketRecord};
use superfe_policy::MetaField;

/// Direction bit inside [`MgpvRecord::dir_flags`].
pub const DIR_BIT: u8 = 0x80;

/// Exclusive upper bound on packet timestamps the switch can cache.
///
/// [`MgpvRecord::tstamp_us`] truncates `ts_ns` to 32-bit microseconds, so a
/// timestamp at or past `u32::MAX` µs (~71.6 minutes) would silently wrap,
/// corrupting aging decisions and every inter-arrival feature downstream.
/// The MGPV cache asserts against the horizon at insert time; callers
/// replaying longer captures must rebase timestamps per epoch.
pub const TS_HORIZON_NS: u64 = (u32::MAX as u64) * 1_000;

/// One packet's feature metadata as cached in MGPV and shipped to the NIC.
///
/// All fields are always materialized in the simulator; which of them are
/// *carried on the wire* (and therefore counted toward bandwidth) is decided
/// by the compiled metadata layout — see [`record_wire_bytes`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MgpvRecord {
    /// Wire size of the packet in bytes.
    pub size: u16,
    /// Arrival timestamp truncated to 32-bit microseconds.
    pub tstamp_us: u32,
    /// Direction bit ([`DIR_BIT`]) packed with the low 7 TCP flag bits.
    pub dir_flags: u8,
    /// Index into the FG group-key table (0 when unused).
    pub fg_idx: u16,
}

impl MgpvRecord {
    /// Builds a record from a parsed packet.
    pub(crate) fn from_packet(p: &PacketRecord, fg_idx: u16) -> Self {
        let dir = if p.direction == Direction::Ingress {
            DIR_BIT
        } else {
            0
        };
        MgpvRecord {
            size: p.size,
            tstamp_us: (p.ts_ns / 1_000) as u32,
            dir_flags: dir | (p.tcp_flags & 0x7F),
            fg_idx,
        }
    }

    /// Whether the packet travelled ingress.
    pub fn is_ingress(&self) -> bool {
        self.dir_flags & DIR_BIT != 0
    }

    /// The ±1 direction factor.
    pub fn direction_factor(&self) -> i64 {
        if self.is_ingress() {
            1
        } else {
            -1
        }
    }

    /// Timestamp in nanoseconds (microsecond resolution).
    pub fn ts_ns(&self) -> u64 {
        u64::from(self.tstamp_us) * 1_000
    }

    /// Serializes the record (9 bytes) for state snapshots.
    pub fn save_state(&self, w: &mut StateWriter) {
        w.put_u16(self.size);
        w.put_u32(self.tstamp_us);
        w.put_u8(self.dir_flags);
        w.put_u16(self.fg_idx);
    }

    /// Reads a record written by [`MgpvRecord::save_state`].
    pub fn load_state(r: &mut StateReader<'_>) -> Option<Self> {
        Some(MgpvRecord {
            size: r.get_u16()?,
            tstamp_us: r.get_u32()?,
            dir_flags: r.get_u8()?,
            fg_idx: r.get_u16()?,
        })
    }
}

/// Bytes one record occupies on the wire under a metadata layout.
pub fn record_wire_bytes(layout: &[MetaField]) -> usize {
    layout.iter().map(|m| m.bytes()).sum()
}

/// Why a group was evicted from the switch cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EvictionCause {
    /// A different group hashed into an occupied slot (LRU-like, §5.2).
    CgCollision,
    /// The short buffer filled and no long buffer was available.
    ShortFull,
    /// The long buffer filled.
    LongFull,
    /// The entry timed out (aging mechanism).
    Aging,
    /// An FG table slot had to be reassigned to a different key.
    FgCollision,
    /// End-of-trace flush (not a data-plane event).
    Flush,
}

impl EvictionCause {
    /// All data-plane causes, in reporting order.
    pub fn all() -> [EvictionCause; 6] {
        [
            EvictionCause::CgCollision,
            EvictionCause::ShortFull,
            EvictionCause::LongFull,
            EvictionCause::Aging,
            EvictionCause::FgCollision,
            EvictionCause::Flush,
        ]
    }
}

/// Fixed per-message framing overhead on the switch–NIC link: Ethernet +
/// internal header (cause, count, hash).
pub const MSG_HEADER_BYTES: usize = 24;

/// An evicted grouped packet vector.
#[derive(Clone, Debug, PartialEq)]
pub struct MgpvMessage {
    /// The coarsest-granularity group key.
    pub cg_key: GroupKey,
    /// The switch-computed 32-bit hash of the key (reused by the NIC).
    pub hash: u32,
    /// Batched per-packet feature metadata, in arrival order.
    pub records: Vec<MgpvRecord>,
    /// Why the eviction happened.
    pub cause: EvictionCause,
}

impl MgpvMessage {
    /// Wire size of this message under a metadata layout.
    pub fn wire_bytes(&self, layout: &[MetaField]) -> usize {
        MSG_HEADER_BYTES + self.cg_key.byte_len() + self.records.len() * record_wire_bytes(layout)
    }
}

/// A synchronization notification for one FG key-table slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FgUpdate {
    /// Table slot.
    pub idx: u16,
    /// New key stored in the slot.
    pub key: GroupKey,
}

impl FgUpdate {
    /// Wire size of the notification.
    pub fn wire_bytes(&self) -> usize {
        MSG_HEADER_BYTES + 2 + self.key.byte_len()
    }
}

/// Everything the switch emits toward the SmartNIC, in order.
///
/// Ordering matters: an [`FgUpdate`] precedes any [`MgpvMessage`] whose
/// records reference the updated slot, so the NIC can resolve `fg_idx`
/// against its synchronized copy of the table.
#[derive(Clone, Debug, PartialEq)]
pub enum SwitchEvent {
    /// An evicted MGPV.
    Mgpv(MgpvMessage),
    /// An FG key-table update.
    FgUpdate(FgUpdate),
}

#[cfg(test)]
mod tests {
    use super::*;
    use superfe_net::packet::tcp_flags;
    use superfe_net::Granularity;

    #[test]
    fn record_packs_direction_and_flags() {
        let p = superfe_net::PacketRecord::tcp(5_000, 100, 1, 2, 3, 4)
            .with_flags(tcp_flags::SYN | tcp_flags::ACK);
        let r = MgpvRecord::from_packet(&p, 7);
        assert!(r.is_ingress());
        assert_eq!(r.direction_factor(), 1);
        assert_eq!(r.dir_flags & 0x7F, tcp_flags::SYN | tcp_flags::ACK);
        assert_eq!(r.tstamp_us, 5);
        assert_eq!(r.ts_ns(), 5_000);
        assert_eq!(r.fg_idx, 7);
    }

    #[test]
    fn egress_direction_factor() {
        let p = superfe_net::PacketRecord::udp(0, 64, 1, 2, 3, 4)
            .with_direction(superfe_net::Direction::Egress);
        let r = MgpvRecord::from_packet(&p, 0);
        assert!(!r.is_ingress());
        assert_eq!(r.direction_factor(), -1);
    }

    #[test]
    fn wire_bytes_follow_layout() {
        let layout = vec![MetaField::Size, MetaField::TstampUs];
        assert_eq!(record_wire_bytes(&layout), 6);
        let msg = MgpvMessage {
            cg_key: GroupKey::Host(9),
            hash: 0,
            records: vec![
                MgpvRecord::from_packet(
                    &superfe_net::PacketRecord::tcp(0, 64, 1, 2, 3, 4),
                    0
                );
                3
            ],
            cause: EvictionCause::Flush,
        };
        // 24 header + 4 host key + 3 * 6.
        assert_eq!(msg.wire_bytes(&layout), 24 + 4 + 18);
    }

    #[test]
    fn fg_update_wire_bytes() {
        let u = FgUpdate {
            idx: 3,
            key: GroupKey::Socket(superfe_net::FiveTuple {
                src_ip: 1,
                dst_ip: 2,
                src_port: 3,
                dst_port: 4,
                proto: 6,
            }),
        };
        assert_eq!(u.wire_bytes(), 24 + 2 + 13);
        assert_eq!(u.key.granularity(), Granularity::Socket);
    }

    #[test]
    fn eviction_causes_enumerate() {
        assert_eq!(EvictionCause::all().len(), 6);
    }
}
