//! Compact per-packet records.

use crate::dir::Direction;

/// Transport (or network) protocol of a packet.
///
/// Only TCP and UDP carry ports; everything else is folded into
/// [`Protocol::Icmp`] or [`Protocol::Other`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Transmission Control Protocol (IP protocol 6).
    Tcp,
    /// User Datagram Protocol (IP protocol 17).
    Udp,
    /// Internet Control Message Protocol (IP protocol 1).
    Icmp,
    /// Any other IP protocol, identified by its protocol number.
    Other(u8),
}

impl Protocol {
    /// Returns the IANA protocol number.
    pub fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Other(n) => n,
        }
    }

    /// Builds a `Protocol` from an IANA protocol number.
    pub fn from_number(n: u8) -> Self {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            1 => Protocol::Icmp,
            other => Protocol::Other(other),
        }
    }
}

/// TCP flag bits, as laid out in the TCP header's flags octet.
pub mod tcp_flags {
    /// FIN: no more data from sender.
    pub const FIN: u8 = 0x01;
    /// SYN: synchronize sequence numbers.
    pub const SYN: u8 = 0x02;
    /// RST: reset the connection.
    pub const RST: u8 = 0x04;
    /// PSH: push buffered data to the application.
    pub const PSH: u8 = 0x08;
    /// ACK: acknowledgment field is significant.
    pub const ACK: u8 = 0x10;
}

/// A parsed, fixed-size summary of one observed packet.
///
/// This is the paper's "packet key-value tuple" (§4.1): header-derived fields
/// (addresses, ports, protocol, TCP flags) together with observation metadata
/// filled in by the switch (arrival timestamp, wire size, direction).
///
/// The struct is deliberately `Copy` and small so that traces of millions of
/// packets stay cheap to generate, shuffle, and replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketRecord {
    /// Arrival timestamp in nanoseconds since the start of the trace.
    pub ts_ns: u64,
    /// Wire size of the packet in bytes (Ethernet frame length).
    pub size: u16,
    /// IPv4 source address, big-endian numeric form.
    pub src_ip: u32,
    /// IPv4 destination address, big-endian numeric form.
    pub dst_ip: u32,
    /// Transport source port (0 when the protocol has no ports).
    pub src_port: u16,
    /// Transport destination port (0 when the protocol has no ports).
    pub dst_port: u16,
    /// Transport (or network) protocol.
    pub proto: Protocol,
    /// Raw TCP flag bits; 0 for non-TCP packets.
    pub tcp_flags: u8,
    /// Ingress/egress direction relative to the monitored network.
    pub direction: Direction,
}

impl PacketRecord {
    /// Creates a TCP packet record with the given endpoints.
    ///
    /// Direction defaults to [`Direction::Ingress`]; callers that care should
    /// run the record through a [`crate::DirectionResolver`] or set it
    /// explicitly.
    pub fn tcp(
        ts_ns: u64,
        size: u16,
        src_ip: u32,
        src_port: u16,
        dst_ip: u32,
        dst_port: u16,
    ) -> Self {
        PacketRecord {
            ts_ns,
            size,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: Protocol::Tcp,
            tcp_flags: tcp_flags::ACK,
            direction: Direction::Ingress,
        }
    }

    /// Creates a UDP packet record with the given endpoints.
    pub fn udp(
        ts_ns: u64,
        size: u16,
        src_ip: u32,
        src_port: u16,
        dst_ip: u32,
        dst_port: u16,
    ) -> Self {
        PacketRecord {
            ts_ns,
            size,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: Protocol::Udp,
            tcp_flags: 0,
            direction: Direction::Ingress,
        }
    }

    /// Returns a copy with the direction replaced.
    pub fn with_direction(mut self, d: Direction) -> Self {
        self.direction = d;
        self
    }

    /// Returns a copy with the TCP flags replaced.
    pub fn with_flags(mut self, flags: u8) -> Self {
        self.tcp_flags = flags;
        self
    }

    /// The packet's direction as the paper's `f_direction` factor:
    /// `+1` for ingress, `-1` for egress.
    pub fn direction_factor(&self) -> i64 {
        match self.direction {
            Direction::Ingress => 1,
            Direction::Egress => -1,
        }
    }

    /// Whether this packet is TCP.
    pub fn is_tcp(&self) -> bool {
        self.proto == Protocol::Tcp
    }

    /// Whether this packet is UDP.
    pub fn is_udp(&self) -> bool {
        self.proto == Protocol::Udp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_number_round_trip() {
        for n in 0..=255u8 {
            assert_eq!(Protocol::from_number(n).number(), n);
        }
    }

    #[test]
    fn tcp_constructor_sets_ack() {
        let p = PacketRecord::tcp(10, 64, 1, 80, 2, 1234);
        assert!(p.is_tcp());
        assert_eq!(p.tcp_flags, tcp_flags::ACK);
        assert_eq!(p.direction_factor(), 1);
    }

    #[test]
    fn direction_factor_flips_for_egress() {
        let p = PacketRecord::udp(0, 100, 1, 53, 2, 999).with_direction(Direction::Egress);
        assert_eq!(p.direction_factor(), -1);
    }

    #[test]
    fn with_flags_replaces_bits() {
        let p = PacketRecord::tcp(0, 60, 1, 2, 3, 4).with_flags(tcp_flags::SYN);
        assert_eq!(p.tcp_flags, tcp_flags::SYN);
    }
}
