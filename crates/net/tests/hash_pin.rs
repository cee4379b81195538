//! The group-key hash is part of every table layout, digest and snapshot the
//! switch and the NIC share, so its values are pinned, not just its
//! self-consistency: a faster CRC kernel must reproduce these bits.
//!
//! - `hash32_values_are_pinned`: `GroupKey::hash32` for a fixed table of keys
//!   of every shape, values as the byte-at-a-time table loop computed them
//!   (they are also zlib's `crc32` of the big-endian key bytes).
//! - `crc32_matches_the_bitwise_reference_at_every_length`: `crc32` against
//!   the eight-shifts-a-byte definition for every length 0..=64.
//! - `hash32_is_crc32_of_write_bytes`: the key hash over ~100k seeded keys is
//!   exactly `crc32` of the key's serialized bytes.

use superfe_net::{crc32, FiveTuple, GroupKey};

/// CRC-32 (IEEE, reflected) one bit at a time: the definition.
fn bitwise(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

/// A splitmix64 sequence: seeded, portable, no dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn tuple(&mut self) -> FiveTuple {
        let a = self.next();
        let b = self.next();
        FiveTuple {
            src_ip: a as u32,
            dst_ip: (a >> 32) as u32,
            src_port: b as u16,
            dst_port: (b >> 16) as u16,
            proto: (b >> 32) as u8,
        }
    }
}

fn tuple(src_ip: u32, dst_ip: u32, src_port: u16, dst_port: u16, proto: u8) -> FiveTuple {
    FiveTuple {
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        proto,
    }
}

#[test]
fn hash32_values_are_pinned() {
    let pinned: [(GroupKey, u32); 16] = [
        (GroupKey::Host(0), 0x2144_DF1C),
        (GroupKey::Host(1), 0x5643_EF8A),
        (GroupKey::Host(0x0A00_0001), 0x39FE_0FEE),
        (GroupKey::Host(u32::MAX), 0xFFFF_FFFF),
        (GroupKey::Channel(0, 0), 0x6522_DF69),
        (GroupKey::Channel(0x0A00_0001, 0xC0A8_0001), 0x1FA3_3859),
        (GroupKey::Channel(0xC0A8_0001, 0x0A00_0001), 0x4E1A_FC15),
        (GroupKey::Channel(u32::MAX, 1), 0x88F8_CF69),
        (GroupKey::Socket(tuple(0, 0, 0, 0, 0)), 0x0F74_4682),
        (
            GroupKey::Socket(tuple(0x0A00_0001, 0xC0A8_0001, 51_234, 443, 6)),
            0xEC14_1B90,
        ),
        (
            GroupKey::Socket(tuple(0xC0A8_0001, 0x0A00_0001, 443, 51_234, 6)),
            0xFBA7_C61B,
        ),
        (
            GroupKey::Socket(tuple(u32::MAX, u32::MAX, u16::MAX, u16::MAX, 255)),
            0xF2D6_F3C1,
        ),
        (GroupKey::Flow(tuple(0, 0, 0, 0, 0)), 0x0F74_4682),
        (
            GroupKey::Flow(tuple(0x0A00_0001, 0xC0A8_0001, 51_234, 443, 17)),
            0x6FC7_9E57,
        ),
        (
            GroupKey::Flow(tuple(0x7F00_0001, 0x7F00_0001, 80, 8080, 6)),
            0xDD21_9F6C,
        ),
        (
            GroupKey::Flow(tuple(0x0102_0304, 0x0506_0708, 0x090A, 0x0B0C, 0x0D)),
            0xB720_698D,
        ),
    ];
    for (key, want) in pinned {
        assert_eq!(key.hash32(), want, "{key:?}: {:#010X}", key.hash32());
    }
}

#[test]
fn crc32_matches_the_bitwise_reference_at_every_length() {
    let mut rng = SplitMix(0x5EED_C2C3);
    let bytes: Vec<u8> = (0..80).map(|_| rng.next() as u8).collect();
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    for len in 0..=64 {
        // Every start offset mod 8, so no length meets only aligned data.
        for start in 0..8 {
            let data = &bytes[start..start + len];
            assert_eq!(crc32(data), bitwise(data), "len {len}, offset {start}");
        }
        let ones = vec![0xFF; len];
        assert_eq!(crc32(&ones), bitwise(&ones), "len {len} of 0xFF");
    }
}

#[test]
fn hash32_is_crc32_of_write_bytes() {
    let mut rng = SplitMix(0x0BAD_5EED);
    let mut buf = [0u8; GroupKey::MAX_KEY_BYTES];
    for i in 0..100_000u32 {
        let t = rng.tuple();
        let key = match i % 4 {
            0 => GroupKey::Host(t.src_ip),
            1 => GroupKey::Channel(t.src_ip, t.dst_ip),
            2 => GroupKey::Socket(t),
            _ => GroupKey::Flow(t.canonical().0),
        };
        let len = key.write_bytes(&mut buf);
        assert_eq!(len, key.byte_len());
        assert_eq!(key.hash32(), crc32(&buf[..len]), "{key:?}");
        if i % 64 == 0 {
            assert_eq!(key.hash32(), bitwise(&buf[..len]), "{key:?}");
        }
    }
}
