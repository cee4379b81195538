//! Trace persistence: a compact binary format for saving and replaying
//! generated traces (the repository's stand-in for pcap files).
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! magic "SFET" | version u16 | record count u64 | records...
//! record: ts_ns u64 | size u16 | src u32 | dst u32 | sport u16 | dport u16
//!         | proto u8 | tcp_flags u8 | direction u8          (= 25 bytes)
//! ```

use std::io::{Read, Write};
use std::path::Path;

use superfe_net::{Direction, PacketRecord, Protocol};

use crate::workload::Trace;

/// File magic.
pub const MAGIC: [u8; 4] = *b"SFET";
/// Current format version.
pub const VERSION: u16 = 1;
/// Bytes per serialized record.
pub const RECORD_BYTES: usize = 25;

/// Errors from reading a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The magic bytes do not match.
    BadMagic,
    /// Unknown format version.
    BadVersion(u16),
    /// The body is shorter than the header promised.
    Truncated,
    /// The header's record count is more bytes than an address space holds.
    CountTooLarge(u64),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => f.write_str("not a SuperFE trace file (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::Truncated => f.write_str("trace file is truncated"),
            TraceIoError::CountTooLarge(n) => {
                write!(
                    f,
                    "trace header claims {n} records, more than a file can hold"
                )
            }
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serializes a trace into a writer.
pub fn write_trace(trace: &Trace, w: &mut impl Write) -> Result<(), TraceIoError> {
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_be_bytes())?;
    w.write_all(&(trace.records.len() as u64).to_be_bytes())?;
    let mut buf = Vec::with_capacity(trace.records.len() * RECORD_BYTES);
    for r in &trace.records {
        buf.extend_from_slice(&r.ts_ns.to_be_bytes());
        buf.extend_from_slice(&r.size.to_be_bytes());
        buf.extend_from_slice(&r.src_ip.to_be_bytes());
        buf.extend_from_slice(&r.dst_ip.to_be_bytes());
        buf.extend_from_slice(&r.src_port.to_be_bytes());
        buf.extend_from_slice(&r.dst_port.to_be_bytes());
        buf.push(r.proto.number());
        buf.push(r.tcp_flags);
        buf.push(u8::from(r.direction == Direction::Ingress));
    }
    w.write_all(&buf)?;
    Ok(())
}

/// Deserializes a trace from a reader.
pub fn read_trace(r: &mut impl Read) -> Result<Trace, TraceIoError> {
    let mut header = [0u8; 4 + 2 + 8];
    r.read_exact(&mut header)
        .map_err(|_| TraceIoError::Truncated)?;
    if header[0..4] != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = u16::from_be_bytes([header[4], header[5]]);
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let claimed = u64::from_be_bytes(header[6..14].try_into().expect("8 bytes"));
    let (count, bytes) = usize::try_from(claimed)
        .ok()
        .and_then(|n| Some((n, n.checked_mul(RECORD_BYTES)?)))
        .ok_or(TraceIoError::CountTooLarge(claimed))?;
    let mut body = Vec::new();
    r.read_to_end(&mut body)?;
    if body.len() < bytes {
        return Err(TraceIoError::Truncated);
    }
    let mut records = Vec::with_capacity(count);
    for chunk in body.chunks_exact(RECORD_BYTES).take(count) {
        let ts_ns = u64::from_be_bytes(chunk[0..8].try_into().expect("8"));
        let size = u16::from_be_bytes([chunk[8], chunk[9]]);
        let src_ip = u32::from_be_bytes(chunk[10..14].try_into().expect("4"));
        let dst_ip = u32::from_be_bytes(chunk[14..18].try_into().expect("4"));
        let src_port = u16::from_be_bytes([chunk[18], chunk[19]]);
        let dst_port = u16::from_be_bytes([chunk[20], chunk[21]]);
        records.push(PacketRecord {
            ts_ns,
            size,
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            proto: Protocol::from_number(chunk[22]),
            tcp_flags: chunk[23],
            direction: if chunk[24] != 0 {
                Direction::Ingress
            } else {
                Direction::Egress
            },
        });
    }
    Ok(Trace { records })
}

/// Saves a trace to a file.
pub fn save(trace: &Trace, path: impl AsRef<Path>) -> Result<(), TraceIoError> {
    let mut f = std::fs::File::create(path)?;
    write_trace(trace, &mut f)
}

/// Loads a trace from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Trace, TraceIoError> {
    let mut f = std::fs::File::open(path)?;
    read_trace(&mut f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn round_trip_preserves_records() {
        let t = Workload::campus().packets(3_000).seed(5).generate();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        assert_eq!(buf.len(), 14 + t.len() * RECORD_BYTES);
        let got = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(got.records, t.records);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::default();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        let got = read_trace(&mut buf.as_slice()).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_trace(&Trace::default(), &mut buf).unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::BadMagic)
        ));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        write_trace(&Trace::default(), &mut buf).unwrap();
        buf[5] = 99;
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::BadVersion(99))
        ));
    }

    #[test]
    fn truncation_rejected() {
        let t = Workload::campus().packets(100).seed(1).generate();
        let mut buf = Vec::new();
        write_trace(&t, &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::Truncated)
        ));
        assert!(matches!(
            read_trace(&mut &buf[..3]),
            Err(TraceIoError::Truncated)
        ));
    }

    #[test]
    fn a_count_whose_bytes_overflow_is_a_typed_error() {
        // The smallest count whose byte length wraps, then a 3-byte body:
        // refused from the header, before the count sizes any buffer.
        let mut buf = Vec::new();
        write_trace(&Trace::default(), &mut buf).unwrap();
        let lie = (usize::MAX / RECORD_BYTES + 1) as u64;
        buf[6..14].copy_from_slice(&lie.to_be_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::CountTooLarge(n)) if n == lie
        ));
        // A count that does not overflow but that the body cannot hold is
        // still a truncation.
        buf[6..14].copy_from_slice(&(lie - 1).to_be_bytes());
        assert!(matches!(
            read_trace(&mut buf.as_slice()),
            Err(TraceIoError::Truncated)
        ));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("superfe_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sft");
        let t = Workload::enterprise().packets(500).seed(2).generate();
        save(&t, &path).unwrap();
        let got = load(&path).unwrap();
        assert_eq!(got.records, t.records);
        assert!(load(dir.join("missing.sft")).is_err());
    }

    #[test]
    fn error_display() {
        assert!(TraceIoError::BadMagic.to_string().contains("magic"));
        assert!(TraceIoError::BadVersion(7).to_string().contains('7'));
        assert!(TraceIoError::Truncated.to_string().contains("truncated"));
        assert!(TraceIoError::CountTooLarge(9).to_string().contains('9'));
    }

    mod properties {
        use proptest::prelude::*;

        use super::super::*;
        use crate::workload::Trace;

        /// Arbitrary records over the full field domains — not
        /// workload-shaped traffic, so the format is exercised on inputs
        /// the generator would never produce (extreme timestamps, port 0,
        /// unknown IP protocols). `proto` goes through `from_number` so
        /// the generated value is canonical (6 is always `Tcp`, never
        /// `Other(6)`), matching what a decode can reconstruct.
        fn record() -> impl Strategy<Value = PacketRecord> {
            (
                (
                    0u64..=u64::MAX,
                    0u16..=u16::MAX,
                    0u32..=u32::MAX,
                    0u32..=u32::MAX,
                ),
                (
                    0u16..=u16::MAX,
                    0u16..=u16::MAX,
                    0u8..=u8::MAX,
                    0u8..=u8::MAX,
                ),
                proptest::bool::ANY,
            )
                .prop_map(
                    |(
                        (ts_ns, size, src_ip, dst_ip),
                        (src_port, dst_port, proto, tcp_flags),
                        ingress,
                    )| {
                        PacketRecord {
                            ts_ns,
                            size,
                            src_ip,
                            dst_ip,
                            src_port,
                            dst_port,
                            proto: Protocol::from_number(proto),
                            tcp_flags,
                            direction: if ingress {
                                Direction::Ingress
                            } else {
                                Direction::Egress
                            },
                        }
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// write → read is the identity on any trace, and the encoding
            /// size is exactly what the header format promises.
            #[test]
            fn write_read_round_trip_is_identity(
                records in proptest::collection::vec(record(), 0..300),
            ) {
                let t = Trace { records };
                let mut buf = Vec::new();
                write_trace(&t, &mut buf).unwrap();
                prop_assert_eq!(buf.len(), 14 + t.records.len() * RECORD_BYTES);
                let got = read_trace(&mut buf.as_slice()).unwrap();
                prop_assert_eq!(got.records, t.records);
            }

            /// Cutting the file anywhere short of its full length is always
            /// reported as `Truncated` — never a panic, never a silent
            /// partial decode.
            #[test]
            fn any_truncation_is_detected(
                records in proptest::collection::vec(record(), 1..50),
                cut_seed in 0usize..10_000,
            ) {
                let t = Trace { records };
                let mut buf = Vec::new();
                write_trace(&t, &mut buf).unwrap();
                let cut = cut_seed % buf.len();
                prop_assert!(matches!(
                    read_trace(&mut &buf[..cut]),
                    Err(TraceIoError::Truncated)
                ));
            }

            /// Any single-byte corruption of the magic or version header
            /// fields is rejected with the matching typed error.
            #[test]
            fn corrupted_header_is_rejected(
                records in proptest::collection::vec(record(), 0..20),
                pos in 0usize..6,
                xor in 1u8..=u8::MAX,
            ) {
                let t = Trace { records };
                let mut buf = Vec::new();
                write_trace(&t, &mut buf).unwrap();
                buf[pos] ^= xor;
                let e = read_trace(&mut buf.as_slice()).unwrap_err();
                if pos < 4 {
                    prop_assert!(matches!(e, TraceIoError::BadMagic), "{e:?}");
                } else {
                    prop_assert!(matches!(e, TraceIoError::BadVersion(_)), "{e:?}");
                }
            }
        }
    }
}
