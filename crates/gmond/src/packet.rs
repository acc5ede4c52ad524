//! XDR-style binary metric packets.
//!
//! Real gmond multicasts metrics as XDR-encoded datagrams. This module
//! reimplements that encoding: big-endian fixed-width integers and
//! length-prefixed strings padded to four-byte alignment, one metric per
//! packet, small enough that a 128-node cluster's monitoring traffic fits
//! in "less than 56Kbps ... roughly the capacity of a dialup modem"
//! (paper §3.1).

use ganglia_metrics::{MetricType, MetricValue, Slope};

/// Decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PacketError(pub &'static str);

impl std::fmt::Display for PacketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad metric packet: {}", self.0)
    }
}

impl std::error::Error for PacketError {}

const MAGIC: u32 = 0x474D_4F4E; // "GMON"

/// One multicast metric announcement.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricPacket {
    /// Reporting host.
    pub host: String,
    /// Host IP (string form, as the XML carries it).
    pub ip: String,
    /// When the reporting gmond started (epoch seconds).
    pub gmond_started: u64,
    /// Metric name.
    pub name: String,
    /// Current value.
    pub value: MetricValue,
    /// Units string.
    pub units: String,
    /// Expected slope.
    pub slope: Slope,
    /// Maximum seconds between broadcasts.
    pub tmax: u32,
    /// Seconds after which the metric should be deleted (0 = never).
    pub dmax: u32,
}

impl MetricPacket {
    /// Encode to the wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(96);
        buf.extend_from_slice(&MAGIC.to_be_bytes());
        put_xdr_string(&mut buf, &self.host);
        put_xdr_string(&mut buf, &self.ip);
        buf.extend_from_slice(&self.gmond_started.to_be_bytes());
        put_xdr_string(&mut buf, &self.name);
        buf.extend_from_slice(&type_code(self.value.metric_type()).to_be_bytes());
        match &self.value {
            MetricValue::String(s) => put_xdr_string(&mut buf, s),
            MetricValue::Int8(v) => buf.extend_from_slice(&i32::from(*v).to_be_bytes()),
            MetricValue::Uint8(v) => buf.extend_from_slice(&u32::from(*v).to_be_bytes()),
            MetricValue::Int16(v) => buf.extend_from_slice(&i32::from(*v).to_be_bytes()),
            MetricValue::Uint16(v) => buf.extend_from_slice(&u32::from(*v).to_be_bytes()),
            MetricValue::Int32(v) => buf.extend_from_slice(&v.to_be_bytes()),
            MetricValue::Uint32(v) => buf.extend_from_slice(&v.to_be_bytes()),
            MetricValue::Float(v) => buf.extend_from_slice(&v.to_be_bytes()),
            MetricValue::Double(v) => buf.extend_from_slice(&v.to_be_bytes()),
            MetricValue::Timestamp(v) => buf.extend_from_slice(&v.to_be_bytes()),
        }
        put_xdr_string(&mut buf, &self.units);
        for v in [slope_code(self.slope), self.tmax, self.dmax] {
            buf.extend_from_slice(&v.to_be_bytes());
        }
        buf
    }

    /// Decode from the wire form.
    pub fn decode(mut input: &[u8]) -> Result<MetricPacket, PacketError> {
        if take(&mut input, "bad magic").map(u32::from_be_bytes) != Ok(MAGIC) {
            return Err(PacketError("bad magic"));
        }
        let host = get_xdr_string(&mut input)?;
        let ip = get_xdr_string(&mut input)?;
        let gmond_started = u64::from_be_bytes(take(&mut input, "truncated start time")?);
        let name = get_xdr_string(&mut input)?;
        let ty = type_from_code(u32::from_be_bytes(take(&mut input, "truncated type")?))
            .ok_or(PacketError("unknown type code"))?;
        let value = match ty {
            MetricType::String => MetricValue::String(get_xdr_string(&mut input)?),
            MetricType::Int8 => MetricValue::Int8(get_i32(&mut input)? as i8),
            MetricType::Uint8 => MetricValue::Uint8(get_u32(&mut input)? as u8),
            MetricType::Int16 => MetricValue::Int16(get_i32(&mut input)? as i16),
            MetricType::Uint16 => MetricValue::Uint16(get_u32(&mut input)? as u16),
            MetricType::Int32 => MetricValue::Int32(get_i32(&mut input)?),
            MetricType::Uint32 => MetricValue::Uint32(get_u32(&mut input)?),
            MetricType::Float => {
                MetricValue::Float(f32::from_be_bytes(take(&mut input, "truncated float")?))
            }
            MetricType::Double => {
                MetricValue::Double(f64::from_be_bytes(take(&mut input, "truncated double")?))
            }
            MetricType::Timestamp => {
                MetricValue::Timestamp(u64::from_be_bytes(take(&mut input, "truncated timestamp")?))
            }
        };
        let units = get_xdr_string(&mut input)?;
        let slope = slope_from_code(get_u32(&mut input)?).ok_or(PacketError("unknown slope"))?;
        let tmax = get_u32(&mut input)?;
        let dmax = get_u32(&mut input)?;
        Ok(MetricPacket {
            host,
            ip,
            gmond_started,
            name,
            value,
            units,
            slope,
            tmax,
            dmax,
        })
    }
}

fn type_code(ty: MetricType) -> u32 {
    match ty {
        MetricType::String => 0,
        MetricType::Int8 => 1,
        MetricType::Uint8 => 2,
        MetricType::Int16 => 3,
        MetricType::Uint16 => 4,
        MetricType::Int32 => 5,
        MetricType::Uint32 => 6,
        MetricType::Float => 7,
        MetricType::Double => 8,
        MetricType::Timestamp => 9,
    }
}

fn type_from_code(code: u32) -> Option<MetricType> {
    Some(match code {
        0 => MetricType::String,
        1 => MetricType::Int8,
        2 => MetricType::Uint8,
        3 => MetricType::Int16,
        4 => MetricType::Uint16,
        5 => MetricType::Int32,
        6 => MetricType::Uint32,
        7 => MetricType::Float,
        8 => MetricType::Double,
        9 => MetricType::Timestamp,
        _ => return None,
    })
}

fn slope_code(slope: Slope) -> u32 {
    match slope {
        Slope::Zero => 0,
        Slope::Positive => 1,
        Slope::Negative => 2,
        Slope::Both => 3,
        Slope::Unspecified => 4,
    }
}

fn slope_from_code(code: u32) -> Option<Slope> {
    Some(match code {
        0 => Slope::Zero,
        1 => Slope::Positive,
        2 => Slope::Negative,
        3 => Slope::Both,
        4 => Slope::Unspecified,
        _ => return None,
    })
}

/// XDR string: u32 length, bytes, zero padding to a 4-byte boundary.
fn put_xdr_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
    let pad = (4 - s.len() % 4) % 4;
    buf.resize(buf.len() + pad, 0);
}

fn get_xdr_string(input: &mut &[u8]) -> Result<String, PacketError> {
    let len = get_u32(input)? as usize;
    if len > 1 << 16 {
        return Err(PacketError("implausible string length"));
    }
    let padded = len + (4 - len % 4) % 4;
    if input.len() < padded {
        return Err(PacketError("truncated string"));
    }
    let s = std::str::from_utf8(&input[..len])
        .map_err(|_| PacketError("non-utf8 string"))?
        .to_string();
    *input = &input[padded..];
    Ok(s)
}

/// Split `N` bytes off the front of `input`, or fail with `err`.
fn take<const N: usize>(input: &mut &[u8], err: &'static str) -> Result<[u8; N], PacketError> {
    let (head, rest) = input.split_first_chunk().ok_or(PacketError(err))?;
    *input = rest;
    Ok(*head)
}

fn get_u32(input: &mut &[u8]) -> Result<u32, PacketError> {
    take(input, "truncated u32").map(u32::from_be_bytes)
}

fn get_i32(input: &mut &[u8]) -> Result<i32, PacketError> {
    take(input, "truncated i32").map(i32::from_be_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(value: MetricValue) -> MetricPacket {
        MetricPacket {
            host: "compute-0-0".into(),
            ip: "10.1.1.1".into(),
            gmond_started: 1_058_000_000,
            name: "load_one".into(),
            value,
            units: "".into(),
            slope: Slope::Both,
            tmax: 70,
            dmax: 0,
        }
    }

    #[test]
    fn roundtrip_every_value_type() {
        let values = vec![
            MetricValue::String("Linux".into()),
            MetricValue::Int8(-5),
            MetricValue::Uint8(200),
            MetricValue::Int16(-3000),
            MetricValue::Uint16(60000),
            MetricValue::Int32(-70000),
            MetricValue::Uint32(4_000_000_000),
            MetricValue::Float(0.89),
            MetricValue::Double(17.56),
            MetricValue::Timestamp(1_058_918_400),
        ];
        for value in values {
            let packet = sample(value);
            let decoded = MetricPacket::decode(&packet.encode()).unwrap();
            assert_eq!(decoded, packet);
        }
    }

    #[test]
    fn strings_are_four_byte_aligned() {
        let mut buf = Vec::new();
        put_xdr_string(&mut buf, "abc");
        assert_eq!(buf.len(), 8); // 4 len + 3 bytes + 1 pad
        put_xdr_string(&mut buf, "abcd");
        assert_eq!(buf.len(), 16); // + 4 len + 4 bytes + 0 pad
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(MetricPacket::decode(b"").is_err());
        assert!(MetricPacket::decode(b"\0\0\0\0junkjunk").is_err());
        let good = sample(MetricValue::Float(1.0)).encode();
        assert!(MetricPacket::decode(&good[..good.len() - 3]).is_err());
    }

    #[test]
    fn decode_rejects_unknown_codes() {
        let mut bytes = sample(MetricValue::Float(1.0)).encode().to_vec();
        // Corrupt the magic.
        bytes[0] ^= 0xFF;
        assert_eq!(MetricPacket::decode(&bytes), Err(PacketError("bad magic")));
    }

    #[test]
    fn packets_are_compact() {
        // The 56 Kbps / 128-node figure needs small packets.
        let packet = sample(MetricValue::Float(0.89));
        assert!(packet.encode().len() < 96, "{}", packet.encode().len());
    }

    #[test]
    fn empty_and_unicode_strings_roundtrip() {
        let mut packet = sample(MetricValue::String(String::new()));
        packet.units = "üs".into();
        let decoded = MetricPacket::decode(&packet.encode()).unwrap();
        assert_eq!(decoded.units, "üs");
    }
}
