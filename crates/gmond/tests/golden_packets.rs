//! Golden bytes for the XDR metric packet, one per value type.
//!
//! gmond peers of different builds share a multicast channel, so the
//! wire format must not drift. A round-trip test cannot see a drift
//! (encoder and decoder would change together); these recorded bytes
//! can, and decoding them must give back the packet that made them.

use ganglia_gmond::MetricPacket;
use ganglia_metrics::{MetricValue, Slope};

fn packet(value: MetricValue) -> MetricPacket {
    MetricPacket {
        host: "c0".into(),
        ip: "10.0.0.1".into(),
        gmond_started: 1_058_000_000,
        name: "m".into(),
        value,
        units: "sec".into(),
        slope: Slope::Both,
        tmax: 60,
        dmax: 300,
    }
}

/// The bytes every [`packet`] shares before the value: magic "GMON",
/// host "c0", ip "10.0.0.1", start time, metric name "m". Strings are
/// a length word, then the bytes zero-padded to four.
const HEAD: &str = "474d4f4e 00000002 63300000 00000008 31302e302e302e31 000000003f0fcc80 \
                    00000001 6d000000";

/// The bytes every [`packet`] shares after the value: units "sec",
/// slope code 3 (both), tmax 60, dmax 300.
const TAIL: &str = "00000003 73656300 00000003 0000003c 0000012c";

/// `(value, type code + value bytes)` pairs recorded from the format as
/// shipped; a full packet is `HEAD`, this, then `TAIL`.
fn golden() -> Vec<(MetricValue, String)> {
    [
        (
            MetricValue::String("Linux".into()),
            "00000000 00000005 4c696e75 78000000",
        ),
        (MetricValue::Int8(-5), "00000001 fffffffb"),
        (MetricValue::Uint8(200), "00000002 000000c8"),
        (MetricValue::Int16(-3000), "00000003 fffff448"),
        (MetricValue::Uint16(60000), "00000004 0000ea60"),
        (MetricValue::Int32(-70000), "00000005 fffeee90"),
        (MetricValue::Uint32(4_000_000_000), "00000006 ee6b2800"),
        (MetricValue::Float(0.89), "00000007 3f63d70a"),
        (MetricValue::Double(17.56), "00000008 40318f5c28f5c28f"),
        (
            MetricValue::Timestamp(1_058_918_400),
            "00000009 000000003f1dd000",
        ),
    ]
    .into_iter()
    .map(|(value, body)| (value, format!("{HEAD}{body}{TAIL}").replace(' ', "")))
    .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn encodings_match_the_recorded_bytes() {
    for (value, expected) in golden() {
        let ty = value.metric_type();
        assert_eq!(hex(&packet(value).encode()), expected, "{ty:?}");
    }
}

#[test]
fn recorded_bytes_decode_to_the_same_packets() {
    for (value, expected) in golden() {
        let decoded = MetricPacket::decode(&unhex(&expected)).expect("recorded bytes decode");
        assert_eq!(decoded, packet(value));
    }
}
