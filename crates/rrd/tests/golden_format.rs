//! Golden bytes for the `.rrd` on-disk format.
//!
//! Round-trip tests cannot see a format change: encoder and decoder
//! would change together. Persisted archives outlive the binary that
//! wrote them, so this pins the exact bytes of one small database and
//! checks that those bytes decode back to the same state.

use ganglia_rrd::file::{decode, encode};
use ganglia_rrd::{ConsolidationFn, DataSourceDef, DataSourceType, RraDef, Rrd, RrdSpec};

/// Two data sources (a bounded counter and an unbounded gauge) and two
/// archives with different consolidation, updated so that rows have
/// completed, a primary step is part-way through and a row is still
/// accumulating.
fn fixed_rrd() -> Rrd {
    let spec = RrdSpec {
        step: 15,
        start: 0,
        data_sources: vec![
            DataSourceDef::gauge("load_one", 60),
            DataSourceDef {
                name: "bytes_in".into(),
                dst: DataSourceType::Counter,
                heartbeat: 60,
                min: 0.0,
                max: 1.0e9,
            },
        ],
        archives: vec![
            RraDef::average(1, 3),
            RraDef {
                cf: ConsolidationFn::Max,
                xff: 0.25,
                pdp_per_row: 2,
                rows: 2,
            },
        ],
    };
    let mut rrd = Rrd::create(spec).unwrap();
    for (t, load, bytes) in [
        (15, 1.5, 1000.0),
        (30, 2.25, 1600.0),
        (45, f64::NAN, 2050.0),
        (60, 0.75, 2950.0),
        (67, 3.0, 3100.0),
    ] {
        rrd.update(t, &[load, bytes]).unwrap();
    }
    rrd
}

/// The encoding of [`fixed_rrd`], recorded from the format as shipped.
const GOLDEN: &str = concat!(
    "4752524430303031000000000000000f00000000000000000000000000000043",
    "000000000000000500000002000000086c6f61645f6f6e650000000000000000",
    "3c7ff80000000000007ff8000000000000400800000000000040350000000000",
    "0000000000000000070000000862797465735f696e01000000000000003c0000",
    "00000000000041cdcd650000000040a83800000000004062c000000000000000",
    "00000000000700000002003fe000000000000000000000000000010000000000",
    "0000030000000000000000000000000000000100000000000000030000000000",
    "00003c7ff80000000000007ff800000000000000000000000000003fe8000000",
    "000000404e000000000000400200000000000040440000000000007ff8000000",
    "000000403e000000000000023fd0000000000000000000000000000200000000",
    "0000000200000000000000000000000000000000000000000000000200000000",
    "0000003c7ff80000000000007ff8000000000000000000000000000040020000",
    "000000007ff80000000000007ff8000000000000404e000000000000",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn encoding_matches_the_recorded_bytes() {
    assert_eq!(hex(&encode(&fixed_rrd())), GOLDEN);
}

#[test]
fn recorded_bytes_decode_to_the_same_database() {
    let golden: Vec<u8> = (0..GOLDEN.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&GOLDEN[i..i + 2], 16).unwrap())
        .collect();
    let decoded = decode(&golden).expect("recorded bytes decode");
    assert_eq!(decoded.last_update(), 67);
    assert_eq!(decoded.update_count(), 5);
    assert_eq!(hex(&encode(&decoded)), GOLDEN);
}
