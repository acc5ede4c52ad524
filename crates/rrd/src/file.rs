//! Compact binary on-disk form of a round-robin database.
//!
//! Like RRDtool files, the encoding has a fixed size determined entirely
//! by the spec — the archive rings are stored in full — so databases
//! "do not grow in size over time" (paper §3.1). gmetad stores one file
//! per `(source, host, metric)` under its archive root, which in the
//! paper's experiments sat on a RAM-backed tmpfs (§4.1).

use std::path::Path;

use crate::error::RrdError;
use crate::rrd::{Archive, Rrd};
use crate::spec::{ConsolidationFn, DataSourceDef, DataSourceType, RraDef, RrdSpec};

const MAGIC: &[u8; 8] = b"GRRD0001";

/// Serialize a database to its binary form: big-endian fields in
/// declaration order, strings as a `u32` length then the bytes.
pub fn encode(rrd: &Rrd) -> Vec<u8> {
    let spec = rrd.spec();
    let ds_count = spec.data_sources.len();
    let mut buf = Vec::with_capacity(64 + spec.cell_count() * 8);
    buf.extend_from_slice(MAGIC);
    for v in [spec.step, spec.start, rrd.last_update, rrd.update_count] {
        buf.extend_from_slice(&v.to_be_bytes());
    }
    buf.extend_from_slice(&(ds_count as u32).to_be_bytes());
    for (i, ds) in spec.data_sources.iter().enumerate() {
        put_string(&mut buf, &ds.name);
        buf.push(ds.dst.to_u8());
        buf.extend_from_slice(&ds.heartbeat.to_be_bytes());
        for v in [ds.min, ds.max, rrd.last_raw[i], rrd.pdp_sum[i]] {
            buf.extend_from_slice(&v.to_be_bytes());
        }
        buf.extend_from_slice(&rrd.pdp_known[i].to_be_bytes());
    }
    buf.extend_from_slice(&(rrd.archives.len() as u32).to_be_bytes());
    for archive in &rrd.archives {
        buf.push(archive.def.cf.to_u8());
        buf.extend_from_slice(&archive.def.xff.to_be_bytes());
        for v in [
            archive.def.pdp_per_row,
            archive.def.rows,
            archive.steps_in_cdp,
            archive.next,
            archive.written,
        ] {
            buf.extend_from_slice(&(v as u64).to_be_bytes());
        }
        buf.extend_from_slice(&archive.last_row_time.to_be_bytes());
        for &v in &archive.cdp_agg {
            buf.extend_from_slice(&v.to_be_bytes());
        }
        for &v in &archive.cdp_known {
            buf.extend_from_slice(&v.to_be_bytes());
        }
        for &v in &archive.data {
            buf.extend_from_slice(&v.to_be_bytes());
        }
    }
    buf
}

/// Reconstruct a database from its binary form.
pub fn decode(input: &[u8]) -> Result<Rrd, RrdError> {
    let bad = |why: &str| RrdError::BadFile(why.to_string());
    let mut rest = input.strip_prefix(MAGIC).ok_or_else(|| bad("bad magic"))?;
    let input = &mut rest;
    let need = |n: usize, input: &[u8]| -> Result<(), RrdError> {
        if input.len() < n {
            Err(RrdError::BadFile("truncated".to_string()))
        } else {
            Ok(())
        }
    };
    need(8 * 4 + 4, input)?;
    let step = get_u64(input)?;
    let start = get_u64(input)?;
    let last_update = get_u64(input)?;
    let update_count = get_u64(input)?;
    // Bound every field that feeds later arithmetic so adversarial
    // files cannot trigger overflow, however implausible: timestamps
    // below 2^48 (about 8.9 million years) and steps below 2^32 keep
    // all products and sums comfortably inside u64.
    if step == 0 || step > 1 << 32 {
        return Err(bad("implausible step"));
    }
    if start > 1 << 48 || last_update > 1 << 48 || last_update < start {
        return Err(bad("implausible timestamps"));
    }
    let ds_count = get_u32(input)? as usize;
    if ds_count == 0 || ds_count > 1 << 16 {
        return Err(bad("implausible data source count"));
    }
    let mut data_sources = Vec::with_capacity(ds_count);
    let mut last_raw = Vec::with_capacity(ds_count);
    let mut pdp_sum = Vec::with_capacity(ds_count);
    let mut pdp_known = Vec::with_capacity(ds_count);
    for _ in 0..ds_count {
        let name = get_string(input)?;
        // dst byte + heartbeat/min/max + last_raw/pdp_sum/pdp_known.
        need(1 + 8 * 6, input)?;
        let dst = DataSourceType::from_u8(get_u8(input)?).ok_or_else(|| bad("bad ds type"))?;
        let heartbeat = get_u64(input)?;
        let min = get_f64(input)?;
        let max = get_f64(input)?;
        data_sources.push(DataSourceDef {
            name,
            dst,
            heartbeat,
            min,
            max,
        });
        last_raw.push(get_f64(input)?);
        pdp_sum.push(get_f64(input)?);
        let known = get_u64(input)?;
        // Known seconds accumulate within the current step only.
        if known > step {
            return Err(bad("pdp accumulator exceeds step"));
        }
        pdp_known.push(known);
    }
    need(4, input)?;
    let rra_count = get_u32(input)? as usize;
    if rra_count == 0 || rra_count > 1 << 10 {
        return Err(bad("implausible archive count"));
    }
    let mut archive_defs = Vec::with_capacity(rra_count);
    let mut archives = Vec::with_capacity(rra_count);
    for _ in 0..rra_count {
        need(1 + 8 * 7, input)?;
        let cf = ConsolidationFn::from_u8(get_u8(input)?).ok_or_else(|| bad("bad cf"))?;
        let xff = get_f64(input)?;
        let pdp_per_row = get_u64(input)? as usize;
        let rows = get_u64(input)? as usize;
        if pdp_per_row == 0 || pdp_per_row > 1 << 20 || rows == 0 || rows > 1 << 24 {
            return Err(bad("implausible archive dimensions"));
        }
        let def = RraDef {
            cf,
            xff,
            pdp_per_row,
            rows,
        };
        archive_defs.push(def);
        let steps_in_cdp = get_u64(input)? as usize;
        let next = get_u64(input)? as usize;
        let written = get_u64(input)? as usize;
        let last_row_time = get_u64(input)?;
        // `steps_in_cdp == pdp_per_row` is unreachable at rest (the row
        // would have been finalized) and would hang the feed loop.
        if next >= rows || written > rows || steps_in_cdp >= pdp_per_row {
            return Err(bad("inconsistent archive cursor"));
        }
        // Until the ring first wraps, the write cursor tracks the row
        // count exactly.
        if written < rows && next != written {
            return Err(bad("inconsistent archive cursor"));
        }
        // Rows complete at pdp-aligned boundaries no later than the
        // database clock, and the first one no earlier than one full
        // row of steps — so `last_row_time >= written * row_secs` and
        // `<= last_update` hold for every engine-written file. Both are
        // load-bearing: they keep `earliest_row_time`'s subtraction
        // in range even after further (possibly early-finalizing)
        // updates on the decoded state.
        let row_secs = step * pdp_per_row as u64; // bounded: 2^32 * 2^20
        if last_row_time > last_update || (written > 0 && last_row_time < written as u64 * row_secs)
        {
            return Err(bad("inconsistent archive row time"));
        }
        need(ds_count * 12 + rows * ds_count * 8, input)?;
        let mut cdp_agg = Vec::with_capacity(ds_count);
        for _ in 0..ds_count {
            cdp_agg.push(get_f64(input)?);
        }
        let mut cdp_known = Vec::with_capacity(ds_count);
        for _ in 0..ds_count {
            let known = get_u32(input)?;
            // Known PDPs accumulate within the row in progress only.
            if known as usize > steps_in_cdp {
                return Err(bad("cdp accumulator exceeds row progress"));
            }
            cdp_known.push(known);
        }
        let mut data = Vec::with_capacity(rows * ds_count);
        for _ in 0..rows * ds_count {
            data.push(get_f64(input)?);
        }
        archives.push(Archive {
            def,
            cdp_agg,
            cdp_known,
            steps_in_cdp,
            data,
            next,
            written,
            last_row_time,
        });
    }
    let spec = RrdSpec {
        step,
        start,
        data_sources,
        archives: archive_defs,
    };
    spec.validate()?;
    Ok(Rrd {
        spec,
        last_update,
        last_raw,
        pdp_sum,
        pdp_known,
        archives,
        update_count,
    })
}

/// Write a database to a file, atomically and durably: write-temp →
/// fsync(file) → rename → fsync(dir). A crash at any instant leaves
/// either the old complete file or the new complete file — never a torn
/// mixture — and a completed rename survives power loss.
pub fn save(rrd: &Rrd, path: &Path) -> Result<(), RrdError> {
    write_atomic(path, &encode(rrd))
}

/// Atomic, durable file replacement (the checkpoint write primitive).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), RrdError> {
    use std::io::Write;
    let parent = match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => {
            std::fs::create_dir_all(parent)?;
            Some(parent)
        }
        other => other,
    };
    // Temp name carries the pid so two processes sharing an archive
    // root never collide on the scratch file.
    let file_name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_string());
    let tmp = path.with_file_name(format!(".{file_name}.{}.tmp", std::process::id()));
    let result = (|| -> Result<(), RrdError> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        if let Some(parent) = parent {
            // The rename is only durable once the directory entry is.
            std::fs::File::open(parent)?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Load a database from a file.
pub fn load(path: &Path) -> Result<Rrd, RrdError> {
    let bytes = std::fs::read(path)?;
    decode(&bytes)
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_be_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn get_string(input: &mut &[u8]) -> Result<String, RrdError> {
    if input.len() < 4 {
        return Err(RrdError::BadFile("truncated string length".to_string()));
    }
    let len = get_u32(input)? as usize;
    if len > 1 << 16 || input.len() < len {
        return Err(RrdError::BadFile("truncated string".to_string()));
    }
    let (bytes, rest) = input.split_at(len);
    let s = String::from_utf8(bytes.to_vec())
        .map_err(|_| RrdError::BadFile("non-utf8 string".to_string()))?;
    *input = rest;
    Ok(s)
}

/// Split `N` bytes off the front of `input`. `decode` checks lengths
/// before each group of fields, so this fails only if a check is
/// missing, and then as a truncated file rather than a panic.
fn take<const N: usize>(input: &mut &[u8]) -> Result<[u8; N], RrdError> {
    let (head, rest) = input
        .split_first_chunk()
        .ok_or_else(|| RrdError::BadFile("truncated".to_string()))?;
    *input = rest;
    Ok(*head)
}

fn get_u8(input: &mut &[u8]) -> Result<u8, RrdError> {
    take::<1>(input).map(|[b]| b)
}

fn get_u32(input: &mut &[u8]) -> Result<u32, RrdError> {
    take(input).map(u32::from_be_bytes)
}

fn get_u64(input: &mut &[u8]) -> Result<u64, RrdError> {
    take(input).map(u64::from_be_bytes)
}

fn get_f64(input: &mut &[u8]) -> Result<f64, RrdError> {
    take(input).map(f64::from_be_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ganglia_default_spec;

    fn populated_rrd() -> Rrd {
        let mut rrd = Rrd::create(ganglia_default_spec("load_one", 0)).unwrap();
        for i in 1..=500u64 {
            rrd.update(i * 15, &[(i % 17) as f64]).unwrap();
        }
        rrd
    }

    #[test]
    fn encode_decode_roundtrips_everything() {
        let rrd = populated_rrd();
        let bytes = encode(&rrd);
        let back = decode(&bytes).unwrap();
        // NAN min/max bounds make whole-spec equality vacuous; compare
        // the non-float structure directly.
        assert_eq!(back.spec().step, rrd.spec().step);
        assert_eq!(back.spec().start, rrd.spec().start);
        assert_eq!(back.spec().archives, rrd.spec().archives);
        assert_eq!(
            back.spec().data_sources[0].name,
            rrd.spec().data_sources[0].name
        );
        assert!(back.spec().data_sources[0].min.is_nan());
        assert_eq!(back.last_update(), rrd.last_update());
        assert_eq!(back.update_count(), rrd.update_count());
        // Fetches agree exactly.
        let a = rrd.fetch(0, ConsolidationFn::Average, 0, 7500).unwrap();
        let b = back.fetch(0, ConsolidationFn::Average, 0, 7500).unwrap();
        assert_eq!(a.start, b.start);
        assert_eq!(a.step, b.step);
        for (x, y) in a.values.iter().zip(&b.values) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn decode_continues_updating() {
        let rrd = populated_rrd();
        let mut back = decode(&encode(&rrd)).unwrap();
        back.update(501 * 15, &[3.0]).unwrap();
        assert_eq!(back.update_count(), 501);
    }

    #[test]
    fn constant_size_on_disk() {
        let fresh = Rrd::create(ganglia_default_spec("m", 0)).unwrap();
        let grown = populated_rrd();
        // Same spec => same encoded size regardless of update history
        // (names differ by one byte here, so compare against same name).
        let mut fresh_same = Rrd::create(ganglia_default_spec("load_one", 0)).unwrap();
        fresh_same.update(15, &[1.0]).unwrap();
        assert_eq!(encode(&fresh_same).len(), encode(&grown).len());
        assert!(encode(&fresh).len() < encode(&grown).len() + 16);
    }

    #[test]
    fn rejects_garbage() {
        assert!(decode(b"not an rrd").is_err());
        assert!(decode(b"GRRD0001").is_err());
        let mut bytes = encode(&populated_rrd());
        bytes.truncate(bytes.len() / 2);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn save_and_load_via_filesystem() {
        let dir = std::env::temp_dir().join(format!("ganglia-rrd-test-{}", std::process::id()));
        let path = dir.join("cluster").join("host").join("load_one.rrd");
        let rrd = populated_rrd();
        save(&rrd, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(back.last_update(), rrd.last_update());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(matches!(
            load(Path::new("/nonexistent/definitely/missing.rrd")),
            Err(RrdError::Io(_))
        ));
    }
}
