//! Parity-based container repair for the read-only v3 layout.
//!
//! Nothing writes v3 containers any more (a block store owns parity for
//! the blocks it holds), but the golden fixtures under `tests/golden/`
//! are v3, and `pastri scrub --repair` must still heal them.
//!
//! [`repair_container`] walks a container, classifies every block as
//! clean / repairable / unrepairable, reconstructs what the parity
//! budget allows, and re-emits the container **byte-identical** to the
//! original whenever every fault is within budget. The same machinery
//! backs [`crate::decompress_lossy`]'s transparent repair-on-read, the
//! stream reader's skip path, and the `pastri scrub` CLI.
//!
//! Why byte-identity is achievable: the v3 writer was deterministic, so
//! the container is a pure function of (header fields, block payloads).
//! Recover the payloads and the whole file — length varints, CRCs,
//! parity records — regenerates exactly; [`write_parity_record`] is the
//! one emitter of a parity record's canonical bytes. Three redundancy
//! layers make recovery possible:
//!
//! 1. The header records the blocks-section length, locating the parity
//!    section independently of block framing.
//! 2. Every parity record duplicates its group's payload lengths and the
//!    group's absolute offset under a CRC, so framing damage (which
//!    loses every later block of a v2 container) is repaired from the
//!    duplicates, and each group re-anchors independently.
//! 3. GF(256) Reed–Solomon shards reconstruct up to `parity_shards`
//!    missing payloads per group.
//!
//! The only hard failure is header damage: with 31-ish bytes of header
//! against kilobytes of payload, protecting it with parity would buy
//! little, and without a trusted header there is no geometry to repair
//! against.

use checksum::crc32;

use crate::container::{
    next_frame, parse_header, read_varint, varint_len, verify_frame, write_varint, Header,
};
use crate::error::DecompressError;

/// What [`repair_container`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Total blocks the container declares.
    pub total_blocks: usize,
    /// Blocks whose bytes (payload, CRC, or framing varint) were damaged
    /// and fully restored — from parity reconstruction or from the
    /// CRC-validated duplicate framing.
    pub repaired_blocks: Vec<usize>,
    /// Blocks that could not be restored: damage in their group exceeds
    /// the parity budget (or the group's parity metadata is itself
    /// unreadable). These still decode as zero-filled via
    /// [`crate::decompress_lossy`].
    pub unrepairable_blocks: Vec<usize>,
    /// Parity groups whose records were regenerated (damage was in the
    /// parity section, not the data).
    pub parity_groups_rebuilt: Vec<usize>,
}

impl RepairReport {
    /// No damage anywhere: the container is byte-for-byte intact.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.repaired_blocks.is_empty()
            && self.unrepairable_blocks.is_empty()
            && self.parity_groups_rebuilt.is_empty()
    }

    /// All damage was within the parity budget: the repaired bytes are
    /// byte-identical to the original container.
    #[must_use]
    pub fn is_fully_repaired(&self) -> bool {
        self.unrepairable_blocks.is_empty()
    }

    /// Was any damage found (repairable or not)?
    #[must_use]
    pub fn is_damaged(&self) -> bool {
        !self.is_clean()
    }
}

/// The bytes after a parity record's length varint: group offset and
/// payload-length varints, meta CRC32, then per shard a CRC32 and the
/// shard (as long as the group's longest payload).
fn parity_record_body_len(payloads: &[&[u8]], group_offset: u64, parity_shards: usize) -> usize {
    let shard_len = payloads.iter().map(|p| p.len()).max().unwrap_or(0);
    varint_len(group_offset)
        + payloads
            .iter()
            .map(|p| varint_len(p.len() as u64))
            .sum::<usize>()
        + 4
        + parity_shards * (4 + shard_len)
}

/// The canonical bytes of the parity record for the group covering
/// `payloads`, starting `group_offset` bytes into the blocks section:
/// what the v3 writer emitted, so a rebuilt record is byte-identical.
fn write_parity_record(out: &mut Vec<u8>, payloads: &[&[u8]], group_offset: u64, parity_shards: usize) {
    let shard_len = payloads.iter().map(|p| p.len()).max().unwrap_or(0);
    let record_start = out.len();
    write_varint(
        out,
        parity_record_body_len(payloads, group_offset, parity_shards) as u64,
    );
    write_varint(out, group_offset);
    for p in payloads {
        write_varint(out, p.len() as u64);
    }
    let meta_crc = crc32(&out[record_start..]);
    out.extend_from_slice(&meta_crc.to_le_bytes());

    // Shorter payloads read as zero-padded to the shard length.
    let rs = parity::ReedSolomon::new(payloads.len(), parity_shards)
        .expect("parse_header bounds group + shards to GF(256)");
    let shards = rs
        .encode_padded(payloads, shard_len)
        .expect("no payload is longer than the shard length");
    for s in &shards {
        out.extend_from_slice(&crc32(s).to_le_bytes());
    }
    for s in &shards {
        out.extend_from_slice(s);
    }
}

/// One parsed parity record (or what's left of one).
struct RecordState {
    /// Lengths of the group's payloads — trusted iff the record's meta
    /// CRC verified.
    lens: Option<Vec<usize>>,
    /// Group's first frame offset relative to the blocks section start
    /// (trusted with `lens`).
    group_offset: u64,
    /// Parity shards whose CRC verified; `None` slots are erasures.
    shards: Vec<Option<Vec<u8>>>,
    /// Byte span of the whole record within the container, when the
    /// record chain was still walkable here.
    span: Option<(usize, usize)>,
}

/// Per-block resolution after cross-checking inline framing against the
/// parity metadata.
#[derive(Clone)]
struct BlockState {
    /// Frame byte offset and payload length, when resolvable.
    span: Option<(usize, usize)>,
    /// The payload bytes are present and CRC-clean at `span`.
    payload_ok: bool,
    /// The frame bytes on disk equal the canonical encoding (no damage).
    frame_clean: bool,
    /// Reconstructed payload for damaged blocks the parity recovered.
    recovered: Option<Vec<u8>>,
}

/// Repairs a PaSTRI container in memory. Returns the (possibly) repaired
/// bytes plus a report of what was wrong.
///
/// * v3 containers: damaged blocks are reconstructed from parity, damaged
///   framing from the CRC-validated duplicate lengths, and a damaged
///   parity section is re-encoded from the (intact or repaired) data.
///   When every fault is within budget the output is **byte-identical**
///   to the originally written container.
/// * v1/v2 containers carry no parity: the report classifies damage but
///   nothing can be repaired.
/// * Header damage is a hard error — there is no trusted geometry to
///   repair against.
pub fn repair_container(bytes: &[u8]) -> Result<(Vec<u8>, RepairReport), DecompressError> {
    let header = parse_header(bytes)?;
    Ok(repair_with_header(bytes, &header))
}

/// [`repair_container`] with a pre-parsed header (shared with
/// `decompress_lossy`, which has already paid for the parse).
pub(crate) fn repair_with_header(bytes: &[u8], header: &Header) -> (Vec<u8>, RepairReport) {
    let _span = telemetry::span("repair.container");
    let mut report = RepairReport {
        total_blocks: header.num_blocks,
        ..RepairReport::default()
    };
    if !header.has_parity() {
        // Nothing to repair with: classify only.
        let mut pos = header.blocks_start;
        for b in 0..header.num_blocks {
            match next_frame(bytes, &mut pos, header.has_checksums()) {
                Ok(frame) => {
                    if verify_frame(&frame, b).is_err() {
                        report.unrepairable_blocks.push(b);
                    }
                }
                Err(_) => {
                    // Framing chain broken: every remaining block is lost.
                    report.unrepairable_blocks.extend(b..header.num_blocks);
                    break;
                }
            }
        }
        publish_report(&report);
        return (bytes.to_vec(), report);
    }

    let group = header.parity_group;
    let shards = header.parity_shards;
    let parity_start = header.blocks_start + header.blocks_len;
    let num_groups = header.num_blocks.div_ceil(group);

    let records = parse_parity_records(bytes, header, parity_start, num_groups);
    let mut blocks = resolve_blocks(bytes, header, parity_start, &records);

    // Per-group reconstruction of damaged payloads.
    for (g, rec) in records.iter().enumerate() {
        let lo = g * group;
        let hi = ((g + 1) * group).min(header.num_blocks);
        let damaged: Vec<usize> = (lo..hi).filter(|&b| !blocks[b].payload_ok).collect();
        if damaged.is_empty() {
            continue;
        }
        let Some(lens) = rec.lens.as_ref() else {
            // Parity metadata unreadable: no shard geometry to decode with.
            report.unrepairable_blocks.extend(damaged);
            continue;
        };
        let shard_len = lens.iter().copied().max().unwrap_or(0);
        let available_parity = rec.shards.iter().filter(|s| s.is_some()).count();
        if damaged.len() > available_parity {
            report.unrepairable_blocks.extend(damaged);
            continue;
        }
        let rs = match parity::ReedSolomon::new(hi - lo, shards) {
            Ok(rs) => rs,
            Err(_) => {
                report.unrepairable_blocks.extend(damaged);
                continue;
            }
        };
        let mut slots: Vec<Option<Vec<u8>>> = (lo..hi)
            .map(|b| {
                if blocks[b].payload_ok {
                    let (off, len) = blocks[b].span.expect("payload_ok implies span");
                    let start = off + varint_len(len as u64) + 4;
                    let mut v = bytes[start..start + len].to_vec();
                    v.resize(shard_len, 0);
                    Some(v)
                } else {
                    None
                }
            })
            .chain(rec.shards.iter().cloned())
            .collect();
        if rs.reconstruct(&mut slots).is_err() {
            report.unrepairable_blocks.extend(damaged);
            continue;
        }
        for &b in &damaged {
            let mut payload = slots[b - lo].take().expect("reconstructed");
            payload.truncate(lens[b - lo]);
            blocks[b].recovered = Some(payload);
        }
    }

    emit(bytes, header, parity_start, &records, &blocks, &mut report)
}

/// Walks the parity section. Records stay walkable until the first
/// structurally damaged record (its `record_len` can no longer be
/// trusted); later records become unusable, which only degrades repair
/// capability for *their* groups.
fn parse_parity_records(
    bytes: &[u8],
    header: &Header,
    parity_start: usize,
    num_groups: usize,
) -> Vec<RecordState> {
    let group = header.parity_group;
    let p = header.parity_shards;
    let mut records: Vec<RecordState> = Vec::with_capacity(num_groups);
    let mut pos = parity_start;
    let mut walkable = pos <= bytes.len();
    for g in 0..num_groups {
        let n_g = ((g + 1) * group).min(header.num_blocks) - g * group;
        let dead = RecordState {
            lens: None,
            group_offset: 0,
            shards: vec![None; p],
            span: None,
        };
        if !walkable {
            records.push(dead);
            continue;
        }
        let record_start = pos;
        let parsed = (|| -> Option<RecordState> {
            let mut at = pos;
            let record_len = read_varint(bytes, &mut at).ok()? as usize;
            let body_start = at;
            let record_end = body_start.checked_add(record_len)?;
            if record_end > bytes.len() {
                return None;
            }
            let group_offset = read_varint(bytes, &mut at).ok()?;
            let mut lens = Vec::with_capacity(n_g);
            for _ in 0..n_g {
                lens.push(read_varint(bytes, &mut at).ok()? as usize);
            }
            let meta_end = at;
            let stored_meta_crc = u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?);
            at += 4;
            let meta_ok = crc32(&bytes[record_start..meta_end]) == stored_meta_crc;
            if !meta_ok {
                // Lengths (and record_len itself) are untrusted; the
                // chain cannot safely continue past this record.
                return None;
            }
            let shard_len = lens.iter().copied().max().unwrap_or(0);
            // Cross-check the declared record length against the meta.
            let expect =
                (meta_end - body_start) + 4 + p * 4 + p * shard_len;
            if record_len != expect {
                return None;
            }
            let mut shard_crcs = Vec::with_capacity(p);
            for _ in 0..p {
                shard_crcs.push(u32::from_le_bytes(bytes.get(at..at + 4)?.try_into().ok()?));
                at += 4;
            }
            let mut shards = Vec::with_capacity(p);
            for &crc in &shard_crcs {
                let s = bytes.get(at..at + shard_len)?;
                at += shard_len;
                shards.push((crc32(s) == crc).then(|| s.to_vec()));
            }
            debug_assert_eq!(at, record_end);
            Some(RecordState {
                lens: Some(lens),
                group_offset,
                shards,
                span: Some((record_start, record_end)),
            })
        })();
        match parsed {
            Some(rec) => {
                pos = rec.span.expect("walkable record has span").1;
                records.push(rec);
            }
            None => {
                walkable = false;
                records.push(dead);
            }
        }
    }
    records
}

/// Resolves every block's frame span and payload integrity, preferring
/// the CRC-validated parity metadata and falling back to the inline
/// framing chain (v2 semantics) where a group's record is unreadable.
fn resolve_blocks(
    bytes: &[u8],
    header: &Header,
    parity_start: usize,
    records: &[RecordState],
) -> Vec<BlockState> {
    let group = header.parity_group;
    let data_end = parity_start.min(bytes.len());
    let mut blocks = vec![
        BlockState {
            span: None,
            payload_ok: false,
            frame_clean: false,
            recovered: None,
        };
        header.num_blocks
    ];
    // Running cursor: known as long as every previous frame resolved.
    let mut cursor: Option<usize> = Some(header.blocks_start);
    for (g, rec) in records.iter().enumerate() {
        let lo = g * group;
        let hi = ((g + 1) * group).min(header.num_blocks);
        let meta_start = rec
            .lens
            .as_ref()
            .map(|_| header.blocks_start + rec.group_offset as usize);
        // The CRC-validated record wins over the inline-derived cursor.
        let mut pos = match meta_start.or(cursor) {
            Some(p) => p,
            None => continue, // unresolvable group; cursor stays lost
        };
        let mut chain_ok = true;
        for b in lo..hi {
            let expected_len = rec.lens.as_ref().map(|l| l[b - lo]);
            match expected_len {
                Some(len) => {
                    let vl = varint_len(len as u64);
                    let frame_end = pos + vl + 4 + len;
                    let span_in_bounds = frame_end <= bytes.len() && frame_end <= parity_start;
                    blocks[b].span = Some((pos, len));
                    if span_in_bounds {
                        let payload = &bytes[pos + vl + 4..frame_end];
                        let stored =
                            u32::from_le_bytes(bytes[pos + vl..pos + vl + 4].try_into().unwrap());
                        blocks[b].payload_ok = crc32(payload) == stored;
                        let mut canonical_varint = Vec::with_capacity(vl);
                        write_varint(&mut canonical_varint, len as u64);
                        blocks[b].frame_clean =
                            blocks[b].payload_ok && bytes[pos..pos + vl] == canonical_varint[..];
                    }
                    pos = frame_end;
                }
                None => {
                    // No trusted metadata: walk the inline chain and let
                    // the payload CRC vouch for each untrusted length.
                    if !chain_ok {
                        continue;
                    }
                    let mut at = pos;
                    match next_frame(&bytes[..data_end], &mut at, true) {
                        Ok(frame) if verify_frame(&frame, b).is_ok() => {
                            blocks[b].span = Some((pos, frame.payload.len()));
                            blocks[b].payload_ok = true;
                            blocks[b].frame_clean = true;
                            pos = at;
                        }
                        _ => {
                            // Untrusted length + failed CRC: the chain is
                            // lost for the rest of this group.
                            chain_ok = false;
                        }
                    }
                }
            }
        }
        // The next group's start is known if this group's frame chain
        // walked to its end — or if this group's parity record pinned
        // the following offset independently of the damaged chain.
        let chain_walked = chain_ok && (hi - lo) > 0 && blocks[hi - 1].span.is_some();
        cursor = (chain_walked || rec.lens.is_some()).then_some(pos);
    }
    blocks
}

/// Re-emits the container: canonical frames for every block whose payload
/// is available (intact or reconstructed), and canonical parity records
/// for every group whose payloads are all available. Bytes that cannot be
/// regenerated are left exactly as found.
fn emit(
    bytes: &[u8],
    header: &Header,
    parity_start: usize,
    records: &[RecordState],
    blocks: &[BlockState],
    report: &mut RepairReport,
) -> (Vec<u8>, RepairReport) {
    let group = header.parity_group;
    let num_groups = records.len();
    let all_payloads_good = blocks.iter().all(|b| b.payload_ok || b.recovered.is_some());

    let mut out = bytes.to_vec();
    // A torn tail within the parity section can be regrown when the data
    // survives; make room before patching.
    if all_payloads_good && out.len() < parity_start {
        out.resize(parity_start, 0);
    }

    let payload_of = |b: usize| -> Option<&[u8]> {
        if let Some(rec) = blocks[b].recovered.as_deref() {
            Some(rec)
        } else if blocks[b].payload_ok {
            let (off, len) = blocks[b].span?;
            let start = off + varint_len(len as u64) + 4;
            Some(&bytes[start..start + len])
        } else {
            None
        }
    };

    // Canonical frames.
    for (b, st) in blocks.iter().enumerate() {
        if st.frame_clean {
            continue;
        }
        let (Some((off, len)), Some(payload)) = (st.span, payload_of(b)) else {
            continue;
        };
        let mut frame = Vec::with_capacity(varint_len(len as u64) + 4 + len);
        write_varint(&mut frame, len as u64);
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        let end = off + frame.len();
        if out.len() < end {
            out.resize(end, 0);
        }
        if out[off..end] != frame[..] {
            out[off..end].copy_from_slice(&frame);
        }
        report.repaired_blocks.push(b);
    }

    // Canonical parity records. The section layout is deterministic, so
    // canonical record spans equal the original ones — regenerate each
    // group whose payloads are all available, and compare to decide
    // whether it was damaged.
    let mut canonical_pos = parity_start;
    let mut regen_pos_known = true;
    let mut group_offset = 0u64;
    for (g, rec) in records.iter().enumerate().take(num_groups) {
        let lo = g * group;
        let hi = ((g + 1) * group).min(header.num_blocks);
        let payloads: Option<Vec<&[u8]>> = (lo..hi).map(&payload_of).collect();
        let group_framed: u64 = (lo..hi)
            .filter_map(|b| blocks[b].span)
            .map(|(_, len)| (varint_len(len as u64) + 4 + len) as u64)
            .sum();
        match payloads {
            Some(payloads) if regen_pos_known => {
                let mut record = Vec::new();
                write_parity_record(&mut record, &payloads, group_offset, header.parity_shards);
                let end = canonical_pos + record.len();
                if out.len() < end {
                    out.resize(end, 0);
                }
                if out[canonical_pos..end] != record[..] {
                    out[canonical_pos..end].copy_from_slice(&record);
                    report.parity_groups_rebuilt.push(g);
                }
                canonical_pos = end;
            }
            _ => {
                // Missing payloads (or an unknown section position): keep
                // the original record bytes where the walk located them.
                match rec.span {
                    Some((_, end)) => {
                        canonical_pos = end;
                        regen_pos_known = true;
                    }
                    None => regen_pos_known = false,
                }
            }
        }
        group_offset += group_framed;
    }
    // If the file carried the whole section and everything regenerated,
    // any trailing slack (from a corrupted record_len that over-read)
    // is impossible: canonical length == original length. But a *torn*
    // original may be shorter; the regenerated section is authoritative.
    if all_payloads_good && regen_pos_known && out.len() > canonical_pos && bytes.len() <= canonical_pos
    {
        out.truncate(canonical_pos);
    }

    report.repaired_blocks.sort_unstable();
    report.repaired_blocks.dedup();
    report.unrepairable_blocks.sort_unstable();
    report.unrepairable_blocks.dedup();
    publish_report(report);
    (out, std::mem::take(report))
}

/// Mirrors a [`RepairReport`]'s tallies into the telemetry counters —
/// the unified observability surface for repair activity (the report
/// stays the programmatic API).
fn publish_report(report: &RepairReport) {
    telemetry::counter_add("repair.blocks_repaired", report.repaired_blocks.len() as u64);
    telemetry::counter_add(
        "repair.blocks_unrepairable",
        report.unrepairable_blocks.len() as u64,
    );
    telemetry::counter_add(
        "repair.parity_groups_rebuilt",
        report.parity_groups_rebuilt.len() as u64,
    );
}
