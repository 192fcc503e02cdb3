//! The versioned warm-restart snapshot format.
//!
//! A snapshot is a self-delimiting byte image of a server's session state:
//! a 5-byte preamble (magic + version) followed by CRC-framed
//! *sections*, each `[len: u32 LE][payload][crc32: u32 LE]` with the
//! CRC taken over the payload alone
//! ([`crc32_bytes`](spinal_core::frame::crc32_bytes), the CRC-32 the
//! codec frames payloads with). Section 0 is the header (tick
//! counters, resume-secret probe, aggregate stats), a fixed size
//! whatever the server has served; every further section is one live
//! session *entry* — either a pending in-flight decode (code shape,
//! receive dynamics and the full observation set: what the session has
//! heard, never decoder state) or a terminal verdict held for replay.
//!
//! The framing is built for graceful degradation on untrusted bytes:
//!
//! * a bad preamble or an unparseable header rejects the whole snapshot
//!   with a typed [`SpinalError::Snapshot`] — there is nothing safe to
//!   restore without the header;
//! * an entry section whose CRC or body fails validation is *skipped*,
//!   dropping only that session (the header's pending count lets the
//!   restorer account for every drop);
//! * a section length that does not fit the remaining bytes is a
//!   truncation — typed error, never a panic and never an out-of-range
//!   slice.
//!
//! Nothing here checks resume-token authenticity; the restorer does,
//! against its own pinned secret, so a snapshot (or a forgery) can
//! never attach a session the server would not itself have minted a
//! token for.

use spinal_core::bits::BitVec;
use spinal_core::decode::Observations;
use spinal_core::error::{SnapshotErrorKind, SpinalError};
use spinal_core::frame::crc32_bytes;
use spinal_core::symbol::{IqSymbol, Slot};
use spinal_link::FeedbackMode;

use crate::wire::ResumeToken;

/// The four magic bytes opening every snapshot.
pub(crate) const SNAP_MAGIC: [u8; 4] = *b"SNAP";

/// The snapshot-format version this build writes and restores.
pub(crate) const SNAP_VERSION: u8 = 5;

/// Preamble length: magic + version byte.
const PREAMBLE_LEN: usize = SNAP_MAGIC.len() + 1;

/// Section frame overhead: length prefix + CRC trailer.
const SECTION_OVERHEAD: usize = 8;

fn snap_err(kind: SnapshotErrorKind) -> SpinalError {
    SpinalError::Snapshot { kind }
}

/// Appends the magic + version preamble.
pub(crate) fn write_preamble(out: &mut Vec<u8>) {
    out.extend_from_slice(&SNAP_MAGIC);
    out.push(SNAP_VERSION);
}

/// Appends one CRC-framed section whose payload `fill` writes, then
/// backpatches the length prefix and appends the CRC trailer.
pub(crate) fn write_section(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    out.extend_from_slice(&0u32.to_le_bytes());
    let payload_at = out.len();
    fill(out);
    let len = (out.len() - payload_at) as u32;
    out[len_at..payload_at].copy_from_slice(&len.to_le_bytes());
    let crc = crc32_bytes(&out[payload_at..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// The header section: restart-critical counters and aggregate
/// telemetry.
pub(crate) struct SnapshotHeader {
    /// Server tick at snapshot time (all persisted deadlines are
    /// absolute ticks against this clock).
    pub tick: u64,
    /// Next admission-order connection id (persisting it keeps restored
    /// token ids collision-free with post-restart admissions).
    pub next_conn_id: u64,
    /// `resume_auth(secret, PROBE_ID)` — lets the restorer detect a
    /// secret mismatch without ever writing the secret itself.
    pub secret_probe: u64,
    /// How many entries are pending (in-flight) sessions — the restorer
    /// charges `restore_dropped` against this so conservation closes
    /// even when corrupt entries are skipped.
    pub pending: u64,
    /// Entry sections that follow the header (diagnostic; framing is
    /// self-delimiting).
    pub entry_count: u32,
    /// Aggregate stats counters, in `ServeStats` field order.
    pub stats: Vec<u64>,
}

/// Code shape of a pending session — exactly the HELLO fields, so the
/// restorer re-admits through the same validation path as the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PendingShape {
    pub message_bits: u32,
    pub k: u32,
    pub c: u32,
    pub beam: u32,
    pub max_symbols: u64,
    pub seed: u64,
}

/// One session entry, write side (borrows live server state).
pub(crate) struct EntryRef<'a> {
    pub token: ResumeToken,
    pub mode: FeedbackMode,
    pub expected_seq: u64,
    pub expires_tick: u64,
    pub body: EntryBodyRef<'a>,
}

/// Entry body, write side.
pub(crate) enum EntryBodyRef<'a> {
    /// In-flight decode: shape + receive dynamics + observations.
    Pending {
        shape: PendingShape,
        attempts: u32,
        next_attempt: u64,
        dirty_from: u32,
        obs: &'a Observations<IqSymbol>,
    },
    /// Decoded while the snapshot was taken; verdict held for replay.
    Done {
        bits: Option<&'a BitVec>,
        ack: (u64, u32),
    },
    /// Exhausted its symbol budget; close held for replay.
    Exhausted,
    /// Abandoned at the attempt ceiling; close held for replay.
    Abandoned,
}

/// One session entry, read side (owns its data).
pub(crate) struct ParsedEntry {
    pub token: ResumeToken,
    pub mode: FeedbackMode,
    pub expected_seq: u64,
    pub expires_tick: u64,
    pub body: ParsedBody,
}

/// Entry body, read side.
pub(crate) enum ParsedBody {
    Pending {
        shape: PendingShape,
        attempts: u32,
        next_attempt: u64,
        dirty_from: u32,
        obs: Vec<(Slot, IqSymbol)>,
    },
    Done {
        bits: Option<BitVec>,
        ack: (u64, u32),
    },
    Exhausted,
    Abandoned,
}

const KIND_PENDING: u8 = 0;
const KIND_DONE: u8 = 1;
const KIND_EXHAUSTED: u8 = 2;
const KIND_ABANDONED: u8 = 3;

/// Serialized size of one observation: pass `u32` + I/Q as two `f64`
/// bit patterns. Used to bound untrusted counts before any allocation.
const OBS_WIRE_LEN: usize = 4 + 8 + 8;

/// Writes the header section.
pub(crate) fn write_header(out: &mut Vec<u8>, h: &SnapshotHeader) {
    write_section(out, |p| {
        p.extend_from_slice(&h.tick.to_le_bytes());
        p.extend_from_slice(&h.next_conn_id.to_le_bytes());
        p.extend_from_slice(&h.secret_probe.to_le_bytes());
        p.extend_from_slice(&h.pending.to_le_bytes());
        p.extend_from_slice(&h.entry_count.to_le_bytes());
        p.extend_from_slice(&(h.stats.len() as u32).to_le_bytes());
        for &s in &h.stats {
            p.extend_from_slice(&s.to_le_bytes());
        }
    });
}

/// Writes one entry section.
pub(crate) fn write_entry(out: &mut Vec<u8>, e: &EntryRef<'_>) {
    write_section(out, |p| {
        p.extend_from_slice(&e.token.id.to_le_bytes());
        p.extend_from_slice(&e.token.auth.to_le_bytes());
        // Same (tag, period) convention the wire's HELLO uses.
        let (mode_tag, period) = match e.mode {
            FeedbackMode::AckOnly => (0u8, 0u64),
            FeedbackMode::Nack => (1, 0),
            FeedbackMode::CumulativeAck { period } => (2, period),
        };
        p.push(mode_tag);
        p.extend_from_slice(&period.to_le_bytes());
        p.extend_from_slice(&e.expected_seq.to_le_bytes());
        p.extend_from_slice(&e.expires_tick.to_le_bytes());
        match &e.body {
            EntryBodyRef::Pending {
                shape,
                attempts,
                next_attempt,
                dirty_from,
                obs,
            } => {
                p.push(KIND_PENDING);
                p.extend_from_slice(&shape.message_bits.to_le_bytes());
                p.extend_from_slice(&shape.k.to_le_bytes());
                p.extend_from_slice(&shape.c.to_le_bytes());
                p.extend_from_slice(&shape.beam.to_le_bytes());
                p.extend_from_slice(&shape.max_symbols.to_le_bytes());
                p.extend_from_slice(&shape.seed.to_le_bytes());
                p.extend_from_slice(&attempts.to_le_bytes());
                p.extend_from_slice(&next_attempt.to_le_bytes());
                p.extend_from_slice(&dirty_from.to_le_bytes());
                // Per level in arrival order — the order the decoder's
                // float folds consume, which is what keeps a restored
                // session bit-identical.
                p.extend_from_slice(&obs.n_levels().to_le_bytes());
                for t in 0..obs.n_levels() {
                    let level = obs.at_level(t);
                    p.extend_from_slice(&(level.len() as u32).to_le_bytes());
                    for &(pass, sym) in level {
                        p.extend_from_slice(&pass.to_le_bytes());
                        p.extend_from_slice(&sym.i.to_bits().to_le_bytes());
                        p.extend_from_slice(&sym.q.to_bits().to_le_bytes());
                    }
                }
            }
            EntryBodyRef::Done { bits, ack } => {
                p.push(KIND_DONE);
                match bits {
                    Some(b) => {
                        p.push(1);
                        p.extend_from_slice(&(b.len() as u32).to_le_bytes());
                        p.extend_from_slice(b.as_bytes());
                    }
                    None => p.push(0),
                }
                p.extend_from_slice(&ack.0.to_le_bytes());
                p.extend_from_slice(&ack.1.to_le_bytes());
            }
            EntryBodyRef::Exhausted => p.push(KIND_EXHAUSTED),
            EntryBodyRef::Abandoned => p.push(KIND_ABANDONED),
        }
    });
}

/// Bounds-checked little-endian cursor over one section payload.
struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self { b, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.b.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn remaining(&self) -> usize {
        self.b.len() - self.pos
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

/// Walks a snapshot's preamble and CRC-framed sections.
pub(crate) struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the preamble.
    ///
    /// # Errors
    ///
    /// [`SpinalError::Snapshot`] — `Truncated` under the preamble
    /// length, `BadMagic` / `BadVersion` on a foreign image.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SpinalError> {
        if bytes.len() < PREAMBLE_LEN {
            return Err(snap_err(SnapshotErrorKind::Truncated));
        }
        if bytes[..SNAP_MAGIC.len()] != SNAP_MAGIC {
            return Err(snap_err(SnapshotErrorKind::BadMagic));
        }
        if bytes[SNAP_MAGIC.len()] != SNAP_VERSION {
            return Err(snap_err(SnapshotErrorKind::BadVersion));
        }
        Ok(Self {
            bytes,
            pos: PREAMBLE_LEN,
        })
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// Takes the next section. `Ok(Some(payload))` on a CRC-clean
    /// section, `Ok(None)` for a well-framed section whose CRC fails
    /// (the caller skips just that section).
    ///
    /// # Errors
    ///
    /// [`SpinalError::Snapshot`] with `Truncated` when the frame
    /// cannot fit the remaining bytes.
    pub fn take_section(&mut self) -> Result<Option<&'a [u8]>, SpinalError> {
        let rest = &self.bytes[self.pos..];
        if rest.len() < SECTION_OVERHEAD {
            return Err(snap_err(SnapshotErrorKind::Truncated));
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if rest.len() - SECTION_OVERHEAD < len {
            return Err(snap_err(SnapshotErrorKind::Truncated));
        }
        let payload = &rest[4..4 + len];
        let crc = u32::from_le_bytes(rest[4 + len..SECTION_OVERHEAD + len].try_into().expect("4"));
        self.pos += SECTION_OVERHEAD + len;
        if crc32_bytes(payload) != crc {
            return Ok(None);
        }
        Ok(Some(payload))
    }
}

/// Parses the header payload.
///
/// # Errors
///
/// [`SpinalError::Snapshot`] with `Corrupt` on any structural
/// violation (the header is load-bearing; there is no partial header).
pub(crate) fn parse_header(payload: &[u8]) -> Result<SnapshotHeader, SpinalError> {
    let corrupt = || snap_err(SnapshotErrorKind::Corrupt);
    let mut r = Rd::new(payload);
    let tick = r.u64().ok_or_else(corrupt)?;
    let next_conn_id = r.u64().ok_or_else(corrupt)?;
    let secret_probe = r.u64().ok_or_else(corrupt)?;
    let pending = r.u64().ok_or_else(corrupt)?;
    let entry_count = r.u32().ok_or_else(corrupt)?;
    let n_stats = r.u32().ok_or_else(corrupt)? as usize;
    if n_stats > r.remaining() / 8 {
        return Err(corrupt());
    }
    let mut stats = Vec::with_capacity(n_stats);
    for _ in 0..n_stats {
        stats.push(r.u64().ok_or_else(corrupt)?);
    }
    if !r.done() {
        return Err(corrupt());
    }
    Ok(SnapshotHeader {
        tick,
        next_conn_id,
        secret_probe,
        pending,
        entry_count,
        stats,
    })
}

/// Parses one entry payload. `None` means the entry is structurally
/// invalid and must be dropped (never a panic, never a partial entry).
pub(crate) fn parse_entry(payload: &[u8]) -> Option<ParsedEntry> {
    let mut r = Rd::new(payload);
    let id = r.u64()?;
    let auth = r.u64()?;
    let mode_tag = r.u8()?;
    let period = r.u64()?;
    let mode = match (mode_tag, period) {
        (0, 0) => FeedbackMode::AckOnly,
        (1, 0) => FeedbackMode::Nack,
        (2, p) if p > 0 => FeedbackMode::CumulativeAck { period: p },
        _ => return None,
    };
    let expected_seq = r.u64()?;
    let expires_tick = r.u64()?;
    let body = match r.u8()? {
        KIND_PENDING => {
            let shape = PendingShape {
                message_bits: r.u32()?,
                k: r.u32()?,
                c: r.u32()?,
                beam: r.u32()?,
                max_symbols: r.u64()?,
                seed: r.u64()?,
            };
            let attempts = r.u32()?;
            let next_attempt = r.u64()?;
            let dirty_from = r.u32()?;
            let n_levels = r.u32()?;
            let mut obs = Vec::new();
            for t in 0..n_levels {
                let count = r.u32()? as usize;
                if count > r.remaining() / OBS_WIRE_LEN {
                    return None;
                }
                obs.reserve(count);
                for _ in 0..count {
                    let pass = r.u32()?;
                    let i = f64::from_bits(r.u64()?);
                    let q = f64::from_bits(r.u64()?);
                    if !i.is_finite() || !q.is_finite() {
                        return None;
                    }
                    obs.push((Slot::new(t, pass), IqSymbol::new(i, q)));
                }
            }
            ParsedBody::Pending {
                shape,
                attempts,
                next_attempt,
                dirty_from,
                obs,
            }
        }
        KIND_DONE => {
            let bits = match r.u8()? {
                0 => None,
                1 => {
                    let n_bits = r.u32()? as usize;
                    let bytes = r.bytes(n_bits.div_ceil(8))?;
                    let mut b = BitVec::from_bytes(bytes);
                    b.truncate(n_bits);
                    // Canonical padding: re-encoding must reproduce the
                    // stored bytes exactly.
                    if b.as_bytes() != bytes {
                        return None;
                    }
                    Some(b)
                }
                _ => return None,
            };
            let ack = (r.u64()?, r.u32()?);
            ParsedBody::Done { bits, ack }
        }
        KIND_EXHAUSTED => ParsedBody::Exhausted,
        KIND_ABANDONED => ParsedBody::Abandoned,
        _ => return None,
    };
    if !r.done() {
        return None;
    }
    Some(ParsedEntry {
        token: ResumeToken { id, auth },
        mode,
        expected_seq,
        expires_tick,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> SnapshotHeader {
        SnapshotHeader {
            tick: 42,
            next_conn_id: 7,
            secret_probe: 0xdead_beef,
            pending: 1,
            entry_count: 2,
            stats: vec![1, 2, 3],
        }
    }

    fn write_sample(obs: &Observations<IqSymbol>) -> Vec<u8> {
        let mut out = Vec::new();
        write_preamble(&mut out);
        write_header(&mut out, &sample_header());
        write_entry(
            &mut out,
            &EntryRef {
                token: ResumeToken { id: 5, auth: 77 },
                mode: FeedbackMode::CumulativeAck { period: 3 },
                expected_seq: 12,
                expires_tick: 600,
                body: EntryBodyRef::Pending {
                    shape: PendingShape {
                        message_bits: 96,
                        k: 4,
                        c: 6,
                        beam: 8,
                        max_symbols: 1 << 12,
                        seed: 0x5eed,
                    },
                    attempts: 2,
                    next_attempt: 9,
                    dirty_from: u32::MAX,
                    obs,
                },
            },
        );
        let bits = BitVec::from_bools(&[true, false, true]);
        write_entry(
            &mut out,
            &EntryRef {
                token: ResumeToken { id: 6, auth: 78 },
                mode: FeedbackMode::AckOnly,
                expected_seq: 40,
                expires_tick: 700,
                body: EntryBodyRef::Done {
                    bits: Some(&bits),
                    ack: (40, 3),
                },
            },
        );
        out
    }

    fn sample_obs() -> Observations<IqSymbol> {
        let mut obs = Observations::new(3);
        obs.push(Slot::new(0, 0), IqSymbol::new(1.5, -2.25));
        obs.push(Slot::new(2, 0), IqSymbol::new(0.0, 4.0));
        obs.push(Slot::new(0, 1), IqSymbol::new(-1.0, 0.5));
        obs
    }

    #[test]
    fn roundtrip_preserves_header_and_entries() {
        let obs = sample_obs();
        let img = write_sample(&obs);
        let mut r = SnapshotReader::new(&img).unwrap();
        let h = parse_header(r.take_section().unwrap().unwrap()).unwrap();
        assert_eq!(h.tick, 42);
        assert_eq!(h.next_conn_id, 7);
        assert_eq!(h.secret_probe, 0xdead_beef);
        assert_eq!(h.pending, 1);
        assert_eq!(h.entry_count, 2);
        assert_eq!(h.stats, vec![1, 2, 3]);

        let e1 = parse_entry(r.take_section().unwrap().unwrap()).unwrap();
        assert_eq!(e1.token, ResumeToken { id: 5, auth: 77 });
        assert_eq!(e1.mode, FeedbackMode::CumulativeAck { period: 3 });
        assert_eq!(e1.expected_seq, 12);
        assert_eq!(e1.expires_tick, 600);
        match e1.body {
            ParsedBody::Pending {
                shape,
                attempts,
                next_attempt,
                dirty_from,
                obs: got,
            } => {
                assert_eq!(shape.message_bits, 96);
                assert_eq!(shape.seed, 0x5eed);
                assert_eq!(attempts, 2);
                assert_eq!(next_attempt, 9);
                assert_eq!(dirty_from, u32::MAX);
                // Flattened level-major, arrival order within a level.
                assert_eq!(
                    got,
                    vec![
                        (Slot::new(0, 0), IqSymbol::new(1.5, -2.25)),
                        (Slot::new(0, 1), IqSymbol::new(-1.0, 0.5)),
                        (Slot::new(2, 0), IqSymbol::new(0.0, 4.0)),
                    ]
                );
            }
            _ => panic!("expected pending body"),
        }

        let e2 = parse_entry(r.take_section().unwrap().unwrap()).unwrap();
        match e2.body {
            ParsedBody::Done { bits, ack } => {
                assert_eq!(bits.unwrap(), BitVec::from_bools(&[true, false, true]));
                assert_eq!(ack, (40, 3));
            }
            _ => panic!("expected done body"),
        }
        assert!(r.done());
    }

    #[test]
    fn preamble_violations_are_typed() {
        let img = write_sample(&sample_obs());
        for cut in 0..PREAMBLE_LEN {
            assert!(matches!(
                SnapshotReader::new(&img[..cut]),
                Err(SpinalError::Snapshot {
                    kind: SnapshotErrorKind::Truncated
                })
            ));
        }
        let mut bad = img.clone();
        bad[0] ^= 0xff;
        assert!(matches!(
            SnapshotReader::new(&bad),
            Err(SpinalError::Snapshot {
                kind: SnapshotErrorKind::BadMagic
            })
        ));
        let mut skew = img;
        skew[SNAP_MAGIC.len()] = SNAP_VERSION + 1;
        assert!(matches!(
            SnapshotReader::new(&skew),
            Err(SpinalError::Snapshot {
                kind: SnapshotErrorKind::BadVersion
            })
        ));
    }

    #[test]
    fn truncated_sections_are_typed() {
        // Every proper prefix either ends cleanly at a section boundary
        // (fewer sections — the restorer's pending accounting charges
        // the drops) or surfaces a typed Truncated error; no prefix
        // panics or mis-frames.
        let img = write_sample(&sample_obs());
        let full_sections = 3;
        for cut in PREAMBLE_LEN..img.len() {
            let mut r = SnapshotReader::new(&img[..cut]).unwrap();
            let mut sections = 0;
            let outcome = loop {
                if r.done() {
                    break Ok(());
                }
                match r.take_section() {
                    Ok(_) => sections += 1,
                    Err(e) => break Err(e),
                }
            };
            match outcome {
                Ok(()) => assert!(
                    sections < full_sections,
                    "prefix of {cut} bytes cannot hold every section"
                ),
                Err(SpinalError::Snapshot {
                    kind: SnapshotErrorKind::Truncated,
                }) => {}
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
    }

    #[test]
    fn crc_damage_skips_only_the_hit_section() {
        let full = write_sample(&sample_obs());
        // Flip one payload byte in the *second* section (first entry):
        // the header and the final entry must still parse.
        let mut r = SnapshotReader::new(&full).unwrap();
        let _header = r.take_section().unwrap().unwrap();
        let entry1_payload = r.take_section().unwrap().unwrap();
        let entry1_at = entry1_payload.as_ptr() as usize - full.as_ptr() as usize;
        let mut dmg = full.clone();
        dmg[entry1_at + 3] ^= 0x40;

        let mut r = SnapshotReader::new(&dmg).unwrap();
        let h = parse_header(r.take_section().unwrap().unwrap()).unwrap();
        assert_eq!(h.stats.len(), 3);
        assert!(r.take_section().unwrap().is_none(), "hit section skipped");
        let e2 = parse_entry(r.take_section().unwrap().unwrap()).unwrap();
        assert!(matches!(e2.body, ParsedBody::Done { .. }));
        assert!(r.done());
    }

    #[test]
    fn entry_parser_rejects_structural_violations() {
        // Bad feedback mode.
        let mut out = Vec::new();
        write_entry(
            &mut out,
            &EntryRef {
                token: ResumeToken { id: 1, auth: 2 },
                mode: FeedbackMode::AckOnly,
                expected_seq: 0,
                expires_tick: 0,
                body: EntryBodyRef::Exhausted,
            },
        );
        let payload = &out[4..out.len() - 4];
        assert!(parse_entry(payload).is_some());
        let mut bad_mode = payload.to_vec();
        bad_mode[16] = 9;
        assert!(parse_entry(&bad_mode).is_none());
        // Trailing garbage.
        let mut trailing = payload.to_vec();
        trailing.push(0);
        assert!(parse_entry(&trailing).is_none());
        // Non-canonical Done padding.
        let bits = BitVec::from_bools(&[true]);
        let mut done = Vec::new();
        write_entry(
            &mut done,
            &EntryRef {
                token: ResumeToken { id: 1, auth: 2 },
                mode: FeedbackMode::AckOnly,
                expected_seq: 0,
                expires_tick: 0,
                body: EntryBodyRef::Done {
                    bits: Some(&bits),
                    ack: (1, 1),
                },
            },
        );
        let done_payload = done[4..done.len() - 4].to_vec();
        assert!(parse_entry(&done_payload).is_some());
        let mut noncanon = done_payload.clone();
        // The single stored byte holds bit 0 in its MSB; set a padding bit.
        let byte_at = done_payload.len() - 13;
        noncanon[byte_at] |= 0x01;
        assert!(parse_entry(&noncanon).is_none());
    }

    #[test]
    fn byte_soup_never_panics() {
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut soup = Vec::new();
        for len in 0..512usize {
            soup.clear();
            for _ in 0..len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                soup.push((x >> 56) as u8);
            }
            match SnapshotReader::new(&soup) {
                Err(_) => {}
                Ok(mut r) => {
                    while !r.done() {
                        match r.take_section() {
                            Ok(Some(p)) => {
                                let _ = parse_header(p);
                                let _ = parse_entry(p);
                            }
                            Ok(None) => {}
                            Err(_) => break,
                        }
                    }
                }
            }
        }
    }
}
