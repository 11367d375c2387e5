//! The PTRF wire protocol: length-prefixed, CRC32-framed messages for
//! serving decompressed ERI blocks out of process.
//!
//! Every frame is:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "PTRF"
//! 4       1     kind (1=Hello 2=ReadRequest 3=ReadResponse
//!                     6=Overloaded 7=TelemetryRequest
//!                     8=TelemetryResponse; 4 and 5 are retired)
//! 5       3     reserved, must be zero
//! 8       4     payload length, u32 LE (hard cap 64 MiB)
//! 12      N     payload (kind-specific, little-endian fixed-width)
//! 12+N    4     CRC32 over bytes [0, 12+N) — header *and* payload
//! ```
//!
//! The CRC reuses the `checksum` crate (same IEEE-reflected CRC32 the
//! container format uses), so a flipped bit anywhere in a frame —
//! header, length, or payload — is detected before any field is
//! trusted. Decoding is hostile-length hardened in the same spirit as
//! the container parsers: the payload length is capped before
//! allocation, every count is checked against the bytes actually
//! present, and reserved bytes must be zero. A frame that fails any of
//! these checks yields a structured [`FrameError`]; the transport layer
//! maps that to "resynchronize by reconnecting", never to a panic.
//!
//! Payload layouts (all integers little-endian):
//!
//! * `Hello` (server → client on connect): protocol version `u32`,
//!   `num_blocks u64`, `num_subblocks u32`, `subblock_size u32`,
//!   `error_bound f64` (bit pattern). Lets a client check that every
//!   replica serves the same dataset before reading from it.
//! * `ReadRequest`: `request_id u64`, `budget_ms u32` (the client's
//!   *remaining* whole-call deadline budget at send time, which
//!   admission control weighs against its estimated queue wait),
//!   `trace_id u64`, `span_id u64` (the client's
//!   [`telemetry::TraceContext`], so the server's spans for this
//!   request carry the originating trace id; a zero `trace_id` means
//!   "untraced" and the server adopts nothing), `count u32`, then
//!   `count` block ids as `u64`.
//! * `ReadResponse`: `request_id u64`, `count u32`, then per block a
//!   `status u8` — `0` followed by `len u32` + `len` f64 bit patterns,
//!   or an error code followed by `msg_len u32` + UTF-8 message. A bad
//!   block degrades to its own status byte; the other blocks in the
//!   response are unaffected.
//! * `Overloaded`: the server shed a request instead of serving it —
//!   `request_id u64`, `reason u8` (0 = shed under load, 1 = draining),
//!   `retry_after_ms u32` (backoff hint).
//! * `TelemetryRequest` (empty) / `TelemetryResponse`: a full
//!   `telemetry::Snapshot` scrape — counters, gauges, 32-bucket
//!   histograms, journal events — as the line-JSON bytes produced by
//!   `telemetry::export::json_lines` (opaque at this layer; the frame
//!   carries raw bytes). Scrapes are admitted at priority 1 so `pastri
//!   top` keeps working while the server sheds load. The scrape is
//!   the one remote view of a server's counters.
//!
//! **One version.** The server always speaks first with a `Hello`
//! carrying [`PROTO_VERSION`]; a client refuses any other version
//! with a protocol error. There is no negotiation and no downgrade.

use std::io::{self, Read, Write};

/// Frame magic: "PTRF" (PaSTRI Transport Frame).
pub(crate) const MAGIC: [u8; 4] = *b"PTRF";
/// Protocol version spoken by this build; carried in `Hello`.
pub const PROTO_VERSION: u32 = 4;
/// Fixed frame header length (magic + kind + reserved + payload len).
pub(crate) const HEADER_LEN: usize = 12;
/// Hard cap on payload length — reject before allocating.
pub const MAX_FRAME_PAYLOAD: u32 = 64 << 20;
/// Per-block error messages are clamped to this many bytes on the wire
/// so a worst-case all-errors response still fits the batch budget
/// computed by [`max_ids_per_read`].
pub(crate) const MAX_BLOCK_ERROR_MESSAGE: usize = 256;

/// Fixed `ReadResponse` payload overhead: request id (8) + count (4).
const READ_RESPONSE_OVERHEAD: usize = 12;
/// Fixed `ReadRequest` payload overhead: request id (8) + budget (4) +
/// trace id (8) + span id (8) + count (4).
const READ_REQUEST_OVERHEAD: usize = 32;

/// Worst-case `ReadResponse` payload bytes for `ids` blocks of
/// `values_per_block` f64 values: the fixed overhead plus, per slot,
/// the larger of full values (1 + 4 + 8·values) or a clamped error
/// message (1 + 4 + [`MAX_BLOCK_ERROR_MESSAGE`]). The one formula
/// behind both the batch cap ([`max_ids_per_read`]) and the server's
/// admission byte budget. Saturates rather than overflowing.
#[must_use]
pub(crate) fn max_read_response_len(ids: usize, values_per_block: usize) -> usize {
    let per_slot =
        8usize.saturating_mul(values_per_block).max(MAX_BLOCK_ERROR_MESSAGE).saturating_add(5);
    READ_RESPONSE_OVERHEAD.saturating_add(ids.saturating_mul(per_slot))
}

/// How many block ids one `ReadRequest`/`ReadResponse` exchange can
/// carry under `payload_cap` bytes of frame payload, for blocks of
/// `values_per_block` f64 values. Sized for the worst case on both
/// sides of the wire: 8 bytes per id in the request, and
/// `max_read_response_len` in the response. The client chunks its
/// id lists with this and the server rejects batches past it, so
/// neither side can be asked to encode a frame the other would refuse
/// as [`FrameError::TooLarge`]. Returns 0 when even a single block
/// cannot fit — callers must surface that as a config error.
#[must_use]
pub fn max_ids_per_read(values_per_block: usize, payload_cap: usize) -> usize {
    let cap = payload_cap.min(MAX_FRAME_PAYLOAD as usize);
    let per_slot = max_read_response_len(1, values_per_block) - READ_RESPONSE_OVERHEAD;
    let by_response = cap.saturating_sub(READ_RESPONSE_OVERHEAD) / per_slot;
    let by_request = cap.saturating_sub(READ_REQUEST_OVERHEAD) / 8;
    by_response.min(by_request)
}

/// Clamps a per-block error message to [`MAX_BLOCK_ERROR_MESSAGE`]
/// bytes (cut on a char boundary) so the worst-case response size
/// stays inside the [`max_ids_per_read`] budget.
#[must_use]
pub(crate) fn clamp_block_error_message(mut msg: String) -> String {
    if msg.len() > MAX_BLOCK_ERROR_MESSAGE {
        let mut cut = MAX_BLOCK_ERROR_MESSAGE;
        while !msg.is_char_boundary(cut) {
            cut -= 1;
        }
        msg.truncate(cut);
    }
    msg
}

/// Why a frame could not be read or decoded.
#[derive(Debug)]
pub enum FrameError {
    /// Transport-level read failure (includes timeouts and EOF — a
    /// clean EOF mid-frame is a truncated frame).
    Io(io::Error),
    /// First four bytes were not `PTRF`.
    BadMagic([u8; 4]),
    /// Reserved header bytes were nonzero.
    BadReserved,
    /// Header kind byte names no known message.
    UnknownKind(u8),
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    TooLarge(u32),
    /// Stored CRC32 disagrees with the received bytes.
    BadCrc { stored: u32, actual: u32 },
    /// Payload fields are inconsistent with the bytes present.
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::BadReserved => write!(f, "nonzero reserved header bytes"),
            FrameError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::TooLarge(n) => write!(f, "frame payload {n} bytes over cap"),
            FrameError::BadCrc { stored, actual } => {
                write!(f, "frame crc mismatch: stored {stored:#010x}, actual {actual:#010x}")
            }
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Is this corruption of the byte stream itself (as opposed to an
    /// I/O failure reading it)? Corrupt frames count
    /// `rpc.frame_errors` and force a reconnect; I/O errors follow the
    /// transient-retry classification instead.
    #[must_use]
    pub(crate) fn is_corrupt_frame(&self) -> bool {
        !matches!(self, FrameError::Io(_))
    }
}

/// Per-block error classification carried in a `ReadResponse` status
/// byte. Mirrors the CLI exit contract: corruption is the artifact's
/// fault (exit 2), the rest are serving-path problems (exit 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockErrorKind {
    /// The stored block is damaged beyond repair (checksum/parity).
    Corruption,
    /// The requested id is past the end of the mounted stores.
    OutOfRange,
    /// The server hit an I/O failure serving this block.
    Io,
}

impl BlockErrorKind {
    fn code(self) -> u8 {
        match self {
            BlockErrorKind::Corruption => 1,
            BlockErrorKind::OutOfRange => 2,
            BlockErrorKind::Io => 3,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            1 => Some(BlockErrorKind::Corruption),
            2 => Some(BlockErrorKind::OutOfRange),
            3 => Some(BlockErrorKind::Io),
            _ => None,
        }
    }
}

impl std::fmt::Display for BlockErrorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockErrorKind::Corruption => write!(f, "corruption"),
            BlockErrorKind::OutOfRange => write!(f, "out of range"),
            BlockErrorKind::Io => write!(f, "i/o"),
        }
    }
}

/// One block slot in a `ReadResponse`: the decompressed values, or a
/// structured per-block error that leaves the rest of the batch intact.
#[derive(Debug, Clone, PartialEq)]
pub enum WireBlock {
    Values(Vec<f64>),
    Error { kind: BlockErrorKind, message: String },
}

/// Server identity sent once per connection, before any request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hello {
    pub version: u32,
    pub num_blocks: u64,
    pub num_subblocks: u32,
    pub subblock_size: u32,
    pub error_bound: f64,
}

/// A batch read: block ids, the client's remaining deadline budget
/// (what admission control weighs against its queue-wait estimate),
/// and the client's trace context (`trace_id == 0` means untraced).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRequest {
    pub request_id: u64,
    pub budget_ms: u32,
    /// Cross-process correlation id ([`telemetry::TraceContext::trace_id`]).
    pub trace_id: u64,
    /// Client-side originating span id.
    pub span_id: u64,
    pub ids: Vec<u64>,
}

/// Why the server refused to serve a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadReason {
    /// Shed under load: queue wait past the request's budget, queue
    /// full, or the response-bytes budget exhausted.
    Shed,
    /// The server is draining: finishing admitted requests, accepting
    /// no new ones.
    Draining,
}

impl OverloadReason {
    fn code(self) -> u8 {
        match self {
            OverloadReason::Shed => 0,
            OverloadReason::Draining => 1,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(OverloadReason::Shed),
            1 => Some(OverloadReason::Draining),
            _ => None,
        }
    }
}

impl std::fmt::Display for OverloadReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OverloadReason::Shed => write!(f, "shed"),
            OverloadReason::Draining => write!(f, "draining"),
        }
    }
}

/// The server shed a request instead of serving it: a structured
/// refusal with a backoff hint, never a silent timeout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overloaded {
    pub request_id: u64,
    pub reason: OverloadReason,
    /// Backoff hint: how long the server suggests waiting before the
    /// next attempt.
    pub retry_after_ms: u32,
}

/// Response to a [`ReadRequest`], one [`WireBlock`] per requested id in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadResponse {
    pub request_id: u64,
    pub blocks: Vec<WireBlock>,
}

/// Every message the protocol can carry.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    Hello(Hello),
    ReadRequest(ReadRequest),
    ReadResponse(ReadResponse),
    Overloaded(Overloaded),
    TelemetryRequest,
    /// Raw `telemetry::export::json_lines` bytes — opaque at this
    /// layer; the client parses them with `from_json_lines`.
    TelemetryResponse(Vec<u8>),
}

impl Message {
    fn kind(&self) -> u8 {
        match self {
            Message::Hello(_) => 1,
            Message::ReadRequest(_) => 2,
            Message::ReadResponse(_) => 3,
            Message::Overloaded(_) => 6,
            Message::TelemetryRequest => 7,
            Message::TelemetryResponse(_) => 8,
        }
    }
}

/// A parsed, validated frame header (magic/reserved/length checked;
/// CRC still pending — it covers the payload too).
#[derive(Debug, Clone, Copy)]
pub(crate) struct FrameHeader {
    pub kind: u8,
    pub payload_len: u32,
    raw: [u8; HEADER_LEN],
}

impl FrameHeader {
    /// Validates the fixed 12-byte header. The CRC is *not* checked
    /// here — it trails the payload.
    pub(crate) fn parse(raw: [u8; HEADER_LEN]) -> Result<Self, FrameError> {
        if raw[..4] != MAGIC {
            return Err(FrameError::BadMagic([raw[0], raw[1], raw[2], raw[3]]));
        }
        let kind = raw[4];
        if !matches!(kind, 1..=3 | 6..=8) {
            return Err(FrameError::UnknownKind(kind));
        }
        if raw[5..8] != [0, 0, 0] {
            return Err(FrameError::BadReserved);
        }
        let payload_len = u32::from_le_bytes([raw[8], raw[9], raw[10], raw[11]]);
        if payload_len > MAX_FRAME_PAYLOAD {
            return Err(FrameError::TooLarge(payload_len));
        }
        Ok(FrameHeader { kind, payload_len, raw })
    }
}

/// Encodes `msg` as one complete frame (header + payload + CRC).
/// A payload past [`MAX_FRAME_PAYLOAD`] is a real
/// [`FrameError::TooLarge`] — enforced here, at encode time and before
/// anything is allocated or encoded, so an oversized message is never
/// put on the wire for the peer to reject (and the `u32` length field
/// can never silently truncate). The frame is sized first, encoded in
/// place into one buffer, and CRC'd once.
pub(crate) fn frame_bytes(msg: &Message) -> Result<Vec<u8>, FrameError> {
    let len = payload_len(msg);
    if len > MAX_FRAME_PAYLOAD as usize {
        return Err(FrameError::TooLarge(u32::try_from(len).unwrap_or(u32::MAX)));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + len + 4);
    out.extend_from_slice(&MAGIC);
    out.push(msg.kind());
    out.extend_from_slice(&[0, 0, 0]);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    encode_payload(msg, &mut out);
    assert_eq!(out.len(), HEADER_LEN + len, "payload_len disagrees with encode_payload");
    checksum::append_crc32_of(&mut out);
    Ok(out)
}

/// Writes one frame. Not flushed — callers batch then flush. An
/// oversized message surfaces as `InvalidData` before any byte is
/// written.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> io::Result<()> {
    let bytes = frame_bytes(msg)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(&bytes)
}

/// Decodes a frame body (`payload ++ crc32`, exactly
/// `header.payload_len + 4` bytes) read after `header`.
pub(crate) fn decode_frame(header: &FrameHeader, body: &[u8]) -> Result<Message, FrameError> {
    let want = header.payload_len as usize + 4;
    if body.len() != want {
        return Err(FrameError::Malformed("frame body length"));
    }
    let (payload, crc_bytes) = body.split_at(header.payload_len as usize);
    let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    let mut hasher = checksum::Crc32::new();
    hasher.update(&header.raw);
    hasher.update(payload);
    let actual = hasher.finish();
    if stored != actual {
        return Err(FrameError::BadCrc { stored, actual });
    }
    decode_payload(header.kind, payload)
}

/// Reads one complete frame from `r` (blocking; honors any read
/// timeout already set on the underlying socket).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Message, FrameError> {
    let mut raw = [0u8; HEADER_LEN];
    r.read_exact(&mut raw)?;
    let header = FrameHeader::parse(raw)?;
    let mut body = vec![0u8; header.payload_len as usize + 4];
    r.read_exact(&mut body)?;
    decode_frame(&header, &body)
}

/// Exact encoded payload length of `msg`, computed without encoding.
fn payload_len(msg: &Message) -> usize {
    match msg {
        // version, num_blocks, num_subblocks, subblock_size, error_bound.
        Message::Hello(_) => 4 + 8 + 4 + 4 + 8,
        Message::ReadRequest(rq) => READ_REQUEST_OVERHEAD + 8 * rq.ids.len(),
        Message::ReadResponse(rs) => {
            READ_RESPONSE_OVERHEAD
                + rs.blocks
                    .iter()
                    .map(|b| {
                        5 + match b {
                            WireBlock::Values(v) => 8 * v.len(),
                            WireBlock::Error { message, .. } => message.len(),
                        }
                    })
                    .sum::<usize>()
        }
        Message::TelemetryRequest => 0,
        // request_id, reason, retry_after_ms.
        Message::Overloaded(_) => 8 + 1 + 4,
        Message::TelemetryResponse(bytes) => bytes.len(),
    }
}

/// Appends `words` as little-endian `u64`s in one bulk run.
fn put_u64s(out: &mut Vec<u8>, words: impl ExactSizeIterator<Item = u64>) {
    let start = out.len();
    out.resize(start + 8 * words.len(), 0);
    for (dst, w) in out[start..].as_chunks_mut::<8>().0.iter_mut().zip(words) {
        *dst = w.to_le_bytes();
    }
}

/// Appends `msg`'s payload to `p`. Counts and lengths are cast to the
/// wire's `u32` fields: [`frame_bytes`] has already capped the whole
/// payload at [`MAX_FRAME_PAYLOAD`], so none of them can truncate.
fn encode_payload(msg: &Message, p: &mut Vec<u8>) {
    match msg {
        Message::Hello(h) => {
            p.extend_from_slice(&h.version.to_le_bytes());
            p.extend_from_slice(&h.num_blocks.to_le_bytes());
            p.extend_from_slice(&h.num_subblocks.to_le_bytes());
            p.extend_from_slice(&h.subblock_size.to_le_bytes());
            p.extend_from_slice(&h.error_bound.to_bits().to_le_bytes());
        }
        Message::ReadRequest(rq) => {
            p.extend_from_slice(&rq.request_id.to_le_bytes());
            p.extend_from_slice(&rq.budget_ms.to_le_bytes());
            p.extend_from_slice(&rq.trace_id.to_le_bytes());
            p.extend_from_slice(&rq.span_id.to_le_bytes());
            p.extend_from_slice(&(rq.ids.len() as u32).to_le_bytes());
            put_u64s(p, rq.ids.iter().copied());
        }
        Message::Overloaded(o) => {
            p.extend_from_slice(&o.request_id.to_le_bytes());
            p.push(o.reason.code());
            p.extend_from_slice(&o.retry_after_ms.to_le_bytes());
        }
        Message::ReadResponse(rs) => {
            p.extend_from_slice(&rs.request_id.to_le_bytes());
            p.extend_from_slice(&(rs.blocks.len() as u32).to_le_bytes());
            for b in &rs.blocks {
                match b {
                    WireBlock::Values(v) => {
                        p.push(0);
                        p.extend_from_slice(&(v.len() as u32).to_le_bytes());
                        put_u64s(p, v.iter().map(|x| x.to_bits()));
                    }
                    WireBlock::Error { kind, message } => {
                        p.push(kind.code());
                        let msg_bytes = message.as_bytes();
                        p.extend_from_slice(&(msg_bytes.len() as u32).to_le_bytes());
                        p.extend_from_slice(msg_bytes);
                    }
                }
            }
        }
        Message::TelemetryResponse(bytes) => {
            p.extend_from_slice(bytes);
        }
        Message::TelemetryRequest => {}
    }
}

/// Bounds-checked little-endian payload cursor. Every read is checked
/// against the bytes actually present — a hostile count can never walk
/// past the payload.
struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.buf.len() < n {
            return Err(FrameError::Malformed("field past end of payload"));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A run of `n` little-endian `u64`s, taken in one bounds check.
    fn u64s(&mut self, n: usize) -> Result<impl ExactSizeIterator<Item = u64> + 'a, FrameError> {
        let bytes = n.checked_mul(8).ok_or(FrameError::Malformed("field past end of payload"))?;
        let (words, _) = self.take(bytes)?.as_chunks::<8>();
        Ok(words.iter().map(|w| u64::from_le_bytes(*w)))
    }

    fn done(&self) -> Result<(), FrameError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(FrameError::Malformed("trailing payload bytes"))
        }
    }
}

fn decode_payload(kind: u8, payload: &[u8]) -> Result<Message, FrameError> {
    let mut c = Cursor { buf: payload };
    let msg = match kind {
        1 => Message::Hello(Hello {
            version: c.u32()?,
            num_blocks: c.u64()?,
            num_subblocks: c.u32()?,
            subblock_size: c.u32()?,
            error_bound: c.f64()?,
        }),
        2 => {
            let request_id = c.u64()?;
            let budget_ms = c.u32()?;
            let trace_id = c.u64()?;
            let span_id = c.u64()?;
            let count = c.u32()? as usize;
            // Each id is 8 bytes; the count must fit what's present.
            if count > c.buf.len() / 8 {
                return Err(FrameError::Malformed("id count past end of payload"));
            }
            let ids = c.u64s(count)?.collect();
            Message::ReadRequest(ReadRequest { request_id, budget_ms, trace_id, span_id, ids })
        }
        3 => {
            let request_id = c.u64()?;
            let count = c.u32()? as usize;
            // One status byte minimum per block.
            if count > c.buf.len() {
                return Err(FrameError::Malformed("block count past end of payload"));
            }
            let mut blocks = Vec::with_capacity(count);
            for _ in 0..count {
                let status = c.u8()?;
                if status == 0 {
                    let len = c.u32()? as usize;
                    if len > c.buf.len() / 8 {
                        return Err(FrameError::Malformed("value count past end of payload"));
                    }
                    blocks.push(WireBlock::Values(c.u64s(len)?.map(f64::from_bits).collect()));
                } else {
                    let kind = BlockErrorKind::from_code(status)
                        .ok_or(FrameError::Malformed("unknown block status"))?;
                    let len = c.u32()? as usize;
                    let raw = c.take(len)?;
                    let message = String::from_utf8(raw.to_vec())
                        .map_err(|_| FrameError::Malformed("block error not utf-8"))?;
                    blocks.push(WireBlock::Error { kind, message });
                }
            }
            Message::ReadResponse(ReadResponse { request_id, blocks })
        }
        6 => {
            let request_id = c.u64()?;
            let reason = OverloadReason::from_code(c.u8()?)
                .ok_or(FrameError::Malformed("unknown overload reason"))?;
            let retry_after_ms = c.u32()?;
            Message::Overloaded(Overloaded { request_id, reason, retry_after_ms })
        }
        7 => Message::TelemetryRequest,
        8 => Message::TelemetryResponse(c.take(c.buf.len())?.to_vec()),
        _ => return Err(FrameError::UnknownKind(kind)),
    };
    c.done()?;
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use checksum::crc32;

    fn round_trip(msg: &Message) {
        let bytes = frame_bytes(msg).unwrap();
        let mut r = &bytes[..];
        let got = read_frame(&mut r).unwrap();
        assert_eq!(&got, msg);
        assert!(r.is_empty(), "frame fully consumed");
    }

    /// At least one message of every kind, with every count and length
    /// field exercised at zero and non-zero.
    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello(Hello {
                version: PROTO_VERSION,
                num_blocks: 1234,
                num_subblocks: 4,
                subblock_size: 16,
                error_bound: 1e-10,
            }),
            Message::ReadRequest(ReadRequest {
                request_id: 7,
                budget_ms: 117,
                trace_id: 0xdead_beef_cafe_f00d,
                span_id: 0x1234_5678_9abc_def0,
                ids: vec![0, 99, 3, 3],
            }),
            Message::ReadRequest(ReadRequest {
                request_id: 8,
                budget_ms: 0,
                trace_id: 0,
                span_id: 0,
                ids: vec![],
            }),
            Message::ReadResponse(ReadResponse {
                request_id: 7,
                blocks: vec![
                    WireBlock::Values(vec![1.0, -2.5e-12, f64::MIN_POSITIVE]),
                    WireBlock::Error {
                        kind: BlockErrorKind::Corruption,
                        message: "block 99: parity budget exceeded".into(),
                    },
                    WireBlock::Values(vec![]),
                    WireBlock::Error { kind: BlockErrorKind::OutOfRange, message: String::new() },
                ],
            }),
            Message::Overloaded(Overloaded {
                request_id: 10,
                reason: OverloadReason::Shed,
                retry_after_ms: 12,
            }),
            Message::Overloaded(Overloaded {
                request_id: 11,
                reason: OverloadReason::Draining,
                retry_after_ms: 0,
            }),
            Message::TelemetryRequest,
            Message::TelemetryResponse(
                b"{\"type\":\"meta\",\"version\":2,\"spans_dropped\":0}\n".to_vec(),
            ),
            Message::TelemetryResponse(Vec::new()),
        ]
    }

    /// Frame offsets of every `u32` count or length field in `msg`'s
    /// frame: the header's payload length, plus the id count, block
    /// count and per-block value/message lengths where the kind has
    /// them.
    fn length_fields(msg: &Message) -> Vec<usize> {
        let mut offsets = vec![8];
        match msg {
            Message::ReadRequest(_) => offsets.push(HEADER_LEN + 28),
            Message::ReadResponse(rs) => {
                offsets.push(HEADER_LEN + 8);
                let mut off = HEADER_LEN + 12;
                for b in &rs.blocks {
                    offsets.push(off + 1);
                    off += 5 + match b {
                        WireBlock::Values(v) => 8 * v.len(),
                        WireBlock::Error { message, .. } => message.len(),
                    };
                }
            }
            _ => {}
        }
        offsets
    }

    fn recompute_crc(frame: &mut [u8]) {
        let crc_off = frame.len() - 4;
        let crc = crc32(&frame[..crc_off]);
        frame[crc_off..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn every_message_round_trips() {
        for msg in sample_messages() {
            round_trip(&msg);
        }
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        // Every kind, three mutation families. Each mutation must
        // surface as a structured FrameError — never a silently
        // different message, never a panic.
        let samples = sample_messages();
        let mut kinds: Vec<u8> = samples.iter().map(Message::kind).collect();
        kinds.dedup();
        assert_eq!(kinds, [1, 2, 3, 6, 7, 8], "samples cover every kind in order");
        for msg in &samples {
            let clean = frame_bytes(msg).unwrap();

            // Every single-bit flip, header and payload and CRC alike.
            for byte in 0..clean.len() {
                for bit in 0..8 {
                    let mut dirty = clean.clone();
                    dirty[byte] ^= 1 << bit;
                    let got = read_frame(&mut &dirty[..]);
                    assert!(got.is_err(), "{msg:?}: flip at byte {byte} bit {bit} went undetected");
                }
            }

            // Every truncation prefix of the frame.
            for cut in 0..clean.len() {
                let err = read_frame(&mut &clean[..cut]).unwrap_err();
                assert!(matches!(err, FrameError::Io(_)), "{msg:?}: cut at {cut}: {err}");
            }

            // Every count/length field inflated, CRC recomputed so the
            // bounds checks themselves must catch it.
            for off in length_fields(msg) {
                let stored = u32::from_le_bytes(clean[off..off + 4].try_into().unwrap());
                for inflated in [stored + 1, stored + 8, u32::MAX] {
                    let mut dirty = clean.clone();
                    dirty[off..off + 4].copy_from_slice(&inflated.to_le_bytes());
                    recompute_crc(&mut dirty);
                    let got = read_frame(&mut &dirty[..]);
                    assert!(
                        got.is_err(),
                        "{msg:?}: field at {off} inflated to {inflated} decoded as {got:?}"
                    );
                }
            }
        }
    }

    /// Two frames past the checksum kernel's 128-byte threshold: a
    /// 1000-id request and a 16-block `(dd|dd)`-sized response, filled
    /// with fixed bit patterns.
    fn large_messages() -> Vec<Message> {
        let word = |i: u64| i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        vec![
            Message::ReadRequest(ReadRequest {
                request_id: 1,
                budget_ms: 2,
                trace_id: 3,
                span_id: 4,
                ids: (0..1000).map(word).collect(),
            }),
            Message::ReadResponse(ReadResponse {
                request_id: 42,
                blocks: (0..16u64)
                    .map(|b| {
                        WireBlock::Values((0..1296).map(|i| f64::from_bits(word(b * 1296 + i))).collect())
                    })
                    .collect(),
            }),
        ]
    }

    #[test]
    fn frames_match_their_pinned_encoding() {
        // (frame length, trailing CRC field) of every sample frame, as
        // encoded by the two-pass encoder and the table-only CRC before
        // frames were sized first and encoded in place. The trailing
        // field pins every byte before it; the CRC of a *whole* frame is
        // always the residue 0x2144df1c and pins nothing.
        let pinned: [(usize, u32); 11] = [
            (44, 0x1c3c_a417),
            (80, 0x71fd_696b),
            (48, 0x7ae0_087c),
            (104, 0x5a58_5878),
            (29, 0xffdf_e357),
            (29, 0x55ff_acda),
            (16, 0x9565_1724),
            (62, 0x0767_d872),
            (16, 0x4c45_0588),
            (8048, 0x7c00_4b11),
            (165_996, 0xc427_f8c9),
        ];
        let msgs: Vec<Message> = sample_messages().into_iter().chain(large_messages()).collect();
        assert_eq!(msgs.len(), pinned.len());
        for (msg, &(len, crc)) in msgs.iter().zip(&pinned) {
            let frame = frame_bytes(msg).unwrap();
            assert_eq!(frame.len(), len, "{msg:?}");
            let stored = u32::from_le_bytes(frame[len - 4..].try_into().unwrap());
            assert_eq!(stored, crc, "frame of {} bytes", len);
            assert_eq!(crc32(&frame), 0x2144_df1c);
            assert_eq!(payload_len(msg), len - HEADER_LEN - 4, "size-first length");
            // Compared as bytes: the large samples carry NaN bit patterns.
            assert_eq!(frame_bytes(&read_frame(&mut &frame[..]).unwrap()).unwrap(), frame);
        }
    }

    #[test]
    fn spliced_and_inflated_frames_never_panic() {
        // 256 seeded mutants of valid payloads — two payloads spliced
        // at seeded cut points (under either kind), count/length fields
        // inflated, and truncations — each reframed with a correct
        // header length and CRC so it reaches `decode_payload` and the
        // bulk value decoder. Every mutant must yield a structured
        // FrameError or a message that re-encodes to the same bytes.
        let frames: Vec<(Message, Vec<u8>)> = sample_messages()
            .into_iter()
            .chain(large_messages())
            .map(|m| {
                let f = frame_bytes(&m).unwrap();
                (m, f)
            })
            .collect();
        let payload = |f: &[u8]| f[HEADER_LEN..f.len() - 4].to_vec();
        let reframe = |kind: u8, payload: &[u8]| {
            let mut f = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
            f.extend_from_slice(&MAGIC);
            f.extend_from_slice(&[kind, 0, 0, 0]);
            f.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            f.extend_from_slice(payload);
            f.extend_from_slice(&[0; 4]);
            recompute_crc(&mut f);
            f
        };
        let mut rng = 0x5eed_u64;
        let mut next = |n: usize| {
            rng = durable::retry::splitmix64(rng);
            (rng % n.max(1) as u64) as usize
        };
        let (mut decoded, mut refused) = (0, 0);
        for i in 0..256 {
            let (msg_a, a) = &frames[next(frames.len())];
            let (_, b) = &frames[next(frames.len())];
            let (pa, pb) = (payload(a), payload(b));
            let (kind, body) = match i % 3 {
                0 => {
                    let mut body = pa[..next(pa.len() + 1)].to_vec();
                    body.extend_from_slice(&pb[next(pb.len() + 1)..]);
                    (if next(2) == 0 { a[4] } else { b[4] }, body)
                }
                1 => {
                    let mut body = pa.clone();
                    let fields: Vec<usize> =
                        length_fields(msg_a).into_iter().skip(1).map(|off| off - HEADER_LEN).collect();
                    if !fields.is_empty() {
                        let off = fields[next(fields.len())];
                        let stored = u32::from_le_bytes(body[off..off + 4].try_into().unwrap());
                        let inflated = match next(3) {
                            0 => stored.saturating_add(1 + next(16) as u32),
                            1 => stored.saturating_mul(2).max(1),
                            _ => u32::MAX - next(8) as u32,
                        };
                        body[off..off + 4].copy_from_slice(&inflated.to_le_bytes());
                    }
                    (a[4], body)
                }
                _ => (a[4], pa[..next(pa.len())].to_vec()),
            };
            let mutant = reframe(kind, &body);
            match read_frame(&mut &mutant[..]) {
                Ok(msg) => {
                    assert_eq!(frame_bytes(&msg).unwrap(), mutant, "mutant {i} re-encodes differently");
                    decoded += 1;
                }
                Err(e) => {
                    assert!(matches!(e, FrameError::Malformed(_)), "mutant {i}: {e}");
                    refused += 1;
                }
            }
        }
        assert!(decoded > 0 && refused > 0, "decoded={decoded} refused={refused}");
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        let msg = Message::Hello(Hello {
            version: 1,
            num_blocks: 10,
            num_subblocks: 4,
            subblock_size: 16,
            error_bound: 1e-10,
        });
        let clean = frame_bytes(&msg).unwrap();
        for cut in 0..clean.len() {
            let err = read_frame(&mut &clean[..cut]).unwrap_err();
            assert!(matches!(err, FrameError::Io(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn hostile_lengths_are_rejected_before_allocation() {
        // Payload length over the cap.
        let mut frame = frame_bytes(&Message::TelemetryRequest).unwrap();
        frame[8..12].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &frame[..]).unwrap_err(),
            // CRC no longer matches *or* the length cap fires — the cap
            // must win so no oversized buffer is ever allocated.
            FrameError::TooLarge(_)
        ));

        // A huge id count inside a tiny payload: rebuild the CRC so the
        // count check itself must catch it.
        let msg = Message::ReadRequest(ReadRequest {
            request_id: 1,
            budget_ms: 1,
            trace_id: 0,
            span_id: 0,
            ids: vec![],
        });
        let mut frame = frame_bytes(&msg).unwrap();
        let count_off = HEADER_LEN + 28;
        frame[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        recompute_crc(&mut frame);
        assert!(matches!(
            read_frame(&mut &frame[..]).unwrap_err(),
            FrameError::Malformed("id count past end of payload")
        ));
    }

    #[test]
    fn bad_magic_and_reserved_are_rejected() {
        let mut frame = frame_bytes(&Message::TelemetryRequest).unwrap();
        frame[0] = b'X';
        assert!(matches!(read_frame(&mut &frame[..]).unwrap_err(), FrameError::BadMagic(_)));

        let mut frame = frame_bytes(&Message::TelemetryRequest).unwrap();
        frame[5] = 1;
        assert!(matches!(read_frame(&mut &frame[..]).unwrap_err(), FrameError::BadReserved));

        let mut frame = frame_bytes(&Message::TelemetryRequest).unwrap();
        frame[4] = 9;
        assert!(matches!(read_frame(&mut &frame[..]).unwrap_err(), FrameError::UnknownKind(9)));

        // The header accepts exactly the six live kinds; 4 and 5 (the
        // retired stats pair) are unknown like any other.
        let accepted: Vec<u8> = (0..=u8::MAX)
            .filter(|&kind| {
                let mut raw = [0u8; HEADER_LEN];
                raw[..4].copy_from_slice(&MAGIC);
                raw[4] = kind;
                FrameHeader::parse(raw).is_ok()
            })
            .collect();
        assert_eq!(accepted, [1, 2, 3, 6, 7, 8]);
    }

    #[test]
    fn oversized_messages_fail_at_encode_time() {
        // One values slot just past the payload cap: encoding must be
        // a real TooLarge error (not a debug_assert), and write_frame
        // must put nothing on the wire.
        let values = (MAX_FRAME_PAYLOAD as usize - 12 - 5) / 8 + 1;
        let msg = Message::ReadResponse(ReadResponse {
            request_id: 1,
            blocks: vec![WireBlock::Values(vec![0.0; values])],
        });
        assert!(matches!(frame_bytes(&msg).unwrap_err(), FrameError::TooLarge(_)));
        let mut sink = Vec::new();
        let err = write_frame(&mut sink, &msg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(sink.is_empty(), "no bytes written for an oversized frame");

        // One byte over the cap is refused with the exact size, worked
        // out before any of the payload is encoded.
        let over = MAX_FRAME_PAYLOAD as usize + 1;
        let msg = Message::TelemetryResponse(vec![0; over]);
        assert_eq!(payload_len(&msg), over);
        assert!(matches!(frame_bytes(&msg).unwrap_err(), FrameError::TooLarge(n) if n as usize == over));
        // Exactly at the cap still frames.
        let msg = Message::TelemetryResponse(vec![0; MAX_FRAME_PAYLOAD as usize]);
        assert_eq!(frame_bytes(&msg).unwrap().len(), HEADER_LEN + MAX_FRAME_PAYLOAD as usize + 4);
    }

    #[test]
    fn batch_sizing_keeps_worst_case_exchanges_under_the_cap() {
        for (values, cap) in [
            (1usize, 4096usize),
            (128, 1 << 16),
            (128, MAX_FRAME_PAYLOAD as usize),
            (0, 1024),
            // Caps past the protocol hard limit are clamped to it.
            (128, usize::MAX),
        ] {
            let n = max_ids_per_read(values, cap);
            let cap = cap.min(MAX_FRAME_PAYLOAD as usize);
            assert!(n >= 1, "values={values} cap={cap} gives empty batches");
            // Worst-case response: every slot an error with a clamped
            // message, or every slot full values — whichever is wider.
            let per_slot = 5 + (8 * values).max(MAX_BLOCK_ERROR_MESSAGE);
            assert_eq!(max_read_response_len(n, values), 12 + n * per_slot);
            assert!(12 + n * per_slot <= cap, "values={values} cap={cap} n={n}");
            // Request side: fixed overhead plus 8 bytes per id.
            assert!(32 + n * 8 <= cap, "request side: values={values} cap={cap} n={n}");
            // And n is maximal: one more block would overflow a side.
            assert!(
                12 + (n + 1) * per_slot > cap || 32 + (n + 1) * 8 > cap,
                "values={values} cap={cap} n={n} not maximal"
            );
        }
        // A block too large to ever fit one frame yields 0, not a lie,
        // and no size overflows.
        assert_eq!(max_ids_per_read(MAX_FRAME_PAYLOAD as usize, usize::MAX), 0);
        assert_eq!(max_ids_per_read(usize::MAX, usize::MAX), 0);
        assert_eq!(max_read_response_len(usize::MAX, 1), usize::MAX);
    }

    #[test]
    fn read_requests_have_one_fixed_layout() {
        // Traced or not, a read request is the 32-byte fixed overhead
        // plus 8 bytes per id; an untraced request carries a zero
        // trace id and round-trips as such.
        for (trace_id, span_id) in [(0, 0), (1, 2)] {
            let rq = ReadRequest { request_id: 3, budget_ms: 123, trace_id, span_id, ids: vec![1, 2] };
            let frame = frame_bytes(&Message::ReadRequest(rq.clone())).unwrap();
            assert_eq!(frame.len(), HEADER_LEN + READ_REQUEST_OVERHEAD + 2 * 8 + 4);
            assert_eq!(read_frame(&mut &frame[..]).unwrap(), Message::ReadRequest(rq));
        }
    }

    #[test]
    fn block_error_messages_clamp_on_char_boundaries() {
        let short = clamp_block_error_message("fits".into());
        assert_eq!(short, "fits");
        // A multi-byte char straddling the cut must not split.
        let long = format!("{}é{}", "x".repeat(MAX_BLOCK_ERROR_MESSAGE - 1), "y".repeat(64));
        let clamped = clamp_block_error_message(long);
        assert!(clamped.len() <= MAX_BLOCK_ERROR_MESSAGE);
        assert_eq!(clamped, "x".repeat(MAX_BLOCK_ERROR_MESSAGE - 1));
        // Clamped messages always encode within the per-slot budget.
        let msg = Message::ReadResponse(ReadResponse {
            request_id: 1,
            blocks: vec![WireBlock::Error {
                kind: BlockErrorKind::Io,
                message: clamp_block_error_message("e".repeat(10_000)),
            }],
        });
        assert!(frame_bytes(&msg).unwrap().len() <= 12 + 12 + 5 + MAX_BLOCK_ERROR_MESSAGE + 4);
    }

    #[test]
    fn value_bits_survive_exactly() {
        // f64s travel as bit patterns: NaN payloads, -0.0, subnormals
        // all come back bit-identical.
        let values = vec![
            f64::from_bits(0x7ff8_0000_dead_beef),
            -0.0,
            f64::MIN_POSITIVE / 2.0,
            f64::MAX,
        ];
        let msg = Message::ReadResponse(ReadResponse {
            request_id: 1,
            blocks: vec![WireBlock::Values(values.clone())],
        });
        let got = read_frame(&mut &frame_bytes(&msg).unwrap()[..]).unwrap();
        match got {
            Message::ReadResponse(rs) => match &rs.blocks[0] {
                WireBlock::Values(v) => {
                    for (a, b) in v.iter().zip(&values) {
                        assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }
}
