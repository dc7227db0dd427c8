//! Hand-rolled binary wire format for the fetch protocol.
//!
//! Every message is a tagged, little-endian structure with explicit lengths;
//! decoding is *total* — arbitrary byte soup yields a [`WireError`], never a
//! panic or an over-allocation. (The workspace deliberately carries no
//! serde format crate, so this module plays the role gRPC plays in the
//! paper's prototype.)
//!
//! Every encoded message additionally carries a CRC32 trailer (IEEE
//! polynomial, little-endian) over the message body. Decoding verifies the
//! checksum before parsing, so bit corruption anywhere in a frame —
//! including flips the structural parser would happily accept, like a
//! changed sample id — surfaces as [`WireError::ChecksumMismatch`] instead
//! of silently poisoning training data. CRC32 detects every burst error up
//! to 32 bits, so any single flipped byte is always caught.
//!
//! Since wire format **version 2** every message additionally opens with a
//! version byte and a `request_id: u32` — the multiplexing key that lets
//! one connection carry many pipelined in-flight exchanges. Both fields sit
//! *under* the CRC, so a flipped bit in the id can never silently re-route
//! a response to the wrong caller: it fails the checksum like any other
//! corruption. Version-1 frames (no header) decode to
//! [`WireError::Version`], never to a wrong-but-valid message.
//!
//! Wire format **version 3** ([`WIRE_VERSION_TENANT`]) extends the request
//! header with a `tenant_id: u16` so a multi-tenant server can attribute,
//! schedule, and meter every request. The field sits under the CRC like the
//! request id. Version negotiation is per-frame: [`decode_request_framed`]
//! reports a v3 frame's tenant as `Some(id)` and a v2 frame's as `None`;
//! whether a tenant-less frame is served (as tenant 0) or refused with
//! [`WireError::TenantMissing`] is the endpoint's policy, not the
//! format's. Responses stay v2 — the server already knows whom it is
//! answering.
//!
//! Wire format **version 4** ([`WIRE_VERSION_FIDELITY`]) adds the brownout
//! fidelity axis, on *both* directions. A v4 request carries the v3 tenant
//! header plus a `max_tier: u8` trailing the fetch body — the fidelity cap
//! the client will accept (`0xFF` = no cap). A v4 data response appends
//! the *served* tier byte after the payload, directly under the CRC
//! trailer, so a flipped fidelity marker can never be mistaken for a
//! full-quality sample. Negotiation is per-frame, exactly like the v2→v3
//! tenant bump: encoders emit v4 only when a fidelity field is actually
//! set, so full-fidelity traffic stays bit-identical to v2/v3.
//!
//! Layout summary (all integers little-endian):
//!
//! ```text
//! Message   := ver:u8 request_id:u32 body crc32:u32   (crc32 over ver..body)
//! RequestV3 := ver:u8 request_id:u32 tenant_id:u16 body crc32:u32
//! RequestV4 := ver:u8 request_id:u32 tenant_id:u16 body crc32:u32
//!              (Fetch body gains a trailing max_tier:u8, 0xFF = no cap)
//! RespV4    := ver:u8 request_id:u32 body tier:u8 crc32:u32  (Data only)
//! Request   := 0x01 SessionConfig | 0x02 FetchRequest | 0x03
//! Response  := 0x11 | 0x12 FetchResponse | 0x13 Error
//! OpKind    := tag:u8 [size:u32]           (sized ops carry their parameter)
//! StageData := 0x00 len:u32 bytes          (encoded)
//!            | 0x01 w:u32 h:u32 bytes      (image, len = w*h*3)
//!            | 0x02 w:u32 h:u32 bytes      (tensor, len = w*h*12)
//! ```
//!
//! There is one function per direction and message kind, and each accepts
//! or emits every version: [`encode_request_into`] (no tenant) and
//! [`encode_request_tenant_into`] share one body, [`decode_request_framed`]
//! reads what either wrote, and [`encode_response_into`] pairs with
//! [`decode_response_framed`]. The encoders write into a caller-provided
//! reusable buffer (clearing it first), so a steady-state connection
//! re-encodes frames with **zero allocations**. [`peek_request_id`] reads
//! the id of a frame that failed to decode, and [`crc32`] is the checksum.
//!
//! Responses have a second, copy-free front on each side for the TCP
//! transport. `encode_response_parts` writes only the head (`ver` up to an
//! encoded payload's `len`) and returns the payload's own [`Bytes`] as the
//! body plus the tail (tier byte, CRC), so a raw serve goes out as
//! head ‖ stored bytes ‖ tail in one vectored write; [`encode_response_into`]
//! is the same encoder with the three parts glued. `decode_response_shared`
//! decodes a frame held in a [`Bytes`] and returns an encoded payload as a
//! slice of it; [`decode_response_framed`] is the same decoder copying the
//! payload out of a borrowed frame.

use bytes::Bytes;
use imagery::{RasterImage, Tensor};
use pipeline::{OpKind, PipelineSpec, SplitPoint, StageData};

use crate::protocol::{FetchRequest, FetchResponse, Request, Response, SessionConfig};

/// Decoding errors. Every malformed input maps to one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// An unknown tag byte.
    BadTag(u8),
    /// A declared length or dimension fails validation.
    Invalid(&'static str),
    /// Bytes remained after a complete top-level message.
    TrailingBytes(usize),
    /// The CRC32 trailer does not match the message body.
    ChecksumMismatch,
    /// The frame opens with an unsupported wire-format version.
    Version(u8),
    /// A tenant-less (v2) frame reached an endpoint that requires an
    /// explicit tenant id.
    TenantMissing,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            WireError::Version(v) => {
                write!(f, "unsupported wire version {v} (this build speaks {WIRE_VERSION})")
            }
            WireError::TenantMissing => {
                write!(f, "frame carries no tenant id but this endpoint requires one")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted payload length (64 MiB) — caps allocations from
/// adversarial length fields.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Current wire-format version. Version 2 added the
/// `ver:u8 request_id:u32` multiplexing header in front of every message
/// body (version 1 opened directly with the tag byte). The low nibble is
/// the version number; the high nibble is a magic marker chosen so the
/// byte never collides with a v1 tag (`0x01..=0x03`, `0x11..=0x13`) —
/// a stray v1 frame always fails the version gate as foreign instead of
/// accidentally parsing as a v2 header.
pub const WIRE_VERSION: u8 = 0xA2;

/// Wire-format version 3: the request header grows a `tenant_id: u16`
/// between the request id and the body, CRC-covered like everything else.
/// Same high-nibble magic as [`WIRE_VERSION`]; the low nibble is the
/// version number. Only requests use this version — responses remain v2.
pub const WIRE_VERSION_TENANT: u8 = 0xA3;

/// Wire-format version 4: the brownout fidelity axis. Requests keep the
/// v3 tenant header and their fetch body gains a trailing `max_tier: u8`
/// fidelity cap (`0xFF` = uncapped); data responses append the served
/// tier byte after the payload, directly under the CRC trailer. Encoders
/// only emit v4 when a fidelity field is set, so full-fidelity frames
/// remain bit-identical to the previous generation.
pub const WIRE_VERSION_FIDELITY: u8 = 0xA4;

/// The wire sentinel for "no fidelity cap / full fidelity".
const TIER_UNCAPPED: u8 = u8::MAX;

/// Parses a wire tier byte: the sentinel means `None`, in-range tiers map
/// to `Some`, anything else is a typed rejection.
fn decode_tier_byte(b: u8) -> Result<Option<u8>, WireError> {
    match b {
        TIER_UNCAPPED => Ok(None),
        t if (t as usize) < codec::MAX_TIERS => Ok(Some(t)),
        _ => Err(WireError::Invalid("fidelity tier out of range")),
    }
}

/// CRC32 (IEEE 802.3) of `data`: the checksum appended to every encoded
/// message. It folds with carry-less multiplies where the CPU has them and
/// runs a slice-by-16 table loop elsewhere; the output is the same.
pub use checksum::crc32;

/// Appends the CRC32 trailer over everything written so far.
fn seal_in_place(out: &mut Vec<u8>) {
    let crc = crc32(out);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// What follows a response's head and body on the wire: the served tier
/// byte (v4 data responses only), then the CRC32 trailer over everything
/// before it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ResponseTail {
    bytes: [u8; 5],
    len: usize,
}

impl ResponseTail {
    fn push(&mut self, more: &[u8]) {
        self.bytes[self.len..self.len + more.len()].copy_from_slice(more);
        self.len += more.len();
    }

    /// The tail's bytes, as they go on the wire.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }
}

/// Best-effort read of a frame's `request_id` without decoding (or
/// checksum-verifying) the rest — used by servers to echo an id on error
/// replies for frames whose body failed to parse. Returns `None` for
/// frames too short to carry the header or of a foreign version. Every
/// known version carries the id at the same offset.
pub fn peek_request_id(data: &[u8]) -> Option<u32> {
    if !(WIRE_VERSION..=WIRE_VERSION_FIDELITY).contains(data.first()?) {
        return None;
    }
    data.get(1..5).and_then(|s| s.try_into().ok()).map(u32::from_le_bytes)
}

/// Splits off and verifies the CRC32 trailer, returning the message body.
fn verify_checksum(data: &[u8]) -> Result<&[u8], WireError> {
    if data.len() < 4 {
        return Err(WireError::Truncated);
    }
    let (body, trailer) = data.split_at(data.len() - 4);
    let want = u32::from_le_bytes(trailer.try_into().map_err(|_| WireError::Truncated)?);
    if crc32(body) != want {
        return Err(WireError::ChecksumMismatch);
    }
    Ok(body)
}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
    /// The frame `data` opens, when it is held in a [`Bytes`]: encoded
    /// payloads are then slices of it instead of copies.
    shared: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0, shared: None }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let s = self.data.get(self.pos..self.pos + 2).ok_or(WireError::Truncated)?;
        self.pos += 2;
        Ok(u16::from_le_bytes(s.try_into().map_err(|_| WireError::Truncated)?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.data.get(self.pos..self.pos + 4).ok_or(WireError::Truncated)?;
        self.pos += 4;
        Ok(u32::from_le_bytes(s.try_into().map_err(|_| WireError::Truncated)?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.data.get(self.pos..self.pos + 8).ok_or(WireError::Truncated)?;
        self.pos += 8;
        Ok(u64::from_le_bytes(s.try_into().map_err(|_| WireError::Truncated)?))
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let s = self.data.get(self.pos..self.pos + len).ok_or(WireError::Truncated)?;
        self.pos += len;
        Ok(s)
    }

    /// The next `len` bytes as a [`Bytes`]: a slice of the shared frame,
    /// or a copy.
    fn bytes(&mut self, len: usize) -> Result<Bytes, WireError> {
        let start = self.pos;
        let s = self.take(len)?;
        Ok(match self.shared {
            Some(frame) => frame.slice(start..start + len),
            None => Bytes::copy_from_slice(s),
        })
    }

    fn finish(self) -> Result<(), WireError> {
        let rest = self.data.len() - self.pos;
        if rest == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(rest))
        }
    }
}

fn checked_len(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let len = r.u32()?;
    if len > MAX_PAYLOAD {
        return Err(WireError::Invalid("payload length over cap"));
    }
    Ok(len as usize)
}

// ---------------------------------------------------------------------------
// OpKind
// ---------------------------------------------------------------------------

fn encode_op(op: OpKind, out: &mut Vec<u8>) {
    match op {
        OpKind::Decode => out.push(0),
        OpKind::RandomResizedCrop { size } => {
            out.push(1);
            out.extend_from_slice(&size.to_le_bytes());
        }
        OpKind::RandomHorizontalFlip => out.push(2),
        OpKind::ToTensor => out.push(3),
        OpKind::Normalize => out.push(4),
        OpKind::Resize { size } => {
            out.push(5);
            out.extend_from_slice(&size.to_le_bytes());
        }
        OpKind::CenterCrop { size } => {
            out.push(6);
            out.extend_from_slice(&size.to_le_bytes());
        }
        OpKind::ColorJitter { brightness_pct, contrast_pct, saturation_pct } => {
            out.push(7);
            out.push(brightness_pct);
            out.push(contrast_pct);
            out.push(saturation_pct);
        }
        OpKind::Grayscale => out.push(8),
    }
}

fn decode_op(r: &mut Reader<'_>) -> Result<OpKind, WireError> {
    let tag = r.u8()?;
    let sized = |r: &mut Reader<'_>| -> Result<u32, WireError> {
        let size = r.u32()?;
        if size == 0 || size > 1 << 16 {
            return Err(WireError::Invalid("op size parameter"));
        }
        Ok(size)
    };
    Ok(match tag {
        0 => OpKind::Decode,
        1 => OpKind::RandomResizedCrop { size: sized(r)? },
        2 => OpKind::RandomHorizontalFlip,
        3 => OpKind::ToTensor,
        4 => OpKind::Normalize,
        5 => OpKind::Resize { size: sized(r)? },
        6 => OpKind::CenterCrop { size: sized(r)? },
        7 => OpKind::ColorJitter {
            brightness_pct: r.u8()?,
            contrast_pct: r.u8()?,
            saturation_pct: r.u8()?,
        },
        8 => OpKind::Grayscale,
        t => return Err(WireError::BadTag(t)),
    })
}

// ---------------------------------------------------------------------------
// StageData
// ---------------------------------------------------------------------------

/// Serializes a [`StageData`] payload. An encoded payload's bytes are not
/// written: they are handed back, to follow `out` on the wire.
fn encode_stage_data(data: &StageData, out: &mut Vec<u8>) -> Option<Bytes> {
    match data {
        StageData::Encoded(b) => {
            out.push(0x00);
            out.extend_from_slice(&(b.len() as u32).to_le_bytes());
            return Some(b.clone());
        }
        StageData::Image(img) => {
            out.push(0x01);
            out.extend_from_slice(&img.width().to_le_bytes());
            out.extend_from_slice(&img.height().to_le_bytes());
            out.extend_from_slice(img.as_raw());
        }
        StageData::Tensor(t) => {
            out.push(0x02);
            out.extend_from_slice(&t.width().to_le_bytes());
            out.extend_from_slice(&t.height().to_le_bytes());
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
    None
}

fn decode_stage_data(r: &mut Reader<'_>) -> Result<StageData, WireError> {
    let tag = r.u8()?;
    match tag {
        0x00 => {
            let len = checked_len(r)?;
            Ok(StageData::Encoded(r.bytes(len)?))
        }
        0x01 => {
            let (w, h) = (r.u32()?, r.u32()?);
            let len = (w as u64)
                .checked_mul(h as u64)
                .and_then(|p| p.checked_mul(3))
                .filter(|&l| l > 0 && l <= u64::from(MAX_PAYLOAD))
                .ok_or(WireError::Invalid("image dimensions"))? as usize;
            let raw = r.take(len)?.to_vec();
            let img =
                RasterImage::from_raw(w, h, raw).map_err(|_| WireError::Invalid("image buffer"))?;
            Ok(StageData::Image(img))
        }
        0x02 => {
            let (w, h) = (r.u32()?, r.u32()?);
            let len = (w as u64)
                .checked_mul(h as u64)
                .and_then(|p| p.checked_mul(12))
                .filter(|&l| l > 0 && l <= u64::from(MAX_PAYLOAD))
                .ok_or(WireError::Invalid("tensor dimensions"))? as usize;
            let bytes = r.take(len)?;
            let t =
                Tensor::from_le_bytes(w, h, bytes).ok_or(WireError::Invalid("tensor buffer"))?;
            Ok(StageData::Tensor(t))
        }
        t => Err(WireError::BadTag(t)),
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

fn encode_request_body(req: &Request, fidelity: bool, out: &mut Vec<u8>) {
    match req {
        Request::Configure(cfg) => {
            out.push(0x01);
            out.extend_from_slice(&cfg.dataset_seed.to_le_bytes());
            out.push(cfg.pipeline.len() as u8);
            for &op in cfg.pipeline.ops() {
                encode_op(op, out);
            }
        }
        Request::Fetch(f) => {
            out.push(0x02);
            out.extend_from_slice(&f.sample_id.to_le_bytes());
            out.extend_from_slice(&f.epoch.to_le_bytes());
            out.push(f.split.offloaded_ops() as u8);
            out.push(f.reencode_quality.unwrap_or(0));
            if fidelity {
                out.push(f.max_tier.unwrap_or(TIER_UNCAPPED));
            }
        }
        Request::Shutdown => out.push(0x03),
    }
}

fn decode_request_body(r: &mut Reader<'_>, fidelity: bool) -> Result<Request, WireError> {
    Ok(match r.u8()? {
        0x01 => {
            let dataset_seed = r.u64()?;
            let n = r.u8()? as usize;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(decode_op(r)?);
            }
            let pipeline =
                PipelineSpec::new(ops).map_err(|_| WireError::Invalid("ill-typed pipeline"))?;
            Request::Configure(SessionConfig { dataset_seed, pipeline })
        }
        0x02 => {
            let sample_id = r.u64()?;
            let epoch = r.u64()?;
            let split = SplitPoint::new(r.u8()? as usize);
            let reencode_quality = match r.u8()? {
                0 => None,
                q if (1..=100).contains(&q) => Some(q),
                _ => return Err(WireError::Invalid("reencode quality")),
            };
            let max_tier = if fidelity { decode_tier_byte(r.u8()?)? } else { None };
            Request::Fetch(FetchRequest { sample_id, epoch, split, reencode_quality, max_tier })
        }
        0x03 => Request::Shutdown,
        t => return Err(WireError::BadTag(t)),
    })
}

/// The body both request encoders share. The version byte follows from
/// which optional fields are present, so a frame without them stays on its
/// older, bit-stable encoding: a fidelity cap makes it v4 (with the
/// tenant, or tenant 0), a tenant alone v3, neither v2.
fn encode_request_frame(request_id: u32, tenant_id: Option<u16>, req: &Request, out: &mut Vec<u8>) {
    let fidelity = matches!(req, Request::Fetch(f) if f.max_tier.is_some());
    out.clear();
    out.push(match (fidelity, tenant_id) {
        (true, _) => WIRE_VERSION_FIDELITY,
        (false, Some(_)) => WIRE_VERSION_TENANT,
        (false, None) => WIRE_VERSION,
    });
    out.extend_from_slice(&request_id.to_le_bytes());
    if fidelity || tenant_id.is_some() {
        out.extend_from_slice(&tenant_id.unwrap_or(0).to_le_bytes());
    }
    encode_request_body(req, fidelity, out);
    seal_in_place(out);
}

/// Serializes a [`Request`] under `request_id` into a caller-provided
/// buffer (cleared first); a reused buffer makes steady-state encoding
/// allocation-free. Requests carrying a fidelity cap upgrade the frame to
/// v4 (tenant 0); everything else stays on the bit-stable v2 encoding.
pub fn encode_request_into(request_id: u32, req: &Request, out: &mut Vec<u8>) {
    encode_request_frame(request_id, None, req, out);
}

/// Serializes a [`Request`] as a v3 frame carrying `tenant_id` into a
/// caller-provided buffer (cleared first); the tenant-aware analogue of
/// [`encode_request_into`], equally allocation-free at steady state.
/// Requests carrying a fidelity cap upgrade the frame to v4, keeping the
/// tenant id.
pub fn encode_request_tenant_into(
    request_id: u32,
    tenant_id: u16,
    req: &Request,
    out: &mut Vec<u8>,
) {
    encode_request_frame(request_id, Some(tenant_id), req, out);
}

/// Deserializes a [`Request`] of any version together with its
/// multiplexing id and the tenant id its header carries: `Some` for v3 and
/// v4 frames, `None` for v2 frames, which have no such field.
///
/// # Errors
///
/// Returns a [`WireError`] for any malformed input, including trailing
/// bytes, checksum mismatches, and foreign wire versions.
pub fn decode_request_framed(data: &[u8]) -> Result<(u32, Option<u16>, Request), WireError> {
    let mut r = Reader::new(verify_checksum(data)?);
    let (tenant, fidelity) = match r.u8()? {
        WIRE_VERSION => (false, false),
        WIRE_VERSION_TENANT => (true, false),
        WIRE_VERSION_FIDELITY => (true, true),
        v => return Err(WireError::Version(v)),
    };
    let request_id = r.u32()?;
    let tenant_id = if tenant { Some(r.u16()?) } else { None };
    let req = decode_request_body(&mut r, fidelity)?;
    r.finish()?;
    Ok((request_id, tenant_id, req))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Serializes a [`Response`] under `request_id` into a caller-provided
/// buffer (cleared first); a reused buffer makes steady-state encoding
/// allocation-free.
///
/// A data response carrying a served fidelity tier is emitted as a v4
/// frame with the tier byte directly under the CRC trailer; every other
/// response keeps the bit-stable v2 encoding.
pub fn encode_response_into(request_id: u32, resp: &Response, out: &mut Vec<u8>) {
    let (body, tail) = encode_response_parts(request_id, resp, out);
    if let Some(body) = body {
        out.extend_from_slice(&body);
    }
    out.extend_from_slice(tail.as_bytes());
}

/// The one response encoder, in the three parts of the frame
/// [`encode_response_into`] writes: the head goes into `head` (cleared
/// first), an encoded payload comes back as the body, sharing the
/// response's storage, and the tail carries the tier byte and the CRC over
/// head ‖ body ‖ tier. Every other response is all head, with no body.
pub(crate) fn encode_response_parts(
    request_id: u32,
    resp: &Response,
    head: &mut Vec<u8>,
) -> (Option<Bytes>, ResponseTail) {
    let tier = match resp {
        Response::Data(d) => d.tier,
        _ => None,
    };
    head.clear();
    head.push(if tier.is_some() { WIRE_VERSION_FIDELITY } else { WIRE_VERSION });
    head.extend_from_slice(&request_id.to_le_bytes());
    let mut body = None;
    match resp {
        Response::Configured => head.push(0x11),
        Response::Data(d) => {
            head.push(0x12);
            head.extend_from_slice(&d.sample_id.to_le_bytes());
            head.extend_from_slice(&d.ops_applied.to_le_bytes());
            body = encode_stage_data(&d.data, head);
        }
        Response::Error { sample_id, message } => {
            head.push(0x13);
            match sample_id {
                Some(id) => {
                    head.push(1);
                    head.extend_from_slice(&id.to_le_bytes());
                }
                None => head.push(0),
            }
            let msg = message.as_bytes();
            head.extend_from_slice(&(msg.len().min(u16::MAX as usize) as u16).to_le_bytes());
            head.extend_from_slice(&msg[..msg.len().min(u16::MAX as usize)]);
        }
    }
    let mut tail = ResponseTail::default();
    if let Some(t) = tier {
        tail.push(&[t]);
    }
    let mut crc = checksum::Crc32::new();
    crc.update(head);
    crc.update(body.as_deref().unwrap_or_default());
    crc.update(tail.as_bytes());
    tail.push(&crc.finish().to_le_bytes());
    (body, tail)
}

/// Deserializes a [`Response`] together with its multiplexing id. An
/// encoded payload is copied out of `data`.
///
/// # Errors
///
/// Returns a [`WireError`] for any malformed input, including trailing
/// bytes, checksum mismatches, and foreign wire versions.
pub fn decode_response_framed(data: &[u8]) -> Result<(u32, Response), WireError> {
    decode_response(Reader::new(verify_checksum(data)?))
}

/// [`decode_response_framed`] for a frame held in a [`Bytes`]: an encoded
/// payload is returned as a slice of `frame`, sharing its storage.
pub(crate) fn decode_response_shared(frame: &Bytes) -> Result<(u32, Response), WireError> {
    let mut r = Reader::new(verify_checksum(frame)?);
    r.shared = Some(frame);
    decode_response(r)
}

/// The one response decoder, over a checksum-verified frame.
fn decode_response(mut r: Reader<'_>) -> Result<(u32, Response), WireError> {
    let version = r.u8()?;
    let fidelity = match version {
        WIRE_VERSION => false,
        WIRE_VERSION_FIDELITY => true,
        v => return Err(WireError::Version(v)),
    };
    let request_id = r.u32()?;
    let resp = match r.u8()? {
        0x11 => Response::Configured,
        0x12 => {
            let sample_id = r.u64()?;
            let ops_applied = r.u32()?;
            let data = decode_stage_data(&mut r)?;
            let tier = if fidelity { decode_tier_byte(r.u8()?)? } else { None };
            Response::Data(FetchResponse { sample_id, ops_applied, data, tier })
        }
        0x13 => {
            let sample_id = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(WireError::Invalid("error sample flag")),
            };
            let len = {
                let s = r.take(2)?;
                u16::from_le_bytes(s.try_into().map_err(|_| WireError::Truncated)?) as usize
            };
            let message = String::from_utf8_lossy(r.take(len)?).into_owned();
            Response::Error { sample_id, message }
        }
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok((request_id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use imagery::Rgb;

    // The encoders write into a caller's buffer; the tests want the frame.
    fn request_frame(id: u32, tenant: Option<u16>, req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request_frame(id, tenant, req, &mut out);
        out
    }

    fn response_frame(id: u32, resp: &Response) -> Vec<u8> {
        let mut out = Vec::new();
        encode_response_into(id, resp, &mut out);
        out
    }

    fn decode_request(data: &[u8]) -> Result<Request, WireError> {
        decode_request_framed(data).map(|(_, _, req)| req)
    }

    fn decode_response(data: &[u8]) -> Result<Response, WireError> {
        decode_response_framed(data).map(|(_, resp)| resp)
    }

    #[test]
    fn request_roundtrips() {
        let reqs = [
            Request::Configure(SessionConfig {
                dataset_seed: 42,
                pipeline: PipelineSpec::standard_train(),
            }),
            Request::Configure(SessionConfig {
                dataset_seed: 0,
                pipeline: PipelineSpec::standard_eval(),
            }),
            Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2))),
            Request::Fetch(FetchRequest::new(u64::MAX, 0, SplitPoint::NONE)),
            Request::Fetch(FetchRequest::new(9, 1, SplitPoint::new(2)).with_reencode(70)),
            Request::Shutdown,
        ];
        for req in &reqs {
            let bytes = request_frame(0, None, req);
            assert_eq!(&decode_request(&bytes).unwrap(), req, "roundtrip {req:?}");
        }
    }

    /// Prefixes a hand-crafted tag+payload body with the v2 header and
    /// re-seals it with a valid CRC trailer, so a test exercises the
    /// structural parser rather than the version or checksum gates.
    fn sealed(body: Vec<u8>) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION];
        out.extend_from_slice(&7u32.to_le_bytes());
        out.extend_from_slice(&body);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn fetch_request_is_compact() {
        let bytes =
            request_frame(0, None, &Request::Fetch(FetchRequest::new(1, 1, SplitPoint::new(2))));
        assert!(bytes.len() <= 28, "fetch request is {} bytes", bytes.len());
    }

    #[test]
    fn request_ids_roundtrip_on_both_message_kinds() {
        for id in [0u32, 1, 0xdead_beef, u32::MAX] {
            let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::new(2)));
            let bytes = request_frame(id, None, &req);
            assert_eq!(decode_request_framed(&bytes).unwrap(), (id, None, req));
            assert_eq!(peek_request_id(&bytes), Some(id));

            let resp = Response::Configured;
            let bytes = response_frame(id, &resp);
            assert_eq!(decode_response_framed(&bytes).unwrap(), (id, resp));
            assert_eq!(peek_request_id(&bytes), Some(id));
        }
    }

    #[test]
    fn tenant_frames_roundtrip_with_id_and_tenant() {
        for (id, t) in [(0u32, 0u16), (7, 1), (0xdead_beef, 41), (u32::MAX, u16::MAX)] {
            let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::new(2)));
            let bytes = request_frame(id, Some(t), &req);
            assert_eq!(decode_request_framed(&bytes).unwrap(), (id, Some(t), req));
            assert_eq!(peek_request_id(&bytes), Some(id));
        }
    }

    #[test]
    fn every_request_version_decodes_through_the_one_decoder() {
        let fetch = FetchRequest::new(3, 1, SplitPoint::new(2));
        let rows = [
            (WIRE_VERSION, None, fetch),
            (WIRE_VERSION_TENANT, Some(7), fetch),
            (WIRE_VERSION_FIDELITY, Some(7), fetch.with_max_tier(1)),
        ];
        for (version, tenant, fetch) in rows {
            let req = Request::Fetch(fetch);
            let bytes = request_frame(9, tenant, &req);
            assert_eq!(bytes[0], version);
            assert_eq!(decode_request_framed(&bytes).unwrap(), (9, tenant, req), "{version:#04x}");
            assert_eq!(peek_request_id(&bytes), Some(9), "{version:#04x}");
        }
        // Any other opening byte is a foreign version, under a valid CRC.
        let known = [WIRE_VERSION, WIRE_VERSION_TENANT, WIRE_VERSION_FIDELITY];
        for version in (0..=u8::MAX).filter(|v| !known.contains(v)) {
            let mut bytes = request_frame(9, None, &Request::Fetch(fetch));
            bytes.truncate(bytes.len() - 4);
            bytes[0] = version;
            seal_in_place(&mut bytes);
            assert_eq!(decode_request_framed(&bytes), Err(WireError::Version(version)));
        }
    }

    #[test]
    fn tenant_id_is_protected_by_the_checksum() {
        let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::new(2)));
        let mut bytes = request_frame(11, Some(6), &req);
        bytes[5] ^= 0x01; // inside the little-endian tenant id
        assert_eq!(decode_request_framed(&bytes), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn tenant_encode_into_reuses_the_buffer_without_reallocating() {
        let req = Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2)));
        let mut buf = Vec::new();
        encode_request_tenant_into(5, 1, &req, &mut buf);
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        for id in 0..1000u32 {
            encode_request_tenant_into(id, (id % 7) as u16, &req, &mut buf);
            let (got_id, got_tenant, _) = decode_request_framed(&buf).unwrap();
            assert_eq!((got_id, got_tenant), (id, Some((id % 7) as u16)));
        }
        assert_eq!(buf.as_ptr(), ptr, "buffer reallocated on the hot path");
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn fidelity_requests_roundtrip() {
        for tier in 0..codec::MAX_TIERS as u8 {
            let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::NONE).with_max_tier(tier));
            let bytes = request_frame(5, None, &req);
            assert_eq!(bytes[0], WIRE_VERSION_FIDELITY, "cap forces a v4 frame");
            // A v4 frame always carries a tenant field: 0 when none was set.
            assert_eq!(decode_request_framed(&bytes).unwrap(), (5, Some(0), req));
        }
    }

    #[test]
    fn fidelity_requests_keep_their_tenant() {
        let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::NONE).with_max_tier(2));
        let bytes = request_frame(9, Some(41), &req);
        assert_eq!(bytes[0], WIRE_VERSION_FIDELITY);
        assert_eq!(decode_request_framed(&bytes).unwrap(), (9, Some(41), req));
    }

    #[test]
    fn uncapped_requests_stay_bit_identical_to_v2_and_v3() {
        // The digest-pinning guarantee: a request without a fidelity cap
        // must encode exactly as it did before the v4 bump.
        let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::new(2)));
        assert_eq!(request_frame(5, None, &req)[0], WIRE_VERSION);
        assert_eq!(request_frame(5, Some(7), &req)[0], WIRE_VERSION_TENANT);
    }

    #[test]
    fn served_tier_roundtrips_under_the_crc_trailer() {
        let resp = Response::Data(FetchResponse {
            sample_id: 9,
            ops_applied: 0,
            data: StageData::Encoded(Bytes::from_static(b"tiered prefix")),
            tier: Some(1),
        });
        let bytes = response_frame(4, &resp);
        assert_eq!(bytes[0], WIRE_VERSION_FIDELITY, "served tier forces a v4 frame");
        assert_eq!(decode_response_framed(&bytes).unwrap(), (4, resp));
        // The tier byte sits directly under the CRC trailer: flipping it
        // must fail the checksum, never downgrade silently.
        let mut corrupt = bytes.clone();
        let at = corrupt.len() - 5;
        corrupt[at] ^= 0x01;
        assert_eq!(decode_response_framed(&corrupt), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn full_fidelity_responses_stay_bit_identical_to_v2() {
        let resp = Response::Data(FetchResponse {
            sample_id: 9,
            ops_applied: 2,
            data: StageData::Encoded(Bytes::from_static(b"payload")),
            tier: None,
        });
        assert_eq!(response_frame(4, &resp)[0], WIRE_VERSION);
    }

    #[test]
    fn out_of_range_wire_tiers_are_rejected() {
        // Hand-craft a v4 data response whose tier byte is 8 (valid tiers
        // are 0..8, 0xFF is the sentinel).
        let resp = Response::Data(FetchResponse {
            sample_id: 1,
            ops_applied: 0,
            data: StageData::Encoded(Bytes::from_static(b"x")),
            tier: Some(0),
        });
        let mut bytes = response_frame(0, &resp);
        let at = bytes.len() - 5;
        bytes[at] = codec::MAX_TIERS as u8;
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            decode_response_framed(&bytes),
            Err(WireError::Invalid("fidelity tier out of range"))
        );
    }

    #[test]
    fn request_id_is_protected_by_the_checksum() {
        // A flipped bit inside the multiplexing id must never re-route a
        // response to the wrong caller: it fails the CRC instead.
        let resp = Response::Data(FetchResponse {
            sample_id: 9,
            ops_applied: 2,
            data: StageData::Encoded(Bytes::from_static(b"payload")),
            tier: None,
        });
        let mut bytes = response_frame(41, &resp);
        bytes[3] ^= 0x04; // inside the little-endian request id
        assert_eq!(decode_response_framed(&bytes), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn version_1_frames_are_rejected_as_foreign_not_misparsed() {
        // A v1 frame opened directly with the tag byte; its first byte now
        // reads as a version. Every v1 tag is a typed rejection, never a
        // wrong-but-valid message (the compatibility gate for the bump).
        for tag in [0x01u8, 0x02, 0x03, 0x11, 0x12, 0x13] {
            let mut body = vec![tag];
            body.extend_from_slice(&1u64.to_le_bytes());
            let crc = crc32(&body);
            body.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(decode_request(&body), Err(WireError::Version(tag)), "tag 0x{tag:02x}");
            assert_eq!(decode_response(&body), Err(WireError::Version(tag)), "tag 0x{tag:02x}");
        }
    }

    #[test]
    fn encode_into_reuses_the_buffer_without_reallocating() {
        // The hot-path proof: after one warm-up encode sizes the buffer,
        // repeated encodes of same-shaped frames never reallocate — the
        // buffer's pointer and capacity stay put.
        let req = Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2)));
        let mut buf = Vec::new();
        encode_request_into(5, &req, &mut buf);
        let (ptr, cap) = (buf.as_ptr(), buf.capacity());
        for id in 0..1000u32 {
            encode_request_into(id, &req, &mut buf);
            assert_eq!(decode_request_framed(&buf).unwrap().0, id);
        }
        assert_eq!(buf.as_ptr(), ptr, "buffer reallocated on the hot path");
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn checksum_mismatch_detected_even_when_parse_would_succeed() {
        // Flip a bit inside the sample id: structurally still a perfectly
        // valid fetch request, but the checksum catches it.
        let mut bytes =
            request_frame(0, None, &Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2))));
        bytes[1] ^= 0x01;
        assert_eq!(decode_request(&bytes), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn corrupted_trailer_detected() {
        let mut bytes = response_frame(0, &Response::Configured);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        assert_eq!(decode_response(&bytes), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn response_roundtrips_all_payload_kinds() {
        let img = RasterImage::filled(5, 4, Rgb::new(1, 2, 3));
        let tensor = imagery::Tensor::from_image(&img);
        let payloads = [
            StageData::Encoded(Bytes::from_static(b"raw bytes")),
            StageData::Image(img),
            StageData::Tensor(tensor),
        ];
        for p in payloads {
            let resp = Response::Data(FetchResponse {
                sample_id: 9,
                ops_applied: 2,
                data: p.clone(),
                tier: None,
            });
            let bytes = response_frame(0, &resp);
            // Responses are `PartialEq`, so the roundtrip asserts every
            // field (payload bytes included) in one exhaustive comparison.
            assert_eq!(decode_response(&bytes).unwrap(), resp, "roundtrip {:?}", p.kind());
        }
    }

    #[test]
    fn parts_glue_into_the_frame_and_keep_the_payload_shared() {
        let stored = Bytes::from(vec![0xc3; 4000]);
        let img = RasterImage::filled(5, 4, Rgb::new(1, 2, 3));
        let responses = [
            (
                Response::Data(FetchResponse {
                    sample_id: 9,
                    ops_applied: 0,
                    data: StageData::Encoded(stored.clone()),
                    tier: None,
                }),
                true,
            ),
            (
                Response::Data(FetchResponse {
                    sample_id: 9,
                    ops_applied: 0,
                    data: StageData::Encoded(stored.slice(..1000)),
                    tier: Some(0),
                }),
                true,
            ),
            (
                Response::Data(FetchResponse {
                    sample_id: 9,
                    ops_applied: 2,
                    data: StageData::Image(img),
                    tier: None,
                }),
                false,
            ),
            (Response::Error { sample_id: None, message: "no".into() }, false),
            (Response::Configured, false),
        ];
        for (resp, has_body) in responses {
            let mut head = Vec::new();
            let (body, tail) = encode_response_parts(6, &resp, &mut head);
            assert_eq!(body.is_some(), has_body, "{resp:?}");
            if let Some(body) = &body {
                assert_eq!(body.as_ptr(), stored.as_ptr(), "the body is the response's own bytes");
            }
            let mut glued = head.clone();
            glued.extend_from_slice(body.as_deref().unwrap_or_default());
            glued.extend_from_slice(tail.as_bytes());
            assert_eq!(glued, response_frame(6, &resp), "{resp:?}");
        }
    }

    #[test]
    fn shared_decode_slices_the_frame_and_agrees_with_the_copying_decode() {
        let img = RasterImage::filled(5, 4, Rgb::new(1, 2, 3));
        let tensor = imagery::Tensor::from_image(&img);
        let responses = [
            Response::Data(FetchResponse {
                sample_id: 9,
                ops_applied: 0,
                data: StageData::Encoded(Bytes::from(vec![0x7e; 3000])),
                tier: Some(1),
            }),
            Response::Data(FetchResponse {
                sample_id: 9,
                ops_applied: 2,
                data: StageData::Image(img),
                tier: None,
            }),
            Response::Data(FetchResponse {
                sample_id: 9,
                ops_applied: 4,
                data: StageData::Tensor(tensor),
                tier: None,
            }),
            Response::Error { sample_id: Some(2), message: "gone".into() },
            Response::Configured,
        ];
        for resp in responses {
            let frame = Bytes::from(response_frame(3, &resp));
            let shared = decode_response_shared(&frame).unwrap();
            assert_eq!(shared, decode_response_framed(&frame).unwrap());
            assert_eq!(shared, (3, resp));
            if let (_, Response::Data(FetchResponse { data: StageData::Encoded(b), .. })) = shared {
                let offset = b.as_ptr() as usize - frame.as_ptr() as usize;
                assert_eq!(offset + b.len() + 5, frame.len(), "payload sits before tier and CRC");
            }
        }
        // Every prefix of a frame is an error on the shared front too.
        let frame = response_frame(3, &Response::Configured);
        for len in 0..frame.len() {
            assert!(decode_response_shared(&Bytes::copy_from_slice(&frame[..len])).is_err());
        }
    }

    #[test]
    fn error_response_roundtrips() {
        for sample_id in [None, Some(5u64)] {
            let resp = Response::Error { sample_id, message: "object not found".into() };
            let bytes = response_frame(0, &resp);
            assert_eq!(decode_response(&bytes).unwrap(), resp, "roundtrip {sample_id:?}");
        }
    }

    #[test]
    fn truncation_detected_at_every_length() {
        let resp = Response::Data(FetchResponse {
            sample_id: 1,
            ops_applied: 1,
            data: StageData::Image(RasterImage::filled(8, 8, Rgb::gray(7))),
            tier: None,
        });
        let bytes = response_frame(0, &resp);
        for len in 0..bytes.len() {
            assert!(
                decode_response(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        // A body with junk after a complete message, under a valid CRC
        // (appending to a sealed frame would fail the checksum instead).
        let mut body = vec![0x03]; // Shutdown
        body.push(0);
        assert_eq!(decode_request(&sealed(body)), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn absurd_lengths_rejected_without_allocation() {
        // Encoded payload claiming 4 GiB.
        let mut body = vec![0x12];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.push(0x00);
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&sealed(body)),
            Err(WireError::Invalid("payload length over cap"))
        ));
    }

    #[test]
    fn ill_typed_pipeline_rejected() {
        // Configure with [ToTensor] (cannot consume encoded input).
        let mut body = vec![0x01];
        body.extend_from_slice(&0u64.to_le_bytes());
        body.push(1); // one op
        body.push(3); // ToTensor
        assert_eq!(decode_request(&sealed(body)), Err(WireError::Invalid("ill-typed pipeline")));
    }

    #[test]
    fn fuzz_decode_never_panics() {
        // Deterministic pseudo-random byte soup.
        let mut state = 0x12345678u64;
        for len in 0..200usize {
            let mut buf = Vec::with_capacity(len);
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                buf.push((state >> 33) as u8);
            }
            let _ = decode_request(&buf);
            let _ = decode_response(&buf);
        }
    }
}
