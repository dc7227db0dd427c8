//! Hand-rolled binary wire format for the fetch protocol.
//!
//! Every message is a tagged, little-endian structure with explicit lengths;
//! decoding is *total* — arbitrary byte soup yields a [`WireError`], never a
//! panic or an over-allocation. (The workspace carries no serialization
//! crate, so this module plays the role gRPC plays in the paper's
//! prototype.)
//!
//! There is one frame format, version `0xA5`, and every field it defines
//! is always present. Every message opens with the version byte and a
//! `request_id: u32`, the multiplexing key that lets one connection carry
//! many pipelined in-flight exchanges. A request then names its tenant, the
//! `tenant_id: u16` a multi-tenant server attributes, schedules and meters
//! it by (0 is the default tenant). A fetch ends with the fidelity cap the
//! client accepts, `max_tier: u8`, and a data response carries the tier it
//! was served at; `0xFF` means uncapped, or full fidelity.
//!
//! Every message ends with a CRC32 trailer (IEEE polynomial, little-endian)
//! over all the bytes before it. Decoding verifies the checksum before
//! parsing, so bit corruption anywhere in a frame — including in the id, the
//! tenant, the tier, or a sample id the structural parser would happily
//! accept — surfaces as [`WireError::ChecksumMismatch`]: a response is never
//! re-routed to the wrong caller, a request never billed to the wrong
//! tenant, and training data is never silently poisoned. CRC32 detects every
//! burst error up to 32 bits, so any single flipped byte is always caught.
//! A frame that opens with any other version byte, including the retired
//! `0xA2`–`0xA4`, decodes to [`WireError::Version`].
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! Request   := ver:u8 request_id:u32 tenant_id:u16 ReqBody crc32:u32
//! Response  := ver:u8 request_id:u32 RespBody crc32:u32
//! ReqBody   := 0x01 dataset_seed:u64 n:u8 OpKind*n                  (configure)
//!            | 0x02 sample_id:u64 epoch:u64 split:u8 quality:u8 max_tier:u8  (fetch)
//! RespBody  := 0x11                                                  (configured)
//!            | 0x12 sample_id:u64 ops_applied:u8 tier:u8 StageData   (data)
//!            | 0x13 has_id:u8 [sample_id:u64] len:u16 utf8           (error)
//! OpKind    := tag:u8 [size:u32]           (sized ops carry their parameter)
//! StageData := 0x00 len:u32 bytes          (encoded)
//!            | 0x01 w:u32 h:u32 bytes      (image, len = w*h*3)
//!            | 0x02 w:u32 h:u32 bytes      (tensor, len = w*h*12)
//! ```
//!
//! A fetch request is 31 bytes, and a raw data response is its payload plus
//! 25.
//!
//! [`encode_request_tenant_into`] is the request encoder and
//! [`encode_request_into`] its front for tenant 0; [`decode_request_framed`]
//! reads what they write. [`encode_response_into`] pairs with
//! [`decode_response_framed`]. The encoders write into a caller-provided
//! reusable buffer (clearing it first), so a steady-state connection
//! re-encodes frames with **zero allocations**. [`peek_request_id`] reads
//! the id of a frame that failed to decode, and [`crc32`] is the checksum.
//!
//! Responses have a second, copy-free front on each side for the TCP
//! transport. `encode_response_parts` writes a frame's head and returns an
//! encoded payload's own [`Bytes`] and the CRC that follows it, so a raw
//! serve goes out as head ‖ stored bytes ‖ CRC in one vectored write;
//! given the payload's own CRC it reads no payload byte, combining that with
//! the head's. [`encode_response_into`] is the same encoder with the parts
//! glued.
//! `decode_response_shared` decodes a frame held in a [`Bytes`] and returns
//! an encoded payload as a slice of it; [`decode_response_framed`] is the
//! same decoder copying the payload out of a borrowed frame.

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
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted payload length (64 MiB) — caps allocations from
/// adversarial length fields.
pub(crate) const MAX_PAYLOAD: u32 = 64 << 20;

// `pipeline::MAX_OP_SIZE` is the largest side whose `f32` tensor (12 bytes
// a pixel) one frame carries: a session configured at that bound can be
// answered, and one a pixel larger could not.
const _: () = {
    let side = pipeline::MAX_OP_SIZE as u64;
    assert!(side * side * 12 <= MAX_PAYLOAD as u64);
    assert!((side + 1) * (side + 1) * 12 > MAX_PAYLOAD as u64);
};

/// The wire-format version, the first byte of every frame. The low nibble
/// is the version number; the high nibble is a magic marker chosen so the
/// byte never collides with a version-1 tag (`0x01..=0x03`,
/// `0x11..=0x13`), so a stray v1 frame fails the version gate as foreign
/// instead of parsing as a header.
pub(crate) const WIRE_VERSION: u8 = 0xA5;

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

/// Best-effort read of a frame's `request_id` without decoding (or
/// checksum-verifying) the rest — used by servers to echo an id on error
/// replies for frames whose body failed to parse. Returns `None` for
/// frames too short to carry the header or of a foreign version.
pub fn peek_request_id(data: &[u8]) -> Option<u32> {
    if *data.first()? != WIRE_VERSION {
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

    /// The header every frame opens with: the version byte, which must be
    /// [`WIRE_VERSION`], then the request id.
    fn header(&mut self) -> Result<u32, WireError> {
        match self.u8()? {
            WIRE_VERSION => self.u32(),
            v => Err(WireError::Version(v)),
        }
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
        if size == 0 || size > pipeline::MAX_OP_SIZE {
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

/// Serializes a [`Request`] from `tenant_id` under `request_id` into a
/// caller-provided buffer (cleared first); a reused buffer makes
/// steady-state encoding allocation-free.
pub fn encode_request_tenant_into(
    request_id: u32,
    tenant_id: u16,
    req: &Request,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.push(WIRE_VERSION);
    out.extend_from_slice(&request_id.to_le_bytes());
    out.extend_from_slice(&tenant_id.to_le_bytes());
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
            out.push(f.max_tier.unwrap_or(TIER_UNCAPPED));
        }
    }
    seal_in_place(out);
}

/// [`encode_request_tenant_into`] for the default tenant, 0.
pub fn encode_request_into(request_id: u32, req: &Request, out: &mut Vec<u8>) {
    encode_request_tenant_into(request_id, 0, req, out);
}

/// Deserializes a [`Request`] together with its multiplexing id and the
/// tenant id its header carries.
///
/// # Errors
///
/// Returns a [`WireError`] for any malformed input, including trailing
/// bytes, checksum mismatches, and foreign wire versions.
pub fn decode_request_framed(data: &[u8]) -> Result<(u32, u16, Request), WireError> {
    let mut r = Reader::new(verify_checksum(data)?);
    let request_id = r.header()?;
    let tenant_id = r.u16()?;
    let req = match r.u8()? {
        0x01 => {
            let dataset_seed = r.u64()?;
            let n = r.u8()? as usize;
            let mut ops = Vec::with_capacity(n);
            for _ in 0..n {
                ops.push(decode_op(&mut r)?);
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
            let max_tier = decode_tier_byte(r.u8()?)?;
            Request::Fetch(FetchRequest { sample_id, epoch, split, reencode_quality, max_tier })
        }
        t => return Err(WireError::BadTag(t)),
    };
    r.finish()?;
    Ok((request_id, tenant_id, req))
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// Serializes a [`Response`] under `request_id` into a caller-provided
/// buffer (cleared first); a reused buffer makes steady-state encoding
/// allocation-free.
pub fn encode_response_into(request_id: u32, resp: &Response, out: &mut Vec<u8>) {
    if let Some((body, crc)) = encode_response_parts(request_id, resp, out, None) {
        out.extend_from_slice(&body);
        out.extend_from_slice(&crc);
    }
}

/// The one response encoder. It writes the whole frame into `head`
/// (cleared first), except for an encoded payload: that comes back, sharing
/// the response's storage, with the CRC over head ‖ payload that follows it
/// on the wire, and `head` stops where the payload begins.
///
/// `payload_crc`, when given, must be [`crc32`] of that encoded payload;
/// the frame's CRC is then combined from it and the head's, without reading
/// the payload. Debug builds check it.
pub(crate) fn encode_response_parts(
    request_id: u32,
    resp: &Response,
    head: &mut Vec<u8>,
    payload_crc: Option<u32>,
) -> Option<(Bytes, [u8; 4])> {
    head.clear();
    head.push(WIRE_VERSION);
    head.extend_from_slice(&request_id.to_le_bytes());
    let mut body = None;
    match resp {
        Response::Configured => head.push(0x11),
        Response::Data(d) => {
            head.push(0x12);
            head.extend_from_slice(&d.sample_id.to_le_bytes());
            // The server applies at most the split its request carried,
            // which is one byte wide on the wire.
            head.push(d.ops_applied as u8);
            head.push(d.tier.unwrap_or(TIER_UNCAPPED));
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
            let msg = &message.as_bytes()[..message.len().min(u16::MAX as usize)];
            head.extend_from_slice(&(msg.len() as u16).to_le_bytes());
            head.extend_from_slice(msg);
        }
    }
    let Some(body) = body else {
        seal_in_place(head);
        return None;
    };
    debug_assert!(
        payload_crc.is_none_or(|given| given == crc32(&body)),
        "a payload CRC that is not the payload's"
    );
    let payload_crc = payload_crc.unwrap_or_else(|| crc32(&body));
    let crc = checksum::crc32_combine(crc32(head), payload_crc, body.len() as u64);
    Some((body, crc.to_le_bytes()))
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
    let request_id = r.header()?;
    let resp = match r.u8()? {
        0x11 => Response::Configured,
        0x12 => {
            let sample_id = r.u64()?;
            let ops_applied = u32::from(r.u8()?);
            let tier = decode_tier_byte(r.u8()?)?;
            let data = decode_stage_data(&mut r)?;
            Response::Data(FetchResponse { sample_id, ops_applied, data, tier })
        }
        0x13 => {
            let sample_id = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                _ => return Err(WireError::Invalid("error sample flag")),
            };
            let len = r.u16()? as usize;
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
    fn request_frame(id: u32, tenant: u16, req: &Request) -> Vec<u8> {
        let mut out = Vec::new();
        encode_request_tenant_into(id, tenant, req, &mut out);
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

    fn raw_response(payload: &'static [u8], tier: Option<u8>) -> Response {
        Response::Data(FetchResponse {
            sample_id: 9,
            ops_applied: 0,
            data: StageData::Encoded(Bytes::from_static(payload)),
            tier,
        })
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
            Request::Fetch(FetchRequest::new(4, 2, SplitPoint::NONE).with_max_tier(1)),
        ];
        for req in &reqs {
            let bytes = request_frame(0, 0, req);
            assert_eq!(&decode_request(&bytes).unwrap(), req, "roundtrip {req:?}");
        }
    }

    /// A hand-crafted body behind a version-5 header (a request's names
    /// tenant 0), sealed under a valid CRC, so a test exercises the
    /// structural parser rather than the version or checksum gates.
    fn sealed(request: bool, body: &[u8]) -> Vec<u8> {
        let mut out = vec![WIRE_VERSION];
        out.extend_from_slice(&7u32.to_le_bytes());
        if request {
            out.extend_from_slice(&0u16.to_le_bytes());
        }
        out.extend_from_slice(body);
        seal_in_place(&mut out);
        out
    }

    #[test]
    fn oversized_ops_are_rejected_before_any_session_exists() {
        // A `RandomResizedCrop { size: 65536 }` session would make every
        // offloaded fetch allocate a 65536^2 x 3 byte raster whose answer no
        // frame can carry.
        let spec = PipelineSpec::standard_train();
        let configure = |size: u32| {
            let mut body = vec![0x01];
            body.extend_from_slice(&42u64.to_le_bytes());
            body.push(spec.len() as u8);
            let mut ops = Vec::new();
            for &op in spec.ops() {
                encode_op(op, &mut ops);
            }
            // Decode is one byte; the crop's size follows its tag.
            ops[2..6].copy_from_slice(&size.to_le_bytes());
            body.extend_from_slice(&ops);
            sealed(true, &body)
        };
        assert_eq!(
            decode_request(&configure(224)).unwrap(),
            Request::Configure(SessionConfig { dataset_seed: 42, pipeline: spec.clone() })
        );
        assert!(decode_request(&configure(pipeline::MAX_OP_SIZE)).is_ok());
        for size in [0, pipeline::MAX_OP_SIZE + 1, 1 << 16] {
            assert_eq!(
                decode_request(&configure(size)),
                Err(WireError::Invalid("op size parameter")),
                "size {size}"
            );
        }
    }

    #[test]
    fn frame_sizes_are_pinned() {
        // ver id tenant | tag sample epoch split quality max_tier | crc
        let fetch = Request::Fetch(FetchRequest::new(1, 1, SplitPoint::new(2)));
        assert_eq!(request_frame(0, 0, &fetch).len(), 31);
        let capped = Request::Fetch(FetchRequest::new(1, 1, SplitPoint::NONE).with_max_tier(1));
        assert_eq!(request_frame(0, 7, &capped).len(), 31);
        // ver id | tag sample ops tier | tag len payload | crc
        for (payload, tier) in [(&b""[..], None), (b"raw", None), (b"prefix", Some(1))] {
            let bytes = response_frame(3, &raw_response(payload, tier));
            assert_eq!(bytes.len(), payload.len() + 25, "{payload:?} at tier {tier:?}");
        }
    }

    #[test]
    fn request_ids_roundtrip_on_both_message_kinds() {
        for id in [0u32, 1, 0xdead_beef, u32::MAX] {
            let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::new(2)));
            let bytes = request_frame(id, 0, &req);
            assert_eq!(decode_request_framed(&bytes).unwrap(), (id, 0, req));
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
            let bytes = request_frame(id, t, &req);
            assert_eq!(decode_request_framed(&bytes).unwrap(), (id, t, req));
            assert_eq!(peek_request_id(&bytes), Some(id));
        }
        let mut front = Vec::new();
        let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::NONE));
        encode_request_into(5, &req, &mut front);
        assert_eq!(front, request_frame(5, 0, &req), "the front names tenant 0");
    }

    #[test]
    fn retired_versions_decode_as_foreign() {
        // Each retired frame as its version laid it out, sealed under a
        // valid CRC: 0xA2 had no tenant, 0xA3 added one, 0xA4 added the
        // tier after the fetch body and after a data response's payload.
        let fetch_body = |tier: bool| {
            let mut body = vec![0x02];
            body.extend_from_slice(&3u64.to_le_bytes());
            body.extend_from_slice(&1u64.to_le_bytes());
            body.extend_from_slice(&[2, 0]);
            if tier {
                body.push(TIER_UNCAPPED);
            }
            body
        };
        let data_body = |tier: bool| {
            let mut body = vec![0x12];
            body.extend_from_slice(&3u64.to_le_bytes());
            body.extend_from_slice(&0u32.to_le_bytes());
            body.push(0x00);
            body.extend_from_slice(&2u32.to_le_bytes());
            body.extend_from_slice(b"ok");
            if tier {
                body.push(1);
            }
            body
        };
        let frame = |version: u8, tenant: bool, body: Vec<u8>| {
            let mut out = vec![version];
            out.extend_from_slice(&9u32.to_le_bytes());
            if tenant {
                out.extend_from_slice(&7u16.to_le_bytes());
            }
            out.extend_from_slice(&body);
            seal_in_place(&mut out);
            out
        };
        let requests = [
            (0xA2, frame(0xA2, false, fetch_body(false))),
            (0xA3, frame(0xA3, true, fetch_body(false))),
            (0xA4, frame(0xA4, true, fetch_body(true))),
        ];
        for (version, bytes) in requests {
            assert_eq!(decode_request_framed(&bytes), Err(WireError::Version(version)));
            assert_eq!(peek_request_id(&bytes), None, "{version:#04x}");
        }
        for (version, bytes) in [
            (0xA2, frame(0xA2, false, data_body(false))),
            (0xA4, frame(0xA4, false, data_body(true))),
        ] {
            assert_eq!(decode_response_framed(&bytes), Err(WireError::Version(version)));
        }
        // Any opening byte but the one version is foreign, under a valid CRC.
        let fetch = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::new(2)));
        for version in (0..=u8::MAX).filter(|&v| v != WIRE_VERSION) {
            let mut bytes = request_frame(9, 0, &fetch);
            bytes.truncate(bytes.len() - 4);
            bytes[0] = version;
            seal_in_place(&mut bytes);
            assert_eq!(decode_request_framed(&bytes), Err(WireError::Version(version)));
        }
    }

    #[test]
    fn tenant_id_is_protected_by_the_checksum() {
        let req = Request::Fetch(FetchRequest::new(3, 1, SplitPoint::new(2)));
        let mut bytes = request_frame(11, 6, &req);
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
            assert_eq!((got_id, got_tenant), (id, (id % 7) as u16));
        }
        assert_eq!(buf.as_ptr(), ptr, "buffer reallocated on the hot path");
        assert_eq!(buf.capacity(), cap);
    }

    #[test]
    fn fidelity_requests_roundtrip_with_their_tenant() {
        for tier in 0..codec::MAX_TIERS as u8 {
            let fetch = FetchRequest::new(3, 1, SplitPoint::NONE).with_max_tier(tier);
            for tenant in [0, 41] {
                let bytes = request_frame(5, tenant, &Request::Fetch(fetch));
                assert_eq!(
                    decode_request_framed(&bytes).unwrap(),
                    (5, tenant, Request::Fetch(fetch))
                );
            }
        }
    }

    #[test]
    fn served_tier_roundtrips_under_the_crc() {
        let resp = raw_response(b"tiered prefix", Some(1));
        let bytes = response_frame(4, &resp);
        assert_eq!(decode_response_framed(&bytes).unwrap(), (4, resp));
        // ver id tag sample ops | tier: flipping it must fail the
        // checksum, never downgrade silently.
        let mut corrupt = bytes.clone();
        corrupt[15] ^= 0x01;
        assert_eq!(decode_response_framed(&corrupt), Err(WireError::ChecksumMismatch));
    }

    #[test]
    fn out_of_range_wire_tiers_are_rejected() {
        // Re-seal frames whose tier byte is 8 (valid tiers are 0..8, 0xFF
        // is the sentinel).
        let out_of_range = |mut bytes: Vec<u8>, at: usize| {
            bytes[at] = codec::MAX_TIERS as u8;
            bytes.truncate(bytes.len() - 4);
            seal_in_place(&mut bytes);
            bytes
        };
        let resp = out_of_range(response_frame(0, &raw_response(b"x", Some(0))), 15);
        let req = Request::Fetch(FetchRequest::new(1, 0, SplitPoint::NONE).with_max_tier(0));
        let req = out_of_range(request_frame(0, 0, &req), 26);
        let want = WireError::Invalid("fidelity tier out of range");
        assert_eq!(decode_response_framed(&resp), Err(want.clone()));
        assert_eq!(decode_request_framed(&req), Err(want));
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
        // wrong-but-valid message.
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
        // Flip a bit inside the request id: structurally still a perfectly
        // valid fetch request, but the checksum catches it.
        let mut bytes =
            request_frame(0, 0, &Request::Fetch(FetchRequest::new(7, 3, SplitPoint::new(2))));
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
            let parts = encode_response_parts(6, &resp, &mut head, None);
            assert_eq!(parts.is_some(), has_body, "{resp:?}");
            let mut glued = head.clone();
            if let Some((body, crc)) = &parts {
                assert_eq!(body.as_ptr(), stored.as_ptr(), "the body is the response's own bytes");
                glued.extend_from_slice(body);
                glued.extend_from_slice(crc);
                // Handed the payload's own CRC, the encoder writes the
                // same frame without reading the payload.
                let mut known = Vec::new();
                let combined = encode_response_parts(6, &resp, &mut known, Some(crc32(body)));
                assert_eq!((known, combined), (head.clone(), parts.clone()), "{resp:?}");
            }
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
                assert_eq!(offset + b.len() + 4, frame.len(), "payload sits right before the CRC");
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
    fn retired_shutdown_tag_is_a_bad_tag() {
        // 0x03 once asked the server to stop; no request kind has it now.
        assert_eq!(decode_request(&sealed(true, &[0x03])), Err(WireError::BadTag(0x03)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        // A body with junk after a complete message, under a valid CRC
        // (appending to a sealed frame would fail the checksum instead).
        let mut body = vec![0x02]; // a whole fetch, then junk
        body.extend_from_slice(&3u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&[2, 0, TIER_UNCAPPED, 0]);
        assert_eq!(decode_request(&sealed(true, &body)), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn absurd_lengths_rejected_without_allocation() {
        // Encoded payload claiming 4 GiB.
        let mut body = vec![0x12];
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&[0, TIER_UNCAPPED, 0x00]);
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_response(&sealed(false, &body)),
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
        assert_eq!(
            decode_request(&sealed(true, &body)),
            Err(WireError::Invalid("ill-typed pipeline"))
        );
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
