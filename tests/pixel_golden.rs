//! Golden digests over what the GPU sees: stored bytes, decoded pixels and
//! pipeline tensors, pinned across commits.
//!
//! Every other image-side digest in this workspace compares an offloaded
//! run with a local run of the *same build*, so a decoder defect that is
//! identical on both sides of the wire passes all of them. The constants
//! here were recorded at `50fc8f1` (dense IDCT, per-pixel colour
//! conversion, unfused `Decode` → `RandomResizedCrop`) and the file calls
//! only functions whose signatures predate the crop-aware decoder. The
//! synthesis and store constants were recorded at `f0adaa2` (per-pixel
//! value noise, plane-by-plane encoder, one thread). A digest that moves
//! means a pixel or a tensor value changed.

use codec::Quality;
use datasets::DatasetSpec;
use imagery::synth::{Pattern, SynthSpec};
use pipeline::{PipelineSpec, SampleKey, StageData};
use storage::ObjectStore;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    fn fold_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    fn fold_image(&mut self, img: &imagery::RasterImage) {
        self.fold_bytes(&img.width().to_le_bytes());
        self.fold_bytes(&img.height().to_le_bytes());
        self.fold_bytes(img.as_raw());
    }

    fn fold_tensor(&mut self, data: &StageData) {
        let tensor = data.as_tensor().expect("pipeline output is a tensor");
        for v in tensor.as_slice() {
            self.fold_bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// The two smallest samples of the corpus (200 x 203 and 239 x 175): the
/// debug profile decodes at a few Mpx/s, and the tensor grid below decodes
/// each of them some forty times.
const MINI_IDS: [u64; 2] = [2, 11];

fn mini() -> DatasetSpec {
    DatasetSpec::mini(24, 2024)
}

/// Compares in hex, so a moved digest can be read off the failure.
fn assert_digests(what: &str, got: &[u64], want: &[u64]) {
    let hex = |v: &[u64]| v.iter().map(|d| format!("{d:#018x}")).collect::<Vec<_>>().join(", ");
    assert_eq!(got, want, "{what} moved:\n  got  [{}]\n  want [{}]", hex(got), hex(want));
}

#[test]
fn materialized_bytes_are_pinned() {
    let ds = mini();
    let got: Vec<u64> = MINI_IDS
        .iter()
        .map(|&id| {
            let mut d = Fnv::new();
            d.fold_bytes(&ds.materialize(id));
            d.0
        })
        .collect();
    assert_digests("stored bytes", &got, &[0x92b5_ad02_9abe_42a4, 0x1a8d_cdb3_dd97_067a]);
}

/// Every stored object of a materialised store, in id order, each checked
/// against the one-sample path first.
fn store_digest(
    store: &ObjectStore,
    ids: std::ops::Range<u64>,
    one: impl Fn(u64) -> Vec<u8>,
) -> u64 {
    assert_eq!(store.len(), ids.clone().count());
    let mut d = Fnv::new();
    for id in ids {
        let bytes = store.get(id).expect("every id in the range is stored");
        assert_eq!(bytes.as_ref(), one(id).as_slice(), "object {id} differs from one-sample path");
        d.fold_bytes(&id.to_le_bytes());
        d.fold_bytes(&bytes);
    }
    d.0
}

#[test]
fn materialized_stores_are_pinned() {
    let ds = mini();
    let classic = ObjectStore::materialize_dataset(&ds, 0..24);
    let got = store_digest(&classic, 0..24, |id| ds.materialize(id));
    assert_digests("materialised stores", &[got], &[0xf00d_d206_e066_8b2f]);
}

#[test]
fn synthesized_pixels_are_pinned() {
    // No noise, then 1, 2, 3 and 4 octaves (1 + round(3c)), twice at 4.
    let complexities = [0.0, 0.1, 0.2, 0.5, 0.9, 1.0];
    let patterns = [Pattern::Gradient, Pattern::Stripes, Pattern::Checker, Pattern::Radial];
    let got: Vec<u64> = complexities
        .iter()
        .map(|&c| {
            let mut d = Fnv::new();
            for (&pattern, p) in patterns.iter().zip(0u64..) {
                for blobs in [0, 6] {
                    for (w, h) in [(37, 61), (203, 131)] {
                        let spec = SynthSpec::new(w, h).complexity(c).blobs(blobs).pattern(pattern);
                        d.fold_image(&spec.render(p * 31 + u64::from(blobs) + u64::from(w)));
                    }
                }
            }
            d.0
        })
        .collect();
    assert_digests(
        "synthesized pixels",
        &got,
        &[
            0x064e_e969_bdee_16f8,
            0xcdc5_85d2_f683_a548,
            0x3003_dcbf_8419_1344,
            0xa847_fbb4_91b2_ff66,
            0x6767_a2b2_1fd0_2bc6,
            0x202b_dd76_bfcf_0c2f,
        ],
    );
}

#[test]
fn classic_decode_pixels_are_pinned() {
    let cases = [(96, 72, Quality::default(), 11), (75, 53, Quality::new(50).unwrap(), 13)];
    let got: Vec<u64> = cases
        .iter()
        .map(|&(w, h, quality, seed)| {
            let img = SynthSpec::new(w, h).complexity(0.6).render(seed);
            let bytes = codec::encode(&img, quality);
            let mut d = Fnv::new();
            d.fold_bytes(&bytes);
            d.fold_image(&codec::decode(&bytes).unwrap());
            d.0
        })
        .collect();
    assert_digests("classic decode", &got, &[0x16cc_c385_9d7f_e270, 0xd1dc_dbb8_f04d_a24f]);
}

/// `stream` with every AC coefficient at zigzag index `band_end` or past
/// it dropped, read straight off the entropy code (a DC varint, then
/// `(run, value varint)` pairs up to the `0xFF` end-of-block byte, block
/// after block). Its pixels are those of a progressive stream of the same
/// image cut after the band that ends at `band_end`: the browned-out input
/// these digests were recorded with, a tier-1 prefix that kept
/// coefficients `0..20`.
fn low_pass(stream: &[u8], band_end: usize) -> Vec<u8> {
    const HEADER_LEN: usize = 15;
    const EOB: u8 = 0xFF;
    let varint_end = |mut pos: usize| {
        while stream[pos] & 0x80 != 0 {
            pos += 1;
        }
        pos + 1
    };
    let mut out = stream[..HEADER_LEN].to_vec();
    let mut pos = HEADER_LEN;
    while pos < stream.len() {
        let dc_end = varint_end(pos);
        out.extend_from_slice(&stream[pos..dc_end]);
        pos = dc_end;
        let mut idx = 1;
        while stream[pos] != EOB {
            idx += usize::from(stream[pos]);
            let pair_end = varint_end(pos + 1);
            if idx < band_end {
                out.extend_from_slice(&stream[pos..pair_end]);
            }
            pos = pair_end;
            idx += 1;
        }
        out.push(EOB);
        pos += 1;
    }
    out
}

/// Two stored samples and a low-pass copy of the first, each with the
/// epochs it is run at.
fn tensor_inputs() -> Vec<(u64, Vec<u8>, &'static [u64])> {
    let ds = mini();
    vec![
        (MINI_IDS[0], ds.materialize(MINI_IDS[0]), &[0, 3]),
        (MINI_IDS[1], ds.materialize(MINI_IDS[1]), &[0, 3]),
        (100, low_pass(&ds.materialize(MINI_IDS[0]), 20), &[1]),
    ]
}

/// `run`, and `run_prefix` + `run_suffix` at every split, over a grid of
/// (sample, epoch) keys. The split runs must reproduce `run` bit for bit;
/// the digest is over the `run` tensors.
fn tensor_digest(spec: &PipelineSpec) -> u64 {
    let mut d = Fnv::new();
    for (id, bytes, epochs) in tensor_inputs() {
        for &epoch in epochs {
            let key = SampleKey::new(7, id, epoch);
            let encoded = || StageData::Encoded(bytes.clone().into());
            let full = spec.run(encoded(), key).unwrap();
            for split in spec.split_points() {
                let mid = spec.run_prefix(encoded(), split, key).unwrap();
                let out = spec.run_suffix(mid, split, key).unwrap();
                assert_eq!(out, full, "sample {id} epoch {epoch} {split:?} diverged from run");
            }
            d.fold_tensor(&full);
        }
    }
    d.0
}

#[test]
fn standard_train_tensors_are_pinned() {
    let got = tensor_digest(&PipelineSpec::standard_train());
    assert_digests("standard_train tensors", &[got], &[0xd731_8ddb_8f3f_53a0]);
}

#[test]
fn augmented_train_tensors_are_pinned() {
    let got = tensor_digest(&PipelineSpec::augmented_train());
    assert_digests("augmented_train tensors", &[got], &[0x27a4_5031_1722_4f3e]);
}

#[test]
fn standard_eval_tensors_are_pinned() {
    let got = tensor_digest(&PipelineSpec::standard_eval());
    assert_digests("standard_eval tensors", &[got], &[0xb71d_3fc1_af9b_b783]);
}
