//! Golden digests over what the GPU sees: stored bytes, decoded pixels and
//! pipeline tensors, pinned across commits.
//!
//! Every other image-side digest in this workspace compares an offloaded
//! run with a local run of the *same build*, so a decoder defect that is
//! identical on both sides of the wire passes all of them. The constants
//! here were recorded at `50fc8f1` (dense IDCT, per-pixel colour
//! conversion, unfused `Decode` → `RandomResizedCrop`) and the file calls
//! only functions whose signatures predate the crop-aware decoder. A digest
//! that moves means a pixel or a tensor value changed.

use codec::{EncodeOptions, EntropyMode, Quality, Subsampling, TierSpec};
use datasets::DatasetSpec;
use imagery::synth::SynthSpec;
use pipeline::{PipelineSpec, SampleKey, StageData};

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

#[test]
fn classic_decode_pixels_are_pinned() {
    let q = Quality::default();
    let huff420 =
        |q| EncodeOptions::new(q).subsampling(Subsampling::S420).entropy(EntropyMode::Huffman);
    let cases = [
        (96, 72, EncodeOptions::new(q)),
        (96, 72, huff420(q)),
        (75, 53, EncodeOptions::new(Quality::new(50).unwrap())),
        (75, 53, huff420(Quality::new(97).unwrap())),
        (75, 53, EncodeOptions::new(q).subsampling(Subsampling::S420)),
        (17, 9, EncodeOptions::new(q).entropy(EntropyMode::Huffman)),
    ];
    let got: Vec<u64> = cases
        .iter()
        .zip(11u64..)
        .map(|(&(w, h, ref opts), seed)| {
            let img = SynthSpec::new(w, h).complexity(0.6).render(seed);
            let bytes = codec::encode_with(&img, opts);
            let mut d = Fnv::new();
            d.fold_bytes(&bytes);
            d.fold_image(&codec::decode(&bytes).unwrap());
            d.0
        })
        .collect();
    assert_digests(
        "classic decode",
        &got,
        &[
            0x16cc_c385_9d7f_e270,
            0x8aa9_e00f_8f83_8f13,
            0xd1dc_dbb8_f04d_a24f,
            0xc113_525b_af90_fdef,
            0xc9b5_de60_4af8_ac49,
            0xb64b_df7b_ab7e_4719,
        ],
    );
}

#[test]
fn tiered_decode_pixels_are_pinned() {
    let img = SynthSpec::new(75, 53).complexity(0.7).render(5);
    let mut got = Vec::new();
    for subsampling in [Subsampling::S444, Subsampling::S420] {
        let bytes =
            codec::encode_tiered_with(&img, Quality::default(), subsampling, &TierSpec::default());
        for tier in 0..3 {
            let out = codec::decode_tiered(codec::truncate_to_tier(&bytes, tier).unwrap()).unwrap();
            assert_eq!(out.tier, tier);
            let mut d = Fnv::new();
            d.fold_image(&out.image);
            got.push(d.0);
        }
    }
    assert_digests(
        "tiered decode",
        &got,
        &[
            0x2282_26f6_1e87_7a14,
            0xc821_941e_67a3_169b,
            0x8ded_2472_e87e_2ebe,
            0x23e5_fc3c_c1cc_0e50,
            0xb002_5ffe_8879_647b,
            0xafaf_6f64_2066_e5d3,
        ],
    );
}

/// Two stored samples and a browned-out tiered prefix of the first, each
/// with the epochs it is run at.
fn tensor_inputs() -> Vec<(u64, Vec<u8>, &'static [u64])> {
    let ds = mini();
    let tiered = ds.materialize_tiered(MINI_IDS[0], &TierSpec::default());
    vec![
        (MINI_IDS[0], ds.materialize(MINI_IDS[0]), &[0, 3]),
        (MINI_IDS[1], ds.materialize(MINI_IDS[1]), &[0, 3]),
        (100, codec::truncate_to_tier(&tiered, 1).unwrap().to_vec(), &[1]),
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
