//! `RandomHorizontalFlip`: mirror the image with probability 1/2.

use crate::{AugmentRng, PipelineError, StageData};

/// Probability of flipping (torchvision default).
pub(crate) const FLIP_PROBABILITY: f64 = 0.5;

pub(super) fn apply(data: StageData, rng: &mut AugmentRng) -> Result<StageData, PipelineError> {
    let StageData::Image(img) = data else { unreachable!("kind checked by caller") };
    let flipped = if rng.next_unit_f64() < FLIP_PROBABILITY { img.flip_horizontal() } else { img };
    Ok(StageData::Image(flipped))
}

#[cfg(test)]
mod tests {
    use crate::{AugmentRng, OpKind, StageData};
    use imagery::synth::SynthSpec;

    #[test]
    fn size_is_preserved() {
        let img = SynthSpec::new(64, 48).complexity(0.3).render(1);
        let out = OpKind::RandomHorizontalFlip
            .apply(StageData::Image(img.clone()), &mut AugmentRng::for_sample(0, 0, 0))
            .unwrap();
        assert_eq!(out.byte_len(), img.raw_len() as u64);
    }

    #[test]
    fn flip_happens_about_half_the_time() {
        let img = SynthSpec::new(16, 16).complexity(0.9).render(1);
        let mut flips = 0;
        for id in 0..400 {
            let mut rng = AugmentRng::for_sample(1, id, 0);
            let out = OpKind::RandomHorizontalFlip
                .apply(StageData::Image(img.clone()), &mut rng)
                .unwrap();
            if out.as_image().unwrap() != &img {
                flips += 1;
            }
        }
        assert!((120..280).contains(&flips), "flips = {flips}");
    }

    #[test]
    fn deterministic_per_key() {
        let img = SynthSpec::new(32, 32).complexity(0.8).render(2);
        let run = |id| {
            let mut rng = AugmentRng::for_sample(5, id, 3);
            OpKind::RandomHorizontalFlip.apply(StageData::Image(img.clone()), &mut rng).unwrap()
        };
        for id in 0..10 {
            assert_eq!(run(id).as_image(), run(id).as_image());
        }
    }
}
