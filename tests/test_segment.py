"""Stage-1 scoring of whole images: per distinct colour, gathered to pixels."""

import numpy as np
import pytest

from skinseg import segment
from skinseg.classifiers import (
    ThresholdRange,
    TreeConfig,
    bayes_fit,
    bayes_predict_batch,
    threshold_scores,
    tree_fit,
    tree_predict_batch,
)
from skinseg.colorspace import rgb_to_hsv_array
from skinseg.dataset import to_hsv_samples
from skinseg.neighbourhood import ProbabilityMap
from skinseg.nn import FORWARD_BLOCK_ROWS, MlpArchitecture, init_model, mlp_predict_batch
from skinseg.raster import Image


@pytest.fixture(scope="module")
def models(surrogate_samples):
    hsv_train = to_hsv_samples(surrogate_samples)
    mlp = init_model(MlpArchitecture(), np.random.Generator(np.random.PCG64(5)))
    rng = np.random.default_rng(6)
    for b in mlp.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    return {
        "threshold": ThresholdRange(),
        "bayes": bayes_fit(hsv_train),
        "tree": tree_fit(hsv_train, TreeConfig(max_depth=10)),
        "mlp": mlp,
    }


# reference stage 1: every pixel scored, repeats and all
PER_PIXEL = {
    "threshold": lambda model, rgb: threshold_scores(rgb, model),
    "bayes": lambda model, rgb: bayes_predict_batch(model, rgb_to_hsv_array(rgb)),
    "tree": lambda model, rgb: tree_predict_batch(model, rgb_to_hsv_array(rgb)),
    "mlp": lambda model, rgb: mlp_predict_batch(model, rgb_to_hsv_array(rgb)),
}


def _palette_image():
    """A 90x120 image drawn from 40 skin-ish and background colours."""
    rng = np.random.default_rng(11)
    palette = rng.integers(0, 256, size=(40, 3), dtype=np.uint8)
    palette[:20] = (200, 140, 110) + rng.integers(-30, 30, size=(20, 3))
    return palette[rng.integers(0, 40, size=(90, 120))]


def _noise_image():
    """100x100 uniform noise: nearly every colour distinct, and more
    distinct colours than one forward block holds."""
    return np.random.default_rng(12).integers(0, 256, size=(100, 100, 3), dtype=np.uint8)


@pytest.mark.parametrize("kind", ["threshold", "bayes", "tree", "mlp"])
@pytest.mark.parametrize("make_pixels", [_palette_image, _noise_image])
def test_stage1_matches_per_pixel_path(models, kind, make_pixels, monkeypatch):
    model = models[kind]
    pixels = make_pixels()
    flat = pixels.reshape(-1, 3)
    n_colours = np.unique(flat, axis=0).shape[0]
    if make_pixels is _noise_image:
        assert n_colours > FORWARD_BLOCK_ROWS

    scored = []
    for name in ("threshold_scores", "bayes_predict_batch", "tree_predict_batch",
                 "mlp_predict_batch"):
        real = getattr(segment, name)

        def counting(*args, real=real):
            scored.append(len(args[0] if real is threshold_scores else args[1]))
            return real(*args)

        monkeypatch.setattr(segment, name, counting)

    pmap = segment.stage1_probabilities(Image(pixels=pixels), model)
    assert scored == [n_colours]
    expected = PER_PIXEL[kind](model, flat).reshape(pixels.shape[:2])
    assert np.array_equal(pmap.p_skin, expected)
    assert np.array_equal(pmap.p_non_skin, 1.0 - expected)


@pytest.mark.parametrize("kind", ["threshold", "bayes", "tree", "mlp"])
def test_one_colour_image_scores_as_in_a_mixed_batch(models, kind):
    # a uniform image's one colour is scored alone; it must get the score
    # that colour gets among many others
    colours = np.random.default_rng(13).integers(0, 256, size=(40, 3), dtype=np.uint8)
    mixed = PER_PIXEL[kind](models[kind], colours)
    for colour, expected in zip(colours, mixed):
        pixels = np.broadcast_to(colour, (4, 5, 3)).copy()
        pmap = segment.stage1_probabilities(Image(pixels=pixels), models[kind])
        assert np.array_equal(pmap.p_skin, np.full((4, 5), expected))


def test_decide_is_the_pointwise_class_comparison():
    # _decide tests p >= 0.5; it must agree with p >= 1 - p on every double
    # in [0, 1], the neighbours of 0.5 included
    rng = np.random.default_rng(5)
    edges = [0.0, 1.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(0.5, 1.0),
             2.0**-1074, np.nextafter(1.0, 0.0)]
    p = np.concatenate([edges, rng.random(100_000),
                        0.5 + rng.integers(-2000, 2001, size=4001) * 2.0**-55])
    mask = segment._decide(ProbabilityMap(p.reshape(1, -1))).pixels
    assert np.array_equal(mask[0], p >= 1.0 - p)
    assert mask[0, :5].tolist() == [False, True, True, False, True]
