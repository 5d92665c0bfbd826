"""Stage-1 scoring of whole images: per distinct colour, gathered to pixels,
or per pixel when most of a frame's colours are distinct."""

import numpy as np
import pytest

from skinseg import model_io, segment
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

from oracles import distinct_colours


@pytest.fixture(scope="module")
def models(surrogate_samples):
    hsv_train = to_hsv_samples(surrogate_samples)
    mlp = init_model(MlpArchitecture(), np.random.Generator(np.random.PCG64(5)))
    rng = np.random.default_rng(6)
    for b in mlp.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    by_kind = {
        "threshold": ThresholdRange(),
        "bayes": bayes_fit(hsv_train),
        "tree": tree_fit(hsv_train, TreeConfig(max_depth=10)),
        "mlp": mlp,
    }
    # one model of every kind a model file can hold, so a kind added there
    # without a stage-1 predictor fails here
    assert tuple(by_kind) == model_io.KINDS
    return by_kind


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


def _stage1_batch(pixels):
    """The RGB rows stage 1 must score for (h, w, 3) pixels: the pixels in
    pixel order when their distinct colours are more than
    _PIXEL_PATH_SHARE of them, else each distinct colour once, in
    ascending code order (np.unique sorts rows by r, then g, then b)."""
    flat = pixels.reshape(-1, 3)
    colours = np.unique(flat, axis=0)
    if colours.shape[0] > segment._PIXEL_PATH_SHARE * flat.shape[0]:
        return flat
    return colours


def _record_predictor_batches(monkeypatch):
    """Log the batch each of the four predictors receives from segment:
    RGB rows for the threshold box, HSV rows for the other kinds."""
    batches = []
    for name in ("threshold_scores", "bayes_predict_batch", "tree_predict_batch",
                 "mlp_predict_batch"):
        real = getattr(segment, name)

        def recording(*args, real=real):
            batches.append(np.array(args[0] if real is threshold_scores else args[1]))
            return real(*args)

        monkeypatch.setattr(segment, name, recording)
    return batches


def _predictor_batch(kind, rgb):
    return rgb if kind == "threshold" else rgb_to_hsv_array(rgb)


@pytest.mark.parametrize("kind", ["threshold", "bayes", "tree", "mlp"])
@pytest.mark.parametrize("make_pixels", [_palette_image, _noise_image])
def test_stage1_matches_per_pixel_path(models, kind, make_pixels, monkeypatch):
    model = models[kind]
    pixels = make_pixels()
    flat = pixels.reshape(-1, 3)
    rgb = _stage1_batch(pixels)
    if make_pixels is _noise_image:
        # nearly every colour distinct: the pixels are scored as they are,
        # in more rows than one forward block holds
        assert rgb.shape[0] == flat.shape[0]
        assert np.unique(flat, axis=0).shape[0] > FORWARD_BLOCK_ROWS
    else:
        assert rgb.shape[0] == 40

    batches = _record_predictor_batches(monkeypatch)
    pmap = segment.stage1_probabilities(Image(pixels=pixels), model)
    [batch] = batches
    expected_batch = _predictor_batch(kind, rgb)
    assert batch.dtype == expected_batch.dtype and batch.tobytes() == expected_batch.tobytes()
    expected = PER_PIXEL[kind](model, flat).reshape(pixels.shape[:2])
    assert np.array_equal(pmap.p_skin, expected)
    assert np.array_equal(pmap.p_non_skin, 1.0 - expected)


def _frame_with_distinct(height, width, d, seed):
    """(height, width, 3) uint8 pixels holding exactly d distinct colours in scrambled order."""
    rng = np.random.default_rng(seed)
    n = height * width
    palette = rng.choice(1 << 24, size=d, replace=False)
    codes = rng.permutation(np.concatenate([palette, palette[rng.integers(0, d, size=n - d)]]))
    rgb = np.stack([codes >> 16, (codes >> 8) & 0xFF, codes & 0xFF], axis=1).astype(np.uint8)
    return rgb.reshape(height, width, 3)


@pytest.mark.every_cpu_path
@pytest.mark.parametrize("kind", ["threshold", "bayes", "tree", "mlp"])
@pytest.mark.parametrize("shape", [(4, 4), (50, 60)])
def test_stage1_path_switches_at_the_distinct_colour_share(models, kind, shape, monkeypatch):
    """At most _PIXEL_PATH_SHARE of the pixels' colours distinct: the predictor
    gets the distinct colours in ascending code order; one more: it gets the
    pixels in pixel order. The map is the per-pixel path's, bit for bit, both sides.

    The 4x4 frame's cut, 13 of 16 pixels, is a whole number of colours; the
    50x60 frame's is not, and both of its batches span more than one forward
    block."""
    height, width = shape
    n = height * width
    cut = int(segment._PIXEL_PATH_SHARE * n)
    if shape == (50, 60):
        assert cut > FORWARD_BLOCK_ROWS and cut < segment._PIXEL_PATH_SHARE * n
    else:
        assert cut == segment._PIXEL_PATH_SHARE * n
    batches = _record_predictor_batches(monkeypatch)
    for d in (cut, cut + 1):
        pixels = _frame_with_distinct(height, width, d, seed=d)
        flat = pixels.reshape(-1, 3)
        colours = np.unique(flat, axis=0)
        assert colours.shape[0] == d
        batches.clear()
        pmap = segment.stage1_probabilities(Image(pixels=pixels), models[kind])
        [batch] = batches
        expected_batch = _predictor_batch(kind, colours if d == cut else flat)
        assert batch.dtype == expected_batch.dtype, d
        assert batch.tobytes() == expected_batch.tobytes(), d
        expected = PER_PIXEL[kind](models[kind], flat).reshape(shape)
        assert pmap.p_skin.tobytes() == expected.tobytes(), d


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


def _colour_cases():
    """(name, pixels) cases for the distinct-colour pass.

    The pixel counts cross the widths where the packed pixel index gains a
    bit (n - 1 = 2**k); each count comes as one row and as one column.
    """
    rng = np.random.default_rng(14)
    for n in (1, 2, 3, 4, 5, 255, 256, 257, 65536, 65537):
        # few colours, so most pixels repeat one another
        flat = rng.integers(0, 4, size=(n, 3), dtype=np.uint8) * np.uint8(85)
        yield f"1x{n}", flat.reshape(1, n, 3)
        yield f"{n}x1", flat.reshape(n, 1, 3)
        if n >= 2:
            ends = flat.copy()
            ends[0], ends[-1] = 0x00, 0xFF
            yield f"black-first-white-last-{n}", ends.reshape(1, n, 3)
            yield f"white-first-black-last-{n}", ends[::-1].reshape(n, 1, 3)
    yield "one-colour", np.full((37, 41, 3), (12, 200, 7), dtype=np.uint8)
    # i * odd is one-to-one mod 2**24: 77,100 distinct codes in scrambled
    # order, 0x000000 first; the last one is not hit by any other i
    codes = np.arange(300 * 257, dtype=np.uint64) * np.uint64(2654435761) % np.uint64(1 << 24)
    codes[-1] = 0xFFFFFF
    every = np.stack([codes >> 16, (codes >> 8) & 0xFF, codes & 0xFF], axis=1)
    yield "all-distinct", every.astype(np.uint8).reshape(300, 257, 3)


def _codes(rgb):
    """24-bit code of each (N, 3) uint8 RGB row, in row order."""
    rgb = rgb.astype(np.uint32)
    return (rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2]


COLOUR_CASES = dict(_colour_cases())


@pytest.mark.parametrize("case", COLOUR_CASES)
def test_distinct_colours_match_unique_and_stage1_matches_per_pixel(models, case, monkeypatch):
    pixels = COLOUR_CASES[case]
    colours, inverse = segment._distinct_colours(pixels)
    expected_colours, expected_inverse = distinct_colours(pixels)
    assert colours.dtype == np.uint32 and inverse.dtype == np.int32
    assert np.array_equal(colours, expected_colours)
    assert np.array_equal(inverse, expected_inverse)
    if case == "all-distinct":
        assert colours.size == pixels.shape[0] * pixels.shape[1]

    batches = []

    def recording(model, rgb):
        batches.append(rgb.copy())
        return real(model, rgb)

    real = segment.score_rgb
    monkeypatch.setattr(segment, "score_rgb", recording)
    flat = pixels.reshape(-1, 3)
    per_pixel = expected_colours.size > segment._PIXEL_PATH_SHARE * flat.shape[0]
    for kind, model in models.items():
        batches.clear()
        pmap = segment.stage1_probabilities(Image(pixels=pixels), model)
        [rgb] = batches
        assert rgb.dtype == np.uint8, kind
        if per_pixel:
            # one batch: every pixel once, in pixel order
            assert rgb.tobytes() == flat.tobytes(), kind
        else:
            # one batch: every distinct colour once, in strictly ascending order
            codes = _codes(rgb)
            assert np.all(codes[1:] > codes[:-1]), kind
            assert np.array_equal(codes, expected_colours), kind
        expected = PER_PIXEL[kind](model, flat).reshape(pixels.shape[:2])
        assert pmap.p_skin.tobytes() == expected.tobytes(), kind


@pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0 + 2.0**-52])
def test_stage1_range_check_reads_the_scored_colours(models, bad, monkeypatch):
    """A score outside [0, 1], or NaN, stops stage 1 on either path: where only
    the colours are checked (a 9x7 frame of at most 8 colours) and where the pixels
    are scored (9x7 noise)."""
    rng = np.random.default_rng(8)
    few = (rng.integers(0, 2, size=(9, 7, 3)) * 255).astype(np.uint8)
    noise = rng.integers(0, 256, size=(9, 7, 3), dtype=np.uint8)

    def one_bad_score(model, hsv):
        scores = mlp_predict_batch(model, hsv)
        scores[len(scores) // 2] = bad
        return scores

    monkeypatch.setattr(segment, "mlp_predict_batch", one_bad_score)
    for pixels in (few, noise):
        with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\]"):
            segment.stage1_probabilities(Image(pixels=pixels), models["mlp"])


def test_probability_map_checks_the_values_it_was_gathered_from():
    values = np.array([0.25, 0.5, 1.0])
    index = np.array([[0, 2], [1, 1]])
    assert ProbabilityMap(values, index=index).p_skin.tolist() == [[0.25, 1.0], [0.5, 0.5]]
    for bad in (np.nan, -0.5, 1.5):
        values[1] = bad
        with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\]"):
            ProbabilityMap(values, index=index)
