"""Whole-image segmentation: stage-1 scoring plus optional refinement.

Glues the per-pixel classifiers to raster images: compute a skin
probability for every pixel (stage 1), optionally run the neighbourhood
refinement (stage 2), and emit a bool ``SkinMask`` (only the PGM writer
turns it into 255/0 bytes). The half-resolution path downscales first
and resizes the mask back to the input geometry, which cuts the
classified pixel count to a quarter.

Every classifier is a pure function of a pixel's 8-bit RGB triple, so
stage 1 converts and scores each distinct colour of the image once and
gathers the scores back to the pixels. Scoring then costs in
proportion to the distinct colours; finding them is one sort of the
pixels' 24-bit codes, each packed with its pixel index into one 64-bit
key (see _distinct_colours). The sort's run flags count the distinct
colours, and when they are more than _PIXEL_PATH_SHARE of the pixels,
as on noise-like frames, stage 1 scores the pixels as they are instead:
per-colour scoring would score nearly as many rows and still pay for
the gather back. Both paths give the same bits, since a colour scores
the same in any batch.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import model_io
from .classifiers import bayes_predict_batch, threshold_scores, tree_predict_batch
from .colorspace import rgb_to_hsv_array
from .neighbourhood import NeighbourhoodConfig, ProbabilityMap, refine
from .nn import mlp_predict_batch
from .raster import Image, SkinMask, downscale_half, upscale_mask_2x


@dataclass(frozen=True)
class SegmentResult:
    """A segmentation: the bool mask at the input image's size, the final
    probability map (one p_skin plane) at the working (possibly halved)
    resolution, and the wall-clock time the pipeline took."""

    mask: SkinMask
    probabilities: ProbabilityMap
    elapsed_seconds: float


def score_rgb(model, rgb: np.ndarray) -> np.ndarray:
    """P(skin) of each (N, 3) uint8 RGB row under any stage-1 model, as (N,).

    The model's kind comes from model_io.model_kind, which raises
    ValueError for an object of any other type. The threshold box reads
    RGB, the other kinds score the HSV conversion. The predictor table is
    built on each call from the module-level names, so a patched name is
    the one that runs.
    """
    kind = model_io.model_kind(model)
    if kind == "threshold":
        return threshold_scores(rgb, model)
    predict = {"bayes": bayes_predict_batch, "tree": tree_predict_batch, "mlp": mlp_predict_batch}[kind]
    return predict(model, rgb_to_hsv_array(rgb))


# Above this share of distinct colours among its pixels, a frame is scored
# pixel by pixel: per-colour scoring would score nearly as many rows and
# still pay for the slots, the inverse scatter and the gather back. On
# 450x600 frames the two paths broke even at 0.84-0.89 of the pixels for
# the MLP, 0.7-0.75 for threshold and bayes and 0.92-0.95 for the tree
# (BENCH_33.json); 13/16 sits a little below the MLP's, and as a dyadic
# fraction its product with the pixel count is exact.
_PIXEL_PATH_SHARE = 13 / 16


def _colour_runs(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sort/flags phase of _distinct_colours for (..., 3) uint8 pixels (at least one).

    Returns (codes, pixel, first), each of the pixel count's length: the
    pixels' 24-bit RGB codes as uint64 in ascending order, the int64
    index of the pixel each sorted code came from, and a bool flag on
    the first code of each run of equal codes, so the flags count the
    distinct colours.
    """
    # 24-bit codes built in place from the uint8 channels: no (N, 3) uint32
    # copy of the frame; each full-frame temporary below is dropped once
    # used, so at most two uint64 arrays of the frame's length are held
    px = pixels.reshape(-1, 3)
    n = px.shape[0]
    codes = px[:, 0].astype(np.uint32)
    for channel in (1, 2):
        codes <<= 8
        codes |= px[:, channel]
    # each code carries its pixel index in the low s bits, so every key is
    # unique and one plain value sort orders the pixels by colour: with no
    # equal keys, any sort kernel numpy dispatches gives the same order, and
    # no stable argsort (np.unique's main cost) is needed
    s = max(1, (n - 1).bit_length())  # 24 + s <= 64 below 2**40 pixels
    keys = codes.astype(np.uint64)
    del codes
    keys <<= s
    pixel = np.arange(n, dtype=np.uint64)
    keys |= pixel
    keys.sort()
    # the index buffer takes back each sorted key's pixel index
    np.bitwise_and(keys, np.uint64((1 << s) - 1), out=pixel)
    keys >>= s  # now the sorted codes
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return keys, pixel.view(np.int64), first


def _slots(codes: np.ndarray, pixel: np.ndarray, first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots phase of _distinct_colours: its (colours, inverse) from _colour_runs' arrays.

    Overwrites codes: once the distinct codes are taken out, its buffer
    holds the int32 slots in its first half and the inverse in its
    second, so the phase allocates only the distinct colours.
    """
    n = codes.size
    colours = codes[first].astype(np.uint32)
    # slots are below 2**24, so int32 holds them; summed in place, as
    # np.cumsum(first, dtype=np.int32) would also make an int32 copy of first
    halves = codes.view(np.int32)
    slot, inverse = halves[:n], halves[n:]
    np.copyto(slot, first)
    np.cumsum(slot, out=slot)
    slot -= 1
    inverse[pixel] = slot
    return colours, inverse


def _distinct_colours(pixels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct colours of (..., 3) uint8 pixels (at least one), and each pixel's among them.

    Returns (colours, inverse): the distinct 24-bit RGB codes as uint32 in
    ascending order, and per pixel (in pixel order) the int32 index of its
    code, so colours[inverse] is every pixel's code. That is what
    np.unique(codes, return_inverse=True) gives, in less time and memory.
    """
    return _slots(*_colour_runs(pixels))


def stage1_probabilities(image: Image, model) -> ProbabilityMap:
    """Per-pixel P(colour = skin) for the whole image, as a 2-d map.

    A frame whose distinct colours are more than _PIXEL_PATH_SHARE of
    its pixels is scored in one batch of its pixels, in pixel order.
    Otherwise each distinct colour is scored once, in one batch in
    ascending code order, and the scores are gathered back to every
    pixel holding that colour; the [0, 1] check then reads those scores,
    which are every value the map holds. Either way a pixel gets the
    score the model gives its colour, since a colour scores the same in
    any batch.
    """
    codes, pixel, first = _colour_runs(image.pixels)
    if np.count_nonzero(first) > _PIXEL_PATH_SHARE * first.size:
        del codes, pixel, first  # freed before scoring
        p_skin = score_rgb(model, image.pixels.reshape(-1, 3))
        return ProbabilityMap(p_skin.reshape(image.height, image.width))
    codes, inverse = _slots(codes, pixel, first)
    del pixel, first  # freed before scoring; inverse lives in the sorted codes' buffer
    colours = np.stack([codes >> 16, (codes >> 8) & 0xFF, codes & 0xFF], axis=1).astype(np.uint8)
    p_colour = score_rgb(model, colours)
    return ProbabilityMap(p_colour, index=inverse.reshape(image.height, image.width))


def _decide(pmap: ProbabilityMap) -> SkinMask:
    # p >= 1 - p exactly when p >= 0.5: 1 - p is exact for p >= 0.5 (Sterbenz),
    # and rounds to at least 0.5 > p below it
    return SkinMask(pmap.p_skin >= 0.5)


def segment_image(
    image: Image,
    model,
    refine_cfg: NeighbourhoodConfig | None = None,
    downscale: bool = False,
) -> SegmentResult:
    """Run the full pipeline and time it.

    With refine_cfg=None only stage 1 runs and the mask is the pointwise
    p_skin >= p_non_skin (= 1 - p_skin) decision. With downscale=True the
    image is halved first and the mask is scaled back to the input size.
    """
    start = time.perf_counter()
    work = downscale_half(image) if downscale else image
    pmap = stage1_probabilities(work, model)
    if refine_cfg is None:
        mask = _decide(pmap)
    else:
        pmap, mask = refine(pmap, refine_cfg)
    if downscale:
        mask = upscale_mask_2x(mask, image.width, image.height)
    elapsed = time.perf_counter() - start
    return SegmentResult(mask=mask, probabilities=pmap, elapsed_seconds=elapsed)


def probability_rendering(pmap: ProbabilityMap) -> np.ndarray:
    """p_skin scaled onto 0..255 (round-to-nearest) for PGM export."""
    return np.clip(np.rint(pmap.p_skin * 255.0), 0, 255).astype(np.uint8)
