"""Whole-image segmentation: stage-1 scoring plus optional refinement.

Glues the per-pixel classifiers to raster images: compute a skin
probability for every pixel (stage 1), optionally run the neighbourhood
refinement (stage 2), and emit a binary mask. The half-resolution path
downscales first and resizes the mask back to the input geometry, which
cuts the classified pixel count to a quarter.

Every classifier is a pure function of a pixel's 8-bit RGB triple, so
stage 1 converts and scores each distinct colour of the image once and
gathers the scores back to the pixels. Scoring then costs in
proportion to the distinct colours; finding them is one sort of the
pixels' 24-bit codes.
"""

import time
from dataclasses import dataclass

import numpy as np

from .classifiers import (
    BayesModel,
    ThresholdRange,
    TreeModel,
    bayes_predict_batch,
    threshold_scores,
    tree_predict_batch,
)
from .colorspace import rgb_to_hsv_array
from .neighbourhood import NeighbourhoodConfig, ProbabilityMap, SkinMask, refine
from .nn import MlpModel, mlp_predict_batch
from .raster import Image, MaskImage, downscale_half, upscale_mask_2x


@dataclass(frozen=True)
class SegmentResult:
    mask: MaskImage
    probabilities: ProbabilityMap  # final map at the working resolution
    elapsed_seconds: float
    used_downscale: bool


def score_rgb(model, rgb: np.ndarray) -> np.ndarray:
    """P(skin) of each (N, 3) uint8 RGB row under any stage-1 model, as (N,).

    The only model-type dispatch for scoring: the threshold box reads RGB,
    the other kinds score the HSV conversion. Predictors are looked up by
    their module-level names at call time, so a patched name is the one
    that runs. Raises ValueError for an object of any other type.
    """
    if isinstance(model, ThresholdRange):
        return threshold_scores(rgb, model)
    if isinstance(model, BayesModel):
        predict = bayes_predict_batch
    elif isinstance(model, TreeModel):
        predict = tree_predict_batch
    elif isinstance(model, MlpModel):
        predict = mlp_predict_batch
    else:
        raise ValueError(f"unknown model type: {type(model).__name__}")
    return predict(model, rgb_to_hsv_array(rgb))


def stage1_probabilities(image: Image, model) -> ProbabilityMap:
    """Per-pixel P(colour = skin) for the whole image, as a 2-d map.

    Each distinct colour is scored once; the scores are the ones the
    model gives that colour, gathered back to every pixel holding it.
    """
    rgb = image.pixels.reshape(-1, 3).astype(np.uint32)
    codes, inverse = np.unique((rgb[:, 0] << 16) | (rgb[:, 1] << 8) | rgb[:, 2],
                               return_inverse=True)
    colours = np.stack([codes >> 16, (codes >> 8) & 0xFF, codes & 0xFF], axis=1).astype(np.uint8)
    p_colour = score_rgb(model, colours)
    return ProbabilityMap.from_p_skin(p_colour[inverse].reshape(image.height, image.width))


def _decide(pmap: ProbabilityMap) -> SkinMask:
    return SkinMask(pmap.p_skin >= pmap.p_non_skin)


def segment_image(
    image: Image,
    model,
    refine_cfg: NeighbourhoodConfig | None = None,
    downscale: bool = False,
) -> SegmentResult:
    """Run the full pipeline and time it.

    With refine_cfg=None only stage 1 runs and the mask is the pointwise
    p_skin >= p_non_skin decision. With downscale=True the image is
    halved first and the mask is scaled back to the input size.
    """
    start = time.perf_counter()
    work = downscale_half(image) if downscale else image
    pmap = stage1_probabilities(work, model)
    if refine_cfg is None:
        mask = _decide(pmap)
    else:
        pmap, mask = refine(pmap, refine_cfg)
    mask_img = MaskImage.from_bool(mask.pixels)
    if downscale:
        mask_img = _restore_geometry(mask_img, image.width, image.height)
    elapsed = time.perf_counter() - start
    return SegmentResult(
        mask=mask_img, probabilities=pmap, elapsed_seconds=elapsed,
        used_downscale=downscale,
    )


def _restore_geometry(mask: MaskImage, target_w: int, target_h: int) -> MaskImage:
    """Upscale a half-resolution mask back to the source dimensions.

    upscale_mask_2x reaches at most (2w, 2h); a source with an odd width
    or height lost its trailing column/row in the downscale, so the last
    mask column/row is replicated to restore the exact geometry.
    """
    up_w = min(target_w, 2 * mask.width)
    up_h = min(target_h, 2 * mask.height)
    up = upscale_mask_2x(mask, up_w, up_h)
    pixels = up.pixels
    if up_w < target_w:
        pixels = np.concatenate([pixels, pixels[:, -1:]], axis=1)
    if up_h < target_h:
        pixels = np.concatenate([pixels, pixels[-1:, :]], axis=0)
    return MaskImage(pixels)


def probability_rendering(pmap: ProbabilityMap) -> np.ndarray:
    """p_skin scaled onto 0..255 (round-to-nearest) for PGM export."""
    return np.clip(np.rint(pmap.p_skin * 255.0), 0, 255).astype(np.uint8)
