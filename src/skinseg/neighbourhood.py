"""Neighbourhood likeliness refinement of per-pixel probability maps.

Stage 2 of the segmentation: every pixel's class probabilities are
multiplied by a likeliness derived from the surrounding window and
renormalized, then thresholded into a binary mask. Two likeliness rules
are provided:

* ``symmetric`` (default): both classes are weighted by their
  neighbourhood mean probability, which removes isolated skin noise and
  fills holes inside dense skin regions.
* ``paper``: a pixel whose own skin probability passes the decision
  threshold keeps the maximal skin likeliness and zero non-skin
  likeliness, so already-skin pixels are never demoted and skin regions
  can only grow.

The refinement is a single synchronous pass: all likeliness values are
read from the original map, never from partially refined output.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .classifiers import ClassProbabilities

_PAIR_SUM_TOL = 1e-9


class Rule(enum.Enum):
    SYMMETRIC = "symmetric"
    PAPER = "paper"


@dataclass(frozen=True)
class NeighbourhoodConfig:
    """Window radius, likeliness rule and the PAPER rule's cut-off.

    radius 1 means the 3x3 window minus the centre (8 interior
    neighbours). decision_threshold is the stage-1 skin cut-off tested
    by the PAPER rule's lock branch.
    """

    radius: int = 1
    rule: Rule = Rule.SYMMETRIC
    decision_threshold: float = 0.5

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError(f"radius must be >= 1, got {self.radius}")
        if not 0.0 < self.decision_threshold < 1.0:
            raise ValueError(
                f"decision_threshold must lie in (0, 1), got {self.decision_threshold}"
            )


class ProbabilityMap:
    """Per-pixel (p_skin, p_non_skin) raster; every pair sums to 1."""

    def __init__(self, p_skin: np.ndarray, p_non_skin: np.ndarray):
        p_skin = np.asarray(p_skin, dtype=np.float64)
        p_non_skin = np.asarray(p_non_skin, dtype=np.float64)
        if p_skin.ndim != 2 or p_skin.shape != p_non_skin.shape:
            raise ValueError(
                f"probability planes must be matching 2-d arrays, "
                f"got {p_skin.shape} and {p_non_skin.shape}"
            )
        if p_skin.size == 0:
            raise ValueError("probability map must be non-empty")
        if np.any(p_skin < 0) or np.any(p_non_skin < 0):
            raise ValueError("probabilities must be non-negative")
        dev = np.abs(p_skin + p_non_skin - 1.0).max()
        if not dev <= _PAIR_SUM_TOL:  # also catches NaN
            raise ValueError(f"pixel pairs must sum to 1 (max deviation {dev:g})")
        self.p_skin = p_skin
        self.p_non_skin = p_non_skin

    @classmethod
    def from_p_skin(cls, p_skin: np.ndarray) -> "ProbabilityMap":
        p_skin = np.asarray(p_skin, dtype=np.float64)
        return cls(p_skin, 1.0 - p_skin)

    @property
    def height(self) -> int:
        return self.p_skin.shape[0]

    @property
    def width(self) -> int:
        return self.p_skin.shape[1]

    def pixel(self, x: int, y: int) -> ClassProbabilities:
        return ClassProbabilities(float(self.p_skin[y, x]), float(self.p_non_skin[y, x]))


@dataclass(frozen=True)
class SkinMask:
    """Binary skin/non-skin raster; pixels is a (height, width) bool array."""

    pixels: np.ndarray

    def __post_init__(self):
        if self.pixels.ndim != 2 or self.pixels.dtype != bool:
            raise ValueError("mask pixels must be a 2-d bool array")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def neighbour_sums(pmap: ProbabilityMap, x: int, y: int, radius: int = 1):
    """Sums of p_skin and p_non_skin over the window around (x, y).

    The window is the (2*radius+1)^2 square minus the centre, clipped to
    the map; returns (skin_sum, non_skin_sum, count) where count is the
    number of in-bounds neighbours actually summed.
    """
    if not (0 <= x < pmap.width and 0 <= y < pmap.height):
        raise ValueError(f"centre ({x}, {y}) outside {pmap.width}x{pmap.height} map")
    skin_sum = 0.0
    non_sum = 0.0
    count = 0
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            nx, ny = x + dx, y + dy
            if 0 <= nx < pmap.width and 0 <= ny < pmap.height:
                skin_sum += pmap.p_skin[ny, nx]
                non_sum += pmap.p_non_skin[ny, nx]
                count += 1
    return skin_sum, non_sum, count


def likeliness(
    skin_sum: float,
    non_skin_sum: float,
    count: int,
    own: ClassProbabilities,
    cfg: NeighbourhoodConfig = NeighbourhoodConfig(),
) -> tuple[float, float]:
    """Likeliness pair (skin, non-skin) for one pixel.

    With no neighbours at all (1x1 map) the pixel's own probabilities are
    returned. Under the PAPER rule a pixel at or above the decision
    threshold gets the maximal skin likeliness (zero if its neighbourhood
    carries no skin probability mass at all); below the threshold, and
    always under the symmetric rule, the pair is the neighbourhood mean
    of each class.
    """
    if skin_sum < 0 or non_skin_sum < 0 or count < 0:
        raise ValueError("neighbour sums and count must be non-negative")
    if count == 0:
        return own.p_skin, own.p_non_skin
    if cfg.rule is Rule.PAPER and own.p_skin >= cfg.decision_threshold:
        if skin_sum == 0.0:
            return 0.0, 0.0
        return 1.0, 0.0
    return skin_sum / count, non_skin_sum / count


def _window_sums(plane: np.ndarray, radius: int) -> np.ndarray:
    """Sum of each pixel's window (centre excluded, borders clipped)."""
    h, w = plane.shape
    padded = np.zeros((h + 2 * radius, w + 2 * radius))
    padded[radius : radius + h, radius : radius + w] = plane
    total = np.zeros((h, w))
    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            if dx == 0 and dy == 0:
                continue
            total += padded[radius + dy : radius + dy + h, radius + dx : radius + dx + w]
    return total


def _window_counts(height: int, width: int, radius: int) -> np.ndarray:
    """Number of in-bounds neighbours of each pixel (centre excluded).

    The clipped window is a rectangle, so the count is the product of its
    row and column extents minus the centre; small integers, exact in
    float64 and equal to what _window_sums gives for a plane of ones.
    """
    def extents(n):
        i = np.arange(n)
        return (np.minimum(i + radius, n - 1) - np.maximum(i - radius, 0) + 1).astype(np.float64)

    return np.outer(extents(height), extents(width)) - 1.0


def refine(
    pmap: ProbabilityMap, cfg: NeighbourhoodConfig = NeighbourhoodConfig()
) -> tuple[ProbabilityMap, SkinMask]:
    """Refine a probability map and threshold it into a mask.

    For every pixel the refined pair is proportional to
    (own_skin * skin_likeliness, own_non_skin * non_skin_likeliness),
    renormalized to sum to 1 (pixels where both products vanish keep
    their original pair). The mask marks skin wherever the skin product
    is at least the non-skin product. All likeliness values come from the
    original map in one synchronous pass.
    """
    skin_sum = _window_sums(pmap.p_skin, cfg.radius)
    non_sum = _window_sums(pmap.p_non_skin, cfg.radius)
    count = _window_counts(pmap.height, pmap.width, cfg.radius)

    interior = count > 0
    safe_count = np.where(interior, count, 1.0)
    like_skin = skin_sum / safe_count
    like_non = non_sum / safe_count
    if cfg.rule is Rule.PAPER:
        locked = pmap.p_skin >= cfg.decision_threshold
        like_skin = np.where(locked, np.where(skin_sum == 0.0, 0.0, 1.0), like_skin)
        like_non = np.where(locked, 0.0, like_non)
    # degenerate 1x1 map: no neighbours anywhere, fall back to own pair
    like_skin = np.where(interior, like_skin, pmap.p_skin)
    like_non = np.where(interior, like_non, pmap.p_non_skin)

    skin_product = pmap.p_skin * like_skin
    non_product = pmap.p_non_skin * like_non
    total = skin_product + non_product
    degenerate = total == 0.0
    safe_total = np.where(degenerate, 1.0, total)
    refined_skin = np.where(degenerate, pmap.p_skin, skin_product / safe_total)
    refined_non = np.where(degenerate, pmap.p_non_skin, non_product / safe_total)

    mask = SkinMask(pixels=skin_product >= non_product)
    return ProbabilityMap(refined_skin, refined_non), mask


def refine_brute_oracle(
    pmap: ProbabilityMap, cfg: NeighbourhoodConfig = NeighbourhoodConfig()
) -> SkinMask:
    """Reference mask built with naive per-pixel nested loops.

    Same contract as refine, but written as straight-line scalar code
    with no shared state or helpers; the test-suite compares refine
    against it. Far too slow for real images.
    """
    height, width = pmap.p_skin.shape
    mask = np.zeros((height, width), dtype=bool)
    for y in range(height):
        for x in range(width):
            skin_sum = 0.0
            non_sum = 0.0
            count = 0
            for dy in range(-cfg.radius, cfg.radius + 1):
                for dx in range(-cfg.radius, cfg.radius + 1):
                    if dx == 0 and dy == 0:
                        continue
                    ny, nx = y + dy, x + dx
                    if 0 <= nx < width and 0 <= ny < height:
                        skin_sum += pmap.p_skin[ny, nx]
                        non_sum += pmap.p_non_skin[ny, nx]
                        count += 1
            own_skin = pmap.p_skin[y, x]
            own_non = pmap.p_non_skin[y, x]
            if count == 0:
                like_skin, like_non = own_skin, own_non
            elif cfg.rule is Rule.PAPER and own_skin >= cfg.decision_threshold:
                if skin_sum == 0.0:
                    like_skin, like_non = 0.0, 0.0
                else:
                    like_skin, like_non = 1.0, 0.0
            else:
                like_skin, like_non = skin_sum / count, non_sum / count
            mask[y, x] = own_skin * like_skin >= own_non * like_non
    return SkinMask(pixels=mask)
