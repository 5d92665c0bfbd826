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
read from the original map, never from partially refined output. Window
sums cost about 4r additions per pixel and plane (separable box sums);
the mask equals refine_brute_oracle bit for bit, and the refined
probabilities may differ from the oracle's order of addition by ulps.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .classifiers import ClassProbabilities

_PAIR_SUM_TOL = 1e-9
_PAIR_CHECK_PIXELS = 32768  # pixels per block of the pair-sum check: 256 KiB temporaries


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
        for plane in (p_skin, p_non_skin):  # reductions: no full-size temporaries
            if not 0.0 <= plane.min() <= plane.max() <= 1.0:  # also catches NaN
                raise ValueError(
                    f"probabilities must lie in [0, 1], got {plane.min():g}..{plane.max():g}"
                )
        rows = max(1, _PAIR_CHECK_PIXELS // p_skin.shape[1])
        dev = np.max([
            np.abs(p_skin[r : r + rows] + p_non_skin[r : r + rows] - 1.0).max()
            for r in range(0, p_skin.shape[0], rows)
        ])
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


def _box_sums(plane: np.ndarray, radius: int) -> np.ndarray:
    """Sum of each pixel's clipped (2r+1)^2 window, centre included.

    Separable: a row pass then a column pass, each adding its source
    shifted by 1..min(radius, n-1) both ways, so 4r adds per plane and
    no padded copy. Each accumulator starts from the centre term.
    """
    h, w = plane.shape
    rows = plane.copy()
    for d in range(1, min(radius, w - 1) + 1):
        rows[:, d:] += plane[:, :-d]
        rows[:, :-d] += plane[:, d:]
    box = rows.copy()
    for d in range(1, min(radius, h - 1) + 1):
        box[d:] += rows[:-d]
        box[:-d] += rows[d:]
    return box


def _extents(n: int, radius: int) -> np.ndarray:
    """Length of each index's clipped window along one axis."""
    i = np.arange(n)
    return (np.minimum(i + radius, n - 1) - np.maximum(i - radius, 0) + 1).astype(np.float64)


def _oracle_order_sums(pmap: ProbabilityMap, ys: np.ndarray, xs: np.ndarray, radius: int):
    """Neighbour sums of the pixels (ys, xs), added in refine_brute_oracle's order.

    Works on the rows that hold those pixels, over the columns they
    span: one shifted add per plane for each (dy, dx) of the oracle's
    loop, so re-summing every pixel costs about what (2r+1)^2 - 1
    full-frame shifted adds do. Neighbours outside the map come from a
    zero border, and adding 0.0 leaves a non-negative sum unchanged, so
    each sum is the oracle's bit for bit.
    """
    h, w = pmap.p_skin.shape
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    rows, row_of = np.unique(ys, return_inverse=True)
    x0, x1 = int(xs.min()), int(xs.max()) + 1
    c0, c1 = max(x0 - rx, 0), min(x1 + rx, w)  # the columns the windows reach
    sums = []
    for plane in (pmap.p_skin, pmap.p_non_skin):
        acc = np.zeros((rows.size, x1 - x0))
        for dy in range(-ry, ry + 1):
            src = rows + dy
            inside = (src >= 0) & (src < h)
            band = np.zeros((rows.size, x1 - x0 + 2 * rx))  # column j is x0 - rx + j
            band[inside, c0 - x0 + rx : c1 - x0 + rx] = plane[src[inside], c0:c1]
            for dx in range(-rx, rx + 1):
                if dx or dy:
                    acc += band[:, rx + dx : rx + dx + x1 - x0]
        sums.append(acc[row_of, xs - x0])
    return sums


def _products(own_skin, own_non, skin_sum, non_sum, count, cfg: NeighbourhoodConfig):
    """Elementwise (own_skin * skin likeliness, own_non * non-skin likeliness).

    The same branches as likeliness; overwrites skin_sum and non_sum with
    the two products and returns them.
    """
    lonely = count == 0  # only on a 1x1 map
    if cfg.rule is Rule.PAPER:
        locked = own_skin >= cfg.decision_threshold
        has_skin = skin_sum != 0.0
    np.divide(skin_sum, count, out=skin_sum, where=~lonely)
    np.divide(non_sum, count, out=non_sum, where=~lonely)
    if cfg.rule is Rule.PAPER:
        np.copyto(skin_sum, has_skin, where=locked)
        np.copyto(non_sum, 0.0, where=locked)
    np.copyto(skin_sum, own_skin, where=lonely)
    np.copyto(non_sum, own_non, where=lonely)
    skin_sum *= own_skin
    non_sum *= own_non
    return skin_sum, non_sum


def _tie_slack(height: int, width: int, radius: int) -> float:
    """Factor of the bound on how far the box-sum products can stray.

    Both the oracle's sum and _box_sums add non-negative terms, so each
    lies within gamma_m * (exact sum) of the exact value, where m is its
    number of additions and gamma_m = m*u / (1 - m*u), u = 2^-53
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    section 4.2). With ry, rx the radius clipped to the map:

    * the oracle adds up to (2ry+1)(2rx+1) - 1 terms to 0.0;
    * the row pass adds 2rx terms, the column pass 2ry terms of those
      rows, and the centre is subtracted once, so the box-sum neighbour
      sum lies within gamma_(2ry+2rx+1) * box of the exact sum, where box
      is the exact window sum including the centre.

    The two sums therefore differ by at most gamma_k * box, with
    k = (2ry+1)(2rx+1) + 2ry + 2rx (gamma_a + gamma_b <= gamma_(a+b)).
    A product own * (sum / count) takes two more roundings on each side,
    and own * box / count = product + own^2 / count, so the skin and
    non-skin products each move by at most
    (gamma_k + gamma_2 + gamma_2) * (product + own^2 / count) to first
    order. Summed over both classes, with own_skin^2 + own_non^2 <= 1 to
    within the pair tolerance, the products can stray by at most
    slack * (skin_product + non_product + 1 / count), where slack is
    twice that first-order factor: the doubling covers the second-order
    terms, the pair tolerance and the roundings of the test itself.
    """
    u = 2.0 ** -53
    ry, rx = min(radius, height - 1), min(radius, width - 1)
    k = (2 * ry + 1) * (2 * rx + 1) + 2 * ry + 2 * rx

    def gamma(m):
        return m * u / (1.0 - m * u)

    return 2.0 * (gamma(k) + 2.0 * gamma(2))


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

    Window sums are separable box sums, about 4r adds per pixel and
    plane whatever the window's area, and a radius past the map's size
    clips to it. Their order of addition differs from
    refine_brute_oracle's, so every pixel whose decision could depend on
    it (a skin/non-skin product pair closer than the error bound of
    _tie_slack, or a PAPER-locked pixel whose neighbours sum to zero) is
    re-summed in the oracle's order. The mask therefore equals the
    oracle's bit for bit; the refined probabilities of the other pixels
    may differ from oracle-order arithmetic in the last bits. The re-sum
    costs (2r+1)^2 - 1 adds per pixel over the rows holding such pixels,
    so a map where most pixels tie (a uniform 0.5 region) refines several
    times slower than one with few ties.
    """
    height, width = pmap.height, pmap.width
    skin_sum = _box_sums(pmap.p_skin, cfg.radius)
    skin_sum -= pmap.p_skin
    non_sum = _box_sums(pmap.p_non_skin, cfg.radius)
    non_sum -= pmap.p_non_skin
    ext_y, ext_x = _extents(height, cfg.radius), _extents(width, cfg.radius)
    count = np.outer(ext_y, ext_x) - 1.0
    skin_product, non_product = _products(
        pmap.p_skin, pmap.p_non_skin, skin_sum, non_sum, count, cfg
    )

    # pixels whose mask or lock could hang on the order of addition: products
    # closer than _tie_slack allows, or locked with a zero skin sum (as
    # skin_product == 0 there); re-sum them in the oracle's order
    gap = np.subtract(skin_product, non_product)
    np.abs(gap, out=gap)
    slack = np.divide(1.0, count, out=count, where=count > 0)
    slack += skin_product
    slack += non_product
    slack *= _tie_slack(height, width, cfg.radius)
    resum = gap <= slack
    del slack, count
    if cfg.rule is Rule.PAPER:
        resum = np.where(pmap.p_skin >= cfg.decision_threshold, skin_product == 0.0, resum)
    ys, xs = np.nonzero(resum)
    del resum
    if ys.size:
        exact_skin, exact_non = _oracle_order_sums(pmap, ys, xs, cfg.radius)
        skin_product[ys, xs], non_product[ys, xs] = _products(
            pmap.p_skin[ys, xs], pmap.p_non_skin[ys, xs], exact_skin, exact_non,
            ext_y[ys] * ext_x[xs] - 1.0, cfg,
        )

    mask = SkinMask(pixels=skin_product >= non_product)
    total = np.add(skin_product, non_product, out=gap)
    del gap
    degenerate = total == 0.0
    total[degenerate] = 1.0
    skin_product /= total
    non_product /= total
    del total
    np.copyto(skin_product, pmap.p_skin, where=degenerate)
    np.copyto(non_product, pmap.p_non_skin, where=degenerate)
    return ProbabilityMap(skin_product, non_product), mask


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
