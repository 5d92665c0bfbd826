"""Neighbourhood likeliness refinement of per-pixel probability maps.

Stage 2 of the segmentation: a map is one plane of skin probabilities
p, the non-skin ones being 1 - p. Both class probabilities of every
pixel are multiplied by a likeliness derived from the surrounding window
and renormalized, then thresholded into a mask. Two rules are provided:

* ``symmetric`` (default): both classes are weighted by their
  neighbourhood mean probability, which removes isolated skin noise and
  fills holes inside dense skin regions.
* ``paper``: a pixel whose own skin probability passes the decision
  threshold keeps the maximal skin likeliness and zero non-skin
  likeliness, so already-skin pixels are never demoted and skin regions
  can only grow.

The refinement is a single synchronous pass: all likeliness values are
read from the original map, never from partially refined output. It
walks the map in bands of rows. Window sums are separable, and each
pass sums its 2r + 1 terms by binary decomposition, in
floor(log2(2r+1)) + popcount(2r+1) - 1 additions per pixel: at most
2 log2(2r+1), and never more than 2r. The mask equals refine_brute_oracle
bit for bit, and the refined probabilities may differ from the
oracle's order of addition by ulps.
"""

import enum
from dataclasses import dataclass

import numpy as np

from .classifiers import ClassProbabilities
from .raster import SkinMask

_BAND_PIXELS = 65536  # output pixels per band of refine: about 3 MB of scratch at 1080p, r=7


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
    """Per-pixel P(skin) raster; P(non-skin) is derived as 1 - p_skin."""

    def __init__(self, p_skin: np.ndarray):
        p_skin = np.asarray(p_skin, dtype=np.float64)
        if p_skin.ndim != 2 or p_skin.size == 0:
            raise ValueError(f"probability plane must be non-empty and 2-d, got {p_skin.shape}")
        if not 0.0 <= p_skin.min() <= p_skin.max() <= 1.0:  # also catches NaN
            raise ValueError(
                f"probabilities must lie in [0, 1], got {p_skin.min():g}..{p_skin.max():g}"
            )
        self.p_skin = p_skin

    @classmethod
    def from_p_skin(cls, p_skin: np.ndarray) -> "ProbabilityMap":
        return cls(p_skin)

    @property
    def p_non_skin(self) -> np.ndarray:
        """1 - p_skin, computed afresh on every read: a new full-size array."""
        return 1.0 - self.p_skin

    @property
    def height(self) -> int:
        return self.p_skin.shape[0]

    @property
    def width(self) -> int:
        return self.p_skin.shape[1]


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


def _run_sums(padded: np.ndarray, radius: int, out: np.ndarray, ping, pong) -> int:
    """Sums of 2*radius + 1 consecutive rows: out[i] = padded[i : i + 2*radius + 1].sum(0).

    padded has out.shape[0] + 2*radius rows; ping and pong have at least
    as many. Binary decomposition: the block array of 2s rows is the one
    of s rows plus itself shifted by s, written alternately to ping and
    pong, and out adds the blocks that match the set bits of 2r + 1
    (padded itself is the 1-row block), smallest first. Returns the
    number of array additions, floor(log2(2r+1)) + popcount(2r+1) - 1,
    which bounds the additions any one term passes through.
    """
    n, length = out.shape[0], 2 * radius + 1
    if radius == 0:
        np.copyto(out, padded[:n])
        return 0
    block, size, valid = padded, 1, padded.shape[0]  # block[i] sums padded[i : i + size]
    total, offset, adds = padded[:n], 1, 0
    while 2 * size <= length:
        nxt = pong if block is ping else ping
        valid -= size
        np.add(block[:valid], block[size : size + valid], out=nxt[:valid])
        block, size, adds = nxt, 2 * size, adds + 1
        if length & size:
            np.add(total, block[offset : offset + n], out=out)
            total, offset, adds = out, offset + size, adds + 1
    return adds


def _window_scratch(rows: int, height: int, width: int, radius: int) -> tuple:
    """The four flat buffers _window_sums needs for bands of up to `rows` rows."""
    ry, rx = min(radius, height - 1), min(radius, width - 1)
    return tuple(np.empty((rows + 2 * ry) * (width + 2 * rx)) for _ in range(4))


def _window_sums(plane: np.ndarray, y0: int, y1: int, radius: int, out: np.ndarray, scratch):
    """Clipped (2r+1)^2 window sums, centre included, of plane's rows y0:y1.

    A column pass sums 2ry + 1 rows, then a row pass 2rx + 1 columns of
    those sums (ry, rx: the radius clipped to the plane), each by
    _run_sums over a zero-padded buffer. Every pixel's sum is added in
    the same order whatever band y0:y1 holds it, and adding a zero is
    exact, so a window whose only non-zero term is the centre sums to
    that term exactly (refine's PAPER-lock test relies on it). scratch
    comes from _window_scratch for at least y1 - y0 rows.
    """
    h, w = plane.shape
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    n, top, bottom = y1 - y0, y0 - ry, y1 + ry
    col_in, ping, pong, row_in = scratch

    def view(buf, rows, cols):
        return buf[: rows * cols].reshape(rows, cols)

    if top >= 0 and bottom <= h:
        src = plane[top:bottom]
    else:  # rows past the plane's edges read as zeros
        src = view(col_in, n + 2 * ry, w)
        lo, hi = max(top, 0), min(bottom, h)
        src[: lo - top] = 0.0
        src[lo - top : hi - top] = plane[lo:hi]
        src[hi - top :] = 0.0
    padded = view(row_in, n, w + 2 * rx)
    padded[:, :rx] = 0.0
    padded[:, rx + w :] = 0.0
    rows = n + 2 * ry
    _run_sums(src, ry, padded[:, rx : rx + w], view(ping, rows, w), view(pong, rows, w))
    _run_sums(padded.T, rx, out.T, view(ping, n, w + 2 * rx).T, view(pong, n, w + 2 * rx).T)


def _extents(n: int, radius: int) -> np.ndarray:
    """Length of each index's clipped window along one axis."""
    radius = min(radius, n - 1)
    i = np.arange(n)
    return (np.minimum(i + radius, n - 1) - np.maximum(i - radius, 0) + 1).astype(np.float64)


def _oracle_order_sums(pmap: ProbabilityMap, ys: np.ndarray, xs: np.ndarray, radius: int):
    """Neighbour sums of the pixels (ys, xs), added in refine_brute_oracle's order.

    Works on the rows that hold those pixels, over the columns they
    span: one shifted add per class for each (dy, dx) of the oracle's
    loop, so re-summing every pixel costs about what (2r+1)^2 - 1
    full-frame shifted adds do. The non-skin terms are 1 - p_skin of the
    rows read, and neighbours outside the map come from a zero border
    (not 1 - 0); adding 0.0 leaves a non-negative sum unchanged, so each
    sum is the oracle's bit for bit.

    ys must be non-decreasing and non-empty, as np.nonzero gives them, so
    each row's pixels form one run.
    """
    h, w = pmap.p_skin.shape
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    new_row = np.empty(ys.size, dtype=bool)
    new_row[0] = True
    np.not_equal(ys[1:], ys[:-1], out=new_row[1:])
    rows = ys[new_row]
    row_of = np.cumsum(new_row) - 1
    x0, x1 = int(xs.min()), int(xs.max()) + 1
    c0, c1 = max(x0 - rx, 0), min(x1 + rx, w)  # the columns the windows reach
    skin_acc, non_acc = np.zeros((rows.size, x1 - x0)), np.zeros((rows.size, x1 - x0))
    for dy in range(-ry, ry + 1):
        src = rows + dy
        inside = (src >= 0) & (src < h)
        skin = np.zeros((rows.size, x1 - x0 + 2 * rx))  # column j is x0 - rx + j
        non = np.zeros_like(skin)
        read = pmap.p_skin[src[inside], c0:c1]
        skin[inside, c0 - x0 + rx : c1 - x0 + rx] = read
        non[inside, c0 - x0 + rx : c1 - x0 + rx] = 1.0 - read
        for dx in range(-rx, rx + 1):
            if dx or dy:
                skin_acc += skin[:, rx + dx : rx + dx + x1 - x0]
                non_acc += non[:, rx + dx : rx + dx + x1 - x0]
    return skin_acc[row_of, xs - x0], non_acc[row_of, xs - x0]


def _products(own_skin, own_non, skin_sum, non_sum, count, cfg: NeighbourhoodConfig):
    """Elementwise (own_skin * skin likeliness, own_non * non-skin likeliness).

    The same branches as likeliness for count > 0 (refine handles the 1x1
    map first); overwrites skin_sum and non_sum with the products and returns them.
    """
    if cfg.rule is Rule.PAPER:
        locked = own_skin >= cfg.decision_threshold
        has_skin = skin_sum != 0.0
    skin_sum /= count
    non_sum /= count
    if cfg.rule is Rule.PAPER:
        np.copyto(skin_sum, has_skin, where=locked)
        np.copyto(non_sum, 0.0, where=locked)
    skin_sum *= own_skin
    non_sum *= own_non
    return skin_sum, non_sum


def _tie_slack(height: int, width: int, radius: int) -> float:
    """How far apart two window-sum products may be and still hang on rounding.

    Both the oracle's sum and _window_sums add non-negative terms, so each
    lies within gamma_m * (exact sum) of the exact value, m the most
    additions any one term passes through, gamma_m = m*u / (1 - m*u) and
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 4.2). With ry, rx the radius clipped to the map:

    * the oracle adds up to (2ry+1)(2rx+1) - 1 terms to 0.0;
    * _run_sums takes a term through at most 2r additions for a run of
      2r+1, so the column pass takes at most 2ry, the row pass 2rx, and
      with the centre subtracted once the window-sum neighbour sum lies
      within gamma_(2ry+2rx+1) * box of the exact sum, box the exact
      window sum including the centre.

    The two sums therefore differ by at most gamma_k * box, with
    k = (2ry+1)(2rx+1) + 2ry + 2rx (gamma_a + gamma_b <= gamma_(a+b)).
    A product own * (sum / count) takes two more roundings on each side,
    and own * box / count = product + own^2 / count, so the skin and
    non-skin products each move by at most
    (gamma_k + gamma_2 + gamma_2) * (product + own^2 / count) to first
    order. Summed over both classes, with own_skin^2 + own_non^2 <= 1 up
    to the rounding of own_non = 1 - own_skin, a pixel's products can stray
    by at most f * (skin_product + non_product + 1 / count), f twice that
    first-order factor (the doubling covers the second-order terms, that
    rounding and the test's own roundings). The products sum to at most 1
    up to a few u (a convex combination of the likeliness pair, or own_skin
    for a PAPER lock), and count >= corner = (ry+1)(rx+1) - 1, the fewest
    neighbours of any pixel on a map larger than 1x1; so the one
    frame-wide f * (2 + 1 / corner) returned covers every pixel's bound.
    """
    u = 2.0 ** -53
    ry, rx = min(radius, height - 1), min(radius, width - 1)
    k = (2 * ry + 1) * (2 * rx + 1) + 2 * ry + 2 * rx
    corner = (ry + 1) * (rx + 1) - 1

    def gamma(m):
        return m * u / (1.0 - m * u)

    return 2.0 * (gamma(k) + 2.0 * gamma(2)) * (2.0 + 1.0 / corner)


def refine(
    pmap: ProbabilityMap, cfg: NeighbourhoodConfig = NeighbourhoodConfig()
) -> tuple[ProbabilityMap, SkinMask]:
    """Refine a probability map and threshold it into a mask.

    For every pixel the refined p_skin is own_skin * skin_likeliness over
    that plus own_non_skin * non_skin_likeliness, own_non_skin = 1 - own_skin
    (pixels where both products vanish keep their own p_skin). The mask
    marks skin wherever the skin product is at least the non-skin product.
    All likeliness values come from the original map in one synchronous pass;
    a 1x1 map has no neighbours, so its likeliness is the pixel's own pair.

    The map is refined in bands of rows (the band height comes from a
    fixed pixel budget, so the scratch buffers stay near cache size), and
    only the output plane and the mask are allocated at full size, as the
    1 - p_skin terms are taken once per band, for its rows and their halo.
    Window sums are separable, and each pass sums its 2r+1 terms by binary
    decomposition: at most 2 log2(2r+1) additions per pixel and pass, never
    more than 2r, and a radius past the map's size clips to it. Every pixel's
    arithmetic is the same whatever the band height. The order of
    addition differs from refine_brute_oracle's, so every pixel whose
    products lie closer than _tie_slack's one frame-wide bound is re-summed
    in the oracle's order. A PAPER-locked pixel whose neighbours sum to
    zero is such a tie (both products are 0); a locked pixel with a
    non-zero sum gets the same pair in either order. The mask therefore
    equals the oracle's bit for bit; the refined probabilities of the other
    pixels may differ from oracle-order arithmetic in the last bits. The
    re-sum costs (2r+1)^2 - 1 adds per pixel over the rows holding such
    pixels, so a map where most pixels tie (a uniform 0.5 region) refines
    several times slower than one with few ties.
    """
    height, width = pmap.height, pmap.width
    if height == width == 1:  # the products' total is at least 1/2
        skin, non = pmap.p_skin * pmap.p_skin, pmap.p_non_skin * pmap.p_non_skin
        return ProbabilityMap(skin / (skin + non)), SkinMask(pixels=skin >= non)
    band = max(1, _BAND_PIXELS // width)
    scratch = _window_scratch(min(band, height), height, width, cfg.radius)
    ext_y, ext_x = _extents(height, cfg.radius), _extents(width, cfg.radius)
    tie_slack = _tie_slack(height, width, cfg.radius)
    ry = min(cfg.radius, height - 1)
    skin_product = np.empty((height, width))
    non_band = np.empty((min(band, height), width))
    non_rows = np.empty((min(band + 2 * ry, height), width))  # a band's 1 - p_skin, halo included
    mask = np.empty((height, width), dtype=bool)
    for y0 in range(0, height, band):
        y1 = min(y0 + band, height)
        lo, hi = max(y0 - ry, 0), min(y1 + ry, height)
        plane_non = np.subtract(1.0, pmap.p_skin[lo:hi], out=non_rows[: hi - lo])
        own_skin, own_non = pmap.p_skin[y0:y1], plane_non[y0 - lo : y1 - lo]
        skin, non = skin_product[y0:y1], non_band[: y1 - y0]
        _window_sums(pmap.p_skin, y0, y1, cfg.radius, skin, scratch)
        skin -= own_skin
        # the halo leaves a window's rows, and so ry, as they are in the full plane
        _window_sums(plane_non, y0 - lo, y1 - lo, cfg.radius, non, scratch)
        non -= own_non
        count = np.multiply.outer(ext_y[y0:y1], ext_x)
        count -= 1.0
        _products(own_skin, own_non, skin, non, count, cfg)

        # products closer than _tie_slack allows could order either way in
        # the oracle's arithmetic: re-sum them in the oracle's order
        gap = np.subtract(skin, non)
        np.abs(gap, out=gap)
        ys, xs = np.nonzero(gap <= tie_slack)
        if ys.size:
            exact_skin, exact_non = _oracle_order_sums(pmap, ys + y0, xs, cfg.radius)
            skin[ys, xs], non[ys, xs] = _products(
                own_skin[ys, xs], own_non[ys, xs], exact_skin, exact_non,
                ext_y[ys + y0] * ext_x[xs] - 1.0, cfg,
            )

        np.greater_equal(skin, non, out=mask[y0:y1])
        total = np.add(skin, non, out=gap)
        degenerate = total == 0.0
        total[degenerate] = 1.0
        skin /= total
        np.copyto(skin, own_skin, where=degenerate)
    return ProbabilityMap(skin_product), SkinMask(pixels=mask)


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
                        non_sum += 1.0 - pmap.p_skin[ny, nx]
                        count += 1
            own_skin = pmap.p_skin[y, x]
            own_non = 1.0 - own_skin
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
