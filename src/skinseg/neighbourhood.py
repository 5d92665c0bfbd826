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
walks the map in bands of rows and takes window sums of p alone; each
pixel's non-skin neighbour sum is its neighbour count less its skin one.
Window sums are separable, and each pass sums its 2r + 1 terms by binary
decomposition, in floor(log2(2r+1)) + popcount(2r+1) - 1 additions per
pixel: at most 2 log2(2r+1), and never more than 2r. The mask equals
refine_brute_oracle bit for bit, and the refined probabilities may
differ from the oracle's order of addition by ulps (see _tie_slack).
"""

import enum
from dataclasses import dataclass

import numpy as np

from .classifiers import ClassProbabilities
from .raster import SkinMask

_BAND_PIXELS = 65536  # output pixels per band of refine: about 3 MB of scratch at 1080p, r=7
# a gathered term costs about 25 terms of the dense re-sum's shifted adds
# (measured at r = 1, 3 and 7; 15 to 30 at the crossover)
_GATHER_COST = 25
_GATHER_TERMS = 1 << 18  # terms _oracle_order_sums gathers at once: 2 MB per array


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

    def __init__(self, values: np.ndarray, index: np.ndarray | None = None):
        """The plane is values, or values[index] if index is given: the [0, 1]
        check reads values, which hold every value the gathered plane does."""
        values = np.asarray(values, dtype=np.float64)
        p_skin = values if index is None else values[index]
        if p_skin.ndim != 2 or p_skin.size == 0:
            raise ValueError(f"probability plane must be non-empty and 2-d, got {p_skin.shape}")
        if not 0.0 <= values.min() <= values.max() <= 1.0:  # also catches NaN
            raise ValueError(
                f"probabilities must lie in [0, 1], got {values.min():g}..{values.max():g}"
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

    Both classes' terms come from one flat copy of the box the pixels'
    windows cover, with a zero border for the neighbours outside the map:
    the non-skin terms are 1 - p_skin of the pixels read, and the border
    is 0.0, not 1 - 0. Adding 0.0 leaves a non-negative sum unchanged, so
    each sum is the oracle's bit for bit. Each (dy, dx) of the oracle's
    loop, centre skipped, is one flat offset dy * width + dx into the copy.
    A sparse set gathers each pixel's terms at its offsets and adds them
    in that order, so it costs in proportion to the pixels. A dense set
    adds, for each offset, one contiguous shifted slice of the copy to two
    accumulators that span every position from the first pixel to the
    last, then reads the pixels out of them: about what (2r+1)^2 - 1
    full-frame shifted adds cost when every pixel is re-summed. Positions
    between two rows wrap into the next row, but no pixel is read there.
    The pixels may come in any order; ys must be non-empty.
    """
    h, w = pmap.p_skin.shape
    ry, rx = min(radius, h - 1), min(radius, w - 1)
    top, left = int(ys.min()) - ry, int(xs.min()) - rx  # the copy's pixel (0, 0)
    bottom, right = int(ys.max()) + ry + 1, int(xs.max()) + rx + 1
    width = right - left
    skin = np.zeros((bottom - top, width))
    non = np.zeros_like(skin)
    r0, r1, c0, c1 = max(top, 0), min(bottom, h), max(left, 0), min(right, w)
    read = pmap.p_skin[r0:r1, c0:c1]
    skin[r0 - top : r1 - top, c0 - left : c1 - left] = read
    np.subtract(1.0, read, out=non[r0 - top : r1 - top, c0 - left : c1 - left])
    skin, non = skin.reshape(-1), non.reshape(-1)
    dy, dx = np.divmod(np.arange((2 * ry + 1) * (2 * rx + 1)), 2 * rx + 1)
    offsets = (dy - ry) * width + (dx - rx)
    offsets = offsets[offsets != 0]  # the oracle's (dy, dx) order, centre skipped
    centres = (ys - top) * width + (xs - left)
    first, last = int(centres.min()), int(centres.max()) + 1
    # each shifted add also costs about 1024 positions' time of its own, so
    # a few clustered pixels are gathered too
    if ys.size * _GATHER_COST < last - first + 1024:
        skin_sum, non_sum = np.empty(ys.size), np.empty(ys.size)
        chunk = max(1, _GATHER_TERMS // offsets.size)
        for start in range(0, ys.size, chunk):
            index = offsets[:, None] + centres[None, start : start + chunk]
            # accumulate adds along axis 0 one term after another, as the oracle does
            skin_sum[start : start + chunk] = np.add.accumulate(skin.take(index), axis=0)[-1]
            non_sum[start : start + chunk] = np.add.accumulate(non.take(index), axis=0)[-1]
        return skin_sum, non_sum
    skin_acc, non_acc = np.zeros(last - first), np.zeros(last - first)
    for offset in offsets.tolist():
        skin_acc += skin[first + offset : last + offset]
        non_acc += non[first + offset : last + offset]
    return skin_acc[centres - first], non_acc[centres - first]


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
    2nd ed., section 4.2). With ry, rx the radius clipped to the map and
    a = 2ry + 2rx:

    * the oracle adds up to (2ry+1)(2rx+1) - 1 terms to 0.0;
    * _run_sums takes a term through at most 2r additions for a run of
      2r+1, so the column pass takes at most 2ry, the row pass 2rx, and
      with the centre subtracted once the skin neighbour sum lies within
      gamma_(a+1) * box of the exact sum, box the exact skin window sum
      including the centre.

    The two skin sums therefore differ by at most gamma_k * box, with
    k = (2ry+1)(2rx+1) + a (gamma_a + gamma_b <= gamma_(a+b)).
    A product own * (sum / count) takes two more roundings on each side,
    and own * box / count = product + own^2 / count, so the skin
    product moves by at most
    (gamma_k + gamma_2 + gamma_2) * (product + own^2 / count) to first
    order.

    refine takes the non-skin neighbour sum as count - skin sum, clamped
    at 0: every neighbour's two terms add up to exactly 1, and the
    oracle's terms 1 - p are each within u * (1 - p) of it (exact for
    p >= 1/2, by Sterbenz's lemma). That one subtraction rounds once more,
    so the non-skin sum lies within gamma_(a+2) * box + 2u * non of the
    oracle's exact terms, non the exact non-skin sum: a relative part
    inside the allowance above (2u <= gamma_(a+1), over the non-skin box),
    plus an absolute part that follows the skin box. The non-skin product
    own_non * sum / count therefore obeys the skin product's bound plus
    X = gamma_(a+2) * own_non * box / count
      = gamma_(a+2) * own_non * (skin likeliness + own_skin / count).
    Summed over both classes, with own_skin^2 + own_non^2 <= 1 up
    to the rounding of own_non = 1 - own_skin, a pixel's products can stray
    by at most f * (skin_product + non_product + 1 / count) + X, f twice
    the first-order factor (the doubling covers the second-order terms,
    that rounding and the test's own roundings). The products sum to at
    most 1 up to a few u (a convex combination of the likeliness pair, or
    own_skin for a PAPER lock, whose non-skin product is exactly 0 and so
    has no X). As k >= a + 3 on any map larger than 1x1, gamma_(a+2) <= f / 2,
    and own_non * (skin likeliness + own_skin / count) <= 1 + 1 / (4 count),
    so X <= f * (1/2 + 1 / (8 count)). With count >= corner = (ry+1)(rx+1) - 1,
    the fewest neighbours of any pixel on a map larger than 1x1, a pixel's
    bound is at most f * (3/2 + 9 / (8 count)) <= f * (2 + 1 / corner): the
    one frame-wide value returned covers every pixel's bound.

    X also bounds how far the subtraction can move a refined probability
    p = skin_product / total, total = skin_product + non_product: to first
    order by skin_product * X / total^2. refine's accuracy guard re-sums in
    the oracle's order every pixel where
    skin_product * own_non * box / count > total^2, so on every other pixel
    the subtraction adds at most gamma_(a+2) (3.3e-15 at r = 7) to the
    two-plane bound on p, and the re-summed pixels carry the oracle's sums.
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
    only the output plane and the mask are allocated at full size. Window
    sums are taken of p_skin alone: separable, each pass summing its 2r+1
    terms by binary decomposition (at most 2 log2(2r+1) additions per
    pixel and pass, never more than 2r), and a radius past the map's size
    clips to it. Each pixel's non-skin neighbour sum is its neighbour count
    less its skin neighbour sum, clamped at 0. Every pixel's arithmetic is
    the same whatever the band height.

    The order of addition differs from refine_brute_oracle's, so every
    pixel whose products lie closer than _tie_slack's one frame-wide bound
    is re-summed in the oracle's order. A PAPER-locked pixel whose
    neighbours sum to zero is such a tie (both products are 0); a locked
    pixel with a non-zero sum gets the same pair in either order. The mask
    therefore equals the oracle's bit for bit. The subtraction gives the
    non-skin sum an absolute error that follows the skin sum, so an
    accuracy guard (derived in _tie_slack) also re-sums every pixel whose
    refined p_skin it could move by more than gamma_(2ry+2rx+2), about
    (2ry+2rx+2) * 2^-53; few pixels of a natural frame qualify. The other
    refined probabilities may differ from oracle-order arithmetic in the
    last bits, as far as those two bounds allow. The re-sum costs
    (2r+1)^2 - 1 adds per pixel, over every position from the first flagged
    pixel to the last where they are dense, so a map where most pixels tie
    (a uniform 0.5 region) refines several times slower than one with few ties.
    """
    height, width = pmap.height, pmap.width
    if height == width == 1:  # the products' total is at least 1/2
        skin, non = pmap.p_skin * pmap.p_skin, pmap.p_non_skin * pmap.p_non_skin
        return ProbabilityMap(skin / (skin + non)), SkinMask(pixels=skin >= non)
    band = max(1, _BAND_PIXELS // width)
    rows = min(band, height)
    scratch = _window_scratch(rows, height, width, cfg.radius)
    ext_y, ext_x = _extents(height, cfg.radius), _extents(width, cfg.radius)
    tie_slack = _tie_slack(height, width, cfg.radius)
    ry = min(cfg.radius, height - 1)
    interior_count = (2 * ry + 1) * ext_x - 1.0  # the neighbours in any row ry or more from the edges
    skin_product = np.empty((height, width))
    mask = np.empty((height, width), dtype=bool)
    # the last two are the window sums' scratch, free once a band's sums are taken
    buffers = [np.empty(rows * width) for _ in range(3)] + list(scratch[:2])
    for y0 in range(0, height, band):
        y1 = min(y0 + band, height)
        own_non, non, total, guard, scaled = (
            buf[: (y1 - y0) * width].reshape(y1 - y0, width) for buf in buffers)
        if ry <= y0 and y1 + ry <= height:
            count = interior_count
        else:
            count = np.multiply.outer(ext_y[y0:y1], ext_x)
            count -= 1.0
        own_skin, skin = pmap.p_skin[y0:y1], skin_product[y0:y1]
        np.subtract(1.0, own_skin, out=own_non)
        _window_sums(pmap.p_skin, y0, y1, cfg.radius, skin, scratch)
        np.multiply(own_non, skin, out=guard)  # own_non * skin box sum
        skin -= own_skin
        # every neighbour's two terms add up to 1, so the non-skin sum is the
        # count less the skin sum; cancellation can leave it a few ulps below 0
        np.subtract(count, skin, out=non)
        if non.min() < 0.0:
            np.maximum(non, 0.0, out=non)
        _products(own_skin, own_non, skin, non, count, cfg)

        # products closer than _tie_slack allows could order either way in
        # the oracle's arithmetic, and the accuracy guard (see _tie_slack)
        # catches pixels whose refined p could stray: re-sum both in the
        # oracle's order. The guard's test needs guard > total * count,
        # as the skin product is at most the total; few pixels pass that.
        gap = np.subtract(skin, non, out=total)
        np.abs(gap, out=gap)
        flagged = gap <= tie_slack
        np.add(skin, non, out=total)
        np.multiply(total, count, out=scaled)
        near = guard > scaled
        if near.any():  # flat indices: np.nonzero of a 2-d array is far slower
            i = np.flatnonzero(near)
            flagged.reshape(-1)[i] |= (skin.reshape(-1)[i] * guard.reshape(-1)[i]
                                       > total.reshape(-1)[i] * scaled.reshape(-1)[i])
        if flagged.any():
            i = np.flatnonzero(flagged)
            ys, xs = np.divmod(i, width)
            exact_skin, exact_non = _oracle_order_sums(pmap, ys + y0, xs, cfg.radius)
            skin_at, non_at = _products(
                own_skin.reshape(-1)[i], own_non.reshape(-1)[i], exact_skin, exact_non,
                ext_y[ys + y0] * ext_x[xs] - 1.0, cfg,
            )
            skin.reshape(-1)[i], non.reshape(-1)[i] = skin_at, non_at
            total.reshape(-1)[i] = skin_at + non_at

        np.greater_equal(skin, non, out=mask[y0:y1])
        if total.min() == 0.0:  # pixels where both products vanish keep their own p_skin
            degenerate = total == 0.0
            np.copyto(skin, own_skin, where=degenerate)
            total[degenerate] = 1.0
        skin /= total
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
