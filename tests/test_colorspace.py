"""Colour conversion tests against exact rational oracles."""

import math
from fractions import Fraction

import numpy as np
import pytest

from skinseg.colorspace import (
    HSV_BLOCK,
    YcbcrPixel,
    normalize_hsv_array,
    rgb_to_hsv_array,
    rgb_to_ycbcr_array,
)

from oracles import HsvPixel, RgbPixel, rgb_to_hsv, rgb_to_ycbcr


def _q(value: Fraction) -> int:
    """round-half-up of an exact rational."""
    n, d = value.numerator, value.denominator
    return (2 * n + d) // (2 * d)


def hsv_exact(r: int, g: int, b: int) -> tuple[Fraction, Fraction]:
    """Unrounded (h, s) on the 0-255 scale, in exact Fraction arithmetic.

    Hue in degrees with the usual sector formulas (max priority r, g, b),
    wrapped into [0, 360), then H/360*255; s = C/max*255 (0 when max = 0).
    """
    mx, mn = max(r, g, b), min(r, g, b)
    c = mx - mn
    if c == 0:
        h_deg = Fraction(0)
    elif mx == r:
        h_deg = Fraction(60 * (g - b), c)
        if h_deg < 0:
            h_deg += 360
    elif mx == g:
        h_deg = Fraction(60 * (b - r), c) + 120
    else:
        h_deg = Fraction(60 * (r - g), c) + 240
    return h_deg * 255 / 360, Fraction(0) if mx == 0 else Fraction(255 * c, mx)


def hsv_oracle(r: int, g: int, b: int) -> tuple[int, int, int]:
    """Independent HSV quantization: hsv_exact rounded half-up, v = max."""
    h, s = hsv_exact(r, g, b)
    return _q(h), _q(s), max(r, g, b)


def ycbcr_exact(r: int, g: int, b: int) -> tuple[Fraction, Fraction, Fraction]:
    """Unrounded, unclamped full-range BT.601 (y, cr, cb) as exact rationals."""
    y = Fraction(299, 1000) * r + Fraction(587, 1000) * g + Fraction(114, 1000) * b
    cr = (r - y) * Fraction(713, 1000) + 128
    cb = (b - y) * Fraction(564, 1000) + 128
    return y, cr, cb


def ycbcr_oracle(r: int, g: int, b: int) -> tuple[int, int, int]:
    """Full-range BT.601 with exact rationals, round-half-up, clamp after."""
    return tuple(min(255, max(0, _q(x))) for x in ycbcr_exact(r, g, b))


def test_round_half_up():
    # exact halves go up, values either side of a half go to the nearest
    # integer, in every rounded channel of both conversions
    rng = np.random.default_rng(61)
    rgb = np.concatenate([
        rng.integers(0, 256, size=(3000, 3), dtype=np.uint8),
        # (0, 255, 255): H = 180 deg -> 127.5 -> 128; (2, 1, 0): H = 30 deg
        # -> 21.25 -> 21; (2, 1, 1): s = 255 * 1/2 = 127.5 -> 128
        np.array([[0, 255, 255], [2, 1, 0], [2, 1, 1]], dtype=np.uint8),
    ])
    hsv, ycbcr = rgb_to_hsv_array(rgb), rgb_to_ycbcr_array(rgb)
    got = np.concatenate([hsv[:, :2], ycbcr], axis=1).tolist()  # h, s, y, cr, cb
    halves = below = above = 0
    for trip, values in zip(rgb.tolist(), got):
        for exact, value in zip((*hsv_exact(*trip), *ycbcr_exact(*trip)), values):
            if not 0 <= exact <= 255:
                continue  # clamped; covered by the oracle comparisons
            frac = exact - math.floor(exact)
            halves += frac == Fraction(1, 2)
            below += 0 < frac < Fraction(1, 2)
            above += frac > Fraction(1, 2)
            assert value == _q(exact)
    assert halves > 0 and below > 0 and above > 0
    assert hsv[-3:].tolist() == [[128, 255, 255], [21, 255, 2], [0, 128, 2]]


def test_pixel_validation():
    with pytest.raises(ValueError):
        HsvPixel(256, 0, 0)
    with pytest.raises(ValueError):
        YcbcrPixel(-1, 0, 0)
    with pytest.raises(ValueError):
        HsvPixel(0, 300, 0)
    with pytest.raises(ValueError):
        YcbcrPixel(0, 0, -5)
    with pytest.raises(ValueError):
        HsvPixel(1.5, 0, 0)


def test_hsv_known_values():
    rgb = np.array([[255, 0, 0], [0, 0, 0], [128, 128, 128],
                    [0, 255, 255], [0, 255, 0], [0, 0, 255]], dtype=np.uint8)
    assert rgb_to_hsv_array(rgb).tolist() == [
        [0, 255, 255],
        [0, 0, 0],
        [0, 0, 128],
        # H = 180 deg -> 180/360*255 = 127.5, round-half-up -> 128
        [128, 255, 255],
        # pure green/blue land on 85.0 and 170.0 exactly
        [85, 255, 255],
        [170, 255, 255],
    ]


def test_ycbcr_known_values():
    rgb = np.array([[0, 0, 0], [255, 255, 255], [255, 0, 0]], dtype=np.uint8)
    assert rgb_to_ycbcr_array(rgb).tolist() == [[0, 128, 128], [255, 128, 128], [76, 255, 85]]


def test_hsv_matches_oracle_on_random_sample():
    rng = np.random.default_rng(1234)
    triples = rng.integers(0, 256, size=(5000, 3))
    hsv = rgb_to_hsv_array(triples)
    for (r, g, b), p in zip(triples, hsv):
        assert tuple(int(x) for x in p) == hsv_oracle(int(r), int(g), int(b))


def test_hsv_matches_oracle_on_boundary_cases():
    cases = []
    for a in (0, 1, 127, 128, 254, 255):
        for b in (0, 1, 128, 255):
            for c in (0, 77, 255):
                cases.append((a, b, c))
    # every permutation, to hit all sector/tie branches
    trips = sorted({
        trip
        for r, g, b in cases
        for trip in ((r, g, b), (g, b, r), (b, r, g), (r, b, g), (g, r, b), (b, g, r))
    })
    hsv = rgb_to_hsv_array(np.array(trips, dtype=np.uint8))
    for trip, p in zip(trips, hsv):
        assert tuple(int(x) for x in p) == hsv_oracle(*trip)


def test_ycbcr_matches_oracle_on_random_sample():
    rng = np.random.default_rng(99)
    triples = rng.integers(0, 256, size=(5000, 3))
    ycbcr = rgb_to_ycbcr_array(triples)
    for (r, g, b), p in zip(triples, ycbcr):
        assert tuple(int(x) for x in p) == ycbcr_oracle(int(r), int(g), int(b))


def test_greyscale_properties():
    grey = np.repeat(np.arange(0, 256, 5, dtype=np.uint8)[:, None], 3, axis=1)
    hsv = rgb_to_hsv_array(grey)
    assert np.all(hsv[:, 1] == 0) and np.array_equal(hsv[:, 2], grey[:, 0])
    assert np.all(hsv[:, 0] == 0)
    ycbcr = rgb_to_ycbcr_array(grey)
    assert np.all(ycbcr[:, 1] == 128) and np.all(ycbcr[:, 2] == 128)


def test_permutation_invariance_of_s_and_v():
    rng = np.random.default_rng(7)
    rgb = rng.integers(0, 256, size=(300, 3))
    base = rgb_to_hsv_array(rgb)
    for perm in ((1, 2, 0), (2, 0, 1)):  # (g, b, r) and (b, r, g)
        other = rgb_to_hsv_array(rgb[:, perm])
        assert np.array_equal(other[:, 1:], base[:, 1:])


def test_channel_bounds_on_large_random_sample():
    rng = np.random.default_rng(2024)
    rgb = rng.integers(0, 256, size=(100_000, 3), dtype=np.uint8)
    hsv = rgb_to_hsv_array(rgb)
    ycbcr = rgb_to_ycbcr_array(rgb)
    assert hsv.dtype == np.uint8 and ycbcr.dtype == np.uint8
    assert hsv.shape == rgb.shape and ycbcr.shape == rgb.shape
    # uint8 output cannot leave 0..255; determinism instead:
    assert np.array_equal(hsv, rgb_to_hsv_array(rgb))
    assert np.array_equal(ycbcr, rgb_to_ycbcr_array(rgb))


def test_array_paths_match_scalar():
    """The array conversions against the scalar oracles, triple by triple."""
    rng = np.random.default_rng(55)
    rgb = rng.integers(0, 256, size=(2000, 3), dtype=np.uint8)
    hsv = rgb_to_hsv_array(rgb)
    ycbcr = rgb_to_ycbcr_array(rgb)
    for i in range(rgb.shape[0]):
        p = RgbPixel(int(rgb[i, 0]), int(rgb[i, 1]), int(rgb[i, 2]))
        sh = rgb_to_hsv(p)
        sy = rgb_to_ycbcr(p)
        assert (sh.h, sh.s, sh.v) == tuple(int(x) for x in hsv[i])
        assert (sy.y, sy.cr, sy.cb) == tuple(int(x) for x in ycbcr[i])


def test_hsv_array_blocks_join_seamlessly():
    rng = np.random.default_rng(77)
    n = 2 * HSV_BLOCK + 5
    rgb = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    hsv = rgb_to_hsv_array(rgb)
    for i in (0, HSV_BLOCK - 1, HSV_BLOCK, 2 * HSV_BLOCK - 1, 2 * HSV_BLOCK, n - 1):
        sh = rgb_to_hsv(RgbPixel(int(rgb[i, 0]), int(rgb[i, 1]), int(rgb[i, 2])))
        assert (sh.h, sh.s, sh.v) == tuple(int(x) for x in hsv[i])
    # a non-contiguous (rows, cols, 3) view converts like its rows one by one
    frame = rgb[: 2 * HSV_BLOCK].reshape(2, HSV_BLOCK, 3)[:, ::-1]
    expect = hsv[: 2 * HSV_BLOCK].reshape(2, HSV_BLOCK, 3)[:, ::-1]
    assert np.array_equal(rgb_to_hsv_array(frame), expect)
    assert rgb_to_hsv_array(np.zeros((0, 3), dtype=np.uint8)).shape == (0, 3)


def test_array_shape_validation():
    with pytest.raises(ValueError):
        rgb_to_hsv_array(np.zeros((4, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        rgb_to_ycbcr_array(np.zeros((5,), dtype=np.uint8))


def test_normalize_hsv():
    hsv = np.array([[0, 0, 0], [255, 255, 255], [51, 102, 204]], dtype=np.uint8)
    arr = normalize_hsv_array(hsv)
    assert arr.tolist() == [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [0.2, 0.4, 0.8]]
    assert arr.dtype == np.float64


def _hsv_formula(rgb: np.ndarray) -> np.ndarray:
    """The integer formulas behind rgb_to_hsv_array, computed directly on (n, 3) triples.

    Hue times chroma stays integral, H*C = 60 * delta plus the sector's
    offset (sector priority r, g, b), and each of h and s is rounded half
    up by one floor division, as the conversion did before it read tables.
    """
    r, g, b = (rgb[:, i].astype(np.int64) for i in range(3))
    max_c = np.maximum(np.maximum(r, g), b)
    chroma = max_c - np.minimum(np.minimum(r, g), b)
    on_r = max_c == r
    on_g = (max_c == g) & ~on_r
    hue_c = np.where(
        on_r,
        60 * (g - b) + np.where(g < b, 360 * chroma, 0),
        np.where(on_g, 60 * (b - r) + 120 * chroma, 60 * (r - g) + 240 * chroma),
    )
    safe_c = np.where(chroma == 0, 1, chroma)
    h = np.where(chroma == 0, 0, (510 * hue_c + 360 * safe_c) // (720 * safe_c))
    safe_m = np.where(max_c == 0, 1, max_c)
    s = np.where(max_c == 0, 0, (510 * chroma + safe_m) // (2 * safe_m))
    return np.stack([h, s, max_c], axis=1).astype(np.uint8)


def test_hsv_tables_match_the_integer_formula_on_every_colour():
    """All 2^24 colours, 2^18 at a time: the lookup tables give the formulas' h and s."""
    chunk = 1 << 18
    for start in range(0, 1 << 24, chunk):
        codes = np.arange(start, start + chunk, dtype=np.int64)
        rgb = np.stack([codes >> 16, (codes >> 8) & 0xFF, codes & 0xFF], axis=1).astype(np.uint8)
        assert np.array_equal(rgb_to_hsv_array(rgb), _hsv_formula(rgb)), start
