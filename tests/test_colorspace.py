"""Colour conversion tests against exact rational oracles."""

from fractions import Fraction

import numpy as np
import pytest

from skinseg.colorspace import (
    HSV_BLOCK,
    HsvPixel,
    RgbPixel,
    YcbcrPixel,
    normalize_hsv,
    normalize_hsv_array,
    rgb_to_hsv,
    rgb_to_hsv_array,
    rgb_to_ycbcr,
    rgb_to_ycbcr_array,
    round_half_up,
)


def _q(value: Fraction) -> int:
    """round-half-up of an exact rational."""
    n, d = value.numerator, value.denominator
    return (2 * n + d) // (2 * d)


def hsv_oracle(r: int, g: int, b: int) -> tuple[int, int, int]:
    """Independent HSV quantization in exact Fraction arithmetic.

    Hue in degrees with the usual sector formulas (max priority r, g, b),
    wrapped into [0, 360); h = round(H/360*255), s = round(C/max*255),
    v = max, all round-half-up.
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
    h = _q(h_deg * 255 / 360)
    s = 0 if mx == 0 else _q(Fraction(255 * c, mx))
    return h, s, mx


def ycbcr_oracle(r: int, g: int, b: int) -> tuple[int, int, int]:
    """Full-range BT.601 with exact rationals, round-half-up, clamp after."""
    y = Fraction(299, 1000) * r + Fraction(587, 1000) * g + Fraction(114, 1000) * b
    cr = (r - y) * Fraction(713, 1000) + 128
    cb = (b - y) * Fraction(564, 1000) + 128
    return tuple(min(255, max(0, _q(x))) for x in (y, cr, cb))


def test_round_half_up():
    assert round_half_up(0.5) == 1
    assert round_half_up(1.5) == 2
    assert round_half_up(-0.5) == 0
    assert round_half_up(2.49) == 2
    assert round_half_up(2.51) == 3


def test_pixel_validation():
    with pytest.raises(ValueError):
        RgbPixel(256, 0, 0)
    with pytest.raises(ValueError):
        RgbPixel(-1, 0, 0)
    with pytest.raises(ValueError):
        HsvPixel(0, 300, 0)
    with pytest.raises(ValueError):
        YcbcrPixel(0, 0, -5)
    with pytest.raises(ValueError):
        RgbPixel(1.5, 0, 0)


def test_hsv_known_values():
    assert rgb_to_hsv(RgbPixel(255, 0, 0)) == HsvPixel(0, 255, 255)
    assert rgb_to_hsv(RgbPixel(0, 0, 0)) == HsvPixel(0, 0, 0)
    assert rgb_to_hsv(RgbPixel(128, 128, 128)) == HsvPixel(0, 0, 128)
    # H = 180 deg -> 180/360*255 = 127.5, round-half-up -> 128
    assert rgb_to_hsv(RgbPixel(0, 255, 255)) == HsvPixel(128, 255, 255)
    # pure green/blue land on 85.0 and 170.0 exactly
    assert rgb_to_hsv(RgbPixel(0, 255, 0)) == HsvPixel(85, 255, 255)
    assert rgb_to_hsv(RgbPixel(0, 0, 255)) == HsvPixel(170, 255, 255)


def test_ycbcr_known_values():
    assert rgb_to_ycbcr(RgbPixel(0, 0, 0)) == YcbcrPixel(0, 128, 128)
    assert rgb_to_ycbcr(RgbPixel(255, 255, 255)) == YcbcrPixel(255, 128, 128)
    assert rgb_to_ycbcr(RgbPixel(255, 0, 0)) == YcbcrPixel(76, 255, 85)


def test_hsv_matches_oracle_on_random_sample():
    rng = np.random.default_rng(1234)
    triples = rng.integers(0, 256, size=(5000, 3))
    for r, g, b in triples:
        p = rgb_to_hsv(RgbPixel(int(r), int(g), int(b)))
        assert (p.h, p.s, p.v) == hsv_oracle(int(r), int(g), int(b))


def test_hsv_matches_oracle_on_boundary_cases():
    cases = []
    for a in (0, 1, 127, 128, 254, 255):
        for b in (0, 1, 128, 255):
            for c in (0, 77, 255):
                cases.append((a, b, c))
    # every permutation, to hit all sector/tie branches
    for r, g, b in cases:
        for trip in {(r, g, b), (g, b, r), (b, r, g), (r, b, g), (g, r, b), (b, g, r)}:
            p = rgb_to_hsv(RgbPixel(*trip))
            assert (p.h, p.s, p.v) == hsv_oracle(*trip)


def test_ycbcr_matches_oracle_on_random_sample():
    rng = np.random.default_rng(99)
    triples = rng.integers(0, 256, size=(5000, 3))
    for r, g, b in triples:
        p = rgb_to_ycbcr(RgbPixel(int(r), int(g), int(b)))
        assert (p.y, p.cr, p.cb) == ycbcr_oracle(int(r), int(g), int(b))


def test_greyscale_properties():
    for value in range(0, 256, 5):
        hsv = rgb_to_hsv(RgbPixel(value, value, value))
        assert hsv.s == 0 and hsv.v == value and hsv.h == 0
        ycbcr = rgb_to_ycbcr(RgbPixel(value, value, value))
        assert ycbcr.cr == 128 and ycbcr.cb == 128


def test_permutation_invariance_of_s_and_v():
    rng = np.random.default_rng(7)
    for r, g, b in rng.integers(0, 256, size=(300, 3)):
        base = rgb_to_hsv(RgbPixel(int(r), int(g), int(b)))
        for perm in ((g, b, r), (b, r, g)):
            other = rgb_to_hsv(RgbPixel(int(perm[0]), int(perm[1]), int(perm[2])))
            assert other.s == base.s and other.v == base.v


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
    assert normalize_hsv(HsvPixel(0, 0, 0)) == (0.0, 0.0, 0.0)
    assert normalize_hsv(HsvPixel(255, 255, 255)) == (1.0, 1.0, 1.0)
    assert normalize_hsv(HsvPixel(51, 102, 204)) == (0.2, 0.4, 0.8)
    arr = normalize_hsv_array(np.array([[51, 102, 204]], dtype=np.uint8))
    assert np.allclose(arr, [[0.2, 0.4, 0.8]])
    assert arr.dtype == np.float64
