"""Binary netpbm I/O, 2x downscale and mask upscale."""

from fractions import Fraction

import numpy as np
import pytest

from skinseg.raster import (
    Image,
    PnmDepthError,
    PnmError,
    PnmHeaderError,
    PnmMagicError,
    PnmTruncatedError,
    SkinMask,
    downscale_half,
    read_pgm,
    read_ppm,
    upscale_mask_2x,
    write_gray_pgm,
    write_pgm,
    write_ppm,
)


def _image(rng, h, w) -> Image:
    return Image(pixels=rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


def test_read_ppm_single_space_header():
    img = read_ppm(b"P6 1 1 255 " + bytes([10, 20, 30]))
    assert img.width == 1 and img.height == 1
    assert tuple(img.pixels[0, 0]) == (10, 20, 30)


def test_read_ppm_newline_header_and_comments():
    data = b"P6\n# shot with the lab camera\n2 1\n# maxval next\n255\n" + bytes(6)
    img = read_ppm(data)
    assert (img.width, img.height) == (2, 1)
    assert not img.pixels.any()


def test_read_ppm_rejects_wrong_magic():
    with pytest.raises(PnmMagicError):
        read_ppm(b"P5 1 1 255 " + bytes(3))
    with pytest.raises(PnmMagicError):
        read_ppm(b"P3 1 1 255 0 0 0")


def test_read_ppm_rejects_high_depth():
    with pytest.raises(PnmDepthError):
        read_ppm(b"P6 1 1 65535 " + bytes(6))


def test_read_ppm_rejects_truncation_and_garbage():
    with pytest.raises(PnmTruncatedError):
        read_ppm(b"P6 2 2 255 " + bytes(11))  # needs 12 payload bytes
    with pytest.raises(PnmHeaderError):
        read_ppm(b"P6 two 2 255 ")
    with pytest.raises(PnmHeaderError):
        read_ppm(b"P6 2 2 255")  # no separator byte after maxval
    with pytest.raises(PnmHeaderError):
        read_ppm(b"P6 0 2 255 ")
    with pytest.raises(PnmError):
        read_ppm(b"")


def test_write_ppm_canonical_header_lengths():
    # "P6\n1 1\n255\n" is 11 bytes; a 450x600 header is 15.
    one = write_ppm(Image(pixels=np.full((1, 1, 3), 255, dtype=np.uint8)))
    assert one == b"P6\n1 1\n255\n" + b"\xff\xff\xff"
    assert len(one) - 3 == 11
    big = write_ppm(Image(pixels=np.zeros((600, 450, 3), dtype=np.uint8)))
    assert big.startswith(b"P6\n450 600\n255\n")
    assert big.index(b"\n255\n") + 5 == 15


def test_ppm_round_trip_random_images():
    rng = np.random.default_rng(31)
    for _ in range(10):
        img = _image(rng, int(rng.integers(1, 24)), int(rng.integers(1, 24)))
        again = read_ppm(write_ppm(img))
        assert np.array_equal(again.pixels, img.pixels)
        # byte-level: serialize(parse(serialize(x))) is a fixed point
        assert write_ppm(again) == write_ppm(img)


def test_read_ppm_returns_writable_copy():
    img = read_ppm(b"P6 1 1 255 " + bytes([1, 2, 3]))
    img.pixels[0, 0, 0] = 9  # must not raise (frombuffer views are read-only)
    assert img.pixels[0, 0, 0] == 9


def test_pgm_mask_round_trip():
    rng = np.random.default_rng(8)
    mask = SkinMask(pixels=rng.random((7, 5)) < 0.5)
    again = read_pgm(write_pgm(mask))
    assert np.array_equal(again, np.where(mask.pixels, 255, 0))
    zeros = SkinMask(pixels=np.zeros((3, 3), dtype=bool))
    assert read_pgm(write_pgm(zeros)).sum() == 0
    flags = np.array([[True, False, True], [False, False, True]])
    assert write_pgm(SkinMask(pixels=flags)) == b"P5\n3 2\n255\n" + bytes([255, 0, 255, 0, 0, 255])


def test_skin_mask_validation():
    for bad in (
        np.ones((2, 2), dtype=np.uint8),
        np.ones((2, 2, 1), dtype=bool),
        np.zeros((0, 3), dtype=bool),
        np.zeros((3, 0), dtype=bool),
    ):
        with pytest.raises(ValueError):
            SkinMask(pixels=bad)


def test_write_gray_pgm_parses_back():
    gradient = np.arange(12, dtype=np.uint8).reshape(3, 4)
    assert np.array_equal(read_pgm(write_gray_pgm(gradient)), gradient)
    with pytest.raises(ValueError):
        write_gray_pgm(np.zeros((2, 2, 3), dtype=np.uint8))


def test_image_validation():
    with pytest.raises(ValueError):
        Image(pixels=np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        Image(pixels=np.zeros((0, 2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        Image(pixels=np.zeros((2, 2, 3), dtype=np.float64))


# ----------------------------------------------------------------- scaling


def test_downscale_constant_block_is_identity():
    img = Image(pixels=np.full((4, 6, 3), 77, dtype=np.uint8))
    out = downscale_half(img)
    assert out.pixels.shape == (2, 3, 3)
    assert np.all(out.pixels == 77)


def test_downscale_known_block_mean():
    # per channel: (0 + 0 + 255 + 255) / 4 = 127.5, rounded half-up to 128
    block = np.array([[[0] * 3, [0] * 3], [[255] * 3, [255] * 3]], dtype=np.uint8)
    out = downscale_half(Image(pixels=block))
    assert out.pixels.shape == (1, 1, 3)
    assert np.all(out.pixels == 128)
    # 0,0,0,1 -> 0.25 -> 0 ; 0,0,1,1 -> 0.5 -> 1
    quarter = np.array([[[0] * 3, [0] * 3], [[0] * 3, [1] * 3]], dtype=np.uint8)
    assert np.all(downscale_half(Image(pixels=quarter)).pixels == 0)
    half = np.array([[[0] * 3, [0] * 3], [[1] * 3, [1] * 3]], dtype=np.uint8)
    assert np.all(downscale_half(Image(pixels=half)).pixels == 1)


def test_downscale_odd_dimensions_drop_trailing():
    rng = np.random.default_rng(12)
    img = _image(rng, 5, 5)
    out = downscale_half(img)
    assert out.pixels.shape == (2, 2, 3)
    trimmed = Image(pixels=img.pixels[:4, :4].copy())
    assert np.array_equal(out.pixels, downscale_half(trimmed).pixels)


def test_downscale_rejects_tiny_images():
    with pytest.raises(ValueError):
        downscale_half(Image(pixels=np.zeros((1, 5, 3), dtype=np.uint8)))
    with pytest.raises(ValueError):
        downscale_half(Image(pixels=np.zeros((5, 1, 3), dtype=np.uint8)))


def test_downscale_matches_exact_mean_oracle():
    """Every output sample equals round-half-up of the exact block mean."""
    rng = np.random.default_rng(77)
    img = _image(rng, 9, 13)
    out = downscale_half(img)
    for y in range(out.height):
        for x in range(out.width):
            for ch in range(3):
                block = img.pixels[2 * y : 2 * y + 2, 2 * x : 2 * x + 2, ch]
                mean = Fraction(int(block.astype(int).sum()), 4)
                expect = int(mean + Fraction(1, 2))  # floor(mean + 1/2)
                assert out.pixels[y, x, ch] == expect


def test_upscale_single_pixel_mask():
    mask = SkinMask(pixels=np.ones((1, 1), dtype=bool))
    up = upscale_mask_2x(mask, 2, 2)
    assert up.pixels.shape == (2, 2)
    assert np.all(up.pixels)


def test_upscale_checkerboard_blocks():
    board = SkinMask(pixels=np.array([[True, False], [False, True]]))
    up = upscale_mask_2x(board, 4, 4)
    expect = np.array(
        [
            [True, True, False, False],
            [True, True, False, False],
            [False, False, True, True],
            [False, False, True, True],
        ]
    )
    assert np.array_equal(up.pixels, expect)


def test_upscale_odd_targets_repeat_last_line():
    mask = SkinMask(pixels=np.array([[True, False], [False, True]]))
    up = upscale_mask_2x(mask, 5, 5)
    expect = np.array(
        [
            [True, True, False, False, False],
            [True, True, False, False, False],
            [False, False, True, True, True],
            [False, False, True, True, True],
            [False, False, True, True, True],
        ]
    )
    assert np.array_equal(up.pixels, expect)


def test_upscale_rejects_incompatible_targets():
    mask = SkinMask(pixels=np.zeros((3, 3), dtype=bool))
    for bad_w, bad_h in ((5, 6), (8, 6), (6, 5), (6, 8)):
        with pytest.raises(ValueError):
            upscale_mask_2x(mask, bad_w, bad_h)
    upscale_mask_2x(mask, 7, 6)  # boundary targets are fine
    upscale_mask_2x(mask, 6, 7)


def test_constant_mask_survives_scale_cycle():
    mask = SkinMask(pixels=np.ones((4, 4), dtype=bool))
    up = upscale_mask_2x(mask, 8, 8)
    assert np.all(up.pixels)
    assert up.pixels.shape == (8, 8)
