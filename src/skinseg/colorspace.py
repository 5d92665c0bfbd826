"""Colour space conversions for arrays of 8-bit RGB triples.

Both conversions are pure functions and bit-exact: hue is quantized onto
a single 0-255 domain (not the 0-179 half-degree convention), rounding
is round-half-up everywhere, and clamping happens after rounding.
Because every input channel is an 8-bit integer, all quantities are
exact rationals; the quantization is therefore done in integer
arithmetic so that half-way cases can never be lost to floating point
noise. ``YcbcrPixel`` holds one quantized triple (a threshold box corner).
"""

from dataclasses import dataclass

import numpy as np

HSV_BLOCK = 8192  # triples per block of rgb_to_hsv_array: 64 KiB int64 temporaries


def _check_channel(name, value):
    if not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__}")
    if not 0 <= value <= 255:
        raise ValueError(f"{name} out of range 0-255: {value}")


@dataclass(frozen=True)
class YcbcrPixel:
    """Full-range BT.601 luma and chroma differences, all channels 0-255."""

    y: int
    cr: int
    cb: int

    def __post_init__(self):
        for name in ("y", "cr", "cb"):
            _check_channel(name, getattr(self, name))


# BT.601 full-range numerators over a common denominator of 1e6:
#   Y  = (299 R + 587 G + 114 B) / 1000
#   Cr = 713 (701 R - 587 G - 114 B) / 1e6 + 128
#   Cb = 564 (886 B - 299 R - 587 G) / 1e6 + 128
_YCBCR_DEN = 1_000_000


def rgb_to_hsv_array(rgb: np.ndarray) -> np.ndarray:
    """Convert RGB triples to quantized HSV.

    Hue is computed in degrees [0, 360) with the h = 0 convention at zero
    chroma, saturation as chroma/max (0 when max = 0), value as max/255.
    Each channel is scaled onto 0-255 and rounded half-up; when several
    channels share the maximum, the hue sector is chosen in the order r,
    g, b. Converts HSV_BLOCK triples at a time, so the integer
    temporaries stay small however many triples there are.

    Args:
        rgb: integer array with trailing axis of size 3 (..., 3), values 0-255.

    Returns:
        uint8 array of the same shape holding quantized (h, s, v).
    """
    rgb = np.asarray(rgb)
    if rgb.shape[-1] != 3:
        raise ValueError(f"expected trailing axis of size 3, got shape {rgb.shape}")
    triples = rgb.reshape(-1, 3)
    out = np.empty(triples.shape, dtype=np.uint8)
    for start in range(0, triples.shape[0], HSV_BLOCK):
        _hsv_block(triples[start : start + HSV_BLOCK], out[start : start + HSV_BLOCK])
    return out.reshape(rgb.shape)


def _hsv_block(rgb: np.ndarray, out: np.ndarray) -> None:
    """rgb_to_hsv_array of an (n, 3) block, written into out."""
    r = rgb[:, 0].astype(np.int64)
    g = rgb[:, 1].astype(np.int64)
    b = rgb[:, 2].astype(np.int64)

    max_c = np.maximum(np.maximum(r, g), b)
    min_c = np.minimum(np.minimum(r, g), b)
    chroma = max_c - min_c

    # Hue in degrees times chroma, kept integral: H*C = 60*delta (+ sector
    # offset); sector priority r, then g, then b.
    mask_r = max_c == r
    mask_g = (max_c == g) & ~mask_r
    hue_c = np.where(
        mask_r,
        60 * (g - b) + np.where(g < b, 360 * chroma, 0),
        np.where(mask_g, 60 * (b - r) + 120 * chroma, 60 * (r - g) + 240 * chroma),
    )
    safe_c = np.where(chroma == 0, 1, chroma)
    # round half up of 255 * (H*C) / (360*C), and of 255 * chroma / max below
    h = np.where(chroma == 0, 0, (510 * hue_c + 360 * safe_c) // (720 * safe_c))

    safe_m = np.where(max_c == 0, 1, max_c)
    s = np.where(max_c == 0, 0, (510 * chroma + safe_m) // (2 * safe_m))

    out[:, 0] = h
    out[:, 1] = s
    out[:, 2] = max_c


def rgb_to_ycbcr_array(rgb: np.ndarray) -> np.ndarray:
    """Convert RGB triples to full-range BT.601 YCbCr, output order (y, cr, cb).

    Y = 0.299 R + 0.587 G + 0.114 B, Cr = (R - Y) * 0.713 + 128,
    Cb = (B - Y) * 0.564 + 128; each rounded half-up and clamped to 0-255,
    as a uint8 array of the input's shape.
    """
    rgb = np.asarray(rgb)
    if rgb.shape[-1] != 3:
        raise ValueError(f"expected trailing axis of size 3, got shape {rgb.shape}")
    r = rgb[..., 0].astype(np.int64)
    g = rgb[..., 1].astype(np.int64)
    b = rgb[..., 2].astype(np.int64)

    y_num = 299 * r + 587 * g + 114 * b
    cr_num = 713 * (701 * r - 587 * g - 114 * b) + 128 * _YCBCR_DEN
    cb_num = 564 * (886 * b - 299 * r - 587 * g) + 128 * _YCBCR_DEN

    out = np.empty(rgb.shape, dtype=np.uint8)
    for i, (num, den) in enumerate(
        ((y_num, 1000), (cr_num, _YCBCR_DEN), (cb_num, _YCBCR_DEN))
    ):
        out[..., i] = np.clip((2 * num + den) // (2 * den), 0, 255)  # num/den half up
    return out


def normalize_hsv_array(hsv: np.ndarray) -> np.ndarray:
    """Scale a uint8 HSV array onto [0, 1] floats."""
    return np.asarray(hsv, dtype=np.float64) / 255.0
