"""Colour space conversions for arrays of 8-bit RGB triples.

Both conversions are pure functions and bit-exact: hue is quantized onto
a single 0-255 domain (not the 0-179 half-degree convention), rounding
is round-half-up everywhere, and clamping happens after rounding.
Because every input channel is an 8-bit integer, all quantities are
exact rationals; the quantization is therefore done in integer
arithmetic so that half-way cases can never be lost to floating point
noise. ``YcbcrPixel`` holds one quantized triple (a threshold box corner).
"""

import functools
from dataclasses import dataclass

import numpy as np

HSV_BLOCK = 8192  # triples per block of rgb_to_hsv_array: 32 KiB int32 temporaries


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
    temporaries stay small however many triples there are, and reads h
    and s from the lookup tables of _hsv_tables.

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
    tables = _hsv_tables()
    for start in range(0, triples.shape[0], HSV_BLOCK):
        _hsv_block(triples[start : start + HSV_BLOCK], out[start : start + HSV_BLOCK], *tables)
    return out.reshape(rgb.shape)


_HUE_ROWS = 256 * 511  # entries per hue sector of the H table: chroma 0-255, diff -255..255


@functools.cache
def _hsv_tables() -> tuple[np.ndarray, np.ndarray]:
    """The flat uint8 lookup tables (S, H) of rgb_to_hsv_array, built on first use.

    S[max * 256 + chroma] is the saturation, round half up of
    255 * chroma / max (0 when max = 0). The hue of a colour depends only
    on its sector (0, 1, 2: r, g or b holds the maximum, in that
    priority), its chroma and diff (g - b, b - r or r - g in that
    sector): H[sector * _HUE_ROWS + chroma * 511 + diff + 255] is round
    half up of 255 * (hue * chroma) / (360 * chroma), where hue * chroma =
    60 * diff plus 0, 120 or 240 times chroma, and 360 * chroma more when
    sector 0 has diff < 0 (0 when chroma = 0). Both are exact integer
    formulas. The build works one sector at a time on int32 arrays of at
    most 256 x 511 entries (under 1 MB each), so it adds little to peak
    memory; the tables themselves take 64 KiB and 383 KiB.
    """
    level = np.arange(256, dtype=np.int32)[:, None]  # max for S, chroma for H
    safe = np.maximum(level, 1)
    s = (510 * level.T + safe) // (2 * safe)
    s[0] = 0  # max = 0
    h = np.empty(3 * _HUE_ROWS, dtype=np.uint8)
    diff = np.arange(-255, 256, dtype=np.int32)
    for sector in range(3):
        hue_c = 60 * diff + 120 * sector * level
        if sector == 0:
            hue_c[:, :255] += 360 * level  # the columns where diff < 0
        hue_c *= 510
        hue_c += 360 * safe
        hue_c //= 720 * safe
        hue_c[0] = 0  # chroma = 0
        h[sector * _HUE_ROWS : (sector + 1) * _HUE_ROWS] = hue_c.ravel()
    tables = s.astype(np.uint8).ravel(), h
    for table in tables:
        table.flags.writeable = False  # shared by every call
    return tables


def _hsv_block(rgb: np.ndarray, out: np.ndarray, s_table: np.ndarray, h_table: np.ndarray) -> None:
    """rgb_to_hsv_array of an (n, 3) block, written into out."""
    r = rgb[:, 0].astype(np.int32)
    g = rgb[:, 1].astype(np.int32)
    b = rgb[:, 2].astype(np.int32)
    max_c = np.maximum(np.maximum(r, g), b)
    chroma = max_c - np.minimum(np.minimum(r, g), b)
    # sector priority r, then g, then b; each sector's rows follow the one before
    on_r = max_c == r
    on_g = max_c == g
    index = np.where(on_g, b - r + _HUE_ROWS, r - g + 2 * _HUE_ROWS)
    np.copyto(index, g - b, where=on_r)
    index += 511 * chroma + 255
    out[:, 0] = h_table.take(index)
    out[:, 1] = s_table.take(256 * max_c + chroma)
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
