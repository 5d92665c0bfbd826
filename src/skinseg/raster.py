"""Bit-exact raster input/output plus the half-resolution helpers.

Supports binary netpbm only: P6 (colour) and P5 (greyscale), maxval 255.
Writers emit the canonical header ``P6\\n<w> <h>\\n255\\n`` followed by the
raw payload, so round-trips are byte-identical. A skin mask is a bool
``SkinMask`` in memory; only ``write_pgm`` encodes it, as 255 (skin) and
0 (non-skin) bytes. Downscaling averages 2x2 blocks (round-half-up,
trailing odd row/column dropped); upscaling a mask is nearest-neighbour.
"""

import re
from dataclasses import dataclass

import numpy as np


class PnmError(ValueError):
    """A netpbm file that cannot be parsed; the message says why."""


@dataclass(frozen=True)
class Image:
    """8-bit RGB raster; pixels is a (height, width, 3) uint8 array."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3 or p.dtype != np.uint8:
            raise ValueError(f"pixels must be (h, w, 3) uint8, got {p.shape} {p.dtype}")
        if p.shape[0] == 0 or p.shape[1] == 0:
            raise ValueError("image dimensions must be positive")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class SkinMask:
    """Binary skin/non-skin raster; pixels is a non-empty (height, width) bool array."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 2 or p.dtype != bool:
            raise ValueError(f"mask pixels must be (h, w) bool, got {p.shape} {p.dtype}")
        if p.shape[0] == 0 or p.shape[1] == 0:
            raise ValueError("mask dimensions must be positive")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


# whitespace (bytes-mode \s is what bytes.isspace() accepts) and '#' comments
# up to \r or \n, then a token; the possessive *+ keeps no per-comment state
_TOKEN = re.compile(rb"\s*(?:#[^\r\n]*\s*)*+([^\s#]*)")
_QUOTED_BYTES = 32  # how much of a bad header token an error message quotes


def _quote(token: bytes) -> str:
    return repr(token[:_QUOTED_BYTES]) + ("..." if len(token) > _QUOTED_BYTES else "")


def _read_header(data: bytes, expected_magic: bytes):
    """Parse a netpbm header; returns (width, height, payload offset).

    '#' comments are allowed anywhere among the header tokens; exactly one
    whitespace byte separates the maxval from the payload. Each token is
    found by one regex match, so the time is linear in the header's size.
    """
    pos = 0

    def next_token():
        nonlocal pos
        match = _TOKEN.match(data, pos)
        pos = match.end()
        if not match.group(1):
            raise PnmError("unexpected end of header")
        return match.group(1)

    magic = next_token()
    if magic != expected_magic:
        raise PnmError(f"expected magic {expected_magic.decode()}, got {_quote(magic)}")
    fields = []
    for name in ("width", "height", "maxval"):
        token = next_token()
        try:
            fields.append(int(token))
        except ValueError:
            raise PnmError(f"non-integer {name} field: {_quote(token)}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PnmError(f"dimensions must be positive, got {width}x{height}")
    if maxval != 255:
        raise PnmError(f"unsupported maxval {maxval}, only 255 is handled")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PnmError("missing whitespace byte after maxval")
    return width, height, pos + 1


def _read_payload(data: bytes, magic: bytes, channels: int) -> np.ndarray:
    """The pixels of a binary netpbm file as a (height, width, channels) uint8 copy."""
    width, height, offset = _read_header(data, magic)
    expected = channels * width * height
    if len(data) - offset < expected:
        raise PnmError(f"payload holds {len(data) - offset} bytes, header promises {expected}")
    pixels = np.frombuffer(data, dtype=np.uint8, count=expected, offset=offset)
    return pixels.reshape(height, width, channels).copy()


def read_ppm(data: bytes) -> Image:
    """Decode a binary P6 file; exact pixel recovery."""
    return Image(pixels=_read_payload(data, b"P6", 3))


def read_pgm(data: bytes) -> np.ndarray:
    """Decode a binary P5 file into a (height, width) uint8 array."""
    return _read_payload(data, b"P5", 1)[:, :, 0]


def write_ppm(img: Image) -> bytes:
    header = f"P6\n{img.width} {img.height}\n255\n".encode("ascii")
    return header + img.pixels.tobytes()


def write_pgm(mask: SkinMask) -> bytes:
    """P5 bytes for a mask: 255 = skin, 0 = non-skin."""
    return write_gray_pgm(mask.pixels.view(np.uint8) * 255)


def write_gray_pgm(gray: np.ndarray) -> bytes:
    """P5 bytes for an arbitrary (h, w) uint8 plane (probability renderings)."""
    gray = np.asarray(gray, dtype=np.uint8)
    if gray.ndim != 2:
        raise ValueError(f"expected a 2-d plane, got shape {gray.shape}")
    header = f"P5\n{gray.shape[1]} {gray.shape[0]}\n255\n".encode("ascii")
    return header + gray.tobytes()


def downscale_half(img: Image) -> Image:
    """Halve both dimensions by averaging 2x2 blocks per channel.

    The mean is rounded half-up; a trailing odd row or column is dropped.
    Raises on images narrower or shorter than 2 pixels.
    """
    if img.width < 2 or img.height < 2:
        raise ValueError(f"image too small to halve: {img.width}x{img.height}")
    h2, w2 = img.height // 2, img.width // 2
    trimmed = img.pixels[: 2 * h2, : 2 * w2].astype(np.uint32)
    blocks = (
        trimmed[0::2, 0::2]
        + trimmed[0::2, 1::2]
        + trimmed[1::2, 0::2]
        + trimmed[1::2, 1::2]
    )
    return Image(pixels=((blocks + 2) // 4).astype(np.uint8))


def upscale_mask_2x(mask: SkinMask, target_w: int, target_h: int) -> SkinMask:
    """Nearest-neighbour 2x upscale of a mask to the original image size.

    The target is exactly double in each axis, or one longer where
    downscale_half dropped a trailing odd row/column; the last mask
    row/column is repeated to cover it.
    """
    if not 2 * mask.width <= target_w <= 2 * mask.width + 1:
        raise ValueError(f"target width {target_w} incompatible with mask width {mask.width}")
    if not 2 * mask.height <= target_h <= 2 * mask.height + 1:
        raise ValueError(f"target height {target_h} incompatible with mask height {mask.height}")
    ys = np.minimum(np.arange(target_h) // 2, mask.height - 1)
    xs = np.minimum(np.arange(target_w) // 2, mask.width - 1)
    return SkinMask(pixels=mask.pixels[np.ix_(ys, xs)])
