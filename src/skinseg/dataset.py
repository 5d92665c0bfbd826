"""UCI skin-segmentation datasets: columnar storage, parsing, HSV conversion, splits.

The on-disk format is one sample per line: four whitespace-separated
base-10 integers ``B G R label`` with label 1 = skin, 2 = non-skin.

A dataset is held as columns: an (N, 3) uint8 channel array and an (N,)
bool skin vector. ``RawSamples`` (B, G, R channels) and ``HsvSamples``
(H, S, V) wrap the pair; every function here takes and returns them. A
slice selects a view of the rows, an index array or list a gathered copy.
``RawSamples`` also builds ``RawSample`` named tuples, one for an integer
index and one per row when iterated; ``HsvSamples`` has no items.

``load_uci`` reads the file's bytes and parses them in blocks of about
1 MiB, cut at a newline, one vectorised pass per block. That fast path
takes a file only when every byte is an ASCII digit, space, tab or
``\\n``, every token has 1-3 digits, every line holds 0 or 4 tokens,
every channel is at most 255 and every label is 1 or 2. Anything else
-- ``\\r`` line ends, form feeds, signs (``+7``), underscores (``1_0``),
non-ASCII bytes, longer numbers, malformed lines -- sends the whole file
to the slow path, the per-line ``parse_uci``. It accepts what Python's
``str.split`` and ``int`` accept, and it is the only source of
``DatasetError`` messages, so their wording and line numbers do not
depend on where a block was cut.

Splits are reproducible across platforms: the shuffle uses numpy's PCG64
bit generator (seeded, 64-bit, documented stream stability) and the
train size is computed with exact rational arithmetic so that e.g.
N = 299,629 at test fraction 0.30 always lands on 209,740 / 89,889.
"""

import enum
import functools
import io
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .colorspace import rgb_to_hsv_array

PARSE_BLOCK = 1 << 20  # bytes per fast-parse block (cut at the next newline)
RENDER_BLOCK = 65536  # rows per serialize_uci block: about 1 MiB of temporaries


class Label(enum.Enum):
    SKIN = 1
    NON_SKIN = 2


class DatasetError(ValueError):
    """Raised for malformed dataset files; message names the offending line."""


class RawSample(NamedTuple):
    b: int
    g: int
    r: int
    label: Label


_LABELS = (Label.NON_SKIN, Label.SKIN)  # indexed by a Python bool skin flag
_new_sample = functools.partial(tuple.__new__, RawSample)  # a RawSample from a 4-tuple, in C


class _Columns:
    """An (N, 3) uint8 channel array and an (N,) bool skin vector.

    The arrays are held as given, not copied. A slice selects rows as
    views, an integer index array or list as gathered copies.
    """

    def __init__(self, channels: np.ndarray, skin: np.ndarray):
        if skin.dtype != bool or skin.ndim != 1 \
                or channels.dtype != np.uint8 or channels.shape != (len(skin), 3):
            raise ValueError(f"expected (N, 3) uint8 channels and (N,) bool skin, got "
                             f"{channels.dtype}{channels.shape} and {skin.dtype}{skin.shape}")
        self.channels = channels
        self.skin = skin

    def __len__(self) -> int:
        return self.skin.shape[0]

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)) and not isinstance(index, bool):
            return self._item(index)
        return type(self)(self.channels[index], self.skin[index])

    def _item(self, index):
        raise TypeError(f"{type(self).__name__} has no items; index it with a slice or an array")


class RawSamples(_Columns):
    """A dataset as read from disk; an int index builds a RawSample, iterating one per row."""

    @classmethod
    def of(cls, samples):
        """The samples as columns; any iterable of RawSample is read once."""
        if isinstance(samples, cls):
            return samples
        rows = [(b, g, r, label is Label.SKIN) for b, g, r, label in samples]
        table = np.array(rows, dtype=np.uint8).reshape(-1, 4)
        return cls(np.ascontiguousarray(table[:, :3]), table[:, 3].astype(bool))

    def _item(self, index):
        b, g, r = self.channels[index].tolist()
        # a tuple cannot be indexed by the numpy.bool_ that self.skin[index] is
        return RawSample(b, g, r, Label.SKIN if self.skin[index] else Label.NON_SKIN)

    def __iter__(self) -> Iterator[RawSample]:
        labels = map(_LABELS.__getitem__, self.skin.tolist())
        return map(_new_sample, zip(*self.channels.T.tolist(), labels))


class HsvSamples(_Columns):
    """Quantized H, S, V channels and the skin flags."""


@dataclass(frozen=True)
class SplitConfig:
    test_fraction: float = 0.30
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def parse_uci(lines: Iterable[str]) -> RawSamples:
    """Parse the dataset text format into columns, preserving order.

    Empty (all-whitespace) lines are skipped. Any malformed line raises
    DatasetError naming its 1-based line number.
    """
    channels, skin = [], []
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 4:
            raise DatasetError(f"line {lineno}: expected 4 fields, got {len(fields)}")
        try:
            b, g, r, code = (int(f) for f in fields)
        except ValueError:
            raise DatasetError(f"line {lineno}: non-integer field in {fields!r}") from None
        for name, value in (("B", b), ("G", g), ("R", r)):
            if not 0 <= value <= 255:
                raise DatasetError(f"line {lineno}: {name} out of range 0-255: {value}")
        if code not in (1, 2):
            raise DatasetError(f"line {lineno}: label must be 1 or 2, got {code}")
        channels.append((b, g, r))
        skin.append(code == 1)
    return RawSamples(np.array(channels, dtype=np.uint8).reshape(-1, 3),
                      np.array(skin, dtype=bool))


# each value 0-255 as three ASCII bytes, right-aligned and padded with spaces
_DIGITS = np.array([list(f"{v:>3}".encode("ascii")) for v in range(256)], dtype=np.uint8)


def serialize_blocks(samples: RawSamples) -> Iterator[bytes]:
    """serialize_uci's bytes, RENDER_BLOCK rows at a time."""
    for start in range(0, len(samples), RENDER_BLOCK):
        channels = samples.channels[start : start + RENDER_BLOCK]
        skin = samples.skin[start : start + RENDER_BLOCK]
        # fixed-width rows "BBB\tGGG\tRRR\tL\n"; dropping the pad spaces gives the text
        rows = np.empty((len(skin), 14), dtype=np.uint8)
        for j in range(3):
            rows[:, 4 * j : 4 * j + 3] = _DIGITS[channels[:, j]]
        rows[:, 3:12:4] = ord("\t")
        rows[:, 12] = np.where(skin, ord("1"), ord("2"))
        rows[:, 13] = ord("\n")
        yield rows[rows != ord(" ")].tobytes()


def serialize_uci(samples: RawSamples) -> str:
    """Render samples back to the on-disk line format (inverse of parse_uci)."""
    return b"".join(serialize_blocks(samples)).decode("ascii")


def load_uci(path) -> RawSamples:
    """Read a dataset file into columns.

    Raises OSError when the file cannot be read and DatasetError, naming
    the line, when it is malformed.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    channels, skin = [], []
    start = 0
    while start < len(data):
        cut = data.find(b"\n", start + PARSE_BLOCK - 1)
        end = len(data) if cut < 0 else cut + 1
        parsed = _parse_block(data[start:end])
        if parsed is None:
            text = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="surrogateescape")
            return parse_uci(text)
        channels.append(parsed[0])
        skin.append(parsed[1])
        start = end
    if not skin:
        return RawSamples(np.empty((0, 3), dtype=np.uint8), np.empty(0, dtype=bool))
    return RawSamples(np.concatenate(channels), np.concatenate(skin))


def _parse_block(block: bytes):
    """(channels, skin) of a block of whole lines, or None if any of it is not plain.

    Plain means: only ASCII digits, space, tab and newline; tokens of 1-3
    digits; 0 or 4 tokens per line; channels <= 255; labels 1 or 2. Every
    such block reads the same under parse_uci, so np.fromstring only ever
    sees well-formed input.
    """
    if not block.endswith(b"\n"):
        block += b"\n"
    raw = np.frombuffer(block, dtype=np.uint8)
    digit = raw - ord("0") < 10  # uint8 arithmetic wraps, so bytes below "0" land above 9
    newline = raw == ord("\n")
    if not (digit | newline | (raw == ord(" ")) | (raw == ord("\t"))).all():
        return None
    if (digit[:-3] & digit[1:-2] & digit[2:-1] & digit[3:]).any():
        return None  # a token of four or more digits
    token_start = digit.copy()
    token_start[1:] &= ~digit[:-1]
    # the token starts and newlines in file order: a line's tokens sit between two newlines
    is_newline = newline[np.flatnonzero(token_start | newline)]
    per_line = np.diff(np.flatnonzero(is_newline), prepend=-1) - 1
    if not ((per_line == 0) | (per_line == 4)).all():
        return None
    if not per_line.any():  # blank lines only; fromstring would read them as a 0
        return np.empty((0, 3), dtype=np.uint8), np.empty(0, dtype=bool)
    rows = np.fromstring(block, dtype=np.int16, sep=" ").reshape(-1, 4)
    label = rows[:, 3]
    if (rows[:, :3] > 255).any() or not ((label == 1) | (label == 2)).all():
        return None
    return rows[:, :3].astype(np.uint8), label == 1


def label_counts(samples: RawSamples | HsvSamples) -> dict[Label, int]:
    skin = int(samples.skin.sum())
    return {Label.SKIN: skin, Label.NON_SKIN: len(samples) - skin}


def to_hsv_samples(raw: RawSamples | Iterable[RawSample]) -> HsvSamples:
    """Convert raw BGR samples (or RawSample rows) to quantized HSV, order preserved."""
    raw = RawSamples.of(raw)
    return HsvSamples(rgb_to_hsv_array(raw.channels[:, ::-1]), raw.skin)


def hsv_arrays(samples: HsvSamples) -> tuple[np.ndarray, np.ndarray]:
    """Column view of HSV samples: (N, 3) uint8 channels and (N,) bool skin flags."""
    return samples.channels, samples.skin


def train_size(n: int, test_fraction: float) -> int:
    """Exact train-set size: floor(N * (1 - f)) with f read as a decimal.

    The fraction is interpreted through its shortest decimal form, so 0.30
    means exactly 3/10 and the arithmetic never suffers float rounding.
    """
    frac = Fraction(str(test_fraction))
    return int(n * (1 - frac))  # Fraction -> int truncates toward zero; value >= 0


def split(samples: Sequence, cfg: SplitConfig) -> tuple[Sequence, Sequence]:
    """Seeded uniform shuffle, then cut into train and test partitions.

    The shuffle permutation comes from numpy Generator(PCG64(seed)); train
    takes the first floor(N * (1 - test_fraction)) shuffled samples and
    test the remainder, which reproduces a 209,740 / 89,889 cut for
    N = 299,629 at fraction 0.30. Deterministic for a fixed seed. Column
    views come back as views of their kind; any other sequence as numpy
    arrays.
    """
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    perm = rng.permutation(n)
    n_train = train_size(n, cfg.test_fraction)
    table = samples if isinstance(samples, _Columns) else np.asarray(samples)
    return table[perm[:n_train]], table[perm[n_train:]]
