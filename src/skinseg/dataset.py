"""UCI skin-segmentation file parsing, HSV conversion and seeded splits.

The on-disk format is one sample per line: four whitespace-separated
base-10 integers ``B G R label`` with label 1 = skin, 2 = non-skin.

Splits are reproducible across platforms: the shuffle uses numpy's PCG64
bit generator (seeded, 64-bit, documented stream stability) and the
train size is computed with exact rational arithmetic so that e.g.
N = 299,629 at test fraction 0.30 always lands on 209,740 / 89,889.
"""

import enum
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Iterable

import numpy as np

from .colorspace import rgb_to_hsv_array


class Label(enum.Enum):
    SKIN = 1
    NON_SKIN = 2

    @classmethod
    def from_code(cls, code: int) -> "Label":
        if code == 1:
            return cls.SKIN
        if code == 2:
            return cls.NON_SKIN
        raise ValueError(f"label code must be 1 or 2, got {code}")

    @property
    def code(self) -> int:
        return self.value


class DatasetError(ValueError):
    """Raised for malformed dataset files; message names the offending line."""


@dataclass(frozen=True)
class RawSample:
    b: int
    g: int
    r: int
    label: Label


@dataclass(frozen=True)
class HsvSample:
    h: int
    s: int
    v: int
    label: Label


@dataclass(frozen=True)
class SplitConfig:
    test_fraction: float = 0.30
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")


def parse_uci(lines: Iterable[str]) -> list[RawSample]:
    """Parse the dataset text format into samples, preserving order.

    Empty (all-whitespace) lines are skipped. Any malformed line raises
    DatasetError naming its 1-based line number.
    """
    samples = []
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
        samples.append(RawSample(b=b, g=g, r=r, label=Label.from_code(code)))
    return samples


def serialize_uci(samples: Iterable[RawSample]) -> str:
    """Render samples back to the on-disk line format (inverse of parse_uci)."""
    return "".join(f"{s.b}\t{s.g}\t{s.r}\t{s.label.code}\n" for s in samples)


def load_uci(path) -> list[RawSample]:
    with open(path, "r", encoding="ascii") as fh:
        return parse_uci(fh)


def label_counts(samples) -> dict[Label, int]:
    counts = {Label.SKIN: 0, Label.NON_SKIN: 0}
    for s in samples:
        counts[s.label] += 1
    return counts


def to_hsv_samples(raw: list[RawSample]) -> list[HsvSample]:
    """Convert raw BGR samples to quantized HSV samples, order preserved."""
    if not raw:
        return []
    hsv = rgb_to_hsv_array(_columns(raw, ("r", "g", "b")))
    return [
        HsvSample(h=int(row[0]), s=int(row[1]), v=int(row[2]), label=s.label)
        for row, s in zip(hsv, raw)
    ]


def hsv_arrays(samples: list[HsvSample]) -> tuple[np.ndarray, np.ndarray]:
    """Column view of HSV samples: (N, 3) uint8 channels and (N,) bool skin flags."""
    hsv = _columns(samples, ("h", "s", "v"))
    skin = np.fromiter((s.label is Label.SKIN for s in samples), dtype=bool, count=len(samples))
    return hsv, skin


def _columns(samples: list, names: tuple[str, ...]) -> np.ndarray:
    """(N, len(names)) uint8 array of the samples' named fields.

    Filled one column at a time from an iterator, so no list of N
    per-sample tuples is ever built.
    """
    out = np.empty((len(samples), len(names)), dtype=np.uint8)
    for j, name in enumerate(names):
        out[:, j] = np.fromiter(map(attrgetter(name), samples), dtype=np.uint8, count=len(samples))
    return out


def train_size(n: int, test_fraction: float) -> int:
    """Exact train-set size: floor(N * (1 - f)) with f read as a decimal.

    The fraction is interpreted through its shortest decimal form, so 0.30
    means exactly 3/10 and the arithmetic never suffers float rounding.
    """
    frac = Fraction(str(test_fraction))
    return int(n * (1 - frac))  # Fraction -> int truncates toward zero; value >= 0


def split(samples: list, cfg: SplitConfig) -> tuple[list, list]:
    """Seeded uniform shuffle, then cut into train and test partitions.

    The shuffle permutation comes from numpy Generator(PCG64(seed)); train
    takes the first floor(N * (1 - test_fraction)) shuffled samples and
    test the remainder, which reproduces a 209,740 / 89,889 cut for
    N = 299,629 at fraction 0.30. Deterministic for a fixed seed.
    """
    n = len(samples)
    if n < 2:
        raise ValueError(f"need at least 2 samples to split, got {n}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    perm = rng.permutation(n)
    shuffled = [samples[i] for i in perm]
    n_train = train_size(n, cfg.test_fraction)
    return shuffled[:n_train], shuffled[n_train:]
