"""Shared fixtures: a synthetic surrogate dataset and real-data discovery.

The surrogate dataset mimics the UCI skin file's layout (B G R label
rows) with two overlapping colour clusters, so every training path can
be exercised quickly and deterministically. Tests that need the real
UCI file look for it under data/ and skip with instructions otherwise.
"""

import os
import sys

# no __pycache__ is left under src/, where a later benchmark run would read
# it and time a cached import as set-up; the CLI subprocesses inherit this
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from pathlib import Path

import numpy as np
import pytest

from skinseg.dataset import parse_uci

REPO_ROOT = Path(__file__).resolve().parent.parent

UCI_CANDIDATES = (
    REPO_ROOT / "data" / "Skin_NonSkin.txt",
    REPO_ROOT / "data" / "skin_nonskin.txt",
)

UCI_HELP = (
    "real dataset not found; download the UCI 'Skin Segmentation' file "
    "(Skin_NonSkin.txt) and place it at data/Skin_NonSkin.txt"
)


def find_uci_file():
    for candidate in UCI_CANDIDATES:
        if candidate.is_file():
            return candidate
    return None


@pytest.fixture(scope="session")
def uci_path():
    path = find_uci_file()
    if path is None:
        pytest.skip(UCI_HELP)
    return path


def surrogate_rows(n_skin: int = 2100, n_non: int = 2900, seed: int = 604):
    """Deterministic synthetic dataset in the UCI row format (B G R label).

    Skin rows cluster around warm, red-dominant colours; non-skin rows
    are drawn from the whole cube with a cool bias. The clusters overlap
    a little so the classifiers have something non-trivial to do.
    """
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_skin):
        r = rng.integers(140, 256)
        g = int(np.clip(r - rng.integers(30, 110), 0, 255))
        b = int(np.clip(g - rng.integers(0, 80), 0, 255))
        lines.append(f"{b}\t{g}\t{r}\t1")
    for _ in range(n_non):
        if rng.random() < 0.7:
            b = rng.integers(60, 256)
            g = rng.integers(0, 200)
            r = rng.integers(0, 170)
        else:  # anywhere, including skin-like colours
            r, g, b = rng.integers(0, 256, size=3)
        lines.append(f"{b}\t{g}\t{r}\t2")
    return lines


@pytest.fixture(scope="session")
def surrogate_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "surrogate.txt"
    path.write_text("\n".join(surrogate_rows()) + "\n", encoding="ascii")
    return path


@pytest.fixture(scope="session")
def surrogate_samples(surrogate_file):
    return parse_uci(surrogate_file.read_text(encoding="ascii").splitlines())
