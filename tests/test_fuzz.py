"""Seeded mutation check of the model, image and dataset loaders through the command line.

A valid model file of each kind is corrupted by token substitution,
token deletion, token duplication and line deletion, then used for
`segment --refine --prob-out` on a small image and for `eval` on a
200-row dataset. A valid P6 image and a valid dataset file are
corrupted by byte flips and truncations, then read by
`segment --refine --prob-out`, and by `train` and `eval`. The image's
width, height and maxval header tokens are also replaced, one at a time,
by every substitute value and by 0, 1 and 2. Every corrupted image is
segmented both at full size and with `--downscale`. Every case
must either succeed (with a well-formed mask, for `segment`) or exit 2
with a message naming the corrupted file; an exit 3 (an exception the
loader did not turn into a ValueError) or a mask byte outside {0, 255}
fails the test. The seed and case counts are fixed, so the same files
are generated on every run.
"""

import numpy as np
import pytest

from skinseg import cli
from skinseg.raster import Image, read_pgm, read_ppm, write_ppm

from conftest import surrogate_rows

FUZZ_SEED = 20240601
CASES_PER_KIND = 150
BYTE_CASES = 150  # per corrupted image, and per corrupted dataset
SUBSTITUTES = ("nan", "inf", "-0", "1e308", "-1", "256", "99999999999999999999")
HEADER_VALUES = SUBSTITUTES + ("0", "1", "2")  # 1 leaves an image too small to halve
KINDS = ("threshold", "bayes", "tree", "mlp")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def small_dataset(fuzz_dir):
    path = fuzz_dir / "rows.txt"
    path.write_text("\n".join(surrogate_rows(80, 120, seed=9)) + "\n", encoding="ascii")
    return path


@pytest.fixture(scope="module")
def small_image(fuzz_dir):
    rng = np.random.default_rng(FUZZ_SEED)
    path = fuzz_dir / "noise.ppm"
    path.write_bytes(write_ppm(Image(pixels=rng.integers(0, 256, (9, 11, 3), dtype=np.uint8))))
    return path


def _trained_model(kind, dataset, directory):
    path = directory / f"{kind}.model"
    extra = ["--epochs", "1"] if kind == "mlp" else []
    assert cli.main(["train", "--dataset", str(dataset), "--model", str(path),
                     "--kind", kind, *extra]) == 0
    return path.read_text(encoding="ascii")


def _mutate(text, rng):
    """One corruption of a model file: a token replaced, deleted or
    duplicated, or a whole line deleted."""
    lines = text.splitlines()
    i = int(rng.integers(len(lines)))
    tokens = lines[i].split()
    j = int(rng.integers(len(tokens)))
    op = int(rng.integers(4))
    if op == 0:
        tokens[j] = SUBSTITUTES[int(rng.integers(len(SUBSTITUTES)))]
    elif op == 1:
        del tokens[j]
    elif op == 2:
        tokens.insert(j, tokens[j])
    if op == 3:
        del lines[i]
    else:
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def _corrupt_bytes(data, header_size, rng):
    """One corruption of a file: a byte flipped (half the time within its
    first header_size bytes) or the file cut short."""
    data = bytearray(data)
    if rng.random() < 0.25:
        return bytes(data[: int(rng.integers(len(data)))])
    end = header_size if rng.random() < 0.5 else len(data)
    data[int(rng.integers(end))] ^= int(rng.integers(1, 256))
    return bytes(data)


def _header_mutants(good):
    """The image with its width, height or maxval token replaced by each
    of HEADER_VALUES in turn."""
    header_size = good.index(b"255\n") + 4
    fields = good[:header_size].split()[1:]
    for i in range(len(fields)):
        for value in HEADER_VALUES:
            mutant = list(fields)
            mutant[i] = value.encode("ascii")
            yield b"P6\n%s %s\n%s\n" % tuple(mutant) + good[header_size:]


def _run(argv, path, capsys, context):
    """cli.main(argv): exit 0, or exit 2 naming path on stderr."""
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc in (0, 2), (*context, err)
    if rc == 2:
        assert str(path) in err, (*context, err)
    return rc


def test_corrupted_images_exit_0_or_2(small_dataset, small_image, fuzz_dir, capsys):
    _trained_model("bayes", small_dataset, fuzz_dir)
    model_path = fuzz_dir / "bayes.model"
    good = small_image.read_bytes()
    header_size = good.index(b"255\n") + 4
    rng = np.random.default_rng([FUZZ_SEED, 10])
    image_path, mask_path = fuzz_dir / "mutant.ppm", fuzz_dir / "mask.pgm"
    for case in range(BYTE_CASES):
        image_path.write_bytes(_corrupt_bytes(good, header_size, rng))
        mask_path.unlink(missing_ok=True)
        argv = ["segment", "--model", str(model_path), "--input", str(image_path),
                "--output", str(mask_path), "--refine", "--prob-out",
                str(fuzz_dir / "prob.pgm")]
        if _run(argv, image_path, capsys, (case,)) == 0:
            assert set(np.unique(read_pgm(mask_path.read_bytes())).tolist()) <= {0, 255}


def _segment_mutants(mutants, model_path, fuzz_dir, capsys, downscale):
    """segment --refine --prob-out on each mutant image: exit 0 with a mask
    of the image's size holding only 0 and 255, or exit 2 naming the image."""
    image_path, mask_path = fuzz_dir / "mutant.ppm", fuzz_dir / "mask.pgm"
    for case, data in enumerate(mutants):
        image_path.write_bytes(data)
        mask_path.unlink(missing_ok=True)
        argv = ["segment", "--model", str(model_path), "--input", str(image_path),
                "--output", str(mask_path), "--refine", "--prob-out",
                str(fuzz_dir / "prob.pgm")] + (["--downscale"] if downscale else [])
        if _run(argv, image_path, capsys, (case, downscale)) == 0:
            mask = read_pgm(mask_path.read_bytes())
            assert mask.shape == read_ppm(data).pixels.shape[:2], case
            assert set(np.unique(mask).tolist()) <= {0, 255}, case


def test_corrupted_images_downscaled_exit_0_or_2(small_dataset, small_image, fuzz_dir, capsys):
    _trained_model("bayes", small_dataset, fuzz_dir)
    good = small_image.read_bytes()
    header_size = good.index(b"255\n") + 4
    rng = np.random.default_rng([FUZZ_SEED, 10])  # the images of the full-size test above
    mutants = (_corrupt_bytes(good, header_size, rng) for _ in range(BYTE_CASES))
    _segment_mutants(mutants, fuzz_dir / "bayes.model", fuzz_dir, capsys, downscale=True)


@pytest.mark.parametrize("downscale", [False, True], ids=["full", "downscale"])
def test_substituted_image_header_tokens_exit_0_or_2(downscale, small_dataset, small_image,
                                                     fuzz_dir, capsys):
    _trained_model("bayes", small_dataset, fuzz_dir)
    mutants = _header_mutants(small_image.read_bytes())
    _segment_mutants(mutants, fuzz_dir / "bayes.model", fuzz_dir, capsys, downscale)


def test_corrupted_datasets_exit_0_or_2(small_dataset, fuzz_dir, capsys):
    _trained_model("tree", small_dataset, fuzz_dir)
    model_path = fuzz_dir / "tree.model"
    good = small_dataset.read_bytes()
    rng = np.random.default_rng([FUZZ_SEED, 11])
    dataset_path = fuzz_dir / "mutant.txt"
    for case in range(BYTE_CASES):
        dataset_path.write_bytes(_corrupt_bytes(good, len(good), rng))
        for argv in (
            ["train", "--dataset", str(dataset_path), "--model", str(fuzz_dir / "out.model"),
             "--kind", "tree"],
            ["eval", "--dataset", str(dataset_path), "--model", str(model_path)],
        ):
            _run(argv, dataset_path, capsys, (case, argv[0]))


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_model_files_exit_0_or_2(kind, small_dataset, small_image, fuzz_dir, capsys):
    good = _trained_model(kind, small_dataset, fuzz_dir)
    capsys.readouterr()
    rng = np.random.default_rng([FUZZ_SEED, KINDS.index(kind)])
    model_path, mask_path = fuzz_dir / f"mutant-{kind}.model", fuzz_dir / "mask.pgm"
    prob_path = fuzz_dir / "prob.pgm"
    for case in range(CASES_PER_KIND):
        text = _mutate(good, rng)
        model_path.write_text(text, encoding="ascii")
        for argv in (
            ["segment", "--model", str(model_path), "--input", str(small_image),
             "--output", str(mask_path), "--refine", "--prob-out", str(prob_path)],
            ["eval", "--dataset", str(small_dataset), "--model", str(model_path)],
        ):
            mask_path.unlink(missing_ok=True)
            rc = cli.main(argv)
            err = capsys.readouterr().err
            context = (case, argv[0], err)
            assert rc in (0, 2), context
            if rc == 2:
                assert str(model_path) in err, context
            elif argv[0] == "segment":
                assert set(np.unique(read_pgm(mask_path.read_bytes())).tolist()) <= {0, 255}
