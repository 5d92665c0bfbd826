"""End-to-end command-line coverage on the surrogate dataset."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from skinseg import cli
from skinseg.classifiers import bayes_predict_batch, threshold_scores, tree_predict_batch
from skinseg.dataset import SplitConfig, hsv_arrays, parse_uci, split, to_hsv_samples
from skinseg.metrics import (
    confusion_from_flags,
    format_percent,
    format_report,
    parse_report,
    roc_auc,
    scalar_metrics,
)
from skinseg.model_io import dataset_fingerprint, load_model
from skinseg.neighbourhood import NeighbourhoodConfig
from skinseg.nn import mlp_predict_batch
from skinseg.raster import Image, downscale_half, read_pgm, read_ppm, write_ppm
from skinseg.segment import probability_rendering, segment_image, stage1_probabilities

from conftest import surrogate_rows

SKIN_TONE = (210, 140, 120)  # lands inside the YCbCr slab
COOL_BLUE = (20, 40, 210)


def _write_ppm(path, pixels):
    path.write_bytes(write_ppm(Image(pixels=np.asarray(pixels, dtype=np.uint8))))
    return path


def _flat_image(path, rgb, w=8, h=6):
    return _write_ppm(path, np.tile(np.array(rgb, dtype=np.uint8), (h, w, 1)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def threshold_model(workdir, surrogate_file):
    path = workdir / "threshold.model"
    rc = cli.main(["train", "--dataset", str(surrogate_file), "--model", str(path),
                   "--kind", "threshold"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def bayes_model(workdir, surrogate_file):
    path = workdir / "bayes.model"
    rc = cli.main(["train", "--dataset", str(surrogate_file), "--model", str(path),
                   "--kind", "bayes"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def tree_model(workdir, surrogate_file):
    path = workdir / "tree.model"
    rc = cli.main(["train", "--dataset", str(surrogate_file), "--model", str(path),
                   "--kind", "tree"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def mlp_model(workdir, surrogate_file):
    path = workdir / "mlp.model"
    rc = cli.main(["train", "--dataset", str(surrogate_file), "--model", str(path),
                   "--kind", "mlp", "--epochs", "3"])
    assert rc == 0
    return path


def test_train_summary_lines(workdir, surrogate_file, capsys):
    path = workdir / "tree.model"
    rc = cli.main(["train", "--dataset", str(surrogate_file), "--model", str(path),
                   "--kind", "tree", "--seed", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kind: tree\n" in out
    assert "samples: 5000\n" in out
    assert "skin: 2100\n" in out
    assert "non_skin: 2900\n" in out
    assert "train_size: 3500\n" in out
    assert "test_size: 1500\n" in out
    assert "seed: 2\n" in out
    assert "tree_depth: " in out and "tree_nodes: " in out
    assert f"model_file: {path}" in out


def test_train_bayes_priors_match_hand_count(workdir, tmp_path, capsys):
    """Class priors recoverable from the model file equal hand-counted ones."""
    # two rows per class: every 3-row training subset keeps both classes
    rows = ["10 20 30 1", "11 21 31 1", "90 90 90 2", "91 91 91 2"]
    data = tmp_path / "toy.txt"
    data.write_text("\n".join(rows) + "\n", encoding="ascii")
    path = tmp_path / "toy.model"
    rc = cli.main(["train", "--dataset", str(data), "--model", str(path),
                   "--kind", "bayes", "--test-fraction", "0.25", "--alpha", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "alpha: 1\n" in out
    saved = load_model(path)
    counts = saved.model.class_counts
    # 3 of the 4 rows train; the held-out row is the shuffled tail
    assert counts.sum() == 3
    priors = saved.model.priors
    assert priors[0] == pytest.approx(counts[0] / 3)
    assert priors[1] == pytest.approx(counts[1] / 3)


def test_train_mlp_reports_schedule_and_losses(tmp_path, capsys):
    data = tmp_path / "small.txt"
    data.write_text("\n".join(surrogate_rows(400, 500, seed=9)) + "\n", encoding="ascii")
    path = tmp_path / "mlp.model"
    rc = cli.main(["train", "--dataset", str(data), "--model", str(path), "--kind", "mlp"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "epochs: 12, batch_size: 53\n" in out
    loss_lines = [ln for ln in out.splitlines() if ln.startswith("epoch_loss: ")]
    assert len(loss_lines) == 12
    assert loss_lines[0].split()[1] == "1" and loss_lines[-1].split()[1] == "12"
    losses = [float(ln.split()[2]) for ln in loss_lines]
    assert losses[-1] < losses[0]  # training moved downhill


def test_repeated_training_is_byte_identical(workdir, surrogate_file, bayes_model):
    again = workdir / "bayes-again.model"
    rc = cli.main(["train", "--dataset", str(surrogate_file), "--model", str(again),
                   "--kind", "bayes"])
    assert rc == 0
    assert again.read_bytes() == bayes_model.read_bytes()


def test_repeated_mlp_training_is_byte_identical(workdir, surrogate_file, mlp_model):
    again = workdir / "mlp-again.model"
    rc = cli.main(["train", "--dataset", str(surrogate_file), "--model", str(again),
                   "--kind", "mlp", "--epochs", "3"])
    assert rc == 0
    assert again.read_bytes() == mlp_model.read_bytes()


def test_cli_subprocess_matches_in_process(workdir, surrogate_file, bayes_model, tmp_path):
    out = tmp_path / "sub.model"
    proc = subprocess.run(
        [sys.executable, "-c", "from skinseg.cli import entry; entry()",
         "train", "--dataset", str(surrogate_file), "--model", str(out),
         "--kind", "bayes"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "model_file:" in proc.stdout
    assert out.read_bytes() == bayes_model.read_bytes()


def _run_python(*args):
    """Run a fresh interpreter that imports skinseg from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))


@pytest.mark.parametrize("module", ["skinseg", "skinseg.cli"])
def test_python_dash_m_runs_the_cli(module, threshold_model, tmp_path):
    image = _flat_image(tmp_path / "skin.ppm", SKIN_TONE)
    mask_path = tmp_path / "mask.pgm"
    proc = _run_python("-m", module, "segment", "--model", str(threshold_model),
                       "--input", str(image), "--output", str(mask_path))
    assert proc.returncode == 0, proc.stderr
    assert f"mask_file: {mask_path}" in proc.stdout
    assert np.all(read_pgm(mask_path.read_bytes()) == 255)

    bad = tmp_path / "truncated.ppm"
    bad.write_bytes(image.read_bytes()[:-1])
    proc = _run_python("-m", module, "segment", "--model", str(threshold_model),
                       "--input", str(bad), "--output", str(tmp_path / "bad.pgm"))
    assert proc.returncode == 2
    assert str(bad) in proc.stderr
    assert not (tmp_path / "bad.pgm").exists()


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # nothing the segment and bench commands run draws random numbers
    proc = _run_python("-c", "import sys, skinseg.cli; print('numpy.random' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_package_root_binds_only_the_version():
    # library names come from their defining modules, so importing the
    # package alone loads no submodule and no numpy
    proc = _run_python("-c", "import sys, skinseg; print(skinseg.__version__); "
                             "print(sorted(m for m in sys.modules "
                             "if m.startswith(('skinseg.', 'numpy'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1.0.0\n[]\n"


def test_eval_writes_parseable_report(workdir, surrogate_file, bayes_model, tmp_path, capsys):
    report_path = tmp_path / "report.txt"
    rc = cli.main(["eval", "--dataset", str(surrogate_file), "--model", str(bayes_model),
                   "--output", str(report_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.err == ""  # same dataset, same seed: no warnings
    text = report_path.read_text(encoding="ascii")
    assert captured.out == text
    report, matrix = parse_report(text)
    assert matrix.total == 1500  # the held-out 30% of 5000
    assert report.accuracy == pytest.approx((matrix.tp + matrix.tn) / 1500)
    assert "# accuracy " in text and text.count("%") == 5


def test_eval_threshold_auc_matches_two_point_curve(workdir, surrogate_file,
                                                    threshold_model, capsys):
    rc = cli.main(["eval", "--dataset", str(surrogate_file), "--model", str(threshold_model)])
    out = capsys.readouterr().out
    assert rc == 0
    report, m = parse_report(out)
    # {0,1} scores give a single interior ROC point (fpr, tpr)
    tpr = m.tp / (m.tp + m.fn)
    fpr = m.fp / (m.fp + m.tn)
    expected = fpr * tpr / 2.0 + (1.0 - fpr) * (tpr + 1.0) / 2.0
    assert report.auc == pytest.approx(expected, abs=1e-12)


# per-row scoring of the held-out split through its HSV samples
PER_ROW = {
    "threshold": lambda model, rgb, hsv: threshold_scores(rgb, model),
    "bayes": lambda model, rgb, hsv: bayes_predict_batch(model, hsv),
    "tree": lambda model, rgb, hsv: tree_predict_batch(model, hsv),
    "mlp": lambda model, rgb, hsv: mlp_predict_batch(model, hsv),
}


@pytest.mark.parametrize("kind", ["threshold", "bayes", "tree", "mlp"])
def test_eval_report_matches_per_row_scoring(kind, surrogate_file, surrogate_samples,
                                             request, capsys):
    model_path = request.getfixturevalue(f"{kind}_model")
    capsys.readouterr()  # drop the summary of a model trained on first use
    rc = cli.main(["eval", "--dataset", str(surrogate_file), "--model", str(model_path)])
    out = capsys.readouterr().out
    assert rc == 0

    saved = load_model(model_path)
    _, test_raw = split(surrogate_samples, SplitConfig(test_fraction=0.30, seed=saved.seed))
    hsv, truth = hsv_arrays(to_hsv_samples(test_raw))
    rgb = np.array([(s.r, s.g, s.b) for s in test_raw], dtype=np.uint8)
    scores = PER_ROW[kind](saved.model, rgb, hsv)
    matrix = confusion_from_flags(scores >= 0.5, truth)
    _, auc = roc_auc(scores, [s.label for s in test_raw])
    report = scalar_metrics(matrix, auc=auc)
    expected = format_report(report, matrix) + "".join(
        f"# {name} {format_percent(getattr(report, name))}\n"
        for name in ("accuracy", "sensitivity", "specificity", "precision", "f1")
    )
    assert out == expected


def test_eval_repeated_reports_identical(workdir, surrogate_file, bayes_model, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert cli.main(["eval", "--dataset", str(surrogate_file), "--model", str(bayes_model),
                     "--output", str(a)]) == 0
    assert cli.main(["eval", "--dataset", str(surrogate_file), "--model", str(bayes_model),
                     "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_eval_seed_mismatch_warns(workdir, surrogate_file, bayes_model, capsys):
    rc = cli.main(["eval", "--dataset", str(surrogate_file), "--model", str(bayes_model),
                   "--seed", "5"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "differs from the model's training seed" in captured.err


def test_eval_fingerprint_mismatch_warns(workdir, bayes_model, tmp_path, capsys):
    other = tmp_path / "other.txt"
    other.write_text("\n".join(surrogate_rows(seed=605)) + "\n", encoding="ascii")
    rc = cli.main(["eval", "--dataset", str(other), "--model", str(bayes_model)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "fingerprint does not match" in captured.err


def test_eval_single_class_split_reports_auc_undefined(workdir, bayes_model, tmp_path, capsys):
    # every held-out row is non-skin, so the ROC curve has no positives
    one_class = tmp_path / "non_skin_only.txt"
    one_class.write_text("\n".join(surrogate_rows(n_skin=0, n_non=40)) + "\n", encoding="ascii")
    rc = cli.main(["eval", "--dataset", str(one_class), "--model", str(bayes_model)])
    out = capsys.readouterr().out
    assert rc == 0
    report, matrix = parse_report(out)
    assert report.auc is None and "\nauc undefined\n" in out
    assert matrix.tp + matrix.fn == 0 and matrix.total == 12


def test_eval_nan_score_is_an_internal_error(workdir, surrogate_file, bayes_model,
                                             monkeypatch, capsys):
    # a NaN score is a fault in scoring, not a single-class split: roc_auc's
    # error must reach the CLI boundary instead of reading as auc undefined
    score_rgb = cli.score_rgb

    def one_nan(model, rgb):
        scores = np.array(score_rgb(model, rgb), dtype=np.float64)
        scores[0] = np.nan
        return scores

    monkeypatch.setattr(cli, "score_rgb", one_nan)
    rc = cli.main(["eval", "--dataset", str(surrogate_file), "--model", str(bayes_model)])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_INTERNAL == 3
    assert captured.out == ""
    assert "ROC scores must not be NaN" in captured.err


def test_segment_all_blue_is_empty_mask(workdir, threshold_model, tmp_path, capsys):
    image = _flat_image(tmp_path / "blue.ppm", COOL_BLUE)
    mask_path = tmp_path / "mask.pgm"
    rc = cli.main(["segment", "--model", str(threshold_model), "--input", str(image),
                   "--output", str(mask_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "size: 8x6\n" in out
    assert "skin_pixels: 0\n" in out
    assert f"mask_file: {mask_path}" in out
    assert "elapsed_seconds: " in out
    mask = read_pgm(mask_path.read_bytes())
    assert mask.shape == (6, 8) and not mask.any()


def test_segment_skin_tone_is_full_mask(workdir, threshold_model, tmp_path, capsys):
    image = _flat_image(tmp_path / "skin.ppm", SKIN_TONE)
    mask_path = tmp_path / "mask.pgm"
    rc = cli.main(["segment", "--model", str(threshold_model), "--input", str(image),
                   "--output", str(mask_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "skin_pixels: 48\n" in out
    assert np.all(read_pgm(mask_path.read_bytes()) == 255)


def _components(flags: np.ndarray) -> int:
    """4-connected component count over a boolean grid."""
    seen = np.zeros_like(flags, dtype=bool)
    h, w = flags.shape
    total = 0
    for y in range(h):
        for x in range(w):
            if not flags[y, x] or seen[y, x]:
                continue
            total += 1
            stack = [(y, x)]
            seen[y, x] = True
            while stack:
                cy, cx = stack.pop()
                for ny, nx in ((cy + 1, cx), (cy - 1, cx), (cy, cx + 1), (cy, cx - 1)):
                    if 0 <= ny < h and 0 <= nx < w and flags[ny, nx] and not seen[ny, nx]:
                        seen[ny, nx] = True
                        stack.append((ny, nx))
    return total


@pytest.fixture(scope="module")
def noisy_disc(tmp_path_factory):
    """A skin-tone disc on a cool background plus isolated skin-tone specks."""
    rng = np.random.default_rng(42)
    h, w = 48, 48
    pixels = np.tile(np.array(COOL_BLUE, dtype=np.uint8), (h, w, 1))
    yy, xx = np.mgrid[0:h, 0:w]
    disc = (yy - 24) ** 2 + (xx - 24) ** 2 <= 10 ** 2
    pixels[disc] = SKIN_TONE
    placed = []
    while len(placed) < 20:
        y, x = int(rng.integers(1, h - 1)), int(rng.integers(1, w - 1))
        if (yy[y, x] - 24) ** 2 + (xx[y, x] - 24) ** 2 <= 14 ** 2:
            continue  # keep clear of the disc
        if any(abs(y - py) <= 2 and abs(x - px) <= 2 for py, px in placed):
            continue  # keep the specks isolated from each other
        placed.append((y, x))
        pixels[y, x] = SKIN_TONE
    path = tmp_path_factory.mktemp("img") / "disc.ppm"
    return _write_ppm(path, pixels)


def test_refinement_removes_isolated_specks(workdir, mlp_model, noisy_disc, tmp_path):
    plain_path = tmp_path / "plain.pgm"
    refined_path = tmp_path / "refined.pgm"
    assert cli.main(["segment", "--model", str(mlp_model), "--input", str(noisy_disc),
                     "--output", str(plain_path)]) == 0
    assert cli.main(["segment", "--model", str(mlp_model), "--input", str(noisy_disc),
                     "--output", str(refined_path), "--refine"]) == 0
    plain = read_pgm(plain_path.read_bytes()) == 255
    refined = read_pgm(refined_path.read_bytes()) == 255
    assert _components(plain) > 1  # the specks really do show up
    assert _components(refined) < _components(plain)
    assert refined[24, 24]  # the disc core survives


def test_segment_refine_flags_and_prob_out(workdir, mlp_model, noisy_disc, tmp_path, capsys):
    mask_path = tmp_path / "mask.pgm"
    prob_path = tmp_path / "prob.pgm"
    rc = cli.main(["segment", "--model", str(mlp_model), "--input", str(noisy_disc),
                   "--output", str(mask_path), "--refine", "--rule", "paper",
                   "--radius", "1", "--tau", "0.5", "--prob-out", str(prob_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"probability_file: {prob_path}" in out
    probs = read_pgm(prob_path.read_bytes())
    assert probs.shape == (48, 48)
    assert probs.max() > 200 and probs.min() < 50  # confident at both poles


@pytest.mark.parametrize("rule", ["symmetric", "paper"])
def test_refine_radius_past_the_image_clips(workdir, mlp_model, tmp_path, rule):
    """A radius far beyond an 80x60 image gives the whole-image window.

    2^63 is past int64, so it must be clipped before it meets an index array.
    """
    rng = np.random.default_rng(8)
    pixels = np.where(rng.random((60, 80, 1)) < 0.3, SKIN_TONE, COOL_BLUE)
    image = _write_ppm(tmp_path / "wide.ppm", pixels)
    masks = []
    # 79 = max(h, w) - 1 already spans the image
    for radius in ("100000", "9223372036854775808", "79"):
        mask_path = tmp_path / f"r{radius}.pgm"
        assert cli.main(["segment", "--model", str(mlp_model), "--input", str(image),
                         "--output", str(mask_path), "--refine", "--rule", rule,
                         "--radius", radius]) == 0
        masks.append(mask_path.read_bytes())
    assert masks[0] == masks[1] == masks[2]
    assert cli.main(["bench", "--model", str(mlp_model), "--input", str(image),
                     "--rule", rule, "--radius", "9223372036854775808"]) == 0


def test_prob_out_writes_the_final_map_at_working_resolution(workdir, mlp_model, noisy_disc,
                                                             tmp_path):
    model = load_model(mlp_model).model
    image = read_ppm(noisy_disc.read_bytes())
    prob_path = tmp_path / "prob.pgm"

    # with --refine: the refined map, not the stage-1 one
    assert cli.main(["segment", "--model", str(mlp_model), "--input", str(noisy_disc),
                     "--output", str(tmp_path / "m.pgm"), "--refine",
                     "--prob-out", str(prob_path)]) == 0
    refined = segment_image(image, model, refine_cfg=NeighbourhoodConfig()).probabilities
    written = read_pgm(prob_path.read_bytes())
    assert np.array_equal(written, probability_rendering(refined))
    assert not np.array_equal(written,
                              probability_rendering(stage1_probabilities(image, model)))

    # with --downscale: half the input's width and height
    assert cli.main(["segment", "--model", str(mlp_model), "--input", str(noisy_disc),
                     "--output", str(tmp_path / "m.pgm"), "--downscale",
                     "--prob-out", str(prob_path)]) == 0
    written = read_pgm(prob_path.read_bytes())
    assert written.shape == (24, 24)
    half = stage1_probabilities(downscale_half(image), model)
    assert np.array_equal(written, probability_rendering(half))


def test_segment_downscale_keeps_dimensions(workdir, threshold_model, tmp_path):
    rng = np.random.default_rng(3)
    pixels = rng.integers(0, 256, size=(25, 17, 3), dtype=np.uint8)
    image = _write_ppm(tmp_path / "odd.ppm", pixels)
    mask_path = tmp_path / "odd.pgm"
    rc = cli.main(["segment", "--model", str(threshold_model), "--input", str(image),
                   "--output", str(mask_path), "--downscale"])
    assert rc == 0
    assert read_pgm(mask_path.read_bytes()).shape == (25, 17)


def test_segment_masks_deterministic(workdir, mlp_model, noisy_disc, tmp_path):
    a, b = tmp_path / "a.pgm", tmp_path / "b.pgm"
    for path in (a, b):
        assert cli.main(["segment", "--model", str(mlp_model), "--input", str(noisy_disc),
                         "--output", str(path), "--refine"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bench_reports_all_legs(workdir, threshold_model, tmp_path, capsys):
    image = _flat_image(tmp_path / "bench.ppm", SKIN_TONE, w=16, h=12)
    rc = cli.main(["bench", "--model", str(threshold_model), "--input", str(image)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "runs: 5\n" in out
    for key in ("stage1_seconds: ", "full_seconds: ", "downscale_seconds: ", "speedup: "):
        assert key in out


@pytest.mark.parametrize("command", ["segment", "bench"])
@pytest.mark.parametrize("w, h", [(1, 1), (1, 5), (5, 1)])
def test_image_too_small_to_halve_exits_2_naming_it(command, w, h, workdir, threshold_model,
                                                    tmp_path, capsys):
    image = _flat_image(tmp_path / f"tiny-{w}x{h}.ppm", SKIN_TONE, w=w, h=h)
    argv = [command, "--model", str(threshold_model), "--input", str(image)]
    if command == "segment":
        argv += ["--output", str(tmp_path / "mask.pgm"), "--downscale"]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"cannot segment image {image}: " in err


def test_bench_rejects_an_image_it_cannot_halve_before_timing(workdir, threshold_model,
                                                                  tmp_path, capsys, monkeypatch):
    image = _flat_image(tmp_path / "tiny-1x5.ppm", SKIN_TONE, w=1, h=5)
    calls = []
    monkeypatch.setattr(cli, "segment_image", lambda *a, **k: calls.append(a))
    rc = cli.main(["bench", "--model", str(threshold_model), "--input", str(image)])
    assert rc == 2
    assert capsys.readouterr().err == (f"error: cannot segment image {image}: "
                                       "image too small to halve: 1x5\n")
    assert calls == []


def test_dataset_stats(workdir, surrogate_file, surrogate_samples, capsys):
    rc = cli.main(["dataset-stats", "--dataset", str(surrogate_file)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "samples: 5000\n" in out
    assert "skin: 2100\n" in out
    assert "non_skin: 2900\n" in out
    assert "train_size: 3500\n" in out
    assert "test_size: 1500\n" in out
    assert f"fingerprint: {dataset_fingerprint(surrogate_samples)}\n" in out


# ------------------------------------------------------------- exit codes


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_mlp_weight_exits_2(workdir, mlp_model, noisy_disc, tmp_path, capsys, bad):
    lines = mlp_model.read_text(encoding="ascii").splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith("weights 0 "))
    values = lines[i].split()
    values[2] = bad
    lines[i] = " ".join(values)
    model_path = tmp_path / f"{bad}.model"
    model_path.write_text("\n".join(lines) + "\n", encoding="ascii")
    mask_path = tmp_path / "mask.pgm"
    rc = cli.main(["segment", "--model", str(model_path), "--input", str(noisy_disc),
                   "--output", str(mask_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(model_path) in err and "non-finite" in err
    assert not mask_path.exists()


@pytest.mark.parametrize("kind, pattern, repl", [
    pytest.param("tree", r"^config .*$", "config min_samples_split", id="tree-cut-config"),
    pytest.param("tree", r"^leaf .*$", "leaf 0 0", id="tree-empty-leaf"),
    pytest.param("bayes", r"^alpha .*$", "alpha", id="bayes-bare-alpha"),
    pytest.param("bayes", r"^alpha .*$", "alpha -5", id="bayes-negative-alpha"),
    pytest.param("bayes", r"^class_counts .*$", "class_counts 0 0", id="bayes-no-samples"),
    pytest.param("mlp", r"^biases 0 \S+", "biases 0 1e308", id="mlp-huge-bias"),
    pytest.param("tree", r"^split (\S+) \S+", r"split \1 nan", id="tree-nan-threshold"),
    pytest.param("tree", r"^split (\S+) \S+", r"split \1 inf", id="tree-inf-threshold"),
    pytest.param("bayes", r"^(counts h skin) \d+", r"\1 99999999999999999999",
                 id="bayes-count-past-int64"),
    pytest.param("bayes", r"^class_counts .*$", "class_counts 99999999999999999999 5",
                 id="bayes-class-count-past-int64"),
    pytest.param("bayes", r"^class_counts .*$",
                 "class_counts 9000000000000000000 9000000000000000000",
                 id="bayes-class-total-past-int64"),
    pytest.param("bayes", r"^seed .*$", "seed -1", id="bayes-negative-seed"),
    pytest.param("bayes", r"^(counts h skin) \d+", r"\1 5000", id="bayes-table-off-class-count"),
    pytest.param("bayes", r"^class_counts (\d+)", r"class_counts 1\1",
                 id="bayes-class-count-off-tables"),
    pytest.param("tree", r"^leaf .*$", "leaf 5000 1", id="tree-leaf-off-parent"),
    pytest.param("tree", r"^split (\S+) (\S+) (\d+)", r"split \1 \2 1\3",
                 id="tree-split-off-children"),
    pytest.param("tree", r"^samples .*$", "samples -1", id="tree-negative-samples"),
    pytest.param("tree", r"^samples (\d+)$", r"samples 1\1", id="tree-samples-off-root"),
    pytest.param("threshold", r"^(lower .*)$", r"\1\nlower 0 0 0", id="threshold-repeated-lower"),
    pytest.param("bayes", r"^(alpha .*)$", r"\1\nalpha 5", id="bayes-repeated-alpha"),
    pytest.param("tree", r"^(samples .*)$", r"\1\n\1", id="tree-repeated-samples"),
    pytest.param("mlp", r"^(biases 3 .*)$", r"\1\n\1", id="mlp-repeated-biases"),
    pytest.param("tree", r"^config \S+ (\S+) \S+ (\S+)$", r"config foo \1 bar \2",
                 id="tree-config-names"),
    pytest.param("tree", r"^split (\S+) \S+", r"split \1 255", id="tree-vacuous-split"),
    pytest.param("threshold", r"^(seed .*)$", r"\1\n\1", id="threshold-repeated-seed"),
    pytest.param("bayes", r"^fingerprint .*$", "fingerprint a b", id="bayes-two-field-fingerprint"),
])
def test_malformed_model_body_exits_2(kind, pattern, repl, noisy_disc, tmp_path, capsys,
                                      request):
    good = request.getfixturevalue(f"{kind}_model").read_text(encoding="ascii")
    text = re.sub(pattern, repl, good, count=1, flags=re.M)
    assert text != good
    model_path = tmp_path / "bad.model"
    model_path.write_text(text, encoding="ascii")
    mask_path = tmp_path / "mask.pgm"
    rc = cli.main(["segment", "--model", str(model_path), "--input", str(noisy_disc),
                   "--output", str(mask_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"bad model file {model_path}:" in err
    assert not mask_path.exists()


@pytest.mark.parametrize("pattern, repl", [
    pytest.param(r"^(counts h skin) \d+", r"\1 99999999999999999999", id="count-past-int64"),
    pytest.param(r"^class_counts .*$", "class_counts 99999999999999999999 5",
                 id="class-count-past-int64"),
    pytest.param(r"^class_counts .*$", "class_counts 9000000000000000000 9000000000000000000",
                 id="class-total-past-int64"),
    pytest.param(r"^seed .*$", "seed -1", id="negative-seed"),
])
def test_malformed_model_eval_exits_2_naming_the_model(pattern, repl, bayes_model,
                                                       surrogate_file, tmp_path, capsys):
    good = bayes_model.read_text(encoding="ascii")
    text = re.sub(pattern, repl, good, count=1, flags=re.M)
    assert text != good
    model_path = tmp_path / "bad.model"
    model_path.write_text(text, encoding="ascii")
    rc = cli.main(["eval", "--dataset", str(surrogate_file), "--model", str(model_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"bad model file {model_path}:" in err


@pytest.mark.parametrize("command, expect_rc", [("train", 2), ("eval", 2), ("dataset-stats", 0)])
def test_one_row_dataset(command, expect_rc, bayes_model, tmp_path, capsys):
    one_row = tmp_path / "one_row.txt"
    one_row.write_text("1 2 3 1\n", encoding="ascii")
    argv = {
        "train": ["train", "--dataset", str(one_row), "--model", str(tmp_path / "m"),
                  "--kind", "bayes"],
        "eval": ["eval", "--dataset", str(one_row), "--model", str(bayes_model)],
        "dataset-stats": ["dataset-stats", "--dataset", str(one_row)],
    }[command]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == expect_rc, err
    if expect_rc == 2:
        assert f"dataset {one_row}" in err
        assert "internal error" not in err


@pytest.mark.parametrize("content, message", [
    pytest.param(b"1 2 3 1\n4 5 6 2\n7 8 9 7\n", "line 3: label must be 1 or 2, got 7",
                 id="bad-label"),
    pytest.param(b"1 2 3 1\n4 5 6\xff 2\n", "line 2: non-integer field in "
                 "['4', '5', '6\\udcff', '2']", id="non-ascii"),
])
@pytest.mark.parametrize("command", ["train", "eval", "dataset-stats"])
def test_malformed_dataset_exits_2_naming_file_and_line(command, content, message,
                                                        bayes_model, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    argv = {
        "train": ["train", "--dataset", str(bad), "--model", str(tmp_path / "m"),
                  "--kind", "bayes"],
        "eval": ["eval", "--dataset", str(bad), "--model", str(bayes_model)],
        "dataset-stats": ["dataset-stats", "--dataset", str(bad)],
    }[command]
    rc = cli.main(argv)
    assert rc == 2
    assert capsys.readouterr().err == f"error: dataset {bad}: {message}\n"


@pytest.mark.parametrize("kind", ["bayes", "mlp"])  # a one-class tree is a single leaf
def test_single_class_training_set_exits_2_naming_file(kind, tmp_path, capsys):
    single = tmp_path / "single.txt"
    single.write_text("1 2 3 1\n4 5 6 1\n7 8 9 1\n", encoding="ascii")
    rc = cli.main(["train", "--dataset", str(single), "--model", str(tmp_path / "m"),
                   "--kind", kind])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot train on dataset {single}: ")


@pytest.mark.parametrize("kind", ["threshold", "bayes", "tree", "mlp"])
def test_train_rejects_an_unwritable_model_before_reading_or_fitting(kind, surrogate_file,
                                                                     tmp_path, capsys,
                                                                     monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("train read or fitted before rejecting --model")

    for name in ("load_uci", "ThresholdRange", "bayes_fit", "tree_fit", "train_mlp"):
        monkeypatch.setattr(cli, name, must_not_run)
    cases = ((tmp_path / "no such dir" / "m.model", "[Errno 2] No such file or directory"),
             (tmp_path, "[Errno 21] Is a directory"))
    for path, reason in cases:
        rc = cli.main(["train", "--dataset", str(surrogate_file), "--model", str(path),
                       "--kind", kind])
        assert rc == 2
        assert capsys.readouterr().err == f"error: cannot write model {path}: {reason}: '{path}'\n"
    assert not cases[0][0].parent.exists()


def test_train_leaves_no_model_file_when_it_fails(tmp_path, capsys):
    single = tmp_path / "single.txt"
    single.write_text("1 2 3 1\n4 5 6 1\n7 8 9 1\n", encoding="ascii")
    fresh, kept = tmp_path / "fresh.model", tmp_path / "kept.model"
    kept.write_bytes(b"earlier bytes\n")
    for path in (fresh, kept):
        rc = cli.main(["train", "--dataset", str(single), "--model", str(path), "--kind", "bayes"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: cannot train on dataset {single}: ")
    assert not fresh.exists()  # the early check removes the file it made
    assert kept.read_bytes() == b"earlier bytes\n"  # and truncates nothing


# SHA-256 of the model file and the eval report for each kind trained with
# default flags (mlp: 3 epochs) on surrogate_rows(6000, 24000, seed=5)
PINNED_DIGESTS = {
    "threshold": ("4c462c042fe0694014d86d6ca9849b7d689fab9206046b7f290fbd07fc4aca26",
                  "88295c8438394d6500e903fad8b7d6aed3e2940333c2c76b6a94bfd069a71df7"),
    "bayes": ("7422b0ce4da134d6cf7ced487bb8dff78fcc55397c386746609a26eeaf1c84b9",
              "6b6ff278595292fc72cd061df067bff00c77d8b26fd680d0e28ed36e15559687"),
    "tree": ("585e7a1770a56e434e562d919811334e67be7e908c03926bcc12fce066145181",
             "10e16badd96a9123d7cce70ad2b0a704689ba7eeef13ecd5cdb4ad9fe36e0083"),
    "mlp": ("473a637510c188b007f36537906263587e6756910aca5526965eb8a0dc261e24",
            "ee6ac2c829d4b462f525fbab09841ba7ddea2f42a752334f02be160d5f04b024"),
}


@pytest.fixture(scope="module")
def pinned_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("pinned") / "rows.txt"
    path.write_text("\n".join(surrogate_rows(6000, 24000, seed=5)) + "\n", encoding="ascii")
    return path


@pytest.fixture(scope="module")
def pinned_models(pinned_dataset, tmp_path_factory):
    """Model file of each kind trained with default flags (mlp: 3 epochs) on pinned_dataset."""
    folder = tmp_path_factory.mktemp("pinned_models")
    models = {}
    for kind in sorted(PINNED_DIGESTS):
        models[kind] = folder / f"{kind}.model"
        extra = ["--epochs", "3"] if kind == "mlp" else []
        assert cli.main(["train", "--dataset", str(pinned_dataset), "--model",
                         str(models[kind]), "--kind", kind, *extra]) == 0
    return models


@pytest.mark.parametrize("kind", sorted(PINNED_DIGESTS))
def test_trained_model_and_report_bytes_are_pinned(kind, pinned_dataset, pinned_models, tmp_path):
    model, report = pinned_models[kind], tmp_path / f"{kind}.report"
    assert cli.main(["eval", "--dataset", str(pinned_dataset), "--model", str(model),
                     "--output", str(report)]) == 0
    digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest() for p in (model, report))
    assert digests == PINNED_DIGESTS[kind]


SEGMENT_FLAG_SETS = (
    [],
    ["--refine"],
    ["--refine", "--rule", "paper", "--radius", "3"],
    ["--refine", "--radius", "7", "--downscale"],
)

# SHA-256 of the segment mask followed by its --prob-out map, for each
# pinned model on _pinned_scene() under each of SEGMENT_FLAG_SETS
PINNED_SEGMENT_DIGESTS = {
    "threshold": (
        "7a7083bd8cf94af8c90df85be040de3dc259eebf6640112431c9f18fcc828896",
        "cddda5e495242b8caf5550b736ef396a982a0c4f9b255f373ef4995d68479ea2",
        "7a7083bd8cf94af8c90df85be040de3dc259eebf6640112431c9f18fcc828896",
        "38664fe9c576bb42cb6c9dc6b4ee52b55c4cd4d9803c33364d00664f7d8270c2",
    ),
    "bayes": (
        "5366976590e205567bcb59e17dc0c3a80d18ca6db0cd6841e4feb5af43e83dd8",
        "562a3f4ab4d948aa954a4bba8684147c56e6d4e9615122b4483ae424e2c24abb",
        "5252e2e23fe1ac90b497ad115345d2e01b6cba1a39a2d32c7ce0fcc569d96617",
        "2bb6eae7ded9c8d0e4d140fbc22652dc5289b07706ddc48a015fc9eb5ddeb1f1",
    ),
    "tree": (
        "f5a37100719922422fc35151d011cb522d6e8038b9b86f143ddff52f0ac42808",
        "ed302a1607e4822991ab7027cf7add23712b9b5b730f2996470fc2ce7ef17911",
        "22833990e288b950e7e9630c03fac1a0d5c7212451a83d547410648158f4e8f4",
        "080a88415da27515e001981184122e9de84095c1122932f4739f8a070a0e630b",
    ),
    "mlp": (
        "2a3530066f7b022875a5055c8d7a867bc07db9a1098679d9a1ea6c6bed90ba12",
        "4e9e86476378a4714d0f0e6890da01dbd845799c0b9663fd3db8e204abb3829b",
        "b63adf0cb34126a7c419239a6d5af62d9f3b72dcfca0a21d2ae5aae79f91061f",
        "c67aa14dda6b4c9aca6897feea9e11cb799948789fce2709ae81aa2e7e80477e",
    ),
}


def _pinned_scene():
    """40x32 seeded frame: colour noise with a jittered skin-tone ellipse and specks."""
    rng = np.random.default_rng(1212)
    h, w = 32, 40
    pixels = rng.integers(0, 256, size=(h, w, 3))
    yy, xx = np.mgrid[0:h, 0:w]
    blob = ((yy - 15) / 11.0) ** 2 + ((xx - 22) / 14.0) ** 2 <= 1.0
    blob |= rng.random((h, w)) < 0.04
    pixels[blob] = np.array(SKIN_TONE) + rng.integers(-30, 31, size=(int(blob.sum()), 3))
    return np.clip(pixels, 0, 255).astype(np.uint8)


@pytest.mark.parametrize("kind", sorted(PINNED_SEGMENT_DIGESTS))
def test_segment_mask_and_prob_bytes_are_pinned(kind, pinned_models, tmp_path):
    image = _write_ppm(tmp_path / "scene.ppm", _pinned_scene())
    mask, prob = tmp_path / "mask.pgm", tmp_path / "prob.pgm"
    digests = []
    for flags in SEGMENT_FLAG_SETS:
        assert cli.main(["segment", "--model", str(pinned_models[kind]), "--input", str(image),
                         "--output", str(mask), "--prob-out", str(prob), *flags]) == 0
        digests.append(hashlib.sha256(mask.read_bytes() + prob.read_bytes()).hexdigest())
    assert tuple(digests) == PINNED_SEGMENT_DIGESTS[kind]


def test_usage_errors_exit_1(workdir, surrogate_file, bayes_model, capsys):
    cases = (
        [],  # no subcommand
        ["polish"],  # unknown subcommand
        ["train", "--dataset", str(surrogate_file)],  # missing required flags
        ["train", "--dataset", str(surrogate_file), "--model", "m", "--kind", "svm"],
        ["train", "--dataset", str(surrogate_file), "--model", "m", "--kind", "tree",
         "--alpha", "2"],  # alpha only fits bayes
        ["train", "--dataset", str(surrogate_file), "--model", "m", "--kind", "bayes",
         "--epochs", "3"],  # epochs only fit mlp
        ["train", "--dataset", str(surrogate_file), "--model", "m", "--kind", "bayes",
         "--test-fraction", "1.5"],
        ["segment", "--model", str(bayes_model), "--input", "x.ppm", "--output", "y.pgm",
         "--rule", "paper"],  # rule without --refine
        ["train", "--dataset", str(surrogate_file), "--model", "m", "--kind", "bayes",
         "--alpha", "nan"],
        ["train", "--dataset", str(surrogate_file), "--model", "m", "--kind", "bayes",
         "--alpha", "inf"],
        ["train", "--dataset", str(surrogate_file), "--model", "m", "--kind", "bayes",
         "--seed", "-1"],
        ["eval", "--dataset", str(surrogate_file), "--model", str(bayes_model),
         "--seed", "-1"],
        ["dataset-stats", "--dataset", str(surrogate_file), "--seed", "0"],  # no such flag
        *(["segment", "--model", str(bayes_model), "--input", "x.ppm", "--output", "y.pgm",
           "--refine", *bad] for bad in (["--radius", "0"], ["--rule", "paper", "--tau", "0"],
                                         ["--rule", "paper", "--tau", "nan"])),
        *(["bench", "--model", str(bayes_model), "--input", "x.ppm", *bad]
          for bad in (["--radius", "0"], ["--rule", "paper", "--tau", "0"],
                      ["--rule", "paper", "--tau", "nan"])),
    )
    # a value the config types reject: the message names the setting and the value
    rejected = {
        ("train", "--dataset", str(surrogate_file), "--model", "m", "--kind", "mlp",
         "--epochs", "0"): "epochs must be >= 1, got 0",
        ("train", "--dataset", str(surrogate_file), "--model", "m", "--kind", "mlp",
         "--batch-size", "0"): "batch_size must be >= 1, got 0",
        ("eval", "--dataset", str(surrogate_file), "--model", str(bayes_model),
         "--test-fraction", "0"): "test_fraction must lie in (0, 1), got 0.0",
        ("dataset-stats", "--dataset", str(surrogate_file),
         "--test-fraction", "1"): "test_fraction must lie in (0, 1), got 1.0",
    }
    tau_unused = (  # the symmetric rule never reads the decision threshold
        ["segment", "--model", str(bayes_model), "--input", "x.ppm", "--output", "y.pgm",
         "--refine", "--tau", "0.1"],
        ["bench", "--model", str(bayes_model), "--input", "x.ppm", "--tau", "0.9"],
    )
    # the same usage errors with no dataset or model file to read: a check
    # made only after a file read would exit 2 here
    missing = str(workdir / "no such dir" / "missing")
    no_files = tuple(
        [missing if i and argv[i - 1] in ("--dataset", "--model") else arg
         for i, arg in enumerate(argv)]
        for argv in (*cases, *map(list, rejected))
        if argv and argv[0] in ("train", "eval", "dataset-stats")
    )
    for argv in (*cases, *map(list, rejected), *tau_unused, *no_files):
        assert cli.main(argv) == 1, argv
        captured = capsys.readouterr()
        assert "error:" in captured.err
        if argv in tau_unused:
            assert "--tau only applies to --rule paper" in captured.err
        if tuple(argv) in rejected:
            assert rejected[tuple(argv)] in captured.err


def test_data_errors_exit_2(workdir, surrogate_file, bayes_model, tmp_path, capsys):
    garbage_model = tmp_path / "garbage.model"
    garbage_model.write_text("not a model at all\n", encoding="ascii")
    non_ascii_model = tmp_path / "non-ascii.model"
    non_ascii_model.write_bytes(b"skinseg-model 1\nkind \xe9\n")
    single_class = tmp_path / "single.txt"
    single_class.write_text("1 2 3 1\n4 5 6 1\n7 8 9 1\n", encoding="ascii")
    malformed_rows = tmp_path / "malformed.txt"
    malformed_rows.write_text("1 2 3 1\n4 5\n", encoding="ascii")
    blank = tmp_path / "blank.txt"
    blank.write_text("\n  \n\t\n", encoding="ascii")
    one_row = tmp_path / "one_row.txt"
    one_row.write_text("1 2 3 1\n", encoding="ascii")
    image = _flat_image(tmp_path / "skin.ppm", SKIN_TONE)
    tiny = _flat_image(tmp_path / "tiny.ppm", SKIN_TONE, w=1, h=1)
    bad_image = tmp_path / "bad.ppm"
    bad_image.write_bytes(b"P3\n1 1\n255\n")
    missing_data = tmp_path / "missing.txt"
    missing_model = tmp_path / "missing.model"
    missing_image = tmp_path / "missing.ppm"
    unwritable = tmp_path / "no such dir" / "out"
    folder = tmp_path
    enoent, eisdir = "[Errno 2] No such file or directory", "[Errno 21] Is a directory"
    model, mask = str(tmp_path / "m"), str(tmp_path / "y.pgm")

    def train(dataset, kind="bayes", out=model):
        return ["train", "--dataset", str(dataset), "--model", str(out), "--kind", kind]

    def evaluate(dataset, saved, *flags):
        return ["eval", "--dataset", str(dataset), "--model", str(saved), *flags]

    def segment(saved, source, *flags, out=mask):
        return ["segment", "--model", str(saved), "--input", str(source), "--output", str(out),
                *flags]

    # every file the CLI reads or writes: exit 2 with one line naming the file
    cases = (
        (train(missing_data), f"cannot read dataset {missing_data}: {enoent}"),
        (train(folder), f"cannot read dataset {folder}: {eisdir}"),
        (train(malformed_rows), f"dataset {malformed_rows}: line 2: "),
        (train(blank), f"dataset {blank} is empty\n"),
        (train(one_row), f"cannot split dataset {one_row}: "),
        (train(single_class, "mlp") + ["--epochs", "1"],
         f"cannot train on dataset {single_class}: "),
        (train(surrogate_file, out=unwritable), f"cannot write model {unwritable}: {enoent}"),
        (evaluate(surrogate_file, missing_model), f"cannot read model {missing_model}: {enoent}"),
        (evaluate(surrogate_file, folder), f"cannot read model {folder}: {eisdir}"),
        (evaluate(surrogate_file, garbage_model), f"bad model file {garbage_model}: "),
        (evaluate(surrogate_file, non_ascii_model),
         f"bad model file {non_ascii_model}: 'ascii' codec can't decode byte 0xe9"),
        (evaluate(missing_data, bayes_model), f"cannot read dataset {missing_data}: {enoent}"),
        (evaluate(blank, bayes_model), f"dataset {blank} is empty\n"),
        (evaluate(one_row, bayes_model), f"cannot split dataset {one_row}: "),
        (evaluate(surrogate_file, bayes_model, "--output", str(unwritable)),
         f"cannot write report {unwritable}: {enoent}"),
        (segment(bayes_model, missing_image), f"cannot read image {missing_image}: {enoent}"),
        (segment(bayes_model, folder), f"cannot read image {folder}: {eisdir}"),
        (segment(bayes_model, bad_image), f"bad image {bad_image}: expected magic P6, got b'P3'"),
        (segment(garbage_model, image), f"bad model file {garbage_model}: "),
        (segment(bayes_model, tiny, "--downscale"),
         f"cannot segment image {tiny}: image too small to halve: 1x1\n"),
        (segment(bayes_model, image, out=unwritable), f"cannot write mask {unwritable}: {enoent}"),
        (segment(bayes_model, image, "--prob-out", str(unwritable)),
         f"cannot write probability map {unwritable}: {enoent}"),
        (["bench", "--model", str(garbage_model), "--input", str(missing_image)],
         f"bad model file {garbage_model}: "),
        (["bench", "--model", str(bayes_model), "--input", str(tiny)],
         f"cannot segment image {tiny}: image too small to halve: 1x1\n"),
        (["dataset-stats", "--dataset", str(missing_data)],
         f"cannot read dataset {missing_data}: {enoent}"),
        (["dataset-stats", "--dataset", str(blank)], f"dataset {blank} is empty\n"),
    )
    for argv, message in cases:
        assert cli.main(argv) == 2, argv
        *warnings, line = capsys.readouterr().err.splitlines(keepends=True)
        assert line.startswith(f"error: {message}") and line.endswith("\n"), (argv, line)
        assert not warnings, (argv, warnings)  # one error line, and no warning before it


def test_no_subcommand_exits_1_naming_every_subcommand(capsys):
    assert cli.main([]) == 1
    assert capsys.readouterr().err == ("error: skinseg: a subcommand is required "
                                       "(train, eval, segment, bench, dataset-stats)\n")


@pytest.mark.parametrize("argv, message", [
    (["dataset-stats", "--dataset", "d", "--seed", "1"],
     "skinseg dataset-stats: unrecognized arguments: --seed 1"),
    (["--bogus"], "skinseg: unrecognized arguments: --bogus"),
], ids=["subcommand", "top-level"])
def test_unrecognised_flag_is_reported_under_the_command_given(argv, message, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_unexpected_exception_exits_3(surrogate_file, monkeypatch, capsys):
    def boom(path):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "load_uci", boom)
    assert cli.main(["dataset-stats", "--dataset", str(surrogate_file)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "internal error: RuntimeError: boom\n"
    assert captured.out == ""
