"""Versioned text persistence for every classifier kind."""

import re

import numpy as np
import pytest

from skinseg.classifiers import (
    ThresholdRange,
    TreeConfig,
    bayes_fit,
    bayes_predict_batch,
    threshold_scores,
    tree_fit,
    tree_predict_batch,
)
from skinseg.colorspace import YcbcrPixel
from skinseg.dataset import RawSamples, parse_uci, to_hsv_samples
from skinseg.model_io import (
    FORMAT_HEADER,
    dataset_fingerprint,
    load_model,
    model_from_text,
    model_kind,
    model_to_text,
    save_model,
)
from skinseg.nn import MlpArchitecture, TrainConfig, init_model, mlp_predict_batch, train
from skinseg.segment import score_rgb

N_PROBE = 10_000


def _probe_hsv(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(N_PROBE, 3), dtype=np.uint8)


def _probe_rgb(seed=1):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, size=(N_PROBE, 3), dtype=np.uint8)


@pytest.fixture(scope="module")
def hsv_train(surrogate_samples):
    samples = to_hsv_samples(surrogate_samples)
    # shuffle so any prefix slice carries both classes
    order = np.random.default_rng(17).permutation(len(samples))
    return samples[order]


def test_threshold_round_trip(tmp_path):
    box = ThresholdRange(lower=YcbcrPixel(10, 150, 61), upper=YcbcrPixel(250, 179, 120))
    path = tmp_path / "box.model"
    save_model(path, box, seed=4, fingerprint="abc123")
    saved = load_model(path)
    assert saved.kind == "threshold" and saved.seed == 4
    assert saved.fingerprint == "abc123"
    assert saved.model == box
    rgb = _probe_rgb()
    assert np.array_equal(threshold_scores(rgb, saved.model), threshold_scores(rgb, box))


def test_default_threshold_round_trip():
    box = ThresholdRange()
    saved = model_from_text(model_to_text(box, seed=0))
    assert saved.model == box
    assert saved.fingerprint == "none"


def test_bayes_round_trip_is_exact(hsv_train):
    model = bayes_fit(hsv_train, alpha=1.0)
    saved = model_from_text(model_to_text(model, seed=11))
    hsv = _probe_hsv()
    # integer count tables round-trip exactly, so so do the predictions
    assert np.array_equal(bayes_predict_batch(saved.model, hsv), bayes_predict_batch(model, hsv))
    assert saved.model.alpha == model.alpha
    assert np.array_equal(saved.model.class_counts, model.class_counts)
    assert np.array_equal(saved.model.counts, model.counts)


def test_tree_round_trip_is_exact(hsv_train, tmp_path):
    model = tree_fit(hsv_train, TreeConfig(max_depth=7))
    path = tmp_path / "tree.model"
    save_model(path, model, seed=3)
    saved = load_model(path)
    hsv = _probe_hsv(5)
    assert np.array_equal(tree_predict_batch(saved.model, hsv), tree_predict_batch(model, hsv))
    assert saved.model.node_count() == model.node_count()
    assert saved.model.depth() == model.depth()
    for name in ("attribute", "threshold", "right", "counts"):
        assert np.array_equal(getattr(saved.model, name), getattr(model, name)), name


def test_mlp_round_trip_is_exact(hsv_train):
    model, _ = train(hsv_train[:600], MlpArchitecture(), TrainConfig(epochs=2, seed=9))
    saved = model_from_text(model_to_text(model, seed=9))
    for a, b in zip(saved.model.weights + saved.model.biases, model.weights + model.biases):
        assert np.array_equal(a, b)  # 17 significant digits recover doubles
    hsv = _probe_hsv(6)
    a = mlp_predict_batch(saved.model, hsv)
    b = mlp_predict_batch(model, hsv)
    assert np.array_equal(a, b)
    assert np.max(np.abs(a - b)) <= 1e-12


def test_serialization_is_a_fixed_point(hsv_train):
    for model in (
        ThresholdRange(),
        bayes_fit(hsv_train[:800], alpha=2.0),
        tree_fit(hsv_train[:800], TreeConfig(max_depth=4)),
        train(hsv_train[:300], MlpArchitecture(hidden_layers=(4,)), TrainConfig(epochs=1))[0],
    ):
        text = model_to_text(model, seed=1, fingerprint="f")
        again = model_to_text(model_from_text(text).model, seed=1, fingerprint="f")
        assert again == text


def test_header_layout():
    text = model_to_text(ThresholdRange(), seed=12, fingerprint="deadbeef")
    lines = text.splitlines()
    assert lines[0] == FORMAT_HEADER
    assert lines[1] == "kind threshold"
    assert lines[2] == "seed 12"
    assert lines[3] == "fingerprint deadbeef"


def test_unknown_version_or_kind_rejected():
    good = model_to_text(ThresholdRange(), seed=0)
    with pytest.raises(ValueError):
        model_from_text(good.replace("skinseg-model 1", "skinseg-model 2"))
    with pytest.raises(ValueError):
        model_from_text("not a model\n")
    with pytest.raises(ValueError):
        model_from_text("")
    with pytest.raises(ValueError):
        model_from_text(good.replace("kind threshold", "kind svm"))


@pytest.mark.parametrize("pattern, repl, message", [
    pytest.param(r"^(seed .*)$", r"\1\n\1", "header body repeats its seed line",
                 id="repeated-seed"),
    pytest.param(r"^fingerprint .*\n", "", "malformed header line: 'lower ", id="no-fingerprint"),
    pytest.param(r"^kind threshold$", "kind threshold box", "header kind needs 1 values, got 2",
                 id="kind-second-field"),
    pytest.param(r"^fingerprint .*$", "fingerprint a b",
                 "header fingerprint needs 1 values, got 2", id="fingerprint-two-fields"),
    pytest.param(r"^fingerprint (?s:.*)", "", "incomplete header body: no fingerprint line",
                 id="cut-short"),
])
def test_malformed_header_rejected(pattern, repl, message):
    good = model_to_text(ThresholdRange(), seed=3, fingerprint="abc")
    text = re.sub(pattern, repl, good, count=1, flags=re.M)
    assert text != good
    with pytest.raises(ValueError, match=re.escape(message)):
        model_from_text(text)


def test_malformed_threshold_body():
    good = model_to_text(ThresholdRange(), seed=0)
    with pytest.raises(ValueError):
        model_from_text(good.replace("upper", "uppr"))
    truncated = "\n".join(good.splitlines()[:-1]) + "\n"
    with pytest.raises(ValueError):
        model_from_text(truncated)
    # a repeated key: the later line must not silently win
    with pytest.raises(ValueError, match="repeats its lower line"):
        model_from_text(re.sub(r"^(lower .*)$", r"\1\nlower 0 0 0", good, flags=re.M))


# (pattern, replacement) pairs that break one line of a valid model body
BAYES_MUTATIONS = (
    (r"^alpha .*$", "alpha"),
    (r"^alpha .*$", "alpha -5"),
    (r"^alpha .*$", "alpha nan"),
    (r"^class_counts .*$", "class_counts 7"),
    (r"^class_counts .*$", "class_counts 0 0"),
    (r"^counts h .*$", "counts h"),
    (r"^(counts h skin) \d+", r"\1 -1"),
    (r"^(counts h skin) \d+", r"\1 99999999999999999999"),
    (r"^(counts v non_skin) \d+", r"\1 9223372036854775808"),
    (r"^class_counts .*$", "class_counts 99999999999999999999 5"),
    (r"^class_counts .*$", "class_counts 9000000000000000000 9000000000000000000"),
    (r"^seed .*$", "seed -1"),
    (r"^(counts h skin) \d+", r"\1 5000"),  # the table no longer sums to its class count
    (r"^class_counts (\d+)", r"class_counts 1\1"),
    (r"^(alpha .*)$", r"\1\nalpha 5"),  # a repeated key
)
TREE_MUTATIONS = (
    (r"^config .*$", "config min_samples_split"),
    (r"^samples .*$", "samples"),
    (r"^leaf .*$", "leaf 0 0"),
    (r"^leaf .*$", "leaf -2 1"),
    (r"^leaf (\d+) .*$", r"leaf \1"),
    (r"^split (\S+) .*$", r"split \1"),
    (r"^split (\S+) \S+", r"split \1 nan"),
    (r"^split (\S+) \S+", r"split \1 inf"),
    (r"^split (\S+) \S+", r"split \1 -inf"),
    (r"^leaf .*$", "leaf 5000 1"),  # its parent's counts no longer match
    (r"^split (\S+) (\S+) (\d+)", r"split \1 \2 1\3"),
    (r"^samples .*$", "samples -1"),
    (r"^samples (\d+)$", r"samples 1\1"),
    (r"^(samples .*)$", r"\1\n\1"),  # a repeated key
    (r"^config \S+ (\S+) \S+ (\S+)$", r"config foo \1 bar \2"),
    (r"^split (\S+) \S+", r"split \1 255"),  # a vacuous split: every value goes left
    (r"^split (\S+) \S+", r"split \1 -0.5"),  # and every value right
)


def test_malformed_bayes_body(hsv_train):
    good = model_to_text(bayes_fit(hsv_train[:500]), seed=0)
    lines = good.splitlines()
    # drop one value from the first count table -> wrong length
    for i, ln in enumerate(lines):
        if ln.startswith("counts h skin"):
            lines[i] = ln.rsplit(" ", 1)[0]
            break
    with pytest.raises(ValueError):
        model_from_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        model_from_text(good.replace("likelihood_form factorized", "likelihood_form joint"))
    for pattern, repl in BAYES_MUTATIONS:
        text = re.sub(pattern, repl, good, count=1, flags=re.M)
        assert text != good
        with pytest.raises(ValueError):
            model_from_text(text)


def test_malformed_tree_body(hsv_train):
    good = model_to_text(tree_fit(hsv_train[:500], TreeConfig(max_depth=3)), seed=0)
    lines = good.splitlines()
    # removing the last leaf leaves an internal node with a missing child
    last_leaf = max(i for i, ln in enumerate(lines) if ln.startswith("leaf "))
    with pytest.raises(ValueError):
        model_from_text("\n".join(lines[:last_leaf] + lines[last_leaf + 1 :]) + "\n")
    # an extra trailing leaf has nowhere to attach
    with pytest.raises(ValueError):
        model_from_text(good + "leaf 1 1\n")
    for pattern, repl in TREE_MUTATIONS:
        text = re.sub(pattern, repl, good, count=1, flags=re.M)
        assert text != good
        with pytest.raises(ValueError):
            model_from_text(text)


def test_tree_counts_past_int64_are_rejected(hsv_train):
    # node counts are held as int64; a larger count must be a ValueError
    # (exit 2 at the CLI), not an OverflowError from the array conversion
    good = model_to_text(tree_fit(hsv_train[:500], TreeConfig(max_depth=3)), seed=0)
    for repl in (r"leaf \g<1> 9223372036854775808", r"leaf \g<1> 99999999999999999999"):
        text = re.sub(r"^leaf (\d+) \d+$", repl, good, count=1, flags=re.M)
        with pytest.raises(ValueError, match="below 2\\*\\*63"):
            model_from_text(text)
    # the largest count loads; a one-leaf tree keeps samples and counts consistent
    lines = good.splitlines()
    config = next(ln for ln in lines if ln.startswith("config "))
    text = "\n".join(lines[:4] + ["samples 9223372036854775807", config,
                                  "leaf 0 9223372036854775807"]) + "\n"
    assert model_from_text(text).model.counts.max() == 2**63 - 1


def test_malformed_mlp_body(hsv_train):
    model, _ = train(hsv_train[:300], MlpArchitecture(hidden_layers=(3,)), TrainConfig(epochs=1))
    good = model_to_text(model, seed=0)
    lines = good.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("weights 0"):
            lines[i] = ln + " 0.5"  # one float too many for the declared shape
            break
    with pytest.raises(ValueError):
        model_from_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        model_from_text(good.replace("hidden_layers 3", "hidden_layers 3 9"))
    with pytest.raises(ValueError):
        model_from_text(re.sub(r"^biases 0 .*$", "biases", good, count=1, flags=re.M))
    for prefix in ("weights 1", "biases 0"):
        for bad in ("nan", "inf", "-inf"):
            # the first value of that line becomes non-finite
            text = re.sub(rf"^{prefix} \S+", f"{prefix} {bad}", good, count=1, flags=re.M)
            assert text != good
            with pytest.raises(ValueError, match=f"layer {prefix[-1]} .*non-finite"):
                model_from_text(text)
    # a repeated last-layer biases line
    text = re.sub(r"^(biases 1 .*)$", r"\1\n\1", good, count=1, flags=re.M)
    assert text != good
    with pytest.raises(ValueError, match="repeats its biases 1 line"):
        model_from_text(text)
    # finite, but a first-layer bias of 1e308 overflows the logits
    text = re.sub(r"^biases 0 \S+", "biases 0 1e308", good, count=1, flags=re.M)
    assert text != good
    with pytest.raises(ValueError, match="layer 0 .*overflow"):
        model_from_text(text)


def test_model_kind_dispatch(hsv_train):
    assert model_kind(ThresholdRange()) == "threshold"
    assert model_kind(bayes_fit(hsv_train[:200])) == "bayes"
    assert model_kind(tree_fit(hsv_train[:200], TreeConfig(max_depth=2))) == "tree"
    assert model_kind(init_model(MlpArchitecture(), np.random.default_rng(0))) == "mlp"
    with pytest.raises(ValueError):
        model_kind(object())
    with pytest.raises(ValueError, match="unknown model type"):
        score_rgb(object(), _probe_rgb()[:5])


def test_fingerprint_is_stable_and_content_sensitive(surrogate_samples):
    fp = dataset_fingerprint(surrogate_samples)
    assert len(fp) == 64 and set(fp) <= set("0123456789abcdef")
    assert fp == dataset_fingerprint(RawSamples.of(list(surrogate_samples)))
    assert fp != dataset_fingerprint(surrogate_samples[:-1])


def test_fingerprint_ignores_source_whitespace():
    tabbed = parse_uci(["10\t20\t30\t1", "5\t6\t7\t2"])
    spaced = parse_uci(["10   20  30 1", "5 6 7 2"])
    assert dataset_fingerprint(tabbed) == dataset_fingerprint(spaced)
