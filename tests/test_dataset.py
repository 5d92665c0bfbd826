"""Dataset parsing, conversion and split arithmetic."""

import numpy as np
import pytest

from skinseg.colorspace import RgbPixel, rgb_to_hsv
from skinseg.dataset import (
    DatasetError,
    HsvSample,
    Label,
    RawSample,
    SplitConfig,
    hsv_arrays,
    label_counts,
    parse_uci,
    serialize_uci,
    split,
    to_hsv_samples,
    train_size,
)


def test_label_codes():
    assert Label.from_code(1) is Label.SKIN
    assert Label.from_code(2) is Label.NON_SKIN
    assert Label.SKIN.code == 1
    assert Label.NON_SKIN.code == 2
    with pytest.raises(ValueError):
        Label.from_code(3)


def test_parse_single_lines():
    samples = parse_uci(["10 20 30 2"])
    assert samples == [RawSample(b=10, g=20, r=30, label=Label.NON_SKIN)]
    samples = parse_uci(["0\t0\t0\t1"])
    assert samples == [RawSample(b=0, g=0, r=0, label=Label.SKIN)]


def test_parse_skips_blank_lines_and_preserves_order():
    text = ["", "1 2 3 1", "   ", "4 5 6 2", "\t"]
    samples = parse_uci(text)
    assert [s.b for s in samples] == [1, 4]
    assert [s.label for s in samples] == [Label.SKIN, Label.NON_SKIN]


@pytest.mark.parametrize(
    "bad, fragment",
    [
        ("1 2 3", "line 1"),
        ("1 2 3 4 5", "line 1"),
        ("1 2 three 1", "line 1"),
        ("1 2 300 1", "line 1"),
        ("-1 2 3 1", "line 1"),
        ("1 2 3 7", "line 1"),
    ],
)
def test_parse_errors_name_line_numbers(bad, fragment):
    with pytest.raises(DatasetError) as exc:
        parse_uci([bad])
    assert fragment in str(exc.value)
    # same error on a later line reports that line's number
    with pytest.raises(DatasetError) as exc:
        parse_uci(["1 2 3 1", "", bad])
    assert "line 3" in str(exc.value)


def test_parse_serialize_round_trip():
    rng = np.random.default_rng(31)
    rows = [
        RawSample(int(b), int(g), int(r), Label.from_code(int(c)))
        for b, g, r, c in zip(
            rng.integers(0, 256, 200),
            rng.integers(0, 256, 200),
            rng.integers(0, 256, 200),
            rng.integers(1, 3, 200),
        )
    ]
    assert parse_uci(serialize_uci(rows).splitlines()) == rows


def test_label_counts():
    samples = parse_uci(["1 2 3 1", "4 5 6 2", "7 8 9 2"])
    counts = label_counts(samples)
    assert counts[Label.SKIN] == 1
    assert counts[Label.NON_SKIN] == 2


def test_to_hsv_matches_scalar_conversion():
    rng = np.random.default_rng(8)
    raw = [
        RawSample(int(b), int(g), int(r), Label.SKIN)
        for b, g, r in rng.integers(0, 256, size=(500, 3))
    ]
    converted = to_hsv_samples(raw)
    for s, out in zip(raw, converted):
        expect = rgb_to_hsv(RgbPixel(s.r, s.g, s.b))
        assert (out.h, out.s, out.v) == (expect.h, expect.s, expect.v)
        assert out.label is s.label
    assert to_hsv_samples([]) == []


def test_to_hsv_pure_red():
    raw = [RawSample(b=0, g=0, r=255, label=Label.SKIN)]
    assert to_hsv_samples(raw) == [HsvSample(h=0, s=255, v=255, label=Label.SKIN)]


def test_hsv_arrays():
    samples = [
        HsvSample(1, 2, 3, Label.SKIN),
        HsvSample(4, 5, 6, Label.NON_SKIN),
    ]
    hsv, skin = hsv_arrays(samples)
    assert hsv.dtype == np.uint8
    assert np.array_equal(hsv, [[1, 2, 3], [4, 5, 6]])
    assert np.array_equal(skin, [True, False])
    hsv, skin = hsv_arrays([])
    assert hsv.shape == (0, 3) and skin.shape == (0,)


def test_train_size_arithmetic():
    # the published 299,629-row arithmetic: 209,740 train / 89,889 test
    assert train_size(299_629, 0.30) == 209_740
    assert 299_629 - train_size(299_629, 0.30) == 89_889
    assert train_size(10, 0.3) == 7
    assert train_size(2, 0.5) == 1
    # train side is floored, so the test side picks up the remainder
    assert train_size(7, 0.3) == 4  # 7*0.7 = 4.9 -> 4, test gets 3


def test_split_config_validation():
    with pytest.raises(ValueError):
        SplitConfig(test_fraction=0.0)
    with pytest.raises(ValueError):
        SplitConfig(test_fraction=1.0)
    SplitConfig(test_fraction=0.5, seed=123)  # fine


def test_split_sizes_and_multiset_preservation():
    rng = np.random.default_rng(17)
    samples = [
        RawSample(int(b), int(g), int(r), Label.SKIN)
        for b, g, r in rng.integers(0, 256, size=(101, 3))
    ]
    train, test = split(samples, SplitConfig(test_fraction=0.30, seed=5))
    assert len(train) == train_size(101, 0.30)
    assert len(train) + len(test) == 101
    key = lambda s: (s.b, s.g, s.r, s.label.code)
    assert sorted(map(key, train + test)) == sorted(map(key, samples))


def test_split_deterministic_and_seed_sensitive():
    samples = parse_uci(f"{i % 256} {i % 256} {i % 256} {1 + i % 2}" for i in range(50))
    a = split(samples, SplitConfig(seed=42))
    b = split(samples, SplitConfig(seed=42))
    c = split(samples, SplitConfig(seed=43))
    assert a == b
    assert a != c


def test_split_rejects_tiny_input():
    with pytest.raises(ValueError):
        split([RawSample(0, 0, 0, Label.SKIN)], SplitConfig())
    with pytest.raises(ValueError):
        split([], SplitConfig())


def test_split_is_a_permutation_of_the_documented_generator():
    """The shuffle must come from numpy's seeded PCG64 generator."""
    samples = parse_uci(f"{i} {i} {i} 1" for i in range(20))
    train, test = split(samples, SplitConfig(test_fraction=0.30, seed=9))
    perm = np.random.Generator(np.random.PCG64(9)).permutation(20)
    expect = [samples[i] for i in perm]
    assert train == expect[:14]
    assert test == expect[14:]
